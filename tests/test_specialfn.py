"""Exponential-comb strip functions and the normalized inversion kernel."""

import math

import numpy as np
import pytest

from tauberlab import regions, growth, specialfn, xforms
from tauberlab.errors import ConstructionError, DomainError, EvaluationOverflowError


EPS1 = math.pi / 6.0


def test_exp_cosine_origin_anchor():
    val = specialfn.exp_cosine(EPS1, 0.0)
    assert abs(val - math.exp(4.0)) <= 1e-12 * math.exp(4.0)


def test_exp_cosine_modulus_identity(rng):
    lam = rng.uniform(-6, 6, 400) + 1j * rng.uniform(-5, 5, 400)
    direct = np.abs(specialfn.exp_cosine(EPS1, lam))
    closed = np.exp(2.0 * np.cos(EPS1 * lam.real)
                    * (np.exp(EPS1 * lam.imag) + np.exp(-EPS1 * lam.imag)))
    assert np.max(np.abs(direct - closed) / closed) < 1e-12


def test_exp_cosine_overflow_raises():
    with pytest.raises(EvaluationOverflowError):
        specialfn.exp_cosine(EPS1, 0.0 + 2000.0j)  # cos(0) = 1 with huge cosh
    with pytest.raises(DomainError):
        specialfn.exp_cosine(-1.0, 0.0)


def test_strip_function_geometry(strip1):
    assert strip1.epsilon == pytest.approx(EPS1)
    assert strip1.x_center == pytest.approx(5.0)
    assert strip1.strip_half_width == pytest.approx(1.0)
    # at the strip center the comb sits where cos = -sqrt(3)/2
    assert strip1.modulus(0.0) == pytest.approx(math.exp(-2.0 * math.sqrt(3.0)), rel=1e-14)


def test_strip_function_rejects_bad_window():
    with pytest.raises(ConstructionError):
        specialfn.StripFunction(epsilon=EPS1, x_center=1.0, strip_half_width=1.0)


def test_strip_log_modulus_large_height(strip1):
    # far up the strip the closed-form log modulus stays finite and negative
    v = strip1.log_modulus(0.5 + 200.0j)
    assert np.isfinite(v) and v < -1e20


def test_verify_strip_decay_pin(strip1):
    grid = regions.sample(regions.strip(growth.constant(1.0)), 12.0, 21, 241)
    sup = specialfn.verify_strip_decay(strip1, EPS1, grid)
    assert sup == pytest.approx(0.65506646161970428, rel=1e-12)
    assert sup <= math.e
    wider = regions.sample(regions.strip(growth.constant(1.0)), 16.0, 21, 321)
    sup_w = specialfn.verify_strip_decay(strip1, EPS1, wider)
    assert abs(sup_w - sup) / sup < 1e-6


def test_verify_strip_decay_rejects_large_eps(strip1):
    grid = regions.sample(regions.strip(growth.constant(1.0)), 4.0, 5, 9)
    with pytest.raises(DomainError):
        specialfn.verify_strip_decay(strip1, EPS1 * 1.5, grid)


def test_kernel_pins(kernel):
    assert kernel.t0 == pytest.approx(1.1750000000000043, abs=1e-12)
    assert kernel.l1_norm == pytest.approx(2.5503264634492773, rel=1e-12)
    assert kernel.linf_norm == pytest.approx(1.0, rel=1e-12)
    assert kernel.deriv_l1_norm == pytest.approx(2.0247064709884097, rel=1e-10)
    assert kernel.deriv_linf_norm == pytest.approx(0.6482263921547826, rel=1e-10)
    peak = kernel.samples.values[kernel.peak_index]
    assert abs(peak - 1.0) < 1e-12


def test_kernel_is_real_and_roundtrips(kernel):
    assert specialfn.reality_ratio(kernel) < 1e-8
    assert specialfn.roundtrip_max_deviation(kernel) <= 1e-6


def test_laplace_extrapolated_matches_direct_sum(rng):
    t = -2.0 + 0.05 * np.arange(81)
    g = xforms.SampledComplexFunction(
        -2.0, 0.05, np.exp(-(t**2)) * (1.0 + 0.1j * rng.normal(size=t.size)))
    xs = rng.uniform(-0.8, 0.8, 3)
    ys = rng.uniform(-4.0, 4.0, 4)
    lam = xs[None, :] + 1j * ys[:, None]
    w_fine = xforms.simpson_weights(g.n, g.step) * g.values
    w_coarse = xforms.simpson_weights(41, 0.1) * g.values[::2]
    fine = np.exp(-lam[..., None] * t) @ w_fine
    coarse = np.exp(-lam[..., None] * t[::2]) @ w_coarse
    expect = (16.0 * fine - coarse) / 15.0
    got = specialfn._laplace_extrapolated(g, xs, ys)
    assert got.shape == (4, 3)
    assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))


def test_kernel_transform_matches_scaled_strip(kernel, strip1, rng):
    lam = rng.uniform(-0.7, 0.7, 32) + 1j * rng.uniform(-3, 3, 32)
    got = kernel.transform(lam)
    # the transform is the strip function rescaled by the peak normalization
    expect = np.asarray(strip1(kernel.orientation * lam)) / kernel.scale
    assert np.max(np.abs(got - expect)) < 1e-14 * np.max(np.abs(expect) + 1.0)


def test_kernel_log_modulus_transform_far_field(kernel):
    lam = 0.2 + 150.0j
    lv = kernel.log_modulus_transform(lam)
    assert np.isfinite(lv) and lv < -1e9  # far beyond double-precision exp range


def test_save_load_roundtrip(kernel, tmp_path):
    data, header = specialfn.save_kernel(kernel, tmp_path / "k")
    assert data.suffix == ".tsv" and header.suffix == ".json"
    back = specialfn.load_kernel(tmp_path / "k")
    # the data file keeps the real part only; imaginary dust is dropped
    assert np.array_equal(back.samples.values.real, kernel.samples.values.real)
    assert np.all(back.samples.values.imag == 0.0)
    assert back.samples.step == kernel.samples.step
    assert back.t0 == kernel.t0
    assert back.scale == kernel.scale
    assert back.l1_norm == kernel.l1_norm


def test_build_strip_function_validates():
    with pytest.raises(DomainError):
        specialfn.build_strip_function(0.0)
    with pytest.raises(DomainError):
        specialfn.build_strip_function(float("nan"))
