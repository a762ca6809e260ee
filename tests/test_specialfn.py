"""Exponential-comb strip functions and the normalized inversion kernel."""

import dataclasses
import functools
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tauberlab import checks, cli, regions, specialfn, xforms
from tauberlab.errors import (
    ConfigurationError, ConstructionError, DomainError, EvaluationOverflowError, OutOfRangeError,
)


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
    grid = regions.sample(1.0, 12.0, 21, 241)
    sup = specialfn.verify_strip_decay(strip1, EPS1, grid)
    assert sup == pytest.approx(0.65506646161970428, rel=1e-12)
    assert sup <= math.e
    wider = regions.sample(1.0, 16.0, 21, 321)
    sup_w = specialfn.verify_strip_decay(strip1, EPS1, wider)
    assert abs(sup_w - sup) / sup < 1e-6


def test_verify_strip_decay_rejects_large_eps(strip1):
    grid = regions.sample(1.0, 4.0, 5, 9)
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


def test_live_samples_hold_every_nonzero_sample(kernel):
    t, values, deriv = kernel.live
    derivative = xforms.derivative_samples(kernel.samples)
    live = (kernel.samples.values != 0) | (derivative != 0)
    assert t.size == np.sum(live) == 5240 and kernel.samples.n == 16001
    assert np.array_equal(t, kernel.samples.t_grid[live])
    assert np.array_equal(values, kernel.samples.values[live])
    assert np.array_equal(deriv, derivative[live])
    # every other sample has modulus exactly 0, so the sup is the same bits
    Rs = (1.0, 8.0, 353.0, 1e6)
    full = [float(np.max(np.abs(1j * R * kernel.samples.values + derivative))) for R in Rs]
    assert kernel.witness_derivative_maxima(Rs, 0) == full


@functools.cache
def _kernel_of(m0):
    return specialfn.build_kernel(specialfn.build_strip_function(m0))


def _full_maximum(kernel, R, first):
    _, values, deriv = kernel.live
    return float(np.max(np.abs(1j * R * values + deriv)[first:], initial=0.0))


_LOG_TAU = st.floats(0.0, math.log(10.0), exclude_min=True) | st.floats(math.log(10.0),
                                                                       math.log(1e6))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(m0=st.sampled_from([0.5, 1.0, 1.7, 3.0]),
       pairs=st.lists(st.tuples(st.floats(0.0, math.log(1e6)), _LOG_TAU), min_size=1, max_size=12))
def test_bounded_derivative_maxima_are_the_full_array_maxima(m0, pairs):
    # R log-uniform in [1, 1e6]; first from a tau in (1, 10) (most keep part
    # of the live samples) or in [10, 1e6] (most keep all): each maximum is
    # the full-array formula's bits, batched or one pair at a time
    kernel = _kernel_of(m0)
    Rs = [math.exp(u) for u, _ in pairs]
    firsts = [int(np.searchsorted(kernel.live[0], -math.exp(v), side="left")) for _, v in pairs]
    full = [_full_maximum(kernel, R, first) for R, first in zip(Rs, firsts)]
    assert kernel.witness_derivative_maxima(Rs, firsts) == full
    assert [kernel.witness_derivative_maxima(R, first)[0]
            for R, first in zip(Rs, firsts)] == full


def test_derivative_maxima_past_the_live_samples_and_on_no_pair(kernel):
    n = kernel.live[0].size
    firsts = [0, n - 1, n, n + 70]
    got = kernel.witness_derivative_maxima(353.0, firsts)
    assert got == [_full_maximum(kernel, 353.0, first) for first in firsts]
    assert got[2:] == [0.0, 0.0] and got[1] > 0.0
    assert kernel.witness_derivative_maxima([], []) == []


@pytest.fixture()
def fresh_unit_kernel(monkeypatch):
    """An empty m0 = 1 kernel cache for one test; the process's cache, with
    the kernel in it, is back in place after the test."""
    monkeypatch.setattr(specialfn, "_unit_kernel",
                        functools.cache(specialfn._unit_kernel.__wrapped__))


def test_build_kernel_refuses_a_peak_at_negative_time(strip1, fresh_unit_kernel, monkeypatch):
    # no valid strip puts the peak at t <= 0; mirrored samples stand in for one
    invert = specialfn.fourier_invert

    def mirrored(*args):
        raw = invert(*args)
        return dataclasses.replace(raw, values=raw.values[::-1].copy())

    monkeypatch.setattr(specialfn, "fourier_invert", mirrored)
    with pytest.raises(ConstructionError, match="not at positive time"):
        specialfn.build_kernel(strip1)


def test_kernel_is_real_and_roundtrips(kernel):
    assert specialfn.reality_ratio(kernel) < 1e-8
    assert kernel.roundtrip_max_dev == specialfn.roundtrip_max_deviation(kernel) <= 1e-8


def test_one_round_trip_per_built_kernel(fresh_unit_kernel, tmp_path, monkeypatch):
    # one round trip per m0 per process: the m0 = 1 kernel measures its own
    # once, and the specialfn report, verify's group 3 and the m0 range
    # check read it; a rescaled kernel measures its own
    calls = []
    measure = specialfn.roundtrip_max_deviation

    def counted(kernel):
        calls.append(kernel)
        return measure(kernel)

    monkeypatch.setattr(specialfn, "roundtrip_max_deviation", counted)
    assert cli.main(["specialfn", "--out", str(tmp_path / "a")]) == 0
    assert len(calls) == 1
    ctx = checks.Context.build(0)
    assert checks.kernel_round_trip(ctx)[0].measured == ctx.kernel.roundtrip_max_dev
    assert calls == [ctx.kernel]
    for _ in range(2):
        assert cli.main(["specialfn", "--m0", "1.7", "--out", str(tmp_path / "b")]) == 0
    assert cli.main(["specialfn", "--out", str(tmp_path / "c")]) == 0
    assert len(calls) == 3 and calls[1].unit is calls[2].unit is ctx.kernel


def test_one_inversion_per_process_serves_every_m0(fresh_unit_kernel, tmp_path, monkeypatch):
    calls = []
    invert = specialfn.fourier_invert

    def counted(spectrum, eps, tol, grid):
        calls.append((eps, grid))
        return invert(spectrum, eps, tol, grid)

    monkeypatch.setattr(specialfn, "fourier_invert", counted)
    for m0 in (1.7, 1.0, 0.5, 3.0):
        specialfn.build_kernel(specialfn.build_strip_function(m0))
    assert cli.main(["specialfn", "--m0", "2", "--out", str(tmp_path)]) == 0
    assert calls == [(EPS1, specialfn._UNIT_GRID)]


def test_kernel_arrays_are_read_only(strip1):
    # every kernel of the process shares the m0 = 1 kernel's sample values
    unit = specialfn.build_kernel(strip1)
    rescaled = specialfn.build_kernel(specialfn.build_strip_function(1.7))
    assert rescaled.samples.values is unit.samples.values
    for k in (unit, rescaled):
        for array in (k.samples.values, *k.live):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
    assert unit.samples.values[0] == 0.0 and unit.samples.values[unit.peak_index] == 1.0


def test_build_refuses_a_kernel_whose_round_trip_exceeds_ten_tol():
    # the deviation reads m0 times the m0 = 1 kernel's (test_kernel_scales_with_m0),
    # 1.076e-8 at m0 = 12, so 12 is refused before a kernel is assembled
    with pytest.raises(OutOfRangeError) as info:
        specialfn.build_kernel(specialfn.build_strip_function(12.0))
    assert str(info.value) == (
        "m0 = 12 is outside the supported range 0 < m0 <= 11.15: the kernel round trip "
        "would read about m0 * 8.966e-10 = 1.076e-08, above 1.0e-08")
    assert isinstance(info.value, ConfigurationError) and isinstance(info.value, DomainError)
    # the measured round trip refuses a strip that is no dilation of the m0 = 1 strip
    with pytest.raises(ConstructionError, match="round-trip failed: max deviation"):
        specialfn.build_kernel(specialfn.StripFunction(EPS1, 5.0, 0.9))


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
    expect = np.asarray(strip1(lam)) / kernel.scale
    assert np.max(np.abs(got - expect)) < 1e-14 * np.max(np.abs(expect) + 1.0)


def test_kernel_log_modulus_transform_far_field(kernel):
    lam = 0.2 + 150.0j
    lv = kernel.log_modulus_transform_xy(lam.real, lam.imag)
    assert np.isfinite(lv) and lv < -1e9  # far beyond double-precision exp range


def test_save_load_roundtrip(kernel, tmp_path):
    _check_save_load(kernel, tmp_path / "m0-1")
    _check_save_load(specialfn.build_kernel(specialfn.build_strip_function(3.0)), tmp_path / "m0-3")


def _check_save_load(kernel, base):
    data, header = specialfn.save_kernel(kernel, base)
    assert data.suffix == ".tsv" and header.suffix == ".json"
    _check_loaded(specialfn.load_kernel(base), kernel)
    # one value per line; the abscissae come from the header's grid
    lines = data.read_text().splitlines()
    assert len(lines) == kernel.samples.n
    assert [float(line) for line in lines] == kernel.samples.values.real.tolist()


def _assert_written_sample_by_sample(data, re: np.ndarray) -> None:
    """data's text is kernel.tsv as formatted sample by sample; a mismatch
    names its first line (a diff of the whole file would take minutes)."""
    text, expect = data.read_text(), "".join(f"{v:.17g}\n" for v in re.tolist())
    if text != expect:
        got_lines, expect_lines = text.splitlines(), expect.splitlines()
        at = next((i for i, pair in enumerate(zip(got_lines, expect_lines)) if pair[0] != pair[1]),
                  min(len(got_lines), len(expect_lines)))
        got_line = got_lines[at] if at < len(got_lines) else "<end>"
        expect_line = expect_lines[at] if at < len(expect_lines) else "<end>"
        pytest.fail(f"line {at} reads {got_line!r}, not {expect_line!r}")


@pytest.mark.parametrize("m0", [0.5, 1.0, 3.0])
def test_kernel_file_text_is_every_sample_formatted(kernel, tmp_path, m0):
    # save_kernel formats only the nonzero span; the text is the per-sample one
    k = kernel if m0 == 1.0 else specialfn.build_kernel(specialfn.build_strip_function(m0))
    data, _ = specialfn.save_kernel(k, tmp_path / "k")
    re = k.samples.values.real
    assert re[0] == 0.0 and re[-1] == 0.0  # flushed tails: the writer's zero runs are exercised
    _assert_written_sample_by_sample(data, re)


@pytest.mark.parametrize("re", [
    np.zeros(7),
    np.array([1.5, -2.0, 3e-300, 0.1]),
    np.array([0.0, 0.0, 0.0, 1e-5, 0.0, 0.0]),
    np.array([-0.0, 0.0, 0.25, 0.0, -0.0]),
    np.array([0.0, 1.0, -0.0, 0.0, 2.0, 0.0]),
    np.array([0.0, -0.0, 0.0]),
], ids=["all zeros", "no zeros", "one nonzero", "-0 at both ends", "-0 inside", "-0 alone"])
def test_kernel_file_text_of_synthetic_samples(kernel, tmp_path, re):
    samples = dataclasses.replace(kernel.samples, values=re.astype(complex))
    data, _ = specialfn.save_kernel(dataclasses.replace(kernel, samples=samples), tmp_path / "k")
    _assert_written_sample_by_sample(data, re)


def test_save_load_save_is_byte_identical(kernel, tmp_path):
    data, header = specialfn.save_kernel(kernel, tmp_path / "a")
    loaded = specialfn.load_kernel(tmp_path / "a")
    again, again_header = specialfn.save_kernel(loaded, tmp_path / "b")
    assert again.read_bytes() == data.read_bytes()
    assert again_header.read_bytes() == header.read_bytes()
    re = kernel.samples.values.real
    assert np.array_equal(loaded.samples.values.real.view(np.int64), re.view(np.int64))


def test_two_column_data_files_load(kernel, tmp_path):
    # files written before the abscissa column was dropped: t, then Re value
    data, _ = specialfn.save_kernel(kernel, tmp_path / "k")
    g = kernel.samples
    data.write_text("".join(f"{t:.17g}\t{v:.17g}\n"
                            for t, v in zip(g.t_grid.tolist(), g.values.real.tolist())))
    _check_loaded(specialfn.load_kernel(tmp_path / "k"), kernel)


def test_data_file_of_the_wrong_shape_is_refused(kernel, tmp_path):
    data, _ = specialfn.save_kernel(kernel, tmp_path / "k")
    lines = data.read_text().splitlines(keepends=True)
    n = kernel.samples.n
    for bad in (lines[:-1], lines + lines[-1:], [f"0\t0\t{v}" for v in lines]):
        data.write_text("".join(bad))
        with pytest.raises(ConstructionError, match=f"expected \\({n}, 1\\) or \\({n}, 2\\)"):
            specialfn.load_kernel(tmp_path / "k")
    for bad in (["0\t1\n"] + lines[1:], ["x\n"] + lines[1:]):
        data.write_text("".join(bad))
        with pytest.raises(ConstructionError, match="not a table of numbers"):
            specialfn.load_kernel(tmp_path / "k")


def test_an_empty_data_file_ends_in_the_error_alone(kernel, tmp_path):
    data, _ = specialfn.save_kernel(kernel, tmp_path / "k")
    for empty in ("", "\n\n"):
        data.write_text(empty)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's no-data warning would be one
            with pytest.raises(ConstructionError, match=r"shape \(0, 1\)"):
                specialfn.load_kernel(tmp_path / "k")


def test_a_peak_off_the_grid_or_not_one_is_refused(kernel, tmp_path):
    # the shift model's floors take the unit peak value from construction;
    # load_kernel checks it, once per load
    data, header_path = specialfn.save_kernel(kernel, tmp_path / "k")
    lines = data.read_text().splitlines(keepends=True)
    peak = kernel.peak_index
    assert lines[peak] == "1\n"
    for value, ok in (("1.0000000000005", True), ("0.99999999999", False), ("-1", False)):
        data.write_text("".join(lines[:peak] + [value + "\n"] + lines[peak + 1:]))
        if ok:
            assert specialfn.load_kernel(tmp_path / "k").samples.values[peak] == float(value)
        else:
            with pytest.raises(ConstructionError, match=f"reads {value}, not 1"):
                specialfn.load_kernel(tmp_path / "k")
    data.write_text("".join(lines))
    header = json.loads(header_path.read_text())
    step = header["step"]
    for t0 in (header["t0"] + 0.5 * step, header["t0_grid"] - step, math.nan, math.inf):
        header_path.write_text(json.dumps({**header, "t0": t0}))
        with pytest.raises(ConstructionError, match="is not a sample point"):
            specialfn.load_kernel(tmp_path / "k")
    # a sample point other than the peak reads a value below 1
    header_path.write_text(json.dumps({**header, "t0": header["t0"] + step}))
    with pytest.raises(ConstructionError, match="not 1"):
        specialfn.load_kernel(tmp_path / "k")


def _check_loaded(back, kernel):
    # the data file keeps the real part only; imaginary dust is dropped
    assert np.array_equal(back.samples.values.real, kernel.samples.values.real)
    assert np.all(back.samples.values.imag == 0.0)
    assert back.samples.step == kernel.samples.step
    assert back.samples.tail_bound == kernel.samples.tail_bound
    assert back.t0 == kernel.t0
    assert back.scale == kernel.scale
    # load_kernel derives the norms from the loaded samples
    assert back.l1_norm == kernel.l1_norm
    assert back.linf_norm == kernel.linf_norm
    assert back.deriv_l1_norm == kernel.deriv_l1_norm
    assert back.deriv_linf_norm == kernel.deriv_linf_norm
    assert all(np.array_equal(a.real, b.real) for a, b in zip(back.live, kernel.live))


def test_kernel_header_holds_exactly_what_load_kernel_reads(kernel, tmp_path):
    _, header_path = specialfn.save_kernel(kernel, tmp_path / "k")
    header = json.loads(header_path.read_text())
    assert sorted(header) == ["epsilon", "n", "scale", "step", "strip_half_width",
                              "t0", "t0_grid", "tail_bound", "x_center"]
    # the header loads, and without any one of its keys, or with a value of
    # the wrong kind, it does not: the package's error names the key
    for key in header:
        header_path.write_text(json.dumps({k: v for k, v in header.items() if k != key}))
        with pytest.raises(ConstructionError, match=f"lacks the key '{key}'"):
            specialfn.load_kernel(tmp_path / "k")
        for bad in (None, "x", [1.0]):
            header_path.write_text(json.dumps({**header, key: bad}))
            with pytest.raises(ConstructionError, match=f"invalid value for the key '{key}'"):
                specialfn.load_kernel(tmp_path / "k")
    header_path.write_text("[]")
    with pytest.raises(ConstructionError, match="not a kernel header"):
        specialfn.load_kernel(tmp_path / "k")


def test_older_kernel_headers_load_unless_reflected(kernel, tmp_path):
    # headers written before the norms were dropped carry them, unread, and
    # "reflected": false; a reflected kernel is refused
    _, header_path = specialfn.save_kernel(kernel, tmp_path / "k")
    header = json.loads(header_path.read_text())
    old = {**header, "reflected": False, "imag_dropped": True, "l1_norm": kernel.l1_norm,
           "linf_norm": kernel.linf_norm, "deriv_l1_norm": kernel.deriv_l1_norm,
           "deriv_linf_norm": kernel.deriv_linf_norm}
    header_path.write_text(json.dumps(old, indent=1, sort_keys=True))
    _check_loaded(specialfn.load_kernel(tmp_path / "k"), kernel)
    header_path.write_text(json.dumps({**old, "reflected": True}))
    with pytest.raises(ConstructionError, match="reflected"):
        specialfn.load_kernel(tmp_path / "k")


@pytest.mark.parametrize("m0", [0.3, 1.7, 3.0, 11.0])
def test_strip_function_is_the_m0_1_function_rescaled(m0, rng):
    # eps = pi m0/6, centre 5/m0 and half-width 1/m0: H_m0(lam/m0) = H_1(lam)
    # up to rounding (measured at most 2.4e-13 relative on these draws,
    # where |H_1| spans 1e-51 to 1e51)
    lam = rng.uniform(-6.0, 6.0, 400) + 1j * rng.uniform(-8.0, 8.0, 400)
    one = specialfn.build_strip_function(1.0)(lam)
    np.testing.assert_allclose(specialfn.build_strip_function(m0)(lam / m0), one,
                               rtol=1e-11, atol=0.0)


def test_kernel_scales_with_m0(kernel):
    # H_m0(lam) = H_1(m0 lam), so the normalized kernel for m0 has the m0 = 1
    # samples on a grid scaled by m0, and its transform m0 * K_1(m0 lam) grows
    # with m0: the build's round-trip deviation, checked against the fixed
    # bound 10 * tol, grows linearly in m0 (build_kernel refuses m0 above 11.15)
    dev1 = kernel.roundtrip_max_dev
    for m0 in (0.5, 2.0, 5.0, 10.0):
        k = specialfn.build_kernel(specialfn.build_strip_function(m0))
        assert k.samples.step == pytest.approx(m0 * kernel.samples.step, rel=1e-15)
        assert np.max(np.abs(k.samples.values - kernel.samples.values)) < 1e-13
        assert k.roundtrip_max_dev / m0 == pytest.approx(dev1, rel=0.05)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(m0=st.floats(math.log(0.3), math.log(11.0)).map(math.exp),
       u=st.floats(-0.75, 0.75), v=st.floats(-3.0, 3.0))
def test_kernel_for_m0_is_the_m0_1_kernel_rescaled(strip1, m0, u, v):
    unit = specialfn.build_kernel(strip1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        k = specialfn.build_kernel(specialfn.build_strip_function(m0))
        lam = (u + 1j * v) / m0  # inside the box the round trip checks
        got, expect = k.transform(lam), m0 * unit.transform(m0 * lam)
    assert not caught, [str(w.message) for w in caught]
    assert k.samples.values is unit.samples.values
    for name in ("t0", "l1_norm"):
        assert getattr(k, name) == pytest.approx(m0 * getattr(unit, name), rel=1e-12)
    assert k.samples.step == pytest.approx(m0 * unit.samples.step, rel=1e-12)
    assert k.samples.t0_grid == pytest.approx(m0 * unit.samples.t0_grid, rel=1e-12)
    assert k.deriv_l1_norm == pytest.approx(unit.deriv_l1_norm, rel=1e-12)
    assert abs(got - expect) <= 1e-12 * abs(expect)


@pytest.mark.parametrize("m0, t0, l1_norm", [
    (0.5, 0.5875000000000021, 1.2751632317246393),
    (1.7, 1.9975000000000023, 4.335554987863774),
    (3.0, 3.5249999999999915, 7.650979390347837),
])
def test_rescaled_kernel_keeps_the_inversion_at_m0(m0, t0, l1_norm):
    # t0 and l1_norm of the kernel that a Fourier inversion of the m0 strip
    # itself gives, on the m0-scaled grid
    k = specialfn.build_kernel(specialfn.build_strip_function(m0))
    assert k.t0 == pytest.approx(t0, rel=1e-12)
    assert k.l1_norm == pytest.approx(l1_norm, rel=1e-12)


def test_build_strip_function_validates():
    with pytest.raises(DomainError):
        specialfn.build_strip_function(0.0)
    with pytest.raises(DomainError):
        specialfn.build_strip_function(float("nan"))
