"""Zero-point splitting of two-sided functions, half-plane transform bounds,
and the quadrature/closed-form agreement check."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tauberlab import checks, truncate, witness, xforms
from tauberlab.errors import AlignmentError, DomainError


@pytest.fixture(scope="module")
def w2(kernel):
    return witness.modulated_translate(kernel, 8.0, 2.0)


@pytest.fixture(scope="module")
def pair(w2):
    return truncate.split(w2.samples)


def test_split_convention(w2, pair):
    g = w2.samples
    assert pair.g_plus.t0_grid == 0.0
    assert pair.g_plus.support == "half"
    assert pair.g_minus.t0_grid == g.t0_grid
    assert pair.g_plus.n + pair.g_minus.n == g.n
    assert np.array_equal(np.concatenate([pair.g_minus.values, pair.g_plus.values]), g.values)
    assert pair.parent_checksum


def test_split_requires_interior_zero():
    vals = np.ones(5, dtype=complex)
    with pytest.raises(DomainError):
        truncate.split(xforms.SampledComplexFunction(0.0, 0.5, vals))  # 0 at the edge
    with pytest.raises(AlignmentError):
        truncate.split(xforms.SampledComplexFunction(-1.05, 0.5, vals))  # 0 off-grid
    half = xforms.SampledComplexFunction(0.0, 0.5, vals, support="half")
    with pytest.raises(DomainError):
        truncate.split(half)


def test_halfplane_margins_nonnegative(pair, rng):
    lams = np.concatenate([
        rng.uniform(0.05, 2.5, 60) + 1j * rng.uniform(-30, 30, 60),
        -rng.uniform(0.05, 2.0, 60) + 1j * rng.uniform(-20, 20, 60),
    ])
    for variant in ("plain", "derivative"):
        hp = truncate.verify_halfplane_bounds(pair, lams, variant)
        assert hp.min_margin >= -1e-8
        assert hp.plus_points.size == 60 and hp.minus_points.size == 60


def test_halfplane_points_in_one_half_plane(pair, rng):
    lams = rng.uniform(0.05, 2.0, 30) + 1j * rng.uniform(-20, 20, 30)
    for pts, side in ((lams, "plus"), (-lams, "minus")):
        hp = truncate.verify_halfplane_bounds(pair, pts, "derivative")
        other = "minus" if side == "plus" else "plus"
        assert getattr(hp, f"{side}_margins").size == 30
        assert getattr(hp, f"{other}_points").size == 0
        assert getattr(hp, f"{other}_margins").size == 0
        assert hp.min_margin == np.min(getattr(hp, f"{side}_margins"))
        assert hp.min_margin >= -1e-8


def test_halfplane_rejects_axis_points(pair):
    with pytest.raises(DomainError):
        truncate.verify_halfplane_bounds(pair, np.array([0.0 + 1.0j]))
    with pytest.raises(DomainError):
        truncate.verify_halfplane_bounds(pair, np.array([]))
    with pytest.raises(DomainError):
        truncate.verify_halfplane_bounds(pair, np.array([1.0 + 0.0j]), "squared")


@pytest.mark.parametrize("lams", [
    [complex(np.nan, 1.0), complex(np.nan, -3.0)],  # once dropped, leaving min_margin = inf
    [0.5 + 1.0j, complex(np.nan, 1.0), -0.5 + 2.0j],
    [0.5 + 1.0j, complex(1.0, np.inf)],
])
def test_halfplane_refuses_non_finite_points(pair, lams):
    for variant in ("plain", "derivative"):
        with pytest.raises(DomainError, match="half-plane samples must be finite"):
            truncate.verify_halfplane_bounds(pair, np.array(lams), variant)


def _halfplane_points(rng, n_plus, n_minus):
    return np.concatenate([
        rng.uniform(0.05, 2.0, n_plus) + 1j * rng.uniform(-20, 20, n_plus),
        -rng.uniform(0.05, 2.0, n_minus) + 1j * rng.uniform(-20, 20, n_minus),
    ])


def _assert_same_report(got, expect):
    assert got.variant == expect.variant and got.refs == expect.refs
    for name in ("plus_points", "plus_margins", "minus_points", "minus_margins"):
        a, b = getattr(got, name), getattr(expect, name)
        assert a.shape == b.shape and np.array_equal(a.view(float), b.view(float)), name


def test_both_variants_make_one_laplace_call_per_part(w2, rng, monkeypatch):
    pair = truncate.split(w2.samples)
    lams = _halfplane_points(rng, 50, 50)
    calls = []
    laplace_many = truncate.laplace_many

    def counted(g, pts):
        calls.append((g, pts.size))
        return laplace_many(g, pts)

    monkeypatch.setattr(truncate, "laplace_many", counted)
    truncate.verify_halfplane_bounds(pair, lams, "plain")
    truncate.verify_halfplane_bounds(pair, lams.copy(), "derivative")
    assert calls == [(pair.g_plus, 50), (pair.g_minus, 50)]
    # other points, or another pair at the same points, evaluate again
    truncate.verify_halfplane_bounds(pair, lams[1:], "derivative")
    truncate.verify_halfplane_bounds(truncate.split(w2.samples), lams[1:], "plain")
    assert [size for _, size in calls[2:]] == [49, 50, 49, 50]


def test_split_hashes_each_sampled_function_once(kernel, poly2, monkeypatch):
    # no sha256 until parent_checksum is read, one on the first read
    w = witness.modulated_translate(kernel, 8.0, 10.0)
    hashes = []
    sha256 = hashlib.sha256

    def counted(*args):
        hashes.append(args)
        return sha256(*args)

    monkeypatch.setattr(hashlib, "sha256", counted)
    pair = truncate.split(w.samples)
    grid = np.linspace(-0.3, -0.05, 4) + 0.25j
    truncate.verify_agreement(w, poly2, grid)
    truncate.verify_halfplane_bounds(pair, np.array([0.5 + 1j, -0.5 - 1j]), "plain")
    assert hashes == []
    checksum = pair.parent_checksum
    assert pair.parent_checksum == checksum
    assert len(hashes) == 1
    monkeypatch.undo()
    h = hashlib.sha256()
    h.update(np.asarray([w.samples.t0_grid, w.samples.step]).tobytes())
    h.update((w.samples.values + 0.0).tobytes())
    assert checksum == h.hexdigest()


def _direct_report(pair, lams, variant):
    """The half-plane report formed from direct laplace_many calls."""
    g0_abs = abs(complex(pair.g_plus.values[0]))
    refs, margins = {"g0_abs": g0_abs}, {}
    for side, part, pts in (("plus", pair.g_plus, lams[lams.real > 0]),
                            ("minus", pair.g_minus, lams[lams.real < 0])):
        if variant == "plain":
            refs[side] = truncate._weighted_abs_sum(part.values, part.step)
        else:
            refs[side] = g0_abs + truncate._weighted_abs_sum(
                xforms.derivative_samples(part), part.step)
        values = xforms.laplace_many(part, pts)
        margins[side] = (pts, refs[side] - np.abs(values if variant == "plain" else pts * values))
    return truncate.HalfplaneReport(variant, *margins["plus"], *margins["minus"], refs)


def _corpus_and_witness_functions(kernel):
    corpus = [g for _, g, _ in checks.verification_corpus(kernel)]
    return corpus + [witness.modulated_translate(kernel, 8.0, t).samples for t in (2.0, 12.0, 19.0)]


def test_both_variants_match_direct_laplace_calls_bit_for_bit(kernel, rng):
    for g in _corpus_and_witness_functions(kernel):
        pair = truncate.split(g)
        lams = _halfplane_points(rng, 100, 100)
        for variant in ("plain", "derivative"):
            report = truncate.verify_halfplane_bounds(pair, lams, variant)
            _assert_same_report(report, _direct_report(pair, lams, variant))


_POINT_SETS = 3


@settings(max_examples=15, deadline=None, derandomize=True)
@given(
    parts=st.lists(st.tuples(st.floats(2.0, 40.0), st.integers(1, 25)), min_size=1, max_size=3),
    seed=st.integers(0, 2**32 - 1),
    calls=st.lists(st.tuples(st.integers(0, 2), st.integers(0, _POINT_SETS),
                             st.sampled_from(["plain", "derivative"])), min_size=2, max_size=10),
)
def test_reports_match_a_freshly_split_pair(kernel, parts, seed, calls):
    # the variants in any order, interleaved with other point sets and other
    # pairs: every report is the one a freshly split pair gives
    rng = np.random.default_rng(seed)
    witnesses = [witness.modulated_translate(kernel, R, float(t)) for R, t in parts]
    pairs = [truncate.split(w.samples) for w in witnesses]
    point_sets = [_halfplane_points(rng, *rng.integers(1, 20, 2)) for _ in range(_POINT_SETS)]
    nudged = point_sets[0].copy()  # one ulp away in one point
    nudged[-1] = complex(nudged[-1].real, np.nextafter(nudged[-1].imag, np.inf))
    point_sets.append(nudged)
    for i, j, variant in calls:
        k = i % len(pairs)
        report = truncate.verify_halfplane_bounds(pairs[k], point_sets[j], variant)
        fresh = truncate.verify_halfplane_bounds(truncate.split(witnesses[k].samples),
                                                 point_sets[j], variant)
        _assert_same_report(report, fresh)


# The t = 12 witness's plus part has 10,401 samples and the witness 16,001:
# above the 10,000 entries past which OpenBLAS splits a dot product across
# its threads.
_REFERENCE_SUMS = """
from tauberlab import specialfn, truncate, witness, xforms
w = witness.modulated_translate(specialfn.build_kernel(specialfn.build_strip_function(1.0)), 8.0, 12.0)
pair = truncate.split(w.samples)
sums = [truncate._weighted_abs_sum(v, part.step) for part in (pair.g_plus, pair.g_minus)
        for v in (part.values, xforms.derivative_samples(part))]
sums.append(xforms.l1_norm_samples(w.samples.values, w.samples.step))
print(pair.g_plus.n, w.samples.n, *(s.hex() for s in sums))
"""


def _reference_sums(blas_threads: int) -> subprocess.Popen:
    # run as acceptance 10 runs the CLI: the package under test first on
    # PYTHONPATH, OpenBLAS's thread count set explicitly
    env = os.environ.copy()
    root = str(Path(truncate.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (root, env.get("PYTHONPATH")) if p)
    env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    return subprocess.Popen([sys.executable, "-c", _REFERENCE_SUMS], env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def test_reference_sums_do_not_depend_on_the_blas_thread_count():
    runs = [_reference_sums(threads) for threads in (1, 2)]
    (one, err1), (two, err2) = (run.communicate() for run in runs)
    assert [run.returncode for run in runs] == [0, 0], err1 + err2
    assert one.split()[:2] == ["10401", "16001"]
    assert one == two


def test_halfplane_bound_is_tight_for_positive_function():
    # for a nonnegative function the bound is attained at lam -> 0+
    t = np.arange(-5.0, 5.0 + 1e-12, 0.01)
    g = xforms.SampledComplexFunction(-5.0, 0.01, np.exp(-np.abs(t)).astype(complex),
                                      tail_bound=np.exp(-5.0))
    pair = truncate.split(g)
    hp = truncate.verify_halfplane_bounds(pair, np.array([1e-9 + 0.0j]))
    assert hp.plus_margins[0] == pytest.approx(0.0, abs=1e-8)


def test_agreement_pins(kernel, poly2):
    w = witness.modulated_translate(kernel, 8.0, 10.0)
    xs = np.linspace(-0.35, -0.02, 5)
    ys = np.linspace(-0.5, 0.5, 5)
    grid = (xs[None, :] + 1j * ys[:, None]).ravel()
    ag = truncate.verify_agreement(w, poly2, grid)
    assert ag.residual == pytest.approx(3.1770006077421553e-11, rel=1e-3)
    assert ag.residual < 1e-5
    assert ag.cauchy_residual < 1e-8
    assert ag.n_points == 25


def _two_sided_exponential():
    t = np.arange(-40.0, 40.0 + 1e-12, 0.01)
    return xforms.SampledComplexFunction(
        -40.0, 0.01, np.exp(-np.abs(t)).astype(complex), tail_bound=np.exp(-40.0)
    )


def test_agreement_makes_one_transform_and_one_circle_call(kernel, poly2, monkeypatch):
    w = witness.modulated_translate(kernel, 8.0, 10.0)
    xs = np.linspace(-0.35, -0.02, 5)
    ys = np.linspace(-0.5, 0.5, 5)
    grid = (xs[None, :] + 1j * ys[:, None]).ravel()
    # the array form of the witness transform is its per-point form, bit for bit
    assert w.transform(grid).tolist() == [w.transform(complex(lam)) for lam in grid]
    transforms, circles = [], []
    laplace_many = truncate.laplace_many

    def transform(lam):
        transforms.append(lam.shape)
        return w.transform(lam)

    def counted(g, lams):
        circles.append(lams.shape)
        return laplace_many(g, lams)

    monkeypatch.setattr(truncate, "laplace_many", counted)
    ag = truncate.verify_agreement(w, poly2, grid, transform=transform)
    assert transforms == [(25,)]
    assert circles == [(3 + 3 * 32,)]  # the 3 centers, then 32 points per circle
    # the residual of one circle at a time, its center value from laplace
    g_plus = truncate.split(w.samples).g_plus
    theta = 2.0 * np.pi * np.arange(32) / 32
    reference = 0.0
    for y in np.quantile(grid.imag, [0.25, 0.5, 0.75]):
        center = complex(-0.025, float(y))
        mean = np.mean(laplace_many(g_plus, center + 0.05 * np.exp(1j * theta)))
        reference = max(reference, float(abs(mean - xforms.laplace(g_plus, center))))
    assert ag.cauchy_residual == reference


def test_agreement_refinement_gain(poly2):
    # the kink at 0 makes the quadrature error grid-limited, so coarsening
    # by 2 must visibly inflate the residual
    g = _two_sided_exponential()
    grid = np.linspace(-0.3, -0.05, 4) + 0.25j
    exact = lambda lam: 2.0 / (1.0 - lam * lam)
    fine = truncate.verify_agreement(g, poly2, grid, transform=exact)
    coarse = truncate.verify_agreement(g, poly2, grid, transform=exact, coarsen=2)
    assert coarse.residual / fine.residual >= 2.0


def test_agreement_detects_wrong_transform(kernel, poly2):
    w = witness.modulated_translate(kernel, 8.0, 10.0)
    grid = np.linspace(-0.3, -0.05, 4) + 0.25j
    wrong = lambda lam: w.transform(lam) + 1e-3
    ag = truncate.verify_agreement(w, poly2, grid, transform=wrong)
    assert ag.residual > 5e-4


def test_agreement_requires_transform_source(poly2):
    g = _two_sided_exponential()
    from tauberlab.errors import UnsupportedInputError

    with pytest.raises(UnsupportedInputError):
        truncate.verify_agreement(g, poly2, np.array([-0.1 + 0.2j]))


def test_agreement_rejects_out_of_region_grid(kernel, poly2):
    w = witness.modulated_translate(kernel, 8.0, 10.0)
    with pytest.raises(DomainError):
        truncate.verify_agreement(w, poly2, np.array([0.1 + 0.0j]))  # right of axis
    with pytest.raises(DomainError):
        truncate.verify_agreement(w, poly2, np.array([-0.9 + 3.0j]))  # left of -1/M(3)
