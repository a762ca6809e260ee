"""Half-line truncation: splitting two-sided functions at zero, half-plane
transform bounds for the parts, and numerical verification that the half-line
transform continues across the imaginary axis as (two-sided transform) minus
(negative-part transform).
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, UnsupportedInputError
from .growth import GrowthFunction
from .xforms import (
    SampledComplexFunction,
    cauchy_check,
    derivative_samples,
    laplace_many,
    laplace_sum,
    simpson_weights,
)

__all__ = [
    "SplitPair",
    "split",
    "HalfplaneReport",
    "verify_halfplane_bounds",
    "AgreementReport",
    "verify_agreement",
]

_CAUCHY_RADIUS = 0.05  # radius of the mean-value circles verify_agreement centres left of the axis


@dataclass(frozen=True, eq=False)
class SplitPair:
    """Positive-side (t >= 0, the t = 0 sample included) and negative-side
    (t < 0) parts of a two-sided sampled function.

    The pair keeps one slot, (points' bytes, plus part's transforms, minus
    part's transforms), holding the parts' laplace_many values at the last
    point set verify_halfplane_bounds was given; both variants read the
    same values, so a second variant at bit-identical points reuses them.
    The parts' values are never written, so neither the slot nor
    parent_checksum can go stale.
    """

    g_plus: SampledComplexFunction
    g_minus: SampledComplexFunction
    _transforms: list = field(default_factory=lambda: [None], init=False, repr=False)

    @functools.cached_property
    def parent_checksum(self) -> str:
        """sha256 of the parent's grid (t0, step) and values, formed from the
        parts on first read; adding +0.0 writes -0.0 as +0.0, so the
        checksum names the values, not how they were formed."""
        h = hashlib.sha256()
        h.update(np.asarray([self.g_minus.t0_grid, self.g_minus.step], dtype=float).tobytes())
        h.update((self.g_minus.values + 0.0).tobytes())
        h.update((self.g_plus.values + 0.0).tobytes())
        return h.hexdigest()


def split(g: SampledComplexFunction) -> SplitPair:
    """Split a full-line sampled function at t = 0; the 0 sample goes to the
    positive part (closed half-line convention).  The grid must carry 0 as an
    interior sample point."""
    if g.support != "full":
        raise DomainError("split expects a full-line sampled function")
    idx = g.index_of(0.0)  # AlignmentError if 0 is not a sample point
    if idx == 0 or idx == g.n - 1:
        raise DomainError("t = 0 must be interior: both sides need samples")
    g_plus = SampledComplexFunction(
        t0_grid=0.0,
        step=g.step,
        values=g.values[idx:],
        support="half",
        tail_bound=g.tail_bound,
        meta={**g.meta, "part": "plus"},
    )
    g_minus = SampledComplexFunction(
        t0_grid=g.t0_grid,
        step=g.step,
        values=g.values[:idx],
        support="full",
        tail_bound=g.tail_bound,
        meta={**g.meta, "part": "minus"},
    )
    return SplitPair(g_plus=g_plus, g_minus=g_minus)


def _weighted_abs_sum(values: np.ndarray, step: float) -> float:
    """Quadrature L1 reference: same positive weights as laplace uses, so the
    triangle inequality |sum w e^{-lam t} v| <= sum w |v| holds structurally
    whenever |e^{-lam t}| <= 1 on the support.  Summed by einsum, not BLAS:
    OpenBLAS splits a dot product of more than 10,000 entries across its
    threads, so its last bit would depend on the thread count."""
    return float(np.einsum("i,i->", simpson_weights(values.size, step), np.abs(values)))


@dataclass(frozen=True, eq=False)
class HalfplaneReport:
    """Per-sample margins bound_reference - |transform value| (>= 0 means the
    inequality held); split by half-plane."""

    variant: str
    plus_points: np.ndarray
    plus_margins: np.ndarray
    minus_points: np.ndarray
    minus_margins: np.ndarray
    refs: dict

    @property
    def min_margin(self) -> float:
        parts = [m for m in (self.plus_margins, self.minus_margins) if m.size]
        return float(min(np.min(m) for m in parts)) if parts else math.inf


def verify_halfplane_bounds(
    pair: SplitPair,
    lam_samples,
    variant: str = "plain",
) -> HalfplaneReport:
    """Check |part_transform(lam)| <= L1(part) on the matching open half-plane
    (plain), or |lam * part_transform(lam)| <= |g(0)| + L1(part') (derivative).

    Points with Re lam > 0 test the positive part, Re lam < 0 the negative
    part; a point on the axis itself, or one that is not finite, is a domain
    error.  The parts' transforms go through the pair's one slot: a call at
    the points (bit for bit) of the pair's previous call, such as the
    second variant after the first, makes no laplace_many call.
    """
    if variant not in ("plain", "derivative"):
        raise DomainError(f"unknown variant {variant!r}")
    lams = np.asarray(lam_samples, dtype=complex).ravel()
    if lams.size == 0:
        raise DomainError("no transform sample points given")
    if not np.all(np.isfinite(lams)):
        raise DomainError("half-plane samples must be finite")
    if np.any(lams.real == 0.0):
        raise DomainError("half-plane samples must have nonzero real part")

    g0 = complex(pair.g_plus.values[0])
    refs: dict = {"g0_abs": abs(g0)}
    if variant == "plain":
        refs["plus"] = _weighted_abs_sum(pair.g_plus.values, pair.g_plus.step)
        refs["minus"] = _weighted_abs_sum(pair.g_minus.values, pair.g_minus.step)
    else:
        refs["plus"] = abs(g0) + _weighted_abs_sum(
            derivative_samples(pair.g_plus), pair.g_plus.step
        )
        refs["minus"] = abs(g0) + _weighted_abs_sum(
            derivative_samples(pair.g_minus), pair.g_minus.step
        )

    plus_pts = lams[lams.real > 0]
    minus_pts = lams[lams.real < 0]
    key = lams.tobytes()
    slot = pair._transforms
    if slot[0] is None or slot[0][0] != key:
        slot[0] = (key, laplace_many(pair.g_plus, plus_pts), laplace_many(pair.g_minus, minus_pts))
    _, plus_values, minus_values = slot[0]

    def margins(pts: np.ndarray, values: np.ndarray, ref: float) -> np.ndarray:
        return ref - np.abs(values if variant == "plain" else pts * values)

    return HalfplaneReport(
        variant=variant,
        plus_points=plus_pts,
        plus_margins=margins(plus_pts, plus_values, refs["plus"]),
        minus_points=minus_pts,
        minus_margins=margins(minus_pts, minus_values, refs["minus"]),
        refs=refs,
    )


def _decimate_keep_zero(g: SampledComplexFunction, factor: int) -> SampledComplexFunction:
    """Every factor-th sample, phased so that t = 0 stays on the grid."""
    offset = g.index_of(0.0) % factor
    return SampledComplexFunction(
        t0_grid=g.t0_grid + offset * g.step,
        step=g.step * factor,
        values=g.values[offset::factor],
        support=g.support,
        tail_bound=g.tail_bound,
        meta=g.meta,
    )


@dataclass(frozen=True, eq=False)
class AgreementReport:
    """Maximal deviation between the positive part's quadrature transform and
    (certified two-sided transform) - (negative part's quadrature transform),
    plus mean-value residuals on circles straddling the imaginary axis; the
    parent's checksum is its own split's parent_checksum."""

    residual: float
    cauchy_residual: float
    n_points: int
    coarsen: int


def verify_agreement(
    g,
    m: GrowthFunction,
    points: np.ndarray,
    *,
    transform=None,
    coarsen: int = 1,
) -> AgreementReport:
    """Cross-check the analytic continuation of the positive part's transform
    just left of the imaginary axis.

    ``g`` is either a witness object (closed-form transform attached) or a
    full-line SampledComplexFunction with an explicit ``transform`` callable;
    with neither source of a certified two-sided transform the input is
    unsupported.  ``transform`` maps an array of points to the array of its
    values, and is called once, on all the points.  The points must lie in
    Re lam > -1/M(|Im lam|) with Re lam < 0, close enough to the axis that
    the positive part's quadrature converges.  ``coarsen`` decimates the
    sample grid first (refinement studies).

    Both parts are integrated with the parent rule's weight restriction, so
    their transforms add up to the parent's exactly and the residual isolates
    the continuation discrepancy instead of junction-weight noise (three
    independent composite rules would disagree at O(step * |g(0)|) no matter
    how fine the grid).  The Cauchy residual is the largest of cauchy_check's
    on three circles of radius 0.05 about -0.025 + iy, y the quartiles of the
    points' heights, from one laplace_many call.
    """
    samples = getattr(g, "samples", g)
    if transform is None:
        transform = getattr(g, "transform", None)
    if transform is None or not callable(transform):
        raise UnsupportedInputError(
            "verify_agreement needs a certified two-sided transform "
            "(a witness, or an explicit transform callable)"
        )
    if not isinstance(coarsen, int) or coarsen < 1:
        raise DomainError(f"coarsen must be a positive integer, got {coarsen}")

    pts = np.asarray(points, dtype=complex).ravel()
    if pts.size == 0:
        raise DomainError("empty agreement grid")
    if np.any(pts.real >= 0.0):
        raise DomainError("agreement grid must lie strictly left of the axis")
    if not np.all(pts.real > -1.0 / np.asarray(m(np.abs(pts.imag)))):
        raise DomainError(
            "agreement grid leaves the region Re lam > -1/M(|Im lam|)"
        )

    parent = _decimate_keep_zero(samples, coarsen) if coarsen > 1 else samples
    pair = split(parent)
    cut = pair.g_minus.n
    t0, step = parent.t0_grid, parent.step
    wv = simpson_weights(parent.n, step) * parent.values

    candidate = laplace_sum(t0 + step * cut, step, wv[cut:], pts)
    two_sided = np.asarray(transform(pts), dtype=complex)
    reference = two_sided - laplace_sum(t0, step, wv[:cut], pts)
    residual = float(np.max(np.abs(candidate - reference)))

    # Mean-value consistency on circles straddling the axis: the half-line
    # transform of finitely supported samples is entire, so the circle mean
    # must reproduce the center value.
    ys = np.quantile(pts.imag, [0.25, 0.5, 0.75])
    cauchy_res = max(cauchy_check(lambda z: laplace_many(pair.g_plus, z),
                                  -_CAUCHY_RADIUS / 2.0 + 1j * ys, _CAUCHY_RADIUS))

    return AgreementReport(
        residual=residual,
        cauchy_residual=cauchy_res,
        n_points=int(pts.size),
        coarsen=coarsen,
    )
