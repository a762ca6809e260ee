"""Half-line truncation: splitting two-sided functions at zero, half-plane
transform bounds for the parts, and numerical verification that the half-line
transform continues across the imaginary axis as (two-sided transform) minus
(negative-part transform).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AlignmentError, DomainError, UnsupportedInputError
from .growth import GrowthFunction
from .xforms import (
    SampledComplexFunction,
    cauchy_check,
    circle_sample,
    derivative_samples,
    laplace,
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


def _checksum(g: SampledComplexFunction) -> str:
    h = hashlib.sha256()
    h.update(np.asarray([g.t0_grid, g.step], dtype=float).tobytes())
    h.update(g.values.tobytes())
    return h.hexdigest()


@dataclass(frozen=True, eq=False)
class SplitPair:
    """Positive-side (t >= 0, the t = 0 sample included) and negative-side
    (t < 0) parts of a two-sided sampled function."""

    g_plus: SampledComplexFunction
    g_minus: SampledComplexFunction
    parent_checksum: str

    def reconstruct(self) -> np.ndarray:
        """Parent sample values, exactly (bitwise) as split."""
        return np.concatenate([self.g_minus.values, self.g_plus.values])


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
    return SplitPair(g_plus=g_plus, g_minus=g_minus, parent_checksum=_checksum(g))


def _weighted_abs_sum(values: np.ndarray, step: float) -> float:
    """Quadrature L1 reference: same positive weights as laplace uses, so the
    triangle inequality |sum w e^{-lam t} v| <= sum w |v| holds structurally
    whenever |e^{-lam t}| <= 1 on the support."""
    return float(simpson_weights(values.size, step) @ np.abs(values))


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
    part; a point on the axis itself is a domain error.
    """
    if variant not in ("plain", "derivative"):
        raise DomainError(f"unknown variant {variant!r}")
    lams = np.asarray(lam_samples, dtype=complex).ravel()
    if lams.size == 0:
        raise DomainError("no transform sample points given")
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

    def margins(part: SampledComplexFunction, pts: np.ndarray, ref: float) -> np.ndarray:
        values = laplace_many(part, pts)
        return ref - np.abs(values if variant == "plain" else pts * values)

    plus_pts = lams[lams.real > 0]
    minus_pts = lams[lams.real < 0]
    return HalfplaneReport(
        variant=variant,
        plus_points=plus_pts,
        plus_margins=margins(pair.g_plus, plus_pts, refs["plus"]),
        minus_points=minus_pts,
        minus_margins=margins(pair.g_minus, minus_pts, refs["minus"]),
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
    plus mean-value residuals on circles straddling the imaginary axis."""

    residual: float
    cauchy_residual: float
    n_points: int
    coarsen: int
    meta: dict = field(default_factory=dict)


def verify_agreement(
    g,
    m: GrowthFunction,
    grid,
    *,
    transform=None,
    coarsen: int = 1,
) -> AgreementReport:
    """Cross-check the analytic continuation of the positive part's transform
    just left of the imaginary axis.

    ``g`` is either a witness object (closed-form transform attached) or a
    full-line SampledComplexFunction with an explicit ``transform`` callable;
    with neither source of a certified two-sided transform the input is
    unsupported.  The grid must lie in Re lam > -1/M(|Im lam|) with Re lam < 0,
    close enough to the axis that the positive part's quadrature converges.
    ``coarsen`` decimates the sample grid first (refinement studies).

    Both parts are integrated with the parent rule's weight restriction, so
    their transforms add up to the parent's exactly and the residual isolates
    the continuation discrepancy instead of junction-weight noise (three
    independent composite rules would disagree at O(step * |g(0)|) no matter
    how fine the grid).
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

    pts = np.asarray(getattr(grid, "points", grid), dtype=complex).ravel()
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
    cut = parent.index_of(0.0)
    t = parent.t_grid
    wv = simpson_weights(parent.n, parent.step) * parent.values

    candidate = laplace_sum(t[cut:], wv[cut:], pts)
    two_sided = np.array([transform(complex(lam)) for lam in pts], dtype=complex)
    reference = two_sided - laplace_sum(t[:cut], wv[:cut], pts)
    residual = float(np.max(np.abs(candidate - reference)))
    g_plus = pair.g_plus

    # Mean-value consistency on circles straddling the axis: the half-line
    # transform of finitely supported samples is entire, so the circle mean
    # must reproduce the center value.
    ys = np.quantile(pts.imag, [0.25, 0.5, 0.75])
    cauchy_res = 0.0
    for y in ys:
        center = complex(-_CAUCHY_RADIUS / 2.0, float(y))
        contour = circle_sample(
            lambda z: laplace_many(g_plus, z), center, _CAUCHY_RADIUS, n=32
        )
        cauchy_res = max(cauchy_res, cauchy_check(contour, laplace(g_plus, center)))

    return AgreementReport(
        residual=residual,
        cauchy_residual=cauchy_res,
        n_points=int(pts.size),
        coarsen=coarsen,
        meta={"checksum": pair.parent_checksum},
    )
