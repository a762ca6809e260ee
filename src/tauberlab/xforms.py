"""Sampled functions and their transforms.

Everything here works on uniformly sampled complex-valued functions of a real
variable.  Laplace transforms are composite-Simpson quadratures, all formed by
one blocked sum (laplace_sum); Fourier inversion truncates the spectral
integral at a certified abscissa, evaluates it on the whole output grid by a
chirp-z transform, and refines the spectral step until a halving probe
stabilises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import AlignmentError, ConstructionError, DomainError

__all__ = [
    "SampledComplexFunction",
    "TransformSample",
    "simpson_weights",
    "l1_norm_samples",
    "derivative_samples",
    "laplace_sum",
    "laplace_many",
    "laplace",
    "fourier_invert",
    "circle_sample",
    "cauchy_check",
]

_ALIGN_TOL = 1e-6  # largest offset from a sample point, in steps, that index_of accepts
_TAIL_TOL = 1e-9  # largest tail growth a Laplace quadrature may leave out
_U_CAP = 1e5  # largest spectral truncation abscissa fourier_invert accepts
_N_CAP = 2**18 + 1  # most spectral samples fourier_invert refines to


@dataclass(frozen=True, eq=False)
class SampledComplexFunction:
    """Uniform samples of a complex-valued function.

    support is 'half' (vanishes for t < t0_grid, with t0_grid >= 0) or 'full'
    (whole line); tail_bound certifies sup|value| outside the sampled window.
    """

    t0_grid: float
    step: float
    values: np.ndarray
    support: str = "full"
    tail_bound: float = 0.0
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=complex)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1 or vals.size == 0:
            raise DomainError("samples must form a non-empty 1-d array")
        if not (math.isfinite(self.t0_grid) and self.step > 0):
            raise DomainError(f"bad grid spec: t0={self.t0_grid}, step={self.step}")
        if not np.all(np.isfinite(vals.view(float))):
            raise DomainError("samples contain non-finite values")
        if self.support not in ("half", "full"):
            raise DomainError(f"support must be 'half' or 'full', got {self.support!r}")
        if self.support == "half" and self.t0_grid < 0:
            raise DomainError("half-line support requires t0_grid >= 0")
        if not (self.tail_bound >= 0):
            raise DomainError("tail_bound must be a non-negative real")

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def t_end(self) -> float:
        return self.t0_grid + self.step * (self.n - 1)

    @property
    def t_grid(self) -> np.ndarray:
        return self.t0_grid + self.step * np.arange(self.n)

    def index_of(self, t: float) -> int:
        """Index of the sample at abscissa t; AlignmentError if t is off-grid."""
        pos = (t - self.t0_grid) / self.step
        idx = int(round(pos))
        if idx < 0 or idx >= self.n or abs(pos - idx) > _ALIGN_TOL:
            raise AlignmentError(f"t = {t} is not a sample point of this grid")
        return idx


@dataclass(frozen=True, eq=False)
class TransformSample:
    """Values of a transform at a finite set of complex points."""

    points: np.ndarray
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=complex)
        vals = np.asarray(self.values, dtype=complex)
        if pts.shape != vals.shape or pts.ndim != 1:
            raise DomainError("points and values must be matching 1-d arrays")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "values", vals)


def simpson_weights(n: int, step: float) -> np.ndarray:
    """Composite-Simpson weights; a trailing trapezoidal panel absorbs even counts."""
    if n < 2:
        raise DomainError("quadrature needs at least two samples")
    w = np.zeros(n)
    m = n if n % 2 == 1 else n - 1
    if m >= 3:
        w[0:m] = 2.0
        w[1:m:2] = 4.0
        w[0] = w[m - 1] = 1.0
        w[0:m] *= step / 3.0
    if m < n:  # one leftover cell
        w[-2] += step / 2.0
        w[-1] += step / 2.0
    return w


def _abs_panel_integrals(y0: np.ndarray, y1: np.ndarray, y2: np.ndarray, step: float) -> np.ndarray:
    """Integrals of |p| over two-cell Simpson panels, p the quadratic through
    (y0, y1, y2) on x in [-1, 1]; each panel splits at its interior sign
    changes so the result stays fourth-order accurate for near-real
    oscillatory data.  A missing root is clamped to an end of [-1, 1], where
    its sub-interval has zero length."""
    c0, c1, c2 = y1, 0.5 * (y2 - y0), 0.5 * (y0 - 2.0 * y1 + y2)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        disc = c1 * c1 - 4.0 * c2 * c0
        sq = np.sqrt(np.maximum(disc, 0.0))
        quadratic = (np.abs(c2) > 1e-300) & (disc > 0.0)
        linear = (np.abs(c2) <= 1e-300) & (np.abs(c1) > 1e-300)
        ra = np.where(quadratic, (-c1 - sq) / (2 * c2), np.where(linear, -c0 / c1, -1.0))
        rb = np.where(quadratic, (-c1 + sq) / (2 * c2), ra)
    edges = (-1.0, np.clip(np.minimum(ra, rb), -1.0, 1.0), np.clip(np.maximum(ra, rb), -1.0, 1.0), 1.0)

    def anti(x):
        return c0 * x + 0.5 * c1 * x * x + c2 * x**3 / 3.0

    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (a + b)
        sign = np.where(c0 + c1 * mid + c2 * mid * mid >= 0.0, 1.0, -1.0)
        total = total + sign * (anti(b) - anti(a))
    return np.abs(total) * step


def l1_norm_samples(values: np.ndarray, step: float) -> float:
    """L1 norm of near-real samples: Simpson panels with exact sign-change splits.

    Plain Simpson applied to |values| degrades to O(step^2) at each zero
    crossing; resolving the crossings panel by panel keeps fourth order.
    """
    vals = np.asarray(values, dtype=complex)
    re, im = vals.real, np.abs(vals.imag)
    scale = float(np.max(np.abs(vals))) or 1.0
    if float(np.max(im)) > 1e-6 * scale:
        # genuinely complex data: modulus is smooth (no crossings), plain Simpson
        return float(np.abs(vals) @ simpson_weights(vals.size, step))
    n = re.size
    if n < 3:
        return float(np.abs(vals) @ simpson_weights(n, step))
    last = n - 1 if n % 2 == 1 else n - 2
    total = float(np.sum(_abs_panel_integrals(re[0:last - 1:2], re[1:last:2], re[2:last + 1:2], step)))
    if last < n - 1:  # trailing cell: exact integral of |linear|
        a, b = re[-2], re[-1]
        if a * b < 0.0:
            total += 0.5 * step * (a * a + b * b) / (abs(a) + abs(b))
        else:
            total += 0.5 * step * (abs(a) + abs(b))
    return total


def derivative_samples(g: SampledComplexFunction) -> np.ndarray:
    """Second-order finite-difference derivative on the sample grid."""
    v, h = g.values, g.step
    if v.size < 3:
        raise DomainError("derivative needs at least three samples")
    d = np.empty_like(v)
    d[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    d[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    d[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    return d


def _check_tail(g: SampledComplexFunction, re: float) -> None:
    if re == 0.0 or g.tail_bound == 0.0:
        return
    if g.support == "half":
        edge = g.t_end if re < 0.0 else None
    else:
        edge = g.t0_grid if re > 0.0 else g.t_end
    if edge is None:
        return
    growth = g.tail_bound * math.exp(min(abs(re) * abs(edge), 700.0))
    if growth > _TAIL_TOL:
        raise DomainError(
            f"integrand grows on the unbounded side: tail_bound*exp(|Re lam|*T_edge) "
            f"= {growth:.3e} exceeds {_TAIL_TOL:.1e}"
        )


#: exponentials formed per block of laplace_sum (block rows times samples)
LAPLACE_BLOCK = 2**15


def laplace_sum(t: np.ndarray, wv: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """sum_j wv[j] exp(-lam t[j]) for each lam of the 1-d array lams.

    The one place a Laplace quadrature sum is formed.  Rows of lam are taken
    in blocks of about LAPLACE_BLOCK exponentials, so memory stays flat, and
    each row is reduced by einsum, not BLAS, so the result does not depend on
    the BLAS thread count.  An overflow yields inf or nan; callers check.
    """
    out = np.empty(lams.size, dtype=complex)
    rows = max(1, LAPLACE_BLOCK // t.size)
    for i in range(0, lams.size, rows):
        out[i : i + rows] = np.einsum("ij,j->i", np.exp(-lams[i : i + rows, None] * t), wv)
    return out


def laplace_many(g: SampledComplexFunction, lams: np.ndarray) -> np.ndarray:
    """Laplace transform integral(exp(-lam*t) g(t) dt) over the sampled window
    at every point of lams (same shape out), by composite Simpson.

    DomainError if the integrand grows past _TAIL_TOL on an unbounded side, or
    if exp(-lam*t) overflows on the grid.
    """
    lams = np.asarray(lams, dtype=complex)
    flat = lams.ravel()
    # initial=0.0 needs no tail check; it lets an empty lams through
    for re in (float(flat.real.min(initial=0.0)), float(flat.real.max(initial=0.0))):
        _check_tail(g, re)
    with np.errstate(all="ignore"):
        out = laplace_sum(g.t_grid, simpson_weights(g.n, g.step) * g.values, flat)
    bad = ~np.isfinite(out)
    if np.any(bad):
        raise DomainError(
            f"exp(-lam*t) overflows on this grid for lam = {complex(flat[np.argmax(bad)])}"
        )
    return out.reshape(lams.shape)


def laplace(g: SampledComplexFunction, lam: complex) -> complex:
    """laplace_many at the single point lam."""
    return complex(laplace_many(g, np.array([lam]))[0])


def _split(a):
    c = 134217729.0 * a  # 2**27 + 1: hi keeps the top 26 bits of a
    hi = c - (c - a)
    return hi, a - hi


def _two_product(a, b):
    """Dekker's error-free product: a*b == p + e exactly (barring overflow)."""
    p = a * b
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _split(b)
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _cis(a: float, b: float, m):
    """exp(i*a*b*m) for floats a, b and exactly representable multipliers m.

    The phase a*b*m is carried as hi + lo (two Dekker products), so it keeps
    full relative precision however large it grows; exp(i*lo) = 1 + i*lo to
    double precision because |lo| is a few ulps of hi.
    """
    ab, ab_lo = _two_product(a, b)
    hi, lo = _two_product(ab, m)
    return np.exp(1j * hi) * (1.0 + 1j * (lo + ab_lo * m))


def _chirpz_sum(weights: np.ndarray, u0: float, du: float, t0: float, dt: float, n_t: int) -> np.ndarray:
    """sum_j weights[j] exp(i t_k u_j) for t_k = t0 + k dt (k < n_t) and
    u_j = u0 + j du, by a chirp-z transform (Bluestein's identity).

    With theta = dt du, t_k u_j = t0 u0 + t0 du j + u0 dt k + theta kj, and
    kj = (k^2 + j^2 - (k-j)^2)/2 turns the theta term into a convolution
    with the chirp exp(-i theta m^2/2); zero-padding the FFTs to at least
    n + n_t - 1 points makes their circular convolution the linear one.
    """
    n = weights.size
    j = np.arange(n, dtype=float)
    k = np.arange(n_t, dtype=float)
    m = np.arange(max(n, n_t), dtype=float)
    y = weights * _cis(t0, du, j) * _cis(dt, du, 0.5 * j * j)
    chirp = _cis(dt, du, -0.5 * m * m)
    size = 1 << (n + n_t - 2).bit_length()
    b = np.zeros(size, dtype=complex)
    b[:n_t] = chirp[:n_t]
    b[size - n + 1:] = chirp[n - 1:0:-1]
    conv = np.fft.ifft(np.fft.fft(y, size) * np.fft.fft(b))[:n_t]
    return _cis(t0, u0, 1.0) * _cis(u0, dt, k) * _cis(dt, du, 0.5 * k * k) * conv


def fourier_invert(
    spectrum: Callable[[np.ndarray], np.ndarray],
    eps_decay: float,
    tol: float,
    out_grid: tuple[float, float, int],
) -> SampledComplexFunction:
    """Inverse Fourier transform h(t) = (1/2pi) integral(exp(iut) spectrum(u) du).

    The integral is truncated at the smallest U whose tail bound
    exp(-exp(eps_decay*U)), the double-exponential decay the caller
    certifies, falls below tol/100, then evaluated by composite Simpson
    on the whole output grid at once (a chirp-z transform, see _chirpz_sum).
    The spectral step is halved until 33 probe values move by less than tol;
    the last refinement is the result.  out_grid is (t_start, step, n).
    """
    t_start, step, n_t = out_grid
    if not (step > 0 and n_t >= 2):
        raise DomainError(f"bad output grid spec {out_grid!r}")
    if not tol > 0:
        raise DomainError("tolerance must be positive")
    if not eps_decay > 0:
        raise DomainError("eps_decay must be positive")

    def tail(u: float) -> float:
        return math.exp(-math.exp(min(eps_decay * u, 700.0)))

    target = tol * 1e-2
    u_hi = 1.0
    while tail(u_hi) >= target:
        u_hi *= 2.0
        if u_hi > _U_CAP:
            raise DomainError(f"truncation abscissa exceeds the cap {_U_CAP:g}")
    u_lo = 0.0
    for _ in range(80):
        mid = 0.5 * (u_lo + u_hi)
        if tail(mid) < target:
            u_hi = mid
        else:
            u_lo = mid
    U = u_hi

    t_start, step = float(t_start), float(step)
    t_max = max(abs(t_start), abs(t_start + step * (n_t - 1)))
    n_est = 2.0 * U * (t_max + 20.0) * (4.0 / math.pi)
    if not n_est <= _N_CAP:  # also catches an infinite or nan grid extent
        raise ConstructionError(
            f"spectral quadrature needs {n_est:.3g} points at U = {U:.3g} over |t| <= {t_max:.3g}, "
            f"more than the cap of {_N_CAP}"
        )
    n_u = int(max(513, math.ceil(n_est)))
    n_u += 1 - n_u % 2

    probe_idx = np.unique(np.linspace(0, n_t - 1, 33).astype(int))

    def eval_grid(n: int) -> np.ndarray:
        u = np.linspace(-U, U, n)
        su = np.asarray(spectrum(u), dtype=complex)
        if su.shape != u.shape or not np.all(np.isfinite(su.view(float))):
            raise DomainError("spectrum callable returned a bad or non-finite sample")
        du = 2.0 * U / (n - 1)  # the spacing np.linspace uses
        wv = simpson_weights(n, du) * su
        return _chirpz_sum(wv, -U, du, t_start, step, n_t) / (2.0 * math.pi)

    prev = eval_grid(n_u)[probe_idx]
    while True:
        n_next = 2 * n_u - 1
        values = eval_grid(n_next)
        err = float(np.max(np.abs(values[probe_idx] - prev)))
        if err < tol:
            n_u = n_next
            break
        if n_next >= _N_CAP:
            raise ConstructionError(
                f"spectral quadrature did not stabilise below {tol:g} at {_N_CAP} points (last move {err:.3e})"
            )
        n_u, prev = n_next, values[probe_idx]

    edge = max(2, n_t // 50)
    tail_est = 2.0 * float(max(np.max(np.abs(values[:edge])), np.max(np.abs(values[-edge:]))))
    return SampledComplexFunction(
        t0_grid=t_start,
        step=step,
        values=values,
        support="full",
        tail_bound=tail_est,
        meta={"u_max": U, "n_u": n_u, "quad_err": err, "tol": tol},
    )


def circle_sample(f: Callable[[np.ndarray], np.ndarray], center: complex, radius: float, n: int = 64) -> TransformSample:
    """Uniformly spaced samples of f on a circle (for mean-value checks)."""
    if not radius > 0:
        raise DomainError("circle radius must be positive")
    theta = 2.0 * math.pi * np.arange(n) / n
    pts = center + radius * np.exp(1j * theta)
    return TransformSample(points=pts, values=np.asarray(f(pts), dtype=complex),
                           meta={"center": center, "radius": radius})


def cauchy_check(contour: TransformSample, center_value: complex) -> float:
    """Mean-value residual |average over the circle - center value|.

    For a function analytic inside the circle the average of uniformly spaced
    boundary samples converges to the center value spectrally fast, so a large
    residual flags a failure of analyticity (or of the claimed agreement).
    """
    if contour.points.size < 16:
        raise DomainError("mean-value check needs at least 16 contour points")
    return float(abs(np.mean(contour.values) - complex(center_value)))
