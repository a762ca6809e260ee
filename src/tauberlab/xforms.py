"""Sampled functions and their transforms.

Everything here works on uniformly sampled complex-valued functions of a real
variable.  Laplace transforms are composite-Simpson quadratures, all formed by
one factored, zero-trimmed sum (laplace_sum).  Fourier inversion truncates
the spectral integral at a certified abscissa and halves the spectral step
until 33 probe values, summed by laplace_sum at imaginary points, stabilise;
then one chirp-z transform evaluates the accepted quadrature on the whole
output grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import AlignmentError, ConstructionError, DomainError

__all__ = [
    "SampledComplexFunction",
    "simpson_weights",
    "l1_norm_samples",
    "derivative_samples",
    "laplace_sum",
    "laplace_many",
    "laplace",
    "fourier_invert",
    "cauchy_check",
]

_ALIGN_TOL = 1e-6  # largest offset from a sample point, in steps, that index_of accepts
_TAIL_TOL = 1e-9  # largest tail growth a Laplace quadrature may leave out
_U_CAP = 1e5  # largest spectral truncation abscissa fourier_invert accepts
_N_CAP = 2**18 + 1  # most spectral samples fourier_invert refines to
_CAUCHY_POINTS = 32  # points on each of cauchy_check's mean-value circles


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
        idx = int(round(pos)) if math.isfinite(pos) else -1
        if idx < 0 or idx >= self.n or abs(pos - idx) > _ALIGN_TOL:
            raise AlignmentError(f"t = {t} is not a sample point of this grid")
        return idx


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
    Every sum is a numpy reduction or an einsum, not a BLAS dot product,
    so the result does not depend on the BLAS thread count.
    """
    vals = np.asarray(values, dtype=complex)
    re, im = vals.real, np.abs(vals.imag)
    scale = float(np.max(np.abs(vals))) or 1.0
    n = re.size
    if float(np.max(im)) > 1e-6 * scale or n < 3:
        # genuinely complex data (a smooth modulus, no crossings) or too few
        # samples for a panel: plain Simpson
        return float(np.einsum("i,i->", np.abs(vals), simpson_weights(n, step)))
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


#: transform points per block of laplace_sum
LAPLACE_BLOCK = 128


def nonzero_span(a: np.ndarray) -> tuple[int, int]:
    """(first, last + 1) of the nonzero entries of the 1-d array a, (0, 0)
    if there are none.  -0.0 counts as zero; an entry whose only nonzero
    part is imaginary counts as nonzero.  Two argmax scans of a != 0 stop
    at their first hit, where flatnonzero would build an index array of
    every nonzero entry."""
    nz = a != 0
    first = int(np.argmax(nz)) if nz.size else 0
    if nz.size == 0 or not nz[first]:
        return 0, 0
    return first, nz.size - int(np.argmax(nz[::-1]))


def laplace_sum(t0: float, step: float, wv: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """sum_j wv[j] exp(-lam (t0 + j step)) for each lam of the 1-d array lams.

    The one place a Laplace quadrature sum is formed.  Leading and trailing
    runs of zero weights are dropped; the span between them is found by two
    argmax scans (nonzero_span), not by listing every nonzero index.  The
    remaining n samples are cut into blocks of B ~ sqrt(n), and with
    t = t_b + r step (t_b a block start, 0 <= r < B) the exponential
    factors as exp(-lam t_b) exp(-lam r step):
    each point needs about n/B + B exponentials instead of n.  Points go in
    blocks of LAPLACE_BLOCK, so memory stays flat, and both contractions are
    einsums, not BLAS, so the result does not depend on the BLAS thread
    count.  An overflow yields inf or nan; callers check.
    """
    out = np.zeros(lams.size, dtype=complex)
    first, end = nonzero_span(wv)
    if first == end:
        return out
    w = wv[first:end]
    n = w.size
    B = math.isqrt(n - 1) + 1  # ceil(sqrt(n))
    nb = -(-n // B)
    blocks = np.zeros(nb * B, dtype=complex)
    blocks[:n] = w
    blocks = blocks.reshape(nb, B)
    starts = t0 + step * (first + B * np.arange(nb))
    offsets = step * np.arange(B)
    for i in range(0, lams.size, LAPLACE_BLOCK):
        lam = lams[i : i + LAPLACE_BLOCK, None]
        inner = np.einsum("br,pr->pb", blocks, np.exp(-lam * offsets))
        out[i : i + LAPLACE_BLOCK] = np.einsum("pb,pb->p", np.exp(-lam * starts), inner)
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
        out = laplace_sum(g.t0_grid, g.step, simpson_weights(g.n, g.step) * g.values, flat)
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
    n + n_t - 1 points makes their circular convolution the linear one.  The
    output factor exp(i theta k^2/2) is the conjugate of the chirp's first
    n_t entries, bit for bit, since the phases are exact negatives and
    numpy's complex exp is odd in the phase.
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
    return _cis(t0, u0, 1.0) * _cis(u0, dt, k) * np.conj(chirp[:n_t]) * conv


def tail_estimate(values: np.ndarray) -> float:
    """Twice the largest |value| in the outer 2% (at least 2 samples) at
    either end: the tail bound of an inverted full-line function."""
    edge = max(2, values.size // 50)
    return 2.0 * float(max(np.max(np.abs(values[:edge])), np.max(np.abs(values[-edge:]))))


def fourier_invert(
    spectrum: Callable[[np.ndarray], np.ndarray],
    eps_decay: float,
    tol: float,
    out_grid: tuple[float, float, int],
) -> SampledComplexFunction:
    """Inverse Fourier transform h(t) = (1/2pi) integral(exp(iut) spectrum(u) du).

    The integral is truncated at the smallest U whose tail bound
    exp(-exp(eps_decay*U)), the double-exponential decay the caller
    certifies, falls below tol/100, and summed by composite Simpson.  Each
    refinement level calls spectrum once and forms its Simpson-weighted
    samples; a probe pass sums them at 33 output abscissae t, as the
    Laplace sum at lam = -i t (laplace_sum, a few sqrt(n) exponentials per
    point).  The spectral step is halved until the probe values move by
    less than tol; meta's quad_err is that last move.  Then one chirp-z
    transform (_chirpz_sum) sums the accepted level's weights on the whole
    output grid.  out_grid is (t_start, step, n).
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
    probe_lams = -1j * (t_start + step * probe_idx)

    def level(n: int) -> tuple[np.ndarray, float, np.ndarray]:
        """The level's Simpson-weighted spectrum, its step and its probe values."""
        u = np.linspace(-U, U, n)
        su = np.asarray(spectrum(u), dtype=complex)
        if su.shape != u.shape or not np.all(np.isfinite(su.view(float))):
            raise DomainError("spectrum callable returned a bad or non-finite sample")
        du = 2.0 * U / (n - 1)  # the spacing np.linspace uses
        wv = simpson_weights(n, du) * su
        return wv, du, laplace_sum(-U, du, wv, probe_lams) / (2.0 * math.pi)

    _, _, prev = level(n_u)
    while True:
        n_next = 2 * n_u - 1
        wv, du, probe = level(n_next)
        err = float(np.max(np.abs(probe - prev)))
        if err < tol:
            n_u = n_next
            break
        if n_next >= _N_CAP:
            raise ConstructionError(
                f"spectral quadrature did not stabilise below {tol:g} at {_N_CAP} points (last move {err:.3e})"
            )
        n_u, prev = n_next, probe
    values = _chirpz_sum(wv, -U, du, t_start, step, n_t) / (2.0 * math.pi)

    return SampledComplexFunction(
        t0_grid=t_start,
        step=step,
        values=values,
        support="full",
        tail_bound=tail_estimate(values),
        meta={"u_max": U, "n_u": n_u, "quad_err": err, "tol": tol},
    )


def cauchy_check(f: Callable[[np.ndarray], np.ndarray], centers, radius: float) -> list[float]:
    """Mean-value residuals |mean of f on _CAUCHY_POINTS uniformly spaced
    points of the circle about a center - f(center)|, one per center of the
    1-d array centers, from one call of f on the centers and every circle.

    For a function analytic inside the circle the average of uniformly spaced
    boundary samples converges to the center value spectrally fast, so a large
    residual flags a failure of analyticity (or of the claimed agreement).
    """
    if not radius > 0:
        raise DomainError("circle radius must be positive")
    centers = np.asarray(centers, dtype=complex)
    theta = 2.0 * math.pi * np.arange(_CAUCHY_POINTS) / _CAUCHY_POINTS
    circles = centers[:, None] + radius * np.exp(1j * theta)
    values = np.asarray(f(np.concatenate([centers, circles.ravel()])), dtype=complex)
    means = values[centers.size:].reshape(circles.shape).mean(axis=1)
    return [abs(complex(mean) - complex(value)) for mean, value in zip(means, values[:centers.size])]
