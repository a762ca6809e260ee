"""Entire exponential-comb functions with certified strip decay, and the
normalized rapidly decaying kernels obtained from them by Fourier inversion.

The comb ``exp(2 e^{i eps lam} + 2 e^{-i eps lam})`` has modulus
``exp(2 cos(eps x)(e^{eps y} + e^{-eps y}))``; recentering it on the window
where the cosine is at most -1/2 produces a function that decays
double-exponentially along every vertical line of a strip.  Inverting its
restriction to the strip's center line yields a kernel whose translates and
modulations drive all witness constructions downstream.  Every m0's strip
is the m0 = 1 strip dilated, so its kernel is the m0 = 1 kernel rescaled.
"""

from __future__ import annotations

import functools
import json
import math
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import AlignmentError, ConstructionError, DomainError, EvaluationOverflowError, OutOfRangeError
from .xforms import (
    SampledComplexFunction,
    derivative_samples,
    fourier_invert,
    l1_norm_samples,
    laplace_sum,
    simpson_weights,
    tail_estimate,
)

__all__ = [
    "exp_cosine",
    "StripFunction",
    "build_strip_function",
    "verify_strip_decay",
    "StripKernel",
    "build_kernel",
    "roundtrip_max_deviation",
    "reality_ratio",
    "save_kernel",
    "load_kernel",
]

_EXP_OVERFLOW = 709.0  # largest safe argument of the outer real exponential
_FLUSH_FRACTION = 1e-14  # samples below this fraction of the peak are set to 0
_KERNEL_TOL = 1e-9  # build_kernel's accuracy target; the round trip must hold to 10x it
_COS_SLACK = 1e-12  # log_modulus_transform_bound's allowance for the cosine's rounding
_TWO_PI = 2.0 * math.pi
#: live samples per block of witness_derivative_maxima (82 blocks on the m0 = 1
#: kernel): at 64, verify evaluates about 1.9 blocks per distinct pair, and
#: on 41 pairs blocks of 32 or 128 were no faster (241 and 236 us, 225 at 64)
_MODULUS_BLOCK = 64
#: relative raise on a block's bound of |iR h + h'|, far above the few ulps by
#: which a computed modulus can exceed R max|h| + max|h'|
_MODULUS_RTOL = 1e-12
_TINY = float(np.finfo(float).tiny)  # smallest normal number


def exp_cosine(eps: float, lam) -> complex | np.ndarray:
    """The entire function exp(2 e^{i eps lam} + 2 e^{-i eps lam}).

    Equals exp(4 cos(eps lam)) and has the closed-form modulus
    exp(2 cos(eps x)(e^{eps y} + e^{-eps y})) at lam = x + iy.  Raises when
    the outer exponential overflows (cos(eps x) > 0 with |y| large) or when
    the phase can no longer be resolved in double precision.
    """
    if not eps > 0:
        raise DomainError(f"eps must be positive, got {eps}")
    arr = np.asarray(lam, dtype=complex)
    # real and imaginary part of the exponent, meaningful where cosh and sinh overflow
    with np.errstate(over="ignore", invalid="ignore"):
        re_w = 4.0 * np.cos(eps * arr.real) * np.cosh(eps * arr.imag)
        im_w = -4.0 * np.sin(eps * arr.real) * np.sinh(eps * arr.imag)
    bad = np.isnan(re_w) | (re_w > _EXP_OVERFLOW)
    if np.any(bad):
        where = arr[bad].ravel()[0]
        raise EvaluationOverflowError(
            f"outer exponential overflows at lam = {where}: exponent real part "
            f"exceeds {_EXP_OVERFLOW:g} (cos(eps x) > 0 with large |Im lam|)"
        )
    out = np.zeros_like(arr)
    live = re_w >= -745.0  # below this the result underflows to exactly 0
    if np.any(~np.isfinite(im_w[live])):
        raise EvaluationOverflowError(
            "phase of the exponential comb is not resolvable in double precision "
            "at the requested point"
        )
    out[live] = np.exp(re_w[live] + 1j * im_w[live])
    return complex(out) if arr.ndim == 0 else out


@dataclass(frozen=True)
class StripFunction:
    """Exponential comb recentered on its strongest-decay vertical strip.

    Evaluation at lam means the comb at lam + x_center, so lam = 0 sits on the
    strip's center line and the strip itself is |Re lam| < strip_half_width.
    Within that strip the recentered cosine is at most -1/2, which forces
    |value| <= exp(-(e^{eps y} + e^{-eps y})) on every vertical line.
    """

    epsilon: float
    x_center: float
    strip_half_width: float

    def __post_init__(self):
        if not (self.epsilon > 0 and self.x_center > 0 and self.strip_half_width > 0):
            raise DomainError("epsilon, x_center, strip_half_width must all be positive")
        # the window where cos(eps * x) <= -1/2 is [2pi/(3 eps), pi/eps];
        # the whole strip must sit inside it for the decay bound to hold
        lo = 2.0 * math.pi / (3.0 * self.epsilon)
        hi = math.pi / self.epsilon
        slack = 1e-9 * hi
        if self.x_center - self.strip_half_width < lo - slack or self.x_center + self.strip_half_width > hi + slack:
            raise ConstructionError(
                f"strip [{self.x_center - self.strip_half_width:.6g}, "
                f"{self.x_center + self.strip_half_width:.6g}] is not contained in the "
                f"cos <= -1/2 window [{lo:.6g}, {hi:.6g}] for eps = {self.epsilon:.6g}"
            )

    def __call__(self, lam) -> complex | np.ndarray:
        return exp_cosine(self.epsilon, np.asarray(lam, dtype=complex) + self.x_center)

    def log_modulus(self, lam) -> float | np.ndarray:
        """log|value| computed directly from the closed-form modulus; safe for
        arbitrarily large |Im lam| (returns -inf on underflow)."""
        arr = np.asarray(lam, dtype=complex)
        val = self.log_modulus_xy(arr.real, arr.imag)
        return float(val) if arr.ndim == 0 else val

    def log_modulus_xy(self, x, y) -> np.ndarray:
        """log_modulus at x + iy for real arrays x and y that broadcast
        together; a (rows, 1) column y forms each row's cosh factor once."""
        with np.errstate(over="ignore", invalid="ignore"):
            val = 4.0 * np.cos(self.epsilon * (x + self.x_center)) * np.cosh(self.epsilon * y)
        # 0 * inf: a vanishing cosine with an overflowing cosh means modulus 1
        return np.where(np.isnan(val), 0.0, val)

    def modulus(self, lam) -> float | np.ndarray:
        with np.errstate(over="ignore", under="ignore"):
            return np.exp(self.log_modulus(lam))


def build_strip_function(m0: float) -> StripFunction:
    """Strip function whose strip has half-width 1/m0.

    Chooses the largest frequency eps = pi*m0/6 for which the full strip fits
    the cos <= -1/2 window, and centers the strip on that window.
    """
    if not (isinstance(m0, (int, float)) and math.isfinite(m0) and m0 > 0):
        raise DomainError(f"m0 must be a positive finite real, got {m0!r}")
    eps, x_center = math.pi * m0 / 6.0, 5.0 / m0
    if not (math.isfinite(eps) and math.isfinite(x_center)):
        raise DomainError(
            f"m0 = {m0!r} is out of range: eps = pi*m0/6 and the strip centre 5/m0 must be finite"
        )
    return StripFunction(epsilon=eps, x_center=x_center, strip_half_width=1.0 / m0)


def verify_strip_decay(strip: StripFunction, eps_test: float, points: np.ndarray) -> float:
    """Supremum of |strip(lam)| * exp(exp(eps_test * |Im lam|)) over the points.

    Requires eps_test <= strip.epsilon; with equality the construction forces
    the supremum to stay below e regardless of grid extent.  Computed in log
    space so double-exponentially large weights cannot overflow.
    """
    if not 0 < eps_test <= strip.epsilon * (1.0 + 1e-12):
        raise DomainError(
            f"eps_test must lie in (0, {strip.epsilon:.6g}], got {eps_test:.6g}"
        )
    pts = np.asarray(points, dtype=complex).ravel()
    if pts.size == 0:
        raise DomainError("empty grid")
    logs = np.asarray(strip.log_modulus(pts), dtype=float)
    with np.errstate(over="ignore"):
        weight_log = np.exp(np.minimum(eps_test * np.abs(pts.imag), 700.0))
    total = logs + weight_log
    # -inf + capped weight stays -inf: the decay term always dominates there
    return float(np.exp(np.max(total)))


@dataclass(frozen=True, eq=False)
class StripKernel:
    """Normalized kernel: inverse Fourier transform of a strip function's
    center-line restriction, with its peak at t0 > 0 and scaled so the peak
    value is exactly 1.  live holds the (abscissae, values, derivative
    values) of the samples where the kernel or its second-order
    finite-difference derivative is nonzero; a zero sample cannot raise a
    supremum of either.  live and the sample values are read-only: a kernel
    rescaled from this one shares the values, and names it as unit.
    roundtrip_max_dev is measured on first use."""

    strip: StripFunction
    samples: SampledComplexFunction
    t0: float
    scale: complex
    live: tuple[np.ndarray, np.ndarray, np.ndarray]
    l1_norm: float
    linf_norm: float
    deriv_l1_norm: float
    deriv_linf_norm: float
    unit: StripKernel | None = field(default=None, repr=False)

    @property
    def epsilon(self) -> float:
        return self.strip.epsilon

    @property
    def peak_index(self) -> int:
        return self.samples.index_of(self.t0)

    @functools.cached_property
    def roundtrip_max_dev(self) -> float:
        """roundtrip_max_deviation(self), evaluated on first use: build_kernel
        enforces it, and the specialfn report and verify read it."""
        return roundtrip_max_deviation(self)

    @functools.cached_property
    def sample_text(self) -> str:
        """save_kernel's data text, formed once per set of shared values: one
        "%.17g" line per Re value, the +0.0 runs at either end as "0"."""
        if self.unit is not None and self.unit.samples.values is self.samples.values:
            return self.unit.sample_text
        re = self.samples.values.real
        span = np.flatnonzero((re != 0.0) | np.signbit(re))  # a -0.0 belongs to the span
        first, last = (int(span[0]), int(span[-1]) + 1) if span.size else (0, 0)
        body = ("%.17g\n" * (last - first)) % tuple(re[first:last].tolist())
        return "0\n" * first + body + "0\n" * (re.size - last)

    @functools.cached_property
    def _block_maxima(self) -> tuple[np.ndarray, np.ndarray]:
        """max|h| and max|h'| over each block of _MODULUS_BLOCK live samples
        (the last block may be shorter), formed once per kernel."""
        _, values, deriv = self.live
        starts = np.arange(0, values.size, _MODULUS_BLOCK)
        return np.maximum.reduceat(np.abs(values), starts), np.maximum.reduceat(np.abs(deriv), starts)

    def witness_derivative_maxima(self, Rs, firsts) -> list[float]:
        """For each pair of Rs and firsts (which broadcast together), the
        largest |iR h + h'| over the live samples from index first on (0 where
        there are none): bit for bit float(np.max(np.abs(1j*R*values +
        deriv)[first:], initial=0.0)).  It is the modulus of the derivative of
        every witness e^{iR(s-t)} h(s-t), whose translation t only moves the
        samples; it is 0 on every other sample.

        The live samples are cut into blocks of _MODULUS_BLOCK, and block b is
        bounded by (R max_b|h| + max_b|h'|)(1 + _MODULUS_RTOL) plus the
        smallest normal number, with max_b|h| and max_b|h'| the largest
        computed moduli in the block (_block_maxima).  The bound is at least
        every modulus computed in the block: |iR h + h'| <= R|h| + |h'| by
        the triangle inequality, and the product, the sum and the modulus
        each round by at most a few ulps, which _MODULUS_RTOL exceeds (the
        absolute term covers the ulps of subnormal results).  So a block
        whose bound is below a modulus already computed in the pair's range
        cannot hold its maximum.  Each distinct pair has its best-bounded
        block (of those from first's block on) evaluated exactly, then only
        the blocks whose bound reaches that value, all pairs in one
        vectorised pass each; a sample before first, or past the last, counts
        as 0.  The gathered samples are contiguous arrays, so np.abs runs the
        same loop as on the full live array."""
        R, first = np.broadcast_arrays(np.asarray(Rs, dtype=float), np.asarray(firsts, dtype=np.intp))
        if R.size == 0:
            return []
        # one complex key R + i first per pair, which np.unique sorts by R, then first
        keys, inverse = np.unique(R + 1j * first, return_inverse=True)
        R, first = keys.real[:, None], keys.imag.astype(np.intp)[:, None]
        _, values, deriv = self.live
        n, h_max, d_max = values.size, *self._block_maxima
        bounds = (R * h_max + d_max) * (1.0 + _MODULUS_RTOL) + _TINY
        bounds[np.arange(h_max.size) < first // _MODULUS_BLOCK] = -math.inf

        def block_maxima(rows, blocks):  # the exact maximum of each (pair, block)
            idx = blocks[:, None] * _MODULUS_BLOCK + np.arange(_MODULUS_BLOCK)
            outside = (idx < first[rows]) | (idx >= n)
            np.minimum(idx, n - 1, out=idx)
            mod = np.abs(1j * R[rows] * values[idx] + deriv[idx])
            mod[outside] = 0.0
            return mod.max(axis=1)

        rows = np.arange(keys.size)
        best = np.argmax(bounds, axis=1)
        maxima = block_maxima(rows, best)
        bounds[rows, best] = -math.inf
        rows, blocks = np.nonzero(bounds >= maxima[:, None])
        if rows.size:
            np.maximum.at(maxima, rows, block_maxima(rows, blocks))
        return maxima[inverse.ravel()].tolist()

    def transform(self, lam) -> complex | np.ndarray:
        """Closed-form bilateral Laplace transform of the normalized kernel."""
        arr = np.asarray(lam, dtype=complex)
        out = np.asarray(self.strip(arr)) / self.scale
        return complex(out) if arr.ndim == 0 else out

    def log_modulus_transform_xy(self, x, y) -> np.ndarray:
        """log|transform| at x + iy, stable for arbitrarily large |y|; x and y
        as in StripFunction.log_modulus_xy."""
        return self.strip.log_modulus_xy(x, y) - math.log(abs(self.scale))

    def log_modulus_transform_bound(self, x_lo, x_hi, y) -> np.ndarray:
        """Upper bound on log_modulus_transform_xy(x, y), as computed, over
        every x in [x_lo, x_hi]; x_lo, x_hi and y broadcast together (one
        entry per row).  The cosine's maximum over the row's argument
        interval is at an end of it, or 1 where the interval holds a multiple
        of 2 pi; _COS_SLACK on top exceeds the rounding of the cosine and of
        its argument (which is monotone in x).  The cosh factor is formed as
        in log_modulus_xy, bit for bit, and the product and the subtraction
        are monotone under rounding, so no point's value exceeds the bound.
        Where cosh overflows the bound is -inf below a negative maximum
        (every point's value is -inf there too) and +inf otherwise; no
        floating-point warning is raised.  The row-sized terms are formed in
        place (out=), bit for bit as their expression forms."""
        s = self.strip
        shape = np.broadcast(x_lo, x_hi, y).shape
        val = np.add(x_lo, s.x_center, out=np.empty(shape))
        np.multiply(s.epsilon, val, out=val)  # u_lo
        u_hi = s.epsilon * (x_hi + s.x_center)  # one number where the right end is one
        holds_peak = np.floor(u_hi / _TWO_PI) * _TWO_PI >= val
        np.cos(val, out=val)
        np.maximum(val, np.cos(u_hi), out=val)
        del u_hi
        val[holds_peak] = 1.0
        np.add(val, _COS_SLACK, out=val)  # cos_max
        np.multiply(4.0, val, out=val)
        with np.errstate(over="ignore", invalid="ignore"):
            term = np.multiply(s.epsilon, y, out=np.empty(shape))
            np.cosh(term, out=term)
            np.multiply(val, term, out=val)
        val[np.isnan(val)] = math.inf
        return np.subtract(val, math.log(abs(self.scale)), out=val)


_UNIT_GRID = (-40.0, 0.005, 16001)  # (t_start, step, n) of the m0 = 1 kernel grid


def _laplace_extrapolated(g: SampledComplexFunction, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """One Richardson step on the composite-Simpson Laplace quadrature,
    cancelling the leading error term (used for construction-time checks),
    at lam = x + iy for x in xs, y in ys; returns an (ys.size, xs.size) array.

    Both rules are laplace_sum calls: the fine one on every sample, the
    coarse one on every other sample with step-2h weights.
    """
    lams = (xs[None, :] + 1j * ys[:, None]).ravel()
    w_fine = simpson_weights(g.n, g.step) * g.values
    coarse_vals = g.values[::2]
    w_coarse = simpson_weights(coarse_vals.size, 2.0 * g.step) * coarse_vals
    fine = laplace_sum(g.t0_grid, g.step, w_fine, lams)
    coarse = laplace_sum(g.t0_grid, 2.0 * g.step, w_coarse, lams)
    return ((16.0 * fine - coarse) / 15.0).reshape(ys.size, xs.size)


def _assemble_kernel(strip: StripFunction, samples: SampledComplexFunction, t0: float,
                     scale: complex, unit: StripKernel | None = None) -> StripKernel:
    """The kernel with these samples; its live samples and four norms are
    derived from the samples and their finite-difference derivative."""
    values, step = samples.values, samples.step
    deriv = derivative_samples(samples)
    live = (values != 0) | (deriv != 0)
    live = (samples.t_grid[live], values[live], deriv[live])
    for array in (values, *live):  # a rescaled kernel shares the values
        array.setflags(write=False)
    return StripKernel(
        strip=strip,
        samples=samples,
        t0=float(t0),
        scale=complex(scale),
        live=live,
        l1_norm=l1_norm_samples(values, step),
        linf_norm=float(np.max(np.abs(values))),
        deriv_l1_norm=l1_norm_samples(deriv, step),
        deriv_linf_norm=float(np.max(np.abs(deriv))),
        unit=unit,
    )


@functools.cache
def _unit_kernel() -> StripKernel:
    """The m0 = 1 kernel, built on first use, once per process; build_kernel
    checks it.  Pipeline: Fourier inversion of the center-line values on
    _UNIT_GRID; peak location by grid argmax, which must land at positive
    time (every valid strip has sin(eps x_center) > 0, so the center-line
    phase -4 sin(eps x_center) sinh(eps u) is stationary only for t > 0);
    scaling so the peak value is exactly 1; flushing of samples below the
    double-precision signal floor to exact zeros (this keeps later
    exponentially weighted quadratures from amplifying rounding noise).
    """
    strip = build_strip_function(1.0)
    t_start, step, n_t = _UNIT_GRID
    tol_f = max(_KERNEL_TOL / (4.0 * (step * (n_t - 1))), 1e-15)
    raw = fourier_invert(lambda u: np.asarray(strip(1j * np.asarray(u)), dtype=complex),
                         strip.epsilon, tol_f, _UNIT_GRID)
    values = raw.values.copy()
    idx = int(np.argmax(np.abs(values)))
    peak = values[idx]
    if abs(peak) < 1e-12:
        raise ConstructionError(f"degenerate kernel: peak magnitude {abs(peak):.3e} is below 1e-12")
    t_peak = raw.t0_grid + raw.step * idx
    if not t_peak > 0.0:
        raise ConstructionError(f"kernel peak at t = {t_peak:.6g} is not at positive time")
    values /= peak
    flush = _FLUSH_FRACTION * float(np.max(np.abs(values)))
    values[np.abs(values) < flush] = 0.0
    values[idx] = 1.0 + 0.0j
    samples = SampledComplexFunction(
        t0_grid=float(t_start),
        step=float(step),
        values=values,
        tail_bound=tail_estimate(values),
        meta={**raw.meta, "flush_floor": flush, "normalized": True},
    )
    return _assemble_kernel(strip, samples, t_peak, peak)


def build_kernel(strip: StripFunction) -> StripKernel:
    """The normalized kernel of the strip for m0 = 1/strip_half_width.

    As H_m0(lam) = H_1(m0 lam), K_m0(t) = K_1(t/m0): the m0 = 1 kernel
    (_unit_kernel), its values shared, with t0_grid, step and t0 times m0
    and scale over m0.  The round trip then reads m0 times the m0 = 1
    kernel's, dev_1, so an m0 above 10*_KERNEL_TOL / dev_1 (about 11.1)
    raises OutOfRangeError first.  Enforced on the kernel: reality_ratio
    below 1e-8, and roundtrip_max_dev within 10*_KERNEL_TOL, which also
    refuses a strip that is no such dilation.
    """
    kernel = unit = _unit_kernel()
    limit = 10.0 * _KERNEL_TOL
    if strip != unit.strip:
        m0, dev = 1.0 / strip.strip_half_width, unit.roundtrip_max_dev
        if m0 * dev > limit:
            raise OutOfRangeError(
                f"m0 = {m0:g} is outside the supported range 0 < m0 <= {limit / dev:.4g}: the kernel "
                f"round trip would read about m0 * {dev:.3e} = {m0 * dev:.3e}, above {limit:.1e}")
        g = unit.samples
        samples = replace(g, t0_grid=g.t0_grid * m0, step=g.step * m0)
        kernel = _assemble_kernel(strip, samples, unit.t0 * m0, unit.scale / m0, unit)
    ratio = reality_ratio(kernel)
    if not ratio < 1e-8:
        raise ConstructionError(f"kernel failed the reality check: max|Im| / max|value| = {ratio:.3e}")
    if kernel.roundtrip_max_dev > limit:
        raise ConstructionError(
            f"kernel round-trip failed: max deviation {kernel.roundtrip_max_dev:.3e} exceeds {limit:.1e}")
    return kernel


def save_kernel(kernel: StripKernel, base_path: str | Path) -> tuple[Path, Path]:
    """Write a kernel as <base>.tsv (its sample_text) plus <base>.json.

    The imaginary parts are certified below the reality threshold and are
    dropped.  The JSON header holds exactly what load_kernel reads: the
    strip, t0, scale, the tail bound and the grid (t0_grid, step, n), which
    gives sample j the abscissa t0_grid + j*step.
    """
    base = Path(base_path)
    data_path = base.with_suffix(".tsv")
    header_path = base.with_suffix(".json")
    g = kernel.samples
    data_path.write_text(kernel.sample_text)
    header = {
        "epsilon": kernel.strip.epsilon,
        "x_center": kernel.strip.x_center,
        "strip_half_width": kernel.strip.strip_half_width,
        "t0": kernel.t0,
        "scale": [kernel.scale.real, kernel.scale.imag],
        "t0_grid": g.t0_grid,
        "step": g.step,
        "n": g.n,
        "tail_bound": g.tail_bound,
    }
    header_path.write_text(json.dumps(header, indent=1, sort_keys=True, allow_nan=False) + "\n")
    return data_path, header_path


def load_kernel(base_path: str | Path) -> StripKernel:
    """Rebuild a kernel from save_kernel output.  The header gives the strip,
    the grid, t0, scale and tail bound; the data file's last column gives the
    n sample values (older files also hold the abscissae, unread, before
    them).  The live samples and four norms are derived from the loaded
    samples, as build_kernel derives them.  Headers of older files also carry
    the four norms, which are not read, and ``"reflected": false``; a
    reflected kernel is refused.  Of the construction checks only the peak's
    is re-run: t0 must be a sample point whose value is 1 (to 1e-12), as
    build_kernel sets it and the shift model's floors read it.  A header key
    that is missing or holds a value of the wrong kind, a data file without n
    rows of one or two columns, or a failed peak check raises
    ConstructionError."""
    base = Path(base_path)
    header_path = base.with_suffix(".json")
    header = json.loads(header_path.read_text())
    if not isinstance(header, dict):
        raise ConstructionError(f"{header_path} is not a kernel header (a JSON object)")

    def read(key: str, convert=float):
        if key not in header:
            raise ConstructionError(f"{header_path} lacks the key {key!r}")
        try:
            return convert(header[key])
        except (IndexError, KeyError, TypeError, ValueError) as exc:
            raise ConstructionError(f"{header_path} has an invalid value for the key {key!r}") from exc

    if header.get("reflected", False):
        raise ConstructionError(f"{header_path} describes a reflected kernel, which no strip yields")
    try:
        with warnings.catch_warnings():  # an empty file is refused below by its shape alone
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            rows = np.loadtxt(base.with_suffix(".tsv"), dtype=float, ndmin=2)
    except ValueError as exc:  # a ragged row or a word that is no number
        raise ConstructionError(f"kernel data file is not a table of numbers: {exc}") from exc
    n = read("n", int)
    if rows.shape[0] != n or rows.shape[1] not in (1, 2):
        raise ConstructionError(
            f"kernel data file has shape {rows.shape}, expected ({n}, 1) or ({n}, 2)"
        )
    strip = StripFunction(
        epsilon=read("epsilon"),
        x_center=read("x_center"),
        strip_half_width=read("strip_half_width"),
    )
    samples = SampledComplexFunction(
        t0_grid=read("t0_grid"),
        step=read("step"),
        values=rows[:, -1].astype(complex),
        support="full",
        tail_bound=read("tail_bound"),
        meta={"loaded_from": str(base)},
    )
    scale = read("scale", lambda pair: complex(pair[0], pair[1]))
    kernel = _assemble_kernel(strip, samples, read("t0"), scale)
    try:
        peak = samples.values[kernel.peak_index]
    except AlignmentError as exc:
        raise ConstructionError(f"{header_path}: the peak t0 = {kernel.t0} is not a sample point") from exc
    if not abs(peak - 1.0) < 1e-12:
        raise ConstructionError(f"kernel sample at the peak t0 = {kernel.t0} reads {peak.real:.17g}, not 1")
    return kernel


def roundtrip_max_deviation(kernel: StripKernel) -> float:
    """Max |quadrature transform - closed form| over a 20x20 interior strip
    grid: 3/4 of the half-width keeps the exponential weighting of the
    flushed tails inside the certified error budget."""
    w = kernel.strip.strip_half_width
    xs = np.linspace(-0.75 * w, 0.75 * w, 20)
    ys = np.linspace(-3.0 * w, 3.0 * w, 20)
    quad = _laplace_extrapolated(kernel.samples, xs, ys)
    closed = kernel.transform(xs[None, :] + 1j * ys[:, None])
    return float(np.max(np.abs(quad - closed)))


def reality_ratio(kernel: StripKernel) -> float:
    """max|Im h| / max|h| over the sample grid (0 after imaginary flushing)."""
    v = kernel.samples.values
    return float(np.max(np.abs(v.imag)) / np.max(np.abs(v)))
