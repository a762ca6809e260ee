"""Entire exponential-comb functions with certified strip decay, and the
normalized rapidly decaying kernels obtained from them by Fourier inversion.

The comb ``exp(2 e^{i eps lam} + 2 e^{-i eps lam})`` has modulus
``exp(2 cos(eps x)(e^{eps y} + e^{-eps y}))``; recentering it on the window
where the cosine is at most -1/2 produces a function that decays
double-exponentially along every vertical line of a strip.  Inverting its
restriction to the strip's center line yields a kernel whose translates and
modulations drive all witness constructions downstream.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConstructionError, DomainError, EvaluationOverflowError
from .xforms import (
    SampledComplexFunction,
    derivative_samples,
    fourier_invert,
    l1_norm_samples,
    simpson_weights,
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
_ROUNDTRIP_INSET = 0.75  # round-trip lattices span this fraction of the strip's half-width


def _comb_exponent(eps: float, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary part of 2 e^{i eps lam} + 2 e^{-i eps lam}, in a form
    that stays meaningful when the hyperbolic factors overflow."""
    x = lam.real
    y = lam.imag
    with np.errstate(over="ignore", invalid="ignore"):
        ch = np.cosh(eps * y)
        sh = np.sinh(eps * y)
        re_w = 4.0 * np.cos(eps * x) * ch
        im_w = -4.0 * np.sin(eps * x) * sh
    return re_w, im_w


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
    re_w, im_w = _comb_exponent(eps, arr)
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
    if arr.ndim == 0:
        return complex(out)
    return out


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
        arr = np.asarray(lam, dtype=complex)
        shifted = arr + self.x_center
        out = exp_cosine(self.epsilon, shifted)
        return out

    def log_modulus(self, lam) -> float | np.ndarray:
        """log|value| computed directly from the closed-form modulus; safe for
        arbitrarily large |Im lam| (returns -inf on underflow)."""
        arr = np.asarray(lam, dtype=complex)
        x = arr.real + self.x_center
        y = arr.imag
        with np.errstate(over="ignore", invalid="ignore"):
            val = 4.0 * np.cos(self.epsilon * x) * np.cosh(self.epsilon * y)
        # 0 * inf: a vanishing cosine with an overflowing cosh means modulus 1
        val = np.where(np.isnan(val), 0.0, val)
        if arr.ndim == 0:
            return float(val)
        return val

    def modulus(self, lam) -> float | np.ndarray:
        with np.errstate(over="ignore", under="ignore"):
            out = np.exp(self.log_modulus(lam))
        return out


def build_strip_function(m0: float) -> StripFunction:
    """Strip function whose strip has half-width 1/m0.

    Chooses the largest frequency eps = pi*m0/6 for which the full strip fits
    the cos <= -1/2 window, and centers the strip on that window.
    """
    if not (isinstance(m0, (int, float)) and math.isfinite(m0) and m0 > 0):
        raise DomainError(f"m0 must be a positive finite real, got {m0!r}")
    eps = math.pi * m0 / 6.0
    return StripFunction(epsilon=eps, x_center=5.0 / m0, strip_half_width=1.0 / m0)


def verify_strip_decay(strip: StripFunction, eps_test: float, grid) -> float:
    """Grid supremum of |strip(lam)| * exp(exp(eps_test * |Im lam|)).

    Requires eps_test <= strip.epsilon; with equality the construction forces
    the supremum to stay below e regardless of grid extent.  Computed in log
    space so double-exponentially large weights cannot overflow.
    """
    if not 0 < eps_test <= strip.epsilon * (1.0 + 1e-12):
        raise DomainError(
            f"eps_test must lie in (0, {strip.epsilon:.6g}], got {eps_test:.6g}"
        )
    pts = np.asarray(getattr(grid, "points", grid), dtype=complex).ravel()
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
    center-line restriction, reflected if needed so its peak sits at t0 >= 0
    and scaled so the peak value is exactly 1."""

    strip: StripFunction
    samples: SampledComplexFunction
    derivative: SampledComplexFunction
    t0: float
    scale: complex
    reflected: bool
    l1_norm: float
    linf_norm: float
    deriv_l1_norm: float
    deriv_linf_norm: float

    @property
    def epsilon(self) -> float:
        return self.strip.epsilon

    @property
    def peak_index(self) -> int:
        return self.samples.index_of(self.t0)

    @property
    def orientation(self) -> int:
        return -1 if self.reflected else 1

    def transform(self, lam) -> complex | np.ndarray:
        """Closed-form bilateral Laplace transform of the normalized kernel."""
        arr = np.asarray(lam, dtype=complex)
        out = np.asarray(self.strip(self.orientation * arr)) / self.scale
        if arr.ndim == 0:
            return complex(out)
        return out

    def log_modulus_transform(self, lam) -> float | np.ndarray:
        """log|transform|, stable for arbitrarily large |Im lam|."""
        arr = np.asarray(lam, dtype=complex)
        out = self.strip.log_modulus(self.orientation * arr) - math.log(abs(self.scale))
        return out


def _default_grid(strip: StripFunction) -> tuple[float, float, int]:
    """(t_start, step, n) of the kernel grid; it is symmetric about 0, which
    the reflection in build_kernel relies on."""
    time_scale = 1.0 / strip.strip_half_width
    return (-40.0 * time_scale, 0.005 * time_scale, 16001)


def _laplace_extrapolated(g: SampledComplexFunction, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """One Richardson step on the composite-Simpson Laplace quadrature,
    cancelling the leading error term (used for construction-time checks),
    at lam = x + iy for x in xs, y in ys; returns an (ys.size, xs.size) array.

    exp(-lam t) = exp(-i y t) exp(-x t) makes each rule one matrix product;
    the coarse rule reuses every other column of the fine factors.
    """
    t = g.t_grid
    phase = np.exp(-1j * np.outer(ys, t))
    decay = np.exp(-np.outer(t, xs))
    w_fine = simpson_weights(g.n, g.step) * g.values
    coarse_vals = g.values[::2]
    w_coarse = simpson_weights(coarse_vals.size, 2.0 * g.step) * coarse_vals
    fine = phase @ (decay * w_fine[:, None])
    coarse = phase[:, ::2] @ (decay[::2] * w_coarse[:, None])
    return (16.0 * fine - coarse) / 15.0


def build_kernel(strip: StripFunction) -> StripKernel:
    """Invert the strip function's center-line values into a normalized kernel.

    Pipeline: Fourier inversion on a symmetric grid; peak location by grid
    argmax; reflection when the peak lands at negative time; scaling so the
    peak value is exactly 1; flushing of samples below the double-precision
    signal floor to exact zeros (this keeps later exponentially weighted
    quadratures from amplifying rounding noise); norm computation; and an
    enforced round-trip check of the quadrature transform against the closed
    form on an interior strip grid, to 10*_KERNEL_TOL.
    """
    grid = _default_grid(strip)
    t_start, step, n_t = grid
    span = step * (n_t - 1)
    tol_f = max(_KERNEL_TOL / (4.0 * span), 1e-15)

    def spectrum(u: np.ndarray) -> np.ndarray:
        return np.asarray(strip(1j * np.asarray(u)), dtype=complex)

    raw = fourier_invert(spectrum, strip.epsilon, tol_f, grid)
    values = raw.values.copy()
    idx = int(np.argmax(np.abs(values)))
    peak = values[idx]
    if abs(peak) < 1e-12:
        raise ConstructionError(
            f"degenerate kernel: peak magnitude {abs(peak):.3e} is below 1e-12"
        )
    t_peak = raw.t0_grid + raw.step * idx
    reflected = t_peak < 0.0
    if reflected:
        values = values[::-1].copy()
        idx = n_t - 1 - idx
        t_peak = -t_peak
    values /= peak
    flush = _FLUSH_FRACTION * float(np.max(np.abs(values)))
    values[np.abs(values) < flush] = 0.0
    values[idx] = 1.0 + 0.0j

    im_max = float(np.max(np.abs(values.imag)))
    abs_max = float(np.max(np.abs(values)))
    if im_max >= 1e-8 * abs_max:
        raise ConstructionError(
            f"kernel failed the reality check: max|Im| = {im_max:.3e} "
            f"vs 1e-8 * max|value| = {1e-8 * abs_max:.3e}"
        )

    edge = max(2, n_t // 50)
    tail_est = 2.0 * float(max(np.max(np.abs(values[:edge])), np.max(np.abs(values[-edge:]))))
    samples = SampledComplexFunction(
        t0_grid=float(t_start),
        step=float(step),
        values=values,
        support="full",
        tail_bound=tail_est,
        meta={**raw.meta, "flush_floor": flush, "normalized": True},
    )
    deriv_vals = derivative_samples(samples)
    derivative = SampledComplexFunction(
        t0_grid=float(t_start), step=float(step), values=deriv_vals,
        support="full", tail_bound=2.0 * tail_est / step if tail_est else 0.0,
        meta={"derived_from": "kernel samples, second-order differences"},
    )

    kernel = StripKernel(
        strip=strip,
        samples=samples,
        derivative=derivative,
        t0=float(t_peak),
        scale=complex(peak),
        reflected=bool(reflected),
        l1_norm=l1_norm_samples(values, step),
        linf_norm=abs_max,
        deriv_l1_norm=l1_norm_samples(deriv_vals, step),
        deriv_linf_norm=float(np.max(np.abs(deriv_vals))),
    )

    # round-trip enforcement: quadrature transform vs closed form on an
    # interior strip grid (3/4 of the half-width keeps the exponential
    # weighting of the flushed tails inside the certified error budget)
    dev = roundtrip_max_deviation(kernel, nx=10, ny=11)
    if dev > 10.0 * _KERNEL_TOL:
        raise ConstructionError(
            f"kernel round-trip failed: max deviation {dev:.3e} exceeds {10.0 * _KERNEL_TOL:.1e}"
        )
    samples.meta["roundtrip_max_dev"] = dev
    w = strip.strip_half_width
    samples.meta["roundtrip_grid"] = {
        "x_extent": _ROUNDTRIP_INSET * w, "y_extent": 3.0 * w, "nx": 10, "ny": 11,
    }
    return kernel


def save_kernel(kernel: StripKernel, base_path: str | Path) -> tuple[Path, Path]:
    """Write a kernel as <base>.tsv (columns: t, Re value) plus <base>.json.

    The imaginary parts are certified below the reality threshold and are
    dropped; the JSON header is authoritative for the grid and the norms.
    """
    base = Path(base_path)
    data_path = base.with_suffix(".tsv")
    header_path = base.with_suffix(".json")
    g = kernel.samples
    t = g.t_grid
    lines = [f"{a:.17g}\t{b:.17g}" for a, b in zip(t.tolist(), g.values.real.tolist())]
    data_path.write_text("\n".join(lines) + "\n")
    header = {
        "epsilon": kernel.strip.epsilon,
        "x_center": kernel.strip.x_center,
        "strip_half_width": kernel.strip.strip_half_width,
        "t0": kernel.t0,
        "scale": [kernel.scale.real, kernel.scale.imag],
        "reflected": kernel.reflected,
        "t0_grid": g.t0_grid,
        "step": g.step,
        "n": g.n,
        "tail_bound": g.tail_bound,
        "l1_norm": kernel.l1_norm,
        "linf_norm": kernel.linf_norm,
        "deriv_l1_norm": kernel.deriv_l1_norm,
        "deriv_linf_norm": kernel.deriv_linf_norm,
        "imag_dropped": True,
    }
    header_path.write_text(json.dumps(header, indent=1, sort_keys=True, allow_nan=False) + "\n")
    return data_path, header_path


def load_kernel(base_path: str | Path) -> StripKernel:
    """Rebuild a kernel from save_kernel output (no checks are re-run; the
    header's norms and grid are taken as authoritative)."""
    base = Path(base_path)
    header = json.loads(base.with_suffix(".json").read_text())
    rows = np.loadtxt(base.with_suffix(".tsv"), dtype=float, ndmin=2)
    n = int(header["n"])
    if rows.shape != (n, 2):
        raise ConstructionError(
            f"kernel data file has shape {rows.shape}, expected ({n}, 2)"
        )
    strip = StripFunction(
        epsilon=float(header["epsilon"]),
        x_center=float(header["x_center"]),
        strip_half_width=float(header["strip_half_width"]),
    )
    samples = SampledComplexFunction(
        t0_grid=float(header["t0_grid"]),
        step=float(header["step"]),
        values=rows[:, 1].astype(complex),
        support="full",
        tail_bound=float(header["tail_bound"]),
        meta={"loaded_from": str(base)},
    )
    deriv_vals = derivative_samples(samples)
    derivative = SampledComplexFunction(
        t0_grid=samples.t0_grid, step=samples.step, values=deriv_vals,
        support="full",
        tail_bound=2.0 * samples.tail_bound / samples.step if samples.tail_bound else 0.0,
        meta={"derived_from": "kernel samples, second-order differences"},
    )
    return StripKernel(
        strip=strip,
        samples=samples,
        derivative=derivative,
        t0=float(header["t0"]),
        scale=complex(header["scale"][0], header["scale"][1]),
        reflected=bool(header["reflected"]),
        l1_norm=float(header["l1_norm"]),
        linf_norm=float(header["linf_norm"]),
        deriv_l1_norm=float(header["deriv_l1_norm"]),
        deriv_linf_norm=float(header["deriv_linf_norm"]),
    )


def roundtrip_max_deviation(kernel: StripKernel, nx: int = 20, ny: int = 20) -> float:
    """Max |quadrature transform - closed form| over an nx-by-ny interior
    strip grid (same interior convention as the construction-time check)."""
    w = kernel.strip.strip_half_width
    xs = np.linspace(-_ROUNDTRIP_INSET * w, _ROUNDTRIP_INSET * w, nx)
    ys = np.linspace(-3.0 * w, 3.0 * w, ny)
    quad = _laplace_extrapolated(kernel.samples, xs, ys)
    closed = kernel.transform(xs[None, :] + 1j * ys[:, None])
    return float(np.max(np.abs(quad - closed)))


def reality_ratio(kernel: StripKernel) -> float:
    """max|Im h| / max|h| over the sample grid (0 after imaginary flushing)."""
    v = kernel.samples.values
    return float(np.max(np.abs(v.imag)) / np.max(np.abs(v)))
