"""The log-scale optimizer behind both searches for a modulation R.

A search scans an objective at log-spaced points, then refines the coarse
minimum by Brent's method on log x.  Each search is one generator
(_refine_steps) that yields each point to evaluate and is sent its value,
and refine_log_scale is the one driver: it runs many searches side by side,
one round of steps at a time, with their values formed together.  Each
caller scans its own coarse rows.  The certificate sweep (optimize_R and
sharpness_curve) refines one closed-form bound per t, each on its own
admissible range of R, to a relative x tolerance of 1e-15; the shift model
refines one norm per tau (norms whose cost is mostly fixed per call) to
Brent's default tolerance.  A search reads only its own values, so its
path does not depend on the others.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["refine_log_scale"]

_CGOLD = 1.0 - (math.sqrt(5.0) - 1.0) / 2.0  # Brent's golden-section step fraction
# Brent's x tolerance on log x, (relative, absolute): tol = rel |x| + abs/3
_EPS = float(np.finfo(float).eps)
_BRENT_XTOL = (math.sqrt(_EPS), 1e-9)


def _refine_steps(coarse_x: np.ndarray, coarse_v: np.ndarray, iters: int,
                  xtol: tuple[float, float]):
    """One search as a generator: it yields each x to evaluate, is sent
    fn(x), and returns the best (x, value), the coarse minimum included.

    Brent's bounded minimum (Brent 1973, *Algorithms for Minimization
    without Derivatives*, ch. 5) on u = log x over [a, b], the logs of the
    coarse minimum's neighbours (the minimum itself at either end of the
    scan), started from the coarse minimum and its known value; it yields
    x = e^u.  Each step fits a parabola through the best point so far, the
    second best and the second best before it (Brent's x, w, v), and falls
    back to a golden-section step into the larger part of the bracket where
    the parabola is not trusted; an infinite value makes p or q inf or nan,
    which the acceptance test rejects (values are Python floats, so this
    raises no numpy warning).  Stops on Brent's tolerance, once the bracket
    around u has |u - (a + b)/2| <= 2 tol - (b - a)/2 with tol = rel |u| +
    abs/3 for xtol = (rel, abs), or after iters + 2 evaluations; no point
    outside the bracket is yielded."""
    i = int(np.argmin(coarse_v))
    best_x, best_v = float(coarse_x[i]), float(coarse_v[i])
    lo = coarse_x[max(i - 1, 0)]
    hi = coarse_x[min(i + 1, coarse_x.size - 1)]
    if not hi > lo:
        return best_x, best_v
    rel, atol = xtol
    a, b = math.log(lo), math.log(hi)
    x = w = v = math.log(best_x)
    fx = fw = fv = best_v
    d = e = 0.0  # the last step, and the one before it
    for _ in range(iters + 2):
        xm = 0.5 * (a + b)
        # floored at the resolution of exp(x) (near x = 0 with no absolute
        # part the tolerance would vanish and the test below never be met)
        tol1 = max(rel * abs(x) + atol / 3.0, _EPS)
        tol2 = 2.0 * tol1
        if abs(x - xm) <= tol2 - 0.5 * (b - a):
            break
        parabolic = False
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            # accept the parabola's vertex only inside the bracket and for a
            # step under half the one before last (so the steps must shrink)
            if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
                e, d = d, p / q
                u = x + d
                if u - a < tol2 or b - u < tol2:
                    d = math.copysign(tol1, xm - x)
                parabolic = True
        if not parabolic:
            e = (a if x >= xm else b) - x
            d = _CGOLD * e
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        fu = float((yield math.exp(u)))
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    if fx < best_v:
        best_x, best_v = math.exp(x), fx
    return best_x, best_v


def refine_log_scale(fn, coarse_rows, iters: int,
                     xtol: tuple[float, float] = _BRENT_XTOL) -> list[tuple[float, float]]:
    """Refine the minimum of every coarse row, a pair (coarse_x, coarse_v) of
    log-spaced x and one objective's values there, by Brent's method on log
    x (_refine_steps, x tolerance xtol).  The searches run in lockstep
    rounds: each round calls fn(xs, rows) once with the next x of every
    search still running and the indices of their rows, and fn returns
    their values in that order.  A search reads only its own values, so
    each result is bit for bit that of its row driven alone (a batch of
    one), and there are as many rounds as the most evaluations any one
    search makes.  A smooth objective needs about ten evaluations at the
    default tolerance; iters + 2 is a hard cap, and a row of one x makes
    no step.  Returns one best evaluated (x, value) per row, the coarse
    minimum included, so the value never exceeds it."""
    searches = [_refine_steps(x, v, iters, xtol) for x, v in coarse_rows]
    results: list = [None] * len(searches)
    rows = list(range(len(searches)))
    values: list = [None] * len(searches)
    while True:
        running, xs = [], []
        for j, value in zip(rows, values):
            try:
                xs.append(searches[j].send(value))
                running.append(j)
            except StopIteration as done:
                results[j] = done.value
        if not running:
            return results
        rows, values = running, fn(xs, running)
