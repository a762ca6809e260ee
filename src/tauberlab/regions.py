"""Interior grid sample of the strip |Re(lam)| < half_width; a growth
function M gives the strip half_width = 1/M(0)."""

from __future__ import annotations

import numpy as np

from .errors import DomainError

__all__ = ["sample"]


def sample(half_width: float, y_max: float, nx: int, ny: int) -> np.ndarray:
    """Uniform interior grid as a flat complex array: ny rows of heights in
    [-y_max, y_max], nx real parts per row.

    Real parts span the open interval (-half_width, half_width), inset by one
    half-step; every row has the same real parts.
    """
    if not (nx >= 1 and ny >= 1):
        raise DomainError("grid needs nx >= 1 and ny >= 1")
    if not y_max >= 0:
        raise DomainError(f"y_max must be non-negative, got {y_max}")
    ys = np.linspace(-y_max, y_max, ny) if ny > 1 else np.array([0.0])
    step = 2.0 * half_width / nx
    xs = -half_width + step * (0.5 + np.arange(nx))
    return (xs[None, :] + 1j * ys[:, None]).ravel()
