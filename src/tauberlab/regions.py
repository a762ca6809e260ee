"""The fixed strip |Re(lam)| < 1/M(0) of a growth function M, and its
interior grid sample."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .growth import GrowthFunction

__all__ = [
    "Region",
    "RegionGrid",
    "sample",
    "strip",
]


@dataclass(frozen=True)
class Region:
    """The strip |Re(lam)| < 1/M(0)."""

    m: GrowthFunction

    @property
    def half_width(self) -> float:
        return 1.0 / self.m.m0


@dataclass(frozen=True)
class RegionGrid:
    """Interior sample of a region: ny rows of nx points, inset half a step from the boundary."""

    region: Region
    points: np.ndarray  # complex, flattened
    y_values: np.ndarray
    nx: int
    ny: int
    y_max: float


def sample(region: Region, y_max: float, nx: int, ny: int) -> RegionGrid:
    """Uniform interior grid: ny heights in [-y_max, y_max], nx real parts per height.

    Real parts span the open interval (-half_width, half_width), inset by one
    half-step; every row has the same real parts.
    """
    if not (nx >= 1 and ny >= 1):
        raise DomainError("grid needs nx >= 1 and ny >= 1")
    if not y_max >= 0:
        raise DomainError(f"y_max must be non-negative, got {y_max}")
    ys = np.linspace(-y_max, y_max, ny) if ny > 1 else np.array([0.0])
    w = region.half_width
    step = 2.0 * w / nx
    xs = -w + step * (0.5 + np.arange(nx))
    return RegionGrid(
        region=region,
        points=(xs[None, :] + 1j * ys[:, None]).ravel(),
        y_values=ys,
        nx=nx,
        ny=ny,
        y_max=float(y_max),
    )


def strip(m: GrowthFunction) -> Region:
    return Region(m)
