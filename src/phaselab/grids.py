"""Uniform grids: Dirichlet interval, circle, and flat two-torus."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid",
    "make_grid",
    "interval_grid",
    "circle_grid",
    "torus_grid",
    "circle_distance",
    "ResolutionError",
    "require_resolution",
]

TWO_PI = 2.0 * np.pi
MIN_POINTS = 16


class ResolutionError(ValueError):
    """Grid too coarse for the requested transition width."""


@dataclass(frozen=True)
class Grid:
    """Uniform discretization of an interval, circle, or flat torus.

    ``lengths`` holds the half-length for intervals and the circumference(s)
    for periodic kinds.  The transition structure always lives along axis 0;
    that axis' spacing is the one the resolution rule constrains.
    """

    kind: str  # "interval" | "circle" | "torus"
    shape: tuple[int, ...]
    lengths: tuple[float, ...]

    @property
    def npoints(self) -> int:
        return int(np.prod(self.shape))

    @functools.cached_property
    def spacings(self) -> tuple[float, ...]:
        if self.kind == "interval":
            return (2.0 * self.lengths[0] / (self.shape[0] - 1),)
        return tuple(L / n for L, n in zip(self.lengths, self.shape))

    @property
    def h(self) -> float:
        """Spacing along the transition axis (axis 0)."""
        return self.spacings[0]

    def axis(self, i: int = 0) -> np.ndarray:
        if self.kind == "interval":
            ell = self.lengths[0]
            return np.linspace(-ell, ell, self.shape[0])
        n = self.shape[i]
        return (self.lengths[i] / n) * np.arange(n)

    def weights(self) -> np.ndarray:
        """Quadrature weights, one per grid point (trapezoid on intervals).

        The same read-only array on every call.
        """
        return self._weights

    @functools.cached_property
    def _weights(self) -> np.ndarray:
        if self.kind == "interval":
            w = np.full(self.shape[0], self.h)
            w[0] = w[-1] = 0.5 * self.h
        else:
            w = np.full(self.shape, math.prod(self.spacings))
        w.flags.writeable = False
        return w


def interval_grid(n: int, half_length: float) -> Grid:
    _validate(n, half_length)
    return Grid("interval", (int(n),), (float(half_length),))


def circle_grid(n: int, circumference: float = TWO_PI) -> Grid:
    _validate(n, circumference)
    return Grid("circle", (int(n),), (float(circumference),))


def torus_grid(n1: int, n2: int, circumferences=(TWO_PI, TWO_PI)) -> Grid:
    L1, L2 = circumferences
    _validate(n1, L1)
    _validate(n2, L2)
    return Grid("torus", (int(n1), int(n2)), (float(L1), float(L2)))


def make_grid(kind: str, n, lengths) -> Grid:
    if kind == "interval":
        return interval_grid(n, lengths if np.isscalar(lengths) else lengths[0])
    if kind == "circle":
        return circle_grid(n, lengths if np.isscalar(lengths) else lengths[0])
    if kind == "torus":
        n1, n2 = n
        return torus_grid(n1, n2, tuple(lengths))
    raise ValueError(f"unknown grid kind: {kind!r}")


def _validate(n, length) -> None:
    if int(n) < MIN_POINTS:
        raise ValueError(f"need at least {MIN_POINTS} points per axis, got {n}")
    if not (float(length) > 0.0):
        raise ValueError(f"grid length must be positive, got {length}")


def circle_distance(a, b, circumference: float = TWO_PI):
    """Shortest angular distance on a circle, wrap-aware."""
    d = np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)) % circumference
    out = np.minimum(d, circumference - d)
    return float(out) if np.ndim(out) == 0 else out


def require_resolution(grid: Grid, epsilon: float, points_per_eps: float = 8.0) -> None:
    """Enforce the layer-resolution rule epsilon / h >= points_per_eps on axis 0
    only: a torus' fiber axis goes unchecked (the m-rigidity census runs its
    256x64 torus at eps/h2 = 1.02 at eps = 0.1, which the rule would reject)."""
    ratio = epsilon / grid.h
    if ratio < points_per_eps - 1e-9:
        raise ResolutionError(
            f"epsilon/h = {ratio:.3g} < {points_per_eps:g}: grid too coarse for "
            f"epsilon = {epsilon:g} (h = {grid.h:.3g})"
        )
