"""Uniform grids: Dirichlet interval, circle, and flat two-torus.  A grid says
whether its axes wrap (``periodic``) and how an axis-0 profile fills it (``extrude``)."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid",
    "interval_grid",
    "circle_grid",
    "torus_grid",
    "circle_distance",
    "ResolutionError",
    "require_resolution",
]

TWO_PI = 2.0 * np.pi
MIN_POINTS = 16
AXES = {"interval": 1, "circle": 1, "torus": 2}  # axis count of each grid kind
PERIODIC_KINDS = frozenset({"circle", "torus"})  # kinds whose every axis wraps


class ResolutionError(ValueError):
    """Grid too coarse for the requested transition width."""


@dataclass(frozen=True)
class Grid:
    """Uniform discretization of an interval, circle, or flat torus.

    ``lengths`` holds the half-length for intervals and the circumference(s)
    for periodic kinds.  The transition structure always lives along axis 0;
    that axis' spacing is the one the resolution rule constrains.

    A grid checks itself when it is made: the kind must be one of ``AXES``,
    ``shape`` and ``lengths`` (a scalar counts as one axis) must each have
    that kind's axis count, every point count a whole number (one that
    ``int()`` keeps) of at least MIN_POINTS and every length finite and
    positive.  They are stored as tuples of int and float.
    """

    kind: str  # "interval" | "circle" | "torus"
    shape: tuple[int, ...]
    lengths: tuple[float, ...]

    def __post_init__(self):
        axes = AXES.get(self.kind)
        if axes is None:
            raise ValueError(f"unknown grid kind: {self.kind!r}")
        counts = tuple(np.atleast_1d(self.shape).tolist())
        object.__setattr__(self, "shape", tuple(map(int, counts)))
        object.__setattr__(self, "lengths", tuple(map(float, np.atleast_1d(self.lengths))))
        if self.shape != counts:
            raise ValueError(f"point counts must be whole numbers, got {counts}")
        if len(self.shape) != axes or len(self.lengths) != axes:
            raise ValueError(f"a {self.kind} grid has axis count {axes}: shape {self.shape}, lengths {self.lengths}")
        for n, L in zip(self.shape, self.lengths):
            if n < MIN_POINTS:
                raise ValueError(f"need at least {MIN_POINTS} points per axis, got {n}")
            if not (0.0 < L < math.inf):
                raise ValueError(f"grid length must be finite and positive, got {L}")

    @property
    def npoints(self) -> int:
        return int(np.prod(self.shape))

    @functools.cached_property
    def spacings(self) -> tuple[float, ...]:
        if not self.periodic:
            return (2.0 * self.lengths[0] / (self.shape[0] - 1),)
        return tuple(L / n for L, n in zip(self.lengths, self.shape))

    @property
    def periodic(self) -> bool:
        """True when every axis wraps (circle, torus); an interval's does not."""
        return self.kind in PERIODIC_KINDS

    def extrude(self, profile) -> np.ndarray:
        """The axis-0 ``profile`` repeated along the remaining axes, as a new
        array of the grid's shape (a copy on 1-D grids)."""
        return np.broadcast_to(profile, self.shape[::-1]).T.copy()

    @property
    def h(self) -> float:
        """Spacing along the transition axis (axis 0)."""
        return self.spacings[0]

    def axis(self, i: int = 0) -> np.ndarray:
        if not self.periodic:
            return np.linspace(-self.lengths[0], self.lengths[0], self.shape[0])
        return self.spacings[i] * np.arange(self.shape[i])

    def weights(self) -> np.ndarray:
        """Quadrature weights, one per grid point (trapezoid on intervals).

        The same read-only array on every call.
        """
        return self._weights

    @functools.cached_property
    def _weights(self) -> np.ndarray:
        w = np.full(self.shape, math.prod(self.spacings))
        if not self.periodic:
            w[0] = w[-1] = 0.5 * self.h
        w.flags.writeable = False
        return w


def interval_grid(n: int, half_length: float) -> Grid:
    return Grid("interval", n, half_length)


def circle_grid(n: int, circumference: float = TWO_PI) -> Grid:
    return Grid("circle", n, circumference)


def torus_grid(n1: int, n2: int, circumferences=(TWO_PI, TWO_PI)) -> Grid:
    return Grid("torus", (n1, n2), circumferences)


def circle_distance(a, b, circumference: float = TWO_PI):
    """Shortest angular distance on a circle, wrap-aware."""
    d = np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)) % circumference
    out = np.minimum(d, circumference - d)
    return float(out) if np.ndim(out) == 0 else out


def require_resolution(grid: Grid, epsilon: float, points_per_eps: float) -> None:
    """Enforce the layer-resolution rule epsilon / h >= points_per_eps on axis 0
    only: a torus' fiber axis goes unchecked (the m-rigidity census runs its
    256x64 torus at eps/h2 = 1.02 at eps = 0.1, which the rule would reject)."""
    ratio = epsilon / grid.h
    if ratio < points_per_eps - 1e-9:
        raise ResolutionError(
            f"epsilon/h = {ratio:.3g} < {points_per_eps:g}: grid too coarse for "
            f"epsilon = {epsilon:g} (h = {grid.h:.3g})"
        )
