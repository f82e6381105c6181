"""Nodal-set extraction and the structural checks on zero loci.

Zero crossings are located by linear interpolation along grid edges, which is
second-order accurate and preserves sign-change bracketing.  Circle nodal
sets are sorted angle lists with crossing directions; torus nodal sets are
point clouds in the product metric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import Field
from .grids import PERIODIC_KINDS, circle_distance, circle_grid

__all__ = [
    "NodalSet",
    "CongruenceReport",
    "SymmetryReport",
    "DecayFit",
    "IndeterminateSignError",
    "extract_nodal_set",
    "hausdorff_distance",
    "check_congruent_intervals",
    "check_alternation",
    "check_rotation_symmetry",
    "cluster_fiber_angles",
    "fiber_nodal_set",
    "fit_decay",
    "nodal_distance",
]


class IndeterminateSignError(ValueError):
    """An arc midpoint value is too small to carry a reliable sign."""


@dataclass(frozen=True)
class NodalSet:
    kind: str  # matches the grid kind it came from
    angles: np.ndarray  # sorted positions along axis 0 (a torus cloud's too)
    directions: np.ndarray  # +1 rising, -1 falling, 0 touching
    lengths: tuple
    points: np.ndarray | None = None  # torus cloud, shape (N, 2)
    point_signs: np.ndarray | None = None
    point_axes: np.ndarray | None = None

    @property
    def count(self) -> int:
        return int(self.angles.size)

    @property
    def is_empty(self) -> bool:
        return self.count == 0


def _crossings(v: np.ndarray, axis: int, wrap: bool):
    """Sign changes between neighbours along one axis, in row-major order.

    Returns the index tuple of each edge's first end, the interpolation
    fraction t = a / (a - b) toward the second end, and the direction
    (+1 rising, -1 falling).  With ``wrap`` the last sample pairs with the first.
    """
    w = v.swapaxes(0, axis)
    a, b = (w, np.concatenate([w[1:], w[:1]])) if wrap else (w[:-1], w[1:])
    a, b = a.swapaxes(0, axis), b.swapaxes(0, axis)
    idx = np.nonzero(a * b < 0.0)
    a, b = a[idx], b[idx]
    return idx, a / (a - b), np.where(b > 0, 1, -1)


def extract_nodal_set(f: Field) -> NodalSet:
    """Exact grid zeros first, then interpolated crossings along each axis.

    In 1-D an exact zero's direction is the sign of (right - left), with 0
    beyond the interval ends; torus zeros carry sign 0 and axis -1.
    """
    g = f.grid
    v = f.values
    coords = [g.axis(ax) for ax in range(v.ndim)]
    zero = np.nonzero(v == 0.0)
    if v.ndim == 1:
        pad = np.pad(v, 1, mode="wrap" if g.periodic else "constant")
        zero_dirs = np.sign(pad[zero[0] + 2] - pad[zero[0]]).astype(int)
    else:
        zero_dirs = np.zeros(zero[0].size, dtype=int)
    blocks = [np.stack([c[i] for c, i in zip(coords, zero)], axis=-1)]
    dirs, axes = [zero_dirs], [np.full(zero_dirs.size, -1)]
    for axis, h in enumerate(g.spacings):
        idx, t, d = _crossings(v, axis, g.periodic)
        cols = [c[i] for c, i in zip(coords, idx)]
        cols[axis] = cols[axis] + t * h
        if g.periodic:
            cols[axis] %= g.lengths[axis]
        blocks.append(np.stack(cols, axis=-1))
        dirs.append(d)
        axes.append(np.full(d.size, axis))
    points, direction = np.concatenate(blocks), np.concatenate(dirs)
    if v.ndim == 1:
        order = np.argsort(points[:, 0])
        return NodalSet(g.kind, points[order, 0], direction[order], g.lengths)
    return NodalSet(
        g.kind,
        np.sort(points[:, 0]),
        np.zeros(points.shape[0], dtype=int),
        g.lengths,
        points=points,
        point_signs=direction,
        point_axes=np.concatenate(axes),
    )


def hausdorff_distance(a: NodalSet, b: NodalSet) -> float:
    """Symmetric Hausdorff distance; +inf when exactly one set is empty."""
    if a.kind != b.kind:
        raise ValueError(f"nodal sets live on different grid kinds: {a.kind} vs {b.kind}")
    if a.is_empty and b.is_empty:
        return 0.0
    if a.is_empty or b.is_empty:
        return float("inf")
    if a.kind == "torus":
        pa, pb = a.points, b.points
        d0 = circle_distance(pa[:, None, 0], pb[None, :, 0], a.lengths[0])
        d1 = circle_distance(pa[:, None, 1], pb[None, :, 1], a.lengths[1])
        dm = np.hypot(d0, d1)
    else:
        dm = _distance(a.angles[:, None], b.angles[None, :], a.lengths[0], a.kind in PERIODIC_KINDS)
    return float(max(dm.min(axis=1).max(), dm.min(axis=0).max()))


def _distance(a, b, length: float, periodic: bool):
    """Distance along one axis: wrap-aware on a periodic axis of that length."""
    return circle_distance(a, b, length) if periodic else np.abs(a - b)


@dataclass(frozen=True)
class CongruenceReport:
    spacings: np.ndarray
    mean_spacing: float
    max_abs_deviation: float
    max_rel_deviation: float
    tolerance: float
    passed: bool


def _circle_spacings(angles: np.ndarray, circumference: float) -> np.ndarray:
    s = np.sort(angles)
    return np.diff(np.append(s, s[0] + circumference))


def check_congruent_intervals(ns: NodalSet, rel_tol: float = 1e-5) -> CongruenceReport:
    """Compare consecutive nodal spacings on the circle against their mean."""
    if ns.kind != "circle":
        raise ValueError("congruence check needs a circle nodal set")
    if ns.count < 2:
        raise ValueError("need at least two nodal points")
    spacings = _circle_spacings(ns.angles, ns.lengths[0])
    mean = float(np.mean(spacings))
    max_abs = float(np.max(np.abs(spacings - mean)))
    max_rel = max_abs / mean
    return CongruenceReport(spacings, mean, max_abs, max_rel, rel_tol, max_rel <= rel_tol)


def _interpolate_circle(f: Field, theta: float) -> float:
    g = f.grid
    L, h = g.lengths[0], g.h
    x = (theta % L) / h
    i = int(np.floor(x)) % g.shape[0]
    t = x - np.floor(x)
    v = f.values
    return float((1.0 - t) * v[i] + t * v[(i + 1) % g.shape[0]])


def check_alternation(f: Field, ns: NodalSet) -> bool:
    """True iff the field sign alternates across consecutive nodal arcs.

    An arc whose midpoint value is below 1e-8 in size raises
    IndeterminateSignError.
    """
    if ns.is_empty:
        raise ValueError("alternation needs a nonempty nodal set")
    if f.grid.kind == "torus":
        profile = Field(
            circle_grid(f.grid.shape[0], f.grid.lengths[0]), f.values.mean(axis=1), f.epsilon
        )
        return check_alternation(profile, fiber_nodal_set(ns, f.grid.h))
    L = f.grid.lengths[0]
    angles = np.sort(ns.angles)
    spacings = _circle_spacings(angles, L)
    signs = []
    for z, s in zip(angles, spacings):
        mid = (z + 0.5 * s) % L
        val = _interpolate_circle(f, mid)
        if abs(val) < 1e-8:
            raise IndeterminateSignError(
                f"arc midpoint {mid:.6g} has |u| = {abs(val):.2e}; sign indeterminate"
            )
        signs.append(1 if val > 0 else -1)
    m = len(signs)
    return all(signs[i] != signs[(i + 1) % m] for i in range(m))


@dataclass(frozen=True)
class SymmetryReport:
    m: int
    shift_steps: int
    sign_flip_residual: float
    plain_residual: float
    tolerance: float
    passed: bool


def check_rotation_symmetry(f: Field, m: int, tol: float = 1e-7) -> SymmetryReport:
    """Residuals of the rotate-by-(L/m)-and-flip-sign symmetry.

    For an alternating m-interface solution, rotating by one nodal spacing
    flips the sign; rotating by two spacings is a plain invariance.  Requires
    the point count to be divisible by m so the rotation is a whole number of
    grid steps.
    """
    if m < 2 or m % 2 != 0:
        raise ValueError("m must be an even integer >= 2")
    n = f.grid.shape[0]
    if n % m != 0:
        raise ValueError(f"grid points ({n}) not divisible by m = {m}")
    k = n // m
    v = f.values
    flip = float(np.max(np.abs(np.roll(v, -k, axis=0) + v)))
    plain = float(np.max(np.abs(np.roll(v, -2 * k, axis=0) - v)))
    return SymmetryReport(m, k, flip, plain, tol, flip <= tol)


def fiber_nodal_set(ns: NodalSet, h: float) -> NodalSet:
    """The circle nodal set of a torus cloud's fibers: one angle per cluster
    of points with gaps under 4h (h the spacing along axis 0).  A 1-D set is
    its own fiber set and is returned as it is."""
    if ns.kind != "torus":
        return ns
    angles = cluster_fiber_angles(ns, gap_threshold=4.0 * h)
    return NodalSet("circle", angles, np.zeros(angles.size, dtype=int), (ns.lengths[0],))


def cluster_fiber_angles(ns: NodalSet, gap_threshold: float) -> np.ndarray:
    """Cluster a torus nodal cloud by fiber angle; returns cluster centers."""
    if ns.kind != "torus":
        raise ValueError("fiber clustering needs a torus nodal set")
    if ns.is_empty:
        return np.empty(0)
    L = ns.lengths[0]
    th = np.sort(ns.points[:, 0] % L)
    gaps = _circle_spacings(th, L)  # gaps[i] follows th[i], wrap-aware
    breaks = np.flatnonzero(gaps > gap_threshold)
    if breaks.size == 0:
        # single cluster wrapping the whole fiber
        ang = float(np.angle(np.mean(np.exp(2j * np.pi * th / L))))
        return np.array([(ang % (2.0 * np.pi)) * L / (2.0 * np.pi)])
    # rotate so the array starts right after a break; clusters become contiguous
    start = (breaks[0] + 1) % th.size
    ordered = np.roll(th, -start)
    ends = np.flatnonzero(np.roll(gaps, -start) > gap_threshold)
    starts = np.concatenate([[0], ends[:-1] + 1])
    centers = []
    for s, e in zip(starts, ends):
        block = ordered[s : e + 1]
        # unwrap the block around its first element before averaging
        rel = (block - block[0] + 0.5 * L) % L - 0.5 * L
        centers.append((block[0] + float(rel.mean())) % L)
    return np.sort(np.asarray(centers))


@dataclass(frozen=True)
class DecayFit:
    amplitude: float  # least-squares C in  |u^2 - 1| ~ C exp(-kappa * dist)
    kappa: float
    rms_residual: float
    n_points: int
    window: tuple
    pointwise_factor: float  # smallest multiplier making the bound hold everywhere

    @property
    def envelope_amplitude(self) -> float:
        """Smallest constant whose exponential bounds every resolvable point."""
        return self.amplitude * self.pointwise_factor

    def pointwise_bound_holds(self, slack: float) -> bool:
        return self.pointwise_factor <= 1.0 + slack


def nodal_distance(f: Field, ns: NodalSet) -> np.ndarray:
    """Distance from each point of a 1-D grid to the nearest nodal point."""
    g = f.grid
    return _distance(g.axis(0)[:, None], ns.angles[None, :], g.lengths[0], g.periodic).min(axis=1)


NOISE_FLOOR = 1e-13  # |u^2 - 1| below this is double-precision rounding junk


def fit_decay(f: Field, ns: NodalSet) -> DecayFit:
    """Least-squares exponential fit of |u^2 - 1| against nodal distance.

    The fit window excludes a 2*eps collar around the nodal set (the linear
    regime has not set in there) and the far tail within eps of the maximal
    distance.  The pointwise factor is evaluated over every grid point whose
    gap exceeds the rounding floor; beyond it |u^2 - 1| is pure floating
    noise (the true value has underflowed) and carries no decay information.
    """
    if f.values.ndim != 1:
        raise ValueError("decay fit supports 1-D fields")
    if ns.is_empty:
        raise ValueError("decay fit needs a nonempty nodal set")
    eps = f.epsilon
    d = nodal_distance(f, ns)
    dist_max = float(d.max())
    if dist_max < 5.0 * eps:
        raise ValueError(f"field never gets 5*eps away from its nodal set (max {dist_max:.3g})")
    gap = np.abs(f.values**2 - 1.0)
    window = (2.0 * eps, dist_max - eps)
    mask = (d >= window[0]) & (d <= window[1]) & (gap > 1e-15)
    if int(mask.sum()) < 10:
        raise ValueError(f"only {int(mask.sum())} points in the fit window; need 10")
    slope, intercept = np.polyfit(d[mask], np.log(gap[mask]), 1)
    kappa = -float(slope)
    amplitude = float(np.exp(intercept))
    resid = np.log(gap[mask]) - (intercept + slope * d[mask])
    rms = float(np.sqrt(np.mean(resid**2)))
    # worst-case ratio gap / (C exp(-kappa d)), computed in log space
    live = gap > NOISE_FLOOR
    log_ratio = np.log(gap[live]) + kappa * d[live] - np.log(amplitude)
    factor = float(np.exp(np.max(log_ratio)))
    return DecayFit(amplitude, kappa, rms, int(mask.sum()), window, factor)
