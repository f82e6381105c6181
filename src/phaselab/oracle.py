"""First-integral oracle for the quartic and the arc pressures of a circle field.

Between two zeros a 1-D critical point is an orbit of the first integral
``eps^2 u'^2 / 2 = W(u) - W(a)``, a its peak.  For the quartic
W = (1 - u^2)^2 / 4 the zero-to-zero arc is

    d(a) = 2 sqrt(2) eps K(m) / sqrt(2 - a^2),   m = a^2 / (2 - a^2),

and the arc's pressure is ``P = W(a) / eps``.  Everything here works in
``q = 1 - a^2``, so nothing cancels as a -> 1: ``W(a) = q^2 / 4`` and, with
K from the arithmetic-geometric mean and AGM's homogeneity,

    d = 2 pi eps / (RATE * AGM(sqrt(1 + q), sqrt(2 q))),

RATE = sqrt(W''(1)) = sqrt(2).  d falls from infinity (q -> 0) to pi eps
(a -> 0), below which no arc carries a nonzero orbit; ``peak`` reads such
an arc as a = 0.  scipy.special is not imported: it is kept out of
``import phaselab``.

On a flowed circle field each arc between consecutive nodal points has a
measured pressure ``P_k = W(a_k) / eps``, a_k its interpolated peak, and an
oracle pressure ``P(d_k)`` of its length.  On the slow manifold every arc
sits on the orbit of its own length, so the two agree to a small fraction
of the pressure spread across the arcs (Carr & Pego, CPAM 42, 1989).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import Field
from .nodal import NodalSet

__all__ = ["ArcPressures", "arc_length", "peak", "pressure", "arc_lengths", "arc_pressures"]

RATE = math.sqrt(2.0)  # sqrt(W''(1)) of the quartic: eps times the orbits' decay rate
MAX_SECANT = 60  # secant steps of the inverse; it converges in under 10


def _arc(q: float, eps: float) -> float:
    """d of the orbit with ``q = 1 - a^2`` in (0, 1], by the AGM."""
    x, y = math.sqrt(1.0 + q), math.sqrt(2.0 * q)
    while abs(x - y) > 1e-15 * x:
        x, y = 0.5 * (x + y), math.sqrt(x * y)
    return 2.0 * math.pi * eps / (RATE * 0.5 * (x + y))


def _peak_q(d: float, eps: float) -> float:
    """``q = 1 - a^2`` of the orbit whose arc is d, 1 (a = 0) where
    ``d <= pi eps``: secant steps in log q on log d from the large-arc
    asymptote ``q = 8 exp(-RATE d / (2 eps))``, until a step is below
    1e-12 (the next one would be far below rounding)."""
    target = math.log(d)
    s0 = min(math.log(8.0) - RATE * d / (2.0 * eps), 0.0)
    s1 = s0 - 1e-3
    f0 = math.log(_arc(math.exp(s0), eps)) - target
    for _ in range(MAX_SECANT):
        f1 = math.log(_arc(math.exp(s1), eps)) - target
        step = f1 * (s1 - s0) / (f1 - f0) if f1 != f0 else 0.0
        s0, f0, s1 = s1, f1, min(s1 - step, 0.0)
        if abs(s1 - s0) <= 1e-12 * max(1.0, -s1):
            break
    return math.exp(s1)


def arc_length(a: float, eps: float) -> float:
    """The zero-to-zero arc d(a) of the orbit with peak a in [0, 1)."""
    if not 0.0 <= a < 1.0:
        raise ValueError(f"an orbit's peak must lie in [0, 1), got {a!r}")
    return _arc((1.0 - a) * (1.0 + a), eps)


def peak(d: float, eps: float) -> float:
    """The inverse a(d) of ``arc_length``; 0 where ``d <= pi eps``."""
    return math.sqrt(1.0 - _peak_q(d, eps))


def pressure(d: float, eps: float) -> float:
    """The oracle pressure ``P(d) = W(a(d)) / eps`` of an arc of length d."""
    q = _peak_q(d, eps)
    return 0.25 * q * q / eps


def arc_lengths(nodal_set: NodalSet) -> np.ndarray:
    """The arcs of a circle nodal set: from ``angles[k]`` to the next angle,
    the last one around the circle to ``angles[0]``."""
    angles = nodal_set.angles
    return np.diff(angles, append=angles[0] + nodal_set.lengths[0])


@dataclass(frozen=True)
class ArcPressures:
    """Per arc k, from the k-th nodal point to the next: ``lengths`` d_k,
    ``peaks`` a_k, measured ``pressures`` P_k and ``oracle`` P(d_k); then
    ``pressure_spread`` max P_k - min P_k and ``oracle_gap`` max |P_k - P(d_k)|."""

    lengths: np.ndarray
    peaks: np.ndarray
    pressures: np.ndarray
    oracle: np.ndarray
    pressure_spread: float
    oracle_gap: float


def arc_pressures(field: Field, nodal_set: NodalSet) -> ArcPressures:
    """Read the arc pressures of a circle field off its nodal set.

    The arcs are ``arc_lengths(nodal_set)``.  Arc k's peak a_k is the
    vertex of the parabola through the largest |u| sample inside the arc
    and its two neighbours.  A field that is not on a circle, a nodal set
    with no point, or an arc that holds no grid point raises ValueError.
    """
    grid = field.grid
    if field.values.ndim != 1 or not grid.periodic or nodal_set.is_empty:
        raise ValueError("arc pressures are read on a circle field with a nodal point")
    eps, u, n = field.epsilon, field.values, grid.shape[0]
    angles, lengths = nodal_set.angles, arc_lengths(nodal_set)
    # first sample index of each arc, rolled so that the last arc is contiguous
    first = np.searchsorted(grid.axis(0), angles)
    bounds = np.append(first - first[0], n)
    mag = np.abs(np.roll(u, -first[0]))
    tops = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi <= lo:
            raise ValueError(f"an arc of length {lengths[len(tops)]:.3g} holds no grid point")
        tops.append(lo + int(np.argmax(mag[lo:hi])))
    i = (np.array(tops) + first[0]) % n
    um, u0, up = u[i - 1], u[i], u[(i + 1) % n]
    curv = up - 2.0 * u0 + um
    lift = np.divide((up - um) ** 2, 8.0 * curv, out=np.zeros_like(curv), where=curv != 0.0)
    peaks = np.abs(u0 - lift)
    q = (1.0 - peaks) * (1.0 + peaks)
    measured = 0.25 * q * q / eps
    oracle = np.array([pressure(d, eps) for d in lengths.tolist()])
    return ArcPressures(
        lengths,
        peaks,
        measured,
        oracle,
        float(measured.max() - measured.min()),
        float(np.max(np.abs(measured - oracle))),
    )
