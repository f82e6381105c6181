"""Double-well potentials and their axiom checker.

A valid double-well potential W is smooth, nonnegative, vanishes exactly at
x = +1 and x = -1, is even, has nondegenerate wells (W''(+-1) > 0), and
W'(x)/x is increasing on (0, 1) and decreasing on (-1, 0).  The default is
the quartic W(x) = (1 - x^2)^2 / 4.  User-supplied tables are interpolated
with a cubic spline so that Newton's method sees smooth derivatives.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "Potential",
    "AxiomCheck",
    "AxiomReport",
    "quartic",
    "from_table",
    "from_callables",
    "make_potential",
    "check_double_well",
    "interface_energy",
]


@dataclass(frozen=True)
class Potential:
    """Evaluators for W, W' and W'' plus a serializable descriptor.

    ``w``, ``dw`` and ``d2w`` are the callables the potential was built
    from, called as given: every caller passes a float64 array or a Python
    float, which the quartic's formulas and a table's spline both take.

    ``closed_form_orbits`` says that the first integral's orbits are those
    of ``phaselab.oracle``'s closed form, which only the quartic's are.
    """

    kind: str
    w: Callable[[np.ndarray], np.ndarray]
    dw: Callable[[np.ndarray], np.ndarray]
    d2w: Callable[[np.ndarray], np.ndarray]
    params: tuple = ()
    closed_form_orbits: bool = False

    def describe(self) -> dict:
        if self.kind == "table":
            return {"kind": "table", "points": [[float(a), float(b)] for a, b in self.params]}
        return {"kind": self.kind}


def quartic() -> Potential:
    """W(x) = (1 - x^2)^2 / 4; zeros at +-1 are exact in floating point."""

    def w(x):
        q = 1.0 - x * x
        return 0.25 * q * q

    def dw(x):
        # x^3 - x, written so that dw(+-1) == 0.0 exactly
        return x * (x * x - 1.0)

    def d2w(x):
        return 3.0 * x * x - 1.0

    return Potential("quartic", w, dw, d2w, closed_form_orbits=True)


def from_table(points) -> Potential:
    """Cubic-spline potential from [[x, W(x)], ...] sample pairs."""
    # imported here: scipy.interpolate (with scipy.special, scipy.optimize,
    # ...) is a quarter of the package's import time, and only tables use it
    from scipy.interpolate import CubicSpline

    pts = sorted((float(x), float(y)) for x, y in points)
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    if len(xs) < 8:
        raise ValueError("table potential needs at least 8 points")
    if np.any(np.diff(xs) <= 0):
        raise ValueError("table abscissae must be strictly increasing")
    spline = CubicSpline(xs, ys)
    d1 = spline.derivative(1)
    d2 = spline.derivative(2)
    return Potential("table", spline, d1, d2, params=tuple(pts))


def from_callables(w, dw, d2w, name: str = "callable") -> Potential:
    """Wrap explicit evaluators; used for experimental counter-potentials."""
    return Potential(name, w, dw, d2w)


def make_potential(config: dict) -> Potential:
    """Build a potential from a run-configuration descriptor, a JSON object;
    any other value, or a table without a list of points, raises ValueError."""
    if not isinstance(config, dict):
        raise ValueError(f"potential descriptor must be an object, got {config!r}")
    kind = config.get("kind")
    if kind == "quartic":
        return quartic()
    if kind == "table":
        try:
            return from_table(config["points"])
        except (KeyError, TypeError) as exc:  # no points, or not pairs of numbers
            raise ValueError(f"table potential needs a list of [x, W(x)] points ({exc!r})") from exc
    raise ValueError(f"unknown potential kind: {kind!r}")


@dataclass(frozen=True)
class AxiomCheck:
    axiom: int
    name: str
    passed: bool
    witness: float | None = None
    detail: str = ""


@dataclass(frozen=True)
class AxiomReport:
    potential: dict
    sample_count: int
    checks: tuple = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed_axioms(self) -> list[int]:
        return [c.axiom for c in self.checks if not c.passed]

    def as_dict(self) -> dict:
        d = asdict(self)
        return {**d, "passed": self.passed, "checks": list(d["checks"])}


# Tolerances for the discrete axiom checks.  The strict-inequality margin for
# the monotonicity axiom is deliberately loose against rounding but tight
# enough to reject a constant W'(x)/x.
_ZERO_TOL = 1e-12
_EVEN_TOL = 1e-10
_WELL_CURVATURE_TOL = 1e-10
_MONOTONE_TOL = 1e-10
_WELL_NEIGHBORHOOD = 1e-3


def check_double_well(p: Potential, sample_count: int = 10_000) -> AxiomReport:
    """Verify the four double-well axioms by dense sampling on [-2, 2].

    Checks, in order: (1) W >= 0 with equality only at +-1, (2) evenness,
    (3) W''(+-1) > 0, (4) W'(x)/x increasing on (0, 1) and decreasing on
    (-1, 0).  Each failed check carries a witness point.
    """
    if sample_count < 100:
        raise ValueError("sample_count must be at least 100")

    xs = np.linspace(-2.0, 2.0, sample_count)
    ws = p.w(xs)
    checks = []

    # (1) nonnegativity, wells exactly at +-1
    witness = None
    detail = ""
    ok = True
    neg = np.flatnonzero(ws < -_ZERO_TOL)
    if neg.size:
        ok, witness = False, float(xs[neg[0]])
        detail = f"W({witness:.6g}) = {float(ws[neg[0]]):.3e} < 0"
    if ok:
        for x0 in (1.0, -1.0):
            v = float(p.w(x0))
            if abs(v) > _ZERO_TOL:
                ok, witness = False, x0
                detail = f"W({x0}) = {v:.6g} != 0"
                break
    if ok:
        away = np.abs(np.abs(xs) - 1.0) > _WELL_NEIGHBORHOOD
        flat = np.flatnonzero(away & (ws <= _ZERO_TOL))
        if flat.size:
            ok, witness = False, float(xs[flat[0]])
            detail = f"W vanishes at {witness:.6g}, away from the wells"
    checks.append(AxiomCheck(1, "nonnegative, zero only at +-1", ok, witness, detail))

    # (2) evenness
    gap = np.abs(ws - p.w(-xs))
    scale = 1.0 + float(np.max(np.abs(ws)))
    i = int(np.argmax(gap))
    ok = float(gap[i]) <= _EVEN_TOL * scale
    checks.append(
        AxiomCheck(
            2,
            "even",
            ok,
            None if ok else float(xs[i]),
            "" if ok else f"|W(x) - W(-x)| = {float(gap[i]):.3e} at x = {float(xs[i]):.6g}",
        )
    )

    # (3) nondegenerate wells
    ok, witness, detail = True, None, ""
    for x0 in (-1.0, 1.0):
        c = float(p.d2w(x0))
        if c <= _WELL_CURVATURE_TOL:
            ok, witness = False, x0
            detail = f"W''({x0}) = {c:.6g} is not positive"
            break
    checks.append(AxiomCheck(3, "nondegenerate wells", ok, witness, detail))

    # (4) monotone W'(x)/x on (0, 1) and (-1, 0); behavior outside the open
    # intervals is unconstrained, so only they are sampled.
    ok, witness, detail = True, None, ""
    for lo, hi, want_increasing, label in ((0.0, 1.0, True, "(0, 1)"), (-1.0, 0.0, False, "(-1, 0)")):
        span = hi - lo
        grid = np.linspace(lo + 1e-4 * span, hi - 1e-4 * span, max(sample_count // 2, 100))
        g = p.dw(grid) / grid
        diffs = np.diff(g)
        if not want_increasing:
            diffs = -diffs
        bad = np.flatnonzero(diffs <= _MONOTONE_TOL)
        if bad.size:
            ok, witness = False, float(grid[bad[0]])
            word = "increasing" if want_increasing else "decreasing"
            detail = f"W'(x)/x not strictly {word} on {label} near x = {witness:.6g}"
            break
    checks.append(AxiomCheck(4, "monotone W'(x)/x", ok, witness, detail))

    return AxiomReport(p.describe(), sample_count, tuple(checks))


def interface_energy(p: Potential, npoints: int = 200_001) -> float:
    """Quadrature of the transition cost: integral of sqrt(2 W(u)) over [-1, 1]."""
    u = np.linspace(-1.0, 1.0, npoints)
    vals = np.sqrt(2.0 * np.maximum(p.w(u), 0.0))
    return float(np.trapezoid(vals, u))
