"""Fields on grids and the width-weighted transition energy.

The energy of a field u with width parameter eps is

    E(u) = sum over cells of  eps/2 |grad u|^2 + W(u)/eps,

discretized with edge-midpoint differences for the gradient term so that the
exact first variation of the discrete energy is the second-order stencil form

    grad E(u) = -eps * Lap_h(u) + W'(u)/eps,

with boundary rows eliminated (pinned to zero) on Dirichlet intervals.  All
inner products carry the grid's quadrature weights, which makes the discrete
Hessian exactly self-adjoint up to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import Grid
from .potentials import Potential

__all__ = [
    "Field",
    "energy",
    "gradient",
    "hessian_apply",
    "laplacian",
    "inner",
    "sup_norm",
    "truncate_to_unit",
]


@dataclass(frozen=True)
class Field:
    """Real-valued samples on a grid, solved at (or evaluated with) width epsilon."""

    grid: Grid
    values: np.ndarray
    epsilon: float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.shape:
            raise ValueError(f"values shape {v.shape} != grid shape {self.grid.shape}")
        if not (self.epsilon > 0.0):
            raise ValueError("epsilon must be positive")
        object.__setattr__(self, "values", v)

    def with_values(self, values) -> "Field":
        return Field(self.grid, np.asarray(values, dtype=float), self.epsilon)

    def copy(self) -> "Field":
        return Field(self.grid, self.values.copy(), self.epsilon)


def laplacian(grid: Grid, v: np.ndarray) -> np.ndarray:
    """Second-order stencil Laplacian; zero on Dirichlet boundary rows."""
    if grid.kind == "interval":
        h2 = grid.h ** 2
        out = np.zeros_like(v)
        out[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h2
        return out
    # periodic: (v[i+1] - 2 v[i]) + v[i-1] along each wrapped axis, axes summed in order
    out = None
    for axis, h in enumerate(grid.spacings):
        w = v.swapaxes(0, axis)
        d = -2.0 * w
        d[:-1] += w[1:]
        d[-1] += w[0]
        d[1:] += w[:-1]
        d[0] += w[-1]
        d /= h ** 2
        d = d.swapaxes(0, axis)
        if out is None:
            out = d
        else:
            out += d
    return out


def energy(f: Field, p: Potential) -> float:
    v, eps = f.values, f.epsilon
    g = f.grid
    if g.kind == "interval":
        du = v[1:] - v[:-1]
        grad_term = 0.5 * eps / g.h * float(np.dot(du, du))
        well_term = float(np.sum(g.weights() * p.w(v))) / eps
        return grad_term + well_term
    # periodic: forward differences along each wrapped axis
    cell = math.prod(g.spacings)
    grad_term = 0.0
    for axis, h in enumerate(g.spacings):
        du = np.empty_like(v)
        w, d = v.swapaxes(0, axis), du.swapaxes(0, axis)
        np.subtract(w[1:], w[:-1], out=d[:-1])
        d[-1] = w[0] - w[-1]
        du = du.ravel()
        grad_term += 0.5 * eps * (cell / h) / h * float(np.dot(du, du))
    well_term = cell / eps * float(np.sum(p.w(v)))
    return grad_term + well_term


def gradient(f: Field, p: Potential) -> Field:
    """L2 gradient of the energy: -eps Lap_h(u) + W'(u)/eps."""
    v, eps = f.values, f.epsilon
    out = -eps * laplacian(f.grid, v) + p.dw(v) / eps
    if f.grid.kind == "interval":
        out[0] = out[-1] = 0.0
    return Field(f.grid, out, eps)


def hessian_apply(f: Field, direction: Field, p: Potential) -> Field:
    """Action of the energy Hessian at f on a direction field."""
    if direction.grid != f.grid:
        raise ValueError("direction lives on a different grid")
    eps = f.epsilon
    phi = direction.values
    if f.grid.kind == "interval":
        phi = phi.copy()
        phi[0] = phi[-1] = 0.0
    out = -eps * laplacian(f.grid, phi) + p.d2w(f.values) / eps * phi
    if f.grid.kind == "interval":
        out[0] = out[-1] = 0.0
    return Field(f.grid, out, eps)


def inner(grid: Grid, a: np.ndarray, b: np.ndarray) -> float:
    """Quadrature-weighted inner product."""
    return float(np.sum(grid.weights() * a * b))


def sup_norm(v: np.ndarray) -> float:
    return float(np.max(np.abs(v)))


def truncate_to_unit(v: np.ndarray) -> np.ndarray:
    """Pointwise min(|u|, 1); never increases the energy for a valid potential."""
    return np.minimum(np.abs(v), 1.0)
