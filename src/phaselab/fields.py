"""Fields on grids and the width-weighted transition energy.

The energy of a field u with width parameter eps is

    E(u) = sum over cells of  eps/2 |grad u|^2 + W(u)/eps,

discretized with edge-midpoint differences for the gradient term so that the
exact first variation of the discrete energy is the second-order stencil form

    grad E(u) = -eps * Lap_h(u) + W'(u)/eps,

with boundary rows eliminated (pinned to zero) on Dirichlet intervals.  All
inner products carry the grid's quadrature weights, which makes the discrete
Hessian exactly self-adjoint up to rounding.

The energy and its gradient (Newton's residual) are per-geometry kernels:
``energy_kernel(grid, eps, p)`` and ``residual_kernel(grid, eps, p)`` pick the
geometry, compute their constants and allocate their work buffers once, so a
flow or a Newton solve builds one and calls it at every step.  ``energy`` and
``gradient`` build one per call.  Every stencil is one wrapped second
difference along axis 0; the torus' second axis goes through transposed views.
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
    "energy_kernel",
    "gradient",
    "hessian_apply",
    "laplacian",
    "inner",
    "residual_kernel",
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


def _second_differences(v, out, h2):
    """((-2 v[i] + v[i+1]) + v[i-1]) / h2 along axis 0, wrapped, into ``out``.

    Every stencil is this one; a torus' second axis passes transposed views.
    """
    np.multiply(v, -2.0, out=out)
    out[:-1] += v[1:]
    out[-1] += v[0]
    out[1:] += v[:-1]
    out[0] += v[-1]
    out /= h2
    return out


def _forward_differences(v, out):
    """v[i+1] - v[i] along axis 0, wrapped, into ``out``."""
    np.subtract(v[1:], v[:-1], out=out[:-1])
    out[-1] = v[0] - v[-1]


def _laplacian_kernel(grid: Grid):
    """The stencil Laplacian of one geometry, picked once: ``lap(v, out)``
    writes Lap_h(v) into ``out`` (never ``v``) and returns it; the axes are
    summed in order, and the interval's boundary rows are zero."""
    h1sq = grid.h**2
    if grid.kind == "interval":

        def lap(v, out):
            _second_differences(v, out, h1sq)
            out[0] = out[-1] = 0.0
            return out

        return lap

    if grid.kind == "circle":
        return lambda v, out: _second_differences(v, out, h1sq)

    h2sq = grid.spacings[1] ** 2
    col = np.empty(grid.shape)

    def lap(v, out):
        _second_differences(v, out, h1sq)
        out += _second_differences(v.T, col.T, h2sq).T
        return out

    return lap


def laplacian(grid: Grid, v: np.ndarray) -> np.ndarray:
    """Second-order stencil Laplacian; zero on Dirichlet boundary rows."""
    return _laplacian_kernel(grid)(v, np.empty(grid.shape))


def energy_kernel(grid: Grid, eps: float, p: Potential):
    """``energy_of(values)``: the energy of a field on ``grid`` at width
    ``eps``, with the geometry picked and the constants computed once.

    ``values`` is a float array of the grid's shape; it is read, never
    written.  The difference buffers belong to the kernel.
    """
    h = grid.h
    if grid.kind == "interval":
        c_grad = 0.5 * eps / h
        weights = grid.weights()
        du = np.empty(grid.shape[0] - 1)
        well = np.empty(grid.shape)

        def energy_of(v):
            np.subtract(v[1:], v[:-1], out=du)
            np.multiply(weights, p.w(v), out=well)
            return c_grad * float(np.dot(du, du)) + float(well.sum()) / eps

        return energy_of

    if grid.kind == "circle":
        c_grad, c_well = 0.5 * eps / h, h / eps
        du = np.empty(grid.shape)

        def energy_of(v):
            _forward_differences(v, du)
            return c_grad * float(np.dot(du, du)) + c_well * float(p.w(v).sum())

        return energy_of

    # torus: each axis' squared differences summed over the raveled (C-order)
    # buffer, axis 0 then axis 1
    cell = math.prod(grid.spacings)
    c_rows, c_cols = (0.5 * eps * (cell / hk) / hk for hk in grid.spacings)
    c_well = cell / eps
    du = np.empty(grid.shape)
    flat = du.ravel()

    def energy_of(v):
        _forward_differences(v, du)
        rows = c_rows * float(np.dot(flat, flat))
        _forward_differences(v.T, du.T)
        cols = c_cols * float(np.dot(flat, flat))
        return (rows + cols) + c_well * float(p.w(v).sum())

    return energy_of


def residual_kernel(grid: Grid, eps: float, p: Potential):
    """``residual(values)``: the L2 gradient -eps Lap_h(u) + W'(u)/eps of the
    energy as a new array, zero on Dirichlet boundary rows; the geometry and
    the constants are picked once.

    ``values`` is read, never written, and neither is the array ``p.dw``
    returns (a callable potential may return its input).
    """
    lap = _laplacian_kernel(grid)
    work = np.empty(grid.shape)
    neg_eps = -eps
    pinned = grid.kind == "interval"

    def residual(v):
        lap(v, work)
        np.multiply(work, neg_eps, out=work)
        out = np.empty(grid.shape)
        np.divide(p.dw(v), eps, out=out)
        out += work
        if pinned:
            out[0] = out[-1] = 0.0
        return out

    return residual


def energy(f: Field, p: Potential) -> float:
    return energy_kernel(f.grid, f.epsilon, p)(f.values)


def gradient(f: Field, p: Potential) -> Field:
    """L2 gradient of the energy: -eps Lap_h(u) + W'(u)/eps."""
    return Field(f.grid, residual_kernel(f.grid, f.epsilon, p)(f.values), f.epsilon)


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
    return float((grid.weights() * a * b).sum())


def sup_norm(v: np.ndarray) -> float:
    return float(np.abs(v).max())


def truncate_to_unit(v: np.ndarray) -> np.ndarray:
    """Pointwise min(|u|, 1); never increases the energy for a valid potential."""
    return np.minimum(np.abs(v), 1.0)
