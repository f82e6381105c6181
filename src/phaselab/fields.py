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
``energy_kernel(grid, eps, p, rows)`` and ``residual_kernel(grid, eps, p)``
compute their constants and allocate their work buffers once (but for the
torus Laplacian's fiber term), so a flow or a Newton solve builds one and
calls it at every step.  Both take stacks of fields, shape
``(k,) + grid.shape``: the energy kernel up to ``rows`` fields, so a flow
checks a block of its states in one call, with one matmul per gradient axis
for all the states' squared-difference sums; the residual kernel any
number, each row the bits of its field's own residual, so Newton evaluates
a batch of backtracking trials in one call.  ``energy`` and
``gradient`` build one per call; ``laplacian`` reuses one stencil kernel per
grid.  The Hessian action -eps Lap_h(phi) + W''(u)/eps phi is one kernel
too, ``hessian_kernel(grid, eps, p, u)``: ``hessian_apply`` is one call of
it, and the torus Newton solve's MINRES operator applies it at every Krylov
iteration, each application one ``laplacian`` call.  The
kernels know two geometries: a periodic grid (``Grid.periodic``), whose
one-axis case is the circle, and the Dirichlet interval.  Every stencil is
one wrapped difference along a field's axis 0 (axis 1 of a stack); the
torus fiber axis is the last axis, stenciled on the raveled array.  The
energy's sums run in C order, field by field, so neither a field's memory
layout nor the stack it sits in changes a bit of it.
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
    "hessian_kernel",
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


def _second_differences(v, out, h2, axis=0):
    """((-2 v[i] + v[i+1]) + v[i-1]) / h2 along ``axis``, wrapped, into ``out``.

    A field's axis 0 is ``axis`` 0; under k leading stack axes it is
    ``axis`` k, stenciled on the views of ``v`` and ``out`` that put it first.

    The torus fiber axis is the last axis, stenciled on the raveled array
    by ``_second_differences_last`` with the same per-element order.
    """
    if axis:
        v, out = v.swapaxes(0, axis), out.swapaxes(0, axis)
    np.multiply(v, -2.0, out=out)
    out[:-1] += v[1:]
    out[-1] += v[0]
    out[1:] += v[:-1]
    out[0] += v[-1]
    out /= h2


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


def _squared_norms(d):
    """Each row's dot product with itself, a ``(k,)`` array, by one stacked
    matmul of the rows; for a vector times a vector matmul calls the BLAS
    ddot that np.dot calls on each row, so every sum keeps its bits."""
    return np.matmul(d[:, None, :], d[:, :, None]).reshape(len(d))


def _forward_differences(v, out):
    """v[:, i+1] - v[:, i] along axis 1 of a stack of fields (each field's
    axis 0), wrapped, into ``out``."""
    np.subtract(v[:, 1:], v[:, :-1], out=out[:, :-1])
    out[:, -1] = v[:, 0] - v[:, -1]


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
    in order.  ``v`` is a field or a stack of fields, shape
    ``(k,) + grid.shape``, and ``out`` C-contiguous.  An interval's boundary
    rows hold the wrapped stencil, which its callers overwrite with zeros.

    The kernel holds no grid-sized buffer between calls; the fiber term's
    work array is allocated per call.  A held buffer keeps glibc from
    trimming the heap, which cut construct's page faults but sped up
    perfbench's reference kernel more, so its scaled wall_s read about 7%
    slower (2-vCPU Xeon).
    """
    hsq = [hk**2 for hk in grid.spacings]
    ndim = len(grid.shape)
    fiber = ndim == 2

    def lap(v, out):
        _second_differences(v, out, hsq[0], v.ndim - ndim)
        if fiber:
            out += _second_differences_last(v, np.empty(v.shape), hsq[1])
        return out

    return lap


_shared_laplacian_kernel = functools.lru_cache(maxsize=8)(_laplacian_kernel)


def laplacian(grid: Grid, v: np.ndarray) -> np.ndarray:
    """Second-order stencil Laplacian, as a new array; zero on Dirichlet
    boundary rows.  Calls on one grid share one kernel."""
    out = _shared_laplacian_kernel(grid)(v, np.empty(grid.shape))
    if not grid.periodic:
        out[0] = out[-1] = 0.0
    return out


def energy_kernel(grid: Grid, eps: float, p: Potential, rows: int = 1):
    """``energy_of(stack)``: the energies of a stack of fields on ``grid`` at
    width ``eps``, as a list of floats, with the geometry picked and the
    constants computed once.

    ``stack`` is a float array of shape ``(k,) + grid.shape`` with
    ``k <= rows``; a single field is the 1-stack ``values[None]``.  It is
    read, never written.  ``p.w`` is called once per stack; each field's
    energy is its own sums, so it does not depend on the stack it sits in
    or on its layout: the dot product of each axis' differences with
    themselves, taken for the whole stack by one matmul per axis
    (``_squared_norms``), and the well term summed by np.add.reduce over
    the field's C-order ravel (what ndarray.sum runs on the field, without
    its Python wrapper).  The sums combine as arrays, in the order a scalar
    expression would, and come back as Python floats.  The difference
    buffers, of ``rows`` fields, belong to the kernel.
    """
    reduce = np.add.reduce
    if not grid.periodic:
        c_grad = 0.5 * eps / grid.h
        weights = grid.weights()
        du = np.empty((rows, grid.shape[0] - 1))
        well = np.empty((rows,) + grid.shape)

        def energy_of(vs):
            k = len(vs)
            d = du[:k]
            np.subtract(vs[:, 1:], vs[:, :-1], out=d)
            sums = reduce(np.multiply(weights, p.w(vs), out=well[:k]), axis=1)
            return (c_grad * _squared_norms(d) + sums / eps).tolist()

        return energy_of

    # periodic: each axis' squared differences summed over the field's
    # raveled (C-order) buffer, axis 0 first; a circle is the one-axis case
    cell = math.prod(grid.spacings)
    c_axes = [0.5 * eps * (cell / hk) / hk for hk in grid.spacings]
    c_well = cell / eps
    du = np.empty((rows,) + grid.shape)
    fiber = len(grid.shape) == 2

    def energy_of(vs):
        k = len(vs)
        d = du[:k]
        flat = d.reshape(k, -1)
        _forward_differences(vs, d)
        grads = c_axes[0] * _squared_norms(flat)
        if fiber:
            _forward_differences_last(vs, d)
            grads += c_axes[1] * _squared_norms(flat)
        # each field's C-order ravel as a contiguous row, summed pairwise as
        # ndarray.sum sums the field; on a stack in another order reduce
        # would run down its columns and sum each field sequentially
        sums = reduce(np.ascontiguousarray(p.w(vs)).reshape(k, -1), axis=1)
        return (grads + c_well * sums).tolist()

    return energy_of


def residual_kernel(grid: Grid, eps: float, p: Potential):
    """``residual(values)``: the L2 gradient -eps Lap_h(u) + W'(u)/eps of the
    energy as a new array, zero on Dirichlet boundary rows; the geometry and
    the constants are picked once.

    ``values`` is a field, or a stack of fields of shape ``(k,) + grid.shape``
    whose residuals come back as a stack, each row bit for bit the residual
    of its field alone (every operation is elementwise, and ``p.dw`` is
    called once per stack).  It is read, never written, and neither is the
    array ``p.dw`` returns (a callable potential may return its input).  A
    single field's work array belongs to the kernel; a stack's is allocated
    per call.
    """
    lap = _laplacian_kernel(grid)
    work = np.empty(grid.shape)
    ndim = work.ndim
    neg_eps = -eps
    pinned = not grid.periodic

    def residual(v):
        w = work if v.ndim == ndim else np.empty(v.shape)
        lap(v, w)
        np.multiply(w, neg_eps, out=w)
        out = np.empty(v.shape)
        np.divide(p.dw(v), eps, out=out)
        out += w
        if pinned:
            out[..., 0] = out[..., -1] = 0.0
        return out

    return residual


def energy(f: Field, p: Potential) -> float:
    return energy_kernel(f.grid, f.epsilon, p)(f.values[None])[0]


def gradient(f: Field, p: Potential) -> Field:
    """L2 gradient of the energy: -eps Lap_h(u) + W'(u)/eps."""
    return Field(f.grid, residual_kernel(f.grid, f.epsilon, p)(f.values), f.epsilon)


def hessian_kernel(grid: Grid, eps: float, p: Potential, u: np.ndarray):
    """``apply(phi)``: the energy Hessian at ``u`` applied to a direction,
    -eps Lap_h(phi) + W''(u)/eps phi, as a new array of the grid's shape.

    ``W''(u)/eps`` is computed once, and the kernel owns one work buffer.
    On an interval the direction's pinned ends count as zero, which makes
    the pinned rows zero as well.  ``laplacian`` is looked up at each call,
    so a tracer wrapping it counts every application (every Krylov
    iteration of the torus Newton solve).
    """
    d2 = p.d2w(u) / eps
    work = np.empty(grid.shape)

    def apply(phi):
        if not grid.periodic:
            work[:] = phi
            work[0] = work[-1] = 0.0
            phi = work
        out = laplacian(grid, phi)
        np.multiply(out, -eps, out=out)
        out += np.multiply(d2, phi, out=work)
        return out

    return apply


def hessian_apply(f: Field, direction: Field, p: Potential) -> Field:
    """Action of the energy Hessian at f on a direction field."""
    if direction.grid != f.grid:
        raise ValueError("direction lives on a different grid")
    return Field(f.grid, hessian_kernel(f.grid, f.epsilon, p, f.values)(direction.values), f.epsilon)


def inner(grid: Grid, a: np.ndarray, b: np.ndarray) -> float:
    """Quadrature-weighted inner product."""
    return float((grid.weights() * a * b).sum())


def sup_norm(v: np.ndarray) -> float:
    """max |v|: the reduction ndarray.max runs, without its Python wrapper."""
    return float(np.maximum.reduce(np.abs(v), axis=None))


def truncate_to_unit(v: np.ndarray) -> np.ndarray:
    """Pointwise min(|u|, 1); never increases the energy for a valid potential."""
    return np.minimum(np.abs(v), 1.0)
