"""Critical-point construction: Dirichlet minimizers, gradient flow, Newton.

The flow is semi-implicit: the linear stiffness is treated implicitly, the
well force explicitly,

    (I + dt/eps * (-eps^2 Lap_h)) u_new = u - dt/eps * W'(u),

so every step is one prefactored tridiagonal solve (interval: LAPACK
dgttrf/dgttrs; circle: below) or one FFT-diagonalized solve (torus), each
set up once per flow and step size, and the monitored energy is
non-increasing for the default step dt = eps * h; a non-finite energy stops
the flow with a SolverError.  No flow adapts its step: it halves on an
energy rise only.  The interval model solve passes dt = 0.5 eps / max|W''|
as flow_dt, up to which the energy stays stable (Shen & Yang, DCDS-A 28,
2010).  The circle step splits A = I + cc (-Lap), cc = dt eps / h^2, by
Sherman-Morrison as the cyclic Jacobian solve does: A without its periodic
corners, shifted by g = -(1 + 2 cc) at its ends, is SPD, so LAPACK dpttrf
factors it once and a step is one dpttrs solve and one daxpy of the
precomputed correction (dpttrs: about 8 ns per point against 16 for
dgttrs, whose division sits on the back substitution's dependency chain;
a step costs about a third of the SuperLU solve it replaced and under half
of an FFT step, ROADMAP F9).  A flow builds one
fields.energy_kernel and forms each right-hand side in a buffer it owns; a
Newton solve and a model solve each build one fields.residual_kernel.
Newton solves -eps Lap_h(u) + W'(u)/eps = 0 with residual-max-norm
backtracking; the constants MAX_NEWTON and MAX_FLOW_STEPS cap its iterations
and a model solve's flow steps.  Its Jacobian -eps Lap_h + W''(u)/eps is
solved by LAPACK dgtsv, called directly, on the interval; on the circle by
one dgtsv solve (the tridiagonal part, two right-hand sides, in a work array
the solver owns) and a Sherman-Morrison correction for the two periodic
corner entries, its scalars in Python floats; on the torus
by MINRES preconditioned with the FFT inverse of the constant-coefficient
operator, whose nonzero info (no convergence) raises SingularJacobianError.
The torus flow step and that preconditioner are each one _fft_solver: the
1-D transforms of rfft2/irfft2, in their order, through a spectrum buffer
the solve owns, with the division by the real symbol done as a multiply by
its reciprocals with imaginary part -0.0.  Short of an underflow, that
multiply keeps every bit of numpy's complex division, zero signs included:
for a real d, Smith's formula (CACM 5, 1962) reduces to
((re + im*0) * (1/d), (im - re*0) * (1/d)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg  # unused here; perfbench's tracer wraps solvers.scipy.linalg
import scipy.sparse.linalg as spla
from scipy.linalg.blas import daxpy
from scipy.linalg.lapack import dgtsv, dgttrf, dgttrs, dpttrf, dpttrs

from .fields import (  # energy, gradient, laplacian: perfbench's tracer wraps these names
    Field,
    energy,
    energy_kernel,
    gradient,
    laplacian,
    residual_kernel,
    sup_norm,
)
from .grids import Grid, circle_grid, interval_grid, require_resolution
from .potentials import Potential

__all__ = [
    "SolveConfig",
    "StopRule",
    "FlowTrace",
    "NewtonResult",
    "ModelSolution",
    "SolverError",
    "NewtonDivergenceError",
    "SingularJacobianError",
    "StepCollapseError",
    "solve_dirichlet_model",
    "existence_threshold",
    "reflect_extend",
    "newton_refine",
    "gradient_flow",
    "multi_interface_seed",
]

ENERGY_SLACK = 1e-8
TRIVIAL_MARGIN = 1e-8
DAMPING = 0.5  # backtracking factor of Newton's fallback line search
MAX_STEP = 0.15  # sup-norm cap per Newton step in the capped watchdog walk, direction kept
MAX_NEWTON = 50  # Newton iterations per solve
MAX_FLOW_STEPS = 100_000  # flow steps per model solve, and per flow without StopRule.max_steps


class SolverError(RuntimeError):
    pass


class NewtonDivergenceError(SolverError):
    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = list(residuals or [])


class SingularJacobianError(SolverError):
    pass


class StepCollapseError(SolverError):
    pass


@dataclass
class SolveConfig:
    """Settable solver values; the iteration caps are MAX_NEWTON and MAX_FLOW_STEPS."""
    tol_grad: float = 1e-10
    flow_dt: float | None = None  # default eps * h; the model solve passes its stability step
    min_points_per_eps: float = 8.0

    def validate(self) -> None:
        if self.tol_grad < 1e-13:
            raise ValueError("tol_grad must be at least 1e-13")
        if self.min_points_per_eps <= 0:
            raise ValueError("min_points_per_eps must be positive")
        if self.flow_dt is not None and self.flow_dt <= 0:
            raise ValueError("flow_dt must be positive")


@dataclass
class StopRule:
    """Flow length (MAX_FLOW_STEPS when unset) and nodal sampling; the step is cfg.flow_dt."""
    max_steps: int | None = None
    sample_every: int = 50
    track_nodal: bool = False


@dataclass
class FlowTrace:
    field: Field
    energies: np.ndarray
    steps: int
    angle_samples: list
    dt_final: float


@dataclass
class NewtonResult:
    field: Field
    residuals: list
    iterations: int
    converged: bool

    @property
    def sign_free(self) -> bool:
        """True when the refined field is the signless zero solution."""
        return sup_norm(self.field.values) < 1e-6


@dataclass
class ModelSolution:
    field: Field
    status: str  # "positive" | "trivial_zero"
    half_length: float
    energy_gap: float  # E(0) - E(u), positive for genuine transitions
    diagnostics: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# linear solves


def _torus_symbol(grid: Grid) -> np.ndarray:
    """Eigenvalues of -Lap_h on a torus grid, in rfft2 layout."""
    (n1, n2), (h1, h2) = grid.shape, grid.spacings
    lam1 = (2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(n1) / n1)) / h1**2
    lam2 = (2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(n2 // 2 + 1) / n2)) / h2**2
    return lam1[:, None] + lam2[None, :]


def _fft_solver(grid: Grid, denom: np.ndarray):
    """``solve(x)``: irfft2(rfft2(x) / denom, s=grid.shape) on a torus grid,
    as a new real array; ``denom`` is positive and finite.

    The same 1-D transforms, in the same order, as rfft2 and irfft2, without
    their per-call n-d set-up: they run in place in one spectrum buffer of
    the rfft layout that the solve owns.  The division is a multiply by the
    reciprocals ``1/denom`` with imaginary part -0.0, built once.  numpy
    divides a complex by a real d by Smith's formula with a zero imaginary
    part, ((re + im*0) * (1/d), (im - re*0) * (1/d)); the multiply computes
    (re * (1/d) + im*0, im * (1/d) + re*(-0.0)), the same bits, signs of
    zero included, unless a product underflows (a spectrum entry below
    d * 2**-1074), up to NaN payloads.  A multiply of the real floats alone
    would drop the zero terms, whose signs reach the result of a field of
    -0.0.
    """
    n2 = grid.shape[1]
    spec = np.empty(denom.shape, dtype=complex)
    recip = np.empty(denom.shape, dtype=complex)
    recip.real, recip.imag = 1.0 / denom, -0.0

    def solve(x):
        np.fft.rfft(x, axis=1, out=spec)
        np.fft.fft(spec, axis=0, out=spec)
        np.multiply(spec, recip, out=spec)
        np.fft.ifft(spec, axis=0, out=spec)
        return np.fft.irfft(spec, n=n2, axis=1)

    return solve


def _make_flow_solver(grid: Grid, eps: float, dt: float):
    """Prefactored implicit solve of (I + dt*eps*(-Lap_h)) u = rhs, as
    ``step(v, rhs)``, into a new array; on the interval ``v`` supplies the
    end values and the interior of ``rhs`` is overwritten, elsewhere both
    are left as they are."""
    c = dt * eps
    if grid.kind == "interval":
        # interior rows only; without pivoting (the operator is strictly
        # diagonally dominant) dgttrf + dgttrs do the same floating-point
        # operations as the dgtsv behind solve_banded((1, 1), ...)
        m = grid.shape[0] - 2
        cc = c / grid.h**2
        off = np.full(m - 1, -cc)
        *tri, info = dgttrf(off, np.full(m, 1.0 + 2.0 * cc), off)
        if info != 0:
            raise np.linalg.LinAlgError(f"dgttrf failed with info={info}")

        def step(v, rhs):
            r = rhs[1:-1]  # contiguous: dgttrs solves in place in it
            r[0] += cc * v[0]
            r[-1] += cc * v[-1]
            x, info = dgttrs(*tri, r, overwrite_b=1)
            if info != 0:
                raise np.linalg.LinAlgError(f"dgttrs failed with info={info}")
            out = v.copy()
            out[1:-1] = x
            return out

        return step

    if grid.kind == "circle":
        # the split of _solve_cyclic_tridiagonal with g = -(1 + 2 cc): B is
        # symmetric and strictly diagonally dominant with a positive
        # diagonal, so SPD for every cc > 0, and dpttrf needs no pivoting
        n = grid.shape[0]
        cc = c / grid.h**2
        d0 = 1.0 + 2.0 * cc
        g, off = -d0, -cc
        diag = np.full(n, d0)
        diag[0] = d0 - g
        diag[-1] = d0 - off * off / g
        d, e, info = dpttrf(diag, np.full(n - 1, off))
        if info != 0:
            raise np.linalg.LinAlgError(f"dpttrf failed with info={info}")
        u = np.zeros(n)
        u[0], u[-1] = g, off
        z, _ = dpttrs(d, e, u)  # B^-1 u
        ratio = off / g
        denom = 1.0 + float(z[0]) + ratio * float(z[-1])  # 1 + w^T B^-1 u > 0: A is SPD

        def step(v, rhs):
            y, info = dpttrs(d, e, rhs)  # B^-1 rhs, in a copy of rhs
            if info != 0:
                raise np.linalg.LinAlgError(f"dpttrs failed with info={info}")
            return daxpy(z, y, a=-(float(y[0]) + ratio * float(y[-1])) / denom)

        return step

    solve = _fft_solver(grid, 1.0 + c * _torus_symbol(grid))
    return lambda v, rhs: solve(rhs)


def _solve_tridiagonal(
    off: np.ndarray, d: np.ndarray, b: np.ndarray, overwrite_b: bool = False
) -> np.ndarray:
    """Solve tridiag(off, d, off) x = b with LAPACK dgtsv; ``d`` is overwritten,
    and so is ``b`` with ``overwrite_b`` (when it is Fortran-ordered).

    The LAPACK call behind scipy.linalg.solve_banded((1, 1), ...), with its
    checks and error messages (census rows quote them) but without its
    per-call wrappers: non-finite input raises ValueError, an exact zero
    pivot LinAlgError.  A finite sum of the entries proves them all finite;
    only a sum that is not (a non-finite entry, or an overflow) is checked
    entry by entry.
    """
    if not math.isfinite(float(np.add.reduce(d)) + float(np.add.reduce(b, axis=None))):
        if not (np.isfinite(d).all() and np.isfinite(b).all()):
            raise ValueError("array must not contain infs or NaNs")
    _, _, _, x, info = dgtsv(off, d, off, b, overwrite_d=1, overwrite_b=overwrite_b)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal gtsv")
    return x


def _solve_cyclic_tridiagonal(
    diag: np.ndarray,
    off: float,
    rhs: np.ndarray,
    offs: np.ndarray | None = None,
    b: np.ndarray | None = None,
) -> np.ndarray:
    """Solve the periodic chain A x = rhs, A = tridiag(off, diag, off) plus
    the corners A[0, n-1] = A[n-1, 0] = off, into a new array; ``off`` is
    nonzero and ``diag`` is overwritten.  ``offs``, when given, is
    ``np.full(n - 1, off)`` built once by the caller (dgtsv copies it), and
    ``b`` a Fortran-ordered (n, 2) work array that dgtsv overwrites.

    Sherman-Morrison: A = B + u w^T with u = (g, 0, ..., 0, off) and
    w = (1, 0, ..., 0, off/g), where B is A without its corners and with
    B[0, 0] = diag[0] - g, B[n-1, n-1] = diag[n-1] - off^2/g.  One tridiagonal
    solve with two right-hand sides (rhs and u) then a rank-1 correction.
    The shift g = -diag[0] keeps B[0, 0] away from zero; it falls back to
    -|off| when diag[0] is small against the coupling.  The scalar work is
    done in Python floats, the same IEEE double arithmetic at less cost per
    operation than numpy scalars.
    """
    n = diag.size
    off = float(off)
    d0 = float(diag[0])
    g = -d0 if abs(d0) >= abs(off) else -abs(off)
    diag[0] = d0 - g
    diag[-1] -= off * off / g
    if b is None:
        b = np.empty((n, 2), order="F")  # LAPACK's layout: no copy in dgtsv
    b[:, 0] = rhs
    b[:, 1] = 0.0
    b[0, 1] = g
    b[-1, 1] = off
    if offs is None:
        offs = np.full(n - 1, off)
    yz = _solve_tridiagonal(offs, diag, b, overwrite_b=True)
    y, z = yz[:, 0], yz[:, 1]
    ratio = off / g
    denom = 1.0 + float(z[0]) + ratio * float(z[-1])
    if denom == 0.0 or not math.isfinite(denom):
        # census rows quote the message, which shows denom as a numpy scalar
        raise np.linalg.LinAlgError(f"Sherman-Morrison denominator is {np.float64(denom)!r}")
    x = np.multiply(z, (float(y[0]) + ratio * float(y[-1])) / denom)
    return np.subtract(y, x, out=x)


def _make_jacobian_solver(grid: Grid, eps: float, p: Potential):
    """Newton-step solver for J s = r at the current iterate."""
    if grid.kind == "interval":
        n = grid.shape[0]
        h2 = grid.h**2
        c = eps / h2
        off = np.full(n - 3, -c)  # dgtsv copies it (no overwrite flag)

        def solve(v, res):
            try:
                s_int = _solve_tridiagonal(off, 2.0 * c + p.d2w(v[1:-1]) / eps, res[1:-1])
            except (np.linalg.LinAlgError, ValueError) as exc:
                raise SingularJacobianError(f"banded Jacobian solve failed: {exc}") from exc
            s = np.zeros_like(v)
            s[1:-1] = s_int
            return s

        return solve

    if grid.kind == "circle":
        cc = eps / grid.h**2
        offs = np.full(grid.shape[0] - 1, -cc)
        b = np.empty((grid.shape[0], 2), order="F")
        two_cc = 2.0 * cc

        def solve(v, res):
            diag = p.d2w(v) / eps  # a new array: the solve overwrites it
            diag += two_cc  # 2 cc + W''/eps, bit for bit
            try:
                return _solve_cyclic_tridiagonal(diag, -cc, res, offs, b)
            except (np.linalg.LinAlgError, ValueError) as exc:
                raise SingularJacobianError(f"cyclic Jacobian solve failed: {exc}") from exc

        return solve

    # torus: matrix-free symmetric solve, preconditioned by the constant
    # coefficient operator (-eps Lap_h + c0/eps) inverted with FFTs
    n1, n2 = grid.shape
    c0 = float(p.d2w(1.0))
    if c0 <= 0:
        c0 = 1.0
    inverse = _fft_solver(grid, eps * _torus_symbol(grid) + c0 / eps)
    size = n1 * n2
    neg_eps = -eps
    well = np.empty(grid.shape)

    def precond(x):
        return inverse(x.reshape(n1, n2)).ravel()

    M = spla.LinearOperator((size, size), matvec=precond, dtype=float)

    def solve(v, res):
        d2 = p.d2w(v) / eps

        def matvec(x):
            # -eps Lap_h(X) + d2 X, in place in the array laplacian returns;
            # laplacian is looked up here so that a tracer wrapping it counts
            # every Krylov iteration
            X = x.reshape(n1, n2)
            out = laplacian(grid, X)
            np.multiply(out, neg_eps, out=out)
            out += np.multiply(d2, X, out=well)
            return out.ravel()

        A = spla.LinearOperator((size, size), matvec=matvec, dtype=float)
        x, info = spla.minres(A, res.ravel(), M=M, rtol=1e-12, maxiter=4000)
        if info != 0:
            # scipy reports maxiter reached without meeting rtol as info > 0
            raise SingularJacobianError(f"torus MINRES solve failed with info={info}")
        if not np.all(np.isfinite(x)):
            raise SingularJacobianError("torus Jacobian solve produced non-finite step")
        return x.reshape(n1, n2)

    return solve


# ---------------------------------------------------------------------------
# Newton refinement


def _blown_up(size: float, v: np.ndarray) -> bool:
    """A Newton step of sup norm ``size`` at ``v`` is unusable: non-finite
    (NaN or inf in the step) or above 1e8 * (1 + |v|_inf); ``v`` is scanned
    only when ``size`` exceeds 1e8."""
    return not math.isfinite(size) or (size > 1e8 and size > 1e8 * (1.0 + sup_norm(v)))


def newton_refine(f: Field, p: Potential, cfg: SolveConfig | None = None) -> NewtonResult:
    """Newton solve of the criticality equation, with residual history.

    Each iteration runs a short watchdog walk of full steps and accepts the
    best point that beats the current residual max-norm; near a solution the
    first step already wins, so the accepted history shows the quadratic
    rate.  Plain backtracking damping is the fallback.  After the tolerance
    is met a few extra steps are taken while they keep halving the residual,
    which resolves the nearly flat translation modes of multi-interface
    solutions well below the nominal tolerance.  A non-finite starting
    residual raises NewtonDivergenceError.
    """
    cfg = cfg or SolveConfig()
    cfg.validate()
    require_resolution(f.grid, f.epsilon, cfg.min_points_per_eps)
    v = f.values.copy()
    eps = f.epsilon
    solver = _make_jacobian_solver(f.grid, eps, p)
    residual = residual_kernel(f.grid, eps, p)
    res = residual(v)
    rn = sup_norm(res)
    history = [rn]
    iterations = 0
    if not math.isfinite(rn):
        # a NaN residual would fail the loop test below and read as converged
        raise NewtonDivergenceError(f"non-finite starting residual {rn!r}", history)

    # Raw Newton steps of this iteration and the last, by the residual norm at
    # their iterate: walks retrace earlier ones, and no system is solved twice.
    # An entry is [v, step, |step|_inf, successor, capped successor], where a
    # successor is the point (w, its residual, its norm) that v minus the
    # step, raw or capped at MAX_STEP, reaches; it is kept once a walk takes
    # that step from this very array v, so no residual is evaluated twice.
    steps, earlier = {}, {}

    def newton_step(v, res, rn):
        hit = steps.get(rn) or earlier.get(rn)
        if hit is None or not np.array_equal(hit[0], v):
            step = solver(v, res)
            hit = steps[rn] = [v, step, sup_norm(step), None, None]
        return hit

    def advance(entry, w_v, scaled):
        # array_equal lets -0.0 stand for 0.0, which w_v - step would not
        slot = 4 if scaled else 3
        if entry[0] is w_v and entry[slot] is not None:
            return entry[slot]
        step = entry[1] * (MAX_STEP / entry[2]) if scaled else entry[1]
        w_next = w_v - step
        w_res = residual(w_next)
        point = (w_next, w_res, sup_norm(w_res))
        if entry[0] is w_v:
            entry[slot] = point
        return point

    while rn > cfg.tol_grad:
        earlier, steps = steps, {}
        if iterations >= MAX_NEWTON:
            raise NewtonDivergenceError(
                f"no convergence after {iterations} Newton iterations "
                f"(residual {rn:.3e} > {cfg.tol_grad:.1e})",
                history,
            )
        if iterations >= 6 and rn > 100.0 * cfg.tol_grad and history[-6] < 1.05 * rn:
            # residual frozen across six accepted iterations: a blocked
            # journey along a flat valley, not slow quadratic convergence
            raise NewtonDivergenceError(
                f"stagnated at residual {rn:.3e} (target {cfg.tol_grad:.1e})",
                history,
            )
        # Watchdog sequence of full steps.  A full step along a nearly flat
        # valley (interface translation modes) leaves the solution manifold at
        # second order and transiently raises the residual; the follow-up
        # corrector steps remove that debris.  The walk keeps the best point
        # it sees and accepts it when it beats the current residual.  Steps
        # are capped in sup norm first (controlled travel along the valley);
        # when that walk makes no clear progress the unrestricted walk gets a
        # chance, which is what completes long journeys at gentle widths.
        # A capped walk that capped no step would be replayed exactly.
        accepted = False
        entry0 = newton_step(v, res, rn)
        if _blown_up(entry0[2], v):
            raise SingularJacobianError("Newton step blew up (nearly singular Jacobian)")
        capped = entry0[2] > MAX_STEP
        champion = None
        for cap in (MAX_STEP, None):
            w_v, w_res, w_rn = v, res, rn
            entry = entry0
            for k in range(12):
                if k > 0:
                    try:
                        entry = newton_step(w_v, w_res, w_rn)
                    except SolverError:
                        break
                    if _blown_up(entry[2], w_v):
                        break
                scaled = cap is not None and entry[2] > cap
                capped = capped or scaled
                w_v, w_res, w_rn = advance(entry, w_v, scaled)
                if not math.isfinite(w_rn) or w_rn > 1e3 * (1.0 + rn):
                    break
                if champion is None or w_rn < champion[2]:
                    champion = (w_v, w_res, w_rn)
                if w_rn < 0.3 * rn or w_rn <= cfg.tol_grad:
                    break
            if not capped or (champion is not None and champion[2] < 0.3 * rn):
                break  # nothing to retry uncapped, or a clear win
        if champion is not None and champion[2] < rn:
            v, res, rn = champion
            accepted = True
        if not accepted:
            step0, size0 = entry0[1], entry0[2]
            first_step = step0 * (MAX_STEP / size0) if size0 > MAX_STEP else step0
            alpha = DAMPING
            for _ in range(40):
                trial = v - alpha * first_step
                tres = residual(trial)
                trn = sup_norm(tres)
                if math.isfinite(trn) and trn < rn:
                    v, res, rn = trial, tres, trn
                    accepted = True
                    break
                alpha *= DAMPING
        if not accepted:
            raise NewtonDivergenceError(
                f"backtracking stalled at residual {rn:.3e}", history
            )
        iterations += 1
        history.append(rn)

    if iterations > 0:
        for _ in range(4):
            try:
                step = solver(v, res)
            except SolverError:
                break
            trial = v - step
            tres = residual(trial)
            trn = sup_norm(tres)
            if math.isfinite(trn) and trn < 0.5 * rn:
                v, res, rn = trial, tres, trn
                history.append(rn)
            else:
                break

    return NewtonResult(Field(f.grid, v, eps), history, iterations, True)


# ---------------------------------------------------------------------------
# gradient flow


def gradient_flow(
    f: Field,
    p: Potential,
    cfg: SolveConfig | None = None,
    stop: StopRule | None = None,
) -> FlowTrace:
    """Semi-implicit energy descent for a fixed number of steps; energy is
    monitored every step.

    The flow runs ``stop.max_steps`` steps (MAX_FLOW_STEPS when unset) at
    the fixed step ``cfg.flow_dt`` (eps * h when unset).  An energy increase
    beyond the slack (after the 10-step transient) halves the step for the
    rest of the run and retries; collapse below 1e-14 aborts, and so does a
    non-finite energy at any step.  Nodal angles are sampled into the trace
    when the stop rule asks for them.
    """
    cfg = cfg or SolveConfig()
    cfg.validate()
    stop = stop or StopRule()
    max_steps = stop.max_steps if stop.max_steps is not None else MAX_FLOW_STEPS
    if max_steps < 0:
        raise ValueError(f"max_steps must be nonnegative, got {max_steps}")
    if stop.track_nodal and stop.sample_every < 1:
        raise ValueError(f"sample_every must be at least 1, got {stop.sample_every}")
    require_resolution(f.grid, f.epsilon, cfg.min_points_per_eps)

    eps = f.epsilon
    dt = cfg.flow_dt if cfg.flow_dt is not None else eps * f.grid.h
    solve = _make_flow_solver(f.grid, eps, dt)
    rate = dt / eps
    energy_of = energy_kernel(f.grid, eps, p)
    rhs = np.empty(f.grid.shape)  # v - (dt/eps) W'(v); the interval solve overwrites it
    v = f.values.copy()

    energies = [energy_of(v)]
    angle_samples = []

    for step_i in range(1, max_steps + 1):
        while True:
            np.multiply(p.dw(v), rate, out=rhs)
            np.subtract(v, rhs, out=rhs)
            v_new = solve(v, rhs)
            e_new = energy_of(v_new)
            # math.isfinite: np.isfinite costs about 1 us per step on a Python float
            if not math.isfinite(e_new):
                raise SolverError(f"non-finite energy {e_new!r} at flow step {step_i}")
            if step_i > 10 and e_new > energies[-1] + ENERGY_SLACK:
                dt *= 0.5
                if dt < 1e-14:
                    raise StepCollapseError(
                        f"flow step collapsed below 1e-14 at step {step_i}"
                    )
                solve = _make_flow_solver(f.grid, eps, dt)
                rate = dt / eps
                continue
            break
        v = v_new
        energies.append(e_new)

        if stop.track_nodal and step_i % stop.sample_every == 0:
            from .nodal import extract_nodal_set

            ns = extract_nodal_set(Field(f.grid, v, eps))
            angle_samples.append((step_i, ns.angles.copy()))

    return FlowTrace(Field(f.grid, v, eps), np.asarray(energies), max_steps, angle_samples, dt)


# ---------------------------------------------------------------------------
# model solutions on the interval


def _auto_interval_points(half_length: float, epsilon: float, points_per_eps: float) -> int:
    h_target = epsilon / max(points_per_eps, 10.0)
    n = int(np.ceil(2.0 * half_length / h_target)) + 1
    n = max(n, 65)
    if n % 2 == 0:
        n += 1
    return n


def solve_dirichlet_model(
    half_length: float,
    epsilon: float,
    p: Potential,
    cfg: SolveConfig | None = None,
    n: int | None = None,
) -> ModelSolution:
    """Positive transition profile vanishing at both interval endpoints.

    Minimizes the energy over fields pinned to zero at +-half_length:
    semi-implicit flow from a sine bump at the stability step
    dt = 0.5 eps / max|W''| (passed to gradient_flow as ``flow_dt``), then
    Newton refinement.  The flow runs in chunks of 25, 50, 100, 200 and then
    400 steps, MAX_FLOW_STEPS in all; after each chunk the Newton gate (the
    energy beats the zero field's by the trivial margin, or the gradient
    max-norm is below 1e-4) decides whether to try Newton, so a profile
    that is already in Newton's basin costs 25 flow steps.
    The result is classified positive only when its energy beats the zero
    field's by more than the trivial margin; otherwise it is the zero
    solution.  A linear-stability shortcut returns the zero solution
    immediately when the zero state is strictly stable, which for potentials
    satisfying the monotonicity axiom is exactly the no-transition regime.
    A stall raises SolverError with the last Newton failure, if any.
    """
    cfg = cfg or SolveConfig()
    cfg.validate()
    if not (half_length > 0.0):
        raise ValueError("half_length must be positive")
    if n is None:
        n = _auto_interval_points(half_length, epsilon, cfg.min_points_per_eps)
    grid = interval_grid(n, half_length)
    require_resolution(grid, epsilon, cfg.min_points_per_eps)

    zero = Field(grid, np.zeros(grid.shape), epsilon)
    e_zero = energy(zero, p)

    # lowest eigenvalue of the linearization at zero
    mu1 = (2.0 - 2.0 * np.cos(np.pi * grid.h / (2.0 * half_length))) / grid.h**2
    lam1 = epsilon * mu1 + float(p.d2w(0.0)) / epsilon
    if lam1 > 1e-12 * max(1.0, epsilon * mu1):
        return ModelSolution(
            zero, "trivial_zero", half_length, 0.0,
            {"shortcut": "linear_stability", "lam1": lam1},
        )

    x = grid.axis()
    seed = np.clip(np.sin(np.pi * (x + half_length) / (2.0 * half_length)), 0.0, 1.0)
    seed[0] = seed[-1] = 0.0
    u = Field(grid, seed, epsilon)

    # No projection: the flow keeps u in [0, 1] with both ends 0, since at dt <= eps/max W''
    # u - (dt/eps) W'(u) is nondecreasing on [0, 1] and fixes 0 and 1, the implicit
    # Dirichlet solve is an inverse M-matrix, and the interval flow solver copies the ends.
    curv = float(np.max(np.abs(p.d2w(np.linspace(-1.2, 1.2, 101)))))
    flow_cfg = replace(cfg, flow_dt=0.5 * epsilon / max(curv, 1e-6))
    residual = residual_kernel(grid, epsilon, p)
    chunk = 25
    steps_used = 0
    newton_attempts = 0
    newton_failure = ""

    while steps_used < MAX_FLOW_STEPS:
        this_chunk = min(chunk, MAX_FLOW_STEPS - steps_used)
        trace = gradient_flow(u, p, flow_cfg, StopRule(max_steps=this_chunk))
        u = trace.field
        steps_used += trace.steps
        chunk = min(2 * chunk, 400)
        e_u = trace.energies[-1]
        gn = sup_norm(residual(u.values))

        if e_u < e_zero - TRIVIAL_MARGIN or gn < 1e-4:
            newton_attempts += 1
            try:
                nr = newton_refine(u, p, cfg)
            except SolverError as exc:
                newton_failure = f"; last Newton failure: {exc}"
                continue
            w = nr.field
            e_w = energy(w, p)
            interior_min = float(np.min(w.values[1:-1]))
            if interior_min > 0.0 and e_w < e_zero - TRIVIAL_MARGIN:
                diag = {
                    "flow_steps": steps_used,
                    "newton_attempts": newton_attempts,
                    "newton_iterations": nr.iterations,
                    "residual": nr.residuals[-1],
                    "seed": "sine_bump",
                }
                return ModelSolution(w, "positive", half_length, e_zero - e_w, diag)
            if sup_norm(w.values) < 1e-6 and gn < 1e-4:
                # flow stalled at (or Newton collapsed onto) the zero state
                return ModelSolution(
                    zero, "trivial_zero", half_length, 0.0,
                    {"flow_steps": steps_used, "newton_attempts": newton_attempts},
                )
            if gn < 1e-4 and e_w >= e_zero - TRIVIAL_MARGIN:
                # converged to a critical point that does not beat the margin
                return ModelSolution(
                    zero, "trivial_zero", half_length, max(0.0, e_zero - e_w),
                    {"flow_steps": steps_used, "sub_margin_energy_gap": e_zero - e_w},
                )
            # Newton escaped the basin mid-flow; keep flowing

    raise SolverError(
        f"model solve stalled after {steps_used} flow steps "
        f"(energy {energy(u, p):.6g} vs zero-field {e_zero:.6g}){newton_failure}"
    )


def existence_threshold(
    half_length: float,
    p: Potential,
    cfg: SolveConfig | None = None,
) -> float:
    """Bisection estimate, to 1e-3 relative, of the width below which a
    positive profile exists."""
    if not (half_length > 0.0):
        raise ValueError("half_length must be positive")
    if float(p.d2w(0.0)) >= 0.0:
        return 0.0  # zero state is stable at every width

    def positive(e):
        return solve_dirichlet_model(half_length, e, p, cfg).status == "positive"

    scale = 2.0 * half_length / np.pi * float(np.sqrt(-p.d2w(0.0)))
    lo, hi = 0.4 * scale, 3.0 * scale
    tries = 0
    while not positive(lo):
        lo *= 0.5
        tries += 1
        if tries > 12:
            return 0.0
    tries = 0
    while positive(hi):
        hi *= 2.0
        tries += 1
        if tries > 12:
            raise SolverError("could not bracket the existence threshold from above")

    while (hi - lo) > 1e-3 * 0.5 * (hi + lo):
        mid = 0.5 * (lo + hi)
        if positive(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def reflect_extend(model: ModelSolution, copies: int) -> Field:
    """Glue signed copies of a model solution into a circle field.

    Copy k carries sign (-1)^k; gluing is odd about every joint, so the joints
    are exact nodal points and the glued field satisfies the interior
    criticality equations wherever the model solution did.  Odd copy counts
    cannot close up with alternating signs and are rejected.
    """
    if model.status != "positive":
        raise ValueError("reflect_extend needs a positive model solution")
    copies = int(copies)
    if copies < 2:
        raise ValueError("copies must be at least 2")
    if copies % 2 != 0:
        raise ValueError("copies must be even: an odd number of sign-alternating pieces cannot close up on the circle")
    v = model.field.values
    values = np.concatenate([(1.0 if k % 2 == 0 else -1.0) * v[:-1] for k in range(copies)])
    grid = circle_grid(values.size, copies * 2.0 * model.half_length)
    return Field(grid, values, model.field.epsilon)


def multi_interface_seed(grid: Grid, epsilon: float, angles) -> Field:
    """Smooth saturated seed with one sign change at each requested angle."""
    if not grid.periodic:
        raise ValueError("seed construction needs a periodic grid")
    L = grid.lengths[0]
    theta = grid.axis(0)
    u = np.ones(theta.shape)
    for z in np.atleast_1d(angles):
        s = (L / np.pi) * np.sin(np.pi * (theta - z) / L)
        u = u * np.tanh(s / (np.sqrt(2.0) * epsilon))
    return Field(grid, grid.extrude(u), epsilon)
