"""Critical-point construction: Dirichlet minimizers, gradient flow, Newton.

The flow is semi-implicit: the linear stiffness is treated implicitly, the
well force explicitly,

    (I + dt/eps * (-eps^2 Lap_h)) u_new = u - dt/eps * W'(u),

so every step is one prefactored solve of the whole stack of fields,
tridiagonal (interval, circle) or FFT-diagonalized (torus), set up once per
flow and step size, and the monitored energy is non-increasing for the
default step dt = eps * h; a non-finite energy stops the flow with a
SolverError.  No flow adapts its step: it halves on an energy rise only.  The interval model
solve passes dt = 0.5 eps / max|W''| as flow_dt, up to which the energy
stays stable (Shen & Yang, DCDS-A 28, 2010).  One loop, gradient_flows,
flows a stack of k fields on one grid at one width and step (a census
width's seeds; gradient_flow is its stack of one), each field with the bits
of its own flow.  A Newton solve and a model solve each build one
fields.residual_kernel.
Newton solves -eps Lap_h(u) + W'(u)/eps = 0 with residual-max-norm
backtracking; the constants MAX_NEWTON and MAX_FLOW_STEPS cap its iterations
and a model solve's flow steps.  Its two watchdog walks start with the
iteration's one first step; each later walk step solves at its point and
evaluates the residual of the point it leads to.  Its fallback line search
evaluates its trials TRIAL_STACK at a time as one residual stack and
accepts what a one-trial-at-a-time loop would.
On a 1-D grid the flow's I + dt eps (-Lap_h) and Newton's Jacobian
-eps Lap_h + W''(u)/eps are each one chain tridiag(off, diag, off): the
interval's interior rows between pinned ends, or all the circle's rows plus
its periodic corners, which _split_corners splits off for a Sherman-Morrison
correction.  The flow factors its SPD chain once with LAPACK dpttrf (the
circle's without corners, the interval's with identity rows at its pinned
ends), a step being one dpttrs solve plus, on the circle, the precomputed
correction (a third of the cost of a SuperLU solve and under half of an FFT
step, ROADMAP F9).  Newton calls LAPACK dgtsv directly, with one
right-hand side on the interval and two on the circle (rhs and the corner
vector, in a work array the solver owns).  On the torus the Jacobian is one sparse matrix, the periodic 5-point stencil assembled
once per solver with W''(v)/eps written into its diagonal at each solve,
and SuperLU factors it (scipy's splu, MMD_AT_PLUS_A ordering).  Each step
is checked: a normwise backward error |J s - r|_inf / (|J|_inf |s|_inf +
|r|_inf) above BACKWARD_TOL, an exactly singular factor, or a step that
blew up (``_blown_up``: a nearly singular J meets the backward error with a
huge step) raises SingularJacobianError.  A fibered torus state needs no
such solve to be certified (transverse_gap).  A torus flow from a
fibered seed (every fiber row constant, bit for bit) is the circle flow of
its axis-0 profile (gradient_flow).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg  # eigvalsh; perfbench's tracer wraps solvers.scipy.linalg
import scipy.sparse.linalg as spla
from scipy.linalg.blas import dger
from scipy.linalg.lapack import dgtsv, dpttrf, dpttrs
from scipy.sparse import csc_matrix

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
    "gradient_flows",
    "multi_interface_seed",
    "transverse_gap",
]

ENERGY_SLACK = 1e-8
TRIVIAL_MARGIN = 1e-8
DAMPING = 0.5  # backtracking factor of Newton's fallback line search
MAX_TRIALS = 40  # trials of the fallback line search
TRIAL_STACK = 8  # line-search trials evaluated per residual call
MAX_STEP = 0.15  # sup-norm cap per Newton step in the capped watchdog walk, direction kept
MAX_NEWTON = 50  # Newton iterations per solve
MAX_FLOW_STEPS = 100_000  # flow steps per model solve, and per flow without StopRule.max_steps
BLOCK_POINTS = 16_384  # a flow block of k fields: at most max(BLOCK_POINTS, k * npoints) points, about 128 KiB
BACKWARD_TOL = 1e-12  # normwise backward error a torus Jacobian solve must meet


class SolverError(RuntimeError):
    pass


class NewtonDivergenceError(SolverError):
    """Newton gave up; ``residuals`` is its residual history and ``state``
    the values of the last iterate it accepted (the start, when none)."""

    def __init__(self, message, residuals=None, state=None):
        super().__init__(message)
        self.residuals = list(residuals or [])
        self.state = state


class SingularJacobianError(SolverError):
    pass


class StepCollapseError(SolverError):
    pass


@dataclass(frozen=True)
class SolveConfig:
    """Settable solver values; the iteration caps are MAX_NEWTON and MAX_FLOW_STEPS.

    Checked once, when made (``dataclasses.replace`` makes a new one): a
    finite ``tol_grad`` of at least 1e-13, a finite positive
    ``min_points_per_eps``, and a finite positive ``flow_dt`` when set.
    Frozen, so no value changes after its check; the solvers trust it.
    """
    tol_grad: float = 1e-10
    flow_dt: float | None = None  # default eps * h; the model solve passes its stability step
    min_points_per_eps: float = 8.0

    def __post_init__(self):
        # written so that a NaN, which fails every comparison, fails each test
        if not 1e-13 <= self.tol_grad < math.inf:
            raise ValueError(f"tol_grad must be finite and at least 1e-13, got {self.tol_grad!r}")
        if not 0 < self.min_points_per_eps < math.inf:
            raise ValueError(f"min_points_per_eps must be finite and positive, got {self.min_points_per_eps!r}")
        if self.flow_dt is not None and not 0 < self.flow_dt < math.inf:
            raise ValueError(f"flow_dt must be finite and positive, got {self.flow_dt!r}")


@dataclass(frozen=True)
class StopRule:
    """Flow length (MAX_FLOW_STEPS when unset) and nodal sampling; the step is cfg.flow_dt.

    Checked once, when made, and frozen: ``max_steps`` a nonnegative
    integer when set, and ``sample_every`` an integer of at least 1 when
    ``track_nodal`` asks for samples (without tracking it is never read).
    An integer is what ``operator.index`` takes, numpy integers included.
    """
    max_steps: int | None = None
    sample_every: int = 50
    track_nodal: bool = False

    def __post_init__(self):
        checks = [("max_steps", 0, "nonnegative")] if self.max_steps is not None else []
        if self.track_nodal:
            checks.append(("sample_every", 1, "at least 1"))
        for name, low, bound in checks:
            value = getattr(self, name)
            if not value >= low:  # as in SolveConfig, a NaN fails it
                raise ValueError(f"{name} must be {bound}, got {value}")
            try:
                operator.index(value)
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass
class FlowTrace:
    field: Field
    energies: np.ndarray
    steps: int
    angle_samples: list  # (step, interface angles) pairs
    dt_final: float


@dataclass
class NewtonResult:
    field: Field
    residuals: list
    iterations: int
    converged: bool


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


def transverse_gap(grid: Grid, eps: float, p: Potential, profile: np.ndarray) -> float:
    """lambda_min(J) + eps * mu_1: the smallest eigenvalue of the torus
    Jacobian at the fibered extension of the axis-0 ``profile``, over the
    fields whose fiber means are zero.

    On a fibered state the torus Jacobian -eps Lap_h + W''(u)/eps splits
    over the fiber modes k into the blocks J + eps * mu_k: J is the Jacobian
    of ``profile`` on the circle of the torus' axis 0, and mu_k the fiber
    eigenvalues of -Lap_h, the fiber row of ``_torus_symbol``, whose
    smallest nonzero one is mu_1.  A positive gap makes every k >= 1 block
    positive definite.  lambda_min(J) is taken densely, by
    scipy.linalg.eigvalsh of the periodic chain: O(n1^3), about 3 ms at
    n1 = 256.
    """
    n = grid.shape[0]
    cc = eps / grid.h**2
    jac = np.diag(p.d2w(profile) / eps + 2.0 * cc)
    i = np.arange(n)
    jac[i, i - 1] = jac[i - 1, i] = -cc  # the chain, its corners at i = 0
    lam = scipy.linalg.eigvalsh(jac, subset_by_index=[0, 0])[0]
    return float(lam + eps * _torus_symbol(grid)[0, 1])


def _fibered_profile(v: np.ndarray):
    """The axis-0 profile ``v[:, 0]``, as a new array, of a torus field
    whose every fiber row is constant, bit for bit (a row of +0.0 and -0.0
    is not); None for any other field.  A flow from such a field is the
    circle flow of this profile (``gradient_flow``)."""
    if v.ndim != 2:
        return None
    bits = v.view(np.int64)
    return v[:, 0].copy() if (bits == bits[:, :1]).all() else None


def _make_flow_solver(grid: Grid, eps: float, dt: float):
    """Prefactored implicit solve of (I + dt*eps*(-Lap_h)) u = rhs, as
    ``step(v, out)``: ``out``, C-contiguous, one field or a stack of k
    fields, shape ``(k,) + grid.shape``, holds the right-hand sides on entry
    and the new states on return, and is returned; ``v``, the states the
    step starts from, is read only, on the interval for its end values.
    A step is one solve of the whole stack (``gradient_flows`` states its
    bits): one dpttrs of the (n, k) Fortran-ordered view of ``out``, with
    one dger for the circle's corners; on the torus, the 1-D transforms of
    rfft2 and irfft2, in their order, in a spectrum buffer that the solver
    holds and grows for a larger stack, dividing by d = 1 + dt*eps*symbol
    as a multiply by 1/d - 0.0j.  numpy divides a complex by a real d by
    Smith's formula, ((re + im*0) * (1/d), (im - re*0) * (1/d)); the
    multiply computes (re * (1/d) + im*0, im * (1/d) + re*(-0.0)), the same
    bits, signs of zero included, unless a product underflows (a spectrum
    entry below d * 2**-1074), up to NaN payloads."""
    c = dt * eps
    if grid.kind == "torus":
        recip = np.conj(1.0 / (1.0 + c * _torus_symbol(grid)) + 0j)  # imaginary parts -0.0
        spec = np.empty((1,) + recip.shape, dtype=complex)

        def step(v, out):
            nonlocal spec
            x = out.reshape((-1,) + grid.shape)
            if len(spec) < len(x):
                spec = np.empty((len(x),) + recip.shape, dtype=complex)
            s = spec[: len(x)]
            np.fft.rfft(x, axis=2, out=s)
            np.fft.fft(s, axis=1, out=s)
            np.multiply(s, recip, out=s)
            np.fft.ifft(s, axis=1, out=s)
            np.fft.irfft(s, n=grid.shape[1], axis=2, out=x)
            return out

        return step

    # the interval's tridiag(-cc, 1 + 2 cc, -cc) between identity end rows,
    # and the circle's B of _split_corners (shifted by g = -(1 + 2 cc)), are
    # symmetric and strictly diagonally dominant with a positive diagonal:
    # SPD for every cc > 0, so dpttrf needs no pivoting
    n, periodic = grid.shape[0], grid.periodic
    cc = c / grid.h**2
    off = -cc
    diag, offs = np.full(n, 1.0 + 2.0 * cc), np.full(n - 1, off)
    if periodic:
        g, ratio = _split_corners(diag, off)
    else:
        diag[[0, -1]], offs[[0, -1]] = 1.0, 0.0
    d, e, info = dpttrf(diag, offs)
    if info != 0:
        raise np.linalg.LinAlgError(f"dpttrf failed with info={info}")
    if periodic:
        u = np.zeros(n)
        u[0], u[-1] = g, off
        z, _ = dpttrs(d, e, u)  # B^-1 u
        denom = 1.0 + float(z[0]) + ratio * float(z[-1])  # 1 + w^T B^-1 u > 0: A is SPD

    def step(v, out):
        if not periodic:
            # the end values (every n - 1 points) couple into the rows next
            # to them (every n - 3 points from 1); the ends hold +0.0 in the
            # solve, as b - 0.0 * 0.0 is b, -0.0 included
            x, w = out.reshape(-1, n), v.reshape(-1, n)
            x[:, 1 :: n - 3] += cc * w[:, :: n - 1]
            x[:, :: n - 1] = 0.0
        y, info = dpttrs(d, e, out.T, overwrite_b=1)  # in place in out
        if info != 0:
            raise np.linalg.LinAlgError(f"dpttrs failed with info={info}")
        if periodic:  # y_j += coef_j z, coef_j = -(y_j[0] + ratio y_j[-1]) / denom, per column j
            y = y.reshape(n, -1)
            dger(1.0, z, (y[0] + ratio * y[-1]) / -denom, a=y, overwrite_a=1)
        else:
            x[:, :: n - 1] = w[:, :: n - 1]
        return out

    return step


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


def _split_corners(diag: np.ndarray, off: float):
    """Write the periodic chain A = tridiag(off, diag, off) plus its corners
    A[0, n-1] = A[n-1, 0] = off as B + u w^T, with u = (g, 0, ..., 0, off),
    w = (1, 0, ..., 0, off/g) and B without corners, whose diagonal is written
    into ``diag``; returns ``(g, off/g)``, Python floats.  The shift
    g = -diag[0] keeps B[0, 0] away from zero; it falls back to -|off| when
    diag[0] is small against the coupling."""
    d0 = float(diag[0])
    g = -d0 if abs(d0) >= abs(off) else -abs(off)
    diag[0] = d0 - g
    diag[-1] -= off * off / g
    return g, off / g


def _solve_cyclic_tridiagonal(
    diag: np.ndarray, off: float, rhs: np.ndarray, offs: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """Solve the periodic chain A x = rhs of _split_corners into a new array;
    ``off`` is nonzero and ``diag`` is overwritten.  One dgtsv solve of B with
    two right-hand sides (rhs and u), then the Sherman-Morrison correction in
    Python floats.  ``offs`` is ``np.full(n - 1, off)`` built once by the
    caller (dgtsv copies it), ``b`` a Fortran-ordered (n, 2) work array."""
    g, ratio = _split_corners(diag, float(off))
    b[:, 0] = rhs
    b[:, 1] = 0.0
    b[0, 1], b[-1, 1] = g, off
    yz = _solve_tridiagonal(offs, diag, b, overwrite_b=True)
    y, z = yz[:, 0], yz[:, 1]
    denom = 1.0 + float(z[0]) + ratio * float(z[-1])
    if denom == 0.0 or not math.isfinite(denom):
        # census rows quote the message, which shows denom as a numpy scalar
        raise np.linalg.LinAlgError(f"Sherman-Morrison denominator is {np.float64(denom)!r}")
    x = np.multiply(z, (float(y[0]) + ratio * float(y[-1])) / denom)
    return np.subtract(y, x, out=x)


def _make_jacobian_solver(grid: Grid, eps: float, p: Potential):
    """Newton-step solver for J s = r at the current iterate.  On a 1-D grid J
    is the chain tridiag(-cc, 2 cc + W''(v)/eps, -cc): all the circle's rows
    with its periodic corners, or the interval's interior rows, the step
    pinned at zero at both ends."""
    if grid.kind != "torus":
        n = grid.shape[0]
        cc = eps / grid.h**2
        two_cc = 2.0 * cc
        offs = np.full(n - 1 if grid.periodic else n - 3, -cc)  # dgtsv copies it (no overwrite flag)
        if grid.periodic:
            label = "cyclic"
            b = np.empty((n, 2), order="F")

            def chain(diag, r):
                return _solve_cyclic_tridiagonal(diag, -cc, r, offs, b)

        else:
            label = "banded"

            def chain(diag, r):  # the interior rows: the step is zero at both ends
                s = np.zeros(n)
                s[1:-1] = _solve_tridiagonal(offs, diag[1:-1], r[1:-1])
                return s

        def solve(v, res):
            diag = p.d2w(v) / eps  # a new array: the solve overwrites it
            diag += two_cc  # 2 cc + W''/eps, bit for bit
            try:
                return chain(diag, res)
            except (np.linalg.LinAlgError, ValueError) as exc:
                raise SingularJacobianError(f"{label} Jacobian solve failed: {exc}") from exc

        return solve

    # torus: J = -eps Lap_h + W''(v)/eps as a CSC matrix of the periodic
    # 5-point stencil, assembled once; each solve writes the diagonal, factors
    # J by sparse LU and checks the step's normwise backward error
    k = np.arange(grid.npoints).reshape(grid.shape)
    neighbours = [np.roll(k, shift, axis).ravel() for axis in (0, 1) for shift in (1, -1)]
    couplings = [-eps / h**2 for h in grid.spacings for _ in (1, -1)]
    jac = csc_matrix(  # duplicate entries, the two neighbours on an axis of two points, are summed
        (np.repeat(couplings + [0.0], k.size), (np.concatenate(neighbours + [k.ravel()]), np.tile(k.ravel(), 5))),
        shape=(k.size, k.size),
    )
    diagonal = np.flatnonzero(jac.indices == np.repeat(np.arange(k.size), np.diff(jac.indptr)))
    centre = -2.0 * sum(couplings[::2])  # 2 eps/h1^2 + 2 eps/h2^2, the sum of a row's off-diagonal |entries|

    def solve(v, res):
        jac.data[diagonal] = p.d2w(v).ravel() / eps + centre
        try:
            lu = spla.splu(jac, permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
            raise SingularJacobianError(f"torus Jacobian solve failed: {exc}") from exc
        r = res.ravel()
        step = lu.solve(r)
        size = sup_norm(step)
        if _blown_up(size, v):  # a nearly singular J: a small backward error, a useless step
            raise SingularJacobianError(f"torus Jacobian step of sup norm {size:.3e} blew up")
        miss = sup_norm(jac @ step - r)
        scale = (sup_norm(jac.data[diagonal]) + centre) * size + sup_norm(r)  # |J|_inf |s|_inf + |r|_inf
        if not miss <= BACKWARD_TOL * scale:  # NaN fails it
            raise SingularJacobianError(f"torus Jacobian solve has backward error {miss / scale:.3e} > {BACKWARD_TOL:.0e}")
        return step.reshape(grid.shape)

    return solve


# ---------------------------------------------------------------------------
# Newton refinement


def _blown_up(size: float, v: np.ndarray) -> bool:
    """A Newton step of sup norm ``size`` at ``v`` is unusable: non-finite
    (NaN or inf in the step) or above 1e8 * (1 + |v|_inf); ``v`` is scanned
    only when ``size`` exceeds 1e8."""
    return not math.isfinite(size) or (size > 1e8 and size > 1e8 * (1.0 + sup_norm(v)))


def _backtrack(residual, v, first_step, rn):
    """Newton's fallback line search: the point (trial, residual, sup norm)
    of the first trial v - alpha_k * first_step, alpha_k = DAMPING
    multiplied by DAMPING once per earlier trial, whose residual sup norm is
    finite and below ``rn``, or None when none of the MAX_TRIALS trials is.

    The trials are independent until one is accepted, so they are evaluated
    TRIAL_STACK at a time as one residual stack; each row, and its exact
    max-reduced norm, is what the trial alone would give.
    """
    alphas = np.multiply.accumulate(np.full(MAX_TRIALS, DAMPING))
    column = (-1,) + (1,) * v.ndim
    for start in range(0, MAX_TRIALS, TRIAL_STACK):
        trials = alphas[start : start + TRIAL_STACK].reshape(column) * first_step
        np.subtract(v, trials, out=trials)
        tres = residual(trials)
        norms = np.maximum.reduce(np.abs(tres).reshape(len(tres), -1), axis=1)
        for i, trn in enumerate(norms.tolist()):
            if math.isfinite(trn) and trn < rn:
                return trials[i].copy(), tres[i].copy(), trn
    return None


def newton_refine(f: Field, p: Potential, cfg: SolveConfig | None = None) -> NewtonResult:
    """Newton solve of the criticality equation, with residual history.

    Each iteration runs a short watchdog walk of full steps and accepts the
    best point that beats the current residual max-norm; near a solution the
    first step already wins, so the accepted history shows the quadratic
    rate.  Plain backtracking damping is the fallback (``_backtrack``).
    After the tolerance is met a few extra steps are taken while they keep
    halving the residual, which resolves the nearly flat translation modes
    of multi-interface solutions well below the nominal tolerance.  A
    non-finite starting residual raises NewtonDivergenceError.
    """
    cfg = cfg or SolveConfig()
    require_resolution(f.grid, f.epsilon, cfg.min_points_per_eps)
    eps = f.epsilon
    solver = _make_jacobian_solver(f.grid, eps, p)
    residual = residual_kernel(f.grid, eps, p)

    def point_at(w):  # a point is (values, residual, residual sup norm)
        w_res = residual(w)
        return w, w_res, sup_norm(w_res)

    point = point_at(f.values.copy())
    rn = point[2]
    history = [rn]
    iterations = 0
    if not math.isfinite(rn):
        # a NaN residual would fail the loop test below and read as converged
        raise NewtonDivergenceError(f"non-finite starting residual {rn!r}", history, point[0])

    while rn > cfg.tol_grad:
        if iterations >= MAX_NEWTON:
            raise NewtonDivergenceError(
                f"no convergence after {iterations} Newton iterations "
                f"(residual {rn:.3e} > {cfg.tol_grad:.1e})",
                history,
                point[0],
            )
        if iterations >= 6 and rn > 100.0 * cfg.tol_grad and history[-6] < 1.05 * rn:
            # residual frozen across six accepted iterations: a blocked
            # journey along a flat valley, not slow quadratic convergence
            raise NewtonDivergenceError(
                f"stagnated at residual {rn:.3e} (target {cfg.tol_grad:.1e})",
                history,
                point[0],
            )
        # Watchdog sequence of full steps.  A full step along a nearly flat
        # valley (interface translation modes) leaves the solution manifold at
        # second order and transiently raises the residual; the follow-up
        # corrector steps remove that debris.  The walk keeps the best point
        # it sees and accepts it when it beats the current residual.  Steps
        # are capped in sup norm first (controlled travel along the valley);
        # when that walk makes no clear progress the unrestricted walk gets a
        # chance, which is what completes long journeys at gentle widths.
        # A capped walk that capped no step would be replayed exactly.  Both
        # walks start with the iteration's first step, solved once.
        step0 = solver(point[0], point[1])
        size0 = sup_norm(step0)
        if _blown_up(size0, point[0]):
            raise SingularJacobianError("Newton step blew up (nearly singular Jacobian)")
        capped = size0 > MAX_STEP
        champion = None
        for cap in (MAX_STEP, None):
            w, step, size = point, step0, size0
            for k in range(12):
                if k > 0:
                    try:
                        step = solver(w[0], w[1])
                    except SolverError:
                        break
                    size = sup_norm(step)
                    if _blown_up(size, w[0]):
                        break
                scaled = cap is not None and size > cap
                capped = capped or scaled
                w = point_at(w[0] - (step * (MAX_STEP / size) if scaled else step))
                if not w[2] <= 1e3 * (1.0 + rn):  # a NaN fails it
                    break
                if champion is None or w[2] < champion[2]:
                    champion = w
                if w[2] < 0.3 * rn or w[2] <= cfg.tol_grad:
                    break
            if not capped or (champion is not None and champion[2] < 0.3 * rn):
                break  # nothing to retry uncapped, or a clear win
        if champion is not None and champion[2] < rn:
            point = champion
        else:
            first_step = step0 * (MAX_STEP / size0) if size0 > MAX_STEP else step0
            trial = _backtrack(residual, point[0], first_step, rn)
            if trial is None:
                raise NewtonDivergenceError(
                    f"backtracking stalled at residual {rn:.3e}", history, point[0]
                )
            point = trial
        rn = point[2]
        iterations += 1
        history.append(rn)

    if iterations > 0:
        for _ in range(4):
            try:
                trial = point_at(point[0] - solver(point[0], point[1]))
            except SolverError:
                break
            if not trial[2] < 0.5 * point[2]:  # a NaN fails it
                break
            point = trial
            history.append(point[2])

    return NewtonResult(Field(f.grid, point[0], eps), history, iterations, True)


# ---------------------------------------------------------------------------
# gradient flow


def gradient_flow(
    f: Field,
    p: Potential,
    cfg: SolveConfig | None = None,
    stop: StopRule | None = None,
) -> FlowTrace:
    """Semi-implicit energy descent for a fixed number of steps; energy is
    monitored every step, checked a block of steps at a time.

    The flow runs ``stop.max_steps`` steps (MAX_FLOW_STEPS when unset) at
    the fixed step ``cfg.flow_dt`` (eps * h when unset).  An energy increase
    beyond the slack (after the 10-step transient) halves the step for the
    rest of the run and retries; collapse below 1e-14 aborts, and so does a
    non-finite energy at any step.  When the stop rule asks for them, the
    trace samples the nodal set's interface angles (a torus' fiber angles).

    No step needs the energy of the one before, so the flow runs a block of
    up to K = max(1, BLOCK_POINTS // npoints) steps, each into its row of a
    block buffer, and then takes the block's energies in one kernel call.
    It scans them in step order, as a step-by-step loop would check them:
    a non-finite energy raises at its step; at the first rise the states
    from that step on are dropped, and the flow resumes from the last
    accepted state at the halved step.  Two block buffers alternate, so the
    state a block starts from is never overwritten and never copied.

    A torus seed whose fiber rows are each constant, bit for bit, is
    decided fibered once, when the flow starts (``_fibered_profile``).  Its
    flow is then the circle flow of its axis-0 profile: the same loop runs
    on ``circle_grid(n1, L1)``, with that circle's step and energy kernel
    and the same default step eps * h, and each energy is the fiber length
    L2 times the circle energy.  The nodal samples and the final field are
    the profile's extrusions.  From any other seed the flow runs on the
    full grid.

    The flow is the stack of one of ``gradient_flows``, the one flow loop,
    whose every field keeps the bits of this flow; here the trace is the
    stack's one result, and its SolverError is raised.
    """
    (trace,) = gradient_flows([f], p, cfg, stop)
    if isinstance(trace, SolverError):
        raise trace
    return trace


def gradient_flows(
    fields,
    p: Potential,
    cfg: SolveConfig | None = None,
    stop: StopRule | None = None,
) -> list:
    """The flows of ``gradient_flow`` from each of ``fields``, run as one
    stack: per field, in order, its FlowTrace, or the SolverError its own
    flow would raise.  Each result has the bits of that field's flow alone.

    The fields share one grid and one width, else ValueError; on a torus
    they are all fibered or all not (a fibered field flows on the circle).
    Each step of a stack of k fields is one ``p.dw`` call on the stack and
    one solve of the whole stack (``_make_flow_solver``), which gives each
    field the bits of its own solve: dpttrs solves each column of the
    (n, k) Fortran-ordered view as it solves it alone (the interval's
    pinned ends, +0.0 during the solve, add exact zeros); OpenBLAS' dger
    runs its axpy kernel on each column, a fused multiply-add, as a numpy
    ``y - coef * z`` is not; numpy's FFTs transform each line alone.  A
    block holds at most max(BLOCK_POINTS, k * npoints) points, and its
    energies come from one ``energy_kernel`` call on its ``(steps * k,) +
    grid.shape`` states, whose per-field bits do not depend on the stack.
    Each field's energies are scanned in step order.  A field whose energy
    turns non-finite, or whose step collapses, gets its own SolverError and
    leaves the stack; one whose energy rises leaves it and goes on alone
    from its last accepted state at half the step, carrying its step count
    and energies, as its own flow would.  The other fields are unaffected.
    """
    if not fields:
        return []
    cfg = cfg or SolveConfig()
    stop = stop or StopRule()
    max_steps = stop.max_steps if stop.max_steps is not None else MAX_FLOW_STEPS
    f = fields[0]
    if any(g.grid != f.grid or g.epsilon != f.epsilon for g in fields[1:]):
        raise ValueError("the fields of a flow stack must share one grid and one width")
    require_resolution(f.grid, f.epsilon, cfg.min_points_per_eps)

    eps = f.epsilon
    profiles = [_fibered_profile(g.values) for g in fields]
    fibered = profiles[0] is not None
    if any((q is None) == fibered for q in profiles):
        raise ValueError("the fields of a torus flow stack must be all fibered or all not")
    # a fibered stack flows on the circle of the torus' axis 0, its energies times the fiber length
    if fibered:
        grid, v, scale = circle_grid(f.grid.shape[0], f.grid.lengths[0]), np.array(profiles), f.grid.lengths[1]
    else:
        grid, v, scale = f.grid, np.array([g.values for g in fields]), 1.0
    points = v[0].size  # of one field
    energy_of = energy_kernel(grid, eps, p, max(len(fields), BLOCK_POINTS // points))
    energies = [[scale * e] for e in energy_of(v)]
    samples = [[] for _ in fields]
    results = [None] * len(fields)

    def field_of(state):  # the grid's field of a state, a profile extruded
        return Field(f.grid, f.grid.extrude(state) if fibered else state, eps)

    # each run flows a stack: the fields ``members`` indexes, from their last
    # accepted states ``v`` (read, never written), at step ``dt`` from step ``done``
    runs = [(v, list(range(len(fields))), 0, cfg.flow_dt if cfg.flow_dt is not None else eps * f.grid.h)]
    while runs:
        v, members, done, dt = runs.pop()
        solve = _make_flow_solver(grid, eps, dt)
        rate = dt / eps
        blocks = None  # made for each stack size
        while done < max_steps and members:
            k = len(members)
            if blocks is None:
                rows = max(1, BLOCK_POINTS // (k * points))
                blocks = [np.empty((rows,) + v.shape) for _ in range(2)]
            block = blocks[0][: min(rows, max_steps - done)]
            u = v
            for states in block:  # each holds its step's right-hand sides, then its states
                np.multiply(p.dw(u), rate, out=states)
                np.subtract(u, states, out=states)
                solve(u, states)
                u = states
            block_energies = energy_of(block.reshape((-1,) + grid.shape))
            stay = []
            for j, member in enumerate(members):
                history = energies[member]
                for i in range(len(block)):
                    e_new = scale * block_energies[i * k + j]
                    step_i = done + i + 1
                    # math.isfinite: np.isfinite costs about 1 us per step on a Python float
                    if not math.isfinite(e_new):
                        results[member] = SolverError(f"non-finite energy {e_new!r} at flow step {step_i}")
                        break
                    if step_i > 10 and e_new > history[-1] + ENERGY_SLACK:
                        if dt * 0.5 < 1e-14:
                            results[member] = StepCollapseError(f"flow step collapsed below 1e-14 at step {step_i}")
                        else:  # a run of its own, from its last accepted state
                            runs.append(((block[i - 1] if i else v)[j : j + 1].copy(), [member], step_i - 1, dt * 0.5))
                        break
                    history.append(e_new)

                    if stop.track_nodal and step_i % stop.sample_every == 0:
                        from .nodal import extract_nodal_set

                        ns = extract_nodal_set(field_of(block[i, j]))
                        samples[member].append((step_i, ns.angles))
                else:
                    stay.append(j)
            done += len(block)
            if len(stay) == k:
                v = block[-1]
                blocks.reverse()  # the next block must not overwrite v
            else:
                v, members, blocks = block[-1][stay], [members[j] for j in stay], None
        for j, member in enumerate(members):
            results[member] = FlowTrace(field_of(v[j].copy()), np.asarray(energies[member]), max_steps, samples[member], dt)
    return results


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
    400 steps, MAX_FLOW_STEPS in all.  Newton is tried after the first chunk
    whatever the state, and after each later one when the gate opens (the
    energy beats the zero field's by the trivial margin, or the gradient
    max-norm is below 1e-4), so a profile in Newton's basin after 25 steps
    costs 25 flow steps, even just below the existence threshold, where the
    flow's slowest mode stalls and the gate stays shut for thousands of
    steps.  Each attempt starts from the flowed state, and a failed one
    leaves the flow to go on from it.
    The result is classified positive only when Newton ends at a positive
    field whose energy beats the zero field's by more than the trivial
    margin.  A critical point within the margin is the zero solution once
    the flowed gradient is below 1e-4 as well; the sub-margin band just
    below the threshold gets there only by flowing.  A linear-stability
    shortcut returns the zero solution immediately when the zero state is
    strictly stable, which for potentials satisfying the monotonicity axiom
    is exactly the no-transition regime.
    A stall raises SolverError with the last Newton failure, if any; a
    half-length or width that is not finite and positive raises ValueError
    before the grid is sized.
    """
    if not 0.0 < half_length < math.inf:
        raise ValueError(f"half_length must be finite and positive, got {half_length!r}")
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be finite and positive, got {epsilon!r}")
    cfg = cfg or SolveConfig()
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

        # after the first chunk Newton is tried even with the gate shut
        if steps_used == trace.steps or e_u < e_zero - TRIVIAL_MARGIN or gn < 1e-4:
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
            if gn < 1e-4 and e_w >= e_zero - TRIVIAL_MARGIN:
                # converged to a critical point that does not beat the margin,
                # the zero state among them
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
    if not 0.0 < half_length < math.inf:
        raise ValueError(f"half_length must be finite and positive, got {half_length!r}")
    if float(p.d2w(0.0)) >= 0.0:
        return 0.0  # zero state is stable at every width

    def positive(e):
        return solve_dirichlet_model(half_length, e, p, cfg).status == "positive"

    scale = 2.0 * half_length / np.pi * float(np.sqrt(-p.d2w(0.0)))
    # at hi the zero state is linearly stable, and the model solve takes its
    # shortcut: on its n >= 65 points mu1_h is within 0.02% of (pi/2l)^2, so
    # hi^2 mu1_h is about 9 |W''(0)|
    lo, hi = 0.4 * scale, 3.0 * scale
    tries = 0
    while not positive(lo):
        lo *= 0.5
        tries += 1
        if tries > 12:
            return 0.0

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
