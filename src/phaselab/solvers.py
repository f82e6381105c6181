"""Critical-point construction: Dirichlet minimizers, gradient flow, Newton.

The flow is semi-implicit: the linear stiffness is treated implicitly, the
well force explicitly,

    (I + dt/eps * (-eps^2 Lap_h)) u_new = u - dt/eps * W'(u),

so every step is one tridiagonal LU solve (interval; the LAPACK factors are
computed once per step size), one prefactored sparse LU solve (circle) or one
FFT-diagonalized solve (torus), and the monitored energy is non-increasing for
the default step dt = eps * h; a non-finite energy stops the flow with a
SolverError.  Newton solves -eps Lap_h(u) + W'(u)/eps = 0 with
residual-max-norm backtracking.  Its Jacobian -eps Lap_h + W''(u)/eps is
solved banded on the interval; on the circle by one cyclic banded solve (the
tridiagonal part, two right-hand sides) and a Sherman-Morrison correction for
the two periodic corner entries; on the torus by MINRES preconditioned with
the FFT inverse of the constant-coefficient operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dgttrf, dgttrs

from .fields import Field, energy, gradient, laplacian, sup_norm
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


class SolverError(RuntimeError):
    pass


class NewtonDivergenceError(SolverError):
    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = list(residuals or [])


class SingularJacobianError(SolverError):
    def __init__(self, message, eigenvalue_estimate=None):
        super().__init__(message)
        self.eigenvalue_estimate = eigenvalue_estimate


class StepCollapseError(SolverError):
    pass


@dataclass
class SolveConfig:
    tol_grad: float = 1e-10
    max_newton: int = 50
    max_flow_steps: int = 100_000
    flow_dt: float | None = None  # default eps * h
    min_points_per_eps: float = 8.0

    def validate(self) -> None:
        if self.tol_grad < 1e-13:
            raise ValueError("tol_grad must be at least 1e-13")
        for name in (
            "tol_grad",
            "max_newton",
            "max_flow_steps",
            "min_points_per_eps",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.flow_dt is not None and self.flow_dt <= 0:
            raise ValueError("flow_dt must be positive")


@dataclass
class StopRule:
    max_steps: int | None = None
    grad_tol: float | None = None
    grad_check_every: int = 25
    sample_every: int = 50
    track_nodal: bool = False
    adapt_dt: bool = False


@dataclass
class FlowTrace:
    field: Field
    energies: np.ndarray
    steps: int
    angle_samples: list
    reason: str
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


def _fd_eigenvalues(n: int, h: float) -> np.ndarray:
    """Eigenvalues of -Lap_h on a periodic chain, FFT ordering."""
    k = np.arange(n)
    return (2.0 - 2.0 * np.cos(2.0 * np.pi * k / n)) / h**2


class _FlowStepper:
    """Prefactored implicit solve for (I + dt*eps*(-Lap_h)) u = rhs."""

    def __init__(self, grid: Grid, eps: float, dt: float):
        self.grid, self.eps, self.dt = grid, eps, dt
        c = dt * eps
        if grid.kind == "interval":
            # interior rows only; without pivoting (the operator is strictly
            # diagonally dominant) dgttrf + dgttrs do the same floating-point
            # operations as the dgtsv behind solve_banded((1, 1), ...)
            m = grid.shape[0] - 2
            self._c = c / grid.h**2
            off = np.full(m - 1, -self._c)
            dl, d, du, du2, ipiv, info = dgttrf(off, np.full(m, 1.0 + 2.0 * self._c), off)
            if info != 0:
                raise np.linalg.LinAlgError(f"dgttrf failed with info={info}")
            self._tri = (dl, d, du, du2, ipiv)
        elif grid.kind == "circle":
            n = grid.shape[0]
            cc = c / grid.h**2
            main = np.full(n, 1.0 + 2.0 * cc)
            off = np.full(n - 1, -cc)
            A = sp.diags([off, main, off], [-1, 0, 1], format="lil")
            A[0, n - 1] = -cc
            A[n - 1, 0] = -cc
            self._lu = spla.splu(A.tocsc())
        else:
            n1, n2 = grid.shape
            h1, h2 = grid.spacings
            lam1 = _fd_eigenvalues(n1, h1)
            lam2 = _fd_eigenvalues(n2, h2)[: n2 // 2 + 1]
            self._denom = 1.0 + c * (lam1[:, None] + lam2[None, :])

    def step(self, v: np.ndarray, p: Potential) -> np.ndarray:
        rhs = v - (self.dt / self.eps) * p.dw(v)
        g = self.grid
        if g.kind == "interval":
            r = rhs[1:-1].copy()
            r[0] += self._c * v[0]
            r[-1] += self._c * v[-1]
            x, info = dgttrs(*self._tri, r, overwrite_b=1)
            if info != 0:
                raise np.linalg.LinAlgError(f"dgttrs failed with info={info}")
            out = v.copy()
            out[1:-1] = x
            return out
        if g.kind == "circle":
            return self._lu.solve(rhs)
        vhat = np.fft.rfft2(rhs)
        return np.fft.irfft2(vhat / self._denom, s=g.shape)


def _smallest_eigenvalue_estimate(grid, v, eps, p):
    try:
        if grid.kind == "interval":
            h2 = grid.h**2
            d = 2.0 * eps / h2 + p.d2w(v[1:-1]) / eps
            e = np.full(d.size - 1, -eps / h2)
            vals = scipy.linalg.eigvalsh_tridiagonal(d, e)
            return float(vals[np.argmin(np.abs(vals))])
        if grid.kind == "circle" and grid.shape[0] <= 3000:
            n = grid.shape[0]
            cc = eps / grid.h**2
            A = np.diag(2.0 * cc + p.d2w(v) / eps)
            idx = np.arange(n)
            A[idx, (idx + 1) % n] = -cc
            A[idx, (idx - 1) % n] = -cc
            vals = np.linalg.eigvalsh(A)
            return float(vals[np.argmin(np.abs(vals))])
    except (np.linalg.LinAlgError, ValueError):  # scipy.linalg raises numpy's LinAlgError
        return None
    return None


def _solve_cyclic_tridiagonal(diag: np.ndarray, off: float, rhs: np.ndarray) -> np.ndarray:
    """Solve the periodic chain A x = rhs, A = tridiag(off, diag, off) plus
    the corners A[0, n-1] = A[n-1, 0] = off.

    Sherman-Morrison: A = B + u w^T with u = (g, 0, ..., 0, off) and
    w = (1, 0, ..., 0, off/g), where B is A without its corners and with
    B[0, 0] = diag[0] - g, B[n-1, n-1] = diag[n-1] - off^2/g.  One banded
    solve with two right-hand sides (rhs and u) then a rank-1 correction.
    The shift g = -diag[0] keeps B[0, 0] away from zero; it falls back to
    -|off| when diag[0] is small against the coupling.
    """
    n = diag.size
    g = -diag[0] if abs(diag[0]) >= abs(off) else -abs(off)
    ab = np.empty((3, n))
    ab[0] = ab[2] = off  # ab[0, 0] and ab[2, -1] lie outside the band
    ab[1] = diag
    ab[1, 0] -= g
    ab[1, -1] -= off * off / g
    b = np.zeros((n, 2))
    b[:, 0] = rhs
    b[0, 1] = g
    b[-1, 1] = off
    yz = scipy.linalg.solve_banded((1, 1), ab, b)
    y, z = yz[:, 0], yz[:, 1]
    ratio = off / g
    denom = 1.0 + z[0] + ratio * z[-1]
    if denom == 0.0 or not np.isfinite(denom):
        raise np.linalg.LinAlgError(f"Sherman-Morrison denominator is {denom!r}")
    return y - ((y[0] + ratio * y[-1]) / denom) * z


def _make_jacobian_solver(grid: Grid, eps: float, p: Potential):
    """Newton-step solver for J s = r at the current iterate."""
    if grid.kind == "interval":
        n = grid.shape[0]
        h2 = grid.h**2
        c = eps / h2

        def solve(v, res):
            m = n - 2
            ab = np.zeros((3, m))
            ab[0, 1:] = -c
            ab[1, :] = 2.0 * c + p.d2w(v[1:-1]) / eps
            ab[2, :-1] = -c
            try:
                s_int = scipy.linalg.solve_banded((1, 1), ab, res[1:-1])
            except scipy.linalg.LinAlgError as exc:
                raise SingularJacobianError(
                    f"banded Jacobian solve failed: {exc}",
                    _smallest_eigenvalue_estimate(grid, v, eps, p),
                ) from exc
            s = np.zeros_like(v)
            s[1:-1] = s_int
            return s

        return solve

    if grid.kind == "circle":
        cc = eps / grid.h**2

        def solve(v, res):
            diag = 2.0 * cc + p.d2w(v) / eps
            try:
                return _solve_cyclic_tridiagonal(diag, -cc, res)
            except (np.linalg.LinAlgError, ValueError) as exc:
                raise SingularJacobianError(
                    f"cyclic Jacobian solve failed: {exc}",
                    _smallest_eigenvalue_estimate(grid, v, eps, p),
                ) from exc

        return solve

    # torus: matrix-free symmetric solve, preconditioned by the constant
    # coefficient operator (-eps Lap_h + c0/eps) inverted with FFTs
    n1, n2 = grid.shape
    h1, h2 = grid.spacings
    lam1 = _fd_eigenvalues(n1, h1)
    lam2 = _fd_eigenvalues(n2, h2)[: n2 // 2 + 1]
    c0 = float(p.d2w(1.0))
    if c0 <= 0:
        c0 = 1.0
    size = n1 * n2

    def solve(v, res):
        d2 = p.d2w(v) / eps
        denom = eps * (lam1[:, None] + lam2[None, :]) + c0 / eps

        def matvec(x):
            X = x.reshape(n1, n2)
            out = -eps * laplacian(grid, X) + d2 * X
            return out.ravel()

        def precond(x):
            X = x.reshape(n1, n2)
            return np.fft.irfft2(np.fft.rfft2(X) / denom, s=(n1, n2)).ravel()

        A = spla.LinearOperator((size, size), matvec=matvec, dtype=float)
        M = spla.LinearOperator((size, size), matvec=precond, dtype=float)
        x, info = spla.minres(A, res.ravel(), M=M, rtol=1e-12, maxiter=4000)
        if not np.all(np.isfinite(x)):
            raise SingularJacobianError("torus Jacobian solve produced non-finite step", None)
        return x.reshape(n1, n2)

    return solve


# ---------------------------------------------------------------------------
# Newton refinement


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

    def residual(w):
        return gradient(Field(f.grid, w, eps), p).values

    res = residual(v)
    rn = sup_norm(res)
    history = [rn]
    iterations = 0
    if not math.isfinite(rn):
        # a NaN residual would fail the loop test below and read as converged
        raise NewtonDivergenceError(f"non-finite starting residual {rn!r}", history)

    while rn > cfg.tol_grad:
        if iterations >= cfg.max_newton:
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
        accepted = False
        first_step = None
        champion = None
        for cap in (MAX_STEP, None):
            w_v, w_res, w_rn = v, res, rn
            for _ in range(12):
                try:
                    step = solver(w_v, w_res)
                except SolverError:
                    if first_step is None:
                        raise
                    break
                if not np.all(np.isfinite(step)) or sup_norm(step) > 1e8 * (1.0 + sup_norm(w_v)):
                    if first_step is None:
                        raise SingularJacobianError(
                            "Newton step blew up (nearly singular Jacobian)",
                            _smallest_eigenvalue_estimate(f.grid, v, eps, p),
                        )
                    break
                size = sup_norm(step)
                if cap is not None and size > cap:
                    step = step * (cap / size)
                if first_step is None:
                    first_step = step
                w_v = w_v - step
                w_res = residual(w_v)
                w_rn = sup_norm(w_res)
                if not np.isfinite(w_rn) or w_rn > 1e3 * (1.0 + rn):
                    break
                if champion is None or w_rn < champion[2]:
                    champion = (w_v, w_res, w_rn)
                if w_rn < 0.3 * rn or w_rn <= cfg.tol_grad:
                    break
            if champion is not None and champion[2] < 0.3 * rn:
                break  # clear win, no need to retry with capped steps
        if champion is not None and champion[2] < rn:
            v, res, rn = champion
            accepted = True
        if not accepted and first_step is not None:
            alpha = DAMPING
            for _ in range(40):
                trial = v - alpha * first_step
                tres = residual(trial)
                trn = sup_norm(tres)
                if np.isfinite(trn) and trn < rn:
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
            if np.isfinite(trn) and trn < 0.5 * rn:
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
    _project=None,
) -> FlowTrace:
    """Semi-implicit energy descent; energy is monitored every step.

    An energy increase beyond the slack (after the 10-step transient) halves
    the step and retries; collapse below 1e-14 aborts, and so does a
    non-finite energy at any step.  Nodal angles are sampled into the trace
    when the stop rule asks for them.
    """
    cfg = cfg or SolveConfig()
    cfg.validate()
    stop = stop or StopRule()
    require_resolution(f.grid, f.epsilon, cfg.min_points_per_eps)

    eps = f.epsilon
    dt0 = cfg.flow_dt if cfg.flow_dt is not None else eps * f.grid.h
    dt = dt0
    stepper = _FlowStepper(f.grid, eps, dt)
    v = f.values.copy()
    if _project is not None:
        v = _project(v)

    max_steps = stop.max_steps if stop.max_steps is not None else cfg.max_flow_steps
    energies = [energy(Field(f.grid, v, eps), p)]
    angle_samples = []
    reason = "max_steps"
    # adaptive growth cap from explicit-term stability on the well force
    if stop.adapt_dt:
        curv = float(np.max(np.abs(p.d2w(np.linspace(-1.2, 1.2, 101)))))
        dt_cap = 0.5 * eps / max(curv, 1e-6)

    steps_done = 0
    for step_i in range(1, max_steps + 1):
        while True:
            v_new = stepper.step(v, p)
            if _project is not None:
                v_new = _project(v_new)
            e_new = energy(Field(f.grid, v_new, eps), p)
            # math.isfinite: np.isfinite costs about 1 us per step on a Python float
            if not math.isfinite(e_new):
                raise SolverError(f"non-finite energy {e_new!r} at flow step {step_i}")
            if step_i > 10 and e_new > energies[-1] + ENERGY_SLACK:
                dt *= 0.5
                if dt < 1e-14:
                    raise StepCollapseError(
                        f"flow step collapsed below 1e-14 at step {step_i}"
                    )
                stepper = _FlowStepper(f.grid, eps, dt)
                continue
            break
        v = v_new
        energies.append(e_new)
        steps_done = step_i

        if stop.track_nodal and step_i % stop.sample_every == 0:
            from .nodal import extract_nodal_set

            ns = extract_nodal_set(Field(f.grid, v, eps))
            angle_samples.append((step_i, ns.angles.copy()))
        if stop.grad_tol is not None and step_i % stop.grad_check_every == 0:
            gn = sup_norm(gradient(Field(f.grid, v, eps), p).values)
            if gn <= stop.grad_tol:
                reason = "grad_tol"
                break
        if stop.adapt_dt and step_i % 64 == 0 and dt < dt_cap:
            dt = min(dt * 1.4, dt_cap)
            stepper = _FlowStepper(f.grid, eps, dt)

    return FlowTrace(
        Field(f.grid, v, eps), np.asarray(energies), steps_done, angle_samples, reason, dt
    )


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
    projected semi-implicit flow from a sine bump, then Newton refinement.
    The result is classified positive only when its energy beats the zero
    field's by more than the trivial margin; otherwise it is the zero
    solution.  A linear-stability shortcut returns the zero solution
    immediately when the zero state is strictly stable, which for potentials
    satisfying the monotonicity axiom is exactly the no-transition regime.
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

    def project(v):
        v = np.clip(v, 0.0, 1.0)
        v[0] = v[-1] = 0.0
        return v

    chunk = 400
    steps_used = 0
    newton_attempts = 0
    flow_cfg = replace(cfg)

    while steps_used < cfg.max_flow_steps:
        this_chunk = min(chunk, cfg.max_flow_steps - steps_used)
        trace = gradient_flow(
            u, p, flow_cfg, StopRule(max_steps=this_chunk, adapt_dt=True), _project=project
        )
        u = trace.field
        steps_used += trace.steps
        e_u = trace.energies[-1]
        gn = sup_norm(gradient(u, p).values)

        if e_u < e_zero - TRIVIAL_MARGIN or gn < 1e-4:
            newton_attempts += 1
            try:
                nr = newton_refine(u, p, cfg)
            except SolverError:
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
        f"(energy {energy(u, p):.6g} vs zero-field {e_zero:.6g})"
    )


def existence_threshold(
    half_length: float,
    p: Potential,
    cfg: SolveConfig | None = None,
    rel_width: float = 1e-3,
) -> float:
    """Bisection estimate of the width below which a positive profile exists."""
    if not (half_length > 0.0):
        raise ValueError("half_length must be positive")
    cfg = cfg or SolveConfig()
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

    while (hi - lo) > rel_width * 0.5 * (hi + lo):
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
    n_model = v.size
    n = copies * (n_model - 1)
    circumference = copies * 2.0 * model.half_length
    pieces = [(1.0 if k % 2 == 0 else -1.0) * v[:-1] for k in range(copies)]
    values = np.concatenate(pieces)
    return Field(circle_grid(n, circumference), values, model.field.epsilon)


def multi_interface_seed(grid: Grid, epsilon: float, angles, first_sign: float = 1.0) -> Field:
    """Smooth saturated seed with one sign change at each requested angle."""
    if grid.kind not in ("circle", "torus"):
        raise ValueError("seed construction needs a periodic grid")
    L = grid.lengths[0]
    theta = grid.axis(0)
    u = np.full(theta.shape, float(first_sign))
    for z in np.atleast_1d(angles):
        s = (L / np.pi) * np.sin(np.pi * (theta - z) / L)
        u = u * np.tanh(s / (np.sqrt(2.0) * epsilon))
    if grid.kind == "torus":
        u = np.repeat(u[:, None], grid.shape[1], axis=1)
    return Field(grid, u, epsilon)
