"""Structure experiments: comparison, barriers, sliding, rigidity census.

Rigidity is treated as a census property of converged critical points: seeds
are perturbed, relaxed by flow plus Newton, classified, and the falsifiable
assertion is that no converged solution with the full interface count
violates congruence, alternation, or the rotation symmetry.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from .fields import Field, gradient, sup_norm
from .grids import TWO_PI, Grid, circle_grid, require_resolution, torus_grid
from .nodal import (
    SYMMETRY_TOL,
    IndeterminateSignError,
    check_alternation,
    check_congruent_intervals,
    check_rotation_symmetry,
    extract_nodal_set,
    fit_decay,
)
from .oracle import arc_lengths, arc_pressures
from .potentials import Potential, quartic
from .reports import ExperimentReport, assertion, canonicalize
from .solvers import (
    DAMPING,
    NewtonDivergenceError,
    SolveConfig,
    SolverError,
    StopRule,
    gradient_flows,
    multi_interface_seed,
    newton_refine,
    reflect_extend,
    solve_dirichlet_model,
    transverse_gap,
)

__all__ = [
    "ComparisonReport",
    "Barrier",
    "BarrierConstructionError",
    "SlideReport",
    "comparison_test",
    "build_barrier",
    "slide_to_touch",
    "experiment_two_interface",
    "experiment_m_rigidity",
    "experiment_decay",
    "experiment_comparison",
    "experiment_slide",
]

RESIDUAL_FORM = "-eps*lap(u) + W'(u)/eps"

# fixed values of the drivers; a report's config echoes each under its lower-case name
PHI_RANGE = (0.6 * np.pi, 1.4 * np.pi)  # two_interface: a seed's second angle
TWO_INTERFACE_FLOW_STEPS = 400  # two_interface: flow steps before each Newton solve, as flow_steps
ANGLE_TOL = 1e-4  # two_interface: largest antipodal deviation of a converged pair
NOISE_AMPLITUDE = 1e-3  # m_rigidity: transverse noise on each torus seed
M_RIGIDITY_FLOW_STEPS = 500  # m_rigidity: flow steps before each Newton solve, as flow_steps
CONGRUENCE_TOL = 1e-4  # m_rigidity: largest relative spacing deviation
TRANSVERSE_GAP_FLOOR = 0.05  # m_rigidity: smallest transverse gap of a fiber-reduced torus run
TRANSVERSE_SUP_FLOOR = 1e-2  # m_rigidity: largest |u - fiber mean| after the flow of a fiber-reduced torus run
ORACLE_GAP_FRACTION = 0.05  # m_rigidity: largest oracle gap, over the pressure spread, of a certified circle run
FORCE_FLOOR = 100.0  # m_rigidity: smallest predicted residual, over tol_grad, of a certified circle run
ARC_FLOOR = 6.0  # m_rigidity: shortest arc, over eps, of a certified circle run
SLOW_MANIFOLD_WINDOW = 0.05  # m_rigidity: largest relative miss of a guard run's residual from its prediction
RATE_WINDOW = 0.25  # decay: largest relative miss of the linearization rate
WIDTH_RATIO_WINDOW = 0.25  # decay: largest relative miss of the rate ratio from the width ratio
POINTWISE_SLACK = 2e-2  # decay: largest excess of the envelope over the fit
HALF_LENGTH = np.pi / 2.0  # comparison: the full interval's half-length


# ---------------------------------------------------------------------------
# comparison principle


@dataclass(frozen=True)
class ComparisonReport:
    status: str  # "holds" | "fails" | "inapplicable"
    reason: str
    min_gap: float | None = None
    min_gap_location: tuple | None = None
    interior_points: int = 0


def _mask_boundary(grid: Grid, mask: np.ndarray) -> np.ndarray:
    """Points of the mask with a neighbor outside it (or beyond an interval end)."""
    padded = np.pad(mask, 1, mode="wrap" if grid.periodic else "constant")
    core = [slice(1, -1)] * mask.ndim
    inside = np.ones_like(mask)
    for axis in range(mask.ndim):
        for side in (slice(None, -2), slice(2, None)):
            inside &= padded[tuple(core[:axis] + [side] + core[axis + 1 :])]
    return mask & ~inside


def _point_coordinates(grid: Grid, loc) -> tuple:
    return tuple(float(grid.axis(axis)[i]) for axis, i in enumerate(loc))


def comparison_test(
    u: Field,
    v: Field,
    domain_mask: np.ndarray,
    p: Potential,
) -> ComparisonReport:
    """Check the strict ordering u > v inside a sub-domain.

    Preconditions (violations classify the pair as inapplicable, not failed):
    both fields solve the criticality equation on the domain interior at the
    same width (residual at most 1e-8), u is strictly positive on the domain,
    and v vanishes on the domain boundary (|v| at most 1e-10).  A genuine
    failure on applicable inputs indicates a solver or discretization bug.
    """
    mask = np.asarray(domain_mask, dtype=bool)
    if u.grid != v.grid:
        return ComparisonReport("inapplicable", "fields live on different grids")
    if mask.shape != u.grid.shape:
        return ComparisonReport("inapplicable", "domain mask shape mismatch")
    if abs(u.epsilon - v.epsilon) > 1e-14 * max(u.epsilon, v.epsilon):
        return ComparisonReport("inapplicable", "fields solved at different widths")
    if not mask.any():
        return ComparisonReport("inapplicable", "empty domain")

    boundary = _mask_boundary(u.grid, mask)
    interior = mask & ~boundary
    if not interior.any():
        return ComparisonReport("inapplicable", "domain has no interior")

    if float(np.min(u.values[mask])) <= 0.0:
        return ComparisonReport("inapplicable", "u is not strictly positive on the domain")
    vb = float(np.max(np.abs(v.values[boundary])))
    if vb > 1e-10:
        return ComparisonReport(
            "inapplicable", f"v is not zero on the domain boundary (max |v| = {vb:.3e})"
        )

    for name, fld in (("u", u), ("v", v)):
        res = gradient(fld, p).values
        rn = float(np.max(np.abs(res[interior])))
        if rn > 1e-8:
            return ComparisonReport(
                "inapplicable",
                f"{name} is not a critical point on the domain interior (residual {rn:.3e})",
            )

    gap = u.values - v.values
    idx_flat = int(np.argmin(np.where(interior, gap, np.inf)))
    loc = np.unravel_index(idx_flat, u.grid.shape)
    min_gap = float(gap[loc])
    coords = _point_coordinates(u.grid, loc)
    if min_gap > 0.0:
        return ComparisonReport(
            "holds", "strict ordering verified", min_gap, coords, int(interior.sum())
        )
    return ComparisonReport(
        "fails",
        "ordering violated on applicable inputs; this indicates a solver bug",
        min_gap,
        coords,
        int(interior.sum()),
    )


# ---------------------------------------------------------------------------
# barriers and sliding


class BarrierConstructionError(ValueError):
    pass


@dataclass
class Barrier:
    """A three-lobe comparison profile, compactly supported on a circle or
    torus grid."""

    field: Field
    mask: np.ndarray
    center: float  # snapped to the grid
    width: float  # core half-width, snapped to the grid
    center_index: int
    half_steps: int  # support reaches center_index +- half_steps


def build_barrier(
    center: float,
    width: float,
    epsilon: float,
    p: Potential,
    grid: Grid,
    cfg: SolveConfig | None = None,
) -> Barrier:
    """Assemble a three-lobe sliding barrier from a positive interval profile.

    A positive core of half-width ``width`` is flanked by its odd reflections
    (negative lobes); the support is six half-widths.  Center and width are
    snapped to grid points so the odd symmetries are exact.
    """
    if not grid.periodic:
        raise ValueError("barriers live on circle or torus grids")
    cfg = cfg or SolveConfig()
    n = grid.shape[0]
    L = grid.lengths[0]
    h = L / n

    center_index = int(round((center % L) / h)) % n
    steps = int(round(width / h))
    if steps < 4:
        raise BarrierConstructionError(f"core half-width {width:.3g} spans under 4 grid steps")
    half_steps = 3 * steps

    if 2 * half_steps + 1 > n:
        raise BarrierConstructionError(
            f"barrier support ({2 * half_steps + 1} points) overlaps itself on the circle ({n} points)"
        )

    model = solve_dirichlet_model(steps * h, epsilon, p, cfg, n=2 * steps + 1)
    if model.status != "positive":
        raise BarrierConstructionError(
            f"no positive profile at width {epsilon:g} on a half-length {steps * h:.4g} piece; "
            "the barrier would vanish identically"
        )
    v = model.field.values
    # the core and its odd reflections about its two ends, each end (a zero of v) written once
    vals = np.concatenate([-v[:-1], v, -v[-2::-1]])

    circle_vals = np.zeros(n)
    idx = (center_index + np.arange(-half_steps, half_steps + 1)) % n
    circle_vals[idx] = vals
    mask = np.zeros(n, dtype=bool)
    mask[idx] = True

    return Barrier(
        Field(grid, grid.extrude(circle_vals), epsilon),
        grid.extrude(mask),
        (center_index * h) % L,
        steps * h,
        center_index,
        half_steps,
    )


@dataclass
class SlideReport:
    touched: bool
    offset: float | None
    offset_steps: int | None
    location: tuple | None
    interior: bool | None
    max_offset: float


def slide_to_touch(u: Field, barrier: Barrier, max_offset: float) -> SlideReport:
    """Slide the barrier toward smaller angles, in whole grid steps up to
    ``max_offset``, until the ordering barrier > u first fails.

    The monitored quantity is min(barrier - u) over the slid support; the
    first nonpositive minimum is the touching event.  The touch is interior
    when it does not occur at a support endpoint.
    """
    if u.grid != barrier.field.grid:
        raise ValueError("field and barrier live on different grids")
    g = u.grid
    h = g.h
    k_max = int(np.floor(max_offset / h + 1e-9))
    b0 = barrier.field.values
    m0 = barrier.mask

    gaps0 = (b0 - u.values)[m0]
    if float(np.min(gaps0)) <= 0.0:
        raise ValueError("ordering already violated at offset 0; sliding setup inapplicable")

    for k in range(1, k_max + 1):
        b = np.roll(b0, -k, axis=0)
        m = np.roll(m0, -k, axis=0)
        gaps = b - u.values
        masked = np.where(m, gaps, np.inf)
        idx_flat = int(np.argmin(masked))
        loc = np.unravel_index(idx_flat, g.shape)
        if float(gaps[loc]) <= 0.0:
            interior = not bool(_mask_boundary(g, m)[loc])
            return SlideReport(True, k * h, k, _point_coordinates(g, loc), interior, max_offset)
    return SlideReport(False, None, None, None, None, max_offset)


# ---------------------------------------------------------------------------
# relaxation helpers shared by the census experiments


def _fiber_reduced_newton(field: Field, p: Potential, cfg: SolveConfig, run: dict):
    """Refine a torus field through its fiber mean when the transverse
    certificate holds, else by the torus Newton solve: the NewtonResult,
    or the solve's SolverError raised.  The census row ``run`` gets
    ``path``, ``transverse_gap`` and ``transverse_sup`` either way.

    The field splits into its fiber mean ubar and w = u - ubar, whose sup
    norm is ``transverse_sup``.  ubar is refined by Newton on the circle of
    the torus' axis 0 (its length and point count), an O(n1) chain solve
    per step, and ``transverse_gap`` is taken there (solvers.transverse_gap)
    at the state Newton ended at: its result, or the last iterate it
    accepted when it gives up (NewtonDivergenceError.state), or ubar when
    it fails otherwise (a SingularJacobianError, say).  On a fibered state
    the torus Jacobian is J + eps mu_k on the fiber modes k, so a positive
    gap leaves the transverse equation near the state no solution but
    w = 0: every critical point near it is fibered (Lyapunov-Schmidt on the
    fiber modes).  With a gap of at least TRANSVERSE_GAP_FLOOR and w at most
    TRANSVERSE_SUP_FLOOR the run is ``fiber_reduced``: its result is the
    fibered extension of the circle's, whose torus residual is the circle
    residual broadcast along the fiber, bit for bit (the fiber second
    difference of a constant row is zero), and a failed circle solve
    raises its own error again.  Otherwise, NaN included, the field itself
    takes the torus Newton solve (``torus_newton``).
    """
    grid, eps = field.grid, field.epsilon
    mean = field.values.mean(axis=1)
    sup = sup_norm(field.values - mean[:, None])
    circle = Field(circle_grid(grid.shape[0], grid.lengths[0]), mean, eps)
    failure = None
    try:
        nr = newton_refine(circle, p, cfg)
        end = nr.field.values
    except NewtonDivergenceError as exc:
        failure, end = exc, exc.state
    except SolverError as exc:
        failure, end = exc, mean
    gap = transverse_gap(grid, eps, p, end)
    reduced = gap >= TRANSVERSE_GAP_FLOOR and sup <= TRANSVERSE_SUP_FLOOR
    run.update(path="fiber_reduced" if reduced else "torus_newton", transverse_gap=gap, transverse_sup=sup)
    if not reduced:
        return newton_refine(field, p, cfg)
    if failure is not None:
        raise failure
    return replace(nr, field=Field(grid, grid.extrude(nr.field.values), eps))


def _census_width(rows, seed_of, p: Potential, cfg: SolveConfig, flow_steps: int, judge, certify=None):
    """Relax one census width and fill its rows; the rows are returned.

    The width builds one seed per row, ``seed_of(row)``, in row order (the
    benchmark's operation clock counts the ``multi_interface_seed`` calls),
    and flows them all as one stack, ``flow_steps`` steps, each with the
    bits of the seed's own flow (``gradient_flows``).  Then each row is
    finished in order: its flow error, its certificate, its refine step
    (``newton_refine`` on a circle, ``_fiber_reduced_newton`` on a torus,
    which adds its own entries to the row), then ``judge(field,
    nodal_set)``, whose entries a converged row records with its final
    residual as ``residual``.  A SolverError of the flow or the refine step
    makes the row ``non_converged`` with the error's message, and with its
    ``final_residual`` when the error has a residual history; a judge's
    IndeterminateSignError (as at the zero state) makes it
    ``indeterminate_sign``, with the message and its ``interfaces``.

    ``certify(field, row)`` reads the width's ``guard`` row and, when the
    guard backs it, every row after it; a row it returns True on is finished
    there, without a refine step.  The gate is one predicate, evaluated once
    after the guard: the guard's Newton stagnation residual over its
    predicted residual, recorded as its ``guard_ratio``, lies within
    ``SLOW_MANIFOLD_WINDOW`` of 1.  The ratio is None, and the gate shut,
    when the certificate did not read the guard or Newton did not stagnate
    (it converged, or failed without a residual history).  The solvers are
    looked up in this module at call time, so a wrapper set on
    ``phaselab.experiments`` sees every call.
    """
    flows = gradient_flows([seed_of(row) for row in rows], p, cfg, StopRule(max_steps=flow_steps))
    read = None  # the certificate, from the guard on while the guard backs it
    for row, flowed in zip(rows, flows):
        guard = row.get("guard", False)
        if guard:
            read = certify
        try:
            if isinstance(flowed, SolverError):
                raise flowed
            field = flowed.field
            if read is not None and read(field, row):
                continue
            if field.values.ndim == 1:
                nr = newton_refine(field, p, cfg)
            else:
                nr = _fiber_reduced_newton(field, p, cfg, row)
        except SolverError as exc:
            row.update(outcome="non_converged", error=str(exc))
            if isinstance(exc, NewtonDivergenceError) and exc.residuals:
                row["final_residual"] = exc.residuals[-1]
        else:
            row["residual"] = nr.residuals[-1]
            ns = extract_nodal_set(nr.field)
            try:
                row.update(judge(nr.field, ns))
            except IndeterminateSignError as exc:
                row.update(interfaces=ns.count, outcome="indeterminate_sign", error=str(exc))
        if guard:
            stagnated = "final_residual" in row and "predicted_residual" in row
            row["guard_ratio"] = row["final_residual"] / row["predicted_residual"] if stagnated else None
            if row["guard_ratio"] is None or abs(row["guard_ratio"] - 1.0) > SLOW_MANIFOLD_WINDOW:
                read = None
    return rows


def _slow_manifold_certificate(field: Field, run: dict, p: Potential, m: int, tol_grad: float) -> bool:
    """Certify a flowed m-rigidity circle field as no critical point, from
    its arc pressures (``oracle.arc_pressures``), and finish its row.

    On the slow manifold every arc sits on the exact orbit of its length,
    and the residual there is the interfaces' force, (3/4) times the
    pressure spread (1 / (sqrt 2 sigma), sigma = 2 sqrt 2 / 3 the quartic's
    interface energy; Carr & Pego, CPAM 42, 1989).  The field is read when
    the potential has the oracle's closed form (``closed_form_orbits``), it
    has m nodal points and every arc is at least ``ARC_FLOOR`` eps long.  It
    is certified when, besides, the oracle gap is at most
    ``ORACLE_GAP_FRACTION`` of the spread and the predicted residual is at
    least ``FORCE_FLOOR`` times ``tol_grad``: the row ends ``non_converged``
    with reason ``slow_manifold_force`` and True is returned.  A read row
    records ``predicted_residual``, ``pressure_spread``, ``oracle_gap`` and
    ``arc_lengths``; a ``guard`` row records them and is never certified,
    so it runs Newton and checks the prediction.  No row gets a
    ``residual``: that key means a critical point was reached.
    """
    eps = field.epsilon
    ns = extract_nodal_set(field)
    if not (p.closed_form_orbits and ns.count == m and arc_lengths(ns).min() >= ARC_FLOOR * eps):
        return False
    ap = arc_pressures(field, ns)
    predicted = 0.75 * ap.pressure_spread
    run.update(
        predicted_residual=predicted,
        pressure_spread=ap.pressure_spread,
        oracle_gap=ap.oracle_gap,
        arc_lengths=ap.lengths.tolist(),
    )
    certified = (
        not run.get("guard")
        and ap.oracle_gap <= ORACLE_GAP_FRACTION * ap.pressure_spread
        and predicted >= FORCE_FLOOR * tol_grad
    )
    if certified:
        run.update(
            outcome="non_converged",
            reason="slow_manifold_force",
            error=f"certified non-stationary: arc pressure spread {ap.pressure_spread:.3e} "
            f"predicts residual {predicted:.3e} (target {tol_grad:.1e})",
        )
    return certified


def _experiment(name: str, tol_grad: float | None = None):
    """Make a driver that returns ``(runs, assertions[, derived])`` return an
    ExperimentReport whose config echoes every argument of the call.

    ``p`` defaults to the quartic and ``cfg`` to ``SolveConfig`` (with
    ``tol_grad`` when given); both are echoed as ``potential`` and ``solver``.
    ``n`` is echoed as ``grid_points``, a range as a list, and ``derived``
    (values the driver computes from its arguments, or module constants it
    echoes) is added as it is.  An ``eps_list`` or ``delta_fractions`` that
    repeats a value raises ValueError before the driver runs: it would run
    the same case twice, and an assertion across two of its values would
    compare a fit with itself.
    """

    def decorate(driver):
        signature = inspect.signature(driver)

        @functools.wraps(driver)
        def run(*args, **kwargs):
            t0 = time.perf_counter()
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            kw = bound.arguments
            for key in ("eps_list", "delta_fractions"):
                values = list(kw.get(key, ()))
                if len(set(values)) < len(values):
                    raise ValueError(f"{name}: {key} repeats a value: {values}")
            kw["p"] = kw["p"] or quartic()
            if kw["cfg"] is None:
                kw["cfg"] = SolveConfig() if tol_grad is None else SolveConfig(tol_grad=tol_grad)
            config = {
                "potential": kw["p"].describe(),
                "solver": {**asdict(kw["cfg"]), "damping": DAMPING},
                "residual_form": RESIDUAL_FORM,
            }
            for key, value in kw.items():
                if key not in ("p", "cfg"):
                    config["grid_points" if key == "n" else key] = (
                        list(value) if isinstance(value, range) else value
                    )
            runs, assertions, *derived = driver(**kw)
            if not runs:
                raise ValueError(f"{name}: the call produced no run")
            config.update(*derived)
            report = ExperimentReport(name, canonicalize(config), runs, assertions)
            report.runtime_seconds = time.perf_counter() - t0
            return report

        return run

    return decorate


# ---------------------------------------------------------------------------
# two-interface census


@_experiment("two_interface_antipodality", tol_grad=1e-12)
def experiment_two_interface(
    eps_list=(0.2, 0.25),
    seeds=tuple(range(12)),
    n: int = 256,
    p: Potential | None = None,
    cfg: SolveConfig | None = None,
):
    """Relax random two-interface seeds and check converged pairs are antipodal.

    Each seed draws a second interface angle phi in ``PHI_RANGE``, the first
    at zero, and flows ``TWO_INTERFACE_FLOW_STEPS`` steps before Newton.
    Every converged critical point with exactly two nodal points must have
    its angles half a circumference apart to ``ANGLE_TOL``.  Non-converged
    runs and runs that escape to a different interface count are recorded
    separately, never counted as counterexamples.
    """

    def judge(field, ns):
        if ns.count != 2:
            return dict(outcome=f"escaped_{ns.count}_nodal")
        gap = float(np.abs(ns.angles[1] - ns.angles[0]))
        dev = abs(min(gap, TWO_PI - gap) - np.pi)
        return dict(
            outcome="converged_pair",
            angles=list(ns.angles),
            antipodal_deviation=dev,
            antipodal=dev <= ANGLE_TOL,
        )

    def seed_of(row):
        rng = np.random.default_rng(row["seed"])
        row["phi"] = float(rng.uniform(*PHI_RANGE))
        return multi_interface_seed(grid, row["eps"], [0.0, row["phi"]])

    grid = circle_grid(n)
    for eps in eps_list:  # every width, before the first flow
        require_resolution(grid, eps, cfg.min_points_per_eps)
    runs = []
    for eps in eps_list:
        rows = [{"eps": eps, "seed": int(seed)} for seed in seeds]
        runs += _census_width(rows, seed_of, p, cfg, TWO_INTERFACE_FLOW_STEPS, judge)

    pairs = [r for r in runs if r.get("outcome") == "converged_pair"]
    bad = [r for r in pairs if not r["antipodal"]]
    worst = max((r["antipodal_deviation"] for r in pairs), default=None)
    assertions = [
        assertion(
            "every_converged_pair_antipodal",
            len(bad) == 0,
            measured=worst,
            tolerance=ANGLE_TOL,
            detail=f"{len(bad)} counterexamples among {len(pairs)} converged pairs",
        ),
        assertion(
            "census_nonvacuous",
            len(pairs) >= 1,
            measured=float(len(pairs)),
            tolerance=1.0,
            detail="at least one run must converge with two nodal points",
        ),
    ]
    return runs, assertions, {
        "phi_range": PHI_RANGE, "angle_tol": ANGLE_TOL, "flow_steps": TWO_INTERFACE_FLOW_STEPS
    }


# ---------------------------------------------------------------------------
# m-interface rigidity census


def _rigidity_seed(grid: Grid, eps: float, m: int, seed: int, perturbation: float, noisy: bool):
    """``(angles, field)`` of the m-rigidity seed ``seed``: m equally spaced
    angles at a random rotation, the second moved by ``perturbation``, and
    with ``noisy`` NOISE_AMPLITUDE normal noise at every point."""
    rng = np.random.default_rng(seed)
    rho = float(rng.uniform(0.0, TWO_PI))
    angles = (rho + np.arange(m) * (TWO_PI / m)) % TWO_PI
    angles[1] = (angles[1] + perturbation) % TWO_PI
    field0 = multi_interface_seed(grid, eps, angles)
    if noisy:
        field0 = field0.with_values(field0.values + NOISE_AMPLITUDE * rng.standard_normal(grid.shape))
    return angles, field0


@_experiment("m_interface_rigidity", tol_grad=1e-12)
def experiment_m_rigidity(
    m: int = 4,
    eps_list=(0.1, 0.15),
    seeds=tuple(range(10)),
    perturbation: float = 0.3,
    surfaces=("circle", "torus"),
    circle_n: int = 512,
    torus_n=(256, 64),
    p: Potential | None = None,
    cfg: SolveConfig | None = None,
    torus_points_per_eps: float = 4.0,
):
    """Seed m interfaces with one displaced angle and census the relaxed runs.

    Converged critical points carrying exactly m interfaces (m nodal angles on
    the circle, m nodal fiber circles on the torus) must pass spacing
    congruence (``CONGRUENCE_TOL``), sign alternation, and the rotate-and-flip
    symmetry (``SYMMETRY_TOL``); everything else lands in the census as escaped
    or non-converged, or as ``indeterminate_sign`` (neither symmetric nor a
    violation) when an arc's sign cannot be read.  Torus runs add transverse
    noise (``NOISE_AMPLITUDE``) to the seed so one-dimensional artifacts
    cannot mask genuinely two-dimensional instabilities.  Each seed flows
    ``M_RIGIDITY_FLOW_STEPS`` steps before Newton.

    A torus run is refined through its fiber mean on the circle of the
    torus' axis 0, and certified by the transverse gap lambda_min(J) +
    eps * mu_1 of the torus Jacobian at the circle's end state
    (``_fiber_reduced_newton``): a gap of at least ``TRANSVERSE_GAP_FLOOR``
    and a transverse part after the flow of at most ``TRANSVERSE_SUP_FLOOR``
    mean that every critical point near the state is fibered, and the run
    is judged on the fibered extension of the circle's result.  A run that
    misses either floor takes the torus Newton solve instead.  Each torus
    row records its ``path`` (``fiber_reduced`` or ``torus_newton``),
    ``transverse_gap`` and ``transverse_sup``, and a config with a torus
    echoes both floors.

    A circle run whose flowed field the slow-manifold certificate reads
    records its arc pressures, and ends there, ``non_converged`` with reason
    ``slow_manifold_force``, when the certificate holds
    (``_slow_manifold_certificate``).  The first perturbed seed of each
    width is the ``guard``: it is read, never certified, and takes Newton.
    The width's later runs are read only when the guard stagnated within
    ``SLOW_MANIFOLD_WINDOW`` of its predicted residual; otherwise (Newton
    moved it off the prediction, it converged, or it was not read) they all
    take Newton.  The guard records that ratio as ``guard_ratio``
    (``_census_width``).  A config with a circle echoes the certificate's
    constants.
    """
    if m < 4 or m % 2 != 0:
        raise ValueError(
            f"m = {m} rejected: the interface count must be an even integer >= 4 "
            "(sign alternation cannot close up around the circle otherwise)"
        )
    if not math.isfinite(perturbation):
        raise ValueError(f"perturbation must be finite, got {perturbation!r}")
    torus_cfg = replace(cfg, min_points_per_eps=torus_points_per_eps)
    setups = []
    for surface in surfaces:  # every (surface, width), before the first flow
        if surface not in ("circle", "torus"):
            raise ValueError(f"unknown surface {surface!r}")
        grid, run_cfg = (circle_grid(circle_n), cfg) if surface == "circle" else (torus_grid(*torus_n), torus_cfg)
        if grid.shape[0] % m != 0:
            raise ValueError(f"{surface} grid point count {grid.shape[0]} must be divisible by m = {m}")
        for eps in eps_list:
            require_resolution(grid, eps, run_cfg.min_points_per_eps)
        setups.append((surface, grid, run_cfg))

    def judge(field, ns):
        count = ns.count
        if count != m:
            # still a converged critical point: its own structure must hold
            # (even count, alternation, congruent spacings)
            ok = count == 0 or (
                count % 2 == 0
                and check_alternation(field, ns)
                and check_congruent_intervals(ns, rel_tol=CONGRUENCE_TOL).passed
            )
            outcome = f"escaped_{count}_interfaces" if ok else "rigidity_violation"
            return dict(interfaces=count, outcome=outcome, structure_ok=bool(ok))
        cong = check_congruent_intervals(ns, rel_tol=CONGRUENCE_TOL)
        sym = check_rotation_symmetry(field, m)
        alternating = check_alternation(field, ns)
        ok = cong.passed and sym.passed and alternating
        return dict(
            interfaces=count,
            outcome="converged_symmetric" if ok else "rigidity_violation",
            spacing_rel_deviation=cong.max_rel_deviation,
            sign_flip_residual=sym.sign_flip_residual,
            plain_rotation_residual=sym.plain_residual,
            alternating=bool(alternating),
            nodal_angles=list(ns.angles),
        )

    runs = []
    for surface, grid, run_cfg in setups:
        certify = None
        if surface == "circle":
            certify = functools.partial(_slow_manifold_certificate, p=p, m=m, tol_grad=cfg.tol_grad)

        def seed_of(row):
            pert = perturbation if row["kind"] == "perturbed" else 0.0
            angles, field0 = _rigidity_seed(grid, row["eps"], m, row["seed"], pert, surface == "torus")
            row["seed_angles"] = list(angles)
            return field0

        for eps in eps_list:
            # control run: unperturbed spacing at a generic rotation; the
            # symmetric solutions must be reachable on every surface/width
            cases = [("control", 10_000 + len(runs))]
            cases += [("perturbed", int(seed)) for seed in seeds]
            rows = [{"surface": surface, "eps": eps, "seed": seed, "kind": label} for label, seed in cases]
            if certify is not None and len(rows) > 1:
                rows[1]["guard"] = True  # the first perturbed seed
            runs += _census_width(rows, seed_of, p, run_cfg, M_RIGIDITY_FLOW_STEPS, judge, certify)

    violations = [r for r in runs if r.get("outcome") == "rigidity_violation"]
    symmetric = [r for r in runs if r.get("outcome") == "converged_symmetric"]
    perturbed = [r for r in runs if r["kind"] == "perturbed"]
    reached = sum("residual" in r for r in perturbed)
    worst_spacing = max((r["spacing_rel_deviation"] for r in symmetric + violations if "spacing_rel_deviation" in r), default=None)
    assertions = [
        assertion(
            "no_converged_run_breaks_rigidity",
            len(violations) == 0,
            measured=worst_spacing,
            tolerance=CONGRUENCE_TOL,
            detail=f"{len(violations)} violations in {len(runs)} runs; "
            f"{reached} of {len(perturbed)} perturbed runs reached a critical point",
        ),
    ]
    for surface in surfaces:
        for eps in eps_list:
            hits = [
                r
                for r in symmetric
                if r["surface"] == surface and r["eps"] == eps and r["kind"] == "control"
            ]
            assertions.append(
                assertion(
                    f"symmetric_solution_found_{surface}_eps_{eps:g}",
                    len(hits) >= 1,
                    measured=float(len(hits)),
                    tolerance=1.0,
                    detail="the equal-spacing control seed must relax to the symmetric solution",
                )
            )
    derived = {
        "noise_amplitude": NOISE_AMPLITUDE, "congruence_tol": CONGRUENCE_TOL, "symmetry_tol": SYMMETRY_TOL,
        "flow_steps": M_RIGIDITY_FLOW_STEPS,
    }
    if "circle" in surfaces:
        derived.update(
            oracle_gap_fraction=ORACLE_GAP_FRACTION, force_floor=FORCE_FLOOR, arc_floor=ARC_FLOOR,
            slow_manifold_window=SLOW_MANIFOLD_WINDOW,
        )
    if "torus" in surfaces:
        derived.update(transverse_gap_floor=TRANSVERSE_GAP_FLOOR, transverse_sup_floor=TRANSVERSE_SUP_FLOOR)
    return runs, assertions, derived



# ---------------------------------------------------------------------------
# exponential decay away from the nodal set


@_experiment("nodal_distance_decay")
def experiment_decay(
    eps_list=(0.05, 0.025),
    n: int = 2048,
    p: Potential | None = None,
    cfg: SolveConfig | None = None,
):
    """Fit the decay of |u^2 - 1| on two-interface solutions across widths.

    The fitted rate must match the linearization rate sqrt(W''(1)) / eps to
    ``RATE_WINDOW`` and must double (within ``WIDTH_RATIO_WINDOW``) when
    the width halves.
    The envelope constant bounds the gap at every resolvable grid point by
    construction; the assertion is that it exceeds the least-squares
    amplitude by at most ``POINTWISE_SLACK`` (the fixed 2*eps fit window
    leaves a deterministic ~1% shortfall from the subleading profile term,
    so the slack is 2%).
    """
    rate_coeff = float(np.sqrt(p.d2w(1.0)))
    runs = []
    fits = {}
    for eps in eps_list:
        n_model = n // 2 + 1
        model = solve_dirichlet_model(np.pi / 2.0, eps, p, cfg, n=n_model)
        two = reflect_extend(model, 2)
        nr = newton_refine(two, p, cfg)
        ns = extract_nodal_set(nr.field)
        fit = fit_decay(nr.field, ns)
        fits[eps] = fit
        runs.append(
            {
                "eps": eps,
                "kappa": fit.kappa,
                "amplitude": fit.amplitude,
                "envelope_amplitude": fit.envelope_amplitude,
                "kappa_times_eps": fit.kappa * eps,
                "rms_residual": fit.rms_residual,
                "fit_points": fit.n_points,
                "pointwise_factor": fit.pointwise_factor,
                "outcome": "fitted",
            }
        )

    assertions = []
    for eps in eps_list:
        ratio = fits[eps].kappa * eps / rate_coeff
        assertions.append(
            assertion(
                f"rate_matches_linearization_eps_{eps:g}",
                abs(ratio - 1.0) <= RATE_WINDOW,
                measured=ratio,
                tolerance=RATE_WINDOW,
                detail="kappa * eps / sqrt(W''(1))",
            )
        )
        assertions.append(
            assertion(
                f"pointwise_bound_eps_{eps:g}",
                fits[eps].pointwise_bound_holds(POINTWISE_SLACK),
                measured=fits[eps].pointwise_factor,
                tolerance=1.0 + POINTWISE_SLACK,
                detail="envelope/least-squares amplitude ratio; the envelope bounds every resolvable grid point",
            )
        )
    eps_sorted = sorted(eps_list, reverse=True)
    for a, b in zip(eps_sorted, eps_sorted[1:]):
        expected = a / b
        ratio = fits[b].kappa / fits[a].kappa
        assertions.append(
            assertion(
                f"rate_scales_with_inverse_width_{a:g}_to_{b:g}",
                abs(ratio / expected - 1.0) <= WIDTH_RATIO_WINDOW,
                measured=ratio,
                tolerance=expected * WIDTH_RATIO_WINDOW,
                detail=f"kappa({b:g}) / kappa({a:g}) vs width ratio {expected:g}",
            )
        )
    return runs, assertions, {
        "rate_window": RATE_WINDOW,
        "width_ratio_window": WIDTH_RATIO_WINDOW,
        "pointwise_slack": POINTWISE_SLACK,
    }


# ---------------------------------------------------------------------------
# comparison scenario


@_experiment("comparison_principle")
def experiment_comparison(
    eps: float = 0.1,
    n: int = 257,
    p: Potential | None = None,
    cfg: SolveConfig | None = None,
):
    """Documented ordering scenario plus a deliberate precondition violation.

    The positive profile on the interval of ``HALF_LENGTH`` must
    strictly dominate the half-width profile extended by zero; feeding the
    test a sub-field that does not vanish on the domain boundary must classify
    as inapplicable.
    """
    if (n - 1) % 4 != 0:
        raise ValueError("n - 1 must be divisible by 4 so the half-width endpoints sit on the grid")

    big = solve_dirichlet_model(HALF_LENGTH, eps, p, cfg, n=n)
    if big.status != "positive":
        raise SolverError("full-interval profile unexpectedly trivial")
    quarter = (n - 1) // 4
    n_sub = 2 * quarter + 1
    small = solve_dirichlet_model(HALF_LENGTH / 2.0, eps, p, cfg, n=n_sub)
    if small.status != "positive":
        raise SolverError("half-width profile unexpectedly trivial")

    grid = big.field.grid
    v_vals = np.zeros(grid.shape)
    v_vals[quarter : quarter + n_sub] = small.field.values
    v = Field(grid, v_vals, eps)
    mask = np.zeros(grid.shape, dtype=bool)
    mask[quarter : quarter + n_sub] = True

    main = comparison_test(big.field, v, mask, p)
    ones = Field(grid, np.ones(grid.shape), eps)
    const_case = comparison_test(ones, v, mask, p)
    bad_v = Field(grid, big.field.values.copy(), eps)
    inapplicable_case = comparison_test(big.field, bad_v, mask, p)

    runs = [
        {"case": "nested_profiles", **asdict(main), "outcome": main.status},
        {"case": "constant_one_vs_profile", **asdict(const_case), "outcome": const_case.status},
        {"case": "nonzero_boundary_sub_field", **asdict(inapplicable_case), "outcome": inapplicable_case.status},
    ]
    assertions = [
        assertion(
            "nested_profiles_strictly_ordered",
            main.status == "holds" and (main.min_gap or 0.0) > 0.0,
            measured=main.min_gap,
            tolerance=0.0,
            detail=main.reason,
        ),
        assertion(
            "constant_state_dominates",
            const_case.status == "holds" and (const_case.min_gap or 0.0) > 0.0,
            measured=const_case.min_gap,
            tolerance=0.0,
            detail=const_case.reason,
        ),
        assertion(
            "precondition_violation_is_inapplicable",
            inapplicable_case.status == "inapplicable",
            detail=inapplicable_case.reason,
        ),
    ]
    return runs, assertions, {"half_length": HALF_LENGTH}


# ---------------------------------------------------------------------------
# sliding-barrier pipeline


def _bump(theta: np.ndarray, center: float, half_width: float, L: float) -> np.ndarray:
    """C1 compactly supported bump: cos^2 taper, unit height."""
    t = (theta - center + 0.5 * L) % L - 0.5 * L
    out = np.zeros_like(theta)
    inside = np.abs(t) < half_width
    out[inside] = np.cos(0.5 * np.pi * t[inside] / half_width) ** 2
    return out


def _counterfactual_field(
    grid: Grid,
    eps: float,
    sigma: np.ndarray,
    delta: float,
    barrier_max: float,
    bump_offset: float,
) -> Field:
    """Synthetic field with the hypothesized non-alternating sign layout.

    Deep negative between the first and third marked angles, genuine
    transitions at those two angles, a small positive bump (zeros within
    ``delta`` of the second angle, off-center by ``bump_offset``), and a
    mirrored negative dip at the fourth angle so every marked angle has
    nearby zeros.
    """
    L = grid.lengths[0]
    theta = grid.axis(0)
    t1, t2, t3, t4 = sigma
    base = multi_interface_seed(grid, eps, [t1, t3]).values
    peak = 0.3 * barrier_max
    u = (
        base
        + (1.0 + peak) * _bump(theta, t2 + bump_offset, 0.6 * delta, L)
        - (1.0 + peak) * _bump(theta, t4, 0.6 * delta, L)
    )
    return Field(grid, u, eps)


@_experiment("sliding_barrier")
def experiment_slide(
    eps: float = 0.1,
    m: int = 4,
    circumference: float = 8.0 * np.pi,
    n: int = 2048,
    delta_fractions=(0.5, 0.25),
    p: Potential | None = None,
    cfg: SolveConfig | None = None,
):
    """Sliding-barrier mechanics on the non-alternating counterfactual.

    For each fraction of the maximal localization radius (one sixth of the
    interface gap), build the three-lobe barrier at the second marked angle,
    verify it dominates the counterfactual field, slide it toward smaller
    angles, and check the first touch lands strictly inside the slid support
    at an offset below twice the radius.  The circle is sized so the barrier
    profile is nontrivial at every tested radius: positive profiles need a
    half-length above pi*eps/2, the existence threshold.  ``m`` must be 4,
    the number of angles the counterfactual field marks, and each fraction
    must lie in (0, 1].
    """
    if m != 4:
        raise ValueError(f"m = {m} rejected: the counterfactual field marks exactly four angles")
    for frac in delta_fractions:
        if not 0.0 < frac <= 1.0:
            raise ValueError(f"each delta fraction must lie in (0, 1], got {frac!r}")
    grid = circle_grid(n, circumference)
    require_resolution(grid, eps, cfg.min_points_per_eps)
    h = grid.h
    gap = circumference / m
    delta_max = gap / 6.0

    runs = []
    assertions = []
    for frac in delta_fractions:
        delta = frac * delta_max
        steps = int(round(delta / h))
        delta = steps * h
        rho = 0.5 * gap  # keep the marked angles off the wrap point
        sigma = (rho + np.arange(m) * gap) % circumference
        center = round(sigma[1] / h) * h % circumference
        sigma[1] = center

        run = {"delta_fraction": frac, "delta": delta, "sigma": list(sigma)}
        try:
            barrier = build_barrier(center, delta, eps, p, grid, cfg)
        except BarrierConstructionError as exc:
            run.update(outcome="barrier_trivial", error=str(exc))
            runs.append(run)
            assertions.append(
                assertion(
                    f"touch_before_two_delta_frac_{frac:g}",
                    False,
                    detail=f"barrier construction failed: {exc}",
                )
            )
            continue
        vmax = float(np.max(barrier.field.values))
        u = _counterfactual_field(grid, eps, sigma, delta, vmax, 0.2 * delta)
        slide = slide_to_touch(u, barrier, max_offset=3.0 * delta)
        run.update(
            outcome="touched" if slide.touched else "no_touch",
            barrier_max=vmax,
            **asdict(slide),
        )
        runs.append(run)
        ok = slide.touched and slide.offset < 2.0 * delta and slide.interior
        assertions.append(
            assertion(
                f"touch_before_two_delta_frac_{frac:g}",
                ok,
                measured=slide.offset,
                tolerance=2.0 * delta,
                detail="first touch offset vs twice the localization radius",
            )
        )
        assertions.append(
            assertion(
                f"touch_interior_frac_{frac:g}",
                bool(slide.touched and slide.interior),
                detail="touch point must not lie on the slid support boundary",
            )
        )

    return runs, assertions, {"delta_max": delta_max}
