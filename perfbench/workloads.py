"""The three benchmark workloads, their warm-up and their correctness gate.

A workload pass takes a numpy ``Generator`` (derived from the benchmark seed
and the pass's seed-set index) and returns a ``PassResult``: the wall time to
the verdict, one ``Op`` per operation with its latency and the reference
kernel's time around it, and the bytes that a replay of the same seed set must
reproduce exactly.  Census seeds are drawn
from the generator; phaselab only ever sees the generated integers.

Library functions are always looked up on the ``phaselab`` package at call
time, so the tracer's wrappers take effect when they are installed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * np.pi
SEED_LIMIT = 2**31


@dataclass
class Op:
    group: str
    converged: bool
    failures: list = field(default_factory=list)
    latency: float = 0.0
    ref: float = 0.0  # reference kernel time around the operation (0: not gauged)


@dataclass
class PassResult:
    wall: float
    ops: list
    blobs: dict  # name -> bytes a replay of the same seed set must reproduce
    census_rows: int = 0
    files: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# census workloads


def _census(pl, clock, experiment, **kwargs):
    """Run one census; split it into per-relaxation ops at seed constructions."""
    start = len(clock.starts)
    report = getattr(pl, experiment)(**kwargs)
    clock.mark()
    return report, clock.span(start)


def _census_ops(report, spans) -> list:
    """One op per census row, with the row-level checks of the gate.

    ``spans`` holds one ``(latency, reference time)`` pair per relaxation.
    """
    failures_all = [] if report.passed else [f"{report.experiment}: report failed"]
    if len(spans) != len(report.runs):
        failures_all.append(
            f"{report.experiment}: {len(spans)} seed constructions for {len(report.runs)} rows"
        )
    tol = report.config["solver"]["tol_grad"]
    ops = []
    for row, (latency, ref) in zip(report.runs, spans):
        surface = row.get("surface", "circle")
        kind = row.get("kind", "random")
        failures = list(failures_all)
        if row["outcome"] == "rigidity_violation":
            failures.append("rigidity_violation")
        converged = "residual" in row
        if converged and not row["residual"] <= tol:
            failures.append(f"converged residual {row['residual']:.3e} above tol_grad {tol:.1e}")
        group = f"{report.experiment} {surface} eps={row['eps']:g} {kind}"
        ops.append(Op(group, converged, failures, latency, ref))
    return ops


def circle_census(pl, clock, rng, workdir) -> PassResult:
    """c06 two-interface census, then the c07 rigidity census on the circle."""
    two_seeds = [int(s) for s in rng.integers(0, SEED_LIMIT, 12)]
    rig_seeds = [int(s) for s in rng.integers(0, SEED_LIMIT, 10)]
    t0 = time.perf_counter()
    two, two_lat = _census(
        pl, clock, "experiment_two_interface", eps_list=(0.2, 0.25), seeds=two_seeds, n=256
    )
    rig, rig_lat = _census(
        pl, clock, "experiment_m_rigidity", m=4, eps_list=(0.1, 0.15), seeds=rig_seeds,
        surfaces=("circle",), circle_n=512,
    )
    blobs = {"two_interface": two.to_json_bytes(), "m_rigidity": rig.to_json_bytes()}
    wall = time.perf_counter() - t0
    ops = _census_ops(two, two_lat) + _census_ops(rig, rig_lat)
    return PassResult(wall, ops, blobs, len(two.runs) + len(rig.runs))


def torus_census(pl, clock, rng, workdir) -> PassResult:
    """c07 rigidity census on the 256x64 torus: a control and two perturbed seeds per width.

    Two perturbed seeds per width (the c07 config has ten) keep one pass about
    as long as a run, so the tail latency rests on two stagnating eps = 0.1
    relaxations instead of one.
    """
    seeds = [int(s) for s in rng.integers(0, SEED_LIMIT, 2)]
    t0 = time.perf_counter()
    rig, lat = _census(
        pl, clock, "experiment_m_rigidity", m=4, eps_list=(0.1, 0.15), seeds=seeds,
        surfaces=("torus",), torus_n=(256, 64), torus_points_per_eps=4.0,
    )
    blobs = {"m_rigidity": rig.to_json_bytes()}
    wall = time.perf_counter() - t0
    return PassResult(wall, _census_ops(rig, lat), blobs, len(rig.runs))


# ---------------------------------------------------------------------------
# construction pipeline


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def construct(pl, clock, rng, workdir) -> PassResult:
    """Threshold, c05 gluings, decay/comparison/slide, torus flow and control, I/O round trips.

    Each operation is marked here, so the census hook on seed constructions
    must not be installed: the drivers below build seeds inside operations.
    """
    from phaselab.solvers import SolveConfig, StopRule

    p = pl.quartic()
    ops, fields, reports = [], [], []
    tag = f"{time.perf_counter_ns()}"

    def op(group, fn):
        clock.mark()
        converged, failures = fn()
        ops.append(Op(group, converged, failures))

    def threshold():
        est = pl.existence_threshold(np.pi / 2, p)
        oracle = 2.0 * (np.pi / 2) * float(np.sqrt(-p.d2w(0.0))) / np.pi
        ok = abs(est - oracle) <= 0.01 * oracle
        return False, [] if ok else [f"threshold {est:.5f} vs oracle {oracle:.5f}"]

    def glue(m, eps):
        def run():
            n = 1536
            sol = pl.solve_dirichlet_model(np.pi / m, eps, p, SolveConfig(tol_grad=1e-11), n=n // m + 1)
            nr = pl.newton_refine(pl.reflect_extend(sol, m), p)
            f = nr.field
            ns = pl.extract_nodal_set(f)
            failures = []
            tol = SolveConfig().tol_grad
            converged = nr.converged and nr.residuals[-1] <= tol
            if not converged:
                failures.append(f"Newton residual {nr.residuals[-1]:.3e} above {tol:.1e}")
            if ns.count != m:
                failures.append(f"{ns.count} nodal points, expected {m}")
            elif not pl.check_congruent_intervals(ns).passed:
                failures.append("spacings not congruent")
            elif not pl.check_alternation(f, ns):
                failures.append("signs do not alternate")
            elif not pl.check_rotation_symmetry(f, m).passed:
                failures.append("rotate-and-flip symmetry fails")
            fields.append((f"c05_m{m}_eps{eps:g}", f))
            return converged, failures
        return run

    def experiment(name, **kwargs):
        def run():
            rep = getattr(pl, name)(**kwargs)
            reports.append(rep)
            return False, [] if rep.passed else [f"{rep.experiment}: report failed"]
        return run

    def torus_flow():
        grid = pl.torus_grid(256, 64)
        eps = 0.15
        rho = float(rng.uniform(0.0, TWO_PI))
        angles = (rho + np.arange(4) * (TWO_PI / 4)) % TWO_PI
        angles[1] = (angles[1] + 0.3) % TWO_PI
        seed = pl.multi_interface_seed(grid, eps, angles)
        trace = pl.gradient_flow(
            seed, p, SolveConfig(min_points_per_eps=4.0),
            StopRule(max_steps=500, sample_every=50, track_nodal=True),
        )
        failures = []
        rises = np.diff(trace.energies[11:])
        if rises.size and rises.max() > 1e-8:
            failures.append(f"energy rose by {rises.max():.2e}")
        if len(trace.angle_samples) != 10:
            failures.append(f"{len(trace.angle_samples)} nodal samples, expected 10")
        fields.append(("torus_flow", trace.field))
        return False, failures

    def torus_control():
        # the equal-spacing control seed relaxed on the c07 torus: the MINRES
        # Jacobian path, with a cost that does not depend on the seed
        rep = pl.experiment_m_rigidity(
            m=4, eps_list=(0.15,), seeds=(), surfaces=("torus",), torus_n=(256, 64),
            torus_points_per_eps=4.0,
        )
        reports.append(rep)
        (row,) = _census_ops(rep, [(0.0, 0.0)])
        return row.converged, row.failures

    def round_trip(name, f):
        path = Path(workdir) / f"{name}-{tag}.snap"

        def run():
            pl.save_snapshot(f, path, potential=p.describe())
            g = pl.load_snapshot(path)
            same = (
                g.grid == f.grid
                and g.epsilon == f.epsilon
                and np.array_equal(_bits(g.values), _bits(f.values))
            )
            return False, [] if same else [f"snapshot {name} round trip not bit-exact"]
        return path, run

    def to_json(rep):
        def run():
            blobs[f"report:{rep.experiment}"] = rep.to_json_bytes()
            return False, []
        return run

    blobs = {}
    paths = []
    first = len(clock.starts)
    t0 = time.perf_counter()
    op("threshold", threshold)
    for m in (2, 4, 6):
        for eps in (0.05, 0.1, 0.15):
            op(f"c05 m={m} eps={eps:g}", glue(m, eps))
    op("decay", experiment("experiment_decay", eps_list=(0.05, 0.025), n=2048))
    op("comparison", experiment("experiment_comparison"))
    op("slide", experiment("experiment_slide", eps=0.1, m=4, delta_fractions=(0.5, 0.25)))
    op("torus flow", torus_flow)
    op("torus control", torus_control)
    for name, f in fields:
        path, run = round_trip(name, f)
        paths.append((name, path))
        op("round trip torus" if name == "torus_flow" else "round trip circle", run)
    for rep in reports:
        op("to_json", to_json(rep))
    clock.mark()
    wall = time.perf_counter() - t0
    for o, (latency, ref) in zip(ops, clock.span(first)):
        o.latency, o.ref = latency, ref

    for name, path in paths:
        blobs[f"snapshot:{name}"] = path.read_bytes()
    return PassResult(wall, ops, blobs, sum(len(r.runs) for r in reports), [pth for _, pth in paths])


WORKLOADS = {
    "circle-census": circle_census,
    "torus-census": torus_census,
    "construct": construct,
}


# ---------------------------------------------------------------------------
# warm-up: one call into each layer before anything is timed


def warm_up(pl, workdir) -> None:
    from phaselab.grids import circle_grid, torus_grid
    from phaselab.reports import ExperimentReport
    from phaselab.solvers import SolveConfig, SolverError, StopRule

    p = pl.quartic()
    cfg = SolveConfig(min_points_per_eps=4.0)
    circle = pl.multi_interface_seed(circle_grid(128), 0.5, [0.0, np.pi])
    torus = pl.multi_interface_seed(torus_grid(32, 16), 1.0, [0.0, np.pi])
    for f in (circle, torus):
        pl.energy(f, p)
        flowed = pl.gradient_flow(f, p, cfg, StopRule(max_steps=20)).field
        try:
            pl.newton_refine(flowed, p, cfg)
        except SolverError:
            pass
        pl.extract_nodal_set(flowed)
    model = pl.solve_dirichlet_model(np.pi / 2, 0.2, p, n=129)
    glued = pl.reflect_extend(model, 2)
    pl.check_congruent_intervals(pl.extract_nodal_set(glued))
    path = Path(workdir) / "warm-up.snap"
    pl.save_snapshot(glued, path)
    pl.load_snapshot(path)
    path.unlink()
    ExperimentReport("warm_up", {"seed": 0}).to_json_bytes()
