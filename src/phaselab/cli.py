"""Command-line surface: solves, analyses, experiments.

Exit codes: 0 success, 1 failed assertion/check, 2 usage error (unknown
flags, invalid parameters, files that cannot be read or written).
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from pathlib import Path

import numpy as np

from . import experiments as xp
from .io import emit_plotdata, load_snapshot_with_meta, save_snapshot
from .nodal import (
    check_alternation,
    check_congruent_intervals,
    check_rotation_symmetry,
    extract_nodal_set,
    fit_decay,
)
from .potentials import check_double_well, make_potential, quartic
from .reports import canonical_json_bytes, canonicalize
from .solvers import (
    SolveConfig,
    SolverError,
    StopRule,
    existence_threshold,
    gradient_flow,
    newton_refine,
    reflect_extend,
    solve_dirichlet_model,
)

# flags shared by several commands; each command adds the ones it reads
COMMON = {
    "grid_n": ("--grid-n", {"type": int, "help": "grid points"}),
    "out": ("--out", {"type": str, "help": "output path"}),
    "tol": ("--tol", {"type": float, "help": "Newton residual tolerance"}),
    "json": ("--json", {"action": "store_true", "help": "print a JSON report to stdout"}),
}

EXPERIMENTS = {
    "two-interface": xp.experiment_two_interface,
    "m-rigidity": xp.experiment_m_rigidity,
    "decay": xp.experiment_decay,
    "comparison": xp.experiment_comparison,
    "slide": xp.experiment_slide,
}

# driver argument -> the option that sets it.  An experiment takes the options
# of the arguments in its driver's signature, plus --seed with --seeds and the
# common --tol (cfg), --out and --json; an option not given leaves the
# driver's default in force.
DRIVER_OPTIONS = {
    "m": ("--m", {"type": int, "help": "interface count"}),
    "eps_list": ("--eps", {"type": float, "nargs": "+", "metavar": "EPS", "help": "widths"}),
    "eps": ("--eps", {"type": float, "help": "width"}),
    "seeds": ("--seeds", {"type": int, "help": "number of seeds, counted from --seed"}),
    "n": ("--grid-n", {"type": int, "metavar": "N", "help": "grid points"}),
    "circle_n": ("--grid-n", {"type": int, "metavar": "N", "help": "circle grid points"}),
    "perturbation": ("--perturbation", {"type": float, "help": "displacement of one seed angle"}),
    "surfaces": ("--surfaces", {"nargs": "+", "choices": ["circle", "torus"]}),
    "circumference": ("--circumference", {"type": float}),
    "delta_fractions": ("--delta-fractions", {"type": float, "nargs": "+"}),
}


def _common(sub, *names):
    for name in names:
        flag, options = COMMON[name]
        sub.add_argument(flag, **options)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="phaselab", description=__doc__)
    sp = ap.add_subparsers(dest="command", required=True)

    s = sp.add_parser("check-potential", help="verify the double-well axioms")
    s.add_argument("--kind", choices=["quartic", "table"], default="quartic")
    s.add_argument("--table-file", type=str, help="JSON file with [[x, W(x)], ...]")
    s.add_argument("--samples", type=int, default=10_000)
    _common(s, "json")
    s.set_defaults(func=cmd_check_potential)

    s = sp.add_parser("solve-model", help="positive profile on an interval, or the zero state")
    s.add_argument("--l", type=float, required=True, help="interval half-length")
    s.add_argument("--eps", type=float, required=True)
    _common(s, "grid_n", "tol", "out", "json")
    s.set_defaults(func=cmd_solve_model)

    s = sp.add_parser("threshold", help="bisection estimate of the existence threshold")
    s.add_argument("--l", type=float, required=True)
    _common(s, "tol", "json")
    s.set_defaults(func=cmd_threshold)

    s = sp.add_parser("build-circle", help="glue a profile into an m-interface circle solution")
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--eps", type=float, required=True)
    _common(s, "grid_n", "tol", "out", "json")
    s.set_defaults(func=cmd_build_circle)

    s = sp.add_parser("refine", help="Newton-refine a snapshot")
    s.add_argument("--snapshot", type=str, required=True)
    _common(s, "tol", "out", "json")
    s.set_defaults(func=cmd_refine)

    s = sp.add_parser("flow", help="run the semi-implicit gradient flow on a snapshot")
    s.add_argument("--snapshot", type=str, required=True)
    s.add_argument("--steps", type=int, default=1000)
    s.add_argument("--dt", type=float, default=None)
    s.add_argument("--trace", type=str, default=None, help="CSV path for the energy/angle trace")
    s.add_argument("--track-nodal", action="store_true")
    _common(s, "out", "json")
    s.set_defaults(func=cmd_flow)

    s = sp.add_parser("analyze", help="nodal/congruence/alternation/symmetry/decay on a snapshot")
    s.add_argument("--snapshot", type=str, required=True)
    s.add_argument(
        "--what",
        nargs="+",
        choices=["nodal", "congruence", "alternation", "symmetry", "decay"],
        default=["nodal"],
    )
    s.add_argument("--m", type=int, default=None, help="interface count for the symmetry check")
    s.add_argument("--csv", type=str, default=None)
    _common(s, "json")
    s.set_defaults(func=cmd_analyze)

    s = sp.add_parser("experiment", help="run a named experiment")
    names = s.add_subparsers(dest="name", required=True, metavar="name")
    for name, driver in EXPERIMENTS.items():
        e = names.add_parser(name, help=inspect.getdoc(driver).splitlines()[0])
        params = inspect.signature(driver).parameters
        for arg, (flag, options) in DRIVER_OPTIONS.items():
            if arg in params:
                e.add_argument(flag, dest=arg, default=argparse.SUPPRESS, **options)
        if "seeds" in params:
            e.add_argument("--seed", type=int, default=0, help="first seed")
        e.add_argument("--csv", type=str, default=None, help="census CSV path")
        _common(e, "tol", "out", "json")
        e.set_defaults(func=cmd_experiment)

    return ap


def _cfg(args) -> SolveConfig:
    return SolveConfig() if args.tol is None else SolveConfig(tol_grad=args.tol)


def _emit_json(args, payload) -> None:
    if args.json:
        sys.stdout.write(canonical_json_bytes(payload).decode())


def _say(args, message: str) -> None:
    """Human-readable line; kept off stdout when --json asked for clean output."""
    print(message, file=sys.stderr if args.json else sys.stdout)


def cmd_check_potential(args) -> int:
    if args.kind == "table":
        if not args.table_file:
            raise ValueError("--table-file is required for kind=table")
        points = json.loads(Path(args.table_file).read_text())
        p = make_potential({"kind": "table", "points": points})
    else:
        p = quartic()
    report = check_double_well(p, args.samples)
    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        extra = f" (witness {c.witness:.6g}: {c.detail})" if not c.passed else ""
        _say(args, f"axiom {c.axiom} [{status}] {c.name}{extra}")
    _emit_json(args, report.as_dict())
    return 0 if report.passed else 1


def cmd_solve_model(args) -> int:
    p = quartic()
    sol = solve_dirichlet_model(args.l, args.eps, p, _cfg(args), n=args.grid_n)
    payload = {
        "status": sol.status,
        "half_length": sol.half_length,
        "eps": args.eps,
        "energy_gap": sol.energy_gap,
        "max_value": float(np.max(sol.field.values)),
        "diagnostics": canonicalize(sol.diagnostics),
    }
    _say(args, f"status: {sol.status} (energy gap {sol.energy_gap:.6g})")
    _emit_json(args, payload)
    if args.out:
        save_snapshot(sol.field, args.out, potential=p.describe())
    return 0


def cmd_threshold(args) -> int:
    p = quartic()
    est = existence_threshold(args.l, p, _cfg(args))
    _say(args, f"threshold estimate: {est:.6g}")
    _emit_json(args, {"half_length": args.l, "threshold": est})
    return 0


def cmd_build_circle(args) -> int:
    p = quartic()
    n = 1536 if args.grid_n is None else args.grid_n
    if n <= 0:
        raise ValueError(f"--grid-n must be positive, got {n}")
    if args.m < 2 or args.m % 2 != 0:
        raise ValueError(
            f"m = {args.m} rejected: the interface count must be even "
            "(sign alternation cannot close up around the circle otherwise)"
        )
    if n % args.m != 0:
        raise ValueError(f"grid points ({n}) must be divisible by m ({args.m})")
    half = np.pi / args.m
    n_model = n // args.m + 1
    sol = solve_dirichlet_model(half, args.eps, p, _cfg(args), n=n_model)
    if sol.status != "positive":
        print("no positive profile at this width; nothing to glue", file=sys.stderr)
        return 1
    glued = reflect_extend(sol, args.m)
    refined = newton_refine(glued, p, _cfg(args))
    out = args.out or f"circle_m{args.m}_eps{args.eps:g}.snap"
    save_snapshot(refined.field, out, potential=p.describe())
    _say(args, f"wrote {out} (residual {refined.residuals[-1]:.3e})")
    _emit_json(args, {"m": args.m, "eps": args.eps, "residual": refined.residuals[-1], "out": out})
    return 0


def cmd_refine(args) -> int:
    field, meta = load_snapshot_with_meta(args.snapshot)
    p = quartic() if meta["potential"] is None else make_potential(meta["potential"])
    result = newton_refine(field, p, _cfg(args))
    out = args.out or args.snapshot
    save_snapshot(result.field, out, potential=p.describe())
    _say(
        args,
        f"refined in {result.iterations} iterations; residual {result.residuals[-1]:.3e}; wrote {out}",
    )
    _emit_json(
        args,
        {"iterations": result.iterations, "residuals": result.residuals, "out": out},
    )
    return 0


def cmd_flow(args) -> int:
    if args.steps < 1:
        raise ValueError(f"--steps must be at least 1, got {args.steps}")
    field, meta = load_snapshot_with_meta(args.snapshot)
    p = quartic() if meta["potential"] is None else make_potential(meta["potential"])
    stop = StopRule(max_steps=args.steps, track_nodal=args.track_nodal)
    trace = gradient_flow(field, p, SolveConfig(flow_dt=args.dt), stop)
    out = args.out or args.snapshot
    save_snapshot(trace.field, out, potential=p.describe())
    _say(
        args,
        f"flowed {trace.steps} steps; energy {trace.energies[-1]:.6g}; wrote {out}",
    )
    if args.trace:
        emit_plotdata(trace, args.trace)
    _emit_json(args, {"steps": trace.steps, "final_energy": float(trace.energies[-1])})
    return 0


def cmd_analyze(args) -> int:
    field, _ = load_snapshot_with_meta(args.snapshot)
    ns = extract_nodal_set(field)
    payload: dict = {"nodal_count": ns.count, "angles": list(ns.angles)}
    ok = True
    if "congruence" in args.what:
        rep = check_congruent_intervals(ns)
        payload["congruence"] = {
            "max_rel_deviation": rep.max_rel_deviation,
            "passed": rep.passed,
        }
        ok &= rep.passed
        _say(args, f"congruence: {'PASS' if rep.passed else 'FAIL'} (rel dev {rep.max_rel_deviation:.3e})")
    if "alternation" in args.what:
        alt = check_alternation(field, ns)
        payload["alternation"] = bool(alt)
        ok &= alt
        _say(args, f"alternation: {'PASS' if alt else 'FAIL'}")
    if "symmetry" in args.what:
        m = args.m if args.m is not None else ns.count
        rep = check_rotation_symmetry(field, m)
        payload["symmetry"] = {
            "sign_flip_residual": rep.sign_flip_residual,
            "plain_residual": rep.plain_residual,
            "passed": rep.passed,
        }
        ok &= rep.passed
        _say(args, f"symmetry (m={m}): {'PASS' if rep.passed else 'FAIL'} (flip {rep.sign_flip_residual:.3e})")
    if "decay" in args.what:
        fit = fit_decay(field, ns)
        payload["decay"] = {
            "kappa": fit.kappa,
            "amplitude": fit.amplitude,
            "kappa_times_eps": fit.kappa * field.epsilon,
            "pointwise_factor": fit.pointwise_factor,
        }
        _say(args, f"decay: kappa*eps = {fit.kappa * field.epsilon:.4f}")
        if args.csv:
            emit_plotdata((fit, field, ns), args.csv)
    if "nodal" in args.what:
        _say(args, f"nodal points: {ns.count}")
        if args.csv and "decay" not in args.what:
            emit_plotdata(ns, args.csv)
    _emit_json(args, payload)
    return 0 if ok else 1


def _experiment_report(args):
    kw = {arg: getattr(args, arg) for arg in DRIVER_OPTIONS if hasattr(args, arg)}
    if "seeds" in kw:
        if kw["seeds"] < 0:
            raise ValueError(f"--seeds must be nonnegative, got {kw['seeds']}")
        kw["seeds"] = range(args.seed, args.seed + kw["seeds"])
    if args.tol is not None:
        kw["cfg"] = _cfg(args)
    return EXPERIMENTS[args.name](**kw)


def cmd_experiment(args) -> int:
    report = _experiment_report(args)
    for line in report.summary_lines():
        _say(args, line)
    if report.runtime_seconds is not None:
        _say(args, f"runtime: {report.runtime_seconds:.1f}s")
    if args.out:
        Path(args.out).write_bytes(report.to_json_bytes())
    if args.csv:
        emit_plotdata(report, args.csv)
    if args.json:
        sys.stdout.write(report.to_json_bytes().decode())
    return 0 if report.passed else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # ResolutionError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
