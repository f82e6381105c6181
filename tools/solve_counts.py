"""Print what each benchmark pass asks of the solvers, counted at their factories.

    python3 tools/solve_counts.py ROOT [--seeds 7 101]
        [--workloads circle-census torus-census construct]

Runs the perfbench passes as ``tools/report_digests.py`` runs them (its
``passes``: in-process, on the phaselab sources under ``ROOT/src``) with
the solver factories of ``phaselab.solvers`` wrapped, and prints one line
per pass and count:

    jacobian_solves KIND   Newton's Jacobian solves on grids of that kind
    residual_rows          fields evaluated by the residual kernels the
                           solvers build, each row of a stack as one
    backtracks             calls of Newton's line search, ``_backtrack``
    flow_factorizations    flow solvers built: one per flow stack and step
                           size (a dpttrf factorization, or a torus symbol)
    flow_steps_per_field   flow steps, each field of a stack counted

The counts do not depend on the machine, so two checkouts' listings can be
diffed; the perfbench tracer times the layers but does not see these.
"""

from __future__ import annotations

import argparse
import collections
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import report_digests  # noqa: E402

WRAPPED = ("_make_jacobian_solver", "residual_kernel", "_make_flow_solver", "_backtrack")
KEYS = (
    *(f"jacobian_solves {kind}" for kind in ("interval", "circle", "torus")),
    "residual_rows", "backtracks", "flow_factorizations", "flow_steps_per_field",
)


def install(solvers) -> collections.Counter:
    """Wrap the ``WRAPPED`` names of the module ``solvers`` (a
    phaselab.solvers) for good; the returned Counter receives the counts."""
    counts = collections.Counter()
    make_jacobian, make_residual, make_flow, backtrack = (getattr(solvers, name) for name in WRAPPED)

    def jacobian_solver(grid, eps, p):
        solve = make_jacobian(grid, eps, p)
        key = f"jacobian_solves {grid.kind}"

        def counted(v, res):
            counts[key] += 1
            return solve(v, res)

        return counted

    def residual_kernel(grid, eps, p):
        residual = make_residual(grid, eps, p)

        def counted(v):
            counts["residual_rows"] += len(v) if v.ndim > len(grid.shape) else 1
            return residual(v)

        return counted

    def flow_solver(grid, eps, dt):
        step = make_flow(grid, eps, dt)
        counts["flow_factorizations"] += 1

        def counted(v, out):
            counts["flow_steps_per_field"] += out.size // grid.npoints
            return step(v, out)

        return counted

    def counted_backtrack(*args):
        counts["backtracks"] += 1
        return backtrack(*args)

    for name, wrapper in zip(WRAPPED, (jacobian_solver, residual_kernel, flow_solver, counted_backtrack)):
        setattr(solvers, name, wrapper)
    return counts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("root", type=Path, help="checkout whose src/ and perfbench/ to run")
    ap.add_argument("--seeds", type=int, nargs="+", default=[7, 101])
    ap.add_argument(
        "--workloads", nargs="+", choices=report_digests.WORKLOADS, default=report_digests.WORKLOADS,
        help="perfbench workloads to run, in this order",
    )
    args = ap.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src")]  # passes imports this phaselab again, from the module cache
    import phaselab.solvers

    counts = install(phaselab.solvers)
    for name, seed, _ in report_digests.passes(root, args.seeds, args.workloads):
        for key in KEYS:
            print(f"{name} {seed} {key} {counts[key]}")
        counts.clear()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
