"""Print the digests that show two checkouts compute the same results.

    python3 tools/report_digests.py ROOT [--seeds 7 101] [--dump DIR]
        [--workloads circle-census construct]

Runs the perfbench ``circle-census`` and ``construct`` passes (or the
workloads named by ``--workloads``; ``torus-census`` covers the torus
census) in-process on the phaselab sources under ``ROOT/src``, with the
seed sets of ``perfbench/run.py`` (``numpy.random.default_rng([seed, 0])``),
and prints one line per report or snapshot blob (its SHA-256) and one per
operation (its group, converged flag and correctness-gate failures).
Diffing the output of two checkouts shows every result that changed.
``--dump DIR`` also writes each blob to ``DIR/<workload>-<seed>-<name>``,
so that a changed report can be diffed.

The workloads and the operation clock are imported from ``ROOT/perfbench``
and used as they are.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("circle-census", "torus-census", "construct")  # perfbench's names
DEFAULT_WORKLOADS = ("circle-census", "construct")


def passes(root: Path, seeds, names=DEFAULT_WORKLOADS):
    """Yield ``(workload, seed, PassResult)`` for each pass of the named
    benchmark workloads, run in-process on the phaselab sources under
    ``root/src``."""
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import numpy as np

    import phaselab as pl
    import phaselab.experiments
    import tracing
    import workloads

    if Path(pl.__file__).resolve().parent != root / "src" / "phaselab":
        raise SystemExit(f"imported phaselab from {pl.__file__}, not {root / 'src'}")
    original_seed = phaselab.experiments.multi_interface_seed
    with tempfile.TemporaryDirectory() as workdir:
        for name in names:
            clock = tracing.OpClock()
            if name != "construct":  # a census marks each relaxation; construct marks its own
                clock.install(phaselab.experiments)
            try:
                for seed in seeds:
                    rng = np.random.default_rng([seed, 0])
                    res = workloads.WORKLOADS[name](pl, clock, rng, workdir)
                    yield name, seed, res
                    for path in res.files:
                        path.unlink(missing_ok=True)
            finally:
                phaselab.experiments.multi_interface_seed = original_seed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("root", type=Path, help="checkout whose src/ and perfbench/ to run")
    ap.add_argument("--seeds", type=int, nargs="+", default=[7, 101])
    ap.add_argument("--dump", type=Path, default=None, help="directory for the raw blobs")
    ap.add_argument(
        "--workloads", nargs="+", choices=WORKLOADS, default=DEFAULT_WORKLOADS,
        help="perfbench workloads to run, in this order",
    )
    args = ap.parse_args(argv)

    if args.dump:
        args.dump.mkdir(parents=True, exist_ok=True)
    for name, seed, res in passes(args.root.resolve(), args.seeds, args.workloads):
        for blob, data in sorted(res.blobs.items()):
            print(f"{name} {seed} {blob} {hashlib.sha256(data).hexdigest()}")
            if args.dump:
                out = args.dump / f"{name}-{seed}-{blob.replace(':', '-')}"
                out.write_bytes(data)
        for i, op in enumerate(res.ops):
            print(
                f"{name} {seed} op {i} {op.group}: "
                f"converged={bool(op.converged)} failures={op.failures}"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
