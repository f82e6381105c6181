"""Print the digests that show two checkouts compute the same results.

    python3 tools/report_digests.py ROOT [--seeds 7 101] [--dump DIR]
        [--workloads circle-census torus-census construct] [--against OTHER]

Runs the perfbench ``circle-census``, ``torus-census`` and ``construct``
passes (or the workloads named by ``--workloads``; torus-census is the one
pass that flows torus stacks of more than one field) in-process on the
phaselab sources under ``ROOT/src``, with the
seed sets of ``perfbench/run.py`` (``numpy.random.default_rng([seed, 0])``),
and prints one line per report or snapshot blob (its SHA-256) and one per
operation (its group, converged flag and correctness-gate failures).
Diffing the output of two checkouts shows every result that changed.
``--dump DIR`` also writes each blob to ``DIR/<workload>-<seed>-<name>``,
so that a changed report can be diffed.  ``--against OTHER`` runs both
checkouts, each in its own process, prints only the lines that differ
(``-`` for ROOT's, ``+`` for OTHER's) and a count of the identical ones,
and exits 1 when any line differs.  After the differing lines it prints
an outcome table, one row per workload and operation group: the runs, the
converged count in ROOT and in OTHER, and the runs that flipped each way
(``lost``: converged in ROOT only; ``gained``: converged in OTHER only).

The workloads and the operation clock are imported from ``ROOT/perfbench``
and used as they are.
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import re
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("circle-census", "torus-census", "construct")  # perfbench's names


def passes(root: Path, seeds, names=WORKLOADS):
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


def differing_lines(ours, theirs) -> list[str]:
    """The lines of two digest listings that differ, in listing order: each
    of ``ours`` that ``theirs`` lacks prefixed ``- ``, each of ``theirs``
    that ``ours`` lacks prefixed ``+ ``."""
    out = []
    matcher = difflib.SequenceMatcher(a=ours, b=theirs, autojunk=False)
    for tag, i1, i2, j1, j2 in matcher.get_opcodes():
        if tag != "equal":
            out += [f"- {line}" for line in ours[i1:i2]]
            out += [f"+ {line}" for line in theirs[j1:j2]]
    return out


OP_LINE = re.compile(r"(\S+) (\d+) op (\d+) (.+): converged=(True|False) ")


def outcome_table(ours, theirs) -> list[tuple]:
    """One row ``(workload, group, runs, converged in ours, converged in
    theirs, lost, gained)`` per workload and operation group of two digest
    listings, in order of first appearance.  A run is an op line, matched
    across the listings by workload, seed and op index; ``lost`` counts the
    runs that converged in ``ours`` only, ``gained`` those that converged in
    ``theirs`` only, and a run in one listing alone counts for that side's
    converged count and for ``runs``."""
    outcomes = ({}, {})
    for side, listing in zip(outcomes, (ours, theirs)):
        for line in listing:
            m = OP_LINE.match(line)
            if m:
                workload, seed, index, group, converged = m.groups()
                side[workload, seed, index] = (workload, group), converged == "True"
    rows = {}
    for key in {**outcomes[0], **outcomes[1]}:
        a, b = (side.get(key, (None, None)) for side in outcomes)
        row = rows.setdefault(a[0] or b[0], [0, 0, 0, 0, 0])
        row[0] += 1
        row[1] += bool(a[1])
        row[2] += bool(b[1])
        row[3] += a[1] is True and b[1] is False
        row[4] += a[1] is False and b[1] is True
    return [(*group, *counts) for group, counts in rows.items()]


def _listing(root: Path, seeds, names) -> list[str]:
    """This script's output on ``root``, run in a fresh interpreter (one
    process imports one phaselab)."""
    cmd = [sys.executable, __file__, str(root), "--seeds", *map(str, seeds), "--workloads", *names]
    return subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout.splitlines()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("root", type=Path, help="checkout whose src/ and perfbench/ to run")
    ap.add_argument("--seeds", type=int, nargs="+", default=[7, 101])
    ap.add_argument("--dump", type=Path, default=None, help="directory for the raw blobs")
    ap.add_argument(
        "--workloads", nargs="+", choices=WORKLOADS, default=WORKLOADS,
        help="perfbench workloads to run, in this order",
    )
    ap.add_argument(
        "--against", type=Path, default=None, metavar="OTHER",
        help="a second checkout: print only the lines that differ, exit 1 if any",
    )
    args = ap.parse_args(argv)

    if args.against:
        if args.dump:
            ap.error("--dump does not combine with --against")
        ours = _listing(args.root.resolve(), args.seeds, args.workloads)
        theirs = _listing(args.against.resolve(), args.seeds, args.workloads)
        diff = differing_lines(ours, theirs)
        for line in diff:
            print(line)
        print("workload       runs  ROOT OTHER  lost gained  group")
        for workload, group, runs, conv_ours, conv_theirs, lost, gained in outcome_table(
            ours, theirs
        ):
            print(
                f"{workload:13s} {runs:5d} {conv_ours:5d} {conv_theirs:5d} "
                f"{lost:5d} {gained:6d}  {group}"
            )
        same = len(ours) - sum(line.startswith("- ") for line in diff)
        print(f"{same} of {len(ours)} lines of ROOT identical in OTHER ({len(theirs)} lines)")
        return 1 if diff else 0
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
