"""phaselab census benchmark: time to verdict, convergence share, per-layer cost.

Run from the repository root:

    python3 perfbench/run.py --workload circle-census --seed 1 --seconds 20 --trace 0

Workloads (closed loop, one caller, BLAS/OpenMP pools capped at one thread,
the default allocator):

    circle-census  c06 two-interface census + c07 rigidity census on the circle
    construct      threshold, c05 gluings, decay/comparison/slide, torus flow,
                   torus control relaxation, snapshot round trips and report
                   serialization
    torus-census   c07 rigidity census on the 256x64 torus (MINRES Jacobians);
                   not in BENCHMARK.json: one pass costs 40-60 s and its cost
                   varies 2x with the seed, so it cannot be made steady within
                   the benchmark's time budget.  Run it by hand, over many
                   seeds, to judge a torus Jacobian change.

The command is a controller: it imports no phaselab and runs the passes in
worker processes, one at a time.  Each worker imports phaselab from this
checkout, warms up every layer (its set-up time), runs its passes and reports
them as JSON.

A timed run (``--trace 0``) works through a fixed list of seed sets (five on
``circle-census``, three on ``construct``), drawn from ``--seed`` and the
set's index, so the same seed gives the same inputs.  Each round through the
list runs in a fresh worker: two rounds always, and up to three on
``circle-census`` and eight on ``construct`` while another round still fits
in ``--seconds``.
Fresh workers matter: how much memory glibc hands back to the kernel after a
pass, and faults in again on the next, depends on where long-lived objects
happened to land in the heap, and each round samples that anew.  Every repeat
of a set must reproduce the first round's report and snapshot bytes exactly
(the c11 replay property, here across processes).

The host is shared: identical work runs up to 1.8x slower for seconds to
minutes at a time, in CPU time as much as in wall time, so neither the fastest
repeat nor a longer run removes the slowdown.  Timed workers therefore gauge
the host's speed at every operation boundary with a fixed reference kernel
(``tracing.ReferenceKernel``: scipy and numpy work of the kinds a relaxation
does, no phaselab code), run between operations so that neither counts it.
Each operation's latency is scaled by the kernel's nominal time over its mean
time at the operation's two ends: the times reported are those at the host
speed at which the kernel takes ``ReferenceKernel.NOMINAL_S``, the speed of an
undisturbed 2-vCPU Xeon VM.  On such a host pass times vary 1.8x while the
scaled ones vary 3% (coefficient of variation).  The raw per-pass walls,
without the kernel's runs, are kept in the run record.

An operation's latency is the median of its scaled latencies over the repeats
of its set, and a set's time to verdict is the sum over its operations.
``wall_s`` is the mean of that over the sets.  The inputs stay the same
whatever the program's speed, so a faster program gets no extra repeats.  The
latency percentiles and the convergence share are taken over every operation
of the list.  ``setup_s`` is the median set-up time of the workers and of
extra set-up probes, at least seven in all.  It is not scaled: set-up, mostly
imports, slows about 1.3x when the kernel slows 1.7x, so scaling it would
swap one error for another.  ``peak_rss_mb`` is the largest peak RSS of a
worker.

A traced run (``--trace 1``) uses one worker, which runs fresh seed sets twice
each, plain then traced; the traced pass must reproduce the plain pass's bytes
(which shows that the wrappers change nothing), the per-layer metrics come
from the traced passes, and the difference between the two is the tracing
overhead.

Every pass goes through the correctness gate: reports pass, no rigidity
violation, converged residuals at or below ``tol_grad``, bit-exact snapshot
round trips, and byte-identical replays.  Any failure makes the run exit 1.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a per-run record (machine, seeds,
census counts per group, all metrics, per-pass walls, reference kernel times
and minor page faults) and, for traced runs, the spans are written under
``perfbench/out/``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402  (standard library only at import; no phaselab)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 7
WORKER_TIMEOUT = 150
# (seed sets, rounds) of a timed run: it runs through its fixed list of seed
# sets at most that many times, so a faster program gets no extra repeats
ROUNDS = {"circle-census": (5, 3), "construct": (3, 8), "torus-census": (1, 2)}
# Rounds a timed run always makes: every set is replayed at least once.
MIN_ROUNDS = 2

# Metric names, units and bounds live in BENCHMARK.json at the repository root.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# Layer times that are exactly zero on workloads that never call the layer
# (model solves and snapshot I/O outside ``construct``): printed and kept in
# the run record, but not part of the result line.
PRINT_ONLY_UNITS = {
    "solvers.model.s": "s",
    "solvers.threshold.s": "s",
    "io.save.s": "s",
    "io.load.s": "s",
    "self.io.s": "s",
    "trace.spans": "count",
}


def cap_threads() -> dict:
    """One caller, one thread: BLAS/OpenMP pools capped at 1 (below nproc).

    A second OpenBLAS thread makes the torus MINRES solves no faster, doubles
    their CPU time by spinning, and slows a pass many times over whenever
    anything else wants the other CPU.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return {var: os.environ[var] for var in THREAD_VARS}


def check_sources() -> None:
    if not (SRC / "phaselab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no phaselab sources under {SRC}")


def import_phaselab():
    """Import phaselab from this checkout's ``src/``, nowhere else."""
    check_sources()
    sys.path.insert(0, str(SRC))
    import phaselab

    if Path(phaselab.__file__).resolve().parent != (SRC / "phaselab").resolve():
        raise SystemExit(f"perfbench: imported phaselab from {phaselab.__file__}, not {SRC}")
    return phaselab


def setup(workdir):
    """Import plus one warm-up call per layer; returns the phaselab package."""
    pl = import_phaselab()
    import workloads

    workloads.warm_up(pl, workdir)
    return pl


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile (numpy's default)."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def census_counts(ops) -> dict:
    groups = {}
    for op in ops:
        g = groups.setdefault(op["group"], {"attempted": 0, "converged": 0, "failed": 0})
        g["attempted"] += 1
        g["converged"] += int(op["converged"])
        g["failed"] += int(bool(op["failures"]))
    return groups


def digest(blobs: dict) -> dict:
    """What a replay is compared on: a SHA-256 per blob, not the bytes."""
    return {name: hashlib.sha256(data).hexdigest() for name, data in blobs.items()}


def check_replay(first: dict, again: dict) -> list:
    """Byte-identity of everything the replay of a seed set must reproduce."""
    a, b = first["digests"], again["digests"]
    bad = [k for k in a if a[k] != b.get(k)] + [k for k in b if k not in a]
    if len(first["ops"]) != len(again["ops"]):
        bad.append("operation count")
    return [f"replay differs: {k}" for k in sorted(set(bad))]


# ---------------------------------------------------------------------------
# worker: runs passes in this process and prints them as one JSON line


def worker(args) -> dict:
    pl = setup(args.workdir)
    setup_s = time.perf_counter() - T_START
    if args.setup_probe:
        return {"setup_s": setup_s}

    import numpy as np
    import scipy

    import phaselab.experiments
    import workloads

    tracer = tracing.Tracer() if args.trace else None
    clock = tracing.OpClock(tracer, None if args.trace else tracing.ReferenceKernel())
    if args.workload != "construct":  # a census marks each relaxation; construct marks its own
        clock.install(phaselab.experiments)
    workload = workloads.WORKLOADS[args.workload]

    def one_pass(set_index, traced):
        rng = np.random.default_rng([args.seed, set_index])
        marks = len(clock.refs)
        if traced:
            tracer.install(pl)
        try:
            res = workload(pl, clock, rng, args.workdir)
        finally:
            if traced:
                tracer.uninstall()
        for path in res.files:
            path.unlink(missing_ok=True)
        return {
            "set": set_index,
            "traced": traced,
            "wall": res.wall - sum(clock.refs[marks:]),  # without the reference kernel's runs
            "census_rows": res.census_rows,
            "digests": digest(res.blobs),
            "ops": [
                {"group": op.group, "latency": op.latency, "ref": op.ref,
                 "converged": bool(op.converged), "failures": op.failures}
                for op in res.ops
            ],
        }

    # A traced worker runs plain/traced pairs of fresh seed sets while time
    # remains; a timed worker runs the run's list of seed sets once.
    if args.trace:
        units = ([(i, False), (i, True)] for i in itertools.count())
    else:
        units = iter([[(i, False) for i in range(args.sets)]])

    passes, raised = [], []
    t_run = time.perf_counter()
    for unit in units:
        for set_index, traced in unit:
            faults_before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            try:
                rec = one_pass(set_index, traced)
            except Exception:
                traceback.print_exc()
                raised.append(f"pass {len(passes)} (seed set {set_index}) raised")
                break
            rec["minor_faults"] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults_before
            passes.append(rec)
        if raised or time.perf_counter() - t_run >= args.seconds:
            break

    out = {
        "setup_s": setup_s,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "passes": passes,
        "raised": raised,
    }
    plain = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    if traced_passes:
        layer = tracing.summarize(tracer, len(traced_passes), sum(p["wall"] for p in traced_passes))
        layer["experiments.runs"] = sum(p["census_rows"] for p in traced_passes) / len(traced_passes)
        layer["trace.overhead_s"] = statistics.median(
            t["wall"] - p["wall"] for p, t in zip(plain, traced_passes)
        )
        spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.csv.gz"
        tracer.write_spans(spans_path)
        out["layer"] = layer
        out["traced_wall_s"] = statistics.median(p["wall"] for p in traced_passes)
        out["spans_file"] = str(spans_path.relative_to(ROOT))
    return out


def start_worker(args, workdir, *extra) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker", "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(args.trace), "--workdir", str(workdir), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# controller: schedules the workers, checks replays, aggregates, reports


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=("circle-census", "construct", "torus-census"), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--sets", type=int, default=1, help=argparse.SUPPRESS)
    ap.add_argument("--workdir", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    threads = cap_threads()
    if args.worker:
        print(json.dumps(worker(args)))
        return 0

    check_sources()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        return run(args, threads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, threads, workdir) -> int:
    workers, failures = [], []
    if args.trace:
        schedule = [("--seconds", str(args.seconds))]
    else:
        sets, rounds = ROUNDS[args.workload]
        schedule = [("--sets", str(sets), "--seconds", "0")] * rounds
    # After the first MIN_ROUNDS, another round starts only if a round as
    # long as the longest so far still ends within --seconds.
    t_run = time.perf_counter()
    longest = 0.0
    for extra in schedule:
        elapsed = time.perf_counter() - t_run
        if len(workers) >= MIN_ROUNDS and elapsed + longest > args.seconds:
            break
        try:
            workers.append(start_worker(args, workdir, *extra))
        except Exception as exc:
            failures.append(f"worker {len(workers)}: {exc}")
            break
        longest = max(longest, time.perf_counter() - t_run - elapsed)
        failures += workers[-1]["raised"]
        if failures:
            break
    setup_samples = [w["setup_s"] for w in workers]
    if not args.trace and not failures:
        for _ in range(SETUP_SAMPLES - len(setup_samples)):
            setup_samples.append(start_worker(args, workdir, "--setup-probe")["setup_s"])

    passes = [p for w in workers for p in w["passes"]]
    first_of_set = {}
    for p in passes:
        first = first_of_set.setdefault(p["set"], p)
        if p is not first:
            mismatch = check_replay(first, p)
            for op in p["ops"]:
                op["failures"].extend(mismatch)

    raised = len(failures)  # a pass or worker that failed counts as one failed operation
    ops = [op for p in passes for op in p["ops"]]
    failed_ops = [op for op in ops if op["failures"]]
    failures += [f"{op['group']}: {'; '.join(op['failures'])}" for op in failed_ops[:20]]
    attempted = len(ops) + raised
    failed = len(failed_ops) + raised
    correct = failed == 0

    repeats = {}
    for p in passes:
        if not p["traced"]:
            repeats.setdefault(p["set"], []).append(p)
    set_ops = [op for reps in repeats.values() for op in reps[0]["ops"]]
    metrics, lat_ms = {}, []
    if repeats and correct and not args.trace:  # traced workers run no reference kernel
        # An operation's latency is scaled to the host speed at which the
        # reference kernel takes its nominal time, using the kernel's time
        # around that operation; its latency is then the median over the
        # repeats of its set, and a set's time to verdict is the sum over its
        # operations.
        nominal = tracing.ReferenceKernel.NOMINAL_S
        op_lats = [
            [statistics.median(lats)
             for lats in zip(*([op["latency"] * nominal / op["ref"] for op in p["ops"]] for p in reps))]
            for reps in repeats.values()
        ]
        lat_ms = [1e3 * lat for lats in op_lats for lat in lats]
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": statistics.fmean(sum(lats) for lats in op_lats),
            "relax_ms_p50": quantile(lat_ms, 0.5),
            "relax_ms_p90": quantile(lat_ms, 0.9),
            "converged_frac": sum(op["converged"] for op in set_ops) / len(set_ops),
            "peak_rss_mb": max(w["maxrss_mb"] for w in workers),
        }
    extra = {
        "error_frac": failed / max(1, attempted),
        "passes": len(passes),
        "workers": len(workers),
        "seed_sets": len(repeats),
        "repeats_per_set": [len(reps) for reps in repeats.values()],
        "pass_sets": [p["set"] for p in passes],
        "pass_walls_s": [p["wall"] for p in passes],
        "pass_ref_kernel_ms": [1e3 * statistics.median(op["ref"] for op in p["ops"])
                               for p in passes if not p["traced"]],
        "pass_minor_faults": [p["minor_faults"] for p in passes],
        "worker_peak_rss_mb": [w["maxrss_mb"] for w in workers],
        "latency_samples": len(lat_ms),
        "setup_samples_s": setup_samples,
    }
    layer = {}
    for w in workers:
        if "layer" in w:
            layer = w["layer"]
            extra["traced_wall_s"] = w["traced_wall_s"]
            extra["spans_file"] = w["spans_file"]

    versions = workers[0]["versions"] if workers else {}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {"nproc": NPROC, "cpu": cpu_model(), **versions, "threads": threads},
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "census": census_counts(set_ops),
        "end_to_end": metrics,
        "extra": extra,
        "per_layer": layer,
    }
    tag = "trace" if args.trace else "timed"
    (OUT / f"{args.workload}-seed{args.seed}-{tag}.json").write_text(json.dumps(record, indent=2) + "\n")

    m = record["machine"]
    print(f"workload {args.workload}  seed {args.seed}  workers {len(workers)}  passes {len(passes)}  "
          f"nproc {m['nproc']}  cpu {m['cpu']}")
    print(f"python {m.get('python')}  numpy {m.get('numpy')}  scipy {m.get('scipy')}  "
          f"threads {m['threads']}")
    for group, c in sorted(record["census"].items()):
        print(f"census {group}: {c['converged']}/{c['attempted']} reached a critical point, "
              f"{c['failed']} failed")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {END_TO_END_UNITS[name]}")
    print(f"error_frac = {extra['error_frac']:.6g} ratio ({failed}/{attempted})")
    print(f"seed sets = {len(repeats)}, repeats {extra['repeats_per_set']}, "
          f"latency samples = {len(lat_ms)}")
    for name, value in layer.items():
        unit = PER_LAYER_UNITS.get(name) or PRINT_ONLY_UNITS[name]
        print(f"{name} = {value:.6g} {unit}")
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)

    values, units = (layer, PER_LAYER_UNITS) if args.trace else (metrics, END_TO_END_UNITS)
    shown = {k: {"value": values[k], "unit": u} for k, u in units.items()} if correct else {}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": shown}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
