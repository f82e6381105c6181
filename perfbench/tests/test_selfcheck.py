"""Self-check of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.

A traced run replays every seed set, plain then traced, and its gate fails on
any byte difference, so a passing traced run shows that the wrappers change
no report, snapshot or census row.  The per-layer self times, with the
experiment drivers' own time, must account for the traced wall time to
within 5%.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

pl = run.import_phaselab()


def _traced_run(workload, seed=7):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace.json").read_text())
    return proc, result, record


@pytest.mark.parametrize("workload", ["construct", "circle-census", "torus-census"])
def test_traced_pass_matches_plain_pass_and_self_times_add_up(workload):
    proc, result, record = _traced_run(workload)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert result["correct"] and result["failed"] == 0, record["failures"]
    assert record["extra"]["passes"] == 2  # one plain and one traced pass of seed set 0
    assert set(result["metrics"]) == set(run.PER_LAYER_UNITS)
    accounted = result["metrics"]["trace.accounted_frac"]["value"]
    assert abs(accounted - 1.0) <= 0.05


def test_replay_check_reports_differing_bytes():
    def pass_record(blobs, ops=()):
        return {"digests": run.digest(blobs), "ops": list(ops)}

    first = pass_record({"a": b"x", "b": b"y"})
    same = pass_record({"a": b"x", "b": b"y"})
    other = pass_record({"a": b"x", "b": b"z", "c": b""})
    longer = pass_record({"a": b"x", "b": b"y"}, [{}])
    assert run.check_replay(first, same) == []
    assert run.check_replay(first, other) == ["replay differs: b", "replay differs: c"]
    assert run.check_replay(first, longer) == ["replay differs: operation count"]


def test_census_ops_flag_violations_and_loose_residuals():
    from phaselab.reports import ExperimentReport, assertion

    rows = [
        {"eps": 0.1, "surface": "circle", "kind": "perturbed", "outcome": "non_converged"},
        {"eps": 0.1, "surface": "circle", "kind": "control", "outcome": "converged_symmetric",
         "residual": 1e-13},
        {"eps": 0.1, "surface": "circle", "kind": "perturbed", "outcome": "rigidity_violation",
         "residual": 1e-13},
        {"eps": 0.1, "surface": "circle", "kind": "perturbed", "outcome": "converged_symmetric",
         "residual": 1e-9},
    ]
    report = ExperimentReport("m", {"solver": {"tol_grad": 1e-12}}, rows, [assertion("ok", True)])
    ops = workloads._census_ops(report, [(0.1, 0.0), (0.2, 0.0), (0.3, 0.0), (0.4, 0.0)])
    assert [op.converged for op in ops] == [False, True, True, True]
    assert [bool(op.failures) for op in ops] == [False, False, True, True]

    report.assertions.append(assertion("broken", False))
    assert all(op.failures for op in workloads._census_ops(report, [(0.1, 0.0)] * 4))


def test_tracer_restores_every_name():
    import phaselab.experiments as ex
    import phaselab.solvers as solvers

    before = (pl.newton_refine, ex.newton_refine, solvers.energy, solvers.spla, solvers.scipy)
    tracer = tracing.Tracer()
    tracer.install(pl)
    assert ex.newton_refine is not before[1]
    tracer.uninstall()
    assert (pl.newton_refine, ex.newton_refine, solvers.energy, solvers.spla, solvers.scipy) == before
