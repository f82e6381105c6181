"""The benchmark harness still binds to the library.

``perfbench/`` wraps phaselab names (``solvers.spla``, ``solvers.energy``,
``nodal.cluster_fiber_angles``, ...) and its warm-up calls one function of
every layer.  The benchmark's own self-check runs whole workloads and is
slow; this test runs only the tracer install and the warm-up, so a name or
keyword either of them binds that the library no longer has fails here.
"""

from pathlib import Path

import phaselab as pl

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_warm_up_runs(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads

    tracer = tracing.Tracer()
    tracer.install(pl)
    try:
        workloads.warm_up(pl, tmp_path)
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    assert {"solvers.flow", "solvers.newton", "fields.energy", "io.save"} <= names
    assert list(tmp_path.iterdir()) == []
