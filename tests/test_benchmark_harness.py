"""The benchmark harness still binds to the library.

``perfbench/`` wraps phaselab names (``solvers.spla``, ``solvers.energy``,
``nodal.cluster_fiber_angles``, ...) and its warm-up calls one function of
every layer.  The benchmark's own self-check runs whole workloads and is
slow; these tests run only the tracer install and the warm-up, and bind
the keywords ``workloads.py`` passes to each experiment driver (read with
``ast``, nothing run), so a name or keyword the benchmark binds that the
library no longer has fails here in seconds.
"""

import ast
import inspect
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


def _driver_calls(tree):
    """``(driver name, keyword names)`` for each call in ``tree`` that names
    an ``experiment_*`` driver: as an attribute (``pl.experiment_x(...)``) or
    as a string argument (``_census(pl, clock, "experiment_x", ...)``)."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        names = [node.func.attr] if isinstance(node.func, ast.Attribute) else []
        names += [a.value for a in node.args if isinstance(a, ast.Constant) and isinstance(a.value, str)]
        for name in names:
            if name.startswith("experiment_"):
                yield name, [k.arg for k in node.keywords if k.arg is not None]


def test_workload_keywords_bind_to_the_drivers():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    calls = list(_driver_calls(tree))
    assert {name for name, _ in calls} == {
        "experiment_two_interface",
        "experiment_m_rigidity",
        "experiment_decay",
        "experiment_comparison",
        "experiment_slide",
    }
    for name, keywords in calls:
        # a keyword the driver no longer takes raises TypeError here
        inspect.signature(getattr(pl, name)).bind_partial(**dict.fromkeys(keywords))
