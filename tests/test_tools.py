import sys
from pathlib import Path

import numpy as np

import phaselab.solvers as solvers
from phaselab.grids import circle_grid
from phaselab.potentials import quartic
from phaselab.solvers import SolveConfig, StopRule, gradient_flows, multi_interface_seed, newton_refine

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import code_lines  # noqa: E402
import report_digests  # noqa: E402
import solve_counts  # noqa: E402
import unexecuted  # noqa: E402

MODULE = '''"""A module."""


def f(x):
    """A function."""
    if x:
        return 1
    else:
        return 2
'''


def test_unexecuted_lists_the_statements_the_trace_missed(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(MODULE)
    hits, stop = unexecuted.trace_lines(tmp_path)
    try:
        namespace = {}
        exec(compile(MODULE, str(path), "exec"), namespace)
        namespace["f"](True)
    finally:
        stop()
    assert unexecuted.statements(path) == {
        1: '"""A module."""', 4: "def f(x):", 6: "if x:", 7: "return 1", 9: "return 2"
    }
    missed = [n for n in unexecuted.statements(path) if n not in hits[str(path)]]
    assert missed == [9]


def test_report_digests_prints_only_the_lines_that_differ():
    same = "c 7 op 0 g: converged=True failures=[]"
    ours = ["c 7 report aa", same, "c 7 op 1 g: x", "c 101 op 0 g: y"]
    theirs = ["c 7 report bb", same, "c 7 op 1 g: x", "c 101 op 1 g: z"]
    assert report_digests.differing_lines(ours, ours) == []
    assert report_digests.differing_lines(ours, theirs) == [
        "- c 7 report aa",
        "+ c 7 report bb",
        "- c 101 op 0 g: y",
        "+ c 101 op 1 g: z",
    ]
    # a line only one checkout printed shows on its own
    assert report_digests.differing_lines(ours[:2], ours) == [
        "+ c 7 op 1 g: x",
        "+ c 101 op 0 g: y",
    ]


def test_outcome_table_counts_converged_runs_and_flips_per_group():
    two = "experiment_two_interface circle eps=0.2 random"
    rig = "experiment_m_rigidity circle eps=0.1 control"

    def op(seed, i, group, converged, workload="circle-census"):
        return f"{workload} {seed} op {i} {group}: converged={converged} failures=[]"

    ours = [
        "circle-census 7 two_interface aa",
        op(7, 0, two, True),
        op(7, 1, two, True),
        op(7, 2, two, False),
        op(7, 3, rig, False),
        op(101, 0, two, False),
        op(101, 1, rig, True),
        op(7, 0, "threshold", True, workload="construct"),
    ]
    theirs = [
        "circle-census 7 two_interface bb",
        op(7, 0, two, True),
        op(7, 1, two, False),  # lost
        op(7, 2, two, True),  # gained
        op(7, 3, rig, False),
        op(101, 0, two, True),  # gained
        op(101, 1, rig, True),
        op(101, 2, rig, True),  # a run only OTHER has
        op(7, 0, "threshold", True, workload="construct"),
    ]
    assert report_digests.outcome_table(ours, theirs) == [
        ("circle-census", two, 4, 2, 3, 1, 2),
        ("circle-census", rig, 3, 1, 2, 0, 0),
        ("construct", "threshold", 1, 1, 1, 0, 0),
    ]
    assert report_digests.outcome_table(ours, ours) == [
        ("circle-census", two, 4, 2, 2, 0, 0),
        ("circle-census", rig, 2, 1, 1, 0, 0),
        ("construct", "threshold", 1, 1, 1, 0, 0),
    ]
    assert report_digests.outcome_table(["circle-census 7 m_rigidity cc"], []) == []


COUNTED = '''"""A module
docstring."""

import math  # a comment line with code


class Grid:
    """A class docstring."""

    kind = "circle"

    def periodic(self):
        """A function
        docstring."""
        # a comment
        return self.kind in ("circle",
                             "torus")


def f(args, g):
    if args.kind == "table":
        return "not a docstring"
    return g.kind != "interval"
'''


def test_code_lines_counts_code_not_blanks_comments_or_docstrings(tmp_path, capsys):
    # import, class, kind, def, return (2 lines), def, if, return, return
    assert code_lines.code_lines(COUNTED) == 10
    assert code_lines.kind_comparisons(COUNTED) == 2  # args.kind is left out
    package = tmp_path / "src" / "phaselab"
    package.mkdir(parents=True)
    (package / "grids.py").write_text(COUNTED)
    (package / "potentials.py").write_text("if p.kind == 'table':\n    pass\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "grids.py 10",
        "potentials.py 2",
        "total 12",
        "src lines 25",
        "kind comparisons 2 (grids 2)",
    ]


def test_code_lines_counts_each_top_level_function(tmp_path, capsys):
    source = COUNTED + """

@decorate(
    1)
def g():
    def inner():
        return 1  # nested: counted in g
    return inner
"""
    # f: def, if, return, return; g: two decorator lines, def, def, return, return
    assert code_lines.function_lines(source) == {"f": 4, "g": 6}
    package = tmp_path / "src" / "phaselab"
    package.mkdir(parents=True)
    (package / "grids.py").write_text(source)
    for module in ("grids", "grids.py"):
        assert code_lines.main([str(tmp_path), "--functions", module]) == 0
        assert capsys.readouterr().out.splitlines() == ["f 4", "g 6"]


def test_solve_counts_counts_one_newton_solve_and_one_flow_stack(monkeypatch):
    p = quartic()
    model = solvers.solve_dirichlet_model(np.pi / 4, 0.1, p, SolveConfig(tol_grad=1e-12), n=129)
    f = solvers.reflect_extend(model, 4)
    f = f.with_values(f.values + 0.003 * np.sin(3.0 * f.grid.axis(0)))
    for name in solve_counts.WRAPPED:  # restored after the test
        monkeypatch.setattr(solvers, name, getattr(solvers, name))
    counts = solve_counts.install(solvers)
    nr = newton_refine(f, p)
    # three iterations: the first two steps win at once, the third iteration
    # walks four steps along a translation mode; then one polishing step,
    # rejected.  Each solve's step leads to one new point and its residual.
    assert nr.iterations == 3 and len(nr.residuals) == 4
    assert counts == {"jacobian_solves circle": 7, "residual_rows": 8}
    counts.clear()
    seeds = [multi_interface_seed(circle_grid(256), 0.25, [0.0, phi]) for phi in (2.0, 3.0, 4.0)]
    gradient_flows(seeds, p, stop=StopRule(max_steps=5))
    assert counts == {"flow_factorizations": 1, "flow_steps_per_field": 15}
