import json

import numpy as np
import pytest

import phaselab as pl
from phaselab.cli import main


def test_check_potential_quartic_exits_zero(capsys):
    assert main(["check-potential", "--kind", "quartic"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 4


def test_check_potential_failing_table_exits_one(tmp_path, capsys):
    xs = np.linspace(-2, 2, 501)
    table = [[float(x), float(x * x)] for x in xs]
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table))
    assert main(["check-potential", "--kind", "table", "--table-file", str(path)]) == 1
    assert "[FAIL]" in capsys.readouterr().out


@pytest.mark.parametrize("table", ["5", "[5, 6]", "[[0, null]]"])
def test_check_potential_table_without_points_exits_two(tmp_path, capsys, table):
    path = tmp_path / "table.json"
    path.write_text(table)
    assert main(["check-potential", "--kind", "table", "--table-file", str(path)]) == 2
    assert "table potential needs a list of [x, W(x)] points" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, potential",
    [
        ("refine", {"kind": "table"}),
        ("flow", [1, 2]),
        ("refine", {"kind": "table", "points": 5}),
        ("refine", []),  # falsy, but not the null of a snapshot without a potential
        ("flow", 0),
    ],
)
def test_malformed_snapshot_potential_exits_two(tmp_path, capsys, command, potential):
    snap = tmp_path / "bad.snap"
    f = pl.multi_interface_seed(pl.circle_grid(256), 0.2, [0.0, np.pi])
    pl.save_snapshot(f, snap)
    lines = snap.read_text().splitlines()
    assert lines[3] == "potential: null"
    lines[3] = "potential: " + json.dumps(potential)
    snap.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out.snap"
    assert main([command, "--snapshot", str(snap), "--out", str(out)]) == 2
    assert "potential" in capsys.readouterr().err
    assert not out.exists()


def test_check_potential_table_without_a_file_exits_two(capsys):
    assert main(["check-potential", "--kind", "table"]) == 2
    assert "--table-file is required for kind=table" in capsys.readouterr().err


def test_build_circle_without_a_positive_profile_exits_one(tmp_path, monkeypatch, capsys):
    # eps = 2 is above the existence threshold (1.0) of the half-length pi/2
    monkeypatch.chdir(tmp_path)
    assert main(["build-circle", "--m", "2", "--eps", "2.0"]) == 1
    assert "no positive profile at this width; nothing to glue" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_refine_of_a_stagnating_snapshot_is_a_solver_failure(tmp_path, capsys):
    # a two-interface start at unequal spacing, flowed as the census flows
    # it: Newton stagnates far above the tolerance
    phi = np.random.default_rng(34).uniform(0.6 * np.pi, 1.4 * np.pi)
    seed, flowed, out = tmp_path / "seed.snap", tmp_path / "flowed.snap", tmp_path / "out.snap"
    pl.save_snapshot(pl.multi_interface_seed(pl.circle_grid(256), 0.2, [0.0, phi]), seed)
    assert main(["flow", "--snapshot", str(seed), "--steps", "400", "--out", str(flowed)]) == 0
    capsys.readouterr()
    assert main(["refine", "--snapshot", str(flowed), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("solver failure: stagnated at residual")
    assert not out.exists()


def test_solve_model_trivial_zero_exits_zero(capsys):
    rc = main(["solve-model", "--l", "1.5707963", "--eps", "2.0", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "trivial_zero"


def test_unknown_flag_exits_two():
    assert main(["check-potential", "--bogus"]) == 2


def test_unknown_command_exits_two():
    assert main(["frobnicate"]) == 2


def test_m_rigidity_odd_m_exits_two(capsys):
    rc = main(["experiment", "m-rigidity", "--m", "3"])
    assert rc == 2
    assert "even" in capsys.readouterr().err


def test_m_rigidity_non_finite_perturbation_exits_two(capsys):
    argv = ["experiment", "m-rigidity", "--seeds", "1", "--surfaces", "circle", "--eps", "0.15"]
    assert main(argv + ["--perturbation", "nan"]) == 2
    assert capsys.readouterr().err == "error: perturbation must be finite, got nan\n"


def test_negative_seed_count_exits_two_and_zero_runs_the_controls(capsys):
    argv = ["experiment", "m-rigidity", "--surfaces", "circle", "--eps", "0.15", "--json"]
    assert main(argv + ["--seeds", "-1"]) == 2
    assert capsys.readouterr().err == "error: --seeds must be nonnegative, got -1\n"
    assert main(argv + ["--seeds", "0"]) == 0
    runs = json.loads(capsys.readouterr().out)["runs"]
    assert [r["kind"] for r in runs] == ["control"]


def test_negative_first_seed_exits_two_naming_the_option(capsys):
    # numpy's default_rng rejected it later with a message that names no option
    assert main(["experiment", "two-interface", "--seed", "-5", "--seeds", "1"]) == 2
    assert capsys.readouterr().err == "error: --seed must be nonnegative, got -5\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve-model", "--l", "inf", "--eps", "0.1"], "half_length must be finite and positive, got inf"),
        (["solve-model", "--l", "0", "--eps", "0.1"], "half_length must be finite and positive, got 0.0"),
        (["solve-model", "--l", "1", "--eps", "0"], "epsilon must be finite and positive, got 0.0"),
        (["solve-model", "--l", "1", "--eps", "nan"], "epsilon must be finite and positive, got nan"),
        (["solve-model", "--l", "1", "--eps", "-1"], "epsilon must be finite and positive, got -1.0"),
        (["solve-model", "--l", "1", "--eps", "inf", "--grid-n", "129"], "epsilon must be finite and positive"),
        (["threshold", "--l", "inf"], "half_length must be finite and positive, got inf"),
        (["threshold", "--l", "nan"], "half_length must be finite and positive, got nan"),
    ],
)
def test_bad_model_inputs_exit_two_with_their_message(argv, message, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["experiment", "decay", "--eps", "0.05", "0.05"], "eps_list repeats a value"),
        (
            ["experiment", "m-rigidity", "--eps", "0.15", "0.15", "--seeds", "0", "--surfaces", "circle"],
            "eps_list repeats a value",
        ),
        (["experiment", "slide", "--delta-fractions", "0.5", "0.5"], "delta_fractions repeats a value"),
        (["experiment", "slide", "--delta-fractions", "0"], "each delta fraction must lie in (0, 1]"),
        (["experiment", "slide", "--delta-fractions", "-1"], "each delta fraction must lie in (0, 1]"),
        (["experiment", "slide", "--delta-fractions", "nan"], "each delta fraction must lie in (0, 1]"),
        (["experiment", "slide", "--delta-fractions", "1.5"], "each delta fraction must lie in (0, 1]"),
    ],
)
def test_bad_sweeps_exit_two_before_any_solve(argv, message, monkeypatch, capsys):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the check")

    for name in ("gradient_flow", "newton_refine", "solve_dirichlet_model", "build_barrier"):
        monkeypatch.setattr(pl.experiments, name, no_solve)
    assert main(argv) == 2
    assert message in capsys.readouterr().err


def test_solve_model_out_writes_the_profile(tmp_path, capsys):
    out = tmp_path / "model.snap"
    argv = ["solve-model", "--l", "1", "--eps", "0.2", "--grid-n", "129", "--out", str(out), "--json"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    field, meta = pl.load_snapshot_with_meta(out)
    assert payload["status"] == "positive" and field.grid == pl.interval_grid(129, 1.0)
    assert field.epsilon == 0.2 and meta["potential"] == pl.quartic().describe()
    assert float(np.max(field.values)) == payload["max_value"]


def test_build_circle_grid_points_not_divisible_by_m_exit_two(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["build-circle", "--m", "4", "--eps", "0.1", "--grid-n", "1030"]) == 2
    assert capsys.readouterr().err == "error: grid points (1030) must be divisible by m (4)\n"
    assert list(tmp_path.iterdir()) == []


def test_build_circle_odd_m_exits_two():
    assert main(["build-circle", "--m", "3", "--eps", "0.15"]) == 2


def test_threshold_json(capsys):
    rc = main(["threshold", "--l", "0.7853981633974483", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["threshold"] - 0.5) <= 0.01


def test_build_analyze_refine_flow_pipeline(tmp_path, capsys):
    snap = tmp_path / "m2.snap"
    rc = main(
        ["build-circle", "--m", "2", "--eps", "0.2", "--grid-n", "512", "--out", str(snap)]
    )
    assert rc == 0
    assert snap.exists()
    capsys.readouterr()

    rc = main(
        [
            "analyze",
            "--snapshot",
            str(snap),
            "--what",
            "nodal",
            "congruence",
            "alternation",
            "symmetry",
            "--m",
            "2",
            "--json",
        ]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["nodal_count"] == 2
    assert payload["congruence"]["passed"]
    assert payload["alternation"] is True
    assert payload["symmetry"]["passed"]

    out2 = tmp_path / "refined.snap"
    assert main(["refine", "--snapshot", str(snap), "--out", str(out2), "--json"]) == 0
    capsys.readouterr()

    trace = tmp_path / "trace.csv"
    rc = main(
        [
            "flow",
            "--snapshot",
            str(out2),
            "--steps",
            "50",
            "--out",
            str(tmp_path / "flowed.snap"),
            "--trace",
            str(trace),
        ]
    )
    assert rc == 0
    assert trace.read_text().startswith("step,energy")


def test_experiment_comparison_cli(tmp_path, capsys):
    out = tmp_path / "report.json"
    csv = tmp_path / "census.csv"
    rc = main(
        ["experiment", "comparison", "--out", str(out), "--csv", str(csv), "--json"]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert json.loads(out.read_text())["experiment"] == "comparison_principle"
    assert csv.exists()


def test_experiment_two_interface_csv(tmp_path):
    csv = tmp_path / "census.csv"
    rc = main(
        [
            "experiment",
            "two-interface",
            "--eps",
            "0.25",
            "--seeds",
            "2",
            "--grid-n",
            "256",
            "--csv",
            str(csv),
        ]
    )
    assert rc == 0
    lines = csv.read_text().splitlines()
    assert len(lines) == 3
    assert "outcome" in lines[0].split(",")


@pytest.mark.parametrize(
    "argv",
    [
        ["threshold", "--l", "0.785", "--out", "x.json", "--seed", "3", "--grid-n", "99"],
        ["threshold", "--l", "0.785", "--out", "x.json"],
        ["experiment", "decay", "--seeds", "3", "--m", "9", "--surfaces", "klein"],
        ["experiment", "decay", "--seeds", "3"],
        ["experiment", "decay", "--m", "9"],
        ["experiment", "comparison", "--eps", "0.1", "0.05"],
        ["experiment", "comparison", "--seed", "3"],
        ["experiment", "m-rigidity", "--surfaces", "klein"],
        ["experiment", "--eps", "0.1", "comparison"],
        ["analyze", "--snapshot", "x.snap", "--tol", "1e-9"],
        ["flow", "--snapshot", "x.snap", "--tol", "1e-9"],
    ],
    ids=" ".join,
)
def test_option_the_command_does_not_read_exits_two(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert "usage:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--snapshot", "missing.snap"],
        ["refine", "--snapshot", "missing.snap"],
        ["flow", "--snapshot", "missing.snap"],
        ["check-potential", "--kind", "table", "--table-file", "missing.json"],
    ],
    ids=" ".join,
)
def test_missing_input_file_exits_two_without_traceback(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "missing." in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["threshold", "--l", "0.785", "--tol", "0"],
        ["experiment", "comparison", "--tol", "0"],
        ["threshold", "--l", "1", "--tol", "nan"],
    ],
    ids=" ".join,
)
def test_zero_tolerance_is_rejected_not_ignored(argv, capsys):
    assert main(argv) == 2
    assert "tol_grad" in capsys.readouterr().err


def test_experiment_options_reach_the_driver(capsys):
    rc = main(
        [
            "experiment", "two-interface", "--eps", "0.25", "--seeds", "2", "--seed", "5",
            "--grid-n", "256", "--tol", "1e-11", "--json",
        ]
    )
    assert rc == 0
    config = json.loads(capsys.readouterr().out)["config"]
    assert config["eps_list"] == [0.25]
    assert config["seeds"] == [5, 6]
    assert config["grid_points"] == 256
    assert config["solver"]["tol_grad"] == 1e-11


def test_experiment_without_options_uses_the_library_defaults(capsys):
    assert main(["experiment", "comparison", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"] == json.loads(pl.experiment_comparison().to_json_bytes())["config"]


def test_m_rigidity_grid_n_sets_the_circle_grid(capsys):
    assert main(["experiment", "m-rigidity", "--grid-n", "510"]) == 2
    assert "circle grid point count 510 must be divisible" in capsys.readouterr().err


@pytest.mark.parametrize("m", ["2", "6"])
def test_slide_with_m_other_than_four_exits_two(capsys, m):
    assert main(["experiment", "slide", "--m", m]) == 2
    assert f"m = {m} rejected: the counterfactual field marks exactly four angles" in capsys.readouterr().err


def test_analyze_truncated_snapshot_exits_two(tmp_path, capsys):
    path = tmp_path / "cut.snap"
    pl.save_snapshot(pl.Field(pl.circle_grid(32), np.zeros(32), 0.5), path)
    path.write_text("\n".join(path.read_text().splitlines()[:3]) + "\n")
    assert main(["analyze", "--snapshot", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: missing 'potential:' line")


def test_analyze_reads_a_snapshot_of_a_callable_potential(tmp_path, capsys):
    q = pl.quartic()
    p = pl.from_callables(q.w, q.dw, q.d2w, name="mine")
    f = pl.multi_interface_seed(pl.circle_grid(256), 0.2, [1.0, 4.0])
    path = tmp_path / "mine.snap"
    pl.save_snapshot(f, path, potential=p.describe())
    assert main(["analyze", "--snapshot", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["nodal_count"] == 2


def test_build_circle_zero_grid_points_is_rejected(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["build-circle", "--m", "4", "--eps", "0.1", "--grid-n", "0"]) == 2
    assert "--grid-n" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("steps", ["-5", "0"])
def test_flow_steps_below_one_exit_two_without_writing(tmp_path, capsys, steps):
    snap = tmp_path / "m2.snap"
    pl.save_snapshot(pl.multi_interface_seed(pl.circle_grid(256), 0.2, [0.0, np.pi]), snap)
    before = snap.read_bytes()
    out = tmp_path / "flowed.snap"
    rc = main(["flow", "--snapshot", str(snap), "--steps", steps, "--out", str(out)])
    assert rc == 2
    assert "--steps" in capsys.readouterr().err
    assert not out.exists()
    assert snap.read_bytes() == before


def test_analyze_judges_a_torus_by_its_fibers(tmp_path, capsys):
    """Four parallel fibers: four interfaces, congruent and symmetric at the
    default m = 4; the nodal csv still lists the whole point cloud."""
    f = pl.multi_interface_seed(pl.torus_grid(256, 64), 0.15, np.arange(4) * np.pi / 2)
    snap = tmp_path / "torus.snap"
    pl.save_snapshot(f, snap)
    what = ["nodal", "congruence", "alternation", "symmetry"]
    assert main(["analyze", "--snapshot", str(snap), "--what", *what, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["nodal_count"] == 4
    assert np.allclose(payload["angles"], np.arange(4) * np.pi / 2, atol=1e-12)
    assert payload["congruence"]["passed"] and payload["alternation"]
    assert payload["symmetry"]["passed"]
    csv = tmp_path / "nodal.csv"
    assert main(["analyze", "--snapshot", str(snap), "--csv", str(csv)]) == 0
    assert "nodal points: 4" in capsys.readouterr().out
    assert len(csv.read_text().splitlines()) == 1 + pl.extract_nodal_set(f).points.shape[0]


def test_analyze_symmetry_with_m_zero_exits_two(tmp_path, capsys):
    # --m 0 is checked as given, not replaced by the nodal count
    snap = tmp_path / "m2.snap"
    pl.save_snapshot(pl.multi_interface_seed(pl.circle_grid(256), 0.2, [0.0, np.pi]), snap)
    argv = ["analyze", "--snapshot", str(snap), "--what", "symmetry"]
    assert main(argv + ["--m", "0"]) == 2
    assert capsys.readouterr().err == "error: m must be an even integer >= 2\n"
    assert main(argv) == 0
    assert "symmetry (m=2): PASS" in capsys.readouterr().out


def test_analyze_congruence_of_an_interval_exits_two(tmp_path, capsys):
    g = pl.interval_grid(257, 1.0)
    snap = tmp_path / "interval.snap"
    pl.save_snapshot(pl.Field(g, np.sin(3.0 * g.axis(0)) ** 2 - 0.25, 0.2), snap)
    assert main(["analyze", "--snapshot", str(snap), "--what", "congruence"]) == 2
    assert capsys.readouterr().err == "error: congruence check needs a periodic nodal set\n"


def test_analyze_decay_of_a_torus_exits_two(tmp_path, capsys):
    snap = tmp_path / "torus.snap"
    pl.save_snapshot(pl.multi_interface_seed(pl.torus_grid(64, 16), 0.2, [0.5, 0.5 + np.pi]), snap)
    assert main(["analyze", "--snapshot", str(snap), "--what", "decay"]) == 2
    assert capsys.readouterr().err == "error: decay fit supports 1-D fields\n"


def test_analyze_alternation_of_an_interval_exits_two(tmp_path, capsys):
    g = pl.interval_grid(257, 1.0)
    snap = tmp_path / "interval.snap"
    pl.save_snapshot(pl.Field(g, np.sin(3.0 * g.axis(0)) ** 2 - 0.25, 0.2), snap)
    assert main(["analyze", "--snapshot", str(snap), "--what", "alternation"]) == 2
    assert capsys.readouterr().err == "error: alternation check needs a periodic grid\n"


def test_analyze_symmetry_of_an_interval_exits_two(tmp_path, capsys):
    g = pl.interval_grid(256, 1.0)
    snap = tmp_path / "interval.snap"
    pl.save_snapshot(pl.Field(g, np.sin(np.pi * g.axis(0)), 0.2), snap)
    assert main(["analyze", "--snapshot", str(snap), "--what", "symmetry", "--m", "2"]) == 2
    assert capsys.readouterr().err == "error: rotation symmetry check needs a periodic grid\n"


def test_flow_trace_of_a_torus_lists_its_interfaces(tmp_path):
    snap = tmp_path / "torus.snap"
    f = pl.multi_interface_seed(pl.torus_grid(256, 32), 0.2, np.arange(4) * np.pi / 2 + 0.2)
    pl.save_snapshot(f, snap)
    trace = tmp_path / "trace.csv"
    argv = ["flow", "--snapshot", str(snap), "--steps", "100", "--track-nodal", "--trace", str(trace)]
    assert main(argv) == 0
    lines = trace.read_text().splitlines()
    assert lines[0] == "step,energy,angle0,angle1,angle2,angle3"
    assert [line.split(",")[0] for line in lines[1:]] == ["50", "100"]
    assert all(len(line.split(",")) == 6 for line in lines[1:])


def test_analyze_decay_fits_the_well_rate(tmp_path, capsys):
    """A glued two-interface solution decays at kappa = sqrt(W''(1)) / eps."""
    sol = pl.solve_dirichlet_model(np.pi / 2, 0.1, pl.quartic(), n=513)
    snap = tmp_path / "m2.snap"
    pl.save_snapshot(pl.reflect_extend(sol, 2), snap)
    csv = tmp_path / "decay.csv"
    argv = ["analyze", "--snapshot", str(snap), "--what", "decay", "--csv", str(csv), "--json"]
    assert main(argv) == 0
    kappa_eps = json.loads(capsys.readouterr().out)["decay"]["kappa_times_eps"]
    assert abs(kappa_eps - np.sqrt(2.0)) <= 0.25 * np.sqrt(2.0)
    lines = csv.read_text().splitlines()
    assert lines[0].startswith("# amplitude=") and lines[1] == "distance,log_gap,fitted"
    assert len(lines) == 2 + 1024
