from phaselab.reports import ExperimentReport, assertion


def _census_report():
    rows = [
        {"surface": "circle", "eps": 0.1, "kind": "control", "outcome": "converged_symmetric",
         "residual": 1e-13},
        {"surface": "circle", "eps": 0.1, "kind": "perturbed", "outcome": "non_converged",
         "error": "stagnated"},
        {"surface": "circle", "eps": 0.1, "kind": "perturbed", "outcome": "escaped_2_interfaces",
         "residual": 2e-13},
        {"surface": "circle", "eps": 0.15, "kind": "perturbed", "outcome": "non_converged",
         "error": "stagnated"},
        {"surface": "torus", "eps": 0.1, "kind": "control", "outcome": "converged_symmetric",
         "residual": 3e-13},
    ]
    return ExperimentReport("m_rigidity", {"m": 4}, rows, [assertion("no violations", True)])


def test_summary_lines_give_convergence_per_group():
    lines = _census_report().summary_lines()
    assert lines[2:6] == [
        "circle eps=0.1 control: 1/1 reached a critical point",
        "circle eps=0.1 perturbed: 1/2 reached a critical point",
        "circle eps=0.15 perturbed: 0/1 reached a critical point",
        "torus eps=0.1 control: 1/1 reached a critical point",
    ]


def test_summary_lines_count_the_runs_certified_non_stationary():
    report = _census_report()
    certified = {"surface": "circle", "eps": 0.1, "kind": "perturbed", "outcome": "non_converged",
                 "reason": "slow_manifold_force", "error": "certified non-stationary"}
    report.runs += [certified, dict(certified)]
    lines = report.summary_lines()
    assert lines[3] == "circle eps=0.1 perturbed: 1/4 reached a critical point, 2 certified non-stationary"
    # a group without certified runs keeps its line as it was
    assert lines[4] == "circle eps=0.15 perturbed: 0/1 reached a critical point"


def test_groups_use_the_keys_a_row_has():
    rows = [
        {"eps": 0.2, "seed": 1, "outcome": "converged_pair", "residual": 1e-13},
        {"eps": 0.2, "seed": 2, "outcome": "non_converged", "error": "stagnated"},
        {"eps": 0.25, "seed": 1, "outcome": "non_converged", "error": "stagnated"},
    ]
    report = ExperimentReport("two_interface", {}, rows)
    assert report.convergence() == {"eps=0.2": (1, 2), "eps=0.25": (0, 1)}


def test_rows_that_are_no_relaxations_give_no_convergence_lines():
    rows = [{"eps": 0.05, "kappa": 1.4, "outcome": "fitted"}, {"delta": 0.1, "outcome": "touched"}]
    report = ExperimentReport("decay", {}, rows, [assertion("fit", True)])
    assert report.convergence() == {}
    assert not any("critical point" in line for line in report.summary_lines())


def test_payload_has_no_convergence_summary():
    report = _census_report()
    before = report.to_json_bytes()
    report.summary_lines()
    assert report.to_json_bytes() == before
    assert set(report.payload()) == {
        "format", "version", "experiment", "config", "runs", "assertions", "passed",
    }
