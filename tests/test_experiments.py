import inspect

import numpy as np
import pytest

import phaselab as pl
import phaselab.experiments as experiments
from phaselab.experiments import (
    BarrierConstructionError,
    _bump,
    _mask_boundary,
    build_barrier,
    comparison_test,
    experiment_comparison,
    experiment_decay,
    experiment_m_rigidity,
    experiment_slide,
    experiment_two_interface,
    slide_to_touch,
)
from phaselab.fields import Field
from phaselab.grids import circle_grid, interval_grid, torus_grid
from phaselab.potentials import make_potential, quartic
from phaselab.reports import canonicalize
from phaselab.solvers import NewtonResult, SolveConfig, multi_interface_seed, solve_dirichlet_model

P = quartic()


@pytest.fixture(scope="module")
def nested():
    eps, n = 0.1, 257
    big = solve_dirichlet_model(np.pi / 2, eps, P, n=n)
    quarter = (n - 1) // 4
    small = solve_dirichlet_model(np.pi / 4, eps, P, n=2 * quarter + 1)
    grid = big.field.grid
    v = np.zeros(n)
    v[quarter : quarter + small.field.values.size] = small.field.values
    mask = np.zeros(n, dtype=bool)
    mask[quarter : quarter + small.field.values.size] = True
    return big.field, Field(grid, v, eps), mask


class TestComparison:
    def test_nested_profiles_strictly_ordered(self, nested):
        u, v, mask = nested
        rep = comparison_test(u, v, mask, P)
        assert rep.status == "holds"
        assert rep.min_gap > 0

    def test_constant_one_dominates(self, nested):
        u, v, mask = nested
        ones = Field(u.grid, np.ones(u.grid.shape), u.epsilon)
        rep = comparison_test(ones, v, mask, P)
        assert rep.status == "holds" and rep.min_gap > 0

    def test_nonzero_boundary_is_inapplicable(self, nested):
        u, _, mask = nested
        rep = comparison_test(u, u.copy(), mask, P)
        assert rep.status == "inapplicable"
        assert "boundary" in rep.reason

    def test_width_mismatch_is_inapplicable(self, nested):
        u, v, mask = nested
        rep = comparison_test(u, Field(v.grid, v.values, 0.2), mask, P)
        assert rep.status == "inapplicable"

    def test_non_critical_input_is_inapplicable(self, nested):
        u, v, mask = nested
        rng = np.random.default_rng(0)
        w = Field(u.grid, np.abs(rng.uniform(0.1, 0.9, u.grid.shape)), u.epsilon)
        rep = comparison_test(w, v, mask, P)
        assert rep.status == "inapplicable"
        assert "critical point" in rep.reason


def _mask_boundary_reference(grid, mask):
    """Per-point loop: in the mask with a neighbour outside it or past an interval end."""
    wrap = grid.kind != "interval"
    out = np.zeros_like(mask)
    for idx in np.ndindex(mask.shape):
        if not mask[idx]:
            continue
        for axis, n in enumerate(mask.shape):
            for step in (-1, 1):
                j = idx[axis] + step
                if not wrap and not 0 <= j < n:
                    out[idx] = True
                    continue
                nb = list(idx)
                nb[axis] = j % n
                if not mask[tuple(nb)]:
                    out[idx] = True
    return out


@pytest.mark.parametrize(
    "grid",
    [interval_grid(33, 1.0), circle_grid(40), torus_grid(16, 20)],
    ids=["interval", "circle", "torus"],
)
def test_mask_boundary_matches_loop_reference(grid):
    rng = np.random.default_rng(3)
    for density in (0.3, 0.7, 0.95, 1.0):
        mask = rng.random(grid.shape) < density
        assert np.array_equal(_mask_boundary(grid, mask), _mask_boundary_reference(grid, mask))


class TestBarrier:
    def test_three_lobe_geometry(self):
        g = circle_grid(2048, 8 * np.pi)
        delta = 42 * g.h
        b = build_barrier(np.pi, delta, 0.1, P, g)
        c = b.center_index
        n = g.shape[0]
        steps = round(b.width / g.h)
        v = b.field.values
        assert v[c] > 0  # positive core
        assert v[(c + steps) % n] == 0.0 and v[(c - steps) % n] == 0.0
        assert v[(c + 2 * steps) % n] < 0 and v[(c - 2 * steps) % n] < 0
        assert v[(c + 3 * steps) % n] == 0.0
        assert int(b.mask.sum()) == 6 * steps + 1
        # odd about each internal zero by construction
        for j0 in (c + steps, c - steps):
            idx = np.arange(1, steps)
            asym = np.abs(v[(j0 + idx) % n] + v[(j0 - idx) % n])
            assert np.max(asym) <= 1e-10

    def test_trivial_profile_rejected(self):
        g = circle_grid(2048)
        # half-width below pi*eps/2: no positive profile exists there
        with pytest.raises(BarrierConstructionError, match="vanish"):
            build_barrier(np.pi, 0.12, 0.1, P, g)

    def test_overlap_rejected(self):
        g = circle_grid(256)
        with pytest.raises(BarrierConstructionError, match="overlap"):
            build_barrier(np.pi, 1.5, 0.3, P, g)

    def test_torus_barrier_is_the_circle_barrier_along_the_fiber(self):
        gc, gt = circle_grid(256), torus_grid(256, 64)
        bc = build_barrier(np.pi, 20 * gc.h, 0.2, P, gc)
        bt = build_barrier(np.pi, 20 * gc.h, 0.2, P, gt)
        values = np.repeat(bc.field.values[:, None], 64, axis=1)
        assert np.array_equal(bt.field.values.view(np.int64), values.view(np.int64))
        assert np.array_equal(bt.mask, np.repeat(bc.mask[:, None], 64, axis=1))
        assert bt.mask.dtype == bool and bt.field.grid == gt
        assert (bt.center, bt.width, bt.center_index, bt.half_steps) == (
            bc.center, bc.width, bc.center_index, bc.half_steps,
        )

    def test_interval_grid_rejected(self):
        g = interval_grid(257, np.pi)
        with pytest.raises(ValueError, match="circle or torus"):
            build_barrier(0.0, 0.5, 0.1, P, g)


class TestSlide:
    def test_constructed_witness_touches_at_known_offset(self):
        # field: deep negative background with a small positive bump whose
        # right zero sits a known distance inside the barrier core
        g = circle_grid(2048, 8 * np.pi)
        eps = 0.1
        L = 8 * np.pi
        delta = round(0.35 / g.h) * g.h
        center = round(np.pi / g.h) * g.h
        b = build_barrier(center, delta, eps, P, g)
        vmax = float(np.max(b.field.values))
        theta = g.axis(0)
        bump_width = round(0.25 / g.h) * g.h
        u_vals = -1.0 + (1.0 + 0.25 * vmax) * _bump(theta, center, bump_width, L)
        u = Field(g, u_vals, eps)
        # bump zeros: cos^2(pi t / (2 w)) = 1/(1 + peak) => z+ = center + t*
        peak = 0.25 * vmax
        t_star = (2 * bump_width / np.pi) * np.arccos(np.sqrt(1.0 / (1.0 + peak)))
        expected = delta - t_star
        rep = slide_to_touch(u, b, max_offset=3 * delta)
        assert rep.touched and rep.interior
        assert abs(rep.offset - expected) <= 0.05

    def test_uniformly_low_field_never_touches(self):
        # barrier shallow enough (width near threshold) that a deep constant
        # state stays below its negative lobes forever
        g = circle_grid(2048, 8 * np.pi)
        delta = round(0.25 / g.h) * g.h
        b = build_barrier(np.pi, delta, 0.1, P, g)
        assert float(np.max(b.field.values)) < 0.95
        u = Field(g, np.full(g.shape, -0.97), 0.1)
        rep = slide_to_touch(u, b, max_offset=2 * delta)
        assert not rep.touched

    def test_order_violation_at_start_rejected(self):
        g = circle_grid(2048, 8 * np.pi)
        delta = round(0.5 / g.h) * g.h
        b = build_barrier(np.pi, delta, 0.1, P, g)
        u = Field(g, np.full(g.shape, 2.0), 0.1)
        with pytest.raises(ValueError, match="offset 0"):
            slide_to_touch(u, b, max_offset=delta)


class TestExperimentDrivers:
    def test_two_interface_small(self):
        rep = experiment_two_interface(eps_list=(0.25,), seeds=range(3), n=256)
        assert rep.passed
        assert rep.census().get("converged_pair", 0) >= 1
        for r in rep.runs:
            if r["outcome"] == "converged_pair":
                assert r["antipodal_deviation"] <= 1e-4

    def test_two_interface_sign_flip_mirror(self):
        # relaxing the negated seed lands on the negated (rotated) solution
        # with the same nodal geometry
        from phaselab.solvers import StopRule, gradient_flow, newton_refine

        g = circle_grid(256)
        cfg = SolveConfig(tol_grad=1e-12)
        out = {}
        for sign in (1.0, -1.0):
            f0 = multi_interface_seed(g, 0.25, [0.0, 0.9 * np.pi])
            f0 = f0.with_values(sign * f0.values)
            tr = gradient_flow(f0, P, cfg, StopRule(max_steps=400))
            nr = newton_refine(tr.field, P, cfg)
            ns = pl.extract_nodal_set(nr.field)
            gap = abs(ns.angles[1] - ns.angles[0])
            out[sign] = min(gap, 2 * np.pi - gap)
        assert out[1.0] == pytest.approx(out[-1.0], abs=1e-9)

    def test_m_rigidity_rejects_odd_m(self):
        with pytest.raises(ValueError, match="even"):
            experiment_m_rigidity(3)

    def test_m_rigidity_rejects_indivisible_grid(self):
        with pytest.raises(ValueError, match="divisible"):
            experiment_m_rigidity(4, circle_n=510)

    def test_m_rigidity_control_converges(self):
        rep = experiment_m_rigidity(
            4, eps_list=(0.15,), seeds=range(1), surfaces=("circle",), flow_steps=300
        )
        assert rep.passed
        controls = [r for r in rep.runs if r["kind"] == "control"]
        assert controls[0]["outcome"] == "converged_symmetric"
        assert controls[0]["spacing_rel_deviation"] <= 1e-4
        assert controls[0]["sign_flip_residual"] <= 1e-7

    def test_decay_experiment(self):
        rep = experiment_decay(eps_list=(0.05,), n=2048)
        assert rep.passed
        run = rep.runs[0]
        assert abs(run["kappa_times_eps"] / np.sqrt(2.0) - 1.0) <= 0.2

    def test_comparison_experiment(self):
        rep = experiment_comparison()
        assert rep.passed
        outcomes = {r["case"]: r["outcome"] for r in rep.runs}
        assert outcomes["nested_profiles"] == "holds"
        assert outcomes["nonzero_boundary_sub_field"] == "inapplicable"

    def test_slide_experiment(self):
        rep = experiment_slide()
        assert rep.passed
        for r in rep.runs:
            assert r["outcome"] == "touched"
            assert r["offset"] < 2 * r["delta"]
            assert r["interior"]


def _relax_to(monkeypatch, angles):
    """Make every census relaxation converge, to a field on the seed's grid
    with sign changes at ``angles``: the census outcomes no real run reaches."""

    def relax(seed, p, cfg, flow_steps):
        f = multi_interface_seed(seed.grid, seed.epsilon, angles)
        return NewtonResult(f, [0.0], 0, True), None

    monkeypatch.setattr(experiments, "_relax", relax)


def _failed(report):
    return {a["name"] for a in report.assertions if not a["passed"]}


class TestCensusOutcomes:
    """Each census assertion can fail, and each outcome can be reached."""

    M4 = dict(eps_list=(0.1,), seeds=range(1))

    @pytest.mark.parametrize("surface", ["circle", "torus"])
    def test_unequal_spacing_is_a_rigidity_violation(self, monkeypatch, surface):
        _relax_to(monkeypatch, [0.3, 1.5, 3.4, 4.6])
        rep = experiment_m_rigidity(4, surfaces=(surface,), **self.M4)
        assert [r["outcome"] for r in rep.runs] == ["rigidity_violation"] * 2
        assert all(r["interfaces"] == 4 and r["alternating"] for r in rep.runs)
        assert "no_converged_run_breaks_rigidity" in _failed(rep) and not rep.passed

    @pytest.mark.parametrize("surface", ["circle", "torus"])
    def test_antipodal_pair_escapes_the_four_interface_census(self, monkeypatch, surface):
        _relax_to(monkeypatch, [1.0, 1.0 + np.pi])
        rep = experiment_m_rigidity(4, surfaces=(surface,), **self.M4)
        assert [r["outcome"] for r in rep.runs] == ["escaped_2_interfaces"] * 2
        assert all(r["structure_ok"] and r["interfaces"] == 2 for r in rep.runs)
        assert "no_converged_run_breaks_rigidity" not in _failed(rep)

    def test_escaped_unequal_pair_is_a_rigidity_violation(self, monkeypatch):
        _relax_to(monkeypatch, [1.0, 3.0])
        rep = experiment_m_rigidity(4, surfaces=("circle",), **self.M4)
        assert [r["outcome"] for r in rep.runs] == ["rigidity_violation"] * 2
        assert not any(r["structure_ok"] for r in rep.runs)
        assert "no_converged_run_breaks_rigidity" in _failed(rep)

    def test_four_interfaces_escape_the_two_interface_census(self, monkeypatch):
        _relax_to(monkeypatch, np.arange(4) * np.pi / 2)
        rep = experiment_two_interface(eps_list=(0.25,), seeds=range(2))
        assert [r["outcome"] for r in rep.runs] == ["escaped_4_nodal"] * 2
        assert _failed(rep) == {"census_nonvacuous"}

    def test_non_antipodal_pair_fails_the_two_interface_census(self, monkeypatch):
        _relax_to(monkeypatch, [0.0, 2.5])
        rep = experiment_two_interface(eps_list=(0.25,), seeds=range(2))
        assert [r["outcome"] for r in rep.runs] == ["converged_pair"] * 2
        assert not any(r["antipodal"] for r in rep.runs)
        assert _failed(rep) == {"every_converged_pair_antipodal"}


class TestReportDeterminism:
    def test_byte_identical_replay(self):
        a = experiment_two_interface(eps_list=(0.25,), seeds=range(2), n=256)
        b = experiment_two_interface(eps_list=(0.25,), seeds=range(2), n=256)
        assert a.to_json_bytes() == b.to_json_bytes()
        # runtime is measured on every run but is not part of the payload
        for rep in (a, b):
            assert isinstance(rep.runtime_seconds, float) and rep.runtime_seconds > 0.0
        assert b"runtime" not in a.to_json_bytes()

    def test_census_counts(self):
        rep = experiment_comparison()
        census = rep.census()
        assert sum(census.values()) == len(rep.runs)


# every driver at a small size, with the config keys its report adds beyond
# its own parameters
ECHO_CASES = [
    (experiment_two_interface, {"eps_list": (0.25,), "seeds": range(1), "n": 256}, set()),
    (experiment_m_rigidity, {"eps_list": (0.15,), "seeds": (), "surfaces": ("circle",)}, set()),
    (experiment_decay, {"eps_list": (0.05,), "n": 2048}, set()),
    (experiment_comparison, {}, set()),
    (experiment_slide, {"delta_fractions": (0.25,)}, {"delta_max"}),
]


class TestConfigEcho:
    @pytest.mark.parametrize(
        "driver, kwargs, derived", ECHO_CASES, ids=[c[0].__name__ for c in ECHO_CASES]
    )
    def test_config_echoes_every_parameter_and_replays(self, driver, kwargs, derived):
        rep = driver(**kwargs)
        params = [k for k in inspect.signature(driver).parameters if k not in ("p", "cfg")]
        echoed = {"grid_points" if k == "n" else k: k for k in params}
        assert set(rep.config) == set(echoed) | {"potential", "solver", "residual_form"} | derived
        for key, value in kwargs.items():
            expected = list(value) if isinstance(value, range) else value
            assert rep.config["grid_points" if key == "n" else key] == canonicalize(expected)
        # the echoed config alone reproduces the report's bytes
        solver = {k: v for k, v in rep.config["solver"].items() if k != "damping"}
        replay = driver(
            **{arg: rep.config[key] for key, arg in echoed.items()},
            p=make_potential(rep.config["potential"]),
            cfg=SolveConfig(**solver),
        )
        assert replay.to_json_bytes() == rep.to_json_bytes()

    def test_solver_echo_holds_every_solve_config_field(self):
        rep = experiment_comparison(cfg=SolveConfig(tol_grad=1e-11, min_points_per_eps=7.0))
        assert rep.config["solver"] == {
            "tol_grad": 1e-11,
            "flow_dt": None,
            "min_points_per_eps": 7.0,
            "damping": 0.5,
        }

    def test_census_drivers_default_to_tight_tolerance(self):
        rigidity = experiment_m_rigidity(eps_list=(0.15,), seeds=(), surfaces=("circle",))
        assert rigidity.config["solver"]["tol_grad"] == 1e-12
        assert experiment_comparison().config["solver"]["tol_grad"] == 1e-10
