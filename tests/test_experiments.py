import inspect

import numpy as np
import pytest

import phaselab as pl
import phaselab.experiments as experiments
from phaselab import oracle
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
from phaselab.fields import Field, gradient, sup_norm
from phaselab.grids import ResolutionError, circle_distance, circle_grid, interval_grid, torus_grid
from phaselab.nodal import SYMMETRY_TOL, DecayFit, extract_nodal_set
from phaselab.potentials import from_callables, make_potential, quartic
from phaselab.reports import canonicalize
from phaselab.solvers import (
    NewtonDivergenceError,
    NewtonResult,
    SingularJacobianError,
    SolveConfig,
    StopRule,
    gradient_flow,
    multi_interface_seed,
    newton_refine,
    solve_dirichlet_model,
    transverse_gap,
)

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

    def test_inapplicable_pairs_name_their_reason(self, nested):
        u, v, mask = nested
        other = Field(interval_grid(129, u.grid.lengths[0]), np.zeros(129), u.epsilon)
        one_point = np.zeros_like(mask)
        one_point[u.grid.shape[0] // 2] = True
        cases = [
            (u, other, mask, "fields live on different grids"),
            (u, v, mask[1:], "domain mask shape mismatch"),
            (u, v, np.zeros_like(mask), "empty domain"),
            (u, v, one_point, "domain has no interior"),
            (u.with_values(-u.values), v, mask, "u is not strictly positive on the domain"),
        ]
        for a, b, domain, reason in cases:
            rep = comparison_test(a, b, domain, P)
            assert (rep.status, rep.reason) == ("inapplicable", reason)

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

    def test_core_under_four_grid_steps_rejected(self):
        g = circle_grid(256)
        with pytest.raises(BarrierConstructionError, match="spans under 4 grid steps"):
            build_barrier(np.pi, 3 * g.h, 0.1, P, g)

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

    @pytest.mark.parametrize(
        "n, circumference, eps, width, center",
        [(2048, 8 * np.pi, 0.1, 0.5, np.pi), (2048, 8 * np.pi, 0.1, 1.0, 0.2), (1024, 2 * np.pi, 0.05, 0.3, 6.2)],
    )
    def test_lobes_match_the_per_offset_formula_bit_for_bit(self, n, circumference, eps, width, center):
        """The three lobes are the model profile v at offsets up to the core's
        half-width and -v reflected beyond it, zero signs included."""
        g = circle_grid(n, circumference)
        b = build_barrier(center, width, eps, P, g)
        steps = b.half_steps // 3
        v = solve_dirichlet_model(steps * g.h, eps, P, SolveConfig(), n=2 * steps + 1).field.values
        expected = np.zeros(n)
        for s in range(-b.half_steps, b.half_steps + 1):
            a = abs(s)
            expected[(b.center_index + s) % n] = v[steps + s] if a <= steps else -v[3 * steps - a]
        assert np.array_equal(b.field.values.view(np.int64), expected.view(np.int64))

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

    def test_field_on_another_grid_rejected(self):
        g = circle_grid(256)
        b = build_barrier(np.pi, 20 * g.h, 0.2, P, g)
        u = Field(circle_grid(512), np.zeros(512), 0.2)
        with pytest.raises(ValueError, match="different grids"):
            slide_to_touch(u, b, max_offset=1.0)

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

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"surfaces": ("circle", "sphere")}, "unknown surface 'sphere'"),
            ({"perturbation": float("nan")}, "perturbation must be finite, got nan"),
            ({"perturbation": float("-inf")}, "perturbation must be finite, got -inf"),
        ],
        ids=["sphere", "nan", "-inf"],
    )
    def test_m_rigidity_checks_its_arguments_before_any_solve(self, monkeypatch, kwargs, message):
        def no_flow(*args, **kwargs):
            raise AssertionError("a width was flowed before the arguments were checked")

        monkeypatch.setattr(experiments, "gradient_flows", no_flow)
        with pytest.raises(ValueError, match=message):
            experiment_m_rigidity(4, **kwargs)

    @pytest.mark.parametrize("points", [0.0, float("nan"), float("inf")])
    def test_m_rigidity_checks_the_torus_resolution_before_the_circle_census(self, monkeypatch, points):
        def no_solve(*args, **kwargs):
            raise AssertionError("a run was relaxed before the torus config was checked")

        monkeypatch.setattr(experiments, "gradient_flows", no_solve)
        monkeypatch.setattr(experiments, "newton_refine", no_solve)
        with pytest.raises(ValueError, match="min_points_per_eps must be finite and positive"):
            experiment_m_rigidity(4, eps_list=(0.15,), seeds=(), torus_points_per_eps=points)

    @pytest.mark.parametrize(
        "driver, kwargs, coarse",
        [
            (experiment_m_rigidity, {"eps_list": (0.15, 0.01), "seeds": (0,), "surfaces": ("circle",)}, 0.01),
            (experiment_m_rigidity, {"eps_list": (0.15,), "seeds": (0,), "torus_points_per_eps": 100.0}, 0.15),
            (experiment_two_interface, {"eps_list": (0.2, 0.01), "seeds": (0, 1)}, 0.01),
        ],
        ids=["circle_width", "torus_after_circle", "two_interface_width"],
    )
    def test_census_checks_every_width_before_any_solve(self, monkeypatch, driver, kwargs, coarse):
        # a width too coarse for its grid is rejected before the widths before it flow
        def no_solve(*args, **kwargs):
            raise AssertionError("a width was flowed before every width was checked")

        monkeypatch.setattr(experiments, "gradient_flows", no_solve)
        monkeypatch.setattr(experiments, "newton_refine", no_solve)
        with pytest.raises(ResolutionError, match=f"grid too coarse for epsilon = {coarse:g} "):
            driver(**kwargs)

    def test_m_rigidity_rejects_indivisible_grid(self):
        with pytest.raises(ValueError, match="circle grid point count 510 must be divisible by m = 4"):
            experiment_m_rigidity(4, circle_n=510)

    def test_m_rigidity_names_the_torus_grid_it_rejects(self):
        with pytest.raises(ValueError, match="torus grid point count 250 must be divisible by m = 4"):
            experiment_m_rigidity(4, surfaces=("torus",), torus_n=(250, 64))

    def test_m_rigidity_checks_only_the_grids_it_uses(self):
        # the default 256 torus rows do not split into 6, but a circle census never builds the torus
        rep = experiment_m_rigidity(6, eps_list=(0.15,), seeds=(), surfaces=("circle",), circle_n=516)
        assert [(r["surface"], r["outcome"]) for r in rep.runs] == [("circle", "converged_symmetric")]
        assert rep.config["torus_n"] == [256, 64]

    @pytest.mark.parametrize("m", [2, 6])
    def test_slide_rejects_m_other_than_four_before_any_solve(self, monkeypatch, m):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the check")

        monkeypatch.setattr(experiments, "build_barrier", no_solve)
        with pytest.raises(ValueError, match="marks exactly four angles"):
            experiment_slide(m=m)

    def test_m_rigidity_control_converges(self):
        rep = experiment_m_rigidity(
            4, eps_list=(0.15,), seeds=range(1), surfaces=("circle",)
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

    def test_comparison_rejects_a_grid_without_quarter_points(self):
        with pytest.raises(ValueError, match="n - 1 must be divisible by 4"):
            experiment_comparison(n=259)

    def test_comparison_experiment(self):
        rep = experiment_comparison()
        assert rep.passed
        outcomes = {r["case"]: r["outcome"] for r in rep.runs}
        assert outcomes["nested_profiles"] == "holds"
        assert outcomes["nonzero_boundary_sub_field"] == "inapplicable"

    @pytest.mark.parametrize(
        "driver, kwargs",
        [
            (experiment_m_rigidity, {"eps_list": ()}),
            (experiment_decay, {"eps_list": ()}),
            (experiment_slide, {"delta_fractions": ()}),
            (experiment_two_interface, {"seeds": ()}),
        ],
        ids=["m_rigidity", "decay", "slide", "two_interface"],
    )
    def test_a_call_that_runs_nothing_is_rejected(self, driver, kwargs):
        # an empty sweep would otherwise report on zero runs
        with pytest.raises(ValueError, match="produced no run"):
            driver(**kwargs)

    @pytest.mark.parametrize(
        "driver, kwargs",
        [
            (experiment_two_interface, {"eps_list": (0.2, 0.25, 0.2)}),
            (experiment_m_rigidity, {"eps_list": (0.15, 0.15), "seeds": (0,), "surfaces": ("circle",)}),
            (experiment_decay, {"eps_list": (0.05, 0.05)}),
            (experiment_slide, {"delta_fractions": (0.5, 0.25, 0.5)}),
        ],
        ids=["two_interface", "m_rigidity", "decay", "slide"],
    )
    def test_a_repeated_width_or_fraction_is_rejected_before_any_solve(self, monkeypatch, driver, kwargs):
        # a repeat runs one case twice; decay's width-ratio assertion would compare a fit with itself
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the check")

        for name in ("gradient_flows", "newton_refine", "solve_dirichlet_model", "build_barrier"):
            monkeypatch.setattr(experiments, name, no_solve)
        key = next(iter(kwargs))
        with pytest.raises(ValueError, match=f"{key} repeats a value"):
            driver(**kwargs)

    @pytest.mark.parametrize("frac", [0.0, -1.0, 1.5, float("nan"), float("inf")])
    def test_slide_rejects_fractions_outside_the_unit_interval_before_any_solve(self, monkeypatch, frac):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the check")

        monkeypatch.setattr(experiments, "build_barrier", no_solve)
        with pytest.raises(ValueError, match=r"each delta fraction must lie in \(0, 1\]"):
            experiment_slide(delta_fractions=(0.5, frac))

    def test_slide_experiment(self):
        rep = experiment_slide()
        assert rep.passed
        for r in rep.runs:
            assert r["outcome"] == "touched"
            assert r["offset"] < 2 * r["delta"]
            assert r["interior"]


def _relax_to(monkeypatch, angles):
    """Make every Newton solve of a census converge, to a field on the grid
    it was given with sign changes at ``angles``: the census outcomes no
    real run reaches.  Each run still flows its seed, and a torus run still
    takes its transverse certificate, at the injected circle state."""

    def refine(field, p, cfg):
        f = multi_interface_seed(field.grid, field.epsilon, angles)
        return NewtonResult(f, [0.0], 0, True)

    monkeypatch.setattr(experiments, "newton_refine", refine)


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

    @pytest.mark.parametrize("amplitude, interfaces", [(0.0, 512), (4e-9, 4)], ids=["zero", "faint"])
    def test_a_state_whose_signs_cannot_be_read_leaves_the_census_running(self, monkeypatch, amplitude, interfaces):
        # the zero state, a critical point of every double-well census, is an
        # exact zero at each grid point; four crossings of amplitude 4e-9 put
        # every arc midpoint below the 1e-8 at which a sign is read
        g = C07_CIRCLE
        values = amplitude * np.sin(2.0 * (g.axis(0) - 0.5 * g.h)) if amplitude else np.zeros(g.shape)
        _refine_to(monkeypatch, values)
        rep = experiment_m_rigidity(4, eps_list=(0.1,), seeds=(0,), surfaces=("circle",))
        assert [r["outcome"] for r in rep.runs] == ["indeterminate_sign"] * 2
        for row in rep.runs:
            assert row["interfaces"] == interfaces and row["residual"] == 0.0
            assert row["error"].startswith("arc midpoint ") and row["error"].endswith("; sign indeterminate")
        assert _failed(rep) == {"symmetric_solution_found_circle_eps_0.1"}

    @staticmethod
    def _nan_below():
        """The quartic with W' NaN below -0.999, so a flow that gets there fails."""
        q = quartic()
        return from_callables(q.w, lambda x: np.where(x < -0.999, np.nan, q.dw(x)), q.d2w, "nan_below")

    def test_a_failed_flow_is_a_non_converged_run(self):
        rep = experiment_two_interface(eps_list=(0.25,), seeds=range(2), p=self._nan_below())
        assert [r["outcome"] for r in rep.runs] == ["non_converged"] * 2
        assert all(r["error"].startswith("non-finite energy nan at flow step ") for r in rep.runs)
        assert _failed(rep) == {"census_nonvacuous"}

    def test_a_failed_circle_flow_leaves_the_rest_of_its_width_running(self, monkeypatch):
        census = dict(eps_list=(0.25,), seeds=range(3))
        clean = experiment_two_interface(**census).runs
        real = experiments.multi_interface_seed
        seeds = []

        def nan_in_the_second(*args):
            field = real(*args)
            seeds.append(field)
            if len(seeds) == 2:
                field.values[0] = np.nan
            return field

        monkeypatch.setattr(experiments, "multi_interface_seed", nan_in_the_second)
        first, failed, third = experiment_two_interface(**census).runs
        assert failed == {"eps": 0.25, "seed": 1, "phi": clean[1]["phi"],
                          "outcome": "non_converged", "error": "non-finite energy nan at flow step 1"}
        assert [first, third] == [clean[0], clean[2]]

    def test_a_failed_torus_flow_leaves_the_rest_of_the_census_running(self):
        # the torus control's noise reaches the NaN region; the circle's does not
        rep = experiment_m_rigidity(4, eps_list=(0.15,), seeds=(), p=self._nan_below())
        circle, torus = rep.runs
        assert circle["outcome"] == "converged_symmetric"
        assert torus["outcome"] == "non_converged" and "path" not in torus
        assert torus["error"] == "non-finite energy nan at flow step 1"
        assert _failed(rep) == {"symmetric_solution_found_torus_eps_0.15"}


def _refine_to(monkeypatch, values):
    """Make every Newton solve of a census converge to ``values`` on the
    grid it was given: a crafted state for the real judge."""

    def refine(field, p, cfg):
        return NewtonResult(Field(field.grid, values, field.epsilon), [0.0], 0, True)

    monkeypatch.setattr(experiments, "newton_refine", refine)


class TestCensusMutantWitnesses:
    """States that one census check alone rejects, or a pair on both sides
    of one tolerance, judged through the real census: each fails when its
    check is dropped, its tolerance loosened or its bound lowered (ROADMAP
    item 21).  The values are written out here, not read from the
    constants."""

    C07 = dict(eps_list=(0.1,), seeds=(), surfaces=("circle",))  # the eps 0.1 circle control alone

    def _control(self, monkeypatch, values):
        _refine_to(monkeypatch, values)
        (row,) = experiment_m_rigidity(4, **self.C07).runs
        return row

    def test_an_unequal_arc_amplitude_is_rejected_by_the_symmetry_check_alone(self, monkeypatch):
        # equal spacings and alternating signs; one arc scaled by 0.9 between
        # the grid points that bracket its crossings, so no crossing moves
        h = C07_CIRCLE.h
        values = multi_interface_seed(C07_CIRCLE, 0.1, 0.5 * h + np.arange(4) * np.pi / 2).values.copy()
        values[2:128] *= 0.9
        row = self._control(monkeypatch, values)
        assert row["interfaces"] == 4 and row["alternating"]
        assert row["spacing_rel_deviation"] < 1e-12
        assert row["sign_flip_residual"] == pytest.approx(0.1, rel=1e-3)
        assert row["outcome"] == "rigidity_violation"

    def test_a_crossing_moved_within_the_symmetry_tolerance_is_rejected_by_congruence_alone(self, monkeypatch):
        # cubic zeros: a change of 9e-8 at the two points that bracket one
        # crossing moves it by 1.9e-4 of a spacing, and the sign-flip residual is 9e-8
        values = np.sin(2.0 * (C07_CIRCLE.axis(0) - 0.5 * C07_CIRCLE.h)) ** 3
        values[:2] += 9e-8
        row = self._control(monkeypatch, values)
        assert row["interfaces"] == 4 and row["alternating"]
        assert row["sign_flip_residual"] == pytest.approx(9e-8, rel=1e-6)
        assert row["spacing_rel_deviation"] == pytest.approx(1.9e-4, rel=1e-2)
        assert row["outcome"] == "rigidity_violation"

    def test_touching_zeros_below_the_symmetry_tolerance_are_rejected_by_alternation_alone(self, monkeypatch):
        # four equally spaced exact zeros of a field of one sign and amplitude
        # 4e-8: the sign-flip residual is 8e-8
        values = 4e-8 * np.sin(2.0 * C07_CIRCLE.axis(0)) ** 2
        values[::128] = 0.0
        row = self._control(monkeypatch, values)
        assert row["interfaces"] == 4 and row["spacing_rel_deviation"] == 0.0
        assert row["sign_flip_residual"] == pytest.approx(8e-8, rel=1e-6)
        assert not row["alternating"]
        assert row["outcome"] == "rigidity_violation"

    @pytest.mark.parametrize("deviation, passes", [(0.5e-4, True), (2e-4, False)])
    def test_angle_tolerance(self, monkeypatch, deviation, passes):
        _relax_to(monkeypatch, [0.3, 0.3 + np.pi + deviation])
        rep = experiment_two_interface(eps_list=(0.25,), seeds=range(1))
        (row,) = rep.runs
        assert row["outcome"] == "converged_pair"
        assert row["antipodal_deviation"] == pytest.approx(deviation, rel=1e-3)
        assert ("every_converged_pair_antipodal" in _failed(rep)) == (not passes)

    def test_a_control_whose_refine_step_fails_finds_no_symmetric_solution(self, monkeypatch):
        def stagnate(field, p, cfg):
            raise NewtonDivergenceError("stagnated at residual 1.000e-06 (target 1.0e-12)", [1e-6], field.values)

        monkeypatch.setattr(experiments, "newton_refine", stagnate)
        rep = experiment_m_rigidity(4, **self.C07)
        assert [r["outcome"] for r in rep.runs] == ["non_converged"]
        assert _failed(rep) == {"symmetric_solution_found_circle_eps_0.1"}


class TestDecayMutantWitnesses:
    """Crafted decay fits on both sides of each c08 tolerance, judged by the
    real ``experiment_decay``: each failing case passes when RATE_WINDOW,
    WIDTH_RATIO_WINDOW or POINTWISE_SLACK is loosened (ROADMAP item 21).
    The values are written out here, not read from the constants."""

    @staticmethod
    def _failed(monkeypatch, ratios, factor=1.0):
        """The failed assertions when the fit at width eps has the rate
        ``ratios[eps]`` times the linearization rate sqrt(W''(1)) / eps and
        the pointwise factor ``factor``."""
        rate = float(np.sqrt(P.d2w(1.0)))

        def fit(field, ns):
            eps = field.epsilon
            return DecayFit(1.0, ratios[eps] * rate / eps, 0.0, 10, (0.0, 1.0), factor)

        monkeypatch.setattr(experiments, "fit_decay", fit)
        return _failed(experiment_decay(eps_list=(0.05, 0.025)))

    @pytest.mark.parametrize("ratio, passes", [(1.1, True), (1.5, False)])
    def test_rate_window(self, monkeypatch, ratio, passes):
        failed = self._failed(monkeypatch, {0.05: ratio, 0.025: ratio})
        rates = {"rate_matches_linearization_eps_0.05", "rate_matches_linearization_eps_0.025"}
        assert failed == (set() if passes else rates)

    @pytest.mark.parametrize(
        "ratios, passes", [((1.0, 1.2), True), ((0.8, 1.2), False)], ids=["miss-0.2", "miss-0.5"]
    )
    def test_width_ratio_window(self, monkeypatch, ratios, passes):
        # each rate within 0.2 of the linearization's; 1.0 and 1.2 make the
        # rate ratio 2.4 for a width ratio of 2 (a miss of 0.2), 0.8 and 1.2 make it 3 (0.5)
        failed = self._failed(monkeypatch, dict(zip((0.05, 0.025), ratios)))
        assert failed == (set() if passes else {"rate_scales_with_inverse_width_0.05_to_0.025"})

    @pytest.mark.parametrize("factor, passes", [(1.01, True), (1.5, False)])
    def test_pointwise_slack(self, monkeypatch, factor, passes):
        failed = self._failed(monkeypatch, {0.05: 1.0, 0.025: 1.0}, factor)
        assert failed == (set() if passes else {"pointwise_bound_eps_0.05", "pointwise_bound_eps_0.025"})


def test_census_solves_are_looked_up_in_the_experiments_module(monkeypatch):
    """perfbench's tracer and tools/report_digests.py wrap the solvers on
    phaselab.experiments: every width's stacked flow and every row's Newton
    solve must go through those names, not through a solver bound when the
    module was imported."""
    calls = []  # (name, stack size) of each call, in order
    for name in ("multi_interface_seed", "gradient_flows", "newton_refine"):
        def counted(*args, _solve=getattr(experiments, name), _name=name, **kwargs):
            calls.append((_name, len(args[0]) if _name == "gradient_flows" else 1))
            return _solve(*args, **kwargs)

        monkeypatch.setattr(experiments, name, counted)
    rigidity = experiment_m_rigidity(4, eps_list=(0.15,), seeds=range(2), surfaces=("circle", "torus"))
    pairs = experiment_two_interface(eps_list=(0.25,), seeds=range(3))
    runs = rigidity.runs + pairs.runs
    assert [r.get("surface") for r in runs] == ["circle"] * 3 + ["torus"] * 3 + [None] * 3
    # each census width builds its three rows' seeds, one call per row (the
    # benchmark's operation clock counts them), then flows them as one stack
    widths = [c for c in calls if c[0] != "newton_refine"]
    assert widths == ([("multi_interface_seed", 1)] * 3 + [("gradient_flows", 3)]) * 3
    # a torus row solves its fiber mean on the circle, then the torus itself off the reduced path
    newton_rows = [r for r in runs if r.get("reason") != "slow_manifold_force"]
    torus_solves = sum(r.get("path") == "torus_newton" for r in runs)
    assert len(calls) - len(widths) == len(newton_rows) + torus_solves


C07_TORUS = torus_grid(256, 64)
C07_TORUS_CFG = SolveConfig(tol_grad=1e-12, min_points_per_eps=4.0)  # the census' torus config


def _flowed_c07_control(eps, seed):
    _, field0 = experiments._rigidity_seed(C07_TORUS, eps, 4, seed, 0.0, True)
    stop = StopRule(max_steps=experiments.M_RIGIDITY_FLOW_STEPS)
    return gradient_flow(field0, P, C07_TORUS_CFG, stop).field


class TestFiberReduction:
    """Torus runs take the circle solve of their fiber mean under a transverse
    certificate, and the torus Newton solve without one."""

    # c07's torus controls: its 22 circle rows come before the eps 0.1 one,
    # and 11 more torus rows before the eps 0.15 one
    @pytest.mark.parametrize("eps, seed", [(0.1, 10_022), (0.15, 10_033)])
    def test_reduced_path_agrees_with_the_torus_newton_solve(self, eps, seed):
        flowed = _flowed_c07_control(eps, seed)
        torus = newton_refine(flowed, P, C07_TORUS_CFG)
        run = {}
        nr = experiments._fiber_reduced_newton(flowed, P, C07_TORUS_CFG, run)
        assert run["path"] == "fiber_reduced"
        assert torus.residuals[-1] <= 1e-12 and nr.residuals[-1] <= 1e-12
        a, b = extract_nodal_set(torus.field), extract_nodal_set(nr.field)
        assert a.count == b.count == 4
        assert np.max(circle_distance(a.angles, b.angles)) < C07_TORUS.h
        # a fibered field whose torus residual is the circle's, broadcast, bit for bit
        profile = nr.field.values[:, 0]
        assert np.array_equal(nr.field.values, C07_TORUS.extrude(profile))
        residual = gradient(nr.field, P).values
        assert np.array_equal(residual, C07_TORUS.extrude(gradient(Field(circle_grid(256), profile, eps), P).values))
        assert nr.residuals[-1] == sup_norm(residual)

    def test_transverse_instability_takes_the_torus_newton_solve(self):
        """The fibered 4-interface branch loses transverse stability between
        eps 0.30 and 0.33 (ROADMAP F12): the gap must fail there."""
        rep = experiment_m_rigidity(4, eps_list=(0.3, 0.33), seeds=(), surfaces=("torus",))
        stable, unstable = rep.runs
        assert stable["path"] == "fiber_reduced"
        assert stable["transverse_gap"] == pytest.approx(0.1047, abs=1e-3)
        assert unstable["path"] == "torus_newton"
        assert unstable["transverse_gap"] == pytest.approx(-0.0161, abs=1e-3)
        assert max(r["transverse_sup"] for r in rep.runs) <= experiments.TRANSVERSE_SUP_FLOOR

    @pytest.mark.parametrize("factor, path", [(0.5, "fiber_reduced"), (2.0, "torus_newton")])
    def test_transverse_amplitude_above_the_floor_takes_the_torus_newton_solve(self, factor, path):
        g, eps = torus_grid(128, 16), 0.25
        base = multi_interface_seed(g, eps, 0.3 + np.arange(4) * np.pi / 2).values
        amplitude = factor * experiments.TRANSVERSE_SUP_FLOOR
        wave = amplitude * np.cos(2.0 * np.pi * np.arange(16) / 16)
        run = {}
        nr = experiments._fiber_reduced_newton(Field(g, base + wave, eps), P, C07_TORUS_CFG, run)
        assert run["path"] == path
        assert run["transverse_sup"] == pytest.approx(amplitude, rel=1e-9)
        assert run["transverse_gap"] >= experiments.TRANSVERSE_GAP_FLOOR
        assert nr.residuals[-1] <= 1e-12

    def _stagnating_torus_field(self):
        """A fibered two-interface torus field whose fiber mean, a stagnating
        start of the two-interface census, Newton gives up on."""
        cfg, eps = SolveConfig(tol_grad=1e-12), 0.2
        phi = np.random.default_rng(7).uniform(0.6 * np.pi, 1.4 * np.pi)
        seed = multi_interface_seed(circle_grid(256), eps, [0.0, phi])
        profile = gradient_flow(seed, P, cfg, StopRule(max_steps=400)).field.values
        g = torus_grid(256, 16)
        return Field(g, g.extrude(profile), eps), cfg

    def test_gap_is_taken_where_a_failed_circle_newton_stopped(self):
        field, cfg = self._stagnating_torus_field()
        mean = field.values.mean(axis=1)
        with pytest.raises(NewtonDivergenceError, match="stagnated") as failure:
            newton_refine(Field(circle_grid(256), mean, field.epsilon), P, cfg)
        run = {}
        with pytest.raises(NewtonDivergenceError) as raised:
            experiments._fiber_reduced_newton(field, P, cfg, run)
        assert run["path"] == "fiber_reduced" and str(raised.value) == str(failure.value)
        end_gap = transverse_gap(field.grid, field.epsilon, P, failure.value.state)
        assert run["transverse_gap"] == end_gap
        assert end_gap != transverse_gap(field.grid, field.epsilon, P, mean)

    def test_gap_falls_back_to_the_fiber_mean_on_a_singular_jacobian(self, monkeypatch):
        field, cfg = self._stagnating_torus_field()

        def singular(*args):
            raise SingularJacobianError("Newton step blew up (nearly singular Jacobian)")

        monkeypatch.setattr(experiments, "newton_refine", singular)
        run = {}
        with pytest.raises(SingularJacobianError, match="singular"):
            experiments._fiber_reduced_newton(field, P, cfg, run)
        assert run["path"] == "fiber_reduced"
        mean = field.values.mean(axis=1)
        assert run["transverse_gap"] == transverse_gap(field.grid, field.epsilon, P, mean)

    def test_torus_rows_build_one_seed_each(self, monkeypatch):
        """perfbench splits a census into rows at its seed constructions."""
        built = []
        seed = experiments.multi_interface_seed
        monkeypatch.setattr(experiments, "multi_interface_seed", lambda *args: built.append(args) or seed(*args))
        rep = experiment_m_rigidity(4, eps_list=(0.15,), seeds=(0,), surfaces=("torus",))
        assert len(built) == len(rep.runs) == 2
        assert [r["path"] for r in rep.runs] == ["fiber_reduced"] * 2


C07_CIRCLE = circle_grid(512)
C07_CIRCLE_CFG = SolveConfig(tol_grad=1e-12)  # the census' circle config


def _flowed_c07_circle(eps, seed, perturbation):
    _, field0 = experiments._rigidity_seed(C07_CIRCLE, eps, 4, seed, perturbation, False)
    stop = StopRule(max_steps=experiments.M_RIGIDITY_FLOW_STEPS)
    return gradient_flow(field0, P, C07_CIRCLE_CFG, stop).field


def _certify(field, p=P, m=4, tol_grad=C07_CIRCLE_CFG.tol_grad, **run):
    """The certificate's verdict on a flowed field, and the row it filled."""
    return experiments._slow_manifold_certificate(field, run, p, m, tol_grad), run


class TestSlowManifoldCertificate:
    """A flowed c07 circle run is certified non-stationary from its arc
    pressures; each condition of the certificate can refuse it."""

    M4 = dict(eps_list=(0.15,), seeds=range(3), surfaces=("circle",))

    @pytest.mark.parametrize("eps", [0.1, 0.15])
    def test_a_certified_run_predicts_where_newton_stagnates(self, eps):
        field = _flowed_c07_circle(eps, 3, 0.3)
        certified, run = _certify(field)
        assert certified
        assert run["outcome"] == "non_converged" and run["reason"] == "slow_manifold_force"
        assert run["error"].startswith("certified non-stationary: arc pressure spread ")
        assert "residual" not in run and "final_residual" not in run
        assert run["predicted_residual"] == 0.75 * run["pressure_spread"]
        assert run["oracle_gap"] <= experiments.ORACLE_GAP_FRACTION * run["pressure_spread"]
        assert min(run["arc_lengths"]) >= experiments.ARC_FLOOR * eps
        with pytest.raises(NewtonDivergenceError, match="stagnated") as failure:
            newton_refine(field, P, C07_CIRCLE_CFG)
        ratio = failure.value.residuals[-1] / run["predicted_residual"]
        assert abs(ratio - 1.0) <= experiments.SLOW_MANIFOLD_WINDOW

    def test_an_oracle_whose_rate_is_off_by_ten_percent_fails_the_gap_condition(self, monkeypatch):
        field = _flowed_c07_circle(0.1, 3, 0.3)
        monkeypatch.setattr(oracle, "RATE", 1.1 * np.sqrt(2.0))
        certified, run = _certify(field)
        assert not certified and "reason" not in run
        assert run["oracle_gap"] > 10.0 * experiments.ORACLE_GAP_FRACTION * run["pressure_spread"]

    @pytest.mark.parametrize("eps", [0.1, 0.15])
    def test_an_equally_spaced_state_is_never_certified(self, eps):
        m = 4
        model = solve_dirichlet_model(np.pi / m, eps, P, SolveConfig(tol_grad=1e-11), n=512 // m + 1)
        glued = newton_refine(experiments.reflect_extend(model, m), P).field
        for field in (_flowed_c07_circle(eps, 10_000, 0.0), glued):
            certified, run = _certify(field)
            assert not certified and "reason" not in run
            assert run["predicted_residual"] < 1e-15

    @pytest.mark.parametrize("margin, certified", [(2.0, True), (0.5, False)])
    def test_a_predicted_residual_below_the_force_floor_is_refused(self, margin, certified):
        # a tol_grad that puts the prediction at twice or half FORCE_FLOOR
        # tolerances: the floor keeps the force resolvable at Newton's gate
        assert experiments.FORCE_FLOOR == 100.0
        field = _flowed_c07_circle(0.1, 3, 0.3)
        predicted = _certify(field)[1]["predicted_residual"]
        verdict, run = _certify(field, tol_grad=predicted / (margin * 100.0))
        assert verdict is certified and run["predicted_residual"] == predicted

    def test_an_arc_below_the_floor_is_the_only_refusal_of_a_short_arc_state(self, monkeypatch):
        # perturbation 0.7 at eps 0.15 leaves a shortest arc of 5.75 eps
        # after the flow, its arcs on their orbits (gap 2% of the spread)
        field = _flowed_c07_circle(0.15, 1, 0.7)
        certified, run = _certify(field)
        assert not certified and run == {}
        monkeypatch.setattr(experiments, "ARC_FLOOR", 0.0)
        certified, run = _certify(field)
        assert certified and min(run["arc_lengths"]) < 6.0 * 0.15

    def test_a_census_with_an_arc_below_the_floor_runs_newton_on_every_row(self, monkeypatch):
        calls = []
        real = experiments.newton_refine
        monkeypatch.setattr(experiments, "newton_refine", lambda *args: calls.append(1) or real(*args))
        rep = experiment_m_rigidity(4, **{**self.M4, "perturbation": 0.7})
        assert len(calls) == len(rep.runs) == 4
        assert not any("reason" in r for r in rep.runs)
        assert rep.passed  # no row certified: the guard has nothing to back

    def test_only_the_closed_form_potential_and_the_full_count_are_read(self):
        field = _flowed_c07_circle(0.15, 3, 0.3)
        q = quartic()
        assert q.closed_form_orbits
        copy = from_callables(q.w, q.dw, q.d2w, "quartic_copy")
        assert _certify(field, p=copy) == (False, {})
        assert _certify(field, m=6) == (False, {})
        assert _certify(field)[0]

    def test_the_census_certifies_every_perturbed_run_but_the_guard(self):
        rep = experiment_m_rigidity(4, **self.M4)
        control, guard, *rest = rep.runs
        assert control["outcome"] == "converged_symmetric" and "guard" not in control
        assert "predicted_residual" not in control  # read only after its width's guard
        assert guard["guard"] and "reason" not in guard and "residual" not in guard
        assert guard["error"].startswith("stagnated at residual ")
        assert abs(guard["final_residual"] / guard["predicted_residual"] - 1.0) <= 0.01
        assert [r["reason"] for r in rest] == ["slow_manifold_force"] * 2
        assert guard["guard_ratio"] == guard["final_residual"] / guard["predicted_residual"]
        assert not any("guard_ratio" in r for r in (control, *rest))
        assert rep.passed and not any(a["name"].startswith("slow_manifold_guard") for a in rep.assertions)
        assert rep.assertions[0]["detail"] == (
            "0 violations in 4 runs; 0 of 3 perturbed runs reached a critical point"
        )
        assert "circle eps=0.15 perturbed: 0/3 reached a critical point, 2 certified non-stationary" in (
            rep.summary_lines()
        )

    def test_a_guard_made_to_converge_certifies_no_run(self, monkeypatch):
        _relax_to(monkeypatch, np.arange(4) * np.pi / 2)
        rep = experiment_m_rigidity(4, **self.M4)
        # the guard backs no prediction, so the rest of its width takes Newton
        assert [r["outcome"] for r in rep.runs] == ["converged_symmetric"] * 4
        assert not any("predicted_residual" in r for r in rep.runs[2:])
        assert rep.runs[1]["guard_ratio"] is None
        assert rep.passed
        assert rep.assertions[0]["detail"].endswith("3 of 3 perturbed runs reached a critical point")

    @pytest.mark.parametrize("scale, certifies", [(1.0 - 2.0 * 0.05, False), (1.0 - 0.05 / 2.0, True),
                                                  (1.0 + 0.05 / 2.0, True), (1.0 + 2.0 * 0.05, False)])
    def test_a_guard_that_stagnates_outside_the_window_certifies_no_run(self, monkeypatch, scale, certifies):
        # the guard's stagnation residual, 1.005 times its prediction at eps
        # 0.15, scaled across and within SLOW_MANIFOLD_WINDOW (0.05)
        assert experiments.SLOW_MANIFOLD_WINDOW == 0.05
        real = experiments.newton_refine
        calls = []

        def scaled(field, p, cfg):
            calls.append(1)
            try:
                return real(field, p, cfg)
            except NewtonDivergenceError as exc:
                raise NewtonDivergenceError(str(exc), [*exc.residuals[:-1], scale * exc.residuals[-1]]) from None

        monkeypatch.setattr(experiments, "newton_refine", scaled)
        rep = experiment_m_rigidity(4, **self.M4)
        rest = rep.runs[2:]
        assert [r.get("reason") for r in rest] == ["slow_manifold_force" if certifies else None] * 2
        assert len(calls) == (2 if certifies else 4)
        if not certifies:
            assert all(r["error"].startswith("stagnated") and "predicted_residual" not in r for r in rest)
        guard = rep.runs[1]
        assert guard["guard_ratio"] == guard["final_residual"] / guard["predicted_residual"]
        assert rep.passed

    def test_a_census_whose_guard_newton_moves_off_its_prediction_passes_and_certifies_no_run(self):
        # perturbation 0.5: every row is read on the slow manifold, but
        # Newton moves the guard to about 0.15 of its prediction
        rep = experiment_m_rigidity(4, **{**self.M4, "perturbation": 0.5})
        control, guard, *rest = rep.runs
        assert abs(guard["final_residual"] / guard["predicted_residual"] - 1.0) > experiments.SLOW_MANIFOLD_WINDOW
        assert not any("reason" in r for r in rep.runs)
        assert all(r["outcome"] == "non_converged" and "final_residual" in r for r in rest)
        assert rep.passed and not _failed(rep)


def test_a_non_converged_row_records_the_final_residual_of_its_history(monkeypatch):
    errors = iter([
        NewtonDivergenceError("stagnated at residual 5.000e-01 (target 1.0e-12)", [1.0, 0.5]),
        NewtonDivergenceError("non-finite starting residual nan", []),
        SingularJacobianError("Newton step blew up (nearly singular Jacobian)"),
    ])

    def fail(*args):
        raise next(errors)

    monkeypatch.setattr(experiments, "newton_refine", fail)
    rep = experiment_two_interface(eps_list=(0.25,), seeds=range(3))
    assert [r["outcome"] for r in rep.runs] == ["non_converged"] * 3
    assert [r.get("final_residual") for r in rep.runs] == [0.5, None, None]
    assert not any("residual" in r for r in rep.runs)


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
    (
        experiment_two_interface,
        {"eps_list": (0.25,), "seeds": range(1), "n": 256},
        {"phi_range", "angle_tol", "flow_steps"},
    ),
    (
        experiment_m_rigidity,
        {"eps_list": (0.15,), "seeds": (), "surfaces": ("circle",)},
        {
            "noise_amplitude", "congruence_tol", "symmetry_tol", "flow_steps",
            "oracle_gap_fraction", "force_floor", "arc_floor", "slow_manifold_window",
        },
    ),
    (
        experiment_decay,
        {"eps_list": (0.05,), "n": 2048},
        {"rate_window", "width_ratio_window", "pointwise_slack"},
    ),
    (experiment_comparison, {}, {"half_length"}),
    (experiment_slide, {"delta_fractions": (0.25,)}, {"delta_max"}),
]

# the module constant behind each fixed value a driver echoes
FIXED = {
    experiment_two_interface: {
        "phi_range": experiments.PHI_RANGE,
        "angle_tol": experiments.ANGLE_TOL,
        "flow_steps": experiments.TWO_INTERFACE_FLOW_STEPS,
    },
    experiment_m_rigidity: {
        "noise_amplitude": experiments.NOISE_AMPLITUDE,
        "congruence_tol": experiments.CONGRUENCE_TOL,
        "symmetry_tol": SYMMETRY_TOL,
        "flow_steps": experiments.M_RIGIDITY_FLOW_STEPS,
        "oracle_gap_fraction": experiments.ORACLE_GAP_FRACTION,
        "force_floor": experiments.FORCE_FLOOR,
        "arc_floor": experiments.ARC_FLOOR,
        "slow_manifold_window": experiments.SLOW_MANIFOLD_WINDOW,
    },
    experiment_decay: {
        "rate_window": experiments.RATE_WINDOW,
        "width_ratio_window": experiments.WIDTH_RATIO_WINDOW,
        "pointwise_slack": experiments.POINTWISE_SLACK,
    },
    experiment_comparison: {"half_length": experiments.HALF_LENGTH},
}
FIXED_CASES = [case for case in ECHO_CASES if case[0] in FIXED]


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

    @pytest.mark.parametrize(
        "driver, kwargs, derived", FIXED_CASES, ids=[c[0].__name__ for c in FIXED_CASES]
    )
    def test_fixed_values_are_no_keywords_and_the_config_echoes_them(self, driver, kwargs, derived):
        fixed = FIXED[driver]
        for key, value in fixed.items():
            with pytest.raises(TypeError, match=key):
                driver(**kwargs, **{key: value})
        rep = driver(**kwargs)
        assert {key: rep.config[key] for key in fixed} == canonicalize(fixed)

    def test_a_torus_config_echoes_the_transverse_floors(self):
        fixed = {
            "transverse_gap_floor": experiments.TRANSVERSE_GAP_FLOOR,
            "transverse_sup_floor": experiments.TRANSVERSE_SUP_FLOOR,
        }
        kwargs = {"eps_list": (0.15,), "seeds": ()}
        for key, value in fixed.items():
            with pytest.raises(TypeError, match=key):
                experiment_m_rigidity(**kwargs, **{key: value})
        rep = experiment_m_rigidity(**kwargs, surfaces=("torus",))
        assert {key: rep.config[key] for key in fixed} == fixed
        circle = experiment_m_rigidity(**kwargs, surfaces=("circle",))
        assert not set(fixed) & set(circle.config)
        # the slow-manifold certificate's constants go with the circle only
        assert not {"oracle_gap_fraction", "force_floor", "arc_floor", "slow_manifold_window"} & set(rep.config)

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
