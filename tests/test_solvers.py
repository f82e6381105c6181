import dataclasses
import hashlib
import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg.blas import daxpy
from scipy.linalg.lapack import dpttrf, dpttrs
from scipy.optimize import brentq

import phaselab as pl
import phaselab.solvers as solvers
from phaselab.experiments import M_RIGIDITY_FLOW_STEPS, _rigidity_seed
from phaselab.fields import Field, energy, gradient, hessian_apply, residual_kernel, sup_norm
from phaselab.grids import circle_grid, interval_grid, torus_grid
from phaselab.potentials import from_callables, from_table, quartic
from phaselab.solvers import (
    NewtonDivergenceError,
    SingularJacobianError,
    SolveConfig,
    SolverError,
    StopRule,
    existence_threshold,
    gradient_flow,
    multi_interface_seed,
    newton_refine,
    reflect_extend,
    solve_dirichlet_model,
    _make_flow_solver,
    _make_jacobian_solver,
    _solve_cyclic_tridiagonal,
    _solve_tridiagonal,
    _split_corners,
)

P = quartic()
# the quartic sampled on [-2, 2] and interpolated by a cubic spline
TABLE = from_table([[float(x), float(P.w(x))] for x in np.linspace(-2.0, 2.0, 41)])


def shooting_peak(half_length, eps):
    """Independent oracle: peak value of the positive profile via the
    conserved quantity of the interior equation (quadrature of the
    half-period integral, bisected over the peak)."""

    def half_period(umax):
        wm = float(P.w(umax))

        def integrand(s):
            u = umax - s * s
            den = np.sqrt(max(2.0 * (float(P.w(u)) - wm), 1e-300))
            return 2.0 * s / den

        val, _ = quad(integrand, 0.0, np.sqrt(umax), limit=200)
        return eps * val

    return brentq(lambda um: half_period(um) - half_length, 0.1, 1 - 1e-12, xtol=1e-13)


class TestModelSolution:
    def test_positive_profile_at_small_width(self):
        sol = solve_dirichlet_model(np.pi / 2, 0.2, P)
        assert sol.status == "positive"
        v = sol.field.values
        assert v[0] == 0.0 and v[-1] == 0.0
        assert np.all(v[1:-1] > 0)
        assert np.all(v <= 1.0)
        assert 0.9 < v.max() < 1.0
        assert sol.energy_gap > 0

    def test_peak_matches_shooting_oracle(self):
        sol = solve_dirichlet_model(np.pi / 2, 0.2, P)
        assert abs(sol.field.values.max() - shooting_peak(np.pi / 2, 0.2)) <= 1e-4

    def test_even_about_midpoint(self):
        sol = solve_dirichlet_model(np.pi / 2, 0.2, P)
        v = sol.field.values
        assert np.max(np.abs(v - v[::-1])) <= 1e-8

    def test_trivial_above_threshold(self):
        sol = solve_dirichlet_model(np.pi / 2, 2.0, P)
        assert sol.status == "trivial_zero"
        assert np.all(sol.field.values == 0.0)

    def test_sub_margin_critical_point_is_the_zero_solution(self):
        """Just below the discrete threshold eps_h = 1/sqrt(mu1) the positive
        profile exists but beats the zero field by less than TRIVIAL_MARGIN:
        the model solve returns the zero field and records the gap.  A width
        1e-4 below eps_h clears the margin and is positive."""
        L = np.pi / 2
        g = interval_grid(65, L)
        mu1 = (2.0 - 2.0 * np.cos(np.pi * g.h / (2.0 * L))) / g.h**2
        eps_h = 1.0 / np.sqrt(mu1)
        assert eps_h == pytest.approx(1.0001004, abs=1e-7)
        sol = solve_dirichlet_model(L, eps_h * (1 - 1e-5), P, n=65)
        assert sol.status == "trivial_zero"
        assert np.all(sol.field.values == 0.0)
        gap = sol.diagnostics["sub_margin_energy_gap"]
        assert 0.0 < gap < solvers.TRIVIAL_MARGIN
        assert gap == pytest.approx(2.09e-10, rel=0.01)
        assert sol.energy_gap == gap
        sol = solve_dirichlet_model(L, eps_h * (1 - 1e-4), P, n=65)
        assert sol.status == "positive"
        assert sol.energy_gap > solvers.TRIVIAL_MARGIN

    def test_beats_zero_state_energy(self):
        sol = solve_dirichlet_model(np.pi / 2, 0.2, P)
        e0 = energy(Field(sol.field.grid, np.zeros(sol.field.grid.shape), 0.2), P)
        assert energy(sol.field, P) < e0 - 1e-8

    def test_input_validation(self):
        with pytest.raises(ValueError):
            solve_dirichlet_model(-1.0, 0.2, P)

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
    def test_width_and_length_must_be_finite_and_positive(self, bad):
        """Caught before the grid is sized, so never an overflow, a division by
        zero or a resolution message; ``n`` given or not."""
        for n in (None, 129):
            with pytest.raises(ValueError, match="half_length must be finite and positive"):
                solve_dirichlet_model(bad, 0.1, P, n=n)
            with pytest.raises(ValueError, match="epsilon must be finite and positive"):
                solve_dirichlet_model(1.0, bad, P, n=n)
        with pytest.raises(ValueError, match="half_length must be finite and positive"):
            existence_threshold(bad, P)


class TestExistenceThreshold:
    def test_a_stable_zero_state_has_no_threshold(self):
        # W''(0) >= 0: the zero state is stable at every width, so no bisection runs
        bowl = from_callables(lambda u: u * u, lambda u: 2.0 * u, lambda u: 2.0 + 0.0 * u)
        assert existence_threshold(1.0, bowl) == 0.0

    def test_matches_linearization_oracle(self):
        # oracle: 2 * l * sqrt(-W''(0)) / pi
        est = existence_threshold(np.pi / 2, P)
        assert abs(est - 1.0) <= 0.01

    def test_linear_in_half_length(self):
        est = existence_threshold(np.pi / 4, P)
        assert abs(est - 0.5) <= 0.01

    def test_scaling_ratio(self):
        a = existence_threshold(np.pi / 4, P)
        b = existence_threshold(np.pi / 2, P)
        assert abs(b / a - 2.0) <= 1e-2

    @pytest.mark.parametrize(
        "half_length, p, bits",
        [
            (np.pi / 2, P, "0x1.000b333333333p+0"),
            (np.pi / 4, P, "0x1.000b333333333p-1"),
            (1.0, P, "0x1.4601497e82fbep-1"),
            (np.pi / 2, TABLE, "0x1.008528e8fdfccp+0"),
        ],
        ids=["quartic-pi/2", "quartic-pi/4", "quartic-1", "table-pi/2"],
    )
    def test_estimates_keep_their_bits(self, half_length, p, bits):
        """Every bisection verdict, the ones just below the discrete
        threshold included, is the one the gated model solve gave."""
        assert existence_threshold(half_length, p).hex() == bits

    @pytest.mark.parametrize("min_points_per_eps", [1e-3, 8.0, 100.0])
    @pytest.mark.parametrize("p", [P, TABLE], ids=["quartic", "table"])
    def test_the_upper_bracket_is_a_linearly_stable_width(self, p, min_points_per_eps):
        # the bisection's hi, 3 times the linearization's threshold
        # 2 l sqrt(-W''(0)) / pi: the model solve's linear-stability
        # shortcut finds no positive profile there, at every half length
        cfg = SolveConfig(min_points_per_eps=min_points_per_eps)
        for half_length in np.logspace(-3.0, 3.0, 13):
            hi = 3.0 * (2.0 * half_length / np.pi * float(np.sqrt(-p.d2w(0.0))))
            sol = solve_dirichlet_model(half_length, hi, p, cfg)
            assert sol.status == "trivial_zero" and sol.diagnostics["shortcut"] == "linear_stability"


class TestReflectExtend:
    def test_two_copies_antipodal_nodes(self):
        sol = solve_dirichlet_model(np.pi / 2, 0.2, P, n=257)
        f = reflect_extend(sol, 2)
        assert f.grid.kind == "circle"
        assert f.grid.lengths[0] == pytest.approx(2 * np.pi, rel=1e-15)
        ns = pl.extract_nodal_set(f)
        assert np.allclose(np.sort(ns.angles), [0.0, np.pi], atol=1e-12)

    def test_four_copies_equally_spaced_alternating(self):
        sol = solve_dirichlet_model(np.pi / 4, 0.15, P, n=129)
        f = reflect_extend(sol, 4)
        ns = pl.extract_nodal_set(f)
        assert ns.count == 4
        assert np.allclose(np.diff(ns.angles), np.pi / 2, atol=1e-12)
        assert pl.check_alternation(f, ns)

    def test_fewer_than_two_copies_rejected(self):
        sol = solve_dirichlet_model(np.pi / 4, 0.15, P, n=129)
        for copies in (0, 1):
            with pytest.raises(ValueError, match="copies must be at least 2"):
                reflect_extend(sol, copies)

    def test_energy_is_copies_times_model(self):
        sol = solve_dirichlet_model(np.pi / 4, 0.15, P, n=129)
        f = reflect_extend(sol, 4)
        assert abs(energy(f, P) - 4 * energy(sol.field, P)) <= 1e-10

    def test_odd_copies_rejected(self):
        sol = solve_dirichlet_model(np.pi / 4, 0.15, P, n=129)
        with pytest.raises(ValueError, match="even"):
            reflect_extend(sol, 3)

    def test_trivial_model_rejected(self):
        sol = solve_dirichlet_model(np.pi / 2, 2.0, P)
        with pytest.raises(ValueError):
            reflect_extend(sol, 2)


C05_CONFIGS = [(m, eps) for m in (2, 4, 6) for eps in (0.05, 0.1, 0.15)]
C05_CASES = [(np.pi / m, eps, SolveConfig(tol_grad=1e-11), 1536 // m + 1) for m, eps in C05_CONFIGS]
# Just below the discrete threshold (1.00017 at pi/2) the positive profile
# beats the zero field by less than TRIVIAL_MARGIN: the solve flows until
# the gradient falls below 1e-4 and ends trivial_zero, after many chunks.
SUB_MARGIN_CASES = [(np.pi / 2, 1.0001, None, None), (np.pi / 4, 0.50005, None, None)]
MODEL_CASES = C05_CASES + SUB_MARGIN_CASES
MODEL_IDS = [f"c05-m{m}-eps{eps}" for m, eps in C05_CONFIGS] + ["sub-margin-pi/2", "sub-margin-pi/4"]


def _stability_step(eps, p):
    return 0.5 * eps / float(np.max(np.abs(p.d2w(np.linspace(-1.2, 1.2, 101)))))


def _model_chunks(monkeypatch, *args, **kwargs):
    """solve_dirichlet_model(*args, **kwargs) and the trace of every flow chunk it ran."""
    chunks = []
    flow = solvers.gradient_flow

    def recording(*a, **k):
        chunks.append(flow(*a, **k))
        return chunks[-1]

    monkeypatch.setattr(solvers, "gradient_flow", recording)
    return solve_dirichlet_model(*args, **kwargs), chunks


class TestModelFlowAtTheCap:
    """The model solve flows at the stability cap and tries Newton after
    chunks of 25, 50, ... steps."""

    def test_first_newton_attempt_after_25_steps(self):
        sol = solve_dirichlet_model(np.pi / 4, 0.1, P, n=129)
        assert sol.status == "positive"
        assert sol.diagnostics["flow_steps"] <= 100

    def test_chunks_double_up_to_400_steps(self, monkeypatch):
        # in the sub-margin band below the threshold the flow needs many chunks
        sol, chunks = _model_chunks(monkeypatch, np.pi / 2, 1.0001, P)
        assert [t.steps for t in chunks] == [25, 50, 100, 200, 400, 400, 400, 400]
        assert sol.status == "trivial_zero"
        assert sol.diagnostics["flow_steps"] == 1975
        assert sol.energy_gap.hex() == "0x1.8460000000000p-42"

    @pytest.mark.parametrize("half_length, eps, cfg, n", C05_CASES, ids=MODEL_IDS[: len(C05_CASES)])
    def test_c05_profiles_take_one_chunk_and_one_newton_attempt(self, half_length, eps, cfg, n):
        sol = solve_dirichlet_model(half_length, eps, P, cfg, n=n)
        assert sol.status == "positive"
        assert sol.diagnostics["flow_steps"] == 25
        assert sol.diagnostics["newton_attempts"] == 1

    def test_newton_after_the_first_chunk_skips_the_crawl(self):
        """Just below the threshold the gate stays shut for 1,575 steps;
        Newton from the first chunk's state reaches the same profile."""
        half_length, eps = np.pi / 2, 0.9992
        sol = solve_dirichlet_model(half_length, eps, P)
        assert sol.status == "positive" and sol.diagnostics["flow_steps"] == 25

        # the gated path, written out: flow chunks until the gate opens, then Newton
        g = sol.field.grid
        x = g.axis()
        seed = np.clip(np.sin(np.pi * (x + half_length) / (2.0 * half_length)), 0.0, 1.0)
        seed[0] = seed[-1] = 0.0
        u, cfg = Field(g, seed, eps), SolveConfig(flow_dt=_stability_step(eps, P))
        e_zero = energy(Field(g, np.zeros(g.shape), eps), P)
        residual = residual_kernel(g, eps, P)
        chunk, steps = 25, 0
        while True:
            trace = gradient_flow(u, P, cfg, StopRule(max_steps=chunk))
            u, steps, chunk = trace.field, steps + chunk, min(2 * chunk, 400)
            if trace.energies[-1] < e_zero - solvers.TRIVIAL_MARGIN or sup_norm(residual(u.values)) < 1e-4:
                break
        assert steps == 1575
        ref = newton_refine(u, P).field
        assert np.max(np.abs(sol.field.values - ref.values)) <= 1e-10
        assert sol.energy_gap == pytest.approx(e_zero - energy(ref, P), rel=1e-7)

    @pytest.mark.parametrize("half_length, eps, cfg, n", MODEL_CASES, ids=MODEL_IDS)
    def test_energy_never_rises_across_chunks(self, monkeypatch, half_length, eps, cfg, n):
        """Each chunk checks the energy only after its first 10 steps; at the
        cap the unchecked steps must descend too."""
        _, chunks = _model_chunks(monkeypatch, half_length, eps, P, cfg, n=n)
        # a c05 profile takes one chunk; the sub-margin cases cross chunk boundaries
        assert len(chunks) >= (2 if (half_length, eps, cfg, n) in SUB_MARGIN_CASES else 1)
        for before, after in zip(chunks, chunks[1:]):
            assert after.energies[0] == before.energies[-1]
        energies = np.concatenate([t.energies for t in chunks])
        assert np.max(np.diff(energies)) <= 0.0

    @pytest.mark.parametrize("m, eps", C05_CONFIGS)
    def test_profile_matches_the_flow_from_eps_h(self, m, eps):
        """Against the older recipe: 400 flow steps at dt = eps * h from the
        same sine bump, then Newton; that flow stays in [0, 1] with both
        ends 0 as well."""
        half_length, n = np.pi / m, 1536 // m + 1
        cfg = SolveConfig(tol_grad=1e-11)
        sol = solve_dirichlet_model(half_length, eps, P, cfg, n=n)

        g = interval_grid(n, half_length)
        x = g.axis()
        seed = np.clip(np.sin(np.pi * (x + half_length) / (2.0 * half_length)), 0.0, 1.0)
        seed[0] = seed[-1] = 0.0

        slow = SolveConfig(tol_grad=1e-11, flow_dt=eps * g.h)
        trace = gradient_flow(Field(g, seed, eps), P, slow, StopRule(max_steps=400))
        v = trace.field.values
        assert v[0] == v[-1] == 0.0 and 0.0 <= v.min() and v.max() <= 1.0
        ref = newton_refine(trace.field, P, cfg).field.values
        assert sol.status == "positive"
        assert np.max(np.abs(sol.field.values - ref)) <= 1e-12


class TestModelFlowNeedsNoProjection:
    """The model flow is not clipped to [0, 1]: at dt <= eps / max W'' the
    explicit map u - (dt/eps) W'(u) is nondecreasing on [0, 1] and fixes 0
    and 1, the implicit Dirichlet solve is an inverse M-matrix, and the
    interval flow solver copies the end values."""

    @pytest.mark.parametrize(
        "half_length, eps, p, cfg, n",
        [(half_length, eps, P, cfg, n) for half_length, eps, cfg, n in MODEL_CASES]
        + [(np.pi / 2, 0.3, TABLE, None, None), (np.pi / 4, 0.1, TABLE, None, None)],
        ids=MODEL_IDS + ["table-eps0.3", "table-eps0.1"],
    )
    def test_every_step_runs_at_the_stability_step_inside_0_1(
        self, monkeypatch, half_length, eps, p, cfg, n
    ):
        steps = []  # (dt, min, max, first, last) of every flow step's output
        make = solvers._make_flow_solver

        def recording(grid, eps, dt):
            solve = make(grid, eps, dt)

            def step(v, rhs):  # a flow step solves a stack of fields, here of one
                out = solve(v, rhs)
                steps.append((dt, out.min(), out.max(), out[..., 0].max(), out[..., -1].max()))
                return out

            return step

        monkeypatch.setattr(solvers, "_make_flow_solver", recording)
        sol, chunks = _model_chunks(monkeypatch, half_length, eps, p, cfg, n=n)
        sub_margin = (half_length, eps, cfg, n) in SUB_MARGIN_CASES
        assert sol.status == ("trivial_zero" if sub_margin else "positive")
        dt = _stability_step(eps, p)
        assert chunks and all(t.dt_final == dt for t in chunks)
        assert len(steps) == sum(t.steps for t in chunks)  # no step was retried
        dts, lo, hi, first, last = np.array(steps).T
        assert np.all(dts == dt)
        assert lo.min() >= 0.0 and hi.max() <= 1.0
        assert np.all(first == 0.0) and np.all(last == 0.0)


def test_model_stall_names_the_last_newton_failure(monkeypatch):
    """At tol_grad 1e-11 on 4097 points Newton stalls just above the target
    every time, so the flow runs out of steps; the error says why."""
    monkeypatch.setattr(solvers, "MAX_FLOW_STEPS", 400)
    with pytest.raises(
        SolverError, match="stalled after 400 flow steps.*last Newton failure: backtracking stalled"
    ):
        solve_dirichlet_model(np.pi / 2, 0.05, P, SolveConfig(tol_grad=1e-11), n=4097)


def _record_jacobian_solves(monkeypatch):
    """Wrap the Jacobian solvers newton_refine builds; the returned list
    receives the bytes of every (v, res) a solve is called with."""
    solved = []
    make = solvers._make_jacobian_solver

    def recording(grid, eps, p):
        solve = make(grid, eps, p)

        def solve_and_record(v, res):
            solved.append(v.tobytes() + res.tobytes())
            return solve(v, res)

        return solve_and_record

    monkeypatch.setattr(solvers, "_make_jacobian_solver", recording)
    return solved


def _record_residual_inputs(monkeypatch):
    """Wrap the residual kernels the solvers build; the returned list
    receives the SHA-256 of every field a residual is evaluated at, each
    row of a stack as its own field."""
    evaluated = []
    make = solvers.residual_kernel

    def recording(grid, eps, p):
        residual = make(grid, eps, p)

        def residual_and_record(v):
            rows = v if v.ndim > len(grid.shape) else [v]
            evaluated.extend(hashlib.sha256(row.tobytes()).digest() for row in rows)
            return residual(v)

        return residual_and_record

    monkeypatch.setattr(solvers, "residual_kernel", recording)
    return evaluated


STAGNATING_RUNS = [(0.2, 7), (0.2, 34), (0.25, 10)]


def _stagnating_field(eps, seed, cfg):
    """A two-interface census start, flowed as the census flows it, from
    which Newton stagnates."""
    phi = np.random.default_rng(seed).uniform(0.6 * np.pi, 1.4 * np.pi)
    f = multi_interface_seed(circle_grid(256), eps, [0.0, phi])
    return gradient_flow(f, P, cfg, StopRule(max_steps=400)).field


class TestNewtonRefine:
    def test_fixed_point_needs_no_iterations(self):
        sol = solve_dirichlet_model(np.pi / 4, 0.1, P, SolveConfig(tol_grad=1e-12), n=129)
        f = reflect_extend(sol, 4)
        nr = newton_refine(f, P)
        assert nr.iterations <= 1
        assert nr.residuals[-1] <= 1e-10

    @pytest.mark.parametrize("eps, shift", [(0.2, 0.2), (0.25, 0.3)])
    def test_watchdog_walks_share_their_first_solve(self, monkeypatch, eps, shift):
        """One iteration whose capped walk makes no clear progress, so the
        uncapped walk runs too: both start at the same (v, res), and that
        system is solved once."""
        solved = _record_jacobian_solves(monkeypatch)
        monkeypatch.setattr(solvers, "MAX_NEWTON", 1)
        f = multi_interface_seed(circle_grid(256), eps, [0.0, np.pi / 2 + shift, np.pi, 3 * np.pi / 2])
        with pytest.raises(NewtonDivergenceError, match="after 1 Newton"):
            newton_refine(f, P)
        assert len(solved) > 12  # more than one walk ran
        assert len(set(solved)) == len(solved)

    def test_zero_state_is_sign_free_fixed_point(self):
        g = circle_grid(256)
        nr = newton_refine(Field(g, np.zeros(256), 0.3), P)
        assert nr.iterations == 0
        assert sup_norm(nr.field.values) < 1e-6

    def test_quadratic_tail(self):
        sol = solve_dirichlet_model(np.pi / 4, 0.1, P, SolveConfig(tol_grad=1e-12), n=129)
        f = reflect_extend(sol, 4)
        f = f.with_values(f.values + 0.003 * np.sin(3 * f.grid.axis(0)))
        nr = newton_refine(f, P)
        r = nr.residuals
        assert r[-1] <= 1e-10
        # quadratic contraction on the clean leading triple
        assert r[1] <= 1.0 * r[0] ** 2 * 100
        assert r[2] <= 1.0 * r[1] ** 2 * 100

    def test_divergence_reports_trace(self, monkeypatch):
        sol = solve_dirichlet_model(np.pi / 4, 0.1, P, SolveConfig(tol_grad=1e-12), n=129)
        f = reflect_extend(sol, 4)
        f = f.with_values(f.values + 0.01 * np.sin(3 * f.grid.axis(0)))
        monkeypatch.setattr(solvers, "MAX_NEWTON", 1)
        with pytest.raises(NewtonDivergenceError) as err:
            newton_refine(f, P, SolveConfig(tol_grad=1e-13))
        assert len(err.value.residuals) >= 1

    @pytest.mark.parametrize("exit_", ["max_newton", "stagnated", "backtracking"])
    def test_divergence_carries_the_last_accepted_iterate(self, monkeypatch, exit_):
        """Each give-up exit hands back the iterate its history ends at."""
        if exit_ == "max_newton":
            sol = solve_dirichlet_model(np.pi / 4, 0.1, P, SolveConfig(tol_grad=1e-12), n=129)
            f = reflect_extend(sol, 4)
            f = f.with_values(f.values + 0.01 * np.sin(3 * f.grid.axis(0)))
            cfg, match = SolveConfig(tol_grad=1e-13), "after 2 Newton"
            monkeypatch.setattr(solvers, "MAX_NEWTON", 2)
        elif exit_ == "stagnated":
            cfg, match = SolveConfig(tol_grad=1e-12), "stagnated"
            f = _stagnating_field(*STAGNATING_RUNS[0], cfg)
        else:
            f = solve_dirichlet_model(np.pi / 2, 0.05, P, n=4097).field
            cfg, match = SolveConfig(tol_grad=1e-11), "backtracking stalled"
        with pytest.raises(NewtonDivergenceError, match=match) as err:
            newton_refine(f, P, cfg)
        state, history = err.value.state, err.value.residuals
        assert state.shape == f.grid.shape
        assert sup_norm(residual_kernel(f.grid, f.epsilon, P)(state)) == history[-1]
        assert (len(history) > 1) == (not np.array_equal(state, f.values))

    def test_refined_solution_symmetries(self):
        # odd about each nodal angle, even about each extremum
        sol = solve_dirichlet_model(np.pi / 4, 0.1, P, SolveConfig(tol_grad=1e-12), n=129)
        f = reflect_extend(sol, 4)
        nr = newton_refine(f, P)
        v = nr.field.values
        # solver outputs respect the maximum-principle bound
        assert np.max(np.abs(v)) <= 1.0 + 1e-6
        n = v.size
        q = n // 4  # nodal angles at indices 0, q, 2q, 3q
        for j0 in (0, q, 2 * q, 3 * q):
            idx = np.arange(1, q)
            odd = np.abs(v[(j0 + idx) % n] + v[(j0 - idx) % n])
            assert np.max(odd) <= 1e-7
        for mid in (q // 2, q + q // 2):
            idx = np.arange(1, q // 2)
            even = np.abs(v[(mid + idx) % n] - v[(mid - idx) % n])
            assert np.max(even) <= 1e-7


def _sequential_backtrack(residual, v, first_step, rn):
    """Newton's fallback line search as it ran before its trials were
    stacked, frozen here: one trial and one residual call at a time."""
    alpha = solvers.DAMPING
    for _ in range(40):
        trial = v - alpha * first_step
        tres = residual(trial)
        trn = sup_norm(tres)
        if math.isfinite(trn) and trn < rn:
            return trial, tres, trn
        alpha *= solvers.DAMPING
    return None


def _newton_outcome(f, cfg, refine=newton_refine):
    """(message, residual history, bytes of the field or of the error's
    state) of refine(f)."""
    try:
        nr = refine(f, P, cfg)
    except NewtonDivergenceError as exc:
        return str(exc), exc.residuals, exc.state.tobytes()
    return "converged", nr.residuals, nr.field.values.tobytes()


def _two_interface_torus():
    """A two-interface torus start, flowed, from which Newton falls back to
    backtracking once and then converges."""
    cfg = SolveConfig(tol_grad=1e-12, min_points_per_eps=2.0)
    phi = np.random.default_rng(1).uniform(0.6 * np.pi, 1.4 * np.pi)
    f = multi_interface_seed(torus_grid(64, 16), 0.2, [0.0, phi])
    return gradient_flow(f, P, cfg, StopRule(max_steps=400)).field, cfg


class TestStackedBacktracking:
    """Newton's line search evaluates its trials TRIAL_STACK at a time and
    accepts what the one-trial-at-a-time loop accepted."""

    @pytest.mark.parametrize("case", [*STAGNATING_RUNS, "torus"], ids=str)
    def test_newton_matches_the_sequential_line_search(self, monkeypatch, case):
        if case == "torus":
            f, cfg = _two_interface_torus()
        else:
            cfg = SolveConfig(tol_grad=1e-12)
            f = _stagnating_field(*case, cfg)
        searches = []
        stacked = solvers._backtrack

        def counted(*args):
            searches.append(stacked(*args))
            return searches[-1]

        monkeypatch.setattr(solvers, "_backtrack", counted)
        got = _newton_outcome(f, cfg)
        assert searches and all(point is not None for point in searches)
        monkeypatch.setattr(solvers, "_backtrack", _sequential_backtrack)
        assert got == _newton_outcome(f, cfg)
        assert got[0].startswith("converged" if case == "torus" else "stagnated")

    def test_the_first_trial_below_the_bound_wins(self):
        # thresholds that the sequential loop meets at trials on both sides
        # of a stack boundary, at the last trial, and never
        cfg = SolveConfig(tol_grad=1e-12)
        f = _stagnating_field(0.2, 7, cfg)
        g, v = f.grid, f.values
        residual = residual_kernel(g, 0.2, P)
        step = np.sin(3.0 * g.axis(0))
        norms = [sup_norm(residual(v - 0.5 ** (i + 1) * step)) for i in range(40)]
        firsts = set()
        for rn in sorted(set(norms)) + [min(norms), 2.0 * max(norms)]:
            ref = _sequential_backtrack(residual, v, step, rn)
            got = solvers._backtrack(residual, v, step, rn)
            if ref is None:
                assert got is None
                continue
            firsts.add(norms.index(ref[2]))
            assert len(got) == 3 and got[2] == ref[2]
            assert got[0].tobytes() == ref[0].tobytes() and got[1].tobytes() == ref[1].tobytes()
        assert min(firsts) < solvers.TRIAL_STACK <= max(firsts)


def _linked_newton_refine(f, p, cfg):
    """newton_refine as it ran while its walks linked each point to the step
    solved there and to the points that step leads to, frozen here: a walk
    that retraced a step followed the links, so no system was solved twice
    and no residual evaluated twice.  Its line search is ``_backtrack``."""
    v = f.values.copy()
    eps = f.epsilon
    solver = solvers._make_jacobian_solver(f.grid, eps, p)
    residual = solvers.residual_kernel(f.grid, eps, p)
    res = residual(v)
    rn = sup_norm(res)
    history = [rn]
    iterations = 0
    if not math.isfinite(rn):
        raise NewtonDivergenceError(f"non-finite starting residual {rn!r}", history, v)
    point = [v, res, rn, None]

    def solve_at(point):
        if point[3] is None:
            step = solver(point[0], point[1])
            point[3] = (step, sup_norm(step), {})
        return point[3]

    def advance(point, scaled):
        step, size, successors = point[3]
        nxt = successors.get(scaled)
        if nxt is None:
            w = point[0] - (step * (solvers.MAX_STEP / size) if scaled else step)
            w_res = residual(w)
            nxt = successors[scaled] = [w, w_res, sup_norm(w_res), None]
        return nxt

    while rn > cfg.tol_grad:
        if iterations >= solvers.MAX_NEWTON:
            raise NewtonDivergenceError(
                f"no convergence after {iterations} Newton iterations "
                f"(residual {rn:.3e} > {cfg.tol_grad:.1e})",
                history,
                point[0],
            )
        if iterations >= 6 and rn > 100.0 * cfg.tol_grad and history[-6] < 1.05 * rn:
            raise NewtonDivergenceError(
                f"stagnated at residual {rn:.3e} (target {cfg.tol_grad:.1e})", history, point[0]
            )
        step0, size0, _ = solve_at(point)
        if solvers._blown_up(size0, point[0]):
            raise SingularJacobianError("Newton step blew up (nearly singular Jacobian)")
        capped = size0 > solvers.MAX_STEP
        champion = None
        for cap in (solvers.MAX_STEP, None):
            w = point
            for k in range(12):
                if k > 0:
                    try:
                        solve_at(w)
                    except SolverError:
                        break
                    if solvers._blown_up(w[3][1], w[0]):
                        break
                scaled = cap is not None and w[3][1] > cap
                capped = capped or scaled
                w = advance(w, scaled)
                if not math.isfinite(w[2]) or w[2] > 1e3 * (1.0 + rn):
                    break
                if champion is None or w[2] < champion[2]:
                    champion = w
                if w[2] < 0.3 * rn or w[2] <= cfg.tol_grad:
                    break
            if not capped or (champion is not None and champion[2] < 0.3 * rn):
                break
        if champion is not None and champion[2] < rn:
            point = champion
        else:
            first_step = step0 * (solvers.MAX_STEP / size0) if size0 > solvers.MAX_STEP else step0
            trial = solvers._backtrack(residual, point[0], first_step, rn)
            if trial is None:
                raise NewtonDivergenceError(f"backtracking stalled at residual {rn:.3e}", history, point[0])
            point = [*trial, None]
        rn = point[2]
        iterations += 1
        history.append(rn)

    if iterations > 0:
        for _ in range(4):
            try:
                solve_at(point)
            except SolverError:
                break
            trial = advance(point, False)
            if math.isfinite(trial[2]) and trial[2] < 0.5 * point[2]:
                point = trial
                history.append(point[2])
            else:
                break

    return pl.NewtonResult(Field(f.grid, point[0], eps), history, iterations, True)


def _walk_case(case):
    """(field, cfg) of a Newton start: a stagnating two-interface census
    start, the two-interface torus start, the c07 eps 0.1 circle control
    after its flow, or a c05 m = 4 gluing refined below its rounding floor
    (its residual is about 1e-12), so that its walks and line search run."""
    if case == "torus":
        return _two_interface_torus()
    if case == "c07 control":
        cfg = SolveConfig(tol_grad=1e-12)
        _, f = _rigidity_seed(circle_grid(512), 0.1, 4, 10_000, 0.0, False)
        return gradient_flow(f, P, cfg, StopRule(max_steps=M_RIGIDITY_FLOW_STEPS)).field, cfg
    if case == "c05 gluing":
        sol = solve_dirichlet_model(np.pi / 4, 0.1, P, SolveConfig(tol_grad=1e-11), n=385)
        return reflect_extend(sol, 4), SolveConfig(tol_grad=1e-13)
    cfg = SolveConfig(tol_grad=1e-12)
    return _stagnating_field(*case, cfg), cfg


class TestPlainWalks:
    """newton_refine's walks keep plain points and solve again where a walk
    retraces a step.  A solve and a residual depend on their point alone,
    so every run ends as the linked walks ended it, bit for bit."""

    @pytest.mark.parametrize("case", [*STAGNATING_RUNS, "torus", "c07 control", "c05 gluing"], ids=str)
    def test_newton_matches_the_linked_walks(self, monkeypatch, case):
        f, cfg = _walk_case(case)
        solved = _record_jacobian_solves(monkeypatch)
        evaluated = _record_residual_inputs(monkeypatch)
        got = _newton_outcome(f, cfg)
        plain = (set(solved), set(evaluated))
        solved.clear()
        evaluated.clear()
        assert got == _newton_outcome(f, cfg, _linked_newton_refine)
        ends = {"torus": "converged", "c07 control": "converged", "c05 gluing": "backtracking stalled"}
        assert got[0].startswith(ends.get(case, "stagnated"))
        # the same systems solved and the same fields evaluated, each once by the linked walks
        assert len(set(solved)) == len(solved) and len(set(evaluated)) == len(evaluated)
        assert plain == (set(solved), set(evaluated))


class TestGradientFlow:
    def test_constant_state_rolls_to_well(self):
        g = circle_grid(256)
        f = Field(g, np.full(256, 0.1), 0.3)
        trace = gradient_flow(f, P, None, StopRule(max_steps=2000))
        assert np.max(np.abs(trace.field.values - 1.0)) <= 1e-6
        assert trace.energies[-1] <= 1e-6

    def test_energy_monotone_after_transient(self):
        g = circle_grid(256)
        rng = np.random.default_rng(5)
        theta = g.axis(0)
        u = 0.8 * np.sin(theta) + 0.2 * np.cos(3 * theta) + 0.05 * rng.standard_normal(256)
        trace = gradient_flow(Field(g, u, 0.2), P, None, StopRule(max_steps=800))
        diffs = np.diff(trace.energies[10:])
        assert np.max(diffs) <= 1e-8

    def test_equal_spacing_is_stationary(self):
        sol = solve_dirichlet_model(np.pi / 4, 0.15, P, SolveConfig(tol_grad=1e-12), n=129)
        f = reflect_extend(sol, 4)
        trace = gradient_flow(f, P, None, StopRule(max_steps=10_000))
        drift = pl.hausdorff_distance(pl.extract_nodal_set(f), pl.extract_nodal_set(trace.field))
        assert drift <= 1e-4

    def test_perturbed_spacing_drifts(self):
        g = circle_grid(512)
        angles = np.array([0.0, np.pi / 2 + 0.3, np.pi, 3 * np.pi / 2])
        f = multi_interface_seed(g, 0.15, angles)
        trace = gradient_flow(
            f, P, None, StopRule(max_steps=10_000, track_nodal=True, sample_every=1000)
        )
        start = trace.angle_samples[0][1]
        moved = [float(a[1]) for _, a in trace.angle_samples]
        total = abs(moved[-1] - moved[0])
        # non-stationarity is the assertion; the drift direction is recorded
        assert total >= 1e-4
        steps = np.diff(moved)
        assert np.all(steps <= 0) or np.all(steps >= 0)
        assert start.size == 4

    @pytest.mark.parametrize(
        "g",
        [interval_grid(129, 1.0), circle_grid(256), torus_grid(64, 16)],
        ids=lambda g: g.kind,
    )
    @pytest.mark.parametrize("potential", ["quartic", "returns_input"])
    def test_energies_match_the_step_loop_bit_for_bit(self, g, potential):
        """The flow against its step written out: one implicit solve of
        v - (dt/eps) W'(v), then the energy of a new Field (which the kernel
        tests in test_fields pin to the frozen formulas)."""
        # W = x^2/2, whose W' hands back its argument: the flow's own array
        p = P if potential == "quartic" else from_callables(
            lambda x: 0.5 * x * x, lambda x: x, np.ones_like
        )
        eps = 10.0 * g.h
        rng = np.random.default_rng(g.npoints)
        f = Field(g, rng.uniform(-1.0, 1.0, g.shape), eps)
        before = f.values.copy()
        trace = gradient_flow(f, p, None, StopRule(max_steps=40))
        dt = eps * g.h
        solve = _make_flow_solver(g, eps, dt)
        v = f.values.copy()
        ref = [energy(Field(g, v, eps), p)]
        for _ in range(40):
            v = solve(v, v - (dt / eps) * p.dw(v))
            ref.append(energy(Field(g, v, eps), p))
        assert np.array_equal(trace.energies.view(np.int64), np.array(ref).view(np.int64))
        assert np.array_equal(trace.field.values, v)
        assert np.array_equal(f.values, before)

    def test_flow_keeps_the_stability_step(self):
        g = interval_grid(129, np.pi / 4)
        eps = 0.1
        x = g.axis()
        f = Field(g, np.cos(2.0 * x), eps)  # zero at both ends
        dt = _stability_step(eps, P)
        trace = gradient_flow(f, P, SolveConfig(flow_dt=dt), StopRule(max_steps=30))
        assert trace.dt_final == dt
        assert np.max(np.diff(trace.energies)) <= 0.0

    def test_energy_rise_halves_the_step(self):
        """Above the stability step the energy rises and the step halves;
        after the 10-step transient no accepted step raises the energy."""
        f = multi_interface_seed(circle_grid(256), 0.2, [0.0, 2.0])
        trace = gradient_flow(f, P, SolveConfig(flow_dt=0.3), StopRule(max_steps=200))
        assert trace.dt_final == 0.15
        assert np.max(np.diff(trace.energies[10:])) <= 0.0

    def test_step_counts_below_zero_are_rejected(self):
        f = multi_interface_seed(circle_grid(256), 0.2, [0.0, np.pi])
        with pytest.raises(ValueError, match="max_steps"):
            StopRule(max_steps=-5)
        trace = gradient_flow(f, P, None, StopRule(max_steps=0))
        assert trace.steps == 0 and len(trace.energies) == 1
        assert np.array_equal(trace.field.values, f.values)

    def test_sample_every_below_one_is_rejected_when_tracking(self):
        f = multi_interface_seed(circle_grid(256), 0.2, [0.0, np.pi])
        with pytest.raises(ValueError, match="sample_every"):
            StopRule(max_steps=10, track_nodal=True, sample_every=0)
        # without nodal tracking the sampling interval is never read
        gradient_flow(f, P, None, StopRule(max_steps=10, sample_every=0))

    def test_torus_samples_hold_the_interfaces(self):
        # the perturbed four-interface torus flow of the benchmark's construct pass
        g = torus_grid(256, 64)
        cfg = SolveConfig(min_points_per_eps=4.0)
        angles = np.arange(4) * np.pi / 2 + 0.2
        angles[1] += 0.3
        f = multi_interface_seed(g, 0.15, angles)
        trace = gradient_flow(f, P, cfg, StopRule(max_steps=50, sample_every=25, track_nodal=True))
        assert [step for step, _ in trace.angle_samples] == [25, 50]
        for step, sampled in trace.angle_samples:
            at_step = gradient_flow(f, P, cfg, StopRule(max_steps=step)).field
            assert sampled.size == 4
            assert np.array_equal(sampled, pl.extract_nodal_set(at_step).angles)



def test_multi_interface_seed_needs_a_periodic_grid():
    with pytest.raises(ValueError, match="needs a periodic grid"):
        multi_interface_seed(interval_grid(129, 1.0), 0.1, [0.0])


def test_multi_interface_seed_structure():
    g = circle_grid(512)
    angles = [0.5, 1.7, 3.3, 5.1]
    f = multi_interface_seed(g, 0.1, angles)
    ns = pl.extract_nodal_set(f)
    assert ns.count == 4
    assert pl.hausdorff_distance(
        ns, pl.NodalSet("circle", np.array(angles), np.zeros(4, dtype=int), (2 * np.pi,))
    ) <= g.h
    assert pl.check_alternation(f, ns)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"tol_grad": 1e-14},
        {"tol_grad": np.nan},
        {"tol_grad": np.inf},
        {"min_points_per_eps": 0.0},
        {"min_points_per_eps": np.nan},
        {"min_points_per_eps": np.inf},
        {"flow_dt": 0.0},
        {"flow_dt": np.nan},
        {"flow_dt": np.inf},
    ],
    ids=lambda kw: "=".join(map(str, *kw.items())),
)
def test_solve_config_validation(kwargs):
    """A bad value is caught where the config is made, and by replace too."""
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        SolveConfig(**kwargs)
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        dataclasses.replace(SolveConfig(), **kwargs)
    SolveConfig()


def test_checked_settings_are_frozen():
    cfg, stop = SolveConfig(), StopRule()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.tol_grad = np.nan
    with pytest.raises(dataclasses.FrozenInstanceError):
        stop.max_steps = -1
    assert cfg == SolveConfig() and stop == StopRule()


@pytest.mark.parametrize(
    "kwargs,match",
    [
        ({"max_steps": -1}, "max_steps must be nonnegative"),
        ({"max_steps": float("nan")}, "max_steps must be nonnegative"),
        ({"track_nodal": True, "sample_every": 0}, "sample_every must be at least 1"),
        ({"track_nodal": True, "sample_every": float("nan")}, "sample_every must be at least 1"),
    ],
)
def test_stop_rule_validation(kwargs, match):
    with pytest.raises(ValueError, match=match):
        StopRule(**kwargs)
    with pytest.raises(ValueError, match=match):
        dataclasses.replace(StopRule(), **kwargs)
    # without nodal tracking the sampling interval is never read, so never checked
    StopRule(max_steps=0, sample_every=0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_steps": 2.5},
        {"max_steps": 3.0},
        {"track_nodal": True, "sample_every": 2.5},
        {"track_nodal": True, "sample_every": 50.0},
    ],
)
def test_stop_rule_step_counts_must_be_integers(kwargs):
    # a float count would pass the bound and fail inside the flow, as a slice index
    name = "sample_every" if "sample_every" in kwargs else "max_steps"
    with pytest.raises(ValueError, match=f"{name} must be an integer, got {kwargs[name]!r}"):
        StopRule(**kwargs)
    stop = StopRule(max_steps=np.int64(3), sample_every=np.int32(1), track_nodal=True)
    trace = gradient_flow(multi_interface_seed(circle_grid(256), 0.3, [0.0, np.pi]), P, stop=stop)
    assert trace.steps == 3 and [step for step, _ in trace.angle_samples] == [1, 2, 3]


def _dense_cyclic(diag, off):
    n = diag.size
    A = np.diag(diag) + off * (np.eye(n, k=1) + np.eye(n, k=-1))
    A[0, -1] = A[-1, 0] = off
    return A


def _work_arrays(n, off):
    """The off-diagonal and the (n, 2) work array a caller of
    _solve_cyclic_tridiagonal builds once."""
    return np.full(n - 1, off), np.empty((n, 2), order="F")


class TestCircleJacobianSolve:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        n=st.sampled_from([16, 17, 256, 2048]),
        seed=st.integers(0, 2**32 - 1),
        family=st.sampled_from(["jacobian", "indefinite"]),
        zero_corner=st.booleans(),
    )
    def test_matches_dense_solve(self, n, seed, family, zero_corner):
        rng = np.random.default_rng(seed)
        cc = 10.0 ** rng.uniform(0.0, 4.0)  # eps / h^2
        if family == "jacobian":
            # 2 eps/h^2 + W''(u)/eps with W'' in [-1, 3.3]: indefinite near
            # the interfaces, as at the saddles Newton refines
            diag = 2.0 * cc + rng.uniform(-1.0, 3.3, n) * 10.0 ** rng.uniform(0.0, 1.3)
        else:
            diag = rng.uniform(-4.0, 4.0, n) * cc
        if zero_corner:
            diag[0] = 0.0  # the Sherman-Morrison shift falls back to the coupling
        rhs = rng.standard_normal(n)
        x = _solve_cyclic_tridiagonal(diag.copy(), -cc, rhs, *_work_arrays(n, -cc))  # overwrites diag
        ref = np.linalg.solve(_dense_cyclic(diag, -cc), rhs)
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)

    @pytest.mark.parametrize("d0, g", [(3.0, -3.0), (-2.5, 2.5), (0.25, -1.5), (0.0, -1.5)])
    def test_split_corners_rebuilds_the_periodic_chain(self, d0, g):
        # A = B + u w^T; the shift falls back to -|off| when |diag[0]| < |off|
        diag = np.r_[d0, np.linspace(-2.0, 4.0, 9)]
        B = diag.copy()
        assert _split_corners(B, -1.5) == (g, -1.5 / g)
        u, w = np.zeros(10), np.zeros(10)
        u[0], u[-1] = g, -1.5
        w[0], w[-1] = 1.0, -1.5 / g
        split = _dense_cyclic(B, -1.5)
        split[0, -1] = split[-1, 0] = 0.0
        np.testing.assert_allclose(split + np.outer(u, w), _dense_cyclic(diag, -1.5), rtol=0, atol=1e-15)

    def test_solver_inverts_hessian(self):
        g = circle_grid(256)
        f = multi_interface_seed(g, 0.2, [0.0, 2.5])
        J = np.column_stack(
            [hessian_apply(f, f.with_values(e), P).values for e in np.eye(256)]
        )
        rhs = gradient(f, P).values
        step = _make_jacobian_solver(g, 0.2, P)(f.values, rhs)
        ref = np.linalg.solve(J, rhs)
        assert np.linalg.norm(step - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_singular_banded_part_raises(self):
        # diag[0] = 0 picks the shift -|off|, which leaves the banded part the
        # Neumann chain tridiag(-1, 2, -1) with unit corners: an exact zero pivot
        diag = np.full(16, 2.0)
        diag[0] = diag[-1] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            _solve_cyclic_tridiagonal(diag, -1.0, np.ones(16), *_work_arrays(16, -1.0))

    def test_non_finite_iterate_raises_singular_jacobian(self):
        g = circle_grid(256)
        v = np.zeros(256)
        v[7] = np.nan
        with pytest.raises(SingularJacobianError):
            _make_jacobian_solver(g, 0.2, P)(v, np.ones(256))

    def test_newton_on_inflection_constant_is_singular(self):
        # W''(1/sqrt 3) = 0, so the Jacobian is -eps Lap_h, singular on constants
        g = circle_grid(256)
        f = Field(g, np.full(256, 1.0 / np.sqrt(3.0)), 0.2)
        with pytest.raises(SingularJacobianError):
            newton_refine(f, P)


def _banded_flow_step(grid, eps, dt, v, p):
    """The interval flow step as one solve_banded call per step, kept as an oracle."""
    c = dt * eps / grid.h**2
    m = grid.shape[0] - 2
    ab = np.zeros((3, m))
    ab[0, 1:] = -c
    ab[1, :] = 1.0 + 2.0 * c
    ab[2, :-1] = -c
    rhs = v - (dt / eps) * p.dw(v)
    r = rhs[1:-1].copy()
    r[0] += c * v[0]
    r[-1] += c * v[-1]
    out = v.copy()
    out[1:-1] = scipy.linalg.solve_banded((1, 1), ab, r)
    return out


def _frozen_interval_step(grid, eps, dt):
    """The interval flow step as it was solved field by field, frozen:
    dpttrf of the interior rows' chain once, and per field one dpttrs of its
    interior rows, cc times its end values added to the rows next to them,
    with its ends copied."""
    cc = dt * eps / grid.h**2
    m = grid.shape[0] - 2
    d, e, info = dpttrf(np.full(m, 1.0 + 2.0 * cc), np.full(m - 1, -cc))
    assert info == 0

    def step(v, rhs):
        out = rhs.copy()
        r = out[1:-1]
        r[0] += cc * v[0]
        r[-1] += cc * v[-1]
        r[:] = dpttrs(d, e, r)[0]
        out[0], out[-1] = v[0], v[-1]
        return out

    return step


class TestIntervalFlowStep:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        n=st.integers(16, 1025),
        eps=st.sampled_from([0.025, 0.05, 0.1, 0.2, 0.5]),
        halvings=st.integers(0, 8),
        grow=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=17, eps=0.05, halvings=0, grow=False, seed=3)  # 15 interior rows
    @example(n=1025, eps=0.5, halvings=8, grow=True, seed=11)
    def test_prefactored_step_matches_banded_solve(self, n, eps, halvings, grow, seed):
        """The interior operator tridiag(-cc, 1 + 2 cc, -cc) is an M-matrix
        with row sums at least 1, so |A^-1|_inf <= 1 and cond_inf(A) <=
        1 + 4 cc; the bound grants both solves 64 ulps of backward error.
        Dropping the boundary terms cc * v[0], cc * v[-1] or flipping the sign
        of the off-diagonal fails it.  The fields solved as one stack get the
        bits of the frozen field-by-field solve, zero signs included."""
        g = interval_grid(n, 1.0 + seed % 7)
        # the default step eps * h, halved as after energy rises, or 1.4
        # times larger, as a caller's flow_dt may be
        dt = eps * g.h * 0.5**halvings * (1.4 if grow else 1.0)
        cc = dt * eps / g.h**2
        rng = np.random.default_rng(seed)
        step = _make_flow_solver(g, eps, dt)
        # one factorization, several right-hand sides, the last all -0.0
        fields = [rng.uniform(-1.2, 1.2, n) for _ in range(3)] + [np.full(n, -0.0)]
        for v in fields:
            got = step(v, v - (dt / eps) * P.dw(v))  # the step solves in place in rhs
            ref = _banded_flow_step(g, eps, dt, v, P)
            assert np.array_equal(got[[0, -1]], v[[0, -1]])
            bound = 64 * np.finfo(float).eps * (1.0 + 4.0 * cc) * np.abs(got).max()
            assert np.abs(got - ref).max() <= bound
        v = np.array(fields)
        got = step(v, v - (dt / eps) * P.dw(v))
        frozen = _frozen_interval_step(g, eps, dt)
        for w, x in zip(v, got):
            assert np.array_equal(x.view(np.int64), frozen(w, w - (dt / eps) * P.dw(w)).view(np.int64))

    def test_singular_operator_raises(self):
        # dt = -h^2 / (2 eps) makes the operator tridiag(1/2, 0, 1/2) on 15
        # interior points: not positive definite, so dpttrf stops at its
        # first pivot, 0
        g = interval_grid(17, 1.0)
        with pytest.raises(np.linalg.LinAlgError):
            _make_flow_solver(g, 0.5, -0.5 * g.h**2 / 0.5)


NON_FINITE_GRIDS = [interval_grid(129, 1.0), circle_grid(256), torus_grid(256, 16)]


def _with_one_nan(grid):
    v = np.zeros(grid.shape)
    v.flat[7] = np.nan
    return Field(grid, v, 0.2)


@pytest.mark.parametrize("grid", NON_FINITE_GRIDS, ids=lambda g: g.kind)
def test_newton_rejects_non_finite_field(grid):
    with pytest.raises(NewtonDivergenceError, match="non-finite"):
        newton_refine(_with_one_nan(grid), P)


@pytest.mark.parametrize("grid", NON_FINITE_GRIDS, ids=lambda g: g.kind)
def test_flow_stops_on_non_finite_energy(grid):
    with pytest.raises(SolverError, match="non-finite energy"):
        gradient_flow(_with_one_nan(grid), P, stop=StopRule(max_steps=20))


# ---------------------------------------------------------------------------
# the direct dgtsv Jacobian solves against the solve_banded code they replace


def _banded_interval_jacobian(grid, eps, p):
    """The interval Jacobian solve as one solve_banded call, kept as an oracle."""
    c = eps / grid.h**2

    def solve(v, res):
        m = grid.shape[0] - 2
        ab = np.zeros((3, m))
        ab[0, 1:] = -c
        ab[1, :] = 2.0 * c + p.d2w(v[1:-1]) / eps
        ab[2, :-1] = -c
        s = np.zeros_like(v)
        s[1:-1] = scipy.linalg.solve_banded((1, 1), ab, res[1:-1])
        return s

    return solve


def _banded_cyclic(diag, off, rhs):
    """The Sherman-Morrison cyclic solve through solve_banded, kept as an oracle."""
    n = diag.size
    g = -diag[0] if abs(diag[0]) >= abs(off) else -abs(off)
    ab = np.empty((3, n))
    ab[0] = ab[2] = off
    ab[1] = diag
    ab[1, 0] -= g
    ab[1, -1] -= off * off / g
    b = np.zeros((n, 2))
    b[:, 0] = rhs
    b[0, 1] = g
    b[-1, 1] = off
    yz = scipy.linalg.solve_banded((1, 1), ab, b)
    y, z = yz[:, 0], yz[:, 1]
    ratio = off / g
    denom = 1.0 + z[0] + ratio * z[-1]
    if denom == 0.0 or not np.isfinite(denom):
        raise np.linalg.LinAlgError(f"Sherman-Morrison denominator is {denom!r}")
    return y - ((y[0] + ratio * y[-1]) / denom) * z


def _banded_circle_jacobian(grid, eps, p):
    cc = eps / grid.h**2
    return lambda v, res: _banded_cyclic(2.0 * cc + p.d2w(v) / eps, -cc, res)


def _outcome(solve, *args):
    """The solution's bits, or the type of the error the solve raised."""
    try:
        return solve(*args).view(np.int64)
    except (np.linalg.LinAlgError, SolverError) as exc:
        return type(exc)


BANDED_ORACLES = {
    "interval": (interval_grid, _banded_interval_jacobian),
    "circle": (circle_grid, _banded_circle_jacobian),
}


def _frozen_cyclic(diag, off, rhs):
    """_solve_cyclic_tridiagonal as it was before it took a work array, kept
    its scalars in numpy and copied ``diag``, frozen here."""
    n = diag.size
    g = -diag[0] if abs(diag[0]) >= abs(off) else -abs(off)
    d = diag.copy()
    d[0] -= g
    d[-1] -= off * off / g
    b = np.zeros((n, 2), order="F")
    b[:, 0] = rhs
    b[0, 1] = g
    b[-1, 1] = off
    yz = _solve_tridiagonal(np.full(n - 1, off), d, b, overwrite_b=True)
    y, z = yz[:, 0], yz[:, 1]
    ratio = off / g
    denom = 1.0 + z[0] + ratio * z[-1]
    if denom == 0.0 or not np.isfinite(denom):
        raise np.linalg.LinAlgError(f"Sherman-Morrison denominator is {denom!r}")
    return y - ((y[0] + ratio * y[-1]) / denom) * z


def _outcome_and_message(solve, *args):
    """The solution's bits, or the type and message of the error raised."""
    try:
        return solve(*args).view(np.int64)
    except (np.linalg.LinAlgError, ValueError, SolverError) as exc:
        return type(exc), str(exc)


def _assert_same_outcome(got, ref):
    if isinstance(ref, np.ndarray):
        assert isinstance(got, np.ndarray) and np.array_equal(got, ref)
    else:
        assert got == ref


# the three errors: the Sherman-Morrison denominator of the singular
# circulant tridiag(-1.5, 3, -1.5) on 16 points is exactly zero; diag[0] = 0
# makes B the Neumann chain, an exact zero pivot; and a non-finite entry
CYCLIC_ERRORS = [
    (np.full(16, 3.0), -1.5, np.ones(16), "Sherman-Morrison denominator is np.float64(0.0)"),
    (np.r_[0.0, np.full(14, 2.0), 0.0], -1.0, np.ones(16), "singular matrix"),
    (np.r_[np.nan, np.full(15, 3.0)], -1.0, np.ones(16), "array must not contain infs or NaNs"),
    (np.full(16, 3.0), -1.0, np.r_[np.inf, np.ones(15)], "array must not contain infs or NaNs"),
]


class TestLeanCyclicSolve:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        n=st.integers(16, 2048),
        seed=st.integers(0, 2**32 - 1),
        definite=st.booleans(),
        zero_corner=st.booleans(),
    )
    def test_matches_the_frozen_solve_bit_for_bit(self, n, seed, definite, zero_corner):
        rng = np.random.default_rng(seed)
        cc = 10.0 ** rng.uniform(0.0, 4.0)
        # definite: the Jacobian away from the interfaces, 2 cc + W''/eps > 2 cc;
        # indefinite: W''/eps outweighing 2 cc, as at the saddles Newton refines
        diag = 2.0 * cc + rng.uniform(0.0, 3.0, n) if definite else rng.uniform(-4.0, 4.0, n) * cc
        if zero_corner:
            diag[0] = 0.0
        rhs = rng.standard_normal(n)
        offs, b = _work_arrays(n, -cc)
        b.fill(np.nan)
        ref = _outcome_and_message(_frozen_cyclic, diag, -cc, rhs)
        for _ in range(2):  # a reused work array is overwritten, not read
            got = _outcome_and_message(_solve_cyclic_tridiagonal, diag.copy(), -cc, rhs, offs, b)
            _assert_same_outcome(got, ref)

    @pytest.mark.parametrize("diag, off, rhs, message", CYCLIC_ERRORS)
    def test_errors_keep_their_messages(self, diag, off, rhs, message):
        ref = _outcome_and_message(_frozen_cyclic, diag, off, rhs)
        assert ref[1] == message
        work = _work_arrays(diag.size, off)
        got = _outcome_and_message(_solve_cyclic_tridiagonal, diag.copy(), off, rhs, *work)
        assert got == ref

    def test_circle_jacobian_error_message_is_unchanged(self):
        # census rows quote it; h = eps = 1 and W'' = 0 make the Jacobian
        # the singular circulant tridiag(-1, 2, -1) on 18 points
        p = from_callables(P.w, P.dw, np.zeros_like)
        solve = _make_jacobian_solver(circle_grid(18, 18.0), 1.0, p)
        with pytest.raises(SingularJacobianError) as info:
            solve(np.zeros(18), np.ones(18))
        assert str(info.value) == (
            "cyclic Jacobian solve failed: Sherman-Morrison denominator is np.float64(0.0)"
        )


class TestDirectTridiagonalSolves:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        kind=st.sampled_from(sorted(BANDED_ORACLES)),
        n=st.integers(16, 2048),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_jacobian_solves_are_bit_identical_to_solve_banded(self, kind, n, seed):
        make_grid, oracle = BANDED_ORACLES[kind]
        rng = np.random.default_rng(seed)
        g = make_grid(n, 10.0 ** rng.uniform(-0.5, 1.5))
        # eps / h from 0.2 to 30: at small ratios W''(u)/eps < 0 outweighs
        # 2 eps/h^2 wherever |u| < 1/sqrt(3), so the diagonal is indefinite
        eps = g.h * 10.0 ** rng.uniform(-0.7, 1.5)
        v = rng.uniform(-1.2, 1.2, n)
        res = rng.standard_normal(n)
        solve = _make_jacobian_solver(g, eps, P)
        for _ in range(2):  # the interval solver reuses its off-diagonal array
            got = _outcome(solve, v, res)
            ref = _outcome(oracle(g, eps, P), v, res)
            if isinstance(ref, np.ndarray):
                assert isinstance(got, np.ndarray) and np.array_equal(got, ref)
            else:
                assert got is SingularJacobianError

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n=st.integers(16, 2048), seed=st.integers(0, 2**32 - 1), zero_corner=st.booleans())
    def test_cyclic_solve_is_bit_identical_on_indefinite_diagonals(self, n, seed, zero_corner):
        rng = np.random.default_rng(seed)
        cc = 10.0 ** rng.uniform(0.0, 4.0)
        diag = rng.uniform(-4.0, 4.0, n) * cc
        if zero_corner:
            diag[0] = 0.0
        rhs = rng.standard_normal(n)
        got = _outcome(_solve_cyclic_tridiagonal, diag.copy(), -cc, rhs, *_work_arrays(n, -cc))
        ref = _outcome(_banded_cyclic, diag, -cc, rhs)
        if isinstance(ref, np.ndarray):
            assert isinstance(got, np.ndarray) and np.array_equal(got, ref)
        else:
            assert got is ref

    def test_exact_zero_pivot_raises_linalg_error(self):
        # tridiag(1/2, 0, 1/2) on 15 points is singular: dgtsv meets a zero pivot
        with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
            _solve_tridiagonal(np.full(14, 0.5), np.zeros(15), np.ones(15))

    def test_interval_zero_pivot_raises_singular_jacobian(self):
        # W'' = -eps/h^2 with eps = 1/2 makes the diagonal 2 eps/h^2 + W''/eps
        # exactly zero: tridiag(-c, 0, -c) on 15 interior points
        g = interval_grid(17, 1.0)
        eps = 0.5
        c = eps / g.h**2
        p = from_callables(P.w, P.dw, lambda x: np.full_like(x, -c))
        with pytest.raises(SingularJacobianError) as info:
            _make_jacobian_solver(g, eps, p)(np.zeros(17), np.ones(17))
        assert str(info.value) == "banded Jacobian solve failed: singular matrix"
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)

    def test_interval_non_finite_iterate_raises_singular_jacobian(self):
        g = interval_grid(129, 1.0)
        v = np.zeros(129)
        v[7] = np.nan
        with pytest.raises(SingularJacobianError, match="infs or NaNs"):
            _make_jacobian_solver(g, 0.2, P)(v, np.ones(129))

    def test_non_finite_right_hand_side_raises_value_error(self):
        b = np.ones(15)
        b[3] = np.inf
        with pytest.raises(ValueError, match="infs or NaNs"):
            _solve_tridiagonal(np.full(14, -1.0), np.full(15, 3.0), b)


# ---------------------------------------------------------------------------
# the circle and torus flow solves against the formulas they were written as


def _flow_rhs(rng, shape, eps, dt):
    v = rng.uniform(-1.2, 1.2, shape)
    return v, v - (dt / eps) * P.dw(v)


def _dense_periodic_chain(n, cc):
    """I + cc * (-Lap) on a periodic chain of n points, h = 1, as a dense
    matrix: the diagonal 1 + 2 cc, the off-diagonals and the corners -cc."""
    ring = np.eye(n, k=1) + np.eye(n, k=-1) + np.eye(n, k=n - 1) + np.eye(n, k=1 - n)
    return (1.0 + 2.0 * cc) * np.eye(n) - cc * ring


@pytest.mark.parametrize("n", [16, 17, 256, 2048])
def test_circle_flow_solve_matches_dense_solve(n):
    """A = I + cc (-Lap) is an M-matrix with unit row sums, so
    |A^-1|_inf <= 1 and cond_inf(A) <= 1 + 4 cc; the bound grants both
    solves 64 ulps of backward error.  Dropping the rank-1 correction or
    flipping the sign of the corners fails it at every n and cc."""
    rng = np.random.default_rng(n)
    g = circle_grid(n)
    eps = 0.2
    for cc in (1e-3, 0.37, 41.0, 5e3):
        dt = cc * g.h**2 / eps
        cc = dt * eps / g.h**2  # the operator the step factors, to the last bit
        step = _make_flow_solver(g, eps, dt)
        rhs = rng.uniform(-1.2, 1.2, (3, n))
        dense = np.linalg.solve(_dense_periodic_chain(n, cc), rhs.T).T
        for b, x_dense in zip(rhs, dense):
            x = step(None, b)
            bound = 64 * np.finfo(float).eps * (1.0 + 4.0 * cc) * np.abs(x).max()
            assert np.abs(x - x_dense).max() <= bound


def _frozen_circle_flow(g, eps, dt, v, steps):
    """gradient_flow's loop on the circle, frozen: per step size, dpttrf of
    the chain without its corners, shifted by g = -(1 + 2 cc) at its ends,
    and B^-1 u; per step, one dpttrs and the Sherman-Morrison correction by
    daxpy; the energy's periodic formula.  The field, the energies and the
    final step."""
    n, h = g.shape[0], g.h

    def energy_of(v):
        du = np.empty_like(v)
        np.subtract(v[1:], v[:-1], out=du[:-1])
        du[-1] = v[0] - v[-1]
        return 0.5 * eps * (h / h) / h * float(np.dot(du, du)) + h / eps * float(P.w(v).sum())

    def solver(dt):
        cc = dt * eps / h**2
        d0 = 1.0 + 2.0 * cc
        diag = np.full(n, d0)
        diag[0], diag[-1] = 2.0 * d0, d0 + cc * cc / d0
        d, e, info = dpttrf(diag, np.full(n - 1, -cc))
        assert info == 0
        u = np.zeros(n)
        u[0], u[-1] = -d0, -cc
        z = dpttrs(d, e, u)[0]
        ratio = cc / d0
        denom = 1.0 + z[0] + ratio * z[-1]

        def solve(rhs):
            y = dpttrs(d, e, rhs)[0]
            return daxpy(z, y, a=-(y[0] + ratio * y[-1]) / denom)

        return solve

    solve = solver(dt)
    energies = [energy_of(v)]
    for step_i in range(1, steps + 1):
        while True:
            v_new = solve(v - P.dw(v) * (dt / eps))
            e_new = energy_of(v_new)
            if step_i > 10 and e_new > energies[-1] + solvers.ENERGY_SLACK:
                dt *= 0.5
                solve = solver(dt)
                continue
            break
        v = v_new
        energies.append(e_new)
    return v, np.array(energies), dt


@pytest.mark.parametrize("n", [256, 257])
def test_circle_flow_with_a_halving_matches_the_frozen_dpttrs_loop(n):
    g = circle_grid(n)
    eps = 0.2
    f = multi_interface_seed(g, eps, [0.0, 2.0])
    trace = gradient_flow(f, P, SolveConfig(flow_dt=0.3), StopRule(max_steps=40))
    v, energies, dt_final = _frozen_circle_flow(g, eps, 0.3, f.values, 40)
    assert dt_final == trace.dt_final == 0.15
    assert np.array_equal(trace.energies.view(np.int64), energies.view(np.int64))
    assert np.array_equal(trace.field.values.view(np.int64), v.view(np.int64))


def _assert_same_trace(got, ref):
    """Two FlowTraces with the same bits: field, energies, final step, step
    count and angle samples."""
    assert got.steps == ref.steps and got.dt_final == ref.dt_final
    assert np.array_equal(got.field.values.view(np.int64), ref.field.values.view(np.int64))
    assert np.array_equal(got.energies.view(np.int64), ref.energies.view(np.int64))
    assert [s for s, _ in got.angle_samples] == [s for s, _ in ref.angle_samples]
    for (_, a), (_, b) in zip(got.angle_samples, ref.angle_samples):
        assert np.array_equal(a.view(np.int64), b.view(np.int64))


def _circle_seeds(n, count):
    """``count`` circle seeds of two or four interfaces at random angles,
    at the census width of the grid (eps 0.2 at n 256, 0.1 at n 512)."""
    g, eps = circle_grid(n), 0.2 if n == 256 else 0.1
    rng = np.random.default_rng(n + count)
    return [multi_interface_seed(g, eps, np.sort(rng.uniform(0.0, 2 * np.pi, 2 + 2 * (i % 2)))) for i in range(count)]


def _nan_at(step, row):
    """The quartic whose W' writes one NaN into field ``row`` of the stack
    it is given at its ``step``-th call, the flow's ``step``-th step."""
    calls = []

    def dw(x):
        calls.append(None)
        out = P.dw(x)
        if len(calls) == step:
            out[row, out.shape[-1] // 2] = np.nan
        return out

    return from_callables(P.w, dw, P.d2w, "nan")


def _interval_seeds(count):
    """``count`` interval waves of one to three modes, noisy, pinned at 0."""
    g, rng = interval_grid(263, 1.0), np.random.default_rng(count)
    seeds = []
    for i in range(count):
        v = np.cos((1 + i % 3) * np.pi * g.axis()) + 0.1 * rng.standard_normal(g.shape)
        v[0] = v[-1] = 0.0
        seeds.append(Field(g, v, 0.2))
    return seeds


def _noisy_torus_seeds(count):
    """``count`` four-interface torus seeds with census-like noise, so that
    they flow on the full grid."""
    f, rng = _four_interface_torus(), np.random.default_rng(count)
    return [f.with_values(f.values + 1e-3 * rng.standard_normal(f.grid.shape)) for _ in range(count)]


STACK_SEEDS = {
    "circle-256": lambda k: _circle_seeds(256, k),
    "circle-512": lambda k: _circle_seeds(512, k),
    "interval": _interval_seeds,
    "torus": _noisy_torus_seeds,
}


class TestFlowStacks:
    """gradient_flows runs its fields as one stack; each field's result has
    the bits of its own flow."""

    @pytest.mark.parametrize("k", [1, 2, 12])
    @pytest.mark.parametrize("kind", STACK_SEEDS)
    def test_each_member_is_its_own_flow(self, kind, k):
        fields = STACK_SEEDS[kind](k)
        stop = StopRule(max_steps=40, sample_every=10, track_nodal=True)
        traces = solvers.gradient_flows(fields, P, None, stop)
        assert len(traces) == k
        for f, trace in zip(fields, traces):
            _assert_same_trace(trace, gradient_flow(f, P, None, stop))
            if kind == "torus":  # the division formula, frozen
                v, energies, dt_final, _, _ = _frozen_torus_flow(f.grid, f.epsilon, f.epsilon * f.grid.h, f.values, 40)
            elif kind != "interval":
                # the per-field dpttrs and daxpy loop, frozen: a numpy rank-1
                # update in place of dger's axpy kernel fails it
                v, energies, dt_final = _frozen_circle_flow(f.grid, f.epsilon, f.epsilon * f.grid.h, f.values, 40)
            else:  # its steps are checked against the frozen field-by-field solve in TestIntervalFlowStep
                continue
            assert trace.dt_final == dt_final
            assert np.array_equal(trace.energies.view(np.int64), energies.view(np.int64))
            assert np.array_equal(trace.field.values.view(np.int64), v.view(np.int64))

    def test_a_member_that_halves_its_step_goes_on_alone(self):
        # at dt 0.2 the second and fourth seeds' energies rise and their steps halve; the others' do not
        g = circle_grid(256)
        fields = [multi_interface_seed(g, 0.2, a) for a in ([0.0, 2.0], [0.5, 1.0], [0.0, np.pi], [1.0, 1.6])]
        cfg, stop = SolveConfig(flow_dt=0.2), StopRule(max_steps=60, sample_every=7, track_nodal=True)
        traces = solvers.gradient_flows(fields, P, cfg, stop)
        assert [t.dt_final for t in traces] == [0.2, 0.1, 0.2, 0.1]
        for f, trace in zip(fields, traces):
            _assert_same_trace(trace, gradient_flow(f, P, cfg, stop))

    @pytest.mark.parametrize("row", [0, 2, 4])
    def test_a_member_whose_w_prime_turns_non_finite_fails_alone(self, row):
        fields = _circle_seeds(256, 5)
        stop = StopRule(max_steps=40)
        with np.errstate(invalid="ignore"):
            results = solvers.gradient_flows(fields, _nan_at(17, row), None, stop)
            with pytest.raises(SolverError) as alone:
                gradient_flow(fields[row], _nan_at(17, 0), None, stop)
        assert str(alone.value) == "non-finite energy nan at flow step 17"
        assert type(results[row]) is SolverError and str(results[row]) == str(alone.value)
        for i, (f, trace) in enumerate(zip(fields, results)):
            if i != row:
                _assert_same_trace(trace, gradient_flow(f, P, None, stop))

    def test_members_must_share_a_grid_a_width_and_the_fibered_path(self):
        a, b = _circle_seeds(256, 2)
        with pytest.raises(ValueError, match="one grid and one width"):
            solvers.gradient_flows([a, Field(b.grid, b.values, 0.25)], P)
        with pytest.raises(ValueError, match="one grid and one width"):
            solvers.gradient_flows([a, multi_interface_seed(circle_grid(264), 0.2, [0.0, 2.0])], P)
        g = torus_grid(32, 16)
        fibered = multi_interface_seed(g, 1.6, [0.0, 2.0])
        noisy = fibered.with_values(fibered.values + 1e-3 * np.random.default_rng(0).standard_normal(g.shape))
        with pytest.raises(ValueError, match="all fibered or all not"):
            solvers.gradient_flows([fibered, noisy], P)
        assert solvers.gradient_flows([], P) == []


@pytest.mark.parametrize(
    "g", [interval_grid(263, 1.0), circle_grid(263), torus_grid(33, 17)], ids=lambda g: g.kind
)
def test_flow_solve_writes_into_its_row_and_leaves_v(g):
    """A step solves in place in the row that holds its right-hand side, as
    the flow's block rows do; every row gets the same bits, and the state
    ``v`` it starts from is never written."""
    rng = np.random.default_rng(263)
    eps = 0.2
    step = _make_flow_solver(g, eps, eps * g.h)
    v, rhs = _flow_rhs(rng, g.shape, eps, eps * g.h)
    v_kept = v.copy()
    block = np.empty((2,) + g.shape)
    for row in block:
        row[...] = rhs
        assert step(v, row) is row
    assert not np.array_equal(block[0], rhs)
    assert np.array_equal(block[0].view(np.int64), block[1].view(np.int64))
    assert np.array_equal(v.view(np.int64), v_kept.view(np.int64))


def _interval_wave(n):
    g = interval_grid(n, 1.0)
    v = np.cos(3 * np.pi * g.axis())
    v[0] = v[-1] = 0.0
    return Field(g, v, 0.2)


@pytest.mark.parametrize(
    "f, per_factorization",
    [(multi_interface_seed(circle_grid(263), 0.2, [0.0, 2.0]), 1), (_interval_wave(263), 0)],
    ids=["circle", "interval"],
)
def test_flow_factors_once_per_step_size(monkeypatch, f, per_factorization):
    """A 1-D flow calls dpttrf once per step size and dpttrs once per step
    solved, plus, on the circle, once for B^-1 u per factorization; a second
    flow on the same operator factors again, as nothing is cached between
    flows."""
    calls = []

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(solvers, "dpttrf", counted("dpttrf", solvers.dpttrf))
    monkeypatch.setattr(solvers, "dpttrs", counted("dpttrs", solvers.dpttrs))
    for _ in range(2):
        calls.clear()
        gradient_flow(f, P, stop=StopRule(max_steps=5))
        assert calls == ["dpttrf"] + ["dpttrs"] * (per_factorization + 5)
    calls.clear()
    trace = gradient_flow(f, P, SolveConfig(flow_dt=0.3), StopRule(max_steps=40))
    assert trace.dt_final == 0.15  # one halving: one more factorization
    # all 40 steps fit one block, whose energy rises at step 11: the block's
    # 30 states from step 11 on are dropped and solved again at dt / 2
    assert solvers.BLOCK_POINTS // f.grid.npoints >= 40
    assert calls == (
        ["dpttrf"] + ["dpttrs"] * (per_factorization + 40)
        + ["dpttrf"] + ["dpttrs"] * (per_factorization + 30)
    )


def _per_step_flow(f, p, dt, max_steps, sample_every):
    """gradient_flow as a step-by-step loop, frozen: each step one solve of
    v - (dt/eps) W'(v) into a new array and the energy of the new state,
    checked before the next step is taken.  The field, the energies, the
    final step, the angle samples and the steps whose energy rose."""
    g, eps = f.grid, f.epsilon
    solve = _make_flow_solver(g, eps, dt)
    v = f.values.copy()
    energies, samples, rises = [energy(f, p)], [], []
    for step_i in range(1, max_steps + 1):
        while True:
            v_new = solve(v, v - (dt / eps) * p.dw(v))
            e_new = energy(Field(g, v_new, eps), p)
            if not np.isfinite(e_new):
                raise SolverError(f"non-finite energy {e_new!r} at flow step {step_i}")
            if step_i > 10 and e_new > energies[-1] + solvers.ENERGY_SLACK:
                rises.append(step_i)
                dt *= 0.5
                solve = _make_flow_solver(g, eps, dt)
                continue
            break
        v = v_new
        energies.append(e_new)
        if step_i % sample_every == 0:
            samples.append((step_i, pl.extract_nodal_set(Field(g, v, eps)).angles))
    return v, np.array(energies), dt, samples, rises


def _four_interface_torus():
    # noise, as on a census seed, so that the flow runs on the full grid
    # (a fibered seed flows its profile on the circle)
    angles = np.arange(4) * np.pi / 2 + 0.2
    angles[1] += 0.3
    f = multi_interface_seed(torus_grid(32, 16), 1.6, angles)
    return f.with_values(f.values + 1e-3 * np.random.default_rng(0).standard_normal(f.grid.shape))


# (field, flow_dt, the steps whose energy rises): the circle's first rise at
# step 11 is followed by five more, each on the first step of the block
# that resumes there
FLOW_BLOCK_CASES = {
    "interval": (_interval_wave(263), 0.5, [12, 12]),
    "circle": (multi_interface_seed(circle_grid(263), 0.2, [0.0, 2.0]), 0.5, [11] * 6),
    "torus": (_four_interface_torus(), 2.0, [12]),
}
# a block size K that puts the first rise (step 11 or 12) on each kind of row
ROWS_OF_A_RISE = {11: {"first": 5, "middle": 4, "last": 11}, 12: {"first": 11, "middle": 7, "last": 6}}


class TestFlowBlocks:
    """The flow checks its energies a block of K steps at a time and keeps
    every bit of the step-by-step loop: energies, field, final step and
    angle samples, wherever a rise or a non-finite energy falls."""

    @pytest.mark.parametrize("row", ["first", "middle", "last"])
    @pytest.mark.parametrize("case", FLOW_BLOCK_CASES)
    def test_a_rise_on_any_row_matches_the_step_loop(self, monkeypatch, case, row):
        f, dt, rises = FLOW_BLOCK_CASES[case]
        k = ROWS_OF_A_RISE[rises[0]][row]
        # every block before the first rise is full, so it falls on row (s - 1) % K
        at = (rises[0] - 1) % k
        assert {"first": at == 0, "middle": 0 < at < k - 1, "last": at == k - 1}[row]
        max_steps = 3 * k + 2  # three blocks and two steps
        v, energies, dt_final, samples, seen = _per_step_flow(f, P, dt, max_steps, 3)
        assert seen == rises
        monkeypatch.setattr(solvers, "BLOCK_POINTS", k * f.grid.npoints)
        stop = StopRule(max_steps=max_steps, sample_every=3, track_nodal=True)
        with np.errstate(over="ignore", invalid="ignore"):  # the circle's dropped states overflow
            trace = gradient_flow(f, P, SolveConfig(flow_dt=dt), stop)
        assert trace.dt_final == dt_final
        assert np.array_equal(trace.energies.view(np.int64), energies.view(np.int64))
        assert np.array_equal(trace.field.values.view(np.int64), v.view(np.int64))
        assert [s for s, _ in trace.angle_samples] == [s for s, _ in samples] == list(range(3, max_steps + 1, 3))
        for (_, got), (_, ref) in zip(trace.angle_samples, samples):
            assert np.array_equal(got.view(np.int64), ref.view(np.int64))

    @pytest.mark.parametrize("case", FLOW_BLOCK_CASES)
    def test_the_default_block_matches_the_step_loop(self, case):
        f, dt, rises = FLOW_BLOCK_CASES[case]
        with np.errstate(over="ignore", invalid="ignore"):
            trace = gradient_flow(f, P, SolveConfig(flow_dt=dt), StopRule(max_steps=45))
        v, energies, dt_final, _, seen = _per_step_flow(f, P, dt, 45, 50)
        assert seen == rises and trace.dt_final == dt_final
        assert np.array_equal(trace.energies.view(np.int64), energies.view(np.int64))
        assert np.array_equal(trace.field.values.view(np.int64), v.view(np.int64))

    @pytest.mark.parametrize("case", FLOW_BLOCK_CASES)
    def test_a_nan_mid_block_raises_at_its_step(self, monkeypatch, case):
        f = FLOW_BLOCK_CASES[case][0]

        def nan_at(step):
            calls = []

            def dw(x):  # W' at the flow's step-th call: one NaN, which the solve spreads
                calls.append(None)
                out = P.dw(x)
                if len(calls) == step:
                    out.flat[out.size // 2] = np.nan
                return out

            return from_callables(P.w, dw, P.d2w, "nan")

        k = 4
        monkeypatch.setattr(solvers, "BLOCK_POINTS", k * f.grid.npoints)
        for step in (6, 14):  # row 1 of blocks 2 and 4
            assert 0 < (step - 1) % k < k - 1
            with pytest.raises(SolverError) as ref:
                _per_step_flow(f, nan_at(step), f.epsilon * f.grid.h, 3 * k + 3, 50)
            with pytest.raises(SolverError) as got, np.errstate(invalid="ignore"):
                gradient_flow(f, nan_at(step), stop=StopRule(max_steps=3 * k + 3))
            assert str(got.value) == str(ref.value) == f"non-finite energy nan at flow step {step}"

    def test_a_step_that_keeps_rising_collapses_at_its_step(self, monkeypatch):
        # energies that rise at every call: each retry of step 11 rises
        # again, so the step halves about 40 times from eps * h to 1e-14
        def rising_kernel(grid, eps, p, rows=1):
            count = iter(range(10**6))
            return lambda vs: [float(next(count)) for _ in vs]

        monkeypatch.setattr(solvers, "energy_kernel", rising_kernel)
        f = FLOW_BLOCK_CASES["circle"][0]
        with pytest.raises(solvers.StepCollapseError, match="collapsed below 1e-14 at step 11$"):
            gradient_flow(f, P, stop=StopRule(max_steps=30))

    @pytest.mark.parametrize("case, dt, step", [("interval", 1.0, 9), ("circle", 1.0, 10), ("torus", 5.0, 9)])
    def test_a_blow_up_mid_block_raises_at_its_step(self, monkeypatch, case, dt, step):
        f = FLOW_BLOCK_CASES[case][0]
        k = 6
        assert 0 < (step - 1) % k < k - 1
        monkeypatch.setattr(solvers, "BLOCK_POINTS", k * f.grid.npoints)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SolverError) as ref:
                _per_step_flow(f, P, dt, 3 * k + 1, 50)
            with pytest.raises(SolverError) as got:
                gradient_flow(f, P, SolveConfig(flow_dt=dt), StopRule(max_steps=3 * k + 1))
        assert str(got.value) == str(ref.value) == f"non-finite energy inf at flow step {step}"


def test_no_circle_flow_reaches_splu(monkeypatch):
    def splu(*args, **kwargs):
        raise AssertionError("a circle flow called splu")

    monkeypatch.setattr(spla, "splu", splu)
    g = circle_grid(263)
    f = multi_interface_seed(g, 0.2, [0.0, 2.0])
    gradient_flow(f, P, stop=StopRule(max_steps=5))
    assert gradient_flow(f, P, SolveConfig(flow_dt=0.3), StopRule(max_steps=40)).dt_final == 0.15
    report = pl.experiment_two_interface(eps_list=(0.25,), seeds=range(2), n=256)
    assert len(report.runs) == 2


# the census torus, the 16-point minimum fiber and odd sizes on both axes
TORUS_SHAPES = [(17, 20), (256, 64), (24, 16), (33, 17)]


def _layouts(a):
    """The values of ``a`` as a C-ordered and a Fortran-ordered array, a
    transposed view and a strided view."""
    strided = np.empty((a.shape[0], 2 * a.shape[1]))[:, ::2]
    strided[...] = a
    return [a, np.asfortranarray(a), np.ascontiguousarray(a.T).T, strided]


def _zero_sign_inputs(g):
    """Fields whose spectra hold exact zeros, of either sign: a fibered
    profile, a constant, all zeros and all -0.0."""
    profile = np.tanh(np.sin(g.axis(0)) / 0.2)
    return [g.extrude(profile), np.full(g.shape, 0.7), np.zeros(g.shape), np.full(g.shape, -0.0)]


def _fibered_inputs(rng, g):
    """Fields whose fiber rows are each constant: a random profile, and that
    profile with one row set to inf, to NaN and to a value whose n2
    multiple overflows; and the profile with one entry off its row's value,
    which only the full check tells from a fibered field."""
    n1, n2 = g.shape
    profile = rng.uniform(-1.2, 1.2, n1)
    fields = []
    for row in (None, np.inf, np.nan, 1e308):
        x = g.extrude(profile)
        if row is not None:
            x[n1 // 3] = row
        fields.append(x)
    fields.append(g.extrude(profile))
    fields[-1][n1 // 2, n2 // 2] += 1e-3
    return fields


def _non_finite_input(rng, shape):
    x = rng.uniform(-1.2, 1.2, shape)
    x[1, 2] = np.inf
    x[-1, 0] = np.nan
    return x


def _transform_pair(x, denom):
    """The solve as 1-D transforms of rfft2 and irfft2 with the division as a
    multiply by 1/denom - 0j, the path every input took before fibered ones
    took a column transform."""
    recip = np.empty(denom.shape, dtype=complex)
    recip.real, recip.imag = 1.0 / denom, -0.0
    spec = np.fft.fft(np.fft.rfft(x, axis=1), axis=0) * recip
    return np.fft.irfft(np.fft.ifft(spec, axis=0), n=x.shape[1], axis=1)


def _assert_solves_like_the_formula(solve, x, denom):
    """``solve(x)`` against irfft2(rfft2(x) / denom): bit for bit when the
    formula's result is finite, NaN at the same entries when it is not; and
    against the transform pair bit for bit, NaN payloads included."""
    with np.errstate(invalid="ignore", over="ignore"):
        ref = np.fft.irfft2(np.fft.rfft2(x) / denom, s=x.shape)
        pair = _transform_pair(x, denom)
        out = solve(x)
    assert np.array_equal(out.view(np.int64), pair.view(np.int64))
    if np.all(np.isfinite(ref)):
        assert np.array_equal(out.view(np.int64), ref.view(np.int64))
    else:
        assert np.array_equal(np.isnan(out), np.isnan(ref))


@pytest.mark.parametrize("circumferences", [(2 * np.pi, 2 * np.pi), (2 * np.pi, 3.0)], ids=["square", "unequal"])
@pytest.mark.parametrize("shape", TORUS_SHAPES)
def test_torus_flow_solve_is_bit_identical_to_fft_formula(shape, circumferences):
    """Each field alone, in any layout, gets the bits of irfft2(rfft2(rhs) /
    denom), on square and unequal circumferences; each field of a C-ordered
    stack of 3, for which the solver grows its spectrum buffer, gets the
    bits of its solve alone, and the single fields after it use a part of
    the buffer."""
    rng = np.random.default_rng(shape[0])
    g = torus_grid(*shape, circumferences=circumferences)
    for eps, halvings in ((0.1, 0), (0.5, 2)):
        dt = eps * g.h * 0.5**halvings
        step = _make_flow_solver(g, eps, dt)
        denom = 1.0 + dt * eps * solvers._torus_symbol(g)
        solve = lambda x: step(None, x)  # the torus step does not read v
        for _ in range(3):
            v, rhs = _flow_rhs(rng, shape, eps, dt)
            ref = np.fft.irfft2(np.fft.rfft2(rhs) / denom, s=g.shape)
            for x in _layouts(rhs):
                assert np.array_equal(step(v, x).view(np.int64), ref.view(np.int64))
        stack = np.array([_flow_rhs(rng, shape, eps, dt)[1], _zero_sign_inputs(g)[3], _non_finite_input(rng, shape)])
        with np.errstate(invalid="ignore"):
            alone = [solve(x.copy()) for x in stack]
            assert solve(stack) is stack
        for x, y in zip(stack, alone):
            assert np.array_equal(x.view(np.int64), y.view(np.int64))
        for x in _zero_sign_inputs(g):
            _assert_solves_like_the_formula(solve, x, denom)
        for x in _fibered_inputs(rng, g):
            for y in _layouts(x):
                _assert_solves_like_the_formula(solve, y, denom)
        _assert_solves_like_the_formula(solve, _non_finite_input(rng, shape), denom)


# power-of-two fibers, the census torus among them, with odd and even n1
PROFILE_SHAPES = [(256, 64), (24, 16), (17, 32), (33, 16)]


def _profiles(rng, n1, n2):
    """Axis-0 profiles: random, smooth, zeros of either sign and a constant;
    the random one with a row set to inf, -inf or NaN; and with a row set to
    a value whose n2 multiple overflows only in the rfft's last stage, or
    to 1e308."""
    random = rng.uniform(-1.2, 1.2, n1)
    good = [random, np.tanh(np.sin(np.arange(n1)) / 0.2), np.zeros(n1), np.full(n1, -0.0), np.full(n1, 0.7)]
    limit = np.finfo(float).max / n2
    rows = []
    for value in (np.inf, -np.inf, np.nan, 1.5 * limit, np.nextafter(limit, np.inf), 1e308):
        x = random.copy()
        x[n1 // 3] = value
        rows.append(x)
    return good, rows[:3], rows[3:]


def _counted_transforms(monkeypatch):
    """Count the calls of np.fft.rfft and np.fft.irfft, the 2-D solve's
    first and last transforms."""
    calls = []
    for name in ("rfft", "irfft"):
        original = getattr(np.fft, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


@pytest.mark.parametrize("shape", PROFILE_SHAPES)
def test_a_profile_step_is_the_column_of_the_2d_step(monkeypatch, shape):
    """The step a fibered flow takes, its profile's step on the circle of
    the torus' axis 0, is the column of the 2-D step of the profile's
    extrusion within FIELD_BOUND, with no 2-D transform.  A profile with a
    non-finite row steps to a profile that is not finite anywhere, as the
    2-D step's field is not; a huge finite row, whose fiber sum overflows
    the 2-D step into NaN on the whole grid, steps to a finite profile."""
    rng = np.random.default_rng(shape[0])
    g = torus_grid(*shape)
    circle = circle_grid(shape[0], g.lengths[0])
    calls = _counted_transforms(monkeypatch)
    for eps, halvings in ((0.1, 0), (0.5, 2)):
        dt = eps * g.h * 0.5**halvings
        full, column = _make_flow_solver(g, eps, dt), _make_flow_solver(circle, eps, dt)
        good, non_finite, huge = _profiles(rng, *shape)
        for c in good:
            ref = full(None, g.extrude(c))
            calls.clear()
            out = column(c, c.copy())
            assert not calls
            assert sup_norm(g.extrude(out) - ref) <= FIELD_BOUND
        for finite, rows in ((False, non_finite), (True, huge)):
            for c in rows:
                with np.errstate(invalid="ignore", over="ignore"):
                    ref = full(None, g.extrude(c))
                    calls.clear()
                    out = column(c, c.copy())
                assert not calls
                assert np.isnan(ref).all()
                assert np.isfinite(out).all() if finite else not np.isfinite(out).any()


@pytest.mark.parametrize("shape", [(256, 64), (24, 16), (17, 20), (32, 24)])
def test_a_fibered_flow_makes_no_2d_transform_on_any_fiber(monkeypatch, shape):
    # decided once per flow: a fibered seed flows its profile on the circle,
    # whatever its fiber length; a seed that is not fibered takes one rfft
    # and one irfft at every step
    g = torus_grid(*shape)
    eps, steps = 4.0 * g.h, 30
    seed = g.extrude(np.tanh(np.sin(g.axis(0)) / eps))
    calls = _counted_transforms(monkeypatch)
    gradient_flow(Field(g, seed, eps), P, SolveConfig(min_points_per_eps=4.0), StopRule(max_steps=steps))
    assert not calls
    noisy = seed + np.random.default_rng(0).uniform(0.0, 1e-3, shape)
    gradient_flow(Field(g, noisy, eps), P, SolveConfig(min_points_per_eps=4.0), StopRule(max_steps=steps))
    assert calls.count("rfft") == calls.count("irfft") == steps


def test_a_seed_fibered_only_up_to_zero_signs_flows_on_the_full_grid(monkeypatch):
    # a fiber row of +0.0 and -0.0 compares equal but is not constant bit for bit
    g = torus_grid(24, 16)
    seed = g.extrude(np.tanh(np.sin(g.axis(0)) / 0.3))
    seed[0] = 0.0
    seed[0, 3] = -0.0
    cfg = SolveConfig(min_points_per_eps=1.0)
    trace = gradient_flow(Field(g, seed, 0.3), P, cfg, StopRule(max_steps=0))
    assert np.array_equal(trace.field.values.view(np.int64), seed.view(np.int64))  # the -0.0 kept
    calls = _counted_transforms(monkeypatch)
    gradient_flow(Field(g, seed, 0.3), P, cfg, StopRule(max_steps=3))
    assert len(calls) == 6
    assert solvers._fibered_profile(seed) is None
    assert np.array_equal(solvers._fibered_profile(g.extrude(seed[:, 1])), seed[:, 1])


def test_signed_zero_reciprocal_multiply_is_numpy_complex_division():
    # the premise of the torus flow step: a complex times (1/d - 0j) has the
    # bits of the complex divided by d, zero signs included, for every
    # finite or infinite part that does not underflow (NaN payloads aside)
    parts = [0.0, -0.0, 1.5, -2.5, 1e300, -1e-300, np.inf, -np.inf, np.nan]
    z = np.array([complex(a, b) for a in parts for b in parts])
    for d in (1.0, 3.7, 0.3, 1e5):
        recip = np.full(z.shape, complex(1.0 / d, -0.0))
        with np.errstate(invalid="ignore"):
            ref, out = (z / np.full(z.shape, d)).view(float), (z * recip).view(float)
        same = out.view(np.int64) == ref.view(np.int64)
        assert np.all(same | (np.isnan(out) & np.isnan(ref)))


def _frozen_torus_flow(g, eps, dt, v, steps, p=P, sample_every=0):
    """gradient_flow's loop with the torus step written as the division
    formula it replaced, on the full grid: the field, the energies, the
    final step, the nodal samples taken every ``sample_every`` steps (none
    at 0) and the steps whose energy rose.  A non-finite energy raises
    gradient_flow's SolverError."""
    symbol = solvers._torus_symbol(g)
    energies = [energy(Field(g, v, eps), p)]
    samples, rises = [], []
    for step_i in range(1, steps + 1):
        while True:
            rhs = v - (dt / eps) * p.dw(v)
            v_new = np.fft.irfft2(np.fft.rfft2(rhs) / (1.0 + dt * eps * symbol), s=g.shape)
            e_new = energy(Field(g, v_new, eps), p)
            if not np.isfinite(e_new):
                raise SolverError(f"non-finite energy {e_new!r} at flow step {step_i}")
            if step_i > 10 and e_new > energies[-1] + solvers.ENERGY_SLACK:
                rises.append(step_i)
                dt *= 0.5
                continue
            break
        v = v_new
        energies.append(e_new)
        if sample_every and step_i % sample_every == 0:
            samples.append((step_i, pl.extract_nodal_set(Field(g, v, eps)).angles))
    return v, np.array(energies), dt, samples, rises


@pytest.mark.parametrize("shape", [(24, 16), (33, 17)])
def test_torus_flow_with_a_halving_matches_the_frozen_division_loop(shape):
    g = torus_grid(*shape)
    eps = 10.0 * g.h
    dt = 7.0 * eps * g.h  # the energy rises once after the transient
    f = Field(g, np.random.default_rng(shape[0]).uniform(-1.0, 1.0, shape), eps)
    trace = gradient_flow(f, P, SolveConfig(flow_dt=dt), StopRule(max_steps=40))
    v, energies, dt_final, _, rises = _frozen_torus_flow(g, eps, dt, f.values, 40)
    assert dt_final == trace.dt_final == dt / 2 and len(rises) == 1
    assert np.array_equal(trace.energies.view(np.int64), energies.view(np.int64))
    assert np.array_equal(trace.field.values.view(np.int64), v.view(np.int64))


def _step_dts(monkeypatch):
    """The step size of every flow step solve, in call order.  A flow whose
    steps fit one block solves every step at dt, and then, after a rise at
    step s, steps s to the last at dt / 2."""
    dts = []
    make = solvers._make_flow_solver

    def recording(grid, eps, dt):
        solve = make(grid, eps, dt)

        def step(v, out):
            dts.append(dt)
            return solve(v, out)

        return step

    monkeypatch.setattr(solvers, "_make_flow_solver", recording)
    return dts


FIELD_BOUND = 1e-12  # sup difference of a fibered flow's field from the 2-D flow's
ENERGY_BOUND = 1e-11  # relative difference of its energies from the 2-D flow's


def _halving_flow(shape):
    """A two-interface fibered seed whose flow's energy rises once after the
    transient, and its config.  The fiber's length, 5, is not axis 0's, 2 pi,
    so a circle of the wrong length does not pass for the circle of axis 0."""
    g = torus_grid(*shape, circumferences=(2 * np.pi, 5.0))
    eps = 2.0 * g.h
    dt = 12.0 * eps * g.h
    f = multi_interface_seed(g, eps, [1.0, 1.0 + np.pi])
    return f, SolveConfig(flow_dt=dt, min_points_per_eps=2.0)


def _assert_flows_close(trace, frozen):
    """A fibered flow against the 2-D division loop: the field and the
    energies within FIELD_BOUND and ENERGY_BOUND, the same final step and
    the same sample steps, each with as many angles, within FIELD_BOUND."""
    v, energies, dt_final, samples, _ = frozen
    assert dt_final == trace.dt_final
    assert sup_norm(trace.field.values - v) <= FIELD_BOUND
    assert len(trace.energies) == len(energies)
    assert np.all(np.abs(trace.energies - energies) <= ENERGY_BOUND * np.abs(energies))
    assert trace.field.values.flags.c_contiguous
    assert [s for s, _ in trace.angle_samples] == [s for s, _ in samples]
    for (_, got), (_, ref) in zip(trace.angle_samples, samples):
        assert len(got) == len(ref) and np.allclose(got, ref, rtol=0.0, atol=FIELD_BOUND)


@pytest.mark.parametrize("n2", [16, 24, 17])
def test_a_fibered_flow_is_the_circle_flow_of_its_profile(monkeypatch, n2):
    # bit for bit: the extruded field, the energies times the fiber length,
    # the final step and the step solves, a halving at the same step among
    # them; at the default step eps * h, and at a step that halves once
    f, halving = _halving_flow((32, n2))
    g, circle = f.grid, circle_grid(32, 2 * np.pi)
    dts = _step_dts(monkeypatch)
    for cfg in (SolveConfig(min_points_per_eps=2.0), halving):
        dts.clear()
        trace = gradient_flow(f, P, cfg, StopRule(max_steps=40))
        torus_dts = dts[:]
        dts.clear()
        ref = gradient_flow(Field(circle, f.values[:, 0], f.epsilon), P, cfg, StopRule(max_steps=40))
        assert torus_dts == dts and trace.dt_final == ref.dt_final
        assert np.array_equal(trace.field.values.view(np.int64), g.extrude(ref.field.values).view(np.int64))
        assert np.array_equal(trace.energies.view(np.int64), (g.lengths[1] * ref.energies).view(np.int64))
    assert trace.dt_final == halving.flow_dt / 2


def test_the_construct_torus_flow_matches_the_frozen_division_loop():
    # the benchmark's torus flow: four fibers on 256x64, one displaced by 0.3;
    # the seed is fibered, so the flow is its profile's circle flow
    g = torus_grid(256, 64)
    eps = 0.15
    angles = (1.0 + np.arange(4) * (np.pi / 2)) % (2 * np.pi)
    angles[1] += 0.3
    f = multi_interface_seed(g, eps, angles)
    trace = gradient_flow(f, P, SolveConfig(min_points_per_eps=4.0), StopRule(max_steps=500))
    frozen = _frozen_torus_flow(g, eps, eps * g.h, f.values, 500)
    assert np.all(frozen[0] == frozen[0][:, :1]) and not frozen[4]
    _assert_flows_close(trace, frozen)


@pytest.mark.parametrize("shape", [(32, 16), (64, 32), (32, 24)])
def test_a_fibered_flow_with_a_halving_and_nodal_samples_matches_the_frozen_loop(monkeypatch, shape):
    f, cfg = _halving_flow(shape)
    dts = _step_dts(monkeypatch)
    trace = gradient_flow(f, P, cfg, StopRule(max_steps=40, sample_every=4, track_nodal=True))
    frozen = _frozen_torus_flow(f.grid, f.epsilon, cfg.flow_dt, f.values, 40, sample_every=4)
    assert frozen[2] == cfg.flow_dt / 2 and len(frozen[3]) == 10
    assert all(len(angles) == 2 for _, angles in frozen[3])
    assert solvers.BLOCK_POINTS // shape[0] >= 40  # one block: the halving step from the step solves
    assert frozen[4] == [41 - dts.count(cfg.flow_dt / 2)]
    _assert_flows_close(trace, frozen)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, "overflow", 1e308])
@pytest.mark.parametrize("shape", [(32, 16), (32, 24)])
def test_a_fibered_flow_whose_w_prime_turns_non_finite_stops_as_the_frozen_loop(shape, value):
    # W' sets one fiber row at its 23rd call: to a non-finite value, or to
    # one whose n2 multiple in the right-hand side overflows; the 2-D loop's
    # transforms spread a huge row into NaN, the circle's solve into inf
    g = torus_grid(*shape)
    eps = 4.0 * g.h
    dt = eps * g.h
    huge = value in ("overflow", 1e308)
    if value == "overflow":
        value = 1.5 * (np.finfo(float).max / g.shape[1]) / (dt / eps)

    def potential():
        calls = []

        def dw(x):
            calls.append(None)
            out = P.dw(x)
            if len(calls) == 23:  # the frozen loop's torus field, or the flow's stack of profiles
                row = g.shape[0] // 3
                if out.shape == g.shape:
                    out[row] = value
                else:
                    out[:, row] = value
            return out

        return from_callables(P.w, dw, P.d2w, "injected")

    f = multi_interface_seed(g, eps, [0.4, 2.0, 3.5, 5.1])
    with pytest.raises(SolverError) as ref, np.errstate(invalid="ignore", over="ignore"):
        _frozen_torus_flow(g, eps, dt, f.values, 40, potential())
    with pytest.raises(SolverError) as got, np.errstate(invalid="ignore", over="ignore"):
        gradient_flow(f, potential(), SolveConfig(min_points_per_eps=4.0), StopRule(max_steps=40))
    assert str(ref.value) == "non-finite energy nan at flow step 23"
    assert str(got.value) == f"non-finite energy {'inf' if huge else 'nan'} at flow step 23"


def test_torus_jacobian_matrix_is_the_hessian_action_column_by_column(monkeypatch):
    # the matrix each solve factors, at two iterates: its stencil wraps
    # around both axes, each with its own spacing, and each solve writes
    # the diagonal afresh
    g = torus_grid(17, 20, circumferences=(2 * np.pi, 3.0))
    eps = 0.3
    rng = np.random.default_rng(17)
    factored = []
    splu = spla.splu

    def recording(A, **kwargs):
        factored.append(A.toarray())
        return splu(A, **kwargs)

    monkeypatch.setattr(solvers.spla, "splu", recording)
    solve = _make_jacobian_solver(g, eps, P)
    iterates = [Field(g, rng.uniform(-1.1, 1.1, g.shape), eps) for _ in range(2)]
    for u in iterates:
        solve(u.values, gradient(u, P).values)
    unit = np.eye(g.npoints)
    for u, jac in zip(iterates, factored, strict=True):
        columns = np.column_stack([hessian_apply(u, u.with_values(e.reshape(g.shape)), P).values.ravel() for e in unit])
        assert np.abs(jac - columns).max() <= 1e-14 * np.abs(columns).max()


def test_torus_jacobian_solve_is_exact_on_a_nearly_singular_census_state():
    # ROADMAP F20: c07's eps 0.1 seed 3 torus state after its flow, where J
    # has eigenvalues within 1e-7 of zero; a Krylov solve that reported
    # convergence left a true relative residual of 5.7e-3 there
    g = torus_grid(256, 64)
    eps = 0.1
    _, seed = _rigidity_seed(g, eps, 4, 3, 0.3, True)
    cfg = SolveConfig(tol_grad=1e-12, min_points_per_eps=4.0)
    f = gradient_flow(seed, P, cfg, StopRule(max_steps=M_RIGIDITY_FLOW_STEPS)).field
    res = gradient(f, P).values
    step = _make_jacobian_solver(g, eps, P)(f.values, res)
    miss = hessian_apply(f, f.with_values(step), P).values - res
    assert np.linalg.norm(miss) <= 1e-8 * np.linalg.norm(res)


def test_torus_jacobian_solve_at_a_non_finite_iterate_raises_singular_jacobian():
    g = torus_grid(32, 16)
    v = multi_interface_seed(g, 0.5, [0.0, np.pi]).values
    v[7, 3] = np.nan
    with pytest.raises(SingularJacobianError):
        _make_jacobian_solver(g, 0.5, P)(v, np.ones(g.shape))


def test_torus_jacobian_solve_raises_on_a_blown_up_step():
    # W''(1/sqrt 3) = 0 for the quartic, so J = -eps Lap_h, singular up to
    # rounding: the LU step meets the backward error test at sup norm 1e15
    g = torus_grid(32, 16)
    v = np.full(g.shape, 1.0 / np.sqrt(3.0))
    r = gradient(Field(g, v, 1.0), P).values + 1e-3 * np.random.default_rng(0).standard_normal(g.shape)
    with pytest.raises(SingularJacobianError, match=r"step of sup norm \d\.\d{3}e\+\d+ blew up"):
        _make_jacobian_solver(g, 1.0, P)(v, r)


def test_torus_jacobian_solve_checks_its_backward_error(monkeypatch):
    g = torus_grid(32, 16)
    f = multi_interface_seed(g, 0.5, [0.0, np.pi])
    solve = _make_jacobian_solver(g, 0.5, P)
    rhs = gradient(f, P).values
    assert np.all(np.isfinite(solve(f.values, rhs)))
    splu = spla.splu

    def perturbed(A, **kwargs):  # each entry of the step off by a relative 1e-6
        lu = splu(A, **kwargs)
        signs = (-1.0) ** np.arange(A.shape[0])
        return SimpleNamespace(solve=lambda b: lu.solve(b) * (1.0 + 1e-6 * signs))

    monkeypatch.setattr(solvers.spla, "splu", perturbed)
    with pytest.raises(SingularJacobianError, match=r"backward error \d\.\d{3}e-\d+ > 1e-12"):
        solve(f.values, rhs)


@pytest.mark.parametrize("shape", [(16, 16), (17, 20), (256, 64)])
def test_torus_symbol_matches_per_axis_eigenvalues_exactly(shape):
    g = torus_grid(*shape)
    (n1, n2), (h1, h2) = g.shape, g.spacings

    def chain(n, h):  # eigenvalues of -Lap_h on a periodic chain, FFT order
        return (2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(n) / n)) / h**2

    expected = chain(n1, h1)[:, None] + chain(n2, h2)[: n2 // 2 + 1][None, :]
    symbol = solvers._torus_symbol(g)
    assert symbol.shape == np.fft.rfft2(np.zeros(shape)).shape
    assert np.array_equal(symbol.view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize(
    "shape, lengths", [((48, 16), (2 * np.pi, 1.5)), ((32, 24), (3.0, 2 * np.pi))], ids=["short_fiber", "short_axis"]
)
def test_transverse_gap_is_the_torus_jacobian_minimum_off_the_fibered_fields(shape, lengths):
    """At a fibered state the smallest eigenvalue of the torus Jacobian over
    the fields with zero fiber means is lambda_min(J) + eps mu_1.  The dense
    torus Jacobian here is built column by column from fields.hessian_apply,
    with no fiber symbol; the fiber-mean projector's range is pushed up by a
    shift that no eigenvalue reaches.  A mu_1 of another fiber length or
    point count, or a J without its corners, misses it."""
    g = torus_grid(*shape, lengths)
    eps, (n1, n2) = 0.3, shape
    circle = circle_grid(n1, lengths[0])
    profile = multi_interface_seed(circle, eps, [0.2 * lengths[0], 0.7 * lengths[0]]).values
    u = Field(g, g.extrude(profile), eps)
    unit = np.eye(g.npoints)
    jac = np.column_stack([hessian_apply(u, u.with_values(e.reshape(shape)), P).values.ravel() for e in unit])
    means = np.kron(np.eye(n1), np.full((n2, n2), 1.0 / n2))  # the fiber-mean projector
    off = unit - means
    oracle = scipy.linalg.eigvalsh(off @ jac @ off + 1e4 * means, subset_by_index=[0, 0])[0]
    assert solvers.transverse_gap(g, eps, P, profile) == pytest.approx(oracle, rel=1e-10, abs=1e-10)
