import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

import phaselab as pl
from phaselab.fields import Field, energy, gradient, hessian_apply, sup_norm
from phaselab.grids import circle_grid
from phaselab.potentials import quartic
from phaselab.solvers import (
    NewtonDivergenceError,
    SingularJacobianError,
    SolveConfig,
    StopRule,
    existence_threshold,
    gradient_flow,
    multi_interface_seed,
    newton_refine,
    reflect_extend,
    solve_dirichlet_model,
    _make_jacobian_solver,
    _solve_cyclic_tridiagonal,
)

P = quartic()


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

    def test_beats_zero_state_energy(self):
        sol = solve_dirichlet_model(np.pi / 2, 0.2, P)
        e0 = energy(Field(sol.field.grid, np.zeros(sol.field.grid.shape), 0.2), P)
        assert energy(sol.field, P) < e0 - 1e-8

    def test_input_validation(self):
        with pytest.raises(ValueError):
            solve_dirichlet_model(-1.0, 0.2, P)


class TestExistenceThreshold:
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


class TestNewtonRefine:
    def test_fixed_point_needs_no_iterations(self):
        sol = solve_dirichlet_model(np.pi / 4, 0.1, P, SolveConfig(tol_grad=1e-12), n=129)
        f = reflect_extend(sol, 4)
        nr = newton_refine(f, P)
        assert nr.iterations <= 1
        assert nr.residuals[-1] <= 1e-10

    def test_zero_state_is_sign_free_fixed_point(self):
        g = circle_grid(256)
        nr = newton_refine(Field(g, np.zeros(256), 0.3), P)
        assert nr.iterations == 0
        assert nr.sign_free

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

    def test_divergence_reports_trace(self):
        sol = solve_dirichlet_model(np.pi / 4, 0.1, P, SolveConfig(tol_grad=1e-12), n=129)
        f = reflect_extend(sol, 4)
        f = f.with_values(f.values + 0.01 * np.sin(3 * f.grid.axis(0)))
        with pytest.raises(NewtonDivergenceError) as err:
            newton_refine(f, P, SolveConfig(tol_grad=1e-13, max_newton=1))
        assert len(err.value.residuals) >= 1

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

    def test_grad_tol_stopping(self):
        g = circle_grid(256)
        f = Field(g, np.full(256, 0.3), 0.3)
        trace = gradient_flow(f, P, None, StopRule(max_steps=50_000, grad_tol=1e-8))
        assert trace.reason == "grad_tol"
        assert sup_norm(gradient(trace.field, P).values) <= 1e-8


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


def test_solve_config_validation():
    with pytest.raises(ValueError):
        SolveConfig(tol_grad=1e-14).validate()
    SolveConfig().validate()


def _dense_cyclic(diag, off):
    n = diag.size
    A = np.diag(diag) + off * (np.eye(n, k=1) + np.eye(n, k=-1))
    A[0, -1] = A[-1, 0] = off
    return A


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
        x = _solve_cyclic_tridiagonal(diag, -cc, rhs)
        ref = np.linalg.solve(_dense_cyclic(diag, -cc), rhs)
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)

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
            _solve_cyclic_tridiagonal(diag, -1.0, np.ones(16))

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
