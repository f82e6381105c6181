"""Acceptance suite: one test per criterion, each printing a verdict line.

Expected values marked as derived come from independent oracles computed
inline: dense-sample axiom checks, quadrature of the transition cost,
the linearized instability threshold 2*l*sqrt(-W''(0))/pi, the shooting /
half-period integral for profile peaks, and the linearization decay rate
sqrt(W''(1))/eps.
"""

import time

import numpy as np
import pytest
from scipy.integrate import quad

import phaselab as pl
from phaselab.fields import Field, energy, gradient, hessian_apply, inner
from phaselab.grids import circle_grid
from phaselab.potentials import from_callables, quartic
from phaselab.solvers import SolveConfig, newton_refine, reflect_extend, solve_dirichlet_model

P = quartic()


def _verdict(number: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:02d}: {'PASS' if passed else 'FAIL'} - {detail}")


def _smooth_field(grid, eps, seed, amplitude=0.9):
    rng = np.random.default_rng(seed)
    theta = grid.axis(0)
    u = np.zeros(grid.shape[0])
    for k in range(1, 7):
        u += rng.normal() * np.cos(k * theta) + rng.normal() * np.sin(k * theta)
    return Field(grid, amplitude * u / np.max(np.abs(u)), eps)


def test_c01_potential_axioms():
    t0 = time.perf_counter()
    ok_quartic = pl.check_double_well(P, 10_000).passed

    single = from_callables(lambda x: x * x, lambda x: 2 * x, lambda x: 2 + 0 * x, "single_well")
    fail1 = pl.check_double_well(single).failed_axioms()

    def w(x):
        q = 1 - x * x
        return 0.25 * q**4

    flat = from_callables(
        w,
        lambda x: -2 * x * (1 - x * x) ** 3,
        lambda x: -2 * (1 - x * x) ** 3 + 12 * x * x * (1 - x * x) ** 2,
        "flat_wells",
    )
    fail3 = pl.check_double_well(flat).failed_axioms()
    elapsed = time.perf_counter() - t0

    passed = ok_quartic and (1 in fail1) and fail3 == [3] and elapsed < 1.0
    _verdict(1, passed, f"quartic passes, counter-potentials fail axioms {fail1}/{fail3}, {elapsed:.2f}s")
    assert ok_quartic
    assert 1 in fail1
    assert fail3 == [3]
    assert elapsed < 1.0


def test_c02_variational_consistency():
    t0 = time.perf_counter()
    g = circle_grid(256)
    worst_fd = 0.0
    worst_sym = 0.0
    t = 1e-5
    for eps in (0.1, 0.3):
        for seed in range(10):
            u = _smooth_field(g, eps, 100 + seed)
            phi = _smooth_field(g, eps, 200 + seed, amplitude=1.0)
            psi = _smooth_field(g, eps, 300 + seed, amplitude=1.0)
            ep = energy(Field(g, u.values + t * phi.values, eps), P)
            em = energy(Field(g, u.values - t * phi.values, eps), P)
            fd = (ep - em) / (2 * t)
            ip = inner(g, gradient(u, P).values, phi.values)
            worst_fd = max(worst_fd, abs(fd - ip) / abs(ip))
            a = inner(g, hessian_apply(u, phi, P).values, psi.values)
            b = inner(g, hessian_apply(u, psi, P).values, phi.values)
            worst_sym = max(worst_sym, abs(a - b) / (1 + abs(a)))
    elapsed = time.perf_counter() - t0
    passed = worst_fd <= 1e-6 and worst_sym <= 1e-10 and elapsed < 10.0
    _verdict(2, passed, f"gradient FD mismatch {worst_fd:.2e}, symmetry defect {worst_sym:.2e}, {elapsed:.1f}s")
    assert worst_fd <= 1e-6
    assert worst_sym <= 1e-10
    assert elapsed < 10.0


def test_c03_model_solutions():
    t0 = time.perf_counter()
    est = pl.existence_threshold(np.pi / 2, P)
    sol = solve_dirichlet_model(np.pi / 2, 0.2, P)
    v = sol.field.values
    even = float(np.max(np.abs(v - v[::-1])))
    e0 = energy(Field(sol.field.grid, np.zeros(v.shape), 0.2), P)
    gap = e0 - energy(sol.field, P)
    elapsed = time.perf_counter() - t0

    passed = (
        0.99 <= est <= 1.01
        and sol.status == "positive"
        and even <= 1e-8
        and v[0] == 0.0
        and v[-1] == 0.0
        and gap > 0
        and elapsed < 30.0
    )
    _verdict(3, passed, f"threshold {est:.4f} (oracle 1.0), even {even:.1e}, gap {gap:.3f}, {elapsed:.1f}s")
    assert 0.99 <= est <= 1.01
    assert sol.status == "positive"
    assert even <= 1e-8
    assert v[0] == 0.0 and v[-1] == 0.0
    assert gap > 0
    assert elapsed < 30.0


@pytest.fixture(scope="module")
def two_interface_005():
    sol = solve_dirichlet_model(np.pi / 2, 0.05, P, SolveConfig(tol_grad=1e-11), n=1025)
    return newton_refine(reflect_extend(sol, 2), P).field


def test_c04_interface_energy(two_interface_005):
    t0 = time.perf_counter()
    sigma, _ = quad(lambda u: np.sqrt(2.0 * P.w(u)), -1.0, 1.0, limit=200)
    e = energy(two_interface_005, P)
    rel = abs(e - 2 * sigma) / (2 * sigma)
    elapsed = time.perf_counter() - t0
    passed = rel <= 0.01 and elapsed < 60.0
    _verdict(4, passed, f"energy {e:.5f} vs 2*sigma {2 * sigma:.5f} (rel {rel:.2e}), {elapsed:.1f}s")
    assert rel <= 0.01
    assert elapsed < 60.0


def test_c05_interface_structure():
    t0 = time.perf_counter()
    n = 1536
    worst = {"cong": 0.0, "odd": 0.0, "even": 0.0}
    all_alternate = True
    for m in (2, 4, 6):
        for eps in (0.05, 0.1, 0.15):
            sol = solve_dirichlet_model(np.pi / m, eps, P, SolveConfig(tol_grad=1e-11), n=n // m + 1)
            nr = newton_refine(reflect_extend(sol, m), P)
            f = nr.field
            ns = pl.extract_nodal_set(f)
            assert ns.count == m
            worst["cong"] = max(
                worst["cong"], pl.check_congruent_intervals(ns).max_rel_deviation
            )
            all_alternate &= pl.check_alternation(f, ns)
            v = f.values
            q = n // m
            for j0 in range(0, n, q):
                idx = np.arange(1, q)
                worst["odd"] = max(worst["odd"], float(np.max(np.abs(v[(j0 + idx) % n] + v[(j0 - idx) % n]))))
            for j0 in range(q // 2, n, q):
                idx = np.arange(1, q // 2)
                worst["even"] = max(worst["even"], float(np.max(np.abs(v[(j0 + idx) % n] - v[(j0 - idx) % n]))))
    elapsed = time.perf_counter() - t0
    passed = (
        worst["cong"] <= 1e-5
        and all_alternate
        and worst["odd"] <= 1e-7
        and worst["even"] <= 1e-7
        and elapsed < 120.0
    )
    _verdict(
        5,
        passed,
        f"congruence {worst['cong']:.1e}, odd {worst['odd']:.1e}, even {worst['even']:.1e}, {elapsed:.1f}s",
    )
    assert worst["cong"] <= 1e-5
    assert all_alternate
    assert worst["odd"] <= 1e-7
    assert worst["even"] <= 1e-7
    assert elapsed < 120.0


def test_c06_antipodality_census():
    t0 = time.perf_counter()
    report = pl.experiment_two_interface(eps_list=(0.2, 0.25), seeds=range(12), n=256)
    elapsed = time.perf_counter() - t0
    pairs = [r for r in report.runs if r["outcome"] == "converged_pair"]
    bad = [r for r in pairs if r["antipodal_deviation"] > 1e-4]
    passed = report.passed and len(report.runs) >= 20 and not bad and pairs and elapsed < 300.0
    _verdict(
        6,
        passed,
        f"{len(report.runs)} runs, {len(pairs)} converged pairs, 0 counterexamples "
        f"(worst dev {max((r['antipodal_deviation'] for r in pairs), default=0):.1e}), {elapsed:.1f}s",
    )
    assert len(report.runs) >= 20
    assert report.passed
    assert not bad and pairs
    assert elapsed < 300.0


@pytest.mark.slow
def test_c07_rigidity_census():
    t0 = time.perf_counter()
    report = pl.experiment_m_rigidity(
        4,
        eps_list=(0.1, 0.15),
        seeds=range(10),
        perturbation=0.3,
        surfaces=("circle", "torus"),
        circle_n=512,
        torus_n=(256, 64),
    )
    elapsed = time.perf_counter() - t0
    census = report.census()
    perturbed = [r for r in report.runs if r["kind"] == "perturbed"]
    violations = census.get("rigidity_violation", 0)
    passed = report.passed and violations == 0 and len(perturbed) >= 40 and elapsed < 1200.0
    _verdict(
        7,
        passed,
        f"census {census}, perturbed runs {len(perturbed)} (>= 20 per surface), {elapsed:.0f}s",
    )
    assert len(perturbed) >= 40  # 20 perturbed seeds per surface
    assert violations == 0
    assert report.passed
    assert elapsed < 1200.0


def test_c08_decay_rates():
    t0 = time.perf_counter()
    report = pl.experiment_decay(eps_list=(0.05, 0.025), n=2048)
    elapsed = time.perf_counter() - t0
    rate = float(np.sqrt(P.d2w(1.0)))
    ratios = {r["eps"]: float(r["kappa_times_eps"]) / rate for r in report.runs}
    in_window = all(0.75 <= v <= 1.25 for v in ratios.values())
    envelopes = all(r["pointwise_factor"] <= 1.02 for r in report.runs)
    passed = report.passed and in_window and envelopes and elapsed < 120.0
    _verdict(
        8,
        passed,
        f"kappa*eps/sqrt(W''(1)) = {sorted(round(v, 4) for v in ratios.values())}, "
        f"envelope factors <= 1.02, {elapsed:.1f}s",
    )
    assert in_window
    assert envelopes
    assert report.passed
    assert elapsed < 120.0


def test_c09_comparison_scenario():
    t0 = time.perf_counter()
    report = pl.experiment_comparison()
    elapsed = time.perf_counter() - t0
    byname = {r["case"]: r for r in report.runs}
    holds = byname["nested_profiles"]["outcome"] == "holds"
    gap = byname["nested_profiles"]["min_gap"]
    inapplicable = byname["nonzero_boundary_sub_field"]["outcome"] == "inapplicable"
    passed = report.passed and holds and gap > 0 and inapplicable and elapsed < 30.0
    _verdict(9, passed, f"strict ordering with min gap {gap:.2e}, violations inapplicable, {elapsed:.1f}s")
    assert holds and gap > 0
    assert inapplicable
    assert report.passed
    assert elapsed < 30.0


def test_c10_sliding_barrier():
    t0 = time.perf_counter()
    report = pl.experiment_slide(eps=0.1, m=4, delta_fractions=(0.5, 0.25))
    elapsed = time.perf_counter() - t0
    ok = all(
        r["outcome"] == "touched" and r["offset"] < 2 * r["delta"] and r["interior"]
        for r in report.runs
    )
    passed = report.passed and ok and elapsed < 120.0
    offsets = [f"{r['offset']:.3f}<{2 * r['delta']:.3f}" for r in report.runs]
    _verdict(10, passed, f"interior touches at offsets {offsets}, {elapsed:.1f}s")
    assert ok
    assert report.passed
    assert elapsed < 120.0


def test_c11_reproducibility():
    t0 = time.perf_counter()
    a = pl.experiment_two_interface(eps_list=(0.25,), seeds=range(3), n=256)
    b = pl.experiment_two_interface(eps_list=(0.25,), seeds=range(3), n=256)
    sa = pl.experiment_slide(delta_fractions=(0.25,))
    sb = pl.experiment_slide(delta_fractions=(0.25,))
    same = a.to_json_bytes() == b.to_json_bytes() and sa.to_json_bytes() == sb.to_json_bytes()
    elapsed = time.perf_counter() - t0
    _verdict(11, same, f"two independent replays byte-identical, {elapsed:.1f}s")
    assert same
