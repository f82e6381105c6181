import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

import phaselab as pl
from phaselab import oracle
from phaselab.grids import circle_grid, torus_grid
from phaselab.nodal import extract_nodal_set
from phaselab.solvers import SolveConfig, multi_interface_seed, newton_refine, reflect_extend

P = pl.quartic()


def _first_integral_arc(a, eps):
    """2 * integral_0^a eps du / sqrt(2 (W(u) - W(a))) by quadrature, with
    u = a sin(t): 2 (W(u) - W(a)) = a^2 cos(t)^2 (2q + a^2 cos(t)^2) / 2,
    q = 1 - a^2, so the integrand is smooth and nothing cancels."""
    q = (1.0 - a) * (1.0 + a)

    def integrand(t):
        c = a * math.cos(t)
        return eps * math.sqrt(2.0) / math.sqrt(2.0 * q + c * c)

    return 2.0 * quad(integrand, 0.0, math.pi / 2.0, epsabs=0.0, epsrel=1e-13, limit=200)[0]


@pytest.mark.parametrize("eps", [0.1, 0.15])
@pytest.mark.parametrize("a", [0.5, 0.9, 0.999, 1.0 - 1e-8])
def test_arc_length_is_the_first_integral_quadrature(a, eps):
    assert oracle.arc_length(a, eps) == pytest.approx(_first_integral_arc(a, eps), rel=1e-12)


@pytest.mark.parametrize("eps", [0.1, 0.15])
@pytest.mark.parametrize("a", [0.0, 0.5, 0.9, 0.999, 1.0 - 1e-8])
def test_peak_inverts_arc_length(a, eps):
    assert oracle.peak(oracle.arc_length(a, eps), eps) == pytest.approx(a, abs=1e-15)


def test_an_arc_at_most_pi_eps_carries_no_orbit():
    eps = 0.1
    assert oracle.arc_length(0.0, eps) == pytest.approx(math.pi * eps, rel=1e-15)
    for d in (0.5 * math.pi * eps, 0.9 * math.pi * eps):
        assert oracle.peak(d, eps) == 0.0
        assert oracle.pressure(d, eps) == 0.25 / eps  # W(0) / eps


@pytest.mark.parametrize("a", [-0.1, 1.0, 1.5, float("nan")])
def test_arc_length_rejects_a_peak_outside_the_wells(a):
    with pytest.raises(ValueError, match=r"peak must lie in \[0, 1\)"):
        oracle.arc_length(a, 0.1)


@pytest.mark.parametrize("eps", [0.1, 0.15])
def test_pressure_falls_strictly_over_the_census_arc_range(eps):
    # from the certificate's arc floor to the whole circle
    ds = np.linspace(pl.experiments.ARC_FLOOR * eps, 2.0 * math.pi, 400)
    pressures = np.array([oracle.pressure(d, eps) for d in ds])
    assert np.all(pressures > 0.0)
    assert np.all(np.diff(pressures) < 0.0)
    # the large-arc law P(d) ~ 16 exp(-sqrt(2) d / eps) / eps
    law = 16.0 * np.exp(-math.sqrt(2.0) * ds / eps) / eps
    assert pressures[-1] / law[-1] == pytest.approx(1.0, rel=1e-6)


def _glued(eps, n, m=4):
    sol = pl.solve_dirichlet_model(math.pi / m, eps, P, SolveConfig(tol_grad=1e-11), n=n // m + 1)
    return newton_refine(reflect_extend(sol, m), P).field


@pytest.mark.parametrize("eps", [0.1, 0.15])
def test_a_glued_solution_sits_on_the_orbit_of_its_arcs_at_second_order(eps):
    misses = []
    for n in (512, 1024, 2048):
        field = _glued(eps, n)
        ap = oracle.arc_pressures(field, extract_nodal_set(field))
        assert ap.lengths == pytest.approx(np.full(4, math.pi / 2.0), abs=1e-12)
        assert ap.pressure_spread <= 1e-12 * ap.pressures.max()
        misses.append(float(np.max(np.abs(ap.pressures / ap.oracle - 1.0))))
    assert misses[0] < 0.02
    # observed order 2 between the three grids
    for coarse, fine in zip(misses, misses[1:]):
        assert math.log2(coarse / fine) == pytest.approx(2.0, abs=0.05)


def test_arc_pressures_run_from_each_nodal_point_to_the_next():
    # arcs 2.0, 1.5, 1.5 and, around the circle, 2 pi - 5
    field = multi_interface_seed(circle_grid(512), 0.15, [1.0, 3.0, 4.5, 6.0])
    ns = extract_nodal_set(field)
    ap = oracle.arc_pressures(field, ns)
    assert np.array_equal(ap.lengths, oracle.arc_lengths(ns))
    assert ap.lengths == pytest.approx([2.0, 1.5, 1.5, 2.0 * math.pi - 5.0], abs=1e-3)
    assert np.all((ap.peaks > 0.98) & (ap.peaks < 1.0))
    assert ap.oracle == pytest.approx([oracle.pressure(d, 0.15) for d in ap.lengths], rel=1e-15)
    assert ap.oracle_gap == float(np.max(np.abs(ap.pressures - ap.oracle)))
    assert ap.pressure_spread == float(ap.pressures.max() - ap.pressures.min())


def test_arc_pressures_read_only_a_circle_field_with_nodal_points():
    torus = multi_interface_seed(torus_grid(32, 16), 1.0, [0.0, math.pi])
    with pytest.raises(ValueError, match="read on a circle field"):
        oracle.arc_pressures(torus, extract_nodal_set(torus))
    interval = pl.solve_dirichlet_model(math.pi / 2, 0.2, P, n=129).field
    with pytest.raises(ValueError, match="read on a circle field"):
        oracle.arc_pressures(interval, extract_nodal_set(interval))
    flat = pl.Field(circle_grid(64), np.ones(64), 0.5)
    with pytest.raises(ValueError, match="read on a circle field with a nodal point"):
        oracle.arc_pressures(flat, extract_nodal_set(flat))


def test_an_arc_without_a_grid_point_is_rejected():
    field = multi_interface_seed(circle_grid(64), 0.5, [1.0, 4.0])
    ns = extract_nodal_set(field)
    # a third point in the grid cell of the first leaves an arc with no sample
    crowded = replace(ns, angles=np.sort(np.append(ns.angles, ns.angles[0] + 1e-3)))
    with pytest.raises(ValueError, match="holds no grid point"):
        oracle.arc_pressures(field, crowded)
