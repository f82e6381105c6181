import dataclasses

import numpy as np
import pytest

from phaselab.experiments import CONGRUENCE_TOL
from phaselab.fields import Field
from phaselab.grids import circle_distance, circle_grid, interval_grid, torus_grid
from phaselab.nodal import (
    SYMMETRY_TOL,
    IndeterminateSignError,
    NodalSet,
    check_alternation,
    check_congruent_intervals,
    check_rotation_symmetry,
    cluster_fiber_angles,
    extract_nodal_set,
    fit_decay,
    hausdorff_distance,
    nodal_distance,
)
from phaselab.potentials import quartic
from phaselab.solvers import SolveConfig, newton_refine, reflect_extend, solve_dirichlet_model

P = quartic()


def circle_field(values, eps=0.1):
    return Field(circle_grid(values.size), values, eps)


def angles_set(angles, L=2 * np.pi):
    a = np.asarray(angles, dtype=float)
    return NodalSet("circle", a, np.zeros(a.size, dtype=int), (L,))


class TestExtraction:
    def test_sine_zeros_on_grid(self):
        g = circle_grid(256)
        f = Field(g, np.sin(g.axis(0)), 0.2)
        ns = extract_nodal_set(f)
        assert ns.count == 2
        assert np.allclose(np.sort(ns.angles), [0.0, np.pi], atol=1e-13)
        assert list(ns.directions) in ([1, -1], [-1, 1])

    def test_constant_sign_gives_empty_set(self):
        ns = extract_nodal_set(circle_field(np.ones(64)))
        assert ns.is_empty
        torus = extract_nodal_set(Field(torus_grid(32, 16), np.ones((32, 16)), 0.5))
        assert torus.is_empty and torus.points.shape == (0, 2)

    def test_negation_preserves_set_and_flips_directions(self):
        g = circle_grid(256)
        rng = np.random.default_rng(8)
        u = np.sin(g.axis(0) + 0.3) + 0.2 * np.sin(3 * g.axis(0))
        f = Field(g, u, 0.2)
        a = extract_nodal_set(f)
        b = extract_nodal_set(f.with_values(-u))
        assert hausdorff_distance(a, b) <= 1e-13
        assert np.array_equal(a.directions, -b.directions)

    def test_rolling_translates_angles(self):
        g = circle_grid(256)
        u = np.sin(g.axis(0) + 0.37) + 0.1 * np.cos(2 * g.axis(0))
        f = Field(g, u, 0.2)
        a = np.sort(extract_nodal_set(f).angles)
        k = 19
        b = np.sort(extract_nodal_set(f.with_values(np.roll(u, k))).angles)
        shifted = np.sort((a + k * g.h) % (2 * np.pi))
        assert np.max(np.abs(b - shifted)) <= g.h**2

    def test_torus_cloud_fiber_positions(self):
        g = torus_grid(128, 32)
        prof = np.sin(g.axis(0))
        f = Field(g, np.repeat(prof[:, None], 32, axis=1), 0.2)
        ns = extract_nodal_set(f)
        assert ns.kind == "torus"
        assert ns.points.shape[0] == 2 * 32  # two fiber circles, one point per row
        centers = cluster_fiber_angles(ns, gap_threshold=4 * g.h)
        assert np.allclose(np.sort(centers), [0.0, np.pi], atol=1e-12)


def _scan_line_reference(values, coords, spacing, wrap):
    """Per-edge loop: exact grid zeros, then sign-change crossings along one line."""
    v = values
    n = v.size
    pos, direction = [], []
    for i in np.flatnonzero(v == 0.0):
        left = v[(i - 1) % n] if (wrap or i > 0) else 0.0
        right = v[(i + 1) % n] if (wrap or i < n - 1) else 0.0
        pos.append(coords[i])
        direction.append(int(np.sign(right - left)))
    for i in range(n if wrap else n - 1):
        a, b = v[i], v[(i + 1) % n]
        if a * b < 0.0:
            pos.append(coords[i] + (a / (a - b)) * spacing)
            direction.append(1 if b > 0 else -1)
    return np.asarray(pos, dtype=float), np.asarray(direction, dtype=int)


def _torus_reference(g, v):
    """Per-point loops: exact zeros, then crossings along axis 0, then axis 1."""
    th, yy = g.axis(0), g.axis(1)
    h1, h2 = g.spacings
    pts, signs, axes = [], [], []
    for i, j in zip(*np.nonzero(v == 0.0)):
        pts.append((th[i], yy[j]))
        signs.append(0)
        axes.append(-1)
    for axis in (0, 1):
        b_all = np.roll(v, -1, axis=axis)
        for i, j in zip(*np.nonzero(v * b_all < 0.0)):
            a, b = v[i, j], b_all[i, j]
            t = a / (a - b)
            if axis == 0:
                pts.append(((th[i] + t * h1) % g.lengths[0], yy[j]))
            else:
                pts.append((th[i], (yy[j] + t * h2) % g.lengths[1]))
            signs.append(1 if b > 0 else -1)
            axes.append(axis)
    return np.asarray(pts, dtype=float).reshape(-1, 2), np.asarray(signs), np.asarray(axes)


def _field_with_zeros(grid, rng, trial):
    v = rng.standard_normal(grid.shape)
    if trial % 2 == 0:
        v = np.round(v)  # many exact zeros, some next to each other
    v[rng.random(grid.shape) < 0.1] = 0.0
    v.flat[0] = v.flat[-1] = 0.0  # interval ends; the wrap edge on periodic grids
    return Field(grid, v, 0.3)


@pytest.mark.parametrize(
    "grid",
    [interval_grid(33, 2.0), circle_grid(64, 3.0), circle_grid(17)],
    ids=["interval", "circle64", "circle17"],
)
def test_line_extraction_matches_loop_reference(grid):
    rng = np.random.default_rng(11)
    wrap = grid.kind == "circle"
    for trial in range(20):
        f = _field_with_zeros(grid, rng, trial)
        pos, direction = _scan_line_reference(f.values, grid.axis(0), grid.h, wrap)
        if wrap:
            pos = pos % grid.lengths[0]
        order = np.argsort(pos)
        ns = extract_nodal_set(f)
        assert ns.kind == grid.kind and ns.points is None
        assert np.array_equal(ns.angles, pos[order])
        assert np.array_equal(ns.directions, direction[order])
        assert ns.directions.dtype == direction.dtype


@pytest.mark.parametrize(
    "grid", [torus_grid(32, 16, (5.0, 2.5)), torus_grid(17, 20)], ids=["32x16", "17x20"]
)
def test_torus_extraction_matches_loop_reference(grid):
    rng = np.random.default_rng(12)
    for trial in range(10):
        f = _field_with_zeros(grid, rng, trial)
        pts, signs, axes = _torus_reference(grid, f.values)
        ns = extract_nodal_set(f)
        assert np.array_equal(ns.points, pts)
        assert np.array_equal(ns.point_signs, signs)
        assert np.array_equal(ns.point_axes, axes)
        # the interfaces: the reference cloud's fiber angles at a gap of 4h
        zeros = np.zeros(pts.shape[0], dtype=int)
        cloud = NodalSet("torus", np.empty(0), zeros, grid.lengths, pts, zeros, zeros)
        assert np.array_equal(ns.angles, cluster_fiber_angles(cloud, gap_threshold=4.0 * grid.h))
        assert np.array_equal(ns.directions, np.zeros(ns.count, dtype=int))


class TestHausdorff:
    def test_identical_sets(self):
        a = angles_set([0.3, 2.0])
        assert hausdorff_distance(a, a) == 0.0

    def test_antipodal_pair(self):
        assert hausdorff_distance(angles_set([0.0]), angles_set([np.pi])) == pytest.approx(np.pi)

    def test_two_point_example(self):
        d = hausdorff_distance(angles_set([0.0, np.pi]), angles_set([0.1, np.pi + 0.05]))
        assert d == pytest.approx(0.1, abs=1e-12)

    def test_empty_versus_nonempty_is_infinite(self):
        assert hausdorff_distance(angles_set([]), angles_set([1.0])) == np.inf
        assert hausdorff_distance(angles_set([]), angles_set([])) == 0.0

    def test_kind_mismatch(self):
        t = NodalSet("torus", np.array([0.0]), np.array([0]), (2 * np.pi, 2 * np.pi),
                     points=np.array([[0.0, 0.0]]), point_signs=np.array([1]),
                     point_axes=np.array([0]))
        with pytest.raises(ValueError):
            hausdorff_distance(angles_set([0.0]), t)

    def test_length_mismatch(self):
        # wrapped with either circumference, the two orders would disagree
        # (0.183 against 6.1)
        a, b = angles_set([0.1]), angles_set([6.2], L=8 * np.pi)
        for x, y in ((a, b), (b, a)):
            with pytest.raises(ValueError, match="different lengths"):
                hausdorff_distance(x, y)

    @pytest.mark.parametrize("seed", range(4))
    def test_metric_properties_on_random_triples(self, seed):
        rng = np.random.default_rng(seed)
        sets = [angles_set(rng.uniform(0, 2 * np.pi, rng.integers(1, 6))) for _ in range(3)]
        a, b, c = sets
        assert hausdorff_distance(a, b) == hausdorff_distance(b, a)
        assert hausdorff_distance(a, c) <= hausdorff_distance(a, b) + hausdorff_distance(b, c) + 1e-12


class TestCongruence:
    def test_equal_spacing_passes(self):
        rep = check_congruent_intervals(angles_set([0, np.pi / 2, np.pi, 3 * np.pi / 2]))
        assert rep.passed and rep.max_rel_deviation == 0.0

    def test_unequal_spacing_fails_with_spacings(self):
        rep = check_congruent_intervals(angles_set([0.0, 1.0, np.pi, np.pi + 1.0]))
        assert not rep.passed
        expect = np.array([1.0, np.pi - 1.0, 1.0, np.pi - 1.0])
        assert np.allclose(np.sort(rep.spacings), np.sort(expect))

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            check_congruent_intervals(angles_set([1.0]))

    def test_refined_six_interface_solution(self):
        sol = solve_dirichlet_model(np.pi / 6, 0.1, P, SolveConfig(tol_grad=1e-12), n=129)
        f = reflect_extend(sol, 6)
        nr = newton_refine(f, P)
        rep = check_congruent_intervals(extract_nodal_set(nr.field), rel_tol=1e-5)
        assert rep.passed


class TestAlternation:
    def test_sine_alternates(self):
        g = circle_grid(256)
        f = Field(g, np.sin(g.axis(0)), 0.2)
        assert check_alternation(f, extract_nodal_set(f))

    def test_transversal_zeros_always_alternate(self):
        # any circle field with only sign-change zeros alternates by parity;
        # this named combination has four transversal zeros
        g = circle_grid(512)
        th = g.axis(0)
        f = Field(g, np.sin(2 * th) + 0.8 * np.sin(th), 0.2)
        ns = extract_nodal_set(f)
        assert ns.count == 4
        assert check_alternation(f, ns)

    def test_touching_zero_breaks_alternation(self):
        # 1 - cos(2 theta) vanishes at exactly two grid points without a sign
        # change: both arcs carry the same sign
        g = circle_grid(256)
        f = Field(g, 1.0 - np.cos(2 * g.axis(0)), 0.2)
        ns = extract_nodal_set(f)
        assert ns.count == 2
        assert not check_alternation(f, ns)

    def test_single_touching_zero(self):
        # 1 - cos(theta) has a single touching zero at the grid point 0
        g = circle_grid(256)
        f = Field(g, 1.0 - np.cos(g.axis(0)), 0.2)
        ns = extract_nodal_set(f)
        assert ns.count == 1
        assert not check_alternation(f, ns)

    def test_indeterminate_midpoint_raises(self):
        g = circle_grid(256)
        f = Field(g, np.sin(2 * g.axis(0)), 0.2)
        with pytest.raises(IndeterminateSignError):
            check_alternation(f, angles_set([0.0, np.pi]))

    def test_empty_set_rejected(self):
        g = circle_grid(256)
        f = Field(g, np.ones(256), 0.2)
        with pytest.raises(ValueError):
            check_alternation(f, extract_nodal_set(f))

    def test_interval_field_is_rejected(self):
        # four sign changes that do alternate; an interval has no wrapped arc
        g = interval_grid(257, 1.0)
        f = Field(g, np.sin(3.0 * g.axis(0)) ** 2 - 0.25, 0.2)
        ns = extract_nodal_set(f)
        assert ns.count == 4
        with pytest.raises(ValueError, match="alternation check needs a periodic grid"):
            check_alternation(f, ns)

    @pytest.mark.parametrize("noisy", [False, True], ids=["fibered", "noisy"])
    def test_torus_is_the_circle_check_on_its_fiber_means(self, noisy):
        g = torus_grid(128, 16)
        theta, phi = g.axis(0), g.axis(1)
        prof = np.cos(2.0 * theta + 0.1)
        ns = extract_nodal_set(Field(g, g.extrude(prof), 0.2))
        v = g.extrude(prof)
        if noisy:
            # cos(phi) averages out over a fiber but flips the sign of one
            # positive lobe on the fiber phi = 0
            lobe = np.maximum(prof, 0.0) * (np.abs(theta - (np.pi - 0.05)) < np.pi / 2)
            v = v - 3.0 * lobe[:, None] * np.cos(phi)[None, :]
        f = Field(g, v, 0.2)
        fibers = angles_set(ns.angles)
        on_means = check_alternation(Field(circle_grid(128), v.mean(axis=1), 0.2), fibers)
        assert ns.count == 4 and on_means
        assert check_alternation(f, ns) == on_means
        if noisy:  # a single fiber's profile would not alternate
            assert not check_alternation(Field(circle_grid(128), v[:, 0].copy(), 0.2), fibers)


@pytest.fixture(scope="module")
def refined_four():
    sol = solve_dirichlet_model(np.pi / 4, 0.1, P, SolveConfig(tol_grad=1e-12), n=129)
    return newton_refine(reflect_extend(sol, 4), P).field


class TestRotationSymmetry:

    def test_reflection_built_solution_is_exact(self, refined_four):
        rep = check_rotation_symmetry(refined_four, 4)
        assert rep.passed and rep.tolerance == SYMMETRY_TOL
        assert rep.sign_flip_residual <= 1e-12
        assert rep.plain_residual <= 1e-12

    def test_perturbed_field_fails(self, refined_four):
        rng = np.random.default_rng(0)
        noisy = refined_four.with_values(
            refined_four.values + 0.01 * rng.standard_normal(refined_four.grid.shape)
        )
        rep = check_rotation_symmetry(noisy, 4)
        assert rep.sign_flip_residual > 1e-3

    def test_odd_m_rejected(self, refined_four):
        with pytest.raises(ValueError):
            check_rotation_symmetry(refined_four, 3)

    def test_indivisible_grid_rejected(self):
        g = circle_grid(250)
        f = Field(g, np.sin(g.axis(0)), 0.2)
        with pytest.raises(ValueError):
            check_rotation_symmetry(f, 4)

    def test_interval_field_is_rejected(self):
        # 256 points divide by m = 2, but an interval's values do not wrap
        g = interval_grid(256, 1.0)
        f = Field(g, np.sin(np.pi * g.axis(0)), 0.2)
        with pytest.raises(ValueError, match="rotation symmetry check needs a periodic grid"):
            check_rotation_symmetry(f, 2)


class TestCensusToleranceWitnesses:
    """The real check judges a state at twice a census tolerance a violation
    and passes one at half of it.  The states are built from the values
    written out here, not from the constants, so a tolerance loosened or
    tightened twofold or more fails one of each pair."""

    @pytest.mark.parametrize("deviation, passes", [(0.5e-4, True), (2e-4, False)])
    def test_congruence_tolerance(self, refined_four, deviation, passes):
        ns = extract_nodal_set(refined_four)
        angles = ns.angles.copy()
        angles[1] += deviation * (np.pi / 2)  # one spacing longer, the next shorter
        rep = check_congruent_intervals(dataclasses.replace(ns, angles=angles), rel_tol=CONGRUENCE_TOL)
        assert ns.count == 4
        assert rep.max_rel_deviation == pytest.approx(deviation, rel=1e-6)
        assert rep.passed == passes

    @pytest.mark.parametrize("deviation, passes", [(0.5e-7, True), (2e-7, False)])
    def test_symmetry_tolerance(self, refined_four, deviation, passes):
        v = refined_four.values.copy()
        v[10] += deviation
        rep = check_rotation_symmetry(refined_four.with_values(v), 4)
        assert rep.sign_flip_residual == pytest.approx(deviation, rel=1e-6)
        assert rep.passed == passes


class TestClusterFiberAngles:
    def test_two_clusters_with_wrap(self):
        pts = []
        rng = np.random.default_rng(2)
        for base in (0.0, 2.5):
            for _ in range(40):
                pts.append(((base + 0.002 * rng.standard_normal()) % (2 * np.pi),
                            rng.uniform(0, 2 * np.pi)))
        ns = NodalSet(
            "torus",
            np.sort(np.array([p[0] for p in pts])),
            np.zeros(len(pts), dtype=int),
            (2 * np.pi, 2 * np.pi),
            points=np.array(pts),
            point_signs=np.zeros(len(pts), dtype=int),
            point_axes=np.zeros(len(pts), dtype=int),
        )
        centers = cluster_fiber_angles(ns, gap_threshold=0.1)
        assert centers.size == 2
        assert min(abs(centers - 0.0).min(), abs(centers - 2 * np.pi).min()) <= 0.01
        assert abs(centers - 2.5).min() <= 0.01

    def test_torus_extraction_counts_fibers(self):
        g = torus_grid(128, 16)
        theta = g.axis(0)[:, None] + 0.0 * g.axis(1)[None, :]
        ns = extract_nodal_set(Field(g, np.cos(2.0 * theta + 0.1), 0.2))
        expected = (np.array([np.pi / 2, 3 * np.pi / 2, 5 * np.pi / 2, 7 * np.pi / 2]) - 0.1) / 2
        assert ns.kind == "torus" and ns.lengths == g.lengths
        assert np.array_equal(ns.angles, cluster_fiber_angles(ns, gap_threshold=4.0 * g.h))
        assert np.allclose(ns.angles, expected, atol=1e-3)
        assert ns.count == 4 and not ns.directions.any()
        assert ns.points.shape[0] == 4 * 16  # the cloud: one crossing per fiber row

    def test_extraction_joins_fibers_under_four_steps_apart(self):
        # zeros at a, a + pi, b, b + pi with b - a = 3.1h: two interfaces
        g = torus_grid(128, 16)
        a, b = 1.0, 1.0 + 3.1 * g.h
        prof = np.sin(g.axis(0) - a) * np.sin(g.axis(0) - b)
        ns = extract_nodal_set(Field(g, g.extrude(prof), 0.2))
        assert np.allclose(ns.angles, [0.5 * (a + b), 0.5 * (a + b) + np.pi], atol=1e-3)

    def test_a_circle_set_is_read_as_it_is(self):
        ns = angles_set([0.5, 2.0])
        assert np.array_equal(check_congruent_intervals(ns).spacings, [1.5, 2 * np.pi - 1.5])
        with pytest.raises(ValueError, match="torus"):
            cluster_fiber_angles(ns, gap_threshold=4.0 * 0.01)

    def test_clustering_joins_gaps_under_four_steps(self):
        h = 0.01
        theta = np.array([1.0, 1.0 + 3.5 * h, 1.0 + 7.0 * h, 4.0])
        pts = np.column_stack([theta, np.linspace(0.0, 6.0, theta.size)])
        zeros = np.zeros(theta.size, dtype=int)
        ns = NodalSet("torus", theta, zeros, (2 * np.pi, 2 * np.pi), pts, zeros, zeros)
        assert np.allclose(cluster_fiber_angles(ns, gap_threshold=4.0 * h), [1.0 + 3.5 * h, 4.0])


@pytest.fixture(scope="module")
def two_interface():
    sol = solve_dirichlet_model(np.pi / 2, 0.05, P, SolveConfig(tol_grad=1e-11), n=1025)
    f = reflect_extend(sol, 2)
    return newton_refine(f, P).field


class TestDecayFit:

    def test_rate_matches_linearization(self, two_interface):
        # oracle: the linearization rate at the wells is sqrt(W''(1)) / eps
        ns = extract_nodal_set(two_interface)
        fit = fit_decay(two_interface, ns)
        assert abs(fit.kappa * 0.05 / np.sqrt(2.0) - 1.0) <= 0.2

    def test_pointwise_envelope(self, two_interface):
        ns = extract_nodal_set(two_interface)
        fit = fit_decay(two_interface, ns)
        assert fit.pointwise_bound_holds(slack=1e-2)
        assert fit.envelope_amplitude >= fit.amplitude

    def test_needs_room_away_from_zeros(self):
        g = circle_grid(256)
        f = Field(g, np.sin(g.axis(0)), 0.9)
        with pytest.raises(ValueError):
            fit_decay(f, extract_nodal_set(f))

    def test_needs_nonempty_set(self):
        g = circle_grid(256)
        f = Field(g, np.ones(256), 0.05)
        with pytest.raises(ValueError):
            fit_decay(f, extract_nodal_set(f))


def test_crossing_directions_alternate_for_transversal_fields():
    rng = np.random.default_rng(3)
    g = circle_grid(512)
    th = g.axis(0)
    for _ in range(5):
        u = rng.normal() * np.sin(th) + rng.normal() * np.cos(2 * th) + 0.3
        ns = extract_nodal_set(Field(g, u, 0.2))
        if ns.count == 0:
            continue
        d = ns.directions
        assert np.all(d != 0)
        assert np.all(d[1:] != d[:-1])
        assert d[0] != d[-1] or ns.count == 1


# --- the geometry paths, pinned to the per-kind formulas they replaced -------


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def _frozen_hausdorff(a, b):
    """hausdorff_distance with one branch per grid kind, frozen here."""
    if a.kind == "torus":
        pa, pb = a.points, b.points
        d0 = circle_distance(pa[:, None, 0], pb[None, :, 0], a.lengths[0])
        d1 = circle_distance(pa[:, None, 1], pb[None, :, 1], a.lengths[1])
        dm = np.hypot(d0, d1)
    elif a.kind == "circle":
        dm = circle_distance(a.angles[:, None], b.angles[None, :], a.lengths[0])
    else:
        dm = np.abs(a.angles[:, None] - b.angles[None, :])
    return float(max(dm.min(axis=1).max(), dm.min(axis=0).max()))


def _frozen_cluster_fiber_angles(ns, gap_threshold):
    """cluster_fiber_angles with its inline wrap-aware gaps, frozen here."""
    L = ns.lengths[0]
    th = np.sort(ns.points[:, 0] % L)
    gaps = np.diff(np.append(th, th[0] + L))
    breaks = np.flatnonzero(gaps > gap_threshold)
    if breaks.size == 0:
        ang = float(np.angle(np.mean(np.exp(2j * np.pi * th / L))))
        return np.array([(ang % (2.0 * np.pi)) * L / (2.0 * np.pi)])
    start = (breaks[0] + 1) % th.size
    ordered = np.roll(th, -start)
    ends = np.flatnonzero(np.roll(gaps, -start) > gap_threshold)
    starts = np.concatenate([[0], ends[:-1] + 1])
    centers = []
    for s, e in zip(starts, ends):
        block = ordered[s : e + 1]
        rel = (block - block[0] + 0.5 * L) % L - 0.5 * L
        centers.append((block[0] + float(rel.mean())) % L)
    return np.sort(np.asarray(centers))


def _random_nodal_sets(g, seed, count=3):
    rng = np.random.default_rng(seed)
    sets = []
    for _ in range(count):
        v = rng.standard_normal(g.shape) + 0.3 * rng.standard_normal()
        sets.append(extract_nodal_set(Field(g, v, 0.5)))
    return sets


@pytest.mark.parametrize(
    "g",
    [interval_grid(65, 1.3), circle_grid(64, 3.0), torus_grid(24, 20, (2 * np.pi, 3.0))],
    ids=["interval", "circle", "torus"],
)
def test_hausdorff_matches_the_per_kind_formulas_bit_for_bit(g):
    for seed in range(3):
        sets = _random_nodal_sets(g, seed)
        for a in sets:
            for b in sets:
                assert not a.is_empty
                assert _bits(hausdorff_distance(a, b)) == _bits(_frozen_hausdorff(a, b))


def test_interval_nodal_distance_matches_the_abs_formula_bit_for_bit():
    g = interval_grid(129, 1.3)
    f = Field(g, np.sin(3.0 * g.axis(0)) + 0.2, 0.1)
    ns = extract_nodal_set(f)
    frozen = np.abs(g.axis(0)[:, None] - ns.angles[None, :]).min(axis=1)
    assert ns.count == 3
    assert np.array_equal(_bits(nodal_distance(f, ns)), _bits(frozen))


def _torus_cloud(theta, L=(3.0, 2 * np.pi)):
    pts = np.column_stack([theta, np.linspace(0.0, L[1], theta.size, endpoint=False)])
    zeros = np.zeros(theta.size, dtype=int)
    return NodalSet("torus", np.sort(theta), zeros, L, pts, zeros, zeros)


@pytest.mark.parametrize("gap_threshold", [0.05, 3.0], ids=["clusters", "single_cluster"])
def test_cluster_fiber_angles_matches_the_inline_gaps_bit_for_bit(gap_threshold):
    rng = np.random.default_rng(5)
    # four blobs on a fiber of length 3, one straddling the wrap point
    theta = np.concatenate([c + 0.01 * rng.standard_normal(30) for c in (0.0, 0.8, 1.5, 2.2)])
    ns = _torus_cloud(theta % 3.0)
    got = cluster_fiber_angles(ns, gap_threshold)
    assert got.size == (4 if gap_threshold < 0.1 else 1)
    assert np.array_equal(_bits(got), _bits(_frozen_cluster_fiber_angles(ns, gap_threshold)))
