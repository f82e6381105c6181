import math
import re

import numpy as np
import pytest

from phaselab.grids import (
    Grid,
    ResolutionError,
    circle_distance,
    circle_grid,
    interval_grid,
    require_resolution,
    torus_grid,
)


def test_circle_spacing():
    g = Grid("circle", 256, 2 * np.pi)
    assert g.h == pytest.approx(2 * np.pi / 256, rel=1e-15)
    assert g.npoints == 256


def test_interval_includes_endpoints():
    g = Grid("interval", 129, np.pi / 2)
    x = g.axis()
    assert x[0] == -np.pi / 2
    assert x[-1] == np.pi / 2
    assert (g.shape[0] - 1) * g.h == pytest.approx(np.pi, rel=1e-15)


def test_torus_product_grid():
    g = Grid("torus", (256, 64), (2 * np.pi, 2 * np.pi))
    assert g.npoints == 16384
    assert g.spacings[0] == pytest.approx(2 * np.pi / 256)
    assert g.spacings[1] == pytest.approx(2 * np.pi / 64)


def test_grid_validation():
    with pytest.raises(ValueError):
        circle_grid(8)
    with pytest.raises(ValueError):
        interval_grid(65, -1.0)
    with pytest.raises(ValueError):
        torus_grid(32, 8)


def test_periodic_grids_and_extruded_profiles():
    circle, torus = circle_grid(32), torus_grid(32, 16)
    assert circle.periodic and torus.periodic and not interval_grid(33, 1.0).periodic
    profile = np.linspace(-1.0, 1.0, 32)
    column = torus.extrude(profile)
    assert column.flags.c_contiguous and column.flags.writeable
    assert np.array_equal(column, np.repeat(profile[:, None], 16, axis=1))
    assert torus.extrude(profile > 0).dtype == bool
    line = circle.extrude(profile)
    assert np.array_equal(line, profile) and not np.shares_memory(line, profile)


def test_extrude_takes_an_axis_0_profile_only():
    # a 2-D input used to come back transposed, or in the wrong shape
    torus = torus_grid(32, 16)
    with pytest.raises(ValueError, match=re.escape("shape (16, 16) has shape (16,), got (16, 16)")):
        torus_grid(16, 16).extrude(np.arange(256.0).reshape(16, 16))
    for bad in (np.ones((16, 32)), np.ones((32, 16)), np.ones(16), np.ones(33), 1.0):
        with pytest.raises(ValueError, match=re.escape(f"shape (32, 16) has shape (32,), got {np.shape(bad)}")):
            torus.extrude(bad)
    with pytest.raises(ValueError, match=re.escape("shape (16,) has shape (16,), got (16, 1)")):
        circle_grid(16).extrude(np.ones((16, 1)))


@pytest.mark.parametrize(
    "kind,shape,lengths,match",
    [
        ("torus", (256,), (2 * np.pi,), "axis count 2"),
        ("torus", 256, (2 * np.pi, 2 * np.pi), "axis count 2"),
        ("torus", (256, 64, 8), (1.0, 1.0, 1.0), "axis count 2"),
        ("circle", 256, [1.0, 2.0], "axis count 1"),
        ("interval", (65, 65), 1.0, "axis count 1"),
        ("sphere", (32, 32), (1.0, 1.0), "unknown grid kind"),
        ("circle", 8, 1.0, "at least 16 points"),
        ("torus", (32, 8), (1.0, 1.0), "at least 16 points"),
        ("torus", (32, 32), (1.0, np.nan), "finite and positive"),
    ],
)
def test_grids_check_themselves_when_made(kind, shape, lengths, match):
    """Grid rejects what the constructors reject; Grid("circle", 256,
    [1.0, 2.0]) does not drop the 2.0."""
    with pytest.raises(ValueError, match=match):
        Grid(kind, shape, lengths)


def test_grids_store_int_and_float_tuples():
    g = Grid("torus", [np.int64(64), 32], np.array([2 * np.pi, 3]))
    assert g.shape == (64, 32) and g.lengths == (2 * np.pi, 3.0)
    assert all(type(n) is int for n in g.shape) and all(type(L) is float for L in g.lengths)
    assert Grid("circle", 64, 2 * np.pi) == Grid("circle", (64,), (2 * np.pi,)) == circle_grid(64)
    assert Grid("interval", [65], [1.0]) == interval_grid(65, 1.0)


@pytest.mark.parametrize("count", [64.9, 64.5, np.float64(64.25), "64", np.nan])
def test_grids_reject_point_counts_that_int_would_change(count):
    """circle_grid(64.9) made a 64-point grid; a count that int() changes is
    no count, while one that int() keeps, 64.0 or np.int64(64), is."""
    with pytest.raises(ValueError):
        circle_grid(count)
    with pytest.raises(ValueError):
        torus_grid(64, count)
    assert circle_grid(64.0) == circle_grid(np.int64(64)) == circle_grid(64)
    assert torus_grid(64, np.float64(32.0)).shape == (64, 32)


@pytest.mark.parametrize("count", [float("inf"), -np.inf])
def test_grids_reject_infinite_point_counts_with_a_value_error(count):
    """int() of an infinite count raises OverflowError, which a caller
    catching ValueError for a bad grid would let through."""
    with pytest.raises(ValueError, match=re.escape(f"point counts must be whole numbers, got ({count},)")):
        circle_grid(count)
    with pytest.raises(ValueError, match=re.escape(f"whole numbers, got (64, {count})")):
        torus_grid(64, count)


@pytest.mark.parametrize("count", [32.5, np.float64(32.5)])
def test_mixed_shape_messages_print_each_count_as_given(count):
    """The valid count of a mixed shape stays an int in the message."""
    with pytest.raises(ValueError, match=re.escape("whole numbers, got (64, 32.5)")):
        torus_grid(64, count)


@pytest.mark.parametrize("length", [np.inf, -np.inf, np.nan, 0.0])
def test_grid_lengths_must_be_finite_and_positive(length):
    with pytest.raises(ValueError, match="finite and positive"):
        circle_grid(64, length)
    with pytest.raises(ValueError, match="finite and positive"):
        interval_grid(65, length)
    with pytest.raises(ValueError, match="finite and positive"):
        torus_grid(32, 32, (2 * np.pi, length))


@pytest.mark.parametrize(
    "a,b,expected",
    [(0.0, np.pi, np.pi), (0.1, 2 * np.pi - 0.1, 0.2), (1.234, 1.234, 0.0)],
)
def test_circle_distance(a, b, expected):
    assert circle_distance(a, b) == pytest.approx(expected, abs=1e-12)


def test_circle_distance_vectorized():
    a = np.array([0.0, 0.1])
    d = circle_distance(a[:, None], np.array([np.pi, 2 * np.pi - 0.1])[None, :])
    assert d.shape == (2, 2)


def test_circle_quadrature_of_one():
    g = circle_grid(256)
    assert abs(float(g.weights().sum()) - 2 * np.pi) <= 1e-12


def test_interval_trapezoid_weights():
    g = interval_grid(65, 1.0)
    assert float(g.weights().sum()) == pytest.approx(2.0, abs=1e-13)
    assert g.weights()[0] == pytest.approx(0.5 * g.h)


@pytest.mark.parametrize(
    "grid",
    [interval_grid(65, 1.0), circle_grid(256), torus_grid(64, 16, (2 * np.pi, 3.0))],
    ids=lambda g: g.kind,
)
def test_weights_are_one_read_only_array(grid):
    w = grid.weights()
    assert w is grid.weights()
    with pytest.raises(ValueError):
        w[0] = 1.0
    if grid.kind == "interval":
        expected = np.full(grid.shape[0], grid.h)
        expected[0] = expected[-1] = 0.5 * grid.h
    else:
        expected = np.full(grid.shape, math.prod(grid.spacings))
    assert np.array_equal(w, expected)


def test_resolution_rule():
    g = circle_grid(256)  # h ~ 0.0245
    require_resolution(g, 0.2, 8.0)
    with pytest.raises(ResolutionError):
        require_resolution(g, 0.1, 8.0)
    require_resolution(g, 0.1, 4.0)  # explicit relaxation


def test_grid_equality_is_metadata():
    assert circle_grid(64) == circle_grid(64)
    assert circle_grid(64) != circle_grid(128)
    assert circle_grid(64) != interval_grid(64, np.pi)
    assert hash(torus_grid(32, 16)) == hash(torus_grid(32, 16))
    assert len({circle_grid(64), circle_grid(64), circle_grid(128)}) == 2


def test_resolution_rule_takes_its_ratio_from_the_caller():
    """The rule has no default ratio of its own: SolveConfig.min_points_per_eps
    is the only default, and every solve passes it."""
    with pytest.raises(TypeError):
        require_resolution(circle_grid(256), 0.2)
