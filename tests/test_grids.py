import math

import numpy as np
import pytest

from phaselab.grids import (
    ResolutionError,
    circle_distance,
    circle_grid,
    interval_grid,
    make_grid,
    require_resolution,
    torus_grid,
)


def test_circle_spacing():
    g = make_grid("circle", 256, 2 * np.pi)
    assert g.h == pytest.approx(2 * np.pi / 256, rel=1e-15)
    assert g.npoints == 256


def test_interval_includes_endpoints():
    g = make_grid("interval", 129, np.pi / 2)
    x = g.axis()
    assert x[0] == -np.pi / 2
    assert x[-1] == np.pi / 2
    assert (g.shape[0] - 1) * g.h == pytest.approx(np.pi, rel=1e-15)


def test_torus_product_grid():
    g = make_grid("torus", (256, 64), (2 * np.pi, 2 * np.pi))
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
