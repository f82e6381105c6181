import gc
import math
import weakref

import numpy as np
import pytest
from scipy.integrate import quad

import phaselab.fields as fields
from phaselab.fields import (
    Field,
    energy,
    energy_kernel,
    gradient,
    hessian_apply,
    inner,
    laplacian,
    residual_kernel,
    sup_norm,
    truncate_to_unit,
)
from phaselab.grids import circle_grid, interval_grid, torus_grid
from phaselab.potentials import from_callables, quartic

P = quartic()


def smooth_circle_field(grid, eps, seed, amplitude=0.9, modes=6):
    rng = np.random.default_rng(seed)
    theta = grid.axis(0)
    u = np.zeros(grid.shape[0])
    for k in range(1, modes + 1):
        u += rng.normal() * np.cos(k * theta) + rng.normal() * np.sin(k * theta)
    u *= amplitude / np.max(np.abs(u))
    return Field(grid, u, eps)


def test_energy_at_well_is_zero():
    g = circle_grid(128)
    assert energy(Field(g, np.ones(128), 0.7), P) == 0.0


def test_energy_of_zero_state_is_length_over_four():
    g = circle_grid(256)
    e = energy(Field(g, np.zeros(256), 1.0), P)
    assert e == pytest.approx(np.pi / 2, abs=1e-12)


def test_transition_profile_energy_matches_quadrature_constant():
    # independent oracle: cost per transition = integral of sqrt(2 W) over [-1, 1]
    sigma, _ = quad(lambda u: np.sqrt(2.0 * P.w(u)), -1.0, 1.0, limit=200)
    eps = 0.05
    ell = 20 * eps
    g = interval_grid(641, ell)  # h = ell/320 -> 16 points per eps
    u = np.tanh(g.axis() / (np.sqrt(2.0) * eps))
    e = energy(Field(g, u, eps), P)
    assert abs(e - sigma) <= 1e-3


@pytest.mark.parametrize("k", [1, 2, 5])
def test_laplacian_eigenfunction_consistency(k):
    g = circle_grid(256)
    theta = g.axis(0)
    v = np.sin(k * theta)
    lap = laplacian(g, v)
    rel = np.max(np.abs(lap + k * k * v)) / (k * k)
    assert rel <= (k * g.h) ** 2 / 12.0 * 1.1


@pytest.mark.parametrize("n", [16, 17, 256, 2048])
def test_circle_stencils_match_roll_formulas_exactly(n):
    g = circle_grid(n)
    rng = np.random.default_rng(n)
    for scale in (1e-3, 1.0, 1e3):
        v = scale * rng.standard_normal(n)
        lap = (np.roll(v, -1) - 2.0 * v + np.roll(v, 1)) / g.h**2
        assert np.array_equal(laplacian(g, v), lap)
        eps = 0.3
        du = np.roll(v, -1) - v
        e = 0.5 * eps / g.h * float(np.dot(du, du)) + g.h / eps * float(np.sum(P.w(v)))
        assert energy(Field(g, v, eps), P) == e


@pytest.mark.parametrize(
    "shape", [(16, 16), (17, 24), (256, 64), pytest.param((129,), id="interval")]
)
def test_torus_laplacian_matches_roll_formula_exactly(shape):
    """The torus stencil, and the interval's: the same loop with the two
    boundary rows zeroed."""
    if len(shape) == 1:
        g = interval_grid(shape[0], 1.3)
    else:
        g = torus_grid(*shape, circumferences=(2 * np.pi, 3.0))
    rng = np.random.default_rng(shape[0])
    for scale in (1e-3, 1.0, 1e3):
        v = scale * rng.standard_normal(shape)
        lap = 0.0
        for axis, h in enumerate(g.spacings):
            lap = lap + (np.roll(v, -1, axis=axis) - 2.0 * v + np.roll(v, 1, axis=axis)) / h**2
        if g.kind == "interval":
            lap[0] = lap[-1] = 0.0
        assert np.array_equal(laplacian(g, v), lap)


def _fresh_interval_weights(g):
    w = np.full(g.shape[0], g.h)
    w[0] = w[-1] = 0.5 * g.h
    return w


@pytest.mark.parametrize("n", [17, 129, 1025])
def test_interval_energy_matches_diff_formula_exactly(n):
    g = interval_grid(n, 1.3)
    v = np.random.default_rng(n).uniform(-1.2, 1.2, n)
    eps = 0.3
    du = np.diff(v)
    ref = 0.5 * eps / g.h * float(np.dot(du, du)) + float(
        np.sum(_fresh_interval_weights(g) * P.w(v))
    ) / eps
    assert energy(Field(g, v, eps), P) == ref


def _loop_energy(f, p):
    """The energy as one loop over axes for every periodic grid (swapped axes,
    raveled differences, np.sum), kept as an oracle for the leaner code."""
    v, eps, g = f.values, f.epsilon, f.grid
    if g.kind == "interval":
        du = v[1:] - v[:-1]
        return 0.5 * eps / g.h * float(np.dot(du, du)) + float(np.sum(g.weights() * p.w(v))) / eps
    cell = math.prod(g.spacings)
    grad_term = 0.0
    for axis, h in enumerate(g.spacings):
        du = np.empty_like(v)
        w, d = v.swapaxes(0, axis), du.swapaxes(0, axis)
        np.subtract(w[1:], w[:-1], out=d[:-1])
        d[-1] = w[0] - w[-1]
        du = du.ravel()
        grad_term += 0.5 * eps * (cell / h) / h * float(np.dot(du, du))
    return grad_term + cell / eps * float(np.sum(p.w(v)))


@pytest.mark.parametrize(
    "g",
    [
        interval_grid(17, 1.3),
        interval_grid(1025, 0.7),
        circle_grid(16),
        circle_grid(257, 3.0),
        circle_grid(2048),
        torus_grid(17, 24, (2 * np.pi, 3.0)),
        torus_grid(256, 64),
    ],
    ids=lambda g: f"{g.kind}-{'x'.join(map(str, g.shape))}",
)
def test_energy_matches_axis_loop_exactly(g):
    rng = np.random.default_rng(g.npoints)
    for scale in (1e-3, 1.0, 1.2, 1e3):
        for eps in (0.05, 0.3, 1.7):
            f = Field(g, scale * rng.uniform(-1.0, 1.0, g.shape), eps)
            assert energy(f, P) == _loop_energy(f, P)


@pytest.mark.parametrize(
    "g", [interval_grid(65, 1.0), circle_grid(256), torus_grid(32, 16)], ids=lambda g: g.kind
)
def test_inner_matches_fresh_weights_exactly(g):
    rng = np.random.default_rng(3)
    a, b = rng.standard_normal(g.shape), rng.standard_normal(g.shape)
    if g.kind == "interval":
        w = _fresh_interval_weights(g)
    else:
        w = np.full(g.shape, math.prod(g.spacings))
    assert inner(g, a, b) == float(np.sum(w * a * b))


def test_gradient_vanishes_at_constant_states():
    g = circle_grid(128)
    for c in (1.0, 0.0, -1.0):
        gr = gradient(Field(g, np.full(128, c), 0.4), P)
        assert sup_norm(gr.values) == 0.0


@pytest.mark.parametrize("eps", [0.1, 0.3])
def test_gradient_matches_directional_derivative(eps):
    g = circle_grid(256)
    u = smooth_circle_field(g, eps, seed=11)
    phi = smooth_circle_field(g, eps, seed=7, amplitude=1.0)
    t = 1e-5
    ep = energy(Field(g, u.values + t * phi.values, eps), P)
    em = energy(Field(g, u.values - t * phi.values, eps), P)
    fd = (ep - em) / (2 * t)
    ip = inner(g, gradient(u, P).values, phi.values)
    assert abs(fd - ip) / abs(ip) <= 1e-6


def test_hessian_at_well_on_constants():
    g = circle_grid(128)
    u = Field(g, np.ones(128), 1.0)
    phi = Field(g, np.full(128, 0.37), 1.0)
    out = hessian_apply(u, phi, P)
    assert np.allclose(out.values, 2.0 * 0.37, atol=1e-14)


def test_hessian_self_adjoint():
    g = circle_grid(256)
    u = smooth_circle_field(g, 0.2, seed=3)
    phi = smooth_circle_field(g, 0.2, seed=4, amplitude=1.0)
    psi = smooth_circle_field(g, 0.2, seed=5, amplitude=1.0)
    a = inner(g, hessian_apply(u, phi, P).values, psi.values)
    b = inner(g, hessian_apply(u, psi, P).values, phi.values)
    assert abs(a - b) <= 1e-10 * (1 + abs(a))


def test_hessian_is_gradient_linearization():
    g = circle_grid(256)
    u = smooth_circle_field(g, 0.25, seed=9)
    phi = smooth_circle_field(g, 0.25, seed=10, amplitude=1.0)
    base = gradient(u, P).values
    errs = []
    for t in (1e-3, 1e-4):
        fd = (gradient(Field(g, u.values + t * phi.values, 0.25), P).values - base) / t
        errs.append(sup_norm(fd - hessian_apply(u, phi, P).values))
    # error is O(t): one decade in t buys about one decade in error
    assert errs[1] <= errs[0] * 0.2


def test_interval_hessian_pins_the_boundary():
    """On an interval the Hessian acts on the direction with its end values
    zeroed and returns zero boundary rows, so it is symmetric under inner and
    is the central difference of the gradient along the pinned direction."""
    g = interval_grid(129, 1.0)
    rng = np.random.default_rng(2)
    u, phi, psi = (Field(g, rng.uniform(-1.0, 1.0, 129), 0.2) for _ in range(3))
    h_phi = hessian_apply(u, phi, P).values
    assert h_phi[0] == 0.0 and h_phi[-1] == 0.0
    a = inner(g, h_phi, psi.values)
    b = inner(g, hessian_apply(u, psi, P).values, phi.values)
    assert abs(a - b) <= 1e-10 * (1 + abs(a))
    pinned = phi.values.copy()
    pinned[0] = pinned[-1] = 0.0
    assert np.array_equal(hessian_apply(u, phi.with_values(pinned), P).values, h_phi)
    t = 1e-4
    plus = gradient(u.with_values(u.values + t * pinned), P).values
    minus = gradient(u.with_values(u.values - t * pinned), P).values
    assert sup_norm((plus - minus) / (2 * t) - h_phi) <= 1e-6 * sup_norm(h_phi)


def _frozen_hessian_apply(grid, eps, p, u, phi):
    """The Hessian action as hessian_apply wrote it before the kernel."""
    if not grid.periodic:
        phi = phi.copy()
        phi[0] = phi[-1] = 0.0
    return -eps * laplacian(grid, phi) + p.d2w(u) / eps * phi


def _frozen_torus_matvec(grid, eps, p, u, x):
    """The Hessian action as the torus Newton solve once applied it to a
    raveled direction: the Laplacian scaled in place, the well term added."""
    d2 = p.d2w(u) / eps
    X = x.reshape(grid.shape)
    out = laplacian(grid, X)
    np.multiply(out, -eps, out=out)
    out += np.multiply(d2, X, out=np.empty(grid.shape))
    return out.ravel()


@pytest.mark.parametrize(
    "grid", [interval_grid(129, 1.0), circle_grid(256), torus_grid(256, 64)], ids=lambda g: g.kind
)
def test_hessian_apply_keeps_the_bits_of_both_former_hessian_actions(grid):
    """hessian_apply gives the bits, signs of zero included, of the formula
    it computed before and, on periodic grids, of the former torus matvec;
    each call returns a new array and reads its input only."""
    rng = np.random.default_rng(25)
    eps = 0.3
    u = Field(grid, rng.uniform(-1.1, 1.1, grid.shape), eps)
    outputs = []
    for k in range(3):
        # smooth, so that the well term's rounding shows beside -eps Lap_h
        phi = grid.extrude(np.sin((k + 1) * grid.axis(0) + rng.uniform(0.0, 6.0)))
        if len(grid.shape) == 2:
            phi *= 1.0 + 0.5 * np.cos(grid.axis(1) + k)
        phi.flat[:: 37 + k] = 0.0
        phi.flat[3 :: 41 + k] = -0.0
        before = phi.copy()
        out = hessian_apply(u, Field(grid, phi, eps), P).values
        assert np.array_equal(phi, before)
        expected = _frozen_hessian_apply(grid, eps, P, u.values, phi)
        assert out.tobytes() == expected.tobytes()
        if grid.periodic:
            assert out.ravel().tobytes() == _frozen_torus_matvec(grid, eps, P, u.values, phi.ravel()).tobytes()
        outputs.append((out, out.copy()))
    assert all(np.array_equal(out, kept) for out, kept in outputs)


def test_hessian_grid_mismatch():
    u = Field(circle_grid(128), np.zeros(128), 0.3)
    phi = Field(circle_grid(64), np.zeros(64), 0.3)
    with pytest.raises(ValueError):
        hessian_apply(u, phi, P)


def test_energy_even_in_u():
    g = circle_grid(256)
    u = smooth_circle_field(g, 0.2, seed=21)
    e1 = energy(u, P)
    e2 = energy(u.with_values(-u.values), P)
    assert abs(e1 - e2) <= 1e-12 * (1 + e1)


def test_energy_translation_invariance():
    g = circle_grid(256)
    u = smooth_circle_field(g, 0.2, seed=22)
    e1 = energy(u, P)
    for k in (1, 17, 100):
        e2 = energy(u.with_values(np.roll(u.values, k)), P)
        assert abs(e1 - e2) <= 1e-12 * (1 + e1)


@pytest.mark.parametrize("seed", range(5))
def test_truncation_never_raises_energy(seed):
    rng = np.random.default_rng(seed)
    g = interval_grid(129, 1.0)
    vals = rng.uniform(-2.0, 2.0, 129)
    u = Field(g, vals, 0.25)
    t = Field(g, truncate_to_unit(vals), 0.25)
    assert energy(t, P) <= energy(u, P) + 1e-12


def test_torus_energy_matches_fiber_constant_circle():
    gc = circle_grid(128)
    gt = torus_grid(128, 32)
    rng = np.random.default_rng(1)
    prof = np.tanh(np.sin(gc.axis(0)) / 0.3)
    ec = energy(Field(gc, prof, 0.3), P)
    et = energy(Field(gt, np.repeat(prof[:, None], 32, axis=1), 0.3), P)
    # transverse direction is constant: energy is the fiber energy times L2
    assert et == pytest.approx(ec * 2 * np.pi, rel=1e-12)


def test_dirichlet_gradient_zero_rows():
    g = interval_grid(65, 1.0)
    rng = np.random.default_rng(0)
    u = Field(g, rng.uniform(-1, 1, 65), 0.3)
    gr = gradient(u, P)
    assert gr.values[0] == 0.0 and gr.values[-1] == 0.0


def test_field_validation():
    g = circle_grid(64)
    with pytest.raises(ValueError):
        Field(g, np.zeros(65), 0.1)
    with pytest.raises(ValueError):
        Field(g, np.zeros(64), -0.1)
    for eps in (np.inf, np.nan, 0.0):
        with pytest.raises(ValueError, match="finite and positive"):
            Field(g, np.zeros(64), eps)


# --- the per-geometry kernels, pinned bit for bit ---------------------------


def _frozen_laplacian(grid, v):
    """The generic axis-loop Laplacian the kernels replaced, frozen here."""
    out = None
    for axis, h in enumerate(grid.spacings):
        w = v.swapaxes(0, axis)
        d = -2.0 * w
        d[:-1] += w[1:]
        d[-1] += w[0]
        d[1:] += w[:-1]
        d[0] += w[-1]
        d /= h ** 2
        d = d.swapaxes(0, axis)
        if out is None:
            out = d
        else:
            out += d
    if grid.kind == "interval":
        out[0] = out[-1] = 0.0
    return out


def _frozen_energy(grid, v, eps, p):
    """The per-call energy the kernels replaced, frozen here."""
    g = grid
    if g.kind == "interval":
        du = v[1:] - v[:-1]
        grad_term = 0.5 * eps / g.h * float(np.dot(du, du))
        well_term = float((g.weights() * p.w(v)).sum()) / eps
        return grad_term + well_term
    if v.ndim == 1:
        h = g.h
        du = np.empty_like(v)
        np.subtract(v[1:], v[:-1], out=du[:-1])
        du[-1] = v[0] - v[-1]
        return 0.5 * eps / h * float(np.dot(du, du)) + h / eps * float(p.w(v).sum())
    cell = math.prod(g.spacings)
    grad_term = 0.0
    for axis, h in enumerate(g.spacings):
        du = np.empty_like(v)
        w, d = v.swapaxes(0, axis), du.swapaxes(0, axis)
        np.subtract(w[1:], w[:-1], out=d[:-1])
        d[-1] = w[0] - w[-1]
        du = du.ravel()
        grad_term += 0.5 * eps * (cell / h) / h * float(np.dot(du, du))
    well_term = cell / eps * float(p.w(v).sum())
    return grad_term + well_term


def _frozen_gradient(grid, v, eps, p):
    out = -eps * _frozen_laplacian(grid, v) + p.dw(v) / eps
    if grid.kind == "interval":
        out[0] = out[-1] = 0.0
    return out


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


KERNEL_GRIDS = [
    interval_grid(65, 1.0),
    interval_grid(257, 2.3),
    circle_grid(16),
    circle_grid(17, 3.0),
    circle_grid(256),
    circle_grid(512),
    torus_grid(17, 20, (2 * np.pi, 3.0)),
    torus_grid(256, 64),
    torus_grid(24, 16),  # the minimum fiber
    torus_grid(33, 17),
]


def _kernel_inputs(g):
    """Uniform noise at several scales, and a smooth two-interface field."""
    rng = np.random.default_rng(g.npoints)
    fields = [scale * rng.uniform(-1.0, 1.0, g.shape) for scale in (1e-3, 1.0, 1.2, 1e3)]
    x = g.axis(0) if g.kind != "interval" else g.axis(0) + g.lengths[0]
    profile = np.tanh(np.sin(x) / 0.2)
    fields.append(profile if len(g.shape) == 1 else np.repeat(profile[:, None], g.shape[1], 1))
    return fields


@pytest.mark.parametrize("g", KERNEL_GRIDS, ids=lambda g: f"{g.kind}-{'x'.join(map(str, g.shape))}")
def test_kernels_match_the_frozen_formulas_bit_for_bit(g):
    for eps in (0.05, 0.3, 1.7):
        energy_of = energy_kernel(g, eps, P)
        residual = residual_kernel(g, eps, P)
        for v in _kernel_inputs(g):  # each kernel reuses its buffers across calls
            before = v.copy()
            assert _bits(energy_of(v[None])[0]) == _bits(_frozen_energy(g, v, eps, P))
            assert np.array_equal(_bits(residual(v)), _bits(_frozen_gradient(g, v, eps, P)))
            assert np.array_equal(_bits(laplacian(g, v)), _bits(_frozen_laplacian(g, v)))
            f = Field(g, v, eps)
            assert _bits(energy(f, P)) == _bits(_frozen_energy(g, v, eps, P))
            assert np.array_equal(_bits(gradient(f, P).values), _bits(residual(v)))
            assert np.array_equal(_bits(v), _bits(before))


def _layouts(v):
    """The values of ``v`` as a C-ordered and a Fortran-ordered array, a
    transposed view and a strided view."""
    strided = np.empty((v.shape[0], 2 * v.shape[1]))[:, ::2]
    strided[...] = v
    return [v, np.asfortranarray(v), np.ascontiguousarray(v.T).T, strided]


@pytest.mark.parametrize(
    "g", [g for g in KERNEL_GRIDS if len(g.shape) == 2], ids=lambda g: "x".join(map(str, g.shape))
)
def test_torus_kernels_match_the_frozen_formulas_on_every_layout(g):
    # the fiber-axis stencils run on raveled arrays, which copies a
    # non-contiguous field, and the well term is summed in C order; no
    # kernel may see the layout
    for eps in (0.05, 0.3):
        energy_of = energy_kernel(g, eps, P)
        residual = residual_kernel(g, eps, P)
        for v in _kernel_inputs(g):
            e = _frozen_energy(g, v, eps, P)
            lap = _frozen_laplacian(g, v)
            r = _frozen_gradient(g, v, eps, P)
            for w in _layouts(v):
                assert _bits(energy_of(w[None])[0]) == _bits(e)
                assert _bits(energy(Field(g, w, eps), P)) == _bits(e)
                assert np.array_equal(_bits(residual(w)), _bits(r))
                assert np.array_equal(_bits(laplacian(g, w)), _bits(lap))
                assert np.array_equal(_bits(w), _bits(v))


@pytest.mark.parametrize("g", KERNEL_GRIDS, ids=lambda g: f"{g.kind}-{'x'.join(map(str, g.shape))}")
def test_a_stack_has_the_energies_of_its_fields_on_every_layout(g):
    # a flow checks a block of its states in one call: one p.w call on the
    # stack, and per field its own dot products and its own C-order well sum
    calls = []

    def w(x):
        calls.append(x.shape)
        return P.w(x)

    p = from_callables(w, P.dw, P.d2w, "counted")
    inputs = _kernel_inputs(g)
    stack = np.stack(inputs)
    for eps in (0.05, 0.3):
        energy_of = energy_kernel(g, eps, p, rows=len(inputs))
        frozen = _bits([_frozen_energy(g, v, eps, P) for v in inputs])
        for s in (stack, np.asfortranarray(stack), np.ascontiguousarray(stack.T).T):
            before = s.copy()
            for k in range(len(inputs), 0, -1):  # the leading k fields, in the same buffers
                calls.clear()
                assert np.array_equal(_bits(energy_of(s[:k])), frozen[:k])
                assert calls == [(k,) + g.shape]
            assert np.array_equal(_bits(s), _bits(before))


@pytest.mark.parametrize("g", [g for g in KERNEL_GRIDS if g.kind == "torus"], ids=lambda g: "x".join(map(str, g.shape)))
def test_a_profile_stack_has_the_energies_of_its_extruded_fields(g):
    # a flow from a fibered field takes its energies on the circle of the
    # torus' axis 0: one p.w call on the profile stack, and each energy times
    # the fiber length within 1e-11 relative of the extruded field's; a
    # profile that is not finite has no finite energy, and one with an
    # infinite row reads inf where the extruded field reads NaN (its fiber
    # differences are inf - inf)
    calls = []

    def w(x):
        calls.append(x.shape)
        return P.w(x)

    p = from_callables(w, P.dw, P.d2w, "counted")
    n1 = g.shape[0]
    circle = circle_grid(n1, g.lengths[0])
    rng = np.random.default_rng(n1)
    profiles = [scale * rng.uniform(-1.0, 1.0, n1) for scale in (1e-3, 1.0, 1e3, 1e200)]
    profiles += [np.tanh(np.sin(g.axis(0)) / 0.2), np.zeros(n1), np.full(n1, -0.0)]
    for value in (np.inf, -np.inf, np.nan):
        profiles.append(profiles[1].copy())
        profiles[-1][n1 // 2] = value
    stack = np.stack(profiles)
    for eps in (0.05, 0.3):
        energy_of = energy_kernel(circle, eps, p, rows=len(profiles))
        with np.errstate(invalid="ignore", over="ignore"):
            full = np.array(energy_kernel(g, eps, P, rows=len(profiles))(np.stack([g.extrude(c) for c in profiles])))
            got = g.lengths[1] * np.array(energy_of(stack))
            for k in (len(profiles), 7, 1):
                calls.clear()
                assert np.array_equal(_bits(g.lengths[1] * np.array(energy_of(stack[:k]))), _bits(got[:k]))
                assert calls == [(k, n1)]
            finite = np.isfinite(full)
            assert np.all(np.abs(got - full)[finite] <= 1e-11 * np.abs(full)[finite])
        assert finite.sum() == 6
        assert np.isinf(full[3]) and np.isinf(got[3])  # W(1e200) overflows on both
        assert np.isnan(full[-3:]).all()
        assert np.array_equal(got[-3:], [np.inf, np.inf, np.nan], equal_nan=True)


@pytest.mark.parametrize("g", [circle_grid(512), torus_grid(256, 64), interval_grid(65, 1.0)], ids=lambda g: g.kind)
def test_a_kernel_and_its_buffers_go_with_its_last_reference(g):
    # no reference cycle: a flow's block-sized buffers are freed when the
    # flow returns, not when the cyclic collector next runs
    v = g.extrude(np.tanh(np.sin(g.axis(0))))
    kernels = [energy_kernel(g, 0.3, P, rows=4), residual_kernel(g, 0.3, P)]
    kernels[0](v[None])
    kernels[1](v)
    refs = [weakref.ref(k) for k in kernels]
    gc.disable()
    try:
        del kernels
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


@pytest.mark.parametrize("g", KERNEL_GRIDS, ids=lambda g: f"{g.kind}-{'x'.join(map(str, g.shape))}")
def test_a_residual_stack_has_the_residuals_of_its_fields_on_every_layout(g):
    # Newton's line search evaluates a batch of trials in one call: one
    # p.dw call on the stack, and each row the bits of its field's residual
    calls = []

    def dw(x):
        calls.append(x.shape)
        return P.dw(x)

    p = from_callables(P.w, dw, P.d2w, "counted")
    inputs = _kernel_inputs(g)
    stack = np.stack(inputs)
    for eps in (0.05, 0.3):
        residual = residual_kernel(g, eps, p)
        single = _bits([residual(v) for v in inputs])
        for s in (stack, np.asfortranarray(stack), np.ascontiguousarray(stack.T).T):
            before = s.copy()
            for k in range(len(inputs), 0, -1):
                calls.clear()
                assert np.array_equal(_bits(residual(s[:k])), single[:k])
                assert calls == [(k,) + g.shape]
            assert np.array_equal(_bits(s), _bits(before))
        # a stack call leaves the single-field work array usable
        assert np.array_equal(_bits(residual(inputs[0])), single[0])


def _frozen_dot_energies(grid, eps, p, vs):
    """The energy kernel's stack body as it ran before its sums were
    batched, frozen here: one np.dot per field and gradient axis, combined
    with the well sums in Python floats."""
    k = len(vs)
    well = np.empty(vs.shape)
    if not grid.periodic:
        d = np.subtract(vs[:, 1:], vs[:, :-1])
        sums = np.add.reduce(np.multiply(grid.weights(), p.w(vs), out=well), axis=1)
        return [0.5 * eps / grid.h * float(np.dot(r, r)) + float(s) / eps for r, s in zip(d, sums)]
    cell = math.prod(grid.spacings)
    c_axes = [0.5 * eps * (cell / hk) / hk for hk in grid.spacings]
    d = np.empty(vs.shape)
    flat = d.reshape(k, -1)
    fields._forward_differences(vs, d)
    grads = [c_axes[0] * float(np.dot(r, r)) for r in flat]
    if len(grid.shape) == 2:
        fields._forward_differences_last(vs, d)
        grads = [g + c_axes[1] * float(np.dot(r, r)) for g, r in zip(grads, flat)]
    sums = np.add.reduce(np.ascontiguousarray(p.w(vs)).reshape(k, -1), axis=1)
    return [g + cell / eps * float(s) for g, s in zip(grads, sums)]


@pytest.mark.parametrize(
    "g",
    [interval_grid(65, 1.0), interval_grid(257, 2.3), circle_grid(256), circle_grid(512), torus_grid(17, 20)],
    ids=lambda g: f"{g.kind}-{'x'.join(map(str, g.shape))}",
)
@pytest.mark.parametrize("k", [1, 2, 32, 64, 252])
def test_batched_energy_sums_match_the_per_field_dots(g, k):
    # the flow's block sizes: 252 states of the threshold's 65-point
    # interval, 64 of a 256-point circle, 32 of a 512-point one
    rng = np.random.default_rng(k * g.npoints)
    energy_of = energy_kernel(g, 0.2, P, rows=k)
    for scale in (1e-3, 1.2, 1e3):
        vs = scale * rng.uniform(-1.0, 1.0, (k,) + g.shape)
        got = energy_of(vs)
        assert all(type(e) is float for e in got)
        assert np.array_equal(_bits(got), _bits(_frozen_dot_energies(g, 0.2, P, vs)))


def _frozen_periodic_energy(grid, eps, p, v):
    """The periodic energy kernel's sums as the circle ran them before it
    got its own closure, frozen here: one wrapped difference into a buffer,
    the dot product of the raveled buffer, the well term summed in C order."""
    cell = math.prod(grid.spacings)
    du = np.empty(grid.shape)
    np.subtract(v[1:], v[:-1], out=du[:-1])
    du[-1] = v[0] - v[-1]
    flat = du.ravel()
    grad = 0.5 * eps * (cell / grid.h) / grid.h * float(np.dot(flat, flat))
    well = p.w(v)
    if not well.flags.c_contiguous:
        well = np.ascontiguousarray(well)
    return grad + cell / eps * float(well.sum())


@pytest.mark.parametrize("n", [16, 17, 256, 2048, 10007])
def test_circle_energy_kernel_matches_the_frozen_sums_bit_for_bit(n):
    g = circle_grid(n, 3.0)
    rng = np.random.default_rng(n)
    strided = np.empty(2 * n)[::2]
    strided[...] = rng.uniform(-1.2, 1.2, n)
    with_inf, with_nan = rng.uniform(-1.2, 1.2, (2, n))
    with_inf[5] = np.inf
    with_nan[-1] = np.nan
    inputs = [
        rng.uniform(-1.2, 1.2, n), 1e3 * rng.uniform(-1.0, 1.0, n), np.full(n, 0.7),
        np.zeros(n), np.full(n, -0.0), with_inf, with_nan, strided,
    ]
    for eps in (0.05, 0.3):
        energy_of = energy_kernel(g, eps, P)
        for v in inputs:
            before = v.copy()
            with np.errstate(invalid="ignore"):
                got, ref = energy_of(v[None])[0], _frozen_periodic_energy(g, eps, P, v)
            assert _bits(got) == _bits(ref)
            assert np.array_equal(_bits(v), _bits(before))


def test_laplacian_returns_new_arrays():
    # hessian_apply scales the array laplacian returns in place and keeps it
    g = torus_grid(17, 20)
    v = np.random.default_rng(3).uniform(-1.0, 1.0, g.shape)
    first = laplacian(g, v)
    kept = first.copy()
    second = laplacian(torus_grid(17, 20), 2.0 * v)
    assert first is not second
    assert np.array_equal(_bits(first), _bits(kept))
    assert np.array_equal(_bits(second), _bits(_frozen_laplacian(g, 2.0 * v)))


def test_residuals_are_new_arrays():
    g = circle_grid(64)
    residual = residual_kernel(g, 0.3, P)
    v = np.random.default_rng(0).uniform(-1.0, 1.0, 64)
    first = residual(v)
    kept = first.copy()
    second = residual(0.5 * v)
    assert first is not second
    assert np.array_equal(first, kept)


@pytest.mark.parametrize(
    "g",
    [interval_grid(65, 1.0), circle_grid(17, 3.0), torus_grid(17, 20)],
    ids=lambda g: g.kind,
)
@pytest.mark.parametrize("returns", ["input", "view"])
def test_kernels_never_write_into_what_a_potential_returns(g, returns):
    # a callable potential may hand back its argument, or a view of it; the
    # kernels must treat that array as read-only, since it is the field
    ident = (lambda x: x) if returns == "input" else (lambda x: x[...])
    p = from_callables(ident, ident, lambda x: np.ones_like(x), "identity")
    v = np.random.default_rng(5).uniform(-1.0, 1.0, g.shape)
    before = v.copy()
    e = energy_kernel(g, 0.3, p)(v[None])[0]
    r = residual_kernel(g, 0.3, p)(v)
    assert np.array_equal(_bits(v), _bits(before))
    assert _bits(e) == _bits(_frozen_energy(g, before, 0.3, p))
    assert np.array_equal(_bits(r), _bits(_frozen_gradient(g, before.copy(), 0.3, p)))
    f = Field(g, v, 0.3)
    energy(f, p)
    gradient(f, p)
    assert np.array_equal(_bits(f.values), _bits(before))
