import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from phaselab import potentials


@pytest.fixture(scope="module")
def quartic():
    return potentials.quartic()


def octic():
    # (1 - x^2)^4 / 4 has degenerate wells: W''(+-1) = 0 (by hand:
    # W'' = -2(1-x^2)^3 + 12 x^2 (1-x^2)^2 vanishes at x = +-1)
    def w(x):
        q = 1.0 - x * x
        return 0.25 * q**4

    def dw(x):
        return -2.0 * x * (1.0 - x * x) ** 3

    def d2w(x):
        q = 1.0 - x * x
        return -2.0 * q**3 + 12.0 * x * x * q**2

    return potentials.from_callables(w, dw, d2w, "flat_wells")


def parabola():
    return potentials.from_callables(
        lambda x: x * x, lambda x: 2.0 * x, lambda x: 2.0 + 0.0 * x, "single_well"
    )


def test_quartic_well_values(quartic):
    assert quartic.w(1.0) == 0.0
    assert quartic.w(-1.0) == 0.0
    assert quartic.w(0.0) == 0.25
    assert quartic.dw(1.0) == 0.0
    assert quartic.dw(-1.0) == 0.0
    assert quartic.d2w(1.0) == 2.0


def test_from_callables_keeps_the_evaluators_it_was_given():
    def w(x):
        return x * x

    def dw(x):
        return 2.0 * x

    def d2w(x):
        return 2.0 + 0.0 * x

    p = potentials.from_callables(w, dw, d2w)
    assert p.w is w and p.dw is dw and p.d2w is d2w


def test_scalar_call_sites_give_the_bits_of_0d_arrays(quartic):
    # W(+-1), W''(0) and W''(+-1) are read at Python floats: they must be
    # the values the evaluators give on 0-d float64 arrays
    table = potentials.from_table([[float(x), float(quartic.w(x))] for x in np.linspace(-2, 2, 41)])
    for p in (quartic, table):
        for f in (p.w, p.dw, p.d2w):
            for x in (0.0, 1.0, -1.0):
                assert np.float64(f(x)).tobytes() == np.float64(f(np.asarray(x))).tobytes()


def test_quartic_passes_all_axioms(quartic):
    report = potentials.check_double_well(quartic, 10_000)
    assert report.passed
    assert [c.axiom for c in report.checks] == [1, 2, 3, 4]


def test_single_well_fails_nonnegativity_with_witness_at_one():
    report = potentials.check_double_well(parabola())
    assert not report.passed
    assert 1 in report.failed_axioms()
    check = next(c for c in report.checks if c.axiom == 1)
    assert check.witness == pytest.approx(1.0, abs=1e-9)


def test_negative_w_fails_nonnegativity_with_witness_where_w_is_negative():
    # the quartic lowered by 0.01 dips below zero for 0.8 < x^2 < 1.2
    lowered = potentials.from_callables(
        lambda x: 0.25 * (1.0 - x * x) ** 2 - 0.01, lambda x: x * (x * x - 1.0),
        lambda x: 3.0 * x * x - 1.0, "lowered",
    )
    check = potentials.check_double_well(lowered).checks[0]
    assert not check.passed
    assert -1.1 < check.witness < -1.09 and float(lowered.w(check.witness)) < 0.0
    assert check.detail.startswith(f"W({check.witness:.6g}) = -") and check.detail.endswith("< 0")


def test_w_vanishing_away_from_the_wells_fails_with_its_zero_as_witness():
    # x^2 (1 - x^2)^2 / 4 vanishes at 0 too, a sample point of 101 on [-2, 2]
    third_zero = potentials.from_callables(
        lambda x: 0.25 * x * x * (1.0 - x * x) ** 2, lambda x: x, lambda x: 2.0 + 0.0 * x, "third_zero"
    )
    check = potentials.check_double_well(third_zero, 101).checks[0]
    assert not check.passed
    assert check.witness == 0.0
    assert check.detail == "W vanishes at 0, away from the wells"


def test_flat_wells_fail_curvature_axiom_only_there():
    report = potentials.check_double_well(octic())
    assert report.failed_axioms() == [3]


def test_evenness_on_dense_sample(quartic):
    x = np.linspace(-2, 2, 5001)
    assert np.max(np.abs(quartic.w(x) - quartic.w(-x))) <= 1e-12


def test_derivative_consistency_second_order(quartic):
    x = np.linspace(-2, 2, 401)
    errs = []
    for h in (1e-3, 1e-4):
        fd = (quartic.w(x + h) - quartic.w(x - h)) / (2 * h)
        errs.append(np.max(np.abs(fd - quartic.dw(x))))
    order = np.log10(errs[0] / errs[1])
    assert order >= 1.9


def test_table_potential_from_quartic_samples_passes(quartic):
    xs = np.linspace(-2, 2, 2001)
    table = [[float(x), float(quartic.w(x))] for x in xs]
    p = potentials.from_table(table)
    # spline reproduces the quartic well inside the sample range
    probe = np.linspace(-1.5, 1.5, 501)
    assert np.max(np.abs(p.w(probe) - quartic.w(probe))) < 1e-8
    report = potentials.check_double_well(p)
    assert report.passed


def test_table_potential_from_single_well_fails():
    xs = np.linspace(-2, 2, 2001)
    table = [[float(x), float(x * x)] for x in xs]
    p = potentials.from_table(table)
    report = potentials.check_double_well(p)
    assert 1 in report.failed_axioms()


def test_table_potential_needs_eight_distinct_abscissae():
    with pytest.raises(ValueError, match="at least 8 points"):
        potentials.from_table([[x, x * x] for x in range(7)])
    with pytest.raises(ValueError, match="strictly increasing"):
        potentials.from_table([[x, x * x] for x in range(8)] + [[3.0, 1.0]])


def test_make_potential_roundtrip(quartic):
    p = potentials.make_potential({"kind": "quartic"})
    assert p.describe() == {"kind": "quartic"}
    with pytest.raises(ValueError):
        potentials.make_potential({"kind": "sombrero"})


def test_sample_count_validation(quartic):
    with pytest.raises(ValueError):
        potentials.check_double_well(quartic, 50)


def test_interface_energy_constant(quartic):
    # independent closed form for the quartic: integral of (1-u^2)/sqrt(2)
    assert potentials.interface_energy(quartic) == pytest.approx(2.0 * np.sqrt(2.0) / 3.0, abs=1e-9)


def test_import_does_not_load_scipy_interpolate():
    # only table potentials use it; from_table imports it on first use
    src = Path(potentials.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = "import sys, phaselab; sys.exit(int('scipy.interpolate' in sys.modules))"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
