import cmath
import math

import numpy as np
import pytest

from csquant.correlators import (
    _matrix_element,
    classical_limit_check,
    deviation_scaling_exponent,
    oracle_ratio,
    projected_ratios,
)
from csquant.fock import make_space
from csquant.projector import single_constraint
from reference import ho_hamiltonian, momentum_operator, phys_wavefunction, position_operator, projected_propagator


def test_wavefunction_single_real_peak_value():
    for m in (1, 3, 6):
        r = math.sqrt(m)
        val = phys_wavefunction("single", r, r, m)
        assert val == pytest.approx(math.exp(-m) * m**m / math.factorial(m), rel=1e-12)


def test_wavefunction_vacuum_orthogonal_to_excited():
    assert phys_wavefunction("single", 1.2, 0.0, 3) == 0.0
    assert phys_wavefunction("single", 0.0, 1.2, 3) == 0.0


@pytest.mark.parametrize("nmax", [30, 46])
def test_wavefunction_matches_truncated_matrix_element(nmax):
    m = 4
    a_ket, a_eval = 1.1 * cmath.exp(0.3j), 0.9 * cmath.exp(-0.8j)
    direct = projected_propagator(single_constraint(make_space(1, nmax), float(m)), a_eval, a_ket)
    assert phys_wavefunction("single", a_ket, a_eval, m) == pytest.approx(direct, rel=1e-10)


def test_wavefunction_double_closed_form_vs_sector_sum():
    m = 5
    a_k, b_k = 0.8 + 0.1j, 0.6 - 0.4j
    a_e, b_e = 0.5 - 0.2j, 1.0 + 0.3j
    got = phys_wavefunction("double", (a_k, b_k), (a_e, b_e), m)
    pref = math.exp(-0.5 * (abs(a_k) ** 2 + abs(b_k) ** 2 + abs(a_e) ** 2 + abs(b_e) ** 2))
    total = 0.0
    for n in range(m + 1):
        total += (
            (np.conj(a_e) * a_k) ** n
            * (np.conj(b_e) * b_k) ** (m - n)
            / (math.factorial(n) * math.factorial(m - n))
        )
    assert got == pytest.approx(pref * total, rel=1e-12)


def test_peak_scaled_magnitude_near_one_at_large_m():
    # sqrt(2 pi m) |wavefunction| is ~1 at the peak (Stirling)
    m = 50
    r = math.sqrt(m)
    assert math.sqrt(2 * math.pi * m) * abs(phys_wavefunction("single", r, r, m)) == pytest.approx(1.0, abs=0.05)
    rd = math.sqrt(m / 2.0)
    peak = phys_wavefunction("double", (rd, rd), (rd, rd), m)
    assert math.sqrt(2 * math.pi * m) * abs(peak) == pytest.approx(1.0, abs=0.05)


def _ratio(model, op, ket, ev, m, nmax):
    return projected_ratios(model, ket, [ev], m, nmax, (op,))[0, 0]


def test_h_correlation_ratio_exact():
    m = 6
    ratio = _ratio("single", "H", math.sqrt(m), math.sqrt(m) * cmath.exp(0.7j), m, 40)
    assert ratio == pytest.approx(m + 0.5, rel=1e-12)


def test_q_correlation_real_labels_reduces_to_sqrt_2m():
    m = 4
    assert _ratio("single", "Q", math.sqrt(m), math.sqrt(m), m, 40) == pytest.approx(math.sqrt(2.0 * m), rel=1e-12)
    assert oracle_ratio("single", "Q", math.sqrt(m), math.sqrt(m), m) == pytest.approx(math.sqrt(2.0 * m), rel=1e-12)


def test_projected_ratios_table_matches_one_point_calls():
    # one projected ket serves every evaluation point and operator
    m, ket = 5, 1.3 * cmath.exp(0.4j)
    evals = [1.0 * cmath.exp(-0.9j), 2.1, 0.7j]
    table = projected_ratios("single", ket, evals, m, 40, ("H", "Q", "P"))
    assert table.shape == (3, 3)
    for i, ev in enumerate(evals):
        for k, op in enumerate(("H", "Q", "P")):
            assert table[i, k] == _ratio("single", op, ket, ev, m, 40)
            assert table[i, k] == pytest.approx(oracle_ratio("single", op, ket, ev, m), rel=1e-10)


def test_projected_ratios_rejects_operator_of_other_model():
    with pytest.raises(ValueError, match="Q1"):
        projected_ratios("single", 1.0, [1.0], 2, 20, ("H", "Q1"))
    with pytest.raises(ValueError, match="model"):
        projected_ratios("triple", 1.0, [1.0], 2, 20, ("H",))


@pytest.mark.parametrize("nmax", [30, 44])
@pytest.mark.parametrize("op", ["Q", "P"])
def test_single_brackets_match_matrix_elements(op, nmax):
    m = 5
    a_ket = 1.3 * cmath.exp(0.4j)
    a_eval = 1.0 * cmath.exp(-0.9j)
    ratio = _ratio("single", op, a_ket, a_eval, m, nmax)
    assert ratio == pytest.approx(oracle_ratio("single", op, a_ket, a_eval, m), rel=1e-10)


@pytest.mark.parametrize("nmax", [14, 20])
@pytest.mark.parametrize("op", ["Q1", "P1", "Q2", "P2", "H"])
def test_double_brackets_match_matrix_elements(op, nmax):
    m = 4
    ket = (0.9 * cmath.exp(0.2j), 0.7 * cmath.exp(-0.5j))
    ev = (0.8 * cmath.exp(-0.3j), 1.0 * cmath.exp(0.6j))
    ratio = _ratio("double", op, ket, ev, m, nmax)
    assert ratio == pytest.approx(oracle_ratio("double", op, ket, ev, m), rel=1e-10)


def test_bracket_convention_pinned_by_matrix_elements():
    # the alternative bracket convention (unconjugated evaluation label,
    # doubled prefactor) disagrees with the matrix elements for any
    # non-real evaluation point; matrix elements settle the convention
    m = 3
    a_ket = 1.1
    a_eval = 1.1 * cmath.exp(0.8j)
    ratio = _ratio("single", "Q", a_ket, a_eval, m, 40)
    alt = math.sqrt(2.0) * (m / a_eval + a_eval)
    assert abs(ratio - oracle_ratio("single", "Q", a_ket, a_eval, m)) < 1e-10
    assert abs(ratio - alt) > 0.1


def test_null_projection_flags_correlation_undefined():
    with pytest.raises(ValueError, match="undefined"):
        _ratio("single", "Q", 0.0, 1.0, 2, 30)


def test_gauge_phase_factorization_invariance():
    m = 4
    a_ket = 1.2
    a_eval = 0.9 * cmath.exp(0.5j)
    base = _ratio("single", "Q", a_ket, a_eval, m, 40)
    for theta in (0.3, 1.4, 2.9):
        rot = _ratio("single", "Q", a_ket * cmath.exp(1j * theta), a_eval, m, 40)
        assert abs(rot) == pytest.approx(abs(base), rel=1e-12)


def test_peak_location_on_constraint_manifold():
    # |wavefunction| along an evaluation ray peaks where the label's energy meets the constraint
    double_unit = np.array([0.9, 1.1]) * cmath.exp(0.2j) / math.hypot(0.9, 1.1)
    for model, ket, unit, m in (
        ("single", math.sqrt(6), cmath.exp(0.4j), 6),
        ("double", (1.0, 1.0), double_unit, 4),
    ):
        peak = math.sqrt(m)
        mags = [
            abs(phys_wavefunction(model, ket, s * unit if model == "single" else tuple(s * unit), m))
            for s in (peak * (1 - 1e-3), peak, peak * (1 + 1e-3))
        ]
        assert mags[1] > mags[0] and mags[1] > mags[2]


@pytest.mark.parametrize("model", ["single", "double"])
def test_classical_limit_monotone_and_sqrt_m_scaling(model):
    rows = classical_limit_check(model)
    devs = [r.dev_abs for r in rows]
    assert devs[0] > devs[1] > devs[2]
    exponent = deviation_scaling_exponent(rows)
    assert -0.7 <= exponent <= -0.3
    assert max(r.h_ratio_error for r in rows) < 1e-10


def test_classical_limit_scaled_single_sweep():
    # band actions keep every m O(dim): nmax reaches ~18000 at m = 16384
    rows = classical_limit_check("single", (16, 64, 256, 1024, 4096, 16384))
    devs = [r.dev_abs for r in rows]
    assert all(a > b for a, b in zip(devs, devs[1:]))
    exponent = deviation_scaling_exponent(rows)
    assert -0.7 <= exponent <= -0.3
    assert max(r.h_ratio_error for r in rows) < 1e-10


@pytest.mark.parametrize("modes, ops", [(1, ("H", "Q", "P")), (2, ("H", "Q1", "P1", "Q2", "P2"))])
def test_band_matrix_elements_match_dense_operators(modes, ops):
    space = make_space(modes, 5)
    rng = np.random.default_rng(3)
    bra, ket = rng.standard_normal((2, space.dim)) + 1j * rng.standard_normal((2, space.dim))
    dense = {"H": sum(ho_hamiltonian(space, k) for k in range(modes))}
    for k in range(modes):
        suffix = str(k + 1) if modes == 2 else ""
        dense["Q" + suffix] = position_operator(space, k)
        dense["P" + suffix] = momentum_operator(space, k)
    for op in ops:
        expected = np.vdot(bra, dense[op] @ ket)
        assert abs(_matrix_element(space, op, bra, ket) - expected) < 1e-12 * abs(expected)


# The gauge-phase one-form and the clock-correlation width are closed-form
# claims that no experiment computes; the tests state them in plain numpy.


def _one_form(path, f):
    """(shift, closed, pdq): the telescoping sum of df, whether the path closes, trapezoid int p dq."""
    p_mid = 0.5 * (path[1:, 0] + path[:-1, 0])
    return float(np.sum(np.diff(f))), bool(np.max(np.abs(path[-1] - path[0])) < 1e-12), float(np.sum(p_mid * np.diff(path[:, 1])))


def _circle(theta):
    return np.stack([np.sin(theta), np.cos(theta)], axis=1)


def test_one_form_zero_phase():
    theta = np.linspace(0.0, 2.0 * math.pi, 101)
    shift, closed, _ = _one_form(_circle(theta), np.zeros_like(theta))
    assert shift == 0.0
    assert closed


def test_one_form_winding_phase_leaves_2pi_m():
    m = 3
    theta = np.linspace(0.0, 2.0 * math.pi, 401)
    shift, closed, pdq = _one_form(_circle(theta), m * theta)
    assert closed
    assert shift == pytest.approx(2.0 * math.pi * m, abs=1e-8)
    # the symplectic part of the one-form integrates to the enclosed area
    assert pdq == pytest.approx(-math.pi, abs=1e-3)


def test_one_form_open_path_endpoint_difference():
    theta = np.linspace(0.0, math.pi / 2.0, 101)
    shift, closed, _ = _one_form(_circle(theta), theta)
    assert not closed
    assert shift == pytest.approx(math.pi / 2.0, abs=1e-8)


def test_smooth_single_valued_phase_closed_path():
    theta = np.linspace(0.0, 2.0 * math.pi, 201)
    f = np.sin(3.0 * theta) + 0.5 * np.cos(theta)  # single-valued on the circle
    assert abs(_one_form(_circle(theta), f)[0]) < 1e-8


def _correlation_width(e1, e2):
    """Full width at half max in t of ((e1^2 + e2^2 + 2 e1 e2 cos t) / (e1 + e2)^2)^(e1 + e2)."""
    cos_half = (2.0 ** (-1.0 / (e1 + e2)) * (e1 + e2) ** 2 - e1**2 - e2**2) / (2.0 * e1 * e2)
    return 2.0 * math.pi if cos_half < -1.0 else 2.0 * math.acos(min(1.0, cos_half))


def test_correlation_width_shrinks_with_energy():
    widths = [_correlation_width(m / 2.0, m / 2.0) for m in (8, 32, 128)]
    assert widths[0] > widths[1] > widths[2]
    # asymmetric splits at fixed total: lopsided clocks correlate more loosely
    assert _correlation_width(1.0, 15.0) > _correlation_width(8.0, 8.0)
