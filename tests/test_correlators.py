import cmath
import math

import numpy as np
import pytest

from csquant import fock
from csquant.correlators import (
    _matrix_element,
    classical_limit_check,
    correlation,
    correlation_width,
    deviation_scaling_exponent,
    gauge_phase_one_form_check,
    peak_scaled_magnitude,
    phys_wavefunction,
)
from csquant.coherent import CoherentLabel
from csquant.fock import make_space
from csquant.projector import ProjectorSpec, projected_propagator, single_constraint


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
    spec = ProjectorSpec(single_constraint(make_space(1, nmax), float(m)), epsilon=0.1)
    direct = projected_propagator(
        spec, CoherentLabel.from_alpha(a_eval), CoherentLabel.from_alpha(a_ket)
    ).value
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
    m = 50
    r = math.sqrt(m)
    assert peak_scaled_magnitude("single", r, r, m) == pytest.approx(1.0, abs=0.05)
    rd = math.sqrt(m / 2.0)
    assert peak_scaled_magnitude("double", (rd, rd), (rd, rd), m) == pytest.approx(1.0, abs=0.05)


def test_h_correlation_ratio_exact():
    m = 6
    rep = correlation("single", "H", math.sqrt(m), math.sqrt(m) * cmath.exp(0.7j), m, 40)
    assert rep.ratio_to_overlap == pytest.approx(m + 0.5, rel=1e-12)


def test_q_correlation_real_labels_reduces_to_sqrt_2m():
    m = 4
    rep = correlation("single", "Q", math.sqrt(m), math.sqrt(m), m, 40)
    assert rep.ratio_to_overlap == pytest.approx(math.sqrt(2.0 * m), rel=1e-12)
    assert rep.oracle == pytest.approx(math.sqrt(2.0 * m), rel=1e-12)


@pytest.mark.parametrize("nmax", [30, 44])
@pytest.mark.parametrize("op", ["Q", "P"])
def test_single_brackets_match_matrix_elements(op, nmax):
    m = 5
    a_ket = 1.3 * cmath.exp(0.4j)
    a_eval = 1.0 * cmath.exp(-0.9j)
    rep = correlation("single", op, a_ket, a_eval, m, nmax)
    assert rep.ratio_to_overlap == pytest.approx(rep.oracle, rel=1e-10)


@pytest.mark.parametrize("nmax", [14, 20])
@pytest.mark.parametrize("op", ["Q1", "P1", "Q2", "P2", "H"])
def test_double_brackets_match_matrix_elements(op, nmax):
    m = 4
    ket = (0.9 * cmath.exp(0.2j), 0.7 * cmath.exp(-0.5j))
    ev = (0.8 * cmath.exp(-0.3j), 1.0 * cmath.exp(0.6j))
    rep = correlation("double", op, ket, ev, m, nmax)
    assert rep.ratio_to_overlap == pytest.approx(rep.oracle, rel=1e-10)


def test_bracket_convention_pinned_by_matrix_elements():
    # the alternative bracket convention (unconjugated evaluation label,
    # doubled prefactor) disagrees with the matrix elements for any
    # non-real evaluation point; matrix elements settle the convention
    m = 3
    a_ket = 1.1
    a_eval = 1.1 * cmath.exp(0.8j)
    rep = correlation("single", "Q", a_ket, a_eval, m, 40)
    alt = math.sqrt(2.0) * (m / a_eval + a_eval)
    assert abs(rep.ratio_to_overlap - rep.oracle) < 1e-10
    assert abs(rep.ratio_to_overlap - alt) > 0.1


def test_null_projection_flags_correlation_undefined():
    rep = correlation("single", "Q", 0.0, 1.0, 2, 30)
    assert rep.undefined
    assert rep.ratio_to_overlap is None


def test_gauge_phase_factorization_invariance():
    m = 4
    a_ket = 1.2
    a_eval = 0.9 * cmath.exp(0.5j)
    base = correlation("single", "Q", a_ket, a_eval, m, 40)
    for theta in (0.3, 1.4, 2.9):
        rot = correlation("single", "Q", a_ket * cmath.exp(1j * theta), a_eval, m, 40)
        assert abs(rot.ratio_to_overlap) == pytest.approx(
            abs(base.ratio_to_overlap), rel=1e-12
        )


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
    omega, hbar = 1.3, 0.7
    dense = {"H": sum(fock.ho_hamiltonian(space, k, omega, hbar).mat for k in range(modes))}
    for k in range(modes):
        suffix = str(k + 1) if modes == 2 else ""
        dense["Q" + suffix] = fock.position_operator(space, k, omega, hbar).mat
        dense["P" + suffix] = fock.momentum_operator(space, k, omega, hbar).mat
    for op in ops:
        expected = np.vdot(bra, dense[op] @ ket)
        assert abs(_matrix_element(space, op, bra, ket, omega, hbar) - expected) < 1e-12 * abs(expected)


def test_one_form_zero_phase():
    theta = np.linspace(0.0, 2.0 * math.pi, 101)
    path = np.stack([np.sin(theta), np.cos(theta)], axis=1)
    rep = gauge_phase_one_form_check(path, np.zeros_like(theta))
    assert rep.shift == 0.0
    assert rep.closed


def test_one_form_winding_phase_leaves_2pi_m():
    m = 3
    theta = np.linspace(0.0, 2.0 * math.pi, 401)
    path = np.stack([np.sin(theta), np.cos(theta)], axis=1)
    rep = gauge_phase_one_form_check(path, m * theta)
    assert rep.closed
    assert rep.shift == pytest.approx(2.0 * math.pi * m, abs=1e-8)
    # the symplectic part of the one-form integrates to the enclosed area
    assert rep.pdq == pytest.approx(-math.pi, abs=1e-3)


def test_one_form_open_path_endpoint_difference():
    theta = np.linspace(0.0, math.pi / 2.0, 101)
    path = np.stack([np.sin(theta), np.cos(theta)], axis=1)
    rep = gauge_phase_one_form_check(path, theta)
    assert not rep.closed
    assert rep.shift == pytest.approx(math.pi / 2.0, abs=1e-8)


def test_smooth_single_valued_phase_closed_path():
    theta = np.linspace(0.0, 2.0 * math.pi, 201)
    path = np.stack([np.sin(theta), np.cos(theta)], axis=1)
    f = np.sin(3.0 * theta) + 0.5 * np.cos(theta)  # single-valued on the circle
    rep = gauge_phase_one_form_check(path, f)
    assert abs(rep.shift) < 1e-8


def test_correlation_width_shrinks_with_energy():
    widths = [correlation_width(m / 2.0, m / 2.0) for m in (8, 32, 128)]
    assert widths[0] > widths[1] > widths[2]
    # asymmetric splits at fixed total: lopsided clocks correlate more loosely
    assert correlation_width(1.0, 15.0) > correlation_width(8.0, 8.0)
