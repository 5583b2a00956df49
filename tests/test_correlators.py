import cmath
import math

import numpy as np
import pytest

from csquant.correlators import classical_limit_check, deviation_scaling_exponent, oracle_ratio, sector_ratios
from csquant.fock import make_space
from csquant.projector import number_constraint
from reference import dense_ratios, phys_wavefunction, projected_propagator


def test_wavefunction_single_real_peak_value():
    for m in (1, 3, 6):
        r = math.sqrt(m)
        val = phys_wavefunction(r, r, m)
        assert val == pytest.approx(math.exp(-m) * m**m / math.factorial(m), rel=1e-12)


def test_wavefunction_vacuum_orthogonal_to_excited():
    assert phys_wavefunction(1.2, 0.0, 3) == 0.0
    assert phys_wavefunction(0.0, 1.2, 3) == 0.0


@pytest.mark.parametrize("nmax", [30, 46])
def test_wavefunction_matches_truncated_matrix_element(nmax):
    m = 4
    a_ket, a_eval = 1.1 * cmath.exp(0.3j), 0.9 * cmath.exp(-0.8j)
    direct = projected_propagator(number_constraint(make_space(1, nmax), float(m)), a_eval, a_ket)
    assert phys_wavefunction(a_ket, a_eval, m) == pytest.approx(direct, rel=1e-10)


def test_wavefunction_double_closed_form_vs_sector_sum():
    m = 5
    a_k, b_k = 0.8 + 0.1j, 0.6 - 0.4j
    a_e, b_e = 0.5 - 0.2j, 1.0 + 0.3j
    got = phys_wavefunction((a_k, b_k), (a_e, b_e), m)
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
    assert math.sqrt(2 * math.pi * m) * abs(phys_wavefunction(r, r, m)) == pytest.approx(1.0, abs=0.05)
    rd = math.sqrt(m / 2.0)
    peak = phys_wavefunction((rd, rd), (rd, rd), m)
    assert math.sqrt(2 * math.pi * m) * abs(peak) == pytest.approx(1.0, abs=0.05)


def _ratio(op, ket, ev, m):
    return sector_ratios(ket, [ev], m)[0, "HQP".index(op)]


def test_h_correlation_ratio_exact():
    m = 6
    ratio = _ratio("H", math.sqrt(m), math.sqrt(m) * cmath.exp(0.7j), m)
    assert ratio == pytest.approx(m + 0.5, rel=1e-12)


def test_q_correlation_real_labels_reduces_to_sqrt_2m():
    m = 4
    assert _ratio("Q", math.sqrt(m), math.sqrt(m), m) == pytest.approx(math.sqrt(2.0 * m), rel=1e-12)
    assert oracle_ratio("Q", math.sqrt(m), math.sqrt(m), m) == pytest.approx(math.sqrt(2.0 * m), rel=1e-12)


@pytest.mark.parametrize("modes", [1, 2])
def test_sector_ratios_match_dense_full_space(modes):
    # the sector sums against dense H, Q, P on the whole truncated space, projected by the projector weights
    rng = np.random.default_rng(3)
    labels = rng.uniform(0.5, 1.2, (4, modes)) * np.exp(2j * math.pi * rng.uniform(size=(4, modes)))
    for m in (0, 1, 4, 7):
        got = sector_ratios(labels[0], labels[1:], m)
        want = dense_ratios(labels[0], labels[1:], m, 24 if modes == 1 else 14)
        assert got.shape == (3, 3)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_projected_ratios_table_matches_one_point_calls():
    # one projected ket serves every evaluation point and operator
    m, ket = 5, 1.3 * cmath.exp(0.4j)
    evals = [1.0 * cmath.exp(-0.9j), 2.1, 0.7j]
    table = sector_ratios(ket, evals, m)
    assert table.shape == (3, 3)
    for i, ev in enumerate(evals):
        for k, op in enumerate(("H", "Q", "P")):
            assert table[i, k] == _ratio(op, ket, ev, m)
            assert table[i, k] == pytest.approx(oracle_ratio(op, ket, ev, m), rel=1e-10)


@pytest.mark.parametrize("nmax", [30, 44])
@pytest.mark.parametrize("op", ["Q", "P"])
def test_single_brackets_match_matrix_elements(op, nmax):
    # the closed form against dense matrix elements at two cutoffs, and against the sector sum
    m = 5
    a_ket = 1.3 * cmath.exp(0.4j)
    a_eval = 1.0 * cmath.exp(-0.9j)
    oracle = oracle_ratio(op, a_ket, a_eval, m)
    assert dense_ratios(a_ket, [a_eval], m, nmax)[0, "HQP".index(op)] == pytest.approx(oracle, rel=1e-10)
    assert _ratio(op, a_ket, a_eval, m) == pytest.approx(oracle, rel=1e-10)


@pytest.mark.parametrize("nmax", [14, 20])
@pytest.mark.parametrize("op", ["Q1", "P1", "Q2", "P2", "H"])
def test_double_brackets_match_matrix_elements(op, nmax):
    m = 4
    ket = (0.9 * cmath.exp(0.2j), 0.7 * cmath.exp(-0.5j))
    ev = (0.8 * cmath.exp(-0.3j), 1.0 * cmath.exp(0.6j))
    oracle = oracle_ratio(op, ket, ev, m)
    if op[1:] == "2":  # mode 1's Q and P are mode 0's with the two modes' labels swapped
        ket, ev = ket[::-1], ev[::-1]
    column = "HQP".index(op[0])
    assert dense_ratios(ket, [ev], m, nmax)[0, column] == pytest.approx(oracle, rel=1e-10)
    assert sector_ratios(ket, [ev], m)[0, column] == pytest.approx(oracle, rel=1e-10)


def test_bracket_convention_pinned_by_matrix_elements():
    # the alternative bracket convention (unconjugated evaluation label,
    # doubled prefactor) disagrees with the matrix elements for any
    # non-real evaluation point; matrix elements settle the convention
    m = 3
    a_ket = 1.1
    a_eval = 1.1 * cmath.exp(0.8j)
    ratio = _ratio("Q", a_ket, a_eval, m)
    alt = math.sqrt(2.0) * (m / a_eval + a_eval)
    assert abs(ratio - oracle_ratio("Q", a_ket, a_eval, m)) < 1e-10
    assert abs(ratio - alt) > 0.1


def test_null_projection_flags_correlation_undefined():
    with pytest.raises(ValueError, match="undefined"):
        _ratio("Q", 0.0, 1.0, 2)


@pytest.mark.parametrize("m, phi", [(100, 1.0), (1000, 1.0), (4000, 0.3), (10_000, 0.3)])
def test_cancelling_overlap_flags_correlation_undefined(m, phi):
    # the modes' phases differ, so the sector sum oscillates: eps x its condition number reads
    # ~1e-10 at m = 100 and ~1-10 beyond, where the roundoff outweighs the closed-form overlap
    r = math.sqrt(m / 2)
    with pytest.raises(ValueError, match="undefined"):
        sector_ratios((r, r), [(r * cmath.exp(1j * phi), r)], m)
    # the same phase on both modes gives every term that phase: no cancellation, and no raise
    aligned = sector_ratios((r, r), [(r * cmath.exp(1j * phi),) * 2], m)
    assert aligned[0, 0] == pytest.approx(m + 1.0, rel=1e-12)


def test_gauge_phase_factorization_invariance():
    m = 4
    a_ket = 1.2
    a_eval = 0.9 * cmath.exp(0.5j)
    base = _ratio("Q", a_ket, a_eval, m)
    for theta in (0.3, 1.4, 2.9):
        rot = _ratio("Q", a_ket * cmath.exp(1j * theta), a_eval, m)
        assert abs(rot) == pytest.approx(abs(base), rel=1e-12)


def test_peak_location_on_constraint_manifold():
    # |wavefunction| along an evaluation ray peaks where the label's energy meets the constraint
    double_unit = np.array([0.9, 1.1]) * cmath.exp(0.2j) / math.hypot(0.9, 1.1)
    for ket, unit, m in (
        (math.sqrt(6), cmath.exp(0.4j), 6),
        ((1.0, 1.0), double_unit, 4),
    ):
        peak = math.sqrt(m)
        mags = [
            abs(phys_wavefunction(ket, s * unit, m))
            for s in (peak * (1 - 1e-3), peak, peak * (1 + 1e-3))
        ]
        assert mags[1] > mags[0] and mags[1] > mags[2]


@pytest.mark.parametrize("modes", [1, 2], ids=["single", "double"])
def test_classical_limit_monotone_and_sqrt_m_scaling(modes):
    rows = classical_limit_check(modes, (4, 16, 64))
    devs = [r.dev_abs for r in rows]
    assert devs[0] > devs[1] > devs[2]
    exponent = deviation_scaling_exponent(rows)
    assert -0.7 <= exponent <= -0.3
    assert max(r.h_ratio_error for r in rows) < 1e-10


def test_classical_limit_scaled_single_sweep():
    # one mode's sector is one state, so each m costs O(1), with no truncated space
    rows = classical_limit_check(1, (16, 64, 256, 1024, 4096, 16384))
    devs = [r.dev_abs for r in rows]
    assert all(a > b for a, b in zip(devs, devs[1:]))
    exponent = deviation_scaling_exponent(rows)
    assert -0.7 <= exponent <= -0.3
    assert max(r.h_ratio_error for r in rows) < 1e-10


@pytest.mark.parametrize("modes", [1, 2], ids=["single", "double"])
def test_classical_limit_deviation_is_the_zero_point_shift(modes):
    # dev_abs is sqrt(2E/k) - sqrt(2m/k), E = m + k/2: the orbit amplitude's zero-point shift,
    # written without cancellation as 1 / (sqrt(2E/k) + sqrt(2m/k)), since (2E - 2m)/k = 1
    m_values = list(range(1, 65)) + [10**2, 10**3, 10**4, 10**5, 10**6 - 1, 10**6]
    for row in classical_limit_check(modes, m_values):
        want = 1.0 / (math.sqrt(2 * (row.m + 0.5 * modes) / modes) + math.sqrt(2 * row.m / modes))
        assert abs(row.dev_abs - want) <= 1e-8 * want


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
