import cmath
import math

import numpy as np
import pytest
from scipy import special

from csquant import _kernels
from csquant.coherent import (
    CoherentLabel,
    coherent_vector,
    kernel_composition_residual,
    overlap_alpha,
    overlap_analytic,
    polar_disc_grid,
    reproducing_propagation,
    resolution_of_unity_check,
)
from csquant.fock import make_space


def test_label_alpha_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(25):
        p, q = rng.uniform(-3, 3, size=2)
        omega = rng.uniform(0.3, 2.5)
        hbar = rng.uniform(0.3, 2.5)
        lab = CoherentLabel(p=p, q=q, omega=omega, hbar=hbar)
        back = CoherentLabel.from_alpha(lab.alpha, omega=omega, hbar=hbar)
        assert back.p == pytest.approx(p, rel=1e-12, abs=1e-12)
        assert back.q == pytest.approx(q, rel=1e-12, abs=1e-12)


def test_vacuum_coherent_state():
    s = make_space(1, 8)
    v = coherent_vector(s, 0.0)
    expected = np.zeros(9, dtype=complex)
    expected[0] = 1.0
    assert np.array_equal(v.amps, expected)


def test_coherent_normalization_within_leakage():
    s = make_space(1, 40)
    v = coherent_vector(s, 1.7 - 0.4j)
    assert v.norm() == pytest.approx(1.0, abs=1e-10)


def test_amplitudes_match_series_terms():
    # brute-force series term, independently of the log-space evaluation
    alpha = 1.0 + 0.5j
    s = make_space(1, 30)
    v = coherent_vector(s, alpha)
    pref = math.exp(-0.5 * abs(alpha) ** 2)
    for n in range(31):
        term = pref * alpha**n / math.sqrt(math.factorial(n))
        assert v.amps[n] == pytest.approx(term, rel=1e-12, abs=1e-15)


def test_leakage_hard_error_and_warning():
    s = make_space(1, 6)
    with pytest.raises(ValueError):
        coherent_vector(s, 2.5)
    with pytest.warns(UserWarning):
        coherent_vector(s, 0.5)  # tail ~1e-8: inside the warn band, below the error bar


def test_overlap_identity_case():
    lab = CoherentLabel(p=0.4, q=-1.2)
    assert overlap_analytic(lab, lab).value == 1.0


def test_overlap_printed_magnitude():
    l1 = CoherentLabel(p=0.0, q=0.0)
    l2 = CoherentLabel(p=0.0, q=2.0)
    assert overlap_analytic(l1, l2).magnitude == pytest.approx(math.exp(-1.0), rel=1e-12)


@pytest.mark.parametrize("omega,hbar", [(1.0, 1.0), (2.0, 0.5)])
def test_overlap_matches_truncated_inner_product(omega, hbar):
    s = make_space(1, 40)
    rng = np.random.default_rng(3)
    for _ in range(12):
        a1 = rng.uniform(0, 2) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        a2 = rng.uniform(0, 2) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        l1 = CoherentLabel.from_alpha(a1, omega=omega, hbar=hbar)
        l2 = CoherentLabel.from_alpha(a2, omega=omega, hbar=hbar)
        v1 = coherent_vector(s, a1)
        v2 = coherent_vector(s, a2)
        assert abs(overlap_analytic(l1, l2).value - v1.inner(v2)) < 1e-10


def test_overlap_requires_matching_units():
    with pytest.raises(ValueError):
        overlap_analytic(CoherentLabel(0, 0, omega=1.0), CoherentLabel(0, 0, omega=2.0))


def test_overlap_bound_symmetry_and_gaussian_factorization():
    rng = np.random.default_rng(5)
    for _ in range(30):
        l1 = CoherentLabel(p=rng.uniform(-2, 2), q=rng.uniform(-2, 2))
        l2 = CoherentLabel(p=rng.uniform(-2, 2), q=rng.uniform(-2, 2))
        k12 = overlap_analytic(l1, l2)
        k21 = overlap_analytic(l2, l1)
        assert k12.magnitude <= 1.0 + 1e-15
        assert k12.value == pytest.approx(np.conj(k21.value), rel=1e-12)
        gauss = math.exp(-((l1.p - l2.p) ** 2 + (l1.q - l2.q) ** 2) / 2.0)
        assert k12.magnitude**2 == pytest.approx(gauss, rel=1e-12)
    # equality iff equal labels
    assert overlap_analytic(l1, l1).magnitude == 1.0
    if (l1.p, l1.q) != (l2.p, l2.q):
        assert overlap_analytic(l1, l2).magnitude < 1.0


def test_grid_density_guard():
    with pytest.raises(ValueError):
        polar_disc_grid(8.0, 8, 8)


def test_resolution_large_radius_block():
    s = make_space(1, 40)
    report = resolution_of_unity_check(s, 8.0)
    assert report.n_keep >= 20
    assert abs(report.matrix[0, 0] - 1.0) < 1e-6
    assert report.max_residual_block < 1e-6
    assert report.max_offdiag < 1e-8  # angular symmetry kills the phases


def test_resolution_refuses_radial_block_over_budget(monkeypatch):
    # radius 2000 at nmax 40 needs a 1,024,000 x 41 complex block (~670 MB)
    def never(*args):
        raise AssertionError("the amplitude block was built")

    monkeypatch.setattr(_kernels, "coherent_amp_matrix", never)
    with pytest.raises(ValueError, match="MiB"):
        resolution_of_unity_check(make_space(1, 40), 2000.0)


def test_resolution_finite_radius_diagonal_is_incomplete_gamma():
    s = make_space(1, 12)
    report = resolution_of_unity_check(s, 2.0, n_radial=2048, n_angular=128)
    diag = np.real(np.diag(report.matrix))
    expected = special.gammainc(np.arange(13) + 1, 4.0)
    assert np.max(np.abs(diag - expected)) < 1e-6


def test_resolution_separable_gram_matches_dense_closure_sum():
    # same polar rule summed node by node: (1/pi) sum_k w_k |a_k><a_k|
    s = make_space(1, 12)
    report = resolution_of_unity_check(s, 2.0)
    grid = polar_disc_grid(2.0, 1024, 96)  # the check's default node counts at nmax=12, radius 2
    vecs = _kernels.coherent_amp_matrix(grid.alphas, 12)
    dense = (vecs.T * (grid.weights / math.pi)) @ vecs.conj()
    assert np.max(np.abs(report.matrix - dense)) <= 1e-13
    assert report.max_offdiag > 0.0  # off-diagonals come from numeric angular sums


def test_resolution_quadrature_second_order_convergence():
    s = make_space(1, 12)
    coarse = resolution_of_unity_check(s, 5.0, n_radial=100, n_angular=128)
    fine = resolution_of_unity_check(s, 5.0, n_radial=200, n_angular=128)
    assert coarse.max_residual_block / fine.max_residual_block >= 4.0


def test_reproducing_propagation_vacuum_and_coherent():
    s = make_space(1, 30)
    grid = polar_disc_grid(6.0, 1024, 256)
    probes = np.array([0.2 + 0.1j, -0.8j, 1.1, 0.5 - 0.5j, -0.3 + 0.9j])
    vac = coherent_vector(s, 0.0)
    rep = reproducing_propagation(s, vac, grid, probes)
    # <a|0> = exp(-|a|^2 / 2)
    assert np.max(np.abs(rep.direct - np.exp(-0.5 * np.abs(probes) ** 2))) < 1e-12
    assert rep.max_error < 1e-5

    a0 = 0.7 + 0.2j
    rep2 = reproducing_propagation(s, coherent_vector(s, a0), grid, probes)
    expected = np.array([overlap_alpha(a, a0) for a in probes])
    assert np.max(np.abs(rep2.direct - expected)) < 1e-10
    assert rep2.max_error < 1e-5


def test_kernel_composition_semigroup():
    grid = polar_disc_grid(6.0, 1024, 256)
    assert kernel_composition_residual(grid, 0.4 + 0.3j, -0.2 + 0.6j) < 1e-5
