import cmath
import json
import math

import numpy as np
import pytest
from scipy import special
from scipy.linalg import expm

from csquant import cli, fock
from csquant.coherent import coherent_vector
from csquant.fock import make_space
from csquant.projector import (
    SIN_KERNEL_TOL,
    _sine_integral,
    build_projector,
    default_lam_max,
    number_constraint,
    sin_kernel_weights,
)
from csquant.spin import sector_indices, su2_coherent
from reference import (
    basis_vector,
    index,
    ho_hamiltonian,
    ladder,
    position_operator,
    projected_propagator,
    projector_identities,
    sin_kernel_residual,
)


def test_spectral_table_selects_single_level():
    s = make_space(1, 10)
    weights = build_projector(number_constraint(s, 3.0), epsilon=0.1)
    expected = np.zeros(11)
    expected[3] = 1.0
    assert np.array_equal(weights, expected)


def test_spectral_table_null_for_half_integer():
    s = make_space(1, 10)
    weights = build_projector(number_constraint(s, 0.5), epsilon=0.1)
    assert np.max(np.abs(weights)) == 0.0


def test_spectral_boundary_case_weight_half():
    s = make_space(1, 4)
    weights = build_projector(number_constraint(s, 2.25), epsilon=0.25)
    assert weights[2] == pytest.approx(0.5)
    assert weights[3] == 0.0


def test_epsilon_validation(tmp_path, capsys):
    # epsilon is checked where it enters, by `csquant run`: from 1/2 on the window holds two levels;
    # wiener's floor keeps every level at least 1e-3 from the window's edges, where default_lam_max divides
    for epsilon in (0.6, 0.0, 5e-4):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "wiener", "epsilon": epsilon}))
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "never")]) == 3
        assert "config field 'epsilon'" in capsys.readouterr().err


def _sin_kernel_oracle(constraint, epsilon):
    eigs = constraint.eigensystem()
    return sin_kernel_weights(eigs, epsilon)


def test_sin_kernel_matches_spectral():
    s = make_space(1, 6)
    constraint = number_constraint(s, 2.0)
    weights = _sin_kernel_oracle(constraint, 0.1)
    expected = np.zeros(7)
    expected[2] = 1.0
    assert np.max(np.abs(weights - expected)) < 1e-4
    assert sin_kernel_residual(constraint, 0.1) < 1e-4


@pytest.mark.parametrize("nmax", [20, 40])
def test_project_coherent_single_closed_form(nmax):
    s = make_space(1, nmax)
    projected = build_projector(number_constraint(s, 0.0), epsilon=0.1) * coherent_vector(s, 1.0)
    assert np.linalg.norm(projected) == pytest.approx(math.exp(-0.5), rel=1e-12)
    expected = np.zeros(nmax + 1, dtype=complex)
    expected[0] = math.exp(-0.5)
    assert np.max(np.abs(projected - expected)) < 1e-12


def test_project_eigenvector_unchanged():
    s = make_space(1, 8)
    projected = build_projector(number_constraint(s, 5.0), epsilon=0.1) * basis_vector(s, (5,))
    assert np.array_equal(projected, basis_vector(s, (5,)))
    assert np.linalg.norm(projected) == 1.0


def test_project_double_sector_term_by_term():
    s = make_space(2, 12)
    mprime = 4
    alpha, beta = 0.8 + 0.2j, 0.5 - 0.7j
    projected = build_projector(number_constraint(s, float(mprime)), epsilon=0.1) * coherent_vector(s, [alpha, beta])
    pref = math.exp(-0.5 * (abs(alpha) ** 2 + abs(beta) ** 2))
    expected = np.zeros(s.dim, dtype=complex)
    for n in range(mprime + 1):
        expected[index(s, (n, mprime - n))] = (
            pref
            * alpha**n
            * beta ** (mprime - n)
            / math.sqrt(math.factorial(n) * math.factorial(mprime - n))
        )
    assert np.max(np.abs(projected - expected)) < 1e-14


def test_project_null_outcome():
    s = make_space(1, 16)
    projected = build_projector(number_constraint(s, 0.5), epsilon=0.1) * coherent_vector(s, 1.2)
    assert not np.any(projected)  # the weights are exactly 0 or 1


def test_normalize_single_gauge_phase():
    s = make_space(1, 30)
    m = 3
    theta = 0.85
    alpha = 1.1 * cmath.exp(1j * theta)
    weights = build_projector(number_constraint(s, float(m)), epsilon=0.1)
    projected = weights * coherent_vector(s, alpha)
    unit = projected / np.linalg.norm(projected)
    assert np.linalg.norm(unit) == pytest.approx(1.0, abs=1e-10)
    # e^{i m theta} |m>
    assert unit[m] / abs(unit[m]) == pytest.approx(cmath.exp(1j * m * theta), rel=1e-12)
    assert abs(unit[m]) == pytest.approx(1.0, rel=1e-12)

    real = (weights * coherent_vector(s, 0.9))[m]
    assert real / abs(real) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("nmax", [14, 20])
def test_normalize_double_matches_su2_coherent(nmax):
    s = make_space(2, nmax)
    mprime = 4
    beta = 0.9 * cmath.exp(0.4j)
    xi = 0.7 - 0.3j
    alpha = xi * beta
    projected = build_projector(number_constraint(s, float(mprime)), epsilon=0.1) * coherent_vector(s, [alpha, beta])
    mapped = (projected / np.linalg.norm(projected))[sector_indices(s, mprime)]
    gauge_phase = mapped[0] / abs(mapped[0])  # the |0, mprime> component
    assert np.max(np.abs(mapped - gauge_phase * su2_coherent(mprime, xi))) < 1e-10
    assert gauge_phase == pytest.approx((beta / abs(beta)) ** mprime, rel=1e-12)


@pytest.mark.parametrize("modes, nmax", [(1, 14), (2, 10)], ids=["single", "double"])
@pytest.mark.parametrize("target", [0.0, 1.0, 4.0, 7.0, 10.0, 2.5])
def test_projector_identities_spectral(modes, nmax, target):
    s = make_space(modes, nmax)
    ham = sum(ho_hamiltonian(s, mode) for mode in range(modes))
    report = projector_identities(number_constraint(s, target), ham)
    assert max(report.values()) <= 1e-10


def test_projector_identities_gauge_zero_sigma():
    s = make_space(1, 8)
    report = projector_identities(number_constraint(s, 2.0), ho_hamiltonian(s, 0), sigmas=(0.0,))
    assert report["gauge@0.0"] == 0.0


def test_projector_identities_evolution_detects_noncommuting_hamiltonian():
    # Q = (a + a+)/sqrt(2) changes the occupation, so [P, exp(-itQ)] != 0
    s = make_space(1, 14)
    constraint = number_constraint(s, 4.0)
    q = position_operator(s, 0)
    report = projector_identities(constraint, q)
    # the eigendecomposition route agrees with the matrix exponential
    w = build_projector(constraint)
    for t in (0.5, 2.0):
        assert report[f"evolution@{t}"] > 1e-10
        oracle = float(np.max(np.abs(np.subtract.outer(w, w) * expm(-1j * t * q))))
        assert report[f"evolution@{t}"] == pytest.approx(oracle, abs=1e-12)


def test_projector_identities_reject_non_hermitian_hamiltonian():
    s = make_space(1, 6)
    a, _ = ladder(s, 0)
    with pytest.raises(ValueError, match="Hermitian"):
        projector_identities(number_constraint(s, 2.0), a)


def test_projector_identities_sin_kernel_bounded_by_quadrature():
    s = make_space(1, 6)
    constraint = number_constraint(s, 2.0)
    quad_tol = sin_kernel_residual(constraint, 0.1)
    w = _sin_kernel_oracle(constraint, 0.1)
    # products of two near-projectors: allow the quadrature error times a few
    assert np.max(np.abs(w * w - w)) <= 4.0 * quad_tol
    assert np.max(np.abs(w - np.conj(w))) <= 4.0 * quad_tol


def test_projected_propagator_single_closed_form():
    s = make_space(1, 40)
    m = 2
    a1, a2 = 1.3 * cmath.exp(0.5j), 0.8 * cmath.exp(-1.1j)
    got = projected_propagator(number_constraint(s, float(m)), a1, a2)
    expected = (
        math.exp(-0.5 * (abs(a1) ** 2 + abs(a2) ** 2))
        * (np.conj(a1) * a2) ** m
        / math.factorial(m)
    )
    assert got == pytest.approx(expected, rel=1e-12)


def test_projected_propagator_normalized_self_overlap():
    s = make_space(1, 30)
    constraint = number_constraint(s, 2.0)
    norm = np.linalg.norm(build_projector(constraint) * coherent_vector(s, 1.2))
    val = projected_propagator(constraint, 1.2, 1.2)
    assert val / norm**2 == pytest.approx(1.0, rel=1e-12)


def test_projected_propagator_double_su2_magnitude():
    s = make_space(2, 16)
    mprime = 4
    j = mprime / 2.0
    constraint = number_constraint(s, float(mprime))
    weights = build_projector(constraint)
    rng = np.random.default_rng(9)
    for _ in range(5):
        a1, b1, a2, b2 = (
            rng.uniform(0.4, 1.2) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            for _ in range(4)
        )
        val = projected_propagator(constraint, [a1, b1], [a2, b2])
        n1 = np.linalg.norm(weights * coherent_vector(s, [a1, b1]))
        n2 = np.linalg.norm(weights * coherent_vector(s, [a2, b2]))
        xi1, xi2 = a1 / b1, a2 / b2
        expected_mag = abs(1 + np.conj(xi1) * xi2) ** (2 * j) / (
            ((1 + abs(xi1) ** 2) * (1 + abs(xi2) ** 2)) ** j
        )
        assert abs(val) / (n1 * n2) == pytest.approx(expected_mag, rel=1e-10)


def test_epsilon_independence_for_integer_target():
    s = make_space(1, 12)
    weights = [
        build_projector(number_constraint(s, 4.0), epsilon=eps)
        for eps in (0.05, 0.2, 0.45)
    ]
    assert np.array_equal(weights[0], weights[1])
    assert np.array_equal(weights[0], weights[2])


def test_projection_is_contraction():
    s = make_space(1, 20)
    weights = build_projector(number_constraint(s, 3.0), epsilon=0.1)
    rng = np.random.default_rng(13)
    for _ in range(10):
        amps = rng.standard_normal(21) + 1j * rng.standard_normal(21)
        assert np.linalg.norm(weights * amps) <= np.linalg.norm(amps) + 1e-12


def test_null_criterion_matches_spectrum_scan():
    s = make_space(1, 14)
    for target in (0.5, 1.5, 3.0, 0.3):
        constraint = number_constraint(s, target)
        dim_phys = np.count_nonzero(np.abs(constraint.eigs) < 0.1)
        projected = build_projector(constraint, epsilon=0.1) * coherent_vector(s, 1.0)
        assert (not np.any(projected)) == (dim_phys == 0)


def _simpson_sin_kernel_weights(eigs, eps, lam_max):
    """Composite Simpson quadrature of int_{-L}^{L} e^{i t x} sin(eps t)/(pi t) dt.

    Reference for the closed form.  96 nodes per period of the fastest
    oscillation put its own error near 1e-9, and the node count grows with
    L, so it is only practical at small L.
    """
    xmax = float(np.max(np.abs(eigs)))
    n_nodes = int(96.0 * lam_max * (xmax + eps) / (2.0 * math.pi)) + 1
    n_nodes += 1 - n_nodes % 2
    t = np.linspace(-lam_max, lam_max, n_nodes)
    simp = np.ones(n_nodes)
    simp[1:-1:2] = 4.0
    simp[2:-1:2] = 2.0
    simp *= (t[1] - t[0]) / 3.0
    measure = np.full_like(t, eps / math.pi)
    nz = t != 0.0
    measure[nz] = np.sin(eps * t[nz]) / (math.pi * t[nz])
    return (simp * measure) @ np.exp(1j * np.outer(t, eigs))


@pytest.mark.parametrize(
    "eigs, eps",
    [([-1.0, 0.0, 1.0], 0.45), ([-1.0, 0.0, 1.0], 0.1), ([-1.5, -0.5, 0.5, 1.5], 0.1)],
    ids=["integer-levels-eps0.45", "integer-levels-eps0.1", "half-integer-levels-eps0.1"],
)
def test_sin_kernel_weights_match_simpson_oracle(eigs, eps):
    # short spectra keep the oracle's node count, which grows with the folded L ~ 7003 / gap, near 10^6
    eigs = np.array(eigs)
    closed = sin_kernel_weights(eigs, eps)
    oracle = _simpson_sin_kernel_weights(eigs, eps, default_lam_max(eps, eigs))
    assert np.max(np.abs(closed - oracle)) <= 1e-8


def test_sin_kernel_weights_reach_si_only_past_its_floor():
    # wiener's 13 levels at every mprime and across its epsilon range: every Si argument L (x +- eps) lies past
    # the floor of _sine_integral's domain (L gap rounds to within an ulp of it), and the weights equal the
    # closed form on scipy's Si
    floor = 2.2 / (math.pi * SIN_KERNEL_TOL)
    for mprime in range(13):
        eigs = np.arange(13.0) - mprime
        for eps in np.linspace(1e-3, 0.499, 25):
            lam_max = default_lam_max(eps, eigs)
            args = np.concatenate([lam_max * (eigs + eps), lam_max * (eigs - eps)])
            assert np.min(np.abs(args)) >= floor * (1.0 - 2.0 * np.finfo(float).eps)
            closed = (special.sici(lam_max * (eigs + eps))[0] - special.sici(lam_max * (eigs - eps))[0]) / math.pi
            assert np.max(np.abs(sin_kernel_weights(eigs, eps) - closed)) <= 1e-15


def test_sine_integral_matches_scipy_sici():
    # over its domain |x| >= 2.2 / (pi SIN_KERNEL_TOL) ~ 7003, far past the largest argument the CLI reaches,
    # ~8.4e7: wiener's 13 levels give |x| + eps <= 12.5, and its epsilon >= 1e-3 keeps lam_max <= ~7e6; the
    # range runs to lam_max at a 1e-6 gap (~7e9) times the largest |eigenvalue| + eps of a space with MAX_DIM
    # basis states (~7e15)
    top = default_lam_max(0.25, np.array([0.25 + 1.000001e-6])) * (fock.MAX_DIM + 0.5)
    logs = np.geomspace(2.2 / (math.pi * SIN_KERNEL_TOL), top, 4001)
    for x in (logs, -logs):
        assert np.max(np.abs(_sine_integral(x) - special.sici(x)[0])) <= 1e-15
