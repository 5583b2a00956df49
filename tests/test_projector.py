import cmath
import math

import numpy as np
import pytest
from scipy.linalg import expm

from csquant.coherent import CoherentLabel, coherent_vector
from csquant.fock import basis_vector, ho_hamiltonian, ladder, make_space, position_operator
from csquant.projector import (
    ProjectorSpec,
    build_projector,
    default_lam_max,
    double_constraint,
    normalize_physical,
    physical_subspace_dim,
    project,
    projected_propagator,
    projector_identities,
    sin_kernel_residual,
    sin_kernel_weights,
    single_constraint,
)
from csquant.spin import basis_map, su2_coherent


def test_spectral_table_selects_single_level():
    s = make_space(1, 10)
    weights = build_projector(ProjectorSpec(single_constraint(s, 3.0), epsilon=0.1))
    expected = np.zeros(11)
    expected[3] = 1.0
    assert np.array_equal(weights, expected)


def test_spectral_table_null_for_half_integer():
    s = make_space(1, 10)
    weights = build_projector(ProjectorSpec(single_constraint(s, 0.5), epsilon=0.1))
    assert np.max(np.abs(weights)) == 0.0


def test_spectral_boundary_case_weight_half():
    s = make_space(1, 4)
    weights = build_projector(ProjectorSpec(single_constraint(s, 2.25), epsilon=0.25))
    assert weights[2] == pytest.approx(0.5)
    assert weights[3] == 0.0


def test_epsilon_validation():
    s = make_space(1, 4)
    with pytest.raises(ValueError):
        ProjectorSpec(single_constraint(s, 1.0), epsilon=0.6)
    with pytest.raises(ValueError):
        ProjectorSpec(single_constraint(s, 1.0), epsilon=0.0)


def _sin_kernel_oracle(spec):
    eigs = spec.constraint.eigensystem()
    return sin_kernel_weights(eigs, spec.epsilon, default_lam_max(spec.epsilon, eigs))


def test_sin_kernel_matches_spectral():
    s = make_space(1, 6)
    spec = ProjectorSpec(single_constraint(s, 2.0), epsilon=0.1)
    weights = _sin_kernel_oracle(spec)
    expected = np.zeros(7)
    expected[2] = 1.0
    assert np.max(np.abs(weights - expected)) < 1e-4
    assert sin_kernel_residual(spec) < 1e-4


@pytest.mark.parametrize("nmax", [20, 40])
def test_project_coherent_single_closed_form(nmax):
    s = make_space(1, nmax)
    spec = ProjectorSpec(single_constraint(s, 0.0), epsilon=0.1)
    state = project(spec, coherent_vector(s, 1.0))
    assert state.norm_in_full_space == pytest.approx(math.exp(-0.5), rel=1e-12)
    expected = np.zeros(nmax + 1, dtype=complex)
    expected[0] = math.exp(-0.5)
    assert np.max(np.abs(state.vec.amps - expected)) < 1e-12


def test_project_eigenvector_unchanged():
    s = make_space(1, 8)
    spec = ProjectorSpec(single_constraint(s, 5.0), epsilon=0.1)
    state = project(spec, basis_vector(s, (5,)))
    assert np.array_equal(state.vec.amps, basis_vector(s, (5,)).amps)
    assert state.norm_in_full_space == 1.0


def test_project_double_sector_term_by_term():
    s = make_space(2, 12)
    mprime = 4
    alpha, beta = 0.8 + 0.2j, 0.5 - 0.7j
    spec = ProjectorSpec(double_constraint(s, float(mprime)), epsilon=0.1)
    state = project(spec, coherent_vector(s, [alpha, beta]))
    pref = math.exp(-0.5 * (abs(alpha) ** 2 + abs(beta) ** 2))
    expected = np.zeros(s.dim, dtype=complex)
    for n in range(mprime + 1):
        idx = s.index((n, mprime - n))
        expected[idx] = (
            pref
            * alpha**n
            * beta ** (mprime - n)
            / math.sqrt(math.factorial(n) * math.factorial(mprime - n))
        )
    assert np.max(np.abs(state.vec.amps - expected)) < 1e-14


def test_project_null_outcome_and_normalize_error():
    s = make_space(1, 16)
    spec = ProjectorSpec(single_constraint(s, 0.5), epsilon=0.1)
    state = project(spec, coherent_vector(s, 1.2))
    assert state.is_null
    with pytest.raises(ValueError):
        normalize_physical(state)


def test_normalize_single_gauge_phase():
    s = make_space(1, 30)
    m = 3
    theta = 0.85
    alpha = 1.1 * cmath.exp(1j * theta)
    spec = ProjectorSpec(single_constraint(s, float(m)), epsilon=0.1)
    state = normalize_physical(project(spec, coherent_vector(s, alpha)))
    assert state.vec.is_normalized
    # e^{i m theta} |m>
    assert state.gauge_phase == pytest.approx(cmath.exp(1j * m * theta), rel=1e-12)
    assert abs(state.vec.amps[m]) == pytest.approx(1.0, rel=1e-12)

    real_state = normalize_physical(project(spec, coherent_vector(s, 0.9)))
    assert real_state.gauge_phase == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("nmax", [14, 20])
def test_normalize_double_matches_su2_coherent(nmax):
    s = make_space(2, nmax)
    mprime = 4
    beta = 0.9 * cmath.exp(0.4j)
    xi = 0.7 - 0.3j
    alpha = xi * beta
    spec = ProjectorSpec(double_constraint(s, float(mprime)), epsilon=0.1)
    state = normalize_physical(project(spec, coherent_vector(s, [alpha, beta])))
    mapped = basis_map(s, mprime).restrict_vector(state.vec.amps)
    reference = su2_coherent(mprime / 2.0, xi).amps
    assert np.max(np.abs(mapped - state.gauge_phase * reference)) < 1e-10
    assert state.gauge_phase == pytest.approx((beta / abs(beta)) ** mprime, rel=1e-12)


@pytest.mark.parametrize("model", ["single", "double"])
@pytest.mark.parametrize("target", [0.0, 1.0, 4.0, 7.0, 10.0, 2.5])
def test_projector_identities_spectral(model, target):
    if model == "single":
        s = make_space(1, 14)
        constraint = single_constraint(s, target)
        ham = ho_hamiltonian(s, 0)
    else:
        s = make_space(2, 10)
        constraint = double_constraint(s, target)
        ham = ho_hamiltonian(s, 0) + ho_hamiltonian(s, 1)
    report = projector_identities(ProjectorSpec(constraint, epsilon=0.1), ham)
    assert report.max_residual() <= 1e-10


def test_projector_identities_gauge_zero_sigma():
    s = make_space(1, 8)
    report = projector_identities(
        ProjectorSpec(single_constraint(s, 2.0)), ho_hamiltonian(s, 0), sigmas=(0.0,)
    )
    assert report.gauge[0.0] == 0.0


def test_projector_identities_evolution_detects_noncommuting_hamiltonian():
    # Q = (a + a+)/sqrt(2) changes the occupation, so [P, exp(-itQ)] != 0
    s = make_space(1, 14)
    spec = ProjectorSpec(single_constraint(s, 4.0), epsilon=0.1)
    q = position_operator(s, 0)
    report = projector_identities(spec, q)
    assert all(residual > 1e-10 for residual in report.evolution.values())
    # the eigendecomposition route agrees with the matrix exponential
    w = build_projector(spec)
    for t, residual in report.evolution.items():
        oracle = float(np.max(np.abs(np.subtract.outer(w, w) * expm(-1j * t * q.mat))))
        assert residual == pytest.approx(oracle, abs=1e-12)


def test_projector_identities_reject_non_hermitian_hamiltonian():
    s = make_space(1, 6)
    a, _ = ladder(s, 0)
    with pytest.raises(ValueError, match="Hermitian"):
        projector_identities(ProjectorSpec(single_constraint(s, 2.0), epsilon=0.1), a)


def test_projector_identities_sin_kernel_bounded_by_quadrature():
    s = make_space(1, 6)
    spec = ProjectorSpec(single_constraint(s, 2.0), epsilon=0.1)
    quad_tol = sin_kernel_residual(spec)
    w = _sin_kernel_oracle(spec)
    # products of two near-projectors: allow the quadrature error times a few
    assert np.max(np.abs(w * w - w)) <= 4.0 * quad_tol
    assert np.max(np.abs(w - np.conj(w))) <= 4.0 * quad_tol


def test_projected_propagator_single_closed_form():
    s = make_space(1, 40)
    m = 2
    spec = ProjectorSpec(single_constraint(s, float(m)), epsilon=0.1)
    a1, a2 = 1.3 * cmath.exp(0.5j), 0.8 * cmath.exp(-1.1j)
    got = projected_propagator(
        spec, CoherentLabel.from_alpha(a1), CoherentLabel.from_alpha(a2)
    ).value
    expected = (
        math.exp(-0.5 * (abs(a1) ** 2 + abs(a2) ** 2))
        * (np.conj(a1) * a2) ** m
        / math.factorial(m)
    )
    assert got == pytest.approx(expected, rel=1e-12)


def test_projected_propagator_normalized_self_overlap():
    s = make_space(1, 30)
    spec = ProjectorSpec(single_constraint(s, 2.0), epsilon=0.1)
    lab = CoherentLabel.from_alpha(1.2)
    norm = project(spec, coherent_vector(s, 1.2)).norm_in_full_space
    val = projected_propagator(spec, lab, lab).value
    assert val / norm**2 == pytest.approx(1.0, rel=1e-12)


def test_projected_propagator_double_su2_magnitude():
    s = make_space(2, 16)
    mprime = 4
    j = mprime / 2.0
    spec = ProjectorSpec(double_constraint(s, float(mprime)), epsilon=0.1)
    rng = np.random.default_rng(9)
    for _ in range(5):
        a1, b1, a2, b2 = (
            rng.uniform(0.4, 1.2) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            for _ in range(4)
        )
        labels1 = tuple(CoherentLabel.from_alpha(z) for z in (a1, b1))
        labels2 = tuple(CoherentLabel.from_alpha(z) for z in (a2, b2))
        val = projected_propagator(spec, labels1, labels2).value
        n1 = project(spec, coherent_vector(s, [a1, b1])).norm_in_full_space
        n2 = project(spec, coherent_vector(s, [a2, b2])).norm_in_full_space
        xi1, xi2 = a1 / b1, a2 / b2
        expected_mag = abs(1 + np.conj(xi1) * xi2) ** (2 * j) / (
            ((1 + abs(xi1) ** 2) * (1 + abs(xi2) ** 2)) ** j
        )
        assert abs(val) / (n1 * n2) == pytest.approx(expected_mag, rel=1e-10)


def test_epsilon_independence_for_integer_target():
    s = make_space(1, 12)
    weights = [
        build_projector(ProjectorSpec(single_constraint(s, 4.0), epsilon=eps))
        for eps in (0.05, 0.2, 0.45)
    ]
    assert np.array_equal(weights[0], weights[1])
    assert np.array_equal(weights[0], weights[2])


def test_projection_is_contraction():
    s = make_space(1, 20)
    spec = ProjectorSpec(single_constraint(s, 3.0), epsilon=0.1)
    rng = np.random.default_rng(13)
    for _ in range(10):
        amps = rng.standard_normal(21) + 1j * rng.standard_normal(21)
        from csquant.fock import FockVector

        v = FockVector(s, amps)
        assert project(spec, v).norm_in_full_space <= v.norm() + 1e-12


def test_null_criterion_matches_spectrum_scan():
    s = make_space(1, 14)
    for target in (0.5, 1.5, 3.0, 0.3):
        constraint = single_constraint(s, target)
        spec = ProjectorSpec(constraint, epsilon=0.1)
        dim_phys = physical_subspace_dim(constraint, 0.1)
        state = project(spec, coherent_vector(s, 1.0))
        assert state.is_null == (dim_phys == 0)


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


@pytest.mark.parametrize("lam_max", [50.0, 400.0])
@pytest.mark.parametrize("target", [2.0, 2.5, 2.05])
def test_sin_kernel_weights_match_simpson_oracle(lam_max, target):
    eigs = np.arange(13.0) - target
    eps = 0.1
    closed = sin_kernel_weights(eigs, eps, lam_max)
    oracle = _simpson_sin_kernel_weights(eigs, eps, lam_max)
    assert np.max(np.abs(closed - oracle)) <= 1e-8
