import cmath
import math

import numpy as np
import pytest

from csquant.fock import make_space
from csquant.spin import _closure_matrix, sector_indices, su2_coherent, su2_overlap, su2_resolution_check
from reference import basis_vector, commutator, index, schwinger_operators


@pytest.fixture(scope="module")
def two_mode():
    space = make_space(2, 8)
    return space, dict(zip(("s1", "s2", "s3", "s0"), schwinger_operators(space)))


def _sector_block(space, mat):
    keep = np.nonzero(space.total_occupations() <= space.nmax)[0]
    return mat[np.ix_(keep, keep)]


def test_schwinger_requires_two_modes():
    with pytest.raises(ValueError):
        schwinger_operators(make_space(1, 4))


def test_s3_eigenvalue_on_one_zero(two_mode):
    space, ops = two_mode
    v = basis_vector(space, (1, 0))
    assert np.vdot(v, ops["s3"] @ v) == pytest.approx(0.5, abs=0)


def test_s0_eigenvalue_is_half_total(two_mode):
    space, ops = two_mode
    v = basis_vector(space, (3, 2))
    assert np.vdot(v, ops["s0"] @ v) == pytest.approx(2.5, abs=0)


def test_spin_algebra_on_intact_sectors(two_mode):
    space, ops = two_mode
    for a, b, c in (("s1", "s2", "s3"), ("s2", "s3", "s1"), ("s3", "s1", "s2")):
        resid = commutator(ops[a], ops[b]) - 1j * ops[c]
        assert np.max(np.abs(_sector_block(space, resid))) < 1e-10


def test_casimir_identity_on_intact_sectors(two_mode):
    space, ops = two_mode
    casimir = sum(ops[k] @ ops[k] for k in ("s1", "s2", "s3"))
    resid = casimir - (ops["s0"] @ ops["s0"] + ops["s0"])
    assert np.max(np.abs(_sector_block(space, resid))) < 1e-10


def test_spin_operators_preserve_sectors(two_mode):
    space, ops = two_mode
    total = space.total_occupations()
    for op in (ops["s1"], ops["s2"], ops["s3"]):
        assert np.max(np.abs(commutator(op, ops["s0"]))) == 0.0
        rows, cols = np.nonzero(np.abs(op) > 0)
        assert np.array_equal(total[rows], total[cols])


def test_sector_indices_examples(two_mode):
    space, _ = two_mode
    for mprime in (0, 2, space.nmax):
        # n = 0 maps to the lowest weight m = -j: |n, mprime - n> in order of n
        want = [index(space, (n, mprime - n)) for n in range(mprime + 1)]
        assert sector_indices(space, mprime).tolist() == want
    with pytest.raises(ValueError):
        sector_indices(space, space.nmax + 1)
    with pytest.raises(ValueError):
        sector_indices(make_space(1, 4), 2)


def test_mapped_ladder_matrix_elements(two_mode):
    space, ops = two_mode
    for mprime in (1, 4, 7):
        idx = sector_indices(space, mprime)
        j = mprime / 2.0
        m = np.arange(-j, j + 1)
        block = np.ix_(idx, idx)
        splus = (ops["s1"] + 1j * ops["s2"])[block]
        expected = np.zeros_like(splus)
        amp = np.sqrt((j - m[:-1]) * (j + m[:-1] + 1))
        expected[np.arange(1, m.size), np.arange(m.size - 1)] = amp
        assert np.max(np.abs(splus - expected)) < 1e-12
        # mapped s3 is diagonal with entries m
        s3 = ops["s3"][block]
        assert np.max(np.abs(s3 - np.diag(m))) < 1e-12


def test_su2_coherent_fiducial_recovery():
    st = su2_coherent(2.5, 0.0)
    expected = np.zeros(6, dtype=complex)
    expected[0] = 1.0
    assert np.array_equal(st, expected)


def test_su2_coherent_half_spin_equal_weights():
    st = su2_coherent(0.5, 1.0)
    assert st == pytest.approx(np.array([1.0, 1.0]) / math.sqrt(2.0), rel=1e-15)


def test_su2_coherent_norm_random_labels():
    rng = np.random.default_rng(17)
    for _ in range(20):
        j = rng.integers(0, 41) / 2.0
        xi = rng.uniform(0, 3) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        assert np.linalg.norm(su2_coherent(j, xi)) == pytest.approx(1.0, abs=1e-12)


def test_su2_coherent_rejects_bad_j():
    with pytest.raises(ValueError):
        su2_coherent(0.3, 0.0)


def test_su2_overlap_self_is_one():
    assert su2_overlap(3.0, 0.4 + 0.2j, 0.4 + 0.2j) == pytest.approx(1.0, rel=1e-14)


def test_su2_overlap_half_spin_example():
    assert su2_overlap(0.5, 0.0, 1.0) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-14)


def test_su2_overlap_matches_amplitudes():
    rng = np.random.default_rng(23)
    for _ in range(15):
        j = rng.integers(1, 17) / 2.0
        xi1 = rng.uniform(0, 2) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        xi2 = rng.uniform(0, 2) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        s1, s2 = su2_coherent(j, xi1), su2_coherent(j, xi2)
        direct = np.vdot(s1, s2)
        assert su2_overlap(j, xi1, xi2) == pytest.approx(direct, abs=1e-12)
        assert abs(su2_overlap(j, xi1, xi2)) <= 1.0 + 1e-14


def test_su2_resolution_small_and_sweep():
    assert su2_resolution_check(0.5, 8, 8) < 1e-10
    for j in (1.0, 2.5, 5.0, 10.0):
        assert su2_resolution_check(j) < 1e-8


def _closure_matrix_per_node(j, n_theta, n_phi):
    """The closure sum node by node: (2j+1)/(4 pi) sum w |xi><xi| over the product grid."""
    x, wx = np.polynomial.legendre.leggauss(n_theta)
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    wphi = 2.0 * math.pi / n_phi
    dim = round(2 * j) + 1
    mat = np.zeros((dim, dim), dtype=np.complex128)
    for xv, wv in zip(x, wx):
        t = math.sqrt((1.0 - xv) / (1.0 + xv))  # tan(theta/2)
        for ph in phi:
            amps = su2_coherent(j, t * np.exp(1j * ph))
            mat += (wv * wphi) * np.outer(amps, amps.conj())
    return mat * dim / (4.0 * math.pi)


@pytest.mark.parametrize(
    "j, n_theta, n_phi", [(0.5, 5, 5), (3.0, 10, 10), (3.0, 4, 8), (12.0, 28, 28)]
)
def test_su2_closure_factoring_matches_per_node_sum(j, n_theta, n_phi):
    twoj = round(2 * j)
    oracle = _closure_matrix_per_node(j, n_theta, n_phi)
    assert np.max(np.abs(_closure_matrix(twoj, n_theta, n_phi) - oracle)) <= 1e-13
    oracle_residual = float(np.max(np.abs(oracle - np.eye(twoj + 1))))
    assert abs(su2_resolution_check(j, n_theta, n_phi) - oracle_residual) <= 1e-13


def test_su2_resolution_closes_at_j50():
    assert su2_resolution_check(50) < 1e-8


def test_su2_resolution_doubling_does_not_degrade():
    base = su2_resolution_check(3.0)
    doubled = su2_resolution_check(3.0, 32, 32)
    assert doubled <= base + 1e-11


def test_su2_resolution_under_resolved_raises():
    with pytest.raises(ValueError):
        su2_resolution_check(5.0, 2, 2)


def _spin_matrices(j):
    """(jx, jy, jz) in the |j, m> basis with m ascending."""
    m = np.arange(-j, j + 1)
    jplus = np.diag(np.sqrt((j - m[:-1]) * (j + m[:-1] + 1)), -1).astype(np.complex128)
    return 0.5 * (jplus + jplus.conj().T), -0.5j * (jplus - jplus.conj().T), np.diag(m).astype(np.complex128)


def _uncertainty(j, xi):
    """Var(Jx) Var(Jy) and <Jz>^2 / 4 of |xi>, then the same in a frame whose third axis is the mean spin."""
    state = su2_coherent(j, xi)
    ops = _spin_matrices(j)

    def ev(op):
        return np.vdot(state, op @ state).real

    def var(op):
        return ev(op @ op) - ev(op) ** 2

    mean = np.array([ev(op) for op in ops])
    # rows of vt: the mean direction, then two unit vectors orthogonal to it
    _, _, vt = np.linalg.svd(mean[None, :])
    rot = [sum(vt[i, k] * ops[k] for k in range(3)) for i in range(3)]
    return var(ops[0]) * var(ops[1]), 0.25 * ev(ops[2]) ** 2, var(rot[1]) * var(rot[2]), 0.25 * ev(rot[0]) ** 2


def test_uncertainty_fiducial_saturation():
    var_product, quarter_mean_sq, _, _ = _uncertainty(1.0, 0.0)
    assert var_product == pytest.approx(0.25, abs=1e-12)
    assert quarter_mean_sq == pytest.approx(0.25, abs=1e-12)


def test_uncertainty_half_spin_always_saturates():
    rng = np.random.default_rng(29)
    for _ in range(10):
        xi = rng.uniform(0, 2.5) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        _, _, rotated_var_product, rotated_quarter_mean_sq = _uncertainty(0.5, xi)
        assert rotated_var_product / rotated_quarter_mean_sq == pytest.approx(1.0, rel=1e-9)


def test_uncertainty_robertson_bound_and_rotated_saturation():
    rng = np.random.default_rng(31)
    for _ in range(12):
        j = rng.integers(1, 13) / 2.0
        xi = rng.uniform(0, 2) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        var_product, quarter_mean_sq, rotated_var_product, rotated_quarter_mean_sq = _uncertainty(j, xi)
        assert var_product >= quarter_mean_sq - 1e-12
        assert rotated_var_product == pytest.approx(j**2 / 4.0, rel=1e-9)
        assert rotated_quarter_mean_sq == pytest.approx(j**2 / 4.0, rel=1e-9)


def test_spin_matrices_algebra():
    jx, jy, jz = _spin_matrices(1.5)
    assert np.max(np.abs(jx @ jy - jy @ jx - 1j * jz)) < 1e-14
