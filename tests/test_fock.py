import math

import numpy as np
import pytest

from csquant.fock import make_space
from reference import (
    basis_vector,
    commutator,
    ho_hamiltonian,
    index,
    ladder,
    momentum_operator,
    number_operator,
    occupation,
    position_operator,
)


def test_make_space_dims():
    assert make_space(1, 3).dim == 4
    assert make_space(2, 5).dim == 36


def test_make_space_rejects_bad_args():
    with pytest.raises(ValueError):
        make_space(4, 100)  # dim guard


def test_basis_ordering_mode0_fastest():
    s = make_space(2, 2)
    assert index(s, (0, 0)) == 0
    assert index(s, (1, 0)) == 1
    assert index(s, (0, 1)) == 3
    for i in range(s.dim):
        assert index(s, occupation(s, i)) == i


@pytest.mark.parametrize("nmax", [5, 9])
def test_number_operator_eigenvalues(nmax):
    s = make_space(1, nmax)
    a, adag = ladder(s, 0)
    n_from_ladder = adag @ a
    one = basis_vector(s, (1,))
    assert np.vdot(one, n_from_ladder @ one) == pytest.approx(1.0, abs=0)
    # diagonal construction is exact for every level
    n_exact = number_operator(s, 0)
    assert np.array_equal(np.diag(n_exact), np.arange(nmax + 1).astype(complex))
    assert np.max(np.abs(n_from_ladder - n_exact)) < 1e-13


def test_vacuum_annihilation():
    s = make_space(1, 6)
    a, _ = ladder(s, 0)
    out = a @ basis_vector(s, (0,))
    assert np.linalg.norm(out) == 0.0


@pytest.mark.parametrize("nmax", [3, 7])
def test_truncated_ladder_commutator(nmax):
    s = make_space(1, nmax)
    a, adag = ladder(s, 0)
    c = commutator(a, adag)
    expected = np.eye(nmax + 1, dtype=complex)
    expected[nmax, nmax] = -nmax
    assert np.max(np.abs(c - expected)) < 1e-12


def test_number_ladder_commutator_untruncated_rows():
    s = make_space(1, 8)
    a, _ = ladder(s, 0)
    n = number_operator(s, 0)
    resid = commutator(n, a) + a
    assert np.max(np.abs(resid)) < 1e-12


def test_commutator_antisymmetry_and_space_mismatch():
    s = make_space(1, 4)
    a, adag = ladder(s, 0)
    assert np.max(np.abs(commutator(a, a))) == 0.0
    other = make_space(1, 5)
    with pytest.raises(ValueError):
        commutator(a, ladder(other, 0)[0])


@pytest.mark.parametrize("nmax", [6, 12])
def test_canonical_commutator_on_safe_block(nmax):
    s = make_space(1, nmax)
    c = commutator(momentum_operator(s, 0), position_operator(s, 0))
    # [p, q] = -i below the top level, where a^dagger truncates
    block = c[:nmax, :nmax]
    assert np.max(np.abs(block + 1j * np.eye(nmax))) < 1e-12


def test_ho_hamiltonian_spectrum():
    s = make_space(1, 5)
    h = ho_hamiltonian(s, 0)
    for n in (0, 3):
        v = basis_vector(s, (n,))
        assert np.vdot(v, h @ v) == pytest.approx(n + 0.5, abs=0)
    assert np.array_equal(h, h.conj().T)


def test_two_mode_ladder_acts_on_its_mode_only():
    s = make_space(2, 3)
    a1, ad1 = ladder(s, 1)
    out = ad1 @ basis_vector(s, (2, 1))
    assert out[index(s, (2, 2))] == pytest.approx(math.sqrt(2.0))
    assert np.count_nonzero(out) == 1


def _lower_oracle(space, mode, amps):
    """a on one mode, one basis index at a time through occupation/index."""
    out = np.zeros(amps.shape, dtype=np.complex128)
    for i in range(space.dim):
        occ = list(occupation(space, i))
        n = occ[mode]
        if n > 0:
            occ[mode] = n - 1
            out[index(space, occ)] += math.sqrt(n) * amps[i]
    return out


@pytest.mark.parametrize("modes, nmax", [(1, 6), (2, 3)])
def test_dense_ladder_is_lower_of_identity(modes, nmax):
    s = make_space(modes, nmax)
    eye = np.eye(s.dim, dtype=np.complex128)
    for mode in range(modes):
        a, adag = ladder(s, mode)
        assert np.array_equal(a, _lower_oracle(s, mode, eye))
        assert np.array_equal(adag, a.conj().T)
