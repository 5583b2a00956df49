"""Truncated bosonic Fock spaces, ladder band actions and dense oracle operators.

Basis convention: an M-mode space with per-mode cutoff nmax enumerates the
occupation tuples (n_0, ..., n_{M-1}), 0 <= n_k <= nmax, with mode 0 varying
fastest, i.e. index = sum_k n_k * (nmax+1)**k.  All serialization and all
operator matrices use this ordering.

A mode's lowering operator is one band, applied in O(dim) by `lower`
(<u| a^dagger |v> = <a u| v>).  The dense matrices built on it below are
small-dim oracles for the operator algebra.

The cutoff is the one deliberate departure from the infinite-dimensional
algebra: a^dagger drops amplitude out of the top level, so canonical
identities hold exactly only away from the truncation boundary.  Use
FockSpace.subspace_indices to restrict comparisons to a safe block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_DIM = 1_000_000  # basis states per space; bounds every vector's size


class DimensionGuardError(ValueError):
    """A requested space has more than MAX_DIM basis states."""


@dataclass(frozen=True)
class FockSpace:
    """modes bosonic modes, each with occupation 0..nmax (inclusive)."""

    modes: int
    nmax: int

    @property
    def dim(self) -> int:
        return (self.nmax + 1) ** self.modes

    def occupation(self, index: int) -> tuple:
        """Occupation tuple of a basis index (mode 0 fastest)."""
        if not 0 <= index < self.dim:
            raise IndexError(f"basis index {index} outside [0, {self.dim})")
        base = self.nmax + 1
        occ = []
        for _ in range(self.modes):
            occ.append(index % base)
            index //= base
        return tuple(occ)

    def index(self, occupation) -> int:
        """Basis index of an occupation tuple."""
        if len(occupation) != self.modes:
            raise ValueError(f"expected {self.modes} occupation numbers")
        base = self.nmax + 1
        idx = 0
        for k in reversed(range(self.modes)):
            n = occupation[k]
            if not 0 <= n <= self.nmax:
                raise ValueError(f"occupation {n} outside [0, {self.nmax}]")
            idx = idx * base + n
        return idx

    def mode_occupations(self, mode: int) -> np.ndarray:
        """Occupation of the given mode for every basis index."""
        if not 0 <= mode < self.modes:
            raise IndexError(f"mode {mode} outside [0, {self.modes})")
        base = self.nmax + 1
        return (np.arange(self.dim) // base**mode) % base

    def total_occupations(self) -> np.ndarray:
        out = np.zeros(self.dim, dtype=np.int64)
        for m in range(self.modes):
            out += self.mode_occupations(m)
        return out

    def subspace_indices(self, max_level: int) -> np.ndarray:
        """Indices of basis states with every mode occupation <= max_level."""
        keep = np.ones(self.dim, dtype=bool)
        for m in range(self.modes):
            keep &= self.mode_occupations(m) <= max_level
        return np.nonzero(keep)[0]


def make_space(modes: int, nmax: int) -> FockSpace:
    if modes < 1:
        raise ValueError("modes must be >= 1")
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    dim = (nmax + 1) ** modes
    if dim > MAX_DIM:
        raise DimensionGuardError(f"dim {dim} exceeds resource guard {MAX_DIM}")
    return FockSpace(modes=modes, nmax=nmax)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class FockVector:
    """Complex amplitude vector over the occupation basis of `space`."""

    space: FockSpace
    amps: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=np.complex128)
        if amps.shape != (self.space.dim,):
            raise ValueError(f"amplitude vector must have length {self.space.dim}")
        object.__setattr__(self, "amps", _freeze(amps.copy()))

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    @property
    def is_normalized(self) -> bool:
        return abs(self.norm() - 1.0) <= 1e-10

    def normalized(self) -> "FockVector":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return FockVector(self.space, self.amps / n)

    def inner(self, other: "FockVector") -> complex:
        """<self|other>, conjugate-linear in self."""
        if other.space != self.space:
            raise ValueError("space mismatch")
        return complex(np.vdot(self.amps, other.amps))


def basis_vector(space: FockSpace, occupation) -> FockVector:
    amps = np.zeros(space.dim, dtype=np.complex128)
    amps[space.index(occupation)] = 1.0
    return FockVector(space, amps)


@dataclass(frozen=True, eq=False)
class LinearOperator:
    """Dense complex matrix acting on the occupation basis of `space`."""

    space: FockSpace
    mat: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.mat, dtype=np.complex128)
        d = self.space.dim
        if mat.shape != (d, d):
            raise ValueError(f"matrix must be {d} x {d}")
        object.__setattr__(self, "mat", _freeze(mat.copy()))

    def adjoint(self) -> "LinearOperator":
        return LinearOperator(self.space, self.mat.conj().T)

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        return self.hermiticity_defect() <= tol

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.mat - self.mat.conj().T)))

    def apply(self, v: FockVector) -> FockVector:
        if v.space != self.space:
            raise ValueError("space mismatch")
        return FockVector(self.space, self.mat @ v.amps)

    def expectation(self, v: FockVector) -> complex:
        return complex(np.vdot(v.amps, self.mat @ v.amps))

    def __matmul__(self, other):
        if isinstance(other, LinearOperator):
            if other.space != self.space:
                raise ValueError("space mismatch")
            return LinearOperator(self.space, self.mat @ other.mat)
        if isinstance(other, FockVector):
            return self.apply(other)
        return NotImplemented

    def __add__(self, other: "LinearOperator") -> "LinearOperator":
        if other.space != self.space:
            raise ValueError("space mismatch")
        return LinearOperator(self.space, self.mat + other.mat)

    def __sub__(self, other: "LinearOperator") -> "LinearOperator":
        if other.space != self.space:
            raise ValueError("space mismatch")
        return LinearOperator(self.space, self.mat - other.mat)

    def __mul__(self, scalar) -> "LinearOperator":
        return LinearOperator(self.space, self.mat * scalar)

    __rmul__ = __mul__


def identity(space: FockSpace) -> LinearOperator:
    return LinearOperator(space, np.eye(space.dim, dtype=np.complex128))


def from_diagonal(space: FockSpace, diag) -> LinearOperator:
    return LinearOperator(space, np.diag(np.asarray(diag, dtype=np.complex128)))


def lower(space: FockSpace, mode: int, amps) -> np.ndarray:
    """a |n> = sqrt(n) |n-1> on one mode, along the leading axis of a vector or matrix: O(size)."""
    occ = space.mode_occupations(mode)
    amps = np.asarray(amps, dtype=np.complex128)
    out = np.zeros_like(amps)
    src = np.nonzero(occ > 0)[0]
    # transposes broadcast the per-row factor over any trailing axes
    out[src - (space.nmax + 1) ** mode] = (np.sqrt(occ[src]) * amps[src].T).T
    return out


def ladder(space: FockSpace, mode: int) -> tuple:
    """Dense (a, a^dagger) of one mode, identity on the others: lower() of the identity.

    a^dagger has no row above nmax: it drops the top level's amplitude.
    """
    op_a = LinearOperator(space, lower(space, mode, np.eye(space.dim, dtype=np.complex128)))
    return op_a, op_a.adjoint()


def number_operator(space: FockSpace, mode: int) -> LinearOperator:
    """a^dagger a built directly as an exact integer diagonal."""
    return from_diagonal(space, space.mode_occupations(mode).astype(np.float64))


def ho_hamiltonian(space: FockSpace, mode: int, omega: float = 1.0, hbar: float = 1.0) -> LinearOperator:
    """hbar*omega*(n + 1/2) for one mode, diagonal in the occupation basis."""
    if omega <= 0:
        raise ValueError("omega must be > 0")
    if hbar <= 0:
        raise ValueError("hbar must be > 0")
    n = space.mode_occupations(mode).astype(np.float64)
    return from_diagonal(space, hbar * omega * (n + 0.5))


def position_operator(space: FockSpace, mode: int, omega: float = 1.0, hbar: float = 1.0) -> LinearOperator:
    a, adag = ladder(space, mode)
    return np.sqrt(hbar / (2.0 * omega)) * (a + adag)


def momentum_operator(space: FockSpace, mode: int, omega: float = 1.0, hbar: float = 1.0) -> LinearOperator:
    a, adag = ladder(space, mode)
    return 1j * np.sqrt(hbar * omega / 2.0) * (adag - a)


def commutator(op_a: LinearOperator, op_b: LinearOperator) -> LinearOperator:
    if op_a.space != op_b.space:
        raise ValueError("space mismatch")
    return LinearOperator(op_a.space, op_a.mat @ op_b.mat - op_b.mat @ op_a.mat)
