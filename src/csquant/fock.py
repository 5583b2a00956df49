"""Truncated bosonic Fock spaces.

Basis convention: an M-mode space with per-mode cutoff nmax enumerates the
occupation tuples (n_0, ..., n_{M-1}), 0 <= n_k <= nmax, with mode 0 varying
fastest, i.e. index = sum_k n_k * (nmax+1)**k.  All serialization and all
amplitude arrays use this ordering.  Both constraints are diagonal in this
basis, so the package stores no operator as a matrix: a constraint is its
eigenvalue per basis state.  The cutoff is the one deliberate departure
from the infinite-dimensional algebra, so the projection experiments
refuse a coherent state that leaks through it.
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

    def mode_occupations(self, mode: int) -> np.ndarray:
        """Occupation of the given mode for every basis index."""
        base = self.nmax + 1
        return (np.arange(self.dim) // base**mode) % base

    def total_occupations(self) -> np.ndarray:
        """Sum of the modes' occupations for every basis index (mode 0's own array for a one-mode space)."""
        total = self.mode_occupations(0)
        for mode in range(1, self.modes):
            total = total + self.mode_occupations(mode)
        return total


def make_space(modes: int, nmax: int) -> FockSpace:
    dim = (nmax + 1) ** modes
    if dim > MAX_DIM:
        raise DimensionGuardError(f"dim {dim} exceeds resource guard {MAX_DIM}")
    return FockSpace(modes=modes, nmax=nmax)


@dataclass(frozen=True, eq=False)
class LinearOperator:
    """Dense complex matrix acting on the occupation basis of `space`.

    Nothing in the package builds one.  The class stays because perfbench's
    tracer wraps `__post_init__` to count the bytes of any that would be
    (its fock.dense_bytes counter, which reads 0).
    """

    space: FockSpace
    mat: np.ndarray

    def __post_init__(self):
        mat = np.array(self.mat, dtype=np.complex128)
        d = self.space.dim
        if mat.shape != (d, d):
            raise ValueError(f"matrix must be {d} x {d}")
        mat.flags.writeable = False
        object.__setattr__(self, "mat", mat)
