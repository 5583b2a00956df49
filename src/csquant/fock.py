"""Truncated bosonic Fock spaces and the ladder operator as a band action.

Basis convention: an M-mode space with per-mode cutoff nmax enumerates the
occupation tuples (n_0, ..., n_{M-1}), 0 <= n_k <= nmax, with mode 0 varying
fastest, i.e. index = sum_k n_k * (nmax+1)**k.  All serialization and all
operator matrices use this ordering.

A mode's lowering operator is one band, applied in O(dim) by `lower`
(<u| a^dagger |v> = <a u| v>), so no operator is stored as a matrix.  The
cutoff is the one deliberate departure from the infinite-dimensional
algebra: a^dagger drops amplitude out of the top level, so canonical
identities hold exactly only away from the truncation boundary.
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
        if not 0 <= mode < self.modes:
            raise IndexError(f"mode {mode} outside [0, {self.modes})")
        base = self.nmax + 1
        return (np.arange(self.dim) // base**mode) % base

    def total_occupations(self) -> np.ndarray:
        out = np.zeros(self.dim, dtype=np.int64)
        for m in range(self.modes):
            out += self.mode_occupations(m)
        return out


def make_space(modes: int, nmax: int) -> FockSpace:
    if modes < 1:
        raise ValueError("modes must be >= 1")
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
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


def lower(space: FockSpace, mode: int, amps) -> np.ndarray:
    """a |n> = sqrt(n) |n-1> on one mode, along the leading axis of a vector or matrix: O(size)."""
    occ = space.mode_occupations(mode)
    amps = np.asarray(amps, dtype=np.complex128)
    out = np.zeros_like(amps)
    src = np.nonzero(occ > 0)[0]
    # transposes broadcast the per-row factor over any trailing axes
    out[src - (space.nmax + 1) ** mode] = (np.sqrt(occ[src]) * amps[src].T).T
    return out
