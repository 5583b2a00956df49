"""The two-mode sector map onto spin multiplets, and SU(2) coherent states.

The Schwinger bilinears S1 = (a b+ + a+ b)/2, S2 = i(a b+ - a+ b)/2,
S3 = (a+ a - b+ b)/2, S0 = (a+ a + b+ b)/2 close the angular momentum
algebra on every total-occupation sector that survives the cutoff intact
(m + n <= nmax).  The sector with total occupation mprime carries spin
j = mprime/2 under the map |n, mprime - n>  <->  |j, m = n - j>.

SU(2) coherent states are built on the lowest weight vector |j, -j> and
labeled by the stereographic coordinate xi; their overlap is
(1+|xi'|^2)^-j (1+|xi|^2)^-j (1 + conj(xi') xi)^2j and they resolve the
identity with weight (2j+1)/pi * d^2xi / (1+|xi|^2)^2.  The closure check
integrates that on a Gauss-Legendre (cos theta) x uniform (phi) product
grid; because the rule is a tensor product, the node sum factors into a
theta Gram matrix of real amplitudes times the phi sums of e^{i(k-l)phi},
as in the canonical resolution check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import FockSpace


@dataclass(frozen=True, eq=False)
class SectorMap:
    """Bijection between the total-occupation-mprime sector and a spin-j multiplet."""

    space: FockSpace
    mprime: int
    j: float
    fock_indices: np.ndarray  # ordered by m = -j .. +j, i.e. n = 0 .. mprime

    def restrict_vector(self, amps: np.ndarray) -> np.ndarray:
        return amps[self.fock_indices]


def basis_map(space: FockSpace, mprime: int) -> SectorMap:
    """j = mprime/2, m = n - j for sector states |n, mprime - n>."""
    if space.modes != 2:
        raise ValueError("basis map needs a two-mode space")
    if not 0 <= mprime <= space.nmax:
        raise ValueError(f"sector {mprime} is truncated (nmax={space.nmax})")
    idx = np.array([space.index((n, mprime - n)) for n in range(mprime + 1)])
    return SectorMap(space=space, mprime=mprime, j=mprime / 2.0, fock_indices=idx)


@dataclass(frozen=True, eq=False)
class SpinState:
    """Amplitudes over |j, m>, m = -j..j."""

    j: float
    amps: np.ndarray

    def __post_init__(self):
        dim = int(round(2 * self.j)) + 1
        amps = np.asarray(self.amps, dtype=np.complex128)
        if amps.shape != (dim,):
            raise ValueError(f"spin-{self.j} state needs {dim} amplitudes")
        object.__setattr__(self, "amps", amps)


def _check_j(j: float) -> int:
    twoj = round(2 * j)
    if abs(2 * j - twoj) > 1e-12 or twoj < 0:
        raise ValueError("j must be a non-negative half-integer")
    return int(twoj)


def su2_coherent(j: float, xi: complex) -> SpinState:
    """(1+|xi|^2)^-j sum_k sqrt(C(2j,k)) xi^k |j, -j+k>; unit norm by the binomial sum."""
    twoj = _check_j(j)
    xi = complex(xi)
    k = np.arange(twoj + 1)
    binom = np.array([math.comb(twoj, int(kk)) for kk in k], dtype=np.float64)
    amps = np.sqrt(binom) * xi ** k
    amps *= (1.0 + abs(xi) ** 2) ** (-j)
    return SpinState(j=j, amps=amps)


def su2_overlap(j: float, xi_bra: complex, xi_ket: complex) -> complex:
    """<xi_bra | xi_ket> in closed form, as the integer power 2j of a ratio.

    (1 + conj(xi') xi) / sqrt((1+|xi'|^2)(1+|xi|^2)) has modulus <= 1
    (Cauchy-Schwarz), so its power cannot overflow at any j.
    """
    twoj = _check_j(j)
    xb, xk = complex(xi_bra), complex(xi_ket)
    ratio = (1.0 + xb.conjugate() * xk) / (math.hypot(1.0, abs(xb)) * math.hypot(1.0, abs(xk)))
    return ratio**twoj


def su2_resolution_check(j: float, n_theta: int | None = None, n_phi: int | None = None) -> float:
    """Max deviation from the identity of the coherent-state closure quadrature.

    Gauss-Legendre nodes in cos(theta) (the diagonal integrands are degree
    <= 2j polynomials there) and uniform phi nodes (kill the off-diagonal
    phases exactly below the aliasing order).
    """
    twoj = _check_j(j)
    need_theta = twoj // 2 + 1
    need_phi = twoj + 2
    if n_theta is None:
        n_theta = 2 * twoj + 4
    if n_phi is None:
        n_phi = 2 * twoj + 4
    if n_theta < need_theta or n_phi < need_phi:
        raise ValueError(
            f"grid {n_theta}x{n_phi} under-resolved for j={j}; "
            f"use at least {2 * twoj + 4} nodes each way"
        )
    mat = _closure_matrix(twoj, n_theta, n_phi)
    return float(np.max(np.abs(mat - np.eye(twoj + 1))))


def _closure_matrix(twoj: int, n_theta: int, n_phi: int) -> np.ndarray:
    """(2j+1)/(4 pi) sum over the product grid of |xi><xi|, factored.

    At xi = tan(theta/2) e^{i phi} the amplitude of |j, -j+k> is the real
    sqrt(C(2j,k)) sin^k(theta/2) cos^(2j-k)(theta/2) times e^{i k phi}
    (the t^k (1+t^2)^-j form overflows at large j), so the node sum is a
    theta Gram of the real amplitudes times the phi sums of e^{i(k-l)phi}.
    """
    x, wx = np.polynomial.legendre.leggauss(n_theta)
    k = np.arange(twoj + 1)
    binom = np.array([math.comb(twoj, int(kk)) for kk in k], dtype=np.float64)
    sin_half = np.sqrt(0.5 * (1.0 - x))[:, None]
    cos_half = np.sqrt(0.5 * (1.0 + x))[:, None]
    radial = np.sqrt(binom) * sin_half**k * cos_half ** (twoj - k)
    gram = (radial.T * wx) @ radial
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    shifts = np.arange(-twoj, twoj + 1)
    angular = (2.0 * math.pi / n_phi) * np.exp(1j * np.outer(shifts, phi)).sum(axis=1)
    return (twoj + 1) / (4.0 * math.pi) * gram * angular[k[:, None] - k[None, :] + twoj]
