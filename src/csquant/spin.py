"""The two-mode occupation sectors as spin multiplets, and SU(2) coherent states.

The Schwinger bilinears S1 = (a b+ + a+ b)/2, S2 = i(a b+ - a+ b)/2,
S3 = (a+ a - b+ b)/2, S0 = (a+ a + b+ b)/2 close the angular momentum
algebra on every total-occupation sector that survives the cutoff intact
(m + n <= nmax).  The sector with total occupation mprime carries spin
j = mprime/2 under the map |n, mprime - n>  <->  |j, m = n - j>, and
sector_indices lists its basis indices in that order, so restricting a
two-mode amplitude array to them gives the spin-j amplitudes.

SU(2) coherent states (amplitude arrays over m = -j..j) are built on the
lowest weight vector |j, -j> and labeled by the stereographic coordinate
xi; their overlap is
(1+|xi'|^2)^-j (1+|xi|^2)^-j (1 + conj(xi') xi)^2j and they resolve the
identity with weight (2j+1)/pi * d^2xi / (1+|xi|^2)^2.  The closure check
integrates that on a Gauss-Legendre (cos theta) x uniform (phi) product
grid; because the rule is a tensor product, the node sum factors into a
theta Gram matrix of real amplitudes times the phi sums of e^{i(k-l)phi},
as in the canonical resolution check.
"""

from __future__ import annotations

import math

import numpy as np

from .fock import FockSpace


def sector_indices(space: FockSpace, mprime: int) -> np.ndarray:
    """Basis indices of the sector states |n, mprime - n>, n = 0..mprime, i.e. |j, m = n - j>, j = mprime/2."""
    if space.modes != 2:
        raise ValueError("the sector map needs a two-mode space")
    if not 0 <= mprime <= space.nmax:
        raise ValueError(f"sector {mprime} is truncated (nmax={space.nmax})")
    n = np.arange(mprime + 1)
    return n + (mprime - n) * (space.nmax + 1)


def _check_j(j: float) -> int:
    twoj = round(2 * j)
    if abs(2 * j - twoj) > 1e-12 or twoj < 0:
        raise ValueError("j must be a non-negative half-integer")
    return int(twoj)


def su2_coherent(j: float, xi: complex) -> np.ndarray:
    """Amplitudes (1+|xi|^2)^-j sqrt(C(2j,k)) xi^k of |j, -j+k>, k = 0..2j; unit norm by the binomial sum."""
    twoj = _check_j(j)
    xi = complex(xi)
    k = np.arange(twoj + 1)
    binom = np.array([math.comb(twoj, int(kk)) for kk in k], dtype=np.float64)
    amps = np.sqrt(binom) * xi ** k
    amps *= (1.0 + abs(xi) ** 2) ** (-j)
    return amps


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
