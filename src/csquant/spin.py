"""The two-mode occupation sectors as spin multiplets, and SU(2) coherent states.

The Schwinger bilinears S1 = (a b+ + a+ b)/2, S2 = i(a b+ - a+ b)/2,
S3 = (a+ a - b+ b)/2, S0 = (a+ a + b+ b)/2 close the angular momentum
algebra on every total-occupation sector that survives the cutoff intact
(m + n <= nmax).  The sector with total occupation mprime carries spin
j = mprime/2 under the map |n, mprime - n>  <->  |j, m = n - j>, and
sector_indices lists its basis indices in that order, so restricting a
two-mode amplitude array to them gives the spin-j amplitudes.  The SU(2)
functions take the integer twoj = 2j (mprime itself), so every j they see
is a half-integer.

SU(2) coherent states (amplitude arrays over m = -j..j) are built on the
lowest weight vector |j, -j> and labeled by the stereographic coordinate
xi; their overlap is
(1+|xi'|^2)^-j (1+|xi|^2)^-j (1 + conj(xi') xi)^2j and they resolve the
identity with weight (2j+1)/pi * d^2xi / (1+|xi|^2)^2.  The closure check
integrates that on a Gauss-Legendre (cos theta) x uniform (phi) product
grid; because the rule is a tensor product, the node sum factors into a
theta Gram matrix of real amplitudes times the phi sums of e^{i(k-l)phi},
one function shared with the canonical resolution check, which builds
the Gram from 4j + 1 theta sums of adjacent-level amplitude products.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from numpy.polynomial.legendre import leggauss

from .coherent import _product_grid_closure
from .fock import FockSpace


def sector_indices(space: FockSpace, mprime: int) -> np.ndarray:
    """Basis indices of the sector states |n, mprime - n>, n = 0..mprime, i.e. |j, m = n - j>, j = mprime/2."""
    n = np.arange(mprime + 1)
    return n + (mprime - n) * (space.nmax + 1)


def _half_angle_amplitudes(twoj: int, sin_half, cos_half) -> np.ndarray:
    """sqrt(C(2j,k)) sin^k(theta/2) cos^(2j-k)(theta/2), k = 0..2j, along the last axis."""
    k = np.arange(twoj + 1)
    binom = np.array([math.comb(twoj, int(kk)) for kk in k], dtype=np.float64)
    return np.sqrt(binom) * sin_half**k * cos_half ** (twoj - k)


def su2_coherent(twoj: int, xi: complex) -> np.ndarray:
    """Amplitudes (1+|xi|^2)^-j sqrt(C(2j,k)) xi^k of |j, -j+k>, k = 0..2j; unit norm by the binomial sum.

    They are taken in the half-angle form sqrt(C(2j,k)) s^k c^(2j-k) e^{ik arg xi}
    with c = 1/hypot(1, |xi|) = cos(theta/2) and s = |xi| c = sin(theta/2):
    no factor exceeds 1, so no xi of finite modulus overflows.
    """
    xi = complex(xi)
    modulus = math.hypot(xi.real, xi.imag)
    cos_half = 1.0 / math.hypot(1.0, modulus)
    phases = np.exp(1j * np.arange(twoj + 1) * cmath.phase(xi))
    return _half_angle_amplitudes(twoj, modulus * cos_half, cos_half) * phases


def su2_overlap(twoj: int, xi_bra: complex, xi_ket: complex) -> complex:
    """<xi_bra | xi_ket> in closed form, as the integer power 2j of a ratio.

    (1 + conj(xi') xi) / sqrt((1+|xi'|^2)(1+|xi|^2)) has modulus <= 1
    (Cauchy-Schwarz), so its power cannot overflow at any j.
    """
    xb, xk = complex(xi_bra), complex(xi_ket)
    ratio = (1.0 + xb.conjugate() * xk) / (math.hypot(1.0, abs(xb)) * math.hypot(1.0, abs(xk)))
    return ratio**twoj


def su2_resolution_check(twoj: int) -> float:
    """Max deviation from the identity of the coherent-state closure quadrature.

    Gauss-Legendre nodes in cos(theta) (the diagonal integrands are degree
    <= 2j polynomials there) and uniform phi nodes (kill the off-diagonal
    phases exactly below the aliasing order), 2 twoj + 4 of each: above the
    twoj // 2 + 1 and twoj + 1 that integrate the closure exactly.
    """
    n_nodes = 2 * twoj + 4
    return float(np.max(np.abs(_closure_matrix(twoj, n_nodes, n_nodes) - np.eye(twoj + 1))))


def _closure_matrix(twoj: int, n_theta: int, n_phi: int) -> np.ndarray:
    """(2j+1)/(4 pi) sum over the product grid of |xi><xi|, factored.

    At xi = tan(theta/2) e^{i phi} the amplitude of |j, -j+k> is the real
    half-angle amplitude (as in su2_coherent) times e^{i k phi}, so the node
    sum is a theta Gram of the real amplitudes times the phi sums of
    e^{i(k-l)phi} (coherent._product_grid_closure, with c_k = sqrt(C(2j,k))).
    """
    x, wx = leggauss(n_theta)
    sin_half = np.sqrt(0.5 * (1.0 - x))[:, None]
    cos_half = np.sqrt(0.5 * (1.0 + x))[:, None]
    amps = _half_angle_amplitudes(twoj, sin_half, cos_half)
    k = np.arange(2 * twoj + 1)
    pair_sums = np.sum(wx[:, None] * amps[:, k // 2] * amps[:, k - k // 2], axis=0)
    log_scale = np.array([0.5 * math.log(math.comb(twoj, kk)) for kk in range(twoj + 1)])
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    closure = _product_grid_closure(pair_sums, log_scale, phi, 2.0 * math.pi / n_phi)
    return (twoj + 1) / (4.0 * math.pi) * closure
