"""Two-mode (Schwinger) spin operators and SU(2) coherent states.

The bilinears S1 = (a b+ + a+ b)/2, S2 = i(a b+ - a+ b)/2,
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

from .fock import FockSpace, LinearOperator, from_diagonal, ladder

@dataclass(frozen=True, eq=False)
class SpinOperators:
    """Schwinger spin matrices on a two-mode Fock space."""

    space: FockSpace
    s1: LinearOperator
    s2: LinearOperator
    s3: LinearOperator
    s0: LinearOperator

    @property
    def splus(self) -> LinearOperator:
        return self.s1 + 1j * self.s2

    def casimir(self) -> LinearOperator:
        return self.s1 @ self.s1 + self.s2 @ self.s2 + self.s3 @ self.s3


def schwinger_operators(space: FockSpace) -> SpinOperators:
    if space.modes != 2:
        raise ValueError("Schwinger construction needs exactly two modes")
    a, adag = ladder(space, 0)
    b, bdag = ladder(space, 1)
    ab_dag = a @ bdag
    adag_b = adag @ b
    s1 = 0.5 * (ab_dag + adag_b)
    s2 = 0.5j * (ab_dag - adag_b)
    # diagonal halves built exactly from integer occupations
    na = space.mode_occupations(0).astype(np.float64)
    nb = space.mode_occupations(1).astype(np.float64)
    s3 = from_diagonal(space, 0.5 * (na - nb))
    s0 = from_diagonal(space, 0.5 * (na + nb))
    return SpinOperators(space=space, s1=s1, s2=s2, s3=s3, s0=s0)


@dataclass(frozen=True, eq=False)
class SectorMap:
    """Bijection between the total-occupation-mprime sector and a spin-j multiplet."""

    space: FockSpace
    mprime: int
    j: float
    fock_indices: np.ndarray  # ordered by m = -j .. +j, i.e. n = 0 .. mprime

    @property
    def m_values(self) -> np.ndarray:
        return np.arange(-self.j, self.j + 1)

    def restrict(self, op: LinearOperator) -> np.ndarray:
        """Matrix of `op` in the mapped |j, m> basis."""
        idx = self.fock_indices
        return op.mat[np.ix_(idx, idx)]

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
    """Amplitudes over |j, m>, m = -j..j, optionally carrying its label xi."""

    j: float
    amps: np.ndarray
    xi: complex | None = None

    def __post_init__(self):
        dim = int(round(2 * self.j)) + 1
        amps = np.asarray(self.amps, dtype=np.complex128)
        if amps.shape != (dim,):
            raise ValueError(f"spin-{self.j} state needs {dim} amplitudes")
        object.__setattr__(self, "amps", amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


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
    return SpinState(j=j, amps=amps, xi=xi)


def su2_overlap(j: float, xi_bra: complex, xi_ket: complex) -> complex:
    """<xi_bra | xi_ket> in closed form, as the integer power 2j of a ratio.

    (1 + conj(xi') xi) / sqrt((1+|xi'|^2)(1+|xi|^2)) has modulus <= 1
    (Cauchy-Schwarz), so its power cannot overflow at any j.
    """
    twoj = _check_j(j)
    xb, xk = complex(xi_bra), complex(xi_ket)
    ratio = (1.0 + xb.conjugate() * xk) / (math.hypot(1.0, abs(xb)) * math.hypot(1.0, abs(xk)))
    return ratio**twoj


def spin_matrices(j: float):
    """(jx, jy, jz) in the |j, m> basis with m ascending."""
    twoj = _check_j(j)
    m = np.arange(-j, j + 1)
    jz = np.diag(m).astype(np.complex128)
    raise_diag = np.sqrt((j - m[:-1]) * (j + m[:-1] + 1))
    jplus = np.zeros((twoj + 1, twoj + 1), dtype=np.complex128)
    jplus[np.arange(1, twoj + 1), np.arange(twoj)] = raise_diag
    jminus = jplus.conj().T
    jx = 0.5 * (jplus + jminus)
    jy = -0.5j * (jplus - jminus)
    return jx, jy, jz


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


@dataclass(frozen=True)
class UncertaintyReport:
    var_product: float
    quarter_mean_s3_sq: float
    rotated_var_product: float
    rotated_quarter_s3_sq: float

    @property
    def rotated_saturation_ratio(self) -> float:
        return self.rotated_var_product / self.rotated_quarter_s3_sq


def _rotation_to_minus_z(u: np.ndarray) -> np.ndarray:
    v = np.array([0.0, 0.0, -1.0])
    c = float(u @ v)
    axis = np.cross(u, v)
    s = float(np.linalg.norm(axis))
    if s < 1e-14:
        if c > 0:
            return np.eye(3)
        return np.diag([1.0, -1.0, -1.0])  # u = +z: flip about the x axis
    k = axis / s
    kx = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
    return np.eye(3) + s * kx + (1.0 - c) * (kx @ kx)


def uncertainty_product(j: float, xi: complex) -> UncertaintyReport:
    """Variance products of the transverse spin components for |xi>.

    Raw frame: Var(S1) Var(S2) against (1/4)<S3>^2.  Rotated frame: the
    same after rotating the operators so the mean spin points along -z,
    where coherent states saturate the bound at j^2/4 = (1/4)<S0>^2.
    """
    state = su2_coherent(j, xi).amps
    jx, jy, jz = spin_matrices(j)
    ops = [jx, jy, jz]

    def ev(op):
        return float(np.real(np.vdot(state, op @ state)))

    def var(op):
        return float(np.real(np.vdot(state, op @ (op @ state)))) - ev(op) ** 2

    report_raw = (var(jx) * var(jy), 0.25 * ev(jz) ** 2)
    mean = np.array([ev(jx), ev(jy), ev(jz)])
    norm = np.linalg.norm(mean)
    if norm < 1e-14:
        rot = np.eye(3)
    else:
        rot = _rotation_to_minus_z(mean / norm)
    rops = [sum(rot[i, k] * ops[k] for k in range(3)) for i in range(3)]
    report_rot = (var(rops[0]) * var(rops[1]), 0.25 * ev(rops[2]) ** 2)
    return UncertaintyReport(
        var_product=report_raw[0],
        quarter_mean_s3_sq=report_raw[1],
        rotated_var_product=report_rot[0],
        rotated_quarter_s3_sq=report_rot[1],
    )
