"""Dense and brute-force constructions that the tests compare the package against.

Plain numpy on arrays, in units hbar = omega = 1: dense operator matrices
built from `fock.lower`, the closed-form reproducing kernel and
physical-state wavefunction, node-by-node disc quadrature, the projector
identities and the heat-kernel moments.  None of it runs in an experiment;
each function is the slow or closed-form side of a comparison.
"""

import math

import numpy as np

from csquant import _kernels, fock, wiener
from csquant.coherent import coherent_vector
from csquant.projector import build_projector, default_lam_max, sin_kernel_weights

# ---------------------------------------------------------------------------
# Fock space and dense operators


def occupation(space, index: int) -> tuple:
    """Occupation tuple of a basis index (mode 0 fastest)."""
    if not 0 <= index < space.dim:
        raise IndexError(f"basis index {index} outside [0, {space.dim})")
    return tuple((index // (space.nmax + 1) ** k) % (space.nmax + 1) for k in range(space.modes))


def index(space, occ) -> int:
    """Basis index of an occupation tuple (mode 0 fastest)."""
    if len(occ) != space.modes:
        raise ValueError(f"expected {space.modes} occupation numbers")
    idx = 0
    for n in reversed(occ):
        if not 0 <= n <= space.nmax:
            raise ValueError(f"occupation {n} outside [0, {space.nmax}]")
        idx = idx * (space.nmax + 1) + n
    return idx


def basis_vector(space, occ) -> np.ndarray:
    amps = np.zeros(space.dim, dtype=np.complex128)
    amps[index(space, occ)] = 1.0
    return amps


def ladder(space, mode: int):
    """Dense (a, a^dagger) of one mode: lower() of the identity; a^dagger drops the top level."""
    a = fock.lower(space, mode, np.eye(space.dim, dtype=np.complex128))
    return a, a.conj().T


def number_operator(space, mode: int) -> np.ndarray:
    return np.diag(space.mode_occupations(mode).astype(np.complex128))


def ho_hamiltonian(space, mode: int) -> np.ndarray:
    """n + 1/2 of one mode, diagonal in the occupation basis."""
    return np.diag(space.mode_occupations(mode) + 0.5).astype(np.complex128)


def position_operator(space, mode: int) -> np.ndarray:
    a, adag = ladder(space, mode)
    return math.sqrt(0.5) * (a + adag)


def momentum_operator(space, mode: int) -> np.ndarray:
    a, adag = ladder(space, mode)
    return 1j * math.sqrt(0.5) * (adag - a)


def commutator(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x @ y - y @ x


def schwinger_operators(space):
    """(S1, S2, S3, S0) of a two-mode space as dense matrices."""
    if space.modes != 2:
        raise ValueError("Schwinger construction needs exactly two modes")
    a, adag = ladder(space, 0)
    b, bdag = ladder(space, 1)
    na = space.mode_occupations(0).astype(np.float64)
    nb = space.mode_occupations(1).astype(np.float64)
    s1 = 0.5 * (a @ bdag + adag @ b)
    s2 = 0.5j * (a @ bdag - adag @ b)
    return s1, s2, np.diag(0.5 * (na - nb)).astype(complex), np.diag(0.5 * (na + nb)).astype(complex)


# ---------------------------------------------------------------------------
# coherent states


def overlap_alpha(a_bra: complex, a_ket: complex) -> complex:
    """<a|b> = exp(-|a - b|^2 / 2 + i Im(conj(a) b)), the Gaussian reproducing kernel."""
    a, b = complex(a_bra), complex(a_ket)
    return complex(np.exp(-0.5 * abs(a - b) ** 2 + 1j * (a.conjugate() * b).imag))


def polar_disc_grid(radius: float, n_radial: int, n_angular: int):
    """Nodes and weights (r dr dtheta) of the midpoint polar rule over |alpha| <= radius."""
    dr, dth = radius / n_radial, 2.0 * math.pi / n_angular
    r = (np.arange(n_radial) + 0.5) * dr
    th = (np.arange(n_angular) + 0.5) * dth
    rr, tt = np.meshgrid(r, th, indexing="ij")
    return (rr * np.exp(1j * tt)).ravel(), (rr * dr * dth).ravel()


def reproducing_propagation(psi: np.ndarray, nodes, weights, probes):
    """((1/pi) sum_k w_k <a'|a_k> <a_k|psi>, <a'|psi>) at each probe a', over node chunks."""
    nmax = psi.size - 1
    probe_amps = _kernels.coherent_amp_matrix(probes, nmax)
    reproduced = np.zeros(len(probes), dtype=np.complex128)
    for lo in range(0, nodes.size, 65536):
        node_amps = _kernels.coherent_amp_matrix(nodes[lo : lo + 65536], nmax)
        kernel = probe_amps.conj() @ node_amps.T
        reproduced += kernel @ (weights[lo : lo + 65536] / math.pi * (node_amps.conj() @ psi))
    return reproduced, probe_amps.conj() @ psi


def kernel_composition_residual(nodes, weights, a_bra: complex, a_ket: complex) -> float:
    """|(1/pi) sum_k w_k K(a', a_k) K(a_k, a) - K(a', a)| under the disc rule."""
    mag2 = np.abs(nodes) ** 2
    left = np.exp(-0.5 * abs(a_bra) ** 2 - 0.5 * mag2 + np.conj(a_bra) * nodes)
    right = np.exp(-0.5 * mag2 - 0.5 * abs(a_ket) ** 2 + np.conj(nodes) * a_ket)
    return float(abs(np.sum(weights / math.pi * left * right) - overlap_alpha(a_bra, a_ket)))


# ---------------------------------------------------------------------------
# projector


def projector_identities(constraint, hamiltonian: np.ndarray, epsilon=0.1, sigmas=(0.3, 1.7, math.pi)) -> dict:
    """Residuals of P^2 = P, P+ = P, exp(i s Phi) P = P and [P, U(t)] = 0 at t = 0.5, 2.

    Keys: "idempotency", "hermiticity", "gauge@<sigma>", "evolution@<t>".
    U(t) comes from the eigendecomposition of the Hermitian H; a
    non-Hermitian H raises ValueError.
    """
    if not np.allclose(hamiltonian, hamiltonian.conj().T, rtol=0.0, atol=1e-12):
        raise ValueError("hamiltonian must be Hermitian")
    w = build_projector(constraint, epsilon)
    eigs = constraint.eigs
    report = {
        "idempotency": float(np.max(np.abs(w * w - w))),
        "hermiticity": float(np.max(np.abs(w - np.conj(w)))),
    }
    for sigma in sigmas:
        report[f"gauge@{sigma}"] = float(np.max(np.abs((np.exp(1j * sigma * eigs) - 1.0) * w)))
    energies, vecs = np.linalg.eigh(hamiltonian)
    for t in (0.5, 2.0):
        u = (vecs * np.exp(-1j * t * energies)) @ vecs.conj().T
        report[f"evolution@{t}"] = float(np.max(np.abs(np.subtract.outer(w, w) * u)))
    return report


def projected_propagator(constraint, alphas_bra, alphas_ket, epsilon=0.1) -> complex:
    """<coherent(bra)| P |coherent(ket)> on the constraint's space."""
    bra = coherent_vector(constraint.space, alphas_bra)
    return complex(np.vdot(bra, build_projector(constraint, epsilon) * coherent_vector(constraint.space, alphas_ket)))


def sin_kernel_residual(constraint, epsilon) -> float:
    """max |sin-kernel weights - spectral weights| at the constraint's spectrum."""
    eigs = constraint.eigs
    w_sin = sin_kernel_weights(eigs, epsilon, default_lam_max(epsilon, eigs))
    return float(np.max(np.abs(w_sin - build_projector(constraint, epsilon))))


# ---------------------------------------------------------------------------
# correlators


def phys_wavefunction(model: str, ket, evaluation, mprime: int) -> complex:
    """<e| P |ket> in closed form: exp(-sum |.|^2 / 2) z^m / m!, z = sum_k conj(e_k) ket_k."""
    ket = np.atleast_1d(np.asarray(ket, dtype=np.complex128))
    evaluation = np.atleast_1d(np.asarray(evaluation, dtype=np.complex128))
    if ket.size != (1 if model == "single" else 2):
        raise ValueError(f"unknown model {model!r} for {ket.size} labels")
    gauss = math.exp(-0.5 * float(np.sum(np.abs(ket) ** 2 + np.abs(evaluation) ** 2)))
    z = complex(np.sum(np.conj(evaluation) * ket))
    if z == 0:
        return complex(gauss * (mprime == 0))
    return complex(gauss * np.exp(mprime * np.log(z) - math.lgamma(mprime + 1)))


# ---------------------------------------------------------------------------
# heat kernel


def kernel_normalization_residual(variance, x1, n_nodes: int = 513) -> float:
    """|int rho(x1, x2) dx2 - 1| by Simpson quadrature over +-8 standard deviations."""
    x1 = np.atleast_1d(np.asarray(x1, dtype=np.float64))
    points, weights = wiener._simpson_product_grid(x1, 8.0 * math.sqrt(variance), n_nodes)
    return abs(float(np.sum(weights * wiener.heat_kernel(variance, x1, points))) - 1.0)


def kernel_variance(variance, n_nodes: int = 513) -> float:
    """Second moment of the 1-d kernel about its start, by Simpson quadrature."""
    xs, ws = wiener._simpson_grid(0.0, 8.0 * math.sqrt(variance), n_nodes)
    return float(np.sum(ws * xs**2 * wiener.heat_kernel(variance, [0.0], xs[:, None])))
