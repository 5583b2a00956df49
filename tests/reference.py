"""Dense and brute-force constructions that the tests compare the package against.

Plain numpy on arrays, in units hbar = omega = 1: dense operator matrices,
correlation ratios from them on the whole truncated space, the closed-form
reproducing kernel and physical-state wavefunction, node-by-node disc
quadrature, the projector identities and the heat-kernel moments.  None of
it runs in an experiment; each function is the slow or closed-form side of
a comparison.
"""

import functools
import math

import numpy as np

from csquant import wiener
from csquant.coherent import coherent_vector
from csquant.fock import make_space
from csquant.projector import build_projector, number_constraint, sin_kernel_weights

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
    """Dense (a, a^dagger) of one mode: sqrt(n) above the diagonal, kron'd with identities; a^dagger drops the top."""
    a = np.ones((1, 1), dtype=np.complex128)
    for k in reversed(range(space.modes)):  # mode 0 varies fastest, so it is the rightmost factor
        a = np.kron(a, np.diag(np.sqrt(np.arange(1.0, space.nmax + 1)), 1) if k == mode else np.eye(space.nmax + 1))
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


def coherent_amp_matrix(alphas, nmax):
    """Row k holds the number-basis amplitudes exp(-|a|^2/2) a^n / sqrt(n!) of the coherent state alphas[k].

    Built by the recurrence amp[:, n] = amp[:, n-1] * a / sqrt(n), node by
    node: the dense side of the closure comparisons.
    """
    alphas = np.asarray(alphas, dtype=np.complex128)
    out = np.empty((alphas.size, nmax + 1), dtype=np.complex128)
    out[:, 0] = np.exp(-0.5 * np.abs(alphas) ** 2)
    for n in range(1, nmax + 1):
        out[:, n] = out[:, n - 1] * alphas / np.sqrt(n)
    return out


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
    probe_amps = coherent_amp_matrix(probes, nmax)
    reproduced = np.zeros(len(probes), dtype=np.complex128)
    for lo in range(0, nodes.size, 65536):
        node_amps = coherent_amp_matrix(nodes[lo : lo + 65536], nmax)
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
    w_sin = sin_kernel_weights(eigs, epsilon)
    return float(np.max(np.abs(w_sin - build_projector(constraint, epsilon))))


# ---------------------------------------------------------------------------
# correlators


def phys_wavefunction(ket, evaluation, mprime: int) -> complex:
    """<e| P |ket> in closed form, one label per mode: exp(-sum |.|^2 / 2) z^m / m!, z = sum_k conj(e_k) ket_k."""
    ket = np.atleast_1d(np.asarray(ket, dtype=np.complex128))
    evaluation = np.atleast_1d(np.asarray(evaluation, dtype=np.complex128))
    gauss = math.exp(-0.5 * float(np.sum(np.abs(ket) ** 2 + np.abs(evaluation) ** 2)))
    z = complex(np.sum(np.conj(evaluation) * ket))
    if z == 0:
        return complex(gauss * (mprime == 0))
    return complex(gauss * np.exp(mprime * np.log(z) - math.lgamma(mprime + 1)))


def dense_ratios(ket, evals, mprime: int, nmax: int) -> np.ndarray:
    """<e| op P |ket> / <e| P |ket> for op = H, Q, P of mode 0, from dense matrices on the whole truncated space."""
    space = make_space(np.size(ket), nmax)
    projected = build_projector(number_constraint(space, float(mprime))) * coherent_vector(space, ket)
    hamiltonian = sum(ho_hamiltonian(space, k) for k in range(space.modes))
    ops = [hamiltonian, position_operator(space, 0), momentum_operator(space, 0)]
    rows = []
    for label in evals:
        bra = coherent_vector(space, label)
        rows.append([np.vdot(bra, op @ projected) / np.vdot(bra, projected) for op in ops])
    return np.array(rows)


# ---------------------------------------------------------------------------
# heat kernel


def simpson_product_grid(centers, half_width: float, n: int):
    """Tensor-product Simpson rule in d = 1 or 2: points (n, ..., n, d), weights (n, ..., n)."""
    grids = [wiener._simpson_grid(c, half_width, n) for c in centers]
    points = np.stack(np.meshgrid(*(x for x, _ in grids), indexing="ij"), axis=-1)
    weights = functools.reduce(np.multiply.outer, (w for _, w in grids))
    return points, weights


def semigroup_grid_residual(nu, t1, t2, t3, x1, x3, n_nodes: int = 257) -> float:
    """semigroup_residual's quadrature as one d-dimensional kernel evaluation over the whole tensor-product grid."""
    x1 = np.atleast_1d(np.asarray(x1, dtype=np.float64))
    x3 = np.atleast_1d(np.asarray(x3, dtype=np.float64))
    direct = wiener.heat_kernel(nu * (t3 - t1), x1, x3)
    spread = 8.0 * math.sqrt(nu * (t3 - t1)) + float(np.max(np.abs(x3 - x1)))
    points, weights = simpson_product_grid(0.5 * (x1 + x3), spread, n_nodes)
    integrand = wiener.heat_kernel(nu * (t2 - t1), x1, points) * wiener.heat_kernel(nu * (t3 - t2), points, x3)
    return abs(float(np.sum(weights * integrand)) - direct)


def kernel_normalization_residual(variance, x1, n_nodes: int = 513) -> float:
    """|int rho(x1, x2) dx2 - 1| by Simpson quadrature over +-8 standard deviations."""
    x1 = np.atleast_1d(np.asarray(x1, dtype=np.float64))
    points, weights = simpson_product_grid(x1, 8.0 * math.sqrt(variance), n_nodes)
    return abs(float(np.sum(weights * wiener.heat_kernel(variance, x1, points))) - 1.0)


def kernel_variance(variance, n_nodes: int = 513) -> float:
    """Second moment of the 1-d kernel about its start, by Simpson quadrature."""
    xs, ws = wiener._simpson_grid(0.0, 8.0 * math.sqrt(variance), n_nodes)
    return float(np.sum(ws * xs**2 * wiener.heat_kernel(variance, [0.0], xs[:, None])))
