"""Canonical coherent states on the truncated Fock space.

States are labeled by a phase-space point (p, q) or equivalently by
alpha = sqrt(omega/2hbar) q + i p / sqrt(2 omega hbar), with the oscillator
ground state as fiducial vector and the arbitrary overall phase fixed to
zero, so the number-basis expansion is exp(-|a|^2/2) sum_n a^n/sqrt(n!) |n>.

The overlap of two such states is the Gaussian reproducing kernel; the
closed form implemented here is the one reproduced term by term by the
truncated inner product (for equal omega the magnitude is the symmetric
Gaussian exp(-[(dp)^2+(dq)^2]/4hbar)).

Phase-space measure: dp dq / (2 pi hbar) = d^2alpha / pi.  Disc quadrature
uses a midpoint product rule in polar coordinates; uniform angular nodes
integrate the e^{i(n-m)theta} factors exactly below the aliasing order, so
off-diagonal number-basis elements vanish to roundoff.  Because the rule is
a tensor product, the closure sum factors into a radial Gram matrix times
the angular sums of e^{i(n-m)theta}, which the resolution check evaluates
separately instead of summing over every disc node.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import _kernels
from .fock import FockSpace, FockVector

TAIL_WARN = 1e-10
TAIL_ERROR = 1e-6
RESOLUTION_MAX_BYTES = 64 * 2**20  # radial amplitude block of the resolution check
CLOSURE_TAIL = 1e-8  # incomplete-gamma deficit below which a level counts as closed


class TruncationLeakageError(ValueError):
    """A coherent state loses more than TAIL_ERROR of its norm above the cutoff."""


@dataclass(frozen=True)
class CoherentLabel:
    """Phase-space label (p, q) with its units (omega, hbar) carried along."""

    p: float
    q: float
    omega: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        if self.omega <= 0 or self.hbar <= 0:
            raise ValueError("omega and hbar must be > 0")

    @property
    def alpha(self) -> complex:
        return complex(
            math.sqrt(self.omega / (2.0 * self.hbar)) * self.q,
            self.p / math.sqrt(2.0 * self.omega * self.hbar),
        )

    @classmethod
    def from_alpha(cls, alpha: complex, omega: float = 1.0, hbar: float = 1.0) -> "CoherentLabel":
        alpha = complex(alpha)
        q = math.sqrt(2.0 * hbar / omega) * alpha.real
        p = math.sqrt(2.0 * hbar * omega) * alpha.imag
        return cls(p=p, q=q, omega=omega, hbar=hbar)


@dataclass(frozen=True)
class KernelValue:
    """Complex value of the reproducing kernel between two labels."""

    value: complex

    @property
    def magnitude(self) -> float:
        return abs(self.value)

    @property
    def phase(self) -> float:
        return math.atan2(self.value.imag, self.value.real)


def single_mode_amplitudes(alpha: complex, nmax: int) -> np.ndarray:
    """exp(-|a|^2/2) a^n / sqrt(n!) for n = 0..nmax, evaluated in log space."""
    alpha = complex(alpha)
    n = np.arange(nmax + 1)
    if alpha == 0:
        amps = np.zeros(nmax + 1, dtype=np.complex128)
        amps[0] = 1.0
        return amps
    logmag = -0.5 * abs(alpha) ** 2 + n * math.log(abs(alpha)) - 0.5 * special.gammaln(n + 1)
    return np.exp(logmag) * np.exp(1j * n * math.atan2(alpha.imag, alpha.real))


def truncation_tail(alpha: complex, nmax: int) -> float:
    """Probability mass of the coherent state above occupation nmax."""
    return float(special.gammainc(nmax + 1, abs(alpha) ** 2))


def coherent_vector(space: FockSpace, alphas) -> FockVector:
    """Product coherent state with per-mode labels `alphas`.

    Amplitudes are exactly the series coefficients up to the cutoff (no
    renormalization); the norm deficit is the truncation leakage.  Leakage
    above TAIL_ERROR raises TruncationLeakageError, above TAIL_WARN warns.
    """
    if np.isscalar(alphas) or isinstance(alphas, complex):
        alphas = [alphas]
    alphas = [complex(a) for a in alphas]
    if len(alphas) != space.modes:
        raise ValueError(f"expected {space.modes} mode labels")
    survive = 1.0
    for a in alphas:
        tail = truncation_tail(a, space.nmax)
        if tail > TAIL_WARN:
            warnings.warn(
                f"coherent-state tail {tail:.3e} above occupation {space.nmax} for |alpha|={abs(a):.3f}",
                stacklevel=2,
            )
        survive *= 1.0 - tail
    leakage = 1.0 - survive
    if leakage > TAIL_ERROR:
        raise TruncationLeakageError(
            f"truncation leakage {leakage:.3e} exceeds {TAIL_ERROR:.0e}; raise nmax"
        )
    amps = single_mode_amplitudes(alphas[0], space.nmax)
    for a in alphas[1:]:
        # mode 0 varies fastest, so later modes go on the left of the kron
        amps = np.kron(single_mode_amplitudes(a, space.nmax), amps)
    return FockVector(space, amps)


def overlap_analytic(l1: CoherentLabel, l2: CoherentLabel) -> KernelValue:
    """<l1|l2> in closed form (Gaussian reproducing kernel).

    exp{ -omega (q1-q2)^2 / 4hbar - (p1-p2)^2 / 4 omega hbar
         + i (q1 p2 - p1 q2) / 2hbar }
    """
    if abs(l1.omega - l2.omega) > 1e-14 or abs(l1.hbar - l2.hbar) > 1e-14:
        raise ValueError("labels must share omega and hbar")
    w, hb = l1.omega, l1.hbar
    expo = (
        -w * (l1.q - l2.q) ** 2 / (4.0 * hb)
        - (l1.p - l2.p) ** 2 / (4.0 * w * hb)
        + 1j * (l1.q * l2.p - l1.p * l2.q) / (2.0 * hb)
    )
    return KernelValue(complex(np.exp(expo)))


def overlap_alpha(a_bra: complex, a_ket: complex) -> complex:
    """Kernel in alpha form: exp(-|a|^2/2 - |b|^2/2 + conj(a) b)."""
    a, b = complex(a_bra), complex(a_ket)
    return complex(np.exp(-0.5 * abs(a) ** 2 - 0.5 * abs(b) ** 2 + np.conj(a) * b))


@dataclass(frozen=True, eq=False)
class DiscGrid:
    """Midpoint polar quadrature nodes over |alpha| <= radius.

    weights carry the plain d^2alpha element r dr dtheta; the 1/pi of the
    resolution measure is applied by the consumers.
    """

    radius: float
    alphas: np.ndarray
    weights: np.ndarray


def _polar_nodes(radius: float, n_radial: int, n_angular: int):
    """Midpoint radii and angles of the polar rule, with their spacings."""
    if radius <= 0:
        raise ValueError("radius must be > 0")
    # >= 2 quadrature points per unit phase-space cell (disc holds R^2 cells)
    if n_radial * n_angular < 2.0 * radius**2:
        raise ValueError(
            f"grid {n_radial}x{n_angular} has fewer than 2 points per phase-space cell "
            f"(need >= {2.0 * radius ** 2:.0f} nodes for radius {radius})"
        )
    dr = radius / n_radial
    dth = 2.0 * math.pi / n_angular
    r = (np.arange(n_radial) + 0.5) * dr
    th = (np.arange(n_angular) + 0.5) * dth
    return r, dr, th, dth


def polar_disc_grid(radius: float, n_radial: int, n_angular: int) -> DiscGrid:
    r, dr, th, dth = _polar_nodes(radius, n_radial, n_angular)
    rr, tt = np.meshgrid(r, th, indexing="ij")
    alphas = (rr * np.exp(1j * tt)).ravel()
    weights = (rr * dr * dth).ravel()
    return DiscGrid(radius=radius, alphas=alphas, weights=weights)


@dataclass(frozen=True, eq=False)
class ResolutionReport:
    radius: float
    n_keep: int
    matrix: np.ndarray
    diag_expected: np.ndarray
    max_residual_block: float
    max_offdiag: float


def resolution_of_unity_check(
    space: FockSpace,
    radius: float,
    n_radial: int | None = None,
    n_angular: int | None = None,
) -> ResolutionReport:
    """Quadrature of (1/pi) int |a><a| d^2alpha over the disc |a| <= radius.

    Reports the deviation of the integrated operator from the identity on
    the block n <= n_keep, where n_keep is the largest level whose
    incomplete-gamma deficit 1 - P(n+1, R^2) stays below CLOSURE_TAIL.  The
    exact diagonal at finite radius is the regularized lower incomplete
    gamma P(n+1, R^2), returned for finite-radius checks.  A radial
    amplitude block (16 n_radial (nmax + 1) bytes) larger than
    RESOLUTION_MAX_BYTES is refused with ValueError before it is built.
    """
    if space.modes != 1:
        raise ValueError("resolution check is implemented for single-mode spaces")
    if n_angular is None:
        n_angular = max(8 * space.nmax, 16)
    if n_radial is None:
        # midpoint error ~ h^2/12 from the n = 0 integrand; keep it near 1e-7
        n_radial = max(256, int(512 * radius))
    block_bytes = 16 * n_radial * (space.nmax + 1)
    if block_bytes > RESOLUTION_MAX_BYTES:
        raise ValueError(
            f"radial amplitude block of {n_radial} nodes x {space.nmax + 1} levels needs "
            f"{block_bytes / 2**20:.0f} MiB (> {RESOLUTION_MAX_BYTES / 2**20:.0f} MiB); lower radius or nmax"
        )
    r, dr, th, dth = _polar_nodes(radius, n_radial, n_angular)
    # the polar_disc_grid closure sum, factored: node (r, theta) contributes
    # (r dr dtheta / pi) amp_n(r) amp_m(r) e^{i(n-m)theta} to entry (n, m)
    radial = _kernels.coherent_amp_matrix(r.astype(np.complex128), space.nmax).real
    radial_gram = (radial.T * (r * dr / math.pi)) @ radial
    shifts = np.arange(-space.nmax, space.nmax + 1)
    angular = dth * np.exp(1j * np.outer(shifts, th)).sum(axis=1)
    levels = np.arange(space.nmax + 1)
    mat = radial_gram * angular[levels[:, None] - levels[None, :] + space.nmax]

    diag_expected = special.gammainc(levels + 1, radius**2)
    deficit = special.gammaincc(levels + 1, radius**2)
    qualifying = np.nonzero(deficit < CLOSURE_TAIL)[0]
    n_keep = int(qualifying.max()) if qualifying.size else -1

    offdiag = mat - np.diag(np.diag(mat))
    max_offdiag = float(np.max(np.abs(offdiag)))
    if n_keep >= 0:
        block = mat[: n_keep + 1, : n_keep + 1]
        resid = float(np.max(np.abs(block - np.eye(n_keep + 1))))
    else:
        resid = math.nan
    return ResolutionReport(
        radius=radius,
        n_keep=n_keep,
        matrix=mat,
        diag_expected=diag_expected,
        max_residual_block=resid,
        max_offdiag=max_offdiag,
    )


@dataclass(frozen=True, eq=False)
class PropagationReport:
    probe_alphas: np.ndarray
    reproduced: np.ndarray
    direct: np.ndarray
    max_error: float


def reproducing_propagation(
    space: FockSpace,
    psi: FockVector,
    grid: DiscGrid,
    probe_alphas,
) -> PropagationReport:
    """Propagate <a|psi> samples through the kernel quadrature.

    reproduced(a') = (1/pi) sum_k w_k K(a', a_k) <a_k|psi>, compared against
    the direct inner product at the probe labels.
    """
    if space.modes != 1:
        raise ValueError("reproducing propagation is implemented for single-mode spaces")
    probe_alphas = np.asarray(probe_alphas, dtype=np.complex128)
    probe_amps = _kernels.coherent_amp_matrix(probe_alphas, space.nmax)
    reproduced = np.zeros(probe_alphas.size, dtype=np.complex128)
    chunk = 65536
    for lo in range(0, grid.alphas.size, chunk):
        hi = min(lo + chunk, grid.alphas.size)
        node_amps = _kernels.coherent_amp_matrix(grid.alphas[lo:hi], space.nmax)
        f = node_amps.conj() @ psi.amps
        # K(a', a_k) = <a'|a_k> via the amplitude matrices (exact up to truncation)
        kernel = probe_amps.conj() @ node_amps.T
        reproduced += kernel @ (grid.weights[lo:hi] / math.pi * f)
    direct = probe_amps.conj() @ psi.amps
    return PropagationReport(
        probe_alphas=probe_alphas,
        reproduced=reproduced,
        direct=direct,
        max_error=float(np.max(np.abs(reproduced - direct))),
    )


def kernel_composition_residual(grid: DiscGrid, a_bra: complex, a_ket: complex) -> float:
    """|int K(a', k) K(k, a) dmu(k) - K(a', a)| under the grid quadrature."""
    m = grid.alphas
    mag2 = np.abs(m) ** 2
    left = np.exp(-0.5 * abs(a_bra) ** 2 - 0.5 * mag2 + np.conj(a_bra) * m)
    right = np.exp(-0.5 * mag2 - 0.5 * abs(a_ket) ** 2 + np.conj(m) * a_ket)
    lhs = np.sum(grid.weights / math.pi * left * right)
    return float(abs(lhs - overlap_alpha(a_bra, a_ket)))
