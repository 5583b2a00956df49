"""Canonical coherent states on the truncated Fock space.

States are labeled by a complex alpha (alpha = (q + i p)/sqrt(2) in units
hbar = omega = 1), with the oscillator ground state as fiducial vector and
the arbitrary overall phase fixed to zero, so the number-basis expansion is
exp(-|a|^2/2) sum_n a^n/sqrt(n!) |n>.  Those amplitudes are built outward
from the largest term (n near |a|^2) by factors of modulus <= 1, so no term
overflows at large |a|.

Phase-space measure: dp dq / (2 pi) = d^2alpha / pi.  Disc quadrature
uses a midpoint product rule in polar coordinates; uniform angular nodes
integrate the e^{i(n-m)theta} factors exactly below the aliasing order, so
off-diagonal number-basis elements vanish to roundoff.  Because the rule is
a tensor product, the closure sum factors into a radial Gram matrix times
the angular sums of e^{i(n-m)theta}, which the resolution check evaluates
separately instead of summing over every disc node.
"""

from __future__ import annotations

import cmath
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


def single_mode_amplitudes(alpha: complex, nmax: int) -> np.ndarray:
    """exp(-|a|^2/2) a^n / sqrt(n!) for n = 0..nmax, built outward from the largest term.

    The modulus peaks at n0 = min(floor(|a|^2), nmax).  Only that term is
    taken in log space; the others are running products of a/sqrt(n)
    upward and sqrt(n)/a downward, factors of modulus <= 1, so nothing
    overflows and the error of a term grows with its distance from n0, not
    with n log|a|.  The pivot's own rounding is one factor common to all
    terms, so it cancels from ratios of matrix elements.
    """
    alpha = complex(alpha)
    amps = np.zeros(nmax + 1, dtype=np.complex128)
    if alpha == 0:
        amps[0] = 1.0
        return amps
    r2 = abs(alpha) ** 2
    n0 = min(math.floor(r2), nmax)
    log_modulus = n0 * math.log(abs(alpha)) - 0.5 * (r2 + math.lgamma(n0 + 1))
    amps[n0] = cmath.rect(math.exp(log_modulus), n0 * cmath.phase(alpha))
    amps[n0 + 1 :] = amps[n0] * np.cumprod(alpha / np.sqrt(np.arange(n0 + 1, nmax + 1)))
    amps[:n0][::-1] = amps[n0] * np.cumprod(np.sqrt(np.arange(n0, 0, -1)) / alpha)
    return amps


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


@dataclass(frozen=True, eq=False)
class ResolutionReport:
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
    # the closure sum over the polar nodes, factored: node (r, theta) contributes
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
        n_keep=n_keep,
        matrix=mat,
        diag_expected=diag_expected,
        max_residual_block=resid,
        max_offdiag=max_offdiag,
    )
