"""Canonical coherent states on the truncated Fock space.

States are labeled by a complex alpha (alpha = (q + i p)/sqrt(2) in units
hbar = omega = 1), with the oscillator ground state as fiducial vector and
the arbitrary overall phase fixed to zero, so the number-basis expansion is
exp(-|a|^2/2) sum_n a^n/sqrt(n!) |n>.  coherent_vector returns those
amplitudes as one complex array in basis order.  They are built outward
from the largest term (n near |a|^2), taken from the accurate log-Poisson
term, by factors of modulus <= 1, so no term overflows at large |a|.  A
label with |a| >= sqrt(nmax + 1) has most of its norm above the cutoff and
is refused before any amplitude is built.

Phase-space measure: dp dq / (2 pi) = d^2alpha / pi.  Disc quadrature
uses a midpoint product rule in polar coordinates; uniform angular nodes
integrate the e^{i(n-m)theta} factors exactly below the aliasing order, so
off-diagonal number-basis elements vanish to roundoff.  Because the rule is
a tensor product, the closure sum factors into a radial Gram matrix times
the angular sums of e^{i(n-m)theta}, which the resolution check evaluates
separately instead of summing over every disc node.

|<n|a>|^2 is the Poisson(|a|^2) probability of n, so the norm lost above
the cutoff and the closure of the disc at finite radius R are Poisson
tails: Pr[N > n] = P(n+1, x) and Pr[N <= n] = Q(n+1, x), the regularized
incomplete gamma functions at integer order (DLMF 8.4).  Each tail is
summed from its far end, so a tail near the warning or closure threshold
keeps its relative accuracy.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .fock import FockSpace

TAIL_WARN = 1e-10
TAIL_ERROR = 1e-6
RESOLUTION_MAX_BYTES = 64 * 2**20  # radial amplitude block (and its weighted copy) of the resolution check
CLOSURE_TAIL = 1e-8  # Poisson lower tail (closure deficit) below which a level counts as closed
_EPS = float(np.finfo(np.float64).eps)


class TruncationLeakageError(ValueError):
    """A coherent state loses more than TAIL_ERROR of its norm above the cutoff."""


def log_poisson_term(x: float, n: int) -> float:
    """ln(e^-x x^n / n!), the log of the Poisson(x) probability of n, to a few ulps of the term.

    From n = 20 it is n (ln(x/n) - d) - ln(2 pi n)/2 minus the Stirling
    series 1/(12 n) - 1/(360 n^3) + ... of ln n!, with d = (x - n)/n and
    ln(x/n) = log1p(d) near x = n.  These terms do not cancel; the direct
    n ln x - x - lgamma(n + 1) would lose ~ x eps.  At x = 0 the term is -x
    for n = 0 and -inf above.
    """
    if x == 0:
        return -x if n == 0 else -math.inf
    if n < 20:
        return n * math.log(x) - x - math.lgamma(n + 1)
    d = (x - n) / n
    # far below n, d rounds toward -1 (log1p(-1) is a domain error) and ln(x/n) is the accurate form
    log_ratio = math.log1p(d) if d > -0.5 else math.log(x / n)
    stirling = 1 / (12 * n) - 1 / (360 * n**3) + 1 / (1260 * n**5) - 1 / (1680 * n**7)
    return n * (log_ratio - d) - 0.5 * math.log(2 * math.pi * n) - stirling


def single_mode_amplitudes(alpha: complex, nmax: int) -> np.ndarray:
    """exp(-|a|^2/2) a^n / sqrt(n!) for n = 0..nmax, built outward from the largest term.

    The modulus peaks at n0 = min(floor(|a|^2), nmax).  Only that term is
    taken in log space (log_poisson_term, so it is good to a few ulps); the
    others are running products of a/sqrt(n) upward and sqrt(n)/a
    downward, factors of modulus <= 1, so nothing overflows and the error
    of a term grows with its distance from n0, not with n log|a|.
    """
    alpha = complex(alpha)
    amps = np.zeros(nmax + 1, dtype=np.complex128)
    if alpha == 0:
        amps[0] = 1.0
        return amps
    r2 = abs(alpha) ** 2
    n0 = min(math.floor(r2), nmax)
    amps[n0] = cmath.rect(math.exp(0.5 * log_poisson_term(r2, n0)), n0 * cmath.phase(alpha))
    amps[n0 + 1 :] = amps[n0] * np.cumprod(alpha / np.sqrt(np.arange(n0 + 1, nmax + 1)))
    amps[:n0][::-1] = amps[n0] * np.cumprod(np.sqrt(np.arange(n0, 0, -1)) / alpha)
    return amps


def _poisson_tail_above(p_n: float, x: float, n: int) -> float:
    """sum_{k > n} e^-x x^k / k!, the Poisson(x) tail above n, from the term p_n; x < n + 1.

    The terms p_{k+1} = p_k x / (k + 1) fall by ratios below 1, so the sum
    stops once the bound p_k r / (1 - r), r = x / (k + 1), on what is left
    is below an ulp of the running total.
    """
    total, term, k = 0.0, float(p_n), n + 1
    while True:
        term *= x / k
        total += term
        if term == 0.0 or term * x <= _EPS * (k + 1 - x) * total:
            return total
        k += 1


def _poisson_pmf(x: float, nmax: int) -> np.ndarray:
    """e^-x x^n / n! for n = 0..nmax, x > 0, built outward from n0 = min(floor(x), nmax).

    Like single_mode_amplitudes, only the pivot n0 is taken in log space
    (log_poisson_term) and the rest are running products of factors <= 1.
    """
    n0 = min(math.floor(x), nmax)
    pmf = np.empty(nmax + 1)
    pmf[n0] = math.exp(log_poisson_term(x, n0))
    pmf[n0 + 1 :] = pmf[n0] * np.cumprod(x / np.arange(n0 + 1, nmax + 1))
    pmf[:n0][::-1] = pmf[n0] * np.cumprod(np.arange(n0, 0, -1) / x)
    return pmf


def _poisson_tails(x: float, nmax: int):
    """(Pr[N > n], Pr[N <= n]) for N ~ Poisson(x), x > 0, at n = 0..nmax.

    These are P(n+1, x) and Q(n+1, x).  Below the mean the lower tail is
    the smaller: it is a running sum upward from n = 0.  From the mean on
    the upper tail is: it is the tail above nmax (_poisson_tail_above) plus
    a running sum downward from nmax.  Each other side is 1 minus the
    small one, which is at least ~0.3 where the sides meet.
    """
    pmf = _poisson_pmf(x, nmax)
    split = min(math.ceil(x), nmax + 1)  # levels n < x
    lower = np.empty(nmax + 1)
    upper = np.empty(nmax + 1)
    lower[:split] = np.cumsum(pmf[:split])
    upper[:split] = 1.0 - lower[:split]
    if split <= nmax:
        far = _poisson_tail_above(pmf[nmax], x, nmax)
        upper[split:] = np.cumsum(np.concatenate(([far], pmf[nmax:split:-1])))[::-1]
        lower[split:] = 1.0 - upper[split:]
    return upper, lower


def truncation_tail(amps: np.ndarray, alpha: complex) -> float:
    """Probability mass above the last level of amps, the coherent state alpha's amplitudes.

    That mass is the Poisson(|alpha|^2) tail above nmax = amps.size - 1,
    summed from |amps[nmax]|^2 upward; it needs |alpha|^2 < nmax + 1,
    which coherent_vector checks first.
    """
    return _poisson_tail_above(abs(amps[-1]) ** 2, abs(alpha) ** 2, amps.size - 1)


def coherent_vector(space: FockSpace, alphas) -> np.ndarray:
    """Amplitudes of the product coherent state with per-mode labels `alphas`, in basis order.

    Amplitudes are exactly the series coefficients up to the cutoff (no
    renormalization); the norm deficit is the truncation leakage.  Leakage
    above TAIL_ERROR raises TruncationLeakageError, above TAIL_WARN warns.
    A label with |alpha| >= sqrt(nmax + 1) puts the Poisson median above
    the cutoff, so its leakage is of order 1: it is refused before any
    amplitude is built, which also keeps |alpha|^2 finite.
    """
    if np.isscalar(alphas) or isinstance(alphas, complex):
        alphas = [alphas]
    alphas = [complex(a) for a in alphas]
    if len(alphas) != space.modes:
        raise ValueError(f"expected {space.modes} mode labels")
    for a in alphas:
        modulus = math.hypot(a.real, a.imag)  # abs(a) overflows from |alpha| ~ 1.8e308
        if modulus >= math.sqrt(space.nmax + 1):
            raise TruncationLeakageError(
                f"|alpha|={modulus:.3e} is at least sqrt(nmax + 1): most of the state lies above "
                f"occupation {space.nmax}; raise nmax"
            )
    survive = 1.0
    mode_amps = []
    for a in alphas:
        mode_amps.append(single_mode_amplitudes(a, space.nmax))
        tail = truncation_tail(mode_amps[-1], a)
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
    amps = mode_amps[0]
    for mode in mode_amps[1:]:
        # mode 0 varies fastest, so later modes go on the left of the kron
        amps = np.kron(mode, amps)
    return amps


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
    the block n <= n_keep, where n_keep is the largest level whose closure
    deficit Q(n+1, R^2) = Pr[Poisson(R^2) <= n] stays below CLOSURE_TAIL.
    The exact diagonal at finite radius is P(n+1, R^2) = Pr[Poisson(R^2) > n],
    returned for finite-radius checks.  A real radial amplitude block and
    its weighted copy (16 n_radial (nmax + 1) bytes together) larger than
    RESOLUTION_MAX_BYTES are refused with ValueError before they are built.
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
    radial = _kernels.coherent_amp_matrix(r, space.nmax)
    radial_gram = (radial.T * (r * dr / math.pi)) @ radial
    shifts = np.arange(-space.nmax, space.nmax + 1)
    angular = dth * np.exp(1j * np.outer(shifts, th)).sum(axis=1)
    levels = np.arange(space.nmax + 1)
    mat = radial_gram * angular[levels[:, None] - levels[None, :] + space.nmax]

    diag_expected, deficit = _poisson_tails(radius**2, space.nmax)
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
