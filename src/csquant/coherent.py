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
the angular sums of e^{i(n-m)theta}.  The Gram follows from 2 nmax + 1
radial sums of adjacent-level products (_product_grid_closure), which the
resolution check streams over the radial nodes in a fixed order.

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

from .fock import FockSpace

TAIL_WARN = 1e-10
TAIL_ERROR = 1e-6
RESOLUTION_MAX_BYTES = 64 * 2**20  # radial vectors and (nmax + 1)^2 closure arrays of the resolution check
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


def single_mode_amplitudes(alpha: complex, low: int, nmax: int) -> np.ndarray:
    """exp(-|a|^2/2) a^n / sqrt(n!) for n = low..nmax, built outward from the window's largest term.

    The pivot n0, the peak level floor(|a|^2) clamped into low..nmax, is taken
    in log space (log_poisson_term, so it is good to a few ulps); the others
    are running products of a/sqrt(n) upward and sqrt(n)/a downward, factors
    of modulus <= 1, so nothing overflows and the error of a term grows with
    its distance from n0, not with n log|a|.  Level -1 is sqrt(0)/a times level 0: 0.
    """
    alpha = complex(alpha)
    amps = np.zeros(nmax + 1 - low, dtype=np.complex128)
    if alpha == 0:
        if low <= 0:
            amps[-low] = 1.0
        return amps
    r2 = abs(alpha) ** 2
    n0 = min(max(math.floor(r2), low), nmax)
    k = n0 - low  # the pivot's index
    amps[k] = cmath.rect(math.exp(0.5 * log_poisson_term(r2, n0)), n0 * cmath.phase(alpha))
    amps[k + 1 :] = amps[k] * np.cumprod(alpha / np.sqrt(np.arange(n0 + 1, nmax + 1)))
    amps[:k][::-1] = amps[k] * np.cumprod(np.sqrt(np.arange(n0, low, -1)) / alpha)
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


def _poisson_tails(x: float, nmax: int):
    """(Pr[N > n], Pr[N <= n]) for N ~ Poisson(x), x > 0, at n = 0..nmax.

    These are P(n+1, x) and Q(n+1, x).  Below the mean the lower tail is
    the smaller: it is a running sum upward from n = 0.  From the mean on
    the upper tail is: it is the tail above nmax (_poisson_tail_above) plus
    a running sum downward from nmax.  Each other side is 1 minus the
    small one, which is at least ~0.3 where the sides meet.
    """
    pmf = single_mode_amplitudes(math.sqrt(x), 0, nmax).real ** 2  # |<n|sqrt(x)>|^2 is the Poisson(x) pmf
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
        mode_amps.append(single_mode_amplitudes(a, 0, space.nmax))
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


def resolution_of_unity_check(space: FockSpace, radius: float) -> ResolutionReport:
    """Quadrature of (1/pi) int |a><a| d^2alpha over the disc |a| <= radius.

    Reports the deviation of the integrated operator from the identity on
    the block n <= n_keep, where n_keep is the largest level whose closure
    deficit Q(n+1, R^2) = Pr[Poisson(R^2) <= n] stays below CLOSURE_TAIL.
    The exact diagonal at finite radius is P(n+1, R^2) = Pr[Poisson(R^2) > n],
    returned for finite-radius checks.  A check whose arrays would exceed
    RESOLUTION_MAX_BYTES is refused with ValueError before any is built: at
    most six float64 radial vectors live at once (48 bytes per node), and
    three (nmax + 1)^2 closure arrays, the real Gram, the complex matrix and
    its magnitudes (32 bytes per entry).
    """
    n_angular = max(8 * space.nmax, 16)
    # midpoint error ~ h^2/12 from the n = 0 integrand; keep it near 1e-7
    n_radial = max(256, int(512 * radius))
    needed = 48 * n_radial + 32 * (space.nmax + 1) ** 2
    if needed > RESOLUTION_MAX_BYTES:
        raise ValueError(
            f"{n_radial} radial nodes and {space.nmax + 1} levels need {needed / 2**20:.0f} MiB "
            f"(> {RESOLUTION_MAX_BYTES / 2**20:.0f} MiB); lower radius or nmax"
        )
    return _resolution_on_grid(space, radius, n_radial, n_angular)


def _product_grid_closure(pair_sums: np.ndarray, log_scale: np.ndarray, angles, spacing: float) -> np.ndarray:
    """Entry (n, m): sum over nodes i and angles phi of w_i A_n(i) A_m(i) spacing e^{i(n-m)phi}, factored.

    The real amplitudes are A_n = c_n g^n h with log_scale[n] = ln c_n concave
    in n, and pair_sums[k] = sum_i w_i A_a(i) A_b(i), a = k // 2, b = k - a,
    so the node Gram at (n, m) is pair_sums[n + m] c_n c_m / (c_a c_b), a
    factor <= 1 and exactly 1 where {n, m} = {a, b}.  The angular sums of
    e^{ik phi} over nodes `spacing` apart stay numeric; k < 0 conjugates -k.
    """
    top = log_scale.size - 1
    k = np.arange(2 * top + 1)
    hankel = np.lib.stride_tricks.sliding_window_view  # hankel(x, top + 1)[n, m] = x[n + m]
    gram = np.add.outer(log_scale, log_scale)
    gram -= hankel(log_scale[k // 2] + log_scale[k - k // 2], top + 1)
    np.exp(gram, out=gram)
    gram *= hankel(pair_sums, top + 1)
    angular = spacing * np.array([np.exp(1j * (j * angles)).sum() for j in range(top + 1)])
    angular = np.concatenate((angular[:0:-1].conj(), angular))
    return gram * hankel(angular, top + 1)[:, ::-1]  # [n, m] -> angular[top + n - m]


def _resolution_on_grid(space: FockSpace, radius: float, n_radial: int, n_angular: int) -> ResolutionReport:
    """resolution_of_unity_check on an n_radial x n_angular polar grid."""
    r, dr, th, dth = _polar_nodes(radius, n_radial, n_angular)
    # node (r, theta) adds (r dr dtheta / pi) amp_n amp_m e^{i(n-m)theta} to (n, m); amp_n = e^{-r^2/2} r^n / sqrt(n!)
    weights = r * dr / math.pi
    amp = np.exp(-0.5 * r**2)
    pair_sums = np.empty(2 * space.nmax + 1)
    pair_sums[0] = np.sum(weights * amp * amp)
    for n in range(1, space.nmax + 1):
        prev, amp = amp, amp * r / math.sqrt(n)
        pair_sums[2 * n - 1] = np.sum(weights * prev * amp)
        pair_sums[2 * n] = np.sum(weights * amp * amp)
    log_scale = np.array([-0.5 * math.lgamma(n + 1) for n in range(space.nmax + 1)])
    mat = _product_grid_closure(pair_sums, log_scale, th, dth)

    diag_expected, deficit = _poisson_tails(radius**2, space.nmax)
    qualifying = np.nonzero(deficit < CLOSURE_TAIL)[0]
    n_keep = int(qualifying.max()) if qualifying.size else -1

    magnitude = np.abs(mat)
    np.fill_diagonal(magnitude, 0.0)
    max_offdiag = float(magnitude.max())
    if n_keep >= 0:
        diag_error = np.abs(np.diag(mat)[: n_keep + 1] - 1.0)
        resid = float(max(magnitude[: n_keep + 1, : n_keep + 1].max(), diag_error.max()))
    else:
        resid = math.nan
    return ResolutionReport(
        n_keep=n_keep,
        matrix=mat,
        diag_expected=diag_expected,
        max_residual_block=resid,
        max_offdiag=max_offdiag,
    )
