import cmath
import math
import warnings
from decimal import MAX_EMAX, Decimal, localcontext

import numpy as np
import pytest
from scipy import special

from csquant import coherent
from csquant.coherent import (
    TAIL_ERROR,
    TAIL_WARN,
    TruncationLeakageError,
    _poisson_tails,
    _resolution_on_grid,
    coherent_vector,
    log_poisson_term,
    resolution_of_unity_check,
    single_mode_amplitudes,
    truncation_tail,
)
from csquant.fock import FockSpace, make_space
from reference import (
    coherent_amp_matrix,
    kernel_composition_residual,
    overlap_alpha,
    polar_disc_grid,
    reproducing_propagation,
)


def test_vacuum_coherent_state():
    s = make_space(1, 8)
    v = coherent_vector(s, 0.0)
    expected = np.zeros(9, dtype=complex)
    expected[0] = 1.0
    assert np.array_equal(v, expected)


def test_coherent_normalization_within_leakage():
    s = make_space(1, 40)
    v = coherent_vector(s, 1.7 - 0.4j)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-10)


def test_amplitudes_match_series_terms():
    # brute-force series term, independently of the recurrence from the largest term
    alpha = 1.0 + 0.5j
    s = make_space(1, 30)
    v = coherent_vector(s, alpha)
    pref = math.exp(-0.5 * abs(alpha) ** 2)
    for n in range(31):
        term = pref * alpha**n / math.sqrt(math.factorial(n))
        assert v[n] == pytest.approx(term, rel=1e-12, abs=1e-15)


def _decimal_log_amplitudes(r: float, ns) -> dict:
    """ln(exp(-r^2/2) r^n / sqrt(n!)) in 60-digit decimals for ascending ns.

    n! is a running 60-digit product: each factor rounds it by at most
    5e-60 relative, so ln(n!) is good to n * 5e-60, far below a double's ulp.
    """
    logs = {}
    with localcontext() as ctx:
        ctx.prec = 60
        ctx.Emax = MAX_EMAX
        rd = Decimal(r)
        fact, prev = Decimal(1), 0
        for n in ns:
            fact *= math.prod(map(Decimal, range(prev + 1, n + 1)))
            prev = n
            logs[n] = n * rd.ln() - rd * rd / 2 - fact.ln() / 2
    return logs


@pytest.mark.parametrize("r2", [0.3, 1e3, 5e4, 9e5])
def test_amplitudes_match_decimal_oracle_around_the_pivot(r2):
    # alpha = i r: the phase of term n is exactly i^n, the modulus comes from the decimal oracle
    r = math.sqrt(r2)
    n0 = math.floor(r * r)
    width = int(10 * math.sqrt(r2))
    lo, hi = max(0, n0 - width), n0 + width
    amps = single_mode_amplitudes(1j * r, 0, hi)
    eps = np.finfo(np.float64).eps
    # the pivot's modulus is good to a few eps at any r, and each step away adds a few eps; its
    # phase n0 arg(alpha) carries the rounding of arg(alpha) = pi/2 times n0
    phase_tol = eps * (n0 + 1)
    logs = _decimal_log_amplitudes(r, sorted(set(np.linspace(lo, hi, 21).astype(int).tolist()) | {n0}))
    for n, log_n in logs.items():
        with localcontext() as ctx:
            ctx.prec = 50
            want = float(log_n.exp())
            shape = float((log_n - logs[n0]).exp())  # |amp_n / amp_n0|
        step_tol = 4 * eps * (abs(n - n0) + 1)
        assert abs(amps[n] / amps[n0] - shape * 1j ** ((n - n0) % 4)) <= step_tol * shape
        assert abs(abs(amps[n]) - want) <= (4 * eps + step_tol) * want
        assert abs(amps[n] / abs(amps[n]) - 1j ** (n % 4)) <= phase_tol + step_tol


@pytest.mark.parametrize("alpha", [0.3 + 0.4j, -3.0, 20 * cmath.exp(0.7j)])
def test_window_holding_the_peak_is_the_full_builds_slice(alpha):
    # the window's pivot is the full build's, and the running products start from it in the same order;
    # numpy's cumprod rounds a run of exactly two complex factors differently (by an ulp) from a longer
    # run, so no window here has a run of two on either side of the pivot
    n0 = math.floor(abs(alpha) ** 2)
    full = single_mode_amplitudes(alpha, 0, n0 + 30)
    for low, nmax in [(0, n0 + 30), (n0, n0), (max(n0 - 5, 0), n0 + 7), (n0 // 2, n0 + 1)]:
        assert np.array_equal(single_mode_amplitudes(alpha, low, nmax), full[low : nmax + 1])
    # level -1 is the downward factor sqrt(0)/a times level 0
    assert np.array_equal(single_mode_amplitudes(alpha, -1, n0 + 7), np.concatenate(([0.0], full[: n0 + 8])))


@pytest.mark.parametrize("alpha", [20.0, 20 * cmath.exp(0.7j)])
@pytest.mark.parametrize("low", [300, 500])
def test_window_off_the_peak_matches_the_log_poisson_term(alpha, low):
    # |alpha|^2 = 400: the window [300, 305] lies wholly below the peak and [500, 505] wholly above it,
    # so the pivot is the window's edge nearest the peak
    amps = single_mode_amplitudes(alpha, low, low + 5)
    for n, amp in zip(range(low, low + 6), amps):
        want = cmath.rect(math.exp(0.5 * log_poisson_term(400.0, n)), n * cmath.phase(alpha))
        assert abs(amp - want) <= 1e-13 * abs(want)


def test_window_of_the_vacuum():
    for low, nmax in [(-1, 3), (0, 0), (0, 5)]:
        amps = single_mode_amplitudes(0.0, low, nmax)
        assert amps[-low] == 1.0 and np.count_nonzero(amps) == 1
    for low, nmax in [(1, 1), (1, 4), (7, 9)]:
        assert not np.any(single_mode_amplitudes(0.0, low, nmax))


def test_leakage_hard_error_and_warning():
    s = make_space(1, 6)
    with pytest.raises(ValueError):
        coherent_vector(s, 2.5)
    with pytest.warns(UserWarning):
        coherent_vector(s, 0.5)  # tail ~1e-8: inside the warn band, below the error bar


_POISSON_MEANS = [0.3, 1.0, 64.0, 1e3, 5e4]


@pytest.mark.parametrize("x", _POISSON_MEANS)
def test_poisson_tails_match_incomplete_gamma(x):
    # levels from 0 to 40 standard deviations above the mean: the bulk and both far tails
    nmax = int(x + 40 * math.sqrt(x)) + 40
    upper, lower = _poisson_tails(x, nmax)
    levels = np.arange(nmax + 1)
    # relative to each tail; scipy's own far tails are good to ~2e-12 (checked against 40-digit
    # arithmetic), so the bound is scipy's error, not this sum's
    for got, want in ((upper, special.gammainc(levels + 1, x)), (lower, special.gammaincc(levels + 1, x))):
        normal = want > 1e-300
        assert np.all(np.abs(got[normal] - want[normal]) <= 1e-11 * want[normal])
        assert np.all(got[~normal] <= 1e-300)
    assert upper[-1] < 1e-100 and (x < 64 or lower[0] < 1e-20)  # the far tails were reached


@pytest.mark.parametrize("x", _POISSON_MEANS)
def test_truncation_tail_matches_incomplete_gamma(x):
    r = math.sqrt(x)
    alpha = r * cmath.exp(0.7j)
    eps = np.finfo(np.float64).eps
    for nmax in sorted({0, int(x), int(x) + 1, int(x + 3 * r) + 1, int(x + 10 * r) + 5, int(x + 30 * r) + 20}):
        if x >= nmax + 1:  # the Poisson median lies above the cutoff: refused before any amplitude is built
            with pytest.raises(TruncationLeakageError, match="sqrt"):
                coherent_vector(FockSpace(1, nmax), alpha)
            continue
        amps = single_mode_amplitudes(alpha, 0, nmax)
        want = special.gammainc(nmax + 1, x)
        # the tail starts from |amps[nmax]|^2, nmax - n0 steps from the pivot (see the decimal oracle test)
        n0 = min(math.floor(x), nmax)
        assert abs(truncation_tail(amps, alpha) - want) <= 8 * eps * (nmax - n0 + 1) * want


@pytest.mark.parametrize("nmax", [1, 2, 6, 12, 40, 200])
def test_leakage_boundaries_follow_incomplete_gamma(nmax):
    # the |alpha| at which the tail P(nmax + 1, |alpha|^2) reaches the warning and error levels
    s = make_space(1, nmax)
    for level, expect in ((TAIL_WARN, "warn"), (TAIL_ERROR, "raise")):
        edge = math.sqrt(special.gammaincinv(nmax + 1, level))
        with warnings.catch_warnings(record=True) as below:
            warnings.simplefilter("always")
            coherent_vector(s, edge * (1 - 1e-6))
        assert len(below) == (expect == "raise")  # below the error level a tail above TAIL_WARN still warns
        if expect == "warn":
            with pytest.warns(UserWarning, match="coherent-state tail"):
                coherent_vector(s, edge * (1 + 1e-6))
        else:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                with pytest.raises(TruncationLeakageError):
                    coherent_vector(s, edge * (1 + 1e-6))


def test_overlap_identity_case():
    assert overlap_alpha(0.4 - 0.85j, 0.4 - 0.85j) == 1.0


def test_overlap_printed_magnitude():
    # (p, q) = (0, 0) and (0, 2): alpha = 0 and sqrt(2)
    assert abs(overlap_alpha(0.0, math.sqrt(2.0))) == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_overlap_matches_truncated_inner_product():
    s = make_space(1, 40)
    rng = np.random.default_rng(3)
    for _ in range(12):
        a1 = rng.uniform(0, 2) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        a2 = rng.uniform(0, 2) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        inner = np.vdot(coherent_vector(s, a1), coherent_vector(s, a2))
        assert abs(overlap_alpha(a1, a2) - inner) < 1e-10


def test_overlap_bound_symmetry_and_gaussian_factorization():
    rng = np.random.default_rng(5)
    for _ in range(30):
        a1, a2 = rng.uniform(-2, 2, size=2) @ [1, 1j], rng.uniform(-2, 2, size=2) @ [1, 1j]
        k12 = overlap_alpha(a1, a2)
        assert abs(k12) <= 1.0 + 1e-15
        assert k12 == pytest.approx(np.conj(overlap_alpha(a2, a1)), rel=1e-12)
        assert abs(k12) ** 2 == pytest.approx(math.exp(-abs(a1 - a2) ** 2), rel=1e-12)
    # equality iff equal labels
    assert abs(overlap_alpha(a1, a1)) == 1.0
    if a1 != a2:
        assert abs(overlap_alpha(a1, a2)) < 1.0


def test_resolution_large_radius_block():
    s = make_space(1, 40)
    report = resolution_of_unity_check(s, 8.0)
    assert report.n_keep >= 20
    assert abs(report.matrix[0, 0] - 1.0) < 1e-6
    assert report.max_residual_block < 1e-6
    assert report.max_offdiag < 1e-8  # angular symmetry kills the phases


def test_resolution_refuses_radial_block_over_budget(monkeypatch):
    # RESOLUTION_MAX_BYTES counts 48 bytes per radial node and 32 per closure entry: at the default radius 8
    # (4096 radial nodes) nmax 1445 fits and 1446 does not; at nmax 40 radius 2728.47 fits and 2728.48 does not
    def never(*args):
        raise AssertionError("the check ran past its guard")

    monkeypatch.setattr(coherent, "_resolution_on_grid", lambda *args: "ran")
    assert resolution_of_unity_check(make_space(1, 1445), 8.0) == "ran"
    assert resolution_of_unity_check(make_space(1, 40), 2728.47) == "ran"
    monkeypatch.setattr(coherent, "_resolution_on_grid", never)
    monkeypatch.setattr(coherent, "_polar_nodes", never)
    for nmax, radius in ((1446, 8.0), (40, 2728.48), (40, 4.0e6)):
        with pytest.raises(ValueError, match="MiB"):
            resolution_of_unity_check(make_space(1, nmax), radius)


def test_resolution_finite_radius_diagonal_is_incomplete_gamma():
    s = make_space(1, 12)
    report = _resolution_on_grid(s, 2.0, 2048, 128)
    diag = np.real(np.diag(report.matrix))
    expected = special.gammainc(np.arange(13) + 1, 4.0)
    assert np.max(np.abs(diag - expected)) < 1e-6


def test_resolution_separable_gram_matches_dense_closure_sum():
    # same polar rule summed node by node: (1/pi) sum_k w_k |a_k><a_k|; the default grid at nmax 12, radius 2,
    # and smaller grids at nmax 40 and 200, whose levels reach pair sums far from the diagonal's
    for nmax, radius, n_radial, n_angular in ((12, 2.0, 1024, 96), (40, 8.0, 256, 320), (200, 16.0, 32, 402)):
        report = _resolution_on_grid(make_space(1, nmax), radius, n_radial, n_angular)
        nodes, weights = polar_disc_grid(radius, n_radial, n_angular)
        dense = np.zeros((nmax + 1, nmax + 1), dtype=np.complex128)
        for lo in range(0, nodes.size, 4096):
            vecs = coherent_amp_matrix(nodes[lo : lo + 4096], nmax)
            dense += (vecs.T * (weights[lo : lo + 4096] / math.pi)) @ vecs.conj()
        assert np.max(np.abs(report.matrix - dense)) <= 1e-13
        assert report.max_offdiag > 0.0  # off-diagonals come from numeric angular sums


def test_resolution_quadrature_second_order_convergence():
    s = make_space(1, 12)
    coarse = _resolution_on_grid(s, 5.0, 100, 128)
    fine = _resolution_on_grid(s, 5.0, 200, 128)
    assert coarse.max_residual_block / fine.max_residual_block >= 4.0


def test_reproducing_propagation_vacuum_and_coherent():
    s = make_space(1, 30)
    grid = polar_disc_grid(6.0, 1024, 256)
    probes = np.array([0.2 + 0.1j, -0.8j, 1.1, 0.5 - 0.5j, -0.3 + 0.9j])
    reproduced, direct = reproducing_propagation(coherent_vector(s, 0.0), *grid, probes)
    # <a|0> = exp(-|a|^2 / 2)
    assert np.max(np.abs(direct - np.exp(-0.5 * np.abs(probes) ** 2))) < 1e-12
    assert np.max(np.abs(reproduced - direct)) < 1e-5

    a0 = 0.7 + 0.2j
    reproduced, direct = reproducing_propagation(coherent_vector(s, a0), *grid, probes)
    expected = np.array([overlap_alpha(a, a0) for a in probes])
    assert np.max(np.abs(direct - expected)) < 1e-10
    assert np.max(np.abs(reproduced - direct)) < 1e-5


def test_kernel_composition_semigroup():
    assert kernel_composition_residual(*polar_disc_grid(6.0, 1024, 256), 0.4 + 0.3j, -0.2 + 0.6j) < 1e-5
