"""Correlation ratios against projected coherent states, and their classical limit.

An oscillator model is its mode count: one coherent-state label per mode,
one mode for the single model and two for the double, and each function
reads the count from the labels (or the `modes`) it is given.  The
projected coherent state keeps a single total-occupation sector m, so a
correlation ratio <e| op P |ket> / <e| P |ket> (units hbar = omega = 1)
involves only sector m and its two neighbours.  sector_ratios computes the
H, Q and P ratios as sums over that sector, reading each mode's coherent
amplitudes only at the levels the sums touch, with no truncated space and
no cutoff: O(m) for two modes, O(1) for one, whose sector is one state.  The
closed-form brackets (oracle_ratio) come from the Bargmann derivative rule
<a| A |psi> = d/d(conj a) of the analytic part of the projected
wavefunction, prop z^m / m! with z = sum_j conj(e_j) ket_j over the
modes; they score the sector sums in `correlations`.  At the peak manifold
(equal radii, phases aligned, energies matching the constraint) the ratios
reduce to the classical trajectory evaluated at an energy including the
zero-point shift, so the absolute deviation decays like 1/sqrt(m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coherent import single_mode_amplitudes

RATIO_FLOOR = 1e-300
CONDITION_LIMIT = 1e-12  # largest eps x condition number of an overlap sum: its relative roundoff bound
LIMIT_OFFSETS = (0.0, 0.45, 0.9)  # common phase offsets of the classical-limit evaluation points


def oracle_ratio(operator: str, labels_ket, labels_eval, mprime: int) -> complex:
    """Closed-form correlation bracket (value / overlap) from the ladder algebra, for k labels.

    With z = sum_j conj(e_j) ket_j the projected wavefunction is
    prop z^m / m!, so a_j contributes m ket_j / z and a_j^dagger conj(e_j);
    H is m + k/2.  "Q" and "P" mean mode 1, as "Q1" and "P1" do.
    """
    kets = [complex(z) for z in np.atleast_1d(labels_ket)]
    if operator == "H":
        return mprime + 0.5 * len(kets)
    conj_evals = [np.conj(complex(z)) for z in np.atleast_1d(labels_eval)]
    mode = int(operator[1:] or 1) - 1
    lowered = mprime * kets[mode] / sum(e * k for e, k in zip(conj_evals, kets))
    if operator[0] == "Q":
        return math.sqrt(0.5) * (lowered + conj_evals[mode])
    return 1j * math.sqrt(0.5) * (conj_evals[mode] - lowered)


def sector_ratios(ket, evals, mprime: int) -> np.ndarray:
    """Ratios <e| op P |ket> / <e| P |ket> of op = H, Q, P, one row per evaluation point e.

    Modes count from 0 here, and Q and P are mode 0's ("Q" and "P" of
    oracle_ratio).  P keeps the states of total occupation m = mprime:
    |n, m - n>, n = 0..m, for two modes and the one state |m> for one.
    P |ket> there is c_n = ket_0(n) ket_1(m - n) (ket_1 = 1 for one mode),
    so every matrix element is a sum over the sector: a_0 |n, m - n> =
    sqrt(n) |n - 1, m - n> reads level n - 1 of <e|'s mode 0, a_0^dagger
    level n + 1, and H is each state's occupation m plus 1/2 per mode of ket.
    Mode 0's single_mode_amplitudes span levels n - 1..m + 1 alone, so one
    mode costs O(1).  ValueError refuses an overlap below RATIO_FLOOR, or
    one whose terms cancel (modes of different phases make the sum
    oscillate) so far that eps times its condition number
    sum |conj(b_n) c_n| / |sum conj(b_n) c_n| exceeds CONDITION_LIMIT.
    """
    modes = np.size(ket)
    energy = mprime + 0.5 * modes
    levels = np.arange(0 if modes == 2 else mprime, mprime + 1)  # mode 0's occupation n in the sector

    def factors(labels):  # mode 0's amplitudes at n - 1..m + 1 (0 at level -1), and mode 1's at m - n
        labels = np.atleast_1d(labels)
        second = single_mode_amplitudes(labels[1], 0, mprime)[::-1] if modes == 2 else 1.0
        return single_mode_amplitudes(labels[0], levels[0] - 1, mprime + 1), second

    ket_0, ket_1 = factors(ket)
    projected = ket_0[1:-1] * ket_1
    ratios = np.empty((len(evals), 3), dtype=np.complex128)
    for i, label in enumerate(evals):
        bra_0, bra_1 = factors(label)
        bra = bra_0[1:-1] * bra_1
        # sums of products, not np.vdot or @: BLAS splits a long sum by its thread count, and each split rounds
        # differently
        overlap = complex((bra.conj() * projected).sum())
        terms = float((np.abs(bra) * np.abs(projected)).sum())
        if abs(overlap) < RATIO_FLOOR or math.ulp(1.0) * terms > CONDITION_LIMIT * abs(overlap):
            raise ValueError(f"overlap {abs(overlap):.3e} of terms of modulus {terms:.3e}: the ratio is undefined")
        lowered = ((bra_0[:-2] * bra_1).conj() * (np.sqrt(levels) * projected)).sum()
        raised = ((np.sqrt(levels + 1) * bra_0[2:] * bra_1).conj() * projected).sum()
        q, p = math.sqrt(0.5) * (lowered + raised), 1j * math.sqrt(0.5) * (raised - lowered)
        ratios[i] = [complex(element) / overlap for element in ((bra.conj() * (energy * projected)).sum(), q, p)]
    return ratios


@dataclass(frozen=True)
class ClassicalLimitRow:
    m: int
    dev_abs: float
    dev_rel: float
    h_ratio_error: float


def classical_limit_check(modes: int, m_values) -> list:
    """Deviation of correlation ratios from the classical trajectory per m.

    Evaluation points run along the peak manifold: every label of radius
    r = sqrt(m / modes), the ket's real and the evaluation points' with a
    common phase offset from LIMIT_OFFSETS, so the energy E = m + modes/2
    matches the constraint and mode 1 moves on the classical orbit of
    amplitude sqrt(2E / modes).  The ratios are sector_ratios' O(m) sums for
    either model.  dev_abs is max over offsets and over the Q/P pair of
    |ratio - classical|; dev_rel divides by the classical amplitude.
    h_ratio_error is the largest |H ratio - E| / E: relative, because from
    E >= 2^19 one ulp of E alone exceeds 1e-10.
    """
    rows = []
    for m in m_values:
        r = math.sqrt(m / modes)
        energy = m + 0.5 * modes
        amp = math.sqrt(2.0 * energy / modes)
        evals = [(r * np.exp(1j * off),) * modes for off in LIMIT_OFFSETS]
        ratios = sector_ratios((r,) * modes, evals, m)
        devs = []
        for off, (_, ratio_q, ratio_p) in zip(LIMIT_OFFSETS, ratios):
            devs.append(abs(ratio_q - amp * math.cos(off)))
            devs.append(abs(ratio_p - amp * math.sin(off)))
        rows.append(
            ClassicalLimitRow(
                m=m,
                dev_abs=max(devs),
                dev_rel=max(devs) / amp,
                h_ratio_error=float(np.max(np.abs(ratios[:, 0] - energy)) / energy),
            )
        )
    return rows


def deviation_scaling_exponent(rows) -> float:
    """Least-squares slope of log(dev_abs) against log(m)."""
    logm = np.log([row.m for row in rows])
    logd = np.log([row.dev_abs for row in rows])
    return float(np.polyfit(logm, logd, 1)[0])
