"""Correlation ratios against projected coherent states, and their classical limit.

The projected coherent state of either model keeps a single
total-occupation sector m.  Correlation ratios <e| op P |ket> / <e| P |ket>
are computed in units hbar = omega = 1.  The normative route is
projected_ratios: matrix elements in the truncated space, taken as O(dim)
band actions of the ladder operators (fock.lower) and a diagonal H,
against one projected ket per call for a whole table of evaluation points
and operators.  The closed-form brackets (oracle_ratio) come from the
Bargmann derivative rule <a| A |psi> = d/d(conj a) of the analytic part of
the projected wavefunction, prop (conj(a'') a')^m / m! for one mode and
(conj(a'') a' + conj(b'') b')^m / m! for two.  They score the matrix
elements in `correlations`, and the double model's classical limit uses
them directly.  At the peak manifold (|a''| = |a'|, phases aligned,
energies matching the constraint) the ratios reduce to the classical
trajectory evaluated at an energy including the zero-point shift, so the
absolute deviation decays like 1/sqrt(m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fock, projector
from .fock import make_space
from .coherent import coherent_vector

RATIO_FLOOR = 1e-300
LIMIT_OFFSETS = (0.0, 0.45, 0.9)  # common phase offsets of the classical-limit evaluation points

_SINGLE_OPS = ("H", "Q", "P")
_DOUBLE_OPS = ("H", "Q1", "P1", "Q2", "P2")


def oracle_ratio(model: str, operator: str, labels_ket, labels_eval, mprime: int) -> complex:
    """Closed-form correlation bracket (value / overlap) from the ladder algebra."""
    m = mprime
    if model == "single":
        ae = np.conj(complex(labels_eval))
        if operator == "H":
            return m + 0.5
        if operator == "Q":
            return math.sqrt(0.5) * (m / ae + ae)
        if operator == "P":
            return 1j * math.sqrt(0.5) * (ae - m / ae)
        raise ValueError(f"single-model operator must be one of {_SINGLE_OPS}")
    if model == "double":
        a_ket, b_ket = (complex(z) for z in labels_ket)
        ae, be = (np.conj(complex(z)) for z in labels_eval)
        denom = ae * a_ket + be * b_ket
        if operator == "H":
            return m + 1.0
        if operator == "Q1":
            return math.sqrt(0.5) * (m * a_ket / denom + ae)
        if operator == "P1":
            return 1j * math.sqrt(0.5) * (ae - m * a_ket / denom)
        if operator == "Q2":
            return math.sqrt(0.5) * (m * b_ket / denom + be)
        if operator == "P2":
            return 1j * math.sqrt(0.5) * (be - m * b_ket / denom)
        raise ValueError(f"double-model operator must be one of {_DOUBLE_OPS}")
    raise ValueError(f"unknown model {model!r}")


def _matrix_element(space, operator: str, bra: np.ndarray, ket: np.ndarray) -> complex:
    """<bra| operator |ket> for H (summed over modes) or a per-mode Q/P, in O(dim).

    Q and P combine <bra| a |ket> and <bra| a^dagger |ket> = <a bra| ket>;
    H is diagonal in the occupation basis.
    """
    if operator == "H":
        energies = sum(space.mode_occupations(k) + 0.5 for k in range(space.modes))
        return complex(np.vdot(bra, energies * ket))
    mode = int(operator[1:] or 1) - 1  # "Q" is the single model's mode 0, "Q2" is mode 1
    lowered = np.vdot(bra, fock.lower(space, mode, ket))
    raised = np.vdot(fock.lower(space, mode, bra), ket)
    if operator[0] == "Q":
        return complex(math.sqrt(0.5) * (lowered + raised))
    return complex(1j * math.sqrt(0.5) * (raised - lowered))


def projected_ratios(model: str, ket, evals, mprime: int, nmax: int, ops) -> np.ndarray:
    """Correlation ratios <e| op P |ket> / <e| P |ket> in the truncated space.

    The space, the projector weights and the projected ket are built once;
    entry [i, k] is the band-action matrix element of ops[k] at evals[i]
    divided by that point's overlap.  An overlap below RATIO_FLOOR leaves
    the ratio undefined and raises ValueError.
    """
    space = make_space(1 if model == "single" else 2, nmax)
    build = projector.single_constraint if model == "single" else projector.double_constraint
    projected = projector.build_projector(build(space, float(mprime))) * coherent_vector(space, ket)
    ratios = np.empty((len(evals), len(ops)), dtype=np.complex128)
    for i, label in enumerate(evals):
        bra = coherent_vector(space, label)
        overlap = complex(np.vdot(bra, projected))
        if abs(overlap) < RATIO_FLOOR:
            raise ValueError(f"overlap {abs(overlap):.3e} below {RATIO_FLOOR:g}: the ratio is undefined")
        ratios[i] = [_matrix_element(space, op, bra, projected) / overlap for op in ops]
    return ratios


@dataclass(frozen=True)
class ClassicalLimitRow:
    m: int
    dev_abs: float
    dev_rel: float
    h_ratio_error: float


def classical_limit_check(model: str, m_values=(4, 16, 64)) -> list:
    """Deviation of correlation ratios from the classical trajectory per m.

    Evaluation points run along the peak manifold (equal radii, a common
    phase offset from LIMIT_OFFSETS, energies matching the constraint).
    For the single model the ratios are matrix elements from band actions
    (projected_ratios, O(dim) per m); the double model uses the closed-form
    brackets, which the tests pin against matrix elements at small m.
    dev_abs is max over offsets and over the Q/P pair of |ratio - classical|;
    dev_rel divides by the classical amplitude.  h_ratio_error is the
    largest |H ratio - E| / E: relative, because from E >= 2^19 one ulp of
    E alone exceeds 1e-10.
    """
    rows = []
    for m in m_values:
        devs = []
        if model == "single":
            nmax = int(m + 12 * math.sqrt(m) + 20)
            a_ket = math.sqrt(m)
            energy = m + 0.5
            amp = math.sqrt(2.0 * energy)
            evals = [a_ket * np.exp(1j * off) for off in LIMIT_OFFSETS]
            ratios = projected_ratios("single", a_ket, evals, m, nmax, ("Q", "P", "H"))
            for off, (ratio_q, ratio_p, _) in zip(LIMIT_OFFSETS, ratios):
                devs.append(abs(ratio_q - amp * math.cos(off)))
                devs.append(abs(ratio_p - amp * math.sin(off)))
            h_err = np.max(np.abs(ratios[:, 2] - energy)) / energy
        else:
            r = math.sqrt(m / 2.0)
            ket = (r, r)
            amp = math.sqrt(2.0 * (r**2 + 0.5))
            h_err = abs(oracle_ratio("double", "H", ket, ket, m) - (m + 1.0)) / (m + 1.0)
            for off in LIMIT_OFFSETS:
                ev = (r * np.exp(1j * off), r * np.exp(1j * off))
                ratio_q = oracle_ratio("double", "Q1", ket, ev, m)
                ratio_p = oracle_ratio("double", "P1", ket, ev, m)
                devs.append(abs(ratio_q - amp * math.cos(off)))
                devs.append(abs(ratio_p - amp * math.sin(off)))
        rows.append(
            ClassicalLimitRow(
                m=m,
                dev_abs=max(devs),
                dev_rel=max(devs) / amp,
                h_ratio_error=float(h_err),
            )
        )
    return rows


def deviation_scaling_exponent(rows) -> float:
    """Least-squares slope of log(dev_abs) against log(m)."""
    logm = np.log([row.m for row in rows])
    logd = np.log([row.dev_abs for row in rows])
    return float(np.polyfit(logm, logd, 1)[0])
