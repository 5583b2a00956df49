"""Batch command-line front end.

`csquant run --config cfg.json [--out DIR] [--seed N]` executes one named
experiment deterministically and writes a JSON table of checks (value,
tolerance, pass) plus CSV sweeps; `csquant list` dumps the registry.

Exit codes: 0 all checks pass, 1 some check failed, 2 unknown experiment,
3 config validation error (printed with the offending field), a field the
experiment does not read included: each runner refuses those right after
its last read, before any work.  This is the one layer that validates
input: the library modules assume in-range arguments, so every config
field, `--out` and `--seed` is bounded here before it reaches them.  A
coherent state that leaks through the occupation cutoff, or a space over
the fock.MAX_DIM basis-state guard, is a config error naming `nmax`;
`wiener`'s cutoff is the constant WIENER_NMAX.  Reruns with the same config
and seed reproduce the output files byte for byte: every check is seeded,
outputs carry no timestamps, and files are written via temp-file + rename.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import hashlib
import io
import json
import locale  # noqa: F401 -- argparse's gettext imports it at the first parser; load it at start-up
import math
import os
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from . import __version__, classical, coherent, correlators, fock, projector, spin, wiener
from .fock import make_space
from .coherent import coherent_vector

DEFAULT_SEED = 20260810
MAX_SEED = 2**64 - 1  # the seed is one uint64 word of the Philox key
# wiener streams its paths one chunk at a time in fixed memory (~3.5 MiB; tracemalloc): the cap bounds run time
WIENER_MAX_PATHS = 2**21
# wiener's one-mode cutoff: its state is fixed at alpha = 1, whose Poisson(1) tail is 8.3e-10 above level 11
# and 6.4e-11 above 12, so 12 is the smallest cutoff under coherent.TAIL_WARN (a higher one moves rows ~1e-13)
WIENER_NMAX = 12
SPIN_MAX_PAIRS = 1000  # spin-overlap's label pairs: the cap bounds run time
# geometry's curvature 2/S^2 = 1/n stays 10x above its row's 1e-4 tolerance, so a zero curvature fails
GEOMETRY_MAX_N = 1000
# the double model's Q/P ratios (~sqrt(m)) carry ~eps sqrt(m) of roundoff against a dev_abs of ~0.5/sqrt(m),
# and the step 1/(2m) between adjacent m meets it near m ~ 3e7, so a correct program could fail the monotone row
CLASSICAL_MAX_M = 10**6


class ConfigError(ValueError):
    def __init__(self, field: str, message: str):
        super().__init__(f"config field '{field}': {message}")
        self.field = field


class _Config(dict):
    """A config object that records each field an experiment asks for, so that the others can be refused."""

    def __init__(self, fields: dict):
        super().__init__(fields)
        self.read = {"experiment", "seed", "out"}

    def get(self, field, default=None):
        self.read.add(field)
        return super().get(field, default)

    def refuse_unread(self):
        """Exit 3 on a field that no get asked for; every runner calls it after its last read, before any work."""
        unread = sorted(set(self) - self.read)
        if unread:
            raise ConfigError(unread[0], f"experiment {self['experiment']!r} has no such field")


def _get(cfg: dict, field: str, default, kind, low=None, high=None):
    """Config number `field` as `kind`; bools, strings, non-finite and, for int, fractional values exit 3."""
    value = cfg.get(field, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(field, f"expected {kind.__name__}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(field, "must be finite")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ConfigError(field, "expected int, got a fractional number")
    try:
        value = kind(value)
    except OverflowError:
        raise ConfigError(field, "out of range") from None
    if low is not None and value < low:
        raise ConfigError(field, f"must be >= {low}")
    if high is not None and value > high:
        raise ConfigError(field, f"must be <= {high}")
    return value


@dataclass(frozen=True)
class CheckRow:
    name: str
    value: float  # residual-style: passing means value <= tolerance
    tolerance: float
    observed: float | None = None  # the measured quantity itself, when useful

    @property
    def passed(self) -> bool:
        return self.value <= self.tolerance


# ---------------------------------------------------------------------------
# experiments


def _exp_resolution(cfg, seed):
    nmax = _get(cfg, "nmax", 40, int, 1)
    radius = _get(cfg, "radius", 8.0, float, 0.5)
    cfg.refuse_unread()
    space = make_space(1, nmax)
    try:
        report = coherent.resolution_of_unity_check(space, radius)
    except ValueError as exc:  # the default polar grid is too coarse or too large for this radius
        raise ConfigError("radius", str(exc)) from None
    if report.n_keep < 0:
        raise ConfigError(
            "radius",
            f"no occupation level closes to within {coherent.CLOSURE_TAIL:g} at radius {radius} (needs radius > 4.29)",
        )
    rows = [
        CheckRow("identity_block_residual", report.max_residual_block, 1e-6),
        CheckRow("offdiagonal_max", report.max_offdiag, 1e-8),
    ]
    sweep = [
        (n, float(np.real(report.matrix[n, n])), float(report.diag_expected[n]))
        for n in range(nmax + 1)
    ]
    return rows, {"diagonal": (["n", "diag", "expected"], sweep)}


def _exp_project_single(cfg, seed):
    nmax = _get(cfg, "nmax", 40, int, 1)
    mprime = _get(cfg, "mprime", 3, int, 0, nmax)
    alpha = complex(_get(cfg, "alpha_re", 1.0, float), _get(cfg, "alpha_im", 0.0, float))
    cfg.refuse_unread()
    space = make_space(1, nmax)
    vec = coherent_vector(space, alpha)
    projected = projector.build_projector(projector.number_constraint(space, float(mprime))) * vec
    norm = float(np.linalg.norm(projected))
    expected = np.zeros(space.dim, dtype=np.complex128)
    # exp(-|a|^2/2) a^m / sqrt(m!) from the log Poisson term: m! overflows a float from m = 171
    modulus = math.exp(0.5 * coherent.log_poisson_term(abs(alpha) ** 2, mprime))
    expected[mprime] = cmath.rect(modulus, mprime * cmath.phase(alpha))
    resid = float(np.max(np.abs(projected - expected)))
    norm_err = abs(norm - abs(expected[mprime]))
    null_norms = []
    # each probe target lies more than build_projector's window half-width 0.1 from every level
    for frac in (0.3, 0.5, 1.5):
        weights = projector.build_projector(projector.number_constraint(space, frac))
        null_norms.append(float(np.linalg.norm(weights * vec)))
    rows = [
        CheckRow("projected_component_residual", resid, 1e-12),
        CheckRow("physical_norm_error", norm_err, 1e-12, observed=norm),
        CheckRow("null_norm_fractional_targets", max(null_norms), 1e-12),
    ]
    return rows, {}


def _gauge_fixed_projection(weights, space, labels, mprime, field):
    """Projected two-mode coherent state of labels (alpha, beta), unit norm, divided by (beta/|beta|)^mprime.

    Its sector amplitudes are then the SU(2) coherent state of alpha/beta.
    The entries are ~ 1/sqrt(mprime!), so the state is scaled by its largest
    before the norm squares them; the norm is that of the whole vector, so
    amplitude left outside the sector still shows.  A largest entry below
    the normal float range (all zeros, or subnormal: its digits are lost,
    and dividing a complex array by it overflows) exits 3 naming `field`.
    """
    projected = weights * coherent_vector(space, labels)
    scale = np.max(np.abs(projected))
    if scale < np.finfo(np.float64).tiny:
        raise ConfigError(field, f"a projected coherent state underflows (largest entry {scale:.3g}, mprime {mprime})")
    projected = projected / scale
    beta = labels[1]
    return projected / (np.linalg.norm(projected) * (beta / abs(beta)) ** mprime)


def _exp_project_double(cfg, seed):
    nmax = _get(cfg, "nmax", 16, int, 1)
    mprime = _get(cfg, "mprime", 4, int, 1, nmax)
    alpha = complex(_get(cfg, "alpha_re", 0.6, float), _get(cfg, "alpha_im", 0.3, float))
    beta = complex(_get(cfg, "beta_re", 0.9, float), _get(cfg, "beta_im", -0.2, float))
    cfg.refuse_unread()
    if beta == 0:
        raise ConfigError("beta_re", "beta must be nonzero: the SU(2) label is alpha/beta")
    xi = alpha / beta
    if not math.isfinite(math.hypot(xi.real, xi.imag)):
        raise ConfigError("beta_re", "|alpha/beta| is not finite: the SU(2) label overflows")
    space = make_space(2, nmax)
    weights = projector.build_projector(projector.number_constraint(space, float(mprime)))
    unit = _gauge_fixed_projection(weights, space, [alpha, beta], mprime, "beta_re")
    resid = float(np.max(np.abs(unit[spin.sector_indices(space, mprime)] - spin.su2_coherent(mprime, xi))))
    rows = [CheckRow("su2_state_match_residual", resid, 1e-10)]
    return rows, {}


def _exp_spin_overlap(cfg, seed):
    nmax = _get(cfg, "nmax", 12, int, 2)
    mprime = _get(cfg, "mprime", 6, int, 1, nmax)
    n_pairs = _get(cfg, "n_pairs", 10, int, 1, SPIN_MAX_PAIRS)
    cfg.refuse_unread()
    space = make_space(2, nmax)
    weights = projector.build_projector(projector.number_constraint(space, float(mprime)))
    rng = wiener.rng_stream(seed, 1)
    worst = 0.0
    for _ in range(n_pairs):
        re = rng.uniform(0.3, 1.2, size=4)
        ph = rng.uniform(0.0, 2.0 * math.pi, size=4)
        a1, b1, a2, b2 = (r * np.exp(1j * p) for r, p in zip(re, ph))
        bra, ket = (_gauge_fixed_projection(weights, space, pair, mprime, "mprime") for pair in ((a1, b1), (a2, b2)))
        worst = max(worst, abs(np.vdot(bra, ket) - spin.su2_overlap(mprime, a1 / b1, a2 / b2)))
    resolution = spin.su2_resolution_check(mprime)
    rows = [
        CheckRow("projected_vs_su2_overlap", worst, 1e-10),
        CheckRow("su2_resolution_residual", resolution, 1e-8),
    ]
    return rows, {}


def _exp_correlations(cfg, seed):
    mprime = _get(cfg, "mprime", 6, int, 0, CLASSICAL_MAX_M)  # the same O(m) sector sums as classical-limit
    cfg.refuse_unread()
    offsets = (0.0, 0.35, 0.8)
    ops = ("H", "Q", "P")  # the columns of sector_ratios
    a_ket = math.sqrt(max(mprime, 1))
    evals = [a_ket * np.exp(1j * off) for off in offsets]
    ratios = correlators.sector_ratios(a_ket, evals, mprime)
    energy = mprime + 0.5
    h_err = 0.0
    bracket_err = 0.0
    sweep = []
    for off, a_eval, row in zip(offsets, evals, ratios):
        for op, ratio in zip(ops, row):
            if op == "H":
                # relative: from E >= 2^19 one ulp of E alone exceeds 1e-10
                h_err = max(h_err, abs(ratio - energy) / energy)
            else:
                oracle = correlators.oracle_ratio(op, a_ket, a_eval, mprime)
                bracket_err = max(bracket_err, abs(ratio - oracle))
            sweep.append((off, op, float(ratio.real), float(ratio.imag)))
    rows = [
        CheckRow("h_ratio_error", h_err, 1e-12),
        CheckRow("qp_bracket_vs_matrix", bracket_err, 1e-10),
    ]
    return rows, {"ratios": (["offset", "operator", "ratio_re", "ratio_im"], sweep)}


def _largest_rise(values) -> float:
    """Largest increase between consecutive values; 0 when they never increase."""
    return max([0.0] + [b - a for a, b in zip(values, values[1:])])


def _exp_classical_limit(cfg, seed):
    model = cfg.get("model", "single")
    if model not in ("single", "double"):
        raise ConfigError("model", "must be 'single' or 'double'")
    m_values = cfg.get("m_values", [4, 16, 64])
    if not isinstance(m_values, list) or not all(
        isinstance(m, int) and not isinstance(m, bool) and 0 < m <= CLASSICAL_MAX_M for m in m_values
    ):
        raise ConfigError("m_values", f"must be a list of integers in [1, {CLASSICAL_MAX_M}]")
    m_values = sorted(set(m_values))
    if len(m_values) < 2:
        raise ConfigError("m_values", "needs at least two distinct values to fit a scaling exponent")
    cfg.refuse_unread()
    rows_data = correlators.classical_limit_check(1 if model == "single" else 2, m_values)
    exponent = correlators.deviation_scaling_exponent(rows_data)
    rows = [
        CheckRow("deviation_monotone_decrease", _largest_rise([r.dev_abs for r in rows_data]), 0.0),
        CheckRow("scaling_exponent_offset_from_-0.5", abs(exponent + 0.5), 0.2),
        CheckRow("h_ratio_error", max(r.h_ratio_error for r in rows_data), 1e-12),
    ]
    sweep = [(r.m, r.dev_abs, r.dev_rel) for r in rows_data]
    return rows, {"deviation": (["m", "dev_abs", "dev_rel"], sweep)}


def _exp_geometry(cfg, seed):
    n = _get(cfg, "n", 1, int, 1, GEOMETRY_MAX_N)
    cfg.refuse_unread()
    quant = classical.area_quantization(n)
    s2 = quant.s_squared
    r1 = 0.5 * math.sqrt(s2)
    curv_err = abs(classical.scalar_curvature_fd(s2, r1) - 2.0 / s2)
    pull_err = 0.0
    for frac in np.linspace(0.05, 0.9, 10):
        r = frac * math.sqrt(s2)
        g_rr, g_thth = classical.reduced_metric_eval(s2, r)
        g_num = classical.embedding_pullback_metric(s2, r, 0.7)
        pull_err = max(
            pull_err,
            abs(g_num[0, 0] - g_rr),
            abs(g_num[1, 1] - g_thth),
            abs(g_num[0, 1]),
        )
    # the operator side, E = m' + 1 in sector m' = n - 1; aligned labels, since a relative phase cancels the sum
    label = math.sqrt(max(n - 1, 1) / 2)
    h_ratio = correlators.sector_ratios((label, label), [(label, label)], n - 1)[0, 0]
    rows = [
        CheckRow("curvature_residual", curv_err, 1e-4),
        CheckRow("pullback_metric_residual", pull_err, 1e-8),
        CheckRow("symplectic_area_vs_pi_s2", abs(quant.symplectic_area - math.pi * s2), 1e-4),
        CheckRow("energy_quantization_residual", abs(quant.energy - h_ratio) / quant.energy, 1e-12),
    ]
    return rows, {}


def _exp_wiener(cfg, seed):
    mprime = _get(cfg, "mprime", 1, int, 0, WIENER_NMAX)
    eps = _get(cfg, "epsilon", 0.45, float, 1e-3, 0.499)
    n_paths = _get(cfg, "n_paths", 100_000, int, 100, WIENER_MAX_PATHS)
    cfg.refuse_unread()
    semi = wiener.semigroup_residual(0.7, 0.0, 0.4, 1.0, [0.1, -0.2], [0.5, 0.3])
    # nu t (T - t) / T at the midpoint of a 16-step bridge with nu = T = 1
    var_err = abs(wiener.bridge_column_variance(1.0, 16, 8) - 0.25)
    constraint = projector.number_constraint(make_space(1, WIENER_NMAX), float(mprime))
    eigs = constraint.eigs
    state = coherent_vector(constraint.space, 1.0)
    weights = np.conj(state) * state  # bra and ket are the one coherent state alpha = 1
    # the references no lapse law enters, built once for the four laws
    spectral = complex(np.sum(weights * projector.build_projector(constraint, eps)))
    lam_max = projector.default_lam_max(eps, eigs)
    quadrature = complex(np.sum(weights * projector.sin_kernel_weights(eigs, eps, lam_max)))
    off = eigs != 0
    dirichlet = float(np.sum(np.abs(weights[off] / eigs[off])))  # / window bounds |finite_window - spectral|
    # (stream, nu, window): the reference law, its window doubled, and nu halved and doubled
    laws = ((4, 1.0, 2000.0), (5, 1.0, 4000.0), (6, 0.5, 2000.0), (7, 2.0, 2000.0))
    est = wiener.lapse_averages(constraint, weights, laws, n_paths, seed)
    spectral_errors = [abs(mc - spectral) - 3.0 * se for _, mc, se in est]
    window_errors = [abs(mc - finite) - 3.0 * se for finite, mc, se in est]
    rows = [
        CheckRow("semigroup_residual", semi, 1e-8),
        CheckRow("bridge_midpoint_variance_error", var_err, 1e-12),
        CheckRow("quadrature_vs_spectral", abs(quadrature - spectral), 1e-4),
        CheckRow("mc_vs_spectral_minus_3se", spectral_errors[0], 0.0),
        CheckRow("mc_window_doubled_minus_3se", spectral_errors[1], 0.0),
        CheckRow("mc_nu_sweep_minus_3se", max(spectral_errors[2:]), 0.0),
        CheckRow("mc_vs_finite_window_minus_3se", max(window_errors), 0.0),
        CheckRow("finite_window_bias", abs(est[0][0] - spectral), dirichlet / laws[0][2]),
    ]
    return rows, {}


@dataclass(frozen=True)
class Experiment:
    runner: object
    topic: str
    description: str


EXPERIMENTS = {
    "resolution": Experiment(
        _exp_resolution,
        "overlap kernel / closure",
        "coherent-state resolution-of-unity quadrature on the truncated Fock space",
    ),
    "project-single": Experiment(
        _exp_project_single,
        "single-oscillator projection",
        "spectral projection of a coherent state onto one number level, null off-integer",
    ),
    "project-double": Experiment(
        _exp_project_double,
        "two-oscillator projection",
        "projected two-mode coherent state against the mapped SU(2) coherent state",
    ),
    "spin-overlap": Experiment(
        _exp_spin_overlap,
        "SU(2) reduced dynamics",
        "projected propagator vs the SU(2) overlap kernel plus spin closure quadrature",
    ),
    "correlations": Experiment(
        _exp_correlations,
        "correlation functions",
        "matrix-element correlation ratios against the ladder-operator brackets",
    ),
    "classical-limit": Experiment(
        _exp_classical_limit,
        "classical limit",
        "correlation ratios vs the classical trajectory over an m sweep",
    ),
    "geometry": Experiment(
        _exp_geometry,
        "reduced-phase-space geometry",
        "induced metric, curvature, areas, and the quantized constraint radius",
    ),
    "wiener": Experiment(
        _exp_wiener,
        "Wiener-measure machinery",
        "heat-kernel semigroup, exact bridge variance, and lapse-averaged propagator estimators",
    ),
}


def list_experiments() -> str:
    lines = [f"{len(EXPERIMENTS)} experiments:"]
    for name, exp in EXPERIMENTS.items():
        lines.append(f"  {name:16s} [{exp.topic}] {exp.description}")
    return "\n".join(lines)


def _atomic_write(path: str, data: bytes):
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-csquant-")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_outputs(out_dir: str, experiment: str, rows, sweeps, cfg_bytes: bytes, seed: int):
    os.makedirs(out_dir, exist_ok=True)
    table = {
        "experiment": experiment,
        "checks": [
            {
                "name": r.name,
                "value": float(r.value),
                "tolerance": float(r.tolerance),
                "passed": bool(r.passed),
                **({"observed": float(r.observed)} if r.observed is not None else {}),
            }
            for r in rows
        ],
        "provenance": {
            "config_sha256": hashlib.sha256(cfg_bytes).hexdigest(),
            "seed": seed,
            "version": __version__,
        },
    }
    payload = json.dumps(table, sort_keys=True, indent=2).encode() + b"\n"
    _atomic_write(os.path.join(out_dir, f"{experiment}.json"), payload)
    for sweep_name, (header, data) in sweeps.items():
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in data:
            writer.writerow(
                [f"{v:.17g}" if isinstance(v, float) else v for v in row]
            )
        _atomic_write(
            os.path.join(out_dir, f"{experiment}_{sweep_name}.csv"),
            buf.getvalue().encode("utf-8"),
        )


def run_experiment(config_path: str, out_dir: str | None, seed_override: int | None) -> int:
    try:
        with open(config_path, "rb") as handle:
            cfg_bytes = handle.read()
        cfg = json.loads(cfg_bytes)
        if not isinstance(cfg, dict):
            raise ConfigError("<root>", "config must be a JSON object")
        cfg = _Config(cfg)
        name = cfg.get("experiment")
        if not isinstance(name, str):
            raise ConfigError("experiment", "required string")
    # ValueError covers ConfigError, malformed JSON and bytes that are not UTF-8; deep nesting recurses
    except (OSError, ValueError, RecursionError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    if name not in EXPERIMENTS:
        print(f"unknown experiment {name!r}", file=sys.stderr)
        print(list_experiments(), file=sys.stderr)
        return 2
    seed = seed_override if seed_override is not None else cfg.get("seed", DEFAULT_SEED)
    out = out_dir if out_dir is not None else cfg.get("out", "results")
    try:
        if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed <= MAX_SEED:
            raise ConfigError("seed", f"must be an integer in [0, {MAX_SEED}]")
        if not isinstance(out, str) or not out:
            raise ConfigError("out", "must be a non-empty path")
        rows, sweeps = EXPERIMENTS[name].runner(cfg, seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except (coherent.TruncationLeakageError, fock.DimensionGuardError) as exc:
        print(f"config error: config field 'nmax': {exc}", file=sys.stderr)
        return 3
    try:
        _write_outputs(out, name, rows, sweeps, cfg_bytes, seed)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        print(f"config error: config field 'out': {exc}", file=sys.stderr)
        return 3
    for r in rows:
        status = "pass" if r.passed else "FAIL"
        print(f"[{status}] {name}:{r.name} value={r.value:.6g} tol={r.tolerance:.6g}")
    return 0 if all(r.passed for r in rows) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="csquant", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run one experiment from a JSON config")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--out", default=None)
    run_p.add_argument("--seed", type=int, default=None)
    sub.add_parser("list", help="list the experiment registry")
    args = parser.parse_args(argv)
    if args.command == "list":
        print(list_experiments())
        return 0
    return run_experiment(args.config, args.out, args.seed)


if __name__ == "__main__":
    sys.exit(main())
