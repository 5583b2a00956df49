"""Batch command-line front end.

`csquant run --config cfg.json [--out DIR] [--seed N]` executes one named
experiment deterministically and writes a JSON table of checks (value,
tolerance, pass) plus CSV sweeps; `csquant list` dumps the registry.

Exit codes: 0 all checks pass, 1 some check failed, 2 unknown experiment,
3 config validation error (printed with the offending field).  Reruns with
the same config and seed reproduce the output files byte for byte: every
check is seeded, outputs carry no timestamps, and files are written via
temp-file + rename.  A coherent state that leaks through the occupation
cutoff, or a space over the fock.MAX_DIM basis-state guard, is a config
error naming `nmax` (`m_values` for classical-limit, whose m sets the cutoff).
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
# wiener holds ~40 bytes per path (80 MiB at the cap) plus one chunk: the cap bounds run time
WIENER_MAX_PATHS = 2**21


class ConfigError(ValueError):
    def __init__(self, field: str, message: str):
        super().__init__(f"config field '{field}': {message}")
        self.field = field


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
    eps = _get(cfg, "epsilon", 0.1, float, 1e-6, 0.499)
    alpha = complex(_get(cfg, "alpha_re", 1.0, float), _get(cfg, "alpha_im", 0.0, float))
    space = make_space(1, nmax)
    vec = coherent_vector(space, alpha)
    projected = projector.build_projector(projector.single_constraint(space, float(mprime)), eps) * vec
    norm = float(np.linalg.norm(projected))
    expected = np.zeros(space.dim, dtype=np.complex128)
    # exp(-|a|^2/2) a^m / sqrt(m!) from the log Poisson term: m! overflows a float from m = 171
    modulus = math.exp(0.5 * coherent.log_poisson_term(abs(alpha) ** 2, mprime))
    expected[mprime] = cmath.rect(modulus, mprime * cmath.phase(alpha))
    got = projected if norm >= projector.NULL_NORM else 0.0  # a null projection is the zero vector
    resid = float(np.max(np.abs(got - expected)))
    norm_err = abs(norm - abs(expected[mprime]))
    null_norms = []
    # each probe target lies more than eps from every level, for any eps < 1/2
    for frac in ((0.5 + eps) / 2, 0.5, 1.5):
        weights = projector.build_projector(projector.single_constraint(space, frac), eps)
        null_norms.append(float(np.linalg.norm(weights * vec)))
    rows = [
        CheckRow("projected_component_residual", resid, 1e-12),
        CheckRow("physical_norm_error", norm_err, 1e-12, observed=norm),
        CheckRow("null_norm_fractional_targets", max(null_norms), 1e-12),
    ]
    return rows, {}


def _exp_project_double(cfg, seed):
    nmax = _get(cfg, "nmax", 16, int, 1)
    mprime = _get(cfg, "mprime", 4, int, 1, nmax)
    eps = _get(cfg, "epsilon", 0.1, float, 1e-6, 0.499)
    alpha = complex(_get(cfg, "alpha_re", 0.6, float), _get(cfg, "alpha_im", 0.3, float))
    beta = complex(_get(cfg, "beta_re", 0.9, float), _get(cfg, "beta_im", -0.2, float))
    if beta == 0:
        raise ConfigError("beta_re", "beta must be nonzero: the SU(2) label is alpha/beta")
    space = make_space(2, nmax)
    weights = projector.build_projector(projector.double_constraint(space, float(mprime)), eps)
    projected = weights * coherent_vector(space, [alpha, beta])
    norm = float(np.linalg.norm(projected))
    sector = spin.sector_indices(space, mprime)  # |0, mprime> first
    if norm < projector.NULL_NORM or projected[sector[0]] == 0:
        raise ConfigError(
            "beta_re",
            f"the projected |0, {mprime}> amplitude vanishes, so the gauge phase (beta/|beta|)^mprime is undefined",
        )
    mapped = (projected / norm)[sector]
    gauge_phase = mapped[0] / abs(mapped[0])
    try:
        reference = spin.su2_coherent(mprime / 2.0, alpha / beta)
    except OverflowError:
        raise ConfigError("beta_re", "|alpha/beta| overflows the SU(2) coherent-state amplitudes") from None
    resid = float(np.max(np.abs(mapped - gauge_phase * reference)))
    rows = [CheckRow("su2_state_match_residual", resid, 1e-10)]
    return rows, {}


def _exp_spin_overlap(cfg, seed):
    nmax = _get(cfg, "nmax", 12, int, 2)
    mprime = _get(cfg, "mprime", 6, int, 1, nmax)
    n_pairs = _get(cfg, "n_pairs", 10, int, 1)
    space = make_space(2, nmax)
    weights = projector.build_projector(projector.double_constraint(space, float(mprime)))
    rng = wiener.rng_stream(seed, 1)
    j = mprime / 2.0
    worst = 0.0
    for _ in range(n_pairs):
        re = rng.uniform(0.3, 1.2, size=4)
        ph = rng.uniform(0.0, 2.0 * math.pi, size=4)
        a1, b1, a2, b2 = (r * np.exp(1j * p) for r, p in zip(re, ph))
        units = []
        for labels in ((a1, b1), (a2, b2)):
            projected = weights * coherent_vector(space, labels)
            # the entries are ~ 1/sqrt(mprime!): scale by the largest before squaring them
            scale = np.max(np.abs(projected))
            if scale == 0.0:
                raise ConfigError("mprime", f"a projected coherent state underflows to zero at mprime {mprime}")
            projected = projected / scale
            units.append(projected / np.linalg.norm(projected))
        normalized = np.vdot(units[0], units[1])
        g_bra = (b1 / abs(b1)) ** mprime
        g_ket = (b2 / abs(b2)) ** mprime
        gaugefree = normalized * g_bra * np.conj(g_ket)
        worst = max(worst, abs(gaugefree - spin.su2_overlap(j, a1 / b1, a2 / b2)))
    resolution = spin.su2_resolution_check(j)
    rows = [
        CheckRow("projected_vs_su2_overlap", worst, 1e-10),
        CheckRow("su2_resolution_residual", resolution, 1e-8),
    ]
    return rows, {}


def _exp_correlations(cfg, seed):
    nmax = _get(cfg, "nmax", 40, int, 4)
    mprime = _get(cfg, "mprime", 6, int, 0, nmax - 8)
    offsets = (0.0, 0.35, 0.8)
    ops = ("H", "Q", "P")
    a_ket = math.sqrt(max(mprime, 1))
    evals = [a_ket * np.exp(1j * off) for off in offsets]
    ratios = correlators.projected_ratios("single", a_ket, evals, mprime, nmax, ops)
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
                oracle = correlators.oracle_ratio("single", op, a_ket, a_eval, mprime)
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
        isinstance(m, int) and not isinstance(m, bool) and m > 0 for m in m_values
    ):
        raise ConfigError("m_values", "must be a list of positive integers")
    m_values = sorted(set(m_values))
    if len(m_values) < 2:
        raise ConfigError("m_values", "needs at least two distinct values to fit a scaling exponent")
    rows_data = correlators.classical_limit_check(model, tuple(m_values))
    exponent = correlators.deviation_scaling_exponent(rows_data)
    rows = [
        CheckRow("deviation_monotone_decrease", _largest_rise([r.dev_abs for r in rows_data]), 0.0),
        CheckRow("scaling_exponent_offset_from_-0.5", abs(exponent + 0.5), 0.2),
        CheckRow("h_ratio_error", max(r.h_ratio_error for r in rows_data), 1e-12),
    ]
    sweep = [(r.m, r.dev_abs, r.dev_rel) for r in rows_data]
    return rows, {"deviation": (["m", "dev_abs", "dev_rel"], sweep)}


def _exp_geometry(cfg, seed):
    n = _get(cfg, "n", 1, int, 1)
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
    rows = [
        CheckRow("curvature_residual", curv_err, 1e-4),
        CheckRow("pullback_metric_residual", pull_err, 1e-8),
        CheckRow("symplectic_area_vs_pi_s2", abs(quant.symplectic_area - math.pi * s2), 1e-4),
        CheckRow("energy_quantization_residual", abs(quant.energy - n), 1e-12),
    ]
    return rows, {}


def _exp_wiener(cfg, seed):
    nmax = _get(cfg, "nmax", 12, int, 2)
    mprime = _get(cfg, "mprime", 1, int, 0, nmax)
    eps = _get(cfg, "epsilon", 0.45, float, 1e-3, 0.499)
    n_paths = _get(cfg, "n_paths", 100_000, int, 100, WIENER_MAX_PATHS)
    semi = wiener.semigroup_residual(0.7, 0.0, 0.4, 1.0, [0.1, -0.2], [0.5, 0.3])
    mid = wiener.sample_bridge_column(1.0, [0.0], [0.0], 1.0, 16, 8, n_paths, seed, stream=3)[:, 0]
    var_expected = 1.0 * 0.5 * 0.5  # nu t (T - t) / T at the midpoint
    var_err = abs(float(np.var(mid)) - var_expected)
    var_band = 3.0 * var_expected * math.sqrt(2.0 / (n_paths - 1))
    constraint = projector.single_constraint(make_space(1, nmax), float(mprime))
    alpha = 1.0
    est = wiener.lambda_average_propagator(constraint, eps, alpha, alpha, n_paths=n_paths, seed=seed, stream=4)
    est_wide = wiener.lambda_average_propagator(
        constraint, eps, alpha, alpha, n_paths=n_paths, window=4000.0, seed=seed, stream=5
    )
    est_nu = [
        wiener.lambda_average_propagator(
            constraint, eps, alpha, alpha, n_paths=n_paths, nu=nu, seed=seed, stream=6 + k
        )
        for k, nu in enumerate((0.5, 2.0))
    ]
    nu_errors = [e.mc_error - 3.0 * e.mc_se for e in est_nu]
    window_errors = [abs(e.mc_value - e.finite_window) - 3.0 * e.mc_se for e in (est, est_wide, *est_nu)]
    rows = [
        CheckRow("semigroup_residual", semi, 1e-8),
        CheckRow("bridge_midpoint_variance_error", var_err, var_band),
        CheckRow("quadrature_vs_spectral", est.quadrature_error, 1e-4),
        CheckRow("mc_vs_spectral_minus_3se", est.mc_error - 3.0 * est.mc_se, 0.0),
        CheckRow("mc_window_doubled_minus_3se", est_wide.mc_error - 3.0 * est_wide.mc_se, 0.0),
        CheckRow("mc_nu_sweep_minus_3se", max(nu_errors), 0.0),
        CheckRow("mc_vs_finite_window_minus_3se", max(window_errors), 0.0),
        CheckRow("finite_window_bias", abs(est.finite_window - est.spectral), est.window_bias_bound),
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
        "heat-kernel semigroup, bridge sampling, and lapse-averaged propagator estimators",
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
        name = cfg.get("experiment")
        if not isinstance(name, str):
            raise ConfigError("experiment", "required string")
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    if name not in EXPERIMENTS:
        print(f"unknown experiment {name!r}", file=sys.stderr)
        print(list_experiments(), file=sys.stderr)
        return 2
    seed = seed_override if seed_override is not None else cfg.get("seed", DEFAULT_SEED)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        print("config error: config field 'seed': must be a non-negative integer", file=sys.stderr)
        return 3
    out = out_dir if out_dir is not None else cfg.get("out", "results")
    try:
        rows, sweeps = EXPERIMENTS[name].runner(cfg, seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except coherent.TruncationLeakageError as exc:
        print(f"config error: config field 'nmax': {exc}", file=sys.stderr)
        return 3
    except fock.DimensionGuardError as exc:
        field = "m_values" if name == "classical-limit" else "nmax"
        print(f"config error: config field '{field}': {exc}", file=sys.stderr)
        return 3
    _write_outputs(out, name, rows, sweeps, cfg_bytes, seed)
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
