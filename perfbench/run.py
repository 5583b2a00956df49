"""csquant benchmark: drives `csquant.cli.main(["run", ...])` on fixed workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all        # every workload, in turn

Run from anywhere; the repository root is the parent of this directory and
the program is imported from its `src/`.  Each workload run is one fresh
Python process (a closed loop with one client): it imports `csquant.cli`,
runs the workload's experiments in order through the CLI with `--seed`,
and exits.  Processes run one at a time, with BLAS/OpenMP threads capped,
until the `--seconds` budget would be exceeded.  Set-up time is also
sampled by processes that only import `csquant.cli`.

Every experiment run is checked: exit code 0, every check row passed, the
expected check rows present, the seed recorded in provenance, and output
files byte-identical to the first run of the same seed.  A run with any miss
counts as failed and its timing is not used.

With `--trace 0` the last line reports the end-to-end metrics of
BENCHMARK.json; with `--trace 1` traced and untraced processes alternate and
it reports the per-layer metrics (self times, call counts, computed bytes).
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_ROOT = ROOT / ".perfbench_out"

DEFAULT_SEED = 1
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 120
# One thread keeps timings steady on a shared machine; must stay <= nproc.
THREAD_CAP = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMBA_NUM_THREADS")

# Experiment configs per workload, run in this order by every process.
WORKLOADS = {
    "default-suite": [
        {"experiment": name}
        for name in (
            "resolution",
            "project-single",
            "project-double",
            "spin-overlap",
            "correlations",
            "classical-limit",
            "geometry",
            "wiener",
        )
    ],
    "dense-sectors": [
        {"experiment": "spin-overlap", "nmax": 50, "mprime": 24},
        {"experiment": "project-double", "nmax": 50, "mprime": 20},
        {"experiment": "classical-limit", "model": "single", "m_values": [16, 64, 256, 1024]},
    ],
    "mc-paths": [
        {"experiment": "wiener", "n_paths": 1_000_000},
    ],
}

# Check rows each experiment must report, so that a run cannot pass vacuously.
EXPECTED_CHECKS = {
    "resolution": {"identity_block_residual", "offdiagonal_max"},
    "project-single": {"projected_component_residual", "physical_norm_error", "null_norm_fractional_targets"},
    "project-double": {"su2_state_match_residual"},
    "spin-overlap": {"projected_vs_su2_overlap", "su2_resolution_residual"},
    "correlations": {"h_ratio_error", "qp_bracket_vs_matrix"},
    "classical-limit": {"deviation_monotone_decrease", "scaling_exponent_offset_from_-0.5", "h_ratio_error"},
    "geometry": {
        "curvature_residual",
        "pullback_metric_residual",
        "symplectic_area_vs_pi_s2",
        "energy_quantization_residual",
    },
    "wiener": {
        "semigroup_residual",
        "bridge_midpoint_variance_error",
        "quadrature_vs_spectral",
        "mc_vs_spectral_minus_3se",
        "mc_window_doubled_minus_3se",
        "mc_nu_sweep_minus_3se",
    },
}

COUNTERS = ("fock.dense_bytes", "kernels.out_bytes", "coherent.tail_warnings")


def monotonic() -> float:
    # CLOCK_MONOTONIC is shared by all processes, so parent and child stamps compare
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def machine() -> dict:
    info = {"nproc": os.cpu_count(), "cpu_model": "unknown", "llc": "unknown"}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                key, _, value = line.partition(":")
                if key.strip() == "model name":
                    info["cpu_model"] = value.strip()
                elif key.strip() == "cache size":
                    info["llc"] = value.strip()
    except OSError:
        pass
    info["mem_total_gb"] = round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**30, 2)
    return info


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cap = str(min(THREAD_CAP, os.cpu_count() or 1))
    for var in THREAD_VARS:
        env[var] = cap
    return env


class Runner:
    """Starts the workload's processes one at a time and checks what they wrote."""

    def __init__(self, workload: str, seed: int, out: Path):
        self.seed = seed
        self.out = out
        self.env = child_env()
        self.count = 0
        self.reference = {}  # experiment -> output file hashes of the first run
        self.attempted = 0
        self.failures = []
        self.configs = []
        config_dir = out / "configs"
        config_dir.mkdir(parents=True)
        for index, cfg in enumerate(WORKLOADS[workload]):
            path = config_dir / f"{index}-{cfg['experiment']}.json"
            path.write_text(json.dumps(cfg, sort_keys=True) + "\n", encoding="utf-8")
            self.configs.append((cfg["experiment"], str(path)))

    def spawn(self, setup_only: bool = False, trace: bool = False):
        """Run one process; returns (report or None, set-up seconds, process seconds)."""
        self.count += 1
        run_dir = self.out / f"run-{self.count:03d}"
        run_dir.mkdir()
        spec = {
            "setup_only": setup_only,
            "trace": trace,
            "run_id": self.count,
            "seed": self.seed,
            "out": str(run_dir),
            "configs": [path for _, path in self.configs],
            "report": str(run_dir / "report.json"),
        }
        spec_path = run_dir / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        start = monotonic()
        with open(run_dir / "log.txt", "wb") as log:
            try:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "child.py"), str(spec_path)],
                    cwd=ROOT,
                    env=self.env,
                    stdout=log,
                    stderr=subprocess.STDOUT,
                    timeout=CHILD_TIMEOUT_S,
                )
                returncode = proc.returncode
            except subprocess.TimeoutExpired:
                returncode = "timeout"
        elapsed = monotonic() - start
        if returncode != 0 and setup_only:
            raise SystemExit(f"set-up probe failed ({returncode}); see {run_dir / 'log.txt'}")
        report = None
        if returncode == 0:
            report = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
        setup = report["ready"] - start if report else None
        if not setup_only and not self.check(run_dir, report, returncode):
            report = None
        return report, setup, elapsed

    def check(self, run_dir: Path, report, returncode) -> bool:
        """Count and name every failed experiment run of one process."""
        self.attempted += len(self.configs)
        if report is None:
            self.failures += [f"run {self.count} {exp}: process exit {returncode}" for exp, _ in self.configs]
            return False
        misses = []
        for (exp, _), result in zip(self.configs, report["experiments"]):
            reason = self.check_experiment(run_dir, exp, result)
            if reason:
                misses.append(f"run {self.count} {exp}: {reason}")
        self.failures += misses
        return not misses

    def check_experiment(self, run_dir: Path, exp: str, result: dict) -> str | None:
        if result["error"] is not None:
            return f"raised {result['error']}"
        table_path = run_dir / f"{exp}.json"
        if not table_path.is_file():
            return f"exit code {result['exit']}, no output table"
        table = json.loads(table_path.read_text(encoding="utf-8"))
        names = {row["name"] for row in table["checks"]}
        failed = sorted(row["name"] for row in table["checks"] if not row["passed"])
        if result["exit"] != 0 or failed:
            return f"exit code {result['exit']}, checks failed: {', '.join(failed) or 'none'}"
        missing = sorted(EXPECTED_CHECKS[exp] - names)
        if missing:
            return f"checks missing: {', '.join(missing)}"
        if table["provenance"]["seed"] != self.seed:
            return f"provenance seed {table['provenance']['seed']} != {self.seed}"
        files = [table_path, *sorted(Path(p) for p in glob.glob(str(run_dir / f"{exp}_*.csv")))]
        hashes = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}
        reference = self.reference.setdefault(exp, hashes)
        if hashes != reference:
            return "outputs differ from the first run at this seed"
        return None


def layer_metric(name: str, layers: dict, counters: dict) -> float:
    """Value of one per-layer metric of BENCHMARK.json from a traced process."""
    if name in COUNTERS:
        return float(counters.get(name, 0))
    prefix, _, field = name.rpartition(".")
    if "." in prefix:  # one function's spans, e.g. wiener.heat_kernel.calls
        return float(layers.get(prefix, {"calls": 0, "self_s": 0.0})[field])
    key = {"self_s": "self_s", "maxrss_rise_mb": "rise_mb"}[field]  # all spans of one module
    return sum(v[key] for span, v in layers.items() if span.startswith(prefix + "."))


def run_workload(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    out = OUT_ROOT / workload
    shutil.rmtree(out, ignore_errors=True)
    runner = Runner(workload, seed, out)
    deadline = monotonic() + seconds
    setups, env = [], None
    for _ in range(SETUP_PROBES):
        report, setup, _ = runner.spawn(setup_only=True)
        setups.append(setup)
        env = report["env"]
    if not Path(env["csquant_file"]).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"csquant imported from {env['csquant_file']}, not from {ROOT / 'src'}")
    plain, traced, longest = [], [], 0.0
    while True:
        tracing = trace and len(traced) < len(plain)
        report, setup, elapsed = runner.spawn(trace=tracing)
        longest = max(longest, elapsed)
        if setup is not None:
            setups.append(setup)
        if report is not None:
            (traced if tracing else plain).append(report)
        print(
            f"  run {runner.count:3d} {'traced' if tracing else 'plain '}: "
            f"{'ok' if report else 'FAILED'}, {elapsed:.2f} s"
            + (f", wall {report['wall_s']:.3f} s, maxrss {report['maxrss_mb']:.0f} MB" if report else ""),
            flush=True,
        )
        # two processes at least, so that byte-identity is checked
        enough = len(plain) + len(traced) >= 2 and bool(plain) and (bool(traced) or not trace)
        if (enough or runner.failures) and monotonic() + longest > deadline:
            break

    for line in runner.failures:
        print(f"  FAIL {line}")
    record = {
        "workload": workload,
        "seed": seed,
        "machine": machine(),
        "software": {k: env[k] for k in ("python", "numpy", "scipy", "backend", "numba_importable")},
        "blas_thread_cap": int(runner.env[THREAD_VARS[0]]),
        "concurrent_processes": 1,
        "processes": runner.count,
        "setup_samples": len(setups),
        "plain_runs": len(plain),
        "traced_runs": len(traced),
    }
    print("env: " + json.dumps(record, sort_keys=True))
    for index, (exp, _) in enumerate(runner.configs):
        times = [r["experiments"][index]["t1"] - r["experiments"][index]["t0"] for r in plain]
        if times:
            print(f"  experiment {index}:{exp}: median {statistics.median(times):.3f} s over {len(times)} runs")

    metrics = {}
    if not trace:
        values = {
            "wall_s": [r["wall_s"] for r in plain],
            "setup_s": setups,
            "peak_rss_mb": [r["maxrss_mb"] for r in plain],
        }
        for metric in spec["end_to_end"]:
            samples = values[metric["name"]]
            if samples:
                metrics[metric["name"]] = {"value": statistics.median(samples), "unit": metric["unit"]}
                print(
                    f"  {metric['name']} = {statistics.median(samples):.6g} {metric['unit']} "
                    f"(median of {len(samples)}, range {min(samples):.6g}..{max(samples):.6g})"
                )
    elif traced and plain:
        untraced_wall = statistics.median(r["wall_s"] for r in plain)
        for metric in spec["per_layer"]:
            name = metric["name"]
            if name == "trace.overhead_s":
                value = statistics.median(r["wall_s"] for r in traced) - untraced_wall
            elif name == "trace.unaccounted_s":
                value = statistics.median(
                    r["wall_s"] - sum(v["self_s"] for v in r["layers"].values()) for r in traced
                )
            else:
                value = statistics.median(layer_metric(name, r["layers"], r["counters"]) for r in traced)
            metrics[name] = {"value": value, "unit": metric["unit"]}
            print(f"  {name} = {value:.6g} {metric['unit']}")
    failed = len(runner.failures)
    print(f"  fail_frac = {failed / runner.attempted:.6g} ({failed} of {runner.attempted} experiment runs failed)")
    return {
        "correct": failed == 0 and bool(metrics),
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "csquant" / "cli.py").is_file():
        print(f"no csquant sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        print(f"workload {name} (seed {args.seed}, {seconds:g} s, trace {args.trace})", flush=True)
        results[name] = run_workload(name, args.seed, seconds, bool(args.trace), spec)
    if args.workload == "all":
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    else:
        result = results[args.workload]
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
