import ast
import cmath
import collections
import inspect
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import numpy as np

from csquant import classical, cli, coherent, correlators, projector, spin, wiener
from csquant.fock import make_space


def _write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_list_registry_contents(capsys):
    assert cli.main(["list"]) == 0
    out = capsys.readouterr().out
    assert "8 experiments" in out
    assert "spin-overlap" in out
    for name in cli.EXPERIMENTS:
        assert name in out


def test_registry_stable_order_and_count():
    names = list(cli.EXPERIMENTS)
    assert len(names) == 8
    assert names == list(cli.EXPERIMENTS)  # insertion order is the contract


def test_run_geometry_pass_and_outputs(tmp_path):
    cfg = _write_config(tmp_path, {"experiment": "geometry", "n": 1})
    out = tmp_path / "results"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    table = json.loads((out / "geometry.json").read_text())
    assert all(row["passed"] for row in table["checks"])
    assert table["provenance"]["seed"] == cli.DEFAULT_SEED
    assert table["provenance"]["version"]


def test_run_classical_limit_writes_csv(tmp_path):
    cfg = _write_config(tmp_path, {"experiment": "classical-limit", "m_values": [4, 16]})
    out = tmp_path / "res"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "classical-limit_deviation.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "m,dev_abs,dev_rel"
    assert len(lines) == 3


def test_unknown_experiment_exit_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"experiment": "nope"})
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "unknown experiment" in err
    assert "geometry" in err  # the registry is listed for the caller


def test_validation_failure_exit_3_names_field_no_outputs(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"experiment": "geometry", "n": 0})
    out = tmp_path / "never"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 3
    assert "'n'" in capsys.readouterr().err
    assert not out.exists()


def test_malformed_config_exit_3(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.main(["run", "--config", path.as_posix()]) == 3


@pytest.mark.parametrize(
    "raw", [b'{"experiment": "\xff"}', b"[" * 100_000 + b"]" * 100_000], ids=["not-utf8", "deeply-nested"]
)
def test_undecodable_config_exit_3(tmp_path, capsys, raw):
    path = tmp_path / "cfg.json"
    path.write_bytes(raw)
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "never")]) == 3
    assert "Traceback" not in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_seed_override_recorded(tmp_path):
    cfg = _write_config(tmp_path, {"experiment": "project-single"})
    out = tmp_path / "r"
    assert cli.main(["run", "--config", cfg, "--out", str(out), "--seed", "7"]) == 0
    table = json.loads((out / "project-single.json").read_text())
    assert table["provenance"]["seed"] == 7


def test_rerun_byte_identical(tmp_path):
    cfg = _write_config(
        tmp_path, {"experiment": "wiener", "n_paths": 4000, "seed": 99}
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cli.main(["run", "--config", cfg, "--out", str(out1)])
    cli.main(["run", "--config", cfg, "--out", str(out2)])
    assert (out1 / "wiener.json").read_bytes() == (out2 / "wiener.json").read_bytes()


def _src_env(**extra):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])), **extra)


def test_wiener_rerun_byte_identical_across_processes(tmp_path):
    # chunk buffers must not make the output depend on heap layout: vary the hash seed
    # (dict and allocation order) and the length of the output path between processes
    cfg = _write_config(tmp_path, {"experiment": "wiener", "n_paths": 2 * wiener.PATH_CHUNK + 777, "seed": 13})
    outs = []
    for hash_seed, sub in (("1", "a"), ("2024", "a-much-longer-output-directory-name")):
        out = tmp_path / sub
        run = "import sys; from csquant.cli import main; sys.exit(main(sys.argv[1:]))"
        subprocess.run(
            [sys.executable, "-c", run, "run", "--config", cfg, "--out", str(out)],
            capture_output=True,
            env=_src_env(PYTHONHASHSEED=hash_seed),
            check=True,
        )
        outs.append((out / "wiener.json").read_bytes())
    assert outs[0] == outs[1]


def test_classical_limit_double_byte_identical_across_blas_thread_counts(tmp_path):
    # the two-mode sector sums run over 10^5 terms: a BLAS product splits such a sum by its thread count and
    # each split rounds differently, a fixed-order sum does not
    cfg = _write_config(tmp_path, {"experiment": "classical-limit", "model": "double", "m_values": [4, 100_000]})
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        run = "import sys; from csquant.cli import main; sys.exit(main(sys.argv[1:]))"
        subprocess.run(
            [sys.executable, "-c", run, "run", "--config", cfg, "--out", str(out)],
            capture_output=True,
            env=_src_env(OPENBLAS_NUM_THREADS=threads),
            check=True,
        )
        outs.append([(out / name).read_bytes() for name in ("classical-limit.json", "classical-limit_deviation.csv")])
    assert outs[0] == outs[1]


def test_sector_ratios_bit_identical_across_blas_thread_counts():
    # every sum of the two-mode sector ratios at m = 10^5, not only the digits a run writes: the classical-limit
    # points, and an evaluation point whose modes differ in phase by 0.01 (its overlap's condition number is ~3.5,
    # far inside CONDITION_LIMIT)
    code = (
        "import math, numpy as np; from csquant import correlators; "
        "m = 100_000; r = math.sqrt(m / 2); "
        "evals = [(r * np.exp(1j * off),) * 2 for off in correlators.LIMIT_OFFSETS]; "
        "evals.append((r * np.exp(0.305j), r * np.exp(0.295j))); "
        "print([repr(complex(v)) for v in correlators.sector_ratios((r, r), evals, m).ravel()])"
    )
    outs = [
        subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=_src_env(OPENBLAS_NUM_THREADS=threads),
            check=True,
        ).stdout
        for threads in ("1", "2")
    ]
    assert outs[0] == outs[1]
    assert outs[0].count("j)") == 12


def test_resolution_byte_identical_across_blas_thread_counts(tmp_path):
    # the closure's sums run in a fixed order: a BLAS product rounds by its thread count
    cfg = _write_config(tmp_path, {"experiment": "resolution"})
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        run = "import sys; from csquant.cli import main; sys.exit(main(sys.argv[1:]))"
        subprocess.run(
            [sys.executable, "-c", run, "run", "--config", cfg, "--out", str(out)],
            capture_output=True,
            env=_src_env(OPENBLAS_NUM_THREADS=threads),
            check=True,
        )
        outs.append([(out / name).read_bytes() for name in ("resolution.json", "resolution_diagonal.csv")])
    assert outs[0] == outs[1]


def test_resolution_guard_bounds_peak_rss(tmp_path, monkeypatch):
    # the largest nmax the guard accepts at the default radius, and the largest radius at nmax 40, each raise
    # the peak RSS of a run by at most RESOLUTION_MAX_BYTES over a process that only imports the CLI
    monkeypatch.setattr(coherent, "_resolution_on_grid", lambda *args: None)

    def largest(accepted, lo, hi, step):
        while hi - lo > step:
            mid = (lo + hi) / 2 if step < 1 else (lo + hi) // 2
            lo, hi = (mid, hi) if accepted(mid) else (lo, mid)
        return lo

    def accepted(nmax, radius):
        try:
            coherent.resolution_of_unity_check(make_space(1, nmax), radius)
        except ValueError:
            return False
        return True

    nmax = largest(lambda n: accepted(n, 8.0), 40, 10**5, 1)
    radius = largest(lambda r: accepted(40, r), 8.0, 1e5, 1e-3)
    run = (
        "import resource, sys; from csquant.cli import main; "
        "code = main(sys.argv[1:]) if sys.argv[1:] else 0; "
        "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"
    )

    def peak_kib(*args):
        out = subprocess.run(
            [sys.executable, "-c", run, *args], capture_output=True, text=True, env=_src_env(), check=True
        ).stdout.splitlines()[-1].split()
        assert out[0] == "0"
        return int(out[1])  # ru_maxrss is in KiB on Linux

    base = peak_kib()
    for payload in ({"experiment": "resolution", "nmax": nmax}, {"experiment": "resolution", "radius": radius}):
        cfg = _write_config(tmp_path, payload)
        rise = 1024 * (peak_kib("run", "--config", cfg, "--out", str(tmp_path / "r")) - base)
        assert rise <= coherent.RESOLUTION_MAX_BYTES, (payload, rise)


def test_wiener_memory_per_path_is_bounded(tmp_path):
    # one streaming pass holds one chunk of paths, not O(n_paths) arrays: the peak does not grow with n_paths
    for n_paths in (200_000, 1_000_000):
        cfg = _write_config(tmp_path, {"experiment": "wiener", "n_paths": n_paths})
        tracemalloc.start()
        try:
            code = cli.main(["run", "--config", cfg, "--out", str(tmp_path / f"out-{n_paths}")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak <= 8 * 2**20


class _Sentinel(Exception):
    pass


@pytest.mark.parametrize("failing_stream", [4, 5])
def test_wiener_lapse_law_error_is_raised_by_the_caller(tmp_path, monkeypatch, failing_stream):
    # stream 4 is drawn on the calling thread and stream 5 on the worker: either error reaches the caller as it is,
    # no thread outlives the run and nothing is written
    original = wiener.sample_lapse_proper_times

    def raising():
        raise _Sentinel(f"stream {failing_stream}")
        yield

    def failing(nu, window, n_paths, seed, stream):
        return raising() if stream == failing_stream else original(nu, window, n_paths, seed, stream)

    monkeypatch.setattr(wiener, "sample_lapse_proper_times", failing)
    cfg = _write_config(tmp_path, {"experiment": "wiener", "n_paths": 1000})
    threads = threading.active_count()
    with pytest.raises(_Sentinel, match=f"stream {failing_stream}"):
        cli.main(["run", "--config", cfg, "--out", str(tmp_path / "r")])
    assert threading.active_count() == threads
    assert not (tmp_path / "r").exists()


def test_wiener_joins_the_worker_when_a_calling_thread_law_fails(tmp_path, monkeypatch):
    # the worker's laws (streams 5 and 7) finish only after the calling thread's first law has raised,
    # so the run returns before them unless it joins the worker
    lapse_failed = threading.Event()
    finished = []
    original = wiener.sample_lapse_proper_times

    def failing():
        lapse_failed.set()
        raise _Sentinel("stream 4")
        yield

    def late(chunks, stream):
        assert lapse_failed.wait(timeout=30)
        time.sleep(0.05)
        yield from chunks
        finished.append(stream)

    def late_or_failing(nu, window, n_paths, seed, stream):
        return failing() if stream == 4 else late(original(nu, window, n_paths, seed, stream), stream)

    monkeypatch.setattr(wiener, "sample_lapse_proper_times", late_or_failing)
    cfg = _write_config(tmp_path, {"experiment": "wiener", "n_paths": 1000})
    threads = threading.active_count()
    with pytest.raises(_Sentinel, match="stream 4"):
        cli.main(["run", "--config", cfg, "--out", str(tmp_path / "r")])
    assert finished == [5, 7]
    assert threading.active_count() == threads


def test_wiener_laws_on_two_threads_equal_serial_calls(tmp_path, monkeypatch):
    # each law owns its stream and its chunk buffers: its estimate equals a one-law call's bit for bit,
    # also when the threads switch every microsecond
    calls = []
    original = wiener.lapse_averages

    def recording(eigs, weights, laws, n_paths, seed):
        calls.append(((eigs, weights, laws, n_paths, seed), original(eigs, weights, laws, n_paths, seed)))
        return calls[-1][1]

    monkeypatch.setattr(wiener, "lapse_averages", recording)
    cfg = _write_config(tmp_path, {"experiment": "wiener", "n_paths": 3 * wiener.PATH_CHUNK + 11, "seed": 5})
    interval = sys.getswitchinterval()
    outputs = []
    for switch in (interval, 1e-6):
        calls.clear()
        sys.setswitchinterval(switch)
        try:
            assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / f"r-{switch}")]) == 0
        finally:
            sys.setswitchinterval(interval)
        outputs.append((tmp_path / f"r-{switch}" / "wiener.json").read_bytes())
        [((eigs, weights, laws, n_paths, seed), estimates)] = calls
        assert [law[0] for law in laws] == [4, 5, 6, 7]
        for law, estimate in zip(laws, estimates):
            assert original(eigs, weights, [law], n_paths, seed) == [estimate]
    assert outputs[0] == outputs[1]


def test_wiener_worker_calls_no_public_function(tmp_path):
    # perfbench's tracer patches every public module-level function of csquant and keeps one span stack,
    # so the worker thread may run only private code, or traced spans would misparent
    public, private = [], []

    def profile(frame, event, arg):
        module = sys.modules.get(frame.f_globals.get("__name__", ""))
        if event == "call" and module is not None and module.__name__.startswith("csquant"):
            name = frame.f_code.co_name
            if inspect.isfunction(vars(module).get(name)):
                (private if name.startswith("_") else public).append(f"{module.__name__}.{name}")

    cfg = _write_config(tmp_path, {"experiment": "wiener", "n_paths": 1000})
    threading.setprofile(profile)
    try:
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == 0
    finally:
        threading.setprofile(None)
    assert public == []
    assert "csquant.wiener._bin_moments" in private


def test_largest_rise_catches_non_monotone_sequence():
    # the dev_abs sequence at m = 4, 64, 16: a drop, then a rise of 0.044
    assert cli._largest_rise([0.172, 0.044, 0.088]) == pytest.approx(0.044)
    assert cli._largest_rise([0.172, 0.088, 0.044]) == 0.0
    assert cli._largest_rise([0.1]) == 0.0


def test_classical_limit_sorts_m_values(tmp_path):
    cfg = _write_config(tmp_path, {"experiment": "classical-limit", "m_values": [4, 64, 16]})
    out = tmp_path / "res"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "classical-limit_deviation.csv").read_text(encoding="utf-8").splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["4", "16", "64"]


@pytest.mark.parametrize("m_values", [[4], [4, 4], []])
def test_classical_limit_needs_two_distinct_m(tmp_path, capsys, m_values):
    cfg = _write_config(tmp_path, {"experiment": "classical-limit", "m_values": m_values})
    out = tmp_path / "never"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 3
    assert "'m_values'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "payload, field",
    [
        ('{"experiment": "wiener", "epsilon": NaN}', "epsilon"),
        ('{"experiment": "project-single", "alpha_re": Infinity}', "alpha_re"),
        ('{"experiment": "wiener", "epsilon": true}', "epsilon"),
        ('{"experiment": "geometry", "n": true}', "n"),
        ('{"experiment": "geometry", "n": 1.7}', "n"),
        ('{"experiment": "geometry", "n": "1"}', "n"),
        ('{"experiment": "wiener", "epsilon": 1' + "0" * 400 + "}", "epsilon"),
        ('{"experiment": "classical-limit", "m_values": [true, 4]}', "m_values"),
    ],
    ids=["nan", "infinity", "bool-for-float", "bool-for-int", "fractional-int", "string", "overflow", "bool-in-list"],
)
def test_bad_numbers_exit_3_naming_field(tmp_path, capsys, payload, field):
    path = tmp_path / "cfg.json"
    path.write_text(payload)
    out = tmp_path / "never"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 3
    assert f"'{field}'" in capsys.readouterr().err
    assert not out.exists()


def test_integral_float_accepted_for_int_field(tmp_path):
    cfg = _write_config(tmp_path, {"experiment": "geometry", "n": 2.0})
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == 0


# (id, payload, field, extra CLI arguments): each config is refused with exit 3 naming field
_UNUSABLE = [
    ("single-leakage", {"experiment": "project-single", "alpha_re": 9}, "nmax", []),
    ("double-leakage", {"experiment": "project-double", "alpha_re": 9}, "nmax", []),
    ("double-nmax-1", {"experiment": "project-double", "nmax": 1, "mprime": 1}, "nmax", []),
    ("spin-overlap-leakage", {"experiment": "spin-overlap", "nmax": 4, "mprime": 3}, "nmax", []),
    # correlations sums over its sector and has no cutoff to set
    ("correlations-nmax", {"experiment": "correlations", "nmax": 40}, "nmax", []),
    # an integer target lies 1/2 or more from every other level, so the projector's window half-width moves nothing
    ("project-single-epsilon", {"experiment": "project-single", "epsilon": 0.3}, "epsilon", []),
    ("project-double-epsilon", {"experiment": "project-double", "epsilon": 0.3}, "epsilon", []),
    # wiener's cutoff is the constant WIENER_NMAX, so an nmax is an unread field and mprime stops at the cutoff
    ("wiener-nmax", {"experiment": "wiener", "nmax": 5, "n_paths": 1000}, "nmax", []),
    ("wiener-mprime-above-cutoff", {"experiment": "wiener", "mprime": 13}, "mprime", []),
    ("resolution-grid", {"experiment": "resolution", "nmax": 1, "radius": 10000}, "radius", []),
    ("resolution-unclosed", {"experiment": "resolution", "radius": 3.57}, "radius", []),
    ("beta-zero", {"experiment": "project-double", "beta_re": 0, "beta_im": 0}, "beta_re", []),
    ("beta-ratio-overflow", {"experiment": "project-double", "beta_re": 1e-310, "beta_im": 0}, "beta_re", []),
    (
        "double-zero-projection",
        {"experiment": "project-double", "alpha_re": 0, "alpha_im": 0, "beta_re": 1e-200, "beta_im": 0},
        "beta_re",
        [],
    ),
    ("single-dim-guard", {"experiment": "project-single", "nmax": 2_000_000}, "nmax", []),
    ("spin-overlap-dim-guard", {"experiment": "spin-overlap", "nmax": 1001}, "nmax", []),
    ("spin-overlap-underflow", {"experiment": "spin-overlap", "nmax": 302, "mprime": 300}, "mprime", []),
    # one label's largest projected entry is subnormal: dividing by it gave a NaN pair that max() dropped
    ("spin-overlap-subnormal", {"experiment": "spin-overlap", "nmax": 272, "mprime": 270, "seed": 2}, "mprime", []),
    ("single-label-overflow", {"experiment": "project-single", "alpha_re": 1e200}, "nmax", []),
    ("double-alpha-overflow", {"experiment": "project-double", "alpha_re": 1e200}, "nmax", []),
    ("double-beta-overflow", {"experiment": "project-double", "beta_re": 1e200}, "nmax", []),
    ("root-not-object", [], "<root>", []),
    ("no-experiment", {}, "experiment", []),
    ("seed-negative", {"experiment": "geometry", "seed": -1}, "seed", []),
    ("seed-bool", {"experiment": "geometry", "seed": True}, "seed", []),
    ("seed-flag-negative", {"experiment": "geometry"}, "seed", ["--seed", "-3"]),
    ("seed-above-uint64", {"experiment": "wiener", "n_paths": 100}, "seed", ["--seed", str(2**64)]),
    ("out-not-string", {"experiment": "geometry", "out": 5}, "out", []),
    ("out-empty", {"experiment": "geometry", "out": ""}, "out", []),
    ("out-not-directory", {"experiment": "geometry", "out": "/dev/null/x"}, "out", []),
    ("out-flag-not-directory", {"experiment": "geometry"}, "out", ["--out", "/dev/null/x"]),
    ("out-nul-byte", {"experiment": "geometry", "out": "a\0b"}, "out", []),
    ("geometry-n-401-digits", {"experiment": "geometry", "n": 10**400}, "n", []),
    ("geometry-n-flat-curvature", {"experiment": "geometry", "n": 10**4}, "n", []),
    ("classical-limit-m-overflow", {"experiment": "classical-limit", "m_values": [4, 10**400]}, "m_values", []),
    (
        "classical-limit-double-m-cap",
        {"experiment": "classical-limit", "model": "double", "m_values": [4, 10**20]},
        "m_values",
        [],
    ),
    ("spin-overlap-n-pairs", {"experiment": "spin-overlap", "n_pairs": 10**27}, "n_pairs", []),
    # above m = 10^6 the double model's roundoff could fail its monotone row: at 2^51, 2^52 and at 2^30, 2^30 + 1 it did
    (
        "classical-limit-double-m-2^52",
        {"experiment": "classical-limit", "model": "double", "m_values": [2**51, 2**52]},
        "m_values",
        [],
    ),
    (
        "classical-limit-double-m-adjacent-2^30",
        {"experiment": "classical-limit", "model": "double", "m_values": [2**30, 2**30 + 1]},
        "m_values",
        [],
    ),
    # a field the experiment does not read, e.g. a typo that would leave the default in force
    ("wiener-unknown-field", {"experiment": "wiener", "n_path": 10}, "n_path", []),
    ("geometry-unknown-field", {"experiment": "geometry", "nn": 5}, "nn", []),
    # every runner refuses an unread field
    *((f"{name}-unread-field", {"experiment": name, "unread": 1}, "unread", []) for name in cli.EXPERIMENTS),
]


def _run_unusable(tmp_path, payload, extra):
    """cli.main on payload; --out points into tmp_path unless the config names its own out or extra does."""
    cfg = _write_config(tmp_path, payload)
    own_out = "out" in payload or "--out" in extra
    return cli.main(["run", "--config", cfg, *([] if own_out else ["--out", str(tmp_path / "never")]), *extra])


@pytest.mark.parametrize("payload, field, extra", [case[1:] for case in _UNUSABLE], ids=[case[0] for case in _UNUSABLE])
def test_unusable_config_exit_3_naming_field(tmp_path, capsys, payload, field, extra):
    assert _run_unusable(tmp_path, payload, extra) == 3
    err = capsys.readouterr().err
    assert f"config field '{field}'" in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


# Library raises that no unusable config reaches but that stay: per function, one reason for each such raise.
_RAISE_KEEP = {
    ("correlators", "sector_ratios"): (
        "refuses a computed overlap, not an input: one below RATIO_FLOOR, or one whose terms cancel"
        " past CONDITION_LIMIT, which no config reaches since every CLI label pair shares one phase",
    ),
    ("fock", "LinearOperator.__post_init__"): ("perfbench's tracer patches the class; nothing builds one",),
    ("wiener", "lapse_averages"): (
        "refuses a non-integer eigenvalue x, for which exp(-i x k h) is not periodic in the bin k mod 4096, so"
        " the estimate would be silently wrong; every CLI eigenvalue is an integer, since mprime is an int",
        "re-raises, on the calling thread, what a law on the worker thread raised; no config makes a law raise",
    ),
}


def test_every_library_raise_is_reached_by_an_unusable_config(tmp_path):
    # the modules assume in-range arguments: a raise outside cli that no refused config executes
    # re-checks what the boundary already bounds
    src = pathlib.Path(cli.__file__).parent
    modules = {str(path): path.stem for path in src.glob("*.py") if path.stem != "cli"}
    executed = set()

    def trace(frame, event, arg):
        if frame.f_code.co_filename not in modules:
            return None
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # truncation-tail warnings are expected here
            for case_id, payload, _, extra in _UNUSABLE:
                run_dir = tmp_path / case_id
                run_dir.mkdir()
                assert _run_unusable(run_dir, payload, extra) == 3
    finally:
        sys.settrace(previous)
    unreached = collections.Counter()
    for path, module in modules.items():
        for node in ast.parse(pathlib.Path(path).read_text(encoding="utf-8")).body:
            scopes = [(node.name, node)] if isinstance(node, ast.FunctionDef) else []
            if isinstance(node, ast.ClassDef):
                scopes = [(f"{node.name}.{item.name}", item) for item in node.body if isinstance(item, ast.FunctionDef)]
            for name, scope in scopes:
                for sub in ast.walk(scope):
                    lines = range(sub.lineno, sub.end_lineno + 1) if isinstance(sub, ast.Raise) else ()
                    if lines and not any((path, line) in executed for line in lines):
                        unreached[module, name] += 1
    assert unreached == {key: len(reasons) for key, reasons in _RAISE_KEEP.items()}


@pytest.mark.parametrize(
    "payload",
    [
        {"experiment": "project-double", "alpha_re": 0, "alpha_im": 0, "beta_re": 1e-3, "beta_im": 0},
        {"experiment": "project-double", "beta_re": 1e-200, "beta_im": 0},
        {"experiment": "project-double", "mprime": 1, "beta_re": 1e-160, "beta_im": 0},
        {"experiment": "project-double", "alpha_re": 0.01, "alpha_im": 0, "beta_re": 0.01, "beta_im": 0, "mprime": 8},
    ],
    ids=["double-null", "beta-gauge-underflow", "beta-label-overflow", "small-projected-norm"],
)
def test_project_double_tiny_amplitudes_pass(tmp_path, payload):
    # scaled by its largest entry before the norm, a projection whose norm or |0, m> entry is far
    # below 1e-12 is still a direction; the gauge is (beta/|beta|)^m, not read off the state
    cfg = _write_config(tmp_path, payload)
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == 0


def test_wiener_path_count_refused_before_sampling(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("sampler called for a refused config")

    monkeypatch.setattr(wiener, "sample_lapse_proper_times", never)
    cfg = _write_config(tmp_path, {"experiment": "wiener", "n_paths": 2_000_000_000})
    out = tmp_path / "never"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 3
    assert "config field 'n_paths'" in capsys.readouterr().err
    assert not out.exists()
    # the 1e6-path benchmark workload stays under the CLI cap
    assert 1_000_000 <= cli.WIENER_MAX_PATHS


def test_classical_limit_double_passes_at_the_m_cap(tmp_path):
    # adjacent m at the cap still decrease: the step 1/(2m) stays above the ratios' roundoff
    m_values = [cli.CLASSICAL_MAX_M - 1, cli.CLASSICAL_MAX_M]
    cfg = _write_config(tmp_path, {"experiment": "classical-limit", "model": "double", "m_values": m_values})
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == 0


def test_classical_limit_single_passes_at_the_m_cap(tmp_path):
    # the sector sums build no truncated space, so no basis-state guard stops m below the cap
    cfg = _write_config(tmp_path, {"experiment": "classical-limit", "m_values": [4, cli.CLASSICAL_MAX_M]})
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == 0


def test_unknown_field_refused_before_the_experiment_runs(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the estimator ran for a refused config")

    monkeypatch.setattr(wiener, "lapse_averages", never)
    # a misspelt field, and an nmax whose 10^6 levels would take ~7 min of phase sums if it were read
    for field, value in (("n_path", 10), ("nmax", 999999)):
        assert _run_unusable(tmp_path, {"experiment": "wiener", field: value}, []) == 3
        assert f"config field '{field}'" in capsys.readouterr().err


def test_wiener_cutoff_is_the_smallest_under_the_tail_warning():
    # wiener's state is fixed at alpha = 1: above WIENER_NMAX its Poisson(1) tail is below TAIL_WARN,
    # above every smaller cutoff it is not
    cutoffs = range(1, cli.WIENER_NMAX + 1)
    tails = [coherent.truncation_tail(coherent.single_mode_amplitudes(1.0, 0, n), 1.0) for n in cutoffs]
    assert [tail < coherent.TAIL_WARN for tail in tails] == [n == cli.WIENER_NMAX for n in cutoffs]


@pytest.mark.parametrize(
    "payload",
    [
        {"experiment": "correlations", "mprime": 1200},
        {"experiment": "classical-limit", "model": "single", "m_values": [4, 1200]},
        {"experiment": "classical-limit", "model": "double", "m_values": [4, 1200]},
        {"experiment": "correlations", "mprime": 1000000},
        {"experiment": "classical-limit", "model": "single", "m_values": [4, 1000000]},
    ],
    ids=[
        "correlations",
        "classical-limit-single",
        "classical-limit-double",
        "correlations-at-the-cap",
        "classical-limit-single-at-the-cap",
    ],
)
def test_correlators_build_no_dense_operator(tmp_path, payload):
    # a dense operator on a truncated space holding m = 1200 (~1600 states) takes ~20 MB,
    # while each sector array takes ~19 kB; one mode's sector is one state, so even
    # m = 10^6 needs three amplitudes per label, where an array over its m + 1 levels takes 16 MB
    cfg = _write_config(tmp_path, payload)
    tracemalloc.start()
    try:
        code = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "r")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= 2 * 2**20


def test_project_single_builds_one_coherent_state(tmp_path, monkeypatch):
    calls = []
    original = cli.coherent_vector

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cli, "coherent_vector", counting)
    cfg = _write_config(tmp_path, {"experiment": "project-single"})
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == 0
    assert len(calls) == 1  # the level and the three null probes project the same state


def test_wiener_builds_one_coherent_state_and_one_quadrature(tmp_path, monkeypatch):
    # the four lapse laws share the state, its weights and the references no law enters
    calls = collections.Counter()

    def count(module, name):
        original = getattr(module, name)

        def counting(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counting)

    for module in (cli, wiener):
        if hasattr(module, "coherent_vector"):
            count(module, "coherent_vector")
    count(projector, "sin_kernel_weights")
    cfg = _write_config(tmp_path, {"experiment": "wiener"})
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == 0
    assert calls == {"coherent_vector": 1, "sin_kernel_weights": 1}


def _no_zero_point(original):
    # drop the 1/2 per mode from the H ratio of the sector sums
    return lambda ket, evals, mprime: original(ket, evals, mprime) - [0.5 * np.size(ket), 0.0, 0.0]


def _q_offset(original):
    # 0.05 / sqrt(m) added to the Q ratio: a deviation that still falls monotonically, like m^-1/2
    return lambda ket, evals, mprime: original(ket, evals, mprime) + [0.0, 0.05 / math.sqrt(mprime), 0.0]


def _squeezed(original):
    # q1 scaled by 1/sqrt(2) scales dq1 ^ dp1, and so the patch area, by the same factor
    def squeezed(*args):
        q1, p1, q2, p2 = original(*args)
        return np.array([q1 / math.sqrt(2.0), p1, q2, p2])

    return squeezed


def _one_dimensional_norm(original):
    # the kernel's norm (2 pi v)^(-1/2) in every dimension, not (2 pi v)^(-d/2)
    def kernel(variance, x1, x2):
        d = np.atleast_1d(x1).shape[-1]
        return original(variance, x1, x2) * (2.0 * math.pi * variance) ** ((d - 1) / 2.0)

    return kernel


# defect(original) is patched over module.name: the run of config must exit 1 and fail its row, plus also_fails
_Defect = collections.namedtuple("_Defect", "config module name defect also_fails value", defaults=((), None))

# one named defect per check row, keyed experiment:row; value, if given, is what the row must read
_DEFECTS = {
    "resolution:identity_block_residual": _Defect(
        {"experiment": "resolution"},
        coherent,
        "_polar_nodes",
        # the radial spacing 0.1% high scales every node weight, so the diagonal reads 1.001
        lambda original: lambda *args: (lambda r, dr, th, dth: (r, 1.001 * dr, th, dth))(*original(*args)),
    ),
    "resolution:offdiagonal_max": _Defect(
        {"experiment": "resolution"},
        coherent,
        "_resolution_on_grid",
        # nmax angular nodes alias e^{i(n-m)theta} for |n - m| = nmax back to a constant
        lambda original: lambda space, radius, n_radial, n_angular: original(space, radius, n_radial, space.nmax),
    ),
    "project-single:projected_component_residual": _Defect(
        {"experiment": "project-single"},
        projector,
        "build_projector",
        # a phase on every weight moves the projected amplitude, not its norm or the null norms
        lambda original: lambda *args: original(*args) * cmath.exp(0.1j),
    ),
    "project-single:null_norm_fractional_targets": _Defect(
        {"experiment": "project-single"},
        projector,
        "build_projector",
        lambda original: lambda constraint: original(constraint, 0.6),  # every probe is within 0.6 of a level
    ),
    "project-double:su2_state_match_residual": _Defect(
        {"experiment": "project-double"},
        spin,
        "su2_coherent",
        lambda original: lambda twoj, xi: original(twoj, xi) * cmath.exp(0.1j),  # a wrong overall phase
    ),
    "spin-overlap:projected_vs_su2_overlap": _Defect(
        {"experiment": "spin-overlap"},
        spin,
        "su2_overlap",
        # the closed form without the conjugate on the bra's label
        lambda original: lambda twoj, xi_bra, xi_ket: original(twoj, complex(xi_bra).conjugate(), xi_ket),
    ),
    "spin-overlap:su2_resolution_residual": _Defect(
        {"experiment": "spin-overlap"},
        spin,
        "_closure_matrix",
        # one theta node fewer than the twoj // 2 + 1 that integrate the closure exactly
        lambda original: lambda twoj, n_theta, n_phi: original(twoj, twoj // 2, n_phi),
    ),
    "correlations:h_ratio_error": _Defect({"experiment": "correlations"}, correlators, "sector_ratios", _no_zero_point),
    "correlations:qp_bracket_vs_matrix": _Defect(
        {"experiment": "correlations"},
        correlators,
        "oracle_ratio",
        # the closed-form P bracket with its sign flipped
        lambda original: lambda operator, *args: (-1 if operator[0] == "P" else 1) * original(operator, *args),
    ),
    "classical-limit:h_ratio_error": _Defect(
        {"experiment": "classical-limit"}, correlators, "sector_ratios", _no_zero_point
    ),
    "classical-limit-double:h_ratio_error": _Defect(
        {"experiment": "classical-limit", "model": "double"}, correlators, "sector_ratios", _no_zero_point
    ),
    "classical-limit:dev_abs_vs_zero_point_shift": _Defect(
        {"experiment": "classical-limit"}, correlators, "sector_ratios", _q_offset
    ),
    "geometry:curvature_residual": _Defect(
        {"experiment": "geometry"},
        classical,
        "scalar_curvature_fd",
        lambda original: lambda *args: 0.5 * original(*args),  # the Gauss curvature, without the factor 2
    ),
    "geometry:energy_quantization_residual": _Defect(
        {"experiment": "geometry"}, correlators, "sector_ratios", _no_zero_point
    ),
    "geometry:symplectic_area_vs_pi_s2": _Defect(
        {"experiment": "geometry"},
        classical,
        "_embedding",
        _squeezed,
        also_fails=("pullback_metric_residual",),  # the squeezed embedding has another metric
        value=2.0 * math.pi * (1.0 - 1.0 / math.sqrt(2.0)),
    ),
    "wiener:semigroup_residual": _Defect(
        {"experiment": "wiener"},
        wiener,
        "heat_kernel",
        _one_dimensional_norm,
        # the per-axis sums read 1-d kernels, so only the 2-d direct term is off, by sqrt(2 pi v) at v = 0.7
        value=(math.sqrt(2.0 * math.pi * 0.7) - 1.0) * wiener.heat_kernel(0.7, [0.1, -0.2], [0.5, 0.3]),
    ),
    "wiener:quadrature_vs_spectral": _Defect(
        {"experiment": "wiener"},
        projector,
        "sin_kernel_weights",
        lambda original: lambda *args: math.pi * original(*args),  # the closed form without its 1/pi
    ),
    "wiener:bridge_midpoint_variance_error": _Defect(
        {"experiment": "wiener"},
        wiener,
        "bridge_column_variance",
        lambda original: lambda nu, n_steps, column: original(1.01 * nu, n_steps, column),  # diffusion 1% high
        value=0.01 * 0.25,
    ),
}


@pytest.mark.parametrize("key", list(_DEFECTS))
def test_defect_fails_its_row(tmp_path, monkeypatch, key):
    defect = _DEFECTS[key]
    row = key.split(":")[1]
    monkeypatch.setattr(defect.module, defect.name, defect.defect(getattr(defect.module, defect.name)))
    cfg = _write_config(tmp_path, defect.config)
    out = tmp_path / "r"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 1
    checks = {r["name"]: r for r in json.loads((out / f"{defect.config['experiment']}.json").read_text())["checks"]}
    assert {name for name, r in checks.items() if not r["passed"]} == {row, *defect.also_fails}
    if defect.value is not None:
        assert checks[row]["value"] == pytest.approx(defect.value, rel=1e-12, abs=0.0)


def test_project_single_null_state_is_the_zero_vector(tmp_path):
    # alpha = 0 has no |3> component: the projection is null and that is the right answer
    cfg = _write_config(tmp_path, {"experiment": "project-single", "alpha_re": 0, "mprime": 3})
    out = tmp_path / "r"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    table = json.loads((out / "project-single.json").read_text())
    values = {row["name"]: row["value"] for row in table["checks"]}
    assert values["projected_component_residual"] == 0.0
    assert values["physical_norm_error"] == 0.0


def test_correlations_large_mprime_exits_0(tmp_path, capsys):
    # at the cap, the sector sums' roundoff stays inside the bracket row's 1e-10
    cfg = _write_config(tmp_path, {"experiment": "correlations", "mprime": cli.CLASSICAL_MAX_M})
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == 0
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "payload",
    [
        {"experiment": "correlations", "mprime": 5000},
        {"experiment": "correlations", "mprime": 50000},
        {"experiment": "project-single", "nmax": 300, "mprime": 200, "alpha_re": 14.14},
        {"experiment": "project-single", "nmax": 103814, "mprime": 100000, "alpha_re": math.sqrt(1e5) - 0.1},
        {"experiment": "project-single", "nmax": 911404, "mprime": 900000, "alpha_re": math.sqrt(9e5) - 0.1},
        {"experiment": "spin-overlap", "nmax": 162, "mprime": 160},
        {"experiment": "classical-limit", "m_values": [4, 900000]},
        {"experiment": "correlations", "mprime": 530000},
    ],
    ids=[
        "correlations-5000",
        "correlations-50000",
        "project-single-200",
        "project-single-100000",
        "project-single-900000",
        "spin-overlap-160",
        "classical-limit-900000",
        "correlations-530000",
    ],
)
def test_large_mprime_checks_pass(tmp_path, capsys, payload):
    # ratios of matrix elements keep roundoff relative, and no m! or 1/sqrt(m!) leaves float range;
    # the H ratio is scored relative to E, whose own ulp exceeds 1e-10 from E >= 2^19; project-single
    # scores the amplitude itself, so its log-Poisson pivot must be good to a few ulps
    cfg = _write_config(tmp_path, payload)
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == 0
    assert "Traceback" not in capsys.readouterr().err


# Public definitions that no experiment reaches but that stay, each with its reason.
_UNREACHED_KEEP = {
    ("_kernels", "backend_name"): "perfbench records the kernel backend of every run",
    ("fock", "LinearOperator"): "perfbench's tracer patches its __post_init__",
}


def test_every_public_definition_is_reached_from_cli():
    # a name walk: every top-level definition of cli is reached, and a reached definition
    # reaches every top-level definition or class method (keyed "Class.method") whose name it mentions
    src = pathlib.Path(cli.__file__).parent
    defs = {}
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[(path.stem, node.name)] = node
                for item in node.body if isinstance(node, ast.ClassDef) else []:
                    if isinstance(item, ast.FunctionDef):
                        defs[(path.stem, f"{node.name}.{item.name}")] = item
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                    if isinstance(target, ast.Name):
                        defs[(path.stem, target.id)] = node
    by_name = {}
    for module, name in defs:
        by_name.setdefault(name.split(".")[-1], []).append((module, name))
    reached = {key for key in defs if key[0] == "cli"}
    todo = list(reached)
    while todo:
        for sub in ast.walk(defs[todo.pop()]):
            name = sub.id if isinstance(sub, ast.Name) else sub.attr if isinstance(sub, ast.Attribute) else None
            for key in by_name.get(name, []):
                if key not in reached:
                    reached.add(key)
                    todo.append(key)
    unreached = {key for key in defs if key not in reached and not key[1].split(".")[-1].startswith("_")}
    assert unreached == set(_UNREACHED_KEEP)


def test_cli_import_loads_no_scipy(tmp_path):
    # numpy is the only runtime dependency: with a `scipy` that cannot be imported first on the path,
    # importing csquant.cli loads no scipy module and the eight default experiments pass; numpy.random and
    # numpy.polynomial (spin's Gauss-Legendre rule; numpy loads it lazily) load at import, so the first seeded
    # run and the first SU(2) closure check do not pay for those imports inside their own run time
    blocked = tmp_path / "blocked" / "scipy"
    blocked.mkdir(parents=True)
    (blocked / "__init__.py").write_text("raise ImportError('scipy is blocked')\n")
    for name in cli.EXPERIMENTS:
        _write_config(tmp_path, {"experiment": name}, name=f"{name}.json")
    code = (
        "import json, sys, warnings, csquant.cli as cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), 'numpy.random' in sys.modules, "
        "'numpy.polynomial' in sys.modules); "
        "warnings.simplefilter('ignore'); "
        "print(json.dumps([cli.main(['run', '--config', f'{sys.argv[1]}/{n}.json', '--out', f'{sys.argv[1]}/out'])"
        " for n in cli.EXPERIMENTS]))"
    )
    env = _src_env()
    env["PYTHONPATH"] = os.pathsep.join([str(blocked.parent), env["PYTHONPATH"]])
    result = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)], capture_output=True, text=True, env=env, check=True
    )
    lines = result.stdout.strip().splitlines()
    assert lines[0] == "[] True True"
    assert json.loads(lines[-1]) == [0] * 8


def test_default_experiments_warn_of_the_same_tails(tmp_path):
    # every truncation-tail warning of the eight default experiments at the default seed,
    # recorded one per call: 7, all from spin-overlap's seeded labels, as incomplete-gamma tails give
    count = 0
    for name in cli.EXPERIMENTS:
        cfg = _write_config(tmp_path, {"experiment": name}, name=f"{name}.json")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == 0
        count += sum(str(w.message).startswith("coherent-state tail") for w in caught)
    assert count == 7


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


_CHEAP_CONFIGS = st.one_of(
    st.fixed_dictionaries(
        {"experiment": st.just("resolution")},
        optional={"nmax": st.integers(0, 20), "radius": _floats(0.0, 6.0)},
    ),
    st.fixed_dictionaries(
        {"experiment": st.just("project-single")},
        optional={
            "nmax": st.integers(0, 30),
            "mprime": st.integers(-1, 30),
            "alpha_re": _floats(-7.0, 7.0),
            "alpha_im": _floats(-7.0, 7.0),
        },
    ),
    st.fixed_dictionaries(
        {"experiment": st.just("project-double")},
        optional={
            "nmax": st.integers(0, 12),
            "mprime": st.integers(0, 12),
            "alpha_re": _floats(-4.0, 4.0),
            "alpha_im": _floats(-4.0, 4.0),
            "beta_re": _floats(-4.0, 4.0),
            "beta_im": _floats(-4.0, 4.0),
        },
    ),
    st.fixed_dictionaries(
        {"experiment": st.just("spin-overlap")},
        optional={"nmax": st.integers(1, 10), "mprime": st.integers(0, 10), "n_pairs": st.integers(0, 2)},
    ),
    st.fixed_dictionaries(
        {"experiment": st.just("correlations")},
        optional={"mprime": st.integers(-1, 40)},
    ),
    st.fixed_dictionaries(
        {"experiment": st.just("classical-limit")},
        optional={
            "model": st.sampled_from(["single", "double", "triple"]),
            "m_values": st.lists(st.integers(0, 32), max_size=3),
        },
    ),
    st.fixed_dictionaries({"experiment": st.just("geometry")}, optional={"n": st.integers(0, 8)}),
    st.fixed_dictionaries(
        {"experiment": st.just("wiener")},
        optional={
            "mprime": st.integers(-1, 13),
            "epsilon": _floats(1e-3, 0.499),
            "n_paths": st.integers(99, 2000),
        },
    ),
    st.fixed_dictionaries({"experiment": st.sampled_from(["", "nope"])}),
)


@settings(max_examples=80, derandomize=True, deadline=None, database=None)
@given(cfg=_CHEAP_CONFIGS)
@example(cfg={"experiment": "resolution", "radius": 3.57})
@example(cfg={"experiment": "project-single", "nmax": 2_000_000})
@example(cfg={"experiment": "spin-overlap", "nmax": 1001})
@example(cfg={"experiment": "classical-limit", "m_values": [4, 2_000_000]})
@example(cfg={"experiment": "wiener", "n_paths": 2_000_000_000})
@example(cfg={"experiment": "correlations", "mprime": 10**6 + 1})
@example(cfg={"experiment": "project-single", "nmax": 300, "mprime": 200, "alpha_re": 14.14})
@example(cfg={"experiment": "spin-overlap", "nmax": 162, "mprime": 160})
def test_cli_contract_holds_for_generated_configs(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(cfg, handle)
        out = os.path.join(tmp, "out")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # truncation-tail warnings are expected here
            code = cli.main(["run", "--config", path, "--out", out])
        # only the statistical wiener Monte-Carlo rows may fail on a valid config
        assert code in ((0, 1, 2, 3) if cfg["experiment"] == "wiener" else (0, 2, 3))
        wrote = os.path.exists(os.path.join(out, f"{cfg['experiment']}.json"))
        assert wrote == (code in (0, 1))
