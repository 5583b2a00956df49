import ast
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import tracemalloc
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import numpy as np

from csquant import _kernels, cli, correlators, wiener


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
    cfg = _write_config(tmp_path, {"experiment": "wiener", "n_paths": 2 * _kernels.PATH_CHUNK + 777, "seed": 13})
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


def test_wiener_memory_per_path_is_bounded(tmp_path):
    n_paths = 200_000
    cfg = _write_config(tmp_path, {"experiment": "wiener", "n_paths": n_paths})
    tracemalloc.start()
    try:
        code = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    # O(n_paths) arrays, ~40 bytes per path, plus one chunk; a whole 17-column bridge ensemble needs ~270
    assert peak <= 64 * n_paths


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
        ('{"experiment": "project-single", "epsilon": NaN}', "epsilon"),
        ('{"experiment": "project-single", "alpha_re": Infinity}', "alpha_re"),
        ('{"experiment": "project-single", "epsilon": true}', "epsilon"),
        ('{"experiment": "geometry", "n": true}', "n"),
        ('{"experiment": "geometry", "n": 1.7}', "n"),
        ('{"experiment": "geometry", "n": "1"}', "n"),
        ('{"experiment": "project-single", "epsilon": 1' + "0" * 400 + "}", "epsilon"),
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


@pytest.mark.parametrize(
    "payload, field",
    [
        ({"experiment": "project-single", "alpha_re": 9}, "nmax"),
        ({"experiment": "project-double", "alpha_re": 9}, "nmax"),
        ({"experiment": "project-double", "nmax": 1, "mprime": 1}, "nmax"),
        ({"experiment": "spin-overlap", "nmax": 4, "mprime": 3}, "nmax"),
        ({"experiment": "correlations", "nmax": 14}, "nmax"),
        ({"experiment": "wiener", "nmax": 5, "n_paths": 1000}, "nmax"),
        ({"experiment": "resolution", "nmax": 1, "radius": 10000}, "radius"),
        ({"experiment": "resolution", "radius": 3.57}, "radius"),
        ({"experiment": "project-double", "beta_re": 0, "beta_im": 0}, "beta_re"),
        ({"experiment": "project-double", "beta_re": 1e-200, "beta_im": 0}, "beta_re"),
        ({"experiment": "project-double", "mprime": 1, "beta_re": 1e-160, "beta_im": 0}, "beta_re"),
        ({"experiment": "project-double", "alpha_re": 0, "alpha_im": 0, "beta_re": 1e-3, "beta_im": 0}, "beta_re"),
        ({"experiment": "project-single", "nmax": 2_000_000}, "nmax"),
        ({"experiment": "spin-overlap", "nmax": 1001}, "nmax"),
        ({"experiment": "classical-limit", "m_values": [4, 2_000_000]}, "m_values"),
        ({"experiment": "spin-overlap", "nmax": 302, "mprime": 300}, "mprime"),
        ({"experiment": "project-single", "alpha_re": 1e200}, "nmax"),
        ({"experiment": "project-double", "alpha_re": 1e200}, "nmax"),
        ({"experiment": "project-double", "beta_re": 1e200}, "nmax"),
    ],
    ids=[
        "single-leakage",
        "double-leakage",
        "double-nmax-1",
        "spin-overlap-leakage",
        "correlations-leakage",
        "wiener-leakage",
        "resolution-grid",
        "resolution-unclosed",
        "beta-zero",
        "beta-gauge-underflow",
        "beta-label-overflow",
        "double-null",
        "single-dim-guard",
        "spin-overlap-dim-guard",
        "classical-limit-dim-guard",
        "spin-overlap-underflow",
        "single-label-overflow",
        "double-alpha-overflow",
        "double-beta-overflow",
    ],
)
def test_unusable_config_exit_3_naming_field(tmp_path, capsys, payload, field):
    cfg = _write_config(tmp_path, payload)
    out = tmp_path / "never"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert f"config field '{field}'" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_wiener_path_count_refused_before_sampling(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("sampler called for a refused config")

    monkeypatch.setattr(wiener, "sample_bridge_column", never)
    monkeypatch.setattr(wiener, "sample_lapse_proper_times", never)
    cfg = _write_config(tmp_path, {"experiment": "wiener", "n_paths": 2_000_000_000})
    out = tmp_path / "never"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 3
    assert "config field 'n_paths'" in capsys.readouterr().err
    assert not out.exists()
    # the 1e6-path benchmark workload stays under the CLI cap
    assert 1_000_000 <= cli.WIENER_MAX_PATHS


@pytest.mark.parametrize(
    "payload",
    [
        {"experiment": "correlations", "nmax": 1600, "mprime": 1200},
        {"experiment": "classical-limit", "model": "single", "m_values": [4, 1200]},
        {"experiment": "classical-limit", "model": "double", "m_values": [4, 1200]},
    ],
    ids=["correlations", "classical-limit-single", "classical-limit-double"],
)
def test_correlators_build_no_dense_operator(tmp_path, payload):
    # dim is ~1600 (nmax 1635 at m = 1200): a dense dim x dim float64 operator takes ~20 MB,
    # while each O(dim) vector takes ~26 kB and a whole band-action run peaks near 0.25 MB
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


@pytest.mark.parametrize("experiment", ["correlations", "classical-limit"])
def test_h_ratio_error_fails_without_zero_point(tmp_path, monkeypatch, experiment):
    # drop the 1/2 per mode from H's matrix elements: the relative H row must see it
    original = correlators._matrix_element

    def no_zero_point(space, operator, bra, ket):
        value = original(space, operator, bra, ket)
        return value - 0.5 * space.modes * complex(np.vdot(bra, ket)) if operator == "H" else value

    monkeypatch.setattr(correlators, "_matrix_element", no_zero_point)
    cfg = _write_config(tmp_path, {"experiment": experiment})
    out = tmp_path / "r"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 1
    table = json.loads((out / f"{experiment}.json").read_text())
    assert [row["name"] for row in table["checks"] if not row["passed"]] == ["h_ratio_error"]


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
    # no search along the evaluation ray overflows the closed-form wavefunction at large m
    cfg = _write_config(tmp_path, {"experiment": "correlations", "nmax": 900, "mprime": 700})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # truncation-tail warnings are expected here
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == 0
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "payload",
    [
        {"experiment": "correlations", "nmax": 5600, "mprime": 5000},
        {"experiment": "correlations", "nmax": 55000, "mprime": 50000},
        {"experiment": "project-single", "nmax": 300, "mprime": 200, "alpha_re": 14.14},
        {"experiment": "project-single", "nmax": 103814, "mprime": 100000, "alpha_re": math.sqrt(1e5) - 0.1},
        {"experiment": "project-single", "nmax": 911404, "mprime": 900000, "alpha_re": math.sqrt(9e5) - 0.1},
        {"experiment": "spin-overlap", "nmax": 162, "mprime": 160},
        {"experiment": "classical-limit", "m_values": [4, 900000]},
        {"experiment": "correlations", "nmax": 542000, "mprime": 530000},
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


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency; numpy.random loads at import, so the first
    # seeded run does not pay for the Generator import inside its own run time
    code = (
        "import sys, csquant.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), 'numpy.random' in sys.modules)"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_src_env(), check=True)
    assert result.stdout.strip() == "[] True"


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


_EPSILON = _floats(1e-6, 0.499)
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
            "epsilon": _EPSILON,
            "alpha_re": _floats(-7.0, 7.0),
            "alpha_im": _floats(-7.0, 7.0),
        },
    ),
    st.fixed_dictionaries(
        {"experiment": st.just("project-double")},
        optional={
            "nmax": st.integers(0, 12),
            "mprime": st.integers(0, 12),
            "epsilon": _EPSILON,
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
        optional={"nmax": st.integers(3, 30), "mprime": st.integers(-1, 22)},
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
            "nmax": st.integers(1, 12),
            "mprime": st.integers(0, 12),
            "epsilon": _floats(1e-3, 0.499),
            "n_paths": st.integers(99, 2000),
        },
    ),
    st.fixed_dictionaries({"experiment": st.sampled_from(["", "nope"])}),
)


@settings(max_examples=80, derandomize=True, deadline=None, database=None)
@given(cfg=_CHEAP_CONFIGS)
@example(cfg={"experiment": "project-single", "epsilon": 0.3805})
@example(cfg={"experiment": "project-single", "epsilon": 0.499, "mprime": 5})
@example(cfg={"experiment": "resolution", "radius": 3.57})
@example(cfg={"experiment": "project-single", "nmax": 2_000_000})
@example(cfg={"experiment": "spin-overlap", "nmax": 1001})
@example(cfg={"experiment": "classical-limit", "m_values": [4, 2_000_000]})
@example(cfg={"experiment": "wiener", "n_paths": 2_000_000_000})
@example(cfg={"experiment": "correlations", "nmax": 900, "mprime": 700})
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
