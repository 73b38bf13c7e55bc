"""Tests of the benchmark itself: statistics, output checks, tracing, and a
smoke run of the worker and of the whole harness.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# ---- statistics --------------------------------------------------------------

def test_summarize_median_and_quartiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
    s = stats.summarize(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert s == {"n": 7, "median": 4.0, "q1": q1, "q3": q3}
    assert q1 == 2.0 and q3 == 7.0


def test_summarize_single_sample_and_empty():
    assert stats.summarize([1.5]) == {"n": 1, "median": 1.5, "q1": 1.5,
                                      "q3": 1.5}
    with pytest.raises(ValueError):
        stats.summarize([])


def test_tail_percentile_keeps_ten_samples_beyond():
    assert stats.tail_percentile(list(range(10))) is None
    assert stats.tail_percentile(list(range(11))) == (9, 0)
    pct, value = stats.tail_percentile(list(range(22)))
    assert value == 11 and pct == 54
    assert sum(v > value for v in range(22)) == 10


# ---- workloads and output checks ---------------------------------------------

def test_seed_zero_is_the_documented_config():
    readme = workloads.make_config("simulate-readme", 0)
    assert readme["lattice"] == {"nx": 3, "ny": 3, "nz": 8, "d": 0.6}
    assert readme["drive"]["omega_L0"] == 2.0
    assert readme["drive"]["delta"] == 10.0
    assert readme["time"] == {"t_end": 200.0}
    n216 = workloads.make_config("simulate-n216", 0)
    assert n216["lattice"] == {"nx": 6, "ny": 6, "nz": 6, "d": 0.6}
    assert n216["time"] == {"t_end": 30.0, "dt_early": 0.05}
    shape = workloads.make_config("shape-gaussian", 0)
    assert shape["shaping"]["target"]["center"] == 45.0
    assert shape["shaping"]["fraction"] == 0.75
    assert shape["shaping"]["tau_end"] == 2000.0


def test_other_seeds_are_deterministic_and_in_range():
    for seed in range(1, 30):
        cfg = workloads.make_config("shape-gaussian", seed)
        assert cfg == workloads.make_config("shape-gaussian", seed)
        assert 0.55 <= cfg["lattice"]["d"] <= 0.65
        assert 43.0 <= cfg["shaping"]["target"]["center"] <= 47.0
    assert (workloads.make_config("simulate-readme", 1)
            != workloads.make_config("simulate-readme", 2))
    # drawing must not alter the seed-0 template
    assert workloads.make_config("simulate-readme", 0)["lattice"]["d"] == 0.6


def _simulate_summary(**overrides):
    ref = workloads.REFERENCE_SEED0["simulate-readme"]
    summary = {"propagator": "eigen", "n_infinity": ref["n_infinity"],
               "n_stateside_end": ref["n_infinity"] * (1 + 1e-4),
               "max_rate": ref["max_rate"], "min_rate": ref["min_rate"]}
    summary.update(overrides)
    return summary


def _shape_summary(l2):
    return {"shaping": {"l2_mismatch": l2}}


def test_check_passes_good_outputs():
    assert workloads.check_outputs("simulate-readme", 0, 0,
                                   _simulate_summary()) == []
    assert workloads.check_outputs("shape-gaussian", 0, 0,
                                   _shape_summary(0.0319980)) == []
    # the seed-0 reference values apply at seed 0 only
    assert workloads.check_outputs("shape-gaussian", 3, 0,
                                   _shape_summary(0.04)) == []


@pytest.mark.parametrize("workload,seed,code,summary", [
    ("simulate-readme", 0, 3, _simulate_summary()),
    ("simulate-readme", 0, 0, None),
    ("simulate-readme", 0, 0, _simulate_summary(propagator="ode")),
    ("simulate-readme", 5, 0, _simulate_summary(n_stateside_end=0.5)),
    ("simulate-readme", 0, 0, _simulate_summary(max_rate=3.9)),
    ("simulate-readme", 0, 0, {"propagator": "eigen"}),
    ("shape-gaussian", 4, 0, _shape_summary(0.051)),
    ("shape-gaussian", 0, 0, _shape_summary(0.0321)),
    ("shape-gaussian", 0, 0, {"shaping": {}}),
])
def test_check_rejects_doctored_outputs(workload, seed, code, summary):
    assert workloads.check_outputs(workload, seed, code, summary)


def test_doctored_summary_file_fails_the_run(tmp_path):
    runner = run.Runner("simulate-readme", 0, str(tmp_path), 1,
                        time.monotonic() + 60)
    os.makedirs(runner.out)
    path = os.path.join(runner.out, "summary.json")
    with open(path, "w") as fh:
        json.dump(_simulate_summary(), fh)
    assert runner.check({"exit_code": 0}) == []
    with open(path, "w") as fh:
        json.dump(_simulate_summary(n_infinity=0.95), fh)
    problems = runner.check({"exit_code": 0})
    assert any("photon balance" in p for p in problems)
    os.remove(path)
    assert runner.check({"exit_code": 0})


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.LAYER_UNITS


# ---- tracing -----------------------------------------------------------------

@pytest.fixture
def fake_module():
    mod = types.ModuleType("perfbench_fake_target")

    class Result:
        dim = 12

    def assemble(x):
        return Result()

    def outer(x):
        return mod.assemble(x)

    mod.assemble = assemble
    mod.outer = outer
    sys.modules[mod.__name__] = mod
    yield mod
    del sys.modules[mod.__name__]


def test_missing_target_gives_absent_metric(fake_module):
    tracer = tracing.Tracer("t")
    tracing.install(tracer, targets=(
        (fake_module.__name__, "assemble", "hamiltonian.assemble",
         tracing._count_dim, ("hamiltonian.dim",)),
        (fake_module.__name__, "renamed_away", "hamiltonian.eigenmodes",
         None, ()),
        ("no_such_package.module", "f", "farfield.waveform",
         tracing._count_samples, ("farfield.waveform_samples",)),
    ))
    assert fake_module.outer(1).dim == 12
    metrics = tracing.layer_metrics(tracer.dump())
    assert tracer.missing == [f"{fake_module.__name__}.renamed_away",
                              "no_such_package.module.f"]
    for gone in ("hamiltonian.eigenmodes_s", "farfield.waveform_s",
                 "farfield.waveform_samples"):
        assert gone not in metrics
    assert metrics["hamiltonian.dim"] == 12
    assert metrics["hamiltonian.assemble_s"] > 0.0
    assert metrics["dynamics.propagate_ode_s"] == 0.0


def test_moved_attribute_makes_counter_absent(fake_module):
    tracer = tracing.Tracer("t")
    # the result has no _segments, as if the attribute had been renamed
    tracing.install(tracer, targets=(
        (fake_module.__name__, "assemble", "dynamics.propagate_eigen",
         tracing._count_segments, ("dynamics.eigen_segments",)),))
    fake_module.outer(1)
    metrics = tracing.layer_metrics(tracer.dump())
    assert "dynamics.eigen_segments" not in metrics
    assert "dynamics.propagate_eigen_s" in metrics


def test_self_time_subtracts_children():
    trace = {"absent": [], "counts": {}, "spans": [
        {"id": 0, "parent": None, "name": "shaping.validate",
         "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "name": "dynamics.propagate_ode",
         "start": 1.0, "end": 8.0},
        {"id": 2, "parent": 1, "name": "dynamics.solve_ivp",
         "start": 1.0, "end": 7.0},
        {"id": 3, "parent": 0, "name": "farfield.waveform",
         "start": 8.0, "end": 9.5},
    ]}
    m = tracing.layer_metrics(trace)
    assert m["shaping.validate_self_s"] == pytest.approx(1.5)
    assert m["dynamics.propagate_ode_s"] == pytest.approx(7.0)
    assert m["farfield.waveform_s"] == pytest.approx(1.5)


def test_class_method_targets_are_wrapped(fake_module):
    class Config:
        @classmethod
        def load(cls, path):
            return cls

    fake_module.Config = Config
    tracer = tracing.Tracer("t")
    tracing.install(tracer, targets=(
        (f"{fake_module.__name__}:Config", "load", "config.load", None, ()),))
    assert Config.load("x") is Config
    assert [s["name"] for s in tracer.spans] == ["config.load"]


# ---- smoke runs --------------------------------------------------------------

TINY = """\
lattice: {nx: 1, ny: 1, nz: 2, d: 0.6}
drive: {omega_L0: 2.0, delta: 10.0}
time: {t_end: 2.0, dt_early: 0.05}
grid: {n_theta: 8, n_phi: 16}
"""


def test_worker_smoke_run_on_tiny_config(tmp_path):
    config = tmp_path / "tiny.yaml"
    config.write_text(TINY)
    result = tmp_path / "result.json"
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"),
           "--config", str(config), "--command", "simulate",
           "--out", str(tmp_path / "out"), "--result", str(result),
           "--trace", "smoke"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, env=run.worker_env(1), cwd=tmp_path,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert time.monotonic() - t0 < 30.0
    record = json.loads(result.read_text())
    assert record["error"] is None and record["exit_code"] == 0
    assert record["run_s"] > 0.0 and record["peak_rss_mb"] > 0.0
    metrics = tracing.layer_metrics(record["trace"])
    assert set(metrics) == set(tracing.LAYER_METRICS)
    assert record["trace"]["missing"] == []
    assert metrics["hamiltonian.dim"] == 8
    assert metrics["dynamics.eigen_segments"] == 1
    assert metrics["farfield.waveform_samples"] == 41
    assert metrics["cli.write_bytes"] > 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["propagator"] == "eigen"


def test_harness_prints_result_line(capsys):
    assert run.main(["--workload", "simulate-readme", "--seconds", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 1
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert any(line.startswith("fail_rate") for line in lines)


def test_harness_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "simulate-n216",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
