"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import argparse
import io
import json
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import micro
import run as bench
import workloads
from tracer import COUNTED, SPANNED, Tracer, patch_sites

BENCH = Path(__file__).resolve().parents[1]
NAMES = sorted(workloads.WORKLOADS)


def traced_pass(name, seed, workdir):
    workload = workloads.WORKLOADS[name](seed, workdir, tiny=True)
    return bench.timed_pass(workload, workloads, Tracer())


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_repeats_counts_n_used_and_error(name, tmp_path):
    first = traced_pass(name, 5, tmp_path)
    second = traced_pass(name, 5, tmp_path)
    for key in ("linalg.solves", "linalg.solve_rows", "observers.eta_iterations",
                "observers.n_used_total", "models.trace_bytes"):
        assert first.layers[key] == second.layers[key], key
    assert first.layers["linalg.solves"] > 0
    assert [(op.n_used, op.error_x, op.fingerprint) for op in first.ops] == \
        [(op.n_used, op.error_x, op.fingerprint) for op in second.ops]


def test_different_seed_changes_noise_draw(tmp_path):
    def noisy(seed):
        ops = workloads.SchrodNoise(seed, tmp_path, tiny=True).run_pass()
        return [op.error_x for op in ops if op.noise_eps > 0.0]

    assert noisy(1) != noisy(2)
    traces = [workloads.CliRoundtrip(seed, tmp_path / str(seed), tiny=True).run_pass()[0]
              for seed in (1, 2)]
    assert all(op.failure is None for op in traces)
    assert traces[0].fingerprint != traces[1].fingerprint


def test_tracer_restores_every_patched_attribute(tmp_path):
    sites = [(container, key, vars(container)[key])
             for _, module, attr in SPANNED + COUNTED
             for container, key in patch_sites(module, attr)]
    names = {(getattr(c, "__name__", ""), key) for c, key, _ in sites}
    # functions imported by name are patched where they were imported too
    for expected in (("bafobs.harness", "assemble"), ("bafobs.harness", "generate_observation"),
                     ("bafobs.models", "pencil_eigs"), ("bafobs.models", "assemble"),
                     ("bafobs.observers", "run_wave"), ("ShiftedSystem", "solve")):
        assert expected in names
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert all(vars(c)[key] is not original for c, key, original in sites)
            workloads.WaveSweep(1, tmp_path, tiny=True).run_pass()
            raise RuntimeError("leave the traced block by an exception")
    assert all(vars(c)[key] is original for c, key, original in sites)
    assert tracer.counters["linalg.solve"].calls > 0


def test_self_time_excludes_children(tmp_path):
    tracer = Tracer()
    with tracer.installed():
        workloads.WaveSweep(1, tmp_path, tiny=True).run_pass()
    spans = tracer.spans
    for index, span in enumerate(spans):
        children = sum(s.seconds for s in spans if s.parent == index)
        assert span.self_s <= span.seconds - children + 1e-9
        assert span.self_s >= -1e-9
    cells = [s for s in spans if s.name == "harness.run_cell"]
    assert all(spans[s.parent].name == "harness.run_sweep" for s in cells)


def test_setup_probes_are_spread_over_the_passes(tmp_path, monkeypatch):
    clock = iter(range(1000))
    monkeypatch.setattr(bench.SetupProbes, "_one", lambda self: float(next(clock)))
    probes = bench.SetupProbes("wave-sweep", 1, tmp_path)
    taken_before = []

    class Sleeper:
        def run_pass(self):
            taken_before.append(len(probes.times))
            time.sleep(0.01)
            return []

    passes, _ = bench.measure(Sleeper(), workloads, 0.2, probes=probes)
    assert len(probes.times) == bench.SETUP_PROBES
    assert len(passes) >= 3
    assert taken_before[0] == 0 and 0 < taken_before[-1] < bench.SETUP_PROBES


def test_failed_and_diverging_operations_are_counted():
    workload = workloads.WaveSweep(1, Path("."), tiny=True)
    good = [workloads.Op("a", 8, 0.0, 2, 0.2, 1.0, 0.1),
            workloads.Op("b", 16, 0.0, 3, 0.2, 0.5, 0.1)]
    drift = [workloads.Op("a", 8, 0.0, 2, 0.2, 1.0, 0.1),
             workloads.Op("b", 16, 0.0, 3, 0.2, 0.5000001, 0.1)]
    broken = [workloads.Op("a", 8, 0.0, 2, 0.2, float("nan"), 0.1),
              workloads.Op("b", 16, 0.0, -1, 0.2, 0.5, 0.1, failure="ValueError: x")]
    passes = [bench.Pass(0.1, ops) for ops in (good, drift, broken)]
    attempted, failed, problems = bench.account(workload, passes)
    assert (attempted, failed) == (6, 3)
    rising = [workloads.Op("a", 8, 0.0, 2, 0.2, 0.5, 0.1),
              workloads.Op("b", 16, 0.0, 3, 0.2, 1.0, 0.1)]
    _, failed, problems = bench.account(workload, [bench.Pass(0.1, rising)])
    assert failed == 0 and "strictly decrease" in problems[0]


def run_tiny(name, trace, tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "SETUP_PROBES", 1)
    monkeypatch.setattr(bench, "OUT", tmp_path)
    for key, value in bench.PINNED_ENV.items():
        monkeypatch.setenv(key, value)
    args = argparse.Namespace(workload=name, seed=3, seconds=0.5, trace=trace)
    workdir = tmp_path / "work"
    workdir.mkdir()
    out = io.StringIO()
    with redirect_stdout(out):
        code = bench._run(args, workloads, workdir, tiny=True)
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("name", NAMES)
def test_workload_smoke_end_to_end(name, tmp_path, monkeypatch):
    code, result = run_tiny(name, 0, tmp_path, monkeypatch)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == bench.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_workload_smoke_traced(name, tmp_path, monkeypatch):
    code, result = run_tiny(name, 1, tmp_path, monkeypatch)
    assert code == 0 and result["correct"]
    layer_names = list(Tracer().summary()[0]) + ["trace.overhead_s", "trace.overhead_share"]
    assert list(result["metrics"]) == layer_names + micro.metric_names(
        **bench.TINY_MICRO_SIZES)
    report = json.loads((tmp_path / f"{name}-seed3-trace1.json").read_text())
    assert report["stamp"]["BAFOBS_WORKERS"] == "1"
    assert (tmp_path / f"spans-{name}-seed3-trace1.json").is_file()


def test_benchmark_json_lists_what_the_runs_print():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == NAMES
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    layer_names = list(Tracer().summary()[0]) + ["trace.overhead_s", "trace.overhead_share"]
    names = layer_names + micro.metric_names()
    assert [m["name"] for m in spec["per_layer"]] == names
    assert all(m["unit"] == bench._unit(m["name"]) for m in spec["per_layer"])


def test_stripped_directory_exits_nonzero_without_result(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "wave-sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "correct" not in done.stdout
