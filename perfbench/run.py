"""Benchmark for bafobs: three workloads, timed end to end and per layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload wave-sweep --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: the median
wall time of one pass (``wall_s``), the time from a fresh interpreter to a
built plan or config (``setup_s``, median of fresh interpreters started
between the passes), the peak resident set of this process
(``peak_rss_mb``), and the geometric mean of ``error_x`` over one pass's
reconstructions (``error_x_geomean``).
``--trace 1`` alternates untraced and traced passes, reports the per-layer
metrics of the traced passes and the tracing overhead, then runs the
per-layer microbenchmarks.  Every run checks its outputs and counts the
reconstructions attempted and failed; it exits 1 if any check fails.

The load is one process, ``BAFOBS_WORKERS=1`` and a one-thread BLAS pool.
All timings are single-machine measurements.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the full report (machine stamp, per-cell records, predictions)
is written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 15
PINNED_ENV = {"BAFOBS_WORKERS": "1", "OPENBLAS_NUM_THREADS": "1",
              "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
TINY_MICRO_SIZES = {"sizes": (16,), "io_sizes": (16,)}
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "error_x_geomean": "1"}


@dataclass
class Pass:
    wall_s: float
    ops: list
    traced: bool = False
    layers: dict = field(default_factory=dict)
    report_layers: dict = field(default_factory=dict)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


# -- machine and software stamp -------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads(np_module) -> int | None:
    """Threads in OpenBLAS's pool, asked of the library numpy loaded."""
    base = Path(np_module.__file__).parent
    for lib in glob.glob(str(base / ".." / "numpy.libs" / "*openblas*")) \
            + glob.glob(str(base / ".libs" / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def stamp(pool_note: str) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "measurement": "single-machine measurement; compare only runs on the same machine",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas": blas_name,
        "blas_threads": _blas_threads(numpy),
        "BAFOBS_WORKERS": os.environ.get("BAFOBS_WORKERS"),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "pool_path": pool_note,
    }


# -- measurement -----------------------------------------------------------------


class SetupProbes:
    """Seconds from starting a fresh interpreter to the workload being ready.

    ``SETUP_PROBES`` probes are spread over the whole measuring window, so
    that their median samples the same machine as the passes do rather than
    one moment of it.  ``warm`` runs one probe that is discarded: it warms
    the file cache and writes the byte-code caches.
    """

    def __init__(self, name: str, seed: int, workdir: Path):
        self.cmd = [sys.executable, str(HERE / "setup_probe.py"), name, str(seed),
                    str(workdir)]
        self.times = []

    def _one(self) -> float:
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run(self.cmd, capture_output=True, text=True, timeout=120,
                              check=True)
        return float(done.stdout.split()[-1]) - t0

    def warm(self):
        self._one()

    def run_until(self, share: float):
        """Probe until ``share`` of all ``SETUP_PROBES`` probes are taken."""
        while len(self.times) < math.ceil(SETUP_PROBES * min(share, 1.0) - 1e-9):
            self.times.append(self._one())


def run_pass(workload, workloads_mod) -> list:
    try:
        return workload.run_pass()
    except Exception as exc:  # a broken pass fails all its operations
        failure = f"{type(exc).__name__}: {exc}"
        return [workloads_mod.Op("pass", 0, 0.0, -1, math.nan, math.nan, 0.0, failure)
                for _ in range(workload.n_ops)]


def timed_pass(workload, workloads_mod, tracer=None) -> Pass:
    if tracer is None:
        t0 = time.perf_counter()
        ops = run_pass(workload, workloads_mod)
        return Pass(time.perf_counter() - t0, ops)
    tracer.reset()
    with tracer.installed():
        t0 = time.perf_counter()
        ops = run_pass(workload, workloads_mod)
        wall = time.perf_counter() - t0
    layers, report_layers = tracer.summary()
    return Pass(wall, ops, True, layers, report_layers)


def measure(workload, workloads_mod, seconds: float, tracer=None,
            probes: SetupProbes | None = None) -> tuple[list, list]:
    """Passes until the next would overrun ``seconds``; with a tracer, in
    pairs of one untraced and one traced pass, alternating which goes first.
    With ``probes``, set-up probes run between passes in step with the pass
    time spent; their own time does not count against ``seconds``.
    Returns the passes and the traced spans."""
    passes, spans = [], []
    unit = []
    while not unit or sum(unit) + statistics.median(unit) <= seconds:
        t0 = time.perf_counter()
        if tracer is None:
            order = [None]
        else:
            order = [None, tracer] if len(unit) % 2 == 0 else [tracer, None]
        for t in order:
            passes.append(timed_pass(workload, workloads_mod, t))
            if t is not None:
                spans.append({"spans": [asdict(s) for s in t.spans],
                              "counters": {k: asdict(c) for k, c in t.counters.items()},
                              "self_times": t.self_times()})
        unit.append(time.perf_counter() - t0)
        if probes is not None:
            probes.run_until(sum(unit) / seconds)
    if probes is not None:
        probes.run_until(1.0)
    return passes, spans


def account(workload, passes: list[Pass]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems).  An operation also fails when it differs
    from the same operation of the first pass: the seed fixes every output."""
    reference = passes[0].ops
    attempted = failed = 0
    problems = []
    for k, p in enumerate(passes):
        if len(p.ops) != workload.n_ops:
            problems.append(f"pass {k}: {len(p.ops)} operations, expected {workload.n_ops}")
        for i, op in enumerate(p.ops):
            attempted += 1
            problem = op.problem()
            ref = reference[i] if i < len(reference) else None
            if problem is None and (ref is None or (op.n_used, op.eta_hat, op.error_x,
                                                    op.fingerprint)
                                    != (ref.n_used, ref.eta_hat, ref.error_x,
                                        ref.fingerprint)):
                problem = "output differs from the first pass at the same seed"
            if problem is not None:
                failed += 1
                problems.append(f"pass {k} {op.label}: {problem}")
        if all(op.problem() is None for op in p.ops):
            problems += [f"pass {k}: {msg}" for msg in workload.check(p.ops)]
    return attempted, failed, problems


def geomean(values) -> float:
    values = [v for v in values if math.isfinite(v) and v > 0.0]
    if not values:
        return math.nan
    return math.exp(sum(math.log(v) for v in values) / len(values))


def median_layers(passes: list[Pass], key: str) -> dict:
    traced = [getattr(p, key) for p in passes if p.traced]
    return {name: statistics.median(t.get(name, 0.0) for t in traced) for name in traced[0]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bafobs" / "__init__.py").is_file():
        print(f"error: no bafobs sources at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)      # before numpy loads its BLAS
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        return _run(args, workloads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workloads, workdir: Path, tiny: bool = False) -> int:
    """One benchmark run; ``tiny`` shrinks every problem for the smoke tests."""
    cls = workloads.WORKLOADS[args.workload]
    probes = None if args.trace else SetupProbes(args.workload, args.seed, workdir)
    if probes is not None:
        probes.warm()

    run_pass(cls(args.seed, workdir / "warm", tiny=True), workloads)   # first-call costs
    workload = cls(args.seed, workdir, tiny=tiny)

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    passes, spans = measure(workload, workloads, args.seconds, tracer, probes)
    attempted, failed, problems = account(workload, passes)
    correct = failed == 0 and not problems

    untraced = [p.wall_s for p in passes if not p.traced]
    cells = [asdict(op) for op in passes[0].ops]
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "why": workloads.WHY[args.workload],
        "stamp": stamp(workloads.POOL_NOTE),
        "ops_attempted": attempted, "ops_failed": failed, "problems": problems,
        "cells": cells,
        "pass_wall_s": {"untraced": untraced,
                        "traced": [p.wall_s for p in passes if p.traced]},
        "cell_wall_s": [[op.wall_s for op in p.ops] for p in passes],
        "tail_percentile": "none: fewer than ten samples lie beyond any tail percentile",
        "predictions": workloads.PREDICTIONS,
    }
    if args.trace:
        from micro import run_micro
        traced_wall = statistics.median(p.wall_s for p in passes if p.traced)
        metrics = median_layers(passes, "layers")
        metrics["trace.overhead_s"] = traced_wall - statistics.median(untraced)
        metrics["trace.overhead_share"] = metrics["trace.overhead_s"] / statistics.median(untraced)
        report["layers"] = median_layers(passes, "report_layers")
        sizes = TINY_MICRO_SIZES if tiny else {}
        metrics.update(run_micro(args.seed, workdir, **sizes))
        units = {name: _unit(name) for name in metrics}
    else:
        metrics = {
            "wall_s": statistics.median(untraced),
            "setup_s": statistics.median(probes.times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "error_x_geomean": geomean(op.error_x for op in passes[0].ops),
        }
        units = END_TO_END
        report["wall_s_samples"] = len(untraced)
        report["setup_s_samples"] = probes.times
    report["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}

    base = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{base}.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    if spans:
        (OUT / f"spans-{base}.json").write_text(json.dumps(spans), encoding="utf-8")
    _print_summary(report)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": report["metrics"]}))
    return 0 if correct else 1


def _unit(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    stem = name.split(".")[1]
    for suffix, unit in (("_us", "us"), ("_ms", "ms"), ("_s", "s"), ("_bytes", "bytes")):
        if stem.endswith(suffix):
            return unit
    if stem in ("eta_unconverged", "overhead_share", "generations_per_level",
                "eta_estimates_per_level"):
        return "1"
    return "count"


def _print_summary(report: dict):
    s = report["stamp"]
    print(f"bafobs benchmark: {report['workload']} seed {report['seed']} "
          f"trace {report['trace']} -- {s['measurement']}")
    print(f"machine: nproc {s['nproc']}, {s['cpu_model']}; Python {s['python']}, "
          f"numpy {s['numpy']}, scipy {s['scipy']}; BLAS {s['blas']} x{s['blas_threads']} "
          f"threads; BAFOBS_WORKERS={s['BAFOBS_WORKERS']}; commit {s['git_commit']}")
    for cell in report["cells"]:
        print(f"  cell {cell['label']}: n_used {cell['n_used']} eta_hat {cell['eta_hat']:.6g} "
              f"error_x {cell['error_x']:.10g} wall {cell['wall_s']:.3f} s")
    print(f"ops_attempted {report['ops_attempted']} ops_failed {report['ops_failed']}")
    for problem in report["problems"]:
        print(f"  CHECK FAILED: {problem}")
    if "wall_s_samples" in report:
        print(f"wall_s is the median of {report['wall_s_samples']} passes; "
              f"{report['tail_percentile']}")
    for name, m in report["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")


if __name__ == "__main__":
    sys.exit(main())
