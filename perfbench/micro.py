"""Per-layer microbenchmarks at fixed sizes (both equations x n_cells).

Each call is timed on its own, with dt = h and the acceptance profile: the
``ShiftedSystem`` factor and one solve, one stepper pass, one round trip
``apply_L``, ``assemble``, ``generate_observation``, ``reconstruction_error``,
trace write/read, and one CLI ``generate``/``reconstruct``.  The values are
per-layer metrics only, never end-to-end metrics or gates.  Each is the
median over repeats that fill at least ``MIN_SECONDS``; the slowest calls
(generation at 1024 cells) run once.
"""

from __future__ import annotations

import contextlib
import io
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np

from bafobs import (BackAndForth, Mesh1D, ProblemInstance, SchrodingerStepper,
                    ShiftedSystem, WaveStepper, assemble, cli,
                    generate_observation, read_trace, reconstruction_error,
                    run_schrodinger, run_wave, write_trace)

from workloads import PROFILE, REFINE, SCHROD_TRUTH, WAVE_TRUTH

SIZES = (64, 256, 1024)
IO_SIZES = (64, 256)
CLI_CELLS = 64
MIN_SECONDS = 0.2
EQUATIONS = (("schrod", "schrodinger", 1.0, SCHROD_TRUTH),
             ("wave", "wave", 2.0, WAVE_TRUTH))


def time_call(fn, inner: int = 1, min_seconds: float = MIN_SECONDS,
              max_repeats: int = 25) -> float:
    """Median seconds per call over repeats of ``inner`` back-to-back calls."""
    samples = []
    start = perf_counter()
    while not samples or (perf_counter() - start < min_seconds
                          and len(samples) < max_repeats):
        t0 = perf_counter()
        for _ in range(inner):
            fn()
        samples.append((perf_counter() - t0) / inner)
    return statistics.median(samples)


def metric_names(sizes=SIZES, io_sizes=IO_SIZES) -> list[str]:
    names = [f"fem.assemble_ms.n{n}" for n in sizes]
    for tag, *_ in EQUATIONS:
        for n in sizes:
            names += [f"linalg.factor_us.{tag}.n{n}", f"linalg.solve_us.{tag}.n{n}",
                      f"observers.pass_ms.{tag}.n{n}", f"observers.apply_L_ms.{tag}.n{n}",
                      f"harness.error_ms.{tag}.n{n}", f"models.generate_ms.{tag}.n{n}"]
        for n in io_sizes:
            names += [f"models.write_trace_ms.{tag}.n{n}", f"models.read_trace_ms.{tag}.n{n}"]
    return names + [f"cli.generate_ms.n{CLI_CELLS}", f"cli.reconstruct_ms.n{CLI_CELLS}"]


def _system(tag: str, ops, dt: float) -> ShiftedSystem:
    """The matrix each equation's stepper factors, built the same way."""
    if tag == "schrod":
        return ShiftedSystem(ops.mass, ops.stiffness, ops.damping_gram,
                             alpha=1.0, beta=-1j * dt, gamma=dt)
    return ShiftedSystem(ops.mass, ops.stiffness, ops.damping_gram,
                         alpha=1.0, beta=dt * dt, gamma=dt)


def _equation(tag, equation, tau, truth, n, ops, rng, workdir: Path,
              io_sizes) -> dict:
    out = {}
    steps = round(tau * n)
    dt = tau / steps
    engine = BackAndForth(equation, ops, dt, steps)
    state = engine.random_state(int(rng.integers(2**31)))
    if tag == "schrod":
        stepper = SchrodingerStepper(ops, dt, steps)
        rhs = state
        one_pass = lambda: run_schrodinger(stepper, state)          # noqa: E731
    else:
        stepper = WaveStepper(ops, dt, steps)
        rhs = state.pos
        one_pass = lambda: run_wave(stepper, state.pos, state.vel)  # noqa: E731
    out[f"linalg.factor_us.{tag}.n{n}"] = 1e6 * time_call(lambda: _system(tag, ops, dt),
                                                          inner=10)
    out[f"linalg.solve_us.{tag}.n{n}"] = 1e6 * time_call(lambda: stepper.system.solve(rhs),
                                                         inner=20)
    out[f"observers.pass_ms.{tag}.n{n}"] = 1e3 * time_call(one_pass)
    out[f"observers.apply_L_ms.{tag}.n{n}"] = 1e3 * time_call(lambda: engine.apply_L(state))
    out[f"harness.error_ms.{tag}.n{n}"] = 1e3 * time_call(
        lambda: reconstruction_error(equation, truth, state, ops))

    instance = ProblemInstance(equation, Mesh1D(n_cells=n), PROFILE, tau, steps, truth)
    out[f"models.generate_ms.{tag}.n{n}"] = 1e3 * time_call(
        lambda: generate_observation(instance, refine=REFINE))
    if n in io_sizes:
        trace = generate_observation(instance, refine=REFINE)
        path = workdir / f"micro-{tag}-{n}.txt"
        out[f"models.write_trace_ms.{tag}.n{n}"] = 1e3 * time_call(
            lambda: write_trace(path, trace, instance, REFINE))
        out[f"models.read_trace_ms.{tag}.n{n}"] = 1e3 * time_call(lambda: read_trace(path))
        path.unlink()
    return out


def _cli(workdir: Path) -> dict:
    trace = workdir / "micro-cli.txt"
    args = ["--set", f"geometry.n_cells={CLI_CELLS}", "--set", f"output.directory={workdir}"]

    def main(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(args + argv)
        if code != 0:
            raise RuntimeError(f"bafobs {' '.join(argv)} exited {code}")

    out = {f"cli.generate_ms.n{CLI_CELLS}":
           1e3 * time_call(lambda: main(["generate", "--out", str(trace)]))}
    out[f"cli.reconstruct_ms.n{CLI_CELLS}"] = 1e3 * time_call(
        lambda: main(["reconstruct", "--trace", str(trace)]))
    return out


def run_micro(seed: int, workdir: Path, sizes=SIZES, io_sizes=IO_SIZES) -> dict:
    """Every microbenchmark metric, keyed as ``metric_names`` lists them."""
    rng = np.random.default_rng(seed)
    out = {}
    for n in sizes:
        mesh = Mesh1D(n_cells=n)
        out[f"fem.assemble_ms.n{n}"] = 1e3 * time_call(lambda: assemble(mesh, PROFILE))
        ops = assemble(mesh, PROFILE)
        for tag, equation, tau, truth in EQUATIONS:
            out.update(_equation(tag, equation, tau, truth, n, ops, rng, workdir, io_sizes))
    out.update(_cli(workdir))
    return out
