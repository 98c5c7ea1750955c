"""Spans and counters around the public functions of each ``bafobs`` layer.

The tracer patches every site that refers to a traced function: a function
imported by name into another module (``harness`` imports ``assemble``,
``generate_observation`` and ``BackAndForth``; ``models`` imports
``pencil_eigs`` and ``assemble``) is patched there too, found by identity.
Methods are patched on their class.  ``ShiftedSystem.solve`` runs ~1e5 times
per pass, so it gets a count and a summed time instead of one span per call.

Spans (name, start, end, parent) are kept in memory and written when the run
ends.  A span's self time is its duration minus that of its child spans and
of the counted calls made directly inside it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter

MODULES = ("bafobs", "bafobs.linalg", "bafobs.fem", "bafobs.observers",
           "bafobs.models", "bafobs.harness", "bafobs.cli")

# (span name, defining module, attribute); "Class.method" patches the class.
SPANNED = (
    ("linalg.pencil_eigs", "bafobs.linalg", "pencil_eigs"),
    ("fem.assemble", "bafobs.fem", "assemble"),
    ("observers.run_schrodinger", "bafobs.observers", "run_schrodinger"),
    ("observers.run_wave", "bafobs.observers", "run_wave"),
    ("observers.apply_L", "bafobs.observers", "BackAndForth.apply_L"),
    ("observers.estimate_eta", "bafobs.observers", "BackAndForth.estimate_eta"),
    ("observers.neumann_reconstruct", "bafobs.observers", "BackAndForth.neumann_reconstruct"),
    ("models.generate_observation", "bafobs.models", "generate_observation"),
    ("models.write_trace", "bafobs.models", "write_trace"),
    ("models.read_trace", "bafobs.models", "read_trace"),
    ("harness.run_sweep", "bafobs.harness", "run_sweep"),
    ("harness.run_cell", "bafobs.harness", "run_cell"),
    ("harness.reconstruction_error", "bafobs.harness", "reconstruction_error"),
    ("cli.cmd_generate", "bafobs.cli", "cmd_generate"),
    ("cli.cmd_reconstruct", "bafobs.cli", "cmd_reconstruct"),
)
COUNTED = (("linalg.solve", "bafobs.linalg", "ShiftedSystem.solve"),)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    self_s: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Counter:
    calls: int = 0
    seconds: float = 0.0
    rows: int = 0


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *classes, name = attr.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, name


def patch_sites(module: str, attr: str) -> list[tuple[object, str]]:
    """Every (container, name) through which callers reach the target."""
    owner, name = _resolve(module, attr)
    if isinstance(owner, type):          # a method: callers go through the class
        return [(owner, name)]
    target = getattr(owner, name)
    sites = []
    for mod_name in MODULES:
        mod = importlib.import_module(mod_name)
        sites += [(mod, key) for key, value in vars(mod).items() if value is target]
    return sites


def _annotate(name: str, args: tuple, result) -> dict:
    """The facts about one call that the per-layer metrics need."""
    if name == "observers.estimate_eta":
        return {"iterations": result.iterations, "converged": result.converged}
    if name == "observers.neumann_reconstruct":
        return {"n_used": result.n_used}
    if name == "models.generate_observation":
        return {"n_cells": args[0].mesh.n_cells}
    if name == "models.write_trace":
        return {"bytes": os.path.getsize(args[0])}
    if name == "harness.run_cell":
        return {"n_cells": args[1]}
    return {}


class Tracer:
    """Records spans and counters while installed; restores every patch on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, Counter] = defaultdict(Counter)
        self._stack: list[list] = []     # [span index, seconds spent in children]

    def reset(self):
        self.spans = []
        self.counters = defaultdict(Counter)

    def _charge_parent(self, seconds: float):
        if self._stack:
            self._stack[-1][1] += seconds

    def _spanned(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else None
            span = Span(name, perf_counter(), 0.0, parent)
            frame = [len(self.spans), 0.0]
            self.spans.append(span)
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                span.attrs = _annotate(name, args, result)
                return result
            finally:
                span.end = perf_counter()
                self._stack.pop()
                span.self_s = span.seconds - frame[1]
                self._charge_parent(span.seconds)
        return wrapper

    def _counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(system, rhs):
            t0 = perf_counter()
            out = fn(system, rhs)
            seconds = perf_counter() - t0
            counter = self.counters[name]
            counter.calls += 1
            counter.seconds += seconds
            counter.rows += system.n
            self._charge_parent(seconds)
            return out
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for wrap, table in ((self._spanned, SPANNED), (self._counted, COUNTED)):
                for name, module, attr in table:
                    for container, key in patch_sites(module, attr):
                        original = vars(container)[key]
                        saved.append((container, key, original))
                        setattr(container, key, wrap(name, original))
            yield self
        finally:
            for container, key, original in reversed(saved):
                setattr(container, key, original)

    def summary(self) -> tuple[dict, dict]:
        """(per-layer metrics, report-only layer times) for what was recorded."""
        spans = self.spans

        def named(name):   # calls that returned; a raising call has no attrs
            return [s for s in spans if s.name == name and s.attrs]

        def busy(*names):
            return sum(s.seconds for s in spans if s.name in names)

        def calls(name):
            return sum(s.name == name for s in spans)

        solve = self.counters["linalg.solve"]
        etas = named("observers.estimate_eta")
        levels = {s.attrs["n_cells"] for s in named("models.generate_observation")}
        per_level = max(len(levels), 1)
        metrics = {
            "linalg.solves": solve.calls,
            "linalg.solve_s": solve.seconds,
            "linalg.solve_rows": solve.rows,
            "linalg.pencil_s": busy("linalg.pencil_eigs"),
            "fem.assemble_s": busy("fem.assemble"),
            "fem.assembles": calls("fem.assemble"),
            "observers.eta_s": busy("observers.estimate_eta"),
            "observers.eta_estimates": len(etas),
            "observers.eta_iterations": sum(s.attrs["iterations"] for s in etas),
            "observers.eta_unconverged": (sum(not s.attrs["converged"] for s in etas)
                                          / len(etas)) if etas else 0.0,
            "observers.neumann_s": busy("observers.neumann_reconstruct"),
            "observers.n_used_total": sum(s.attrs["n_used"]
                                          for s in named("observers.neumann_reconstruct")),
            "observers.stepper_passes": calls("observers.run_schrodinger")
                                        + calls("observers.run_wave"),
            "observers.stepper_s": busy("observers.run_schrodinger", "observers.run_wave"),
            "models.generate_s": busy("models.generate_observation"),
            "models.generations_per_level": len(named("models.generate_observation")) / per_level,
            "models.trace_bytes": sum(s.attrs["bytes"] for s in named("models.write_trace")),
            "harness.error_s": busy("harness.reconstruction_error"),
            "harness.eta_estimates_per_level": len(etas) / per_level,
        }
        report = {
            "models.write_trace_s": busy("models.write_trace"),
            "models.read_trace_s": busy("models.read_trace"),
            "cli.generate_s": busy("cli.cmd_generate"),
            "cli.reconstruct_s": busy("cli.cmd_reconstruct"),
            "harness.cell_s": busy("harness.run_cell"),
        }
        for s in named("harness.run_cell"):
            key = f"harness.cell_s.n{s.attrs['n_cells']}"
            report[key] = report.get(key, 0.0) + s.seconds
        return metrics, report

    def self_times(self) -> dict:
        """Calls, inclusive and self seconds per span name, plus the counters."""
        table: dict[str, dict] = {}
        for s in self.spans:
            row = table.setdefault(s.name, {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["inclusive_s"] += s.seconds
            row["self_s"] += s.self_s
        for name, c in self.counters.items():
            table[name] = {"calls": c.calls, "inclusive_s": c.seconds, "self_s": c.seconds}
        return table
