"""Command-line entry point: generate / reconstruct / estimate-eta / sweep.

Configuration is a single JSON document; any leaf can be overridden on the
command line by dotted path (--set time.n_steps=128).  Unknown keys are
rejected, all defaults are resolved up front, and the resolved config is
embedded in every output file so runs stay reproducible from their
artifacts.
"""

from __future__ import annotations

import argparse
import copy
import functools
import hashlib
import json
import math
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import harness, models
from .fem import FieldSpec, Mesh1D, ObservationProfile
from .linalg import solver_kernel
from .models import _is_int, _is_number, _is_positive, _is_seed
from .observers import _ETA_DEFAULTS


# one row per config leaf, in the document's order: (dotted leaf, default,
# check, what it must be).  truth's default is per equation, and build_truth
# checks it.  All checks run before any default is derived from the leaves,
# so nothing downstream sees a value of the wrong kind.
_LEAVES = (
    ("equation", "schrodinger", lambda v: v in ("schrodinger", "wave"),
     "'schrodinger' or 'wave'"),
    ("theta", 1.0, _is_positive, "a positive number"),
    ("refine", 2, lambda v: _is_int(v) and v >= 1, "an integer >= 1"),
    ("n_policy", "auto", harness._is_n_policy, "'auto' or an integer >= 0"),
    ("geometry.length", 1.0, _is_positive, "a positive number"),
    ("geometry.n_cells", 64, lambda v: _is_int(v) and v >= 2, "an integer >= 2"),
    ("observation.a", 0.2, _is_number, "a number"),
    ("observation.b", 0.8, _is_number, "a number"),
    ("observation.smoothness", 2, lambda v: _is_int(v) and v in (1, 2, 3), "1, 2 or 3"),
    ("observation.constant", None, lambda v: v is None or _is_number(v), "null or a number"),
    ("time.tau", None, lambda v: v is None or _is_positive(v), "null or a positive number"),
    ("time.n_steps", None, lambda v: v is None or (_is_int(v) and v >= 1),
     "null or an integer >= 1"),
    ("time.dt", None, lambda v: v is None or _is_positive(v), "null or a positive number"),
    ("truth", None, None, None),
    ("noise.amplitude", 0.0, lambda v: _is_number(v) and v >= 0, "a number >= 0"),
    ("noise.seed", 7, _is_seed, "an integer >= 0"),
    ("eta.tol", _ETA_DEFAULTS["tol"], lambda v: _is_number(v) and 0 < v < 1,
     "a number in (0, 1)"),
    ("eta.max_iter", _ETA_DEFAULTS["max_iter"], lambda v: _is_int(v) and v >= 2,
     "an integer >= 2"),
    ("eta.seed", _ETA_DEFAULTS["seed"], _is_seed, "an integer >= 0"),
    ("sweep.levels", [32, 64, 128, 256], lambda v: isinstance(v, list) and len(v) > 0
     and all(_is_int(n) and n >= 2 for n in v), "a non-empty list of integers >= 2"),
    ("sweep.kappa", 1.0, _is_positive, "a positive number"),
    ("sweep.noise_eps", [0.0], lambda v: isinstance(v, list) and len(v) > 0
     and all(_is_number(e) and e >= 0 for e in v), "a non-empty list of numbers >= 0"),
    ("sweep.fit_model", "power-log2", lambda v: v in ("power-log2", "pure-power"),
     "'power-log2' or 'pure-power'"),
    ("sweep.gates.slope_band", [0.8, None], lambda v: isinstance(v, list) and len(v) == 2
     and _is_number(v[0]) and (v[1] is None or (_is_number(v[1]) and v[0] <= v[1])),
     "[low, high] or [low, null] with finite low <= high"),
    ("sweep.gates.monotone", True, lambda v: isinstance(v, bool), "true or false"),
    ("output.directory", ".", lambda v: isinstance(v, str), "a string"),
)

# the leaves a truth field (truth, or truth.position and truth.velocity for
# the wave) reads besides kind, by kind: each leaf's check, what it must be
# and its FieldSpec value.  The wave is real, so its fields take real
# coefficients only.
_TRUTH_LEAVES = {
    "sine": {"coefficients": (lambda v: isinstance(v, list) and len(v) > 0 and all(
        _is_number(c) or (isinstance(c, list) and len(c) == 2 and all(map(_is_number, c)))
        for c in v), "a non-empty list of numbers or [re, im] pairs",
        lambda v: tuple(complex(*c) if isinstance(c, list) else float(c) for c in v))},
    "bump": {"amplitude": (_is_number, "a number", float)},
}
_WAVE_TRUTH_LEAVES = {**_TRUTH_LEAVES, "sine": {"coefficients": (
    lambda v: isinstance(v, list) and len(v) > 0 and all(map(_is_number, v)),
    "a non-empty list of numbers", lambda v: tuple(map(float, v)))}}

class ConfigError(ValueError):
    pass


def _check_keys(user: dict, schema: dict, path: str = ""):
    for key, value in user.items():
        where = f"{path}.{key}" if path else key
        if key not in schema:
            raise ConfigError(f"unknown config key: {where}")
        if isinstance(schema[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{where} must be an object, got {value!r}")
            _check_keys(value, schema[key], where)


def _merge(base: dict, user: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in user.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def _apply_override(user: dict, item: str) -> dict:
    """Merge one path=value override into the user document."""
    if "=" not in item:
        raise ConfigError(f"override must look like path=value, got {item!r}")
    dotted, raw = item.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return _merge(user, _nested(dotted, value))


def _nested(dotted: str, value) -> dict:
    """The document holding value at the dotted leaf, and nothing else."""
    for part in reversed(dotted.split(".")):
        value = {part: value}
    return value


# every leaf's default, in the rows' order at every depth
DEFAULTS = functools.reduce(_merge, (_nested(row[0], row[1]) for row in _LEAVES), {})


def load_config(path: str | None, overrides: list[str] | None = None) -> dict:
    user = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            user = json.load(fh)
        if not isinstance(user, dict):
            raise ConfigError("config document must be a JSON object")
    for item in overrides or []:
        user = _apply_override(user, item)
    _check_keys(user, DEFAULTS)
    return resolve_config(_merge(DEFAULTS, user))


def resolve_config(cfg: dict) -> dict:
    """Check every leaf against its row of _LEAVES, then fill the per-equation defaults."""
    for dotted, _, check, what in _LEAVES:
        value = cfg
        for part in dotted.split("."):
            value = value[part]
        if check is not None and not check(value):
            raise ConfigError(f"{dotted} must be {what}, got {value!r}")
    eq = cfg["equation"]
    t = cfg["time"]
    if t["tau"] is None:
        t["tau"] = 1.0 if eq == "schrodinger" else 2.0
    n_cells = cfg["geometry"]["n_cells"]
    leaf, steps = "n_steps", t["n_steps"]
    if steps is None:
        if t["dt"] is not None:
            leaf, step, quotient = "dt", t["dt"], "time.tau / time.dt"
        else:
            step = cfg["geometry"]["length"] / n_cells
            leaf, quotient = "tau", f"time.tau / h (h = {step!r})"
        # each leaf passed its rule, yet the quotient can still overflow (or h
        # underflow to 0), and round() takes no infinite step count
        steps = t["tau"] / step if step > 0 else math.inf
        if not math.isfinite(steps):
            raise ConfigError(f"time.{leaf} must give a finite step count "
                              f"{quotient}, got {t[leaf]!r}")
    # through h = length / n_cells the cell count sets both factors of the trace
    dotted, value = (("geometry.n_cells", n_cells) if leaf == "tau"
                     else (f"time.{leaf}", t[leaf]))
    try:
        t["n_steps"] = harness.step_count(eq, n_cells, steps, dotted, value)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    t["dt"] = t["tau"] / t["n_steps"]
    if cfg["truth"] is None:
        if eq == "schrodinger":
            cfg["truth"] = {"kind": "sine", "coefficients": [1.0, 0.5]}
        else:
            cfg["truth"] = {
                "position": {"kind": "sine", "coefficients": [1.0]},
                "velocity": {"kind": "sine", "coefficients": [0.0, 1.0]},
            }
    build_truth(cfg)      # the truth's check
    return cfg


def _truth_field(spec, where: str, length: float, leaves_by_kind: dict) -> FieldSpec:
    """The FieldSpec of one truth field, each leaf checked as it is read."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{where} must be a JSON object, got {spec!r}")
    kind = spec.get("kind", "sine")
    leaves = leaves_by_kind.get(kind) if isinstance(kind, str) else None
    if leaves is None:
        raise ConfigError(f"{where}.kind must be 'sine' or 'bump', got {kind!r}")
    unknown = set(spec) - {"kind", *leaves}
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")
    kwargs = {}
    for key, (check, what, value_of) in leaves.items():
        if key in spec:
            if not check(spec[key]):
                raise ConfigError(f"{where}.{key} must be {what}, got {spec[key]!r}")
            kwargs[key] = value_of(spec[key])
    return FieldSpec(kind=kind, length=length, **kwargs)


def build_profile(cfg: dict) -> ObservationProfile:
    obs = cfg["observation"]
    if obs.get("constant") is not None:
        return ObservationProfile.constant(obs["constant"])
    return ObservationProfile(a=obs["a"], b=obs["b"], smoothness=obs["smoothness"])


def build_truth(cfg: dict):
    """The truth's FieldSpec, a (position, velocity) pair for the wave, or
    None; every leaf is checked as it is built, so this is also the check
    ``resolve_config`` runs."""
    length = cfg["geometry"]["length"]
    truth = cfg["truth"]
    if truth in (None, "none"):
        return None
    if cfg["equation"] != "wave":
        return _truth_field(truth, "truth", length, _TRUTH_LEAVES)
    if not isinstance(truth, dict) or set(truth) != {"position", "velocity"}:
        raise ConfigError("wave truth needs exactly the keys position, velocity")
    return tuple(_truth_field(truth[name], f"truth.{name}", length, _WAVE_TRUTH_LEAVES)
                 for name in ("position", "velocity"))


def build_instance(cfg: dict) -> models.ProblemInstance:
    truth = build_truth(cfg)
    if truth is None:
        raise ConfigError("this command needs a truth field in the config")
    return models.ProblemInstance(
        equation=cfg["equation"],
        mesh=Mesh1D(n_cells=cfg["geometry"]["n_cells"],
                    length=cfg["geometry"]["length"]),
        profile=build_profile(cfg),
        tau=cfg["time"]["tau"],
        n_steps=cfg["time"]["n_steps"],
        truth=truth,
    )


def build_plan(cfg: dict) -> harness.SweepPlan:
    sw = cfg["sweep"]
    truth = build_truth(cfg)
    if truth is None:
        raise ConfigError("sweeps need a truth field in the config")
    return harness.SweepPlan(
        equation=cfg["equation"],
        levels=tuple(sw["levels"]),
        tau=cfg["time"]["tau"],
        truth=truth,
        profile=build_profile(cfg),
        kappa=sw["kappa"],
        length=cfg["geometry"]["length"],
        theta=cfg["theta"],
        refine=cfg["refine"],
        noise_eps=tuple(sw["noise_eps"]),
        noise_seed=cfg["noise"]["seed"],
        n_policy=cfg["n_policy"],
        eta_tol=cfg["eta"]["tol"],
        eta_max_iter=cfg["eta"]["max_iter"],
        eta_seed=cfg["eta"]["seed"],
    )


def _engine_from(cfg: dict) -> harness.BackAndForth:
    return harness.build_engine(cfg["equation"], cfg["geometry"]["n_cells"],
                                cfg["geometry"]["length"], build_profile(cfg),
                                cfg["time"]["dt"], cfg["time"]["n_steps"])


def _strict(doc):
    """doc with every non-finite float as None, so ``json.dumps`` writes
    null where it would write the bare tokens NaN and Infinity."""
    if isinstance(doc, float) and not math.isfinite(doc):
        return None
    if isinstance(doc, dict):
        return {key: _strict(value) for key, value in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_strict(value) for value in doc]
    return doc


def _out_dir(cfg: dict) -> Path:
    out = Path(cfg["output"]["directory"])
    out.mkdir(parents=True, exist_ok=True)
    return out


# -- subcommands ---------------------------------------------------------------


def cmd_generate(cfg: dict, out: str | None) -> int:
    instance = build_instance(cfg)
    noise = models.NoiseSpec(cfg["noise"]["amplitude"], cfg["noise"]["seed"])
    trace = models.generate_observation(instance, refine=cfg["refine"], noise=noise)
    path = Path(out) if out else Path(cfg["output"]["directory"]) / "trace.txt"
    path.parent.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    models.write_trace(path, trace, instance, cfg["refine"], noise, config=cfg, digest=digest)
    print(json.dumps({"trace": str(path), "sha256": digest.hexdigest(),
                      "rows": trace.n_steps + 1}))
    return 0


def _write_estimate(path: Path, estimate, cfg: dict):
    """A JSON header line, then one row per field (position and velocity for
    the wave), 17 significant digits, comma-separated; complex rows
    interleave (re, im) per node."""
    rows = np.ascontiguousarray(np.vstack([estimate.pos, estimate.vel])
                                if cfg["equation"] == "wave" else np.atleast_2d(estimate))
    header = {"format": "bafobs-estimate-1",
              "equation": cfg["equation"],
              "complex": bool(np.iscomplexobj(rows)),
              "config": cfg}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        np.savetxt(fh, rows.view(np.float64), fmt="%.17g", delimiter=",")


def cmd_reconstruct(cfg: dict, trace_path: str) -> int:
    start = time.perf_counter()
    trace, header = models.read_trace(trace_path)
    read_ms = 1e3 * (time.perf_counter() - start)
    # the profile as built, so a constant profile's unused a and b are its defaults
    expected = {"equation": cfg["equation"],
                "n_cells": cfg["geometry"]["n_cells"],
                "length": cfg["geometry"]["length"],
                "tau": cfg["time"]["tau"],
                "n_steps": cfg["time"]["n_steps"],
                "profile": models.profile_header(build_profile(cfg))}
    actual = {k: header.get(k) for k in expected}
    mismatched = {k: (expected[k], actual[k]) for k in expected
                  if not _close(expected[k], actual[k])}
    if mismatched:
        raise ConfigError(
            f"trace header does not match config: config side "
            f"{ {k: v[0] for k, v in mismatched.items()} }, trace side "
            f"{ {k: v[1] for k, v in mismatched.items()} }"
        )
    engine = _engine_from(cfg)
    eta, eta_cost = harness.eta_stage(engine, **cfg["eta"])
    result, solve_cost = harness.solve_stage(engine, trace, eta, n_policy=cfg["n_policy"],
                                             theta=cfg["theta"])
    truth = build_truth(cfg)
    row = harness.fill_row(engine, result, result.estimate, eta, truth=truth,
                           noise_eps=header["noise"]["amplitude"], theta=cfg["theta"])
    harness.charge(row, **eta_cost)
    harness.charge(row, **solve_cost)
    out = _out_dir(cfg)
    est_path = out / "estimate.txt"
    _write_estimate(est_path, result.estimate, cfg)
    diagnostics = asdict(row)
    if truth is None:
        del diagnostics["error_x"], diagnostics["error_ms"]
    diagnostics.update(residual_norms=list(result.residual_norms),
                       solver_kernel=solver_kernel(), trace_format=header["format"],
                       read_ms=read_ms, config=cfg)
    diag_path = out / "diagnostics.json"
    diag_path.write_text(json.dumps(diagnostics, indent=2), encoding="utf-8")
    print(json.dumps({"estimate": str(est_path), "diagnostics": str(diag_path),
                      "n_used": result.n_used, "eta_hat": eta.value}))
    return 0


def _close(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        try:
            return abs(float(a) - float(b)) <= 1e-12 * max(1.0, abs(float(a)))
        except (TypeError, ValueError):
            return False
    return a == b


def cmd_estimate_eta(cfg: dict) -> int:
    eta, cost = harness.eta_stage(_engine_from(cfg), **cfg["eta"])
    print(json.dumps({"eta_hat": eta.value, "converged": eta.converged,
                      "iterations": eta.iterations, "n_solves": cost["solves"]}))
    return 0


def cmd_sweep(cfg: dict) -> int:
    plan = build_plan(cfg)
    rows = harness.run_sweep(plan)
    fit_model = cfg["sweep"]["fit_model"]
    gates_cfg = cfg["sweep"]["gates"]
    fit = None
    fit_error = None
    try:
        fit = harness.fit_rate(rows, model=fit_model, theta=plan.theta)
    except ValueError as exc:
        fit_error = str(exc)
    noise_table = None
    if len(plan.noise_eps) > 1 and 0.0 in plan.noise_eps:
        noise_table = harness.build_noise_table(rows, plan.tau)
    gates = harness.evaluate_gates(
        rows, fit, slope_band=tuple(gates_cfg["slope_band"]),
        require_monotone=gates_cfg["monotone"])
    if fit_error is not None:
        gates["rate_fit_possible"] = False
    out = _out_dir(cfg)
    csv_path = out / "sweep.csv"
    csv_path.write_text(harness.rows_to_csv(rows, fit_model, config=cfg),
                        encoding="utf-8")
    summary = harness.summary_dict(plan, rows, fit, gates, config=cfg,
                                   noise_table=noise_table)
    summary["solver_kernel"] = solver_kernel()
    if fit_error is not None:
        summary["fit_error"] = fit_error
    summary_path = out / "summary.json"
    summary_path.write_text(json.dumps(_strict(summary), indent=2), encoding="utf-8")
    print(json.dumps({"csv": str(csv_path), "summary": str(summary_path),
                      "gates": gates}))
    return 0 if all(gates.values()) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bafobs",
        description="Back-and-forth observer reconstruction of PDE initial states",
    )
    parser.add_argument("--config", help="path to a JSON config document")
    parser.add_argument("--set", action="append", default=[], metavar="PATH=VALUE",
                        dest="overrides",
                        help="override a config leaf by dotted path")
    sub = parser.add_subparsers(dest="command", required=True)
    gen = sub.add_parser("generate", help="write a synthetic observation trace")
    gen.add_argument("--out", help="trace file path")
    rec = sub.add_parser("reconstruct", help="reconstruct the initial state from a trace")
    rec.add_argument("--trace", required=True, help="trace file to invert")
    sub.add_parser("estimate-eta", help="estimate the round-trip contraction factor")
    sub.add_parser("sweep", help="run a convergence sweep and emit CSV + summary")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.overrides)
        if args.command == "generate":
            return cmd_generate(cfg, args.out)
        if args.command == "reconstruct":
            return cmd_reconstruct(cfg, args.trace)
        if args.command == "estimate-eta":
            return cmd_estimate_eta(cfg)
        return cmd_sweep(cfg)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
