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
import json
import math
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import fem, harness, models
from .fem import FieldSpec, Mesh1D, ObservationProfile, _is_int, _is_number, _is_positive
from .linalg import solver_kernel
from .observers import _ETA_DEFAULTS


# the check and rule text of each leaf that sets a SweepPlan field, the plan's
# own; time.tau keeps a row of its own, since its null resolves per equation
_PLAN = {leaf: (check, what) for _, leaf, check, what in harness._PLAN_LEAVES}

# one row per config leaf, in the document's order: (dotted leaf, default,
# check, what it must be).  A leaf that sets a field of a library type has no
# check: resolve_config builds the type, which checks it, before it derives
# any default, so nothing downstream sees a value of the wrong kind.
_LEAVES = (
    ("equation", "schrodinger", *_PLAN["equation"]),
    ("theta", 1.0, *_PLAN["theta"]),
    ("refine", 2, *_PLAN["refine"]),
    ("n_policy", "auto", *_PLAN["n_policy"]),
    ("geometry.length", 1.0, *_PLAN["geometry.length"]),
    ("geometry.n_cells", 64, None, None),
    ("observation.a", 0.2, None, None),
    ("observation.b", 0.8, None, None),
    ("observation.smoothness", 2, None, None),
    ("observation.constant", None, None, None),
    ("time.tau", None, lambda v: v is None or _is_positive(v), "null or a positive number"),
    ("time.n_steps", None, lambda v: v is None or (_is_int(v) and v >= 1),
     "null or an integer >= 1"),
    ("time.dt", None, lambda v: v is None or _is_positive(v), "null or a positive number"),
    ("truth", None, None, None),
    ("noise.amplitude", 0.0, None, None),
    ("noise.seed", 7, *_PLAN["noise.seed"]),
    ("eta.tol", _ETA_DEFAULTS["tol"], *_PLAN["eta.tol"]),
    ("eta.max_iter", _ETA_DEFAULTS["max_iter"], *_PLAN["eta.max_iter"]),
    ("eta.seed", _ETA_DEFAULTS["seed"], *_PLAN["eta.seed"]),
    ("sweep.levels", [32, 64, 128, 256], *_PLAN["sweep.levels"]),
    ("sweep.kappa", 1.0, *_PLAN["sweep.kappa"]),
    ("sweep.noise_eps", [0.0], *_PLAN["sweep.noise_eps"]),
    ("sweep.fit_model", "power-log2", lambda v: v in ("power-log2", "pure-power"),
     "'power-log2' or 'pure-power'"),
    ("sweep.gates.slope_band", [0.8, None], lambda v: isinstance(v, list) and len(v) == 2
     and _is_number(v[0]) and (v[1] is None or (_is_number(v[1]) and v[0] <= v[1])),
     "[low, high] or [low, null] with finite low <= high"),
    ("sweep.gates.monotone", True, lambda v: isinstance(v, bool), "true or false"),
    ("output.directory", ".", lambda v: isinstance(v, str), "a string"),
)

_TRUTH_LEAF = {"sine": "coefficients", "bump": "amplitude"}     # a field's leaf besides kind

class ConfigError(ValueError):
    pass


_built = functools.partial(models._checked, error=ConfigError)


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
    """Check each leaf by its _LEAVES row or the type it sets, then derive the defaults."""
    for dotted, _, check, what in _LEAVES:
        value = functools.reduce(dict.__getitem__, dotted.split("."), cfg)
        if check is not None and not check(value):
            raise ConfigError(f"{dotted} must be {what}, got {value!r}")
    eq = cfg["equation"]
    if cfg["truth"] is None:
        cfg["truth"] = ({"kind": "sine", "coefficients": [1.0, 0.5]} if eq == "schrodinger" else
                        {"position": {"kind": "sine", "coefficients": [1.0]},
                         "velocity": {"kind": "sine", "coefficients": [0.0, 1.0]}})
    # the geometry and noise sections hold exactly their type's fields
    _built("geometry.", Mesh1D, **cfg["geometry"])
    _built("observation.", build_profile, cfg)
    _built("noise.", models.NoiseSpec, **cfg["noise"])
    build_truth(cfg)
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
    t["n_steps"] = _built("", harness.step_count, eq, n_cells, steps, dotted, value)
    t["dt"] = t["tau"] / t["n_steps"]
    return cfg


def _from_json(value):
    """value with each [re, im] pair of numbers in it a complex number; any
    other value goes to FieldSpec as it is, for FieldSpec to refuse."""
    if not isinstance(value, list):
        return value
    return [complex(*c) if isinstance(c, list) and len(c) == 2 and all(map(_is_number, c))
            else c for c in value]


def _truth_field(spec, where: str, length: float) -> FieldSpec:
    """The FieldSpec of one truth field, checked by FieldSpec as it is built."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{where} must be a JSON object, got {spec!r}")
    kind = spec.get("kind", "sine")
    leaf = _TRUTH_LEAF.get(kind) if isinstance(kind, str) else None
    unknown = set(spec) - {"kind", leaf}
    # an unknown kind reads no leaf, and FieldSpec refuses the kind itself
    if leaf and unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")
    return _built(f"{where}.", FieldSpec, kind=kind, length=length,
                  **({leaf: _from_json(spec[leaf])} if leaf in spec else {}))


def build_profile(cfg: dict) -> ObservationProfile:
    """The profile; a constant weight keeps the default window, which it does
    not read, so a trace's header does not depend on the leaves it ignores."""
    obs = cfg["observation"]
    profile = ObservationProfile(obs["a"], obs["b"], obs["smoothness"], obs["constant"])
    fem.check_window(profile, cfg["geometry"]["length"])
    return profile if profile.const is None else ObservationProfile.constant(profile.const)


def build_truth(cfg: dict):
    """The truth's FieldSpec, a (position, velocity) pair for the wave, or
    None; every leaf is checked as it is built, so this is also the check
    ``resolve_config`` runs."""
    length = cfg["geometry"]["length"]
    truth = cfg["truth"]
    if truth in (None, "none"):
        return None
    if cfg["equation"] != "wave":
        return _truth_field(truth, "truth", length)
    if not isinstance(truth, dict) or set(truth) != {"position", "velocity"}:
        raise ConfigError("wave truth needs exactly the keys position, velocity")
    pair = tuple(_truth_field(truth[name], f"truth.{name}", length)
                 for name in ("position", "velocity"))
    _built("truth.", models.check_truth, "wave", pair, length)     # the wave's is real
    return pair


def build_instance(cfg: dict) -> models.ProblemInstance:
    truth = build_truth(cfg)
    if truth is None:
        raise ConfigError("this command needs a truth field in the config")
    return models.ProblemInstance(
        equation=cfg["equation"],
        mesh=Mesh1D(**cfg["geometry"]),
        profile=build_profile(cfg),
        tau=cfg["time"]["tau"],
        n_steps=cfg["time"]["n_steps"],
        truth=truth,
    )


def build_plan(cfg: dict) -> harness.SweepPlan:
    truth = build_truth(cfg)
    if truth is None:
        raise ConfigError("sweeps need a truth field in the config")
    return harness.SweepPlan(truth=truth, profile=build_profile(cfg), **{
        field: functools.reduce(dict.__getitem__, dotted.split("."), cfg)
        for field, dotted, _, _ in harness._PLAN_LEAVES})


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
    import hashlib      # maps libcrypto: only this command hashes

    instance = build_instance(cfg)
    noise = models.NoiseSpec(**cfg["noise"])
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
    expected = {"equation": cfg["equation"], **cfg["geometry"], "tau": cfg["time"]["tau"],
                "n_steps": cfg["time"]["n_steps"],
                "profile": models.profile_header(build_profile(cfg))}
    mismatched = [k for k in expected if not _close(expected[k], header[k])]
    if mismatched:
        raise ConfigError(f"trace header does not match config: config side "
                          f"{ {k: expected[k] for k in mismatched} }, trace side "
                          f"{ {k: header[k] for k in mismatched} }")
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
    # read_trace has checked each header value's kind, so a float meets a number
    if isinstance(a, float) or isinstance(b, float):
        return abs(a - b) <= 1e-12 * max(1.0, abs(a))
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
