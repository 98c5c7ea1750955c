import functools
import hashlib
import inspect
import json
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bafobs import cli, harness, observers
from bafobs.fem import FieldSpec, Mesh1D, ObservationProfile, check_window
from bafobs.harness import SweepPlan, SweepRow
from bafobs.linalg import ShiftedSystem
from bafobs.models import NoiseSpec, read_trace
from bafobs.observers import RATIO_SLACK, BackAndForth, EtaEstimate, arnoldi_iteration


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def small_config(tmp_path, **extra):
    payload = {
        "geometry": {"n_cells": 12},
        "time": {"n_steps": 12},
        "output": {"directory": str(tmp_path / "out")},
        "eta": {"tol": 1e-5, "max_iter": 40, "seed": 11},
    }
    payload.update(extra)
    return write_config(tmp_path, payload)


def test_unknown_key_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, {"geometry": {"n_cellz": 8}})
    code, _, err = run_cli(["--config", cfg, "generate"], capsys)
    assert code == 2
    assert "geometry.n_cellz" in err


def test_top_level_seed_key_rejected(tmp_path, capsys):
    # the noise and eta sections carry their own seeds
    cfg = write_config(tmp_path, {"seed": 7})
    code, _, err = run_cli(["--config", cfg, "generate"], capsys)
    assert code == 2
    assert "unknown config key: seed" in err


@pytest.mark.parametrize("value", ["3", '"auto"'])
def test_n_policy_is_an_unknown_key(tmp_path, capsys, value):
    # the solve has one stopping rule, so no config sets a step count, nor
    # names the rule
    cfg = small_config(tmp_path)
    code, stdout, err = run_cli(["--config", cfg, "--set", f"n_policy={value}",
                                 "estimate-eta"], capsys)
    assert code == 2 and stdout == ""
    assert "unknown config key: n_policy" in err


def test_window_touching_boundary_rejected(tmp_path, capsys):
    cfg = small_config(tmp_path, observation={"a": 0.0, "b": 0.5, "smoothness": 2})
    code, _, err = run_cli(["--config", cfg, "generate"], capsys)
    assert code == 2
    assert "error: observation.a must be greater than 0, got 0.0" in err


def test_generate_row_count_and_determinism(tmp_path, capsys):
    cfg = small_config(tmp_path)
    out1 = str(tmp_path / "a.txt")
    code, stdout, _ = run_cli(["--config", cfg, "generate", "--out", out1], capsys)
    assert code == 0
    meta1 = json.loads(stdout)
    assert meta1["rows"] == 13
    trace, header = read_trace(out1)
    assert trace.samples.shape == (13, 11)
    assert header["config"]["equation"] == "schrodinger"
    out2 = str(tmp_path / "b.txt")
    _, stdout2, _ = run_cli(["--config", cfg, "generate", "--out", out2], capsys)
    assert json.loads(stdout2)["sha256"] == meta1["sha256"]


def test_generate_digest_is_the_files_sha256_past_one_read_chunk(tmp_path, capsys):
    # 300 cells: a 1.4 MB trace, whose digest is fed as it is written, not read back
    cfg = small_config(tmp_path)
    out = tmp_path / "big.txt"
    code, stdout, _ = run_cli(["--config", cfg, "--set", "geometry.n_cells=300",
                               "--set", "time.n_steps=300", "generate", "--out", str(out)],
                              capsys)
    assert code == 0
    assert out.stat().st_size > 1 << 20
    assert json.loads(stdout)["sha256"] == hashlib.sha256(out.read_bytes()).hexdigest()


def test_override_by_dotted_path(tmp_path, capsys):
    cfg = small_config(tmp_path)
    out = str(tmp_path / "c.txt")
    code, stdout, _ = run_cli(["--config", cfg, "--set", "time.n_steps=7",
                               "generate", "--out", out], capsys)
    assert code == 0
    assert json.loads(stdout)["rows"] == 8
    code, _, err = run_cli(["--config", cfg, "--set", "time.stepz=7",
                            "generate", "--out", out], capsys)
    assert code == 2 and "time.stepz" in err


def test_reconstruct_round_trip_and_diagnostics(tmp_path, capsys):
    cfg = small_config(tmp_path)
    trace_path = str(tmp_path / "trace.txt")
    run_cli(["--config", cfg, "generate", "--out", trace_path], capsys)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, stdout, _ = run_cli(["--config", cfg, "reconstruct",
                                   "--trace", trace_path], capsys)
    assert code == 0
    meta = json.loads(stdout)
    diag = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
    assert 0 < diag["eta_hat"] < 1
    assert diag["eta_converged"] is True and 1 <= diag["eta_iterations"] <= 40
    assert diag["eta_warm"] is False           # reconstruct starts eta cold
    assert diag["n_used"] == meta["n_used"] >= 1
    assert "error_x" in diag and diag["error_x"] > 0
    assert diag["config"]["time"]["n_steps"] == 12
    assert diag["solver_kernel"] in ("openblas-gttrs", "thomas")
    # two passes of 12 steps per round trip: one per Schrodinger eta step, the
    # first iterate's and one per solve step
    assert diag["n_solves"] == 2 * 12 * diag["eta_iterations"] + 2 * 12 * (diag["n_used"] + 1)
    assert diag["n_capped"] is False
    # the solve's stopping rule and its check of eta_hat, in the JSON only
    eta, norms = diag["eta_hat"], diag["residual_norms"]
    assert len(norms) == diag["n_used"] + 1
    assert diag["residual"] == norms[-1] / norms[0] <= eta * (1 / 12 + 1 / 12)
    assert 0 < diag["ritz_max"] <= eta * (1 + RATIO_SLACK)
    assert diag["n_used"] <= diag["n_neumann"]
    assert diag["trace_format"] == "bafobs-trace-2"
    assert all(diag[s] > 0 for s in ("read_ms", "eta_ms", "neumann_ms", "error_ms"))
    est_lines = (tmp_path / "out" / "estimate.txt").read_text().strip().split("\n")
    header = json.loads(est_lines[0])
    assert header["complex"] and len(est_lines) == 2
    values = np.array([float(v) for v in est_lines[1].split(",")])
    assert values.size == 2 * 11
    # an exhausted step budget is reported, not passed off as an estimate
    with pytest.warns(RuntimeWarning,
                      match=r"eta = \S+ at 12 cells did not converge in 2 steps"):
        code, _, _ = run_cli(["--config", cfg, "--set", "eta.max_iter=2",
                              "--set", "eta.tol=1e-12", "reconstruct",
                              "--trace", trace_path], capsys)
    assert code == 0
    diag = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
    assert diag["eta_converged"] is False and diag["eta_iterations"] == 2


def test_generate_creates_the_directory_of_out(tmp_path, capsys):
    cfg = small_config(tmp_path)
    out = tmp_path / "new" / "dir" / "t.txt"
    code, stdout, _ = run_cli(["--config", cfg, "generate", "--out", str(out)], capsys)
    assert code == 0 and json.loads(stdout)["trace"] == str(out)
    assert read_trace(out)[0].samples.shape == (13, 11)


@pytest.mark.parametrize("equation", ["schrodinger", "wave"])
def test_reconstruct_diagnostics_match_a_one_level_sweep_row(tmp_path, capsys, equation):
    # both commands fill their rows by harness.fill_row, so every field but
    # the wall times agrees bit for bit
    args = ["--set", f"equation={equation}", "--set", "geometry.n_cells=32",
            "--set", "sweep.levels=[32]", "--set", f"output.directory={tmp_path}"]
    trace_path = str(tmp_path / "t.txt")
    assert run_cli(args + ["generate", "--out", trace_path], capsys)[0] == 0
    assert run_cli(args + ["reconstruct", "--trace", trace_path], capsys)[0] == 0
    run_cli(args + ["sweep"], capsys)   # exits 1: one level leaves nothing to fit
    diag = json.loads((tmp_path / "diagnostics.json").read_text())
    (row,) = json.loads((tmp_path / "summary.json").read_text())["rows"]
    row_fields = {f.name for f in fields(SweepRow)}
    assert set(diag) == row_fields | {"residual_norms", "solver_kernel",
                                      "trace_format", "read_ms", "config"}
    same = sorted(name for name in row_fields if not name.endswith("_ms"))
    assert {k: diag[k] for k in same} == {k: row[k] for k in same}
    assert row["failure"] is None and row["n_cells"] == 32


def test_reconstruct_without_truth_writes_no_error_and_strict_json(tmp_path, capsys):
    cfg = small_config(tmp_path)
    trace_path = str(tmp_path / "t.txt")
    run_cli(["--config", cfg, "generate", "--out", trace_path], capsys)
    code, _, _ = run_cli(["--config", cfg, "--set", "truth=none", "reconstruct",
                          "--trace", trace_path], capsys)
    assert code == 0

    def refuse(constant):
        raise ValueError(f"diagnostics.json holds {constant}, which is not JSON")

    diag = json.loads((tmp_path / "out" / "diagnostics.json").read_text(),
                      parse_constant=refuse)
    assert "error_x" not in diag and "error_ms" not in diag
    assert diag["config"]["truth"] == "none" and diag["n_used"] >= 1


def test_reconstruct_reports_the_noise_of_the_trace(tmp_path, capsys):
    # the noise level is the trace's, not the reconstructing config's
    cfg = small_config(tmp_path)
    trace_path = str(tmp_path / "t.txt")
    run_cli(["--config", cfg, "--set", "noise.amplitude=0.001", "generate", "--out",
             trace_path], capsys)
    assert run_cli(["--config", cfg, "reconstruct", "--trace", trace_path], capsys)[0] == 0
    diag = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
    assert diag["noise_eps"] == 0.001 and diag["config"]["noise"]["amplitude"] == 0.0


# the 32-cell wave needs two solve steps, so a cap of one is hit
WAVE_32 = ["--set", "equation=wave", "--set", "geometry.n_cells=32", "--set", "time.n_steps=64"]


def test_reconstruct_records_truncation_cap_hit(tmp_path, capsys, monkeypatch):
    cfg = small_config(tmp_path)
    trace_path = str(tmp_path / "t.txt")
    run_cli(["--config", cfg, *WAVE_32, "generate", "--out", trace_path], capsys)
    monkeypatch.setattr(observers, "AUTO_N_CAP", 1)
    with pytest.warns(RuntimeWarning, match="capping at 1"):
        code, _, _ = run_cli(["--config", cfg, *WAVE_32, "reconstruct", "--trace", trace_path],
                             capsys)
    assert code == 0
    diag = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
    assert diag["n_capped"] is True and diag["n_used"] == 1
    assert diag["residual"] > diag["eta_hat"] * (1 / 32 + 1 / 32)


@pytest.mark.parametrize("override", [
    "eta.tol=0", "eta.tol=1", "eta.tol=-1e-3", 'eta.tol="tight"', "eta.tol=NaN",
    "eta.max_iter=1", "eta.max_iter=2.5", "eta.max_iter=true",
    "sweep.gates.slope_band=[0.8]", 'sweep.gates.slope_band="0.8"',
    "sweep.gates.slope_band=[0.8, 1.0, 2.0]", "sweep.gates.slope_band=[null, 1.0]",
    "sweep.gates.slope_band=[1.2, 0.8]", "sweep.gates.slope_band=[NaN, null]",
    "sweep.gates.slope_band=[0.8, Infinity]",
    "refine=0", "refine=1.5", "refine=true", 'geometry.n_cells="abc"',
    "geometry.n_cells=1", 'sweep.levels="abc"', "sweep.levels=[]",
    "sweep.levels=[1, 8]", "sweep.levels=[8, 16.5]",
    "time.dt=0", "time.n_steps=0", "time.tau=-1", "geometry=5", "eta=3",
    'geometry.length="x"', 'sweep.kappa="x"', "n_policy=true", "n_policy=-1",
    "theta=-1", "sweep.noise_eps=[]", "sweep.kappa=Infinity", 'observation.a="x"',
    'observation.smoothness="x"', "observation.constant=[1]", 'noise.amplitude="x"',
    'noise.seed="x"', "eta.seed=1.5", 'sweep.fit_model="x"', 'sweep.gates.monotone="x"',
    "output.directory=5",
])
def test_bad_eta_or_gate_settings_rejected_before_any_level(tmp_path, capsys,
                                                            monkeypatch, override):
    def no_sweep(plan):
        raise AssertionError("a level ran before the config was checked")

    monkeypatch.setattr(cli.harness, "run_sweep", no_sweep)
    cfg = small_config(tmp_path, sweep={"levels": [8, 16, 24]})
    code, stdout, err = run_cli(["--config", cfg, "--set", override, "sweep"], capsys)
    assert code == 2 and stdout == ""
    assert override.split("=")[0] in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("override, message", [
    ('geometry.n_cells="abc"', "geometry.n_cells must be an integer >= 2"),
    ("time.dt=0", "time.dt must be null or a positive number, got 0"),
    ("geometry=5", "geometry must be an object, got 5"),
], ids=["n_cells", "dt", "geometry"])
def test_generate_rejects_bad_cell_count(tmp_path, capsys, override, message):
    cfg = small_config(tmp_path)
    code, stdout, err = run_cli(["--config", cfg, "--set", override, "generate"], capsys)
    assert code == 2 and stdout == ""
    assert message in err
    assert not (tmp_path / "out").exists()
    assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]


@pytest.mark.parametrize("command", ["generate", "sweep"])
@pytest.mark.parametrize("equation, truth, message", [
    ("schrodinger", {"kind": "bump", "amplitude": "x"}, "truth.amplitude must be "),
    ("schrodinger", {"kind": "sine", "coefficients": 5}, "truth.coefficients must be "),
    ("schrodinger", {"coefficients": []}, "truth.coefficients must be "),
    ("schrodinger", {"coefficients": [[1.0, 2.0, 3.0]]}, "truth.coefficients must be "),
    ("schrodinger", {"kind": "spike"}, "truth.kind must be "),
    ("schrodinger", {"kind": "kink"}, "truth.kind must be "),
    ("schrodinger", {"kind": "bump", "center": 0.3}, "unknown truth keys: ['center']"),
    ("schrodinger", {"kind": "bump", "exponent": 0.6}, "unknown truth keys: ['exponent']"),
    ("wave", {"position": {"kind": "bump", "amplitude": "x"}, "velocity": {}},
     "truth.position.amplitude must be "),
    ("wave", {"position": {}, "velocity": {"coefficients": [[1.0, "i"]]}},
     "truth.velocity.coefficients must be "),
    ("wave", {"position": "none", "velocity": {}}, "truth.position must be "),
    ("wave", {"position": {"coefficients": [[1.0, 1.0]]}, "velocity": {}},
     "truth.position.coefficients must be "),
    ("wave", {"position": {}, "velocity": {"kind": "kink"}}, "truth.velocity.kind must be "),
    # each kind takes only the leaves it reads
    ("schrodinger", {"kind": "sine", "coefficients": [1.0, 0.5], "amplitude": 5},
     "unknown truth keys: ['amplitude']"),
    ("schrodinger", {"kind": "bump", "coefficients": [9, 9, 9]},
     "unknown truth keys: ['coefficients']"),
    ("wave", {"position": {"kind": "sine", "coefficients": [1.0], "amplitude": 2},
              "velocity": {}}, "unknown truth.position keys: ['amplitude']"),
], ids=["amplitude", "coefficients", "no-coefficients", "triple", "kind", "kink", "center",
        "exponent", "wave-amplitude", "wave-coefficients", "wave-field", "wave-complex",
        "wave-kink", "sine-amplitude", "bump-coefficients", "wave-sine-amplitude"])
def test_bad_truth_leaf_rejected_before_any_work(tmp_path, capsys, monkeypatch, command,
                                                 equation, truth, message):
    # these used to end in a traceback (generate) or in failed rows (sweep);
    # a complex wave coefficient lost its imaginary part without a word
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the truth was checked")

    monkeypatch.setattr(cli.harness, "run_sweep", no_work)
    monkeypatch.setattr(cli.models, "generate_observation", no_work)
    out = tmp_path / "out"
    code, stdout, err = run_cli(["--set", f"equation={equation}",
                                 "--set", f"truth={json.dumps(truth)}",
                                 "--set", f"output.directory={out}", command], capsys)
    assert code == 2 and stdout == ""
    assert f"error: {message}" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "sweep"])
@pytest.mark.parametrize("override, message", [
    ("observation.constant=5", "observation.constant must be None or a number in [0, 1], got 5"),
    ("observation.a=0.9", "observation.a must be less than b, got a = 0.9, b = 0.8"),
], ids=["constant", "a-past-b"])
def test_a_profile_its_type_refuses_is_refused_before_any_work(tmp_path, capsys, monkeypatch,
                                                               command, override, message):
    # both used to load, then exit 2 with a message that named no leaf
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the profile was checked")

    monkeypatch.setattr(cli.harness, "run_sweep", no_work)
    monkeypatch.setattr(cli.models, "generate_observation", no_work)
    out = tmp_path / "out"
    code, stdout, err = run_cli(["--set", override, "--set", f"output.directory={out}",
                                 command], capsys)
    assert code == 2 and stdout == ""
    assert f"error: {message}" in err
    assert not out.exists()


# each leaf a library type checks: the override that sets it, and that type as
# resolve_config builds it, from the leaf's value and every other leaf's default
_TYPE_LEAVES = {
    "geometry.n_cells": (lambda v: f"geometry.n_cells={v}", lambda v: Mesh1D(n_cells=v)),
    # the window's ends, by the profile and then by the domain's length
    "observation.a": (lambda v: f"observation.a={v}",
                      lambda v: check_window(ObservationProfile(a=v), 1.0)),
    "observation.b": (lambda v: f"observation.b={v}",
                      lambda v: check_window(ObservationProfile(b=v), 1.0)),
    "observation.smoothness": (lambda v: f"observation.smoothness={v}",
                               lambda v: ObservationProfile(smoothness=v)),
    "observation.constant": (lambda v: f"observation.constant={v}",
                             lambda v: ObservationProfile(const=v)),
    "noise.amplitude": (lambda v: f"noise.amplitude={v}", lambda v: NoiseSpec(amplitude=v)),
    "truth.kind": (lambda v: f'truth={{"kind": {v}}}', lambda v: FieldSpec(kind=v)),
    "truth.coefficients": (lambda v: f'truth={{"coefficients": {v}}}',
                           lambda v: FieldSpec(coefficients=cli._from_json(v))),
    "truth.amplitude": (lambda v: f'truth={{"kind": "bump", "amplitude": {v}}}',
                        lambda v: FieldSpec(kind="bump", amplitude=cli._from_json(v))),
}

# JSON values, with small integers only: a cell count past 46340 is refused by
# the trace ceiling, which no type holds
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 2000) | st.floats() | st.text(max_size=3)
    | st.sampled_from([0.5, 0.9, 5, [1.0, [0.5, 0.25]], "sine", "bump"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner,
                                                                max_size=2),
    max_leaves=6)


@settings(max_examples=400, deadline=None)
@given(leaf=st.sampled_from(sorted(_TYPE_LEAVES)), value=_JSON)
def test_a_leaf_loads_exactly_when_its_type_builds(leaf, value):
    # one rule per leaf: the CLI used to take observation.constant=5, which
    # the profile refuses, and to refuse observation.smoothness=true, which it took
    override, build = _TYPE_LEAVES[leaf]
    raw = json.dumps(value)
    try:
        build(json.loads(raw))
        built = True
    except ValueError:
        built = False
    try:
        cli.load_config(None, [override(raw)])
        loaded = True
    except cli.ConfigError as exc:
        loaded = False
        # the order of the window's ends is one rule, named by its first leaf
        assert str(exc).startswith((f"{leaf} ", "observation.a must be less than b")), (
            leaf, str(exc))
    assert loaded == built, (leaf, value)


@pytest.mark.parametrize("override, message", [
    ("time.dt=5e-324",
     "time.dt must give a finite step count time.tau / time.dt, got 5e-324"),
    ("time.tau=1e308",
     "time.tau must give a finite step count time.tau / h (h = 0.015625), got 1e+308"),
], ids=["dt", "tau"])
def test_infinite_derived_step_count_rejected(tmp_path, capsys, override, message):
    # n_steps is left to be derived from tau / dt (or tau / h), which overflows
    out = tmp_path / "out"
    code, stdout, err = run_cli(["--set", override, "--set", f"output.directory={out}",
                                 "generate"], capsys)
    assert code == 2 and stdout == ""
    assert message in err
    assert not out.exists()


@pytest.mark.parametrize("override, message", [
    ("time.dt=1e-12", "time.dt must give a trace of at most 2147483648 values, "
     "(n_steps + 1) x 63 nodes, got 1e-12 (n_steps = 1000000000000)"),
    ("time.n_steps=34087042", "time.n_steps must give a trace of at most 2147483648 "
     "values, (n_steps + 1) x 63 nodes, got 34087042"),
    ("geometry.n_cells=46341", "geometry.n_cells must give a trace of at most 2147483648 "
     "values, (n_steps + 1) x 46340 nodes, got 46341 (n_steps = 46341)"),
], ids=["dt", "n_steps", "n_cells"])
def test_step_count_past_the_trace_ceiling_rejected(tmp_path, capsys, override, message):
    # each leaf passes its rule, but the (n_steps + 1) x n trace would not fit
    out = tmp_path / "out"
    code, stdout, err = run_cli(["--set", override, "--set", f"output.directory={out}",
                                 "generate"], capsys)
    assert code == 2 and stdout == ""
    assert message in err
    assert not out.exists()
    # one step or one cell fewer still fits
    assert cli.load_config(None, ["time.n_steps=34087041"])["time"]["n_steps"] == 34087041
    assert cli.load_config(None, ["geometry.n_cells=46340"])["time"]["n_steps"] == 46340


@pytest.mark.parametrize("overrides, message", [
    (["sweep.levels=[64, 100000]"], "sweep.levels must give a trace of at most 2147483648 "
     "values, (n_steps + 1) x 99999 nodes, got 100000 (n_steps = 100000)"),
    (["sweep.levels=[46341]"], "sweep.levels must give a trace of at most 2147483648 "
     "values, (n_steps + 1) x 46340 nodes, got 46341 (n_steps = 46341)"),
    (["sweep.kappa=1e-320"], "sweep.levels must give a finite step count, got 32"),
], ids=["100000", "46341", "kappa"])
def test_sweep_level_past_the_trace_ceiling_rejected(tmp_path, capsys, monkeypatch,
                                                     overrides, message):
    # the config loads, as geometry.n_cells is the only cell count it checks, but
    # the plan refuses the level before any work or output
    def no_work(*args, **kwargs):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(cli.harness, "run_cell", no_work)
    out = tmp_path / "out"
    args = [a for o in overrides for a in ("--set", o)]
    code, stdout, err = run_cli(args + ["--set", f"output.directory={out}", "sweep"], capsys)
    assert code == 2 and stdout == ""
    assert f"error: {message}" in err
    assert not out.exists()
    # one cell fewer still fits
    assert cli.build_plan(cli.load_config(None, ["sweep.levels=[46340]"])).levels == (46340,)


@pytest.mark.parametrize("override, window", [
    ("observation.a=-0.1", "observation.a must be greater than 0, got -0.1"),
    ("observation.b=1.0", "observation.b must be less than the length 1.0, got 1.0"),
    ("geometry.length=0.5", "observation.b must be less than the length 0.5, got 0.8"),
], ids=["a", "b", "length"])
def test_sweep_with_a_window_outside_the_domain_rejected(tmp_path, capsys, monkeypatch,
                                                         override, window):
    # the config refuses the window, naming the end that leaves the domain,
    # before any level runs; each of the sweep's rows used to fail, and the
    # sweep wrote them and exited 1
    def no_work(*args, **kwargs):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(cli.harness, "run_cell", no_work)
    out = tmp_path / "out"
    code, stdout, err = run_cli(["--set", override, "--set", "sweep.levels=[8,16]",
                                 "--set", f"output.directory={out}", "sweep"], capsys)
    assert code == 2 and stdout == ""
    assert f"error: {window}" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "estimate-eta", "sweep"])
def test_a_window_outside_the_domain_is_refused_at_load(tmp_path, capsys, command):
    # the config's window is checked as it loads, by the leaf: it used to load,
    # and each command failed later in a message that named no leaf
    with pytest.raises(cli.ConfigError, match="^observation.a must be greater than 0, got -0.1$"):
        cli.load_config(None, ["observation.a=-0.1"])
    out = tmp_path / "out"
    code, stdout, err = run_cli(["--set", "observation.a=-0.1", "--set",
                                 f"output.directory={out}", command], capsys)
    assert (code, stdout) == (2, "")
    assert err == "error: observation.a must be greater than 0, got -0.1\n"
    assert not out.exists()


@pytest.mark.parametrize("equation, tau", [("schrodinger", 1.0), ("schrodinger", 0.01),
                                           ("wave", 2.0), ("wave", 0.01)])
def test_config_and_sweep_level_share_the_step_rule(equation, tau):
    # dt = h both ways; a horizon shorter than a step still takes 1 (2 for the wave)
    cfg = cli.load_config(None, [f"equation={equation}", f"time.tau={tau}",
                                 "geometry.n_cells=24", "sweep.levels=[24]"])
    assert cli.build_plan(cfg).n_steps(24) == cfg["time"]["n_steps"]


@pytest.mark.parametrize("equation, rate", [("schrodinger", "lambda_max"),
                                            ("wave", "omega_max")])
def test_huge_tau_with_given_step_count_rejected_before_synthesis(tmp_path, capsys,
                                                                   equation, rate):
    # tau / n_steps is finite, so every config rule passes, but the largest
    # modal phase tau * lambda_max (tau * omega_max for the wave) overflows
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, stdout, err = run_cli(["--set", f"equation={equation}",
                                     "--set", "geometry.n_cells=16",
                                     "--set", "time.n_steps=12", "--set", "time.tau=1e308",
                                     "--set", f"output.directory={out}", "generate"], capsys)
    assert code == 2 and stdout == ""
    assert f"tau = 1e+308 is too large: the largest phase tau * {rate} overflows" in err
    assert caught == []
    assert not out.exists()


def test_dict_override_merges_into_its_section():
    cfg = cli.load_config(None, ['sweep.gates={"monotone": false}'])
    assert cfg["sweep"]["gates"] == {"slope_band": [0.8, None], "monotone": False}


def test_reconstruct_zero_truth_gives_zero_estimate(tmp_path, capsys):
    cfg = small_config(tmp_path, truth={"kind": "sine", "coefficients": [0.0]})
    trace_path = str(tmp_path / "zero.txt")
    run_cli(["--config", cfg, "generate", "--out", trace_path], capsys)
    code, _, _ = run_cli(["--config", cfg, "reconstruct", "--trace", trace_path], capsys)
    assert code == 0
    est_lines = (tmp_path / "out" / "estimate.txt").read_text().strip().split("\n")
    values = np.array([float(v) for v in est_lines[1].split(",")])
    assert np.all(values == 0.0)


def test_reconstruct_header_mismatch_reports_both_sides(tmp_path, capsys):
    cfg = small_config(tmp_path)
    trace_path = str(tmp_path / "t.txt")
    run_cli(["--config", cfg, "generate", "--out", trace_path], capsys)
    code, _, err = run_cli(["--config", cfg, "--set", "geometry.n_cells=24",
                            "--set", "time.n_steps=24",
                            "reconstruct", "--trace", trace_path], capsys)
    assert code == 2
    assert "24" in err and "12" in err


def test_reconstruct_observation_profile_mismatch_exit_code(tmp_path, capsys):
    # a trace observed through a = 0.1 used to be inverted with a = 0.2 and exit 0
    out = tmp_path / "out"
    trace_path = str(tmp_path / "t.txt")
    base = ["--set", "geometry.n_cells=32", "--set", f"output.directory={out}"]
    assert run_cli(base + ["--set", "observation.a=0.1", "generate",
                           "--out", trace_path], capsys)[0] == 0
    code, stdout, err = run_cli(base + ["reconstruct", "--trace", trace_path], capsys)
    assert code == 2 and stdout == ""
    assert "'profile': {'a': 0.2," in err and "'profile': {'a': 0.1," in err
    assert not out.exists()


def test_reconstruct_constant_profile_ignores_unused_window(tmp_path, capsys):
    # a constant weight never reads a and b, so they need not match
    trace_path = str(tmp_path / "t.txt")
    cfg = small_config(tmp_path, observation={"constant": 0.5})
    run_cli(["--config", cfg, "--set", "observation.a=0.1", "generate",
             "--out", trace_path], capsys)
    code, _, _ = run_cli(["--config", cfg, "reconstruct", "--trace", trace_path], capsys)
    assert code == 0
    code, _, err = run_cli(["--config", cfg, "--set", "observation.constant=0.25",
                            "reconstruct", "--trace", trace_path], capsys)
    assert code == 2
    assert "'constant': 0.25" in err and "'constant': 0.5" in err


def test_reconstruct_uncertified_contraction_exit_code(tmp_path, capsys, monkeypatch):
    cfg = small_config(tmp_path)
    trace_path = str(tmp_path / "t.txt")
    run_cli(["--config", cfg, "generate", "--out", trace_path], capsys)
    monkeypatch.setattr(BackAndForth, "estimate_eta",
                        lambda self, **kwargs: EtaEstimate(1.0, True, 2))
    code, _, err = run_cli(["--config", cfg, "reconstruct", "--trace", trace_path],
                           capsys)
    assert code == 2
    assert "contraction not certified: eta_hat = 1.0 is not in (0, 1)" in err
    assert not (tmp_path / "out" / "estimate.txt").exists()


def _generated_trace(tmp_path, capsys, cfg) -> tuple[bytes, np.ndarray]:
    """The header line and the samples of a freshly generated v2 trace."""
    trace_path = tmp_path / "generated.txt"
    run_cli(["--config", cfg, "generate", "--out", str(trace_path)], capsys)
    header_line = trace_path.read_bytes().split(b"\n", 1)[0]
    return header_line, read_trace(trace_path)[0].samples


def test_reconstruct_non_finite_trace_exit_code(tmp_path, capsys):
    cfg = small_config(tmp_path)
    header_line, samples = _generated_trace(tmp_path, capsys, cfg)
    samples[2, 0] = np.nan
    trace_path = tmp_path / "t.txt"
    with open(trace_path, "wb") as fh:
        fh.write(header_line + b"\n")
        np.save(fh, samples, allow_pickle=False)
    code, _, err = run_cli(["--config", cfg, "reconstruct", "--trace", str(trace_path)],
                           capsys)
    assert code == 2
    assert "finite" in err
    assert not (tmp_path / "out" / "estimate.txt").exists()


def test_reconstruct_header_value_of_wrong_kind_exit_code(tmp_path, capsys):
    cfg = small_config(tmp_path)
    header_line, samples = _generated_trace(tmp_path, capsys, cfg)
    header = json.loads(header_line)
    header["n_steps"] = str(header["n_steps"])
    trace_path = tmp_path / "t.txt"
    with open(trace_path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8") + b"\n")
        np.save(fh, samples, allow_pickle=False)
    code, stdout, err = run_cli(["--config", cfg, "reconstruct", "--trace", str(trace_path)],
                                capsys)
    assert code == 2 and stdout == ""
    assert "trace header n_steps must be 12, one less than the payload's rows, got '12'" in err
    assert not (tmp_path / "out" / "estimate.txt").exists()


def test_reconstruct_truncated_trace_exit_code(tmp_path, capsys):
    cfg = small_config(tmp_path)
    trace_path = tmp_path / "t.txt"
    run_cli(["--config", cfg, "generate", "--out", str(trace_path)], capsys)
    trace_path.write_bytes(trace_path.read_bytes()[:-8])
    code, stdout, err = run_cli(["--config", cfg, "reconstruct",
                                 "--trace", str(trace_path)], capsys)
    assert code == 2 and stdout == ""
    assert err.startswith("error: cannot read the trace payload")
    assert not (tmp_path / "out" / "estimate.txt").exists()


@pytest.mark.parametrize("key, value, message", [
    ("format", "bafobs-trace-1", "unrecognized trace format 'bafobs-trace-1'"),
    ("noise", None, "trace header noise must be an object with exactly the keys amplitude, "
     "seed, got None"),
    ("profile", None, "trace header profile must be an object with exactly the keys a, b, "
     "smoothness, constant, got None"),
    ("profile", [0.2, 0.8], "trace header profile must be an object with exactly the keys "
     "a, b, smoothness, constant, got [0.2, 0.8]"),
    ("n_cells", None, "trace header n_cells must be an integer >= 2, got None"),
    ("noise", {"amplitude": 0.0, "seed": "x"},
     "trace header noise.seed must be an integer >= 0, got 'x'"),
    ("noise", {"amplitude": 0.0, "seed": 7, "extra": 1}, "trace header noise must be an "
     "object with exactly the keys amplitude, seed, got {'amplitude': 0.0, 'seed': 7, "
     "'extra': 1}"),
], ids=["format-v1", "no-noise", "no-profile", "profile-list", "no-n_cells", "noise-seed-str",
        "noise-extra-key"])
def test_reconstruct_refuses_a_trace_without_the_fixed_header(tmp_path, capsys, key, value,
                                                              message):
    # one format, and every key of its header required: the profile check
    # cannot be skipped by leaving the profile out.  value None drops the key.
    cfg = small_config(tmp_path)
    header_line, samples = _generated_trace(tmp_path, capsys, cfg)
    header = json.loads(header_line)
    if value is None:
        del header[key]
    else:
        header[key] = value
    trace_path = tmp_path / "t.txt"
    with open(trace_path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8") + b"\n")
        np.save(fh, samples, allow_pickle=False)
    code, stdout, err = run_cli(["--config", cfg, "reconstruct", "--trace", str(trace_path)],
                                capsys)
    assert code == 2 and stdout == ""
    assert err == f"error: {message}\n"
    assert not (tmp_path / "out" / "estimate.txt").exists()


def test_reconstruct_refuses_a_wave_header_over_complex_samples(tmp_path, capsys):
    # a Schrodinger trace relabelled as a wave used to crash the wave's real
    # passes with a UFuncTypeError: a traceback and exit 1
    cfg = small_config(tmp_path, time={"n_steps": 12, "tau": 1.0})
    header_line, samples = _generated_trace(tmp_path, capsys, cfg)
    header = json.loads(header_line)
    header["equation"] = "wave"
    trace_path = tmp_path / "t.txt"
    with open(trace_path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8") + b"\n")
        np.save(fh, samples, allow_pickle=False)
    code, stdout, err = run_cli(["--config", cfg, "--set", "equation=wave",
                                 "reconstruct", "--trace", str(trace_path)], capsys)
    assert code == 2 and stdout == ""
    assert err == "error: trace samples must be real for the wave, got complex128\n"
    assert not (tmp_path / "out" / "estimate.txt").exists()


def _line_of(fn, call: str) -> int:
    """The line of fn's source that holds call, which must occur once."""
    lines, first = inspect.getsourcelines(fn)
    (offset,) = [i for i, line in enumerate(lines) if call in line]
    return first + offset


def test_warnings_name_the_line_that_asks(tmp_path, capsys, monkeypatch):
    # each warning points at the call of the estimator or the solve: the one
    # eta stage's and the one solve stage's, which a sweep level and the
    # reconstruct command share
    with pytest.warns(RuntimeWarning, match="at 8 cells did not converge") as caught:
        cli.harness.run_sweep(SweepPlan("schrodinger", (8,), 1.0, FieldSpec(),
                                        eta_max_iter=2, eta_tol=1e-12))
    (warning,) = caught
    assert (warning.filename, warning.lineno) == (
        cli.harness.__file__, _line_of(cli.harness.eta_stage, ".estimate_eta("))
    cfg = small_config(tmp_path)
    trace_path = str(tmp_path / "t.txt")
    run_cli(["--config", cfg, "generate", "--out", trace_path], capsys)
    with pytest.warns(RuntimeWarning, match="did not converge") as caught:
        run_cli(["--config", cfg, "--set", "eta.max_iter=2", "--set", "eta.tol=1e-12",
                 "reconstruct", "--trace", trace_path], capsys)
    (warning,) = caught
    assert (warning.filename, warning.lineno) == (
        cli.harness.__file__, _line_of(cli.harness.eta_stage, ".estimate_eta("))
    run_cli(["--config", cfg, *WAVE_32, "generate", "--out", trace_path], capsys)
    monkeypatch.setattr(observers, "AUTO_N_CAP", 1)
    with pytest.warns(RuntimeWarning, match="capping at 1") as caught:
        run_cli(["--config", cfg, *WAVE_32, "reconstruct", "--trace", trace_path], capsys)
    (warning,) = caught
    assert (warning.filename, warning.lineno) == (
        cli.harness.__file__, _line_of(cli.harness.solve_stage, ".neumann_reconstruct("))


def test_estimate_eta_cached_determinism(tmp_path, capsys):
    cfg = small_config(tmp_path)
    _, out1, _ = run_cli(["--config", cfg, "estimate-eta"], capsys)
    _, out2, _ = run_cli(["--config", cfg, "estimate-eta"], capsys)
    assert json.loads(out1)["eta_hat"] == json.loads(out2)["eta_hat"]


@pytest.mark.parametrize("equation, step_solves", [("schrodinger", 2 * 12), ("wave", 11)])
def test_estimate_eta_reports_its_solves(tmp_path, capsys, equation, step_solves):
    # one round trip per Schrodinger step, one pass per wave step
    cfg = small_config(tmp_path, equation=equation)
    code, stdout, _ = run_cli(["--config", cfg, "estimate-eta"], capsys)
    eta = json.loads(stdout)
    assert code == 0 and eta["converged"]
    assert eta["n_solves"] == step_solves * eta["iterations"]


@pytest.mark.parametrize("equation", ["schrodinger", "wave"])
def test_reported_solves_are_the_solves_run(tmp_path, capsys, monkeypatch, equation):
    # count every solve, as a wrapper of ShiftedSystem.solve sees them, while
    # each command runs
    calls = []
    solve = ShiftedSystem.solve

    def counting_solve(self, rhs):
        calls.append(1)
        return solve(self, rhs)

    args = ["--set", f"equation={equation}", "--set", "geometry.n_cells=16",
            "--set", f"output.directory={tmp_path}"]
    trace_path = str(tmp_path / "t.txt")
    assert run_cli(args + ["generate", "--out", trace_path], capsys)[0] == 0
    monkeypatch.setattr(ShiftedSystem, "solve", counting_solve)
    assert run_cli(args + ["reconstruct", "--trace", trace_path], capsys)[0] == 0
    diag = json.loads((tmp_path / "diagnostics.json").read_text())
    assert diag["n_solves"] == len(calls) > 0
    calls.clear()
    code, stdout, _ = run_cli(args + ["estimate-eta"], capsys)
    assert code == 0 and json.loads(stdout)["n_solves"] == len(calls) > 0


def test_estimate_eta_warns_when_it_runs_out_of_steps(tmp_path, capsys):
    # at 16 cells the default tolerance holds after 2 steps
    args = ["--set", "geometry.n_cells=16", "--set", "eta.max_iter=2",
            "--set", "eta.tol=1e-12", "estimate-eta"]
    with pytest.warns(RuntimeWarning, match=r"eta = \S+ at 16 cells did not converge in 2 steps"):
        code, stdout, _ = run_cli(args, capsys)
    assert code == 0
    assert json.loads(stdout)["converged"] is False


def test_eta_defaults_have_one_owner():
    # the estimator's defaults are the sweep plan's and the config's
    params = inspect.signature(BackAndForth.estimate_eta).parameters
    signature = {key: params[key].default for key in ("tol", "max_iter", "seed")}
    plan = SweepPlan("schrodinger", (8,), 1.0, FieldSpec())
    assert signature == cli.DEFAULTS["eta"] == {
        "tol": plan.eta_tol, "max_iter": plan.eta_max_iter, "seed": plan.eta_seed}
    arnoldi = inspect.signature(arnoldi_iteration).parameters
    assert (arnoldi["tol"].default, arnoldi["max_iter"].default) == (
        signature["tol"], signature["max_iter"])


def test_the_plan_and_the_config_share_each_rule_row():
    # one (check, text) per plan input: the config row of each plan row's
    # leaf holds the same check object and the same text, but time.tau's,
    # whose null resolves per equation; n_policy, 'auto' only, has no leaf
    rows = {row[0]: row for row in cli._LEAVES}
    plan_fields = {f.name for f in fields(SweepPlan)} - {"truth", "profile", "n_policy"}
    assert sorted(field for field, *_ in harness._PLAN_LEAVES) == sorted(plan_fields)
    for field, dotted, check, what in harness._PLAN_LEAVES:
        if dotted == "time.tau":
            assert rows[dotted][3] == f"null or {what}" and rows[dotted][2](None)
        else:
            assert rows[dotted][2] is check and rows[dotted][3] == what, field


def test_plan_defaults_are_the_configs():
    # nothing else keeps a SweepPlan default equal to its leaf's config default
    leaves = {field: dotted for field, dotted, _, _ in harness._PLAN_LEAVES}
    defaulted = {f.name: f.default for f in fields(SweepPlan) if f.name in leaves
                 and f.default is not MISSING}
    assert sorted(defaulted) == sorted(["theta", "refine", "length", "kappa",
                                        "noise_eps", "noise_seed", "eta_tol",
                                        "eta_max_iter", "eta_seed"])
    for field, default in defaulted.items():
        config = functools.reduce(dict.__getitem__, leaves[field].split("."), cli.DEFAULTS)
        config = tuple(config) if isinstance(config, list) else config
        assert (type(default), default) == (type(config), config), field


def test_defaults_are_the_rows_nested_in_order():
    # the resolved config is embedded unsorted in trace headers,
    # diagnostics.json and summary.json, so key order is part of the format
    expected = {
        "equation": "schrodinger",
        "theta": 1.0,
        "refine": 2,
        "geometry": {"length": 1.0, "n_cells": 64},
        "observation": {"a": 0.2, "b": 0.8, "smoothness": 2, "constant": None},
        "time": {"tau": None, "n_steps": None, "dt": None},
        "truth": None,
        "noise": {"amplitude": 0.0, "seed": 7},
        "eta": {"tol": 1e-6, "max_iter": 80, "seed": 11},
        "sweep": {
            "levels": [32, 64, 128, 256],
            "kappa": 1.0,
            "noise_eps": [0.0],
            "fit_model": "power-log2",
            "gates": {"slope_band": [0.8, None], "monotone": True},
        },
        "output": {"directory": "."},
    }
    assert cli.DEFAULTS == expected
    # json.dumps keeps key order and tells 1 from 1.0
    assert json.dumps(cli.DEFAULTS) == json.dumps(expected)
    for dotted, default, check, what in cli._LEAVES:
        assert check is None or check(default), (dotted, default, what)
    # the leaves a library type checks as resolve_config builds it
    assert [row[0] for row in cli._LEAVES if row[2] is None] == [
        "geometry.n_cells", "observation.a", "observation.b", "observation.smoothness",
        "observation.constant", "truth", "noise.amplitude"]


def test_readme_rule_table_names_every_checked_leaf():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| leaf | rule |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    named = [leaf for line in table.splitlines()
             for leaf in re.findall(r"`([^`]+)`", line.split("|")[1])]
    assert sorted(named) == sorted(row[0] for row in cli._LEAVES if row[0] != "truth")


def test_huge_eta_step_budget_gives_the_default_estimate(tmp_path, capsys):
    # the Arnoldi storage follows the steps taken, not the budget: 10^6 steps
    # used to ask for a 14.6 TiB Hessenberg up front
    args = ["--set", "geometry.n_cells=16", "--set", f"output.directory={tmp_path}"]
    code, default, _ = run_cli(args + ["estimate-eta"], capsys)
    huge_code, huge, _ = run_cli(args + ["--set", "eta.max_iter=1000000", "estimate-eta"],
                                 capsys)
    assert code == huge_code == 0
    assert json.loads(default)["converged"]
    assert json.loads(huge) == json.loads(default)


def test_sweep_outputs_and_exit_codes(tmp_path, capsys):
    # the x ln^2 x regressor is non-monotone at toy mesh sizes, so the toy
    # gate uses the pure-power model
    cfg = small_config(tmp_path, sweep={
        "levels": [8, 16, 24],
        "fit_model": "pure-power",
        "gates": {"slope_band": [0.0, 3.0], "monotone": True},
    })
    code, stdout, _ = run_cli(["--config", cfg, "sweep"], capsys)
    assert code == 0
    meta = json.loads(stdout)
    assert all(meta["gates"].values())
    csv_lines = (tmp_path / "out" / "sweep.csv").read_text().strip().split("\n")
    assert csv_lines[0].startswith("# config:")
    assert csv_lines[1] == ("equation,h,dt,n_used,eta_hat,noise_eps,"
                            "error_x,fit_model,wall_ms")
    assert len(csv_lines) == 5
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["all_gates_pass"]
    assert summary["fit"]["model"] == "pure-power"
    assert summary["config"]["sweep"]["levels"] == [8, 16, 24]
    assert summary["solver_kernel"] in ("openblas-gttrs", "thomas")
    # one local slope per consecutive pair of levels, in the JSON only
    assert len(summary["local_slopes"]) == 2
    assert all(r["eta_converged"] is True and r["eta_iterations"] >= 1
               for r in summary["rows"])
    stages = ("gen_ms", "eta_ms", "neumann_ms", "error_ms")
    for r in summary["rows"]:
        assert r["n_capped"] is False
        assert 0 < r["ritz_max"] and 0 < r["residual"] <= r["eta_hat"] * (r["h"] + r["dt"])
        assert r["n_solves"] > 0
        assert all(r[s] > 0 for s in stages)
        assert sum(r[s] for s in stages) <= r["wall_ms"]
    # one warning per level whose eta ran out of steps; the CSV is unchanged.
    # These toy levels' spectra fall off so fast that two steps can meet a
    # 1e-12 tolerance (at 24 cells the Ritz residual is near 1e-12 and
    # below it for some seeds), hence a tolerance at the rounding level
    with pytest.warns(RuntimeWarning) as caught:
        code, _, _ = run_cli(["--config", cfg, "--set", "eta.max_iter=2",
                              "--set", "eta.tol=1e-15",
                              "--set", "sweep.noise_eps=[0.0, 0.001]", "sweep"], capsys)
    assert code == 0
    messages = [str(w.message) for w in caught]
    for n_cells in (8, 16, 24):
        assert sum(f"at {n_cells} cells did not converge in 2 steps" in m
                   for m in messages) == 1
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert all(r["eta_converged"] is False and r["eta_iterations"] == 2
               for r in summary["rows"])
    # a level's shared stages are charged to its first row only
    first, second = summary["rows"][0::2], summary["rows"][1::2]
    assert all(r["gen_ms"] > 0 and r["eta_ms"] > 0 for r in first)
    assert all(r["gen_ms"] == 0 and r["eta_ms"] == 0 for r in second)
    assert all(r["neumann_ms"] > 0 and r["error_ms"] > 0 for r in first + second)
    csv_lines = (tmp_path / "out" / "sweep.csv").read_text().strip().split("\n")
    assert csv_lines[1] == cli.harness.CSV_HEADER


def test_time_refined_config_resolves_to_its_plan():
    # the committed kappa = 1/32 report plan (CI runs it): dt = h/32 at every
    # level, so 512 to 8192 steps over tau = 1
    path = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                        "schrodinger-time-refined.json")
    plan = cli.build_plan(cli.load_config(path))
    assert (plan.equation, plan.levels, plan.kappa, plan.tau) == (
        "schrodinger", (16, 32, 64, 128, 256), 0.03125, 1.0)
    assert [plan.n_steps(n) for n in plan.levels] == [512, 1024, 2048, 4096, 8192]


def test_sweep_noisy_rows_carry_a_noise_gain_that_bounds_them(tmp_path, capsys):
    cfg = small_config(tmp_path, sweep={"levels": [8, 16, 24],
                                        "noise_eps": [0.0, 0.001, 0.01]})
    code, _, _ = run_cli(["--config", cfg, "sweep"], capsys)
    assert code in (0, 1)
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    clean = {r["n_cells"]: r for r in summary["rows"] if r["noise_eps"] == 0.0}
    for row in summary["rows"]:
        assert row["failure"] is None
        if row["noise_eps"] == 0.0:
            assert row["noise_gain"] is None
        else:
            assert math.isfinite(row["noise_gain"])
            assert abs(row["error_x"] - clean[row["n_cells"]]["error_x"]) <= \
                row["noise_eps"] * row["noise_gain"] * (1 + 1e-9)
    assert [t["noise_gain"] is None for t in summary["noise_table"]] == [True, False, False] * 3
    csv_lines = (tmp_path / "out" / "sweep.csv").read_text().split("\n")
    assert csv_lines[1] == cli.harness.CSV_HEADER


def test_sweep_default_band_passes_slope_above_estimate(tmp_path, capsys):
    # the error estimate is an upper bound: faster decay passes by default
    cfg = write_config(tmp_path, {
        "equation": "wave",
        "output": {"directory": str(tmp_path / "out")},
        "sweep": {"levels": [16, 32, 64]},
    })
    code, stdout, _ = run_cli(["--config", cfg, "sweep"], capsys)
    assert code == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["config"]["sweep"]["gates"]["slope_band"] == [0.8, None]
    assert summary["fit"]["slope"] > 1.15
    assert json.loads(stdout)["gates"]["slope_in_band"]


def test_sweep_failing_gate_nonzero_exit(tmp_path, capsys):
    cfg = small_config(tmp_path, sweep={
        "levels": [8, 16, 24],
        "fit_model": "pure-power",
        "gates": {"slope_band": [2.9, 3.0], "monotone": True},
    })
    code, stdout, _ = run_cli(["--config", cfg, "sweep"], capsys)
    assert code == 1
    assert not json.loads(stdout)["gates"]["slope_in_band"]


def test_sweep_failing_cell_nonzero_exit_other_rows_intact(tmp_path, capsys,
                                                          monkeypatch):
    # the config checks keep bad levels out, so the coarsest level fails inside
    # its cell instead
    generate = cli.harness.generate_observation

    def fail_coarsest(instance, **kwargs):
        if instance.mesh.n_cells == 6:
            raise RuntimeError("generation failed")
        return generate(instance, **kwargs)

    monkeypatch.setattr(cli.harness, "generate_observation", fail_coarsest)
    cfg = small_config(tmp_path, sweep={
        "levels": [6, 8, 16, 24],
        "fit_model": "pure-power",
        "gates": {"slope_band": [0.0, 3.0], "monotone": True},
    })
    code, stdout, _ = run_cli(["--config", cfg, "sweep"], capsys)
    assert code == 1
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert not summary["gates"]["no_cell_failures"]
    rows = summary["rows"]
    assert rows[0]["failure"] == "RuntimeError: generation failed"
    assert all(r["failure"] is None for r in rows[1:])


def test_sweep_summary_is_strict_json(tmp_path, capsys, monkeypatch):
    # an eps = 0 noise_table row has no ratio, a failed row no error_x or
    # eta_hat: summary.json writes each as null, not as the bare token NaN
    def refuse(token):
        raise AssertionError(f"summary.json holds {token}")

    def summary():
        path = tmp_path / "out" / "summary.json"
        return json.loads(path.read_text(encoding="utf-8"), parse_constant=refuse)

    cfg = small_config(tmp_path, sweep={"levels": [8, 12, 16], "noise_eps": [0.0, 1e-3]})
    run_cli(["--config", cfg, "sweep"], capsys)
    table = summary()["noise_table"]
    assert [t["ratio"] for t in table if t["noise_eps"] == 0.0] == [None, None, None]
    assert all(math.isfinite(t["ratio"]) for t in table if t["noise_eps"] > 0.0)
    generate = cli.harness.generate_observation

    def fail_coarsest(instance, **kwargs):
        if instance.mesh.n_cells == 8:
            raise RuntimeError("generation failed")
        return generate(instance, **kwargs)

    monkeypatch.setattr(cli.harness, "generate_observation", fail_coarsest)
    code, _, _ = run_cli(["--config", cfg, "sweep"], capsys)
    assert code == 1
    failed = summary()["rows"][:2]
    assert [r["failure"] for r in failed] == ["RuntimeError: generation failed"] * 2
    assert all(r["error_x"] is None and r["eta_hat"] is None for r in failed)


def test_wave_config_defaults(tmp_path, capsys):
    cfg = small_config(tmp_path, equation="wave")
    out = str(tmp_path / "w.txt")
    code, stdout, _ = run_cli(["--config", cfg, "generate", "--out", out], capsys)
    assert code == 0
    _, header = read_trace(out)
    assert header["equation"] == "wave"
    assert header["tau"] == 2.0
    assert header["config"]["truth"]["position"]["coefficients"] == [1.0]


def test_wave_reconstruct_estimate_two_rows(tmp_path, capsys):
    cfg = small_config(tmp_path, equation="wave")
    trace_path = str(tmp_path / "wt.txt")
    run_cli(["--config", cfg, "generate", "--out", trace_path], capsys)
    code, _, _ = run_cli(["--config", cfg, "reconstruct",
                          "--trace", trace_path], capsys)
    assert code == 0
    est_lines = (tmp_path / "out" / "estimate.txt").read_text().strip().split("\n")
    header = json.loads(est_lines[0])
    assert not header["complex"] and len(est_lines) == 3
    pos = np.array([float(v) for v in est_lines[1].split(",")])
    vel = np.array([float(v) for v in est_lines[2].split(",")])
    assert pos.size == 11 and vel.size == 11
    diag = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
    assert diag["error_x"] > 0
    # a wave eta step is one pass of the half trip, 11 solves after the
    # explicit first step; a round trip is two
    assert diag["n_solves"] == 11 * diag["eta_iterations"] + 2 * 11 * (diag["n_used"] + 1)


def test_complex_truth_coefficients(tmp_path, capsys):
    cfg = small_config(tmp_path,
                       truth={"kind": "sine", "coefficients": [[0.0, 1.0]]})
    out = str(tmp_path / "cx.txt")
    code, _, _ = run_cli(["--config", cfg, "generate", "--out", out], capsys)
    assert code == 0
    trace, _ = read_trace(out)
    x = np.arange(1, 12) / 12
    expected = 1j * np.sin(np.pi * x) * ObservationProfile().weight(x)
    assert np.max(np.abs(trace.samples[0] - expected)) < 1e-10


def test_complex_pair_with_a_zero_imaginary_part(tmp_path, capsys):
    # [2, 0] is the complex 2+0j; it used to end in a numpy casting error
    traces = []
    for name, coefficients in (("pair", [[2.0, 0.0]]), ("real", [2.0])):
        out = str(tmp_path / f"{name}.txt")
        cfg = small_config(tmp_path, truth={"coefficients": coefficients})
        code, _, _ = run_cli(["--config", cfg, "generate", "--out", out], capsys)
        assert code == 0
        traces.append(read_trace(out)[0].samples)
    assert np.array_equal(traces[0], traces[1])


# every leaf here is copied through resolution unchanged
_OVERRIDABLE = {
    "equation": st.sampled_from(["schrodinger", "wave"]),
    "theta": st.floats(0.1, 2.0),
    "refine": st.integers(1, 8),
    # past the default b, so that the window lies inside the domain
    "geometry.length": st.floats(0.8, 10.0, exclude_min=True),
    "geometry.n_cells": st.integers(2, 4096),
    "observation.a": st.floats(0.0, 0.8, exclude_min=True, exclude_max=True),  # in (0, b)
    "observation.smoothness": st.integers(1, 3),
    "observation.constant": st.one_of(st.none(), st.floats(0.0, 1.0)),
    "time.tau": st.floats(0.01, 10.0),
    "noise.amplitude": st.floats(0.0, 1.0),
    "noise.seed": st.integers(0, 2**63 - 1),
    "eta.tol": st.floats(1e-15, 0.5),
    "eta.max_iter": st.integers(2, 10_000),
    "eta.seed": st.integers(0, 2**63 - 1),
    "sweep.levels": st.lists(st.integers(2, 8192), min_size=1, max_size=6),
    "sweep.kappa": st.floats(0.01, 100.0),
    "sweep.noise_eps": st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5),
    "sweep.fit_model": st.sampled_from(["power-log2", "pure-power"]),
    "sweep.gates.slope_band": st.floats(-5.0, 5.0).flatmap(
        lambda low: st.tuples(st.just(low), st.one_of(st.none(), st.floats(low, 5.0)))
    ).map(list),
    "sweep.gates.monotone": st.booleans(),
    "output.directory": st.text(),
}


def _leaf(cfg, dotted):
    for part in dotted.split("."):
        cfg = cfg[part]
    return cfg


@settings(max_examples=200, deadline=None)
@given(chosen=st.fixed_dictionaries({}, optional=_OVERRIDABLE))
def test_overrides_round_trip_through_resolved_config(chosen):
    overrides = [f"{path}={json.dumps(value)}" for path, value in chosen.items()]
    cfg = cli.load_config(None, overrides)
    for path in _OVERRIDABLE:
        if path in chosen:
            assert _leaf(cfg, path) == chosen[path], path
        elif path != "time.tau":   # the default tau is filled in per equation
            assert _leaf(cfg, path) == _leaf(cli.DEFAULTS, path), path


# -- what a command loads -------------------------------------------------------

# extension modules a run has no use for: NumPy's generators, which nothing
# draws from (the noise is the package's own stream), and OpenSSL's
# libcrypto, which only generate's sha256 needs
FOOTPRINT = ("numpy.random", "_hashlib")

# in a fresh interpreter: cli_main runs bafobs.cli.main at 16 cells, quietly
_PRELUDE = """\
import contextlib, io, json, sys
from bafobs import cli, harness
def cli_main(*args):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["--set", "geometry.n_cells=16", *args]) == 0
"""


def _loaded_after(code: str, cwd, prelude: str = _PRELUDE) -> set:
    """The FOOTPRINT modules in sys.modules once ``code`` has run after ``prelude``."""
    report = f"\nprint(json.dumps([m for m in {FOOTPRINT!r} if m in sys.modules]))"
    done = subprocess.run([sys.executable, "-c", prelude + code + report], cwd=cwd,
                          env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
                          capture_output=True, text=True, check=True)
    return set(json.loads(done.stdout.splitlines()[-1]))


def test_no_run_loads_numpy_random_and_only_generate_loads_libcrypto(tmp_path):
    # the noise draws are the package's own, so a noisy run loads what a
    # clean one does: numpy.random, which seeds through secrets, whose hmac
    # loads _hashlib, never.  numpy 1.x imports numpy.random with numpy
    # itself: what a bare import of numpy loads cannot show here
    ignored = _loaded_after("import numpy", tmp_path, prelude="import json, sys\n")
    cases = [
        ("cli_main('--set', 'output.directory=clean', 'generate')", {"_hashlib"}),
        ("for eq in ('schrodinger', 'wave'):\n"
         "    harness.run_sweep(cli.build_plan(cli.load_config(\n"
         "        None, [f'equation={eq}', 'sweep.levels=[8,16]'])))\n"
         "cli_main('--set', 'output.directory=clean', 'reconstruct',\n"
         "         '--trace', 'clean/trace.txt')\n"
         "cli_main('estimate-eta')", set()),
        ("harness.run_sweep(cli.build_plan(cli.load_config(\n"
         "    None, ['sweep.levels=[8]', 'sweep.noise_eps=[0.0,0.001]'])))", set()),
        ("cli_main('--set', 'noise.amplitude=0.001', '--set', 'output.directory=noisy',\n"
         "         'generate')", {"_hashlib"}),
        ("cli_main('--set', 'output.directory=noisy', 'reconstruct',\n"
         "         '--trace', 'noisy/trace.txt')", set()),
    ]
    for code, expected in cases:      # in order: each reconstruct reads the generate before it
        assert _loaded_after(code, tmp_path) - ignored == expected - ignored, code
