"""Convergence sweeps, error evaluation and rate fitting.

The sweep couples the time step to the mesh (dt = kappa * h by default) so a
single refinement study exposes the combined first-order behaviour; errors
are measured against the closed-form truth by fine quadrature, so they
include the projection floor of the element space.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, asdict

import numpy as np

from .fem import (EQUATION_RULE, FemOperators, FieldSpec, Mesh1D, ObservationProfile,
                  _is_equation, _is_int, _is_number, _is_positive, _is_seed, assemble,
                  check_equation, check_window, grad_load_vector, load_vector)
from .models import (REFINE_RULE, ProblemInstance, _is_refine, _unit_noise_in_place, check_truth,
                     generate_observation)
from .observers import (_ETA_DEFAULTS, BackAndForth, EtaEstimate, ReconstructionResult,
                        WaveState, choose_truncation)

CSV_HEADER = "equation,h,dt,n_used,eta_hat,noise_eps,error_x,fit_model,wall_ms"

# Largest trace, (n_steps + 1) x interior nodes values, a run may ask for:
# 34 GB as complex samples, up to a 46340-cell level with dt = h.  Past it a
# step count is a typo, and the run would fail on memory after a long start.
MAX_TRACE_VALUES = 2**31


# -- error evaluation in the analysis norms ------------------------------------


def _gram_sq(gram, coeffs: np.ndarray) -> float:
    return float(np.real(np.vdot(coeffs, gram.matvec(coeffs))))


def _distance(sq_norm: float, loads: np.ndarray, gram, coeffs: np.ndarray) -> float:
    """Distance of f to the element function u, from |f|^2, (f, phi_i) and the Gram."""
    cross = 2.0 * float(np.real(np.vdot(coeffs, loads)))
    return math.sqrt(max(sq_norm - cross + _gram_sq(gram, coeffs), 0.0))


def _gram_fields(equation: str, estimate, ops: FemOperators) -> list[tuple[object, np.ndarray]]:
    """The (Gram, coefficients) pair of each field of an estimate, checked:
    (M, u) for Schrodinger, u of shape (n,); (K, pos) and (M, vel) for the
    wave, a WaveState of (n,) arrays."""
    check_equation(equation)
    if equation == "schrodinger":
        u = np.asarray(estimate)
        if u.shape != (ops.n,):
            raise ValueError(f"estimate has shape {u.shape}, expected ({ops.n},)")
        return [(ops.mass, u)]
    if not (isinstance(estimate, WaveState)
            and estimate.pos.shape == estimate.vel.shape == (ops.n,)):
        raise ValueError(f"a wave estimate must be a WaveState of ({ops.n},) arrays")
    return [(ops.stiffness, estimate.pos), (ops.mass, estimate.vel)]


def reconstruction_error(equation: str, truth, estimate, ops: FemOperators) -> float:
    """Reconstruction error in the norms the convergence analysis uses.

    Schrodinger: L2 distance between the closed-form truth and the element
    function; wave: H^1_0 distance of the positions plus L2 distance of the
    velocities.  The truth side is integrated with the fine quadrature rule,
    not replaced by a projected surrogate, so the projection floor of the
    element space is part of the reported error.
    """
    fields = _gram_fields(equation, estimate, ops)
    mesh = ops.mesh
    pts, wts = mesh.quadrature_points(order8=True)
    # each field's truth f, with the loads (f, phi_i) of its norm
    if equation == "wave":
        w0, w1 = truth
        sides = [(w0.derivative, grad_load_vector), (w1.value, load_vector)]
    else:
        sides = [(truth.value, load_vector)]
    return sum(_distance(float(np.sum(wts * np.abs(f(pts)) ** 2)), loads(mesh, f, True),
                         gram, coeffs)
               for (f, loads), (gram, coeffs) in zip(sides, fields))


def error_norm(equation: str, estimate, ops: FemOperators) -> float:
    """Size of an element function in the norm ``reconstruction_error``
    measures: |u|_M for Schrodinger, |pos|_K + |vel|_M for the wave.  By the
    triangle inequality two estimates' errors differ by at most the
    error_norm of their difference."""
    return sum(math.sqrt(max(_gram_sq(gram, coeffs), 0.0))
               for gram, coeffs in _gram_fields(equation, estimate, ops))


# -- sweeps -------------------------------------------------------------------


def step_count(equation: str, n_cells: int, steps: float, leaf: str, value) -> int:
    """The step count of ``steps`` (tau over the step length, or a given
    count): rounded, and at least 2 for the wave's two-step scheme, 1
    otherwise.  An infinite count, or one whose (n_steps + 1) x (n_cells - 1)
    trace would pass MAX_TRACE_VALUES, raises a ValueError that names the
    ``leaf`` and its ``value``."""
    if not math.isfinite(steps):
        raise ValueError(f"{leaf} must give a finite step count, got {value!r}")
    k = max(round(steps), 2 if equation == "wave" else 1)
    if (k + 1) * (n_cells - 1) > MAX_TRACE_VALUES:
        raise ValueError(f"{leaf} must give a trace of at most {MAX_TRACE_VALUES} values, "
                         f"(n_steps + 1) x {n_cells - 1} nodes, got {value!r} "
                         f"(n_steps = {k})")
    return k


# one row per SweepPlan field the config sets: (field, its config leaf, check,
# what it must be).  SweepPlan checks by them, cli.build_plan reads each field
# from its leaf, and cli._LEAVES takes their checks and texts (not time.tau's).
_PLAN_LEAVES = (
    ("equation", "equation", _is_equation, EQUATION_RULE),
    ("theta", "theta", _is_positive, "a positive number"),
    ("refine", "refine", _is_refine, REFINE_RULE),
    ("length", "geometry.length", _is_positive, "a positive number"),
    ("tau", "time.tau", _is_positive, "a positive number"),
    ("noise_seed", "noise.seed", _is_seed, "an integer >= 0"),
    ("eta_tol", "eta.tol", lambda v: _is_number(v) and 0 < v < 1, "a number in (0, 1)"),
    ("eta_max_iter", "eta.max_iter", lambda v: _is_int(v) and v >= 2, "an integer >= 2"),
    ("eta_seed", "eta.seed", _is_seed, "an integer >= 0"),
    ("levels", "sweep.levels", lambda v: isinstance(v, (list, tuple)) and len(v) > 0
     and all(_is_int(n) and n >= 2 for n in v), "a non-empty list of integers >= 2"),
    ("kappa", "sweep.kappa", _is_positive, "a positive number"),
    ("noise_eps", "sweep.noise_eps", lambda v: isinstance(v, (list, tuple)) and len(v) > 0
     and all(_is_number(e) and e >= 0 for e in v), "a non-empty list of numbers >= 0"),
)


@dataclass(frozen=True)
class SweepPlan:
    """Refinement study over n_cells levels with dt = kappa * h.  Built, it
    checks each field by its _PLAN_LEAVES row ("kappa must be a positive
    number, got inf"), then its window, truth and step counts, and it makes
    levels and noise_eps tuples."""

    equation: str
    levels: tuple[int, ...]
    tau: float
    truth: FieldSpec | tuple[FieldSpec, FieldSpec]
    profile: ObservationProfile = ObservationProfile()
    kappa: float = 1.0
    length: float = 1.0
    theta: float = 1.0
    refine: int = 2
    noise_eps: tuple[float, ...] = (0.0,)
    noise_seed: int = 7
    # read by nothing; kept, 'auto' only, for perfbench/workloads.py, which
    # passes it, until ROADMAP item 1 drops that argument and this field
    n_policy: str = "auto"
    eta_tol: float = _ETA_DEFAULTS["tol"]
    eta_max_iter: int = _ETA_DEFAULTS["max_iter"]
    eta_seed: int = _ETA_DEFAULTS["seed"]

    def __post_init__(self):
        for name, _, check, what in _PLAN_LEAVES:
            value = getattr(self, name)
            if not check(value):
                raise ValueError(f"{name} must be {what}, got {value!r}")
        if self.n_policy != "auto":
            raise ValueError(f"n_policy must be 'auto', got {self.n_policy!r}")
        for name in ("levels", "noise_eps"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        check_window(self.profile, self.length)
        check_truth(self.equation, self.truth, self.length)
        for n_cells in self.levels:
            self.n_steps(n_cells)

    def n_steps(self, n_cells: int) -> int:
        """Step count of a level, dt = kappa * h rounded by ``step_count``."""
        step = self.kappa * (self.length / n_cells)
        return step_count(self.equation, n_cells, self.tau / step if step > 0 else math.inf,
                          "sweep.levels", n_cells)


@dataclass
class SweepRow:
    """One (level, noise) cell of a sweep."""

    equation: str
    n_cells: int
    h: float
    dt: float
    n_used: int
    eta_hat: float
    noise_eps: float
    error_x: float
    wall_ms: float
    failure: str | None = None
    eta_converged: bool | None = None
    eta_iterations: int = 0
    # stage wall times; the level's shared stages go to its first row
    gen_ms: float = 0.0
    eta_ms: float = 0.0
    neumann_ms: float = 0.0
    error_ms: float = 0.0
    n_capped: bool = False
    # tridiagonal solves of the reconstructions and the eta estimate charged to the row
    n_solves: int = 0
    # a noisy row's bound on |error_x - clean error_x| per unit noise_eps
    noise_gain: float | None = None
    # the level's eta estimate started from the previous level's Ritz vector
    eta_warm: bool = False
    # the paper's Neumann truncation N at eta_hat (``choose_truncation``),
    # which n_used should not pass; None without an eta_hat in (0, 1)
    n_neumann: int | None = None
    # of the (clean) solve: its final relative residual and its largest
    # Ritz value modulus, which eta_hat should bound
    residual: float | None = None
    ritz_max: float | None = None
    # the clean solve's share |(z, y)_X| / (||z||_X ||y||_X) of z along the
    # deflated Ritz vector y of the eta estimate; None when it deflated no pair
    deflated: float | None = None


def build_engine(equation: str, n_cells: int, length: float,
                 profile: ObservationProfile, dt: float, n_steps: int) -> BackAndForth:
    """The observer pair of one discretization: mesh, operators and stepper."""
    ops = assemble(Mesh1D(n_cells=n_cells, length=length), profile)
    return BackAndForth(equation, ops, dt, n_steps)


def eta_stage(engine: BackAndForth, *, warm=None, **settings) -> tuple[EtaEstimate, dict]:
    """The eta estimate of a reconstruction, timed: (eta, its cost as
    ``charge`` keywords, its solves and eta_ms).  ``settings`` and ``warm``
    go to ``BackAndForth.estimate_eta``."""
    start = time.perf_counter()
    eta = engine.estimate_eta(warm=warm, **settings)
    return eta, {"solves": engine.eta_step_solves * eta.iterations,
                 "eta_ms": 1e3 * (time.perf_counter() - start)}


def solve_stage(engine: BackAndForth, trace, eta: EtaEstimate, *, theta: float,
                polynomial=None) -> tuple[ReconstructionResult, dict]:
    """The solve of a trace, deflating the eta estimate's Ritz pair, or the
    replay of another solve's ``polynomial`` on it, timed: (result, its cost
    as ``charge`` keywords, its round trips' solves and neumann_ms)."""
    start = time.perf_counter()
    result = engine.neumann_reconstruct(trace, eta, theta=theta, polynomial=polynomial)
    return result, {"solves": engine.round_trip_solves * (result.n_used + 1),
                    "neumann_ms": 1e3 * (time.perf_counter() - start)}


def fill_row(engine: BackAndForth, result, estimate, eta: EtaEstimate, *, truth,
             noise_eps: float, theta: float) -> SweepRow:
    """The row of ``estimate``, reconstructed as ``result`` was: its error
    against the truth, timed (nan without a truth).  It carries no solves
    and no stage time until ``charge`` adds the stages' costs."""
    err, error_ms = float("nan"), 0.0
    if truth is not None:
        start = time.perf_counter()
        err = reconstruction_error(engine.equation, truth, estimate, engine.ops)
        error_ms = 1e3 * (time.perf_counter() - start)
    mesh = engine.ops.mesh
    n_neumann = (choose_truncation(h=mesh.h, dt=engine.dt, theta=theta, eta_hat=eta.value)
                 if 0.0 < eta.value < 1.0 else None)
    return SweepRow(engine.equation, mesh.n_cells, mesh.h, engine.dt, result.n_used, eta.value,
                    noise_eps, err, error_ms, eta_converged=eta.converged,
                    eta_iterations=eta.iterations, error_ms=error_ms,
                    n_capped=result.n_capped, n_neumann=n_neumann,
                    residual=result.residual, ritz_max=result.ritz_max,
                    deflated=result.deflated)


def charge(row: SweepRow, *, solves: int = 0, neumann_ms: float = 0.0,
           eta_ms: float = 0.0, gen_ms: float = 0.0) -> SweepRow:
    """Add the cost of a stage run for the row to it, as a stage returns it:
    tridiagonal solves, and stage times that also go into its wall_ms."""
    row.n_solves += solves
    row.neumann_ms += neumann_ms
    row.eta_ms += eta_ms
    row.gen_ms += gen_ms
    row.wall_ms += neumann_ms + eta_ms + gen_ms
    return row


@dataclass
class WarmStart:
    """What a sweep hands from one level to the next: the state the next
    level's eta estimate starts from, or None for a cold start."""

    state: object = None


def run_cell(plan: SweepPlan, n_cells: int,
             carry: WarmStart | None = None) -> list[SweepRow]:
    """Run one mesh level: one row per ``plan.noise_eps``, in order.

    The discretization, the clean trace and the contraction estimate do not
    depend on the noise, so they are built once per level.  Every noise
    level draws the same stream, so its trace is clean + eps * u up to
    rounding, u the unit draw of ``unit_noise``.  A level therefore runs
    one solve and at most one replay: the solve of the clean trace,
    S(clean), with the shared stages, and the replay of its map S (a
    polynomial in L, beside the least-residual first guess c y along the
    deflated Ritz vector y) on u's first iterate, S(u), at the first row
    with eps > 0.  The replay is linear in the trace, so row eps is
    S(clean) + eps * S(u), the one linear map S of its noisy trace; it is
    exactly S(clean) for eps = 0; a noisy row's noise_gain is ``error_norm`` of S(u).

    A level holds one trace: u is drawn into the clean trace's buffer, which
    nothing reads once S(clean) is solved, so the level's memory peaks in
    generation (1.38x the trace's bytes for Schrodinger at 512 cells, 1.30x
    for the wave; a test holds both under 1.45x).

    Failures are recorded, not raised: a failure in generation, eta or
    S(clean), which every row shares, marks every row of the level; one in
    S(u) marks the noisy rows.  Each row is charged the stages that finished
    since the row before, the first row the shared ones, failed or not, so
    the rows' wall_ms sum to the level's time and their n_solves to its
    solves.

    ``carry`` hands eta's start along a sweep: the level starts warm from
    its state (see ``BackAndForth.estimate_eta``) and leaves there its
    converged estimate's dominant Ritz vector, or None when the estimate
    did not converge or did not run, so that the next level starts cold.
    """
    mark = time.perf_counter()
    carry = WarmStart() if carry is None else carry
    warm, carry.state = carry.state, None
    h = plan.length / n_cells
    k = plan.n_steps(n_cells)
    dt = plan.tau / k
    rows, pending = [], []      # pending: the costs of finished stages no row carries yet
    failure = unit = None       # what a shared stage raised; S(u), or what it raised
    # cell isolation: the sweep must go on, so any failure becomes a row
    try:
        engine = build_engine(plan.equation, n_cells, plan.length, plan.profile, dt, k)
        instance = ProblemInstance(equation=plan.equation, mesh=engine.ops.mesh,
                                   profile=plan.profile, tau=plan.tau,
                                   n_steps=k, truth=plan.truth)
        start = time.perf_counter()
        trace = generate_observation(instance, refine=plan.refine)
        pending.append({"gen_ms": 1e3 * (time.perf_counter() - start)})
        eta, cost = eta_stage(engine, tol=plan.eta_tol, max_iter=plan.eta_max_iter,
                              seed=plan.eta_seed, warm=warm)
        pending.append(cost)
        carry.state = eta.ritz_vector
        base, cost = solve_stage(engine, trace, eta, theta=plan.theta)
        pending.append(cost)
    except Exception as exc:
        failure = exc
    for eps in plan.noise_eps:
        if eps != 0.0 and unit is None and failure is None:
            try:
                # nothing reads the clean samples after S(clean): u is drawn
                # into their buffer, so the level never holds two traces
                trace = _unit_noise_in_place(trace, plan.noise_seed)
                unit, cost = solve_stage(engine, trace, eta, theta=plan.theta,
                                         polynomial=base.polynomial)
                pending.append(cost)
            except Exception as exc:
                unit = exc
        try:
            if failure is not None:
                raise failure
            estimate, gain = base.estimate, None
            if eps != 0.0:
                if isinstance(unit, Exception):
                    raise unit
                estimate = engine._state(engine._flat(base.estimate)
                                         + eps * engine._flat(unit.estimate))
                gain = error_norm(plan.equation, unit.estimate, engine.ops)
            row = fill_row(engine, base, estimate, eta, truth=plan.truth, noise_eps=eps,
                           theta=plan.theta)
            row.noise_gain, row.eta_warm = gain, warm is not None
        except Exception as exc:
            row = SweepRow(plan.equation, n_cells, h, dt, -1, float("nan"), eps,
                           float("nan"), 0.0, f"{type(exc).__name__}: {exc}")
        for cost in pending:
            charge(row, **cost)
        pending.clear()
        now = time.perf_counter()
        row.wall_ms, mark = 1e3 * (now - mark), now
        rows.append(row)
    return rows


def run_sweep(plan: SweepPlan) -> list[SweepRow]:
    """One row per (level, noise) cell, deterministic given the plan seeds:
    one ``run_cell`` per level, in the order of ``plan.levels``, each level
    after the first starting eta warm from the one before."""
    carry = WarmStart()
    return [row for n_cells in plan.levels for row in run_cell(plan, n_cells, carry)]


# -- rate fitting --------------------------------------------------------------


@dataclass(frozen=True)
class RateFit:
    """Least-squares slope of log error against the model regressor."""

    model: str
    slope: float
    intercept: float
    max_residual: float
    n_points: int
    dropped_coarsest: bool = False


def _regressor(model: str, x: np.ndarray) -> np.ndarray:
    if model == "pure-power":
        return np.log(x)
    if model == "power-log2":
        return np.log(x * np.log(x) ** 2)
    raise ValueError(f"unknown fit model {model!r}")


def _lstsq_line(r: np.ndarray, y: np.ndarray) -> tuple[float, float, np.ndarray]:
    A = np.column_stack([r, np.ones_like(r)])
    sol, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ sol
    return float(sol[0]), float(sol[1]), resid


def _clean_levels(rows: list[SweepRow], theta: float) -> list[SweepRow]:
    """The clean rows with a finite positive error, finest (smallest
    h^theta + dt) first."""
    clean = [r for r in rows if r.noise_eps == 0.0 and r.failure is None
             and np.isfinite(r.error_x) and r.error_x > 0.0]
    return sorted(clean, key=lambda r: r.h ** theta + r.dt)


def local_slopes(rows: list[SweepRow], theta: float = 1.0) -> list[float]:
    """The rate between each pair of consecutive clean levels, coarsest pair
    first: the log ratio of their errors over the log ratio of their
    envelopes x ln^2 x, x = h^theta + dt.  nan for two levels of one x."""
    clean = _clean_levels(rows, theta)[::-1]
    r = _regressor("power-log2", np.array([c.h ** theta + c.dt for c in clean]))
    y = np.log([c.error_x for c in clean])
    return [float(dy / dr) if dr != 0.0 else math.nan
            for dy, dr in zip(np.diff(y), np.diff(r))]


def fit_rate(rows: list[SweepRow], model: str = "power-log2",
             theta: float = 1.0) -> RateFit:
    """Fit log error_x ~ slope * log(regressor) over the clean rows.

    Pre-asymptotic guard: when at least 5 rows are available, the trend is
    fitted on the finer levels alone; if the coarsest level sits more than
    3x the median residual away from that trend, it is dropped.  With fewer
    rows the finer levels leave under two residual degrees of freedom, their
    median residual says nothing about the scatter, and all rows are kept.
    """
    clean = _clean_levels(rows, theta)
    if len(clean) < 3:
        raise ValueError("rate fitting needs at least 3 clean rows")
    x = np.array([r.h ** theta + r.dt for r in clean])
    if np.ptp(x) == 0.0:
        raise ValueError("degenerate sweep: all levels have the same h^theta + dt")
    y = np.log(np.array([r.error_x for r in clean]))
    r = _regressor(model, x)
    if len(clean) >= 5:
        slope_f, icept_f, resid_f = _lstsq_line(r[:-1], y[:-1])
        deviation = abs(y[-1] - (slope_f * r[-1] + icept_f))
        med = max(float(np.median(np.abs(resid_f))), 1e-12)
        if deviation > 3.0 * med:
            return RateFit(model=model, slope=slope_f, intercept=icept_f,
                           max_residual=float(np.max(np.abs(resid_f))),
                           n_points=len(resid_f), dropped_coarsest=True)
    slope, intercept, resid = _lstsq_line(r, y)
    return RateFit(model=model, slope=slope, intercept=intercept,
                   max_residual=float(np.max(np.abs(resid))),
                   n_points=len(resid))


# -- noise robustness -----------------------------------------------------------


@dataclass(frozen=True)
class NoiseRow:
    """Error inflation of one noisy cell over its clean baseline."""

    n_cells: int
    noise_eps: float
    error_x: float
    inflation: float
    ratio: float            # inflation / (n_neumann * tau * eps); nan for eps = 0 or no N
    noise_gain: float | None = None     # |inflation| <= eps * noise_gain; None for eps = 0


def build_noise_table(rows: list[SweepRow], tau: float) -> list[NoiseRow]:
    """Per-level inflation of noisy rows over their clean baselines."""
    by_level: dict[int, dict[float, SweepRow]] = {}
    for row in rows:
        by_level.setdefault(row.n_cells, {})[row.noise_eps] = row
    table = []
    for n_cells, cells in by_level.items():
        base = cells.get(0.0)
        if base is None or base.failure is not None:
            continue
        for eps, row in sorted(cells.items()):
            if row.failure is not None:
                continue
            inflation = row.error_x - base.error_x
            ratio = float("nan")
            if eps > 0.0 and row.n_neumann:
                ratio = inflation / (row.n_neumann * tau * eps)
            table.append(NoiseRow(n_cells, eps, row.error_x, inflation, ratio,
                                  row.noise_gain))
    return table


def noise_study(plan: SweepPlan) -> tuple[list[SweepRow], list[NoiseRow]]:
    """Error inflation against the N * tau * eps data-error scale."""
    if 0.0 not in plan.noise_eps:
        raise ValueError("noise study needs the eps = 0 baseline")
    rows = run_sweep(plan)
    return rows, build_noise_table(rows, plan.tau)


# -- reports --------------------------------------------------------------------


def rows_to_csv(rows: list[SweepRow], fit_model: str,
                config: dict | None = None) -> str:
    """Plot-ready CSV; the resolved config rides along as comment lines."""
    lines = []
    if config is not None:
        lines.append("# config: " + json.dumps(config, sort_keys=True))
    lines.append(CSV_HEADER)
    for r in rows:
        lines.append(",".join([
            r.equation, f"{r.h:.17g}", f"{r.dt:.17g}", str(r.n_used),
            f"{r.eta_hat:.17g}", f"{r.noise_eps:.17g}", f"{r.error_x:.17g}",
            fit_model, f"{r.wall_ms:.3f}",
        ]))
    return "\n".join(lines) + "\n"


def evaluate_gates(rows: list[SweepRow], fit: RateFit | None,
                   slope_band: tuple[float, float | None] = (0.8, None),
                   require_monotone: bool = True) -> dict[str, bool]:
    """Pass/fail per acceptance gate for one sweep.

    A None upper edge of slope_band leaves the band open above: the error
    estimate is an upper bound, so errors may decay faster than it.
    """
    gates: dict[str, bool] = {}
    gates["no_cell_failures"] = all(r.failure is None for r in rows)
    clean = sorted((r for r in rows if r.noise_eps == 0.0 and r.failure is None),
                   key=lambda r: -(r.h + r.dt))
    if require_monotone:
        errs = [r.error_x for r in clean]
        gates["errors_strictly_decrease"] = all(
            b < a for a, b in zip(errs, errs[1:])
        ) and len(errs) >= 2
    if fit is not None:
        low, high = slope_band
        gates["slope_in_band"] = low <= fit.slope and (high is None or fit.slope <= high)
    return gates


def summary_dict(plan: SweepPlan, rows: list[SweepRow], fit: RateFit | None,
                 gates: dict[str, bool], config: dict | None = None,
                 noise_table: list[NoiseRow] | None = None) -> dict:
    out = {
        "equation": plan.equation,
        "levels": list(plan.levels),
        "rows": [asdict(r) for r in rows],
        "fit": asdict(fit) if fit is not None else None,
        "local_slopes": local_slopes(rows, plan.theta),
        "gates": gates,
        "all_gates_pass": all(gates.values()) if gates else True,
    }
    if noise_table is not None:
        out["noise_table"] = [asdict(t) for t in noise_table]
    if config is not None:
        out["config"] = config
    return out
