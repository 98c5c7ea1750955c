import json
import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from bafobs import harness, observers
from bafobs.fem import FieldSpec, Mesh1D, ObservationProfile, assemble, prolong
from bafobs.harness import (CSV_HEADER, BackAndForth, NoiseRow, SweepPlan,
                            SweepRow, evaluate_gates, fit_rate, local_slopes,
                            noise_study, rows_to_csv, run_cell, run_sweep, summary_dict,
                            reconstruction_error)
from bafobs.linalg import ShiftedSystem
from bafobs.models import NoiseSpec, ProblemInstance, add_noise, generate_observation
from bafobs.observers import WaveState

from oracles import (combine, fine_h1_distance, fine_l2_distance, list_arnoldi,
                     norm_alpha, project_pi_h)

TRUTH = FieldSpec(kind="sine", coefficients=(1.0, 0.5))
WAVE_TRUTH = (FieldSpec(kind="sine", coefficients=(1.0,)),
              FieldSpec(kind="sine", coefficients=(0.0, 1.0)))
EQUATIONS = pytest.mark.parametrize("equation, truth, tau", [("schrodinger", TRUTH, 1.0),
                                                            ("wave", WAVE_TRUTH, 2.0)])


def small_plan(**kw):
    base = dict(equation="schrodinger", levels=(8, 16, 32), tau=1.0,
                truth=TRUTH, refine=2)
    base.update(kw)
    return SweepPlan(**base)


def count_solves(monkeypatch) -> list:
    """A list that gets one entry per ShiftedSystem.solve, as a wrapper of
    the method sees them."""
    calls, solve = [], ShiftedSystem.solve

    def counting_solve(self, rhs):
        calls.append(1)
        return solve(self, rhs)

    monkeypatch.setattr(ShiftedSystem, "solve", counting_solve)
    return calls


# -- reconstruction_error ---------------------------------------------------------------


def test_error_of_projection_matches_independent_quadrature():
    mesh = Mesh1D(n_cells=16)
    ops = assemble(mesh, ObservationProfile())
    proj = project_pi_h(mesh, ops, TRUTH)
    err = reconstruction_error("schrodinger", TRUTH, proj.astype(complex), ops)
    reference = fine_l2_distance(mesh, TRUTH, proj, points_per_cell=256)
    assert err == pytest.approx(reference, rel=1e-6)
    assert err < 2 * mesh.h  # projection floor only


def test_error_of_zero_estimate_is_truth_norm():
    mesh = Mesh1D(n_cells=32)
    ops = assemble(mesh, ObservationProfile())
    err = reconstruction_error("schrodinger", TRUTH, np.zeros(mesh.n, complex), ops)
    assert err == pytest.approx(math.sqrt(0.5 * (1.0 + 0.25)), rel=1e-10)
    w_err = reconstruction_error("wave", WAVE_TRUTH,
                          WaveState(np.zeros(mesh.n), np.zeros(mesh.n)), ops)
    expected = math.pi * math.sqrt(0.5) + math.sqrt(0.5)
    assert w_err == pytest.approx(expected, rel=1e-10)


def test_wave_error_of_nonzero_estimate_matches_independent_quadrature():
    mesh = Mesh1D(n_cells=16)
    ops = assemble(mesh, ObservationProfile())
    w0, w1 = WAVE_TRUTH
    pos = project_pi_h(mesh, ops, w0)
    vel = np.random.default_rng(5).standard_normal(mesh.n)
    err = reconstruction_error("wave", WAVE_TRUTH, WaveState(pos, vel), ops)
    reference = (fine_h1_distance(mesh, w0, pos, points_per_cell=1024)
                 + fine_l2_distance(mesh, w1, vel, points_per_cell=1024))
    assert err == pytest.approx(reference, rel=1e-6)
    # a wave estimate is read one way: a flat [pos; vel], a (2, n) stack or a
    # tuple is refused by both functions, and so is a WaveState off the mesh
    for other in (np.concatenate([pos, vel]), np.stack([pos, vel]), (pos, vel)):
        with pytest.raises(ValueError, match="WaveState"):
            reconstruction_error("wave", WAVE_TRUTH, other, ops)
        with pytest.raises(ValueError, match="WaveState"):
            harness.error_norm("wave", other, ops)
    with pytest.raises(ValueError, match=rf"\({mesh.n},\)"):
        reconstruction_error("wave", WAVE_TRUTH, WaveState(pos[1:], vel[1:]), ops)


def test_error_triangle_inequality_against_discrete_norm():
    mesh = Mesh1D(n_cells=24)
    ops = assemble(mesh, ObservationProfile())
    rng = np.random.default_rng(2)
    for _ in range(10):
        u = rng.standard_normal(mesh.n) + 1j * rng.standard_normal(mesh.n)
        v = rng.standard_normal(mesh.n) + 1j * rng.standard_normal(mesh.n)
        d_u = reconstruction_error("schrodinger", TRUTH, u, ops)
        d_v = reconstruction_error("schrodinger", TRUTH, v, ops)
        gap = norm_alpha(ops, u - v, 0.0)
        assert d_u <= d_v + gap + 1e-12


def test_error_dimension_mismatch():
    mesh = Mesh1D(n_cells=8)
    ops = assemble(mesh, ObservationProfile())
    with pytest.raises(ValueError):
        reconstruction_error("schrodinger", TRUTH, np.zeros(3, complex), ops)


# -- rate fitting -----------------------------------------------------------------


def synthetic_rows(errors, hs):
    return [SweepRow("schrodinger", round(1 / h), h, h, 1, 0.5, 0.0, e, 0.0)
            for e, h in zip(errors, hs)]


def test_fit_exact_power_law():
    hs = [1 / 8, 1 / 16, 1 / 32, 1 / 64]
    rows = synthetic_rows([3.0 * (h + h) for h in hs], hs)
    fit = fit_rate(rows, model="pure-power")
    assert fit.slope == pytest.approx(1.0, abs=1e-12)
    assert fit.max_residual < 1e-12


def test_fit_power_log2_shape():
    hs = [1 / 8, 1 / 16, 1 / 32, 1 / 64]
    errors = [2.0 * (2 * h) * math.log(2 * h) ** 2 for h in hs]
    rows = synthetic_rows(errors, hs)
    pl2 = fit_rate(rows, model="power-log2")
    assert pl2.slope == pytest.approx(1.0, abs=1e-12)
    pp = fit_rate(rows, model="pure-power")
    assert pp.slope < 1.0


def test_fit_permutation_invariant():
    hs = [1 / 8, 1 / 32, 1 / 16, 1 / 64]
    errors = [1.7 * (2 * h) ** 1.1 for h in hs]
    rows = synthetic_rows(errors, hs)
    fit_a = fit_rate(rows)
    fit_b = fit_rate(list(reversed(rows)))
    assert fit_a == fit_b


def test_fit_drops_polluted_coarsest_level():
    hs = [1 / 8, 1 / 16, 1 / 32, 1 / 64, 1 / 128]
    errors = [3.0 * (2 * h) for h in hs]
    errors[0] *= 8.0   # pre-asymptotic pollution on the coarsest level
    rows = synthetic_rows(errors, hs)
    fit = fit_rate(rows, model="pure-power")
    assert fit.dropped_coarsest
    assert fit.slope == pytest.approx(1.0, abs=1e-10)


def test_fit_keeps_coarsest_level_of_four():
    # three finer levels fitted with two parameters leave one residual degree
    # of freedom, too few to call the coarsest level an outlier
    hs = [1 / 8, 1 / 16, 1 / 32, 1 / 64]
    errors = [3.0 * (2 * h) * f for h, f in zip(hs, (1.3, 1.02, 0.99, 1.01))]
    fit = fit_rate(synthetic_rows(errors, hs), model="pure-power")
    assert not fit.dropped_coarsest and fit.n_points == 4
    slope, _ = np.polyfit(np.log([2 * h for h in hs]), np.log(errors), 1)
    assert fit.slope == pytest.approx(slope, abs=1e-12)


def test_fit_validation():
    hs = [1 / 8, 1 / 16]
    with pytest.raises(ValueError, match="at least 3"):
        fit_rate(synthetic_rows([1.0, 0.5], hs))
    same = synthetic_rows([1.0, 0.9, 0.8], [0.1, 0.1, 0.1])
    with pytest.raises(ValueError, match="degenerate"):
        fit_rate(same)
    with pytest.raises(ValueError, match="model"):
        fit_rate(synthetic_rows([1, 0.5, 0.25], [0.1, 0.05, 0.025]),
                 model="cubic")


def test_local_slopes_by_hand():
    # x = h + dt = 1/8, 1/16, 1/32 with dt = h.  The envelope x ln^2 x falls
    # by (1/2)(4 ln 2)^2 / (3 ln 2)^2 = 8/9 from 1/8 to 1/16, and by
    # (1/2)(5/4)^2 = 25/32 from 1/16 to 1/32; the errors by 0.6 and 0.5
    rows = synthetic_rows([0.5, 0.3, 0.15], [1 / 16, 1 / 32, 1 / 64])
    expected = [math.log(0.6) / math.log(8 / 9), math.log(0.5) / math.log(25 / 32)]
    # coarsest pair first, whatever the row order; noisy and failed rows left out
    noisy = SweepRow("schrodinger", 16, 1 / 16, 1 / 16, 1, 0.5, 1e-3, 9.0, 0.0)
    failed = SweepRow("schrodinger", 8, 1 / 8, 1 / 8, 1, 0.5, 0.0, 9.0, 0.0, failure="x")
    got = local_slopes(rows[::-1] + [noisy, failed])
    assert got == pytest.approx(expected, rel=1e-14)
    assert got == pytest.approx([4.3370, 2.8079], abs=1e-4)
    # an exact power-log2 law has slope 1 between every pair
    hs = [1 / 8, 1 / 16, 1 / 32, 1 / 64]
    law = synthetic_rows([2.0 * (2 * h) * math.log(2 * h) ** 2 for h in hs], hs)
    assert local_slopes(law) == pytest.approx([1.0] * 3, abs=1e-12)
    # two levels of one h + dt have no slope; one level has no pair
    assert math.isnan(local_slopes(synthetic_rows([1.0, 0.5], [0.1, 0.1]))[0])
    assert local_slopes(rows[:1]) == []


# -- sweeps -----------------------------------------------------------------------


def test_single_level_sweep_row(tmp_path):
    plan = small_plan(levels=(16,))
    rows = run_sweep(plan)
    assert len(rows) == 1
    row = rows[0]
    assert row.failure is None
    assert np.isfinite(row.error_x) and row.error_x > 0
    assert 0 < row.eta_hat < 1
    assert row.n_used >= 1
    assert row.n_capped is False


def test_truncation_cap_hit_recorded_in_row(monkeypatch):
    # the 32-cell wave level needs two steps: a cap of one is hit
    monkeypatch.setattr(observers, "AUTO_N_CAP", 1)
    with pytest.warns(RuntimeWarning, match="capping at 1"):
        (row,) = run_cell(wave_plan(levels=(32,)), 32)
    assert row.failure is None
    assert row.n_capped is True and row.n_used == 1
    assert row.residual > row.eta_hat * (row.h + row.dt)


@pytest.mark.parametrize("equation, truth, tau", [("schrodinger", TRUTH, 1.0),
                                                  ("wave", WAVE_TRUTH, 2.0)])
def test_row_solve_counts_are_the_solves_run(monkeypatch, equation, truth, tau):
    calls = count_solves(monkeypatch)
    plan = small_plan(equation=equation, truth=truth, tau=tau, levels=(8,),
                      noise_eps=(0.0, 1e-3))
    first, second = run_cell(plan, 8)
    assert first.failure is None and second.failure is None
    assert first.n_solves + second.n_solves == len(calls)
    # the level's eta is charged to its first row: a pass per wave step, a
    # round trip per Schrodinger step; the clean solve, and the noisy row's
    # replay of its polynomial, take the first iterate's round trip and one
    # a step
    round_trip = 2 * (16 - 1) if equation == "wave" else 2 * 8
    eta_step = 16 - 1 if equation == "wave" else 2 * 8
    assert second.n_solves == round_trip * (second.n_used + 1)
    assert first.n_solves == eta_step * first.eta_iterations + round_trip * (first.n_used + 1)


def fail_once(monkeypatch, name, at=1):
    """Make the ``at``-th call of harness.``name`` raise."""
    calls, real = [], getattr(harness, name)

    def flaky(*args, **kwargs):
        calls.append(1)
        if len(calls) == at:
            raise RuntimeError(f"no {name}")
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, name, flaky)


def test_failed_first_row_carries_the_shared_stages(monkeypatch):
    # the first row's error fails, after the level's trace, eta and S(clean)
    # were made
    calls = count_solves(monkeypatch)
    fail_once(monkeypatch, "reconstruction_error")
    first, second = run_cell(small_plan(levels=(8,), noise_eps=(0.0, 1e-3)), 8)
    assert first.failure == "RuntimeError: no reconstruction_error"
    assert second.failure is None
    assert first.gen_ms > 0 and first.eta_ms > 0 and first.neumann_ms > 0
    assert second.gen_ms == 0 and second.eta_ms == 0
    # S(u) takes as many round trips as S(clean), whose polynomial it replays
    one_run = 2 * 8 * (second.n_used + 1)
    assert second.n_solves == one_run
    assert first.n_solves == 2 * 8 * second.eta_iterations + one_run
    assert first.n_solves + second.n_solves == len(calls)
    # an eta that raises fails the level, and the first row still carries
    # the generation that finished before it
    monkeypatch.setattr(BackAndForth, "estimate_eta", lambda *a, **kw: 1 / 0)
    first, second = run_cell(small_plan(levels=(8,), noise_eps=(0.0, 1e-3)), 8)
    assert first.failure == second.failure == "ZeroDivisionError: division by zero"
    assert first.gen_ms > 0 and second.gen_ms == 0
    assert first.eta_ms == first.neumann_ms == first.n_solves == second.n_solves == 0


def test_sweep_reproducible_bit_identically():
    plan = small_plan(levels=(8, 16))
    a = run_sweep(plan)
    b = run_sweep(plan)
    for ra, rb in zip(a, b):
        assert ra.error_x == rb.error_x
        assert ra.eta_hat == rb.eta_hat
        assert ra.n_used == rb.n_used


def test_sweep_errors_decrease_and_dt_dominates():
    plan = small_plan(levels=(16, 32, 64))
    rows = run_sweep(plan)
    errs = [r.error_x for r in rows]
    assert errs[0] > errs[1] > errs[2]
    # doubling kappa at fixed h raises the dt-dominated error
    slower = run_cell(small_plan(levels=(32,), kappa=2.0), 32)[0]
    faster = run_cell(small_plan(levels=(32,), kappa=1.0), 32)[0]
    assert slower.error_x > faster.error_x


def test_sweep_cell_failure_isolated(monkeypatch):
    # the 8-cell level's set-up fails; the second error the sweep measures,
    # that of the 16-cell noisy row, fails
    fail_once(monkeypatch, "build_engine")
    fail_once(monkeypatch, "reconstruction_error", at=2)
    plan = small_plan(levels=(8, 16), noise_eps=(0.0, 1e-3))
    rows = run_sweep(plan)
    assert [(r.n_cells, r.noise_eps) for r in rows] == \
        [(8, 0.0), (8, 1e-3), (16, 0.0), (16, 1e-3)]
    assert rows[0].failure is not None and rows[1].failure is not None
    assert rows[2].failure is None and np.isfinite(rows[2].error_x)
    assert rows[3].failure == "RuntimeError: no reconstruction_error"


def test_plan_refuses_a_level_past_the_trace_ceiling():
    with pytest.raises(ValueError, match=r"sweep.levels .* 99999 nodes, got 100000 "):
        small_plan(levels=(8, 100000))
    assert small_plan(levels=(8, 46340)).n_steps(46340) == 46340


def test_eta_constant_across_levels_in_resolved_time_regime():
    # the contraction factor is a property of the continuous problem; with dt
    # small and fixed, the per-level estimates agree to within 10%
    dt = 1.0 / 512
    values = []
    for n_cells in (16, 24, 32):
        mesh = Mesh1D(n_cells=n_cells)
        ops = assemble(mesh, ObservationProfile())
        engine = BackAndForth("schrodinger", ops, dt, 512)
        values.append(engine.estimate_eta(tol=1e-7, max_iter=200, seed=11).value)
    assert max(values) <= 1.1 * min(values)


# -- warm-started eta -------------------------------------------------------------


def wave_plan(**kw):
    """The wave acceptance plan."""
    base = dict(equation="wave", levels=(32, 64, 128, 256), tau=2.0, truth=WAVE_TRUTH,
                profile=ObservationProfile(a=0.2, b=0.8, smoothness=2), refine=2)
    base.update(kw)
    return SweepPlan(**base)


def cold_rows(plan):
    """Each level run on its own, so its eta starts cold."""
    return [row for n_cells in plan.levels for row in run_cell(plan, n_cells)]


def test_warm_eta_keeps_every_level_and_saves_steps():
    plan = wave_plan()
    warm, cold = run_sweep(plan), cold_rows(plan)
    assert [r.eta_warm for r in warm] == [False, True, True, True]
    assert not any(r.eta_warm for r in cold)
    for w, c in zip(warm, cold):
        assert w.failure is None and w.eta_converged
        assert w.n_used == c.n_used
        assert w.error_x == c.error_x
        assert w.eta_hat == pytest.approx(c.eta_hat, rel=1e-8)
    # the first level starts exactly as a cold one
    assert (warm[0].eta_hat, warm[0].eta_iterations) == (cold[0].eta_hat, cold[0].eta_iterations)
    # a wave eta step is one pass of the half trip
    steps = ([r.eta_iterations for r in warm], [r.eta_iterations for r in cold])
    assert steps == ([9, 10, 14, 11], [9, 12, 14, 17])
    assert sum(steps[0]) == 44 < sum(steps[1]) == 52


@pytest.mark.parametrize("seed", [3, 11, 15, 20, 27])
def test_wave_plan_matches_the_round_trip_oracle(seed):
    # the sweep's eta, on the half trip and warm, against Arnoldi on the
    # round trip L started cold from the same seed: eta_hat within 1e-8 and
    # the same N and error_x at every level
    plan = wave_plan(eta_seed=seed)
    for row in run_sweep(plan):
        k = plan.n_steps(row.n_cells)
        engine = harness.build_engine("wave", row.n_cells, plan.length, plan.profile,
                                      plan.tau / k, k)
        clean = generate_observation(ProblemInstance("wave", engine.ops.mesh, plan.profile,
                                                     plan.tau, k, plan.truth),
                                     refine=plan.refine)
        ref = list_arnoldi(engine.apply_L, engine.x_inner, engine.random_state(seed))
        result, cost = harness.solve_stage(engine, clean, ref, theta=plan.theta)
        ref_row = harness.charge(harness.fill_row(engine, result, result.estimate, ref,
                                                  truth=plan.truth, noise_eps=0.0,
                                                  theta=plan.theta), **cost)
        assert ref.converged and row.eta_converged
        assert row.eta_hat == pytest.approx(ref.value, rel=1e-8)
        assert (row.n_used, row.error_x) == (ref_row.n_used, ref_row.error_x)


def test_warm_eta_across_the_parity_switch():
    # the dominant mode changes between 64 and 128 cells: the prolonged 64-cell
    # Ritz vector is X-orthogonal to the 128-cell one, so only the random part
    # of the start holds the mode the 128-cell estimate must find
    plan = wave_plan(levels=(64, 128))
    engines = {n: harness.build_engine("wave", n, 1.0, plan.profile,
                                       plan.tau / plan.n_steps(n), plan.n_steps(n))
               for n in plan.levels}
    coarse, fine = (engines[n].estimate_eta().ritz_vector for n in plan.levels)
    prolonged = WaveState(prolong(coarse.pos, engines[128].ops.mesh),
                          prolong(coarse.vel, engines[128].ops.mesh))
    fine_engine = engines[128]
    cosine = abs(fine_engine.x_inner(prolonged, fine)) / (
        fine_engine.x_norm(prolonged) * fine_engine.x_norm(fine))
    assert cosine < 1e-8
    (_, warm), (cold,) = run_sweep(plan), run_cell(plan, 128)
    assert warm.eta_warm and warm.n_used == cold.n_used
    assert warm.eta_hat == pytest.approx(cold.eta_hat, rel=1e-8)


def test_failed_or_unconverged_level_leaves_the_next_cold(monkeypatch):
    # a level whose set-up fails (the 12-cell one) hands on nothing, not
    # even the vector it was handed
    plan = small_plan(levels=(8, 12, 16))
    fail_once(monkeypatch, "build_engine", at=2)
    before, failed, after = run_sweep(plan)
    (cold,) = run_cell(plan, 16)
    assert before.eta_converged and failed.failure is not None and after.failure is None
    assert not after.eta_warm
    assert (after.eta_hat, after.eta_iterations) == (cold.eta_hat, cold.eta_iterations)
    # nor does an estimate that ran out of steps
    plan = small_plan(levels=(8, 16), eta_max_iter=2, eta_tol=1e-12)
    with pytest.warns(RuntimeWarning, match="did not converge"):
        first, after = run_sweep(plan)
        (cold,) = run_cell(plan, 16)
    assert first.eta_converged is False and not after.eta_warm
    assert (after.eta_hat, after.eta_iterations) == (cold.eta_hat, cold.eta_iterations)


def test_warm_schrodinger_sweep_matches_cold_rows():
    # the Schrodinger estimate takes as many steps warm as cold; eta_hat moves
    # in its last bits only (about 1e-14 relative), and no step count moves.
    # The solve deflates the level's own Ritz vector, which the warm start
    # moves within eta's tolerance: error_x and the share of z along that
    # vector agree to about 1e-10 relative, and both residuals meet the rule
    plan = small_plan(levels=(32, 64, 128, 256))
    warm, cold = run_sweep(plan), cold_rows(plan)
    assert [r.eta_warm for r in warm] == [False, True, True, True]
    moving = ("eta_warm", "eta_hat", "error_x", "deflated", "residual", "ritz_max")
    for w, c in zip(warm, cold):
        assert w.eta_hat == pytest.approx(c.eta_hat, rel=1e-12)
        assert w.error_x == pytest.approx(c.error_x, rel=1e-9)
        assert w.deflated == pytest.approx(c.deflated, rel=1e-9)
        assert w.ritz_max == pytest.approx(c.ritz_max, rel=1e-6)
        for row in (w, c):
            assert row.residual <= row.eta_hat * (row.h + row.dt)
        for f in fields(SweepRow):
            if not f.name.endswith("_ms") and f.name not in moving:
                assert getattr(w, f.name) == getattr(c, f.name), f.name


# -- noise study ------------------------------------------------------------------


def test_noise_study_zero_baseline_and_linearity():
    plan = small_plan(levels=(32,), noise_eps=(0.0, 1e-3, 1e-2))
    rows, table = noise_study(plan)
    base = [t for t in table if t.noise_eps == 0.0]
    assert len(base) == 1 and base[0].inflation == 0.0
    ratios = [t.ratio for t in table if t.noise_eps > 0.0]
    assert len(ratios) == 2
    assert abs(ratios[0]) > 0
    assert 1 / 3 <= abs(ratios[1] / ratios[0]) <= 3


def level_inputs(plan, n_cells):
    """The engine, clean trace and eta that run_cell builds for a level."""
    k = plan.n_steps(n_cells)
    engine = harness.build_engine(plan.equation, n_cells, plan.length, plan.profile,
                                  plan.tau / k, k)
    instance = ProblemInstance(plan.equation, engine.ops.mesh, plan.profile, plan.tau, k,
                               plan.truth)
    clean = generate_observation(instance, refine=plan.refine)
    eta = engine.estimate_eta(plan.eta_tol, plan.eta_max_iter, plan.eta_seed)
    return engine, clean, eta


@EQUATIONS
def test_noisy_rows_match_one_sum_per_noise_level(equation, truth, tau):
    # S(clean) + eps S(u) against the replay of the clean solve's polynomial
    # on each noisy trace: the clean row bit for bit, the noisy ones to
    # rounding.  A solve of its own, as the reconstruct command runs on a
    # noisy trace, lands within the stopping bound of the replay: both are
    # within eta_hat (h + dt) ||z||_X / (1 - eta_hat) of (I - L)^-1 z.
    plan = small_plan(equation=equation, truth=truth, tau=tau, levels=(16,),
                      noise_eps=(0.0, 1e-4, 1e-3, 1e-2), noise_seed=5)
    rows = run_cell(plan, 16)
    engine, clean, eta = level_inputs(plan, 16)
    solve = engine.neumann_reconstruct(clean, eta, theta=plan.theta)
    bound = eta.value * (engine.ops.mesh.h ** plan.theta + engine.dt) / (1.0 - eta.value)
    for row in rows:
        noisy = add_noise(clean, NoiseSpec(row.noise_eps, plan.noise_seed))
        replay, cost = harness.solve_stage(
            engine, noisy, eta, theta=plan.theta,
            polynomial=None if row.noise_eps == 0.0 else solve.polynomial)
        ref = harness.charge(harness.fill_row(engine, replay, replay.estimate, eta, truth=truth,
                                              noise_eps=row.noise_eps, theta=plan.theta),
                             **cost)
        assert row.failure is None and row.n_used == ref.n_used >= 1
        if row.noise_eps == 0.0:
            harness.charge(ref, solves=engine.eta_step_solves * eta.iterations)
            same = [f.name for f in fields(SweepRow) if not f.name.endswith("_ms")]
            assert {k: getattr(row, k) for k in same} == {k: getattr(ref, k) for k in same}
        else:
            assert row.error_x == pytest.approx(ref.error_x, rel=1e-12, abs=0)
            own = engine.neumann_reconstruct(noisy, eta, theta=plan.theta)
            z = engine.first_iterate(noisy)
            gap = engine.x_norm(combine((1.0, own.estimate), (-1.0, replay.estimate)))
            assert gap <= 2.0 * bound * engine.x_norm(z)


@EQUATIONS
@pytest.mark.filterwarnings("ignore:the solve's Krylov space holds a Ritz value")
def test_rows_carry_the_share_of_z_the_solve_deflated(equation, truth, tau):
    # every clean Schrodinger solve deflates the level's Ritz pair, and a
    # noisy row carries its clean solve's share; the wave's estimate has no
    # pair, and neither has one that ran out of steps, so the solve deflates
    # nothing and the row says so (the latter's eta_hat, two steps in, is
    # short of a Ritz value the solve finds)
    plan = small_plan(equation=equation, truth=truth, tau=tau, levels=(16,),
                      noise_eps=(0.0, 1e-3))
    clean, noisy = run_cell(plan, 16)
    engine, trace, eta = level_inputs(plan, 16)
    solve = engine.neumann_reconstruct(trace, eta, theta=plan.theta)
    assert clean.deflated == solve.deflated and noisy.deflated == clean.deflated
    if equation == "wave":
        assert eta.ritz_pair is None and clean.deflated is None
    else:
        assert 0.0 < clean.deflated <= 1.0
    with pytest.warns(RuntimeWarning, match="did not converge"):
        (row,) = run_cell(small_plan(equation=equation, truth=truth, tau=tau, levels=(16,),
                                     eta_max_iter=2, eta_tol=1e-12), 16)
    assert row.failure is None and row.deflated is None


@EQUATIONS
@pytest.mark.parametrize("noise_eps, sums", [((0.0,), 1), ((0.0, 1e-4, 1e-3, 1e-2), 2)])
def test_a_level_runs_at_most_two_neumann_sums(monkeypatch, equation, truth, tau,
                                               noise_eps, sums):
    calls = count_solves(monkeypatch)
    rows = run_cell(small_plan(equation=equation, truth=truth, tau=tau, levels=(8,),
                               noise_eps=noise_eps), 8)
    assert all(r.failure is None for r in rows)
    first = rows[0]
    round_trip = 2 * (16 - 1) if equation == "wave" else 2 * 8
    eta_step = 16 - 1 if equation == "wave" else 2 * 8
    # the clean solve runs the first iterate and m steps, and so does the
    # replay of its polynomial on u
    one_run = round_trip * (first.n_used + 1)
    assert len(calls) == eta_step * first.eta_iterations + sums * one_run
    # S(clean) and the eta go to the first row, S(u) to the first noisy one
    assert [r.n_solves for r in rows] == (
        [len(calls) - (sums - 1) * one_run] + [one_run, 0, 0][:len(rows) - 1])
    assert [r.neumann_ms > 0 for r in rows] == [True] * sums + [False] * (len(rows) - sums)


@EQUATIONS
def test_noise_gain_bounds_the_error_inflation(equation, truth, tau):
    plan = small_plan(equation=equation, truth=truth, tau=tau, levels=(16,),
                      noise_eps=(0.0, 1e-4, 1e-3, 1e-2, 0.5))
    clean, *noisy = run_cell(plan, 16)
    assert clean.noise_gain is None
    gains = {row.noise_gain for row in noisy}
    (gain,) = gains
    assert math.isfinite(gain) and gain > 0
    for row in noisy:
        assert abs(row.error_x - clean.error_x) <= row.noise_eps * gain * (1 + 1e-9)


@EQUATIONS
def test_a_noisy_level_holds_one_trace(equation, truth, tau):
    # u is drawn into the clean trace's buffer once S(clean) is solved, so
    # the level peaks in generation: 1.38x the trace's bytes for
    # Schrodinger and 1.30x for the wave (1.65x and 1.49x with 32-row
    # synthesis buffers); a second trace-sized array beside the clean trace
    # would put both above 2x
    plan = small_plan(equation=equation, truth=truth, tau=tau, levels=(512,),
                      profile=ObservationProfile(a=0.2, b=0.8, smoothness=2),
                      noise_eps=(0.0, 1e-3))
    run_cell(plan, 16)      # one-off allocations of a first level, such as loaded kernels
    tracemalloc.start()
    try:
        rows = run_cell(plan, 512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [row.failure for row in rows] == [None, None]
    trace_bytes = (plan.n_steps(512) + 1) * 511 * (16 if equation == "schrodinger" else 8)
    assert peak < 1.45 * trace_bytes


def test_error_norm_is_the_error_against_a_zero_truth():
    # for the wave the norm is |pos|_K + |vel|_M, the one reconstruction_error
    # measures, not the X norm
    mesh = Mesh1D(n_cells=12)
    ops = assemble(mesh, ObservationProfile())
    rng = np.random.default_rng(8)
    pos, vel = rng.standard_normal(mesh.n), rng.standard_normal(mesh.n)
    zero = (FieldSpec(kind="sine", coefficients=(0.0,)),) * 2
    norm = harness.error_norm("wave", WaveState(pos, vel), ops)
    assert norm == pytest.approx(reconstruction_error("wave", zero, WaveState(pos, vel), ops),
                                 rel=1e-12)
    x_norm = BackAndForth("wave", ops, 0.1, 4).x_norm(WaveState(pos, vel))
    assert x_norm < norm
    q = pos + 1j * vel
    assert harness.error_norm("schrodinger", q, ops) == pytest.approx(
        reconstruction_error("schrodinger", zero[0], q, ops), rel=1e-12)
    # both functions read an estimate one way: a (2, n) stack is no
    # Schrodinger estimate, a WaveState of unequal fields no wave estimate,
    # and no estimate is one of an unknown equation
    for equation, truth, estimate, match in [
            ("schrodinger", zero[0], np.stack([q, q]), rf"expected \({mesh.n},\)"),
            ("wave", zero, WaveState(pos, vel[1:]), "WaveState"),
            ("bogus", zero, WaveState(pos, vel),
             "equation must be 'schrodinger' or 'wave', got 'bogus'")]:
        with pytest.raises(ValueError, match=match):
            reconstruction_error(equation, truth, estimate, ops)
        with pytest.raises(ValueError, match=match):
            harness.error_norm(equation, estimate, ops)


@pytest.mark.parametrize("equation", ["heat", 3, None])
def test_every_equation_check_is_the_one_rule(equation):
    # ProblemInstance, BackAndForth, the error norms, ObservationTrace and
    # SweepPlan all refuse an equation by fem.check_equation's rule
    mesh = Mesh1D(n_cells=8)
    ops = assemble(mesh, ObservationProfile())
    message = f"equation must be 'schrodinger' or 'wave', got {equation!r}"
    for build in [
            lambda: ProblemInstance(equation, mesh, ObservationProfile(), 1.0, 8, TRUTH),
            lambda: BackAndForth(equation, ops, 0.125, 8),
            lambda: harness.error_norm(equation, np.zeros(mesh.n), ops),
            lambda: observers.ObservationTrace(equation, np.zeros((3, mesh.n)), 1.0, 0.5),
            lambda: small_plan(equation=equation)]:
        with pytest.raises(ValueError) as raised:
            build()
        assert str(raised.value) == message


def test_failed_unit_sum_fails_only_the_noisy_rows(monkeypatch):
    draws = []

    def failing_draw(trace, seed):
        draws.append(seed)
        raise RuntimeError("no unit draw")

    monkeypatch.setattr(harness, "_unit_noise_in_place", failing_draw)
    rows = run_cell(small_plan(levels=(8,), noise_eps=(0.0, 1e-3, 1e-2)), 8)
    assert rows[0].failure is None and np.isfinite(rows[0].error_x)
    assert [r.failure for r in rows[1:]] == ["RuntimeError: no unit draw"] * 2
    assert draws == [7]
    assert rows[1].n_solves == rows[2].n_solves == 0


def test_failed_clean_sum_fails_the_whole_level(monkeypatch):
    calls, sums = count_solves(monkeypatch), []

    def failing_sum(self, trace, eta, **kwargs):
        sums.append(trace)
        raise RuntimeError("no sum")

    monkeypatch.setattr(BackAndForth, "neumann_reconstruct", failing_sum)
    rows = run_cell(small_plan(levels=(8,), noise_eps=(0.0, 1e-3, 1e-2)), 8)
    assert [r.failure for r in rows] == ["RuntimeError: no sum"] * 3
    assert len(sums) == 1
    # the failed first row still carries the generation and the eta, whose
    # solves are all the level ran; the failed sum counts nothing
    assert rows[0].gen_ms > 0 and rows[0].eta_ms > 0 and rows[0].neumann_ms == 0
    assert rows[0].n_solves == len(calls) > 0
    assert rows[1].n_solves == rows[2].n_solves == 0


def instance_with(**kw):
    base = dict(equation="schrodinger", mesh=Mesh1D(8), profile=ObservationProfile(),
                tau=1.0, n_steps=8, truth=TRUTH)
    base.update(kw)
    return ProblemInstance(**base)


# each refusal names the field and the value in its config leaf's rule text;
# the explicit ids keep the names these cases had before that text was shared
LEVELS_RULE = "levels must be a non-empty list of integers >= 2"
EPS_RULE = "noise_eps must be a non-empty list of numbers >= 0"


@pytest.mark.parametrize("kw, match", [
    pytest.param(dict(levels=()), rf"{LEVELS_RULE}, got \(\)$", id="kw0-at least one level"),
    pytest.param(dict(kappa=0.0), "kappa must be a positive number, got 0.0$",
                 id="kw1-kappa must be positive"),
    (dict(n_policy="fixed"), "n_policy"),
    (dict(n_policy=True), "n_policy"),
    (dict(n_policy=-1), "n_policy"),
    pytest.param(dict(noise_eps=(0.0, -1.0)), rf"{EPS_RULE}, got \(0.0, -1.0\)$",
                 id="kw5-amplitude"),
    pytest.param(dict(noise_eps=(0.0, math.nan)), rf"{EPS_RULE}, got \(0.0, nan\)$",
                 id="kw6-amplitude"),
    pytest.param(dict(noise_eps=("x",)), rf"{EPS_RULE}, got \('x',\)$", id="kw7-amplitude"),
    pytest.param(dict(noise_eps=(None,)), rf"{EPS_RULE}, got \(None,\)$", id="kw8-amplitude"),
    pytest.param(dict(noise_eps=(True,)), rf"{EPS_RULE}, got \(True,\)$", id="kw9-amplitude"),
    # an infinite kappa would run one time step per level
    pytest.param(dict(kappa=math.inf), "kappa must be a positive number, got inf$",
                 id="kw10-kappa must be positive"),
    pytest.param(dict(noise_eps=(10**400,)), rf"{EPS_RULE}, got \(10{{400}},\)$",
                 id="kw11-amplitude"),
    # the one stopping rule: a step count is refused, 0 too
    pytest.param(dict(n_policy=3), "^n_policy must be 'auto', got 3$", id="n_policy-3"),
    pytest.param(dict(n_policy=0), "^n_policy must be 'auto', got 0$", id="n_policy-0"),
])
def test_plan_validation(kw, match):
    with pytest.raises(ValueError, match=match):
        small_plan(**kw)


@pytest.mark.parametrize("build, kw, match", [
    pytest.param(small_plan, dict(length=math.inf), "length must be a positive number, got inf",
                 id="length-inf"),
    pytest.param(small_plan, dict(tau=-1.0), "tau must be a positive number, got -1.0",
                 id="tau-negative"),
    pytest.param(small_plan, dict(tau=math.nan), "tau must be a positive number, got nan",
                 id="tau-nan"),
    pytest.param(small_plan, dict(theta=-1.0), "theta must be a positive number, got -1.0",
                 id="theta-negative"),
    pytest.param(small_plan, dict(theta=math.inf), "theta must be a positive number, got inf",
                 id="theta-inf"),
    pytest.param(small_plan, dict(refine=0), "refine must be an integer >= 1, got 0",
                 id="refine-0"),
    pytest.param(small_plan, dict(eta_tol=2.0), r"eta_tol must be a number in \(0, 1\)",
                 id="eta_tol-2"),
    pytest.param(small_plan, dict(eta_max_iter=1), "eta_max_iter must be an integer >= 2",
                 id="eta_max_iter-1"),
    pytest.param(small_plan, dict(noise_seed=-1), "noise_seed must be an integer >= 0",
                 id="noise_seed-negative"),
    pytest.param(small_plan, dict(noise_seed=1.5), "noise_seed must be an integer >= 0",
                 id="noise_seed-float"),
    pytest.param(small_plan, dict(eta_seed=-1), "eta_seed must be an integer >= 0",
                 id="eta_seed-negative"),
    pytest.param(small_plan, dict(eta_seed=1.5), "eta_seed must be an integer >= 0",
                 id="eta_seed-float"),
    pytest.param(small_plan, dict(levels=(8.0,)), rf"{LEVELS_RULE}, got \(8.0,\)",
                 id="levels-float"),
    pytest.param(small_plan, dict(levels=(True,)), "levels must be", id="levels-bool"),
    pytest.param(small_plan, dict(levels=(1,)), "levels must be", id="levels-1"),
    pytest.param(small_plan, dict(levels=(0,)), "levels must be", id="levels-0"),
    pytest.param(small_plan, dict(equation="heat"), "equation must be 'schrodinger' or 'wave'",
                 id="equation-heat"),
    pytest.param(small_plan, dict(noise_eps=()), "noise_eps must be", id="noise_eps-empty"),
    # None would draw from OS entropy, a draw that does not repeat
    pytest.param(NoiseSpec, dict(seed=None), "seed must be an integer >= 0, got None",
                 id="noise-seed-None"),
    pytest.param(NoiseSpec, dict(seed=True), "seed must be an integer >= 0, got True",
                 id="noise-seed-True"),
    # a window outside the domain or a truth of the wrong shape failed every
    # row of the plan's sweep; a truth on another length reported an error_x
    pytest.param(small_plan, dict(profile=ObservationProfile(a=-0.1, b=0.8)),
                 "a must be greater than 0, got -0.1",
                 id="window-below-0"),
    pytest.param(small_plan, dict(profile=ObservationProfile(a=0.2, b=1.0)),
                 "b must be less than the length 1.0, got 1.0",
                 id="window-touching-length"),
    pytest.param(small_plan, dict(length=0.5, truth=FieldSpec(length=0.5)),
                 "b must be less than the length 0.5, got 0.8",
                 id="window-past-length"),
    # no profile at all raised an AttributeError from the window check
    pytest.param(small_plan, dict(profile=None),
                 "profile must be an ObservationProfile, got None", id="profile-None"),
    pytest.param(small_plan, dict(equation="wave"),
                 r"wave truth must be a \(position, velocity\) pair, got FieldSpec",
                 id="wave-one-field"),
    pytest.param(small_plan, dict(truth=WAVE_TRUTH),
                 r"schrodinger truth must be a single field, got \(FieldSpec",
                 id="schrodinger-pair"),
    pytest.param(small_plan, dict(equation="wave", truth=(FieldSpec(coefficients=(1j,)),
                                                          FieldSpec())),
                 "wave truth must be real", id="wave-complex"),
    pytest.param(small_plan, dict(truth=FieldSpec(length=2.0)),
                 r"a truth field must be a FieldSpec of the domain's length 1.0, "
                 r"got FieldSpec\(.*length=2.0\)", id="truth-length"),
    pytest.param(small_plan, dict(truth=None), "a truth field must be a FieldSpec of the "
                 "domain's length 1.0, got None", id="truth-None"),
    pytest.param(instance_with, dict(truth=FieldSpec(length=2.0)),
                 r"domain's length 1.0, got FieldSpec\(.*length=2.0\)",
                 id="instance-truth-length"),
    pytest.param(instance_with, dict(equation="wave", truth=(TRUTH, FieldSpec(length=0.5))),
                 r"domain's length 1.0, got FieldSpec\(.*length=0.5\)",
                 id="instance-wave-velocity-length"),
])
def test_inputs_that_would_fail_or_misreport_are_refused_when_built(build, kw, match):
    with pytest.raises(ValueError, match=match):
        build(**kw)


def test_plan_takes_numpy_integers_and_numbers():
    plan = small_plan(levels=(np.int64(8),), noise_seed=np.int32(3), eta_seed=np.uint8(5),
                      refine=np.int64(2), tau=np.float64(1.0), eta_tol=np.float32(1e-3))
    assert run_cell(plan, 8)[0].failure is None


def test_noise_study_requires_baseline():
    with pytest.raises(ValueError, match="baseline"):
        noise_study(small_plan(noise_eps=(1e-3,)))


# -- reports ----------------------------------------------------------------------


def test_csv_layout_and_config_comment():
    plan = small_plan(levels=(8,))
    rows = run_sweep(plan)
    text = rows_to_csv(rows, "power-log2", config={"seed": 7})
    lines = text.strip().split("\n")
    assert lines[0].startswith("# config: ")
    assert json.loads(lines[0][len("# config: "):]) == {"seed": 7}
    assert lines[1] == CSV_HEADER
    fields = lines[2].split(",")
    assert fields[0] == "schrodinger"
    assert float(fields[1]) == 1 / 8
    assert fields[7] == "power-log2"


def test_gates_and_summary():
    plan = small_plan(levels=(8, 16, 32))
    rows = run_sweep(plan)
    fit = fit_rate(rows, model="pure-power")
    gates = evaluate_gates(rows, fit, slope_band=(0.0, 2.0))
    assert gates["no_cell_failures"]
    assert gates["errors_strictly_decrease"]
    assert gates["slope_in_band"]
    summary = summary_dict(plan, rows, fit, gates, config={"x": 1},
                           noise_table=[NoiseRow(8, 0.0, 1.0, 0.0, float("nan"))])
    assert summary["all_gates_pass"]
    assert summary["local_slopes"] == local_slopes(rows) and len(rows) == 3
    text = json.dumps(summary)
    assert "noise_table" in text and "config" in text
    assert "slope" not in rows_to_csv(rows, "power-log2")


def test_noise_table_and_summary_carry_the_noise_gain():
    plan = small_plan(levels=(8,), noise_eps=(0.0, 1e-3))
    rows, table = noise_study(plan)
    assert [t.noise_gain for t in table] == [None, rows[1].noise_gain]
    # the ratio divides by the paper's N, not by the GMRES steps, which at
    # 64 cells are fewer
    fine_rows, fine = noise_study(small_plan(levels=(64,), noise_eps=(0.0, 1e-3)))
    row = fine_rows[1]
    assert row.n_used < row.n_neumann
    assert fine[1].ratio == fine[1].inflation / (row.n_neumann * plan.tau * 1e-3)
    summary = summary_dict(plan, rows, None, {}, noise_table=table)
    assert [r["noise_gain"] for r in summary["rows"]] == [None, rows[1].noise_gain]
    assert summary["noise_table"][1]["noise_gain"] == rows[1].noise_gain
    assert "noise_gain" not in rows_to_csv(rows, "power-log2")
