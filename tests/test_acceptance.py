"""Acceptance suite: one test per gate clause, stated tolerances only.

Run with `pytest tests/test_acceptance.py -s` to see one PASS/FAIL line per
clause.  The two convergence-slope gates assert what the paper's error
estimate gives, an upper bound error <= M (h+dt) ln^2(h+dt): the fitted slope
must reach the lower band edge; a slope above the upper edge is reported,
not failed.  Their lines carry each level's error and envelope ratio.
"""

import math
import time
import warnings

import numpy as np
import pytest

from bafobs.fem import FieldSpec, Mesh1D, ObservationProfile, assemble
from bafobs.harness import (SweepPlan, SweepRow, build_engine, build_noise_table, fit_rate,
                            run_sweep)
from bafobs.linalg import ShiftedSystem, pencil_eigs
from bafobs.models import ProblemInstance, generate_observation
from bafobs.observers import (RATIO_SLACK, BackAndForth, SchrodingerStepper, WaveState,
                              WaveStepper, choose_truncation, run_schrodinger)

from oracles import (combine, exact_damped_schrodinger, neumann_series, norm_alpha,
                     pencil_vectors, schrodinger_history, wave_history)

SCHROD_TRUTH = FieldSpec(kind="sine", coefficients=(1.0, 0.5))
WAVE_TRUTH = (FieldSpec(kind="sine", coefficients=(1.0,)),
              FieldSpec(kind="sine", coefficients=(0.0, 1.0)))
LEVELS = (32, 64, 128, 256)
SLOPE_BAND = (0.8, 1.15)
PROFILE = ObservationProfile(a=0.2, b=0.8, smoothness=2)


def report(criterion: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} -- {detail}")


def schrod_plan(**kw):
    base = dict(equation="schrodinger", levels=LEVELS, tau=1.0,
                truth=SCHROD_TRUTH, profile=PROFILE, kappa=1.0, refine=2,
                n_policy="auto")
    base.update(kw)
    return SweepPlan(**base)


def wave_plan(**kw):
    base = dict(equation="wave", levels=LEVELS, tau=2.0, truth=WAVE_TRUTH,
                profile=PROFILE, kappa=1.0, refine=2, n_policy="auto")
    base.update(kw)
    return SweepPlan(**base)


@pytest.fixture(scope="module")
def schrod_sweep():
    t0 = time.perf_counter()
    rows = run_sweep(schrod_plan())
    return rows, time.perf_counter() - t0


@pytest.fixture(scope="module")
def wave_sweep():
    t0 = time.perf_counter()
    rows = run_sweep(wave_plan())
    return rows, time.perf_counter() - t0


@pytest.fixture(scope="module")
def ops64():
    return assemble(Mesh1D(n_cells=64), PROFILE)


@pytest.fixture(scope="module")
def engines64(ops64):
    return (BackAndForth("schrodinger", ops64, 1.0 / 64, 64),
            BackAndForth("wave", ops64, 1.0 / 64, 128))


# -- criteria 1 and 2: the power-log2 slope gate -------------------------------


def slope_gate(rows):
    """Check a sweep against the power-log2 estimate, read as an upper bound.

    The fully discrete estimate bounds the error by M (h+dt) ln^2(h+dt); it
    does not promise that the error decays no faster.  So only the lower band
    edge is asserted: a fitted slope under SLOPE_BAND[0] means the errors fall
    behind the estimate.  A slope above SLOPE_BAND[1] is reported as decaying
    faster than the estimate.  Returns (ok, detail).
    """
    fit = fit_rate(rows, model="power-log2", theta=1.0)
    ok = fit.slope >= SLOPE_BAND[0]
    levels = ", ".join(
        f"{r.n_cells}: {r.error_x:.3f} "
        f"({r.error_x / ((r.h + r.dt) * math.log(r.h + r.dt) ** 2):.2f})"
        for r in rows)
    detail = (f"slope {fit.slope:.4f}, max residual {fit.max_residual:.4f}, "
              f"dropped_coarsest {fit.dropped_coarsest}; "
              f"cells: error_x (error/envelope) {levels}")
    if fit.slope > SLOPE_BAND[1]:
        detail += (f"; slope above {SLOPE_BAND[1]}: decays faster than the "
                   "estimate")
    return ok, detail


@pytest.mark.parametrize("shape, passes, faster", [
    (lambda x: x, True, True),
    (lambda x: x * math.log(x) ** 2, True, False),
    (lambda x: x ** 0.25, False, False),
], ids=["x", "x_ln2x", "x^0.25"])
def test_slope_gate_on_synthetic_rows(shape, passes, faster):
    # h + dt = 2/n on both acceptance plans (dt = h at every gate level)
    rows = [SweepRow("schrodinger", n, 1.0 / n, 1.0 / n, 1, 0.5, 0.0,
                     0.7 * shape(2.0 / n), 0.0) for n in LEVELS]
    ok, detail = slope_gate(rows)
    assert ok == passes, detail
    assert ("decays faster than the estimate" in detail) == faster, detail


# -- criterion 1: Schrodinger convergence --------------------------------------


def test_criterion_1_errors_strictly_decrease(schrod_sweep):
    rows, _ = schrod_sweep
    errs = [r.error_x for r in rows]
    ok = all(r.failure is None for r in rows) and all(
        b < a for a, b in zip(errs, errs[1:]))
    report("1 (schrodinger errors strictly decrease)", ok,
           "errors " + " ".join(f"{e:.5f}" for e in errs))
    assert ok


def _schrod_mode_split(rows):
    """Measured cause of a criterion-1 shortfall: the truth's modes one by one."""
    c1, c2 = SCHROD_TRUTH.coefficients
    mode1, mode2 = (run_sweep(schrod_plan(truth=FieldSpec(kind="sine",
                                                          coefficients=c)))
                    for c in ((c1,), (0.0, c2)))
    lam2 = (2.0 * math.pi) ** 2
    errs2 = " ".join(f"{r.error_x:.3f}" for r in mode2)
    damping = " ".join(f"{r.dt * lam2 ** 2:.1f}" for r in rows)
    return (f"second mode {c2} sin 2pi x alone: error_x {errs2} against its "
            f"norm {c2 / math.sqrt(2.0):.3f}; first mode alone: "
            f"{slope_gate(mode1)[1]}; backward Euler damps mode 2 at about "
            f"dt*lambda_2^2/2 per unit time, dt*lambda_2^2 = {damping}")


def test_criterion_1_power_log2_slope_in_band(schrod_sweep):
    rows, _ = schrod_sweep
    ok, detail = slope_gate(rows)
    report(f"1 (schrodinger power-log2 slope >= {SLOPE_BAND[0]})", ok, detail)
    assert ok, (
        f"errors decay slower than (h+dt) ln^2(h+dt) at these levels: {detail}. "
        f"Measured per mode: {_schrod_mode_split(rows)}"
    )


def test_criterion_1_runtime_budget(schrod_sweep):
    _, seconds = schrod_sweep
    ok = seconds <= 300.0
    report("1 (schrodinger sweep within 5 min)", ok, f"{seconds:.1f} s")
    assert ok


# -- criterion 2: wave convergence ----------------------------------------------


def test_criterion_2_errors_strictly_decrease(wave_sweep):
    rows, _ = wave_sweep
    errs = [r.error_x for r in rows]
    ok = all(r.failure is None for r in rows) and all(
        b < a for a, b in zip(errs, errs[1:]))
    report("2 (wave errors strictly decrease)", ok,
           "errors " + " ".join(f"{e:.5f}" for e in errs))
    assert ok


def test_criterion_2_power_log2_slope_in_band(wave_sweep):
    rows, _ = wave_sweep
    ok, detail = slope_gate(rows)
    report(f"2 (wave power-log2 slope >= {SLOPE_BAND[0]})", ok, detail)
    assert ok, f"errors decay slower than (h+dt) ln^2(h+dt) at these levels: {detail}"


def test_criterion_2_runtime_budget(wave_sweep):
    _, seconds = wave_sweep
    ok = seconds <= 600.0
    report("2 (wave sweep within 10 min)", ok, f"{seconds:.1f} s")
    assert ok


# -- criterion 3: contraction suite ----------------------------------------------


def test_criterion_3_contraction_suite(ops64, engines64):
    schrod, wave = engines64
    tol = 1e-12
    worst_step = 0.0
    worst_l = 0.0
    st = SchrodingerStepper(ops64, schrod.dt, schrod.n_steps)
    for seed in range(100):
        u = schrod.random_state(seed)
        _, hist = schrodinger_history(st, u)
        norms = [norm_alpha(ops64, q, 0.0) for q in hist]
        worst_step = max(worst_step,
                         max(b / a - 1.0 for a, b in zip(norms, norms[1:])))
        worst_l = max(worst_l, schrod.x_norm(schrod.apply_L(u)) / schrod.x_norm(u) - 1.0)
    wst = WaveStepper(ops64, wave.dt, wave.n_steps)
    for seed in range(100):
        u = wave.random_state(seed)
        _, hist, vels = wave_history(wst, u.pos, u.vel)
        energies = [norm_alpha(ops64, vels[k - 1], 0.0) ** 2
                    + norm_alpha(ops64, hist[k], 0.5) ** 2
                    for k in range(1, wave.n_steps + 1)]
        worst_step = max(worst_step,
                         max(b / a - 1.0 for a, b in zip(energies, energies[1:])))
        worst_l = max(worst_l, wave.x_norm(wave.apply_L(u)) / wave.x_norm(u) - 1.0)
    ok = worst_step <= tol and worst_l <= tol
    report("3 (zero-forcing steps and round trip nonexpanding)", ok,
           f"worst step excess {worst_step:.2e}, worst round-trip excess {worst_l:.2e}")
    assert ok


# -- criterion 4: discrete Duhamel bound ------------------------------------------


def _m_inverse_norm(ops, load):
    msys = ShiftedSystem(ops.mass)
    if np.iscomplexobj(load):
        w = msys.solve(load.real) + 1j * msys.solve(load.imag)
    else:
        w = msys.solve(load)
    return norm_alpha(ops, w, 0.0)


def test_criterion_4_duhamel_bound(ops64, engines64):
    schrod, wave = engines64
    rng = np.random.default_rng(2024)
    ok = True
    worst = 0.0
    st = SchrodingerStepper(ops64, schrod.dt, schrod.n_steps)
    for _ in range(20):
        q0 = rng.standard_normal(ops64.n) + 1j * rng.standard_normal(ops64.n)
        loads = rng.standard_normal((schrod.n_steps, ops64.n)) \
            + 1j * rng.standard_normal((schrod.n_steps, ops64.n))
        max_load = max(_m_inverse_norm(ops64, f) for f in loads)
        _, hist = schrodinger_history(st, q0, loads)
        base = norm_alpha(ops64, q0, 0.0)
        for k in range(1, schrod.n_steps + 1):
            bound = base + k * schrod.dt * max_load * (1 + 10 * schrod.dt)
            ratio = norm_alpha(ops64, hist[k], 0.0) / bound
            worst = max(worst, ratio)
            ok = ok and ratio <= 1.0
    wst = WaveStepper(ops64, wave.dt, wave.n_steps)
    for _ in range(20):
        p0, p1 = rng.standard_normal(ops64.n), rng.standard_normal(ops64.n)
        loads = rng.standard_normal((wave.n_steps, ops64.n))
        max_load = max(_m_inverse_norm(ops64, f) for f in loads)
        _, hist, vels = wave_history(wst, p0, p1, loads)
        base = wave.x_norm(WaveState(p0, p1))
        for k in range(1, wave.n_steps + 1):
            bound = base + k * wave.dt * max_load * (1 + 10 * wave.dt)
            state = WaveState(hist[k], vels[k - 1])
            ratio = wave.x_norm(state) / bound
            worst = max(worst, ratio)
            ok = ok and ratio <= 1.0
    report("4 (discrete Duhamel bound at every step)", ok,
           f"worst state/bound ratio {worst:.4f}")
    assert ok


# -- criterion 5: Neumann tail bound and the solve that replaced the sum -------------


def _tail_check(engine, trace):
    eta = engine.estimate_eta(tol=1e-9, max_iter=400, seed=11)
    terms, sums = neumann_series(engine, trace, 60)
    z0_norm = engine.x_norm(terms[0])
    results = []
    for n in (2, 4, 8):
        dev = engine.x_norm(combine((1.0, sums[-1]), (-1.0, sums[n])))
        bound = eta.value ** (n + 1) / (1 - eta.value) * z0_norm * 1.01
        results.append((n, dev, bound, dev <= bound))
    return eta.value, results


def test_criterion_5_neumann_tail_bound(ops64, engines64):
    schrod, wave = engines64
    inst = ProblemInstance("schrodinger", ops64.mesh, PROFILE, tau=1.0,
                           n_steps=64, truth=SCHROD_TRUTH)
    trace = generate_observation(inst, refine=2)
    eta_s, res_s = _tail_check(schrod, trace)
    instw = ProblemInstance("wave", ops64.mesh, PROFILE, tau=2.0, n_steps=128,
                            truth=WAVE_TRUTH)
    tracew = generate_observation(instw, refine=2)
    eta_w, res_w = _tail_check(wave, tracew)
    ok = all(r[3] for r in res_s + res_w)
    detail = "; ".join(f"{eq} N={n} dev/bound={dev/bound:.3f}"
                       for eq, rs in (("schrod", res_s), ("wave", res_w))
                       for n, dev, bound, _ in rs)
    report("5 (Neumann tail within geometric bound)", ok,
           f"eta_s={eta_s:.4f} eta_w={eta_w:.4f}; {detail}")
    assert ok


def test_criterion_5_ritz_values_stay_under_eta_hat():
    # the solve warns when a Ritz value of L on its Krylov space passes
    # eta_hat by more than RATIO_SLACK; on both acceptance plans none does
    rows = []
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for plan in (schrod_plan(), wave_plan()):
            rows += run_sweep(plan)
    worst = max(r.ritz_max / r.eta_hat for r in rows)
    ok = all(r.failure is None for r in rows) and worst <= 1.0 + RATIO_SLACK
    report("5 (Ritz values of the solve within eta_hat)", ok,
           " ".join(f"{r.equation[0]}{r.n_cells}: {r.ritz_max / r.eta_hat:.4f}" for r in rows))
    assert ok


def _solve_against_the_neumann_sum(plan, rows):
    """Per level: (n_cells, solve steps m, the paper's N, relX of the solve,
    relX of the N-term Neumann sum), relX = ||x - x_60||_X / ||x_60||_X
    against the 60-term sum x_60, the solve at the row's eta_hat."""
    cells = []
    for row in rows:
        k = plan.n_steps(row.n_cells)
        engine = build_engine(plan.equation, row.n_cells, plan.length, plan.profile,
                              plan.tau / k, k)
        trace = generate_observation(ProblemInstance(plan.equation, engine.ops.mesh,
                                                     plan.profile, plan.tau, k, plan.truth),
                                     refine=plan.refine)
        solve = engine.neumann_reconstruct(trace, eta_hat=row.eta_hat, theta=plan.theta)
        assert solve.n_used == row.n_used
        n = max(row.n_neumann, 1)
        _, sums = neumann_series(engine, trace, 60)

        def rel(x):
            return engine.x_norm(combine((1.0, x), (-1.0, sums[-1]))) / engine.x_norm(sums[-1])

        cells.append((row.n_cells, row.n_used, n, rel(solve.estimate), rel(sums[n])))
    return cells


@pytest.mark.parametrize("name", ["schrodinger", "wave", "schrodinger-time-refined",
                                  "schrodinger-512"])
def test_criterion_5_solve_takes_no_more_steps_than_the_neumann_sum(request, name):
    # on both acceptance plans, the time-refined plan (configs/) and the
    # benchmark's 512-cell Schrodinger level, the solve stops within the
    # paper's N round trips and lands no farther from the converged Neumann
    # series than the N-term sum does
    if name in ("schrodinger", "wave"):
        plan = schrod_plan() if name == "schrodinger" else wave_plan()
        rows = request.getfixturevalue(f"{'schrod' if name == 'schrodinger' else name}_sweep")[0]
    else:
        plan = (schrod_plan(levels=(16, 32, 64, 128, 256), kappa=1 / 32)
                if name == "schrodinger-time-refined" else schrod_plan(levels=(512,)))
        rows = run_sweep(plan)
    cells = _solve_against_the_neumann_sum(plan, rows)
    ok = all(m <= n and rel_solve <= rel_sum for _, m, n, rel_solve, rel_sum in cells)
    report(f"5 ({name}: solve steps m <= N, relX no worse than the N-term sum)", ok,
           " ".join(f"{c}: m={m} N={n} relX {rs:.2e} vs {rn:.2e}"
                    for c, m, n, rs, rn in cells))
    assert ok


# -- criterion 6: truncation rule -------------------------------------------------


def test_criterion_6_truncation_rule_table():
    # expected values derived by hand from ceil(ln(h^theta + dt) / ln eta);
    # dt = 0 is the semi-discrete case
    cases = [
        (0.01, 0.01, 1.0, 0.5, 6),      # ceil(5.6439)
        (0.5, 0.5, 1.0, 0.5, 0),        # ln 1 = 0
        (0.9, 0.2, 1.0, 0.5, 0),        # positive log, floored
        (0.05, 0.001, 1.0, 0.8, 14),    # ceil(13.336)
        (0.1, 1e-6, 1.0, 0.3, 2),       # ceil(1.9124)
        (0.2, 0.05, 2.0, 0.6, 5),       # ceil(4.7138)
        (0.1, 0.0, 1.0, 0.1, 1),        # equal logarithms
        (0.1, 0.0, 2.0, 0.1, 2),
        (0.25, 0.0, 1.0, 0.7, 4),       # ceil(3.8869)
        (0.5, 0.0, 1.0, 0.5, 1),
    ]
    got = [choose_truncation(h=h, dt=dt, theta=theta, eta_hat=eta)
           for h, dt, theta, eta, _ in cases]
    expected = [c[-1] for c in cases]
    ok = got == expected
    report("6 (truncation rule on derived table)", ok, f"{got} vs {expected}")
    assert ok


# -- criterion 7: noise robustness -------------------------------------------------


def _noise_ratios(plan):
    rows = run_sweep(plan)
    table = build_noise_table(rows, plan.tau)
    clean = [t for t in table if t.noise_eps == 0.0][0]
    ratios = {t.noise_eps: t.ratio for t in table if t.noise_eps > 0.0}
    return clean, ratios


def test_criterion_7_noise_inflation_ratio_stable(schrod_sweep, wave_sweep):
    eps_list = (0.0, 1e-3, 1e-2)
    clean_s, ratios_s = _noise_ratios(schrod_plan(levels=(128,), noise_eps=eps_list))
    clean_w, ratios_w = _noise_ratios(wave_plan(levels=(128,), noise_eps=eps_list))
    stable = []
    for ratios in (ratios_s, ratios_w):
        lo, hi = sorted(abs(r) for r in ratios.values())
        stable.append(hi <= 3.0 * lo)
    row_s = [r for r in schrod_sweep[0] if r.n_cells == 128][0]
    row_w = [r for r in wave_sweep[0] if r.n_cells == 128][0]
    bit_exact = (clean_s.error_x == row_s.error_x
                 and clean_w.error_x == row_w.error_x)
    ok = all(stable) and bit_exact
    report("7 (noise inflation ratio stable, eps=0 bit-exact)", ok,
           f"schrod ratios {ratios_s}, wave ratios {ratios_w}, "
           f"bit_exact={bit_exact}")
    assert ok


# -- criterion 8: oracle agreement --------------------------------------------------


def test_criterion_8_exponential_oracle_first_order():
    mesh = Mesh1D(n_cells=8)
    ops = assemble(mesh, PROFILE)
    pe = pencil_eigs(ops.stiffness, ops.mass)
    q0 = (1.0 + 0.5j) * pencil_vectors(pe)[:, 0]
    t_final = 0.5
    reference = exact_damped_schrodinger(ops, +1, t_final, q0)
    errs = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        st = SchrodingerStepper(ops, dt, round(t_final / dt))
        errs.append(norm_alpha(ops, run_schrodinger(st, q0) - reference, 0.0))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    ok = errs[0] > errs[1] > errs[2] and all(0.8 <= o <= 1.2 for o in orders)
    report("8 (damped evolution matches exponential oracle at first order)",
           ok, f"errors {[f'{e:.3e}' for e in errs]}, orders "
           f"{[f'{o:.3f}' for o in orders]}")
    assert ok


# -- criterion 9: round-trip adjointness ---------------------------------------------


def test_criterion_9_schrodinger_self_adjoint(engines64):
    schrod, _ = engines64
    worst = 0.0
    for seed in range(50):
        u = schrod.random_state(seed)
        v = schrod.random_state(1000 + seed)
        defect = abs(schrod.x_inner(schrod.apply_L(u), v)
                     - schrod.x_inner(u, schrod.apply_L(v)))
        worst = max(worst, defect / (schrod.x_norm(u) * schrod.x_norm(v)))
    ok = worst <= 1e-10
    report("9a (schrodinger round trip self-adjoint)", ok,
           f"worst relative defect {worst:.2e}")
    assert ok


def test_criterion_9_wave_defect_shrinks(ops64):
    V = pencil_vectors(pencil_eigs(ops64.stiffness, ops64.mass))

    def smooth_state(seed):
        rng = np.random.default_rng(seed)
        return WaveState(V[:, :3] @ rng.standard_normal(3),
                         V[:, :3] @ rng.standard_normal(3))

    def worst_defect(n_steps):
        engine = BackAndForth("wave", ops64, 2.0 / n_steps, n_steps)
        worst = 0.0
        for seed in range(8):
            u, v = smooth_state(seed), smooth_state(100 + seed)
            d = abs(engine.x_inner(engine.apply_L(u), v)
                    - engine.x_inner(u, engine.apply_L(v)))
            worst = max(worst, d / (engine.x_norm(u) * engine.x_norm(v)))
        return worst

    d_coarse, d_fine = worst_defect(128), worst_defect(256)
    ok = d_fine <= d_coarse / 1.8
    report("9b (wave symmetry defect shrinks >= 1.8x under dt halving)", ok,
           f"defect {d_coarse:.3e} -> {d_fine:.3e} "
           f"(factor {d_coarse / max(d_fine, 1e-300):.2f})")
    assert ok
