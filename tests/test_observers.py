import itertools
import math
import re
import tracemalloc
import warnings
from dataclasses import replace
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bafobs import linalg
from bafobs.fem import FieldSpec, Mesh1D, ObservationProfile, assemble
from bafobs.linalg import SymTridiag, pencil_eigs
from bafobs.models import ProblemInstance, generate_observation
from bafobs import observers
from bafobs.observers import (AUTO_N_CAP, RATIO_SLACK, BackAndForth, EtaEstimate,
                              ObservationTrace, SchrodingerStepper, WaveState, WaveStepper,
                              arnoldi_iteration, choose_truncation, gmres,
                              run_schrodinger, run_wave)

from oracles import (backward_schrodinger_stepper, combine, dense, dense_round_trip,
                     dense_schrodinger_pass, dense_wave_pass, exact_damped_schrodinger,
                     list_arnoldi, neumann_series, norm_alpha, old_apply_L,
                     old_backward_observer, old_first_iterate, old_neumann_estimate,
                     padded_arnoldi_process, pencil_vectors, power_iteration,
                     schrodinger_history, wave_history)


@pytest.fixture(scope="module")
def small():
    mesh = Mesh1D(n_cells=16)
    return mesh, assemble(mesh, ObservationProfile())


@pytest.fixture(scope="module")
def engines():
    mesh = Mesh1D(n_cells=32)
    ops = assemble(mesh, ObservationProfile())
    schrod = BackAndForth("schrodinger", ops, mesh.h, 32)
    wave = BackAndForth("wave", ops, mesh.h, 64)
    return ops, schrod, wave


KERNELS = pytest.mark.parametrize("kernel", ["openblas-gttrs", "thomas"], indirect=True)


@pytest.fixture
def kernel(request, monkeypatch):
    """The tridiagonal kernel a ``KERNELS`` test runs on; "thomas" forces the
    fallback.  It patches before the test builds a stepper, which binds its
    solves and products when it is built."""
    if request.param == "thomas":
        monkeypatch.setattr(linalg, "_lapack", lambda: None)
    elif linalg._lapack() is None:
        pytest.skip("this numpy bundles no OpenBLAS with zgttrs/dpttrs")
    assert linalg.solver_kernel() == request.param
    return request.param


# -- steppers -----------------------------------------------------------------


def conjugated(run, q0, data=None):
    """The backward (+i dt) Schrodinger scheme as the package runs it: a
    forward run on the conjugated start and loads (or outputs), conjugated
    back."""
    out = run(np.conj(q0), None if data is None else np.conj(data))
    return tuple(map(np.conj, out)) if isinstance(out, tuple) else np.conj(out)


def driven(run, stepper):
    """run(stepper, start..., outputs=rows) as a function of (start..., rows)."""
    return lambda *args: run(stepper, *args[:-1], outputs=args[-1])


def test_schrodinger_zero_data_stays_zero(small):
    mesh, ops = small
    st = SchrodingerStepper(ops, 0.05, 10)
    q, hist = schrodinger_history(st, np.zeros(mesh.n, complex))
    assert np.all(q == 0) and np.all(hist == 0)


def test_schrodinger_m_norm_nonincreasing_without_forcing(small):
    mesh, ops = small
    rng = np.random.default_rng(5)
    history = partial(schrodinger_history, SchrodingerStepper(ops, mesh.h, 24))
    for sign in (+1, -1):
        q0 = rng.standard_normal(mesh.n) + 1j * rng.standard_normal(mesh.n)
        _, hist = history(q0) if sign > 0 else conjugated(history, q0)
        norms = [norm_alpha(ops, h_, 0.0) for h_ in hist]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(norms, norms[1:]))


def test_schrodinger_nodamping_norm_nonincreasing(small):
    mesh, _ = small
    ops0 = assemble(mesh, ObservationProfile.constant(0.0))
    rng = np.random.default_rng(6)
    st = SchrodingerStepper(ops0, mesh.h, 16)
    q0 = rng.standard_normal(mesh.n) + 1j * rng.standard_normal(mesh.n)
    _, hist = schrodinger_history(st, q0)
    norms = [norm_alpha(ops0, h_, 0.0) for h_ in hist]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(norms, norms[1:]))


@pytest.mark.parametrize("forced", [False, True])
def test_history_helpers_end_at_the_stepping_loops_state(small, forced):
    # the history-based tests read the oracle helpers, so their last states
    # must be exactly what the package's own loops return
    mesh, ops = small
    rng = np.random.default_rng(13)
    n_steps = 10
    outputs = rng.standard_normal((n_steps, mesh.n)) if forced else None
    coutputs = None if outputs is None else outputs + 1j * outputs[::-1]
    loads, cloads = (None if y is None else ops.output_gram.matvec(y)
                     for y in (outputs, coutputs))
    st = SchrodingerStepper(ops, 0.05, n_steps)
    q0 = rng.standard_normal(mesh.n) + 1j * rng.standard_normal(mesh.n)
    final, hist = schrodinger_history(st, q0, cloads)
    expected = run_schrodinger(st, q0, outputs=coutputs)
    assert hist.shape == (n_steps + 1, mesh.n) and np.array_equal(hist[0], q0)
    assert np.array_equal(hist[-1], expected) and np.array_equal(final, expected)
    wst = WaveStepper(ops, 0.05, n_steps)
    p0, p1 = rng.standard_normal(mesh.n), rng.standard_normal(mesh.n)
    final, pos, vel = wave_history(wst, p0, p1, loads)
    expected = run_wave(wst, p0, p1, outputs=outputs)
    n = mesh.n
    assert pos.shape == (n_steps + 1, n) and vel.shape == (n_steps, n)
    assert np.array_equal(pos[-1], expected[:n]) and np.array_equal(vel[-1], expected[n:])
    assert np.array_equal(final.pos, expected[:n])
    assert np.array_equal(final.vel, expected[n:])


@KERNELS
@pytest.mark.parametrize("n_cells", [2, 33])
@pytest.mark.parametrize("n_steps", [7, 8])
@pytest.mark.parametrize("forced", [False, True])
def test_stepping_loops_match_the_per_step_oracle(kernel, n_cells, n_steps, forced):
    # the loops reuse their buffers and alternate them by the parity of k;
    # the oracle forms every product and right-hand side afresh
    mesh = Mesh1D(n_cells=n_cells)        # 2 cells: one node, no off-diagonal
    ops = assemble(mesh, ObservationProfile())
    n = mesh.n
    rng = np.random.default_rng(100 * n_cells + n_steps)
    outputs = rng.standard_normal((n_steps, n)) if forced else None
    coutputs = None if outputs is None else outputs + 1j * rng.standard_normal((n_steps, n))
    loads, cloads = (None if y is None else ops.output_gram.matvec(y)
                     for y in (outputs, coutputs))
    q0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    p0, p1 = rng.standard_normal(n), rng.standard_normal(n)
    given = (q0, p0, p1) + ((outputs, coutputs) if forced else ())
    copies = [a.copy() for a in given]
    st = SchrodingerStepper(ops, 0.05, n_steps)
    expected, _ = schrodinger_history(st, q0, cloads)
    assert np.array_equal(run_schrodinger(st, q0, outputs=coutputs), expected)
    # the backward scheme: the forward loop under conjugation, against its own system
    expected, _ = schrodinger_history(backward_schrodinger_stepper(ops, 0.05, n_steps),
                                      q0, cloads)
    assert np.array_equal(conjugated(driven(run_schrodinger, st), q0, coutputs), expected)
    wst = WaveStepper(ops, 0.05, n_steps)
    expected, _, _ = wave_history(wst, p0, p1, loads)
    out = run_wave(wst, p0, p1, outputs=outputs)
    assert np.array_equal(out[:n], expected.pos) and np.array_equal(out[n:], expected.vel)
    # the loops work in their own buffers and leave their inputs alone
    assert all(np.array_equal(a, b) for a, b in zip(given, copies))


@pytest.mark.parametrize("n_cells", [2, 17])
@pytest.mark.parametrize("equation, n_steps",
                         [("schrodinger", k) for k in (1, 31, 32, 33, 70)]
                         + [("wave", k) for k in (2, 32, 33, 65)])
def test_output_driven_passes_match_the_loads_driven_oracle(n_cells, equation, n_steps):
    # the passes form their loads LOAD_BLOCK = 32 output rows at a time (the
    # wave's from y^2 on); the oracles take all K loads formed at once.  The
    # step counts fall below, at and past a block, and off its multiples.
    ops = assemble(Mesh1D(n_cells=n_cells), ObservationProfile())
    dt = 0.05
    rng = np.random.default_rng(1000 * n_cells + n_steps)
    samples = rng.standard_normal((n_steps + 1, ops.n))
    if equation == "schrodinger":
        samples = samples + 1j * rng.standard_normal(samples.shape)
    copy = samples.copy()
    gram = ops.output_gram.matvec
    for outputs in (samples[1:], samples[::-1][1:]):      # rows, and a reversed view
        if equation == "schrodinger":
            st = SchrodingerStepper(ops, dt, n_steps)
            q0 = rng.standard_normal(ops.n) + 1j * rng.standard_normal(ops.n)
            expected, _ = schrodinger_history(st, q0, gram(outputs))
            assert np.array_equal(run_schrodinger(st, q0, outputs=outputs), expected)
        else:
            wst = WaveStepper(ops, dt, n_steps)
            p0, p1 = rng.standard_normal(ops.n), rng.standard_normal(ops.n)
            expected, _, _ = wave_history(wst, p0, p1, gram(outputs))
            out = run_wave(wst, p0, p1, outputs=outputs)
            assert np.array_equal(out[:ops.n], expected.pos)
            assert np.array_equal(out[ops.n:], expected.vel)
    # through the observers: the backward pass reads the reversed rows (the
    # Schrodinger one conjugated as it reads them), and the Neumann sum of
    # the first iterate composes them
    engine = BackAndForth(equation, ops, dt, n_steps)
    trace = ObservationTrace(equation, samples, n_steps * dt, dt)
    state = engine.random_state(n_steps)
    for got, expected in (
            (engine.backward_observer(trace, state), old_backward_observer(engine, trace, state)),
            (engine.first_iterate(trace), old_first_iterate(engine, trace)),
            (neumann_series(engine, trace, 2)[1][-1], old_neumann_estimate(engine, trace, 2))):
        if equation == "wave":
            assert np.array_equal(got.pos, expected.pos)
            got, expected = got.vel, expected.vel
        assert np.array_equal(got, expected)
    assert np.array_equal(samples, copy)


def test_first_iterate_memory_is_a_fraction_of_the_trace():
    # the passes hold O(LOAD_BLOCK n) of loads, not two trace-sized arrays,
    # for either equation
    ops = assemble(Mesh1D(n_cells=1024), ObservationProfile())
    n_steps = 1024
    rng = np.random.default_rng(8)
    real = rng.standard_normal((n_steps + 1, ops.n))
    for equation, samples in (("schrodinger", real + 1j * rng.standard_normal(real.shape)),
                              ("wave", real)):
        trace = ObservationTrace(equation, samples, 1.0, 1.0 / n_steps)
        engine = BackAndForth(equation, ops, trace.dt, n_steps)
        tracemalloc.start()
        try:
            engine.first_iterate(trace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * samples.nbytes, equation


@KERNELS
@pytest.mark.parametrize("equation", ["schrodinger", "wave"])
def test_repeat_passes_on_one_stepper_match_fresh_steppers(kernel, equation):
    # a stepper binds its buffers once and every pass reuses them: each of a
    # run of passes, driven or not, forward or reversed, gives the bits of the
    # same pass on a fresh stepper, and returns a new array, which no later
    # pass writes into and which the caller may overwrite
    ops = assemble(Mesh1D(n_cells=17), ObservationProfile())
    dt, n_steps, n = 0.05, 40, ops.n
    rng = np.random.default_rng(21)
    samples = rng.standard_normal((n_steps + 1, n))
    if equation == "schrodinger":
        samples = samples + 1j * rng.standard_normal(samples.shape)
    make = SchrodingerStepper if equation == "schrodinger" else WaveStepper

    def run(stepper, start, outputs):
        if equation == "schrodinger":
            return run_schrodinger(stepper, start, outputs=outputs)
        return run_wave(stepper, start[:n], start[n:], outputs=outputs)

    size = n if equation == "schrodinger" else 2 * n
    starts = [rng.standard_normal(size) + (1j * rng.standard_normal(size)
                                           if equation == "schrodinger" else 0.0)
              for _ in range(4)]
    passes = list(zip(starts, (None, samples[1:], samples[::-1][1:], None)))
    stepper = make(ops, dt, n_steps)
    results = []
    for start, outputs in passes * 2:
        got = run(stepper, start, outputs)
        assert np.array_equal(got, run(make(ops, dt, n_steps), start, outputs))
        results.append((got, got.copy()))
    assert all(np.array_equal(got, kept) for got, kept in results)
    for got, _ in results:
        got[:] = np.nan
    for (start, outputs), (_, kept) in zip(passes, results):
        assert np.array_equal(run(stepper, start, outputs), kept)


@pytest.mark.parametrize("equation", ["schrodinger", "wave"])
def test_reversed_rows_take_the_lapack_product(monkeypatch, equation):
    # the backward pass reads y^{K-k}, a reversed view of the trace, in forward
    # order a block at a time: every block is C-contiguous and takes ?lagtm,
    # as do the stepping loops' own products, so no pass runs the numpy product
    if linalg._lapack() is None:
        pytest.skip("this numpy bundles no OpenBLAS with ?lagtm")
    ops = assemble(Mesh1D(n_cells=17), ObservationProfile())
    dt, n_steps = 0.05, 70              # past two blocks, off their multiple
    rng = np.random.default_rng(22)
    samples = rng.standard_normal((n_steps + 1, ops.n))
    if equation == "schrodinger":
        samples = samples + 1j * rng.standard_normal(samples.shape)
    trace = ObservationTrace(equation, samples, n_steps * dt, dt)
    engine = BackAndForth(equation, ops, dt, n_steps)
    state = engine.random_state(5)
    expected = (old_backward_observer(engine, trace, state), old_first_iterate(engine, trace))

    def refuse(*args):
        raise AssertionError("a pass ran the numpy product")

    monkeypatch.setattr(SymTridiag, "_numpy_product", refuse)
    got = (engine.backward_observer(trace, state), engine.first_iterate(trace))
    for a, b in zip(got, expected):
        if equation == "wave":
            assert np.array_equal(a.pos, b.pos)
            a, b = a.vel, b.vel
        assert np.array_equal(a, b)


@settings(max_examples=100, deadline=None)
@given(n_cells=st.integers(2, 80), dt=st.floats(1e-4, 1.0),
       a=st.floats(0.05, 0.45), seed=st.integers(0, 2 ** 32 - 1))
def test_stacked_wave_product_is_the_two_products_bit_for_bit(n_cells, dt, a, seed):
    # [M 0; 0 W] and [W 0; 0 M], W = 2M + dt B, over the flat (2, n) history:
    # the zero coupling at the join adds only +-0 to the two separate products
    mesh = Mesh1D(n_cells=n_cells)
    ops = assemble(mesh, ObservationProfile(a=a, b=1.0 - a / 2))
    mass, damping = ops.mass, ops.damping_gram
    weight = SymTridiag(2.0 * mass.diag + dt * damping.diag,
                        2.0 * mass.off + dt * damping.off)
    rng = np.random.default_rng(seed)
    history = rng.standard_normal((2, mesh.n)) * 10.0 ** rng.integers(-8, 8, (2, mesh.n))
    history[:, rng.integers(mesh.n)] = 0.0
    flat, got = history.reshape(-1), np.empty(2 * mesh.n)
    # the bound product, as run_wave forms it, on each kernel, the stepper
    # built under it as it binds its own products
    for lapack in (linalg._lapack, lambda: None):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(linalg, "_lapack", lapack)
            stepper = WaveStepper(ops, dt, 2)
            for stacked, (upper, lower) in zip(stepper._stacked,
                                               ((mass, weight), (weight, mass))):
                stacked.bind(flat, got, np.empty(2 * mesh.n - 1))()
                assert np.array_equal(got[:mesh.n], upper.matvec(history[0]))
                assert np.array_equal(got[mesh.n:], lower.matvec(history[1]))


def test_schrodinger_matches_dense_transcription(small):
    mesh, ops = small
    rng = np.random.default_rng(9)
    q0 = rng.standard_normal(mesh.n) + 1j * rng.standard_normal(mesh.n)
    outputs = rng.standard_normal((12, mesh.n)) + 1j * rng.standard_normal((12, mesh.n))
    loads = dense(ops.output_gram) @ outputs.T
    run = driven(run_schrodinger, SchrodingerStepper(ops, 0.03, 12))
    for sign in (+1, -1):
        mine = run(q0, outputs) if sign > 0 else conjugated(run, q0, outputs)
        reference = dense_schrodinger_pass(ops, sign, 0.03, 12, q0, loads.T)
        assert np.max(np.abs(mine - reference)) < 1e-12


def test_schrodinger_first_order_against_exponential_oracle():
    mesh = Mesh1D(n_cells=8)
    ops = assemble(mesh, ObservationProfile())
    pe = pencil_eigs(ops.stiffness, ops.mass)
    q0 = (1.0 + 0.5j) * pencil_vectors(pe)[:, 0]
    t_final = 0.5
    reference = exact_damped_schrodinger(ops, +1, t_final, q0)
    errs = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        st = SchrodingerStepper(ops, dt, round(t_final / dt))
        errs.append(norm_alpha(ops, run_schrodinger(st, q0) - reference, 0.0))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(0.8 <= o <= 1.2 for o in orders)


def wave_energy(ops, pos, vel):
    return 0.5 * (norm_alpha(ops, vel, 0.0) ** 2 + norm_alpha(ops, pos, 0.5) ** 2)


def test_wave_zero_data_stays_zero(small):
    mesh, ops = small
    st = WaveStepper(ops, 0.05, 8)
    final, hist, vels = wave_history(st, np.zeros(mesh.n), np.zeros(mesh.n))
    assert np.all(hist == 0) and np.all(vels == 0)
    assert np.all(final.pos == 0) and np.all(final.vel == 0)


def test_wave_energy_nonincreasing_any_damping(small):
    mesh, ops = small
    rng = np.random.default_rng(10)
    st = WaveStepper(ops, mesh.h, 24)
    p0, p1 = rng.standard_normal(mesh.n), rng.standard_normal(mesh.n)
    _, hist, vels = wave_history(st, p0, p1)
    energies = [wave_energy(ops, hist[k], vels[k - 1]) for k in range(1, 25)]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(energies, energies[1:]))


def test_wave_single_mode_energy_within_first_order_of_constant():
    mesh = Mesh1D(n_cells=16)
    ops = assemble(mesh, ObservationProfile.constant(0.0))
    pe = pencil_eigs(ops.stiffness, ops.mass)
    v, lam = pencil_vectors(pe)[:, 0], pe.values[0]
    period = 2 * math.pi / math.sqrt(lam)
    drops = []
    for steps_per_period in (64, 128):
        dt = period / steps_per_period
        st = WaveStepper(ops, dt, steps_per_period)
        _, hist, vels = wave_history(st, v, np.zeros(mesh.n))
        energies = [wave_energy(ops, hist[k], vels[k - 1])
                    for k in range(1, steps_per_period + 1)]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(energies, energies[1:]))
        drops.append(1.0 - energies[-1] / energies[0])
    # undamped single mode: energy loss over one period is O(dt) and halves
    assert drops[1] < drops[0]
    assert 1.6 <= drops[0] / drops[1] <= 2.4


def test_wave_matches_dense_transcription(small):
    mesh, ops = small
    rng = np.random.default_rng(12)
    p0, p1 = rng.standard_normal(mesh.n), rng.standard_normal(mesh.n)
    outputs = rng.standard_normal((10, mesh.n))
    st = WaveStepper(ops, 0.04, 10)
    final = run_wave(st, p0, p1, outputs=outputs)
    ref_pos, ref_vel = dense_wave_pass(ops, 0.04, 10, p0, p1,
                                       (dense(ops.output_gram) @ outputs.T).T)
    assert np.max(np.abs(final[:mesh.n] - ref_pos)) < 1e-12
    assert np.max(np.abs(final[mesh.n:] - ref_vel)) < 1e-12


def test_wave_richardson_self_convergence():
    mesh = Mesh1D(n_cells=8)
    ops = assemble(mesh, ObservationProfile())
    V = pencil_vectors(pencil_eigs(ops.stiffness, ops.mass))
    p0 = V[:, 0] + 0.3 * V[:, 1]
    p1 = 0.5 * V[:, 0]
    tau = 1.0
    reference = run_wave(WaveStepper(ops, tau / 320, 320), p0, p1)
    errs = []
    for K in (20, 40):
        out = run_wave(WaveStepper(ops, tau / K, K), p0, p1)
        errs.append(norm_alpha(ops, out[:mesh.n] - reference[:mesh.n], 0.5)
                    + norm_alpha(ops, out[mesh.n:] - reference[mesh.n:], 0.0))
    assert 1.6 <= errs[0] / errs[1] <= 2.4


def test_stepper_validation(small):
    mesh, ops = small
    with pytest.raises(ValueError):
        SchrodingerStepper(ops, -0.1, 4)
    with pytest.raises(ValueError):
        WaveStepper(ops, 0.1, 1)
    st, wst = SchrodingerStepper(ops, 0.1, 4), WaveStepper(ops, 0.1, 4)
    zero = np.zeros(mesh.n)
    run = (partial(run_schrodinger, st, zero), partial(run_wave, wst, zero, zero))
    # outputs is keyword-only: the old positional loads fail instead of
    # silently driving the pass as output rows
    for pass_ in run:
        with pytest.raises(TypeError):
            pass_(np.zeros((4, mesh.n)))
        for shape in ((3, mesh.n), (4, mesh.n + 1), (mesh.n,), (4, 1, mesh.n)):
            with pytest.raises(ValueError, match="one output row per step"):
                pass_(outputs=np.zeros(shape))


# -- observers ----------------------------------------------------------------


def _zero_trace(equation, n, n_steps, dt):
    dtype = complex if equation == "schrodinger" else float
    return ObservationTrace(equation, np.zeros((n_steps + 1, n), dtype),
                            n_steps * dt, dt)


def test_forward_observer_zero_output_gives_zero(engines):
    ops, schrod, wave = engines
    trace = _zero_trace("schrodinger", ops.n, schrod.n_steps, schrod.dt)
    assert np.all(schrod.forward_observer(trace) == 0)
    tracew = _zero_trace("wave", ops.n, wave.n_steps, wave.dt)
    out = wave.forward_observer(tracew)
    assert np.all(out.pos == 0) and np.all(out.vel == 0)


def test_forward_observer_linear_in_trace(engines):
    ops, schrod, _ = engines
    truth = FieldSpec(kind="sine", coefficients=(1.0, 0.5))
    inst = ProblemInstance("schrodinger", ops.mesh, ops.profile, tau=1.0,
                           n_steps=32, truth=truth)
    trace = generate_observation(inst, refine=2)
    doubled = ObservationTrace("schrodinger", 2.0 * trace.samples, trace.tau,
                               trace.dt)
    one = schrod.forward_observer(trace)
    two = schrod.forward_observer(doubled)
    assert np.max(np.abs(two - 2.0 * one)) <= 1e-12 * np.max(np.abs(one))


def test_forward_observer_duhamel_bound(engines):
    ops, schrod, _ = engines
    rng = np.random.default_rng(21)
    samples = rng.standard_normal((33, ops.n)) + 1j * rng.standard_normal((33, ops.n))
    trace = ObservationTrace("schrodinger", samples, 1.0, 1.0 / 32)
    from bafobs.linalg import ShiftedSystem
    loads = ops.output_gram.matvec(trace.samples[1:])
    msys = ShiftedSystem(ops.mass)
    def load_norm(f):
        w = msys.solve(f.real) + 1j * msys.solve(f.imag)
        return norm_alpha(ops, w, 0.0)
    max_load = max(load_norm(f) for f in loads)
    st = SchrodingerStepper(ops, schrod.dt, schrod.n_steps)
    _, hist = schrodinger_history(st, np.zeros(ops.n, complex), loads)
    for k in range(1, schrod.n_steps + 1):
        bound = k * schrod.dt * max_load * (1 + 10 * schrod.dt)
        assert norm_alpha(ops, hist[k], 0.0) <= bound


def test_backward_observer_zero_everything(engines):
    ops, schrod, wave = engines
    trace = _zero_trace("schrodinger", ops.n, schrod.n_steps, schrod.dt)
    out = schrod.backward_observer(trace, np.zeros(ops.n, complex))
    assert np.all(out == 0)
    tracew = _zero_trace("wave", ops.n, wave.n_steps, wave.dt)
    outw = wave.backward_observer(tracew, wave.zero_state())
    assert np.all(outw.pos == 0) and np.all(outw.vel == 0)


def test_roundtrip_without_damping_norm_gap_first_order():
    mesh = Mesh1D(n_cells=8)
    ops = assemble(mesh, ObservationProfile.constant(0.0))
    pe = pencil_eigs(ops.stiffness, ops.mass)
    q0 = pencil_vectors(pe)[:, 0].astype(complex)
    gaps = []
    for K in (400, 800):
        bf = BackAndForth("schrodinger", ops, 1.0 / K, K)
        out = bf.apply_L(q0)
        ratio = norm_alpha(ops, out, 0.0) / norm_alpha(ops, q0, 0.0)
        assert ratio <= 1.0 + 1e-12
        gaps.append(1.0 - ratio)
    assert 1.7 <= gaps[0] / gaps[1] <= 2.3


def test_backward_self_convergence_with_data(engines):
    ops, _, _ = engines
    mesh = ops.mesh
    truth = FieldSpec(kind="sine", coefficients=(1.0,))

    def first_iterate(n_steps):
        inst = ProblemInstance("schrodinger", mesh, ops.profile, tau=1.0,
                               n_steps=n_steps, truth=truth)
        trace = generate_observation(inst, refine=1)
        bf = BackAndForth("schrodinger", ops, inst.dt, n_steps)
        return bf.first_iterate(trace)

    errs = [norm_alpha(ops, first_iterate(K) - first_iterate(16 * K), 0.0)
            for K in (128, 256)]
    assert 1.6 <= errs[0] / errs[1] <= 2.4


def test_forced_observers_match_dense_two_pass():
    # forward + backward with data, literal dense transcription on both sides
    mesh = Mesh1D(n_cells=12)
    prof = ObservationProfile()
    ops = assemble(mesh, prof)
    dt, K = mesh.h, 12
    inst = ProblemInstance("schrodinger", mesh, prof, tau=dt * K, n_steps=K,
                           truth=FieldSpec(kind="sine", coefficients=(1.0, 0.5)))
    trace = generate_observation(inst, refine=2)
    loads_fwd = ops.output_gram.matvec(trace.samples[1:])
    loads_bwd = ops.output_gram.matvec(trace.samples[::-1][1:])
    zplus = dense_schrodinger_pass(ops, +1, dt, K, np.zeros(mesh.n, complex),
                                   loads_fwd)
    zminus = dense_schrodinger_pass(ops, -1, dt, K, zplus, loads_bwd)
    engine = BackAndForth("schrodinger", ops, dt, K)
    assert np.max(np.abs(engine.forward_observer(trace) - zplus)) < 1e-13
    assert np.max(np.abs(engine.first_iterate(trace) - zminus)) < 1e-13

    Kw = 2 * K
    instw = ProblemInstance("wave", mesh, prof, tau=dt * Kw, n_steps=Kw,
                            truth=(FieldSpec(kind="sine", coefficients=(1.0,)),
                                   FieldSpec(kind="sine", coefficients=(0.0, 1.0))))
    tracew = generate_observation(instw, refine=2)
    wloads = ops.output_gram.matvec(tracew.samples[1:])
    wloads_b = ops.output_gram.matvec(tracew.samples[::-1][1:])
    fw_pos, fw_vel = dense_wave_pass(ops, dt, Kw, np.zeros(mesh.n),
                                     np.zeros(mesh.n), wloads)
    bw_pos, bw_vel = dense_wave_pass(ops, dt, Kw, fw_pos, -fw_vel, -wloads_b)
    enginew = BackAndForth("wave", ops, dt, Kw)
    first = enginew.first_iterate(tracew)
    assert np.max(np.abs(first.pos - bw_pos)) < 1e-13
    assert np.max(np.abs(first.vel - (-bw_vel))) < 1e-13


@KERNELS
@pytest.mark.parametrize("n_cells", [2, 33])
@pytest.mark.parametrize("equation", ["schrodinger", "wave"])
def test_observers_match_the_old_two_system_composition(kernel, n_cells, equation):
    # the backward pass is the forward one under time reversal; before, it
    # ran a second (+i dt) Schrodinger system, and the wave pass flipped the
    # velocity and negated the loads.  The two agree bit for bit.
    ops = assemble(Mesh1D(n_cells=n_cells), ObservationProfile())
    dt, n_steps = 0.05, 9
    engine = BackAndForth(equation, ops, dt, n_steps)
    rng = np.random.default_rng(n_cells)
    samples = rng.standard_normal((n_steps + 1, ops.n))
    if equation == "schrodinger":
        samples = samples + 1j * rng.standard_normal(samples.shape)
    trace = ObservationTrace(equation, samples, n_steps * dt, dt)
    state = engine.random_state(n_cells)
    for got, expected in (
            (engine.backward_observer(trace, state), old_backward_observer(engine, trace, state)),
            (engine.first_iterate(trace), old_first_iterate(engine, trace)),
            (engine.apply_L(state), old_apply_L(engine, state))):
        if equation == "wave":
            assert np.array_equal(got.pos, expected.pos)
            got, expected = got.vel, expected.vel
        assert np.array_equal(got, expected)


def test_random_state_stream_is_pinned(engines):
    # Box-Muller pairs of random.Random(11).random(): the cosines are the
    # wave's positions and Schrodinger's real parts, the sines its velocities
    # and imaginary parts.  Any change of the stream shows here
    _, schrod, wave = engines
    cosines = [-1.0209384005340467, -2.218774767463573, -1.0157392703635546]
    sines = [-0.40253009590499234, 0.4864481321508223, -0.621435219653116]
    assert wave.random_state(11).pos[:3].tolist() == cosines
    assert wave.random_state(11).vel[:3].tolist() == sines
    assert schrod.random_state(11)[:3].tolist() == [complex(c, s)
                                                    for c, s in zip(cosines, sines)]


def test_random_state_takes_numpy_seeds(engines):
    _, schrod, wave = engines
    for engine in (schrod, wave):
        assert np.array_equal(engine._flat(engine.random_state(np.uint8(5))),
                              engine._flat(engine.random_state(5)))
        # a float or a bool is no seed: SweepPlan refuses both, and 5.0 raised
        # a TypeError and True drew as 1
        for seed in (-1, 5.0, True):
            with pytest.raises(ValueError, match=f"^seed must be an integer >= 0, got {seed}$"):
                engine.random_state(seed)


@pytest.mark.parametrize("kwargs, message", [
    ({"max_iter": 2.5}, "max_iter must be an integer >= 2, got 2.5"),
    ({"max_iter": True}, "max_iter must be an integer >= 2, got True"),
    ({"max_iter": 1}, "max_iter must be an integer >= 2, got 1"),
    ({"seed": 1.5}, "seed must be an integer >= 0, got 1.5"),
    ({"tol": "x"}, "tol must be a number in (0, 1), got 'x'"),
])
def test_eta_inputs_are_refused_by_their_rules(engines, kwargs, message):
    # max_iter = 2.5, seed = 1.5 and tol = 'x' raised a TypeError
    _, schrod, wave = engines
    for engine in (schrod, wave):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            engine.estimate_eta(**kwargs)
    assert schrod.estimate_eta(max_iter=np.int64(80), seed=np.uint8(11)) == \
        schrod.estimate_eta(max_iter=80, seed=11)


def test_apply_l_zero_and_linearity(engines):
    ops, schrod, wave = engines
    assert np.all(schrod.apply_L(np.zeros(ops.n, complex)) == 0)
    u, v = schrod.random_state(1), schrod.random_state(2)
    lhs = schrod.apply_L(2.0 * u + 0.5 * v)
    rhs = 2.0 * schrod.apply_L(u) + 0.5 * schrod.apply_L(v)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(rhs))
    uw, vw = wave.random_state(3), wave.random_state(4)
    lw = wave.apply_L(combine((2.0, uw), (0.5, vw)))
    rw = combine((2.0, wave.apply_L(uw)), (0.5, wave.apply_L(vw)))
    assert np.max(np.abs(lw.pos - rw.pos)) <= 1e-12 * max(np.max(np.abs(rw.pos)), 1e-30)


def test_apply_l_nonexpansive_on_random_states(engines):
    _, schrod, wave = engines
    for engine in (schrod, wave):
        for seed in range(40):
            u = engine.random_state(seed)
            assert engine.x_norm(engine.apply_L(u)) <= engine.x_norm(u) * (1 + 1e-12)


@settings(max_examples=40, deadline=None)
@given(seed_u=st.integers(0, 2**32 - 1), seed_v=st.integers(0, 2**32 - 1))
def test_schrodinger_round_trip_self_adjoint(engines, seed_u, seed_v):
    _, schrod, _ = engines
    u, v = schrod.random_state(seed_u), schrod.random_state(seed_v)
    defect = abs(schrod.x_inner(schrod.apply_L(u), v)
                 - schrod.x_inner(u, schrod.apply_L(v)))
    assert defect <= 1e-10 * schrod.x_norm(u) * schrod.x_norm(v)


def test_schrodinger_round_trip_equals_explicit_adjoint_composition():
    # the backward one-step matrix is the M-adjoint of the forward one, so
    # the dense round trip (A-^-1 M)^K (A+^-1 M)^K must agree with apply_L
    # and M L must come out Hermitian
    mesh = Mesh1D(n_cells=12)
    ops = assemble(mesh, ObservationProfile())
    dt, K = mesh.h, 12
    engine = BackAndForth("schrodinger", ops, dt, K)
    M = dense(ops.mass)
    A_plus = M - 1j * dt * dense(ops.stiffness) + dt * dense(ops.damping_gram)
    S_plus = np.linalg.solve(A_plus, M)
    S_minus = np.linalg.solve(A_plus.conj(), M)
    forward = np.linalg.matrix_power(S_plus, K)
    adjoint_back = np.linalg.inv(M) @ forward.conj().T @ M   # (S+^K)^dagger in M
    assert np.max(np.abs(adjoint_back - np.linalg.matrix_power(S_minus, K))) < 1e-10
    L_dense = np.linalg.matrix_power(S_minus, K) @ forward
    ml = M @ L_dense
    assert np.max(np.abs(ml - ml.conj().T)) < 1e-12
    rng = np.random.default_rng(8)
    u = rng.standard_normal(mesh.n) + 1j * rng.standard_normal(mesh.n)
    assert np.max(np.abs(engine.apply_L(u) - L_dense @ u)) < 1e-12


def test_wave_symmetry_defect_shrinks_with_dt():
    mesh = Mesh1D(n_cells=32)
    ops = assemble(mesh, ObservationProfile())
    V = pencil_vectors(pencil_eigs(ops.stiffness, ops.mass))

    def smooth(seed):
        rng = np.random.default_rng(seed)
        return WaveState(V[:, :3] @ rng.standard_normal(3),
                         V[:, :3] @ rng.standard_normal(3))

    def worst_defect(n_steps):
        bw = BackAndForth("wave", ops, 2.0 / n_steps, n_steps)
        out = 0.0
        for s in range(6):
            u, v = smooth(s), smooth(50 + s)
            d = abs(bw.x_inner(bw.apply_L(u), v) - bw.x_inner(u, bw.apply_L(v)))
            out = max(out, d / (bw.x_norm(u) * bw.x_norm(v)))
        return out

    d1, d2 = worst_defect(64), worst_defect(128)
    assert d2 < d1 / 1.8


# -- contraction factor and truncation -----------------------------------------


def test_power_iteration_on_diagonal_double():
    diag = np.array([0.3, -0.92, 0.5, 0.05])
    est = power_iteration(lambda v: diag * v, np.linalg.norm,
                          np.array([1.0, 1.0, 1.0, 1.0]), tol=1e-10,
                          max_iter=500)
    assert est.converged
    assert est.value == pytest.approx(0.92, abs=1e-8)


def test_power_iteration_nonconvergence_flagged():
    diag = np.array([1.0, 0.999999])
    est = power_iteration(lambda v: diag * v, np.linalg.norm,
                          np.array([1.0, 1.0]), tol=1e-14, max_iter=3)
    assert not est.converged
    assert est.iterations == 3


def test_power_iteration_validation():
    with pytest.raises(ValueError):
        power_iteration(lambda v: v, np.linalg.norm, np.zeros(3))
    with pytest.raises(ValueError):
        power_iteration(lambda v: v, np.linalg.norm, np.ones(3), tol=2.0)
    with pytest.raises(ValueError):
        power_iteration(lambda v: v, np.linalg.norm, np.ones(3), max_iter=1)


def _eta_engine(equation, n_cells):
    # a narrow window, a short horizon and dt = h/4 spread the Schrodinger
    # spectrum (leading |eigenvalues| 0.81-0.86, then 0.11-0.23); the wave
    # acceptance set-up has its two leading |eigenvalues| within 30% of
    # each other
    mesh = Mesh1D(n_cells=n_cells)
    if equation == "schrodinger":
        ops = assemble(mesh, ObservationProfile(a=0.4, b=0.6))
        n_steps = round(4 * 0.1 / mesh.h)
        return BackAndForth(equation, ops, 0.1 / n_steps, n_steps)
    ops = assemble(mesh, ObservationProfile())
    n_steps = round(2.0 / mesh.h)
    return BackAndForth(equation, ops, 2.0 / n_steps, n_steps)


@pytest.mark.parametrize("equation", ["schrodinger", "wave"])
@pytest.mark.parametrize("n_cells", [16, 24])
def test_eta_matches_dense_spectral_radius(equation, n_cells):
    engine = _eta_engine(equation, n_cells)
    radius = np.max(np.abs(np.linalg.eigvals(dense_round_trip(engine))))
    est = engine.estimate_eta(tol=1e-10, max_iter=80, seed=3)
    assert est.converged
    assert est.value == pytest.approx(radius, abs=1e-8)


def test_schrodinger_eta_matches_tight_power_iteration():
    engine = _eta_engine("schrodinger", 24)
    est = engine.estimate_eta(seed=3)
    power = power_iteration(engine.apply_L, engine.x_norm, engine.random_state(3),
                            tol=1e-12, max_iter=500)
    assert est.converged and power.converged
    assert est.iterations < power.iterations
    assert est.value == pytest.approx(power.value, rel=1e-8)


def test_wave_eta_independent_of_seed():
    engine = _eta_engine("wave", 64)
    values = [engine.estimate_eta(seed=s).value for s in (3, 11, 15, 20, 42)]
    assert max(values) - min(values) <= 1e-8


def _plain_gram(u):
    return u                    # X = I: the Euclidean inner product


def test_arnoldi_stops_on_breakdown():
    diag = np.array([0.3, -0.92, 0.5, 0.05])
    # an eigenvector start: the first residual is exactly zero
    est = arnoldi_iteration(lambda v: diag * v, _plain_gram, np.eye(4)[1],
                            tol=1e-14, max_iter=10)
    assert (est.value, est.converged, est.iterations) == (0.92, True, 1)
    # a generic start exhausts the 4-dimensional Krylov space after 4 steps
    est = arnoldi_iteration(lambda v: diag * v, _plain_gram, np.ones(4),
                            tol=1e-14, max_iter=10)
    assert est.converged and est.iterations == 4
    assert est.value == pytest.approx(0.92, abs=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_arnoldi_on_nonnormal_complex_matrix(seed):
    # a similarity transform of a known spectrum: dominant |eigenvalue| 0.9,
    # the rest at most 0.5 with arbitrary phases
    rng = np.random.default_rng(seed)
    n = 40
    lam = 0.5 * rng.random(n) * np.exp(2j * np.pi * rng.random(n))
    lam[0] = 0.9 * np.exp(0.7j)
    S = np.eye(n) + 0.3 * (rng.standard_normal((n, n))
                           + 1j * rng.standard_normal((n, n))) / np.sqrt(n)
    A = S @ np.diag(lam) @ np.linalg.inv(S)
    start = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    est = arnoldi_iteration(lambda v: A @ v, _plain_gram, start, tol=1e-10,
                            max_iter=n)
    assert est.converged
    # the Ritz residual, not h_{m+1,m} alone, ends the iteration
    assert est.iterations < n - 5
    assert est.value == pytest.approx(0.9, abs=1e-8)


def test_arnoldi_basis_stays_orthonormal():
    # eigenvalues spread over 13 orders of magnitude: one Gram-Schmidt pass
    # leaves ~1e-13 of non-orthogonality here, the reorthogonalization ~4e-16
    diag = 0.9 * 0.6 ** np.arange(30)
    seen = []

    def op(v):
        seen.append(v)
        return diag * v

    est = arnoldi_iteration(op, _plain_gram, np.ones(30), tol=1e-15, max_iter=30)
    assert est.converged and est.value == pytest.approx(0.9, abs=1e-12)
    V = np.column_stack(seen)
    assert np.max(np.abs(V.conj().T @ V - np.eye(V.shape[1]))) <= 1e-14


def test_arnoldi_step_budget_flagged(engines):
    _, _, wave = engines
    with pytest.warns(RuntimeWarning, match=rf"eta = \S+ at {wave.ops.mesh.n_cells} cells "
                      "did not converge in 2 steps"):
        est = wave.estimate_eta(max_iter=2, seed=11)
    assert not est.converged
    assert est.iterations == 2
    assert 0.0 < est.value < 1.0
    assert est.ritz_vector is None


@pytest.mark.parametrize("equation", ["schrodinger", "wave"])
def test_ritz_vector_is_the_dominant_eigenvector(equation):
    # the converged estimate carries a unit vector x with L x = lambda x,
    # |lambda| = eta, to the stopping tolerance; real for the wave's real states
    engine = _eta_engine(equation, 24)
    est = engine.estimate_eta(tol=1e-10, seed=3)
    x = est.ritz_vector
    assert est.converged and engine.x_norm(x) == pytest.approx(1.0, abs=1e-12)
    if equation == "wave":
        assert x.pos.dtype == x.vel.dtype == np.float64
    image = engine.apply_L(x)
    lam = engine.x_inner(image, x)
    assert abs(lam) == pytest.approx(est.value, rel=1e-10)
    assert engine.x_norm(combine((1.0, image), (-lam, x))) <= 1e-9
    assert EtaEstimate(est.value, True, est.iterations) == est


@pytest.mark.parametrize("equation", ["schrodinger", "wave"])
@pytest.mark.parametrize("n_cells", [16, 64, 256])
def test_one_array_arnoldi_is_the_list_basis_oracle(equation, n_cells):
    # the basis as rows of one array and gram(w) once per Gram-Schmidt pass
    # reorder only sums: cold and warm, the same steps, the same eta to
    # 1e-12 and a Ritz vector whose residual is under 1e-9.  The wave runs on
    # the half trip G, eta the square of its Ritz value; Schrodinger on L.
    engine = _eta_engine(equation, n_cells)
    coarse = _eta_engine(equation, n_cells // 2).estimate_eta(tol=1e-10, seed=3)
    if equation == "wave":
        def op(state):
            return engine._state(engine._half_trip(engine._flat(state)))
        power = 2
    else:
        op, power = engine.apply_L, 1
    for warm in (None, coarse.ritz_vector):
        est = engine.estimate_eta(tol=1e-10, seed=3, warm=warm)
        ref = list_arnoldi(op, engine.x_inner, engine._state(engine._eta_start(3, warm)),
                           tol=1e-10)
        assert est.converged and ref.converged
        assert est.iterations == ref.iterations
        assert est.value == pytest.approx(ref.value ** power, rel=1e-12, abs=0.0)
        x = est.ritz_vector
        assert type(x) is type(ref.ritz_vector)
        image = engine.apply_L(x)
        lam = engine.x_inner(image, x)
        assert engine.x_norm(combine((1.0, image), (-lam, x))) <= 1e-9


@settings(max_examples=60, deadline=None)
@given(n_cells=st.integers(2, 40), n_steps=st.integers(2, 30), dt=st.floats(1e-3, 0.5),
       a=st.floats(0.05, 0.45), seed=st.integers(0, 2 ** 32 - 1))
def test_half_trip_twice_is_the_round_trip_bit_for_bit(n_cells, n_steps, dt, a, seed):
    # the time reversal R (conjugation, or the position's sign flip) is exact
    # and its own inverse, so G = R T+ applied twice is L bit for bit: the
    # round trip of independent passes, a second Schrodinger system stepped
    # by the per-step oracle, and the wave's velocity flip
    ops = assemble(Mesh1D(n_cells=n_cells), ObservationProfile(a=a, b=1.0 - a / 2))
    for equation in ("schrodinger", "wave"):
        engine = BackAndForth(equation, ops, dt, n_steps)
        state = engine.random_state(seed)
        twice = engine._half_trip(engine._half_trip(engine._flat(state)))
        assert np.array_equal(twice, engine._flat(old_apply_L(engine, state))), equation


def test_complex_dominant_pair_of_a_real_operator_gives_no_ritz_vector():
    # a rotation by 0.8 rad scaled to 0.9 dominates a real diagonal: the
    # dominant Ritz values are 0.9 exp(+-0.8i), whose eigenvectors are not
    # real, and the real part of one is no eigenvector
    rot = 0.9 * np.array([[np.cos(0.8), -np.sin(0.8)], [np.sin(0.8), np.cos(0.8)]])
    A = np.zeros((6, 6))
    A[:2, :2] = rot
    A[2:, 2:] = np.diag([0.5, -0.3, 0.2, 0.1])
    est = arnoldi_iteration(lambda v: A @ v, _plain_gram, np.ones(6), tol=1e-12,
                            max_iter=10)
    assert est.converged and est.value == pytest.approx(0.9, rel=1e-12)
    assert est.ritz_vector is None
    # a real dominant eigenvalue of the same operator still gives a real vector
    A[2, 2] = 0.95
    est = arnoldi_iteration(lambda v: A @ v, _plain_gram, np.ones(6), tol=1e-12,
                            max_iter=10)
    x = est.ritz_vector
    assert est.converged and est.value == pytest.approx(0.95, rel=1e-12)
    assert x.dtype == np.float64 and np.linalg.norm(A @ x - 0.95 * x) <= 1e-10


def test_warm_state_that_vanishes_on_the_mesh_starts_cold():
    # a hat at a node of a finer mesh that this mesh does not have samples to
    # zero here: it adds nothing, and the start is the cold one, bit for bit
    engine = _eta_engine("wave", 16)
    hat = np.zeros(31)
    hat[0] = 1.0
    warm = engine.estimate_eta(seed=3, warm=WaveState(hat, hat))
    cold = engine.estimate_eta(seed=3)
    assert (warm.value, warm.iterations) == (cold.value, cold.iterations)


def test_arnoldi_storage_follows_the_steps_taken(engines):
    # a budget far past any allocatable Hessenberg gives the default estimate
    _, schrod, wave = engines
    for engine in (schrod, wave):
        default = engine.estimate_eta(seed=5)
        assert default.converged
        assert engine.estimate_eta(max_iter=10**12, seed=5) == default


@pytest.mark.parametrize("dtype", [float, complex])
def test_arnoldi_hessenberg_grows_by_doubling_bit_for_bit(dtype):
    # the Hessenberg is a view into one array that doubles with the basis;
    # at every step, past the growths from m = 8 to 9 and 16 to 17, it and the
    # basis are the np.pad-grown reference's bit for bit
    rng = np.random.default_rng(23)
    n = 40
    A = rng.standard_normal((n, n)).astype(dtype)
    start = rng.standard_normal(n).astype(dtype)
    if dtype is complex:
        A += 1j * rng.standard_normal((n, n))
        start += 1j * rng.standard_normal(n)
    gram = SymTridiag(2.0 + rng.uniform(size=n), 0.5 * rng.uniform(size=n - 1)).matvec
    steps = 0
    for (V, H, w), (V_ref, H_ref, w_ref) in zip(
            observers.arnoldi_process(lambda u: A @ u, gram, start, 20),
            padded_arnoldi_process(lambda u: A @ u, gram, start, 20)):
        steps += 1
        assert H.shape == (steps + 1, steps) and np.array_equal(H, H_ref)
        assert np.array_equal(V, V_ref) and np.array_equal(w, w_ref)
    assert steps == 20


@pytest.mark.parametrize("start, kwargs", [
    (np.zeros(3), {}),
    (np.ones(3), {"tol": 2.0}),
    (np.ones(3), {"tol": 0.0}),
    (np.ones(3), {"max_iter": 1}),
])
def test_arnoldi_validation_matches_power_iteration(start, kwargs):
    with pytest.raises(ValueError) as power:
        power_iteration(lambda v: v, np.linalg.norm, start, **kwargs)
    with pytest.raises(ValueError) as arnoldi:
        arnoldi_iteration(lambda v: v, _plain_gram, start, **kwargs)
    assert str(arnoldi.value) == str(power.value)


def test_eta_below_one_and_more_damping_smaller_eta(engines):
    ops, schrod, _ = engines
    eta_window = schrod.estimate_eta(seed=7)
    assert eta_window.value <= 1.0 + 1e-10
    full = assemble(ops.mesh, ObservationProfile.constant(1.0))
    strong = BackAndForth("schrodinger", full, 2.0 / 64, 64)  # larger tau too
    eta_full = strong.estimate_eta(seed=7)
    assert eta_full.value < 0.5 * eta_window.value


def test_eta_deterministic_given_seed(engines):
    _, schrod, _ = engines
    a = schrod.estimate_eta(seed=3)
    b = schrod.estimate_eta(seed=3)
    assert a.value == b.value and a.iterations == b.iterations


def test_choose_truncation_table():
    # expected values computed by hand from ceil(ln(h^theta + dt)/ln(eta));
    # dt = 0 is the semi-discrete case
    cases = [
        (0.01, 0.01, 1.0, 0.5, 6),
        (0.5, 0.5, 1.0, 0.5, 0),
        (0.9, 0.2, 1.0, 0.5, 0),
        (0.1, 0.0, 1.0, 0.1, 1),
        (0.1, 0.0, 2.0, 0.1, 2),
        (0.25, 0.0, 1.0, 0.7, 4),
        (0.05, 0.001, 1.0, 0.8, 14),
        (0.1, 1e-6, 1.0, 0.3, 2),
        (0.5, 0.0, 1.0, 0.5, 1),
        (0.2, 0.05, 2.0, 0.6, 5),
    ]
    for h, dt, theta, eta, expected in cases:
        got = choose_truncation(h=h, dt=dt, theta=theta, eta_hat=eta)
        assert got == expected, (h, dt, theta, eta, got, expected)


def test_choose_truncation_refuses_no_contraction():
    with pytest.raises(ValueError, match="contraction not certified"):
        choose_truncation(h=0.1, dt=0.1, theta=1.0, eta_hat=1.0)
    with pytest.raises(ValueError, match="dt must be nonnegative"):
        choose_truncation(h=0.1, dt=-0.1, theta=1.0, eta_hat=0.5)
    for theta in (-1.0, 0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="theta must be a finite positive number"):
            choose_truncation(h=0.1, dt=0.1, theta=theta, eta_hat=0.5)


# -- reconstruction -------------------------------------------------------------


def _sine_trace(engine, coefficients=(1.0,)):
    ops = engine.ops
    truth = FieldSpec(kind="sine", coefficients=coefficients)
    if engine.equation == "wave":
        truth = (truth, FieldSpec(kind="sine", coefficients=(0.0, 1.0)))
    inst = ProblemInstance(engine.equation, ops.mesh, ops.profile,
                           tau=engine.n_steps * engine.dt, n_steps=engine.n_steps, truth=truth)
    return generate_observation(inst, refine=2)


def _eta(value, pair=None):
    """A converged estimate of value, carrying the Ritz pair (y, L y) if given."""
    return EtaEstimate(value, True, 1, ritz_pair=pair)


def _solve_in(engine, trace, steps, pair=None):
    """The solve of trace that takes exactly `steps` GMRES steps, short of a
    breakdown: a stopping rule no step meets (eta_hat = 1e-300), capped at
    `steps`, which warns that it is capped and that eta_hat is short of
    every Ritz value."""
    with mock.patch.object(observers, "AUTO_N_CAP", steps), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return engine.neumann_reconstruct(trace, _eta(1e-300, pair))


def test_ritz_value_past_eta_hat_warns(engines):
    # an eta_hat that missed the dominant mode: the solve's Krylov space
    # holds a Ritz value near the true eta, twice eta_hat, and the solve says so
    _, schrod, _ = engines
    trace = _sine_trace(schrod)
    est = replace(schrod.estimate_eta(seed=3), ritz_pair=None)
    eta = est.value
    quiet = schrod.neumann_reconstruct(trace, est)
    assert quiet.ritz_max <= eta * (1.0 + RATIO_SLACK)
    with pytest.warns(RuntimeWarning, match=r"Ritz value of L of modulus \S+, more than "
                      r"eta_hat = \S+ allows") as caught:
        low = schrod.neumann_reconstruct(trace, replace(est, value=eta / 2))
    (warning,) = caught
    assert warning.filename == __file__
    assert low.ritz_max > eta / 2 * (1.0 + RATIO_SLACK)


def test_reconstruct_zero_trace_gives_zero(engines):
    # a zero first iterate is its own solution: no step runs and nothing is
    # divided by its zero norm, and a pair is not deflated; with no step
    # there is no Ritz value and no residual, and the polynomial is the
    # identity
    ops, schrod, wave = engines
    for engine in (schrod, wave):
        trace = _zero_trace(engine.equation, ops.n, engine.n_steps, engine.dt)
        with np.errstate(all="raise"):
            res = engine.neumann_reconstruct(trace, _eta(0.5, _pairs(engine)))
        assert np.all(engine._flat(res.estimate) == 0)
        assert (res.n_used, res.residual_norms) == (0, (0.0,))
        assert (res.residual, res.ritz_max, res.n_capped) == (None, None, False)
        assert res.deflated is None and res.polynomial.deflation is None
        other = _sine_trace(engine)
        replayed = engine.neumann_reconstruct(other, _eta(0.5),
                                              polynomial=res.polynomial).estimate
        assert np.array_equal(engine._flat(replayed), engine._flat(engine.first_iterate(other)))


@pytest.mark.parametrize("equation", ["schrodinger", "wave"])
@pytest.mark.filterwarnings("ignore:the solve's Krylov space holds a Ritz value")
def test_lucky_breakdown_returns_the_exact_solution(engines, monkeypatch, equation):
    # a Krylov space that L leaves invariant ends the solve, also under a
    # rule that rounding does not meet (eta_hat = 1e-300): for L = 0 the new
    # direction is exactly zero, for L = I / 2 it is rounding; the estimate
    # is z / (1 - lambda)
    _, schrod, wave = engines
    engine = schrod if equation == "schrodinger" else wave
    trace = _sine_trace(engine)
    z = engine._flat(engine.first_iterate(trace))
    for lam in (0.0, 0.5):
        monkeypatch.setattr(engine, "_round_trip", lambda u, lam=lam: lam * u)
        for eta_hat in (1e-300, 0.6):
            res = engine.neumann_reconstruct(trace, _eta(eta_hat))
            assert res.n_used == 1
            assert res.residual <= 1e-15
            x = engine._flat(res.estimate)
            assert np.max(np.abs(x - z / (1.0 - lam))) <= 1e-14 * np.max(np.abs(z))
        assert abs(res.polynomial.hess[1, 0]) <= (lam > 0) * 1e-15


def test_gmres_breaks_down_on_an_invariant_space():
    # an eigenvector start: h_21 is exactly zero and x = z / (1 - lambda)
    diag = np.array([0.3, -0.92, 0.5, 0.05])
    x, poly, residuals = gmres(lambda v: diag * v, _plain_gram, np.eye(4)[2], 10)
    assert poly.steps == 1 and poly.hess[1, 0] == 0.0 and residuals[-1] == 0.0
    assert np.allclose(x, np.eye(4)[2] / 0.5, rtol=0, atol=1e-15)
    # a generic start exhausts the 4-dimensional space after 4 steps
    x, poly, residuals = gmres(lambda v: diag * v, _plain_gram, np.ones(4), 10)
    assert poly.steps == 4 and residuals[-1] <= 1e-14
    assert np.allclose(x, 1.0 / (1.0 - diag), rtol=1e-13, atol=0)


@pytest.mark.parametrize("equation", ["schrodinger", "wave"])
def test_final_residual_meets_the_stopping_rule(engines, equation):
    # the residual z - (I - L) x, recomputed through apply_L, is within
    # eta_hat (h^theta + dt) of z:, at most the r_m of the GMRES iterate x_m
    # that the solve reports and stops on, with a Ritz pair deflated or not
    _, schrod, wave = engines
    engine = schrod if equation == "schrodinger" else wave
    trace = _sine_trace(engine, (1.0, 0.5))
    est = engine.estimate_eta(seed=3)
    eta = est.value
    for pair, theta in itertools.product((None, _pairs(engine)), (1.0, 2.0)):
        res = engine.neumann_reconstruct(trace, replace(est, ritz_pair=pair), theta=theta)
        assert (res.deflated is None) == (pair is None)
        z, x = engine.first_iterate(trace), res.estimate
        r = combine((1.0, z), (-1.0, x), (1.0, engine.apply_L(x)))
        relative = engine.x_norm(r) / engine.x_norm(z)
        assert relative <= res.residual <= eta * (engine.ops.mesh.h ** theta + engine.dt)
        assert res.n_used >= 1 and not res.n_capped
        # no step before the last meets the rule: the solve stops at the first
        target = eta * (engine.ops.mesh.h ** theta + engine.dt) * res.residual_norms[0]
        assert all(norm > target for norm in res.residual_norms[1:-1])


@settings(max_examples=30, deadline=None)
@given(equation=st.sampled_from(["schrodinger", "wave"]),
       seed=st.integers(0, 2**32 - 1), steps=st.integers(0, 4),
       a=st.floats(-2.0, 2.0).filter(lambda x: x == 0.0 or abs(x) >= 1e-3),
       b=st.floats(-2.0, 2.0).filter(lambda x: x == 0.0 or abs(x) >= 1e-3))
def test_reconstruct_linear_in_trace(engines, equation, seed, steps, a, b):
    # a solve is not linear in its trace, since its polynomial depends on z;
    # the replay of one solve's polynomial is, to rounding.  A solve of 0
    # steps is that of a zero trace, whose polynomial is the identity
    ops, schrod, wave = engines
    engine = schrod if equation == "schrodinger" else wave
    rng = np.random.default_rng(seed)
    shape = (engine.n_steps + 1, ops.n)

    def trace(samples):
        return ObservationTrace(equation, samples, engine.n_steps * engine.dt, engine.dt)

    def draw():
        y = rng.standard_normal(shape)
        return y + 1j * rng.standard_normal(shape) if equation == "schrodinger" else y

    y1, y2 = draw(), draw()
    y0 = draw() if steps else np.zeros_like(y1)
    solve = _solve_in(engine, trace(y0), steps)
    # a solve exact to rounding stops short of its cap
    assert solve.polynomial.steps == solve.n_used <= steps

    def estimate(samples):
        res = engine.neumann_reconstruct(trace(samples), _eta(0.5),
                                         polynomial=solve.polynomial)
        assert res.n_used == solve.n_used
        return engine._flat(res.estimate)

    e1, e2 = estimate(y1), estimate(y2)
    combined = estimate(a * y1 + b * y2)
    scale = max(abs(a) * np.max(np.abs(e1)), abs(b) * np.max(np.abs(e2)), 1e-300)
    assert np.max(np.abs(combined - (a * e1 + b * e2))) <= 1e-12 * scale
    # on the solve's own trace the replay is the solve
    own = estimate(y0)
    assert np.max(np.abs(own - engine._flat(solve.estimate))) <= 1e-12 * np.max(np.abs(own))


def test_reconstruct_tail_bound_against_long_run(engines):
    # against the long-run Neumann sum, a solve's error is at most its
    # residual over 1 - eta (the Schrodinger L is X-self-adjoint), and a
    # truncated sum's at most its geometric tail
    ops, schrod, _ = engines
    trace = _sine_trace(schrod, (1.0, 0.5))
    eta = schrod.estimate_eta(tol=1e-9, max_iter=300, seed=11)
    terms, sums = neumann_series(schrod, trace, 50)
    long_run = sums[-1]
    assert schrod.x_norm(terms[-1]) < 1e-14
    z0_norm = schrod.x_norm(terms[0])
    for n in (2, 4, 8):
        dev = schrod.x_norm(long_run - sums[n])
        assert dev <= eta.value ** (n + 1) / (1 - eta.value) * z0_norm * 1.01
        x, _, residuals = gmres(schrod._round_trip, schrod._x_gram.matvec, terms[0], n)
        dev = schrod.x_norm(long_run - x)
        assert dev <= residuals[-1] / (1 - eta.value) * 1.01 + 1e-14 * z0_norm


def test_reconstruct_increment_ratios_bounded_by_eta(engines):
    # the Neumann series the solve replaced: its increments L^n z shrink by
    # about eta per term
    ops, schrod, _ = engines
    trace = _sine_trace(schrod, (1.0, 0.5))
    eta = schrod.estimate_eta(tol=1e-9, max_iter=300, seed=11)
    inc = [schrod.x_norm(t) for t in neumann_series(schrod, trace, 10)[0]]
    assert all(b <= a * 1.05 for a, b in zip(inc[1:], inc[2:]))
    for n in range(3, 9):
        assert inc[n + 1] <= eta.value * inc[n] * 1.05


def test_reconstruct_single_mode_error_decreases_to_floor():
    # adding Neumann terms strictly improves the estimate until the partial
    # sums sit on the discretization floor of the clean single-mode problem
    from bafobs.harness import reconstruction_error
    mesh = Mesh1D(n_cells=64)
    prof = ObservationProfile()
    ops = assemble(mesh, prof)
    truth = FieldSpec(kind="sine", coefficients=(1.0,))
    inst = ProblemInstance("schrodinger", mesh, prof, tau=1.0, n_steps=64,
                           truth=truth)
    trace = generate_observation(inst, refine=2)
    engine = BackAndForth("schrodinger", ops, 1.0 / 64, 64)
    acc = term = engine.first_iterate(trace)
    errs = [reconstruction_error("schrodinger", truth, acc, ops)]
    for _ in range(8):
        term = engine.apply_L(term)
        acc = acc + term
        errs.append(reconstruction_error("schrodinger", truth, acc, ops))
    assert errs[1] < errs[0] and errs[2] < errs[1]
    assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))
    assert abs(errs[4] - errs[8]) <= 1e-3 * errs[8]   # plateau reached
    assert errs[8] > 0.01                             # floor, not exactness


def test_reconstruct_wave_increments_nonincreasing(engines):
    ops, _, wave = engines
    trace = _sine_trace(wave)
    inc = [wave.x_norm(t) for t in neumann_series(wave, trace, 8)[0]]
    assert all(b <= a * 1.05 for a, b in zip(inc[1:], inc[2:]))


def test_reconstruct_auto_floors_and_caps(engines, monkeypatch):
    # a rule that z meets before any step (eta_hat (h^theta + dt) >= 1)
    # still takes one; a rule not met in AUTO_N_CAP steps warns and stops there
    ops, schrod, wave = engines
    trace = _sine_trace(schrod, (1.0, 0.5))
    res = schrod.neumann_reconstruct(trace, _eta(0.999), theta=1e-9)
    assert res.n_used == 1 and not res.n_capped
    trace = _sine_trace(wave)
    eta = wave.estimate_eta(seed=3)
    _, _, one_step = gmres(wave._round_trip, wave._x_gram.matvec,
                           wave._flat(wave.first_iterate(trace)), 1)
    theta = 20.0                # h^theta vanishes: the rule asks for eta_hat dt
    assert one_step[1] / one_step[0] > eta.value * wave.dt
    monkeypatch.setattr(observers, "AUTO_N_CAP", 1)
    with pytest.warns(RuntimeWarning, match="capping at 1") as caught:
        res = wave.neumann_reconstruct(trace, eta, theta=theta)
    (warning,) = caught
    assert warning.filename == __file__
    assert res.n_capped and res.n_used == 1
    assert res.residual == one_step[1] / one_step[0]


def test_reconstruct_needs_a_certified_eta(engines):
    # the stopping rule needs a contraction, eta_hat in (0, 1), and the
    # solve refuses any other
    ops, schrod, _ = engines
    trace = _zero_trace("schrodinger", ops.n, schrod.n_steps, schrod.dt)
    for value in (0.0, 1.0, 1.5):
        with pytest.raises(ValueError, match=re.escape(
                f"contraction not certified: eta_hat = {value} is not in (0, 1)")):
            schrod.neumann_reconstruct(trace, _eta(value))


def test_trace_validation(engines):
    ops, schrod, wave = engines
    with pytest.raises(ValueError, match="nodes"):
        schrod.forward_observer(_zero_trace("schrodinger", ops.n + 1,
                                            schrod.n_steps, schrod.dt))
    with pytest.raises(ValueError, match="steps"):
        schrod.forward_observer(_zero_trace("schrodinger", ops.n, 5, schrod.dt))
    with pytest.raises(ValueError, match="schrodinger"):
        wave.forward_observer(_zero_trace("schrodinger", ops.n, wave.n_steps,
                                          wave.dt))
    with pytest.raises(ValueError, match=re.escape("dt must be tau / K = 0.5, got 0.1")):
        ObservationTrace("wave", np.zeros((3, 4)), 1.0, 0.1)


@pytest.mark.parametrize("args, message", [
    (("schrodinger", np.zeros((3, 2), complex), -1.0, -0.5),
     "tau must be a positive number, got -1.0"),
    (("wave", np.zeros((3, 2)), 0.0, 0.0), "tau must be a positive number, got 0.0"),
    (("wave", np.zeros((3, 2)), "1", 0.5), "tau must be a positive number, got '1'"),
    (("heat", np.zeros((3, 2)), 1.0, 0.5), "equation must be 'schrodinger' or 'wave', got 'heat'"),
    (("wave", np.zeros((3, 2), complex), 1.0, 0.5),
     "samples must be real for the wave, got complex128"),
    (("wave", np.zeros((3, 2)), 1.0, None), "dt must be tau / K = 0.5, got None"),
    # K dt = tau to 1e-9 of tau, so a short horizon cannot take a negative step
    (("wave", np.zeros((2, 2)), 1e-12, -1e-10), "dt must be tau / K = 1e-12, got -1e-10"),
], ids=["tau-negative", "tau-zero", "tau-str", "equation-heat", "wave-complex", "dt-None",
        "dt-negative-short-tau"])
def test_trace_refuses_a_horizon_or_samples_it_cannot_hold(args, message):
    # ObservationTrace("schrodinger", samples, tau=-1.0, dt=-0.5) used to build
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ObservationTrace(*args)


# -- deflation of the eta estimate's Ritz pair -----------------------------------


@pytest.mark.parametrize("equation", ["schrodinger", "wave"])
@pytest.mark.parametrize("n_cells", [24, 64])
def test_ritz_pair_image_is_the_operators(equation, n_cells):
    # the image read off the Arnoldi relation, at no pass, is the operator's:
    # apply_L(y) for Schrodinger, whose estimate carries the pair with its
    # own Ritz vector as y; the wave's Arnoldi runs on the half trip G, so
    # its pair is (y, G y), and the wave's estimate carries none
    engine = _eta_engine(equation, n_cells)
    est = engine.estimate_eta(seed=3)
    gram = engine._x_gram.matvec
    if equation == "wave":
        assert est.converged and est.ritz_pair is None
        op = engine._half_trip
        est = arnoldi_iteration(op, gram, engine._eta_start(3))
    else:
        op = engine._round_trip
        assert est.ritz_pair[0] is est.ritz_vector
    y, image = est.ritz_pair     # flat arrays, as Schrodinger states are
    assert est.converged and observers._norm(gram, y) == pytest.approx(1.0, abs=1e-12)
    assert y.dtype == image.dtype
    exact = op(y)
    assert observers._norm(gram, image - exact) <= 1e-12 * observers._norm(gram, exact)
    # a Ritz pair of the dominant eigenvalue, whose modulus is the estimate
    assert abs(np.vdot(gram(y), image).real) == pytest.approx(est.value, rel=1e-4)


def _plain_solve(engine, trace, eta_hat, theta=1.0):
    """Undeflated GMRES, called directly, at the automatic rule: (x, residuals)."""
    z = engine._flat(engine.first_iterate(trace))
    gram = engine._x_gram.matvec
    rtol = eta_hat * (engine.ops.mesh.h ** theta + engine.dt)
    x, _, residuals = gmres(engine._round_trip, gram, z, AUTO_N_CAP,
                            rtol * observers._norm(gram, z))
    return x, residuals


def test_no_pair_is_plain_gmres_bit_for_bit(engines):
    # no pair to deflate: an estimate that ran out of steps, a complex
    # dominant pair, the wave's estimate, or Schrodinger's with its pair
    # dropped; passed whole, Schrodinger's converged estimate deflates its
    # pair, and the row records the share of z along its vector y
    ops, schrod, wave = engines
    with pytest.warns(RuntimeWarning, match="did not converge"):
        unconverged = schrod.estimate_eta(max_iter=2, tol=1e-12, seed=11)
    rot = 0.9 * np.array([[np.cos(0.8), -np.sin(0.8)], [np.sin(0.8), np.cos(0.8)]])
    A = np.zeros((6, 6))
    A[:2, :2] = rot
    A[2:, 2:] = np.diag([0.5, -0.3, 0.2, 0.1])
    paired = arnoldi_iteration(lambda v: A @ v, _plain_gram, np.ones(6), tol=1e-12,
                               max_iter=10)
    assert paired.converged and paired.ritz_pair is None
    assert unconverged.ritz_pair is None
    for engine in (schrod, wave):
        trace = _sine_trace(engine, (1.0, 0.5))
        eta = engine.estimate_eta(seed=3)
        x, residuals = _plain_solve(engine, trace, eta.value)
        assert (eta.ritz_pair is None) == (engine is wave)
        res = engine.neumann_reconstruct(trace, replace(eta, ritz_pair=None))
        assert res.deflated is None and res.polynomial.deflation is None
        assert np.array_equal(engine._flat(res.estimate), x)
        assert res.residual_norms == residuals
    trace, eta = _sine_trace(schrod, (1.0, 0.5)), schrod.estimate_eta(seed=3)
    whole = schrod.neumann_reconstruct(trace, eta)
    assert whole.polynomial.deflation is not None
    assert not np.array_equal(whole.estimate, _plain_solve(schrod, trace, eta.value)[0])
    z, y = schrod.first_iterate(trace), eta.ritz_vector
    share = abs(schrod.x_inner(z, y)) / (schrod.x_norm(y) * schrod.x_norm(z))
    assert whole.deflated == pytest.approx(share, rel=1e-12)


def test_a_poor_pair_never_makes_the_start_worse(engines):
    # a pair (v, L v) far from any eigenvector is deflated all the same: its
    # first guess c v is the multiple of v of least residual, so the solve
    # starts from a residual at most ||z||_X, and it meets the rule
    _, schrod, wave = engines
    for engine in (schrod, wave):
        trace = _sine_trace(engine, (1.0, 0.5))
        eta = engine.estimate_eta(seed=3)
        v = combine((1.0, eta.ritz_vector), (0.5, engine.random_state(4)))
        res = engine.neumann_reconstruct(trace, replace(eta, ritz_pair=(v, engine.apply_L(v))))
        assert res.polynomial.deflation is not None and 0.0 < res.deflated < 1.0
        z, x = engine.first_iterate(trace), res.estimate
        r = combine((1.0, z), (-1.0, x), (1.0, engine.apply_L(x)))
        rule = eta.value * (engine.ops.mesh.h + engine.dt)
        assert res.residual <= rule
        assert engine.x_norm(r) / engine.x_norm(z) <= res.residual + 1e-14
        assert res.residual_norms[1] <= res.residual_norms[0] == engine.x_norm(z)


@pytest.mark.parametrize("equation", ["schrodinger", "wave"])
def test_deflated_residuals_are_exact_norms(engines, monkeypatch, equation):
    # on a diagonal L = A and a pair (v, A v), v random, the first step reports
    # the residual of the iterate c v + x_1, x_1 one GMRES step on rest =
    # z - c w, w = v - A v, c = (z, w)_X / ||w||_X^2: the least ||rest - a (I -
    # A) rest||_X over a, computed here by hand
    _, schrod, wave = engines
    engine = schrod if equation == "schrodinger" else wave
    trace = _sine_trace(engine)
    z = engine._flat(engine.first_iterate(trace))
    rng = np.random.default_rng(5)
    diag = rng.uniform(0.0, 0.6, z.size)
    monkeypatch.setattr(engine, "_round_trip", lambda u: diag * u)
    v = engine._flat(engine.random_state(6))
    gram = engine._x_gram.matvec

    def inner(a, b):
        return np.vdot(b, gram(a))

    w = v - diag * v
    rest = z - inner(z, w) / inner(w, w).real * w
    image = rest - diag * rest
    step = rest - inner(rest, image) / inner(image, image).real * image
    res = engine.neumann_reconstruct(trace, _eta(0.6, (engine._state(v),
                                                       engine._state(diag * v))))
    assert res.n_used >= 1
    assert res.residual_norms[1] == pytest.approx(observers._norm(gram, step), rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(equation=st.sampled_from(["schrodinger", "wave"]),
       seed=st.integers(0, 2**32 - 1), steps=st.integers(0, 3),
       a=st.floats(-2.0, 2.0).filter(lambda x: x == 0.0 or abs(x) >= 1e-3),
       b=st.floats(-2.0, 2.0).filter(lambda x: x == 0.0 or abs(x) >= 1e-3))
def test_deflated_replay_is_linear_in_trace(engines, equation, seed, steps, a, b):
    # S(u) = c(u) y + q(L)(u - c(u) w), w = y - L y and c(u) = (u, w)_X /
    # ||w||_X^2, is linear in u, so the replay of a deflated solve is linear
    # in the trace, and on the solve's own trace it is the solve.  A solve
    # of 0 steps deflates a pair (y, y - z), whose w = z leaves no rest
    ops, schrod, wave = engines
    engine = schrod if equation == "schrodinger" else wave
    rng = np.random.default_rng(seed)
    shape = (engine.n_steps + 1, ops.n)

    def trace(samples):
        return ObservationTrace(equation, samples, engine.n_steps * engine.dt, engine.dt)

    def draw():
        y = rng.standard_normal(shape)
        return y + 1j * rng.standard_normal(shape) if equation == "schrodinger" else y

    y0, y1, y2 = draw(), draw(), draw()
    pair = _pairs(engine)
    if steps == 0:
        z = engine.first_iterate(trace(y0))
        y = combine((engine.x_norm(z), pair[0]))   # at z's scale, so w = z to rounding
        pair = (y, combine((1.0, y), (-1.0, z)))
    solve = _solve_in(engine, trace(y0), steps, pair)
    assert solve.polynomial.deflation is not None and 0.0 < solve.deflated <= 1.0
    assert solve.polynomial.steps == solve.n_used <= steps

    def estimate(samples):
        res = engine.neumann_reconstruct(trace(samples), _eta(0.5),
                                         polynomial=solve.polynomial)
        assert res.n_used == solve.n_used
        return engine._flat(res.estimate)

    e1, e2 = estimate(y1), estimate(y2)
    combined = estimate(a * y1 + b * y2)
    scale = max(abs(a) * np.max(np.abs(e1)), abs(b) * np.max(np.abs(e2)), 1e-300)
    assert np.max(np.abs(combined - (a * e1 + b * e2))) <= 1e-12 * scale
    own = estimate(y0)
    assert np.max(np.abs(own - engine._flat(solve.estimate))) <= 1e-12 * np.max(np.abs(own))


_PAIRS = {}


def _pairs(engine):
    """A Ritz pair of the engine's round trip, found once: the eta
    estimate's, or, for the wave, whose estimate carries none, its Ritz
    vector and that vector's image under apply_L."""
    if engine not in _PAIRS:
        eta = engine.estimate_eta(seed=3)
        y = eta.ritz_vector
        _PAIRS[engine] = eta.ritz_pair or (y, engine.apply_L(y))
    return _PAIRS[engine]


@pytest.mark.parametrize("equation", ["schrodinger", "wave"])
def test_first_iterate_along_the_pair_is_solved_exactly(engines, monkeypatch, equation):
    # y = z and L = lambda I: c y, c = 1 / (1 - lambda), is the solution,
    # rest = z - c (y - L y) is rounding, and no step runs and nothing
    # divides by zero
    _, schrod, wave = engines
    engine = schrod if equation == "schrodinger" else wave
    trace = _sine_trace(engine)
    z = engine.first_iterate(trace)
    flat = engine._flat(z)
    lam = 0.5
    monkeypatch.setattr(engine, "_round_trip", lambda u: lam * u)
    pair = (z, engine._state(lam * flat))
    with np.errstate(all="raise"):
        res = engine.neumann_reconstruct(trace, _eta(0.6, pair))
    assert res.n_used == 0 and res.deflated == pytest.approx(1.0, abs=1e-14)
    x = engine._flat(res.estimate)
    assert np.max(np.abs(x - flat / (1.0 - lam))) <= 1e-14 * np.max(np.abs(flat))
