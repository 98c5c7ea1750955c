import hashlib
import io
import itertools
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bafobs import models
from bafobs.fem import FieldSpec, Mesh1D, ObservationProfile, assemble, check_window
from bafobs.linalg import pencil_eigs
from bafobs.models import (GENERATION_BLOCK, NOISE_CHUNK, SYNTHESIS_BLOCK, NoiseSpec,
                           ProblemInstance, _draw_noise, _NoiseStream, _unit_noise_in_place,
                           add_noise, generate_observation, read_trace, unit_noise,
                           write_trace)
from bafobs.observers import ObservationTrace
from oracles import (dense_pencil_eigs, norm_alpha, propagate_exact, splitmix64,
                     splitmix_add_noise)


@pytest.fixture(scope="module")
def schrod_instance():
    return ProblemInstance(
        equation="schrodinger", mesh=Mesh1D(n_cells=16),
        profile=ObservationProfile(), tau=1.0, n_steps=16,
        truth=FieldSpec(kind="sine", coefficients=(1.0, 0.5)))


@pytest.fixture(scope="module")
def wave_instance():
    return ProblemInstance(
        equation="wave", mesh=Mesh1D(n_cells=16),
        profile=ObservationProfile(), tau=2.0, n_steps=32,
        truth=(FieldSpec(kind="sine", coefficients=(1.0,)),
               FieldSpec(kind="sine", coefficients=(0.0, 1.0))))


def test_instance_validation():
    mesh = Mesh1D(n_cells=8)
    prof = ObservationProfile()
    sine = FieldSpec(kind="sine", coefficients=(1.0,))
    with pytest.raises(ValueError, match="pair"):
        ProblemInstance("wave", mesh, prof, 1.0, 8, sine)
    with pytest.raises(ValueError, match="single"):
        ProblemInstance("schrodinger", mesh, prof, 1.0, 8, (sine, sine))
    with pytest.raises(ValueError, match="n_steps"):
        ProblemInstance("wave", mesh, prof, 1.0, 1, (sine, sine))
    with pytest.raises(ValueError, match="kind must be 'sine' or 'bump', got 'kink'"):
        FieldSpec(kind="kink")
    # the wave is real: a complex coefficient used to lose its imaginary part
    # with only a ComplexWarning
    wavy = FieldSpec(kind="sine", coefficients=(1 + 1j,))
    for truth in ((wavy, sine), (sine, wavy)):
        with pytest.raises(ValueError, match="wave truth must be real"):
            ProblemInstance("wave", mesh, prof, 1.0, 8, truth)


@pytest.mark.parametrize("equation, kw, match", [
    # n_steps = 2.5 used to build, and generation then failed on tau = K dt
    ("schrodinger", dict(n_steps=2.5), "n_steps must be an integer >= 1, got 2.5"),
    ("schrodinger", dict(n_steps=True), "n_steps must be an integer >= 1, got True"),
    ("schrodinger", dict(n_steps=0), "n_steps must be an integer >= 1, got 0"),
    ("wave", dict(n_steps=1), "n_steps must be an integer >= 2, got 1"),
    # a str tau used to raise a TypeError from the comparison with 0
    ("schrodinger", dict(tau="x"), "tau must be a positive number, got 'x'"),
    ("schrodinger", dict(tau=float("inf")), "tau must be a positive number, got inf"),
    ("wave", dict(tau=0.0), "tau must be a positive number, got 0.0"),
], ids=["steps-2.5", "steps-True", "steps-0", "wave-steps-1", "tau-str", "tau-inf",
        "wave-tau-0"])
def test_instance_refuses_a_horizon_it_cannot_step(equation, kw, match):
    sine = FieldSpec()
    base = dict(equation=equation, mesh=Mesh1D(n_cells=8), profile=ObservationProfile(),
                tau=1.0, n_steps=8, truth=sine if equation == "schrodinger" else (sine, sine))
    with pytest.raises(ValueError, match=match):
        ProblemInstance(**{**base, **kw})
    assert ProblemInstance(**{**base, "tau": np.float32(1.0), "n_steps": np.int64(8)}).dt == 1 / 8


def test_exact_propagation_conserves_m_norm(schrod_instance):
    traj = propagate_exact(schrod_instance, refine=2)
    norms = [norm_alpha(traj.operators, s, 0.0) for s in traj.states]
    assert max(norms) - min(norms) <= 1e-10 * norms[0]


def test_exact_propagation_conserves_wave_energy(wave_instance):
    traj = propagate_exact(wave_instance, refine=2)
    energies = [
        norm_alpha(traj.operators, traj.states[k], 0.5) ** 2
        + norm_alpha(traj.operators, traj.velocities[k], 0.0) ** 2
        for k in range(traj.states.shape[0])
    ]
    assert max(energies) - min(energies) <= 1e-10 * energies[0]


def test_first_sample_is_masked_truth_nodally(schrod_instance):
    inst = schrod_instance
    for refine in (1, 2):
        trace = generate_observation(inst, refine=refine)
        x = inst.mesh.interior_nodes
        expected = inst.profile.weight(x) * inst.truth.value(x)
        assert np.max(np.abs(trace.samples[0] - expected)) < 1e-10


def test_first_sample_wave_is_masked_velocity(wave_instance):
    inst = wave_instance
    trace = generate_observation(inst, refine=2)
    x = inst.mesh.interior_nodes
    expected = inst.profile.weight(x) * inst.truth[1].value(x)
    assert np.max(np.abs(trace.samples[0] - expected)) < 1e-10


def test_single_mode_returns_after_one_period():
    mesh = Mesh1D(n_cells=12)
    prof = ObservationProfile()
    ops = assemble(mesh, prof)
    lam1 = pencil_eigs(ops.stiffness, ops.mass).values[0]
    period = 2 * np.pi / lam1
    inst = ProblemInstance("schrodinger", mesh, prof, tau=period, n_steps=8,
                           truth=FieldSpec(kind="sine", coefficients=(1.0,)))
    trace = generate_observation(inst, refine=1)
    assert np.max(np.abs(trace.samples[-1] - trace.samples[0])) < 1e-9


def test_generation_lifts_the_oracle_size_limit():
    # 5999 fine nodes, above the dense oracle's 4096; four steps keep the
    # trajectory small, and no n x n array (288 MB here) is ever allocated
    mesh = Mesh1D(n_cells=3000)
    inst = ProblemInstance("schrodinger", mesh, ObservationProfile(), tau=1.0,
                           n_steps=4, truth=FieldSpec(kind="sine", coefficients=(1.0, 0.5)))
    tracemalloc.start()
    try:
        trace = generate_observation(inst, refine=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n_fine = 2 * mesh.n_cells - 1
    assert peak < 0.05 * 8 * n_fine ** 2
    assert trace.samples.shape == (5, mesh.n)
    x = mesh.interior_nodes
    expected = inst.profile.weight(x) * inst.truth.value(x)
    assert np.max(np.abs(trace.samples[0] - expected)) < 1e-10


def dense_oracle_trace(inst: ProblemInstance, refine: int) -> np.ndarray:
    """Clean samples by the dense oracle's eigenvectors, products with V and V^T."""
    fine = Mesh1D(n_cells=inst.mesh.n_cells * refine, length=inst.mesh.length)
    ops = assemble(fine, inst.profile)
    pencil = dense_pencil_eigs(ops.stiffness, ops.mass)
    V, lam = pencil.vectors, pencil.values
    x = fine.interior_nodes
    t = inst.dt * np.arange(inst.n_steps + 1)[:, None]
    if inst.equation == "schrodinger":
        c = V.T @ ops.mass.matvec(inst.truth.value(x).astype(complex))
        observed = (np.exp(1j * t * lam) * c) @ V.T
    else:
        a, b = (V.T @ ops.mass.matvec(f.value(x)) for f in inst.truth)
        om = np.sqrt(lam)
        observed = (-om * np.sin(t * om) * a + np.cos(t * om) * b) @ V.T
    return (observed * inst.profile.weight(x))[:, refine - 1::refine]


@pytest.mark.parametrize("kind", ["sine", "bump"])
@pytest.mark.parametrize("equation", ["schrodinger", "wave"])
def test_traces_match_dense_oracle(equation, kind):
    truth = FieldSpec(kind=kind, coefficients=(1.0, 0.5))
    inst = ProblemInstance(equation, Mesh1D(n_cells=64), ObservationProfile(),
                           tau=1.0 if equation == "schrodinger" else 2.0, n_steps=64,
                           truth=truth if equation == "schrodinger" else (truth, truth))
    samples = generate_observation(inst, refine=2).samples
    ref = dense_oracle_trace(inst, 2)
    assert np.max(np.abs(samples - ref)) <= 1e-9 * np.max(np.abs(ref))


@pytest.mark.parametrize("n_steps", [5, 7, 8, 31, 32, 39, 40, 69, 96])
@pytest.mark.parametrize("equation", ["schrodinger", "wave"])
def test_block_phasors_match_the_dense_oracle_across_blocks(equation, n_steps, monkeypatch):
    # row s + r of a block is the phase table's row r times the block's
    # phase at s: step counts below, at and past GENERATION_BLOCK = 32 rows,
    # 70 rows ending in a partial block, against the dense oracle (to its own
    # accuracy, as in test_traces_match_dense_oracle) and against one exp per
    # sample of the closed-form trajectory, to rounding.  95 modes synthesize
    # whole blocks; in SYNTHESIS_BLOCK = 8 row sub-blocks (below, at and past
    # one and five of them) the samples keep their bits
    assert GENERATION_BLOCK == 32 and SYNTHESIS_BLOCK == 8
    sine = FieldSpec(kind="sine", coefficients=(1.0, 0.5))
    bump = FieldSpec(kind="bump")
    inst = ProblemInstance(equation, Mesh1D(n_cells=48), ObservationProfile(),
                           tau=1.0 if equation == "schrodinger" else 2.0, n_steps=n_steps,
                           truth=sine if equation == "schrodinger" else (sine, bump))
    samples = generate_observation(inst, refine=2).samples
    ref = dense_oracle_trace(inst, 2)
    scale = np.max(np.abs(ref))
    assert samples.shape == ref.shape == (n_steps + 1, 47)
    assert np.max(np.abs(samples - ref)) <= 1e-9 * scale
    traj = propagate_exact(inst, refine=2)
    observed = traj.states if equation == "schrodinger" else traj.velocities
    exact = (observed * inst.profile.weight(traj.mesh.interior_nodes))[:, 1::2]
    assert np.max(np.abs(samples - exact)) <= 1e-13 * scale
    monkeypatch.setattr(models, "SYNTHESIS_MODES", 95)
    assert np.array_equal(generate_observation(inst, refine=2).samples, samples)


def test_generation_commutes_with_scaling(schrod_instance):
    inst = schrod_instance
    scaled = ProblemInstance(
        equation=inst.equation, mesh=inst.mesh, profile=inst.profile,
        tau=inst.tau, n_steps=inst.n_steps,
        truth=FieldSpec(kind="sine", coefficients=(3.0, 1.5)))
    a = generate_observation(inst, refine=2)
    b = generate_observation(scaled, refine=2)
    assert np.max(np.abs(b.samples - 3.0 * a.samples)) < 1e-11


def test_refined_trace_restricts_by_nodal_injection(schrod_instance, wave_instance):
    for inst, refine in itertools.product((schrod_instance, wave_instance), range(1, 6)):
        traj = propagate_exact(inst, refine=refine)
        trace = generate_observation(inst, refine=refine)
        observed = traj.states if inst.equation == "schrodinger" else traj.velocities
        weights = inst.profile.weight(traj.mesh.interior_nodes)
        restricted = (observed * weights[None, :])[:, refine - 1::refine]
        if refine == 1:
            assert np.array_equal(trace.samples, restricted)
        else:
            # the fine modes are folded before the sum, so only the summation
            # order differs from restricting the synthesized fine field
            scale = np.max(np.abs(restricted))
            assert np.max(np.abs(trace.samples - restricted)) <= 1e-14 * scale
        assert trace.provenance == ("mesh-refined" if refine > 1 else "clean")


@pytest.mark.parametrize("equation, n_cells", [("schrodinger", 1024), ("wave", 512)])
def test_generation_peak_memory_is_the_trace_plus_one_block(equation, n_cells):
    # only the observed field is synthesized, at the coarse nodes, in blocks
    # of time rows, 8 at a time; a fine trajectory (and the wave positions)
    # would take several times the trace.  The peaks are 1.18x and 1.53x the
    # trace's bytes (1.31x and 1.93x with 32-row synthesis buffers); the
    # phase tables of a 32-row block are most of what is left
    sine = FieldSpec(kind="sine", coefficients=(1.0, 0.5))
    inst = ProblemInstance(equation, Mesh1D(n_cells=n_cells), ObservationProfile(),
                           tau=1.0, n_steps=n_cells,
                           truth=sine if equation == "schrodinger" else (sine, sine))
    tracemalloc.start()
    try:
        trace = generate_observation(inst, refine=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= {"schrodinger": 1.25, "wave": 1.6}[equation] * trace.samples.nbytes


def test_add_noise_zero_amplitude_is_identity(schrod_instance):
    trace = generate_observation(schrod_instance, refine=1)
    out = add_noise(trace, NoiseSpec(0.0, seed=99))
    assert out is trace


def test_add_noise_deterministic_and_bounded(schrod_instance):
    trace = generate_observation(schrod_instance, refine=1)
    a = add_noise(trace, NoiseSpec(1e-2, seed=5))
    b = add_noise(trace, NoiseSpec(1e-2, seed=5))
    assert np.array_equal(a.samples, b.samples)
    assert a.provenance == "noisy"
    delta = a.samples - trace.samples
    assert np.max(np.abs(delta.real)) <= 1e-2
    assert np.max(np.abs(delta.imag)) <= 1e-2
    c = add_noise(trace, NoiseSpec(1e-2, seed=6))
    assert not np.array_equal(a.samples, c.samples)


@pytest.mark.parametrize("is_complex", [True, False])
def test_add_noise_is_the_whole_array_draw_bit_for_bit(is_complex):
    # the draws go in place, NOISE_CHUNK values at a time, against SplitMix64
    # one value at a time on Python ints
    rng = np.random.default_rng(3)
    samples = rng.standard_normal((70, 33))
    if is_complex:
        samples = samples + 1j * rng.standard_normal(samples.shape)
    copy = samples.copy()
    trace = ObservationTrace("schrodinger" if is_complex else "wave", samples, 0.69, 0.01)
    noisy = add_noise(trace, NoiseSpec(1e-2, seed=9))
    assert noisy.samples.dtype == samples.dtype
    assert np.array_equal(noisy.samples, splitmix_add_noise(samples, 1e-2, 9))
    assert np.array_equal(samples, copy)


def test_noise_draws_cross_chunks_and_take_any_seed():
    # a trace of 3 chunks and a bit, under a seed past 2**64, which folds in
    # its every 64-bit word
    samples = np.zeros((3 * NOISE_CHUNK // 64 + 1, 32), complex)
    seed = 2**130 + 2**64 + 3
    _draw_noise(samples, NoiseSpec(0.25, seed))
    assert np.array_equal(samples, splitmix_add_noise(np.zeros_like(samples), 0.25, seed))
    other = np.zeros_like(samples)
    _draw_noise(other, NoiseSpec(0.25, seed - 2**130))
    assert not np.array_equal(samples, other)


def test_noise_stream_keeps_its_golden_values():
    # the stream is the package's: a change to it fails here, not only in
    # the oracle.  splitmix64 is SplitMix64's finalizer, whose outputs for
    # seeds 0 and 1234567 are the published ones
    assert splitmix64(0x9E3779B97F4A7C15) == 0xE220A8397B1DCDAF
    assert splitmix64(0x3C6EF372FE94F82A) == 0x6E789E6AA1B965F4
    assert splitmix64(1234567 + 0x9E3779B97F4A7C15) == 0x599ED017FB08FC85
    trace = ObservationTrace("schrodinger", np.zeros((2, 2), complex), 1.0, 1.0)
    for seed, golden in [
            (0, ["-0x1.63e48b42cb9a2p-1", "-0x1.31f573e82efaep-1",
                 "0x1.8c6a4553eeafcp-1", "-0x1.5fd515cde66fep-1"]),
            (2**64 + 5, ["-0x1.6b97dc59987e6p-1", "0x1.d94d2c19136e0p-4",
                         "-0x1.f933710583800p-1", "0x1.d40fad55e7a60p-1"])]:
        unit = unit_noise(trace, seed).samples
        assert unit[0].view(np.float64).tolist() == [float.fromhex(v) for v in golden]


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(2, 40), cols=st.integers(1, 9), is_complex=st.booleans(),
       data=st.data(), amplitude=st.floats(0.0, 1e3), seed=st.integers(0, 2**130))
def test_a_noise_block_at_any_row_offset_is_that_slice_of_the_whole_draw(
        rows, cols, is_complex, data, amplitude, seed):
    # draw i depends on i alone, so a block of rows [r, r + m) drawn at its
    # own offset, in any order, is those rows of the whole draw; every value
    # lies in [-amplitude, amplitude]
    whole = np.zeros((rows, cols), complex if is_complex else float)
    noise = NoiseSpec(amplitude, seed)
    _draw_noise(whole, noise)
    values = whole.reshape(-1).view(np.float64)
    assert np.all(np.abs(values) <= amplitude)
    start = data.draw(st.integers(0, rows - 1))
    stop = data.draw(st.integers(start + 1, rows))
    width = values.size // rows
    block = np.zeros((stop - start) * width)
    _NoiseStream(noise, block.size).add(block, start * width)
    assert np.array_equal(block, values[start * width:stop * width])


def test_add_noise_memory_is_one_copy_of_the_trace():
    # Schrodinger at 1024 cells: the noisy copy and one block of draws, not
    # two more trace-sized arrays of draws
    rng = np.random.default_rng(4)
    samples = rng.standard_normal((1025, 1023)) + 1j * rng.standard_normal((1025, 1023))
    trace = ObservationTrace("schrodinger", samples, 1.0, 1.0 / 1024)
    tracemalloc.start()
    try:
        add_noise(trace, NoiseSpec(1e-3, seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.3 * samples.nbytes


@pytest.mark.parametrize("is_complex", [True, False])
def test_unit_noise_scales_to_add_noise(is_complex):
    # the same stream at amplitude 1, in one array: add_noise at eps is the
    # trace plus eps times it, to rounding
    rng = np.random.default_rng(6)
    samples = rng.standard_normal((70, 33))
    if is_complex:
        samples = samples + 1j * rng.standard_normal(samples.shape)
    trace = ObservationTrace("schrodinger" if is_complex else "wave", samples, 0.69, 0.01)
    unit = unit_noise(trace, seed=9)
    assert unit.samples.dtype == samples.dtype and unit.provenance == "unit-noise"
    assert np.array_equal(unit.samples,
                          splitmix_add_noise(np.zeros_like(samples), 1.0, 9))
    for eps in (1e-4, 1e-2, 0.5):
        noisy = add_noise(trace, NoiseSpec(eps, seed=9)).samples
        np.testing.assert_allclose(noisy, samples + eps * unit.samples, rtol=0,
                                   atol=4 * np.finfo(float).eps * np.max(np.abs(samples)))


@pytest.mark.parametrize("is_complex", [True, False])
def test_unit_noise_in_place_is_unit_noise_in_the_traces_buffer(is_complex):
    rng = np.random.default_rng(7)
    samples = rng.standard_normal((70, 33))
    if is_complex:
        samples = samples + 1j * rng.standard_normal(samples.shape)
    trace = ObservationTrace("schrodinger" if is_complex else "wave", samples, 0.69, 0.01)
    expected = unit_noise(trace, seed=9)
    unit = _unit_noise_in_place(trace, seed=9)
    assert unit.samples is samples and unit.provenance == "unit-noise"
    assert unit.samples.dtype == expected.samples.dtype
    assert np.array_equal(unit.samples, expected.samples)


def test_unit_noise_memory_is_one_trace():
    rng = np.random.default_rng(4)
    samples = rng.standard_normal((1025, 1023)) + 1j * rng.standard_normal((1025, 1023))
    trace = ObservationTrace("schrodinger", samples, 1.0, 1.0 / 1024)
    tracemalloc.start()
    try:
        unit_noise(trace, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.3 * samples.nbytes


@pytest.mark.parametrize("amplitude", [-1.0, float("inf"), float("nan"),
                                       pytest.param(10**400, id="int-past-float-range")])
def test_noise_amplitude_must_be_finite_and_nonnegative(amplitude):
    with pytest.raises(ValueError, match="amplitude must be finite and nonnegative"):
        NoiseSpec(amplitude)


@pytest.mark.parametrize("amplitude", [np.float32(0.5), np.float64(0.5), np.int64(1), 0],
                         ids=["float32", "float64", "int64", "int"])
def test_noise_amplitude_takes_any_finite_real(amplitude):
    assert NoiseSpec(amplitude).amplitude == amplitude


@pytest.mark.parametrize("equation", ["schrodinger", "wave"])
def test_generated_noise_is_add_noise_bit_for_bit(equation):
    # 70 rows: generation ends in a partial block and a partial sub-block
    sine = FieldSpec(kind="sine", coefficients=(1.0, 0.5))
    inst = ProblemInstance(equation, Mesh1D(n_cells=16), ObservationProfile(), tau=1.0,
                           n_steps=69, truth=sine if equation == "schrodinger" else (sine, sine))
    noise = NoiseSpec(1e-2, seed=8)
    noisy = generate_observation(inst, refine=2, noise=noise)
    expected = add_noise(generate_observation(inst, refine=2), noise)
    assert noisy.provenance == expected.provenance == "noisy"
    assert np.array_equal(noisy.samples, expected.samples)
    clean = generate_observation(inst, refine=2, noise=NoiseSpec(0.0, seed=8))
    assert clean.provenance == "mesh-refined"
    assert np.array_equal(clean.samples, generate_observation(inst, refine=2).samples)


def test_generated_noise_is_drawn_into_the_trace_in_place():
    # Schrodinger at 1024 cells, refine 2: the noise goes into the samples
    # generation owns, not into a second copy of the trace (2.12x when it did)
    inst = ProblemInstance("schrodinger", Mesh1D(n_cells=1024), ObservationProfile(),
                           tau=1.0, n_steps=1024,
                           truth=FieldSpec(kind="sine", coefficients=(1.0, 0.5)))
    tracemalloc.start()
    try:
        trace = generate_observation(inst, refine=2, noise=NoiseSpec(1e-3, seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.4 * trace.samples.nbytes


def test_noise_rms_matches_uniform_moment():
    # uniform on [-eps, eps] has RMS eps/sqrt(3)
    mesh = Mesh1D(n_cells=128)
    inst = ProblemInstance("wave", mesh, ObservationProfile(), tau=2.0,
                           n_steps=128,
                           truth=(FieldSpec(kind="sine", coefficients=(1.0,)),
                                  FieldSpec(kind="sine", coefficients=(1.0,))))
    trace = generate_observation(inst, refine=1)
    eps = 1e-3
    noisy = add_noise(trace, NoiseSpec(eps, seed=12))
    delta = noisy.samples - trace.samples
    assert delta.size >= 10_000
    rms = np.sqrt(np.mean(delta ** 2))
    assert 0.9 * eps / np.sqrt(3) <= rms <= 1.1 * eps / np.sqrt(3)


def test_trace_file_roundtrip(tmp_path, schrod_instance):
    noise = NoiseSpec(1e-3, seed=4)
    trace = generate_observation(schrod_instance, refine=2, noise=noise)
    path = tmp_path / "trace.txt"
    header = write_trace(path, trace, schrod_instance, refine=2, noise=noise)
    assert header["format"] == "bafobs-trace-2"
    assert header["n_steps"] == 16 and header["refine"] == 2
    assert header["noise"] == {"amplitude": 1e-3, "seed": 4}
    back, header2 = read_trace(path)
    assert header2 == header
    assert np.array_equal(back.samples, trace.samples)
    assert back.tau == trace.tau and back.dt == trace.dt


def test_trace_file_roundtrip_real(tmp_path, wave_instance):
    trace = generate_observation(wave_instance, refine=1)
    path = tmp_path / "wave_trace.txt"
    write_trace(path, trace, wave_instance, refine=1)
    back, header = read_trace(path)
    assert not header["complex"]
    assert np.array_equal(back.samples, trace.samples)


@pytest.mark.parametrize("equation", ["schrodinger", "wave"])
def test_trace_digest_is_fed_as_the_file_is_written(tmp_path, schrod_instance, wave_instance,
                                                    equation):
    # the digest is the file's, and the payload is np.save's bytes
    inst = schrod_instance if equation == "schrodinger" else wave_instance
    trace = generate_observation(inst, refine=2)
    path = tmp_path / "trace.txt"
    digest = hashlib.sha256()
    write_trace(path, trace, inst, refine=2, digest=digest)
    data = path.read_bytes()
    assert digest.hexdigest() == hashlib.sha256(data).hexdigest()
    saved = io.BytesIO()
    np.save(saved, trace.samples, allow_pickle=False)
    assert data.split(b"\n", 1)[1] == saved.getvalue()
    plain = tmp_path / "plain.txt"
    write_trace(plain, trace, inst, refine=2)
    assert plain.read_bytes() == data


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _random_traces(draw):
    shape = (draw(st.integers(2, 6)), draw(st.integers(1, 5)))
    samples = draw(arrays(np.float64, shape, elements=_FINITE))
    if draw(st.booleans()):
        samples = samples + 1j * draw(arrays(np.float64, shape, elements=_FINITE))
    return samples


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(samples=_random_traces())
def test_trace_file_roundtrip_bit_exact(tmp_path, samples):
    n_steps = samples.shape[0] - 1
    trace = ObservationTrace("schrodinger", samples, tau=1.0, dt=1.0 / n_steps)
    instance = ProblemInstance(
        equation="schrodinger", mesh=Mesh1D(n_cells=samples.shape[1] + 1),
        profile=ObservationProfile(), tau=1.0, n_steps=n_steps,
        truth=FieldSpec(kind="sine", coefficients=(1.0,)))
    path = tmp_path / "trace.txt"
    write_trace(path, trace, instance, refine=1)
    back, _ = read_trace(path)
    assert back.samples.dtype == samples.dtype
    assert back.samples.tobytes() == samples.tobytes()


# every key read_trace requires, as write_trace writes them, for _V2_SAMPLES
_V2_HEADER = {"format": "bafobs-trace-2", "equation": "wave", "length": 1.0, "n_cells": 5,
              "tau": 1.0, "dt": 0.5, "n_steps": 2, "complex": False,
              "noise": {"amplitude": 0.0, "seed": 0},
              "profile": {"a": 0.2, "b": 0.8, "smoothness": 2, "constant": None}}


def _npy_trace(path, payload, cut=None, tail=b"", **header):
    """A hand-made bafobs-trace-2 file: the header line, then np.save of the
    payload, cut to its first `cut` bytes and followed by `tail`."""
    rows = payload.shape[0] if payload.ndim else 2
    header = {**_V2_HEADER, "dt": 1.0 / (rows - 1), "n_steps": rows - 1,
              "complex": bool(np.iscomplexobj(payload)), **header}
    buf = io.BytesIO()
    np.save(buf, payload, allow_pickle=False)
    path.write_bytes(json.dumps(header).encode("utf-8") + b"\n"
                     + buf.getvalue()[:cut] + tail)
    return path


_V2_SAMPLES = np.arange(12.0).reshape(3, 4)


@pytest.mark.parametrize("cut", [0, 4, 40, -1], ids=["empty", "in-magic",
                                                     "in-array-header", "in-data"])
def test_trace_file_rejects_empty_or_truncated_payload(tmp_path, cut):
    path = _npy_trace(tmp_path / "short.txt", _V2_SAMPLES, cut=cut)
    with pytest.raises(ValueError, match="payload"):
        read_trace(path)


def test_trace_file_rejects_trailing_bytes(tmp_path):
    path = _npy_trace(tmp_path / "long.txt", _V2_SAMPLES, tail=b"\n")
    with pytest.raises(ValueError, match="trailing bytes"):
        read_trace(path)


@pytest.mark.parametrize("payload", [np.arange(3.0), np.zeros((3, 2, 2)),
                                     np.float64(1.0)], ids=["1-d", "3-d", "0-d"])
def test_trace_file_rejects_payload_not_2d(tmp_path, payload):
    # the trace's own shape rule, not a second one in the reader
    path = _npy_trace(tmp_path / "shape.txt", payload)
    with pytest.raises(ValueError, match=re.escape("trace samples must be a (K+1, n) array")):
        read_trace(path)


@pytest.mark.parametrize("payload, is_complex", [
    (_V2_SAMPLES, True), (_V2_SAMPLES.astype(complex), False),
    (_V2_SAMPLES.astype(np.float32), False), (_V2_SAMPLES.astype(">f8"), False),
], ids=["real-as-complex", "complex-as-real", "float32", "big-endian"])
def test_trace_file_rejects_payload_dtype_not_matching_header(tmp_path, payload,
                                                              is_complex):
    path = _npy_trace(tmp_path / "dtype.txt", payload, complex=is_complex)
    with pytest.raises(ValueError, match="dtype"):
        read_trace(path)


def test_trace_file_rejects_non_finite_samples(tmp_path):
    for bad in (np.nan, np.inf, -np.inf):
        samples = _V2_SAMPLES.copy()
        samples[1, 2] = bad
        path = _npy_trace(tmp_path / "bad.txt", samples)
        with pytest.raises(ValueError, match="finite"):
            read_trace(path)


def test_trace_file_rejects_unknown_format(tmp_path):
    # bafobs-trace-1, the retired text format, among them, however complete
    # its header and rows
    path = tmp_path / "bogus.txt"
    for header in ({"format": "other"}, {**_V2_HEADER, "format": "bafobs-trace-1"}):
        path.write_text(json.dumps(header) + "\n1.0,2.0\n3.0,4.0\n5.0,6.0\n",
                        encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(
                f"unrecognized trace format {header['format']!r}")):
            read_trace(path)


_NOISE_KEYS = "trace header noise must be an object with exactly the keys amplitude, seed"
_PROFILE_KEYS = ("trace header profile must be an object with exactly the keys a, b, "
                 "smoothness, constant")


@pytest.mark.parametrize("header_line, message", [
    ("5", "format"), ("[]", "format"),
    # a missing key is refused by the rule of its value, as a null
    ('{"format": "bafobs-trace-2", "tau": 1.0}', "trace header complex must be a bool, got None"),
    # every writer of the format records them, so a header without one is refused
    (json.dumps({k: v for k, v in _V2_HEADER.items() if k != "noise"}),
     f"{_NOISE_KEYS}, got None"),
    (json.dumps({k: v for k, v in _V2_HEADER.items() if k != "profile"}),
     f"{_PROFILE_KEYS}, got None"),
    (json.dumps({k: v for k, v in _V2_HEADER.items() if k != "n_cells"}),
     "trace header n_cells must be an integer >= 2, got None"),
    (json.dumps({k: v for k, v in _V2_HEADER.items() if k != "length"}),
     "trace header length must be a positive number, got None"),
], ids=["number", "list", "missing-keys", "no-noise", "no-profile", "no-n_cells", "no-length"])
def test_trace_file_rejects_malformed_header(tmp_path, header_line, message):
    path = tmp_path / "bad.txt"
    path.write_text(header_line + "\n1.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(message)):
        read_trace(path)


@pytest.mark.parametrize("key, value, message", [
    ("n_steps", "2", "trace header n_steps must be 2, one less than the payload's rows, got '2'"),
    ("n_steps", True, "trace header n_steps must be 2, one less than the payload's rows, "
     "got True"),
    ("n_steps", 0, "trace header n_steps must be 2, one less than the payload's rows, got 0"),
    ("tau", "1.0", "trace tau must be a positive number, got '1.0'"),
    ("tau", float("inf"), "trace tau must be a positive number, got inf"),
    ("tau", 10 ** 400, f"trace tau must be a positive number, got {10 ** 400!r}"),
    ("dt", None, "trace dt must be tau / K = 0.5, got None"),
    ("dt", -0.5, "trace dt must be tau / K = 0.5, got -0.5"),
    ("complex", "yes", "trace header complex must be a bool, got 'yes'"),
    ("complex", 0, "trace header complex must be a bool, got 0"),
    ("equation", 3, "trace equation must be 'schrodinger' or 'wave', got 3"),
    ("noise", {"amplitude": -1e-3}, f"{_NOISE_KEYS}, got {{'amplitude': -0.001}}"),
    ("noise", {"amplitude": "0"}, f"{_NOISE_KEYS}, got {{'amplitude': '0'}}"),
    ("noise", 0.0, f"{_NOISE_KEYS}, got 0.0"),
    ("profile", None, f"{_PROFILE_KEYS}, got None"),
    ("profile", [0.2, 0.8], f"{_PROFILE_KEYS}, got [0.2, 0.8]"),
    # each object's fields by the type that holds them, named by their key
    ("noise", {"amplitude": -1e-3, "seed": 0},
     "trace header noise.amplitude must be finite and nonnegative, got -0.001"),
    ("noise", {"amplitude": 0.0, "seed": "x"},
     "trace header noise.seed must be an integer >= 0, got 'x'"),
    ("noise", {"amplitude": 0.0, "seed": 0, "extra": 1}, f"{_NOISE_KEYS}, got "),
    ("profile", {"a": 0.2, "b": 0.8, "smoothness": 7, "constant": None},
     "trace header profile.smoothness must be 1, 2 or 3, got 7"),
    ("profile", {"a": -0.1, "b": 0.8, "smoothness": 2, "constant": None},
     "trace header profile.a must be greater than 0, got -0.1"),
    ("length", 0.5, "trace header profile.b must be less than the length 0.5, got 0.8"),
    ("n_cells", 1, "trace header n_cells must be an integer >= 2, got 1"),
    ("n_cells", 4, "trace payload must have n_cells - 1 = 3 columns, got 4"),
], ids=["n_steps-str", "n_steps-bool", "n_steps-zero", "tau-str", "tau-inf",
        "tau-int-past-float", "dt-null", "dt-negative", "complex-str", "complex-int", "equation-int",
        "noise-negative", "noise-str", "noise-number", "profile-null", "profile-list",
        "noise-amplitude-negative", "noise-seed-str", "noise-extra-key", "profile-smoothness-7",
        "profile-window-below-0", "length-short-of-window", "n_cells-1", "n_cells-not-columns"])
def test_trace_file_rejects_header_value_of_wrong_kind(tmp_path, key, value, message):
    path = _npy_trace(tmp_path / "kind.txt", _V2_SAMPLES, **{key: value})
    with pytest.raises(ValueError, match=re.escape(message)):
        read_trace(path)


def test_trace_file_refuses_complex_samples_for_the_wave(tmp_path):
    # a Schrodinger trace relabelled as a wave used to be read, and its
    # complex samples crashed the wave's real passes
    path = _npy_trace(tmp_path / "wave.txt", _V2_SAMPLES.astype(complex))
    with pytest.raises(ValueError, match="trace samples must be real for the wave, "
                                         "got complex128"):
        read_trace(path)


_HEADER_VALUE = st.one_of(st.none(), st.booleans(), st.integers(-2, 9), st.floats(),
                          st.text(max_size=2), st.sampled_from([0.2, 0.8, 0.5, 1.5, 2, 3]))


@st.composite
def _header_objects(draw):
    """noise, profile, n_cells and length as a header could hold them: mostly
    objects with the writer's keys, now and then a key short or over."""
    def record(names):
        value = {name: draw(_HEADER_VALUE) for name in names}
        if draw(st.integers(0, 9)) == 0:
            value.pop(names[0]) if draw(st.booleans()) else value.update(extra=0)
        return value
    return (record(("amplitude", "seed")), record(("a", "b", "smoothness", "constant")),
            draw(st.one_of(st.integers(-1, 8), _HEADER_VALUE)),
            draw(st.one_of(st.floats(0.1, 3.0), _HEADER_VALUE)))


def _builds(noise, profile, n_cells, length) -> bool:
    """Whether each owning type builds from the values, with the writer's keys."""
    try:
        Mesh1D(n_cells, length)
        NoiseSpec(**noise)
        check_window(ObservationProfile(**{"const" if k == "constant" else k: v
                                           for k, v in profile.items()}), length)
    except (ValueError, TypeError):
        return False
    return noise.keys() == {"amplitude", "seed"} and len(profile) == 4


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(objects=_header_objects())
def test_trace_header_is_read_exactly_when_its_types_build(tmp_path, objects):
    # one rule per header key: a noise seed 'x' or an extra noise key used to
    # be read, and n_cells and length were not read at all
    noise, profile, n_cells, length = objects
    columns = n_cells - 1 if isinstance(n_cells, int) and 2 <= n_cells else 3
    path = _npy_trace(tmp_path / "t.txt", np.zeros((3, columns)), noise=noise,
                      profile=profile, n_cells=n_cells, length=length)
    try:
        read_trace(path)
        read = True
    except ValueError as exc:
        read = False
        assert str(exc).startswith("trace header "), str(exc)
    assert read == _builds(noise, profile, n_cells, length), objects


def test_generate_rejects_bad_refine(schrod_instance):
    with pytest.raises(ValueError, match="refine"):
        generate_observation(schrod_instance, refine=0)


def test_minimal_mesh_pipeline_runs():
    # one interior node: degenerate but legal end-to-end flow
    from bafobs.observers import BackAndForth
    mesh = Mesh1D(n_cells=2)
    prof = ObservationProfile()
    ops = assemble(mesh, prof)
    inst = ProblemInstance("schrodinger", mesh, prof, tau=1.0, n_steps=4,
                           truth=FieldSpec(kind="sine", coefficients=(1.0,)))
    trace = generate_observation(inst, refine=2)
    engine = BackAndForth("schrodinger", ops, 0.25, 4)
    res = engine.neumann_reconstruct(trace, n_terms=2)
    assert res.estimate.shape == (1,)
    assert np.isfinite(res.estimate).all()


def test_single_mode_recovery_within_first_order_envelope():
    # clean refine-1 data reconstructs a single-mode truth with error bounded
    # by a constant times (h + dt); the constant reflects the lambda_1^2-sized
    # consistency error of the implicit scheme on the unit interval, so 25 is
    # used here (see the decisions ledger) and the error halves with the level
    from bafobs.harness import reconstruction_error
    from bafobs.observers import BackAndForth
    prof = ObservationProfile()
    errors = {}
    for n in (64, 128):
        mesh = Mesh1D(n_cells=n)
        ops = assemble(mesh, prof)
        truth = FieldSpec(kind="sine", coefficients=(1.0,))
        inst = ProblemInstance("schrodinger", mesh, prof, tau=1.0, n_steps=n,
                               truth=truth)
        trace = generate_observation(inst, refine=1)
        engine = BackAndForth("schrodinger", ops, inst.dt, n)
        eta = engine.estimate_eta(tol=1e-6, max_iter=80, seed=11)
        res = engine.neumann_reconstruct(trace, eta_hat=eta.value)
        err = reconstruction_error("schrodinger", truth, res.estimate, ops)
        assert err <= 25.0 * (mesh.h + inst.dt)
        errors[n] = err
    assert errors[128] < errors[64]
