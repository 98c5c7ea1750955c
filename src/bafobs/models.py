"""Problem instances and synthetic observation generation.

Observations are produced by propagating the conservative system exactly in
time, optionally on a refined mesh, so the data never share the time
discretization (and, with refine > 1, the space discretization) of the
reconstruction -- the usual inverse-crime safeguards.  Each mode of the
mass/stiffness pencil evolves by its closed-form phase (``pencil_eigs``), and
only the observed field is synthesized, at the reconstruction nodes, a block
of B = GENERATION_BLOCK time rows at a time, by block phasors: one table of
the phases of the offsets r < B per generation, one phase per mode per
block, and products inside the block, synthesized in sub-blocks of
SYNTHESIS_BLOCK rows on fine meshes.  So of K time rows and n modes,
generation evaluates O(n (B + K/B)) transcendentals, plus one FFT per row
(complex for Schrodinger, real for the wave), holds no fine trajectory and
no n x n array, and has no size limit.
Bounded uniform noise, drawn from the package's own counter-based stream,
models the data-error terms of the convergence estimates.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .fem import (FieldSpec, Mesh1D, ObservationProfile, _is_int, _is_number, _is_positive,
                  _is_seed, assemble, check_equation, check_window)
from .linalg import pencil_eigs
from .observers import ObservationTrace

TRACE_FORMAT = "bafobs-trace-2"
GENERATION_BLOCK = 32                  # time rows per block phase
SYNTHESIS_BLOCK = 8                    # time rows per product, fold and DST-I ...
SYNTHESIS_MODES = 1023                 # ... from this many fine modes on
NOISE_CHUNK = 1 << 14                  # noise values drawn at once
REFINE_RULE = "an integer >= 1"


@dataclass(frozen=True)
class NoiseSpec:
    """Per-node, per-sample additive uniform noise on [-amplitude, amplitude]."""

    amplitude: float = 0.0
    seed: int = 0

    def __post_init__(self):
        # an infinite or nan amplitude makes no finite trace, nor a finite
        # sweep row; a bool, a string or None is no amplitude at all
        if not (_is_number(self.amplitude) and self.amplitude >= 0):
            raise ValueError(f"amplitude must be finite and nonnegative, got {self.amplitude!r}")
        # None would draw from OS entropy, a draw that does not repeat
        if not _is_seed(self.seed):
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")


def check_truth(equation: str, truth, length: float):
    """Refuse a truth that is not one FieldSpec on (0, length) for Schrodinger,
    or a real (position, velocity) pair of them for the wave."""
    fields = truth if isinstance(truth, tuple) else (truth,)
    if equation == "wave" and len(fields) != 2:
        raise ValueError(f"wave truth must be a (position, velocity) pair, got {truth!r}")
    if equation == "schrodinger" and len(fields) != 1:
        raise ValueError(f"schrodinger truth must be a single field, got {truth!r}")
    for name, field in zip(("position", "velocity"), fields):
        if not (isinstance(field, FieldSpec) and field.length == length):
            raise ValueError(f"a truth field must be a FieldSpec of the domain's length "
                             f"{length!r}, got {field!r}")
        if equation == "wave" and field.is_complex:
            raise ValueError(f"{name}.coefficients must be real numbers, as wave truth must "
                             f"be real, got {field.coefficients!r}")


@dataclass(frozen=True)
class ProblemInstance:
    """One concrete inverse problem: geometry, window, horizon and truth."""

    equation: str
    mesh: Mesh1D
    profile: ObservationProfile
    tau: float
    n_steps: int
    truth: FieldSpec | tuple[FieldSpec, FieldSpec]

    def __post_init__(self):
        check_equation(self.equation)
        if not _is_positive(self.tau):
            raise ValueError(f"tau must be a positive number, got {self.tau!r}")
        min_steps = 2 if self.equation == "wave" else 1
        if not (_is_int(self.n_steps) and self.n_steps >= min_steps):
            raise ValueError(f"n_steps must be an integer >= {min_steps}, got {self.n_steps!r}")
        check_truth(self.equation, self.truth, self.mesh.length)

    @property
    def dt(self) -> float:
        return self.tau / self.n_steps


def _is_refine(v) -> bool:
    """A mesh refinement factor: an integer, not a bool, of at least 1."""
    return _is_int(v) and v >= 1


def generate_observation(instance: ProblemInstance, refine: int = 1,
                         noise: NoiseSpec | None = None) -> ObservationTrace:
    """Masked, restricted, optionally noisy output samples y^0..y^K.

    The observed field (the state for Schrodinger, the velocity for the
    wave) of the refined mesh is synthesized only at the reconstruction
    nodes (nodal injection), a sub-block of time rows at a time, and
    multiplied nodally by the observation weight; noise is drawn straight
    into the samples.
    """
    if not _is_refine(refine):
        raise ValueError(f"refine must be {REFINE_RULE}, got {refine!r}")
    samples = _clean_samples(instance, refine)
    provenance = "mesh-refined" if refine > 1 else "clean"
    if noise is not None and noise.amplitude != 0.0:
        _draw_noise(samples, noise)      # the samples are this function's own
        provenance = "noisy"
    return ObservationTrace(equation=instance.equation, samples=samples,
                            tau=instance.tau, dt=instance.dt, provenance=provenance)


def _clean_samples(instance: ProblemInstance, refine: int) -> np.ndarray:
    """``generate_observation``'s samples before any noise, in a new array;
    the synthesis buffers are released when it returns, before the noise
    is drawn."""
    fine = Mesh1D(n_cells=instance.mesh.n_cells * refine, length=instance.mesh.length)
    ops = assemble(fine, instance.profile)
    pencil = pencil_eigs(ops.stiffness, ops.mass)
    lam = pencil.values
    x = fine.interior_nodes
    times = instance.dt * np.arange(instance.n_steps + 1)

    if instance.equation == "schrodinger":
        rate, dtype = lam, complex
        c = pencil.to_modal(instance.truth.value(x).astype(complex))
    else:
        # the velocity b cos(omega t) - omega a sin(omega t) is
        # Re(exp(i omega t) (b + i omega a))
        rate, dtype = np.sqrt(lam), float
        a, b = (pencil.to_modal(f.value(x)) for f in instance.truth)
        c = b + 1j * (rate * a)
    # as Python floats the product overflows to inf without a warning
    if not math.isfinite(float(times[-1]) * float(rate[-1])):    # rates ascend
        raise ValueError(f"tau = {instance.tau!r} is too large: the largest phase tau * "
                         f"{'lambda' if instance.equation == 'schrodinger' else 'omega'}"
                         "_max overflows")
    weights = instance.profile.weight(x[refine - 1::refine])
    samples = np.empty((times.size, weights.size), dtype=dtype)
    # exp(i rate t_{s+r}) = exp(i rate t_s) exp(i rate t_r): the block starting
    # at row s is the phase table of the offsets r < GENERATION_BLOCK times
    # one phase per mode, so no sample costs a transcendental.  The products
    # and their synthesis run on sub-blocks of SYNTHESIS_BLOCK rows from
    # SYNTHESIS_MODES modes on, so the buffers are a quarter of a block's;
    # a coarser mesh synthesizes whole blocks, as its buffers are small and
    # its per-call costs are not
    size = min(GENERATION_BLOCK, times.size)
    sub = min(SYNTHESIS_BLOCK if pencil.n >= SYNTHESIS_MODES else GENERATION_BLOCK, size)
    phase = np.empty(rate.size, complex)
    modal, synthesize = pencil.synthesis(sub, refine, dtype)
    if dtype is complex:
        table = np.exp(1j * times[:size, None] * rate)
    else:
        # the real part alone, from cos and sin tables: two real products
        wt = times[:size, None] * rate
        cos, sin, spare = np.cos(wt), np.sin(wt, out=wt), np.empty(modal.shape)
    for start in range(0, times.size, size):
        stop = min(start + size, times.size)
        np.multiply(1j * times[start], rate, out=phase)
        np.exp(phase, out=phase)
        np.multiply(phase, c, out=phase)
        for first in range(start, stop, sub):
            r, rows = first - start, min(sub, stop - first)
            if dtype is complex:
                np.multiply(table[r:r + rows], phase, out=modal[:rows])
            else:
                np.multiply(cos[r:r + rows], phase.real, out=modal[:rows])
                np.multiply(sin[r:r + rows], phase.imag, out=spare[:rows])
                np.subtract(modal[:rows], spare[:rows], out=modal[:rows])
            np.multiply(synthesize(rows), weights, out=samples[first:first + rows])
    return samples


def add_noise(trace: ObservationTrace, noise: NoiseSpec) -> ObservationTrace:
    """Return a perturbed copy of the trace; amplitude 0 returns it unchanged.

    Complex samples get independent uniform perturbations on the real and
    imaginary parts, from the package's own stream (``_draw_noise``), so the
    draws are fixed by the seed alone.  The samples are copied once and
    perturbed in place, so the copy is all the memory it takes beyond a
    chunk of draws.
    """
    if noise.amplitude == 0.0:
        return trace
    samples = np.array(trace.samples, order="C",
                       dtype=np.result_type(trace.samples.dtype, np.float64))
    _draw_noise(samples, noise)
    return replace(trace, samples=samples, provenance="noisy")


def unit_noise(trace: ObservationTrace, seed: int) -> ObservationTrace:
    """The noise alone: ``add_noise``'s draws at amplitude 1, in one array of
    the trace's shape, so that ``add_noise(trace, NoiseSpec(eps, seed))`` is
    ``trace + eps * unit_noise(trace, seed)`` up to rounding."""
    samples = np.empty(trace.samples.shape,
                       np.result_type(trace.samples.dtype, np.float64))
    # drawn before the trace is built, which checks that its samples are finite
    _draw_noise(samples, NoiseSpec(1.0, seed), store=True)
    return replace(trace, samples=samples, provenance="unit-noise")


def _unit_noise_in_place(trace: ObservationTrace, seed: int) -> ObservationTrace:
    """``unit_noise(trace, seed)``, stored over the trace's own float64 or
    complex128 samples in one pass: the same bits, and no second trace-sized
    array.  The trace's samples are lost."""
    _draw_noise(trace.samples, NoiseSpec(1.0, seed), store=True)
    return replace(trace, provenance="unit-noise")


# The noise stream is SplitMix64 (Steele, Lea & Flood, OOPSLA 2014) in
# counter form: draw i of a key is mix(key + (i + 1) GAMMA mod 2**64), mix
# its finalizer, so any chunk of draws is made at its own offset.
_GAMMA = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1
_MIX = ((np.uint64(30), np.uint64(0xBF58476D1CE4E5B9)),
        (np.uint64(27), np.uint64(0x94D049BB133111EB)), (np.uint64(31), None))


def _mix(z: np.ndarray, spare: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer of the uint64 array z, in place; spare is
    scratch of z's shape."""
    for shift, factor in _MIX:
        np.right_shift(z, shift, out=spare)
        np.bitwise_xor(z, spare, out=z)
        if factor is not None:
            np.multiply(z, factor, out=z)
    return z


def _noise_key(seed: int) -> int:
    """The stream's 64-bit key: SplitMix64's first draw, seeded with the
    key so far xor the seed's next 64-bit word, low word first, from key 0.
    A seed below 2**64 is one word, so its key is mix(seed + GAMMA)."""
    seed, key = int(seed), 0
    while True:
        z = np.array([((key ^ seed) + _GAMMA) & _MASK], np.uint64)
        key, seed = int(_mix(z, np.empty_like(z))[0]), seed >> 64
        if not seed:
            return key


class _NoiseStream:
    """The draws of one NoiseSpec, up to ``size`` at a time, into two
    reusable buffers."""

    def __init__(self, noise: NoiseSpec, size: int):
        self.key, self.amplitude = _noise_key(noise.seed), noise.amplitude
        self.steps = np.arange(1, size + 1, dtype=np.uint64) * np.uint64(_GAMMA)
        self.z, self.spare = np.empty(size, np.uint64), np.empty(size, np.uint64)

    def add(self, values: np.ndarray, first: int, store: bool = False):
        """Add draws first, first + 1, ... to the float64 values in place, or
        with store write them there: the top 53 bits of a draw, as a signed
        integer k in [-2**52, 2**52), give amplitude * (k / 2**52), in
        [-amplitude, amplitude].  A draw is never -0.0, so a stored draw has
        the bits of one added to zeros."""
        m = values.size
        z, spare = self.z[:m], self.spare[:m]
        np.add(self.steps[:m], np.uint64((self.key + first * _GAMMA) & _MASK), out=z)
        k = _mix(z, spare).view(np.int64)
        np.right_shift(k, 11, out=k)
        draws = values if store else spare.view(np.float64)
        np.multiply(k, 2.0 ** -52, out=draws)       # exact: |k| <= 2**52
        if self.amplitude != 1.0:
            np.multiply(draws, self.amplitude, out=draws)
        if not store:
            values += draws


def _draw_noise(samples: np.ndarray, noise: NoiseSpec, store: bool = False):
    """Perturb C-contiguous float64 or complex128 samples in place, or with
    store overwrite them with the draws, NOISE_CHUNK values at a time: value
    i of the samples read as float64 (row by row, a complex sample's real
    part first) gets draw i.  So the real and imaginary parts of sample
    (row, col) have fixed counters."""
    if not samples.flags.c_contiguous:
        raise ValueError("noise is drawn into C-contiguous samples only")
    values = samples.reshape(-1).view(np.float64)
    stream = _NoiseStream(noise, min(NOISE_CHUNK, values.size))
    for first in range(0, values.size, NOISE_CHUNK):
        stream.add(values[first:first + NOISE_CHUNK], first, store)


# -- trace files -------------------------------------------------------------
#
# One self-describing file per trace: a JSON header line, then the K+1 rows of
# node-ordered samples as one .npy payload (little-endian complex128 or
# float64, as the header's "complex" flag says).  The header records the
# mesh, the profile, the noise and the horizon, each read back by its type.


class _Digesting:
    """A binary file whose writes also feed a hashlib digest."""

    def __init__(self, fh, digest):
        self.fh, self.digest = fh, digest

    def write(self, data) -> int:
        self.digest.update(data)
        return self.fh.write(data)


def write_trace(path, trace: ObservationTrace, instance: ProblemInstance,
                refine: int, noise: NoiseSpec | None = None,
                config: dict | None = None, digest=None) -> dict:
    """Write the trace with full provenance header; returns the header dict.

    ``digest``, a hashlib object such as ``hashlib.sha256()``, is fed every
    byte as it is written, so the file's digest needs no second read.  The
    payload is the bytes ``np.save`` writes, written from the samples' own
    buffer, not a copy.
    """
    is_complex = bool(np.iscomplexobj(trace.samples))
    header = {
        "format": TRACE_FORMAT,
        "equation": trace.equation,
        "length": instance.mesh.length,
        "n_cells": instance.mesh.n_cells,
        "tau": trace.tau,
        "dt": trace.dt,
        "n_steps": trace.n_steps,
        "complex": is_complex,
        "profile": profile_header(instance.profile),
        "refine": refine,
        "noise": {"amplitude": noise.amplitude if noise else 0.0,
                  "seed": noise.seed if noise else 0},
        "provenance": trace.provenance,
    }
    if config is not None:
        header["config"] = config
    samples = np.ascontiguousarray(trace.samples, dtype=_payload_dtype(is_complex))
    with open(path, "wb") as fh:
        out = fh if digest is None else _Digesting(fh, digest)
        out.write(json.dumps(header).encode("utf-8") + b"\n")
        fmt = np.lib.format
        fmt.write_array_header_1_0(out, fmt.header_data_from_array_1_0(samples))
        out.write(samples)
    return header


def profile_header(profile: ObservationProfile) -> dict:
    """The trace header's record of an observation profile."""
    return {"a": profile.a, "b": profile.b,
            "smoothness": profile.smoothness, "constant": profile.const}


def read_trace(path) -> tuple[ObservationTrace, dict]:
    """Read a ``TRACE_FORMAT`` file, each header key checked by building the
    type it records; returns (trace, header)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        fmt = header.get("format") if isinstance(header, dict) else None
        if fmt != TRACE_FORMAT:
            raise ValueError(f"unrecognized trace format {fmt!r}")
        is_complex = header.get("complex")
        if not isinstance(is_complex, bool):
            raise ValueError(f"trace header complex must be a bool, got {is_complex!r}")
        mesh = _checked("trace header ", Mesh1D, header.get("n_cells"), header.get("length"))
        _header_object(header, "noise", NoiseSpec, ("amplitude", "seed"))
        refine = header.get("refine")
        if not _is_refine(refine):
            raise ValueError(f"trace header refine must be {REFINE_RULE}, got {refine!r}")
        profile = _header_object(header, "profile", ObservationProfile,
                                 ("a", "b", "smoothness", "constant"))
        _checked("trace header profile.", check_window, profile, mesh.length)
        samples = _read_payload(fh, is_complex)
    # the samples' rules are the trace's, so this prefix is not the header's
    trace = _checked("trace ", ObservationTrace, header.get("equation"), samples,
                     header.get("tau"), header.get("dt"), header.get("provenance"))
    n_steps = header.get("n_steps")
    if not (_is_int(n_steps) and n_steps == trace.n_steps):
        raise ValueError(f"trace header n_steps must be {trace.n_steps}, one less than the "
                         f"payload's rows, got {n_steps!r}")
    if trace.n != mesh.n:
        raise ValueError(f"trace payload must have n_cells - 1 = {mesh.n} columns, got {trace.n}")
    return trace, header


def _checked(prefix: str, build, *args, error=ValueError, **kwargs):
    """build(*args, **kwargs); its ValueError, naming a field, as error with prefix in front."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise error(f"{prefix}{exc}") from None


def _header_object(header: dict, key: str, build, names: tuple):
    """build(*values) of the header's object at key, which holds exactly the names."""
    value = header.get(key)
    if not (isinstance(value, dict) and value.keys() == set(names)):
        raise ValueError(f"trace header {key} must be an object with exactly the keys "
                         f"{', '.join(names)}, got {value!r}")
    return _checked(f"trace header {key}.", build, *(value[name] for name in names))


def _payload_dtype(is_complex: bool) -> np.dtype:
    return np.dtype("<c16" if is_complex else "<f8")


def _read_payload(fh, is_complex: bool) -> np.ndarray:
    """The .npy payload after the header: one array of the declared dtype, then EOF."""
    start = fh.tell()
    if fh.read(len(np.lib.format.MAGIC_PREFIX)) != np.lib.format.MAGIC_PREFIX:
        raise ValueError("trace has no .npy sample payload after its header")
    fh.seek(start)
    try:
        samples = np.load(fh, allow_pickle=False)
    except (ValueError, MemoryError) as exc:
        # a short read, a broken array header, or a declared shape too large
        # to allocate
        raise ValueError(f"cannot read the trace payload: {exc}") from exc
    if fh.read(1):
        raise ValueError("trace has trailing bytes after its .npy payload")
    expected = _payload_dtype(is_complex)
    if samples.dtype != expected:
        raise ValueError(f"trace payload dtype {samples.dtype.str} is not "
                         f"{expected.str}, as the header's complex flag ({is_complex}) says")
    return samples
