"""Problem instances and synthetic observation generation.

Observations are produced by propagating the conservative system exactly in
time, optionally on a refined mesh, so the data never share the time
discretization (and, with refine > 1, the space discretization) of the
reconstruction -- the usual inverse-crime safeguards.  Each mode of the
mass/stiffness pencil evolves by its closed-form phase (``pencil_eigs``), and
only the observed field is synthesized, at the reconstruction nodes, a block
of B = GENERATION_BLOCK time rows at a time, by block phasors: one table of
the phases of the offsets r < B per generation, one phase per mode per
block, and products inside the block.  So of K time rows and n modes,
generation evaluates O(n (B + K/B)) transcendentals, plus one FFT per row
(complex for Schrodinger, real for the wave), holds no fine trajectory and
no n x n array, and has no size limit.  Bounded uniform noise models the
data-error terms of the convergence estimates.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import dataclass, replace

import numpy as np

from .fem import FieldSpec, Mesh1D, ObservationProfile, assemble
from .linalg import pencil_eigs
from .observers import ObservationTrace

TRACE_FORMAT = "bafobs-trace-2"
GENERATION_BLOCK = 32                  # time rows synthesized at once


def _is_int(v) -> bool:
    """An integer, NumPy's too; not a bool."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_seed(v) -> bool:
    return _is_int(v) and v >= 0


def _is_number(v) -> bool:
    """A finite real number, NumPy's too; not a bool, nor an int past the float range."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and (
        abs(v) <= sys.float_info.max if isinstance(v, int) else math.isfinite(v))


def _is_positive(v) -> bool:
    return _is_number(v) and v > 0


# read_trace needs these keys, with values of these kinds
_HEADER_RULES = {
    "equation": (lambda v: isinstance(v, str), "a str"),
    "tau": (_is_positive, "a finite positive number"),
    "dt": (_is_positive, "a finite positive number"),
    "n_steps": (lambda v: _is_int(v) and v >= 1, "an int >= 1"),
    "complex": (lambda v: isinstance(v, bool), "a bool"),
    "noise": (lambda v: isinstance(v, dict) and _is_number(v.get("amplitude"))
              and v["amplitude"] >= 0, "an object with a number amplitude >= 0"),
    "profile": (lambda v: isinstance(v, dict), "an object"),
}


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
    for field in fields:
        if not (isinstance(field, FieldSpec) and field.length == length):
            raise ValueError(f"a truth field must be a FieldSpec of the domain's length "
                             f"{length!r}, got {field!r}")
        if equation == "wave" and field.is_complex:
            raise ValueError("wave truth must be real: a field has complex coefficients")


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
        if self.equation not in ("schrodinger", "wave"):
            raise ValueError(f"unknown equation {self.equation!r}")
        if not self.tau > 0:
            raise ValueError("tau must be positive")
        min_steps = 2 if self.equation == "wave" else 1
        if self.n_steps < min_steps:
            raise ValueError(f"n_steps must be at least {min_steps}")
        check_truth(self.equation, self.truth, self.mesh.length)

    @property
    def dt(self) -> float:
        return self.tau / self.n_steps


def generate_observation(instance: ProblemInstance, refine: int = 1,
                         noise: NoiseSpec | None = None) -> ObservationTrace:
    """Masked, restricted, optionally noisy output samples y^0..y^K.

    The observed field (the state for Schrodinger, the velocity for the
    wave) of the refined mesh is synthesized only at the reconstruction
    nodes (nodal injection), GENERATION_BLOCK time rows at a time, and
    multiplied nodally by the observation weight; noise is drawn straight
    into the samples.
    """
    if refine < 1:
        raise ValueError("refine must be at least 1")
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
    # one phase per mode, so no sample costs a transcendental
    size = min(GENERATION_BLOCK, times.size)
    phase = np.empty(rate.size, complex)
    modal, synthesize = pencil.synthesis(size, refine, dtype)
    if dtype is complex:
        table = np.exp(1j * times[:size, None] * rate)
    else:
        # the real part alone, from cos and sin tables: two real products
        wt = times[:size, None] * rate
        cos, sin, spare = np.cos(wt), np.sin(wt, out=wt), np.empty(modal.shape)
    for start in range(0, times.size, size):
        rows = min(size, times.size - start)
        np.multiply(1j * times[start], rate, out=phase)
        np.exp(phase, out=phase)
        np.multiply(phase, c, out=phase)
        if dtype is complex:
            np.multiply(table[:rows], phase, out=modal[:rows])
        else:
            np.multiply(cos[:rows], phase.real, out=modal[:rows])
            np.multiply(sin[:rows], phase.imag, out=spare[:rows])
            np.subtract(modal[:rows], spare[:rows], out=modal[:rows])
        np.multiply(synthesize(rows), weights, out=samples[start:start + rows])
    return samples


def add_noise(trace: ObservationTrace, noise: NoiseSpec) -> ObservationTrace:
    """Return a perturbed copy of the trace; amplitude 0 returns it unchanged.

    Complex samples get independent uniform perturbations on the real and
    imaginary parts.  Deterministic for a given seed.  The samples are copied
    once and perturbed in place, so the copy is all the memory it takes
    beyond a block.
    """
    if noise.amplitude == 0.0:
        return trace
    samples = np.array(trace.samples, dtype=np.result_type(trace.samples.dtype, np.float64))
    _draw_noise(samples, noise)
    return replace(trace, samples=samples, provenance="noisy")


def unit_noise(trace: ObservationTrace, seed: int) -> ObservationTrace:
    """The noise alone: ``add_noise``'s draws at amplitude 1, in one array of
    the trace's shape, so that ``add_noise(trace, NoiseSpec(eps, seed))`` is
    ``trace + eps * unit_noise(trace, seed)`` up to rounding."""
    samples = np.empty(trace.samples.shape,
                       np.result_type(trace.samples.dtype, np.float64))
    return _unit_noise_in_place(replace(trace, samples=samples), seed)


def _unit_noise_in_place(trace: ObservationTrace, seed: int) -> ObservationTrace:
    """``unit_noise(trace, seed)``, drawn into the trace's own float64 or
    complex128 samples, which it zeroes first: the same bits, and no second
    trace-sized array.  The trace's samples are lost."""
    samples = trace.samples
    samples.fill(0.0)
    _draw_noise(samples, NoiseSpec(1.0, seed))
    return replace(trace, samples=samples, provenance="unit-noise")


def _draw_noise(samples: np.ndarray, noise: NoiseSpec):
    """Perturb float64 or complex128 samples in place, GENERATION_BLOCK rows
    at a time, the real parts first: the same stream of draws as one draw of
    the whole shape per part."""
    rng = np.random.default_rng(noise.seed)
    eps = noise.amplitude
    for part in (samples.real, samples.imag) if np.iscomplexobj(samples) else (samples,):
        for start in range(0, part.shape[0], GENERATION_BLOCK):
            rows = part[start:start + GENERATION_BLOCK]
            rows += rng.uniform(-eps, eps, rows.shape)


# -- trace files -------------------------------------------------------------
#
# One self-describing file per trace: a JSON header line, then the K+1 rows of
# node-ordered samples as one .npy payload (little-endian complex128 or
# float64, as the header's "complex" flag says).  Its header carries at least
# the keys of _HEADER_RULES, the noise and the observation profile among them.


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
    """Read a ``TRACE_FORMAT`` file, its header checked against _HEADER_RULES
    and its payload against the header; returns (trace, header)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        fmt = header.get("format") if isinstance(header, dict) else None
        if fmt != TRACE_FORMAT:
            raise ValueError(f"unrecognized trace format {fmt!r}")
        missing = _HEADER_RULES.keys() - header.keys()
        if missing:
            raise ValueError(f"trace header lacks the keys {sorted(missing)}")
        for key, (valid, what) in _HEADER_RULES.items():
            if not valid(header[key]):
                raise ValueError(f"trace header {key} must be {what}, got {header[key]!r}")
        samples = _read_payload(fh, header["complex"])
    expected = header["n_steps"] + 1
    if samples.shape[0] != expected:
        raise ValueError(f"trace has {samples.shape[0]} rows, header says {expected}")
    trace = ObservationTrace(equation=header["equation"], samples=samples,
                             tau=header["tau"], dt=header["dt"],
                             provenance=header.get("provenance", "clean"))
    return trace, header


def _payload_dtype(is_complex: bool) -> np.dtype:
    return np.dtype("<c16" if is_complex else "<f8")


def _read_payload(fh, is_complex: bool) -> np.ndarray:
    """The .npy payload after the header: one 2-d array of the declared dtype, then EOF."""
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
    if samples.ndim != 2:
        raise ValueError(f"trace payload must be a 2-d array, got shape {samples.shape}")
    expected = _payload_dtype(is_complex)
    if samples.dtype != expected:
        raise ValueError(f"trace payload dtype {samples.dtype.str} is not "
                         f"{expected.str}, as the header's complex flag ({is_complex}) says")
    return samples
