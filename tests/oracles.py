"""Independent oracles and test-only references shared by the test modules.

The oracles deliberately avoid the package's stepper/solver code paths:
dense numpy factorizations and eigendecompositions only, so agreement with
the package is a real cross-check and not a tautology.  The same goes for
the analysis tools the algorithm never runs: the H^1_0 projection and the
discrete D(A0^alpha) norms solve densely, and kink_field is the rough
field that shows the projection's decay outside the regularity class the
analysis assumes.  power_iteration is the reference eta estimator that the
package's Arnoldi estimate is checked against, list_arnoldi that Arnoldi as
it was written with a list basis and one inner product per basis vector,
which the one-array basis must reproduce, and pencil_vectors the dense
eigenvector matrix that the package's closed-form pencil only ever applies
by DST-I.  The per-step functions schrodinger_step
/ wave_step and the two history helpers that drive them are the exception:
they are the scheme written one step at a time with the package's
tridiagonal products and solves, and tests pin
the package's allocation-free loops run_schrodinger / run_wave to them bit
for bit.  propagate_exact is the restrict-after-synthesis reference for
generate_observation: it builds the whole fine trajectory, positions and
velocities, with the package's pencil transforms, and a test restricts it
by nodal injection.  backward_schrodinger_stepper and the old_* functions
compose the observers the way the package did before its backward pass
became the forward pass under time reversal and before its passes formed
their loads from the output rows a block at a time: all K loads formed at
once, then a second, +i dt Schrodinger system stepped by schrodinger_step,
and the wave's velocity flip around wave_history with negated loads.  Tests
pin BackAndForth to them bit for bit.  splitmix_add_noise is add_noise
written one value at a time: SplitMix64 on Python ints masked to 64 bits,
which the package's chunked uint64 draws must reproduce bit for bit.
neumann_series is the reconstruction as the paper writes it, the truncated
Neumann series of the round trip, which the package's GMRES solve replaced
and is checked against; combine is the arithmetic on states (arrays or
WaveStates) that the package's states no longer carry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import numpy as np

from bafobs import (EtaEstimate, FemOperators, Mesh1D, ProblemInstance,
                    SchrodingerStepper, ShiftedSystem, WaveState, WaveStepper, assemble,
                    pencil_eigs)
from bafobs.fem import grad_load_vector
from bafobs.linalg import SingularPivotError, SymTridiag


def combine(*terms):
    """sum_i c_i s_i over (c_i, s_i) pairs of scalars and states, arrays or
    WaveStates alike."""
    if isinstance(terms[0][1], WaveState):
        return WaveState(combine(*((c, s.pos) for c, s in terms)),
                         combine(*((c, s.vel) for c, s in terms)))
    total = terms[0][0] * terms[0][1]
    for c, s in terms[1:]:
        total = total + c * s
    return total


def neumann_series(engine, trace, n_terms: int) -> tuple[list, list]:
    """The terms L^n z of the Neumann series of the first iterate z and its
    truncated sums sum_{k<=n} L^k z, n = 0..n_terms, by the package's
    first_iterate and apply_L."""
    acc = term = engine.first_iterate(trace)
    terms, sums = [term], [acc]
    for _ in range(n_terms):
        term = engine.apply_L(term)
        acc = combine((1.0, acc), (1.0, term))
        terms.append(term)
        sums.append(acc)
    return terms, sums


def dense(A) -> np.ndarray:
    """A SymTridiag as a dense n x n array."""
    a = np.diag(A.diag)
    if A.n > 1:
        a += np.diag(A.off, 1) + np.diag(A.off, -1)
    return a


@dataclass(frozen=True)
class DensePencil:
    """Full spectrum of the pencil K v = lambda M v, M-orthonormal vectors."""

    values: np.ndarray          # ascending
    vectors: np.ndarray         # column j is the eigenvector for values[j]


def _chol_bidiag(M) -> tuple[np.ndarray, np.ndarray]:
    """Cholesky factor of a positive definite SymTridiag (lower bidiagonal)."""
    n = M.n
    ld = np.zeros(n)
    le = np.zeros(max(n - 1, 0))
    for i in range(n):
        v = M.diag[i] - (le[i - 1] ** 2 if i > 0 else 0.0)
        if v <= 0.0:
            raise SingularPivotError(i, v)
        ld[i] = np.sqrt(v)
        if i < n - 1:
            le[i] = M.off[i] / ld[i]
    return ld, le


def _bidiag_solve_lower(ld, le, rhs: np.ndarray) -> np.ndarray:
    """Solve L x = rhs with lower bidiagonal L; rhs may be a matrix."""
    x = np.array(rhs, dtype=float, copy=True)
    x[0] /= ld[0]
    for i in range(1, x.shape[0]):
        x[i] = (x[i] - le[i - 1] * x[i - 1]) / ld[i]
    return x


def _bidiag_solve_upper(ld, le, rhs: np.ndarray) -> np.ndarray:
    """Solve L^T x = rhs with lower bidiagonal L; rhs may be a matrix."""
    x = np.array(rhs, dtype=float, copy=True)
    n = x.shape[0]
    x[n - 1] /= ld[n - 1]
    for i in range(n - 2, -1, -1):
        x[i] = (x[i] - le[i] * x[i + 1]) / ld[i]
    return x


MAX_PENCIL_DIM = 4096


def dense_pencil_eigs(K, M) -> DensePencil:
    """Solve the generalized symmetric pencil K v = lambda M v.

    The pencil is reduced by the M-Cholesky congruence to a standard
    symmetric problem, whose spectrum is computed by Householder reduction
    plus implicit QL/QR (LAPACK via numpy.linalg.eigh).  Works for any
    symmetric tridiagonal pair with M positive definite, Toeplitz or not;
    intended for oracle scale only (n <= 4096).
    """
    if K.n != M.n:
        raise ValueError("K and M dimensions differ")
    if K.n > MAX_PENCIL_DIM:
        raise ValueError(f"pencil dimension {K.n} exceeds oracle scale {MAX_PENCIL_DIM}")
    ld, le = _chol_bidiag(M)
    # C = L^-1 K L^-T, symmetric dense at this scale.
    Y = _bidiag_solve_lower(ld, le, dense(K))
    C = _bidiag_solve_lower(ld, le, Y.T)
    C = 0.5 * (C + C.T)
    try:
        w, U = np.linalg.eigh(C)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise RuntimeError(f"pencil eigensolver failed to converge: {exc}") from exc
    V = _bidiag_solve_upper(ld, le, U)
    return DensePencil(values=w, vectors=V)


def pencil_vectors(pe) -> np.ndarray:
    """n x n, column j the M-orthonormal eigenvector of a closed-form PencilEig
    for values[j]: the matrix its DST-I transforms never form."""
    n = pe.n
    # (i * k) mod 2(n+1) keeps the sine argument in [0, 2 pi) exactly
    ik = np.outer(np.arange(1, n + 1), np.arange(1, n + 1)[pe.modes]) % (2 * n + 2)
    return np.sin(np.pi / (n + 1) * ik) * np.sqrt(2.0 / ((n + 1) * pe.mass_values))


def reduced_generator(ops: FemOperators, sign: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pencil-basis generator of the damped semi-discrete system.

    Returns (eigvals, eigvecs, basis) so that the system M q' = sign*i K q - B q
    reads c' = G c in coordinates q = basis @ c, with G = S diag(w) S^-1.
    """
    pencil = dense_pencil_eigs(ops.stiffness, ops.mass)
    V = pencil.vectors
    reduced_damping = V.T @ dense(ops.damping_gram) @ V
    G = sign * 1j * np.diag(pencil.values) - reduced_damping
    w, S = np.linalg.eig(G)
    return w, S, V


def exact_damped_schrodinger(ops: FemOperators, sign: int, t: float,
                             q0: np.ndarray) -> np.ndarray:
    """Exponential-integrator solution of the damped semi-discrete system."""
    w, S, V = reduced_generator(ops, sign)
    c0 = np.linalg.solve(S, V.T @ ops.mass.matvec(q0))
    return V @ (S @ (np.exp(w * t) * c0))


def dense_round_trip(engine) -> np.ndarray:
    """The round trip L of a BackAndForth engine as a dense matrix.

    Column j is engine.apply_L of the j-th unit state: complex n-vectors for
    Schrodinger, (pos, vel) stacked in R^{2n} for the wave.  Its eigenvalues
    do not depend on the inner product, so a dense eigvals call checks the
    Krylov estimate independently.
    """
    n = engine.ops.n
    if engine.equation == "schrodinger":
        return np.column_stack([engine.apply_L(e) for e in np.eye(n, dtype=complex)])
    cols = []
    for e in np.eye(2 * n):
        out = engine.apply_L(WaveState(e[:n], e[n:]))
        cols.append(np.concatenate([out.pos, out.vel]))
    return np.column_stack(cols)


def dense_schrodinger_pass(ops: FemOperators, sign: int, dt: float, n_steps: int,
                           q0: np.ndarray, loads: np.ndarray | None = None) -> np.ndarray:
    """Literal dense transcription of the implicit Schrodinger scheme."""
    M = dense(ops.mass)
    A = M - sign * 1j * dt * dense(ops.stiffness) + dt * dense(ops.damping_gram)
    q = np.asarray(q0, dtype=complex)
    for k in range(1, n_steps + 1):
        rhs = M @ q
        if loads is not None:
            rhs = rhs + dt * loads[k - 1]
        q = np.linalg.solve(A, rhs)
    return q


def dense_wave_pass(ops: FemOperators, dt: float, n_steps: int,
                    p0: np.ndarray, p1: np.ndarray,
                    loads: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Literal dense transcription of the implicit two-step wave scheme."""
    M = dense(ops.mass)
    B = dense(ops.damping_gram)
    A = M + dt * dt * dense(ops.stiffness) + dt * B
    p_prev2 = np.asarray(p0, dtype=float)
    p_prev = p_prev2 + dt * np.asarray(p1, dtype=float)
    for k in range(2, n_steps + 1):
        rhs = (2.0 * M + dt * B) @ p_prev - M @ p_prev2
        if loads is not None:
            rhs = rhs + dt * dt * loads[k - 1]
        p = np.linalg.solve(A, rhs)
        p_prev2, p_prev = p_prev, p
    return p_prev, (p_prev - p_prev2) / dt


def fine_l2_distance(mesh, f, coeffs: np.ndarray, points_per_cell: int = 64) -> float:
    """L2 distance between a closed-form field and a P1 coefficient vector.

    Composite midpoint rule with many points per element; independent of the
    package quadrature.
    """
    h = mesh.h
    t = (np.arange(points_per_cell) + 0.5) / points_per_cell
    full = np.concatenate([[0.0], coeffs, [0.0]])
    total = 0.0
    for e in range(mesh.n_cells):
        x = h * (e + t)
        p1 = full[e] * (1.0 - t) + full[e + 1] * t
        total += np.sum(np.abs(f.value(x) - p1) ** 2) * (h / points_per_cell)
    return float(np.sqrt(total))


def fine_h1_distance(mesh, f, coeffs: np.ndarray, points_per_cell: int = 64) -> float:
    """H^1_0 seminorm distance between a closed-form field and a P1 vector.

    Composite midpoint rule on f' against the element's constant slope
    (c[e+1] - c[e]) / h; independent of the package quadrature.
    """
    h = mesh.h
    t = (np.arange(points_per_cell) + 0.5) / points_per_cell
    full = np.concatenate([[0.0], coeffs, [0.0]])
    total = 0.0
    for e in range(mesh.n_cells):
        slope = (full[e + 1] - full[e]) / h
        total += np.sum(np.abs(f.derivative(h * (e + t)) - slope) ** 2) * (h / points_per_cell)
    return float(np.sqrt(total))


def project_pi_h(mesh, ops: FemOperators, phi) -> np.ndarray:
    """H^1_0-orthogonal projection of phi onto the P1 space.

    Solves (u, v)_K = int phi' v' for all hat functions v, with the right
    side evaluated by the assembly quadrature applied to phi'.
    """
    return np.linalg.solve(dense(ops.stiffness), grad_load_vector(mesh, phi.derivative))


def kink_field(center: float = 0.5 ** 0.5, exponent: float = 0.55, length: float = 1.0):
    """|x - c|^beta minus the linear interpolant of its boundary values, with
    its derivative: barely H^1 for beta slightly above 1/2, so outside the
    regularity class the error analysis assumes for reconstruction targets."""
    c, beta, L = center, exponent, length

    def value(x):
        x = np.asarray(x, dtype=float)
        lin = (1.0 - x / L) * c ** beta + (x / L) * (L - c) ** beta
        return np.abs(x - c) ** beta - lin

    def derivative(x):
        x = np.asarray(x, dtype=float)
        lin_slope = ((L - c) ** beta - c ** beta) / L
        return beta * np.sign(x - c) * np.abs(x - c) ** (beta - 1.0) - lin_slope

    return SimpleNamespace(value=value, derivative=derivative)


SUPPORTED_ALPHAS = (0.0, 0.5, 1.0, 1.5, 2.0)


def norm_alpha(ops: FemOperators, u: np.ndarray, alpha: float) -> float:
    """Discrete D(A0^alpha) norm of a coefficient vector.

    alpha = 0 is the M-norm, alpha = 1/2 the K-norm; higher orders apply the
    discrete operator w = M^-1 K u and recurse.
    """
    u = np.asarray(u)
    if u.shape != (ops.n,):
        raise ValueError(f"vector has shape {u.shape}, expected ({ops.n},)")
    if alpha not in SUPPORTED_ALPHAS:
        raise ValueError(f"unsupported alpha {alpha}; use one of {SUPPORTED_ALPHAS}")
    if alpha == 0.0:
        return math.sqrt(max(np.real(np.vdot(u, ops.mass.matvec(u))), 0.0))
    if alpha == 0.5:
        return math.sqrt(max(np.real(np.vdot(u, ops.stiffness.matvec(u))), 0.0))
    w = np.linalg.solve(dense(ops.mass), ops.stiffness.matvec(u))
    return norm_alpha(ops, w, alpha - 1.0)


def power_iteration(apply_op: Callable, norm: Callable, start,
                    tol: float = 1e-6, max_iter: int = 60) -> EtaEstimate:
    """Dominant-ratio estimate ||A v|| / ||v|| for a linear operator.

    For a self-adjoint positive operator in the chosen inner product (the
    Schrodinger round trip) the limit is the operator norm; otherwise it is
    the dominant-mode ratio.  Non-convergence within max_iter returns the
    last ratio with converged = False rather than raising.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must be a number in (0, 1), got {tol!r}")
    if max_iter < 2:
        raise ValueError(f"max_iter must be an integer >= 2, got {max_iter!r}")
    nrm = norm(start)
    if nrm == 0.0:
        raise ValueError("start vector must be nonzero")
    v = (1.0 / nrm) * start
    prev = None
    for it in range(1, max_iter + 1):
        w = apply_op(v)
        ratio = norm(w)
        if ratio == 0.0:
            return EtaEstimate(0.0, True, it)
        if prev is not None and abs(ratio - prev) <= tol * ratio:
            return EtaEstimate(ratio, True, it)
        prev = ratio
        v = (1.0 / ratio) * w
    return EtaEstimate(prev, False, max_iter)


def list_arnoldi(apply_op: Callable, inner: Callable, start,
                 tol: float = 1e-6, max_iter: int = 80) -> EtaEstimate:
    """observers.arnoldi_iteration as it was before its basis became one
    array: a list of states (arrays or WaveStates), one inner(w, v) call per
    basis vector in each Gram-Schmidt pass.

    inner(u, v) is linear in u and conjugate-linear in v.  Each step applies
    the operator once and orthogonalizes against the whole basis by
    classical Gram-Schmidt with one reorthogonalization pass, so operators
    that are only nearly self-adjoint in ``inner`` are handled.  The
    iteration stops when the Ritz residual h_{m+1,m} |e_m^T y| of the
    dominant Ritz pair (theta, y), y of unit 2-norm, drops to tol |theta|;
    a breakdown (h_{m+1,m} = 0) meets that rule too, and the estimate then
    carries the Ritz vector sum_j y_j v_j, y turned so that its largest entry
    is real and positive, and taken real when the Hessenberg matrix is (so
    real states give a real vector).  Running out of max_iter returns the
    last Ritz value with converged = False and no vector.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must be a number in (0, 1), got {tol!r}")
    if max_iter < 2:
        raise ValueError(f"max_iter must be an integer >= 2, got {max_iter!r}")

    def norm(u) -> float:
        return math.sqrt(max(np.real(inner(u, u)), 0.0))

    nrm = norm(start)
    if nrm == 0.0:
        raise ValueError("start vector must be nonzero")
    basis = [combine((1.0 / nrm, start))]
    hess = np.zeros((1, 0), dtype=complex)   # sized by the steps taken, not max_iter
    theta = 0.0
    for m in range(1, max_iter + 1):
        hess = np.pad(hess, ((0, 1), (0, 1)))
        w = apply_op(basis[-1])
        for _ in range(2):
            coeffs = [inner(w, v) for v in basis]
            for c, v in zip(coeffs, basis):
                w = combine((1.0, w), (-c, v))
            hess[:m, m - 1] += coeffs
        hess[m, m - 1] = beta = norm(w)
        ritz, vecs = np.linalg.eig(hess[:m, :m])
        k = int(np.argmax(np.abs(ritz)))
        theta = float(np.abs(ritz[k]))
        if beta * abs(vecs[-1, k]) <= tol * theta:
            # eig fixes no phase; turn y so that its real part keeps it
            y = vecs[:, k]
            top = y[np.argmax(np.abs(y))]
            y = y * (abs(top) / top)
            if not np.any(hess.imag):
                y = y.real
            return EtaEstimate(theta, True, m, combine(*zip(y, basis)))
        basis.append(combine((1.0 / beta, w)))
    return EtaEstimate(theta, False, max_iter)


def schrodinger_step(stepper, q: np.ndarray,
                     load: np.ndarray | None = None) -> np.ndarray:
    """One Schrodinger step as written: solve
    (M -+ i dt K + dt B) q^k = M q^{k-1} + dt f^k."""
    rhs = stepper.ops.mass.matvec(q)
    if load is not None:
        rhs = rhs + stepper.dt * load
    return stepper.system.solve(rhs)


def wave_step(stepper, p_prev: np.ndarray, p_prev2: np.ndarray,
              load: np.ndarray | None = None) -> np.ndarray:
    """One wave step as written: solve (M + dt^2 K + dt B) p^k =
    (2M + dt B) p^{k-1} - M p^{k-2} + dt^2 f^k."""
    ops, dt = stepper.ops, stepper.dt
    prev_weight = SymTridiag(2.0 * ops.mass.diag + dt * ops.damping_gram.diag,
                             2.0 * ops.mass.off + dt * ops.damping_gram.off)
    rhs = prev_weight.matvec(p_prev) - ops.mass.matvec(p_prev2)
    if load is not None:
        rhs = rhs + (dt * dt) * load
    return stepper.system.solve(rhs)


def schrodinger_history(stepper, q0: np.ndarray, loads: np.ndarray | None = None):
    """run_schrodinger driven by the loads f^1..f^K as rows (not by output
    rows), keeping every state: (final, history of shape (K+1, n))."""
    q = np.asarray(q0, dtype=complex)
    history = np.empty((stepper.n_steps + 1, q.size), dtype=complex)
    history[0] = q
    for k in range(1, stepper.n_steps + 1):
        q = schrodinger_step(stepper, q, None if loads is None else loads[k - 1])
        history[k] = q
    return q, history


def wave_history(stepper, p0: np.ndarray, p1: np.ndarray,
                 loads: np.ndarray | None = None):
    """run_wave driven by the loads f^1..f^K as rows, keeping every state:
    (final, positions, velocities).

    positions has shape (K+1, n); velocities holds p1 and then the
    backward differences D_t p^k for k = 2..K, so it has shape (K, n).
    """
    dt = stepper.dt
    p_prev2 = np.asarray(p0, dtype=float)
    vel0 = np.asarray(p1, dtype=float)
    p_prev = p_prev2 + dt * vel0
    history = np.empty((stepper.n_steps + 1, p_prev.size))
    velocities = np.empty((stepper.n_steps, p_prev.size))
    history[0] = p_prev2
    history[1] = p_prev
    velocities[0] = vel0
    for k in range(2, stepper.n_steps + 1):
        p = wave_step(stepper, p_prev, p_prev2, None if loads is None else loads[k - 1])
        p_prev2, p_prev = p_prev, p
        history[k] = p
        velocities[k - 1] = (p - p_prev2) / dt
    return WaveState(p_prev, (p_prev - p_prev2) / dt), history, velocities


def backward_schrodinger_stepper(ops: FemOperators, dt: float, n_steps: int):
    """What schrodinger_step needs to step the backward Schrodinger scheme
    (M + i dt K + dt B) q^k = M q^{k-1} + dt f^k, with its own system."""
    return SimpleNamespace(ops=ops, dt=dt, n_steps=n_steps, system=ShiftedSystem(
        ops.mass, ops.stiffness, ops.damping_gram, alpha=1.0, beta=1j * dt, gamma=dt))


def _old_pass(engine, state, loads, backward: bool):
    if engine.equation == "schrodinger":
        stepper = (backward_schrodinger_stepper if backward else SchrodingerStepper)(
            engine.ops, engine.dt, engine.n_steps)
        return schrodinger_history(stepper, state, loads)[0]
    stepper = WaveStepper(engine.ops, engine.dt, engine.n_steps)
    if not backward:
        return wave_history(stepper, state.pos, state.vel, loads)[0]
    out = wave_history(stepper, state.pos, -state.vel, None if loads is None else -loads)[0]
    return WaveState(out.pos, -out.vel)


def old_backward_observer(engine, trace, final_state):
    """engine.backward_observer with a second Schrodinger system, or the wave's
    velocity flip and negated loads."""
    loads = engine.ops.output_gram.matvec(trace.samples[::-1][1:])
    return _old_pass(engine, final_state, loads, backward=True)


def old_first_iterate(engine, trace):
    """engine.first_iterate, its backward pass by old_backward_observer."""
    loads = engine.ops.output_gram.matvec(trace.samples[1:])
    forward = _old_pass(engine, engine.zero_state(), loads, backward=False)
    return old_backward_observer(engine, trace, forward)


def old_apply_L(engine, state):
    """engine.apply_L, its backward pass as in old_backward_observer."""
    return _old_pass(engine, _old_pass(engine, state, None, backward=False), None,
                     backward=True)


def old_neumann_estimate(engine, trace, n_terms: int):
    """neumann_series(engine, trace, n_terms)[1][-1], every pass by _old_pass."""
    acc = term = old_first_iterate(engine, trace)
    for _ in range(n_terms):
        term = old_apply_L(engine, term)
        acc = combine((1.0, acc), (1.0, term))
    return acc


_GAMMA, _MASK = 0x9E3779B97F4A7C15, (1 << 64) - 1


def splitmix64(z: int) -> int:
    """SplitMix64's finalizer of a 64-bit int (Steele, Lea & Flood, 2014)."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def splitmix_key(seed: int) -> int:
    """The noise key: mix((key ^ word) + GAMMA) over the seed's 64-bit
    words, low word first, from key 0."""
    key = 0
    while True:
        key = splitmix64(((key ^ (seed & _MASK)) + _GAMMA) & _MASK)
        seed >>= 64
        if not seed:
            return key


def splitmix_add_noise(samples: np.ndarray, amplitude: float, seed: int) -> np.ndarray:
    """add_noise's samples, one value at a time: value i of the samples read
    as float64, row by row and real part first, plus amplitude * (k / 2**52),
    k the top 53 bits of mix(key + (i + 1) GAMMA) as a signed integer."""
    key = splitmix_key(seed)
    dtype = np.result_type(samples.dtype, np.float64)
    values = np.array(samples, dtype=dtype, order="C").reshape(-1).view(np.float64)
    out = []
    for i, value in enumerate(values.tolist()):
        z = splitmix64((key + (i + 1) * _GAMMA) & _MASK)
        k = (z >> 11) - ((z >> 63) << 53)
        out.append(value + amplitude * (k * 2.0 ** -52))
    return np.array(out).view(dtype).reshape(samples.shape)


@dataclass(frozen=True)
class ExactTrajectory:
    """Unmasked exact fields at the K+1 sample times, on the (fine) mesh.

    Each mode of the pencil evolves by its closed-form phase (Schrodinger)
    or rotation (wave); the states are synthesized from the mode coordinates
    by DST-I.  The whole (K+1) x n_fine trajectory is held in memory.
    """

    mesh: Mesh1D
    operators: FemOperators
    times: np.ndarray
    states: np.ndarray                    # schrodinger field / wave position
    velocities: np.ndarray | None = None  # wave only


def propagate_exact(instance: ProblemInstance, refine: int = 1) -> ExactTrajectory:
    """Exact-in-time evolution of the conservative system on a refined mesh."""
    if refine < 1:
        raise ValueError("refine must be at least 1")
    fine = Mesh1D(n_cells=instance.mesh.n_cells * refine, length=instance.mesh.length)
    ops = assemble(fine, instance.profile)
    pencil = pencil_eigs(ops.stiffness, ops.mass)
    lam = pencil.values
    x = fine.interior_nodes
    times = instance.dt * np.arange(instance.n_steps + 1)

    if instance.equation == "schrodinger":
        c = pencil.to_modal(instance.truth.value(x).astype(complex))
        modal = np.exp(1j * times[:, None] * lam[None, :])
        modal *= c[None, :]
        return ExactTrajectory(fine, ops, times, pencil.from_modal(modal))

    w0, w1 = instance.truth
    a = pencil.to_modal(w0.value(x))
    b = pencil.to_modal(w1.value(x))
    om = np.sqrt(lam)
    wt = times[:, None] * om[None, :]
    cos_wt = np.cos(wt)
    sin_wt = np.sin(wt, out=wt)
    positions = pencil.from_modal(cos_wt * a + sin_wt * (b / om))
    velocities = pencil.from_modal(cos_wt * b - sin_wt * (om * a))
    return ExactTrajectory(fine, ops, times, positions, velocities)
