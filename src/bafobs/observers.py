"""Fully discrete forward/backward observers and the Krylov reconstruction.

The forward observer is the damped implicit pass T+ driven by the recorded
output; the backward observer is the same pass under the equation's time
reversal R (conjugation for Schrodinger, (p, v) -> (-p, v) for the wave),
driven by the time-reversed output.  For both equations the zero-forcing
round trip is thus L = G G, G = R T+ the half trip; inside the engine a state
is one flat array, q or [p; v].  The initial state solves (I - L) x = z, z
the first iterate, whose Neumann series the paper truncates; here GMRES in
the X inner product solves it, stopping at the residual that the paper's
truncation leaves.  The contraction factor eta, estimated by Arnoldi in X
(for the wave on G), sets that stopping rule, and for Schrodinger the
estimate's dominant Ritz pair (y, L y) is deflated from the solve: its first
guess is the multiple c y of least residual, and GMRES runs on what that
leaves, so that every reported residual is an exact norm.  Both run on one
Arnoldi process.  Each equation has one stepper and one stepping loop, which
returns the final state only and allocates nothing per step.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .fem import (FemOperators, _is_int, _is_number, _is_positive, _is_seed, check_equation,
                  prolong)
from .linalg import ShiftedSystem, SymTridiag

AUTO_N_CAP = 200       # the most steps the stopping rule may take
LOAD_BLOCK = 32        # output rows whose observer loads are formed at once
# how far a Ritz value of the solve's Krylov space may pass eta_hat before
# the solve warns: it covers rounding and the Arnoldi tolerance eta_hat was
# estimated to (1e-6 by default), while a missed mode that sets the
# contraction shows as a Ritz value well above eta_hat
RATIO_SLACK = 0.01
# a solve residual at most this share of ||z||_X is rounding: the Krylov
# space is invariant to rounding (it has broken down), and the solve exact
BREAKDOWN = 1e-14
# the contraction estimate's settings, keyed by estimate_eta's keywords; the
# defaults of estimate_eta, of SweepPlan's eta_* fields and of the CLI's eta
# section
_ETA_DEFAULTS = {"tol": 1e-6, "max_iter": 80, "seed": 11}
# how a trace's samples were made: generated on the reconstruction mesh or a
# refined one, with noise added, or the unit noise alone (``models``)
PROVENANCES = ("clean", "mesh-refined", "noisy", "unit-noise")


@dataclass(frozen=True)
class WaveState:
    """Position/velocity pair of Galerkin coefficients."""

    pos: np.ndarray
    vel: np.ndarray


class SchrodingerStepper:
    """Implicit stepper for the damped Schrodinger observer.

    One step solves (M - i dt K + dt B) q^k = M q^{k-1} + dt f^k, the scheme
    of i A0 - C*C; the backward scheme, of -i A0 - C*C, is its conjugate.  The
    system matrix is factored once and shared across all steps.
    """

    def __init__(self, ops: FemOperators, dt: float, n_steps: int):
        if n_steps < 1:
            raise ValueError("n_steps must be at least 1")
        if not dt > 0:
            raise ValueError("dt must be positive")
        self.ops = ops
        self.dt = dt
        self.n_steps = n_steps
        self.system = ShiftedSystem(ops.mass, ops.stiffness, ops.damping_gram,
                                    alpha=1.0, beta=-1j * dt, gamma=dt)


def run_schrodinger(stepper: SchrodingerStepper, q0: np.ndarray, *,
                    outputs: np.ndarray | None = None) -> np.ndarray:
    """Advance the Schrodinger scheme n_steps times; the final state.

    outputs, when given, holds the output samples y^1..y^K as rows (a view,
    reversed or not, is read as it is); step k is driven by the load
    f^k = G y^k, G the output Gram matrix.  Two state buffers alternate: each
    step forms M q^{k-1} + dt f^k in the one not holding q^{k-1} and solves
    there in place, so no step allocates.
    """
    n = stepper.ops.n
    q = np.array(q0, dtype=complex, order="C")
    if q.shape != (n,):
        raise ValueError(f"q0 has shape {q.shape}, expected ({n},)")
    loads = None if outputs is None else _loads(stepper, outputs, stepper.dt)
    states = (q, np.empty(n, dtype=complex))
    tmp = np.empty(n - 1, dtype=complex)
    solve = stepper.system.solve
    # per parity of k: the product M q^{k-1} into the other buffer, that
    # buffer, and the buffer bound to the system for in-place solves
    plans = [(stepper.ops.mass.bind(src, dst, tmp), dst, stepper.system.bind(dst))
             for src, dst in (states, states[::-1])]
    for k in range(stepper.n_steps):
        product, rhs, bound = plans[k & 1]
        product()
        if loads is not None:
            np.add(rhs, next(loads), out=rhs)
        solve(bound)
    return states[stepper.n_steps & 1]


@dataclass(frozen=True)
class _Conjugated:
    """Output rows that a Schrodinger pass reads conjugated: the backward
    observer's time reversal of its data, applied a block at a time."""

    rows: np.ndarray


def _loads(stepper, outputs, scale: float):
    """The scaled observer loads scale * G y^k of a pass's output rows, in order.

    Each block of LOAD_BLOCK rows is read by one bound product with the
    output Gram matrix G straight from the rows into one fixed buffer, which
    a ``_Conjugated`` input then conjugates in place (G is real, so
    conj(G y) = G conj(y)); a pass holds O(LOAD_BLOCK n) of loads whatever
    its step count.  Every product is elementwise, so the loads are bit for
    bit those of one product over all rows.  The shape is checked here, not
    at the first load.
    """
    conjugate = isinstance(outputs, _Conjugated)
    outputs = np.asarray(outputs.rows if conjugate else outputs)
    shape = (stepper.n_steps, stepper.ops.n)
    if outputs.shape != shape:
        raise ValueError(f"outputs has shape {outputs.shape}, expected {shape}: "
                         "one output row per step")
    size = min(LOAD_BLOCK, shape[0])
    dtype = np.result_type(float, outputs.dtype)
    buf = np.empty((size, shape[1]), dtype)
    tmp = np.empty((size, shape[1] - 1), dtype)
    views = list(buf)                   # row views made once, not per step

    def generate():
        for start in range(0, shape[0], size):
            rows = outputs[start:start + size]
            m = len(rows)
            block = buf[:m]
            stepper.ops.output_gram.bind(rows, block, tmp[:m])()
            if conjugate:
                np.conjugate(block, out=block)
            np.multiply(scale, block, out=block)
            yield from views[:m]
    return generate()


class WaveStepper:
    """Implicit two-step stepper for the damped wave observer.

    Each step solves (M + dt^2 K + dt B) p^k = (2M + dt B) p^{k-1} - M p^{k-2}
    + dt^2 f^k; the startup is p^1 = p^0 + dt * p1.  With W = 2M + dt B, the
    block-diagonal [M 0; 0 W] and [W 0; 0 M] (coupling 0 at the join) form
    both products of a step at once.
    """

    def __init__(self, ops: FemOperators, dt: float, n_steps: int):
        if n_steps < 2:
            raise ValueError("the two-step wave scheme needs n_steps >= 2")
        if not dt > 0:
            raise ValueError("dt must be positive")
        self.ops = ops
        self.dt = dt
        self.n_steps = n_steps
        self.system = ShiftedSystem(ops.mass, ops.stiffness, ops.damping_gram,
                                    alpha=1.0, beta=dt * dt, gamma=dt)
        mass, damping = ops.mass, ops.damping_gram
        weight = SymTridiag(2.0 * mass.diag + dt * damping.diag,
                            2.0 * mass.off + dt * damping.off)
        # indexed by the parity of k, the row of the (2, n) history holding p^{k-2}
        self._stacked = tuple(SymTridiag(np.r_[upper.diag, lower.diag],
                                         np.r_[upper.off, 0.0, lower.off])
                              for upper, lower in ((mass, weight), (weight, mass)))


def run_wave(stepper: WaveStepper, p0: np.ndarray, p1: np.ndarray, *,
             outputs: np.ndarray | None = None) -> np.ndarray:
    """Advance the wave scheme n_steps times from (p0, p1) = (position, velocity).

    Returns the final state as one (2n,) array [p^K; D_t p^K], D_t the
    backward difference.
    outputs, as for ``run_schrodinger``, holds y^1..y^K; the explicit first
    step reads none, so y^1 is never used.  A (2, n) history holds p^{k-1}
    and p^{k-2} in alternating rows: each step forms (2M + dt B) p^{k-1} and
    M p^{k-2} as one block-diagonal product over the flat history, writes
    their difference (plus dt^2 f^k) over p^{k-2} and solves there in place,
    so no step allocates.  A zero coupling adds only +-0, so the states are
    those of two separate products.
    """
    n = stepper.ops.n
    pos0 = np.asarray(p0, dtype=float)
    vel0 = np.asarray(p1, dtype=float)
    if pos0.shape != (n,) or vel0.shape != (n,):
        raise ValueError(f"states must have shape ({n},)")
    dt = stepper.dt
    loads = None if outputs is None else _loads(stepper, outputs, dt * dt)
    if loads is not None:
        next(loads)                     # y^1 drives no step
    history = np.empty((2, n))
    history[0] = pos0
    np.add(pos0, dt * vel0, out=history[1])
    products = np.empty((2, n))
    tmp = np.empty(2 * n - 1)
    solve = stepper.system.solve
    # per parity of k: the product of the flat history, p^{k-2} in row k & 1
    # (where p^k is formed) and p^{k-1} in the other, by the matching block
    # matrix; the halves holding W p^{k-1} and M p^{k-2}; that row; and the
    # row bound to the system for in-place solves
    plans = [(matrix.bind(history.reshape(-1), products.reshape(-1), tmp),
              products[1 - parity], products[parity], history[parity],
              stepper.system.bind(history[parity]))
             for parity, matrix in enumerate(stepper._stacked)]
    for k in range(2, stepper.n_steps + 1):
        product, weighted, massed, rhs, bound = plans[k & 1]
        product()
        np.subtract(weighted, massed, out=rhs)
        if loads is not None:
            np.add(rhs, next(loads), out=rhs)
        solve(bound)
    last, before = history[stepper.n_steps & 1], history[1 - (stepper.n_steps & 1)]
    return np.concatenate([last, (last - before) / dt])


@dataclass(frozen=True)
class ObservationTrace:
    """Time-indexed nodal samples of the masked output on [0, tau]."""

    equation: str
    samples: np.ndarray          # (K+1, n); complex for schrodinger
    tau: float
    dt: float
    provenance: str = "clean"

    def __post_init__(self):
        check_equation(self.equation)
        if not (isinstance(self.provenance, str) and self.provenance in PROVENANCES):
            raise ValueError("provenance must be 'clean', 'mesh-refined', 'noisy' or "
                             f"'unit-noise', got {self.provenance!r}")
        if not _is_positive(self.tau):
            raise ValueError(f"tau must be a positive number, got {self.tau!r}")
        samples = np.asarray(self.samples)
        if samples.ndim != 2 or samples.shape[0] < 2:
            raise ValueError("samples must be a (K+1, n) array with K >= 1")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite (found nan or inf)")
        # the wave's observed velocity is real, and its passes take real loads
        if self.equation == "wave" and np.iscomplexobj(samples):
            raise ValueError(f"samples must be real for the wave, got {samples.dtype}")
        object.__setattr__(self, "samples", samples)
        # relative to tau > 0, so that dt > 0 too
        if not (_is_number(self.dt) and abs(self.n_steps * self.dt - self.tau) <= 1e-9 * self.tau):
            raise ValueError(f"dt must be tau / K = {self.tau / self.n_steps!r}, got {self.dt!r}")

    @property
    def n_steps(self) -> int:
        return self.samples.shape[0] - 1

    @property
    def n(self) -> int:
        return self.samples.shape[1]


@dataclass(frozen=True)
class EtaEstimate:
    """Estimate of the round-trip contraction factor.

    From ``BackAndForth.estimate_eta``, value is the largest modulus of a
    Ritz value of the round trip L in X (for the wave, the square of one of
    the half trip G).  iterations counts the applications of the operator
    Arnoldi ran on; converged is False only when the step budget ran out
    before the stopping rule held.  A converged estimate also carries its
    dominant Ritz vector y, which a sweep's next level starts from, and for
    Schrodinger the Ritz pair (y, L y), which a solve deflates by a first
    guess along y (``BackAndForth.neumann_reconstruct``).  ritz_vector is
    None when the estimate did not converge or its dominant Ritz value is
    one of a complex pair; ritz_pair is None then too, and always for the
    wave, whose Arnoldi runs on the half trip G, so that its Ritz vector's
    image is G y, not L y.
    """

    value: float
    converged: bool
    iterations: int
    ritz_vector: object = field(default=None, compare=False, repr=False)
    ritz_pair: tuple | None = field(default=None, compare=False, repr=False)


def _norm(gram: Callable, u: np.ndarray) -> float:
    """||u||_X, with gram(u) = X u."""
    return math.sqrt(max(np.real(np.vdot(u, gram(u))), 0.0))


def arnoldi_process(apply_op: Callable, gram: Callable, start: np.ndarray,
                    max_steps: int):
    """The Arnoldi process in X from start; after step m it yields (V, H, w).

    States are flat 1-d arrays, and gram(u) = X u gives the inner product
    (u, v)_X = v^H X u.  V holds the X-orthonormal v_1..v_m as the first m
    rows of one array, which grows by doubling, so its storage follows the
    steps taken, as does the complex (m+1) x m Hessenberg H with
    apply_op(v_j) = sum_i H[i, j] v_i; w = H[m, m-1] v_{m+1} is the part of
    apply_op(v_m) outside V.  Each step applies the operator once
    and orthogonalizes against the whole basis by classical Gram-Schmidt
    with one reorthogonalization pass (CGS2), so operators that are only
    nearly self-adjoint in X are handled; each pass forms gram(w) once and
    then takes two matrix-vector products.  The caller stops by leaving the
    loop; after a breakdown, H[m, m-1] = 0, there is nothing to normalize and
    the process ends.
    """
    nrm = _norm(gram, start)
    if nrm == 0.0:
        raise ValueError("start vector must be nonzero")
    basis = np.empty((min(8, max_steps + 1), start.size), start.dtype)
    basis[0] = start * (1.0 / nrm)
    hess = np.zeros((1, 0), dtype=complex)   # sized by the steps taken, not max_steps
    for m in range(1, max_steps + 1):
        hess = np.pad(hess, ((0, 1), (0, 1)))
        w = apply_op(basis[m - 1])
        if w.dtype != basis.dtype:
            basis = basis.astype(np.result_type(basis, w))
        V = basis[:m]
        for _ in range(2):
            coeffs = V.conj() @ gram(w)
            w = w - coeffs @ V
            hess[:m, m - 1] += coeffs
        hess[m, m - 1] = beta = _norm(gram, w)
        yield V, hess, w
        if beta == 0.0:
            return
        if m == len(basis):
            basis = np.concatenate([basis, np.empty_like(basis)])
        basis[m] = w * (1.0 / beta)


def arnoldi_iteration(apply_op: Callable, gram: Callable, start: np.ndarray,
                      tol: float = _ETA_DEFAULTS["tol"],
                      max_iter: int = _ETA_DEFAULTS["max_iter"]) -> EtaEstimate:
    """Largest-modulus Ritz value of a linear operator A, by ``arnoldi_process``.

    The iteration stops when the Ritz residual h_{m+1,m} |e_m^T s| of the
    dominant Ritz pair (theta, s), s of unit 2-norm, drops to tol |theta|; a
    breakdown (h_{m+1,m} = 0) meets that rule too, and the estimate then
    carries the Ritz vector y = sum_j s_j v_j, s turned so that its largest
    entry is real and positive, and the pair (y, A y), A y = V_m H_m s + s_m w
    read off the Arnoldi relation with no further application of A.  A real
    Hessenberg matrix (real states) gives a real vector, or none when its
    dominant Ritz value is one of a complex pair, whose eigenvector is not
    real.  Running out of max_iter returns the last Ritz value with
    converged = False and no vector.
    """
    if not (_is_number(tol) and 0.0 < tol < 1.0):
        raise ValueError(f"tol must be a number in (0, 1), got {tol!r}")
    if not (_is_int(max_iter) and max_iter >= 2):
        raise ValueError(f"max_iter must be an integer >= 2, got {max_iter!r}")
    theta = 0.0
    for V, hess, w in arnoldi_process(apply_op, gram, np.asarray(start), max_iter):
        m = len(V)
        # a real Hessenberg's eig is taken in real arithmetic, so a real Ritz
        # value has imaginary part 0 exactly and a real vector
        real = not np.any(hess.imag)
        H = hess.real if real else hess
        ritz, vecs = np.linalg.eig(H[:m, :m])
        k = int(np.argmax(np.abs(ritz)))
        theta = float(np.abs(ritz[k]))
        if hess[m, m - 1].real * abs(vecs[-1, k]) <= tol * theta:
            if real and ritz[k].imag != 0.0:
                # a complex pair of a real operator: no real vector spans it
                return EtaEstimate(theta, True, m)
            # eig fixes no phase; turn s so that its largest entry is positive
            s = vecs[:, k].real if real else vecs[:, k]
            top = s[np.argmax(np.abs(s))]
            s = s * (abs(top) / top)
            y = s @ V
            return EtaEstimate(theta, True, m, y, (y, (H[:m] @ s) @ V + s[-1] * w))
    return EtaEstimate(theta, False, max_iter)


@dataclass(frozen=True)
class KrylovPolynomial:
    """The map of an m-step solve, x = S(z), kept as the Arnoldi recurrence
    that built it, so that ``replay`` applies it to another state.

    Without a deflated pair S is a polynomial q(L), and m = 0 the identity.
    A solve that deflated a Ritz pair (y, L y) keeps ``deflation`` = (y, w,
    X w / ||w||_X^2), w = y - L y, and S(u) = c(u) y + q(L)(u - c(u) w) with
    c(u) = (u, w)_X / ||w||_X^2.
    """

    hess: np.ndarray        # (m+1) x m Hessenberg of L; real for real states
    coeffs: np.ndarray      # the least-squares y of x_m = sum_j y_j v_j
    z_norm: float           # ||z||_X of GMRES's z, the scale of v_1 = z / ||z||_X
    deflation: tuple | None = field(default=None, compare=False, repr=False)

    @property
    def steps(self) -> int:
        return len(self.coeffs)

    def replay(self, apply_op: Callable, u: np.ndarray) -> np.ndarray:
        """S(u), with q(L) u = u + L x_m: v_1 = u / ||z||_X, v_{j+1} = (L v_j -
        sum_i h_ij v_i) / h_{j+1,j} and x_m = sum_j y_j v_j.  It applies L m
        times, and its one inner product, c(u), is linear in u; so is S."""
        if self.deflation is None:
            return self._polynomial(apply_op, u)
        y, w, dual = self.deflation
        c = np.vdot(dual, u)
        return self._polynomial(apply_op, u - c * w) + c * y

    def _polynomial(self, apply_op: Callable, u: np.ndarray) -> np.ndarray:
        """q(L) u."""
        m = self.steps
        if m == 0:
            return u
        basis = np.empty((m, u.size), np.result_type(u, self.coeffs))
        basis[0] = u * (1.0 / self.z_norm)
        for j in range(1, m):
            w = apply_op(basis[j - 1]) - self.hess[:j, j - 1] @ basis[:j]
            basis[j] = w * (1.0 / self.hess[j, j - 1].real)
        return u + apply_op(self.coeffs @ basis)


def gmres(apply_op: Callable, gram: Callable, z: np.ndarray, max_steps: int,
          atol: float = 0.0) -> tuple[np.ndarray, KrylovPolynomial, tuple]:
    """GMRES in X on (I - A) x = z from x_0 = 0, A = apply_op, z nonzero,
    plus one free fixed-point step.

    Step m of ``arnoldi_process`` gives A V_m = V_{m+1} H, so the x_m of
    K_m(A, z) with the least residual r_m = z - (I - A) x_m is V_m y, y the
    least-squares solution of (I~ - H) y = ||z||_X e_1, I~ the (m+1) x m
    identity.  It stops after the first step whose residual is at most
    atol, after max_steps steps, or at a breakdown, a residual at most
    BREAKDOWN ||z||_X, where x_m is exact to rounding.  It returns
    x = z + A x_m, whose A x_m = V_m H_m y + y_m w the process already
    holds: the residual of x is A r_m and its error A times x_m's, so
    neither is larger where A is nonexpansive.  Returns x, its polynomial
    and the residual norms of x_0 = 0, x_1, ..., x_m.
    """
    beta = _norm(gram, z)
    residuals = [beta]
    for V, hess, w in arnoldi_process(apply_op, gram, z, max_steps):
        m = len(V)
        H = hess if np.any(hess.imag) else hess.real
        lhs = np.eye(m + 1, m) - H
        rhs = np.zeros(m + 1, H.dtype)
        rhs[0] = beta
        y = np.linalg.lstsq(lhs, rhs, rcond=None)[0]
        residuals.append(float(np.linalg.norm(rhs - lhs @ y)))
        if residuals[-1] <= max(atol, BREAKDOWN * beta):
            break
    return z + (H[:m] @ y) @ V + y[-1] * w, KrylovPolynomial(H, y, beta), tuple(residuals)


def _check_rule(h: float, theta: float, eta_hat: float, dt: float):
    if not h > 0:
        raise ValueError("h must be positive")
    if not 0 < theta < math.inf:
        raise ValueError(f"theta must be a finite positive number, got {theta!r}")
    if not dt >= 0:
        raise ValueError("dt must be nonnegative")
    if not 0.0 < eta_hat < 1.0:
        raise ValueError(
            f"contraction not certified: eta_hat = {eta_hat} is not in (0, 1)"
        )


def choose_truncation(*, h: float, theta: float, eta_hat: float,
                      dt: float = 0.0) -> int:
    """The paper's number of Neumann terms matching the discretization error.

    ceil(ln(h^theta + dt) / ln eta), floored at 0; dt = 0 is the
    semi-discrete case.  The solve stops at the residual these terms leave.
    """
    _check_rule(h, theta, eta_hat, dt)
    return max(0, math.ceil(math.log(h ** theta + dt) / math.log(eta_hat)))


@dataclass(frozen=True)
class ReconstructionResult:
    """A reconstruction x = S(z) of the first iterate z, and its diagnostics.

    n_used is m, the round trips past the first iterate: the GMRES steps of
    a solve, or, for a replay, those of the solve whose map it applied.
    residual_norms holds ||z||_X, the residual of x = 0, then the residual
    norm of each of the solve's iterates x_1, ..., x_m (a replay has none).
    ritz_max is the largest modulus of a Ritz value of L on the solve's
    Krylov space, which eta_hat should bound, and deflated |(z, y)_X| /
    (||z||_X ||y||_X), the share of z along a deflated pair's vector y; each
    is None where there is none.
    """

    estimate: np.ndarray | WaveState
    n_used: int
    eta_hat: float
    residual_norms: tuple
    polynomial: KrylovPolynomial
    ritz_max: float | None = None
    n_capped: bool = False      # the stopping rule was not met in AUTO_N_CAP steps
    deflated: float | None = None

    @property
    def residual(self) -> float | None:
        """||r_m||_X / ||z||_X, the relative residual of x_m, which
        bounds the estimate's where L is nonexpansive; None when no step ran."""
        norms = self.residual_norms
        return norms[-1] / norms[0] if len(norms) > 1 else None


class BackAndForth:
    """Observer pair and round-trip operator for one discretization.

    Holds the one prefactored stepper of a (mesh, dt, n_steps) triple, which
    runs both passes; all methods are pure given the immutable stepper.
    """

    def __init__(self, equation: str, ops: FemOperators, dt: float, n_steps: int):
        check_equation(equation)
        self.equation = equation
        self.ops = ops
        self.dt = dt
        self.n_steps = n_steps
        stepper = SchrodingerStepper if equation == "schrodinger" else WaveStepper
        self._stepper = stepper(ops, dt, n_steps)
        # X of a _flat state: M, or for the wave [K 0; 0 M] (coupling 0 at the
        # join), the stiffness norm of the position plus the mass norm of the
        # velocity
        K, M = ops.stiffness, ops.mass
        self._x_gram = M if equation == "schrodinger" else SymTridiag(
            np.r_[K.diag, M.diag], np.r_[K.off, 0.0, M.off])

    @property
    def round_trip_solves(self) -> int:
        """Tridiagonal solves in one round trip, two passes of K steps.

        The wave's first step of each pass is explicit and solves nothing.
        """
        return 2 * (self.n_steps - (self.equation == "wave"))

    @property
    def eta_step_solves(self) -> int:
        """Tridiagonal solves of one ``estimate_eta`` step: one pass of the
        half trip for the wave, one round trip for Schrodinger."""
        return self.n_steps - 1 if self.equation == "wave" else self.round_trip_solves

    # -- X geometry ---------------------------------------------------------

    def x_inner(self, u, v):
        return np.vdot(self._flat(v), self._x_gram.matvec(self._flat(u)))

    def x_norm(self, u) -> float:
        return _norm(self._x_gram.matvec, self._flat(u))

    def _flat(self, state) -> np.ndarray:
        """A public state as the engine's one 1-d array: the wave's is [pos; vel]."""
        if self.equation == "schrodinger":
            return state
        return np.concatenate([state.pos, state.vel])

    def _state(self, flat: np.ndarray):
        """The public state of a ``_flat`` array (the wave's halves are views)."""
        if self.equation == "schrodinger":
            return flat
        return WaveState(flat[:self.ops.n], flat[self.ops.n:])

    def zero_state(self):
        dtype = complex if self.equation == "schrodinger" else float
        return self._state(np.zeros(self._x_gram.diag.size, dtype))

    def random_state(self, seed: int):
        """A state of 2n independent standard-normal draws fixed by ``seed``:
        Box-Muller pairs r (cos phi, sin phi) of the standard library's
        ``random.Random(seed).random()``, the one stream Python keeps across
        versions and platforms.  The n cosines come first: the wave's
        positions, or Schrodinger's real parts, with the sines as the
        velocities or imaginary parts.  A NumPy integer seed draws as its
        Python int."""
        if not _is_seed(seed):
            raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
        uniform = random.Random(int(seed)).random
        n = self.ops.n
        z = np.empty(2 * n)
        for k in range(n):
            r = math.sqrt(-2.0 * math.log(1.0 - uniform()))
            phi = 2.0 * math.pi * uniform()
            z[k], z[n + k] = r * math.cos(phi), r * math.sin(phi)
        if self.equation == "schrodinger":
            return z[:n] + 1j * z[n:]
        return self._state(z)

    # -- observers: every pass is built of T+ (_pass) and R (_reverse) -------

    def _check_trace(self, trace: ObservationTrace):
        if trace.equation != self.equation:
            raise ValueError(f"trace is for {trace.equation!r}, not {self.equation!r}")
        if trace.n != self.ops.n:
            raise ValueError(
                f"trace has {trace.n} nodes, reconstruction mesh has {self.ops.n}"
            )
        if trace.n_steps != self.n_steps:
            raise ValueError(
                f"trace has {trace.n_steps} steps, stepper has {self.n_steps}"
            )

    def _pass(self, u: np.ndarray, outputs=None) -> np.ndarray:
        """T+: one damped pass of n_steps from u, driven by outputs if given."""
        if self.equation == "schrodinger":
            return run_schrodinger(self._stepper, u, outputs=outputs)
        n = self.ops.n
        return run_wave(self._stepper, u[:n], u[n:], outputs=outputs)

    def _reverse(self, u: np.ndarray) -> np.ndarray:
        """R in place: conjugation for Schrodinger, (p, v) -> (-p, v) for the
        wave.  Both are exact and their own inverse."""
        if self.equation == "schrodinger":
            return np.conjugate(u, out=u)
        np.negative(u[:self.ops.n], out=u[:self.ops.n])
        return u

    def _half_trip(self, u: np.ndarray, outputs=None) -> np.ndarray:
        """G = R T+: one pass, then the time reversal."""
        return self._reverse(self._pass(u, outputs))

    def _backward(self, u: np.ndarray, outputs) -> np.ndarray:
        """The backward pass G(R u, R outputs).  R of Schrodinger's outputs is
        their conjugate as the pass reads them; the wave's leaves them alone."""
        if self.equation == "schrodinger":
            outputs = _Conjugated(outputs)
        return self._half_trip(self._reverse(u.copy()), outputs)

    def _round_trip(self, u: np.ndarray) -> np.ndarray:
        """L = G G, one zero-forcing round trip."""
        return self._half_trip(self._half_trip(u))

    def _first_iterate(self, trace: ObservationTrace) -> np.ndarray:
        """``first_iterate``, flat."""
        self._check_trace(trace)
        return self._backward(self._pass(self._flat(self.zero_state()), trace.samples[1:]),
                              trace.samples[::-1][1:])   # y^{K-k}, k = 1..K

    def forward_observer(self, trace: ObservationTrace):
        """Run the damped observer from rest, driven by the trace; state at tau."""
        self._check_trace(trace)
        return self._state(self._pass(self._flat(self.zero_state()), trace.samples[1:]))

    def backward_observer(self, trace: ObservationTrace, final_state):
        """Run the backward observer from the forward output; state at time 0."""
        self._check_trace(trace)
        return self._state(self._backward(self._flat(final_state), trace.samples[::-1][1:]))

    def first_iterate(self, trace: ObservationTrace):
        """The state the Neumann series starts from: backward(forward(trace))."""
        return self._state(self._first_iterate(trace))

    def apply_L(self, state):
        """One zero-forcing round trip (forward then backward pass)."""
        return self._state(self._round_trip(self._flat(state)))

    # -- contraction factor and reconstruction ------------------------------

    def _eta_start(self, seed: int, warm=None) -> np.ndarray:
        """Arnoldi's ``_flat`` start: ``random_state(seed)``, plus ``warm``, if given.

        ``warm``, a state on any uniform mesh of the same length (a coarser
        level's Ritz vector), is prolonged onto this mesh part by part and
        added to the random state at equal X norm.  The random part keeps full
        weight: the dominant mode can change from one mesh to the next, and a
        start nearly orthogonal to it can stop Arnoldi on a smaller Ritz value.
        """
        start = self._flat(self.random_state(seed))
        if warm is None:
            return start
        parts = np.split(self._flat(warm), 1 if self.equation == "schrodinger" else 2)
        warm = np.concatenate([prolong(part, self.ops.mesh) for part in parts])
        gram = self._x_gram.matvec
        size = _norm(gram, warm)
        if size == 0.0:             # a restriction onto a coarser mesh can vanish
            return start
        return start * (1.0 / _norm(gram, start)) + warm * (1.0 / size)

    def estimate_eta(self, tol: float = _ETA_DEFAULTS["tol"],
                     max_iter: int = _ETA_DEFAULTS["max_iter"],
                     seed: int = _ETA_DEFAULTS["seed"], *, warm=None) -> EtaEstimate:
        """Arnoldi estimate of the round-trip contraction factor in X.

        Arnoldi starts from ``_eta_start(seed, warm)`` and runs on ``_flat``
        states, the wave's as [pos; vel], with X as one tridiagonal Gram
        matrix; the Ritz vector comes back as a state.  The wave's time
        reversal is linear, so L = G^2 with G the half trip
        (``_half_trip``): Arnoldi runs on G, one pass a step, and eta is
        theta^2, with G's Ritz vector an eigenvector of L.  Schrodinger's,
        conjugation, is antilinear, so its Arnoldi runs on L, one round trip
        a step.  Either way iterations and max_iter count applications of
        the operator.  Schrodinger's Ritz pair (y, L y) comes back as states
        too, its image read off the Arnoldi relation; the wave's would be
        (y, G y), and the wave's estimate carries none.  An estimate that
        runs out of steps leaves the stopping rule it sets uncertified, so
        besides converged = False it warns.
        """
        start = self._eta_start(seed, warm)
        op = self._round_trip if self.equation == "schrodinger" else self._half_trip
        eta = arnoldi_iteration(op, self._x_gram.matvec, start, tol, max_iter)
        if self.equation == "wave":
            eta = replace(eta, value=eta.value ** 2, ritz_pair=None)
        if eta.ritz_vector is not None:
            y = self._state(eta.ritz_vector)
            pair = None if eta.ritz_pair is None else (y, self._state(eta.ritz_pair[1]))
            eta = replace(eta, ritz_vector=y, ritz_pair=pair)
        if not eta.converged:
            warnings.warn(f"eta = {eta.value:.6g} at {self.ops.mesh.n_cells} cells did not "
                          f"converge in {eta.iterations} steps; raise max_iter or loosen tol",
                          RuntimeWarning, stacklevel=2)
        return eta

    def neumann_reconstruct(self, trace: ObservationTrace, eta: EtaEstimate, *,
                            theta: float = 1.0,
                            polynomial: KrylovPolynomial | None = None
                            ) -> ReconstructionResult:
        """The initial state: (I - L) x = z solved by ``gmres``, z the first iterate.

        The Neumann series sum_n L^n z solves the same system.  eta, an
        ``EtaEstimate``, sets the one stopping rule: the solve stops at the
        first step k whose residual ||r_k||_X is at most eta_hat (h^theta +
        dt) ||z||_X, eta_hat = eta.value, the tail the paper's truncation
        ``choose_truncation`` leaves; as ||(I - L)^-1||_X <= 1 / (1 - eta),
        the error is then at most that over 1 - eta.  A solve not done in
        AUTO_N_CAP steps warns and sets the result's n_capped.

        The estimate's Ritz pair (y, L y), when it has one, is deflated by a
        first guess c y of least residual: with w = y - L y, c = (z, w)_X /
        ||w||_X^2 leaves the residual rest = z - c w, so that ||rest||_X <=
        ||z||_X, and GMRES runs on rest; x = c y + rest + L x_k then leaves
        the residual L r_k of GMRES on rest.  A pair with w = 0 (L y = y) is
        not deflated.  A zero z returns z with n_used = 0; so does a z along
        w to rounding, which c y solves exactly.  The solve also warns when
        a Ritz value of L passes eta_hat by more than RATIO_SLACK: a check of
        eta_hat for free, rigorous only where ||L||_X = eta, as for the
        X-self-adjoint Schrodinger round trip.

        ``polynomial``, another solve's, is replayed on this trace's z in
        place of a solve: as many round trips as the solve, and linear in
        the trace.  A replay reads eta only for the eta_hat it records.
        """
        eta_hat = eta.value
        if polynomial is not None:
            x = polynomial.replay(self._round_trip, self._first_iterate(trace))
            return ReconstructionResult(self._state(x), polynomial.steps, eta_hat, (),
                                        polynomial)
        h = self.ops.mesh.h
        _check_rule(h, theta, eta_hat, self.dt)
        rtol = eta_hat * (h ** theta + self.dt)
        z = self._first_iterate(trace)
        gram = self._x_gram.matvec
        z_norm = _norm(gram, z)
        target = rtol * z_norm
        deflation, c, deflated, rest, rest_norm = None, 0.0, None, z, z_norm
        if eta.ritz_pair is not None and z_norm > 0.0:
            y, image = (self._flat(state) for state in eta.ritz_pair)
            w = y - image
            dual = gram(w)
            size = float(np.real(np.vdot(w, dual)))
            if size > 0.0:
                deflation = (y, w, dual * (1.0 / size))
                c = np.vdot(deflation[2], z)
                rest = z - c * w
                rest_norm = _norm(gram, rest)
                deflated = float(abs(np.vdot(y, gram(z)))) / (_norm(gram, y) * z_norm)
        if rest_norm <= BREAKDOWN * z_norm:
            x, residuals = rest, (rest_norm,)
            poly = KrylovPolynomial(np.zeros((1, 0)), np.zeros(0), rest_norm, deflation)
        else:
            x, poly, residuals = gmres(self._round_trip, gram, rest, AUTO_N_CAP, target)
            poly = replace(poly, deflation=deflation)
        if deflation is not None:
            x = x + c * y
        norms = (z_norm,) + residuals[1:]
        m = poly.steps
        capped = m == AUTO_N_CAP and norms[-1] > target
        if capped:
            warnings.warn(
                f"the solve's relative residual is {norms[-1] / z_norm:.3g} after "
                f"{m} steps, above the stopping rule's {rtol:.3g}; capping at "
                f"{AUTO_N_CAP} (eta_hat = {eta_hat} may be close to 1)",
                RuntimeWarning, stacklevel=2,
            )
        ritz_max = float(np.max(np.abs(np.linalg.eigvals(poly.hess[:m])))) if m else None
        if ritz_max is not None and ritz_max > eta_hat * (1.0 + RATIO_SLACK):
            warnings.warn(
                f"the solve's Krylov space holds a Ritz value of L of modulus "
                f"{ritz_max:.6g}, more than eta_hat = {eta_hat:.6g} allows: eta_hat "
                f"missed part of the spectrum, and the stopping rule may be too loose",
                RuntimeWarning, stacklevel=2,
            )
        return ReconstructionResult(self._state(x), m, eta_hat, norms, poly, ritz_max,
                                    capped, deflated)
