"""Independent oracles shared by the test modules.

Everything here deliberately avoids the package's stepper/solver code paths:
dense numpy factorizations and eigendecompositions only, so agreement with
the package is a real cross-check and not a tautology.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from bafobs import FemOperators, WaveState
from bafobs.linalg import SingularPivotError


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
    Y = _bidiag_solve_lower(ld, le, K.to_dense())
    C = _bidiag_solve_lower(ld, le, Y.T)
    C = 0.5 * (C + C.T)
    try:
        w, U = np.linalg.eigh(C)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise RuntimeError(f"pencil eigensolver failed to converge: {exc}") from exc
    V = _bidiag_solve_upper(ld, le, U)
    return DensePencil(values=w, vectors=V)


def reduced_generator(ops: FemOperators, sign: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pencil-basis generator of the damped semi-discrete system.

    Returns (eigvals, eigvecs, basis) so that the system M q' = sign*i K q - B q
    reads c' = G c in coordinates q = basis @ c, with G = S diag(w) S^-1.
    """
    pencil = dense_pencil_eigs(ops.stiffness, ops.mass)
    V = pencil.vectors
    reduced_damping = V.T @ ops.damping_gram.to_dense() @ V
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
    M = ops.mass.to_dense()
    A = M - sign * 1j * dt * ops.stiffness.to_dense() + dt * ops.damping_gram.to_dense()
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
    M = ops.mass.to_dense()
    B = ops.damping_gram.to_dense()
    A = M + dt * dt * ops.stiffness.to_dense() + dt * B
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
