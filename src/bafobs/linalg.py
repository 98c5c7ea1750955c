"""Symmetric tridiagonal kernels: shifted solves and a pencil eigensolver.

Everything here operates on the interior-node matrices produced by the FEM
assembly (mass, stiffness, observation Grams).  The shifted solve is the
workhorse of the implicit time steppers; the pencil eigensolver is an oracle
used for exact data generation and cross-checks only.
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


class SingularPivotError(RuntimeError):
    """Raised when elimination hits a pivot too small to trust."""

    def __init__(self, index: int, magnitude: float):
        self.index = index
        self.magnitude = magnitude
        super().__init__(
            f"singular pivot at row {index} (|pivot| = {magnitude:.3e})"
        )


def _tridiag_product(diag: np.ndarray, off: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Symmetric tridiagonal (diag, off) applied along the last axis of u."""
    out = diag * u
    if diag.size > 1:
        out[..., :-1] += off * u[..., 1:]
        out[..., 1:] += off * u[..., :-1]
    return out


@dataclass(frozen=True)
class SymTridiag:
    """Symmetric tridiagonal matrix stored as main/off diagonals."""

    diag: np.ndarray
    off: np.ndarray

    def __post_init__(self):
        diag = np.asarray(self.diag, dtype=float)
        off = np.asarray(self.off, dtype=float)
        if diag.ndim != 1 or diag.size < 1:
            raise ValueError("diag must be a nonempty 1-d array")
        if off.shape != (diag.size - 1,):
            raise ValueError("off must have length n-1")
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "off", off)

    @property
    def n(self) -> int:
        return self.diag.size

    def matvec(self, u: np.ndarray) -> np.ndarray:
        """Product with a vector, or with every row of a 2-d array."""
        u = np.asarray(u)
        if u.ndim not in (1, 2) or u.shape[-1] != self.n:
            raise ValueError(f"array has shape {u.shape}, expected (..., {self.n})")
        return _tridiag_product(self.diag, self.off, u)

    def to_dense(self) -> np.ndarray:
        a = np.diag(self.diag)
        if self.n > 1:
            a += np.diag(self.off, 1) + np.diag(self.off, -1)
        return a


@functools.cache
def _lapack() -> dict | None:
    """LAPACK's ?gttrf/?gttrs from the OpenBLAS that numpy's wheel bundles.

    Returns {float: (dgttrf, dgttrs), complex: (zgttrf, zgttrs)}, or None when
    numpy ships no such library (conda/MKL builds).  Importing numpy has
    already mapped the library, so loading it here maps nothing new.
    """
    base = Path(np.__file__).parent
    for path in sorted((base.parent / "numpy.libs").glob("*openblas64_*")) \
            + sorted((base / ".dylibs").glob("*openblas64_*")):
        try:
            lib = ctypes.CDLL(str(path))
            routines = {dtype: (getattr(lib, f"scipy_{kind}gttrf_64_"),
                                getattr(lib, f"scipy_{kind}gttrs_64_"))
                        for dtype, kind in ((float, "d"), (complex, "z"))}
        except (OSError, AttributeError):
            continue
        # Fortran ABI, 64-bit integers: every argument by address, plus the
        # hidden length of gttrs's character argument TRANS.
        for trf, trs in routines.values():
            trf.argtypes = [ctypes.c_void_p] * 7
            trs.argtypes = [ctypes.c_void_p] * 11 + [ctypes.c_size_t]
            trf.restype = trs.restype = None
        return routines
    return None


def solver_kernel() -> str:
    """Name of the kernel ``ShiftedSystem`` factors and solves with here."""
    return "openblas-gttrs" if _lapack() is not None else "thomas"


class ShiftedSystem:
    """Prefactored combination alpha*M + beta*K + gamma*B of three matrices.

    alpha/beta may be complex (the Schrodinger steppers use beta = -+ i*dt);
    the combined matrix stays tridiagonal and, for every scheme assembled in
    this package, strictly diagonally dominant.  The factorization is
    computed once and reused for every solve: LAPACK's partially pivoted
    ?gttrf/?gttrs from numpy's bundled OpenBLAS when it is there, otherwise
    Thomas elimination without pivoting.  Either way a pivot-magnitude guard
    raises ``SingularPivotError`` when a diagonal entry of U is at most
    1e-14 times the largest diagonal entry of the matrix.
    """

    def __init__(self, M: SymTridiag, K: SymTridiag | None = None,
                 B: SymTridiag | None = None, alpha=1.0, beta=0.0, gamma=0.0):
        n = M.n
        for other, name in ((K, "K"), (B, "B")):
            if other is not None and other.n != n:
                raise ValueError(f"{name} has dimension {other.n}, expected {n}")
        diag = alpha * M.diag.astype(complex)
        off = alpha * M.off.astype(complex)
        if K is not None and beta != 0.0:
            diag = diag + beta * K.diag
            off = off + beta * K.off
        if B is not None and gamma != 0.0:
            diag = diag + gamma * B.diag
            off = off + gamma * B.off
        self.is_real = bool(np.all(diag.imag == 0.0) and np.all(off.imag == 0.0))
        if self.is_real:
            diag = diag.real
            off = off.real
        self.n = n
        self._diag = diag
        self._off = off
        self._factor()

    def _factor(self):
        tiny = 1e-14 * (float(np.max(np.abs(self._diag))) or 1.0)
        lapack = _lapack()
        if lapack is None:
            self._gttrs = None
            self._thomas_factor(tiny)
            return
        dtype = float if self.is_real else complex
        gttrf, self._gttrs = lapack[dtype]
        n = self.n
        # dl, d, du are overwritten with the factors of L and U; du2, ipiv are new.
        self._lu = (self._off.astype(dtype), self._diag.astype(dtype),
                    self._off.astype(dtype), np.zeros(max(n - 2, 0), dtype),
                    np.zeros(n, np.int64))
        addresses = tuple(a.ctypes.data for a in self._lu)
        n_arg, info = ctypes.c_int64(n), ctypes.c_int64(0)
        size, status = ctypes.byref(n_arg), ctypes.byref(info)
        gttrf(size, *addresses, status)
        d = self._lu[1]
        small = np.flatnonzero(np.abs(d) <= tiny)
        if info.value > 0 or small.size:   # info > 0: U(info, info) is exactly 0
            i = int(small[0]) if small.size else info.value - 1
            raise SingularPivotError(i, float(abs(d[i])))
        # gttrs arguments TRANS..IPIV for 1 and 2 right-hand sides, then
        # (B,) LDB = n, INFO and the hidden length of TRANS.
        self._head = {k: (b"N", size, ctypes.byref(ctypes.c_int64(k)), *addresses)
                      for k in (1, 2)}
        self._tail = (size, status, 1)
        self._dtype = dtype

    def _thomas_factor(self, tiny: float):
        # Thomas LU: cp[i] = c_i / (b_i - a_i cp[i-1]); store reciprocal pivots.
        d = self._diag.tolist()
        e = self._off.tolist()
        n = self.n
        cp = [0.0] * (n - 1)
        inv = [0.0] * n
        piv = d[0]
        if abs(piv) <= tiny:
            raise SingularPivotError(0, abs(piv))
        inv[0] = 1.0 / piv
        for i in range(1, n):
            cp[i - 1] = e[i - 1] * inv[i - 1]
            piv = d[i] - e[i - 1] * cp[i - 1]
            if abs(piv) <= tiny:
                raise SingularPivotError(i, abs(piv))
            inv[i] = 1.0 / piv
        self._cp = cp
        self._inv = inv
        self._lower = e

    def matvec(self, u: np.ndarray) -> np.ndarray:
        return _tridiag_product(self._diag, self._off, np.asarray(u))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs)
        if rhs.shape != (self.n,):
            raise ValueError(f"rhs has shape {rhs.shape}, expected ({self.n},)")
        if self._gttrs is None:
            return self._thomas_solve(rhs)
        if self.is_real and np.iscomplexobj(rhs):
            # The real and imaginary parts are the two columns of one solve.
            x = np.array((rhs.real, rhs.imag), dtype=float)
            self._gttrs(*self._head[2], x.ctypes.data, *self._tail)
            return x[0] + 1j * x[1]
        x = rhs.astype(self._dtype, order="C")
        self._gttrs(*self._head[1], x.ctypes.data, *self._tail)
        return x

    def _thomas_solve(self, rhs: np.ndarray) -> np.ndarray:
        n = self.n
        a = self._lower
        cp = self._cp
        inv = self._inv
        d = rhs.tolist()
        y = [0.0] * n
        y[0] = d[0] * inv[0]
        for i in range(1, n):
            y[i] = (d[i] - a[i - 1] * y[i - 1]) * inv[i]
        for i in range(n - 2, -1, -1):
            y[i] -= cp[i] * y[i + 1]
        dtype = float if (self.is_real and not np.iscomplexobj(rhs)) else complex
        return np.array(y, dtype=dtype)


@dataclass(frozen=True)
class PencilEig:
    """Full spectrum of the pencil K v = lambda M v, M-orthonormal vectors."""

    values: np.ndarray          # ascending
    vectors: np.ndarray         # column j is the eigenvector for values[j]
    mass: SymTridiag | None = field(repr=False, default=None)


def _chol_bidiag(M: SymTridiag) -> tuple[np.ndarray, np.ndarray]:
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


def pencil_eigs(K: SymTridiag, M: SymTridiag) -> PencilEig:
    """Solve the generalized symmetric pencil K v = lambda M v.

    The pencil is reduced by the M-Cholesky congruence to a standard
    symmetric problem, whose spectrum is computed by Householder reduction
    plus implicit QL/QR (LAPACK via numpy.linalg.eigh).  Intended for oracle
    scale only (n <= 4096).
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
    return PencilEig(values=w, vectors=V, mass=M)
