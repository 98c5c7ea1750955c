"""Symmetric tridiagonal kernels: shifted solves and a closed-form pencil spectrum.

Everything here operates on the interior-node matrices produced by the FEM
assembly (mass, stiffness, observation Grams).  The shifted solve is the
workhorse of the implicit time steppers.  The pencil spectrum drives exact
data generation: on the uniform mesh the mass and stiffness matrices are
Toeplitz, so their common eigenvectors are discrete sines and the transforms
to and from mode coordinates are DST-Is, with no size limit.  Synthesis of
every stride-th node alone folds the sines first and runs one shorter DST-I.
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np


class SingularPivotError(RuntimeError):
    """Raised when elimination hits a pivot too small to trust."""

    def __init__(self, index: int, magnitude: float):
        self.index = index
        self.magnitude = magnitude
        super().__init__(
            f"singular pivot at row {index} (|pivot| = {magnitude:.3e})"
        )


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
        """Product with a vector, or with every row of a 2-d array.

        A one-off product is cheaper in numpy than through a fresh LAPACK
        binding, and both give the same bits.
        """
        u = np.asarray(u)
        if u.ndim not in (1, 2) or u.shape[-1] != self.n:
            raise ValueError(f"array has shape {u.shape}, expected (..., {self.n})")
        out = np.empty(u.shape, np.result_type(self.diag, u))
        self._numpy_product(u, out, np.empty(u.shape[:-1] + (self.n - 1,), out.dtype))()
        return out

    def bind(self, x: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> Callable[[], None]:
        """A zero-argument product out = A x over fixed buffers.

        x and out have shape (..., n), tmp (..., n - 1).  With numpy's
        bundled OpenBLAS, C-contiguous x and out of one float or complex
        dtype get one LAPACK ?lagtm call, its arguments converted by their
        declared types here, once (tmp is unused); other buffers get the
        numpy product.  Both add the lower neighbour first, so they give
        the same bits.
        """
        if x.shape != out.shape or x.shape[-1:] != (self.n,):
            raise ValueError(f"x and out have shapes {x.shape}, {out.shape}, "
                             f"expected one shape (..., {self.n})")
        lapack = None
        if (x.dtype == out.dtype and out.dtype in (np.float64, np.complex128)
                and x.flags.c_contiguous and out.flags.c_contiguous and out.flags.writeable):
            lapack = _lapack()
        if lapack is None:
            return self._numpy_product(x, out, tmp)
        declared, bare = lapack["dlagtm" if out.dtype == np.float64 else "zlagtm"]
        if out.dtype not in self._diagonals:
            self._diagonals[out.dtype] = tuple(
                a.astype(out.dtype, copy=False).ctypes.data_as(ctypes.c_void_p)
                for a in (self.diag, self.off))
        diag, off = self._diagonals[out.dtype]
        size = ctypes.byref(ctypes.c_int64(self.n))
        # ?lagtm arguments TRANS, N, NRHS, ALPHA, DL, D, DU, X, LDX, BETA, B,
        # LDB and the hidden length of TRANS: out = 1.0 A x + 0.0 out, one
        # right-hand side per row
        args = _converted(declared.argtypes, (
            b"N", size, ctypes.byref(ctypes.c_int64(x.size // self.n)),
            ctypes.byref(ctypes.c_double(1.0)), off, diag, off,
            x.ctypes.data_as(ctypes.c_void_p), size, ctypes.byref(ctypes.c_double(0.0)),
            out.ctypes.data_as(ctypes.c_void_p), size, 1))
        return functools.partial(bare, *args)

    @functools.cached_property
    def _diagonals(self) -> dict:
        """Per dtype, pointers to the diagonal and the off-diagonal cast to
        it, which ``bind`` fills: a pointer from data_as keeps its array
        alive, and a matrix bound every pass casts once."""
        return {}

    def _numpy_product(self, x: np.ndarray, out: np.ndarray,
                       tmp: np.ndarray) -> Callable[[], None]:
        """``bind``'s product in numpy ufuncs, row i summed as LAPACK's lagtm
        sums it: (a_{i,i-1} x_{i-1} + a_ii x_i) + a_{i,i+1} x_{i+1}.

        tmp takes the off-diagonal products.  The diagonals are cast to
        out's dtype and the views of x and out taken here, once: numpy casts
        a real operand of a complex product anyway, so the bits are the
        same, at about half the cost.
        """
        diag = self.diag.astype(out.dtype, copy=False)
        off = self.off.astype(out.dtype, copy=False)
        x_hi, x_lo, out_lo, out_hi = x[..., 1:], x[..., :-1], out[..., :-1], out[..., 1:]

        def product():
            np.multiply(diag, x, out=out)
            np.multiply(off, x_lo, out=tmp)
            np.add(out_hi, tmp, out=out_hi)
            np.multiply(off, x_hi, out=tmp)
            np.add(out_lo, tmp, out=out_lo)
        return product


@functools.cache
def _lapack() -> dict | None:
    """LAPACK's solves zgttrs and dpttrs and products zlagtm and dlagtm from
    the OpenBLAS that numpy's wheel bundles: all four, or None.

    Returns {name: (declared, bare)} for the four routines, or None when
    numpy ships no such library (conda/MKL builds); ``ShiftedSystem``
    factors and solves by itself then, and ``SymTridiag.bind`` multiplies
    in numpy.  declared carries the routine's argtypes, which the callers
    pass their arguments through once; bare is a pointer to the same symbol
    without them, which they call with those converted arguments.
    Importing numpy has already mapped the library, so loading it here, at
    the first factorization or bound product, maps nothing new.
    """
    base = Path(np.__file__).parent
    for path in sorted((base.parent / "numpy.libs").glob("*openblas64_*")) \
            + sorted((base / ".dylibs").glob("*openblas64_*")):
        try:
            lib = ctypes.CDLL(str(path))
            routines = {name: (lib[f"scipy_{name}_64_"], lib[f"scipy_{name}_64_"])
                        for name in ("zgttrs", "dpttrs", "zlagtm", "dlagtm")}
        except (OSError, AttributeError):
            continue
        # Fortran ABI, 64-bit integers: every argument by address, plus the
        # hidden length of the character argument TRANS of zgttrs and ?lagtm.
        routines["dpttrs"][0].argtypes = [ctypes.c_void_p] * 7
        routines["zgttrs"][0].argtypes = [ctypes.c_void_p] * 11 + [ctypes.c_size_t]
        for name in ("zlagtm", "dlagtm"):
            routines[name][0].argtypes = [ctypes.c_void_p] * 12 + [ctypes.c_size_t]
        for pair in routines.values():
            for routine in pair:
                routine.restype = None
        return routines
    return None


def _converted(kinds, args: tuple) -> tuple:
    """args passed through their declared ctypes types, as a call through
    argtypes passes them on every call: a wrong count or an argument of the
    wrong kind raises here."""
    if len(args) != len(kinds):
        raise TypeError(f"{len(kinds)} declared argument types for {len(args)} arguments")
    return tuple(kind.from_param(arg) for kind, arg in zip(kinds, args))


def solver_kernel() -> str:
    """Name of the tridiagonal kernel here, for solves and bound products.

    "openblas-gttrs" names the compiled OpenBLAS routines (zgttrs for
    complex systems, dpttrs for real ones, and ?lagtm for the products that
    ``SymTridiag.bind`` binds), "thomas" the pure-Python substitutions with
    numpy products; both solve with the same Thomas factors and give the
    same product bits.  The name predates the products and is kept so that
    the outputs' ``solver_kernel`` field keeps its values.
    """
    return "openblas-gttrs" if _lapack() is not None else "thomas"


class BoundSolve:
    """A right-hand-side buffer tied to one ``ShiftedSystem`` by its ``bind``.

    ``system.solve(bound)`` overwrites ``bound.buf`` with the solution for
    its contents.  args holds the LAPACK arguments, converted by their
    declared types and holding raw addresses into buf and into the system's
    factors (None on the Thomas path); the references keep both alive.
    """

    __slots__ = ("system", "buf", "args")

    def __init__(self, system: "ShiftedSystem", buf: np.ndarray, args: tuple | None):
        self.system = system
        self.buf = buf
        self.args = args


class ShiftedSystem:
    """Prefactored combination alpha*M + beta*K + gamma*B of three matrices.

    alpha/beta may be complex (the Schrodinger stepper uses beta = -i*dt);
    the combined matrix stays tridiagonal and symmetric, and for every
    scheme assembled in this package its Hermitian part M + dt B is positive
    definite, so elimination without pivoting never meets a zero pivot.
    Every system is factored once, by that Thomas elimination, and the
    factors are reused for every solve.  With numpy's bundled OpenBLAS a
    complex system is solved by zgttrs (L U with no row swaps), a real one
    by dpttrs (L D L^T); without OpenBLAS the Thomas substitutions solve.  A
    pivot-magnitude guard raises ``SingularPivotError`` when a pivot is at
    most 1e-14 times the largest diagonal entry of the matrix; so a system
    that would need row swaps raises it on either kernel.
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
        self.dtype = np.dtype(float if self.is_real else complex)
        self._diag = diag
        self._off = off
        self._factor()

    def _factor(self):
        tiny = 1e-14 * (float(np.max(np.abs(self._diag))) or 1.0)
        pivots, multipliers, inv = self._thomas_factor(tiny)
        lapack = _lapack()
        if lapack is None:
            self._bare = None
            self._lower, self._cp, self._inv = self._off.tolist(), multipliers, inv
            return
        n_arg, info = ctypes.c_int64(self.n), ctypes.c_int64(0)
        size, status, one = ctypes.byref(n_arg), ctypes.byref(info), ctypes.byref(ctypes.c_int64(1))
        if self.is_real:
            self._factors = (np.array(pivots), np.array(multipliers, float))
            declared, self._bare = lapack["dpttrs"]
            # dpttrs arguments N..E, then (B,) LDB = n and INFO
            head = (size, one, *(a.ctypes.data for a in self._factors))
            tail = (size, status)
        else:
            # L U without row swaps, as zgttrf would store it: DL the multipliers,
            # D the pivots, DU the off-diagonal, DU2 = 0 and IPIV the identity
            self._factors = (np.array(multipliers, complex), np.array(pivots), self._off,
                             np.zeros(max(self.n - 2, 0), complex),
                             np.arange(1, self.n + 1, dtype=np.int64))
            declared, self._bare = lapack["zgttrs"]
            # zgttrs arguments TRANS..IPIV for one right-hand side, then
            # (B,) LDB = n, INFO and the hidden length of TRANS.
            head = (b"N", size, one, *(a.ctypes.data for a in self._factors))
            tail = (size, status, 1)
        # every argument but B converted by its declared type once, here;
        # bind converts B by its own
        kinds = declared.argtypes
        self._head = _converted(kinds[:len(head)], head)
        self._tail = _converted(kinds[len(head) + 1:], tail)
        self._b_kind = kinds[len(head)]

    def _thomas_factor(self, tiny: float) -> tuple[list, list, list]:
        """Thomas elimination without pivoting: the pivots, the multipliers
        cp[i] = c_i / (b_i - a_i cp[i-1]) and the reciprocal pivots.

        For the symmetric matrix this is L D L^T = L U, with D the pivots,
        the multipliers the subdiagonal of L and the off-diagonal U's above D.
        """
        d = self._diag.tolist()
        e = self._off.tolist()
        n = self.n
        cp = [0.0] * (n - 1)
        pivots = [0.0] * n
        inv = [0.0] * n
        piv = d[0]
        if abs(piv) <= tiny:
            raise SingularPivotError(0, abs(piv))
        pivots[0] = piv
        inv[0] = 1.0 / piv
        for i in range(1, n):
            cp[i - 1] = e[i - 1] * inv[i - 1]
            piv = d[i] - e[i - 1] * cp[i - 1]
            if abs(piv) <= tiny:
                raise SingularPivotError(i, abs(piv))
            pivots[i] = piv
            inv[i] = 1.0 / piv
        return pivots, cp, inv

    def bind(self, buf: np.ndarray) -> BoundSolve:
        """Tie buf to this system for in-place solves by ``solve``.

        buf must be a writeable, C-contiguous (n,) array of ``dtype``.  buf's
        address is resolved and converted by its declared argtype here, once,
        and joined to the system's other arguments, converted at the
        factorization, so a stepping loop that refills buf before each solve
        pays for neither, and an argument the declared types refuse raises
        before any solve.
        """
        if (buf.shape != (self.n,) or buf.dtype != self.dtype
                or not (buf.flags.c_contiguous and buf.flags.writeable)):
            raise ValueError(f"buf must be a writeable C-contiguous ({self.n},) "
                             f"{self.dtype} array, got {buf.shape} {buf.dtype}")
        args = None if self._bare is None else (
            *self._head, self._b_kind.from_param(buf.ctypes.data), *self._tail)
        return BoundSolve(self, buf, args)

    def solve(self, rhs: np.ndarray | BoundSolve) -> np.ndarray:
        """The solution for rhs, in a new array; for a ``bind`` buffer, in it.

        Every solve goes through here, in place or not, with the arguments
        converted at ``bind``.
        """
        if rhs.__class__ is not BoundSolve:
            rhs = np.asarray(rhs)
            if rhs.shape != (self.n,):
                raise ValueError(f"rhs has shape {rhs.shape}, expected ({self.n},)")
            if self.is_real and np.iscomplexobj(rhs):
                return self.solve(rhs.real) + 1j * self.solve(rhs.imag)
            rhs = self.bind(rhs.astype(self.dtype, order="C"))
        elif rhs.system is not self:
            raise ValueError("rhs is bound to another system")
        if self._bare is None:
            rhs.buf[:] = self._thomas_solve(rhs.buf.tolist())
        else:
            self._bare(*rhs.args)
        return rhs.buf

    def _thomas_solve(self, d: list) -> list:
        n = self.n
        a = self._lower
        cp = self._cp
        inv = self._inv
        y = [0.0] * n
        y[0] = d[0] * inv[0]
        for i in range(1, n):
            y[i] = (d[i] - a[i - 1] * y[i - 1]) * inv[i]
        for i in range(n - 2, -1, -1):
            y[i] -= cp[i] * y[i + 1]
        return y


def _dst1(u: np.ndarray) -> np.ndarray:
    """Unnormalized DST-I of u along the last axis.

    out_k = sum_j u_j sin(pi (j+1)(k+1)/(n+1)), read off entries 1..n of the
    FFT of the odd extension [0, u, 0, -reversed u] (length 2n+2), which are
    -2i out_k.  A complex u is transformed as its real and imaginary parts,
    so no buffer is both complex and twice as long as u.
    """
    if np.iscomplexobj(u):
        out = np.empty(u.shape, dtype=complex)
        out.real = _dst1(u.real)
        out.imag = _dst1(u.imag)
        return out
    n = u.shape[-1]
    ext = np.empty(u.shape[:-1] + (2 * n + 2,))
    ext[..., 0] = ext[..., n + 1] = 0.0
    ext[..., 1:n + 1] = u
    np.negative(ext[..., n:0:-1], out=ext[..., n + 2:])
    return -0.5 * np.fft.rfft(ext)[..., 1:n + 1].imag


@dataclass(frozen=True)
class PencilEig:
    """Spectrum of a symmetric tridiagonal Toeplitz pencil K v = lambda M v.

    Mode j (ascending lambda) is the discrete sine sin(i theta_k), i = 1..n,
    theta_k = k pi/(n+1), scaled to unit M-norm; k runs 1..n in the order
    ``modes`` picks.  The transforms to and from mode coordinates are one
    DST-I each, O(n log n) per row, and never form the n x n eigenvectors.
    """

    values: np.ndarray                                  # ascending
    modes: slice = field(repr=False)                    # sine indices k, in mode order
    mass_values: np.ndarray = field(repr=False)         # M's eigenvalue of each mode

    @property
    def n(self) -> int:
        return self.values.size

    def _check(self, u) -> np.ndarray:
        u = np.asarray(u)
        if u.ndim not in (1, 2) or u.shape[-1] != self.n:
            raise ValueError(f"array has shape {u.shape}, expected (..., {self.n})")
        return u

    @functools.cached_property
    def _scale(self) -> np.ndarray:
        """Per mode, 1 / M-norm of its sine: that norm squared is mass_values (n+1)/2."""
        return np.sqrt(2.0 / ((self.n + 1) * self.mass_values))

    def to_modal(self, u: np.ndarray) -> np.ndarray:
        """V^T M u along the last axis: the mode coordinates of nodal values.

        M maps each sine to mass_values times itself, so this is the DST-I
        of u times mass_values and the mode's scale.
        """
        u = self._check(u)
        return _dst1(u)[..., self.modes] * (self.mass_values * self._scale)

    def from_modal(self, c: np.ndarray, stride: int = 1) -> np.ndarray:
        """V c along the last axis, only at the nodes stride, 2 stride, ...

        Node stride*i sees sine k = jC + m, C = (n+1)/stride, as sin(i m pi/C)
        for even j and -sin(i (C-m) pi/C) for odd j: the sines fold onto C - 1
        coarse ones, and one DST-I of that length gives the samples.
        """
        c = self._check(c)
        n = self.n
        if stride < 1 or (n + 1) % stride:
            raise ValueError(f"stride must divide n + 1 = {n + 1}, got {stride}")
        sines = np.zeros(c.shape[:-1] + (n + 1,), dtype=np.result_type(c, float))
        # modes is the identity or the reversal, so it is its own inverse
        np.multiply(c[..., self.modes], self._scale[self.modes], out=sines[..., 1:])
        blocks = sines.reshape(c.shape[:-1] + (stride, -1))   # row j: sines jC .. jC + C - 1
        return _dst1(blocks[..., ::2, 1:].sum(axis=-2) - blocks[..., 1::2, :0:-1].sum(axis=-2))


def pencil_eigs(K: SymTridiag, M: SymTridiag) -> PencilEig:
    """Closed-form spectrum of the pencil K v = lambda M v for Toeplitz K, M.

    A symmetric tridiagonal Toeplitz matrix (diagonal a, off-diagonal b) has
    the eigenvectors sin(i theta_k), theta_k = k pi/(n+1), with eigenvalues
    a + 2b cos theta_k.  Two such matrices share them, so with K = (a, b) and
    M = (c, d) the pencil has lambda_k = (a + 2b cos theta_k)/(c + 2d cos
    theta_k).  The uniform P1 assembly gives such pairs.  Anything that is
    not Toeplitz raises ValueError; an M that is not positive definite
    (c + 2d cos theta_k <= 0 for some k) raises SingularPivotError with that
    k - 1 as the index.
    """
    if K.n != M.n:
        raise ValueError("K and M dimensions differ")
    n = K.n
    cos = np.cos(np.pi / (n + 1) * np.arange(1, n + 1))

    def toeplitz(A: SymTridiag, name: str) -> tuple[float, float]:
        if np.any(A.diag != A.diag[0]) or np.any(A.off != A.off[:1]):
            raise ValueError(f"{name} is not Toeplitz: its diagonals are not constant")
        return float(A.diag[0]), (float(A.off[0]) if n > 1 else 0.0)

    (a, b), (c, d) = toeplitz(K, "K"), toeplitz(M, "M")
    mass = c + 2.0 * d * cos
    indefinite = np.flatnonzero(mass <= 0.0)
    if indefinite.size:
        k = int(indefinite[0])
        raise SingularPivotError(k, abs(float(mass[k])))
    lam = (a + 2.0 * b * cos) / mass
    # lambda is a Moebius function of cos theta_k, which falls with k: so it
    # rises with k when bc <= ad and falls when bc > ad
    modes = slice(None, None, -1 if b * c > a * d else 1)
    return PencilEig(values=lam[modes], modes=modes, mass_values=mass[modes])
