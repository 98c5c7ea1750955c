"""P1 finite elements on an interval with homogeneous Dirichlet conditions.

Provides the uniform mesh, assembly of the mass/stiffness/observation
matrices, the load vectors against the hat basis and the closed-form fields
that serve as reconstruction targets, and the P1 interpolation of nodal
values from one uniform mesh onto another.  Assembly and the load vectors use
4-point Gauss-Legendre per element, so they commit the same variational
crime (none, for the polynomial integrands); the load vectors take an
8-point rule on request, for the reference integrals of closed-form fields
in the error norms.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import SymTridiag

# 4-point Gauss-Legendre on [0, 1]: exact for polynomials of degree <= 7.
_GL4_X = 0.5 + 0.5 * np.array([
    -0.8611363115940526, -0.3399810435848563,
    0.3399810435848563, 0.8611363115940526,
])
_GL4_W = 0.5 * np.array([
    0.3478548451374538, 0.6521451548625461,
    0.6521451548625461, 0.3478548451374538,
])

# 8-point rule for reference integrals of closed-form fields (degree <= 15).
_GL8_X = 0.5 + 0.5 * np.array([
    -0.9602898564975363, -0.7966664774136267, -0.5255324099163290,
    -0.1834346424956498, 0.1834346424956498, 0.5255324099163290,
    0.7966664774136267, 0.9602898564975363,
])
_GL8_W = 0.5 * np.array([
    0.1012285362903763, 0.2223810344533745, 0.3137066458778873,
    0.3626837833783620, 0.3626837833783620, 0.3137066458778873,
    0.2223810344533745, 0.1012285362903763,
])


def _is_int(v) -> bool:
    """An integer, NumPy's too; not a bool."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_number(v) -> bool:
    """A finite real number, NumPy's too; not a bool, nor an int past the float range."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and (
        abs(v) <= sys.float_info.max if isinstance(v, int) else math.isfinite(v))


def _is_positive(v) -> bool:
    return _is_number(v) and v > 0


def _is_seed(v) -> bool:
    return _is_int(v) and v >= 0


EQUATION_RULE = "'schrodinger' or 'wave'"


def _is_equation(v) -> bool:
    return isinstance(v, str) and v in ("schrodinger", "wave")


def check_equation(equation):
    """Refuse an equation that is not Schrodinger or the wave."""
    if not _is_equation(equation):
        raise ValueError(f"equation must be {EQUATION_RULE}, got {equation!r}")


def _gauss_rule(order8: bool) -> tuple[np.ndarray, np.ndarray]:
    """Points and weights of the 4- or 8-point rule on the reference element."""
    return (_GL8_X, _GL8_W) if order8 else (_GL4_X, _GL4_W)


@dataclass(frozen=True)
class Mesh1D:
    """Uniform partition of (0, length) with n_cells elements."""

    n_cells: int
    length: float = 1.0

    def __post_init__(self):
        if not (_is_int(self.n_cells) and self.n_cells >= 2):
            raise ValueError(f"n_cells must be an integer >= 2, got {self.n_cells!r}")
        if not _is_positive(self.length):
            raise ValueError(f"length must be a positive number, got {self.length!r}")

    @property
    def h(self) -> float:
        return self.length / self.n_cells

    @property
    def n(self) -> int:
        """Number of interior nodes (the dimension of the element space)."""
        return self.n_cells - 1

    @property
    def interior_nodes(self) -> np.ndarray:
        return self.h * np.arange(1, self.n_cells)

    def quadrature_points(self, order8: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """All Gauss points and weights on the mesh, element by element."""
        xs, ws = _gauss_rule(order8)
        lefts = self.h * np.arange(self.n_cells)
        pts = (lefts[:, None] + self.h * xs[None, :]).ravel()
        wts = np.tile(self.h * ws, self.n_cells)
        return pts, wts


def _smoothstep(t: np.ndarray, m: int) -> np.ndarray:
    """Polynomial step on [0,1] with m vanishing derivatives at both ends."""
    t = np.clip(t, 0.0, 1.0)
    if m == 1:
        return t * t * (3.0 - 2.0 * t)
    if m == 2:
        return t ** 3 * (10.0 + t * (-15.0 + 6.0 * t))
    return t ** 4 * (35.0 + t * (-84.0 + t * (70.0 - 20.0 * t)))


@dataclass(frozen=True)
class ObservationProfile:
    """Multiplicative observation weight c(x).

    The default shape is a plateau at 1 on the middle half of [a, b] with
    smoothstep ramps of order m on the outer quarters, so c is C^m on the
    whole interval, vanishes (with m derivatives) outside [a, b] and sits in
    [0, 1] everywhere.  ``constant`` builds the degenerate c == value weights
    used by tests and whole-domain-observation experiments.
    """

    a: float = 0.2
    b: float = 0.8
    smoothness: int = 2
    const: float | None = None

    def __post_init__(self):
        # a constant weight does not read the window; const is the config's ``constant``
        for name in ("a", "b"):
            if not _is_number(getattr(self, name)):
                raise ValueError(f"{name} must be a number, got {getattr(self, name)!r}")
        if self.const is None and not self.a < self.b:
            raise ValueError(f"a must be less than b, got a = {self.a!r}, b = {self.b!r}")
        if not (_is_int(self.smoothness) and self.smoothness in (1, 2, 3)):
            raise ValueError(f"smoothness must be 1, 2 or 3, got {self.smoothness!r}")
        if not (self.const is None or _is_number(self.const) and 0 <= self.const <= 1):
            raise ValueError(f"constant must be None or a number in [0, 1], got {self.const!r}")

    @classmethod
    def constant(cls, value: float) -> "ObservationProfile":
        return cls(const=value)

    @property
    def ramp(self) -> float:
        return 0.25 * (self.b - self.a)

    def weight(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.const is not None:
            return np.full_like(x, self.const)
        r = self.ramp
        up = _smoothstep((x - self.a) / r, self.smoothness)
        down = _smoothstep((self.b - x) / r, self.smoothness)
        return np.where(x < self.a + 2 * r, up, down) * (
            (x > self.a) & (x < self.b)
        )


@dataclass(frozen=True)
class FemOperators:
    """Assembled interior-node matrices for one mesh/profile pair.

    mass and stiffness realize the L2 and H^1_0 inner products; damping_gram
    is the C*C Gram (weight c^2) that supplies the observer damping;
    output_gram (weight c) maps nodal output samples to C*-loads.
    """

    mesh: Mesh1D
    profile: ObservationProfile
    mass: SymTridiag
    stiffness: SymTridiag
    damping_gram: SymTridiag
    output_gram: SymTridiag

    @property
    def n(self) -> int:
        return self.mesh.n


def _weighted_mass(mesh: Mesh1D, w_at_q: np.ndarray) -> SymTridiag:
    """Assemble the matrix with entries int w(x) phi_i phi_j dx by quadrature."""
    h = mesh.h
    n = mesh.n
    # local basis values at the 4 Gauss points of the reference element
    tl = 1.0 - _GL4_X
    tr = _GL4_X
    wq = _GL4_W * h
    per = w_at_q.reshape(mesh.n_cells, _GL4_X.size)
    ll = per @ (wq * tl * tl)       # left-vertex self term, per element
    rr = per @ (wq * tr * tr)       # right-vertex self term
    lr = per @ (wq * tl * tr)       # coupling term
    # interior node i (1..n) is the right vertex of element i-1 and the left
    # vertex of element i; element i couples nodes i and i+1
    diag = rr[:n] + ll[1:]
    off = lr[1:n] if n > 1 else np.zeros(0)
    return SymTridiag(diag, off)


def check_window(profile: ObservationProfile, length: float):
    """Refuse a profile whose window [a, b] does not lie strictly inside (0, length)."""
    if not isinstance(profile, ObservationProfile):
        raise ValueError(f"profile must be an ObservationProfile, got {profile!r}")
    if profile.const is None and not 0.0 < profile.a:
        raise ValueError(f"a must be greater than 0, got {profile.a!r}")
    if profile.const is None and not profile.b < length:
        raise ValueError(f"b must be less than the length {length!r}, got {profile.b!r}")


def assemble(mesh: Mesh1D, profile: ObservationProfile) -> FemOperators:
    """Assemble mass, stiffness and the two observation Grams."""
    check_window(profile, mesh.length)
    h = mesh.h
    n = mesh.n
    mass = SymTridiag(np.full(n, 2.0 * h / 3.0), np.full(max(n - 1, 0), h / 6.0))
    stiffness = SymTridiag(np.full(n, 2.0 / h), np.full(max(n - 1, 0), -1.0 / h))
    pts, _ = mesh.quadrature_points()
    c = profile.weight(pts)
    damping = _weighted_mass(mesh, c * c)
    output = _weighted_mass(mesh, c)
    return FemOperators(mesh=mesh, profile=profile, mass=mass,
                        stiffness=stiffness, damping_gram=damping,
                        output_gram=output)


def load_vector(mesh: Mesh1D, f: Callable[[np.ndarray], np.ndarray],
                order8: bool = False) -> np.ndarray:
    """Entries int f phi_i dx, by the assembly's Gauss rule or the 8-point one."""
    xs, ws = _gauss_rule(order8)
    pts, _ = mesh.quadrature_points(order8)
    per = np.asarray(f(pts)).reshape(mesh.n_cells, xs.size) * (mesh.h * ws)
    # interior node i is the right vertex of element i-1 and the left of element i
    return per[:-1] @ xs + per[1:] @ (1.0 - xs)


def grad_load_vector(mesh: Mesh1D, df: Callable[[np.ndarray], np.ndarray],
                     order8: bool = False) -> np.ndarray:
    """Entries int f' phi_i' dx, given the derivative df of f."""
    _, ws = _gauss_rule(order8)
    pts, _ = mesh.quadrature_points(order8)
    # the hat slopes are +-1/h, so the h of dx cancels
    per = np.asarray(df(pts)).reshape(mesh.n_cells, ws.size) @ ws
    return per[:-1] - per[1:]


def prolong(values: np.ndarray, mesh: Mesh1D) -> np.ndarray:
    """The element function of interior nodal values on the uniform mesh of
    mesh's length with values.size + 1 cells, at mesh's interior nodes: P1
    interpolation with the Dirichlet zeros at both ends."""
    values = np.asarray(values)
    nodes = np.linspace(0.0, mesh.length, values.size + 2)
    return np.interp(mesh.interior_nodes, nodes, np.r_[0.0, values, 0.0])


@dataclass(frozen=True)
class FieldSpec:
    """Closed-form field on [0, length] with Dirichlet boundary values.

    kinds:
      sine -- finite sum sum_k coeff[k-1] sin(k pi x / L); lies in D(A0^s)
              for every s, so it is admissible as a reconstruction target.
      bump -- amp * (x/L)^3 (1 - x/L)^3, C^infinity, vanishing at the
              boundary together with its second derivative.
    """

    kind: str = "sine"
    coefficients: tuple = (1.0,)
    amplitude: float = 1.0
    length: float = 1.0

    def __post_init__(self):
        if self.kind not in ("sine", "bump"):
            raise ValueError(f"kind must be 'sine' or 'bump', got {self.kind!r}")
        # a str is a sequence too, and an empty sum a zero truth that every
        # reconstruction matches
        if not (isinstance(self.coefficients, (tuple, list)) and self.coefficients and all(
                _is_number(c) if isinstance(c, numbers.Real) else
                isinstance(c, numbers.Complex) and _is_number(c.real) and _is_number(c.imag)
                for c in self.coefficients)):
            raise ValueError("coefficients must be a non-empty sequence of finite real or "
                             f"complex numbers, got {self.coefficients!r}")
        object.__setattr__(self, "coefficients", tuple(self.coefficients))
        if not _is_number(self.amplitude):
            raise ValueError(f"amplitude must be a finite real number, got {self.amplitude!r}")
        if not _is_positive(self.length):
            raise ValueError(f"length must be a positive number, got {self.length!r}")

    @property
    def is_complex(self) -> bool:
        # a complex 1+0j too: the real sum cannot take it in place
        return self.kind == "sine" and not all(isinstance(c, numbers.Real)
                                               for c in self.coefficients)

    def value(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        L = self.length
        if self.kind == "sine":
            dtype = complex if self.is_complex else float
            out = np.zeros_like(x, dtype=dtype)
            for k, ck in enumerate(self.coefficients, start=1):
                out += ck * np.sin(k * math.pi * x / L)
            return out
        s = x / L
        return self.amplitude * (s * (1.0 - s)) ** 3

    def derivative(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        L = self.length
        if self.kind == "sine":
            dtype = complex if self.is_complex else float
            out = np.zeros_like(x, dtype=dtype)
            for k, ck in enumerate(self.coefficients, start=1):
                out += ck * (k * math.pi / L) * np.cos(k * math.pi * x / L)
            return out
        s = x / L
        return self.amplitude * 3.0 * (s * (1.0 - s)) ** 2 * (1.0 - 2.0 * s) / L
