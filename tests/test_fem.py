import math

import numpy as np
import pytest

from bafobs.fem import (FieldSpec, Mesh1D, ObservationProfile, assemble, load_vector,
                        prolong)
from bafobs.linalg import pencil_eigs

from oracles import (dense, fine_l2_distance, kink_field, norm_alpha, pencil_vectors,
                     project_pi_h)


@pytest.fixture(scope="module")
def default_ops():
    mesh = Mesh1D(n_cells=16)
    return mesh, assemble(mesh, ObservationProfile())


def test_mesh_validation():
    with pytest.raises(ValueError):
        Mesh1D(n_cells=1)
    with pytest.raises(ValueError):
        Mesh1D(n_cells=8, length=-1.0)
    mesh = Mesh1D(n_cells=8, length=2.0)
    assert mesh.h == 0.25
    assert mesh.n == 7
    assert np.allclose(mesh.interior_nodes, 0.25 * np.arange(1, 8))


@pytest.mark.parametrize("n_cells", [2.5, 8.0, True])
def test_mesh_refuses_a_cell_count_that_is_not_an_integer(n_cells):
    # Mesh1D(2.5) used to build, with 1.5 interior nodes
    with pytest.raises(ValueError, match=f"n_cells must be an integer >= 2, got {n_cells!r}"):
        Mesh1D(n_cells=n_cells)
    assert Mesh1D(n_cells=np.int64(8)).n == 7


def test_mesh_refuses_an_infinite_length():
    # it built with h = inf, and the engine's factorization then failed
    with pytest.raises(ValueError, match="length must be a positive number, got inf"):
        Mesh1D(n_cells=8, length=math.inf)


@pytest.mark.parametrize("kwargs, match", [
    # an empty sum is a zero truth, which every reconstruction matched with error_x 0
    pytest.param(dict(coefficients=()), r"coefficients must be .*, got \(\)", id="empty"),
    # a str is a sequence, whose sum failed in every sweep row
    pytest.param(dict(coefficients="ab"), "coefficients must be .*, got 'ab'", id="str"),
    pytest.param(dict(coefficients=(math.inf,)), r"coefficients must be .*, got \(inf,\)",
                 id="inf"),
    pytest.param(dict(kind="bump", amplitude=math.nan),
                 "amplitude must be a finite real number, got nan", id="nan-amplitude"),
])
def test_field_refuses_what_it_cannot_sum(kwargs, match):
    with pytest.raises(ValueError, match=match):
        FieldSpec(**kwargs)


def test_field_takes_numpy_and_complex_numbers():
    field = FieldSpec(coefficients=(np.float32(1.0), np.complex64(0.5j)))
    assert field.is_complex
    assert not FieldSpec(coefficients=[np.float64(1.0), 2]).is_complex
    with pytest.raises(ValueError, match=r"coefficients must be .*, got \(True,\)"):
        FieldSpec(coefficients=(True,))
    with pytest.raises(ValueError, match="length must be a positive number, got 0.0"):
        FieldSpec(length=0.0)


def test_field_keeps_its_coefficients_as_a_tuple():
    # a config's JSON list builds a field that hashes like one built from a tuple
    field = FieldSpec(coefficients=[1.0, 0.5j])
    assert field.coefficients == (1.0, 0.5j)
    assert hash(field) == hash(FieldSpec(coefficients=(1.0, 0.5j)))


def test_mass_and_stiffness_rows_analytic(default_ops):
    mesh, ops = default_ops
    h = mesh.h
    assert np.allclose(ops.mass.diag, 2 * h / 3, rtol=1e-14)
    assert np.allclose(ops.mass.off, h / 6, rtol=1e-14)
    assert np.allclose(ops.stiffness.diag, 2 / h, rtol=1e-14)
    assert np.allclose(ops.stiffness.off, -1 / h, rtol=1e-14)


def test_degenerate_weights_give_zero_and_mass():
    mesh = Mesh1D(n_cells=12)
    ops0 = assemble(mesh, ObservationProfile.constant(0.0))
    assert np.all(ops0.damping_gram.diag == 0) and np.all(ops0.damping_gram.off == 0)
    ops1 = assemble(mesh, ObservationProfile.constant(1.0))
    assert np.max(np.abs(ops1.damping_gram.diag - ops1.mass.diag)) < 1e-12
    assert np.max(np.abs(ops1.damping_gram.off - ops1.mass.off)) < 1e-12
    assert np.max(np.abs(ops1.output_gram.diag - ops1.mass.diag)) < 1e-12


def test_observation_gram_positive_semidefinite(default_ops):
    mesh, ops = default_ops
    w = np.linalg.eigvalsh(dense(ops.damping_gram))
    assert np.all(w > -1e-14)


def test_profile_shape_and_order():
    prof = ObservationProfile()
    x = np.linspace(0, 1, 2001)
    c = prof.weight(x)
    assert np.all((0.0 <= c) & (c <= 1.0))
    assert np.all(c[(x <= 0.2) | (x >= 0.8)] == 0.0)
    assert np.allclose(c[(x >= 0.35) & (x <= 0.65)], 1.0)
    # order-2 vanishing at the window edges: quintic ramp grows like (d/r)^3
    r = prof.ramp
    for delta in (1e-2, 1e-3):
        assert prof.weight(np.array([0.2 + delta]))[0] <= 11 * (delta / r) ** 3
        assert prof.weight(np.array([0.8 - delta]))[0] <= 11 * (delta / r) ** 3


def test_profile_smoothness_orders():
    x = np.array([0.21, 0.27])
    for m in (1, 2, 3):
        prof = ObservationProfile(smoothness=m)
        c = prof.weight(x)
        assert np.all((0 < c) & (c < 1))
    with pytest.raises(ValueError):
        ObservationProfile(smoothness=4)
    with pytest.raises(ValueError):
        ObservationProfile(a=0.5, b=0.4)


def test_profile_window_touching_boundary_rejected():
    mesh = Mesh1D(n_cells=8)
    with pytest.raises(ValueError) as err:
        assemble(mesh, ObservationProfile(a=0.0, b=0.5))
    assert str(err.value) == "a must be greater than 0, got 0.0"
    with pytest.raises(ValueError, match="^b must be less than the length 1.0, got 1.0$"):
        assemble(mesh, ObservationProfile(a=0.5, b=1.0))


@pytest.mark.parametrize("kwargs, match", [
    # a str a used to raise a TypeError from the comparison with b
    pytest.param(dict(a="x"), "a must be a number, got 'x'", id="a-str"),
    pytest.param(dict(b=math.nan), "b must be a number, got nan", id="b-nan"),
    pytest.param(dict(a=0.9), "a must be less than b, got a = 0.9, b = 0.8", id="a-past-b"),
    # a bool is no smoothness order, nor a constant weight: both used to build
    pytest.param(dict(smoothness=True), "smoothness must be 1, 2 or 3, got True",
                 id="smoothness-True"),
    pytest.param(dict(smoothness=2.0), "smoothness must be 1, 2 or 3, got 2.0",
                 id="smoothness-float"),
    pytest.param(dict(const=True), r"constant must be None or a number in \[0, 1\], got True",
                 id="const-True"),
    pytest.param(dict(const=5), r"constant must be None or a number in \[0, 1\], got 5",
                 id="const-5"),
    pytest.param(dict(const="x"), r"constant must be None or a number in \[0, 1\], got 'x'",
                 id="const-str"),
    # a constant weight does not read the window, but its fields are still numbers
    pytest.param(dict(a="x", const=0.5), "a must be a number, got 'x'", id="const-a-str"),
])
def test_profile_refuses_what_it_cannot_weigh(kwargs, match):
    with pytest.raises(ValueError, match=match):
        ObservationProfile(**kwargs)


def test_profile_takes_numpy_numbers_and_a_constant_with_any_window():
    prof = ObservationProfile(a=np.float32(0.25), b=np.int64(1), smoothness=np.int8(3))
    assert prof.weight(np.array([0.5]))[0] == 1.0
    assert ObservationProfile(a=0.9, b=0.1, const=np.float64(0.5)).weight(np.zeros(2))[0] == 0.5


def test_observation_gram_monotone_in_window():
    mesh = Mesh1D(n_cells=32)
    small = assemble(mesh, ObservationProfile(a=0.3, b=0.7)).damping_gram
    big = assemble(mesh, ObservationProfile(a=0.2, b=0.8)).damping_gram
    rng = np.random.default_rng(0)
    for _ in range(20):
        u = rng.standard_normal(mesh.n)
        assert u @ big.matvec(u) >= u @ small.matvec(u) - 1e-14


def test_prolong_interpolates_the_element_function():
    # the same mesh returns the values
    coarse = Mesh1D(n_cells=8, length=2.0)
    rng = np.random.default_rng(4)
    values = rng.standard_normal(coarse.n) + 1j * rng.standard_normal(coarse.n)
    assert np.allclose(prolong(values, coarse), values, rtol=0, atol=1e-15)
    # a complex hat of the coarse mesh, on a mesh with twice the cells: its
    # peak, half of it at the two midpoints next to it, zero elsewhere
    hat = np.zeros(coarse.n, complex)
    hat[2] = 1 - 2j
    expected = np.zeros(15, complex)
    expected[[4, 5, 6]] = (0.5 - 1j, 1 - 2j, 0.5 - 1j)
    assert np.allclose(prolong(hat, Mesh1D(n_cells=16, length=2.0)), expected,
                       rtol=0, atol=1e-15)
    # f(x) = x on the interior nodes of 4 cells, with the zero at x = 1: exact
    # at the finer nodes but the last, on the interval that falls to 0
    fine = Mesh1D(n_cells=8)
    got = prolong(Mesh1D(n_cells=4).interior_nodes, fine)
    assert np.allclose(got[:-1], fine.interior_nodes[:-1], rtol=0, atol=1e-15)
    assert got[-1] == pytest.approx(0.375)
    # onto a coarser mesh it samples: every other node
    assert np.allclose(prolong(values, Mesh1D(n_cells=4, length=2.0)), values[1::2],
                       rtol=0, atol=1e-15)


def test_load_vector_examples(default_ops):
    mesh, ops = default_ops
    assert np.all(load_vector(mesh, lambda x: np.zeros_like(x)) == 0.0)
    ones = load_vector(mesh, lambda x: np.ones_like(x))
    assert np.allclose(ones, mesh.h, rtol=1e-14)
    # f = hat_j reproduces the j-th column of the mass matrix
    j = 5
    x_j = mesh.interior_nodes[j]

    def hat(x):
        return np.clip(1.0 - np.abs(x - x_j) / mesh.h, 0.0, None)

    col = np.zeros(mesh.n)
    col[j] = ops.mass.diag[j]
    col[j - 1] = ops.mass.off[j - 1]
    col[j + 1] = ops.mass.off[j]
    assert np.allclose(load_vector(mesh, hat), col, atol=1e-15)


class _PiecewiseLinear:
    """Duck-typed field that is exactly representable on the mesh."""

    def __init__(self, mesh, coeffs):
        self.mesh = mesh
        self.full = np.concatenate([[0.0], coeffs, [0.0]])

    def value(self, x):
        return np.interp(x, np.linspace(0, self.mesh.length, self.mesh.n_cells + 1),
                         self.full)

    def derivative(self, x):
        h = self.mesh.h
        idx = np.clip((np.asarray(x) / h).astype(int), 0, self.mesh.n_cells - 1)
        return (self.full[idx + 1] - self.full[idx]) / h


def test_projection_idempotent_on_element_functions(default_ops):
    mesh, ops = default_ops
    rng = np.random.default_rng(3)
    coeffs = rng.standard_normal(mesh.n)
    u = project_pi_h(mesh, ops, _PiecewiseLinear(mesh, coeffs))
    assert np.allclose(u, coeffs, atol=1e-12)


def test_projection_linearity(default_ops):
    mesh, ops = default_ops
    f = FieldSpec(kind="sine", coefficients=(1.0,))
    g = FieldSpec(kind="bump", amplitude=5.0)
    combo = project_pi_h(mesh, ops, FieldSpec(kind="sine", coefficients=(2.0,)))
    assert np.allclose(combo, 2.0 * project_pi_h(mesh, ops, f), atol=1e-12)
    # additivity through a two-term sine sum
    f2 = FieldSpec(kind="sine", coefficients=(0.0, 1.0))
    both = FieldSpec(kind="sine", coefficients=(1.0, 1.0))
    assert np.allclose(project_pi_h(mesh, ops, both),
                       project_pi_h(mesh, ops, f) + project_pi_h(mesh, ops, f2),
                       atol=1e-12)
    del g, combo


def _projection_errors(field, levels):
    errs = []
    for n in levels:
        mesh = Mesh1D(n_cells=n)
        ops = assemble(mesh, ObservationProfile())
        errs.append(fine_l2_distance(mesh, field, project_pi_h(mesh, ops, field)))
    return errs


def test_projection_decay_smooth_fields():
    # The H^1-projection bound guarantees at least first-order decay; smooth
    # fields superconverge to second order in 1-D (projection == interpolant),
    # so halving the mesh divides the error by ~4.
    for field in (FieldSpec(kind="sine", coefficients=(1.0, 0.5)),
                  FieldSpec(kind="bump", amplitude=30.0)):
        errs = _projection_errors(field, (16, 32, 64, 128))
        for a, b in zip(errs, errs[1:]):
            assert 3.5 <= a / b <= 4.5
        # stays under the first-order envelope of the projection estimate
        half = norm_alpha(assemble(Mesh1D(16), ObservationProfile()),
                          project_pi_h(Mesh1D(16),
                                       assemble(Mesh1D(16), ObservationProfile()),
                                       field), 0.5)
        assert errs[0] <= half * (1.0 / 16)


def test_projection_decay_rough_field_near_first_order():
    errs = _projection_errors(kink_field(), (16, 256))
    overall = errs[1] / errs[0]
    assert overall <= (16 / 256) ** 0.9        # at least ~first order overall
    assert overall >= (16 / 256) ** 2.2        # and visibly slower than smooth


def test_norm_alpha_zero_vector(default_ops):
    mesh, ops = default_ops
    z = np.zeros(mesh.n)
    for alpha in (0.0, 0.5, 1.0, 1.5, 2.0):
        assert norm_alpha(ops, z, alpha) == 0.0


def test_norm_alpha_on_pencil_modes(default_ops):
    mesh, ops = default_ops
    pe = pencil_eigs(ops.stiffness, ops.mass)
    V = pencil_vectors(pe)
    for j in (0, 3, mesh.n - 1):
        v = V[:, j]
        for alpha in (0.0, 0.5, 1.0, 1.5, 2.0):
            assert norm_alpha(ops, v, alpha) == pytest.approx(
                pe.values[j] ** alpha, rel=1e-9)


def test_norm_alpha_ordering_and_interpolation(default_ops):
    mesh, ops = default_ops
    pe = pencil_eigs(ops.stiffness, ops.mass)
    lam_min = pe.values[0]
    rng = np.random.default_rng(11)
    for _ in range(25):
        u = rng.standard_normal(mesh.n)
        n0 = norm_alpha(ops, u, 0.0)
        nh = norm_alpha(ops, u, 0.5)
        n1 = norm_alpha(ops, u, 1.0)
        assert n0 <= nh / np.sqrt(lam_min) * (1 + 1e-12)
        assert nh ** 2 <= n0 * n1 * (1 + 1e-8)


def test_norm_alpha_rejects_unsupported_order(default_ops):
    mesh, ops = default_ops
    with pytest.raises(ValueError, match="unsupported alpha"):
        norm_alpha(ops, np.zeros(mesh.n), 0.25)
