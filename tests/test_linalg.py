import ctypes

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bafobs import linalg
from bafobs.fem import Mesh1D, ObservationProfile, assemble
from bafobs.linalg import (ShiftedSystem, SingularPivotError, SymTridiag,
                           pencil_eigs)
from bafobs.observers import BackAndForth
from oracles import dense, dense_pencil_eigs, pencil_vectors


def identity(n: int) -> SymTridiag:
    return SymTridiag(np.ones(n), np.zeros(max(n - 1, 0)))


def require_compiled_kernel():
    if linalg._lapack() is None:
        pytest.skip("this numpy bundles no OpenBLAS with zgttrs/dpttrs")


@pytest.fixture(params=["openblas-gttrs", "thomas"])
def kernel(request, monkeypatch):
    """Run a test on each tridiagonal kernel; "thomas" forces the fallback."""
    if request.param == "thomas":
        monkeypatch.setattr(linalg, "_lapack", lambda: None)
    else:
        require_compiled_kernel()
    assert linalg.solver_kernel() == request.param
    return request.param


def p1_pair(n_cells: int, h: float | None = None):
    h = h if h is not None else 1.0 / n_cells
    n = n_cells - 1
    M = SymTridiag(np.full(n, 2 * h / 3), np.full(n - 1, h / 6))
    K = SymTridiag(np.full(n, 2 / h), np.full(n - 1, -1 / h))
    return M, K


def test_identity_solve_returns_rhs():
    sys = ShiftedSystem(identity(4))
    e1 = np.array([1.0, 0.0, 0.0, 0.0])
    assert np.array_equal(sys.solve(e1), e1)


def test_two_by_two_against_cramer():
    M = SymTridiag(np.array([3.0, 2.0]), np.array([1.0]))
    sys = ShiftedSystem(M)
    rhs = np.array([5.0, -1.0])
    det = 3.0 * 2.0 - 1.0 * 1.0
    expected = np.array([2.0 * 5.0 - 1.0 * (-1.0), 3.0 * (-1.0) - 1.0 * 5.0]) / det
    assert np.allclose(sys.solve(rhs), expected, rtol=1e-14)


def test_random_shifted_solve_residual():
    rng = np.random.default_rng(42)
    M, K = p1_pair(33)
    B = SymTridiag(np.abs(rng.standard_normal(32)) + 1.0,
                   0.1 * rng.standard_normal(31))
    sys = ShiftedSystem(M, K, B, alpha=1.0, beta=-0.01j, gamma=0.01)
    rhs = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    x = sys.solve(rhs)
    A = dense(M) - 0.01j * dense(K) + 0.01 * dense(B)
    resid = np.max(np.abs(A @ x - rhs))
    assert resid <= 1e-12 * (np.max(np.abs(rhs)) + np.max(np.abs(x)))


@pytest.mark.parametrize("seed", range(8))
def test_solve_then_matvec_roundtrip_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 200))
    diag = np.abs(rng.standard_normal(n)) + 2.0
    off = 0.5 * rng.standard_normal(n - 1)
    A = SymTridiag(diag, off)
    rhs = rng.standard_normal(n)
    x = ShiftedSystem(A).solve(rhs)
    assert np.max(np.abs(dense(A) @ x - rhs)) <= 1e-12 * (
        np.max(np.abs(rhs)) + np.max(np.abs(x)))


def test_conjugation_symmetry_of_shifted_solves(monkeypatch):
    # the backward Schrodinger pass is the forward one under conjugation, so
    # conjugate systems must solve conjugate right-hand sides exactly, on the
    # compiled kernel (where there is one) and on the fallback
    rng = np.random.default_rng(7)
    M, K = p1_pair(17)
    dt = 0.02
    rhs = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    for _ in range(2):
        plus = ShiftedSystem(M, K, alpha=1.0, beta=1j * dt)
        minus = ShiftedSystem(M, K, alpha=1.0, beta=-1j * dt)
        assert np.array_equal(plus.solve(np.conj(rhs)), np.conj(minus.solve(rhs)))
        monkeypatch.setattr(linalg, "_lapack", lambda: None)


def test_bound_solve_overwrites_its_buffer(kernel):
    rng = np.random.default_rng(3)
    M, K = p1_pair(9)
    for beta in (0.1, 0.1j):
        sys = ShiftedSystem(M, K, beta=beta)
        buf = np.empty(8, dtype=sys.dtype)
        bound = sys.bind(buf)
        for _ in range(2):          # one binding serves every refill of buf
            rhs = rng.standard_normal(8).astype(sys.dtype)
            buf[:] = rhs
            assert sys.solve(bound) is buf
            assert np.array_equal(buf, sys.solve(rhs))
    real, complex_ = ShiftedSystem(M, K, beta=0.1), ShiftedSystem(M, K, beta=0.1j)
    twin = ShiftedSystem(M, K, beta=0.1)
    with pytest.raises(ValueError, match="another system"):
        twin.solve(real.bind(np.zeros(8)))
    frozen = np.zeros(8)
    frozen.flags.writeable = False
    for system, buf in ((real, np.zeros(8, complex)), (complex_, np.zeros(8)),
                        (real, np.zeros(9)), (real, np.zeros(16)[::2]), (real, frozen)):
        with pytest.raises(ValueError, match="C-contiguous"):
            system.bind(buf)


@pytest.mark.parametrize("beta", [0.1, 0.1j], ids=["dpttrs", "zgttrs"])
def test_lapack_arguments_are_checked_before_any_solve(monkeypatch, beta):
    # every argument passes through its declared argtype once: the system's
    # own at the factorization, the buffer's at bind, so one the declared
    # type refuses, or a wrong count, raises there and not at a solve
    require_compiled_kernel()
    M, K = p1_pair(9)
    system = ShiftedSystem(M, K, beta=beta)
    buf = np.zeros(8, system.dtype)
    bound = system.bind(buf)
    declared, _ = linalg._lapack()["dpttrs" if system.is_real else "zgttrs"]
    kinds = list(declared.argtypes)
    b_slot = len(system._head)
    monkeypatch.setattr(declared, "argtypes",
                        kinds[:b_slot] + [ctypes.c_char_p] + kinds[b_slot + 1:])
    other = ShiftedSystem(M, K, beta=beta)
    with pytest.raises(TypeError, match="wrong type"):
        other.bind(np.zeros(8, system.dtype))
    monkeypatch.setattr(declared, "argtypes", [kinds[0], ctypes.c_char_p] + kinds[2:])
    with pytest.raises(TypeError, match="wrong type"):
        ShiftedSystem(M, K, beta=beta)
    monkeypatch.setattr(declared, "argtypes", kinds[:-1])
    with pytest.raises(TypeError, match="declared argument types for"):
        ShiftedSystem(M, K, beta=beta)
    monkeypatch.undo()
    # a buffer bound before solves with the arguments converted then
    rhs = np.arange(1.0, 9.0).astype(system.dtype)
    buf[:] = rhs
    assert np.array_equal(system.solve(bound), system.solve(rhs))


@pytest.mark.parametrize("n", [1, 2, 9])
def test_matvec_is_the_textbook_product_bit_for_bit(n, monkeypatch):
    # row i summed as LAPACK's lagtm sums it, lower neighbour first:
    # (a_{i,i-1} x_{i-1} + a_ii x_i) + a_{i,i+1} x_{i+1}; matvec and a bound
    # product, on the compiled kernel (where there is one) and on the fallback
    rng = np.random.default_rng(n)
    A = SymTridiag(rng.standard_normal(n), rng.standard_normal(n - 1))
    real = rng.standard_normal((3, n))
    for lapack in (linalg._lapack, lambda: None):
        monkeypatch.setattr(linalg, "_lapack", lapack)
        for u in (real[0], real, real + 1j * rng.standard_normal((3, n))):
            expected = A.diag * u
            expected[..., 1:] = A.off * u[..., :-1] + expected[..., 1:]
            expected[..., :-1] += A.off * u[..., 1:]
            got = A.matvec(u)
            assert got.dtype == expected.dtype and np.array_equal(got, expected)
            bound = np.empty_like(expected)
            A.bind(u, bound, np.empty(u.shape[:-1] + (n - 1,), u.dtype))()
            assert np.array_equal(bound, expected)
        # a bound product reads x afresh on every call
        x, out, tmp = np.empty(n, complex), np.empty(n, complex), np.empty(n - 1, complex)
        product = A.bind(x, out, tmp)
        for u in real[:2] + 1j * real[1:]:
            x[:] = u
            product()
            assert np.array_equal(out, A.matvec(u))


def test_contiguous_bind_takes_the_lapack_product():
    # not a silent fallback: the product is one bare ?lagtm call
    require_compiled_kernel()
    lapack = linalg._lapack()
    A = SymTridiag(np.arange(1.0, 6.0), np.ones(4))
    for dtype, name in ((float, "dlagtm"), (complex, "zlagtm")):
        for shape in ((5,), (3, 5)):
            x, out = np.zeros(shape, dtype), np.zeros(shape, dtype)
            product = A.bind(x, out, np.empty(shape[:-1] + (4,), dtype))
            assert getattr(product, "func", None) is lapack[name][1]
    # a strided view or buffers of two dtypes get the numpy product, with
    # the same bits
    tmp = np.empty(4)
    for x, out in ((np.arange(10.0)[::2], np.empty(5)), (np.arange(5.0), np.empty(10)[::2]),
                   (np.arange(5.0), np.empty(5, complex))):
        product = A.bind(x, out, tmp.astype(out.dtype))
        assert not hasattr(product, "func")
        product()
        assert np.array_equal(out, A.matvec(x).astype(out.dtype))
    with pytest.raises(ValueError, match="shapes"):
        A.bind(np.zeros(5), np.zeros(6), np.zeros(5))


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 300), rows=st.sampled_from([None, 1, 3]),
       is_complex=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
@example(n=1, rows=None, is_complex=False, seed=0)
@example(n=1, rows=3, is_complex=True, seed=0)
def test_lapack_product_is_the_numpy_product_bit_for_bit(n, rows, is_complex, seed):
    # 1-d and 2-d blocks, real and complex, n = 1 included (an empty
    # off-diagonal still passes a valid pointer); out starts as nan, which
    # beta = 0 overwrites
    require_compiled_kernel()
    rng = np.random.default_rng(seed)

    def spread(*shape):
        return rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)

    A = SymTridiag(spread(n), spread(n - 1))
    shape = (n,) if rows is None else (rows, n)
    x = spread(*shape) + (1j * spread(*shape) if is_complex else 0.0)
    x.reshape(-1)[rng.integers(x.size)] = 0.0
    out = np.full(shape, np.nan, x.dtype)
    product = A.bind(x, out, np.empty(shape[:-1] + (n - 1,), x.dtype))
    assert hasattr(product, "func")
    product()
    assert np.array_equal(out, A.matvec(x))
    x[...] = spread(*shape)                 # read afresh on every call
    product()
    assert np.array_equal(out, A.matvec(x))


@pytest.mark.parametrize("name, dtype", [("dlagtm", float), ("zlagtm", complex)])
def test_lapack_product_arguments_are_checked_at_bind(monkeypatch, name, dtype):
    # as for the solves: every argument passes through its declared argtype
    # at bind, so one the declared type refuses, or a wrong count, raises
    # there and not at a product
    require_compiled_kernel()
    A = SymTridiag(np.arange(1.0, 9.0), np.ones(7))
    x, out, tmp = np.zeros(8, dtype), np.zeros(8, dtype), np.zeros(7, dtype)
    bound = A.bind(x, out, tmp)
    declared, _ = linalg._lapack()[name]
    kinds = list(declared.argtypes)
    x_slot = 7                                  # TRANS, N, NRHS, ALPHA, DL, D, DU, X
    monkeypatch.setattr(declared, "argtypes",
                        kinds[:x_slot] + [ctypes.c_char_p] + kinds[x_slot + 1:])
    with pytest.raises(TypeError, match="wrong type"):
        A.bind(x, out, tmp)
    monkeypatch.setattr(declared, "argtypes", kinds[:-1])
    with pytest.raises(TypeError, match="declared argument types for"):
        A.bind(x, out, tmp)
    monkeypatch.undo()
    # a product bound before runs with the arguments converted then
    x[:] = np.arange(1.0, 9.0)
    bound()
    assert np.array_equal(out, A.matvec(x))


def test_dimension_mismatch_rejected():
    sys = ShiftedSystem(identity(3))
    with pytest.raises(ValueError, match="shape"):
        sys.solve(np.ones(4))
    M = identity(3)
    K = identity(4)
    with pytest.raises(ValueError, match="dimension"):
        ShiftedSystem(M, K, beta=1.0)


def test_singular_pivot_reported_with_index(kernel):
    # both kernels solve with the factors of one elimination without row
    # swaps, so they meet the same pivots
    cases = [
        (np.array([1.0, 1.0]), np.array([1.0]), 1),                   # U(1, 1) = 0
        (np.array([1.0, 2.0, 1.0]), np.array([1.0, 1.0]), 2),         # U(2, 2) = 0
        (np.array([1.0, 1.0 + 1e-15]), np.array([1.0]), 1),           # under 1e-14 * scale
        (np.array([1e-15, 1.0]), np.array([1e-16]), 0),
    ]
    for diag, off, index in cases:
        with pytest.raises(SingularPivotError) as err:
            ShiftedSystem(SymTridiag(diag, off))
        assert err.value.index == index
        assert err.value.magnitude <= 1e-14 * np.max(np.abs(diag))


def test_real_system_needing_a_row_swap_raises_on_both_kernels(kernel):
    # partial pivoting would swap the two rows; the real systems are factored
    # as L D L^T without pivoting, so the first pivot 1e-20 is reported
    with pytest.raises(SingularPivotError) as err:
        ShiftedSystem(SymTridiag(np.array([1e-20, 1.0]), np.array([1.0])))
    assert err.value.index == 0 and err.value.magnitude == 1e-20


def test_complex_system_needing_a_row_swap_raises_on_both_kernels(kernel):
    # complex systems are factored by the same elimination as real ones; a
    # partially pivoted LU (LAPACK's gttrf) would swap the rows and succeed
    M = SymTridiag(np.array([1e-20, 1.0]), np.array([1.0]))
    with pytest.raises(SingularPivotError) as err:
        ShiftedSystem(M, identity(2), beta=1e-30j)
    assert err.value.index == 0 and err.value.magnitude <= 1e-19


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1),
       complex_shift=st.booleans(), complex_rhs=st.booleans())
def test_compiled_kernel_matches_thomas(n, seed, complex_shift, complex_rhs):
    require_compiled_kernel()
    rng = np.random.default_rng(seed)
    off = rng.uniform(-1.0, 1.0, n - 1)
    row = np.abs(np.r_[off, 0.0]) + np.abs(np.r_[0.0, off])
    # strictly diagonally dominant with a margin of at least 0.5 per row,
    # which the shift (at most 0.3 per row) cannot use up
    diag = rng.choice([-1.0, 1.0], n) * (row + rng.uniform(0.5, 2.0, n))
    K = SymTridiag(rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n - 1))
    beta = 0.1j if complex_shift else 0.1
    rhs = rng.standard_normal(n)
    if complex_rhs:
        rhs = rhs + 1j * rng.standard_normal(n)
    fast = ShiftedSystem(SymTridiag(diag, off), K, beta=beta).solve(rhs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_lapack", lambda: None)
        ref = ShiftedSystem(SymTridiag(diag, off), K, beta=beta).solve(rhs)
    assert fast.dtype == ref.dtype
    assert np.max(np.abs(fast - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_thomas_fallback_round_trips_match_compiled_kernel(monkeypatch):
    require_compiled_kernel()
    mesh = Mesh1D(n_cells=24)
    ops = assemble(mesh, ObservationProfile())

    def round_trips():
        schrod = BackAndForth("schrodinger", ops, mesh.h, 24)
        wave = BackAndForth("wave", ops, mesh.h, 48)
        return (schrod.apply_L(schrod.random_state(1)),
                wave.apply_L(wave.random_state(2)))

    fast_schrod, fast_wave = round_trips()
    monkeypatch.setattr(linalg, "_lapack", lambda: None)
    assert linalg.solver_kernel() == "thomas"
    ref_schrod, ref_wave = round_trips()
    for fast, ref in ((fast_schrod, ref_schrod), (fast_wave.pos, ref_wave.pos),
                      (fast_wave.vel, ref_wave.vel)):
        assert np.max(np.abs(fast - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_pencil_identical_matrices_gives_unit_spectrum():
    M, _ = p1_pair(9)
    pe = pencil_eigs(M, M)
    assert np.allclose(pe.values, 1.0, atol=1e-12)


def test_pencil_against_closed_form_uniform_p1():
    # lambda_k = 6 (1 - cos(k pi h)) / (h^2 (2 + cos(k pi h))), h = 1/4
    M, K = p1_pair(4)
    pe = pencil_eigs(K, M)
    h = 0.25
    k = np.arange(1, 4)
    closed = 6 * (1 - np.cos(k * np.pi * h)) / (h ** 2 * (2 + np.cos(k * np.pi * h)))
    assert np.allclose(pe.values, closed, rtol=1e-12)
    assert abs(pe.values[0] - 10.3866) < 5e-4


def test_pencil_vectors_mass_orthonormal_and_residual():
    M, K = p1_pair(40)
    pe = pencil_eigs(K, M)
    V = pencil_vectors(pe)
    gram = V.T @ dense(M) @ V
    assert np.max(np.abs(gram - np.eye(M.n))) < 1e-10
    for j in (0, 7, M.n - 1):
        r = K.matvec(V[:, j]) - pe.values[j] * M.matvec(V[:, j])
        assert np.max(np.abs(r)) <= 1e-8 * pe.values[j]
    # a 2-d input is multiplied row by row, bit for bit as the 1-d product
    rows = K.matvec(V.T)
    assert all(np.array_equal(rows[j], K.matvec(V[:, j])) for j in range(M.n))
    with pytest.raises(ValueError, match="shape"):
        K.matvec(V[:, :3])


def test_pencil_spectrum_positive_ascending():
    M, K = p1_pair(25)
    pe = pencil_eigs(K, M)
    assert np.all(pe.values > 0)
    assert np.all(np.diff(pe.values) > 0)


def test_pencil_rejects_indefinite_mass():
    bad = SymTridiag(np.array([1.0, -1.0, 1.0]), np.zeros(2))
    _, K = p1_pair(4)
    with pytest.raises(SingularPivotError):
        dense_pencil_eigs(K, bad)


def test_pencil_rejects_oracle_scale_overflow():
    n = 5000
    M = identity(n)
    with pytest.raises(ValueError, match="oracle scale"):
        dense_pencil_eigs(M, M)


def toeplitz(n: int, diag: float, off: float) -> SymTridiag:
    return SymTridiag(np.full(n, diag), np.full(n - 1, off))


@st.composite
def toeplitz_pencils(draw):
    """Random SPD Toeplitz pairs whose spectrum is well separated, and P1 pairs."""
    n = draw(st.integers(1, 200))
    if draw(st.booleans()):
        M, K = p1_pair(n + 1, h=draw(st.floats(1e-3, 10.0)))
        return K, M
    unit = st.floats(0.5, 2.0)
    c, a = draw(unit), draw(unit)
    d = c * draw(st.floats(-0.45, 0.45))   # |d| < c/2: M positive definite
    b = a * draw(st.floats(-0.45, 0.45))   # K too, though the closed form needs only M
    # lambda(cos) = (a + 2b cos)/(c + 2d cos) is constant when bc = ad; keep
    # clear of that so the eigenvectors are well determined
    assume(abs(b * c - a * d) >= 0.05 * a * c)
    return toeplitz(n, a, b), toeplitz(n, c, d)


@settings(max_examples=150, deadline=None)
@given(pair=toeplitz_pencils())
def test_closed_form_pencil_matches_dense_oracle(pair):
    K, M = pair
    fast = pencil_eigs(K, M)
    ref = dense_pencil_eigs(K, M)
    assert np.max(np.abs(fast.values - ref.values) / np.abs(ref.values)) <= 1e-10
    V, W = pencil_vectors(fast), ref.vectors
    W = W * np.sign(np.sum(V * W, axis=0))   # eigenvectors are fixed up to sign
    assert np.max(np.abs(V - W)) <= 1e-9 * np.max(np.abs(W))


@pytest.mark.parametrize("n", [1, 2, 7, 64, 255])
@pytest.mark.parametrize("pair", ["p1", "falling"])
def test_modal_transforms_invert_each_other(n, pair):
    if pair == "p1":
        M, K = p1_pair(n + 1)
    else:   # lambda falls with the sine index, so the modes run in reverse
        K, M = toeplitz(n, 1.0, 0.4), toeplitz(n, 1.0, -0.3)
    pe = pencil_eigs(K, M)
    assert np.all(np.diff(pe.values) > 0)
    V = pencil_vectors(pe)
    assert np.max(np.abs(V.T @ dense(M) @ V - np.eye(n))) <= 1e-12
    rng = np.random.default_rng(n)
    real = rng.standard_normal((3, n))
    for u in (real[0], real, real[0] + 1j * real[1], real + 1j * real[::-1]):
        modal = pe.to_modal(u)
        assert modal.shape == u.shape and modal.dtype == u.dtype
        tol = 1e-12 * np.abs(u).max()
        # the DST-I agrees with the explicit eigenvectors, row by row
        assert np.allclose(modal, M.matvec(u) @ V, rtol=0, atol=tol)
        assert np.allclose(pe.from_modal(modal), u, rtol=0, atol=tol)
        assert np.allclose(pe.from_modal(u), u @ V.T, rtol=0, atol=tol)
    with pytest.raises(ValueError, match="shape"):
        pe.to_modal(np.ones(n + 1))


@settings(max_examples=80, deadline=None)
@given(coarse=st.integers(2, 64), stride=st.integers(1, 5), falling=st.booleans(),
       rows=st.sampled_from([None, 1, 3]), is_complex=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_strided_synthesis_is_restricted_synthesis(coarse, stride, falling, rows,
                                                   is_complex, seed):
    n = stride * coarse - 1
    if falling:   # lambda falls with the sine index, so the modes run in reverse
        K, M = toeplitz(n, 1.0, 0.4), toeplitz(n, 1.0, -0.3)
    else:
        M, K = p1_pair(n + 1)
    pe = pencil_eigs(K, M)
    rng = np.random.default_rng(seed)
    shape = (n,) if rows is None else (rows, n)
    c = rng.standard_normal(shape)
    if is_complex:
        c = c + 1j * rng.standard_normal(shape)
    full = pe.from_modal(c)
    restricted = full[..., stride - 1::stride]
    strided = pe.from_modal(c, stride)
    assert strided.shape == restricted.shape and strided.dtype == restricted.dtype
    assert np.max(np.abs(strided - restricted)) <= 1e-13 * np.max(np.abs(full))
    for bad in (0, stride + 1, n + 2):
        if bad == 0 or (n + 1) % bad:
            with pytest.raises(ValueError, match="stride"):
                pe.from_modal(c, bad)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 70), rows=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_complex_dst_is_the_transform_of_its_two_parts(n, rows, seed):
    # one complex FFT against a real DST-I of the real and of the imaginary
    # part, and against the sine sum itself
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
    out = linalg._dst1(u)
    split = linalg._dst1(u.real) + 1j * linalg._dst1(u.imag)
    j = np.arange(1, n + 1)
    sines = np.sin(np.pi * np.outer(j, j) / (n + 1))
    scale = np.max(np.abs(u)) * n
    assert out.dtype == complex and out.shape == u.shape
    assert np.max(np.abs(out - split)) <= 1e-14 * scale
    assert np.max(np.abs(out - u @ sines)) <= 1e-13 * scale


def test_closed_form_rejects_non_toeplitz_and_indefinite_mass():
    M, K = p1_pair(4)
    bumped = SymTridiag(M.diag + np.array([0.0, 1e-12, 0.0]), M.off)
    with pytest.raises(ValueError, match="Toeplitz"):
        pencil_eigs(K, bumped)
    with pytest.raises(ValueError, match="Toeplitz"):
        pencil_eigs(SymTridiag(K.diag, np.array([-4.0, -4.5])), M)
    # diag 1, off 1 at n = 3: 1 + 2 cos(3 pi/4) < 0 in the last mode
    with pytest.raises(SingularPivotError) as err:
        pencil_eigs(K, toeplitz(3, 1.0, 1.0))
    assert err.value.index == 2
