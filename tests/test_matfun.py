import warnings

import mpmath
import numpy as np
import pytest
from numpy.linalg import _umath_linalg

from siegeljacobi import matfun
from siegeljacobi.errors import (
    DomainViolation,
    NoConvergence,
    NonHermitian,
    NotSymmetric,
    Singular,
)


def random_hermitian(n, rng, psd=False, scale=1.0):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = 0.5 * (m + m.conj().T) * scale
    if psd:
        h = h @ h.conj().T
    return h


def test_herm_eig_zero_matrix():
    dec = matfun.herm_eig(np.zeros((2, 2), dtype=complex))
    assert np.allclose(dec.evals, [0.0, 0.0])
    assert np.allclose(dec.evecs @ dec.evecs.conj().T, np.eye(2))


def test_herm_eig_diagonal():
    dec = matfun.herm_eig(np.diag([1.0, 4.0]).astype(complex))
    assert np.allclose(dec.evals, [1.0, 4.0])


def test_herm_eig_reconstruction():
    rng = np.random.default_rng(0)
    h = random_hermitian(3, rng)
    dec = matfun.herm_eig(h)
    rebuilt = (dec.evecs * dec.evals) @ dec.evecs.conj().T
    assert np.linalg.norm(rebuilt - h) <= 1e-12 * max(np.linalg.norm(h), 1.0)
    assert np.linalg.norm(dec.evecs.conj().T @ dec.evecs - np.eye(3)) < 1e-12


def test_herm_eig_rejects_nonhermitian():
    with pytest.raises(NonHermitian):
        matfun.herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


def test_herm_func_sqrt_diagonal():
    out = matfun.herm_func(np.diag([4.0, 9.0]).astype(complex), np.sqrt)
    assert np.allclose(out, np.diag([2.0, 3.0]))


def test_herm_func_identity_function():
    rng = np.random.default_rng(1)
    h = random_hermitian(3, rng, psd=True)
    assert np.allclose(matfun.herm_func(h, lambda t: t), h)


def test_herm_func_arctanh_roundtrip():
    rng = np.random.default_rng(2)
    h = random_hermitian(3, rng, psd=True)
    h *= 0.5 / np.linalg.eigvalsh(h).max()
    mid = matfun.herm_func(h, np.arctanh, domain=lambda t: np.abs(t) < 1)
    back = matfun.herm_func(mid, np.tanh)
    assert np.linalg.norm(back - h) <= 1e-12


def test_herm_func_domain_violation():
    with pytest.raises(DomainViolation):
        matfun.herm_func(
            np.diag([0.5, 2.0]).astype(complex),
            np.arctanh,
            domain=lambda t: np.abs(t) < 1,
        )


def test_herm_func_composition_property():
    # f(g(H)) computed in one shot or two agrees for commuting spectral maps
    rng = np.random.default_rng(3)
    h = random_hermitian(4, rng, psd=True)
    one_shot = matfun.herm_func(h, lambda t: np.exp(0.5 * np.log1p(t)))
    two_step = matfun.herm_func(matfun.herm_func(h, np.log1p), lambda t: np.exp(0.5 * t))
    assert np.abs(one_shot - two_step).max() < 1e-11


def test_cartan_blocks_zero():
    m, n = matfun.cartan_blocks(np.zeros((2, 2), dtype=complex))
    assert np.allclose(m, np.eye(2))
    assert np.allclose(n, 0.0)


def test_cartan_blocks_scalar_hyperbolic():
    r = 0.7
    m, n = matfun.cartan_blocks(np.array([[r]], dtype=complex))
    assert abs(m[0, 0] - np.cosh(r)) < 1e-14
    assert abs(n[0, 0] - np.sinh(r)) < 1e-14


def test_cartan_blocks_orderings_agree():
    rng = np.random.default_rng(4)
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    z = 0.5 * (z + z.T)
    m, n = matfun.cartan_blocks(z)
    alt = z @ matfun.herm_func(z.conj().T @ z, matfun.sinhc_of_sqrt)
    assert np.abs(n - alt).max() < 1e-12


def test_cartan_blocks_group_identity():
    rng = np.random.default_rng(5)
    z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    z = 0.4 * (z + z.T)
    m, n = matfun.cartan_blocks(z)
    assert np.abs(m @ m.conj().T - n @ n.conj().T - np.eye(3)).max() < 1e-10


def test_cartan_blocks_rejects_nonsymmetric():
    with pytest.raises(NotSymmetric):
        matfun.cartan_blocks(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cartan_blocks_share_one_eigendecomposition(monkeypatch, n):
    rng = np.random.default_rng(60 + n)
    for _ in range(20):
        z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        z = rng.uniform(0.1, 2.0) * (z + z.T)
        h = z @ z.conj().T
        ref = (matfun.herm_func(h, matfun.cosh_of_sqrt),
               matfun.herm_func(h, matfun.sinhc_of_sqrt) @ z)
        calls = []
        eigh = matfun._umath_linalg.eigh_lo
        monkeypatch.setattr(matfun._umath_linalg, "eigh_lo",
                            lambda *a, **kw: calls.append(a) or eigh(*a, **kw))
        m, nb = matfun.cartan_blocks(z)
        monkeypatch.undo()
        assert len(calls) == 1
        assert (m.tobytes(), nb.tobytes()) == (ref[0].tobytes(), ref[1].tobytes())


def test_principal_logdet_identity():
    assert matfun.principal_logdet(np.eye(3, dtype=complex)) == 0


def test_principal_logdet_scalar_exponentials():
    val = matfun.principal_logdet(np.diag([np.e, np.e]).astype(complex))
    assert abs(val - 2.0) < 1e-14


def test_principal_logdet_matches_det():
    rng = np.random.default_rng(6)
    m = np.eye(4) + 0.3 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    ratio = np.exp(matfun.principal_logdet(m)) / np.linalg.det(m)
    assert abs(ratio - 1.0) < 1e-12


def test_principal_logdet_singular():
    with pytest.raises(Singular):
        matfun.principal_logdet(np.zeros((2, 2), dtype=complex))


def _eigvals_logdet(m):
    """The log-det as ``np.linalg.eigvals`` gives it, one matrix at a time."""
    return complex(np.log(np.linalg.eigvals(m)).sum())


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_principal_logdet_stack_matches_single_calls(n):
    rng = np.random.default_rng(20 + n)
    stack = np.eye(n) + (rng.normal(size=(3, 4, n, n)) + 1j * rng.normal(size=(3, 4, n, n)))
    # swapping the first and last rows of the identity is a reflection, with
    # an eigenvalue near -1 once perturbed: the principal logs meet their cut
    swap = np.eye(n)
    swap[[0, -1]] = swap[[-1, 0]]
    stack[1, 2] = swap + 0.1 * rng.normal(size=(n, n))
    stacked = matfun.principal_logdet(stack)
    assert stacked.shape == (3, 4) and stacked.dtype == complex
    singles = [matfun.principal_logdet(m) for m in stack.reshape(-1, n, n)]
    assert all(type(v) is complex for v in singles)
    assert stacked.tobytes() == np.array(singles).reshape(3, 4).tobytes()
    reference = [_eigvals_logdet(m) for m in stack.reshape(-1, n, n)]
    assert np.array(singles).tobytes() == np.array(reference).tobytes()
    dets = np.linalg.det(stack)
    assert np.abs(np.exp(stacked) / dets - 1).max() < 1e-12


def test_principal_logdet_factors_a_stack_in_one_call(monkeypatch):
    calls = []
    eigvals = _umath_linalg.eigvals

    def counted(a):
        calls.append(a.shape)
        return eigvals(a)

    monkeypatch.setattr(_umath_linalg, "eigvals", counted)
    rng = np.random.default_rng(25)
    matfun.principal_logdet(np.eye(3) + 0.3 * rng.normal(size=(2, 5, 3, 3)))
    matfun.principal_logdet(np.eye(2))
    assert calls == [(2, 5, 3, 3), (2, 2)]


def test_principal_logdet_stack_rejects_non_finite():
    stack = np.stack([np.eye(2, dtype=complex)] * 3)
    stack[1, 0, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        matfun.principal_logdet(stack)
    with pytest.raises(ValueError, match="square"):
        matfun.principal_logdet(np.ones((3, 2, 3)))


def test_principal_logdet_stack_names_the_singular_matrix():
    rng = np.random.default_rng(24)
    stack = np.eye(2) + 0.2 * rng.normal(size=(5, 2, 2))
    stack[2] = [[1.0, 2.0], [2.0, 4.0 + 1e-14]]
    mag = np.abs(np.linalg.eigvals(stack[2] + 0j)).min()
    with pytest.raises(
        Singular,
        match=rf"^stack index \(2,\): eigenvalue magnitude {mag:.3e} below threshold {4e-13:.3e}$",
    ):
        matfun.principal_logdet(stack)


def test_principal_logdet_single_rejects_non_finite():
    m = np.eye(2, dtype=complex)
    m[0, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        matfun.principal_logdet(m)
    with pytest.raises(ValueError, match="square"):
        matfun.principal_logdet(np.ones((2, 3)))


def test_principal_logdet_single_singular_names_its_eigenvalue():
    # entries below 1 keep the threshold at 1e-13 * max(|m|, 1) = 1e-13,
    # above the small eigenvalue of about 5.6e-14
    m = np.array([[0.5, 0.25], [0.25, 0.125 + 7e-14]])
    mag = np.abs(np.linalg.eigvals(m + 0j)).min()
    with pytest.raises(Singular) as err:
        matfun.principal_logdet(m)
    # and no stack index for one matrix
    assert str(err.value) == f"eigenvalue magnitude {mag:.3e} below threshold {1e-13:.3e}"


def _fails_at(index):
    """A stand-in for the ``eigvals`` gufunc that fails to converge on the
    matrix at ``index`` of its input, as LAPACK reports it: NaN eigenvalues
    and the floating-point invalid flag."""
    eigvals = _umath_linalg.eigvals

    def fake(a):
        out = eigvals(a)
        out[index] = np.nan
        np.zeros(1) / np.zeros(1)  # sets the invalid flag
        return out

    return fake


def test_principal_logdet_reports_no_convergence(monkeypatch):
    monkeypatch.setattr(_umath_linalg, "eigvals", _fails_at((1, 2)))
    stack = np.broadcast_to(np.eye(2), (2, 3, 2, 2))
    assert _raised(lambda: matfun.principal_logdet(stack)) == (
        NoConvergence, "stack index (1, 2): eigenvalues did not converge")
    monkeypatch.undo()
    monkeypatch.setattr(_umath_linalg, "eigvals", _fails_at(...))
    assert _raised(lambda: matfun.principal_logdet(np.eye(2))) == (
        NoConvergence, "eigenvalues did not converge")


def test_principal_logdet_of_empty_matrices_is_zero(monkeypatch):
    def no_lapack(*args, **kwargs):
        raise AssertionError("LAPACK called on an empty matrix")

    monkeypatch.setattr(_umath_linalg, "eigvals", no_lapack)
    # the patch reaches the eigenvalues of a non-empty matrix
    with pytest.raises(AssertionError, match="LAPACK called"):
        matfun.principal_logdet(np.eye(1))
    # det of a 0x0 matrix is the empty product 1, as np.linalg.slogdet says
    assert np.linalg.slogdet(np.zeros((0, 0))) == (1.0, 0.0)
    val = matfun.principal_logdet(np.zeros((0, 0)))
    assert type(val) is complex and val == 0
    vals = matfun.principal_logdet(np.zeros((3, 2, 0, 0), dtype=complex))
    assert vals.shape == (3, 2) and vals.dtype == complex and not vals.any()


def _hpd_stack(n, rng, lead, lo=0.3, hi=0.9):
    """``1 - W Wbar`` for symmetric ``W`` with ``||W||`` drawn in ``(lo, hi)``."""
    a = rng.normal(size=lead + (n, n)) + 1j * rng.normal(size=lead + (n, n))
    a = a + np.swapaxes(a, -1, -2)
    norms = np.linalg.norm(a, 2, axis=(-2, -1))[..., None, None]
    w = a * rng.uniform(lo, hi, size=lead)[..., None, None] / norms
    return w, np.eye(n) - w @ w.conj()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_logdet_hpd_stack_matches_single_calls(n):
    _, stack = _hpd_stack(n, np.random.default_rng(50 + n), (3, 4))
    stacked = matfun.logdet_hpd(stack)
    assert stacked.shape == (3, 4) and stacked.dtype == float
    singles = [matfun.logdet_hpd(m) for m in stack.reshape(-1, n, n)]
    assert all(type(v) is float for v in singles)
    assert stacked.tobytes() == np.array(singles).reshape(3, 4).tobytes()
    lu = matfun.principal_logdet(stack).real
    assert np.abs(stacked - lu).max() <= 1e-13 * max(np.abs(lu).max(), 1.0)


def test_logdet_hpd_factors_a_stack_in_one_call(monkeypatch):
    calls = []
    cholesky = _umath_linalg.cholesky_lo

    def counted(a):
        calls.append(a.shape)
        return cholesky(a)

    monkeypatch.setattr(_umath_linalg, "cholesky_lo", counted)
    _, stack = _hpd_stack(3, np.random.default_rng(56), (2, 5))
    matfun.logdet_hpd(stack)
    assert calls == [(2, 5, 3, 3)]


def test_logdet_hpd_factors_one_matrix_without_np_cholesky(monkeypatch):
    _, stack = _hpd_stack(3, np.random.default_rng(58), (6,))
    stacked = matfun.logdet_hpd(stack)

    def refuse(a):
        raise AssertionError("np.linalg.cholesky was called")

    monkeypatch.setattr(matfun.np.linalg, "cholesky", refuse)
    singles = [matfun.logdet_hpd(m) for m in stack]
    assert np.array(singles).tobytes() == stacked.tobytes()
    with pytest.raises(DomainViolation, match="smallest eigenvalue -4.400e-01"):
        matfun.logdet_hpd(np.eye(2) - np.diag([1.2, 0.5]) ** 2)
    with pytest.raises(Singular):
        matfun.logdet_hpd(np.diag([1.0, 5e-14]))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_logdet_hpd_near_the_boundary_matches_mpmath(n):
    ws, stack = _hpd_stack(n, np.random.default_rng(60 + n), (8,), 0.9, 0.999)
    vals = matfun.logdet_hpd(stack)
    with mpmath.workdps(50):
        for w, val in zip(ws, vals):
            mw = mpmath.matrix([[mpmath.mpc(complex(v)) for v in row] for row in w])
            wbar = mpmath.matrix([[mpmath.conj(v) for v in row] for row in mw.tolist()])
            ref = mpmath.log(mpmath.re(mpmath.det(mpmath.eye(n) - mw * wbar)))
            assert abs(val - ref) <= 1e-13 * abs(ref)


def test_logdet_hpd_rejects_non_finite_and_non_square():
    m = np.eye(2, dtype=complex)
    m[1, 0] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        matfun.logdet_hpd(m)
    with pytest.raises(ValueError, match="non-finite"):
        matfun.logdet_hpd(np.stack([np.eye(2), m]))
    # the factorization reads only the lower triangle; the check reads all
    m = np.eye(2, dtype=complex)
    m[0, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        matfun.logdet_hpd(m)
    with pytest.raises(ValueError, match="square"):
        matfun.logdet_hpd(np.ones((3, 2, 3)))


def test_logdet_hpd_names_the_matrix_that_is_not_positive_definite():
    _, stack = _hpd_stack(2, np.random.default_rng(57), (5,))
    stack[2] = np.eye(2) - np.diag([1.2, 0.5]) ** 2
    with pytest.raises(DomainViolation, match=r"stack index \(2,\): .*smallest eigenvalue -4.400e-01"):
        matfun.logdet_hpd(stack)
    with pytest.raises(DomainViolation, match=r"^matrix is not positive definite"):
        matfun.logdet_hpd(stack[2])


def test_logdet_hpd_singular_names_its_pivot():
    m = np.diag([1.0, 5e-14]).astype(complex)
    with pytest.raises(Singular) as err:
        matfun.logdet_hpd(m)
    assert str(err.value) == f"pivot magnitude {5e-14:.3e} below threshold {1e-13:.3e}"
    with pytest.raises(Singular, match=r"stack index \(1, 0\): pivot magnitude"):
        matfun.logdet_hpd(np.stack([np.eye(2), m]).reshape(2, 1, 2, 2))


def test_logdet_hpd_of_empty_matrices_is_zero():
    val = matfun.logdet_hpd(np.zeros((0, 0)))
    assert type(val) is float and val == 0.0
    vals = matfun.logdet_hpd(np.zeros((3, 2, 0, 0), dtype=complex))
    assert vals.shape == (3, 2) and vals.dtype == float and not vals.any()


def test_detpow_identity():
    assert matfun.detpow(np.eye(3, dtype=complex), -7.3) == 1


def test_detpow_scalar_values():
    assert abs(matfun.detpow(np.array([[0.25]], dtype=complex), -0.5) - 2.0) < 1e-14
    # 1 - |w|^2 at w = 0.6, power -k/2 with k = 4
    assert abs(matfun.detpow(np.array([[0.64]], dtype=complex), -2.0) - 2.44140625) < 1e-12


def test_detpow_additivity():
    rng = np.random.default_rng(7)
    m = np.eye(3) + 0.2 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    lhs = matfun.detpow(m, 0.7 + 1.1)
    rhs = matfun.detpow(m, 0.7) * matfun.detpow(m, 1.1)
    assert abs(lhs - rhs) < 1e-12 * abs(lhs)


def test_is_siegel():
    assert matfun.is_siegel(np.zeros((2, 2), dtype=complex))
    assert not matfun.is_siegel(np.array([[1.0]], dtype=complex))  # boundary
    w = np.array([[0.5, 0.0], [0.0, 0.5 + 0.1j]], dtype=complex)
    assert matfun.is_siegel(w)
    assert not matfun.is_siegel(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_the_symmetry_gates_do_not_overflow_or_pass_nan(sign):
    # ||m - m^T|| of these finite matrices overflowed to inf, and inf > inf
    # is False: both gates passed them, and herm_eig returned [0, inf]
    m = sign * np.array([[1e308, 1e308], [-1e308, 1e308]], dtype=complex)
    kind, message = _raised(lambda: matfun.check_symmetric(m))
    assert kind is NotSymmetric and message == (
        "symmetry residual 1.414e+00 of max(||m||, 1) exceeds tol 1.0e-10")
    assert _raised(lambda: matfun.herm_eig(m))[0] is NonHermitian
    # a huge symmetric matrix passes the gate unchanged, and is outside the domain
    big = np.array([[1e308, -1e308], [-1e308, 1e308j]])
    assert matfun.check_symmetric(big).tobytes() == big.tobytes()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert matfun.is_siegel(big) is False
        assert matfun.is_siegel(np.stack([big, np.zeros((2, 2))])).tolist() == [False, True]
    for fn in (matfun.check_symmetric, matfun.herm_eig, matfun.is_siegel):
        assert _raised(lambda: fn(np.array([[np.nan, 0], [0, 0]]))) == (
            ValueError, "matrix has non-finite entries")


def test_json_roundtrip():
    rng = np.random.default_rng(8)
    m = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    back = matfun.mat_from_json(matfun.mat_to_json(m))
    assert np.array_equal(back, m)


def _system(n, rng, lead, cols, complex_):
    def draw(shape):
        out = rng.normal(size=shape)
        return out + 1j * rng.normal(size=shape) if complex_ else out

    a = draw(lead + (n, n)) + 2 * np.eye(n)
    b = draw(lead + (n,) if cols is None else lead + (n, cols))
    return a, b


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("lead", [(), (5,), (2, 3)])
@pytest.mark.parametrize("cols", [None, 1, 3])
@pytest.mark.parametrize("complex_", [False, True])
def test_solve_and_inv_equal_numpy_bit_for_bit(n, lead, cols, complex_):
    rng = np.random.default_rng(60 + n)
    for _ in range(8):
        a, b = _system(n, rng, lead, cols, complex_)
        if lead and cols is None:
            b = b[..., None]  # numpy solves a 1-d right-hand side against one matrix only
        for got, want in ((matfun.solve(a, b), np.linalg.solve(a, b)),
                          (matfun.inv(a), np.linalg.inv(a))):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.flags.c_contiguous
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize(
    "a_lead, b_lead",
    [
        ((), ()),
        ((), (4, 3)),
        ((4,), ()),
        ((5,), (2, 1)),
        # one matrix for every vector, each matrix serving the last axis of
        # the vectors, one vector for every matrix
        ((1, 1, 1), (3, 8, 4)),
        ((3, 8, 1), (3, 8, 4)),
        ((3, 8, 4), (1, 1, 1)),
        # one matrix for a line of vectors; the two calls of
        # numdiff.wirtinger_hessian's stencil at n = 2: (AB) the directions
        # through one w_b, each matrix serving the second axis, and the
        # centre and the z directions at the centre's matrix, (C) the w-w pairs
        ((1,), (33,)),
        ((3, 1, 11), (3, 5, 11)),
        ((3, 2, 8), (1, 1, 1)),
    ],
)
def test_solve_vectors_equals_per_point_solves_bit_for_bit(n, a_lead, b_lead):
    rng = np.random.default_rng(70 + n)
    lead = np.broadcast_shapes(a_lead, b_lead)
    for scale in (1.0, 1e-6):
        a, _ = _system(n, rng, a_lead, None, complex_=True)
        _, b = _system(n, rng, b_lead, None, complex_=True)
        a = a - (2 - scale) * np.eye(n)  # scale 1e-6: nearly singular
        got = matfun.solve_vectors(a, b)
        full_a = np.broadcast_to(a, lead + (n, n))
        want = np.linalg.solve(full_a, np.broadcast_to(b, lead + (n,))[..., None])[..., 0]
        assert got.shape == want.shape and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [0, 1, 2, 3])
@pytest.mark.parametrize("lead", [(), (5,), (2, 3)])
@pytest.mark.parametrize("complex_", [False, True])
def test_numpy_lapack_gufuncs_equal_np_linalg_bit_for_bit(n, lead, complex_):
    # matfun calls the private gufuncs of numpy.linalg directly: pin each one
    # to its public wrapper, so that a numpy upgrade that changes them fails
    rng = np.random.default_rng(80 + n)
    a, b = _system(n, rng, lead, 2, complex_)
    vec = b[(0,) * len(lead)][:, 0]  # one right-hand side for every matrix
    hpd = a @ np.swapaxes(a, -1, -2).conj() + np.eye(n)
    pairs = [
        (_umath_linalg.solve(a, b), np.linalg.solve(a, b)),
        (_umath_linalg.solve1(a, vec), np.linalg.solve(a, vec)),
        (_umath_linalg.inv(a), np.linalg.inv(a)),
        (_umath_linalg.cholesky_lo(hpd), np.linalg.cholesky(hpd)),
        (_umath_linalg.eigvals(a + 0j), np.linalg.eigvals(a + 0j)),
        *zip(_umath_linalg.eigh_lo(hpd + 0j), np.linalg.eigh(hpd + 0j)),
        (_umath_linalg.eigvalsh_lo(hpd + 0j), np.linalg.eigvalsh(hpd + 0j)),
    ]
    for got, want in pairs:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    # logdet_hpd factors in complex, also for real input
    diag = np.linalg.cholesky(hpd.astype(complex)).diagonal(axis1=-2, axis2=-1).real
    want = 2.0 * np.log(diag).sum(axis=-1)
    assert np.asarray(matfun.logdet_hpd(hpd)).tobytes() == want.tobytes()


def _raised(fn):
    """``(type, message)`` of the error ``fn()`` raises; fails on a warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(Exception) as err:
            fn()
    assert caught == []
    return type(err.value), str(err.value)


@pytest.mark.parametrize("lead", [(), (3,), (2, 2)])
def test_failures_raise_numpys_errors_without_a_warning(lead):
    rng = np.random.default_rng(85)
    for dtype in (float, complex):
        a, b = _system(2, rng, lead, 2, dtype is complex)
        sing = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=dtype)
        if lead:
            a[(-1,) * len(lead)] = sing
        else:
            a = sing
        vec = b[(0,) * len(lead)][:, 0]
        # numpy's error, and on a stack the index of the singular matrix
        where = f"stack index {tuple(d - 1 for d in lead)}: " if lead else ""
        for ours, theirs in ((lambda: matfun.solve(a, b), lambda: np.linalg.solve(a, b)),
                             (lambda: matfun.solve(a, vec), lambda: np.linalg.solve(a, vec)),
                             (lambda: matfun.inv(a), lambda: np.linalg.inv(a))):
            assert _raised(theirs) == (np.linalg.LinAlgError, "Singular matrix")
            assert _raised(ours) == (np.linalg.LinAlgError, f"{where}Singular matrix")
    # a matrix that is not square raises what numpy raises for it
    assert _raised(lambda: matfun.inv(np.ones(lead + (2, 3)))) == _raised(
        lambda: np.linalg.inv(np.ones(lead + (2, 3))))
    # the log-det names the first matrix of a stack that fails
    _, hpd = _hpd_stack(2, rng, lead + (2,))
    hpd[(-1,) * len(lead) + (1,)] = np.eye(2) - np.diag([1.2, 0.5]) ** 2
    where = f"stack index {(*(d - 1 for d in lead), 1)}: "
    assert _raised(lambda: matfun.logdet_hpd(hpd)) == (
        DomainViolation, f"{where}matrix is not positive definite, smallest eigenvalue -4.400e-01")
    hpd[(-1,) * len(lead) + (1,)] = np.diag([1.0, 5e-14])
    assert _raised(lambda: matfun.logdet_hpd(hpd)) == (
        Singular, f"{where}pivot magnitude {5e-14:.3e} below threshold {1e-13:.3e}")


def test_solve_vectors_of_a_singular_matrix_raises_as_numpy_does():
    with pytest.raises(np.linalg.LinAlgError):
        matfun.solve_vectors(np.zeros((1, 2, 2)), np.ones((3, 2)))


def test_solve_mixes_real_and_complex_operands_as_numpy_does():
    rng = np.random.default_rng(64)
    a_re, b_re = _system(3, rng, (), 2, complex_=False)
    a_c, b_c = _system(3, rng, (), 2, complex_=True)
    for a, b in ((a_re, b_c), (a_c, b_re), (a_re.astype(np.float32), b_re),
                 (a_re.astype(np.float32), b_re.astype(np.float32))):
        got, want = matfun.solve(a, b), np.linalg.solve(a, b)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    f32 = a_re.astype(np.float32)
    assert matfun.inv(f32).tobytes() == np.linalg.inv(f32).tobytes()


def test_solve_and_inv_leave_read_only_inputs_untouched():
    a, b = _system(3, np.random.default_rng(65), (), 2, complex_=True)
    a0, b0 = a.copy(), b.copy()
    a.flags.writeable = False
    b.flags.writeable = False
    matfun.solve(a, b)
    matfun.solve(a, b[:, 0])
    matfun.inv(a)
    assert a.tobytes() == a0.tobytes() and b.tobytes() == b0.tobytes()


def test_solve_and_inv_of_a_singular_matrix_raise_as_numpy_does():
    for dtype in (float, complex):
        sing = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=dtype)
        rhs = np.ones(2, dtype=dtype)
        for ours, theirs in ((lambda: matfun.solve(sing, rhs), lambda: np.linalg.solve(sing, rhs)),
                             (lambda: matfun.inv(sing), lambda: np.linalg.inv(sing))):
            with pytest.raises(np.linalg.LinAlgError) as want:
                theirs()
            with pytest.raises(np.linalg.LinAlgError) as got:
                ours()
            assert type(got.value) is type(want.value)
            assert str(got.value) == str(want.value)


def test_solve_and_inv_of_one_matrix_skip_np_linalg(monkeypatch):
    a, b = _system(3, np.random.default_rng(66), (), 2, complex_=True)
    want = (np.linalg.solve(a, b), np.linalg.solve(a, b[:, 0]), np.linalg.inv(a))

    def refuse(*args):
        raise AssertionError("np.linalg was called")

    monkeypatch.setattr(matfun.np.linalg, "solve", refuse)
    monkeypatch.setattr(matfun.np.linalg, "inv", refuse)
    got = (matfun.solve(a, b), matfun.solve(a, b[:, 0]), matfun.inv(a))
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


def test_eye_is_a_shared_read_only_identity():
    for n in (0, 1, 3):
        eye = matfun.eye(n)
        assert eye is matfun.eye(n)
        assert not eye.flags.writeable
        assert eye.dtype == np.eye(n).dtype and np.array_equal(eye, np.eye(n))


@pytest.mark.parametrize("d, message", [
    ([[0.0]], "keys"),
    ({"rows": 1, "cols": 1, "re": [0.0]}, "keys"),
    ({"rows": 1, "cols": 1, "re": [0.0], "im": [0.0], "extra": 1}, "keys"),
    ({"rows": 1.0, "cols": 1, "re": [0.0], "im": [0.0]}, "integers"),
    ({"rows": True, "cols": 1, "re": [0.0], "im": [0.0]}, "integers"),
    ({"rows": -1, "cols": 1, "re": [], "im": []}, "integers"),
    ({"rows": 1, "cols": 2, "re": [0.0], "im": [0.0, 0.0]}, "2 numbers"),
    ({"rows": 1, "cols": 1, "re": [[0.0]], "im": [0.0]}, "1 numbers"),
    ({"rows": 1, "cols": 1, "re": ["x"], "im": [0.0]}, "list of numbers"),
    ({"rows": 1, "cols": 1, "re": [0.0], "im": [float("nan")]}, "non-finite"),
])
def test_mat_from_json_rejects_malformed_input(d, message):
    with pytest.raises(ValueError, match=message):
        matfun.mat_from_json(d)
