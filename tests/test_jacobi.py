import dataclasses
import math

import mpmath
import numpy as np
import pytest

from siegeljacobi import jacobi, matfun, symplectic as sp, verify
from siegeljacobi.errors import DomainViolation, OutOfDomain, Singular
from siegeljacobi.jacobi import CSPoint, JacobiElement
from siegeljacobi.verify import _random_element as random_element
from siegeljacobi.verify import _random_point as random_point


def test_compose_with_identity():
    rng = np.random.default_rng(0)
    h = random_element(2, rng)
    e = JacobiElement(g=sp.sp_identity(2), alpha=np.zeros(2, dtype=complex))
    out = jacobi.jacobi_compose(h, e)
    assert np.allclose(out.alpha, h.alpha) and abs(out.t - h.t) < 1e-14
    assert np.allclose(out.g.a, h.g.a)


def test_compose_reduces_to_translation_law():
    # both rotation parts trivial: t adds the symplectic area of the alphas
    rng = np.random.default_rng(1)
    a1 = rng.normal(size=2) + 1j * rng.normal(size=2)
    a2 = rng.normal(size=2) + 1j * rng.normal(size=2)
    h1 = JacobiElement(g=sp.sp_identity(2), alpha=a1, t=0.2)
    h2 = JacobiElement(g=sp.sp_identity(2), alpha=a2, t=-0.1)
    out = jacobi.jacobi_compose(h1, h2)
    assert np.allclose(out.alpha, a1 + a2)
    expected_t = 0.1 + np.imag(np.sum(a1 * a2.conj()))
    assert abs(out.t - expected_t) < 1e-14


def test_compose_associativity():
    rng = np.random.default_rng(2)
    for _ in range(100):
        h1, h2, h3 = (random_element(2, rng) for _ in range(3))
        left = jacobi.jacobi_compose(jacobi.jacobi_compose(h1, h2), h3)
        right = jacobi.jacobi_compose(h1, jacobi.jacobi_compose(h2, h3))
        assert np.linalg.norm(left.alpha - right.alpha) < 1e-10
        assert abs(left.t - right.t) < 1e-10
        assert np.linalg.norm(left.g.a - right.g.a) < 1e-10


def test_inverse():
    e = JacobiElement(g=sp.sp_identity(2), alpha=np.zeros(2, dtype=complex))
    einv = jacobi.jacobi_inverse(e)
    assert np.allclose(einv.alpha, 0) and einv.t == 0
    # pure translation inverts to the opposite translation
    h = JacobiElement(g=sp.sp_identity(1), alpha=np.array([0.3 + 0.1j]), t=0.0)
    hinv = jacobi.jacobi_inverse(h)
    assert np.allclose(hinv.alpha, [-0.3 - 0.1j]) and hinv.t == 0
    rng = np.random.default_rng(3)
    h = random_element(2, rng)
    prod = jacobi.jacobi_compose(h, jacobi.jacobi_inverse(h))
    assert np.linalg.norm(prod.alpha) < 1e-11
    assert abs(prod.t) < 1e-11
    assert np.linalg.norm(prod.g.a - np.eye(2)) + np.linalg.norm(prod.g.b) < 1e-11


def test_act_identity_and_pure_translation():
    rng = np.random.default_rng(4)
    x = random_point(2, rng)
    e = JacobiElement(g=sp.sp_identity(2), alpha=np.zeros(2, dtype=complex))
    out = jacobi.act(e, x)
    assert np.allclose(out.z, x.z) and np.allclose(out.W, x.W)
    alpha = rng.normal(size=2) + 1j * rng.normal(size=2)
    h = JacobiElement(g=sp.sp_identity(2), alpha=alpha, t=0.0)
    out = jacobi.act(h, x)
    assert np.allclose(out.z, x.z + alpha - x.W @ alpha.conj())
    assert np.allclose(out.W, x.W)


def test_act_is_left_action():
    rng = np.random.default_rng(5)
    for _ in range(50):
        h1 = random_element(2, rng, 0.35)
        h2 = random_element(2, rng, 0.35)
        x = random_point(2, rng, 0.35, 0.35)
        two_step = jacobi.act(h1, jacobi.act(h2, x))
        one_step = jacobi.act(jacobi.jacobi_compose(h1, h2), x)
        assert np.linalg.norm(two_step.z - one_step.z) < 1e-10
        assert np.abs(two_step.W - one_step.W).max() < 1e-10


def _interior_stack(n, rng, count):
    """Points drawn as in ``verify``, stacked along one axis."""
    points = [random_point(n, rng, 0.5, 0.6) for _ in range(count)]
    return CSPoint(z=np.array([p.z for p in points]), W=np.array([p.W for p in points]))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("where", ["interior", "near-boundary"])
def test_act_and_moebius_stack_match_single_calls(n, where):
    rng = np.random.default_rng(70 + n)
    make = _interior_stack if where == "interior" else _near_boundary_stack
    stack = make(n, rng, 24)
    h = random_element(n, rng, 0.4)
    singles = [jacobi.act(h, CSPoint(z=z, W=w)) for z, w in zip(stack.z, stack.W)]
    z1 = np.array([p.z for p in singles])
    w1 = np.array([p.W for p in singles])
    image = jacobi.act(h, stack)
    assert image.z.shape == (24, n) and image.W.shape == (24, n, n)
    grid = jacobi.act(h, CSPoint(z=stack.z.reshape(2, 3, 4, n), W=stack.W.reshape(2, 3, 4, n, n)))
    for out in (image, grid):
        assert out.z.tobytes() == z1.tobytes() and out.W.tobytes() == w1.tobytes()
    moved = sp.moebius(h.g, stack.W)
    assert moved.tobytes() == np.array([sp.moebius(h.g, w) for w in stack.W]).tobytes()


def test_lambda_cocycle_identity_and_collapse():
    rng = np.random.default_rng(6)
    x = random_point(2, rng)
    e = JacobiElement(g=sp.sp_identity(2), alpha=np.zeros(2, dtype=complex))
    data = jacobi.lambda_cocycle(e, x, 2)
    assert abs(data.lam - 1.0) < 1e-14
    assert np.allclose(data.z1, x.z) and np.allclose(data.W1, x.W)
    # x = 0, alpha = 0, b = 0: lambda collapses to det(a*)^{-k/2}
    g0 = sp.sp_random(2, 0.0, rng)
    h = JacobiElement(g=g0, alpha=np.zeros(2, dtype=complex), t=0.0)
    origin = CSPoint(z=np.zeros(2, dtype=complex), W=np.zeros((2, 2), dtype=complex))
    data = jacobi.lambda_cocycle(h, origin, 2)
    from siegeljacobi.matfun import detpow

    assert abs(data.lam - detpow(g0.a.conj().T, -1.0)) < 1e-12


def test_lambda_cocycle_multiplicative_and_unitary():
    rng = np.random.default_rng(7)
    for n, k in ((1, 2), (2, 4)):
        for _ in range(50):
            h1 = random_element(n, rng, 0.35)
            h2 = random_element(n, rng, 0.35)
            x = random_point(n, rng, 0.35, 0.35)
            uni, mult, _ = verify._cocycle_residuals(h1, h2, x, k)
            assert mult < 1e-9 and uni < 1e-9


def test_lambda_cocycle_image_consistency():
    # the image point equals the translate of the auxiliary vector route
    rng = np.random.default_rng(8)
    h = random_element(2, rng, 0.4)
    x = random_point(2, rng)
    data = jacobi.lambda_cocycle(h, x, 2)
    alt_z1 = data.y - data.W1 @ data.y.conj()
    assert np.linalg.norm(alt_z1 - data.z1) < 1e-11


def test_lambda_cocycle_shares_the_action():
    rng = np.random.default_rng(9)
    for n in (1, 2, 3):
        h = random_element(n, rng, 0.4)
        x = random_point(n, rng)
        data = jacobi.lambda_cocycle(h, x, 4)
        image = jacobi.act(h, x)
        assert data.z1.tobytes() == image.z.tobytes()
        assert data.W1.tobytes() == image.W.tobytes()
    # W b* + a* = (-5/3)(3/4) + 5/4 = 0 exactly, at a point outside the domain
    h = JacobiElement(
        g=sp.SpElement(a=np.array([[1.25 + 0j]]), b=np.array([[0.75 + 0j]])),
        alpha=np.zeros(1, dtype=complex),
    )
    x = CSPoint(z=np.array([0.1 + 0j]), W=np.array([[-5 / 3 + 0j]]))
    for call in (lambda: jacobi.act(h, x), lambda: jacobi.lambda_cocycle(h, x, 4)):
        with pytest.raises(Singular):
            call()


def test_lambda_cocycle_ez_routes():
    rng = np.random.default_rng(9)
    e = JacobiElement(g=sp.sp_identity(1), alpha=np.zeros(1, dtype=complex))
    x = random_point(1, rng)
    assert abs(jacobi.lambda_cocycle_ez(e, x, 2) - 1.0) < 1e-14
    for _ in range(50):
        h = random_element(1, rng, 0.4)
        x = random_point(1, rng)
        lam = jacobi.lambda_cocycle(h, x, 2).lam
        lam_ez = jacobi.lambda_cocycle_ez(h, x, 2)
        assert abs(lam - lam_ez) < 1e-10 * abs(lam)
        assert verify._cocycle_literal_residual(h, x, 2, lam_ez) <= 1e-9


def test_kernel_two_point_transformation():
    # unitarity off the diagonal: conj(lam(h,x)) lam(h,y) K(hx, hy) = K(x, y)
    rng = np.random.default_rng(20)
    for _ in range(20):
        h = random_element(2, rng, 0.35)
        x = random_point(2, rng, 0.35, 0.35)
        y = random_point(2, rng, 0.35, 0.35)
        dx = jacobi.lambda_cocycle(h, x, 4)
        dy = jacobi.lambda_cocycle(h, y, 4)
        lhs = (
            np.conj(dx.lam)
            * dy.lam
            * jacobi.kernel(CSPoint(z=dx.z1, W=dx.W1), CSPoint(z=dy.z1, W=dy.W1), 4)
        )
        rhs = jacobi.kernel(x, y, 4)
        assert abs(lhs - rhs) < 1e-10 * abs(rhs)


def test_kernel_values_and_symmetry():
    origin = CSPoint(z=np.zeros(2, dtype=complex), W=np.zeros((2, 2), dtype=complex))
    assert abs(jacobi.kernel(origin, origin, 4.0) - 1.0) < 1e-15
    rng = np.random.default_rng(10)
    x = random_point(2, rng)
    y = random_point(2, rng)
    assert abs(jacobi.kernel(x, y, 4.0) - np.conj(jacobi.kernel(y, x, 4.0))) < 1e-12
    # z components zero: reduces to det(1 - W_y conj(W_x))^{-k/2}
    x0 = CSPoint(z=np.zeros(2, dtype=complex), W=x.W)
    y0 = CSPoint(z=np.zeros(2, dtype=complex), W=y.W)
    domain = matfun.detpow(np.eye(2) - y.W @ x.W.conj(), -4.0 / 2)
    assert abs(jacobi.kernel(x0, y0, 4.0) - domain) < 1e-13


@pytest.mark.parametrize("k", [3, 4, 5.5, 6])
def test_array_kernel_n1_matches_kernel(k):
    rng = np.random.default_rng(16)
    z = 0.5 * (rng.normal(size=(200, 2)) + 1j * rng.normal(size=(200, 2)))
    w = (rng.uniform(0.0, 0.999, size=(200, 2))
         * np.exp(2j * np.pi * rng.uniform(size=(200, 2))))
    for (zy, z0), (wy, w0) in zip(z, w):
        y = CSPoint(z=np.array([zy]), W=np.array([[wy]]))
        x0 = CSPoint(z=np.array([z0]), W=np.array([[w0]]))
        closed = jacobi.kernel(y, x0, k)
        # the array kernel takes the conjugates of the points y
        arr = jacobi._kernel_n1(np.array([zy]).conj(), np.array([wy]).conj(),
                                complex(z0), complex(w0), k)
        assert abs(arr[0] - closed) <= 1e-13 * abs(closed)


@pytest.mark.parametrize("n,k", [(1, 2), (1, 4), (2, 2), (2, 4)])
def test_kernel_gram_positive(n, k):
    rng = np.random.default_rng(11)
    pts = [random_point(n, rng) for _ in range(20)]
    gram = np.array([[jacobi.kernel(x, y, k) for y in pts] for x in pts])
    evmin = np.linalg.eigvalsh(0.5 * (gram + gram.conj().T)).min()
    assert evmin >= -1e-9 * np.linalg.norm(gram)


def test_kahler_potential():
    origin = CSPoint(z=np.zeros(2, dtype=complex), W=np.zeros((2, 2), dtype=complex))
    assert jacobi.kahler_potential(origin, 4.0) == 0.0
    rng = np.random.default_rng(12)
    x = random_point(2, rng)
    x0 = CSPoint(z=np.zeros(2, dtype=complex), W=x.W)
    from siegeljacobi.matfun import principal_logdet

    direct = -2.0 * principal_logdet(np.eye(2) - x.W @ x.W.conj()).real
    assert abs(jacobi.kahler_potential(x0, 4.0) - direct) < 1e-13
    logk = np.log(jacobi.kernel(x, x, 4.0))
    assert abs(jacobi.kahler_potential(x, 4.0) - logk.real) < 1e-11
    assert abs(logk.imag) < 1e-11


def _near_boundary_stack(n, rng, count):
    """Points with ``||W||`` in (0.9, 0.999), stacked along one axis."""
    ws = []
    for _ in range(count):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a = a + a.T
        ws.append(a * rng.uniform(0.9, 0.999) / np.linalg.norm(a, 2))
    z = rng.normal(size=(count, n)) + 1j * rng.normal(size=(count, n))
    return CSPoint(z=z, W=np.array(ws))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("k", [3, 5])
def test_kahler_potential_stack_matches_single_calls(n, k):
    stack = _near_boundary_stack(n, np.random.default_rng(30 + n), 24)
    assert stack.n == n
    values = jacobi.kahler_potential(stack, k)
    assert values.shape == (24,)
    singles = [
        jacobi.kahler_potential(CSPoint(z=z, W=w), k) for z, w in zip(stack.z, stack.W)
    ]
    assert all(type(v) is float for v in singles)
    assert values.tobytes() == np.array(singles).tobytes()
    grid = CSPoint(z=stack.z.reshape(2, 3, 4, n), W=stack.W.reshape(2, 3, 4, n, n))
    assert jacobi.kahler_potential(grid, k).tobytes() == values.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("where", ["interior", "near-boundary"])
@pytest.mark.parametrize(
    "z_lead, w_lead",
    # z moving under one W, both moving with each W serving the last axis of
    # z, W moving under one z, and a line of z under one W; then the two
    # calls of numdiff.wirtinger_hessian's stencil at n = 2: (AB) the
    # directions through one w_b, each W serving the second axis of z, and
    # the centre and the z directions at the centre's W, (C) the w-w pairs
    [((3, 8, 4), (1, 1, 1)), ((3, 8, 4), (3, 8, 1)), ((1, 1, 1), (3, 8, 4)),
     ((33,), (1,)), ((3, 5, 11), (3, 1, 11)), ((1, 1, 1), (3, 2, 8))],
    ids=["z-z", "z-w", "w-w", "line", "AB", "C"],
)
def test_kahler_potential_of_broadcast_stacks_matches_the_full_stack(n, k, where, z_lead, w_lead):
    rng = np.random.default_rng(80 + n)
    make = _interior_stack if where == "interior" else _near_boundary_stack
    z = make(n, rng, math.prod(z_lead)).z.reshape(z_lead + (n,))
    w = make(n, rng, math.prod(w_lead)).W.reshape(w_lead + (n, n))
    lead = np.broadcast_shapes(z_lead, w_lead)
    full = CSPoint(z=np.broadcast_to(z, lead + (n,)).copy(),
                   W=np.broadcast_to(w, lead + (n, n)).copy())
    values = jacobi.kahler_potential(CSPoint(z=z, W=w), k)
    assert values.shape == lead
    assert values.tobytes() == jacobi.kahler_potential(full, k).tobytes()


def _potential_mpmath(z, w, k):
    """``kahler_potential`` of one point in 50-digit arithmetic, from the
    defining formula ``-(k/2) log det G + Re(<z, M z> + z^T Wbar M z)``,
    ``G = 1 - W Wbar``, ``M = G^-1``."""
    n = len(z)
    with mpmath.workdps(50):
        mz = mpmath.matrix([[mpmath.mpc(complex(v))] for v in z])
        mw = mpmath.matrix([[mpmath.mpc(complex(v)) for v in row] for row in w])
        wbar = mpmath.matrix([[mpmath.conj(mw[i, j]) for j in range(n)] for i in range(n)])
        gram = mpmath.eye(n) - mw * wbar
        m = gram**-1
        quad = (mz.H * m * mz)[0] + (mz.T * wbar * m * mz)[0]
        return -mpmath.mpf(k) / 2 * mpmath.log(mpmath.re(mpmath.det(gram))) + mpmath.re(quad)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("k", [3, 4.5])
def test_kahler_potential_near_the_boundary_matches_mpmath(n, k):
    stack = _near_boundary_stack(n, np.random.default_rng(80 + n), 8)
    values = jacobi.kahler_potential(stack, k)
    for z, w, val in zip(stack.z, stack.W, values):
        ref = _potential_mpmath(z, w, k)
        single = jacobi.kahler_potential(CSPoint(z=z, W=w), k)
        assert abs(val - ref) <= 1e-13 * abs(ref)
        assert abs(single - ref) <= 1e-13 * abs(ref)


def _kernel_mpmath(x, y, k):
    """``kernel(x, y, k)`` of one pair in 50-digit arithmetic, from the
    defining formula with ``log det U = -sum_i log(1 - mu_i)`` over the
    eigenvalues ``mu_i`` of ``W_y conj(W_x)``.  Each ``|mu_i| < 1``, so each
    ``1 - mu_i`` has a positive real part and the sum is the branch continued
    from the identity."""
    with mpmath.workdps(50):
        def mat(a):
            return mpmath.matrix([[mpmath.mpc(complex(v)) for v in row] for row in a])

        def col(v):
            return mat(np.asarray(v)[:, None])

        a = mat(y.W) * mat(x.W.conj())
        mu = mpmath.eig(a, left=False, right=False)
        logdet_u = -mpmath.fsum(mpmath.log(1 - m) for m in mu)
        u = (mpmath.eye(x.n) - a) ** -1
        zx, zy = col(x.z), col(y.z)
        expo = (
            2 * (zx.H * u * zy)[0]
            + ((mat(x.W) * col(y.z.conj())).H * u * zy)[0]
            + (zx.H * u * mat(y.W) * col(x.z.conj()))[0]
        )
        return complex(mpmath.exp(mpmath.mpf(k) / 2 * logdet_u + expo / 2))


def _kernel_lu_pivots(x, y, k):
    """``kernel`` with ``log det U`` summed over the principal logs of the LU
    pivots of ``U``, plus ``i pi`` for an odd number of row swaps: the branch
    the kernel took before it summed eigenvalue logs."""
    import scipy.linalg

    u = np.linalg.inv(np.eye(x.n) - y.W @ x.W.conj())
    lu, piv = scipy.linalg.lu_factor(u)
    logdet_u = np.log(np.diag(lu)).sum() + 1j * np.pi * (np.sum(piv != np.arange(x.n)) % 2)
    uz = u @ y.z
    expo = (
        2.0 * (x.z.conj() * uz).sum()
        + ((x.W @ y.z.conj()).conj() * uz).sum()
        + (x.z.conj() * (u @ y.W @ x.z.conj())).sum()
    )
    return complex(np.exp(k / 2 * logdet_u + 0.5 * expo))


def _near_boundary_pairs(n):
    """Eight pairs of points with ``||W||`` in (0.9, 0.999) and ``|z|``
    about 0.3.  Near the boundary ``cond(U)`` reaches 1e3, and the rounding
    of the kernel's quadratic exponent grows with ``|z|^2 cond(U)``; the
    branch of ``det(U)^{k/2}`` does not depend on ``z``."""
    stack = _near_boundary_stack(n, np.random.default_rng(100 + n), 16)
    pts = [CSPoint(z=0.3 * z, W=w) for z, w in zip(stack.z, stack.W)]
    return list(zip(pts[::2], pts[1::2]))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("k", [3, 5, 2.5])
def test_kernel_near_the_boundary_takes_the_branch_from_the_identity(n, k):
    for x, y in _near_boundary_pairs(n):
        for a in (x, y):
            diag = jacobi.kernel(a, a, k)
            assert diag.real > 0 and abs(diag.imag) <= 1e-12 * diag.real
        kxy = jacobi.kernel(x, y, k)
        assert abs(kxy - np.conj(jacobi.kernel(y, x, k))) <= 1e-12 * abs(kxy)
        for a, b in ((x, y), (y, x), (x, x)):
            ref = _kernel_mpmath(a, b, k)
            assert abs(jacobi.kernel(a, b, k) - ref) <= 1e-12 * abs(ref)


def test_the_lu_pivot_branch_fails_near_the_boundary():
    # bite for the test above: the pivot-sum route misses the reference on
    # some of the same draws
    missed = 0
    for n in (2, 3):
        for k in (3, 5, 2.5):
            for x, y in _near_boundary_pairs(n):
                for a, b in ((x, y), (y, x), (x, x)):
                    ref = _kernel_mpmath(a, b, k)
                    missed += not abs(_kernel_lu_pivots(a, b, k) - ref) <= 1e-12 * abs(ref)
    assert missed > 0


def _kahler_form_numpy_scalars(x, k):
    """The form assembled entry by entry in numpy complex128 scalars: the
    upper triangle, its conjugate below and a real diagonal."""
    n = x.n
    m, mb, xv, q, s, r, p = jacobi._kahler_blocks(x)
    pairs = sp.sym_index_pairs(n)
    dim = n + len(pairs)
    h = np.zeros((dim, dim), dtype=complex)
    h[:n, :n] = m.T
    xbar = xv.conj()
    for c, (kk, ll) in enumerate(pairs):
        for i in range(n):
            fzw = m[i, kk] * xbar[ll]
            if kk != ll:
                fzw += m[i, ll] * xbar[kk]
            h[i, n + c] = np.conj(fzw)

    def full(a, b, c, d):
        t = 0.5 * k * mb[b, c] * m[d, a]
        t += mb[a, c] * (p[d] * (s[b] + 0.5 * r[b]) + 0.5 * q[d] * s[b])
        t += mb[b, c] * (q[d] * (r[a] + 0.5 * s[a]) + 0.5 * p[d] * r[a])
        return t

    for c1, (a, b) in enumerate(pairs):
        for c2, (cc, d) in enumerate(pairs):
            if c2 < c1:
                continue
            tot = full(a, b, cc, d)
            if a != b:
                tot += full(b, a, cc, d)
            if cc != d:
                tot += full(a, b, d, cc)
                if a != b:
                    tot += full(b, a, d, cc)
            h[n + c1, n + c2] = tot
    upper = np.triu(h, 1)
    return upper + upper.conj().T + np.diag(h.diagonal().real)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("k", [2, 3, 4.5, 6])
def test_kahler_form_equals_numpy_scalar_assembly(n, k):
    rng = np.random.default_rng(40 + n)
    for _ in range(12):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a = a + a.T
        w = a * rng.uniform(0.0, 0.999) / np.linalg.norm(a, 2)
        x = CSPoint(z=rng.normal(size=n) + 1j * rng.normal(size=n), W=w)
        form = jacobi.kahler_form(x, k)
        assert form.tobytes() == _kahler_form_numpy_scalars(x, k).tobytes()
        # Hermitian bit for bit (array_equal: the real diagonal's +0.0
        # imaginary parts conjugate to -0.0)
        assert np.array_equal(form, form.conj().T)
        assert not form.diagonal().imag.any()


def test_kahler_form_origin_blocks():
    k = 4.0
    origin = CSPoint(z=np.zeros(2, dtype=complex), W=np.zeros((2, 2), dtype=complex))
    h = jacobi.kahler_form(origin, k)
    assert np.allclose(h[:2, :2], np.eye(2))
    assert np.allclose(h[:2, 2:], 0.0)
    # independent-coordinate weights: k/2 on diagonal pairs, k on mixed pairs
    assert np.allclose(np.diag(h[2:, 2:]), [k / 2, k, k / 2])


def test_kahler_form_n1_closed_coefficients():
    # one-variable closed form: z-block 1/(1-|w|^2), mixed block via
    # alpha0 = (z + zbar w)/(1 - |w|^2), w-block (k/2) m^2 + m |alpha0|^2
    rng = np.random.default_rng(13)
    k = 4.0
    z = complex(0.3 * (rng.normal() + 1j * rng.normal()))
    w = complex(0.4 * np.tanh(rng.normal()) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
    x = CSPoint(z=np.array([z]), W=np.array([[w]]))
    h = jacobi.kahler_form(x, k)
    m = 1.0 / (1 - abs(w) ** 2)
    alpha0 = (z + np.conj(z) * w) * m
    assert abs(h[0, 0] - m) < 1e-12
    assert abs(h[0, 1] - m * alpha0) < 1e-10
    assert abs(h[1, 1] - (k / 2 * m**2 + m * abs(alpha0) ** 2)) < 1e-10


def test_kahler_form_matches_finite_differences():
    rng = np.random.default_rng(14)
    for n in (1, 2):
        for _ in range(3):
            x = random_point(n, rng, 0.4, 0.5)
            fd, positive = verify._form_fd_residuals(x, 4.0)
            assert fd < 1e-6 and positive


def test_kahler_form_invariance():
    rng = np.random.default_rng(15)
    x = random_point(2, rng, 0.3, 0.3)
    h = random_element(2, rng, 0.3)
    assert verify._invariance_residuals(h, x, 4.0)[0] < 1e-6


def test_density_values_and_invariance():
    origin = CSPoint(z=np.zeros(1, dtype=complex), W=np.zeros((1, 1), dtype=complex))
    assert jacobi.density(origin) == 1.0
    half = CSPoint(z=np.zeros(1, dtype=complex), W=np.array([[0.5]], dtype=complex))
    assert abs(jacobi.density(half) - 0.75 ** (-3)) < 1e-12
    rng = np.random.default_rng(16)
    x = random_point(2, rng, 0.3, 0.3)
    h = random_element(2, rng, 0.3)
    assert verify._invariance_residuals(h, x, 4.0)[1] < 1e-6


# W outside the domain: 1 - W Wbar has a negative eigenvalue, although at
# diag(1.2, 1.1) its determinant is positive
OUTSIDE = {"w1.5": [[1.5]], "diag(1.2,1.1)": [[1.2, 0.0], [0.0, 1.1]]}


@pytest.mark.parametrize("where", sorted(OUTSIDE))
def test_density_and_potential_reject_w_outside_the_domain(where):
    w = np.array(OUTSIDE[where], dtype=complex)
    x = CSPoint(z=np.full(len(w), 0.1 + 0j), W=w)
    with pytest.raises(DomainViolation, match="not positive definite"):
        jacobi.density(x)
    with pytest.raises(DomainViolation, match="not positive definite"):
        jacobi.kahler_potential(x, 4.0)


def test_measure_constants():
    c = jacobi.measure_constants(1, 6.0)
    assert abs(c.Lambda - (6.0 - 3) / (2 * math.pi**2)) < 1e-14
    assert abs(jacobi.measure_constants(1, 5.0).Lambda - 1 / math.pi**2) < 1e-14
    c2 = jacobi.measure_constants(2, 9.0)
    assert abs(c2.Lambda - math.pi ** (-2) / sp.jn(c2.p, 2)) < 1e-12 * c2.Lambda
    assert abs(c2.Lambda - verify._lambda_product_form(2, 9.0)) < 1e-12 * c2.Lambda
    assert abs(c2.p - 1.0) < 1e-14
    with pytest.raises(OutOfDomain):
        jacobi.measure_constants(1, 3.0)


def test_pik_apply():
    rng = np.random.default_rng(17)
    x = random_point(1, rng, 0.3, 0.3)
    e = JacobiElement(g=sp.sp_identity(1), alpha=np.zeros(1, dtype=complex))

    def f(pt):
        return 1.0 + complex(pt.z[0]) + complex(pt.W[0, 0])

    assert abs(jacobi.pik_apply(e, 2, f, x) - f(x)) < 1e-14
    h = random_element(1, rng, 0.3)
    hinv = jacobi.jacobi_inverse(h)
    val = jacobi.pik_apply(h, 2, lambda pt: 1.0, x)
    assert abs(val - jacobi.lambda_full(hinv, x, 2)) < 1e-13
    # homomorphism at sampled points
    for _ in range(20):
        h1 = random_element(1, rng, 0.3)
        h2 = random_element(1, rng, 0.3)
        x = random_point(1, rng, 0.3, 0.3)
        lhs = jacobi.pik_apply(h1, 2, lambda p: jacobi.pik_apply(h2, 2, f, p), x)
        rhs = jacobi.pik_apply(jacobi.jacobi_compose(h1, h2), 2, f, x)
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))


def test_cs_point_json_roundtrip():
    rng = np.random.default_rng(18)
    x = random_point(2, rng)
    back = CSPoint.from_json(x.to_json())
    assert np.allclose(back.z, x.z) and np.allclose(back.W, x.W)
    h = random_element(2, rng)
    hback = JacobiElement.from_json(h.to_json())
    assert np.allclose(hback.alpha, h.alpha) and hback.t == h.t


def test_coords_roundtrip():
    rng = np.random.default_rng(19)
    x = random_point(3, rng)
    back = jacobi.cs_from_coords(jacobi.cs_coords(x), 3)
    assert np.allclose(back.z, x.z) and np.allclose(back.W, x.W)
    # a stack of points, shape (2, 3), round-trips exactly
    for n in (1, 2, 3):
        pts = [random_point(n, rng) for _ in range(6)]
        stack = CSPoint(
            z=np.array([p.z for p in pts]).reshape(2, 3, n),
            W=np.array([p.W for p in pts]).reshape(2, 3, n, n),
        )
        coords = jacobi.cs_coords(stack)
        assert coords.shape == (2, 3, n + n * (n + 1) // 2)
        assert np.array_equal(coords[1, 2], jacobi.cs_coords(pts[5]))
        back = jacobi.cs_from_coords(coords, n)
        assert np.array_equal(back.z, stack.z) and np.array_equal(back.W, stack.W)


def test_cs_point_validation():
    jacobi.cs_point([0.1 + 0.2j], [[0.3]])
    with pytest.raises(OutOfDomain):
        jacobi.cs_point([0.0], [[1.2]])


def _flat(out):
    """An output as a tuple of (type name, bytes) leaves, for exact comparison."""
    if dataclasses.is_dataclass(out):
        return tuple(_flat(getattr(out, f.name)) for f in dataclasses.fields(out))
    return type(out).__name__, np.asarray(out).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_single_point_primitives_take_the_lapack_route(n, monkeypatch):
    rng = np.random.default_rng(70 + n)
    x, y = random_point(n, rng, 0.5, 0.6), random_point(n, rng, 0.5, 0.6)
    h, h2 = random_element(n, rng, 0.4), random_element(n, rng, 0.4)
    calls = {
        "kernel": (x, y, 3.0),
        "kahler_potential": (x, 3.0),
        "kahler_form": (x, 3.0),
        "act": (h, x),
        "lambda_cocycle": (h, x, 4),
        "lambda_cocycle_ez": (h, x, 4),
        "density": (x,),
        "jacobi_compose": (h, h2),
    }
    want = {name: _flat(getattr(jacobi, name)(*args)) for name, args in calls.items()}

    def refuse(*args):
        raise AssertionError("np.linalg was called on a single point")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    monkeypatch.setattr(np.linalg, "inv", refuse)
    got = {name: _flat(getattr(jacobi, name)(*args)) for name, args in calls.items()}
    assert got == want
