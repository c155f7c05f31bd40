import math

import numpy as np
import pytest

from siegeljacobi import jacobi, matfun, numdiff, symplectic as sp, verify
from siegeljacobi.errors import DomainViolation, NotSymplectic, OutOfDomain
from siegeljacobi.jacobi import CSPoint


def hyperbolic_element(r):
    return sp.sp_new(np.array([[np.cosh(r)]]), np.array([[np.sinh(r)]]))


def test_sp_new_identity_and_scalar():
    g = sp.sp_identity(2)
    assert sp.membership_residual(g.a, g.b) < 1e-15
    hyperbolic_element(0.3)  # cosh^2 - sinh^2 = 1


def test_sp_new_rejects_garbage():
    with pytest.raises(NotSymplectic):
        sp.sp_new(np.eye(2), np.eye(2))


def test_sp_random_membership_and_determinism():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        g = sp.sp_random(2, 0.6, rng)
        assert sp.membership_residual(g.a, g.b) < 1e-10
    g1 = sp.sp_random(3, 0.5, np.random.default_rng(9))
    g2 = sp.sp_random(3, 0.5, np.random.default_rng(9))
    assert np.array_equal(g1.a, g2.a) and np.array_equal(g1.b, g2.b)


def test_sp_random_zero_scale_is_block_unitary():
    g = sp.sp_random(2, 0.0, np.random.default_rng(1))
    assert np.allclose(g.b, 0.0)
    assert np.allclose(g.a @ g.a.conj().T, np.eye(2))


def test_sp_inverse():
    assert np.allclose(sp.sp_inverse(sp.sp_identity(2)).a, np.eye(2))
    g = hyperbolic_element(0.4)
    ginv = sp.sp_inverse(g)
    assert abs(ginv.a[0, 0] - np.cosh(0.4)) < 1e-14
    assert abs(ginv.b[0, 0] + np.sinh(0.4)) < 1e-14
    rng = np.random.default_rng(2)
    g = sp.sp_random(3, 0.5, rng)
    prod = sp.sp_compose(g, sp.sp_inverse(g))
    assert np.linalg.norm(prod.a - np.eye(3)) + np.linalg.norm(prod.b) < 1e-11


def test_sp_compose_unit_and_associativity():
    rng = np.random.default_rng(3)
    g = sp.sp_random(2, 0.5, rng)
    gi = sp.sp_compose(g, sp.sp_identity(2))
    assert np.allclose(gi.a, g.a) and np.allclose(gi.b, g.b)
    g1, g2, g3 = (sp.sp_random(2, 0.5, rng) for _ in range(3))
    left = sp.sp_compose(sp.sp_compose(g1, g2), g3)
    right = sp.sp_compose(g1, sp.sp_compose(g2, g3))
    assert np.linalg.norm(left.a - right.a) + np.linalg.norm(left.b - right.b) < 1e-11


def test_gauss_identity_and_scalar():
    f = sp.gauss_decompose(sp.sp_identity(2))
    assert np.allclose(f.y, 0) and np.allclose(f.yp, 0)
    assert np.allclose(f.gamma, np.eye(2)) and np.allclose(f.delta, np.eye(2))
    f = sp.gauss_decompose(hyperbolic_element(0.5))
    assert abs(f.y[0, 0] - np.tanh(0.5)) < 1e-14


def test_gauss_random_reassembly():
    rng = np.random.default_rng(4)
    for n in (1, 2, 3):
        g = sp.sp_random(n, 0.6, rng)
        f = sp.gauss_decompose(g)
        re = sp.gauss_reassemble(f)
        assert np.linalg.norm(re.a - g.a) + np.linalg.norm(re.b - g.b) < 1e-10
        assert np.linalg.norm(f.y - f.y.T) < 1e-12
        gram = np.eye(n) - f.y @ f.y.conj().T
        assert np.abs(gram - np.linalg.inv(g.a @ g.a.conj().T)).max() < 1e-10
        assert np.linalg.eigvalsh(gram).min() > 0


def test_cartan_identity_scalar_and_reassembly():
    f = sp.cartan_decompose(sp.sp_identity(2))
    assert np.allclose(f.z, 0) and np.allclose(f.v, np.eye(2))
    f = sp.cartan_decompose(hyperbolic_element(0.3))
    assert abs(f.z[0, 0] - 0.3) < 1e-13
    assert abs(f.v[0, 0] - 1.0) < 1e-13
    rng = np.random.default_rng(5)
    for n in (1, 2, 3):
        g = sp.sp_random(n, 0.6, rng)
        f = sp.cartan_decompose(g)
        re = sp.cartan_synthesize(f.z, f.v)
        assert np.linalg.norm(re.a - g.a) + np.linalg.norm(re.b - g.b) < 1e-9
        assert np.linalg.norm(f.v @ f.v.conj().T - np.eye(n)) < 1e-11


def test_generator_domain_maps():
    assert np.allclose(sp.w_of_z(np.zeros((2, 2), dtype=complex)), 0)
    assert np.allclose(sp.z_of_w(np.zeros((2, 2), dtype=complex)), 0)
    r = 0.8
    assert abs(sp.w_of_z(np.array([[r]], dtype=complex))[0, 0] - np.tanh(r)) < 1e-14
    rng = np.random.default_rng(6)
    z = sp.random_symmetric(2, 0.6, rng)
    assert np.abs(sp.z_of_w(sp.w_of_z(z)) - z).max() < 1e-11
    w = sp.random_siegel_point(2, 0.5, rng)
    eta = sp.siegel_eta(w)
    assert np.abs(
        matfun.herm_func(eta, np.exp) - (np.eye(2) - w @ w.conj().T)
    ).max() < 1e-12


def test_moebius_identity_and_unitary_rotation():
    rng = np.random.default_rng(7)
    w = sp.random_siegel_point(2, 0.5, rng)
    assert np.abs(sp.moebius(sp.sp_identity(2), w) - w).max() < 1e-14
    # b = 0 with unitary a: W -> a W a^T, and the origin is fixed
    g0 = sp.sp_random(2, 0.0, rng)
    image = sp.moebius(g0, w)
    assert np.abs(image - g0.a @ w @ g0.a.T).max() < 1e-12
    assert np.abs(sp.moebius(g0, np.zeros((2, 2), dtype=complex))).max() < 1e-14


def test_moebius_two_forms_and_action():
    rng = np.random.default_rng(8)
    for _ in range(20):
        g1 = sp.sp_random(2, 0.5, rng)
        g2 = sp.sp_random(2, 0.5, rng)
        w = sp.random_siegel_point(2, 0.5, rng)
        out = sp.moebius(g1, w)
        assert verify._moebius_residual(g1, w, out) <= 5e-9
        assert matfun.is_siegel(out, tol=1e-12)
        lhs = sp.moebius(g1, sp.moebius(g2, w))
        rhs = sp.moebius(sp.sp_compose(g1, g2), w)
        assert np.abs(lhs - rhs).max() < 1e-10


def test_ball_compose_degenerate_and_scalar():
    rng = np.random.default_rng(9)
    w2 = sp.random_siegel_point(2, 0.4, rng)
    zero = np.zeros((2, 2), dtype=complex)
    w3, v, detv = sp.ball_compose(zero, w2)
    assert np.abs(w3 - w2).max() < 1e-13
    assert np.abs(v - np.eye(2)).max() < 1e-13
    w3, v, detv = sp.ball_compose(w2, zero)
    assert np.abs(w3 - w2).max() < 1e-13
    assert abs(detv - 1.0) < 1e-13

    w1s = np.array([[0.3]], dtype=complex)
    w3, v, detv = sp.ball_compose(w1s, w1s)
    assert abs(w3[0, 0] - 0.6 / 1.09) < 1e-14
    assert abs(detv - 1.0) < 1e-14
    # cross-check against the Cartan coordinate of the raw product
    prod = sp.sp_compose(sp.sp_of(w1s), sp.sp_of(w1s))
    assert abs(sp.gauss_decompose(prod).y[0, 0] - w3[0, 0]) < 1e-14


def test_ball_compose_matches_product_cartan():
    rng = np.random.default_rng(10)
    for _ in range(20):
        w1 = sp.random_siegel_point(2, 0.4, rng)
        w2 = sp.random_siegel_point(2, 0.4, rng)
        w3, v, detv = sp.ball_compose(w1, w2)
        prod = sp.sp_compose(sp.sp_of(w1), sp.sp_of(w2))
        assert np.abs(w3 - sp.gauss_decompose(prod).y).max() < 1e-9
        assert abs(abs(detv) - 1.0) < 1e-10
        assert abs(np.linalg.det(v) - detv) < 1e-9


def test_sp_kernel_values_and_symmetry():
    zero = np.zeros((1, 1), dtype=complex)
    assert sp.sp_kernel(zero, zero, 4.0) == 1
    z6 = np.array([[0.6]], dtype=complex)
    assert abs(sp.sp_kernel(z6, z6, 4.0) - 2.44140625) < 1e-12
    rng = np.random.default_rng(11)
    x = sp.random_siegel_point(2, 0.5, rng)
    y = sp.random_siegel_point(2, 0.5, rng)
    assert abs(sp.sp_kernel(x, y, 4.0) - np.conj(sp.sp_kernel(y, x, 4.0))) < 1e-12


def test_kernel_transformation_law():
    rng = np.random.default_rng(12)
    for n in (1, 2, 3):
        g = sp.sp_random(n, 0.4, rng)
        x = sp.random_siegel_point(n, 0.4, rng)
        y = sp.random_siegel_point(n, 0.4, rng)
        lhs = sp.sp_kernel(sp.moebius(g, x), sp.moebius(g, y), 4.0)
        rhs = (
            sp.multiplier(g, y, 4.0)
            * sp.sp_kernel(x, y, 4.0)
            * np.conj(sp.multiplier(g, x, 4.0))
        )
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))


def domain_form(w, k):
    """Invariant two-form of the domain: the W block of the Kahler form at z = 0."""
    n = w.shape[0]
    return jacobi.kahler_form(CSPoint(z=np.zeros(n, dtype=complex), W=w), k)[n:, n:]


def test_domain_form_scalar_and_fd():
    # scalar coefficient is the Hessian of -(k/2) log(1 - |w|^2): k/2 at w = 0
    k = 4.0
    h = domain_form(np.zeros((1, 1), dtype=complex), k)
    assert abs(h[0, 0] - k / 2) < 1e-14
    rng = np.random.default_rng(13)
    w = sp.random_siegel_point(2, 0.5, rng)
    closed = domain_form(w, k)
    fd = numdiff.wirtinger_hessian(
        lambda pt: -0.5 * k * matfun.principal_logdet(
            np.eye(2) - pt.W @ pt.W.conj()
        ).real,
        CSPoint(z=np.zeros(2, dtype=complex), W=w),
    )[2:, 2:]
    assert np.abs(closed - fd).max() < 1e-6


def test_domain_form_positive_definite():
    rng = np.random.default_rng(14)
    for _ in range(100):
        w = sp.random_siegel_point(2, 0.6, rng)
        h = domain_form(w, 4.0)
        assert np.linalg.eigvalsh(0.5 * (h + h.conj().T)).min() > 0


def test_sp_density_values_and_invariance():
    assert sp.sp_density(np.zeros((2, 2), dtype=complex)) == 1.0
    w6 = np.array([[0.6]], dtype=complex)
    assert abs(sp.sp_density(w6) - 2.44140625) < 1e-12
    rng = np.random.default_rng(15)
    g = sp.sp_random(2, 0.4, rng)
    w = sp.random_siegel_point(2, 0.4, rng)
    jac = numdiff.w_jacobian(lambda ww: sp.moebius(g, ww), w)
    lhs = sp.sp_density(sp.moebius(g, w)) * abs(np.linalg.det(jac)) ** 2
    assert abs(lhs - sp.sp_density(w)) < 1e-6 * sp.sp_density(w)


@pytest.mark.parametrize("w", [[[1.5]], [[1.2, 0.0], [0.0, 1.1]]])
def test_sp_density_rejects_w_outside_the_domain(w):
    with pytest.raises(DomainViolation, match="not positive definite"):
        sp.sp_density(np.array(w, dtype=complex))


def test_jn_values_and_forms():
    # radial quadrature oracle for the disk: J_1(p) = pi/(p+1)
    from scipy.integrate import quad

    for p in (0.0, 2.0):
        oracle = 2 * math.pi * quad(lambda r: (1 - r * r) ** p * r, 0.0, 1.0)[0]
        assert abs(sp.jn(p, 1) - oracle) < 1e-10
    assert abs(sp.jn(0.0, 1) - math.pi) < 1e-13
    assert abs(sp.jn(2.0, 1) - math.pi / 3) < 1e-13
    rng = np.random.default_rng(16)
    for n in (1, 2, 3, 4):
        for _ in range(50):
            assert verify._jn_forms_residual(rng.uniform(-0.9, 8.0), n) <= 1e-12
    with pytest.raises(OutOfDomain):
        sp.jn(-1.0, 2)


def test_jn_monte_carlo_n2():
    # per-sample relative sigma is about 4.6; two million samples put the
    # 1% tolerance at three standard errors (and the seed is fixed)
    rng = np.random.default_rng(17)
    count = 2_000_000
    w11 = rng.uniform(-1, 1, count) + 1j * rng.uniform(-1, 1, count)
    w12 = rng.uniform(-1, 1, count) + 1j * rng.uniform(-1, 1, count)
    w22 = rng.uniform(-1, 1, count) + 1j * rng.uniform(-1, 1, count)
    s11 = 1.0 - (np.abs(w11) ** 2 + np.abs(w12) ** 2)
    s22 = 1.0 - (np.abs(w22) ** 2 + np.abs(w12) ** 2)
    s12 = -(w11 * np.conj(w12) + w12 * np.conj(w22))
    det = (s11 * s22 - np.abs(s12) ** 2).real
    inside = (det > 0) & (s11 + s22 > 0)
    est = 64.0 * np.where(inside, det, 0.0).mean()
    assert abs(est - sp.jn(1.0, 2)) < 0.01 * sp.jn(1.0, 2)


def test_lambda1_values():
    assert abs(sp.lambda1(4.0, 1) - 1 / math.pi) < 1e-14
    assert abs(sp.lambda1(6.0, 1) - 2 / math.pi) < 1e-14
    val = sp.lambda1(8.0, 2)
    assert abs(val - 1.0 / sp.jn(8.0 / 2 - 3, 2)) < 1e-12 * val
    with pytest.raises(OutOfDomain):
        sp.lambda1(3.0, 2)


def test_wallach_admissible():
    assert sp.wallach_admissible(3.0, 2)
    assert not sp.wallach_admissible(0.5, 2)
    assert sp.wallach_admissible(0.0, 2)
    assert sp.wallach_admissible(1.0, 2)
    assert not sp.wallach_admissible(1.5, 3)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sp_representation_is_pik_apply_at_zero_translation(n):
    # the Sp(n, R) representation on functions of W is the alpha = 0,
    # t = 0 face of jacobi.pik_apply; it composes along sp_compose
    rng = np.random.default_rng(18 + n)
    zero = np.zeros(n, dtype=complex)

    def f(pt):
        return complex(pt.W.sum() + pt.W[0, 0] ** 2) + 1.0

    def rep(g, fun):
        return lambda pt: jacobi.pik_apply(jacobi.JacobiElement(g=g, alpha=zero), 4, fun, pt)

    x = CSPoint(z=zero, W=sp.random_siegel_point(n, 0.4, rng))
    assert abs(rep(sp.sp_identity(n), f)(x) - f(x)) < 1e-14
    for _ in range(20):
        g1 = sp.sp_random(n, 0.4, rng)
        g2 = sp.sp_random(n, 0.4, rng)
        x = CSPoint(z=zero, W=sp.random_siegel_point(n, 0.4, rng))
        lhs = rep(g1, rep(g2, f))(x)
        rhs = rep(sp.sp_compose(g1, g2), f)(x)
        assert abs(lhs - rhs) < 1e-12 * abs(rhs)
    with pytest.raises(ValueError):
        jacobi.pik_apply(jacobi.JacobiElement(g=g1, alpha=zero), 3, f, x)


def test_multiplier_cocycle():
    rng = np.random.default_rng(19)
    for _ in range(20):
        g1 = sp.sp_random(2, 0.4, rng)
        g2 = sp.sp_random(2, 0.4, rng)
        w = sp.random_siegel_point(2, 0.4, rng)
        lhs = sp.multiplier(sp.sp_compose(g1, g2), w, 4.0)
        rhs = sp.multiplier(g1, sp.moebius(g2, w), 4.0) * sp.multiplier(g2, w, 4.0)
        assert abs(lhs - rhs) < 1e-10 * abs(lhs)


def test_spelement_json_roundtrip():
    g = sp.sp_random(2, 0.5, np.random.default_rng(20))
    back = sp.SpElement.from_json(g.to_json())
    assert np.allclose(back.a, g.a) and np.allclose(back.b, g.b)
