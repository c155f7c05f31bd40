import numpy as np
import pytest

from siegeljacobi import jacobi, matfun, numdiff, verify
from siegeljacobi.jacobi import CSPoint, cs_coords, cs_from_coords


def per_point_hessian(fun, x, h=5e-4):
    """The stencil of :func:`numdiff.wirtinger_hessian`, one ``fun`` call per
    point: the reference the stacked evaluation must reproduce bit for bit."""
    base = cs_coords(x)
    dim = len(base)
    steps_a = numdiff._wirtinger_steps(h, conjugate=False)
    steps_b = numdiff._wirtinger_steps(h, conjugate=True)
    out = np.zeros((dim, dim), dtype=complex)
    for a in range(dim):
        for b in range(dim):
            acc = 0j
            for da, wa in steps_a:
                for db, wb in steps_b:
                    vec = base.copy()
                    vec[a] += da
                    vec[b] += db
                    acc += wa * wb * fun(cs_from_coords(vec, x.n))
            out[a, b] = acc
    return out


def potential(k):
    return lambda p: jacobi.kahler_potential(p, k)


def domain_potential(k):
    # the log-det lambda of the two-form-hessian check in verify.suite_symplectic
    return lambda pt: -0.5 * k * matfun.principal_logdet(
        np.eye(pt.n) - pt.W @ pt.W.conj()
    ).real


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("make_fun", [potential, domain_potential])
def test_stacked_hessian_matches_per_point_loop(n, make_fun):
    rng = np.random.default_rng(40 + n)
    x = verify._random_point(n, rng, 0.5, 0.6)
    fun = make_fun(4.0)
    fast = numdiff.wirtinger_hessian(fun, x)
    assert fast.tobytes() == per_point_hessian(fun, x).tobytes()


def test_hessian_calls_fun_once_on_the_stencil_stack():
    x = verify._random_point(2, np.random.default_rng(44))
    shapes = []

    def fun(pt):
        shapes.append((pt.z.shape, pt.W.shape))
        return jacobi.kahler_potential(pt, 4.0)

    numdiff.wirtinger_hessian(fun, x)
    assert shapes == [((5, 5, 8, 8, 2), (5, 5, 8, 8, 2, 2))]


def test_hessian_rejects_a_scalar_valued_fun():
    x = CSPoint(z=np.zeros(1, dtype=complex), W=np.zeros((1, 1), dtype=complex))
    with pytest.raises(ValueError, match="shape"):
        numdiff.wirtinger_hessian(lambda pt: 1.0, x)
