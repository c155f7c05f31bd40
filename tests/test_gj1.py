import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siegeljacobi import gj1, jacobi, verify
from siegeljacobi.errors import DomainViolation
from siegeljacobi.jacobi import CSPoint, JacobiElement


def test_pn_golden_table():
    assert [gj1.pn_poly(i).text() for i in range(6)] == list(verify._PN_TABLE)


def test_pn_generating_function():
    # exp(zt + w t^2/2) = sum P_n t^n / n!
    z, w, t = 0.4 + 0.1j, 0.2 - 0.3j, 0.3
    direct = np.exp(z * t + w * t * t / 2)
    series = sum(
        gj1.pn_value(n, z, w) * t**n / math.factorial(n) for n in range(40)
    )
    assert abs(direct - series) < 1e-14


@given(st.integers(min_value=0, max_value=12))
@settings(max_examples=13, deadline=None)
def test_hermite_identity_exact(n):
    assert gj1.hermite_exact_equal(n)


def test_basis_fn_weights():
    # constant basis function at the base point of the expansion
    assert abs(gj1.basis_fn(0, 0, 4.0, 0.3, 0.2) - 1.0) < 1e-14
    # first disk weight is sqrt(k/2) w
    k = 6.8
    w = 0.25 + 0.1j
    val = gj1.basis_fn(0, 1, k, 0.0, w)
    assert abs(val - math.sqrt(k / 2) * w) < 1e-14


def test_kernel_series_converges():
    z, w, zp, wp = 0.1, 0.2, 0.2, 0.1
    # the closed kernel at k = 4, second point conjugated
    x = CSPoint(z=np.array([z + 0j]), W=np.array([[w + 0j]]))
    y = CSPoint(z=np.array([zp + 0j]), W=np.array([[wp + 0j]]))
    closed = jacobi.kernel(y, x, 4.0)
    series = gj1.kernel_series(z, w, zp, wp, 4.0, 40)
    assert abs(series - closed) / abs(closed) < 1e-6
    # truncation error is monotone in the order
    errs = [
        abs(gj1.kernel_series(z, w, zp, wp, 4.0, order) - closed)
        for order in (5, 10, 20, 40)
    ]
    assert all(errs[i + 1] <= errs[i] for i in range(len(errs) - 1))


def test_kernel_matches_general_module():
    # the one-variable closed kernel equals the general one at n = 1
    k = 3.0
    x = CSPoint(z=np.array([0.2 + 0.1j]), W=np.array([[0.3 - 0.2j]]))
    y = CSPoint(z=np.array([0.1 - 0.3j]), W=np.array([[0.1 + 0.2j]]))
    # (1 - w conj(w'))^{-k/2} exp(...) at (z, w) = y, (z', w') = x
    z, w = complex(y.z[0]), complex(y.W[0, 0])
    zp, wp = complex(x.z[0]), complex(x.W[0, 0])
    u = 1 - w * np.conj(wp)
    num = 2 * np.conj(zp) * z + z * z * np.conj(wp) + np.conj(zp) ** 2 * w
    lhs = u ** (-k / 2) * np.exp(num / (2 * u))
    rhs = jacobi.kernel(x, y, k)
    assert abs(lhs - rhs) < 1e-12 * abs(rhs)


def test_cayley_values_and_roundtrip():
    w, z = gj1.cayley(1j, 0.3 + 0.2j)
    assert abs(w) < 1e-15 and abs(z - (0.3 + 0.2j)) < 1e-15
    w, _ = gj1.cayley(2j, 0.0)
    assert abs(w - 1 / 3) < 1e-15
    rng = np.random.default_rng(0)
    for _ in range(100):
        v = complex(rng.normal(), abs(rng.normal()) + 0.1)
        u = complex(rng.normal(), rng.normal())
        v2, u2 = gj1.cayley_inverse(*gj1.cayley(v, u))
        assert abs(v - v2) + abs(u - u2) < 1e-12
    with pytest.raises(DomainViolation):
        gj1.cayley(1.0 - 1j, 0.0)


def test_disk_form_matches_general_module():
    # (z, w)-ordered coefficients of the n = 1 form, typed out
    rng = np.random.default_rng(1)
    k = 4.0
    z = complex(0.3 * rng.normal(), 0.3 * rng.normal())
    w = 0.4 * math.tanh(rng.normal()) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    x = CSPoint(z=np.array([z]), W=np.array([[w]]))
    # (k/2)/(1-w wbar)^2 dw ^ dwbar + A ^ Abar / (1 - w wbar) with
    # A = dz + conj(alpha0) dw and alpha0 = (z + zbar w)/(1 - w wbar)
    m = 1.0 / (1 - w * np.conj(w))
    alpha0 = (z + np.conj(z) * w) * m
    disk = np.array(
        [[m, m * alpha0], [m * np.conj(alpha0), k / 2 * m**2 + m * abs(alpha0) ** 2]]
    )
    assert np.abs(disk - jacobi.kahler_form(x, k)).max() < 1e-10


def test_kb_form_pullback():
    assert gj1.kb_form_check(1j, 0.0, 16.0) < 1e-10
    rng = np.random.default_rng(2)
    for _ in range(50):
        v = complex(rng.normal(), abs(rng.normal()) + 0.2)
        u = complex(rng.normal(), rng.normal())
        assert gj1.kb_form_check(v, u, 16.0) < 1e-8
    # leading coefficient at the base point scales like k/8
    k = 16.0
    h = gj1.halfplane_form(1j, 0.0, k)
    assert abs(h[0, 0] - k / 8) < 1e-14


def test_ez_metric_values():
    g = gj1.ez_metric(0.0, 1.0, 0.0, 0.0, 8.0)
    assert np.abs(g - np.eye(4)).max() < 1e-14
    rng = np.random.default_rng(3)
    for _ in range(100):
        x, p, q = rng.normal(size=3)
        y = abs(rng.normal()) + 0.1
        g = gj1.ez_metric(x, y, p, q, 16.0)
        assert np.linalg.eigvalsh(g).min() > 0
    with pytest.raises(DomainViolation):
        gj1.ez_metric(0.0, -1.0, 0.0, 0.0, 8.0)


def test_ez_metric_matches_complex_form():
    rng = np.random.default_rng(4)
    for _ in range(50):
        x, p, q = rng.normal(size=3)
        y = abs(rng.normal()) + 0.2
        assert verify._real_metric_residual(x, y, p, q, 16.0) < 1e-8


def random_sl2(rng):
    m = np.eye(2) + 0.4 * rng.normal(size=(2, 2))
    m /= math.sqrt(abs(np.linalg.det(m)))
    if np.linalg.det(m) < 0:
        m = m @ np.diag([1.0, -1.0])
    return m


def test_gj0_act_basics():
    v, u = 0.3 + 1.2j, 0.5 - 0.4j
    v1, u1 = gj1.gj0_act(np.eye(2), (0.0, 0.0), v, u)
    assert v1 == v and u1 == u
    v1, u1 = gj1.gj0_act(np.eye(2), (1.0, 0.0), v, u)
    assert abs(u1 - (u + v)) < 1e-15
    assert v1.imag > 0


def test_gj0_action_property():
    rng = np.random.default_rng(5)
    for _ in range(50):
        m1, m2 = random_sl2(rng), random_sl2(rng)
        l1, l2 = rng.normal(size=2), rng.normal(size=2)
        v = complex(rng.normal(), abs(rng.normal()) + 0.3)
        u = complex(rng.normal(), rng.normal())
        step = gj1.gj0_act(m1, l1, *gj1.gj0_act(m2, l2, v, u))
        m12, l12 = gj1.gj0_compose(m1, l1, m2, l2)
        direct = gj1.gj0_act(m12, l12, v, u)
        assert abs(step[0] - direct[0]) + abs(step[1] - direct[1]) < 1e-11


def test_parameter_matching_is_homomorphism():
    # (M, l) -> (g, alpha) respects the two composition laws (central part aside)
    rng = np.random.default_rng(7)
    for _ in range(30):
        m1, m2 = random_sl2(rng), random_sl2(rng)
        l1, l2 = rng.normal(size=2), rng.normal(size=2)
        g1, a1 = gj1.match_jacobi_parameters(m1, l1)
        g2, a2 = gj1.match_jacobi_parameters(m2, l2)
        h12 = jacobi.jacobi_compose(
            JacobiElement(g=g1, alpha=a1), JacobiElement(g=g2, alpha=a2)
        )
        gd, ad = gj1.match_jacobi_parameters(*gj1.gj0_compose(m1, l1, m2, l2))
        assert np.abs(h12.g.a - gd.a).max() < 1e-12
        assert np.abs(h12.g.b - gd.b).max() < 1e-12
        assert np.abs(h12.alpha - ad).max() < 1e-12


def test_cayley_intertwines_group_actions():
    rng = np.random.default_rng(6)
    for _ in range(30):
        m = random_sl2(rng)
        l = rng.normal(size=2)
        v = complex(rng.normal(), abs(rng.normal()) + 0.3)
        u = complex(rng.normal(), rng.normal())
        g, alpha = gj1.match_jacobi_parameters(m, l)
        h = JacobiElement(g=g, alpha=alpha)
        w_direct, z_direct = gj1.cayley(*gj1.gj0_act(m, l, v, u))
        w0, z0 = gj1.cayley(v, u)
        image = jacobi.act(h, CSPoint(z=np.array([z0]), W=np.array([[w0]])))
        assert abs(complex(image.W[0, 0]) - w_direct) < 1e-8
        assert abs(complex(image.z[0]) - z_direct) < 1e-8
