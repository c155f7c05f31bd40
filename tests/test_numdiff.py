import math

import numpy as np
import pytest

from siegeljacobi import jacobi, matfun, numdiff, symplectic, verify
from siegeljacobi.jacobi import CSPoint, cs_coords, cs_from_coords


def per_point_hessian(fun, x, h=None):
    """The stencil of :func:`numdiff.wirtinger_hessian` at step ``h`` (by
    default the step it takes at ``x``), one ``fun`` call per point: the
    reference the stacked evaluation must reproduce bit for bit.

    ``L(u)``, a quarter of the Laplacian in ``s`` of ``f(xi + s u)``, is the
    five-point second difference along ``Re s`` and ``Im s``; the Hessian
    is its polarization."""
    base = cs_coords(x)
    dim = len(base)
    if h is None:
        h = 5e-4 * 0.5 ** numdiff._step_halvings(cs_from_coords(base, x.n).W)
    steps = [h, 2 * h, 1j * h, 2j * h, -h, -2 * h, -1j * h, -2j * h]
    weights = [16.0, -1.0] * 4
    centre = fun(cs_from_coords(base, x.n))

    def levi(a, b=None, turned=False):
        acc = None
        for s, wt in zip(steps, weights):
            vec = base.copy()
            vec[a] += s
            if b is not None:
                vec[b] += 1j * s if turned else s
            term = (fun(cs_from_coords(vec, x.n)) - centre) * wt
            acc = term if acc is None else acc + term
        return acc / (48 * h * h)

    diag = [levi(a) for a in range(dim)]
    out = np.zeros((dim, dim), dtype=complex)
    for a in range(dim):
        out[a, a] = diag[a]
        for b in range(a + 1, dim):
            re = (levi(a, b) - diag[a] - diag[b]) * 0.5
            im = (levi(a, b, turned=True) - diag[a] - diag[b]) * 0.5
            out[a, b], out[b, a] = complex(re, im), complex(re, -im)
    return out


def per_point_jacobian(mapping, x, h=1e-6):
    """The stencil of :func:`numdiff.holomorphic_jacobian`, one ``mapping``
    call per point: the reference the stacked evaluation must reproduce bit
    for bit."""
    base = cs_coords(x)
    dim = len(base)
    out = np.zeros((dim, dim), dtype=complex)
    for b in range(dim):
        cols = []
        for step in (h, -h, 1j * h, -1j * h):
            vec = base.copy()
            vec[b] += step
            cols.append(cs_coords(mapping(cs_from_coords(vec, x.n))))
        d_re = (cols[0] - cols[1]) / (2 * h)
        d_im = (cols[2] - cols[3]) / (2 * h)
        out[:, b] = 0.5 * (d_re - 1j * d_im)
    return out


def lifted(mapping):
    """A domain self-map ``mapping`` of ``W`` lifted to C^n x D_n with
    ``z = 0``: its Jacobian is the ``w`` block ``[n:, n:]`` of the lift's."""
    return lambda pt: CSPoint(z=np.zeros(pt.z.shape, dtype=complex), W=mapping(pt.W))


def potential(k):
    return lambda p: jacobi.kahler_potential(p, k)


def domain_potential(k):
    # the log-det lambda of the two-form-hessian check in verify.suite_symplectic
    return lambda pt: -0.5 * k * matfun.logdet_hpd(np.eye(pt.n) - pt.W @ pt.W.conj())


def asymmetric(k):
    """``k Re(z_0 conj(w_01)^2) + |z_1|^2 Im(w_00)``: no symmetry between its
    coordinates, so a stencil that paired the points of ``(a, b)`` and
    ``(b, a)`` wrongly would show.  Written in real arithmetic, which rounds
    the same on a stack as on one point (numpy's complex products do not)."""

    def fun(pt):
        z0, w01 = pt.z[..., 0], pt.W[..., 0, 1]
        a, b, c, d = z0.real, z0.imag, w01.real, w01.imag
        z1 = pt.z[..., 1]
        re = a * (c * c - d * d) + 2.0 * b * c * d
        return k * re + (z1.real * z1.real + z1.imag * z1.imag) * pt.W[..., 0, 0].imag

    return fun


def near_boundary_point(n, rng):
    x = verify._random_point(n, rng, 0.5, 0.6)
    w_norm = rng.uniform(0.9, 0.999)
    return CSPoint(z=x.z, W=x.W * (w_norm / np.linalg.norm(x.W, 2)))


POINTS = {
    "interior": lambda n, rng: verify._random_point(n, rng, 0.5, 0.6),
    "near-boundary": near_boundary_point,
}


def _hessian_case(make_fun, n, k, where):
    # the interior points at k = 4 keep their ids of "<fun>-<n>"
    tail = "" if (k, where) == (4.0, "interior") else f"-k{k:g}-{where}"
    return pytest.param(make_fun, n, k, where, id=f"{make_fun.__name__}-{n}{tail}")


@pytest.mark.parametrize(
    "make_fun, n, k, where",
    [
        _hessian_case(make_fun, n, k, where)
        for make_fun, dims in (
            (potential, (1, 2, 3)),
            (domain_potential, (1, 2, 3)),
            (asymmetric, (2, 3)),
        )
        for n in dims
        for k in (4.0, 3.0)
        for where in POINTS
    ],
)
def test_stacked_hessian_matches_per_point_loop(make_fun, n, k, where):
    rng = np.random.default_rng(40 + n)
    x = POINTS[where](n, rng)
    fun = make_fun(k)
    fast = numdiff.wirtinger_hessian(fun, x)
    assert fast.tobytes() == per_point_hessian(fun, x).tobytes()
    # Hermitian bit for bit (array_equal: the real diagonal's +0.0 imaginary
    # parts conjugate to -0.0)
    assert np.array_equal(fast, fast.conj().T)
    assert not np.diag(fast).imag.any()


def power_of_linear_form(degree):
    """``Re(L^degree)`` for a fixed complex linear form ``L = sum_a c_a xi_a +
    d_a xibar_a`` in five coordinates (n = 2), with its exact Wirtinger
    Hessian ``1/2 degree (degree - 1) [L^(degree-2) c_a d_b + conj(L^(degree-2)
    d_a c_b)]``: a real polynomial of that degree in the coordinates."""
    rng = np.random.default_rng(degree)
    c, d = rng.normal(size=(2, 5)) + 1j * rng.normal(size=(2, 5))

    def fun(pt):
        xi = cs_coords(pt)
        return float(np.real((c @ xi + d @ xi.conj()) ** degree))

    def exact(pt):
        xi = cs_coords(pt)
        pw = (c @ xi + d @ xi.conj()) ** (degree - 2)
        return 0.5 * degree * (degree - 1) * (pw * np.outer(c, d) + np.conj(pw * np.outer(d, c)))

    return fun, exact


def test_hessian_stencil_is_fourth_order():
    # at h = 5e-4 rounding hides the truncation error, so the per-point
    # stencil runs at larger steps: a quintic has no O(h^4) term and comes out
    # exact to rounding, a sextic has only the O(h^4) term, so halving h
    # divides its error by 16
    x = verify._random_point(2, np.random.default_rng(49), 0.5, 0.6)
    fun, exact = power_of_linear_form(5)
    want = exact(x)
    assert np.abs(per_point_hessian(fun, x, h=0.05) - want).max() < 1e-12 * np.abs(want).max()
    fun, exact = power_of_linear_form(6)
    err = [np.abs(per_point_hessian(fun, x, h) - exact(x)).max() for h in (0.05, 0.025)]
    assert 15.5 < err[0] / err[1] < 16.5


def test_hessian_calls_fun_once_on_the_stencil_stack():
    x = verify._random_point(2, np.random.default_rng(44))
    shapes = []

    def fun(pt):
        shapes.append((pt.z.shape, pt.W.shape))
        return jacobi.kahler_potential(pt, 4.0)

    numdiff.wirtinger_hessian(fun, x)
    # dim = 5 coordinates give 25 directions of 8 points and one centre: (AB)
    # for each of the 3 w_b its 5 directions, all stepping w_b by the same 8
    # steps, and 3 slots at the centre's W whose 15 z hold the centre and
    # the 4 directions in z (33 points, then the centre again); (C) the 3 w-w
    # pairs, two directions each.  z and W keep only the stencil axes they
    # move along
    assert shapes == [
        ((3, 5, 11, 2), (3, 1, 11, 2, 2)),
        ((1, 1, 1, 2), (3, 2, 8, 2, 2)),
    ]


@pytest.mark.parametrize("n, points, matrices", [(1, 33, 11), (2, 213, 81), (3, 660, 300)])
def test_hessian_of_the_potential_factors_each_distinct_w_once(monkeypatch, n, points, matrices):
    # one call for the centre and the directions through z and each w_b, one
    # for the w-w pairs (none at n = 1); the points hold these many W, each
    # factored once: the distinct ones, and the centre's in 3 / 9 / 12 slots
    leads, factored = [], []
    logdet_hpd = matfun.logdet_hpd

    def spy(m):
        factored.append(int(np.prod(np.shape(m)[:-2])))
        return logdet_hpd(m)

    def fun(pt):
        leads.append(np.broadcast_shapes(pt.z.shape[:-1], pt.W.shape[:-2]))
        return jacobi.kahler_potential(pt, 4.0)

    monkeypatch.setattr(matfun, "logdet_hpd", spy)
    x = verify._random_point(n, np.random.default_rng(50 + n))
    numdiff.wirtinger_hessian(fun, x)
    assert len(leads) == (1 if n == 1 else 2)
    assert sum(np.prod(lead) for lead in leads) == points
    assert sum(factored) == matrices


def test_hessian_rejects_a_scalar_valued_fun():
    x = CSPoint(z=np.zeros(1, dtype=complex), W=np.zeros((1, 1), dtype=complex))
    with pytest.raises(ValueError, match="shape"):
        numdiff.wirtinger_hessian(lambda pt: 1.0, x)
    # axes that do not broadcast to a call's leading shape ((1, 3, 11), the
    # one call at n = 1), or one axis too many, are rejected too
    with pytest.raises(ValueError, match=r"\(1, 3, 11\)"):
        numdiff.wirtinger_hessian(lambda pt: np.zeros((1, 3, 8)), x)
    with pytest.raises(ValueError, match="shape"):
        numdiff.wirtinger_hessian(lambda pt: np.zeros((1, 3, 11, 1)), x)

    # at n = 2, a fun wrong only on the w-w pairs' call, of leading shape (3, 2, 8)
    def wrong_in_c(pt):
        lead = np.broadcast_shapes(pt.z.shape[:-1], pt.W.shape[:-2])
        return np.zeros(lead[:-1] + (7,) if lead[-1] == 8 else lead)

    with pytest.raises(ValueError, match=r"\(3, 2, 8\)"):
        numdiff.wirtinger_hessian(wrong_in_c, verify._random_point(2, np.random.default_rng(43)))


@pytest.mark.parametrize("halvings", [0, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_stencil_plan_gathers_eight_points_on_each_direction(n, halvings):
    plan = numdiff._stencil_plan(n, halvings)
    assert numdiff._stencil_plan(n, halvings) is plan  # built once
    arrays = [plan.take, plan.rows, plan.cols, plan.place]
    arrays += [a for _, dz, dw in plan.calls for a in (dz, dw)]
    assert not any(a.flags.writeable for a in arrays)
    # the offset of every point of the calls, one after the other, in the
    # coordinates z_a, then w_ij (i <= j) of a symmetric W
    dim = n + n * (n + 1) // 2
    offsets = []
    for lead, dz, dw in plan.calls:
        dz, dw = np.broadcast_to(dz, lead + (n,)), np.broadcast_to(dw, lead + (n, n))
        assert np.array_equal(dw, dw.swapaxes(-1, -2))
        offsets.append(cs_coords(CSPoint(z=dz, W=dw)).reshape(-1, dim))
    offsets = np.concatenate(offsets)
    assert len(offsets) == plan.points == {1: 33, 2: 213, 3: 660}[n]
    assert not offsets[plan.centre].any()
    # direction e_a, e_a + e_b, e_a + i e_b (a < b): its eight points are the
    # centre plus s u for the steps s in turn
    h = 5e-4 / 2**halvings
    assert plan.scale == 48 * h * h
    steps = h * np.array([1, 2, 1j, 2j, -1, -2, -1j, -2j])
    rows, cols = np.triu_indices(dim, 1)
    eye = np.eye(dim)
    dirs = np.concatenate([eye, eye[rows] + eye[cols], eye[rows] + 1j * eye[cols]])
    assert plan.take.shape == (8, dim * dim)
    for u, take in zip(dirs, plan.take.T):
        assert np.array_equal(offsets[take], steps[:, None] * u)


def test_hessian_step_shrinks_with_the_distance_to_the_boundary():
    # the full step up to ||W||_2 = 0.86 (also where ||W||_F > 0.85), then the
    # power of two nearest (1 - ||W||_2) / 0.2; W on or outside the boundary,
    # or not finite, keeps the full step
    def halvings(norms):
        return numdiff._step_halvings(np.diag(np.array(norms, dtype=complex)))

    assert [halvings([r, r, r]) for r in (0.0, 0.6, 0.85, 0.858)] == [0, 0, 0, 0]
    assert [halvings([r, 0.5]) for r in (0.86, 0.9, 0.95, 0.97, 0.99, 0.995)] == [1, 1, 2, 3, 4, 5]
    assert [halvings([r]) for r in (1.0, 1.5, math.nan)] == [0, 0, 0]


@pytest.mark.parametrize("n", [2, 3])
def test_hessian_stays_accurate_near_the_boundary(monkeypatch, n):
    # the form's entries grow like (1 - ||W||_2)^-2 (hundreds at 0.97); the
    # shrinking step keeps the Hessian within 5e-6 of the closed form (1.6e-6
    # here), where the full step misses the 1e-5 bound at 0.97
    rng = np.random.default_rng(60 + n)
    errors = []
    for r in (0.9, 0.95, 0.97):
        x = verify._random_point(n, rng, 0.5, 0.6)
        x = CSPoint(z=x.z, W=x.W * (r / np.linalg.norm(x.W, 2)))
        closed = jacobi.kahler_form(x, 4.0)
        errors.append(np.abs(numdiff.wirtinger_hessian(potential(4.0), x) - closed).max())
    assert max(errors) < 5e-6
    monkeypatch.setattr(numdiff, "_step_halvings", lambda w: 0)
    full = np.abs(numdiff.wirtinger_hessian(potential(4.0), x) - closed).max()
    assert full > 1e-5


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("where", sorted(POINTS))
def test_stacked_jacobians_match_per_point_loops(n, where):
    rng = np.random.default_rng(90 + n)
    x = POINTS[where](n, rng)
    h = verify._random_element(n, rng, 0.4)

    def act(p):
        return jacobi.act(h, p)

    def moebius(w):
        return symplectic.moebius(h.g, w)

    assert numdiff.holomorphic_jacobian(act, x).tobytes() == per_point_jacobian(act, x).tobytes()
    x0 = CSPoint(z=np.zeros(n, dtype=complex), W=x.W)
    fast = numdiff.holomorphic_jacobian(lifted(moebius), x0)[n:, n:]
    assert fast.tobytes() == per_point_jacobian(lifted(moebius), x0)[n:, n:].tobytes()


def test_jacobians_call_mapping_once_on_the_stencil_stack():
    x = verify._random_point(2, np.random.default_rng(45))
    h = verify._random_element(2, np.random.default_rng(46), 0.4)
    shapes = []

    def mapping(pt):
        shapes.append((pt.z.shape, pt.W.shape))
        return jacobi.act(h, pt)

    numdiff.holomorphic_jacobian(mapping, x)
    # dim = 5 coordinates of four steps each
    assert shapes == [((5, 4, 2), (5, 4, 2, 2))]

    def w_mapping(w):
        shapes.append(w.shape)
        return symplectic.moebius(h.g, w)

    numdiff.holomorphic_jacobian(lifted(w_mapping), x)
    # the lifted domain map takes the W stack of all five coordinates
    assert shapes[1:] == [(5, 4, 2, 2)]


def test_jacobians_reject_a_mapping_of_the_wrong_shape():
    x = verify._random_point(2, np.random.default_rng(47))
    with pytest.raises(ValueError, match="shape"):
        numdiff.holomorphic_jacobian(lambda pt: x, x)
    # a domain map lifted with z = 0 that returns one W for the whole stencil:
    # its z and W leading shapes disagree
    with pytest.raises(ValueError, match=r"mapping returned leading shape \(\), expected \(5, 4\)"):
        numdiff.holomorphic_jacobian(lifted(lambda w: x.W), x)


def test_hessian_rejects_a_complex_valued_fun():
    x = verify._random_point(1, np.random.default_rng(48))
    with pytest.raises(ValueError, match="complex"):
        numdiff.wirtinger_hessian(lambda pt: pt.z[..., 0], x)
