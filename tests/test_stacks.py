"""The closed forms on stacks: each entry of a stacked call has the bits of
its own single call, the stacked draws are the successive single draws, a
stacked validation error names the index that failed, and the Jacobi,
symplectic and half-plane suites evaluate each identity once per stack."""

import dataclasses
import inspect
import types
import warnings

import numpy as np
import pytest

from siegeljacobi import gj1, jacobi, matfun, symplectic, verify
from siegeljacobi.errors import DomainViolation, NonHermitian, NotSymmetric, NotSymplectic, Singular

COUNT = 7


def _same(a, b) -> bool:
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def _symmetric(n, scale, rng, count=COUNT):
    """A stack of ``count`` random symmetric matrices, built from one normal
    draw by the builder of :func:`symplectic.random_symmetric`."""
    return symplectic._symmetric_of(rng.normal(size=(count, symplectic.SYM_BLOCKS, n, n)),
                                    scale)


def _siegel(n, scale, rng, count=COUNT):
    """A stack of random domain points, as :func:`_symmetric` builds them."""
    return verify._siegel_points(rng.normal(size=(count, symplectic.SYM_BLOCKS, n, n)), scale)


def _elements(n, scale, rng, count=COUNT):
    """A stack of random group elements, as :func:`_symmetric` builds them."""
    return symplectic._sp_of_normals(rng.normal(size=(count, symplectic.SP_BLOCKS, n, n)),
                                     scale)


def _stack_draws(n, seed):
    """``COUNT`` elements, second elements and points, as
    :func:`verify.suite_jacobi` draws them."""
    rng = np.random.default_rng(seed)
    draws = [(verify._element_draws(n, rng), verify._element_draws(n, rng),
              verify._point_draws(n, rng)) for _ in range(COUNT)]
    h, h2 = (verify._bounded_elements(d, 0.35) for d in list(zip(*draws))[:2])
    return h, h2, verify._points([d[2] for d in draws], 0.35, 0.35)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_spectral_layer_stacks_equal_single_calls(n):
    rng = np.random.default_rng(300 + n)
    z = _symmetric(n, 0.6, rng)
    h = z @ z.conj().swapaxes(-1, -2)
    dec = matfun.herm_eig(h)
    blocks = matfun.cartan_blocks(z)
    roots = matfun.herm_func(h, np.sqrt)
    w = _siegel(n, 0.5, rng)
    inside = matfun.is_siegel(w)
    assert inside.shape == (COUNT,) and inside.all()
    for i in range(COUNT):
        one = matfun.herm_eig(h[i])
        assert _same(dec.evals[i], one.evals) and _same(dec.evecs[i], one.evecs)
        assert _same(dec.apply(np.cosh)[i], one.apply(np.cosh))
        assert all(_same(b[i], c) for b, c in zip(blocks, matfun.cartan_blocks(z[i])))
        assert _same(roots[i], matfun.herm_func(h[i], np.sqrt))
        assert _same(matfun.check_symmetric(z)[i], matfun.check_symmetric(z[i]))
        assert matfun.is_siegel(w[i]) is True


#: Every public symplectic function of group elements or domain points (and
#: the two of Cartan data), as a call on the inputs ``s``: elements ``g`` and
#: ``h``, domain points ``w`` and ``y``, symmetric ``z`` and unitary ``v``
SYMPLECTIC_CALLS = {
    "sp_inverse": lambda s: symplectic.sp_inverse(s.g),
    "sp_compose": lambda s: symplectic.sp_compose(s.g, s.h),
    "gauss_decompose": lambda s: symplectic.gauss_decompose(s.g),
    "cartan_decompose": lambda s: symplectic.cartan_decompose(s.g),
    "cartan_synthesize": lambda s: symplectic.cartan_synthesize(s.z, s.v),
    "sp_of": lambda s: symplectic.sp_of(s.w),
    "w_of_z": lambda s: symplectic.w_of_z(s.z),
    "z_of_w": lambda s: symplectic.z_of_w(s.w),
    "moebius": lambda s: symplectic.moebius(s.g, s.w),
    "ball_compose": lambda s: symplectic.ball_compose(s.w, s.y),
    "multiplier": lambda s: symplectic.multiplier(s.g, s.w, 3.0),
    "sp_density": lambda s: symplectic.sp_density(s.w),
    "membership_residual": lambda s: symplectic.membership_residual(s.g.a, s.g.b),
}


def _parts(out) -> list:
    """The arrays and numbers of a result: the blocks of an element, the
    fields of factors, the items of a tuple."""
    if isinstance(out, tuple):
        return [part for item in out for part in _parts(item)]
    if dataclasses.is_dataclass(out):
        return [getattr(out, f.name) for f in dataclasses.fields(out)]
    return [out]


def test_the_stack_table_holds_every_function_of_elements_or_points():
    takes = {name for name in symplectic.__all__
             if inspect.isfunction(fn := getattr(symplectic, name))
             and {"g", "g1", "g2", "w", "w1", "w2"} & set(inspect.signature(fn).parameters)}
    assert takes and takes <= set(SYMPLECTIC_CALLS)


# a stack of length n is where ``.T``, which reverses all three axes, keeps
# the shape of a swap of the last two: it gave a wrong gamma without an error
@pytest.mark.parametrize("count", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_symplectic_stacks_equal_single_calls(n, count):
    rng = np.random.default_rng(310 + 10 * count + n)
    stacks = types.SimpleNamespace(
        g=_elements(n, 0.5, rng, count), h=_elements(n, 0.5, rng, count),
        w=_siegel(n, 0.4, rng, count), y=_siegel(n, 0.4, rng, count),
        z=_symmetric(n, 0.5, rng, count), v=_elements(n, 0.0, rng, count).a)
    for name, call in SYMPLECTIC_CALLS.items():
        stacked = _parts(call(stacks))
        for i in range(count):
            single = _parts(call(types.SimpleNamespace(
                **{key: value[i] for key, value in vars(stacks).items()})))
            assert len(single) == len(stacked)
            for part, one in zip(stacked, single):
                # a single call returns matrices, and Python numbers in
                # place of the stack's 1-D arrays
                assert (type(one) in (float, complex) if part.ndim == 1
                        else isinstance(one, np.ndarray) and one.shape == part.shape[1:]), name
                assert part[i].dtype == np.asarray(one).dtype and _same(part[i], one), name


#: Every public half-plane function of points or affine elements, and the
#: block-pair constructor it calls, as a call on the inputs ``s``: half-plane
#: points ``(v, u)``, disk points ``(w, z)``, real coordinates ``(x, y, p,
#: q)``, affine elements ``(m, l)`` and ``(m2, l2)``, and block pairs ``(a, b)``
GJ1_CALLS = {
    "cayley": lambda s: gj1.cayley(s.v, s.u),
    "cayley_inverse": lambda s: gj1.cayley_inverse(s.w, s.z),
    "halfplane_form": lambda s: gj1.halfplane_form(s.v, s.u, 16.0),
    "ez_metric": lambda s: gj1.ez_metric(s.x, s.y, s.p, s.q, 16.0),
    "halfplane_metric_real": lambda s: gj1.halfplane_metric_real(s.x, s.y, s.p, s.q, 16.0),
    "gj0_act": lambda s: gj1.gj0_act(s.m, s.l, s.v, s.u),
    "gj0_compose": lambda s: gj1.gj0_compose(s.m, s.l, s.m2, s.l2),
    "match_jacobi_parameters": lambda s: gj1.match_jacobi_parameters(s.m, s.l),
    "sp_new": lambda s: symplectic.sp_new(s.a, s.b),
}

#: The single-point Kahler-form check (the disk form takes one point) and the
#: one-variable polynomial content, whose ``z, w`` are not half-plane points
GJ1_SINGLE = {"kb_form_check", "pn_value", "basis_fn", "kernel_series"}


def test_the_stack_table_holds_every_half_plane_function():
    takes = {name for name in gj1.__all__
             if inspect.isfunction(fn := getattr(gj1, name))
             and {"v", "w", "m", "m1", "y"} & set(inspect.signature(fn).parameters)}
    assert takes - GJ1_SINGLE and takes - GJ1_SINGLE <= set(GJ1_CALLS)
    assert GJ1_SINGLE <= takes


@pytest.mark.parametrize("count", [2, 3])
def test_half_plane_stacks_equal_single_calls(count):
    rng = np.random.default_rng(340 + count)
    d = rng.normal(size=(count, 18))
    v, u = d[:, 0] + 1j * (np.abs(d[:, 1]) + 0.2), d[:, 2] + 1j * d[:, 3]
    w, z = gj1.cayley(v, u)
    g = _elements(2, 0.5, rng, count)
    stacks = types.SimpleNamespace(
        v=v, u=u, w=w, z=z, x=v.real, y=v.imag, p=d[:, 4], q=d[:, 5],
        m=verify._unimodular(d[:, 6:10]), l=d[:, 10:12],
        m2=verify._unimodular(d[:, 12:16]), l2=d[:, 16:18], a=g.a, b=g.b)
    for name, call in GJ1_CALLS.items():
        stacked = _parts(call(stacks))
        for i in range(count):
            single = _parts(call(types.SimpleNamespace(
                **{key: value[i] for key, value in vars(stacks).items()})))
            assert len(single) == len(stacked)
            for part, one in zip(stacked, single):
                # a single call returns numpy scalars, which are Python
                # numbers, in place of the stack's 1-D arrays
                assert (type(one) in (np.float64, np.complex128) if part.ndim == 1
                        else isinstance(one, np.ndarray) and one.shape == part.shape[1:]), name
                assert part[i].dtype == np.asarray(one).dtype and _same(part[i], one), name
    assert isinstance(gj1.cayley(1j, 0.5)[0], complex)
    # one point broadcast against a stack is that point in every entry
    mixed = gj1.halfplane_form(v[0], u, 16.0)
    for i in range(count):
        assert _same(mixed[i], gj1.halfplane_form(v[0], u[i], 16.0))
    # an empty stack of block pairs has an empty stack of residuals
    assert symplectic.membership_residual(stacks.a[:0], stacks.b[:0]).shape == (0,)
    assert isinstance(verify._real_metric_residual(0.3, 1.2, 0.5, -0.2, 16.0), float)


def test_a_stacked_half_plane_gate_refuses_one_bad_entry():
    v = np.array([1j, 2j, 0.5 - 1j])
    with pytest.raises(DomainViolation, match="Im v > 0"):
        gj1.cayley(v, np.zeros(3))
    with pytest.raises(DomainViolation, match="Im v > 0"):
        gj1.gj0_act(np.eye(2), (0.0, 0.0), v, np.zeros(3))
    with pytest.raises(DomainViolation, match=r"\|w\| < 1"):
        gj1.cayley_inverse(np.array([0.5, 1.0]), np.zeros(2))
    with pytest.raises(DomainViolation, match="y > 0"):
        gj1.ez_metric(0.0, np.array([1.0, 0.0]), 0.0, 0.0, 8.0)
    with pytest.raises(ValueError, match="det m = 1"):
        gj1.gj0_act(np.stack([np.eye(2), 2 * np.eye(2)]), np.zeros((2, 2)), v[:2], 0.0)
    # NaN is outside every domain
    with pytest.raises(DomainViolation, match="Im v > 0"):
        gj1.cayley(np.array([1j, complex(0.0, np.nan)]), 0.0)
    with pytest.raises(DomainViolation, match="Im v > 0"):
        gj1.gj0_act(np.eye(2), (0.0, 0.0), complex(0.0, np.nan), 0.0)
    with pytest.raises(DomainViolation, match=r"\|w\| < 1"):
        gj1.cayley_inverse(np.array([0.5, np.nan]), 0.0)
    with pytest.raises(DomainViolation, match="y > 0"):
        gj1.ez_metric(0.0, np.array([1.0, np.nan]), 0.0, 0.0, 8.0)
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="det m = 1"):
        gj1.gj0_act(np.full((2, 2), np.nan), (0.0, 0.0), 1j, 0.0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_jacobi_stacks_equal_single_calls(n):
    h, h2, x = _stack_draws(n, 320 + n)
    comp = jacobi.jacobi_compose(h, h2)
    image = jacobi.act(h, x)
    data = jacobi.lambda_cocycle(h, x, 4)
    full = jacobi.lambda_full(h, x, 4)
    ez = jacobi.lambda_cocycle_ez(h, x, 4)
    gram = jacobi.kernel(x[:, None], x[None, :], 3.0)
    assert gram.shape == (COUNT, COUNT)
    dens = jacobi.density(x)
    assert dens.shape == (COUNT,)
    for i in range(COUNT):
        one = jacobi.jacobi_compose(h[i], h2[i])
        assert _same(comp.g.a[i], one.g.a) and _same(comp.g.b[i], one.g.b)
        assert _same(comp.alpha[i], one.alpha) and comp.t[i] == one.t
        one = jacobi.act(h[i], x[i])
        assert _same(image.z[i], one.z) and _same(image.W[i], one.W)
        one = jacobi.lambda_cocycle(h[i], x[i], 4)
        assert isinstance(one.lam, complex) and data.lam[i] == one.lam
        assert all(_same(getattr(data, f)[i], getattr(one, f)) for f in ("z1", "W1", "x", "y"))
        assert isinstance(jacobi.lambda_full(h[i], x[i], 4), complex)
        assert full[i] == jacobi.lambda_full(h[i], x[i], 4)
        assert ez[i] == jacobi.lambda_cocycle_ez(h[i], x[i], 4)
        assert isinstance(jacobi.density(x[i]), float) and dens[i] == jacobi.density(x[i])
        for j in range(COUNT):
            assert gram[i, j] == jacobi.kernel(x[i], x[j], 3.0)
    # one element acting on a stack of points, and the residuals of the suite
    assert all(jacobi.lambda_cocycle_ez(h[0], x, 4)[i] == jacobi.lambda_cocycle_ez(h[0], x[i], 4)
               for i in range(COUNT))
    uni, mult, _ = verify._cocycle_residuals(h, h2, x, 4)
    order = verify._left_action_residual(h, h2, x)
    literal = verify._cocycle_literal_residual(h, x, 4, ez)
    for i in range(COUNT):
        assert (uni[i], mult[i]) == verify._cocycle_residuals(h[i], h2[i], x[i], 4)[:2]
        assert order[i] == verify._left_action_residual(h[i], h2[i], x[i])
        assert literal[i] == verify._cocycle_literal_residual(h[i], x[i], 4, ez[i])


@pytest.mark.parametrize("seed", [7, 1234])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_stacked_draws_equal_successive_single_draws(seed, n):
    for stack, fn in ((_symmetric, symplectic.random_symmetric),
                      (_siegel, symplectic.random_siegel_point)):
        stacked = stack(n, 0.5, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        assert all(_same(stacked[i], fn(n, 0.5, rng)) for i in range(COUNT))
    stacked = _elements(n, 0.5, np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    for i in range(COUNT):
        one = symplectic.sp_random(n, 0.5, rng)
        assert _same(stacked.a[i], one.a) and _same(stacked.b[i], one.b)
    # the verify draws: a stack built from raw draws is the single draws
    rng = np.random.default_rng(seed)
    points = verify._points([verify._point_draws(n, rng) for _ in range(COUNT)])
    elements = verify._bounded_elements([verify._element_draws(n, rng) for _ in range(COUNT)], 0.35)
    rng = np.random.default_rng(seed)
    for i in range(COUNT):
        one = verify._random_point(n, rng)
        assert _same(points.z[i], one.z) and _same(points.W[i], one.W)
    for i in range(COUNT):
        one = verify._bounded_element(n, rng, 0.35)
        assert _same(elements.g.a[i], one.g.a) and _same(elements.alpha[i], one.alpha)
        assert elements.t[i] == one.t


def _raised(fn):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(Exception) as err:
            fn()
    assert caught == []
    return type(err.value), str(err.value)


def test_a_stacked_validation_error_names_the_failing_index():
    rng = np.random.default_rng(330)
    z = _symmetric(2, 0.5, rng, 6).reshape(2, 3, 2, 2)
    z[1, 2, 0, 1] += 0.25
    kind, message = _raised(lambda: matfun.check_symmetric(z))
    assert kind is NotSymmetric and message.startswith("stack index (1, 2): symmetry residual")
    h = z @ z.conj().swapaxes(-1, -2)
    h[0, 1, 1, 0] += 0.5
    kind, message = _raised(lambda: matfun.herm_eig(h))
    assert kind is NonHermitian and message.startswith("stack index (0, 1): symmetry residual")
    t = np.stack([0.5 * np.eye(2), np.diag([0.5, 1.5])]).astype(complex)
    kind, message = _raised(lambda: matfun.herm_func(t, np.arctanh, domain=lambda e: e < 1.0))
    assert kind is DomainViolation and message.startswith("stack index (1,): eigenvalues")
    w = _siegel(2, 0.5, rng, 3)
    w[2] *= 2.0 / np.linalg.norm(w[2], 2)
    kind, message = _raised(lambda: symplectic.z_of_w(w))
    assert kind is DomainViolation and message.startswith("stack index (2,): eigenvalues")
    x = jacobi.CSPoint(z=np.zeros((3, 2), dtype=complex), W=w)
    kind, message = _raised(lambda: jacobi.density(x))
    assert kind is DomainViolation and message.startswith("stack index (2,): matrix is not")
    g = _elements(2, 0.5, rng, 3)
    b = g.b.copy()
    b[1] *= 1.5
    kind, message = _raised(lambda: symplectic.sp_new(g.a, b))
    assert kind is NotSymplectic and message.startswith("stack index (1,): membership residual")
    kind, message = _raised(lambda: symplectic.sp_new(g.a[1], b[1]))
    assert kind is NotSymplectic and message.startswith("membership residual")


def test_a_singular_stacked_solve_names_the_failing_index():
    # a second element with a = 0: conj(a), conj(b) w + conj(a) and
    # W b* + a* are singular there (at w = 0), and one matrix keeps its
    # bare message
    g = symplectic.SpElement(a=np.array([[[1.0 + 0j]], [[0j]]]), b=np.zeros((2, 1, 1), complex))
    x = jacobi.CSPoint(z=np.zeros((2, 1), complex), W=np.zeros((2, 1, 1), complex))
    calls = {
        "conj(a)": lambda g, x: symplectic.gauss_decompose(g),
        "conj(b) w + conj(a)": lambda g, x: symplectic.moebius(g, x.W),
        "W b* + a*": lambda g, x: jacobi.act(jacobi.JacobiElement(g=g, alpha=x.z), x),
    }
    for what, call in calls.items():
        assert _raised(lambda: call(g, x)) == (Singular, f"stack index (1,): {what} is singular")
        assert _raised(lambda: call(g[1], x[1])) == (Singular, f"{what} is singular")


def _call_counts(monkeypatch, run, calls, sizes) -> list:
    """How many of ``calls``, ``(module, name)`` pairs, ``run(samples)``
    makes at each of ``sizes``."""
    counts = []
    for samples in sizes:
        made = []
        for module, name in calls:
            fn = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda *args, _fn=fn, **kw: made.append(args) or _fn(*args, **kw))
        run(samples)
        monkeypatch.undo()
        counts.append(len(made))
    return counts


@pytest.mark.parametrize("suite, module, names", [
    (verify.suite_jacobi, jacobi, ("lambda_cocycle",)),
    (verify.suite_symplectic, symplectic,
     ("gauss_decompose", "cartan_decompose", "moebius", "ball_compose", "multiplier",
      "membership_residual")),
])
def test_suites_make_one_call_per_stack(monkeypatch, suite, module, names):
    counts = _call_counts(monkeypatch, lambda samples: suite(n=2, seed=7, samples=samples),
                          [(module, name) for name in names], (3, 30))
    assert counts[0] == counts[1] > 0


def test_suite_gj1_makes_one_call_per_stack(monkeypatch):
    calls = [(gj1, name) for name in ("cayley_inverse", "gj0_act", "match_jacobi_parameters",
                                      "ez_metric")] + [(jacobi, "act")]
    counts = _call_counts(monkeypatch, lambda samples: verify.suite_gj1(seed=7, samples=samples),
                          calls, (4, 100))
    assert counts[0] == counts[1] > 0
