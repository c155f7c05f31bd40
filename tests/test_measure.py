import functools
import importlib
import inspect
import logging
import math
import sys
import threading

import numpy as np
import pytest

from siegeljacobi import jacobi, symplectic, verify
from siegeljacobi.errors import OutOfDomain
from siegeljacobi.jacobi import CSPoint


def _arrays_n1(k, count, seed):
    """The ``(w, z, weight)`` columns of the n = 1 sample stack."""
    x, weight = jacobi.sample_base_measure(1, k, count, seed)
    return x.W[:, 0, 0], x.z[:, 0], weight


def test_sampler_is_deterministic():
    w1, z1, wt1 = _arrays_n1(6.0, 50_000, seed=3)
    w2, z2, wt2 = _arrays_n1(6.0, 50_000, seed=3)
    assert np.array_equal(w1, w2) and np.array_equal(z1, z2) and np.array_equal(wt1, wt2)


def test_sampler_prefix_property():
    # the chunk grid makes longer runs extend shorter ones, so a partition
    # into workers cannot change the estimate
    w1, z1, wt1 = _arrays_n1(6.0, 40_000, seed=5)
    w2, z2, wt2 = _arrays_n1(6.0, 80_000, seed=5)
    assert np.array_equal(w1, w2[:40_000])
    assert np.array_equal(z1, z2[:40_000])
    assert np.array_equal(wt1, wt2[:40_000])


@pytest.mark.parametrize("k", [5.0, 6.0])
def test_normalization(k):
    _, _, wt = _arrays_n1(k, 400_000, seed=7)
    assert abs(wt.mean() - 1.0) < 0.01


def test_reproducing_property():
    k = 6.0
    cases = [
        (lambda z, w: np.ones_like(z), (0.0, 0.0), 0.01),
        (lambda z, w: z, (0.2, 0.1), 0.03),
        (lambda z, w: w, (0.0, 0.3), 0.03),
    ]
    for f, (z0, w0), tol in cases:
        x0 = CSPoint(z=np.array([z0], dtype=complex), W=np.array([[w0]], dtype=complex))
        lhs, rhs, relerr = jacobi.reproduce_check(f, x0, k, 400_000, seed=11)
        assert relerr < tol


def test_monomial_norm_against_quadrature():
    # the z-Gaussian second moment is exactly one for every w, so the squared
    # norm of z equals the total mass; an independent radial quadrature of the
    # w-marginal confirms the same on the sampler output
    from scipy.integrate import quad

    k = 6.0
    est, se = jacobi.mc_inner_product_n1(
        lambda z, w: z, lambda z, w: z, k, 400_000, seed=13
    )
    consts = jacobi.measure_constants(1, k)
    radial = 2 * math.pi * quad(lambda r: (1 - r * r) ** consts.p * r, 0, 1)[0]
    exact = consts.Lambda * math.pi * radial * 1.0
    assert abs(exact - 1.0) < 1e-12
    assert abs(est.real - exact) < 0.02
    assert abs(est.imag) < 0.02


def test_mc_standard_error_is_the_rms_deviation():
    # for f = g = 1 the weighted samples are the weights themselves, so the
    # standard error is their standard deviation over sqrt(N)
    one = lambda z, w: np.ones_like(z)  # noqa: E731
    est, se = jacobi.mc_inner_product_n1(one, one, 6.0, 100_000, seed=13)
    _, _, wt = _arrays_n1(6.0, 100_000, seed=13)
    assert abs(est - wt.mean()) <= 1e-14  # two summation orders of the same weights
    ref = wt.std() / math.sqrt(len(wt))
    assert abs(se - ref) <= 1e-12 * ref


def test_the_n1_stack_is_the_chunk_arrays():
    count = 100
    x, weight = jacobi.sample_base_measure(1, 6.0, count, seed=17)
    assert x.z.shape == (count, 1) and x.W.shape == (count, 1, 1) and weight.shape == (count,)
    w, z, wt = jacobi._arrays_chunk_n1(jacobi.measure_constants(1, 6.0), count, 17, 0)
    for got, want in ((x.W[:, 0, 0], w), (x.z[:, 0], z), (weight, wt)):
        assert got.flags.c_contiguous and got.tobytes() == want.tobytes()
    # a sample outside the disk: weight 0, z = 0 and w its box draw
    out = weight == 0
    assert out.any() and np.all(x.z[out] == 0) and np.all(np.abs(x.W[out]) >= 1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_one_sampler_returns_one_stack_at_every_n(n):
    count = 50
    x, weight = jacobi.sample_base_measure(n, 2 * n + 3.5, count, seed=3)
    assert x.z.shape == (count, n) and x.W.shape == (count, n, n) and weight.shape == (count,)
    assert np.array_equal(x.W, x.W.swapaxes(-1, -2)) and np.all(np.isfinite(weight))


@pytest.mark.parametrize("n", [2, 3])
def test_general_dimension_weights_and_outside_rule(n):
    # the weight is vol_box Lambda pi^n det^p inside the domain; outside it
    # is 0 with z = 0, and W keeps its box draw, as at n = 1
    k = 2 * n + 5.0
    consts = jacobi.measure_constants(n, k)
    x, weight = jacobi.sample_base_measure(n, k, 4000, seed=23)
    gram = np.eye(n) - x.W @ x.W.conj()
    inside = np.linalg.eigvalsh(gram).min(axis=-1) > 0
    assert np.array_equal(weight > 0, inside) and 0 < np.count_nonzero(inside) < len(weight)
    det = np.linalg.det(gram[inside]).real
    vol_box = 4.0 ** (n * (n + 1) // 2)
    closed = vol_box * consts.Lambda * math.pi**n * det**consts.p
    assert np.abs(weight[inside] - closed).max() <= 1e-12 * closed.max()
    assert np.all(x.z[~inside] == 0) and np.all(x.W[~inside].any(axis=(-2, -1)))
    assert np.all(x.z[inside].any(axis=-1))


def test_general_dimension_normalization():
    # E[weight] = 1 exactly; per-sample sigma is about 4.6, so 2000 samples
    # put the 0.5 tolerance at roughly five standard errors (seed is fixed)
    count = 2000
    _, weight = jacobi.sample_base_measure(2, 9.0, count, seed=19)
    assert np.all(np.isfinite(weight))
    assert abs(weight.sum() / count - 1.0) < 0.5


def _polarized_form(w):
    """The real matrix of :func:`jacobi._real_form` by polarization of the
    exponent ``F`` over the real basis of C^n."""
    n = w.shape[0]
    m = np.linalg.inv(np.eye(n) - w @ w.conj().T)

    def fval(zv):
        return float(np.real(np.sum(zv.conj() * (m @ zv)) + zv @ w.conj() @ m @ zv))

    basis = [np.eye(n, dtype=complex)[i] * (1 if c == 0 else 1j)
             for c in range(2) for i in range(n)]
    half = np.array([[0.5 * (fval(bi + bj) - fval(bi) - fval(bj)) for bj in basis]
                     for bi in basis])
    return half + half.T


@pytest.mark.parametrize("n", [2, 3])
def test_real_form_matches_polarization(n):
    rng = np.random.default_rng(50 + n)
    for scale in (0.2, 0.5, 0.8, 0.95):
        w = symplectic.random_siegel_point(n, scale, rng)
        ref = _polarized_form(w)
        assert np.abs(jacobi._real_form(w) - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_stacked_real_form_equals_single_calls(n):
    w = verify._siegel_points(np.random.default_rng(60 + n).normal(
        size=(7, symplectic.SYM_BLOCKS, n, n)), 0.6)
    stacked = jacobi._real_form(w)
    assert stacked.shape == (7, 2 * n, 2 * n)
    for i in range(7):
        assert stacked[i].tobytes() == jacobi._real_form(w[i]).tobytes()


@pytest.mark.parametrize("n", [2, 3])
def test_general_dimension_gaussian_normalizer(n):
    # the closed normalizer the general-n sampler folds into its weights
    rng = np.random.default_rng(40 + n)
    for scale in (0.2, 0.5, 0.8):
        w = symplectic.random_siegel_point(n, scale, rng)
        det = np.linalg.det(np.eye(n) - w @ w.conj()).real
        closed = math.pi**n * math.sqrt(det)
        factored = (2 * math.pi) ** n / math.sqrt(np.linalg.det(jacobi._real_form(w)))
        assert abs(closed - factored) < 1e-8 * closed


def test_reproduce_check_domain_errors():
    x0 = CSPoint(z=np.zeros(1, dtype=complex), W=np.zeros((1, 1), dtype=complex))
    with pytest.raises(OutOfDomain):
        jacobi.reproduce_check(lambda z, w: z, x0, 2.0, 100)
    x2 = CSPoint(z=np.zeros(2, dtype=complex), W=np.zeros((2, 2), dtype=complex))
    with pytest.raises(OutOfDomain):
        jacobi.reproduce_check(lambda z, w: z, x2, 6.0, 100)


def test_sampler_chunks_concatenate_to_arrays():
    count = 2 * jacobi._CHUNK + 5
    consts = jacobi.measure_constants(1, 6.0)
    chunks = [jacobi._arrays_chunk_n1(consts, count, 23, ci) for ci in range(3)]
    assert [len(w) for w, _, _ in chunks] == [jacobi._CHUNK, jacobi._CHUNK, 5]
    for part, whole in zip(zip(*chunks), _arrays_n1(6.0, count, seed=23)):
        assert np.array_equal(np.concatenate(part), whole)


def test_uniform_chunks_equal_one_shot_draws():
    count = 3 * jacobi._CHUNK + 17
    chunks = [jacobi._uniform_chunk(29, count, 6, start)
              for start in range(0, count, jacobi._CHUNK)]
    assert all(len(c) == 6 and len(c[0]) <= jacobi._CHUNK for c in chunks)
    rng = np.random.default_rng(29)
    for j in range(6):
        stream = np.concatenate([c[j] for c in chunks])
        assert np.array_equal(stream, rng.uniform(-1, 1, count))


def _jn_mc_one_shot(p, count, seed):
    # the unchunked complex-arithmetic estimator the streamed one replaces
    rng = np.random.default_rng(seed)
    w11 = rng.uniform(-1, 1, count) + 1j * rng.uniform(-1, 1, count)
    w12 = rng.uniform(-1, 1, count) + 1j * rng.uniform(-1, 1, count)
    w22 = rng.uniform(-1, 1, count) + 1j * rng.uniform(-1, 1, count)
    s11 = 1.0 - (np.abs(w11) ** 2 + np.abs(w12) ** 2)
    s22 = 1.0 - (np.abs(w22) ** 2 + np.abs(w12) ** 2)
    s12 = -(w11 * np.conj(w12) + w12 * np.conj(w22))
    det = (s11 * s22 - np.abs(s12) ** 2).real
    inside = (det > 0) & (s11 + s22 > 0)
    return 64.0 * np.mean(np.where(inside, det**p, 0.0))


def test_chunked_jn_mc_matches_one_shot():
    count = 3 * jacobi._CHUNK + 17
    ref = _jn_mc_one_shot(1.0, count, seed=31)
    assert abs(verify._jn_mc_n2(1.0, count, seed=31) - ref) <= 1e-15 * ref


# (check, anchor, n, k, samples, tolerance, pass, residual) of the one-shot
# suite, before sampling was streamed, at samples=200_000
_ONE_SHOT_MEASURE = {
    7: [
        ("normalization-routes", "resolution-of-unity-constant", 1, 6.0, None, 1e-12, True, 5.478731025015591e-16),
        ("normalization-mc", "unit-total-mass", 1, 6.0, 200000, 0.01, True, 0.0007511471750691889),
        ("reproducing-one", "kernel-reproducing-property", 1, 6.0, 200000, 0.03, True, 0.0007511471750689669),
        ("reproducing-z", "kernel-reproducing-property", 1, 6.0, 200000, 0.03, True, 0.027483234325602526),
        ("reproducing-w", "kernel-reproducing-property", 1, 6.0, 200000, 0.03, True, 0.0010804430454209408),
        ("jn-mc", "weighted-volume-vs-direct-mc", 2, None, 8000000, 0.01, True, 0.002164460684019624),
    ],
    11: [
        ("normalization-routes", "resolution-of-unity-constant", 1, 6.0, None, 1e-12, True, 5.478731025015591e-16),
        ("normalization-mc", "unit-total-mass", 1, 6.0, 200000, 0.01, True, 9.503018397549745e-05),
        ("reproducing-one", "kernel-reproducing-property", 1, 6.0, 200000, 0.03, True, 9.503018397549745e-05),
        ("reproducing-z", "kernel-reproducing-property", 1, 6.0, 200000, 0.03, True, 0.014541353238829652),
        ("reproducing-w", "kernel-reproducing-property", 1, 6.0, 200000, 0.03, True, 0.0028987773286560116),
        ("jn-mc", "weighted-volume-vs-direct-mc", 2, None, 8000000, 0.01, True, 0.00026232168187353337),
    ],
}


@functools.cache
def _pinned_suite(seed):
    # at the default worker count; run once per module and shared by the
    # pinned-residual test and the worker-count reference
    return verify.suite_measure(seed=seed, samples=200_000)


@pytest.mark.parametrize("seed", sorted(_ONE_SHOT_MEASURE))
def test_streamed_measure_suite_keeps_one_shot_residuals(seed):
    checks = _pinned_suite(seed)
    fields = ("check", "anchor", "n", "k", "samples", "tolerance", "pass")
    assert [tuple(c[f] for f in fields) for c in checks] == [
        row[:-1] for row in _ONE_SHOT_MEASURE[seed]
    ]
    for c, row in zip(checks, _ONE_SHOT_MEASURE[seed]):
        assert abs(c["residual"] - row[-1]) <= 1e-14, c["check"]


def test_measure_suite_logs_each_sampler(caplog):
    with caplog.at_level(logging.DEBUG, logger="siegeljacobi"):
        verify.suite_measure(seed=7, samples=3 * jacobi._CHUNK + 17)
    lines = [r.getMessage() for r in caplog.records if "measure sampler" in r.getMessage()]
    assert len(lines) == 2
    assert lines[0].startswith("measure sampler n=1: 98321 samples in 4 chunks")
    assert lines[1].startswith("measure sampler jn-mc n=2: 8000000 samples in 245 chunks")
    fractions = [float(line.rsplit(" ", 1)[1]) for line in lines]
    # inside-domain share of the box: pi/4 for the disk, about 0.081 at n = 2
    assert abs(fractions[0] - math.pi / 4) < 0.01
    assert 0.07 < fractions[1] < 0.09


def _measure_outputs(pinned_suite):
    small = verify.suite_measure(seed=7, samples=3 * jacobi._CHUNK + 17)
    pinned = [pinned_suite(seed) for seed in sorted(_ONE_SHOT_MEASURE)]
    return small, pinned, _arrays_n1(6.0, 2 * jacobi._CHUNK + 5, 23)


def test_measure_outputs_do_not_depend_on_worker_count(monkeypatch):
    # records are compared with ==, so the residuals must agree bit for bit;
    # three workers on fewer CPUs with a short switch interval interleave the
    # chunks as much as the pool allows
    reference = _measure_outputs(_pinned_suite)
    interval = sys.getswitchinterval()
    for workers in (1, 3):
        monkeypatch.setattr(jacobi, "_worker_count", lambda: workers)
        sys.setswitchinterval(1e-5)
        try:
            # the uncached suite: these runs must not read the shared reference
            small, pinned, arrays = _measure_outputs(_pinned_suite.__wrapped__)
        finally:
            sys.setswitchinterval(interval)
        assert small == reference[0]
        assert pinned == reference[1]
        for got, want in zip(arrays, reference[2]):
            assert np.array_equal(got, want)


def test_sampler_workers_call_no_public_function(monkeypatch):
    # the traced benchmark records a span around every public function of
    # the layer modules on one span stack, so none may run on a pool worker
    modules = [importlib.import_module(f"siegeljacobi.{name}") for name in (
        "matfun", "symplectic", "jacobi", "numdiff", "fockoracle", "diffops",
        "gj1", "verify", "cli")]
    off_main = []

    def guard(fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                off_main.append(name)
            return fn(*args, **kwargs)
        return wrapper

    wrapped = {}
    for mod in modules:
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                wrapped[id(obj)] = (obj, guard(obj, f"{mod.__name__}.{attr}"))
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrapped and wrapped[id(obj)][0] is obj:
                monkeypatch.setattr(mod, attr, wrapped[id(obj)][1])
    assert len(wrapped) > 100
    verify.suite_measure(seed=7, samples=3 * jacobi._CHUNK + 17)
    _arrays_n1(6.0, 2 * jacobi._CHUNK + 5, 23)
    assert off_main == []


# frozen copies of the chunk arithmetic before it ran in place: the in-place
# chunks must keep their bytes
def _uniform_chunk_frozen(seed, count, streams, start):
    mcount = min(jacobi._CHUNK, count - start)
    bitgens = (np.random.PCG64(seed).advance(j * count + start) for j in range(streams))
    return [np.random.Generator(b).uniform(-1.0, 1.0, mcount) for b in bitgens]


def _jn_mc_chunk_frozen(p, count, seed, start):
    a, b, c, d, e, f = _uniform_chunk_frozen(seed, count, 6, start)
    m12 = c * c + d * d
    s11 = 1.0 - (a * a + b * b + m12)
    s22 = 1.0 - (e * e + f * f + m12)
    s12_re = a * c + b * d + c * e + d * f
    s12_im = b * c - a * d + d * e - c * f
    det = s11 * s22 - (s12_re * s12_re + s12_im * s12_im)
    inside = (det > 0) & (s11 + s22 > 0)
    return np.where(inside, det**p, 0.0).sum(), np.count_nonzero(inside)


def _kernel_n1_frozen(z, w, z0, w0, k):
    zb = np.conj(z)
    wb = np.conj(w)
    u = 1.0 / (1.0 - w0 * wb)
    expo = zb * z0 + (0.5 * z0 * z0) * wb + (0.5 * w0) * (zb * zb)
    return u ** (k / 2) * np.exp(u * expo)


def _sample_chunk_n1_frozen(consts, count, seed, ci):
    # the full-chunk sampler: every sample computed, then masked
    p = consts.p
    mcount = min(jacobi._CHUNK, count - ci * jacobi._CHUNK)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(ci,)))
    wre = rng.uniform(-1.0, 1.0, jacobi._CHUNK)[:mcount]
    wim = rng.uniform(-1.0, 1.0, jacobi._CHUNK)[:mcount]
    r2 = wre**2 + wim**2
    inside = r2 < 1.0
    det = np.where(inside, 1.0 - r2, 1.0)
    weight = np.where(inside, 4.0 * consts.Lambda * math.pi * det**p, 0.0)
    two_m = 2 * (1.0 / det)
    l11 = np.sqrt(two_m * (1 + wre))
    l21 = two_m * wim / l11
    l22 = np.sqrt(np.maximum(two_m * (1 - wre) - l21**2, 1e-300))
    xi = rng.standard_normal((2, jacobi._CHUNK))[:, :mcount]
    x2 = xi[1] / l22
    x1 = (xi[0] - l21 * x2) / l11
    z = np.where(inside, x1 + 1j * x2, 0.0)
    return wre + 1j * wim, z, weight


def _reproduce_chunk_frozen(consts, count, seed, ci, targets):
    w, z, wt = _sample_chunk_n1_frozen(consts, count, seed, ci)
    mass = wt.sum()
    keep = np.flatnonzero(wt)
    w, z, wt = w[keep], z[keep], wt[keep]
    sums = [np.sum(wt * _kernel_n1_frozen(z, w, z0, w0, consts.k) * f(z, w))
            for f, z0, w0 in targets]
    return mass, len(keep), *sums


def _same_bytes(got, want):
    return len(got) == len(want) and all(
        type(g) is type(w) and np.asarray(g).tobytes() == np.asarray(w).tobytes()
        for g, w in zip(got, want))


@pytest.mark.parametrize("seed", [1, 7, 1234])
def test_in_place_chunks_keep_the_bytes_of_their_expressions(seed):
    count = 2 * jacobi._CHUNK + 17  # the last chunk is short
    targets = [(f, z0, w0) for _, f, z0, w0 in verify._REPRODUCING_TARGETS]
    for start in range(0, count, jacobi._CHUNK):
        chunk = jacobi._uniform_chunk(seed, count, 6, start)
        assert chunk.tobytes() == np.array(_uniform_chunk_frozen(seed, count, 6, start)).tobytes()
        for p in (1.0, 0.5):  # 0.5 takes numpy's square-root path for the power
            with np.errstate(invalid="ignore"):
                assert _same_bytes(verify._jn_mc_chunk(p, count, seed, start),
                                   _jn_mc_chunk_frozen(p, count, seed, start))
    for k in (6.0, 5.0):
        consts = jacobi.measure_constants(1, k)
        for ci in range(jacobi._chunk_count(count)):
            assert _same_bytes(jacobi._reproduce_chunk(consts, count, seed, ci, targets),
                               _reproduce_chunk_frozen(consts, count, seed, ci, targets))


@pytest.mark.parametrize("seed", [1, 7, 1234])
def test_sampler_arrays_keep_the_bytes_of_the_full_chunk_sampler(seed):
    # the last chunk is short, and about 22 % of each chunk lies outside the
    # disk (z = 0 and weight 0 there, w the box draw)
    count = 2 * jacobi._CHUNK + 17
    for k in (6.0, 5.0):
        consts = jacobi.measure_constants(1, k)
        frozen = [_sample_chunk_n1_frozen(consts, count, seed, ci)
                  for ci in range(jacobi._chunk_count(count))]
        arrays = _arrays_n1(k, count, seed)
        assert 0 < np.count_nonzero(arrays[2] == 0) < count
        for got, parts in zip(arrays, zip(*frozen)):
            assert got.dtype == parts[0].dtype
            assert got.tobytes() == np.concatenate(parts).tobytes()
