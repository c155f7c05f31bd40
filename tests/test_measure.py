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


def test_sampler_is_deterministic():
    w1, z1, wt1 = jacobi.sample_arrays_n1(6.0, 50_000, seed=3)
    w2, z2, wt2 = jacobi.sample_arrays_n1(6.0, 50_000, seed=3)
    assert np.array_equal(w1, w2) and np.array_equal(z1, z2) and np.array_equal(wt1, wt2)


def test_sampler_prefix_property():
    # the chunk grid makes longer runs extend shorter ones, so a partition
    # into workers cannot change the estimate
    w1, z1, wt1 = jacobi.sample_arrays_n1(6.0, 40_000, seed=5)
    w2, z2, wt2 = jacobi.sample_arrays_n1(6.0, 80_000, seed=5)
    assert np.array_equal(w1, w2[:40_000])
    assert np.array_equal(z1, z2[:40_000])
    assert np.array_equal(wt1, wt2[:40_000])


@pytest.mark.parametrize("k", [5.0, 6.0])
def test_normalization(k):
    _, _, wt = jacobi.sample_arrays_n1(k, 400_000, seed=7)
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
    _, _, wt = jacobi.sample_arrays_n1(6.0, 100_000, seed=13)
    assert abs(est - wt.mean()) <= 1e-14  # two summation orders of the same weights
    ref = wt.std() / math.sqrt(len(wt))
    assert abs(se - ref) <= 1e-12 * ref


def test_stream_interface_matches_arrays():
    pairs = list(jacobi.sample_base_measure(1, 6.0, 100, seed=17))
    w, z, wt = jacobi.sample_arrays_n1(6.0, 100, seed=17)
    assert len(pairs) == 100
    for i in (0, 13, 99):
        pt, weight = pairs[i]
        assert complex(pt.W[0, 0]) == complex(w[i])
        assert complex(pt.z[0]) == complex(z[i])
        assert weight == wt[i]


def test_general_dimension_normalization():
    # E[weight] = 1 exactly; per-sample sigma is about 4.6, so 2000 samples
    # put the 0.5 tolerance at roughly five standard errors (seed is fixed)
    total = 0.0
    count = 2000
    for pt, weight in jacobi.sample_base_measure(2, 9.0, count, seed=19):
        assert np.isfinite(weight)
        total += weight
    assert abs(total / count - 1.0) < 0.5


def _real_form(w):
    """Real 2n x 2n matrix ``A`` with ``[x; y]^T A [x; y] / 2`` equal to the
    sampler's exponent ``F(z) = Re(zbar^T M z + z^T Wbar M z)``,
    ``M = (1 - W Wbar)^-1``, ``z = x + i y``."""
    n = w.shape[0]
    m = np.linalg.inv(np.eye(n) - w @ w.conj())
    q = w.conj() @ m  # symmetric, so Re(z^T q z) needs no symmetrization
    herm = np.block([[m.real, -m.imag], [m.imag, m.real]])
    bilin = np.block([[q.real, -q.imag], [-q.imag, -q.real]])
    return 2.0 * (herm + bilin)


@pytest.mark.parametrize("n", [2, 3])
def test_general_dimension_gaussian_normalizer(n):
    # the closed normalizer the general-n sampler folds into its weights
    rng = np.random.default_rng(40 + n)
    for scale in (0.2, 0.5, 0.8):
        w = symplectic.random_siegel_point(n, scale, rng)
        det = np.linalg.det(np.eye(n) - w @ w.conj()).real
        closed = math.pi**n * math.sqrt(det)
        factored = (2 * math.pi) ** n / math.sqrt(np.linalg.det(_real_form(w)))
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
    chunks = [jacobi._sample_chunk_n1(consts, count, 23, ci) for ci in range(3)]
    assert [len(w) for w, _, _ in chunks] == [jacobi._CHUNK, jacobi._CHUNK, 5]
    for part, whole in zip(zip(*chunks), jacobi.sample_arrays_n1(6.0, count, seed=23)):
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


@pytest.mark.parametrize("seed", sorted(_ONE_SHOT_MEASURE))
def test_streamed_measure_suite_keeps_one_shot_residuals(seed):
    checks = verify.suite_measure(seed=seed, samples=200_000)
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


def _measure_outputs():
    small = verify.suite_measure(seed=7, samples=3 * jacobi._CHUNK + 17)
    pinned = [verify.suite_measure(seed=seed, samples=200_000) for seed in sorted(_ONE_SHOT_MEASURE)]
    return small, pinned, jacobi.sample_arrays_n1(6.0, 2 * jacobi._CHUNK + 5, 23)


def test_measure_outputs_do_not_depend_on_worker_count(monkeypatch):
    # records are compared with ==, so the residuals must agree bit for bit;
    # three workers on fewer CPUs with a short switch interval interleave the
    # chunks as much as the pool allows
    reference = _measure_outputs()
    interval = sys.getswitchinterval()
    for workers in (1, 3):
        monkeypatch.setattr(jacobi, "_worker_count", lambda: workers)
        sys.setswitchinterval(1e-5)
        try:
            small, pinned, arrays = _measure_outputs()
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
    jacobi.sample_arrays_n1(6.0, 2 * jacobi._CHUNK + 5, 23)
    assert off_main == []
