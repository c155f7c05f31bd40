import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from siegeljacobi import fockoracle as fo, jacobi, symplectic as sp, verify
from siegeljacobi.errors import CutoffTooSmall
from siegeljacobi.jacobi import CSPoint


def _matrices(cutoff, *names):
    """The named generators as dense matrices, from their diagonals."""
    return tuple(np.diag(diag, offset) for offset, diag in
                 (fo._generators(cutoff)[name] for name in names))


def test_ladder_basics():
    a, ad = _matrices(10, "a", "ad")
    vac = fo.vacuum(10)
    assert np.linalg.norm(a @ vac) == 0.0
    assert abs((ad @ vac)[1] - 1.0) < 1e-15
    comm = a @ ad - ad @ a
    dev = comm - np.eye(11)
    dev[10, 10] = 0.0  # truncation artifact lives in the corner entry only
    assert np.abs(dev).max() < 1e-13


def test_vacuum_weight_fixes_index():
    (k0,) = _matrices(8, "k0")
    vac = fo.vacuum(8)
    assert np.allclose(k0 @ vac, 0.25 * vac)  # k/4 with k = 1


def test_quadratic_brackets_hold_away_from_corner():
    n = 30
    kp, km, k0 = _matrices(n, "kp", "km", "k0")
    pairs = [
        (km @ kp - kp @ km, 2 * k0),
        (k0 @ kp - kp @ k0, kp),
        (k0 @ km - km @ k0, -km),
    ]
    for comm, expected in pairs:
        dev = comm - expected
        assert np.abs(dev[: n - 1, : n - 1]).max() < 1e-12
        assert np.abs(dev).max() > 1.0  # the corner block carries the artifact


def test_displacement_identity_and_vacuum_overlap():
    n = 40
    d0 = fo.displacement(0.0, np.eye(n + 1))
    assert np.abs(d0 - np.eye(n + 1)).max() < 1e-14
    d = fo.displacement(0.5, np.eye(n + 1))
    assert abs(d[0, 0] - math.exp(-0.125)) < 1e-10
    # unitary below the corner
    gram = d.conj().T @ d
    q = n // 2
    assert np.abs(gram[:q, :q] - np.eye(q)).max() < 1e-10


def test_displacement_composition_phase():
    n = 60
    a2, a1 = 0.4 + 0.2j, -0.3 + 0.1j
    lhs = fo.displacement(a2, fo.displacement(a1, np.eye(n + 1)))
    phase = np.exp(1j * np.imag(a2 * np.conj(a1)))
    rhs = phase * fo.displacement(a2 + a1, np.eye(n + 1))
    q = n // 2
    assert np.abs((lhs - rhs)[:q, :q]).max() < 1e-9


@pytest.mark.parametrize("width", [None, 1, 3])
def test_displacement_cutoff_guard(width):
    # the same absolute tail-mass guard on the image of the vacuum under each
    # operator, whether it acts on a vector or on a block of columns
    lift = sp.cartan_synthesize(np.array([[math.atanh(0.9)]]), np.eye(1))
    for op, arg, cutoff in [
        (fo.displacement, 4.0, 12),
        (fo.squeeze, 0.3, 12),
        (fo.squeeze, 0.9, 40),
        (fo.squeeze_from_generator, math.atanh(0.9), 40),
        (fo.s_of_g, lift, 40),
    ]:
        v = fo.vacuum(cutoff) if width is None else np.eye(cutoff + 1, width)
        with pytest.raises(CutoffTooSmall):
            op(arg, v)


def test_squeeze_identity_orderings_and_generator_form():
    n = 60
    s0 = fo.squeeze(0.0, np.eye(n + 1))
    assert np.abs(s0 - np.eye(n + 1)).max() < 1e-14
    s = fo.squeeze(0.3, np.eye(n + 1))
    assert verify._reverse_order_residual(0.3, n, s) <= 1e-9
    zeta = math.atanh(0.3)
    sg = fo.squeeze_from_generator(zeta, np.eye(n + 1))
    q = n // 4
    assert np.abs((s - sg)[:q, :q]).max() < 1e-8


def test_cs_vector_series():
    v = fo.cs_vector(0.0, 0.0, 20)
    assert np.abs(v - fo.vacuum(20)).max() == 0.0
    z = 0.4 + 0.2j
    v = fo.cs_vector(z, 0.0, 40)
    for m in range(8):
        assert abs(v[m] - z**m / math.sqrt(math.factorial(m))) < 1e-14
    # squared norm against the closed diagonal kernel at weight one
    x = CSPoint(z=np.array([0.2 + 0j]), W=np.array([[0.3 + 0j]]))
    v = fo.cs_vector(0.2, 0.3, 60)
    assert abs(fo._norm(v)**2 - jacobi.kernel(x, x, 1.0).real) < 1e-8


def test_check_lemma6():
    # alpha = 0 reduces to the squeezed-vacuum normalization
    assert fo.check_lemma6(0.0, 0.3, 60) < 1e-9
    # squeeze absent: plain coherent-state identity
    assert fo.check_lemma6(0.4, 0.0, 60) < 1e-10
    assert fo.check_lemma6(0.4, 0.3, 80) < 1e-7


def test_check_hpb():
    assert fo.check_hpb(0.0, 0.2, 60) < 1e-10
    assert fo.check_hpb(0.3, 0.2, 80) < 1e-7
    alpha = 0.3 - 0.2j
    zeta = 0.25 + 0.1j
    g = sp.cartan_synthesize(np.array([[zeta]]), np.eye(1))
    beta = jacobi.alpha_action_inv(g, np.array([alpha]))
    assert abs(jacobi.alpha_action(g, beta)[0] - alpha) < 1e-10


def test_oracle_kernel_matches_closed_form():
    both0 = CSPoint(z=np.zeros(1, dtype=complex), W=np.zeros((1, 1), dtype=complex))
    assert abs(fo.oracle_kernel(both0, both0, 40) - 1.0) < 1e-14
    x = CSPoint(z=np.array([0.2 + 0j]), W=np.array([[0.1 + 0j]]))
    y = CSPoint(z=np.array([0.1 + 0j]), W=np.array([[0.2 + 0j]]))
    closed = jacobi.kernel(x, y, 1.0)
    assert abs(fo.oracle_kernel(x, y, 60) - closed) < 1e-8
    # truncation error decreases under cutoff doubling
    r40 = abs(fo.oracle_kernel(x, y, 40) - closed)
    r80 = abs(fo.oracle_kernel(x, y, 80) - closed)
    assert r80 <= r40


def test_mm1_end_to_end():
    rng = np.random.default_rng(5)
    for _ in range(10):
        # rotation phase bounded: the weight-one multiplier is single valued
        # only away from the half-turn branch cut
        zeta = 0.3 * np.tanh(rng.normal()) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        v = np.exp(1j * rng.uniform(-np.pi / 2, np.pi / 2))
        g = sp.cartan_synthesize(np.array([[zeta]]), np.array([[v]]))
        alpha = 0.3 * complex(rng.normal(), rng.normal()) / math.sqrt(2)
        z = 0.3 * complex(rng.normal(), rng.normal()) / math.sqrt(2)
        w = 0.3 * np.tanh(rng.normal()) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        res, data = fo.mm1_residual(g, alpha, z, complex(w), 100)
        assert res < 1e-6
        # the quadratic-exponent route gives the same multiplier
        h = jacobi.JacobiElement(g=g, alpha=np.array([alpha]), t=0.0)
        x = CSPoint(z=np.array([z]), W=np.array([[complex(w)]]))
        lam_ez = jacobi.lambda_cocycle_ez(h, x, 1, unchecked_branch=True)
        assert abs(lam_ez - data.lam) < 1e-9


def test_squeezed_vacuum_convention_probe():
    assert fo.squeezed_vacuum_convention(0.3, 60) < 1e-9


def test_group_orbit_of_vacuum():
    # S(g)|0> = det(conj a)^{-k/2} e_Y at weight one, Y the Gauss coordinate
    rng = np.random.default_rng(8)
    n = 80
    for _ in range(10):
        zeta = 0.35 * np.tanh(rng.normal()) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        v = np.exp(1j * rng.uniform(-np.pi / 2, np.pi / 2))
        g = sp.cartan_synthesize(np.array([[zeta]]), np.array([[v]]))
        y = complex(sp.gauss_decompose(g).y[0, 0])
        lhs = fo.s_of_g(g, np.eye(n + 1)) @ fo.vacuum(n)
        rhs = complex(g.a.conj()[0, 0]) ** -0.5 * fo.cs_vector(0.0, y, n)
        assert np.linalg.norm(lhs - rhs) < 1e-9


def test_composition_operator_order():
    # operator product of two squeezes matches the two-point law with the
    # left factor listed first
    n = 120
    w1, w2 = 0.25 + 0.1j, -0.15 + 0.3j
    w3, v, detv = sp.ball_compose(np.array([[w2]]), np.array([[w1]]))
    lhs = fo.squeeze(w2, np.eye(n + 1)) @ (fo.squeeze(w1, np.eye(n + 1)) @ fo.vacuum(n))
    rhs = detv**0.5 * (
        fo.squeeze(complex(w3[0, 0]), np.eye(n + 1)) @ fo.vacuum(n)
    )
    assert np.linalg.norm(lhs - rhs) < 1e-8


def _todays_generators(cutoff):
    a = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    for m in range(1, cutoff + 1):
        a[m - 1, m] = np.sqrt(m)
    ad = a.conj().T
    return a, ad, 0.5 * ad @ ad, 0.5 * a @ a, 0.25 * (ad @ a + a @ ad)


def test_generators_are_built_once_per_cutoff_and_read_only():
    for n in (10, 100):
        assert fo._generators(n) is fo._generators(n)
        for (offset, diag), fresh in zip(fo._generators(n).values(), _todays_generators(n)):
            assert np.array_equal(np.diag(diag, offset), fresh)
            with pytest.raises(ValueError):
                diag[0] = 1.0


def _dense(cutoff, **coeffs):
    mats = dict(zip(("a", "ad", "kp", "km", "k0"), _todays_generators(cutoff)))
    return sum(c * mats[name] for name, c in coeffs.items())


# displacement, the squeeze's three factors, and the generator of S(g)
_GENERATORS = [
    {"ad": 0.3 + 0.2j, "a": -(0.3 - 0.2j)},
    {"kp": 0.3 + 0.1j},
    {"km": -(0.3 - 0.1j)},
    {"k0": math.log(1 - 0.1)},
    {"kp": 0.35j, "km": 0.35j},
]


@pytest.mark.parametrize("cutoff", [60, 100, 120])
@pytest.mark.parametrize("coeffs", _GENERATORS)
def test_expm_apply_matches_dense_expm(cutoff, coeffs):
    dense = scipy.linalg.expm(_dense(cutoff, **coeffs))
    gen = fo._banded(cutoff, **coeffs)
    for vec in (fo.vacuum(cutoff), fo.cs_vector(0.3 + 0.1j, 0.2 - 0.1j, cutoff),
                np.eye(cutoff + 1, cutoff // 2)):
        want = dense @ vec
        got = fo._expm_apply(gen, vec)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


# the dense scipy.linalg.expm constructions of the four operators, the
# reference for their matrix-free actions
def _expm(cutoff, **coeffs):
    return scipy.linalg.expm(_dense(cutoff, **coeffs))


def _expm_displacement(alpha, cutoff):
    return _expm(cutoff, ad=alpha, a=-np.conj(alpha))


def _expm_squeeze_factors(w, cutoff):
    eta = np.log(1 - abs(w) ** 2)
    return [_expm(cutoff, kp=w), _expm(cutoff, k0=eta), _expm(cutoff, km=-np.conj(w))]


def _expm_squeeze(w, cutoff):
    e1, e2, e3 = _expm_squeeze_factors(w, cutoff)
    return e1 @ e2 @ e3


def _expm_squeeze_from_generator(zeta, cutoff):
    return _expm(cutoff, kp=zeta, km=-np.conj(zeta))


def _expm_s_of_g(g, cutoff):
    zeta, v = fo._cartan_params(g)
    return _expm_squeeze_from_generator(zeta, cutoff) @ _expm(cutoff, k0=2 * np.log(v))


@pytest.mark.parametrize("cutoff", [60, 100])
def test_operators_match_their_dense_expm_constructions(cutoff):
    g = sp.cartan_synthesize(np.array([[0.25 + 0.1j]]), np.array([[np.exp(0.4j)]]))
    eye = np.eye(cutoff + 1)
    pairs = [
        (fo.displacement(0.3 + 0.2j, eye), _expm_displacement(0.3 + 0.2j, cutoff)),
        (fo.displacement(-0.1 + 0.25j, eye), _expm_displacement(-0.1 + 0.25j, cutoff)),
        (fo.squeeze_from_generator(math.atanh(0.3), eye),
         _expm_squeeze_from_generator(math.atanh(0.3), cutoff)),
        (fo.squeeze_from_generator(0.25 + 0.1j, eye),
         _expm_squeeze_from_generator(0.25 + 0.1j, cutoff)),
        (fo.s_of_g(g, eye), _expm_s_of_g(g, cutoff)),
    ]
    for got, want in pairs:
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
    # the squeeze's truncated factors grow like exp(|w| N / 2) and cancel in
    # the product (both routes differ from a 40-digit product by about 6e-12
    # at N = 60, w = 0.3), so the scale is the size of its terms
    for w in (0.3, -0.15 + 0.3j):
        factors = _expm_squeeze_factors(w, cutoff)
        terms = np.linalg.norm(np.abs(factors[0]) @ np.abs(factors[1]) @ np.abs(factors[2]))
        got = fo.squeeze(w, eye)
        assert got.shape == factors[0].shape
        assert np.linalg.norm(got - _expm_squeeze(w, cutoff)) <= 1e-13 * terms


def test_mm1_state_route_matches_dense_operators():
    # the draws of test_mm1_end_to_end
    rng = np.random.default_rng(5)
    n = 100
    for _ in range(10):
        zeta = 0.3 * np.tanh(rng.normal()) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        v = np.exp(1j * rng.uniform(-np.pi / 2, np.pi / 2))
        g = sp.cartan_synthesize(np.array([[zeta]]), np.array([[v]]))
        alpha = 0.3 * complex(rng.normal(), rng.normal()) / math.sqrt(2)
        z = 0.3 * complex(rng.normal(), rng.normal()) / math.sqrt(2)
        w = complex(0.3 * np.tanh(rng.normal()) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
        e = fo.cs_vector(z, w, n)
        want = _expm_s_of_g(g, n) @ (_expm_displacement(alpha, n) @ e)
        got = fo.s_of_g(g, fo.displacement(alpha, e))
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_state_routes_build_no_operator(monkeypatch):
    # a state route acts on the state and the guard's vacuum column only
    widths = []

    def record(gen, v):
        widths.append(1 if v.ndim == 1 else v.shape[1])
        return expm_apply(gen, v)

    expm_apply = fo._expm_apply
    monkeypatch.setattr(fo, "_expm_apply", record)
    g = sp.cartan_synthesize(np.array([[0.2 + 0.1j]]), np.array([[1j]]))
    assert fo.mm1_residual(g, 0.2 - 0.1j, 0.1j, 0.2, 100)[0] < 1e-6
    assert fo.check_lemma6(0.4, 0.3, 80) < 1e-7
    assert fo.squeezed_vacuum_convention(0.3, 60) < 1e-8
    lhs = fo.squeeze(-0.15 + 0.3j, fo.squeeze(0.25 + 0.1j, fo.vacuum(120)))
    assert np.isfinite(lhs).all()
    assert widths and max(widths) <= 2


@pytest.mark.parametrize("op, arg, actions", [
    (fo.displacement, 0.3 + 0.2j, 1),
    (fo.squeeze, 0.3 - 0.1j, 3),
    (fo.squeeze_from_generator, 0.25 + 0.1j, 1),
    (fo.s_of_g, sp.cartan_synthesize(np.array([[0.25 + 0.1j]]), np.array([[1j]])), 2),
])
@pytest.mark.parametrize("width", [None, 5])
def test_operators_run_one_action_per_factor(monkeypatch, op, arg, actions, width):
    # the tail guard rides along as a column: no second action on the vacuum
    calls = []

    def record(gen, v):
        calls.append(v.shape)
        return expm_apply(gen, v)

    expm_apply = fo._expm_apply
    monkeypatch.setattr(fo, "_expm_apply", record)
    v = fo.cs_vector(0.1, 0.2, 60) if width is None else np.eye(61, width)
    out = op(arg, v)
    assert out.shape == v.shape
    assert len(calls) == actions


def test_operator_columns_equal_their_vector_actions():
    v = fo.cs_vector(0.3 + 0.1j, 0.2 - 0.1j, 80)
    block = np.column_stack([v, fo.vacuum(80), np.eye(81, 3)])
    g = sp.cartan_synthesize(np.array([[0.25 + 0.1j]]), np.array([[1j]]))
    for op, arg in [(fo.displacement, 0.3 + 0.2j), (fo.squeeze, 0.3 - 0.1j),
                    (fo.squeeze_from_generator, 0.25 + 0.1j), (fo.s_of_g, g)]:
        out = op(arg, block)
        for j in range(block.shape[1]):
            assert np.array_equal(out[:, j], op(arg, block[:, j]))


def test_operators_take_one_parameter_per_column():
    v = np.column_stack([fo.cs_vector(z, w, 80)
                         for z, w in [(0.3 + 0.1j, 0.2 - 0.1j), (0.0, 0.0), (-0.2, 0.35j)]])
    gs = sp.cartan_synthesize(np.array([0.25 + 0.1j, 0.0, -0.3j]).reshape(3, 1, 1),
                              np.array([1j, 1.0, np.exp(0.7j)]).reshape(3, 1, 1))
    for op, args in [(fo.displacement, np.array([0.3 + 0.2j, 0.0, -0.4j])),
                     (fo.squeeze, np.array([0.3 - 0.1j, 0.0, 0.5j])),
                     (fo.squeeze_from_generator, np.array([0.25 + 0.1j, -0.1, 0.0])),
                     (fo.s_of_g, gs)]:
        out = op(args, v)
        for j in range(3):
            assert out[:, j].tobytes() == op(args[j], v[:, j]).tobytes()


def test_state_route_squeeze_matches_dense_operator():
    n = 120
    w1, w2 = 0.25 + 0.1j, -0.15 + 0.3j
    vec = fo.squeeze(w1, fo.vacuum(n))
    want = _expm_squeeze(w1, n) @ fo.vacuum(n)
    assert np.linalg.norm(vec - want) <= 1e-13
    want = _expm_squeeze(w2, n) @ vec
    assert np.linalg.norm(fo.squeeze(w2, vec) - want) <= 1e-13


@pytest.mark.parametrize(
    "state_route, arg, cutoff",
    [
        (lambda alpha, n: fo.displacement(alpha, fo.vacuum(n)), 4.0, 12),
        (lambda alpha, n: fo.check_lemma6(alpha, 0.0, n), 4.0, 12),
        (lambda alpha, n: fo.mm1_residual(sp.cartan_synthesize(np.zeros((1, 1)), np.eye(1)),
                                          alpha, 0.0, 0.0, n), 4.0, 12),
        (lambda w, n: fo.check_lemma6(0.0, w, n), 0.3, 12),
        (fo.squeezed_vacuum_convention, 0.9, 40),
        (lambda w, n: fo.squeeze(w, fo.vacuum(n)), 0.3, 12),
        (lambda w, n: fo.squeeze(w, fo.vacuum(n)), 0.9, 40),
    ],
)
def test_state_routes_keep_the_cutoff_guard(state_route, arg, cutoff):
    # the inputs of test_displacement_cutoff_guard
    with pytest.raises(CutoffTooSmall):
        state_route(arg, cutoff)


def test_import_loads_no_sparse_module():
    # the package is imported by every caller: keep its import footprint
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, siegeljacobi; print('scipy.sparse' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, check=True, timeout=120)
    assert out.stdout.strip() == "False"


def test_generator_diagonals_have_the_bits_of_the_dense_products():
    # the diagonals are built without the matrices; each keeps the bits of
    # the dense product that defines it, the signs of zero parts included
    for cutoff in range(2, 131):
        dense = dict(zip(("a", "ad", "kp", "km", "k0"), _todays_generators(cutoff)))
        for name, (offset, diag) in fo._generators(cutoff).items():
            assert diag.tobytes() == np.diagonal(dense[name], offset).tobytes(), (name, cutoff)
            assert not diag.flags.writeable


def _todays_expm_apply(gen, v):
    # the one-vector Taylor action before per-column steps and the exact
    # early exit: ceil(||G||_1) steps, each term divided by steps * j
    n = len(v)
    colsum = np.zeros(n)
    for offset, diag in gen.items():
        if offset >= 0:
            colsum[offset:] += np.abs(diag)
        else:
            colsum[: n + offset] += np.abs(diag)
    steps = max(1, math.ceil(colsum.max()))
    scaled = [{off: diag / (steps * j) for off, diag in gen.items()} for j in range(1, 19)]
    for _ in range(steps):
        term = v
        for gen_j in scaled:
            out = np.zeros(n, dtype=complex)
            for off, diag in gen_j.items():
                if off >= 0:
                    out[: n - off] += diag * term[off:]
                else:
                    out[-off:] += diag * term[:off]
            term = out
            v = v + term
    return v


def _steps(gen, n):
    colsum = np.zeros((n, max(d.shape[1] for d in gen.values())))
    for offset, diag in gen.items():
        if offset >= 0:
            colsum[offset:] += np.abs(diag)
        else:
            colsum[: n + offset] += np.abs(diag)
    return np.maximum(1, np.ceil(colsum.max(axis=0))).astype(int)


def test_stacked_expm_apply_equals_one_action_per_column():
    cutoff = 100
    rng = np.random.default_rng(3)
    # |alpha| from 0 to 1.7 gives 1 to 35 Taylor steps; alpha = 0 and the
    # zero column have a zero first term
    alpha = np.geomspace(0.02, 1.7, 12) * np.exp(2j * np.pi * rng.uniform(size=12))
    alpha = np.concatenate([rng.permutation(np.append(alpha, 0.0)), [0.3j]])
    v = rng.normal(size=(cutoff + 1, len(alpha))) + 1j * rng.normal(size=(cutoff + 1, len(alpha)))
    v[:, -1] = 0.0
    gen = fo._banded(cutoff, ad=alpha, a=-np.conj(alpha))
    steps = _steps(gen, cutoff + 1)
    assert steps.min() == 1 and steps.max() >= 34 and len(set(steps)) >= 10
    stacked = fo._expm_apply(gen, v)
    for j, col in enumerate(v.T):
        one = fo._expm_apply(fo._banded(cutoff, ad=alpha[j], a=-np.conj(alpha[j])), col)
        assert stacked[:, j].tobytes() == one.tobytes()
        assert np.array_equal(one, _todays_expm_apply({o: d[:, 0] for o, d in fo._banded(
            cutoff, ad=alpha[j], a=-np.conj(alpha[j])).items()}, col))
    zero = np.flatnonzero(alpha == 0)[0]
    assert stacked[:, zero].tobytes() == v[:, zero].tobytes() and not stacked[:, -1].any()


def test_a_zero_first_term_returns_the_columns_as_they_are(monkeypatch):
    # Km annihilates |0> and |1>: exp(-conj(w) Km) makes one product, the
    # first term, and returns those columns with their bits
    products = []

    def count(gen, v):
        products.append(v.shape)
        return band_matvec(gen, v)

    band_matvec = fo._band_matvec
    monkeypatch.setattr(fo, "_band_matvec", count)
    cols = np.eye(121, 2, dtype=complex)
    out = fo._expm_apply(fo._banded(120, km=-np.conj(0.25 + 0.1j)), cols)
    assert out.tobytes() == cols.tobytes() and len(products) == 1
    # a generator shared by a block exits early only for the whole block;
    # columns annihilated alone run with the rest and keep their bits
    block = np.eye(121, 4, dtype=complex)
    out = fo._expm_apply(fo._banded(120, km=0.3), block)
    assert out[:, :2].tobytes() == block[:, :2].tobytes()
    for j in range(4):
        assert out[:, j].tobytes() == fo._expm_apply(fo._banded(120, km=0.3), block[:, j]).tobytes()


def test_stacked_cs_vector_equals_one_series_per_column(monkeypatch):
    pairs = [(0.0, 0.0), (0.4 + 0.2j, 0.0), (0.1, 0.3), (0.35 - 0.1j, -0.3 + 0.2j),
             (0.0, 0.5j), (0.02, 0.01j)]
    terms = []

    def count(gen, v):
        terms.append(v.shape[1])
        return band_matvec(gen, v)

    band_matvec = fo._band_matvec
    monkeypatch.setattr(fo, "_band_matvec", count)
    singles = []
    for z, w in pairs:
        terms.clear()
        singles.append((fo.cs_vector(z, w, 80), len(terms)))
    # each series stops at its own term
    assert len({n for _, n in singles}) == len(pairs)
    stack = fo.cs_vector(np.array([z for z, _ in pairs], dtype=complex),
                         np.array([w for _, w in pairs], dtype=complex), 80)
    assert stack.shape == (81, len(pairs))
    for j, (amps, _) in enumerate(singles):
        assert stack[:, j].tobytes() == amps.tobytes()
    assert np.array_equal(fo._norm(stack), [fo._norm(a) for a, _ in singles])


def _stack(elements):
    """One stacked element of a list of elements."""
    return sp.SpElement(a=np.stack([g.a for g in elements]), b=np.stack([g.b for g in elements]))


def _suite_oracle_draws(seed, samples=20):
    # the draws of verify.suite_oracle, in its order
    rng = np.random.default_rng(seed)
    pairs = [(verify._random_point(1, rng, 0.4, 0.4), verify._random_point(1, rng, 0.4, 0.4))
             for _ in range(samples)]
    draws = [(verify._bounded_element(1, rng, 0.35, phase_cap=math.pi / 2),
              verify._random_point(1, rng, 0.35, 0.35)) for _ in range(samples)]
    return pairs, draws


@pytest.mark.parametrize("seed", [7, 1234])
def test_stacked_oracle_records_equal_one_call_per_sample(seed):
    pairs, draws = _suite_oracle_draws(seed)
    xs, ys = (jacobi.CSPoint(z=np.stack([p.z for p in side]), W=np.stack([p.W for p in side]))
              for side in zip(*pairs))
    kernel = fo.oracle_kernel(xs, ys, 60)
    assert kernel.shape == (len(pairs),)
    for value, (x, y) in zip(kernel, pairs):
        one = fo.oracle_kernel(x, y, 60)
        assert isinstance(one, complex) and value == one
    args = [(h.g, complex(h.alpha[0]), complex(x.z[0]), complex(x.W[0, 0])) for h, x in draws]
    res, data = fo.mm1_residual(_stack([a[0] for a in args]),
                                *(np.array([a[i] for a in args]) for i in (1, 2, 3)), 100)
    assert res.shape == data.lam.shape == (len(args),)
    for i, (r, a) in enumerate(zip(res, args)):
        one, one_data = fo.mm1_residual(*a, 100)
        assert isinstance(one, float) and r.tobytes() == np.float64(one).tobytes()
        assert data[i].lam == one_data.lam


def test_oracle_kernel_needs_stacks_of_one_shape():
    x = jacobi.CSPoint(z=np.array([0.1]), W=np.array([[0.2]]))
    ys = jacobi.CSPoint(z=np.full((3, 1), 0.1 + 0j), W=np.full((3, 1, 1), 0.2 + 0j))
    shared_w = jacobi.CSPoint(z=ys.z, W=x.W)  # one W broadcast over three z
    for pair in ((x, ys), (ys, x), (shared_w, ys)):
        with pytest.raises(ValueError, match="one shape"):
            fo.oracle_kernel(*pair, 40)
    assert fo.oracle_kernel(ys, ys, 40).shape == (3,)


def test_stacked_cutoff_guard_names_the_sample():
    lift = sp.cartan_synthesize(np.zeros((1, 1)), np.eye(1))
    alpha = np.array([0.1, 0.2, 4.0, 0.1])
    with pytest.raises(CutoffTooSmall, match=r"^sample 2: displacement by \|alpha\|=4\.0 "):
        fo.displacement(alpha, np.eye(13, 4))
    with pytest.raises(CutoffTooSmall, match=r"^sample 2: displacement"):
        fo.mm1_residual(_stack([lift] * 4), alpha, np.zeros(4), np.zeros(4), 12)
    with pytest.raises(CutoffTooSmall, match=r"^sample 1: orbit vector tail mass"):
        fo.cs_vector(np.zeros(3), np.array([0.1, 0.9, 0.1]), 40)
    with pytest.raises(CutoffTooSmall, match=r"^sample 0: lift by"):
        fo.s_of_g(_stack([sp.cartan_synthesize(np.array([[math.atanh(0.9)]]), np.eye(1)), lift]),
                  np.eye(41, 2))
    # a single sample keeps its message
    with pytest.raises(CutoffTooSmall, match=r"^displacement by \|alpha\|=4\.0 tail mass"):
        fo.displacement(4.0, fo.vacuum(12))


def test_check_hpb_keeps_a_nan_residual(monkeypatch):
    # the three residuals were folded by Python's max, which drops a NaN
    # after the first; with the second displacement of check_hpb NaN, the
    # result and the conjugation-equations record read NaN
    calls = []
    displacement, check_hpb = fo.displacement, fo.check_hpb

    def nan_on_second(alpha, v):
        calls.append(alpha)
        out = displacement(alpha, v)
        return np.full_like(out, np.nan) if len(calls) == 2 else out

    def hpb(*args):
        calls.clear()
        return check_hpb(*args)

    monkeypatch.setattr(fo, "displacement", nan_on_second)
    monkeypatch.setattr(fo, "check_hpb", hpb)
    assert math.isnan(fo.check_hpb(0.3, 0.2, 80))
    record = next(c for c in verify.suite_oracle(seed=7, samples=1)
                  if c["check"] == "conjugation-equations")
    assert record["pass"] is False and math.isnan(record["residual"])


def test_a_nan_orbit_vector_parameter_raises():
    # NaN amplitudes have a NaN tail mass, which the tail gate turned away
    # only by `tail > threshold`: the NaN vector was returned
    with pytest.raises(CutoffTooSmall, match=r"^orbit vector tail mass nan at cutoff 20"):
        fo.cs_vector(math.nan, 0.1, 20)
    with pytest.raises(CutoffTooSmall, match=r"^sample 1: orbit vector tail mass nan"):
        fo.cs_vector(np.array([0.1, math.nan]), np.array([0.1, 0.2]), 20)


@pytest.mark.filterwarnings("error")
def test_a_non_finite_generator_raises_before_its_step_count():
    # the step count ceil(nan) was cast to an integer with a warning, and
    # the result held no NaN
    with pytest.raises(ValueError, match="generator 0 of the exponential is not finite"):
        fo.displacement(complex(math.nan, 0), np.eye(20))
    with pytest.raises(ValueError, match="generator 1 of the exponential is not finite"):
        fo.displacement(np.array([0.1, math.nan]), np.eye(20, 2))
    # an infinite or overflowing parameter: its generator's diagonals hold
    # NaN or inf, and building them warned before the check
    with pytest.raises(ValueError, match="generator 0 of the exponential is not finite"):
        fo.displacement(complex(math.inf, 0), np.eye(20))
    with pytest.raises(ValueError, match="generator 1 of the exponential is not finite"):
        fo.displacement(np.array([0.1, math.inf]), np.eye(20, 2))
    with pytest.raises(ValueError, match="generator 0 of the exponential is not finite"):
        fo.displacement(1e308, np.eye(20))
    with pytest.raises(ValueError, match="not finite"):
        fo._expm_apply(fo._banded(20, k0=math.nan), np.eye(21))


def test_a_huge_generator_raises_before_its_first_step(monkeypatch):
    # 1e200 cast its step count to an integer with a warning and returned
    # entries of at most 1; 1e6 ran millions of Taylor steps
    monkeypatch.setattr(fo, "_band_matvec", lambda gen, v: pytest.fail("a step ran"))
    for alpha, steps in ((1e200, "8.6e+200"), (1e6, "8.6e+06")):
        with pytest.raises(CutoffTooSmall, match=re.escape(
                f"generator 0 of the exponential needs {steps} Taylor steps, more than 16 "
                "per level of cutoff 19")):
            fo.displacement(alpha, np.eye(20, 2))
        with pytest.raises(CutoffTooSmall, match="generator 1 of the exponential"):
            fo.displacement(np.array([0.1, alpha]), np.eye(20, 2))
    with pytest.raises(CutoffTooSmall, match="more than 16 per level of cutoff 40"):
        fo.squeeze_from_generator(17.0, np.eye(41, 1))


def test_a_nan_tail_mass_fails_the_operator_guard(monkeypatch):
    # the operators' guard reads the vacuum column's tail: NaN fails it
    product = fo._product

    def nan_vacuum(factors, v):
        out = product(factors, v)
        out[:, -1] = math.nan
        return out

    monkeypatch.setattr(fo, "_product", nan_vacuum)
    with pytest.raises(CutoffTooSmall, match=r"^displacement by \|alpha\|=0\.1 tail mass nan"):
        fo.displacement(0.1, np.eye(21))
    with pytest.raises(CutoffTooSmall, match=r"^sample 1: squeeze by"):
        fo.squeeze_from_generator(np.array([0.1, 0.2]), np.eye(21, 2))


def test_mm1_residual_makes_one_stacked_cocycle_call(monkeypatch):
    # the data of each sample are those of its own single cocycle call
    _, draws = _suite_oracle_draws(7)
    args = [(h.g, complex(h.alpha[0]), complex(x.z[0]), complex(x.W[0, 0])) for h, x in draws]
    singles = [jacobi.lambda_cocycle(jacobi.JacobiElement(g=g, alpha=np.array([a]), t=0.0),
                                     CSPoint(z=np.array([z]), W=np.array([[w]])), 1,
                                     unchecked_branch=True) for g, a, z, w in args]
    calls = []
    cocycle = fo.lambda_cocycle

    def record(h, x, k, **kwargs):
        calls.append(x.z.shape)
        return cocycle(h, x, k, **kwargs)

    monkeypatch.setattr(fo, "lambda_cocycle", record)
    _, data = fo.mm1_residual(_stack([a[0] for a in args]),
                              *(np.array([a[i] for a in args]) for i in (1, 2, 3)), 100)
    assert calls == [(len(args), 1)]
    for i, one in enumerate(singles):
        assert isinstance(data[i].lam, complex) and data[i].lam == one.lam
        for field in ("z1", "W1", "x", "y"):
            got, want = getattr(data[i], field), getattr(one, field)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="one sample each"):
        fo.mm1_residual(_stack([args[0][0]] * 2), np.zeros(3), np.zeros(3), np.zeros(3), 40)


@pytest.mark.parametrize("cutoff", [20, 60, 101, 1500])
def test_stacked_norms_and_tail_masses_equal_the_per_column_ones(cutoff):
    # each column's norm and tail mass have the bits of the vector's own:
    # np.linalg.norm's BLAS dots and np.sum's pairwise order
    rng = np.random.default_rng(cutoff)
    scales = np.exp(-np.arange(cutoff + 1) / 7.0)[:, None]
    stack = scales * (rng.normal(size=(cutoff + 1, 40)) + 1j * rng.normal(size=(cutoff + 1, 40)))
    columns = [np.ascontiguousarray(col) for col in stack.T]
    start = int(fo.TAIL_FRACTION * cutoff)
    norms, tails = fo._norm(stack), fo._tail_mass(stack)
    assert norms.tobytes() == np.array([np.linalg.norm(col) for col in columns]).tobytes()
    assert tails.tobytes() == np.array(
        [np.sum(np.abs(col[start:]) ** 2) for col in columns]).tobytes()
    assert [fo._norm(col) for col in columns] == norms.tolist()
    assert [fo._tail_mass(col) for col in columns] == tails.tolist()
