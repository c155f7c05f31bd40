import math

import numpy as np
import pytest

from siegeljacobi import fockoracle as fo, jacobi, symplectic as sp, verify
from siegeljacobi.errors import CutoffTooSmall
from siegeljacobi.jacobi import CSPoint


def test_ladder_basics():
    a, ad = fo.ladder(10)
    vac = fo.vacuum(10).amps
    assert np.linalg.norm(a @ vac) == 0.0
    assert abs((ad @ vac)[1] - 1.0) < 1e-15
    comm = a @ ad - ad @ a
    dev = comm - np.eye(11)
    dev[10, 10] = 0.0  # truncation artifact lives in the corner entry only
    assert np.abs(dev).max() < 1e-13


def test_vacuum_weight_fixes_index():
    _, _, k0 = fo.number_ops(8)
    vac = fo.vacuum(8).amps
    assert np.allclose(k0 @ vac, 0.25 * vac)  # k/4 with k = 1


def test_quadratic_brackets_hold_away_from_corner():
    n = 30
    kp, km, k0 = fo.number_ops(n)
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
    d0 = fo.displacement(0.0, n)
    assert np.abs(d0 - np.eye(n + 1)).max() < 1e-14
    d = fo.displacement(0.5, n)
    assert abs(d[0, 0] - math.exp(-0.125)) < 1e-10
    # unitary below the corner
    gram = d.conj().T @ d
    q = n // 2
    assert np.abs(gram[:q, :q] - np.eye(q)).max() < 1e-10


def test_displacement_composition_phase():
    n = 60
    a2, a1 = 0.4 + 0.2j, -0.3 + 0.1j
    lhs = fo.displacement(a2, n) @ fo.displacement(a1, n)
    phase = np.exp(1j * np.imag(a2 * np.conj(a1)))
    rhs = phase * fo.displacement(a2 + a1, n)
    q = n // 2
    assert np.abs((lhs - rhs)[:q, :q]).max() < 1e-9


def test_displacement_cutoff_guard():
    # the same absolute tail-mass guard on the displaced and squeezed vacuum
    for op, arg, cutoff in [
        (fo.displacement, 4.0, 12),
        (fo.squeeze, 0.3, 12),
        (fo.squeeze, 0.9, 40),
    ]:
        with pytest.raises(CutoffTooSmall):
            op(arg, cutoff)


def test_squeeze_identity_orderings_and_generator_form():
    n = 60
    s0 = fo.squeeze(0.0, n)
    assert np.abs(s0 - np.eye(n + 1)).max() < 1e-14
    s = fo.squeeze(0.3, n)
    assert verify._reverse_order_residual(0.3, n, s) <= 1e-9
    zeta = math.atanh(0.3)
    sg = fo.squeeze_from_generator(zeta, n)
    q = n // 4
    assert np.abs((s - sg)[:q, :q]).max() < 1e-8


def test_cs_vector_series():
    v = fo.cs_vector(0.0, 0.0, 20)
    assert np.abs(v.amps - fo.vacuum(20).amps).max() == 0.0
    z = 0.4 + 0.2j
    v = fo.cs_vector(z, 0.0, 40)
    for m in range(8):
        assert abs(v.amps[m] - z**m / math.sqrt(math.factorial(m))) < 1e-14
    # squared norm against the closed diagonal kernel at weight one
    x = CSPoint(z=np.array([0.2 + 0j]), W=np.array([[0.3 + 0j]]))
    v = fo.cs_vector(0.2, 0.3, 60)
    assert abs(v.norm**2 - jacobi.kernel(x, x, 1.0).real) < 1e-8


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
    probe = fo.squeezed_vacuum_convention(0.3, 60)
    assert probe["plain"] < 1e-9
    assert probe["rotated"] > 1e-2


def test_group_orbit_of_vacuum():
    # S(g)|0> = det(conj a)^{-k/2} e_Y at weight one, Y the Gauss coordinate
    rng = np.random.default_rng(8)
    n = 80
    for _ in range(10):
        zeta = 0.35 * np.tanh(rng.normal()) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        v = np.exp(1j * rng.uniform(-np.pi / 2, np.pi / 2))
        g = sp.cartan_synthesize(np.array([[zeta]]), np.array([[v]]))
        y = complex(sp.gauss_decompose(g).y[0, 0])
        lhs = fo.s_of_g(g, n) @ fo.vacuum(n).amps
        rhs = complex(g.a.conj()[0, 0]) ** -0.5 * fo.cs_vector(0.0, y, n).amps
        assert np.linalg.norm(lhs - rhs) < 1e-9


def test_composition_operator_order():
    # operator product of two squeezes matches the two-point law with the
    # left factor listed first
    n = 120
    w1, w2 = 0.25 + 0.1j, -0.15 + 0.3j
    w3, v, detv = sp.ball_compose(np.array([[w2]]), np.array([[w1]]))
    lhs = fo.squeeze(w2, n) @ (fo.squeeze(w1, n) @ fo.vacuum(n).amps)
    rhs = detv**0.5 * (
        fo.squeeze(complex(w3[0, 0]), n) @ fo.vacuum(n).amps
    )
    assert np.linalg.norm(lhs - rhs) < 1e-8
