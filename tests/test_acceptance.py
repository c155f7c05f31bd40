"""Acceptance suite: one test per criterion, at the pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.
"""

import math
import time

import numpy as np
from scipy.integrate import quad

from siegeljacobi import diffops, fockoracle as fo, gj1, jacobi, numdiff, symplectic as sp, verify
from siegeljacobi.jacobi import CSPoint, JacobiElement
from siegeljacobi.verify import _bounded_element as bounded_element
from siegeljacobi.verify import _random_point as bounded_point


def report(num, name, ok, detail):
    line = f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    assert ok, line


def test_criterion_01_structure_constants():
    start = time.time()
    sigmas = set()
    ok = True
    for n in (1, 2, 3):
        rep = diffops.verify_structure_constants(
            diffops.jacobi_generators_diff(n), diffops.jacobi_table(n)
        )
        rep_sp = diffops.verify_structure_constants(
            diffops.sp_generators_diff(n), diffops.sp_table(n)
        )
        ok = ok and rep["pass"] and rep_sp["pass"]
        sigmas.update((rep["sigma"], rep_sp["sigma"]))
    elapsed = time.time() - start
    ok = ok and len(sigmas) == 1 and elapsed <= 60.0
    report(
        1,
        "structure-constant closure",
        ok,
        f"exact closure for n in 1..3, sigma={sigmas}, {elapsed:.1f}s",
    )


def test_criterion_02_decomposition_roundtrips():
    rng = np.random.default_rng(202)
    worst_dec = 0.0
    worst_zw = 0.0
    for n in (1, 2, 3):
        for _ in range(200):
            g = sp.sp_random(n, 0.6, rng)
            f = sp.gauss_decompose(g)
            re = sp.gauss_reassemble(f)
            worst_dec = max(
                worst_dec, np.linalg.norm(re.a - g.a) + np.linalg.norm(re.b - g.b)
            )
            c = sp.cartan_decompose(g)
            re = sp.cartan_synthesize(c.z, c.v)
            worst_dec = max(
                worst_dec, np.linalg.norm(re.a - g.a) + np.linalg.norm(re.b - g.b)
            )
            z = sp.random_symmetric(n, 0.6, rng)
            worst_zw = max(worst_zw, np.abs(sp.z_of_w(sp.w_of_z(z)) - z).max())
    ok = worst_dec <= 1e-9 and worst_zw <= 1e-11
    report(
        2,
        "decomposition round trips",
        ok,
        f"reassembly {worst_dec:.2e} (tol 1e-9), coordinate map {worst_zw:.2e} (tol 1e-11)",
    )


def test_criterion_03_ball_composition():
    rng = np.random.default_rng(203)
    worst_w3 = worst_uni = worst_det = 0.0
    for n in (1, 2):
        for _ in range(100):
            w1 = sp.random_siegel_point(n, 0.4, rng)
            w2 = sp.random_siegel_point(n, 0.4, rng)
            w3, v, detv = sp.ball_compose(w1, w2)
            prod = sp.sp_compose(sp.sp_of(w1), sp.sp_of(w2))
            worst_w3 = max(
                worst_w3, np.abs(w3 - sp.gauss_decompose(prod).y).max()
            )
            worst_uni = max(worst_uni, abs(abs(detv) - 1.0))
            worst_det = max(worst_det, abs(np.linalg.det(v) - detv))
    ok = worst_w3 <= 1e-9 and worst_uni <= 1e-10 and worst_det <= 1e-9
    report(
        3,
        "ball composition",
        ok,
        f"vs raw product {worst_w3:.2e} (tol 1e-9), |detv|-1 {worst_uni:.2e}, "
        f"detv forms {worst_det:.2e}",
    )


def test_criterion_04_kernel_oracle():
    rng = np.random.default_rng(204)
    pairs = [
        (bounded_point(1, rng, 0.4, 0.4), bounded_point(1, rng, 0.4, 0.4))
        for _ in range(50)
    ]
    res60 = max(
        abs(fo.oracle_kernel(x, y, 60) - jacobi.kernel(x, y, 1.0)) for x, y in pairs
    )
    res120 = max(
        abs(fo.oracle_kernel(x, y, 120) - jacobi.kernel(x, y, 1.0)) for x, y in pairs
    )
    ok = res60 <= 1e-7 and res120 <= res60
    report(
        4,
        "kernel-oracle equivalence",
        ok,
        f"cutoff 60: {res60:.2e} (tol 1e-7), cutoff 120: {res120:.2e} (monotone)",
    )


def test_criterion_05_orbit_map():
    rng = np.random.default_rng(205)
    worst = worst_alt = worst_literal = 0.0
    for _ in range(50):
        h = bounded_element(1, rng, 0.35, phase_cap=math.pi / 2)
        x = bounded_point(1, rng, 0.35, 0.35)
        res, data = fo.mm1_residual(
            h.g, complex(h.alpha[0]), complex(x.z[0]), complex(x.W[0, 0]), 100
        )
        worst = max(worst, res)
        h0 = JacobiElement(g=h.g, alpha=h.alpha, t=0.0)
        lam_alt = jacobi.lambda_cocycle_ez(h0, x, 1, unchecked_branch=True)
        worst_alt = max(worst_alt, abs(lam_alt - data.lam))
        worst_literal = max(worst_literal, verify._cocycle_literal_residual(h0, x, 1, lam_alt))
    ok = worst <= 1e-6 and worst_alt <= 1e-9 and worst_literal <= 1e-9
    report(
        5,
        "operator orbit end-to-end",
        ok,
        f"residual {worst:.2e} (tol 1e-6), alternate multiplier {worst_alt:.2e}, "
        f"literal route {worst_literal:.2e} (tol 1e-9)",
    )


def test_criterion_06_cocycle_and_unitarity():
    rng = np.random.default_rng(206)
    worst_mult = worst_uni = 0.0
    for n in (1, 2):
        for k in (2, 4):
            for _ in range(50):
                h1 = bounded_element(n, rng, 0.35)
                h2 = bounded_element(n, rng, 0.35)
                x = bounded_point(n, rng, 0.35, 0.35)
                lam12 = jacobi.lambda_full(jacobi.jacobi_compose(h1, h2), x, k)
                lam = jacobi.lambda_full(h1, jacobi.act(h2, x), k)
                lam *= jacobi.lambda_full(h2, x, k)
                worst_mult = max(worst_mult, abs(lam - lam12) / abs(lam12))
                data = jacobi.lambda_cocycle(h1, x, k)
                hx = CSPoint(z=data.z1, W=data.W1)
                kxx = jacobi.kernel(x, x, k).real
                worst_uni = max(
                    worst_uni,
                    abs(abs(data.lam) ** 2 * jacobi.kernel(hx, hx, k).real - kxx) / kxx,
                )
    ok = worst_mult <= 1e-9 and worst_uni <= 1e-9
    report(
        6,
        "cocycle and unitarity",
        ok,
        f"multiplicativity {worst_mult:.2e}, norm consistency {worst_uni:.2e} (tol 1e-9)",
    )


def test_criterion_07_kahler_consistency():
    rng = np.random.default_rng(207)
    k = 4.0
    worst_fd = 0.0
    pd_ok = True
    for n in (1, 2):
        for _ in range(50):
            x = bounded_point(n, rng, 0.5, 0.6)
            closed = jacobi.kahler_form(x, k)
            fd = numdiff.wirtinger_hessian(lambda p: jacobi.kahler_potential(p, k), x)
            worst_fd = max(worst_fd, np.abs(closed - fd).max())
            pd_ok = pd_ok and (
                np.linalg.eigvalsh(0.5 * (closed + closed.conj().T)).min() > 0
            )
    worst_form = worst_q = 0.0
    for _ in range(20):
        n = 2
        x = bounded_point(n, rng, 0.3, 0.3)
        h = bounded_element(n, rng, 0.3)
        jac = numdiff.holomorphic_jacobian(lambda p: jacobi.act(h, p), x)
        pulled = jac.T @ jacobi.kahler_form(jacobi.act(h, x), k) @ jac.conj()
        worst_form = max(worst_form, np.abs(pulled - jacobi.kahler_form(x, k)).max())
        q_inv = jacobi.density(jacobi.act(h, x)) * abs(np.linalg.det(jac)) ** 2
        worst_q = max(worst_q, abs(q_inv - jacobi.density(x)) / jacobi.density(x))
    ok = worst_fd <= 1e-5 and pd_ok and worst_form <= 1e-5 and worst_q <= 1e-5
    report(
        7,
        "invariant-form consistency",
        ok,
        f"closed vs FD {worst_fd:.2e} (tol 1e-5), positive definite {pd_ok}, "
        f"form invariance {worst_form:.2e}, density invariance {worst_q:.2e}",
    )


def test_criterion_08_measure_normalization():
    start = time.time()
    worst_norm = 0.0
    for k in (5.0, 6.0):
        _, _, wt = jacobi.sample_arrays_n1(k, 1_000_000, seed=208)
        worst_norm = max(worst_norm, abs(wt.mean() - 1.0))
    worst_rep = 0.0
    for f, (z0, w0) in (
        (lambda z, w: np.ones_like(z), (0.0, 0.0)),
        (lambda z, w: z, (0.2, 0.1)),
        (lambda z, w: w, (0.0, 0.3)),
    ):
        x0 = CSPoint(
            z=np.array([z0], dtype=complex), W=np.array([[w0]], dtype=complex)
        )
        _, _, relerr = jacobi.reproduce_check(f, x0, 6.0, 1_000_000, seed=208)
        worst_rep = max(worst_rep, relerr)
    elapsed = time.time() - start
    ok = worst_norm <= 0.01 and worst_rep <= 0.03 and elapsed <= 120.0
    report(
        8,
        "measure normalization",
        ok,
        f"total mass error {worst_norm:.2e} (tol 1e-2), reproducing {worst_rep:.2e} "
        f"(tol 3e-2), {elapsed:.0f}s",
    )


def test_criterion_09_constants():
    rng = np.random.default_rng(209)
    worst_forms = max(
        verify._jn_forms_residual(rng.uniform(-0.9, 8.0), n)
        for n in (1, 2, 3, 4)
        for _ in range(50)
    )
    worst_l1 = 0.0
    for n, k in ((1, 4.0), (1, 6.0), (2, 8.0), (3, 10.0)):
        val = sp.lambda1(k, n)
        worst_l1 = max(worst_l1, abs(val - 1.0 / sp.jn(k / 2 - n - 1, n)) / val)
    quad_j10 = 2 * math.pi * quad(lambda r: r, 0.0, 1.0)[0]
    err_j = abs(sp.jn(0.0, 1) - quad_j10)
    k = 6.0
    p = (k - 3) / 2 - 1
    quad_jp = 2 * math.pi * quad(lambda r: (1 - r * r) ** p * r, 0.0, 1.0)[0]
    lam_quad = 1.0 / (math.pi * quad_jp)
    err_lam = abs(jacobi.measure_constants(1, k).Lambda - lam_quad)
    closed = (k - 3) / (2 * math.pi**2)
    err_closed = abs(jacobi.measure_constants(1, k).Lambda - closed)
    ok = worst_forms <= 1e-12 and worst_l1 <= 1e-12 and err_j <= 1e-6 and err_lam <= 1e-6 and err_closed <= 1e-14
    report(
        9,
        "normalization constants",
        ok,
        f"closed forms {worst_forms:.1e} (tol 1e-12), group constant {worst_l1:.1e}, disk volume "
        f"vs quadrature {err_j:.1e}, resolution constant vs quadrature {err_lam:.1e}",
    )


def test_criterion_10_one_variable_section():
    table_ok = [
        gj1.pn_poly(i).text()
        for i in range(6)
    ] == ["1", "z", "z^2 + w", "z^3 + 3*z*w", "z^4 + 6*z^2*w + 3*w^2",
          "z^5 + 10*z^3*w + 15*z*w^2"]
    hermite_ok = all(gj1.hermite_exact_equal(i) for i in range(9))
    closed = jacobi.kernel(
        CSPoint(z=np.array([0.2 + 0j]), W=np.array([[0.1 + 0j]])),
        CSPoint(z=np.array([0.1 + 0j]), W=np.array([[0.2 + 0j]])),
        gj1.weight_from_kappa(1.0),
    )
    series_err = abs(gj1.kernel_series(0.1, 0.2, 0.2, 0.1, 1.0, 40) - closed) / abs(
        closed
    )
    rng = np.random.default_rng(210)
    worst_kb = worst_ez = 0.0
    for _ in range(100):
        v = complex(rng.normal(), abs(rng.normal()) + 0.2)
        u = complex(rng.normal(), rng.normal())
        worst_kb = max(worst_kb, gj1.kb_form_check(v, u, 4.0))
        x, p, q = rng.normal(size=3)
        y = abs(rng.normal()) + 0.2
        worst_ez = max(
            worst_ez,
            np.abs(
                gj1.ez_metric(x, y, p, q, 4.0)
                - gj1.halfplane_metric_real(x, y, p, q, 4.0)
            ).max(),
        )
    ok = (
        table_ok
        and hermite_ok
        and series_err <= 1e-6
        and worst_kb <= 1e-8
        and worst_ez <= 1e-8
    )
    report(
        10,
        "one-variable section",
        ok,
        f"polynomial table {table_ok}, closed Hermite form {hermite_ok}, series "
        f"{series_err:.2e} (tol 1e-6), pullback {worst_kb:.2e}, real metric "
        f"{worst_ez:.2e} (tol 1e-8)",
    )
