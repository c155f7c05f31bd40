"""Acceptance suite: one test per criterion, at the pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.
"""

import math
import time

import numpy as np
from scipy.integrate import quad

from siegeljacobi import fockoracle as fo, gj1, jacobi, symplectic as sp, verify
from siegeljacobi.jacobi import CSPoint, JacobiElement
from siegeljacobi.verify import _bounded_element as bounded_element
from siegeljacobi.verify import _random_point as bounded_point


def report(num, name, ok, detail):
    line = f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    assert ok, line


def test_criterion_01_structure_constants():
    start = time.time()
    ok = True
    for n in (1, 2, 3):
        rep, rep_sp = verify._structure_reports(n)
        ok = ok and rep["pass"] and rep_sp["pass"]
    elapsed = time.time() - start
    ok = ok and elapsed <= 60.0
    report(
        1,
        "structure-constant closure",
        ok,
        f"exact closure at the table's sign for n in 1..3, {elapsed:.1f}s",
    )


def test_criterion_02_decomposition_roundtrips():
    rng = np.random.default_rng(202)
    worst_dec = 0.0
    worst_zw = 0.0
    for n in (1, 2, 3):
        for _ in range(200):
            g = sp.sp_random(n, 0.6, rng)
            z = sp.random_symmetric(n, 0.6, rng)
            gauss, cartan, zw = verify._roundtrip_residuals(g, z)
            worst_dec = max(worst_dec, gauss, cartan)
            worst_zw = max(worst_zw, zw)
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
            w3, uni, det, _ = verify._ball_composition_residuals(w1, w2)
            worst_w3 = max(worst_w3, w3)
            worst_uni = max(worst_uni, uni)
            worst_det = max(worst_det, det)
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
                uni, mult, _ = verify._cocycle_residuals(h1, h2, x, k)
                worst_mult = max(worst_mult, mult)
                worst_uni = max(worst_uni, uni)
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
            fd, positive = verify._form_fd_residuals(x, k)
            worst_fd = max(worst_fd, fd)
            pd_ok = pd_ok and positive
    worst_form = worst_q = 0.0
    for _ in range(20):
        n = 2
        x = bounded_point(n, rng, 0.3, 0.3)
        h = bounded_element(n, rng, 0.3)
        form, q = verify._invariance_residuals(h, x, k)
        worst_form = max(worst_form, form)
        worst_q = max(worst_q, q)
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
        _, wt = jacobi.sample_base_measure(1, k, 1_000_000, seed=208)
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
    worst_l1 = max(
        verify._lambda1_residual(k, n)
        for n, k in ((1, 4.0), (1, 6.0), (2, 8.0), (3, 10.0))
    )
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
    bad_pn, bad_h, series_err = verify._one_variable_residuals()
    table_ok = bad_pn == 0
    hermite_ok = bad_h == 0
    rng = np.random.default_rng(210)
    worst_kb = worst_ez = 0.0
    for _ in range(100):
        v = complex(rng.normal(), abs(rng.normal()) + 0.2)
        u = complex(rng.normal(), rng.normal())
        worst_kb = max(worst_kb, gj1.kb_form_check(v, u, 16.0))
        x, p, q = rng.normal(size=3)
        y = abs(rng.normal()) + 0.2
        worst_ez = max(worst_ez, verify._real_metric_residual(x, y, p, q, 16.0))
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
