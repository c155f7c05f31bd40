"""Machine-verification suites with JSON-friendly reports.

Each suite runs a battery of identity checks and returns a report dict:

    {"suite": name,
     "checks": [{"check", "anchor", "n", "k", "samples", "residual",
                 "tolerance", "pass"}, ...],
     "conventions": {"action_order", "sign_sigma", "central_phase_c",
                     "kernel_transform"},
     "pass": bool}

Reports are deterministic given the same arguments and seed.  The "anchor"
field is a stable identifier naming the identity a record exercises.

The primitives in ``symplectic`` and ``jacobi`` evaluate one closed form
each, and the ``fockoracle`` operators one exponential route each; the
independent routes that cross-check them live here and run once per suite.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math

import numpy as np
import scipy.linalg

from . import diffops, fockoracle, gj1, jacobi, matfun, numdiff, symplectic
from .jacobi import CSPoint, JacobiElement

log = logging.getLogger("siegeljacobi")

SUITES = ("algebra", "symplectic", "jacobi", "oracle", "gj1", "measure", "all")


def _rec(checks, check, anchor, residual, tolerance, n=None, k=None, samples=None):
    checks.append(
        {
            "check": check,
            "anchor": anchor,
            "n": n,
            "k": k,
            "samples": samples,
            "residual": float(residual),
            "tolerance": float(tolerance),
            "pass": bool(residual <= tolerance),
        }
    )


def _random_point(n, rng, z_scale=0.4, w_scale=0.4) -> CSPoint:
    """Random point with hard modulus caps |z_i| <= z_scale, ||W|| <= w_scale."""
    phases = np.exp(2j * np.pi * rng.uniform(size=n))
    z = z_scale * np.sqrt(rng.uniform(size=n)) * phases
    w = symplectic.random_siegel_point(n, 0.5, rng)
    norm = np.linalg.norm(w, 2)
    w = w * (w_scale * math.sqrt(rng.uniform()) / max(norm, 1e-12))
    return CSPoint(z=z, W=w)


def _random_element(n, rng, scale=0.4) -> JacobiElement:
    alpha = scale * (rng.normal(size=n) + 1j * rng.normal(size=n)) / math.sqrt(2)
    return JacobiElement(
        g=symplectic.sp_random(n, scale, rng), alpha=alpha, t=float(rng.normal())
    )


def _bounded_element(n, rng, cap, phase_cap=None) -> JacobiElement:
    """Element with hard caps on |alpha_i| and the generator norm.

    ``phase_cap`` bounds the rotation angles of the unitary factor; odd-index
    multiplier checks need it to keep the principal determinant branch away
    from its cut (half-turn rotations live on the double cover).
    """
    phases = np.exp(2j * np.pi * rng.uniform(size=n))
    alpha = cap * np.sqrt(rng.uniform(size=n)) * phases
    zgen = symplectic.random_symmetric(n, 0.5, rng)
    zgen = zgen * (cap * math.sqrt(rng.uniform()) / max(np.linalg.norm(zgen, 2), 1e-12))
    if phase_cap is None:
        q = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        v, r = np.linalg.qr(q)
        v = v * (np.diag(r) / np.abs(np.diag(r)))
    else:
        v = np.diag(np.exp(1j * rng.uniform(-phase_cap, phase_cap, size=n)))
    return JacobiElement(
        g=symplectic.cartan_synthesize(zgen, v), alpha=alpha, t=float(rng.normal())
    )


# ----------------------------------------------------------------------
# independent routes
# ----------------------------------------------------------------------

def _moebius_residual(g, w, out) -> float:
    """Distance of ``out = symplectic.moebius(g, w)`` from the transposed
    closed form ``(w b* + a*)^-1 (b^T + w a^T)``, relative to
    ``max(1, |out|)``.  For symmetric ``w`` that form is the transpose of
    the unsymmetrized action, so this is half its asymmetry: a symmetry
    residual, not an independent second route."""
    alt = np.linalg.inv(w @ g.b.conj().T + g.a.conj().T) @ (g.b.T + w @ g.a.T)
    return np.linalg.norm(out - alt) / max(1.0, np.linalg.norm(out))


def _normal_order_residual(alpha, cutoff, d) -> float:
    """Distance of ``d = fockoracle.displacement(alpha, cutoff)`` from the
    normal-ordered product ``exp(-|alpha|^2/2) e^{alpha a+} e^{-conj(alpha) a}``
    on the lower half of the basis."""
    a, ad = fockoracle.ladder(cutoff)
    ordered = np.exp(-0.5 * abs(alpha) ** 2) * scipy.linalg.expm(alpha * ad)
    ordered = ordered @ scipy.linalg.expm(-np.conj(alpha) * a)
    half = cutoff // 2
    return float(np.abs(d[:half, :half] - ordered[:half, :half]).max())


def _reverse_order_residual(w, cutoff, s) -> float:
    """Distance of ``s = fockoracle.squeeze(w, cutoff)`` from the reverse
    ordering ``e^{-conj(w) Km} e^{-eta K0} e^{w Kp}``, ``eta = log(1 - |w|^2)``,
    on the ``cutoff // 8`` block: that ordering amplifies corner truncation."""
    kp, km, k0 = fockoracle.number_ops(cutoff)
    eta = np.log(1 - abs(w) ** 2)
    reverse = scipy.linalg.expm(-np.conj(w) * km) @ scipy.linalg.expm(-eta * k0)
    reverse = reverse @ scipy.linalg.expm(w * kp)
    deep = cutoff // 8
    return float(np.abs(s[:deep, :deep] - reverse[:deep, :deep]).max())


def _jn_forms_residual(p: float, n: int) -> float:
    """Relative distance of :func:`symplectic.jn` from its second closed form
    ``2^n pi^{n(n+1)/2} prod_i Gamma(2p+2i) / Gamma(2p+n+i+1)``."""
    log_val = n * math.log(2.0) + n * (n + 1) / 2 * math.log(math.pi)
    for i in range(1, n + 1):
        log_val += math.lgamma(2 * p + 2 * i) - math.lgamma(2 * p + n + i + 1)
    val = symplectic.jn(p, n)
    return abs(val - math.exp(log_val)) / abs(val)


def _lambda_product_form(n: int, k: float) -> float:
    """Product form of the normalization constant of
    :func:`jacobi.measure_constants`.

    Equivalent to ``pi^-n / J_n((k-3)/2 - n)``; reduces to
    ``(k-3) / (2 pi^2)`` at n = 1.
    """
    log_val = -n * math.log(2.0) - n * (n + 3) / 2 * math.log(math.pi)
    for i in range(1, n + 1):
        log_val += math.lgamma(k + i - n - 2) - math.lgamma(k - 3 - 2 * (n - i))
    return math.exp(log_val)


def _cocycle_literal_residual(h, x, k, lam):
    """Distance of ``lam = jacobi.lambda_cocycle_ez(h, x, k)`` from the
    literal ``T = conj(b)^-1 conj(a)`` form in its docstring, relative to
    ``max(1, |lam|)``.  The form is undefined where ``|det conj(b)| <=
    1e-12``; there nothing is compared and the residual is 0."""
    bb = h.g.b.conj()
    if abs(np.linalg.det(bb)) <= 1e-12:
        return 0.0
    t = np.linalg.solve(bb, h.g.a.conj())
    inv_wt = np.linalg.inv(x.W + t)
    rhs = 2 * x.z + h.alpha - x.W @ h.alpha.conj()
    two_alt = x.z @ inv_wt @ x.z + (h.alpha + t.T @ h.alpha.conj()) @ inv_wt @ rhs
    alt = matfun.detpow(x.W @ h.g.b.conj().T + h.g.a.conj().T, -k / 2) * np.exp(-0.5 * two_alt)
    return abs(alt - lam) / max(1.0, abs(lam))


# ----------------------------------------------------------------------
# convention resolutions
# ----------------------------------------------------------------------

def resolve_action_order(seed=7, n=1, trials=20) -> str:
    """Test which composition order the point action is a left action for."""
    rng = np.random.default_rng(seed)
    res_as_written = 0.0
    res_flipped = 0.0
    for _ in range(trials):
        h1 = _random_element(n, rng, 0.3)
        h2 = _random_element(n, rng, 0.3)
        x = _random_point(n, rng, 0.3, 0.3)
        two_step = jacobi.act(h1, jacobi.act(h2, x))
        left = jacobi.act(jacobi.jacobi_compose(h1, h2), x)
        right = jacobi.act(jacobi.jacobi_compose(h2, h1), x)
        res_as_written += np.linalg.norm(jacobi.cs_coords(two_step) - jacobi.cs_coords(left))
        res_flipped += np.linalg.norm(jacobi.cs_coords(two_step) - jacobi.cs_coords(right))
    return "left" if res_as_written < res_flipped else "right"


def resolve_central_phase(seed=7, trials=20, k=2) -> float:
    """Scan the central charge candidates for exact cocycle multiplicativity."""
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(trials):
        h1 = _random_element(1, rng, 0.3)
        h2 = _random_element(1, rng, 0.3)
        x = _random_point(1, rng, 0.3, 0.3)
        lam1 = jacobi.lambda_cocycle(h1, jacobi.act(h2, x), k).lam
        lam2 = jacobi.lambda_cocycle(h2, x, k).lam
        h12 = jacobi.jacobi_compose(h1, h2)
        lam12 = jacobi.lambda_cocycle(h12, x, k).lam
        dt = h12.t - h1.t - h2.t
        samples.append((lam1 * lam2, lam12, dt))
    best_c, best_res = None, np.inf
    for c in (1.0, -1.0, 2.0, -2.0):
        res = max(
            abs(prod - lam12 * np.exp(1j * c * dt)) for prod, lam12, dt in samples
        )
        if res < best_res:
            best_c, best_res = c, res
    return best_c


def resolve_kernel_transform(seed=7, n=1, k=4, trials=20) -> str:
    """Pick the multiplier placement in the kernel transformation law."""
    rng = np.random.default_rng(seed)
    placements = {
        "J(g,Y) K(X,Y) conj(J(g,X))": lambda jx, jy, kxy: jy * kxy * np.conj(jx),
        "conj(J(g,Y)) K(X,Y) J(g,X)": lambda jx, jy, kxy: np.conj(jy) * kxy * jx,
        "J(g,X) K(X,Y) conj(J(g,Y))": lambda jx, jy, kxy: jx * kxy * np.conj(jy),
    }
    residuals = {name: 0.0 for name in placements}
    for _ in range(trials):
        g = symplectic.sp_random(n, 0.4, rng)
        x = symplectic.random_siegel_point(n, 0.4, rng)
        y = symplectic.random_siegel_point(n, 0.4, rng)
        kxy = symplectic.sp_kernel(x, y, k)
        kg = symplectic.sp_kernel(
            symplectic.moebius(g, x), symplectic.moebius(g, y), k
        )
        jx = symplectic.multiplier(g, x, k)
        jy = symplectic.multiplier(g, y, k)
        for name, form in placements.items():
            residuals[name] += abs(kg - form(jx, jy, kxy))
    return min(residuals, key=residuals.get)


def resolved_conventions(seed=7) -> dict:
    rep = diffops.verify_structure_constants(
        diffops.jacobi_generators_diff(1), diffops.jacobi_table(1)
    )
    return {
        "action_order": resolve_action_order(seed),
        "sign_sigma": rep["sigma"],
        "central_phase_c": resolve_central_phase(seed),
        "kernel_transform": resolve_kernel_transform(seed),
    }


# ----------------------------------------------------------------------
# suites
# ----------------------------------------------------------------------

def suite_algebra(n=2, seed=0, k=None, samples=None, cutoff=None) -> list:
    checks = []
    for nn in range(1, n + 1):
        rep = diffops.verify_structure_constants(
            diffops.jacobi_generators_diff(nn), diffops.jacobi_table(nn)
        )
        _rec(
            checks,
            f"jacobi-algebra-closure-n{nn}",
            "generator-bracket-table",
            len(rep["failures"]),
            0,
            n=nn,
            samples=rep["checked"],
        )
        rep_sp = diffops.verify_structure_constants(
            diffops.sp_generators_diff(nn), diffops.sp_table(nn)
        )
        _rec(
            checks,
            f"sp-algebra-closure-n{nn}",
            "quadratic-sector-bracket-table",
            len(rep_sp["failures"]),
            0,
            n=nn,
            samples=rep_sp["checked"],
        )
    _rec(
        checks,
        f"table-jacobi-identity-n{n}",
        "structure-constant-consistency",
        0.0 if diffops.jacobi_table(n).check_jacobi() else 1.0,
        0,
        n=n,
    )
    return checks


def suite_symplectic(n=2, k=4.0, seed=1234, samples=50, cutoff=None) -> list:
    rng = np.random.default_rng(seed)
    checks = []
    worst_gauss = worst_cartan = worst_zw = 0.0
    for _ in range(samples):
        g = symplectic.sp_random(n, 0.5, rng)
        f = symplectic.gauss_decompose(g)
        re = symplectic.gauss_reassemble(f)
        worst_gauss = max(
            worst_gauss,
            np.linalg.norm(re.a - g.a) + np.linalg.norm(re.b - g.b),
            np.linalg.norm(f.y - f.y.T),
        )
        c = symplectic.cartan_decompose(g)
        re2 = symplectic.cartan_synthesize(c.z, c.v)
        worst_cartan = max(
            worst_cartan, np.linalg.norm(re2.a - g.a) + np.linalg.norm(re2.b - g.b)
        )
        zs = symplectic.random_symmetric(n, 0.5, rng)
        worst_zw = max(
            worst_zw, np.linalg.norm(symplectic.z_of_w(symplectic.w_of_z(zs)) - zs)
        )
    _rec(checks, "gauss-roundtrip", "triangular-factorization", worst_gauss, 1e-9,
         n=n, samples=samples)
    _rec(checks, "cartan-roundtrip", "polar-factorization", worst_cartan, 1e-9,
         n=n, samples=samples)
    _rec(checks, "generator-domain-roundtrip", "tanh-coordinate-map", worst_zw, 1e-11,
         n=n, samples=samples)

    worst_act = worst_ball = worst_detv = worst_forms = worst_closure = 0.0
    for _ in range(samples):
        g1 = symplectic.sp_random(n, 0.4, rng)
        g2 = symplectic.sp_random(n, 0.4, rng)
        w = symplectic.random_siegel_point(n, 0.4, rng)
        g2w = symplectic.moebius(g2, w)
        g12 = symplectic.sp_compose(g1, g2)
        lhs = symplectic.moebius(g1, g2w)
        rhs = symplectic.moebius(g12, w)
        worst_act = max(worst_act, np.linalg.norm(lhs - rhs))
        worst_forms = max(
            worst_forms,
            _moebius_residual(g2, w, g2w),
            _moebius_residual(g1, g2w, lhs),
            _moebius_residual(g12, w, rhs),
        )
        w1 = symplectic.random_siegel_point(n, 0.35, rng)
        w2 = symplectic.random_siegel_point(n, 0.35, rng)
        w3, v, detv = symplectic.ball_compose(w1, w2)
        prod = symplectic.sp_compose(symplectic.sp_of(w1), symplectic.sp_of(w2))
        y = symplectic.gauss_decompose(prod).y
        worst_ball = max(worst_ball, np.linalg.norm(w3 - y))
        worst_detv = max(
            worst_detv, abs(abs(detv) - 1.0), abs(np.linalg.det(v) - detv)
        )
        worst_closure = max(
            worst_closure,
            symplectic.membership_residual(g12.a, g12.b),
            symplectic.membership_residual(prod.a, prod.b),
        )
    _rec(checks, "moebius-left-action", "linear-fractional-action", worst_act, 1e-10,
         n=n, samples=samples)
    _rec(checks, "ball-composition", "two-point-composition-law", worst_ball, 1e-9,
         n=n, samples=samples)
    _rec(checks, "ball-composition-unitary", "unimodular-correction", worst_detv, 1e-9,
         n=n, samples=samples)
    # half the in-call bound of 1e-8 on the unsymmetrized action
    _rec(checks, "moebius-closed-forms", "action-closed-forms", worst_forms, 5e-9,
         n=n, samples=samples)
    _rec(checks, "compose-closure", "product-membership", worst_closure,
         10 * matfun.DEFAULT_TOL, n=n, samples=samples)

    placement = resolve_kernel_transform(seed)
    worst_tr = 0.0
    for _ in range(samples):
        g = symplectic.sp_random(n, 0.4, rng)
        x = symplectic.random_siegel_point(n, 0.4, rng)
        y = symplectic.random_siegel_point(n, 0.4, rng)
        kg = symplectic.sp_kernel(symplectic.moebius(g, x), symplectic.moebius(g, y), k)
        pred = (
            symplectic.multiplier(g, y, k)
            * symplectic.sp_kernel(x, y, k)
            * np.conj(symplectic.multiplier(g, x, k))
        )
        worst_tr = max(worst_tr, abs(kg - pred) / max(abs(kg), 1.0))
    _rec(checks, "kernel-transformation", "multiplier-placement", worst_tr, 1e-9,
         n=n, k=k, samples=samples)

    jn_failures = 0
    for nn in (1, 2, 3, 4):
        for _ in range(50):
            jn_failures += _jn_forms_residual(rng.uniform(-0.9, 6.0), nn) > 1e-12
    _rec(checks, "jn-closed-forms", "weighted-volume-constant", jn_failures, 0,
         samples=200)
    worst_l1 = abs(
        symplectic.lambda1(8.0, 2) - 1.0 / symplectic.jn(8.0 / 2 - 2 - 1, 2)
    ) / symplectic.lambda1(8.0, 2)
    _rec(checks, "lambda1-routes", "group-normalization-constant", worst_l1, 1e-12,
         n=2, k=8.0)

    w = symplectic.random_siegel_point(n, 0.4, rng)
    # the invariant form of the domain is the W block of the Kahler form at z = 0
    x0 = CSPoint(z=np.zeros(n, dtype=complex), W=w)
    closed = jacobi.kahler_form(x0, k)[n:, n:]
    fd = numdiff.wirtinger_hessian(
        lambda pt: -0.5 * k * matfun.logdet_hpd(np.eye(n) - pt.W @ pt.W.conj()),
        x0,
    )[n:, n:]
    _rec(checks, "two-form-hessian", "invariant-form-vs-finite-differences",
         np.abs(closed - fd).max(), 1e-5, n=n, k=k)
    evmin = np.linalg.eigvalsh(0.5 * (closed + closed.conj().T)).min()
    _rec(checks, "two-form-positive", "invariant-form-positivity",
         0.0 if evmin > 0 else 1.0, 0.5, n=n, k=k)

    g = symplectic.sp_random(n, 0.3, rng)
    jac = numdiff.w_jacobian(lambda ww: symplectic.moebius(g, ww), w)
    q_inv = symplectic.sp_density(symplectic.moebius(g, w)) * abs(
        np.linalg.det(jac)
    ) ** 2
    _rec(checks, "volume-invariance", "group-invariant-volume",
         abs(q_inv - symplectic.sp_density(w)) / symplectic.sp_density(w), 1e-6,
         n=n)
    return checks


def suite_jacobi(n=2, k=4.0, seed=1234, samples=100, cutoff=None) -> list:
    rng = np.random.default_rng(seed)
    checks = []

    worst_sym = 0.0
    pts = [_random_point(n, rng) for _ in range(20)]
    for x in pts:
        for y in pts:
            worst_sym = max(
                worst_sym,
                abs(jacobi.kernel(x, y, k) - np.conj(jacobi.kernel(y, x, k))),
            )
    _rec(checks, "kernel-hermitian", "overlap-symmetry", worst_sym, 1e-12,
         n=n, k=k, samples=len(pts) ** 2)

    gram = np.array([[jacobi.kernel(x, y, k) for y in pts] for x in pts])
    evmin = np.linalg.eigvalsh(0.5 * (gram + gram.conj().T)).min()
    _rec(checks, "kernel-positive", "overlap-positivity",
         max(0.0, -evmin / np.linalg.norm(gram)), 1e-9, n=n, k=k,
         samples=len(pts))

    worst_uni = worst_mult = worst_routes = worst_literal = 0.0
    c = resolve_central_phase(seed)
    for _ in range(samples):
        h = _bounded_element(n, rng, 0.35)
        h2 = _bounded_element(n, rng, 0.35)
        x = _random_point(n, rng, 0.35, 0.35)
        data = jacobi.lambda_cocycle(h, x, int(k))
        hx = CSPoint(z=data.z1, W=data.W1)
        kxx = jacobi.kernel(x, x, k).real
        worst_uni = max(
            worst_uni,
            abs(abs(data.lam) ** 2 * jacobi.kernel(hx, hx, k).real - kxx) / kxx,
        )
        lam1 = jacobi.lambda_full(h, jacobi.act(h2, x), int(k))
        lam2 = jacobi.lambda_full(h2, x, int(k))
        lam12 = jacobi.lambda_full(jacobi.jacobi_compose(h, h2), x, int(k))
        worst_mult = max(worst_mult, abs(lam1 * lam2 - lam12) / abs(lam12))
        if n == 1:
            ez = jacobi.lambda_cocycle_ez(h, x, int(k))
            worst_routes = max(worst_routes, abs(ez - data.lam) / abs(data.lam))
            worst_literal = max(worst_literal, _cocycle_literal_residual(h, x, int(k), ez))
    _rec(checks, "cocycle-unitarity", "multiplier-norm-consistency", worst_uni,
         1e-9, n=n, k=k, samples=samples)
    _rec(checks, "cocycle-multiplicative", "multiplier-composition", worst_mult,
         1e-9, n=n, k=k, samples=samples)
    if n == 1:
        _rec(checks, "cocycle-route-agreement", "multiplier-closed-forms",
             worst_routes, 1e-9, n=n, k=k, samples=samples)
        _rec(checks, "cocycle-literal-route", "multiplier-literal-route",
             worst_literal, 1e-9, n=n, k=k, samples=samples)

    x = _random_point(n, rng)
    pot = jacobi.kahler_potential(x, k)
    logk = np.log(jacobi.kernel(x, x, k))
    _rec(checks, "potential-log-kernel", "potential-diagonal-consistency",
         abs(pot - logk.real) + abs(logk.imag), 1e-11, n=n, k=k)

    closed = jacobi.kahler_form(x, k)
    fd = numdiff.wirtinger_hessian(lambda p: jacobi.kahler_potential(p, k), x)
    _rec(checks, "kahler-hessian-fd", "form-vs-finite-differences",
         np.abs(closed - fd).max(), 1e-5, n=n, k=k)
    evmin = np.linalg.eigvalsh(0.5 * (closed + closed.conj().T)).min()
    _rec(checks, "kahler-positive", "form-positivity", 0.0 if evmin > 0 else 1.0,
         0.5, n=n, k=k)

    h = _random_element(n, rng, 0.3)
    jac_h = numdiff.holomorphic_jacobian(lambda p: jacobi.act(h, p), x)
    hx = jacobi.act(h, x)
    pulled = jac_h.T @ jacobi.kahler_form(hx, k) @ jac_h.conj()
    _rec(checks, "form-invariance", "group-invariant-form",
         np.abs(pulled - closed).max(), 1e-5, n=n, k=k)
    q_inv = jacobi.density(hx) * abs(np.linalg.det(jac_h)) ** 2
    _rec(checks, "density-invariance", "group-invariant-volume",
         abs(q_inv - jacobi.density(x)) / jacobi.density(x), 1e-5, n=n)

    order = resolve_action_order(seed)
    _rec(checks, "action-order", "left-action-convention",
         0.0 if order == "left" else 1.0, 0.5, n=1)
    _rec(checks, "central-phase", "central-charge-resolution",
         abs(c - jacobi.CENTRAL_CHARGE), 1e-12, n=1)
    return checks


def suite_oracle(n=1, k=1.0, seed=1234, samples=20, cutoff=60) -> list:
    rng = np.random.default_rng(seed)
    checks = []

    a2 = 0.3 + 0.2j
    a1 = -0.1 + 0.25j
    d2 = fockoracle.displacement(a2, cutoff)
    d1 = fockoracle.displacement(a1, cutoff)
    d12 = fockoracle.displacement(a2 + a1, cutoff)
    phase = np.exp(1j * np.imag(a2 * np.conj(a1)))
    half = cutoff // 2
    _rec(checks, "displacement-composition", "translation-phase-law",
         np.abs((d2 @ d1 - phase * d12)[:half, :half]).max(), 1e-9,
         samples=1)
    worst_order = max(_normal_order_residual(al, cutoff, d)
                      for al, d in ((a2, d2), (a1, d1), (a2 + a1, d12)))
    _rec(checks, "displacement-normal-order", "normal-ordered-displacement",
         worst_order, 1e-8, samples=3)

    w = 0.3
    sq = fockoracle.squeeze(w, cutoff)
    zeta = float(np.arctanh(w))
    sg = fockoracle.squeeze_from_generator(zeta, cutoff)
    _rec(checks, "squeeze-disentangling", "ordered-exponential-forms",
         np.abs((sq - sg)[:half, :half]).max(), 1e-8, samples=1)
    _rec(checks, "squeeze-reverse-order", "reverse-ordered-squeeze",
         _reverse_order_residual(w, cutoff, sq), 1e-8, samples=1)

    _rec(checks, "squeezed-vector-relation", "displaced-squeezed-vacuum",
         fockoracle.check_lemma6(0.4, 0.3, max(cutoff, 80)), 1e-7, samples=1)
    _rec(checks, "conjugation-equations", "ladder-conjugation",
         fockoracle.check_hpb(0.3, 0.2, max(cutoff, 80)), 1e-7, samples=1)

    probe = fockoracle.squeezed_vacuum_convention(0.3, cutoff)
    _rec(checks, "vacuum-orbit-convention", "orbit-argument-convention",
         probe["plain"], 1e-8, samples=1)

    worst_kernel = 0.0
    for _ in range(samples):
        x = _random_point(1, rng, 0.4, 0.4)
        y = _random_point(1, rng, 0.4, 0.4)
        worst_kernel = max(
            worst_kernel,
            abs(fockoracle.oracle_kernel(x, y, cutoff) - jacobi.kernel(x, y, 1.0)),
        )
    _rec(checks, "kernel-oracle", "overlap-vs-closed-form", worst_kernel, 1e-7,
         n=1, k=1.0, samples=samples)

    worst_mm1 = 0.0
    for _ in range(samples):
        # weight one: keep the rotation angle off the half-turn branch cut
        h = _bounded_element(1, rng, 0.35, phase_cap=math.pi / 2)
        x = _random_point(1, rng, 0.35, 0.35)
        res, _ = fockoracle.mm1_residual(
            h.g, complex(h.alpha[0]), complex(x.z[0]), complex(x.W[0, 0]),
            max(cutoff, 100),
        )
        worst_mm1 = max(worst_mm1, res)
    _rec(checks, "orbit-map-end-to-end", "operator-orbit-vs-closed-form",
         worst_mm1, 1e-6, n=1, k=1.0, samples=samples)

    w1, w2 = 0.25 + 0.1j, -0.15 + 0.3j
    big = max(cutoff, 120)
    s1 = fockoracle.squeeze(w1, big)
    s2 = fockoracle.squeeze(w2, big)
    w3, v, detv = symplectic.ball_compose(
        np.array([[w2]]), np.array([[w1]])
    )
    lhs = s2 @ (s1 @ fockoracle.vacuum(big).amps)
    rhs = detv**0.5 * fockoracle.squeeze(complex(w3[0, 0]), big) @ fockoracle.vacuum(big).amps
    _rec(checks, "composition-operator-order", "two-point-law-operator-check",
         float(np.linalg.norm(lhs - rhs)), 1e-8, n=1, k=1.0, samples=1)
    return checks


def suite_gj1(n=1, k=4.0, seed=1234, samples=100, cutoff=None) -> list:
    rng = np.random.default_rng(seed)
    checks = []

    expected = {
        0: "1",
        1: "z",
        2: "z^2 + w",
        3: "z^3 + 3*z*w",
        4: "z^4 + 6*z^2*w + 3*w^2",
        5: "z^5 + 10*z^3*w + 15*z*w^2",
    }
    bad = sum(1 for i, text in expected.items() if gj1.pn_poly(i).text() != text)
    _rec(checks, "pn-golden-table", "heat-polynomial-table", bad, 0, samples=6)

    bad_h = sum(0 if gj1.hermite_exact_equal(i) else 1 for i in range(9))
    _rec(checks, "hermite-closed-form", "hermite-identity-exact", bad_h, 0,
         samples=9)

    ck = gj1.kernel_closed(0.1, 0.2, 0.2, 0.1, 1.0)
    sk = gj1.kernel_series(0.1, 0.2, 0.2, 0.1, 1.0, 40)
    _rec(checks, "kernel-series", "basis-resummation", abs(sk - ck) / abs(ck),
         1e-6, n=1, k=1.0, samples=41)

    worst_rt = worst_kb = worst_ez = 0.0
    for _ in range(samples):
        v = complex(rng.normal(), abs(rng.normal()) + 0.2)
        u = complex(rng.normal(), rng.normal())
        w, z = gj1.cayley(v, u)
        v2, u2 = gj1.cayley_inverse(w, z)
        worst_rt = max(worst_rt, abs(v - v2) + abs(u - u2))
        worst_kb = max(worst_kb, gj1.kb_form_check(v, u, k))
        x, y = v.real, v.imag
        p, q = rng.normal(), rng.normal()
        worst_ez = max(
            worst_ez,
            np.abs(
                gj1.ez_metric(x, y, p, q, k) - gj1.halfplane_metric_real(x, y, p, q, k)
            ).max(),
        )
    _rec(checks, "cayley-roundtrip", "halfplane-disk-biholomorphism", worst_rt,
         1e-12, samples=samples)
    _rec(checks, "form-pullback", "two-presentations-of-the-form", worst_kb,
         1e-8, k=k, samples=samples)
    _rec(checks, "real-metric", "metric-vs-complex-form", worst_ez, 1e-8, k=k,
         samples=samples)

    worst_act = worst_int = 0.0
    for _ in range(samples // 4):
        m1 = _random_sl2(rng)
        m2 = _random_sl2(rng)
        l1 = rng.normal(size=2)
        l2v = rng.normal(size=2)
        v = complex(rng.normal(), abs(rng.normal()) + 0.3)
        u = complex(rng.normal(), rng.normal())
        # action property through the matched group elements
        g1, alpha1 = gj1.match_jacobi_parameters(m1, l1)
        g2, alpha2 = gj1.match_jacobi_parameters(m2, l2v)
        h1 = JacobiElement(g=g1, alpha=alpha1)
        h2 = JacobiElement(g=g2, alpha=alpha2)
        va, ua = gj1.gj0_act(m2, l2v, v, u)
        va, ua = gj1.gj0_act(m1, l1, va, ua)
        w, z = gj1.cayley(va, ua)
        image = jacobi.act(
            jacobi.jacobi_compose(h1, h2),
            _cs_from_halfplane(v, u),
        )
        worst_act = max(
            worst_act,
            abs(complex(image.W[0, 0]) - w) + abs(complex(image.z[0]) - z),
        )
        # single-element intertwining
        w1, z1 = gj1.cayley(*gj1.gj0_act(m1, l1, v, u))
        image1 = jacobi.act(h1, _cs_from_halfplane(v, u))
        worst_int = max(
            worst_int,
            abs(complex(image1.W[0, 0]) - w1) + abs(complex(image1.z[0]) - z1),
        )
    _rec(checks, "halfplane-action-property", "affine-action-composition",
         worst_act, 1e-8, samples=samples // 4)
    _rec(checks, "cayley-intertwines-action", "picture-change-equivariance",
         worst_int, 1e-8, samples=samples // 4)
    return checks


def _random_sl2(rng) -> np.ndarray:
    m = np.eye(2) + 0.35 * rng.normal(size=(2, 2))
    m /= math.sqrt(abs(np.linalg.det(m)))
    if np.linalg.det(m) < 0:
        m = m @ np.diag([1.0, -1.0])
    return m


def _cs_from_halfplane(v: complex, u: complex) -> CSPoint:
    w, z = gj1.cayley(v, u)
    return CSPoint(z=np.array([z]), W=np.array([[w]]))


#: The n = 1 test functions of the reproducing checks, ``(name, f, z0, w0)``.
_REPRODUCING_TARGETS = (
    ("one", lambda z, w: np.ones_like(z), 0j, 0j),
    ("z", lambda z, w: z, 0.2 + 0j, 0.1 + 0j),
    ("w", lambda z, w: w, 0j, 0.3 + 0j),
)


def suite_measure(n=1, k=6.0, seed=7, samples=200_000, cutoff=None) -> list:
    """Normalization, reproducing and volume checks by Monte Carlo.

    At n = 1 each chunk of the sampler is drawn once and feeds the total
    mass and all three reproducing estimates; the ``jn-mc`` volume estimate
    streams its own box draws.  Both sets of chunks run on one pool of
    worker threads (:func:`jacobi._ordered_map`), each task returning only
    its partial sums, which are added here in chunk order as a serial loop
    would: the records do not depend on the number of workers, and memory
    stays at one chunk per worker however large ``samples`` is.
    """
    checks = []
    consts = jacobi.measure_constants(n, k)
    alt = _lambda_product_form(n, k)
    _rec(checks, "normalization-routes", "resolution-of-unity-constant",
         abs(consts.Lambda - alt) / consts.Lambda, 1e-12, n=n, k=k)

    # cross-check the closed-form volume constant by direct Monte Carlo at
    # n = 2; the per-sample relative sigma is about 4.6, so the fixed count
    # below puts the 1% tolerance at six standard errors
    count = 8_000_000
    p = 1.0
    n1_tasks = []
    if n == 1:
        n1_tasks = [functools.partial(_measure_chunk_n1, consts, samples, seed, ci)
                    for ci in range(jacobi._chunk_count(samples))]
    results = jacobi._ordered_map(n1_tasks + _jn_mc_tasks(p, count, seed))

    if n == 1:
        mass = 0.0
        sums = [0j] * len(_REPRODUCING_TARGETS)
        inside = 0
        for chunk_mass, chunk_inside, chunk_sums in itertools.islice(results, len(n1_tasks)):
            mass += chunk_mass
            inside += chunk_inside
            for i, part in enumerate(chunk_sums):
                sums[i] += part
        log.debug("measure sampler n=1: %d samples in %d chunks, inside-domain "
                  "fraction %.6f", samples, len(n1_tasks), inside / samples)
        _rec(checks, "normalization-mc", "unit-total-mass",
             abs(mass / samples - 1.0), 0.01, n=1, k=k, samples=samples)
        for (name, f, z0, w0), total in zip(_REPRODUCING_TARGETS, sums):
            lhs = complex(f(np.array([z0]), np.array([w0]))[0])
            _rec(checks, f"reproducing-{name}", "kernel-reproducing-property",
                 abs(lhs - total / samples) / max(abs(lhs), 1e-300), 0.03, n=1,
                 k=k, samples=samples)

    est = _jn_mc_fold(results, count)
    _rec(checks, "jn-mc", "weighted-volume-vs-direct-mc",
         abs(est - symplectic.jn(p, 2)) / symplectic.jn(p, 2), 0.01, n=2,
         samples=count)
    return checks


def _measure_chunk_n1(consts, samples: int, seed: int, ci: int):
    """Total weight, inside-disk count and the reproducing sums of
    :data:`_REPRODUCING_TARGETS` over chunk ``ci`` of the n = 1 sampler."""
    w, z, wt = jacobi._sample_chunk_n1(consts, samples, seed, ci)
    mass = wt.sum()
    # the weight is 0 exactly outside the disk, so the kernel estimates need
    # only the samples inside it
    keep = np.flatnonzero(wt)
    w, z, wt = w[keep], z[keep], wt[keep]
    sums = [np.sum(wt * jacobi._kernel_n1(z, w, z0, w0, consts.k) * f(z, w))
            for _, f, z0, w0 in _REPRODUCING_TARGETS]
    return mass, len(keep), sums


def _jn_mc_tasks(p: float, count: int, seed: int) -> list:
    """One task per chunk of :func:`_jn_mc_n2`, each returning the chunk's
    sum of ``det(1 - W Wbar)^p`` over the domain and its inside count."""
    return [functools.partial(_jn_mc_chunk, p, count, seed, start)
            for start in range(0, count, jacobi._CHUNK)]


def _jn_mc_chunk(p: float, count: int, seed: int, start: int):
    # w11 = a + ib, w12 = c + id, w22 = e + if; 1 - W W* for symmetric
    # 2x2 W is positive definite iff its trace and determinant are > 0
    a, b, c, d, e, f = jacobi._uniform_chunk(seed, count, 6, start)
    m12 = c * c + d * d
    s11 = 1.0 - (a * a + b * b + m12)
    s22 = 1.0 - (e * e + f * f + m12)
    # s12 = -(w11 conj(w12) + w12 conj(w22))
    s12_re = a * c + b * d + c * e + d * f
    s12_im = b * c - a * d + d * e - c * f
    det = s11 * s22 - (s12_re * s12_re + s12_im * s12_im)
    inside = (det > 0) & (s11 + s22 > 0)
    return np.where(inside, det**p, 0.0).sum(), np.count_nonzero(inside)


def _jn_mc_fold(results, count: int) -> float:
    """Add the chunk results of :func:`_jn_mc_tasks` in chunk order."""
    total = 0.0
    inside_count = chunks = 0
    for chunk_total, chunk_inside in results:
        total += chunk_total
        inside_count += chunk_inside
        chunks += 1
    log.debug("measure sampler jn-mc n=2: %d samples in %d chunks, inside-domain "
              "fraction %.6f", count, chunks, inside_count / count)
    return 64.0 * total / count


def _jn_mc_n2(p: float, count: int, seed: int) -> float:
    """Box Monte-Carlo estimate of ``J_2(p)``, the integral of
    ``det(1 - W Wbar)^p`` over the symmetric 2x2 domain.

    The box [-1, 1]^6 holds the real and imaginary parts of ``w11, w12,
    w22``; they are the six streams of :func:`jacobi._uniform_chunk`, so the
    draws equal six successive ``default_rng(seed).uniform(-1, 1, count)``
    calls while each worker holds only one chunk of them at a time.
    """
    return _jn_mc_fold(jacobi._ordered_map(_jn_mc_tasks(p, count, seed)), count)


_SUITE_FNS = {
    "algebra": suite_algebra,
    "symplectic": suite_symplectic,
    "jacobi": suite_jacobi,
    "oracle": suite_oracle,
    "gj1": suite_gj1,
    "measure": suite_measure,
}

_DEFAULTS = {
    "algebra": dict(n=2),
    "symplectic": dict(n=2, k=4.0, samples=50),
    "jacobi": dict(n=2, k=4.0, samples=100),
    "oracle": dict(n=1, k=1.0, samples=20, cutoff=60),
    "gj1": dict(n=1, k=4.0, samples=100),
    # the reproducing-property estimator has ~1.1% relative sigma at 1e6
    # samples; this default puts the 3% tolerance beyond four sigma
    "measure": dict(n=1, k=6.0, samples=2_500_000),
}


def run_suite(suite: str, seed=1234, **overrides) -> dict:
    """Run one suite (or ``all``) and assemble the report."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    names = [s for s in SUITES if s != "all"] if suite == "all" else [suite]
    checks = []
    for name in names:
        kwargs = dict(_DEFAULTS[name])
        for key, val in overrides.items():
            if val is not None and key in ("n", "k", "samples", "cutoff"):
                kwargs[key] = val
        kwargs = {k_: v for k_, v in kwargs.items() if v is not None}
        checks.extend(_SUITE_FNS[name](seed=seed, **kwargs))
    ids = [c["check"] for c in checks]
    if len(set(ids)) != len(ids):
        raise AssertionError("duplicate check ids in report")
    return {
        "suite": suite,
        "seed": seed,
        "checks": checks,
        "conventions": resolved_conventions(seed=7),
        "pass": all(c["pass"] for c in checks),
    }
