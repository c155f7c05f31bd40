"""Machine-verification suites with JSON-friendly reports.

Each suite runs a battery of identity checks and returns a report dict:

    {"suite": name,
     "checks": [{"check", "anchor", "n", "k", "samples", "residual",
                 "tolerance", "pass"}, ...],
     "conventions": {"action_order", "sign_sigma", "central_phase_c",
                     "kernel_transform"},
     "pass": bool}

Reports are deterministic given the same arguments and seed.  The "anchor"
field is a stable identifier naming the identity a record exercises.  The
"conventions" block is the constant :data:`CONVENTIONS`: the library fixes
one realization of the algebra, and records check each of its entries.

The primitives in ``symplectic`` and ``jacobi`` evaluate one closed form
each, and the ``fockoracle`` operators one product of exponential actions
each; the independent routes that cross-check them live here and run once
per suite.  The oracle records apply each operator to the leading basis
columns they read.  The sampled records draw all their samples first, in
the order of one draw after another (:func:`_point_draws`,
:func:`_element_draws`), and build them on stacks; ``kernel-oracle`` and
``orbit-map-end-to-end`` make one stacked oracle call, and the Jacobi suite
one stacked closed-form call per identity.  Each record's worst case is
folded by :func:`_worst`, so a NaN on any sample fails the record.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import logging
import math

import numpy as np

from . import diffops, fockoracle, gj1, jacobi, matfun, numdiff, symplectic
from .jacobi import CSPoint, JacobiElement

log = logging.getLogger("siegeljacobi")

SUITES = ("algebra", "symplectic", "jacobi", "oracle", "gj1", "measure", "all")
DEFAULT_SEED = 1234  # the seed a report records when none is given

#: The one realization of the Jacobi algebra the library implements, printed
#: in every report's header.  Each entry is a constant that a record checks:
#: ``action-order``, the ``*-algebra-closure-*`` records (brackets compared at
#: the table's sign), ``cocycle-multiplicative`` (``lambda_full`` carries
#: ``exp(i c t)``) and ``kernel-transformation``.
CONVENTIONS = {
    "action_order": "left",
    "sign_sigma": 1,
    "central_phase_c": jacobi.CENTRAL_CHARGE,
    "kernel_transform": "J(g,Y) K(X,Y) conj(J(g,X))",
}


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


def _worst(*residuals) -> float:
    """The largest of ``residuals`` (numbers or arrays of them), or NaN if
    any of them is NaN.

    Every record's worst case over its samples is folded with this: Python's
    ``max`` keeps its first argument over a later NaN (``max(0.0, nan)`` is
    0.0), which would drop a failed sample before it reaches the bound.
    """
    return float(np.max(np.concatenate([np.ravel(r) for r in residuals])))


def _abs(c):
    """``|c|`` of a complex number or of each entry of an array, as Python's
    ``abs`` computes it (``hypot``); numpy's SIMD absolute of complex arrays
    rounds some entries differently, and the records keep their bits."""
    return np.hypot(np.real(c), np.imag(c))


def _norms(v: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each vector of a stack ``(..., m)``, with its
    bits: the sums of squares are the BLAS dot products it forms."""
    re, im = v.real[..., None, :], v.imag[..., None, :]
    return np.sqrt((re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0, 0])


def _normal_blocks(rng, samples, n, *blocks) -> list:
    """``samples`` successive draws of consecutive pieces of standard normal
    ``n x n`` blocks, ``blocks[i]`` of them in piece ``i``: one normal draw,
    split into the pieces ``(samples, blocks[i], n, n)``."""
    normals = rng.normal(size=(samples, sum(blocks), n, n))
    return np.split(normals, np.cumsum(blocks)[:-1], axis=1)


def _siegel_points(normals, scale) -> np.ndarray:
    """The domain points of :func:`symplectic.random_siegel_point` from its
    normal draws ``(..., SYM_BLOCKS, n, n)``."""
    return symplectic.w_of_z(symplectic._symmetric_of(normals, scale))


def _point_draws(n, rng) -> tuple:
    """The raw draws of one random point, in the order :func:`_points` reads
    them: phases and radii of ``z``, the normals of the generator of ``W``,
    the uniform that sets its norm."""
    return (rng.uniform(size=n), rng.uniform(size=n),
            rng.normal(size=(symplectic.SYM_BLOCKS, n, n)), rng.uniform())


def _points(draws, z_scale=0.4, w_scale=0.4) -> CSPoint:
    """The stack of random points of a list of :func:`_point_draws`, with
    hard modulus caps |z_i| <= z_scale, ||W|| <= w_scale."""
    phase, radius, normals, u = (np.array(d) for d in zip(*draws))
    z = z_scale * np.sqrt(radius) * np.exp(2j * np.pi * phase)
    w = _siegel_points(normals, 0.5)
    norm = np.linalg.norm(w, 2, axis=(-2, -1))
    w = w * (w_scale * np.sqrt(u) / np.maximum(norm, 1e-12))[:, None, None]
    return CSPoint(z=z, W=w)


def _random_point(n, rng, z_scale=0.4, w_scale=0.4) -> CSPoint:
    """Random point with hard modulus caps |z_i| <= z_scale, ||W|| <= w_scale."""
    return _points([_point_draws(n, rng)], z_scale, w_scale)[0]


def _random_element(n, rng, scale=0.4) -> JacobiElement:
    alpha = scale * (rng.normal(size=n) + 1j * rng.normal(size=n)) / math.sqrt(2)
    return JacobiElement(
        g=symplectic.sp_random(n, scale, rng), alpha=alpha, t=float(rng.normal())
    )


def _element_draws(n, rng, phase_cap=None) -> tuple:
    """The raw draws of one bounded element, in the order
    :func:`_bounded_elements` reads them: phases and radii of ``alpha``, the
    normals of the generator, the uniform that sets its norm, the draws of
    the unitary factor (normals, or ``n`` angles under ``phase_cap``), ``t``."""
    blocks = (symplectic.SYM_BLOCKS, n, n)
    head = (rng.uniform(size=n), rng.uniform(size=n), rng.normal(size=blocks), rng.uniform())
    unitary = (rng.normal(size=blocks) if phase_cap is None
               else rng.uniform(-phase_cap, phase_cap, size=n))
    return (*head, unitary, rng.normal())


def _bounded_elements(draws, cap, phase_cap=None) -> JacobiElement:
    """The stack of elements of a list of :func:`_element_draws`, with hard
    caps on |alpha_i| and the generator norm.

    ``phase_cap`` bounds the rotation angles of the unitary factor; odd-index
    multiplier checks need it to keep the principal determinant branch away
    from its cut (half-turn rotations live on the double cover).
    """
    phase, radius, normals, u, unitary, t = (np.array(d) for d in zip(*draws))
    alpha = cap * np.sqrt(radius) * np.exp(2j * np.pi * phase)
    zgen = symplectic._symmetric_of(normals, 0.5)
    norm = np.linalg.norm(zgen, 2, axis=(-2, -1))
    zgen = zgen * (cap * np.sqrt(u) / np.maximum(norm, 1e-12))[:, None, None]
    if phase_cap is None:
        v = symplectic._haar_of(unitary)
    else:
        v = np.zeros(zgen.shape, dtype=complex)
        diag = np.arange(zgen.shape[-1])
        v[:, diag, diag] = np.exp(1j * unitary)
    return JacobiElement(g=symplectic.cartan_synthesize(zgen, v), alpha=alpha, t=t)


def _bounded_element(n, rng, cap, phase_cap=None) -> JacobiElement:
    """One element of :func:`_bounded_elements`, drawn from ``rng``."""
    return _bounded_elements([_element_draws(n, rng, phase_cap)], cap, phase_cap)[0]


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
    """Distance of ``d``, leading columns of
    ``fockoracle.displacement(alpha, np.eye(cutoff + 1))``, from the
    normal-ordered product ``exp(-|alpha|^2/2) e^{alpha a+} e^{-conj(alpha) a}``
    on the lower half of the basis."""
    half = cutoff // 2
    ordered = fockoracle._product([{"a": -np.conj(alpha)}, {"ad": alpha}],
                                  np.eye(cutoff + 1, half, dtype=complex))
    ordered = np.exp(-0.5 * abs(alpha) ** 2) * ordered
    return float(np.abs(d[:half, :half] - ordered[:half]).max())


def _reverse_order_residual(w, cutoff, s) -> float:
    """Distance of ``s``, leading columns of
    ``fockoracle.squeeze(w, np.eye(cutoff + 1))``, from the reverse ordering
    ``e^{-conj(w) Km} e^{-eta K0} e^{w Kp}``, ``eta = log(1 - |w|^2)``, on the
    ``cutoff // 8`` block: that ordering amplifies corner truncation."""
    eta = np.log(1 - abs(w) ** 2)
    deep = cutoff // 8
    reverse = fockoracle._product([{"kp": w}, {"k0": -eta}, {"km": -np.conj(w)}],
                                  np.eye(cutoff + 1, deep, dtype=complex))
    return float(np.abs(s[:deep, :deep] - reverse[:deep]).max())


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
    ``max(1, |lam|)``, for one sample or a stack.  The form is undefined
    where ``|det conj(b)| <= 1e-12``; there nothing is compared and the
    residual is 0 (such a sample is evaluated at ``b = 1``, ``W = 0``, where
    the form is defined, and its value is dropped)."""
    bb = h.g.b.conj()
    defined = ~(_abs(np.linalg.det(bb)) <= 1e-12)
    bb = np.where(defined[..., None, None], bb, matfun.eye(x.n))
    w = np.where(defined[..., None, None], x.W, 0.0)
    t = np.linalg.solve(bb, h.g.a.conj())
    inv_wt = np.linalg.inv(w + t)
    rhs = 2 * x.z + h.alpha - jacobi._matvec(w, h.alpha.conj())
    two_alt = (jacobi._bilinear(x.z, inv_wt, x.z)
               + jacobi._bilinear(h.alpha + jacobi._matvec(t.swapaxes(-1, -2), h.alpha.conj()),
                                  inv_wt, rhs))
    den = w @ h.g.b.conj().swapaxes(-1, -2) + h.g.a.conj().swapaxes(-1, -2)
    alt = matfun._cmul(matfun.detpow(den, -k / 2), np.exp(-0.5 * two_alt))
    return np.where(defined, _abs(alt - lam) / np.maximum(1.0, _abs(lam)), 0.0)[()]


# ----------------------------------------------------------------------
# identity residuals, shared by the suites and the acceptance criteria:
# each takes already-drawn inputs, so every caller keeps its own draws
# ----------------------------------------------------------------------

def _structure_reports(n: int):
    """:func:`diffops.verify_structure_constants` reports of the full
    algebra and of its quadratic sector at ``n``."""
    return (
        diffops.verify_structure_constants(
            diffops.jacobi_generators_diff(n), diffops.jacobi_table(n)
        ),
        diffops.verify_structure_constants(
            diffops.sp_generators_diff(n), diffops.sp_table(n)
        ),
    )


def _roundtrip_residuals(g, zs):
    """Frobenius residuals of the Gauss round trip of ``g`` (or the asymmetry
    of its ``y`` factor, if larger), of its Cartan round trip, and of
    ``z_of_w(w_of_z(zs))`` for symmetric ``zs``."""
    f = symplectic.gauss_decompose(g)
    re = symplectic.gauss_reassemble(f)
    gauss = _worst(
        np.linalg.norm(re.a - g.a) + np.linalg.norm(re.b - g.b),
        np.linalg.norm(f.y - f.y.T),
    )
    c = symplectic.cartan_decompose(g)
    re = symplectic.cartan_synthesize(c.z, c.v)
    cartan = np.linalg.norm(re.a - g.a) + np.linalg.norm(re.b - g.b)
    zw = np.linalg.norm(symplectic.z_of_w(symplectic.w_of_z(zs)) - zs)
    return gauss, cartan, zw


def _ball_composition_residuals(w1, w2):
    """Residuals of ``(w3, v, detv) = symplectic.ball_compose(w1, w2)``:
    ``w3`` against the Gauss ``y`` of the raw product ``sp_of(w1) sp_of(w2)``
    (Frobenius), ``| |detv| - 1 |`` and ``|det v - detv|``; then that
    product, whose group membership the symplectic suite also records."""
    w3, v, detv = symplectic.ball_compose(w1, w2)
    prod = symplectic.sp_compose(symplectic.sp_of(w1), symplectic.sp_of(w2))
    y = symplectic.gauss_decompose(prod).y
    return (np.linalg.norm(w3 - y), abs(abs(detv) - 1.0),
            abs(np.linalg.det(v) - detv), prod)


def _squares(v):
    """``v ** 2`` of a float or of each entry of an array, by Python's
    ``**`` (libm ``pow``), which rounds a few squares one ulp away from
    numpy's: the records keep their bits."""
    return np.reshape([r ** 2 for r in np.ravel(v).tolist()], np.shape(v))


def _cocycle_residuals(h, h2, x, k):
    """Relative residuals of the norm law ``|lambda(h, x)|^2 K(hx, hx) =
    K(x, x)`` and of the multiplicativity ``lambda(h, h2 x) lambda(h2, x) =
    lambda(h h2, x)`` of the full cocycle, at an even integer ``k``; then
    ``lambda(h, x)``, which the Jacobi suite's route checks also compare.
    One sample, or stacks of samples with one stacked call per closed form."""
    data = jacobi.lambda_cocycle(h, x, k)
    hx = CSPoint(z=data.z1, W=data.W1)
    kxx = jacobi.kernel(x, x, k).real
    uni = abs(_squares(_abs(data.lam)) * jacobi.kernel(hx, hx, k).real - kxx) / kxx
    lam1 = jacobi.lambda_full(h, jacobi.act(h2, x), k)
    lam2 = jacobi.lambda_full(h2, x, k)
    lam12 = jacobi.lambda_full(jacobi.jacobi_compose(h, h2), x, k)
    return uni, _abs(matfun._cmul(lam1, lam2) - lam12) / _abs(lam12), data.lam


def _left_action_residual(h1, h2, x):
    """Distance of ``act(h1, act(h2, x))`` from ``act(h1 h2, x)`` in the
    coordinates of :func:`jacobi.cs_coords`, relative to ``max(1, |act(h1 h2,
    x)|)``: zero for a left action of the composition law as implemented.
    One sample, or stacks of samples."""
    two_step = jacobi.cs_coords(jacobi.act(h1, jacobi.act(h2, x)))
    one_step = jacobi.cs_coords(jacobi.act(jacobi.jacobi_compose(h1, h2), x))
    return (_norms(two_step - one_step) / np.maximum(1.0, _norms(one_step)))[()]


def _form_fd_residuals(x, k):
    """Max-abs distance of :func:`jacobi.kahler_form` at ``x`` from the
    finite-difference Hessian of :func:`jacobi.kahler_potential`, and
    whether the form is positive definite."""
    closed = jacobi.kahler_form(x, k)
    fd = numdiff.wirtinger_hessian(lambda p: jacobi.kahler_potential(p, k), x)
    evmin = np.linalg.eigvalsh(0.5 * (closed + closed.conj().T)).min()
    return np.abs(closed - fd).max(), evmin > 0


def _invariance_residuals(h, x, k):
    """Distances of the form (max-abs) and of the density (relative) at
    ``x`` from their pullbacks from ``h . x`` through the finite-difference
    Jacobian of ``act(h, .)``."""
    jac = numdiff.holomorphic_jacobian(lambda p: jacobi.act(h, p), x)
    hx = jacobi.act(h, x)
    pulled = jac.T @ jacobi.kahler_form(hx, k) @ jac.conj()
    q_inv = jacobi.density(hx) * abs(np.linalg.det(jac)) ** 2
    return (np.abs(pulled - jacobi.kahler_form(x, k)).max(),
            abs(q_inv - jacobi.density(x)) / jacobi.density(x))


def _lambda1_residual(k: float, n: int) -> float:
    """Relative distance of :func:`symplectic.lambda1` from its second route
    ``1 / jn(k/2 - n - 1, n)``."""
    val = symplectic.lambda1(k, n)
    return abs(val - 1.0 / symplectic.jn(k / 2 - n - 1, n)) / val


def _real_metric_residual(x, y, p, q, k) -> float:
    """Max-abs distance of :func:`gj1.ez_metric` from the real form of the
    half-plane form, :func:`gj1.halfplane_metric_real`."""
    return np.abs(
        gj1.ez_metric(x, y, p, q, k) - gj1.halfplane_metric_real(x, y, p, q, k)
    ).max()


#: ``gj1.pn_poly(i).text()`` for i = 0..5, typed out.
_PN_TABLE = (
    "1",
    "z",
    "z^2 + w",
    "z^3 + 3*z*w",
    "z^4 + 6*z^2*w + 3*w^2",
    # the quadratic coefficient carries the square of w
    "z^5 + 10*z^3*w + 15*z*w^2",
)


def _one_variable_residuals():
    """Mismatches of :func:`gj1.pn_poly` against :data:`_PN_TABLE`, failures
    of the exact Hermite identity for n = 0..8, and the relative distance of
    the order-40 basis series at k = 4 from :func:`jacobi.kernel`."""
    bad_pn = sum(1 for i, text in enumerate(_PN_TABLE) if gj1.pn_poly(i).text() != text)
    bad_h = sum(0 if gj1.hermite_exact_equal(i) else 1 for i in range(9))
    ck = jacobi.kernel(CSPoint(z=np.array([0.2 + 0j]), W=np.array([[0.1 + 0j]])),
                       CSPoint(z=np.array([0.1 + 0j]), W=np.array([[0.2 + 0j]])), 4.0)
    sk = gj1.kernel_series(0.1, 0.2, 0.2, 0.1, 4.0, 40)
    return bad_pn, bad_h, abs(sk - ck) / abs(ck)


def _domain_kernel(x, y, k) -> complex:
    """:func:`jacobi.kernel` at ``z = 0``: ``det(1 - y x*)^{-k/2}`` on D_n."""
    zero = np.zeros(x.shape[0])
    return jacobi.kernel(CSPoint(z=zero, W=x), CSPoint(z=zero, W=y), k)


def _kernel_transform_residual(g, x, y, k) -> float:
    """Residual of the kernel transformation law ``K(gX, gY) = J(g, Y)
    K(X, Y) conj(J(g, X))`` on the domain, relative to ``max(1, |K(gX, gY)|)``."""
    kg = _domain_kernel(symplectic.moebius(g, x), symplectic.moebius(g, y), k)
    pred = (
        symplectic.multiplier(g, y, k)
        * _domain_kernel(x, y, k)
        * np.conj(symplectic.multiplier(g, x, k))
    )
    return abs(kg - pred) / max(abs(kg), 1.0)


# ----------------------------------------------------------------------
# suites
# ----------------------------------------------------------------------

def suite_algebra(n=2) -> list:
    checks = []
    for nn in range(1, n + 1):
        rep, rep_sp = _structure_reports(nn)
        _rec(
            checks,
            f"jacobi-algebra-closure-n{nn}",
            "generator-bracket-table",
            len(rep["failures"]),
            0,
            n=nn,
            samples=rep["checked"],
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


def suite_symplectic(n=2, k=4.0, seed=1234, samples=50) -> list:
    rng = np.random.default_rng(seed)
    checks = []
    # each loop's draws are normals only: one draw holds all its samples in
    # the order of one draw after another, and the stacked helpers build
    # them; the identities are evaluated per sample
    sp_blocks, sym_blocks = symplectic.SP_BLOCKS, symplectic.SYM_BLOCKS
    g_draws, z_draws = _normal_blocks(rng, samples, n, sp_blocks, sym_blocks)
    gs = symplectic._sp_of_normals(g_draws, 0.5)
    zss = symplectic._symmetric_of(z_draws, 0.5)
    worst_gauss = worst_cartan = worst_zw = 0.0
    for i in range(samples):
        gauss, cartan, zw = _roundtrip_residuals(gs[i], zss[i])
        worst_gauss = _worst(worst_gauss, gauss)
        worst_cartan = _worst(worst_cartan, cartan)
        worst_zw = _worst(worst_zw, zw)
    _rec(checks, "gauss-roundtrip", "triangular-factorization", worst_gauss, 1e-9,
         n=n, samples=samples)
    _rec(checks, "cartan-roundtrip", "polar-factorization", worst_cartan, 1e-9,
         n=n, samples=samples)
    _rec(checks, "generator-domain-roundtrip", "tanh-coordinate-map", worst_zw, 1e-11,
         n=n, samples=samples)

    g1_draws, g2_draws, w_draws, w1_draws, w2_draws = _normal_blocks(
        rng, samples, n, sp_blocks, sp_blocks, sym_blocks, sym_blocks, sym_blocks)
    g1s, g2s = (symplectic._sp_of_normals(d, 0.4) for d in (g1_draws, g2_draws))
    ws = _siegel_points(w_draws, 0.4)
    w1s, w2s = (_siegel_points(d, 0.35) for d in (w1_draws, w2_draws))
    worst_act = worst_ball = worst_detv = worst_forms = worst_closure = 0.0
    for i in range(samples):
        g1, g2, w = g1s[i], g2s[i], ws[i]
        g2w = symplectic.moebius(g2, w)
        g12 = symplectic.sp_compose(g1, g2)
        lhs = symplectic.moebius(g1, g2w)
        rhs = symplectic.moebius(g12, w)
        worst_act = _worst(worst_act, np.linalg.norm(lhs - rhs))
        worst_forms = _worst(
            worst_forms,
            _moebius_residual(g2, w, g2w),
            _moebius_residual(g1, g2w, lhs),
            _moebius_residual(g12, w, rhs),
        )
        ball, unimodular, det_forms, prod = _ball_composition_residuals(w1s[i], w2s[i])
        worst_ball = _worst(worst_ball, ball)
        worst_detv = _worst(worst_detv, unimodular, det_forms)
        worst_closure = _worst(
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

    g_draws, x_draws, y_draws = _normal_blocks(rng, samples, n, sp_blocks, sym_blocks,
                                               sym_blocks)
    gs = symplectic._sp_of_normals(g_draws, 0.4)
    xs, ys = (_siegel_points(d, 0.4) for d in (x_draws, y_draws))
    worst_tr = 0.0
    for i in range(samples):
        worst_tr = _worst(worst_tr, _kernel_transform_residual(gs[i], xs[i], ys[i], k))
    _rec(checks, "kernel-transformation", "multiplier-placement", worst_tr, 1e-9,
         n=n, k=k, samples=samples)

    jn_failures = 0
    for nn in (1, 2, 3, 4):
        for _ in range(50):
            jn_failures += _jn_forms_residual(rng.uniform(-0.9, 6.0), nn) > 1e-12
    _rec(checks, "jn-closed-forms", "weighted-volume-constant", jn_failures, 0,
         samples=200)
    _rec(checks, "lambda1-routes", "group-normalization-constant",
         _lambda1_residual(8.0, 2), 1e-12, n=2, k=8.0)

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


def suite_jacobi(n=2, k=4.0, seed=1234, samples=100) -> list:
    # the cocycles take an even integer k: reject any other before drawing,
    # so that every record is computed at the k it is labelled with
    k = symplectic._require_even_int(k, unchecked_branch=False)
    rng = np.random.default_rng(seed)
    checks = []

    # every sample is drawn first, in the order of one draw after another;
    # then each identity is one stacked call on all of them
    pts = _points([_point_draws(n, rng) for _ in range(20)])
    draws = [(_element_draws(n, rng), _element_draws(n, rng), _point_draws(n, rng))
             for _ in range(samples)]
    hs, h2s = (_bounded_elements(d, 0.35) for d in list(zip(*draws))[:2])
    xs = _points([d[2] for d in draws], 0.35, 0.35)

    # one kernel stack over all ordered pairs serves both records
    gram = jacobi.kernel(pts[:, None], pts[None, :], k)
    _rec(checks, "kernel-hermitian", "overlap-symmetry", _worst(_abs(gram - gram.T.conj())),
         1e-12, n=n, k=k, samples=gram.size)

    evmin = np.linalg.eigvalsh(0.5 * (gram + gram.conj().T)).min()
    _rec(checks, "kernel-positive", "overlap-positivity",
         _worst(0.0, -evmin / np.linalg.norm(gram)), 1e-9, n=n, k=k,
         samples=len(gram))

    uni, mult, lam = _cocycle_residuals(hs, h2s, xs, k)
    ez = jacobi.lambda_cocycle_ez(hs, xs, k)
    order = _left_action_residual(hs, h2s, xs)
    _rec(checks, "cocycle-unitarity", "multiplier-norm-consistency", _worst(uni),
         1e-9, n=n, k=k, samples=samples)
    _rec(checks, "cocycle-multiplicative", "multiplier-composition", _worst(mult),
         1e-9, n=n, k=k, samples=samples)
    _rec(checks, "cocycle-route-agreement", "multiplier-closed-forms",
         _worst(_abs(ez - lam) / _abs(lam)), 1e-9, n=n, k=k, samples=samples)
    _rec(checks, "cocycle-literal-route", "multiplier-literal-route",
         _worst(_cocycle_literal_residual(hs, xs, k, ez)), 1e-9, n=n, k=k, samples=samples)

    x = _random_point(n, rng)
    pot = jacobi.kahler_potential(x, k)
    logk = np.log(jacobi.kernel(x, x, k))
    _rec(checks, "potential-log-kernel", "potential-diagonal-consistency",
         abs(pot - logk.real) + abs(logk.imag), 1e-11, n=n, k=k)

    fd, positive = _form_fd_residuals(x, k)
    _rec(checks, "kahler-hessian-fd", "form-vs-finite-differences", fd, 1e-5, n=n, k=k)
    _rec(checks, "kahler-positive", "form-positivity", 0.0 if positive else 1.0,
         0.5, n=n, k=k)

    form, volume = _invariance_residuals(_random_element(n, rng, 0.3), x, k)
    _rec(checks, "form-invariance", "group-invariant-form", form, 1e-5, n=n, k=k)
    _rec(checks, "density-invariance", "group-invariant-volume", volume, 1e-5, n=n)

    # the bound of moebius-left-action; with the composition reversed the
    # record reads 1.2-1.7 at n = 1-3, seed 1234
    _rec(checks, "action-order", "left-action-convention",
         _worst(order), 1e-10, n=n, samples=samples)
    return checks


def suite_oracle(seed=1234, samples=20, cutoff=60) -> list:
    rng = np.random.default_rng(seed)
    checks = []

    a2 = 0.3 + 0.2j
    a1 = -0.1 + 0.25j
    half = cutoff // 2
    cols = np.eye(cutoff + 1, half, dtype=complex)  # the columns each record reads
    d2 = fockoracle.displacement(a2, cols)
    d1 = fockoracle.displacement(a1, cols)
    d12 = fockoracle.displacement(a2 + a1, cols)
    phase = np.exp(1j * np.imag(a2 * np.conj(a1)))
    _rec(checks, "displacement-composition", "translation-phase-law",
         np.abs((fockoracle.displacement(a2, d1) - phase * d12)[:half]).max(), 1e-9,
         samples=1)
    worst_order = _worst(*(_normal_order_residual(al, cutoff, d)
                           for al, d in ((a2, d2), (a1, d1), (a2 + a1, d12))))
    _rec(checks, "displacement-normal-order", "normal-ordered-displacement",
         worst_order, 1e-8, samples=3)

    w = 0.3
    sq = fockoracle.squeeze(w, cols)
    zeta = float(np.arctanh(w))
    sg = fockoracle.squeeze_from_generator(zeta, cols)
    _rec(checks, "squeeze-disentangling", "ordered-exponential-forms",
         np.abs((sq - sg)[:half]).max(), 1e-8, samples=1)
    _rec(checks, "squeeze-reverse-order", "reverse-ordered-squeeze",
         _reverse_order_residual(w, cutoff, sq), 1e-8, samples=1)

    _rec(checks, "squeezed-vector-relation", "displaced-squeezed-vacuum",
         fockoracle.check_lemma6(0.4, 0.3, max(cutoff, 80)), 1e-7, samples=1)
    _rec(checks, "conjugation-equations", "ladder-conjugation",
         fockoracle.check_hpb(0.3, 0.2, max(cutoff, 80)), 1e-7, samples=1)

    probe = fockoracle.squeezed_vacuum_convention(0.3, cutoff)
    _rec(checks, "vacuum-orbit-convention", "orbit-argument-convention",
         probe["plain"], 1e-8, samples=1)

    # each record draws all its samples first, then makes one stacked
    # oracle call and one stacked closed-form call for them
    pairs = [(_point_draws(1, rng), _point_draws(1, rng)) for _ in range(samples)]
    xs, ys = (_points(d, 0.4, 0.4) for d in zip(*pairs))
    _rec(checks, "kernel-oracle", "overlap-vs-closed-form",
         _worst(_abs(fockoracle.oracle_kernel(xs, ys, cutoff) - jacobi.kernel(xs, ys, 1.0))),
         1e-7, n=1, k=1.0, samples=samples)

    # weight one: keep the rotation angle off the half-turn branch cut
    draws = [(_element_draws(1, rng, math.pi / 2), _point_draws(1, rng)) for _ in range(samples)]
    hs = _bounded_elements([d[0] for d in draws], 0.35, phase_cap=math.pi / 2)
    xs = _points([d[1] for d in draws], 0.35, 0.35)
    res, _ = fockoracle.mm1_residual([hs.g[i] for i in range(samples)], hs.alpha[:, 0],
                                     xs.z[:, 0], xs.W[:, 0, 0], max(cutoff, 100))
    _rec(checks, "orbit-map-end-to-end", "operator-orbit-vs-closed-form",
         _worst(*res), 1e-6, n=1, k=1.0, samples=samples)

    w1, w2 = 0.25 + 0.1j, -0.15 + 0.3j
    big = max(cutoff, 120)
    w3, v, detv = symplectic.ball_compose(
        np.array([[w2]]), np.array([[w1]])
    )
    lhs = fockoracle.squeeze(w2, fockoracle.squeezed_vacuum(w1, big).amps)
    rhs = detv**0.5 * fockoracle.squeezed_vacuum(complex(w3[0, 0]), big).amps
    _rec(checks, "composition-operator-order", "two-point-law-operator-check",
         float(np.linalg.norm(lhs - rhs)), 1e-8, n=1, k=1.0, samples=1)
    return checks


def suite_gj1(k=16.0, seed=1234, samples=100) -> list:
    """The n = 1 picture, at the representation index ``k`` of the other
    suites."""
    rng = np.random.default_rng(seed)
    checks = []

    bad_pn, bad_h, series = _one_variable_residuals()
    _rec(checks, "pn-golden-table", "heat-polynomial-table", bad_pn, 0,
         samples=len(_PN_TABLE))
    _rec(checks, "hermite-closed-form", "hermite-identity-exact", bad_h, 0,
         samples=9)
    _rec(checks, "kernel-series", "basis-resummation", series, 1e-6, n=1,
         k=4.0, samples=41)

    worst_rt = worst_kb = worst_ez = 0.0
    for _ in range(samples):
        v = complex(rng.normal(), abs(rng.normal()) + 0.2)
        u = complex(rng.normal(), rng.normal())
        w, z = gj1.cayley(v, u)
        v2, u2 = gj1.cayley_inverse(w, z)
        worst_rt = _worst(worst_rt, abs(v - v2) + abs(u - u2))
        worst_kb = _worst(worst_kb, gj1.kb_form_check(v, u, k))
        x, y = v.real, v.imag
        p, q = rng.normal(), rng.normal()
        worst_ez = _worst(worst_ez, _real_metric_residual(x, y, p, q, k))
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
        worst_act = _worst(
            worst_act,
            abs(complex(image.W[0, 0]) - w) + abs(complex(image.z[0]) - z),
        )
        # single-element intertwining
        w1, z1 = gj1.cayley(*gj1.gj0_act(m1, l1, v, u))
        image1 = jacobi.act(h1, _cs_from_halfplane(v, u))
        worst_int = _worst(
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


def suite_measure(n=1, k=6.0, seed=7, samples=2_500_000) -> list:
    """Normalization, reproducing and volume checks by Monte Carlo.

    The reproducing-property estimator has ~1.1% relative sigma at 1e6
    samples; the default ``samples`` puts the 3% tolerance beyond four sigma.

    At n = 1 each chunk of the sampler is drawn once and feeds the total
    mass and all three reproducing estimates; the ``jn-mc`` volume estimate
    streams its own box draws.  Both sets of chunks run on one pool of
    worker threads (:func:`jacobi._ordered_map`), each task returning only
    its partial sums, which are added here in chunk order as a serial loop
    would: the records do not depend on the number of workers, and memory
    stays at one chunk per worker however large ``samples`` is.  Each chunk
    evaluates its weights, kernels and determinants only on the samples
    that can lie inside the domain (about 78 % of an n = 1 chunk, 31 % of a
    ``jn-mc`` chunk), and sums over the chunk's full length, zeros padded,
    so every record keeps the bytes of the full-chunk arithmetic.
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
        targets = [(f, z0, w0) for _, f, z0, w0 in _REPRODUCING_TARGETS]
        n1_tasks = [functools.partial(jacobi._reproduce_chunk, consts, samples, seed, ci, targets)
                    for ci in range(jacobi._chunk_count(samples))]
    results = jacobi._ordered_map(n1_tasks + _jn_mc_tasks(p, count, seed))

    if n == 1:
        mass, inside, *sums = jacobi._fold(itertools.islice(results, len(n1_tasks)))
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


def _jn_mc_tasks(p: float, count: int, seed: int) -> list:
    """One task per chunk of :func:`_jn_mc_n2`, each returning the chunk's
    sum of ``det(1 - W Wbar)^p`` over the domain and its inside count."""
    return [functools.partial(_jn_mc_chunk, p, count, seed, start)
            for start in range(0, count, jacobi._CHUNK)]


def _jn_mc_chunk(p: float, count: int, seed: int, start: int):
    # w11 = a + ib, w12 = c + id, w22 = e + if; 1 - W W* for symmetric
    # 2x2 W is positive definite iff its trace and determinant are > 0.
    # The arithmetic runs in place, each sum in the order of its formula.
    chunk = jacobi._uniform_chunk(seed, count, 6, start)
    a, b, c, d = chunk[:4]
    t = np.empty_like(a)
    m12 = c * c
    m12 += np.multiply(d, d, out=t)
    s11 = a * a
    s11 += np.multiply(b, b, out=t)
    s11 += m12
    np.subtract(1.0, s11, out=s11)
    # s11 <= 0 gives det = s11 s22 - |s12|^2 <= 0 (s22 > 0) or a trace
    # <= 0 (s22 <= 0), also in floating point: the rest runs on s11 > 0
    keep = np.flatnonzero(s11 > 0)
    a, b, c, d, e, f = chunk.take(keep, axis=1)
    del chunk
    m12, s11, t = m12.take(keep), s11.take(keep), t[: len(keep)]
    s22 = e * e
    s22 += np.multiply(f, f, out=t)
    s22 += m12
    np.subtract(1.0, s22, out=s22)
    # s12 = -(w11 conj(w12) + w12 conj(w22))
    s12_re = a * c
    s12_re += np.multiply(b, d, out=t)
    s12_re += np.multiply(c, e, out=t)
    s12_re += np.multiply(d, f, out=t)
    s12_im = b * c
    s12_im -= np.multiply(a, d, out=t)
    s12_im += np.multiply(d, e, out=t)
    s12_im -= np.multiply(c, f, out=t)
    det = np.multiply(s11, s22, out=m12)
    s12_re *= s12_re
    s12_im *= s12_im
    s12_re += s12_im
    det -= s12_re
    s11 += s22
    inside = det > 0
    inside &= s11 > 0
    det **= p
    total = jacobi._padded_sum(np.where(inside, det, 0.0), keep, jacobi._chunk_size(count, start))
    return total, np.count_nonzero(inside)


def _jn_mc_fold(results, count: int) -> float:
    """The ``J_2`` estimate from the chunk results of :func:`_jn_mc_tasks`,
    added in chunk order."""
    total, inside_count = jacobi._fold(results)
    log.debug("measure sampler jn-mc n=2: %d samples in %d chunks, inside-domain "
              "fraction %.6f", count, jacobi._chunk_count(count), inside_count / count)
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


def run_suite(suite: str, seed=None, **flags) -> dict:
    """Run one suite (or ``all``) and assemble the report.

    ``seed`` (``DEFAULT_SEED`` when ``None``) goes to every suite that draws;
    a seed given to suites that draw nothing is logged as unread.  Each other
    flag that is not ``None`` goes to the suites whose signature has it, and
    is an error (``ValueError``) when none of the suites run reads it.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    names = [s for s in SUITES if s != "all"] if suite == "all" else [suite]
    params = {name: inspect.signature(_SUITE_FNS[name]).parameters for name in names}
    given = {key: val for key, val in flags.items() if val is not None}
    for key in given:
        if not any(key in p for p in params.values()):
            raise ValueError(f"suite {suite!r} does not read {key!r}")
    if seed is None:
        seed = DEFAULT_SEED
    elif not any("seed" in p for p in params.values()):
        # a warning, not the unread-flag error: perfbench's verify warm-up
        # runs "verify algebra --seed S"
        log.warning("suite %r draws nothing; seed %d is not read", suite, seed)
    given["seed"] = seed
    checks = []
    for name in names:
        checks.extend(_SUITE_FNS[name](
            **{key: val for key, val in given.items() if key in params[name]}
        ))
    ids = [c["check"] for c in checks]
    if len(set(ids)) != len(ids):
        raise AssertionError("duplicate check ids in report")
    return {
        "suite": suite,
        "seed": seed,
        "checks": checks,
        "conventions": dict(CONVENTIONS),
        "pass": all(c["pass"] for c in checks),
    }
