"""The n = 1 picture: disk polynomials, half-plane coordinates, real metric.

This module collects everything special to one degree of freedom: the
Hermite-type polynomial basis P_n(z, w) with its closed Hermite form, the
orthonormal basis functions and the kernel series they resum, the Cayley map
between the unit-disk picture (z, w) and the upper-half-plane picture (u, v),
the half-plane presentation of the invariant two-form, the real
four-coordinate metric, and the classical affine action on the half-plane.
The closed kernel and the disk-picture two-form are the n = 1 cases of
:func:`siegeljacobi.jacobi.kernel` and :func:`siegeljacobi.jacobi.kahler_form`.

Every function takes the library's representation index ``k``: the n = 1
kernel is ``(1 - w conj(w'))^{-k/2} exp(...)``, and the half-plane
literature's ``kappa`` is ``k/4``.  The functions of half-plane points and
affine elements take one point or element, or stacks along leading axes:
each entry of a stacked result has the bits of its own single call, which
runs numpy's arithmetic on a batch of one and returns matrices and numpy
scalars.  :func:`kb_form_check` takes one point, as the disk form does.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import jacobi, symplectic
from .diffops import MPoly
from .errors import DomainViolation

__all__ = [
    "pn_poly",
    "pn_value",
    "hermite_exact_equal",
    "basis_fn",
    "kernel_series",
    "cayley",
    "cayley_inverse",
    "halfplane_form",
    "kb_form_check",
    "ez_metric",
    "halfplane_metric_real",
    "gj0_compose",
    "gj0_act",
    "match_jacobi_parameters",
]

PN_VARS = ("z", "w")


def pn_poly(n: int) -> MPoly:
    """Heat-kernel polynomial ``P_n = n! sum_k (w/2)^k z^(n-2k) / (k!(n-2k)!)``.

    Integer coefficients, exact; generating function ``exp(zt + w t^2/2)``.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    terms = {}
    for k in range(n // 2 + 1):
        coeff = Fraction(math.factorial(n), 2**k * math.factorial(k) * math.factorial(n - 2 * k))
        assert coeff.denominator == 1
        terms[(n - 2 * k, k)] = (coeff, Fraction(0))
    return MPoly(PN_VARS, terms)


def pn_value(n: int, z: complex, w: complex) -> complex:
    """Numeric evaluation of ``P_n`` without building the exact polynomial."""
    total = 0j
    term_fact = float(math.factorial(n))
    for k in range(n // 2 + 1):
        total += (
            (w / 2) ** k
            * z ** (n - 2 * k)
            * (term_fact / (math.factorial(k) * math.factorial(n - 2 * k)))
        )
    return total


def _hermite_coeffs(n: int):
    """Integer coefficient list of the (physicists') Hermite polynomial."""
    coeffs = [[1], [0, 2]]  # H_0, H_1 by ascending power
    while len(coeffs) <= n:
        m = len(coeffs) - 1
        prev, cur = coeffs[-2], coeffs[-1]
        nxt = [0] + [2 * c for c in cur]
        for i, c in enumerate(prev):
            nxt[i] -= 2 * m * c
        coeffs.append(nxt)
    return coeffs[n]


def hermite_exact_equal(n: int) -> bool:
    """``P_n(z, w) = (i/sqrt2)^n w^{n/2} H_n(-i z / sqrt(2w))``, checked in
    exact arithmetic.

    Clearing the half-integer powers (Hermite parity makes every exponent an
    integer) turns the identity into a polynomial one over the Gaussian
    rationals, checked term by term.
    """
    coeffs = _hermite_coeffs(n)
    terms = {}
    for m, c in enumerate(coeffs):
        if c == 0:
            continue
        # (i/sqrt2)^n w^{n/2} * c * (-i z)^m (2w)^{-m/2}
        #   = c * (-1)^((n-m)/2) 2^(-(n+m)/2) z^m w^((n-m)/2)
        if (n - m) % 2:
            raise AssertionError("parity violation in Hermite coefficients")
        sign = -1 if ((n - m) // 2) % 2 else 1
        coeff = Fraction(c) * sign * Fraction(1, 2 ** ((n + m) // 2))
        key = (m, (n - m) // 2)
        old = terms.get(key, (Fraction(0), Fraction(0)))
        terms[key] = (old[0] + coeff, Fraction(0))
    return MPoly(PN_VARS, terms) == pn_poly(n)


def _disk_weight(m: int, k: float) -> float:
    """Orthonormal disk-basis weight ``sqrt(Gamma(m+k/2)/(m! Gamma(k/2)))``."""
    return math.exp(
        0.5 * (math.lgamma(m + k / 2) - math.lgamma(m + 1) - math.lgamma(k / 2))
    )


def basis_fn(nidx: int, midx: int, k: float, z: complex, w: complex) -> complex:
    """Basis function ``f_(n,m) = weight_m(k) w^m P_n(z, w) / sqrt(n!)``."""
    if k <= 0:
        raise ValueError("need k > 0")
    return (
        _disk_weight(midx, k)
        * w**midx
        * pn_value(nidx, z, w)
        / math.sqrt(float(math.factorial(nidx)))
    )


def kernel_series(z, w, zp, wp, k: float, order: int) -> complex:
    """Partial sum of the basis expansion of the closed n = 1 kernel
    ``jacobi.kernel(y, x, k)`` with ``x = (z, w)`` and ``y = (zp, wp)``
    (second point conjugated).

    The polynomial factor resums (via the Hermite bilinear identity) to a
    ``(1 - w conj(wp))^{-1/2}`` times the exponential, so the disk weight in
    the sum carries the shifted index ``k - 1``; with that shift the series
    converges to the closed kernel at exponent ``-k/2``.
    """
    if k <= 1:
        raise ValueError("need k > 1 for the shifted disk weight")
    total = 0j
    pz = [pn_value(n, z, w) for n in range(order + 1)]
    pzp = [pn_value(n, zp, wp) for n in range(order + 1)]
    inner = 0j
    for n in range(order + 1):
        inner += pz[n] * np.conj(pzp[n]) / float(math.factorial(n))
    for m in range(order + 1):
        wt = _disk_weight(m, k - 1)
        fm = wt * w**m
        fmp = wt * wp**m
        total += fm * np.conj(fmp) * inner
    return total


def cayley(v, u):
    """Half-plane to disk: ``w = (v - i)/(v + i)``, ``z = 2 i u/(v + i)``.

    Raises
    ------
    DomainViolation
        If a ``v`` is not in the open upper half plane.
    """
    v, u = np.asarray(v, dtype=complex), np.asarray(u, dtype=complex)
    if not np.all(v.imag > 0):
        raise DomainViolation("need Im v > 0")
    return (v - 1j) / (v + 1j), 2j * u / (v + 1j)


def cayley_inverse(w, z):
    """Disk to half-plane: ``v = i (1 + w)/(1 - w)``, ``u = z/(1 - w)``."""
    w, z = np.asarray(w, dtype=complex), np.asarray(z, dtype=complex)
    if not np.all(np.abs(w) < 1):
        raise DomainViolation("need |w| < 1")
    return 1j * (1 + w) / (1 - w), z / (1 - w)


def halfplane_form(v, u, k: float) -> np.ndarray:
    """Hermitian coefficient matrix in coordinates (v, u), shape ``(..., 2, 2)``.

    ``-(k/2)/(vbar - v)^2 dv ^ dvbar + (2/(i(vbar - v))) B ^ Bbar`` with
    ``B = du - ((u - ubar)/(v - vbar)) dv``.
    """
    v, u = np.broadcast_arrays(np.asarray(v, dtype=complex), np.asarray(u, dtype=complex))
    # products, not powers: ``**`` on a numpy scalar is libm's ``pow``, which
    # rounds some squares differently from a stack's entries
    dv = np.conj(v) - v
    hv = -(k / 2) / (dv * dv)
    hb = 2.0 / (1j * dv)
    c = (u - np.conj(u)) / (v - np.conj(v))
    size = np.hypot(c.real, c.imag)
    out = np.stack([hv + hb * (size * size), -hb * np.conj(c), -hb * c, hb], axis=-1)
    return out.reshape(np.shape(c) + (2, 2))


def kb_form_check(v: complex, u: complex, k: float) -> float:
    """Pull the disk form back through the Cayley map and compare.

    The disk form is :func:`siegeljacobi.jacobi.kahler_form` at ``k``, in
    coordinates ``(z, w)``.  Returns the max entrywise difference between the
    pullback and the half-plane form at the point.
    """
    w, z = cayley(v, u)
    x = jacobi.CSPoint(z=np.array([z]), W=np.array([[w]]))
    hd = jacobi.kahler_form(x, k)
    # holomorphic Jacobian of (v, u) -> (z, w), rows ordered like the form
    dz_dv = -2j * u / (v + 1j) ** 2
    dz_du = 2j / (v + 1j)
    dw_dv = 2j / (v + 1j) ** 2
    jac = np.array([[dz_dv, dz_du], [dw_dv, 0.0]], dtype=complex)
    pulled = jac.T @ hd @ jac.conj()
    return float(np.abs(pulled - halfplane_form(v, u, k)).max())


def ez_metric(x, y, p, q, k: float) -> np.ndarray:
    """Real metric in the coordinates (x, y, p, q) with ``v = x + iy``,
    ``u = p v + q``, shape ``(..., 4, 4)``.

    ``ds^2 = k/(8 y^2) (dx^2 + dy^2)
             + (1/y)[(x^2 + y^2) dp^2 + dq^2 + 2 x dp dq]``;
    positive definite for ``y > 0``.

    Raises
    ------
    DomainViolation
        For a ``y <= 0``.
    """
    x, y, p, q = np.broadcast_arrays(*(np.asarray(t, dtype=float) for t in (x, y, p, q)))
    if not np.all(y > 0):
        raise DomainViolation("need y > 0")
    g = np.zeros(y.shape + (4, 4))
    g[..., 0, 0] = g[..., 1, 1] = k / (8 * y**2)
    g[..., 2, 2] = (x**2 + y**2) / y
    g[..., 3, 3] = 1.0 / y
    g[..., 2, 3] = g[..., 3, 2] = x / y
    return g


def halfplane_metric_real(x, y, p, q, k: float) -> np.ndarray:
    """Real form of :func:`halfplane_form` under the embedding ``u = p v + q``.

    ``G_ab = Re sum_ij H_ij J_ia conj(J_jb)`` for the complex Jacobian ``J``
    of ``(v, u)`` with respect to ``(x, y, p, q)``.
    """
    x, y, p, q = np.broadcast_arrays(*(np.asarray(t, dtype=float) for t in (x, y, p, q)))
    v = x + 1j * y
    u = p * v + q
    h = halfplane_form(v, u, k)
    du = np.stack(np.broadcast_arrays(p, 1j * p, v, 1.0), axis=-1)
    jac = np.stack(np.broadcast_arrays([1.0, 1j, 0.0, 0.0], du), axis=-2)
    return np.real(np.einsum("...ij,...ia,...jb->...ab", h, jac, jac.conj()))


def gj0_compose(m1, l1, m2, l2):
    """Composition law of the affine half-plane group.

    ``(m1, l1) o (m2, l2) = (m1 m2, l1 m2 + l2)`` with ``l`` acting as a row
    vector; :func:`gj0_act` is a left action for this law.
    """
    m1, l1, m2, l2 = (np.asarray(t, dtype=float) for t in (m1, l1, m2, l2))
    return m1 @ m2, (l1[..., None, :] @ m2)[..., 0, :] + l2


def gj0_act(m, l, v, u):
    """Affine action on the half-plane picture.

    ``v1 = (a v + b)/(c v + d)`` and ``u1 = (u + l1 v + l2)/(c v + d)`` for a
    real unimodular ``m = [[a, b], [c, d]]`` and ``l = (l1, l2)``.

    Raises
    ------
    ValueError
        If a ``det m != 1`` or the inputs leave the domain.
    """
    m, l = (np.asarray(t, dtype=float) for t in (m, l))
    v, u = np.asarray(v, dtype=complex), np.asarray(u, dtype=complex)
    if not np.all(np.abs(np.linalg.det(m) - 1.0) <= 1e-10):
        raise ValueError("need det m = 1")
    if not np.all(v.imag > 0):
        raise DomainViolation("need Im v > 0")
    # c v + d is not 0: Im(c v) = 0 only for c = 0, and then d = 1/a
    den = m[..., 1, 0] * v + m[..., 1, 1]
    return (m[..., 0, 0] * v + m[..., 0, 1]) / den, (u + l[..., 0] * v + l[..., 1]) / den


def match_jacobi_parameters(m, l):
    """Transport an affine half-plane element to the disk picture.

    Returns ``(g, alpha)`` where ``g`` is the disk-automorphism block pair
    conjugate to ``m`` under the Cayley map and ``alpha = l2 + i l1``; the
    matched group element acts on the disk picture through the translation
    first, i.e. it corresponds to composing the pure rotation-boost after the
    pure translation.
    """
    m, l = (np.asarray(t, dtype=float) for t in (m, l))
    a, b = m[..., 0, 0], m[..., 0, 1]
    c, d = m[..., 1, 0], m[..., 1, 1]
    ga = (a + d) / 2 + 1j * (b - c) / 2
    gb = (a - d) / 2 - 1j * (b + c) / 2
    g = symplectic.sp_new(ga[..., None, None], gb[..., None, None])
    return g, (l[..., 1] + 1j * l[..., 0])[..., None]
