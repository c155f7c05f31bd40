"""The Jacobi group: phase-space translations semidirect the symplectic group.

Elements are triples ``(g, alpha, t)`` with ``g`` a symplectic block pair,
``alpha`` a complex translation vector and ``t`` a central parameter.  The
group acts holomorphically on points ``(z, W)`` of C^n x D_n; the action,
its multiplier cocycle (in two closed forms), the reproducing kernel, the
Kahler potential and two-form, the invariant volume density, the
normalization constant of the resolution of unity, and Monte-Carlo
machinery for the weighted inner product (one sampler of the base measure,
:func:`sample_base_measure`, which returns its sample as one stack) all
live here.  Each is evaluated by one route; the independent routes that
cross-check them run in :mod:`siegeljacobi.verify`.

The closed forms are batch-first: a :class:`CSPoint` or a
:class:`JacobiElement` may hold a stack along leading axes, and
:func:`act`, :func:`jacobi_compose`, the cocycles, :func:`kernel`,
:func:`kahler_potential` and :func:`density` broadcast the leading shapes
of their arguments.
A single call returns what it always did (a Python scalar where the value
is a number), and each entry of a stacked result has the bits of its own
single call.

Conventions, fixed here and each checked by a ``verify`` record: the action
is a left action for the composition law as implemented (``action-order``),
and the central parameter enters the full cocycle as the phase ``exp(i t)``,
unit central charge (``cocycle-multiplicative``).
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import matfun, symplectic
from .errors import OutOfDomain, Singular
from .matfun import as_cmat, detpow
from .symplectic import SpElement, sp_compose, sp_inverse, sym_index_pairs

__all__ = [
    "CSPoint",
    "cs_point",
    "JacobiElement",
    "CocycleData",
    "MeasureConstants",
    "CENTRAL_CHARGE",
    "cs_coords",
    "cs_from_coords",
    "w_from_coords",
    "alpha_action",
    "alpha_action_inv",
    "jacobi_compose",
    "jacobi_inverse",
    "act",
    "lambda_cocycle",
    "lambda_full",
    "lambda_cocycle_ez",
    "kernel",
    "kahler_potential",
    "kahler_form",
    "density",
    "measure_constants",
    "sample_base_measure",
    "mc_inner_product_n1",
    "reproduce_check",
    "pik_apply",
]

#: Central charge fixing how the parameter t enters the cocycle phase.  +1
#: is exactly multiplicative for the composition law below; -1 and +-2 fail
#: the ``cocycle-multiplicative`` record.
CENTRAL_CHARGE = 1.0


@dataclass(frozen=True)
class CSPoint:
    """Point ``(z, W)`` of the coherent-state manifold C^n x D_n.

    ``z`` has shape ``(..., n)`` and ``W`` shape ``(..., n, n)``: the leading
    axes, if any, index a stack of points, which :func:`kahler_potential`,
    :func:`act`, the cocycles, :func:`kernel`, :func:`density`,
    :func:`cs_coords` and :func:`cs_from_coords` accept.  The leading shapes
    of ``z`` and ``W`` broadcast: a size-1 axis of one holds the same value
    for every index of the other, as in the stencil groups of
    :func:`numdiff.wirtinger_hessian` (in its group B at n = 2, a ``W`` of
    leading shape ``(3, 1, 8)`` serves the ``z`` of shape ``(3, 5, 8)``: five
    points per ``W``).  Indexing a stack whose ``z`` and ``W`` have one
    leading shape gives its points, and :func:`sample_base_measure` returns
    its sample as one stack.  :func:`kahler_form`, :func:`cs_point` and the
    JSON form take a single point.
    """

    z: np.ndarray
    W: np.ndarray

    @property
    def n(self) -> int:
        return self.z.shape[-1]

    def __getitem__(self, index) -> "CSPoint":
        return CSPoint(z=self.z[index], W=self.W[index])

    def to_json(self) -> dict:
        return {
            "z": [[c.real, c.imag] for c in self.z],
            "W": matfun.mat_to_json(self.W),
        }

    @staticmethod
    def from_json(d: dict) -> "CSPoint":
        """Inverse of :meth:`to_json`; it does not validate the point, which
        :func:`cs_point` does.

        Raises
        ------
        ValueError
            If ``z`` is not a list of ``[re, im]`` pairs.
        """
        return CSPoint(z=_vector_from_json(d["z"], "z"), W=matfun.mat_from_json(d["W"]))


def _vector_from_json(pairs, name: str) -> np.ndarray:
    """Complex vector from a JSON list of ``[re, im]`` pairs; ``name`` names
    the field in the error."""
    try:
        return np.array([complex(re, im) for re, im in pairs], dtype=complex)
    except TypeError as exc:
        raise ValueError(f"{name} must be a list of [re, im] pairs: {exc}") from exc


def cs_point(z, W) -> CSPoint:
    """Validated constructor: ``z`` must be finite and ``W`` an interior
    domain point of matching dimension."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if not np.all(np.isfinite(z)):
        raise ValueError("z has non-finite entries")
    W = as_cmat(W)
    if W.shape != (len(z), len(z)):
        raise ValueError(f"W has shape {W.shape}, expected {(len(z), len(z))}")
    if not matfun.is_siegel(W):
        raise OutOfDomain("W is not an interior point of the domain")
    return CSPoint(z=z, W=W)


@dataclass(frozen=True)
class JacobiElement:
    """Group element ``(g, alpha, t)``, or a stack of elements: ``g`` a
    stack of :class:`SpElement`, ``alpha`` of shape ``(..., n)`` and ``t`` a
    float or an array of the leading shape.  Indexing a stack gives its
    elements; the JSON form is that of a single element."""

    g: SpElement
    alpha: np.ndarray
    t: float = 0.0

    @property
    def n(self) -> int:
        return self.g.n

    def __getitem__(self, index) -> "JacobiElement":
        return JacobiElement(g=self.g[index], alpha=self.alpha[index],
                             t=self.t[index] if np.ndim(self.t) else self.t)

    def to_json(self) -> dict:
        return {
            "g": self.g.to_json(),
            "alpha": [[c.real, c.imag] for c in self.alpha],
            "t": self.t,
        }

    @staticmethod
    def from_json(d: dict) -> "JacobiElement":
        return JacobiElement(
            g=SpElement.from_json(d["g"]),
            alpha=_vector_from_json(d["alpha"], "alpha"),
            t=float(d.get("t", 0.0)),
        )


@dataclass(frozen=True)
class CocycleData:
    """Image point, auxiliary vectors and multiplier of one group action, or
    of a stack of them (``lam`` an array); indexing a stack gives its
    elements."""

    z1: np.ndarray
    W1: np.ndarray
    x: np.ndarray
    y: np.ndarray
    lam: complex

    def __getitem__(self, index) -> "CocycleData":
        lam = self.lam[index]
        return CocycleData(z1=self.z1[index], W1=self.W1[index], x=self.x[index],
                           y=self.y[index], lam=lam if np.ndim(lam) else complex(lam))


@dataclass(frozen=True)
class MeasureConstants:
    """Normalization data of the resolution of unity."""

    n: int
    k: float
    p: float
    Lambda: float


@functools.lru_cache(maxsize=8)
def _sym_index_arrays(n: int):
    """Read-only row and column index arrays of :func:`sym_index_pairs`.

    Cached because building them costs about as much as the indexing itself
    in a single-point :func:`cs_coords`, which the action-order residual of
    :mod:`siegeljacobi.verify` calls twice per sample.
    """
    ij = np.array(sym_index_pairs(n)).T
    ij.flags.writeable = False
    return ij[0], ij[1]


def cs_coords(x: CSPoint) -> np.ndarray:
    """Flatten a point, or a stack of points, to its independent holomorphic
    coordinates, of shape ``(..., n + n(n+1)/2)``.

    Ordering matches :func:`kahler_form`: ``z_1..z_n`` then ``w_ij`` (i<=j).
    """
    i, j = _sym_index_arrays(x.n)
    return np.concatenate([x.z, x.W[..., i, j]], axis=-1)


def cs_from_coords(coords: np.ndarray, n: int) -> CSPoint:
    """Inverse of :func:`cs_coords`; leading axes of ``coords`` give a stack."""
    coords = np.asarray(coords, dtype=complex)
    return CSPoint(z=coords[..., :n], W=w_from_coords(coords[..., n:], n))


def w_from_coords(coords: np.ndarray, n: int) -> np.ndarray:
    """Symmetric ``W`` of shape ``(..., n, n)`` from its coordinates ``w_ij``
    (i<=j) of shape ``(..., n(n+1)/2)``, the ``W`` part of :func:`cs_from_coords`."""
    i, j = _sym_index_arrays(n)
    w = np.zeros(coords.shape[:-1] + (n, n), dtype=complex)
    w[..., i, j] = coords
    w[..., j, i] = coords
    return w


def _matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``m v`` for matrices ``(..., n, n)`` and vectors ``(..., n)``, with
    the bits of ``m @ v`` on one of each: matmul takes one vector as it is
    and a stack of them as columns ``v[..., None]``."""
    return m @ v if v.ndim == 1 else (m @ v[..., None])[..., 0]


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``u^T v`` (no conjugation) for vectors ``(..., n)``, with the bits of
    ``u @ v`` on one of each."""
    return u @ v if u.ndim == v.ndim == 1 else (u[..., None, :] @ v[..., None])[..., 0, 0]


def _bilinear(u: np.ndarray, m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``u^T m v`` for vectors ``(..., n)`` and matrices ``(..., n, n)``,
    with the bits of ``u @ m @ v`` on one of each: one of each takes that
    product, about a microsecond cheaper than the row-and-column matmul a
    stack goes through."""
    if u.ndim == v.ndim == 1 and m.ndim == 2:
        return u @ m @ v
    return (u[..., None, :] @ m @ v[..., None])[..., 0, 0]


def alpha_action(g: SpElement, alpha: np.ndarray) -> np.ndarray:
    """Natural action on translations: ``g . alpha = a alpha + b conj(alpha)``."""
    return _matvec(g.a, alpha) + _matvec(g.b, alpha.conj())


def alpha_action_inv(g: SpElement, alpha: np.ndarray) -> np.ndarray:
    """Inverse action ``g^-1 . alpha = a* alpha - b^T conj(alpha)``."""
    return (_matvec(g.a.conj().swapaxes(-1, -2), alpha)
            - _matvec(g.b.swapaxes(-1, -2), alpha.conj()))


def theta_hw(a2: np.ndarray, a1: np.ndarray):
    """Symplectic phase ``Im(a2 . conj(a1))`` of the translation sector: a
    ``float``, or an array for stacks of vectors."""
    out = (a2 * a1.conj()).sum(axis=-1).imag
    return float(out) if out.ndim == 0 else out


def jacobi_compose(h1: JacobiElement, h2: JacobiElement) -> JacobiElement:
    """Composition law.

    ``(g1, a1, t1) o (g2, a2, t2) = (g1 g2, g2^-1.a1 + a2,
    t1 + t2 + Im(g2^-1.a1 conj(a2)))``.  The action :func:`act` is a left
    action for this law.  Stacks of elements compose elementwise.
    """
    if h1.n != h2.n:
        raise ValueError("dimension mismatch")
    moved = alpha_action_inv(h2.g, h1.alpha)
    return JacobiElement(
        g=sp_compose(h1.g, h2.g),
        alpha=moved + h2.alpha,
        t=h1.t + h2.t + theta_hw(moved, h2.alpha),
    )


def jacobi_inverse(h: JacobiElement) -> JacobiElement:
    """Inverse element ``(g^-1, -g.alpha, -t)``."""
    return JacobiElement(
        g=sp_inverse(h.g), alpha=-alpha_action(h.g, h.alpha), t=-h.t
    )


def _act_with_den(h: JacobiElement, x: CSPoint):
    """The image point of :func:`act` and its denominator ``W b* + a*``."""
    g = h.g
    den = x.W @ g.b.conj().swapaxes(-1, -2) + g.a.conj().swapaxes(-1, -2)
    rhs = x.z + h.alpha - _matvec(x.W, h.alpha.conj())
    try:
        # a column right-hand side, so a stack of points solves as one
        z1 = matfun.solve(den, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise Singular(f"{getattr(exc, 'where', '')}W b* + a* is singular") from exc
    return CSPoint(z=z1, W=symplectic.moebius(g, x.W)), den


def act(h: JacobiElement, x: CSPoint) -> CSPoint:
    """Holomorphic action on the manifold.

    ``z1 = (W b* + a*)^-1 (z + alpha - W conj(alpha))`` and ``W1 = g . W``.
    ``h`` and ``x`` are one element or point or stacks whose leading shapes
    broadcast; each point of a stack maps to the same bits as on its own.
    """
    return _act_with_den(h, x)[0]


def lambda_cocycle(
    h: JacobiElement, x: CSPoint, k, unchecked_branch: bool = False
) -> CocycleData:
    """Multiplier of the coherent-state orbit map, first closed form.

    Returns the image point ``(z1, W1)`` together with the auxiliary vectors
    ``x = (1 - W Wbar)^-1 (z + W zbar)`` and
    ``y = a(alpha + x) + b(conj(alpha) + conj(x))`` and

        lam = det(W b* + a*)^{-k/2}
              * exp(<x, z>/2 - <y, z1>/2) * exp(i Im(alpha . conj(x))),

    where ``<u, v> = conj(u)^T v``.  The central parameter of ``h`` is not
    included; see :func:`lambda_full`.  ``lam`` is a ``complex`` for one
    element and point, and an array of their broadcast leading shape for
    stacks.

    ``k`` must be an even integer unless ``unchecked_branch`` is set.
    """
    k = symplectic._require_even_int(k, unchecked_branch)
    g = h.g
    w = x.W
    m = matfun.inv(matfun.eye(x.n) - w @ w.conj().swapaxes(-1, -2))
    xv = _matvec(m, x.z + _matvec(w, x.z.conj()))
    yv = _matvec(g.a, h.alpha + xv) + _matvec(g.b, h.alpha.conj() + xv.conj())
    image, den = _act_with_den(h, x)
    lam = matfun._cmul(
        matfun._cmul(
            detpow(den, -k / 2),
            np.exp(0.5 * (xv.conj() * x.z).sum(axis=-1)
                   - 0.5 * (yv.conj() * image.z).sum(axis=-1)),
        ),
        np.exp(1j * theta_hw(h.alpha, xv)),
    )
    return CocycleData(z1=image.z, W1=image.W, x=xv, y=yv,
                       lam=lam if isinstance(lam, np.ndarray) else complex(lam))


def lambda_full(h: JacobiElement, x: CSPoint, k):
    """Cocycle including the central phase ``exp(i c t)``.

    Exactly multiplicative along :func:`jacobi_compose`:
    ``lambda_full(h1 o h2, x) = lambda_full(h1, h2.x) lambda_full(h2, x)``.
    ``k`` must be an even integer.  A ``complex`` for one element and
    point, an array for stacks.
    """
    data = lambda_cocycle(h, x, k)
    phase = np.exp(1j * CENTRAL_CHARGE * h.t)
    return matfun._cmul(data.lam, phase if isinstance(phase, np.ndarray) else complex(phase))


def lambda_cocycle_ez(
    h: JacobiElement, x: CSPoint, k, unchecked_branch: bool = False
):
    """Multiplier via the second closed form (quadratic-exponent route).

    Written with ``T = conj(b)^-1 conj(a)`` the exponent is

        2 lam1 = z^T (W + T)^-1 z + (alpha^T + conj(alpha)^T T)(W + T)^-1 (2z + z0)

    with ``z0 = alpha - W conj(alpha)``, and ``lam = det(W b* + a*)^{-k/2}
    exp(-lam1)``.  The implementation uses the algebraically simplified
    variant that stays finite as ``b -> 0``:

        2 lam1 = z^T (abar + bbar W)^-1 bbar z
               + alpha^T (abar + bbar W)^-1 bbar (2z + z0)
               + conj(alpha)^T (1 + W abar^-1 bbar)^-1 (2z + z0)

    The literal ``T``-form, defined when ``b`` is invertible, is the
    ``cocycle-literal-route`` check of :func:`siegeljacobi.verify.suite_jacobi`.
    A ``complex`` for one element and point, an array for stacks.

    ``k`` must be an even integer unless ``unchecked_branch`` is set.

    Raises
    ------
    Singular
        If the route is not computable.
    """
    k = symplectic._require_even_int(k, unchecked_branch)
    g = h.g
    w = x.W
    z = x.z
    ab = g.a.conj()
    bb = g.b.conj()
    z0 = h.alpha - _matvec(w, h.alpha.conj())
    rhs = 2 * z + z0
    try:
        # (abar + bbar W)^-1 bbar and abar^-1 bbar in one stacked solve
        core = ab + bb @ w
        if ab.shape != core.shape:  # one element, a stack of points
            ab = np.broadcast_to(ab, core.shape)
        core, t = matfun.solve(np.array((core, ab)), bb)
        tail = matfun.solve(matfun.eye(x.n) + w @ t, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise Singular("b -> 0 safe route is not computable") from exc
    two_lam1 = _bilinear(z, core, z) + _bilinear(h.alpha, core, rhs) + _dot(h.alpha.conj(), tail)
    den = w @ g.b.conj().swapaxes(-1, -2) + g.a.conj().swapaxes(-1, -2)
    lam = matfun._cmul(detpow(den, -k / 2), np.exp(-0.5 * two_lam1))
    return lam if isinstance(lam, np.ndarray) else complex(lam)


def kernel(x: CSPoint, y: CSPoint, k: float):
    """Reproducing kernel ``(e_x, e_y)``, conjugate-linear in ``x``.

    With ``U = (1 - W_y conj(W_x))^-1``,

        K = det(U)^{k/2} exp((2 <z_x, U z_y> + <W_x conj(z_y), U z_y>
                              + <z_x, U W_y conj(z_x)>) / 2).

    Positive on the diagonal; ``K(x, y) = conj(K(y, x))``.  A ``complex``
    for two points; for stacks whose leading shapes broadcast, an array of
    the broadcast shape (``x[:, None]`` and ``y[None, :]`` give a Gram
    matrix).
    """
    n = x.n
    u = matfun.inv(matfun.eye(n) - y.W @ x.W.conj())
    uz = _matvec(u, y.z)
    expo = (
        2.0 * (x.z.conj() * uz).sum(axis=-1)
        + (_matvec(x.W, y.z.conj()).conj() * uz).sum(axis=-1)
        + (x.z.conj() * _matvec(u @ y.W, x.z.conj())).sum(axis=-1)
    )
    val = matfun._cmul(detpow(u, k / 2), np.exp(0.5 * expo))
    return val if isinstance(val, np.ndarray) else complex(val)


def kahler_potential(x: CSPoint, k: float):
    """Logarithm of the diagonal kernel.

    ``f = -(k/2) log det(1 - W Wbar) + <z, M z> + Re(z^T Wbar M z)`` with
    ``M = (1 - W Wbar)^-1``; real by construction.  For symmetric ``W`` the
    two quadratic terms are ``Re <t, M z>`` with ``t = z + W zbar``, so one
    linear solve for ``M z`` gives both.  The log-determinant is
    :func:`matfun.logdet_hpd`, so a ``W`` outside the domain raises
    :class:`DomainViolation`.  A single point gives a ``float``; a stack of
    points gives a float array of its leading shape, equal to the per-point
    values bit for bit.  The leading shapes of ``z`` and ``W`` may broadcast
    (see :class:`CSPoint`): ``1 - W Wbar`` and its log-determinant are then
    computed once per ``W``, and the ``z`` that share a ``W`` are solved in
    one :func:`matfun.solve_vectors` call, one LU factorization per ``W``.
    """
    z = x.z[..., None]
    gram = matfun.eye(x.n) - x.W @ x.W.conj()
    t = z + x.W @ z.conj()
    mz = matfun.solve_vectors(gram, x.z)[..., None]
    val = -0.5 * k * matfun.logdet_hpd(gram)
    val = val + (t.conj() * mz).sum(axis=(-2, -1)).real
    return float(val) if x.z.ndim == 1 and x.W.ndim == 2 else val


def _kahler_blocks(x: CSPoint):
    """Closed-form pieces shared by the Hessian assembly."""
    wbar = x.W.conj()
    zbar = x.z.conj()
    m = matfun.inv(matfun.eye(x.n) - x.W @ wbar)
    mb = m.conj()
    xv = m @ (x.z + x.W @ zbar)
    q = m @ x.z
    s = wbar @ q
    r = mb @ zbar
    p = x.W @ r
    return m, mb, xv, q, s, r, p


def kahler_form(x: CSPoint, k: float) -> np.ndarray:
    """Hermitian coefficient matrix of the invariant two-form.

    Coordinates are ``(z_1..z_n, w_ij i<=j)``; entry ``(a, b)`` is the mixed
    Wirtinger Hessian of :func:`kahler_potential`.  The closed form used here
    was derived from the potential directly and is validated against finite
    differences; positive definite for ``k > 0``.
    """
    n = x.n
    blocks = _kahler_blocks(x)
    pairs = sym_index_pairs(n)
    dim = n + len(pairs)
    h = np.zeros((dim, dim), dtype=complex)

    # the entries are assembled in Python complex arithmetic, which performs
    # the same IEEE operations as numpy complex128 scalars at a fraction of
    # the per-operation cost; vectorizing them would change the rounding.
    # Only the upper triangle is computed: the lower one is its conjugate and
    # the diagonal is real, so the form is Hermitian bit for bit
    m, mb, xv, q, s, r, p = (b.tolist() for b in blocks)
    for i in range(n):
        h[i, i] = m[i][i].real
        for j in range(i + 1, n):
            h[i, j] = m[j][i]
            h[j, i] = m[j][i].conjugate()
    xbar = [c.conjugate() for c in xv]
    for c, (kk, ll) in enumerate(pairs):
        for i in range(n):
            fzw = m[i][kk] * xbar[ll]
            if kk != ll:
                fzw += m[i][ll] * xbar[kk]
            h[i, n + c] = fzw.conjugate()
            h[n + c, i] = fzw

    # the factors of the three terms that depend on two indices only
    half_k = 0.5 * float(k)
    kmb = [[half_k * v for v in row] for row in mb]
    idx = range(n)
    tb = [[p[d] * (s[b] + 0.5 * r[b]) + 0.5 * q[d] * s[b] for b in idx] for d in idx]
    ta = [[q[d] * (r[a] + 0.5 * s[a]) + 0.5 * p[d] * r[a] for a in idx] for d in idx]

    def full(a, b, c, d):
        return kmb[b][c] * m[d][a] + mb[a][c] * tb[d][b] + mb[b][c] * ta[d][a]

    for c1, (a, b) in enumerate(pairs):
        for c2, (cc, d) in enumerate(pairs[c1:], c1):
            tot = full(a, b, cc, d)
            if a != b:
                tot += full(b, a, cc, d)
            if cc != d:
                tot += full(a, b, d, cc)
                if a != b:
                    tot += full(b, a, d, cc)
            if c1 == c2:
                h[n + c1, n + c1] = tot.real
            else:
                h[n + c1, n + c2] = tot
                h[n + c2, n + c1] = tot.conjugate()
    return h


def density(x: CSPoint):
    """Volume density ``det(1 - W Wbar)^{-(n+2)}``; depends on ``W`` only.

    A ``float`` for one point and a float array of the leading shape of ``W``
    for a stack.  The determinant is :func:`matfun.logdet_hpd`'s, so a ``W``
    outside the domain raises :class:`DomainViolation` rather than giving a
    value.
    """
    out = np.exp(-(x.n + 2) * matfun.logdet_hpd(matfun.eye(x.n) - x.W @ x.W.conj()))
    return float(out) if x.W.ndim == 2 else out


def measure_constants(n: int, k: float) -> MeasureConstants:
    """Normalization data for the resolution of unity.

    ``p = (k-3)/2 - n`` (which sits half a step below the group-only exponent
    ``k/2 - n - 1``) and ``Lambda = pi^-n / J_n(p)``.  The independent
    product form is the ``normalization-routes`` check of
    :func:`siegeljacobi.verify.suite_measure`.

    Raises
    ------
    OutOfDomain
        For ``k <= 2n + 1`` (p <= -1).
    """
    p = (k - 3) / 2 - n
    if p <= -1:
        raise OutOfDomain(f"need k > 2n + 1 = {2 * n + 1}, got {k}")
    lam = math.pi ** (-n) / symplectic.jn(p, n)
    return MeasureConstants(n=n, k=float(k), p=p, Lambda=lam)


#: Fixed substream size of the Monte-Carlo samplers.  Each chunk draws from
#: its own counter-based stream, so the chunks run on a pool of worker
#: threads and their results are folded in chunk order: every estimate is
#: bit-identical whatever the number of workers.
_CHUNK = 1 << 15

#: A freed block of this size lets each sampler worker keep its heap; see
#: :func:`_ordered_map`.
_RETAINED_HEAP_BYTES = 8 << 20


def _worker_count() -> int:
    """Number of CPUs this process may run on: one sampler worker each."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _ordered_map(tasks):
    """Run the zero-argument callables ``tasks`` on a pool of one worker
    thread per CPU and yield their results in task order.

    The tasks are numpy chunk work, which releases the GIL.  They must call
    only private helpers: the traced benchmark wraps the public functions in
    a span recorder that is not thread-safe.
    """
    # Each worker thread allocates from a malloc arena of its own, which
    # holds one chunk's arrays (a few MB) and nothing else.  glibc returns
    # the free top of an arena to the OS once it exceeds twice the mmap
    # threshold, so such an arena is trimmed after almost every chunk and
    # faults its pages back in: about 4e5 minor faults and 0.9 s of system
    # time per default measure suite, two workers on a 2-CPU Linux VM.
    # Freeing one mapped block larger than a chunk's arrays raises both
    # thresholds above them (glibc's dynamic threshold); with another
    # allocator this is one idle allocation.
    np.empty(_RETAINED_HEAP_BYTES, dtype=np.uint8)
    with ThreadPoolExecutor(max_workers=_worker_count()) as pool:
        yield from pool.map(lambda task: task(), tasks)


def _fold(parts):
    """Add the result tuples ``parts`` of chunk tasks elementwise in chunk
    order, the sums a serial loop over all samples would form."""
    return functools.reduce(lambda acc, part: tuple(a + b for a, b in zip(acc, part)), parts)


def _chunk_count(count: int) -> int:
    """Number of ``_CHUNK``-sized substreams holding ``count`` samples."""
    if count < 1:
        raise ValueError(f"need a positive sample count, got {count}")
    return (count + _CHUNK - 1) // _CHUNK


def _chunk_size(count: int, start: int) -> int:
    """Number of samples in the chunk of ``count`` that begins at ``start``."""
    return min(_CHUNK, count - start)


def _padded_sum(values: np.ndarray, keep: np.ndarray, size: int):
    """Sum of ``values`` placed at the indices ``keep`` of ``size`` zeros: the
    bytes of the full-length array's sum, whose pairwise order depends on
    its length."""
    padded = np.zeros(size)
    padded[keep] = values
    return padded.sum()


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """``re + 1j * im``, written into the parts of one new array."""
    out = np.empty(len(re), dtype=complex)
    out.real = re
    out.imag = im
    return out


def _draw_chunk_n1(count: int, seed: int, ci: int):
    """The raw draws ``(wre, wim, xi)`` of chunk ``ci`` of the n = 1
    :func:`sample_base_measure` (at most ``_CHUNK`` of its ``count`` samples):
    the box coordinates of ``w`` and the ``(2, mcount)`` normals of ``z``."""
    mcount = _chunk_size(count, ci * _CHUNK)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(ci,)))
    # always draw full chunks so shorter runs are prefixes of longer ones
    wre = rng.uniform(-1.0, 1.0, _CHUNK)[:mcount]
    wim = rng.uniform(-1.0, 1.0, _CHUNK)[:mcount]
    return wre, wim, rng.standard_normal((2, _CHUNK))[:, :mcount]


def _sample_chunk_n1(consts: MeasureConstants, wre, wim, xi):
    """The samples inside the disk of one chunk's draws
    (:func:`_draw_chunk_n1`): ``(keep, w, z, weight)``, the chunk indices of
    the samples with ``|w| < 1`` and their compact arrays, in draw order.
    Outside the disk the weight is 0, so no sum over the chunk needs those
    samples; nothing is computed for them."""
    p = consts.p
    # index arrays: numpy gathers and scatters by a boolean mask far slower
    keep = np.flatnonzero(wre**2 + wim**2 < 1.0)
    wre, wim, xi = wre.take(keep), wim.take(keep), xi.take(keep, axis=1)
    det = 1.0 - (wre**2 + wim**2)
    weight = 4.0 * consts.Lambda * math.pi * det**p
    # z | w: exponent F = m[(1+u) x1^2 + (1-u) x2^2 + 2 v x1 x2], m = 1/det;
    # the entries 2m(1+u), 2m v, 2m(1-u) of its matrix are used once each,
    # so they are not kept beside the chunk's other arrays
    two_m = 2 * (1.0 / det)
    l11 = np.sqrt(two_m * (1 + wre))
    l21 = two_m * wim / l11
    l22 = np.sqrt(np.maximum(two_m * (1 - wre) - l21**2, 1e-300))
    x2 = xi[1] / l22
    x1 = (xi[0] - l21 * x2) / l11
    return keep, _complex(wre, wim), _complex(x1, x2), weight


def _arrays_chunk_n1(consts: MeasureConstants, count: int, seed: int, ci: int):
    """The full-length ``(w, z, weight)`` arrays of chunk ``ci`` of the n = 1
    :func:`sample_base_measure`: the in-disk samples scattered back, with
    ``z = 0`` and weight 0 outside the disk."""
    wre, wim, xi = _draw_chunk_n1(count, seed, ci)
    keep, _, zin, wtin = _sample_chunk_n1(consts, wre, wim, xi)
    z = np.zeros(len(wre), dtype=complex)
    z[keep] = zin
    weight = np.zeros(len(wre))
    weight[keep] = wtin
    return _complex(wre, wim), z, weight


def _uniform_chunk(seed: int, count: int, streams: int, start: int) -> np.ndarray:
    """Draws ``start`` to ``start + _CHUNK`` (at most ``count``) of each of
    ``streams`` uniform streams on [-1, 1], one stream per row.

    Stream ``j`` is the ``j``-th of ``streams`` successive
    ``default_rng(seed).uniform(-1, 1, count)`` calls: each double consumes
    exactly one 64-bit PCG64 output, so the chunk starts from the seeded
    state advanced by ``start``, and each next stream ``count - mcount``
    outputs after the end of the one before.
    """
    mcount = _chunk_size(count, start)
    out = np.empty((streams, mcount))
    bitgen = np.random.PCG64(seed).advance(start)
    gen = np.random.Generator(bitgen)
    for row in out:
        gen.random(out=row)
        bitgen.advance(count - mcount)
    # uniform(-1, 1) is -1 + 2 U: doubling is exact, so these are its bits
    out *= 2.0
    out -= 1.0
    return out


def _real_form(w: np.ndarray) -> np.ndarray:
    """Real 2n x 2n matrix ``A`` with ``[x; y]^T A [x; y] / 2`` equal to the
    sampler's exponent ``F(z) = Re(zbar^T M z + z^T Wbar M z)``,
    ``M = (1 - W Wbar)^-1``, ``z = x + i y``, for symmetric ``W`` or a stack."""
    m = matfun.inv(matfun.eye(w.shape[-1]) - w @ w.conj())
    q = w.conj() @ m  # symmetric, so Re(z^T q z) needs no symmetrization
    top = np.concatenate([m.real + q.real, -(m.imag + q.imag)], axis=-1)
    bottom = np.concatenate([m.imag - q.imag, m.real - q.real], axis=-1)
    return 2.0 * np.concatenate([top, bottom], axis=-2)


def sample_base_measure(n: int, k: float, count: int, seed: int):
    """The weighted sample ``(x, weight)`` of the base measure: ``x`` a
    :class:`CSPoint` stack, ``z`` of shape ``(count, n)`` and ``W`` of shape
    ``(count, n, n)``, and ``weight`` of shape ``(count,)``.

    ``mean(weight * f(x))`` estimates ``Lambda * integral(f Q K^-1)`` with
    respect to Lebesgue measure on C^n x D_n.  Each upper-triangle entry of
    ``W`` is uniform on the box [-1, 1]^2, ``z | W`` is drawn from the exact
    Gaussian with the diagonal-kernel exponent (:func:`_real_form`), and the
    weight ``vol_box Lambda pi^n det(1 - W Wbar)^p`` carries its normalizer.
    A sample outside the domain has weight 0, ``z = 0`` and its box ``W``.

    At n = 1 the chunks of :func:`_arrays_chunk_n1`, counter-based
    substreams, run on a pool of one worker thread per CPU and are joined in
    chunk order: the result depends on ``(seed, count)`` only, and a shorter
    run is a prefix of a longer one.  At n >= 2 one stream draws all box
    coordinates, then all normals; one stacked Cholesky of ``1 - W Wbar``
    picks the samples inside the domain (a matrix that does not factor is
    outside) and gives their determinants.
    """
    nchunks = _chunk_count(count)
    consts = measure_constants(n, k)
    if n == 1:
        tasks = [functools.partial(_arrays_chunk_n1, consts, count, seed, ci)
                 for ci in range(nchunks)]
        w, z, weight = (np.concatenate(parts) for parts in zip(*_ordered_map(tasks)))
        # trailing axes of size 1: views, each column contiguous
        return CSPoint(z=z[:, None], W=w[:, None, None]), weight
    entries = n * (n + 1) // 2
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
    # each sample's (Re, Im) of each upper-triangle entry, read as complex
    w = w_from_coords(rng.uniform(-1.0, 1.0, (count, entries, 2)).view(complex)[..., 0], n)
    xi = rng.standard_normal((count, 2 * n))
    diag = matfun._cholesky(matfun.eye(n) - w @ w.conj()).diagonal(axis1=-2, axis2=-1).real
    inside = np.flatnonzero(~np.isnan(diag).any(axis=-1))
    det = np.prod(diag[inside], axis=-1) ** 2
    weight = np.zeros(count)
    # the Gaussian normalizer's det^(1/2) is already folded into p
    weight[inside] = 4.0**entries * consts.Lambda * math.pi**n * det**consts.p
    lmat = np.linalg.cholesky(_real_form(w[inside]))
    zeta = matfun.solve_vectors(lmat.swapaxes(-1, -2), xi[inside])
    z = np.zeros((count, n), dtype=complex)
    z[inside] = zeta[:, :n] + 1j * zeta[:, n:]
    return CSPoint(z=z, W=w), weight


def mc_inner_product_n1(f, g, k: float, count: int, seed: int):
    """Monte-Carlo estimate of the weighted inner product ``(f, g)`` at n=1.

    Returns ``(estimate, standard_error)``; the standard error is the RMS
    deviation of the weighted samples from the estimate over ``sqrt(count)``.
    """
    x, wt = sample_base_measure(1, k, count, seed)
    z, w = x.z[:, 0], x.W[:, 0, 0]
    vals = wt * np.conj(f(z, w)) * g(z, w)
    est = complex(vals.mean())
    se = math.sqrt(float(np.mean(np.abs(vals - est) ** 2)) / len(vals))
    return est, se


def _kernel_n1(zb, wb, z0: complex, w0: complex, k: float):
    """:func:`kernel` ``K(y, x0)`` at n = 1 for arrays of points ``y = (z, w)``
    given by their conjugates ``zb``, ``wb``:
    ``u^{k/2} exp(u (zbar z0 + z0^2 wbar / 2 + w0 zbar^2 / 2))`` with
    ``u = 1 / (1 - w0 wbar)``."""
    # in place, in the order of the closed form
    u = w0 * wb
    np.subtract(1.0, u, out=u)
    np.divide(1.0, u, out=u)
    expo = zb * z0
    tmp = (0.5 * z0 * z0) * wb
    expo += tmp
    expo += np.multiply(0.5 * w0, np.multiply(zb, zb, out=tmp), out=tmp)
    np.multiply(u, expo, out=expo)
    np.exp(expo, out=expo)
    u **= k / 2
    u *= expo
    return u


def _reproduce_chunk(consts: MeasureConstants, count: int, seed: int, ci: int, targets):
    """The flat tuple of total weight, inside-disk count and, for each
    ``(f, z0, w0)`` of ``targets``, the sum of ``weight * K(y, x0) * f(y)``
    over chunk ``ci`` of the n = 1 :func:`sample_base_measure`.

    The weight is 0 outside the disk, so the kernel sums run on the compact
    in-disk samples of :func:`_sample_chunk_n1`; the total weight is summed
    over the chunk's full length (:func:`_padded_sum`).  At ``x0 = 0`` the
    kernel is 1 exactly, and the term is ``weight * f``.
    """
    keep, w, z, wt = _sample_chunk_n1(consts, *_draw_chunk_n1(count, seed, ci))
    mass = _padded_sum(wt, keep, _chunk_size(count, ci * _CHUNK))
    zb, wb = np.conj(z), np.conj(w)
    sums = []
    for f, z0, w0 in targets:
        if z0 == 0 and w0 == 0:
            term = wt * f(z, w)
        else:
            term = _kernel_n1(zb, wb, z0, w0, consts.k)
            np.multiply(wt, term, out=term)
            term *= f(z, w)
        sums.append(np.sum(term))
    return mass, len(keep), *sums


def _reproduce_sums(consts: MeasureConstants, count: int, seed: int, targets) -> tuple:
    """:func:`_reproduce_chunk` of every chunk of ``count`` samples, run on
    :func:`_ordered_map` and added in chunk order: the total weight, the
    inside-disk count and one sum per target."""
    return _fold(_ordered_map(functools.partial(_reproduce_chunk, consts, count, seed, ci, targets)
                              for ci in range(_chunk_count(count))))


def reproduce_check(f, x0: CSPoint, k: float, samples: int, seed: int = 2024):
    """Monte-Carlo test of the reproducing property at n = 1.

    ``rhs = mean(weight * K(y, x0) * f(y))`` should reproduce
    ``lhs = f(x0)``; returns ``(lhs, rhs, relerr)``.  The samples stream
    through :func:`_ordered_map` one chunk per worker at a time, and ``f``
    runs on those workers.

    Raises
    ------
    OutOfDomain
        If called with n != 1 or k <= 3.
    """
    if x0.n != 1:
        raise OutOfDomain("reproduce_check is implemented for n = 1 only")
    if k <= 3:
        raise OutOfDomain("need k > 3")
    consts = measure_constants(1, k)
    z0 = complex(x0.z[0])
    w0 = complex(x0.W[0, 0])
    _, _, total = _reproduce_sums(consts, samples, seed, [(f, z0, w0)])
    # the sum is over the samples inside the disk, the mean over all of them
    rhs = complex(total / samples)
    lhs = complex(f(np.array([z0]), np.array([w0]))[0])
    relerr = abs(lhs - rhs) / max(abs(lhs), 1e-300)
    return lhs, rhs, relerr


def pik_apply(h: JacobiElement, k, f, x: CSPoint) -> complex:
    """Representation on holomorphic functions.

    ``(pi(h) f)(x) = lambda(h^-1, x) f(h^-1 . x)`` with the full cocycle
    (central phase included); a homomorphism along :func:`jacobi_compose`.
    ``k`` must be an even integer.
    """
    hinv = jacobi_inverse(h)
    lam = lambda_full(hinv, x, k)
    return lam * f(act(hinv, x))
