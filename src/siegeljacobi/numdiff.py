"""Finite-difference oracles for the closed-form geometry.

Mixed Wirtinger Hessians and holomorphic Jacobians in the independent
coordinates of C^n x D_n.  These are deliberately independent of the closed
forms they validate: plain central differences on the real and imaginary
parts of each coordinate.

Each oracle evaluates its stencil on stacks: the function it differentiates
receives a stacked :class:`CSPoint` and returns results of the stack's
leading shape, as :func:`jacobi.kahler_potential`, :func:`jacobi.act` and
:func:`matfun.logdet_hpd` do.  The Hessian is the polarization of the Levi
form ``L(u) = u^T H conj(u)``: its diagonal is ``L(e_a)`` and the real and
imaginary parts of ``H_ab`` come from ``L(e_a + e_b)`` and ``L(e_a + i
e_b)``.  Each ``L(u)`` is a quarter of the Laplacian of ``f(xi + s u)`` in
``s``, eight points around one centre that all directions share (33 / 201 /
649 points at n = 1 / 2 / 3).  The directions go to the function in three
groups, one call each, with ``z`` and ``W`` stacks that keep only the
stencil axes they move along: (A) the centre and the directions in ``z``
only, all at the centre's ``W``; (B) the directions that touch one ``w_b``,
which all step ``w_b`` through the same eight values; (C) the ``w``–``w``
pairs.  So the 33 / 201 / 649 points hold only 9 / 73 / 289 distinct ``W``.
A Jacobian's stack holds four points per coordinate (20 at n = 2), in one
call.
"""

from __future__ import annotations

import functools

import numpy as np

from .jacobi import CSPoint, cs_coords, cs_from_coords, w_from_coords

__all__ = ["wirtinger_hessian", "holomorphic_jacobian"]


#: Step of the Hessian's stencil: the truncation error is O(h^4)
_HESSIAN_STEP = 5e-4
#: Step of the Jacobians' stencils
_JACOBIAN_STEP = 1e-6

#: The eight steps ``s`` of one direction of the Hessian's stencil, ``i^q c h``
#: for ``q = 0..3`` and ``c = 1, 2``
_STEPS = _HESSIAN_STEP * np.array([1, 2, 1j, 2j, -1, -2, -1j, -2j])
#: ``_STEPS[_TURN[j]] = i _STEPS[j]``: multiplying by ``i`` is exact, so a
#: direction ``e_a + i e_b`` steps ``xi_b`` through the same eight values
_TURN = (np.arange(8) + 2) % 8
#: Weights of ``f(xi + s u) - f(xi)`` in ``48 h^2 L(u)``: the five-point
#: second difference ``(-1, 16, -30, 16, -1) / 12 h^2`` along ``Re s`` and
#: along ``Im s`` (B. Fornberg, Math. Comp. 51 (1988) 699-706), whose sum is
#: the Laplacian ``4 d^2 / ds dsbar``
_WEIGHTS = np.array([16.0, -1.0] * 4)
_SCALE = 48 * _HESSIAN_STEP * _HESSIAN_STEP
#: Offset of a coordinate that does not move: adding -0.0 leaves every
#: value as it is, -0.0 included
_STILL = complex(-0.0, -0.0)

#: The Jacobian stencil's steps ``h, -h, ih, -ih`` in one coordinate
_JACOBIAN_STEPS = np.array(
    [_JACOBIAN_STEP, -_JACOBIAN_STEP, 1j * _JACOBIAN_STEP, -1j * _JACOBIAN_STEP]
)


def _frozen(arr):
    """``arr``, made read-only: the cached stencil arrays are shared."""
    arr.flags.writeable = False
    return arr


def _group(dz, dw, dirs, take):
    """A group of :func:`_polar_groups`: its leading shape, then its arrays,
    made read-only."""
    lead = np.broadcast_shapes(dz.shape[:-1], dw.shape[:-1])
    return (lead,) + tuple(map(_frozen, (dz, dw, dirs, take)))


@functools.lru_cache(maxsize=8)
def _polar_groups(n: int):
    """The Hessian's stencil at ``n``, built once as read-only arrays:
    ``(rows, cols, groups)``.

    ``rows, cols`` is ``np.triu_indices(dim, 1)`` of the ``dim = n + m``
    coordinates, ``m = n(n+1)/2``.  The ``dim^2`` directions are numbered
    ``e_a`` (``a``), then ``e_a + e_b`` (``dim + p``) and ``e_a + i e_b``
    (``dim + P + p``) for the ``P`` pairs ``p`` of ``rows, cols``.  Each of
    the non-empty groups A, B, C is ``(lead, dz, dw, dirs, take)``: the
    leading shape of its stack, the offsets of ``z`` and of the ``w_ij`` on
    it (``-0.0`` where a coordinate does not move), the directions it holds,
    and for each of them the flat indices of its eight points in the order
    of ``_STEPS``.  The centre is point 0 of group A.
    """
    m = n * (n + 1) // 2
    dim = n + m
    rows, cols = np.triu_indices(dim, 1)
    pairs = len(rows)
    zz = np.flatnonzero(cols < n)
    zw = np.flatnonzero((rows < n) & (cols >= n))
    ww = np.flatnonzero(rows >= n)
    groups = []

    # (A) the centre, then e_a, e_a + e_b and e_a + i e_b in z, 8 points each
    a = np.concatenate([np.arange(n), rows[zz], rows[zz]])
    moves = np.full((len(a), 8, n), _STILL)
    moves[np.arange(len(a)), :, a] = _STEPS
    moves[n + np.arange(len(zz)), :, cols[zz]] = _STEPS
    moves[n + len(zz) + np.arange(len(zz)), :, cols[zz]] = _STEPS[_TURN]
    dz = np.concatenate([np.full((1, n), _STILL), moves.reshape(-1, n)])
    dirs = np.concatenate([np.arange(n), dim + zz, dim + pairs + zz])
    take = 1 + np.arange(8 * len(a)).reshape(-1, 8)
    groups.append(_group(dz, np.full((1, m), _STILL), dirs, take))

    # (B) for each w_b: e_b, then e_a + e_b and e_a + i e_b for each z_a; the
    # last axis is the step of w_b, so the turned rows hold step j at _TURN[j]
    dw = np.full((m, 1, 8, m), _STILL)
    dw[np.arange(m), 0, :, np.arange(m)] = _STEPS
    dz = np.full((m, 1 + 2 * n, 8, n), _STILL)
    a = np.arange(n)[:, None]
    dz[:, 1 + a, np.arange(8), a] = _STEPS
    dz[:, n + 1 + a, _TURN, a] = _STEPS
    pair = zw.reshape(n, m).T  # z_a with w_b: pair a * m + b of the z-w pairs
    dirs = np.concatenate([(n + np.arange(m))[:, None], dim + pair, dim + pairs + pair], axis=1)
    flat = np.arange(m * (1 + 2 * n) * 8).reshape(m, 1 + 2 * n, 8)
    flat[:, n + 1 :] = flat[:, n + 1 :, _TURN]
    groups.append(_group(dz, dw, dirs.ravel(), flat.reshape(-1, 8)))

    # (C) e_a + e_b and e_a + i e_b for each w-w pair
    if len(ww):
        dw = np.full((len(ww), 2, 8, m), _STILL)
        dw[np.arange(len(ww)), :, :, rows[ww] - n] = _STEPS
        dw[np.arange(len(ww)), 0, :, cols[ww] - n] = _STEPS
        dw[np.arange(len(ww)), 1, :, cols[ww] - n] = _STEPS[_TURN]
        dirs = np.stack([dim + ww, dim + pairs + ww], axis=1)
        take = np.arange(16 * len(ww)).reshape(-1, 8)
        groups.append(_group(np.full((1, 1, 1, n), _STILL), dw, dirs.ravel(), take))

    return _frozen(rows), _frozen(cols), tuple(groups)


def wirtinger_hessian(fun, x: CSPoint) -> np.ndarray:
    """Mixed Hessian ``H_ab = d^2 f / dxi_a dxibar_b`` of a real function.

    The polarization of the Levi form ``L(u) = sum_ab u_a conj(u_b) H_ab``:
    ``H_aa = L(e_a)``, ``Re H_ab = (L(e_a + e_b) - L(e_a) - L(e_b)) / 2``
    and ``Im H_ab = (L(e_a + i e_b) - L(e_a) - L(e_b)) / 2``.  ``L(u)`` is
    ``d^2 / ds dsbar f(xi + s u)`` at ``s = 0``, taken by the five-point
    fourth-order second difference along ``Re s`` and ``Im s`` with the
    fixed step ``h = 5e-4``: eight points ``s = i^q c h`` (``c = 1, 2``)
    and the centre ``f(xi)`` that all ``dim^2`` directions share.  The
    truncation error is O(h^4) and stays far below the closed forms it
    validates.  Entry ``(b, a)`` is the conjugate of ``(a, b)`` and the
    diagonal is real, so the Hessian is Hermitian bit for bit.

    ``fun`` is called once per group of directions (33 / 201 / 649 points
    at n = 1 / 2 / 3), in the order A, B, C, on a :class:`CSPoint` whose
    ``z`` and ``W`` stacks keep only the stencil axes they move along:

    * (A) the centre and the directions in ``z`` only: ``z`` of leading
      shape ``(1 + 8 n^2,)``, one ``W`` of leading shape ``(1,)``;
    * (B) for each of the ``m = n(n+1)/2`` coordinates ``w_b``, the
      directions ``e_b``, ``e_a + e_b`` and ``e_a + i e_b`` (``a`` in ``z``):
      ``z`` of leading shape ``(m, 1 + 2n, 8)`` and ``W`` of ``(m, 1, 8)``,
      the last axis being the step of ``w_b``; as ``i`` times the eight
      steps is the same eight steps, ``e_a + i e_b`` reuses those ``W``;
    * (C) ``e_a + e_b`` and ``e_a + i e_b`` for each of the ``m(m-1)/2``
      ``w``–``w`` pairs: one ``z`` of leading shape ``(1, 1, 1)`` and ``W``
      of ``(pairs, 2, 8)``; absent at n = 1.

    ``fun`` returns real values whose axes broadcast to the group's leading
    shape, as :func:`jacobi.kahler_potential` does; so work that depends on
    ``W`` alone runs once per distinct ``W`` (9 / 73 / 289).  Every entry
    sums the same values in the same order as a call of ``fun`` per point
    would: ``sum_j w_j (f_j - f(xi))`` over the eight steps in turn, divided
    by ``48 h^2``, then the polarization in the order written above.
    """
    base = cs_coords(x)
    n, dim = x.n, len(base)
    rows, cols, groups = _polar_groups(n)
    vals = np.empty((dim * dim, 8))
    for i, (lead, dz, dw, dirs, take) in enumerate(groups):
        got = np.asarray(fun(CSPoint(z=base[:n] + dz, W=w_from_coords(base[n:] + dw, n))))
        if got.ndim != len(lead) or any(g not in (1, s) for g, s in zip(got.shape, lead)):
            raise ValueError(
                f"fun returned shape {got.shape}, expected one broadcasting to {lead}"
            )
        if np.iscomplexobj(got):
            raise ValueError("fun returned complex values, expected real ones")
        flat = np.broadcast_to(got, lead).reshape(-1)
        if i == 0:  # point 0 of group A is the centre
            centre = flat[0]
        vals[dirs] = flat[take]
    terms = (vals - centre) * _WEIGHTS
    acc = terms[:, 0]
    for term in terms.T[1:]:
        acc = acc + term
    levi = acc / _SCALE
    diag, re, im = levi[:dim], levi[dim : dim + len(rows)], levi[dim + len(rows) :]
    re = (re - diag[rows] - diag[cols]) * 0.5
    im = (im - diag[rows] - diag[cols]) * 0.5
    out = np.empty((dim, dim), dtype=complex)
    out.real[rows, cols] = out.real[cols, rows] = re
    out.imag[rows, cols], out.imag[cols, rows] = im, -im
    out[np.arange(dim), np.arange(dim)] = diag
    return out


def holomorphic_jacobian(mapping, x: CSPoint) -> np.ndarray:
    """Jacobian ``J_ab = d (mapping coords)_a / d xi_b`` by complex stencils
    with the fixed step ``h = 1e-6``.

    The mapping must be holomorphic; the anti-holomorphic part of the
    stencil is discarded (and is O(h) small for holomorphic maps).

    ``mapping`` is called once, on the stacked :class:`CSPoint` of the
    ``4 dim`` stencil points (leading shape ``(dim, 4)``: the coordinate
    ``b``, then the steps ``h, -h, ih, -ih`` in it), and returns the stacked
    image points, a :class:`CSPoint` of the same leading shape.  Each entry
    is computed from the same values in the same arithmetic as with a call
    of ``mapping`` per point.  The Jacobian of a domain self-map is the
    ``w`` block ``[n:, n:]`` of the map lifted with ``z = 0``.
    """
    base = cs_coords(x)
    coord = np.arange(len(base))
    lead = (len(coord), len(_JACOBIAN_STEPS))
    stack = np.broadcast_to(base, lead + base.shape).copy()
    stack[coord, :, coord] += _JACOBIAN_STEPS
    image = mapping(cs_from_coords(stack, x.n))
    for got in (image.z.shape[:-1], image.W.shape[:-2]):
        if got != lead:
            raise ValueError(f"mapping returned leading shape {got}, expected {lead}")
    cols = cs_coords(image)
    d_re = (cols[:, 0] - cols[:, 1]) / (2 * _JACOBIAN_STEP)
    d_im = (cols[:, 2] - cols[:, 3]) / (2 * _JACOBIAN_STEP)
    return (0.5 * (d_re - 1j * d_im)).T
