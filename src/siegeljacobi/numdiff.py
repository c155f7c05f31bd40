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
``s``, eight points around one centre that all directions share.  The step
is ``h = 5e-4`` away from the boundary of D_n and shrinks with the distance
``1 - ||W||_2`` to it (:func:`_step_halvings`).

A stencil plan, built once per ``n`` (and step) as read-only arrays, holds
every offset as a full ``z`` array and a full symmetric ``W`` array, so each
call's stack is the centre plus the offsets, one add for ``z`` and one for
``W``; one gather index takes the eight values of every direction from the
values of all calls.  The stacks keep only the stencil axes they move
along, in two calls (one at n = 1):

* (AB) for each ``w_b``, the directions through it, which all step ``w_b``
  through the same eight values (the steps times ``i`` are the same steps),
  so one ``W`` serves ``1 + 2n`` points; and, in extra slots that hold the
  centre's ``W``, the centre and the directions in ``z`` only;
* (C) the ``w``–``w`` pairs.

So the 33 / 213 / 660 points at n = 1 / 2 / 3 hold only 11 / 81 / 300
``W``, each factored once by :func:`jacobi.kahler_potential`.  A Jacobian's
stack holds four points per coordinate (20 at n = 2), the centre plus the
offsets of a cached plan, in one call.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

from .jacobi import CSPoint, _sym_index_arrays, cs_coords, w_from_coords

__all__ = ["wirtinger_hessian", "holomorphic_jacobian"]


#: Step of the Hessian's stencil away from the boundary: the truncation
#: error is O(h^4)
_HESSIAN_STEP = 5e-4
#: Near the boundary the Hessian's step is about ``5e-4 (1 - ||W||_2) / _STEP_GAP``
_STEP_GAP = 0.2
#: The Hessian keeps its full step while ``||W||_2`` is at most this (and
#: somewhat beyond: see :func:`_step_halvings`)
_FULL_STEP_NORM = 0.85
#: Step of the Jacobians' stencils
_JACOBIAN_STEP = 1e-6

#: The eight steps ``s`` of one direction of the Hessian's stencil, in units
#: of its step: ``i^q c`` for ``q = 0..3`` and ``c = 1, 2``
_UNIT_STEPS = np.array([1, 2, 1j, 2j, -1, -2, -1j, -2j])
#: ``steps[_TURN[j]] = i steps[j]``: multiplying by ``i`` is exact, so a
#: direction ``e_a + i e_b`` steps ``xi_b`` through the same eight values
_TURN = (np.arange(8) + 2) % 8
#: Weights of ``f(xi + s u) - f(xi)`` in ``48 h^2 L(u)``: the five-point
#: second difference ``(-1, 16, -30, 16, -1) / 12 h^2`` along ``Re s`` and
#: along ``Im s`` (B. Fornberg, Math. Comp. 51 (1988) 699-706), whose sum is
#: the Laplacian ``4 d^2 / ds dsbar``
_WEIGHTS = np.array([16.0, -1.0] * 4)
#: Offset of a coordinate that does not move: adding -0.0 leaves every
#: value as it is, -0.0 included
_STILL = complex(-0.0, -0.0)

#: The imaginary part of the Hessian's diagonal
_ZERO = np.zeros(1)

#: The Jacobian stencil's steps ``h, -h, ih, -ih`` in one coordinate
_JACOBIAN_STEPS = np.array(
    [_JACOBIAN_STEP, -_JACOBIAN_STEP, 1j * _JACOBIAN_STEP, -1j * _JACOBIAN_STEP]
)


def _frozen(arr):
    """``arr``, made read-only: the cached stencil arrays are shared."""
    arr.flags.writeable = False
    return arr


def _step_halvings(w: np.ndarray) -> int:
    """How many times the Hessian's step is halved at the symmetric ``W``:
    ``5e-4 / 2^k`` is the power-of-two fraction of ``5e-4`` nearest to
    ``5e-4 (1 - ||W||_2) / 0.2``, in ratio, and at most ``5e-4``.

    The potentials' derivatives grow like powers of ``1 / (1 - ||W||_2)``,
    so the O(h^4) truncation error grows like ``h^4 / (1 - ||W||_2)^6``
    while the O(eps / h^2) rounding error does not: the two balance at a
    step proportional to the distance to the boundary.  So the step is full
    while ``||W||_2 < 1 - 0.2 / sqrt(2)``, about 0.86, and halves as the
    distance halves; halving keeps the steps exact multiples of ``5e-4``.
    ``||W||_F`` bounds ``||W||_2``, so the singular values are computed
    only where it exceeds 0.85.  A ``W`` on or outside the boundary, or one
    that is not finite, keeps the full step.
    """
    if np.vdot(w, w).real <= _FULL_STEP_NORM**2:
        return 0
    with np.errstate(all="ignore"):
        gap = 1.0 - float(_umath_linalg.svd(w)[0])
    if not 0.0 < gap < 1.0 - _FULL_STEP_NORM:
        return 0
    return max(0, round(math.log2(_STEP_GAP / gap)))


def _w_offsets(lead, n, *moves):
    """Offsets of symmetric ``W`` stacks of leading shape ``lead``: ``-0.0``
    everywhere but the entries of the ``w`` coordinates of ``moves``, pairs
    ``(coord, steps)`` of an index array and the steps it moves by, both
    broadcasting to ``lead``."""
    i, j = _sym_index_arrays(n)
    dw = np.full(lead + (n, n), _STILL)
    at = tuple(np.indices(lead, sparse=True))
    for coord, steps in moves:
        dw[at + (i[coord], j[coord])] = steps
        dw[at + (j[coord], i[coord])] = steps
    return dw


class _StencilPlan(NamedTuple):
    """The Hessian's stencil at one ``n`` and step; see :func:`_stencil_plan`."""

    calls: tuple
    points: int
    take: np.ndarray
    centre: int
    scale: float
    rows: np.ndarray
    cols: np.ndarray
    place: np.ndarray


@functools.lru_cache(maxsize=64)
def _stencil_plan(n: int, halvings: int = 0):
    """The Hessian's stencil at ``n`` and step ``5e-4 / 2^halvings``, built
    once as read-only arrays.

    ``calls`` holds ``(lead, dz, dw)`` for each call of the function: the
    leading shape of its stack and the offsets of ``z`` (shape ``(...,
    n)``) and of the symmetric ``W`` (``(..., n, n)``) on it, ``-0.0`` where
    a coordinate does not move; the calls hold ``points`` points.  The
    ``dim^2`` directions of the ``dim = n + m`` coordinates, ``m =
    n(n+1)/2``, are numbered ``e_a`` (``a``), then ``e_a + e_b`` (``dim +
    p``) and ``e_a + i e_b`` (``dim + P + p``) for the ``P`` pairs ``p`` of
    ``rows, cols = np.triu_indices(dim, 1)``.  Column ``u`` of ``take``
    holds the indices of the eight points of direction ``u``, in the order
    of the steps, in the flat values of the calls one after the other;
    ``centre`` is the index of the centre there, and ``scale = 48 h^2``.
    ``place`` takes the real and imaginary part of each Hessian entry from
    the diagonal, the real parts, the imaginary parts and their negatives
    of the pairs, and a zero, one after the other.
    """
    h = _HESSIAN_STEP * 0.5**halvings
    steps = h * _UNIT_STEPS
    m = n * (n + 1) // 2
    dim = n + m
    rows, cols = np.triu_indices(dim, 1)
    pairs = len(rows)
    zz = np.flatnonzero(cols < n)
    zw = np.flatnonzero((rows < n) & (cols >= n))
    ww = np.flatnonzero(rows >= n)
    take = np.empty((dim * dim, 8), dtype=np.intp)
    place = np.empty((dim, dim, 2), dtype=np.intp)
    diag = np.arange(dim)
    place[diag, diag] = np.stack([diag, np.full(dim, dim + 3 * pairs)], axis=1)
    re, im, neg = (dim + q * pairs + np.arange(pairs) for q in range(3))
    place[rows, cols] = place[cols, rows] = np.stack([re, im], axis=1)
    place[cols, rows, 1] = neg

    # the centre, then e_a, e_a + e_b and e_a + i e_b in z, 8 points each,
    # all at the centre's W
    a = np.concatenate([np.arange(n), rows[zz], rows[zz]])
    moves = np.full((len(a), 8, n), _STILL)
    moves[np.arange(len(a)), :, a] = steps
    moves[n + np.arange(len(zz)), :, cols[zz]] = steps
    moves[n + len(zz) + np.arange(len(zz)), :, cols[zz]] = steps[_TURN]
    centred = np.concatenate([np.full((1, n), _STILL), moves.reshape(-1, n)])

    # (AB) for each w_b: e_b, then e_a + e_b and e_a + i e_b for each z_a,
    # with the step of w_b on the last axis, so the turned rows hold step j at
    # _TURN[j]; then `extra` slots at the centre's W, which hold the points
    # above on the same 1 + 2n wide z axis
    wide = 1 + 2 * n
    extra = -(-len(centred) // (m * wide))
    lead = (m, wide, 8 + extra)
    dz = np.full(lead + (n,), _STILL)
    a = np.arange(n)[:, None]
    dz[:, 1 + a, np.arange(8), a] = steps
    dz[:, n + 1 + a, _TURN, a] = steps
    slots = np.full((m * wide * extra, n), _STILL)
    slots[: len(centred)] = centred
    dz[:, :, 8:] = slots.reshape(m, wide, extra, n)
    w_lead = (m, 1, 8 + extra)
    dw = _w_offsets(w_lead, n, (np.arange(m)[:, None, None], np.append(steps, [_STILL] * extra)))
    flat = np.arange(math.prod(lead)).reshape(lead)
    at_centre = flat[:, :, 8:].reshape(-1)[: len(centred)]
    centre = int(at_centre[0])
    take[np.concatenate([np.arange(n), dim + zz, dim + pairs + zz])] = at_centre[1:].reshape(-1, 8)
    ring = flat[:, :, :8].copy()
    ring[:, n + 1 :] = ring[:, n + 1 :, _TURN]
    pair = zw.reshape(n, m).T  # z_a with w_b: pair a * m + b of the z-w pairs
    dirs = np.concatenate([(n + np.arange(m))[:, None], dim + pair, dim + pairs + pair], axis=1)
    take[dirs.ravel()] = ring.reshape(-1, 8)
    calls = [(lead, dz, dw)]

    # (C) e_a + e_b and e_a + i e_b for each w-w pair
    if len(ww):
        c_lead = (len(ww), 2, 8)
        dw = _w_offsets(c_lead, n, ((rows[ww] - n)[:, None, None], steps),
                        ((cols[ww] - n)[:, None, None], np.stack([steps, steps[_TURN]])))
        take[np.stack([dim + ww, dim + pairs + ww], axis=1).ravel()] = (
            flat.size + np.arange(math.prod(c_lead)).reshape(-1, 8)
        )
        calls.append((c_lead, np.full((1, 1, 1, n), _STILL), dw))

    calls = tuple((lead, _frozen(dz), _frozen(dw)) for lead, dz, dw in calls)
    return _StencilPlan(calls, sum(math.prod(lead) for lead, _, _ in calls),
                        _frozen(take.T.copy()), centre, 48 * h * h, *map(_frozen, (rows, cols, place)))


def wirtinger_hessian(fun, x: CSPoint) -> np.ndarray:
    """Mixed Hessian ``H_ab = d^2 f / dxi_a dxibar_b`` of a real function.

    The polarization of the Levi form ``L(u) = sum_ab u_a conj(u_b) H_ab``:
    ``H_aa = L(e_a)``, ``Re H_ab = (L(e_a + e_b) - L(e_a) - L(e_b)) / 2``
    and ``Im H_ab = (L(e_a + i e_b) - L(e_a) - L(e_b)) / 2``.  ``L(u)`` is
    ``d^2 / ds dsbar f(xi + s u)`` at ``s = 0``, taken by the five-point
    fourth-order second difference along ``Re s`` and ``Im s`` with step
    ``h``: eight points ``s = i^q c h`` (``c = 1, 2``) and the centre
    ``f(xi)`` that all ``dim^2`` directions share.  ``h = 5e-4`` while
    ``||W||_2 < 1 - 0.2 / sqrt(2)``, about 0.86; nearer the boundary, ``h``
    is the power-of-two fraction of ``5e-4`` nearest ``5e-4 (1 - ||W||_2) /
    0.2``, set once per Hessian (:func:`_step_halvings`), so that the O(h^4)
    truncation error stays far below the closed forms it validates as the
    potential's derivatives grow.  Entry ``(b, a)`` is the conjugate of
    ``(a, b)`` and the diagonal is real, so the Hessian is Hermitian bit for
    bit.

    ``fun`` is called on 33 / 213 / 660 points at n = 1 / 2 / 3, once per
    group of directions (one call at n = 1, two from n = 2), in the order
    AB, C, on a :class:`CSPoint` whose ``z`` and ``W`` stacks keep only the
    stencil axes they move along (``m = n(n+1)/2``):

    * (AB) for each coordinate ``w_b``, the directions ``e_b``, ``e_a +
      e_b`` and ``e_a + i e_b`` (``a`` in ``z``): ``z`` of leading shape
      ``(m, 1 + 2n, 8 + e)`` and ``W`` of ``(m, 1, 8 + e)``, the last axis
      being the step of ``w_b``; as ``i`` times the eight steps is the same
      eight steps, ``e_a + i e_b`` reuses those ``W``.  The ``e`` extra
      slots of the last axis hold the centre's ``W``, and their ``z`` hold
      the centre and the ``8 n^2`` points of the directions in ``z`` only,
      then the centre again to fill them: ``e = 3 / 3 / 2`` at n = 1 / 2 /
      3;
    * (C) ``e_a + e_b`` and ``e_a + i e_b`` for each of the ``m(m-1)/2``
      ``w``–``w`` pairs: one ``z`` of leading shape ``(1, 1, 1)`` and ``W``
      of ``(pairs, 2, 8)``; absent at n = 1.

    ``fun`` returns real values whose axes broadcast to the call's leading
    shape, as :func:`jacobi.kahler_potential` does; so work that depends on
    ``W`` alone runs once per ``W`` of the stacks (11 / 81 / 300).  Every
    entry sums the same values in the same order as a call of ``fun`` per
    point would: ``sum_j w_j (f_j - f(xi))`` over the eight steps in turn,
    divided by ``48 h^2``, then the polarization in the order written above.
    """
    base = cs_coords(x)
    n, dim = x.n, len(base)
    z0, w0 = base[:n], w_from_coords(base[n:], n)
    plan = _stencil_plan(n, _step_halvings(w0))
    values, start = np.empty(plan.points), 0
    for lead, dz, dw in plan.calls:
        got = np.asarray(fun(CSPoint(z=z0 + dz, W=w0 + dw)))
        if got.ndim != len(lead) or any(g not in (1, s) for g, s in zip(got.shape, lead)):
            raise ValueError(
                f"fun returned shape {got.shape}, expected one broadcasting to {lead}"
            )
        if np.iscomplexobj(got):
            raise ValueError("fun returned complex values, expected real ones")
        stop = start + math.prod(lead)
        values[start:stop].reshape(lead)[...] = got
        start = stop
    terms = (values[plan.take] - values[plan.centre]) * _WEIGHTS[:, None]
    acc = terms[0]
    for term in terms[1:]:
        acc = acc + term
    levi = acc / plan.scale
    diag = levi[:dim]
    pol = (levi[dim:].reshape(2, -1) - diag[plan.rows] - diag[plan.cols]) * 0.5
    parts = np.concatenate([diag, pol.ravel(), -pol[1], _ZERO])
    return parts[plan.place].view(complex).reshape(dim, dim)


@functools.lru_cache(maxsize=8)
def _jacobian_plan(n: int):
    """The offsets ``(dz, dw)`` of the Jacobians' stencil at ``n``, built
    once as read-only arrays: leading shape ``(dim, 4)``, the coordinate,
    then its steps ``h, -h, ih, -ih``; ``-0.0`` where a coordinate does not
    move."""
    m = n * (n + 1) // 2
    lead = (n + m, len(_JACOBIAN_STEPS))
    dz = np.full(lead + (n,), _STILL)
    dz[np.arange(n), :, np.arange(n)] = _JACOBIAN_STEPS
    dw = np.concatenate([
        np.full((n,) + lead[1:] + (n, n), _STILL),
        _w_offsets((m,) + lead[1:], n, (np.arange(m)[:, None], _JACOBIAN_STEPS)),
    ])
    return _frozen(dz), _frozen(dw)


def holomorphic_jacobian(mapping, x: CSPoint) -> np.ndarray:
    """Jacobian ``J_ab = d (mapping coords)_a / d xi_b`` by complex stencils
    with the fixed step ``h = 1e-6``.

    The mapping must be holomorphic; the anti-holomorphic part of the
    stencil is discarded (and is O(h) small for holomorphic maps).

    ``mapping`` is called once, on the stacked :class:`CSPoint` of the
    ``4 dim`` stencil points (leading shape ``(dim, 4)``: the coordinate
    ``b``, then the steps ``h, -h, ih, -ih`` in it), the centre plus the
    cached offsets of :func:`_jacobian_plan`, and returns the stacked image
    points, a :class:`CSPoint` of the same leading shape.  Each entry is
    computed from the same values in the same arithmetic as with a call of
    ``mapping`` per point.  The Jacobian of a domain self-map is the ``w``
    block ``[n:, n:]`` of the map lifted with ``z = 0``.
    """
    base = cs_coords(x)
    n, lead = x.n, (len(base), len(_JACOBIAN_STEPS))
    dz, dw = _jacobian_plan(n)
    image = mapping(CSPoint(z=base[:n] + dz, W=w_from_coords(base[n:], n) + dw))
    for got in (image.z.shape[:-1], image.W.shape[:-2]):
        if got != lead:
            raise ValueError(f"mapping returned leading shape {got}, expected {lead}")
    cols = cs_coords(image)
    d_re = (cols[:, 0] - cols[:, 1]) / (2 * _JACOBIAN_STEP)
    d_im = (cols[:, 2] - cols[:, 3]) / (2 * _JACOBIAN_STEP)
    return (0.5 * (d_re - 1j * d_im)).T
