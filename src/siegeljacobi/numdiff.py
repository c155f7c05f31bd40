"""Finite-difference oracles for the closed-form geometry.

Mixed Wirtinger Hessians and holomorphic Jacobians in the independent
coordinates of C^n x D_n.  These are deliberately independent of the closed
forms they validate: plain central differences on the real and imaginary
parts of each coordinate.

Each oracle evaluates its stencil on stacks: the function it differentiates
receives a stacked :class:`CSPoint` and returns results of the stack's
leading shape, as :func:`jacobi.kahler_potential`, :func:`jacobi.act` and
:func:`matfun.logdet_hpd` do.  The Hessian's stencil holds the 64 points of
each coordinate pair ``a <= b`` once (192 / 960 / 2880 points at n = 1 / 2 /
3): both Wirtinger derivatives step by the same offsets, so the points of
entry ``(b, a)`` are those of ``(a, b)`` with the two steps swapped, bit for
bit.  Its pairs go to the function in three groups by coordinate kind
(z–z, z–w, w–w), one call each, with ``z`` and ``W`` stacks that keep only
the stencil axes they move along: a z–z pair never moves ``W`` and a z–w
pair moves it along one step axis, so the 192 / 960 / 2880 points hold only
73 / 433 / 1489 distinct ``W``.  A Jacobian's stack holds four points per
stepped coordinate (20 at n = 2; 12 for :func:`w_jacobian`, which steps the
``w_ij`` only), in one call.
"""

from __future__ import annotations

import functools

import numpy as np

from .jacobi import CSPoint, cs_coords, cs_from_coords, w_from_coords

__all__ = ["wirtinger_hessian", "holomorphic_jacobian", "w_jacobian"]


def _wirtinger_steps(h: float, conjugate: bool):
    """Fourth-order stencil for d/dxi (or d/dxibar) as (offset, weight) pairs."""
    real = [(-2 * h, 1 / 12), (-h, -8 / 12), (h, 8 / 12), (2 * h, -1 / 12)]
    sign = 1j if conjugate else -1j
    steps = [(off, w / (2 * h)) for off, w in real]
    steps += [(1j * off, sign * w / (2 * h)) for off, w in real]
    return steps


#: Step of the Hessian's stencils: the truncation error is O(h^4)
_HESSIAN_STEP = 5e-4
#: Step of the Jacobians' stencils
_JACOBIAN_STEP = 1e-6

_HESSIAN_STEPS_A = _wirtinger_steps(_HESSIAN_STEP, conjugate=False)
_HESSIAN_STEPS_B = _wirtinger_steps(_HESSIAN_STEP, conjugate=True)
#: The eight offsets of the Hessian stencil, the same for both derivatives
_HESSIAN_OFFSETS = np.array([off for off, _ in _HESSIAN_STEPS_A])
#: ``_HESSIAN_WEIGHTS[i, j]`` weighs step ``i`` in ``xi_a`` and ``j`` in ``xi_b``
_HESSIAN_WEIGHTS = np.array(
    [[wa * wb for _, wb in _HESSIAN_STEPS_B] for _, wa in _HESSIAN_STEPS_A]
)
#: The Jacobian stencil's steps ``h, -h, ih, -ih`` in one coordinate
_JACOBIAN_STEPS = np.array(
    [_JACOBIAN_STEP, -_JACOBIAN_STEP, 1j * _JACOBIAN_STEP, -1j * _JACOBIAN_STEP]
)


def _contract(weights, blocks):
    """Real and imaginary parts, shape ``(2, len(blocks))``, of
    ``sum_i sum_j weights[i, j] * f[i, j]`` for each real block ``f`` of
    ``blocks``, accumulated in that order.

    As ``f`` is real, both parts are sums of real products, and ``np.cumsum``
    adds them one at a time: each gets the bits of the complex accumulation
    ``acc += w * f``.
    """
    flat = blocks.reshape(len(blocks), -1)
    terms = np.stack([flat * weights.real.ravel(), flat * weights.imag.ravel()])
    return np.cumsum(terms, axis=-1)[..., -1]


@functools.lru_cache(maxsize=8)
def _pair_groups(n: int):
    """The stencil's pairs ``a <= b`` of the ``dim = n + n(n+1)/2``
    coordinates, as ``(rows, cols, groups)``, built once per ``n`` as
    read-only arrays.

    ``rows, cols`` is ``np.triu_indices(dim)``.  ``groups`` holds the
    non-empty groups z–z, z–w and w–w, each as ``(where, z_steps, w_steps)``:
    the group's positions in the pair order, then for each kind of
    coordinates the :func:`_kind_stack` indices of the pairs' two steps.
    """
    rows, cols = np.triu_indices(n + n * (n + 1) // 2)
    groups = []
    for where in (cols < n, (rows < n) & (cols >= n), rows >= n):
        r, c = rows[where], cols[where]
        if len(r):
            z_steps = (r if r[0] < n else None, c if c[0] < n else None)
            w_steps = (None if r[0] < n else r - n, None if c[0] < n else c - n)
            groups.append((np.flatnonzero(where), z_steps, w_steps))
    for g in groups:
        for arr in (g[0], *g[1], *g[2]):
            if arr is not None:
                arr.flags.writeable = False
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols, tuple(groups)


def _kind_stack(base, rows, cols):
    """Stencil stack of one kind of coordinates (the ``z`` or the ``w_ij``)
    for a group of pairs.

    ``rows`` and ``cols`` index the pairs' two coordinates into ``base``, or
    are ``None`` where that step moves a coordinate of the other kind.  The
    stack has shape ``(pairs, 8, 8) + base.shape`` with size-1 axes where a
    step does not move this kind, and ``(1, 1, 1) + base.shape`` if neither
    does.  The additions are those of the full stencil, in its order.
    """
    if rows is None and cols is None:
        return base.reshape((1, 1, 1) + base.shape).copy()
    steps = len(_HESSIAN_OFFSETS)
    pairs = len(cols if rows is None else rows)
    lead = (pairs, 1 if rows is None else steps, 1 if cols is None else steps)
    stack = np.empty(lead + base.shape, dtype=complex)
    stack[...] = base
    pair = np.arange(pairs)
    if rows is not None:
        stack[pair, :, :, rows] += _HESSIAN_OFFSETS[:, None]
    if cols is not None:
        stack[pair, :, :, cols] += _HESSIAN_OFFSETS
    return stack


def wirtinger_hessian(fun, x: CSPoint) -> np.ndarray:
    """Mixed Hessian ``H_ab = d^2 f / dxi_a dxibar_b`` of a real function.

    Both Wirtinger derivatives use fourth-order central stencils in the real
    and imaginary directions (64 evaluations per entry) with the fixed step
    ``h = 5e-4``, so the truncation error is O(h^4) and stays far below the
    closed forms it validates.

    The stencil holds the 64 points of each pair ``a <= b`` (in the order of
    ``np.triu_indices``; then the steps in coordinates ``a`` and ``b``).
    ``fun`` is called once per group of pairs by coordinate kind, in the
    order z–z, z–w, w–w, on a :class:`CSPoint` whose ``z`` and ``W`` keep
    only the stencil axes they move along, with size-1 axes elsewhere.  At
    n = 3 the groups hold 6, 18 and 21 pairs; ``z`` has leading shapes
    ``(6, 8, 8)``, ``(18, 8, 1)`` and ``(1, 1, 1)``, and ``W`` has
    ``(1, 1, 1)``, ``(18, 1, 8)`` and ``(21, 8, 8)``.  ``fun`` returns real
    values with three axes that broadcast to the group's leading shape
    ``(pairs, 8, 8)``, as :func:`jacobi.kahler_potential` does; so work that
    depends on ``W`` alone runs once per distinct ``W``.

    Entry ``(b, a)`` reads the values of pair ``(a, b)`` with the two steps
    swapped.  This is exact, not an approximation: both derivatives step by
    the same eight offsets, so for ``a != b`` the point with step ``i`` in
    ``b`` and step ``j`` in ``a`` is the point with step ``j`` in ``a`` and
    step ``i`` in ``b``, bit for bit, because each coordinate receives one
    addition.  On the diagonal both steps add to one coordinate, in the
    order ``(xi + d_i) + d_j``, so the diagonal keeps its own 64 points.
    Every entry sums ``w_i w_j f_ij`` over the same values in the same order
    as a call of ``fun`` per point would.
    """
    base = cs_coords(x)
    n, dim = x.n, len(base)
    rows, cols, groups = _pair_groups(n)
    vals = np.empty((len(rows),) + _HESSIAN_WEIGHTS.shape)
    for where, z_steps, w_steps in groups:
        z = _kind_stack(base[:n], *z_steps)
        w = _kind_stack(base[n:], *w_steps)
        got = np.asarray(fun(CSPoint(z=z, W=w_from_coords(w, n))))
        shape = (len(where),) + _HESSIAN_WEIGHTS.shape
        if got.ndim != 3 or any(g not in (1, s) for g, s in zip(got.shape, shape)):
            raise ValueError(
                f"fun returned shape {got.shape}, expected one broadcasting to {shape}"
            )
        if np.iscomplexobj(got):
            raise ValueError("fun returned complex values, expected real ones")
        vals[where] = got
    off = rows != cols
    blocks = np.concatenate([vals, vals[off].swapaxes(1, 2)])
    entries = (np.concatenate([rows, cols[off]]), np.concatenate([cols, rows[off]]))
    out = np.empty((dim, dim), dtype=complex)
    out.real[entries], out.imag[entries] = _contract(_HESSIAN_WEIGHTS, blocks)
    return out


def _stencil_jacobian(mapping, x: CSPoint, first: int) -> np.ndarray:
    """Columns ``first, first + 1, ...`` of :func:`holomorphic_jacobian`.

    Only coordinates from ``first`` on are stepped, so ``mapping`` is called
    once on a stack of leading shape ``(dim - first, 4)``.
    """
    base = cs_coords(x)
    coord = np.arange(first, len(base))
    lead = (len(coord), len(_JACOBIAN_STEPS))
    stack = np.broadcast_to(base, lead + base.shape).copy()
    stack[coord - first, :, coord] += _JACOBIAN_STEPS
    cols = cs_coords(mapping(cs_from_coords(stack, x.n)))
    if cols.shape[:-1] != lead:
        raise ValueError(f"mapping returned leading shape {cols.shape[:-1]}, expected {lead}")
    d_re = (cols[:, 0] - cols[:, 1]) / (2 * _JACOBIAN_STEP)
    d_im = (cols[:, 2] - cols[:, 3]) / (2 * _JACOBIAN_STEP)
    return (0.5 * (d_re - 1j * d_im)).T


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
    of ``mapping`` per point.
    """
    return _stencil_jacobian(mapping, x, first=0)


def w_jacobian(mapping, w: np.ndarray) -> np.ndarray:
    """Holomorphic Jacobian of a domain self-map in the ``w_ij`` coordinates.

    Only the ``n(n+1)/2`` coordinates ``w_ij`` are stepped: ``mapping`` is
    called once, on the stack of the stencil's ``W`` matrices (shape
    ``(n(n+1)/2, 4, n, n)``, steps as in :func:`holomorphic_jacobian`), and
    returns their images as a stack of the same shape, as
    :func:`symplectic.moebius` does.  The result is the ``w`` block of
    :func:`holomorphic_jacobian` of the map lifted with ``z = 0``, bit for
    bit.
    """
    n = w.shape[0]
    x = CSPoint(z=np.zeros(n, dtype=complex), W=w)

    def lifted(pt: CSPoint) -> CSPoint:
        image = np.asarray(mapping(pt.W))
        return CSPoint(z=np.zeros(image.shape[:-1], dtype=complex), W=image)

    return _stencil_jacobian(lifted, x, first=n)[n:]
