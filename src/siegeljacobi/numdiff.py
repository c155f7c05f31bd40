"""Finite-difference oracles for the closed-form geometry.

Mixed Wirtinger Hessians and holomorphic Jacobians in the independent
coordinates of C^n x D_n.  These are deliberately independent of the closed
forms they validate: plain central differences on the real and imaginary
parts of each coordinate.

Each oracle evaluates its whole stencil in one call: the function it
differentiates receives a stacked :class:`CSPoint` and returns results of
the stack's leading shape, as :func:`jacobi.kahler_potential`,
:func:`jacobi.act` and :func:`matfun.logdet_hpd` do.  The Hessian's stack
holds the 64 points of each coordinate pair ``a <= b`` once (192 / 960 /
2880 points at n = 1 / 2 / 3): both Wirtinger derivatives step by the same
offsets, so the points of entry ``(b, a)`` are those of ``(a, b)`` with the
two steps swapped, bit for bit.  A Jacobian's stack holds four points per
stepped coordinate (20 at n = 2; 12 for :func:`w_jacobian`, which steps the
``w_ij`` only).
"""

from __future__ import annotations

import numpy as np

from .jacobi import CSPoint, cs_coords, cs_from_coords

__all__ = ["wirtinger_hessian", "holomorphic_jacobian", "w_jacobian"]


def _wirtinger_steps(h: float, conjugate: bool):
    """Fourth-order stencil for d/dxi (or d/dxibar) as (offset, weight) pairs."""
    real = [(-2 * h, 1 / 12), (-h, -8 / 12), (h, 8 / 12), (2 * h, -1 / 12)]
    sign = 1j if conjugate else -1j
    steps = [(off, w / (2 * h)) for off, w in real]
    steps += [(1j * off, sign * w / (2 * h)) for off, w in real]
    return steps


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


def wirtinger_hessian(fun, x: CSPoint, h: float = 5e-4) -> np.ndarray:
    """Mixed Hessian ``H_ab = d^2 f / dxi_a dxibar_b`` of a real function.

    Both Wirtinger derivatives use fourth-order central stencils in the real
    and imaginary directions (64 evaluations per entry), so the truncation
    error is O(h^4) and stays far below the closed forms it validates.

    ``fun`` is called once, on the stacked :class:`CSPoint` of the
    ``64 dim (dim+1)/2`` stencil points of the pairs ``a <= b`` (leading shape
    ``(dim (dim+1)/2, 8, 8)``: the pair in the order of ``np.triu_indices``,
    then the steps in coordinates ``a`` and ``b``), and returns the real
    values as an array of that leading shape.

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
    dim = len(base)
    steps_a = _wirtinger_steps(h, conjugate=False)
    steps_b = _wirtinger_steps(h, conjugate=True)
    offsets = np.array([off for off, _ in steps_a])  # also the offsets of steps_b
    weights = np.array([[wa * wb for _, wb in steps_b] for _, wa in steps_a])
    rows, cols = np.triu_indices(dim)
    lead = (len(rows), len(steps_a), len(steps_b))
    stack = np.broadcast_to(base, lead + (dim,)).copy()
    pair = np.arange(len(rows))
    stack[pair, :, :, rows] += offsets[:, None]
    stack[pair, :, :, cols] += offsets
    vals = np.asarray(fun(cs_from_coords(stack, x.n)))
    if vals.shape != lead:
        raise ValueError(f"fun returned shape {vals.shape}, expected {lead}")
    if np.iscomplexobj(vals):
        raise ValueError("fun returned complex values, expected real ones")
    off = rows != cols
    blocks = np.concatenate([vals, vals[off].swapaxes(1, 2)])
    entries = (np.concatenate([rows, cols[off]]), np.concatenate([cols, rows[off]]))
    out = np.empty((dim, dim), dtype=complex)
    out.real[entries], out.imag[entries] = _contract(weights, blocks)
    return out


def _stencil_jacobian(mapping, x: CSPoint, h: float, first: int) -> np.ndarray:
    """Columns ``first, first + 1, ...`` of :func:`holomorphic_jacobian`.

    Only coordinates from ``first`` on are stepped, so ``mapping`` is called
    once on a stack of leading shape ``(dim - first, 4)``.
    """
    base = cs_coords(x)
    steps = np.array([h, -h, 1j * h, -1j * h])
    coord = np.arange(first, len(base))
    lead = (len(coord), len(steps))
    stack = np.broadcast_to(base, lead + base.shape).copy()
    stack[coord - first, :, coord] += steps
    cols = cs_coords(mapping(cs_from_coords(stack, x.n)))
    if cols.shape[:-1] != lead:
        raise ValueError(f"mapping returned leading shape {cols.shape[:-1]}, expected {lead}")
    d_re = (cols[:, 0] - cols[:, 1]) / (2 * h)
    d_im = (cols[:, 2] - cols[:, 3]) / (2 * h)
    return (0.5 * (d_re - 1j * d_im)).T


def holomorphic_jacobian(mapping, x: CSPoint, h: float = 1e-6) -> np.ndarray:
    """Jacobian ``J_ab = d (mapping coords)_a / d xi_b`` by complex stencils.

    The mapping must be holomorphic; the anti-holomorphic part of the
    stencil is discarded (and is O(h) small for holomorphic maps).

    ``mapping`` is called once, on the stacked :class:`CSPoint` of the
    ``4 dim`` stencil points (leading shape ``(dim, 4)``: the coordinate
    ``b``, then the steps ``h, -h, ih, -ih`` in it), and returns the stacked
    image points, a :class:`CSPoint` of the same leading shape.  Each entry
    is computed from the same values in the same arithmetic as with a call
    of ``mapping`` per point.
    """
    return _stencil_jacobian(mapping, x, h, first=0)


def w_jacobian(mapping, w: np.ndarray, h: float = 1e-6) -> np.ndarray:
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

    return _stencil_jacobian(lifted, x, h, first=n)[n:]
