"""Finite-difference oracles for the closed-form geometry.

Mixed Wirtinger Hessians and holomorphic Jacobians in the independent
coordinates of C^n x D_n.  These are deliberately independent of the closed
forms they validate: plain central differences on the real and imaginary
parts of each coordinate.

:func:`wirtinger_hessian` evaluates its whole stencil in one call: the
function it differentiates receives a stacked :class:`CSPoint` and returns an
array of the stack's leading shape, as :func:`jacobi.kahler_potential` and
:func:`matfun.logdet_hpd` do.  The stack holds the 64 points of each
coordinate pair ``a <= b`` once (192 / 960 / 2880 points at n = 1 / 2 / 3):
both Wirtinger derivatives step by the same offsets, so the points of entry
``(b, a)`` are those of ``(a, b)`` with the two steps swapped, bit for bit.
The Jacobians map one point at a time.
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


def _contract(weights, block):
    """``sum_i sum_j weights[i][j] * block[i][j]``, accumulated in that order."""
    acc = 0j
    for wrow, frow in zip(weights, block):
        for w, f in zip(wrow, frow):
            acc += w * f
    return acc


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
    weights = [[wa * wb for _, wb in steps_b] for _, wa in steps_a]
    rows, cols = np.triu_indices(dim)
    lead = (len(rows), len(steps_a), len(steps_b))
    stack = np.broadcast_to(base, lead + (dim,)).copy()
    pair = np.arange(len(rows))
    stack[pair, :, :, rows] += offsets[:, None]
    stack[pair, :, :, cols] += offsets
    vals = np.asarray(fun(cs_from_coords(stack, x.n)))
    if vals.shape != lead:
        raise ValueError(f"fun returned shape {vals.shape}, expected {lead}")
    out = np.empty((dim, dim), dtype=complex)
    for a, b, block in zip(rows.tolist(), cols.tolist(), vals.tolist()):
        out[a, b] = _contract(weights, block)
        if a != b:
            out[b, a] = _contract(weights, zip(*block))
    return out


def holomorphic_jacobian(mapping, x: CSPoint, h: float = 1e-6) -> np.ndarray:
    """Jacobian ``J_ab = d (mapping coords)_a / d xi_b`` by complex stencils.

    The mapping must be holomorphic; the anti-holomorphic part of the
    stencil is discarded (and is O(h) small for holomorphic maps).
    """
    base = cs_coords(x)
    n = x.n
    dim = len(base)
    out = np.zeros((dim, dim), dtype=complex)
    for b in range(dim):
        cols = []
        for step in (h, -h, 1j * h, -1j * h):
            vec = base.copy()
            vec[b] += step
            cols.append(cs_coords(mapping(cs_from_coords(vec, n))))
        d_re = (cols[0] - cols[1]) / (2 * h)
        d_im = (cols[2] - cols[3]) / (2 * h)
        out[:, b] = 0.5 * (d_re - 1j * d_im)
    return out


def w_jacobian(mapping, w: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Holomorphic Jacobian of a domain self-map in the ``w_ij`` coordinates."""
    n = w.shape[0]
    x = CSPoint(z=np.zeros(n, dtype=complex), W=w)

    def lifted(pt: CSPoint) -> CSPoint:
        return CSPoint(z=np.zeros(n, dtype=complex), W=mapping(pt.W))

    full = holomorphic_jacobian(lifted, x, h=h)
    return full[n:, n:]
