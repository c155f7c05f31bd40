"""Seeded input generator for the benchmark workloads.

Every input the library receives is drawn here from the workload seed, so
the same seed gives the same inputs.  The library modules are only used to
assemble group elements from generated generators (Cartan synthesis), which
is part of set-up and never timed.

Each generator carries a one-line ``WHY`` reason for its input distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from siegeljacobi import symplectic
from siegeljacobi.jacobi import CSPoint, JacobiElement

#: Closed-form primitives of the pointwise stream, in a fixed order.
POINTWISE_PRIMS = (
    "kernel",
    "kahler_potential",
    "kahler_form",
    "act",
    "lambda_cocycle",
    "lambda_cocycle_ez",
    "density",
    "jacobi_compose",
)
DIMS = (1, 2, 3)
K_GEOMETRY = (2, 3, 4, 5, 6)  # kernel, potential, form: odd k exercises the branch
K_COCYCLE = (2, 4, 6)  # the cocycles require an even index
NEAR_BOUNDARY_SHARE = 0.1
CYCLES_PER_ROUND = 32  # a pointwise round is 32 x 24 calls, about 120 ms
POOL_ROUNDS = 4  # pointwise rounds generated in set-up and cycled through
FD_POOL_ROUNDS = 32
FD_K = 4.0

@dataclass(frozen=True)
class Op:
    """One call of the workload: what to call, its dimension and arguments."""

    kind: str
    n: int
    args: tuple


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *stream]))


def _symmetric(n: int, rng) -> np.ndarray:
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (m + m.T)


def random_point(n: int, rng, z_cap: float, w_norm: float) -> CSPoint:
    """Point with ``|z_i| <= z_cap`` and ``W`` of spectral norm exactly ``w_norm``."""
    z = z_cap * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))
    w = _symmetric(n, rng)
    w = w * (w_norm / max(np.linalg.norm(w, 2), 1e-12))
    return CSPoint(z=z, W=w)


def random_element(n: int, rng, cap: float) -> JacobiElement:
    """Element with ``|alpha_i| <= cap``, generator norm <= cap, Haar unitary part."""
    alpha = cap * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))
    zgen = _symmetric(n, rng)
    zgen = zgen * (cap * math.sqrt(rng.uniform()) / max(np.linalg.norm(zgen, 2), 1e-12))
    q = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    v, r = np.linalg.qr(q)
    v = v * (np.diag(r) / np.abs(np.diag(r)))
    return JacobiElement(
        g=symplectic.cartan_synthesize(zgen, v), alpha=alpha, t=float(rng.normal())
    )


def _pointwise_point(n: int, rng) -> CSPoint:
    if rng.uniform() < NEAR_BOUNDARY_SHARE:
        w_norm = rng.uniform(0.9, 0.999)
    else:
        w_norm = 0.8 * math.sqrt(rng.uniform())
    return random_point(n, rng, 0.8, w_norm)


def _pointwise_op(prim: str, n: int, rng) -> Op:
    x = _pointwise_point(n, rng)
    if prim == "kernel":
        args = (x, _pointwise_point(n, rng), float(rng.choice(K_GEOMETRY)))
    elif prim in ("kahler_potential", "kahler_form"):
        args = (x, float(rng.choice(K_GEOMETRY)))
    elif prim == "act":
        args = (random_element(n, rng, 0.5), x)
    elif prim in ("lambda_cocycle", "lambda_cocycle_ez"):
        args = (random_element(n, rng, 0.5), x, int(rng.choice(K_COCYCLE)))
    elif prim == "density":
        args = (x,)
    elif prim == "jacobi_compose":
        args = (random_element(n, rng, 0.5), random_element(n, rng, 0.5))
    else:
        raise ValueError(prim)
    return Op(prim, n, args)


def pointwise_pool(seed: int, rounds: int = POOL_ROUNDS) -> list:
    """Rounds of single closed-form calls: shuffled cycles through all 24
    (primitive, n) pairs, ``CYCLES_PER_ROUND`` cycles per round.

    WHY: the scalar path as users call it; 10 % of points sit near the
    boundary and k includes odd values, the regime of the open log-det
    branch defect, so ``error_rate`` shows it instead of hiding it.
    """
    rng = _rng(seed, 1)
    pool = []
    for _ in range(rounds):
        ops = []
        for _ in range(CYCLES_PER_ROUND):
            cycle = [_pointwise_op(p, n, rng) for p in POINTWISE_PRIMS for n in DIMS]
            ops.extend(cycle[i] for i in rng.permutation(len(cycle)))
        pool.append(ops)
    return pool


def fd_pool(seed: int, rounds: int = FD_POOL_ROUNDS) -> list:
    """Rounds of three oracle certifications, at n = 1, 2 and 3.

    WHY: the ranges of the Kahler-consistency acceptance criterion
    (``|z| <= 0.5``, ``||W|| <= 0.6``, k = 4), where the 1e-5 finite-difference
    tolerance is meant to hold; equal shares of n keep each round's work fixed.
    """
    rng = _rng(seed, 2)
    pool = []
    for _ in range(rounds):
        ops = []
        for n in DIMS:
            x = random_point(n, rng, 0.5, 0.6 * math.sqrt(rng.uniform()))
            h = random_element(n, rng, 0.3) if n == 2 else None
            ops.append(Op("certify", n, (x, FD_K, h)))
        pool.append(ops)
    return pool


def verify_seed(seed: int, index: int) -> int:
    """Report seed of the ``index``-th ``verify all`` op.

    WHY: the full user-facing report; its work is fixed by the suites'
    sample counts, so only the random draws inside the checks vary.
    """
    return int(np.random.SeedSequence([seed, 4, index]).generate_state(1)[0] % (1 << 31))
