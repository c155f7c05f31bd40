"""Truncated single-mode Fock space: brute-force ground truth.

Every analytic identity of the package (displacement composition, squeeze
disentangling, the squeezed-vacuum relation, the conjugation equations, the
orbit map and its multiplier, the reproducing kernel) can be checked on the
span of the number states |0>..|N>.  The single-mode realization
``Kp = a+ a+ / 2``, ``Km = a a / 2``, ``K0 = (a+ a + a a+) / 4`` has vacuum
weight 1/4, so the oracle pins the representation index to k = 1.

Every exponential is one routine, ``_expm_apply``: the action of
``exp(G)`` on a vector or a block of columns through the generator's few
nonzero diagonals, so no ``(N+1)^2`` matrix is formed to exponentiate.  The
operators (:func:`displacement`, :func:`squeeze`,
:func:`squeeze_from_generator`, :func:`s_of_g`) are their actions: each
takes a vector or a block of columns over |0>..|N>, reads the cutoff from
its length, and applies its ordered product of exponentials, with the
vacuum as one more column for its tail guard; ``np.eye(N + 1)`` gives the
operator.  The states (:func:`squeezed_vacuum`, :func:`check_lemma6`,
:func:`mm1_residual`, :func:`squeezed_vacuum_convention`) apply them to one
vector, :func:`check_hpb` to the leading basis columns it reads, and the
orbit vectors of :func:`cs_vector` and :func:`oracle_kernel` sum their
series on one vector.

The ladder and quadratic generators are built once per cutoff and returned
read-only.  Operators have one route each here; their second routes are
records of :func:`siegeljacobi.verify.suite_oracle`.

Accuracy is certified by cutoff doubling rather than a priori bounds: all
checks report a residual that must shrink when N grows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CutoffTooSmall
from .jacobi import CSPoint, JacobiElement, alpha_action, alpha_action_inv, lambda_cocycle
from .symplectic import SpElement, cartan_decompose, cartan_synthesize

__all__ = [
    "FockVec",
    "ladder",
    "number_ops",
    "displacement",
    "squeeze",
    "squeeze_from_generator",
    "cs_vector",
    "vacuum",
    "squeezed_vacuum",
    "s_of_g",
    "check_lemma6",
    "check_hpb",
    "oracle_kernel",
    "mm1_residual",
    "squeezed_vacuum_convention",
]

TAIL_FRACTION = 0.9
TAIL_THRESHOLD = 1e-8
SERIES_TERMS = 400  # cap on the orbit-vector series; it converges far sooner
TAYLOR_DEGREE = 18  # 1/19! < 1e-17: one step's truncation at unit norm


@dataclass(frozen=True)
class FockVec:
    """State vector over |0>..|N> with truncation-tail accounting."""

    cutoff: int
    amps: np.ndarray

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    @property
    def tail_mass(self) -> float:
        """Probability mass above ``TAIL_FRACTION * cutoff``."""
        start = int(TAIL_FRACTION * self.cutoff)
        return float(np.sum(np.abs(self.amps[start:]) ** 2))


@functools.cache
def _generators(cutoff: int) -> dict:
    """``a, ad, kp, km, k0`` at one cutoff, read-only, with their diagonals.

    Returns ``{name: (matrix, offset, diagonal)}``: each generator has one
    nonzero diagonal, ``matrix[i, i + offset]``.
    """
    if cutoff < 2:
        raise ValueError("cutoff must be at least 2")
    a = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    for m in range(1, cutoff + 1):
        a[m - 1, m] = np.sqrt(m)
    ad = a.conj().T
    ops = {
        "a": (a, 1),
        "ad": (ad, -1),
        "kp": (0.5 * ad @ ad, -2),
        "km": (0.5 * a @ a, 2),
        "k0": (0.25 * (ad @ a + a @ ad), 0),
    }
    out = {}
    for name, (mat, offset) in ops.items():
        diag = np.diagonal(mat, offset).copy()
        mat.setflags(write=False)
        diag.setflags(write=False)
        out[name] = (mat, offset, diag)
    return out


def ladder(cutoff: int):
    """Annihilation and creation matrices: ``a |m> = sqrt(m) |m-1>``.

    Built once per cutoff; the arrays are read-only.
    """
    ops = _generators(cutoff)
    return ops["a"][0], ops["ad"][0]


def number_ops(cutoff: int):
    """The quadratic generators ``(Kp, Km, K0)`` in the truncated basis.

    Built once per cutoff; the arrays are read-only.
    """
    ops = _generators(cutoff)
    return ops["kp"][0], ops["km"][0], ops["k0"][0]


def _banded(cutoff: int, **coeffs) -> dict:
    """``sum coeff * op`` over named generators as ``{offset: diagonal}``;
    no two generators share an offset."""
    ops = _generators(cutoff)
    return {ops[name][1]: coeff * ops[name][2] for name, coeff in coeffs.items()}


def _column(diag: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``diag`` shaped to broadcast along the columns of ``v``, a vector or
    a block of columns."""
    return diag if v.ndim == 1 else diag[:, None]


def _band_matvec(gen: dict, v: np.ndarray) -> np.ndarray:
    """``G @ v`` for a banded ``G = {offset: diagonal}`` and a vector or a
    block of columns ``v``; each diagonal is shaped by :func:`_column`."""
    out = np.zeros(v.shape, dtype=complex)
    for offset, diag in gen.items():
        if offset >= 0:
            out[: len(v) - offset] += diag * v[offset:]
        else:
            out[-offset:] += diag * v[:offset]
    return out


def _expm_apply(gen: dict, v: np.ndarray) -> np.ndarray:
    """``expm(G) @ v`` for a banded generator ``G = {offset: diagonal}`` and
    a vector or a block of columns ``v``: the package's one exponential.

    A diagonal ``G`` is an elementwise multiply.  Otherwise ``ceil(||G||_1)``
    steps of the degree-``TAYLOR_DEGREE`` Taylor polynomial of ``G / steps``
    (the exponential action of Al-Mohy and Higham, SIAM J. Sci. Comput. 33,
    2011, at a fixed degree).
    """
    if gen.keys() == {0}:
        return _column(np.exp(gen[0]), v) * v
    n = len(v)
    colsum = np.zeros(n)
    for offset, diag in gen.items():
        if offset >= 0:
            colsum[offset:] += np.abs(diag)
        else:
            colsum[: n + offset] += np.abs(diag)
    steps = max(1, math.ceil(colsum.max()))
    # the factor 1 / (steps * j) of Taylor term j rides on the diagonals,
    # shaped for v's columns once per call
    scaled = [{off: _column(diag / (steps * j), v) for off, diag in gen.items()}
              for j in range(1, TAYLOR_DEGREE + 1)]
    for _ in range(steps):
        term = v
        for gen_j in scaled:
            term = _band_matvec(gen_j, term)
            v = v + term
    return v


def vacuum(cutoff: int) -> FockVec:
    v = np.zeros(cutoff + 1, dtype=complex)
    v[0] = 1.0
    return FockVec(cutoff, v)


def _product(factors: list, v: np.ndarray) -> np.ndarray:
    """``exp(G_m) ... exp(G_1) v`` on a vector or a block of columns ``v``
    over |0>..|N>, the generators ``factors = [G_1, ..., G_m]`` given as
    :func:`_banded` coefficients in the order they act (rightmost first)."""
    for coeffs in factors:
        v = _expm_apply(_banded(len(v) - 1, **coeffs), v)
    return v


def _guarded(factors: list, v: np.ndarray, what: str) -> np.ndarray:
    """An operator's :func:`_product` with its guard: the vacuum acts as one
    more column of ``v``, and :class:`CutoffTooSmall` is raised if its image
    has more than ``TAIL_THRESHOLD`` absolute tail mass."""
    cutoff = len(v) - 1
    out = _product(factors, np.column_stack([v, vacuum(cutoff).amps]))
    tail = FockVec(cutoff, out[:, -1]).tail_mass
    if tail > TAIL_THRESHOLD:
        raise CutoffTooSmall(f"{what} tail mass {tail:.2e} at cutoff {cutoff}")
    return out[:, :-1].reshape(v.shape)


def displacement(alpha: complex, v: np.ndarray) -> np.ndarray:
    """Displacement operator ``exp(alpha a+ - conj(alpha) a)`` applied to
    ``v``, a vector or a block of columns over |0>..|N> (``np.eye(N + 1)``
    gives the operator).

    Raises
    ------
    CutoffTooSmall
        If the displaced vacuum leaks too much mass into the tail.
    """
    return _guarded([{"ad": alpha, "a": -np.conj(alpha)}], v,
                    f"displacement by |alpha|={abs(alpha)}")


def squeeze(w: complex, v: np.ndarray) -> np.ndarray:
    """Bogoliubov operator for a domain point ``|w| < 1`` applied to ``v``,
    a vector or a block of columns over |0>..|N>.

    Acts as ``exp(w Kp) exp(eta K0) exp(-conj(w) Km)`` with
    ``eta = log(1 - |w|^2)``; raises :class:`CutoffTooSmall` if the
    squeezed vacuum leaks too much mass into the tail.
    """
    if abs(w) >= 1:
        raise ValueError("need |w| < 1")
    eta = np.log(1 - abs(w) ** 2)
    return _guarded([{"km": -np.conj(w)}, {"k0": eta}, {"kp": w}], v,
                    f"squeeze by |w|={abs(w)}")


def squeezed_vacuum(w: complex, cutoff: int) -> FockVec:
    """``S(w)|0>``: :func:`squeeze` on the vacuum, whose factor
    ``exp(-conj(w) Km)`` leaves it as it is (``Km|0> = 0``)."""
    return FockVec(cutoff, squeeze(w, vacuum(cutoff).amps))


def squeeze_from_generator(zeta: complex, v: np.ndarray) -> np.ndarray:
    """One-parameter form ``exp(zeta Kp - conj(zeta) Km)`` applied to ``v``,
    with :func:`squeeze`'s guard."""
    return _guarded([{"kp": zeta, "km": -np.conj(zeta)}], v, f"squeeze by |zeta|={abs(zeta)}")


def cs_vector(z: complex, w: complex, cutoff: int) -> FockVec:
    """Un-normalized orbit vector ``exp(z a+ + w Kp)|0>`` by series summation.

    Raises
    ------
    CutoffTooSmall
        If the tail mass fraction exceeds the module threshold.
    """
    if abs(w) >= 1:
        raise ValueError("need |w| < 1")
    x = _banded(cutoff, ad=z, kp=w)
    vec = vacuum(cutoff).amps
    out = vec.copy()
    term = vec.copy()
    for kterm in range(1, SERIES_TERMS):
        term = _band_matvec(x, term) / kterm
        out += term
        if np.linalg.norm(term) < 1e-18:
            break
    result = FockVec(cutoff, out)
    if result.tail_mass > TAIL_THRESHOLD * result.norm**2:
        raise CutoffTooSmall(
            f"orbit vector tail mass {result.tail_mass:.2e} at cutoff {cutoff}"
        )
    return result


def s_of_g(g: SpElement, v: np.ndarray) -> np.ndarray:
    """Metaplectic-type lift of a 1x1 group element applied to ``v``, with
    :func:`squeeze`'s guard.

    The Cartan factors ``(zeta, u)`` of ``g`` give
    ``S(g) = exp(zeta Kp - conj(zeta) Km) exp(2 log(u) K0)``; the principal
    logarithm fixes the lift, consistently with the closed-form multiplier
    for elements near the identity.
    """
    zeta, u = _cartan_params(g)
    return _guarded([{"k0": 2 * np.log(u)}, {"kp": zeta, "km": -np.conj(zeta)}], v,
                    f"lift by |zeta|={abs(zeta)}")


def _cartan_params(g: SpElement) -> tuple:
    """The Cartan factors ``(zeta, v)`` of a 1x1 group element."""
    if g.n != 1:
        raise ValueError("the oracle is single mode (n = 1)")
    fac = cartan_decompose(g)
    return complex(fac.z[0, 0]), complex(fac.v[0, 0])


def check_lemma6(alpha: complex, w: complex, cutoff: int) -> float:
    """Residual of the squeezed-vector relation.

    ``D(alpha) S(w)|0>`` must equal
    ``(1 - w wbar)^{1/4} exp(-conj(alpha) z / 2) e_{z,w}`` with
    ``z = alpha - w conj(alpha)`` (single mode, k = 1).
    """
    lhs = displacement(alpha, squeezed_vacuum(w, cutoff).amps)
    z = alpha - w * np.conj(alpha)
    rhs = (
        (1 - w * np.conj(w)) ** 0.25
        * np.exp(-0.5 * np.conj(alpha) * z)
        * cs_vector(z, w, cutoff).amps
    )
    return float(np.linalg.norm(lhs - rhs))


def check_hpb(zeta: complex, alpha: complex, cutoff: int) -> float:
    """Max residual of the conjugation equations at one parameter point.

    For the hyperbolic element ``g = cartan_synthesize([[zeta]], 1)`` with
    blocks ``(m, n) = (cosh|zeta|, zeta sinh|zeta| / |zeta|)``, checks on the
    lower quarter of the truncated basis, applying each operator to those
    basis columns:

    * ``S^-1 a S = m a + n a+``
    * ``D(alpha) S = S D(beta)`` with ``beta = g^-1 . alpha``
      (:func:`siegeljacobi.jacobi.alpha_action_inv`)
    * ``S D(alpha) S^-1 = D(g . alpha)``
      (:func:`siegeljacobi.jacobi.alpha_action`).
    """
    a, ad = ladder(cutoff)
    g = cartan_synthesize(np.array([[zeta]]), np.eye(1))
    m, n = complex(g.a[0, 0]), complex(g.b[0, 0])
    alpha_v = np.array([alpha], dtype=complex)
    beta = complex(alpha_action_inv(g, alpha_v)[0])
    deep = cutoff // 4  # conjugation products touch the corner above this
    cols = np.eye(cutoff + 1, deep, dtype=complex)
    annihilate = {off: _column(diag, cols) for off, diag in _banded(cutoff, a=1.0).items()}

    # with E = cols, each squeeze acts once on the blocks it shares: S on
    # [E, D(beta) E], then S^-1 on [a S E, E]
    s_cols, s_d_beta = np.hsplit(
        squeeze_from_generator(zeta, np.hstack([cols, displacement(beta, cols)])), 2)
    sinv_a_s, sinv_cols = np.hsplit(
        squeeze_from_generator(-zeta, np.hstack([_band_matvec(annihilate, s_cols), cols])), 2)

    res = np.abs(sinv_a_s[:deep] - (m * a + n * ad)[:deep, :deep]).max()
    res = max(res, np.abs((displacement(alpha, s_cols) - s_d_beta)[:deep]).max())
    lhs = squeeze_from_generator(zeta, displacement(alpha, sinv_cols))
    rhs = displacement(complex(alpha_action(g, alpha_v)[0]), cols)
    res = max(res, np.abs((lhs - rhs)[:deep]).max())
    return float(res)


def oracle_kernel(x: CSPoint, y: CSPoint, cutoff: int) -> complex:
    """Truncated inner product ``(e_x, e_y)``, conjugate-linear in ``x``."""
    if x.n != 1 or y.n != 1:
        raise ValueError("the oracle is single mode (n = 1)")
    vx = cs_vector(complex(x.z[0]), complex(x.W[0, 0]), cutoff)
    vy = cs_vector(complex(y.z[0]), complex(y.W[0, 0]), cutoff)
    return complex(np.vdot(vx.amps, vy.amps))


def mm1_residual(g: SpElement, alpha: complex, z: complex, w: complex, cutoff: int):
    """End-to-end orbit check ``S(g) D(alpha) e_{z,w} = lambda e_{z1,w1}``.

    The right-hand side uses the closed-form multiplier and image point at
    k = 1.  Returns ``(residual, data)`` with the cocycle data; this single
    check arbitrates every convention flag in the package.
    """
    x = CSPoint(z=np.array([z]), W=np.array([[w]]))
    h = JacobiElement(g=g, alpha=np.array([alpha]), t=0.0)
    data = lambda_cocycle(h, x, 1, unchecked_branch=True)
    lhs = s_of_g(g, displacement(alpha, cs_vector(z, w, cutoff).amps))
    rhs = data.lam * cs_vector(complex(data.z1[0]), complex(data.W1[0, 0]), cutoff).amps
    return float(np.linalg.norm(lhs - rhs)), data


def squeezed_vacuum_convention(w: complex, cutoff: int):
    """Probe which reading of the orbit-vector argument matches ``S(w)|0>``.

    Returns residuals ``{"plain": r0, "rotated": r1}`` for
    ``(1-|w|^2)^{1/4} exp(w Kp)|0>`` versus the same with ``w/i`` in the
    exponent.  The plain reading is the one used throughout the package.
    """
    lhs = squeezed_vacuum(w, cutoff).amps
    pref = (1 - abs(w) ** 2) ** 0.25
    plain = pref * cs_vector(0.0, w, cutoff).amps
    rotated = pref * cs_vector(0.0, w / 1j, cutoff).amps
    return {
        "plain": float(np.linalg.norm(lhs - plain)),
        "rotated": float(np.linalg.norm(lhs - rotated)),
    }
