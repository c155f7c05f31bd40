"""The real symplectic group in its complex block realization.

A group element is stored by its top block row ``(a, b)`` of the 2n x 2n
matrix ``[[a, b], [conj(b), conj(a)]]`` acting on the bounded symmetric
domain D_n of symmetric complex matrices with ``1 - W W* > 0``.  The module
provides membership checks, the inverse and block product, Gauss and Cartan
factorizations, the coordinate maps between the off-diagonal generator Z and
the domain point W, the linear-fractional action, the two-point composition
law on the domain, the automorphy factor of the coherent-state kernel, the
invariant volume density, and the normalization constants of the weighted
Bergman inner product.  The kernel ``det(1 - W' W*)^{-k/2}`` itself is
:func:`siegeljacobi.jacobi.kernel` at ``z = 0``, and the invariant two-form
is the ``W`` block of :func:`siegeljacobi.jacobi.kahler_form` there.

Each formula is evaluated by one closed form; the independent routes that
cross-check them (second closed forms, group closure) run in
:mod:`siegeljacobi.verify`, not on every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matfun
from .errors import DomainViolation, NotSymplectic, OutOfDomain, Singular
from .matfun import DEFAULT_TOL, as_cmat, detpow

__all__ = [
    "SpElement",
    "GaussFactors",
    "CartanFactors",
    "sp_new",
    "sp_identity",
    "sp_inverse",
    "sp_compose",
    "gauss_decompose",
    "gauss_reassemble",
    "cartan_decompose",
    "cartan_synthesize",
    "sp_of",
    "w_of_z",
    "z_of_w",
    "siegel_eta",
    "moebius",
    "ball_compose",
    "multiplier",
    "sp_density",
    "jn",
    "lambda1",
    "wallach_admissible",
    "sp_random",
    "random_siegel_point",
    "sym_index_pairs",
]


#: How far a weight ``k`` may lie from an integer and still count as that
#: integer, in :func:`wallach_admissible` and the even-``k`` branch check.
_INT_TOL = 1e-12


@dataclass(frozen=True)
class SpElement:
    """Group element stored as the complex block pair ``(a, b)``."""

    a: np.ndarray
    b: np.ndarray

    @property
    def n(self) -> int:
        return self.a.shape[0]

    def as_block_matrix(self) -> np.ndarray:
        """The full 2n x 2n matrix ``[[a, b], [conj b, conj a]]``."""
        return np.block([[self.a, self.b], [self.b.conj(), self.a.conj()]])

    def to_json(self) -> dict:
        return {"a": matfun.mat_to_json(self.a), "b": matfun.mat_to_json(self.b)}

    @staticmethod
    def from_json(d: dict, tol: float = DEFAULT_TOL) -> "SpElement":
        return sp_new(matfun.mat_from_json(d["a"]), matfun.mat_from_json(d["b"]), tol)


@dataclass(frozen=True)
class GaussFactors:
    """Triangular-diagonal-triangular factorization data.

    ``y`` and ``yp`` are the symmetric upper/lower coordinates, ``gamma`` and
    ``delta`` the diagonal blocks; the reassembled product returns the element.
    """

    y: np.ndarray
    yp: np.ndarray
    gamma: np.ndarray
    delta: np.ndarray


@dataclass(frozen=True)
class CartanFactors:
    """Polar-type factorization: symmetric generator ``z`` and unitary ``v``."""

    z: np.ndarray
    v: np.ndarray


def membership_residual(a: np.ndarray, b: np.ndarray) -> float:
    """Worst residual of the four block identities defining the group."""
    eye = matfun.eye(a.shape[0])
    return max(
        np.linalg.norm(a @ a.conj().T - b @ b.conj().T - eye),
        np.linalg.norm(a @ b.T - b @ a.T),
        np.linalg.norm(a.conj().T @ a - b.T @ b.conj() - eye),
        np.linalg.norm(a.T @ b.conj() - b.conj().T @ a),
    )


def sp_new(a, b, tol: float = DEFAULT_TOL) -> SpElement:
    """Validate the block pair and build an :class:`SpElement`.

    Raises
    ------
    NotSymplectic
        With the worst residual if any of the four block identities fails.
    """
    a = as_cmat(a)
    b = as_cmat(b)
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise NotSymplectic("blocks must be square and of equal size")
    res = membership_residual(a, b)
    if res > tol:
        raise NotSymplectic(f"membership residual {res:.3e} exceeds tol {tol:.1e}")
    return SpElement(a=a, b=b)


def sp_identity(n: int) -> SpElement:
    return SpElement(a=np.eye(n, dtype=complex), b=np.zeros((n, n), dtype=complex))


def sp_inverse(g: SpElement) -> SpElement:
    """Inverse element; blocks are ``(a*, -b^T)``."""
    return SpElement(a=g.a.conj().T, b=-g.b.T)


def sp_compose(g1: SpElement, g2: SpElement) -> SpElement:
    """Block product of two elements."""
    if g1.n != g2.n:
        raise NotSymplectic("dimension mismatch")
    a = g1.a @ g2.a + g1.b @ g2.b.conj()
    b = g1.a @ g2.b + g1.b @ g2.a.conj()
    return SpElement(a=a, b=b)


def _inv(m: np.ndarray, what: str) -> np.ndarray:
    try:
        return matfun.inv(m)
    except np.linalg.LinAlgError as exc:
        raise Singular(f"{what} is singular") from exc


def gauss_decompose(g: SpElement) -> GaussFactors:
    """Triangular factorization coordinates.

    ``y = b conj(a)^-1``, ``y' = conj(a)^-1 conj(b)``, ``delta = conj(a)``,
    ``gamma = (a*)^-1``; additionally ``1 - y y* = (a a*)^-1 > 0``.
    """
    abar_inv = _inv(g.a.conj(), "conj(a)")
    y = g.b @ abar_inv
    yp = abar_inv @ g.b.conj()
    gamma = _inv(g.a.conj().T, "a*")
    delta = g.a.conj()
    return GaussFactors(y=y, yp=yp, gamma=gamma, delta=delta)


def gauss_reassemble(f: GaussFactors) -> SpElement:
    """Multiply the three Gauss factors back into block form."""
    a = f.gamma + f.y @ f.delta @ f.yp
    b = f.y @ f.delta
    return SpElement(a=a, b=b)


def cartan_decompose(g: SpElement) -> CartanFactors:
    """Polar-type factorization ``g = exp([[0, z], [zbar, 0]]) diag(v, vbar)``.

    The symmetric generator is the inverse hyperbolic-tangent map of the
    Gauss coordinate ``y = b conj(a)^-1`` and the unitary part is
    ``v = (1 - y y*)^{1/2} a``.

    Raises
    ------
    DomainViolation
        If ``y`` has norm >= 1 (the element is numerically outside the group).
    """
    abar_inv = _inv(g.a.conj(), "conj(a)")
    y = g.b @ abar_inv
    h = y @ y.conj().T
    if np.linalg.eigvalsh(h).max() >= 1.0:
        raise DomainViolation("Gauss coordinate has norm >= 1")
    z = matfun.herm_func(h, matfun.arctanhc_of_sqrt) @ y
    v = matfun.herm_func(h, lambda t: np.sqrt(np.maximum(1.0 - t, 0.0))) @ g.a
    return CartanFactors(z=0.5 * (z + z.T), v=v)


def cartan_synthesize(z: np.ndarray, v: np.ndarray) -> SpElement:
    """Assemble an element from Cartan data: ``a = m v``, ``b = n conj(v)``."""
    m, n = matfun.cartan_blocks(z)
    return SpElement(a=m @ v, b=n @ v.conj())


def sp_of(w: np.ndarray) -> SpElement:
    """The unitary-free element whose Cartan coordinate is the domain point ``w``."""
    return cartan_synthesize(z_of_w(w), np.eye(w.shape[0], dtype=complex))


def w_of_z(z: np.ndarray) -> np.ndarray:
    """Map a symmetric generator to its domain point: ``tanhc(sqrt(z z*)) z``."""
    z = matfun.check_symmetric(z)
    h = z @ z.conj().T
    w = matfun.herm_func(h, matfun.tanhc_of_sqrt) @ z
    return 0.5 * (w + w.T)


def z_of_w(w: np.ndarray) -> np.ndarray:
    """Inverse of :func:`w_of_z`: ``arctanhc(sqrt(w w*)) w``.

    Raises
    ------
    DomainViolation
        For boundary or exterior points (spectral radius of ``w w*`` >= 1).
    """
    w = matfun.check_symmetric(w)
    h = w @ w.conj().T
    z = matfun.herm_func(h, matfun.arctanhc_of_sqrt, domain=lambda t: t < 1.0) @ w
    return 0.5 * (z + z.T)


def siegel_eta(w: np.ndarray) -> np.ndarray:
    """Companion value ``eta = log(1 - w w*)`` of the coordinate maps."""
    w = matfun.check_symmetric(w)
    g = matfun.eye(w.shape[0]) - w @ w.conj().T
    return matfun.herm_func(g, np.log, domain=lambda t: t > 0.0)


def moebius(g: SpElement, w: np.ndarray) -> np.ndarray:
    """Linear-fractional action ``g . w = (a w + b)(conj(b) w + conj(a))^-1``.

    ``w`` is one matrix ``(n, n)`` or a stack ``(..., n, n)``; each matrix of
    a stack maps to the same bits as on its own.  The result is symmetrized;
    the ``moebius-closed-forms`` check of
    :func:`siegeljacobi.verify.suite_symplectic` bounds the asymmetry.
    """
    w = np.asarray(w, dtype=complex)
    if w.ndim < 2:
        raise ValueError(f"expected a matrix, got ndim={w.ndim}")
    if not np.isfinite(w).all():
        raise ValueError("matrix has non-finite entries")
    den = g.b.conj() @ w + g.a.conj()
    out = (g.a @ w + g.b) @ _inv(den, "conj(b) w + conj(a)")
    return 0.5 * (out + out.swapaxes(-1, -2))


def _psd_power(h: np.ndarray, p: float) -> np.ndarray:
    return matfun.herm_func(h, lambda t: np.maximum(t, 0.0) ** p)


def ball_compose(w1: np.ndarray, w2: np.ndarray):
    """Two-point composition law on the domain.

    Returns ``(w3, v, detv)`` where ``w3`` is the Cartan coordinate of the
    product ``sp_of(w1) sp_of(w2)``, ``v`` the unitary correction and
    ``detv`` its determinant (unimodular), computed from the closed forms

        w3 = (1 - w1 w1*)^{-1/2} (w1 + w2)(1 + w1* w2)^{-1} (1 - w1* w1)^{1/2}
        v  = (M M*)^{-1/2} M,
        M  = (1 - w1 w1*)^{-1/2} (1 + w1 w2*) (1 - w2 w2*)^{-1/2}
        detv = phase of det(1 + w1 w2*).

    Raises
    ------
    Singular
        If ``1 + w1* w2`` is not invertible (never for interior points).
    """
    w1 = as_cmat(w1)
    w2 = as_cmat(w2)
    eye = matfun.eye(w1.shape[0])
    s1 = eye - w1 @ w1.conj().T
    s1p = eye - w1.conj().T @ w1
    w3 = (
        _psd_power(s1, -0.5)
        @ (w1 + w2)
        @ _inv(eye + w1.conj().T @ w2, "1 + w1* w2")
        @ _psd_power(s1p, 0.5)
    )
    w3 = 0.5 * (w3 + w3.T)
    m = (
        _psd_power(s1, -0.5)
        @ (eye + w1 @ w2.conj().T)
        @ _psd_power(eye - w2 @ w2.conj().T, -0.5)
    )
    v = _psd_power(m @ m.conj().T, -0.5) @ m
    ld = matfun.principal_logdet(eye + w1 @ w2.conj().T)
    detv = complex(np.exp(1j * ld.imag))
    return w3, v, detv


def multiplier(g: SpElement, w: np.ndarray, k: float) -> complex:
    """Automorphy factor ``det(a* + w b*)^{k/2}`` of the kernel.

    It equals ``1 / jacobi.lambda_cocycle`` at ``alpha = 0`` and ``z = 0``:
    the determinant alone, without the cocycle's image point and exponent.
    """
    return detpow(g.a.conj().T + as_cmat(w) @ g.b.conj().T, k / 2)


def sym_index_pairs(n: int):
    """Row-major upper-triangle index pairs for symmetric-matrix coordinates."""
    return [(i, j) for i in range(n) for j in range(i, n)]


def sp_density(w: np.ndarray) -> float:
    """Density ``det(1 - w wbar)^{-(n+1)}`` of the invariant volume.

    The determinant is :func:`matfun.logdet_hpd`'s, so a ``w`` outside the
    domain raises :class:`DomainViolation` rather than giving a value.
    """
    w = matfun.check_symmetric(w)
    n = w.shape[0]
    return float(np.exp(-(n + 1) * matfun.logdet_hpd(matfun.eye(n) - w @ w.conj().T)))


def jn(p: float, n: int) -> float:
    """Normalization integral of ``det(1 - w wbar)^p`` over the domain,

        J_n(p) = pi^{n(n+1)/2} / ((p+1)...(p+n))
                 * Gamma(2p+3) Gamma(2p+5) ... Gamma(2p+2n-1)
                 / (Gamma(2p+n+2) ... Gamma(2p+2n)).

    The second closed form ``2^n pi^{n(n+1)/2} prod_i Gamma(2p+2i) /
    Gamma(2p+n+i+1)`` is the ``jn-closed-forms`` check of
    :func:`siegeljacobi.verify.suite_symplectic`.

    Raises
    ------
    OutOfDomain
        For ``p <= -1``.
    """
    if p <= -1:
        raise OutOfDomain(f"need p > -1, got {p}")
    lg = math.lgamma
    # in log space apart from the sign-free rational prefactor
    log_val = n * (n + 1) / 2 * math.log(math.pi)
    for i in range(1, n + 1):
        log_val -= math.log(p + i)
    for i in range(1, n):
        log_val += lg(2 * p + 2 * i + 1)
    for i in range(2, n + 1):
        log_val -= lg(2 * p + n + i)
    return math.exp(log_val)


def lambda1(k: float, n: int) -> float:
    """Normalization constant of the weighted Bergman inner product.

    Product form ``2^-n pi^{-n(n+1)/2} prod_i Gamma(k-i)/Gamma(k-2i)``; the
    ``lambda1-routes`` check of :func:`siegeljacobi.verify.suite_symplectic`
    compares it with ``1/jn(k/2 - n - 1, n)``.

    Raises
    ------
    OutOfDomain
        For ``k <= 2n`` (outside the convergence domain).
    """
    if k <= 2 * n:
        raise OutOfDomain(f"need k > 2n = {2 * n}, got {k}")
    log_val = -n * math.log(2.0) - n * (n + 1) / 2 * math.log(math.pi)
    for i in range(1, n + 1):
        log_val += math.lgamma(k - i) - math.lgamma(k - 2 * i)
    return math.exp(log_val)


def wallach_admissible(k: float, n: int) -> bool:
    """Membership in the Wallach set {0, 1, ..., n-1} union (n-1, inf) of
    Sp(n, R): the ``k`` for which ``det(1 - y x*)^{-k/2}``, the kernel of the
    domain, is positive semi-definite.  It is not the set of the Jacobi
    kernel :func:`jacobi.kernel`: at n = 1 every ``k > 0`` is in this set,
    but the Jacobi kernel's exact Taylor blocks have negative eigenvalues
    for ``k`` in (0, 1).  A ``k`` within 1e-12 of an integer counts as
    that integer."""
    if k > n - 1 + _INT_TOL:
        return True
    if k < -_INT_TOL:
        return False
    nearest = round(k)
    return abs(k - nearest) <= _INT_TOL and 0 <= nearest <= n - 1


def _require_even_int(k, unchecked_branch: bool):
    if unchecked_branch:
        return float(k)
    ki = int(round(float(k)))
    if abs(k - ki) > _INT_TOL or ki % 2 != 0:
        raise ValueError(
            "k must be an even integer (lambda_cocycle and lambda_cocycle_ez"
            " take unchecked_branch=True to override)"
        )
    return float(ki)


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_symmetric(n: int, scale: float, rng) -> np.ndarray:
    rng = _as_rng(rng)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * 0.5 * (m + m.T)


def random_siegel_point(n: int, scale: float, rng) -> np.ndarray:
    """Interior domain point obtained from a random symmetric generator."""
    return w_of_z(random_symmetric(n, scale, rng))


def sp_random(n: int, scale: float, rng) -> SpElement:
    """Random group element by Cartan synthesis (exact membership).

    A symmetric generator with Gaussian entries of size ``scale`` and a Haar
    unitary from QR orthonormalization are assembled via
    :func:`cartan_synthesize`.  Deterministic for a seeded generator.
    """
    rng = _as_rng(rng)
    z = random_symmetric(n, scale, rng)
    q = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    v, r = np.linalg.qr(q)
    v = v * (np.diag(r) / np.abs(np.diag(r)))
    return cartan_synthesize(z, v)
