"""Exact first-order differential operators with polynomial coefficients.

The holomorphic generators of the group act on functions of the variables
``z_1..z_n`` and ``w_ij`` (i <= j, the independent entries of the symmetric
matrix coordinate) as first-order operators whose coefficients are
polynomials with Gaussian-rational coefficients; the representation index
enters as an exact symbol ``kappa`` that appears linearly in scalar terms.
This module realizes those generators and machine-verifies their commutator
tables against the abstract structure constants, in exact arithmetic.

Symmetric coordinates: a matrix partial ``d/dw_{ij}`` means the
independent-coordinate partial for i = j and half of it for i != j (the
symmetric projector).  It is the one rule: the bare independent partial
everywhere fails closure at n >= 2.  Commutators are taken in closed form
(:func:`op_commutator`), so they are first order by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import VariableMismatch

__all__ = [
    "MPoly",
    "PolyDiffOp",
    "AlgebraTable",
    "op_apply",
    "op_commutator",
    "sp_generators_diff",
    "jacobi_generators_diff",
    "sp_table",
    "jacobi_table",
    "verify_structure_constants",
]

# A coefficient is a Gaussian rational stored as (real, imag) Fractions.
QQi = tuple
_ZERO = (Fraction(0), Fraction(0))
_ONE = (Fraction(1), Fraction(0))


def _cadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _cneg(a):
    return (-a[0], -a[1])


def _cstr(a) -> str:
    re, im = a
    if im == 0:
        return str(re)
    if re == 0:
        return f"{im}*i"
    sign = "+" if im > 0 else "-"
    return f"({re}{sign}{abs(im)}*i)"


def _to_qqi(c) -> QQi:
    if isinstance(c, tuple):
        return c
    if isinstance(c, complex):
        return (Fraction(c.real), Fraction(c.imag))
    return (Fraction(c), Fraction(0))


class MPoly:
    """Multivariate polynomial over the Gaussian rationals.

    ``variables`` is an ordered tuple of symbol names; ``terms`` maps
    exponent tuples to nonzero coefficients.  Instances are immutable in
    spirit: all operations return new polynomials.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables, terms=None):
        self.variables = tuple(variables)
        self.terms = {}
        if terms:
            for expo, coeff in terms.items():
                coeff = _to_qqi(coeff)
                if coeff != _ZERO:
                    self.terms[tuple(expo)] = coeff

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, variables) -> "MPoly":
        return cls(variables)

    @classmethod
    def constant(cls, variables, c) -> "MPoly":
        variables = tuple(variables)
        return cls(variables, {tuple([0] * len(variables)): _to_qqi(c)})

    @classmethod
    def monomial(cls, variables, powers, c=1) -> "MPoly":
        """Monomial from a dict or an iterable of (name, exponent) pairs.

        Pass pairs when the same variable repeats (a dict would collapse it).
        """
        variables = tuple(variables)
        expo = [0] * len(variables)
        items = powers.items() if isinstance(powers, dict) else powers
        for name, e in items:
            expo[variables.index(name)] += e
        return cls(variables, {tuple(expo): _to_qqi(c)})

    # -- predicates ---------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, MPoly)
            and self.variables == other.variables
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

    def degree_in(self, name: str) -> int:
        if not self.terms:
            return 0
        idx = self.variables.index(name)
        return max(e[idx] for e in self.terms)

    # -- arithmetic ---------------------------------------------------
    def _check(self, other: "MPoly"):
        if self.variables != other.variables:
            raise VariableMismatch(
                f"{self.variables} vs {other.variables}"
            )

    def _accumulate(self, pairs, out=None) -> "MPoly":
        """Polynomial in these variables from ``(exponent, coefficient)``
        pairs added onto the terms ``out``; zero sums are dropped."""
        out = {} if out is None else out
        for expo, c in pairs:
            s = _cadd(out.get(expo, _ZERO), c)
            if s == _ZERO:
                out.pop(expo, None)
            else:
                out[expo] = s
        res = MPoly(self.variables)
        res.terms = out
        return res

    def __add__(self, other: "MPoly") -> "MPoly":
        self._check(other)
        return self._accumulate(other.terms.items(), dict(self.terms))

    def __neg__(self) -> "MPoly":
        res = MPoly(self.variables)
        res.terms = {e: _cneg(c) for e, c in self.terms.items()}
        return res

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + (-other)

    def __mul__(self, other: "MPoly") -> "MPoly":
        self._check(other)
        return self._accumulate(
            (tuple(a + b for a, b in zip(e1, e2)), _cmul(c1, c2))
            for e1, c1 in self.terms.items()
            for e2, c2 in other.terms.items()
        )

    def scale(self, c) -> "MPoly":
        c = _to_qqi(c)
        if c == _ZERO:
            return MPoly(self.variables)
        res = MPoly(self.variables)
        res.terms = {e: _cmul(cc, c) for e, cc in self.terms.items()}
        return res

    def diff(self, name: str) -> "MPoly":
        """Partial derivative with respect to one independent variable."""
        idx = self.variables.index(name)
        return self._accumulate(
            (
                expo[:idx] + (expo[idx] - 1,) + expo[idx + 1 :],
                _cmul(c, (Fraction(expo[idx]), Fraction(0))),
            )
            for expo, c in self.terms.items()
            if expo[idx]
        )

    def eval(self, values: dict) -> complex:
        """Numeric evaluation; every variable must be given a value."""
        vals = [complex(values[v]) for v in self.variables]
        total = 0j
        for expo, c in self.terms.items():
            term = complex(float(c[0]), float(c[1]))
            for v, e in zip(vals, expo):
                term *= v**e
            total += term
        return total

    def text(self) -> str:
        """Canonical sorted-monomial form used by golden tests and reports."""
        if not self.terms:
            return "0"
        parts = []
        for expo in sorted(self.terms, reverse=True):
            c = self.terms[expo]
            mono = "*".join(
                (v if e == 1 else f"{v}^{e}")
                for v, e in zip(self.variables, expo)
                if e
            )
            cs = _cstr(c)
            if mono:
                parts.append(f"{cs}*{mono}" if cs != "1" else mono)
            else:
                parts.append(cs)
        return " + ".join(parts)

    def __repr__(self):
        return f"MPoly({self.text()})"


class PolyDiffOp:
    """First-order operator ``scalar + sum_v coeff_v d/dv``."""

    __slots__ = ("variables", "scalar", "first")

    def __init__(self, variables, scalar: MPoly | None = None, first: dict | None = None):
        self.variables = tuple(variables)
        self.scalar = scalar if scalar is not None else MPoly.zero(self.variables)
        self.first = {}
        if first:
            for v, p in first.items():
                if not p.is_zero():
                    if v not in self.variables:
                        raise VariableMismatch(f"unknown variable {v}")
                    self.first[v] = p

    def _check(self, other: "PolyDiffOp"):
        if self.variables != other.variables:
            raise VariableMismatch(f"{self.variables} vs {other.variables}")

    def __add__(self, other: "PolyDiffOp") -> "PolyDiffOp":
        self._check(other)
        first = dict(self.first)
        for v, p in other.first.items():
            q = first.get(v)
            first[v] = p if q is None else q + p
        return PolyDiffOp(self.variables, self.scalar + other.scalar, first)

    def __neg__(self) -> "PolyDiffOp":
        return PolyDiffOp(
            self.variables, -self.scalar, {v: -p for v, p in self.first.items()}
        )

    def __sub__(self, other: "PolyDiffOp") -> "PolyDiffOp":
        return self + (-other)

    def scale(self, c) -> "PolyDiffOp":
        return PolyDiffOp(
            self.variables,
            self.scalar.scale(c),
            {v: p.scale(c) for v, p in self.first.items()},
        )

    def is_zero(self) -> bool:
        return self.scalar.is_zero() and not self.first

    def __eq__(self, other):
        return (
            isinstance(other, PolyDiffOp)
            and self.variables == other.variables
            and self.scalar == other.scalar
            and self.first == other.first
        )

    def text(self) -> str:
        parts = []
        if not self.scalar.is_zero():
            parts.append(self.scalar.text())
        for v in sorted(self.first):
            parts.append(f"({self.first[v].text()})*d/d{v}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"PolyDiffOp({self.text()})"


def _vector_apply(d: PolyDiffOp, p: MPoly) -> MPoly:
    """The vector-field part ``sum_v c_v dp/dv`` of ``d`` applied to ``p``."""
    out = MPoly.zero(p.variables)
    for v, coeff in d.first.items():
        out = out + coeff * p.diff(v)
    return out


def op_apply(d: PolyDiffOp, p: MPoly) -> MPoly:
    """Apply the operator to a polynomial (exact)."""
    if d.variables != p.variables:
        raise VariableMismatch(f"{d.variables} vs {p.variables}")
    return d.scalar * p + _vector_apply(d, p)


def op_commutator(d1: PolyDiffOp, d2: PolyDiffOp) -> PolyDiffOp:
    """Exact commutator ``[d1, d2]`` in closed form.

    With ``d = s + X``, ``[d1, d2] = X1(s2) - X2(s1) + sum_v (X1(c2_v) -
    X2(c1_v)) d/dv``: the second-order parts cancel because polynomial
    coefficients commute, so the result is first order by construction.
    """
    d1._check(d2)
    zero = MPoly.zero(d1.variables)
    first = {
        v: _vector_apply(d1, d2.first.get(v, zero)) - _vector_apply(d2, d1.first.get(v, zero))
        for v in d1.variables
        if v in d1.first or v in d2.first
    }
    return PolyDiffOp(
        d1.variables, _vector_apply(d1, d2.scalar) - _vector_apply(d2, d1.scalar), first
    )


# ----------------------------------------------------------------------
# generator realizations
# ----------------------------------------------------------------------

def _wname(i: int, j: int) -> str:
    i, j = (i, j) if i <= j else (j, i)
    return f"w_{i}_{j}"


def sp_vars(n: int):
    return ("kappa",) + tuple(_wname(i, j) for i in range(1, n + 1) for j in range(i, n + 1))


def jacobi_vars(n: int):
    return (
        ("kappa",)
        + tuple(f"z_{i}" for i in range(1, n + 1))
        + tuple(_wname(i, j) for i in range(1, n + 1) for j in range(i, n + 1))
    )


def _dw_terms(i: int, j: int):
    """Matrix partial d/dw_{ij} as ``(weight, independent variable)``: the
    symmetric projector, half the independent partial off the diagonal."""
    return (Fraction(1) if i == j else Fraction(1, 2)), _wname(i, j)


def _build_k_ops(variables, n: int, with_z: bool):
    """Shared constructor for the quadratic-sector generators."""
    gens: dict[str, PolyDiffOp] = {}
    zero = MPoly.zero(variables)

    def mono(powers, c=1):
        return MPoly.monomial(variables, powers, c)

    for i in range(1, n + 1):
        for j in range(i, n + 1):
            # lowering: the matrix partial itself
            c, v = _dw_terms(i, j)
            gens[f"Km[{i},{j}]"] = PolyDiffOp(variables, first={v: MPoly.constant(variables, c)})

            # raising: scalar kappa/2 w_ij (+ z z /2) + mixed + quadratic W part
            scalar = mono([(_wname(i, j), 1), ("kappa", 1)], Fraction(1, 2))
            first = {}
            if with_z:
                scalar = scalar + mono([(f"z_{i}", 1), (f"z_{j}", 1)], Fraction(1, 2))
                for m in range(1, n + 1):
                    first[f"z_{m}"] = mono(
                        [(_wname(i, m), 1), (f"z_{j}", 1)], Fraction(1, 2)
                    ) + mono([(f"z_{i}", 1), (_wname(j, m), 1)], Fraction(1, 2))
            for m in range(1, n + 1):
                for s in range(1, n + 1):
                    c, v = _dw_terms(m, s)
                    first[v] = first.get(v, zero) + mono([(_wname(i, m), 1), (_wname(s, j), 1)], c)
            gens[f"Kp[{i},{j}]"] = PolyDiffOp(variables, scalar, first)

    for i in range(1, n + 1):
        for j in range(1, n + 1):
            scalar = MPoly.zero(variables)
            if i == j:
                scalar = mono({"kappa": 1}, Fraction(1, 4))
            first = {}
            if with_z:
                first[f"z_{j}"] = mono({f"z_{i}": 1}, Fraction(1, 2))
            for m in range(1, n + 1):
                c, v = _dw_terms(j, m)
                first[v] = first.get(v, zero) + mono({_wname(m, i): 1}, c)
            gens[f"K0[{i},{j}]"] = PolyDiffOp(variables, scalar, first)
    return gens


def sp_generators_diff(n: int) -> dict:
    """Differential realization of the quadratic-sector generators.

    ``Km = d/dW``, ``Kp = (kappa/2) W + W (d/dW) W``,
    ``K0 = (kappa/4) 1 + (d/dW) W`` over the independent ``w_ij``; the
    ``K0[i,j]`` label carries the orientation that closes the abstract table.
    """
    return _build_k_ops(sp_vars(n), n, with_z=False)


def jacobi_generators_diff(n: int) -> dict:
    """Differential realization of the full generator set.

    Adds the translation sector ``a = d/dz``, ``ap = z + W d/dz`` and the
    ``z``-dependent parts of ``Kp`` and ``K0`` on top of
    :func:`sp_generators_diff`.
    """
    variables = jacobi_vars(n)
    gens = _build_k_ops(variables, n, with_z=True)
    for i in range(1, n + 1):
        gens[f"a{i}"] = PolyDiffOp(
            variables, first={f"z_{i}": MPoly.constant(variables, 1)}
        )
        first = {}
        for m in range(1, n + 1):
            first[f"z_{m}"] = MPoly.monomial(variables, {_wname(i, m): 1})
        gens[f"ap{i}"] = PolyDiffOp(
            variables, MPoly.monomial(variables, {f"z_{i}": 1}), first
        )
    return gens


# ----------------------------------------------------------------------
# abstract structure-constant tables
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class AlgebraTable:
    """Complete bracket table over a finite label set.

    ``brackets[(l1, l2)]`` is a tuple of ``(coefficient, label)`` pairs for
    every ordered pair with ``l1`` preceding ``l2`` in ``labels``; the label
    ``"1"`` denotes the central constant.  Antisymmetry is built in; the
    Jacobi identity is checkable.
    """

    labels: tuple
    brackets: dict

    def bracket(self, l1: str, l2: str):
        """Structure constants of ``[l1, l2]`` for any order of arguments."""
        if (l1, l2) in self.brackets:
            return self.brackets[(l1, l2)]
        if (l2, l1) in self.brackets:
            return tuple((-c, lab) for c, lab in self.brackets[(l2, l1)])
        if l1 == l2 or l1 == "1" or l2 == "1":
            return ()
        raise KeyError((l1, l2))

    def check_jacobi(self) -> bool:
        """Exact Jacobi identity of the table (centrals contribute nothing)."""
        labs = [l for l in self.labels if l != "1"]

        def combo_bracket(combo, lab):
            out: dict = {}
            for c, mid in combo:
                if mid == "1":
                    continue
                for c2, lab2 in self.bracket(mid, lab):
                    out[lab2] = out.get(lab2, Fraction(0)) + c * c2
            return out

        for i, x in enumerate(labs):
            for j in range(i + 1, len(labs)):
                y = labs[j]
                for kidx in range(j + 1, len(labs)):
                    z = labs[kidx]
                    acc: dict = {}
                    for (u, pair) in ((x, (y, z)), (y, (z, x)), (z, (x, y))):
                        inner = self.bracket(*pair)
                        for lab, c in combo_bracket(inner, u).items():
                            # [u, [p, q]] enters with a sign flip: combo_bracket
                            # computed [mid, u]
                            acc[lab] = acc.get(lab, Fraction(0)) - c
                    if any(v != 0 for v in acc.values()):
                        return False
        return True


def _canon_pair(i, j):
    return (i, j) if i <= j else (j, i)


def _table_from_rules(labels, rule):
    brackets = {}
    order = {lab: idx for idx, lab in enumerate(labels)}
    for l1 in labels:
        for l2 in labels:
            if order[l1] >= order[l2]:
                continue
            combo = rule(l1, l2)
            acc: dict = {}
            for c, lab in combo:
                acc[lab] = acc.get(lab, Fraction(0)) + Fraction(c)
            brackets[(l1, l2)] = tuple(
                (c, lab) for lab, c in sorted(acc.items()) if c != 0
            )
    return AlgebraTable(labels=tuple(labels), brackets=brackets)


def _parse(label: str):
    if label.startswith(("Kp", "Km", "K0")):
        i, j = label[3:-1].split(",")
        return label[:2], int(i), int(j)
    if label.startswith("ap"):
        return "ap", int(label[2:]), None
    if label.startswith("a"):
        return "a", int(label[1:]), None
    return "1", None, None


def _k_bracket(k1, a, b, k2, c, d):
    """Brackets inside the quadratic sector, as (coeff, label) lists, with
    ``k1`` the lower kind in the order Km < Kp < K0."""
    half = Fraction(1, 2)
    if k1 == k2 != "K0":
        return []
    if k1 == "Km" and k2 == "Kp":
        out = []
        if d == a:
            out.append((half, f"K0[{c},{b}]"))
        if c == a:
            out.append((half, f"K0[{d},{b}]"))
        if d == b:
            out.append((half, f"K0[{c},{a}]"))
        if c == b:
            out.append((half, f"K0[{d},{a}]"))
        return out
    if k1 == "Km" and k2 == "K0":
        out = []
        if c == b:
            out.append((half, "Km[%d,%d]" % _canon_pair(a, d)))
        if c == a:
            out.append((half, "Km[%d,%d]" % _canon_pair(b, d)))
        return out
    if k1 == "Kp" and k2 == "K0":
        out = []
        if b == d:
            out.append((-half, "Kp[%d,%d]" % _canon_pair(a, c)))
        if d == a:
            out.append((-half, "Kp[%d,%d]" % _canon_pair(b, c)))
        return out
    if k1 == "K0" and k2 == "K0":
        out = []
        if c == b:
            out.append((half, f"K0[{a},{d}]"))
        if d == a:
            out.append((-half, f"K0[{c},{b}]"))
        return out
    raise KeyError((k1, k2))


def _trans_quad_bracket(t1, x, k2, c, d):
    """Bracket of a translation-sector generator with a quadratic one."""
    half = Fraction(1, 2)
    if t1 == "a":
        if k2 == "Km":
            return []
        if k2 == "Kp":
            out = []
            if x == c:
                out.append((half, f"ap{d}"))
            if x == d:
                out.append((half, f"ap{c}"))
            return out
        return [(half, f"a{d}")] if x == c else []
    # t1 == "ap"
    if k2 == "Kp":
        return []
    if k2 == "Km":
        out = []
        if x == c:
            out.append((-half, f"a{d}"))
        if x == d:
            out.append((-half, f"a{c}"))
        return out
    return [(-half, f"ap{c}")] if x == d else []


# generator kinds in bracket order: every rule is written for the lower kind
# first, and the other order follows by antisymmetry
_KINDS = ("a", "ap", "Km", "Kp", "K0")


def _rule_dispatch(l1: str, l2: str):
    t1, a1, b1 = _parse(l1)
    t2, a2, b2 = _parse(l2)
    if t1 == "1" or t2 == "1":
        return []
    if _KINDS.index(t1) > _KINDS.index(t2):
        return [(-c, lab) for c, lab in _rule_dispatch(l2, l1)]
    if t1 in _KINDS[2:]:
        return _k_bracket(t1, a1, b1, t2, a2, b2)
    if t2 in _KINDS[2:]:
        return _trans_quad_bracket(t1, a1, t2, a2, b2)
    return [(Fraction(1), "1")] if (t1, t2, a1) == ("a", "ap", a2) else []


def _quadratic_labels(n: int) -> list:
    """Labels of the quadratic sector in table order."""
    labels = []
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            labels += [f"Km[{i},{j}]", f"Kp[{i},{j}]"]
    return labels + [f"K0[{i},{j}]" for i in range(1, n + 1) for j in range(1, n + 1)]


def sp_table(n: int) -> AlgebraTable:
    """Abstract bracket table of the quadratic sector."""
    return _table_from_rules(_quadratic_labels(n) + ["1"], _rule_dispatch)


def jacobi_table(n: int) -> AlgebraTable:
    """Abstract bracket table of the full algebra (translations included)."""
    labels = [f"a{i}" for i in range(1, n + 1)] + [f"ap{i}" for i in range(1, n + 1)]
    return _table_from_rules(labels + _quadratic_labels(n) + ["1"], _rule_dispatch)


def verify_structure_constants(gens: dict, table: AlgebraTable) -> dict:
    """Match every realized commutator against the abstract table.

    The brackets are compared at the table's sign, so an anti-homomorphism
    (every commutator reversed) fails.  The report lists each mismatch with
    the residual operator in canonical text form.
    """
    some = next(iter(gens.values()))
    variables = some.variables
    one = PolyDiffOp(variables, MPoly.constant(variables, 1))

    def realized(label):
        return one if label == "1" else gens[label]

    pairs = [(l1, l2) for (l1, l2) in table.brackets if l1 != "1" and l2 != "1"]
    failures = []
    for (l1, l2) in pairs:
        if l1 not in gens or l2 not in gens:
            raise KeyError(f"generators missing for bracket ({l1}, {l2})")
        expected = PolyDiffOp(variables)
        for c, lab in table.bracket(l1, l2):
            expected = expected + realized(lab).scale((Fraction(c), Fraction(0)))
        residual = op_commutator(gens[l1], gens[l2]) - expected
        if not residual.is_zero():
            failures.append({"pair": (l1, l2), "residual": residual.text()})
    return {"checked": len(pairs), "failures": failures, "pass": not failures}
