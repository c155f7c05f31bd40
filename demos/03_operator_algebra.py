"""The generators as exact first-order differential operators.

Every generator acts on holomorphic functions of (z, W) as a first-order
operator with polynomial coefficients; the commutator tables close exactly
over the Gaussian rationals, with the representation index as a symbol.
"""

from siegeljacobi import diffops as d

print("== one degree of freedom ==")
gens = d.jacobi_generators_diff(1)
for label in ("a1", "ap1", "Km[1,1]", "K0[1,1]", "Kp[1,1]"):
    print(f"{label:10s} = {gens[label].text()}")

print("\n[a, ap]  =", d.op_commutator(gens["a1"], gens["ap1"]).text())
print("[Km, Kp] =", d.op_commutator(gens["Km[1,1]"], gens["Kp[1,1]"]).text())
print("[a, Kp]  =", d.op_commutator(gens["a1"], gens["Kp[1,1]"]).text(), " (= ap)")

print("\n== table verification (brackets at the table's sign) ==")
for n in (1, 2, 3):
    rep = d.verify_structure_constants(d.jacobi_generators_diff(n), d.jacobi_table(n))
    print(f"n={n}: {rep['checked']} brackets, failures={len(rep['failures'])}")

print("\n== the coordinate convention matters ==")
rep = d.verify_structure_constants(
    d.jacobi_generators_diff(2, convention="single"), d.jacobi_table(2)
)
print(
    "bare independent partials close?", rep["pass"],
    f"({len(rep['failures'])} brackets fail; the symmetric projector is required)",
)
first_fail = rep["failures"][0]
print("example failing bracket:", first_fail["pair"], "->", first_fail["residual"])
