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

print("\n== a corrupted generator is pinpointed ==")
gens = d.jacobi_generators_diff(2)
table = d.jacobi_table(2)
bad = dict(gens, **{"Kp[1,2]": gens["Kp[1,2]"].scale(2)})
rep = d.verify_structure_constants(bad, table)
print(
    "Kp[1,2] doubled: closes?", rep["pass"],
    f"({len(rep['failures'])} of {rep['checked']} brackets fail)",
)
# each failing bracket has Kp[1,2] as an argument or in its table value
for f in rep["failures"]:
    value = " + ".join(f"{c}*{lab}" for c, lab in table.bracket(*f["pair"]))
    print(f"  [{f['pair'][0]}, {f['pair'][1]}] = {value}")
first_fail = rep["failures"][0]
print("example residual:", first_fail["pair"], "->", first_fail["residual"])
