"""One degree of freedom: disk picture, half-plane picture, real metric.

The Cayley map carries the disk coordinates (z, w) to the upper-half-plane
coordinates (u, v); the invariant two-form has matching presentations on
both sides, and in the real coordinates (x, y, p, q) it becomes an explicit
four-dimensional metric.  The polynomial basis P_n underlies the kernel's
series expansion.
"""

import numpy as np

from siegeljacobi import gj1, jacobi

print("== the polynomial basis ==")
for n in range(6):
    print(f"P_{n} =", gj1.pn_poly(n).text())
print("closed Hermite form exact for n <= 8:",
      all(gj1.hermite_exact_equal(n) for n in range(9)))

print("\n== kernel series vs closed form (k = 4) ==")
# the closed kernel is the general one at n = 1, second point conjugated
closed = jacobi.kernel(jacobi.cs_point([0.2], [[0.1]]), jacobi.cs_point([0.1], [[0.2]]), 4.0)
for order in (5, 10, 20, 40):
    series = gj1.kernel_series(0.1, 0.2, 0.2, 0.1, 4.0, order)
    print(f"order {order:2d}: relative error {abs(series - closed) / abs(closed):.2e}")

print("\n== Cayley map ==")
v, u = 0.4 + 1.3j, 0.2 - 0.5j
w, z = gj1.cayley(v, u)
print(f"(v, u) = ({v}, {u})  ->  (w, z) = ({w:.4f}, {z:.4f})")
vr, ur = gj1.cayley_inverse(w, z)
print(f"round trip: ({complex(vr):.4f}, {complex(ur):.4f})")

print("\n== the two presentations of the form agree ==")
print("pullback residual:", gj1.kb_form_check(v, u, 16.0))

print("\n== real metric in (x, y, p, q) ==")
print(np.round(gj1.ez_metric(0.0, 1.0, 0.0, 0.0, 8.0), 6))
print("vs real form of the complex presentation:",
      np.abs(gj1.ez_metric(0.3, 0.8, 0.5, -0.2, 16.0)
             - gj1.halfplane_metric_real(0.3, 0.8, 0.5, -0.2, 16.0)).max())

print("\n== the classical affine action ==")
m = np.array([[1.0, 0.5], [0.0, 1.0]])
v1, u1 = gj1.gj0_act(m, (0.3, -0.1), v, u)
print(f"shear + translate: ({complex(v1):.4f}, {complex(u1):.4f})")
