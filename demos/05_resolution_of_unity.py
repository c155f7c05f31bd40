"""Monte-Carlo verification of the resolution of unity.

The weighted inner product uses the density Q K^-1 against Lebesgue measure
and a closed-form normalization constant.  The one sampler,
`jacobi.sample_base_measure`, returns the whole weighted sample as a stack of
points: it draws the domain coordinate uniformly (with rejection weights) and
the fiber coordinate from its exact Gaussian conditional, so the total mass
estimate should be one and the kernel should reproduce point values of
holomorphic functions.
"""

import numpy as np

from siegeljacobi import jacobi
from siegeljacobi.jacobi import CSPoint

k = 6.0
count = 500_000
seed = 42

consts = jacobi.measure_constants(1, k)
print(f"n=1, k={k}: p = {consts.p}, Lambda = {consts.Lambda}")
print("closed form (k-3)/(2 pi^2) =", (k - 3) / (2 * np.pi**2))

# one stack of weighted samples: z of shape (count, 1), W of shape (count, 1, 1)
x, wt = jacobi.sample_base_measure(1, k, count, seed)
print(f"\nsample stack: z {x.z.shape}, W {x.W.shape}; "
      f"{np.count_nonzero(wt)} samples inside the disk")
print(f"<1, 1> estimate from {count} samples:", wt.mean(),
      "+-", wt.std() / np.sqrt(count))

print("\n== reproducing property: f(x0) = Lambda int K(., x0) f dmu ==")
for f, x0, name in (
    (lambda z, w: np.ones_like(z), (0.0, 0.0), "f = 1"),
    (lambda z, w: z, (0.2, 0.1), "f = z"),
    (lambda z, w: w, (0.0, 0.3), "f = w"),
):
    pt = CSPoint(z=np.array([x0[0]], dtype=complex), W=np.array([[x0[1]]], dtype=complex))
    lhs, rhs, relerr = jacobi.reproduce_check(f, pt, k, count, seed=seed)
    print(f"{name:8s} lhs = {lhs:.4f}  rhs = {rhs:.4f}  relerr = {relerr:.2e}")

print("\n== a closed-form cross-check ==")
est, se = jacobi.mc_inner_product_n1(lambda z, w: z, lambda z, w: z, k, count, seed)
print("<z, z> =", est, " (the fiber Gaussian has unit second moment, so exactly 1)")
