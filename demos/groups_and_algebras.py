"""Membership predicates and the group <-> algebra bridge.

Draws random Lie-algebra elements for several classical families,
exponentiates them, and checks the group's defining identity; then
shows polar decomposition and the four pieces of O(1,1).
"""

import numpy as np

from matrixlie import (
    Tolerance,
    in_algebra,
    is_member,
    mat_exp,
    o11_component,
    polar_decompose_sl,
    random_algebra_element,
)

rng = np.random.default_rng(1)

print("=== exp maps each algebra into its group ===")
for gname, aname in [
    ("SO(3)", "so(3)"),
    ("SU(2)", "su(2)"),
    ("SL(2,R)", "sl(2,R)"),
    ("Sp(1,R)", "sp(1,R)"),
    ("O(3,1)", "so(3,1)"),
]:
    X = random_algebra_element(aname, rng)
    ok_alg = in_algebra(X, aname, Tolerance(abs=1e-12, rel=0))
    ok_grp = is_member(mat_exp(X), gname, Tolerance(abs=1e-9, rel=0))
    print(f"  {aname:9} -> {gname:9} algebra {ok_alg}, exp in group {ok_grp}")

print()
print("=== polar decomposition in SL(2,R) ===")
A = rng.standard_normal((2, 2))
if np.linalg.det(A) < 0:
    A[[0, 1]] = A[[1, 0]]
A /= np.sqrt(np.linalg.det(A))
R, H = polar_decompose_sl(A)
print("A:")
print(A.round(6))
print("R (orthogonal):")
print(R.real.round(6))
print("H (symmetric positive):")
print(H.real.round(6))

print()
print("=== the four components of O(1,1) ===")
t = 0.5
c, s = np.cosh(t), np.sinh(t)
B = np.array([[c, s], [s, c]])
flip = np.diag([1.0, -1.0])
for M, name in ((B, "boost"), (-B, "-boost"), (B @ flip, "boost*flip"), (-B @ flip, "-boost*flip")):
    print(f"  {name:12} -> component {o11_component(M)}")
