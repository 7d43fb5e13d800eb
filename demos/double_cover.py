"""The two-to-one map SU(2) -> SO(3) and its lift.

Shows the kernel {I, -I}, the homomorphism property, the Lie-algebra
shadow ad E_i = F_i, and a round trip through the quaternion lift.
"""

import numpy as np

from matrixlie import adjoint_to_so3, frobenius_norm, mat_exp, so3_lift, su2_matrix
from matrixlie.liealg import E1, F1, ad_matrix, su2_basis

print("=== kernel: U and -U give the same rotation ===")
U = su2_matrix((1 + 1j) / 2, (1 - 1j) / 2)
print("R(U) == R(-U):", np.array_equal(adjoint_to_so3(U), adjoint_to_so3(-U)))

print()
print("=== a one-parameter rotation ===")
theta = 0.4
V = mat_exp(theta * E1)
R = adjoint_to_so3(V)
print(f"rotation from exp({theta} E1):")
print(R.real.round(10))

print()
print("=== infinitesimal version: ad E1 = F1 ===")
print(ad_matrix(E1, su2_basis()).real)
print("equals F1 exactly:", np.array_equal(ad_matrix(E1, su2_basis()), F1))

print()
print("=== lift back ===")
W, Wm = so3_lift(R)
print("preimage recovered:", min(frobenius_norm(W - V), frobenius_norm(Wm - V)) < 1e-9)
