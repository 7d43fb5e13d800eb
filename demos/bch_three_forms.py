"""Baker-Campbell-Hausdorff three ways.

The closed form (exact, when the commutator is central), the series
through third order, and the integral formula evaluated by quadrature,
all compared against the direct log(e^X e^Y) oracle.
"""

import numpy as np

from matrixlie import (
    bch_heisenberg,
    bch_integral,
    bch_series,
    frobenius_norm,
    mat_exp,
    mat_log,
    random_algebra_element,
    rmat,
)
from matrixlie.expmlog import mat_exp_nilpotent

print("=== Heisenberg closed form (exact) ===")
X = rmat([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
Y = rmat([[0, 0, 0], [0, 0, 1], [0, 0, 0]])
Z = bch_heisenberg(X, Y)
print("Z = X + Y + [X,Y]/2:")
print(Z)
lhs = mat_exp_nilpotent(X) @ mat_exp_nilpotent(Y)
print("e^X e^Y == e^Z exactly:", all(p == q for p, q in zip(lhs.flat, mat_exp_nilpotent(Z).flat)))

print()
print("=== series residual shrinks like s^4 ===")
rng = np.random.default_rng(0)
X0 = rng.standard_normal((2, 2))
Y0 = rng.standard_normal((2, 2))
X0 /= frobenius_norm(X0)
Y0 /= frobenius_norm(Y0)
for s in (0.2, 0.1, 0.05):
    direct = mat_log(mat_exp(s * X0) @ mat_exp(s * Y0))
    r = frobenius_norm(direct - bch_series(s * X0, s * Y0, 3))
    print(f"  s={s:5}: |log(e^X e^Y) - series3| = {r:.3e}")

print()
print("=== integral form on su(2) ===")
X = random_algebra_element("su(2)", rng)
Y = random_algebra_element("su(2)", rng)
X *= 0.15 / frobenius_norm(X)
Y *= 0.15 / frobenius_norm(Y)
Z = bch_integral(X, Y, quad_points=64, terms=30)
direct = mat_log(mat_exp(X) @ mat_exp(Y))
print("  |integral - direct log| =", f"{frobenius_norm(Z - direct):.3e}")
