"""Tour of the matrix exponential and logarithm.

Reproduces the three classic computable cases (rotation generator,
nilpotent, repeated-eigenvalue triangular), then shows the log series
recovering a generator from samples of a one-parameter subgroup.
"""

import numpy as np

from matrixlie import (
    OneParamSample,
    Tolerance,
    mat_exp,
    mat_exp_nilpotent,
    mat_log,
    one_param_generator,
    rmat,
)

tight = Tolerance(abs=1e-15, rel=0.0)  # where the log series stops

print("=== case 1: rotation generator ===")
a = 0.7
X = np.array([[0, -a], [a, 0]])
print(f"exp([[0,-a],[a,0]]) at a={a}:")
print(mat_exp(X).real.round(12))
print("expected cos/sin block:", np.cos(a).round(12), np.sin(a).round(12))

print()
print("=== case 2: nilpotent (exact) ===")
N = rmat([[0, 1, 2], [0, 0, 3], [0, 0, 0]])
print("exp of strictly upper triangular, series terminates:")
print(mat_exp_nilpotent(N))

print()
print("=== case 3: equal diagonal, triangular ===")
X = np.array([[np.log(2), 3], [0, np.log(2)]])
print(mat_exp(X).real.round(12), " (expected [[2,6],[0,2]])")

print()
print("=== log inverts exp near the identity ===")
X = np.array([[0.1, 0.25], [-0.2, -0.1]])
print("recovered X:")
print(mat_log(mat_exp(X), tight).real.round(12))

print()
print("=== one-parameter subgroup generator recovery ===")
G = np.array([[0, -0.4], [0.4, 0]])
samples = [OneParamSample(t, mat_exp(t * G)) for t in (0.0, 0.25, 1.0, -0.5)]
print("recovered generator:")
print(one_param_generator(samples).real.round(10))
