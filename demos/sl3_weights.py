"""sl(3,C) highest-weight representations and their weight diagrams.

Constructs irreducibles exactly on their Gelfand-Tsetlin bases and prints
weight tables with multiplicities (Weyl-symmetric, as the checks confirm).
"""

from matrixlie import sl3_dim_formula, sl3_highest_weight_irrep, sl3_roots, weyl_invariance_check
from matrixlie.repsl3 import weight_table

print("=== the six roots ===")
for r in sl3_roots():
    print(f"  {r.vector_label}: {r.weight}")

for m1, m2 in ((1, 0), (1, 1), (2, 0), (2, 2)):
    rep, mult = sl3_highest_weight_irrep(m1, m2)
    print()
    print(f"=== highest weight ({m1},{m2}) ===")
    print(f"dimension {rep.dim} (formula gives {sl3_dim_formula(m1, m2)})")
    print("Weyl-invariant multiplicities:", weyl_invariance_check(mult))
    print("m1  m2  mult")
    for a, b, c in weight_table(mult):
        print(f"{a:3} {b:3} {c:5}")
