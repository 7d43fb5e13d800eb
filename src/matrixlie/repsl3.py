"""sl(3,C): basis, roots, weights, highest-weight irreps, Weyl group.

The irreducible with highest weight (m1, m2) is the n = 3 case of the
Gelfand-Tsetlin builder in repcore: one weight vector per pattern, O(d)
nonzero entries per generator, exact rational (non-unitary) formulas.  The
source paper's construction, the cyclic span of the top vector inside
std^(x)m1 (x) dual^(x)m2, serves as the test oracle.
"""

from __future__ import annotations

import functools
from collections import Counter, namedtuple

from . import liealg, matcore  # lazy (see the package): only dense work loads them
from .errors import DomainError
from .repcore import Representation, _gelfand_tsetlin, dual
from .rowcore import _BASES, _commutator, _integer

__all__ = [
    "sl3_basis",
    "sl3_roots",
    "Root",
    "is_higher",
    "sl3_standard_rep",
    "sl3_antifundamental_rep",
    "sl3_highest_weight_irrep",
    "sl3_dim_formula",
    "weyl_elements",
    "weyl_act",
    "weyl_invariance_check",
    "weight_table",
    "weight_table_csv",
]

# the largest m1 + m2 that sl3_highest_weight_irrep builds
MAX_WEIGHT_SUM = 6


def sl3_basis() -> liealg.Basis:
    """The eight-matrix basis H1, H2, X1..X3, Y1..Y3."""
    return liealg._view(_BASES["sl3"], exact=True)


Root = namedtuple("Root", "weight vector_label")  # namedtuples: see rowcore.Tolerance


# the weight (H1[i][i], H2[i][i]) of each standard basis vector e_i, read off the basis table
_WEIGHTS = tuple(tuple(H[i].get(i, 0) for H in _BASES["sl3"][2][:2]) for i in range(3))


def sl3_roots() -> list:
    """The six roots, paired with their root vectors: E_ij has root weight(e_i) - weight(e_j)."""
    _, labels, elements = _BASES["sl3"]
    return [Root(tuple(a - b for a, b in zip(_WEIGHTS[i], _WEIGHTS[j])), label)
            for label, E in zip(labels[2:], elements[2:]) for i, row in enumerate(E) for j in row]


def is_higher(mu1, mu2) -> bool:
    """mu1 >= mu2 in the simple-root order: mu1 - mu2 = a(2,-1) + b(-1,2)
    with a >= 0 and b >= 0 (a, b may be non-integers)."""
    d1, d2 = mu1[0] - mu2[0], mu1[1] - mu2[1]
    return 2 * d1 + d2 >= 0 and d1 + 2 * d2 >= 0  # 3a and 3b


def sl3_standard_rep() -> Representation:
    """Generators are the basis matrices themselves; weights (1,0), (-1,1), (0,-1)."""
    return Representation.from_rows(*_BASES["sl3"], dict(enumerate(_WEIGHTS)))


def sl3_antifundamental_rep() -> Representation:
    """pi(Z) = -Z^T on C^3; weights (-1,0), (1,-1), (0,1)."""
    return dual(sl3_standard_rep())


def _highest_weight(m1, m2) -> tuple[int, int]:
    """(m1, m2) as ints, numpy integers included; ValueError unless both are
    nonnegative integers."""
    weight = _integer(m1, 0), _integer(m2, 0)
    if None in weight:
        raise ValueError("m1, m2 must be nonnegative integers")
    return weight


def sl3_dim_formula(m1: int, m2: int) -> int:
    """(m1+1)(m2+1)(m1+m2+2)/2 — dimension of the (m1, m2) irreducible."""
    m1, m2 = _highest_weight(m1, m2)
    return (m1 + 1) * (m2 + 1) * (m1 + m2 + 2) // 2


def sl3_highest_weight_irrep(m1: int, m2: int):
    """The irreducible with highest weight (m1, m2), plus its weight multiset.

    Built on the Gelfand-Tsetlin patterns under the gl(3) top row
    (m1 + m2, m2, 0), so basis vector 0 is the top pattern, with
    X3 = [X1, X2] and Y3 = [Y2, Y1].  Returns (Representation with weight
    annotations, weight multiset dict).
    """
    m1, m2 = _highest_weight(m1, m2)
    if m1 + m2 > MAX_WEIGHT_SUM:
        raise DomainError(f"m1 + m2 = {m1 + m2} exceeds the cap {MAX_WEIGHT_SUM}")
    weights, matrices = _gelfand_tsetlin((m1 + m2, m2, 0))
    (H1, H2), (X1, X2), (Y1, Y2) = matrices()
    X3, Y3 = ((_commutator(A, B), Da * Db) for (A, Da), (B, Db) in ((X1, X2), (Y2, Y1)))
    rep = Representation.from_rows(*_BASES["sl3"][:2], (H1, H2, X1, X2, X3, Y1, Y2, Y3),
                                   dict(enumerate(weights)), relations_hold=True)
    return rep, dict(Counter(weights))


# --- Weyl group ------------------------------------------------------------

@functools.cache
def _weyl() -> tuple:
    """The six signed permutation matrices sgn(p) P_p, P_p[i][p(i)] = 1, built on
    first use: the rotations p(i) = i - k (mod 3), k = 0, 1, 2, of sign 1, then
    each rotation followed by the transposition of 0 and 1, of sign -1."""
    rotations = [[(i - k) % 3 for i in range(3)] for k in range(3)]
    perms = [(1, p) for p in rotations] + [(-1, [(1 - x) % 3 for x in p]) for p in rotations]
    return tuple(matcore.rmat([[s * (p[i] == j) for j in range(3)] for i in range(3)])
                 for s, p in perms)


WeylElement = namedtuple("WeylElement", "index matrix")  # matrix: an exact 3x3 numpy array


def weyl_elements() -> list:
    """The six signed permutations whose adjoint action permutes weights."""
    return [WeylElement(i, P) for i, P in enumerate(_weyl())]


def weyl_act(w: WeylElement, mu) -> tuple:
    """Action on weights, mu -> mu o Ad(w^-1): coordinate n is mu(P^T H_n P), for P the matrix
    of w, and mu(diag(a, b, c)) = m1 a - m2 c.  P^T H_n P is diagonal, its entry j the
    diagonal entry of H_n at the row of P's nonzero in column j."""
    a, c = (_WEIGHTS[next(r for r in range(3) if w.matrix[r][j])] for j in (0, 2))
    return tuple(mu[0] * x - mu[1] * z for x, z in zip(a, c))


def weyl_invariance_check(mult: dict) -> bool:
    """Whether the weight multiset is invariant under all six actions."""
    for w in weyl_elements():
        for mu, m in mult.items():
            if mult.get(weyl_act(w, mu), 0) != m:
                return False
    return True


def weight_table(mult: dict) -> list:
    """Rows (m1, m2, multiplicity), lexicographically descending."""
    return [
        (mu[0], mu[1], mult[mu])
        for mu in sorted(mult, reverse=True)
    ]


def weight_table_csv(mult: dict) -> str:
    lines = ["m1,m2,multiplicity"]
    for m1, m2, c in weight_table(mult):
        lines.append(f"{m1},{m2},{c}")
    return "\n".join(lines) + "\n"
