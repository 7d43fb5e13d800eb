"""sl(3,C): basis, roots, weights, highest-weight irreps, Weyl group.

The irreducible with highest weight (m1, m2) is the n = 3 case of the
Gelfand-Tsetlin builder in repcore: one weight vector per pattern, O(d)
nonzero entries per generator, exact rational (non-unitary) formulas.  The
source paper's construction, the cyclic span of the top vector inside
std^(x)m1 (x) dual^(x)m2, serves as the test oracle.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from . import liealg, matcore  # lazy (see the package): only dense work loads them
from .errors import DomainError
from .repcore import Representation, _gelfand_tsetlin, dual
from .rowcore import _commutator, _integer

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

_LABELS = ("H1", "H2", "X1", "X2", "X3", "Y1", "Y2", "Y3")
# the largest m1 + m2 that sl3_highest_weight_irrep builds
MAX_WEIGHT_SUM = 6


def _basis_matrices():
    rmat = matcore.rmat
    H1 = rmat([[1, 0, 0], [0, -1, 0], [0, 0, 0]])
    H2 = rmat([[0, 0, 0], [0, 1, 0], [0, 0, -1]])
    X1 = rmat([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    X2 = rmat([[0, 0, 0], [0, 0, 1], [0, 0, 0]])
    X3 = rmat([[0, 0, 1], [0, 0, 0], [0, 0, 0]])
    Y1 = rmat([[0, 0, 0], [1, 0, 0], [0, 0, 0]])
    Y2 = rmat([[0, 0, 0], [0, 0, 0], [0, 1, 0]])
    Y3 = rmat([[0, 0, 0], [0, 0, 0], [1, 0, 0]])
    return (H1, H2, X1, X2, X3, Y1, Y2, Y3)


def sl3_basis() -> liealg.Basis:
    """The eight-matrix basis H1, H2, X1..X3, Y1..Y3."""
    return liealg.Basis("sl(3,C)", _LABELS, _basis_matrices())


@dataclass(frozen=True)
class Root:
    weight: tuple
    vector_label: str


def sl3_roots() -> list:
    """The six roots, paired with their root vectors."""
    return [
        Root((2, -1), "X1"),
        Root((-1, 2), "X2"),
        Root((1, 1), "X3"),
        Root((-2, 1), "Y1"),
        Root((1, -2), "Y2"),
        Root((-1, -1), "Y3"),
    ]


def is_higher(mu1, mu2) -> bool:
    """mu1 >= mu2 in the simple-root order: mu1 - mu2 = a(2,-1) + b(-1,2)
    with a >= 0 and b >= 0 (a, b may be non-integers)."""
    d1 = mu1[0] - mu2[0]
    d2 = mu1[1] - mu2[1]
    a = Fraction(2 * d1 + d2, 3)
    b = Fraction(d1 + 2 * d2, 3)
    return a >= 0 and b >= 0


def sl3_standard_rep() -> Representation:
    """Generators are the basis matrices themselves; weights (1,0), (-1,1), (0,-1)."""
    return Representation(
        "sl(3,C)",
        _LABELS,
        _basis_matrices(),
        {0: (1, 0), 1: (-1, 1), 2: (0, -1)},
    )


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
    (H1, H2), (X1, X2), (Y1, Y2), weights = _gelfand_tsetlin((m1 + m2, m2, 0))
    X3, Y3 = ((_commutator(A, B), Da * Db) for (A, Da), (B, Db) in ((X1, X2), (Y2, Y1)))
    rep = Representation.from_rows("sl(3,C)", _LABELS, (H1, H2, X1, X2, X3, Y1, Y2, Y3),
                                   dict(enumerate(weights)), relations_hold=True)
    return rep, dict(Counter(weights))


# --- Weyl group ------------------------------------------------------------

@functools.cache
def _weyl() -> tuple:
    """(the six signed permutation matrices, integer H1 and H2), built on first use."""
    return tuple(matcore.rmat(P) for P in (
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 0, 1], [1, 0, 0], [0, 1, 0]],
        [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
        [[0, -1, 0], [-1, 0, 0], [0, 0, -1]],
        [[0, 0, -1], [0, -1, 0], [-1, 0, 0]],
        [[-1, 0, 0], [0, 0, -1], [0, -1, 0]],
    )), tuple(H.astype(int) for H in _basis_matrices()[:2])


@dataclass(frozen=True)
class WeylElement:
    index: int
    matrix: object  # an exact 3x3 numpy array


def weyl_elements() -> list:
    """The six signed permutations whose adjoint action permutes weights."""
    return [WeylElement(i, P) for i, P in enumerate(_weyl()[0])]


def weyl_act(w: WeylElement, mu) -> tuple:
    """Action on weights, mu -> mu o Ad(w^-1): coordinate i is mu(P^T H_i P)
    for the matrix P of w, and mu(diag(a, b, c)) = m1 a - m2 c."""
    P = w.matrix.astype(int)
    diags = ((P.T @ H @ P).diagonal().tolist() for H in _weyl()[1])
    return tuple(mu[0] * d[0] - mu[1] * d[2] for d in diags)


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
