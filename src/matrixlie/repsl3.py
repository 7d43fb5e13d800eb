"""sl(3,C): basis, roots, weights, highest-weight irreps, Weyl group.

The irreducible with highest weight (m1, m2) is constructed inside the
tensor product of m1 copies of the standard representation and m2
copies of its dual, as the closure of the top weight vector under all
eight generators.  All arithmetic is exact rational, and every closure
vector is a weight vector by construction, so weight multiplicities are
read off combinatorially.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, LieError
from .liealg import Basis
from .matcore import _axpy, rmat, rzeros
from .repcore import Representation

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


def _basis_matrices():
    H1 = rmat([[1, 0, 0], [0, -1, 0], [0, 0, 0]])
    H2 = rmat([[0, 0, 0], [0, 1, 0], [0, 0, -1]])
    X1 = rmat([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    X2 = rmat([[0, 0, 0], [0, 0, 1], [0, 0, 0]])
    X3 = rmat([[0, 0, 1], [0, 0, 0], [0, 0, 0]])
    Y1 = rmat([[0, 0, 0], [1, 0, 0], [0, 0, 0]])
    Y2 = rmat([[0, 0, 0], [0, 0, 0], [0, 1, 0]])
    Y3 = rmat([[0, 0, 0], [0, 0, 0], [1, 0, 0]])
    return (H1, H2, X1, X2, X3, Y1, Y2, Y3)


def sl3_basis() -> Basis:
    """The eight-matrix basis H1, H2, X1..X3, Y1..Y3."""
    return Basis("sl(3,C)", _LABELS, _basis_matrices())


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
    gens = tuple(-(Z.T).copy() for Z in _basis_matrices())
    return Representation(
        "sl(3,C)", _LABELS, gens, {0: (-1, 0), 1: (1, -1), 2: (0, 1)}
    )


def sl3_dim_formula(m1: int, m2: int) -> int:
    """(m1+1)(m2+1)(m1+m2+2)/2 — dimension of the (m1, m2) irreducible."""
    if m1 < 0 or m2 < 0:
        raise ValueError("m1, m2 must be nonnegative integers")
    return (m1 + 1) * (m2 + 1) * (m1 + m2 + 2) // 2


def _apply_factorwise(cols_per_factor, vec):
    """Apply sum_f I x..x g_f x..x I to a sparse vector {index tuple: Fraction}.

    cols_per_factor[f][c] lists the nonzero entries (row, value) of column
    c of the 3x3 matrix g_f.
    """
    out = {}
    for idx, coeff in vec.items():
        for f, cols in enumerate(cols_per_factor):
            for row, g in cols[idx[f]]:
                new_idx = idx[:f] + (row,) + idx[f + 1 :]
                out[new_idx] = out.get(new_idx, 0) + coeff * g
    return {k: v for k, v in out.items() if v != 0}


def sl3_highest_weight_irrep(m1: int, m2: int, cap: int = 6):
    """The irreducible with highest weight (m1, m2), plus its weight multiset.

    Built as the cyclic closure of e1^(x)m1 (x) e3'^(x)m2 inside
    (standard)^(x)m1 (x) (dual)^(x)m2, in exact rational arithmetic.
    Returns (Representation with weight annotations, weight multiset dict).

    Closure vectors of different weights have disjoint tensor supports, so
    the span is kept as one fully reduced row set per weight, each row
    carrying its coordinates over the closure basis.  Reducing a generator
    image against its weight's rows either adds it to the basis or gives
    its coordinates, which are that generator's column.
    """
    if m1 < 0 or m2 < 0:
        raise ValueError("m1, m2 must be nonnegative integers")
    if m1 + m2 > cap:
        raise LieError(
            f"m1 + m2 = {m1 + m2} exceeds the cap {cap} (ambient 3^(m1+m2))"
        )
    N = m1 + m2
    if N == 0:
        gens = tuple(rzeros(1, 1) for _ in _LABELS)
        rep = Representation("sl(3,C)", _LABELS, gens, {0: (0, 0)})
        return rep, {(0, 0): 1}

    std = _basis_matrices()
    antifund = tuple(-(Z.T).copy() for Z in std)
    std_cols, anti_cols = (
        [[[(r, Z[r, c]) for r in range(3) if Z[r, c] != 0] for c in range(3)] for Z in gens]
        for gens in (std, antifund)
    )
    factor_cols = [std_cols] * m1 + [anti_cols] * m2
    factor_weights = [{0: (1, 0), 1: (-1, 1), 2: (0, -1)}] * m1 + [
        {0: (-1, 0), 1: (1, -1), 2: (0, 1)}
    ] * m2

    def tensor_weight(idx):
        w1 = sum(factor_weights[f][idx[f]][0] for f in range(N))
        w2 = sum(factor_weights[f][idx[f]][1] for f in range(N))
        return (w1, w2)

    basis_vectors = []  # sparse dicts
    basis_weights = []
    spans = {}  # weight -> [(pivot, reduced row, its closure coordinates)]

    def coords_or_add(v):
        """Closure coordinates of weight vector v, adding v to the basis if new."""
        w = tensor_weight(next(iter(v)))
        rows = spans.setdefault(w, [])
        res, coords = dict(v), {}
        for p, row, crd in rows:
            a = v.get(p)
            if a:
                _axpy(res, -a, row)
                _axpy(coords, a, crd)
        if not res:
            return coords
        assert len({tensor_weight(idx) for idx in v}) == 1, "closure vector is not a weight vector"
        j = len(basis_vectors)
        basis_vectors.append(v)
        basis_weights.append(w)
        p = min(res)
        inv = 1 / res[p]
        row = {k: x * inv for k, x in res.items()}
        crd = {k: -x * inv for k, x in coords.items()}
        crd[j] = inv
        for _, other, other_crd in rows:
            a = other.get(p)
            if a:
                _axpy(other, -a, row)
                _axpy(other_crd, -a, crd)
        rows.append((p, row, crd))
        return {j: Fraction(1)}

    # top vector: e1 in each standard factor, e3 in each dual factor
    coords_or_add({tuple([0] * m1 + [2] * m2): Fraction(1)})
    columns = [{} for _ in _LABELS]  # generator -> {(i, j): entry}
    frontier = [0]
    while frontier:
        new_frontier = []
        for vi in frontier:
            for gi in range(8):
                img = _apply_factorwise([cols[gi] for cols in factor_cols], basis_vectors[vi])
                if not img:
                    continue
                d = len(basis_vectors)
                for i, x in coords_or_add(img).items():
                    columns[gi][i, vi] = x
                if len(basis_vectors) > d:
                    new_frontier.append(d)
        frontier = new_frontier

    d = len(basis_vectors)
    gens = []
    for entries in columns:
        G = rzeros(d, d)
        for (i, j), x in entries.items():
            G[i, j] = x
        gens.append(G)
    weights = {j: basis_weights[j] for j in range(d)}
    rep = Representation("sl(3,C)", _LABELS, tuple(gens), weights)
    mult = {}
    for w in basis_weights:
        mult[w] = mult.get(w, 0) + 1
    return rep, mult


# --- Weyl group ------------------------------------------------------------

_WEYL_MATRICES = [
    rmat([[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
    rmat([[0, 0, 1], [1, 0, 0], [0, 1, 0]]),
    rmat([[0, 1, 0], [0, 0, 1], [1, 0, 0]]),
    rmat([[0, -1, 0], [-1, 0, 0], [0, 0, -1]]),
    rmat([[0, 0, -1], [0, -1, 0], [-1, 0, 0]]),
    rmat([[-1, 0, 0], [0, 0, -1], [0, -1, 0]]),
]

_WEYL_ACTIONS = [
    lambda m1, m2: (m1, m2),
    lambda m1, m2: (-m1 - m2, m1),
    lambda m1, m2: (m2, -m1 - m2),
    lambda m1, m2: (-m1, m1 + m2),
    lambda m1, m2: (-m2, -m1),
    lambda m1, m2: (m1 + m2, -m2),
]


@dataclass(frozen=True)
class WeylElement:
    index: int
    matrix: np.ndarray


def weyl_elements() -> list:
    """The six signed permutations whose adjoint action permutes weights."""
    return [WeylElement(i, _WEYL_MATRICES[i]) for i in range(6)]


def weyl_act(w: WeylElement, mu) -> tuple:
    """Action on weights: w0 identity, w1 (m1,m2) -> (-m1-m2, m1), etc."""
    return _WEYL_ACTIONS[w.index](mu[0], mu[1])


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
