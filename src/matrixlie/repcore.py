"""Representation values and structural constructions.

A Representation is a labeled family of generators (one per basis symbol
of the algebra) acting on a common d-dimensional space, optionally
annotated with a weight per basis vector.  Generators are held as sparse
rows (see matcore), with Fraction entries if the representation is exact
and complex ones if it is floating; rows are never changed once held.
Builders, constructions, the relation check and JSON output work on rows
with no dense d x d scan; dense arrays are accepted at construction and
built on demand.  Direct sum, tensor product and dual
preserve the homomorphism property; the tensor index convention is
row-major, index = i1 * d2 + i2.

``relations_hold`` records that the generators are known to satisfy the
bracket relations of their algebra, so a consumer such as sl2_decompose
may skip verify_relations.  Only the irreducible builders set it
(sl2_irrep, sl2_poly_irrep, sl3_highest_weight_irrep), and direct_sum,
tensor_product and dual keep it when all their inputs have it.
Representation(...), from_rows by default and rep_from_json leave it
unset, so a hand-built or JSON representation is always checked.  The
flag is sound only because rows are never changed once held: do not
mutate ``rows`` of a representation after construction.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

import numpy as np

from .errors import DomainError, ShapeError
from .liealg import Basis, structure_constants
from .matcore import (
    _axpy,
    _commutator,
    _dense,
    _json_matrix,
    _rows_to_json,
    _sparse_rows,
    frobenius_norm,
    is_rational,
)

__all__ = [
    "Representation",
    "verify_relations",
    "direct_sum",
    "tensor_product",
    "dual",
    "rep_to_json",
    "rep_from_json",
]


def _check_shapes(labels, shapes):
    """ShapeError unless there is one nonempty square generator per label, all of one size."""
    if not shapes:
        raise ShapeError("a representation needs at least one generator")
    if len(labels) != len(shapes):
        raise ShapeError("label count does not match generator count")
    n = max(shapes[0], default=0)
    if not n or any(s != (n, n) for s in shapes):
        raise ShapeError("generators must be nonempty square matrices of one size")


class Representation:
    """Generators as sparse rows (``rows``, one list of row dicts per label),
    exact or floating (``exact``), with optional weights (basis index ->
    int or tuple); ``relations_hold`` if the generators are known to satisfy
    the relations (see the module docstring)."""

    def __init__(self, algebra: str, labels, generators, weights: dict | None = None):
        """Take generators as object (exact) or complex (floating) arrays."""
        gens = tuple(np.asarray(g) for g in generators)
        _check_shapes(labels, [g.shape for g in gens])
        exact = all(is_rational(g) for g in gens)
        self._take(algebra, labels, [_sparse_rows(g) for g in gens], weights, exact, False)

    @classmethod
    def from_rows(cls, algebra: str, labels, rows, weights=None, exact=True,
                  relations_hold=False):
        """A representation on generators given as sparse rows.  Pass
        relations_hold=True only for generators that satisfy the relations
        by construction."""
        rep = cls.__new__(cls)
        rep._take(algebra, labels, rows, weights, exact, relations_hold)
        return rep

    def _take(self, algebra, labels, rows, weights, exact, relations_hold):
        if not exact:
            rows = [[{j: complex(x) for j, x in row.items()} for row in g] for g in rows]
        self.algebra, self.labels, self.rows = algebra, tuple(labels), tuple(rows)
        self.weights, self.exact, self.relations_hold = weights, exact, relations_hold

    @property
    def dim(self) -> int:
        return len(self.rows[0])

    @property
    def generators(self) -> tuple:
        return tuple(_dense(g, (self.dim, self.dim), self.exact) for g in self.rows)

    def rows_of(self, label: str) -> list:
        return self.rows[self.labels.index(label)]

    def generator(self, label: str):
        return _dense(self.rows_of(label), (self.dim, self.dim), self.exact)


def verify_relations(rep: Representation, basis: Basis, tol_abs: float = 1e-10) -> bool:
    """Check pi([b_i, b_j]) = [pi(b_i), pi(b_j)] for all basis pairs; the
    generators must carry the basis labels in the basis order (DomainError).

    Uses the exact structure constants of the basis.  A rational
    representation is checked in integers: with D the lcm of the
    denominators of all generator entries and N_i = D pi(b_i), check
    [N_i, N_j] = D sum_k c_ijk N_k, both sides scaled by the lcm E of the
    denominators of c_ij.  A floating one passes when the residual of
    each pair is within tol_abs in Frobenius norm.
    """
    if len(rep.rows) != len(basis):
        raise ShapeError("generator count does not match basis size")
    if rep.labels != tuple(basis.labels):
        raise DomainError(f"generator labels {rep.labels} are not the basis labels {basis.labels}")
    c = structure_constants(basis)
    exact = rep.exact
    if exact:
        D = math.lcm(*(x.denominator for g in rep.rows for row in g for x in row.values()))
        gens = [[{j: int(x * D) for j, x in row.items()} for row in g] for g in rep.rows]
    else:
        D, gens = 1, rep.rows
    scalar = int if exact else complex
    for i, j in itertools.combinations(range(len(gens)), 2):
        E = math.lcm(*(x.denominator for x in c[i, j])) if exact else 1
        acc = _commutator(gens[i], gens[j], E)
        for k in np.flatnonzero(c[i, j]).tolist():
            s = scalar(-D * E * c[i, j, k])
            for r, row in enumerate(gens[k]):
                _axpy(acc[r], s, row)
        if exact:
            if any(acc):
                return False
        elif not frobenius_norm(np.array([x for r in acc for x in r.values()], complex)) <= tol_abs:
            return False  # also when the residual overflows to inf or nan
    return True


def _gelfand_tsetlin(top):
    """The gl(n) irreducible with highest weight top (nonincreasing integers)
    on its Gelfand-Tsetlin basis: sparse rows H, X, Y of E_kk - E_k+1,k+1,
    E_k,k+1 and E_k+1,k for k = 1..n-1, and the H_k eigenvalues of each
    basis vector.  Vector j is the j-th pattern, its rows n..1 read as one
    tuple in descending order, so the top pattern comes first.  By Molev
    (arXiv:math/0211289, Thm 2.3), with l_ki = lam_ki - i + 1, E_k,k+1 and
    E_k+1,k take a pattern to sum_i c_i (pattern with lam_ki +- 1), a pattern
    that breaks betweenness being 0, where c_i is -prod_j (l_ki - l_k+1,j)
    or prod_j (l_ki - l_k-1,j), over prod_j!=i (l_ki - l_kj).
    """
    n = len(top)
    start = [(n * (n + 1) - k * (k + 1)) // 2 for k in range(n + 1)]  # where row k begins
    rows = [slice(start[k], start[k] + k) for k in range(n + 1)]
    patterns = [tuple(x - i for i, x in enumerate(top))]  # held as the l_ki
    for k in range(n - 1, 0, -1):
        a = start[k + 1]  # l_k+1,i >= l_ki > l_k+1,i+1
        patterns = [p + row for p in patterns for row in itertools.product(
            *(range(p[a + i], p[a + i + 1], -1) for i in range(k)))]
    index = {p: j for j, p in enumerate(patterns)}
    H, X, Y = ([[{} for _ in patterns] for _ in range(n - 1)] for _ in range(3))
    weights = []
    for j, p in enumerate(patterns):
        s = [sum(p[r]) for r in rows]  # E_kk has eigenvalue s[k] - s[k-1] + k - 1
        weights.append(w := tuple([2 * s[k] - s[k - 1] - s[k + 1] - 1 for k in range(1, n)]))
        for k in range(1, n):
            if w[k - 1]:
                H[k - 1][j][j] = Fraction(w[k - 1])
            for c in range(start[k], start[k] + k):
                l = p[c]
                den = math.prod(l - t for t in p[rows[k]] if t != l)
                for G, step, sign, other in ((X, 1, -1, rows[k + 1]), (Y, -1, 1, rows[k - 1])):
                    if (i := index.get(p[:c] + (l + step,) + p[c + 1:])) is not None:
                        G[k - 1][i][j] = Fraction(sign * math.prod(l - t for t in p[other]), den)
    return H, X, Y, weights


def _weight_map(f, *ws):
    """f applied to weights: entrywise to tuples, directly to integers."""
    return tuple(map(f, *ws)) if isinstance(ws[0], tuple) else f(*ws)


def _check_compatible(r1: Representation, r2: Representation):
    if r1.algebra != r2.algebra or r1.labels != r2.labels:
        raise DomainError("representations are of different algebras")


def direct_sum(r1: Representation, r2: Representation) -> Representation:
    """Block-diagonal sum; weight annotations concatenate."""
    _check_compatible(r1, r2)
    d1 = r1.dim
    rows = tuple(
        g1 + [{d1 + j: x for j, x in row.items()} for row in g2]
        for g1, g2 in zip(r1.rows, r2.rows)
    )
    weights = None
    if r1.weights is not None and r2.weights is not None:
        weights = dict(r1.weights)
        weights.update({d1 + i: w for i, w in r2.weights.items()})
    return Representation.from_rows(r1.algebra, r1.labels, rows, weights, r1.exact and r2.exact,
                                    r1.relations_hold and r2.relations_hold)


def _kron_sum(A, B):
    """Sparse rows of A (x) I + I (x) B."""
    d2 = len(B)
    out = []
    for i, a in enumerate(A):
        for k, b in enumerate(B):
            row = {j * d2 + k: x for j, x in a.items()}
            _axpy(row, 1, {i * d2 + l: y for l, y in b.items()})
            out.append(row)
    return out


def tensor_product(r1: Representation, r2: Representation) -> Representation:
    """Generators pi1(b) (x) I + I (x) pi2(b); weights add factorwise."""
    _check_compatible(r1, r2)
    d2 = r2.dim
    rows = tuple(_kron_sum(g1, g2) for g1, g2 in zip(r1.rows, r2.rows))
    weights = None
    if r1.weights is not None and r2.weights is not None:
        weights = {
            i1 * d2 + i2: _weight_map(operator.add, w1, w2)
            for i1, w1 in r1.weights.items()
            for i2, w2 in r2.weights.items()
        }
    return Representation.from_rows(r1.algebra, r1.labels, rows, weights, r1.exact and r2.exact,
                                    r1.relations_hold and r2.relations_hold)


def _negated_transpose(rows):
    out = [{} for _ in rows]
    for i, row in enumerate(rows):
        for j, x in row.items():
            out[j][i] = -x
    return out


def dual(rep: Representation) -> Representation:
    """Generators -(pi(b))^T; weights negate.  dual(dual(r)) == r."""
    rows = tuple(_negated_transpose(g) for g in rep.rows)
    weights = None
    if rep.weights is not None:
        weights = {i: _weight_map(operator.neg, w) for i, w in rep.weights.items()}
    return Representation.from_rows(rep.algebra, rep.labels, rows, weights, rep.exact,
                                    rep.relations_hold)


def rep_to_json(rep: Representation) -> dict:
    out = {
        "algebra": rep.algebra,
        "labels": list(rep.labels),
        "dim": rep.dim,
        "generators": [_rows_to_json(g, rep.dim, rep.exact) for g in rep.rows],
    }
    if rep.weights is not None:
        out["weights"] = {
            str(i): list(w) if isinstance(w, tuple) else w
            for i, w in sorted(rep.weights.items())
        }
    return out


def rep_from_json(obj: dict) -> Representation:
    if not isinstance(obj, dict):
        raise DomainError(f"a representation is a JSON object, got {type(obj).__name__}")
    labels, gens, weights = obj["labels"], obj["generators"], obj.get("weights")
    if not isinstance(labels, list) or not isinstance(gens, list):
        raise DomainError('"labels" and "generators" must be lists')
    mats = [_json_matrix(g) for g in gens]  # exact: sparse rows; floating: dense
    _check_shapes(labels, [(len(M), cols) for M, cols in mats])
    if weights is not None:
        if not isinstance(weights, dict):
            raise DomainError('"weights" must be an object of basis index -> weight')
        if set(weights) != {str(i) for i in range(mats[0][1])}:
            raise ShapeError('the "weights" keys must be the basis indices 0..dim-1')
        shapes = {len(w) if type(w) is list else None for w in weights.values()}
        entries = (x for w in weights.values() for x in (w if type(w) is list else [w]))
        if len(shapes) > 1 or not all(type(x) is int for x in entries):  # bool is not int
            raise DomainError("every weight must be an integer, or a list of integers, of one shape")
        weights = {int(i): tuple(w) if type(w) is list else w for i, w in weights.items()}
    exact = all(type(M) is list for M, _ in mats)
    rows = [M if type(M) is list else _sparse_rows(M) for M, _ in mats]
    return Representation.from_rows(obj["algebra"], labels, rows, weights, exact)
