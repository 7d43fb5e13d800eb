"""Representation values and structural constructions.

A Representation is a labeled family of generators (one per basis symbol
of the algebra) acting on a common d-dimensional space, optionally
annotated with a weight per basis vector.  Generator k is held as
``held[k] = (N, D)``, sparse rows N (see rowcore) over one denominator D:
integer rows over a positive integer if the representation is exact,
complex rows over 1 if it is floating.  Builders, constructions, the
relation check and JSON output work on them with no Fraction made and no
dense d x d scan; ``rows`` reads them as Fractions, and the exact relation
check packs rows into integers on dense generators (DENSE_ROW).  The
irreducibles come from one builder, _gelfand_tsetlin: a pattern pass that
carries the row sums, and a matrix pass that puts each generator over its
least common denominator in the same loop that makes its entries.  Direct sum
and tensor product, over the lcm of the denominators, and dual preserve the
homomorphism property; the tensor index is row-major, i1 * d2 + i2.

``relations_hold`` records that the generators are known to satisfy the
bracket relations of their algebra, so a consumer such as sl2_decompose
may skip verify_relations.  Only the irreducible builders set it
(sl2_irrep, sl2_poly_irrep, sl3_highest_weight_irrep), and _construct,
under direct_sum, tensor_product and dual, keeps it if all inputs have it.
Representation(...), from_rows by default and rep_from_json leave it
unset, so a hand-built or JSON representation is always checked.  Trusted
constructions (see from_rows) and sl2_irrep build their rows on the first
read of ``held``; the flag is sound as held rows never change: do not mutate them.
"""

from __future__ import annotations

import itertools
import json
import math
import operator

from . import liealg, matcore  # lazy (see the package): only dense or floating work loads them
from .errors import DomainError, ShapeError
from .rowcore import (
    _axpy,
    _commutator,
    _fractions,
    _integer_rows,
    _json_matrix,
    _residuals_vanish,
    _rows_to_json,
    _rows_to_text,
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

# the exact relation check packs rows (rowcore._residuals_vanish) if the first generator has more
# than DENSE_ROW nonzeros a row: on sl(2) reps, 1.2-2.3x faster above 3.3, 2x slower below 1
DENSE_ROW = 3

# json.dumps(obj, sort_keys=True, separators=(",", ":")) builds an encoder on every call
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _check_shapes(labels, shapes, weights=None, key=int):
    """ShapeError unless one nonempty square generator per label, all of one size, and weights,
    if given, a dict keyed by the basis indices i as key(i); DomainError if labels repeat."""
    if not shapes:
        raise ShapeError("a representation needs at least one generator")
    if len(labels) != len(shapes):
        raise ShapeError("label count does not match generator count")
    if len(set(map(repr, labels))) < len(labels):  # repr: JSON labels may be unhashable
        raise DomainError(f"generator labels {list(labels)} repeat")
    n = max(shapes[0], default=0)
    if not n or any(s != (n, n) for s in shapes):
        raise ShapeError("generators must be nonempty square matrices of one size")
    if weights is not None and (not isinstance(weights, dict)
                                or weights.keys() != set(map(key, range(n)))):
        raise ShapeError('the "weights" keys must be the basis indices 0..dim-1')


class Representation:
    """Generators held as (integer rows, D) pairs, ``held`` (see the module
    docstring), exact or floating (``exact``), with optional weights (basis
    index -> int or tuple); ``relations_hold`` if the generators are known to
    satisfy the relations."""

    def __init__(self, algebra: str, labels, generators, weights: dict | None = None):
        """Take generators as object (exact) or complex (floating) arrays."""
        import numpy as np

        gens = tuple(np.asarray(g) for g in generators)
        _check_shapes(labels, [g.shape for g in gens], weights)
        exact = all(map(matcore.is_rational, gens))
        self._hold(algebra, labels, [matcore._sparse_rows(g) for g in gens], weights, exact, False)

    @classmethod
    def from_rows(cls, algebra: str, labels, rows, weights=None, exact=True, relations_hold=False):
        """A representation on generators given as sparse rows (a list, of Fraction entries if
        exact) or (rows, D) pairs (a tuple), as held, or a callable returning them: called on
        the first read of held if relations_hold and weights are given, else at once.  Pass
        relations_hold=True only for generators that satisfy the relations by construction;
        else the rows and weights are checked as Representation(...) checks its arguments."""
        rep = cls.__new__(cls)._hold(algebra, labels, rows, weights, exact, relations_hold)
        if not relations_hold:  # a column outside range(len(N)) makes N not square
            _check_shapes(labels, [(len(N), len(N) if all(c in range(len(N)) for r in N for c in r)
                                    else 0) for N, _ in rep.held], weights)
        return rep

    def _hold(self, algebra, labels, rows, weights, exact, relations_hold):
        self.algebra, self.labels, self.weights = algebra, tuple(labels), weights
        self.exact, self.relations_hold = exact, relations_hold
        self._held = rows if callable(rows) else lambda: rows
        if not (relations_hold and weights is not None):
            self._held = self.held  # untrusted rows are built at once
        return self

    @property
    def held(self) -> tuple:
        """The generators as (rows, D) pairs, built on the first read if deferred."""
        if callable(self._held):
            held = [g if type(g) is tuple else _integer_rows(g) if self.exact else (g, 1)
                    for g in self._held()]
            self._held = tuple(held if self.exact else _floating(held))
        return self._held

    @property
    def rows(self) -> tuple:
        """The generators as new sparse rows of Fraction (exact) or complex entries."""
        return tuple(map(self._rows, self.held))

    def _rows(self, held: tuple) -> list:
        return _fractions(*held) if self.exact else list(map(dict, held[0]))

    @property
    def dim(self) -> int:
        return len(self.weights) if callable(self._held) else len(self._held[0][0])

    @property
    def generators(self) -> tuple:
        return tuple(matcore._dense(g, (self.dim, self.dim), self.exact) for g in self.rows)

    def rows_of(self, label: str) -> list:
        """rows[i] for the generator i of this label, the others not converted."""
        return self._rows(self.held[self.labels.index(label)])

    def generator(self, label: str):
        return matcore._dense(self.rows_of(label), (self.dim, self.dim), self.exact)


def _floating(held):
    """(rows, D) pairs as complex rows over 1."""
    return [([{j: complex(x / D) for j, x in row.items()} for row in g], 1) for g, D in held]


def verify_relations(rep: Representation, basis, tol_abs: float = 1e-10) -> bool:
    """Check pi([b_i, b_j]) = [pi(b_i), pi(b_j)] for all basis pairs; the
    generators must carry the basis labels in the basis order (DomainError).

    Uses the exact structure constants of the basis.  A rational
    representation is checked on its integer rows: with pi(b_i) = N_i / D_i,
    check [N_i, N_j] L / (D_i D_j) = sum_k c_ijk (L / D_k) N_k for L the lcm
    of D_i D_j and every D_k E, E the lcm of the denominators of c_ij, by
    sparse-row products or, on dense generators, rowcore._residuals_vanish.
    A floating one passes when the residual of each pair is within tol_abs
    in Frobenius norm.
    """
    return _verify_relations(rep, tuple(basis.labels), liealg._constants(basis.elements), tol_abs)


def _verify_relations(rep: Representation, labels: tuple, c: dict, tol_abs: float = 1e-10) -> bool:
    """verify_relations given the basis labels and its structure constants c
    as rowcore._constants gives them."""
    if len(rep.held) != len(labels):
        raise ShapeError("generator count does not match basis size")
    if rep.labels != labels:
        raise DomainError(f"generator labels {rep.labels} are not the basis labels {labels}")
    exact, (gens, D) = rep.exact, zip(*rep.held)
    terms = []  # (i, j, s, {k: s_k}): pair (i, j) holds when s [N_i, N_j] + sum_k s_k N_k = 0
    for (i, j), cij in c.items():
        E = math.lcm(*(x.denominator for x in cij.values())) if exact else 1
        L = math.lcm(D[i] * D[j], *(D[k] * E for k in cij))
        terms.append((i, j, L // (D[i] * D[j]), {k: -(L // D[k]) // x.denominator * x.numerator
                                                  if exact else complex(-x) for k, x in cij.items()}))
    if exact and sum(map(len, gens[0])) > DENSE_ROW * len(gens[0]):
        return _residuals_vanish(gens, terms)
    for i, j, s, sk in terms:
        acc = _commutator(gens[i], gens[j], s)
        for k, t in sk.items():
            for r, row in enumerate(gens[k]):
                _axpy(acc[r], t, row)
        res = [x for r in acc for x in r.values()]  # the nonzero entries of the residual
        if res and (exact or not matcore.frobenius_norm(res) <= tol_abs):
            return False  # also when a floating residual overflows to inf or nan
    return True


def _gelfand_tsetlin(top):
    """The gl(n) irreducible with highest weight top (nonincreasing integers)
    on its Gelfand-Tsetlin basis: the H_k eigenvalues of each basis vector and
    the matrix pass, a callable that builds (integer rows, D) pairs H, X, Y of
    E_kk - E_k+1,k+1, E_k,k+1 and E_k+1,k for k = 1..n-1.  Vector j is the j-th
    pattern, its rows n..1 read as one tuple in descending order, so the top
    pattern comes first.  By Molev (arXiv:math/0211289, Thm 2.3), with l_ki =
    lam_ki - i + 1, E_k,k+1 and E_k+1,k take a pattern to sum_i c_i (pattern
    with lam_ki +- 1), a pattern that breaks betweenness being 0, where c_i is
    -prod_j (l_ki - l_k+1,j) or prod_j (l_ki - l_k-1,j), over prod_j!=i (l_ki - l_kj).
    """
    n = len(top)
    start = [(n * (n + 1) - k * (k + 1)) // 2 for k in range(n + 1)]  # where row k begins
    rows = [slice(start[k], start[k] + k) for k in range(n + 1)]
    top = tuple(x - i for i, x in enumerate(top))  # a pattern is held as the l_ki
    patterns = [(top, (sum(top), 0))]  # with the sums s_k, ..., s_n of its rows, and s_0 = 0
    for k in range(n - 1, 0, -1):
        a = start[k + 1]  # l_k+1,i >= l_ki > l_k+1,i+1
        patterns = [(p + row, (sum(row),) + s) for p, s in patterns for row in itertools.product(
            *(range(p[a + i], p[a + i + 1], -1) for i in range(k)))]
    # E_kk has eigenvalue s_k - s_k-1 + k - 1; s[k - 1] is s_k, and s[-1] is s_0
    weights = [tuple([2 * s[k - 1] - s[k - 2] - s[k] - 1 for k in range(1, n)]) for _, s in patterns]
    patterns = [p for p, _ in patterns]

    def matrices():
        index = {p: j for j, p in enumerate(patterns)}
        H = [[{j: w[k]} if w[k] else {} for j, w in enumerate(weights)] for k in range(n - 1)]
        X, Y = ([[{} for _ in patterns] for _ in range(n - 1)] for _ in range(2))
        DX, DY = [1] * (n - 1), [1] * (n - 1)  # the lcm so far of the X_k and Y_k denominators
        for j, p in enumerate(patterns):
            for k in range(1, n):
                for c in range(start[k], start[k] + k):  # i is j with l_kc + 1: X[i][j], Y[j][i]
                    if (i := index.get(p[:c] + (p[c] + 1,) + p[c + 1:])) is not None:
                        l, xn, xd, yn, yd = p[c], -1, 1, 1, 1
                        for t in p[rows[k + 1]]:
                            xn *= l - t
                        for t in p[rows[k - 1]]:
                            yn *= l + 1 - t
                        for t in p[rows[k]]:
                            if t != l:
                                xd, yd = xd * (l - t), yd * (l + 1 - t)
                        DX[k - 1] = _put_over_lcm(X[k - 1], DX[k - 1], i, j, xn, xd)
                        DY[k - 1] = _put_over_lcm(Y[k - 1], DY[k - 1], j, i, yn, yd)
        return [(g, 1) for g in H], list(zip(X, DX)), list(zip(Y, DY))
    return weights, matrices


def _put_over_lcm(rows: list[dict], D: int, i: int, j: int, a: int, b: int) -> int:
    """Put a / b (b != 0, any signs) at rows[i][j] of integer rows over D > 0, the lcm of
    their denominators, and return the new lcm: if it grows, the rows are rescaled."""
    x, r = divmod(a * D, b)
    if r:  # the lcm grows by |b| / gcd(a D, b), the reduced denominator of a D / b
        e = abs(b) // math.gcd(a * D, b)
        for row in rows:
            for c in row:
                row[c] *= e
        D, x = D * e, a * D * e // b
    rows[i][j] = x
    return D


def _construct(reps: tuple, generator, weight, op=None) -> Representation:
    """The rep on generator(*the held pairs k of reps, flattened) for each k, the one rule of
    direct_sum, tensor_product and dual: the reps share algebra and labels; exact if all are,
    else all read floating; relations_hold if all do; and if all have weights, of one shape
    (else DomainError), weight(f, *their weights), f being op on integer weights and op
    entrywise on tuples."""
    if any((r.algebra, r.labels) != (reps[0].algebra, reps[0].labels) for r in reps):
        raise DomainError("representations are of different algebras")
    exact, weights = all(r.exact for r in reps), [r.weights for r in reps]
    if None in weights:
        weights = None
    else:
        shapes = {len(w) if isinstance(w, tuple) else None for W in weights for w in W.values()}
        if len(shapes) > 1:
            raise DomainError("the representations' weights differ in shape")
        weights = weight(op if None in shapes else lambda *w: tuple(map(op, *w)), *weights)
    return Representation.from_rows(
        reps[0].algebra, reps[0].labels, lambda: [generator(*itertools.chain(*g)) for g in zip(*(
            r.held if r.exact == exact else _floating(r.held) for r in reps))],
        weights, exact, all(r.relations_hold for r in reps))


def _block_sum(A, Da: int, B, Db: int) -> tuple:
    """(Sparse rows, D) of the block-diagonal sum of A/Da and B/Db, with D = lcm(Da, Db)."""
    D = math.lcm(Da, Db)
    return ([{j: x * (D // Da) for j, x in row.items()} for row in A]
            + [{len(A) + j: x * (D // Db) for j, x in row.items()} for row in B], D)


def direct_sum(r1: Representation, r2: Representation) -> Representation:
    """Block-diagonal sum; weight annotations concatenate."""
    d1 = r1.dim
    return _construct((r1, r2), _block_sum,
                      lambda _, W1, W2: {**W1, **{d1 + i: w for i, w in W2.items()}})


def _kron_sum(A, Da: int, B, Db: int) -> tuple:
    """(Sparse rows, D) of A/Da (x) I + I (x) B/Db, with D = lcm(Da, Db)."""
    D = math.lcm(Da, Db)
    s, t, d2 = D // Da, D // Db, len(B)
    out = []
    for i, a in enumerate(A):
        for k, b in enumerate(B):
            row = {j * d2 + k: s * x for j, x in a.items()}
            for l, y in b.items():  # A (x) I and I (x) B meet only where l = k
                row[i * d2 + l] = t * y + row.get(i * d2 + l, 0)
            if not row.get(i * d2 + k, 1):
                del row[i * d2 + k]
            out.append(row)
    return out, D


def tensor_product(r1: Representation, r2: Representation) -> Representation:
    """Generators pi1(b) (x) I + I (x) pi2(b); weights add factorwise."""
    d2 = r2.dim
    return _construct((r1, r2), _kron_sum, lambda add, W1, W2: {
        i1 * d2 + i2: add(w1, w2) for i1, w1 in W1.items() for i2, w2 in W2.items()}, operator.add)


def _negated_transpose(rows, D: int) -> tuple:
    out = [{} for _ in rows]
    for i, row in enumerate(rows):
        for j, x in row.items():
            out[j][i] = -x
    return out, D


def dual(rep: Representation) -> Representation:
    """Generators -(pi(b))^T; weights negate.  dual(dual(r)) == r."""
    return _construct((rep,), _negated_transpose,
                      lambda neg, W: {i: neg(w) for i, w in W.items()}, operator.neg)


def rep_to_json(rep: Representation) -> dict:
    gens = ([_rows_to_json(g, D, rep.dim) for g, D in rep.held] if rep.exact
            else list(map(matcore.matrix_to_json, rep.generators)))
    return {"algebra": rep.algebra, "labels": list(rep.labels), "dim": rep.dim,
            "generators": gens, **_json_weights(rep)}


def _json_weights(rep: Representation) -> dict:
    """{"weights": basis index as a string -> int or list}, or {} without weights."""
    return {} if rep.weights is None else {"weights": {
        str(i): list(w) if isinstance(w, tuple) else w for i, w in sorted(rep.weights.items())}}


def _rep_text(rep: Representation) -> str:
    """json.dumps(rep_to_json(rep), sort_keys=True, separators=(",", ":")) of
    an exact rep, byte for byte, with its generators written from the held
    rows by _rows_to_text; "generators" sorts between "dim" and "labels"."""
    head, tail = (_ENCODER.encode(obj) for obj in (
        {"algebra": rep.algebra, "dim": rep.dim},
        {"labels": list(rep.labels), **_json_weights(rep)}))
    gens = ",".join(_rows_to_text(g, D, rep.dim) for g, D in rep.held)
    return f'{head[:-1]},"generators":[{gens}],{tail[1:]}'


def rep_from_json(obj: dict) -> Representation:
    if not isinstance(obj, dict):
        raise DomainError(f"a representation is a JSON object, got {type(obj).__name__}")
    labels, gens, weights = obj["labels"], obj["generators"], obj.get("weights")
    if not isinstance(labels, list) or not isinstance(gens, list):
        raise DomainError('"labels" and "generators" must be lists')
    if weights is not None and not isinstance(weights, dict):
        raise DomainError('"weights" must be an object of basis index -> weight')
    mats = [_json_matrix(g) for g in gens]  # exact: integer rows over D; floating: dense over 1
    _check_shapes(labels, [(len(M), cols) for M, _, cols in mats], weights, str)
    n = mats[0][2]
    dim = obj.get("dim", n)
    if type(dim) is not int:  # bool is not int
        raise DomainError('"dim" must be an integer')
    if dim != n:
        raise ShapeError(f'"dim" is {dim}, but the generators are {n}x{n}')
    if weights is not None:
        shapes = {len(w) if type(w) is list else None for w in weights.values()}
        entries = (x for w in weights.values() for x in (w if type(w) is list else [w]))
        if len(shapes) > 1 or not all(type(x) is int for x in entries):  # bool is not int
            raise DomainError("every weight must be an integer, or a list of integers, of one shape")
        weights = {int(i): tuple(w) if type(w) is list else w for i, w in weights.items()}
    exact = all(type(M) is list for M, _, _ in mats)
    gens = [(M, D) if type(M) is list else (matcore._sparse_rows(M), 1) for M, D, _ in mats]
    if not isinstance(obj["algebra"], str):
        raise DomainError('"algebra" must be a string')
    return Representation.__new__(Representation)._hold(  # checked above, unlike from_rows
        obj["algebra"], labels, gens, weights, exact, False)
