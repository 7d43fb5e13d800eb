"""Representation values and structural constructions.

A Representation is a labeled family of generator matrices (one per
basis symbol of the algebra) acting on a common d-dimensional space,
optionally annotated with a weight per basis vector.  Direct sum,
tensor product, and dual preserve the homomorphism property; the tensor
index convention is row-major, index = i1 * d2 + i2.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError
from .liealg import Basis, bracket, structure_constants
from .matcore import (
    _sparse_rows,
    frobenius_norm,
    is_rational,
    matrix_from_json,
    matrix_to_json,
    rzeros,
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


@dataclass(frozen=True)
class Representation:
    algebra: str
    labels: tuple
    generators: tuple
    weights: dict | None = None  # basis index -> weight (int or tuple)

    def __post_init__(self):
        d = self.generators[0].shape[0]
        assert all(g.shape == (d, d) for g in self.generators)
        assert len(self.labels) == len(self.generators)

    @property
    def dim(self) -> int:
        return self.generators[0].shape[0]

    def generator(self, label: str):
        return self.generators[self.labels.index(label)]


def verify_relations(rep: Representation, basis: Basis, tol_abs: float = 1e-10) -> bool:
    """Check pi([b_i, b_j]) = [pi(b_i), pi(b_j)] for all basis pairs.

    Uses the exact structure constants of the basis; exact for rational
    representations, within tol_abs in Frobenius norm for floating ones.
    """
    if len(rep.generators) != len(basis):
        raise ShapeError("generator count does not match basis size")
    c = structure_constants(basis)
    d = len(basis)
    if all(is_rational(g) for g in rep.generators):
        return _relations_hold_exactly(rep.generators, c)
    for i in range(d):
        for j in range(i + 1, d):
            lhs = bracket(rep.generators[i], rep.generators[j])
            rhs = np.zeros((rep.dim, rep.dim), dtype=complex)
            for k in range(d):
                if c[i, j, k] != 0:
                    rhs = rhs + float(c[i, j, k]) * rep.generators[k]
            if frobenius_norm(lhs - rhs) > tol_abs:
                return False
    return True


def _add_product(acc, A, B, s):
    """acc[i, j] += s (A B)_ij for sparse integer rows A, B."""
    for i, row in enumerate(A):
        for k, a in row.items():
            for j, b in B[k].items():
                acc[i, j] += s * a * b


def _relations_hold_exactly(gens, c) -> bool:
    """The relations in integers: with D the lcm of the denominators of all
    generator entries and N_i = D pi(b_i), check [N_i, N_j] = D sum_k c_ijk N_k,
    both sides scaled by the lcm E of the denominators of c_ij."""
    rows = [_sparse_rows(g) for g in gens]
    D = math.lcm(*(x.denominator for r in rows for row in r for x in row.values()))
    N = [[{j: int(x * D) for j, x in row.items()} for row in r] for r in rows]
    eye = [{r: 1} for r in range(len(rows[0]))]
    for i, j in itertools.combinations(range(len(gens)), 2):
        E = math.lcm(*(x.denominator for x in c[i, j]))
        acc = defaultdict(int)
        _add_product(acc, N[i], N[j], E)
        _add_product(acc, N[j], N[i], -E)
        for k in np.flatnonzero(c[i, j]).tolist():
            _add_product(acc, eye, N[k], -D * int(E * c[i, j, k]))
        if any(acc.values()):
            return False
    return True


def _check_compatible(r1: Representation, r2: Representation):
    if r1.algebra != r2.algebra or r1.labels != r2.labels:
        raise DomainError("representations are of different algebras")


def direct_sum(r1: Representation, r2: Representation) -> Representation:
    """Block-diagonal sum; weight annotations concatenate."""
    _check_compatible(r1, r2)
    d1, d2 = r1.dim, r2.dim
    exact = is_rational(r1.generators[0]) and is_rational(r2.generators[0])
    gens = []
    for g1, g2 in zip(r1.generators, r2.generators):
        if exact:
            g = rzeros(d1 + d2, d1 + d2)
        else:
            g = np.zeros((d1 + d2, d1 + d2), dtype=complex)
        g[:d1, :d1] = g1
        g[d1:, d1:] = g2
        gens.append(g)
    weights = None
    if r1.weights is not None and r2.weights is not None:
        weights = dict(r1.weights)
        weights.update({d1 + i: w for i, w in r2.weights.items()})
    return Representation(r1.algebra, r1.labels, tuple(gens), weights)


def _kron_sum(g1, g2):
    """g1 (x) I + I (x) g2 for rational g1, g2, filled from their nonzero entries."""
    d1, d2 = g1.shape[0], g2.shape[0]
    out = rzeros(d1 * d2, d1 * d2)
    for i, row in enumerate(_sparse_rows(g1)):
        for j, x in row.items():
            for k in range(d2):
                out[i * d2 + k, j * d2 + k] += x
    for k, row in enumerate(_sparse_rows(g2)):
        for l, x in row.items():
            for i in range(d1):
                out[i * d2 + k, i * d2 + l] += x
    return out


def tensor_product(r1: Representation, r2: Representation) -> Representation:
    """Generators pi1(b) (x) I + I (x) pi2(b); weights add factorwise."""
    _check_compatible(r1, r2)
    d1, d2 = r1.dim, r2.dim
    exact = is_rational(r1.generators[0]) and is_rational(r2.generators[0])
    I1, I2 = np.eye(d1, dtype=complex), np.eye(d2, dtype=complex)
    gens = tuple(
        _kron_sum(g1, g2) if exact else np.kron(g1, I2) + np.kron(I1, g2)
        for g1, g2 in zip(r1.generators, r2.generators)
    )
    weights = None
    if r1.weights is not None and r2.weights is not None:
        weights = {}
        for i1, w1 in r1.weights.items():
            for i2, w2 in r2.weights.items():
                if isinstance(w1, tuple):
                    w = tuple(a + b for a, b in zip(w1, w2))
                else:
                    w = w1 + w2
                weights[i1 * d2 + i2] = w
    return Representation(r1.algebra, r1.labels, gens, weights)


def dual(rep: Representation) -> Representation:
    """Generators -(pi(b))^T; weights negate.  dual(dual(r)) == r."""
    gens = tuple(-g.T.copy() for g in rep.generators)
    weights = None
    if rep.weights is not None:
        weights = {
            i: tuple(-a for a in w) if isinstance(w, tuple) else -w
            for i, w in rep.weights.items()
        }
    return Representation(rep.algebra, rep.labels, gens, weights)


def rep_to_json(rep: Representation) -> dict:
    out = {
        "algebra": rep.algebra,
        "labels": list(rep.labels),
        "dim": rep.dim,
        "generators": [matrix_to_json(g) for g in rep.generators],
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
    weights = None
    if "weights" in obj:
        weights = {
            int(i): tuple(w) if isinstance(w, list) else w
            for i, w in obj["weights"].items()
        }
    return Representation(
        obj["algebra"],
        tuple(obj["labels"]),
        tuple(matrix_from_json(g) for g in obj["generators"]),
        weights,
    )
