"""Irreducible representations of sl(2,C) and exact decomposition.

The abstract model: on basis u_0..u_m,

    pi(H) u_k = (m - 2k) u_k
    pi(Y) u_k = u_{k+1}
    pi(X) u_k = [k m - k(k-1)] u_{k-1}

The polynomial model acts on homogeneous degree-m polynomials in z1, z2
(monomial basis z1^k z2^(m-k), k = 0..m):

    pi(H) = -z1 d/dz1 + z2 d/dz2,  pi(X) = -z2 d/dz1,  pi(Y) = -z1 d/dz2

and the diagonal intertwiner u_k = (-1)^k m!/(m-k)! z1^k z2^(m-k)
carries one to the other.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import DecompositionError, DomainError
from .liealg import Basis
from .matcore import (
    _sparse_rows,
    rational_nullspace,
    rational_rank,
    reye,
    rmat,
    rzeros,
)
from .repcore import Representation, verify_relations

__all__ = [
    "sl2_basis_rational",
    "sl2_irrep",
    "sl2_poly_irrep",
    "sl2_intertwiner",
    "sl2_weights",
    "sl2_decompose",
]


def sl2_basis_rational() -> Basis:
    """H = diag(1,-1), X = E_12, Y = E_21 as exact rational matrices."""
    H = rmat([[1, 0], [0, -1]])
    X = rmat([[0, 1], [0, 0]])
    Y = rmat([[0, 0], [1, 0]])
    return Basis("sl(2,C)", ("H", "X", "Y"), (H, X, Y))


def sl2_irrep(m: int) -> Representation:
    """The (m+1)-dimensional irreducible representation, abstract basis."""
    if m < 0:
        raise ValueError("m must be a nonnegative integer")
    d = m + 1
    H = rzeros(d, d)
    X = rzeros(d, d)
    Y = rzeros(d, d)
    for k in range(d):
        H[k, k] = Fraction(m - 2 * k)
        if k + 1 <= m:
            Y[k + 1, k] = Fraction(1)
        if k >= 1:
            X[k - 1, k] = Fraction(k * m - k * (k - 1))
    weights = {k: m - 2 * k for k in range(d)}
    return Representation("sl(2,C)", ("H", "X", "Y"), (H, X, Y), weights)


def sl2_poly_irrep(m: int) -> Representation:
    """The same irreducible on homogeneous polynomials, monomial basis."""
    if m < 0:
        raise ValueError("m must be a nonnegative integer")
    d = m + 1
    H = rzeros(d, d)
    X = rzeros(d, d)
    Y = rzeros(d, d)
    for k in range(d):
        H[k, k] = Fraction(m - 2 * k)
        # pi(X) z1^k z2^(m-k) = -k z1^(k-1) z2^(m-k+1)
        if k >= 1:
            X[k - 1, k] = Fraction(-k)
        # pi(Y) z1^k z2^(m-k) = -(m-k) z1^(k+1) z2^(m-k-1)
        if k + 1 <= m:
            Y[k + 1, k] = Fraction(-(m - k))
    weights = {k: m - 2 * k for k in range(d)}
    return Representation("sl(2,C)", ("H", "X", "Y"), (H, X, Y), weights)


def sl2_intertwiner(m: int) -> np.ndarray:
    """Diagonal T with T^-1 (poly generator) T = (abstract generator).

    T_kk = (-1)^k m!/(m-k)!.
    """
    d = m + 1
    T = rzeros(d, d)
    for k in range(d):
        T[k, k] = Fraction((-1) ** k * math.factorial(m), math.factorial(m - k))
    return T


def sl2_weights(rep: Representation) -> list:
    """Sorted multiset of integer H-eigenvalues of a rational rep."""
    if rep.weights is not None:
        return sorted(rep.weights.values(), reverse=True)
    H = rep.generator("H")
    d = rep.dim
    # triangular is enough to read the spectrum off the diagonal
    lower = all(H[i, j] == 0 for i in range(d) for j in range(i + 1, d))
    upper = all(H[i, j] == 0 for j in range(d) for i in range(j + 1, d))
    if not (lower or upper):
        raise DomainError("pi(H) must be triangular or the rep weight-annotated")
    diag = [H[i, i] for i in range(d)]
    if any(x.denominator != 1 for x in diag):
        raise DomainError("pi(H) spectrum is not integral")
    return sorted((int(x) for x in diag), reverse=True)


def sl2_decompose(rep: Representation) -> list:
    """Multiset of highest weights m of the irreducible summands.

    The number of summands with highest weight lambda is
    dim(ker pi(X) intersect eigenspace(pi(H), lambda)).  Since [H, X] = 2X,
    pi(H) maps ker pi(X) into itself, and a kernel basis vector v_f is 1
    at its free column f and 0 at the other free columns, so the matrix
    of pi(H) on ker pi(X) is read off as K = (pi(H) v_f)[free].  The count
    is then r - rank(K - lambda), for each candidate integer lambda from a
    Gershgorin bound downward.
    """
    if not verify_relations(rep, sl2_basis_rational()):
        raise DomainError("generators do not satisfy the sl(2) relations")
    H = _sparse_rows(rep.generator("H"))
    d = rep.dim
    bound = max(int(math.ceil(sum(abs(x) for x in row.values()))) for row in H)
    kernel = [
        {i: v[i, 0] for i in np.flatnonzero(v[:, 0]).tolist()}
        for v in rational_nullspace(rep.generator("X"))
    ]
    # the other nonzero entries of v_f sit at pivot columns left of f
    free = [max(v) for v in kernel]
    r = len(free)
    K = rzeros(r, r)
    for b, v in enumerate(kernel):
        for a, g in enumerate(free):
            K[a, b] = sum(H[g][i] * x for i, x in v.items() if i in H[g])
    found = []
    covered = 0
    for lam in range(bound, -1, -1):
        count = r - rational_rank(K - lam * reye(r))
        found.extend([lam] * count)
        covered += count * (lam + 1)
    if covered != d:
        raise DecompositionError(
            f"summand dimensions total {covered}, expected {d}"
        )
    return sorted(found, reverse=True)
