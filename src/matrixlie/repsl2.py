"""Irreducible representations of sl(2,C) and exact decomposition.

The abstract model, on u_0..u_m, is the n = 2 case of the Gelfand-Tsetlin
builder in repcore (top row (m, 0), u_k the pattern with bottom entry m - k):

    pi(H) u_k = (m - 2k) u_k,  pi(Y) u_k = u_{k+1},  pi(X) u_k = [k m - k(k-1)] u_{k-1}

The polynomial model acts on homogeneous degree-m polynomials in z1, z2
(monomial basis z1^k z2^(m-k), k = 0..m):

    pi(H) = -z1 d/dz1 + z2 d/dz2,  pi(X) = -z2 d/dz1,  pi(Y) = -z1 d/dz2

and is built from the abstract one through the diagonal intertwiner
u_k = (-1)^k m!/(m-k)! z1^k z2^(m-k).
"""

from __future__ import annotations

import collections
import math

from . import liealg, matcore  # lazy (see the package): only dense work loads them
from .errors import DecompositionError, DomainError
from .repcore import Representation, _gelfand_tsetlin, _verify_relations
from .rowcore import _BASES, _axpy, _builtin_constants, _integer, _nullspace_rows, _rref_rows

__all__ = [
    "sl2_basis_rational",
    "sl2_irrep",
    "sl2_poly_irrep",
    "sl2_intertwiner",
    "sl2_weights",
    "sl2_decompose",
]


def __getattr__(name):  # liealg, and numpy with it, loads only when this is asked for
    if name == "sl2_basis_rational":
        return liealg.sl2_basis_rational
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def sl2_irrep(m: int) -> Representation:
    """The (m+1)-dimensional irreducible representation, abstract basis; rows built when read."""
    if (m := _integer(m, 0)) is None:
        raise ValueError("m must be a nonnegative integer")
    weights, matrices = _gelfand_tsetlin((m, 0))
    return Representation.from_rows("sl(2,C)", ("H", "X", "Y"), lambda: [G[0] for G in matrices()],
                                    {k: w for k, (w,) in enumerate(weights)}, relations_hold=True)


def sl2_poly_irrep(m: int) -> Representation:
    """The same irreducible on homogeneous polynomials, monomial basis:
    pi(X) z1^k z2^(m-k) = -k z1^(k-1) z2^(m-k+1) and
    pi(Y) z1^k z2^(m-k) = -(m-k) z1^(k+1) z2^(m-k-1); that is, the abstract
    generators conjugated by sl2_intertwiner(m)."""
    rep = sl2_irrep(m)
    t = _intertwiner_diagonal(rep)
    gens = [([{j: t[i] * x // (t[j] * D) for j, x in row.items()} for i, row in enumerate(g)], 1)
            for g, D in rep.held]  # integral, as above
    return Representation.from_rows(rep.algebra, rep.labels, gens, rep.weights,
                                    relations_hold=True)


def sl2_intertwiner(m: int):
    """Diagonal T with T^-1 (poly generator) T = (abstract generator), by _intertwiner_diagonal."""
    t = _intertwiner_diagonal(sl2_irrep(m))  # sl2_irrep checks m
    return matcore.rmat([[x * (j == k) for j in range(len(t))] for k, x in enumerate(t)])


def _intertwiner_diagonal(rep: Representation) -> list:
    """T_kk = (-1)^k m!/(m-k)!, k = 0..m, of the intertwiner on rep = sl2_irrep(m)."""
    return [(-1) ** k * math.perm(rep.dim - 1, k) for k in range(rep.dim)]


def _integral_diagonal(H, strict: bool, D: int = 1):
    """The integral diagonal of a triangular pi(H) = H / D, sparse rows H of
    integers, or Fractions over D = 1; else None (raise if strict)."""
    diag = [row.get(i, 0) for i, row in enumerate(H)]
    if not (all(j <= i for i, row in enumerate(H) for j in row)
            or all(j >= i for i, row in enumerate(H) for j in row)):
        why = "pi(H) must be triangular"
    elif any(x % D for x in diag):
        why = "pi(H) spectrum is not integral"
    else:
        return [x // D for x in diag]
    if strict:
        raise DomainError(why)


def _weights(rep: Representation, strict: bool) -> list | None:
    """The integer H-eigenvalues of a rational rep, unsorted: its weights if relations_hold
    vouches for them on an sl(2,C) rep, else the integral diagonal of a triangular pi(H)."""
    if not rep.exact:
        raise DomainError("the generators must be rational matrices")
    if rep.relations_hold and rep.algebra == "sl(2,C)" and rep.weights is not None:
        return list(rep.weights.values())
    if "H" not in rep.labels:
        raise DomainError(f"no generator is labeled H, among {rep.labels}")
    H, D = rep.held[rep.labels.index("H")]
    return _integral_diagonal(H, strict, D)


def sl2_weights(rep: Representation) -> list:
    """Sorted multiset of integer H-eigenvalues of a rational rep, by _weights."""
    return sorted(_weights(rep, strict=True), reverse=True)


def sl2_decompose(rep: Representation) -> list:
    """Multiset of highest weights m of the irreducible summands, descending.

    A rep is determined up to isomorphism by its H-weight multiplicities, so
    the number of summands V_m is mult(m) - mult(m+2): the Weyl character
    formula read as an alternating sum.  _weights reads the weights: a
    flagged rep's own, else the diagonal of pi(H) when pi(H) is triangular,
    all upper or all lower, and that diagonal integral; JSON weights are
    never trusted.  Any other rep falls back to _kernel_highest_weights.

    Either rule holds only for a true sl(2) rep, so the sl(2) relations are
    checked first, unless rep.relations_hold vouches for an sl(2,C) rep; a
    hand-built or JSON rep that fails them raises DomainError, and so does
    a floating rep that passes them.
    """
    trusted = rep.relations_hold and rep.algebra == "sl(2,C)"
    if not (trusted or _verify_relations(rep, _BASES["sl2"][1], _builtin_constants("sl2"))):
        raise DomainError("generators do not satisfy the sl(2) relations")
    if (weights := _weights(rep, strict=False)) is None:
        found = _kernel_highest_weights(rep, rep.rows_of("H"))
    else:
        mult = collections.Counter(weights)
        found = [m for m in range(max(weights), -1, -1) for _ in range(mult[m] - mult[m + 2])]
    covered = sum(found) + len(found)
    if covered != rep.dim:
        raise DecompositionError(f"summand dimensions total {covered}, expected {rep.dim}")
    return found


def _kernel_highest_weights(rep: Representation, H) -> list:
    """sl2_decompose's highest weights from pi(X) and pi(H), sparse rows H.

    The number of summands with highest weight lambda is
    dim(ker pi(X) intersect eigenspace(pi(H), lambda)).  Since [H, X] = 2X,
    pi(H) maps ker pi(X) into itself.  Eliminating the rows of pi(X) gives
    a kernel basis vector v_f per free column f, 1 at f and 0 at the other
    free columns, so the matrix of pi(H) on ker pi(X) is read off as
    K = (pi(H) v_f)[free], r x r.  The count is then r - rank(K - lambda),
    for each integer lambda downward, until the counts, geometric
    multiplicities of K, reach r.  The eigenvalues of K are the highest
    weights, integers >= 0, so the scan starts at the lesser of tr K and the
    Gershgorin bound of K.
    """
    from fractions import Fraction  # imported where one is made (see rowcore._fractions)
    d = rep.dim
    kernel = _nullspace_rows(rep.rows_of("X"), d)
    free = [max(v) for v in kernel]  # the other entries of v_f sit left of f
    r = len(free)
    K = [{b: x for b, v in enumerate(kernel)  # (pi(H) v_f)[g]
          if (x := sum(h * v.get(i, 0) for i, h in H[g].items()))} for g in free]
    bound = min(max((math.ceil(sum(map(abs, row.values()))) for row in K), default=0),
                int(sum(row.get(a, 0) for a, row in enumerate(K))))
    found = []  # in descending order
    for lam in range(bound, -1, -1):
        if len(found) == r:
            break
        shifted = [dict(row) for row in K]
        for a, row in enumerate(shifted):
            _axpy(row, Fraction(-lam), {a: 1})
        found += [lam] * (r - len(_rref_rows(shifted)[1]))
    return found
