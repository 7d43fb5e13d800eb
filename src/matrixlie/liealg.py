"""Lie algebras: membership, bracket, ad/Ad, structure constants.

Algebras are named by lowercase strings mirroring the group names:
"su(2)", "sl(3,C)", "so(3,1)", "sp(1,R)", "heis", "e(3)", "p(3,1)".

ad and structure constants are solved exactly in an explicit basis: floating entries are
dyadic rationals, so exact elimination gives exact coordinates whenever the bracket lies in the
span.  Every bracket wanted of a basis (the d columns of ad X, the i<j pairs of the structure
constants) is one right-hand side of one solve.  ``_coords`` decides the carrier once: exact if
every target is rational and every coordinate real, else complex.  ``_constants`` is the one
choice of brackets, exact on sparse rows or by ``bracket``, and its dict feeds both
structure_constants and repcore.verify_relations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import rowcore
from .errors import ClosureError, DomainError, ShapeError
from .expmlog import _exp
from .groups import LieId, _holds, _of_kind, _parse, _project, _satisfies, parse_group
from .matcore import (
    DEFAULT_TOL,
    Tolerance,
    _count,
    _dense,
    _entry,
    _gate,
    _relative_det,
    _sparse_rows,
    is_rational,
    rzeros,
    to_complex,
)

__all__ = [
    "AlgebraId",
    "parse_algebra",
    "in_algebra",
    "bracket",
    "Basis",
    "su2_basis",
    "so3_basis",
    "gl_basis",
    "heis_basis",
    "sl2_basis",
    "sl2_basis_rational",
    "ad_matrix",
    "Ad_apply",
    "structure_constants",
    "u_decompose",
    "algebra_membership_via_exp",
    "random_algebra_element",
]


AlgebraId = LieId


def parse_algebra(s) -> AlgebraId:
    """Parse an algebra name like "su(2)", "sl(3,C)", "so(3,1)", "heis"; a
    LieId passes if it names an algebra (DomainError if a group)."""
    return _of_kind(s, group=False) if isinstance(s, LieId) else _parse(s, group=False)


def in_algebra(X: np.ndarray, a, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Test the defining linear condition of algebra a on X, within tol."""
    return _satisfies(X, parse_algebra(a), tol, group=False)


@_entry(2, exact=True)
def bracket(X, Y):
    """The commutator [X, Y] = XY - YX: exact when both inputs are rational,
    floating when either is floating."""
    return X @ Y - Y @ X


@dataclass(frozen=True)
class Basis:
    """An ordered, labeled basis of a matrix Lie algebra."""

    algebra: str
    labels: tuple
    elements: tuple

    def __post_init__(self):
        if len(self.labels) != len(self.elements):
            raise ShapeError("label count does not match element count")

    def __len__(self):
        return len(self.elements)


def _view(entry: tuple, exact: bool = False) -> Basis:
    """A basis (algebra, labels, elements as sparse rows) of rowcore's table as new
    dense matrices: exact (Fraction) entries, or else complex128."""
    algebra, labels, elements = entry
    n = len(elements[0])
    return Basis(algebra, labels, tuple(_dense(rowcore._fractions(M, 1) if exact else M, (n, n),
                                               exact) for M in elements))


def su2_basis() -> Basis:
    return _view(rowcore._BASES["su2"])


def so3_basis() -> Basis:
    return _view(rowcore._BASES["so3"])


def sl2_basis_rational() -> Basis:
    """H = diag(1,-1), X = E_12, Y = E_21 — the standard sl(2) triple, exact."""
    return _view(rowcore._BASES["sl2"], exact=True)


def sl2_basis() -> Basis:
    """The sl(2) triple as complex floating matrices."""
    return _view(rowcore._BASES["sl2"])


def gl_basis(n: int) -> Basis:
    """The n^2 elementary matrices E_ij, row-major order; n an integer >= 1."""
    return _view(rowcore._gl(_count("n", n)))


def heis_basis() -> Basis:
    """Generators E12, E23, E13 of the strictly-upper-triangular 3x3 algebra."""
    return _view(rowcore._BASES["heis"])


E1, E2, E3 = su2_basis().elements
F1, F2, F3 = so3_basis().elements


def _coords(targets, elements):
    """The coordinates in span(elements) of targets[t] as column t, by one exact elimination
    (rowcore._coords), the one carrier rule: Fractions if every target is rational and every
    coordinate real, else complex128 (DomainError if one has no finite float value); None if
    some target lies outside the span."""
    d = len(elements)
    coef = rowcore._coords(*([_sparse_rows(M) for M in Ms] for Ms in (targets, elements)))
    if coef is None:
        return None
    if all(map(is_rational, targets)) and not any(coef[d:]):
        return _dense(coef[:d], (d, len(targets)))
    coef = to_complex(_dense(coef, (2 * d, len(targets))))
    return coef[:d] + 1j * coef[d:]


def ad_matrix(X, basis: Basis):
    """The matrix of ad X = [X, .] in the given basis.

    Column j holds the coordinates of [X, basis_j], by _coords; a bracket
    outside the span raises ClosureError.
    """
    if (coords := _coords([bracket(X, b) for b in basis.elements], basis.elements)) is None:
        raise ClosureError("bracket leaves the span of the basis")
    return coords


@_entry(2)
def Ad_apply(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Ad A (X) = A X A^-1."""
    # scale-invariant: cI passes for every c != 0
    if _relative_det(np.linalg.svd(A, compute_uv=False)) < 1e-13:
        raise DomainError("Ad requires an invertible matrix")
    return A @ X @ np.linalg.inv(A)


def _constants(elements) -> dict:
    """rowcore._constants of the elements, gated first as `bracket` gates them: the one
    choice of bracketing an exact basis on sparse rows and any other by `bracket`."""
    elements = _gate(elements, exact=True) if elements else ()  # the zero algebra's basis is ()
    brackets = None if all(map(is_rational, elements)) else [
        _sparse_rows(bracket(A, B)) for A, B in itertools.combinations(elements, 2)]
    return rowcore._constants([_sparse_rows(B) for B in elements], brackets)


def structure_constants(basis: Basis) -> np.ndarray:
    """Exact rationals c[i][j][k] with [X_i, X_j] = sum_k c_ijk X_k.

    Skew in (i,j) and Jacobi-consistent by construction; raises
    ClosureError if a bracket leaves the span, DomainError if any
    coefficient is not real.
    """
    d = len(basis)
    c = rzeros(d * d, d).reshape(d, d, d)
    for (i, j), row in _constants(basis.elements).items():
        for k, x in row.items():
            c[i, j, k], c[j, i, k] = x, -x
    return c


@_entry(1)
def u_decompose(X: np.ndarray):
    """Split X = X1 + i X2 with X1, X2 both skew-adjoint (in u(n))."""
    X1 = (X - X.conj().T) / 2
    X2 = (X + X.conj().T) / 2j
    return X1, X2


@_entry(1)
def algebra_membership_via_exp(
    X: np.ndarray, g, samples=(-1.0, -0.3, 0.3, 1.0), tol: Tolerance = DEFAULT_TOL
) -> bool:
    """Sampled stand-in for "e^(tX) in G for all real t".

    Checks group membership of e^(tX) at each sampled t.  Necessarily
    incomplete (finitely many t); in_algebra is the authoritative test.
    """
    g = parse_group(g)
    return all(_holds(_exp(t * X), g, tol, group=True) for t in samples)


def random_algebra_element(a, rng, scale: float = 0.5) -> np.ndarray:
    """Draw a random element of the named algebra (for property tests): a
    complex Gaussian matrix with entries of scale `scale`, projected onto
    the algebra by the family's defining identity."""
    a = parse_algebra(a)
    d = a.matrix_dim
    return _project((rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) * scale, a)
