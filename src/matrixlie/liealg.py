"""Lie algebras: membership, bracket, ad/Ad, structure constants.

Algebras are named by lowercase strings mirroring the group names:
"su(2)", "sl(3,C)", "so(3,1)", "sp(1,R)", "heis", "e(3)", "p(3,1)".

ad and structure constants are always materialized in an explicit basis
and solved exactly: floating entries are dyadic rationals, so converting
them to fractions and running exact Gaussian elimination gives exact
coordinates whenever the bracket truly lies in the span.  One elimination
serves each basis: every bracket wanted from it (all d columns of ad X,
all i<j pairs of the structure constants) is one right-hand side of a
single exact solve.
"""

from __future__ import annotations

import functools
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
    _check_square,
    _count,
    _dense,
    _entry,
    _relative_det,
    _sparse_rows,
    is_rational,
    rmat,
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


# su(2): brackets cycle [E1,E2]=E3, [E2,E3]=E1, [E3,E1]=E2
E1 = np.array([[0.5j, 0], [0, -0.5j]], dtype=complex)
E2 = np.array([[0, 0.5], [-0.5, 0]], dtype=complex)
E3 = np.array([[0, 0.5j], [0.5j, 0]], dtype=complex)

# so(3): ad E_i in the basis above equals F_i
F1 = np.array([[0, 0, 0], [0, 0, -1], [0, 1, 0]], dtype=complex)
F2 = np.array([[0, 0, 1], [0, 0, 0], [-1, 0, 0]], dtype=complex)
F3 = np.array([[0, -1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex)


def su2_basis() -> Basis:
    return Basis("su(2)", ("E1", "E2", "E3"), (E1, E2, E3))


def so3_basis() -> Basis:
    return Basis("so(3)", ("F1", "F2", "F3"), (F1, F2, F3))


def sl2_basis_rational() -> Basis:
    """H = diag(1,-1), X = E_12, Y = E_21 — the standard sl(2) triple, exact."""
    H = rmat([[1, 0], [0, -1]])
    X = rmat([[0, 1], [0, 0]])
    Y = rmat([[0, 0], [1, 0]])
    return Basis("sl(2,C)", ("H", "X", "Y"), (H, X, Y))


def sl2_basis() -> Basis:
    """The sl(2) triple as complex floating matrices."""
    b = sl2_basis_rational()
    return Basis(b.algebra, b.labels, tuple(to_complex(M) for M in b.elements))


def gl_basis(n: int) -> Basis:
    """The n^2 elementary matrices E_ij, row-major order; n an integer >= 1."""
    n = _count("n", n)
    labels = tuple(f"E{i + 1}{j + 1}" for i in range(n) for j in range(n))
    return Basis(f"gl({n},C)", labels, tuple(np.eye(n * n, dtype=complex).reshape(-1, n, n)))


def heis_basis() -> Basis:
    """Generators E12, E23, E13 of the strictly-upper-triangular 3x3 algebra."""
    return Basis("heis", ("X", "Y", "Z"), tuple(gl_basis(3).elements[k] for k in (1, 5, 2)))


def _coords(targets, elements):
    """rowcore._coords of dense matrices or sparse rows, as object arrays of
    Fractions (re, im), column t holding the real and imaginary parts of the
    coefficients of targets[t]; None if some target lies outside the span."""
    d = len(elements)
    coef = rowcore._coords(*([M if type(M) is list else _sparse_rows(M) for M in Ms]
                             for Ms in (targets, elements)))
    if coef is None:
        return None
    coef = _dense(coef, (2 * d, len(targets)))
    return coef[:d], coef[d:]


def ad_matrix(X, basis: Basis):
    """The matrix of ad X = [X, .] in the given basis.

    Column j holds the exact coordinates of [X, basis_j]; a bracket
    outside the span raises ClosureError.
    """
    brackets = [bracket(X, b) for b in basis.elements]  # exact if X and b are
    coords = _coords(brackets, basis.elements)
    if coords is None:
        raise ClosureError("bracket leaves the span of the basis")
    re, im = coords
    if all(map(is_rational, brackets)) and not im.any():
        return re
    return _floating(re, im)


def _floating(re, im) -> np.ndarray:
    """The complex coordinates re + i im of _coords; DomainError if one has
    no finite float value."""
    return to_complex(re) + 1j * to_complex(im)


@_entry(2)
def Ad_apply(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Ad A (X) = A X A^-1."""
    if _relative_det(A) < 1e-13:  # scale-invariant: cI passes for every c != 0
        raise DomainError("Ad requires an invertible matrix")
    return A @ X @ np.linalg.inv(A)


def structure_constants(basis: Basis) -> np.ndarray:
    """Exact rationals c[i][j][k] with [X_i, X_j] = sum_k c_ijk X_k.

    Skew in (i,j) and Jacobi-consistent by construction; raises
    ClosureError if a bracket leaves the span, DomainError if any
    coefficient is not real.
    """
    els, d = basis.elements, len(basis)
    if exact := d > 1 and all(map(is_rational, els)):  # bracketed on sparse rows
        _check_square(*els)
    brackets = None if exact else [_sparse_rows(bracket(A, B))
                                   for A, B in itertools.combinations(els, 2)]
    c = rzeros(d * d, d).reshape(d, d, d)
    for (i, j), row in rowcore._constants([_sparse_rows(B) for B in els], brackets).items():
        for k, x in row.items():
            c[i, j, k], c[j, i, k] = x, -x
    return c


@functools.cache
def _builtin_constants(build) -> tuple:
    """The basis build() and its structure constants, read-only, computed
    once per process; build is a built-in basis builder of no arguments."""
    basis = build()
    c = structure_constants(basis)
    c.flags.writeable = False
    return basis, c


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
