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

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ClosureError, DomainError, ShapeError
from . import expmlog  # the module, not mat_exp: expmlog imports bracket from here
from .groups import (
    LieId,
    _parse,
    _satisfies,
    is_member,
    metric_g,
    parse_group,
    symplectic_J,
)
from .matcore import (
    DEFAULT_TOL,
    Tolerance,
    is_rational,
    rational_solve,
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


def parse_algebra(s: str) -> AlgebraId:
    """Parse an algebra name like "su(2)", "sl(3,C)", "so(3,1)", "heis"."""
    return _parse(s, group=False)


def in_algebra(X: np.ndarray, a, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Test the defining linear condition of algebra a on X, within tol."""
    if isinstance(a, str):
        a = parse_algebra(a)
    X = to_complex(X) if is_rational(X) else np.asarray(X, dtype=complex)
    return _satisfies(X, a, tol, group=False)


def bracket(X, Y):
    """The commutator [X, Y] = XY - YX (exact for rational inputs)."""
    if X.shape != Y.shape or X.shape[0] != X.shape[1]:
        raise ShapeError(f"bracket needs equal square shapes, got {X.shape}, {Y.shape}")
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
    """The n^2 elementary matrices E_ij, row-major order."""
    labels = []
    elems = []
    for i in range(n):
        for j in range(n):
            M = np.zeros((n, n), dtype=complex)
            M[i, j] = 1
            labels.append(f"E{i + 1}{j + 1}")
            elems.append(M)
    return Basis(f"gl({n},C)", tuple(labels), tuple(elems))


def heis_basis() -> Basis:
    """Generators of the strictly-upper-triangular 3x3 algebra."""
    X = np.zeros((3, 3), dtype=complex)
    X[0, 1] = 1
    Y = np.zeros((3, 3), dtype=complex)
    Y[1, 2] = 1
    Z = np.zeros((3, 3), dtype=complex)
    Z[0, 2] = 1
    return Basis("heis", ("X", "Y", "Z"), (X, Y, Z))


def _exact_parts(M) -> list:
    """Real then imaginary parts of M, row-major, as exact rationals.

    Entries are Fractions or floating numbers (an object array may hold
    either); floating entries are dyadic rationals, so Fraction is exact.
    """
    flat = np.asarray(M).ravel().tolist()
    if all(isinstance(x, Fraction) for x in flat):
        return flat + [Fraction(0)] * len(flat)
    return [Fraction(x.real) for x in flat] + [Fraction(x.imag) for x in flat]


def _coords(targets, elements):
    """Exact coordinates of every target in span(elements), or None.

    Returns (re, im): object arrays of Fractions, column t holding the real
    and imaginary parts of the coefficients of targets[t].  Complex
    coefficients come from the doubled real system with unknowns
    (Re c_j, Im c_j), whose column for i c_j is (-Im B_j, Re B_j); it is
    built and eliminated once, with one right-hand side per target.  None
    means some target lies outside the span.
    """
    d = len(elements)
    if not targets:  # a basis of at most one element has no bracket pairs
        return rzeros(d, 0), rzeros(d, 0)
    half = elements[0].size
    parts = [_exact_parts(B) for B in elements]
    cols = parts + [[-x for x in p[half:]] + p[:half] for p in parts]
    A = np.array(cols, dtype=object).T
    x = rational_solve(A, np.array([_exact_parts(T) for T in targets], dtype=object).T)
    if x is None:
        return None
    return x[:d], x[d:]


def ad_matrix(X, basis: Basis):
    """The matrix of ad X = [X, .] in the given basis.

    Column j holds the exact coordinates of [X, basis_j]; a bracket
    outside the span raises ClosureError.
    """
    if is_rational(X) and not all(is_rational(b) for b in basis.elements):
        X = to_complex(X)  # brackets with a floating basis are floating
    coords = _coords([bracket(X, b) for b in basis.elements], basis.elements)
    if coords is None:
        raise ClosureError("bracket leaves the span of the basis")
    re, im = coords
    if is_rational(X) and not im.any():
        return re
    return re.astype(complex) + 1j * im.astype(complex)


def Ad_apply(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Ad A (X) = A X A^-1."""
    A = np.asarray(A, dtype=complex)
    X = np.asarray(X, dtype=complex)
    if A.shape != X.shape or A.shape[0] != A.shape[1]:
        raise ShapeError(f"Ad needs equal square shapes, got {A.shape}, {X.shape}")
    if abs(np.linalg.det(A)) < 1e-13:
        raise DomainError("Ad requires an invertible matrix")
    return A @ X @ np.linalg.inv(A)


def structure_constants(basis: Basis) -> np.ndarray:
    """Exact rationals c[i][j][k] with [X_i, X_j] = sum_k c_ijk X_k.

    Skew in (i,j) and Jacobi-consistent by construction; raises
    ClosureError if a bracket leaves the span, DomainError if any
    coefficient is not real.
    """
    d = len(basis)
    els = basis.elements
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    c = np.empty((d, d, d), dtype=object)
    c[:] = Fraction(0)
    coords = _coords([bracket(els[i], els[j]) for i, j in pairs], els)
    if coords is None:
        raise ClosureError("bracket leaves the span of the basis")
    re, im = coords
    if im.any():
        raise DomainError("structure constants are not real rational")
    for t, (i, j) in enumerate(pairs):
        c[i, j] = re[:, t]
        c[j, i] = -re[:, t]
    return c


def u_decompose(X: np.ndarray):
    """Split X = X1 + i X2 with X1, X2 both skew-adjoint (in u(n))."""
    X = np.asarray(X, dtype=complex)
    if X.ndim != 2 or X.shape[0] != X.shape[1]:
        raise ShapeError("u_decompose needs a square matrix")
    X1 = (X - X.conj().T) / 2
    X2 = (X + X.conj().T) / 2j
    return X1, X2


def algebra_membership_via_exp(
    X: np.ndarray, g, samples=(-1.0, -0.3, 0.3, 1.0), tol: Tolerance = DEFAULT_TOL
) -> bool:
    """Sampled stand-in for "e^(tX) in G for all real t".

    Checks group membership of e^(tX) at each sampled t.  Necessarily
    incomplete (finitely many t); in_algebra is the authoritative test.
    """
    if isinstance(g, str):
        g = parse_group(g)
    X = np.asarray(X, dtype=complex)
    d = g.matrix_dim
    if X.shape != (d, d):
        raise ShapeError(f"need a {d}x{d} matrix, got {X.shape}")
    tight = Tolerance(abs=1e-15, rel=0.0)
    return all(is_member(expmlog.mat_exp(t * X, tight), g, tol) for t in samples)


def random_algebra_element(a, rng, scale: float = 0.5) -> np.ndarray:
    """Draw a random element of the named algebra (for property tests)."""
    if isinstance(a, str):
        a = parse_algebra(a)
    d = a.matrix_dim
    fam = a.family

    def rand(n, m, cplx):
        M = rng.standard_normal((n, m)) * scale
        if cplx:
            M = M + 1j * rng.standard_normal((n, m)) * scale
        return M.astype(complex)

    if fam == "gl":
        return rand(d, d, a.field == "C")
    if fam == "sl":
        M = rand(d, d, a.field == "C")
        return M - np.trace(M) / d * np.eye(d)
    if fam == "so":
        M = rand(d, d, False)
        return M - M.T
    if fam == "soC":
        M = rand(d, d, True)
        return M - M.T
    if fam == "soK":
        g = metric_g(a.n, a.k)
        M = rand(d, d, False)
        return g @ (M - M.T)
    if fam == "u":
        M = rand(d, d, True)
        return (M - M.conj().T) / 2
    if fam == "su":
        M = rand(d, d, True)
        M = (M - M.conj().T) / 2
        return M - np.trace(M) / d * np.eye(d)
    if fam in ("spR", "spC"):
        J = symplectic_J(a.n)
        M = rand(d, d, fam == "spC")
        return J @ (M + M.T) / 2
    if fam == "sp":
        n = a.n
        A = rand(n, n, True)
        A = (A - A.conj().T) / 2
        B = rand(n, n, True)
        B = (B + B.T) / 2
        X = np.zeros((d, d), dtype=complex)
        X[:n, :n] = A
        X[:n, n:] = B
        X[n:, :n] = -B.conj()
        X[n:, n:] = A.conj()
        return X
    if fam == "heis":
        X = np.zeros((3, 3), dtype=complex)
        X[0, 1], X[0, 2], X[1, 2] = rng.standard_normal(3) * scale
        return X
    if fam == "e":
        n = a.n
        M = rand(n, n, False)
        X = np.zeros((d, d), dtype=complex)
        X[:n, :n] = M - M.T
        X[:n, n] = rng.standard_normal(n) * scale
        return X
    if fam == "p":
        n, k = a.n, a.k
        m = n + k
        g = metric_g(n, k)
        M = rand(m, m, False)
        X = np.zeros((d, d), dtype=complex)
        X[:m, :m] = g @ (M - M.T)
        X[:m, m] = rng.standard_normal(m) * scale
        return X
    raise ValueError(f"unhandled family {fam}")
