"""Matrix carriers and the primitives everything else builds on.

The public functions take and return dense matrices: complex floating
ones are ``numpy`` arrays of ``complex128``, exact rational ones are
``numpy`` object arrays of ``fractions.Fraction`` (never rounded, always
in lowest terms).  Exact elimination and representation generators use
sparse rows instead, one dict {column: entry} of nonzero entries per
row, Fraction or complex: ``_sparse_rows`` and ``_dense`` convert between
the forms, ``_rref_rows`` eliminates on rows and ``_rows_to_json`` writes
them.  Also here: norm/comparison primitives, exact rank/nullspace/solve,
and the JSON interchange format used by the CLI and test fixtures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, ShapeError

__all__ = [
    "Tolerance",
    "cmat",
    "frobenius_norm",
    "approx_eq",
    "rmat",
    "rzeros",
    "reye",
    "rdot",
    "is_rational",
    "to_complex",
    "rational_rref",
    "rational_rank",
    "rational_nullspace",
    "rational_solve",
    "rational_inverse",
    "matrix_to_json",
    "matrix_from_json",
]


@dataclass(frozen=True)
class Tolerance:
    """Absolute/relative tolerance pair used by every floating comparison."""

    abs: float = 1e-9
    rel: float = 1e-9

    def __post_init__(self):
        if not (self.abs >= 0 and self.rel >= 0):
            raise ValueError("tolerances must be nonnegative")
        if not (np.isfinite(self.abs) and np.isfinite(self.rel)):
            raise ValueError("tolerances must be finite")


DEFAULT_TOL = Tolerance()


def cmat(rows) -> np.ndarray:
    """Build a complex matrix from nested lists (or pass an array through)."""
    A = np.asarray(rows, dtype=complex)
    if A.ndim != 2:
        raise ShapeError(f"expected a 2-d matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix entries must be finite")
    return A


def frobenius_norm(M: np.ndarray) -> float:
    """sqrt of the sum of squared entry moduli.

    Submultiplicative and an upper bound for the operator norm, so every
    norm-based convergence precondition stated for the operator norm
    remains sufficient when checked with this norm.
    """
    if is_rational(M):
        M = to_complex(M)
    M = np.asarray(M, dtype=complex)
    s = np.vdot(M, M).real  # vdot does not warn when the sum overflows
    if not s < np.inf:  # overflow (inf or nan), or a non-finite entry
        with np.errstate(over="ignore"):
            m = np.abs(M).max()  # rescale by the largest modulus
            return float(m * np.sqrt(np.vdot(M / m, M / m).real)) if m < np.inf else float(m)
    return math.sqrt(s)


def approx_eq(A, B, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Entrywise |A_ij - B_ij| <= tol.abs + tol.rel * |B_ij|."""
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    if A.shape != B.shape:
        raise ShapeError(f"shape mismatch: {A.shape} vs {B.shape}")
    return bool(np.all(np.abs(A - B) <= tol.abs + tol.rel * np.abs(B)))


# ---------------------------------------------------------------------------
# exact rational matrices


def rmat(rows) -> np.ndarray:
    """Build an exact rational matrix (object array of Fraction)."""
    data = [[Fraction(x) for x in row] for row in rows]
    if not data:
        raise ShapeError("a rational matrix needs at least one row")
    A = np.empty((len(data), len(data[0])), dtype=object)
    for i, row in enumerate(data):
        if len(row) != A.shape[1]:
            raise ShapeError("ragged rows")
        for j, x in enumerate(row):
            A[i, j] = x
    return A


def rzeros(rows: int, cols: int) -> np.ndarray:
    A = np.empty((rows, cols), dtype=object)
    A[:] = Fraction(0)
    return A


def reye(n: int) -> np.ndarray:
    A = rzeros(n, n)
    for i in range(n):
        A[i, i] = Fraction(1)
    return A


def rdot(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Exact matrix product of rational matrices."""
    if A.shape[1] != B.shape[0]:
        raise ShapeError(f"cannot multiply {A.shape} by {B.shape}")
    return np.dot(A, B)


def is_rational(M) -> bool:
    return isinstance(M, np.ndarray) and M.dtype == object


def to_complex(M: np.ndarray) -> np.ndarray:
    """Rational matrix -> complex floating matrix."""
    return np.array([[complex(x) for x in row] for row in M], dtype=complex)


def _sparse_rows(M: np.ndarray) -> list[dict]:
    """The nonzero entries of a matrix, one {column: entry} per row: Fraction
    entries for a rational matrix, complex ones for any other."""
    kind = Fraction if is_rational(M) else complex
    rows = [{} for _ in range(M.shape[0])]
    i, j = np.nonzero(M)
    for r, c in zip(i.tolist(), j.tolist()):
        x = M[r, c]
        rows[r][c] = x if type(x) is kind else kind(x)
    return rows


def _dense(rows: list[dict], shape: tuple, exact: bool = True) -> np.ndarray:
    """The rational (or complex) matrix of the given shape whose leading rows
    are these sparse rows; the rest is zero."""
    M = rzeros(*shape) if exact else np.zeros(shape, dtype=complex)
    for i, row in enumerate(rows):
        for j, x in row.items():
            M[i, j] = x
    return M


def _axpy(y: dict, a, x: dict):
    """y += a x for sparse vectors, dropping entries that cancel."""
    for k, v in x.items():
        s = y.get(k, 0) + a * v
        if s:
            y[k] = s
        else:
            y.pop(k, None)  # a floating product can underflow to 0


def _rref_rows(rows: list[dict], cols: int):
    """Gauss-Jordan elimination on sparse rows, which it consumes.

    Returns (reduced nonzero rows, pivots).  The pivot row for a column is
    the sparsest remaining row with an entry there, to limit fill-in; the
    reduced form does not depend on that choice.
    """
    todo = [row for row in rows if row]
    done, pivots = [], []
    for c in range(cols):
        if not todo:
            break
        cands = [k for k, row in enumerate(todo) if c in row]
        if not cands:
            continue
        p = todo.pop(min(cands, key=lambda k: len(todo[k])))
        inv = 1 / p[c]
        p = {j: x * inv for j, x in p.items()}
        for row in todo + done:
            a = row.get(c)
            if a:
                _axpy(row, -a, p)
        done.append(p)
        pivots.append(c)
    return done, pivots


def rational_rref(M: np.ndarray):
    """Reduced row echelon form by exact Gaussian elimination.

    Returns (R, pivots) where pivots[i] is the column of the leading 1 in
    row i of R.
    """
    rows, pivots = _rref_rows(_sparse_rows(M), M.shape[1])
    return _dense(rows, M.shape), pivots


def rational_rank(M: np.ndarray) -> int:
    """Exact rank of a rational matrix."""
    _, pivots = rational_rref(M)
    return len(pivots)


def rational_nullspace(M: np.ndarray) -> list[np.ndarray]:
    """Exact basis of the right nullspace, as column vectors.

    len(result) == cols - rational_rank(M), and M @ v == 0 exactly for
    every returned v.
    """
    cols = M.shape[1]
    return [_dense([v], (1, cols)).T for v in _nullspace_rows(_sparse_rows(M), cols)]


def _nullspace_rows(rows: list[dict], cols: int) -> list[dict]:
    """Sparse basis of the right nullspace of the matrix with these rows
    (which it consumes).  The vector of free column f is 1 at f, -R_i[f] at
    the pivot column of each reduced row R_i, and 0 at the other free
    columns; the vectors come in the order of their free columns."""
    reduced, pivots = _rref_rows(rows, cols)
    kernel = {f: {f: Fraction(1)} for f in sorted(set(range(cols)) - set(pivots))}
    for p, row in zip(pivots, reduced):
        for f, x in row.items():
            if f != p:
                kernel[f][p] = -x
    return list(kernel.values())


def rational_solve(A: np.ndarray, b: np.ndarray):
    """Exact solution of A x = b, or None if the system is inconsistent.

    When the solution is underdetermined an arbitrary particular solution
    (free variables set to zero) is returned.
    """
    cols = A.shape[1]
    R, pivots = rational_rref(np.hstack([A, b]))
    if any(p >= cols for p in pivots):
        return None
    x = rzeros(cols, b.shape[1])
    for i, p in enumerate(pivots):
        x[p] = R[i, cols:]
    return x


def rational_inverse(A: np.ndarray) -> np.ndarray:
    """Exact inverse of a square rational matrix."""
    n = A.shape[0]
    if A.shape[1] != n:
        raise ShapeError("inverse requires a square matrix")
    x = rational_solve(A, reye(n))  # None exactly when A is singular
    if x is None:
        raise ValueError("matrix is singular")
    return x


# ---------------------------------------------------------------------------
# JSON interchange
#
# Complex: { "rows": r, "cols": c, "re": [...], "im": [...] } ("im" optional).
# Rational: { "rows": r, "cols": c, "num": [...], "den": [...] }.
# All entry lists are row-major.


def matrix_to_json(M: np.ndarray) -> dict:
    rows, cols = M.shape
    if is_rational(M):
        return _rows_to_json(_sparse_rows(M), cols)
    M = np.asarray(M, dtype=complex)
    out = {"rows": rows, "cols": cols, "re": M.real.ravel().tolist()}
    if np.any(M.imag != 0):
        out["im"] = M.imag.ravel().tolist()
    return out


def _rows_to_json(rows: list[dict], cols: int, exact: bool = True) -> dict:
    """The JSON object of the matrix with these sparse rows.  Zeros of an
    exact matrix are written as 0/1 without making a Fraction; a floating
    one goes through its dense form."""
    if not exact:
        return matrix_to_json(_dense(rows, (len(rows), cols), exact=False))
    num, den = [0] * (len(rows) * cols), [1] * (len(rows) * cols)
    for i, row in enumerate(rows):
        for j, x in row.items():
            num[i * cols + j], den[i * cols + j] = x.numerator, x.denominator
    return {"rows": len(rows), "cols": cols, "num": num, "den": den}


def _json_entries(obj: dict, key: str, kinds: tuple, n: int) -> list:
    """obj[key] as a list of n numbers whose types are among kinds (bool never is)."""
    xs = obj[key]
    if not isinstance(xs, list) or not all(type(x) in kinds for x in xs):
        names = " or ".join(k.__name__ for k in kinds)
        raise DomainError(f'"{key}" must be a list of {names} entries')
    if len(xs) != n:
        raise ShapeError("entry count does not match rows*cols")
    return xs


def matrix_from_json(obj: dict) -> np.ndarray:
    if not isinstance(obj, dict):
        raise DomainError(f"a matrix is a JSON object, got {type(obj).__name__}")
    rows, cols = obj["rows"], obj["cols"]
    if type(rows) is not int or type(cols) is not int:
        raise DomainError('"rows" and "cols" must be integers')
    n = rows * cols
    if "num" in obj:
        num = _json_entries(obj, "num", (int,), n)
        den = _json_entries(obj, "den", (int,), n)
        if 0 in den:
            raise DomainError("a denominator is 0")
        flat, build = [Fraction(a, b) for a, b in zip(num, den)], rmat
    else:
        re = _json_entries(obj, "re", (int, float), n)
        im = _json_entries(obj, "im", (int, float), n) if "im" in obj else [0.0] * n
        flat, build = [a + 1j * b for a, b in zip(re, im)], cmat
    return build([flat[i * cols : (i + 1) * cols] for i in range(rows)])
