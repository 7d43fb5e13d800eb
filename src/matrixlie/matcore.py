"""Dense matrix carriers and the primitives everything else builds on.

Two carriers are used throughout the package:

* complex floating matrices: plain ``numpy`` arrays of ``complex128``;
* exact rational matrices: ``numpy`` object arrays whose entries are
  ``fractions.Fraction`` (never rounded, always in lowest terms).

This module provides the norm/comparison primitives for the floating
carrier and exact rank/nullspace/solve primitives for the rational one,
plus the JSON interchange format used by the CLI and test fixtures.

Exact elimination runs on an internal sparse carrier: one dict
{column: Fraction} of nonzero entries per row.  Object arrays are
converted to it and back at the boundary of each public function.
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
    """The nonzero entries of a rational matrix, one {column: Fraction} per row."""
    rows = [{} for _ in range(M.shape[0])]
    i, j = np.nonzero(M)
    for r, c in zip(i.tolist(), j.tolist()):
        x = M[r, c]
        rows[r][c] = x if isinstance(x, Fraction) else Fraction(x)
    return rows


def _axpy(y: dict, a, x: dict):
    """y += a x for sparse vectors, dropping entries that cancel."""
    for k, v in x.items():
        s = y.get(k, 0) + a * v
        if s:
            y[k] = s
        else:
            del y[k]


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
    R = rzeros(*M.shape)
    for i, row in enumerate(rows):
        for j, x in row.items():
            R[i, j] = x
    return R, pivots


def rational_rank(M: np.ndarray) -> int:
    """Exact rank of a rational matrix."""
    _, pivots = rational_rref(M)
    return len(pivots)


def rational_nullspace(M: np.ndarray) -> list[np.ndarray]:
    """Exact basis of the right nullspace, as column vectors.

    len(result) == cols - rational_rank(M), and M @ v == 0 exactly for
    every returned v.
    """
    R, pivots = rational_rref(M)
    cols = M.shape[1]
    free = sorted(set(range(cols)) - set(pivots))
    basis = []
    for f in free:
        v = rzeros(cols, 1)
        v[f, 0] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p, 0] = -R[i, f]
        basis.append(v)
    return basis


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
        flat = [M[i, j] for i in range(rows) for j in range(cols)]
        return {
            "rows": rows,
            "cols": cols,
            "num": [int(x.numerator) for x in flat],
            "den": [int(x.denominator) for x in flat],
        }
    M = np.asarray(M, dtype=complex)
    out = {
        "rows": rows,
        "cols": cols,
        "re": [float(M[i, j].real) for i in range(rows) for j in range(cols)],
    }
    if np.any(M.imag != 0):
        out["im"] = [float(M[i, j].imag) for i in range(rows) for j in range(cols)]
    return out


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
        return rmat(
            [
                [Fraction(num[i * cols + j], den[i * cols + j]) for j in range(cols)]
                for i in range(rows)
            ]
        )
    re = _json_entries(obj, "re", (int, float), n)
    im = _json_entries(obj, "im", (int, float), n) if "im" in obj else [0.0] * n
    return cmat(
        [
            [re[i * cols + j] + 1j * im[i * cols + j] for j in range(cols)]
            for i in range(rows)
        ]
    )
