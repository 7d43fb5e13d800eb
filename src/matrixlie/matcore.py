"""Matrix carriers and the primitives everything else builds on.

The public functions take and return dense matrices: complex floating
ones are ``numpy`` arrays of ``complex128``, exact rational ones are
``numpy`` object arrays of ``fractions.Fraction`` (never rounded, always
in lowest terms).  Exact elimination and representation generators use
sparse rows instead, one dict {column: entry} of nonzero entries per
row: ``_sparse_rows`` and ``_dense`` convert between the forms,
``_commutator`` brackets rows, ``_rref_rows`` eliminates on rows.  A
representation generator is integer rows over one denominator D > 0, made
by ``_over_lcm`` and ``_integer_rows``, read back by ``_fractions``, and
read and written with no Fraction by ``_json_matrix`` and ``_rows_to_json``,
or ``_rows_to_text``, which writes the same object as JSON text.
Also here: norms, exact rank/nullspace/solve and the JSON interchange format.
"""

from __future__ import annotations

import functools
import inspect
import math
import numbers
import operator
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
# machine epsilon, the accuracy the floating kernels aim at whatever the tolerance
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)  # the least normal float


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
    M = to_complex(M)
    s = np.vdot(M, M).real  # vdot does not warn when the sum overflows
    if _TINY <= s < np.inf or not M.any():
        return math.sqrt(s)
    # under- or overflow, or a non-finite entry: rescale by the largest modulus (Anderson
    # 2017), in reals as a complex M / m forms 1/m; a Python float product overflows silently
    a = np.abs(M)
    m = float(a.max())
    return m * math.sqrt(np.vdot(a / m, a / m)) if 0 < m < math.inf else m


def approx_eq(A, B, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Entrywise |A_ij - B_ij| <= tol.abs + tol.rel * |B_ij|."""
    A = to_complex(A)
    B = to_complex(B)
    if A.shape != B.shape:
        raise ShapeError(f"shape mismatch: {A.shape} vs {B.shape}")
    return _close(A, B, tol)


def _close(A: np.ndarray, B: np.ndarray, tol: Tolerance) -> bool:
    """approx_eq for floating arrays of one shape, with no conversion."""
    return bool((np.abs(A - B) <= tol.abs + tol.rel * np.abs(B)).all())


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
    """A rational (or floating) matrix as a complex floating one; an exact
    entry beyond the float range raises DomainError."""
    try:
        return np.asarray(M, dtype=complex)
    except OverflowError:
        raise DomainError("an exact entry has no finite float value") from None


def _check_square(*Ms):
    """Raise ShapeError unless the arrays, of any dtype, are nonempty,
    square and of one shape."""
    shape = Ms[0].shape
    if len(shape) != 2 or shape[0] != shape[1] or not shape[0] or len({M.shape for M in Ms}) > 1:
        shapes = ", ".join(str(M.shape) for M in Ms)
        raise ShapeError(f"need nonempty square matrices of one shape, got {shapes}")


def _finite(M: np.ndarray) -> bool:
    """Whether every entry is finite; a finite sum of squares proves it in one call."""
    return bool(np.vdot(M, M).real < np.inf) or bool(np.isfinite(M).all())


def _entry(nmats: int, exact: bool = False):
    """Decorator of a floating entry point whose first nmats parameters are
    matrices, by position or keyword: ShapeError unless nonempty, square
    and of one shape, DomainError for a non-finite entry.  They reach the
    function as complex arrays; with exact=True they stay exact if all are
    rational, and else a floating array keeps its dtype and any other (a
    rational, integer or bool array, or a list) becomes complex.  numpy's
    overflow, invalid and divide warnings are silenced while it runs; a
    non-finite floating array in its result, alone or in a tuple, raises DomainError."""

    def decorate(f):
        quiet = np.errstate(over="ignore", invalid="ignore", divide="ignore")(f)
        signature = inspect.signature(f)

        @functools.wraps(f)
        def entry(*args, **kwargs):
            if len(args) < nmats:  # a matrix passed by keyword; a missing one is a TypeError
                bound = signature.bind(*args, **kwargs)
                args, kwargs = bound.args, bound.kwargs
            Ms = args[:nmats]
            keep = exact and all(map(is_rational, Ms))  # exact input stays exact
            if not keep:
                Ms = tuple(M if exact and type(M) is np.ndarray and M.dtype.kind in "fc"
                           else to_complex(M) for M in Ms)
            _check_square(*Ms)
            if not keep and not all(map(_finite, Ms)):
                raise DomainError("matrix entries must be finite")
            out = quiet(*Ms, *args[nmats:], **kwargs)
            for R in out if type(out) is tuple else (out,):
                if type(R) is np.ndarray and R.dtype.kind in "fc" and not _finite(R):
                    raise DomainError("the result has a non-finite entry")
            return out

        return entry

    return decorate


def _count(name: str, value) -> int:
    """value as an int >= 1, numpy integers included; else DomainError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise DomainError(f"{name} must be an integer >= 1, got {value!r}")
    return operator.index(value)


def _relative_det(A: np.ndarray) -> float:
    """|det A| / (||A||_F / sqrt(n))^n, which does not change when A is
    scaled: 1 for a multiple of a unitary matrix, at most 1 by Hadamard's
    inequality, and 0 for A = 0; in logarithms, as 1 / ||A||_F can overflow."""
    norm, n = frobenius_norm(A), A.shape[0]
    if not norm:
        return 0.0
    return math.exp(np.linalg.slogdet(A)[1] - n * (math.log(norm) - math.log(n) / 2))


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


def _over_lcm(rows: list[dict]) -> tuple:
    """Sparse rows of (numerator, denominator) pairs, in any terms and signs,
    as (integer rows, D), D > 0 the least common denominator of the entries."""
    if all(b == 1 for row in rows for _, b in row.values()):
        return [{j: a for j, (a, _) in row.items()} for row in rows], 1
    D = math.lcm(*(b // math.gcd(a, b) for row in rows for a, b in row.values()))
    return [{j: a * D // b for j, (a, b) in row.items()} for row in rows], D


def _integer_rows(rows: list[dict]) -> tuple:
    """Sparse rows of Fraction (or int) entries as (integer rows, D)."""
    return _over_lcm([{j: x.as_integer_ratio() for j, x in row.items()} for row in rows])


def _fractions(rows: list[dict], D: int) -> list[dict]:
    """Integer rows over D as new rows of Fraction entries."""
    return [{j: Fraction(x, D) for j, x in row.items()} for row in rows]


def _axpy(y: dict, a, x: dict):
    """y += a x for sparse vectors, dropping entries that cancel."""
    for k, v in x.items():
        s = y.get(k, 0) + a * v
        if s:
            y[k] = s
        else:
            y.pop(k, None)  # a floating product can underflow to 0


def _commutator(A: list[dict], B: list[dict], s=1) -> list[dict]:
    """Sparse rows of s (AB - BA)."""
    out = [{} for _ in A]
    for P, Q, t in ((A, B, s), (B, A, -s)):
        for i, row in enumerate(P):
            for k, a in row.items():
                _axpy(out[i], t * a, Q[k])
    return out


def _rref_rows(rows: list[dict]):
    """Gauss-Jordan elimination on sparse rows, which it consumes.

    Returns (reduced nonzero rows, pivots), the rows in ascending pivot
    order.  A forward pass takes the rows sparsest first and reduces each by
    the pivot rows found so far, in ascending column order; a row that is
    still nonzero becomes the pivot row of its leading column.  One back
    substitution from the last pivot then clears the other pivot columns.
    The reduced form is unique, so the row order does not change it.
    """
    piv = {}  # leading column -> its row, scaled so that the leading entry is 1
    for row in sorted(rows, key=len):
        while row:
            c = min(row)
            p = piv.get(c)
            if p is None:
                a = row[c]
                piv[c] = {j: x / a for j, x in row.items()}
                break
            _axpy(row, -row[c], p)
            row.pop(c, None)  # a floating leading entry need not cancel exactly
    pivots = sorted(piv)
    for c in reversed(pivots):
        row = piv[c]
        for j in [j for j in row if j != c and j in piv]:
            _axpy(row, -row[j], piv[j])
            row.pop(j, None)
    return [piv[c] for c in pivots], pivots


def rational_rref(M: np.ndarray):
    """Reduced row echelon form by exact Gaussian elimination.

    Returns (R, pivots) where pivots[i] is the column of the leading 1 in
    row i of R.
    """
    rows, pivots = _rref_rows(_sparse_rows(M))
    return _dense(rows, M.shape), pivots


def rational_rank(M: np.ndarray) -> int:
    """Exact rank of a rational matrix."""
    return len(_rref_rows(_sparse_rows(M))[1])


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
    reduced, pivots = _rref_rows(rows)
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
        return _rows_to_json(*_integer_rows(_sparse_rows(M)), cols)
    M = np.asarray(M, dtype=complex)
    out = {"rows": rows, "cols": cols, "re": M.real.ravel().tolist()}
    if np.any(M.imag != 0):
        out["im"] = M.imag.ravel().tolist()
    return out


def _lowest_terms(rows: list[dict], D: int, cols: int, kind=int) -> tuple:
    """The row-major num and den lists of integer rows over D as kind (int, or
    str for JSON text): each entry in lowest terms by one gcd, a zero as 0/1."""
    num, den = [kind(0)] * (len(rows) * cols), [kind(1)] * (len(rows) * cols)
    for i, row in enumerate(rows):
        for j, x in row.items():
            g = math.gcd(x, D)
            num[i * cols + j], den[i * cols + j] = kind(x // g), kind(D // g)
    return num, den


def _rows_to_json(rows: list[dict], D: int, cols: int, exact: bool = True) -> dict:
    """The JSON object of the matrix with these sparse rows over D: an exact
    one by _lowest_terms, a floating one (D = 1) through its dense form."""
    if not exact:
        return matrix_to_json(_dense(rows, (len(rows), cols), exact=False))
    num, den = _lowest_terms(rows, D, cols)
    return {"rows": len(rows), "cols": cols, "num": num, "den": den}


def _rows_to_text(rows: list[dict], D: int, cols: int) -> str:
    """_rows_to_json of exact rows as the text json.dumps writes with sorted
    keys and no spaces: str only at the nonzero entries, one join per list."""
    num, den = map(",".join, _lowest_terms(rows, D, cols, str))
    return f'{{"cols":{cols},"den":[{den}],"num":[{num}],"rows":{len(rows)}}}'


def _json_entries(obj: dict, key: str, kinds: tuple, n: int) -> list:
    """obj[key] as a list of n numbers whose types are among kinds (bool never is)."""
    xs = obj[key]
    if not isinstance(xs, list) or not set(map(type, xs)) <= set(kinds):
        names = " or ".join(k.__name__ for k in kinds)
        raise DomainError(f'"{key}" must be a list of {names} entries')
    if len(xs) != n:
        raise ShapeError("entry count does not match rows*cols")
    return xs


def _json_matrix(obj: dict) -> tuple:
    """The checked JSON matrix obj as (matrix, D, column count): an exact one
    as integer rows over D, read from num/den with no Fraction made, a
    floating one as a dense complex array over 1."""
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
        if rows < 1:
            raise ShapeError("a rational matrix needs at least one row")
        out = [{} for _ in range(rows)]
        for k, a in enumerate(num):
            if a:
                out[k // cols][k % cols] = a, den[k]
        return *_over_lcm(out), cols
    re = _json_entries(obj, "re", (int, float), n)
    im = _json_entries(obj, "im", (int, float), n) if "im" in obj else [0.0] * n
    flat = [a + 1j * b for a, b in zip(re, im)]
    try:
        return cmat([flat[i * cols : (i + 1) * cols] for i in range(rows)]), 1, cols
    except ValueError:  # JSON's NaN and Infinity tokens
        raise DomainError("matrix entries must be finite") from None


def matrix_from_json(obj: dict) -> np.ndarray:
    M, D, cols = _json_matrix(obj)
    return _dense(_fractions(M, D), (len(M), cols)) if type(M) is list else M
