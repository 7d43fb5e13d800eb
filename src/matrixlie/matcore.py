"""Dense matrix carriers and the floating primitives everything else builds on.

The public functions take and return dense matrices: complex floating
ones are ``numpy`` arrays of ``complex128``, exact rational ones are
``numpy`` object arrays of ``fractions.Fraction`` (never rounded, always
in lowest terms).  ``_sparse_rows`` and ``_dense`` convert them to and from
the sparse rows of the exact row kernel, ``rowcore``, which imports no
numpy; its names are re-exported here.  ``is_rational`` is the one test of
exactness, and two readers take matrices by it: ``rmat`` for the rectangular
exact algebra and ``_gate`` for square entry points.  Also here: norms, exact
rank/nullspace/solve and the JSON interchange format.
"""

from __future__ import annotations

import functools
import inspect
import math
from fractions import Fraction

import numpy as np

from .errors import DomainError, ShapeError
from .rowcore import (Tolerance, _axpy, _commutator, _coords, _count, _fractions,  # noqa: F401
                      _integer, _integer_rows, _json_matrix, _lowest_terms, _nullspace_rows,
                      _over_lcm, _rows_to_json, _rows_to_text, _rref_rows)

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


DEFAULT_TOL = Tolerance()
# machine epsilon, the accuracy the floating kernels aim at whatever the tolerance
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)  # the least normal float


def cmat(rows) -> np.ndarray:
    """Build a complex matrix from nested lists (or pass an array through), read by to_complex:
    ShapeError unless 2-d, DomainError for an entry that is not a finite number."""
    if (A := to_complex(rows)).ndim != 2:
        raise ShapeError(f"expected a 2-d matrix, got shape {A.shape}")
    if not _finite(A):
        raise DomainError("matrix entries must be finite")
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
    """Entrywise |A_ij - B_ij| <= tol.abs + tol.rel * |B_ij|, for arrays of any one shape;
    DomainError for a non-finite entry."""
    A, B = to_complex(A), to_complex(B)
    if A.shape != B.shape:
        raise ShapeError(f"shape mismatch: {A.shape} vs {B.shape}")
    if not (_finite(A) and _finite(B)):
        raise DomainError("matrix entries must be finite")
    return _close(A, B, tol)


def _close(A: np.ndarray, B: np.ndarray, tol: Tolerance) -> bool:
    """approx_eq for floating arrays of one shape, with no conversion."""
    return bool((np.abs(A - B) <= tol.abs + tol.rel * np.abs(B)).all())


# ---------------------------------------------------------------------------
# exact rational matrices


def rmat(rows) -> np.ndarray:
    """rows, nested lists or any 2-d array, as a new exact matrix of Fractions: the one reader of
    the rectangular exact algebra (rdot, rational_*).  ShapeError for ragged or empty rows,
    DomainError for an entry that Fraction cannot read (inf, NaN, complex, a non-number)."""
    A = np.asarray(rows, dtype=object)  # ragged rows make an array of lists, not 2-d
    if A.ndim != 2 or not A.size:
        raise ShapeError(f"a rational matrix needs nonempty rows of one length, got {A.shape}")
    try:
        return np.vectorize(Fraction, otypes=[object])(A)
    except (TypeError, ValueError, OverflowError):
        raise DomainError("an entry has no exact rational value") from None


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
    """Exact matrix product of rational matrices, each read by rmat."""
    A, B = rmat(A), rmat(B)
    if A.shape[1] != B.shape[0]:
        raise ShapeError(f"cannot multiply {A.shape} by {B.shape}")
    return np.dot(A, B)


def is_rational(M) -> bool:
    """Whether M is an exact matrix: an object array whose entries are all ints (not bools) or
    Fractions.  The one test of exactness; rmat and _gate read matrices by it."""
    return (isinstance(M, np.ndarray) and M.dtype == object
            and set(map(type, M.flat)) <= {int, Fraction})


def to_complex(M: np.ndarray) -> np.ndarray:
    """A rational (or floating) matrix as a complex floating one; ShapeError
    for ragged rows, DomainError for an entry that is not a number or an
    exact entry beyond the float range."""
    try:
        A = np.asarray(M)
        if A.dtype.kind in "OSU" and any(issubclass(t, (str, bytes)) for t in set(map(type, A.flat))):
            raise TypeError  # numpy would parse a string that spells a number
        return A.astype(complex, copy=False)
    except OverflowError:
        raise DomainError("an exact entry has no finite float value") from None
    except (TypeError, ValueError):
        try:
            ragged = any(map(np.ndim, np.asarray(M, dtype=object).flat))
        except ValueError:  # some ragged nestings fail even as an object array
            ragged = True
        if ragged:
            raise ShapeError("ragged rows") from None
        raise DomainError("matrix entries must be numbers") from None


def _check_square(*Ms):
    """Raise ShapeError unless the arrays, of any dtype, are nonempty, square and of one
    shape; no arrays at all pass, as the zero algebra's basis () does."""
    shape = Ms[0].shape if Ms else (1, 1)
    if len(shape) != 2 or shape[0] != shape[1] or not shape[0] or len({M.shape for M in Ms}) > 1:
        shapes = ", ".join(str(M.shape) for M in Ms)
        raise ShapeError(f"need nonempty square matrices of one shape, got {shapes}")


def _finite(M: np.ndarray) -> bool:
    """Whether every entry is finite; a finite sum of squares proves it in one call."""
    return math.isfinite(np.vdot(M, M).real) or bool(np.isfinite(M).all())


def _gate(Ms, exact: bool = False) -> list:
    """The matrices Ms as a square entry point reads them, the one reader there: ShapeError
    unless nonempty, square and of one shape, DomainError for a non-finite entry.  They come
    back as complex arrays; with exact=True they stay exact, read by rmat as arrays of
    Fractions, if all are exact (is_rational), and else a floating array keeps its dtype and
    any other becomes complex."""
    keep = exact and all(map(is_rational, Ms))  # rmat makes each int a Fraction, so / stays exact
    Ms = [rmat(M) if keep else M if exact and type(M) is np.ndarray and M.dtype.kind in "fc"
          else to_complex(M) for M in Ms]
    _check_square(*Ms)
    if not keep and not all(map(_finite, Ms)):
        raise DomainError("matrix entries must be finite")
    return Ms


def _entry(nmats: int, exact: bool = False):
    """Decorator of a floating entry point whose first nmats parameters are
    matrices, by position or keyword, which reach it through _gate.  numpy's
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
            out = quiet(*_gate(args[:nmats], exact), *args[nmats:], **kwargs)
            for R in out if type(out) is tuple else (out,):
                if type(R) is np.ndarray and R.dtype.kind in "fc" and not _finite(R):
                    raise DomainError("the result has a non-finite entry")
            return out

        return entry

    return decorate


def _relative_det(s: np.ndarray) -> float:
    """|det A| / (||A||_F / sqrt(n))^n from the singular values s of A, largest first
    (|det A| = prod s, ||A||_F = ||s||_2): unchanged when A is scaled, 1 for a multiple
    of a unitary matrix, at most 1 (AM-GM) and 0 for a singular A; in logarithms of
    r = s / s_1, as products and squares of singular values can overflow."""
    s = s.tolist()
    r = [x / s[0] for x in s] if s[0] else s  # 1 = r_1 >= ... >= r_n
    if not r[-1]:  # s_n = 0, or r_n underflows and so does the result
        return 0.0
    return math.exp(sum(map(math.log, r)) - len(r) / 2 * math.log(sum(x * x for x in r) / len(r)))


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


def rational_rref(M: np.ndarray):
    """Reduced row echelon form by exact Gaussian elimination.

    Returns (R, pivots) where pivots[i] is the column of the leading 1 in
    row i of R.
    """
    rows, pivots = _rref_rows(_sparse_rows(M := rmat(M)))
    return _dense(rows, M.shape), pivots


def rational_rank(M: np.ndarray) -> int:
    """Exact rank of a rational matrix."""
    return len(_rref_rows(_sparse_rows(rmat(M)))[1])


def rational_nullspace(M: np.ndarray) -> list[np.ndarray]:
    """Exact basis of the right nullspace, as column vectors.

    len(result) == cols - rational_rank(M), and M @ v == 0 exactly for
    every returned v.
    """
    cols = (M := rmat(M)).shape[1]
    return [_dense([v], (1, cols)).T for v in _nullspace_rows(_sparse_rows(M), cols)]


def rational_solve(A: np.ndarray, b: np.ndarray):
    """Exact solution of A x = b, or None if the system is inconsistent: rowcore._coords of
    b's columns in the span of A's, each column passed as a one-row sparse matrix.

    When the solution is underdetermined the particular solution with the
    free variables set to zero is returned.
    """
    A, b = rmat(A), rmat(b)
    if len(A) != len(b):
        raise ShapeError(f"cannot solve {A.shape} against {b.shape}")
    x = _coords(*([[row] for row in _sparse_rows(M.T)] for M in (b, A)))
    return None if x is None else _dense(x[: A.shape[1]], (A.shape[1], b.shape[1]))


def rational_inverse(A: np.ndarray) -> np.ndarray:
    """Exact inverse of a square rational matrix, read once by rmat, solved as rational_solve."""
    _check_square(A := rmat(A))
    x = _coords([[{i: 1}] for i in range(len(A))], [[row] for row in _sparse_rows(A.T)])
    if x is None:  # exactly when A is singular
        raise ValueError("matrix is singular")
    return _dense(x[: len(A)], A.shape)


# ---------------------------------------------------------------------------
# JSON interchange (the format is described in rowcore)


def matrix_to_json(M: np.ndarray) -> dict:
    """The JSON object of a matrix, exact if it is_rational and else floating."""
    exact = is_rational(M)
    M = M if exact else to_complex(M)
    if M.ndim != 2:
        raise ShapeError(f"expected a 2-d matrix, got shape {M.shape}")
    rows, cols = M.shape
    if exact:
        return _rows_to_json(*_integer_rows(_sparse_rows(M)), cols)
    out = {"rows": rows, "cols": cols, "re": M.real.ravel().tolist()}
    if np.any(M.imag != 0):
        out["im"] = M.imag.ravel().tolist()
    return out


def matrix_from_json(obj: dict) -> np.ndarray:
    M, D, cols = _json_matrix(obj)
    return _dense(_fractions(M, D), (len(M), cols)) if type(M) is list else M
