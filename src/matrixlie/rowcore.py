"""The exact row kernel, which imports no numpy; matcore re-exports it.

A sparse row is one dict {column: entry} of nonzero entries.  ``_commutator``
brackets rows, ``_rref_rows`` eliminates on them, and ``_coords`` and
``_constants`` solve for coordinates and structure constants.  A
representation generator is integer rows over one denominator D > 0, made
by ``_over_lcm`` and ``_integer_rows``, read back by ``_fractions``, and
read and written with no Fraction by ``_json_matrix`` and ``_rows_to_json``,
or ``_rows_to_text``, which writes the same object as JSON text.  Also here:
``Tolerance`` and the integer rule for counts.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import ClosureError, DomainError, ShapeError


@dataclass(frozen=True)
class Tolerance:
    """Absolute/relative tolerance pair used by every floating comparison."""

    abs: float = 1e-9
    rel: float = 1e-9

    def __post_init__(self):
        if not (self.abs >= 0 and self.rel >= 0):
            raise ValueError("tolerances must be nonnegative")
        if not (math.isfinite(self.abs) and math.isfinite(self.rel)):
            raise ValueError("tolerances must be finite")


def _integer(value, least: int) -> int | None:
    """value as an int >= least, numpy integers included; else None (for a
    bool, float, str, None or array too)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        return None
    return operator.index(value)


def _count(name: str, value) -> int:
    """value as an int >= 1, numpy integers included; else DomainError."""
    if (count := _integer(value, 1)) is None:
        raise DomainError(f"{name} must be an integer >= 1, got {value!r}")
    return count


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


def _coords(targets: list, elements: list) -> list[dict] | None:
    """Exact coordinates of every target in span(elements), all sparse rows,
    or None if some target lies outside the span.

    Floating entries are dyadic rationals, so Fraction reads them exactly.
    Returns 2d rows of Fractions, d = len(elements), row j < d holding
    {t: Re c_j} and row d + j {t: Im c_j} for the coefficients c of
    targets[t].  They solve the doubled real system in the unknowns
    (Re c_j, Im c_j), whose column for i c_j is (-Im B_j, Re B_j), built
    from the nonzero parts only with one right-hand side per target; one
    _rref_rows solves it, free unknowns at 0.
    """
    d = len(elements)
    eqs = {}  # (i, j, 0 for the real part or 1 for the imaginary) -> {column: Fraction}
    for c, M in enumerate([*elements, *targets]):  # the column of target t is 2d + t
        for i, row in enumerate(M):
            for j, x in row.items():
                for k, v in ((0, x.real), (1, x.imag)):
                    if v:
                        v = v if type(v) is Fraction else Fraction(v)
                        eqs.setdefault((i, j, k), {})[c if c < d else c + d] = v
                        if c < d:  # the column of i c_j
                            eqs.setdefault((i, j, 1 - k), {})[c + d] = -v if k else v
    reduced, pivots = _rref_rows(list(eqs.values()))
    if pivots and pivots[-1] >= 2 * d:
        return None
    coef = [{} for _ in range(2 * d)]
    for p, row in zip(pivots, reduced):
        coef[p] = {c - 2 * d: v for c, v in row.items() if c >= 2 * d}
    return coef


def _constants(elements: list, brackets: list | None = None) -> dict:
    """Structure constants {(i, j): {k: c_ijk}}, nonzero c_ijk only, of the
    elements X_k, sparse rows: [X_i, X_j] = sum_k c_ijk X_k for the pairs
    i < j in order, brackets[t] the t-th bracket, by default by _commutator.
    ClosureError if one leaves the span, DomainError if a c_ijk is not real."""
    d, pairs = len(elements), list(itertools.combinations(range(len(elements)), 2))
    if brackets is None:
        brackets = [_commutator(elements[i], elements[j]) for i, j in pairs]
    coef = _coords(brackets, elements)
    if coef is None:
        raise ClosureError("bracket leaves the span of the basis")
    if any(coef[d:]):
        raise DomainError("structure constants are not real rational")
    return {pair: {k: row[t] for k, row in enumerate(coef[:d]) if t in row}
            for t, pair in enumerate(pairs)}


# ---------------------------------------------------------------------------
# JSON interchange
#
# Complex: { "rows": r, "cols": c, "re": [...], "im": [...] } ("im" optional).
# Rational: { "rows": r, "cols": c, "num": [...], "den": [...] }.
# All entry lists are row-major.


def _lowest_terms(rows: list[dict], D: int, cols: int, kind=int) -> tuple:
    """The row-major num and den lists of integer rows over D as kind (int, or
    str for JSON text): each entry in lowest terms by one gcd, a zero as 0/1."""
    num, den = [kind(0)] * (len(rows) * cols), [kind(1)] * (len(rows) * cols)
    for i, row in enumerate(rows):
        for j, x in row.items():
            g = math.gcd(x, D)
            num[i * cols + j], den[i * cols + j] = kind(x // g), kind(D // g)
    return num, den


def _rows_to_json(rows: list[dict], D: int, cols: int) -> dict:
    """The JSON object of the exact matrix with these integer rows over D."""
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
    floating one as a dense complex array over 1, by matcore.cmat."""
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
    from .matcore import cmat  # the floating carrier is a numpy array
    re = _json_entries(obj, "re", (int, float), n)
    im = _json_entries(obj, "im", (int, float), n) if "im" in obj else [0.0] * n
    flat = [a + 1j * b for a, b in zip(re, im)]
    try:
        return cmat([flat[i * cols : (i + 1) * cols] for i in range(rows)]), 1, cols
    except ValueError:  # JSON's NaN and Infinity tokens
        raise DomainError("matrix entries must be finite") from None
