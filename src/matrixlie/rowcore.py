"""The exact row kernel, which imports no numpy; matcore re-exports it.

A sparse row is one dict {column: entry} of nonzero entries.  ``_commutator``
brackets rows, ``_residuals_vanish`` decides a relation check on dense
integer rows, ``_rref_rows`` eliminates on them, and ``_coords`` and
``_constants`` solve for coordinates and structure constants.  A
representation generator is integer rows over one denominator D > 0, made
by ``_over_lcm`` and ``_integer_rows``, read back by ``_fractions``, and
read and written with no Fraction by ``_json_matrix`` and ``_rows_to_json``,
or ``_rows_to_text``, which writes the same object as JSON text.  Both
writers take the entries in lowest terms from ``_lowest_terms``;
``_rows_to_text`` splices each entry's text into runs of "0," and "1,", so
its Python work is per stored entry, not per cell.  Also here:
``Tolerance``, the integer rule for counts, and ``_BASES``, the built-in bases
as sparse rows, whose structure constants ``_builtin_constants`` gives.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import numbers
import operator

from .errors import ClosureError, DomainError, ShapeError


# a namedtuple, not a dataclass: exact CLI calls import neither dataclasses nor the inspect it loads
class Tolerance(collections.namedtuple("Tolerance", "abs rel")):
    """Absolute/relative tolerance pair used by every floating comparison;
    immutable, and as a tuple equal to (abs, rel)."""

    __slots__ = ()

    def __new__(cls, abs: float = 1e-9, rel: float = 1e-9):
        if not (abs >= 0 and rel >= 0):
            raise ValueError("tolerances must be nonnegative")
        if not (math.isfinite(abs) and math.isfinite(rel)):
            raise ValueError("tolerances must be finite")
        return super().__new__(cls, abs, rel)

    _make = classmethod(lambda cls, values: cls(*values))  # so _replace validates too


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
    from fractions import Fraction  # imported where one is made: exact CLI calls seldom need it
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
    """Sparse rows of s (AB - BA), entries that cancel dropped as _axpy drops them."""
    out = [{} for _ in A]
    for P, Q, t in ((A, B, s), (B, A, -s)):
        for row, acc in zip(P, out):
            for k, a in row.items():
                ta = t * a
                for j, v in Q[k].items():
                    if x := acc.get(j, 0) + ta * v:
                        acc[j] = x
                    else:
                        acc.pop(j, None)  # a floating product can underflow to 0
    return out


def _residuals_vanish(gens: list, terms: list) -> bool:
    """Whether every residual R = s [N_i, N_j] + sum_k s_k N_k is 0, for the integer
    rows N of gens and each term (i, j, s, {k: s_k}), by O(nnz) products a term.

    This is Freivalds' check R v = 0 with the fixed v = (1, 2^w, 2^2w, ...):
    row r of a generator packs into one integer P(N)_r = sum_c N_rc 2^(wc),
    and row r of R v is s (sum_m N_i[r,m] P(N_j)_m - sum_m N_j[r,m] P(N_i)_m)
    + sum_k s_k P(N_k)_r.  The width w makes 2^(w-1) exceed every
    B = 2 s d max|N_i| max|N_j| + sum_k |s_k| max|N_k| >= |R_rc|.  So R v = 0
    exactly when R = 0: if c0 is the lowest nonzero column of row r of R, then
    (R v)_r = 2^(w c0) (R_rc0 + 2^w Q) for an integer Q, which is 0 only if
    R_rc0 = 0 or |R_rc0| >= 2^w, and neither holds.
    """
    d, top = len(gens[0]), [max(map(abs, itertools.chain(*map(dict.values, N))), default=0)
                            for N in gens]
    w = max((2 * s * d * top[i] * top[j] + sum(abs(t) * top[k] for k, t in sk.items())
             for i, j, s, sk in terms), default=0).bit_length() + 1
    packed = [[sum(x << w * c for c, x in row.items()) for row in N] for N in gens]
    mul = operator.mul
    for i, j, s, sk in terms:
        Pi, Pj, ts = packed[i], packed[j], list(sk.values())
        z = [sum(map(mul, ts, col)) for col in zip(*(packed[k] for k in sk))] if sk else [0] * d
        for a, b, y in zip(gens[i], gens[j], z):  # rows r of N_i and N_j, sum_k s_k P(N_k)_r
            if s * (sum(map(mul, a.values(), map(Pj.__getitem__, a)))
                    - sum(map(mul, b.values(), map(Pi.__getitem__, b)))) + y:
                return False
    return True


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
    from fractions import Fraction
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
    from fractions import Fraction
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


def _unit(n: int, i: int, j: int) -> list:
    """The n x n elementary matrix E_ij as sparse rows."""
    return [{j: 1} if r == i else {} for r in range(n)]


def _gl(n: int) -> tuple:
    """gl(n) as (algebra, labels, elements): the E_ij, row-major."""
    ij = [(i, j) for i in range(n) for j in range(n)]
    return f"gl({n},C)", tuple(f"E{i + 1}{j + 1}" for i, j in ij), [_unit(n, i, j) for i, j in ij]


def _sl(n: int) -> tuple:
    """sl(n) as (algebra, labels, elements): H_k = E_kk - E_k+1,k+1, then the E_ij and then
    the E_ji, i < j, ordered by j - i and then by i; labels H, X, Y for n = 2, else H1, X1, ..."""
    ij = sorted(itertools.combinations(range(n), 2), key=lambda p: (p[1] - p[0], p[0]))
    H = [[{r: 1 if r == k else -1} if r in (k, k + 1) else {} for r in range(n)]
         for k in range(n - 1)]
    labels = [s + str(k + 1) * (n > 2) for s, m in (("H", n - 1), ("X", len(ij)), ("Y", len(ij)))
              for k in range(m)]
    X, Y = [_unit(n, i, j) for i, j in ij], [_unit(n, j, i) for i, j in ij]
    return f"sl({n},C)", tuple(labels), H + X + Y


# the built-in bases by command-line name, as (algebra, labels, elements as sparse rows)
_BASES = {
    "su2": ("su(2)", ("E1", "E2", "E3"),  # [E1, E2] = E3, [E2, E3] = E1, [E3, E1] = E2
            [[{0: .5j}, {1: -.5j}], [{1: .5}, {0: -.5}], [{1: .5j}, {0: .5j}]]),
    "so3": ("so(3)", ("F1", "F2", "F3"),  # ad E_k in the su(2) basis is F_k
            [[{}, {2: -1}, {1: 1}], [{2: 1}, {}, {0: -1}], [{1: -1}, {0: 1}, {}]]),
    "sl2": _sl(2), "sl3": _sl(3), "gl2": _gl(2), "gl3": _gl(3),
    "heis": ("heis", ("X", "Y", "Z"), [_unit(3, 0, 1), _unit(3, 1, 2), _unit(3, 0, 2)]),
}


@functools.cache
def _builtin_constants(name: str) -> dict:
    """_constants of the built-in basis _BASES[name], computed once per process."""
    return _constants(_BASES[name][2])


# ---------------------------------------------------------------------------
# JSON interchange
#
# Complex: { "rows": r, "cols": c, "re": [...], "im": [...] } ("im" optional).
# Rational: { "rows": r, "cols": c, "num": [...], "den": [...] }.
# All entry lists are row-major.


def _lowest_terms(rows: list[dict], D: int, cols: int) -> tuple:
    """The stored entries of integer rows over D in lowest terms, by one gcd each and none
    if D = 1: (numerators, denominators), each a list of (row-major index, value) pairs in
    ascending index order, the denominators only where they are not 1."""
    num = sorted([(i * cols + j, x) for i, row in enumerate(rows) for j, x in row.items()])
    if D == 1:
        return num, []
    g = [math.gcd(x, D) for _, x in num]
    return [(k, x // h) for (k, x), h in zip(num, g)], [(k, D // h) for (k, _), h in zip(num, g)
                                                        if h != D]


def _rows_to_json(rows: list[dict], D: int, cols: int) -> dict:
    """The JSON object of the exact matrix with these integer rows over D."""
    n = len(rows) * cols
    num, den = [0] * n, [1] * n
    for entries, out in zip(_lowest_terms(rows, D, cols), (num, den)):
        for k, x in entries:
            out[k] = x
    return {"rows": len(rows), "cols": cols, "num": num, "den": den}


def _splice(entries: list, n: int, fill: str) -> str:
    """The text of a JSON list of n cells, the (index, value) entries, in ascending index
    order, spliced into runs of fill: one filler cell with its comma, "0," or "1,"."""
    parts, a = [], 0  # a: the cells written so far
    for k, x in entries:
        parts.append(f"{fill * (k - a)}{x},")
        a = k + 1
    parts.append(fill * (n - a))
    return "".join(parts)[:-1]


def _rows_to_text(rows: list[dict], D: int, cols: int) -> str:
    """_rows_to_json of exact rows as the text json.dumps writes with sorted keys and no
    spaces, by O(nnz) Python work: the entries in lowest terms spliced into the all-0 num
    and all-1 den lists, whose runs "0," * r and "1," * r are made in C."""
    num, den = _lowest_terms(rows, D, cols)
    n = len(rows) * cols
    return (f'{{"cols":{cols},"den":[{_splice(den, n, "1,")}],"num":[{_splice(num, n, "0,")}],'
            f'"rows":{len(rows)}}}')


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
    as integer rows over D, read from the nonzero numerators with no Fraction made, a
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
        out, one = [{} for _ in range(rows)], den.count(1) == n  # one: integer rows over 1
        for k in itertools.compress(range(n), num):  # the nonzero entries
            out[k // cols][k % cols] = num[k] if one else (num[k], den[k])
        return (out, 1, cols) if one else (*_over_lcm(out), cols)
    from .matcore import cmat  # the floating carrier is a numpy array
    re = _json_entries(obj, "re", (int, float), n)
    im = _json_entries(obj, "im", (int, float), n) if "im" in obj else [0.0] * n
    flat = [a + 1j * b for a, b in zip(re, im)]  # cmat refuses JSON's NaN and Infinity tokens
    return cmat([flat[i * cols : (i + 1) * cols] for i in range(rows)]), 1, cols
