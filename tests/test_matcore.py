import json
from fractions import Fraction

import numpy as np
import pytest

from matrixlie.errors import DomainError, ShapeError
from matrixlie.matcore import (
    Tolerance,
    approx_eq,
    cmat,
    frobenius_norm,
    matrix_from_json,
    matrix_to_json,
    rational_nullspace,
    rational_rank,
    rational_solve,
    reye,
    rmat,
    rzeros,
)


def test_frobenius_norm_basic():
    assert frobenius_norm(np.zeros((2, 2))) == 0
    assert abs(frobenius_norm(np.eye(2)) - np.sqrt(2)) < 1e-15
    # upper-bounds the operator norm (which is 3 for this diagonal)
    assert abs(frobenius_norm(np.diag([3.0, 1.0])) - np.sqrt(10)) < 1e-15
    assert frobenius_norm(np.diag([3.0, 1.0])) >= 3


def test_frobenius_norm_submultiplicative():
    rng = np.random.default_rng(0)
    for _ in range(20):
        A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        B = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert frobenius_norm(A @ B) <= frobenius_norm(A) * frobenius_norm(B) + 1e-12
        assert frobenius_norm(A + B) <= frobenius_norm(A) + frobenius_norm(B) + 1e-12


def test_approx_eq():
    I = np.eye(2)
    assert approx_eq(I, I)
    B = I.copy()
    B[0, 1] = 1e-12
    assert approx_eq(I, B)
    assert not approx_eq(I, 2 * I)
    with pytest.raises(ShapeError):
        approx_eq(I, np.eye(3))


def test_approx_eq_symmetric_with_abs_only():
    rng = np.random.default_rng(1)
    tol = Tolerance(abs=1e-6, rel=0.0)
    for _ in range(10):
        A = rng.standard_normal((2, 2))
        B = A + rng.standard_normal((2, 2)) * 1e-7
        assert approx_eq(A, B, tol) == approx_eq(B, A, tol)
        assert approx_eq(A, A, tol)


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(abs=-1)
    with pytest.raises(ValueError):
        Tolerance(rel=float("inf"))


def test_rational_rank():
    assert rational_rank(reye(3)) == 3
    assert rational_rank(rzeros(3, 3)) == 0
    assert rational_rank(rmat([[1, 2], [2, 4]])) == 1


def test_rational_nullspace():
    assert rational_nullspace(reye(2)) == []
    assert len(rational_nullspace(rzeros(2, 2))) == 2
    (v,) = rational_nullspace(rmat([[1, -1]]))
    assert v[0, 0] == v[1, 0] != 0


def test_rank_nullity_and_exact_kernel():
    rng = np.random.default_rng(2)
    for _ in range(20):
        M = rmat(rng.integers(-3, 4, size=(3, 4)).tolist())
        vs = rational_nullspace(M)
        assert rational_rank(M) + len(vs) == 4
        for v in vs:
            prod = M @ v
            assert all(x == 0 for x in prod.flat)


def test_rational_solve():
    A = rmat([[2, 1], [1, 3]])
    b = rmat([[1], [0]])
    x = rational_solve(A, b)
    assert all(p == q for p, q in zip((A @ x).flat, b.flat))
    # inconsistent system
    assert rational_solve(rmat([[1, 1], [1, 1]]), rmat([[1], [2]])) is None


def test_json_round_trip_complex():
    A = cmat([[1, 2j], [3 + 4j, -1]])
    B = matrix_from_json(json.loads(json.dumps(matrix_to_json(A))))
    assert np.array_equal(A, B)


def test_json_round_trip_rational():
    A = rmat([[Fraction(1, 3), 2], [0, Fraction(-5, 7)]])
    B = matrix_from_json(json.loads(json.dumps(matrix_to_json(A))))
    assert all(p == q for p, q in zip(A.flat, B.flat))


def test_json_real_omits_im():
    assert "im" not in matrix_to_json(np.eye(2))


def test_json_non_object_rejected():
    for obj in ([1, 2], "x", 3, None):
        with pytest.raises(DomainError):
            matrix_from_json(obj)


def test_json_zero_denominator_rejected():
    with pytest.raises(DomainError):
        matrix_from_json({"rows": 1, "cols": 2, "num": [1, 2], "den": [1, 0]})


def test_rmat_empty_rejected():
    with pytest.raises(ShapeError):
        rmat([])


@pytest.mark.parametrize(
    "obj",
    [
        {"rows": 1, "cols": 1, "num": [1], "den": [1.5]},
        {"rows": 1, "cols": 1, "num": ["x"], "den": [1]},
        {"rows": 1, "cols": 1, "num": [1.0], "den": [1]},
        {"rows": 1, "cols": 1, "num": [True], "den": [1]},
        {"rows": 1, "cols": 1, "num": [1], "den": [False]},
        {"rows": 1, "cols": 1, "num": 1, "den": [1]},
        {"rows": 1, "cols": 1, "re": [True]},
        {"rows": 1, "cols": 1, "re": [1.0], "im": ["x"]},
        {"rows": 1, "cols": 1, "re": [None]},
        {"rows": None, "cols": 1, "num": [1], "den": [1]},
        {"rows": 1, "cols": None, "re": [1.0]},
        {"rows": 1.5, "cols": 1, "re": [1.0]},
        {"rows": "1", "cols": 1, "re": [1.0]},
        {"rows": True, "cols": 1, "re": [1.0]},
    ],
)
def test_json_malformed_entries_rejected(obj):
    with pytest.raises(DomainError):
        matrix_from_json(obj)


def test_json_integer_real_entries_accepted():
    A = matrix_from_json({"rows": 1, "cols": 2, "re": [1, 2.5], "im": [0, -1]})
    assert np.array_equal(A, np.array([[1, 2.5 - 1j]]))


def _seeded_rational_matrices(seed, count):
    """Sparse and dense rational matrices with mixed denominators, some with
    zero rows and some with a repeated (scaled) row."""
    rng = np.random.default_rng(seed)
    for trial in range(count):
        r, c = (int(x) for x in rng.integers(1, 8, size=2))
        density = 0.25 if trial % 2 else 0.9
        num = rng.integers(-5, 6, size=(r, c)) * (rng.random((r, c)) < density)
        num[rng.random(r) < 0.2] = 0
        if r > 1 and trial % 3 == 0:
            num[-1] = 2 * num[0]
        den = rng.integers(1, 7, size=(r, c))
        yield [[Fraction(int(a), int(b)) for a, b in zip(ra, rb)] for ra, rb in zip(num, den)]


def _to_sympy(sympy, rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows])


def _from_sympy(S):
    return [[Fraction(int(x.p), int(x.q)) for x in S.row(i)] for i in range(S.rows)]


def test_elimination_matches_sympy_rref():
    sympy = pytest.importorskip("sympy")
    from matrixlie.matcore import rational_rref

    for entries in _seeded_rational_matrices(7, 80):
        M = rmat(entries)
        S = _to_sympy(sympy, entries)
        SR, spiv = S.rref()
        R, piv = rational_rref(M)
        assert piv == list(spiv)
        assert R.tolist() == _from_sympy(SR)
        got = [v[:, 0].tolist() for v in rational_nullspace(M)]
        assert got == [_from_sympy(v.T)[0] for v in S.nullspace()]


def test_solve_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = np.random.default_rng(8)
    for entries in _seeded_rational_matrices(9, 80):
        r = len(entries)
        b_entries = [[Fraction(int(x), int(y)) for x, y in zip(rng.integers(-3, 4, 2), rng.integers(1, 4, 2))]
                     for _ in range(r)]
        if rng.random() < 0.5:  # a consistent right-hand side: a combination of columns
            b_entries = [[row[0] - row[-1] / 3, 2 * row[0]] for row in entries]
        x = rational_solve(rmat(entries), rmat(b_entries))
        try:
            sol, params = _to_sympy(sympy, entries).gauss_jordan_solve(_to_sympy(sympy, b_entries))
        except ValueError:  # inconsistent
            assert x is None
            continue
        want = sol.subs({p: 0 for p in params})
        assert x is not None and x.tolist() == _from_sympy(want)
