import json
import pickle
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
    rational_inverse,
    rational_nullspace,
    rational_rank,
    rational_rref,
    rational_solve,
    rdot,
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


# calls that reach each error path, with the error it raises
ERROR_PATHS = {
    "rmat_ragged_rows": (lambda: rmat([[1, 2], [3]]), ShapeError),
    "rdot_shape_mismatch": (lambda: rdot(reye(2), reye(3)), ShapeError),
    "inverse_of_a_non_square": (lambda: rational_inverse(rzeros(2, 3)), ShapeError),
    "inverse_of_a_singular": (lambda: rational_inverse(rmat([[1, 2], [2, 4]])), ValueError),
}


@pytest.mark.parametrize("case", sorted(ERROR_PATHS))
def test_error_paths(case):
    call, error = ERROR_PATHS[case]
    with pytest.raises(error):
        call()


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


@pytest.mark.filterwarnings("error")
def test_frobenius_norm_does_not_overflow():
    rng = np.random.default_rng(3)
    for n in (1, 2, 5, 8):
        M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        assert frobenius_norm(M) == pytest.approx(np.linalg.norm(M), rel=1e-15)
    big = 1e200
    assert frobenius_norm(np.array([[big, -big], [1j * big, 0]])) == pytest.approx(
        np.sqrt(3) * big, rel=1e-15
    )
    assert frobenius_norm(np.array([[1e308 + 1e308j, 1e308]])) == pytest.approx(
        np.sqrt(3) * 1e308, rel=1e-15
    )
    # a norm beyond the largest float, and non-finite entries
    assert frobenius_norm(np.full((2, 2), 1e308)) == np.inf
    assert frobenius_norm(np.array([[np.inf, 1.0]])) == np.inf
    assert np.isnan(frobenius_norm(np.array([[np.nan, 1e200]])))
    assert np.isnan(frobenius_norm(np.array([[np.nan, 1.0]])))


def test_json_rational_decodes_each_entry_once_with_one_zero():
    A = matrix_from_json({"rows": 2, "cols": 2, "num": [0, 2, -3, 0], "den": [5, 4, 9, 1]})
    assert A.shape == (2, 2) and A.dtype == object
    assert A.tolist() == [[0, Fraction(1, 2)], [Fraction(-1, 3), 0]]
    assert all(type(x) is Fraction for x in A.flat)
    assert A[0, 0] is A[1, 1]


@pytest.mark.parametrize(
    "obj, error",
    [
        # a zero denominator is reported before a row count below 1
        ({"rows": -1, "cols": -1, "num": [1], "den": [0]}, DomainError),
        ({"rows": -1, "cols": -1, "num": [1], "den": [1]}, ShapeError),
        ({"rows": 0, "cols": 0, "num": [], "den": []}, ShapeError),
        # entry types are checked before entry counts
        ({"rows": 1, "cols": 2, "num": [1.5], "den": [1]}, DomainError),
        ({"rows": 1, "cols": 2, "num": [1], "den": [1]}, ShapeError),
    ],
)
def test_json_rational_error_precedence(obj, error):
    with pytest.raises(error):
        matrix_from_json(obj)


def test_json_rational_with_no_columns():
    assert matrix_from_json({"rows": 2, "cols": 0, "num": [], "den": []}).shape == (2, 0)


def _random_rational(rng, rows, cols, density):
    M = rzeros(rows, cols)
    for i in range(rows):
        for j in range(cols):
            if rng.random() < density:
                M[i, j] = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5)))
    return M


def _arrow(n):
    """A dense first row and column over the diagonal: eliminating the first
    row first fills every other row."""
    M = reye(n) * 2
    M[0, :] = [Fraction(k + 1, 3) for k in range(n)]
    M[:, 0] = [Fraction(1, k + 2) for k in range(n)]
    return M


def _rref_cases():
    rng = np.random.default_rng(5)
    cases = [_random_rational(rng, r, c, 0.15) for r, c in ((12, 15), (20, 20), (25, 10))]
    cases += [_random_rational(rng, r, c, 1.0) for r, c in ((6, 9), (8, 8), (9, 5))]
    low = _random_rational(rng, 10, 3, 1.0)  # rank at most 3 in 10 x 10
    cases.append(np.dot(low, _random_rational(rng, 3, 10, 1.0)))
    return cases + [_arrow(12), rzeros(3, 4)]


@pytest.mark.parametrize("M", _rref_cases())
def test_rref_matches_sympy(M):
    sympy = pytest.importorskip("sympy")
    want, pivots = sympy.Matrix(M.tolist()).rref()
    R, got_pivots = rational_rref(M)
    assert got_pivots == list(pivots)
    assert R.tolist() == [[Fraction(int(x.p), int(x.q)) for x in row] for row in want.tolist()]
    assert rational_rank(M) == len(pivots)


# --- the input gate of the floating entry points ------------------------------


def _gated():
    """(name, call, arity) of every floating entry point, its matrices
    passed by position; a name with "(" passes them by keyword."""
    from matrixlie.bch import bch_integral
    from matrixlie.expmlog import (
        exp_directional_derivative,
        in_exp_image_sl2r,
        lie_product_step,
        mat_exp,
        mat_log,
    )
    from matrixlie.groups import is_member, o11_component, polar_decompose_sl
    from matrixlie.liealg import (Ad_apply, algebra_membership_via_exp, bracket, in_algebra,
                                  u_decompose)
    from matrixlie.su2so3 import adjoint_to_so3, so3_lift

    return [
        ("mat_exp", mat_exp, 1),
        ("mat_log", mat_log, 1),
        ("exp_directional_derivative", exp_directional_derivative, 2),
        ("lie_product_step", lambda X, Y: lie_product_step(X, Y, 2), 2),
        ("in_exp_image_sl2r", in_exp_image_sl2r, 1),
        ("Ad_apply", Ad_apply, 2),
        ("u_decompose", u_decompose, 1),
        ("bch_integral", lambda X, Y: bch_integral(X, Y, 4), 2),
        ("polar_decompose_sl", polar_decompose_sl, 1),
        ("is_member", lambda A: is_member(A, "GL(2,C)"), 1),
        ("in_algebra", lambda X: in_algebra(X, "gl(2,C)"), 1),
        ("bracket", bracket, 2),
        ("adjoint_to_so3", adjoint_to_so3, 1),
        ("so3_lift", so3_lift, 1),
        ("o11_component", o11_component, 1),
        ("algebra_membership_via_exp", lambda X: algebra_membership_via_exp(X, "GL(2,C)"), 1),
        ("mat_exp(X=)", lambda X: mat_exp(X=X), 1),
        ("mat_log(A=)", lambda A: mat_log(A=A), 1),
        ("exp_directional_derivative(X=, Y=)",
         lambda X, Y: exp_directional_derivative(X=X, Y=Y), 2),
        ("lie_product_step(X=, Y=)", lambda X, Y: lie_product_step(X=X, Y=Y, m=2), 2),
        ("in_exp_image_sl2r(A=)", lambda A: in_exp_image_sl2r(A=A), 1),
        ("Ad_apply(A=, X=)", lambda A, X: Ad_apply(A=A, X=X), 2),
        ("u_decompose(X=)", lambda X: u_decompose(X=X), 1),
        ("bch_integral(X=, Y=)", lambda X, Y: bch_integral(X=X, Y=Y, quad_points=4), 2),
        ("polar_decompose_sl(A=)", lambda A: polar_decompose_sl(A=A), 1),
        ("is_member(A=)", lambda A: is_member(A=A, g="GL(2,C)"), 1),
        ("in_algebra(X=)", lambda X: in_algebra(X=X, a="gl(2,C)"), 1),
        ("bracket(X=, Y=)", lambda X, Y: bracket(X=X, Y=Y), 2),
        ("bracket(X, Y=)", lambda X, Y: bracket(X, Y=Y), 2),
        ("adjoint_to_so3(U=)", lambda U: adjoint_to_so3(U=U), 1),
        ("so3_lift(R=)", lambda R: so3_lift(R=R), 1),
        ("o11_component(A=)", lambda A: o11_component(A=A), 1),
        ("algebra_membership_via_exp(X=)",
         lambda X: algebra_membership_via_exp(X=X, g="GL(2,C)"), 1),
    ]


GATED = _gated()
GOOD = np.array([[1.0, 0.1], [0.2, 1.0]])


@pytest.mark.parametrize("name,call,arity", GATED, ids=[g[0] for g in GATED])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.inf)])
def test_gate_rejects_non_finite_entries(name, call, arity, bad):
    for k in range(arity):
        args = [GOOD.astype(complex) for _ in range(arity)]
        args[k][0, 1] = bad
        with pytest.raises(DomainError, match="finite"):
            call(*args)


@pytest.mark.parametrize("name,call,arity", GATED, ids=[g[0] for g in GATED])
def test_gate_rejects_bad_shapes(name, call, arity):
    shapes = [[np.zeros((2, 3))], [np.zeros((0, 0))], [np.zeros(2)]]
    if arity == 2:
        shapes = [[M, GOOD] for [M] in shapes] + [[GOOD, M] for [M] in shapes]
        shapes.append([GOOD, np.eye(3)])
    for args in shapes:
        with pytest.raises(ShapeError):
            call(*args)


def _outcome(call, args):
    """The pickled result of call(*args), or the type and text of its error."""
    try:
        return pickle.dumps(call(*[np.array(M) for M in args]))
    except Exception as e:
        return type(e), str(e)


@pytest.mark.parametrize("name,call,arity", [g for g in GATED if "(" in g[0]],
                         ids=[g[0] for g in GATED if "(" in g[0]])
def test_gate_takes_matrices_by_keyword(name, call, arity):
    positional = {g[0]: g[1] for g in GATED}[name.split("(")[0]]
    turn = np.array([[0.6, -0.8, 0], [0.8, 0.6, 0], [0, 0, 1]])
    inputs = [[GOOD, 0.5 * GOOD.T], [np.array([[2.0, 1], [1, 1]]), 0.1 * np.eye(2)],
              [turn, 0.2 * turn.T], [GOOD, np.eye(3)], [GOOD.astype(complex) * np.nan, GOOD]]
    for args in inputs:
        assert _outcome(call, args[:arity]) == _outcome(positional, args[:arity]), args


def test_gate_missing_matrix_is_a_type_error():
    from matrixlie.liealg import Ad_apply, bracket

    for call in (lambda: bracket(X=GOOD), lambda: bracket(GOOD), lambda: Ad_apply(X=GOOD)):
        with pytest.raises(TypeError, match="missing"):
            call()


def test_gate_converts_rational_input():
    from matrixlie.groups import polar_decompose_sl

    R, H = polar_decompose_sl(rmat([[2, 0], [0, Fraction(1, 2)]]))
    assert np.allclose(R, np.eye(2)) and np.allclose(H, np.diag([2, 0.5]))
    # an exact entry beyond the float range has no finite float value
    with pytest.raises(DomainError, match="finite"):
        polar_decompose_sl(rmat([[10**400, 0], [0, 1]]))


@pytest.mark.filterwarnings("error")
def test_bracket_of_a_non_finite_floating_matrix_is_a_domain_error():
    from matrixlie.liealg import bracket

    for bad in (np.nan, np.inf):
        with pytest.raises(DomainError, match="finite"):
            bracket(np.array([[0, bad], [0, 0]]), np.eye(2))
    with pytest.raises(DomainError, match="finite"):  # finite inputs, overflowing products
        bracket(np.array([[0, 1e308], [0, 0]]), np.diag([1e10, -1e10]))


@pytest.mark.filterwarnings("error")
def test_overflowing_coordinates_are_a_domain_error():
    from matrixlie.bch import bch_integral
    from matrixlie.liealg import ad_matrix, sl2_basis, su2_basis

    E12, H = np.array([[0, 1.0], [0, 0]]), np.diag([1.0, -1.0])
    with pytest.raises(DomainError):  # [X, H] overflows
        bch_integral(1e308 * E12, 0.1 * H, 4, basis=sl2_basis())
    # finite brackets whose su(2) coordinates are beyond the float range
    X = 1.7e308 * np.array([[0, 1.0], [-1.0, 0]])
    with pytest.raises(DomainError, match="finite"):
        ad_matrix(X, su2_basis())


def test_over_lcm_puts_rows_over_the_least_common_denominator():
    from matrixlie.matcore import _over_lcm

    # all denominators 1: the numerators come back as they are, over D = 1
    assert _over_lcm([{0: (3, 1), 2: (-5, 1)}, {}, {1: (7, 1)}]) == ([{0: 3, 2: -5}, {}, {1: 7}], 1)
    assert _over_lcm([]) == ([], 1)
    # unreduced and negative denominators
    rows = [{0: (3, 1), 2: (1, 2)}, {1: (2, 4)}, {0: (1, -3), 1: (6, 9)}]
    out, D = _over_lcm(rows)
    assert D == 6 and out == [{0: 18, 2: 3}, {1: 3}, {0: -2, 1: 4}]
    for row, got in zip(rows, out):
        assert all(Fraction(*row[j]) == Fraction(x, D) for j, x in got.items())


def _systems(seed, count):
    """Seeded systems (A, b) of integer or Fraction entries, square, tall or wide: A has
    a row that repeats a combination of two others in about a third of them, and b is
    a combination of A's columns in about half, so that singular, underdetermined,
    consistent and inconsistent systems all occur."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        r, c, k = (int(x) for x in rng.integers(1, 6, 3))
        frac = rng.random() < 0.5

        def entry():
            x = int(rng.integers(-4, 5)) * (rng.random() < 0.7)
            return Fraction(x, int(rng.integers(1, 4))) if frac else x

        A = [[entry() for _ in range(c)] for _ in range(r)]
        if r > 2 and rng.random() < 0.3:
            A[-1] = [2 * x - y for x, y in zip(A[0], A[1])]
        if rng.random() < 0.5:
            x = [[entry() for _ in range(k)] for _ in range(c)]
            b = [[sum(a * y for a, y in zip(row, col)) for col in zip(*x)] for row in A]
        else:
            b = [[entry() for _ in range(k)] for _ in range(r)]
        yield A, b


@pytest.mark.filterwarnings("error")
def test_solve_and_inverse_are_exact_on_seeded_systems():
    seen = set()
    for A, b in _systems(11, 400):
        x = rational_solve(A, b)
        rank, rank_ab = rational_rank(A), rational_rank(np.hstack([rmat(A), rmat(b)]))
        seen.add((len(A) == len(A[0]), rank < len(A[0]), x is None))
        assert (x is None) == (rank_ab > rank)
        if x is not None:
            assert x.shape == (len(A[0]), len(b[0]))
            assert all(type(v) is Fraction for v in x.flat)
            assert (rdot(A, x) == rmat(b)).all()  # A x = b exactly
            pivots = rational_rref(A)[1]
            assert not any(x[j].any() for j in range(len(A[0])) if j not in pivots)
        if len(A) == len(A[0]):
            if rank < len(A):
                with pytest.raises(ValueError, match="singular"):
                    rational_inverse(A)
            else:
                inv, n = rational_inverse(A), len(A)
                assert all(type(v) is Fraction for v in inv.flat)
                assert (rdot(A, inv) == reye(n)).all() and (rdot(inv, A) == reye(n)).all()
    # square and not, full column rank and not, consistent and not: every case occurs but
    # an inconsistent square system of full rank, which cannot
    assert len(seen) == 7 and (True, False, True) not in seen


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rows,error", [
    ([[np.nan, 0], [0, 1]], DomainError),
    ([[np.inf, 0], [0, 1]], DomainError),
    ([[-np.inf, 0], [0, 1]], DomainError),
    ([[complex(0, np.inf), 0], [0, 1]], DomainError),
    ([[1, "x"], [0, 1]], DomainError),
    ([[1, "1"], [0, 1]], DomainError),  # a numeric string, as to_complex refuses it
    ([[1, 2], [3]], ShapeError),
    ([1, 2], ShapeError),
    (5, ShapeError),
])
def test_cmat_errors_are_typed(rows, error):
    with pytest.raises(error):
        cmat(rows)


@pytest.mark.filterwarnings("error")
def test_approx_eq_refuses_non_finite_entries_and_takes_any_shape():
    for bad in (np.inf, -np.inf, np.nan, complex(np.inf, 0)):
        M = np.array([[bad, 0], [0, 1]])
        for A, B in ((M, M), (M, np.eye(2)), (np.eye(2), M)):
            with pytest.raises(DomainError, match="finite"):
                approx_eq(A, B)
    assert approx_eq(np.arange(3.0), [0, 1, 2]) and approx_eq(np.ones((2, 2, 2)), np.ones((2, 2, 2)))
    assert approx_eq(np.zeros((0, 3)), np.zeros((0, 3))) and not approx_eq([[1.0]], [[1.1]])
    with pytest.raises(ShapeError):
        approx_eq(np.zeros(3), np.zeros((3, 1)))
