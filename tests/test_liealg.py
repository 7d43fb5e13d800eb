from fractions import Fraction

import numpy as np
import pytest

from matrixlie.errors import ClosureError, ShapeError
from matrixlie.expmlog import mat_exp
from matrixlie.cli import _BASES
from matrixlie.liealg import (
    Ad_apply,
    Basis,
    E1,
    E2,
    E3,
    F1,
    F2,
    F3,
    ad_matrix,
    algebra_membership_via_exp,
    bracket,
    gl_basis,
    heis_basis,
    in_algebra,
    parse_algebra,
    random_algebra_element,
    sl2_basis,
    sl2_basis_rational,
    structure_constants,
    su2_basis,
    u_decompose,
)
from matrixlie.matcore import Tolerance, frobenius_norm, is_rational, to_complex
from matrixlie.repsl3 import sl3_basis

TIGHT = Tolerance(abs=1e-15, rel=0.0)


def test_in_algebra_examples():
    assert in_algebra(E1, "su(2)", Tolerance(abs=1e-14, rel=0))
    assert in_algebra(np.diag([1.0, -1, 0]).astype(complex), "sl(3,C)")
    S = np.array([[0, 1], [1, 0]], dtype=complex)
    assert not in_algebra(S, "so(2)")
    with pytest.raises(ShapeError):
        in_algebra(np.eye(2), "so(3)")


def test_bracket_examples():
    assert frobenius_norm(bracket(E1, E2) - E3) <= 1e-15
    X = np.array([[1.0, 2], [3, 4]])
    assert np.all(bracket(X, X) == 0)
    b = sl3_basis()
    H1, X1 = b.elements[0], b.elements[2]
    diff = bracket(H1, X1) - 2 * X1
    assert all(x == 0 for x in diff.flat)


def test_ad_su2_gives_so3():
    basis = su2_basis()
    for Ei, Fi in ((E1, F1), (E2, F2), (E3, F3)):
        assert np.array_equal(ad_matrix(Ei, basis), Fi)


def test_ad_heisenberg_center():
    basis = heis_basis()
    Z = basis.elements[2]  # the (1,3) generator spans the center
    assert np.all(ad_matrix(Z, basis) == 0)


def test_ad_h1_diagonal_roots():
    basis = sl3_basis()
    adH1 = ad_matrix(basis.elements[0], basis)
    want = [0, 0, 2, -1, 1, -2, 1, -1]
    assert all(adH1[i, i] == want[i] for i in range(8))
    assert all(adH1[i, j] == 0 for i in range(8) for j in range(8) if i != j)


def test_ad_closure_error():
    # [E1, E2] = E3 is outside span(E1, E2), so ad_matrix must refuse
    from matrixlie.liealg import Basis

    partial = Basis("partial", ("E1", "E2"), (E1, E2))
    with pytest.raises(ClosureError):
        ad_matrix(E1, partial)


def test_ad_homomorphism_exact():
    basis = sl3_basis()
    els = basis.elements
    X, Y = els[2], els[5]  # X1, Y1
    lhs = ad_matrix(bracket(X, Y), basis)
    adX, adY = ad_matrix(X, basis), ad_matrix(Y, basis)
    rhs = adX @ adY - adY @ adX
    assert all(p == q for p, q in zip(lhs.flat, rhs.flat))


def test_Ad_apply():
    X = np.array([[0, 1.0], [0, 0]], dtype=complex)
    assert np.array_equal(Ad_apply(np.eye(2), X), X)
    # Ad(e^X) = e^(ad X) on the full gl(2) basis
    rng = np.random.default_rng(12)
    A = rng.standard_normal((2, 2)) * 0.4
    Y = rng.standard_normal((2, 2)).astype(complex)
    basis = gl_basis(2)
    adA = np.asarray(ad_matrix(A.astype(complex), basis), dtype=complex)
    y = Y.reshape(-1)
    lhs = Ad_apply(mat_exp(A, TIGHT), Y)
    rhs = (mat_exp(adA, TIGHT) @ y).reshape(2, 2)
    assert frobenius_norm(lhs - rhs) <= 1e-9


def test_Ad_preserves_algebra():
    rng = np.random.default_rng(13)
    U = mat_exp(random_algebra_element("su(2)", rng), TIGHT)
    X = random_algebra_element("su(2)", rng)
    assert in_algebra(Ad_apply(U, X), "su(2)", Tolerance(abs=1e-10, rel=0))


def test_structure_constants_su2():
    c = structure_constants(su2_basis())
    assert c[0, 1, 2] == 1 and c[1, 2, 0] == 1 and c[2, 0, 1] == 1
    assert c[1, 0, 2] == -1
    nonzero = [(i, j, k) for i in range(3) for j in range(3) for k in range(3) if c[i, j, k] != 0]
    assert len(nonzero) == 6


def test_structure_constants_abelian():
    basis = heis_basis()
    # the center alone is abelian; use a diagonal abelian basis instead
    from matrixlie.liealg import Basis

    D1 = np.diag([1.0, 0]).astype(complex)
    D2 = np.diag([0, 1.0]).astype(complex)
    c = structure_constants(Basis("abelian", ("D1", "D2"), (D1, D2)))
    assert np.all(c == 0)


def test_structure_constants_skew_and_jacobi_sl3():
    c = structure_constants(sl3_basis())
    d = 8
    for i in range(d):
        for j in range(d):
            for k in range(d):
                assert c[i, j, k] + c[j, i, k] == 0
    for i in range(d):
        for j in range(d):
            for k in range(d):
                for l in range(d):
                    s = sum(
                        c[i, j, m] * c[m, k, l]
                        + c[j, k, m] * c[m, i, l]
                        + c[k, i, m] * c[m, j, l]
                        for m in range(d)
                    )
                    assert s == 0


def test_u_decompose():
    X = np.array([[1j, 0.5], [-0.5, -1j]], dtype=complex)  # skew-adjoint
    X1, X2 = u_decompose(X)
    assert frobenius_norm(X1 - X) <= 1e-14 and frobenius_norm(X2) <= 1e-14
    X1, X2 = u_decompose(np.eye(2).astype(complex))
    assert frobenius_norm(X1) <= 1e-14
    assert frobenius_norm(X2 + 1j * np.eye(2)) <= 1e-14
    rng = np.random.default_rng(14)
    Y = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    Y1, Y2 = u_decompose(Y)
    assert frobenius_norm(Y1 + 1j * Y2 - Y) <= 1e-14
    assert in_algebra(Y1, "u(3)", Tolerance(abs=1e-13, rel=0))
    assert in_algebra(Y2, "u(3)", Tolerance(abs=1e-13, rel=0))


def test_algebra_membership_via_exp():
    rng = np.random.default_rng(15)
    X = random_algebra_element("su(2)", rng)
    assert algebra_membership_via_exp(X, "SU(2)", tol=Tolerance(abs=1e-8, rel=0))
    E11 = np.array([[1.0, 0], [0, 0]], dtype=complex)
    assert not algebra_membership_via_exp(E11, "SL(2,R)", tol=Tolerance(abs=1e-8, rel=0))
    assert algebra_membership_via_exp(np.zeros((2, 2)), "SU(2)")


def test_algebra_closed_under_operations():
    rng = np.random.default_rng(16)
    tol = Tolerance(abs=1e-10, rel=0)
    for name in ("su(2)", "sl(2,R)", "so(3)", "sp(1,R)", "u(2)", "so(3,1)", "heis"):
        X = random_algebra_element(name, rng)
        Y = random_algebra_element(name, rng)
        assert in_algebra(X + Y, name, tol)
        assert in_algebra(1.7 * X, name, tol)
        assert in_algebra(bracket(X, Y), name, tol)


def test_parse_algebra_grammar():
    assert parse_algebra("su(2)").family == "su"
    assert parse_algebra("sl(3,C)").field == "C"
    assert parse_algebra("so(3,1)").k == 1
    assert parse_algebra("sp(1,R)").family == "spR"
    assert parse_algebra("heis").family == "heis"
    with pytest.raises(ValueError):
        parse_algebra("SU(2)")


def test_ad_of_rational_matrix_in_floating_and_exact_bases():
    from matrixlie.matcore import is_rational, rmat, to_complex

    X = rmat([[Fraction(1, 3), 2], [-1, Fraction(-1, 3)]])
    # a floating basis gives the floating ad, the same as for the floating input
    got = ad_matrix(X, gl_basis(2))
    assert not is_rational(got)
    assert np.array_equal(got, ad_matrix(to_complex(X), gl_basis(2)))
    # an exact basis keeps the result exact
    Z = rmat([[Fraction(1, 3), 0, 0], [0, Fraction(-1, 3), 0], [0, 0, 0]])
    adZ = ad_matrix(Z, sl3_basis())
    assert is_rational(adZ)
    assert adZ[2, 2] == Fraction(2, 3)  # [Z, X1] = (2/3) X1


@pytest.mark.parametrize("n", [2, 3, 4])
def test_ad_gl_matches_kronecker_oracle(n):
    # row-major vec(XA - AX) = (X kron I - I kron X^T) vec(A)
    rng = np.random.default_rng(40 + n)
    X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    want = np.kron(X, np.eye(n)) - np.kron(np.eye(n), X.T)
    assert np.allclose(ad_matrix(X, gl_basis(n)), want, rtol=0, atol=1e-15)


def test_ad_complex_coefficients_in_a_complex_basis():
    # su(2) spans sl(2,C) over C, and ad is C-linear
    a, b, c = 0.5 + 2j, -1j, 3.0
    X = a * E1 + b * E2 + c * E3
    assert np.allclose(ad_matrix(X, su2_basis()), a * F1 + b * F2 + c * F3, rtol=0, atol=1e-15)


@pytest.mark.parametrize("name", sorted(_BASES))
def test_structure_constants_match_float_coordinates(name):
    basis = _BASES[name]()
    els = [np.asarray(to_complex(b) if is_rational(b) else b) for b in basis.elements]
    A = np.column_stack([b.ravel() for b in els])
    c = structure_constants(basis)
    for i in range(len(els)):
        for j in range(len(els)):
            coords = np.linalg.lstsq(A, bracket(els[i], els[j]).ravel(), rcond=None)[0]
            assert np.allclose(c[i, j].astype(float), coords, rtol=0, atol=1e-12)


def test_structure_constants_closure_error():
    partial = Basis("partial", ("E1", "E2"), (E1, E2))
    with pytest.raises(ClosureError):
        structure_constants(partial)


def test_sl2_basis_is_the_complex_view_of_the_rational_triple():
    from matrixlie import repsl2

    assert repsl2.sl2_basis_rational is sl2_basis_rational
    q, f = sl2_basis_rational(), sl2_basis()
    assert (f.algebra, f.labels) == (q.algebra, q.labels) == ("sl(2,C)", ("H", "X", "Y"))
    for Q, F in zip(q.elements, f.elements):
        assert F.dtype == complex and np.array_equal(F, to_complex(Q))


def test_basis_label_count_is_a_shape_error():
    with pytest.raises(ShapeError):
        Basis("sl(2,C)", ("H", "X"), sl3_basis().elements[:3])
