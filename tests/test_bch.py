from fractions import Fraction

import numpy as np
import pytest

from matrixlie.bch import bch_heisenberg, bch_integral, bch_series, g_operator
from matrixlie.errors import ClosureError, DomainError, OutOfDomainError
from matrixlie.expmlog import mat_exp, mat_exp_nilpotent, mat_log
from matrixlie.liealg import random_algebra_element
from matrixlie.matcore import Tolerance, frobenius_norm, reye, rmat, rzeros

TIGHT = Tolerance(abs=1e-15, rel=0.0)


def heis(a, b, c):
    return rmat([[0, a, b], [0, 0, c], [0, 0, 0]])


def log_of_product(X, Y):
    return mat_log(mat_exp(X, TIGHT) @ mat_exp(Y, TIGHT), TIGHT)


def test_heisenberg_commuting():
    X = np.diag([1.0, 2]).astype(complex)
    Y = np.diag([3.0, -1]).astype(complex)
    assert np.array_equal(bch_heisenberg(X, Y), X + Y)


def test_heisenberg_generators_exact():
    X = heis(1, 0, 0)
    Y = heis(0, 0, 1)
    Z = bch_heisenberg(X, Y)
    assert Z[0, 2] == Fraction(1, 2)
    lhs = mat_exp_nilpotent(X) @ mat_exp_nilpotent(Y)
    rhs = mat_exp_nilpotent(Z)
    assert all(p == q for p, q in zip(lhs.flat, rhs.flat))


def test_heisenberg_scaled():
    X = heis(1, 0, 0)
    Y = heis(0, 0, 1)
    t = Fraction(3, 7)
    Z = bch_heisenberg(t * X, t * Y)
    assert Z[0, 2] == t * t / 2


def test_heisenberg_precondition():
    X = np.array([[1.0, 0], [0, -1]], dtype=complex)
    Y = np.array([[0, 1.0], [0, 0]], dtype=complex)
    with pytest.raises(DomainError):
        bch_heisenberg(X, Y)  # [X,[X,Y]] = 4Y != 0


def test_series_commuting():
    X = np.diag([0.1, 0.2]).astype(complex)
    Y = np.diag([0.5, -0.3]).astype(complex)
    for order in (1, 2, 3):
        assert np.allclose(bch_series(X, Y, order), X + Y)


def test_series_matches_heisenberg_on_nilpotent():
    X = heis(2, 1, 0)
    Y = heis(0, -1, 3)
    Z3 = bch_series(X, Y, 3)
    Zh = bch_heisenberg(X, Y)
    assert all(p == q for p, q in zip(Z3.flat, Zh.flat))


def test_series_fourth_order_residual():
    rng = np.random.default_rng(17)
    X0 = rng.standard_normal((2, 2))
    Y0 = rng.standard_normal((2, 2))
    X0 /= frobenius_norm(X0)
    Y0 /= frobenius_norm(Y0)
    scales = [0.2, 0.1, 0.05]
    resid = [
        frobenius_norm(log_of_product(s * X0, s * Y0) - bch_series(s * X0, s * Y0, 3))
        for s in scales
    ]
    slope = np.polyfit(np.log(scales), np.log(resid), 1)[0]
    assert slope >= 3.5


def test_g_operator_identity():
    assert np.allclose(g_operator(np.eye(3).astype(complex)), np.eye(3))


def test_g_operator_scalar_closed_form():
    for z in np.linspace(0.6, 1.4, 9):
        if abs(z - 1) < 1e-9:
            continue
        got = g_operator(np.array([[z]], dtype=complex), 60)[0, 0].real
        want = z * np.log(z) / (z - 1)
        assert abs(got - want) <= 1e-10


def test_g_operator_nilpotent_exact():
    from matrixlie.matcore import reye

    M = reye(3)
    M[0, 1] = Fraction(2)
    M[1, 2] = Fraction(5)
    G = g_operator(M, 30)
    B01, B12 = Fraction(2), Fraction(5)
    # g(I+B) = I + B/2 - B^2/6 for B nilpotent of index 3
    assert G[0, 1] == B01 / 2
    assert G[1, 2] == B12 / 2
    assert G[0, 2] == -B01 * B12 / 6


def test_g_operator_out_of_domain():
    with pytest.raises(OutOfDomainError):
        g_operator(np.diag([3.0, 1.0]).astype(complex))


def test_integral_commuting():
    X = np.diag([0.1, -0.2]).astype(complex)
    Y = np.diag([0.3, 0.4]).astype(complex)
    Z = bch_integral(X, Y)
    assert frobenius_norm(Z - (X + Y)) <= 1e-10


def test_integral_vs_direct_log_su2():
    rng = np.random.default_rng(18)
    for _ in range(5):
        X = random_algebra_element("su(2)", rng)
        Y = random_algebra_element("su(2)", rng)
        X *= 0.15 / frobenius_norm(X)
        Y *= 0.15 / frobenius_norm(Y)
        Z = bch_integral(X, Y, quad_points=64, terms=30)
        assert frobenius_norm(Z - log_of_product(X, Y)) <= 1e-8


def test_integral_matches_heisenberg():
    from matrixlie.liealg import heis_basis

    X = np.zeros((3, 3), dtype=complex)
    X[0, 1] = 0.3
    Y = np.zeros((3, 3), dtype=complex)
    Y[1, 2] = 0.4
    # the 3-element algebra basis keeps ad small; the 9-dim ambient basis
    # works too but needs smaller inputs to stay in the g-series domain
    Zi = bch_integral(X, Y, basis=heis_basis())
    Zh = bch_heisenberg(X, Y)
    assert frobenius_norm(Zi - Zh) <= 1e-10
    Zi_full = bch_integral(0.3 * X, 0.3 * Y)
    Zh_small = bch_heisenberg(0.3 * X, 0.3 * Y)
    assert frobenius_norm(Zi_full - Zh_small) <= 1e-10


def test_integral_antisymmetry():
    rng = np.random.default_rng(19)
    X = random_algebra_element("su(2)", rng)
    Y = random_algebra_element("su(2)", rng)
    X *= 0.15 / frobenius_norm(X)
    Y *= 0.15 / frobenius_norm(Y)
    Z1 = bch_integral(X, Y)
    Z2 = bch_integral(-Y, -X)
    assert frobenius_norm(Z1 + Z2) <= 1e-8


def test_integral_needs_a_quadrature_point():
    X = np.array([[0.1, 0], [0, 0.2]], dtype=complex)
    for q in (0, -3):
        with pytest.raises(DomainError):
            bch_integral(X, X, quad_points=q)


def test_integral_needs_a_series_term():
    X = np.array([[0, 0.1], [0, 0]], dtype=complex)
    Y = np.array([[0, 0], [0.1, 0]], dtype=complex)
    for terms in (0, -1):
        with pytest.raises(DomainError, match="terms"):
            bch_integral(X, Y, terms=terms)


def test_integral_needs_brackets_in_the_span():
    # span{E12} holds Y but not [X, E12] = 0.1 (E22 - E11)
    from matrixlie.liealg import Basis

    E12 = np.array([[0, 1], [0, 0]], dtype=complex)
    E21 = np.array([[0, 0], [1, 0]], dtype=complex)
    with pytest.raises(ClosureError):
        bch_integral(0.1 * E21, 0.1 * E12, quad_points=2, basis=Basis("b", ("E12",), (E12,)))


def test_integral_needs_y_exactly_in_the_span():
    # Y is within 1e-12 of su(2) and its brackets with su(2) stay in su(2),
    # but Y itself is not in the span, so it has no coordinates
    from matrixlie.liealg import E1, E2, su2_basis

    Y = 0.1 * E1 + 1e-12 * np.eye(2)
    with pytest.raises(DomainError, match="span"):
        bch_integral(0.1 * E2, Y, quad_points=2, basis=su2_basis())
    Z = bch_integral(0.1 * E2, 0.1 * E1, quad_points=2, basis=su2_basis())
    assert frobenius_norm(Z - log_of_product(0.1 * E2, 0.1 * E1)) <= 1e-8


def test_g_operator_one_body_for_both_carriers():
    N = rmat([[0, 1, 2], [0, 0, 3], [0, 0, 0]])
    G = g_operator(reye(3) + N)
    # g(1 + N) = 1 + N/2 - N^2/6 exactly, since N^3 = 0
    assert (G == reye(3) + N / 2 - (N @ N) / 6).all()
    Gf = g_operator(np.eye(3) + N.astype(float))
    assert Gf.dtype == complex and np.allclose(Gf, G.astype(float), rtol=0, atol=1e-15)
    M = np.eye(2) + np.array([[0.1, 0.2], [-0.05, 0.3]])
    assert np.array_equal(g_operator(M), g_operator(M.astype(complex)))
