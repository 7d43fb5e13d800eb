import itertools
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

from matrixlie import bch, expmlog
from matrixlie.bch import bch_heisenberg, bch_integral, bch_series, g_operator
from matrixlie.errors import ClosureError, DomainError, OutOfDomainError
from matrixlie.expmlog import mat_exp, mat_exp_nilpotent, mat_log
from matrixlie.liealg import (
    Basis,
    ad_matrix,
    gl_basis,
    heis_basis,
    random_algebra_element,
    sl2_basis,
    su2_basis,
)
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


def test_heisenberg_exact_beyond_float_range():
    # the exact path tests commutation exactly and takes no float norm
    Z = bch_heisenberg(heis(10**400, 0, 0), heis(0, 0, 1))
    assert Z[0, 2] == Fraction(10**400, 2)


def test_heisenberg_conjugated_pair_at_every_scale():
    # a Heisenberg pair conjugated by a well-conditioned T, scaled by s; an
    # absolute 1e-12 test on [X, [X, Y]] rejected it from s = 30 upward
    T = np.array([[2.0, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=complex)
    Ti = np.linalg.inv(T)
    X, Y = (T @ np.asarray(heis(*e), dtype=complex) @ Ti for e in ((1, 0, 0), (0, 0, 1)))
    for s in (1e-8, 1e-3, 1.0, 30.0, 1e3, 1e6):
        Z = bch_heisenberg(s * X, s * Y)
        want = T @ np.asarray(heis(s, s * s / 2, s), dtype=complex) @ Ti
        assert frobenius_norm(Z - want) <= 1e-14 * frobenius_norm(want)


def test_heisenberg_floating_commuting_pair():
    # X and Y commute, but their floating commutator C is rounding noise;
    # a bound relative to ||C|| rejected these pairs
    A = np.random.default_rng(3).standard_normal((3, 3))
    for X, Y in ((0.1 * A, 0.3 * A), (A, A @ A)):
        assert (X @ Y - Y @ X).any()
        Z = bch_heisenberg(X, Y)
        assert frobenius_norm(Z - (X + Y)) <= 1e-15 * frobenius_norm(X + Y)


def test_heisenberg_rejects_a_small_generic_pair():
    # a generic pair of norm 1e-5 has ||[X, [X, Y]]|| about 1e-15, under an
    # absolute 1e-12, yet it does not commute with its commutator
    rng = np.random.default_rng(7)
    X, Y = (1e-5 * rng.standard_normal((3, 3)) for _ in range(2))
    with pytest.raises(DomainError):
        bch_heisenberg(X, Y)


def test_series_commuting():
    X = np.diag([0.1, 0.2]).astype(complex)
    Y = np.diag([0.5, -0.3]).astype(complex)
    for order in (1, 2, 3):
        assert np.allclose(bch_series(X, Y, order), X + Y)


@pytest.mark.parametrize("bad", [True, False, 2.0, np.float64(2), "2", None, np.array(2), 0, 4])
def test_series_order_must_be_an_integer_from_one_to_three(bad):
    X = np.diag([0.1, 0.2])
    with pytest.raises(ValueError, match=r"^order must be 1, 2, or 3$"):
        bch_series(X, X, bad)


def test_series_order_accepts_numpy_integers():
    X, Y = heis(2, 1, 0), heis(0, -1, 3)
    for order in (1, 2, 3):
        got = bch_series(X, Y, np.int64(order))
        assert all(p == q for p, q in zip(got.flat, bch_series(X, Y, order).flat))


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


def test_g_operator_needs_a_series_term():
    M = np.array([[1, 0.1], [0, 1]], dtype=complex)
    for terms in (0, -3):
        with pytest.raises(DomainError, match="terms"):
            g_operator(M, terms)


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


def simpson_loop(X, Y, q, terms=30, basis=None):
    """Reference for bch_integral: the per-node loop it replaced, with one
    mat_exp and one matrix g per node, panel by panel, and ad from
    ad_matrix."""
    basis = basis or gl_basis(X.shape[0])
    adX, adY = ad_matrix(X, basis), ad_matrix(Y, basis)
    A = np.array([b.ravel() for b in basis.elements]).T
    y = np.linalg.lstsq(A, np.asarray(Y, dtype=complex).ravel(), rcond=None)[0]
    EadX = mat_exp(adX, TIGHT)

    def f(t):
        return g_operator(EadX @ mat_exp(t * adY, TIGHT), terms) @ y

    h = 1.0 / q
    total = sum((h / 6) * (f(i * h) + 4 * f(i * h + h / 2) + f(i * h + h)) for i in range(q))
    return X + sum(c * b for c, b in zip(total, basis.elements))


def gl_pair(rng, n, size):
    X, Y = rng.standard_normal((2, n, n))
    return size * X / frobenius_norm(X), size * Y / frobenius_norm(Y)


def assert_matches_the_loop(X, Y, q, basis=None):
    # batching changes only the order of rounding: 1e-14 relative to the
    # operands that are rounded is about 50 machine epsilons.  Relative to
    # the result it can fail when X and Y nearly cancel.
    want = simpson_loop(X, Y, q, basis=basis)
    got = bch_integral(X, Y, quad_points=q, basis=basis)
    assert frobenius_norm(got - want) <= 1e-14 * (frobenius_norm(X) + frobenius_norm(Y))


@pytest.mark.parametrize("q", [1, 2, 16])
def test_integral_matches_the_per_node_loop(q):
    rng = np.random.default_rng(20)
    cases = [(*gl_pair(rng, n, 0.3 / n**0.5), None) for n in (2, 3)]
    X = random_algebra_element("su(2)", rng)
    Y = random_algebra_element("su(2)", rng)
    cases.append((0.2 * X / frobenius_norm(X), 0.2 * Y / frobenius_norm(Y), su2_basis()))
    for X, Y, basis in cases:
        assert_matches_the_loop(X, Y, q, basis)


def loop_cases(rng, sizes=(2, 3, 4)):
    """(X, Y, basis) on gl(n) with the default basis, and on su(2) and heis
    drawn as coordinates, so that Y lies exactly in the span."""
    cases = [(*gl_pair(rng, n, 0.3 / n**0.5), None) for n in sizes]
    for basis in (su2_basis(), heis_basis()):
        c = rng.standard_normal((2, 3))
        c *= 0.3 / np.linalg.norm(c, axis=1, keepdims=True)
        cases.append((*np.tensordot(c, basis.elements, axes=1), basis))
    return cases


def check_against_the_loop(cases, q):
    for X, Y, basis in cases:
        assert_matches_the_loop(X, Y, q, basis)


@pytest.mark.parametrize("q", [3, 5, 7, 48, 100])
def test_integral_matches_the_per_node_loop_between_powers_of_two(q):
    # 2q is not a power of two, so the last doubling step appends fewer
    # nodes than the stack already holds
    check_against_the_loop(loop_cases(np.random.default_rng(30 + q)), q)


def test_integral_matches_the_per_node_loop_for_any_q():
    hyp = pytest.importorskip("hypothesis")

    @hyp.settings(max_examples=20, deadline=None)
    # the su(2) case of this draw has ||Z||_F = 0.0085 against
    # ||X||_F + ||Y||_F = 0.42, and a rounding difference of 1.0e-16
    @hyp.example(q=1, seed=1252170017)
    @hyp.given(q=hyp.strategies.integers(1, 40), seed=hyp.strategies.integers(0, 2**32 - 1))
    def check(q, seed):
        check_against_the_loop(loop_cases(np.random.default_rng(seed), sizes=(2, 3)), q)

    check()


def test_integral_one_panel():
    # three nodes, t = 0, 1/2, 1: still a fair quadrature on small inputs
    rng = np.random.default_rng(21)
    X, Y = gl_pair(rng, 2, 0.2)
    Z = bch_integral(X, Y, quad_points=1)
    assert frobenius_norm(Z - log_of_product(X, Y)) <= 1e-4 * frobenius_norm(Z)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_integral_default_basis_is_the_closed_form_of_gl(n):
    rng = np.random.default_rng(22 + n)
    X, Y = gl_pair(rng, n, 0.2 / n**0.5)
    X = X + 1j * gl_pair(rng, n, 0.1 / n**0.5)[0]
    assert np.array_equal(bch_integral(X, Y, 8), bch_integral(X, Y, 8, basis=gl_basis(n)))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_integral_of_real_operands_is_real(n):
    rng = np.random.default_rng(40 + n)
    X, Y = gl_pair(rng, n, 0.2 / n**0.5)
    Z = bch_integral(X, Y, 8)
    assert Z.dtype == np.complex128 and not Z.imag.any()
    assert np.array_equal(Z, bch_integral(X, Y, 8, basis=gl_basis(n)))
    # one nonzero imaginary part keeps the whole call complex
    Y = Y + 1e-3j * gl_pair(rng, n, 1.0)[0]
    assert_matches_the_loop(X, Y, 8)


@pytest.mark.parametrize(
    "basis, imag, dtype", [(None, 0, float), ("su2", 0, float), (None, 1, complex)]
)
def test_integral_exponentials_are_real_on_a_real_algebra(monkeypatch, basis, imag, dtype):
    # su(2) has complex elements but real structure constants and coordinates
    seen = []

    def spy(X, norm):
        seen.append(X.dtype)
        return expmlog._exp_scaled(X, norm)

    monkeypatch.setattr(bch, "_exp_scaled", spy)
    if basis:
        basis = su2_basis()
        X, Y = 0.1 * basis.elements[0], 0.1 * basis.elements[1]
    else:
        X, Y = np.diag([0.1, -0.1]), np.array([[0.0, 0.1], [0.1j * imag, 0.0]])
    bch_integral(X, Y, 4, basis=basis)
    assert seen == [dtype]


REALNESS = ["both real", "X complex", "Y complex", "both complex", "Im X a multiple of I"]


def realness_case(rng, n, case):
    X, Y = gl_pair(rng, n, 0.2 / n**0.5)
    iX, iY = gl_pair(rng, n, 0.1 / n**0.5)
    if case in ("X complex", "both complex"):
        X = X + 1j * iX
    if case in ("Y complex", "both complex"):
        Y = Y + 1j * iY
    if case == "Im X a multiple of I":  # ad X is real though X is not
        X = X + 0.3j * np.eye(n)
    return X, Y


@pytest.mark.parametrize("case", REALNESS)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_integral_realness_from_the_operands_matches_the_basis_path(monkeypatch, n, case):
    # on gl(n) realness is read off X and Y before ad is built; a custom
    # basis reads it off ad X, ad Y and y.  Both must run the same
    # arithmetic, so the results are bit-equal and the exponentials share a dtype
    seen = []

    def spy(A, norm):
        seen.append(A.dtype)
        return expmlog._exp_scaled(A, norm)

    monkeypatch.setattr(bch, "_exp_scaled", spy)
    X, Y = realness_case(np.random.default_rng(60 + n), n, case)
    Z = bch_integral(X, Y, 8)
    assert Z.dtype == np.complex128
    assert np.array_equal(Z, bch_integral(X, Y, 8, basis=gl_basis(n)))
    real = not Y.imag.any() and (case != "X complex" or n == 1)  # on gl(1), ad X = 0
    assert seen == [np.dtype(float if real else complex)] * 2


def test_integral_plan_and_coefficients_are_read_only():
    for A in (*bch._simpson_plan(5)[1:], bch._g_coefficients(30, False),
              bch._g_coefficients(30, True)):
        assert not A.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            A[0] = 0


def test_integral_after_the_caches_evict():
    # more distinct q and terms than either bounded cache holds: results
    # rebuilt after eviction equal the first ones bit for bit
    plans, coefficients = bch._simpson_plan.cache_info(), bch._g_coefficients.cache_info()
    assert plans.maxsize and coefficients.maxsize  # bounded
    X, Y = gl_pair(np.random.default_rng(70), 2, 0.2)
    first = {(q, m): bch_integral(X, Y, q, m) for q, m in ((3, 7), (16, 30), (64, 12))}
    for k in range(1, max(plans.maxsize, coefficients.maxsize) + 5):
        bch_integral(X, Y, k, k)
        g_operator(reye(2) + rmat([[0, 1], [1, 0]]) / 3, k)  # exact, not nilpotent
    assert bch._simpson_plan.cache_info().currsize <= plans.maxsize
    assert bch._g_coefficients.cache_info().currsize <= coefficients.maxsize
    for (q, m), Z in first.items():
        assert np.array_equal(bch_integral(X, Y, q, m), Z)


def mp_log_of_product(X, Y):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        L = mp.logm(mp.expm(mp.matrix(X.tolist())) * mp.expm(mp.matrix(Y.tolist())))
        return np.array(L.tolist(), dtype=complex)


# Relative error bounds against mpmath at 40 digits, set from the per-node
# loop's errors on these inputs: its largest were 1.43e-14 (q = 16, where
# Simpson's rule dominates), 9.3e-16 (q = 64) and 7.9e-16 (heis).
MP_BOUND = {16: 2e-14, 64: 1.5e-15}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_integral_against_mpmath_gl(n):
    rng = np.random.default_rng(2024 + n)
    for _ in range(3):
        X, Y = gl_pair(rng, n, 0.3 / n**0.5)
        want = mp_log_of_product(X, Y)
        for q, bound in MP_BOUND.items():
            err = frobenius_norm(bch_integral(X, Y, q) - want) / frobenius_norm(want)
            assert err <= bound, (q, err)


def test_integral_against_mpmath_heis():
    from matrixlie.liealg import heis_basis

    X = heis(0.3, -0.2, 0).astype(float)
    Y = heis(0.1, 0, 0.4).astype(float)
    want = mp_log_of_product(X, Y)
    for q in (16, 64):
        Z = bch_integral(X, Y, q, basis=heis_basis())
        assert frobenius_norm(Z - want) / frobenius_norm(want) <= 1.5e-15


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("basis", [None, "sl2"])
@pytest.mark.parametrize("q, t", [(4, "0.375"), (5, "0.4"), (64, "0.3359375")])
def test_integral_reports_the_first_interior_node_outside(basis, q, t):
    # X, Y = 0.05 H, 0.8 H with H = diag(1, -1): ||e^(adX) e^(t adY) - I||^2
    # = (e^u - 1)^2 + (e^-u - 1)^2 with u = 0.1 + 1.6 t, which reaches 1 at
    # t = 0.3331, away from every node of these q; t = 0 is inside
    H = np.diag([1.0, -1.0])
    basis = sl2_basis() if basis else None
    with pytest.raises(OutOfDomainError, match=f"at quadrature node t = {t}$"):
        bch_integral(0.05 * H, 0.8 * H, q, basis=basis)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "q, t", [(3, "0.3333333333333333"), (7, "0.3571428571428571"),
             (48, "0.3333333333333333"), (100, "0.335")]
)
def test_integral_reports_the_first_node_outside_from_the_plan(q, t):
    # as above on the default basis, for q where 2q is not a power of two:
    # t is read from the per-q plan, twice, so a cached plan reports it too
    H = np.diag([1.0, -1.0])
    for _ in range(2):
        with pytest.raises(OutOfDomainError, match=f"at quadrature node t = {re.escape(t)}$"):
            bch_integral(0.05 * H, 0.8 * H, q)


@pytest.mark.filterwarnings("error")
def test_integral_overflowing_nodes_are_outside():
    # ||ad Y|| > 700: the stacked e^(t adY) overflows at the last nodes, but
    # the first node outside is t = 1/128, as when each node was separate
    Y = np.diag([400.0, -400.0])
    with pytest.raises(OutOfDomainError, match=r"t = 0\.0078125$"):
        bch_integral(np.zeros((2, 2)), Y, 64)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("q", [48, 68, 100])
def test_integral_overflowing_doubling_names_the_first_node(q):
    # ||ad Y||_1 = 800: at q = 68 the top factor e^(128/136 ad Y) overflows
    # itself; at q = 48 and 100 the factors are finite and the products of
    # the last nodes overflow.  Either way node 1 is the first outside.
    Y = np.diag([400.0, -400.0])
    with pytest.raises(OutOfDomainError, match=f"t = {re.escape(str(1 / (2 * q)))}$"):
        bch_integral(np.zeros((2, 2)), Y, q)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("basis", [None, "sl2"])
def test_integral_non_finite_is_a_domain_error(bad, basis):
    basis = sl2_basis() if basis else None
    H = np.diag([0.1, -0.1])
    B = np.diag([bad, -0.1])
    for X, Y in ((B, H), (H, B)):
        with pytest.raises(DomainError, match="finite"):
            bch_integral(X, Y, 4, basis=basis)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("basis", [None, "sl2"])
def test_integral_overflowing_exp_of_ad_x_is_a_domain_error(basis):
    # ||ad X||_1 = 800 for X = 400 H: e^(ad X) overflows before any node
    H = np.diag([1.0, -1.0])
    with pytest.raises(DomainError, match=r"^e\^X overflows \(\|\|X\|\|_1 = 800\)$"):
        bch_integral(400 * H, 0 * H, 4, basis=sl2_basis() if basis else None)


@pytest.mark.filterwarnings("error")
def test_integral_overflowing_ad_is_a_domain_error():
    # finite entries whose ad Z = Z (x) I - I (x) Z^T overflows to inf
    huge, small = np.diag([1e308, -1e308]), np.diag([0.1, -0.1])
    for X, Y in ((huge, small), (small, huge)):
        with pytest.raises(DomainError, match="overflows"):
            bch_integral(X, Y, 4)


def g_series_loop(B, V, terms):
    """Reference for _g_series: the per-term loop it replaced, one product
    B^m V = B (B^(m-1) V) per term."""
    G = P = V
    for m in range(1, terms + 1):
        P = B @ P
        G = G - P / (m * (m + 1))
    return G


def random_contractions(rng, shape, complex_):
    """Matrices B of the given stack shape with ||B||_F < 0.95 each."""
    B = rng.standard_normal(shape)
    if complex_:
        B = B + 1j * rng.standard_normal(shape)
    return B * rng.uniform(0.0, 0.95) / np.linalg.norm(B, axis=(-2, -1), keepdims=True)


def assert_g_series_is_the_loop(B, V, terms):
    # the blocked sum differs from the loop only in the order of rounding:
    # about 4 machine epsilons relative to V on these inputs
    got, want = bch._g_series(B, V, terms), g_series_loop(B, V, terms)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.abs(got - want).max() <= 1e-14 * np.abs(V).max()


@pytest.mark.parametrize("terms", range(1, 41))
def test_g_series_matches_the_loop_on_stacks(terms):
    # terms 1..40 take in every remainder mod the block size, and fewer
    # terms than one block
    rng = np.random.default_rng(500 + terms)
    for K, N, complex_ in ((1, 1, False), (129, 16, False), (7, 4, True), (33, 9, False)):
        B = random_contractions(rng, (K, N, N), complex_)
        assert_g_series_is_the_loop(B, rng.standard_normal((N, 1)), terms)


@pytest.mark.parametrize("terms", [1, 2, 3, 4, 5, 7, 8, 9, 30, 40])
def test_g_series_matches_the_loop_on_one_matrix(terms):
    rng = np.random.default_rng(600 + terms)
    for n, complex_ in ((1, False), (3, True), (5, False)):
        B = random_contractions(rng, (n, n), complex_)
        assert_g_series_is_the_loop(B, np.eye(n, dtype=B.dtype), terms)


@pytest.mark.parametrize("terms", range(1, 12))
def test_g_series_is_exact_on_fractions(terms):
    # nilpotent, and a rational contraction whose series does not terminate
    N = rmat([[0, 1, Fraction(2, 3), -4], [0, 0, 5, Fraction(1, 7)], [0, 0, 0, 3], [0, 0, 0, 0]])
    C = rmat([[Fraction(1, 3), Fraction(-1, 5)], [Fraction(2, 7), Fraction(1, 4)]])
    for B in (N, C):
        I = reye(len(B))
        G = bch._g_series(B, I, terms)
        assert G.dtype == object and all(type(x) is Fraction for x in G.flat)
        assert (G == g_series_loop(B, I, terms)).all()


def bits(A):
    """A's dtype, shape and entries bit for bit: its bytes, or for an object
    array the type and value of each entry."""
    return A.dtype, A.shape, A.tobytes() if A.dtype != object else [(type(x), x) for x in A.flat]


@pytest.mark.parametrize("kind", ["real", "complex", "exact"])
def test_g_series_and_g_operator_never_write_their_input(kind):
    # B^2 and B^4 go into the stacks passed as powers, or into new arrays,
    # never into B; bch_integral passes stacks of its scratch buffer
    rng = np.random.default_rng(700)
    if kind == "exact":
        Bs = [rmat([[Fraction(1, 3), Fraction(-1, 5)], [Fraction(2, 7), Fraction(1, 4)]])]
    else:
        Bs = [random_contractions(rng, shape, kind == "complex") for shape in ((3, 3), (9, 4, 4))]
    for B in Bs:
        n, before = B.shape[-1], bits(B)
        V = reye(n) if kind == "exact" else np.eye(n, dtype=B.dtype)
        want = bch._g_series(B, V, 30)
        assert bits(B) == before
        if kind != "exact":
            powers = tuple(np.full_like(B, np.nan) for _ in range(bch._PS_DOUBLINGS))
            assert bits(bch._g_series(B, V, 30, powers)) == bits(want)
            assert bits(B) == before
        if B.ndim == 2:
            M = V - B
            before = bits(M)
            g_operator(M)
            assert bits(M) == before


# --- the per-thread scratch buffer of bch_integral ----------------------------


def test_integral_results_share_no_memory_with_the_scratch_buffer():
    rng = np.random.default_rng(710)
    Z = bch_integral(*gl_pair(rng, 3, 0.2), 16)
    first = bits(Z)
    assert not np.shares_memory(Z, bch._scratch.buffer)
    # the same shape with other operands, then a larger shape, then a smaller one
    for n, q in ((3, 16), (4, 64), (2, 5)):
        bch_integral(*gl_pair(rng, n, 0.2), q)
        assert bits(Z) == first


def test_integral_in_four_threads_equals_serial_calls():
    cases = [(*gl_pair(np.random.default_rng(720 + n), n, 0.3 / n**0.5), q)
             for n, q in itertools.product((2, 3, 4), (16, 64))]
    want = [bits(bch_integral(X, Y, q)) for X, Y, q in cases]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(bch_integral, X, Y, q) for _ in range(8) for X, Y, q in cases]
            got = [bits(f.result(timeout=120)) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == want * 8


def in_a_new_thread(f):
    """f() run in a thread of its own, whose scratch starts empty."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(f).result(timeout=120)


def test_integral_above_the_cap_keeps_nothing():
    # gl(8) at q = 64 needs three real stacks of 129 x 64 x 64 entries, 12 MiB
    big, small = gl_pair(np.random.default_rng(730), 8, 0.05), gl_pair(np.random.default_rng(731), 2, 0.2)
    assert 3 * 129 * 64**2 * 8 > bch._SCRATCH_BYTES

    def calls():
        Z = bch_integral(*big, 64)
        kept = [getattr(bch._scratch, "buffer", None)]
        bch_integral(*small, 16)
        kept.append(bch._scratch.buffer)
        Z2 = bch_integral(*big, 64)
        return Z, Z2, kept + [bch._scratch.buffer], dict(bch._scratch.views)

    Z, Z2, (first, buffer, last), views = in_a_new_thread(calls)
    assert first is None  # a first call above the cap keeps no buffer
    assert last is buffer and buffer.nbytes <= bch._SCRATCH_BYTES
    assert all(shape != (129, 64, 64) for shape, dtype in views)
    assert not np.shares_memory(Z2, buffer) and bits(Z2) == bits(Z)


def test_integral_scratch_keeps_the_views_of_at_most_16_shapes():
    # q falls, so the first buffer holds every later shape and only the
    # bound on the views can drop them
    X, Y = gl_pair(np.random.default_rng(740), 2, 0.2)
    qs = range(40, 0, -1)
    got, views = in_a_new_thread(lambda: ([bits(bch_integral(X, Y, q)) for q in qs],
                                          len(bch._scratch.views)))
    assert views <= 16 and got == [bits(bch_integral(X, Y, q)) for q in qs]


FAULT_PROBE = """
import resource
import numpy as np
from matrixlie.bch import bch_integral

X, Y = np.random.default_rng(750).standard_normal((2, 4, 4))
X, Y = 0.15 * X / np.linalg.norm(X), 0.15 * Y / np.linalg.norm(Y)
for _ in range(3):
    bch_integral(X, Y, 64)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    bch_integral(X, Y, 64)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="minor faults as Linux counts them")
def test_warm_integral_calls_fault_in_no_fresh_pages():
    # without the scratch buffer, 20 warm gl(4), q = 64 calls took 1940 to
    # 4220 minor faults in a fresh process: the heap top that held the freed
    # node stacks was trimmed after each call and faulted back in by the
    # next; with it, 0.  A fresh process, as whether the heap is trimmed
    # depends on what the process allocated and freed before
    pytest.importorskip("resource")
    r = subprocess.run([sys.executable, "-c", FAULT_PROBE], capture_output=True, text=True,
                       timeout=120)
    assert r.returncode == 0, r.stderr
    assert int(r.stdout) <= 10


# --- counts: quad_points and terms -------------------------------------------


@pytest.mark.parametrize(
    "bad", [2.5, 4.0, True, False, "4", None, np.float64(4), np.array([4, 4]), 0, -2]
)
def test_counts_must_be_integers_at_least_one(bad):
    X = np.array([[0, 0.1], [0, 0]])
    Y = np.array([[0, 0], [0.1, 0]])
    with pytest.raises(DomainError, match=r"^quad_points must be an integer >= 1"):
        bch_integral(X, Y, quad_points=bad)
    with pytest.raises(DomainError, match=r"^terms must be an integer >= 1"):
        bch_integral(X, Y, terms=bad)
    with pytest.raises(DomainError, match=r"^terms must be an integer >= 1"):
        g_operator(np.eye(2) + X, bad)


@pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint8])
def test_counts_accept_numpy_integers(kind):
    X = np.array([[0, 0.1], [0, 0]])
    Y = np.array([[0, 0], [0.1, 0]])
    want = bch_integral(X, Y, 4, 9)
    assert np.array_equal(bch_integral(X, Y, kind(4), kind(9)), want)
    assert np.array_equal(g_operator(np.eye(2) + Y, kind(9)), g_operator(np.eye(2) + Y, 9))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("make", [su2_basis, sl2_basis, heis_basis, lambda: gl_basis(2)])
def test_integral_takes_a_basis_of_nested_lists(make):
    basis = make()
    listed = Basis(basis.algebra, basis.labels, tuple(M.tolist() for M in basis.elements))
    X = 0.1 * basis.elements[0] + 0.05 * basis.elements[-1]
    Y = 0.07 * basis.elements[1]
    assert np.array_equal(bch_integral(X, Y, 8, basis=listed), bch_integral(X, Y, 8, basis=basis))
