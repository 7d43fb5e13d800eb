from fractions import Fraction

import numpy as np
import pytest

from matrixlie.errors import (
    DomainError,
    InconsistentSamplesError,
    OutOfDomainError,
    ShapeError,
)
from matrixlie.expmlog import (
    OneParamSample,
    exp_directional_derivative,
    heisenberg_log,
    in_exp_image_sl2r,
    lie_product_step,
    mat_exp,
    mat_exp_nilpotent,
    mat_log,
    one_param_generator,
)
from matrixlie.matcore import Tolerance, approx_eq, frobenius_norm, reye, rmat

TIGHT = Tolerance(abs=1e-15, rel=0.0)


def rotation_generator(a):
    return np.array([[0, -a], [a, 0]], dtype=complex)


def test_exp_zero_is_identity():
    for n in (1, 2, 4):
        assert np.array_equal(mat_exp(np.zeros((n, n))), np.eye(n))


def test_exp_rotation_case():
    a = np.pi / 2
    E = mat_exp(rotation_generator(a), TIGHT)
    assert np.all(np.abs(E - np.array([[0, -1], [1, 0]])) <= 1e-12)


def test_exp_triangular_case():
    X = np.array([[np.log(2), 3], [0, np.log(2)]])
    E = mat_exp(X, TIGHT)
    assert np.all(np.abs(E - np.array([[2, 6], [0, 2]])) <= 1e-12)


def test_exp_non_square_rejected():
    with pytest.raises(ShapeError):
        mat_exp(np.zeros((2, 3)))


def heis(a, b, c):
    return rmat([[0, a, b], [0, 0, c], [0, 0, 0]])


def test_exp_nilpotent_closed_form():
    a, b, c = Fraction(1, 2), Fraction(3), Fraction(-2, 5)
    E = mat_exp_nilpotent(heis(a, b, c))
    assert E[0, 1] == a and E[1, 2] == c
    assert E[0, 2] == b + a * c / 2
    assert all(E[i, i] == 1 for i in range(3))


def test_exp_nilpotent_specific():
    E = mat_exp_nilpotent(heis(2, 0, 3))
    assert E[0, 2] == 3  # b + ac/2 = 0 + 3


def test_exp_nilpotent_zero_and_rejection():
    Z = mat_exp_nilpotent(rmat([[0, 0], [0, 0]]))
    assert all(p == q for p, q in zip(Z.flat, reye(2).flat))
    with pytest.raises(DomainError):
        mat_exp_nilpotent(rmat([[1, 0], [0, 1]]))


def test_log_identity():
    assert np.all(mat_log(np.eye(3)) == 0)


def test_log_inverts_exp():
    X = np.zeros((2, 2))
    X[0, 1] = 0.1
    assert np.all(np.abs(mat_log(mat_exp(X, TIGHT), TIGHT) - X) <= 1e-12)


def test_log_diagonal():
    L = mat_log(np.diag([1.5, 0.8]), TIGHT)
    assert np.all(np.abs(L - np.diag([np.log(1.5), np.log(0.8)])) <= 1e-12)


def test_log_out_of_domain():
    with pytest.raises(OutOfDomainError):
        mat_log(np.diag([3.0, 1.0]))


def test_log_real_for_real_input():
    A = mat_exp(rotation_generator(0.3), TIGHT).real
    assert np.all(mat_log(A, TIGHT).imag == 0)


def test_log_quadratic_estimate():
    # ||log(I+B) - B|| <= c ||B||^2 on ||B|| < 1/2
    rng = np.random.default_rng(3)
    ratios = []
    for _ in range(30):
        B = rng.standard_normal((3, 3))
        B *= rng.uniform(0.05, 0.45) / frobenius_norm(B)
        err = frobenius_norm(mat_log(np.eye(3) + B, TIGHT) - B)
        ratios.append(err / frobenius_norm(B) ** 2)
    assert max(ratios) < 2.0


def test_heisenberg_log_round_trip():
    A = rmat([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    X = heisenberg_log(A)
    assert X[0, 1] == 1 and X[1, 2] == 1 and X[0, 2] == Fraction(-1, 2)
    back = mat_exp_nilpotent(X)
    assert all(p == q for p, q in zip(back.flat, A.flat))


def test_heisenberg_log_central():
    A = rmat([[1, 0, 5], [0, 1, 0], [0, 0, 1]])
    X = heisenberg_log(A)
    assert X[0, 2] == 5 and X[0, 1] == 0 and X[1, 2] == 0


def test_heisenberg_log_identity_and_shape():
    assert all(x == 0 for x in heisenberg_log(reye(3)).flat)
    with pytest.raises(DomainError):
        heisenberg_log(rmat([[1, 0], [0, 1]]))


def test_directional_derivative_trivial_cases():
    Y = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    assert np.allclose(exp_directional_derivative(np.zeros((2, 2)), Y), Y)
    # commuting: derivative is e^X Y
    X = np.diag([0.3, 0.3]).astype(complex)
    D = exp_directional_derivative(X, Y)
    assert np.allclose(D, mat_exp(X, TIGHT) @ Y, atol=1e-12)


def test_directional_derivative_vs_finite_difference():
    rng = np.random.default_rng(4)
    h = 1e-5
    for _ in range(20):
        X = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        Y = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        X *= 0.3 / frobenius_norm(X)
        Y *= 0.3 / frobenius_norm(Y)
        fd = (mat_exp(X + h * Y, TIGHT) - mat_exp(X - h * Y, TIGHT)) / (2 * h)
        D = exp_directional_derivative(X, Y, terms=20)
        assert frobenius_norm(D - fd) <= 1e-8


def test_lie_product_step_basic():
    X = np.diag([0.2, -0.1]).astype(complex)
    Y = np.diag([0.3, 0.4]).astype(complex)
    assert np.allclose(lie_product_step(X, Y, 7), mat_exp(X + Y, TIGHT), atol=1e-10)
    Z = np.array([[0, 0.5], [0, 0]], dtype=complex)
    assert np.allclose(
        lie_product_step(X, Z, 1), mat_exp(X, TIGHT) @ mat_exp(Z, TIGHT), atol=1e-13
    )


def test_lie_product_step_converges():
    rng = np.random.default_rng(5)
    for _ in range(5):
        X = rng.standard_normal((2, 2))
        Y = rng.standard_normal((2, 2))
        X *= 0.5 / frobenius_norm(X)
        Y *= 0.5 / frobenius_norm(Y)
        target = mat_exp((X + Y).astype(complex), TIGHT)
        errs = [
            frobenius_norm(lie_product_step(X, Y, m) - target) for m in (32, 64)
        ]
        assert errs[1] < errs[0]


def test_one_param_generator_recovers():
    X = np.zeros((2, 2), dtype=complex)
    X[0, 1] = 0.2
    samples = [
        OneParamSample(t, mat_exp(t * X, TIGHT)) for t in (0.0, 0.5, 1.0)
    ]
    G = one_param_generator(samples)
    assert frobenius_norm(G - X) <= 1e-10


def test_one_param_generator_constant():
    samples = [OneParamSample(t, np.eye(2)) for t in (0.0, 1.0, 2.0)]
    assert np.all(np.abs(one_param_generator(samples)) <= 1e-12)


def test_one_param_generator_inconsistent():
    X = np.diag([0.1, -0.1]).astype(complex)
    Y = np.diag([0.3, 0.2]).astype(complex)
    samples = [
        OneParamSample(0.0, np.eye(2)),
        OneParamSample(0.5, mat_exp(0.5 * X, TIGHT)),
        OneParamSample(1.0, mat_exp(1.0 * Y, TIGHT)),
    ]
    with pytest.raises(InconsistentSamplesError):
        one_param_generator(samples)


def test_exp_image_sl2r():
    assert in_exp_image_sl2r(np.eye(2))
    assert in_exp_image_sl2r(-np.eye(2))
    assert not in_exp_image_sl2r(np.diag([-2.0, -0.5]))
    with pytest.raises(DomainError):
        in_exp_image_sl2r(np.diag([2.0, 2.0]))


def test_det_trace_identity():
    rng = np.random.default_rng(6)
    for _ in range(20):
        n = rng.integers(2, 6)
        X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        X *= rng.uniform(0.1, 2.0) / frobenius_norm(X)
        det = np.linalg.det(mat_exp(X, TIGHT))
        want = np.exp(np.trace(X))
        assert abs(det - want) / abs(want) <= 1e-10


def test_exp_inverse_and_conjugation():
    rng = np.random.default_rng(7)
    for _ in range(10):
        X = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        X *= 1.0 / frobenius_norm(X)
        assert approx_eq(
            mat_exp(X, TIGHT) @ mat_exp(-X, TIGHT),
            np.eye(3),
            Tolerance(abs=1e-10, rel=0),
        )
        C = rng.standard_normal((3, 3)) + np.eye(3) * 2
        Ci = np.linalg.inv(C)
        assert frobenius_norm(
            mat_exp(C @ X @ Ci, TIGHT) - C @ mat_exp(X, TIGHT) @ Ci
        ) <= 1e-9


def test_exp_overflow_and_non_finite_norm_are_domain_errors():
    for X in ([[800.0]], [[1e308]], [[np.inf]], [[np.nan]], [[0.0, 800.0], [800.0, 0.0]]):
        with pytest.raises(DomainError):
            mat_exp(np.array(X))


def test_exp_large_norm_with_finite_result():
    assert abs(mat_exp(np.array([[-800.0]]))[0, 0]) < 1e-300
    E = mat_exp(rotation_generator(1000.0), TIGHT)
    R = np.array([[np.cos(1000.0), -np.sin(1000.0)], [np.sin(1000.0), np.cos(1000.0)]])
    assert approx_eq(E, R, Tolerance(abs=1e-9, rel=0.0))
