import time
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
from matrixlie.groups import is_member
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


def test_one_param_generator_takes_exact_sample_times():
    # t X is then an object array, which the reconstruction check must convert
    X = np.array([[0, -0.5], [0.5, 0]])
    times = (Fraction(0), Fraction(1, 4), Fraction(1))
    samples = [OneParamSample(t, mat_exp(float(t) * X)) for t in times]
    assert approx_eq(np.asarray(one_param_generator(samples), dtype=complex), X)


@pytest.mark.parametrize("exact", [True, False])
def test_one_param_generator_is_complex128_for_any_sample_times(exact):
    X = np.array([[0, -0.5], [0.5, 0]])
    times = [Fraction(0), Fraction(1, 4), Fraction(1)]
    samples = [OneParamSample(t if exact else float(t), mat_exp(float(t) * X)) for t in times]
    G = one_param_generator(samples)
    assert G.dtype == np.complex128 and frobenius_norm(G - X) <= 1e-12


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


def _sample(t, A=np.eye(2)):
    return OneParamSample(t, A)


# calls that reach each error path, with the error and a part of its message
ERROR_PATHS = {
    "one_sample": (lambda: one_param_generator([_sample(0.0)]), "at least 2"),
    "repeated_t": (lambda: one_param_generator([_sample(0.0), _sample(1.0), _sample(1.0)]),
                   "distinct"),
    "no_t_zero": (lambda: one_param_generator([_sample(0.5), _sample(1.0)]), "t = 0"),
    "t_zero_not_identity": (lambda: one_param_generator([_sample(0.0, 2 * np.eye(2)),
                                                         _sample(1.0)]), "t = 0"),
    "nilpotent_of_a_floating_matrix": (lambda: mat_exp_nilpotent(np.zeros((2, 2))), "rational"),
}


@pytest.mark.parametrize("case", sorted(ERROR_PATHS))
def test_error_paths(case):
    call, message = ERROR_PATHS[case]
    with pytest.raises(DomainError, match=message):
        call()


def test_exp_image_sl2r():
    assert in_exp_image_sl2r(np.eye(2))
    assert in_exp_image_sl2r(-np.eye(2))
    assert not in_exp_image_sl2r(np.diag([-2.0, -0.5]))
    with pytest.raises(DomainError):
        in_exp_image_sl2r(np.diag([2.0, 2.0]))


@pytest.mark.parametrize("tol", [Tolerance(), Tolerance(1e-6, 1e-6), Tolerance(0, 0)],
                         ids=["default", "loose", "zero"])
def test_exp_image_sl2r_domain_is_sl2r_membership(tol):
    edge = tol.abs + tol.rel
    inputs = [np.diag([1 + s * f * edge, 1.0]) for s in (1, -1) for f in (0.5, 1, 2)]
    inputs += [np.eye(2) + 1j * s * f * tol.abs * np.eye(2)[::-1] for s in (1, -1) for f in (1, 2)]
    for A in inputs:
        if is_member(A, "SL(2,R)", tol):
            assert in_exp_image_sl2r(A, tol)
        else:
            with pytest.raises(DomainError):
                in_exp_image_sl2r(A, tol)
    with pytest.raises(ShapeError):
        in_exp_image_sl2r(np.eye(3), tol)


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


@pytest.mark.filterwarnings("error")
def test_exp_of_huge_negative_entry_is_zero():
    assert np.array_equal(mat_exp(np.array([[-1e200]])), np.zeros((1, 1)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("m", [0, -1, 2.5, True])
def test_lie_product_step_rejects_bad_m(m):
    X = rotation_generator(0.1)
    with pytest.raises(DomainError):
        lie_product_step(X, X.T, m)


def test_lie_product_step_accepts_numpy_integer():
    X, Y = rotation_generator(0.1), np.diag([0.2, -0.1]).astype(complex)
    assert np.array_equal(lie_product_step(X, Y, np.int64(3)), lie_product_step(X, Y, 3))


NAN2 = np.array([[np.nan, 0.0], [0.0, 1.0]])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "call",
    [
        lambda: mat_log(NAN2),
        lambda: mat_log(np.array([[np.inf, 0.0], [0.0, 1.0]])),
        lambda: in_exp_image_sl2r(NAN2),
        lambda: exp_directional_derivative(rotation_generator(0.1), rotation_generator(0.2), terms=0),
    ],
    ids=["log_nan", "log_inf", "exp_image_nan", "derivative_zero_terms"],
)
def test_floating_layer_domain_errors(call):
    with pytest.raises(DomainError):
        call()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("f", [mat_exp, mat_log], ids=["exp", "log"])
def test_empty_matrix_is_a_shape_error(f):
    with pytest.raises(ShapeError):
        f(np.zeros((0, 0)))


def test_exp_does_not_depend_on_the_tolerance():
    rng = np.random.default_rng(31)
    tols = [Tolerance(), Tolerance(1e-15, 0), Tolerance(0, 0)]
    for n, norm in ((1, 0.3), (2, 1e-3), (3, 1.0), (5, 20.0), (8, 100.0), (2, 900.0)):
        X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        X *= norm / frobenius_norm(X)
        if norm > 700:  # keep e^X finite: a negative definite Hermitian X
            X = -(X @ X.conj().T) / norm
        first = mat_exp(X, tols[0])
        assert all(np.array_equal(mat_exp(X, tol), first) for tol in tols[1:])


def _mp_expm(X):
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    return np.array(mp.expm(mp.matrix(X.tolist())).tolist(), dtype=complex)


def _rel_err(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


# Relative Frobenius error bounds against mpmath at 40 digits.  Measured
# maxima over the 14 seeded inputs of each norm: 3.0e-16, 3.9e-16, 5.7e-16,
# 3.5e-15 and 3.3e-14 (the series exponential gave 9.5e-15 to 2.0e-9).
EXP_BOUNDS = {1e-3: 5e-16, 1e-1: 6e-16, 1.0: 8e-16, 10.0: 5e-15, 100.0: 5e-14}


@pytest.mark.parametrize("norm", sorted(EXP_BOUNDS))
def test_exp_against_mpmath(norm):
    rng = np.random.default_rng(2024)
    worst = 0.0
    for n in range(2, 9):
        for complex_entries in (False, True):
            for nrm in sorted(EXP_BOUNDS):  # one stream: every norm sees its own draws
                X = rng.standard_normal((n, n))
                if complex_entries:
                    X = X + 1j * rng.standard_normal((n, n))
                if nrm == norm:
                    X = X * (norm / np.linalg.norm(X))
                    worst = max(worst, _rel_err(mat_exp(X), _mp_expm(X)))
    assert worst <= EXP_BOUNDS[norm]


def test_exp_of_a_stack_against_mpmath():
    # the stacked form that bch_integral uses for its factors
    # e^(2^j (h/2) ad Y): one scaling, from the largest 1-norm, for every
    # member (measured max error 7.5e-15)
    from matrixlie.expmlog import _exp_scaled

    rng = np.random.default_rng(7)
    X = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    X /= np.linalg.norm(X)
    t = np.array([0.0, 1e-3, 0.1, 0.5, 1.0, 3.0, 10.0])
    S = t[:, None, None] * X
    E = _exp_scaled(S, float(np.abs(S).sum(axis=-2).max()))
    assert np.array_equal(E[0], np.eye(4))
    assert max(_rel_err(E[k], _mp_expm(S[k])) for k in range(1, t.size)) <= 1e-14


@pytest.mark.parametrize("norm", [5.0, 9.0])
def test_directional_derivative_matches_expm_frechet(norm):
    # the upper-right block of e^[[X, Y], [0, X]] (Van Loan 1978); a
    # truncated ad-series loses accuracy as ||X|| grows
    sla = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(11)
    X = rng.standard_normal((3, 3))
    X *= norm / np.linalg.norm(X)
    Y = rng.standard_normal((3, 3))
    want = sla.expm_frechet(X, Y, compute_expm=False)
    err = np.linalg.norm(exp_directional_derivative(X, Y) - want) / np.linalg.norm(want)
    assert err <= 1e-14


def test_log_does_not_depend_on_the_tolerance():
    rng = np.random.default_rng(37)
    for n, rho in ((1, 0.3), (2, 1e-3), (3, 0.5), (4, 0.95), (5, 1 - 1e-9)):
        B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        A = np.eye(n) + B * (rho / frobenius_norm(B))
        assert np.array_equal(mat_log(A, Tolerance(1e-3, 1e-3)), mat_log(A, Tolerance(0, 0)))


def _mp_logm(A):
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    return np.array(mp.logm(mp.matrix(A.tolist())).tolist(), dtype=complex)


def _log_inputs(rho):
    """I + B with ||B||_F = rho: a random real and a random complex B for
    each n, and the near-singular diagonal I - rho e_1 e_1^T."""
    rng = np.random.default_rng(43)
    for n in (1, 2, 4, 6):
        for B in (rng.standard_normal((n, n)),
                  rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))):
            yield np.eye(n) + B * (rho / frobenius_norm(B))
        yield np.diag([1 - rho] + [1.0] * (n - 1))


# Relative Frobenius error bounds against mpmath at 40 digits.  Measured
# maxima over the 12 inputs of each rho: 1.5e-16, 1.6e-16, 1.4e-15, 1.6e-15,
# 2.0e-15, 1.4e-15 and 1.8e-15 (the series gave up to 9.9e-10 at 0.9 and
# raised ConvergenceError from [[0.07]] on).
LOG_BOUNDS = {0.1: 2e-16, 0.5: 2.5e-16, 0.9: 2e-15, 0.99: 2.5e-15,
              1 - 1e-4: 3e-15, 1 - 1e-8: 2e-15, 1 - 1e-15: 2.5e-15}


@pytest.mark.parametrize("rho", sorted(LOG_BOUNDS))
def test_log_against_mpmath(rho):
    worst = max(_rel_err(mat_log(A), _mp_logm(A)) for A in _log_inputs(rho))
    assert worst <= LOG_BOUNDS[rho]


def test_log_at_the_edge_of_the_domain(monkeypatch):
    # near ||A - I|| = 1, square roots bring rho to at most 0.9 before the
    # quadrature, so the node count and the time stay small
    assert mat_log(np.array([[0.0625]]))[0, 0] == pytest.approx(np.log(0.0625), rel=1e-15)
    import matrixlie.expmlog as expmlog

    nodes = []
    rule = expmlog._gauss_legendre
    monkeypatch.setattr(expmlog, "_gauss_legendre", lambda m: nodes.append(m) or rule(m))
    rng = np.random.default_rng(47)
    B = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    for A in (np.eye(6) + B * ((1 - 1e-15) / frobenius_norm(B)), np.diag([1e-15, 1, 1, 1])):
        start = time.perf_counter()
        L = mat_log(A)
        assert time.perf_counter() - start < 0.5
        assert np.all(np.isfinite(L))
    assert max(nodes) <= 28
