"""The floating layer's contract, at library level: every floating entry
point returns a finite result or raises a typed LieError, and never lets a
numpy warning escape, whatever the scale of its finite input.

Every test turns warnings into errors, so a warning fails it.
"""

import warnings
from fractions import Fraction

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from matrixlie.bch import bch_heisenberg, bch_integral, bch_series, g_operator  # noqa: E402
from matrixlie.errors import DomainError, LieError, ShapeError  # noqa: E402
from matrixlie.expmlog import (  # noqa: E402
    OneParamSample,
    exp_directional_derivative,
    in_exp_image_sl2r,
    lie_product_step,
    mat_exp,
    mat_log,
    one_param_generator,
)
from matrixlie.groups import is_member, o11_component, polar_decompose_sl, su2_matrix  # noqa: E402
from matrixlie.liealg import (  # noqa: E402
    Ad_apply,
    ad_matrix,
    algebra_membership_via_exp,
    bracket,
    gl_basis,
    in_algebra,
    sl2_basis,
    so3_basis,
    u_decompose,
)
from matrixlie.matcore import approx_eq, frobenius_norm, rmat  # noqa: E402
from matrixlie.su2so3 import adjoint_to_so3, so3_lift  # noqa: E402

I2 = np.eye(2)


# --- inputs whose result overflowed, or leaked a warning, without a typed error


@pytest.mark.filterwarnings("error")
def test_bch_series_of_an_overflowing_sum():
    with pytest.raises(DomainError, match="finite"):
        bch_series(1e308 * I2, 1e308 * I2, 1)


@pytest.mark.filterwarnings("error")
def test_bch_integral_of_an_overflowing_sum():
    # ad X = ad Y = 0 on gl(1): every node is in the domain, and X + integral overflows
    with pytest.raises(DomainError, match="finite"):
        bch_integral(np.array([[1e308]]), np.array([[1e308]]), 4)


@pytest.mark.filterwarnings("error")
def test_lie_product_step_of_an_overflowing_product():
    with pytest.raises(DomainError, match="finite"):
        lie_product_step(400 * I2, 400 * I2, 1)


@pytest.mark.filterwarnings("error")
def test_Ad_apply_of_an_overflowing_product():
    with pytest.raises(DomainError, match="finite"):
        Ad_apply(1e200 * I2, 1e200 * I2)


@pytest.mark.filterwarnings("error")
def test_u_decompose_of_an_overflowing_sum():
    with pytest.raises(DomainError, match="finite"):
        u_decompose(np.array([[1e308, -1e308], [1e308, 0]]))


@pytest.mark.filterwarnings("error")
def test_g_operator_of_a_nan_entry():
    with pytest.raises(DomainError, match="finite"):
        g_operator(np.array([[np.nan]]))


@pytest.mark.filterwarnings("error")
def test_membership_of_a_matrix_whose_products_overflow():
    # A^T g A and det A overflow: A is no member, and no warning escapes
    assert not is_member(1e200 * I2, "SL(2,R)")
    with pytest.raises(DomainError, match="not in O"):
        o11_component(1e200 * I2)


BEYOND = rmat([[10**400, 0], [0, 1]])  # an exact entry with no finite float value


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "call",
    [lambda: frobenius_norm(BEYOND), lambda: approx_eq(BEYOND, I2), lambda: g_operator(BEYOND)],
    ids=["frobenius_norm", "approx_eq", "g_operator"],
)
def test_exact_entry_beyond_the_float_range(call):
    with pytest.raises(DomainError, match="no finite float value"):
        call()


# --- scale: subnormal sums of squares and polar at extreme scales


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("s", [1e-300, 1e-160])
def test_frobenius_norm_of_a_tiny_matrix(s):
    assert frobenius_norm(s * I2) == pytest.approx(np.sqrt(2) * s, rel=1e-15, abs=0)


@pytest.mark.filterwarnings("error")
def test_frobenius_norm_of_zero():
    assert frobenius_norm(np.zeros((2, 2))) == 0.0
    assert frobenius_norm(np.zeros((0, 0))) == 0.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("s", [1e-300, 1e-150, 1e150, 1e300])
def test_polar_decomposition_at_extreme_scales(s):
    A = s * np.array([[2.0, 1.0], [0.0, 1.0]])
    R, H = polar_decompose_sl(A)
    assert np.abs(R.T @ R - I2).max() <= 1e-15
    assert np.abs(R @ H - A).max() <= 1e-15 * np.abs(A).max()


# --- the wrapper itself


@pytest.mark.filterwarnings("error")
def test_exact_entry_points_keep_the_carrier():
    X, Y = rmat([[0, 1], [0, 0]]), rmat([[0, 0], [1, 0]])
    assert bracket(X, Y).dtype == object and bch_series(X, Y).dtype == object
    assert bracket(np.diag([1.0, -1.0]), X.T).dtype == complex  # mixed: floating
    assert bracket(np.diag([1.0, -1.0]), np.eye(2)).dtype == np.float64


E12, E21 = [[0, 1], [0, 0]], [[0, 0], [1, 0]]
HEIS_X, HEIS_Y = [[0, 1, 0], [0, 0, 0], [0, 0, 0]], [[0, 0, 0], [0, 0, 1], [0, 0, 0]]
NESTED = {
    "bracket": (bracket, (E12, E21)),
    "bch_series": (bch_series, (E12, [[0, 0], [0.5, 0]])),
    "bch_heisenberg": (bch_heisenberg, (HEIS_X, HEIS_Y)),
    "g_operator": (g_operator, ([[1, 0.5], [0, 1]],)),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(NESTED))
def test_exact_entry_points_take_nested_lists(name):
    f, args = NESTED[name]
    want = f(*(np.array(a, dtype=complex) for a in args))
    got = f(*args)
    assert got.dtype == complex and np.array_equal(got, want)
    if len(args) == 2:  # a list beside an exact matrix: floating, like a float array
        assert np.array_equal(f(rmat(args[0]), args[1]), want)


# Python ints in an object array are exact: they reach the function as Fractions,
# so that / 2 and / 12 stay exact, also beyond the float range
INT_OBJECTS = {
    "bracket": (bracket, lambda b: ([[0, b], [0, 0]], E21)),
    "bch_series": (bch_series, lambda b: ([[0, b], [0, 0]], E21)),
    "bch_heisenberg": (bch_heisenberg, lambda b: ([[0, b, 0], [0, 0, 0], [0, 0, 0]], HEIS_Y)),
    "g_operator": (g_operator, lambda b: ([[1, b], [0, 1]],)),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("b", [1, 10**400], ids=["1", "10**400"])
@pytest.mark.parametrize("name", sorted(INT_OBJECTS))
def test_exact_entry_points_take_object_arrays_of_ints_as_fractions(name, b):
    f, make = INT_OBJECTS[name]
    args = make(b)
    want = f(*map(rmat, args))
    got = f(*(np.array(a, dtype=object) for a in args))
    assert got.dtype == object and all(type(x) is Fraction for x in got.flat)
    assert (got == want).all()
    if b == 1:  # a float entry among the ints: floating, like a float array
        mixed = [np.array(a, dtype=object) for a in args]
        mixed[0][0, 0] = float(mixed[0][0, 0])
        assert f(*mixed).dtype == complex


# integer inputs whose brackets leave int64 (2^62 * 4 = 2^64), which the gate
# must carry in complex rather than in wrapping integer arithmetic
BIG_X, BIG_Y = [[0, 2**62], [0, 0]], [[0, 0], [4, 0]]
INTEGER = {
    "bracket": (bracket, (BIG_X, BIG_Y)),
    "bch_series": (bch_series, (BIG_X, BIG_Y)),
    "bch_heisenberg": (bch_heisenberg, ([[0, 2**62, 0], [0, 0, 0], [0, 0, 0]], HEIS_Y)),
    "g_operator": (g_operator, ([[1, 1], [0, 1]],)),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dtype", [np.int64, bool])
@pytest.mark.parametrize("name", sorted(INTEGER))
def test_exact_entry_points_take_integer_arrays_as_complex(name, dtype):
    f, args = INTEGER[name]
    arrays = [np.array(a, dtype=dtype) for a in args]
    want = f(*(A.astype(complex) for A in arrays))
    got = f(*arrays)
    assert got.dtype == complex and np.array_equal(got, want)
    if dtype is np.int64:  # the same entries as nested lists
        assert np.array_equal(got, f(*args))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "alpha, beta",
    [(1e200, 0), (0, -1e200), (np.nan, 0), (0, complex(0, np.nan)), (np.inf, 0),
     (complex(1e308, 1e308), 0), (10**400, 0)],
)
def test_su2_matrix_of_a_non_finite_or_overflowing_entry(alpha, beta):
    with pytest.raises(DomainError):
        su2_matrix(alpha, beta)


@pytest.mark.parametrize("alpha, beta", [("0.6", 0.8), (0.6, b"0.8"), (np.str_("0.6"), "0.8j")])
def test_su2_matrix_of_a_string_is_a_domain_error(alpha, beta):
    with pytest.raises(DomainError, match="matrix entries must be numbers"):
        su2_matrix(alpha, beta)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("alpha, beta", [(np.array([0.6]), np.array([0.8])), ([0.6, 0], [0.8, 0])])
def test_su2_matrix_of_array_entries_is_a_shape_error(alpha, beta):
    with pytest.raises(ShapeError):
        su2_matrix(alpha, beta)


@pytest.mark.filterwarnings("error")
def test_wrapped_entry_points_keep_their_module_and_name():
    # bench/tracer.py finds each function by its defining module and name
    for f in (bracket, bch_series, g_operator, bch_integral, mat_log, Ad_apply):
        assert f.__module__.startswith("matrixlie.") and f.__wrapped__.__name__ == f.__name__


# --- every public floating function, with entries near the float range and
# in the subnormal range


HUGE = st.one_of(st.sampled_from([1e308, -1e308, 1.7e308, -1.7e308, 3e300]),
                 st.floats(1e300, 1.7e308), st.floats(-1.7e308, -1e300))
TINY = st.one_of(st.sampled_from([1e-300, -1e-300, 1e-308, -1e-308, 5e-324]),
                 st.floats(1e-308, 1e-300), st.floats(-1e-300, -1e-308))
ENTRY = st.one_of(st.floats(-2, 2, allow_nan=False), HUGE, TINY)

# groups, with their algebras, of each matrix size n = 1, 2, 3
NAMES = {1: [("GL(1)", "gl(1)"), ("U(1)", "u(1)")],
         2: [("SL(2,R)", "sl(2,R)"), ("SU(2)", "su(2)"), ("O(1,1)", "so(1,1)"),
             ("Sp(1,R)", "sp(1,R)"), ("E(1)", "e(1)")],
         3: [("SO(3)", "so(3)"), ("Heis", "heis"), ("SO(2,1)", "so(2,1)"), ("E(2)", "e(2)"),
             ("GL(3,C)", "gl(3,C)")]}
BASES = {1: lambda: gl_basis(1), 2: sl2_basis, 3: so3_basis}


@st.composite
def square(draw, n):
    re = np.array(draw(st.lists(ENTRY, min_size=n * n, max_size=n * n))).reshape(n, n)
    if draw(st.booleans()):
        return re.astype(complex)
    im = np.array(draw(st.lists(ENTRY, min_size=n * n, max_size=n * n))).reshape(n, n)
    return re + 1j * im


def _samples(A, B):
    return one_param_generator([OneParamSample(0.0, np.eye(len(A))), OneParamSample(1.0, A),
                                OneParamSample(2.0, B)])


# name -> (matrix count, call); a call takes the matrices, then a (group,
# algebra) name pair of their size
CALLS = {
    "mat_exp": (1, lambda A, g: mat_exp(A)),
    "mat_log": (1, lambda A, g: mat_log(A)),
    "exp_directional_derivative": (2, lambda X, Y, g: exp_directional_derivative(X, Y)),
    "lie_product_step": (2, lambda X, Y, g: lie_product_step(X, Y, 3)),
    "one_param_generator": (2, lambda A, B, g: _samples(A, B)),
    "in_exp_image_sl2r": (1, lambda A, g: in_exp_image_sl2r(A)),
    "is_member": (1, lambda A, g: is_member(A, g[0])),
    "in_algebra": (1, lambda X, g: in_algebra(X, g[1])),
    "polar_decompose_sl": (1, lambda A, g: polar_decompose_sl(A)),
    "o11_component": (1, lambda A, g: o11_component(A)),
    "algebra_membership_via_exp": (1, lambda X, g: algebra_membership_via_exp(X, g[0])),
    "bracket": (2, lambda X, Y, g: bracket(X, Y)),
    "ad_matrix": (1, lambda X, g: ad_matrix(X, BASES[len(X)]())),
    "Ad_apply": (2, lambda A, X, g: Ad_apply(A, X)),
    "u_decompose": (1, lambda X, g: u_decompose(X)),
    "bch_heisenberg": (2, lambda X, Y, g: bch_heisenberg(X, Y)),
    "bch_series": (2, lambda X, Y, g: bch_series(X, Y, 3)),
    "g_operator": (1, lambda M, g: g_operator(M)),
    "bch_integral": (2, lambda X, Y, g: bch_integral(X, Y, 4)),
    "adjoint_to_so3": (1, lambda U, g: adjoint_to_so3(U)),
    "so3_lift": (1, lambda R, g: so3_lift(R)),
}


def _finite(out) -> bool:
    if isinstance(out, tuple):
        return all(map(_finite, out))
    if isinstance(out, np.ndarray):
        return out.dtype == object or bool(np.isfinite(out).all())
    return bool(np.isfinite(out))


@pytest.mark.parametrize("name", sorted(CALLS))
@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_finite_result_or_typed_error(name, data):
    count, call = CALLS[name]
    n = data.draw(st.integers(1, 3))
    Ms = [data.draw(square(n)) for _ in range(count)]
    names = data.draw(st.sampled_from(NAMES[n]))
    with warnings.catch_warnings():  # here, not as a mark: hypothesis's own report warns
        warnings.simplefilter("error")
        try:
            out = call(*Ms, names)
        except LieError:
            return
    assert _finite(out)


# --- malformed input: ragged rows and entries that are not numbers

MALFORMED = {"ragged": ([[1.0], [1.0, 2.0]], ShapeError),
             # ragged at two depths: numpy refuses it even as an object array
             "ragged deeper": ([[1.0, 2.0], [1.0, [2.0, [3.0]]]], ShapeError),
             "not numbers": (np.array([["a", "b"], ["c", "d"]]), DomainError),
             # numpy would parse these strings as the numbers they spell
             "numeric strings": ([["1", "0"], ["0", "1"]], DomainError),
             "numeric bytes": (np.array([[b"1", b"0"], [b"0", b"1"]]), DomainError),
             "a numeric string among exact entries":
                 (np.array([[1, "0"], [Fraction(0), 1]], dtype=object), DomainError)}
CONVERTING = {**CALLS, "frobenius_norm": (1, lambda M, g: frobenius_norm(M)),
              "approx_eq": (1, lambda A, g: approx_eq(A, I2))}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", sorted(MALFORMED))
@pytest.mark.parametrize("name", sorted(CONVERTING))
def test_malformed_input_is_a_typed_error(name, kind):
    count, call = CONVERTING[name]
    M, error = MALFORMED[kind]
    with pytest.raises(error):
        call(*[M] * count, NAMES[2][0])
