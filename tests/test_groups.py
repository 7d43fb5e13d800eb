import math
from fractions import Fraction

import numpy as np
import pytest

from matrixlie.errors import DomainError, ShapeError
from matrixlie.expmlog import mat_exp
from matrixlie.groups import (
    _SPECS,
    LieId,
    _project,
    euclidean_embed,
    is_member,
    metric_g,
    o11_component,
    parse_group,
    polar_decompose_sl,
    su2_matrix,
    symplectic_J,
)
from matrixlie.liealg import in_algebra
from matrixlie.matcore import Tolerance, frobenius_norm, rmat

TIGHT = Tolerance(abs=1e-15, rel=0.0)


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def boost(t):
    c, s = np.cosh(t), np.sinh(t)
    return np.array([[c, s], [s, c]])


def test_rotation_in_so2():
    assert is_member(rotation(0.7), "SO(2)")
    assert is_member(rotation(0.7), "O(2)")
    assert is_member(rotation(0.7), "SL(2,R)")


def test_boost_in_so11():
    assert is_member(boost(0.3), "SO(1,1)")
    assert is_member(boost(0.3), "O(1,1)")


def test_det_one_not_orthogonal():
    A = np.diag([2.0, 0.5])
    assert not is_member(A, "SO(2)")
    assert is_member(A, "SL(2,R)")


def test_shape_mismatch():
    with pytest.raises(ShapeError):
        is_member(np.eye(2), "SO(3)")


def test_real_groups_reject_complex():
    assert not is_member(np.eye(2) * (1 + 0.5j) / abs(1 + 0.5j), "O(2)")


def test_orthogonal_det_pm_one():
    rng = np.random.default_rng(8)
    for _ in range(10):
        M = rng.standard_normal((3, 3))
        Q, _ = np.linalg.qr(M)
        assert is_member(Q, "O(3)", Tolerance(abs=1e-9, rel=0))
        assert abs(abs(np.linalg.det(Q)) - 1) <= 1e-10


def test_su2_matrix():
    assert np.array_equal(su2_matrix(1, 0), np.eye(2))
    assert np.array_equal(su2_matrix(0, 1), np.array([[0, -1], [1, 0]]))
    U = su2_matrix((1 + 1j) / 2, (1 - 1j) / 2)
    assert is_member(U, "SU(2)", Tolerance(abs=1e-12, rel=0))
    with pytest.raises(DomainError):
        su2_matrix(1, 1)


def test_su2_members_have_canonical_form():
    rng = np.random.default_rng(9)
    for _ in range(10):
        v = rng.standard_normal(4)
        v /= np.linalg.norm(v)
        U = su2_matrix(v[0] + 1j * v[1], v[2] + 1j * v[3])
        V = su2_matrix(U[0, 0], U[1, 0])
        assert frobenius_norm(U - V) <= 1e-14


def test_metric_and_symplectic_matrices():
    assert np.array_equal(metric_g(3, 1), np.diag([1.0, 1, 1, -1]))
    assert np.array_equal(symplectic_J(1), np.array([[0, 1], [-1, 0]]))
    g = metric_g(1, 1)
    assert np.array_equal(g @ g, np.eye(2))


@pytest.mark.parametrize("build, args", [
    (metric_g, (True, 1)), (metric_g, (1, True)), (metric_g, (-1, 1)), (metric_g, (1, -1)),
    (metric_g, (2.5, 1)), (metric_g, (0, 0)), (metric_g, ("2", 1)),
    (symplectic_J, (0,)), (symplectic_J, (-1,)), (symplectic_J, (2.5,)), (symplectic_J, (True,)),
])
def test_metric_and_symplectic_counts_follow_the_integer_rule(build, args):
    with pytest.raises(DomainError):
        build(*args)


def test_metric_and_symplectic_take_numpy_integers():
    assert np.array_equal(metric_g(np.int64(2), 0), np.eye(2))
    assert np.array_equal(metric_g(0, np.int32(1)), -np.eye(1))
    assert np.array_equal(symplectic_J(np.int64(1)), symplectic_J(1))


def test_euclidean_embed_homomorphism_exact():
    R1 = rmat([[0, -1], [1, 0]])
    R2 = rmat([[Fraction(3, 5), Fraction(-4, 5)], [Fraction(4, 5), Fraction(3, 5)]])
    x1 = [Fraction(1), Fraction(2)]
    x2 = [Fraction(-1, 3), Fraction(5)]
    lhs = euclidean_embed(R1, x1) @ euclidean_embed(R2, x2)
    rhs = euclidean_embed(R1 @ R2, np.array(x1, dtype=object) + R1 @ np.array(x2, dtype=object))
    assert all(p == q for p, q in zip(lhs.flat, rhs.flat))


def test_euclidean_embed_identity_and_inverse():
    E = euclidean_embed(np.eye(2), [0, 0])
    assert np.array_equal(np.asarray(E, dtype=complex), np.eye(3))
    x = np.array([1.5, -2.0])
    A = np.asarray(euclidean_embed(np.eye(2), x), dtype=complex)
    B = np.asarray(euclidean_embed(np.eye(2), -x), dtype=complex)
    assert np.allclose(np.linalg.inv(A), B)


@pytest.mark.parametrize(
    "R,x,error",
    [
        (np.eye(2), [1.0, 2.0, 3.0], ShapeError),
        (np.ones((2, 3)), [1.0, 2.0], ShapeError),
        (np.eye(2), [np.inf, 0.0], DomainError),
        (np.array([[np.nan, 0.0], [0.0, 1.0]]), [0.0, 0.0], DomainError),
        (rmat([[1, 0], [0, 1]]), np.array([np.nan, 0.0]), DomainError),
        (np.zeros((0, 0)), [], ShapeError),
    ],
    ids=["long_x", "non_square_R", "inf_x", "nan_R", "nan_x_rational_R", "empty_R"],
)
def test_euclidean_embed_rejects(R, x, error):
    with pytest.raises(error):
        euclidean_embed(R, x)


def test_euclidean_embed_of_a_rational_R_and_a_floating_x_is_complex():
    E = euclidean_embed(rmat([[0, -1], [1, 0]]), [0.5, 2.0])
    assert E.dtype == complex
    assert np.array_equal(E, [[0, -1, 0.5], [1, 0, 2.0], [0, 0, 1]])


def test_euclidean_embed_of_exact_input_holds_fractions_only():
    E = euclidean_embed(rmat([[0, -1], [1, 0]]), np.array([Fraction(1, 2), 3], dtype=object))
    assert all(type(x) is Fraction for x in E.flat)
    assert E[2, 2] == 1 and E[0, 2] == Fraction(1, 2)


def test_euclidean_members():
    E = euclidean_embed(rotation(0.4), [1.0, 2.0])
    assert is_member(np.asarray(E, dtype=complex), "E(2)")


def test_polar_orthogonal_input():
    Q = rotation(1.1)
    R, H = polar_decompose_sl(Q)
    assert frobenius_norm(R - Q) <= 1e-10
    assert frobenius_norm(H - np.eye(2)) <= 1e-10


def test_polar_diagonal():
    A = np.diag([2.0, 0.5])
    R, H = polar_decompose_sl(A)
    assert frobenius_norm(R - np.eye(2)) <= 1e-10
    assert frobenius_norm(H - A) <= 1e-10


def test_polar_random_sl2():
    rng = np.random.default_rng(10)
    for _ in range(10):
        A = rng.standard_normal((2, 2))
        if np.linalg.det(A) < 0:
            A[[0, 1]] = A[[1, 0]]
        A /= np.sqrt(np.linalg.det(A))
        R, H = polar_decompose_sl(A)
        assert frobenius_norm(R @ H - A) <= 1e-10
        assert frobenius_norm(R.real.T @ R.real - np.eye(2)) <= 1e-10
        assert frobenius_norm(H - H.T) <= 1e-10
        assert abs(np.linalg.det(R) - 1) <= 1e-9
        assert abs(np.linalg.det(H) - 1) <= 1e-9
        # positive definiteness by quadratic-form sampling
        for _ in range(20):
            x = rng.standard_normal(2)
            x /= np.linalg.norm(x)
            assert (x @ H.real @ x) > 0


def test_polar_does_not_depend_on_the_tolerance():
    A = np.array([[2.0, 1.0, 0.0], [0.5, 3.0, -1.0], [0.0, 1.0, 1.5]])
    R, H = polar_decompose_sl(A, Tolerance(1e-3, 1e-3))
    R0, H0 = polar_decompose_sl(A, Tolerance(0, 0))
    assert np.array_equal(R, R0) and np.array_equal(H, H0)


def test_polar_singular_rejected():
    with pytest.raises(DomainError):
        polar_decompose_sl(np.zeros((2, 2)))


def test_o11_components():
    B = boost(0.5)
    flip = np.diag([1.0, -1.0])
    assert o11_component(B) == 1
    assert o11_component(-B) == 2
    assert o11_component(B @ flip) == 3
    assert o11_component(-B @ flip) == 4
    with pytest.raises(DomainError):
        o11_component(np.diag([2.0, 0.5]))


def test_group_closure_under_product_and_inverse():
    rng = np.random.default_rng(11)
    from matrixlie.liealg import random_algebra_element

    for gname, aname in [("SO(3)", "so(3)"), ("SU(2)", "su(2)"), ("Sp(1,R)", "sp(1,R)")]:
        A = mat_exp(random_algebra_element(aname, rng), TIGHT)
        B = mat_exp(random_algebra_element(aname, rng), TIGHT)
        tol = Tolerance(abs=1e-9, rel=0)
        assert is_member(A @ B, gname, tol)
        assert is_member(np.linalg.inv(A), gname, tol)


def test_parse_group_grammar():
    assert parse_group("SO(3)").family == "SO"
    assert parse_group("O(3,1)").k == 1
    assert parse_group("Sp(2,R)").family == "SpR"
    assert parse_group("Sp(2)").family == "Sp"
    assert parse_group("SL(2,C)").field == "C"
    assert parse_group("Heis").family == "Heis"
    with pytest.raises(ValueError):
        parse_group("XO(3)")


@pytest.mark.parametrize("gname, aname", [("SU(2)", "su(2)"), ("SO(3,1)", "so(3,1)"),
                                           ("Sp(2,R)", "sp(2,R)"), ("E(3)", "e(3)"),
                                           ("P(3,1)", "p(3,1)"), ("Heis", "heis")])
def test_a_parsed_id_passes_only_for_its_own_kind(gname, aname):
    from matrixlie.liealg import parse_algebra

    g, a = parse_group(gname), parse_algebra(aname)
    assert parse_group(g) is g and parse_algebra(a) is a
    d = g.matrix_dim
    assert is_member(np.eye(d), g) and in_algebra(np.zeros((d, d)), a)
    with pytest.raises(DomainError, match="expected a group"):
        is_member(np.eye(d), a)
    with pytest.raises(DomainError, match="expected an algebra"):
        in_algebra(np.zeros((d, d)), g)


def test_parsed_names_are_shared_and_bad_names_raise_every_time():
    from matrixlie.liealg import parse_algebra

    assert parse_group("SL(2,R)") is parse_group("SL(2,R)")
    assert parse_algebra("su(2)") is parse_algebra("su(2)")
    for _ in range(3):  # an exception is not cached, so each call raises afresh
        with pytest.raises(ValueError):
            parse_group("XO(3)")
        with pytest.raises(ValueError):
            parse_algebra("SU(2)")
        with pytest.raises(ValueError):
            is_member(np.eye(2), "SL(2)x")
        with pytest.raises(ValueError):
            in_algebra(np.zeros((2, 2)), "xx(2)")


# (name, is a group name, expected (family, n, k, field, matrix_dim))
ACCEPTED = [
    ("GL(3)", True, ("GL", 3, 0, "R", 3)),
    ("GL(2,R)", True, ("GL", 2, 0, "R", 2)),
    ("GL(2,C)", True, ("GL", 2, 0, "C", 2)),
    ("SL(3,C)", True, ("SL", 3, 0, "C", 3)),
    ("U(3)", True, ("U", 3, 0, "C", 3)),
    ("SU(2)", True, ("SU", 2, 0, "C", 2)),
    ("E(3)", True, ("E", 3, 0, "R", 4)),
    ("O(3)", True, ("O", 3, 0, "R", 3)),
    ("O(3,R)", True, ("O", 3, 0, "R", 3)),
    ("O(3,C)", True, ("OC", 3, 0, "C", 3)),
    ("O(1,1)", True, ("OK", 1, 1, "R", 2)),
    ("SO(3,C)", True, ("SOC", 3, 0, "C", 3)),
    ("SO(3,1)", True, ("SOK", 3, 1, "R", 4)),
    ("Sp(2)", True, ("Sp", 2, 0, "C", 4)),
    ("Sp(1,R)", True, ("SpR", 1, 0, "R", 2)),
    ("Sp(2,C)", True, ("SpC", 2, 0, "C", 4)),
    ("P(3,1)", True, ("P", 3, 1, "R", 5)),
    ("P(3,2)", True, ("P", 3, 2, "R", 6)),
    ("Heis", True, ("Heis", 3, 0, "R", 3)),
    ("gl(2,C)", False, ("gl", 2, 0, "C", 2)),
    ("sl(2)", False, ("sl", 2, 0, "R", 2)),
    ("u(2)", False, ("u", 2, 0, "C", 2)),
    ("su(3)", False, ("su", 3, 0, "C", 3)),
    ("e(2)", False, ("e", 2, 0, "R", 3)),
    ("so(3)", False, ("so", 3, 0, "R", 3)),
    ("so(3,C)", False, ("soC", 3, 0, "C", 3)),
    ("so(2,2)", False, ("soK", 2, 2, "R", 4)),
    ("sp(1)", False, ("sp", 1, 0, "C", 2)),
    ("sp(2,R)", False, ("spR", 2, 0, "R", 4)),
    ("sp(1,C)", False, ("spC", 1, 0, "C", 2)),
    ("p(3,1)", False, ("p", 3, 1, "R", 5)),
    ("heis", False, ("heis", 3, 0, "R", 3)),
]

REJECTED = [
    *[(s, True) for s in ("SU(2,1)", "GL(3,1)", "SO(3,1,C)", "E(3,C)", "P(3)",
                          "SO(0)", "O(3,0)", "Heis(3)", "su(2)")],
    *[(s, False) for s in ("su(2,R)", "u(2,C)", "gl(2,3)", "e(3,1)", "sp(2,1)",
                           "so(3,C,R)", "so(0)", "o(3)", "SU(2)")],
]


def _parse_either(name, group):
    from matrixlie.liealg import parse_algebra

    return parse_group(name) if group else parse_algebra(name)


@pytest.mark.parametrize("name,group,want", ACCEPTED)
def test_name_grammar_accepts(name, group, want):
    lid = _parse_either(name, group)
    assert (lid.family, lid.n, lid.k, lid.field, lid.matrix_dim) == want


@pytest.mark.parametrize("name,group", REJECTED)
def test_name_grammar_rejects(name, group):
    with pytest.raises(ValueError):
        _parse_either(name, group)


def test_unknown_family_rejected():
    from matrixlie.groups import GroupId
    from matrixlie.liealg import AlgebraId, in_algebra

    assert GroupId is AlgebraId
    with pytest.raises(ValueError):
        is_member(np.eye(3), GroupId("XO", 3))
    with pytest.raises(ValueError):
        in_algebra(np.zeros((3, 3)), AlgebraId("xo", 3))


def test_poincare_honours_k():
    A = np.eye(6)
    A[3, 3] = -1  # a reflection keeps diag(1,1,1,-1,-1)
    A[:5, 5] = [1, 2, 3, 4, 5]
    assert is_member(A, "P(3,2)")
    A[3, 4] = A[4, 3] = 0.5  # no longer preserves diag(1,1,1,-1,-1)
    assert not is_member(A, "P(3,2)")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "A", [np.array([[np.nan, 0.0], [0.0, 1.0]]), np.array([[2.0, np.inf], [0.0, 0.5]])]
)
def test_polar_non_finite_is_a_domain_error(A):
    with pytest.raises(DomainError):
        polar_decompose_sl(A)


def test_polar_empty_is_a_shape_error():
    with pytest.raises(ShapeError):
        polar_decompose_sl(np.zeros((0, 0)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize(
    "check, name",
    [(is_member, "SO(2)"), (is_member, "GL(2,C)"), (is_member, "Sp(1,R)"), (is_member, "Heis"),
     (in_algebra, "so(2)"), (in_algebra, "sl(2,R)"), (in_algebra, "u(2)"), (in_algebra, "heis")],
)
def test_membership_of_non_finite_input_is_a_domain_error(check, name, bad):
    # [[0, inf], [inf, 0]] used to pass the so(2) identity X^T = -X, since
    # |A - B| <= tol.abs + tol.rel |B| holds when B is infinite
    d = 3 if name.lower() == "heis" else 2
    A = np.eye(d) if check is is_member else np.zeros((d, d))
    A[0, d - 1] = A[d - 1, 0] = bad
    with pytest.raises(DomainError, match="finite"):
        check(A, name)


# (algebra, its group, whether the algebra is real); together they name
# every family of the table, including ones the acceptance catalog lacks
FAMILIES = [
    ("gl(2,R)", "GL(2,R)", True),
    ("gl(2,C)", "GL(2,C)", False),
    ("sl(3,R)", "SL(3,R)", True),
    ("sl(2,C)", "SL(2,C)", False),
    ("so(3)", "O(3)", True),
    ("so(3)", "SO(3)", True),
    ("so(3,C)", "O(3,C)", False),
    ("so(3,C)", "SO(3,C)", False),
    ("so(2,2)", "O(2,2)", True),
    ("so(2,2)", "SO(2,2)", True),
    ("u(3)", "U(3)", False),
    ("su(2)", "SU(2)", False),
    ("sp(2,R)", "Sp(2,R)", True),
    ("sp(2,C)", "Sp(2,C)", False),
    ("sp(2)", "Sp(2)", False),
    ("heis", "Heis", True),
    ("e(2)", "E(2)", True),
    ("p(3,2)", "P(3,2)", True),
]


def test_families_cover_the_table():
    from matrixlie.liealg import parse_algebra

    covered = {parse_group(g).family.lower() for _, g, _ in FAMILIES}
    covered |= {parse_algebra(a).family.lower() for a, _, _ in FAMILIES}
    assert covered == set(_SPECS)


@pytest.mark.parametrize("aname, gname, real", FAMILIES, ids=[g for _, g, _ in FAMILIES])
def test_random_algebra_element_is_projected_onto_the_family(aname, gname, real):
    from matrixlie.liealg import in_algebra, parse_algebra, random_algebra_element

    rng = np.random.default_rng(17)
    lid = parse_algebra(aname)
    for _ in range(5):
        X = random_algebra_element(aname, rng)
        assert X.shape == (lid.matrix_dim,) * 2 and frobenius_norm(X) > 0
        assert in_algebra(X, aname, Tolerance(abs=1e-12, rel=0))
        if real:
            assert np.all(X.imag == 0)
        assert np.abs(_project(X, lid) - X).max() <= 1e-15
        assert is_member(mat_exp(X, TIGHT), gname, Tolerance(abs=1e-9, rel=0))


def test_random_algebra_element_rejects_unknown_family():
    from matrixlie.liealg import random_algebra_element

    rng = np.random.default_rng(18)
    with pytest.raises(ValueError):
        random_algebra_element(LieId("xx", 2), rng)
    with pytest.raises(ValueError):
        random_algebra_element("xx(2)", rng)


@pytest.mark.parametrize("scale", [1e-4, 1.0, 1e4])
def test_polar_singularity_test_is_scale_invariant(scale):
    R, H = polar_decompose_sl(scale * np.diag([2.0, 1.0, 0.5]))
    assert np.abs(R - np.eye(3)).max() <= 1e-15
    assert np.abs(H - scale * np.diag([2.0, 1.0, 0.5])).max() <= 1e-15 * scale
    with pytest.raises(DomainError):
        polar_decompose_sl(scale * np.array([[1.0, 2.0], [2.0, 4.0]]))


def test_polar_of_the_identity_in_high_dimension():
    R, H = polar_decompose_sl(np.eye(20))
    assert np.array_equal(R, np.eye(20)) and np.array_equal(H, np.eye(20))


@pytest.mark.parametrize("name", ["GL(2,C)", "SL(2,C)"])
def test_membership_with_a_nan_determinant(name):
    # LAPACK's LU gives det = nan + nan j for this finite, singular matrix;
    # Python's abs of that complex can raise OverflowError, numpy's does not
    A = np.array([[0, 0], [1e-308, -1]], dtype=complex)
    assert not is_member(A, name)


def relative_det_slogdet(A):
    """Reference for polar's singularity rule: |det A| / (||A||_F / sqrt n)^n
    from slogdet and the Frobenius norm, in logarithms."""
    norm, n = frobenius_norm(A), A.shape[0]
    if not norm:
        return 0.0
    with np.errstate(divide="ignore"):  # log 0 for an exactly singular A, as in the gate
        logdet = np.linalg.slogdet(A)[1]
    return math.exp(logdet - n * (math.log(norm) - math.log(n) / 2))


def polar_rejects_as_singular(A, tol):
    try:
        polar_decompose_sl(A, tol)
    except DomainError as e:
        assert str(e) == "matrix is singular"
        return True
    return False


def singularity_inputs(rng, n, target):
    """Real n x n matrices: random, exactly singular, and diagonal ones whose
    relative determinant is target (1 + u) for small u, where the SVD and the
    LU factors are exact, so both rules see the same value to rounding."""
    yield rng.standard_normal((n, n))
    yield np.zeros((n, n))
    yield np.outer(rng.standard_normal(n), rng.standard_normal(n))
    if n > 1:
        A = rng.standard_normal((n, n))
        A[-1] = A[0]
        yield A
        for u in (-1e-3, -1e-6, -1e-9, -1e-11, 1e-11, 1e-9, 1e-6, 1e-3):
            x = target * (1 + u)  # solves x / ((n - 1 + x^2) / n)^(n/2) = target (1 + u)
            for _ in range(4):
                x = target * (1 + u) * ((n - 1 + x * x) / n) ** (n / 2)
            yield np.diag(rng.choice([-1.0, 1.0], n) * rng.permutation([1.0] * (n - 1) + [x]))


@pytest.mark.parametrize("scale", [1e-300, 1e-150, 1e-10, 1.0, 1e10, 1e150, 1e300])
@pytest.mark.parametrize("tol_abs", [1e-9, 1e-3])
def test_polar_singularity_is_the_slogdet_rule(scale, tol_abs):
    # polar reads |det A| and ||A||_F off the singular values of its SVD; its
    # decision must be the slogdet rule's except within 1e-12 of tol.abs
    rng = np.random.default_rng(2730)
    tol = Tolerance(tol_abs, 1e-9)
    for n in range(1, 6):
        for A in singularity_inputs(rng, n, tol_abs):
            ref = relative_det_slogdet(scale * A)
            if abs(ref - tol_abs) > 1e-12 * tol_abs:
                assert polar_rejects_as_singular(scale * A, tol) == (ref <= tol_abs), (n, ref)

