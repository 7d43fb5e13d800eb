import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from matrixlie.errors import ClosureError, DomainError, ShapeError
from matrixlie.expmlog import mat_exp
from matrixlie import rowcore
from matrixlie.cli import _BASIS
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
    so3_basis,
    in_algebra,
    parse_algebra,
    random_algebra_element,
    sl2_basis,
    sl2_basis_rational,
    structure_constants,
    su2_basis,
    u_decompose,
)
from matrixlie.matcore import (
    Tolerance,
    frobenius_norm,
    is_rational,
    rational_inverse,
    reye,
    rmat,
    to_complex,
)
from matrixlie.repsl3 import sl3_basis

# the public builder of each basis that the CLI names
BASES = {"su2": su2_basis, "so3": so3_basis, "sl2": sl2_basis, "heis": heis_basis,
         "sl3": sl3_basis, "gl2": lambda: gl_basis(2), "gl3": lambda: gl_basis(3)}

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


@pytest.mark.parametrize("bad", [2.5, 2.0, True, "2", None, np.array(2), 0, -1])
def test_gl_basis_needs_an_integer_at_least_one(bad):
    with pytest.raises(DomainError, match=r"^n must be an integer >= 1"):
        gl_basis(bad)
    assert gl_basis(np.int64(2)).labels == gl_basis(2).labels == ("E11", "E12", "E21", "E22")


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


def test_the_cli_names_the_bases_of_the_row_kernel_table():
    assert sorted(BASES) == sorted(rowcore._BASES) == list(_BASIS["basis"][2])


@pytest.mark.parametrize("name", sorted(BASES))
def test_structure_constants_match_float_coordinates(name):
    basis = BASES[name]()
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


# the nonzero c[i][j][k], i < j, of every CLI basis, as "p/q" strings
PINNED = json.loads((Path(__file__).parent / "golden" / "structure_constants.json").read_text())


def _pinned(name, d):
    c = np.full((d, d, d), Fraction(0), dtype=object)
    for i, j, k, x in PINNED[name]:
        c[i, j, k], c[j, i, k] = Fraction(x), -Fraction(x)
    return c


def _assert_fraction_equal(c, want):
    assert c.shape == want.shape and all(type(x) is Fraction for x in c.flat)
    assert (c == want).all()


@pytest.mark.parametrize("name", sorted(BASES))
def test_structure_constants_are_pinned(name):
    basis = BASES[name]()
    _assert_fraction_equal(structure_constants(basis), _pinned(name, len(basis)))


@pytest.mark.parametrize("name", sorted(BASES))
def test_structure_constants_do_not_change_under_conjugation(name):
    basis = BASES[name]()
    n, want = basis.elements[0].shape[0], _pinned(name, len(basis))
    # floating: a dense integer T of determinant 1, so that T^-1 B T is exact in floats
    T = np.array([[min(i, j) + 1 for j in range(n)] for i in range(n)], dtype=float)
    Ti = np.linalg.inv(T).round()
    assert np.array_equal(Ti @ T, np.eye(n))
    conj = tuple(Ti @ to_complex(B) @ T for B in basis.elements)
    _assert_fraction_equal(structure_constants(Basis(name, basis.labels, conj)), want)
    # exact: a dense rational T, for every basis with real entries
    if all(not to_complex(B).imag.any() for B in basis.elements):
        T = rmat([[Fraction(1, i + j + 1) + (i == j) for j in range(n)] for i in range(n)])
        Ti = rational_inverse(T)
        conj = tuple(Ti @ rmat(to_complex(B).real.tolist()) @ T for B in basis.elements)
        assert all(map(is_rational, conj)) and all(x != 0 for x in T.flat)
        _assert_fraction_equal(structure_constants(Basis(name, basis.labels, conj)), want)


def test_exact_structure_constants_keep_their_errors():
    H, X, Y = sl2_basis_rational().elements
    with pytest.raises(ClosureError):  # [X, Y] = H
        structure_constants(Basis("partial", ("X", "Y"), (X, Y)))
    with pytest.raises(ShapeError):
        structure_constants(Basis("mixed", ("H", "I"), (H, reye(3))))
    # one floating element: [iX, Y] = iH has the coefficient i on H
    with pytest.raises(DomainError, match="not real"):
        structure_constants(Basis("complex", ("H", "iX", "Y"), (H, 1j * to_complex(X), Y)))


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


@pytest.mark.parametrize("c", [1e-5, 1e5, -3.0])
def test_Ad_of_a_scalar_matrix_is_the_identity(c):
    X = np.arange(9.0).reshape(3, 3) + 1j
    assert np.abs(Ad_apply(c * np.eye(3), X) - X).max() <= 1e-12


@pytest.mark.parametrize("scale", [1e-5, 1.0, 1e5])
def test_Ad_rejects_a_singular_matrix_at_every_scale(scale):
    from matrixlie.errors import DomainError

    A = scale * np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]])
    with pytest.raises(DomainError):
        Ad_apply(A, np.eye(3))


def test_Ad_accepts_the_identity_in_high_dimension():
    # |det I| / ||I||_F^n = n^(-n/2) is 7e-23 at n = 30: the test normalizes by
    # (||A||_F / sqrt n)^n, which is 1 for every multiple of a unitary matrix
    X = np.arange(900.0).reshape(30, 30)
    assert np.array_equal(Ad_apply(np.eye(30), X), X)


@pytest.mark.parametrize("name", [*BASES, "sl2_rational"])
def test_ad_matrix_is_the_transposed_structure_constants(name):
    # column j of ad b_i holds the coordinates of [b_i, b_j], which are c_ij.
    basis = sl2_basis_rational() if name == "sl2_rational" else BASES[name]()
    c = structure_constants(basis)
    for i, b in enumerate(basis.elements):
        ad = ad_matrix(b, basis)
        assert ad.dtype == (object if name in ("sl2_rational", "sl3") else np.complex128)
        assert ad.shape == (len(basis),) * 2 and (ad == c[i].T).all(), (name, i)


@pytest.mark.parametrize("element, error", [
    (rmat([[1, 2, 3], [4, 5, 6]]), ShapeError),
    (np.array([[np.nan]]), DomainError),
    (np.array([[1.0, np.inf], [0.0, 1.0]]), DomainError),
])
def test_a_one_element_basis_is_gated(element, error):
    # a basis of one element has no bracket to gate it, yet is checked as d >= 2 checks
    from matrixlie.repcore import verify_relations
    from matrixlie.repsl2 import sl2_irrep

    basis = Basis("x", ("a",), (element,))
    with pytest.raises(error):
        structure_constants(basis)
    with pytest.raises(error):
        verify_relations(sl2_irrep(1), basis)


def test_a_one_element_basis_has_no_structure_constants():
    for element in (rmat([[1, 2], [3, 4]]), np.array([[1.0, 2.0], [0.0, 1j]])):
        c = structure_constants(Basis("x", ("a",), (element,)))
        assert c.shape == (1, 1, 1) and c[0, 0, 0] == 0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", ["su2", "so3", "sl2", "sl2_rational", "gl2", "heis"])
def test_a_basis_of_nested_lists_gives_the_array_basis_results(name):
    basis = {"su2": su2_basis, "so3": so3_basis, "sl2": sl2_basis, "heis": heis_basis,
             "sl2_rational": sl2_basis_rational, "gl2": lambda: gl_basis(2)}[name]()
    listed = Basis(basis.algebra, basis.labels, tuple(M.tolist() for M in basis.elements))
    X = sum((k + 1) * M for k, M in enumerate(basis.elements))
    # lists are floating, so the exact basis's coordinates come back as complex values
    for got, want in ((ad_matrix(X, listed), ad_matrix(X, basis)),
                      (structure_constants(listed), structure_constants(basis))):
        assert np.array_equal(to_complex(got), to_complex(want))
    if not name.endswith("rational"):
        assert ad_matrix(X, listed).dtype == ad_matrix(X, basis).dtype


def test_ad_matrix_of_the_empty_basis_is_empty():
    assert ad_matrix(np.eye(2), Basis("zero", (), ())).shape == (0, 0)
