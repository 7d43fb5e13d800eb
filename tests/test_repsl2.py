import contextlib
import io
import json
from fractions import Fraction

import numpy as np
import pytest

from matrixlie import cli, liealg, repsl2, rowcore
from matrixlie.errors import DomainError, ShapeError
from matrixlie.matcore import (
    rational_inverse,
    rational_nullspace,
    rational_rank,
    reye,
    rzeros,
    to_complex,
)
from matrixlie.repcore import (
    Representation,
    direct_sum,
    dual,
    rep_from_json,
    rep_to_json,
    tensor_product,
    verify_relations,
)
from matrixlie.repsl2 import (
    _integral_diagonal,
    _kernel_highest_weights,
    sl2_basis_rational,
    sl2_decompose,
    sl2_intertwiner,
    sl2_irrep,
    sl2_poly_irrep,
    sl2_weights,
)
from matrixlie.repsl3 import (
    sl3_antifundamental_rep,
    sl3_basis,
    sl3_highest_weight_irrep,
    sl3_standard_rep,
)


def weight_counting_oracle(weights):
    """Split a multiset of H-eigenvalues into highest weights greedily.

    The top remaining weight m must head a ladder {m, m-2, ..., -m};
    strip it and repeat.  Uniquely determines the decomposition.
    """
    pool = sorted(weights, reverse=True)
    out = []
    while pool:
        m = pool[0]
        for w in range(m, -m - 1, -2):
            pool.remove(w)
        out.append(m)
    return out


def test_irrep_small_cases():
    r0 = sl2_irrep(0)
    assert r0.dim == 1 and all(np.all(np.asarray(g) == 0) for g in r0.generators)
    r1 = sl2_irrep(1)
    assert [r1.generator("H")[i, i] for i in range(2)] == [1, -1]
    assert r1.generator("X")[0, 1] == 1
    assert r1.generator("Y")[1, 0] == 1


def test_irrep_raising_coefficients():
    r2 = sl2_irrep(2)
    X = r2.generator("X")
    assert X[0, 1] == 2  # k=1: km - k(k-1) = 2
    assert X[1, 2] == 2  # k=2: 4 - 2 = 2


def test_relations_exact_up_to_8():
    basis = sl2_basis_rational()
    for m in range(9):
        assert verify_relations(sl2_irrep(m), basis)
        assert verify_relations(sl2_poly_irrep(m), basis)


def test_poly_model_structure():
    p = sl2_poly_irrep(2)
    assert [p.generator("H")[i, i] for i in range(3)] == [2, 0, -2]
    assert np.all(np.asarray(p.generator("X"))[:, 0] == 0)  # kills k=0
    assert p.generator("X")[0, 1] == -1  # coefficient -k at k=1


def test_intertwiner_diagonal_values():
    T = sl2_intertwiner(3)
    assert [T[k, k] for k in range(4)] == [1, -3, 6, -6]
    assert sl2_intertwiner(0)[0, 0] == 1


@pytest.mark.parametrize("build", [sl2_irrep, sl2_poly_irrep, sl2_intertwiner])
@pytest.mark.parametrize("m", [-1, -2])
def test_sl2_builders_reject_negative_m(build, m):
    with pytest.raises(ValueError, match="m must be a nonnegative integer"):
        build(m)


@pytest.mark.parametrize("build", [sl2_irrep, sl2_poly_irrep, sl2_intertwiner])
@pytest.mark.parametrize("m", [2.5, 2.0, True, False, "2", None, np.array(2), np.array([2])])
def test_sl2_builders_reject_a_non_integer_m(build, m):
    # a bool is not a count: True would silently build V1
    with pytest.raises(ValueError, match="^m must be a nonnegative integer$"):
        build(m)


@pytest.mark.parametrize("kind", [np.int64, np.uint8])
def test_sl2_builders_accept_numpy_integers(kind):
    assert np.array_equal(sl2_intertwiner(kind(3)), sl2_intertwiner(3))
    for build in (sl2_irrep, sl2_poly_irrep):
        rep, want = build(kind(3)), build(3)
        assert rep.held == want.held and rep.weights == want.weights


def test_intertwiner_conjugation_exact():
    for m in range(7):
        T = sl2_intertwiner(m)
        Ti = rational_inverse(T)
        ab = sl2_irrep(m)
        po = sl2_poly_irrep(m)
        for ga, gp in zip(ab.generators, po.generators):
            diff = Ti @ gp @ T - ga
            assert all(x == 0 for x in diff.flat)


def test_raising_ladder():
    # pi(H) pi(X) u = (lambda + 2) pi(X) u on each weight vector
    r = sl2_irrep(4)
    H, X = r.generator("H"), r.generator("X")
    for k in range(5):
        u = rzeros(5, 1)
        u[k, 0] = Fraction(1)
        lam = H[k, k]
        lhs = H @ (X @ u)
        rhs = (lam + 2) * (X @ u)
        assert all(p == q for p, q in zip(lhs.flat, rhs.flat))


def test_irreducibility_by_cyclic_closure():
    r = sl2_irrep(5)
    d = r.dim
    for start in range(d):
        vecs = [rzeros(d, 1)]
        vecs[0][start, 0] = Fraction(1)
        frontier = list(vecs)
        while frontier:
            new = []
            for v in frontier:
                for g in r.generators:
                    img = g @ v
                    if any(x != 0 for x in img.flat):
                        new.append(img)
            stacked = np.hstack(vecs + new)
            if rational_rank(stacked.T) == rational_rank(np.hstack(vecs).T):
                break
            vecs += new
            frontier = new
        assert rational_rank(np.hstack(vecs).T) == d


def test_weights():
    assert sl2_weights(sl2_irrep(3)) == [3, 1, -1, -3]
    assert sl2_weights(direct_sum(sl2_irrep(1), sl2_irrep(1))) == [1, 1, -1, -1]
    assert sl2_weights(tensor_product(sl2_irrep(1), sl2_irrep(1))) == [2, 0, 0, -2]


def test_decompose_irreducible():
    assert sl2_decompose(sl2_irrep(4)) == [4]


def test_decompose_direct_sum():
    assert sl2_decompose(direct_sum(sl2_irrep(2), sl2_irrep(0))) == [2, 0]


def test_decompose_tensor():
    assert sl2_decompose(tensor_product(sl2_irrep(1), sl2_irrep(1))) == [2, 0]


def test_decompose_matches_weight_oracle():
    for m in range(4):
        for n in range(4):
            t = tensor_product(sl2_irrep(m), sl2_irrep(n))
            got = sl2_decompose(t)
            assert got == weight_counting_oracle(sl2_weights(t))
            assert sum(x + 1 for x in got) == t.dim


def test_decompose_rejects_broken_relations():
    rep = sl2_irrep(2)
    gens = list(rep.generators)
    bad = gens[0].copy()
    bad[0, 0] = bad[0, 0] + 1
    gens[0] = bad
    with pytest.raises(DomainError):
        sl2_decompose(Representation(rep.algebra, rep.labels, tuple(gens)))


def test_dual_decomposes_to_same_irrep():
    assert sl2_decompose(dual(sl2_irrep(3))) == [3]


def _rational_conjugate(ms):
    """T^-1 pi T for the direct sum of the irreducibles ms, with T upper
    triangular, non-unit rational diagonal and rational entries above it."""
    rep = sl2_irrep(ms[0])
    for m in ms[1:]:
        rep = direct_sum(rep, sl2_irrep(m))
    d = rep.dim
    diag = [Fraction(2), Fraction(1, 3), Fraction(-5, 2), Fraction(3, 7), Fraction(-1, 4)]
    T = rzeros(d, d)
    for i in range(d):
        T[i, i] = diag[i % len(diag)]
        for j in range(i + 1, d):
            T[i, j] = Fraction((i + 2 * j) % 5 - 2, 1 + (i * j) % 3)
    Ti = rational_inverse(T)
    gens = tuple(Ti @ g @ T for g in rep.generators)
    return Representation(rep.algebra, rep.labels, gens)


@pytest.mark.parametrize("ms", [[3, 1, 0], [2, 2], [4, 1]])
def test_rational_conjugate_of_direct_sum(ms):
    rep = _rational_conjugate(ms)
    assert any(x.denominator != 1 for g in rep.generators for x in g.flat)
    assert verify_relations(rep, sl2_basis_rational())
    assert sl2_decompose(rep) == sorted(ms, reverse=True)


def test_rational_conjugate_rejects_every_single_entry_perturbation():
    rep = _rational_conjugate([3, 1, 0])
    basis = sl2_basis_rational()
    for k in range(3):
        for i in range(rep.dim):
            for j in range(rep.dim):
                gens = list(rep.generators)
                gens[k] = gens[k].copy()
                gens[k][i, j] += Fraction(1, 7)
                bad = Representation(rep.algebra, rep.labels, tuple(gens))
                assert not verify_relations(bad, basis), (k, i, j)


def test_clebsch_gordan_up_to_8():
    for m in range(9):
        for n in range(m + 1):
            t = tensor_product(sl2_irrep(m), sl2_irrep(n))
            assert sl2_decompose(t) == list(range(m + n, m - n - 1, -2))


def _dense_conjugate(rep):
    """T^-1 pi T for T = L D U: L unit lower and U unit upper triangular with
    entries in {-1, 0, 1}, D diagonal with rational entries, so T is neither
    lower nor upper triangular."""
    d = rep.dim
    L, D, U = reye(d), rzeros(d, d), reye(d)
    diag = [Fraction(2), Fraction(1, 3), Fraction(-5, 2), Fraction(3, 7), Fraction(-1, 4)]
    for i in range(d):
        D[i, i] = diag[i % len(diag)]
        for j in range(i):
            L[i, j] = Fraction((i + 2 * j) % 3 - 1)
            U[j, i] = Fraction((2 * i + j) % 3 - 1)
    T = L @ D @ U
    Ti = rational_inverse(T)
    return Representation(rep.algebra, rep.labels, tuple(Ti @ g @ T for g in rep.generators))


def _kernel_matrix(rep):
    """K, the matrix of pi(H) on ker pi(X) in the kernel basis v_f that
    sl2_decompose uses: v_f is 1 at its free column f and 0 at the others."""
    H = rep.generator("H")
    kernel = rational_nullspace(rep.generator("X"))
    free = [max(i for i in range(rep.dim) if v[i, 0]) for v in kernel]
    return [[(H @ v)[g, 0] for v in kernel] for g in free]


@pytest.mark.parametrize("m, n", [(2, 1), (3, 2), (3, 3), (4, 2)])
def test_clebsch_gordan_of_a_dense_conjugate(m, n):
    rep = _dense_conjugate(tensor_product(sl2_irrep(m), sl2_irrep(n)))
    K = _kernel_matrix(rep)
    r = len(K)
    assert any(K[a][b] for a in range(r) for b in range(a)), "K is upper triangular"
    assert any(K[a][b] for a in range(r) for b in range(a + 1, r)), "K is lower triangular"
    with pytest.raises(DomainError):  # pi(H) is not triangular either
        sl2_weights(rep)
    assert sl2_decompose(rep) == list(range(m + n, m - n - 1, -2))


@pytest.mark.parametrize("ms", [[4, 2, 2, 0], [1, 1, 1], [6, 0, 0]])
def test_dense_conjugate_of_a_direct_sum(ms):
    rep = sl2_irrep(ms[0])
    for m in ms[1:]:
        rep = direct_sum(rep, sl2_irrep(m))
    assert sl2_decompose(_dense_conjugate(rep)) == ms


def test_floating_rep_is_outside_the_domain():
    rep = tensor_product(sl2_irrep(2), sl2_irrep(1))
    for weights in (rep.weights, None):
        gens = tuple(to_complex(g) for g in rep.generators)
        floating = Representation(rep.algebra, rep.labels, gens, weights)
        assert verify_relations(floating, sl2_basis_rational())
        for f in (sl2_decompose, sl2_weights):
            with pytest.raises(DomainError):
                f(floating)


def test_decompose_large_tensor_product():
    t = tensor_product(sl2_irrep(30), sl2_irrep(25))
    assert sl2_decompose(t) == list(range(55, 4, -2))
    assert sl2_weights(t) == sorted(t.weights.values(), reverse=True)


def test_weights_read_off_a_triangular_h():
    for ms in ([3, 1, 0], [2, 2]):
        want = sorted((m - 2 * k for m in ms for k in range(m + 1)), reverse=True)
        upper = _rational_conjugate(ms)  # T^-1 pi(H) T with T upper triangular
        assert upper.weights is None and sl2_weights(upper) == want
        assert sl2_weights(dual(upper)) == want  # -pi(H)^T is lower triangular
    rep = sl2_irrep(1)
    R = rzeros(2, 2)
    R[0, 0] = R[0, 1] = R[1, 1] = Fraction(1)
    R[1, 0] = Fraction(-1)
    Ri = rational_inverse(R)
    full = Representation(rep.algebra, rep.labels, tuple(Ri @ g @ R for g in rep.generators))
    with pytest.raises(DomainError):
        sl2_weights(full)
    half = rzeros(2, 2)
    half[0, 0], half[1, 1] = Fraction(1, 2), Fraction(-1, 2)
    with pytest.raises(DomainError):
        sl2_weights(Representation(rep.algebra, rep.labels, (half, rzeros(2, 2), rzeros(2, 2))))


# --- the trust boundary: built reps skip the relation check, others do not


def test_from_rows_with_a_perturbed_x_still_raises():
    rep = tensor_product(sl2_irrep(2), sl2_irrep(1))
    rows = [[dict(row) for row in g] for g in rep.rows]
    rows[1][0][1] += Fraction(1, 1000)  # pi(X), row 0, column 1
    bad = Representation.from_rows(rep.algebra, rep.labels, rows, rep.weights)
    with pytest.raises(DomainError):
        sl2_decompose(bad)


def test_a_flagged_rep_of_another_algebra_is_still_refused():
    with pytest.raises(ShapeError):  # verify_relations: 8 generators, 3 basis elements
        sl2_decompose(sl3_highest_weight_irrep(1, 0)[0])


class _CheckReached(Exception):
    pass


def _cli(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def test_cg_does_not_check_but_decompose_of_json_does(monkeypatch):
    def reached(*args):
        raise _CheckReached

    monkeypatch.setattr(repsl2, "_verify_relations", reached)
    assert _cli("cg", "5", "5") == (0, '{"summands":[10,8,6,4,2,0]}\n')
    text = json.dumps(rep_to_json(tensor_product(sl2_irrep(5), sl2_irrep(5))))
    with pytest.raises(_CheckReached):
        _cli("decompose", "sl2", text)


def test_cg_and_decompose_of_the_same_product_agree():
    # cg reads the smaller factor's weights; the product as JSON is unflagged
    # and checked, and both print the Clebsch-Gordan rule
    for m in range(13):
        for n in range(m + 1):
            want = json.dumps({"summands": list(range(m + n, m - n - 1, -2))},
                              separators=(",", ":")) + "\n"
            text = json.dumps(rep_to_json(tensor_product(sl2_irrep(m), sl2_irrep(n))))
            assert _cli("cg", str(m), str(n)) == (0, want)
            assert _cli("decompose", "sl2", text) == (0, want), (m, n)


def test_summands_from_either_top_weight_agree():
    # Brauer-Klimyk: V_m (x) V_n from V_m's top weight and V_n's weights, a weight w with
    # m + w + 1 < 0 cancelling a summand when m < n, equals the count of the product's weights
    for m in range(10):
        for n in range(10):
            product = tensor_product(sl2_irrep(m), sl2_irrep(n))
            want = list(range(m + n, abs(m - n) - 1, -2))
            assert repsl2._summands(m, list(sl2_irrep(n).weights.values())) == want, (m, n)
            assert repsl2._summands(0, list(product.weights.values())) == want
    assert repsl2._summands(1, [3, 1, -1, -3]) == [4, 2]  # V_0 added at w = -1, taken at w = -3


# --- the character rule n_m = mult(m) - mult(m+2) and the K-matrix path


def _direct_sum_of(ms):
    rep = sl2_irrep(ms[0])
    for m in ms[1:]:
        rep = direct_sum(rep, sl2_irrep(m))
    return rep


def _bidiagonal_conjugate(rep, upper):
    """T^-1 pi T for a unit bidiagonal T, upper or lower, with +-1 next to
    its diagonal: pi(H) stays triangular the same way, but is dense."""
    d = rep.dim
    T = reye(d)
    for i in range(d - 1):
        T[(i, i + 1) if upper else (i + 1, i)] = Fraction(1 if (3 * i) % 5 < 3 else -1)
    Ti = rational_inverse(T)
    return Representation(rep.algebra, rep.labels, tuple(Ti @ g @ T for g in rep.generators))


def _both_paths(rep):
    """sl2_decompose, and the K-matrix path on the same rep; the rep must be
    one the character rule applies to."""
    H = rep.rows_of("H")
    assert _integral_diagonal(H, strict=False) is not None
    return sl2_decompose(rep), _kernel_highest_weights(rep, H)


def test_character_rule_matches_the_kernel_path_on_tensor_products():
    for m in range(9):
        for n in range(m + 1):
            got, oracle = _both_paths(tensor_product(sl2_irrep(m), sl2_irrep(n)))
            assert got == oracle == list(range(m + n, m - n - 1, -2)), (m, n)


@pytest.mark.parametrize("upper", [True, False])
@pytest.mark.parametrize("ms", [[3, 1, 0], [2, 2], [4, 2, 2, 0], [1, 1, 1], [6, 0, 0], [5, 3]])
def test_character_rule_matches_the_kernel_path_on_triangular_conjugates(ms, upper):
    rep = _bidiagonal_conjugate(_direct_sum_of(ms), upper)
    H = rep.rows_of("H")
    below = any(j < i for i, row in enumerate(H) for j in row)
    above = any(j > i for i, row in enumerate(H) for j in row)
    assert (above, below) == (upper, not upper), "pi(H) is dense on one side only"
    got, oracle = _both_paths(rep)
    assert got == oracle == sorted(ms, reverse=True)


def _count_kernel_calls(monkeypatch):
    calls = []
    kernel = repsl2._kernel_highest_weights
    monkeypatch.setattr(repsl2, "_kernel_highest_weights",
                        lambda rep, H: calls.append(rep.dim) or kernel(rep, H))
    return calls


def test_only_a_non_triangular_h_takes_the_kernel_path(monkeypatch):
    calls = _count_kernel_calls(monkeypatch)
    rep = tensor_product(sl2_irrep(3), sl2_irrep(2))
    assert sl2_decompose(rep) == [5, 3, 1]
    assert sl2_decompose(_bidiagonal_conjugate(rep, upper=True)) == [5, 3, 1]
    assert sl2_decompose(_bidiagonal_conjugate(rep, upper=False)) == [5, 3, 1]
    assert calls == []
    assert sl2_decompose(_dense_conjugate(rep)) == [5, 3, 1]
    assert calls == [12]


def test_a_non_integral_diagonal_is_refused_by_the_relations(monkeypatch):
    # pi(H) triangular with a half-integer diagonal is no sl(2) rep: the
    # relation check refuses it before either path is chosen
    calls = _count_kernel_calls(monkeypatch)
    half = rzeros(2, 2)
    half[0, 0], half[1, 1] = Fraction(1, 2), Fraction(-1, 2)
    rep = Representation("sl(2,C)", ("H", "X", "Y"), (half, rzeros(2, 2), rzeros(2, 2)))
    assert _integral_diagonal(rep.rows_of("H"), strict=False) is None
    with pytest.raises(DomainError, match="not integral"):
        _integral_diagonal(rep.rows_of("H"), strict=True)
    with pytest.raises(DomainError, match="relations"):
        sl2_decompose(rep)
    assert calls == []


@pytest.mark.parametrize("lie", ["swapped", "zero", "reversed"])
def test_json_weights_are_not_trusted(lie, monkeypatch):
    calls = _count_kernel_calls(monkeypatch)
    ms = [4, 2, 1, 0]
    obj = rep_to_json(_bidiagonal_conjugate(_direct_sum_of(ms), upper=True))
    true = [4, 2, 0, -2, -4, 2, 0, -2, 1, -1, 0]
    obj["weights"] = {str(i): w for i, w in enumerate(
        {"swapped": [true[1], true[0]] + true[2:], "zero": [0] * len(true),
         "reversed": true[::-1]}[lie])}
    rep = rep_from_json(obj)
    assert sl2_decompose(rep) == ms
    code, out = _cli("decompose", "sl2", json.dumps(obj))
    assert (code, json.loads(out)) == (0, {"summands": ms})
    assert calls == []


def test_relations_are_checked_before_the_diagonal_is_read():
    # H = diag(1, -1, 0) with X = Y = 0: the character rule alone would
    # count V_1 + V_0, whose dimensions do total 3
    H = rzeros(3, 3)
    H[0, 0], H[1, 1] = Fraction(1), Fraction(-1)
    rep = Representation("sl(2,C)", ("H", "X", "Y"), (H, rzeros(3, 3), rzeros(3, 3)))
    assert _integral_diagonal(rep.rows_of("H"), strict=False) == [1, -1, 0]
    with pytest.raises(DomainError, match="relations"):
        sl2_decompose(rep)
    obj = rep_to_json(rep)
    obj["weights"] = {"0": 1, "1": -1, "2": 0}
    with pytest.raises(DomainError, match="relations"):
        sl2_decompose(rep_from_json(obj))
    code, out = _cli("decompose", "sl2", json.dumps(obj))
    assert code == 1 and json.loads(out)["error"] == "domain"


def test_sl2_constants_are_computed_once(monkeypatch):
    # an unchecked rep is checked against the sl(2) constants of the numpy-free
    # row kernel, computed once per process in the one cache of the built-in
    # bases, which structconst reads too; they agree with liealg's
    rowcore._builtin_constants.cache_clear()
    calls = []
    compute = rowcore._constants
    monkeypatch.setattr(rowcore, "_constants", lambda *a: calls.append(a) or compute(*a))
    for ms in ([2, 0], [3, 3, 1]):
        rep = _bidiagonal_conjugate(_direct_sum_of(ms), upper=False)
        assert not rep.relations_hold and sl2_decompose(rep) == ms
    assert len(calls) == 1
    assert _cli("structconst", "--basis", "sl2")[0] == 0 and len(calls) == 1
    c = liealg.structure_constants(sl2_basis_rational())
    assert rowcore._builtin_constants("sl2") == {
        (i, j): {k: x for k, x in enumerate(c[i, j]) if x} for i, j in [(0, 1), (0, 2), (1, 2)]}


def test_mutating_public_constants_changes_no_later_result():
    text = json.dumps(rep_to_json(_bidiagonal_conjugate(_direct_sum_of([3, 1]), upper=True)))
    before = _cli("decompose", "sl2", text), _cli("structconst", "--basis", "sl3")
    for c in (liealg.structure_constants(sl2_basis_rational()),
              liealg.structure_constants(sl3_basis())):
        assert c.flags.writeable
        c[...] = Fraction(7)
    assert (_cli("decompose", "sl2", text), _cli("structconst", "--basis", "sl3")) == before
    assert before[0] == (0, '{"summands":[3,1]}\n')


# --- sl2_weights reads weight annotations only when the relations are vouched for


def test_sl2_weights_of_a_json_rep_read_the_diagonal_not_its_weights():
    obj = rep_to_json(direct_sum(sl2_irrep(2), sl2_irrep(1)))
    obj["weights"] = {str(i): 0 for i in range(5)}
    rep = rep_from_json(obj)
    assert not rep.relations_hold
    assert sl2_weights(rep) == [2, 1, 0, -1, -2]
    assert sl2_decompose(rep) == [2, 1]


def test_sl2_weights_of_a_built_rep_read_its_weights():
    rep = tensor_product(sl2_irrep(3), dual(sl2_irrep(2)))
    assert rep.relations_hold and rep.weights is not None
    assert sl2_weights(rep) == sorted(rep.weights.values(), reverse=True)


def test_sl2_weights_of_a_weighted_json_rep_with_a_non_triangular_h_raise():
    rep = _dense_conjugate(tensor_product(sl2_irrep(2), sl2_irrep(1)))
    obj = rep_to_json(rep)
    obj["weights"] = {str(i): w for i, w in enumerate([3, 1, -1, -3, 1, -1])}
    with pytest.raises(DomainError, match="triangular"):
        sl2_weights(rep_from_json(obj))
    assert sl2_decompose(rep_from_json(obj)) == [3, 1]


@pytest.mark.parametrize("build", [
    sl3_standard_rep, sl3_antifundamental_rep,
    *(lambda m=m: sl3_highest_weight_irrep(*m)[0] for m in [(1, 0), (1, 1), (2, 0)]),
], ids=["standard", "antifundamental", "irrep_1_0", "irrep_1_1", "irrep_2_0"])
def test_sl2_weights_of_a_rep_of_another_algebra_is_a_domain_error(build):
    # flagged or not, an sl(3) rep has no generator H, and its weights are not sl(2)'s
    with pytest.raises(DomainError, match="labeled H"):
        sl2_weights(build())


def test_a_vouched_rep_is_counted_from_its_weights(monkeypatch):
    calls = []
    diagonal = repsl2._integral_diagonal
    monkeypatch.setattr(repsl2, "_integral_diagonal", lambda *a: calls.append(a) or diagonal(*a))
    rep = tensor_product(sl2_irrep(4), dual(sl2_poly_irrep(3)))
    assert sl2_decompose(rep) == [7, 5, 3, 1]
    assert sl2_weights(rep) == sorted(rep.weights.values(), reverse=True)
    assert calls == []
    unflagged = rep_from_json(rep_to_json(rep))
    assert sl2_decompose(unflagged) == [7, 5, 3, 1]
    assert sl2_weights(unflagged) == sl2_weights(rep)
    assert len(calls) == 2
