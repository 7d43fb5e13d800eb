import json
from fractions import Fraction

import numpy as np
import pytest

from matrixlie.errors import DomainError, ShapeError
from matrixlie.matcore import matrix_to_json, to_complex
from matrixlie.repcore import (
    Representation,
    direct_sum,
    dual,
    rep_from_json,
    rep_to_json,
    tensor_product,
    verify_relations,
)
from matrixlie.repsl2 import sl2_basis_rational, sl2_irrep
from matrixlie.repsl3 import sl3_basis, sl3_highest_weight_irrep, sl3_standard_rep


def diag_of(M):
    return [M[i, i] for i in range(M.shape[0])]


def test_verify_relations_irreps():
    basis = sl2_basis_rational()
    for m in range(6):
        assert verify_relations(sl2_irrep(m), basis)


def test_verify_relations_standard_sl3():
    assert verify_relations(sl3_standard_rep(), sl3_basis())


def test_verify_relations_detects_perturbation():
    rep = sl2_irrep(2)
    gens = list(rep.generators)
    bad = gens[1].copy()
    bad[0, 1] = bad[0, 1] + Fraction(1, 1000)
    gens[1] = bad
    broken = Representation(rep.algebra, rep.labels, tuple(gens), rep.weights)
    assert not verify_relations(broken, sl2_basis_rational())


def test_direct_sum_trivial():
    t = sl2_irrep(0)
    s = direct_sum(t, t)
    assert s.dim == 2
    assert all(np.all(np.asarray(g, dtype=object) == 0) for g in s.generators)


def test_direct_sum_h_diagonal():
    s = direct_sum(sl2_irrep(1), sl2_irrep(1))
    assert diag_of(s.generator("H")) == [1, -1, 1, -1]
    assert sorted(s.weights.values()) == [-1, -1, 1, 1]


def test_direct_sum_algebra_mismatch():
    with pytest.raises(DomainError):
        direct_sum(sl2_irrep(1), sl3_standard_rep())


def test_tensor_h_eigenvalues():
    t = tensor_product(sl2_irrep(1), sl2_irrep(1))
    assert t.dim == 4
    assert sorted(diag_of(t.generator("H"))) == [-2, 0, 0, 2]
    assert sorted(t.weights.values()) == [-2, 0, 0, 2]
    assert verify_relations(t, sl2_basis_rational())


def test_tensor_standard_with_dual_sl3():
    std = sl3_standard_rep()
    t = tensor_product(std, dual(std))
    want = sorted(
        (w1[0] + w2[0], w1[1] + w2[1])
        for w1 in std.weights.values()
        for w2 in dual(std).weights.values()
    )
    assert sorted(t.weights.values()) == want
    assert verify_relations(t, sl3_basis())


def test_dual_properties():
    std = sl3_standard_rep()
    d = dual(std)
    assert sorted(d.weights.values()) == sorted([(-1, 0), (1, -1), (0, 1)])
    assert verify_relations(d, sl3_basis())
    dd = dual(dual(sl2_irrep(2)))
    for g1, g2 in zip(dd.generators, sl2_irrep(2).generators):
        assert all(p == q for p, q in zip(g1.flat, g2.flat))


def test_dims_multiply_and_add():
    a, b = sl2_irrep(2), sl2_irrep(3)
    assert tensor_product(a, b).dim == a.dim * b.dim
    assert direct_sum(a, b).dim == a.dim + b.dim


def test_rep_json_round_trip():
    rep = sl2_irrep(2)
    back = rep_from_json(json.loads(json.dumps(rep_to_json(rep))))
    assert back.algebra == rep.algebra and back.labels == rep.labels
    assert back.weights == rep.weights
    for g1, g2 in zip(back.generators, rep.generators):
        assert all(p == q for p, q in zip(g1.flat, g2.flat))


def test_verify_relations_with_fractional_structure_constants():
    # in the basis (H/3, X, Y): [X, Y] = 3 (H/3) and [H/3, X] = (2/3) X
    from matrixlie.liealg import Basis

    b = sl2_basis_rational()
    third = Fraction(1, 3)
    basis = Basis(b.algebra, b.labels, (b.elements[0] * third, *b.elements[1:]))
    for m in range(5):
        rep = sl2_irrep(m)
        gens = (rep.generators[0] * third, *rep.generators[1:])
        assert verify_relations(Representation(rep.algebra, rep.labels, gens), basis)
        if m:
            assert not verify_relations(rep, basis)


# --- the sparse-row carrier ---------------------------------------------------

def library_reps():
    yield sl2_irrep(0)
    yield sl2_irrep(4)
    yield direct_sum(sl2_irrep(2), sl2_irrep(1))
    yield tensor_product(sl2_irrep(2), sl2_irrep(2))
    yield dual(sl2_irrep(3))
    yield sl3_highest_weight_irrep(2, 1)[0]
    yield tensor_product(sl3_standard_rep(), dual(sl3_standard_rep()))


def floating(rep):
    gens = tuple(to_complex(g) for g in rep.generators)
    return Representation(rep.algebra, rep.labels, gens, rep.weights)


def test_library_reps_store_only_nonzero_entries():
    for rep in library_reps():
        assert rep.exact
        assert all(x != 0 for g in rep.rows for row in g for x in row.values())
        for g, G in zip(rep.rows, rep.generators):
            assert sum(map(len, g)) == sum(1 for x in G.flat if x != 0)
            assert all(type(x) is Fraction for x in G.flat)


def test_rep_to_json_matches_dense_generators():
    for rep in library_reps():
        for r in (rep, floating(rep)):
            assert rep_to_json(r)["generators"] == [matrix_to_json(g) for g in r.generators]


def test_constructor_shape_errors():
    g = sl2_irrep(2).generators
    for gens, labels in (
        ((), ()),
        ((g[0], g[1], sl2_irrep(3).generators[2]), ("H", "X", "Y")),
        ((g[0][:, :2], g[1][:, :2], g[2][:, :2]), ("H", "X", "Y")),
        (g, ("H", "X")),
    ):
        with pytest.raises(ShapeError):
            Representation("sl(2,C)", labels, gens)


@pytest.mark.parametrize("m", range(6))
def test_verify_relations_floating_sl2(m):
    assert verify_relations(floating(sl2_irrep(m)), sl2_basis_rational())


def test_verify_relations_floating_sl3():
    assert verify_relations(floating(sl3_highest_weight_irrep(1, 1)[0]), sl3_basis())


def test_verify_relations_floating_rejects_perturbation():
    rep = floating(sl2_irrep(3))
    basis = sl2_basis_rational()
    for k in range(3):
        for i, j in ((0, 0), (0, 1), (2, 1), (3, 3)):
            gens = list(rep.generators)
            gens[k] = gens[k].copy()
            gens[k][i, j] += 1e-6
            bad = Representation(rep.algebra, rep.labels, tuple(gens))
            assert not verify_relations(bad, basis, tol_abs=1e-10), (k, i, j)


def test_floating_constructions_match_exact_ones():
    a, b = sl2_irrep(2), sl2_irrep(3)
    s3 = sl3_standard_rep()
    for exact, float_ in (
        (direct_sum(a, b), direct_sum(floating(a), floating(b))),
        (tensor_product(a, b), tensor_product(floating(a), floating(b))),
        (tensor_product(a, b), tensor_product(a, floating(b))),
        (dual(b), dual(floating(b))),
        (tensor_product(s3, dual(s3)), tensor_product(floating(s3), dual(floating(s3)))),
    ):
        assert not float_.exact and float_.weights == exact.weights
        for g, h in zip(float_.generators, exact.generators):
            assert g.dtype == complex and np.array_equal(g, to_complex(h))


# --- reading rep JSON straight into rows --------------------------------------


def test_rep_json_reads_back_the_same_rows():
    for rep in library_reps():
        for r in (rep, floating(rep)):
            back = rep_from_json(json.loads(json.dumps(rep_to_json(r))))
            assert (back.exact, back.rows, back.weights) == (r.exact, r.rows, r.weights)
            kind = Fraction if r.exact else complex
            assert all(type(x) is kind and x != 0 for g in back.rows for row in g
                       for x in row.values())


def test_rep_json_with_one_floating_generator_is_floating():
    obj = rep_to_json(sl2_irrep(2))
    X = obj["generators"][1]
    obj["generators"][1] = {"rows": 3, "cols": 3, "re": [n / d for n, d in zip(X["num"], X["den"])]}
    rep = rep_from_json(obj)
    assert not rep.exact and rep.rows == floating(sl2_irrep(2)).rows


def _gen(g, **edit):
    return {**g, **edit}


SL2_2 = rep_to_json(sl2_irrep(2))
H2, X2, Y2 = SL2_2["generators"]

# edits of the JSON of sl2_irrep(2) and the error each must raise
MALFORMED_JSON = {
    "den_0": ({"generators": [H2, _gen(X2, den=[1, 0] + [1] * 7), Y2]}, DomainError),
    "bool_num": ({"generators": [H2, _gen(X2, num=[True] + X2["num"][1:]), Y2]}, DomainError),
    "bool_den": ({"generators": [_gen(H2, den=[True] * 9), X2, Y2]}, DomainError),
    "bool_rows": ({"generators": [_gen(H2, rows=True), X2, Y2]}, DomainError),
    "float_num": ({"generators": [_gen(H2, num=[1.0] + H2["num"][1:]), X2, Y2]}, DomainError),
    "not_an_object": ({"generators": [H2, [0] * 9, Y2]}, DomainError),
    "short_num": ({"generators": [_gen(H2, num=H2["num"][:-1]), X2, Y2]}, ShapeError),
    "long_den": ({"generators": [H2, X2, _gen(Y2, den=Y2["den"] + [1])]}, ShapeError),
    "zero_rows": ({"generators": [_gen(H2, rows=0, num=[], den=[]), X2, Y2]}, ShapeError),
    "zero_cols": ({"generators": [_gen(g, cols=0, num=[], den=[]) for g in (H2, X2, Y2)]},
                  ShapeError),
    "non_square": ({"generators": [_gen(g, cols=2, num=g["num"][:6], den=g["den"][:6])
                                   for g in (H2, X2, Y2)]}, ShapeError),
    "mixed_sizes": ({"generators": [H2, _gen(X2, rows=2, cols=2, num=[0] * 4, den=[1] * 4),
                                    Y2]}, ShapeError),
    "label_mismatch": ({"labels": ["H", "X"]}, ShapeError),
    "no_generators": ({"labels": [], "generators": []}, ShapeError),
    "labels_not_a_list": ({"labels": "HXY"}, DomainError),
    "generators_not_a_list": ({"generators": {"H": H2, "X": X2, "Y": Y2}}, DomainError),
    "weights_missing_an_index": ({"weights": {"0": 2, "2": -2}}, ShapeError),
    "weights_beyond_the_basis": ({"weights": {"0": 2, "1": 0, "2": -2, "7": 5}}, ShapeError),
    "weights_not_an_index": ({"weights": {"0": 2, "01": 0, "2": -2}}, ShapeError),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_JSON))
def test_malformed_rep_json_raises_its_typed_error(case):
    edit, error = MALFORMED_JSON[case]
    with pytest.raises(error):
        rep_from_json({**SL2_2, **edit})


# calls that reach each remaining error path, with the error it raises
ERROR_PATHS = {
    "relations_basis_size": (lambda: verify_relations(sl2_irrep(1), sl3_basis()), ShapeError),
    "rep_json_not_an_object": (lambda: rep_from_json([SL2_2]), DomainError),
}


@pytest.mark.parametrize("case", sorted(ERROR_PATHS))
def test_error_paths(case):
    call, error = ERROR_PATHS[case]
    with pytest.raises(error):
        call()
