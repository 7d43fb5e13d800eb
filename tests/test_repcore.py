import hashlib
import itertools
import json
import math
import operator
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from matrixlie import repcore, rowcore
from matrixlie.errors import DomainError, ShapeError
from matrixlie.matcore import _commutator, _fractions, matrix_to_json, to_complex
from matrixlie.repcore import (
    Representation,
    _gelfand_tsetlin,
    _verify_relations,
    _rep_text,
    direct_sum,
    dual,
    rep_from_json,
    rep_to_json,
    tensor_product,
    verify_relations,
)
from matrixlie.repsl2 import sl2_basis_rational, sl2_irrep, sl2_poly_irrep
from matrixlie.repsl3 import (
    sl3_antifundamental_rep,
    sl3_basis,
    sl3_highest_weight_irrep,
    sl3_standard_rep,
)


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


def test_verify_relations_matches_generators_by_label():
    rep = sl2_irrep(2)
    basis = sl2_basis_rational()
    for labels in (("H", "Y", "X"), ("A", "B", "C")):
        relabeled = Representation.from_rows(rep.algebra, labels, rep.rows, rep.weights)
        with pytest.raises(DomainError):
            verify_relations(relabeled, basis)
    reordered = Representation.from_rows(rep.algebra, ("H", "Y", "X"),
                                         [rep.rows[i] for i in (0, 2, 1)], rep.weights)
    with pytest.raises(DomainError):
        verify_relations(reordered, basis)
    assert verify_relations(rep, basis)


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


# --- the relation check on dense and sparse generators -------------------------

SL2_LABELS = ("H", "X", "Y")
# [H, X] = 2X, [H, Y] = -2Y, [X, Y] = H
SL2_CONSTANTS = {(0, 1): {1: Fraction(2)}, (0, 2): {2: Fraction(-2)}, (1, 2): {0: Fraction(1)}}


def _product(A, B):
    """The product of integer matrices held as nested lists."""
    cols = list(zip(*B))
    return [[sum(map(operator.mul, a, b)) for b in cols] for a in A]


def _relations_by_dense_products(rep, c):
    """The test oracle for _verify_relations: the integer products N_i N_j and
    N_j N_i of the held rows as dense nested lists, then, entry by entry, the
    residual (N_i N_j - N_j N_i) / (D_i D_j) - sum_k c_ijk N_k / D_k as Fractions."""
    d = rep.dim
    dense = [([[row.get(col, 0) for col in range(d)] for row in N], D) for N, D in rep.held]
    for (i, j), cij in c.items():
        (A, Da), (B, Db) = dense[i], dense[j]
        AB, BA = _product(A, B), _product(B, A)
        for r, col in itertools.product(range(d), repeat=2):
            bracket = Fraction(AB[r][col] - BA[r][col], Da * Db)
            if bracket != sum(x * Fraction(dense[k][0][r][col], dense[k][1])
                              for k, x in cij.items()):
                return False
    return True


def _conjugated(rep, scale, sup):
    """The held rows of U^-1 S^-1 pi S U for S = diag(scale) and U the unit upper
    bidiagonal matrix with superdiagonal sup (shorter than d - 1 leaves the
    rest of U the identity): integer rows over D L, L the lcm of |scale|."""
    d = rep.dim
    L = math.lcm(*scale)
    U = [[int(i == c) + (sup[i] if c == i + 1 and i < len(sup) else 0) for c in range(d)]
         for i in range(d)]
    Ui = [[0] * d for _ in range(d)]
    for c in range(d):
        for i in range(d - 1, -1, -1):
            Ui[i][c] = int(i == c) - sum(U[i][l] * Ui[l][c] for l in range(i + 1, d))
    held = []
    for N, D in rep.held:
        M = [[0] * d for _ in range(d)]  # L S^-1 N S, integral
        for r, row in enumerate(N):
            for col, x in row.items():
                M[r][col] = x * scale[col] * (L // scale[r])
        G = _product(_product(Ui, M), U)
        held.append(([{col: x for col, x in enumerate(row) if x} for row in G], D * L))
    return held


def _perturbed(held, k, r, col, sign):
    """held with sign added to integer entry (r, col) of generator k."""
    N, D = held[k]
    row = dict(N[r])
    if x := row.pop(col, 0) + sign:
        row[col] = x
    return [*held[:k], ([*N[:r], row, *N[r + 1:]], D), *held[k + 1:]]


def test_relation_check_matches_dense_products(monkeypatch):
    # sl(2) direct sums, kept sparse or made dense (or dense on a leading
    # block) by a unit bidiagonal conjugation, over denominators D > 1 from a
    # diagonal one, with negative entries and entries up to 2**64: the check
    # agrees with the oracle at the default threshold and on each path forced,
    # the default taking both paths; and adding +-1 to any one integer entry
    # of a true rep breaks the relations (a rank-one change of X, with H and
    # Y fixed, would need a lowest-weight vector of weight >= 2, and
    # [X, Y] = H rules out a change of H), so the check must reject it
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    big = 2**64
    entries = st.one_of(st.sampled_from([1, -1, 2, -3]), st.integers(-big, big).filter(bool))
    irreps = st.sampled_from([sl2_irrep, sl2_poly_irrep])
    seen = set()

    @st.composite
    def reps(draw):
        rep = sl2_irrep(draw(st.integers(0, 5)))
        for _ in range(draw(st.integers(0, 3))):
            rep = direct_sum(rep, draw(irreps)(draw(st.integers(0, 5))))
        d = rep.dim
        scale = draw(st.lists(st.one_of(st.just(1), entries), min_size=d, max_size=d))
        sup = draw(st.lists(entries, max_size=d - 1))
        held = _conjugated(rep, scale, sup)
        k, (r, col) = draw(st.integers(0, 2)), draw(st.tuples(*[st.integers(0, d - 1)] * 2))
        return held, _perturbed(held, k, r, col, draw(st.sampled_from([1, -1])))

    def check(held, expect):
        rep = Representation.from_rows("sl(2,C)", SL2_LABELS, held)
        assert _relations_by_dense_products(rep, SL2_CONSTANTS) is expect
        for dense_row in (repcore.DENSE_ROW, -1, math.inf):  # as set, always packed, never
            monkeypatch.setattr(repcore, "DENSE_ROW", dense_row)
            assert _verify_relations(rep, SL2_LABELS, SL2_CONSTANTS) is expect, dense_row
        monkeypatch.undo()
        top = max((abs(x) for N, _ in held for row in N for x in row.values()), default=0)
        seen.update({("packed", sum(map(len, held[0][0])) > repcore.DENSE_ROW * rep.dim),
                     ("D > 1", max(D for _, D in held) > 1), ("past 2**64", top > big)})

    @hyp.settings(derandomize=True, max_examples=150, deadline=None)
    @hyp.given(pair=reps())
    def both(pair):
        check(pair[0], True)
        check(pair[1], False)

    both()
    assert seen == {(what, b) for what in ("packed", "D > 1", "past 2**64") for b in (True, False)}


def _basis_constants(basis):
    """{(i, j): {k: c_ijk}}, nonzero c_ijk only, as verify_relations reads them."""
    from matrixlie.liealg import structure_constants

    c = structure_constants(basis)
    return {(i, j): {k: x for k, x in enumerate(c[i, j]) if x}
            for i, j in itertools.combinations(range(len(basis)), 2)}


def test_packing_width_leaves_no_carry():
    # a residual row (0, 2^a, -1) packs to 2^w (2^a - 2^w), which a width
    # w = a would take for 0.  R = N_2 - N_3, whose entries 2^b cancel, has
    # that row for every a up to the bit length of B = max|N_2| + max|N_3|
    # less 1; [A, B] (d = 8, q products of 2^b) has it within the
    # 2 s d max|N_i| max|N_j| part of B
    zero = [{} for _ in range(8)]
    for b in range(64):
        for a in range(1, b + 2):
            gens = [zero[:3], zero[:3], [{1: 2**a, 2: -1}, {0: 2**b}, {}], [{}, {0: 2**b}, {}]]
            assert not rowcore._residuals_vanish(gens, [(0, 1, 1, {2: 1, 3: -1})])
        for q in (1, 2, 4, 8):  # [A, B] is q 2^b at (0, 1) and -1 at (0, 2), else 0
            A = [dict.fromkeys(range(q), 1), *zero[1:]]
            B = [{1: 2**b, 2: -1}, *({1: 2**b} for _ in range(q - 1)), *zero[q:]]
            assert not rowcore._residuals_vanish([A, B], [(0, 1, 1, {})])


@pytest.mark.parametrize("m", [(1, 0), (1, 1), (2, 1), (0, 3)])
def test_verify_relations_on_dense_conjugated_sl3_irreps(m, monkeypatch):
    # eight generators, structure constants that are not all +-1, and
    # D > 1; the default takes the packed path from d = 8 on.  Every +-1
    # change of one entry breaks some sl(2) triple, on either path
    rep = sl3_highest_weight_irrep(*m)[0]
    held = _conjugated(rep, [1, -2, 3] * rep.dim, [1, -1, 2] * rep.dim)
    assert (sum(map(len, held[0][0])) > repcore.DENSE_ROW * rep.dim) is (rep.dim >= 8)
    basis = sl3_basis()
    c = _basis_constants(basis)
    dense = Representation.from_rows("sl(3,C)", basis.labels, held)
    bad = [Representation.from_rows("sl(3,C)", basis.labels, _perturbed(held, k, r, col, 1))
           for k, r, col in itertools.product(range(8), (0, rep.dim - 1), (0, rep.dim // 2))]
    assert _relations_by_dense_products(dense, c)
    assert not any(_relations_by_dense_products(b, c) for b in bad)
    for dense_row in (repcore.DENSE_ROW, -1, math.inf):  # as set, always packed, never
        monkeypatch.setattr(repcore, "DENSE_ROW", dense_row)
        assert verify_relations(dense, basis)
        assert not any(verify_relations(b, basis) for b in bad)


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


def test_repeated_labels_are_a_domain_error():
    # else rows_of and sl2_weights read the first generator of a label and never the other;
    # MALFORMED_JSON holds the rep_from_json cases
    rep = sl2_irrep(2)
    for labels in (("H", "H", "Y"), ("H", "X", "H"), ("Y", "Y", "Y")):
        with pytest.raises(DomainError, match="repeat"):
            Representation(rep.algebra, labels, rep.generators, rep.weights)


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


def test_exact_rep_json_round_trips_in_lowest_terms():
    # numerators past 2**64, denominators negative or sharing a factor with
    # their numerator: rep_from_json holds integer rows over one denominator
    # per generator, rep_to_json writes each entry in lowest terms, and
    # .rows reads the entries back as Fractions
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    big = 2**64
    nums = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-big * big, big * big))
    dens = st.one_of(st.integers(1, 12), st.integers(-12, -1), st.integers(big, big * 1000),
                     st.integers(-big * 1000, -big))

    @st.composite
    def reps(draw):
        d = draw(st.integers(1, 4))
        pairs = [draw(st.lists(st.tuples(nums, dens), min_size=d * d, max_size=d * d))
                 for _ in range(3)]
        obj = {"algebra": "sl(2,C)", "labels": ["H", "X", "Y"], "dim": d, "generators": [
            {"rows": d, "cols": d, "num": [a for a, _ in g], "den": [b for _, b in g]}
            for g in pairs]}
        if draw(st.booleans()):
            obj["weights"] = {str(i): draw(st.integers(-5, 5)) for i in range(d)}
        return obj

    @hyp.settings(derandomize=True, max_examples=200, deadline=None)
    @hyp.given(obj=reps())
    def check(obj):
        rep = rep_from_json(obj)
        xs = [[Fraction(a, b) for a, b in zip(g["num"], g["den"])] for g in obj["generators"]]
        lowest = {**obj, "generators": [
            {"rows": g["rows"], "cols": g["cols"], "num": [x.numerator for x in gx],
             "den": [x.denominator for x in gx]} for g, gx in zip(obj["generators"], xs)]}
        assert rep.exact and rep_to_json(rep) == lowest
        d = obj["dim"]
        for g, gx in zip(rep.rows, xs):
            assert all(type(x) is Fraction for row in g for x in row.values())
            assert [g[k // d].get(k % d, 0) for k in range(d * d)] == gx
        assert all(D > 0 for _, D in rep.held)

    check()


def test_rep_text_is_the_json_dumps_of_rep_to_json():
    # the CLI writes a rep by _rep_text, from its held rows; it must print the
    # bytes json.dumps writes of rep_to_json, also on reps the CLI never
    # builds: constructions of irreps, and from_rows reps with unreduced or
    # negative denominators, numerators past 2**64, any weights and d >= 11
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    big = 2**64
    nums = st.one_of(st.integers(-9, 9), st.integers(-big * big, big * big))
    dens = st.one_of(st.integers(-12, -1), st.integers(1, 12), st.integers(big, big * 1000))
    sl2 = st.one_of(st.integers(0, 12).map(sl2_irrep), st.integers(0, 12).map(sl2_poly_irrep))
    sl3 = st.sampled_from([(1, 0), (0, 2), (1, 1), (2, 1)]).map(
        lambda m: sl3_highest_weight_irrep(*m)[0])

    @st.composite
    def built(draw):
        irreps = draw(st.sampled_from([sl2, sl3]))
        r1, r2 = draw(irreps), draw(irreps)
        return draw(st.sampled_from([r1, direct_sum(r1, r2), tensor_product(r1, r2), dual(r2)]))

    @st.composite
    def from_rows(draw):
        d = draw(st.integers(1, 13))
        cells = st.tuples(st.integers(0, d - 1), st.integers(0, d - 1))
        gens = []
        for _ in range(3):
            entries = draw(st.dictionaries(cells, nums, max_size=2 * d))
            rows = [{} for _ in range(d)]
            if draw(st.booleans()):  # Fraction rows, each entry over its own denominator
                for (i, j), a in entries.items():
                    rows[i][j] = Fraction(a, draw(dens))
                gens.append(rows)
            else:  # (integer rows, D), entries and D sharing the factor g
                g = draw(st.sampled_from([1, 6, big]))
                for (i, j), a in entries.items():
                    rows[i][j] = a * g
                gens.append((rows, g * draw(st.integers(1, 12))))
        weight = draw(st.sampled_from([None, st.integers(-20, 20),
                                       st.tuples(st.integers(-5, 5), st.integers(-5, 5))]))
        weights = None if weight is None else {i: draw(weight) for i in range(d)}
        algebra = draw(st.text(max_size=4))  # written through json.dumps's escaping
        return Representation.from_rows(algebra, ["H", "X", "Y"], gens, weights)

    @hyp.settings(derandomize=True, max_examples=150, deadline=None)
    @hyp.given(rep=st.one_of(built(), from_rows()))
    def check(rep):
        assert rep.exact
        assert _rep_text(rep) == json.dumps(rep_to_json(rep), sort_keys=True, separators=(",", ":"))

    check()


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
    "labels_repeated": ({"labels": ["H", "H", "Y"]}, DomainError),
    "labels_repeated_unhashable": ({"labels": [["H"], "X", ["H"]]}, DomainError),
    "generators_not_a_list": ({"generators": {"H": H2, "X": X2, "Y": Y2}}, DomainError),
    "weights_missing_an_index": ({"weights": {"0": 2, "2": -2}}, ShapeError),
    "weights_beyond_the_basis": ({"weights": {"0": 2, "1": 0, "2": -2, "7": 5}}, ShapeError),
    "weights_not_an_index": ({"weights": {"0": 2, "01": 0, "2": -2}}, ShapeError),
    "weights_strings": ({"weights": {"0": "a", "1": "b", "2": "c"}}, DomainError),
    "weights_bool": ({"weights": {"0": True, "1": 0, "2": -2}}, DomainError),
    "weights_float": ({"weights": {"0": 2.0, "1": 0, "2": -2}}, DomainError),
    "weights_null": ({"weights": {"0": 2, "1": None, "2": -2}}, DomainError),
    "weights_list_of_strings": ({"weights": {"0": ["a"], "1": ["b"], "2": ["c"]}}, DomainError),
    "weights_nested_lists": ({"weights": {"0": [[2]], "1": [[0]], "2": [[-2]]}}, DomainError),
    "weights_int_and_list": ({"weights": {"0": 2, "1": [0], "2": -2}}, DomainError),
    "weights_of_two_lengths": ({"weights": {"0": [2, 0], "1": [0], "2": [-2, 0]}}, DomainError),
    "dim_string": ({"dim": "x"}, DomainError),
    "dim_bool": ({"dim": True}, DomainError),
    "dim_float": ({"dim": 3.0}, DomainError),
    "dim_null": ({"dim": None}, DomainError),
    "dim_not_the_generator_size": ({"dim": 99}, ShapeError),
    "dim_too_small": ({"dim": 2}, ShapeError),
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


# --- the relations_hold flag -----------------------------------------------


def test_irreducible_builders_and_their_constructions_carry_the_flag():
    a, b = sl2_irrep(3), sl2_poly_irrep(2)
    assert a.relations_hold and b.relations_hold
    assert sl3_highest_weight_irrep(1, 1)[0].relations_hold
    for rep in (tensor_product(a, b), direct_sum(a, b), dual(a), dual(tensor_product(a, a))):
        assert rep.relations_hold


def test_a_hand_built_or_json_rep_is_unflagged():
    rep = sl2_irrep(2)
    assert not Representation(rep.algebra, rep.labels, rep.generators, rep.weights).relations_hold
    assert not Representation.from_rows(rep.algebra, rep.labels, rep.rows, rep.weights).relations_hold
    assert not rep_from_json(json.loads(json.dumps(rep_to_json(rep)))).relations_hold
    assert not sl3_standard_rep().relations_hold


def test_combining_with_an_unflagged_rep_drops_the_flag():
    flagged = sl2_irrep(2)
    plain = Representation.from_rows(flagged.algebra, flagged.labels, flagged.rows, flagged.weights)
    for rep in (tensor_product(flagged, plain), tensor_product(plain, flagged),
                direct_sum(flagged, plain), direct_sum(plain, flagged), dual(plain)):
        assert not rep.relations_hold


def _flagged_grid():
    """The irreducibles sl2_irrep(m) and sl2_poly_irrep(m) for m <= 12 and
    sl3_highest_weight_irrep(m1, m2) for m1 + m2 <= 4, each with its basis."""
    sl2 = [build(m) for build in (sl2_irrep, sl2_poly_irrep) for m in range(13)]
    sl3 = [sl3_highest_weight_irrep(m1, s - m1)[0] for s in range(5) for m1 in range(s + 1)]
    return [(sl2, sl2_basis_rational()), (sl3, sl3_basis())]


def test_every_flagged_rep_of_the_grid_satisfies_the_relations():
    # what makes the flag sound: sl2_decompose trusts it instead of checking
    for irreps, basis in _flagged_grid():
        reps = list(irreps) + [dual(r) for r in irreps]
        for r1, r2 in itertools.combinations_with_replacement(irreps, 2):
            reps += [tensor_product(r1, r2), direct_sum(r1, dual(r2))]
        for rep in reps:
            assert rep.relations_hold
            assert verify_relations(rep, basis), (rep.algebra, rep.dim)


# sha256 of the sorted-key JSON of each built-in irreducible, pinned before
# sl(2) and sl(3) shared one Gelfand-Tsetlin builder; an sl(3) entry also
# covers the weight multiset
IRREPS = json.loads((Path(__file__).parent / "golden" / "irreps.json").read_text())


def _digest(rep, mult=None):
    obj = {"rep": rep_to_json(rep)}
    if mult is not None:
        obj["mult"] = sorted([list(w), c] for w, c in mult.items())
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _irrep_digests():
    return {
        "sl2_irrep": {str(m): _digest(sl2_irrep(m)) for m in range(41)},
        "sl2_poly_irrep": {str(m): _digest(sl2_poly_irrep(m)) for m in range(41)},
        "sl3_highest_weight_irrep": {
            f"{m1},{m2}": _digest(*sl3_highest_weight_irrep(m1, m2))
            for m1 in range(7) for m2 in range(7 - m1)
        },
    }


def test_irreps_are_pinned():
    assert _irrep_digests() == IRREPS


# --- the Gelfand-Tsetlin builder at n = 4, where a row below row k holds
# more than one entry and every shifted index of the product formula counts

CARTAN4 = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
TOPS4 = [(a, b, c, 0) for a in range(4) for b in range(a + 1) for c in range(b + 1)]


def _gelfand_tsetlin_fractions(top):
    """H, X, Y of _gelfand_tsetlin(top)'s matrix pass, each (integer rows, D) pair read as
    Fraction rows, and its weights."""
    weights, matrices = _gelfand_tsetlin(top)
    return (*([_fractions(g, D) for g, D in G] for G in matrices()), weights)


def _scaled(rows, s):
    return [{j: s * x for j, x in row.items()} if s else {} for row in rows]


@pytest.mark.parametrize("top", TOPS4)
def test_gelfand_tsetlin_sl4_dimension_is_weyls(top):
    H, X, Y, weights = _gelfand_tsetlin_fractions(top)
    want = math.prod(Fraction(top[i] - top[j] + j - i, j - i)
                     for i, j in itertools.combinations(range(4), 2))
    assert len(weights) == len(H[0]) == want
    for k in range(3):  # H_k is diagonal with the H_k weight
        assert H[k] == [{j: Fraction(w[k])} if w[k] else {} for j, w in enumerate(weights)]


@pytest.mark.parametrize("top", TOPS4)
def test_gelfand_tsetlin_sl4_satisfies_the_chevalley_relations(top):
    H, E, F, _ = _gelfand_tsetlin_fractions(top)
    zero = [{} for _ in H[0]]
    for k, l in itertools.product(range(3), repeat=2):
        a = CARTAN4[k][l]
        assert _commutator(E[k], F[l]) == (H[k] if k == l else zero)
        assert _commutator(H[k], E[l]) == _scaled(E[l], a)
        assert _commutator(H[k], F[l]) == _scaled(F[l], -a)
        assert _commutator(H[k], H[l]) == zero
        if k != l:  # Serre: ad(E_k)^(1 - a_kl) E_l = 0, and the same for F
            for G in (E, F):
                ad = G[l]
                for _ in range(1 - a):
                    ad = _commutator(G[k], ad)
                assert ad == zero


@pytest.mark.parametrize("top", TOPS4)
def test_gelfand_tsetlin_sl4_weights_are_weyl_invariant(top):
    mult = Counter(_gelfand_tsetlin(top)[0])
    for k in range(3):  # the simple reflection s_k(w) = w - w_k a_k
        reflected = Counter(tuple(x - w[k] * a for x, a in zip(w, CARTAN4[k]))
                            for w in mult.elements())
        assert reflected == mult


def test_tensor_product_rows_are_the_kron_sum():
    # pi1 (x) I and I (x) pi2 share only the diagonal entry of each row; for
    # V (x) V* under H it cancels and must not be stored.  Generators over
    # different denominators (sl(2) against sl2_poly_irrep) are put over one.
    pairs = [
        (sl2_irrep(3), dual(sl2_irrep(3))),
        (sl2_irrep(2), sl2_poly_irrep(3)),
        (sl3_highest_weight_irrep(1, 1)[0], dual(sl3_standard_rep())),
    ]
    for r1, r2 in pairs:
        for a, b in ((r1, r2), (floating(r1), floating(r2))):
            t = tensor_product(a, b)
            assert all(x != 0 for g in t.rows for row in g for x in row.values())
            for G, A, B in zip(t.generators, a.generators, b.generators):
                want = np.kron(A, np.eye(len(B), dtype=int)) + np.kron(np.eye(len(A), dtype=int), B)
                assert (G == want).all()


# --- one construction rule: trusted weights are the Cartan diagonal ------------


def _cartan_diagonal(rep):
    """Entry i of the diagonal of pi(H), or of (pi(H1), pi(H2)) as a pair, for each i."""
    cartan = [rep.rows_of(label) for label in rep.labels if label[0] == "H"]
    diag = [tuple(H[i].get(i, 0) for H in cartan) for i in range(rep.dim)]
    return [d[0] if len(d) == 1 else d for d in diag]


def _weighted_reps():
    """The weighted builders: sl2_irrep(0..6), sl2_poly_irrep, the sl(3) irreducibles
    with m1 + m2 <= 4, and the standard and antifundamental reps; then their duals,
    and the sums and products of pairs of them (for sl(3), pairs with a small factor)."""
    sl2 = [sl2_irrep(m) for m in range(7)] + [sl2_poly_irrep(m) for m in (0, 1, 3, 5)]
    sl3 = [sl3_highest_weight_irrep(m1, s - m1)[0] for s in range(5) for m1 in range(s + 1)]
    small = [sl3_standard_rep(), sl3_antifundamental_rep(), sl3_highest_weight_irrep(1, 1)[0]]
    pairs = [*itertools.combinations_with_replacement(sl2, 2),
             *itertools.product(sl3 + small, small)]
    reps = sl2 + sl3 + small
    reps += [dual(r) for r in reps]
    for r1, r2 in pairs:
        reps += [direct_sum(r1, r2), tensor_product(r1, r2), dual(tensor_product(r1, dual(r2)))]
    return reps


def test_weights_are_the_diagonal_of_the_cartan_generators():
    # what lets sl2_decompose count a trusted rep from its weights, not from pi(H)
    reps = _weighted_reps()
    assert sum(r.relations_hold for r in reps) > len(reps) // 2
    for rep in reps:
        assert rep.weights is not None and len(rep.weights) == rep.dim
        assert [rep.weights[i] for i in range(rep.dim)] == _cartan_diagonal(rep), rep.dim


def _built(rep) -> bool:
    """Whether rep's rows are built: a trusted rep holds a callable until held is read."""
    return not callable(rep.__dict__["_held"])


def test_deferred_rows_equal_eagerly_built_ones(monkeypatch):
    lazy = _weighted_reps()
    deferred = [r for r in lazy if not _built(r)]
    assert len(deferred) > len(lazy) // 2
    with monkeypatch.context() as m:  # every from_rows builds its rows at once
        build = Representation.from_rows.__func__
        m.setattr(Representation, "from_rows",
                  classmethod(lambda cls, *a, **k: (r := build(cls, *a, **k)).held and r))
        eager = _weighted_reps()
    assert all(map(_built, eager))
    for r, e in zip(lazy, eager):  # read before any rows are built
        assert (r.dim, r.weights, r.relations_hold) == (e.dim, e.weights, e.relations_hold)
    assert not any(map(_built, deferred))
    for r, e in zip(lazy, eager):
        assert r.held == e.held and r.rows == e.rows
        assert rep_to_json(r) == rep_to_json(e) and _rep_text(r) == _rep_text(e)
        assert _built(r) and r.held is r.held  # built once, then kept


def test_constructions_keep_weights_only_when_every_input_has_them():
    a, b = sl2_irrep(2), sl2_irrep(1)
    bare = Representation.from_rows(b.algebra, b.labels, b.held, relations_hold=True)
    for rep in (direct_sum(a, bare), direct_sum(bare, a), tensor_product(a, bare), dual(bare)):
        assert rep.weights is None and rep.relations_hold
    with pytest.raises(DomainError):
        tensor_product(a, sl3_standard_rep())


def test_rows_of_converts_only_the_generator_asked_for(monkeypatch):
    exact = sl3_highest_weight_irrep(2, 1)[0]
    for rep in (exact, floating(exact), floating(tensor_product(sl2_irrep(2), sl2_irrep(1)))):
        rows = rep.rows
        for i, label in enumerate(rep.labels):
            assert rep.rows_of(label) == rows[i]
            assert np.array_equal(rep.generator(label), rep.generators[i])
    calls = []
    convert = repcore._fractions
    monkeypatch.setattr(repcore, "_fractions", lambda *a: calls.append(a) or convert(*a))
    exact.rows_of("X2")
    exact.generator("Y3")
    assert calls == [exact.held[3], exact.held[7]]


@pytest.mark.parametrize("algebra", [1, None, ["x"], {"name": "sl(2,C)"}, True])
def test_rep_json_with_a_non_string_algebra_is_a_domain_error(algebra):
    with pytest.raises(DomainError, match="algebra"):
        rep_from_json({**SL2_2, "algebra": algebra})


# --- the Gelfand-Tsetlin builder against the rules it replaced: the weights as
# slice sums of every row, and the matrices as (num, den) pair rows put over their
# lcm by rowcore._over_lcm; the (rows, D) pairs must match exactly, so that D
# stays the least common denominator

def _gelfand_tsetlin_oracle(top):
    """(weights, H, X, Y) of the sl(n) irreducible with highest weight top, by the slice-sum
    weight rule and _over_lcm of (num, den) pair rows."""
    n = len(top)
    start = [(n * (n + 1) - k * (k + 1)) // 2 for k in range(n + 1)]
    rows = [slice(start[k], start[k] + k) for k in range(n + 1)]
    patterns = [tuple(x - i for i, x in enumerate(top))]
    for k in range(n - 1, 0, -1):
        a = start[k + 1]
        patterns = [p + row for p in patterns for row in itertools.product(
            *(range(p[a + i], p[a + i + 1], -1) for i in range(k)))]
    sums = ([sum(p[r]) for r in rows] for p in patterns)
    weights = [tuple(2 * s[k] - s[k - 1] - s[k + 1] - 1 for k in range(1, n)) for s in sums]
    index = {p: j for j, p in enumerate(patterns)}
    H, X, Y = ([[{} for _ in patterns] for _ in range(n - 1)] for _ in range(3))
    for j, (p, w) in enumerate(zip(patterns, weights)):
        for k in range(1, n):
            if w[k - 1]:
                H[k - 1][j][j] = w[k - 1]
            for c in range(start[k], start[k] + k):
                if (i := index.get(p[:c] + (p[c] + 1,) + p[c + 1:])) is not None:
                    l = p[c]
                    others = [t for t in p[rows[k]] if t != l]
                    X[k - 1][i][j] = (-math.prod(l - t for t in p[rows[k + 1]]),
                                      math.prod(l - t for t in others))
                    Y[k - 1][j][i] = (math.prod(l + 1 - t for t in p[rows[k - 1]]),
                                      math.prod(l + 1 - t for t in others))
    return (weights, [(g, 1) for g in H], [rowcore._over_lcm(g) for g in X],
            [rowcore._over_lcm(g) for g in Y])


GT_TOPS = ([(m, 0) for m in range(13)]
           + [(m1 + m2, m2, 0) for m1 in range(7) for m2 in range(7 - m1)] + TOPS4)


@pytest.mark.parametrize("top", GT_TOPS)
def test_gelfand_tsetlin_matches_the_slice_sum_and_over_lcm_rules(top):
    weights, matrices = _gelfand_tsetlin(top)
    H, X, Y = matrices()
    assert (weights, H, X, Y) == _gelfand_tsetlin_oracle(top)
    assert all(type(D) is int and D > 0 for _, D in X + Y)


def test_put_over_lcm_rescales_when_the_denominator_grows():
    rows, D = [{}, {}], 1
    for i, j, a, b in [(0, 0, 3, 1), (0, 1, 1, -2), (1, 0, 4, 6), (1, 1, -6, 9)]:
        D = repcore._put_over_lcm(rows, D, i, j, a, b)
    # 3, -1/2, 2/3 and -2/3 over their lcm 6, though 6 and 9 are not reduced
    assert (rows, D) == ([{0: 18, 1: -3}, {0: 4, 1: -4}], 6)
    assert (rows, D) == rowcore._over_lcm([{0: (3, 1), 1: (1, -2)}, {0: (4, 6), 1: (-6, 9)}])


# --- constructions refuse weights of different shapes

def _sl2_irrep_with_tuple_weights(m):
    obj = rep_to_json(sl2_irrep(m))
    obj["weights"] = {i: [w] for i, w in obj["weights"].items()}
    return rep_from_json(obj)


def test_constructions_refuse_weights_of_different_shapes():
    b = _sl2_irrep_with_tuple_weights(1)
    assert b.weights == {0: (1,), 1: (-1,)}
    short = rep_to_json(sl3_standard_rep())  # weights of length 1 where sl(3)'s have length 2
    short["weights"] = {"0": [1], "1": [-1], "2": [0]}
    short = rep_from_json(short)
    for build in (lambda: tensor_product(b, sl2_irrep(1)),
                  lambda: tensor_product(sl2_irrep(1), b),
                  lambda: direct_sum(b, sl2_irrep(1)),
                  lambda: direct_sum(sl3_standard_rep(), short)):
        with pytest.raises(DomainError, match="shape"):
            build()
    # tuple weights of one length combine entrywise
    assert tensor_product(b, b).weights == {0: (2,), 1: (0,), 2: (0,), 3: (-2,)}
    assert dual(b).weights == {0: (-1,), 1: (1,)}


# --- the splicing JSON writer against json.dumps of the JSON object

def _dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("rows, D, cols", [
    ([{0: -12, 2: 345}, {1: -6789}], 1, 3),  # D = 1, negative multi-digit entries
    ([{0: 0, 1: 4}, {1: 0}], 6, 2),  # stored zeros (a from_rows (rows, D) pair can hold one)
    ([{0: 6, 1: 5}, {0: -12, 1: -7}], 6, 2),  # gcd(x, D) = D and gcd(x, D) = 1
    ([{0: 1}, {}, {2: -3}], 4, 3),  # a nonzero in the first cell and in the last cell
    ([{0: 7}], 2, 1), ([{}], 5, 1), ([{0: -2}], 1, 1),  # 1 x 1
    ([{}, {}], 3, 2), ([], 1, 0), ([{}], 1, 0),  # all empty
    ([{3: 2, 0: -1, 2: 5}, {1: 9, 0: 3}], 10, 4),  # columns inserted out of order
])
def test_rows_to_text_is_the_json_dumps_of_rows_to_json(rows, D, cols):
    assert rowcore._rows_to_text(rows, D, cols) == _dumps(rowcore._rows_to_json(rows, D, cols))


def test_rows_to_text_of_v40_is_the_json_dumps_of_rows_to_json():
    rep = sl2_irrep(40)
    assert rep.dim == 41
    for rows, D in rep.held:
        text = rowcore._rows_to_text(rows, D, rep.dim)
        assert text == _dumps(rowcore._rows_to_json(rows, D, rep.dim))
        assert json.loads(text)["num"] == [rows[i].get(j, 0) for i in range(41) for j in range(41)]


def _refusals():
    """(from_rows arguments, error) of malformed representations of sl2_irrep(1)."""
    r = sl2_irrep(1)
    rows = list(r.rows)
    return [
        (("sl(2,C)", (), []), ShapeError),  # no generator
        (("sl(2,C)", ("H", "H", "Y"), rows), DomainError),  # a repeated label
        (("sl(2,C)", ("H", "X"), rows), ShapeError),  # a label short
        ((r.algebra, r.labels, [rows[0], rows[1], rows[2][:1]]), ShapeError),  # a row short
        ((r.algebra, r.labels, [rows[0], rows[1], [{}, {2: Fraction(1)}]]), ShapeError),  # a column
        ((r.algebra, r.labels, [[{}] * 0] * 3), ShapeError),  # empty generators
        ((r.algebra, r.labels, rows, {0: 1}), ShapeError),  # weights short of the basis
        ((r.algebra, r.labels, rows, {0: 1, 1: -1, 2: 0}), ShapeError),  # weights beyond it
        ((r.algebra, r.labels, rows, {"0": 1, "1": -1}), ShapeError),  # keys not indices
        ((r.algebra, r.labels, rows, [1, -1]), ShapeError),  # weights with no keys
    ]


@pytest.mark.parametrize("case", range(len(_refusals())))
def test_untrusted_from_rows_refuses_what_the_constructor_refuses(case):
    args, error = _refusals()[case]
    with pytest.raises(error):
        Representation.from_rows(*args)
    dense = [repcore.matcore._dense(N, (len(N), max([len(N), *(c + 1 for r in N for c in r)])))
             for N in args[2]]  # the same generators as arrays, each as wide as it reaches
    with pytest.raises(error):
        Representation(*args[:2], dense, *args[3:])


def test_weights_must_cover_the_basis():
    # a partial weights dict gave a tensor product of dim 4 and two weights, whose JSON
    # rep_from_json refused
    r = sl2_irrep(1)
    with pytest.raises(ShapeError, match="basis indices"):
        Representation(r.algebra, r.labels, r.generators, {0: 1})
    with pytest.raises(ShapeError, match="basis indices"):
        Representation.from_rows(r.algebra, r.labels, r.rows, {0: 1})
    with pytest.raises(ShapeError, match="basis indices"):
        rep_from_json({**rep_to_json(r), "weights": {"0": 1}})
    full = Representation(r.algebra, r.labels, r.generators, {0: 1, 1: -1})
    assert tensor_product(full, r).dim == 4 and tensor_product(full, full).weights == {
        0: 2, 1: 0, 2: 0, 3: -2}


def test_rep_from_json_checks_shapes_once(monkeypatch):
    calls, check = [], repcore._check_shapes
    monkeypatch.setattr(repcore, "_check_shapes", lambda *a: calls.append(a) or check(*a))
    rep = rep_from_json(rep_to_json(sl2_irrep(3)))
    assert len(calls) == 1 and rep.dim == 4 and verify_relations(rep, sl2_basis_rational())
