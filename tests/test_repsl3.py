from fractions import Fraction

import numpy as np
import pytest

from matrixlie.liealg import ad_matrix, bracket
from matrixlie.matcore import rational_rank, rzeros
from matrixlie.repcore import dual, verify_relations
from matrixlie.repsl3 import (
    is_higher,
    sl3_antifundamental_rep,
    sl3_basis,
    sl3_dim_formula,
    sl3_highest_weight_irrep,
    sl3_roots,
    sl3_standard_rep,
    weight_table_csv,
    weyl_act,
    weyl_elements,
    weyl_invariance_check,
)

BASIS = sl3_basis()
LBL = {name: M for name, M in zip(BASIS.labels, BASIS.elements)}


def eq(A, B):
    return all(p == q for p, q in zip(A.flat, B.flat))


def test_commutation_h_relations():
    H1, H2 = LBL["H1"], LBL["H2"]
    assert eq(bracket(H1, H2), rzeros(3, 3))
    coeffs = {"X1": (2, -1), "X2": (-1, 2), "X3": (1, 1)}
    for name, (c1, c2) in coeffs.items():
        Z = LBL[name]
        assert eq(bracket(H1, Z), c1 * Z)
        assert eq(bracket(H2, Z), c2 * Z)
        Yname = "Y" + name[1]
        W = LBL[Yname]
        assert eq(bracket(H1, W), -c1 * W)
        assert eq(bracket(H2, W), -c2 * W)


def test_commutation_cross_relations():
    assert eq(bracket(LBL["X1"], LBL["X2"]), LBL["X3"])
    assert eq(bracket(LBL["X1"], LBL["Y2"]), rzeros(3, 3))
    assert eq(bracket(LBL["X3"], LBL["Y3"]), LBL["H1"] + LBL["H2"])
    assert eq(bracket(LBL["X1"], LBL["Y1"]), LBL["H1"])
    assert eq(bracket(LBL["X2"], LBL["Y2"]), LBL["H2"])


def test_roots_table():
    want = {
        "X1": (2, -1),
        "X2": (-1, 2),
        "X3": (1, 1),
        "Y1": (-2, 1),
        "Y2": (1, -2),
        "Y3": (-1, -1),
    }
    roots = sl3_roots()
    assert len(roots) == 6
    for r in roots:
        assert want[r.vector_label] == r.weight


def test_roots_verified_against_ad():
    adH1 = ad_matrix(LBL["H1"], BASIS)
    adH2 = ad_matrix(LBL["H2"], BASIS)
    idx = {name: i for i, name in enumerate(BASIS.labels)}
    for r in sl3_roots():
        i = idx[r.vector_label]
        assert adH1[i, i] == r.weight[0]
        assert adH2[i, i] == r.weight[1]


def test_roots_pair_and_simple_decomposition():
    weights = {r.weight for r in sl3_roots()}
    for w in weights:
        assert (-w[0], -w[1]) in weights
    # every root is an integer combination of (2,-1), (-1,2) of uniform sign
    for w in weights:
        a = Fraction(2 * w[0] + w[1], 3)
        b = Fraction(w[0] + 2 * w[1], 3)
        assert a.denominator == 1 and b.denominator == 1
        assert (a >= 0 and b >= 0) or (a <= 0 and b <= 0)


def test_is_higher():
    assert is_higher((1, 1), (-1, 2))
    assert is_higher((1, 1), (2, -1))
    assert is_higher((0, 0), (0, 0))
    assert not is_higher((3, -3), (0, 0))
    assert not is_higher((0, 0), (3, -3))


def test_standard_and_antifundamental():
    std = sl3_standard_rep()
    anti = sl3_antifundamental_rep()
    assert verify_relations(std, BASIS)
    assert verify_relations(anti, BASIS)
    assert sorted(std.weights.values()) == sorted([(1, 0), (-1, 1), (0, -1)])
    assert sorted(anti.weights.values()) == sorted([(-1, 0), (1, -1), (0, 1)])
    top = max(std.weights.values(), key=lambda w: sum(is_higher(w, v) for v in std.weights.values()))
    assert top == (1, 0)
    assert all(is_higher((1, 0), w) for w in std.weights.values())
    assert all(is_higher((0, 1), w) for w in anti.weights.values())


def test_dim_formula():
    assert sl3_dim_formula(0, 0) == 1
    assert sl3_dim_formula(1, 1) == 8
    assert sl3_dim_formula(2, 0) == 6


@pytest.mark.parametrize("m1, m2", [(1.5, 1), (1, 1.0), (True, 0), (0, False), ("1", 1),
                                    (None, 0), (np.array(1), 0), (-1, 0), (0, -2)])
def test_highest_weight_must_be_nonnegative_integers(m1, m2):
    for build in (sl3_highest_weight_irrep, sl3_dim_formula):
        with pytest.raises(ValueError, match="^m1, m2 must be nonnegative integers$"):
            build(m1, m2)


def test_highest_weight_accepts_numpy_integers():
    rep, mult = sl3_highest_weight_irrep(np.int64(2), np.uint8(1))
    want, want_mult = sl3_highest_weight_irrep(2, 1)
    assert rep.held == want.held and rep.weights == want.weights and mult == want_mult
    assert sl3_dim_formula(np.int64(2), np.uint8(1)) == sl3_dim_formula(2, 1) == 15


def test_trivial_rep():
    rep, mult = sl3_highest_weight_irrep(0, 0)
    assert rep.dim == 1 and mult == {(0, 0): 1}


def test_standard_from_construction():
    rep, mult = sl3_highest_weight_irrep(1, 0)
    assert rep.dim == 3
    assert mult == {(1, 0): 1, (-1, 1): 1, (0, -1): 1}


def test_adjoint_rep_multiplicities():
    rep, mult = sl3_highest_weight_irrep(1, 1)
    assert rep.dim == 8
    assert mult[(0, 0)] == 2
    for r in sl3_roots():
        assert mult[r.weight] == 1
    assert verify_relations(rep, BASIS)


def test_dimension_grid():
    grid = [(m1, m2) for m1 in range(4) for m2 in range(4 - m1)] + [(2, 2)]
    dims = []
    for m1, m2 in grid:
        rep, mult = sl3_highest_weight_irrep(m1, m2)
        assert rep.dim == sl3_dim_formula(m1, m2)
        assert sum(mult.values()) == rep.dim
        dims.append(rep.dim)
    assert sorted(dims) == [1, 3, 3, 6, 6, 8, 10, 10, 15, 15, 27]


def test_highest_weight_and_cyclic_conditions():
    for m1, m2 in ((1, 0), (0, 1), (1, 1), (2, 1)):
        rep, mult = sl3_highest_weight_irrep(m1, m2)
        assert mult[(m1, m2)] == 1
        assert all(is_higher((m1, m2), w) for w in mult)
        # the cyclic vector is basis index 0
        assert rep.weights[0] == (m1, m2)
        X1, X2 = rep.generator("X1"), rep.generator("X2")
        H1, H2 = rep.generator("H1"), rep.generator("H2")
        assert all(X1[i, 0] == 0 for i in range(rep.dim))
        assert all(X2[i, 0] == 0 for i in range(rep.dim))
        assert all(H1[i, 0] == (m1 if i == 0 else 0) for i in range(rep.dim))
        assert all(H2[i, 0] == (m2 if i == 0 else 0) for i in range(rep.dim))


def test_root_additivity():
    rep, mult = sl3_highest_weight_irrep(1, 1)
    idx = {name: i for i, name in enumerate(BASIS.labels)}
    roots = {r.vector_label: r.weight for r in sl3_roots()}
    for name, alpha in roots.items():
        G = rep.generator(name)
        for j in range(rep.dim):
            mu = rep.weights[j]
            for i in range(rep.dim):
                if G[i, j] != 0:
                    assert rep.weights[i] == (mu[0] + alpha[0], mu[1] + alpha[1])


def test_irreducibility_proxy():
    rep, _ = sl3_highest_weight_irrep(1, 1)
    d = rep.dim
    for start in (0, 3, 7):
        vecs = [rzeros(d, 1)]
        vecs[0][start, 0] = Fraction(1)
        changed = True
        while changed:
            changed = False
            for g in rep.generators:
                for v in list(vecs):
                    img = g @ v
                    if any(x != 0 for x in img.flat):
                        stacked = np.hstack(vecs + [img])
                        if rational_rank(stacked.T) > len(vecs):
                            vecs.append(img)
                            changed = True
        assert len(vecs) == d


def test_weyl_elements_in_su3():
    from matrixlie.groups import is_member
    from matrixlie.matcore import to_complex

    for w in weyl_elements():
        assert is_member(to_complex(w.matrix), "SU(3)")


def test_weyl_action_table():
    mu = (1, 2)
    acts = weyl_elements()
    assert weyl_act(acts[0], mu) == mu
    assert weyl_act(acts[1], mu) == (-3, 1)
    assert weyl_act(acts[4], mu) == (-2, -1)


def test_weyl_orbit_of_11_is_roots():
    orbit = {weyl_act(w, (1, 1)) for w in weyl_elements()}
    assert orbit == {r.weight for r in sl3_roots()}


def test_weyl_composition_law():
    from matrixlie.liealg import Ad_apply
    from matrixlie.matcore import to_complex

    # composing actions matches acting by the matrix product
    els = weyl_elements()
    mats = [to_complex(w.matrix) for w in els]
    for i in range(6):
        for j in range(6):
            prod = mats[i] @ mats[j]
            k = next(
                n
                for n in range(6)
                if np.allclose(prod, mats[n]) or np.allclose(prod, -mats[n])
            )
            mu = (2, 3)
            assert weyl_act(els[i], weyl_act(els[j], mu)) == weyl_act(els[k], mu)


def test_weyl_invariance_of_constructed_irreps():
    for m1 in range(4):
        for m2 in range(4 - m1):
            _, mult = sl3_highest_weight_irrep(m1, m2)
            assert weyl_invariance_check(mult)
    assert not weyl_invariance_check({(1, 0): 1, (-1, 1): 2, (0, -1): 1})


def test_dual_weights_negate():
    rep, mult = sl3_highest_weight_irrep(2, 0)
    d = dual(rep)
    neg = {}
    for w in d.weights.values():
        neg[w] = neg.get(w, 0) + 1
    assert neg == {(-a, -b): c for (a, b), c in mult.items()}


def test_weight_table_csv_format():
    _, mult = sl3_highest_weight_irrep(1, 0)
    csv = weight_table_csv(mult)
    assert csv == "m1,m2,multiplicity\n1,0,1\n0,-1,1\n-1,1,1\n"


def test_cap_enforced():
    from matrixlie.errors import LieError

    with pytest.raises(LieError):
        sl3_highest_weight_irrep(4, 3)


def gelfand_tsetlin_weights(m1, m2):
    """Weight multiset of the (m1, m2) irreducible from its Gelfand-Tsetlin
    patterns with top row (m1 + m2, m2, 0)."""
    l1, l2, l3 = m1 + m2, m2, 0
    mult = {}
    for mu1 in range(l2, l1 + 1):
        for mu2 in range(l3, l2 + 1):
            for nu in range(mu2, mu1 + 1):
                e = (nu, mu1 + mu2 - nu, l1 + l2 + l3 - mu1 - mu2)
                w = (e[0] - e[1], e[1] - e[2])
                mult[w] = mult.get(w, 0) + 1
    return mult


@pytest.mark.parametrize("m1,m2", [(a, s - a) for s in range(6) for a in range(s + 1)])
def test_highest_weight_irrep_against_gelfand_tsetlin(m1, m2):
    rep, mult = sl3_highest_weight_irrep(m1, m2)
    assert mult == gelfand_tsetlin_weights(m1, m2)
    assert rep.dim == sl3_dim_formula(m1, m2)
    assert rep.weights[0] == (m1, m2)
    assert verify_relations(rep, BASIS)
    for label in ("X1", "X2"):
        assert not any(rep.generator(label)[:, 0])


def tensor_closure_weights(m1, m2):
    """Weight multiset of the paper's construction: the span of
    e1^(x)m1 (x) e3^(x)m2 under Y1, Y2 in std^(x)m1 (x) dual^(x)m2, one
    weight level at a time, with floating-point ranks."""
    N = m1 + m2

    def total(g):
        factors = [g] * m1 + [-g.T] * m2
        out = np.zeros((3**N, 3**N))
        for f in range(N):
            term = np.ones((1, 1))
            for k in range(N):
                term = np.kron(term, factors[k] if k == f else np.eye(3))
            out += term
        return out

    E21, E32 = np.zeros((3, 3)), np.zeros((3, 3))
    E21[1, 0] = E32[2, 1] = 1
    lowering = ((total(E21), (2, -1)), (total(E32), (-1, 2)))
    top = np.zeros((3**N, 1))
    top[int("0" * m1 + "2" * m2 or "0", 3), 0] = 1
    level, mult = {(m1, m2): top}, {}
    while level:
        mult.update({w: V.shape[1] for w, V in level.items()})
        images = {}
        for (w1, w2), V in level.items():
            for Y, (a1, a2) in lowering:
                images.setdefault((w1 - a1, w2 - a2), []).append(Y @ V)
        level = {}
        for w, blocks in images.items():
            U, s, _ = np.linalg.svd(np.hstack(blocks), full_matrices=False)
            r = int((s > 1e-9).sum())
            if r:
                level[w] = U[:, :r]
    return mult


@pytest.mark.parametrize("m1,m2", [(a, s - a) for s in range(7) for a in range(s + 1)])
def test_highest_weight_irrep_against_tensor_closure(m1, m2):
    rep, mult = sl3_highest_weight_irrep(m1, m2)
    for k, label in enumerate(("H1", "H2")):
        H = rep.generator(label)
        want = np.diag([rep.weights[j][k] for j in range(rep.dim)])
        assert (H == want).all()
    counts = {}
    for w in rep.weights.values():
        counts[w] = counts.get(w, 0) + 1
    assert counts == mult == tensor_closure_weights(m1, m2)
