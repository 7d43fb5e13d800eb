"""Seeded inputs and independent oracles for the three workloads.

Everything here runs in the harness process, never in the worker, and
never imports ``matrixlie``: expected answers come from construction,
closed-form rules, numpy and scipy.  Each workload is a list of
*rounds*; a round is a fixed multiset of request kinds whose details
(sizes, entries, order) come from the seed, so every round of every seed
costs about the same and throughput does not depend on where a run ends.

A request is ``Request(kind, call, args, expect)``.  The worker sees only
``call`` and ``args``.  An outcome from the worker is one of

* ``("ok", value)``
* ``("error", [class names of the raised LieError, most derived first], detail)``
* ``("unexpected", text)`` for any other exception.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.linalg as sla

# Relative Frobenius error allowed on every floating result.  It is the
# bound tests/test_acceptance.py pins on floating results assembled from
# exp and log (criterion 05, derivative of exp; criterion 06, BCH integral
# form).  The workloads call the library with its default Tolerance, whose
# comparison tolerance is 1e-9, so results can carry errors near 1e-9.
REL_TOL = 1e-8

# Relative size of the perturbation used to prove each float oracle rejects
# a wrong answer: 100 times REL_TOL.
CORRUPT_REL = 1e-6


@dataclass
class Request:
    kind: str
    call: str  # "<module>.<function>" inside matrixlie, or "cli.main"
    args: tuple
    expect: object


def rel_err(got, want) -> float:
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    if got.shape != want.shape:
        return float("inf")
    scale = np.linalg.norm(want)
    diff = np.linalg.norm(got - want)
    return float(diff / scale) if scale > 0 else float(diff)


# ---------------------------------------------------------------------------
# checking outcomes


def _check_error(outcome, name):
    """An expected typed error: the worker must report a LieError of class name."""
    if outcome[0] == "error" and name in outcome[1]:
        return True, None, ""
    return False, None, f"expected {name}, got {_brief(outcome)}"


def _brief(outcome) -> str:
    text = repr(outcome)
    return text if len(text) < 160 else text[:157] + "..."


def check(req: Request, outcome):
    """(ok, relative error or None, failure detail) for one request."""
    exp = req.expect
    if exp[0] == "error":
        return _check_error(outcome, exp[1])
    if outcome[0] != "ok":
        return False, None, f"expected a result, got {_brief(outcome)}"
    return _CHECKERS[exp[0]](outcome[1], *exp[1:])


def _check_array(got, want):
    e = rel_err(got, want)
    return e <= REL_TOL, e, "" if e <= REL_TOL else f"relative error {e:.3g}"


def _check_pair(got, want1, want2):
    if not (isinstance(got, tuple) and len(got) == 2):
        return False, None, "expected a pair of matrices"
    e = max(rel_err(got[0], want1), rel_err(got[1], want2))
    return e <= REL_TOL, e, "" if e <= REL_TOL else f"relative error {e:.3g}"


def _check_lift(got, U0):
    """so3_lift returns (U, -U) with U = +-U0 and Re trace U >= 0."""
    if not (isinstance(got, tuple) and len(got) == 2):
        return False, None, "expected a pair of matrices"
    U, Um = (np.asarray(g, dtype=complex) for g in got)
    e = min(rel_err(U, U0), rel_err(U, -U0))
    ok = e <= REL_TOL and np.array_equal(Um, -U) and np.trace(U).real >= -REL_TOL
    return ok, e, "" if ok else f"lift error {e:.3g} or wrong sign convention"


def _check_bool(got, want):
    ok = isinstance(got, (bool, np.bool_)) and bool(got) == want
    return ok, None, "" if ok else f"expected {want}, got {got!r}"


def _cli_json(got):
    rc, text = got
    if rc != 0:
        return None, f"exit code {rc}: {text.strip()[:120]}"
    try:
        return json.loads(text), ""
    except json.JSONDecodeError as e:
        return None, f"stdout is not JSON: {e}"


def _check_summands(got, want):
    obj, why = _cli_json(got)
    if obj is None:
        return False, None, why
    ok = obj == {"summands": want}
    return ok, None, "" if ok else f"expected summands {want}, got {obj}"


def _check_structconst(got, labels, consts):
    obj, why = _cli_json(got)
    if obj is None:
        return False, None, why
    if obj.get("labels") != labels:
        return False, None, f"labels {obj.get('labels')} != {labels}"
    try:
        c = [[[Fraction(s) for s in row] for row in plane] for plane in obj["c"]]
    except (KeyError, TypeError, ValueError) as e:
        return False, None, f"malformed structure constants: {e}"
    ok = c == consts
    return ok, None, "" if ok else "structure constants differ from the oracle"


def _check_sl3_rep(got, m1, m2):
    """Dimension by the Weyl formula, weight multiset by counting
    Gelfand-Tsetlin patterns, and the bracket relations in floating point
    against structure constants numpy computes from the 3x3 basis."""
    obj, why = _cli_json(got)
    if obj is None:
        return False, None, why
    try:
        d = int(obj["dim"])
        labels = obj["labels"]
        gens = [_float_matrix(g) for g in obj["generators"]]
        weights = sorted(tuple(w) for w in obj["weights"].values())
    except (KeyError, TypeError, ValueError) as e:
        return False, None, f"malformed representation: {e}"
    if d != sl3_weyl_dim(m1, m2):
        return False, None, f"dim {d} != Weyl dimension {sl3_weyl_dim(m1, m2)}"
    if labels != list(SL3_LABELS):
        return False, None, f"labels {labels}"
    if weights != sorted(sl3_gt_weights(m1, m2)):
        return False, None, "weight multiset differs from the Gelfand-Tsetlin count"
    if any(g.shape != (d, d) for g in gens):
        return False, None, "generator shape"
    if obj["weights"].get("0") != [m1, m2]:
        return False, None, "basis vector 0 does not carry the highest weight"
    c = sl3_float_structure_constants()
    worst = 0.0
    for i in range(8):
        for j in range(i + 1, 8):
            lhs = gens[i] @ gens[j] - gens[j] @ gens[i]
            rhs = sum(c[i, j, k] * gens[k] for k in range(8))
            scale = np.linalg.norm(gens[i]) * np.linalg.norm(gens[j]) + 1.0
            worst = max(worst, float(np.linalg.norm(lhs - rhs)) / scale)
    ok = worst <= REL_TOL
    return ok, None, "" if ok else f"relations fail, residual {worst:.3g}"


def _float_matrix(obj) -> np.ndarray:
    rows, cols = int(obj["rows"]), int(obj["cols"])
    num = np.array(obj["num"], dtype=float)
    den = np.array(obj["den"], dtype=float)
    if num.size != rows * cols or den.size != rows * cols:
        raise ValueError("entry count does not match rows*cols")
    return (num / den).reshape(rows, cols)


_CHECKERS = {
    "array": _check_array,
    "pair": _check_pair,
    "lift": _check_lift,
    "bool": _check_bool,
    "summands": _check_summands,
    "structconst": _check_structconst,
    "sl3rep": _check_sl3_rep,
}


def corrupt(req: Request, outcome):
    """A deliberately wrong version of a correct outcome, which check() must
    reject: a dropped summand, a perturbed matrix, a flipped label, a
    missing typed error."""
    exp = req.expect
    if exp[0] == "error":
        return ("ok", np.zeros((2, 2)))
    value = outcome[1]
    kind = exp[0]
    if kind == "array":
        return ("ok", np.asarray(value) * (1 + CORRUPT_REL))
    if kind in ("pair", "lift"):
        first = np.asarray(value[0]) * (1 + CORRUPT_REL)
        return ("ok", (first, value[1]))
    if kind == "bool":
        return ("ok", not value)
    rc, text = value
    obj = json.loads(text)
    if kind == "summands":
        obj["summands"] = obj["summands"][:-1]
    elif kind == "structconst":
        flat = [(i, j, k) for i, p in enumerate(obj["c"]) for j, r in enumerate(p)
                for k, s in enumerate(r) if s != "0"]
        i, j, k = flat[0]
        obj["c"][i][j][k] = str(2 * Fraction(obj["c"][i][j][k]))
    elif kind == "sl3rep":
        g = obj["generators"][2]  # X1
        nz = next((n for n, x in enumerate(g["num"]) if x != 0), 0)
        g["num"][nz] += g["den"][nz]
    return ("ok", (rc, json.dumps(obj)))


# ---------------------------------------------------------------------------
# sl(3) oracles

SL3_LABELS = ("H1", "H2", "X1", "X2", "X3", "Y1", "Y2", "Y3")


def _unit(n, i, j):
    M = np.zeros((n, n))
    M[i, j] = 1.0
    return M


def sl3_basis_float():
    H1 = np.diag([1.0, -1.0, 0.0])
    H2 = np.diag([0.0, 1.0, -1.0])
    return [H1, H2, _unit(3, 0, 1), _unit(3, 1, 2), _unit(3, 0, 2),
            _unit(3, 1, 0), _unit(3, 2, 1), _unit(3, 2, 0)]


def float_structure_constants(basis) -> np.ndarray:
    """c[i, j, k] with [b_i, b_j] = sum_k c_ijk b_k, by least squares."""
    d = len(basis)
    A = np.column_stack([b.reshape(-1) for b in basis])
    c = np.zeros((d, d, d))
    for i in range(d):
        for j in range(d):
            br = basis[i] @ basis[j] - basis[j] @ basis[i]
            c[i, j], *_ = np.linalg.lstsq(A, br.reshape(-1), rcond=None)
    return c


def sl3_float_structure_constants() -> np.ndarray:
    return float_structure_constants(sl3_basis_float())


def exact_structure_constants(basis) -> list:
    """The constants of an integer basis whose brackets have integer
    coordinates, rounded from the floating solve and checked."""
    c = float_structure_constants(basis)
    r = np.rint(c)
    if np.max(np.abs(c - r)) > 1e-9:
        raise ValueError("structure constants are not integral")
    d = len(basis)
    return [[[Fraction(int(r[i, j, k])) for k in range(d)] for j in range(d)] for i in range(d)]


def sl3_weyl_dim(m1: int, m2: int) -> int:
    return (m1 + 1) * (m2 + 1) * (m1 + m2 + 2) // 2


def sl3_gt_weights(m1: int, m2: int) -> list:
    """Weights of the (m1, m2) irreducible, one per Gelfand-Tsetlin pattern.

    Top row (l1, l2, l3) = (m1 + m2, m2, 0); middle row (u1, u2) and bottom
    entry v interlace.  The gl(3) weight is (v, u1 + u2 - v, l1 + l2 + l3 -
    u1 - u2) and the sl(3) weight is its successive differences.
    """
    l1, l2, l3 = m1 + m2, m2, 0
    out = []
    for u1 in range(l2, l1 + 1):
        for u2 in range(l3, l2 + 1):
            for v in range(u2, u1 + 1):
                w = (v, u1 + u2 - v, l1 + l2 + l3 - u1 - u2)
                out.append((w[0] - w[1], w[1] - w[2]))
    return out


# ---------------------------------------------------------------------------
# exact-reps


def _sl2_irrep_int(m: int):
    """H, X, Y of the (m+1)-dimensional irreducible as integer lists, in
    the abstract basis documented in repsl2."""
    d = m + 1
    H = [[0] * d for _ in range(d)]
    X = [[0] * d for _ in range(d)]
    Y = [[0] * d for _ in range(d)]
    for k in range(d):
        H[k][k] = m - 2 * k
        if k + 1 <= m:
            Y[k + 1][k] = 1
        if k >= 1:
            X[k - 1][k] = k * m - k * (k - 1)
    return [H, X, Y]


def _direct_sum_int(ms):
    d = sum(m + 1 for m in ms)
    gens = [[[0] * d for _ in range(d)] for _ in range(3)]
    off = 0
    for m in ms:
        for G, g in zip(gens, _sl2_irrep_int(m)):
            for i in range(m + 1):
                G[off + i][off : off + m + 1] = g[i]
        off += m + 1
    return gens


def _matmul_int(A, B):
    Bt = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col)) for col in Bt] for row in A]


def _conjugate_unit_triangular(gens, rng):
    """T^-1 G T for a unit upper bidiagonal T with seeded +-1 entries:
    dense generators with integer entries and no weight annotation."""
    d = len(gens[0])
    sup = [int(x) for x in rng.choice([-1, 1], size=d - 1)]
    T = [[int(i == j) for j in range(d)] for i in range(d)]
    for i in range(d - 1):
        T[i][i + 1] = sup[i]
    Ti = [[0] * d for _ in range(d)]
    for c in range(d):
        for i in range(d - 1, -1, -1):
            Ti[i][c] = int(i == c) - sum(T[i][l] * Ti[l][c] for l in range(i + 1, d))
    return [_matmul_int(_matmul_int(Ti, G), T) for G in gens]


def _rep_json(gens, weights=None) -> str:
    d = len(gens[0])
    obj = {
        "algebra": "sl(2,C)",
        "labels": ["H", "X", "Y"],
        "dim": d,
        "generators": [
            {"rows": d, "cols": d, "num": [x for row in G for x in row], "den": [1] * (d * d)}
            for G in gens
        ],
    }
    if weights is not None:
        obj["weights"] = {str(i): w for i, w in enumerate(weights)}
    return json.dumps(obj, separators=(",", ":"))


def _decompose_summands(rng, d):
    """2 to 4 highest weights m_i <= 8 with total dimension sum(m_i + 1) = d."""
    while True:
        k = int(rng.integers(2, 5))
        cuts = np.sort(rng.choice(np.arange(1, d), size=k - 1, replace=False))
        ms = [int(b - a) - 1 for a, b in zip([0, *cuts], [*cuts, d])]
        if max(ms) <= 8:
            return ms


def _gl3_basis_float():
    return [_unit(3, i, j) for i in range(3) for j in range(3)]


# (dimension, dense) of the decompose inputs in one round.  Dense inputs
# cost far more per dimension.  Every slot costs more than the 23rd-cheapest
# fixed request (about 80 ms), so the round's median latency falls among
# fixed requests and does not move with the seed.
DECOMPOSE_SLOTS = [(16, False), (18, False), (20, False), (24, False),
                   (10, True), (12, True), (14, True), (16, True)]


def exact_reps_round(rng) -> list:
    """Every cg m n (0 <= n <= m <= 5), every rep sl3 m1 m2 (m1 + m2 <= 4),
    structconst for sl3 and gl3, and the decompose inputs of
    DECOMPOSE_SLOTS; shuffled."""
    reqs = []
    for m in range(6):
        for n in range(m + 1):
            want = list(range(m + n, m - n - 1, -2))
            reqs.append(Request("cg", "cli.main", (["cg", str(m), str(n)],), ("summands", want)))
    for s in range(5):
        for m1 in range(s + 1):
            m2 = s - m1
            reqs.append(Request("rep_sl3", "cli.main", (["rep", "sl3", str(m1), str(m2)],),
                                ("sl3rep", m1, m2)))
    gl3_labels = [f"E{i + 1}{j + 1}" for i in range(3) for j in range(3)]
    for name, labels, basis in (("sl3", list(SL3_LABELS), sl3_basis_float()),
                                ("gl3", gl3_labels, _gl3_basis_float())):
        consts = exact_structure_constants(basis)
        reqs.append(Request("structconst", "cli.main", (["structconst", "--basis", name],),
                            ("structconst", labels, consts)))
    for d, dense in DECOMPOSE_SLOTS:
        ms = _decompose_summands(rng, d)
        gens = _direct_sum_int(ms)
        if dense:
            text = _rep_json(_conjugate_unit_triangular(gens, rng))
        else:
            text = _rep_json(gens, [m - 2 * k for m in ms for k in range(m + 1)])
        reqs.append(Request("decompose_dense" if dense else "decompose_sparse", "cli.main",
                            (["decompose", "sl2", text],), ("summands", sorted(ms, reverse=True))))
    rng.shuffle(reqs)
    return reqs


# ---------------------------------------------------------------------------
# float-small


def _crandn(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _with_norm(M, norm):
    return M * (norm / np.linalg.norm(M))


def _skew(M):
    return M - M.T


def _metric(n, k):
    return np.diag([1.0] * n + [-1.0] * k)


def _symplectic_J(n):
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = np.eye(n)
    J[n:, :n] = -np.eye(n)
    return J


def _affine(block, rng):
    """[[block, v], [0, 0]] for a random real v."""
    m = block.shape[0]
    X = np.zeros((m + 1, m + 1), dtype=complex)
    X[:m, :m] = block
    X[:m, m] = rng.standard_normal(m) * 0.4
    return X


# random elements of each algebra, built here rather than by the library
def _alg_so3(rng):
    return _skew(rng.standard_normal((3, 3))).astype(complex) * 0.4


def _alg_su2(rng):
    M = _crandn(rng, 2) * 0.4
    M = (M - M.conj().T) / 2
    return M - np.trace(M) / 2 * np.eye(2)


def _alg_u3(rng):
    M = _crandn(rng, 3) * 0.4
    return (M - M.conj().T) / 2


def _alg_sl3r(rng):
    M = rng.standard_normal((3, 3)) * 0.4
    return (M - np.trace(M) / 3 * np.eye(3)).astype(complex)


def _alg_sl2c(rng):
    M = _crandn(rng, 2) * 0.4
    return M - np.trace(M) / 2 * np.eye(2)


def _alg_sp2r(rng):
    S = rng.standard_normal((4, 4)) * 0.4
    return (_symplectic_J(2) @ (S + S.T) / 2).astype(complex)


def _alg_so31(rng):
    return (_metric(3, 1) @ _skew(rng.standard_normal((4, 4)) * 0.4)).astype(complex)


def _alg_heis(rng):
    X = np.zeros((3, 3), dtype=complex)
    X[0, 1], X[0, 2], X[1, 2] = rng.standard_normal(3) * 0.4
    return X


def _alg_e3(rng):
    return _affine(_skew(rng.standard_normal((3, 3)) * 0.4), rng)


def _alg_p31(rng):
    return _affine(_metric(3, 1) @ _skew(rng.standard_normal((4, 4)) * 0.4), rng)


def _alg_gl3r(rng):
    return (rng.standard_normal((3, 3)) * 0.4).astype(complex)


# group name, algebra name, random algebra element
GRAMMAR = [
    ("SO(3)", "so(3)", _alg_so3),
    ("SU(2)", "su(2)", _alg_su2),
    ("U(3)", "u(3)", _alg_u3),
    ("SL(3,R)", "sl(3,R)", _alg_sl3r),
    ("SL(2,C)", "sl(2,C)", _alg_sl2c),
    ("Sp(2,R)", "sp(2,R)", _alg_sp2r),
    ("SO(3,1)", "so(3,1)", _alg_so31),
    ("Heis", "heis", _alg_heis),
    ("E(3)", "e(3)", _alg_e3),
    ("P(3,1)", "p(3,1)", _alg_p31),
    ("GL(3,R)", "gl(3,R)", _alg_gl3r),
]


def _group_nonmember(gname, A):
    # GL(n,R) is open: scaling keeps membership, leaving the reals does not
    return A + 0.01j if gname == "GL(3,R)" else 1.01 * A


def _algebra_nonmember(aname, X, rng):
    P = rng.standard_normal(X.shape) * 0.01
    # gl(n,R) is every real matrix: only an imaginary part leaves it
    return X + 1j * P if aname == "gl(3,R)" else X + P


def _unit_quaternion(rng):
    q = rng.standard_normal(4)
    return q / np.linalg.norm(q)


def _su2_of(q):
    w, x, y, z = q
    return np.array([[w + 1j * z, 1j * x - y], [1j * x + y, w - 1j * z]])


def _so3_of(q):
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ])


def _bch3(X, Y):
    def br(A, B):
        return A @ B - B @ A

    C = br(X, Y)
    return X + Y + C / 2 + (br(X, C) - br(Y, C)) / 12


def _log_uniform(rng, lo, hi):
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def float_small_round(rng) -> list:
    """100 requests: 32 mat_exp, 10 mat_log, 16 is_member, 16 in_algebra,
    5 adjoint_to_so3, 5 so3_lift, 5 polar_decompose_sl, 3 bch_series,
    3 exp_directional_derivative, and 5 inputs outside the documented
    domains (2 mat_log, 1 each of adjoint_to_so3, so3_lift and
    polar_decompose_sl) whose answer is a typed error."""
    reqs = []
    for n in (2, 3, 4, 8):
        for _ in range(8):
            X = _with_norm(_crandn(rng, n), _log_uniform(rng, 0.05, 20.0))
            reqs.append(Request(f"mat_exp_{n}", "expmlog.mat_exp", (X,), ("array", sla.expm(X))))
    for _ in range(10):
        n = int(rng.integers(2, 5))
        A = sla.expm(_with_norm(_crandn(rng, n), rng.uniform(0.01, 0.59)))
        reqs.append(Request("mat_log", "expmlog.mat_log", (A,), ("array", sla.logm(A))))
    for _ in range(2):
        n = int(rng.integers(2, 5))
        A = np.eye(n) + _with_norm(rng.standard_normal((n, n)), rng.uniform(1.1, 3.0))
        reqs.append(Request("mat_log_domain", "expmlog.mat_log", (A,),
                            ("error", "OutOfDomainError")))
    for i in range(16):
        gname, _, alg = GRAMMAR[int(rng.integers(len(GRAMMAR)))]
        A = sla.expm(alg(rng))
        member = i % 2 == 0
        if not member:
            A = _group_nonmember(gname, A)
        reqs.append(Request("is_member", "groups.is_member", (A, gname), ("bool", member)))
    for i in range(16):
        _, aname, alg = GRAMMAR[int(rng.integers(len(GRAMMAR)))]
        X = alg(rng)
        member = i % 2 == 0
        if not member:
            X = _algebra_nonmember(aname, X, rng)
        reqs.append(Request("in_algebra", "liealg.in_algebra", (X, aname), ("bool", member)))
    for _ in range(5):
        q = _unit_quaternion(rng)
        reqs.append(Request("adjoint_to_so3", "su2so3.adjoint_to_so3", (_su2_of(q),),
                            ("array", _so3_of(q))))
    q = _unit_quaternion(rng)
    reqs.append(Request("adjoint_domain", "su2so3.adjoint_to_so3", (1.01 * _su2_of(q),),
                        ("error", "DomainError")))
    for _ in range(5):
        q = _unit_quaternion(rng)
        reqs.append(Request("so3_lift", "su2so3.so3_lift", (_so3_of(q),), ("lift", _su2_of(q))))
    q = _unit_quaternion(rng)
    reqs.append(Request("so3_lift_domain", "su2so3.so3_lift", (1.01 * _so3_of(q),),
                        ("error", "DomainError")))
    for _ in range(5):
        n = int(rng.integers(2, 5))
        A = rng.standard_normal((n, n)) + n * np.eye(n)
        U, P = sla.polar(A, side="right")
        reqs.append(Request("polar", "groups.polar_decompose_sl", (A,), ("pair", U, P)))
    n = int(rng.integers(2, 5))
    A = rng.standard_normal((n, n))
    A[-1] = A[0]
    reqs.append(Request("polar_domain", "groups.polar_decompose_sl", (A,),
                        ("error", "DomainError")))
    for _ in range(3):
        n = int(rng.integers(2, 4))
        X = _with_norm(_crandn(rng, n), rng.uniform(0.05, 0.5))
        Y = _with_norm(_crandn(rng, n), rng.uniform(0.05, 0.5))
        reqs.append(Request("bch_series", "bch.bch_series", (X, Y, 3), ("array", _bch3(X, Y))))
    for _ in range(3):
        n = int(rng.integers(2, 4))
        X = _with_norm(_crandn(rng, n), rng.uniform(0.05, 0.3))
        Y = _with_norm(_crandn(rng, n), rng.uniform(0.05, 0.3))
        want = sla.expm_frechet(X, Y, compute_expm=False)
        reqs.append(Request("exp_derivative", "expmlog.exp_directional_derivative", (X, Y),
                            ("array", want)))
    rng.shuffle(reqs)
    return reqs


# ---------------------------------------------------------------------------
# bch-integral


def _ad(X):
    """Matrix of ad X on gl(n) in the row-major elementary basis."""
    n = X.shape[0]
    I = np.eye(n)
    return np.kron(X, I) - np.kron(I, X.T)


def bch_margin(X, Y, q: int) -> float:
    """max over the 2q+1 Simpson nodes t = k/(2q) of ||e^(ad X) e^(t ad Y) - I||."""
    aX, aY = _ad(X), _ad(Y)
    d = aX.shape[0]
    M = sla.expm(aX)
    step = sla.expm(aY / (2 * q))
    worst = 0.0
    for _ in range(2 * q + 1):
        worst = max(worst, float(np.linalg.norm(M - np.eye(d))))
        M = M @ step
    return worst


def _bch_input(rng, n, q, inside):
    """Real X, Y in gl(n) scaled by bisection so that the domain margin is
    <= 0.9 (inside), or so that ||e^(ad X) - I|| >= 1.1 (outside).  An
    outside input thus already fails at the first node, t = 0, and costs
    the same at every seed: two ad matrices and one exponential."""
    X0 = rng.standard_normal((n, n))
    Y0 = rng.standard_normal((n, n))
    X0 /= np.linalg.norm(X0)
    Y0 /= np.linalg.norm(Y0)
    if inside:
        target = rng.uniform(0.3, 0.85)

        def margin(s):
            return bch_margin(s * X0, s * Y0, q)
    else:
        target = rng.uniform(1.15, 2.0)
        eye = np.eye(n * n)

        def margin(s):
            return float(np.linalg.norm(sla.expm(_ad(s * X0)) - eye))
    lo, hi = 0.0, 1.0
    while margin(hi) < target:
        hi *= 2
    for _ in range(12):
        mid = (lo + hi) / 2
        if margin(mid) < target:
            lo = mid
        else:
            hi = mid
    s = lo if inside else hi
    if not (margin(s) <= 0.9 if inside else margin(s) >= 1.1):
        raise RuntimeError("bisection missed the margin band")
    return s * X0, s * Y0


def bch_integral_round(rng) -> list:
    """For gl(2), gl(3), gl(4) and q in {16, 64}: two inputs inside the
    domain and one outside; 18 requests, shuffled."""
    reqs = []
    for n in (2, 3, 4):
        for q in (16, 64):
            for inside in (True, True, False):
                X, Y = _bch_input(rng, n, q, inside)
                kind = f"bch_gl{n}_q{q}"
                if inside:
                    expect = ("array", sla.logm(sla.expm(X) @ sla.expm(Y)))
                else:
                    kind, expect = f"{kind}_domain", ("error", "OutOfDomainError")
                reqs.append(Request(kind, "bch.bch_integral", (X, Y, q), expect))
    rng.shuffle(reqs)
    return reqs


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    make_round: object
    pool_rounds: int  # distinct rounds generated; the worker cycles through them
    trace_rounds: int  # rounds in one traced pass (fixed, so traces compare)
    tail_percentile: float  # fixed; see bench/README.md


WORKLOADS = {
    "exact-reps": Workload("exact-reps", exact_reps_round, 4, 1, 90.0),
    "float-small": Workload("float-small", float_small_round, 50, 20, 99.0),
    "bch-integral": Workload("bch-integral", bch_integral_round, 12, 2, 90.0),
}


def build(workload: Workload, seed: int, pool_rounds: int | None = None) -> list:
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload.name)])
    n = workload.pool_rounds if pool_rounds is None else pool_rounds
    return [workload.make_round(rng) for _ in range(n)]
