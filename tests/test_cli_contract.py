"""Property tests of the CLI contract.

Whatever the arguments, a command exits 0, 1 or 2 and prints strict JSON
(no Infinity or NaN) unless it is a usage error.  Floating matrices have
entries in [-1e3, 1e3] or near the float range, where a result may
overflow: that is a domain error.  For `member` and `algebra`, a name
outside the grammar table is a value error; the representation commands
(`rep sl2`, `rep sl3`, `cg`, `dim sl3`, `decompose sl2`) answer each
malformed input with its typed error.  `exp`, `log` and `polar`, also under `--tol-abs 0`, fail with
a shape error exactly when the input is not a nonempty square, and `bch
--form series` rejects an order outside 1..3 as a value error.  `heislog`
returns N - N^2/2 exactly for a rational unit upper triangular A = I + N and
a typed error for anything else; `bracket` on rational, floating and mixed
inputs is exact when both inputs are rational and floating otherwise; and
`su2so3` maps members of SU(2) and SO(3) to a rotation and a lift in SU(2)
and rejects a member moved by 1e-3 as a domain error.
"""

import contextlib
import io
import json
import re
from fractions import Fraction

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from matrixlie.cli import main  # noqa: E402
from matrixlie.repcore import direct_sum, rep_to_json  # noqa: E402
from matrixlie.repsl2 import sl2_irrep  # noqa: E402

# group token -> accepted argument shapes; the algebra token is the
# lowercased group token, and O has none
TABLE = {
    "GL": {"n", "nR", "nC"},
    "SL": {"n", "nR", "nC"},
    "U": {"n"},
    "SU": {"n"},
    "E": {"n"},
    "O": {"n", "nR", "nC", "nk"},
    "SO": {"n", "nR", "nC", "nk"},
    "Sp": {"n", "nR", "nC"},
    "P": {"nk"},
    "Heis": {""},
}
TOKENS = sorted(TABLE) + sorted(t.lower() for t in TABLE) + ["XO", "Sl", "SP", "hEis"]


def in_table(name: str, group: bool) -> bool:
    m = re.fullmatch(r"([A-Za-z]+)(?:\(([0-9]+)(?:,([0-9]+|R|C))?\))?", name)
    if not m:
        return False
    token, n, arg = m.groups()
    if not group:
        token = {t.lower(): t for t in TABLE if t != "O"}.get(token)
    if token not in TABLE:
        return False
    if n is None:
        return "" in TABLE[token]
    if n != str(int(n)) or int(n) < 1:
        return False
    if arg is None:
        return "n" in TABLE[token]
    if arg in ("R", "C"):
        return "n" + arg in TABLE[token]
    return arg == str(int(arg)) and int(arg) >= 1 and "nk" in TABLE[token]


@st.composite
def names(draw, group):
    token = draw(st.sampled_from(sorted(TABLE)))
    shapes = sorted(TABLE[token]) if draw(st.booleans()) else ["", "n", "nR", "nk", "nkC"]
    shape = draw(st.sampled_from(shapes))
    if draw(st.integers(0, 3)) == 0:
        token = draw(st.sampled_from(TOKENS))
    elif not group:
        token = token.lower()
    args = [str(draw(st.integers(0, 4)))]
    args += [str(draw(st.integers(0, 2))) if c == "k" else c for c in shape[1:]]
    name = f"{token}({','.join(args)})" if shape else token
    if draw(st.integers(0, 3)) == 0:
        junk = draw(st.text(alphabet="(),RC01 -xé\n", min_size=1, max_size=3))
        at = draw(st.integers(0, len(name)))
        name = name[:at] + junk + name[at:]
    return name


# entries near the float range, where products and sums overflow, and a
# subnormal one
NEAR_MAX = st.one_of(st.sampled_from([1e308, -1e308, 1.7e308, -1.7e308, 3e300, 1e-308]),
                     st.floats(1e300, 1.7e308), st.floats(-1.7e308, -1e300))


@st.composite
def matrices(draw):
    rows = draw(st.integers(0, 6))
    cols = rows if draw(st.integers(0, 3)) else draw(st.integers(0, 6))
    entry = st.one_of(st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False), NEAR_MAX)
    obj = {"rows": rows, "cols": cols, "re": draw(st.lists(entry, min_size=rows * cols,
                                                          max_size=rows * cols))}
    if draw(st.booleans()):
        obj["im"] = draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols))
    return json.dumps(obj)


def _no_constant(name):
    raise AssertionError(f"stdout is not strict JSON: it holds {name}")


def strict_json(text):
    """Parse stdout, which must be strict JSON: no Infinity, -Infinity or NaN."""
    return json.loads(text, parse_constant=_no_constant)


def near_max(obj) -> bool:
    """Whether a matrix JSON has an entry beyond the [-1e3, 1e3] draws."""
    return any(abs(x) > 1e3 for x in obj["re"] + obj.get("im", []))


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue()


@pytest.mark.parametrize("cmd,group", [("member", True), ("algebra", False)])
@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data(), matrix=matrices())
def test_member_and_algebra_contract(cmd, group, data, matrix):
    name = data.draw(names(group))
    code, stdout = run_main([cmd, name, matrix])
    assert code in (0, 1, 2)
    if code == 2:  # usage error: reported on stderr, with nothing on stdout
        assert stdout == ""
        return
    out = strict_json(stdout)
    if not in_table(name, group):
        assert out["error"] == "value"
    elif code == 0:
        assert isinstance(out["member"], bool)
    else:
        assert out["error"] == "shape"


BASES = ["gl2", "gl3", "heis", "sl2", "sl3", "so3", "su2"]
BASIS_DIM = {"gl2": 2, "gl3": 3, "heis": 3, "sl2": 2, "sl3": 3, "so3": 3, "su2": 2}
BASIS_LEN = {"gl2": 4, "gl3": 9, "heis": 3, "sl2": 3, "sl3": 8, "so3": 3, "su2": 3}


@settings(derandomize=True, max_examples=150, deadline=None)
@given(basis=st.sampled_from(BASES + ["gl4", "SU2", ""]), matrix=matrices())
def test_ad_contract(basis, matrix):
    code, stdout = run_main(["ad", "--basis", basis, matrix])
    assert code in (0, 1, 2)
    if code == 2:
        assert stdout == "" and basis not in BASES
        return
    out = strict_json(stdout)
    obj = json.loads(matrix)
    square = obj["rows"] == obj["cols"] == BASIS_DIM[basis]
    if code == 0:
        assert square and out["rows"] == out["cols"] == BASIS_LEN[basis]
    elif square and near_max(obj):  # a bracket or a coordinate may overflow
        assert out["error"] in ("closure", "domain")
    else:
        assert out["error"] == ("closure" if square else "shape")


@settings(derandomize=True, max_examples=20, deadline=None)
@given(basis=st.sampled_from(BASES + ["gl4", "sl(3)", ""]))
def test_structconst_contract(basis):
    code, stdout = run_main(["structconst", "--basis", basis])
    assert code in (0, 2)
    if code == 2:
        assert stdout == "" and basis not in BASES
        return
    out = strict_json(stdout)
    d = BASIS_LEN[basis]
    assert len(out["labels"]) == d
    assert [len(row) for plane in out["c"] for row in plane] == [d] * d * d


@st.composite
def small_squares(draw, n):
    entry = st.floats(-0.3, 0.3, allow_nan=False, allow_infinity=False)
    return json.dumps({"rows": n, "cols": n,
                       "re": draw(st.lists(entry, min_size=n * n, max_size=n * n))})


@settings(derandomize=True, max_examples=80, deadline=None)
@given(data=st.data(), q=st.integers(-1, 3))
def test_bch_integral_contract(data, q):
    if data.draw(st.booleans()):
        x, y = data.draw(matrices()), data.draw(matrices())
    else:
        n = data.draw(st.integers(1, 4))
        x, y = data.draw(small_squares(n)), data.draw(small_squares(n))
    code, stdout = run_main(["bch", "--form", "integral", "--quad-points", str(q), x, y])
    assert code in (0, 1, 2)
    if code == 2:
        assert stdout == ""
        return
    out = strict_json(stdout)
    if code == 0:
        assert q >= 1 and out["rows"] == out["cols"] == json.loads(x)["rows"]
    else:
        assert out["error"] in ("shape", "domain", "out_of_domain")


# --- representation commands ---------------------------------------------------

INTS = st.one_of(st.integers(-3, 10), st.sampled_from(["x", "1.5", ""]))


def contract(argv):
    """Run argv; check exit code and JSON stdout; return (code, parsed stdout)."""
    code, stdout = run_main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert stdout == ""
        return code, None
    return code, strict_json(stdout)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(m=INTS, model=st.sampled_from(["abstract", "poly", "other"]))
def test_rep_sl2_contract(m, model):
    code, out = contract(["rep", "sl2", str(m), "--model", model])
    if code == 0:
        assert out["dim"] == int(m) + 1 and len(out["generators"]) == 3
    elif code == 1:
        assert int(m) < 0 and out["error"] == "value"


@settings(derandomize=True, max_examples=60, deadline=None)
@given(cmd=st.sampled_from([["rep", "sl3"], ["dim", "sl3"], ["cg"]]), m1=INTS, m2=INTS)
def test_sl3_and_cg_contract(cmd, m1, m2):
    code, out = contract([*cmd, str(m1), str(m2)])
    if code == 0:
        a, b = int(m1), int(m2)
        assert min(a, b) >= 0
        if cmd == ["cg"]:
            assert sum(s + 1 for s in out["summands"]) == (a + 1) * (b + 1)
        else:
            want = (a + 1) * (b + 1) * (a + b + 2) // 2
            assert (out["dim"] if cmd == ["rep", "sl3"] else out) == want
    elif code == 1:
        assert out["error"] in ("value", "domain")  # a negative m, or m1 + m2 past the cap


def _zero_json(rows, cols):
    return {"rows": rows, "cols": cols, "num": [0] * (rows * cols), "den": [1] * (rows * cols)}


@st.composite
def decompose_inputs(draw):
    """The JSON of a direct sum of sl(2) irreducibles, maybe made malformed,
    and the error kind it must give (None: it decomposes; "any": any kind)."""
    ms = draw(st.lists(st.integers(0, 4), min_size=1, max_size=3))
    rep = sl2_irrep(ms[0])
    for m in ms[1:]:
        rep = direct_sum(rep, sl2_irrep(m))
    obj, d = rep_to_json(rep), rep.dim
    if draw(st.booleans()):
        del obj["weights"]
    gens = obj["generators"]
    case = draw(st.sampled_from(["valid", "rescaled", "rational", "floating", "no_generators",
                                 "mixed_shapes", "non_square", "label_count", "weights_list",
                                 "entry"]))
    kind = "shape"
    if case == "valid":
        return obj, None, sorted(ms, reverse=True)
    if case == "rescaled":  # every num/den pair of a generator times one k
        for g in gens:
            k = draw(st.sampled_from([-3, -1, 2, 6]))
            g["num"], g["den"] = [k * a for a in g["num"]], [k * b for b in g["den"]]
        return obj, None, sorted(ms, reverse=True)
    if case == "rational":  # T^-1 pi T for a diagonal rational T
        t = [Fraction(draw(st.integers(1, 9)), draw(st.sampled_from([-7, -2, 1, 3, 4])))
             for _ in range(d)]
        for g in gens:
            xs = [Fraction(a, b) * t[k % d] / t[k // d] for k, (a, b) in
                  enumerate(zip(g["num"], g["den"]))]
            g["num"], g["den"] = [x.numerator for x in xs], [x.denominator for x in xs]
        return obj, None, sorted(ms, reverse=True)
    if case == "floating":
        obj["generators"] = [{"rows": d, "cols": d, "re": [n / q for n, q in
                              zip(g["num"], g["den"])]} for g in gens]
        kind = "domain"
    elif case == "no_generators":
        obj["generators"] = []
    elif case == "mixed_shapes":
        gens[draw(st.integers(0, 2))] = _zero_json(d + 1, d + 1)
    elif case == "non_square":
        obj["generators"] = [_zero_json(d, d + draw(st.sampled_from([-1, 1])))] * 3
    elif case == "label_count":
        obj["labels"] = draw(st.sampled_from([["H", "X"], ["H", "X", "Y", "Z"], []]))
    elif case == "weights_list":
        obj["weights"] = [0] * d
        kind = "domain"
    else:  # one entry changed: the relations may or may not still hold
        g = gens[draw(st.integers(0, 2))]
        g["num"][draw(st.integers(0, d * d - 1))] += draw(st.sampled_from([-1, 1, 3]))
        kind = "any"
    return obj, kind, None


@settings(derandomize=True, max_examples=150, deadline=None)
@given(case=decompose_inputs())
def test_decompose_contract(case):
    obj, kind, summands = case
    code, out = contract(["decompose", "sl2", json.dumps(obj)])
    if kind is None:
        assert code == 0 and out == {"summands": summands}
    elif kind == "any":
        assert code == 0 or out["error"] in ("domain", "decomposition")
    else:
        assert code == 1 and out["error"] == kind


# --- exp, log, polar and the closed BCH forms ---------------------------------


@settings(derandomize=True, max_examples=150, deadline=None)
@given(cmd=st.sampled_from(["exp", "log", "polar"]), zero_tol=st.booleans(), matrix=matrices())
def test_exp_log_polar_contract(cmd, zero_tol, matrix):
    code, out = contract([*(["--tol-abs", "0"] if zero_tol else []), cmd, matrix])
    obj = json.loads(matrix)
    square = obj["rows"] == obj["cols"] >= 1
    if code == 0:
        for m in [out["R"], out["H"]] if cmd == "polar" else [out]:
            assert square and m["rows"] == m["cols"] == obj["rows"]
    elif code == 1 and not square:
        assert out["error"] == "shape"
    elif code == 1:  # log's square root has a step limit
        assert out["error"] in ("domain", "out_of_domain", *(["convergence"] * (cmd == "log")))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data(), form=st.sampled_from(["heis", "series"]), order=st.integers(0, 4))
def test_bch_closed_forms_contract(data, form, order):
    if data.draw(st.booleans()):
        x, y = data.draw(matrices()), data.draw(matrices())
    else:
        n = data.draw(st.integers(1, 4))
        x, y = data.draw(small_squares(n)), data.draw(small_squares(n))
    code, out = contract(["bch", "--form", form, "--order", str(order), x, y])
    bad_order = form == "series" and order not in (1, 2, 3)
    if code == 0:
        assert not bad_order and out["rows"] == out["cols"] == json.loads(x)["rows"]
    elif code == 1:
        assert out["error"] in (("value", "shape") if bad_order else ("shape", "domain"))


# --- heislog, bracket and su2so3 -------------------------------------------------


@st.composite
def rationals(draw, n=None):
    """The JSON of a rational matrix: n x n if n is given, else any small shape
    (rows 0 is a shape error), and a zero denominator now and then."""
    rows = n if n is not None else draw(st.integers(0, 4))
    cols = rows if n is not None or draw(st.integers(0, 3)) else draw(st.integers(0, 4))
    size = rows * cols
    num = draw(st.lists(st.integers(-6, 6), min_size=size, max_size=size))
    den = draw(st.lists(st.integers(0 if n is None else 1, 4), min_size=size, max_size=size))
    return {"rows": rows, "cols": cols, "num": num, "den": den}


def decode(obj):
    """A JSON matrix as a nested list of Fractions (rational) or complex numbers."""
    rows, cols = obj["rows"], obj["cols"]
    if "num" in obj:
        flat = [Fraction(a, b) for a, b in zip(obj["num"], obj["den"])]
    else:
        flat = [complex(a, b) for a, b in zip(obj["re"], obj.get("im", [0.0] * len(obj["re"])))]
    return [flat[i * cols : (i + 1) * cols] for i in range(rows)]


def product(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


@st.composite
def heis_inputs(draw):
    """A 3x3 rational unit upper triangular matrix, maybe with one entry on or
    below the diagonal changed; or any rational or floating matrix."""
    case = draw(st.sampled_from(["heis", "broken", "rational", "floating"]))
    if case == "rational":
        return case, draw(rationals())
    if case == "floating":
        return case, json.loads(draw(matrices()))
    obj = draw(rationals(3))
    for i in range(3):
        for j in range(i + 1):
            obj["num"][3 * i + j], obj["den"][3 * i + j] = int(i == j), 1
    if case == "broken":
        k = draw(st.sampled_from([0, 3, 4, 6, 7, 8]))
        obj["num"][k] += draw(st.sampled_from([-1, 1, 2]))
    return case, obj


@settings(derandomize=True, max_examples=150, deadline=None)
@given(case=heis_inputs())
def test_heislog_contract(case):
    kind, obj = case
    code, out = contract(["heislog", json.dumps(obj)])
    if kind == "heis":  # log A = N - N^2/2, exactly
        assert code == 0
        A, L = decode(obj), decode(out)
        assert [L[0][1], L[1][2]] == [A[0][1], A[1][2]]
        assert L[0][2] == A[0][2] - A[0][1] * A[1][2] / 2
        assert [L[i][j] for i in range(3) for j in range(i + 1)] == [0] * 6
    else:
        assert code == 1 and out["error"] in ("domain", "shape")


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_bracket_contract(data):
    n = data.draw(st.integers(1, 3))
    same = data.draw(st.booleans())  # two n x n inputs, or two of any shape
    xs = []
    for _ in range(2):
        if data.draw(st.booleans()):
            xs.append(data.draw(rationals(n) if same else rationals()))
        else:
            xs.append(json.loads(data.draw(small_squares(n) if same else matrices())))
    code, out = contract(["bracket", *map(json.dumps, xs)])
    if code == 1:
        assert out["error"] in ("shape", "domain")
        assert not same
        return
    assert code == 0
    X, Y = map(decode, xs)
    want = [[a - b for a, b in zip(r, s)] for r, s in zip(product(X, Y), product(Y, X))]
    got = decode(out)
    if all("num" in x for x in xs):  # exact in, exact out
        assert "num" in out and got == want
    else:  # a floating input makes the result floating
        assert "num" not in out
        m = max(abs(x) for M in (X, Y) for row in M for x in row)
        err = np.abs(np.array(got, complex) - np.array(want, complex)).max()
        assert err <= 1e-15 * (1 + 2 * len(X) * m * m)  # rounding in 2n products


def _su2(q):
    w, x, y, z = q
    return [[complex(w, z), complex(-y, x)], [complex(y, x), complex(w, -z)]]


def _so3(q):
    w, x, y, z = q
    return [
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ]


@st.composite
def su2so3_inputs(draw):
    """(direction, matrix JSON, kind): a member of SU(2) (fwd) or SO(3)
    (lift) from a unit quaternion, which may lie near rotation angle pi
    (w <= 1e-4), that member with one entry moved by 1e-3 ("off"), or any
    floating matrix ("any")."""
    direction = draw(st.sampled_from(["fwd", "lift"]))
    kind = draw(st.sampled_from(["member", "off", "any"]))
    if kind == "any":
        return direction, draw(matrices()), kind
    q = np.array(draw(st.lists(st.floats(-1, 1), min_size=4, max_size=4)))
    q = q / np.linalg.norm(q) if np.linalg.norm(q) > 0.1 else np.array([1.0, 0.0, 0.0, 0.0])
    if draw(st.booleans()) and np.linalg.norm(q[1:]) > 0.1:  # near angle pi
        w = draw(st.floats(0, 1e-4))
        q = np.concatenate(([w], q[1:] * np.sqrt(1 - w * w) / np.linalg.norm(q[1:])))
    M = np.array(_su2(q) if direction == "fwd" else _so3(q), dtype=complex)
    if kind == "off":
        M[draw(st.integers(0, M.shape[0] - 1)), draw(st.integers(0, M.shape[1] - 1))] += 1e-3
    obj = {"rows": M.shape[0], "cols": M.shape[1], "re": M.real.ravel().tolist()}
    if M.imag.any():
        obj["im"] = M.imag.ravel().tolist()
    return direction, json.dumps(obj), kind


@settings(derandomize=True, max_examples=150, deadline=None)
@given(case=su2so3_inputs())
def test_su2so3_contract(case):
    direction, matrix, kind = case
    code, out = contract(["su2so3", direction, matrix])
    if kind == "off":
        assert code == 1 and out["error"] == "domain"
    if code == 1:
        assert kind != "member" and out["error"] in ("domain", "shape")
        return
    assert code == 0
    if direction == "fwd":  # a rotation: R^T R = I, det R = 1, real
        R = np.array(decode(out), complex)
        assert R.shape == (3, 3) and not R.imag.any()
        assert np.abs(R.T @ R - np.eye(3)).max() <= 1e-12
        assert abs(np.linalg.det(R) - 1) <= 1e-12
    else:  # U in SU(2) with Re trace U >= 0, and the other preimage -U
        U, Um = (np.array(decode(out[k]), complex) for k in ("lift", "negative"))
        assert np.array_equal(Um, -U) and np.trace(U).real >= 0
        assert np.abs(U.conj().T @ U - np.eye(2)).max() <= 1e-12
        assert abs(np.linalg.det(U) - 1) <= 1e-12
