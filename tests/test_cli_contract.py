"""Property tests of the CLI contract.

Whatever the arguments, a command exits 0, 1 or 2 and prints JSON unless it
is a usage error.  For `member` and `algebra`, a name outside the grammar
table is a value error; the representation commands (`rep sl2`, `rep sl3`,
`cg`, `dim sl3`, `decompose sl2`) answer each malformed input with its
typed error.
"""

import contextlib
import io
import json
import re

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


@st.composite
def matrices(draw):
    rows = draw(st.integers(0, 6))
    cols = rows if draw(st.integers(0, 3)) else draw(st.integers(0, 6))
    entry = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    obj = {"rows": rows, "cols": cols, "re": draw(st.lists(entry, min_size=rows * cols,
                                                          max_size=rows * cols))}
    if draw(st.booleans()):
        obj["im"] = draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols))
    return json.dumps(obj)


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
    if code == 2:  # usage error: argparse reports on stderr
        assert stdout == ""
        return
    out = json.loads(stdout)
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
    out = json.loads(stdout)
    obj = json.loads(matrix)
    square = obj["rows"] == obj["cols"] == BASIS_DIM[basis]
    if code == 0:
        assert square and out["rows"] == out["cols"] == BASIS_LEN[basis]
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
    out = json.loads(stdout)
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
    out = json.loads(stdout)
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
    return code, json.loads(stdout)


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
        assert out["error"] in ("value", "error")


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
    case = draw(st.sampled_from(["valid", "floating", "no_generators", "mixed_shapes",
                                 "non_square", "label_count", "weights_list", "entry"]))
    kind = "shape"
    if case == "valid":
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
