"""Property test of the CLI contract for `member` and `algebra`.

Whatever the name and the matrix, the command exits 0, 1 or 2, prints JSON
unless it is a usage error, and a name outside the grammar table is a
value error.
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
