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
