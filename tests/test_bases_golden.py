"""The built-in bases and `ad --basis` pinned as text.

tests/golden/bases.json maps each public basis builder (su2, so3, sl2,
sl2_rational, heis, sl3, gl_basis(1..4)), `weyl_elements()` and
`sl3_standard_rep()` to its algebra, labels, entry kind and entries as
strings, and `ad --basis B` for every CLI basis B, once with an exact X and
once with a floating X, to its exit code and stdout.  A complex entry is
written by str(complex(x)), so the sign of a zero part shows too; the kind
is the dtype, or the entry types of an object array.  The file was written
by `PYTHONPATH=src python tests/test_bases_golden.py`.
"""

import contextlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

from matrixlie import liealg, repsl3
from matrixlie.cli import main

GOLDEN = Path(__file__).parent / "golden" / "bases.json"

BUILDERS = {
    "su2": liealg.su2_basis, "so3": liealg.so3_basis, "sl2": liealg.sl2_basis,
    "sl2_rational": liealg.sl2_basis_rational, "heis": liealg.heis_basis,
    "sl3": repsl3.sl3_basis, **{f"gl{n}": lambda n=n: liealg.gl_basis(n) for n in range(1, 5)},
}

# X in the span of each CLI basis, with entries that are not all integers
AD_X = {
    "su2": [[Fraction(1, 2), 2], [-3, Fraction(-1, 2)]],
    "sl2": [[Fraction(1, 2), 2], [-3, Fraction(-1, 2)]],
    "so3": [[0, Fraction(1, 2), 2], [Fraction(-1, 2), 0, 3], [-2, -3, 0]],
    "heis": [[0, Fraction(1, 2), 2], [0, 0, 3], [0, 0, 0]],
    "sl3": [[Fraction(1, 2), 2, 0], [3, -1, 1], [0, -1, Fraction(1, 2)]],
    "gl2": [[Fraction(1, 2), 2], [3, 1]],
    "gl3": [[Fraction(1, 2), 2, 0], [3, 1, 1], [0, -1, 2]],
}


def _matrix(M) -> dict:
    """The entry kind and the entries of a dense matrix as strings."""
    if M.dtype == object:
        kind = "+".join(sorted({type(x).__name__ for x in M.flat}))
        return {"kind": kind, "entries": [[str(x) for x in row] for row in M.tolist()]}
    return {"kind": M.dtype.name,
            "entries": [[str(complex(x)) for x in row] for row in M.tolist()]}


def _basis(b) -> dict:
    return {"algebra": b.algebra, "labels": list(b.labels),
            "elements": list(map(_matrix, b.elements))}


def _ad_json(X, exact: bool) -> str:
    flat, obj = [Fraction(x) for row in X for x in row], {"rows": len(X), "cols": len(X)}
    if exact:
        return json.dumps({**obj, "num": [x.numerator for x in flat],
                           "den": [x.denominator for x in flat]})
    return json.dumps({**obj, "re": list(map(float, flat))})


def _cli(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return {"code": code, "stdout": out.getvalue()}


def pins() -> dict:
    out = {name: _basis(build()) for name, build in BUILDERS.items()}
    out["weyl_elements"] = [{"index": w.index, "matrix": _matrix(w.matrix)}
                            for w in repsl3.weyl_elements()]
    rep = repsl3.sl3_standard_rep()
    out["sl3_standard_rep"] = {"algebra": rep.algebra, "labels": list(rep.labels),
                               "generators": list(map(_matrix, rep.generators)),
                               "weights": {str(k): list(w) for k, w in rep.weights.items()}}
    for name, X in AD_X.items():
        for exact in (True, False):
            out[f"ad {name} {'exact' if exact else 'floating'}"] = _cli(
                ["ad", "--basis", name, _ad_json(X, exact)])
    return out


def test_bases_and_ad_are_pinned():
    want = json.loads(GOLDEN.read_text())
    got = pins()
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name] == want[name], name


def test_ad_output_kind_follows_the_basis():
    # an exact X gives an exact ad only in an exact basis (sl3); a floating X never does
    want = json.loads(GOLDEN.read_text())
    exact = {name for name in AD_X if '"num"' in want[f"ad {name} exact"]["stdout"]}
    assert exact == {"sl3"}
    assert not any('"num"' in want[f"ad {name} floating"]["stdout"] for name in AD_X)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(pins(), indent=1, sort_keys=True) + "\n")
    sys.exit(0)
