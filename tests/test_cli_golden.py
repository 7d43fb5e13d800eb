"""Exact CLI commands pinned by the sha256 of their stdout and their exit code.

tests/golden/cli_exact.json maps a name per command to {"sha256", "code"}:
every `cg m n` (0 <= n <= m <= 5), `rep sl2 m` (m <= 6) in both models,
`rep sl3 m1 m2` (m1 + m2 <= 6), `structconst --basis` for every exact basis,
and `decompose sl2` on the fixed JSON reps of DECOMPOSE below.  The file was
written by `PYTHONPATH=src python tests/test_cli_golden.py` before the exact
carrier moved to integer rows; a change of any exact output shows here.
"""

import contextlib
import hashlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

from matrixlie.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli_exact.json"


def _sl2_sum(ms):
    """Integer H, X, Y of V_m1 + V_m2 + ..., abstract basis, and the H weights."""
    d = sum(m + 1 for m in ms)
    H, X, Y = ([[0] * d for _ in range(d)] for _ in range(3))
    off = 0
    for m in ms:
        for k in range(m + 1):
            H[off + k][off + k] = m - 2 * k
            if k:
                X[off + k - 1][off + k] = k * (m - k + 1)
                Y[off + k][off + k - 1] = 1
        off += m + 1
    return [H, X, Y], [H[i][i] for i in range(d)]


def _conjugate(gens, T, Ti):
    """Ti G T for each generator, in Fractions."""
    d = len(T)

    def mul(A, B):
        return [[sum(A[i][k] * B[k][j] for k in range(d)) for j in range(d)] for i in range(d)]

    return [mul(mul(Ti, G), T) for G in gens]


def _rep_json(gens, weights=None, scale=lambda k: 1):
    """The JSON of the sl(2) rep with these Fraction generators, entry k's
    num and den both multiplied by scale(k)."""
    d = len(gens[0])
    obj = {"algebra": "sl(2,C)", "labels": ["H", "X", "Y"], "dim": d, "generators": [
        {"rows": d, "cols": d,
         "num": [Fraction(x).numerator * scale(k) for k, x in enumerate(sum(G, []))],
         "den": [Fraction(x).denominator * scale(k) for k, x in enumerate(sum(G, []))]}
        for G in gens]}
    if weights is not None:
        obj["weights"] = {str(i): w for i, w in enumerate(weights)}
    return json.dumps(obj, separators=(",", ":"))


def _decompose_inputs():
    gens, weights = _sl2_sum([3, 1, 0])
    d = len(weights)
    diag = [Fraction(k + 1, 2 * k + 3) * (-1) ** k for k in range(d)]
    T = [[diag[i] if i == j else 0 for j in range(d)] for i in range(d)]
    Ti = [[1 / diag[i] if i == j else 0 for j in range(d)] for i in range(d)]
    L = [[int(i == j) + (i == j + 1) for j in range(d)] for i in range(d)]  # unit lower
    U = [[int(i == j) - (j == i + 1) for j in range(d)] for i in range(d)]  # unit upper
    Li = [[(-1) ** (i - j) if i >= j else 0 for j in range(d)] for i in range(d)]
    Ui = [[1 if j >= i else 0 for j in range(d)] for i in range(d)]
    LU = [[sum(L[i][k] * U[k][j] for k in range(d)) for j in range(d)] for i in range(d)]
    LUi = [[sum(Ui[i][k] * Li[k][j] for k in range(d)) for j in range(d)] for i in range(d)]
    broken = [[list(row) for row in G] for G in gens]
    broken[1][0][1] += 1
    return {
        "integer": _rep_json(gens, weights),
        "rational": _rep_json(_conjugate(gens, T, Ti)),
        "unreduced": _rep_json(gens, weights, scale=lambda k: 6 if k % 3 else 4),
        "negative_den": _rep_json(_conjugate(gens, T, Ti), scale=lambda k: -1 - k % 2),
        "non_triangular": _rep_json(_conjugate(gens, LU, LUi), weights),
        "broken": _rep_json(broken, weights),
    }


def commands():
    """name -> argv of every pinned command."""
    out = {}
    for m in range(6):
        for n in range(m + 1):
            out[f"cg {m} {n}"] = ["cg", str(m), str(n)]
    for model in ("abstract", "poly"):
        for m in range(7):
            out[f"rep sl2 {m} {model}"] = ["rep", "sl2", str(m), "--model", model]
    for s in range(7):
        for m1 in range(s + 1):
            out[f"rep sl3 {m1} {s - m1}"] = ["rep", "sl3", str(m1), str(s - m1)]
    for basis in ("gl2", "gl3", "heis", "sl2", "sl3", "so3", "su2"):
        out[f"structconst {basis}"] = ["structconst", "--basis", basis]
    for name, text in _decompose_inputs().items():
        out[f"decompose sl2 {name}"] = ["decompose", "sl2", text]
    return out


def run(argv):
    """{"sha256": of stdout, "code": exit code} of main(argv), run in-process."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return {"sha256": hashlib.sha256(buf.getvalue().encode()).hexdigest(), "code": code}


def digests():
    return {name: run(argv) for name, argv in commands().items()}


def test_exact_cli_output_is_pinned():
    assert digests() == json.loads(GOLDEN.read_text())


def test_the_decompose_inputs_cover_each_case():
    got = {name: json.loads(GOLDEN.read_text())[f"decompose sl2 {name}"]["code"]
           for name in _decompose_inputs()}
    assert got == {"integer": 0, "rational": 0, "unreduced": 0, "negative_den": 0,
                   "non_triangular": 0, "broken": 1}


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
    sys.exit(0)
