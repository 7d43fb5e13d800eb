"""Command-line front end.

Matrices are passed inline as JSON ({"rows", "cols", "re"[, "im"]} for
floating, {"rows", "cols", "num", "den"} for exact rational) or as
@path-to-file.  Results print as strict JSON.  Errors, a non-finite result
among them, print a machine-readable object {"error": kind, "detail": text}
and exit 1; usage errors exit 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import bch as bchmod
from . import expmlog, groups, liealg, repsl2, repsl3, su2so3
from .errors import DomainError, LieError
from .matcore import Tolerance, matrix_from_json, matrix_to_json
from .repcore import rep_from_json, rep_to_json, tensor_product

_BASES = {
    "su2": liealg.su2_basis,
    "so3": liealg.so3_basis,
    "sl2": liealg.sl2_basis,
    "heis": liealg.heis_basis,
    "sl3": repsl3.sl3_basis,
    "gl2": lambda: liealg.gl_basis(2),
    "gl3": lambda: liealg.gl_basis(3),
}


def _load_json(arg: str, decode=matrix_from_json):
    """Decode an inline JSON argument, or the JSON file named by @path."""
    if arg.startswith("@"):
        with open(arg[1:]) as f:
            return decode(json.load(f))
    return decode(json.loads(arg))


def _emit(out):
    """Print a handler's value as strict JSON, a matrix as matrix_to_json; a
    non-finite float is a DomainError, so stdout never holds inf or nan."""
    try:
        text = json.dumps(out, sort_keys=True, separators=(",", ":"), allow_nan=False,
                          default=matrix_to_json)
    except ValueError:  # json refuses inf and nan
        raise DomainError("the result has a non-finite entry") from None
    print(text)


def _member(a, tol):
    g = groups.parse_group(a.group)  # a bad name is reported before a bad matrix
    return {"member": bool(groups.is_member(_load_json(a.matrix), g, tol))}


def _algebra(a, tol):
    alg = liealg.parse_algebra(a.algebra)
    return {"member": bool(liealg.in_algebra(_load_json(a.matrix), alg, tol))}


def _ad(a, tol):
    return liealg.ad_matrix(_load_json(a.matrix), _BASES[a.basis]())


def _structconst(a, tol):
    basis = _BASES[a.basis]()
    c = liealg.structure_constants(basis)
    return {"labels": list(basis.labels), "c": [[list(map(str, r)) for r in p] for p in c]}


def _bch(a, tol):
    X, Y = _load_json(a.x), _load_json(a.y)
    if a.form == "heis":
        return bchmod.bch_heisenberg(X, Y)
    if a.form == "series":
        return bchmod.bch_series(X, Y, a.order)
    return bchmod.bch_integral(X, Y, a.quad_points, a.terms)


def _su2so3(a, tol):
    M = _load_json(a.matrix)
    if a.direction == "fwd":
        return su2so3.adjoint_to_so3(M, tol)
    U, Um = su2so3.so3_lift(M, tol)
    return {"lift": U, "negative": Um}


def _rep_sl2(a, tol):
    build = repsl2.sl2_irrep if a.model == "abstract" else repsl2.sl2_poly_irrep
    return rep_to_json(build(a.m))


def _rep_sl3(a, tol):
    rep, mult = repsl3.sl3_highest_weight_irrep(a.m1, a.m2)
    if a.weights_csv:
        with open(a.weights_csv, "w") as f:
            f.write(repsl3.weight_table_csv(mult))
    return rep_to_json(rep)


def _cg(a, tol):
    prod = tensor_product(repsl2.sl2_irrep(a.m), repsl2.sl2_irrep(a.n))
    return {"summands": repsl2.sl2_decompose(prod)}


def _polar(a, tol):
    R, H = groups.polar_decompose_sl(_load_json(a.matrix), tol)
    return {"R": R, "H": H}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser.  Each command sets `run`, its handler (args, tol) -> a
    matrix or a JSON value."""
    p = argparse.ArgumentParser(prog="matrixlie")
    p.add_argument("--tol-abs", type=float, default=1e-9)
    p.add_argument("--tol-rel", type=float, default=1e-9)
    sub = p.add_subparsers(dest="cmd", required=True)

    def command(parent, name, run, *args, help=None):
        s = parent.add_parser(name, help=help)
        for arg in args:
            s.add_argument(arg)
        s.set_defaults(run=run)
        return s

    command(sub, "exp", lambda a, tol: expmlog.mat_exp(_load_json(a.matrix), tol), "matrix",
            help="matrix exponential")
    command(sub, "log", lambda a, tol: expmlog.mat_log(_load_json(a.matrix), tol), "matrix",
            help="matrix logarithm (||A - I|| < 1)")
    command(sub, "heislog", lambda a, tol: expmlog.heisenberg_log(_load_json(a.matrix)),
            "matrix", help="exact log of a Heisenberg matrix")
    command(sub, "member", _member, "group", "matrix", help="group membership")
    command(sub, "algebra", _algebra, "algebra", "matrix", help="Lie-algebra membership")
    command(sub, "bracket", lambda a, tol: liealg.bracket(_load_json(a.x), _load_json(a.y)),
            "x", "y", help="commutator [X, Y]")
    s = command(sub, "ad", _ad, "matrix", help="matrix of ad X in a named basis")
    s.add_argument("--basis", required=True, choices=sorted(_BASES))
    s = command(sub, "structconst", _structconst, help="structure constants of a named basis")
    s.add_argument("--basis", required=True, choices=sorted(_BASES))

    s = command(sub, "bch", _bch, help="Baker-Campbell-Hausdorff")
    s.add_argument("--form", required=True, choices=["heis", "series", "integral"])
    s.add_argument("--order", type=int, default=3)
    s.add_argument("--quad-points", type=int, default=64)
    s.add_argument("--terms", type=int, default=30)
    s.add_argument("x")
    s.add_argument("y")

    s = command(sub, "su2so3", _su2so3, help="the double cover SU(2) -> SO(3)")
    s.add_argument("direction", choices=["fwd", "lift"])
    s.add_argument("matrix")

    rep = sub.add_parser("rep", help="irreducible representation construction")
    rep = rep.add_subparsers(dest="which", required=True)
    s = command(rep, "sl2", _rep_sl2)
    s.add_argument("m", type=int)
    s.add_argument("--model", choices=["abstract", "poly"], default="abstract")
    s = command(rep, "sl3", _rep_sl3)
    s.add_argument("m1", type=int)
    s.add_argument("m2", type=int)
    s.add_argument("--weights-csv")

    dec = sub.add_parser("decompose", help="decompose a representation")
    dec = dec.add_subparsers(dest="which", required=True)
    s = command(dec, "sl2", lambda a, tol: {
        "summands": repsl2.sl2_decompose(_load_json(a.rep, rep_from_json))})
    s.add_argument("rep", help="representation JSON (rational matrices)")

    s = command(sub, "cg", _cg, help="decompose tensor of two sl2 irreducibles")
    s.add_argument("m", type=int)
    s.add_argument("n", type=int)

    dim = sub.add_parser("dim", help="dimension formula")
    dim = dim.add_subparsers(dest="which", required=True)
    s = command(dim, "sl3", lambda a, tol: repsl3.sl3_dim_formula(a.m1, a.m2))
    s.add_argument("m1", type=int)
    s.add_argument("m2", type=int)

    command(sub, "polar", _polar, "matrix", help="polar decomposition A = RH")
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _emit(args.run(args, Tolerance(abs=args.tol_abs, rel=args.tol_rel)))
        return 0
    except LieError as e:
        print(json.dumps({"error": e.kind, "detail": str(e)}))
        return 1
    except (ValueError, KeyError, json.JSONDecodeError, OSError) as e:
        print(json.dumps({"error": "value", "detail": str(e)}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
