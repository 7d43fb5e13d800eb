"""Command-line front end.

Matrices are passed inline as JSON ({"rows", "cols", "re"[, "im"]} for
floating, {"rows", "cols", "num", "den"} for exact rational) or as
@path-to-file.  Errors print a machine-readable object
{"error": kind, "detail": text} and exit 1; usage errors exit 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import bch as bchmod
from . import expmlog, groups, liealg, repsl2, repsl3, su2so3
from .errors import LieError
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


def _emit(obj):
    print(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def _emit_matrix(M):
    _emit(matrix_to_json(M))


def _tol(args) -> Tolerance:
    return Tolerance(abs=args.tol_abs, rel=args.tol_rel)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="matrixlie")
    p.add_argument("--tol-abs", type=float, default=1e-9)
    p.add_argument("--tol-rel", type=float, default=1e-9)
    sub = p.add_subparsers(dest="cmd", required=True)

    s = sub.add_parser("exp", help="matrix exponential")
    s.add_argument("matrix")
    s = sub.add_parser("log", help="matrix logarithm (||A - I|| < 1)")
    s.add_argument("matrix")
    s = sub.add_parser("heislog", help="exact log of a Heisenberg matrix")
    s.add_argument("matrix")

    s = sub.add_parser("member", help="group membership")
    s.add_argument("group")
    s.add_argument("matrix")
    s = sub.add_parser("algebra", help="Lie-algebra membership")
    s.add_argument("algebra")
    s.add_argument("matrix")

    s = sub.add_parser("bracket", help="commutator [X, Y]")
    s.add_argument("x")
    s.add_argument("y")
    s = sub.add_parser("ad", help="matrix of ad X in a named basis")
    s.add_argument("--basis", required=True, choices=sorted(_BASES))
    s.add_argument("matrix")
    s = sub.add_parser("structconst", help="structure constants of a named basis")
    s.add_argument("--basis", required=True, choices=sorted(_BASES))

    s = sub.add_parser("bch", help="Baker-Campbell-Hausdorff")
    s.add_argument("--form", required=True, choices=["heis", "series", "integral"])
    s.add_argument("--order", type=int, default=3)
    s.add_argument("--quad-points", type=int, default=64)
    s.add_argument("--terms", type=int, default=30)
    s.add_argument("x")
    s.add_argument("y")

    s = sub.add_parser("su2so3", help="the double cover SU(2) -> SO(3)")
    s.add_argument("direction", choices=["fwd", "lift"])
    s.add_argument("matrix")

    s = sub.add_parser("rep", help="irreducible representation construction")
    rep_sub = s.add_subparsers(dest="which", required=True)
    s2 = rep_sub.add_parser("sl2")
    s2.add_argument("m", type=int)
    s2.add_argument("--model", choices=["abstract", "poly"], default="abstract")
    s3 = rep_sub.add_parser("sl3")
    s3.add_argument("m1", type=int)
    s3.add_argument("m2", type=int)
    s3.add_argument("--weights-csv")

    s = sub.add_parser("decompose", help="decompose a representation")
    dec_sub = s.add_subparsers(dest="which", required=True)
    s2 = dec_sub.add_parser("sl2")
    s2.add_argument("rep", help="representation JSON (rational matrices)")

    s = sub.add_parser("cg", help="decompose tensor of two sl2 irreducibles")
    s.add_argument("m", type=int)
    s.add_argument("n", type=int)

    s = sub.add_parser("dim", help="dimension formula")
    dim_sub = s.add_subparsers(dest="which", required=True)
    s3 = dim_sub.add_parser("sl3")
    s3.add_argument("m1", type=int)
    s3.add_argument("m2", type=int)

    s = sub.add_parser("polar", help="polar decomposition A = RH")
    s.add_argument("matrix")
    return p


def _run(args) -> int:
    tol = _tol(args)
    cmd = args.cmd
    if cmd == "exp":
        _emit_matrix(expmlog.mat_exp(_load_json(args.matrix), tol))
    elif cmd == "log":
        _emit_matrix(expmlog.mat_log(_load_json(args.matrix), tol))
    elif cmd == "heislog":
        _emit_matrix(expmlog.heisenberg_log(_load_json(args.matrix)))
    elif cmd == "member":
        g = groups.parse_group(args.group)  # a bad name is reported before a bad matrix
        _emit({"member": bool(groups.is_member(_load_json(args.matrix), g, tol))})
    elif cmd == "algebra":
        a = liealg.parse_algebra(args.algebra)
        _emit({"member": bool(liealg.in_algebra(_load_json(args.matrix), a, tol))})
    elif cmd == "bracket":
        _emit_matrix(liealg.bracket(_load_json(args.x), _load_json(args.y)))
    elif cmd == "ad":
        basis = _BASES[args.basis]()
        _emit_matrix(liealg.ad_matrix(_load_json(args.matrix), basis))
    elif cmd == "structconst":
        basis = _BASES[args.basis]()
        c = liealg.structure_constants(basis)
        _emit({"labels": list(basis.labels), "c": [[list(map(str, r)) for r in p] for p in c]})
    elif cmd == "bch":
        X = _load_json(args.x)
        Y = _load_json(args.y)
        if args.form == "heis":
            _emit_matrix(bchmod.bch_heisenberg(X, Y))
        elif args.form == "series":
            _emit_matrix(bchmod.bch_series(X, Y, args.order))
        else:
            _emit_matrix(bchmod.bch_integral(X, Y, args.quad_points, args.terms))
    elif cmd == "su2so3":
        M = _load_json(args.matrix)
        if args.direction == "fwd":
            _emit_matrix(su2so3.adjoint_to_so3(M, tol))
        else:
            U, Um = su2so3.so3_lift(M, tol)
            _emit({"lift": matrix_to_json(U), "negative": matrix_to_json(Um)})
    elif cmd == "rep" and args.which == "sl2":
        build = repsl2.sl2_irrep if args.model == "abstract" else repsl2.sl2_poly_irrep
        _emit(rep_to_json(build(args.m)))
    elif cmd == "rep" and args.which == "sl3":
        rep, mult = repsl3.sl3_highest_weight_irrep(args.m1, args.m2)
        if args.weights_csv:
            with open(args.weights_csv, "w") as f:
                f.write(repsl3.weight_table_csv(mult))
        _emit(rep_to_json(rep))
    elif cmd == "decompose":
        _emit({"summands": repsl2.sl2_decompose(_load_json(args.rep, rep_from_json))})
    elif cmd == "cg":
        prod = tensor_product(repsl2.sl2_irrep(args.m), repsl2.sl2_irrep(args.n))
        _emit({"summands": repsl2.sl2_decompose(prod)})
    elif cmd == "dim":
        print(repsl3.sl3_dim_formula(args.m1, args.m2))
    elif cmd == "polar":
        R, H = groups.polar_decompose_sl(_load_json(args.matrix), tol)
        _emit({"R": matrix_to_json(R), "H": matrix_to_json(H)})
    else:
        raise ValueError(f"unhandled command {cmd}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except LieError as e:
        print(json.dumps({"error": e.kind, "detail": str(e)}))
        return 1
    except (ValueError, KeyError, json.JSONDecodeError, OSError) as e:
        print(json.dumps({"error": "value", "detail": str(e)}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
