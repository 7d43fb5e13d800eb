"""Command-line front end.

Matrices are passed inline as JSON ({"rows", "cols", "re"[, "im"]} for
floating, {"rows", "cols", "num", "den"} for exact rational) or as
@path-to-file.  Results print as strict JSON.  Errors, a non-finite result
among them, print a machine-readable object {"error": kind, "detail": text}
and exit 1.  Arguments are read by one command table (_COMMANDS) with
argparse's rules: usage errors go to stderr and exit 2, and -h/--help
prints help from the table and exits 0.
"""

import json
import os
import re
import sys
from types import SimpleNamespace

# modules, not names: each loads when a handler first uses it (see the package)
from . import bch as bchmod
from . import expmlog, groups, liealg, matcore, repcore, repsl2, repsl3, rowcore, su2so3
from .errors import DomainError, LieError


def _load_json(arg: str, decode=None):
    """Decode an inline JSON argument, or the JSON file named by @path (a matrix by default)."""
    decode = decode or matcore.matrix_from_json
    try:
        if arg.startswith("@"):
            with open(arg[1:]) as f:
                return decode(json.load(f))
        return decode(json.loads(arg))
    except RecursionError:  # json recurses once per level of nesting
        raise ValueError("the JSON is nested too deeply") from None


def _emit(out):
    """Print a handler's value as strict JSON, a Representation by _rep_text and
    a matrix as matrix_to_json; a non-finite float is a DomainError."""
    try:
        text = repcore._rep_text(out) if isinstance(out, repcore.Representation) else json.dumps(
            out, sort_keys=True, separators=(",", ":"), allow_nan=False,
            default=lambda M: matcore.matrix_to_json(M))
    except ValueError:  # json refuses inf and nan
        raise DomainError("the result has a non-finite entry") from None
    print(text)


def _structconst(a, tol):
    """The labels and the dense c[i][j][k] of a built-in basis as strings, "0" at each zero."""
    labels = rowcore._BASES[a.basis][1]
    c = [[["0"] * len(labels) for _ in labels] for _ in labels]
    for (i, j), row in rowcore._builtin_constants(a.basis).items():
        for k, x in row.items():
            c[i][j][k], c[j][i][k] = str(x), str(-x)
    return {"labels": list(labels), "c": c}


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


def _rep_sl3(a, tol):
    rep, mult = repsl3.sl3_highest_weight_irrep(a.m1, a.m2)
    if a.weights_csv:
        with open(a.weights_csv, "w") as f:
            f.write(repsl3.weight_table_csv(mult))
    return rep


_S, _I = (str, None, None, True), (int, None, None, True)  # a required str or int
_M, _XY, _M12 = {"matrix": _S}, {"x": _S, "y": _S}, {"m1": _I, "m2": _I}
# the keys of rowcore._BASES, written out: importing this module loads no rowcore
_BASIS = {"basis": (str, None, ("gl2", "gl3", "heis", "sl2", "sl3", "so3", "su2"), True)}
# The command table: each word -> (handler (args, tol) -> a matrix, an exact Representation
# or a JSON value, or else the table of the next word; positionals; options --name; help
# line), where a positional or an option maps its name to (type, default, choices, required).
_COMMANDS = {
    "exp": (lambda a, tol: expmlog.mat_exp(_load_json(a.matrix), tol), _M, {},
            "matrix exponential"),
    "log": (lambda a, tol: expmlog.mat_log(_load_json(a.matrix), tol), _M, {},
            "matrix logarithm (||A - I|| < 1)"),
    "heislog": (lambda a, tol: expmlog.heisenberg_log(_load_json(a.matrix)), _M, {},
                "exact log of a Heisenberg matrix"),
    # keywords in this order: a bad name is reported before a bad matrix
    "member": (lambda a, tol: {"member": bool(groups.is_member(
        g=groups.parse_group(a.group), A=_load_json(a.matrix), tol=tol))},
        {"group": _S, **_M}, {}, "group membership"),
    "algebra": (lambda a, tol: {"member": bool(liealg.in_algebra(
        a=liealg.parse_algebra(a.algebra), X=_load_json(a.matrix), tol=tol))},
        {"algebra": _S, **_M}, {}, "Lie-algebra membership"),
    "bracket": (lambda a, tol: liealg.bracket(_load_json(a.x), _load_json(a.y)), _XY, {},
                "commutator [X, Y]"),
    # in the basis its public builder gives: exact for sl3 (sl3_basis), complex128 for the others
    "ad": (lambda a, tol: liealg.ad_matrix(_load_json(a.matrix), liealg._view(
        rowcore._BASES[a.basis], exact=a.basis == "sl3")), _M, _BASIS,
        "matrix of ad X in a named basis"),
    "structconst": (_structconst, {}, _BASIS, "structure constants of a named basis"),
    "bch": (_bch, _XY, {"form": (str, None, ("heis", "series", "integral"), True),
                        "order": (int, 3, None, False), "quad-points": (int, 64, None, False),
                        "terms": (int, 30, None, False)}, "Baker-Campbell-Hausdorff"),
    "su2so3": (_su2so3, {"direction": (str, None, ("fwd", "lift"), True), **_M}, {},
               "the double cover SU(2) -> SO(3)"),
    "rep": ({"sl2": (lambda a, tol: (repsl2.sl2_irrep if a.model == "abstract"
                                     else repsl2.sl2_poly_irrep)(a.m), {"m": _I},
                     {"model": (str, "abstract", ("abstract", "poly"), False)},
                     "the sl(2) irreducible of dimension m + 1"),
             "sl3": (_rep_sl3, _M12, {"weights-csv": (str, None, None, False)},
                     "the sl(3) irreducible of highest weight (m1, m2)")},
            {}, {}, "irreducible representation construction"),
    "decompose": ({"sl2": (lambda a, tol: {"summands": repsl2.sl2_decompose(
        _load_json(a.rep, repcore.rep_from_json))}, {"rep": _S}, {},
        "of sl(2), given as JSON of rational matrices")}, {}, {}, "decompose a representation"),
    "cg": (lambda a, tol: {"summands": repsl2.sl2_decompose(repcore.tensor_product(
        repsl2.sl2_irrep(a.m), repsl2.sl2_irrep(a.n)))}, {"m": _I, "n": _I}, {},
        "decompose tensor of two sl2 irreducibles"),
    "dim": ({"sl3": (lambda a, tol: repsl3.sl3_dim_formula(a.m1, a.m2), _M12, {},
                     "of the sl(3) irreducible of highest weight (m1, m2)")},
            {}, {}, "dimension formula"),
    "polar": (lambda a, tol: dict(zip("RH", groups.polar_decompose_sl(_load_json(a.matrix), tol))),
              _M, {}, "polar decomposition A = RH"),
}
_ROOT = (_COMMANDS, {}, {"tol-abs": (float, 1e-9, None, False),
                         "tol-rel": (float, 1e-9, None, False)}, "matrix Lie groups and algebras")
_NEGATIVE = r"^-\d+$|^-\d*\.\d+$"  # argparse's negative number, compiled on first use


def _usage(words, node, full=False):
    """The usage line of the command words read so far; in full, the help from the table."""
    subs = node[0] if isinstance(node[0], dict) else {}
    opts = [("--%s %s" if s[3] else "[--%s %s]") % (n, "{%s}" % ",".join(s[2]) if s[2] else
            n.upper()) for n, s in node[2].items()]
    rest = ["{%s} ..." % ",".join(subs)] if subs else node[1]
    lines = [" ".join(["usage: matrixlie", *words, "[-h]", *opts, *rest])]
    if full:
        lines += ["", node[3], *(f"  {w:<14}{s[3]}" for w, s in subs.items())]
        lines += [f"  --{n:<14}" + ("required" if s[3] else f"default {s[1]}")
                  for n, s in node[2].items()]
    return "\n".join(lines)


def _option(token, options):
    """How argparse reads a token where `options` are known: None for a positional,
    (None, None) for an unknown option, else (name, its =value or None).  A prefix of
    two option names, global ones included, is an error anywhere (no name is a prefix
    of another)."""
    if token[:1] != "-" or token == "-":
        return None
    if token[1] == "-":
        head, eq, value = token.partition("=")
        hits = {n for n in ("help", *_ROOT[2], *options) if ("--" + n).startswith(head)}
        if len(hits) > 1:
            raise ValueError(f"ambiguous option: {head} could match --{', --'.join(sorted(hits))}")
        if hits & {"help", *options}:
            return hits.pop(), value if eq else None
    elif token[1] == "h":  # -hh is -h twice
        return "help", token[2:].lstrip("h") or None
    return None if re.match(_NEGATIVE, token) or " " in token else (None, None)


def _value(name, spec, text):
    """A positional's or an option's value, converted and checked as argparse does."""
    try:
        value = spec[0](text)
    except ValueError:
        raise ValueError(f"argument {name}: invalid {spec[0].__name__} value: {text!r}") from None
    if spec[2] and value not in spec[2]:
        raise ValueError(f"argument {name}: invalid choice: {text!r}")
    return value


def _parse(argv):
    """The args of a command line, read by the table in one pass with argparse's rules:
    --opt value, --opt=value or a unique prefix of --opt; a negative number, a token with
    a space and every token after "--" are positionals.  -h/--help prints help and exits
    0; a usage error writes the usage line and why to stderr and exits 2."""
    words, node, todo, unknown, rest, hit, tokens = [], _ROOT, [], [], False, None, iter(argv)
    args = {n: s[1] for n, s in _ROOT[2].items()}
    try:
        for token in tokens:
            if token == "--" and not rest:
                rest = True
                if hit is not None and not todo and callable(node[0]):
                    unknown.append(token)  # argparse leaves a "--" that no positional takes
                continue
            hit = None if rest else _option(token, node[2])
            if hit is None and isinstance(node[0], dict):  # the next command word
                if token not in node[0]:
                    raise ValueError(f"invalid choice: {token!r} (from {', '.join(node[0])})")
                words.append(token)
                node = node[0][token]
                todo = list(node[1].items())
                args.update((n, s[1]) for n, s in node[2].items())
            elif hit is None and todo:
                name, spec = todo.pop(0)
                args[name] = _value(name, spec, token)
            elif hit is None or hit[0] is None:
                unknown.append(token)
            elif hit[0] == "help":
                if hit[1] is not None:
                    raise ValueError(f"argument -h/--help: ignored explicit argument {hit[1]!r}")
                for token in iter(tokens.__next__, "--"):  # argparse reads these before acting
                    _option(token, {})
                print(_usage(words, node, full=True))
                raise SystemExit(0)
            else:
                name, value = hit
                if value is None:
                    value = next(tokens, "--")
                    if value == "--" or _option(value, node[2]) is not None:
                        raise ValueError(f"argument --{name}: expected one argument")
                args[name] = _value("--" + name, node[2][name], value)
        missing = [n for n, _ in todo] + ["--" + n for n, s in node[2].items()
                                          if s[3] and args[n] is None]
        if isinstance(node[0], dict) or missing:
            raise ValueError(f"missing arguments: {', '.join(missing or ['the command'])}")
        if unknown:
            raise ValueError(f"unrecognized arguments: {' '.join(unknown)}")
    except ValueError as e:
        sys.stderr.write(f"{_usage(words, node)}\nmatrixlie: error: {e}\n")
        raise SystemExit(2) from None
    return SimpleNamespace(run=node[0], **{n.replace("-", "_"): v for n, v in args.items()})


def main(argv=None) -> int:
    # one BLAS thread for small matrices unless the caller chose; numpy is not loaded yet
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        _emit(args.run(args, rowcore.Tolerance(abs=args.tol_abs, rel=args.tol_rel)))
        return 0
    except LieError as e:
        print(json.dumps({"error": e.kind, "detail": str(e)}))
        return 1
    except (ValueError, KeyError, json.JSONDecodeError, OSError) as e:
        print(json.dumps({"error": "value", "detail": str(e)}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
