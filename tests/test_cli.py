import argparse
import contextlib
import functools
import importlib
import io
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import matrixlie
from matrixlie import cli
from matrixlie.cli import (_bch, _load_json, _rep_sl3, _structconst, _su2so3, expmlog, liealg,
                           main, repcore, repsl2, repsl3)
from matrixlie.matcore import rmat
from matrixlie.repcore import Representation, direct_sum, rep_to_json
from matrixlie.repsl2 import sl2_irrep

GOLDEN = Path(__file__).parent / "golden"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "matrixlie.cli", *args],
        capture_output=True,
        text=True,
    )


def mat_json(M):
    M = np.asarray(M, dtype=float)
    return json.dumps(
        {
            "rows": M.shape[0],
            "cols": M.shape[1],
            "re": [float(x) for x in M.reshape(-1)],
        }
    )


def test_dim_sl3():
    r = run_cli("dim", "sl3", "1", "1")
    assert r.returncode == 0
    assert r.stdout.strip() == "8"


def test_exp_round_trip():
    X = [[0.0, -0.3], [0.3, 0.0]]
    r = run_cli("exp", mat_json(X))
    assert r.returncode == 0
    out = json.loads(r.stdout)
    A = np.array(out["re"]).reshape(2, 2)
    want = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])
    assert np.allclose(A, want, atol=1e-9)
    # re-parse is exactly what was printed
    r2 = run_cli("log", json.dumps(out))
    back = np.array(json.loads(r2.stdout)["re"]).reshape(2, 2)
    assert np.allclose(back, X, atol=1e-8)


def test_member_and_algebra():
    r = run_cli("member", "SO(2)", mat_json([[0, -1], [1, 0]]))
    assert json.loads(r.stdout) == {"member": True}
    r = run_cli("algebra", "so(2)", mat_json([[0, -2], [2, 0]]))
    assert json.loads(r.stdout) == {"member": True}


@pytest.mark.parametrize("command,name,good", [("member", "SO(9", "SO(2)"),
                                               ("algebra", "so(9", "so(2)")])
def test_a_bad_name_is_reported_before_a_bad_matrix(command, name, good):
    def run(*argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(list(argv)) == 1
        return json.loads(out.getvalue())

    kind = "group" if command == "member" else "algebra"
    assert run(command, name, '{"rows":1}') == {
        "error": "value", "detail": f"cannot parse {kind} name {name!r}"}
    assert "cannot parse" not in run(command, good, '{"rows":1}')["detail"]


def test_log_near_the_edge_of_its_domain():
    # ||A - I|| = 0.9375, near the edge of the log's domain
    r = run_cli("log", mat_json([[0.0625]]))
    assert r.returncode == 0
    assert json.loads(r.stdout)["re"] == [pytest.approx(np.log(0.0625), rel=1e-15)]


def test_weights_csv_golden(tmp_path):
    out = tmp_path / "w.csv"
    r = run_cli("rep", "sl3", "1", "1", "--weights-csv", str(out))
    assert r.returncode == 0
    assert out.read_bytes() == (GOLDEN / "sl3_1_1_weights.csv").read_bytes()


def test_error_object_schema():
    # log outside its domain: exit 1 and a machine-readable error object
    r = run_cli("log", mat_json([[3, 0], [0, 1]]))
    assert r.returncode == 1
    err = json.loads(r.stdout)
    assert set(err) == {"error", "detail"}
    assert err["error"] == "out_of_domain"


def test_usage_error_exit_2():
    r = run_cli("frobnicate")
    assert r.returncode == 2


def test_cg():
    r = run_cli("cg", "2", "1")
    assert json.loads(r.stdout) == {"summands": [3, 1]}


def test_bch_series_commuting():
    X = mat_json([[0.1, 0], [0, 0.2]])
    Y = mat_json([[0.3, 0], [0, -0.1]])
    r = run_cli("bch", "--form", "series", "--order", "1", X, Y)
    out = np.array(json.loads(r.stdout)["re"]).reshape(2, 2)
    assert np.allclose(out, [[0.4, 0], [0, 0.1]])


def test_deterministic_output():
    args = ("exp", mat_json([[0.0, -0.4], [0.4, 0.0]]))
    assert run_cli(*args).stdout == run_cli(*args).stdout


def test_file_input(tmp_path):
    p = tmp_path / "m.json"
    p.write_text(mat_json([[0, -1], [1, 0]]))
    r = run_cli("member", "SO(2)", f"@{p}")
    assert json.loads(r.stdout) == {"member": True}


def test_non_object_matrix_is_a_domain_error():
    r = run_cli("member", "SO(2)", "[[1, 0], [0, 1]]")
    assert r.returncode == 1
    assert json.loads(r.stdout)["error"] == "domain"


def test_zero_denominator_is_a_domain_error():
    r = run_cli("exp", json.dumps({"rows": 1, "cols": 1, "num": [1], "den": [0]}))
    assert r.returncode == 1
    assert json.loads(r.stdout)["error"] == "domain"


def test_empty_rational_matrix_is_a_shape_error():
    r = run_cli("exp", json.dumps({"rows": 0, "cols": 0, "num": [], "den": []}))
    assert r.returncode == 1
    assert json.loads(r.stdout)["error"] == "shape"


def test_non_object_rep_is_a_domain_error():
    r = run_cli("decompose", "sl2", "[]")
    assert r.returncode == 1
    assert json.loads(r.stdout)["error"] == "domain"


def test_bch_integral_zero_quad_points():
    X = mat_json([[0.1, 0], [0, 0.2]])
    r = run_cli("bch", "--form", "integral", "--quad-points", "0", X, X)
    assert r.returncode == 1
    assert json.loads(r.stdout)["error"] == "domain"


def test_bch_integral_zero_terms():
    X = mat_json([[0, 0.1], [0, 0]])
    Y = mat_json([[0, 0], [0.1, 0]])
    r = run_cli("bch", "--form", "integral", "--terms", "0", X, Y)
    assert r.returncode == 1
    assert json.loads(r.stdout)["error"] == "domain"


def test_readme_exp_example():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    line = next(l for l in readme.splitlines() if l.startswith("matrixlie exp "))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(shlex.split(line)[1:]) == 0
    Z = json.loads(out.getvalue())
    assert Z["rows"] == 2 and len(Z["re"]) == 4


def test_malformed_rational_json_is_a_domain_error():
    for obj in (
        {"rows": 1, "cols": 1, "num": [1], "den": [1.5]},
        {"rows": 1, "cols": 1, "num": ["x"], "den": [1]},
        {"rows": 1, "cols": 1, "num": [True], "den": [1]},
        {"rows": None, "cols": 1, "num": [1], "den": [1]},
        {"rows": 1, "cols": 1.5, "num": [1], "den": [1]},
    ):
        r = run_cli("exp", json.dumps(obj))
        assert r.returncode == 1
        assert json.loads(r.stdout)["error"] == "domain"


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_json_nan_and_infinity_are_domain_errors(token):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["exp", '{"rows":1,"cols":1,"re":[%s]}' % token])
    assert code == 1 and json.loads(out.getvalue())["error"] == "domain"


def test_rep_sl3_past_the_cap_is_a_domain_error():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["rep", "sl3", "7", "0"])
    assert code == 1 and json.loads(out.getvalue())["error"] == "domain"


def test_exp_overflow_is_a_domain_error():
    for x in (1e308, 800.0):
        r = run_cli("exp", mat_json([[x]]))
        assert r.returncode == 1
        assert json.loads(r.stdout)["error"] == "domain"


def test_usage_error_then_valid_calls_in_one_process():
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        with pytest.raises(SystemExit) as e:
            main(["structconst", "--basis", "nosuch"])
        assert e.value.code == 2
        assert main(["structconst", "--basis", "su2"]) == 0
        assert main(["bch", "--form", "series", mat_json([[0.0, 1.0], [0.0, 0.0]]),
                     mat_json([[0.0, 0.0], [1.0, 0.0]])]) == 0
    first, second = (json.loads(line) for line in out.getvalue().splitlines())
    assert first["labels"] == ["E1", "E2", "E3"] and first["c"][0][1] == ["0", "0", "1"]
    assert second["rows"] == 2 and len(second["re"]) == 4


def _zero_json(rows, cols):
    return {"rows": rows, "cols": cols, "num": [0] * (rows * cols), "den": [1] * (rows * cols)}


def _floating_json(g):
    return {"rows": g["rows"], "cols": g["cols"],
            "re": [n / d for n, d in zip(g["num"], g["den"])]}


SL2_2 = rep_to_json(sl2_irrep(2))
H, X, Y = SL2_2["generators"]

# edits of the JSON of sl2_irrep(2), and the error kind `decompose sl2` must
# answer each with
MALFORMED_REPS = {
    "mixed_shapes": ({"generators": [H, _zero_json(4, 4), Y]}, "shape"),
    "non_square": ({"generators": [_zero_json(3, 2)] * 3}, "shape"),
    "label_count": ({"labels": ["H", "X"]}, "shape"),
    "no_generators": ({"generators": [], "labels": []}, "shape"),
    "weights_list": ({"weights": [2, 0, -2]}, "domain"),
    "floating": ({"generators": [_floating_json(g) for g in (H, X, Y)]}, "domain"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_REPS))
def test_malformed_rep_is_a_typed_error(case):
    edit, kind = MALFORMED_REPS[case]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["decompose", "sl2", json.dumps({**SL2_2, **edit})])
    assert code == 1
    assert json.loads(out.getvalue())["error"] == kind


# V2 + V1 with labels that are not sl(2)'s (H, X, Y) in that order: the
# generators relabeled, reordered to match their new labels, or foreign
V2_V1 = rep_to_json(direct_sum(sl2_irrep(2), sl2_irrep(1)))
RELABELED_REPS = {
    "relabeled": {"labels": ["H", "Y", "X"]},
    "reordered": {"labels": ["H", "Y", "X"],
                  "generators": [V2_V1["generators"][i] for i in (0, 2, 1)]},
    "foreign": {"labels": ["A", "B", "C"]},
}


@pytest.mark.parametrize("case", sorted(RELABELED_REPS))
def test_decompose_refuses_labels_other_than_the_basis_labels(case):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["decompose", "sl2", json.dumps({**V2_V1, **RELABELED_REPS[case]})])
    assert code == 1
    assert json.loads(out.getvalue())["error"] == "domain"


@pytest.mark.parametrize(
    "cmd, A, oracle",
    [
        ("exp", [[0.0, 1.0], [-1.0, 0.0]], "expm"),
        ("log", [[1.1, 0.0], [0.0, 0.9]], "logm"),
    ],
)
def test_zero_absolute_tolerance_is_accepted(cmd, A, oracle):
    sla = pytest.importorskip("scipy.linalg")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["--tol-abs", "0", cmd, mat_json(A)]) == 0
    Z = json.loads(out.getvalue())
    got = np.array(Z["re"]).reshape(2, 2)
    assert np.abs(got - getattr(sla, oracle)(np.array(A))).max() <= 1e-14


def test_zero_absolute_tolerance_polar():
    sla = pytest.importorskip("scipy.linalg")
    A = np.array([[2.0, 1.0], [0.0, 1.0]])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["--tol-abs", "0", "polar", mat_json(A)]) == 0
    got = json.loads(out.getvalue())
    U, P = sla.polar(A)
    for key, want in (("R", U), ("H", P)):
        assert np.abs(np.array(got[key]["re"]).reshape(2, 2) - want).max() <= 1e-14


RATIONAL_H = json.dumps({"rows": 2, "cols": 2, "num": [1, 0, 0, -1], "den": [1, 1, 1, 1]})
FLOAT_E = json.dumps({"rows": 2, "cols": 2, "re": [0, 0.5, 0, 0]})
RATIONAL_E12 = json.dumps({"rows": 3, "cols": 3, "num": [0, 1, 0, 0, 0, 0, 0, 0, 0],
                           "den": [1] * 9})
FLOAT_E23 = json.dumps({"rows": 3, "cols": 3, "re": [0, 0, 0, 0, 0, 0.5, 0, 0, 0]})


@pytest.mark.parametrize(
    "argv,want",
    [
        (["bracket", RATIONAL_H, FLOAT_E], [[0, 1], [0, 0]]),
        (["bracket", FLOAT_E, RATIONAL_H], [[0, -1], [0, 0]]),
        (["bch", "--form", "series", RATIONAL_H, FLOAT_E], [[1, 7 / 6], [0, -1]]),
        (["bch", "--form", "heis", RATIONAL_E12, FLOAT_E23],
         [[0, 1, 0.25], [0, 0, 0.5], [0, 0, 0]]),
    ],
    ids=["bracket", "bracket_swapped", "bch_series", "bch_heis"],
)
def test_rational_with_floating_input_gives_floating_output(argv, want):
    # if either input is floating, so is the result (as for ad_matrix)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    got = json.loads(out.getvalue())
    want = np.array(want, dtype=float)
    assert "num" not in got and (got["rows"], got["cols"]) == want.shape
    assert np.abs(np.array(got["re"]).reshape(want.shape) - want).max() <= 1e-15


@pytest.mark.parametrize("tol", [[], ["--tol-abs", "0"]], ids=["default_tol", "zero_tol"])
def test_polar_of_a_badly_conditioned_matrix(tol):
    # cond A = 1e85: unscaled Newton needed more than its 100 steps
    sla = pytest.importorskip("scipy.linalg")
    A = np.array([[0.0, 1.0], [1.08e-85, 0.0]])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([*tol, "polar", mat_json(A)]) == (0 if tol else 1)
    got = json.loads(out.getvalue())
    if not tol:  # |det A| / ||A||_F^2 = 1.08e-85 <= 1e-9: singular at the default
        assert got["error"] == "domain"
        return
    U, P = sla.polar(A)
    for key, want in (("R", U), ("H", P)):
        assert np.abs(np.array(got[key]["re"]).reshape(2, 2) - want).max() <= 1e-15


def test_polar_of_a_small_multiple_of_the_identity():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["polar", mat_json(1e-4 * np.eye(3))]) == 0
    got = json.loads(out.getvalue())
    assert np.array_equal(np.array(got["R"]["re"]), np.eye(3).ravel())
    assert np.array_equal(np.array(got["H"]["re"]), 1e-4 * np.eye(3).ravel())


@pytest.mark.parametrize(
    "warnings,argv",
    [
        ("error", ["ad", "--basis", "sl2", '{"rows":2,"cols":2,"re":[0,1e308,1e308,0]}']),
        ("error", ["ad", "--basis", "su2", '{"rows":2,"cols":2,"re":[0,1.7e308,-1.7e308,0]}']),
        # X + Y overflows in the library (with a numpy warning); the output
        # refuses the inf
        ("default", ["bch", "--form", "series", '{"rows":1,"cols":1,"re":[1e308]}',
                     '{"rows":1,"cols":1,"re":[1e308]}']),
    ],
)
def test_overflow_is_a_domain_error(warnings, argv):
    # exit 1 with a domain error and strict JSON on stdout; under -W error
    # numpy warns of nothing on the way
    r = subprocess.run([sys.executable, "-W", warnings, "-m", "matrixlie.cli", *argv],
                       capture_output=True, text=True)
    assert r.returncode == 1
    assert json.loads(r.stdout)["error"] == "domain"


@pytest.mark.parametrize(
    "argv",
    [["exp"], ["log"], ["polar"], ["member", "SU(2)"], ["algebra", "su(2)"], ["su2so3", "fwd"],
     ["su2so3", "lift"], ["ad", "--basis", "sl2"]],
)
def test_exact_entry_beyond_the_float_range_is_a_domain_error(argv):
    huge = json.dumps({"rows": 2, "cols": 2, "num": [10**400, 0, 0, 1], "den": [1] * 4})
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*argv, huge])
    assert code == 1 and json.loads(out.getvalue())["error"] == "domain"


def test_exact_cli_paths_make_no_fraction(monkeypatch):
    # cg, rep sl3 and decompose of a triangular pi(H) work on integer rows
    # over one denominator per generator; only the structure constants, made
    # once per process, are Fractions
    text = json.dumps(rep_to_json(direct_sum(sl2_irrep(3), sl2_irrep(2))))
    argvs = [["cg", "5", "5"], ["rep", "sl3", "2", "2"], ["decompose", "sl2", text]]
    for argv in argvs:  # warm the per-process caches
        with contextlib.redirect_stdout(io.StringIO()):
            main(argv)
    new, made = Fraction.__new__, []

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    for argv in argvs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        assert made == [], (argv[:2], made[:5])
    assert Fraction(1, 2) and made == [(1, 2)]  # the count works


# what `import matrixlie` gave by eager imports before it became lazy, by module
PACKAGE_NAMES = {
    "errors": "ClosureError ConvergenceError DecompositionError DomainError"
              " InconsistentSamplesError LieError OutOfDomainError ShapeError",
    "matcore": "Tolerance approx_eq cmat frobenius_norm matrix_from_json matrix_to_json"
               " rational_nullspace rational_rank rmat",
    "expmlog": "OneParamSample exp_directional_derivative heisenberg_log in_exp_image_sl2r"
               " lie_product_step mat_exp mat_exp_nilpotent mat_log one_param_generator",
    "groups": "euclidean_embed is_member metric_g o11_component parse_group"
              " polar_decompose_sl su2_matrix symplectic_J",
    "liealg": "Ad_apply Basis ad_matrix algebra_membership_via_exp bracket gl_basis"
              " in_algebra parse_algebra random_algebra_element structure_constants"
              " su2_basis u_decompose",
    "bch": "bch_heisenberg bch_integral bch_series g_operator",
    "su2so3": "adjoint_to_so3 so3_lift",
    "repcore": "Representation direct_sum dual rep_from_json rep_to_json tensor_product"
               " verify_relations",
    "repsl2": "sl2_decompose sl2_intertwiner sl2_irrep sl2_poly_irrep sl2_weights",
    "repsl3": "is_higher sl3_antifundamental_rep sl3_basis sl3_dim_formula"
              " sl3_highest_weight_irrep sl3_roots sl3_standard_rep weyl_act weyl_elements"
              " weyl_invariance_check",
}


def test_every_package_name_is_its_module_attribute():
    for module, names in PACKAGE_NAMES.items():
        mod = importlib.import_module(f"matrixlie.{module}")
        for name in names.split():
            assert getattr(matrixlie, name) is getattr(mod, name), name
    assert sorted(matrixlie.__all__) == sorted(" ".join(PACKAGE_NAMES.values()).split())
    with pytest.raises(AttributeError):
        matrixlie.no_such_name


def _dense_sl2_rep():
    """pi(1) conjugated by a unimodular T: pi(H) is neither upper nor lower
    triangular, so decompose takes the kernel path."""
    T, Ti = rmat([[2, 1], [1, 1]]), rmat([[1, -1], [-1, 2]])
    rep = sl2_irrep(1)
    return Representation(rep.algebra, rep.labels, tuple(Ti @ g @ T for g in rep.generators))


BASES = ["gl2", "gl3", "heis", "sl2", "sl3", "so3", "su2"]  # the names of the built-in bases
EXACT_COMMANDS = [
    ["dim", "sl3", "1", "1"], ["rep", "sl2", "5"], ["rep", "sl3", "3", "3"], ["cg", "5", "5"],
    ["decompose", "sl2", "@triangular"], ["decompose", "sl2", "@dense"],
    *(["structconst", "--basis", b] for b in BASES),
]


def _with_rep_files(argv, tmp_path):
    """argv with a trailing @triangular or @dense replaced by a file holding that rep."""
    reps = {"@triangular": direct_sum(sl2_irrep(3), sl2_irrep(2)), "@dense": _dense_sl2_rep()}
    if argv[-1] not in reps:
        return argv
    path = tmp_path / f"{argv[-1][1:]}.json"
    path.write_text(json.dumps(rep_to_json(reps[argv[-1]])))
    return [*argv[:-1], f"@{path}"]


@pytest.mark.parametrize("argv", EXACT_COMMANDS, ids=lambda argv: " ".join(argv))
def test_exact_commands_load_no_numpy(argv, tmp_path):
    # in a fresh process, as this one has numpy loaded
    argv = _with_rep_files(argv, tmp_path)
    probe = ("import sys, matrixlie, matrixlie.cli; rc = matrixlie.cli.main(sys.argv[1:]); "
             "sys.exit(rc or ('numpy' in sys.modules and 'numpy was loaded'))")
    r = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(argv)
    assert r.stdout == out.getvalue()


def test_cli_import_and_exact_builds_load_no_fractions():
    # in a fresh process: `import matrixlie, matrixlie.cli` loads no __future__,
    # and cg, rep and dim load neither fractions nor the decimal it imports.
    # decompose sl2 keeps both: its sl(2) structure constants are Fractions
    calls = [["cg", "5", "5"], ["rep", "sl3", "2", "2"], ["rep", "sl2", "3", "--model", "poly"],
             ["dim", "sl3", "1", "1"]]
    probe = ("import contextlib, io, json, sys; import matrixlie, matrixlie.cli\n"
             "imported = '__future__' in sys.modules\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    codes = [matrixlie.cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
             "print(json.dumps([imported, codes,"
             " sorted({'fractions', 'decimal'} & set(sys.modules))]))")
    r = subprocess.run([sys.executable, "-c", probe, json.dumps(calls)], capture_output=True,
                       text=True)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout) == [False, [0] * len(calls), []]


def test_exact_commands_load_neither_dataclasses_nor_inspect(tmp_path):
    # all of them in one fresh process; dataclasses imports inspect, a large
    # import that no exact command needs
    commands = [_with_rep_files(argv, tmp_path) for argv in EXACT_COMMANDS]
    probe = ("import contextlib, io, json, sys; before = set(sys.modules); import matrixlie.cli\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    codes = [matrixlie.cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
             "print(json.dumps([codes, sorted(set(sys.modules) - before)]))")
    r = subprocess.run([sys.executable, "-c", probe, json.dumps(commands)],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    codes, loaded = json.loads(r.stdout)
    assert codes == [0] * len(commands)
    assert "matrixlie.rowcore" in loaded  # the snapshot came before matrixlie loaded
    assert not {"dataclasses", "inspect"} & set(loaded), loaded


def test_the_cli_sets_one_blas_thread_unless_the_caller_chose(monkeypatch):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["dim", "sl3", "1", "1"]) == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1" and os.environ["OMP_NUM_THREADS"] == "2"


def test_usage_errors_and_help_go_to_their_streams():
    for argv in (["frobnicate"], ["cg", "1"], ["bch", "--form", "taylor", "x", "y"],
                 ["exp", "x", "y"]):
        r = run_cli(*argv)
        assert (r.returncode, r.stdout) == (2, "")
        assert r.stderr.startswith("usage: matrixlie") and "error: " in r.stderr
    r = run_cli("--help")
    assert r.returncode == 0 and r.stderr == ""
    assert all(f"  {word} " in r.stdout for word in cli._COMMANDS)
    r = run_cli("rep", "sl3", "-h")
    assert r.returncode == 0 and "--weights-csv" in r.stdout and "m1 m2" in r.stdout


DEEP = "[" * 5000 + "]" * 5000


@pytest.mark.parametrize("argv", [["exp", DEEP], ["decompose", "sl2", DEEP],
                                  ["exp", "@deep.json"]], ids=["exp", "decompose", "file"])
def test_deeply_nested_json_is_a_typed_error(argv, tmp_path, monkeypatch):
    # json recurses once per level: past the recursion limit it raises
    # RecursionError, which must become an error object like any bad input
    monkeypatch.chdir(tmp_path)
    (tmp_path / "deep.json").write_text("[" * 100000 + "]" * 100000)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 1
    assert set(json.loads(out.getvalue())) == {"error", "detail"}


def test_deeply_nested_json_through_the_module():
    r = run_cli("exp", DEEP)
    assert r.returncode == 1 and set(json.loads(r.stdout)) == {"error", "detail"}
    assert "Traceback" not in r.stderr


def test_no_cli_call_imports_argparse_or_gettext():
    # in a fresh process: an exact command, a floating one (numpy imports
    # neither), a usage error and help
    probe = ("import io, json, sys; import matrixlie.cli\n"
             "codes, sys.stdout, sys.stderr = [], io.StringIO(), io.StringIO()\n"
             "for argv in json.loads(sys.argv[1]):\n"
             "    try:\n"
             "        codes.append(matrixlie.cli.main(argv))\n"
             "    except SystemExit as e:\n"
             "        codes.append(e.code)\n"
             "print(json.dumps([codes, sorted({'argparse', 'gettext'} & set(sys.modules))]),\n"
             "      file=sys.__stdout__)")
    calls = [["dim", "sl3", "1", "1"], ["exp", mat_json([[0.5]])], ["frobnicate"], ["--help"]]
    r = subprocess.run([sys.executable, "-c", probe, json.dumps(calls)], capture_output=True,
                       text=True)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout) == [[0, 0, 2, 0], []]


# The argparse tree the CLI had before its command table, verbatim but for the
# handlers its table holds as lambdas, named through the table, and the basis
# names, written out: the reference that the table parser must match.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser.  Each command sets `run`, its handler (args, tol) -> a
    matrix, an exact Representation or a JSON value."""
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
    command(sub, "member", cli._COMMANDS["member"][0], "group", "matrix", help="group membership")
    command(sub, "algebra", cli._COMMANDS["algebra"][0], "algebra", "matrix",
            help="Lie-algebra membership")
    command(sub, "bracket", lambda a, tol: liealg.bracket(_load_json(a.x), _load_json(a.y)),
            "x", "y", help="commutator [X, Y]")
    s = command(sub, "ad", cli._COMMANDS["ad"][0], "matrix", help="matrix of ad X in a named basis")
    s.add_argument("--basis", required=True, choices=BASES)
    s = command(sub, "structconst", _structconst, help="structure constants of a named basis")
    s.add_argument("--basis", required=True, choices=BASES)

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
    s = command(rep, "sl2", cli._COMMANDS["rep"][0]["sl2"][0])
    s.add_argument("m", type=int)
    s.add_argument("--model", choices=["abstract", "poly"], default="abstract")
    s = command(rep, "sl3", _rep_sl3)
    s.add_argument("m1", type=int)
    s.add_argument("m2", type=int)
    s.add_argument("--weights-csv")

    dec = sub.add_parser("decompose", help="decompose a representation")
    dec = dec.add_subparsers(dest="which", required=True)
    s = command(dec, "sl2", lambda a, tol: {
        "summands": repsl2.sl2_decompose(_load_json(a.rep, repcore.rep_from_json))})
    s.add_argument("rep", help="representation JSON (rational matrices)")

    s = command(sub, "cg", cli._COMMANDS["cg"][0], help="decompose tensor of two sl2 irreducibles")
    s.add_argument("m", type=int)
    s.add_argument("n", type=int)

    dim = sub.add_parser("dim", help="dimension formula")
    dim = dim.add_subparsers(dest="which", required=True)
    s = command(dim, "sl3", lambda a, tol: repsl3.sl3_dim_formula(a.m1, a.m2))
    s.add_argument("m1", type=int)
    s.add_argument("m2", type=int)

    command(sub, "polar", cli._COMMANDS["polar"][0], "matrix", help="polar decomposition A = RH")
    return p


def _parsed(parse, argv):
    """(exit code, stdout, the args as a dict) of parse(argv): the code is None
    if it returns, the args None if it exits."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            args = vars(parse(argv)).copy()
        except SystemExit as e:
            return e.code, out.getvalue(), None
    return None, out.getvalue(), args


def _reference(argv):
    """_parsed by argparse, with the handler replaced by the command words."""
    code, out, args = _parsed(_build_parser().parse_args, argv)
    if args is not None:
        args["run"] = " ".join(filter(None, [args.pop("cmd"), args.pop("which", None)]))
    return code, out, args


# each handler of the command table -> its command words
WORDS = {leaf[0]: " ".join(filter(None, [word, sub])) for word, row in cli._COMMANDS.items()
         for sub, leaf in (row[0].items() if isinstance(row[0], dict) else [(None, row)])}


def _table(argv):
    """_parsed by the table parser, with the handler replaced by its command words."""
    code, out, args = _parsed(cli._parse, argv)
    if args is not None:
        args["run"] = WORDS[args["run"]]
    return code, out, args


def test_the_table_holds_the_named_handlers_under_their_words():
    # the other handlers are lambdas, there and in the reference
    named = {_structconst: "structconst", _bch: "bch", _su2so3: "su2so3", _rep_sl3: "rep sl3"}
    assert {h: WORDS[h] for h in named} == named and len(WORDS) == 16


GLOBALS = ("--help", "--tol-abs", "--tol-rel")


def _ambiguous(token):
    """Whether a token is a prefix of two global options."""
    head = token.partition("=")[0]
    return token.startswith("--") and sum(o.startswith(head) for o in GLOBALS) > 1


COMMANDS = [["exp"], ["log"], ["heislog"], ["member"], ["algebra"], ["bracket"], ["ad"],
            ["structconst"], ["bch"], ["su2so3"], ["rep", "sl2"], ["rep", "sl3"],
            ["decompose", "sl2"], ["cg"], ["dim", "sl3"], ["polar"]]
# unknown and partial command words
NOT_COMMANDS = [[], [""], ["frob"], ["ex"], ["rep"], ["rep", "sl4"], ["dim"], ["decompose", "sl3"],
                ["sl2"], ["rep sl2"], ["Exp"]]
OPTIONS = ["--tol-abs", "--tol-rel", "--help", "--basis", "--form", "--order", "--quad-points",
           "--terms", "--model", "--weights-csv", "--bogus"]
VALUES = ["0", "1", "2", "-1", "-3", "-1.5", "-.5", "1.5", "", "x", "-x", "- x", "a b", "-",
          mat_json([[0.5]]), '{"rows": 1}', "su2", "gl3", "heis", "series", "integral", "fwd",
          "lift", "abstract", "poly", "SO(3)", "1e-9", "inf", " 7", "@f.json"]


def test_table_parser_matches_argparse():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    # a full or abbreviated option name
    option = st.sampled_from(OPTIONS).flatmap(lambda o: st.integers(3, len(o)).map(lambda k: o[:k]))
    token = st.one_of(st.sampled_from(VALUES), st.integers(-3, 9).map(str), option, st.just("-h"),
                      st.tuples(option, st.sampled_from([*VALUES, "--"])).map("=".join))

    def value(spec):
        """A value of a positional or an option, mostly a good one."""
        good = (st.sampled_from(spec[2]) if spec[2] else st.integers(-3, 12).map(str)
                if spec[0] is not str else st.sampled_from(VALUES))
        return st.one_of(good, good, good, token)

    noise = st.sampled_from([0, 0, 0, 1, 2, 3])  # how many stray tokens

    @st.composite
    def command_lines(draw):
        """Global options, command words, then the command's positionals in order
        and some of its options, any of them abbreviated, in any order, with tokens
        and a "--" put in anywhere after the command words."""
        words = draw(st.sampled_from(COMMANDS * 2 + NOT_COMMANDS))
        before = []
        for name in ("tol-abs", "tol-rel"):
            if draw(st.integers(0, 3)) == 0:
                before += [f"--{name}"[:draw(st.integers(7, len(name) + 2))],
                           draw(st.sampled_from(["1e-6", "0", "-1", "x", "1.5"]))]
        before += draw(st.lists(token, max_size=1))[:draw(noise)]
        units = []
        if words in COMMANDS:
            node = cli._ROOT
            for word in words:
                node = node[0][word]
            units = [[draw(value(spec))] for spec in node[1].values()]
            for name, spec in node[2].items():
                if draw(st.integers(0, 2)) or spec[3]:
                    name = "--" + name
                    name = name[:draw(st.integers(3, len(name)))]
                    v = draw(value(spec))
                    units.append([f"{name}={v}"] if draw(st.booleans()) else [name, v])
            units = draw(st.permutations(units))
        after = [t for unit in units for t in unit]
        for t in draw(st.lists(token, max_size=3))[:draw(noise)]:
            after.insert(draw(st.integers(0, len(after))), t)
        if words in COMMANDS and draw(st.integers(0, 3)) == 0:
            # one "--" at most, and after the command words: before them, and
            # for a second "--", argparse differs between Python versions
            after.insert(draw(st.integers(0, len(after))), "--")
        return before + words + after

    @hyp.settings(derandomize=True, max_examples=2000, deadline=None)
    @hyp.given(argv=command_lines())
    def check(argv):
        new = _table(argv)
        if any(map(_ambiguous, argv[:argv.index("--")] if "--" in argv else argv)):
            # an error as in argparse up to 3.13.0; later versions read on (pinned below)
            assert new == (2, "", None), argv
            return
        ref = _reference(argv)
        if ref[0] == 0:  # help: its text is the table's own
            assert new[0] == 0 and new[1], argv
        else:
            assert new == ref, argv

    check()


@pytest.mark.parametrize("argv,want", [
    # tokens after "--" are positionals, command words too, as in argparse 3.13.13
    # (3.10 to 3.13.0 exit 2)
    (["--", "exp", "x"], ("exp", {"matrix": "x"})),
    (["--tol-abs", "1", "--", "exp", "x"], ("exp", {"tol_abs": 1.0, "matrix": "x"})),
    (["rep", "--", "sl2", "-1"], ("rep sl2", {"m": -1, "model": "abstract"})),
    (["--", "ad", "--he"], 2),  # --he is the matrix, and --basis is missing
    # a second "--" is a positional (argparse before 3.13 gave an empty list)
    (["member", "--", "--weights", "--"], ("member", {"group": "--weights", "matrix": "--"})),
    (["cg", "--", "1", "--"], 2),
    # an ambiguous prefix of a global option before "--" is an error, after
    # help too (argparse 3.13.13 prints help, or takes a token with a space
    # for a positional)
    (["exp", "--help", "--t"], 2),
    (["-h", "--tol=1", "exp"], 2),
    (["polar", "--tol-=a b"], 2),
    # short help clusters
    (["-hh"], 0),
    (["-hx"], 2),
    # a token that is not a negative number by argparse's pattern is an option
    (["exp", "-1e5"], 2),
    (["exp", "-5."], 2),
])
def test_table_parser_where_argparse_versions_differ(argv, want):
    code, _, args = _table(argv)
    if isinstance(want, int):
        assert code == want
    else:
        assert code is None and args["run"] == want[0]
        assert {k: args[k] for k in want[1]} == want[1]
