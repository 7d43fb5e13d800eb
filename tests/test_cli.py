import contextlib
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
from matrixlie.cli import _build_parser, main
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
    assert _build_parser() is _build_parser()
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


@pytest.mark.parametrize("argv", [
    ["dim", "sl3", "1", "1"], ["rep", "sl2", "5"], ["rep", "sl3", "3", "3"], ["cg", "5", "5"],
    ["decompose", "sl2", "@triangular"], ["decompose", "sl2", "@dense"],
], ids=lambda argv: " ".join(argv))
def test_exact_commands_load_no_numpy(argv, tmp_path):
    # in a fresh process, as this one has numpy loaded
    reps = {"@triangular": direct_sum(sl2_irrep(3), sl2_irrep(2)), "@dense": _dense_sl2_rep()}
    if argv[-1] in reps:
        path = tmp_path / "rep.json"
        path.write_text(json.dumps(rep_to_json(reps[argv[-1]])))
        argv = [*argv[:-1], f"@{path}"]
    probe = ("import sys, matrixlie, matrixlie.cli; rc = matrixlie.cli.main(sys.argv[1:]); "
             "sys.exit(rc or ('numpy' in sys.modules and 'numpy was loaded'))")
    r = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(argv)
    assert r.stdout == out.getvalue()


def test_the_cli_sets_one_blas_thread_unless_the_caller_chose(monkeypatch):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["dim", "sl3", "1", "1"]) == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1" and os.environ["OMP_NUM_THREADS"] == "2"
