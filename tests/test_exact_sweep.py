"""One sweep over the public API: every call on a malformed matrix returns or raises
a LieError, never a bare Python exception or a warning.

Each catalogue input is a 3x3 unit upper triangular matrix with a bad entry at
(0, 1), or a bad shape.  With a good entry it is invertible, unipotent and, with
E23 and E13, spans a closed algebra, so the calls also reach their success paths.
The singular-inverse ValueError and the name and count ValueErrors are pinned by
their own tests; no call here reaches them.

CALLS holds the exact-capable calls and FLOATING_CALLS the floating ones, every
callable of a module's ``__all__`` that takes a matrix, a call on the catalogue
input M standing in for each matrix parameter.  The guard test fails if a public
callable is neither named in a row nor listed in MATRIX_FREE.  Out of scope:
non-matrix parameters, such as ``tol`` given as a plain tuple, the ``samples``
lists of one_param_generator and the weights dicts of a representation.
"""

import importlib
import math
import pkgutil
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

import matrixlie
from matrixlie.bch import bch_heisenberg, bch_integral, bch_series, g_operator
from matrixlie.errors import DomainError, LieError, ShapeError
from matrixlie.expmlog import (OneParamSample, exp_directional_derivative, heisenberg_log,
                               in_exp_image_sl2r, lie_product_step, mat_exp, mat_exp_nilpotent,
                               mat_log, one_param_generator)
from matrixlie.groups import euclidean_embed, is_member, o11_component, polar_decompose_sl
from matrixlie.liealg import (Ad_apply, Basis, ad_matrix, algebra_membership_via_exp, bracket,
                              in_algebra, structure_constants, u_decompose)
from matrixlie.matcore import (approx_eq, cmat, frobenius_norm, is_rational, matrix_to_json,
                               rational_inverse, rational_nullspace, rational_rank, rational_rref,
                               rational_solve, rdot, reye, rmat, to_complex)
from matrixlie.repcore import Representation, verify_relations
from matrixlie.su2so3 import adjoint_to_so3, so3_lift


def _unit(x, dtype=None):
    """[[1, x, 0], [0, 1, 1], [0, 0, 1]], the 0s and 1s of x's kind for a bool x."""
    o, i = (False, True) if type(x) is bool else (0, 1)
    return np.array([[i, x, o], [o, i, i], [o, o, i]], dtype=dtype)


INPUTS = {
    "nan": _unit(math.nan),
    "inf": _unit(math.inf),
    "-inf": _unit(-math.inf),
    "1e300": _unit(1e300),
    "0x0": np.zeros((0, 0)),
    "ragged_list": [[1, 2, 0], [0, 1], [0, 0, 1]],
    "plain_list": _unit(2).tolist(),
    "non_square": np.zeros((2, 3)),
    "vector": np.zeros(3),
    "object_str": _unit("x", object),
    "object_complex": _unit(1j, object),
    "object_bool": _unit(True, object),
    "object_nan": _unit(math.nan, object),
}

E23, E13 = rmat([[0, 0, 0], [0, 0, 1], [0, 0, 0]]), rmat([[0, 0, 1], [0, 0, 0], [0, 0, 0]])


def _basis(M):
    """An object-array basis of M, E23 and E13."""
    return Basis("heis", ("A", "B", "C"), (np.array(M, dtype=object), E23, E13))


def _rows(M):
    """M's nonzero entries as sparse rows, an entry of a vector as a row of one."""
    return [{j: x for j, x in enumerate(np.ravel(row)) if x} for row in M]


SL2 = ("sl(2,C)", ("H", "X", "Y"))
CALLS = {
    "rmat": rmat,
    "rdot(M, I)": lambda M: rdot(M, reye(3)),
    "rdot(I, M)": lambda M: rdot(reye(3), M),
    "rational_rref": rational_rref,
    "rational_rank": rational_rank,
    "rational_nullspace": rational_nullspace,
    "rational_solve(M, b)": lambda M: rational_solve(M, rmat([[1], [2], [3]])),
    "rational_solve(I, M)": lambda M: rational_solve(reye(3), M),
    "rational_inverse": rational_inverse,
    "mat_exp_nilpotent": mat_exp_nilpotent,
    "heisenberg_log": heisenberg_log,
    "euclidean_embed(R=M)": lambda M: euclidean_embed(M, [Fraction(1, 2), 0, 1]),
    "euclidean_embed(x=M)": lambda M: euclidean_embed(reye(9), M),
    "Representation": lambda M: Representation(*SL2, [M, M, M]),
    "from_rows": lambda M: Representation.from_rows(*SL2, [_rows(M)] * 3),
    "bch_heisenberg": lambda M: bch_heisenberg(M, M),
    "bch_series": lambda M: bch_series(M, M, 3),
    "g_operator": g_operator,
    "matrix_to_json": matrix_to_json,
    "structure_constants": lambda M: structure_constants(_basis(M)),
    "verify_relations": lambda M: verify_relations(
        Representation("heis", ("A", "B", "C"), [reye(1)] * 3), _basis(M)),
    "ad_matrix": lambda M: ad_matrix(np.array(M, dtype=object), _basis(M)),
}

# a ragged matrix is a shape fault, whatever its entries
RAGGED_IS_A_SHAPE_ERROR = {"Representation", "euclidean_embed(R=M)", "euclidean_embed(x=M)"}


def _list_basis(M):
    """A basis of M, E23 and E13 as nested lists."""
    elements = (M, E23.astype(int), E13.astype(int))
    return Basis("heis", ("A", "B", "C"),
                 tuple(A.tolist() if isinstance(A, np.ndarray) else A for A in elements))


I3 = np.eye(3)
FLOATING_CALLS = {
    "cmat": cmat,
    "frobenius_norm": frobenius_norm,
    "approx_eq(M, M)": lambda M: approx_eq(M, M),
    "approx_eq(I, M)": lambda M: approx_eq(I3, M),
    "is_rational": is_rational,
    "to_complex": to_complex,
    "mat_exp": mat_exp,
    "mat_log": mat_log,
    "exp_directional_derivative(M, I)": lambda M: exp_directional_derivative(M, I3),
    "exp_directional_derivative(I, M)": lambda M: exp_directional_derivative(I3, M),
    "lie_product_step(M, M, 2)": lambda M: lie_product_step(M, M, 2),
    "one_param_generator(OneParamSample(0, M), (1, I))":
        lambda M: one_param_generator([OneParamSample(0, M), OneParamSample(1, I3)]),
    "one_param_generator((0, I), OneParamSample(1, M))":
        lambda M: one_param_generator([OneParamSample(0, I3), OneParamSample(1, M)]),
    "in_exp_image_sl2r": in_exp_image_sl2r,
    "is_member": lambda M: is_member(M, "SL(3,R)"),
    "polar_decompose_sl": polar_decompose_sl,
    "o11_component": o11_component,
    "in_algebra": lambda M: in_algebra(M, "sl(3,C)"),
    "bracket(M, I)": lambda M: bracket(M, I3),
    "bracket(I, M)": lambda M: bracket(I3, M),
    "ad_matrix(E23, Basis of lists)": lambda M: ad_matrix(E23, _list_basis(M)),
    "structure_constants(Basis of lists)": lambda M: structure_constants(_list_basis(M)),
    "Ad_apply(M, I)": lambda M: Ad_apply(M, I3),
    "Ad_apply(I, M)": lambda M: Ad_apply(I3, M),
    "u_decompose": u_decompose,
    "algebra_membership_via_exp": lambda M: algebra_membership_via_exp(M, "GL(3,C)"),
    "bch_integral(M, M)": lambda M: bch_integral(M, M, 4),
    "bch_integral(E23, E13, basis=Basis of lists)":
        lambda M: bch_integral(E23 / 4, E13 / 4, 4, basis=_list_basis(M)),
    "adjoint_to_so3": adjoint_to_so3,
    "so3_lift": so3_lift,
}

# public callables that take no matrix: names, counts, JSON objects, representations, weights
MATRIX_FREE = {
    "Tolerance", "rzeros", "reye", "matrix_from_json",
    "GroupId", "parse_group", "su2_matrix", "metric_g", "symplectic_J",
    "AlgebraId", "parse_algebra", "su2_basis", "so3_basis", "gl_basis", "heis_basis", "sl2_basis",
    "sl2_basis_rational", "random_algebra_element",
    "direct_sum", "tensor_product", "dual", "rep_to_json", "rep_from_json",
    "sl2_irrep", "sl2_poly_irrep", "sl2_intertwiner", "sl2_weights", "sl2_decompose",
    "sl3_basis", "sl3_roots", "Root", "is_higher", "sl3_standard_rep", "sl3_antifundamental_rep",
    "sl3_highest_weight_irrep", "sl3_dim_formula", "weyl_elements", "weyl_act",
    "weyl_invariance_check", "weight_table", "weight_table_csv",
}


@pytest.mark.parametrize("bad", sorted(INPUTS))
@pytest.mark.parametrize("name", sorted(CALLS))
def test_exact_api_returns_or_raises_a_lie_error(name, bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if bad == "ragged_list" and name in RAGGED_IS_A_SHAPE_ERROR:
            with pytest.raises(ShapeError):
                CALLS[name](INPUTS[bad])
            return
        try:
            CALLS[name](INPUTS[bad])
        except LieError:
            pass


@pytest.mark.parametrize("bad", sorted(INPUTS))
@pytest.mark.parametrize("name", sorted(FLOATING_CALLS))
def test_floating_api_returns_or_raises_a_lie_error(name, bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            FLOATING_CALLS[name](INPUTS[bad])
        except LieError:
            pass


def _public_callables() -> set:
    """Every callable named in the __all__ of a matrixlie module."""
    names = set()
    for info in pkgutil.iter_modules(matrixlie.__path__):
        module = importlib.import_module(f"matrixlie.{info.name}")
        names |= {n for n in getattr(module, "__all__", ()) if callable(getattr(module, n))}
    return names


def test_every_public_callable_is_swept_or_matrix_free():
    swept = {w for name in (*CALLS, *FLOATING_CALLS) for w in re.findall(r"[A-Za-z_]\w*", name)}
    public = _public_callables()
    assert public - swept - MATRIX_FREE == set()
    assert MATRIX_FREE <= public and not MATRIX_FREE & swept


def test_non_finite_generators_are_a_domain_error():
    # Representation(...) took a NaN or an infinite generator as a floating one
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError, match="finite"):
            Representation("x", ("A",), [np.array([[bad]])])
