"""matrixlie: computational matrix Lie groups and algebras.

exp/log with proven convergence domains, group and algebra membership,
Baker-Campbell-Hausdorff in closed/series/integral form, the
SU(2) -> SO(3) double cover, and exact highest-weight representation
theory for sl(2,C) and sl(3,C).

Importing the package loads no submodule: each but ``cli`` loads on first
attribute access, and the names below resolve through it (PEP 562), so exact
representation theory never loads numpy.
"""

import importlib.util
import sys

# module -> the public names it gives the package
_EXPORTS = {
    "errors": "ClosureError ConvergenceError DecompositionError DomainError"
              " InconsistentSamplesError LieError OutOfDomainError ShapeError",
    "rowcore": "Tolerance",
    "matcore": "approx_eq cmat frobenius_norm matrix_from_json matrix_to_json rational_nullspace"
               " rational_rank rmat",
    "expmlog": "OneParamSample exp_directional_derivative heisenberg_log in_exp_image_sl2r"
               " lie_product_step mat_exp mat_exp_nilpotent mat_log one_param_generator",
    "groups": "euclidean_embed is_member metric_g o11_component parse_group polar_decompose_sl"
              " su2_matrix symplectic_J",
    "liealg": "Ad_apply Basis ad_matrix algebra_membership_via_exp bracket gl_basis in_algebra"
              " parse_algebra random_algebra_element structure_constants su2_basis u_decompose",
    "bch": "bch_heisenberg bch_integral bch_series g_operator",
    "su2so3": "adjoint_to_so3 so3_lift",
    "repcore": "Representation direct_sum dual rep_from_json rep_to_json tensor_product"
               " verify_relations",
    "repsl2": "sl2_decompose sl2_intertwiner sl2_irrep sl2_poly_irrep sl2_weights",
    "repsl3": "is_higher sl3_antifundamental_rep sl3_basis sl3_dim_formula"
              " sl3_highest_weight_irrep sl3_roots sl3_standard_rep weyl_act weyl_elements"
              " weyl_invariance_check",
}
_WHERE = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_WHERE)
__version__ = "0.1.0"

# cli stays eager: `python -m matrixlie.cli` warns if it is already in sys.modules
for _module in _EXPORTS:
    _spec = importlib.util.find_spec(f"{__name__}.{_module}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    sys.modules[_spec.name] = globals()[_module] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(globals()[_module])


def __getattr__(name):
    if name not in _WHERE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_WHERE[name]], name)
