"""One sweep over the exact-capable public API: every call on a malformed matrix
returns or raises a LieError, never a bare Python exception or a warning.

Each catalogue input is a 3x3 unit upper triangular matrix with a bad entry at
(0, 1), or a bad shape.  With a good entry it is invertible, unipotent and, with
E23 and E13, spans a closed algebra, so the calls also reach their success paths.
The singular-inverse ValueError and the name and count ValueErrors are pinned by
their own tests; no call here reaches them.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from matrixlie.bch import bch_heisenberg, bch_series, g_operator
from matrixlie.errors import DomainError, LieError, ShapeError
from matrixlie.expmlog import heisenberg_log, mat_exp_nilpotent
from matrixlie.groups import euclidean_embed
from matrixlie.liealg import Basis, ad_matrix, structure_constants
from matrixlie.matcore import (matrix_to_json, rational_inverse, rational_nullspace, rational_rank,
                               rational_rref, rational_solve, rdot, reye, rmat)
from matrixlie.repcore import Representation, verify_relations


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


def test_non_finite_generators_are_a_domain_error():
    # Representation(...) took a NaN or an infinite generator as a floating one
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError, match="finite"):
            Representation("x", ("A",), [np.array([[bad]])])
