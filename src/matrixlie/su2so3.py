"""The two-to-one homomorphism SU(2) -> SO(3) and its inverse lift.

The rotation associated with U in SU(2) is the matrix of A -> U A U* on
the traceless Hermitian 2x2 matrices, written in the orthonormal basis
A1, A2, A3 below (inner product <A,B> = trace(AB)/2).
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError, DomainError
from .groups import _holds, parse_group, su2_matrix
from .matcore import DEFAULT_TOL, Tolerance, _entry, frobenius_norm

__all__ = ["A1", "A2", "A3", "adjoint_to_so3", "so3_lift"]

A1 = np.array([[0, 1], [1, 0]], dtype=complex)
A2 = np.array([[0, 1j], [-1j, 0]], dtype=complex)
A3 = np.array([[1, 0], [0, -1]], dtype=complex)
_BASIS = np.array([A1, A2, A3])


def _rotation(U: np.ndarray) -> np.ndarray:
    """adjoint_to_so3 of a U known to be in SU(2), as a real array, by one contraction."""
    return np.einsum("iab,bc,jcd,da->ij", _BASIS, U, _BASIS, U.conj().T).real / 2


@_entry(1)
def adjoint_to_so3(U: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """3x3 rotation R with R_ij = Re trace(A_i U A_j U*)/2.

    A homomorphism onto SO(3) with kernel {I, -I}.
    """
    if not _holds(U, parse_group("SU(2)"), tol, group=True):
        raise DomainError("matrix is not in SU(2)")
    return _rotation(U).astype(complex)


@_entry(1)
def so3_lift(R: np.ndarray, tol: Tolerance = DEFAULT_TOL):
    """The two preimages (U, -U) of a rotation under adjoint_to_so3.

    Shepperd's rule: for the unit quaternion q = (w, x, y, z) of R, the
    entries of P = 4 q q^T are linear in R.  The row of P's largest
    diagonal entry 4 q_i^2 (at least 1, as the diagonal sums to 4) is
    4 q_i q, and normalizing it divides by 4 |q_i| >= 2, so the lift is
    accurate to near machine precision up to and at rotation angle pi.
    The first preimage has trace(U) real and >= 0; at trace zero the sign
    is fixed by the first nonzero quaternion component.
    """
    if not _holds(R, parse_group("SO(3)"), tol, group=True):
        raise DomainError("matrix is not in SO(3)")
    R = R.real
    (a, b, c), (d, e, f), (g, h, k) = R.tolist()  # Python floats: cheaper than numpy here
    t = a + e + k
    P = [[1 + t, h - f, c - g, d - b],  # 4 q q^T for q = (w, x, y, z)
         [h - f, 1 + 2 * a - t, b + d, c + g],
         [c - g, b + d, 1 + 2 * e - t, f + h],
         [d - b, c + g, f + h, 1 + 2 * k - t]]
    q = P[max(range(4), key=lambda i: P[i][i])]
    s = sum(v * v for v in q) ** 0.5
    if next(v for v in q if v) < 0:  # the sign convention
        s = -s
    w, x, y, z = (v / s for v in q)
    U = su2_matrix(complex(w, z), complex(y, x))
    if frobenius_norm(_rotation(U) - R) > 10 * max(tol.abs, 1e-12):
        raise ConvergenceError("lift reconstruction residual exceeds bound")
    return U, -U
