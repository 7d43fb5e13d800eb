"""The two-to-one homomorphism SU(2) -> SO(3) and its inverse lift.

The rotation associated with U in SU(2) is the matrix of A -> U A U* on
the traceless Hermitian 2x2 matrices, written in the orthonormal basis
A1, A2, A3 below (inner product <A,B> = trace(AB)/2).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError, DomainError
from .groups import is_member, parse_group
from .matcore import DEFAULT_TOL, Tolerance, frobenius_norm, to_complex

__all__ = ["A1", "A2", "A3", "adjoint_to_so3", "so3_lift"]

A1 = np.array([[0, 1], [1, 0]], dtype=complex)
A2 = np.array([[0, 1j], [-1j, 0]], dtype=complex)
A3 = np.array([[1, 0], [0, -1]], dtype=complex)
_BASIS = np.array([A1, A2, A3])


def adjoint_to_so3(U: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """3x3 rotation R with R_ij = Re trace(A_i U A_j U*)/2, all nine traces
    in one contraction over the stacked basis.

    A homomorphism onto SO(3) with kernel {I, -I}.
    """
    U = to_complex(U)
    if not is_member(U, parse_group("SU(2)"), tol):
        raise DomainError("matrix is not in SU(2)")
    R = np.einsum("iab,bc,jcd,da->ij", _BASIS, U, _BASIS, U.conj().T).real / 2
    return R.astype(complex)


def _quaternion_to_su2(w: float, x: float, y: float, z: float) -> np.ndarray:
    return np.array(
        [[w + 1j * z, 1j * x - y], [1j * x + y, w - 1j * z]], dtype=complex
    )


def so3_lift(R: np.ndarray, tol: Tolerance = DEFAULT_TOL):
    """The two preimages (U, -U) of a rotation under adjoint_to_so3.

    Extracts the unit quaternion of R from its trace and antisymmetric
    part, with the usual largest-diagonal fallback near rotation angle
    pi.  The first preimage has trace(U) real and >= 0; at trace zero the
    sign is fixed by the first nonzero quaternion component.
    """
    R = to_complex(R)
    if not is_member(R, parse_group("SO(3)"), tol):
        raise DomainError("matrix is not in SO(3)")
    R = R.real
    t = np.trace(R)
    if t > -1 + 1e-8:
        w = math.sqrt(max(0.0, 1 + t)) / 2
        x = (R[2, 1] - R[1, 2]) / (4 * w)
        y = (R[0, 2] - R[2, 0]) / (4 * w)
        z = (R[1, 0] - R[0, 1]) / (4 * w)
    else:
        # rotation angle near pi: w ~ 0, read the axis from the diagonal
        i = int(np.argmax(np.diag(R)))
        j, k = (i + 1) % 3, (i + 2) % 3
        s = math.sqrt(max(0.0, 1 + R[i, i] - R[j, j] - R[k, k])) / 2
        q = [0.0, 0.0, 0.0, 0.0]
        q[1 + i] = s
        q[0] = (R[k, j] - R[j, k]) / (4 * s)
        q[1 + j] = (R[j, i] + R[i, j]) / (4 * s)
        q[1 + k] = (R[k, i] + R[i, k]) / (4 * s)
        w, x, y, z = q
    norm = math.sqrt(w * w + x * x + y * y + z * z)
    w, x, y, z = w / norm, x / norm, y / norm, z / norm
    if w < 0 or (w == 0 and next((c for c in (x, y, z) if c != 0), 1) < 0):
        w, x, y, z = -w, -x, -y, -z
    U = _quaternion_to_su2(w, x, y, z)
    if frobenius_norm(adjoint_to_so3(U, tol) - R) > 10 * max(tol.abs, 1e-12):
        raise ConvergenceError("lift reconstruction residual exceeds bound")
    return U, -U
