import numpy as np
import pytest

from matrixlie.errors import DomainError
from matrixlie.expmlog import mat_exp
from matrixlie.groups import is_member, su2_matrix
from matrixlie.liealg import E1, E2, E3
from matrixlie.matcore import Tolerance, frobenius_norm
from matrixlie.su2so3 import A1, A2, A3, adjoint_to_so3, so3_lift

TIGHT = Tolerance(abs=1e-15, rel=0.0)


def random_su2(rng):
    v = rng.standard_normal(4)
    v /= np.linalg.norm(v)
    return su2_matrix(v[0] + 1j * v[1], v[2] + 1j * v[3])


def test_basis_orthonormal():
    basis = (A1, A2, A3)
    for i in range(3):
        for j in range(3):
            ip = np.trace(basis[i] @ basis[j]) / 2
            assert ip == (1 if i == j else 0)


def test_identity_and_kernel():
    assert np.allclose(adjoint_to_so3(np.eye(2)), np.eye(3))
    assert np.allclose(adjoint_to_so3(-np.eye(2)), np.eye(3))


def test_two_to_one_structurally():
    rng = np.random.default_rng(20)
    for _ in range(10):
        U = random_su2(rng)
        assert np.array_equal(adjoint_to_so3(U), adjoint_to_so3(-U))


def test_rotation_from_generator():
    U = mat_exp(0.4 * E1, TIGHT)
    R = adjoint_to_so3(U)
    assert is_member(R, "SO(3)", Tolerance(abs=1e-12, rel=0))
    # the A3 axis is fixed by rotations generated by E1
    assert abs(R[2, 2] - 1) <= 1e-12


def test_homomorphism():
    rng = np.random.default_rng(21)
    for _ in range(50):
        U, V = random_su2(rng), random_su2(rng)
        lhs = adjoint_to_so3(U @ V)
        rhs = adjoint_to_so3(U) @ adjoint_to_so3(V)
        assert frobenius_norm(lhs - rhs) <= 1e-10


def test_inner_product_preserved():
    rng = np.random.default_rng(22)
    U = random_su2(rng)
    for B in (A1, A2, A3):
        for C in (A1, A2, A3):
            lhs = np.trace((U @ B @ U.conj().T) @ (U @ C @ U.conj().T)) / 2
            rhs = np.trace(B @ C) / 2
            assert abs(lhs - rhs) <= 1e-12


def test_adjoint_matches_the_nine_traces():
    rng = np.random.default_rng(41)
    basis = (A1, A2, A3)
    for _ in range(20):
        U = random_su2(rng)
        want = [[(np.trace(B @ U @ C @ U.conj().T) / 2).real for C in basis] for B in basis]
        assert np.abs(adjoint_to_so3(U) - np.array(want)).max() <= 1e-15


def test_not_su2_rejected():
    with pytest.raises(DomainError):
        adjoint_to_so3(2 * np.eye(2))
    with pytest.raises(DomainError):
        so3_lift(2 * np.eye(3))


def test_lift_identity():
    U, Um = so3_lift(np.eye(3))
    assert np.allclose(U, np.eye(2)) and np.allclose(Um, -np.eye(2))


def test_lift_round_trip():
    rng = np.random.default_rng(23)
    for _ in range(50):
        U0 = random_su2(rng)
        U, Um = so3_lift(adjoint_to_so3(U0))
        err = min(frobenius_norm(U - U0), frobenius_norm(Um - U0))
        assert err <= 1e-9
        assert np.array_equal(Um, -U)


def test_lift_pi_rotation():
    # rotation by pi about the A3 axis: trace(R) = -1, U traceless
    U0 = mat_exp((np.pi / 2) * 1j * A3, TIGHT)  # = i A3
    R = adjoint_to_so3(U0)
    assert abs(np.trace(R).real + 1) <= 1e-12
    U, Um = so3_lift(R)
    assert abs(np.trace(U)) <= 1e-9
    assert min(frobenius_norm(U - U0), frobenius_norm(Um - U0)) <= 1e-9


def test_collisions_only_at_sign():
    rng = np.random.default_rng(24)
    for _ in range(20):
        U = random_su2(rng)
        V = -U  # constructed collision
        assert frobenius_norm(adjoint_to_so3(U) - adjoint_to_so3(V)) <= 1e-10
        same = frobenius_norm(U - V) <= 1e-10 or frobenius_norm(U + V) <= 1e-10
        assert same


def _rotation_and_lift_mp(w, axis):
    """R rounded to floats, and the exact U of the unit quaternion
    (w, sqrt(1 - w^2) axis/|axis|) under the sign convention, at 40 digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        w, a = mp.mpf(w), [mp.mpf(float(c)) for c in axis]
        s = mp.sqrt(1 - w * w) / mp.sqrt(sum(c * c for c in a))
        x, y, z = (s * c for c in a)
        R = [[1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
             [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
             [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)]]
        if w == 0 and x < 0:  # trace zero: the first nonzero component is positive
            x, y, z = -x, -y, -z
        U = [[mp.mpc(w, z), mp.mpc(-y, x)], [mp.mpc(y, x), mp.mpc(w, -z)]]
        return np.array(R, dtype=float), U


# Largest entry error of the lift against mpmath at 40 digits.  Measured
# maximum 2.0e-16 over 800 seeded axes at each w below; the trace formula,
# with a largest-diagonal fallback within 1e-4 of angle pi, gave 1.1e-12 at
# w = 5.1e-5 and 1.2e-15 at w = 0.05.
LIFT_BOUND = 4e-16


@pytest.mark.parametrize("w", [0, 3e-9, 1e-7, 1e-5, 5.1e-5, 1e-4, 1e-3, 0.05, 0.3])
def test_lift_against_mpmath_up_to_angle_pi(w):
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(19)
    worst = 0.0
    for _ in range(40):
        R, want = _rotation_and_lift_mp(w, rng.standard_normal(3))
        U, Um = so3_lift(R)
        with mp.workdps(40):
            err = max(abs(mp.mpc(complex(U[i, j])) - want[i][j]) for i in range(2) for j in range(2))
        worst = max(worst, float(err))
        assert np.array_equal(Um, -U)
    assert worst <= LIFT_BOUND
