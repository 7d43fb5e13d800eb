"""Accuracy of the floating functions that had only scipy, or nothing, as a
reference: each is checked against mpmath at 40 digits on 30 seeded draws,
n = 2..5, with det A = 1 and ||X||_F = ||Y||_F = 1.  The errors are relative
Frobenius errors; each bound is twice the largest error measured over the
draws, rounded up."""

import numpy as np
import pytest

from matrixlie.expmlog import exp_directional_derivative, lie_product_step
from matrixlie.groups import polar_decompose_sl
from matrixlie.liealg import Ad_apply

mp = pytest.importorskip("mpmath")

# measured maxima over the 30 draws: R 4.8e-15, H 2.8e-15, derivative
# 1.1e-15, product step 1.7e-14, Ad 4.6e-15
BOUNDS = {"R": 1e-14, "H": 6e-15, "derivative": 3e-15, "product": 4e-14, "Ad": 1e-14}


def _draws():
    """(A, X, Y, m): A real with det A = 1, X and Y complex of unit norm, 1 <= m <= 49."""
    rng = np.random.default_rng(2026)
    for k in range(30):
        n = 2 + k % 4
        A = rng.standard_normal((n, n))
        A[0] *= np.sign(np.linalg.det(A))
        A /= np.linalg.det(A) ** (1 / n)
        X, Y = (B / np.linalg.norm(B) for B in (
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(2)))
        yield A, X, Y, int(rng.integers(1, 50))


def _mp(M):
    return mp.matrix(M.tolist())


def _rel_err(got, want) -> float:
    want = np.array(want.tolist(), dtype=complex)
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


def _errors() -> dict:
    worst = dict.fromkeys(BOUNDS, 0.0)
    with mp.workdps(40):
        for A, X, Y, m in _draws():
            R, H = polar_decompose_sl(A)
            mA, mX, mY = _mp(A), _mp(X), _mp(Y)
            wantH = mp.sqrtm(mA.T * mA)  # A = R H: H = (A^T A)^(1/2), R = A H^-1
            h = mp.mpf("1e-12")  # a central difference: its error is O(h^2)
            wants = {"R": mA * wantH**-1, "H": wantH,
                     "derivative": (mp.expm(mX + h * mY) - mp.expm(mX - h * mY)) / (2 * h),
                     "product": (mp.expm(mX / m) * mp.expm(mY / m)) ** m,
                     "Ad": mA * mX * mA**-1}
            gots = {"R": R, "H": H, "derivative": exp_directional_derivative(X, Y),
                    "product": lie_product_step(X, Y, m), "Ad": Ad_apply(A, X)}
            for key, want in wants.items():
                worst[key] = max(worst[key], _rel_err(gots[key], want))
    return worst


@pytest.fixture(scope="module")
def errors():
    return _errors()


@pytest.mark.parametrize("key", sorted(BOUNDS))
def test_against_mpmath(errors, key):
    assert errors[key] <= BOUNDS[key]
