"""Matrix exponential and logarithm.

Both are accurate to machine precision whatever the tolerance: the
exponential scales and squares around a fixed Pade [7/7] approximant, and
the logarithm, on its domain ||A - I|| < 1, takes square roots and then an
[m/m] Pade approximant in Gauss-Legendre form.  Nilpotent/Heisenberg inputs
get exact rational treatment since their series terminate.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    InconsistentSamplesError,
    OutOfDomainError,
)
from .groups import _holds, parse_group
from .matcore import (
    _EPS,
    DEFAULT_TOL,
    Tolerance,
    _check_square,
    _close,
    _count,
    _entry,
    approx_eq,
    frobenius_norm,
    is_rational,
    reye,
    to_complex,
)

__all__ = [
    "mat_exp",
    "mat_exp_nilpotent",
    "mat_log",
    "heisenberg_log",
    "exp_directional_derivative",
    "lie_product_step",
    "OneParamSample",
    "one_param_generator",
    "in_exp_image_sl2r",
]

# Pade [7/7] has a backward error below unit roundoff for ||A||_1 <= theta_7
_THETA7 = 0.9504178996162932


def _exp_scaled(X: np.ndarray, norm: float) -> np.ndarray:
    """e^X for a matrix or a stack of matrices, by scaling and squaring.

    norm is the finite 1-norm of X, or the largest over the stack.  X is
    scaled by 2^-s so that this norm is at most theta_7, the Pade [7/7]
    approximant (V - U)^-1 (V + U) of e^A is taken at the scaled A, and the
    result is squared s times.  It can overflow to inf or nan only when
    norm > 700; callers check.
    """
    # log2(norm) - log2(theta_7), as norm / theta_7 overflows for norm near 1.8e308
    s = math.ceil(math.log2(norm) - math.log2(_THETA7)) if norm > _THETA7 else 0
    A = X * 0.5**s  # exact: s <= 1025, and 0.5**1074 is the least float
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    # the coefficients b_0..b_7 of Higham (2005): e^A ~ (V - U)^-1 (V + U); b_1 I and b_0 I
    # go on the diagonals, every (n+1)-th entry of the fresh W and V, as x + 0.0 = x off them
    W = A6 + 1512.0 * A4 + 277200.0 * A2
    V = 56.0 * A6 + 25200.0 * A4 + 1995840.0 * A2
    W.reshape(*W.shape[:-2], -1)[..., :: X.shape[-1] + 1] += 8648640.0
    V.reshape(*V.shape[:-2], -1)[..., :: X.shape[-1] + 1] += 17297280.0
    U = A @ W
    E = np.linalg.solve(V - U, V + U)  # solve takes a stack as well
    for _ in range(s):
        E = E @ E
    return E


def _exp(X: np.ndarray) -> np.ndarray:
    """mat_exp for a square floating X, in X's dtype: a real X gives a real e^X."""
    with np.errstate(over="ignore", invalid="ignore"):
        norm = float(np.abs(X).sum(axis=0).max())  # inf if a column sum overflows
        if not math.isfinite(norm):
            raise DomainError(f"the 1-norm of X is {norm}; e^X is not finite")
        E = _exp_scaled(X, norm)
    if norm > 700.0 and not np.all(np.isfinite(E)):  # e^700 < 1.8e308
        raise DomainError(f"e^X overflows (||X||_1 = {norm:.6g})")
    return E


def mat_exp(X: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """e^X by Pade [7/7] scaling and squaring (Higham 2005), accurate to
    machine precision and always complex.  `tol` is kept for a uniform
    signature but changes nothing: the cost and the result are fixed.
    e^0 = I exactly.

    Raises DomainError for a non-finite 1-norm or an overflowing result;
    since ||e^X||_1 <= e^||X||_1, an overflow is only possible, and only
    checked, when ||X||_1 > 700.
    """
    X = to_complex(X)
    _check_square(X)  # _exp's 1-norm test rejects a non-finite entry
    return _exp(X)


@_entry(1, exact=True)
def mat_exp_nilpotent(X: np.ndarray) -> np.ndarray:
    """Exact e^X for a nilpotent rational X (the series terminates)."""
    if not is_rational(X):
        raise DomainError("mat_exp_nilpotent requires an exact rational matrix")
    n = X.shape[0]
    if np.linalg.matrix_power(X, n).any():
        raise DomainError(f"matrix is not nilpotent at dimension {n}")
    E = reye(n)
    term = reye(n)
    for m in range(1, n):
        term = term @ X / m
        E = E + term
    return E


@functools.cache
def _gauss_legendre(m: int):
    """The m-point Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(m)
    return (x + 1) / 2, w / 2


def _sqrtm(A: np.ndarray) -> np.ndarray:
    """A^(1/2) by the Denman-Beavers product iteration M <- (2I + M + M^-1)/4,
    Y <- Y (I + M^-1)/2 from M = Y = A (Higham 2008, (6.17)), stopped once
    ||M - I||_F <= n eps."""
    I = np.eye(len(A))
    M = Y = A
    for _ in range(100):
        Mi = np.linalg.inv(M)
        Y = Y @ (I + Mi) / 2
        M = (2 * I + M + Mi) / 4
        if frobenius_norm(M - I) <= len(A) * _EPS:
            return Y
    raise ConvergenceError("Denman-Beavers square root did not converge in 100 steps")


@_entry(1)
def mat_log(A: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """log A for ||A - I||_F < 1, accurate to machine precision whatever `tol`.

    k square roots bring rho = ||A - I||_F to at most 0.9; then log A = 2^k
    int_0^1 (I + tB)^-1 B dt, B = A - I, by m-point Gauss-Legendre in one stacked
    solve (the [m/m] Pade approximant; Higham 2001), m <= 29 the first with
    (rho / (1 + sqrt(1 - rho))^2)^(2m) < eps/2.  Real A gives a real log; log I = 0.
    """
    if not A.imag.any():
        A = A.real
    I = np.eye(len(A))
    B, k = A - I, 0
    rho = frobenius_norm(B)
    if rho >= 1.0:
        raise OutOfDomainError(f"||A - I|| = {rho:.6g} >= 1; outside the logarithm's domain")
    while rho > 0.9:
        A, k = _sqrtm(A), k + 1
        B = A - I
        rho = frobenius_norm(B)
    r = rho / (1 + math.sqrt(1 - rho)) ** 2
    t, w = _gauss_legendre(next(m for m in itertools.count(1) if r ** (2 * m) < _EPS / 2))
    L = w @ np.linalg.solve(I + t[:, None, None] * B, B).reshape(len(w), -1)
    return (2**k * L).reshape(A.shape).astype(complex)


@_entry(1, exact=True)
def heisenberg_log(A: np.ndarray) -> np.ndarray:
    """Exact log of a 3x3 unit upper triangular rational matrix.

    N = A - I satisfies N^3 = 0, so log A = N - N^2/2 exactly, and
    mat_exp_nilpotent inverts it exactly.
    """
    if not is_rational(A) or A.shape != (3, 3):
        raise DomainError("expected a 3x3 exact rational matrix")
    N = A - reye(3)
    if np.tril(N).any():
        raise DomainError("matrix is not unit upper triangular")
    return N - N @ N / 2


@_entry(2)
def exp_directional_derivative(X, Y, terms: int = 20) -> np.ndarray:
    """d/dt e^(X+tY) at t=0: the upper-right block of e^[[X, Y], [0, X]]
    (Van Loan 1978), accurate to machine precision.  `terms` is kept for
    a uniform signature and must be at least 1, but changes nothing.
    """
    _count("terms", terms)
    n = X.shape[0]
    M = np.zeros((2 * n, 2 * n), dtype=complex)  # the gate made X and Y complex
    M[:n, :n] = M[n:, n:] = X
    M[:n, n:] = Y
    return _exp(M)[:n, n:]


@_entry(2)
def lie_product_step(X, Y, m: int) -> np.ndarray:
    """(e^(X/m) e^(Y/m))^m — one step of the Lie product formula, for an int m >= 1."""
    m = _count("m", m)
    F = _exp(X / m) @ _exp(Y / m)
    return np.linalg.matrix_power(F, m)


@dataclass(frozen=True)
class OneParamSample:
    """One observation A(t) of a one-parameter matrix group t -> A(t)."""

    t: float
    value: np.ndarray


def one_param_generator(samples, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Recover X from samples of A(t) = e^(tX).

    Takes log of the sample with smallest positive |t|, divides by t,
    then cross-checks every other sample against e^(tX).
    """
    if len(samples) < 2:
        raise DomainError("need at least 2 samples")
    n = samples[0].value.shape[0]
    ts = [s.t for s in samples]
    if len(set(ts)) != len(ts):
        raise DomainError("sample t values must be distinct")
    zero = next((s for s in samples if s.t == 0), None)
    if zero is None or not approx_eq(zero.value, np.eye(n), tol):
        raise DomainError("samples must include t = 0 with value = I")
    positive = sorted((s for s in samples if s.t != 0), key=lambda s: abs(s.t))
    first = positive[0]
    X = mat_log(first.value) / float(first.t)  # complex128 also for a Fraction t
    for s in samples:
        if not approx_eq(mat_exp(s.t * X), s.value, tol):
            raise InconsistentSamplesError(
                f"sample at t = {s.t} is not generated by the recovered matrix"
            )
    return X


@_entry(1)
def in_exp_image_sl2r(A: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether a real A in SL(2,R) is e^X for some real traceless X.

    True iff trace A > -2 (strictly, with tol.abs margin) or A = -I.  A
    outside SL(2,R), as is_member judges it within tol, raises DomainError.
    """
    if not _holds(A, parse_group("SL(2,R)"), tol, group=True):  # A is gated already
        raise DomainError("matrix is not in SL(2,R)")
    return bool(np.trace(A).real > -2 + tol.abs) or _close(A, -np.eye(2), tol)
