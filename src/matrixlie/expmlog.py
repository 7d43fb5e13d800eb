"""Matrix exponential and logarithm.

The exponential is computed by scaling-and-squaring around the power
series; the logarithm by the inverse series, restricted to its proven
convergence domain ||A - I|| < 1.  Nilpotent/Heisenberg inputs get exact
rational treatment since their series terminate.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    InconsistentSamplesError,
    OutOfDomainError,
    ShapeError,
)
from .liealg import bracket
from .matcore import (
    _EPS,
    DEFAULT_TOL,
    Tolerance,
    approx_eq,
    frobenius_norm,
    is_rational,
    rdot,
    reye,
    rzeros,
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

MAX_SERIES_TERMS = 200


def _require_square(X: np.ndarray, name: str = "matrix"):
    if X.ndim != 2 or X.shape[0] != X.shape[1] or not X.size:
        raise ShapeError(f"{name} must be square and nonempty, got shape {X.shape}")


def _exp_scaled(X: np.ndarray, norm: float, tol: Tolerance) -> np.ndarray:
    """e^X for a matrix or a stack of matrices, by scaling-and-squaring.

    norm is the finite Frobenius norm of X, or the largest over the stack.
    X is scaled by 2^-s so that this norm is at most 0.5, the power series
    is summed until the Frobenius norm of a term (every term, for a stack)
    is below max(tol.abs, machine epsilon), and the result is squared s
    times.  It can overflow to inf or nan only when norm > 700; callers
    check.
    """
    s = max(0, math.ceil(math.log2(norm) + 1)) if norm > 0.5 else 0
    Xs = X * 0.5**s  # exact: s <= 1025, and 0.5**1074 is the least float
    E = term = np.eye(X.shape[-1], dtype=complex)
    floor = max(tol.abs, _EPS)
    for k in range(1, MAX_SERIES_TERMS + 1):
        term = term @ Xs / k
        E = E + term
        # a stack's norms are summed without a BLAS dot: OpenBLAS spreads a
        # dot over more than 10000 entries across threads, at a cost of ms
        size = frobenius_norm(term) if term.ndim == 2 else np.linalg.norm(term, axis=(1, 2)).max()
        if size < floor:
            break
    else:
        raise ConvergenceError("exponential series did not converge in 200 terms")
    for _ in range(s):
        E = E @ E
    return E


def mat_exp(X: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """e^X by scaling-and-squaring.

    X is scaled by 2^-s until its Frobenius norm drops below 0.5, the
    power series is summed until a term's norm is below max(tol.abs,
    machine epsilon), and the result is squared s times.  e^0 = I exactly.

    Raises DomainError for a non-finite norm or an overflowing result;
    an overflow is only possible, and only checked, when ||X|| > 700.
    """
    X = np.asarray(X, dtype=complex)
    _require_square(X)
    norm = frobenius_norm(X)
    if not math.isfinite(norm):
        raise DomainError(f"matrix norm is {norm}; e^X is not finite")
    if norm <= 700.0:  # e^700 < 1.8e308, so only a bigger X can overflow
        return _exp_scaled(X, norm, tol)
    with np.errstate(over="ignore", invalid="ignore"):
        E = _exp_scaled(X, norm, tol)
    if not np.all(np.isfinite(E)):
        raise DomainError(f"e^X overflows (||X|| = {norm:.6g})")
    return E


def mat_exp_nilpotent(X: np.ndarray) -> np.ndarray:
    """Exact e^X for a nilpotent rational X (the series terminates)."""
    _require_square(X)
    if not is_rational(X):
        raise DomainError("mat_exp_nilpotent requires an exact rational matrix")
    n = X.shape[0]
    P = X.copy()
    for _ in range(n - 1):
        P = rdot(P, X)
    if any(P[i, j] != 0 for i in range(n) for j in range(n)):
        raise DomainError(f"matrix is not nilpotent at dimension {n}")
    E = reye(n)
    term = reye(n)
    for m in range(1, n):
        term = rdot(term, X) / Fraction(m)
        E = E + term
    return E


def mat_log(A: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """log A via the series sum (-1)^(m+1) (A-I)^m / m.

    Requires finite entries and ||A - I|| < 1 (Frobenius); real input
    yields real output.  The series stops once a term's norm is below
    max(tol.abs, machine epsilon).
    """
    A = np.asarray(A)
    _require_square(A)
    n = A.shape[0]
    real_input = not (np.iscomplexobj(A) and np.any(A.imag != 0))
    A = A.astype(complex)
    B = A - np.eye(n)
    norm = frobenius_norm(B)
    if not math.isfinite(norm):
        raise DomainError(f"||A - I|| is {norm}; log A is not defined")
    if norm >= 1.0:
        raise OutOfDomainError(f"||A - I|| = {norm:.6g} >= 1; logarithm series diverges")
    L = np.zeros((n, n), dtype=complex)
    P = np.eye(n, dtype=complex)
    floor = max(tol.abs, _EPS)
    for m in range(1, MAX_SERIES_TERMS + 1):
        P = P @ B
        term = ((-1) ** (m + 1)) * P / m
        L = L + term
        if frobenius_norm(term) < floor:
            break
    else:
        raise ConvergenceError("logarithm series did not converge in 200 terms")
    return L.real.astype(complex) if real_input else L


def heisenberg_log(A: np.ndarray) -> np.ndarray:
    """Exact log of a 3x3 unit upper triangular rational matrix.

    N = A - I satisfies N^3 = 0, so log A = N - N^2/2 exactly, and
    mat_exp_nilpotent inverts it exactly.
    """
    if not is_rational(A) or A.shape != (3, 3):
        raise DomainError("expected a 3x3 exact rational matrix")
    if any(A[i, i] != 1 for i in range(3)) or any(
        A[i, j] != 0 for i in range(3) for j in range(i)
    ):
        raise DomainError("matrix is not unit upper triangular")
    N = A - reye(3)
    return N - rdot(N, N) / Fraction(2)


def exp_directional_derivative(X, Y, terms: int = 20) -> np.ndarray:
    """d/dt e^(X+tY) at t=0, as e^X times a truncated ad-series.

    Returns mat_exp(X) . sum_{k<terms} (-1)^k (ad X)^k (Y) / (k+1)!.
    """
    X = np.asarray(X, dtype=complex)
    Y = np.asarray(Y, dtype=complex)
    _require_square(X)
    if X.shape != Y.shape:
        raise ShapeError(f"shape mismatch: {X.shape} vs {Y.shape}")
    if terms < 1:
        raise DomainError(f"terms must be >= 1, got {terms}")
    S = np.zeros_like(Y)
    adk = Y.copy()
    for k in range(terms):
        S = S + ((-1) ** k) * adk / math.factorial(k + 1)
        adk = bracket(X, adk)
    return mat_exp(X, Tolerance(abs=1e-15, rel=0.0)) @ S


def lie_product_step(X, Y, m: int) -> np.ndarray:
    """(e^(X/m) e^(Y/m))^m — one step of the Lie product formula, for an int m >= 1."""
    if isinstance(m, bool) or not isinstance(m, numbers.Integral) or m < 1:
        raise DomainError(f"m must be an integer >= 1, got {m!r}")
    X = np.asarray(X, dtype=complex)
    Y = np.asarray(Y, dtype=complex)
    _require_square(X)
    if X.shape != Y.shape:
        raise ShapeError(f"shape mismatch: {X.shape} vs {Y.shape}")
    tight = Tolerance(abs=1e-15, rel=0.0)
    F = mat_exp(X / m, tight) @ mat_exp(Y / m, tight)
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
    X = mat_log(first.value, Tolerance(abs=1e-15, rel=0.0)) / first.t
    for s in samples:
        if not approx_eq(mat_exp(s.t * X, Tolerance(abs=1e-15, rel=0.0)), s.value, tol):
            raise InconsistentSamplesError(
                f"sample at t = {s.t} is not generated by the recovered matrix"
            )
    return X


def in_exp_image_sl2r(A: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether a real A in SL(2,R) is e^X for some real traceless X.

    True iff trace A > -2 (strictly, with tol.abs margin) or A = -I.
    """
    A = np.asarray(A, dtype=complex)
    if A.shape != (2, 2):
        raise ShapeError("expected a 2x2 matrix")
    if not np.all(np.isfinite(A)):
        raise DomainError("matrix entries must be finite")
    if np.any(np.abs(A.imag) > tol.abs):
        raise DomainError("matrix must be real")
    det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    if abs(det - 1) > tol.abs + tol.rel:
        raise DomainError("matrix must have determinant 1")
    tr = (A[0, 0] + A[1, 1]).real
    if tr > -2 + tol.abs:
        return True
    return approx_eq(A, -np.eye(2), tol)
