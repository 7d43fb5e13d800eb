"""Baker-Campbell-Hausdorff in three forms.

* closed form X + Y + [X,Y]/2, exact when X and Y commute with [X,Y];
* the commutator series through third order;
* numerical evaluation of the integral formula
  Z = X + int_0^1 g(e^(ad X) e^(t ad Y))(Y) dt
  with ad materialized as a concrete matrix in a chosen basis.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, OutOfDomainError, ShapeError
from .expmlog import mat_exp
from .liealg import Basis, _coords, ad_matrix, bracket, gl_basis
from .matcore import Tolerance, frobenius_norm, is_rational, reye, to_complex

__all__ = ["bch_heisenberg", "bch_series", "g_operator", "bch_integral"]


def _is_zero(M, tol_abs=1e-12) -> bool:
    if is_rational(M):
        return all(x == 0 for x in M.flat)
    return frobenius_norm(M) <= tol_abs


def bch_heisenberg(X, Y):
    """Z with e^X e^Y = e^Z when X, Y commute with their commutator.

    Z = X + Y + [X,Y]/2; exact for rational inputs.
    """
    C = bracket(X, Y)
    if not (_is_zero(bracket(X, C)) and _is_zero(bracket(Y, C))):
        raise DomainError("inputs must commute with their commutator")
    return X + Y + C / 2


def bch_series(X, Y, order: int = 3):
    """Partial BCH sum: X+Y, then +[X,Y]/2, then +/-[.,[X,Y]]/12 terms."""
    if order not in (1, 2, 3):
        raise ValueError("order must be 1, 2, or 3")
    if X.shape != Y.shape or X.shape[0] != X.shape[1]:
        raise ShapeError(f"need equal square shapes, got {X.shape}, {Y.shape}")
    Z = X + Y
    if order >= 2:
        C = bracket(X, Y)
        Z = Z + C / 2
    if order >= 3:
        Z = Z + bracket(X, C) / 12 - bracket(Y, C) / 12
    return Z


def g_operator(M: np.ndarray, terms: int = 30) -> np.ndarray:
    """g(M) for g(z) = 1 + sum_{n>=1} (-1)^(n+1) / (n(n+1)) (z-1)^n.

    Requires ||M - I|| < 1, unless M - I is nilpotent (then the series
    terminates exactly).
    """
    n = M.shape[0]
    if M.shape[1] != n:
        raise ShapeError("g_operator needs a square matrix")
    I = reye(n) if is_rational(M) else np.eye(n, dtype=complex)
    B = I - M  # g(M) = 1 - sum_{m>=1} B^m / (m(m+1))
    Bn = np.linalg.matrix_power(B, n)
    if not _is_zero(Bn) and frobenius_norm(B) >= 1.0:
        raise OutOfDomainError("||M - I|| >= 1 and M - I is not nilpotent")
    if not Bn.any():  # B^m is exactly zero from m = n on
        terms = min(terms, n - 1)
    G = P = I
    for m in range(1, terms + 1):
        P = P @ B
        G = G - P / (m * (m + 1))
    return G


def bch_integral(
    X,
    Y,
    quad_points: int = 64,
    terms: int = 30,
    basis: Basis | None = None,
) -> np.ndarray:
    """Z = X + int_0^1 g(e^(ad X) e^(t ad Y))(Y) dt by composite Simpson.

    ad X and ad Y are materialized in `basis` (default: the full
    elementary basis of gl(n)), in which Y must lie exactly (DomainError
    otherwise; gl(n) spans everything).  Every quadrature node must satisfy
    ||e^(ad X) e^(t ad Y) - I|| < 1 or an out-of-domain error is raised.
    """
    if quad_points < 1:
        raise DomainError(f"quad_points must be at least 1, got {quad_points}")
    X = to_complex(X) if is_rational(X) else np.asarray(X, dtype=complex)
    Y = to_complex(Y) if is_rational(Y) else np.asarray(Y, dtype=complex)
    if X.shape != Y.shape or X.shape[0] != X.shape[1]:
        raise ShapeError(f"need equal square shapes, got {X.shape}, {Y.shape}")
    n = X.shape[0]
    if basis is None:
        basis = gl_basis(n)
    adX = ad_matrix(X, basis)
    adY = ad_matrix(Y, basis)
    coords = _coords([Y], basis.elements)
    if coords is None:
        raise DomainError("Y does not lie in the span of the basis")
    re, im = coords
    y = re[:, 0].astype(complex) + 1j * im[:, 0].astype(complex)
    tight = Tolerance(abs=1e-15, rel=0.0)
    EadX = mat_exp(adX, tight)
    d = len(basis)

    def integrand(t: float) -> np.ndarray:
        M = EadX @ mat_exp(t * adY, tight)
        if frobenius_norm(M - np.eye(d)) >= 1.0:
            raise OutOfDomainError(
                f"||e^(adX) e^(t adY) - I|| >= 1 at quadrature node t = {t}"
            )
        return g_operator(M, terms) @ y

    # composite Simpson: quad_points panels, each sampled at its
    # endpoints and midpoint
    h = 1.0 / quad_points
    total = np.zeros(d, dtype=complex)
    left = integrand(0.0)
    for i in range(quad_points):
        a = i * h
        mid = integrand(a + h / 2)
        right = integrand(a + h)
        total = total + (h / 6) * (left + 4 * mid + right)
        left = right
    Z = X.copy()
    for c, b in zip(total, basis.elements):
        Z = Z + c * np.asarray(b, dtype=complex)
    return Z
