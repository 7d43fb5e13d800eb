"""Baker-Campbell-Hausdorff in three forms.

* closed form X + Y + [X,Y]/2, exact when X and Y commute with [X,Y];
* the commutator series through third order;
* numerical evaluation of the integral formula
  Z = X + int_0^1 g(e^(ad X) e^(t ad Y))(Y) dt
  with ad materialized as a concrete matrix in a chosen basis.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ClosureError, DomainError, OutOfDomainError
from .expmlog import _exp, _exp_scaled
from .liealg import Basis, _coords, _floating, bracket
from .matcore import _entry, frobenius_norm, is_rational, reye

_commutator = bracket.__wrapped__  # for matrices that an entry point has gated

__all__ = ["bch_heisenberg", "bch_series", "g_operator", "bch_integral"]


def _is_zero(M, *scale) -> bool:
    """M = 0: exactly for rational M, else to 1e-12 times the product of
    the Frobenius norms of the matrices in `scale`."""
    if is_rational(M):
        return not M.any()
    return frobenius_norm(M) <= 1e-12 * math.prod(map(frobenius_norm, scale))


@_entry(2, exact=True)
def bch_heisenberg(X, Y):
    """Z with e^X e^Y = e^Z when X, Y commute with their commutator.

    Z = X + Y + [X,Y]/2; exact for rational inputs, floating if either
    input is floating.  For floating input the commutation is tested
    relative to the inputs: ||[A, C]|| <= 1e-12 ||A|| ||X|| ||Y|| for
    C = [X, Y] and A = X, Y.  The bound scales with the inputs, not with C,
    since a C that is only rounding noise must still pass.
    """
    C = _commutator(X, Y)
    if not all(_is_zero(_commutator(A, C), A, X, Y) for A in (X, Y)):
        raise DomainError("inputs must commute with their commutator")
    return X + Y + C / 2


@_entry(2, exact=True)
def bch_series(X, Y, order: int = 3):
    """Partial BCH sum: X+Y, then +[X,Y]/2, then +/-[.,[X,Y]]/12 terms.

    Exact for rational inputs, floating if either input is floating.
    """
    if order not in (1, 2, 3):
        raise ValueError("order must be 1, 2, or 3")
    Z = X + Y
    if order >= 2:
        C = _commutator(X, Y)
        Z = Z + C / 2
    if order >= 3:
        Z = Z + _commutator(X, C) / 12 - _commutator(Y, C) / 12
    return Z


def _g_series(B, V, terms: int):
    """g(I - B) V = V - sum_{m=1..terms} B^m V / (m(m+1)), for a matrix B or
    a stack of them; V = I gives the matrix g(I - B)."""
    G = P = V
    for m in range(1, terms + 1):
        P = B @ P
        G = G - P / (m * (m + 1))
    return G


@_entry(1, exact=True)
def g_operator(M: np.ndarray, terms: int = 30) -> np.ndarray:
    """g(M) for g(z) = 1 + sum_{n>=1} (-1)^(n+1) / (n(n+1)) (z-1)^n.

    Requires ||M - I|| < 1, unless M - I is nilpotent (then the series
    terminates exactly).
    """
    if terms < 1:
        raise DomainError(f"terms must be at least 1, got {terms}")
    n = M.shape[0]
    I = reye(n) if is_rational(M) else np.eye(n, dtype=complex)
    B = I - M  # g(M) = 1 - sum_{m>=1} B^m / (m(m+1))
    Bn = np.linalg.matrix_power(B, n)
    if not _is_zero(Bn) and frobenius_norm(B) >= 1.0:
        raise OutOfDomainError("||M - I|| >= 1 and M - I is not nilpotent")
    if not Bn.any():  # B^m is exactly zero from m = n on
        terms = min(terms, n - 1)
    return _g_series(B, I, terms)


def _outside(t: float) -> OutOfDomainError:
    return OutOfDomainError(f"||e^(adX) e^(t adY) - I|| >= 1 at quadrature node t = {t}")


@_entry(2)
def bch_integral(
    X,
    Y,
    quad_points: int = 64,
    terms: int = 30,
    basis: Basis | None = None,
) -> np.ndarray:
    """Z = X + int_0^1 g(e^(ad X) e^(t ad Y))(Y) dt by composite Simpson.

    ad X and ad Y are matrices on the coordinates of a basis.  By default
    the basis is the row-major elementary basis of gl(n), where
    ad Z = Z (x) I - I (x) Z^T in closed form.  A custom `basis` gets them
    from one exact elimination (`_coords`), together with the coordinates
    of Y, which must lie exactly in its span (DomainError otherwise).

    All 2 quad_points + 1 nodes t_k = k h/2 are evaluated as one stack: node
    k is node k - 2^j times e^(2^j (h/2) ad Y), 2^j the top bit of k, so one
    stacked exponential of bit_length(2 quad_points) factors and 2 quad_points
    products build them all from e^(ad X).  The g series is applied to the
    coordinates of Y rather than formed as a matrix.  When ad X, ad Y and
    the coordinates of Y have no nonzero imaginary part, as on gl(n,R),
    su(2) or so(3), all of this runs in real arithmetic; the result is
    complex either way.
    Every node must satisfy ||e^(ad X) e^(t ad Y) - I|| < 1; otherwise
    OutOfDomainError names the first failing node in ascending t.
    """
    if quad_points < 1:
        raise DomainError(f"quad_points must be at least 1, got {quad_points}")
    if terms < 1:
        raise DomainError(f"terms must be at least 1, got {terms}")
    n = X.shape[0]
    if basis is None:  # the row-major elementary basis E_ij of gl(n)
        S, In = np.stack((X, Y)), np.eye(n)  # ad Z[(i,j),(k,l)] = Z[i,k] I[j,l] - I[i,k] Z[l,j]
        adS = np.einsum("zik,jl->zijkl", S, In) - np.einsum("ik,zlj->zijkl", In, S)
        adX, adY = adS.reshape(2, n * n, n * n)  # checked below
        y, elements = Y.ravel(), np.eye(n * n).reshape(-1, n, n)
    else:
        # one elimination gives ad X, ad Y (the coordinates of the brackets
        # with each basis element) and the coordinates of Y
        d = len(basis)
        brackets = [bracket(Z, b) for Z in (X, Y) for b in basis.elements]
        coords = _coords(brackets + [Y], basis.elements)
        if coords is None:
            if _coords(brackets, basis.elements) is None:
                raise ClosureError("bracket leaves the span of the basis")
            raise DomainError("Y does not lie in the span of the basis")
        C = _floating(*coords)
        adX, adY, y = C[:, :d], C[:, d : 2 * d], C[:, 2 * d]
        elements = np.asarray(basis.elements, dtype=complex)
    if not (adX.imag.any() or adY.imag.any() or y.imag.any()):  # a real algebra
        adX, adY, y = adX.real, adY.real, y.real
    # composite Simpson: quad_points panels of width h, each sampled at its
    # endpoints and midpoint; t, the nodes as reported, is a + h/2 and a + h
    h = 1.0 / quad_points
    a = np.arange(quad_points) * h
    t = np.zeros(2 * quad_points + 1)
    t[1::2], t[2::2] = a + h / 2, a + h
    w = np.full(t.size, 2.0)
    w[1::2], w[0], w[-1] = 4.0, 1.0, 1.0
    normY = float(np.abs(adY).sum(axis=0).max())
    if not (np.isfinite(adX).all() and normY < np.inf):  # _exp checks the norm of ad X
        raise DomainError("ad X or ad Y overflows")
    EadX = _exp(adX)
    I = np.eye(len(y))
    if not frobenius_norm(EadX - I) < 1.0:  # the node t = 0 needs no e^(t ad Y)
        raise _outside(0.0)
    # the factors' largest norm is at most ||ad Y||_1.  One can overflow only
    # when ||ad Y||_1 > 700; node 2^j, at or before every node that uses it,
    # is then inf or nan, and its distance fails the test below
    steps = 2.0 ** np.arange((2 * quad_points).bit_length()) * (h / 2)
    Q = EadX  # the rows of the nodes built so far, node after node
    for F in _exp_scaled(steps[:, None, None] * adY, steps[-1] * normY):
        Q = np.concatenate((Q, Q[: t.size * len(y) - len(Q)] @ F))
    B = I - Q.reshape(t.size, *I.shape)
    dist = np.linalg.norm(B, axis=(1, 2))
    out = np.flatnonzero(~(dist < 1.0))
    if out.size:
        raise _outside(float(t[out[0]]))
    G = _g_series(B, y[:, None], terms)[:, :, 0]  # g(e^(adX) e^(t adY)) y per node
    return X + np.tensordot((h / 6) * (w @ G), elements, axes=1)
