"""Baker-Campbell-Hausdorff in three forms.

* closed form X + Y + [X,Y]/2, exact when X and Y commute with [X,Y];
* the commutator series through third order;
* numerical evaluation of the integral formula
  Z = X + int_0^1 g(e^(ad X) e^(t ad Y))(Y) dt
  with ad materialized as a concrete matrix in a chosen basis.
"""

from __future__ import annotations

import functools
import math
import threading
from fractions import Fraction

import numpy as np

from .errors import DomainError, OutOfDomainError
from .expmlog import _exp, _exp_scaled
from .liealg import Basis, _coords, ad_matrix, bracket
from .matcore import _count, _entry, _integer, frobenius_norm, is_rational, reye

_commutator = bracket.__wrapped__  # for matrices that an entry point has gated
_PS_DOUBLINGS = 2  # _g_series sums blocks of s = 2^2 terms; 8 was slower on gl(4)
_SCRATCH_BYTES = 8 << 20  # node stacks a thread keeps: reuse saved >= 19% of a call below it (README)
_scratch = threading.local()  # per thread: a buffer that only grows, and the views cut from it

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
    if _integer(order, 1) not in (1, 2, 3):
        raise ValueError("order must be 1, 2, or 3")
    Z = X + Y
    if order >= 2:
        C = _commutator(X, Y)
        Z = Z + C / 2
    if order >= 3:
        Z = Z + _commutator(X, C) / 12 - _commutator(Y, C) / 12
    return Z


@functools.lru_cache(maxsize=16)
def _g_coefficients(terms: int, exact: bool) -> np.ndarray:
    """The read-only blocks C[k, j] = c_(ks+j) of _g_series; Fractions if exact."""
    one = Fraction(1) if exact else 1.0
    c = [one] + [-one / (m * (m + 1)) for m in range(1, terms + 1)]
    C = np.array(c + [0 * one] * (-len(c) % 2**_PS_DOUBLINGS)).reshape(-1, 2**_PS_DOUBLINGS)
    C.flags.writeable = False
    return C


def _g_series(B, V, terms: int, powers=(None,) * _PS_DOUBLINGS):
    """g(I - B) V = V - sum_{m=1..terms} B^m V / (m(m+1)), for a matrix B or
    a stack of them; V = I gives g(I - B), exact for exact B.  Paterson-Stockmeyer
    (1973): one product sums each block of s terms from W[j] = B^j V, j < s,
    and Horner's rule in B^s joins the blocks; C is built once per terms (`_g_coefficients`).
    B^2 and B^4 go into `powers`, stacks like B that overlap neither B nor V (None: new ones)."""
    C = _g_coefficients(terms, B.dtype == object)
    W, P = np.broadcast_to(V, (1, *B.shape[:-1], V.shape[-1])), B
    for out in powers:  # W[j] = B^j V for j < 2^i, and P = B^(2^i)
        W = np.concatenate((W, P @ W))
        P = np.matmul(P, P, out=out)
    S = (C @ W.reshape(len(W), -1)).reshape(-1, *W.shape[1:])  # S[k] = sum_j c_(ks+j) B^j V
    return functools.reduce(lambda G, Sk: Sk + P @ G, S[-2::-1], S[-1])  # Horner in P


@_entry(1, exact=True)
def g_operator(M: np.ndarray, terms: int = 30) -> np.ndarray:
    """g(M) for g(z) = 1 + sum_{n>=1} (-1)^(n+1) / (n(n+1)) (z-1)^n.

    Requires ||M - I|| < 1, unless M - I is nilpotent (then the series
    terminates exactly).
    """
    terms = _count("terms", terms)
    n = M.shape[0]
    I = reye(n) if is_rational(M) else np.eye(n, dtype=complex)
    B = I - M  # g(M) = 1 - sum_{m>=1} B^m / (m(m+1))
    Bn = np.linalg.matrix_power(B, n)
    if not _is_zero(Bn) and frobenius_norm(B) >= 1.0:
        raise OutOfDomainError("||M - I|| >= 1 and M - I is not nilpotent")
    if not Bn.any():  # B^m is exactly zero from m = n on
        terms = min(terms, n - 1)
    return _g_series(B, I, terms)


def _node_stacks(shape: tuple, dtype: np.dtype) -> tuple:
    """bch_integral's uninitialized node stack and the g series' B^2 and B^4, as views of this
    thread's buffer while the three fit in _SCRATCH_BYTES, so that warm calls fault in no pages."""
    if (views := getattr(_scratch, "views", {}).get((shape, dtype))) is not None:
        return views
    stacks, buffer = (1 + _PS_DOUBLINGS, *shape), getattr(_scratch, "buffer", b"")
    if (size := math.prod(stacks) * dtype.itemsize) > _SCRATCH_BYTES:  # so that no thread keeps more
        return tuple(np.empty(stacks, dtype))
    if size > len(buffer) or len(_scratch.views) >= 16:  # the old views, and so the old buffer, go
        _scratch.buffer, _scratch.views = np.empty(max(size, len(buffer)), np.uint8), {}
    views = _scratch.views[shape, dtype] = tuple(_scratch.buffer[:size].view(dtype).reshape(stacks))
    return views


@functools.lru_cache(maxsize=16)
def _simpson_plan(quad_points: int):
    """Composite Simpson on quad_points panels of width h: h, and the read-only node
    times t (0, then a + h/2 and a + h per panel start a), weights w and steps."""
    h = 1.0 / quad_points
    a = np.arange(quad_points) * h
    t = np.zeros(2 * quad_points + 1)
    t[1::2], t[2::2] = a + h / 2, a + h
    w = np.full(t.size, 2.0)
    w[1::2], w[0], w[-1] = 4.0, 1.0, 1.0
    steps = 2.0 ** np.arange((2 * quad_points).bit_length()) * (h / 2)
    t.flags.writeable = w.flags.writeable = steps.flags.writeable = False
    return h, t, w, steps


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
    from `ad_matrix`, and the coordinates of Y from one exact elimination
    (`_coords`); Y must lie exactly in its span (DomainError otherwise).

    All 2 quad_points + 1 nodes t_k = k h/2 (times, weights and steps kept per
    quad_points by `_simpson_plan`) fill one stack of `_node_stacks`: node k is node
    k - 2^j times e^(2^j (h/2) ad Y), 2^j the top bit of k, so one stacked
    exponential of bit_length(2 quad_points) factors, and one product per
    factor, build them from e^(ad X); I minus them then overwrites them.
    The g series is applied to the coordinates of Y in blocks of terms
    (`_g_series`) rather than formed as a matrix.  When ad X, ad Y and the
    coordinates of Y have no nonzero imaginary part, as on gl(n,R), su(2) or
    so(3), all of this runs in real arithmetic; the result is complex either
    way.  On gl(n) that is read off X and Y before ad is built: ad X is real
    when Im X is a multiple of I, and the coordinates when Y is real.
    Every node must satisfy ||e^(ad X) e^(t ad Y) - I|| < 1; otherwise
    OutOfDomainError names the first failing node in ascending t.
    """
    quad_points, terms = _count("quad_points", quad_points), _count("terms", terms)
    n = X.shape[0]
    if basis is None:  # the row-major elementary basis E_ij of gl(n)
        S, In = np.stack((X, Y)), np.eye(n)  # ad Z[(i,j),(k,l)] = Z[i,k] I[j,l] - I[i,k] Z[l,j]
        S = S if Y.imag.any() or (X.imag - X.imag[0, 0] * In).any() else S.real  # ad(icI) = 0
        adS = np.einsum("zik,jl->zijkl", S, In) - np.einsum("ik,zlj->zijkl", In, S)
        adX, adY = adS.reshape(2, n * n, n * n)
        y = S[1].ravel()
    else:
        adX, adY = ad_matrix(X, basis), ad_matrix(Y, basis)  # complex, as X and Y are
        if (y := _coords([Y], basis.elements)) is None:  # complex, as Y is
            raise DomainError("Y does not lie in the span of the basis")
        y = y[:, 0]
        elements = np.asarray(basis.elements, dtype=complex)
        if not (adX.imag.any() or adY.imag.any() or y.imag.any()):  # a real algebra
            adX, adY, y = adX.real, adY.real, y.real
    h, t, w, steps = _simpson_plan(quad_points)
    normY = float(np.abs(adY).sum(axis=0).max())
    if not (np.isfinite(adX).all() and normY < np.inf):  # _exp checks the norm of ad X
        raise DomainError("ad X or ad Y overflows")
    EadX = _exp(adX)
    I = np.eye(N := len(y))
    if not frobenius_norm(EadX - I) < 1.0:  # the node t = 0 needs no e^(t ad Y)
        raise _outside(0.0)
    # the factors' largest norm is at most ||ad Y||_1.  One can overflow only
    # when ||ad Y||_1 > 700; node 2^j, at or before every node that uses it,
    # is then inf or nan, and its distance fails the test below
    B, *powers = _node_stacks((t.size, N, N), EadX.dtype)  # the nodes, then I minus them
    B[0], rows = EadX, B.reshape(-1, N)  # node k is rows kN to kN + N - 1
    for j, F in enumerate(_exp_scaled(steps[:, None, None] * adY, steps[-1] * normY)):
        lo, hi = 2**j, min(2 ** (j + 1), t.size)  # node lo + i is node i times F
        np.matmul(rows[: (hi - lo) * N], F, out=rows[lo * N : hi * N])
    R = np.subtract(I, B, out=B).view(float)  # I minus the nodes; any complex part apart
    out = np.flatnonzero(~(np.einsum("kij,kij->k", R, R) < 1.0))  # squared distances
    if out.size:
        raise _outside(float(t[out[0]]))
    G = _g_series(B, y[:, None], terms, powers)[:, :, 0]  # g(e^(adX) e^(t adY)) y per node
    v = (h / 6) * (w @ G)  # the coordinates of Z - X
    return X + (v.reshape(n, n) if basis is None else np.tensordot(v, elements, axes=1))
