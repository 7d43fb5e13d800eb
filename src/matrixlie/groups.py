"""Matrix Lie groups: identifiers, membership predicates, constructors.

Groups are named by strings like "SO(3)", "SU(2)", "O(3,1)", "Sp(2,R)",
"SL(2,C)", "Heis", "E(3)", "P(3,1)"; their Lie algebras by the same names
in lower case ("so(3)", "su(2)", ...).  This module owns that grammar and
the defining identity of every family: each group is the set of matrices
preserving some forms F (A^T F A = F or A^* F A = F), and its algebra is
the linearised condition X^T F = -F X (or X^* F = -F X).  Membership is
always tested against that identity within a tolerance.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError
from .matcore import (DEFAULT_TOL, Tolerance, _check_square, _close, _count, _entry, _finite,
                      _integer, _relative_det, is_rational, rmat, to_complex)

__all__ = [
    "GroupId",
    "parse_group",
    "is_member",
    "su2_matrix",
    "metric_g",
    "symplectic_J",
    "euclidean_embed",
    "polar_decompose_sl",
    "o11_component",
]

# ---------------------------------------------------------------------------
# name grammar

_R, _C = ("", "R"), ("", "C")
_FIELD = {"n": _R, "nR": _R, "nC": _C}
_ORTHO = {"n": _R, "nR": _R, "nC": ("C", "C"), "nk": ("K", "R")}

# group token -> {argument shape -> (family suffix, field)}.  The shapes
# are "" (bare), "n", "nR", "nC" and "nk"; the family is the token plus
# the suffix ("SO" + "K" = "SOK").  The algebra token is the lowercased
# group token ("so" + "K" = "soK"), except that O has none: o(n) is so(n).
_TOKENS = {
    "GL": _FIELD,
    "SL": _FIELD,
    "U": {"n": _C},
    "SU": {"n": _C},
    "E": {"n": _R},
    "O": _ORTHO,
    "SO": _ORTHO,
    "Sp": {"n": _C, "nR": ("R", "R"), "nC": ("C", "C")},  # Sp(n) is compact
    "P": {"nk": _R},
    "Heis": {"": _R},
}
_ALGEBRA_TOKENS = {t.lower(): t for t in _TOKENS if t != "O"}

_NAME_RE = re.compile(r"([A-Za-z]+)(?:\(([1-9][0-9]*)(?:,(R|C|[1-9][0-9]*))?\))?")


@dataclass(frozen=True)
class LieId:
    """A parsed group or algebra name; the family keeps the name's case."""

    family: str  # e.g. GL, SO, SOC, SOK, SpR, Heis; gl, so, soC, soK, spR, heis
    n: int
    k: int = 0
    field: str = "R"  # "R" or "C"

    @property
    def matrix_dim(self) -> int:
        """Ambient square-matrix size for members of this group or algebra."""
        fam = self.family.lower()
        base = 2 * self.n if fam.startswith("sp") else self.n + self.k
        return base + _spec(fam).affine


GroupId = LieId


# LieId is frozen, so callers may share one; a bad name raises on every call,
# as errors are not cached; bounded, as the grammar admits any n
@functools.lru_cache(maxsize=256)
def _parse(s: str, group: bool) -> LieId:
    m = _NAME_RE.fullmatch(s)
    token = m and (m[1] if group else _ALGEBRA_TOKENS.get(m[1]))
    shapes = _TOKENS.get(token, {})
    n, arg = (m[2], m[3]) if m else (None, None)
    shape = "" if n is None else "n" + ("" if arg is None else arg if arg in "RC" else "k")
    if shape not in shapes:
        raise ValueError(f"cannot parse {'group' if group else 'algebra'} name {s!r}")
    suffix, field = shapes[shape]
    # the bare Heisenberg name is the 3x3 group
    return LieId(m[1] + suffix, int(n or 3), int(arg) if shape == "nk" else 0, field)


def _of_kind(lid: LieId, group: bool) -> LieId:
    """lid if it names a group (group true) or an algebra, told by the case
    of its family; else DomainError."""
    if lid.family[:1].isupper() != group:
        raise DomainError(f"expected {'a group' if group else 'an algebra'} id, got {lid}")
    return lid


def parse_group(s) -> GroupId:
    """Parse a group name like "SO(3)", "O(3,1)", "Sp(2,R)", "Heis"; a LieId
    passes if it names a group (DomainError if an algebra)."""
    return _of_kind(s, group=True) if isinstance(s, LieId) else _parse(s, group=True)


def metric_g(n: int, k: int) -> np.ndarray:
    """diag(1,...,1, -1,...,-1) with n plus signs and k minus signs; n and k
    are integers >= 0 with n + k >= 1 (DomainError otherwise)."""
    if None in (counts := (_integer(n, 0), _integer(k, 0))) or not sum(counts):
        raise DomainError(f"n and k must be integers >= 0 with n + k >= 1, got {n!r} and {k!r}")
    n, k = counts
    return np.diag([1.0] * n + [-1.0] * k).astype(complex)


def symplectic_J(n: int) -> np.ndarray:
    """The 2n x 2n block matrix [[0, I],[-I, 0]]; n an integer >= 1."""
    n = _count("n", n)
    J = np.zeros((2 * n, 2 * n), dtype=complex)
    J[:n, n:] = np.eye(n)
    J[n:, :n] = -np.eye(n)
    return J


# ---------------------------------------------------------------------------
# defining identities

@dataclass(frozen=True)
class _Spec:
    """The defining identity of one family, shared by the group and its algebra.

    real: entries must be real (None: as the id's field says).
    forms: (F, adj) pairs with F one of "I", "g" (metric_g) or "J"
        (symplectic_J) and adj "T" (transpose) or "H" (conjugate
        transpose); the group keeps adj(A) F A = F and the algebra
        satisfies adj(X) F = -F X.
    affine: members are [[M, x], [0, 1]] (group) or [[M, x], [0, 0]]
        (algebra), and the forms apply to M.
    det: the group's determinant is "1" or "nonzero" ("": unchecked).
    trace0: the algebra's trace is 0.
    """

    real: bool | None
    forms: tuple = ()
    affine: bool = False
    det: str = ""
    trace0: bool = False


# keyed by the lowercased family
_SPECS = {
    "gl": _Spec(None, det="nonzero"),
    "sl": _Spec(None, det="1", trace0=True),
    "o": _Spec(True, (("I", "T"),)),
    "so": _Spec(True, (("I", "T"),), det="1"),
    "oc": _Spec(False, (("I", "T"),)),
    "soc": _Spec(False, (("I", "T"),), det="1"),
    "ok": _Spec(True, (("g", "T"),)),
    "sok": _Spec(True, (("g", "T"),), det="1"),
    "u": _Spec(False, (("I", "H"),)),
    "su": _Spec(False, (("I", "H"),), det="1", trace0=True),
    "spr": _Spec(True, (("J", "T"),)),
    "spc": _Spec(False, (("J", "T"),)),
    "sp": _Spec(False, (("J", "T"), ("I", "H"))),
    "heis": _Spec(True),  # unipotent upper triangular: checked by its shape
    "e": _Spec(True, (("I", "T"),), affine=True),
    "p": _Spec(True, (("g", "T"),), affine=True),
}


def _spec(family: str) -> _Spec:
    try:
        return _SPECS[family.lower()]
    except KeyError:
        raise ValueError(f"unknown family {family!r}") from None


def _real(lid: LieId) -> bool:
    """Whether members of lid's group and algebra have real entries."""
    real = _spec(lid.family).real
    return lid.field == "R" if real is None else real


def _form(form: str, lid: LieId, d: int) -> np.ndarray:
    """The d x d matrix F of a form named in a _Spec."""
    if form == "I":
        return np.eye(d, dtype=complex)
    return metric_g(lid.n, lid.k) if form == "g" else symplectic_J(lid.n)


def _project(X: np.ndarray, lid: LieId) -> np.ndarray:
    """The orthogonal projection of the square matrix X onto the algebra of
    lid, read off its _Spec: real part; (X - F^T adj(X) F)/2 for each form
    (F^-1 = F^T, and the two forms of sp(n) commute); minus the trace part;
    for an affine family on the linear block, with the bottom row zeroed."""
    d = lid.matrix_dim
    X = np.array(X.real if _real(lid) else X, dtype=complex)
    if lid.family.lower() == "heis":
        return np.triu(X, 1)
    spec = _spec(lid.family)
    if spec.affine:
        d -= 1
        X[d] = 0
    M = X[:d, :d]
    for form, adj in spec.forms:
        F = _form(form, lid, d)
        M = (M - F.T @ (M.conj().T if adj == "H" else M.T) @ F) / 2
    if spec.trace0:
        M = M - np.trace(M) / d * np.eye(d)
    X[:d, :d] = M
    return X


def _holds(M: np.ndarray, lid: LieId, tol: Tolerance, group: bool) -> bool:
    """Test the defining identity of lid on M, within tol: the group's if
    group is true, else its Lie algebra's.  M must have passed the entry
    gate, which keeps it finite, since inf passes |A - B| <= tol.abs +
    tol.rel |B|; _satisfies is the gated form."""
    spec = _spec(lid.family)
    d = lid.matrix_dim
    if M.shape != (d, d):
        raise ShapeError(f"{lid.family} with n={lid.n} needs a {d}x{d} matrix, got {M.shape}")
    if _real(lid) and not (np.abs(M.imag) <= tol.abs).all():
        return False
    if lid.family.lower() == "heis" or spec.affine:  # rows of I (group) or 0 (algebra)
        unit = np.eye(d) if group else np.zeros((d, d))
    if lid.family.lower() == "heis":
        return all(abs(M[i, j] - unit[i, j]) <= tol.abs for i in range(d) for j in range(i + 1))
    if group and spec.det:
        det = np.linalg.det(M)  # numpy's abs of a nan det is nan; Python's can raise
        if spec.det == "1" and not abs(det - 1) <= tol.abs + tol.rel:
            return False
        if spec.det == "nonzero" and not abs(det) > tol.abs:
            return False
    if not group and spec.trace0 and not abs(np.trace(M)) <= tol.abs:
        return False
    if spec.affine:
        d -= 1
        if not _close(M[d, :], unit[d], tol):
            return False
        M = M[:d, :d]
    for form, adj in spec.forms:
        Ma = M.conj().T if adj == "H" else M.T
        if form == "I":  # the same identity, without the products with F = I
            ok = _close(Ma @ M, np.eye(d), tol) if group else _close(Ma, -M, tol)
        else:
            F = _form(form, lid, d)
            ok = _close(Ma @ F @ M, F, tol) if group else _close(Ma @ F, -(F @ M), tol)
        if not ok:
            return False
    return True


_satisfies = _entry(1)(_holds)


def is_member(A: np.ndarray, g, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Test the defining algebraic condition of group g on A, within tol."""
    return _satisfies(A, parse_group(g), tol, group=True)


def su2_matrix(alpha: complex, beta: complex) -> np.ndarray:
    """[[a, -conj b],[b, conj a]] for |a|^2 + |b|^2 = 1 — the general SU(2) element."""
    v = to_complex([alpha, beta])
    if v.shape != (2,):
        raise ShapeError(f"alpha and beta must be numbers, not of shape {v.shape[1:]}")
    if not abs(np.vdot(v, v).real - 1) <= 1e-12:  # also for a nan, an inf or an overflow
        raise DomainError("|alpha|^2 + |beta|^2 must equal 1")
    a, b = v.tolist()
    return np.array([[a, -b.conjugate()], [b, a.conjugate()]])


def euclidean_embed(R: np.ndarray, x) -> np.ndarray:
    """Embed a rigid motion {x, R} as the (n+1)x(n+1) block matrix [[R, x],[0, 1]].

    This is a homomorphism: embed(R1,x1) @ embed(R2,x2) = embed(R1 R2, x1 + R1 x2).
    The result is exact when R and x are both rational, and complex otherwise.
    """
    R = np.asarray(R)
    x = np.asarray(x).reshape(-1)
    _check_square(R)
    n = len(R)
    if x.shape != (n,):
        raise ShapeError(f"need n x n rotation and length-n vector, got {R.shape}, {x.shape}")
    exact = is_rational(R) and is_rational(x)
    if not exact:
        R, x = to_complex(R), to_complex(x)
        if not (_finite(R) and _finite(x)):
            raise DomainError("R and x must have finite entries")
    E = np.eye(n + 1, dtype=object if exact else complex)
    E[:n, :n] = R
    E[:n, n] = x
    return rmat(E) if exact else E


@_entry(1)
def polar_decompose_sl(A: np.ndarray, tol: Tolerance = DEFAULT_TOL):
    """A = R H with R orthogonal, H symmetric positive-definite (A real, invertible).

    A is singular when |det A| <= tol.abs (||A||_F / sqrt n)^n, which
    scaling A does not change.  From the SVD A = W diag(s) V^T, R = W V^T
    and H = V diag(s) V^T (Higham 2008, Thm 8.1).  The tolerance enters only
    the realness and singularity tests, never the factors.
    """
    if np.any(np.abs(A.imag) > tol.abs):
        raise DomainError("matrix must be real")
    W, s, Vt = np.linalg.svd(A.real)
    if _relative_det(s) <= tol.abs:
        raise DomainError("matrix is singular")
    return (W @ Vt).astype(complex), (Vt.T * s @ Vt).astype(complex)


@_entry(1)
def o11_component(A: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> int:
    """Which of the four connected pieces of O(1,1) the matrix lies in.

    1: A11 > 0, det > 0 (identity component, pure boosts)
    2: A11 < 0, det > 0
    3: A11 > 0, det < 0
    4: A11 < 0, det < 0
    """
    if not _holds(A, parse_group("O(1,1)"), tol, group=True):
        raise DomainError("matrix is not in O(1,1)")
    det = np.linalg.det(A).real
    a11 = A[0, 0].real
    if det > 0:
        return 1 if a11 > 0 else 2
    return 3 if a11 > 0 else 4
