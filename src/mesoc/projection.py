"""Membership, projection, and complementarity certificates for the MESOC.

The monotone extended second-order cone (MESOC) in R^{p+q} is

    L(p, q)  = {(x, u) : x_1 >= x_2 >= ... >= x_p >= ||u||},
    L*(p, q) = {(y, v) : sum(y_1..y_j) >= 0 for j < p, sum(y) >= ||v||}.

Their inequalities are the chain and prefix rules of `cones` at
floor = cap = ||u||; membership within tol means violation <= tol.

Projecting onto L reduces to a single isotonic regression. For a fixed
t = ||u|| the closest u is (t/||w||) w, so the whole projection is the
projection l of the lifted vector (z, ||w||) in R^{p+1} onto the monotone
nonnegative cone: x = l[:p] and u = (l[p]/||w||) w, and the dual half is
primal - input. The value of l[p] names one of three regimes:

1. l[p] = 0: the dual part absorbs all of w   -> primal u-part is 0,
2. l[p] = ||w|| (or w = 0): the primal part absorbs all of w
                                             -> dual v-part is 0,
3. anything in between ("interior"): u and v are antiparallel multiples
   of w with ratio lambda = ||w||/l[p] - 1.

One PAVA pass plus vector arithmetic makes every projection O(p + q).
Norms and inner products on this path are numpy reductions, not BLAS
calls, so a projection never wakes a BLAS thread pool. Every projection
is returned as a certificate carrying the input and both halves of the
Moreau pair, z and w held by reference. Its two reconstruction residuals
are computed at their first read from the arrays the certificate holds,
so a caller that never reads them never pays for them. They are rounding
diagnostics: the dual half is built from the primal, so a wrong primal
can read 0 in both. `complementarity_check` tests membership of both
halves.

A projection allocates one buffer of 2(p + q) + 1 doubles and returns
its halves x, u, y and v as views of it, so keeping any one half keeps
the whole buffer alive (3.2 MB at p = q = 100 000); `.copy()` a half to
keep it alone.

Input is validated once, where it enters (the three `project_mesoc*`
functions, the public `MesocPoint` constructor and `from_vector`), and
the arrays a projection computes are not checked again: the one way they
can leave the float range, an overflowing dual half, raises
OverflowError from `moreau_half`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._pava import pava_nonincreasing_kernel
from .cones import (
    DimensionError,
    _chain_violation,
    _check_tol,
    _prefix_sums,
    _prefix_violation,
    as_vector,
    moreau_half,
)


@dataclass(frozen=True, eq=False)
class MesocPoint:
    """A point (x, u) in R^p x R^q, identified with the concatenation.

    q = 0 is allowed (empty u), in which case the cone degenerates to the
    monotone nonnegative cone in R^p. Points compare and hash by identity.
    """

    x: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", as_vector(self.x, "x"))
        object.__setattr__(self, "u", as_vector(self.u, "u", allow_empty=True))

    @classmethod
    def _computed(cls, x: np.ndarray, u: np.ndarray) -> "MesocPoint":
        """A point from arrays computed from validated input.

        They are 1-D, float64 and finite already, so `__post_init__`,
        which validates outside input, is skipped.
        """
        pt = object.__new__(cls)
        object.__setattr__(pt, "x", x)
        object.__setattr__(pt, "u", u)
        return pt

    @property
    def p(self) -> int:
        return self.x.size

    @property
    def q(self) -> int:
        return self.u.size

    @property
    def u_norm(self) -> float:
        return _norm(self.u)

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.x, self.u])

    @classmethod
    def from_vector(cls, vec, p: int, q: int) -> "MesocPoint":
        """Split a concatenated (x, u) of length p + q, validated once here."""
        vec = as_vector(vec, "vec")
        if p < 1 or q < 0:
            raise DimensionError(f"need p >= 1 and q >= 0, got p={p}, q={q}")
        if vec.size != p + q:
            raise DimensionError(f"vector has length {vec.size}, expected p + q = {p + q}")
        return cls._computed(vec[:p], vec[p:])


class ProjectionCase(Enum):
    """Which regime of the three-way projection analysis applied."""

    DUAL_DOMINATES = "DualDominates"
    PRIMAL_DOMINATES = "PrimalDominates"
    INTERIOR = "Interior"


@dataclass(frozen=True, eq=False)
class ProjectionCertificate:
    """Moreau pair for one projection onto the MESOC.

    `primal` is the projection of the input onto the cone, `dual_of_neg`
    the projection of the negated input onto the dual cone. The residuals
    record how well primal - dual_of_neg reconstructs the input and how
    orthogonal the two halves are. `lam` is populated only in the interior
    case (antiparallel ratio v = -lam * u).

    Each residual is computed once, at its first read, from the arrays the
    certificate holds. Like the points, the certificate holds the input's
    z and w by reference, so an input array changed before that read
    changes what it measures.

    The additive residual is a rounding check only: the dual half is
    built as y = x - z and v = u - w, so it reads about 0 whatever the
    PAVA kernel returned. Both residuals take their q-half terms in every
    case; outside the interior case u or v is zero, so those terms are
    exactly zero and change no bit.
    """

    input: MesocPoint
    primal: MesocPoint
    dual_of_neg: MesocPoint
    case: ProjectionCase
    lam: float | None

    @functools.cached_property
    def moreau_additive_residual(self) -> float:
        """||(z, w) - primal + dual_of_neg||."""
        rx = self.primal.x - self.dual_of_neg.x
        rx -= self.input.x
        ru = self.primal.u - self.dual_of_neg.u
        ru -= self.input.u
        return math.sqrt(_dot(rx, rx) + _dot(ru, ru))

    @functools.cached_property
    def moreau_orthogonality_residual(self) -> float:
        """|<primal, dual_of_neg>|."""
        xy, uv = _inner_halves(self.primal, self.dual_of_neg)
        return abs(xy + uv)

    def to_dict(self) -> dict:
        return {
            "p": self.input.p,
            "q": self.input.q,
            "input": self.input.as_vector().tolist(),
            "primal": self.primal.as_vector().tolist(),
            "dual_of_neg": self.dual_of_neg.as_vector().tolist(),
            "case": self.case.value,
            "lambda": self.lam,
            "moreau_additive_residual": self.moreau_additive_residual,
            "moreau_orthogonality_residual": self.moreau_orthogonality_residual,
        }


def mesoc_contains(pt: MesocPoint, tol: float = 0.0) -> bool:
    """True iff x is nonincreasing and x_p >= ||u||, within tol."""
    _check_tol(tol)
    return mesoc_violation(pt) <= tol


def mesoc_dual_contains(pt: MesocPoint, tol: float = 0.0) -> bool:
    """True iff all proper prefix sums of y are >= 0 and sum(y) >= ||v||, within tol."""
    _check_tol(tol)
    return mesoc_dual_violation(pt) <= tol


def mesoc_violation(pt: MesocPoint) -> float:
    """Largest violation of the cone inequalities (0 for members)."""
    return _chain_violation(pt.x, pt.u_norm)


def mesoc_dual_violation(pt: MesocPoint) -> float:
    """Largest violation of the dual cone inequalities (0 for members)."""
    return _prefix_violation(_prefix_sums(pt.x), pt.u_norm)


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    # einsum's own loop: np.dot and np.linalg.norm would call BLAS, whose
    # worker threads cost more than the whole reduction at large n
    return float(np.einsum("i,i->", a, b))


def _inner_halves(a: MesocPoint, b: MesocPoint) -> tuple[float, float]:
    """(<a.x, b.x>, <a.u, b.u>), the two halves of <a, b>."""
    return _dot(a.x, b.x), _dot(a.u, b.u)


# below this a sum of squares may have lost terms to underflow; each lost
# term is under 2**-1022, so above it they stay below n * 2**-122 relative
_SUMSQ_FLOOR = 2.0**-900


def _norm(a: np.ndarray) -> float:
    """Euclidean norm that neither underflows nor overflows in its squares.

    Raises OverflowError when the norm itself is above the largest double.
    """
    sumsq = _dot(a, a)
    if _SUMSQ_FLOOR <= sumsq < math.inf:
        return math.sqrt(sumsq)
    big = float(np.max(np.abs(a), initial=0.0))
    if big == 0.0 or not math.isfinite(big):
        return big
    # rescale by a power of two, which is exact, so that max|a| is in [0.5, 1)
    exp = math.frexp(big)[1]
    scaled = np.ldexp(a, -exp)
    try:
        return math.ldexp(math.sqrt(_dot(scaled, scaled)), exp)
    except OverflowError:
        raise OverflowError("norm exceeds the float range") from None


def _project_parts(z: np.ndarray, w: np.ndarray):
    """One lifted PAVA pass; returns (x, u, y, v, case, lam).

    The four halves are views of one buffer of 2(p + q) + 1 doubles,
    laid out as lifted (z, ||w||), then y, u and v, with x = lifted[:p].
    With one allocation per projection rather than one per half, glibc's
    malloc stops handing large projections fresh pages on every call.
    """
    p, q = z.size, w.size
    w_norm = _norm(w)
    buf = np.empty(2 * (p + q) + 1)
    lifted = buf[: p + 1]
    y = buf[p + 1 : 2 * p + 1]
    u = buf[2 * p + 1 : 2 * p + q + 1]
    v = buf[2 * p + q + 1 :]
    lifted[:-1] = z
    lifted[-1] = w_norm
    np.maximum(pava_nonincreasing_kernel(lifted), 0.0, out=lifted)
    x = lifted[:-1]
    moreau_half(x, z, out=y)
    t = float(lifted[-1])  # the part of ||w|| the primal keeps
    if t >= w_norm:
        # includes w = 0 and q = 0; the primal keeps all of w
        u[...] = w
        v.fill(0.0)
        return x, u, y, v, ProjectionCase.PRIMAL_DOMINATES, None
    if t == 0.0:
        u.fill(0.0)
        np.negative(w, out=v)
        return x, u, y, v, ProjectionCase.DUAL_DOMINATES, None
    np.multiply(t / w_norm, w, out=u)
    np.subtract(u, w, out=v)
    return x, u, y, v, ProjectionCase.INTERIOR, w_norm / t - 1.0


def project_mesoc_parts(z, w) -> tuple[MesocPoint, MesocPoint]:
    """Primal and dual-of-negation projections, without a certificate.

    The pair is the one `project_mesoc` returns. That call's residuals are
    computed at their first read from the arrays its certificate holds, so
    what this one skips is the certificate and its input point. The four
    halves are views of one buffer of 2(p + q) + 1 doubles, which any
    half kept alive keeps whole; `.copy()` a half to keep it alone.
    """
    z = as_vector(z, "z")
    w = as_vector(w, "w", allow_empty=True)
    x, u, y, v, _, _ = _project_parts(z, w)
    return MesocPoint._computed(x, u), MesocPoint._computed(y, v)


def project_mesoc(z, w) -> ProjectionCertificate:
    """Project (z, w) onto the MESOC and return the full Moreau certificate.

    A float64 z or w is held by reference, not copied, and the residuals
    are computed at their first read: change neither array until both
    residuals have been read, or pass copies. The primal and dual halves
    are views of one buffer of 2(p + q) + 1 doubles, which any half kept
    alive keeps whole; `.copy()` a half to keep it alone.
    """
    z = as_vector(z, "z")
    w = as_vector(w, "w", allow_empty=True)
    x, u, y, v, case, lam = _project_parts(z, w)
    return ProjectionCertificate(
        input=MesocPoint._computed(z, w),
        primal=MesocPoint._computed(x, u),
        dual_of_neg=MesocPoint._computed(y, v),
        case=case,
        lam=lam,
    )


def project_mesoc_dual(z, w) -> MesocPoint:
    """Projection onto the dual MESOC, via Moreau on the negated input.

    Its y and v are views of the projection's one buffer of 2(p + q) + 1
    doubles, whose primal half goes unused but stays allocated while
    either is kept; `.copy()` them to keep p + q doubles alone.
    """
    z = as_vector(z, "z")
    w = as_vector(w, "w", allow_empty=True)
    _, _, y, v, _, _ = _project_parts(-z, -w)
    return MesocPoint._computed(y, v)


@dataclass(frozen=True)
class ComplementarityReport:
    """Outcome of a complementarity check between a primal/dual pair.

    `ok` is the headline verdict: both memberships plus orthogonality of
    the inner product, all within tol. When both u and v are nonzero the
    four structural conditions characterizing complementary pairs are
    evaluated as well (last primal coordinate pinned at ||u||, dual sum
    pinned at ||v||, u and v exactly antiparallel, and the shifted pair
    complementary for the monotone nonnegative cone); for degenerate pairs
    (u = 0 or v = 0) they are reported as None.
    """

    in_primal_cone: bool
    in_dual_cone: bool
    inner_product: float
    ok: bool
    xp_equals_u_norm: bool | None = None
    dual_sum_equals_v_norm: bool | None = None
    uv_antiparallel: bool | None = None
    shifted_pair_complementary: bool | None = None

    def __bool__(self) -> bool:
        return self.ok


def complementarity_check(a: MesocPoint, b: MesocPoint, tol: float = 1e-8) -> ComplementarityReport:
    """Check that (a, b) is a complementary pair for the MESOC and its dual."""
    if a.p != b.p or a.q != b.q:
        raise DimensionError(
            f"dimension mismatch: ({a.p},{a.q}) vs ({b.p},{b.q})"
        )
    _check_tol(tol)
    u_norm, v_norm = a.u_norm, b.u_norm
    in_primal = _chain_violation(a.x, u_norm) <= tol
    in_dual = _prefix_violation(_prefix_sums(b.x), v_norm) <= tol
    xy, uv = _inner_halves(a, b)
    inner = xy + uv
    ok = in_primal and in_dual and abs(inner) <= tol

    if u_norm > 0.0 and v_norm > 0.0:
        xp_eq = abs(float(a.x[-1]) - u_norm) <= tol
        sum_eq = abs(float(np.sum(b.x)) - v_norm) <= tol
        anti = abs(uv + u_norm * v_norm) <= tol
        sx = a.x - u_norm
        sy = b.x.copy()
        sy[-1] -= v_norm
        shifted = (
            _chain_violation(sx, 0.0) <= tol
            and _prefix_violation(_prefix_sums(sy), 0.0) <= tol
            and abs(_dot(sx, sy)) <= tol
        )
        return ComplementarityReport(
            in_primal, in_dual, inner, ok, xp_eq, sum_eq, anti, shifted
        )
    return ComplementarityReport(in_primal, in_dual, inner, ok)
