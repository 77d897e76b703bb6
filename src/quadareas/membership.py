"""Decides whether an area tuple is attainable and produces exact certificates.

A spatial decision is one pivot solve plus an exact componentwise check of
the solution, O(n) per query; the check alone decides whether x lies on the
span, so no hyperplane is evaluated (``cone.hyperplanes`` serves ``describe``
and ``proportional_bounds`` only).  Both run on the spec's integer rows
(``cone.integer_rows``, built once per spec): the three coefficients are
normalised once, and each coordinate is compared in ``int`` with no gcd, so
a spatial decision computes no tail cumulant and no frame.  ``_decide`` holds
the one planar / pivot-solve dispatch: ``member`` runs it on the spec's rows
and ``reduction.member_tail`` on the rows of the (m+1)-spec that ends in the
tail sums; each fold is a solve on sums of the spec's rows.  A planar decision
solves for the cumulant coefficients at the first two coordinates and checks
them with the same componentwise check, so it computes no frame either.  On
skew ratio vectors its re-decompositions read one face solve at rows 0 and 1
(``_face``): head = alpha*ab + beta*dc, from which the face coordinates of the
tail and of x follow through the totals.  ``_realization`` picks one of them
and returns its q1, q2, face or ray certificate, the witness's only input.

Two semantics are offered for parallel-sided realizations:

* ``audited`` (the default) accepts the whole open face a*ab + b*dc with
  a, b > 0, which trapezoids with independent side scalings realize;
* ``strict`` accepts from that face only the equal-scaling ray a = b.

Everything else is common: in the spatial case a tuple is attainable iff it
is a strictly positive combination of the two ratio vectors and one cumulant
vector (branch q1 with the head cumulants, q2 with the tail cumulants); in
the planar case iff it is a strictly positive combination of the two cumulant
vectors.  Boundary points of these open regions are rejected.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, Optional, Sequence

from .cone import classify, hyperplanes, integer_rows
from .division import DivisionSpec, fraction_tuple
from .errors import InvalidInputError, invariant
from .linalg import _scaled, solve2, solve3

Mode = Literal["strict", "audited"]

REASON_OFF_SUBSPACE = "off-subspace"
REASON_BOUNDARY = "boundary"
REASON_NEGATIVE = "negative-coefficient"
REASON_NON_POSITIVE = "non-positive-entry"


@dataclass(frozen=True)
class Interval:
    """Feasible values for the cumulant coefficient of a re-decomposition.

    Open interval when lo < hi; the single point lo when lo == hi (the
    proportional planar case pins the coefficient uniquely).
    """

    lo: Fraction
    hi: Fraction

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, value: Fraction) -> bool:
        if self.is_point:
            return value == self.lo
        return self.lo < value < self.hi


@dataclass(frozen=True)
class Certificate:
    """Exact positive coefficients expressing the tuple in a frame basis.

    branch "q1": coeffs (a, b, c) with x = a*ab + b*dc + c*head
    branch "q2": coeffs (a, b, c) with x = a*ab + b*dc + c*tail
    branch "face": coeffs (a, b) with x = a*ab + b*dc
    branch "ray": coeffs (t,) with x = t*(ab + dc)
    branch "degenerate" (planar case): coeffs (a, b) with x = a*head + b*tail,
    plus the feasible coefficient intervals of the q1/q2 re-decompositions
    (None when that branch admits none).
    """

    branch: str
    coeffs: tuple[Fraction, ...]
    q1_interval: Optional[Interval] = None
    q2_interval: Optional[Interval] = None


@dataclass(frozen=True)
class Verdict:
    attainable: bool
    certificate: Optional[Certificate] = None
    reason: Optional[str] = None
    prefix_certified: bool = False


def _face(
    rows: Sequence[tuple[int, int, int, int]], total_ab: Fraction, total_dc: Fraction, a: Fraction, b: Fraction
):
    """The coordinates over (ab, dc) of x = a*head + b*tail, of head and of tail, for skew ratio vectors.

    head = alpha*ab + beta*dc is solved once at rows 0 and 1, where the ratio
    vectors of a skew planar spec are independent; its cumulants lie in
    span(ab, dc), so the solve holds at every row.  tail = (total_dc - alpha)*ab +
    (total_ab - beta)*dc follows from head + tail, and x's coordinates are
    linear in the arms', as x = a*head + b*tail.
    """
    (p0, q0, h0, _), (p1, q1, h1, _) = rows[:2]
    det = p0 * q1 - p1 * q0
    head = (Fraction(h0 * q1 - h1 * q0, det), Fraction(p0 * h1 - p1 * h0, det))
    tail = (total_dc - head[0], total_ab - head[1])
    return (a * head[0] + b * tail[0], a * head[1] + b * tail[1]), head, tail


def _coefficient_interval(base: Sequence[Fraction], slope: Sequence[Fraction]):
    """Feasible cumulant coefficients c for x = A*ab + B*dc + c*arm with A, B, c > 0.

    Only meaningful in the planar case, for skew ratio vectors: base and slope
    are the face coordinates of x and of the arm (``_face``), and (A, B) is
    base - c*slope.  Returns an Interval or None.
    """
    lo = Fraction(0)
    hi: Optional[Fraction] = None
    for coef, intercept in zip(slope, base):
        # constraint: intercept - c*coef > 0
        if coef > 0:
            bound = intercept / coef
            hi = bound if hi is None else min(hi, bound)
        elif coef < 0:
            lo = max(lo, intercept / coef)
        elif intercept <= 0:
            return None
    invariant(hi is not None, "the feasible coefficient range is always bounded above")
    return Interval(lo, hi) if lo < hi else None


def _coefficient_verdict(
    a: Fraction, b: Fraction, c: Fraction, total_ab: Fraction, total_dc: Fraction, mode: Mode
) -> Verdict:
    """The verdict for x = a*ab + b*dc + c*head, already checked exactly.

    The q2 coefficients (a2, b2, -c) follow from head + tail = total_dc*ab +
    total_ab*dc.  The attainable set is the open cone whose four facet values
    are a, b, a2 and b2: inside it, the sign of c picks q1, q2 or the parallel
    ray or face (by mode); on its boundary x is rejected as boundary, outside
    it as negative.
    """
    a2, b2 = a + c * total_dc, b + c * total_ab
    low = min(a, b, a2, b2)
    if low > 0:
        if c > 0:
            return Verdict(True, Certificate("q1", (a, b, c)))
        if c < 0:
            return Verdict(True, Certificate("q2", (a2, b2, -c)))
        if a == b:
            return Verdict(True, Certificate("ray", (a,)))
        if mode == "audited":
            return Verdict(True, Certificate("face", (a, b)))
    return Verdict(False, reason=REASON_BOUNDARY if low >= 0 else REASON_NEGATIVE)


def _spans(
    rows: Sequence[tuple[int, int, int, int]], coeffs: Sequence[Fraction], x: tuple[Fraction, ...]
) -> bool:
    """x == a*ab + b*dc + c*head at every coordinate, decided on the spec's integer rows.

    With (A, B, C) the coefficients over their common denominator E, row
    (P, Q, H, L) and x_i = xn/xd, the test is (A*P + B*Q + C*H)*xd == E*L*xn.
    """
    (a, b, c), e = _scaled(coeffs)
    return all(
        (a * p + b * q + c * h) * xi.denominator == e * den * xi.numerator
        for (p, q, h, den), xi in zip(rows, x)
    )


def _pivot_solution(rows: Sequence[tuple[int, int, int, int]], pivot: int, x: tuple[Fraction, ...]):
    """(a, b, c) with x = a*ab + b*dc + c*head exactly, or None when x is off the span.

    The 3x3 solve at the pivot triple is regular whenever the pivot's
    discriminant is nonzero; the solution is then checked at every coordinate.
    """
    cols = (pivot - 2, pivot - 1, pivot)
    # row i of the system, scaled by L_i: (P_i, Q_i, H_i) @ (a, b, c) = L_i*x_i
    sol = solve3([rows[i][:3] for i in cols], [rows[i][3] * x[i] for i in cols])
    invariant(sol is not None, "pivot solve is regular whenever the discriminant is nonzero")
    return sol if _spans(rows, sol, x) else None


def _planar_verdict(
    rows: Sequence[tuple[int, int, int, int]], total_ab: Fraction, total_dc: Fraction, x: tuple[Fraction, ...]
) -> Verdict:
    """The planar verdict: x = a*head + b*tail with a, b > 0, checked at every coordinate.

    L_i*tail_i is read from row i, as tail = total_dc*ab + total_ab*dc - head,
    and a*head + b*tail is the span combination (b*total_dc, b*total_ab, a - b).
    The cumulant vectors are independent at the first two coordinates: their
    2x2 minor there is strictly negative.  With every discriminant zero, ab
    and dc are proportional at every row exactly when they are at rows 0 and 1.
    """
    arms = [(h, total_dc * p + total_ab * q - h) for p, q, h, _ in rows[:2]]
    sol = solve2(arms, [rows[i][3] * x[i] for i in (0, 1)])
    invariant(sol is not None, "the cumulant vectors are independent at the first two coordinates")
    a, b = sol
    if not _spans(rows, (b * total_dc, b * total_ab, a - b), x):
        return Verdict(False, reason=REASON_OFF_SUBSPACE)
    if not (a > 0 and b > 0):
        return Verdict(False, reason=REASON_BOUNDARY if a >= 0 and b >= 0 else REASON_NEGATIVE)
    (p0, q0, _, _), (p1, q1, _, _) = rows[:2]
    if p0 * q1 == p1 * q0:
        # x = g*(ab-direction) + c*arm pins c uniquely: a - b on the head, b - a on the tail
        intervals = [Interval(c, c) if c > 0 else None for c in (a - b, b - a)]
    else:
        base, *slopes = _face(rows, total_ab, total_dc, a, b)
        intervals = [_coefficient_interval(base, slope) for slope in slopes]
    return Verdict(True, Certificate("degenerate", (a, b), *intervals))


def _realization(spec: DivisionSpec, cert: Certificate) -> Certificate:
    """The q1, q2, face or ray certificate of one re-decomposition of a degenerate certificate.

    x = a*head + b*tail is the span triple (A, B, c) = (b*total_dc, b*total_ab, a - b).
    On skew ratio vectors it moves along (alpha, beta, -1), as head = alpha*ab +
    beta*dc, to c = 0 when x's face coordinates are positive, else to the q1
    interval's midpoint, else to minus the q2 interval's.  On proportional ones
    c = a - b is pinned and the triple is the even split A*P_0 = B*Q_0, as
    total_dc/total_ab = Q_0/P_0; at c = 0 the face is split equally instead.
    Planar verdicts ignore the mode, so the branch is named in audited mode.
    """
    rows, total_ab, total_dc = integer_rows(spec)
    a, b = cert.coeffs
    (p0, q0, _, _), (p1, q1, _, _) = rows[:2]
    if p0 * q1 == p1 * q0:
        big_a, big_b, c = b * total_dc, b * total_ab, a - b
        if c == 0:
            big_a = big_b = (big_a * p0 + big_b * q0) / (p0 + q0)
    else:
        face, (alpha, beta), _ = _face(rows, total_ab, total_dc, a, b)
        c = Fraction(0)
        if not (face[0] > 0 and face[1] > 0):
            if cert.q1_interval is not None:
                c = cert.q1_interval.midpoint
            elif cert.q2_interval is not None:
                c = -cert.q2_interval.midpoint
        big_a, big_b = face[0] - c * alpha, face[1] - c * beta
    verdict = _coefficient_verdict(big_a, big_b, c, total_ab, total_dc, "audited")
    invariant(verdict.attainable, "an attainable planar tuple admits a realization")
    return verdict.certificate


def _decide(
    rows: Sequence[tuple[int, int, int, int]],
    total_ab: Fraction,
    total_dc: Fraction,
    pivot: Optional[int],
    x: tuple[Fraction, ...],
    mode: Mode,
) -> Verdict:
    """The verdict for a positive x on a spec's integer rows: planar when pivot is None, else
    the pivot solve, its componentwise check and the coefficient verdict."""
    if pivot is None:
        return _planar_verdict(rows, total_ab, total_dc, x)
    sol = _pivot_solution(rows, pivot, x)
    if sol is None:
        return Verdict(False, reason=REASON_OFF_SUBSPACE)
    return _coefficient_verdict(*sol, total_ab, total_dc, mode)


def member(spec: DivisionSpec, x: Sequence[Fraction], mode: Mode = "audited") -> Verdict:
    """Decide attainability of an area tuple and certify the answer.

    Rejections carry one of four reasons: "non-positive-entry" (some entry of
    x is not strictly positive), "off-subspace" (x misses the linear span of
    the frame), "boundary" (x sits on the boundary of the open attainable
    regions), "negative-coefficient" (the exact decomposition has a strictly
    negative coordinate).
    """
    if len(x) != spec.n:
        raise InvalidInputError("area tuple length does not match the division spec")
    x = fraction_tuple(x)
    if any(entry <= 0 for entry in x):
        return Verdict(False, reason=REASON_NON_POSITIVE)
    return _decide(*integer_rows(spec), classify(spec).pivot, x, mode)


def proportional_bounds(p: Sequence[Fraction]):
    """Plane and open ratio window for equal ratio tuples of length three.

    For p_prime = p, a positive tuple x is attainable exactly when it lies on
    the returned plane and x3/x1 falls strictly inside the returned window.
    """
    p = fraction_tuple(p)
    if len(p) != 3:
        raise InvalidInputError("expects three positive ratios")
    spec = DivisionSpec(p, p)
    plane = hyperplanes(spec)[0]
    p1, p2, p3 = p
    lo = p3 * p3 / (p1 * (p1 + 2 * p2 + 2 * p3))
    hi = p3 * (2 * p1 + 2 * p2 + p3) / (p1 * p1)
    return plane, (lo, hi)


def parallel_diagnosis(spec: DivisionSpec, x: Sequence[Fraction]) -> str:
    """Classify an area tuple by which realizations it admits.

    "forced-parallel": attainable, but only by quadrilaterals whose divided
    sides are parallel (no q1 and no q2 realization exists).
    "not-forced": attainable with at least one apex realization.
    "not-attainable": not attainable at all (audited semantics).
    """
    verdict = member(spec, x, "audited")
    if not verdict.attainable:
        return "not-attainable"
    cert = verdict.certificate
    if cert.branch in ("q1", "q2"):
        return "not-forced"
    if cert.branch == "degenerate":
        if cert.q1_interval is not None or cert.q2_interval is not None:
            return "not-forced"
        return "forced-parallel"
    return "forced-parallel"
