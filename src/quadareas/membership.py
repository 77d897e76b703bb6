"""Decides whether an area tuple is attainable and produces exact certificates.

A decision passes one value along: the primitive int vector (A, B, C, E) of
``_pivot_solution``, E > 0, with x = (A*ab + B*dc + C*head)/E at the rows the
solve used.  It is Cramer's rule on the cofactors of the x-free integer block
of the spec's integer rows (``cone.integer_rows``, built once per spec),
divided by one gcd.  ``_spans`` compares it with x at every other coordinate
in ``int`` with no gcd (the rows of the solve hold exactly, so they are not
re-checked), and that check alone decides whether x lies on the span, so no
hyperplane is evaluated (``cone.hyperplanes`` serves ``describe`` and
``proportional_bounds`` only).  ``_coefficient_verdict`` reads the four facet
signs from ints and builds ``Fraction``s only for the certificate it returns,
so a spatial decision, O(n) per query, computes no tail cumulant and no
frame.  ``_decide`` holds the one decision path: ``member`` runs it on the
spec's rows and ``reduction.member_tail`` on the rows of the (m+1)-spec that
ends in the tail sums; each fold is a solve on the rows of
``reduction.collapse``'s three-coordinate spec.  A planar decision is the same
solve on rows 0 and 1 bordered by A*total_ab = B*total_dc, which yields the
span triple (b*total_dc, b*total_ab, a - b) of x = a*head + b*tail, then the
same componentwise check on rows 2 onwards and ``_coefficient_verdict``, so it
computes no frame either.
Every re-decomposition of x lies on one segment of span triples (``_segment``):
on skew ratio vectors the triple moves along (alpha, beta, -1), head =
alpha*ab + beta*dc solved once at rows 0 and 1, clipped by the four facets to
one open range of the head coefficient, from which both intervals follow; on
proportional ones the range is the point a - b.  ``_realization`` moves to one
point of it and returns its q1, q2, face or ray certificate, the witness's
only input.

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

from fractions import Fraction
from typing import Literal, Optional, Sequence

from .cone import _pivot_block, classify, hyperplanes, integer_rows
from .division import DivisionSpec, _Frozen, fraction_tuple
from .errors import InvalidInputError, invariant
from .linalg import _primitive, _scaled

Mode = Literal["strict", "audited"]

REASON_OFF_SUBSPACE = "off-subspace"
REASON_BOUNDARY = "boundary"
REASON_NEGATIVE = "negative-coefficient"
REASON_NON_POSITIVE = "non-positive-entry"


def _check_mode(mode) -> None:
    """Refuse a mode other than "strict" and "audited", before any other check on the input."""
    if mode not in ("strict", "audited"):
        raise InvalidInputError(f"mode must be 'strict' or 'audited', got {mode!r}")


class Interval(_Frozen):
    """Feasible values for the cumulant coefficient of a re-decomposition.

    Open interval when lo < hi; the single point lo when lo == hi (the
    proportional planar case pins the coefficient uniquely).
    """

    lo: Fraction
    hi: Fraction

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def contains(self, value: Fraction) -> bool:
        if self.is_point:
            return value == self.lo
        return self.lo < value < self.hi


class Certificate(_Frozen):
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


class Verdict(_Frozen):
    """Whether a tuple is attainable, with its certificate or the reason it is not."""

    attainable: bool
    certificate: Optional[Certificate] = None
    reason: Optional[str] = None
    prefix_certified: bool = False


def _coefficient_verdict(
    a: int, b: int, c: int, e: int, total_ab: Fraction, total_dc: Fraction, mode: Mode
) -> Verdict:
    """The verdict for x = (a*ab + b*dc + c*head)/e, e > 0, already checked exactly.

    The q2 coefficients (a2, b2, -c/e) follow from head + tail = total_dc*ab +
    total_ab*dc: with total_ab = tan/tad and total_dc = tdn/tdd, a2 = (a*tdd +
    c*tdn)/(e*tdd) and b2 = (b*tad + c*tan)/(e*tad).  The attainable set is the
    open cone whose four facet values are a, b, a2 and b2, each read as the sign
    of its int numerator: inside it, the sign of c picks q1, q2 or the parallel
    ray or face (by mode); on its boundary x is rejected as boundary, outside it
    as negative.  Fractions are built only for the certificate.
    """
    tad, tdd = total_ab.denominator, total_dc.denominator
    a2, b2 = a * tdd + c * total_dc.numerator, b * tad + c * total_ab.numerator
    low = min(a, b, a2, b2)
    if low > 0:
        if c > 0:
            return Verdict(True, Certificate("q1", (Fraction(a, e), Fraction(b, e), Fraction(c, e))))
        if c < 0:
            q2 = (Fraction(a2, e * tdd), Fraction(b2, e * tad), Fraction(-c, e))
            return Verdict(True, Certificate("q2", q2))
        if a == b:
            return Verdict(True, Certificate("ray", (Fraction(a, e),)))
        if mode == "audited":
            return Verdict(True, Certificate("face", (Fraction(a, e), Fraction(b, e))))
    return Verdict(False, reason=REASON_BOUNDARY if low >= 0 else REASON_NEGATIVE)


def _spans(
    rows: Sequence[tuple[int, int, int, int]], sol: tuple[int, ...], x: tuple[Fraction, ...], solved: range
) -> bool:
    """x == (A*ab + B*dc + C*head)/E at every coordinate outside ``solved``, decided on the spec's integer rows.

    ``solved`` is the run of rows that the solve of (A, B, C, E) satisfies exactly (the pivot
    triple, or planar rows 0 and 1), or that the other rows then imply (the pivot triple of a
    fold), so they are not re-checked.
    With row (P, Q, H, L) and x_i = xn/xd, the test is (A*P + B*Q + C*H)*xd == E*L*xn.
    """
    a, b, c, e = sol
    return all(
        (a * p + b * q + c * h) * xi.denominator == e * den * xi.numerator
        for part in (slice(solved.start), slice(solved.stop, None))
        for (p, q, h, den), xi in zip(rows[part], x[part])
    )


def _pivot_solution(rows: Sequence[tuple[int, int, int, int]], pivot: int, x: tuple[Fraction, ...]):
    """The primitive (A, B, C, E), E > 0, with x = (A*ab + B*dc + C*head)/E at the pivot triple,
    or None when its block is singular.

    Row c, scaled by L_c, is (P_c, Q_c, H_c) @ (a, b, c) = L_c*x_c: Cramer's rule on the
    cofactors of the x-free block, with the right-hand side over one common denominator den,
    gives the three numerators over det*den; the four are divided by their one gcd.
    The block is regular whenever the pivot's discriminant, -det/(L*L*L), is nonzero.
    ``_decide`` also solves the planar case with it, on rows 0 and 1 and a border row.
    """
    cols, cof, det = _pivot_block(rows, pivot)
    if det == 0:
        return None
    (r0, r1, r2), den = _scaled([rows[c][3] * x[c] for c in cols])
    return _primitive((*(r0 * c0 + r1 * c1 + r2 * c2 for c0, c1, c2 in zip(*cof)), det * den))


def _segment(
    rows: Sequence[tuple[int, int, int, int]], total_ab: Fraction, total_dc: Fraction, triple: Sequence[Fraction]
):
    """(lo, hi, at): the open range of head coefficients over x's span triples, and the triple at each.

    x = A*ab + B*dc + c*head.  On skew ratio vectors head = alpha*ab + beta*dc is
    solved once at rows 0 and 1 (its cumulants lie in span(ab, dc), so the solve
    holds at every row), and x's span triples are the line (A + s*alpha, B +
    s*beta, c - s).  With (F_A, F_B) x's face coordinates, the four facets of
    ``_coefficient_verdict`` at head coefficient t are F_A - t*alpha, F_B - t*beta,
    F_A + t*(total_dc - alpha) and F_B + t*(total_ab - beta); head and tail have
    positive entries, so some facet bounds t above and some below.  On
    proportional ones c is pinned: lo = hi = c.  With every discriminant zero,
    ab and dc are proportional at every row exactly when they are at rows 0 and 1.
    """
    big_a, big_b, c = triple
    (p0, q0, h0, _), (p1, q1, h1, _) = rows[:2]
    det = p0 * q1 - p1 * q0
    if det == 0:
        return c, c, lambda _: triple
    alpha, beta = Fraction(h0 * q1 - h1 * q0, det), Fraction(p0 * h1 - p1 * h0, det)
    face = (big_a + c * alpha, big_b + c * beta)
    facets = tuple(zip(face * 2, (-alpha, -beta, total_dc - alpha, total_ab - beta)))
    lo = max(-f / k for f, k in facets if k > 0)
    hi = min(-f / k for f, k in facets if k < 0)
    return lo, hi, lambda t: (face[0] - t * alpha, face[1] - t * beta, t)


def _realization(spec: DivisionSpec, cert: Certificate) -> Certificate:
    """The q1, q2, face or ray certificate of one re-decomposition of a degenerate certificate.

    x = a*head + b*tail is the span triple (b*total_dc, b*total_ab, a - b); it moves
    along its segment to c = 0 when that is inside, else to the segment's midpoint.
    On proportional ratio vectors c = a - b is pinned and the triple is the even
    split A*P_0 = B*Q_0, as total_dc/total_ab = Q_0/P_0; at c = 0 the face is split
    equally instead.  Planar verdicts ignore the mode, so the branch is named in
    audited mode.
    """
    rows, total_ab, total_dc = integer_rows(spec)
    a, b = cert.coeffs
    lo, hi, at = _segment(rows, total_ab, total_dc, (b * total_dc, b * total_ab, a - b))
    big_a, big_b, c = at(Fraction(0) if lo < 0 < hi else (lo + hi) / 2)
    if lo == hi == 0:
        p0, q0, _, _ = rows[0]
        big_a = big_b = (big_a * p0 + big_b * q0) / (p0 + q0)
    ints, e = _scaled((big_a, big_b, c))
    verdict = _coefficient_verdict(*ints, e, total_ab, total_dc, "audited")
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
    """The verdict for a positive x on a spec's integer rows: the pivot solve, its componentwise
    check on the rows the solve did not use and the coefficient verdict; an attainable planar x
    (pivot None) is certified by (a, b) with x = a*head + b*tail and its segment's two intervals,
    the only place it builds the span triple's Fractions.

    The planar solve borders rows 0 and 1 with (T_ab, -T_dc, 0) over the totals' common
    denominator s: on span(head, tail), A*T_ab = B*T_dc holds exactly at x's span triple
    (b*T_dc, b*T_ab, a - b).  With K_i = T_dc*P_i + T_ab*Q_i - H_i = L_i*tail_i, the block's
    determinant is -s*M for the head/tail minor M = H_0*K_1 - K_0*H_1 < 0, so it is regular.
    Planar verdicts ignore the mode.
    """
    if pivot is None:
        (ta, td), _ = _scaled((total_ab, total_dc))
        sol = _pivot_solution((*rows[:2], (ta, -td, 0, 1)), 2, (*x[:2], Fraction(0)))
        invariant(sol is not None, "the cumulant vectors are independent at the first two coordinates")
        mode, solved = "audited", range(2)
    else:
        sol = _pivot_solution(rows, pivot, x)
        invariant(sol is not None, "pivot solve is regular whenever the discriminant is nonzero")
        solved = range(pivot - 2, pivot + 1)
    if not _spans(rows, sol, x, solved):
        return Verdict(False, reason=REASON_OFF_SUBSPACE)
    verdict = _coefficient_verdict(*sol, total_ab, total_dc, mode)
    if pivot is not None or not verdict.attainable:
        return verdict
    triple = tuple(Fraction(v, sol[3]) for v in sol[:3])
    lo, hi, _ = _segment(rows, total_ab, total_dc, triple)
    q1 = Interval(max(lo, Fraction(0)), hi) if hi > 0 else None
    q2 = Interval(max(-hi, Fraction(0)), -lo) if lo < 0 else None
    b = triple[1] / total_ab
    return Verdict(True, Certificate("degenerate", (triple[2] + b, b), q1, q2))


def member(spec: DivisionSpec, x: Sequence[Fraction], mode: Mode = "audited") -> Verdict:
    """Decide attainability of an area tuple and certify the answer.

    Rejections carry one of four reasons: "non-positive-entry" (some entry of
    x is not strictly positive), "off-subspace" (x misses the linear span of
    the frame), "boundary" (x sits on the boundary of the open attainable
    regions), "negative-coefficient" (the exact decomposition has a strictly
    negative coordinate).
    """
    _check_mode(mode)
    if len(x) != spec.n:
        raise InvalidInputError("area tuple length does not match the division spec")
    x = fraction_tuple(x)
    if any(entry.numerator <= 0 for entry in x):
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
    apex = cert.branch in ("q1", "q2") or cert.q1_interval is not None or cert.q2_interval is not None
    return "not-forced" if apex else "forced-parallel"
