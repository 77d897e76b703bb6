"""Decides whether an area tuple is attainable and produces exact certificates.

Every decision reads one ``cone._Factored`` record: the spec's
(``cone._factored``), its mirror's, a fold's or ``reduction.member_tail``'s
pair's, each built once by ``cone._factor`` and kept.  ``_decide`` is the one
decision path, run by ``member`` and ``member_tail``; the folds of
``member_via_collapse`` reuse its first two steps.

1. ``_pivot_solution``: Cramer's rule on the cofactors of the record's x-free
   block, regular by construction (checked once, in ``cone._pivot_block``),
   with the right-hand side L_c*x_c read in ints from x's numerators and
   denominators (one gcd per row and one lcm, no Fraction), gives the
   primitive int vector (A, B, C, E), E > 0, with
   x = (A*ab + B*dc + C*head)/E at the pivot triple.  A planar record borders
   rows 0 and 1 with A*total_ab = B*total_dc instead, which yields the span
   triple (b*total_dc, b*total_ab, a - b) of x = a*head + b*tail.
2. ``_spans`` compares that vector with x at every other row, in ``int`` by
   one exact division per row.  This alone decides whether x lies on the
   span, so no hyperplane is evaluated.
3. ``_coefficient_verdict`` reads the four facet signs from ints and builds
   ``Fraction``s only for the certificate.

So a decision is O(n) per query and computes no frame and no tail cumulant.

``member`` decides every tuple from its lighter end: when x's first
denominator is more than 64 bits longer than its last
(``division._lighter_at_end``), as a big-digit q2 tuple's is, it decides the
reversed x on the record of ``division._mirror``, the spec read from the other
end of both sides, and reads the verdict back.  The mirror's ab, dc and head
are the spec's ab, dc and tail reversed, so the span, the four facet values
and any face or ray coefficients are the same from either end; q1 and q2
swap, and so do a degenerate certificate's (a, b) and its two intervals.

A planar certificate's re-decompositions lie on one segment of span triples
(``_segment``): on skew sides along (alpha, beta, -1), clipped by the four
facets to an open range of the head coefficient; on proportional ones the
point a - b.  ``_realization`` picks one point of it, the witness's input.

Two semantics are offered for parallel-sided realizations:

* ``audited`` (the default) accepts the whole open face a*ab + b*dc with
  a, b > 0, which trapezoids with independent side scalings realize;
* ``strict`` accepts from that face only the equal-scaling ray a = b, which
  depends on the units in which p and p' are written: rescaling one side
  moves the ray across the face.

Everything else is common: in the spatial case a tuple is attainable iff it
is a strictly positive combination of the two ratio vectors and one cumulant
vector (branch q1 with the head cumulants, q2 with the tail cumulants); in
the planar case iff it is a strictly positive combination of the two cumulant
vectors.  Boundary points of these open regions are rejected.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Literal, Optional, Sequence

from .cone import _Block, _Factored, _factored, frame, hyperplanes
from .division import DivisionSpec, _Frozen, _check_spec, _lighter_at_end, _mirror, fraction_tuple
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
    With row (P, Q, H, L) and x_i = xn/xd in lowest terms, x_i == (A*P + B*Q + C*H)/(E*L) exactly
    when ``k, r = divmod(E*L, xd)`` gives r == 0 and A*P + B*Q + C*H == k*xn (xd is coprime to
    xn, so it divides E*L whenever the two are equal).  That is one division whose quotient is
    short when xd is about as long as E*L, as for q1, q2 (decided on the mirror), boundary
    and negative tuples, in place of two long products.
    """
    a, b, c, e = sol
    for part in (slice(solved.start), slice(solved.stop, None)):
        for (p, q, h, den), xi in zip(rows[part], x[part]):
            k, r = divmod(e * den, xi.denominator)
            if r or a * p + b * q + c * h != k * xi.numerator:
                return False
    return True


def _pivot_solution(block: _Block, x: tuple[Fraction, ...]):
    """The primitive (A, B, C, E), E > 0, with x = (A*ab + B*dc + C*head)/E at the block's rows.

    Row c, scaled by L_c, is (P_c, Q_c, H_c) @ (a, b, c) = L_c*x_c: Cramer's rule on the
    cofactors of the x-free block, with the right-hand side over one common denominator den,
    gives the three numerators over det*den; the four are divided by their one gcd.
    Each L_c*x_c is read in ints from x_c = xn/xd as (L_c/g)*xn over xd/g, g = gcd(L_c, xd), the
    lowest terms a Fraction product would take, so the solve builds no Fraction.
    The block is regular by construction (``cone._pivot_block`` checks it once), so the solve is total.
    ``_decide`` also solves the planar case with it, on rows 0 and 1 and a border row.
    """
    (k0, k1, k2), (l0, l1, l2) = block.cols, block.dens
    x0, x1, x2 = x[k0], x[k1], x[k2]
    d0, d1, d2 = x0.denominator, x1.denominator, x2.denominator
    g0, g1, g2 = gcd(l0, d0), gcd(l1, d1), gcd(l2, d2)
    d0, d1, d2 = d0 // g0, d1 // g1, d2 // g2
    den = lcm(d0, d1, d2)
    r0 = l0 // g0 * x0.numerator * (den // d0)
    r1 = l1 // g1 * x1.numerator * (den // d1)
    r2 = l2 // g2 * x2.numerator * (den // d2)
    return _primitive((*(r0 * c0 + r1 * c1 + r2 * c2 for c0, c1, c2 in zip(*block.cof)), block.det * den))


def _segment(f: _Factored, triple: Sequence[Fraction]):
    """(lo, hi, at): the open range of head coefficients over x's span triples, and the triple at each.

    x = A*ab + B*dc + c*head.  On skew ratio vectors head = alpha*ab + beta*dc,
    solved at rows 0 and 1 once per spec (``f.face``; its cumulants lie in
    span(ab, dc), so the solve holds at every row), and x's span triples are the
    line (A + s*alpha, B + s*beta, c - s).  With (F_A, F_B) x's face coordinates,
    the four facets of ``_coefficient_verdict`` at head coefficient t are F_A - t*alpha, F_B - t*beta,
    F_A + t*(total_dc - alpha) and F_B + t*(total_ab - beta); head and tail have
    positive entries, so some facet bounds t above and some below.  On
    proportional ones c is pinned: lo = hi = c.  With every discriminant zero,
    ab and dc are proportional at every row exactly when they are at rows 0 and 1.
    """
    big_a, big_b, c = triple
    if f.face is None:
        return c, c, lambda _: triple
    alpha, beta = f.face
    face = (big_a + c * alpha, big_b + c * beta)
    facets = tuple(zip(face * 2, (-alpha, -beta, f.total_dc - alpha, f.total_ab - beta)))
    lo = max(-v / k for v, k in facets if k > 0)
    hi = min(-v / k for v, k in facets if k < 0)
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
    f = _factored(spec)
    total_ab, total_dc = f.total_ab, f.total_dc
    a, b = cert.coeffs
    lo, hi, at = _segment(f, (b * total_dc, b * total_ab, a - b))
    big_a, big_b, c = at(Fraction(0) if lo < 0 < hi else (lo + hi) / 2)
    if lo == hi == 0:
        p0, q0, _, _ = f.rows[0]
        big_a = big_b = (big_a * p0 + big_b * q0) / (p0 + q0)
    ints, e = _scaled((big_a, big_b, c))
    verdict = _coefficient_verdict(*ints, e, total_ab, total_dc, "audited")
    invariant(verdict.attainable, "an attainable planar tuple admits a realization")
    return verdict.certificate


def _decide(f: _Factored, x: tuple[Fraction, ...], mode: Mode) -> Verdict:
    """The verdict for a positive x on a spec's factored rows: the pivot solve, its componentwise
    check on the rows the solve did not use and the coefficient verdict; an attainable planar x
    (pivot None) is certified by (a, b) with x = a*head + b*tail and its segment's two intervals,
    the only place it builds the span triple's Fractions.

    The planar solve borders rows 0 and 1 with (T_ab, -T_dc, 0) over the totals' common
    denominator s: on span(head, tail), A*T_ab = B*T_dc holds exactly at x's span triple
    (b*T_dc, b*T_ab, a - b).  With K_i = T_dc*P_i + T_ab*Q_i - H_i = L_i*tail_i, the block's
    determinant is -s*M for the head/tail minor M = H_0*K_1 - K_0*H_1 < 0, so it is regular, as is every
    block (checked once, in ``cone._pivot_block``).  Planar verdicts ignore the mode.
    """
    pivot = f.pivot
    if pivot is None:
        sol = _pivot_solution(f.block, (*x[:2], Fraction(0)))
        mode, solved = "audited", range(2)
    else:
        sol = _pivot_solution(f.block, x)
        solved = range(pivot - 2, pivot + 1)
    if not _spans(f.rows, sol, x, solved):
        return Verdict(False, reason=REASON_OFF_SUBSPACE)
    verdict = _coefficient_verdict(*sol, f.total_ab, f.total_dc, mode)
    if pivot is not None or not verdict.attainable:
        return verdict
    triple = tuple(Fraction(v, sol[3]) for v in sol[:3])
    lo, hi, _ = _segment(f, triple)
    q1 = Interval(max(lo, Fraction(0)), hi) if hi > 0 else None
    q2 = Interval(max(-hi, Fraction(0)), -lo) if lo < 0 else None
    b = triple[1] / f.total_ab
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
    _check_spec("member", spec)
    x = fraction_tuple(x)
    if len(x) != spec.n:
        raise InvalidInputError("area tuple length does not match the division spec")
    if any(entry.numerator <= 0 for entry in x):
        return Verdict(False, reason=REASON_NON_POSITIVE)
    if _lighter_at_end(x[0], x[-1]):
        # decided from the lighter end, where x's coefficients are as small as a q1 tuple's, and read back:
        # q1 and q2 swap, so do a degenerate (a, b) and its intervals; face, ray and rejections read alike
        verdict = _decide(_factored(_mirror(spec)), x[::-1], mode)
        cert = verdict.certificate
        if cert is None or cert.branch in ("face", "ray"):
            return verdict
        if cert.branch == "degenerate":
            return Verdict(True, Certificate("degenerate", cert.coeffs[::-1], cert.q2_interval, cert.q1_interval))
        return Verdict(True, Certificate("q2" if cert.branch == "q1" else "q1", cert.coeffs))
    return _decide(_factored(spec), x, mode)


def proportional_bounds(p: Sequence[Fraction]):
    """Plane and open ratio window for equal ratio tuples of length three.

    For p_prime = p, a positive tuple x is attainable exactly when it lies on
    the returned plane and x3/x1 falls strictly inside the returned window,
    (tail3/tail1, head3/head1) of the spec's frame.
    """
    p = fraction_tuple(p)
    if len(p) != 3:
        raise InvalidInputError("expects three positive ratios")
    spec = DivisionSpec(p, p)
    fr = frame(spec)
    return hyperplanes(spec)[0], (fr.tail[2] / fr.tail[0], fr.head[2] / fr.head[0])


def parallel_diagnosis(spec: DivisionSpec, x: Sequence[Fraction]) -> str:
    """Classify an area tuple by which realizations it admits.

    "forced-parallel": attainable, but only by quadrilaterals whose divided
    sides are parallel (no q1 and no q2 realization exists).
    "not-forced": attainable with at least one apex realization.
    "not-attainable": not attainable at all (audited semantics).
    """
    _check_spec("parallel_diagnosis", spec)
    verdict = member(spec, x, "audited")
    if not verdict.attainable:
        return "not-attainable"
    cert = verdict.certificate
    apex = cert.branch in ("q1", "q2") or cert.q1_interval is not None or cert.q2_interval is not None
    return "not-forced" if apex else "forced-parallel"
