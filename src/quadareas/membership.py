"""Decides whether an area tuple is attainable and produces exact certificates.

Every decision reads one ``cone._Factored`` record: the spec's
(``cone._factored``), its mirror's, a fold's or ``reduction.member_tail``'s
pair's, each built once by ``cone._factor`` and kept.  ``_decide`` is the one
decision path, run by ``member`` and ``member_tail``; the folds of
``member_via_collapse`` reuse its first two steps.

1. ``_pivot_solution``: Cramer's rule on the cofactors of the record's x-free
   block, regular by construction (checked once, where ``cone._factor`` builds it),
   with the right-hand side L_c*x_c read in ints from x's numerators and
   denominators (one gcd per row and one lcm, no Fraction), gives the
   primitive int vector (A, B, C, E), E > 0, with
   x = (A*ab + B*dc + C*head)/E at the pivot triple.  A planar record borders
   rows 0 and 1 with A*total_ab = B*total_dc instead, which yields the span
   triple (b*total_dc, b*total_ab, a - b) of x = a*head + b*tail.
2. ``_spans`` compares that vector with x at every other row, in ``int`` by
   one exact division per row.  This alone decides whether x lies on the
   span, so no hyperplane is evaluated.
3. ``_facets`` reads the signs of the four facets a, b, a + c*T and b + c*S
   (``_facet_values``, in ints), the one place that decides attainability:
   ``_coefficient_verdict`` then picks the branch of a spatial tuple, and a
   planar tuple inside the cone gets its certificate from ``_segment``.
   ``Fraction``s are built only for the certificate's values.

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
point a - b.  The segment is one int kernel, fed x's span triple as an int
vector and the record's planar conic, which returns its line and range as int
pairs.  ``_decide`` turns the range into the certificate's two intervals;
``_realization`` recomputes it from the certificate's (a, b) and picks one
point of it in ints, the witness's input.

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

_ZERO = Fraction(0)  # the planar solve's border entry and the zero end of a planar interval


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


def _facet_values(a: int, b: int, c: int, total_ab: tuple[int, int], total_dc: tuple[int, int]):
    """The four facets a, b, a + c*T and b + c*S of x = (a*ab + b*dc + c*head)/e, e > 0, as ints
    (a, b, a2, b2) of the same signs, with the totals read as the record's int pairs
    total_ab = (tan, tad) and total_dc = (tdn, tdd); linear in (a, b, c)."""
    (tan, tad), (tdn, tdd) = total_ab, total_dc
    return a, b, a * tdd + c * tdn, b * tad + c * tan


def _facets(a: int, b: int, c: int, total_ab: tuple[int, int], total_dc: tuple[int, int]):
    """(a2, b2, reason) for x = (a*ab + b*dc + c*head)/e, e > 0: a2/(e*tdd) and b2/(e*tad), the last two
    ``_facet_values``, are the q2 coefficients, from head + tail = total_dc*ab + total_ab*dc.  The attainable
    set is the open cone of positive facet values: reason is None inside it, boundary on its boundary and
    negative outside.
    """
    values = _facet_values(a, b, c, total_ab, total_dc)
    low = min(values)
    return values[2], values[3], None if low > 0 else REASON_BOUNDARY if low == 0 else REASON_NEGATIVE


def _coefficient_verdict(
    a: int, b: int, c: int, e: int, total_ab: tuple[int, int], total_dc: tuple[int, int], mode: Mode
) -> Verdict:
    """The verdict for x = (a*ab + b*dc + c*head)/e, e > 0, already checked exactly.

    Inside the open cone of ``_facets`` the sign of c picks q1, q2 or the parallel ray or face
    (by mode); strict mode rejects the rest of the face as boundary.  Fractions are built only
    for the certificate.
    """
    a2, b2, reason = _facets(a, b, c, total_ab, total_dc)
    if reason is None:
        if c > 0:
            return Verdict(True, Certificate("q1", (Fraction(a, e), Fraction(b, e), Fraction(c, e))))
        if c < 0:
            q2 = (Fraction(a2, e * total_dc[1]), Fraction(b2, e * total_ab[1]), Fraction(-c, e))
            return Verdict(True, Certificate("q2", q2))
        if a == b:
            return Verdict(True, Certificate("ray", (Fraction(a, e),)))
        if mode == "audited":
            return Verdict(True, Certificate("face", (Fraction(a, e), Fraction(b, e))))
        reason = REASON_BOUNDARY
    return Verdict(False, reason=reason)


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
    The block is regular by construction (``cone._factor`` checks it once), so the solve is total.
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


def _segment(sol: Sequence[int], conic: Sequence[int], total_ab: tuple[int, int], total_dc: tuple[int, int]):
    """((fa, fb, ua, ub, d), lo, hi): the line of x's span triples ((fa - t*ua)/d, (fb - t*ub)/d, t)
    and the open range lo < t < hi of head coefficients on it, as int pairs over positive denominators.

    x = (A*ab + B*dc + C*head)/E with ``sol`` = (A, B, C, E), E > 0.  On skew ratio vectors
    head = alpha*ab + beta*dc, read from the record's ``conic`` (m_a, m_b, m) as alpha = -m_a/m and
    beta = -m_b/m over the one denominator |m| (the cumulants lie in span(ab, dc), so this holds at every
    row), and x's span triples are the line (A/E + s*alpha, B/E + s*beta, C/E - s); (fa/d, fb/d) is its
    point at t = 0, x's face coordinates.  At t its ``_facet_values`` are positive multiples of those of
    (fa, fb, 0) plus t*E times those of (-alpha, -beta, |m|): each is v + t*E*k for ints v and k, so it
    bounds t by -v/(E*k), compared with the others by cross-multiplying.  Head and tail have positive
    entries, so some facet bounds t above and some below.  On proportional ones (m == 0) c is
    pinned: the line is x's triple alone and lo = hi = (C, E).
    """
    big_a, big_b, c, e = sol
    m_a, m_b, m = conic
    if not m:
        return (big_a, big_b, 0, 0, e), (c, e), (c, e)
    alpha, beta, den = (m_a, m_b, -m) if m < 0 else (-m_a, -m_b, m)
    fa, fb = big_a * den + c * alpha, big_b * den + c * beta
    lo = hi = None
    for v, k in zip(_facet_values(fa, fb, 0, total_ab, total_dc),
                    _facet_values(-alpha, -beta, den, total_ab, total_dc)):
        if k > 0:
            if lo is None or -v * lo[1] > lo[0] * k:
                lo = (-v, k)
        elif k < 0 and (hi is None or v * hi[1] < hi[0] * -k):
            hi = (v, -k)
    return (fa, fb, alpha * e, beta * e, e * den), (lo[0], lo[1] * e), (hi[0], hi[1] * e)


def _realization(spec: DivisionSpec, cert: Certificate) -> Certificate:
    """The q1, q2, face or ray certificate of one re-decomposition of a degenerate certificate.

    x = a*head + b*tail is the span triple (b*total_dc, b*total_ab, a - b), put over one
    denominator; it moves along its ``_segment`` to c = 0 when that is inside, else to the
    segment's midpoint, in ints.  On proportional ratio vectors c = a - b is pinned and the
    triple is the even split A*P_0 = B*Q_0, as total_dc/total_ab = Q_0/P_0; at c = 0 the face
    is split equally instead.  Planar verdicts ignore the mode, so the branch is named in
    audited mode.
    """
    f = _factored(spec)
    total_ab, total_dc = f.total_ab, f.total_dc
    (tan, tad), (tdn, tdd) = total_ab, total_dc
    (a, b), d = _scaled(cert.coeffs)
    sol = _primitive((b * tdn * tad, b * tan * tdd, (a - b) * tdd * tad, d * tdd * tad))
    (fa, fb, ua, ub, den), lo, hi = _segment(sol, f.conic, total_ab, total_dc)
    (ln, ld), (hn, hd) = lo, hi
    if lo != hi:
        tn, td = (0, 1) if ln < 0 < hn else (ln * hd + hn * ld, 2 * ld * hd)
        point = (fa * td - tn * ua, fb * td - tn * ub, tn * den, den * td)
    elif ln:
        point = sol
    else:
        p0, q0, _, _ = f.rows[0]
        split = fa * p0 + fb * q0
        point = (split, split, 0, den * (p0 + q0))
    verdict = _coefficient_verdict(*point, total_ab, total_dc, "audited")
    invariant(verdict.attainable, "an attainable planar tuple admits a realization")
    return verdict.certificate


def _decide(f: _Factored, x: tuple[Fraction, ...], mode: Mode) -> Verdict:
    """The verdict for a positive x on a spec's factored rows: the pivot solve, its componentwise
    check on the rows the solve did not use and the coefficient verdict; an attainable planar x
    (pivot None) is certified by (a, b) with x = a*head + b*tail and its ``_segment``'s two
    intervals, with Fractions built only for the coefficients and the interval ends.

    The planar solve borders rows 0 and 1 with (T_ab, -T_dc, 0) over the totals' common
    denominator s: on span(head, tail), A*T_ab = B*T_dc holds exactly at x's span triple
    (b*T_dc, b*T_ab, a - b).  With K_i = T_dc*P_i + T_ab*Q_i - H_i = L_i*tail_i, the block's
    determinant is -s*M for the head/tail minor M = H_0*K_1 - K_0*H_1 < 0, so it is regular, as is every
    block (checked once, in ``cone._factor``).  Planar verdicts ignore the mode: x is
    attainable exactly when its four facet values are positive (``_facets``).
    """
    pivot = f.pivot
    if pivot is None:
        sol = _pivot_solution(f.block, (*x[:2], _ZERO))
        solved = range(2)
    else:
        sol = _pivot_solution(f.block, x)
        solved = range(pivot - 2, pivot + 1)
    if not _spans(f.rows, sol, x, solved):
        return Verdict(False, reason=REASON_OFF_SUBSPACE)
    total_ab, total_dc = f.total_ab, f.total_dc
    if pivot is not None:
        return _coefficient_verdict(*sol, total_ab, total_dc, mode)
    big_a, big_b, c, e = sol
    reason = _facets(big_a, big_b, c, total_ab, total_dc)[2]
    if reason is not None:
        return Verdict(False, reason=reason)
    _, (ln, ld), (hn, hd) = _segment(sol, f.conic, total_ab, total_dc)
    q1 = Interval(Fraction(ln, ld) if ln > 0 else _ZERO, Fraction(hn, hd)) if hn > 0 else None
    q2 = Interval(Fraction(-hn, hd) if hn < 0 else _ZERO, Fraction(-ln, ld)) if ln < 0 else None
    # x = a*head + b*tail with b = (B/E)/total_ab and a = C/E + b
    tan, tad = total_ab
    coeffs = (Fraction(c * tan + big_b * tad, e * tan), Fraction(big_b * tad, e * tan))
    return Verdict(True, Certificate("degenerate", coeffs, q1, q2))


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
