"""The exact kernels against their step-by-step Fraction references.

Each kernel normalises its result once.  The documented formulas come from
``reference`` (bench/reference.py, which shares no code with quadareas); the
references below are the plain Fraction forms (one normalisation per
operation) the kernels replaced.  Every property requires identical Fractions.
The stored fixture holds outputs of the Fraction implementations and is
compared, never rewritten.
"""
import ast
import json
import random
import sys
from fractions import Fraction as F
from functools import partial
from itertools import accumulate, permutations
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import quadareas
from quadareas import (
    Certificate,
    ConvexQuad,
    DegenerateCollapseError,
    DegenerateDenominatorError,
    DivisionSpec,
    InternalError,
    InvalidInputError,
    NoValidContinuationError,
    Point,
    QuadAreasError,
    StationCoefficients,
    TailSummedSequence,
    Verdict,
    apex_quad,
    classify,
    collapse,
    continue_degenerate,
    cross_validate,
    cumulant_tail_sums,
    cumulants,
    discriminants,
    extend_solution,
    frame,
    hyperplanes,
    is_convex_ccw,
    member,
    member_tail,
    member_via_collapse,
    proportional_bounds,
    station_check,
    station_coefficients,
    strip_areas,
    subdivide,
    synthesize_witness,
    tail_cumulants,
    to_fraction,
)
from quadareas.cli import _describe_payload
from quadareas.cone import _discriminant, _factor, _factored, _pivot_block, _rows
from quadareas.division import _lighter_at_end, _mirror, fraction_tuple
from quadareas.geometry import _SHORT_BITS, _integer_side_sums
from quadareas.linalg import _cofactors, _primitive, _scaled
from quadareas.membership import (
    Interval, _coefficient_verdict, _decide, _pivot_solution, _realization, _segment, _spans,
)
from quadareas.witness import _trapezoid
import reference

FIXTURE = json.loads((Path(__file__).parent / "fixtures" / "kernel_outputs.json").read_text())
# planar witnesses (proportional and skew specs, n = 3-14, grid and 30-digit entries; 30-digit skew
# specs stop at n = 6, as a skew chain's continued entries grow with n), q2 apex quads, and station
# reports for positive x with a consistent tail sum, written once by the frame-based constructions
CONSTRUCTIONS = json.loads((Path(__file__).parent / "fixtures" / "construction_outputs.json").read_text())


# ---- references -------------------------------------------------------------


def det3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def inverse3(m):
    """The inverse of a 3x3 matrix, its adjugate (transposed cofactors) over det; None when singular."""
    d = det3(m)
    if d == 0:
        return None
    cof = [[m[(i + 1) % 3][(j + 1) % 3] * m[(i + 2) % 3][(j + 2) % 3]
            - m[(i + 1) % 3][(j + 2) % 3] * m[(i + 2) % 3][(j + 1) % 3]
            for j in range(3)] for i in range(3)]
    return tuple(tuple(cof[j][i] / d for j in range(3)) for i in range(3))


def ref_sided_cumulants(p, p_prime):
    """The head cumulants p[i]*sum(p'[:i]) + p'[i]*sum(p[:i+1]), unnormalised, and the two totals.

    The running sums are kept as (numerator, lcm of denominators so far) pairs.
    Each entry comes out as a (numerator, denominator) pair whose denominator
    is a multiple of the denominators of p[i] and p'[i]; the totals come out
    as Fractions.
    """
    out = []
    sp, dp, sq, dq = 0, 1, 0, 1
    for a, b in zip(p, p_prime):
        an, ad, bn, bd = a.numerator, a.denominator, b.numerator, b.denominator
        d = lcm(dp, ad)
        sp, dp = sp * (d // dp) + an * (d // ad), d
        # a*sq/dq + b*sp/dp over dq*bd*dp, as ad divides dp
        out.append((an * sq * bd * (dp // ad) + bn * sp * dq, dq * bd * dp))
        d = lcm(dq, bd)
        sq, dq = sq * (d // dq) + bn * (d // bd), d
    return out, F(sp, dp), F(sq, dq)


def ref_rows(p, q):
    """One integer row (P, Q, H, L) per coordinate, with ab = P/L, dc = Q/L and
    head = H/L left unnormalised, plus the totals of ab and dc: the rows over the lcm of every
    earlier denominator, which the lowest-terms running sums of ``cone._rows`` replaced."""
    head, total_ab, total_dc = ref_sided_cumulants(p, q)
    rows = tuple(
        (a.numerator * (den // a.denominator), b.numerator * (den // b.denominator), num, den)
        for a, b, (num, den) in zip(p, q, head)
    )
    return rows, total_ab, total_dc


def int_vector(triple):
    """A rational triple as the int vector (A, B, C, E) over its common denominator E."""
    ints, den = _scaled(triple)
    return (*ints, den)


def as_fractions(sol):
    """The int vector (A, B, C, E) as the triple (A/E, B/E, C/E); None stays None."""
    return None if sol is None else tuple(F(v, sol[3]) for v in sol[:3])


def assert_primitive(sol):
    assert gcd(*sol) == 1 and sol[3] > 0


def as_interval(bounds):
    """A re-decomposition range (lo, hi) from ``reference.redecomposition`` as an Interval; None stays None."""
    return None if bounds is None else Interval(*bounds)


def xy(points):
    """Points as the (x, y) tuples of ``reference``."""
    return [(v.x, v.y) for v in points]


def ref_frame_pivot_solution(spec, pivot, x):
    fr = frame(spec)
    cols = (pivot - 2, pivot - 1, pivot)
    sol = reference.solve([[fr.ab[c], fr.dc[c], fr.head[c]] for c in cols], [x[c] for c in cols])
    return sol if reference.combine(sol, (fr.ab, fr.dc, fr.head)) == x else None


def ref_pivot_solution(block, x):
    """The pivot solve as it was: the right-hand side as Fraction products L_c*x_c, put over their lcm
    by ``_scaled``."""
    (r0, r1, r2), den = _scaled([l_c * x[c] for c, l_c in zip(block.cols, block.dens)])
    return _primitive((*(r0 * c0 + r1 * c1 + r2 * c2 for c0, c1, c2 in zip(*block.cof)), block.det * den))


def ref_segment(spec, triple):
    """(lo, hi, at) of a planar spec as it was: the open range of head coefficients over the span
    triples of x = A*ab + B*dc + c*head, (A, B, c) = triple, and the triple at each, in Fractions
    read from head's face coordinates (alpha, beta), head = alpha*ab + beta*dc, solved by Cramer's
    rule on the frame's rows 0 and 1; on proportional sides lo = hi = c."""
    big_a, big_b, c = triple
    fr = frame(spec)
    (p0, p1), (q0, q1), (h0, h1) = fr.ab[:2], fr.dc[:2], fr.head[:2]
    det = p0 * q1 - p1 * q0
    if det == 0:
        return c, c, lambda _: triple
    alpha, beta = (h0 * q1 - q0 * h1) / det, (p0 * h1 - h0 * p1) / det
    face = (big_a + c * alpha, big_b + c * beta)
    total_ab, total_dc = sum(fr.ab), sum(fr.dc)
    facets = tuple(zip(face * 2, (-alpha, -beta, total_dc - alpha, total_ab - beta)))
    lo = max(-v / k for v, k in facets if k > 0)
    hi = min(-v / k for v, k in facets if k < 0)
    return lo, hi, lambda t: (face[0] - t * alpha, face[1] - t * beta, t)


def ref_planar_decide(spec, x):
    """``_decide`` on a planar spec's record as it was: the coefficient verdict of the bordered solve,
    thrown away for a degenerate certificate whose intervals come from ``ref_segment``."""
    f = _factored(spec)
    sol = _pivot_solution(f.block, (*x[:2], F(0)))
    if not _spans(f.rows, sol, x, range(2)):
        return Verdict(False, reason="off-subspace")
    verdict = _coefficient_verdict(*sol, f.total_ab, f.total_dc, "audited")
    if not verdict.attainable:
        return verdict
    triple = as_fractions(sol)
    lo, hi, _ = ref_segment(spec, triple)
    q1 = Interval(max(lo, F(0)), hi) if hi > 0 else None
    q2 = Interval(max(-hi, F(0)), -lo) if lo < 0 else None
    b = triple[1] / F(*f.total_ab)
    return Verdict(True, Certificate("degenerate", (triple[2] + b, b), q1, q2))


def ref_realization(spec, cert):
    """``_realization`` as it was: the span triple moved along ``ref_segment`` in Fractions, to
    c = 0 when inside, else to the midpoint, with the proportional even split at c = 0."""
    f = _factored(spec)
    a, b = cert.coeffs
    lo, hi, at = ref_segment(spec, span_triple(*totals(f), a, b))
    big_a, big_b, c = at(F(0) if lo < 0 < hi else (lo + hi) / 2)
    if lo == hi == 0:
        p0, q0, _, _ = f.rows[0]
        big_a = big_b = (big_a * p0 + big_b * q0) / (p0 + q0)
    return _coefficient_verdict(*int_vector((big_a, big_b, c)), f.total_ab, f.total_dc, "audited").certificate


def segment_of(f, triple):
    """``_segment`` on a rational triple: (lo, hi) as Fractions and the line of span triples as
    ``at``, a function of the head coefficient t."""
    (fa, fb, ua, ub, d), lo, hi = _segment(int_vector(triple), f.conic, f.total_ab, f.total_dc)
    return F(*lo), F(*hi), lambda t: (F(fa, d) - t * F(ua, d), F(fb, d) - t * F(ub, d), t)


def ref_coefficient_verdict(a, b, c, total_ab, total_dc, mode, prefix_certified=False):
    """The coefficient verdict as it was: q1, then q2, then the parallel ray or face by mode;
    otherwise boundary when either closed region holds x, else negative."""
    verdict = partial(Verdict, prefix_certified=prefix_certified)
    a2, b2, c2 = a + c * total_dc, b + c * total_ab, -c
    if a > 0 and b > 0 and c > 0:
        return verdict(True, Certificate("q1", (a, b, c)))
    if a2 > 0 and b2 > 0 and c2 > 0:
        return verdict(True, Certificate("q2", (a2, b2, c2)))
    if c == 0 and a > 0 and b > 0:
        if a == b:
            return verdict(True, Certificate("ray", (a,)))
        if mode == "audited":
            return verdict(True, Certificate("face", (a, b)))
        return verdict(False, reason="boundary")
    closed = (a >= 0 and b >= 0 and c >= 0) or (a2 >= 0 and b2 >= 0 and c2 >= 0)
    return verdict(False, reason="boundary" if closed else "negative-coefficient")


def ref_member(spec, x, mode):
    if any(v <= 0 for v in x):
        return Verdict(False, reason="non-positive-entry")
    sol = ref_frame_pivot_solution(spec, classify(spec).pivot, x)
    if sol is None:
        return Verdict(False, reason="off-subspace")
    return ref_coefficient_verdict(*sol, sum(spec.p), sum(spec.p_prime), mode)


def head_basis_member(spec, x, mode):
    """``member`` solving every tuple in the spec's own head basis, whichever end of x is heavier."""
    x = fraction_tuple(x)
    if any(v.numerator <= 0 for v in x):
        return Verdict(False, reason="non-positive-entry")
    return _decide(_factored(spec), x, mode)


def read_back(verdict):
    """The verdict on the mirror read back for the spec: a q1 certificate renamed q2 and a q2 one
    renamed q1, coefficients kept; a degenerate certificate's two coefficients and two intervals
    swapped; any other verdict kept."""
    cert = verdict.certificate
    if cert is None or cert.branch in ("face", "ray"):
        return verdict
    if cert.branch == "degenerate":
        a, b = cert.coeffs
        return Verdict(True, Certificate("degenerate", (b, a), cert.q2_interval, cert.q1_interval))
    return Verdict(True, Certificate("q2" if cert.branch == "q1" else "q1", cert.coeffs))


def ref_fold_solutions(spec, x, pivot):
    """The fold solve as it was: the frame of each spatial fold, its arm, a Fraction 3x3 solve."""
    folded = {}
    for branch in ("q1", "q2"):
        instance = collapse(spec, x, pivot, branch)
        if classify(instance.spec3).spatial:
            fr3 = frame(instance.spec3)
            arm = fr3.head if branch == "q1" else fr3.tail
            rows = [[fr3.ab[i], fr3.dc[i], arm[i]] for i in range(3)]
            folded[branch] = reference.solve(rows, list(instance.x3))
    return folded


def ref_member_via_collapse(spec, x, pivot, mode):
    if any(v <= 0 for v in x):
        return Verdict(False, reason="non-positive-entry")
    folded = ref_fold_solutions(spec, x, pivot)
    total_ab, total_dc = sum(spec.p), sum(spec.p_prime)
    if "q1" in folded:
        a, b, c = folded["q1"]
    elif "q2" in folded:
        a2, b2, c2 = folded["q2"]
        a, b, c = a2 + c2 * total_dc, b2 + c2 * total_ab, -c2
    elif ref_frame_pivot_solution(spec, pivot, x) is None:
        return Verdict(False, reason="off-subspace")
    else:
        raise DegenerateCollapseError("both folds are planar")
    fr = frame(spec)
    if reference.combine((a, b, c), (fr.ab, fr.dc, fr.head)) != x:
        return Verdict(False, reason="off-subspace")
    return ref_coefficient_verdict(a, b, c, total_ab, total_dc, mode)


def ref_verify_combination(vectors, tails, coeffs, x):
    """Every prefix coordinate, then the tail sum the combination forces."""
    for idx in range(x.m):
        if sum((c * vec[idx] for c, vec in zip(coeffs, vectors)), F(0)) != x.prefix[idx]:
            return False
    return sum((c * t for c, t in zip(coeffs, tails)), F(0)) == x.tail_sum


def extended_rows(p, p_prime):
    """The integer rows of the prefix spec and one row of tail sums (ab, dc, head) over their
    common denominator: the rows of the (m+1)-spec that cuts both sides at the prefix."""
    head_tail, _ = cumulant_tail_sums(p, p_prime)
    ints, den = _scaled((p.tail_sum, p_prime.tail_sum, head_tail))
    return _factored(DivisionSpec(p.prefix, p_prime.prefix)).rows + ((*ints, den),)


def ref_member_tail(p, p_prime, x, mode):
    """member_tail on the extended sequences (each tail sum one more entry): a Fraction pivot solve
    at their first nonzero discriminant, or the planar block on an independent pair."""
    verdict = partial(Verdict, prefix_certified=True)
    if any(entry <= 0 for entry in x.prefix):
        return verdict(False, reason="non-positive-entry")
    ratios_finite = p.finite and p_prime.finite
    if ratios_finite and x.tail_sum != 0:
        return verdict(False, reason="off-subspace")
    if not ratios_finite and x.tail_sum == 0:
        return verdict(False, reason="non-positive-entry")
    head, tail = tail_cumulants(p, p_prime)
    head_tail, tail_tail = cumulant_tail_sums(p, p_prime)
    ext_ab, ext_dc = p.prefix + (p.tail_sum,), p_prime.prefix + (p_prime.tail_sum,)
    ext_head, ext_tail = head + (head_tail,), tail + (tail_tail,)
    ext_x = x.prefix + (x.tail_sum,)
    pivot = reference.pivot(ext_ab, ext_dc)
    if pivot is None:
        i, j = reference.independent_pair(ext_head, ext_tail)
        a, b = reference.solve([[ext_head[i], ext_tail[i]], [ext_head[j], ext_tail[j]]], [ext_x[i], ext_x[j]])
        if not ref_verify_combination((head, tail), (head_tail, tail_tail), (a, b), x):
            return verdict(False, reason="off-subspace")
        if a > 0 and b > 0:
            return verdict(True, Certificate(
                "degenerate",
                (a, b),
                as_interval(reference.redecomposition(ext_ab, ext_dc, ext_head, ext_x, a, b, True)),
                as_interval(reference.redecomposition(ext_ab, ext_dc, ext_tail, ext_x, a, b, False)),
            ))
        return verdict(False, reason="boundary" if a >= 0 and b >= 0 else "negative-coefficient")
    cols = (pivot - 2, pivot - 1, pivot)
    a, b, c = reference.solve([[ext_ab[k], ext_dc[k], ext_head[k]] for k in cols], [ext_x[k] for k in cols])
    if not ref_verify_combination((p.prefix, p_prime.prefix, head), (p.tail_sum, p_prime.tail_sum, head_tail),
                                  (a, b, c), x):
        return verdict(False, reason="off-subspace")
    return ref_coefficient_verdict(a, b, c, p.total, p_prime.total, mode, prefix_certified=True)


def ref_member_planar(spec, x):
    """The planar verdict as it was: a Fraction solve on the frame's head and tail, checked
    as a Fraction combination at every coordinate."""
    if any(v <= 0 for v in x):
        return Verdict(False, reason="non-positive-entry")
    fr = frame(spec)
    i, j = reference.independent_pair(fr.head, fr.tail)
    a, b = reference.solve([[fr.head[i], fr.tail[i]], [fr.head[j], fr.tail[j]]], [x[i], x[j]])
    if any(a * h + b * t != xi for h, t, xi in zip(fr.head, fr.tail, x)):
        return Verdict(False, reason="off-subspace")
    if a > 0 and b > 0:
        return Verdict(True, Certificate(
            "degenerate",
            (a, b),
            as_interval(reference.redecomposition(fr.ab, fr.dc, fr.head, x, a, b, True)),
            as_interval(reference.redecomposition(fr.ab, fr.dc, fr.tail, x, a, b, False)),
        ))
    return Verdict(False, reason="boundary" if a >= 0 and b >= 0 else "negative-coefficient")


def normalize_plane(n, coeffs):
    """The plane with coefficient coeffs[i] at index i and zero elsewhere: denominators
    cleared and divided by the gcd, over the given entries only; the construction's sign is kept."""
    ints, _ = _scaled(list(coeffs.values()))
    g = gcd(*ints)
    plane = [0] * n
    for i, v in zip(coeffs, ints):
        plane[i] = v // g if g > 1 else v
    return tuple(plane)


def ref_planar_hyperplanes(spec):
    """The planar hyperplanes as they were: Fraction coefficients on each consecutive triple."""
    p, q = spec.p, spec.p_prime
    planes = []
    for j in range(1, spec.n - 1):
        coeffs = {}
        if spec.proportional():
            coeffs[j - 1] = (p[j + 1] + p[j]) / p[j - 1]
            coeffs[j] = -(p[j - 1] + 2 * p[j] + p[j + 1]) / p[j]
            coeffs[j + 1] = (p[j - 1] + p[j]) / p[j + 1]
        else:
            coeffs[j - 1] = p[j] * q[j + 1] - p[j + 1] * q[j]
            coeffs[j] = p[j + 1] * q[j - 1] - p[j - 1] * q[j + 1]
            coeffs[j + 1] = p[j - 1] * q[j] - p[j] * q[j - 1]
        planes.append(normalize_plane(spec.n, coeffs))
    return tuple(planes)


def ref_hyperplanes(spec):
    """The spatial hyperplanes as they were: the frame's Fraction pivot block through inverse3."""
    fr = frame(spec)
    k = classify(spec).pivot
    cols = (k - 2, k - 1, k)
    inv = inverse3([[vec[c] for c in cols] for vec in (fr.ab, fr.dc, fr.head)])
    planes = []
    for i in range(spec.n):
        if i not in cols:
            coeffs = {i: F(1)}
            for c, row in zip(cols, inv):
                coeffs[c] = -(row[0] * fr.ab[i] + row[1] * fr.dc[i] + row[2] * fr.head[i])
            planes.append(normalize_plane(spec.n, coeffs))
    return tuple(planes)


def ref_apex_parameters(fr, x, interval, arm, proportional):
    """The planar re-decomposition as it was: a Fraction residual on the frame, split evenly on
    proportional ratio vectors, else solved at the first two coordinates."""
    c = interval.lo if interval.is_point else (interval.lo + interval.hi) / 2
    arm_vec = fr.head if arm == "head" else fr.tail
    residual = tuple(xi - c * w for xi, w in zip(x, arm_vec))
    if proportional:
        g = residual[0] / fr.ab[0]
        lam = fr.dc[0] / fr.ab[0]
        return g / 2, g / (2 * lam), c
    a, b = reference.solve([[fr.ab[0], fr.dc[0]], [fr.ab[1], fr.dc[1]]], [residual[0], residual[1]])
    return a, b, c


def ref_face_solution(rows, x, proportional):
    """(a, b) with x = a*ab + b*dc as it was: solved at the first rows, then checked at every row."""
    if proportional:
        p0, q0, _, l0 = rows[0]
        t = l0 * x[0] / (p0 + q0)
        sol = (t, t)
    else:
        # reference.solve divides with /, so the int rows go in as Fractions
        sol = reference.solve([[F(e) for e in row[:2]] for row in rows[:2]], [rows[0][3] * x[0], rows[1][3] * x[1]])
    return sol if _spans(rows, int_vector((*sol, 0)), x, range(0)) else None


def totals(f):
    """A record's side totals, kept as (numerator, denominator) int pairs, as Fractions."""
    return F(*f.total_ab), F(*f.total_dc)


def as_pair(v):
    """A Fraction as the (numerator, denominator) int pair that the kernels read a side total as."""
    return v.numerator, v.denominator


def span_triple(total_ab, total_dc, a, b):
    """x = a*head + b*tail as a*ab + b*dc + c*head coefficients: (b*total_dc, b*total_ab, a - b)."""
    return b * total_dc, b * total_ab, a - b


def face_coordinates(planar):
    """head's and tail's coordinates over (ab, dc) on a planar record: their span triples moved to
    c = 0; for head, (alpha, beta)."""
    return [segment_of(planar, span_triple(*totals(planar), *coeffs))[2](F(0))[:2]
            for coeffs in ((F(1), F(0)), (F(0), F(1)))]


def ref_apex_quad_q2(spec, p0, p0_prime, scale):
    """The q2 apex quad as it was: the q1 quad of the reversed spec, its axes swapped."""
    base = apex_quad(DivisionSpec(spec.p[::-1], spec.p_prime[::-1]), p0, p0_prime, scale, "q1")

    def swap(v):
        return Point(v.y, v.x)

    return ConvexQuad(swap(base.b), swap(base.a), swap(base.d), swap(base.c))


def ref_point_strip_areas(q, spec):
    """strip_areas with its three weights from Point crosses; the integer strip loop is the same."""
    s, t = ([0, *accumulate(_scaled(ratios)[0])] for ratios in (spec.p, spec.p_prime))
    u, w, e = q.b - q.a, q.c - q.d, q.d - q.a
    (ew, eu, uw), den = _scaled(
        (e.cross(w) / (2 * t[-1]), e.cross(u) / (2 * s[-1]), u.cross(w) / (2 * s[-1] * t[-1]))
    )
    return tuple(
        F((t[k - 1] - t[k]) * ew + (s[k - 1] - s[k]) * eu + (s[k] * t[k] - s[k - 1] * t[k - 1]) * uw, den)
        for k in range(1, spec.n + 1)
    )


def ref_proportional_bounds(p):
    """proportional_bounds as it was: the plane, and the window's closed form in the three ratios."""
    p = fraction_tuple(p)
    if len(p) != 3:
        raise InvalidInputError("expects three positive ratios")
    plane = hyperplanes(DivisionSpec(p, p))[0]
    p1, p2, p3 = p
    lo = p3 * p3 / (p1 * (p1 + 2 * p2 + 2 * p3))
    hi = p3 * (2 * p1 + 2 * p2 + p3) / (p1 * p1)
    return plane, (lo, hi)


def ref_station_coefficients(p):
    """station_coefficients as it was: the stations as running ratio sums, the window in closed form."""
    if p.m < 3:
        raise InvalidInputError("stations need a prefix of length at least 3")
    DivisionSpec(p.prefix, p.prefix)
    base = p.prefix[0] + p.prefix[1]
    sigma = []
    running = F(0)
    for i in range(2, p.m):
        running += p.prefix[i - 1]
        sigma.append((p.prefix[0] + p.prefix[i]) / base + 2 * running / base)
    after_first = p.total - p.prefix[0]
    lower = 1 - base / (p.prefix[0] + 2 * after_first)
    upper = 2 + p.prefix[1] / p.prefix[0]
    return StationCoefficients(tuple(sigma), (lower, upper))


def ref_extend_solution(p, p_prime, x1, x2, i):
    """extend_solution as it was: the 3x3 determinant written out along its third row."""
    p, p_prime = fraction_tuple(p), fraction_tuple(p_prime)
    x1, x2 = to_fraction(x1), to_fraction(x2)
    DivisionSpec(p, p_prime)
    if not isinstance(i, int):
        raise InvalidInputError(f"index must be an integer, got {i!r}")
    if i < 2 or i >= len(p):
        raise InvalidInputError("index out of range for the extension formula")
    denom = p[1] * p_prime[0] - p[0] * p_prime[1]
    if denom == 0:
        raise DegenerateDenominatorError("the first two ratio columns are proportional")
    numer = x1 * (p[1] * p_prime[i] - p[i] * p_prime[1]) - x2 * (p[0] * p_prime[i] - p[i] * p_prime[0])
    return numer / denom


def ref_continue_degenerate(p, p_prime, next_p_prime):
    """continue_degenerate as it was: the root of the last discriminant written out in the next AB ratio."""
    p, p_prime, next_p_prime = fraction_tuple(p), fraction_tuple(p_prime), to_fraction(next_p_prime)
    spec = DivisionSpec(p, p_prime)
    if next_p_prime <= 0:
        raise InvalidInputError("the next ratio must be positive")
    if _factored(spec).pivot is not None:
        raise InvalidInputError("prefix discriminants must all vanish")
    numerator = p_prime[-2] * next_p_prime * p[-1] * (p[-2] + p[-1])
    denominator = (p_prime[-2] + p_prime[-1] + next_p_prime) * p[-2] * p_prime[-1] \
        - p_prime[-2] * next_p_prime * p[-1]
    if denominator <= 0:
        raise NoValidContinuationError("no positive continuation exists for this next ratio")
    return numerator / denominator


# ---- strategies -------------------------------------------------------------


@st.composite
def ratios(draw, big=None, signed=False, digits=(30, 300)):
    """A grid rational k/8 or a rational whose numerator and denominator have as many digits as
    drawn from the digits range."""
    if big is None:
        big = draw(st.booleans())
    if big:
        digits = draw(st.integers(*digits))
        value = st.integers(10 ** (digits - 1), 10 ** digits - 1)
        r = F(draw(value), draw(value))
    else:
        r = F(draw(st.integers(1, 64)), 8)
    return -r if signed and draw(st.booleans()) else r


@st.composite
def specs(draw, min_n=2, max_n=12, kinds=("planar-prefix", "spatial", "proportional")):
    """Specs of the given kinds (spatial, proportional, planar-prefix, planar-skew), n = min_n..max_n."""
    n = draw(st.integers(min_n, max_n))
    big = draw(st.booleans())
    kind = draw(st.sampled_from(kinds))
    p = [draw(ratios(big)) for _ in range(n)]
    if kind == "proportional":
        scale = draw(ratios(big))
        q = [scale * v for v in p]
    else:
        q = [draw(ratios(big)) for _ in range(n)]
    if kind in ("planar-prefix", "planar-skew"):
        # a skew start, then zero discriminants up to a drawn length (all of it
        # for planar-skew); a smaller next ratio always continues, so a broken
        # continuation fails the draw instead of halving forever
        q[1] += q[0] * p[1] / p[0]
        for i in range(2, n if kind == "planar-skew" else draw(st.integers(min(3, n), n))):
            for _ in range(64):
                try:
                    p[i] = continue_degenerate(p[:i], q[:i], q[i])
                    break
                except NoValidContinuationError:
                    q[i] /= 2
            else:
                raise AssertionError("no positive continuation in 64 halvings of the next ratio")
    return DivisionSpec(tuple(p), tuple(q))


@st.composite
def pivot_specs(draw):
    """Specs for the first pivot: drawn spatial, proportional, planar-skew and planar-prefix ones,
    spatial ones with 100-digit entries, and a proportional prefix of three or more entries followed
    by drawn ones, whose first discriminant vanishes while a later one need not."""
    kind = draw(st.sampled_from(("drawn", "100-digit", "proportional prefix")))
    if kind == "drawn":
        return draw(specs(kinds=("spatial", "proportional", "planar-skew", "planar-prefix")))
    if kind == "100-digit":
        n = draw(st.integers(3, 10))
        p, q = ([draw(ratios(big=True, digits=(100, 100))) for _ in range(n)] for _ in "pq")
        return DivisionSpec(tuple(p), tuple(q))
    prefix = draw(specs(min_n=3, max_n=8, kinds=("proportional",)))
    extra = draw(st.integers(1, 4))
    p, q = ((*side, *(draw(ratios()) for _ in range(extra))) for side in (prefix.p, prefix.p_prime))
    return DivisionSpec(p, q)


@st.composite
def spatial_queries(draw):
    """A spatial spec, x = a*ab + b*dc + c*arm (a, b > 0; arm head, tail or zero) and a bump size."""
    spec = draw(specs(min_n=3))
    assume(classify(spec).spatial)
    fr = frame(spec)
    arm = draw(st.sampled_from((fr.head, fr.tail, (F(0),) * spec.n)))
    a, b, c = draw(ratios()), draw(ratios()), draw(ratios(signed=True))
    x = tuple(a * u + b * v + c * w for u, v, w in zip(fr.ab, fr.dc, arm))
    return spec, x, draw(ratios(signed=True))


MIRROR_CASES = ("q1", "q2", "face", "ray", "boundary", "negative", "bumped", "non-positive")
PLANAR_MIRROR_CASES = ("degenerate", "face", "ray", "boundary", "negative", "bumped", "non-positive", "heavy")


@st.composite
def mirror_queries(draw):
    """A spec and x of one case kind.  Spatial specs have grid, 30-digit or 100-300-digit entries
    (n = 3-12), and x is a q1 or q2 combination, a face, ray, boundary (b = 0) or negative (-b) one
    on either arm, a q2 combination bumped at one coordinate, or a combination with one entry
    negated.  Proportional and planar-skew specs (n = 3-8) take x = a*head + b*tail (degenerate),
    the face and ray combinations of ab and dc, a boundary (one coefficient zero) or negative (one
    negated) combination, the degenerate one bumped or with an entry negated, or a heavy one: a
    coefficient 90 digits long cancelled at the last entry, so x is lighter at its end."""
    kind = draw(st.sampled_from(("spatial", "proportional", "planar-skew")))
    if kind != "spatial":
        return draw(planar_mirror_query(kind))
    digits = draw(st.sampled_from((None, (30, 30), (100, 300))))
    entry = ratios(big=digits is not None, digits=digits or (30, 300))
    n = draw(st.integers(3, 12))
    spec = DivisionSpec(*(tuple(draw(entry) for _ in range(n)) for _ in "ab"))
    assume(classify(spec).spatial)
    fr = frame(spec)
    case = draw(st.sampled_from(MIRROR_CASES))
    arm = {"q1": fr.head, "q2": fr.tail, "bumped": fr.tail}.get(case) or draw(st.sampled_from((fr.head, fr.tail)))
    a, b, c = draw(ratios()), draw(ratios()), draw(ratios())
    special = {"face": (a, b, 0), "ray": (a, a, 0), "boundary": (a, 0, c), "negative": (a, -b, c)}
    a, b, c = special.get(case, (a, b, c))
    x = [a * u + b * v + c * w for u, v, w in zip(fr.ab, fr.dc, arm)]
    k = draw(st.integers(0, n - 1))
    if case == "bumped":
        x[k] += draw(ratios())
    elif case == "non-positive":
        x[k] = -x[k]
    return spec, tuple(x)


@st.composite
def planar_mirror_query(draw, kind):
    spec = draw(specs(min_n=3, max_n=8, kinds=(kind,)))
    fr = frame(spec)
    case = draw(st.sampled_from(PLANAR_MIRROR_CASES))
    a, b = draw(ratios()), draw(ratios())
    u, v = (fr.ab, fr.dc) if case in ("face", "ray") else (fr.head, fr.tail)
    if case == "heavy":
        a *= F(draw(st.sampled_from((1, -1))), 10 ** 90 + 7)
        b = (draw(ratios(big=False)) - a * u[-1]) / v[-1]
    elif case in ("boundary", "negative"):
        a, b = draw(st.sampled_from(((a, 0), (0, b)) if case == "boundary" else ((a, -b), (-a, b))))
    elif case == "ray":
        b = a
    x = [a * e + b * f for e, f in zip(u, v)]
    k = draw(st.integers(0, spec.n - 1))
    if case == "bumped":
        x[k] += draw(ratios())
    elif case == "non-positive":
        x[k] = -x[k]
    return spec, tuple(x)


@st.composite
def tail_queries(draw, planar=False):
    """Ratio sequences over a drawn spec with zero, nonzero (independent or in the ratio of the
    first entries) or one-sided tail sums, and x extended by its tail sum: a combination on the
    face, head, tail or planar basis of the extended vectors (planar: a planar spec with n = 3-14
    and the planar basis)."""
    spec = draw(specs(min_n=3, max_n=14, kinds=("proportional", "planar-skew")) if planar else specs(min_n=3))
    tails = draw(st.sampled_from(("zero", "both", "in ratio", "p only")))
    p = TailSummedSequence(spec.p, F(0) if tails == "zero" else draw(ratios()))
    q_tail = {"both": draw(ratios()), "in ratio": p.tail_sum * spec.p_prime[0] / spec.p[0]}
    q = TailSummedSequence(spec.p_prime, q_tail.get(tails, F(0)))
    head, tail = tail_cumulants(p, q)
    head_tail, tail_tail = cumulant_tail_sums(p, q)
    ab, dc = p.prefix + (p.tail_sum,), q.prefix + (q.tail_sum,)
    head, tail = head + (head_tail,), tail + (tail_tail,)
    a, b, c = draw(ratios()), draw(ratios()), draw(ratios(signed=True))
    zero = (F(0),) * len(ab)
    bases = ((ab, dc, head), (ab, dc, tail), (ab, dc, zero), (head, tail, zero))
    if planar:
        bases = bases[3:]
    u, v, w = draw(st.sampled_from(bases))
    x = tuple(a * e + b * f + c * g for e, f, g in zip(u, v, w))
    return p, q, x, draw(ratios(signed=True))


@st.composite
def tailed_ratios(draw, spec, kinds=("both", "in ratio", "continued", "p only", "q only")):
    """The spec's ratios as sequences with positive tail sums on both sides (independent, in the
    ratio of the first entries, or, on a planar spec, continuing its zero discriminant chain) or
    on one side only."""
    kind = draw(st.sampled_from(kinds))
    t_p, t_q = draw(ratios()), draw(ratios())
    if kind == "in ratio":
        t_q = t_p * spec.p_prime[0] / spec.p[0]
    elif kind == "continued" and not classify(spec).spatial:
        while True:
            try:
                t_p = continue_degenerate(spec.p, spec.p_prime, t_q)
                break
            except NoValidContinuationError:
                t_q /= 2
    elif kind == "p only":
        t_q = F(0)
    elif kind == "q only":
        t_p = F(0)
    return TailSummedSequence(spec.p, t_p), TailSummedSequence(spec.p_prime, t_q)


@st.composite
def coefficient_triples(draw):
    """(a, b, c, total_ab, total_dc): signed or zero grid coefficients, a and b sometimes on the
    facet where a + c*total_dc or b + c*total_ab vanishes, b sometimes equal to a."""
    total_ab, total_dc = draw(ratios(big=False)), draw(ratios(big=False))
    coefficient = st.one_of(st.just(F(0)), ratios(big=False, signed=True))
    c = draw(coefficient)
    a = draw(st.one_of(coefficient, st.just(-c * total_dc)))
    b = draw(st.one_of(coefficient, st.just(-c * total_ab), st.just(a)))
    return a, b, c, total_ab, total_dc


@st.composite
def singular_q1_fold_queries(draw):
    """A spatial spec whose q1 fold at the returned pivot is singular, so that its q2 fold decides,
    x = a*ab + b*dc + c*arm and a bump size."""
    spec = draw(specs(min_n=4, kinds=("spatial",)))
    p, q = list(spec.p), list(spec.p_prime)
    k = draw(st.integers(1, spec.n - 2))  # 0-based pivot
    # the fold (sum before k, k, k + 1) is planar when p[k + 1] continues it degenerately
    fold_p, fold_q = (sum(p[:k], F(0)), p[k]), (sum(q[:k], F(0)), q[k])
    while True:
        try:
            p[k + 1] = continue_degenerate(fold_p, fold_q, q[k + 1])
            break
        except NoValidContinuationError:
            q[k + 1] /= 2
    spec = DivisionSpec(tuple(p), tuple(q))
    assume(discriminants(spec)[k - 1] != 0)
    fr = frame(spec)
    arm = draw(st.sampled_from((fr.head, fr.tail, (F(0),) * spec.n)))
    a, b, c = draw(ratios()), draw(ratios()), draw(ratios(signed=True))
    x = tuple(a * u + b * v + c * w for u, v, w in zip(fr.ab, fr.dc, arm))
    return spec, k + 1, x, draw(ratios(signed=True))


@st.composite
def planar_queries(draw):
    """A planar spec (proportional or skew, n = 3-14), x on the cumulant, face, ray or one-vector
    basis (the second coefficient sometimes negative with every entry positive) and a bump size."""
    spec = draw(specs(min_n=3, max_n=14, kinds=("proportional", "planar-skew")))
    fr = frame(spec)
    zero = (F(0),) * spec.n
    parallel = tuple(a + d for a, d in zip(fr.ab, fr.dc))
    u, v = draw(st.sampled_from(((fr.head, fr.tail), (fr.ab, fr.dc), (parallel, zero),
                                 (fr.head, zero), (fr.tail, zero))))
    a, b = draw(ratios()), draw(ratios())
    if v is not zero and draw(st.booleans()):
        b = -a * min(e / f for e, f in zip(u, v)) / 2
    x = tuple(a * e + b * f for e, f in zip(u, v))
    return spec, x, draw(ratios(signed=True))


def bumped(x, k, delta):
    return x[:k] + (x[k] + delta,) + x[k + 1:]


@st.composite
def pivot_systems(draw):
    """Three integer rows (P, Q, H, L) with L > 0, the block (P, Q, H) singular a third of the time,
    and an x whose right-hand side L*x has three pairwise different denominators: x_c's denominator
    is a power of its own prime, which divides neither x_c's numerator nor L_c."""
    big = draw(st.booleans())
    bound = 10 ** draw(st.integers(30, 300)) if big else 64
    entry = st.integers(-bound, bound)
    block = [[draw(entry) for _ in range(3)] for _ in range(3)]
    if draw(st.integers(0, 2)) == 0:
        u, v = draw(entry), draw(entry)
        block[2] = [u * e + v * f for e, f in zip(*block[:2])]
    primes = draw(st.permutations((2, 3, 5, 7, 11)))[:3]
    rows, x = [], []
    for row, prime in zip(block, primes):
        den = prime ** draw(st.integers(1, 400 if big else 4))
        num, scale = draw(entry), draw(st.integers(1, bound))
        rows.append((*row, scale + (scale % prime == 0)))
        x.append(F(num + (num % prime == 0), den))
    return rows, tuple(x)


@st.composite
def quads_for(draw, spec):
    """Apex quads of both branches, their affine images, and trapezoids."""
    family = draw(st.sampled_from(("apex", "affine", "trapezoid")))
    grid = ratios(big=False)
    if family == "trapezoid":
        offset = draw(ratios(big=False, signed=True))
        return ConvexQuad(
            Point(F(0), F(0)),
            Point(draw(grid) * sum(spec.p), F(0)),
            Point(offset + draw(grid) * sum(spec.p_prime), F(1)),
            Point(offset, F(1)),
        )
    branch = draw(st.sampled_from(("q1", "q2")))
    quad = apex_quad(spec, draw(grid), draw(grid), draw(grid), branch)
    if family == "apex":
        return quad
    m11, m12, m21, m22 = (draw(grid) for _ in range(4))
    if m11 * m22 - m12 * m21 <= 0:
        m11, m12, m21, m22 = m12, m11, m22, m21  # a column swap flips the sign
        if m11 * m22 - m12 * m21 == 0:
            m11 += 1
    tx, ty = draw(ratios(big=False, signed=True)), draw(ratios(big=False, signed=True))
    return ConvexQuad(*(
        Point(m11 * v.x + m12 * v.y + tx, m21 * v.x + m22 * v.y + ty) for v in quad.vertices
    ))


@st.composite
def vertex_sets(draw):
    """Four points: a quad from quads_for, in its own order or any other, with one vertex possibly
    moved onto the line through two others or onto another vertex; or four points of a small grid,
    where coincident and collinear points are common, in a convex counterclockwise order if any."""
    if draw(st.booleans()):
        coord = st.builds(F, st.integers(-6, 6), st.integers(1, 4))
        points = [Point(draw(coord), draw(coord)) for _ in range(4)]
        return next((list(order) for order in permutations(points) if reference.convex_ccw(xy(order))), points)
    vertices = list(draw(specs().flatmap(quads_for)).vertices)
    if draw(st.booleans()):
        vertices = draw(st.permutations(vertices))
    i, j, k = draw(st.permutations(range(4)))[:3]
    move = draw(st.sampled_from(("none", "collinear", "duplicate")))
    if move == "collinear":
        vertices[k] = vertices[i] + draw(ratios(big=False, signed=True)) * (vertices[j] - vertices[i])
    elif move == "duplicate":
        vertices[k] = vertices[i]
    return vertices


@st.composite
def closed_form_inputs(draw):
    """Ratio prefixes of length 1-9 (too short for every view below 3) with grid, 30-digit or
    100-digit entries, the DC side independent, proportional or continuing a zero discriminant
    chain over a drawn first stretch, one entry sometimes zero or negative; a zero or positive
    tail sum for p; and a next DC ratio, an index and x1, x2 for the extension formula."""
    digits = draw(st.sampled_from((None, (30, 30), (100, 100))))
    entry = ratios(big=digits is not None, digits=digits or (30, 300))
    m = draw(st.integers(1, 9))
    p = [draw(entry) for _ in range(m)]
    kind = draw(st.sampled_from(("independent", "proportional", "chain")))
    scale = draw(entry)
    q = [scale * v for v in p] if kind == "proportional" else [draw(entry) for _ in range(m)]
    chain = 0
    if kind == "chain" and m >= 2:
        # a chain's continued entries grow with its length, so big entries continue it for less
        chain = draw(st.integers(2, min(m, 9 if digits is None else 5)))
        q[1] += q[0] * p[1] / p[0]
        for j in range(2, chain):
            while True:
                try:
                    p[j] = continue_degenerate(p[:j], q[:j], q[j])
                    break
                except NoValidContinuationError:
                    q[j] /= 2
    if draw(st.integers(0, 7)) == 0:
        k = draw(st.integers(0, m - 1))
        p[k] = draw(st.sampled_from((F(0), -p[k])))
    tail_p, nxt = draw(st.just(F(0)) | entry), draw(entry)
    i = draw(st.integers(2, max(2, m - 1)) | st.integers(0, m))
    return p, q, chain, tail_p, nxt, i, draw(ratios(signed=True)), draw(ratios(signed=True))


# ---- properties -------------------------------------------------------------


def test_the_reference_and_the_package_import_nothing_of_each_other():
    # the reference imports the standard library alone, so no property compares quadareas with itself
    def imports(path):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                yield from (alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                yield (node.module or "").partition(".")[0] if node.level == 0 else "."

    used = set(imports(Path(reference.__file__)))
    assert "quadareas" not in used and used <= sys.stdlib_module_names
    bench = {"bench", *(path.stem for path in Path(reference.__file__).parent.glob("*.py"))}
    package = Path(quadareas.__file__).parent
    assert [f"{path.name}: {name}" for path in package.rglob("*.py") for name in imports(path) if name in bench] == []


class TestInverse3:
    def test_inverse_times_matrix_is_identity(self):
        rng = random.Random(31)
        for _ in range(100):
            m = [[F(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(3)] for _ in range(3)]
            inv = inverse3(m)
            if det3(m) == 0:
                assert inv is None
                continue
            for i in range(3):
                for j in range(3):
                    assert sum(inv[i][k] * m[k][j] for k in range(3)) == (i == j)

    def test_singular(self):
        assert inverse3([[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(0), F(1), F(1)]]) is None


@given(specs(min_n=3, max_n=14, kinds=("proportional", "planar-skew")), ratios(signed=True), ratios(signed=True))
def test_planar_bordered_solve_matches_the_head_tail_cramer(spec, x0, x1):
    # the border row A*total_ab == B*total_dc picks out the span triple of x = a*head + b*tail; the
    # bordered block's determinant is -s*M, with s the totals' common denominator and M < 0 the
    # head/tail minor at rows 0 and 1 (K_i = L_i*tail_i)
    f = _factored(spec)
    rows, (total_ab, total_dc) = f.rows, totals(f)
    (ta, td), s = _scaled((total_ab, total_dc))
    border = (ta, -td, 0, 1)
    assert f.pivot is None and f.block == _pivot_block((*rows[:2], border), 2)
    k0, k1 = (total_dc * p + total_ab * q - h for p, q, h, _ in rows[:2])
    minor = rows[0][2] * k1 - k0 * rows[1][2]
    assert minor < 0
    assert _cofactors([row[:3] for row in (*rows[:2], border)])[1] == -s * minor
    fr = frame(spec)
    coeffs = reference.solve([[fr.head[0], fr.tail[0]], [fr.head[1], fr.tail[1]]], [x0, x1])
    sol = _pivot_solution(f.block, (x0, x1, F(0)))
    assert_primitive(sol)
    assert as_fractions(sol) == span_triple(total_ab, total_dc, *coeffs)


@given(pivot_systems())
def test_pivot_solution_matches_fraction_cramer(system):
    rows, x = system
    rhs = [row[3] * v for row, v in zip(rows, x)]
    assert len({v.denominator for v in rhs}) == 3
    expected = reference.solve([[F(e) for e in row[:3]] for row in rows], rhs)
    if expected is None:  # a singular block is refused where it is built, so the solve is total
        with pytest.raises(InternalError, match="pivot solve is regular whenever the discriminant is nonzero"):
            _pivot_block(rows, 2)
        return
    sol = _pivot_solution(_pivot_block(rows, 2), x)
    assert as_fractions(sol) == expected
    assert_primitive(sol)


@given(specs(min_n=3, kinds=("planar-prefix", "spatial", "proportional", "planar-skew")),
       st.sampled_from((None, (30, 30), (300, 300))), st.data())
def test_pivot_solution_matches_the_fraction_product_reference(spec, digits, data):
    # the spec's block and its mirror's, spatial or planar (x's third entry 0, as _decide passes),
    # on grid, 30-digit and 300-digit x
    entry = ratios(big=digits is not None, digits=digits or (30, 300), signed=True)
    for f in (_factored(spec), _factored(_mirror(spec))):
        x = tuple(data.draw(entry) for _ in range(spec.n))
        if f.pivot is None:
            x = (*x[:2], F(0))
        sol = _pivot_solution(f.block, x)
        assert sol == ref_pivot_solution(f.block, x)
        assert_primitive(sol)


def test_a_warm_pivot_solution_builds_no_fraction(monkeypatch):
    spec = DivisionSpec.of((1, 2, "3/2", "5/4"), (3, "1/2", 2, "7/8"))
    f = _factored(spec)
    fr = frame(spec)
    x = tuple(F(1, 2) * a + F(3, 4) * b + F(5, 8) * h for a, b, h in zip(fr.ab, fr.dc, fr.head))
    expected = _pivot_solution(f.block, x)
    built = []
    new = F.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", counted)
    sol = _pivot_solution(f.block, x)
    monkeypatch.undo()
    assert sol == expected == (4, 6, 5, 8)
    assert built == []


SKEW3 = DivisionSpec.of((1, 2, "2/11"), (1, 5, 1))  # a planar-skew spec: every discriminant is zero


def cumulant_tuple(spec, a, b):
    """x = a*head + b*tail."""
    fr = frame(spec)
    return tuple(a * h + b * t for h, t in zip(fr.head, fr.tail))


@pytest.mark.parametrize("a, b", ((1, 2), (5, 1)))  # both intervals, then q1's alone
def test_a_warm_skew_planar_member_builds_only_the_certificate_fractions(monkeypatch, a, b):
    x = cumulant_tuple(SKEW3, a, b)
    expected = member(SKEW3, x)
    built = []
    new = F.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", counted)
    verdict = member(SKEW3, x)
    monkeypatch.undo()
    cert = verdict.certificate
    assert verdict == expected and cert.coeffs == (a, b)
    # the two coefficients and each interval end that is not the shared zero
    ends = [end for interval in (cert.q1_interval, cert.q2_interval) if interval for end in (interval.lo, interval.hi)]
    assert len(built) == 2 + sum(1 for end in ends if end != 0)

    # the realization builds its Fractions in the coefficient verdict alone
    entered = []
    verdict_of = quadareas.membership._coefficient_verdict

    def recorded(*args):
        entered.append(len(built))
        return verdict_of(*args)

    realized = _realization(SKEW3, cert)
    monkeypatch.setattr(quadareas.membership, "_coefficient_verdict", recorded)
    monkeypatch.setattr(F, "__new__", counted)
    built.clear()
    assert _realization(SKEW3, cert) == realized
    monkeypatch.undo()
    assert entered == [0]


def test_singular_blocks_are_refused_where_they_are_built():
    rows = [(3, 6, 9, 1), (1, 0, -3, 2), (4, 6, 6, 3)]  # the last block row is the sum of the others
    with pytest.raises(InternalError, match="pivot solve is regular whenever the discriminant is nonzero"):
        _pivot_block(rows, 2)


@given(specs(), st.sampled_from((False, True)), st.data())
def test_cumulants_match_docstring_formula(spec, with_tails, data):
    tails = (data.draw(ratios()), data.draw(ratios())) if with_tails else (F(0), F(0))
    assert cumulants(spec.p, spec.p_prime, *tails) == reference.cumulants(spec.p, spec.p_prime, *tails)


@given(specs())
def test_discriminants_and_first_pivot_match_reference(spec):
    expected = reference.discriminants(spec.p, spec.p_prime)
    assert discriminants(spec) == expected
    pivot = reference.pivot(spec.p, spec.p_prime)
    assert _factored(spec).pivot == pivot
    label = classify(spec)
    assert label.spatial == (pivot is not None)
    assert label.pivot == pivot


@given(pivot_specs())
def test_factored_pivot_matches_the_reference(spec):
    # the first triple's block, when regular, gives pivot 2; otherwise the scan from pivot 3 on
    assert _factor(spec.p, spec.p_prime).pivot == reference.pivot(spec.p, spec.p_prime)


@given(pivot_specs())
def test_the_first_triple_block_is_minus_its_discriminant_times_its_denominators(spec):
    assume(spec.n >= 3)
    block = quadareas.cone._block(_factored(spec).rows, 2)
    l0, l1, l2 = block.dens
    assert block.cols == (0, 1, 2)
    assert block.det == -reference.discriminants(spec.p, spec.p_prime)[0] * l0 * l1 * l2


def test_a_cold_spatial_factor_builds_no_fraction_and_evaluates_no_discriminant(monkeypatch):
    # pivot 2 is read from the block at rows 0-2; a spec whose first discriminant vanishes scans on
    grid = DivisionSpec.of((1, 2, "3/2", "5/4"), (3, "1/2", 2, "7/8"))
    rng = random.Random(3)
    big = DivisionSpec(*(tuple(F(rng.randrange(10 ** 99, 10 ** 100), rng.randrange(10 ** 99, 10 ** 100))
                               for _ in range(8)) for _ in "pq"))
    late = DivisionSpec.of((1, 1, 1, 1), (1, 1, 1, 2))
    expected = {spec: _factor(spec.p, spec.p_prime) for spec in (grid, big, late)}
    new, discriminant = F.__new__, quadareas.cone._discriminant
    for spec, pivot in ((grid, 2), (big, 2), (late, 3)):
        built, evaluated = [], []
        monkeypatch.setattr(F, "__new__", lambda cls, *args, **kwargs: built.append(args) or new(cls, *args, **kwargs))
        monkeypatch.setattr(quadareas.cone, "_discriminant", lambda *args: evaluated.append(args[2]) or discriminant(*args))
        f = _factor(spec.p, spec.p_prime)
        monkeypatch.undo()
        assert f == expected[spec] and f.pivot == pivot
        assert built == []
        assert evaluated == ([] if pivot == 2 else [2])


COLD_FACTOR_SPECS = {
    "planar-skew": DivisionSpec.of((1, 1, 1, "1/2"), (1, 2, 6, 12)),
    "planar-proportional": DivisionSpec.of(("3/2", "2/3", 5), ("9/4", 1, "15/2")),
    "spatial": DivisionSpec.of((1, 2, "3/2", "5/4"), (3, "1/2", 2, "7/8")),
}


@pytest.mark.parametrize("kind, spec", COLD_FACTOR_SPECS.items(), ids=COLD_FACTOR_SPECS)
def test_a_cold_factor_builds_no_fraction(monkeypatch, kind, spec):
    # the planar conic is the block's int cofactor row, so a planar record builds no Fraction either
    expected = _factor(spec.p, spec.p_prime)
    built, new = [], F.__new__
    monkeypatch.setattr(F, "__new__", lambda cls, *args, **kwargs: built.append(args) or new(cls, *args, **kwargs))
    f = _factor(spec.p, spec.p_prime)
    monkeypatch.undo()
    assert f == expected and built == []
    assert classify(spec).kind == kind


@given(specs(), st.data())
def test_strip_areas_and_division_points_match_shoelace(spec, data):
    quad = data.draw(quads_for(spec))
    expected = reference.strip_areas(xy(quad.vertices), spec.p, spec.p_prime)
    assert strip_areas(quad, spec) == expected == ref_point_strip_areas(quad, spec)
    points = subdivide(quad, spec)
    assert (xy(points.on_ab), xy(points.on_dc)) == reference.subdivide(xy(quad.vertices), spec.p, spec.p_prime)


@settings(max_examples=40)
@given(st.integers(2, 8), st.data())
def test_division_points_match_the_reference_at_100_to_300_digits(n, data):
    """Apex quads and trapezoids keep one coordinate fixed along each divided side (one shared
    Fraction per side); their image under a map that tilts both axes changes both coordinates."""
    spec = DivisionSpec(*(tuple(data.draw(ratios(big=True, digits=(100, 300))) for _ in range(n)) for _ in "ab"))
    grid = ratios(big=False)
    quads = [apex_quad(spec, data.draw(grid), data.draw(grid), data.draw(grid), branch) for branch in ("q1", "q2")]
    quads.append(_trapezoid(spec, data.draw(grid), data.draw(grid)))
    for quad in quads:
        for q, fixed in ((quad, 1), (tilted(quad), 0)):
            assert [(a.x == b.x) + (a.y == b.y) for a, b in ((q.a, q.b), (q.d, q.c))] == [fixed, fixed]
            points = subdivide(q, spec)
            assert (xy(points.on_ab), xy(points.on_dc)) == reference.subdivide(xy(q.vertices), spec.p, spec.p_prime)


def tilted(quad):
    """The quad's image under a map that tilts both axes, so that every coordinate varies along both
    divided sides and starts away from 0."""
    return ConvexQuad(*(Point(2 * v.x + v.y + F(1, 3), v.x + 3 * v.y - F(1, 5)) for v in quad.vertices))


@given(specs(), st.data())
def test_division_points_are_fractions_matching_the_reference(spec, data):
    # a witness's trapezoid starts both sides' varying coordinate at 0, a shifted top side starts
    # at its offset, each apex quad starts both away from 0, and a tilted apex quad varies all four
    grid = ratios(big=False)
    apex = [apex_quad(spec, data.draw(grid), data.draw(grid), data.draw(grid), branch) for branch in ("q1", "q2")]
    quads = [
        _trapezoid(spec, data.draw(grid), data.draw(grid)),
        _trapezoid(spec, data.draw(grid), data.draw(grid), data.draw(ratios(big=False, signed=True))),
        *apex,
        *map(tilted, apex),
    ]
    for quad in quads:
        points = subdivide(quad, spec)
        assert (xy(points.on_ab), xy(points.on_dc)) == reference.subdivide(xy(quad.vertices), spec.p, spec.p_prime)
        assert {type(c) for v in (*points.on_ab, *points.on_dc) for c in (v.x, v.y)} == {F}


@settings(max_examples=200)  # a mutated edge denominator flips few signs
@given(vertex_sets())
def test_convexity_matches_the_point_reference(vertices):
    assert is_convex_ccw(*vertices) == reference.convex_ccw(xy(vertices))


@given(specs())
def test_factored_rows_match_frame(spec):
    fr, f = frame(spec), _factored(spec)
    rows = f.rows
    assert [(F(p, d), F(q, d), F(h, d)) for p, q, h, d in rows] == list(zip(fr.ab, fr.dc, fr.head))
    assert all(d > 0 for *_, d in rows)
    assert (f.total_ab, f.total_dc) == (as_pair(sum(spec.p)), as_pair(sum(spec.p_prime)))


@given(specs(kinds=("spatial", "proportional", "planar-prefix", "planar-skew")), ratios(), st.sampled_from(
    ("none", "zero last", "positive last", "zero first", "positive first")))
def test_rows_match_the_lcm_reference(spec, extra, extended):
    """Each row reads the same (ab, dc, head) as the lcm-based reference row, and the totals agree,
    also on pairs ending (``reduction._tail_rows``) or starting (``cone._cumulants``' tail pass) with
    a zero or positive tail-sum entry."""
    p, q = spec.p, spec.p_prime
    tail = F(0) if extended.startswith("zero") else extra
    if extended.endswith("last"):
        p, q = (*p, tail), (*q, tail * q[0] / p[0])
    elif extended.endswith("first"):
        p, q = (tail, *p[::-1]), (tail * q[-1] / p[-1], *q[::-1])
    rows, total_ab, total_dc = _rows(p, q)
    ref, ref_ab, ref_dc = ref_rows(p, q)
    assert (F(*total_ab), F(*total_dc)) == (ref_ab, ref_dc) == (sum(p), sum(q))
    assert all(d > 0 and gcd(n, d) == 1 for n, d in (total_ab, total_dc))  # in lowest terms
    assert [tuple(F(v, den) for v in row) for *row, den in rows] == [
        tuple(F(v, den) for v in row) for *row, den in ref]
    assert all(den > 0 for *_, den in rows)


def continued_skew_ratios(rng, n):
    """Planar-skew ratio tuples of length n from grid ratios k/8: a skew start, then each AB ratio
    from ``continue_degenerate``, so that the AB denominators grow along the recurrence."""
    while True:
        p, q = [F(rng.randint(1, 64), 8), F(rng.randint(1, 64), 8)], [F(rng.randint(1, 64), 8)]
        q.append(q[0] * p[1] / p[0] + F(rng.randint(1, 64), 8))
        while len(p) < n:
            options = []
            for k in range(1, 65):
                try:
                    options.append((continue_degenerate(p, q, F(k, 8)), F(k, 8)))
                except NoValidContinuationError:
                    pass
            if not options:
                break
            next_p, next_q = rng.choice(options)
            p.append(next_p)
            q.append(next_q)
        if len(p) == n:
            return tuple(p), tuple(q)


@pytest.mark.parametrize("seed", range(3))
def test_row_denominators_stay_within_the_lowest_terms_sums(seed):
    """On a planar-skew spec built by the continuation recurrence, L at row i has at most the bits
    of the denominators of p[i], p'[i], sum(p[:i+1]) and sum(p'[:i]) together; a row scaled by the
    lcm of every earlier denominator grows far past that.  The sides are also swapped (still
    planar-skew), so that both running sums carry the recurrence's long denominators."""
    ab, dc = continued_skew_ratios(random.Random(seed), 48)
    for p, q in ((ab, dc), (dc, ab)):
        spec = DivisionSpec(p, q)
        assert not classify(spec).spatial and not spec.proportional()
        for i, (*_, den) in enumerate(_factored(spec).rows):
            bound = sum(v.denominator.bit_length() for v in (p[i], q[i], sum(p[:i + 1]), sum(q[:i], F(0))))
            assert den.bit_length() <= bound


@pytest.mark.parametrize("row, sol, xi, spans", (
    # E*L // xd * xn equals the numerator, but xd does not divide E*L: 3/7 is not 1/2
    pytest.param((3, 0, 0, 7), (1, 0, 0, 1), F(1, 2), False, id="quotient-matches-remainder-not-zero"),
    pytest.param((3, 0, 0, 7), (-1, 0, 0, 1), F(-1, 2), False, id="negative-quotient-matches-remainder-not-zero"),
    # xd divides E*L, but the numerators differ: 3/7 is not 2/7
    pytest.param((3, 0, 0, 7), (1, 0, 0, 1), F(2, 7), False, id="remainder-zero-numerators-differ"),
    pytest.param((1, 2, 3, 10), (2, 3, 1, 3), F(11, 30), True, id="exact-over-the-full-product"),
    pytest.param((1, 2, 3, 10), (2, 3, 1, 3), F(11, 15), False, id="twice-the-value"),
    pytest.param((2, 4, 6, 12), (1, 1, 1, 6), F(1, 6), True, id="quotient-longer-than-one"),
    # a zero entry: the zero row of two zero tail sums, and a nonzero row
    pytest.param((0, 0, 0, 5), (3, 4, 5, 7), F(0), True, id="zero-entry-on-a-zero-row"),
    pytest.param((1, 0, 0, 5), (3, 4, 5, 7), F(0), False, id="zero-entry-on-a-nonzero-row"),
    pytest.param((1, 1, 1, 5), (1, 1, -2, 7), F(0), True, id="zero-entry-from-cancelling-coefficients"),
    # a negative entry, as a bumped or tail-extended x produces
    pytest.param((3, 0, 0, 7), (-1, 0, 0, 1), F(-3, 7), True, id="negative-entry"),
    pytest.param((3, 0, 0, 7), (1, 0, 0, 1), F(-3, 7), False, id="negative-entry-sign-flipped"),
))
def test_span_check_edge_cases(row, sol, xi, spans):
    assert _spans((row,), sol, (xi,), range(0)) is spans
    assert _spans((row, row), sol, (xi, xi), range(1)) is spans
    assert _spans((row,), sol, (xi,), range(1)) is True  # a solved row is not re-checked


@given(specs(), st.data())
def test_span_check_matches_fraction_combination(spec, data):
    coeffs = tuple(data.draw(ratios(signed=True)) for _ in range(3))
    fr = frame(spec)
    x = reference.combine(coeffs, (fr.ab, fr.dc, fr.head))
    rows = _factored(spec).rows
    sol = int_vector(coeffs)
    assert _spans(rows, sol, x, range(0))
    delta = data.draw(ratios(signed=True))
    for k in range(spec.n):
        assert not _spans(rows, sol, bumped(x, k, delta), range(0))
        # only a bump outside the rows taken as solved is seen
        assert _spans(rows, sol, bumped(x, k, delta), range(k, k + 1))


@given(spatial_queries())
def test_pivot_solution_matches_fraction_reference_at_every_pivot(query):
    spec, x, delta = query
    pivots = [j + 2 for j, d in enumerate(discriminants(spec)) if d != 0]
    rows = _factored(spec).rows
    for y in (x, *(bumped(x, k, delta) for k in range(spec.n))):
        for pivot in pivots:
            sol = _pivot_solution(_pivot_block(rows, pivot), y)
            assert_primitive(sol)
            spans = _spans(rows, sol, y, range(pivot - 2, pivot + 1))
            assert (as_fractions(sol) if spans else None) == ref_frame_pivot_solution(spec, pivot, y)


@given(spatial_queries(), st.sampled_from(("strict", "audited")), st.data())
def test_member_and_every_fold_match_the_reference(query, mode, data):
    spec, x, delta = query
    k = data.draw(st.integers(0, spec.n - 1))
    pivots = [j + 2 for j, d in enumerate(discriminants(spec)) if d != 0]
    for y in (x, bumped(x, k, delta)):
        expected = ref_member(spec, y, mode)
        assert member(spec, y, mode) == expected
        for pivot in pivots:
            try:
                assert member_via_collapse(spec, y, pivot, mode) == expected
            except DegenerateCollapseError:
                assert ref_frame_pivot_solution(spec, pivot, y) is not None


@settings(max_examples=120)
@given(mirror_queries(), st.sampled_from(("strict", "audited")))
def test_member_is_the_renamed_verdict_of_the_mirror_spec_on_reversed_x(query, mode):
    """Reading both sides from the other end swaps q1 and q2, swaps a degenerate certificate's
    coefficients and intervals, and keeps every other verdict, so whichever end member solves from,
    on a spatial or a planar spec, it gives the head-basis verdict of the spec, and that is the
    head-basis verdict of the mirror spec on the reversed tuple read back."""
    spec, x = query
    mirror = DivisionSpec(spec.p[::-1], spec.p_prime[::-1])
    expected = head_basis_member(spec, x, mode)
    assert repr(member(spec, x, mode)) == repr(expected)
    assert repr(read_back(head_basis_member(mirror, x[::-1], mode))) == repr(expected)
    assert repr(read_back(member(mirror, x[::-1], mode))) == repr(expected)


def test_a_tuple_much_heavier_at_its_head_end_is_decided_and_subdivided_on_the_mirror(monkeypatch):
    """At 150 digits a q2 tuple's head end is thousands of bits heavier: member decides it on the mirror
    spec, and the witness measures each side's varying coordinate from B and from C, whose denominators
    are the shorter ones in a q2 apex quad.  A q1 tuple, and a grid q2 tuple whose head end is only a
    few bits heavier, are decided and subdivided from the head end."""
    rng = random.Random(3)

    def big():
        return F(rng.randrange(10 ** 149, 10 ** 150), rng.randrange(10 ** 149, 10 ** 150))

    big_spec = DivisionSpec(*(tuple(big() for _ in range(8)) for _ in "ab"))
    grid_spec = DivisionSpec.of(("1/3", "5/7", 2, "3/8"), ("1/2", 1, "4/9", "5/6"))
    built = []
    for module in ("membership", "geometry"):
        spy = partial(lambda module, s: built.append(module) or _mirror(s), module)
        monkeypatch.setattr(f"quadareas.{module}._mirror", spy)
    for spec, branch, gap, mirrored in (
        (big_spec, "q1", range(-20000, 0), []),
        (big_spec, "q2", range(1000, 20000), ["membership", "geometry", "geometry"]),
        (grid_spec, "q2", range(1, 65), []),
    ):
        fr = frame(spec)
        x = tuple(u + 2 * v + 3 * w for u, v, w in zip(fr.ab, fr.dc, fr.head if branch == "q1" else fr.tail))
        assert x[0].denominator.bit_length() - x[-1].denominator.bit_length() in gap
        built.clear()
        out = synthesize_witness(spec, x)
        assert out.certificate == Certificate(branch, (F(1), F(2), F(3)))
        quad, points = out.quad, out.division
        assert (xy(points.on_ab), xy(points.on_dc)) == reference.subdivide(xy(quad.vertices), spec.p, spec.p_prime)
        assert built == mirrored


def size_rule_cases():
    """(spec, quad, coordinates built from integer partial sums), labelled.  The rectangles' varying coordinates
    have denominators of _SHORT_BITS - 1 and _SHORT_BITS bits in all: start 1/(2^59 + 1), step
    1/(2^(b-1) + 1) and a side total of 2, 60 + b + 1 bits."""
    unit = DivisionSpec.of((1, 1), (1, 1))
    cases = []
    for bits, count in ((_SHORT_BITS - 1, 2), (_SHORT_BITS, 0)):
        start = F(1, 2 ** 59 + 1)
        end = start + 2 * F(1, 2 ** (bits - 62) + 1)
        rectangle = ConvexQuad(Point(start, F(0)), Point(end, F(0)), Point(end, F(1)), Point(start, F(1)))
        cases.append(pytest.param(unit, rectangle, count, id=f"{bits} bits"))
    rng = random.Random(5)
    grid = DivisionSpec.of(*(tuple(F(rng.randrange(1, 65), 8) for _ in range(32)) for _ in "ab"))
    digits = DivisionSpec(*(tuple(F(rng.randrange(10 ** 99, 10 ** 100), rng.randrange(10 ** 99, 10 ** 100))
                                  for _ in range(8)) for _ in "ab"))
    big = 10 ** 99 + 289
    # 100-digit entry denominators, side totals 2 and 3: the lcm is long, the operands the rule reads short
    long_entries = DivisionSpec.of((F(1, big), F(big - 1, big), 1), (F(2, big), F(big - 2, big), 2))
    for label, spec, count in (("grid", grid, 2), ("100 digits", digits, 0), ("long entries", long_entries, 2)):
        q1 = apex_quad(spec, F(3, 8), F(5, 8), F(7, 8), "q1")
        cases += [pytest.param(spec, q1, count, id=f"{label} q1"),
                  pytest.param(spec, tilted(q1), 2 * count, id=f"{label} tilted q1")]
    return cases


@pytest.mark.parametrize("spec, quad, count", size_rule_cases())
def test_only_coordinates_with_short_operands_are_built_from_integer_partial_sums(monkeypatch, spec, quad, count):
    """A varying coordinate is built from the integer partial sums exactly when its start, step and
    side total have denominators of fewer than _SHORT_BITS bits in all: grid witnesses and specs whose
    long entry denominators sum to a short total do, 100-digit specs and the rectangle at the bound do
    not; the points are the reference's either way."""
    built = []
    monkeypatch.setattr("quadareas.geometry._integer_side_sums", lambda s: built.append(s) or _integer_side_sums(s))
    points = subdivide(quad, spec)
    assert (xy(points.on_ab), xy(points.on_dc)) == reference.subdivide(xy(quad.vertices), spec.p, spec.p_prime)
    assert len(built) == count


def assert_bumps_are_off_the_span(spec, x, delta):
    """member, and member_via_collapse at every usable pivot, reject x bumped by delta at coordinate k
    as off-subspace exactly when some hyperplane reads coordinate k, the rows that no check re-reads
    included (the pivot triple of a spec and of its folds, planar rows 0 and 1)."""
    planes = hyperplanes(spec)
    pivots = [j + 2 for j, d in enumerate(discriminants(spec)) if d != 0]
    for k in range(spec.n):
        y = bumped(x, k, delta)
        off = any(plane[k] != 0 for plane in planes)
        assert (member(spec, y).reason == "off-subspace") == off
        for pivot in pivots:
            try:
                assert (member_via_collapse(spec, y, pivot).reason == "off-subspace") == off
            except DegenerateCollapseError:
                assert not off


@given(specs(min_n=3, kinds=("spatial", "planar-prefix", "proportional", "planar-skew")), st.data())
def test_a_bump_at_any_coordinate_a_hyperplane_reads_is_off_the_span(spec, data):
    fr = frame(spec)
    a, b, c = (data.draw(ratios()) for _ in range(3))
    x = tuple(a * u + b * v + c * w for u, v, w in zip(fr.ab, fr.dc, fr.head))
    assert_bumps_are_off_the_span(spec, x, data.draw(ratios()))


@pytest.mark.parametrize("p, pp", (
    ((1, 2, 3, 4, 5, 6), (3, 1, 4, 1, 5, 9)),  # spatial, every pivot usable
    ((1, 2, 3, 4), (2, 4, 6, 8)),  # planar-proportional
    ((1, 2, 4, 8, 16), ("2", "1", "1/2", "1/4", "1/8")),  # planar-skew
))
def test_a_bump_at_every_coordinate_is_off_the_span(p, pp):
    spec = DivisionSpec.of(p, pp)
    assert all(any(plane[k] != 0 for plane in hyperplanes(spec)) for k in range(spec.n))
    fr = frame(spec)
    x = tuple(u + 2 * v + 3 * w for u, v, w in zip(fr.ab, fr.dc, fr.head))
    assert member(spec, x).attainable
    assert_bumps_are_off_the_span(spec, x, F(1, 3))


@given(coefficient_triples(), st.sampled_from(("strict", "audited")), st.booleans())
@example((F(3), F(5), F(-1), F(3, 2), F(5, 4)), "audited", False)  # q2, which the 40 drawn triples miss
def test_coefficient_verdict_matches_the_two_region_reference(triple, mode, prefix_certified):
    # member_tail sets prefix_certified on the kernel's verdict; the reference still takes it
    kernel = _coefficient_verdict(*int_vector(triple[:3]), *map(as_pair, triple[3:]), mode)
    verdict = Verdict(kernel.attainable, kernel.certificate, kernel.reason, prefix_certified=prefix_certified)
    assert verdict == ref_coefficient_verdict(*triple, mode, prefix_certified)


def assert_member_tail_matches_the_reference(query):
    p, q, x, delta = query
    for y in (x, *(bumped(x, k, delta) for k in range(len(x)))):
        xs = TailSummedSequence(y[:-1], abs(y[-1]))
        for mode in ("strict", "audited"):
            assert member_tail(p, q, xs, mode) == ref_member_tail(p, q, xs, mode)


@given(tail_queries())
def test_member_tail_matches_the_fraction_reference(query):
    assert_member_tail_matches_the_reference(query)


@given(tail_queries(planar=True))
def test_planar_member_tail_matches_the_fraction_reference(query):
    assert_member_tail_matches_the_reference(query)


@given(specs(min_n=3, kinds=("spatial", "proportional", "planar-skew")).flatmap(
    lambda spec: st.tuples(tailed_ratios(spec), quads_for(spec))
))
def test_member_tail_accepts_the_strips_and_tail_region_of_a_convex_quad(sequences_and_quad):
    # AB and DC divided by the prefix ratios and then the tail sums, measured by shoelace; a zero
    # tail sum on one side makes the tail region a triangle (a ratio pair no DivisionSpec holds)
    (p, q), quad = sequences_and_quad
    *prefix, tail = reference.strip_areas(xy(quad.vertices), p.prefix + (p.tail_sum,), q.prefix + (q.tail_sum,))
    verdict = member_tail(p, q, TailSummedSequence(tuple(prefix), tail))
    assert verdict.attainable and verdict.prefix_certified


@given(specs(min_n=3, kinds=("spatial", "proportional", "planar-skew")).flatmap(lambda spec: st.tuples(
    tailed_ratios(spec, kinds=("both", "in ratio", "continued")), st.data()
)))
def test_two_sided_member_tail_is_member_on_the_extended_spec(sequences_and_data):
    (p, q), data = sequences_and_data
    ext_spec = DivisionSpec(p.prefix + (p.tail_sum,), q.prefix + (q.tail_sum,))
    fr = frame(ext_spec)
    zero = (F(0),) * ext_spec.n
    u, v, w = data.draw(st.sampled_from(((fr.ab, fr.dc, fr.head), (fr.ab, fr.dc, fr.tail),
                                         (fr.ab, fr.dc, zero), (fr.head, fr.tail, zero))))
    a, b, c = data.draw(ratios()), data.draw(ratios()), data.draw(ratios(signed=True))
    x = tuple(a * e + b * f + c * g for e, f, g in zip(u, v, w))
    delta = data.draw(ratios(signed=True))
    for y in (x, *(bumped(x, k, delta) for k in range(len(x)))):
        xs = TailSummedSequence(y[:-1], abs(y[-1]))
        for mode in ("strict", "audited"):
            plain = member(ext_spec, xs.prefix + (xs.tail_sum,), mode)
            expected = Verdict(plain.attainable, plain.certificate, plain.reason, prefix_certified=True)
            assert member_tail(p, q, xs, mode) == expected


@given(specs(min_n=3, kinds=("spatial", "proportional", "planar-skew")).flatmap(tailed_ratios))
def test_tail_triple_discriminant_is_the_extended_rows_determinant(sequences):
    # the discriminant at the tail triple, where a tail sum may be zero, against -det(rows m-2..m)/(L*L*L)
    p, q = sequences
    ext_p, ext_q = p.prefix[-2:] + (p.tail_sum,), q.prefix[-2:] + (q.tail_sum,)
    disc = F(*_discriminant(ext_p, ext_q, 1))
    assert disc == reference.discriminants(ext_p, ext_q)[0]
    rows = extended_rows(p, q)[-3:]
    assert disc == -F(det3([row[:3] for row in rows]), rows[0][3] * rows[1][3] * rows[2][3])


@given(spatial_queries(), st.sampled_from(("strict", "audited")), st.data())
def test_every_fold_matches_the_frame_based_reference(query, mode, data):
    spec, x, delta = query
    pivot = data.draw(st.sampled_from([j + 2 for j, d in enumerate(discriminants(spec)) if d != 0]))
    for y in (x, *(bumped(x, k, delta) for k in range(spec.n))):
        folds = ref_fold_solutions(spec, y, pivot)
        if "q2" in folds:
            # the tail arm of a triple is the reversed head arm of its reversal
            instance = collapse(spec, y, pivot, "q2")
            rows = _factored(DivisionSpec(instance.spec3.p[::-1], instance.spec3.p_prime[::-1])).rows
            assert as_fractions(_pivot_solution(_pivot_block(rows, 2), instance.x3[::-1])) == folds["q2"]
        try:
            expected = ref_member_via_collapse(spec, y, pivot, mode)
        except DegenerateCollapseError:
            expected = DegenerateCollapseError
        try:
            assert member_via_collapse(spec, y, pivot, mode) == expected
        except DegenerateCollapseError:
            assert expected is DegenerateCollapseError


@given(specs(min_n=3, max_n=14, kinds=("spatial", "planar-prefix")))
def test_hyperplanes_match_the_inverse_reference(spec):
    assume(classify(spec).spatial)
    assert hyperplanes(spec) == ref_hyperplanes(spec)


# a skew chain's continued entries grow with n, so the skew specs with 100- and 300-digit entries
# stop at n = 17 and n = 8
@pytest.mark.parametrize("kind, digits, lengths", (
    *((kind, digits, (3, 4, 8, 17, 32)) for kind in ("planar-proportional", "planar-skew") for digits in (0, 30)),
    ("planar-proportional", 100, (3, 8, 32)),
    ("planar-proportional", 300, (3, 8, 32)),
    ("planar-skew", 100, (3, 8, 17)),
    ("planar-skew", 300, (3, 5, 8)),
), ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else str(v))
def test_planar_hyperplanes_match_the_fraction_reference(kind, digits, lengths):
    # the integer planes from each triple's scaled ratios against the Fraction coefficients they
    # replaced; digits 0 draws grid entries k/8
    rng = random.Random(digits * 1000 + len(kind))
    for n in lengths:
        if digits:
            p = [F(rng.randint(10 ** (digits - 1), 10 ** digits), rng.randint(10 ** (digits - 1), 10 ** digits))
                 for _ in range(n)]
        else:
            p = [F(rng.randint(1, 64), 8) for _ in range(n)]
        if kind == "planar-proportional":
            q = [p[0] * F(3, 7) * v for v in p]
        else:
            q = [v * F(rng.randint(1, 64), 8) for v in p]
            q[1] += q[0] * p[1] / p[0]
            for i in range(2, n):
                while True:
                    try:
                        p[i] = continue_degenerate(p[:i], q[:i], q[i])
                        break
                    except NoValidContinuationError:
                        q[i] /= 2
        spec = DivisionSpec(tuple(p), tuple(q))
        assert classify(spec).kind == kind
        assert hyperplanes(spec) == ref_planar_hyperplanes(spec)


@given(planar_queries())
def test_planar_member_matches_the_fraction_reference(query):
    spec, x, delta = query
    for y in (x, *(bumped(x, k, delta) for k in range(spec.n))):
        expected = ref_member_planar(spec, y)
        for mode in ("strict", "audited"):
            assert member(spec, y, mode) == expected


@given(singular_q1_fold_queries(), st.sampled_from(("strict", "audited")))
def test_q2_fold_decides_where_the_q1_fold_is_singular(query, mode):
    spec, pivot, x, delta = query
    assert "q1" not in ref_fold_solutions(spec, x, pivot)
    for y in (x, *(bumped(x, k, delta) for k in range(spec.n))):
        try:
            expected = ref_member_via_collapse(spec, y, pivot, mode)
        except DegenerateCollapseError:
            expected = DegenerateCollapseError
        try:
            assert member_via_collapse(spec, y, pivot, mode) == expected
        except DegenerateCollapseError:
            assert expected is DegenerateCollapseError


FOLD_SPECS = st.one_of(
    specs(min_n=3, kinds=("spatial",)),
    singular_q1_fold_queries().map(lambda query: query[0]),
    st.sampled_from((  # both folds planar at pivot 3; the q2 fold planar at pivot 2
        DivisionSpec.of((6, 3, 5, 4, 6), (4, 4, 4, 3, 1)), DivisionSpec.of((3, 3, 5, 1), (5, 5, 7, 3)),
    )),
)


@given(FOLD_SPECS)
def test_folds_keep_the_head_basis_of_the_spec(spec):
    # head cumulants depend only on prefix sums: the q1 fold's head is the spec's head summed before
    # the pivot, and the q2 fold's is the spec's head less Q0*ab + P0*dc, with P0 and Q0 the ratio
    # sums before its first coordinate; a fold's rows are singular exactly when it is planar
    assume(classify(spec).spatial)
    fr = frame(spec)
    ones = (F(1),) * spec.n
    for pivot in (j + 2 for j, d in enumerate(discriminants(spec)) if d != 0):
        k = pivot - 1
        p0, q0 = sum(spec.p[:k - 1], F(0)), sum(spec.p_prime[:k - 1], F(0))
        shifted = [h - q0 * a - p0 * d for a, d, h in zip(fr.ab, fr.dc, fr.head)]
        folds = {branch: collapse(spec, ones, pivot, branch).spec3 for branch in ("q1", "q2")}
        assert frame(folds["q1"]).head == (sum(fr.head[:k], F(0)), fr.head[k], fr.head[k + 1])
        assert frame(folds["q2"]).head == (shifted[k - 1], shifted[k], sum(shifted[k + 1:], F(0)))
        for spec3 in folds.values():
            det = _cofactors([row[:3] for row in _factored(spec3).rows])[1]
            assert (det == 0) == (not classify(spec3).spatial)


def test_describe_payloads_match_the_fixture():
    for case in FIXTURE["describe"]:
        assert _describe_payload(DivisionSpec.of(case["p"], case["pp"])) == case["payload"]


def test_cross_validate_reports_match_the_fixture():
    for case in FIXTURE["cross_validate"]:
        report = case["report"]
        spec = DivisionSpec.of(report["p"], report["pp"])
        assert cross_validate(spec, case["count"], report["seed"]).to_jsonable() == report


def test_planar_verdicts_match_the_fixture():
    for case in FIXTURE["member"]:
        spec = DivisionSpec.of(case["p"], case["pp"])
        assert repr(member(spec, fraction_tuple(case["x"]), case["mode"])) == case["verdict"]
    for case in FIXTURE["member_tail"]:
        p, q, x = (TailSummedSequence.parse(case[key]) for key in ("p", "pp", "x"))
        assert repr(member_tail(p, q, x, case["mode"])) == case["verdict"]


@given(specs(min_n=3, max_n=14, kinds=("proportional", "planar-skew")), ratios(), ratios())
def test_apex_parameters_match_the_frame_based_reference(spec, a, b):
    # both skew arms through the face coordinates, and the arm the witness resolves on either kind
    fr, proportional = frame(spec), classify(spec).proportional
    x = tuple(a * h + b * t for h, t in zip(fr.head, fr.tail))
    cert = member(spec, x).certificate
    intervals = (cert.q1_interval, cert.q2_interval)
    expected = [None if interval is None else ref_apex_parameters(fr, x, interval, arm, proportional)
                for interval, arm in zip(intervals, ("head", "tail"))]
    if not proportional:
        # the segment's triple at head coefficient c, or -c on the tail arm, in its verdict's coefficients
        f = _factored(spec)
        at = segment_of(f, span_triple(*totals(f), *cert.coeffs))[2]
        for sign, interval, params in zip((1, -1), intervals, expected):
            if interval is not None:
                c = interval.lo if interval.is_point else (interval.lo + interval.hi) / 2
                verdict = _coefficient_verdict(*int_vector(at(sign * c)), f.total_ab, f.total_dc, "audited")
                assert verdict.certificate.coeffs == params
    out = synthesize_witness(spec, x)
    if out.construction.startswith("apex"):
        arm = 0 if intervals[0] is not None else 1
        a, b, c = expected[arm]
        assert out.construction == ("apex-q1", "apex-q2")[arm]
        assert out.quad == apex_quad(spec, b / c, a / c, c, ("q1", "q2")[arm])


@given(planar_queries())
def test_face_solution_matches_the_span_checked_reference(query):
    # x on the planar span, on the face (ab, dc and parallel bases) or off it; its
    # coefficients on head and tail are the ones a certificate would carry
    spec, x, _ = query
    fr, proportional = frame(spec), classify(spec).proportional
    f = _factored(spec)
    rows = f.rows
    coeffs = reference.solve([[fr.head[0], fr.tail[0]], [fr.head[1], fr.tail[1]]], [x[0], x[1]])
    expected = ref_face_solution(rows, x, proportional)
    if not proportional and expected is not None:
        # at c = 0 the span triple of x = a*head + b*tail is x's face coordinates
        at = segment_of(f, span_triple(*totals(f), *coeffs))[2]
        assert at(F(0)) == (*expected, 0)
    if member(spec, x).attainable:
        out = synthesize_witness(spec, x)
        on_face = expected is not None and expected[0] > 0 and expected[1] > 0
        assert out.construction.startswith("trapezoid") == on_face
        if on_face:
            assert out.quad == _trapezoid(spec, *(2 * e for e in expected))


@given(planar_queries())
def test_realization_reproduces_x_on_its_branch(query):
    # the certificate the witness builds from: strictly positive coefficients over the frame
    # vectors of its branch, summing to x exactly
    spec, x, _ = query
    verdict = member(spec, x)
    if not verdict.attainable:
        return
    cert = _realization(spec, verdict.certificate)
    fr = frame(spec)
    vectors = {"q1": (fr.ab, fr.dc, fr.head), "q2": (fr.ab, fr.dc, fr.tail), "face": (fr.ab, fr.dc),
               "ray": (tuple(a + d for a, d in zip(fr.ab, fr.dc)),)}[cert.branch]
    assert min(cert.coeffs) > 0
    assert tuple(sum(c * v[i] for c, v in zip(cert.coeffs, vectors)) for i in range(spec.n)) == x


@given(specs(min_n=3, max_n=10, kinds=("proportional", "planar-skew")), ratios(signed=True), ratios(signed=True),
       ratios(signed=True))
def test_segment_matches_the_fraction_reference(spec, big_a, big_b, c):
    # any span triple, on the spec's record and its mirror's: the range, and the line at its ends,
    # its midpoint and c = 0 (on proportional sides the line is the triple alone, at c)
    triple = (big_a, big_b, c)
    for planar in (spec, _mirror(spec)):
        f = _factored(planar)
        lo, hi, at = ref_segment(planar, triple)
        kernel = segment_of(f, triple)
        assert kernel[:2] == (lo, hi)
        for t in ((lo, hi, (lo + hi) / 2, F(0)) if f.conic[2] else (c,)):
            assert kernel[2](t) == at(t)


@settings(max_examples=100)
@given(st.sampled_from(("proportional", "planar-skew")).flatmap(planar_mirror_query))
def test_planar_decide_and_realization_match_the_fraction_reference(query):
    # each mode, and the mirror's read-back for a tuple lighter at its end
    spec, x = query
    if min(x) <= 0:
        return
    mirror = _mirror(spec)
    expected = ref_planar_decide(spec, x)
    assert _decide(_factored(spec), x, "audited") == expected
    assert _decide(_factored(mirror), x[::-1], "strict") == ref_planar_decide(mirror, x[::-1])
    if _lighter_at_end(x[0], x[-1]):
        expected = read_back(ref_planar_decide(mirror, x[::-1]))
    for mode in ("strict", "audited"):
        assert member(spec, x, mode) == expected
    if expected.attainable:
        cert = member(spec, x).certificate
        assert _realization(spec, cert) == ref_realization(spec, cert)


PROPORTIONAL3 = DivisionSpec.of((1, 2, 3), (2, 4, 6))
RANGE_SHAPES = {  # (spec, a, b, shape of the range) with x = a*head + b*tail
    "two-sided": (SKEW3, 1, 2, lambda lo, hi: lo < 0 < hi),
    "q1-only": (SKEW3, 5, 1, lambda lo, hi: 0 <= lo < hi),
    "q2-only": (SKEW3, 1, 5, lambda lo, hi: lo < hi <= 0),
    "point-q1": (PROPORTIONAL3, 2, 1, lambda lo, hi: lo == hi > 0),
    "point-q2": (PROPORTIONAL3, 1, 3, lambda lo, hi: lo == hi < 0),
    "point-zero": (PROPORTIONAL3, 3, 3, lambda lo, hi: lo == hi == 0),
}


@pytest.mark.parametrize("spec, a, b, shape", RANGE_SHAPES.values(), ids=RANGE_SHAPES)
def test_each_range_shape_matches_the_fraction_reference(spec, a, b, shape):
    f = _factored(spec)
    triple = span_triple(*totals(f), F(a), F(b))
    lo, hi, _ = ref_segment(spec, triple)
    assert shape(lo, hi)
    assert segment_of(f, triple)[:2] == (lo, hi)
    x = cumulant_tuple(spec, a, b)
    verdict = member(spec, x)
    assert verdict == ref_planar_decide(spec, x)
    assert _realization(spec, verdict.certificate) == ref_realization(spec, verdict.certificate)


@pytest.mark.parametrize("spec", (SKEW3, PROPORTIONAL3))
def test_a_planar_tuple_heavy_at_its_head_is_read_back_from_the_mirror(spec):
    # a tiny head coefficient puts a 90-digit denominator in x's first entry and none in its last
    fr = frame(spec)
    a = F(1, 10 ** 90 + 7)
    x = cumulant_tuple(spec, a, (1 - a * fr.head[-1]) / fr.tail[-1])
    assert _lighter_at_end(x[0], x[-1])
    verdict = member(spec, x)
    assert verdict.attainable
    assert verdict == read_back(ref_planar_decide(_mirror(spec), x[::-1]))
    assert verdict == ref_planar_decide(spec, x)
    assert _realization(spec, verdict.certificate) == ref_realization(spec, verdict.certificate)


@given(specs(min_n=3, max_n=14, kinds=("planar-skew",)), st.data())
def test_face_coordinates_reproduce_the_cumulants(spec, data):
    fr = frame(spec)
    for vec, (alpha, beta) in zip((fr.head, fr.tail), face_coordinates(_factored(spec))):
        assert vec == tuple(alpha * u + beta * v for u, v in zip(fr.ab, fr.dc))
    # member_tail's extended rows where they stay planar: zero tail sums, or tail sums that
    # continue the zero chain; the face then holds at every extended row, the tail row included
    p, q = data.draw(st.one_of(
        st.just((TailSummedSequence(spec.p), TailSummedSequence(spec.p_prime))),
        tailed_ratios(spec, kinds=("continued",)),
    ))
    ext_ab, ext_dc = p.prefix + (p.tail_sum,), q.prefix + (q.tail_sum,)
    assert reference.pivot(ext_ab, ext_dc) is None
    head, tail = tail_cumulants(p, q)
    head_tail, tail_tail = cumulant_tail_sums(p, q)
    arms = face_coordinates(_factor(ext_ab, ext_dc))
    for vec, (alpha, beta) in zip((head + (head_tail,), tail + (tail_tail,)), arms):
        assert vec == tuple(alpha * u + beta * v for u, v in zip(ext_ab, ext_dc))


@given(specs(), ratios(), ratios(), ratios())
def test_q2_apex_quad_matches_the_reversed_reference(spec, p0, p0_prime, scale):
    assert apex_quad(spec, p0, p0_prime, scale, "q2") == ref_apex_quad_q2(spec, p0, p0_prime, scale)


def test_planar_witnesses_match_the_fixture():
    for case in CONSTRUCTIONS["synthesize_witness"]:
        out = synthesize_witness(DivisionSpec.of(case["p"], case["pp"]), fraction_tuple(case["x"]))
        assert (out.construction, out.quad.text(), repr(out.certificate)) == (
            case["construction"], case["quad"], case["certificate"]
        )


def test_q2_apex_quads_match_the_fixture():
    for case in CONSTRUCTIONS["apex_quad_q2"]:
        spec = DivisionSpec.of(case["p"], case["pp"])
        params = fraction_tuple((case["p0"], case["p0_prime"], case["scale"]))
        assert apex_quad(spec, *params, "q2").text() == case["quad"]


def test_station_reports_match_the_fixture():
    for case in CONSTRUCTIONS["station_check"]:
        p, x = TailSummedSequence.parse(case["p"]), TailSummedSequence.parse(case["x"])
        assert repr(station_check(p, x)) == case["report"]


def outcome(fn, *args):
    """fn's value, or the class and message of the library error it raised."""
    try:
        return fn(*args)
    except QuadAreasError as error:
        return type(error), str(error)


@settings(max_examples=150)
@given(closed_form_inputs())
def test_frame_views_match_the_closed_forms_they_replaced(case):
    p, q, chain, tail_p, nxt, i, x1, x2 = case
    assert outcome(proportional_bounds, p[:3]) == outcome(ref_proportional_bounds, p[:3])
    seq = TailSummedSequence(p, tail_p)
    assert outcome(station_coefficients, seq) == outcome(ref_station_coefficients, seq)
    assert outcome(extend_solution, p, q, x1, x2, i) == outcome(ref_extend_solution, p, q, x1, x2, i)
    assert outcome(extend_solution, p, p, x1, x2, i) == outcome(ref_extend_solution, p, p, x1, x2, i)
    for k in {min(2, len(p)), chain, len(p)} - {0}:  # any leading pair is a chain, as is p[:chain]
        # where the last minor is positive, the last discriminant stops depending on the next AB
        # ratio at the next DC ratio `flat`, and from there on no positive continuation exists
        minor = q[k - 2] * p[k - 1] - p[k - 2] * q[k - 1] if k >= 2 else 0
        flat = (q[k - 2] + q[k - 1]) * p[k - 2] * q[k - 1] / minor if minor > 0 else nxt / 2
        for nxt_q in (nxt, flat, 2 * flat):
            assert outcome(continue_degenerate, p[:k], q[:k], nxt_q) == outcome(
                ref_continue_degenerate, p[:k], q[:k], nxt_q)
