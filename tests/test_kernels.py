"""The exact kernels against their step-by-step Fraction references.

Each kernel normalises its result once; the references below are the plain
Fraction forms (one normalisation per operation) they replaced, and every
property requires identical Fractions.  The stored fixture holds outputs of
the Fraction implementations and is compared, never rewritten.
"""
import json
import random
from fractions import Fraction as F
from functools import partial
from itertools import accumulate, permutations
from math import gcd
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings, strategies as st

from quadareas import (
    Certificate,
    ConvexQuad,
    DegenerateCollapseError,
    DivisionSpec,
    NoValidContinuationError,
    Point,
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
    frame,
    hyperplanes,
    is_convex_ccw,
    member,
    member_tail,
    member_via_collapse,
    polygon_area,
    station_check,
    strip_areas,
    subdivide,
    synthesize_witness,
    tail_cumulants,
)
from quadareas.cli import _describe_payload
from quadareas.cone import _discriminant, _first_pivot, integer_rows
from quadareas.division import fraction_tuple
from quadareas.linalg import _cofactors, _scaled
from quadareas.membership import Interval, _coefficient_verdict, _pivot_solution, _realization, _segment, _spans
from quadareas.witness import _trapezoid

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


def ref_solve2(m, rhs):
    d = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    if d == 0:
        return None
    x = (rhs[0] * m[1][1] - m[0][1] * rhs[1]) / d
    y = (m[0][0] * rhs[1] - rhs[0] * m[1][0]) / d
    return (x, y)


def ref_solve3(m, rhs):
    d = det3(m)
    if d == 0:
        return None
    cols = []
    for j in range(3):
        mj = [[rhs[i] if k == j else m[i][k] for k in range(3)] for i in range(3)]
        cols.append(det3(mj) / d)
    return tuple(cols)


def ref_cumulants(p, p_prime, tail_p=F(0), tail_p_prime=F(0)):
    """head[i] = -p[i]*p'[i] + p[i]*sum(p'[:i+1]) + p'[i]*sum(p[:i+1]), tail likewise from the end."""
    n = len(p)
    head = []
    acc_p, acc_q = F(0), F(0)
    for i in range(n):
        acc_p += p[i]
        acc_q += p_prime[i]
        head.append(-p[i] * p_prime[i] + p[i] * acc_q + p_prime[i] * acc_p)
    tail = [F(0)] * n
    acc_p, acc_q = tail_p, tail_p_prime
    for i in range(n - 1, -1, -1):
        acc_p += p[i]
        acc_q += p_prime[i]
        tail[i] = -p[i] * p_prime[i] + p[i] * acc_q + p_prime[i] * acc_p
    return tuple(head), tuple(tail)


def ref_discriminants(p, q):
    return tuple(
        (p[j - 1] + p[j] + p[j + 1]) * q[j - 1] * q[j + 1] * p[j]
        - (q[j - 1] + q[j] + q[j + 1]) * p[j - 1] * p[j + 1] * q[j]
        for j in range(1, len(p) - 1)
    )


def ref_first_pivot(p, q):
    """1-based index of the first nonzero discriminant, or None."""
    return next((j + 2 for j, d in enumerate(ref_discriminants(p, q)) if d != 0), None)


def int_vector(triple):
    """A rational triple as the int vector (A, B, C, E) over its common denominator E."""
    ints, den = _scaled(triple)
    return (*ints, den)


def as_fractions(sol):
    """The int vector (A, B, C, E) as the triple (A/E, B/E, C/E); None stays None."""
    return None if sol is None else tuple(F(v, sol[3]) for v in sol[:3])


def assert_primitive(sol):
    assert gcd(*sol) == 1 and sol[3] > 0


def ref_combine(fr, a, b, c):
    """The Fraction combination a*ab + b*dc + c*head that the span check used to compare with x."""
    return tuple(a * u + b * v + c * w for u, v, w in zip(fr.ab, fr.dc, fr.head))


def ref_pivot_solution(spec, pivot, x):
    fr = frame(spec)
    cols = (pivot - 2, pivot - 1, pivot)
    sol = ref_solve3([[fr.ab[c], fr.dc[c], fr.head[c]] for c in cols], [x[c] for c in cols])
    return sol if ref_combine(fr, *sol) == x else None


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
    sol = ref_pivot_solution(spec, classify(spec).pivot, x)
    if sol is None:
        return Verdict(False, reason="off-subspace")
    return ref_coefficient_verdict(*sol, sum(spec.p), sum(spec.p_prime), mode)


def ref_fold_solutions(spec, x, pivot):
    """The fold solve as it was: the frame of each spatial fold, its arm, a Fraction 3x3 solve."""
    folded = {}
    for branch in ("q1", "q2"):
        instance = collapse(spec, x, pivot, branch)
        if classify(instance.spec3).spatial:
            fr3 = frame(instance.spec3)
            arm = fr3.head if branch == "q1" else fr3.tail
            rows = [[fr3.ab[i], fr3.dc[i], arm[i]] for i in range(3)]
            folded[branch] = ref_solve3(rows, list(instance.x3))
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
    elif ref_pivot_solution(spec, pivot, x) is None:
        return Verdict(False, reason="off-subspace")
    else:
        raise DegenerateCollapseError("both folds are planar")
    if ref_combine(frame(spec), a, b, c) != x:
        return Verdict(False, reason="off-subspace")
    return ref_coefficient_verdict(a, b, c, total_ab, total_dc, mode)


def ref_independent_pair(u, v):
    """Two coordinate indices where (u, v) has a nonzero 2x2 minor, or None."""
    for j in range(1, len(u)):
        if u[0] * v[j] != u[j] * v[0]:
            return (0, j)
    return None


def ref_coefficient_interval(ab, dc, arm_vec, x, a, b, arm_is_head):
    """The planar re-decomposition interval, proportional when ref_independent_pair(ab, dc) is None."""
    pair = ref_independent_pair(ab, dc)
    if pair is None:
        c = a - b if arm_is_head else b - a
        return Interval(c, c) if c > 0 else None
    i, j = pair
    base = ref_solve2([[ab[i], dc[i]], [ab[j], dc[j]]], [x[i], x[j]])
    slope = ref_solve2([[ab[i], dc[i]], [ab[j], dc[j]]], [arm_vec[i], arm_vec[j]])
    lo, hi = F(0), None
    for coef, intercept in zip(slope, base):
        if coef > 0:
            hi = intercept / coef if hi is None else min(hi, intercept / coef)
        elif coef < 0:
            lo = max(lo, intercept / coef)
        elif intercept <= 0:
            return None
    return Interval(lo, hi) if lo < hi else None


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
    return integer_rows(DivisionSpec(p.prefix, p_prime.prefix))[0] + ((*ints, den),)


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
    pivot = ref_first_pivot(ext_ab, ext_dc)
    if pivot is None:
        i, j = ref_independent_pair(ext_head, ext_tail)
        a, b = ref_solve2([[ext_head[i], ext_tail[i]], [ext_head[j], ext_tail[j]]], [ext_x[i], ext_x[j]])
        if not ref_verify_combination((head, tail), (head_tail, tail_tail), (a, b), x):
            return verdict(False, reason="off-subspace")
        if a > 0 and b > 0:
            return verdict(True, Certificate(
                "degenerate",
                (a, b),
                ref_coefficient_interval(ext_ab, ext_dc, ext_head, ext_x, a, b, True),
                ref_coefficient_interval(ext_ab, ext_dc, ext_tail, ext_x, a, b, False),
            ))
        return verdict(False, reason="boundary" if a >= 0 and b >= 0 else "negative-coefficient")
    cols = (pivot - 2, pivot - 1, pivot)
    a, b, c = ref_solve3([[ext_ab[k], ext_dc[k], ext_head[k]] for k in cols], [ext_x[k] for k in cols])
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
    i, j = ref_independent_pair(fr.head, fr.tail)
    a, b = ref_solve2([[fr.head[i], fr.tail[i]], [fr.head[j], fr.tail[j]]], [x[i], x[j]])
    if any(a * h + b * t != xi for h, t, xi in zip(fr.head, fr.tail, x)):
        return Verdict(False, reason="off-subspace")
    if a > 0 and b > 0:
        return Verdict(True, Certificate(
            "degenerate",
            (a, b),
            ref_coefficient_interval(fr.ab, fr.dc, fr.head, x, a, b, True),
            ref_coefficient_interval(fr.ab, fr.dc, fr.tail, x, a, b, False),
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
    a, b = ref_solve2([[fr.ab[0], fr.dc[0]], [fr.ab[1], fr.dc[1]]], [residual[0], residual[1]])
    return a, b, c


def ref_face_solution(rows, x, proportional):
    """(a, b) with x = a*ab + b*dc as it was: solved at the first rows, then checked at every row."""
    if proportional:
        p0, q0, _, l0 = rows[0]
        t = l0 * x[0] / (p0 + q0)
        sol = (t, t)
    else:
        sol = ref_solve2([rows[0][:2], rows[1][:2]], [rows[0][3] * x[0], rows[1][3] * x[1]])
    return sol if _spans(rows, int_vector((*sol, 0)), x, range(0)) else None


def span_triple(total_ab, total_dc, a, b):
    """x = a*head + b*tail as a*ab + b*dc + c*head coefficients: (b*total_dc, b*total_ab, a - b)."""
    return b * total_dc, b * total_ab, a - b


def face_coordinates(rows, total_ab, total_dc):
    """head's and tail's coordinates over (ab, dc): their span triples moved to c = 0; for head, (alpha, beta)."""
    return [_segment(rows, total_ab, total_dc, span_triple(total_ab, total_dc, *coeffs))[2](F(0))[:2]
            for coeffs in ((F(1), F(0)), (F(0), F(1)))]


def ref_apex_quad_q2(spec, p0, p0_prime, scale):
    """The q2 apex quad as it was: the q1 quad of the reversed spec, its axes swapped."""
    base = apex_quad(DivisionSpec(spec.p[::-1], spec.p_prime[::-1]), p0, p0_prime, scale, "q1")

    def swap(v):
        return Point(v.y, v.x)

    return ConvexQuad(swap(base.b), swap(base.a), swap(base.d), swap(base.c))


def ref_subdivide(q, spec):
    def cumulative(ratios):
        sums = [F(0)]
        for r in ratios:
            sums.append(sums[-1] + r)
        return sums

    sums_ab, sums_dc = cumulative(spec.p), cumulative(spec.p_prime)
    on_ab = tuple(q.a + (s / sums_ab[-1]) * (q.b - q.a) for s in sums_ab)
    on_dc = tuple(q.d + (s / sums_dc[-1]) * (q.c - q.d) for s in sums_dc)
    return on_ab, on_dc


def ref_strip_areas(q, spec):
    """Shoelace over the division points of each strip."""
    on_ab, on_dc = ref_subdivide(q, spec)
    return tuple(
        polygon_area((on_ab[i - 1], on_ab[i], on_dc[i], on_dc[i - 1]))
        for i in range(1, spec.n + 1)
    )


def ref_is_convex_ccw(a, b, c, d):
    """is_convex_ccw on Points: four Fraction crosses, each edge built twice."""
    quad = (a, b, c, d)
    for i in range(4):
        u = quad[(i + 1) % 4] - quad[i]
        v = quad[(i + 2) % 4] - quad[(i + 1) % 4]
        if u.cross(v) <= 0:
            return False
    return True


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
        # for planar-skew); a smaller next ratio always continues
        q[1] += q[0] * p[1] / p[0]
        for i in range(2, n if kind == "planar-skew" else draw(st.integers(min(3, n), n))):
            while True:
                try:
                    p[i] = continue_degenerate(p[:i], q[:i], q[i])
                    break
                except NoValidContinuationError:
                    q[i] /= 2
    return DivisionSpec(tuple(p), tuple(q))


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
        return next((list(order) for order in permutations(points) if ref_is_convex_ccw(*order)), points)
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


# ---- properties -------------------------------------------------------------


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
    rows, total_ab, total_dc = integer_rows(spec)
    (ta, td), s = _scaled((total_ab, total_dc))
    border = (ta, -td, 0, 1)
    k0, k1 = (total_dc * p + total_ab * q - h for p, q, h, _ in rows[:2])
    minor = rows[0][2] * k1 - k0 * rows[1][2]
    assert minor < 0
    assert _cofactors([row[:3] for row in (*rows[:2], border)])[1] == -s * minor
    fr = frame(spec)
    coeffs = ref_solve2([[fr.head[0], fr.tail[0]], [fr.head[1], fr.tail[1]]], [x0, x1])
    sol = _pivot_solution((*rows[:2], border), 2, (x0, x1, F(0)))
    assert_primitive(sol)
    assert as_fractions(sol) == span_triple(total_ab, total_dc, *coeffs)


@given(pivot_systems())
def test_pivot_solution_matches_fraction_cramer(system):
    rows, x = system
    rhs = [row[3] * v for row, v in zip(rows, x)]
    assert len({v.denominator for v in rhs}) == 3
    sol = _pivot_solution(rows, 2, x)
    assert as_fractions(sol) == ref_solve3([[F(e) for e in row[:3]] for row in rows], rhs)
    if sol is not None:
        assert_primitive(sol)


def test_singular_systems_return_none():
    rows = [(3, 6, 9, 1), (1, 0, -3, 2), (4, 6, 6, 3)]  # the last block row is the sum of the others
    assert _pivot_solution(rows, 2, (F(1, 2), F(1, 3), F(1, 5))) is None


@given(specs(), st.sampled_from((False, True)), st.data())
def test_cumulants_match_docstring_formula(spec, with_tails, data):
    tails = (data.draw(ratios()), data.draw(ratios())) if with_tails else (F(0), F(0))
    assert cumulants(spec.p, spec.p_prime, *tails) == ref_cumulants(spec.p, spec.p_prime, *tails)


@given(specs())
def test_discriminants_and_first_pivot_match_reference(spec):
    expected = ref_discriminants(spec.p, spec.p_prime)
    assert discriminants(spec) == expected
    pivot = ref_first_pivot(spec.p, spec.p_prime)
    assert _first_pivot(spec.p, spec.p_prime) == pivot
    label = classify(spec)
    assert label.spatial == (pivot is not None)
    assert label.pivot == pivot


@given(specs(), st.data())
def test_strip_areas_and_division_points_match_shoelace(spec, data):
    quad = data.draw(quads_for(spec))
    assert strip_areas(quad, spec) == ref_strip_areas(quad, spec) == ref_point_strip_areas(quad, spec)
    points = subdivide(quad, spec)
    assert (points.on_ab, points.on_dc) == ref_subdivide(quad, spec)


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
        tilted = ConvexQuad(*(Point(2 * v.x + v.y + F(1, 3), v.x + 3 * v.y - F(1, 5)) for v in quad.vertices))
        for q, fixed in ((quad, 1), (tilted, 0)):
            assert [(a.x == b.x) + (a.y == b.y) for a, b in ((q.a, q.b), (q.d, q.c))] == [fixed, fixed]
            points = subdivide(q, spec)
            assert (points.on_ab, points.on_dc) == ref_subdivide(q, spec)


@given(specs(), st.data())
def test_division_points_are_fractions_matching_the_reference(spec, data):
    # a witness's trapezoid starts both sides' varying coordinate at 0, a shifted top side starts
    # at its offset, and each apex quad starts both away from 0
    grid = ratios(big=False)
    quads = [
        _trapezoid(spec, data.draw(grid), data.draw(grid)),
        _trapezoid(spec, data.draw(grid), data.draw(grid), data.draw(ratios(big=False, signed=True))),
        *(apex_quad(spec, data.draw(grid), data.draw(grid), data.draw(grid), branch) for branch in ("q1", "q2")),
    ]
    for quad in quads:
        points = subdivide(quad, spec)
        assert (points.on_ab, points.on_dc) == ref_subdivide(quad, spec)
        assert {type(c) for v in (*points.on_ab, *points.on_dc) for c in (v.x, v.y)} == {F}


@settings(max_examples=200)  # a mutated edge denominator flips few signs
@given(vertex_sets())
def test_convexity_matches_the_point_reference(vertices):
    assert is_convex_ccw(*vertices) == ref_is_convex_ccw(*vertices)


@given(specs())
def test_integer_rows_match_frame(spec):
    fr = frame(spec)
    rows, total_ab, total_dc = integer_rows(spec)
    assert [(F(p, d), F(q, d), F(h, d)) for p, q, h, d in rows] == list(zip(fr.ab, fr.dc, fr.head))
    assert all(d > 0 for *_, d in rows)
    assert (total_ab, total_dc) == (sum(spec.p), sum(spec.p_prime))


@given(specs(), st.data())
def test_span_check_matches_fraction_combination(spec, data):
    coeffs = tuple(data.draw(ratios(signed=True)) for _ in range(3))
    x = ref_combine(frame(spec), *coeffs)
    rows, _, _ = integer_rows(spec)
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
    rows = integer_rows(spec)[0]
    for y in (x, *(bumped(x, k, delta) for k in range(spec.n))):
        for pivot in pivots:
            sol = _pivot_solution(rows, pivot, y)
            assert_primitive(sol)
            spans = _spans(rows, sol, y, range(pivot - 2, pivot + 1))
            assert (as_fractions(sol) if spans else None) == ref_pivot_solution(spec, pivot, y)


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
                assert ref_pivot_solution(spec, pivot, y) is not None


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
def test_coefficient_verdict_matches_the_two_region_reference(triple, mode, prefix_certified):
    # member_tail sets prefix_certified on the kernel's verdict; the reference still takes it
    kernel = _coefficient_verdict(*int_vector(triple[:3]), *triple[3:], mode)
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
    ext = SimpleNamespace(p=p.prefix + (p.tail_sum,), p_prime=q.prefix + (q.tail_sum,), n=p.m + 1)
    *prefix, tail = ref_strip_areas(quad, ext)
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
    assert disc == ref_discriminants(ext_p, ext_q)[0]
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
            rows = integer_rows(DivisionSpec(instance.spec3.p[::-1], instance.spec3.p_prime[::-1]))[0]
            assert as_fractions(_pivot_solution(rows, 2, instance.x3[::-1])) == folds["q2"]
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
    # sums before its first coordinate; a fold's solve is singular exactly when it is planar
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
            solved = _pivot_solution(integer_rows(spec3)[0], 2, (F(1),) * 3)
            assert (solved is None) == (not classify(spec3).spatial)


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
        rows, total_ab, total_dc = integer_rows(spec)
        at = _segment(rows, total_ab, total_dc, span_triple(total_ab, total_dc, *cert.coeffs))[2]
        for sign, interval, params in zip((1, -1), intervals, expected):
            if interval is not None:
                c = interval.lo if interval.is_point else (interval.lo + interval.hi) / 2
                verdict = _coefficient_verdict(*int_vector(at(sign * c)), total_ab, total_dc, "audited")
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
    rows, total_ab, total_dc = integer_rows(spec)
    coeffs = ref_solve2([[fr.head[0], fr.tail[0]], [fr.head[1], fr.tail[1]]], [x[0], x[1]])
    expected = ref_face_solution(rows, x, proportional)
    if not proportional and expected is not None:
        # at c = 0 the span triple of x = a*head + b*tail is x's face coordinates
        at = _segment(rows, total_ab, total_dc, span_triple(total_ab, total_dc, *coeffs))[2]
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


@given(specs(min_n=3, max_n=14, kinds=("planar-skew",)), st.data())
def test_face_coordinates_reproduce_the_cumulants(spec, data):
    fr = frame(spec)
    for vec, (alpha, beta) in zip((fr.head, fr.tail), face_coordinates(*integer_rows(spec))):
        assert vec == tuple(alpha * u + beta * v for u, v in zip(fr.ab, fr.dc))
    # member_tail's extended rows where they stay planar: zero tail sums, or tail sums that
    # continue the zero chain; the face then holds at every extended row, the tail row included
    p, q = data.draw(st.one_of(
        st.just((TailSummedSequence(spec.p), TailSummedSequence(spec.p_prime))),
        tailed_ratios(spec, kinds=("continued",)),
    ))
    ext_ab, ext_dc = p.prefix + (p.tail_sum,), q.prefix + (q.tail_sum,)
    assert ref_first_pivot(ext_ab, ext_dc) is None
    head, tail = tail_cumulants(p, q)
    head_tail, tail_tail = cumulant_tail_sums(p, q)
    arms = face_coordinates(extended_rows(p, q), p.total, q.total)
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
