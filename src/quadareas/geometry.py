"""Exact rational plane geometry: areas, convexity, side subdivision, strips, apex.

Conventions used throughout the package:

* quadrilaterals are labelled A, B, C, D counterclockwise, with sides AB and
  DC the two that get divided (AB from A, DC from D);
* strip i is the quadrilateral between division lines i-1 and i, so the strip
  tuple starts at the AD end;
* all coordinates and areas are Fractions, never floats.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import gcd
from typing import Sequence

from .division import (
    DivisionSpec, RationalLike, _Frozen, _lighter_at_end, _memoized_on_spec, _mirror, _side_sums, to_fraction,
)
from .errors import InconsistentQuadError, InvalidInputError, invariant
from .linalg import _scaled


class Point(_Frozen):
    """A point of the plane with exact rational coordinates."""

    x: Fraction
    y: Fraction

    def __init__(self, x, y):
        # coerce so that downstream divisions never fall back to floats
        if not isinstance(x, Fraction):
            x = to_fraction(x)
        if not isinstance(y, Fraction):
            y = to_fraction(y)
        self.__dict__.update(x=x, y=y)

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def __mul__(self, scalar) -> "Point":
        s = to_fraction(scalar)
        return Point(self.x * s, self.y * s)

    __rmul__ = __mul__

    def cross(self, other: "Point") -> Fraction:
        return self.x * other.y - self.y * other.x

    def text(self) -> str:
        return f"{self.x},{self.y}"

    @classmethod
    def parse(cls, text: str) -> "Point":
        if not isinstance(text, str):
            raise InvalidInputError(f"Point.parse takes a str, got {type(text).__name__}")
        parts = text.split(",")
        if len(parts) != 2:
            raise InvalidInputError(f"a point is written as 'x,y', got {text!r}")
        return cls(to_fraction(parts[0]), to_fraction(parts[1]))


def pt(x: RationalLike, y: RationalLike) -> Point:
    """Convenience constructor coercing ints and strings to exact rationals."""
    return Point(x, y)


def polygon_area(vertices: Sequence[Point]) -> Fraction:
    """Signed shoelace area, positive for counterclockwise order, exact."""
    if not (isinstance(vertices, Sequence) and all(isinstance(v, Point) for v in vertices)):
        raise InvalidInputError("polygon_area takes a sequence of Points")
    if len(vertices) < 3:
        raise InvalidInputError("a polygon needs at least three vertices")
    twice = Fraction(0)
    for i, v in enumerate(vertices):
        w = vertices[(i + 1) % len(vertices)]
        twice += v.cross(w)
    return twice / 2


def _edge(p: Point, r: Point) -> tuple[int, int, int, int]:
    """r - p as (x numerator, x denominator, y numerator, y denominator), unnormalised: no gcd."""
    px, py, rx, ry = p.x, p.y, r.x, r.y
    return (
        rx.numerator * px.denominator - px.numerator * rx.denominator,
        rx.denominator * px.denominator,
        ry.numerator * py.denominator - py.numerator * ry.denominator,
        ry.denominator * py.denominator,
    )


def _cross(e: tuple[int, int, int, int], f: tuple[int, int, int, int]) -> tuple[int, int]:
    """e x f as (numerator, denominator) over the edges' positive denominators, unnormalised.

    When one of the two products is zero (an axis-parallel edge, as in every
    apex quad), the other keeps only its own two denominators, so the ints,
    and the one gcd that normalises the cross in strip_areas, stay smaller.
    """
    if e[2] == 0 or f[0] == 0:
        return e[0] * f[2], e[1] * f[3]
    if e[0] == 0 or f[2] == 0:
        return -e[2] * f[0], e[3] * f[1]
    return e[0] * f[2] * e[3] * f[1] - e[2] * f[0] * e[1] * f[3], e[1] * e[3] * f[1] * f[3]


def is_convex_ccw(a: Point, b: Point, c: Point, d: Point) -> bool:
    """True iff the four consecutive cross products are all strictly positive.

    Each edge is built once; a cross's sign is its numerator's, as every
    denominator is positive, so no Fraction is built.
    """
    return _ccw_edges("is_convex_ccw", a, b, c, d) is not None


def _ccw_edges(name: str, a: Point, b: Point, c: Point, d: Point):
    """The integer edges u = B - A, w = C - D and e = D - A when ``is_convex_ccw`` holds, else None,
    after one isinstance per vertex, refusing a vertex that is not a Point with a message naming
    the function it was passed to.  w and e are the check's D - C and A - D, numerators negated."""
    if not (isinstance(a, Point) and isinstance(b, Point) and isinstance(c, Point) and isinstance(d, Point)):
        raise InvalidInputError(f"{name} takes four Points")
    ab, bc, cd, da = _edge(a, b), _edge(b, c), _edge(c, d), _edge(d, a)
    if not all(_cross(e, f)[0] > 0 for e, f in ((ab, bc), (bc, cd), (cd, da), (da, ab))):
        return None
    return ab, (-cd[0], cd[1], -cd[2], cd[3]), (-da[0], da[1], -da[2], da[3])


class ConvexQuad(_Frozen):
    """A strictly convex quadrilateral with counterclockwise vertex order."""

    a: Point
    b: Point
    c: Point
    d: Point

    def __post_init__(self):
        """Check convexity and keep the integer edges the check built in the quad's own dict,
        beside the fields repr, eq and hash read, for ``_edges``."""
        edges = _ccw_edges("ConvexQuad", self.a, self.b, self.c, self.d)
        if edges is None:
            raise InvalidInputError(
                "vertices are not a strictly convex counterclockwise quadrilateral"
            )
        self.__dict__["_edges"] = edges

    @classmethod
    def of(cls, a: Point, b: Point, c: Point, d: Point) -> "ConvexQuad":
        """Build a quad, reflecting clockwise input by swapping B and D.  The quad keeps the edges of
        the check that passed, as ``__post_init__`` would, so no vertex order is checked twice."""
        for b, d in ((b, d), (d, b)):
            edges = _ccw_edges("ConvexQuad.of", a, b, c, d)
            if edges is not None:
                quad = object.__new__(cls)
                quad.__dict__.update(a=a, b=b, c=c, d=d, _edges=edges)
                return quad
        raise InvalidInputError("vertices do not form a strictly convex quadrilateral")

    @classmethod
    def parse(cls, text: str) -> "ConvexQuad":
        if not isinstance(text, str):
            raise InvalidInputError(f"ConvexQuad.parse takes a str, got {type(text).__name__}")
        points = [Point.parse(part) for part in text.split(";")]
        if len(points) != 4:
            raise InvalidInputError("a quadrilateral is written as four ';'-separated points")
        return cls.of(*points)

    @property
    def vertices(self) -> tuple[Point, Point, Point, Point]:
        return (self.a, self.b, self.c, self.d)

    def text(self) -> str:
        return ";".join(v.text() for v in self.vertices)


class DivisionPoints(_Frozen):
    """Division points along AB and DC, endpoints included."""

    on_ab: tuple[Point, ...]
    on_dc: tuple[Point, ...]


class ParallelMarker(_Frozen):
    """Marker returned by apex_of when AB and DC are parallel."""


class ApexFrame(_Frozen):
    """Apex data for a non-parallel quad.

    ``branch`` is "q1" when A lies between the apex and B, "q2" when B lies
    between A and the apex.  ``p0`` and ``p0_prime`` extend the ratio scales
    toward the apex along the divided sides, measured from the corner nearest
    the apex.  ``scale`` is the area unit: the triangle cut off at the apex by
    the nearest division corners has area scale*p0*p0_prime.
    """

    apex: Point
    branch: str
    p0: Fraction
    p0_prime: Fraction
    scale: Fraction


# A varying coordinate whose start, step and side total have denominators of fewer bits than this in all
# is built from integer partial sums.  Timed per coordinate on apex quads and trapezoids at n = 8-128, the
# integer sums built cold, that path is 1.1-1.5x faster below 64 bits, about even from 64 to 191 and
# slower from 192 bits on at n = 8 and 32, where the ints it multiplies outgrow the Fraction path's.
_SHORT_BITS = 128


def _edges(q: ConvexQuad) -> tuple[tuple[int, int, int, int], ...]:
    """The integer edges u = B - A, w = C - D and e = D - A of the quad: those its convexity check
    kept, or, for a quad built without that check (corrupted data), fresh ones."""
    edges = q.__dict__.get("_edges")
    if edges is None:
        a, d = q.a, q.d
        edges = _edge(a, q.b), _edge(d, q.c), _edge(a, d)
    return edges


def _quad_and_spec(name: str, q, spec) -> None:
    if not (isinstance(q, ConvexQuad) and isinstance(spec, DivisionSpec)):
        raise InvalidInputError(f"{name} takes a ConvexQuad and a DivisionSpec")


def subdivide(q: ConvexQuad, spec: DivisionSpec) -> DivisionPoints:
    """Division points at the prescribed consecutive ratios, exact: start + s*(end - start)/total
    over the spec's memoized partial sums s.  Each step (end - start)/total is normalised once per side
    and coordinate; a coordinate fixed along a side (one per side of every apex quad and trapezoid) is one
    shared Fraction.  A coordinate whose end has the shorter denominator by more than 64 bits (both sides
    of a big-digit q2 apex quad) is measured from the end: start, step and s become end, -step and the
    mirror spec's partial sums reversed, each point start + s*step as below.  Otherwise the size rule picks
    the arithmetic: when the denominators of start, step and side total have fewer than 128 bits in all
    (every grid witness), each point is one Fraction(an*ud + S*un*ad, ad*ud) over the side's memoized
    integer partial sums S, un/ud being the step per integer unit, with no Fraction multiply and add per
    point; longer operands (every big-digit witness) keep start + s*step.
    The rule reads only bit lengths, so those never build the integer sums here."""
    _quad_and_spec("subdivide", q, spec)

    def coordinate(start: Fraction, end: Fraction, k: int) -> Sequence[Fraction]:
        sums = _side_sums(spec)[k]
        if start == end:
            return (start,) * len(sums)
        step = (end - start) / sums[-1]
        an, ad = start.numerator, start.denominator
        if _lighter_at_end(start, end):
            start, step, sums = end, -step, _side_sums(_mirror(spec))[k][::-1]
        elif ad.bit_length() + step.denominator.bit_length() + sums[-1].denominator.bit_length() < _SHORT_BITS:
            ints = _integer_side_sums(spec)[k]
            unit = (end - start) / ints[-1]  # the step per integer unit, un/ud
            base, rise, den = an * unit.denominator, unit.numerator * ad, ad * unit.denominator
            return [Fraction(base + s * rise, den) for s in ints]
        return [start + s * step for s in sums]

    def side(start: Point, end: Point, k: int) -> tuple[Point, ...]:
        return tuple(map(Point, coordinate(start.x, end.x, k), coordinate(start.y, end.y, k)))

    return DivisionPoints(side(q.a, q.b, 0), side(q.d, q.c, 1))


def _quotient(cross: tuple[int, int], scale: int) -> Fraction:
    """cross / scale as one Fraction.  The numerator's common factor with scale
    is divided out first: it is large when the quad is built from the spec, and
    the gcd that normalises the rest then runs on smaller ints."""
    num, den = cross
    g = gcd(num, scale)
    return Fraction(num // g, den * (scale // g))


@_memoized_on_spec
def _integer_side_sums(spec: DivisionSpec) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Each side's partial ratio sums as ints, from 0 to the total, over the lcm of its ratios' denominators."""
    return tuple((0, *accumulate(_scaled(ratios)[0])) for ratios in (spec.p, spec.p_prime))


def strip_areas(q: ConvexQuad, spec: DivisionSpec) -> tuple[Fraction, ...]:
    """Exact strip areas in closed form: with u = B - A, w = C - D, e = D - A and
    side fractions alpha_k = s_k/S (AB) and delta_k = t_k/T (DC), twice strip k is
    (delta_{k-1} - delta_k)*(e x w) + (alpha_{k-1} - alpha_k)*(e x u)
    + (alpha_k*delta_k - alpha_{k-1}*delta_{k-1})*(u x w).  Each weight is one
    Fraction from a cross of the integer edges over its side totals, normalised
    once per quad, as the crosses share factors with S and T when the quad is
    built from the spec; each strip is then one Fraction over integer sums s, t,
    its sign checked on the int numerator (the common denominator is positive).
    The edges are those the quad kept from its convexity check.
    """
    _quad_and_spec("strip_areas", q, spec)
    s, t = _integer_side_sums(spec)
    u, w, e = _edges(q)
    crosses = ((_cross(e, w), 2 * t[-1]), (_cross(e, u), 2 * s[-1]), (_cross(u, w), 2 * s[-1] * t[-1]))
    (ew, eu, uw), den = _scaled([_quotient(cross, scale) for cross, scale in crosses])
    areas = []
    for k in range(1, spec.n + 1):
        numerator = (t[k - 1] - t[k]) * ew + (s[k - 1] - s[k]) * eu + (s[k] * t[k] - s[k - 1] * t[k - 1]) * uw
        invariant(numerator > 0, "strip areas of a convex quadrilateral must be positive")
        areas.append(Fraction(numerator, den))
    return tuple(areas)


def apex_of(q: ConvexQuad, spec: DivisionSpec):
    """Apex frame of the quad, or ParallelMarker when AB and DC never meet.

    The intersection point E of lines AB and DC is computed exactly.  E must
    fall outside both divided segments; it landing inside one means the input
    is not a valid convex quadrilateral (guards corrupted data).  It is read in
    ints from the unnormalised integer edges u = B - A, w = C - D and e = D - A
    that the quad kept from its convexity check, as ``strip_areas`` does: with the
    side cross u x w = n/den,
    t = (e x w)/(u x w) and r = (e x u)/(u x w) are kept as int pairs over
    positive denominators, the segment and branch tests are int comparisons,
    and each returned value is one Fraction.
    """
    _quad_and_spec("apex_of", q, spec)
    u, w, e = _edges(q)
    n, den = _cross(u, w)
    if n == 0:
        return ParallelMarker()
    (ewn, ewd), (eun, eud) = _cross(e, w), _cross(e, u)
    sign = 1 if n > 0 else -1
    tn, td = sign * ewn * den, sign * ewd * n  # t = tn/td, td > 0: A at 0, B at 1
    rn, rd = sign * eun * den, sign * eud * n  # r = rn/rd, rd > 0: D at 0, C at 1
    if 0 <= tn <= td or 0 <= rn <= rd:
        raise InconsistentQuadError("side lines meet inside a divided segment")
    ax, ay = q.a.x, q.a.y
    apex = Point(
        Fraction(ax.numerator * u[1] * td + tn * u[0] * ax.denominator, ax.denominator * u[1] * td),
        Fraction(ay.numerator * u[3] * td + tn * u[2] * ay.denominator, ay.denominator * u[3] * td),
    )
    # twice the apex triangle's area, scale*p0*p0_prime, is t*r*(u x w) (q1) or -(t-1)*(r-1)*(u x w) (q2)
    if tn < 0:
        invariant(rn < 0, "an apex beyond A on line AB lies beyond D on line DC")
        branch, t0, r0, cross = "q1", -tn, -rn, n  # -t, -r and the side cross
    else:
        invariant(rn > rd, "an apex beyond B on line AB lies beyond C on line DC")
        branch, t0, r0, cross = "q2", tn - td, rn - rd, -n  # t - 1, r - 1 and minus the side cross
    total_ab, total_dc = (sums[-1] for sums in _side_sums(spec))
    sn, sd, tdn, tdd = total_ab.numerator, total_ab.denominator, total_dc.numerator, total_dc.denominator
    scale = Fraction(cross * sd * tdd, 2 * den * sn * tdn)
    invariant(scale > 0, "the apex triangle has positive area")
    return ApexFrame(apex, branch, Fraction(t0 * sn, td * sd), Fraction(r0 * tdn, rd * tdd), scale)
