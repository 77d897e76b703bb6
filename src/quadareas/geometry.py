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

from .division import DivisionSpec, RationalLike, _Frozen, _memoized_on_spec, _side_sums, to_fraction
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
        parts = text.split(",")
        if len(parts) != 2:
            raise InvalidInputError(f"a point is written as 'x,y', got {text!r}")
        return cls(to_fraction(parts[0]), to_fraction(parts[1]))


def pt(x: RationalLike, y: RationalLike) -> Point:
    """Convenience constructor coercing ints and strings to exact rationals."""
    return Point(to_fraction(x), to_fraction(y))


def polygon_area(vertices: Sequence[Point]) -> Fraction:
    """Signed shoelace area, positive for counterclockwise order, exact."""
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
    ab, bc, cd, da = _edge(a, b), _edge(b, c), _edge(c, d), _edge(d, a)
    return all(_cross(e, f)[0] > 0 for e, f in ((ab, bc), (bc, cd), (cd, da), (da, ab)))


class ConvexQuad(_Frozen):
    """A strictly convex quadrilateral with counterclockwise vertex order."""

    a: Point
    b: Point
    c: Point
    d: Point

    def __post_init__(self):
        if not is_convex_ccw(self.a, self.b, self.c, self.d):
            raise InvalidInputError(
                "vertices are not a strictly convex counterclockwise quadrilateral"
            )

    @classmethod
    def of(cls, a: Point, b: Point, c: Point, d: Point) -> "ConvexQuad":
        """Build a quad, reflecting clockwise input by swapping B and D."""
        if is_convex_ccw(a, b, c, d):
            return cls(a, b, c, d)
        if is_convex_ccw(a, d, c, b):
            return cls(a, d, c, b)
        raise InvalidInputError("vertices do not form a strictly convex quadrilateral")

    @classmethod
    def parse(cls, text: str) -> "ConvexQuad":
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


def subdivide(q: ConvexQuad, spec: DivisionSpec) -> DivisionPoints:
    """Division points at the prescribed consecutive ratios, exact: start + s*(end - start)/total
    over the spec's memoized partial sums s.  Each (end - start)/total is normalised once per side
    and coordinate; a coordinate fixed along a side (one per side of every apex quad and trapezoid)
    is one shared Fraction, and one that starts at 0 (both sides of a witness's trapezoid) is s*step."""

    def coordinate(start: Fraction, end: Fraction, sums) -> Sequence[Fraction]:
        if start == end:
            return (start,) * len(sums)
        step = (end - start) / sums[-1]
        if start == 0:
            return [s * step for s in sums]
        return [start + s * step for s in sums]

    def side(start: Point, end: Point, sums) -> tuple[Point, ...]:
        return tuple(map(Point, coordinate(start.x, end.x, sums), coordinate(start.y, end.y, sums)))

    ab, dc = _side_sums(spec)
    return DivisionPoints(side(q.a, q.b, ab), side(q.d, q.c, dc))


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
    """
    s, t = _integer_side_sums(spec)
    u, w, e = _edge(q.a, q.b), _edge(q.d, q.c), _edge(q.a, q.d)
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
    is not a valid convex quadrilateral (guards corrupted data).
    """
    u = q.b - q.a
    w = q.c - q.d
    denom = u.cross(w)
    if denom == 0:
        return ParallelMarker()
    diff = q.d - q.a
    t = diff.cross(w) / denom  # parameter along AB: A at 0, B at 1
    r = diff.cross(u) / denom  # parameter along DC: D at 0, C at 1
    if 0 <= t <= 1 or 0 <= r <= 1:
        raise InconsistentQuadError("side lines meet inside a divided segment")
    apex = q.a + t * u
    total_ab, total_dc = (sums[-1] for sums in _side_sums(spec))
    # twice the apex triangle's area, scale*p0*p0_prime, is t*r*denom (q1) or -(t-1)*(r-1)*denom (q2)
    if t < 0:
        # apex beyond A, hence also beyond D on the other side
        invariant(r < 0, "an apex beyond A on line AB lies beyond D on line DC")
        p0 = -t * total_ab
        p0_prime = -r * total_dc
        scale = denom / (2 * total_ab * total_dc)
        branch = "q1"
    else:
        invariant(r > 1, "an apex beyond B on line AB lies beyond C on line DC")
        p0 = (t - 1) * total_ab
        p0_prime = (r - 1) * total_dc
        scale = -denom / (2 * total_ab * total_dc)
        branch = "q2"
    invariant(scale > 0, "the apex triangle has positive area")
    return ApexFrame(apex, branch, p0, p0_prime, scale)
