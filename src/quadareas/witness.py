"""Constructs explicit convex quadrilaterals realizing attainable area tuples.

The canonical apex construction puts the apex at the origin, the divided side
AB on the positive x axis at twice the ratio scale, and DC on the positive y
axis scaled by the area unit; it is convex for every choice of positive
parameters and reproduces the requested areas exactly.  Parallel-face tuples
get a height-one trapezoid instead.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .cone import ConeFrame, classify, frame, integer_rows
from .division import DivisionSpec, fraction_tuple
from .errors import InvalidInputError, NotAttainableError, invariant
from .geometry import ApexFrame, ConvexQuad, DivisionPoints, Point, pt, subdivide
from .linalg import solve2
from .membership import Certificate, Interval, Mode, member, _face_solution


@dataclass(frozen=True)
class WitnessOutput:
    quad: ConvexQuad
    division: DivisionPoints
    certificate: Certificate
    construction: str  # apex-q1 | apex-q2 | trapezoid | trapezoid-l0


def apex_areas(frame_data: ApexFrame, spec: DivisionSpec) -> tuple[Fraction, ...]:
    """Strip areas of an apex-parameterized quad, in closed form.

    branch q1: scale * (p0*dc_i + p0'*ab_i + head_i)
    branch q2: scale * (p0*dc_i + p0'*ab_i + tail_i)
    """
    fr = frame(spec)
    arm = fr.head if frame_data.branch == "q1" else fr.tail
    return tuple(
        frame_data.scale * (frame_data.p0 * d + frame_data.p0_prime * a + s)
        for a, d, s in zip(fr.ab, fr.dc, arm)
    )


def apex_quad(
    spec: DivisionSpec,
    p0: Fraction,
    p0_prime: Fraction,
    scale: Fraction,
    branch: str = "q1",
) -> ConvexQuad:
    """Canonical apex quad for the given parameters; convex for all positive inputs."""
    if branch not in ("q1", "q2"):
        raise InvalidInputError("branch must be 'q1' or 'q2'")
    if p0 <= 0 or p0_prime <= 0 or scale <= 0:
        raise InvalidInputError("apex parameters must be strictly positive")
    if branch == "q1":
        total_ab = sum(spec.p)
        total_dc = sum(spec.p_prime)
        a = pt(2 * p0, 0)
        b = pt(2 * (p0 + total_ab), 0)
        c = Point(Fraction(0), scale * (p0_prime + total_dc))
        d = Point(Fraction(0), scale * p0_prime)
        return ConvexQuad(a, b, c, d)
    base = apex_quad(spec.reversed(), p0, p0_prime, scale, "q1")

    def swap(v: Point) -> Point:
        return Point(v.y, v.x)

    return ConvexQuad(swap(base.b), swap(base.a), swap(base.d), swap(base.c))


def _trapezoid(spec: DivisionSpec, a: Fraction, b: Fraction) -> ConvexQuad:
    """Height-one trapezoid with side scalings 2a and 2b; strips a*ab_i + b*dc_i."""
    return ConvexQuad(
        pt(0, 0),
        Point(2 * a * sum(spec.p), Fraction(0)),
        Point(2 * b * sum(spec.p_prime), Fraction(1)),
        pt(0, 1),
    )


def _split_face_coefficient(fr: ConeFrame, g: Fraction) -> tuple[Fraction, Fraction]:
    """Split g into A + (dc1/ab1)*B with A, B > 0 for proportional ratio vectors."""
    lam = fr.dc[0] / fr.ab[0]
    return g / 2, g / (2 * lam)


def _apex_parameters(fr: ConeFrame, x, interval: Interval, arm: str, proportional: bool):
    """Resolve a planar re-decomposition at the canonical interior coefficient."""
    c = interval.lo if interval.is_point else interval.midpoint
    arm_vec = fr.head if arm == "head" else fr.tail
    residual = tuple(xi - c * w for xi, w in zip(x, arm_vec))
    if proportional:
        g = residual[0] / fr.ab[0]
        a, b = _split_face_coefficient(fr, g)
    else:
        # a planar spec whose first two ratio pairs are proportional is proportional throughout
        sol = solve2([[fr.ab[0], fr.dc[0]], [fr.ab[1], fr.dc[1]]], [residual[0], residual[1]])
        invariant(sol is not None, "the independent ratio pair gives a regular face system")
        a, b = sol
    invariant(a > 0 and b > 0 and c > 0, "the canonical re-decomposition is strictly positive")
    return a, b, c


def synthesize_witness(
    spec: DivisionSpec, x: Sequence[Fraction], mode: Mode = "audited"
) -> WitnessOutput:
    """Build a quad (with its division points) whose strip areas equal x exactly.

    Refuses with NotAttainableError when membership rejects, echoing the
    rejection reason.
    """
    verdict = member(spec, x, mode)
    if not verdict.attainable:
        raise NotAttainableError(verdict.reason)
    cert = verdict.certificate
    x = fraction_tuple(x)

    if cert.branch in ("q1", "q2"):
        a, b, c = cert.coeffs
        quad = apex_quad(spec, b / c, a / c, c, cert.branch)
        construction = f"apex-{cert.branch}"
    elif cert.branch == "face":
        a, b = cert.coeffs
        quad = _trapezoid(spec, a, b)
        construction = "trapezoid"
    elif cert.branch == "ray":
        t = cert.coeffs[0]
        quad = _trapezoid(spec, t, t)
        construction = "trapezoid-l0"
    else:
        fr = frame(spec)
        proportional = classify(spec).proportional
        face = _face_solution(integer_rows(spec)[0], x, proportional)
        if face is not None and face[0] > 0 and face[1] > 0:
            quad = _trapezoid(spec, *face)
            construction = "trapezoid-l0" if face[0] == face[1] else "trapezoid"
        elif cert.q1_interval is not None:
            a, b, c = _apex_parameters(fr, x, cert.q1_interval, "head", proportional)
            quad = apex_quad(spec, b / c, a / c, c, "q1")
            construction = "apex-q1"
        else:
            invariant(cert.q2_interval is not None, "an attainable planar tuple admits a realization")
            a, b, c = _apex_parameters(fr, x, cert.q2_interval, "tail", proportional)
            quad = apex_quad(spec, b / c, a / c, c, "q2")
            construction = "apex-q2"

    return WitnessOutput(quad, subdivide(quad, spec), cert, construction)
