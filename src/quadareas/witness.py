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

from .cone import classify, frame, integer_rows
from .division import DivisionSpec, fraction_tuple
from .errors import InvalidInputError, NotAttainableError, invariant
from .geometry import ApexFrame, ConvexQuad, DivisionPoints, Point, pt, subdivide
from .linalg import solve2
from .membership import Certificate, Interval, Mode, member, _arms


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
    total_ab = sum(spec.p)
    total_dc = sum(spec.p_prime)
    if branch == "q1":
        return ConvexQuad(
            pt(2 * p0, 0),
            pt(2 * (p0 + total_ab), 0),
            Point(Fraction(0), scale * (p0_prime + total_dc)),
            Point(Fraction(0), scale * p0_prime),
        )
    # the q1 quad of the reversed spec with its axes swapped
    return ConvexQuad(
        Point(Fraction(0), 2 * (p0 + total_ab)),
        Point(Fraction(0), 2 * p0),
        pt(scale * p0_prime, 0),
        pt(scale * (p0_prime + total_dc), 0),
    )


def _trapezoid(spec: DivisionSpec, a: Fraction, b: Fraction) -> ConvexQuad:
    """Height-one trapezoid with side scalings 2a and 2b; strips a*ab_i + b*dc_i."""
    return ConvexQuad(
        pt(0, 0),
        Point(2 * a * sum(spec.p), Fraction(0)),
        Point(2 * b * sum(spec.p_prime), Fraction(1)),
        pt(0, 1),
    )


def _face_solution(spec: DivisionSpec, x: tuple[Fraction, ...], coeffs: tuple[Fraction, Fraction]):
    """(a, b) with x = a*ab + b*dc, or None, for x = coeffs[0]*head + coeffs[1]*tail on a planar spec.

    Skew ratio vectors span the certificate's plane, so the solve at the first
    two rows is exact at every coordinate; proportional ones span only the
    line of ab + dc, which holds x exactly when the two coefficients agree.
    """
    rows = integer_rows(spec)[0]
    if classify(spec).proportional:
        if coeffs[0] != coeffs[1]:
            return None
        p0, q0, _, l0 = rows[0]
        t = l0 * x[0] / (p0 + q0)
        return t, t
    # a planar spec whose first two ratio pairs are proportional is proportional throughout
    sol = solve2([rows[0][:2], rows[1][:2]], [rows[0][3] * x[0], rows[1][3] * x[1]])
    invariant(sol is not None, "the independent ratio pair gives a regular face system")
    return sol


def _apex_parameters(spec: DivisionSpec, x: tuple[Fraction, ...], interval: Interval, arm: int):
    """Resolve a planar re-decomposition at the canonical interior coefficient.

    arm 0 is the head (q1), arm 1 the tail (q2); the residual x - c*arm is
    solved on the ratio vectors at the spec's first two integer rows.
    """
    rows, total_ab, total_dc = integer_rows(spec)
    c = interval.lo if interval.is_point else interval.midpoint
    # L_i*(x_i - c*arm_i) at the first two rows
    residual = [rows[i][3] * x[i] - c * _arms(rows, total_ab, total_dc, i)[arm] for i in (0, 1)]
    if classify(spec).proportional:
        # split the residual evenly between the proportional ratio vectors: a*P_0 = b*Q_0
        (p0, q0), r = rows[0][:2], residual[0]
        a, b = r / (2 * p0), r / (2 * q0)
    else:
        # a planar spec whose first two ratio pairs are proportional is proportional throughout
        sol = solve2([rows[0][:2], rows[1][:2]], residual)
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
        face = _face_solution(spec, x, cert.coeffs)
        if face is not None and face[0] > 0 and face[1] > 0:
            quad = _trapezoid(spec, *face)
            construction = "trapezoid-l0" if face[0] == face[1] else "trapezoid"
        else:
            # arm 0 is the head (q1), arm 1 the tail (q2)
            arm = 0 if cert.q1_interval is not None else 1
            branch, interval = ("q1", "q2")[arm], (cert.q1_interval, cert.q2_interval)[arm]
            invariant(interval is not None, "an attainable planar tuple admits a realization")
            a, b, c = _apex_parameters(spec, x, interval, arm)
            quad = apex_quad(spec, b / c, a / c, c, branch)
            construction = f"apex-{branch}"

    return WitnessOutput(quad, subdivide(quad, spec), cert, construction)
