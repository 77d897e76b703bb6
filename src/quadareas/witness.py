"""Constructs explicit convex quadrilaterals realizing attainable area tuples.

The canonical apex construction puts the apex at the origin, the divided side
AB on the positive x axis at twice the ratio scale, and DC on the positive y
axis scaled by the area unit; it is convex for every choice of positive
parameters and reproduces the requested areas exactly.  Parallel-face tuples
get a height-one trapezoid instead.  Every quad is built from a q1, q2, face
or ray certificate: a planar (degenerate) certificate is first re-decomposed
by ``membership._realization``, so no decision logic is repeated here.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .cone import frame
from .division import DivisionSpec, _Frozen, _check_spec, _side_sums, to_fraction
from .errors import InvalidInputError, NotAttainableError
from .geometry import _SHORT_BITS, ApexFrame, ConvexQuad, DivisionPoints, Point, subdivide
from .membership import Certificate, Mode, _check_mode, _realization, member

_ZERO, _ONE = Fraction(0), Fraction(1)  # shared by every corner on an axis or on the trapezoid's top


class WitnessOutput(_Frozen):
    """A convex quad realizing a tuple, its division points and the certificate it was built from."""

    quad: ConvexQuad
    division: DivisionPoints
    certificate: Certificate
    construction: str  # apex-q1 | apex-q2 | trapezoid | trapezoid-l0


def apex_areas(frame_data: ApexFrame, spec: DivisionSpec) -> tuple[Fraction, ...]:
    """Strip areas of an apex-parameterized quad, in closed form.

    branch q1: scale * (p0*dc_i + p0'*ab_i + head_i)
    branch q2: scale * (p0*dc_i + p0'*ab_i + tail_i)
    """
    _check_spec("apex_areas", spec)
    if not isinstance(frame_data, ApexFrame):
        raise InvalidInputError(f"apex_areas takes an ApexFrame, got {type(frame_data).__name__}")
    fr = frame(spec)
    arm = fr.head if frame_data.branch == "q1" else fr.tail
    return tuple(
        frame_data.scale * (frame_data.p0 * d + frame_data.p0_prime * a + s)
        for a, d, s in zip(fr.ab, fr.dc, arm)
    )


def _short(*dens: int) -> bool:
    """True when the denominators have fewer than ``_SHORT_BITS`` bits in all: the builders then
    compute each vertex coordinate as one int pair, one Fraction each; longer operands (every
    big-digit witness) keep the Fraction arithmetic, whose gcds run on smaller ints."""
    return sum(map(int.bit_length, dens)) < _SHORT_BITS


def apex_quad(
    spec: DivisionSpec,
    p0: Fraction,
    p0_prime: Fraction,
    scale: Fraction,
    branch: str = "q1",
) -> ConvexQuad:
    """Canonical apex quad for the given parameters; convex for all positive inputs.

    Its corners lie at 2*p0 and 2*(p0 + S) on one axis and at scale*p0' and
    scale*(p0' + T) on the other, S and T the side totals; with short
    denominators (``_short``) each is one Fraction of ints."""
    _check_spec("apex_quad", spec)
    if branch not in ("q1", "q2"):
        raise InvalidInputError("branch must be 'q1' or 'q2'")
    p0, p0_prime, scale = to_fraction(p0), to_fraction(p0_prime), to_fraction(scale)
    (pn, pd), (qn, qd), (cn, cd) = p0.as_integer_ratio(), p0_prime.as_integer_ratio(), scale.as_integer_ratio()
    if pn <= 0 or qn <= 0 or cn <= 0:  # a Fraction's denominator is positive
        raise InvalidInputError("apex parameters must be strictly positive")
    total_ab, total_dc = (sums[-1] for sums in _side_sums(spec))
    (sn, sd), (tn, td) = total_ab.as_integer_ratio(), total_dc.as_integer_ratio()
    if _short(pd, qd, cd, sd, td):
        near_ab, far_ab = Fraction(2 * pn, pd), Fraction(2 * (pn * sd + sn * pd), pd * sd)
        near_dc, far_dc = Fraction(cn * qn, cd * qd), Fraction(cn * (qn * td + tn * qd), cd * qd * td)
    else:
        near_ab, far_ab = 2 * p0, 2 * (p0 + total_ab)
        near_dc, far_dc = scale * p0_prime, scale * (p0_prime + total_dc)
    if branch == "q1":
        return ConvexQuad(Point(near_ab, _ZERO), Point(far_ab, _ZERO), Point(_ZERO, far_dc), Point(_ZERO, near_dc))
    # the q1 quad of the reversed spec with its axes swapped
    return ConvexQuad(Point(_ZERO, far_ab), Point(_ZERO, near_ab), Point(near_dc, _ZERO), Point(far_dc, _ZERO))


def _trapezoid(spec: DivisionSpec, mu: Fraction, mu_prime: Fraction, offset: Fraction = _ZERO) -> ConvexQuad:
    """Height-one trapezoid with side scalings mu and mu', its top side shifted by offset;
    strips (mu*ab_i + mu'*dc_i)/2.  Its corners off the axes' origin lie at mu*S and
    offset + mu'*T, S and T the side totals; with short denominators (``_short``) each is one
    Fraction of ints."""
    total_ab, total_dc = (sums[-1] for sums in _side_sums(spec))
    (mn, md), (qn, qd), (on, od) = mu.as_integer_ratio(), mu_prime.as_integer_ratio(), offset.as_integer_ratio()
    (sn, sd), (tn, td) = total_ab.as_integer_ratio(), total_dc.as_integer_ratio()
    if _short(md, qd, od, sd, td):
        b, c = Fraction(mn * sn, md * sd), Fraction(on * qd * td + qn * tn * od, od * qd * td)
    else:
        b, c = mu * total_ab, offset + mu_prime * total_dc
    return ConvexQuad(Point(_ZERO, _ZERO), Point(b, _ZERO), Point(c, _ONE), Point(offset, _ONE))


def synthesize_witness(
    spec: DivisionSpec, x: Sequence[Fraction], mode: Mode = "audited"
) -> WitnessOutput:
    """Build a quad (with its division points) whose strip areas equal x exactly.

    Refuses with NotAttainableError when membership rejects, echoing the
    rejection reason.
    """
    _check_mode(mode)
    _check_spec("synthesize_witness", spec)
    verdict = member(spec, x, mode)
    if not verdict.attainable:
        raise NotAttainableError(verdict.reason)
    cert = verdict.certificate
    realized = _realization(spec, cert) if cert.branch == "degenerate" else cert

    if realized.branch in ("q1", "q2"):
        a, b, c = realized.coeffs
        quad = apex_quad(spec, b / c, a / c, c, realized.branch)
        construction = f"apex-{realized.branch}"
    elif realized.branch == "face":
        a, b = realized.coeffs
        quad = _trapezoid(spec, 2 * a, 2 * b)
        construction = "trapezoid"
    else:
        mu = 2 * realized.coeffs[0]
        quad = _trapezoid(spec, mu, mu)
        construction = "trapezoid-l0"

    return WitnessOutput(quad, subdivide(quad, spec), cert, construction)
