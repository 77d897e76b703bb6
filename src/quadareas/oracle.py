"""Randomized geometric validation of the algebraic membership predicates.

Quads are generated by construction (apex and trapezoid families plus random
affine images), so convexity and exact rational strip areas are guaranteed and
both apex branches get covered.  Reports are deterministic functions of
(spec, mode, seed, count): each sample index derives its own draw stream, so
generation could be partitioned across workers without changing the output.
``_audit`` is the one loop: it gives each index its stream, runs the family's
check on it and collects the violations into the report.

Draw stream contract (reproducible across implementations):

* 64-bit linear congruential generator: state' = (M*state + I) mod 2**64 with
  M = 6364136223846793005 and I = 1442695040888963407;
* sample index i starts from state = (seed + (i+1)*0x9E3779B97F4A7C15) mod 2**64;
* each draw advances the state once and uses value = (state >> 40) % n;
* grid draws map value onto {1/8, 2/8, ..., 64/8}; signed grid draws map onto
  {-64/8, ..., -1/8, 1/8, ..., 64/8}.

The draw values are those of the contract, and no draw builds a Fraction.  The
samplers read a draw that enters an int formula (an affine map, a cross tuple)
as its numerator over 8 (``_Stream.eighths`` and ``signed_eighths``), and a
draw handed to a builder (``apex_quad``, ``_trapezoid``) as its Fraction from
one module tuple of the grid values (``grid`` and ``signed_grid``), whose ints
the builder reads; so each quad is built with one Fraction per corner
coordinate.

Per sample index i, each family draws in this order:

* quads (``sample_convex_quads``): grid p0, p0', scale of the apex quad (branch q1
  when i % 3 == 0, q2 when i % 3 == 1, and when i % 3 == 2 q1 or q2 as (i // 3) % 2
  is 0 or 1); when i % 3 == 2, then the affine map on that quad: four grid entries,
  drawn again until their determinant is positive, and two signed grid translations;
* parallel (``sample_parallel_family``): grid mu, mu', then the signed grid offset of
  the trapezoid's top side;
* cross (``cross_validate``): grid a, b, c of x = a*ab + b*dc + c*arm (arm tail when
  i % 5 == 1, else head; c = 0 when i % 5 == 3, b = a and c = 0 when i % 5 == 4); when
  i % 5 == 2, then the index (a draw with n = len(x)) and the grid bump added there.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional

from .cone import _discriminant, _factored
from .division import DivisionSpec, _Frozen, _check_spec
from .errors import DegenerateCollapseError, InvalidInputError
from .geometry import ApexFrame, ConvexQuad, ParallelMarker, Point, _vertex, apex_of, strip_areas
from .membership import Mode, Verdict, _check_mode, member
from .reduction import member_via_collapse
from .witness import _trapezoid, apex_quad

_MULT = 6364136223846793005
_INC = 1442695040888963407
_MIX = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1
# the signed grid values -64/8, ..., -1/8, 1/8, ..., 64/8, built once: a signed grid draw v reads
# _GRID[v], a grid draw v reads _GRID[64 + v]
_GRID = tuple(Fraction(k, 8) for k in (*range(-64, 0), *range(1, 65)))


class _Stream:
    def __init__(self, seed: int, index: int):
        self.state = (seed + (index + 1) * _MIX) & _MASK

    def next_value(self, n: int) -> int:
        self.state = (_MULT * self.state + _INC) & _MASK
        return (self.state >> 40) % n

    def eighths(self) -> int:
        """A grid draw in eighths: one of 1, ..., 64."""
        return self.next_value(64) + 1

    def signed_eighths(self) -> int:
        """A signed grid draw in eighths: one of -64, ..., -1, 1, ..., 64."""
        k = self.next_value(128) - 64
        return k + 1 if k >= 0 else k

    def grid(self) -> Fraction:
        return _GRID[64 + self.next_value(64)]

    def signed_grid(self) -> Fraction:
        return _GRID[self.next_value(128)]


class Violation(_Frozen):
    """A sampled tuple that failed its cross-check: the quad it came from (if any) and why."""

    quad: Optional[ConvexQuad]
    x: tuple[Fraction, ...]
    reason: str


class SampleReport(_Frozen):
    """One seeded sampling run: how many tuples were drawn and accepted, and every violation."""

    spec: DivisionSpec
    mode: str
    total: int
    accepted: int
    violations: tuple[Violation, ...]
    seed: int

    def to_jsonable(self) -> dict:
        return {
            "p": [str(v) for v in self.spec.p],
            "pp": [str(v) for v in self.spec.p_prime],
            "mode": self.mode,
            "total": self.total,
            "accepted": self.accepted,
            "seed": self.seed,
            "violations": [
                {
                    "quad": v.quad.text() if v.quad is not None else None,
                    "x": [str(e) for e in v.x],
                    "reason": v.reason,
                }
                for v in self.violations
            ],
        }


def _affine_image(stream: _Stream, quad: ConvexQuad) -> ConvexQuad:
    """The quad under x -> M x + t, M and t drawn in eighths: each image coordinate
    m1*x + m2*y + t, with x = xn/xd and y = yn/yd, is one Fraction over 8*xd*yd."""
    while True:
        k11, k12, k21, k22 = (stream.eighths() for _ in range(4))
        if k11 * k22 - k12 * k21 > 0:
            break
    kx, ky = stream.signed_eighths(), stream.signed_eighths()

    def image(p: Point) -> Point:
        xn, xd, yn, yd = _vertex(p)
        xs, ys, den = xn * yd, yn * xd, xd * yd
        return Point(
            Fraction(k11 * xs + k12 * ys + kx * den, 8 * den), Fraction(k21 * xs + k22 * ys + ky * den, 8 * den)
        )

    return ConvexQuad(*(image(v) for v in quad.vertices))


def _certificate_matches(verdict: Verdict, geo: ApexFrame) -> Optional[str]:
    """None when the certificate agrees with the geometric apex data, else a reason.  The
    coefficients must be scale*p0', scale*p0 and scale, each compared by cross-multiplication."""
    cert = verdict.certificate
    if cert.branch != "degenerate":  # every attainable planar verdict is degenerate
        if cert.branch != geo.branch:
            return f"branch {cert.branch} != geometric {geo.branch}"
        sn, sd = geo.scale.numerator, geo.scale.denominator
        if any(c.numerator * sd * f.denominator != sn * f.numerator * c.denominator
               for c, f in zip(cert.coeffs, (geo.p0_prime, geo.p0, 1))):
            return "certificate coefficients differ from the apex parameters"
        return None
    interval = cert.q1_interval if geo.branch == "q1" else cert.q2_interval
    if interval is None or not interval.contains(geo.scale):
        return "geometric area unit outside the certified re-decomposition range"
    return None


def _audit(
    spec: DivisionSpec, mode: str, count: int, seed: int, check: Callable[[_Stream, int], Optional[Violation]]
) -> SampleReport:
    """The report of ``check(stream, index)`` over sample indexes 0..count-1, each on its own
    draw stream; every ``Violation`` the check returns is kept, None counts as accepted."""
    for name, value in (("count", count), ("seed", seed)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    if count < 1:
        raise InvalidInputError("count must be at least 1")
    found = (check(_Stream(seed, index), index) for index in range(count))
    violations = tuple(v for v in found if v is not None)
    return SampleReport(spec, mode, count, count - len(violations), violations, seed)


def sample_convex_quads(spec: DivisionSpec, count: int, seed: int) -> SampleReport:
    """Generate quads (apex q1, apex q2, affine images in rotation) and audit them.

    Every geometric sample must be accepted in audited mode with a certificate
    matching the apex data; failures are recorded as violations, never raised.
    """
    _check_spec("sample_convex_quads", spec)

    def check(stream: _Stream, index: int) -> Optional[Violation]:
        slot = index % 3
        branch = "q2" if slot == 1 or (slot == 2 and index // 3 % 2) else "q1"
        quad = apex_quad(spec, stream.grid(), stream.grid(), stream.grid(), branch)  # p0, p0', scale
        if slot == 2:
            quad = _affine_image(stream, quad)
        x = strip_areas(quad, spec)
        verdict = member(spec, x, "audited")
        if not verdict.attainable:
            return Violation(quad, x, f"rejected: {verdict.reason}")
        geo = apex_of(quad, spec)
        if isinstance(geo, ParallelMarker):
            return Violation(quad, x, "apex construction came out parallel")
        mismatch = _certificate_matches(verdict, geo)
        return None if mismatch is None else Violation(quad, x, mismatch)

    return _audit(spec, "audited", count, seed, check)


def sample_parallel_family(
    spec: DivisionSpec, count: int, seed: int, mode: Mode = "audited"
) -> SampleReport:
    """Trapezoids with independent side scalings, checked under the given mode.

    Audited mode must accept every sample; strict mode records each rejected
    sample (unequal scalings on a spatial spec) as a data point.
    """
    _check_mode(mode)
    _check_spec("sample_parallel_family", spec)

    def check(stream: _Stream, index: int) -> Optional[Violation]:
        quad = _trapezoid(spec, stream.grid(), stream.grid(), stream.signed_grid())  # mu, mu', offset
        x = strip_areas(quad, spec)
        verdict = member(spec, x, mode)
        if not verdict.attainable:
            return Violation(quad, x, f"rejected: {verdict.reason}")
        if not isinstance(apex_of(quad, spec), ParallelMarker):
            return Violation(quad, x, "trapezoid construction not parallel")
        return None

    return _audit(spec, mode, count, seed, check)


def cross_validate(spec: DivisionSpec, count: int, seed: int) -> SampleReport:
    """Compare the direct decision with the fold-based one on random tuples.

    Draws positive combinations hitting every branch plus off-span
    perturbations, and requires identical verdicts (attainability, branch,
    coefficients, reason) at every usable pivot, an index whose discriminant's
    int numerator is nonzero (``cone._discriminant``).  Pivots whose folds are both
    planar cannot decide and are skipped rather than counted as disagreement.
    x is read from the spec's factored integer rows (P, Q, H, L), ab = P/L,
    dc = Q/L and head = H/L, with a, b and c in eighths: each coordinate is one
    Fraction (a*P + b*Q + c*H)/(8*L).  The tail arm is read through the identity
    head + tail = total_dc*ab + total_ab*dc (``membership._coefficient_verdict``):
    with the record's int pairs total_ab = (tan, tad), total_dc = (tdn, tdd) and
    s = tad*tdd, its coordinate is ((a*s + c*tdn*tad)*P + (b*s + c*tan*tdd)*Q - c*s*H)/(8*s*L).
    """
    _check_spec("cross_validate", spec)
    f = _factored(spec)
    if f.pivot is None or spec.n < 4:
        raise InvalidInputError("cross validation applies to spatial specs of length >= 4")
    rows, (tan, tad), (tdn, tdd) = f.rows, f.total_ab, f.total_dc
    pivots = [j + 1 for j in range(1, spec.n - 1) if _discriminant(spec.p, spec.p_prime, j)[0] != 0]

    def check(stream: _Stream, index: int) -> Optional[Violation]:
        a, b, c = stream.eighths(), stream.eighths(), stream.eighths()
        kind = index % 5
        if kind == 3:
            c = 0
        elif kind == 4:
            b, c = a, 0
        s = 1
        if kind == 1:  # the tail arm, over s = tad*tdd
            s = tad * tdd
            a, b, c = a * s + c * tdn * tad, b * s + c * tan * tdd, -c * s
        x = tuple(Fraction(a * p + b * q + c * h, 8 * s * den) for p, q, h, den in rows)
        if kind == 2:
            i = stream.next_value(spec.n)
            x = (*x[:i], x[i] + stream.grid(), *x[i + 1:])
        direct = member(spec, x, "audited")
        for pivot in pivots:
            try:
                folded = member_via_collapse(spec, x, pivot, "audited")
            except DegenerateCollapseError:
                continue
            if (
                folded.attainable != direct.attainable
                or folded.reason != direct.reason
                or (direct.attainable and folded.certificate != direct.certificate)
            ):
                return Violation(None, x, f"fold at pivot {pivot} disagrees")
        return None

    return _audit(spec, "audited", count, seed, check)
