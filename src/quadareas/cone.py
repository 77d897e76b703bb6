"""Algebraic description of the attainable area tuples for a division spec.

The attainable set is a union of positive hulls of five vectors derived from
the ratio tuples: the two ratio vectors themselves (spanning the face reached
by parallel-sided quads), the head-cumulant vector (third edge of the branch
where the apex lies beyond A) and the tail-cumulant vector (apex beyond B).
A chain of discriminants decides whether that set is three-dimensional or
collapses into a plane.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import wraps
from math import gcd, lcm
from typing import Sequence

from .division import DivisionSpec, fraction_tuple, to_fraction
from .errors import InvalidInputError, NoValidContinuationError
from .linalg import inverse3


@dataclass(frozen=True)
class ConeFrame:
    """The frame vectors spanning the attainable set.

    ``ab`` and ``dc`` are the ratio tuples; ``head`` and ``tail`` are the
    cumulant vectors.  head[i] sums the bilinear interactions of segment i
    with everything before it, tail[i] with everything after it (both sides
    included, the self term counted once).
    """

    ab: tuple[Fraction, ...]
    dc: tuple[Fraction, ...]
    head: tuple[Fraction, ...]
    tail: tuple[Fraction, ...]

    @property
    def n(self) -> int:
        return len(self.ab)

    @property
    def parallel(self) -> tuple[Fraction, ...]:
        """Direction of the equal-scaling parallel ray: ab + dc componentwise."""
        return tuple(a + d for a, d in zip(self.ab, self.dc))


@dataclass(frozen=True)
class CaseLabel:
    """Shape of the attainable set: spatial (two trihedral angles) or planar."""

    spatial: bool
    pivot: int | None = None          # smallest 1-based index with nonzero discriminant
    proportional: bool | None = None  # for the planar case

    @property
    def kind(self) -> str:
        if self.spatial:
            return "spatial"
        return "planar-proportional" if self.proportional else "planar-skew"


def cumulants(
    p: Sequence[Fraction],
    p_prime: Sequence[Fraction],
    tail_p: Fraction = Fraction(0),
    tail_p_prime: Fraction = Fraction(0),
) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Head and tail cumulants of a ratio pair, with optional exact tail sums.

    head[i] = -p[i]*p'[i] + p[i]*sum(p'[:i+1]) + p'[i]*sum(p[:i+1])
    tail[i] = -p[i]*p'[i] + p[i]*(sum(p'[i:]) + tail_p') + p'[i]*(sum(p[i:]) + tail_p)
    """
    n = len(p)
    head = []
    acc_p, acc_q = Fraction(0), Fraction(0)
    for i in range(n):
        acc_p += p[i]
        acc_q += p_prime[i]
        head.append(-p[i] * p_prime[i] + p[i] * acc_q + p_prime[i] * acc_p)
    tail = [Fraction(0)] * n
    acc_p, acc_q = tail_p, tail_p_prime
    for i in range(n - 1, -1, -1):
        acc_p += p[i]
        acc_q += p_prime[i]
        tail[i] = -p[i] * p_prime[i] + p[i] * acc_q + p_prime[i] * acc_p
    return tuple(head), tuple(tail)


def discriminants(spec: DivisionSpec) -> tuple[Fraction, ...]:
    """The discriminant chain, one value per interior index (empty for n = 2)."""
    p, q = spec.p, spec.p_prime
    out = []
    for j in range(1, spec.n - 1):
        out.append(
            (p[j - 1] + p[j] + p[j + 1]) * q[j - 1] * q[j + 1] * p[j]
            - (q[j - 1] + q[j] + q[j + 1]) * p[j - 1] * p[j + 1] * q[j]
        )
    return tuple(out)


def _memoized_on_spec(fn):
    """Keep fn(spec) in the frozen spec's own dict, beside the fields eq, hash and repr read."""
    key = f"_{fn.__name__}"

    @wraps(fn)
    def memoized(spec: DivisionSpec):
        if key not in spec.__dict__:
            spec.__dict__[key] = fn(spec)
        return spec.__dict__[key]

    return memoized


@_memoized_on_spec
def frame(spec: DivisionSpec) -> ConeFrame:
    head, tail = cumulants(spec.p, spec.p_prime)
    return ConeFrame(spec.p, spec.p_prime, head, tail)


@_memoized_on_spec
def classify(spec: DivisionSpec) -> CaseLabel:
    """Spatial with the smallest usable pivot, else planar with a proportionality flag."""
    for idx, value in enumerate(discriminants(spec)):
        if value != 0:
            return CaseLabel(spatial=True, pivot=idx + 2)
    return CaseLabel(spatial=False, proportional=spec.proportional())


def _normalize_plane(coeffs: Sequence[Fraction]) -> tuple[int, ...]:
    """Clear denominators and divide by the gcd; the construction's sign is kept."""
    mult = lcm(*(c.denominator for c in coeffs)) if coeffs else 1
    ints = [int(c * mult) for c in coeffs]
    g = gcd(*(abs(v) for v in ints))
    if g > 1:
        ints = [v // g for v in ints]
    return tuple(ints)


def hyperplanes(spec: DivisionSpec) -> tuple[tuple[int, ...], ...]:
    """Linearly independent hyperplanes cutting out the span of the attainable set.

    Spatial case: n-3 planes, one per coordinate away from the pivot triple,
    each supported on that coordinate plus the pivot triple, built by solving
    the 3x3 system that makes the plane contain both ratio vectors and the
    head-cumulant vector.  Planar case: n-2 planes supported on consecutive
    coordinate triples.
    """
    n = spec.n
    if n < 3:
        raise InvalidInputError("hyperplanes need at least three segments")
    label = classify(spec)
    p, q = spec.p, spec.p_prime
    planes: list[tuple[int, ...]] = []
    if label.spatial:
        k = label.pivot
        fr = frame(spec)
        cols = (k - 2, k - 1, k)  # 0-based pivot triple
        rows = [
            [p[c] for c in cols],
            [q[c] for c in cols],
            [fr.head[c] for c in cols],
        ]
        inv = inverse3(rows)
        assert inv is not None, "pivot system is singular despite nonzero discriminant"
        for i in range(n):
            if i in cols:
                continue
            coeffs = [Fraction(0)] * n
            coeffs[i] = Fraction(1)
            # the pivot coefficients solve rows @ y = -(p[i], q[i], head[i])
            for c, row in zip(cols, inv):
                coeffs[c] = -(row[0] * p[i] + row[1] * q[i] + row[2] * fr.head[i])
            planes.append(_normalize_plane(coeffs))
    else:
        for j in range(1, n - 1):
            coeffs = [Fraction(0)] * n
            if label.proportional:
                coeffs[j - 1] = (p[j + 1] + p[j]) / p[j - 1]
                coeffs[j] = -(p[j - 1] + 2 * p[j] + p[j + 1]) / p[j]
                coeffs[j + 1] = (p[j - 1] + p[j]) / p[j + 1]
            else:
                coeffs[j - 1] = p[j] * q[j + 1] - p[j + 1] * q[j]
                coeffs[j] = p[j + 1] * q[j - 1] - p[j - 1] * q[j + 1]
                coeffs[j + 1] = p[j - 1] * q[j] - p[j] * q[j - 1]
            planes.append(_normalize_plane(coeffs))
    return tuple(planes)


def evaluate_plane(plane: Sequence, x: Sequence[Fraction]) -> Fraction:
    if len(plane) != len(x):
        raise InvalidInputError("plane and point have different dimensions")
    return sum((c * v for c, v in zip(plane, x)), Fraction(0))


def continue_degenerate(
    p: Sequence[Fraction],
    p_prime: Sequence[Fraction],
    next_p_prime: Fraction,
) -> Fraction:
    """The unique positive next AB ratio keeping the discriminant chain at zero.

    Given equal-length prefixes whose discriminants all vanish and the next DC
    ratio, returns the forced next AB ratio; raises when no positive value
    works.
    """
    p = fraction_tuple(p)
    p_prime = fraction_tuple(p_prime)
    next_p_prime = to_fraction(next_p_prime)
    m = len(p)
    if m < 2 or len(p_prime) != m:
        raise InvalidInputError("prefixes must have equal length at least 2")
    if next_p_prime <= 0:
        raise InvalidInputError("the next ratio must be positive")
    if m >= 3:
        probe = DivisionSpec(p, p_prime)
        if any(d != 0 for d in discriminants(probe)):
            raise InvalidInputError("prefix discriminants must all vanish")
    numerator = p_prime[-2] * next_p_prime * p[-1] * (p[-2] + p[-1])
    denominator = (p_prime[-2] + p_prime[-1] + next_p_prime) * p[-2] * p_prime[-1] \
        - p_prime[-2] * next_p_prime * p[-1]
    if denominator <= 0:
        raise NoValidContinuationError("no positive continuation exists for this next ratio")
    return numerator / denominator
