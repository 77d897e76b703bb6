"""Algebraic description of the attainable area tuples for a division spec.

The attainable set is a union of positive hulls of five vectors derived from
the ratio tuples: the two ratio vectors themselves (spanning the face reached
by parallel-sided quads), the head-cumulant vector (third edge of the branch
where the apex lies beyond A) and the tail-cumulant vector (apex beyond B).
A chain of discriminants decides whether that set is three-dimensional or
collapses into a plane.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .division import DivisionSpec, _Frozen, _memoized_on_spec, fraction_tuple, to_fraction
from .errors import InvalidInputError, NoValidContinuationError, invariant
from .linalg import _cofactors, _scaled


class ConeFrame(_Frozen):
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


class CaseLabel(_Frozen):
    """Shape of the attainable set: spatial (two trihedral angles) or planar."""

    spatial: bool
    pivot: int | None = None          # smallest 1-based index with nonzero discriminant
    proportional: bool | None = None  # for the planar case

    @property
    def kind(self) -> str:
        if self.spatial:
            return "spatial"
        return "planar-proportional" if self.proportional else "planar-skew"


def _sided_cumulants(p: Sequence[Fraction], p_prime: Sequence[Fraction]):
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
    return out, Fraction(sp, dp), Fraction(sq, dq)


def cumulants(
    p: Sequence[Fraction],
    p_prime: Sequence[Fraction],
    tail_p: Fraction = Fraction(0),
    tail_p_prime: Fraction = Fraction(0),
) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Head and tail cumulants of a ratio pair, with optional exact tail sums.

    head[i] = p[i]*sum(p'[:i]) + p'[i]*sum(p[:i+1])
    tail[i] = p[i]*(sum(p'[i+1:]) + tail_p') + p'[i]*(sum(p[i:]) + tail_p)

    The pair is validated as a ``DivisionSpec``, and each tail sum must be a
    rational that is not negative.
    """
    spec = DivisionSpec.of(p, p_prime)  # positive ratio tuples of one length, at least two
    tail_p, tail_p_prime = to_fraction(tail_p), to_fraction(tail_p_prime)
    if tail_p < 0 or tail_p_prime < 0:
        raise InvalidInputError("a tail sum cannot be negative")
    return _cumulants(spec.p, spec.p_prime, tail_p, tail_p_prime)


def _cumulants(p: Sequence[Fraction], p_prime: Sequence[Fraction], tail_p: Fraction, tail_p_prime: Fraction):
    """``cumulants`` of a valid ratio pair: the tail cumulants are the head cumulants of the
    reversed pair whose first segment holds the tail sums."""
    head, _, _ = _sided_cumulants(p, p_prime)
    tail, _, _ = _sided_cumulants((tail_p, *p[::-1]), (tail_p_prime, *p_prime[::-1]))
    return tuple(Fraction(*v) for v in head), tuple(Fraction(*v) for v in tail[:0:-1])


def _discriminant(p: Sequence[Fraction], q: Sequence[Fraction], j: int) -> tuple[int, int]:
    """The discriminant at interior 0-based index j as an unnormalised (numerator, denominator)
    pair of ints, the denominator positive:
    (p[j-1] + p[j] + p[j+1])*q[j-1]*q[j+1]*p[j] - (q[j-1] + q[j] + q[j+1])*p[j-1]*p[j+1]*q[j]."""
    (a1, b1), (a2, b2), (a3, b3) = ((v.numerator, v.denominator) for v in p[j - 1:j + 2])
    (c1, d1), (c2, d2), (c3, d3) = ((v.numerator, v.denominator) for v in q[j - 1:j + 2])
    first = (a1 * b2 * b3 + a2 * b1 * b3 + a3 * b1 * b2) * c1 * c3 * a2 * d2 * d2
    second = (c1 * d2 * d3 + c2 * d1 * d3 + c3 * d1 * d2) * a1 * a3 * c2 * b2 * b2
    return first - second, b1 * b2 * b3 * d1 * d2 * d3 * b2 * d2


def _first_pivot(p: Sequence[Fraction], q: Sequence[Fraction]) -> int | None:
    """The smallest 1-based index whose discriminant is nonzero, or None when all vanish."""
    return next((j + 1 for j in range(1, len(p) - 1) if _discriminant(p, q, j)[0] != 0), None)


def discriminants(spec: DivisionSpec) -> tuple[Fraction, ...]:
    """The discriminant chain, one value per interior index (empty for n = 2)."""
    return tuple(Fraction(*_discriminant(spec.p, spec.p_prime, j)) for j in range(1, spec.n - 1))


@_memoized_on_spec
def frame(spec: DivisionSpec) -> ConeFrame:
    return ConeFrame(spec.p, spec.p_prime, *_cumulants(spec.p, spec.p_prime, Fraction(0), Fraction(0)))


def _rows(
    p: Sequence[Fraction], q: Sequence[Fraction]
) -> tuple[tuple[tuple[int, int, int, int], ...], Fraction, Fraction]:
    """One integer row (P, Q, H, L) per coordinate, with ab = P/L, dc = Q/L and
    head = H/L left unnormalised, plus the totals of ab and dc."""
    head, total_ab, total_dc = _sided_cumulants(p, q)
    rows = tuple(
        (a.numerator * (den // a.denominator), b.numerator * (den // b.denominator), num, den)
        for a, b, (num, den) in zip(p, q, head)
    )
    return rows, total_ab, total_dc


@_memoized_on_spec
def integer_rows(spec: DivisionSpec) -> tuple[tuple[tuple[int, int, int, int], ...], Fraction, Fraction]:
    """``_rows`` of the spec, built once per spec."""
    return _rows(spec.p, spec.p_prime)


def _pivot_block(rows: Sequence[tuple[int, int, int, int]], pivot: int):
    """(cols, cof, det): the 0-based pivot triple, and the cofactors and determinant of its
    x-free integer block, whose rows are (P_c, Q_c, H_c) for c in cols."""
    cols = (pivot - 2, pivot - 1, pivot)
    cof, det = _cofactors([rows[c][:3] for c in cols])
    return cols, cof, det


@_memoized_on_spec
def classify(spec: DivisionSpec) -> CaseLabel:
    """Spatial with the smallest usable pivot, else planar with a proportionality flag."""
    pivot = _first_pivot(spec.p, spec.p_prime)
    if pivot is not None:
        return CaseLabel(spatial=True, pivot=pivot)
    return CaseLabel(spatial=False, proportional=spec.proportional())


def hyperplanes(spec: DivisionSpec) -> tuple[tuple[int, ...], ...]:
    """Linearly independent hyperplanes cutting out the span of the attainable set, in lowest terms.

    Spatial case: n-3 planes, one per coordinate away from the pivot triple,
    each supported on that coordinate plus the pivot triple and containing
    both ratio vectors and the head-cumulant vector, read in ``int`` from the
    adjugate of the integer pivot block.  Planar case: n-2 planes supported on
    consecutive coordinate triples, read in ``int`` from the triple's ratios
    over their common denominator: when skew, the cross product of the ab and dc triples.
    """
    n = spec.n
    if n < 3:
        raise InvalidInputError("hyperplanes need at least three segments")
    label = classify(spec)
    supported = []  # (coordinates, coefficients) of each plane
    if label.spatial:
        rows = integer_rows(spec)[0]
        # the plane at i is L_i*det(N)*x_i - sum over pivot columns c of L_c*(adj(N) R_i)_c*x_c,
        # with N the pivot block whose columns are the rows R_c = (P_c, Q_c, H_c)
        cols, adj, det = _pivot_block(rows, label.pivot)  # the cofactors of N's transpose are adj(N)
        invariant(det != 0, "pivot system is singular despite nonzero discriminant")
        sign = 1 if det > 0 else -1
        for i, (p_i, q_i, h_i, l_i) in enumerate(rows):
            if i not in cols:
                supported.append(((i, *cols), [l_i * abs(det)] + [
                    -sign * rows[c][3] * (a[0] * p_i + a[1] * q_i + a[2] * h_i) for c, a in zip(cols, adj)
                ]))
    else:
        for j in range(1, n - 1):
            (u, v, w), _ = _scaled(spec.p[j - 1:j + 2])
            if label.proportional:
                coeffs = ((v + w) * v * w, -(u + 2 * v + w) * u * w, (u + v) * u * v)
            else:
                (a, b, c), _ = _scaled(spec.p_prime[j - 1:j + 2])
                coeffs = (v * c - w * b, w * a - u * c, u * b - v * a)
            supported.append(((j - 1, j, j + 1), coeffs))
    planes = []
    for support, coeffs in supported:
        g = gcd(*coeffs)
        plane = [0] * n
        for i, v in zip(support, coeffs):
            plane[i] = v // g
        planes.append(tuple(plane))
    return tuple(planes)


def evaluate_plane(plane: Sequence, x: Sequence[Fraction]) -> Fraction:
    """The plane's coefficients dotted with x, exactly; every entry is read as a rational."""
    if len(plane) != len(x):
        raise InvalidInputError("plane and point have different dimensions")
    return sum((c * v for c, v in zip(fraction_tuple(plane), fraction_tuple(x))), Fraction(0))


def continue_degenerate(
    p: Sequence[Fraction],
    p_prime: Sequence[Fraction],
    next_p_prime: Fraction,
) -> Fraction:
    """The unique positive next AB ratio keeping the discriminant chain at zero.

    Given equal-length prefixes of positive ratios with no pivot (every
    discriminant vanishes) and the next DC ratio, returns the forced next AB
    ratio; raises InvalidInputError for any other prefixes and
    NoValidContinuationError when no positive value works.
    """
    p = fraction_tuple(p)
    p_prime = fraction_tuple(p_prime)
    next_p_prime = to_fraction(next_p_prime)
    DivisionSpec(p, p_prime)  # positive prefixes of one length, at least two
    if next_p_prime <= 0:
        raise InvalidInputError("the next ratio must be positive")
    if _first_pivot(p, p_prime) is not None:
        raise InvalidInputError("prefix discriminants must all vanish")
    numerator = p_prime[-2] * next_p_prime * p[-1] * (p[-2] + p[-1])
    denominator = (p_prime[-2] + p_prime[-1] + next_p_prime) * p[-2] * p_prime[-1] \
        - p_prime[-2] * next_p_prime * p[-1]
    if denominator <= 0:
        raise NoValidContinuationError("no positive continuation exists for this next ratio")
    return numerator / denominator
