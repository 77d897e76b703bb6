"""Algebraic description of the attainable area tuples for a division spec.

The attainable set is a union of positive hulls of four vectors derived from
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

from .division import DivisionSpec, _Frozen, _check_spec, _memoized_on_spec, fraction_tuple, to_fraction
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


def _rows(
    p: Sequence[Fraction], q: Sequence[Fraction]
) -> tuple[tuple[tuple[int, int, int, int], ...], tuple[int, int], tuple[int, int]]:
    """One integer row (P, Q, H, L) per coordinate, with ab = P/L, dc = Q/L and head = H/L
    left unnormalised, plus the totals of ab and dc as (numerator, denominator) int pairs in lowest
    terms, the denominator positive.

    head[i] = p[i]*T + q[i]*S for the running sums S = sum(p[:i+1]) and T = sum(q[:i]), both
    kept in lowest terms and added as ``Fraction`` adds: with g the gcd of the two
    denominators, S + p[i] is t/(s*d) over their lcm (d the denominator of p[i], s the
    other's cofactor), then one gcd of t with g puts it in lowest terms.  Row i is read over
    L = T's denominator * q[i]'s * s * d, a multiple of the denominators of p[i], q[i] and
    head[i] of at most as many bits as those of p[i], q[i], S and T together, so it
    needs no division by either ratio's denominator.  The totals are the final running sums,
    already coprime, so no ``Fraction`` repeats their gcd.
    """
    rows = []
    sn, sd, tn, td = 0, 1, 0, 1
    for a, b in zip(p, q):
        an, ad, bn, bd = a.numerator, a.denominator, b.numerator, b.denominator
        g = gcd(sd, ad)
        s = sd // g
        sn = sn * (ad // g) + an * s
        ts = td * s
        m = ts * bd
        rows.append((an * m, bn * ts * ad, an * tn * bd * s + bn * sn * td, m * ad))
        g2 = gcd(sn, g)
        sn, sd = sn // g2, s * (ad // g2)
        g = gcd(td, bd)
        s = td // g
        tn = tn * (bd // g) + bn * s
        g2 = gcd(tn, g)
        tn, td = tn // g2, s * (bd // g2)
    return tuple(rows), (sn, sd), (tn, td)


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
    head, _, _ = _rows(p, p_prime)
    tail, _, _ = _rows((tail_p, *p[::-1]), (tail_p_prime, *p_prime[::-1]))
    return tuple(Fraction(h, den) for *_, h, den in head), tuple(Fraction(h, den) for *_, h, den in tail[:0:-1])


def _discriminant(p: Sequence[Fraction], q: Sequence[Fraction], j: int) -> tuple[int, int]:
    """The discriminant at interior 0-based index j as an unnormalised (numerator, denominator)
    pair of ints, the denominator positive:
    (p[j-1] + p[j] + p[j+1])*q[j-1]*q[j+1]*p[j] - (q[j-1] + q[j] + q[j+1])*p[j-1]*p[j+1]*q[j]."""
    (a1, b1), (a2, b2), (a3, b3) = ((v.numerator, v.denominator) for v in p[j - 1:j + 2])
    (c1, d1), (c2, d2), (c3, d3) = ((v.numerator, v.denominator) for v in q[j - 1:j + 2])
    first = (a1 * b2 * b3 + a2 * b1 * b3 + a3 * b1 * b2) * c1 * c3 * a2 * d2 * d2
    second = (c1 * d2 * d3 + c2 * d1 * d3 + c3 * d1 * d2) * a1 * a3 * c2 * b2 * b2
    return first - second, b1 * b2 * b3 * d1 * d2 * d3 * b2 * d2


def _first_pivot(p: Sequence[Fraction], q: Sequence[Fraction], first: int = 2) -> int | None:
    """The smallest 1-based index from ``first`` on whose discriminant is nonzero, or None when all
    of them vanish.  ``_factor`` starts at 3, as it reads pivot 2 from its block."""
    return next((j + 1 for j in range(first - 1, len(p) - 1) if _discriminant(p, q, j)[0] != 0), None)


def discriminants(spec: DivisionSpec) -> tuple[Fraction, ...]:
    """The discriminant chain, one value per interior index (empty for n = 2)."""
    _check_spec("discriminants", spec)
    return tuple(Fraction(*_discriminant(spec.p, spec.p_prime, j)) for j in range(1, spec.n - 1))


@_memoized_on_spec
def frame(spec: DivisionSpec) -> ConeFrame:
    """The spec's ratio tuples with its head and tail cumulants, built once per spec."""
    return ConeFrame(spec.p, spec.p_prime, *_cumulants(spec.p, spec.p_prime, Fraction(0), Fraction(0)))


class _Block(_Frozen):
    """The x-free 3x3 integer block of a pivot triple: its 0-based rows ``cols``, their
    denominators L_c, and the cofactors and determinant of the block whose rows are
    (P_c, Q_c, H_c) for c in cols."""

    cols: tuple[int, int, int]
    dens: tuple[int, int, int]
    cof: tuple[tuple[int, int, int], ...]
    det: int


def _block(rows: Sequence[tuple[int, int, int, int]], pivot: int) -> _Block:
    """The block of rows pivot-2, pivot-1 and pivot (0-based), regular or not."""
    cols = (pivot - 2, pivot - 1, pivot)
    cof, det = _cofactors([rows[c][:3] for c in cols])
    return _Block(cols, tuple(rows[c][3] for c in cols), cof, det)


def _pivot_block(rows: Sequence[tuple[int, int, int, int]], pivot: int) -> _Block:
    """The ``_block`` at a pivot that the discriminant scan found, or at a planar border, regular by
    construction and checked once here, for a spec, mirror, fold or tail pair alike: a pivot's
    discriminant is -det/(L*L*L), a planar det is -s*M != 0."""
    block = _block(rows, pivot)
    invariant(block.det != 0, "pivot solve is regular whenever the discriminant is nonzero")
    return block


class _Factored(_Frozen):
    """Everything a decision reads that depends only on the spec: its integer rows, its side
    totals as (numerator, denominator) int pairs in lowest terms, its first pivot (None when
    planar), the block the pivot solve inverts, and on skew planar rows head's face coordinates
    (alpha, beta), head = alpha*ab + beta*dc, else None.

    A planar block is rows 0 and 1 bordered by (T_ab, -T_dc, 0, 1), the totals over their
    common denominator; its third row of cofactors is (-alpha, -beta, 1) times the ab/dc minor
    P_0*Q_1 - P_1*Q_0 at rows 0 and 1.  With every discriminant zero, ab and dc are proportional at
    every row exactly when they are at rows 0 and 1, so the face is None exactly on proportional sides.
    """

    rows: tuple[tuple[int, int, int, int], ...]
    total_ab: tuple[int, int]
    total_dc: tuple[int, int]
    pivot: int | None
    block: _Block
    face: tuple[Fraction, Fraction] | None


def _factor(p: Sequence[Fraction], q: Sequence[Fraction]) -> _Factored:
    """The ``_Factored`` record of a valid ratio pair: its ``_rows``, its first pivot and the block
    at that pivot, or the planar block and head's face coordinates when every discriminant vanishes.

    The block at rows 0-2 is built first: the first triple's discriminant is -det/(L_0*L_1*L_2), so
    a nonzero det makes 2 the first pivot and that block the record's, with no discriminant
    evaluated.  Only a zero det (or n = 2) runs the discriminant scan, from pivot 3 on.
    """
    rows, total_ab, total_dc = _rows(p, q)
    if len(rows) > 2:
        block = _block(rows, 2)
        if block.det:
            return _Factored(rows, total_ab, total_dc, 2, block, None)
    pivot = _first_pivot(p, q, 3)
    if pivot is not None:
        return _Factored(rows, total_ab, total_dc, pivot, _pivot_block(rows, pivot), None)
    (tan, tad), (tdn, tdd) = total_ab, total_dc
    s = lcm(tad, tdd)
    block = _pivot_block((*rows[:2], (tan * (s // tad), -tdn * (s // tdd), 0, 1)), 2)
    minor_a, minor_b, minor = block.cof[2]
    face = (Fraction(-minor_a, minor), Fraction(-minor_b, minor)) if minor else None
    return _Factored(rows, total_ab, total_dc, None, block, face)


@_memoized_on_spec
def _factored(spec: DivisionSpec) -> _Factored:
    """The spec's ``_Factored`` record, built once per spec: the one source of its rows, totals,
    pivot, block and face for ``classify``, ``_planes`` and every decision."""
    return _factor(spec.p, spec.p_prime)


def classify(spec: DivisionSpec) -> CaseLabel:
    """Spatial with the smallest usable pivot, else planar with a proportionality flag: a view, kept by no memo,
    of the spec's ``_factored`` record, whose planar face is None exactly when ab and dc are proportional."""
    _check_spec("classify", spec)
    f = _factored(spec)
    if f.pivot is not None:
        return CaseLabel(spatial=True, pivot=f.pivot)
    return CaseLabel(spatial=False, proportional=f.face is None)


def hyperplanes(spec: DivisionSpec) -> tuple[tuple[int, ...], ...]:
    """Linearly independent hyperplanes cutting out the span of the attainable set, in lowest terms.

    Spatial case: n-3 planes, one per coordinate away from the pivot triple,
    each supported on that coordinate plus the pivot triple and containing
    both ratio vectors and the head-cumulant vector, read in ``int`` from the
    adjugate of the spec's ``_factored`` pivot block.  Planar case: n-2 planes
    supported on consecutive coordinate triples, read in ``int`` from the
    triple's ratios over their common denominator: when skew, the cross
    product of the ab and dc triples.  The planes are built once per spec
    (``_planes``); every call, warm or cold, calls ``classify``, so a
    tracer of the public functions counts the same calls.
    """
    _check_spec("hyperplanes", spec)
    if spec.n < 3:
        raise InvalidInputError("hyperplanes need at least three segments")
    classify(spec)  # the span contract: a warm call opens the classify span a cold one does (ROADMAP 1a)
    return _planes(spec)


@_memoized_on_spec
def _planes(spec: DivisionSpec) -> tuple[tuple[int, ...], ...]:
    """``hyperplanes`` of the spec, its case read from the spec's ``_factored`` record as ``classify``
    reads it: spatial exactly when the record has a pivot, proportional exactly when it has no face."""
    n = spec.n
    f = _factored(spec)
    supported = []  # (coordinates, coefficients) of each plane
    if f.pivot is not None:
        # the plane at i is L_i*det(N)*x_i - sum over pivot columns c of L_c*(adj(N) R_i)_c*x_c,
        # with N the pivot block whose columns are the rows R_c = (P_c, Q_c, H_c)
        rows, block = f.rows, f.block  # the cofactors of N's transpose are adj(N)
        cols, det = block.cols, block.det
        sign = 1 if det > 0 else -1
        for i, (p_i, q_i, h_i, l_i) in enumerate(rows):
            if i not in cols:
                supported.append(((i, *cols), [l_i * abs(det)] + [
                    -sign * l_c * (a[0] * p_i + a[1] * q_i + a[2] * h_i) for l_c, a in zip(block.dens, block.cof)
                ]))
    else:
        for j in range(1, n - 1):
            (u, v, w), _ = _scaled(spec.p[j - 1:j + 2])
            if f.face is None:
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
    plane, x = fraction_tuple(plane), fraction_tuple(x)
    if len(plane) != len(x):
        raise InvalidInputError("plane and point have different dimensions")
    return sum((c * v for c, v in zip(plane, x)), Fraction(0))


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
    # the last discriminant is affine in the next AB ratio t; its pairs at t = 0 and 1 share a denominator
    q = (*p_prime[-2:], next_p_prime)
    d0, _ = _discriminant((*p[-2:], Fraction(0)), q, 1)
    d1, _ = _discriminant((*p[-2:], Fraction(1)), q, 1)
    if d1 >= d0:
        raise NoValidContinuationError("no positive continuation exists for this next ratio")
    return Fraction(d0, d0 - d1)
