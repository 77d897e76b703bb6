"""Tail-summed decisions and the fold of long instances down to three coordinates.

A summable infinite sequence (``division.TailSummedSequence``) is an exact
finite prefix plus the exact sum of everything after it, so cutting both
sides at the prefix makes each tail one more segment: ``member_tail`` decides
as ``member`` on that (m+1)-spec's integer rows.  Its verdicts are "prefix-certified": linear
constraints living entirely beyond the prefix cannot be checked from a tail
sum alone and remain the caller's responsibility.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Union

from .cone import _discriminant, _first_pivot, _rows, classify, cumulants, integer_rows
from .division import DivisionSpec, TailSummedSequence, _Frozen, _side_sums, fraction_tuple, to_fraction
from .errors import (
    DegenerateCollapseError,
    DegenerateDenominatorError,
    InvalidInputError,
    InvalidPivotError,
)
from .linalg import _primitive, _scaled
from .membership import (
    Mode,
    REASON_NON_POSITIVE,
    REASON_OFF_SUBSPACE,
    Verdict,
    _check_mode,
    _coefficient_verdict,
    _decide,
    _pivot_solution,
    _spans,
)


SpecLike = Union[DivisionSpec, tuple[TailSummedSequence, TailSummedSequence]]


def tail_cumulants(
    p: TailSummedSequence, p_prime: TailSummedSequence
) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Head and tail cumulants over the shared prefix, with tail-exact tail sums."""
    return cumulants(p.prefix, p_prime.prefix, p.tail_sum, p_prime.tail_sum)


def cumulant_tail_sums(
    p: TailSummedSequence, p_prime: TailSummedSequence
) -> tuple[Fraction, Fraction]:
    """Exact sums of the head and tail cumulants beyond the prefix.

    Both follow from telescoping: partial sums of head cumulants are products
    of partial ratio sums, partial tail sums of tail cumulants are products of
    ratio tail sums.
    """
    DivisionSpec(p.prefix, p_prime.prefix)  # positive prefixes of one length, at least two
    head_total = p.total * p_prime.total
    pm = sum(p.prefix, Fraction(0))
    qm = sum(p_prime.prefix, Fraction(0))
    return head_total - pm * qm, p.tail_sum * p_prime.tail_sum


def _check_pivot(p: Sequence[Fraction], q: Sequence[Fraction], pivot: int) -> None:
    """Refuse a pivot outside 2..m-1 or with a zero discriminant."""
    m = len(p)
    if not 2 <= pivot <= m - 1:
        raise InvalidPivotError(f"pivot {pivot} outside the usable range 2..{m - 1}")
    if _discriminant(p, q, pivot - 1)[0] == 0:
        raise InvalidPivotError(f"pivot {pivot} has a zero discriminant")


class CollapsedInstance(_Frozen):
    """A three-coordinate instance equivalent to a long one at a usable pivot.

    ``member_via_collapse`` decides on this very instance, solving ``x3`` on
    ``spec3``'s integer rows.
    """

    spec3: DivisionSpec
    x3: tuple[Fraction, ...]
    pivot: int
    branch: str


def collapse(spec: SpecLike, x, pivot: int, branch: str) -> CollapsedInstance:
    """Fold an instance to three coordinates around a pivot with nonzero discriminant.

    branch "q1" sums everything before the pivot into the first coordinate;
    branch "q2" sums everything after it (tail sums included exactly) into the
    last one.  Every ratio sum is read from the spec's partial sums.
    """
    tail_p = tail_q = Fraction(0)
    if not isinstance(spec, DivisionSpec):
        p, q = spec
        spec = DivisionSpec(p.prefix, q.prefix)  # positive prefixes of one length, at least two
        tail_p, tail_q = p.tail_sum, q.tail_sum
    x, tail_x = (x.prefix, x.tail_sum) if isinstance(x, TailSummedSequence) else (fraction_tuple(x), 0)
    if len(x) != spec.n:
        raise InvalidInputError("area tuple length does not match the division spec")
    if branch not in ("q1", "q2"):
        raise InvalidInputError("branch must be 'q1' or 'q2'")
    p, q = spec.p, spec.p_prime
    _check_pivot(p, q, pivot)
    k = pivot - 1  # 0-based
    sums_ab, sums_dc = _side_sums(spec)
    if branch == "q1":
        spec3 = DivisionSpec((sums_ab[k], p[k], p[k + 1]), (sums_dc[k], q[k], q[k + 1]))
        x3 = (sum(x[:k], Fraction(0)), x[k], x[k + 1])
    else:
        spec3 = DivisionSpec(
            (p[k - 1], p[k], sums_ab[-1] - sums_ab[k + 1] + tail_p),
            (q[k - 1], q[k], sums_dc[-1] - sums_dc[k + 1] + tail_q),
        )
        x3 = (x[k - 1], x[k], sum(x[k + 1:], Fraction(0)) + tail_x)
    return CollapsedInstance(spec3, x3, pivot, branch)


def member_via_collapse(
    spec: DivisionSpec, x: Sequence[Fraction], pivot: int, mode: Mode = "audited"
) -> Verdict:
    """Decide a finite spatial instance through its three-coordinate folds.

    Each fold is ``collapse``'s instance, and its x3 is solved by ``member``'s
    pivot solve at pivot 2 of its spec3's integer rows.  A fold is injective on
    the relevant span exactly when that solve is regular, that is when spec3 is
    spatial (a triple's discriminant is -det/(L*L*L) of its rows); a planar
    fold can cancel a negative coordinate against later positive ones and is
    never trusted.  One injective fold suffices: the q1 fold is tried first.
    Head cumulants depend only on prefix sums, so the q1 fold's head is the
    spec's head summed before the pivot, and the q2 fold's is head - Q0*ab -
    P0*dc summed after it, with P0 and Q0 the ratio sums before its first
    coordinate; its int vector (A, B, C, E) is shifted back by that and made
    primitive again.  It is then checked against every coordinate outside the
    pivot triple, which rejects a tuple off the span: the solve holds exactly
    at the two coordinates the fold keeps, and its summed coordinate then
    implies the third.
    Only a pivot whose folds are both planar is refused, and only for a tuple
    on the span.
    """
    _check_mode(mode)
    if len(x) != spec.n:
        raise InvalidInputError("area tuple length does not match the division spec")
    x = fraction_tuple(x)
    if any(entry.numerator <= 0 for entry in x):
        return Verdict(False, reason=REASON_NON_POSITIVE)
    if not classify(spec).spatial:
        raise InvalidInputError("folding applies to spatial specs only")

    for branch in ("q1", "q2"):
        folded = collapse(spec, x, pivot, branch)
        sol = _pivot_solution(integer_rows(folded.spec3)[0], 2, folded.x3)
        if sol is not None:
            break
    rows, total_ab, total_dc = integer_rows(spec)
    if sol is None:
        # no fold is injective: decide x at the spec's own pivot, refuse it only on the span
        verdict = _decide(rows, total_ab, total_dc, pivot, x, mode)
        if verdict.reason == REASON_OFF_SUBSPACE:
            return verdict
        raise DegenerateCollapseError(
            f"both folds at pivot {pivot} are planar; use another pivot"
        )
    if branch == "q2":
        sums_ab, sums_dc = _side_sums(spec)
        a, b, c, e = sol
        (q0, p0), d = _scaled((sums_dc[pivot - 2], sums_ab[pivot - 2]))
        sol = _primitive((a * d - c * q0, b * d - c * p0, c * d, e * d))
    if not _spans(rows, sol, x, range(pivot - 2, pivot + 1)):
        return Verdict(False, reason=REASON_OFF_SUBSPACE)
    return _coefficient_verdict(*sol, total_ab, total_dc, mode)


def planar_ratio_bounds(
    p: TailSummedSequence, p_prime: TailSummedSequence
) -> tuple[Fraction, Fraction]:
    """Open window for x2/x1 in the planar case: (tail2/tail1, head2/head1)."""
    head, tail = tail_cumulants(p, p_prime)
    return tail[1] / tail[0], head[1] / head[0]


def member_tail(
    p: TailSummedSequence,
    p_prime: TailSummedSequence,
    x: TailSummedSequence,
    mode: Mode = "audited",
) -> Verdict:
    """Decide attainability for tail-summed sequences; the verdict is prefix-certified.

    It is ``member``'s decision on the m+1 segments of each side, the last one
    the tail sum: the same integer rows and first pivot, so the tail triple's
    discriminant can end the prefix's zero chain, and two zero tail sums give a
    zero last row.  Constraints at individual indices beyond the prefix are not
    representable and are not checked.
    """
    _check_mode(mode)
    DivisionSpec(p.prefix, p_prime.prefix)  # positive prefixes of one length, at least two
    if x.m != p.m:
        raise InvalidInputError("area tuple length does not match the division spec")
    if p.m < 3:
        raise InvalidInputError("tail-summed decisions need a prefix of length at least 3")
    if any(entry.numerator <= 0 for entry in x.prefix) or (x.finite and not (p.finite and p_prime.finite)):
        # infinitely many strictly positive strips cannot sum to zero
        return Verdict(False, reason=REASON_NON_POSITIVE, prefix_certified=True)

    ab, dc = (*p.prefix, p.tail_sum), (*p_prime.prefix, p_prime.tail_sum)
    verdict = _decide(*_rows(ab, dc), _first_pivot(ab, dc), (*x.prefix, x.tail_sum), mode)
    return Verdict(verdict.attainable, verdict.certificate, verdict.reason, prefix_certified=True)


def extend_solution(
    p: Sequence[Fraction],
    p_prime: Sequence[Fraction],
    x1: Fraction,
    x2: Fraction,
    i: int,
) -> Fraction:
    """The unique next coordinate keeping (x1, x2, x_{i+1}) dependent on the ratio rows.

    Returns the x_{i+1} that makes the 3x3 determinant with rows
    (p1, p2, p_{i+1}), (p'1, p'2, p'_{i+1}), (x1, x2, x_{i+1}) vanish; needs
    the first two ratio columns to be independent.
    """
    p = fraction_tuple(p)
    p_prime = fraction_tuple(p_prime)
    x1, x2 = to_fraction(x1), to_fraction(x2)
    DivisionSpec(p, p_prime)  # positive ratio tuples of one length
    if i < 2 or i >= len(p):
        raise InvalidInputError("index out of range for the extension formula")
    denom = p[1] * p_prime[0] - p[0] * p_prime[1]
    if denom == 0:
        raise DegenerateDenominatorError("the first two ratio columns are proportional")
    numer = x1 * (p[1] * p_prime[i] - p[i] * p_prime[1]) - x2 * (
        p[0] * p_prime[i] - p[i] * p_prime[0]
    )
    return numer / denom


class StationCoefficients(_Frozen):
    """Arithmetic-progression stations for proportional sequences.

    sigma[i] places the i-th scaled coordinate on the affine line through the
    first two; the bounds window the second scaled coordinate's ratio to the
    first.  Stations are strictly increasing.
    """

    sigma: tuple[Fraction, ...]
    bounds: tuple[Fraction, Fraction]


class StationReport(_Frozen):
    """The station law applied to one tuple, with member_tail's verdict on it."""

    coefficients: StationCoefficients
    scaled: tuple[Fraction, ...]
    ratio: Fraction
    progression_ok: bool
    accepted: bool
    reason: str | None = None


def station_coefficients(p: TailSummedSequence) -> StationCoefficients:
    if p.m < 3:
        raise InvalidInputError("stations need a prefix of length at least 3")
    DivisionSpec(p.prefix, p.prefix)  # positive entries
    base = p.prefix[0] + p.prefix[1]
    sigma = []
    running = Fraction(0)
    for i in range(2, p.m):  # 0-based index i corresponds to station i+1
        running += p.prefix[i - 1]
        sigma.append((p.prefix[0] + p.prefix[i]) / base + 2 * running / base)
    after_first = p.total - p.prefix[0]
    lower = 1 - base / (p.prefix[0] + 2 * after_first)
    upper = 2 + p.prefix[1] / p.prefix[0]
    return StationCoefficients(tuple(sigma), (lower, upper))


def station_check(p: TailSummedSequence, x: TailSummedSequence) -> StationReport:
    """Report a candidate sequence against the proportional-case progression law.

    Applies when both sides carry the same ratio sequence p.  The law: the
    scaled values x_i/p_i advance as an exact arithmetic progression in the
    stations (``progression_ok``), and the ratio of the second to the first
    falls strictly inside the open bounds.  The verdict (``accepted`` and
    ``reason``) is ``member_tail(p, p, x)``'s, which also checks the tail sum
    of x and every prefix entry; on a positive x with a consistent tail sum
    it holds exactly when the law does.
    """
    coeffs = station_coefficients(p)
    verdict = member_tail(p, p, x)
    scaled = tuple(xi / pi for xi, pi in zip(x.prefix, p.prefix))
    if scaled[0] <= 0:
        return StationReport(coeffs, scaled, Fraction(0), False, False, verdict.reason)
    step = scaled[1] - scaled[0]
    progression_ok = all(
        scaled[i] == scaled[0] + coeffs.sigma[i - 2] * step for i in range(2, p.m)
    )
    return StationReport(
        coeffs, scaled, scaled[1] / scaled[0], progression_ok, verdict.attainable, verdict.reason
    )
