"""Tail-summed decisions and the fold of long instances down to three coordinates.

A summable infinite sequence (``division.TailSummedSequence``) is an exact
finite prefix plus the exact sum of everything after it, so cutting both
sides at the prefix makes each tail one more segment: ``member_tail`` decides
as ``member`` on that (m+1)-spec's ``cone._Factored`` record, built by a spec's
builder (``cone._factor``) once per (p, p_prime) pair and kept in p, as a
``DivisionSpec`` keeps its own.  ``collapse`` keeps each fold's three-coordinate
spec in the spec's dict, one per (pivot, branch), so repeated folds at one
pivot (``member_via_collapse``, ``oracle.cross_validate``) build, validate and
factor it once.  Its verdicts are "prefix-certified": linear constraints living
entirely beyond the prefix cannot be checked from a tail sum alone and remain
the caller's responsibility.  Every record, a fold's too, comes from ``cone._factor``
with a regular block; a pivot whose folds are both planar reads the spec's own.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Union

from .cone import _cumulants, _discriminant, _factor, _factored
from .division import (
    DivisionSpec, TailSummedSequence, _Frozen, _check_spec, _memoized_on_pair, _side_sums, fraction_tuple, to_fraction,
)
from .errors import (
    DegenerateCollapseError,
    DegenerateDenominatorError,
    InvalidInputError,
    InvalidPivotError,
)
from .linalg import _cofactors, _primitive, _scaled
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


def _prefix_spec(refusal: str, *sequences) -> DivisionSpec:
    """The ``DivisionSpec`` of the first two prefixes, once each argument is a ``TailSummedSequence``."""
    if not all(isinstance(v, TailSummedSequence) for v in sequences):
        raise InvalidInputError(refusal)
    return DivisionSpec(sequences[0].prefix, sequences[1].prefix)


def tail_cumulants(
    p: TailSummedSequence, p_prime: TailSummedSequence
) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Head and tail cumulants over the shared prefix, with tail-exact tail sums."""
    spec = _prefix_spec("tail_cumulants takes two TailSummedSequence values", p, p_prime)
    return _cumulants(spec.p, spec.p_prime, p.tail_sum, p_prime.tail_sum)


def cumulant_tail_sums(
    p: TailSummedSequence, p_prime: TailSummedSequence
) -> tuple[Fraction, Fraction]:
    """Exact sums of the head and tail cumulants beyond the prefix.

    Both follow from telescoping: partial sums of head cumulants are products
    of partial ratio sums, partial tail sums of tail cumulants are products of
    ratio tail sums.
    """
    spec = _prefix_spec("cumulant_tail_sums takes two TailSummedSequence values", p, p_prime)
    return p.total * p_prime.total - sum(spec.p) * sum(spec.p_prime), p.tail_sum * p_prime.tail_sum


def _check_pivot(p: Sequence[Fraction], q: Sequence[Fraction], pivot: int) -> None:
    """Refuse a pivot that is not an int (a bool included), is outside 2..m-1 or has a zero discriminant."""
    m = len(p)
    if isinstance(pivot, bool) or not isinstance(pivot, int):
        raise InvalidPivotError(f"pivot must be an integer, got {pivot!r}")
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
    last one, as one Fraction over the lcm of the summed entries' denominators.
    Every ratio sum is read from the spec's partial sums.  spec3 is built
    once per (pivot, branch) and kept in the spec's dict; a pair's prefix spec is
    built afresh by each call, so its spec3, tail sums included, dies with the call.
    """
    tail_p = tail_q = Fraction(0)
    if not isinstance(spec, DivisionSpec):
        refusal = "collapse takes a DivisionSpec or a pair of TailSummedSequence values"
        if not (isinstance(spec, tuple) and len(spec) == 2):
            raise InvalidInputError(refusal)
        p, q = spec
        spec = _prefix_spec(refusal, p, q)
        tail_p, tail_q = p.tail_sum, q.tail_sum
    x, tail_x = (x.prefix, x.tail_sum) if isinstance(x, TailSummedSequence) else (fraction_tuple(x), 0)
    if len(x) != spec.n:
        raise InvalidInputError("area tuple length does not match the division spec")
    if branch not in ("q1", "q2"):
        raise InvalidInputError("branch must be 'q1' or 'q2'")
    p, q = spec.p, spec.p_prime
    key = f"_collapse_{branch}{pivot}"
    if type(pivot) is not int or key not in spec.__dict__:  # a kept fold's pivot passed this check
        _check_pivot(p, q, pivot)
    k = pivot - 1  # 0-based
    spec3 = spec.__dict__.get(key)
    if spec3 is None:
        sums_ab, sums_dc = _side_sums(spec)
        if branch == "q1":
            spec3 = DivisionSpec((sums_ab[k], p[k], p[k + 1]), (sums_dc[k], q[k], q[k + 1]))
        else:
            spec3 = DivisionSpec(
                (p[k - 1], p[k], sums_ab[-1] - sums_ab[k + 1] + tail_p),
                (q[k - 1], q[k], sums_dc[-1] - sums_dc[k + 1] + tail_q),
            )
        spec.__dict__[key] = spec3
    nums, den = _scaled(x[:k] if branch == "q1" else (*x[k + 1:], tail_x))
    summed = Fraction(sum(nums), den)
    x3 = (summed, x[k], x[k + 1]) if branch == "q1" else (x[k - 1], x[k], summed)
    return CollapsedInstance(spec3, x3, pivot, branch)


def member_via_collapse(
    spec: DivisionSpec, x: Sequence[Fraction], pivot: int, mode: Mode = "audited"
) -> Verdict:
    """Decide a finite spatial instance through its three-coordinate folds.

    Each fold is ``collapse``'s instance, kept on the spec, and its x3 is solved
    by ``member``'s pivot solve at pivot 2 of its spec3's integer rows, whose
    block spec3 keeps as any spec does (``cone._factored``).  A fold is injective
    on the relevant span exactly when its rows are independent, that is when spec3 is
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
    Only a pivot whose folds are both planar is refused, and only for a tuple on
    the span, decided on the spec's own record, since the span has no pivot.
    """
    _check_mode(mode)
    _check_spec("member_via_collapse", spec)
    x = fraction_tuple(x)
    if len(x) != spec.n:
        raise InvalidInputError("area tuple length does not match the division spec")
    if any(entry.numerator <= 0 for entry in x):
        return Verdict(False, reason=REASON_NON_POSITIVE)
    f = _factored(spec)
    if f.pivot is None:
        raise InvalidInputError("folding applies to spatial specs only")

    for branch in ("q1", "q2"):
        folded = collapse(spec, x, pivot, branch)
        f3 = _factored(folded.spec3)
        if f3.pivot is not None:
            break
    else:
        # no fold is injective: x is on the span at every pivot or at none, so decide it on the spec's own record
        verdict = _decide(f, x, mode)
        if verdict.reason == REASON_OFF_SUBSPACE:
            return verdict
        raise DegenerateCollapseError(
            f"both folds at pivot {pivot} are planar; use another pivot"
        )
    sol = _pivot_solution(f3.block, folded.x3)
    if branch == "q2":
        sums_ab, sums_dc = _side_sums(spec)
        a, b, c, e = sol
        (q0, p0), d = _scaled((sums_dc[pivot - 2], sums_ab[pivot - 2]))
        sol = _primitive((a * d - c * q0, b * d - c * p0, c * d, e * d))
    if not _spans(f.rows, sol, x, range(pivot - 2, pivot + 1)):
        return Verdict(False, reason=REASON_OFF_SUBSPACE)
    return _coefficient_verdict(*sol, f.total_ab, f.total_dc, mode)


def planar_ratio_bounds(
    p: TailSummedSequence, p_prime: TailSummedSequence
) -> tuple[Fraction, Fraction]:
    """Open window for x2/x1 in the planar case: (tail2/tail1, head2/head1)."""
    spec = _prefix_spec("planar_ratio_bounds takes two TailSummedSequence values", p, p_prime)
    head, tail = _cumulants(spec.p, spec.p_prime, p.tail_sum, p_prime.tail_sum)
    return tail[1] / tail[0], head[1] / head[0]


@_memoized_on_pair
def _tail_rows(p: TailSummedSequence, p_prime: TailSummedSequence):
    """The ``cone._Factored`` record of the m+1 segments of each side, the last one the tail sum,
    once the prefixes are validated as a ``DivisionSpec``; built once per pair."""
    DivisionSpec(p.prefix, p_prime.prefix)  # positive prefixes of one length, at least two
    return _factor((*p.prefix, p.tail_sum), (*p_prime.prefix, p_prime.tail_sum))


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
    zero last row.  The rows, totals, pivot and pivot block are built once per
    (p, p_prime) pair and kept in p (``_tail_rows``).  Constraints at individual
    indices beyond the prefix are not representable and are not checked.
    """
    _check_mode(mode)
    if not all(isinstance(v, TailSummedSequence) for v in (p, p_prime, x)):
        raise InvalidInputError("member_tail takes three TailSummedSequence values")
    extended = _tail_rows(p, p_prime)  # refuses invalid prefixes before x is read
    if x.m != p.m:
        raise InvalidInputError("area tuple length does not match the division spec")
    if p.m < 3:
        raise InvalidInputError("tail-summed decisions need a prefix of length at least 3")
    if any(entry.numerator <= 0 for entry in x.prefix) or (x.finite and not (p.finite and p_prime.finite)):
        # infinitely many strictly positive strips cannot sum to zero
        return Verdict(False, reason=REASON_NON_POSITIVE, prefix_certified=True)

    verdict = _decide(extended, (*x.prefix, x.tail_sum), mode)
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
    (p1, p2, p_{i+1}), (p'1, p'2, p'_{i+1}), (x1, x2, x_{i+1}) vanish, by its
    third row's cofactors; needs the first two ratio columns to be independent.
    """
    p = fraction_tuple(p)
    p_prime = fraction_tuple(p_prime)
    x1, x2 = to_fraction(x1), to_fraction(x2)
    DivisionSpec(p, p_prime)  # positive ratio tuples of one length
    if isinstance(i, bool) or not isinstance(i, int):
        raise InvalidInputError(f"index must be an integer, got {i!r}")
    if i < 2 or i >= len(p):
        raise InvalidInputError("index out of range for the extension formula")
    cof, _ = _cofactors(((p[0], p[1], p[i]), (p_prime[0], p_prime[1], p_prime[i]), (x1, x2, 0)))
    if cof[2][2] == 0:
        raise DegenerateDenominatorError("the first two ratio columns are proportional")
    return -(cof[2][0] * x1 + cof[2][1] * x2) / cof[2][2]


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
    """The stations and ratio window of the proportional pair (p, p), read from its cumulants.

    With h_i = head_i/p_i and t_i = tail_i/p_i the scaled cumulants of ``tail_cumulants(p, p)``,
    the station of 0-based index i >= 2 is (h_i - h_0)/(h_1 - h_0), and the window is
    (t_1/t_0, h_1/h_0), ``planar_ratio_bounds(p, p)`` scaled by p_0/p_1.
    """
    if isinstance(p, TailSummedSequence) and p.m < 3:  # short is refused before the entries are read
        raise InvalidInputError("stations need a prefix of length at least 3")
    spec = _prefix_spec("station_coefficients takes a TailSummedSequence", p, p)
    head, tail = _cumulants(spec.p, spec.p, p.tail_sum, p.tail_sum)
    h, t = ([v / r for v, r in zip(cumulant, spec.p)] for cumulant in (head, tail))
    sigma = tuple((h_i - h[0]) / (h[1] - h[0]) for h_i in h[2:])
    return StationCoefficients(sigma, (t[1] / t[0], h[1] / h[0]))


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
    progression_ok = all(scaled[i] == scaled[0] + coeffs.sigma[i - 2] * step for i in range(2, p.m))
    return StationReport(
        coeffs, scaled, scaled[1] / scaled[0], progression_ok, verdict.attainable, verdict.reason
    )
