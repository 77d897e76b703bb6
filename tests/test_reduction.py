import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, strategies as st

from quadareas import (
    Certificate,
    ConvexQuad,
    DegenerateCollapseError,
    DegenerateDenominatorError,
    DivisionSpec,
    InvalidInputError,
    InvalidPivotError,
    NoValidContinuationError,
    TailSummedSequence,
    Verdict,
    classify,
    collapse,
    continue_degenerate,
    cumulant_tail_sums,
    discriminants,
    extend_solution,
    frame,
    member,
    member_tail,
    member_via_collapse,
    planar_ratio_bounds,
    pt,
    station_check,
    station_coefficients,
    strip_areas,
    tail_cumulants,
)

GEO = TailSummedSequence.of((1, F(1, 2), F(1, 4)), F(1, 4))
UNIT3 = TailSummedSequence.of((1, 1, 1))


def random_spec(rng, kind, n):
    """A spatial, planar-proportional or planar-skew spec with grid entries k/8."""
    p = [F(rng.randint(1, 64), 8) for _ in range(n)]
    if kind == "proportional":
        return DivisionSpec(tuple(p), tuple(F(3, 2) * v for v in p))
    q = [F(rng.randint(1, 64), 8) for _ in range(n)]
    if kind == "skew":
        q[1] += q[0] * p[1] / p[0]
        for i in range(2, n):
            while True:  # a smaller next ratio always continues the zero discriminants
                try:
                    p[i] = continue_degenerate(p[:i], q[:i], q[i])
                    break
                except NoValidContinuationError:
                    q[i] /= 2
    return DivisionSpec(tuple(p), tuple(q))


def seq_combo(p, pp, a, b):
    """A tail-summed sequence a*head + b*tail for the given ratio sequences."""
    head, tail = tail_cumulants(p, pp)
    head_rest, tail_rest = cumulant_tail_sums(p, pp)
    prefix = tuple(a * h + b * t for h, t in zip(head, tail))
    return TailSummedSequence(prefix, a * head_rest + b * tail_rest)


class TestTailSummedSequence:
    def test_text_round_trip(self):
        seq = TailSummedSequence.parse("1,1/2 | tail=1/2")
        assert seq.prefix == (F(1), F(1, 2)) and seq.tail_sum == F(1, 2)
        assert TailSummedSequence.parse(seq.text()) == seq
        assert TailSummedSequence.parse("1,2,3").tail_sum == 0

    def test_empty_suffix_means_tail_zero(self):
        assert TailSummedSequence.parse("1,2 |") == TailSummedSequence.parse("1,2") == TailSummedSequence.of((1, 2))
        assert TailSummedSequence.parse("1,2 |  ").tail_sum == 0

    def test_negative_tail_rejected(self):
        with pytest.raises(InvalidInputError):
            TailSummedSequence.of((1, 2), -1)

    def test_totals(self):
        assert GEO.total == 2

    def test_plain(self):
        assert TailSummedSequence.parse("1,2,3").prefix == (F(1), F(2), F(3))

    def test_normalization(self):
        assert TailSummedSequence.parse("4/6,1").prefix == (F(2, 3), F(1))

    def test_malformed_literal(self):
        with pytest.raises(InvalidInputError, match="malformed rational literal '2.5'"):
            TailSummedSequence.parse("1,2.5")

    def test_negative_entries_are_read_with_their_sign(self):
        assert TailSummedSequence.parse("1,-2").prefix == (F(1), F(-2))

    def test_empty_prefix_rejected(self):
        for text in ("", ",", " , | tail=1"):
            with pytest.raises(InvalidInputError, match="a sequence needs a nonempty prefix"):
                TailSummedSequence.parse(text)

    def test_constructor_reads_any_iterable_prefix_once(self):
        expected = TailSummedSequence.of((1, 2, 3), F(1, 2))
        for prefix in ([1, 2, 3], [F(1), F(2), F(3)], iter([1, 2, 3]), (v for v in (F(1), 2, 3))):
            seq = TailSummedSequence(prefix, F(1, 2))
            assert seq.prefix == (F(1), F(2), F(3)) and seq == expected and hash(seq) == hash(expected)


class TestTailCumulants:
    def test_geometric(self):
        p = TailSummedSequence.of((1, F(1, 2)), F(1, 2))
        head, tail = tail_cumulants(p, p)
        assert tail == (F(3), F(3, 4))
        assert head == (F(1), F(5, 4))

    def test_finite_embed_matches_length_two_arms(self):
        head, tail = tail_cumulants(TailSummedSequence.of((1, 2)), TailSummedSequence.of((2, 1)))
        assert head == (F(2), F(7)) and tail == (F(7), F(2))

    def test_finite_unit(self):
        head, tail = tail_cumulants(UNIT3, UNIT3)
        assert head == (F(1), F(3), F(5)) and tail == (F(5), F(3), F(1))

    def test_ratios_are_validated_as_a_division_spec(self):
        # all three validate their prefixes as one DivisionSpec
        for helper in (tail_cumulants, cumulant_tail_sums, planar_ratio_bounds):
            for p, q, message in (
                ((1, 0, 2), (1, 1, 1), "p entry 2 must be positive"),
                ((1, 1, 1), (1, 1, F(-1, 2)), "p_prime entry 3 must be positive"),
                ((1, 2, 3), (1, 1), "ratio tuples must have the same length"),
                ((1,), (1,), "need at least two segments per side"),
            ):
                with pytest.raises(InvalidInputError, match=message):
                    helper(TailSummedSequence.of(p, 1), TailSummedSequence.of(q))

    def test_component_sum_identity_with_tails(self):
        rng = random.Random(6)
        for _ in range(100):
            m = rng.randint(2, 6)
            p = TailSummedSequence.of(
                [F(rng.randint(1, 16), 4) for _ in range(m)], F(rng.randint(0, 8), 4)
            )
            q = TailSummedSequence.of(
                [F(rng.randint(1, 16), 4) for _ in range(m)], F(rng.randint(0, 8), 4)
            )
            head, tail = tail_cumulants(p, q)
            for h, t, pi, qi in zip(head, tail, p.prefix, q.prefix):
                assert h + t == pi * q.total + qi * p.total

    def test_grand_total_identity(self):
        rng = random.Random(9)
        for _ in range(100):
            m = rng.randint(2, 6)
            p = TailSummedSequence.of(
                [F(rng.randint(1, 16), 4) for _ in range(m)], F(rng.randint(0, 8), 4)
            )
            q = TailSummedSequence.of(
                [F(rng.randint(1, 16), 4) for _ in range(m)], F(rng.randint(0, 8), 4)
            )
            head, tail = tail_cumulants(p, q)
            head_rest, tail_rest = cumulant_tail_sums(p, q)
            total = sum(head) + head_rest + sum(tail) + tail_rest
            assert total == 2 * p.total * q.total


class TestCollapse:
    def test_head_fold(self):
        spec = DivisionSpec.of((1, 2, 3, 4), (1, 1, 1, 1))
        inst = collapse(spec, (F(1), F(1), F(1), F(1)), 3, "q1")
        assert inst.spec3.p == (F(3), F(3), F(4))
        assert inst.spec3.p_prime == (F(2), F(1), F(1))
        assert inst.x3 == (F(2), F(1), F(1))

    def test_tail_fold(self):
        spec = DivisionSpec.of((1, 2, 3, 4), (1, 1, 1, 1))
        inst = collapse(spec, (F(1), F(2), F(3), F(4)), 2, "q2")
        assert inst.spec3.p == (F(1), F(2), F(7))
        assert inst.spec3.p_prime == (F(1), F(1), F(2))
        assert inst.x3 == (F(1), F(2), F(7))

    def test_identity_fold_length_three(self):
        spec = DivisionSpec.of((1, 2, 3), (1, 1, 1))
        inst = collapse(spec, (F(3), F(8), F(16)), 2, "q1")
        assert inst.spec3 == spec
        assert inst.x3 == (F(3), F(8), F(16))

    def test_tail_sums_enter_the_fold(self):
        p = TailSummedSequence.of((1, 2, 3), 4)
        q = TailSummedSequence.of((2, 1, 1), 1)
        x = TailSummedSequence.of((1, 1, 1), 1)
        inst = collapse((p, q), x, 2, "q2")
        assert inst.spec3.p == (F(1), F(2), F(7))
        assert inst.spec3.p_prime == (F(2), F(1), F(2))
        assert inst.x3 == (F(1), F(1), F(2))

    def test_wrong_length_x_rejected_by_the_length_check(self):
        # a plain x is a prefix with a zero tail, so the empty one gets the same message as any other length
        spec = DivisionSpec.of((1, 2, 3, 4), (1, 1, 1, 1))
        for x in ((), (F(1),) * 3, (F(1),) * 5):
            with pytest.raises(InvalidInputError, match="area tuple length does not match the division spec"):
                collapse(spec, x, 2, "q1")

    def test_zero_discriminant_pivot_rejected(self):
        spec = DivisionSpec.of((1, 1, 1, 5), (1, 2, 6, 1))
        with pytest.raises(InvalidPivotError):
            collapse(spec, (F(1), F(1), F(1), F(1)), 2, "q1")


def digit_entry(rng, digits):
    """A grid entry k/8 when digits is None, else a quotient of two digits-long ints."""
    if digits is None:
        return F(rng.randint(1, 64), 8)
    lo, hi = 10 ** (digits - 1), 10 ** digits
    return F(rng.randrange(lo, hi), rng.randrange(lo, hi))


def ref_x3(x, tail_x, pivot, branch):
    """collapse's x3 as it was: the summed coordinate a chain of Fraction adds."""
    k = pivot - 1
    if branch == "q1":
        return (sum(x[:k], F(0)), x[k], x[k + 1])
    return (x[k - 1], x[k], sum(x[k + 1:], F(0)) + tail_x)


@pytest.mark.parametrize("digits", (None, 100))
@pytest.mark.parametrize("n", range(4, 13))
def test_summed_coordinate_matches_the_fraction_sum(digits, n):
    """x3's summed coordinate, one Fraction over the lcm of its terms' denominators, is the sum of
    Fraction adds it replaced, on both branches at every usable pivot, with and without tail sums."""
    rng = random.Random(f"x3/{digits}/{n}")
    spec = DivisionSpec(*(tuple(digit_entry(rng, digits) for _ in range(n)) for _ in "pq"))
    pivots = [j + 2 for j, d in enumerate(discriminants(spec)) if d != 0]
    assert pivots
    tails = (digit_entry(rng, digits), digit_entry(rng, digits), digit_entry(rng, digits))
    pair = (TailSummedSequence(spec.p, tails[0]), TailSummedSequence(spec.p_prime, tails[1]))
    for _ in range(3):
        x = tuple(digit_entry(rng, digits) for _ in range(n))
        for pivot in pivots:
            for branch in ("q1", "q2"):
                assert collapse(spec, x, pivot, branch).x3 == ref_x3(x, 0, pivot, branch)
                tailed = collapse(pair, TailSummedSequence(x, tails[2]), pivot, branch).x3
                assert tailed == ref_x3(x, tails[2], pivot, branch)


class TestFoldEquivalence:
    SPEC = DivisionSpec.of((1, 2, 3, 4), (1, 1, 1, 1))

    def test_constructed_point_accepted_by_both_paths(self):
        fr = frame(self.SPEC)
        x = tuple(u + v + w for u, v, w in zip(fr.ab, fr.dc, fr.head))
        assert x == (F(3), F(8), F(16), F(27))
        for pivot in (2, 3):
            folded = member_via_collapse(self.SPEC, x, pivot)
            assert folded == member(self.SPEC, x)
            assert folded.certificate.branch == "q1"

    def test_off_span_rejected_by_both_paths(self):
        x = (F(3), F(8), F(16), F(28))
        for pivot in (2, 3):
            folded = member_via_collapse(self.SPEC, x, pivot)
            assert not folded.attainable and folded.reason == "off-subspace"
            assert folded == member(self.SPEC, x)

    def test_random_agreement_both_pivots(self):
        rng = random.Random(14)
        fr = frame(self.SPEC)
        for _ in range(150):
            a, b, c = (F(rng.randint(-4, 24), 8) for _ in range(3))
            arm = fr.head if rng.random() < 0.5 else fr.tail
            x = tuple(a * u + b * v + c * w for u, v, w in zip(fr.ab, fr.dc, arm))
            if any(e <= 0 for e in x):
                continue
            direct = member(self.SPEC, x)
            for pivot in (2, 3):
                assert member_via_collapse(self.SPEC, x, pivot) == direct

    def test_planar_fold_is_never_trusted(self):
        # folding the head of ((1,1,1,1),(1,3,2,2)) at pivot 3 yields the
        # proportional instance ((2,1,1),(4,2,2)); on the span the fold
        # cancels -2*ab + dc, so a negative ab coordinate can hide behind it
        spec = DivisionSpec.of((1, 1, 1, 1), (1, 3, 2, 2))
        assert discriminants(spec) == (F(-12), F(4))
        fr = frame(spec)
        x = tuple(-u + 2 * v + w for u, v, w in zip(fr.ab, fr.dc, fr.head))
        assert x == (F(2), F(12), F(13), F(17))
        direct = member(spec, x)
        assert not direct.attainable and direct.reason == "negative-coefficient"
        # the head fold of x looks attainable from inside the folded instance
        inst = collapse(spec, x, 3, "q1")
        assert not classify(inst.spec3).spatial
        assert member(inst.spec3, inst.x3).attainable
        # but the fold-based decision routes through the injective tail fold
        # at the same pivot and still agrees with the direct decision
        assert member_via_collapse(spec, x, 3) == direct
        assert member_via_collapse(spec, x, 2) == direct

    def test_pivot_with_two_planar_folds_is_refused(self):
        spec = DivisionSpec.of((2, 6, 5, 4, 3), (1, 7, 5, 4, 2))
        deltas = discriminants(spec)
        assert deltas[1] != 0
        ones = (F(1),) * 5
        assert not classify(collapse(spec, ones, 3, "q1").spec3).spatial
        assert not classify(collapse(spec, ones, 3, "q2").spec3).spatial
        fr = frame(spec)
        x = tuple(u + v + w for u, v, w in zip(fr.ab, fr.dc, fr.head))
        with pytest.raises(DegenerateCollapseError):
            member_via_collapse(spec, x, 3)

    def test_off_span_at_pivot_with_two_planar_folds(self):
        # no fold decides here, so x is solved at the pivot directly: off the
        # span it is rejected, on the span the pivot is refused
        spec = DivisionSpec.of((2, 6, 5, 4, 3), (1, 7, 5, 4, 2))
        fr = frame(spec)
        x = [u + v + w for u, v, w in zip(fr.ab, fr.dc, fr.head)]
        x[4] += 1
        folded = member_via_collapse(spec, x, 3)
        assert not folded.attainable and folded.reason == "off-subspace"
        assert folded == member(spec, x)
        x[4] -= 1
        with pytest.raises(DegenerateCollapseError):
            member_via_collapse(spec, x, 3)

    def test_both_folds_singular_pinned(self):
        # pivot 3 of this spec has a nonzero discriminant, but both of its folds are planar:
        # on the span the pivot is refused, one unit off it the tuple is rejected
        spec = DivisionSpec.of((6, 3, 5, 4, 6), (4, 4, 4, 3, 1))
        assert discriminants(spec) == (F(-768), F(192), F(-480))
        fr = frame(spec)
        x = tuple(u + v + w for u, v, w in zip(fr.ab, fr.dc, fr.head))
        assert x == (F(34), F(55), F(105), F(109), F(121))
        with pytest.raises(DegenerateCollapseError, match="both folds at pivot 3 are planar"):
            member_via_collapse(spec, x, 3)
        assert member_via_collapse(spec, (x[0] + 1, *x[1:]), 3) == Verdict(False, reason="off-subspace")
        assert [collapse(spec, x, 3, branch).spec3 for branch in ("q1", "q2")] == [
            DivisionSpec.of((9, 5, 4), (8, 4, 3)), DivisionSpec.of((3, 5, 10), (4, 4, 4)),
        ]
        for branch in ("q1", "q2"):
            assert not classify(collapse(spec, x, 3, branch).spec3).spatial
        assert member(spec, x) == Verdict(True, Certificate("q1", (F(1), F(1), F(1))))

    def test_unusable_pivot_is_refused_for_every_x(self):
        on_span = (F(3), F(8), F(16), F(27))
        off_span = (F(3), F(8), F(16), F(28))
        for x in (on_span, off_span):
            for pivot in (1, 4):
                with pytest.raises(InvalidPivotError):
                    member_via_collapse(self.SPEC, x, pivot)

    def test_single_injective_fold_decides_both_branches(self):
        # the tail fold at the minimal pivot of this spec is planar, yet every
        # verdict there matches the direct decision through the head fold
        spec = DivisionSpec.of((3, 3, 5, 1), (5, 5, 7, 3))
        ones = (F(1),) * 4
        assert classify(collapse(spec, ones, 2, "q1").spec3).spatial
        assert not classify(collapse(spec, ones, 2, "q2").spec3).spatial
        rng = random.Random(5)
        fr = frame(spec)
        for _ in range(80):
            a, b, c = (F(rng.randint(-4, 16), 8) for _ in range(3))
            arm = fr.head if rng.random() < 0.5 else fr.tail
            x = tuple(a * u + b * v + c * w for u, v, w in zip(fr.ab, fr.dc, arm))
            if any(e <= 0 for e in x):
                continue
            assert member_via_collapse(spec, x, 2) == member(spec, x)


class TestMemberTail:
    def test_finite_embed_matches_member(self):
        # with zero tail sums member_tail is member, flagged prefix-certified
        rng = random.Random(21)
        for kind in ("spatial", "proportional", "skew"):
            for n in range(3, 13):
                spec = random_spec(rng, kind, n)
                assert classify(spec).kind == ("spatial" if kind == "spatial" else f"planar-{kind}")
                fr = frame(spec)
                p, pp = TailSummedSequence(spec.p), TailSummedSequence(spec.p_prime)
                for arm in (fr.head, fr.tail, tuple(a + d for a, d in zip(fr.ab, fr.dc))):
                    a, b, c = (F(rng.randint(-8, 40), 8) for _ in range(3))
                    combo = tuple(a * u + b * v + c * w for u, v, w in zip(fr.ab, fr.dc, arm))
                    for x in (combo, combo[:-1] + (combo[-1] + 1,)):
                        for mode in ("strict", "audited"):
                            tailed = member_tail(p, pp, TailSummedSequence(x), mode)
                            assert tailed.prefix_certified
                            untailed = Verdict(
                                tailed.attainable, tailed.certificate, tailed.reason, prefix_certified=False
                            )
                            assert untailed == member(spec, x, mode)

    def test_geometric_bounds(self):
        p = TailSummedSequence.of((1, F(1, 2)), F(1, 2))
        assert planar_ratio_bounds(p, p) == (F(1, 4), F(5, 4))

    def test_bounds_refuse_a_single_entry_prefix(self):
        with pytest.raises(InvalidInputError):
            planar_ratio_bounds(TailSummedSequence.of((1,)), TailSummedSequence.of((1,)))

    def test_bounds_refuse_a_negative_ratio(self):
        with pytest.raises(InvalidInputError):
            planar_ratio_bounds(TailSummedSequence.of((1, -1, 2)), TailSummedSequence.of((1, 1, 1)))

    def test_bounds_consistent_with_station_normalization(self):
        # scaling the ratio window by p1/p2 reproduces the station bounds
        lo, hi = planar_ratio_bounds(GEO, GEO)
        coeffs = station_coefficients(GEO)
        scale = GEO.prefix[0] / GEO.prefix[1]
        assert (lo * scale, hi * scale) == coeffs.bounds

    def test_combination_accepted_with_exact_tail(self):
        a, b = F(2, 3), F(1, 5)
        x = seq_combo(GEO, GEO, a, b)
        verdict = member_tail(GEO, GEO, x)
        assert verdict.attainable and verdict.certificate.coeffs == (a, b)
        assert verdict.prefix_certified

    def test_wrong_tail_sum_rejected(self):
        x = seq_combo(GEO, GEO, F(2, 3), F(1, 5))
        wrong = TailSummedSequence(x.prefix, x.tail_sum + F(1, 7))
        verdict = member_tail(GEO, GEO, wrong)
        assert not verdict.attainable and verdict.reason == "off-subspace"

    def test_prefix_plane_violation_rejected(self):
        x = seq_combo(GEO, GEO, F(2, 3), F(1, 5))
        bumped = list(x.prefix)
        bumped[1] += F(1, 9)
        verdict = member_tail(GEO, GEO, TailSummedSequence(tuple(bumped), x.tail_sum))
        assert not verdict.attainable and verdict.reason == "off-subspace"

    def test_arm_sequence_is_boundary(self):
        head, _ = tail_cumulants(GEO, GEO)
        head_rest, _ = cumulant_tail_sums(GEO, GEO)
        verdict = member_tail(GEO, GEO, TailSummedSequence(head, head_rest))
        assert not verdict.attainable and verdict.reason == "boundary"

    def test_spatial_sequences(self):
        p = TailSummedSequence.of((1, 2, 3), 4)
        q = TailSummedSequence.of((1, 1, 1), 1)
        head, tail = tail_cumulants(p, q)
        head_rest, tail_rest = cumulant_tail_sums(p, q)
        a, b, c = F(1, 2), F(3), F(2)
        prefix = tuple(
            a * u + b * v + c * h for u, v, h in zip(p.prefix, q.prefix, head)
        )
        x = TailSummedSequence(prefix, a * p.tail_sum + b * q.tail_sum + c * head_rest)
        verdict = member_tail(p, q, x)
        assert verdict.attainable and verdict.certificate.branch == "q1"
        assert verdict.certificate.coeffs == (a, b, c)
        # and through the tail arm
        prefix = tuple(
            a * u + b * v + c * t for u, v, t in zip(p.prefix, q.prefix, tail)
        )
        x = TailSummedSequence(prefix, a * p.tail_sum + b * q.tail_sum + c * tail_rest)
        verdict = member_tail(p, q, x)
        assert verdict.attainable and verdict.certificate.branch == "q2"
        assert verdict.certificate.coeffs == (a, b, c)

    def test_infinite_ratios_need_positive_tail(self):
        x = seq_combo(GEO, GEO, F(1), F(1))
        verdict = member_tail(GEO, GEO, TailSummedSequence(x.prefix, F(0)))
        assert not verdict.attainable and verdict.reason == "non-positive-entry"

    def test_finite_ratios_force_zero_tail(self):
        verdict = member_tail(UNIT3, UNIT3, TailSummedSequence.of((1, 2, 3), 1))
        assert not verdict.attainable and verdict.reason == "off-subspace"

    def test_prefix_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            member_tail(UNIT3, UNIT3, TailSummedSequence.of((1, 2)))

    def test_tail_inconsistent_proportional_prefix_gets_an_exact_q1_certificate(self):
        # prefixes proportional but tails not: the tail row ends the zero chain, so the
        # extended rows are spatial and x = 1/3*head + 1/4*tail = 5/4*ab + 7/8*dc + 1/12*head
        # pins c = 1/12; its apex quad (21,0),(28,0),(0,5/3),(0,5/4) cuts exactly these strips
        p = TailSummedSequence.of((1, 1, 1), F(1, 2))
        q = TailSummedSequence.of((1, 1, 1), F(2))
        x = seq_combo(p, q, F(1, 3), F(1, 4))
        verdict = member_tail(p, q, x)
        assert verdict == Verdict(True, Certificate("q1", (F(5, 4), F(7, 8), F(1, 12))), prefix_certified=True)
        ext = DivisionSpec(p.prefix + (p.tail_sum,), q.prefix + (q.tail_sum,))
        quad = ConvexQuad(pt(21, 0), pt(28, 0), pt(0, F(5, 3)), pt(0, F(5, 4)))
        assert strip_areas(quad, ext) == x.prefix + (x.tail_sum,)


class TestExtendSolution:
    P = (F(1), F(1), F(1))
    PP = (F(1), F(2), F(6))

    def test_reproduces_head_arm(self):
        assert extend_solution(self.P, self.PP, F(1), F(5), 2) == 21

    def test_parallel_direction(self):
        assert extend_solution(self.P, self.PP, F(1), F(1), 2) == 1

    def test_reproduces_tail_arm(self):
        assert extend_solution(self.P, self.PP, F(11), F(10), 2) == 6

    def test_determinant_vanishes(self):
        from test_kernels import det3

        x1, x2 = F(3), F(7)
        x3 = extend_solution(self.P, self.PP, x1, x2, 2)
        assert det3([self.P, self.PP, (x1, x2, x3)]) == 0

    def test_proportional_columns_rejected(self):
        with pytest.raises(DegenerateDenominatorError):
            extend_solution((F(1), F(2), F(3)), (F(2), F(4), F(6)), F(1), F(1), 2)

    def test_negative_ratio_rejected(self):
        with pytest.raises(InvalidInputError):
            extend_solution((1, 2, 3), (1, -1, 2), 1, 2, 2)


class TestStations:
    def test_geometric_sigma_and_bounds(self):
        coeffs = station_coefficients(GEO)
        assert coeffs.sigma[0] == F(3, 2)
        assert coeffs.bounds == (F(1, 2), F(5, 2))

    def test_unit_sigma_matches_plane(self):
        coeffs = station_coefficients(UNIT3)
        assert coeffs.sigma == (F(2),)
        # the progression law for sigma=2 is exactly x3 = 2*x2 - x1
        rep = station_check(UNIT3, TailSummedSequence.of((2, 3, 4)))
        assert rep.progression_ok and rep.accepted

    def test_head_arm_sits_on_the_boundary(self):
        rep = station_check(UNIT3, TailSummedSequence.of((1, 3, 5)))
        assert rep.progression_ok and rep.ratio == 3
        assert not rep.accepted and rep.reason == "boundary"

    def test_finite_ratios_with_a_tail_sum_are_off_subspace(self):
        # the prefix obeys the law, but finite ratios force a zero tail sum
        rep = station_check(UNIT3, TailSummedSequence.of((2, 3, 4), 1))
        assert rep.progression_ok and rep.coefficients.bounds[0] < rep.ratio < rep.coefficients.bounds[1]
        assert not rep.accepted and rep.reason == "off-subspace"

    def test_every_entry_is_screened(self):
        rep = station_check(TailSummedSequence.of((1, 2, 3)), TailSummedSequence.of((1, 0, 2)))
        assert not rep.accepted and rep.reason == "non-positive-entry"

    @given(st.data())
    def test_law_holds_exactly_when_member_tail_accepts(self, data):
        # for positive x with a consistent tail sum the law decides on its own
        ratio = st.builds(F, st.integers(1, 64), st.integers(1, 8))
        p = TailSummedSequence(
            tuple(data.draw(ratio) for _ in range(data.draw(st.integers(3, 8)))),
            data.draw(st.sampled_from((F(0), data.draw(ratio)))),
        )
        coeff = st.one_of(st.just(F(0)), st.builds(F, st.integers(-16, 64), st.integers(1, 8)))
        a, b = data.draw(coeff), data.draw(coeff)
        head, tail = tail_cumulants(p, p)
        head_rest, tail_rest = cumulant_tail_sums(p, p)
        prefix = [a * h + b * t for h, t in zip(head, tail)]
        if data.draw(st.booleans()):
            prefix[data.draw(st.integers(0, p.m - 1))] += data.draw(ratio)
        rest = a * head_rest + b * tail_rest
        assume(all(v > 0 for v in prefix) and (rest > 0) == (p.tail_sum > 0))
        x = TailSummedSequence(tuple(prefix), rest)
        rep = station_check(p, x)
        lo, hi = rep.coefficients.bounds
        assert (rep.progression_ok and lo < rep.ratio < hi) == member_tail(p, p, x).attainable == rep.accepted

    def test_sigma_strictly_increasing(self):
        rng = random.Random(33)
        for _ in range(50):
            m = rng.randint(3, 8)
            p = TailSummedSequence.of(
                [F(rng.randint(1, 12), 2) for _ in range(m)], F(rng.randint(0, 8), 2)
            )
            sigma = station_coefficients(p).sigma
            assert all(a < b for a, b in zip(sigma, sigma[1:]))

    def test_progression_equivalent_to_planar_planes(self):
        # on-plane prefixes satisfy the progression and vice versa
        from quadareas import evaluate_plane, hyperplanes

        rng = random.Random(51)
        for _ in range(60):
            m = rng.randint(3, 6)
            p = TailSummedSequence.of([F(rng.randint(1, 9)) for _ in range(m)])
            spec = DivisionSpec.of(p.prefix, p.prefix)
            planes = hyperplanes(spec)
            x = [F(rng.randint(1, 9)) for _ in range(m)]
            on_plane = all(evaluate_plane(pl, x) == 0 for pl in planes)
            rep = station_check(p, TailSummedSequence.of(x))
            assert rep.progression_ok == on_plane

    def test_progression_on_combinations_and_violation_on_perturbed(self):
        x = seq_combo(GEO, GEO, F(1, 3), F(4))
        rep = station_check(GEO, x)
        assert rep.progression_ok and rep.accepted
        bumped = list(x.prefix)
        bumped[2] += F(1, 7)
        rep = station_check(GEO, TailSummedSequence(tuple(bumped), x.tail_sum))
        assert not rep.progression_ok
