import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from quadareas import (
    DivisionSpec,
    InvalidInputError,
    NoValidContinuationError,
    classify,
    continue_degenerate,
    evaluate_plane,
    frame,
    hyperplanes,
    member,
    parallel_diagnosis,
    proportional_bounds,
)

UNIT = DivisionSpec.of((1, 1, 1), (1, 1, 1))
SPATIAL = DivisionSpec.of((1, 2, 3), (1, 1, 1))
SKEW = DivisionSpec.of((1, 1, 1), (1, 2, 6))
N2 = DivisionSpec.of((1, 2), (2, 1))


def combo(spec, a, b, c=None, arm="head"):
    fr = frame(spec)
    vec = fr.head if arm == "head" else fr.tail
    if c is None:
        return tuple(a * u + b * v for u, v in zip(fr.ab, fr.dc))
    return tuple(a * u + b * v + c * w for u, v, w in zip(fr.ab, fr.dc, vec))


class TestPlanarMembership:
    def test_unit_accepts_1_2_3(self):
        v = member(UNIT, (F(1), F(2), F(3)))
        assert v.attainable
        assert v.certificate.branch == "degenerate"
        assert v.certificate.coeffs == (F(7, 12), F(1, 12))

    def test_unit_rejects_off_plane(self):
        v = member(UNIT, (F(1), F(1), F(5)))
        assert not v.attainable and v.reason == "off-subspace"

    def test_n2_accepts(self):
        v = member(N2, (F(4), F(5)))
        assert v.attainable and v.certificate.coeffs == (F(3, 5), F(2, 5))

    def test_n2_negative_coefficient(self):
        v = member(N2, (F(1), F(10)))
        assert not v.attainable and v.reason == "negative-coefficient"

    def test_arm_point_is_boundary(self):
        fr = frame(UNIT)
        v = member(UNIT, fr.head)
        assert not v.attainable and v.reason == "boundary"

    def test_non_positive_entry_rejected_first(self):
        v = member(UNIT, (F(0), F(0), F(0)))
        assert not v.attainable and v.reason == "non-positive-entry"

    def test_modes_coincide_in_planar_case(self):
        rng = random.Random(8)
        fr = frame(SKEW)
        for _ in range(100):
            a = F(rng.randint(-8, 16), 8)
            b = F(rng.randint(-8, 16), 8)
            x = tuple(a * h + b * t for h, t in zip(fr.head, fr.tail))
            if any(e <= 0 for e in x):
                continue
            assert member(SKEW, x, "strict") == member(SKEW, x, "audited")


class TestSpatialMembership:
    def test_q1_unit_coefficients(self):
        v = member(SPATIAL, (F(3), F(8), F(16)))
        assert v.attainable and v.certificate.branch == "q1"
        assert v.certificate.coeffs == (F(1), F(1), F(1))

    def test_face_point_split_by_mode(self):
        x = combo(SPATIAL, F(2), F(1))
        assert x == (F(3), F(5), F(7))
        audited = member(SPATIAL, x, "audited")
        assert audited.attainable and audited.certificate.branch == "face"
        assert audited.certificate.coeffs == (F(2), F(1))
        strict = member(SPATIAL, x, "strict")
        assert not strict.attainable and strict.reason == "boundary"

    def test_ray_point_accepted_in_both_modes(self):
        x = combo(SPATIAL, F(3, 2), F(3, 2))
        for mode in ("strict", "audited"):
            v = member(SPATIAL, x, mode)
            assert v.attainable and v.certificate.branch == "ray"
            assert v.certificate.coeffs == (F(3, 2),)

    def test_q2_certificate(self):
        x = combo(SPATIAL, F(1), F(2), F(3), arm="tail")
        v = member(SPATIAL, x)
        assert v.attainable and v.certificate.branch == "q2"
        assert v.certificate.coeffs == (F(1), F(2), F(3))

    def test_open_subspace_check_length_four(self):
        spec = DivisionSpec.of((1, 2, 3, 4), (1, 1, 1, 1))
        assert member(spec, (F(3), F(8), F(16), F(27))).attainable
        v = member(spec, (F(3), F(8), F(16), F(28)))
        assert not v.attainable and v.reason == "off-subspace"

    def test_edge_of_trihedral_angle_is_boundary(self):
        x = combo(SPATIAL, F(1), F(0), F(1))
        v = member(SPATIAL, x)
        assert not v.attainable and v.reason == "boundary"

    def test_dimension_mismatch_raises(self):
        with pytest.raises(InvalidInputError):
            member(SPATIAL, (F(1), F(2)))

    def test_no_tuple_has_both_apex_branches(self):
        rng = random.Random(12)
        for _ in range(200):
            a, b, c = (F(rng.randint(1, 32), 8) for _ in range(3))
            arm = "head" if rng.random() < 0.5 else "tail"
            x = combo(SPATIAL, a, b, c, arm)
            v = member(SPATIAL, x)
            assert v.attainable
            assert v.certificate.branch == ("q1" if arm == "head" else "q2")


class TestModeMonotonicity:
    @given(
        st.tuples(
            st.fractions(min_value=F(-2), max_value=F(4), max_denominator=8),
            st.fractions(min_value=F(-2), max_value=F(4), max_denominator=8),
            st.fractions(min_value=F(-2), max_value=F(4), max_denominator=8),
        )
    )
    def test_strict_subset_of_audited(self, coeffs):
        a, b, c = coeffs
        for spec in (SPATIAL, UNIT, SKEW):
            x = combo(spec, a, b, c)
            if any(e <= 0 for e in x):
                continue
            if member(spec, x, "strict").attainable:
                assert member(spec, x, "audited").attainable


class TestConeProperty:
    def test_scaling_preserves_membership_and_scales_certificates(self):
        rng = random.Random(77)
        for spec in (SPATIAL, UNIT, N2, SKEW):
            fr = frame(spec)
            for _ in range(40):
                a, b = F(rng.randint(1, 16), 4), F(rng.randint(1, 16), 4)
                x = tuple(a * h + b * t for h, t in zip(fr.head, fr.tail))
                t_scale = F(rng.randint(1, 24), 8)
                base = member(spec, x)
                scaled = member(spec, tuple(t_scale * e for e in x))
                assert base.attainable and scaled.attainable
                assert scaled.certificate.branch == base.certificate.branch
                assert scaled.certificate.coeffs == tuple(
                    t_scale * v for v in base.certificate.coeffs
                )


def _grid(rng):
    return F(rng.randint(1, 64), 8)


def _random_spec(rng, family, n):
    """A random spatial, proportional or skew-planar spec of length n."""
    while True:
        if family == "proportional":
            p = tuple(_grid(rng) for _ in range(n))
            lam = _grid(rng)
            return DivisionSpec(p, tuple(lam * v for v in p))
        if family == "spatial":
            spec = DivisionSpec(
                tuple(_grid(rng) for _ in range(n)), tuple(_grid(rng) for _ in range(n))
            )
            if classify(spec).spatial:
                return spec
            continue
        p, q = [_grid(rng), _grid(rng)], [_grid(rng), _grid(rng)]
        try:
            while len(p) < n:
                q.append(_grid(rng))
                p.append(continue_degenerate(p, q[:-1], q[-1]))
        except NoValidContinuationError:
            continue
        spec = DivisionSpec(tuple(p), tuple(q))
        if not spec.proportional():
            return spec


class TestSpanDecidedComponentwise:
    """The componentwise check alone rejects every tuple off the span."""

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from(["spatial", "proportional", "skew"]),
        st.integers(min_value=3, max_value=12),
    )
    def test_plane_violations_are_off_subspace(self, seed, family, n):
        rng = random.Random(seed)
        spec = _random_spec(rng, family, n)
        planes = hyperplanes(spec)
        fr = frame(spec)
        arm = fr.head if rng.random() < 0.5 else fr.tail
        a, b, c = _grid(rng), _grid(rng), _grid(rng)
        on_span = tuple(a * u + b * v + c * w for u, v, w in zip(fr.ab, fr.dc, arm))
        bumped = list(on_span)
        bumped[rng.randrange(n)] += F(rng.randint(1, 8), 8)
        candidates = [on_span, tuple(bumped), tuple(_grid(rng) for _ in range(n))]
        for x in candidates:
            off_span = any(evaluate_plane(plane, x) != 0 for plane in planes)
            for mode in ("audited", "strict"):
                verdict = member(spec, x, mode)
                if off_span:
                    assert not verdict.attainable and verdict.reason == "off-subspace"
                else:
                    assert verdict.reason != "off-subspace"
        assert all(evaluate_plane(plane, on_span) == 0 for plane in planes)
        if classify(spec).spatial:
            assert member(spec, on_span).attainable


class TestProportionalBounds:
    def test_unit(self):
        plane, window = proportional_bounds((F(1), F(1), F(1)))
        assert plane == (1, -2, 1)
        assert window == (F(1, 5), F(5))

    def test_one_two_three(self):
        _, window = proportional_bounds((F(1), F(2), F(3)))
        assert window == (F(9, 11), F(27))

    def test_one_one_two(self):
        _, window = proportional_bounds((F(1), F(1), F(2)))
        assert window == (F(4, 7), F(12))

    def test_non_positive_ratio_is_named(self):
        for p, message in (((1, -1, 2), "p entry 2 must be positive"), ((0, 1, 1), "p entry 1 must be positive")):
            with pytest.raises(InvalidInputError, match=message):
                proportional_bounds(p)
        with pytest.raises(InvalidInputError, match="expects three positive ratios"):
            proportional_bounds((1, 2))

    def test_equivalence_with_membership(self):
        p = (F(1), F(2), F(3))
        spec = DivisionSpec.of(p, p)
        plane, (lo, hi) = proportional_bounds(p)
        rng = random.Random(31)
        for _ in range(300):
            x1 = F(rng.randint(1, 40), 8)
            ratio = F(rng.randint(1, 280), 10)
            x3 = ratio * x1
            # put x on the plane by solving for the middle coordinate
            x2 = (plane[0] * x1 + plane[2] * x3) / -plane[1]
            x = (x1, x2, x3)
            expected = x2 > 0 and lo < ratio < hi
            assert member(spec, x).attainable == expected
        off = (F(1), F(1), F(2))
        assert sum(c * v for c, v in zip(plane, off)) != 0
        assert not member(spec, off).attainable


class TestParallelDiagnosis:
    def test_parallel_direction_is_forced(self):
        assert parallel_diagnosis(SPATIAL, (F(2), F(3), F(4))) == "forced-parallel"

    def test_apex_point_is_not_forced(self):
        assert parallel_diagnosis(SPATIAL, (F(3), F(8), F(16))) == "not-forced"

    def test_proportional_ray_is_forced(self):
        assert parallel_diagnosis(UNIT, (F(1), F(1), F(1))) == "forced-parallel"

    def test_rejected_tuple(self):
        assert parallel_diagnosis(UNIT, (F(1), F(1), F(5))) == "not-attainable"

    def test_skew_planar_ray_admits_both_apex_families(self):
        # the parallel direction of a skew planar spec decomposes positively
        # and re-decomposes through either apex family
        fr = frame(SKEW)
        x = tuple(a + d for a, d in zip(fr.ab, fr.dc))
        assert x == (F(2), F(3), F(7))
        v = member(SKEW, x)
        assert v.attainable
        assert v.certificate.coeffs == (F(13, 45), F(7, 45))
        assert v.certificate.q1_interval is not None
        assert v.certificate.q2_interval is not None
        assert parallel_diagnosis(SKEW, x) == "not-forced"

    def test_proportional_equal_leading_ratio_forces_parallel(self):
        # x1:x2 = p1:p2 on a proportional spec pins the equal-scaling ray
        rng = random.Random(2)
        p = (F(1), F(2), F(3))
        spec = DivisionSpec.of(p, p)
        fr = frame(spec)
        for _ in range(100):
            a, b = F(rng.randint(1, 16), 8), F(rng.randint(1, 16), 8)
            x = tuple(a * h + b * t for h, t in zip(fr.head, fr.tail))
            ratio_matches = x[0] * p[1] == x[1] * p[0]
            assert ratio_matches == (parallel_diagnosis(spec, x) == "forced-parallel")


class TestDegenerateIntervals:
    def test_interval_endpoints_skew(self):
        v = member(SKEW, (F(2), F(3), F(7)))
        q1 = v.certificate.q1_interval
        q2 = v.certificate.q2_interval
        assert (q1.lo, q1.hi) == (F(0), F(1, 4))
        assert (q2.lo, q2.hi) == (F(0), F(1, 12))

    def test_proportional_interval_is_a_point(self):
        v = member(UNIT, (F(1), F(2), F(3)))
        q1 = v.certificate.q1_interval
        assert q1.is_point and q1.lo == F(1, 2)
        assert v.certificate.q2_interval is None
