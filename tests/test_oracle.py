import json
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

import quadareas.oracle
import reference
from quadareas import (
    Certificate,
    ConvexQuad,
    DegenerateCollapseError,
    DivisionSpec,
    InvalidInputError,
    ParallelMarker,
    Point,
    Verdict,
    apex_quad,
    classify,
    cross_validate,
    frame,
    member,
    member_via_collapse,
    sample_convex_quads,
    sample_parallel_family,
    strip_areas,
)
from quadareas.oracle import _affine_image, _Stream

UNIT = DivisionSpec.of((1, 1, 1), (1, 1, 1))
SPATIAL = DivisionSpec.of((1, 2, 3), (1, 1, 1))
REPORTS = json.loads((Path(__file__).parent / "fixtures" / "oracle_reports.json").read_text())


class TestSampleConvexQuads:
    def test_unit_spec_run_is_clean(self):
        report = sample_convex_quads(UNIT, 100, 42)
        assert report.total == 100 and report.accepted == 100
        assert report.violations == ()

    def test_spatial_spec_run_is_clean(self):
        report = sample_convex_quads(SPATIAL, 100, 7)
        assert report.violations == ()

    def test_deterministic_reports(self):
        first = sample_convex_quads(SPATIAL, 40, 3)
        second = sample_convex_quads(SPATIAL, 40, 3)
        assert first == second
        assert sample_convex_quads(SPATIAL, 1, 5) == sample_convex_quads(SPATIAL, 1, 5)

    def test_serializable(self):
        import json

        report = sample_convex_quads(UNIT, 10, 0)
        payload = json.loads(json.dumps(report.to_jsonable()))
        assert payload["total"] == 10 and payload["violations"] == []


class TestSampleParallelFamily:
    def test_audited_accepts_all(self):
        for spec in (UNIT, SPATIAL, DivisionSpec.of((1, 2), (2, 1))):
            report = sample_parallel_family(spec, 100, 1, "audited")
            assert report.accepted == 100, [v.reason for v in report.violations[:3]]

    def test_strict_rejects_unequal_scalings_on_spatial_specs(self):
        report = sample_parallel_family(SPATIAL, 100, 1, "strict")
        audited = sample_parallel_family(SPATIAL, 100, 1, "audited")
        assert audited.accepted == 100
        assert report.total == 100
        # every rejection is a boundary point: a face tuple with unequal scalings
        assert all(v.reason == "rejected: boundary" for v in report.violations)
        assert report.accepted + len(report.violations) == 100
        assert len(report.violations) > 90  # equal draws are rare but possible
        # the accepted samples are the equal draws of the documented stream
        assert report.accepted == reference.strict_parallel_accepted(1, 100)

    def test_hand_computed_trapezoid_sample(self):
        spec = DivisionSpec.of((1, 2), (2, 1))
        verdict = member(spec, (F(2), F(5, 2)), "audited")
        assert verdict.attainable

    def test_strict_mode_on_proportional_planar_spec_accepts_everything(self):
        # proportional ratio vectors make every trapezoid tuple sit on the
        # equal-scaling ray, so the two modes agree here
        report = sample_parallel_family(UNIT, 100, 1, "strict")
        assert report.accepted == 100


class TestCrossValidate:
    def test_agreement_on_spatial_length_four(self):
        spec = DivisionSpec.of((1, 2, 3, 4), (1, 1, 1, 1))
        report = cross_validate(spec, 200, 3)
        assert report.accepted == 200 and not report.violations

    def test_rejects_planar_specs(self):
        with pytest.raises(InvalidInputError):
            cross_validate(DivisionSpec.of((1, 1, 1, 1), (1, 1, 1, 1)), 10, 0)

    def test_rejects_short_specs(self):
        with pytest.raises(InvalidInputError):
            cross_validate(SPATIAL, 10, 0)

    def test_deterministic(self):
        spec = DivisionSpec.of((1, 2, 3, 4), (1, 1, 1, 1))
        assert cross_validate(spec, 25, 9) == cross_validate(spec, 25, 9)

    def test_a_pivot_whose_folds_are_both_planar_is_skipped(self, monkeypatch):
        # pivot 3 of this spec has a nonzero discriminant but two planar folds (test_both_folds_singular_pinned)
        spec = DivisionSpec.of((6, 3, 5, 4, 6), (4, 4, 4, 3, 1))
        skipped = []

        def folded(spec, x, pivot, mode):
            try:
                return member_via_collapse(spec, x, pivot, mode)
            except DegenerateCollapseError:
                skipped.append(pivot)
                raise

        monkeypatch.setattr(quadareas.oracle, "member_via_collapse", folded)
        for seed in (0, 1):
            report = cross_validate(spec, 10, seed)
            assert report.accepted == 10 and report.violations == ()
        assert set(skipped) == {3}


def digit_spec(digits, n):
    """A spec with n digits-long numerators and denominators per side, or n grid entries k/8 per side
    when digits is None, pinned by (digits, n)."""
    rng = random.Random(f"oracle/{digits}/{n}")
    if digits is None:
        return DivisionSpec(*(tuple(F(rng.randint(1, 64), 8) for _ in range(n)) for _ in "pq"))
    lo, hi = 10 ** (digits - 1), 10 ** digits
    return DivisionSpec(*(tuple(F(rng.randrange(lo, hi), rng.randrange(lo, hi)) for _ in range(n)) for _ in "pq"))


class TestBigDigitSpecs:
    @pytest.mark.parametrize("digits, n", ((100, 8), (100, 32), (30, 64)))
    def test_sampler_runs_are_clean(self, digits, n):
        spec = digit_spec(digits, n)
        for report in (sample_convex_quads(spec, 6, 1), sample_parallel_family(spec, 6, 1)):
            assert report.accepted == 6 and report.violations == ()

    def test_cross_validation_is_clean(self):
        # n = 8 only: the fold decisions take seconds at n = 32
        report = cross_validate(digit_spec(100, 8), 6, 1)
        assert report.accepted == 6 and report.violations == ()


class TestCoverage:
    def test_rotation_covers_both_branches_and_affine_images(self):
        # replicate the generation contract for the first few indexes
        from quadareas.oracle import _Stream

        spec = SPATIAL
        report = sample_convex_quads(spec, 6, 11)
        assert report.violations == ()
        stream = _Stream(11, 0)
        p0, p0p, s = stream.grid(), stream.grid(), stream.grid()
        from quadareas import apex_quad, strip_areas

        quad = apex_quad(spec, p0, p0p, s, "q1")
        x = strip_areas(quad, spec)
        verdict = member(spec, x)
        assert verdict.certificate.branch == "q1"
        assert verdict.certificate.coeffs == (s * p0p, s * p0, s)


class TestIntegerSamples:
    """The oracle's samples built in ints against the Fraction expressions they replaced, on the same
    draw streams: grid and 100-digit specs, n = 4-12."""

    @staticmethod
    def ref_affine_image(stream, quad):
        """_affine_image as it was: Fraction draws and each coordinate m11*x + m12*y + tx."""
        while True:
            m11, m12, m21, m22 = (stream.grid() for _ in range(4))
            if m11 * m22 - m12 * m21 > 0:
                break
        tx, ty = stream.signed_grid(), stream.signed_grid()
        return ConvexQuad(*(Point(m11 * v.x + m12 * v.y + tx, m21 * v.x + m22 * v.y + ty) for v in quad.vertices))

    @pytest.mark.parametrize("digits", (None, 100))
    @pytest.mark.parametrize("n", range(4, 13))
    def test_affine_image_matches_the_fraction_map(self, digits, n):
        spec = digit_spec(digits, n)
        for index in range(12):
            stream = _Stream(n, index)
            quad = apex_quad(spec, stream.grid(), stream.grid(), stream.grid(), ("q1", "q2")[index % 2])
            twin = _Stream(n, index)
            twin.state = stream.state
            assert _affine_image(stream, quad) == self.ref_affine_image(twin, quad)
            assert stream.state == twin.state

    @staticmethod
    def ref_cross_tuple(spec, stream, index):
        """cross_validate's x as it was: Fraction draws combined over ``frame(spec)``."""
        fr = frame(spec)
        a, b, c = stream.grid(), stream.grid(), stream.grid()
        kind = index % 5
        if kind == 3:
            c = 0
        elif kind == 4:
            b, c = a, 0
        arm = fr.tail if kind == 1 else fr.head
        x = tuple(a * u + b * v + c * w for u, v, w in zip(fr.ab, fr.dc, arm))
        if kind == 2:
            i = stream.next_value(spec.n)
            x = (*x[:i], x[i] + stream.grid(), *x[i + 1:])
        return x

    @pytest.mark.parametrize("digits", (None, 100))
    @pytest.mark.parametrize("n", range(4, 13))
    def test_cross_tuple_matches_the_frame_combination(self, digits, n, monkeypatch):
        """Every index % 5 kind (head and tail arm, the bump, c = 0, b = a), read from the x each
        sample hands to member; the stand-ins keep the folds out, so no sample is decided."""
        spec = digit_spec(digits, n)
        assert classify(spec).spatial
        drawn = []
        no = Verdict(False, reason="boundary")

        def recording_member(spec, x, mode="audited"):
            drawn.append(x)
            return no

        monkeypatch.setattr(quadareas.oracle, "member", recording_member)
        monkeypatch.setattr(quadareas.oracle, "member_via_collapse", lambda spec, x, pivot, mode="audited": no)
        count = 15
        cross_validate(spec, count, n)
        assert drawn == [self.ref_cross_tuple(spec, _Stream(n, index), index) for index in range(count)]


class TestStoredReports:
    """The draw-stream contract as stored data: each report, and the x that every sample hands
    to ``member`` in draw order, for all three families, both modes, n = 3-8 and two seeds."""

    @pytest.mark.parametrize("stored", REPORTS, ids=lambda e: f"{e['family']}-n{len(e['report']['p'])}-"
                             f"{e['report']['mode']}-seed{e['report']['seed']}")
    def test_report_and_draws_match_the_stored_ones(self, stored, monkeypatch):
        drawn = []

        def recording_member(spec, x, mode="audited"):
            drawn.append([str(e) for e in x])
            return member(spec, x, mode)

        monkeypatch.setattr(quadareas.oracle, "member", recording_member)
        report = stored["report"]
        spec = DivisionSpec.of(report["p"], report["pp"])
        count, seed = stored["count"], report["seed"]
        if stored["family"] == "quads":
            got = sample_convex_quads(spec, count, seed)
        elif stored["family"] == "parallel":
            got = sample_parallel_family(spec, count, seed, report["mode"])
        else:
            got = cross_validate(spec, count, seed)
        assert drawn == stored["drawn"]
        assert got.to_jsonable() == report


def certified_as(change):
    """A stand-in for ``member`` that accepts with the real certificate passed through change."""
    return lambda spec, x, mode="audited": Verdict(True, change(member(spec, x, mode).certificate))


SPATIAL4 = DivisionSpec.of((1, 2, 3, 4), (1, 1, 1, 1))


class TestViolationPaths:
    """Each reason a sampler records, forced by a stand-in for the check that reports it."""

    @pytest.mark.parametrize("name, stand_in, run, reasons", (
        pytest.param("member", lambda spec, x, mode="audited": Verdict(False, reason="boundary"),
                     lambda: sample_convex_quads(SPATIAL, 3, 0), ["rejected: boundary"] * 3, id="quads-rejected"),
        pytest.param("apex_of", lambda quad, spec: ParallelMarker(),
                     lambda: sample_convex_quads(SPATIAL, 3, 0), ["apex construction came out parallel"] * 3,
                     id="quads-parallel-apex"),
        pytest.param("member", certified_as(lambda cert: Certificate("q2", cert.coeffs)),
                     lambda: sample_convex_quads(SPATIAL, 1, 0), ["branch q2 != geometric q1"],
                     id="quads-branch"),
        pytest.param("member", certified_as(lambda cert: Certificate(cert.branch, tuple(2 * c for c in cert.coeffs))),
                     lambda: sample_convex_quads(SPATIAL, 3, 0),
                     ["certificate coefficients differ from the apex parameters"] * 3, id="quads-coefficients"),
        pytest.param("member", certified_as(lambda cert: Certificate(cert.branch, cert.coeffs)),
                     lambda: sample_convex_quads(UNIT, 3, 0),
                     ["geometric area unit outside the certified re-decomposition range"] * 3, id="quads-interval"),
        pytest.param("member", lambda spec, x, mode="audited": Verdict(False, reason="boundary"),
                     lambda: sample_parallel_family(SPATIAL, 3, 0), ["rejected: boundary"] * 3,
                     id="parallel-rejected"),
        pytest.param("apex_of", lambda quad, spec: None,
                     lambda: sample_parallel_family(SPATIAL, 3, 0), ["trapezoid construction not parallel"] * 3,
                     id="parallel-not-parallel"),
        pytest.param("member_via_collapse", lambda spec, x, pivot, mode="audited": Verdict(False, reason="boundary"),
                     lambda: cross_validate(SPATIAL4, 3, 0), ["fold at pivot 2 disagrees"] * 3, id="cross-fold"),
    ))
    def test_each_reason_is_recorded_per_sample(self, monkeypatch, name, stand_in, run, reasons):
        monkeypatch.setattr(quadareas.oracle, name, stand_in)
        report = run()
        assert [v.reason for v in report.violations] == reasons
        assert report.accepted == report.total - len(reasons)
        for violation in report.violations:
            if violation.quad is not None:
                assert strip_areas(violation.quad, report.spec) == violation.x

    def test_the_first_disagreeing_pivot_is_the_only_one_recorded(self, monkeypatch):
        spec = DivisionSpec.of((1, 2, 3, 4, 5), (1, 1, 2, 1, 1))
        assert len(cross_validate(spec, 1, 0).violations) == 0

        def disagree_from_pivot_3(spec, x, pivot, mode="audited"):
            return Verdict(False, reason="boundary") if pivot >= 3 else member(spec, x, mode)

        monkeypatch.setattr(quadareas.oracle, "member_via_collapse", disagree_from_pivot_3)
        report = cross_validate(spec, 1, 0)
        assert [(v.quad, v.reason) for v in report.violations] == [(None, "fold at pivot 3 disagrees")]

    @pytest.mark.parametrize("count", (0, -1))
    @pytest.mark.parametrize("sampler", (sample_convex_quads, sample_parallel_family, cross_validate))
    def test_count_below_one_is_refused(self, sampler, count):
        with pytest.raises(InvalidInputError) as caught:
            sampler(SPATIAL4, count, 0)
        assert str(caught.value) == "count must be at least 1"
