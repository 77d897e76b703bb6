"""Input validation and boundary behavior across the public surface."""
from fractions import Fraction as F

import pytest

import quadareas
from quadareas import (
    Certificate,
    ConvexQuad,
    DivisionSpec,
    Interval,
    InvalidInputError,
    ParallelMarker,
    Point,
    TailSummedSequence,
    Verdict,
    apex_quad,
    collapse,
    continue_degenerate,
    cumulants,
    evaluate_plane,
    extend_solution,
    frame,
    member,
    member_tail,
    member_via_collapse,
    pt,
    sample_parallel_family,
    station_coefficients,
    strip_areas,
    synthesize_witness,
    to_fraction,
)
from quadareas.cli import main


class TestDivisionSpecValidation:
    def test_single_segment_rejected(self):
        with pytest.raises(InvalidInputError):
            DivisionSpec.of((1,), (1,))

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            DivisionSpec.of((1, 2), (1, 2, 3))

    def test_zero_ratio_named(self):
        with pytest.raises(InvalidInputError) as info:
            DivisionSpec.of((1, 0, 2), (1, 1, 1))
        assert "entry 2" in str(info.value)

    def test_negative_ratio(self):
        with pytest.raises(InvalidInputError):
            DivisionSpec.of((1, 1), (1, -3))


SPATIAL4 = DivisionSpec.of((1, 2, 3, 4), (1, 1, 1, 1))
SHORT = TailSummedSequence.of((1, 2))
SPATIAL3 = DivisionSpec.of((1, 2, 3), (1, 1, 1))
FACE_X = (F(5), F(7), F(9))  # 2*ab + 3*dc on SPATIAL3: a face tuple, which only audited mode accepts


class TestInputErrors:
    """Each library entry point refuses a bad argument with its own message."""

    @pytest.mark.parametrize("call, message", (
        pytest.param(lambda: collapse(SPATIAL4, (1, 2, 3, 4), 2, "q3"), "branch must be 'q1' or 'q2'",
                     id="collapse-branch"),
        pytest.param(lambda: member_via_collapse(SPATIAL4, (1, 2, 3), 2),
                     "area tuple length does not match the division spec", id="member_via_collapse-length"),
        pytest.param(lambda: member_via_collapse(DivisionSpec.of((1, 1, 1, 1), (1, 1, 1, 1)), (1, 1, 1, 1), 2),
                     "folding applies to spatial specs only", id="member_via_collapse-planar"),
        pytest.param(lambda: member_tail(SHORT, SHORT, SHORT),
                     "tail-summed decisions need a prefix of length at least 3", id="member_tail-short"),
        pytest.param(lambda: extend_solution((1, 2, 3), (1, 1, 1), 1, 1, 3),
                     "index out of range for the extension formula", id="extend_solution-index"),
        pytest.param(lambda: station_coefficients(SHORT), "stations need a prefix of length at least 3",
                     id="station_coefficients-short"),
        pytest.param(lambda: evaluate_plane((1, 2, 3), (F(1), F(2))), "plane and point have different dimensions",
                     id="evaluate_plane-dimensions"),
        pytest.param(lambda: evaluate_plane((1, 2, 3), (0.5, 1, 1)), "cannot interpret 0.5 as a rational",
                     id="evaluate_plane-float"),
        pytest.param(lambda: evaluate_plane((0.5, 1, 1), (1, 2, 3)), "cannot interpret 0.5 as a rational",
                     id="evaluate_plane-float-plane"),
        pytest.param(lambda: cumulants([1, 2], [1, 2, 3]), "ratio tuples must have the same length",
                     id="cumulants-lengths"),
        pytest.param(lambda: cumulants([1.5, 2], [1, 2]), "cannot interpret 1.5 as a rational",
                     id="cumulants-float"),
        pytest.param(lambda: cumulants([1, 2], [1, 2], -5), "a tail sum cannot be negative",
                     id="cumulants-negative-tail"),
        pytest.param(lambda: continue_degenerate((1, 1), (1, 1), 0), "the next ratio must be positive",
                     id="continue_degenerate-next"),
        pytest.param(lambda: to_fraction(1.5), "cannot interpret 1.5 as a rational", id="to_fraction-float"),
        pytest.param(lambda: DivisionSpec((1, 2), (F(1), F(2))), "p entry 1 is not a rational",
                     id="DivisionSpec-int-entries"),
    ))
    def test_refusal_names_the_mistake(self, call, message):
        with pytest.raises(InvalidInputError) as caught:
            call()
        assert str(caught.value) == message

    @pytest.mark.parametrize("call, mode", (
        pytest.param(lambda mode: member(SPATIAL3, FACE_X, mode), "Audited", id="member"),
        # a non-positive x and a planar spec are refused by the mode first
        pytest.param(lambda mode: member_tail(*(TailSummedSequence.of((1, 2, 3)),) * 2,
                                              TailSummedSequence.of((1, -2, 3)), mode), "x", id="member_tail"),
        pytest.param(lambda mode: member_via_collapse(DivisionSpec.of((1, 1, 1, 1), (1, 1, 1, 1)), (1, 1, 1, 1), 2,
                                                      mode), "Strict", id="member_via_collapse"),
        pytest.param(lambda mode: synthesize_witness(SPATIAL3, FACE_X, mode), "Audited", id="synthesize_witness"),
        pytest.param(lambda mode: sample_parallel_family(SPATIAL3, 3, 0, mode), "bogus",
                     id="sample_parallel_family"),
    ))
    def test_a_mode_other_than_strict_or_audited_is_refused(self, call, mode):
        with pytest.raises(InvalidInputError) as caught:
            call(mode)
        assert str(caught.value) == f"mode must be 'strict' or 'audited', got {mode!r}"


class TestRationalParsing:
    def test_accepts_integers_and_fractions(self):
        assert to_fraction("4/6") == F(2, 3)
        assert to_fraction("-7") == F(-7)

    def test_rejects_decimals(self):
        with pytest.raises(InvalidInputError):
            to_fraction("1.5")

    def test_rejects_zero_denominator(self):
        with pytest.raises(InvalidInputError):
            to_fraction("1/0")

    def test_rejects_garbage(self):
        with pytest.raises(InvalidInputError):
            to_fraction("a/b")

    def test_any_whitespace_around_the_slash(self):
        assert to_fraction("3 /\t4") == F(3, 4)

    @pytest.mark.parametrize("text", ("\u0661", "\u0661/1", "1/\u0661", "-\u0661", "\uff13/4"))
    def test_ascii_digits_only(self, text):
        with pytest.raises(InvalidInputError, match="malformed rational literal"):
            to_fraction(text)

    def test_non_ascii_digits_exit_1_on_the_command_line(self, capsys):
        assert main(["member", "--p", "\u0661,2,3", "--pp", "1,2,3", "--x", "1,2,3"]) == 1
        assert capsys.readouterr().err == "error: malformed rational literal '\u0661'\n"


class TestSequenceParsing:
    def test_malformed_suffix(self):
        with pytest.raises(InvalidInputError):
            TailSummedSequence.parse("1,2 | rest=3")

    def test_empty_prefix(self):
        with pytest.raises(InvalidInputError):
            TailSummedSequence.parse(" | tail=1")


class TestEmptyFields:
    """An empty field is a malformed literal, never a dropped one; a body with no literal is an empty prefix."""

    @pytest.mark.parametrize("tup", ("1,,2", ",1,2", "1,2,", "1,,2 | tail=1"))
    @pytest.mark.parametrize("option", ("--p", "--pp", "--x"))
    def test_empty_tuple_entry_is_an_input_error(self, capsys, option, tup):
        argv = {"--p": "1,1,1", "--pp": "1,1,1", "--x": "1,2,3", option: tup}
        for verb in ("member", "reduce"):
            folding = ("--pivot", "2", "--branch", "q1") if verb == "reduce" else ()
            code = main([verb, *(part for item in argv.items() for part in item), *folding])
            assert (code, *capsys.readouterr()) == (1, "", "error: malformed rational literal ''\n")

    def test_trailing_semicolon_in_quad_is_an_input_error(self, capsys):
        code = main(["areas", "--p", "1,1,1", "--pp", "1,1,1", "--quad", "0,0;1,0;1,1;0,1;"])
        assert (code, *capsys.readouterr()) == (1, "", "error: a point is written as 'x,y', got ''\n")

    @pytest.mark.parametrize("text", ("", " | tail=1"))
    def test_empty_prefix_is_still_a_clean_error(self, capsys, text):
        code = main(["member", "--p", text, "--pp", "1,1,1", "--x", "1,2,3"])
        assert (code, *capsys.readouterr()) == (1, "", "error: a sequence needs a nonempty prefix\n")


class TestQuadParsing:
    def test_wrong_point_count(self):
        with pytest.raises(InvalidInputError):
            ConvexQuad.parse("0,0;1,0;1,1")

    def test_round_trip(self):
        quad = ConvexQuad.parse("2,0;8,0;0,4;0,1")
        assert ConvexQuad.parse(quad.text()) == quad


class TestApexQuadValidation:
    SPEC = DivisionSpec.of((1, 2), (2, 1))

    def test_invalid_branch(self):
        with pytest.raises(InvalidInputError):
            apex_quad(self.SPEC, F(1), F(1), F(1), "q3")

    def test_non_positive_parameters(self):
        for bad in ((F(0), F(1), F(1)), (F(1), F(-1), F(1)), (F(1), F(1), F(0))):
            with pytest.raises(InvalidInputError):
                apex_quad(self.SPEC, *bad)


class TestMembershipEdges:
    def test_zero_middle_entry(self):
        v = member(DivisionSpec.of((1, 1, 1), (1, 1, 1)), (F(1), F(0), F(1)))
        assert not v.attainable and v.reason == "non-positive-entry"

    def test_q2_witness_for_two_segments(self):
        spec = DivisionSpec.of((1, 2), (2, 1))
        fr = frame(spec)
        x = tuple(F(1, 2) * h + 2 * t for h, t in zip(fr.head, fr.tail))
        out = synthesize_witness(spec, x)
        assert out.construction == "apex-q2"
        assert strip_areas(out.quad, spec) == x


class TestInterval:
    def test_open_contains_excludes_endpoints(self):
        window = Interval(F(1), F(3))
        assert window.contains(F(2))
        assert not window.contains(F(1))
        assert not window.contains(F(3))

    def test_point_interval(self):
        point = Interval(F(5, 2), F(5, 2))
        assert point.is_point
        assert point.contains(F(5, 2))
        assert not point.contains(F(2))


class TestRecordConstructors:
    """A record with no ``__init__`` of its own gets one built from its annotated fields."""

    @pytest.mark.parametrize("cls, args", (
        (DivisionSpec, ((F(1), F(2)), (F(3), F(1)))),
        (ConvexQuad, (pt(0, 0), pt(2, 0), pt(1, 1), pt(0, 1))),
    ))
    def test_construction_calls_the_check_hook_on_the_class(self, monkeypatch, cls, args):
        seen = []
        check = cls.__post_init__
        monkeypatch.setattr(cls, "__post_init__", lambda self: seen.append(self) or check(self))
        built = cls(*args)
        assert seen == [built]
        monkeypatch.setattr(cls, "__post_init__", lambda self: seen.append("replaced"))
        cls(*args)
        assert seen == [built, "replaced"]

    @pytest.mark.parametrize("call, message", (
        (lambda: Interval(F(1)), "Interval.__init__() missing 1 required positional argument: 'hi'"),
        (lambda: Verdict(), "Verdict.__init__() missing 1 required positional argument: 'attainable'"),
        (lambda: Certificate("q1", (), bogus=1), "Certificate.__init__() got an unexpected keyword argument 'bogus'"),
        (lambda: DivisionSpec((F(1),), (F(1),), ()), "DivisionSpec.__init__() takes 3 positional arguments but 4 were given"),
        (lambda: ParallelMarker(1), "ParallelMarker.__init__() takes 1 positional argument but 2 were given"),
    ))
    def test_a_wrong_call_names_the_record(self, call, message):
        with pytest.raises(TypeError) as caught:
            call()
        assert str(caught.value) == message

    def test_generated_constructors_belong_to_their_record(self):
        for name in quadareas.__all__:
            cls = getattr(quadareas, name)
            if isinstance(cls, type) and issubclass(cls, quadareas.division._Frozen):
                assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"
                assert cls.__init__.__module__ == cls.__module__

    def test_point_and_tail_summed_sequence_keep_their_coercing_constructors(self):
        assert Point("1/2", 3) == Point(F(1, 2), F(3)) and type(Point(1, 2).x) is F
        assert TailSummedSequence(["1", 2], "1/2") == TailSummedSequence((F(1), F(2)), F(1, 2))


class TestClockwiseCanonicalization:
    def test_swap_recovers_the_original_labeling(self):
        # a reversed traversal of a valid quad is clockwise; canonicalization
        # swaps B and D back, recovering the same divided sides
        ccw = ConvexQuad.of(pt(2, 0), pt(8, 0), pt(0, 4), pt(0, 1))
        spec = DivisionSpec.of((1, 1, 1), (1, 1, 1))
        swapped = ConvexQuad.of(ccw.a, ccw.d, ccw.c, ccw.b)
        assert swapped == ccw
        assert strip_areas(swapped, spec) == strip_areas(ccw, spec)
