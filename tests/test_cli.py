import contextlib
import importlib
import io
import json
import os
import shlex
import subprocess
import sys
import xml.etree.ElementTree as ET
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import quadareas
from quadareas import DivisionSpec, InternalError, TailSummedSequence, member, member_tail, member_via_collapse
from quadareas.cli import main


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseTuple:
    def test_positivity_error_names_entry(self, capsys):
        # tuples are read with any sign; DivisionSpec names the tuple and the entry
        fold = ("--x", "1,2,3", "--pivot", "2", "--branch", "q1")
        for verb, extra in (("describe", ()), ("member", ("--x", "1,2,3")), ("reduce", fold)):
            code, out, err = run(capsys, verb, "--p", "1,-2,3", "--pp", "1,1,1", *extra)
            assert (code, out, err) == (1, "", "error: p entry 2 must be positive\n")
            code, out, err = run(capsys, verb, "--p", "1,1,1", "--pp", "1,1,-1", *extra)
            assert (code, out, err) == (1, "", "error: p_prime entry 3 must be positive\n")


class TestInputErrors:
    """Every tuple is read by TailSummedSequence.parse and every ratio pair is validated by DivisionSpec."""

    @pytest.mark.parametrize("argv, err", (
        (("member", "--p", "1,2,3", "--pp", "1,1,1", "--x", "1,2"),
         "area tuple length does not match the division spec"),
        (("describe", "--p", ",", "--pp", "1,1"), "a sequence needs a nonempty prefix"),
        (("witness", "--p", "1,1,1", "--pp", "1,1,1", "--x", "3,5,7 | tail=1"),
         "only member and reduce read a '| tail=r' suffix"),
        (("areas", "--p", "1,1,1 |", "--pp", "1,1,1", "--quad", "2,0;8,0;0,4;0,1"),
         "only member and reduce read a '| tail=r' suffix"),
        (("reduce", "--p", "1", "--pp", "1", "--x", "1", "--pivot", "2", "--branch", "q1"),
         "need at least two segments per side"),
        (("reduce", "--p", "1,2,3", "--pp", "1,1", "--x", "1,2,3", "--pivot", "2", "--branch", "q1"),
         "ratio tuples must have the same length"),
        (("member", "--p", "1,2,3 | tail=1", "--pp", "1,1", "--x", "1,2,3"),
         "ratio tuples must have the same length"),
        (("member", "--p", "1,2,3 | tail=1", "--pp", "1,1,1", "--x", "1,2"),
         "area tuple length does not match the division spec"),
    ))
    def test_error_line(self, capsys, argv, err):
        assert run(capsys, *argv) == (1, "", f"error: {err}\n")


class TestMemberVerb:
    def test_attainable_exact_output(self, capsys):
        code, out, _ = run(capsys, "member", "--p", "1,1,1", "--pp", "1,1,1", "--x", "1,2,3")
        assert code == 0
        assert out.strip() == '{"attainable":true,"branch":"degenerate","coeffs":["7/12","1/12"]}'

    def test_rejection_exit_code_and_reason(self, capsys):
        code, out, _ = run(capsys, "member", "--p", "1,1,1", "--pp", "1,1,1", "--x", "1,1,5")
        assert code == 2
        assert json.loads(out) == {"attainable": False, "reason": "off-subspace"}

    def test_agrees_with_library(self, capsys):
        code, out, _ = run(capsys, "member", "--p", "1,2", "--pp", "2,1", "--x", "4,5")
        payload = json.loads(out)
        verdict = member(DivisionSpec.of((1, 2), (2, 1)), (F(4), F(5)))
        assert payload["coeffs"] == [str(c) for c in verdict.certificate.coeffs]
        assert code == 0

    def test_tail_suffix_routes_to_sequences(self, capsys):
        code, out, _ = run(
            capsys,
            "member",
            "--p", "1,1/2,1/4 | tail=1/4",
            "--pp", "1,1/2,1/4 | tail=1/4",
            "--x", "4,2,1 | tail=1",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["attainable"] and payload["prefix_certified"]
        assert payload["coeffs"] == ["1", "1"]

    def test_tail_row_ending_the_zero_chain_decides_on_the_extended_rows(self, capsys):
        # the prefix strips and tail region of the quad (2,0),(10,0),(0,6),(0,1): the prefix is
        # planar, the rows with the tail sums are not
        code, out, _ = run(capsys, "member", *PLANAR_PREFIX_TAILED)
        assert code == 0
        assert out.strip() == '{"attainable":true,"branch":"q1","coeffs":["1","1","1"],"prefix_certified":true}'

    def test_empty_tail_suffix_reads_as_tail_zero(self, capsys):
        finite = run(capsys, "member", "--p", "1,2,3", "--pp", "1,1,1", "--x", "3,8,16")
        code, out, _ = run(capsys, "member", "--p", "1,2,3 |", "--pp", "1,1,1", "--x", "3,8,16 |")
        assert code == finite[0] == 0
        assert json.loads(out) == {**json.loads(finite[1]), "prefix_certified": True}

    def test_input_error_exit_code(self, capsys):
        code, _, err = run(capsys, "member", "--p", "1,-2,3", "--pp", "1,1,1", "--x", "1,2,3")
        assert code == 1 and "entry 2 must be positive" in err

    def test_length_mismatch_is_input_error(self, capsys):
        code, _, err = run(capsys, "member", "--p", "1,1,1", "--pp", "1,1,1", "--x", "1,2")
        assert code == 1

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no int/str digit limit"
    )
    def test_oversized_literal_is_input_error(self, capsys):
        literal = "7" * 5000
        code, out, err = run(capsys, "member", "--p", "1,1,1", "--pp", "1,1,1", "--x", f"{literal},1,1")
        assert code == 1 and out == ""
        assert err.startswith("error: rational literal 777") and err.count("\n") == 1
        assert literal not in err


class TestWitnessVerb:
    def test_text_output_prefix(self, capsys):
        code, out, _ = run(
            capsys, "witness", "--p", "1,1,1", "--pp", "1,1,1", "--x", "3,5,7",
            "--format", "text",
        )
        assert code == 0
        assert out.startswith("A=2,0 B=8,0 C=0,4 D=0,1 ")

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "witness", "--p", "1,2", "--pp", "2,1", "--x", "4,5")
        payload = json.loads(out)
        assert code == 0
        assert payload["areas"] == ["4", "5"]
        reparsed = tuple(F(v) for v in payload["areas"])
        assert reparsed == (F(4), F(5))

    def test_not_attainable_exit_code(self, capsys):
        code, out, _ = run(capsys, "witness", "--p", "1,1,1", "--pp", "1,1,1", "--x", "1,1,5")
        assert code == 2 and json.loads(out)["reason"] == "off-subspace"

    def test_svg_strip_polygons_carry_exact_areas(self, capsys):
        code, out, _ = run(
            capsys, "witness", "--p", "1,1,1", "--pp", "1,1,1", "--x", "3,5,7",
            "--format", "svg",
        )
        assert code == 0
        root = ET.fromstring(out)
        strips = [el for el in root.iter() if el.get("class") == "strip"]
        assert len(strips) == 3
        assert [el.get("data-area") for el in strips] == ["3", "5", "7"]

    def test_svg_fractional_areas_stay_exact(self, capsys):
        code, out, _ = run(
            capsys, "witness", "--p", "1,2", "--pp", "2,1", "--x", "2,5/2",
            "--format", "svg",
        )
        root = ET.fromstring(out)
        strips = [el for el in root.iter() if el.get("class") == "strip"]
        assert [el.get("data-area") for el in strips] == ["2", "5/2"]

    def test_svg_coordinate_past_float_range_is_an_input_error(self, capsys):
        fr = quadareas.frame(DivisionSpec.of((1, 2, 3), (3, 1, 2)))
        x = [10 ** 400 * (a + d + h) for a, d, h in zip(fr.ab, fr.dc, fr.head)]
        argv = ["witness", "--p", "1,2,3", "--pp", "3,1,2", "--x", ",".join(map(str, x))]
        assert run(capsys, *argv)[0] == 0  # the exact formats still print
        code, out, err = run(capsys, *argv, "--format", "svg")
        assert code == 1 and out == ""
        assert err == "error: a coordinate is too large to draw as SVG (past float range)\n"


class TestOtherVerbs:
    def test_areas(self, capsys):
        code, out, _ = run(
            capsys, "areas", "--p", "1,1,1", "--pp", "1,1,1", "--quad", "2,0;8,0;0,4;0,1"
        )
        assert code == 0
        assert json.loads(out) == {"areas": ["3", "5", "7"], "total": "15"}

    def test_describe(self, capsys):
        code, out, _ = run(capsys, "describe", "--p", "1,2,3", "--pp", "1,1,1")
        payload = json.loads(out)
        assert code == 0
        assert payload["deltas"] == ["3"]
        assert payload["case"] == {"kind": "spatial", "pivot": 2}
        assert payload["frame"]["head"] == ["1", "5", "12"]

    def test_describe_planar(self, capsys):
        code, out, _ = run(capsys, "describe", "--p", "1,1,1", "--pp", "1,1,1")
        payload = json.loads(out)
        assert payload["case"] == {"kind": "planar", "proportional": True}
        assert payload["hyperplanes"] == [["1", "-2", "1"]]

    def test_sample_exit_codes(self, capsys):
        code, out, _ = run(
            capsys, "sample", "--p", "1,1,1", "--pp", "1,1,1", "--count", "15", "--seed", "1"
        )
        assert code == 0 and json.loads(out)["accepted"] == 15
        code, out, _ = run(
            capsys,
            "sample", "--p", "1,2,3", "--pp", "1,1,1", "--count", "15", "--seed", "1",
            "--family", "parallel", "--mode", "strict",
        )
        assert code == 3
        assert json.loads(out)["violations"]

    def test_reduce(self, capsys):
        code, out, _ = run(
            capsys,
            "reduce", "--p", "1,2,3,4", "--pp", "1,1,1,1", "--x", "1,2,3,4",
            "--pivot", "2", "--branch", "q2",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload == {
            "p3": ["1", "2", "7"],
            "pp3": ["1", "1", "2"],
            "x3": ["1", "2", "7"],
            "pivot": 2,
            "branch": "q2",
        }

    def test_reduce_invalid_pivot(self, capsys):
        code, _, err = run(
            capsys,
            "reduce", "--p", "1,1,1,1", "--pp", "1,1,1,1", "--x", "1,1,1,1",
            "--pivot", "2", "--branch", "q1",
        )
        assert code == 1 and "pivot" in err

    def test_full_envelope(self, capsys):
        code, out, _ = run(
            capsys, "member", "--p", "1,1,1", "--pp", "1,1,1", "--x", "1,2,3", "--full"
        )
        payload = json.loads(out)
        assert payload["verb"] == "member"
        assert payload["input"]["p"] == "1,1,1"
        assert payload["result"]["attainable"] is True
        assert payload["result"]["certificate"]["q1_interval"] == {
            "lo": "1/2",
            "hi": "1/2",
            "kind": "point",
        }

    def test_usage_error_exit_code(self, capsys):
        # one error line, not a usage block
        code, out, err = run(capsys, "member", "--p", "1,1,1")
        assert code == 1 and out == ""
        assert err == "error: the following arguments are required: --pp, --x\n"
        code, out, err = run(capsys, "member", "--p", "1,1,1", "--pp", "1,1,1", "--x", "1,2,3", "--mode", "loose")
        assert code == 1 and out == "" and err.startswith("error: argument --mode: invalid choice")
        assert err.count("\n") == 1

    def test_help_exits_0(self, capsys):
        code, out, err = run(capsys, "member", "--help")
        assert code == 0 and out.startswith("usage: quadareas member") and err == ""

    def test_value_starting_with_minus_and_a_digit_is_the_option_value(self, capsys):
        code, out, _ = run(capsys, "member", "--p", "1,2,3", "--pp", "1,1,1", "--x", "-1,2,3")
        assert code == 2 and out == '{"attainable":false,"reason":"non-positive-entry"}\n'
        assert run(capsys, "member", "--p", "1,2,3", "--pp", "1,1,1", "--x=-1,2,3")[:2] == (code, out)
        code, out, err = run(capsys, "member", "--p", "-1,2,3", "--pp", "1,1,1", "--x", "1,2,3")
        assert code == 1 and out == "" and err == "error: p entry 1 must be positive\n"

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no int/str digit limit"
    )
    def test_describe_result_past_the_digit_limit_is_an_input_error(self, capsys):
        # the entries parse, but a discriminant passes 4300 digits
        big = 10 ** 1500
        code, out, err = run(
            capsys, "describe",
            "--p", ",".join(str(big + k) for k in (1, 2, 3)),
            "--pp", ",".join(str(big + k) for k in (7, 28, 175)),
        )
        assert code == 1 and out == ""
        assert err.startswith("error: the result is too large to print") and err.count("\n") == 1


TAILED = ("--p", "1,1/2,1/4 | tail=1/4", "--pp", "1,1/2,1/4 | tail=1/4", "--x", "4,2,1 | tail=1")
SPATIAL_TAILED = ("--p", "1,2,3 | tail=1", "--pp", "1,1,1 | tail=1", "--x", "3,8,16 | tail=5")
PLANAR_PREFIX_TAILED = ("--p", "1,1,1 | tail=1", "--pp", "1,1,1 | tail=2", "--x", "3,5,7 | tail=14")
# 30-digit spatial entries; the three pivot coordinates of BIG_X have the denominators 7**35, 11**29 and 13**27
BIG_P = "123456789012345678901234567890/987654321098765432109876543211"
BIG_PP = "314159265358979323846264338327/271828182845904523536028747135"
BIG_X = ("901775519700472535692354007583/378818692265664781682717625943,"
         "6620486114151013865617407096160/1586309297171491574414436704891,"
         "5148370102292677431088473932048/1192533292512492016559195008117")
# 30-digit planar entries: a proportional spec with x = head + 2*tail (q2 interval only), a skew spec
# whose third ratio continues the zero chain with x = head + tail (both intervals), and the
# proportional prefix with tails in its ratio and x = 2*head + tail, extended
BIG_DEN = "987654321098765432109876543211"
BIG_PLANAR = (
    "--p", f"{BIG_P},2,3", "--pp", f"246913578024691357802469135780/{BIG_DEN},4,6",
    "--x", "4968754718000304829550373418725072397575003810399750038104200/"
           "975461057985063252587258039937625361987875019051998750190521,"
           f"72098765431209876543120987654312/{BIG_DEN},78518518513851851851385185185138/{BIG_DEN}",
)
BIG_SKEW = (
    "--p", f"{BIG_P},1,1111111110111111111011111111101/864197514086419751408641975139", "--pp", "1,3,1",
    "--x", ",".join(f"{num}/853528409070263675805517451068570339830872123148188721231329" for num in (
        "2591068399161713259806431967965721692087669562788876695636900",
        "10440481490413046817978204548675567750048187776335881877766695",
        "7544581593964334718717421127801097394176899862858368998629905",
    )),
)
BIG_PLANAR_TAILED = (
    "--p", f"{BIG_P},2,3 | tail=1", "--pp", f"246913578024691357802469135780/{BIG_DEN},4,6 | tail=2",
    "--x", "3017832619807956105931412894985130315635006858719550068587560/"
           "975461057985063252587258039937625361987875019051998750190521,"
           f"57283950605728395060572839506056/{BIG_DEN},115555555541555555554155555555414/{BIG_DEN}"
           f" | tail=46419753082641975308264197530826/{BIG_DEN}",
)


class TestInvariants:
    def test_failed_invariant_is_an_internal_error_with_exit_code_4(self, capsys, monkeypatch):
        monkeypatch.setattr(quadareas.membership, "_pivot_solution", lambda rows, pivot, x: None)
        with pytest.raises(InternalError, match="pivot solve is regular"):
            member(DivisionSpec.of((1, 2, 3), (1, 1, 1)), (F(3), F(8), F(16)))
        # with both folds planar, member_via_collapse decides through _decide at the spec's own pivot
        monkeypatch.setattr(quadareas.reduction, "_pivot_solution", lambda rows, pivot, x: None)
        with pytest.raises(InternalError, match="pivot solve is regular"):
            member_via_collapse(DivisionSpec.of((1, 2, 3, 4), (1, 1, 1, 1)), (F(1),) * 4, 2)
        p, pp, x = (TailSummedSequence.parse(text) for text in SPATIAL_TAILED[1::2])
        with pytest.raises(InternalError, match="pivot solve is regular"):
            member_tail(p, pp, x)
        for argv in (("--p", "1,2,3", "--pp", "1,1,1", "--x", "3,8,16"), SPATIAL_TAILED):
            code, out, err = run(capsys, "member", *argv)
            assert code == 4 and out == ""
            assert err == (
                "error: internal error, invariant failed: "
                "pivot solve is regular whenever the discriminant is nonzero\n"
            )

    @pytest.mark.parametrize("argv", (
        pytest.param(("member", "--p", "1,2,3", "--pp", "1,1,1", "--x", "3,8,16"), id="member"),
        pytest.param(("witness", "--p", "1,2,3", "--pp", "1,1,1", "--x", "3,8,16"), id="witness"),
        pytest.param(("witness", "--p", "1,1,1", "--pp", "1,1,1", "--x", "3,5,7"), id="witness-planar"),
        pytest.param(("witness", "--p", "1,2,3", "--pp", "1,1,1", "--x", "10,10,7"), id="witness-q2"),
        pytest.param(("witness", "--p", "1,1,2/7", "--pp", "1,2,1", "--x", "58/7,130/7,68/7"), id="witness-skew-apex"),
        pytest.param(("witness", "--p", "1,1,2/7", "--pp", "1,2,1", "--x", "51/7,95/7,46/7"), id="witness-skew-face"),
        pytest.param(("witness", "--p", "1,2,4", "--pp", "2,4,8", "--x", "54,96,144"), id="witness-proportional-q2"),
        pytest.param(("witness", "--p", "1,2,4", "--pp", "2,4,8", "--x", "3,6,12"), id="witness-proportional-ray"),
        pytest.param(
            ("member", "--p", "1,1,2/7", "--pp", "1,2,1", "--x", "51/7,95/7,46/7", "--full"),
            id="member-skew-both-intervals",
        ),
        pytest.param(
            ("member", "--p", "1,1,2/7", "--pp", "1,2,1", "--x", "192/7,160/7,32/7", "--full"),
            id="member-skew-q2-only",
        ),
        pytest.param(("member", *TAILED), id="member-tail"),
        pytest.param(("member", *PLANAR_PREFIX_TAILED), id="member-tail-planar-prefix"),
        pytest.param(
            ("reduce", "--p", "1,2,3,4", "--pp", "1,1,1,1", "--x", "1,2,3,4", "--pivot", "2", "--branch", "q2"),
            id="reduce",
        ),
        pytest.param(
            ("reduce", "--p", "1,2,3,4 | tail=2", "--pp", "1,1,1,1 | tail=1/2", "--x", "1,2,3,4 | tail=5",
             "--pivot", "3", "--branch", "q1"),
            id="reduce-tail-q1",
        ),
        pytest.param(("describe", "--p", "1,2,3,4,5", "--pp", "1,1,1,1,1"), id="describe-spatial"),
        pytest.param(
            ("describe", "--p", f"{BIG_P},2,3,4,5", "--pp", f"1,{BIG_PP},1,1,2"), id="describe-spatial-30-digit",
        ),
        pytest.param(("describe", "--p", "1,2,3,4", "--pp", "2,4,6,8"), id="describe-planar-proportional"),
        pytest.param(("describe", *BIG_SKEW[:4]), id="describe-planar-skew-30-digit"),
        pytest.param(
            ("member", "--p", f"{BIG_P},2,3", "--pp", f"1,{BIG_PP},1", "--x", BIG_X), id="member-30-digit-pivot",
        ),
        pytest.param(
            ("member", "--p", "1,2,3", "--pp", "2,4,6", "--x", "46,80,90", "--full"),
            id="member-proportional",
        ),
        pytest.param(("member", *BIG_PLANAR, "--full"), id="member-proportional-30-digit"),
        pytest.param(("member", *BIG_SKEW, "--full"), id="member-skew-30-digit-both-intervals"),
        pytest.param(("member", *BIG_PLANAR_TAILED), id="member-tail-planar-prefix-30-digit"),
        pytest.param(("areas", "--p", "1,2,3", "--pp", "2,1,1", "--quad", "0,0;1,3;5,4;6,1"), id="areas"),
        pytest.param(("sample", "--p", "1,2,3,4", "--pp", "1,1,1,1", "--count", "6", "--seed", "2"), id="sample"),
        pytest.param(
            ("sample", "--p", "1,2,3,4", "--pp", "1,1,1,1", "--family", "cross", "--count", "5", "--seed", "3"),
            id="sample-cross",
        ),
        pytest.param(
            ("sample", "--p", "1,2,3,4", "--pp", "1,1,1,1", "--family", "parallel", "--count", "6", "--seed", "1"),
            id="sample-parallel",
        ),
    ))
    def test_python_O_gives_the_same_bytes(self, argv):
        env = {**os.environ, "PYTHONPATH": str(Path(quadareas.__file__).parents[1])}
        argv = ["-m", "quadareas.cli", *argv]
        plain = subprocess.run([sys.executable, *argv], capture_output=True, env=env, check=True)
        optimized = subprocess.run([sys.executable, "-O", *argv], capture_output=True, env=env, check=True)
        assert plain.stdout and optimized.stdout == plain.stdout
        assert optimized.stderr == plain.stderr == b""


class TestClosedStdout:
    """A reader that closes stdout early (``quadareas ... | head -c 300``) ends the process
    quietly with exit 1, whether the result is written during the verb (unbuffered, or past the
    buffer) or flushed at the end."""

    @pytest.mark.parametrize("buffered", (False, True), ids=("unbuffered", "buffered"))
    @pytest.mark.parametrize("argv", (
        pytest.param(("member", "--p", "1,1,1", "--pp", "1,1,1", f"--x={','.join([str(10 ** 400)] * 3)}"),
                     id="member-big"),
        pytest.param(("describe", "--p", "1,2,3", "--pp", "1,1,1"), id="describe-small"),
        pytest.param(("witness", "--p", "1,2,3", "--pp", "1,1,1", "--x", "3,8,16", "--format", "svg"),
                     id="witness-svg"),
        pytest.param(("--help",), id="help"),
    ))
    def test_closed_stdout_exits_1_without_a_traceback(self, argv, buffered):
        env = {**os.environ, "PYTHONPATH": str(Path(quadareas.__file__).parents[1])}
        env.pop("PYTHONUNBUFFERED", None)
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)  # every write to the child's stdout now fails with EPIPE
        try:
            done = subprocess.run([sys.executable, "-m", "quadareas.cli", *argv],
                                  stdout=write_end, stderr=subprocess.PIPE, env=env)
        finally:
            os.close(write_end)
        # argparse ignores a help text that it cannot write, so only a buffered one reaches the flush
        code = 0 if argv == ("--help",) and not buffered else 1
        assert (done.returncode, done.stderr) == (code, b"")


# ---- start-up and the package namespace ---------------------------------------

# stdlib modules that a bare interpreter does not load and no verb needs (dataclasses pulls in inspect)
_HEAVY = ("dataclasses", "inspect")
_HEAVY_LOADED = f"[m for m in {_HEAVY!r} if m in sys.modules]"
_LOADED_BY = f"""
import contextlib, io, json, sys
import quadareas.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = quadareas.cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("quadareas.")), {_HEAVY_LOADED}]))
"""
_BASE = {"cli", "division", "errors"}
_DECIDE = _BASE | {"cone", "linalg", "membership"}


class TestLoadedModules:
    """Each verb, run in a fresh process, loads exactly the layers it calls, and neither
    ``dataclasses`` nor ``inspect``."""

    @pytest.mark.parametrize("argv, code, layers", (
        (("describe", "--p", "1,2,3", "--pp", "1,1,1"), 0, _BASE | {"cone", "linalg"}),
        (("member", "--p", "1,1,1", "--pp", "1,1,1", "--x", "1,2,3"), 0, _DECIDE),
        (("member", *TAILED), 0, _DECIDE | {"reduction"}),
        (("reduce", "--p", "1,2,3,4", "--pp", "1,1,1,1", "--x", "1,2,3,4", "--pivot", "2", "--branch", "q2"),
         0, _DECIDE | {"reduction"}),
        (("witness", "--p", "1,1,1", "--pp", "1,1,1", "--x", "3,5,7"), 0, _DECIDE | {"geometry", "witness"}),
        (("areas", "--p", "1,1,1", "--pp", "1,1,1", "--quad", "2,0;8,0;0,4;0,1"), 0, _BASE | {"geometry", "linalg"}),
        (("sample", "--p", "1,2,3", "--pp", "1,1,1", "--count", "2"), 0,
         _DECIDE | {"geometry", "oracle", "reduction", "witness"}),
    ), ids=("describe", "member", "member-tail", "reduce", "witness", "areas", "sample"))
    def test_modules_loaded_by_each_verb(self, argv, code, layers):
        env = {**os.environ, "PYTHONPATH": str(Path(quadareas.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", _LOADED_BY, *argv], capture_output=True, env=env, check=True)
        assert json.loads(done.stdout) == [code, sorted(f"quadareas.{layer}" for layer in layers), []]

    def test_reading_every_public_name_loads_neither_dataclasses_nor_inspect(self):
        env = {**os.environ, "PYTHONPATH": str(Path(quadareas.__file__).parents[1])}
        bare = f"import sys; print({_HEAVY_LOADED})"
        every = f"import sys, quadareas; [getattr(quadareas, n) for n in quadareas.__all__]; print({_HEAVY_LOADED})"
        for script in (bare, every):
            done = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env, check=True)
            assert done.stdout == b"[]\n"


PUBLIC_NAMES = [
    "ApexFrame", "CaseLabel", "Certificate", "CollapsedInstance", "ConeFrame", "ConvexQuad",
    "DegenerateCollapseError", "DegenerateDenominatorError", "DivisionPoints", "DivisionSpec",
    "InconsistentQuadError", "InternalError", "Interval", "InvalidInputError", "InvalidPivotError",
    "NoValidContinuationError", "NotAttainableError", "ParallelMarker", "Point", "QuadAreasError",
    "SampleReport", "StationCoefficients", "StationReport", "TailSummedSequence", "Verdict", "Violation",
    "WitnessOutput", "apex_areas", "apex_of", "apex_quad", "classify", "collapse", "continue_degenerate",
    "cross_validate", "cumulant_tail_sums", "cumulants", "discriminants", "evaluate_plane",
    "extend_solution", "frame", "hyperplanes", "is_convex_ccw", "member", "member_tail",
    "member_via_collapse", "parallel_diagnosis", "planar_ratio_bounds", "polygon_area",
    "proportional_bounds", "pt", "sample_convex_quads", "sample_parallel_family", "station_check",
    "station_coefficients", "strip_areas", "subdivide", "synthesize_witness", "tail_cumulants",
    "to_fraction",
]


class TestNamespace:
    """``import quadareas`` is lazy, and its public names are the ones it always had."""

    def test_public_names_are_unchanged(self):
        assert len(PUBLIC_NAMES) == 59
        assert sorted(quadareas.__all__) == PUBLIC_NAMES

    def test_each_name_is_its_home_modules_object(self):
        for name in quadareas.__all__:
            value = getattr(quadareas, name)
            assert value.__module__.startswith("quadareas.")
            assert getattr(importlib.import_module(value.__module__), name) is value

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from quadareas import *", namespace)
        assert {name: namespace[name] for name in PUBLIC_NAMES} == {
            name: getattr(quadareas, name) for name in PUBLIC_NAMES}

    def test_dir_lists_every_name(self):
        assert set(quadareas.__all__) <= set(dir(quadareas))

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="module 'quadareas' has no attribute 'nope'"):
            quadareas.nope

    def test_tail_summed_sequence_lives_in_division(self):
        import quadareas.division
        import quadareas.reduction

        assert quadareas.reduction.TailSummedSequence is quadareas.division.TailSummedSequence
        assert quadareas.TailSummedSequence is quadareas.division.TailSummedSequence


class TestReadmeQuickStart:
    """Every ``quadareas ...`` line of the README's CLI quick start exits 0 and prints what the README shows."""

    @staticmethod
    def commands():
        """(argv, the output comment right after the command or None) per command; ``> file`` is dropped."""
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("## CLI quick start", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        lines = block.replace("\\\n", " ").splitlines()
        return [
            (shlex.split(line.split(" > ", 1)[0])[1:], after[2:] if after.startswith("# ") else None)
            for line, after in zip(lines, [*lines[1:], ""])
            if line.startswith("quadareas ")
        ]

    def test_quick_start(self, capsys):
        commands = self.commands()
        assert len(commands) == 8
        shown = 0
        for argv, comment in commands:
            code, out, err = run(capsys, *argv)
            assert (code, err) == (0, "")
            if comment:
                shown += 1
                if comment.endswith(" ..."):
                    assert out.startswith(comment[:-3])
                else:
                    assert out == comment + "\n"
        assert shown == 3


# ---- fuzzing ------------------------------------------------------------------

VERBS = ("describe", "member", "witness", "areas", "sample", "reduce")
BIG = 10 ** 400
HOSTILE_LITERALS = (
    "0", "-1", "-2/3", "0/5", "1/0", "", " ", "a", "1e5", "1//2", "+4", "3 / 4", "\t5", "1.5",
    "0x10", "\u0661", "1" * 5000, str(BIG + 1), f"{BIG}/3", f"1/{BIG}",
)
TAIL_SUFFIXES = (" | tail=1", " | tail=0", " | tail=-1", " | tail=1/0", " |", " | t=1")
HOSTILE_OPTIONS = (
    ("--pivot", "-1"), ("--pivot", "0"), ("--pivot", "99"), ("--pivot", "x"), ("--branch", "q3"),
    ("--mode", "loose"), ("--format", "xml"), ("--count", "0"), ("--count", "-2"), ("--seed", "-5"),
    ("--family", "cross"), ("--quad", "0,0;1,1;0,1;1,0"), ("--quad", "0,0;0,0;0,0;0,0"),
    ("--quad", "0,0;1,0;1,1"), ("--quad", "a,b;1,0;1,1;0,1"),
)


def _scaled_literal(text, scale):
    try:
        return str(F(text) * scale)
    except (ValueError, ZeroDivisionError):
        return text


@st.composite
def cli_argvs(draw):
    """A well-formed argv for one verb (x a scaled combination of the frame), then up to three corruptions."""
    verb = draw(st.sampled_from(VERBS))
    n = draw(st.integers(2, 6))
    ratio = st.builds(F, st.integers(1, 9), st.integers(1, 4))
    p, pp = ([draw(ratio) for _ in range(n)] for _ in "pq")
    fr = quadareas.frame(DivisionSpec(tuple(p), tuple(pp)))
    a, b, c = (draw(st.sampled_from((1, 2, 3, 1, 2, 3, 0, -1))) for _ in range(3))
    arm = draw(st.sampled_from((fr.head, fr.tail, (0,) * n)))
    scale = draw(st.sampled_from((1, 1, BIG, F(1, BIG))))
    x = [scale * (a * u + b * v + c * w) for u, v, w in zip(fr.ab, fr.dc, arm)]
    fields = {name: [str(v) for v in values] for name, values in (("--p", p), ("--pp", pp), ("--x", x))}
    opts = {"--mode": draw(st.sampled_from(("strict", "audited"))),
            "--format": draw(st.sampled_from(("text", "json", "svg")))}
    if verb == "areas":
        opts["--quad"] = draw(st.sampled_from(("0,0;4,0;3,2;0,1", "0,0;1,0;1,1;0,1")))
    if verb == "sample":
        opts["--count"] = str(draw(st.integers(1, 5)))
        opts["--seed"] = str(draw(st.integers(0, 2 ** 70)))
        opts["--family"] = draw(st.sampled_from(("quads", "parallel", "cross")))
    if verb == "reduce":
        opts["--pivot"] = str(draw(st.integers(2, max(2, n - 1))))
        opts["--branch"] = draw(st.sampled_from(("q1", "q2")))
    suffixes = {}
    for _ in range(draw(st.sampled_from((0, 0, 1, 1, 2, 3)))):
        kind = draw(st.sampled_from(("literal", "length", "scale", "tail", "option", "drop")))
        name = draw(st.sampled_from(tuple(fields)))
        if kind == "literal":
            k = draw(st.integers(0, len(fields[name]) - 1))
            fields[name][k] = draw(st.sampled_from(HOSTILE_LITERALS))
        elif kind == "length":
            fields[name] = fields[name][:-1] if draw(st.booleans()) else fields[name] + ["1"]
        elif kind == "scale":
            factor = draw(st.sampled_from((BIG, F(1, BIG), 0, -1)))
            fields[name] = [_scaled_literal(v, factor) for v in fields[name]]
        elif kind == "tail":
            suffixes[name] = draw(st.sampled_from(TAIL_SUFFIXES))
        elif kind == "option":
            key, value = draw(st.sampled_from(HOSTILE_OPTIONS))
            opts[key] = value
        elif len(fields) > 1:
            del fields[name]
    argv = [verb]
    for name, values in fields.items():
        if name != "--x" or verb in ("member", "witness", "reduce"):
            argv += [name, ",".join(values) + suffixes.get(name, "")]
    for key, value in opts.items():
        argv += [key, value]
    return argv + (["--full"] if draw(st.booleans()) else [])


@settings(max_examples=200)
@given(cli_argvs())
def test_fuzzed_argv_returns_an_exit_code_and_never_raises(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3, 4)
    if code == 1:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
    if code == 4:
        assert err.getvalue().startswith("error: internal error")
