import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from fractions import Fraction as F
from pathlib import Path

import pytest

import quadareas
from quadareas import DivisionSpec, InternalError, InvalidInputError, member
from quadareas.cli import main, parse_tuple


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseTuple:
    def test_plain(self):
        assert parse_tuple("1,2,3") == (F(1), F(2), F(3))

    def test_normalization(self):
        assert parse_tuple("4/6,1") == (F(2, 3), F(1))

    def test_positivity_error_names_entry(self):
        with pytest.raises(InvalidInputError) as info:
            parse_tuple("1,-2", require_positive=True)
        assert str(info.value) == "entry 2 must be positive"

    def test_malformed_literal(self):
        with pytest.raises(InvalidInputError):
            parse_tuple("1,2.5")

    def test_negatives_allowed_when_not_required_positive(self):
        assert parse_tuple("1,-2") == (F(1), F(-2))


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
        assert main(["member", "--p", "1,1,1"]) == 1

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


class TestInvariants:
    def test_failed_invariant_is_an_internal_error_with_exit_code_4(self, capsys, monkeypatch):
        monkeypatch.setattr(quadareas.membership, "solve3", lambda m, rhs: None)
        with pytest.raises(InternalError, match="pivot solve is regular"):
            member(DivisionSpec.of((1, 2, 3), (1, 1, 1)), (F(3), F(8), F(16)))
        code, out, err = run(capsys, "member", "--p", "1,2,3", "--pp", "1,1,1", "--x", "3,8,16")
        assert code == 4 and out == ""
        assert err == (
            "error: internal error, invariant failed: "
            "pivot solve is regular whenever the discriminant is nonzero\n"
        )

    @pytest.mark.parametrize("verb", ("member", "witness"))
    def test_python_O_gives_the_same_bytes(self, verb):
        env = {**os.environ, "PYTHONPATH": str(Path(quadareas.__file__).parents[1])}
        argv = ["-m", "quadareas.cli", verb, "--p", "1,2,3", "--pp", "1,1,1", "--x", "3,8,16"]
        plain = subprocess.run([sys.executable, *argv], capture_output=True, env=env, check=True)
        optimized = subprocess.run([sys.executable, "-O", *argv], capture_output=True, env=env, check=True)
        assert plain.stdout and optimized.stdout == plain.stdout
        assert optimized.stderr == plain.stderr == b""
