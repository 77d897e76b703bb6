"""Command line surface: describe, member, witness, areas, sample, reduce.

Results go to stdout (JSON by default, exact rationals rendered as strings),
diagnostics to stderr.  Exit codes: 0 success, 1 input error (including a
usage error, a result too large to print, or an SVG coordinate past float
range), 2 not attainable (member/witness), 3 oracle violations (sample),
4 internal error (a failed invariant: a defect in quadareas, never a
property of the input).

Each verb imports only the layers it runs, so a fresh process loads (and,
without cached bytecode, compiles) no module that the verb does not call.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .division import DivisionSpec, TailSummedSequence
from .errors import InternalError, InvalidInputError, NotAttainableError, QuadAreasError


def _rationals(values) -> list[str]:
    return [str(v) for v in values]


def _certificate_payload(cert: Certificate) -> dict:
    payload: dict = {"branch": cert.branch, "coeffs": _rationals(cert.coeffs)}
    if cert.branch == "degenerate":
        for name, interval in (
            ("q1_interval", cert.q1_interval),
            ("q2_interval", cert.q2_interval),
        ):
            payload[name] = (
                None
                if interval is None
                else {
                    "lo": str(interval.lo),
                    "hi": str(interval.hi),
                    "kind": "point" if interval.is_point else "open",
                }
            )
    return payload


def _member_result(verdict: Verdict) -> dict:
    if verdict.attainable:
        result = {
            "attainable": True,
            "branch": verdict.certificate.branch,
            "coeffs": _rationals(verdict.certificate.coeffs),
        }
    else:
        result = {"attainable": False, "reason": verdict.reason}
    if verdict.prefix_certified:
        result["prefix_certified"] = True
    return result


def _has_tail(*texts: str) -> bool:
    return any("|" in t for t in texts)


def _plain(text: str) -> tuple[Fraction, ...]:
    """A finite tuple for a verb that reads no tail sum; a '|' suffix is refused."""
    if _has_tail(text):
        raise InvalidInputError("only member and reduce read a '| tail=r' suffix")
    return TailSummedSequence.parse(text).prefix


def _spec_from_args(args) -> DivisionSpec:
    return DivisionSpec(_plain(args.p), _plain(args.pp))


def _sequences_from_args(args) -> tuple[TailSummedSequence, ...]:
    """p, p_prime and x as tail-summed sequences; positivity is checked by the decision or the fold."""
    return tuple(TailSummedSequence.parse(text) for text in (args.p, args.pp, args.x))


def _float(v: Fraction) -> str:
    try:
        return f"{float(v):.6g}"
    except OverflowError:
        raise InvalidInputError("a coordinate is too large to draw as SVG (past float range)") from None


def _witness_svg(out: WitnessOutput, areas: Sequence[Fraction]) -> str:
    xs = [v.x for v in out.quad.vertices]
    ys = [v.y for v in out.quad.vertices]
    span = max(max(xs) - min(xs), max(ys) - min(ys))
    margin = span * Fraction(1, 20)
    view = (
        min(xs) - margin,
        min(ys) - margin,
        (max(xs) - min(xs)) + 2 * margin,
        (max(ys) - min(ys)) + 2 * margin,
    )
    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="{} {} {} {}">'.format(
            *(_float(v) for v in view)
        )
    ]
    fills = ("#dbe9ff", "#f4dcc8")
    on_ab, on_dc = out.division.on_ab, out.division.on_dc
    strips = list(zip(on_ab, on_ab[1:], on_dc[1:], on_dc))
    for i, (corners, area) in enumerate(zip(strips, areas), start=1):
        points = " ".join(f"{_float(p.x)},{_float(p.y)}" for p in corners)
        lines.append(
            f'<polygon class="strip" data-index="{i}" data-area="{area}" '
            f'points="{points}" fill="{fills[(i - 1) % 2]}" stroke="#333" stroke-width="{_float(margin / 8)}"/>'
        )
    for a, d in zip(on_ab, on_dc):
        lines.append(
            f'<line x1="{_float(a.x)}" y1="{_float(a.y)}" x2="{_float(d.x)}" y2="{_float(d.y)}" '
            f'stroke="#000" stroke-width="{_float(margin / 8)}"/>'
        )
    for corners, area in zip(strips, areas):
        cx = sum(p.x for p in corners) / 4
        cy = sum(p.y for p in corners) / 4
        lines.append(
            f'<text x="{_float(cx)}" y="{_float(cy)}" font-size="{_float(margin)}" '
            f'text-anchor="middle">{area}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines)


def _witness_text(out: WitnessOutput, areas) -> str:
    quad = out.quad
    return (
        f"A={quad.a.text()} B={quad.b.text()} C={quad.c.text()} D={quad.d.text()} "
        f"construction={out.construction} "
        f"ab={';'.join(p.text() for p in out.division.on_ab)} "
        f"dc={';'.join(p.text() for p in out.division.on_dc)} "
        f"areas={','.join(str(a) for a in areas)}"
    )


def _describe_payload(spec: DivisionSpec) -> dict:
    from .cone import classify, discriminants, frame, hyperplanes

    label = classify(spec)
    fr = frame(spec)
    case: dict = {"kind": "spatial" if label.spatial else "planar"}
    if label.spatial:
        case["pivot"] = label.pivot
    else:
        case["proportional"] = label.proportional
    return {
        "n": spec.n,
        "deltas": _rationals(discriminants(spec)),
        "case": case,
        "frame": {
            "ab": _rationals(fr.ab),
            "dc": _rationals(fr.dc),
            "head": _rationals(fr.head),
            "tail": _rationals(fr.tail),
        },
        "hyperplanes": [[str(c) for c in plane] for plane in (hyperplanes(spec) if spec.n >= 3 else ())],
    }


def _report_text(report: SampleReport) -> str:
    head = (
        f"total={report.total} accepted={report.accepted} "
        f"violations={len(report.violations)} seed={report.seed} mode={report.mode}"
    )
    rows = [head]
    for v in report.violations:
        quad = v.quad.text() if v.quad is not None else "-"
        rows.append(f"violation quad={quad} x={','.join(str(e) for e in v.x)} reason={v.reason}")
    return "\n".join(rows)


class _Parser(argparse.ArgumentParser):
    """Usage errors raise InvalidInputError, so they end in one ``error:`` line with exit 1;
    an argument that starts with '-' and a digit is a value (``--x -1,2,3``), not an option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-[0-9]")

    def error(self, message: str):
        raise InvalidInputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="quadareas",
        description="Exact attainable-area computations for divided convex quadrilaterals",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, x=False, quad=False, sampling=False, folding=False):
        p.add_argument("--p", required=True, help="ratio tuple for side AB, e.g. 1,2,3")
        p.add_argument("--pp", required=True, help="ratio tuple for side DC")
        if x:
            p.add_argument("--x", required=True, help="candidate area tuple")
        if quad:
            p.add_argument("--quad", required=True, help="four points 'x,y;x,y;x,y;x,y'")
        p.add_argument("--mode", choices=("strict", "audited"), default="audited")
        p.add_argument("--format", choices=("text", "json", "svg"), default="json")
        p.add_argument("--full", action="store_true", help="wrap output with verb and input echo")
        if sampling:
            p.add_argument("--count", type=int, default=100)
            p.add_argument("--seed", type=int, default=0)
            p.add_argument(
                "--family", choices=("quads", "parallel", "cross"), default="quads"
            )
        if folding:
            p.add_argument("--pivot", type=int, required=True)
            p.add_argument("--branch", choices=("q1", "q2"), required=True)

    common(sub.add_parser("describe", help="discriminants, case label, frame, hyperplanes"))
    common(sub.add_parser("member", help="decide attainability of an area tuple"), x=True)
    common(sub.add_parser("witness", help="construct a quadrilateral realizing an area tuple"), x=True)
    common(sub.add_parser("areas", help="strip areas of a given quadrilateral"), quad=True)
    common(sub.add_parser("sample", help="run the randomized geometric oracle"), sampling=True)
    common(sub.add_parser("reduce", help="fold an instance to three coordinates"), x=True, folding=True)
    return parser


def _emit(args, payload, text: Optional[str] = None) -> None:
    if args.format == "text" and text is not None:
        print(text)
        return
    if args.full:
        envelope = {"verb": args.verb, "input": _input_echo(args), "result": payload}
        print(json.dumps(envelope, separators=(",", ":")))
        return
    print(json.dumps(payload, separators=(",", ":")))


def _input_echo(args) -> dict:
    echo = {}
    for key in ("p", "pp", "x", "quad", "mode", "count", "seed", "family", "pivot", "branch"):
        value = getattr(args, key, None)
        if value is not None:
            echo[key] = value
    return echo


def _run(args) -> int:
    if args.verb == "describe":
        spec = _spec_from_args(args)
        payload = _describe_payload(spec)
        case = payload["case"]
        case_text = " ".join(f"{k}={v}" for k, v in case.items())
        lines = [
            f"n={payload['n']}",
            f"deltas={','.join(payload['deltas']) or '-'}",
            f"case {case_text}",
            f"ab={','.join(payload['frame']['ab'])}",
            f"dc={','.join(payload['frame']['dc'])}",
            f"head={','.join(payload['frame']['head'])}",
            f"tail={','.join(payload['frame']['tail'])}",
        ]
        lines.extend(f"plane {','.join(plane)}" for plane in payload["hyperplanes"])
        _emit(args, payload, "\n".join(lines))
        return 0

    if args.verb == "member":
        if _has_tail(args.p, args.pp, args.x):
            from .reduction import member_tail

            verdict = member_tail(*_sequences_from_args(args), args.mode)
        else:
            from .membership import member

            verdict = member(_spec_from_args(args), _plain(args.x), args.mode)
        payload = _member_result(verdict)
        if verdict.attainable and args.full:
            payload["certificate"] = _certificate_payload(verdict.certificate)
        if verdict.attainable:
            text = (
                f"attainable branch={verdict.certificate.branch} "
                f"coeffs={','.join(str(c) for c in verdict.certificate.coeffs)}"
            )
        else:
            text = f"not attainable reason={verdict.reason}"
        _emit(args, payload, text)
        return 0 if verdict.attainable else 2

    if args.verb == "witness":
        from .geometry import strip_areas
        from .witness import synthesize_witness

        spec = _spec_from_args(args)
        x = _plain(args.x)
        try:
            out = synthesize_witness(spec, x, args.mode)
        except NotAttainableError as err:
            payload = {"attainable": False, "reason": err.reason}
            _emit(args, payload, json.dumps(payload))
            return 2
        areas = strip_areas(out.quad, spec)
        if args.format == "svg":
            print(_witness_svg(out, areas))
            return 0
        payload = {
            "A": out.quad.a.text(),
            "B": out.quad.b.text(),
            "C": out.quad.c.text(),
            "D": out.quad.d.text(),
            "construction": out.construction,
            "division_ab": [p.text() for p in out.division.on_ab],
            "division_dc": [p.text() for p in out.division.on_dc],
            "areas": _rationals(areas),
            "certificate": _certificate_payload(out.certificate),
        }
        _emit(args, payload, _witness_text(out, areas))
        return 0

    if args.verb == "areas":
        from .geometry import ConvexQuad, strip_areas

        spec = _spec_from_args(args)
        quad = ConvexQuad.parse(args.quad)
        areas = strip_areas(quad, spec)
        payload = {"areas": _rationals(areas), "total": str(sum(areas))}
        _emit(args, payload, ",".join(str(a) for a in areas))
        return 0

    if args.verb == "sample":
        from .oracle import cross_validate, sample_convex_quads, sample_parallel_family

        spec = _spec_from_args(args)
        if args.family == "quads":
            report = sample_convex_quads(spec, args.count, args.seed)
        elif args.family == "parallel":
            report = sample_parallel_family(spec, args.count, args.seed, args.mode)
        else:
            report = cross_validate(spec, args.count, args.seed)
        _emit(args, report.to_jsonable(), _report_text(report))
        return 3 if report.violations else 0

    if args.verb == "reduce":
        from .reduction import collapse

        p, pp, x = _sequences_from_args(args)
        instance = collapse((p, pp), x, args.pivot, args.branch)
        payload = {
            "p3": _rationals(instance.spec3.p),
            "pp3": _rationals(instance.spec3.p_prime),
            "x3": _rationals(instance.x3),
            "pivot": instance.pivot,
            "branch": instance.branch,
        }
        text = (
            f"p3={','.join(payload['p3'])} pp3={','.join(payload['pp3'])} "
            f"x3={','.join(payload['x3'])} pivot={instance.pivot} branch={instance.branch}"
        )
        _emit(args, payload, text)
        return 0

    raise InvalidInputError(f"unknown verb {args.verb!r}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        return _run(build_parser().parse_args(argv))
    except SystemExit:  # --help, the only way the parser exits
        return 0
    except InternalError as err:
        print(f"error: internal error, invariant failed: {err}", file=sys.stderr)
        return 4
    except QuadAreasError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except ValueError as err:
        # parsing already maps the int/str digit limit to an input error, so this one comes from output
        if "integer string conversion" not in str(err):
            raise
        print("error: the result is too large to print (past Python's int/str digit limit)", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
