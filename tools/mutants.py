"""Mutation audit: deliberate defects, each of which named tests must catch.

    python tools/mutants.py          # every row
    python tools/mutants.py 3 7      # rows 3 and 7 (1-based, as printed)

Each row of ``MUTANTS`` names a file, an exact old string that occurs in it
once, the string that replaces it, and the test node IDs that must fail on the
result.  The script first checks every selected row against the checkout: an
old string that no longer occurs exactly once stops it before anything runs,
so a stale row is updated or removed, never skipped.  It then copies ``src/``,
``tests/``, ``bench/`` and ``pyproject.toml`` to a temporary directory, runs
all the named tests there once unmutated (they must pass), and for each row
applies the edit, runs only that row's tests with pytest, one process at a
time, and restores the file.  A row is killed when pytest fails; a run that
outlasts ``TIMEOUT_S`` is stopped and counts as surviving, since a hang is not
a failing test.  The exit status is 0 when every row is killed, 1 otherwise.

The script uses the standard library alone and lives outside pytest's
``testpaths``, so the test suite does not collect it; ``tests/test_mutants.py``
checks that every row is current (its old string occurs once, and each named
test is collected), so a change that breaks a row fails the suite at once.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "bench", "pyproject.toml")


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


K = "tests/test_kernels.py::"
G = "tests/test_geometry.py::"
O = "tests/test_oracle.py::"

MUTANTS = (
    # the pivot solve and apex_of in ints
    Mutant("src/quadareas/geometry.py", "sign = 1 if n > 0 else -1", "sign = 1",
           (G + "test_apex_of_matches_the_point_cross_reference",)),
    Mutant("src/quadareas/geometry.py", "if 0 <= tn <= td or 0 <= rn <= rd:", "if 0 <= tn <= td or 0 < rn < rd:",
           (G + "test_apex_of_refuses_a_corrupted_quad_as_the_reference_does",)),
    Mutant("src/quadareas/membership.py", "r0 = l0 // g0 * x0.numerator", "r0 = l0 * x0.numerator",
           (K + "test_pivot_solution_matches_the_fraction_product_reference",)),
    Mutant("src/quadareas/witness.py", "Point(near_dc, _ZERO), Point(far_dc, _ZERO))",
           "Point(far_dc, _ZERO), Point(near_dc, _ZERO))",
           (K + "test_q2_apex_quad_matches_the_reversed_reference",)),
    # oracle samples in ints and the quad's kept edges
    Mutant("src/quadareas/oracle.py", "Fraction(k11 * xs + k12 * ys + kx * den, 8 * den)",
           "Fraction(k11 * xs + k21 * ys + kx * den, 8 * den)",
           (O + "TestIntegerSamples::test_samples_match_the_fraction_builders",)),
    Mutant("src/quadareas/oracle.py", "a, b, c = a * s + c * tdn * tad, b * s + c * tan * tdd, -c * s",
           "a, b, c = a * s + c * tan * tdd, b * s + c * tdn * tad, -c * s",
           (O + "TestIntegerSamples::test_cross_tuple_matches_the_frame_combination",)),
    Mutant("src/quadareas/reduction.py", "else (*x[k + 1:], tail_x))", "else x[k + 1:])",
           ("tests/test_reduction.py::test_summed_coordinate_matches_the_fraction_sum",)),
    Mutant("src/quadareas/geometry.py", "return ab, (-cd[0], cd[1], -cd[2], cd[3]),", "return ab, cd,",
           (G + "TestEdgeRecord::test_kept_edges_are_the_fresh_ones",)),
    Mutant("src/quadareas/geometry.py", "_edge(a, b), _edge(d, c), _edge(a, d)",
           "_edge(a, b), _edge(d, c), _edge(d, a)",
           (G + "TestEdgeRecord::test_a_quad_without_kept_edges_reads_the_same",)),
    # the mirror read-back of a degenerate certificate
    Mutant("src/quadareas/membership.py", "cert.coeffs[::-1], cert.q2_interval, cert.q1_interval",
           "cert.coeffs[::-1], cert.q1_interval, cert.q2_interval",
           (K + "test_a_planar_tuple_heavy_at_its_head_is_read_back_from_the_mirror",)),
    # the integer segment kernel, _decide's planar certificate and _realization
    Mutant("src/quadareas/membership.py", "if lo is None or -v * lo[1] > lo[0] * k:",
           "if lo is None or -v * lo[1] < lo[0] * k:",
           (K + "test_segment_matches_the_fraction_reference",
            K + "test_each_range_shape_matches_the_fraction_reference")),
    Mutant("src/quadareas/membership.py", "reason = _facets(big_a, big_b, c, total_ab, total_dc)[2]",
           'reason = _coefficient_verdict(*sol, total_ab, total_dc, "audited").reason',
           (K + "test_a_warm_skew_planar_member_builds_only_the_certificate_fractions",)),
    Mutant("src/quadareas/membership.py", "Fraction(-hn, hd) if hn < 0 else _ZERO",
           "Fraction(hn, hd) if hn < 0 else _ZERO",
           (K + "test_each_range_shape_matches_the_fraction_reference[q2-only]",)),
    Mutant("src/quadareas/membership.py", "(ln * hd + hn * ld, 2 * ld * hd)", "(ln * hd + hn * ld, ld * hd)",
           (K + "test_each_range_shape_matches_the_fraction_reference[q1-only]",)),
    Mutant("src/quadareas/membership.py", "point = (split, split, 0, den * (p0 + q0))", "point = sol",
           (K + "test_each_range_shape_matches_the_fraction_reference[point-zero]",)),
    Mutant("src/quadareas/geometry.py",
           "quad = object.__new__(cls)\n                quad.__dict__.update(a=a, b=b, c=c, d=d, _edges=edges)\n"
           "                return quad",
           "return cls(a, b, c, d)",
           (G + "TestEdgeRecord::test_of_checks_each_vertex_order_once_and_keeps_its_edges",)),
    # side totals as int pairs and the first pivot read from the block at rows 0-2
    Mutant("src/quadareas/cone.py", "if block.det:", "if block.det > 0:",
           (K + "test_factored_pivot_matches_the_reference",)),
    Mutant("src/quadareas/membership.py", "return a, b, a * tdd + c * tdn, b * tad + c * tan",
           "return a, b, a * tad + c * tdn, b * tdd + c * tan",
           (K + "test_coefficient_verdict_matches_the_two_region_reference",)),
    Mutant("src/quadareas/cone.py", "return tuple(rows), (sn, sd), (tn, td)",
           "return tuple(rows), (sn, sd), (tn * bd - bn * td, td * bd)",
           (K + "test_rows_match_the_lcm_reference",)),
    # one cross product, and the planar conic as the one encoding of the planar case
    Mutant("src/quadareas/linalg.py", "u2 * v0 - u0 * v2", "u0 * v2 - u2 * v0",
           (K + "test_pivot_solution_matches_fraction_cramer",)),
    Mutant("src/quadareas/cone.py", "proportional=not f.conic[2]", "proportional=bool(f.conic[2])",
           ("tests/test_cone.py::TestClassify::test_planar_proportional",)),
    # a fixed-input test: the strategies that halve the next ratio until continue_degenerate
    # succeeds never finish when every continuation is refused
    Mutant("src/quadareas/cone.py", "ratio = -beta * t / weight", "ratio = beta * t / weight",
           ("tests/test_cone.py::TestContinueDegenerate::test_known_continuations",)),
    # the builders' int corners, the one convexity kernel and the cross-multiplied certificate check
    Mutant("src/quadareas/witness.py", "far_ab = Fraction(2 * pn, pd), Fraction(2 * (pn * sd + sn * pd), pd * sd)",
           "far_ab = Fraction(2 * pn, pd), Fraction(2 * (pn * td + tn * pd), pd * td)",
           (O + "TestIntegerSamples::test_samples_match_the_fraction_builders",)),
    Mutant("src/quadareas/geometry.py", "return rxn * pxd - pxn * rxd, rxd * pxd,", "return pxn * rxd - rxn * pxd, rxd * pxd,",
           (G + "TestEdgeRecord::test_kept_edges_are_the_fresh_ones",)),
    Mutant("src/quadareas/oracle.py", "(geo.p0_prime, geo.p0, 1)", "(geo.p0, geo.p0_prime, 1)",
           (O + "TestIntegerSamples::test_certificate_matches_as_the_fraction_products",)),
)

TIMEOUT_S = 300  # far above any row's tests; a run that takes longer has hung


def passes(where: Path, tests) -> bool | None:
    """True when the tests pass, False when they fail, None when they run past ``TIMEOUT_S``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH="src")
    try:
        run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
                             cwd=where, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                             timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    return run.returncode == 0


def stale(rows) -> list[str]:
    """One message for each numbered row whose old string does not occur exactly once in its file."""
    messages = []
    for i, row in rows:
        found = (ROOT / row.file).read_text().count(row.old)
        if found != 1:
            messages.append(f"row {i}: the old string occurs {found} times in {row.file}, not once; "
                            "update or remove the row")
    return messages


def main(argv: list[str]) -> int:
    numbers = [int(a) for a in argv] or list(range(1, len(MUTANTS) + 1))
    rows = [(i, MUTANTS[i - 1]) for i in numbers]
    messages = stale(rows)
    if messages:
        sys.exit("\n".join(messages))
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        where = Path(tmp)
        for name in COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, where / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy(ROOT / name, where / name)
        named = sorted({test for _, row in rows for test in row.tests})
        if not passes(where, named):
            sys.exit("the named tests fail or hang on the unmutated checkout; fix them before auditing")
        survived = 0
        for i, row in rows:
            path = where / row.file
            text = path.read_text()
            path.write_text(text.replace(row.old, row.new))
            outcome = passes(where, row.tests)
            path.write_text(text)
            survived += outcome is not False
            label = {False: "killed  ", True: "SURVIVED", None: "TIMEOUT "}[outcome]
            print(f"{i:3}  {label}  {row.file}: {row.old.splitlines()[0]}", flush=True)
    print(f"{len(rows) - survived} of {len(rows)} killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
