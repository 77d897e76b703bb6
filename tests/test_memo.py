"""Per-spec and per-pair memos: values shared safely, never stale, and built once."""
import ast
import gc
import inspect
import weakref
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import assume, given, strategies as st

from quadareas import (
    DivisionSpec, InvalidPivotError, NoValidContinuationError, QuadAreasError, TailSummedSequence, classify, collapse,
    continue_degenerate, cumulants, discriminants, hyperplanes, member, member_tail, member_via_collapse, station_check,
    synthesize_witness,
)
from quadareas import cone, division, geometry, reduction
from quadareas.division import _Frozen
from quadareas.membership import _decide

from test_kernels import ratios
from test_reduction import seq_combo

RATIO = st.builds(F, st.integers(1, 64), st.integers(1, 8))

# every memo, with the records it takes: one DivisionSpec, or a (p, p_prime) pair
SPEC_MEMOS = (cone.frame, cone._factored, cone._planes, division._side_sums, division._mirror,
              geometry._integer_side_sums)
PAIR_MEMOS = (reduction._tail_rows,)


def fresh(record):
    """An equal record with an empty memo."""
    return type(record)(*record._values())


def memo_key(memoized):
    return f"_{memoized.__wrapped__.__name__}"


def usable_pivots(spec):
    return [j + 2 for j, d in enumerate(discriminants(spec)) if d != 0]


def fold_keys(spec):
    """Fold a spatial spec at every usable pivot on both branches; the keys of the folds it keeps."""
    keys = set()
    for pivot in usable_pivots(spec):
        for branch in ("q1", "q2"):
            collapse(spec, (1,) * spec.n, pivot, branch)
            keys.add(f"_collapse_{branch}{pivot}")
    return keys


def deeply_immutable(value) -> bool:
    if isinstance(value, tuple):
        return all(deeply_immutable(v) for v in value)
    if isinstance(value, _Frozen):
        return all(deeply_immutable(v) for v in value._values())
    return value is None or type(value) in (bool, int, F)


@st.composite
def tail_pairs(draw):
    """p with two ratio sequences of its length: pp1 (proportional to p or not) and pp2, which
    shares pp1's prefix with another tail sum or has a prefix of its own."""
    m = draw(st.integers(3, 12))
    tail = st.one_of(st.just(F(0)), RATIO)
    p = TailSummedSequence(tuple(draw(RATIO) for _ in range(m)), draw(tail))
    if draw(st.booleans()):  # proportional prefixes
        scale = draw(RATIO)
        tails = (scale * p.tail_sum, F(0))  # keeping the ratio, or ending the zero chain
        pp1 = TailSummedSequence(tuple(scale * v for v in p.prefix), draw(st.sampled_from(tails)))
    else:
        pp1 = TailSummedSequence(tuple(draw(RATIO) for _ in range(m)), draw(tail))
    if draw(st.booleans()):
        pp2 = TailSummedSequence(pp1.prefix, pp1.tail_sum + draw(RATIO))
    else:
        pp2 = TailSummedSequence(tuple(draw(RATIO) for _ in range(m)), draw(tail))
    return p, pp1, pp2


class TestStaleMemo:
    @given(tail_pairs(), st.lists(st.integers(0, 2), min_size=3, max_size=8), RATIO, RATIO, st.booleans())
    def test_interleaved_pairs_decide_as_fresh_sequences(self, pairs, order, a, b, bump):
        p, pp1, pp2 = pairs
        x = seq_combo(p, pp1, a, b)
        if bump:
            x = TailSummedSequence((x.prefix[0] + 1, *x.prefix[1:]), x.tail_sum)
        seconds = (pp1, pp2, fresh(pp1))
        for i in order:
            got = member_tail(p, seconds[i], x)
            assert repr(got) == repr(member_tail(fresh(p), fresh(seconds[i]), fresh(x)))

    def test_station_check_leaves_no_reference_cycle(self):
        p = TailSummedSequence.of((1, 2, 3, 4), 2)
        gc.disable()
        try:
            station_check(p, seq_combo(p, p, 1, 1))
            assert p.__dict__[memo_key(reduction._tail_rows)][0] is None
            gone = weakref.ref(p)
            del p
            assert gone() is None  # freed by its reference count alone
        finally:
            gc.enable()


class TestBuiltOnce:
    def test_a_second_call_on_the_same_pair_builds_nothing(self, monkeypatch):
        built = Counter()
        # the pivot search is the block at rows 0-2, regular here, so no discriminant scan runs
        for name in ("_rows", "_block", "_discriminant"):
            monkeypatch.setattr(cone, name, lambda *args, _fn=getattr(cone, name), _name=name: (
                built.update([_name]) or _fn(*args)))
        p, pp = TailSummedSequence.of((1, 2, 3, 4), 2), TailSummedSequence.of((1, 1, 1, 1), 1)
        x = TailSummedSequence.of((1, 2, 3, 4), 5)
        first = member_tail(p, pp, x)
        assert built == {"_rows": 1, "_block": 1}
        again = (member_tail(p, pp, x), member_tail(p, fresh(pp), fresh(x), "strict"))
        assert built == {"_rows": 1, "_block": 1}
        assert again[0] == again[1] == first


    def test_a_kept_fold_is_reused_and_a_pivot_of_another_kind_is_still_refused(self):
        spec, x = DivisionSpec.of((1, 2, 3, 4), (1, 1, 1, 1)), (1, 2, 3, 4)
        pivot = usable_pivots(spec)[0]
        first = collapse(spec, x, pivot, "q1")
        assert collapse(spec, x, pivot, "q1").spec3 is first.spec3
        for other in (str(pivot), float(pivot), True):
            with pytest.raises(InvalidPivotError, match="pivot must be an integer"):
                collapse(spec, x, other, "q1")


class TestMemoHygiene:
    SPECS = (
        DivisionSpec.of((1, 2, 3, 4), (1, 1, 1, 1)),
        DivisionSpec.of((1, 2, 3), (2, 4, 6)),
        DivisionSpec.of((1, 1, 1), (1, 2, 6)),
    )

    @pytest.mark.parametrize("spec", SPECS, ids=("spatial", "proportional", "skew"))
    def test_memoized_values_are_immutable_and_leave_eq_hash_and_repr_alone(self, spec):
        spec = fresh(spec)
        p, pp = TailSummedSequence(spec.p, F(1, 2)), TailSummedSequence(spec.p_prime)
        before = [(record, fresh(record), repr(record)) for record in (spec, p, pp)]
        for memoized in SPEC_MEMOS:
            memoized(spec)
        classify(spec)  # a view of the kept record, with no key of its own
        for memoized in PAIR_MEMOS:
            memoized(p, pp)
        folds = fold_keys(spec)
        mirror = spec.__dict__[memo_key(division._mirror)]
        cone._factored(mirror)  # the mirror keeps its own record
        before.append((mirror, fresh(mirror), repr(mirror)))
        filled = set()
        for record, copy, text in before:
            memos = {k: v for k, v in vars(record).items() if k not in record._fields}
            filled |= memos.keys()
            assert all(deeply_immutable(v) for v in memos.values()), memos
            assert record == copy and hash(record) == hash(copy) and repr(record) == text
        assert filled == {memo_key(memoized) for memoized in (*SPEC_MEMOS, *PAIR_MEMOS)} | folds
        assert memo_key(cone._factored) in vars(mirror)

    @pytest.mark.parametrize("memoized", SPEC_MEMOS, ids=lambda memoized: memoized.__name__)
    def test_a_spec_memo_takes_the_spec_alone(self, memoized):
        code = memoized.__code__
        assert code.co_argcount == 1 and not code.co_flags & inspect.CO_VARARGS
        assert len(inspect.signature(memoized.__wrapped__).parameters) == 1

    def test_each_memo_has_a_key_of_its_own(self):
        keys = [memo_key(memoized) for memoized in (*SPEC_MEMOS, *PAIR_MEMOS)]
        assert len(set(keys)) == len(keys)
        spec = fresh(self.SPECS[0])
        assert not fold_keys(spec) & set(keys)


@st.composite
def memo_specs(draw, kinds=("spatial", "proportional", "planar-skew", "big-digit")):
    """A spatial, proportional or planar-skew spec (n = 3-12) with grid or 30-digit entries, or a
    spatial one with 100-digit entries (n = 3-6), of one of the given kinds; skew chains with 30-digit
    entries stop at n = 6."""
    kind = draw(st.sampled_from(kinds))
    digits = (100, 100) if kind == "big-digit" else draw(st.sampled_from((None, (30, 30))))
    n = draw(st.integers(3, 6 if digits and kind in ("big-digit", "planar-skew") else 12))
    entry = ratios(big=digits is not None, digits=digits or (30, 30))
    p = [draw(entry) for _ in range(n)]
    if kind == "proportional":
        scale = draw(entry)
        q = [scale * v for v in p]
    else:
        q = [draw(entry) for _ in range(n)]
    if kind == "planar-skew":
        q[1] += q[0] * p[1] / p[0]
        for i in range(2, n):
            while True:
                try:
                    p[i] = continue_degenerate(p[:i], q[:i], q[i])
                    break
                except NoValidContinuationError:
                    q[i] /= 2
    return kind, DivisionSpec(tuple(p), tuple(q))


@st.composite
def memo_workloads(draw):
    """Two to four specs, each with two tuples on its frame (on a big-digit spec, a q2 tuple, which
    is decided on the mirror, and one decided on the spec itself), tail-summed sides and one
    tail-summed tuple, and the calls to make on them in one interleaved order: hyperplanes, member
    in both modes, synthesize_witness, member_tail and, on a spatial spec, collapse on both
    branches and member_via_collapse at every usable pivot."""
    specs = draw(st.lists(memo_specs(), min_size=2, max_size=4))
    cases, calls = [], []
    for index, (kind, spec) in enumerate(specs):
        head, tail = cumulants(spec.p, spec.p_prime)
        spatial = any(discriminants(spec))
        zero = (F(0),) * spec.n
        xs = []
        for j in range(2):
            a, b, c = draw(ratios(big=False)), draw(ratios(big=False)), draw(ratios(big=False, signed=True))
            if spatial:
                arm = draw(st.sampled_from((head, tail, zero)))
                if kind == "big-digit":  # a q2 tuple, decided on the mirror, then a q1 or negative one
                    arm, c = (tail, abs(c)) if j == 0 else (head, c)
                x = [a * u + b * v + c * w for u, v, w in zip(spec.p, spec.p_prime, arm)]
            else:
                x = [a * u + c * v for u, v in zip(head, tail)]
            if draw(st.booleans()):
                x[draw(st.integers(0, spec.n - 1))] += draw(ratios(big=False))
            xs.append(tuple(x))
        tails = st.one_of(st.just(F(0)), ratios(big=False))
        p, pp = TailSummedSequence(spec.p, draw(tails)), TailSummedSequence(spec.p_prime, draw(tails))
        cases.append((spec, xs, p, pp, seq_combo(p, pp, draw(ratios(big=False)), draw(ratios(big=False)))))
        calls.append((index, "hyperplanes"))
        calls += [(index, "member", j, mode) for j in range(2) for mode in ("strict", "audited")]
        calls += [(index, "synthesize_witness", j) for j in range(2)]
        calls += [(index, "member_tail", mode) for mode in ("strict", "audited")]
        for pivot in usable_pivots(spec):
            calls += [(index, "collapse", pivot, branch) for branch in ("q1", "q2")]
            calls.append((index, "member_via_collapse", pivot))
    return cases, draw(st.permutations(calls))


def outcome(call, spec, xs, p, pp, x_tail):
    """The call's result, or its refusal, on the given records."""
    name, *args = call
    try:
        if name == "hyperplanes":
            return hyperplanes(spec)
        if name == "member":
            return member(spec, xs[args[0]], args[1])
        if name == "synthesize_witness":
            return synthesize_witness(spec, xs[args[0]])
        if name == "member_tail":
            return member_tail(p, pp, x_tail, args[0])
        if name == "collapse":
            return collapse(spec, xs[0], *args)
        return member_via_collapse(spec, xs[0], args[0])
    except QuadAreasError as error:
        return type(error), str(error)


class TestWarmEqualsCold:
    @given(memo_workloads())
    def test_interleaved_calls_on_warm_specs_answer_as_on_fresh_ones(self, workload):
        cases, order = workload
        for index, *call in order:
            spec, xs, p, pp, x_tail = cases[index]
            warm = outcome(call, spec, xs, p, pp, x_tail)
            cold = outcome(call, fresh(spec), xs, fresh(p), fresh(pp), x_tail)
            assert warm == cold and repr(warm) == repr(cold), call


class TestSpanContract:
    """A warm ``hyperplanes`` call makes the same public calls as a cold one, so that tracing
    every public function counts the same spans whether or not the planes are kept."""

    @pytest.mark.parametrize("spec", (
        DivisionSpec.of((1, 2, 3, 4), (2, 1, 1, 3)),
        DivisionSpec.of((1, 1, 1, "2/3"), (1, 2, 6, 24)),
    ), ids=("spatial", "planar"))
    def test_a_warm_hyperplanes_call_makes_the_public_calls_of_a_cold_one(self, spec, monkeypatch):
        calls = []
        for name, fn in vars(cone).copy().items():
            if inspect.isfunction(fn) and not name.startswith("_") and fn.__module__ == cone.__name__:
                monkeypatch.setattr(cone, name, lambda *args, _fn=fn, _name=name: (
                    calls.append(_name) or _fn(*args)))
        spec = fresh(spec)
        cold = cone.hyperplanes(spec)
        cold_calls, calls[:] = calls[:], []
        assert cone.hyperplanes(spec) == cold
        assert calls == cold_calls and "classify" in calls


class TestOneRecord:
    """The facts that let every reader take the spec's case from its one ``cone._factored`` record."""

    @given(memo_specs())
    def test_a_planar_record_has_a_face_exactly_when_the_sides_are_skew(self, drawn):
        _, spec = drawn
        label = classify(spec)
        assert label == classify(fresh(spec)) and label.pivot == cone._factored(spec).pivot
        if not label.spatial:
            assert label.proportional == spec.proportional()

    def test_only_cone_builds_decision_records(self):
        # every record and block comes from cone._factor, which checks each block's regularity once
        builders = {"_Factored", "_Block", "_block", "_pivot_block"}
        sources = sorted(Path(cone.__file__).parent.glob("*.py"))
        assert Path(cone.__file__) in sources
        calls = [
            f"{path.name}:{node.lineno}"
            for path in sources if path.name != "cone.py"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) in builders
        ]
        assert calls == []

    @given(memo_specs())
    def test_the_mirror_chain_is_the_spec_chain_reversed(self, drawn):
        _, spec = drawn
        mirror = division._mirror(spec)
        assert discriminants(mirror) == discriminants(spec)[::-1]
        assert (cone._factored(mirror).pivot is None) == (cone._factored(spec).pivot is None)

    @given(memo_specs(kinds=("proportional", "planar-skew")), ratios(big=False), ratios(big=False),
           st.booleans(), st.sampled_from(("strict", "audited")))
    def test_a_planar_tuple_lighter_at_its_end_is_decided_on_the_mirror_alone(self, drawn, a, b, on_span, mode):
        # x's first entry is 90 to 100 digits over the last: member decides it on the mirror's record,
        # the only record it builds, and reads the verdict back as the spec's own record decides it
        _, spec = drawn
        spec = fresh(spec)
        head, tail = cumulants(spec.p, spec.p_prime)
        heavy = F(1, 10 ** 90 + 7)
        if on_span:  # a*head + b*tail with the heavy coefficient chosen to cancel at the last entry
            a *= heavy
            b = (b - a * head[-1]) / tail[-1]
            x = tuple(a * h + b * t for h, t in zip(head, tail))
        else:
            x = (heavy, *(a * h + b * t for h, t in zip(head[1:], tail[1:])))
        assume(division._lighter_at_end(x[0], x[-1]) and min(x) > 0)
        verdict = member(spec, x, mode)
        key = memo_key(cone._factored)
        assert key not in vars(spec) and key in vars(division._mirror(spec))
        assert repr(verdict) == repr(_decide(cone._factored(spec), x, mode))
