"""Per-spec and per-pair memos: values shared safely, never stale, and built once."""
import gc
import weakref
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from quadareas import DivisionSpec, TailSummedSequence, member_tail, station_check
from quadareas import cone, division, geometry, reduction
from quadareas.division import _Frozen

from test_reduction import seq_combo

RATIO = st.builds(F, st.integers(1, 64), st.integers(1, 8))

# every memo, with the records it takes: one DivisionSpec, or a (p, p_prime) pair
SPEC_MEMOS = (cone.classify, cone.frame, cone.integer_rows, division._side_sums, division._mirror,
              geometry._integer_side_sums)
PAIR_MEMOS = (reduction._tail_rows,)


def fresh(record):
    """An equal record with an empty memo."""
    return type(record)(*record._values())


def memo_key(memoized):
    return f"_{memoized.__wrapped__.__name__}"


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
        for name in ("_rows", "_first_pivot"):
            monkeypatch.setattr(reduction, name, lambda *args, _fn=getattr(reduction, name), _name=name: (
                built.update([_name]) or _fn(*args)))
        p, pp = TailSummedSequence.of((1, 2, 3, 4), 2), TailSummedSequence.of((1, 1, 1, 1), 1)
        x = TailSummedSequence.of((1, 2, 3, 4), 5)
        first = member_tail(p, pp, x)
        assert built == {"_rows": 1, "_first_pivot": 1}
        again = (member_tail(p, pp, x), member_tail(p, fresh(pp), fresh(x), "strict"))
        assert built == {"_rows": 1, "_first_pivot": 1}
        assert again[0] == again[1] == first


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
        for memoized in PAIR_MEMOS:
            memoized(p, pp)
        filled = set()
        for record, copy, text in before:
            memos = {k: v for k, v in vars(record).items() if k not in record._fields}
            filled |= memos.keys()
            assert all(deeply_immutable(v) for v in memos.values()), memos
            assert record == copy and hash(record) == hash(copy) and repr(record) == text
        assert filled == {memo_key(memoized) for memoized in (*SPEC_MEMOS, *PAIR_MEMOS)}

    def test_each_memo_has_a_key_of_its_own(self):
        keys = [memo_key(memoized) for memoized in (*SPEC_MEMOS, *PAIR_MEMOS)]
        assert len(set(keys)) == len(keys)
