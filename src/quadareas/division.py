"""Division ratio tuples, tail-summed sequences and the exact rational text format.

Rationals are stdlib ``fractions.Fraction`` values everywhere: arbitrary
precision, stored in lowest terms with a positive denominator, so every
computation in the package is exact.
"""
from __future__ import annotations

import re
from fractions import Fraction
from functools import wraps
from itertools import accumulate
from typing import Iterable, Union

from .errors import InvalidInputError

RationalLike = Union[int, str, Fraction]

_RATIONAL = re.compile(r"^[+-]?[0-9]+(?:\s*/\s*[0-9]+)?$")


def to_fraction(value: RationalLike) -> Fraction:
    """Parse ``a`` or ``a/b`` (or pass through ints and Fractions) exactly; a bool is refused."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if not _RATIONAL.match(text):
            raise InvalidInputError(f"malformed rational literal {value!r}")
        try:
            return Fraction(re.sub(r"\s", "", text))
        except ZeroDivisionError:
            raise InvalidInputError(f"zero denominator in {value!r}") from None
        except ValueError:  # past CPython's int/str digit limit (sys.get_int_max_str_digits)
            raise InvalidInputError(
                f"rational literal {text[:12]}... ({len(text)} characters) exceeds the digit limit"
            ) from None
    raise InvalidInputError(f"cannot interpret {value!r} as a rational")


def fraction_tuple(values: Iterable[RationalLike]) -> tuple[Fraction, ...]:
    """The values as a tuple of Fractions; a value that is not iterable is refused.  A tuple whose
    entries are all Fractions is returned unchanged, so a tuple read once is never coerced again."""
    if type(values) is tuple and all(isinstance(v, Fraction) for v in values):
        return values
    try:
        values = iter(values)
    except TypeError:
        raise InvalidInputError(f"expected a sequence of rationals, got {type(values).__name__}") from None
    return tuple(to_fraction(v) for v in values)


class _Frozen:
    """Base of the package's immutable records.

    Each subclass annotates its fields, a class-level value being that field's
    default; repr, equality and hash read them in declaration order, and any
    other assignment or deletion is refused.  A record that defines no
    ``__init__`` gets the constructor it would write by hand: the fields in
    declaration order as parameters, one ``self.__dict__.update``, then
    ``self.__post_init__()`` when the record has that check hook (looked up on
    each call, so replacing it on the class takes effect).  One update leaves
    CPython a combined dict whose attribute reads stay as fast as a
    dataclass's; item-by-item writes leave a split dict that reads about twice
    as slowly.
    """

    def __init_subclass__(cls):
        cls._fields = fields = tuple(cls.__dict__.get("__annotations__", ()))
        if "__init__" in cls.__dict__:
            return
        # compiled from source once per class, as dataclasses does, so that the signature, the
        # error messages and the per-call cost are those of a hand-written constructor
        defaults = {name: cls.__dict__[name] for name in fields if name in cls.__dict__}
        params = "".join(f", {name}=defaults[{name!r}]" if name in defaults else f", {name}" for name in fields)
        lines = [f"self.__dict__.update({', '.join(f'{name}={name}' for name in fields)})"]
        if hasattr(cls, "__post_init__"):
            lines.append("self.__post_init__()")
        namespace = {"defaults": defaults}
        exec(f"def __init__(self{params}):\n    " + "\n    ".join(lines), namespace)
        cls.__init__ = init = namespace["__init__"]
        init.__qualname__, init.__module__ = f"{cls.__qualname__}.__init__", cls.__module__

    def _values(self) -> tuple:
        d = self.__dict__
        return tuple([d[name] for name in self._fields])

    def __repr__(self) -> str:
        d = self.__dict__
        body = ", ".join(f"{name}={d[name]!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class DivisionSpec(_Frozen):
    """The pair of positive ratio tuples prescribing the subdivisions of AB and DC."""

    p: tuple[Fraction, ...]
    p_prime: tuple[Fraction, ...]

    def __post_init__(self):
        # stored as tuples, so that a spec built from lists hashes and compares as one built from tuples
        try:
            self.__dict__.update(p=tuple(self.p), p_prime=tuple(self.p_prime))
        except TypeError:
            raise InvalidInputError("ratio tuples must be sequences of rationals") from None
        if len(self.p) != len(self.p_prime):
            raise InvalidInputError("ratio tuples must have the same length")
        if len(self.p) < 2:
            raise InvalidInputError("need at least two segments per side")
        for name, tup in (("p", self.p), ("p_prime", self.p_prime)):
            for i, entry in enumerate(tup, start=1):
                if not isinstance(entry, Fraction):
                    raise InvalidInputError(f"{name} entry {i} is not a rational")
                if entry.numerator <= 0:  # a Fraction's denominator is positive
                    raise InvalidInputError(f"{name} entry {i} must be positive")

    @classmethod
    def of(cls, p: Iterable[RationalLike], p_prime: Iterable[RationalLike]) -> "DivisionSpec":
        return cls(fraction_tuple(p), fraction_tuple(p_prime))

    @property
    def n(self) -> int:
        return len(self.p)

    def proportional(self) -> bool:
        """True when the two tuples prescribe the same sequence of ratios."""
        p1, q1 = self.p[0], self.p_prime[0]
        return all(pi * q1 == qi * p1 for pi, qi in zip(self.p, self.p_prime))


def _check_spec(name: str, spec) -> None:
    """Refuse a spec that is not a ``DivisionSpec``, naming the function it was passed to."""
    if not isinstance(spec, DivisionSpec):
        raise InvalidInputError(f"{name} takes a DivisionSpec, got {type(spec).__name__}")


def _memoized_on_spec(fn):
    """Keep fn(spec) in the frozen spec's own dict, beside the fields eq, hash and repr read;
    every caller shares the one value, so it must be immutable, and the spec alone is the key.
    A spec that is not a ``DivisionSpec`` is refused, naming fn.  A cheap view of a memo, as
    ``cone.classify`` of ``cone._factored``, keeps no key of its own."""
    key, name = f"_{fn.__name__}", fn.__name__

    @wraps(fn)
    def memoized(spec: DivisionSpec):
        _check_spec(name, spec)
        if key not in spec.__dict__:
            spec.__dict__[key] = fn(spec)
        return spec.__dict__[key]

    return memoized


@_memoized_on_spec
def _side_sums(spec: DivisionSpec) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """The partial sums of the AB ratios and of the DC ratios, each from 0 to the side total:
    the division points of each side, measured from A and from D in units of the ratios."""
    return tuple((Fraction(0), *accumulate(side)) for side in (spec.p, spec.p_prime))


@_memoized_on_spec
def _mirror(spec: DivisionSpec) -> DivisionSpec:
    """The spec read from the other end of both sides: its ab, dc and head are the spec's ab, dc
    and tail reversed, so it swaps the q1 and q2 regions and keeps both side totals."""
    return DivisionSpec(spec.p[::-1], spec.p_prime[::-1])


def _lighter_at_end(start: Fraction, end: Fraction) -> bool:
    """True when end's denominator is more than 64 bits shorter than start's.  Only then does reading
    a tuple or a side from its end, on the spec's ``_mirror``, save more than building the mirror
    costs; a smaller gap, as between the ends of a grid tuple, leaves the head end as cheap."""
    return start.denominator.bit_length() > end.denominator.bit_length() + 64


class TailSummedSequence(_Frozen):
    """A summable sequence as an exact prefix plus the exact sum of its tail.

    Ratio sequences must be strictly positive (their prefixes are validated as
    a ``DivisionSpec``); candidate area sequences may carry any prefix values
    and are screened by the membership deciders.  A zero tail sum embeds a
    plain finite tuple.
    """

    prefix: tuple[Fraction, ...]
    tail_sum: Fraction

    def __init__(self, prefix, tail_sum=Fraction(0)):
        prefix = fraction_tuple(prefix)  # reads an iterator once and refuses a non-iterable
        if not isinstance(tail_sum, Fraction):
            tail_sum = to_fraction(tail_sum)
        if len(prefix) < 1:
            raise InvalidInputError("a sequence needs a nonempty prefix")
        if tail_sum < 0:
            raise InvalidInputError("a tail sum cannot be negative")
        self.__dict__.update(prefix=prefix, tail_sum=tail_sum)

    @classmethod
    def of(cls, prefix: Iterable[RationalLike], tail: RationalLike = 0) -> "TailSummedSequence":
        return cls(prefix, tail)

    @classmethod
    def parse(cls, text: str) -> "TailSummedSequence":
        """Parse the text format "a,b,c | tail=r"; a missing or empty suffix means tail 0."""
        if not isinstance(text, str):
            raise InvalidInputError(f"TailSummedSequence.parse takes a str, got {type(text).__name__}")
        tail = Fraction(0)
        body, _, suffix = text.partition("|")
        suffix = suffix.strip()
        if suffix:
            if not suffix.startswith("tail="):
                raise InvalidInputError("the tail suffix is written as '| tail=r'")
            tail = to_fraction(suffix[len("tail="):])
        fields = body.split(",")
        # a body with no literal at all is an empty prefix; an empty field between literals is malformed
        prefix = fraction_tuple(fields) if any(f.strip() for f in fields) else ()
        return cls(prefix, tail)

    def text(self) -> str:
        body = ",".join(str(v) for v in self.prefix)
        return body if self.tail_sum == 0 else f"{body} | tail={self.tail_sum}"

    @property
    def m(self) -> int:
        return len(self.prefix)

    @property
    def total(self) -> Fraction:
        return sum(self.prefix, Fraction(0)) + self.tail_sum

    @property
    def finite(self) -> bool:
        return self.tail_sum == 0


def _memoized_on_pair(fn):
    """Keep fn(p, p_prime) in p's own dict beside p_prime, for the next call with that p_prime or an
    equal one (checked by identity first); the caller checks that both are ``TailSummedSequence``
    values.  One slot per p: a call with another p_prime replaces the value.  When p_prime is p
    itself, None stands in for it, so p holds no reference to itself."""
    key = f"_{fn.__name__}"

    @wraps(fn)
    def memoized(p: TailSummedSequence, p_prime: TailSummedSequence):
        other = None if p_prime is p else p_prime
        memo = p.__dict__.get(key)
        if memo is None or (memo[0] is not other and memo[0] != other):
            memo = p.__dict__[key] = (other, fn(p, p_prime))
        return memo[1]

    return memoized
