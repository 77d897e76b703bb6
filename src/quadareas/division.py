"""Division ratio tuples, tail-summed sequences and the exact rational text format.

Rationals are stdlib ``fractions.Fraction`` values everywhere: arbitrary
precision, stored in lowest terms with a positive denominator, so every
computation in the package is exact.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from .errors import InvalidInputError

RationalLike = Union[int, str, Fraction]

_RATIONAL = re.compile(r"^[+-]?[0-9]+(?:\s*/\s*[0-9]+)?$")


def to_fraction(value: RationalLike) -> Fraction:
    """Parse ``a`` or ``a/b`` (or pass through ints and Fractions) exactly."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
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
    return tuple(to_fraction(v) for v in values)


@dataclass(frozen=True)
class DivisionSpec:
    """The pair of positive ratio tuples prescribing the subdivisions of AB and DC."""

    p: tuple[Fraction, ...]
    p_prime: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.p) != len(self.p_prime):
            raise InvalidInputError("ratio tuples must have the same length")
        if len(self.p) < 2:
            raise InvalidInputError("need at least two segments per side")
        for name, tup in (("p", self.p), ("p_prime", self.p_prime)):
            for i, entry in enumerate(tup, start=1):
                if not isinstance(entry, Fraction):
                    raise InvalidInputError(f"{name} entry {i} is not a rational")
                if entry <= 0:
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

    def reversed(self) -> "DivisionSpec":
        return DivisionSpec(self.p[::-1], self.p_prime[::-1])


@dataclass(frozen=True)
class TailSummedSequence:
    """A summable sequence as an exact prefix plus the exact sum of its tail.

    Ratio sequences must be strictly positive (their prefixes are validated as
    a ``DivisionSpec``); candidate area sequences may carry any prefix values
    and are screened by the membership deciders.  A zero tail sum embeds a
    plain finite tuple.
    """

    prefix: tuple[Fraction, ...]
    tail_sum: Fraction = Fraction(0)

    def __post_init__(self):
        if not all(isinstance(v, Fraction) for v in self.prefix):
            object.__setattr__(self, "prefix", fraction_tuple(self.prefix))
        if not isinstance(self.tail_sum, Fraction):
            object.__setattr__(self, "tail_sum", to_fraction(self.tail_sum))
        if len(self.prefix) < 1:
            raise InvalidInputError("a sequence needs a nonempty prefix")
        if self.tail_sum < 0:
            raise InvalidInputError("a tail sum cannot be negative")

    @classmethod
    def of(cls, prefix: Iterable[RationalLike], tail: RationalLike = 0) -> "TailSummedSequence":
        return cls(fraction_tuple(prefix), to_fraction(tail))

    @classmethod
    def parse(cls, text: str) -> "TailSummedSequence":
        """Parse the text format "a,b,c | tail=r"; a missing or empty suffix means tail 0."""
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
