"""Division ratio tuples and the exact rational text format.

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
