"""Exact 2-adic integer arithmetic.

A 2-adic integer with an eventually periodic digit stream is the same thing
as a rational number with odd denominator.  We store that rational (as a
Fraction) and recover digits, valuations and the 2-adic metric from it, so
addition of integers, the zero test and digit extraction are all exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence


def two_adic_valuation(n: int) -> int:
    """v2 of a nonzero integer (exponent of the largest power of two dividing it)."""
    if n == 0:
        raise ValueError("2-adic valuation of 0 is undefined")
    return (n & -n).bit_length() - 1


def count_even_valuations(n: int) -> int:
    """Number of m in [1, n] with v2(m) even.  Zero for n <= 0.

    Counts, for each even k, the multiples of 2^k that are not multiples
    of 2^(k+1); there are n>>k - n>>(k+1) of those up to n.
    """
    if n <= 0:
        return 0
    total = 0
    k = 0
    while (1 << k) <= n:
        total += (n >> k) - (n >> (k + 1))
        k += 2
    return total


def count_even_valuations_range(lo: int, hi: int) -> int:
    """Number of m in [lo, hi) with m != 0 and v2(|m|) even."""
    if hi <= lo:
        return 0
    total = 0
    # positive part: m in [max(lo,1), hi-1]
    p_lo = max(lo, 1)
    p_hi = hi - 1
    if p_hi >= p_lo:
        total += count_even_valuations(p_hi) - count_even_valuations(p_lo - 1)
    # negative part: m in [lo, min(hi-1, -1)], i.e. |m| in [-(min(hi-1,-1)), -lo]
    n_hi = min(hi - 1, -1)
    if lo <= n_hi:
        total += count_even_valuations(-lo) - count_even_valuations(-n_hi - 1)
    return total


def parse_dyadic(text: str) -> "DyadicInteger":
    """Inverse of str(DyadicInteger): 'int:5' or 'frac:3/5'."""
    text = text.strip()
    if text.startswith("int:"):
        return DyadicInteger.from_int(int(text[4:]))
    if text.startswith("frac:"):
        num, _, den = text[5:].partition("/")
        if int(den) == 0:  # Fraction would raise ZeroDivisionError
            raise ValueError("zero denominator in %r" % (text,))
        return DyadicInteger.from_fraction(int(num), int(den))
    raise ValueError("cannot parse 2-adic integer from %r" % (text,))


@dataclass(frozen=True)
class DyadicInteger:
    """A 2-adic integer, held as a rational with odd denominator."""

    value: Fraction

    def __post_init__(self) -> None:
        if not isinstance(self.value, Fraction):
            object.__setattr__(self, "value", Fraction(self.value))
        if self.value.denominator % 2 == 0:
            raise ValueError(
                "not a 2-adic integer: denominator %d is even" % self.value.denominator
            )

    # -- constructors -------------------------------------------------

    @classmethod
    def from_int(cls, n: int) -> "DyadicInteger":
        return cls(Fraction(n))

    @classmethod
    def from_fraction(cls, numerator: int, denominator: int) -> "DyadicInteger":
        return cls(Fraction(numerator, denominator))

    @classmethod
    def from_bits(
        cls, prefix: Sequence[int], period: Sequence[int] = ()
    ) -> "DyadicInteger":
        """Digits d0, d1, ... given as a preperiod followed by a repeating block.

        Value is sum(prefix_i 2^i) + 2^len(prefix) * sum(period_i 2^i) / (1 - 2^len(period)).
        """
        for d in list(prefix) + list(period):
            if d not in (0, 1):
                raise ValueError("digits must be 0 or 1")
        p = sum(d << i for i, d in enumerate(prefix))
        if not period:
            return cls(Fraction(p))
        q = sum(d << i for i, d in enumerate(period))
        r = len(period)
        return cls(Fraction(p) + Fraction(q << len(prefix), 1 - (1 << r)))

    # -- structure ----------------------------------------------------

    def is_integer(self) -> bool:
        return self.value.denominator == 1

    def as_int(self) -> int:
        if not self.is_integer():
            raise ValueError("not a rational integer: %s" % (self.value,))
        return self.value.numerator

    def digits(self, count: int) -> tuple:
        """The first `count` binary digits d0..d(count-1)."""
        num = self.value.numerator
        den = self.value.denominator  # odd, so num & 1 is the digit mod 2
        out = []
        for _ in range(count):
            d = num & 1
            out.append(d)
            num = (num - d * den) >> 1
        return tuple(out)

    def digit(self, i: int) -> int:
        if i < 0:
            raise ValueError("digit index must be >= 0")
        return self.digits(i + 1)[i]

    def valuation(self) -> Optional[int]:
        """v2 of the value; None for zero (infinite valuation)."""
        if self.value == 0:
            return None
        return two_adic_valuation(self.value.numerator)

    # -- arithmetic ---------------------------------------------------

    def add_int(self, g: int) -> "DyadicInteger":
        return DyadicInteger(self.value + g)

    def __add__(self, g: int) -> "DyadicInteger":
        if not isinstance(g, int):
            return NotImplemented
        return self.add_int(g)

    def dist(self, other: "DyadicInteger") -> float:
        """2^(-v2(difference)); the number of shared leading digits sets the scale."""
        diff = self.value - other.value
        if diff == 0:
            return 0.0
        v = two_adic_valuation(diff.numerator)
        if v > 1074:
            return 0.0  # below the smallest positive double
        return 2.0 ** (-v)

    def __str__(self) -> str:
        if self.is_integer():
            return "int:%d" % self.value.numerator
        return "frac:%d/%d" % (self.value.numerator, self.value.denominator)
