"""Two-to-one extension of the Toeplitz subshift by a parity bit.

A point over Toeplitz payload (addr, flag) with difference word y is the
binary sequence x with x_{n+1} = x_n XOR y_n, pinned down by the letter at
position 0: x_n = bit XOR parity(y_0 + ... + y_{n-1}).  Letters on a range
come from one cumulative sum of the y word anchored at 0, so coords is exact
and O(range).

Two points at one address need no letters: their y words differ at most in
the singular slot k0 = -addr, so they differ on (bit XOR bit') XOR T, where
T is [k0 + 1, oo) if k0 >= 0, (-oo, k0] if k0 < 0, and empty if there is no
singular slot.  That is one half-line, the whole line or nothing, so
disagreements reads it off the payloads.  Points at two addresses differ
at n iff bit XOR bit' XOR (the number of slots between 0 and n where their
y words differ) is odd, so their spans toggle one slot after each y-word
disagreement: one comparison of two y words, with no letters written.

Also hosts the small substitution-language helpers used to cross-check
letter statistics against fixed points of binary substitutions.
"""

from __future__ import annotations

import numpy as np

from ..core import parse_fields, register_system
from ..dyadic import DyadicInteger, count_even_valuations_range, parse_dyadic
from .symbolic import SymbolicSystem
from .toeplitz import (_parse_flag, make_toeplitz_payload, rule_word,
                       singular_slot)

TM_RULES = {"0": "01", "1": "10"}
PD_RULES = {"0": "01", "1": "00"}
#: longest window window_match_fraction packs into one uint64 code
MAX_WORD_LENGTH = 62


def _step_parity(addr: DyadicInteger, flag: int, g: int) -> int:
    """Parity of the y word summed between positions 0 and g."""
    if g == 0:
        return 0
    klo, khi = (0, g) if g > 0 else (g, 0)  # k ranges over [klo, khi)
    num, den = addr.value.numerator, addr.value.denominator
    if den == 1:
        total = count_even_valuations_range(num + klo, num + khi)
        if klo <= -num < khi:
            total += flag
        return total & 1
    word = rule_word(num, den, flag, klo, khi - 1)
    return int(word.sum()) & 1


def make_thuemorse_payload(addr: DyadicInteger, flag: int, bit: int):
    if bit not in (0, 1):
        raise ValueError("bit must be 0 or 1")
    base = make_toeplitz_payload(addr, flag)
    return (base[0], base[1], bit)


class ThueMorseSystem(SymbolicSystem):
    system_id = "thuemorse"

    def act(self, payload, g: int):
        addr, flag, bit = payload
        return (addr.add_int(g), flag, bit ^ _step_parity(addr, flag, g))

    def coords(self, payload, lo, hi):
        addr, flag, bit = payload
        base = min(lo, 0)
        top = max(hi, 0)
        if top > base:
            y = rule_word(addr.value.numerator, addr.value.denominator, flag,
                          base, top - 1)
            cum = np.concatenate(
                [np.zeros(1, dtype=np.int64), np.cumsum(y, dtype=np.int64)]
            )
        else:
            cum = np.zeros(1, dtype=np.int64)
        parity = (cum - cum[-base]) & 1
        xs = (np.uint8(bit) ^ parity.astype(np.uint8))
        return xs[lo - base : hi - base + 1]

    def disagreements(self, p, q, lo, hi):
        """Points at one address differ on one half-line cut after the
        singular slot, on its complement, on every position or on none;
        other pairs toggle at each slot after a y-word disagreement
        (module docstring)."""
        (addr, flag, bit), (other, other_flag, other_bit) = p, q
        flip = bit != other_bit
        if addr != other:
            return _toggled_spans(addr, flag, other, other_flag, flip, lo, hi)
        k0 = singular_slot(addr, flag, other_flag)
        if k0 is None:  # the y words agree
            start, end = lo, (hi + 1 if flip else lo)
        else:  # T: the side of the cut k0 + 1 away from 0
            cut = min(max(k0 + 1, lo), hi + 1)
            start, end = (cut, hi + 1) if (k0 >= 0) != flip else (lo, cut)
        n = int(end > start)
        return np.full(n, start, np.int64), np.full(n, end, np.int64)

    def parse_point(self, text: str):
        keys = {"addr": None, "flag": "plain", "bit": "0"}
        addr, flag, bit = parse_fields(text, keys).values()
        return make_thuemorse_payload(parse_dyadic(addr), _parse_flag(flag), int(bit))

    def format_point(self, payload) -> str:
        addr, flag, bit = payload
        return "addr=%s flag=%s bit=%d" % (addr, "primed" if flag else "plain", bit)

    def payload_syntax(self) -> str:
        return "addr=<dyadic> [flag=plain|primed] [bit=0|1]"

    def sample_payloads(self, rng, count: int):
        out = []
        for _ in range(count):
            addr = DyadicInteger.from_int(int(rng.integers(-50, 50)))
            out.append(
                make_thuemorse_payload(
                    addr, int(rng.integers(0, 2)), int(rng.integers(0, 2))
                )
            )
        return out


def _toggled_spans(addr, flag, other, other_flag, flip, lo, hi):
    """Disagreement spans in [lo, hi] of points over two y words: they
    differ at 0 iff flip, and the difference toggles at d + 1 for each slot
    d where the y words differ, since x_n XOR x'_n = flip XOR the parity of
    the y-word disagreements between 0 and n."""
    base, top = min(lo, 0), max(hi, 0)
    y = rule_word(addr.value.numerator, addr.value.denominator, flag, base, top - 1)
    y2 = rule_word(other.value.numerator, other.value.denominator, other_flag,
                   base, top - 1)
    d = np.flatnonzero(y != y2) + base
    first, zero, last = np.searchsorted(d, (lo, 0, hi))
    at_lo = flip != bool((zero - first) & 1)  # the pair differs at lo
    edges = [[lo]] if at_lo else []
    edges.append(d[first:last] + 1)  # toggles inside (lo, hi]
    if at_lo != bool((last - first) & 1):  # still differing at hi
        edges.append([hi + 1])
    edges = np.concatenate(edges).astype(np.int64, copy=False)
    return edges[0::2], edges[1::2]


def complement(payload):
    """The other preimage over the same Toeplitz point."""
    addr, flag, bit = payload
    return (addr, flag, bit ^ 1)


def substitution_language(rules: dict, length: int) -> frozenset:
    """All length-`length` words of the subshift generated by a primitive
    binary substitution, as strings.  Iterates the rule on '0' until the
    window set stabilizes."""
    if length < 1:
        raise ValueError("length must be >= 1")
    word = "0"
    seen = None
    while True:
        word = "".join(rules[c] for c in word)
        if len(word) < 4 * length:
            continue
        windows = frozenset(
            word[i : i + length] for i in range(len(word) - length + 1)
        )
        if windows == seen:
            return windows
        seen = windows


def exchange_language(words: frozenset) -> frozenset:
    swap = str.maketrans("01", "10")
    return frozenset(w.translate(swap) for w in words)


def window_match_fraction(letters: np.ndarray, words: frozenset,
                          length: int):
    """Fraction (exact) of sliding windows of the given length that appear
    in the word set.  Windows are packed into codes, so lengths are capped
    at 62 letters."""
    from fractions import Fraction

    arr = np.ascontiguousarray(letters, dtype=np.uint8)
    if not 1 <= length <= MAX_WORD_LENGTH:
        raise ValueError("window length must be in [1, %d]" % MAX_WORD_LENGTH)
    if arr.size < length:
        raise ValueError("letter array shorter than the window length")
    codes = np.zeros(arr.size - length + 1, dtype=np.uint64)
    for i in range(length):
        codes |= arr[i : arr.size - length + 1 + i].astype(np.uint64) << np.uint64(i)
    word_codes = np.unique(np.array(
        [int(w[::-1], 2) for w in words if len(w) == length],
        dtype=np.uint64,
    ))
    matched = int(np.isin(codes, word_codes).sum())
    return Fraction(matched, codes.size)


register_system(ThueMorseSystem())
