"""Binary Toeplitz-type subshift read off a 2-adic address.

The letter rule is f(m) = 1 iff the 2-adic valuation of m is finite and
even.  A point is the sequence n -> f(a + n) for a 2-adic address a; when a
is a rational integer the argument 0 is hit once and the letter there is a
free choice, recorded as flag 0 ('plain', the f value) or 1 ('primed').
"""

from __future__ import annotations

import numpy as np

from ..core import parse_fields, register_system
from ..dyadic import DyadicInteger, parse_dyadic, two_adic_valuation
from .symbolic import SymbolicSystem

# lowbit of m lands on an even bit position iff v2(m) is even
MASK_EVEN = np.int64(0x5555555555555555)
_INT64_SAFE = 1 << 62


def rule_word(num: int, den: int, flag: int, lo: int, hi: int) -> np.ndarray:
    """Letters f((num/den) + n) for n in [lo, hi]; den odd.

    The slot where the argument vanishes (if any) takes `flag`.  Since den
    is odd, v2(num/den + n) = v2(num + n*den).
    """
    n = hi - lo + 1
    lo_val = num + lo * den
    hi_val = num + hi * den
    if max(abs(lo_val), abs(hi_val)) < _INT64_SAFE:
        vals = np.int64(lo_val) + np.int64(den) * np.arange(n, dtype=np.int64)
        out = (((vals & -vals) & MASK_EVEN) != 0).astype(np.uint8)
        zeros = vals == 0
    else:
        out = np.empty(n, dtype=np.uint8)
        zeros = np.zeros(n, dtype=bool)
        v = lo_val
        for i in range(n):
            if v == 0:
                out[i] = 0
                zeros[i] = True
            else:
                out[i] = 1 if two_adic_valuation(v) % 2 == 0 else 0
            v += den
    if flag:
        out[zeros] = 1
    return out


def make_toeplitz_payload(addr: DyadicInteger, flag: int):
    """Canonical payload: the flag is meaningful only at integer addresses."""
    if flag not in (0, 1):
        raise ValueError("flag must be 0 (plain) or 1 (primed)")
    if not addr.is_integer():
        flag = 0
    return (addr, flag)


def singular_slot(addr: DyadicInteger, flag: int, other_flag: int):
    """The slot -addr where the argument of f vanishes, if two points at
    one address differ there: the address is an integer and the flags
    differ.  None otherwise; such points have the same letters."""
    if flag != other_flag and addr.is_integer():
        return -addr.as_int()
    return None


class ToeplitzSystem(SymbolicSystem):
    system_id = "toeplitz"

    def act(self, payload, g: int):
        addr, flag = payload
        return (addr.add_int(g), flag)

    def coords(self, payload, lo, hi):
        addr, flag = payload
        return rule_word(addr.value.numerator, addr.value.denominator, flag, lo, hi)

    def disagreements(self, p, q, lo, hi):
        """Points at one address differ at most in their singular slot;
        other pairs compare their letters."""
        (addr, flag), (other, other_flag) = p, q
        if addr != other:
            return super().disagreements(p, q, lo, hi)
        k0 = singular_slot(addr, flag, other_flag)
        at = np.zeros(0, np.int64)
        if k0 is not None and lo <= k0 <= hi:
            at = np.array([k0], np.int64)
        return at, at + 1

    def parse_point(self, text: str):
        addr, flag = parse_fields(text, {"addr": None, "flag": "plain"}).values()
        return make_toeplitz_payload(parse_dyadic(addr), _parse_flag(flag))

    def format_point(self, payload) -> str:
        addr, flag = payload
        return "addr=%s flag=%s" % (addr, "primed" if flag else "plain")

    def payload_syntax(self) -> str:
        return "addr=<dyadic> [flag=plain|primed]"

    def sample_payloads(self, rng, count: int):
        out = []
        for _ in range(count):
            addr = DyadicInteger.from_int(int(rng.integers(-50, 50)))
            out.append(make_toeplitz_payload(addr, int(rng.integers(0, 2))))
        return out


def _parse_flag(text: str) -> int:
    try:
        return {"plain": 0, "primed": 1, "0": 0, "1": 1}[text]
    except KeyError:
        raise ValueError("flag must be plain or primed, got %r" % (text,)) from None


register_system(ToeplitzSystem())
