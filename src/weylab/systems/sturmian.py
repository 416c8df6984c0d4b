"""Sturmian coding of the golden rotation, the rotation itself, and the
one-point system.

The rotation angle is alpha = (sqrt(5)-1)/2 in 64-bit fixed point: adding
the integer A_UNITS modulo 2^64 is an exact isometry of the discretized
circle, so group laws are exact and rotation profiles are constant.

Sturmian payloads live on the orbit of 0: (k, side) codes the circle point
k*alpha with letters [position >= 1-alpha].  With A_UNITS odd the coding
boundary is hit only at absolute orbit indices 0 and -1, where the two
one-sided conventions ('upper' approaching from above 0, 'lower' from
below) disagree; that is the two-point fibre of the coding factor.
"""

from __future__ import annotations

import math

import numpy as np

from ..core import IsometricSystem, parse_fields, register_system
from .symbolic import SymbolicSystem

UNITS_BITS = 64
MOD = 1 << UNITS_BITS
A_UNITS = (math.isqrt(5 << (2 * UNITS_BITS)) - (1 << UNITS_BITS)) // 2
T_UNITS = MOD - A_UNITS  # fixed-point image of 1 - alpha

assert A_UNITS % 2 == 1  # odd: the orbit of 0 hits 0 and T_UNITS exactly once


class RotationSystem(IsometricSystem):
    system_id = "rotation"
    diameter = 0.5

    def act(self, payload: int, g: int) -> int:
        return (payload + g * A_UNITS) % MOD

    def dist(self, p: int, q: int) -> float:
        delta = (p - q) % MOD
        return min(delta, MOD - delta) / MOD

    def parse_point(self, text: str) -> int:
        text = text.strip()
        if text.startswith("units="):
            u = int(text[6:])
        elif text.startswith("t="):
            t = float(text[2:]) % 1.0
            u = int(t * MOD)
        else:
            raise ValueError("rotation payload is units=<int> or t=<float>")
        return u % MOD

    def format_point(self, payload: int) -> str:
        return "units=%d" % payload

    def payload_syntax(self) -> str:
        return "units=<int mod 2^64> | t=<float in [0,1)>"

    def sample_payloads(self, rng, count: int):
        return [int(rng.integers(0, MOD, dtype=np.uint64)) for _ in range(count)]


class SturmianSystem(SymbolicSystem):
    system_id = "sturmian"

    def act(self, payload, g: int):
        k, side = payload
        return (k + g, side)

    def coords(self, payload, lo, hi):
        k, side = payload
        ms = np.arange(k + lo, k + hi + 1, dtype=np.int64)
        units = ms.astype(np.uint64) * np.uint64(A_UNITS)
        out = (units >= np.uint64(T_UNITS)).astype(np.uint8)
        if side == 1:  # lower convention flips the two boundary hits
            out[ms == 0] = 1
            out[ms == -1] = 0
        return out

    def parse_point(self, text: str):
        k, side = parse_fields(text, {"orbit": None, "side": "upper"}).values()
        if side not in ("upper", "lower"):
            raise ValueError("sturmian side is upper or lower, got %r" % (side,))
        return (int(k), int(side == "lower"))

    def format_point(self, payload) -> str:
        k, side = payload
        return "orbit=%d side=%s" % (k, "lower" if side else "upper")

    def payload_syntax(self) -> str:
        return "orbit=<int> [side=upper|lower]"

    def sample_payloads(self, rng, count: int):
        return [
            (int(rng.integers(-100, 100)), int(rng.integers(0, 2)))
            for _ in range(count)
        ]


class PointSystem(IsometricSystem):
    system_id = "point"
    diameter = 0.0

    def act(self, payload, g: int):
        return payload

    def dist(self, p, q) -> float:
        return 0.0

    def parse_point(self, text: str):
        if text.strip() != "pt":
            raise ValueError("the one-point system has a single payload 'pt'")
        return "pt"

    def format_point(self, payload) -> str:
        return "pt"

    def payload_syntax(self) -> str:
        return "pt"

    def sample_payloads(self, rng, count: int):
        return ["pt"] * count


register_system(RotationSystem())
register_system(SturmianSystem())
register_system(PointSystem())
