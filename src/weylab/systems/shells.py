"""A stack of circles drifting to a common fixed direction, plus its base.

Shell k (k = 1, 2, ...) is the circle (sin t, 1 - cos t, 1/k) in R^3; the
map advances the angle by (1/k)(1 - cos t), a parabolic drift with unique
fixed angle 0: forward orbits creep up to 2*pi without crossing, backward
orbits creep down to 0.  The limit shell 'inf' at height 0 carries the
identity map.  Distances are Euclidean in R^3, so pairs on one shell are
eventually summable while the limit shell preserves distances exactly.

Payloads are (level, t0, offset): the action only moves the integer
offset.  A point's angle is walked from its anchor, |offset| steps, and
kept nowhere (weylab.systems.orbits); a pair's profile walks the orbits of
its distinct anchors for that build only, takes numpy's sin and cos of the
angles a block at a time, and keeps only the distance samples, which a
rebuild on the same range reads back.

The base system is the convergent sequence {1/k} with a point at 0 and the
trivial action; projecting a shell to its height label is the canonical
factor map.
"""

from __future__ import annotations

import math

import numpy as np

from ..core import IsometricSystem, System, parse_fields, register_system
from ..profiles import DistanceProfile, floats_from_blocks, scaled_from_float
from .orbits import point, rows, samples, walked

TWO_PI = 2.0 * math.pi


def _walk(t: float, eps: float, n: int, back: bool,
          out: np.ndarray) -> np.ndarray:
    """The n angles after t under g(s) = s + eps*(1 - cos s), or under its
    inverse: s in [0, t] with g(s) = t, by safeguarded Newton from the
    midpoint of [max(0, t - 2 eps), t]; g is nondecreasing.  Written into
    out, a contiguous float64 array of n, which is returned."""
    cos, sin = math.cos, math.sin
    put = out.data  # a memoryview, which stores a float faster than the array
    if not back:
        for i in range(n):
            t = t + eps * (1.0 - cos(t))
            put[i] = t
        return out
    two_eps, cap = 2.0 * eps, range(80)
    for i in range(n):
        lo, hi = t - two_eps, t
        if not lo > 0.0:
            lo = 0.0
        s = 0.5 * (lo + hi)  # at the fixed angle 0 (or -0.0), s = 0.0 and f = 0
        for _ in cap:
            f = s + eps * (1.0 - cos(s)) - t
            if f > 0.0:
                hi = s
            elif f < 0.0:
                lo = s
            else:
                break
            df = 1.0 + eps * sin(s)
            if df > 1e-9:  # the Newton step, if it stays in the bracket
                sn = s - f / df
                if lo <= sn <= hi:
                    if sn == s:
                        break
                    s = sn
                    continue
            sn = 0.5 * (lo + hi)  # else bisect
            if sn == s:
                break
            s = sn
        put[i] = t = s
    return out


def _walker(level: int):
    """The walk of shell level's orbits, as the orbits call it."""
    eps = 1.0 / level
    return lambda t, n, back, out: _walk(t, eps, n, back, out)


def _dist(p, q, sqrt):
    """R^3 distance of (sin, cos, height) floats or arrays; sqrt to match.
    Arrays are worked on in place: p's sine row and q's cosine row end up
    holding the squares, and an in-place sqrt leaves the distances in p's
    sine row."""
    dx, cp, hp = p
    sq, dy, hq = q
    dx -= sq  # a float rebinds, an array subtracts in place: the same rounding
    dy -= cp
    dz = hp - hq
    dx *= dx
    dy *= dy
    dx += dy
    dx += dz * dz
    return sqrt(dx)


def _parse_level(text: str):
    """Shell index k >= 1, or None for 'inf', the limit shell."""
    level = None if text == "inf" else int(text)
    if level is not None and level < 1:
        raise ValueError("shell level must be >= 1 or inf, got %r" % (text,))
    return level


class ShellStackSystem(System):
    """Payloads (level, t0, offset); level None is the identity shell."""

    system_id = "shells62"
    diameter = math.sqrt(5.0)

    def _rows(self, payload, orbit, lo: int, hi: int):
        """(sin, cos, height) over offsets lo..hi, as float64 rows whose
        cosine is taken in place of the angles, or as floats on the
        identity shell (orbit None); orbit is the point's, already
        walked."""
        level, t0, off = payload
        if orbit is None:
            return math.sin(t0), math.cos(t0), 0.0
        t = rows(orbit, off + lo, off + hi)
        return np.sin(t), np.cos(t, out=t), 1.0 / level

    def angle(self, payload) -> float:
        level, t0, off = payload
        return t0 if level is None else point(t0, _walker(level), off)

    def act(self, payload, g: int):
        level, t0, off = payload
        return (level, t0, off + g)

    def dist(self, p, q) -> float:
        return _dist(self._point(p), self._point(q), math.sqrt)

    def _point(self, payload):
        """(sin, cos, height) of the point, as floats."""
        t = self.angle(payload)
        return math.sin(t), math.cos(t), 0.0 if payload[0] is None else 1.0 / payload[0]

    def pair_profile(self, p, q, lo, hi):
        if p[0] is None and q[0] is None:
            # identity shell: the distance is constant along the orbit
            return DistanceProfile.constant(lo, hi, scaled_from_float(self.dist(p, q)))
        return DistanceProfile.from_floats(
            lo, samples(self._samples, self.system_id, p, q, lo, hi))

    def _samples(self, p, q, lo, hi) -> np.ndarray:
        """The pair's distances on [lo, hi], from orbits walked for this
        build only: each distinct anchor once, two side by side."""
        held = walked([((level, t0), t0, _walker(level), off + lo, off + hi)
                       for level, t0, off in (p, q) if level is not None])
        return floats_from_blocks(lo, hi, lambda a, b: _dist(
            *(self._rows(x, held.get(x[:2]), a, b) for x in (p, q)),
            lambda d: np.sqrt(d, out=d)))

    def parse_point(self, text: str):
        level, t, off = parse_fields(text, {"level": None, "t": None, "off": "0"}).values()
        if not math.isfinite(float(t)):
            raise ValueError("shell angle t must be finite, got %r" % (t,))
        return (_parse_level(level), float(t) % TWO_PI, int(off))

    def format_point(self, payload) -> str:
        level, t0, off = payload
        return "level=%s t=%r off=%d" % ("inf" if level is None else level, t0, off)

    def payload_syntax(self) -> str:
        return "level=<int>=1|inf t=<float angle> [off=<int>]"

    def sample_payloads(self, rng, count: int):
        out = []
        levels = [1, 2, 4, 8, None]
        for _ in range(count):
            level = levels[int(rng.integers(0, len(levels)))]
            t = float(0.1 + (TWO_PI - 0.2) * rng.random())
            out.append((level, t, 0))
        return out


class ShellBaseSystem(IsometricSystem):
    """Heights {1/k} with the limit 0, trivial action, absolute difference."""

    system_id = "shellbase62"
    diameter = 1.0

    def act(self, payload, g: int):
        return payload

    def dist(self, p, q) -> float:
        zp = 0.0 if p is None else 1.0 / p
        zq = 0.0 if q is None else 1.0 / q
        return abs(zp - zq)

    def parse_point(self, text: str):
        return _parse_level(parse_fields(text, {"level": None})["level"])

    def format_point(self, payload) -> str:
        return "level=%s" % ("inf" if payload is None else payload)

    def payload_syntax(self) -> str:
        return "level=<int>=1|inf"

    def sample_payloads(self, rng, count: int):
        levels = [1, 2, 3, 4, 8, None]
        return [levels[int(rng.integers(0, len(levels)))] for _ in range(count)]


register_system(ShellStackSystem())
register_system(ShellBaseSystem())
