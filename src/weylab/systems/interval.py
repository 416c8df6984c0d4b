"""Two mirrored copies of the unit interval under a leftward quadratic pinch.

The base map on [0, 1] fixes 0, 1 and every reciprocal 1/L, and on each
interval [1/(L+1), 1/L] acts by S(y) = y + (y-a)(y-b) with a = 1/(L+1),
b = 1/L, moving interior points left.  The space is the union of the
diagonal branch {(y, y)} and the mirrored branch {(y, -y)} in the plane
with the Euclidean metric, so a branch pair over the same y sits at
distance 2y and the orbit sup is pinned by the backward drift toward b.

Payloads are (branch, y0, offset): the action only moves the integer
offset, so group laws are exact.  Interval values S^m(y0) are walked
forward by iteration and backward by safeguarded Newton on the increasing
quadratic.  A point's value is walked from its anchor, |offset| steps, and
kept nowhere (weylab.systems.orbits); a pair's profile walks its distinct
anchors for that build only, and its distance samples live as long as the
profile: a rebuild walks again.
"""

from __future__ import annotations

import math

import numpy as np

from ..core import System, parse_fields, register_system
from ..profiles import DistanceProfile, floats_from_blocks
from .orbits import point, rows, walked

_BRANCHES = ("hat", "check")


def level_of(y: float) -> int:
    """Index L with y in [1/(L+1), 1/L]; 0 and 1 are fixed endpoints."""
    if not 0.0 <= y <= 1.0:
        raise ValueError("interval payload needs y in [0, 1]")
    if y == 0.0:
        return 0  # conventional: fixed point, never iterated
    return max(1, math.floor(1.0 / y))


def step(y: float) -> float:
    if y in (0.0, 1.0):
        return y
    L = level_of(y)
    a, b = 1.0 / (L + 1), 1.0 / L
    return y + (y - a) * (y - b)


def step_back(y: float) -> float:
    """The z in [a, b] with step(z) = y, by safeguarded Newton."""
    if y in (0.0, 1.0):
        return y
    L = level_of(y)
    a, b = 1.0 / (L + 1), 1.0 / L
    lo, hi = y, b  # S moves left, so the preimage sits in [y, b]
    z = 0.5 * (lo + hi)
    for _ in range(80):
        f = z + (z - a) * (z - b) - y
        if f > 0.0:
            hi = z
        elif f < 0.0:
            lo = z
        else:
            return z
        df = 1.0 + (z - a) + (z - b)
        zn = z - f / df if df > 0.0 else 0.5 * (lo + hi)
        if not lo <= zn <= hi:
            zn = 0.5 * (lo + hi)
        if zn == z:
            return z
        z = zn
    return z


def _walk(y: float, n: int, back: bool, out: np.ndarray) -> np.ndarray:
    """The n values after y under step, or under step_back, written into
    out, a float64 array of n, which is returned."""
    f = step_back if back else step
    for i in range(n):
        out[i] = y = f(y)
    return out


def _mirror_dist(same: bool, yp, yq, sqrt):
    """Plane distance of points over y-values, floats or arrays; sqrt to match."""
    if same:
        return abs(yp - yq) * math.sqrt(2.0)
    return sqrt(2.0 * (yp * yp + yq * yq))


class IntervalMirrorSystem(System):
    system_id = "interval61"
    diameter = 2.0

    def value(self, payload) -> float:
        return point(payload[1], _walk, payload[2])

    def act(self, payload, g: int):
        branch, y0, off = payload
        return (branch, y0, off + g)

    def dist(self, p, q) -> float:
        return _mirror_dist(p[0] == q[0], self.value(p), self.value(q), math.sqrt)

    def pair_profile(self, p, q, lo, hi):
        # the distances from orbits walked for this build only: each
        # distinct anchor once, two side by side
        held = walked([(y0, y0, _walk, off + lo, off + hi) for _, y0, off in (p, q)])
        return DistanceProfile.from_floats(lo, floats_from_blocks(
            lo, hi, lambda a, b: _mirror_dist(
                p[0] == q[0], *(rows(held[y0], off + a, off + b) for _, y0, off in (p, q)),
                np.sqrt)))

    def parse_point(self, text: str):
        keys = {"y": None, "branch": "hat", "off": "0"}
        y, branch, off = parse_fields(text, keys).values()
        if branch not in _BRANCHES:
            raise ValueError("interval branch is hat or check, got %r" % (branch,))
        level_of(float(y))  # validates the range
        return (branch, float(y), int(off))

    def format_point(self, payload) -> str:
        branch, y0, off = payload
        return "y=%r branch=%s off=%d" % (y0, branch, off)

    def payload_syntax(self) -> str:
        return "y=<float in [0,1]> branch=hat|check [off=<int>]"

    def sample_payloads(self, rng, count: int):
        out = []
        for _ in range(count):
            L = int(rng.integers(1, 7))
            a, b = 1.0 / (L + 1), 1.0 / L
            y = float(a + (b - a) * rng.random())
            out.append((_BRANCHES[int(rng.integers(0, 2))], y, 0))
        return out


register_system(IntervalMirrorSystem())
