"""Orbits of an invertible map of the line, cached as float64 arrays.

The store holds the walked points f^m(x0) only, one float64 array per end,
filled by one walk per end: walk(x, n, back) returns the n points after x,
forward or backward, as a float64 array.  Anything derived from the points
is computed by the caller on the slice it reads (the shells take numpy's
float64 sin and cos of each requested slice, which tests pin bit for bit
against the scalar math functions).  Forward and backward arrays grow by
doubling; the store drops least recently used orbits beyond
ORBIT_CACHE_BYTES.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

#: bytes of orbit arrays kept before the least recently used orbits go
ORBIT_CACHE_BYTES = 1 << 27

_STORE: "OrderedDict[object, CachedOrbit]" = OrderedDict()
_LOCK = threading.Lock()  # guards the store and the growth of every orbit


class CachedOrbit:
    """Points at m in [-len(backward), len(forward)) of the orbit of x0."""

    def __init__(self, x0: float, walk):
        self.walk = walk
        self.ends = [np.array([x0]), np.empty(0)]  # forward, backward

    @classmethod
    def get(cls, key, *args) -> "CachedOrbit":
        with _LOCK:  # the orbit stored under key, built as cls(*args) if absent
            orbit = _STORE[key] = _STORE.pop(key, None) or cls(*args)
        return orbit

    def _grow(self, m: int) -> None:
        """Fill through index m; the caller holds _LOCK."""
        back = m < 0
        end = self.ends[back]
        have, need = len(end), -m if back else m + 1
        if need <= have:
            return
        x = float(end[-1] if have else self.ends[0][0])  # backward starts at x0
        xs = self.walk(x, max(need, 2 * have) - have, back)
        self.ends[back] = np.concatenate([end, xs])
        while cached_bytes() > ORBIT_CACHE_BYTES:
            _STORE.popitem(last=False)

    def rows(self, a: int, b: int) -> np.ndarray:
        """The points at indices a..b, as a new array the caller owns."""
        with _LOCK:
            self._grow(a)
            self._grow(b)
        fwd, bwd = self.ends  # growth only swaps in longer copies
        back = bwd[max(0, -b - 1):max(0, -a)][::-1]
        return np.concatenate([back, fwd[max(0, a):max(0, b + 1)]])

    def at(self, m: int) -> float:
        """The point at index m, as a Python float."""
        return float(self.rows(m, m)[0])


def cached_bytes() -> int:
    """Bytes held by the arrays of every stored orbit."""
    return sum(end.nbytes for orbit in _STORE.values() for end in orbit.ends)
