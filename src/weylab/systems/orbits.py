"""Orbits of an invertible map of the line, and the float64 distance
samples built from them.

An orbit holds the walked points f^m(x0) only, one float64 array per end,
filled by one walk per end: walk(x, n, back, out) writes the n points
after x, forward or backward, into the float64 array out.  Anything derived
from the points is computed by the caller on the slice it reads (the shells
take numpy's float64 sin and cos of each requested slice, which tests pin
bit for bit against the scalar math functions).  Forward and backward
arrays grow by doubling.

One store, a least recently used map bounded by ORBIT_CACHE_BYTES, holds
two kinds of entry: an anchor's orbit (CachedOrbit.get), which point reads
such as a single distance extend, and a pair's distance samples on one
range (samples), read-only, 8 bytes a sample.  A pair's profile build
walks its anchors into orbits that no store holds (walked), one per
distinct anchor, builds its samples from them and drops them, so only the
samples outlive the build; a rebuild at the same range reads them back and
walks nothing.

Every growth goes through fill(), which plans the walks that a list of
(orbit, a, b) requests needs.  When two or more orbits are pending, more
than one CPU is usable, os.fork exists and no other Python thread is
alive, the pending orbits are spread over at most one process per usable
CPU: each forked child runs the same walk function straight into an
anonymous shared mapping that the parent made for its share before
forking, and leaves through os._exit, so no caller code runs in it.  The
parent walks the last orbit itself, straight into the lengthened ends,
then waits for each child and copies its points out of the mapping; a
child that exits with a nonzero status or dies by a signal is walked
again in process.  The points are the same bytes either way.
"""

from __future__ import annotations

import gc
import os
import threading
from collections import OrderedDict

import numpy as np

#: bytes of orbits and samples kept before the least recently used go
ORBIT_CACHE_BYTES = 1 << 27

#: anchor orbits and pairs' read-only samples, in least recently used order
_STORE: "OrderedDict[object, object]" = OrderedDict()
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

    @property
    def nbytes(self) -> int:
        return sum(end.nbytes for end in self.ends)

    def rows(self, a: int, b: int) -> np.ndarray:
        """The points at indices a..b, as a new array the caller owns."""
        fill([(self, a, b)])
        fwd, bwd = self.ends  # growth only swaps in longer copies
        back = bwd[max(0, -b - 1):max(0, -a)][::-1]
        return np.concatenate([back, fwd[max(0, a):max(0, b + 1)]])

    def at(self, m: int) -> float:
        """The point at index m, as a Python float."""
        return float(self.rows(m, m)[0])


def cached_bytes() -> int:
    """Bytes held by the arrays of every stored orbit and sample set."""
    return sum(entry.nbytes for entry in _STORE.values())


def walked(requests) -> dict:
    """One new orbit per distinct anchor of the (anchor, x0, walk, a, b)
    requests, keyed by anchor and holding indices a..b of every request on
    it, all walked by one fill.  No store holds them."""
    orbits = {}
    for anchor, x0, walk, _, _ in requests:
        if anchor not in orbits:
            orbits[anchor] = CachedOrbit(x0, walk)
    fill([(orbits[anchor], a, b) for anchor, _, _, a, b in requests])
    return orbits


def samples(build, system_id, p, q, lo: int, hi: int) -> np.ndarray:
    """The float64 distance samples on [lo, hi] of the pair (p, q) of
    system_id, read-only, from the store; on a miss, build(p, q, lo, hi),
    stored.  Threads that miss on one pair at once each build it, with
    equal results."""
    key = (system_id, p, q, lo, hi)
    with _LOCK:
        values = _STORE.pop(key, None)
        if values is not None:
            _STORE[key] = values
            return values
    values = build(p, q, lo, hi)
    values.flags.writeable = False
    with _LOCK:
        _STORE[key] = values
        _evict()
    return values


def usable_cpus() -> int:
    """CPUs this process may run on; 1 where the platform cannot tell."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else 1


def fill(requests) -> None:
    """Walk every point that the (orbit, a, b) requests lack, so that each
    orbit holds its indices a..b."""
    with _LOCK:
        shares = _plan(requests)
        if not shares:
            return
        workers = min(len(shares), usable_cpus())
        if not hasattr(os, "fork") or threading.active_count() > 1:
            workers = 1  # forking beside another thread is unsafe
        parts = [sum(shares[i::workers], []) for i in range(workers)]
        mine, children = parts.pop(), []
        try:
            for part in parts:
                try:
                    children.append(_spawn(part))
                except OSError:  # no process or mapping to be had: walk it here
                    mine = part + mine
            for walk in mine:
                _append(walk)
            while children:
                pid, mapping, part = children[0]
                status = os.waitpid(pid, 0)[1]
                del children[0]
                with mapping:
                    offset = 0
                    for walk in part:  # a failed child's share is walked here
                        _append(walk, None if status else
                                np.frombuffer(mapping, count=walk[3], offset=offset))
                        offset += 8 * walk[3]
        finally:
            for pid, mapping, _ in children:  # a walk here failed: reap the rest
                os.waitpid(pid, 0)
                mapping.close()


def _plan(requests):
    """The walks (orbit, back, x, n) that the requests need, one list per
    pending orbit: n points after x on one end, at least doubling it."""
    needs = {}
    for orbit, a, b in requests:
        for m in (a, b):
            key = (orbit, m < 0)
            needs[key] = max(needs.get(key, 0), -m if m < 0 else m + 1)
    shares = {}
    for (orbit, back), need in needs.items():
        end = orbit.ends[back]
        have = len(end)
        if need > have:
            x = float(end[-1] if have else orbit.ends[0][0])  # backward starts at x0
            shares.setdefault(orbit, []).append(
                (orbit, back, x, max(need, 2 * have) - have))
    return list(shares.values())


def _append(walk, points=None) -> None:
    """Lengthen one end of the orbit by the walk's n points: a child's
    points, copied, or with None the walk run here into the new tail; the
    caller holds _LOCK."""
    orbit, back, x, n = walk
    end = orbit.ends[back]
    out = np.empty(len(end) + n)
    out[:len(end)] = end
    if points is None:
        orbit.walk(x, n, back, out[len(end):])
    else:
        out[len(end):] = points
    orbit.ends[back] = out
    _evict()


def _evict() -> None:
    """Drop least recently used entries while the store holds more than
    ORBIT_CACHE_BYTES; the caller holds _LOCK."""
    while cached_bytes() > ORBIT_CACHE_BYTES:
        _STORE.popitem(last=False)


def _spawn(walks):
    """Fork a child that runs the walks into one anonymous shared mapping,
    in order; return its pid, the mapping and the walks."""
    import mmap  # here, so that a run that forks no walker does not load it

    mapping = mmap.mmap(-1, 8 * sum(n for *_, n in walks))
    try:
        pid = os.fork()
    except OSError:
        mapping.close()
        raise
    if pid == 0:  # the child runs the walks only, and never returns
        code = 1
        try:
            gc.disable()  # no finalizer of the parent's objects runs here
            offset = 0
            for orbit, back, x, n in walks:
                orbit.walk(x, n, back, np.frombuffer(mapping, count=n, offset=offset))
                offset += 8 * n
            code = 0
        finally:
            os._exit(code)
    return pid, mapping, walks
