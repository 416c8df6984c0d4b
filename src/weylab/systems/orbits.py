"""Orbits of an invertible map of the line.

An orbit is walked once, to the exact length its one use needs, and is
never grown or stored.  walk(x, n, back, out) writes the n points after x,
forward or backward, into the float64 array out.  A point read (point) at
index m walks |m| points and keeps nothing; index 0 walks nothing.  A
pair's profile build walks each distinct anchor of the pair once over the
widest range requested on it (walked), into a forward and a backward
array, builds its samples from them and drops them; the samples go with
the profile, and a rebuild walks again.  The module holds no state.
Anything derived from the points is computed by the caller on the rows it
reads (the shells take numpy's float64 sin and cos of each row, which
tests pin bit for bit against the scalar math functions).

A build forks at most one child.  When both anchors of a pair have points
to walk, more than one CPU is usable, os.fork exists and no other Python
thread is alive, the first anchor's walks run in a forked child, straight
into an anonymous shared mapping that the parent made before forking; the
child leaves through os._exit, so no caller code runs in it.  The parent
walks the second anchor itself, then waits for the child and copies its
points out of the mapping; a child that exits with a nonzero status or
dies by a signal is walked again in process.  The points are the same
bytes either way.
"""

from __future__ import annotations

import gc
import os
import threading

import numpy as np


def point(x0: float, walk, m: int) -> float:
    """The point at index m of the orbit of x0, walked here and kept nowhere."""
    if not m:
        return x0
    out = np.empty(abs(m))
    walk(x0, abs(m), m < 0, out)
    return float(out[-1])


def rows(orbit, a: int, b: int) -> np.ndarray:
    """The points at indices a..b of a walked orbit, as a new array the
    caller owns."""
    fwd, bwd = orbit
    back = bwd[max(0, -b - 1):max(0, -a)][::-1]
    return np.concatenate([back, fwd[max(0, a):max(0, b + 1)]])


def walked(requests) -> dict:
    """The orbit of each distinct anchor of the (anchor, x0, walk, a, b)
    requests, keyed by anchor and walked over the widest range requested on
    it: forward the points at 0..max(b, 0), backward those at -1 down to a
    when a < 0, one walk per end."""
    spans = {}
    for anchor, x0, walk, a, b in requests:
        _, _, lo, hi = spans.get(anchor, (x0, walk, a, b))
        spans[anchor] = (x0, walk, min(lo, a), max(hi, b))
    orbits, shares = {}, []
    for anchor, (x0, walk, a, b) in spans.items():
        fwd, bwd = np.empty(max(b, 0) + 1), np.empty(max(-a, 0))
        fwd[0] = x0
        orbits[anchor] = fwd, bwd
        share = [(walk, x0, back, out)
                 for back, out in ((True, bwd), (False, fwd[1:])) if len(out)]
        if share:
            shares.append(share)
    _fill(shares)
    return orbits


def usable_cpus() -> int:
    """CPUs this process may run on; 1 where the platform cannot tell."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else 1


def _fill(shares) -> None:
    """Run every walk (walk, x, back, out) of the shares, one share per
    anchor with points to walk; with two, the first in a forked child."""
    child = None
    if (len(shares) == 2 and usable_cpus() > 1 and hasattr(os, "fork")
            and threading.active_count() == 1):  # forking beside a thread is unsafe
        try:
            child = _spawn(shares[0])
            shares = shares[1:]
        except OSError:  # no process or mapping to be had: walk it here
            pass
    try:
        for walk, x, back, out in sum(shares, []):
            walk(x, len(out), back, out)
        if child:
            pid, mapping, share = child
            status = os.waitpid(pid, 0)[1]
            child = None
            with mapping:
                offset = 0
                for walk, x, back, out in share:
                    if status:  # a failed child's share is walked here
                        walk(x, len(out), back, out)
                    else:
                        out[:] = np.frombuffer(mapping, count=len(out), offset=offset)
                    offset += out.nbytes
    finally:
        if child:  # a walk here failed: reap the child
            os.waitpid(child[0], 0)
            child[1].close()


def _spawn(share):
    """Fork a child that runs the share's walks into one anonymous shared
    mapping, in order; return its pid, the mapping and the share."""
    import mmap  # here, so that a run that forks no walker does not load it

    mapping = mmap.mmap(-1, sum(out.nbytes for *_, out in share))
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
            for walk, x, back, out in share:
                walk(x, len(out), back,
                     np.frombuffer(mapping, count=len(out), offset=offset))
                offset += out.nbytes
            code = 0
        finally:
            os._exit(code)
    return pid, mapping, share
