"""Exact per-time distance profiles.

Estimators need d(g.x, g.x') for every g in a window hull.  To keep window
sums exact and order-independent we quantize every distance sample onto the
grid 2^-SCALE_BITS as an integer.  SCALE_BITS = 1074 makes the floor
map lossless on every nonnegative IEEE double (all of which are integer
multiples of 2^-1074) and on every dyadic 2^-k with k <= 1074; smaller
values floor to 0, which is also what float arithmetic would report.

Flooring onto the grid preserves the ultrametric triangle inequality of
subshift metrics exactly (floor is monotone and commutes with max), so the
property suites can assert window-level inequalities with zero tolerance.

A profile offers its samples to the estimators in one of two shapes.
'exp2' and 'scaled' profiles give a pieces view (`pieces`): the maximal
ranges on which an int64 order key of the samples, ordered as their
values are, is linear in t with slope -1, 0 or 1, with exact prefix sums at
piece starts only, so that the scan compares samples on machine integers
and evaluates Python-int sums only where it must.  A 'scaled' profile is
stored as its pieces, its constant runs keyed by rank.  An 'exp2' profile
(a subshift pair) is stored as its disagreement spans, the maximal ranges
where the two points' letters differ; the value at t is 2^-e with e the
distance from t to the nearest disagreement, keyed -e, so its pieces are
the spans, each gap's two ramps, along which the value halves or doubles
a sample, and the zeros between them.  They and the extremes are built
from the spans in time linear in their number, with no per-sample array;
`extremes` reads every range of a call off the spans in one vectorized
pass.  The grid integers 2^-e for e <= SCALE_BITS + 1 are held once, in
one table that the pieces, their sums, the extremes and
scaled_from_exponent read.
'float' profiles give a limbs view (`limbs`): every grid integer, shifted
down by the profile's lowest set bit, split into int64 limbs narrow enough
that their prefix sums cannot overflow (a small superaccumulator), so no
sample becomes a Python int.  A float profile's samples are built
(`floats_from_blocks`), split into limbs and scanned BLOCK samples or
translates at a time, so that besides the samples and the limbs' prefix
sums no buffer is longer than a block; each sample's arithmetic is the same for any block size.
`flag_runs` gives, for every kind, the pieces view of the 0/1 flags of the
samples at or above a threshold: a float profile's flags are compared a
block at a time as well, and an 'exp2' profile's are its spans dilated by
the threshold's exponent.  No profile stores a per-sample grid integer:
`scaled`, `prefix` and `indicator_prefix` build them on each call, as
reference accessors for tests and diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import List, Optional, Tuple

import numpy as np

SCALE_BITS = 1074
SCALE = 1 << SCALE_BITS
#: sentinel exponent meaning "no disagreement anywhere", i.e. distance 0
INF_EXP = 1 << 30
#: stands in for the missing disagreement beyond an outer gap
_FAR = 1 << 62
#: the grid integer of 2^-e at index e, for e = 0 .. SCALE_BITS + 1 (the
#: last, and every exponent beyond it, is 0 on the grid), built once
_GRID = np.array([1 << (SCALE_BITS - e) for e in range(SCALE_BITS + 1)] + [0],
                 dtype=object)
#: samples or translates that the float profile build, limbs, flag runs
#: and limb scan take at a time
BLOCK = 1 << 14


def blocks(n: int):
    """The bounds (i, j) of the blocks [i, j) of at most BLOCK that cover
    0 .. n - 1, in order."""
    return ((i, min(i + BLOCK, n)) for i in range(0, n, BLOCK))


def floats_from_blocks(lo: int, hi: int, block) -> np.ndarray:
    """The float64 samples on [lo, hi] whose values at t = a .. b, a block
    of at most BLOCK, are the array block(a, b): each is copied into the one
    sample array, so that the caller's buffers stay block-sized.  Unchecked:
    `DistanceProfile.from_floats` validates them."""
    values = np.empty(hi - lo + 1)
    for i, j in blocks(len(values)):
        values[i:j] = block(lo + i, lo + j - 1)
    return values


def scaled_from_float(x: float) -> int:
    """Exact image of a nonnegative double on the 2^-SCALE_BITS grid."""
    if x < 0.0:
        raise ValueError("distance samples must be nonnegative")
    if x == 0.0:
        return 0
    p, q = x.as_integer_ratio()  # q is a power of two for any float
    return p << (SCALE_BITS - (q.bit_length() - 1))


def scaled_from_exponent(e: int) -> int:
    """Exact image of 2^-e, floored to 0 beyond the grid."""
    if e < 0:
        return 1 << (SCALE_BITS - e)
    return _GRID[min(e, SCALE_BITS + 1)]


def limb_bits(n: int) -> int:
    """Width w of the limbs of an n-sample profile: n * 2^w <= 2^62, so a
    limb's prefix sums, and a window's limb sum plus the carry from the limb
    below (less than n), stay below 2^63."""
    return 62 - (n - 1).bit_length()


def _run_table(keys: np.ndarray, n: int, at=None):
    """The pieces view (see DistanceProfile.pieces) of the samples keys, a
    flat piece per maximal constant run, the last extended to n samples.
    keys are 0/1 flags (bool: values and keys are the flags as int64) or
    grid integers (object: the keys rank them).  keys[k] is the sample at
    at[k] (at 0, 1, ... by default); at must be sorted, start at 0 and
    hold every run start."""
    new = np.concatenate(([True], keys[1:] != keys[:-1]))
    starts = np.append(np.flatnonzero(new) if at is None else at[new], n)
    keys = keys[new]
    if keys.dtype == bool:
        values = keys.astype(np.int64)
        order = np.append(values, 0)
    else:
        values = keys
        rank = {v: r for r, v in enumerate(sorted({0, *values.tolist()}))}
        order = np.array([rank[v] for v in values.tolist()] + [rank[0]],
                         np.int64)
    sums = np.concatenate(([0], np.cumsum(values * np.diff(starts))))
    return starts, np.append(values, 0), sums, order, 0 * order  # flat


def _piece_sums(values, keys, slopes, length):
    """The exact sums of the first length[k] samples of pieces from
    their first values, keys and key slopes: v L on a flat piece; on an
    'exp2' ramp from 2^-e (keyed -e, no 0 in it) 2^(1-e) - 2^(1-e-L) halving
    and 2^(L-e) - 2^-e doubling, the difference of two grid entries."""
    out = values.copy()  # a piece's first sample, the sum of one
    flat = (slopes == 0) & (length != 1)
    out[flat] = values[flat] * length[flat]
    e = -keys
    for ramp, top, bottom in ((slopes < 0, e - 1, e + length - 1),
                              (slopes > 0, e - length, e)):
        if ramp.any():
            out[ramp] = _GRID[top[ramp]] - _GRID[bottom[ramp]]
    return out


def _significands(floats: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(sig, pos) of nonnegative doubles, as new arrays: each is
    sig * 2^(pos - SCALE_BITS) with sig < 2^53; -0.0 is 0."""
    sig = floats.view(np.uint64) & np.uint64(2**63 - 1)
    pos = (sig >> np.uint64(52)).astype(np.int16)  # the biased exponent
    np.bitwise_and(sig, np.uint64(2**52 - 1), out=sig)
    np.bitwise_or(sig, np.uint64(2**52), out=sig, where=pos > 0)
    np.maximum(np.subtract(pos, 1, out=pos), 0, out=pos)
    return sig, pos


def _lowest_bit(sig: np.ndarray, pos: np.ndarray) -> Optional[int]:
    """The position on the grid of the lowest set bit of any of the
    doubles that _significands split into sig and pos; None when all are
    0."""
    if not sig.any():
        return None
    lowest = np.frexp((sig & (~sig + np.uint64(1))).astype(np.float64))[1]
    return int((pos + lowest - 1)[sig != 0].min())


@dataclass
class DistanceProfile:
    """Distance samples d(t) for t in [lo, hi], exact on the quantization grid.

    kind is 'exp2' (values 2^-e, e the distance to the nearest of the
    disagreement spans), 'float' (a float64 array, each value exactly
    representable) or 'scaled' (grid integers, held as constant runs).  The
    pieces and limbs views are built lazily and cached; sums are exact
    integers, so they never round.
    """

    lo: int
    hi: int
    kind: str
    spans: Optional[Tuple[np.ndarray, np.ndarray]] = None
    floats: Optional[np.ndarray] = None
    _pieces: Optional[Tuple[np.ndarray, ...]] = field(default=None, repr=False)
    _gaps: Optional[Tuple[np.ndarray, ...]] = field(default=None, repr=False)
    _limbs: Optional[Tuple[List[np.ndarray], int, int]] = field(
        default=None, repr=False)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_spans(cls, lo: int, hi: int, starts, ends) -> "DistanceProfile":
        """The 'exp2' profile on [lo, hi] of a pair whose letters differ
        exactly on the half-open spans [starts[k], ends[k]), given as
        sample indices (t - lo): ascending, disjoint and not adjacent.  They
        may reach beyond the range; disagreements outside the spans given
        are not seen, and with none the distance is 0 everywhere."""
        return cls(lo=lo, hi=hi, kind="exp2",
                   spans=(np.asarray(starts, np.int64), np.asarray(ends, np.int64)))

    @classmethod
    def from_floats(cls, lo: int, values: np.ndarray) -> "DistanceProfile":
        values = np.asarray(values, dtype=np.float64)
        # min and max propagate NaN, which fails both compares
        if not (values.min(initial=0.0) >= 0.0 and values.max(initial=0.0) < np.inf):
            raise ValueError("distance samples must be finite and nonnegative")
        return cls(lo=lo, hi=lo + len(values) - 1, kind="float", floats=values)

    @classmethod
    def from_scaled(cls, lo: int, scaled: List[int]) -> "DistanceProfile":
        return cls(lo=lo, hi=lo + len(scaled) - 1, kind="scaled",
                   _pieces=_run_table(np.array(scaled, dtype=object), len(scaled)))

    @classmethod
    def constant(cls, lo: int, hi: int, scaled_value: int) -> "DistanceProfile":
        """One run of scaled_value on [lo, hi]."""
        return cls(lo=lo, hi=hi, kind="scaled", _pieces=_run_table(
            np.array([scaled_value], dtype=object), hi - lo + 1))

    # -- exact values ---------------------------------------------------

    def __len__(self) -> int:
        return self.hi - self.lo + 1

    def scaled(self) -> List[int]:
        """Every sample's grid integer, built on each call: a reference
        accessor, which no estimator uses."""
        if self.kind == "float":
            return [scaled_from_float(v) for v in self.floats.tolist()]
        if self.kind == "exp2":
            return _GRID[np.minimum(self._exponents_at(np.arange(len(self))),
                                    SCALE_BITS + 1)].tolist()
        starts, values = self.pieces()[:2]
        return np.repeat(values[:-1], np.diff(starts)).tolist()

    def prefix(self) -> List[int]:
        """Prefix sums: prefix[i] = sum of scaled values at t in [lo, lo+i)."""
        return list(accumulate(self.scaled(), initial=0))

    def pieces(self) -> Tuple[np.ndarray, ...]:
        """(starts, values, sums, keys, slopes) of an 'exp2' or 'scaled'
        profile: piece k starts at sample starts[k] with grid value
        values[k], int64 key keys[k] and key slope slopes[k], after samples
        summing to sums[k]; a closing entry at len(self) has value 0.  A
        'scaled' profile's pieces are its runs, keyed by rank; an 'exp2'
        one's, at most one a run, are keyed -e (e capped at SCALE_BITS + 1)."""
        if self._pieces is None:
            if self.kind != "exp2":
                raise ValueError("float profiles have no pieces view")
            n, (last, nxt, _, _) = len(self), self._gap_table()
            # each gap's ramp up, zeros and ramp down, then the next span
            mid = (last + nxt) // 2 + 1  # a gap's first sample past its apex
            at = np.stack((last + 1, np.minimum(last + SCALE_BITS + 1, mid),
                           np.maximum(nxt - SCALE_BITS, mid), nxt), 1).ravel()
            at = np.append(0, at[(at > 0) & (at < n)])
            at = at[np.append(True, at[1:] != at[:-1])]
            length = np.diff(np.append(at, n))
            e, e1 = np.minimum(self._exponents_at(np.stack((at, at + 1))),
                               SCALE_BITS + 1)
            slopes = np.where(length > 1, e - e1, 0)  # one sample is flat
            # a piece that goes on the line of the one before joins it
            new = np.append(True, (slopes[1:] != slopes[:-1])
                            | (e[:-1] - e[1:] != slopes[:-1] * length[:-1]))
            at, e, slopes = at[new], e[new], slopes[new]
            at, values = np.append(at, n), _GRID[e]
            sums = np.cumsum(_piece_sums(values, -e, slopes, np.diff(at)))
            self._pieces = (at, np.append(values, 0), np.append(0, sums),
                            np.append(-e, -SCALE_BITS - 1), np.append(slopes, 0))
        return self._pieces

    def _gap_table(self) -> Tuple[np.ndarray, ...]:
        """(last, nxt, apex, height) of an 'exp2' profile, cached.  Gap k
        holds the samples between the disagreements last[k] and nxt[k]
        (+-_FAR beyond the outer spans); the exponent at t in it is
        min(t - last[k], nxt[k] - t).  An inner gap's exponents rise by one
        a sample to height first reached at apex, then fall."""
        if self._gaps is None:
            starts, ends = self.spans
            last = np.concatenate(([-_FAR], ends - 1))
            nxt = np.concatenate((starts, [_FAR]))
            height = (nxt[1:-1] - last[1:-1]) // 2
            self._gaps = (last, nxt, last[1:-1] + height, height)
        return self._gaps

    def _exponents_at(self, t: np.ndarray) -> np.ndarray:
        """The exponents of an 'exp2' profile's samples at the indices t,
        capped at INF_EXP; 0 inside a span."""
        last, nxt, _, _ = self._gap_table()
        k = np.searchsorted(self.spans[0], t, "right")  # in gap k or span k - 1
        return np.where(t <= last[k], 0, np.minimum(
            np.minimum(t - last[k], nxt[k] - t), INF_EXP))

    def limbs(self) -> Tuple[List[np.ndarray], int, int]:
        """A 'float' profile as (cums, w, low): sample i's grid integer is
        the sum over k of d_k[i] << (w * k + low), with limb digits
        0 <= d_k[i] < 2^w, w = limb_bits(len(self)) and low the profile's
        lowest set bit, and cums[k] holds the int64 prefix sums of d_k with
        a leading 0.  There is at least one limb, and enough to hold the
        widest sample."""
        if self._limbs is None:
            if self.kind != "float":
                raise ValueError("only float profiles have a limbs view")
            # two passes over blocks of samples: the lowest set bit, then the
            # digits, written into each limb's cum and summed there in place;
            # besides the limbs, no per-sample buffer outlives a block
            n, w = len(self), limb_bits(len(self))
            bits = (_lowest_bit(*_significands(self.floats[i:j]))
                    for i, j in blocks(n))
            low = min((b for b in bits if b is not None), default=None)
            width = 0 if low is None else (
                int(np.frexp(self.floats.max())[1]) + SCALE_BITS - low)
            low = low or 0
            cums = [np.zeros(n + 1, np.int64)
                    for _ in range(max(1, -(-width // w)))]
            for i, j in blocks(n):
                sig, pos = _significands(self.floats[i:j])
                shift = np.empty(j - i, np.int64)
                for k, cum in enumerate(cums):
                    digit = cum[1 + i:1 + j].view(np.uint64)
                    # where bit 0 of sig lands in limb k
                    rel = np.subtract(pos, low + w * k, out=shift, dtype=np.int64)
                    np.clip(rel, 0, 63, out=cum[1 + i:1 + j])
                    np.left_shift(sig, digit, out=digit)
                    np.clip(np.negative(rel, out=rel), 0, 63, out=rel)
                    np.right_shift(digit, rel.view(np.uint64), out=digit)
                    np.bitwise_and(digit, np.uint64(2**w - 1), out=digit)
            for cum in cums:
                np.cumsum(cum[1:], out=cum[1:])
            self._limbs = (cums, w, low)
        return self._limbs

    def extremes(self, a, b):
        """(min_scaled, argmin_t, max_scaled, argmax_t) over [a, b].  With
        equal-length sequences a and b, four lists instead, entry k over
        [a[k], b[k]]: one call serves every window's ranges.

        Ties resolve to the smallest t, for deterministic diagnostics.
        """
        scalar = np.ndim(a) == 0
        a, b = np.atleast_1d(np.asarray(a, np.int64), np.asarray(b, np.int64))
        bad = (a < self.lo) | (b > self.hi) | (a > b)
        if bad.any():
            k = int(np.argmax(bad))
            raise ValueError("range [%d, %d] outside profile [%d, %d]"
                             % (a[k], b[k], self.lo, self.hi))
        i, j = a - self.lo, b - self.lo
        if self.kind == "exp2":
            out = self._span_extremes(i, j)
        else:
            out = tuple(map(list, zip(*map(self._segment_extremes,
                                           i.tolist(), j.tolist()))))
        return tuple(r[0] for r in out) if scalar else out

    def _segment_extremes(self, i: int, j: int) -> Tuple[int, int, int, int]:
        """extremes over the samples [i, j] of a 'float' or 'scaled'
        profile."""
        if self.kind == "float":
            seg = self.floats[i:j + 1]
            kmin, kmax = int(np.argmin(seg)), int(np.argmax(seg))
            return (scaled_from_float(float(seg[kmin])), self.lo + i + kmin,
                    scaled_from_float(float(seg[kmax])), self.lo + i + kmax)
        # the first run reaching each extreme, its start clipped to i
        starts, values = self.pieces()[:2]
        k = int(np.searchsorted(starts, i, "right")) - 1
        seg = values[k:np.searchsorted(starts, j + 1)].tolist()
        mn, mx = min(seg), max(seg)
        return (mn, self.lo + max(int(starts[k + seg.index(mn)]), i),
                mx, self.lo + max(int(starts[k + seg.index(mx)]), i))

    def _span_extremes(self, i: np.ndarray, j: np.ndarray) -> Tuple[list, ...]:
        """extremes over the samples [i[k], j[k]] of an 'exp2' profile, read
        off its spans for every range at once.  Ties go to the smallest t
        of the largest and smallest exponents, capped at INF_EXP: below the
        grid, samples tie on the grid but not by exponent.  A gap's
        exponents rise, then fall, so its smallest in a range is at a range
        end and its largest at a range end or at its apex."""
        starts, ends = self.spans
        _, _, apex, height = self._gap_table()
        ei, ej = self._exponents_at(i), self._exponents_at(j)
        first = np.append(starts, _FAR)[np.searchsorted(ends, i, "right")]
        inside = first <= j  # the first span ending after i starts by j
        top = np.where(inside, 0, np.minimum(ei, ej))
        top_t = np.where(inside, np.maximum(i, first), np.where(ei <= ej, i, j))
        # the highest apex in each range, the first of equals: the apexes
        # ranked by height, then position, and the best rank in each range
        n = len(apex)
        order = np.append(np.argsort(-height, kind="stable"), n)
        rank = np.empty(n + 1, np.int64)
        rank[order] = np.arange(n + 1)
        p, q = np.searchsorted(apex, i), np.searchsorted(apex, j + 1)
        m = order[np.minimum.reduceat(rank, np.stack((p, q), 1).ravel())[::2]]
        m_height = np.append(height, -1)[m]
        take = (q > p) & (m_height > ei)
        low = np.where(take, m_height, ei)
        low_t = np.where(take, np.append(apex, 0)[m], i)
        take = ej > low
        low, low_t = np.where(take, ej, low), np.where(take, j, low_t)
        return (_GRID[np.minimum(low, SCALE_BITS + 1)].tolist(),
                (self.lo + low_t).tolist(),
                _GRID[np.minimum(top, SCALE_BITS + 1)].tolist(),
                (self.lo + top_t).tolist())

    def indicator_prefix(self, threshold_scaled: int) -> List[int]:
        """Prefix counts of samples strictly below the scaled threshold."""
        # compare on the grid: threshold_scaled / SCALE may not be a double
        flags = [1 if s < threshold_scaled else 0 for s in self.scaled()]
        return list(accumulate(flags, initial=0))

    def flag_runs(self, eps: float) -> Tuple[np.ndarray, ...]:
        """The runs of the 0/1 flags of the samples at or above eps, as
        flat pieces keyed by their int64 values: float samples compare with
        eps as doubles (exact) a block at a time, 'scaled' runs on the grid,
        and 'exp2' flags are the spans dilated by the largest k, 2^-k >= eps."""
        n = len(self)
        if self.kind == "float":
            # each block's flags, with the last sample before it, give the
            # run starts in it; no per-sample row outlives a block
            floats, at = self.floats, [np.zeros(1, np.int64)]
            for i, j in blocks(n):
                flags = floats[max(i - 1, 0):j] >= eps
                at.append(np.flatnonzero(flags[1:] != flags[:-1]) + max(i, 1))
            at = np.concatenate(at)
            return _run_table(floats[at] >= eps, n, at)
        if self.kind == "scaled" or eps == 0:  # every sample reaches eps 0
            starts, values = self.pieces()[:2]
            return _run_table(values[:-1] >= scaled_from_float(eps), n,
                              at=starts[:-1])
        k = SCALE_BITS - (scaled_from_float(eps) - 1).bit_length()
        starts, ends = self.spans if k >= 0 else (np.empty(0, np.int64),) * 2
        # the spans dilated by k, merged: flags rise at even bounds, fall at odd
        bounds = np.stack((starts - k, ends + k), 1).ravel()
        apart = np.ones(len(bounds), bool)
        apart[1:-1] = np.repeat(bounds[2::2] > bounds[1:-1:2], 2)
        bounds = bounds[apart]
        i, j = np.searchsorted(bounds, (0, n - 1), "right")
        return _run_table(np.arange(i - 1, j) % 2 == 0, n,
                          np.append(0, bounds[i:j]))

    def plus(self, other: "DistanceProfile") -> "DistanceProfile":
        """Termwise sum on the grid (the lifted-metric profile)."""
        if (self.lo, self.hi) != (other.lo, other.hi):
            raise ValueError("profiles cover different ranges")
        return DistanceProfile.from_scaled(
            self.lo, [x + y for x, y in zip(self.scaled(), other.scaled())])
