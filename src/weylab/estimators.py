"""Orbit-averaged pseudometric estimators over window schedules.

Every estimator works on an exact integer grid: sampled distances are
mapped losslessly onto multiples of 2^-1074 (every nonnegative double is
one), window sums are exact integers, and cross-window comparisons are
exact rational comparisons.  Floats appear only in reported values,
rounded once at the end, so results are independent of summation order
and of threading.

Estimates are finite-window surrogates: 'weyl' and 'besicovitch' take the
max over the tail half of the schedule (a limsup stand-in), 'check' the
min and 'hat' the max of single samples over every window including its
translate slack.  'check' therefore upper-bounds the true orbit infimum
and 'hat' lower-bounds the orbit supremum.

Each windowed value reports the translate that achieved it (the smallest
|g'| among achievers, negative first on ties) and whether every achieving
translate sat on the search boundary |g'| = M; the latter raises the
boundary_warning flag, a hint that the radius was too small to see the
extreme.

`estimates` computes any set of kinds from one profile build, and the
single-kind functions call it with one kind.  A diagonal pair (x, x) is
not built by its system: pair_profile answers it with the one-run zero
profile, which the same scans below read.  A scan answers every window
of a call at once, scan(wlos, whis, radii) giving one (total, translate,
boundary) per window; besicovitch is the weyl scan at radius 0, so one
call serves both, its windows once at radius 0 and once at the
schedule's radii.  The scan follows the profile's shape:

- 'exp2' and 'scaled' profiles (symbolic systems, diagonal pairs,
  isometric systems and lifted profiles) are scanned by pieces
  (DistanceProfile.pieces), along which an int64 order key of the samples
  is linear.  Between breakpoints, where a window edge crosses a piece
  start or the keys at the two edges change order, a window sum is flat
  or strictly monotone in the translate; it is evaluated exactly, in
  closed form inside a piece, only at the breakpoints that can hold the
  maximum and at the radius.  Every window's breakpoints are one sorted
  int64 array, tagged by window, so each step is one numpy pass.
- 'float' profiles (shells62, interval61) are scanned on their int64
  limbs, one window after another and BLOCK translates at a time: the
  sums of a block of translates are one slice difference per limb plus a
  carry, the greatest is found limb by limb from the top, and only each
  block's greatest digits become Python ints, to be compared with the
  best of the blocks before it.

banach-density, for every kind, runs the same run scan on the runs of the
0/1 flags of the samples at or above eps (DistanceProfile.flag_runs),
flat pieces whose flags are their own order keys.  The run and limb scans
pick their translates and boundary flags in one routine, _best, which
settles every window it is given in one vectorized pass; check and hat
read every window's ranges from one DistanceProfile.extremes call.  No
estimator calls the per-sample reference accessors (scaled, prefix).

A PairSummary holds a pair's four classification kinds on one schedule.
A SummaryMemo keeps their per-window rows by unordered pair (estimates are
bit-symmetric), window and radius, on which alone a row depends, so that a
whole run builds each distinct pair once, whatever its schedules.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Tuple

import numpy as np

from .core import CrossSystemError, FolnerSchedule, FolnerWindow, Point
from .profiles import SCALE, DistanceProfile, _piece_sums, blocks

ESTIMATE_KINDS = ("besicovitch", "weyl", "check", "hat", "banach-density")
SUMMARY_KINDS = ("check", "besicovitch", "weyl", "hat")


def pair_profile(x: Point, y: Point, lo: int, hi: int) -> DistanceProfile:
    """Exact distance profile of the pair on [lo, hi], built on every call.
    A diagonal pair is the one-run zero profile, with no system build.

    Callers that need several estimates of one pair take them from one
    PairSummary rather than building the profile again.
    """
    if x.system_id != y.system_id:
        raise CrossSystemError(
            "cannot profile %r against %r" % (x.system_id, y.system_id)
        )
    if x == y:
        return DistanceProfile.constant(lo, hi, 0)
    return x.system().pair_profile(x.payload, y.payload, lo, hi)


# ---------------------------------------------------------------------------
# results


@dataclass(frozen=True)
class WindowValue:
    window: FolnerWindow
    radius: int
    translate: int
    exact: Fraction
    value: float
    boundary: bool


@dataclass(frozen=True)
class PseudometricEstimate:
    kind: str
    x: str
    y: str
    value: float
    exact: Fraction
    per_window: Tuple[WindowValue, ...]
    boundary_warning: bool

    def __post_init__(self):
        if self.kind not in ESTIMATE_KINDS:
            raise ValueError("unknown estimate kind %r" % (self.kind,))


def _window_value(window, radius, translate, exact, boundary) -> WindowValue:
    return WindowValue(window, radius, translate, exact, float(exact), boundary)


def _aggregate(kind, x, y, per_window, schedule) -> PseudometricEstimate:
    """'check' and 'hat' take the extreme over every window, the averaged
    kinds the max over the tail half."""
    if kind in ("check", "hat"):
        support = range(len(per_window))
    else:
        support = schedule.tail_windows()
    maximize = kind != "check"
    best = None
    for i in support:
        wv = per_window[i]
        if best is None or (wv.exact > best.exact if maximize else wv.exact < best.exact):
            best = wv
    warning = any(per_window[i].boundary for i in support)
    return PseudometricEstimate(
        kind=kind, x=str(x), y=str(y), value=best.value, exact=best.exact,
        per_window=tuple(per_window), boundary_warning=warning,
    )


def _rank(a):
    """2|a| + (a > 0) of translates a: the lesser rank is nearer 0,
    negative first."""
    return 2 * np.abs(a) + (a > 0)


def _best(at, a, w, radii):
    """The translate and boundary flag of every window's extreme over its
    translates |a| <= M, from the candidates that achieve it: at holds
    their indices in the list of every window's candidates (each window's
    ascending from -M to M, one window after another), a their translates
    and w their windows, and radii holds each window's M.  A window sum
    must be affine between consecutive candidates, so a piece whose two
    ends both achieve the extreme is flat: every translate in it achieves
    it too.  The translate nearest 0 wins, negative first; the flag is set
    when every achiever lies on |a| = M."""
    W = len(radii)
    # two achievers next to each other in one window bound a flat piece
    flat = np.flatnonzero((at[1:] == at[:-1] + 1) & (w[1:] == w[:-1]))
    left, right, fw = a[flat], a[flat + 1], w[flat]
    through0 = np.bincount(fw[(left < 0) & (right > 0)], minlength=W) > 0
    # a flat piece's inner translate is interior
    interior = np.bincount(fw[right - left >= 2], minlength=W) > 0
    interior |= np.bincount(w[np.abs(a) < radii[w]], minlength=W) > 0
    # the least rank in each window: nearest 0, negative first
    first = np.flatnonzero(np.concatenate(([True], w[1:] != w[:-1])))
    rank = np.minimum.reduceat(_rank(a), first)
    a = np.where(through0, 0, np.where(rank & 1, 1, -1) * (rank >> 1))
    return a, (radii > 0) & ~interior


def _ragged_range(first: np.ndarray, last: np.ndarray) -> np.ndarray:
    """The integers of the ranges [first[k], last[k]], one after another;
    a range with last < first is empty."""
    lengths = np.maximum(last - first + 1, 0)
    offsets = np.cumsum(lengths) - lengths
    return np.repeat(first - offsets, lengths) + np.arange(lengths.sum())


def _run_scan(pieces, base):
    """Window scan over a pieces view whose first sample is at base, for
    many windows at once.  S(a) = P(u + a) - P(l + a), P the prefix sum,
    steps by v(u + a) - v(l + a), of the sign of D(a) = key(u + a) -
    key(l + a).  D is linear between breakpoints, where a window edge
    crosses a piece start, and the at most two translates where its sign
    changes are breakpoints too, so S is flat or strictly monotone between
    neighbours.  Only a breakpoint whose left stretch does not fall and
    whose right one does not rise can hold the maximum, and S is evaluated
    exactly there and at a = -M, M.  Every window's candidates are one
    sorted int64 array, offset by window: one numpy pass a step."""
    starts, values, sums, keys, slopes = pieces
    later = starts[1:]  # the piece holding sample t >= 0 is the count of these <= t

    def prefix(t):  # P(t), summing inside a piece where t is not its start
        k = np.searchsorted(later, t, "right")
        p, i = sums[k], np.flatnonzero(t > starts[k])
        k = k[i]
        p[i] += _piece_sums(values[k], keys[k], slopes[k], t[i] - starts[k])
        return p

    def scan(wlos, whis, radii):
        radii = np.asarray(radii, np.int64)
        l = np.asarray(wlos, np.int64) - base
        u = np.asarray(whis, np.int64) - base + 1
        W, span = len(radii), 2 * int(radii.max(initial=0)) + 1
        # translate a of window k is tagged zero[k] + a, so that every
        # window's candidates are one sorted array, each window apart
        zero = np.arange(W) * span + radii
        parts = [zero - radii, zero + radii]
        for edge in (l, u):
            i = np.searchsorted(starts, edge - radii)
            j = np.searchsorted(starts, edge + radii + 1)
            parts.append(starts[_ragged_range(i, j - 1)]
                         + np.repeat(zero - edge, j - i))
        # four sorted parts, which a stable sort (timsort) merges in linear time
        cand = np.sort(np.concatenate(parts), kind="stable")
        del parts
        cand = cand[np.concatenate(([True], cand[1:] != cand[:-1]))]
        window = cand // span
        # D and its slope at each candidate, from the pieces at both edges
        d = ds = 0
        for sign, edge in ((1, u), (-1, l)):
            t = cand + (edge - zero)[window]
            k = np.searchsorted(later, t, "right")
            slope = sign * slopes[k]
            d = d + sign * keys[k] + slope * (t - starts[k])
            ds = ds + slope
        # where D, moving toward 0 by |ds| a step, first reaches 0 and first
        # passes it, if before the next candidate (a = M is a window's last)
        i = np.flatnonzero(ds)
        i = i[cand[i] - zero[window[i]] < radii[window[i]]]
        if len(i):
            toward, step = -np.sign(ds[i]) * d[i], np.abs(ds[i])
            reach, past = cand[i] - (-toward // step), cand[i] + toward // step + 1
            r = (toward > 0) & (reach < cand[i + 1])
            p = (toward >= 0) & (past > reach) & (past < cand[i + 1])
            i, z = np.concatenate((i[r], i[p])), np.concatenate((reach[r], past[p]))
            d = np.insert(d, i + 1, d[i] + ds[i] * (z - cand[i]))
            window = np.insert(window, i + 1, window[i])
            cand = np.insert(cand, i + 1, z)
        last = np.flatnonzero(np.append(window[1:] != window[:-1], True))
        first = np.append(0, last[:-1] + 1)
        keep = np.ones(len(cand), bool)
        keep[1:] = (d[:-1] >= 0) & (d[1:] <= 0)
        del d
        keep[first] = keep[last] = True
        at = np.flatnonzero(keep)
        del keep
        w = window[at]
        a = cand[at] - zero[w]
        sums_at = prefix(u[w] + a) - prefix(l[w] + a)
        best = np.maximum.reduceat(sums_at, np.searchsorted(at, first))
        hit = sums_at == best[w]
        a, boundary = _best(at[hit], a[hit], w[hit], radii)
        return list(zip(best.tolist(), a.tolist(), boundary.tolist()))

    return scan


def _limb_scan(profile):
    """Window scan over the int64 limbs of a 'float' profile, one window
    after another and BLOCK translates at a time.  The limb sums of a
    block of translates are one slice difference per limb; carried into
    w-bit digits in place they compare as numbers do, from the top digit
    down.  Each block gives its greatest digits, top first, and the
    achiever nearest 0; the greatest over the blocks is kept as Python
    ints, from which the sum is rebuilt.  Every translate is a candidate,
    so no flat piece is longer than one step and _best needs only that
    achiever."""
    cums, w, low = profile.limbs()

    def one(wlo, whi, M):
        l, u = wlo - profile.lo - M, whi - profile.lo + 1 - M  # at translate -M
        best = None  # (digits top first, -rank, translate) of the best so far
        for i, j in blocks(2 * M + 1):
            digits, carry = [], 0
            for c in cums:
                s = c[u + i:u + j] - c[l + i:l + j]
                s += carry
                carry = s >> w
                s &= (1 << w) - 1
                digits.append(s)
            digits.append(carry)
            hit = np.ones(j - i, dtype=bool)
            for d in digits[::-1]:  # every digit is >= 0
                hit &= d == d.max(where=hit, initial=-1)
            at = np.flatnonzero(hit)
            rank = _rank(at + (i - M))
            k = int(at[np.argmin(rank)])  # the achiever nearest 0
            found = (tuple(int(d[k]) for d in digits[::-1]), -int(rank.min()),
                     i + k - M)
            best = found if best is None else max(best, found)
        top, _, a = best
        (a,), (boundary,) = _best(np.array([a + M]), np.array([a]),
                                  np.zeros(1, np.int64), np.array([M]))
        total = sum(d << (w * k) for k, d in enumerate(top[::-1]))
        return total << low, int(a), bool(boundary)

    def scan(wlos, whis, radii):
        return [one(*window) for window in zip(wlos, whis, radii)]

    return scan


# ---------------------------------------------------------------------------
# per-window values of each kind, from one profile


def _scan_windows(scan, windows, radii, unit, below=False):
    """Per-window best translated sums, as multiples of unit, from one scan
    call over all the windows.  besicovitch scans with every radius 0,
    weyl and banach-density with the schedule's translate radii.  With
    below, a window reports its length less the best sum (banach-density:
    the fewest samples below eps)."""
    rows = scan([w.lo for w in windows], [w.hi for w in windows], radii)
    per = []
    for w, M, (total, a, boundary) in zip(windows, radii, rows):
        if below:
            total = len(w) - total
        per.append(_window_value(w, M, a, Fraction(total, len(w) * unit),
                                 boundary))
    return per


def _extreme_windows(profile, windows, radii):
    """(check, hat) per-window values, from one extremes call over every
    window's range with its translate slack and over that range less its
    two ends (the range itself when that leaves nothing).  The boundary
    flag is set when the two differ: the extreme lies on the ends only."""
    a = [w.lo - M for w, M in zip(windows, radii)]
    b = [w.hi + M for w, M in zip(windows, radii)]
    cut = [int(q - p >= 2) for p, q in zip(a, b)]
    mn, mn_t, mx, mx_t = profile.extremes(
        a + [p + c for p, c in zip(a, cut)], b + [q - c for q, c in zip(b, cut)])
    W = len(windows)
    return ([_window_value(w, M, t[k], Fraction(v[k], SCALE), v[W + k] != v[k])
             for k, (w, M) in enumerate(zip(windows, radii))]
            for v, t in ((mn, mn_t), (mx, mx_t)))


# ---------------------------------------------------------------------------
# estimates of a pair from one profile


def _window_rows(x, y, windows, radii, kinds, eps=None):
    """The per-window values of the named kinds, by kind name, from one
    build over the hull of the windows with their radii.  Only the passes
    those kinds need are run; 'check' and 'hat' share one."""
    lo = min(w.lo - M for w, M in zip(windows, radii))
    hi = max(w.hi + M for w, M in zip(windows, radii))
    profile = pair_profile(x, y, lo, hi)
    per = {}
    if "check" in kinds or "hat" in kinds:
        per["check"], per["hat"] = _extreme_windows(profile, windows, radii)
    # besicovitch is the weyl scan at radius 0, so one scan call serves both
    summed = [kind for kind in ("besicovitch", "weyl") if kind in kinds]
    if summed:
        scan = (_limb_scan(profile) if profile.kind == "float"
                else _run_scan(profile.pieces(), profile.lo))
        rows = _scan_windows(scan, windows * len(summed), [
            M if kind == "weyl" else 0 for kind in summed for M in radii], SCALE)
        for n, kind in enumerate(summed):
            per[kind] = rows[n * len(windows):(n + 1) * len(windows)]
    if "banach-density" in kinds:
        per["banach-density"] = _scan_windows(
            _run_scan(profile.flag_runs(eps), profile.lo), windows, radii, 1,
            below=True)
    return per


def estimates(x: Point, y: Point, schedule: FolnerSchedule, kinds,
              eps: Optional[float] = None) -> Dict[str, PseudometricEstimate]:
    """The estimates of the named kinds, by kind name, from one profile
    build over the schedule's hull.  'banach-density' needs eps."""
    for kind in kinds:
        if kind not in ESTIMATE_KINDS:
            raise ValueError("unknown estimate kind %r" % (kind,))
    if "banach-density" in kinds and (eps is None or eps <= 0):
        raise ValueError("banach-density needs a positive eps")
    per = _window_rows(x, y, schedule.windows, schedule.translate_radius,
                       kinds, eps)
    return {kind: _aggregate(kind, x, y, per[kind], schedule) for kind in kinds}


def estimate(kind: str, x: Point, y: Point, schedule: FolnerSchedule,
             eps: Optional[float] = None) -> PseudometricEstimate:
    """Dispatch by kind name; 'banach-density' needs eps."""
    return estimates(x, y, schedule, (kind,), eps)[kind]


# ---------------------------------------------------------------------------
# single estimates: one profile build each


def besicovitch(x: Point, y: Point, schedule: FolnerSchedule) -> PseudometricEstimate:
    """Average distance along each window, no translates; tail max."""
    return estimate("besicovitch", x, y, schedule)


def weyl(x: Point, y: Point, schedule: FolnerSchedule) -> PseudometricEstimate:
    """Best translated window average per window; tail max."""
    return estimate("weyl", x, y, schedule)


def check(x: Point, y: Point, schedule: FolnerSchedule) -> PseudometricEstimate:
    """Smallest single sample over every window plus translate slack: an
    upper bound for the orbit infimum of d."""
    return estimate("check", x, y, schedule)


def hat(x: Point, y: Point, schedule: FolnerSchedule) -> PseudometricEstimate:
    """Largest single sample over every window plus translate slack: a
    lower bound for the orbit supremum of d."""
    return estimate("hat", x, y, schedule)


def banach_density(x: Point, y: Point, eps: float,
                   schedule: FolnerSchedule) -> PseudometricEstimate:
    """Worst-translate density of sample times with d < eps; tail max.

    The threshold is compared on the exact grid, so ties at eps never
    depend on float rounding.
    """
    return estimate("banach-density", x, y, schedule, eps)


@dataclass(frozen=True)
class PairSummary:
    """check, besicovitch, weyl and hat of one ordered pair on one schedule,
    from one profile build (`of`) or from a memo's rows.  No profile is
    kept: at a 2^16 hull the samples and limb sums of a float profile weigh
    megabytes, and the pieces of a symbolic one hold a big integer each
    (up to one a run of equal samples)."""

    check: PseudometricEstimate
    besicovitch: PseudometricEstimate
    weyl: PseudometricEstimate
    hat: PseudometricEstimate

    @classmethod
    def of(cls, x: Point, y: Point, schedule: FolnerSchedule) -> "PairSummary":
        return cls(**estimates(x, y, schedule, SUMMARY_KINDS))


class SummaryMemo:
    """A run's PairSummaries, on any schedules.  For each unordered pair it
    keeps one row per (window, radius), the four kinds' values there, and
    every diagonal pair shares one entry (its profile is zero).  A request
    whose schedule has windows the pair lacks builds the pair once, over
    the hull of those windows only, and adds their rows; each summary is
    aggregated once and kept for its (x, y, schedule).  Only rows and
    summaries are held, never a profile.  Threads may share a memo: two
    that miss on one pair at once both compute it, with equal results."""

    def __init__(self):
        self._rows: Dict[object, Dict[Tuple[FolnerWindow, int], tuple]] = {}
        self._summaries: Dict[tuple, PairSummary] = {}

    def __call__(self, x: Point, y: Point,
                 schedule: FolnerSchedule) -> PairSummary:
        summary = self._summaries.get((x, y, schedule))
        if summary is None:
            rows = self._rows.setdefault(
                None if x == y else frozenset((x, y)), {})
            keys = list(zip(schedule.windows, schedule.translate_radius))
            missing = [key for key in keys if key not in rows]
            if missing:
                per = _window_rows(x, y, *zip(*missing), SUMMARY_KINDS)
                rows.update(zip(missing, zip(*(per[k] for k in SUMMARY_KINDS))))
            columns = zip(*(rows[key] for key in keys))  # one a kind
            summary = PairSummary(*(
                _aggregate(kind, x, y, column, schedule)
                for kind, column in zip(SUMMARY_KINDS, columns)))
            self._summaries[(x, y, schedule)] = summary
        return summary
