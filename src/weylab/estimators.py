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
profile, which the same scans below read.  Besicovitch and weyl share one
translate scan (besicovitch is the weyl scan at radius 0), whose shape
follows the profile:

- 'exp2' and 'scaled' profiles (symbolic systems, diagonal pairs,
  isometric systems and lifted profiles; a 'scaled' one is stored as its
  runs) are scanned by constant runs.  A window sum is affine in the
  translate between breakpoints, where a window edge crosses a run start;
  it is evaluated exactly at the breakpoints that can hold the maximum and
  at the radius only.
- 'float' profiles (shells62, interval61) are scanned on their int64
  limbs: the sums of all translates of a window are one slice difference
  per limb plus a carry, and the greatest is found limb by limb from the
  top; only that one becomes a Python int.

banach-density, for every kind, runs the same run scan on the runs of the
0/1 flags of the samples at or above eps (DistanceProfile.flag_runs).  The
run and limb scans pick their translate and boundary flag in one place,
_best; check and hat read DistanceProfile.extremes.  No estimator calls
the per-sample reference accessors (scaled, prefix).

A PairSummary holds a pair's four classification kinds, and a SummaryMemo
keeps one summary per unordered pair (estimates are bit-symmetric), so
that a whole run builds each distinct off-diagonal pair once and scans one
diagonal pair per schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, Optional, Tuple

import numpy as np

from .core import CrossSystemError, FolnerSchedule, FolnerWindow, Point
from .profiles import SCALE, DistanceProfile

ESTIMATE_KINDS = ("besicovitch", "weyl", "check", "hat", "banach-density")


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


def _best(cand, hit, M):
    """The translate and boundary flag of a window's extreme over the
    translates |a| <= M, from the mask hit of the candidates cand (ascending,
    from -M to M) that achieve it.  The window sum must be affine between
    consecutive candidates, so a piece whose two ends both achieve the
    extreme is flat: every translate in it achieves it too.  The translate
    nearest 0 wins, negative first; the flag is set when every achiever
    lies on |a| = M."""
    flat = hit[:-1] & hit[1:]
    left, right = cand[:-1][flat], cand[1:][flat]
    achievers = cand[hit]
    if np.any((left < 0) & (right > 0)):
        a = 0
    else:  # argmin keeps the first, so -a wins a tie with a
        a = achievers[np.argmin(np.abs(achievers))]
    interior = (np.any(np.abs(achievers) < M)
                or np.any(right - left >= 2))  # a flat piece's inner translate
    return int(a), bool(M > 0 and not interior)


def _run_scan(runs, base):
    """Window scan over a runs view (starts, values, sums) whose first
    sample is at base.  S(a) = P(u + a) - P(l + a), P the prefix sum, is
    affine between breakpoints, where a window edge crosses a run start,
    with slope v(u + a) - v(l + a).  Only a breakpoint whose left piece
    does not fall and whose right piece does not rise can hold the
    maximum: S is evaluated exactly there and at a = -M, M."""
    starts, values, sums = runs

    def knots(edge, M):
        i, j = np.searchsorted(starts, (edge - M, edge + M + 1))
        return starts[i:j] - edge

    def scan(wlo, whi, M):
        l, u = wlo - base, whi - base + 1
        # the two sorted knot lists merge in linear time under a stable sort
        cand = np.sort(np.concatenate(([-M], knots(l, M), knots(u, M), [M])),
                       kind="stable")
        cand = cand[np.concatenate(([True], cand[1:] != cand[:-1]))]
        ku = np.searchsorted(starts, u + cand, "right") - 1
        kl = np.searchsorted(starts, l + cand, "right") - 1
        # the samples entering and leaving the window along piece k
        vu, vl = values[ku[:-1]], values[kl[:-1]]
        keep = np.ones(len(cand), bool)
        keep[1:-1] = (vu[:-1] >= vl[:-1]) & (vu[1:] <= vl[1:])
        at = np.flatnonzero(keep)
        ku, kl, a = ku[at], kl[at], cand[at]
        sums_at = (sums[ku] + (u + a - starts[ku]) * values[ku]
                   - sums[kl] - (l + a - starts[kl]) * values[kl])
        best = sums_at.max()
        hit = np.zeros(len(cand), bool)
        hit[at[sums_at == best]] = True
        return (int(best), *_best(cand, hit, M))

    return scan


def _limb_scan(profile):
    """Window scan over the int64 limbs of a 'float' profile.  The limb sums
    of all 2M + 1 translates are one slice difference per limb; carried
    into w-bit digits in place they compare as numbers do, from the top
    digit down.  Only the greatest sum is rebuilt as a Python int, from its
    digits and final carry."""
    cums, w, low = profile.limbs()

    def scan(wlo, whi, M):
        l, u = wlo - profile.lo, whi - profile.lo + 1
        digits, carry = [], 0
        for c in cums:
            s = c[u - M:u + M + 1] - c[l - M:l + M + 1]
            s += carry
            carry = s >> w
            s &= (1 << w) - 1
            digits.append(s)
        digits.append(carry)
        hit = np.ones(2 * M + 1, dtype=bool)
        for d in digits[::-1]:  # every digit is >= 0
            hit &= d == d.max(where=hit, initial=-1)
        a, boundary = _best(np.arange(-M, M + 1), hit, M)
        total = sum(int(d[a + M]) << (w * k) for k, d in enumerate(digits))
        return total << low, a, boundary

    return scan


# ---------------------------------------------------------------------------
# per-window values of each kind, from one profile


def _scan_windows(scan, schedule, radii, unit, below=False):
    """Per-window best translated sums, as multiples of unit.  besicovitch
    scans with every radius 0, weyl and banach-density with the schedule's
    translate radii.  With below, a window reports its length less the
    best sum (banach-density: the fewest samples below eps)."""
    per = []
    for w, M in zip(schedule.windows, radii):
        total, a, boundary = scan(w.lo, w.hi, M)
        if below:
            total = len(w) - total
        per.append(_window_value(w, M, a, Fraction(total, len(w) * unit),
                                 boundary))
    return per


def _extreme_windows(profile, schedule):
    """(check, hat) per-window values; each window's single extremes pass
    (and its interior pass, for the boundary flag) serves both kinds."""
    low, high = [], []
    for w, M in zip(schedule.windows, schedule.translate_radius):
        a, b = w.lo - M, w.hi + M
        mn, mn_t, mx, mx_t = profile.extremes(a, b)
        low_boundary = high_boundary = False
        if b - 1 >= a + 1:
            imn, _, imx, _ = profile.extremes(a + 1, b - 1)
            low_boundary, high_boundary = imn != mn, imx != mx
        low.append(_window_value(w, M, mn_t, Fraction(mn, SCALE), low_boundary))
        high.append(_window_value(w, M, mx_t, Fraction(mx, SCALE), high_boundary))
    return low, high


# ---------------------------------------------------------------------------
# estimates of a pair from one profile


def estimates(x: Point, y: Point, schedule: FolnerSchedule, kinds,
              eps: Optional[float] = None) -> Dict[str, PseudometricEstimate]:
    """The estimates of the named kinds, by kind name, from one profile
    build.  Only the passes those kinds need are run; 'check' and 'hat'
    share one.  'banach-density' needs eps."""
    for kind in kinds:
        if kind not in ESTIMATE_KINDS:
            raise ValueError("unknown estimate kind %r" % (kind,))
        if kind == "banach-density":
            if eps is None:
                raise ValueError("banach-density needs eps")
            if eps <= 0:
                raise ValueError("eps must be positive")
    profile = pair_profile(x, y, *schedule.hull_range())
    extremes = scan = None
    out = {}
    for kind in kinds:
        if kind in ("check", "hat"):
            if extremes is None:
                extremes = _extreme_windows(profile, schedule)
            per = extremes[kind == "hat"]
        elif kind == "banach-density":
            per = _scan_windows(_run_scan(profile.flag_runs(eps), profile.lo),
                                schedule, schedule.translate_radius, 1,
                                below=True)
        else:
            if scan is None:
                scan = (_limb_scan(profile) if profile.kind == "float"
                        else _run_scan(profile.runs(), profile.lo))
            radii = (schedule.translate_radius if kind == "weyl"
                     else [0] * len(schedule.windows))
            per = _scan_windows(scan, schedule, radii, SCALE)
        out[kind] = _aggregate(kind, x, y, per, schedule)
    return out


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
    all from a single profile build and a single translate scan.  The
    profile itself is not kept: at a 2^16 hull the samples and limb sums of
    a float profile weigh megabytes, and the runs view of a symbolic one
    holds a big integer per run."""

    check: PseudometricEstimate
    besicovitch: PseudometricEstimate
    weyl: PseudometricEstimate
    hat: PseudometricEstimate

    @classmethod
    def of(cls, x: Point, y: Point, schedule: FolnerSchedule) -> "PairSummary":
        return cls(**estimates(x, y, schedule,
                               ("check", "besicovitch", "weyl", "hat")))

    def relabelled(self, x: Point, y: Point) -> "PairSummary":
        """The same estimates, labelled as the pair (x, y): the summary of
        (y, x) for the reverse of a pair, or of any diagonal pair for
        another diagonal one on the same schedule."""
        return PairSummary(*(replace(e, x=str(x), y=str(y))
                             for e in vars(self).values()))


class SummaryMemo:
    """One PairSummary per unordered pair of points, for one schedule: every
    consumer in a run reads its estimates here, so each distinct pair is
    built and scanned once and (y, x) after (x, y) is only relabelled.
    Every diagonal pair on one schedule has the same estimates, so the
    first one is scanned (on the zero profile, with no system build) and
    later ones relabel it.  Only summaries are held, never a profile.
    Threads may share a memo: two that miss on one pair at once both
    compute it, with equal results."""

    def __init__(self, schedule: FolnerSchedule):
        self.schedule = schedule
        self._summaries: Dict[Tuple[Point, Point], PairSummary] = {}
        self._diagonal: Optional[PairSummary] = None

    def __call__(self, x: Point, y: Point) -> PairSummary:
        summary = self._summaries.get((x, y))
        if summary is None:
            held = self._diagonal if x == y else self._summaries.get((y, x))
            if held is not None:
                summary = held.relabelled(x, y)
            else:
                summary = PairSummary.of(x, y, self.schedule)
                if x == y:
                    self._diagonal = summary
            self._summaries[(x, y)] = summary
        return summary
