"""Slow reference implementations the estimator tests compare against.

Everything here is written the obvious way: explicit per-step orbit walks,
dict-of-distances, quadratic window scans.  Values are quantized onto the
same 2^-1074 grid the estimators use (every nonnegative double sits on it
exactly), so agreement can be asserted as exact Fraction equality, including
achieving translates and boundary flags.
"""

import math
from fractions import Fraction
from functools import partial

import numpy as np

from weylab.core import Point, get_system
from weylab.profiles import DistanceProfile, _piece_sums, limb_bits

SCALE_BITS = 1074


def scaled(value: float) -> int:
    f = Fraction(value)
    if f < 0:
        raise ValueError("negative distance")
    return (f.numerator << SCALE_BITS) // f.denominator


def orbit_distances(x: Point, y: Point, lo: int, hi: int) -> dict:
    system = get_system(x.system_id)
    out = {}
    for t in range(lo, hi + 1):
        out[t] = system.dist(system.act(x.payload, t),
                             system.act(y.payload, t))
    return out


def _window_sum(dists, a, b):
    return sum(scaled(dists[t]) for t in range(a, b + 1))


def _scan(window_sum, wlo, whi, radius, maximize):
    """Best window_sum(a, b) over translates in [-radius, radius]; ties keep
    the smallest |translate| (negative first), and the boundary flag is set
    when no achiever is interior."""
    best = best_a = None
    any_interior = False
    for a in range(-radius, radius + 1):
        s = window_sum(wlo + a, whi + a)
        better = best is None or (s > best if maximize else s < best)
        if better:
            best, best_a = s, a
            any_interior = abs(a) < radius
        elif s == best:
            if abs(a) < abs(best_a):
                best_a = a
            if abs(a) < radius:
                any_interior = True
    return best, best_a, (radius > 0) and not any_interior


def _tail_indices(count):
    return range(count // 2, count)


def _aggregate_max(per, support):
    best = None
    for i in support:
        if best is None or per[i][2] > per[best][2]:
            best = i
    return best


def naive_window_rows(x, y, schedule, kind, eps=None):
    """Rows (window_len, translate, exact Fraction, boundary) per window."""
    rows = []
    for w, radius in zip(schedule.windows, schedule.translate_radius):
        n = len(w)
        dists = orbit_distances(x, y, w.lo - radius, w.hi + radius)
        if kind == "besicovitch":
            s = _window_sum(dists, w.lo, w.hi)
            rows.append((n, 0, Fraction(s, n << SCALE_BITS), False))
        elif kind == "weyl":
            s, a, boundary = _scan(lambda a, b: _window_sum(dists, a, b),
                                   w.lo, w.hi, radius, True)
            rows.append((n, a, Fraction(s, n << SCALE_BITS), boundary))
        elif kind in ("check", "hat"):
            lo, hi = w.lo - radius, w.hi + radius
            pick = max if kind == "hat" else min
            value = pick(scaled(dists[t]) for t in range(lo, hi + 1))
            pos = next(t for t in range(lo, hi + 1)
                       if scaled(dists[t]) == value)
            if hi - 1 >= lo + 1:
                inner = pick(scaled(dists[t]) for t in range(lo + 1, hi))
            else:
                inner = value
            rows.append((n, pos, Fraction(value, 1 << SCALE_BITS),
                         inner != value))
        elif kind == "banach-density":
            cut = scaled(eps)
            ind = {t: int(scaled(d) < cut) for t, d in dists.items()}
            best = best_a = None
            any_interior = False
            for a in range(-radius, radius + 1):
                c = sum(ind[t] for t in range(w.lo + a, w.hi + a + 1))
                if best is None or c < best:
                    best, best_a = c, a
                    any_interior = abs(a) < radius
                elif c == best:
                    if abs(a) < abs(best_a):
                        best_a = a
                    if abs(a) < radius:
                        any_interior = True
            rows.append((n, best_a, Fraction(best, n),
                         (radius > 0) and not any_interior))
        else:
            raise ValueError(kind)
    return rows


def linear_window_rows(x, y, schedule, kinds, eps=None):
    """naive_window_rows for each of kinds, in linear time: one orbit walk
    over the schedule's hull, plain prefix sums, and _scan's tie-break and
    boundary rules.  Fast enough for windows of 2^12 samples and more."""
    ends = [(w.lo - r, w.hi + r)
            for w, r in zip(schedule.windows, schedule.translate_radius)]
    lo, hi = min(a for a, _ in ends), max(b for _, b in ends)
    dists = orbit_distances(x, y, lo, hi)
    values = [scaled(dists[t]) for t in range(lo, hi + 1)]
    return _value_rows(values, lo, schedule, kinds, eps)


def profile_window_rows(profile, schedule, kinds, eps=None):
    """linear_window_rows over the grid values of an already built profile
    (its scaled() list) instead of an orbit walk, so that it reaches 2^16
    windows; what it checks is the scan, not the profile build."""
    return _value_rows(profile.scaled(), profile.lo, schedule, kinds, eps)


def _value_rows(values, lo, schedule, kinds, eps):
    """Rows of each kind from the grid values of samples lo, lo + 1, ..."""
    prefix = [0]
    for v in values:
        prefix.append(prefix[-1] + v)
    if eps is not None:
        cut = scaled(eps)
        counts = [0]
        for v in values:
            counts.append(counts[-1] + int(v < cut))
    out = {}
    for kind in kinds:
        rows = []
        for w, radius in zip(schedule.windows, schedule.translate_radius):
            n = len(w)
            if kind == "besicovitch":
                s = prefix[w.hi + 1 - lo] - prefix[w.lo - lo]
                rows.append((n, 0, Fraction(s, n << SCALE_BITS), False))
            elif kind in ("weyl", "banach-density"):
                sums = prefix if kind == "weyl" else counts
                s, a, boundary = _scan(
                    lambda a, b: sums[b + 1 - lo] - sums[a - lo],
                    w.lo, w.hi, radius, kind == "weyl")
                unit = n << SCALE_BITS if kind == "weyl" else n
                rows.append((n, a, Fraction(s, unit), boundary))
            else:
                pick = max if kind == "hat" else min
                seg = values[w.lo - radius - lo:w.hi + radius + 1 - lo]
                value = pick(seg)
                inner = pick(seg[1:-1]) if len(seg) > 2 else value
                rows.append((n, w.lo - radius + seg.index(value),
                             Fraction(value, 1 << SCALE_BITS),
                             inner != value))
        out[kind] = rows
    return out


def naive_estimate(x, y, schedule, kind, eps=None):
    """(value Fraction, per-window rows, boundary_warning) matching the
    estimator aggregation: tail max for the averaged kinds, global extreme
    for check/hat."""
    rows = naive_window_rows(x, y, schedule, kind, eps)
    if kind in ("besicovitch", "weyl", "banach-density"):
        support = list(_tail_indices(len(rows)))
        idx = _aggregate_max(rows, support)
    elif kind == "hat":
        support = list(range(len(rows)))
        idx = _aggregate_max(rows, support)
    else:
        support = list(range(len(rows)))
        idx = None
        for i in support:
            if idx is None or rows[i][2] < rows[idx][2]:
                idx = i
    warning = any(rows[i][3] for i in support)
    return rows[idx][2], rows, warning


# -- scalar orbit steps ------------------------------------------------------
# Verbatim copies of the per-point steps that the shells62 and interval61
# orbit walks replaced; the walks must return the same floats bit for bit.


def shell_advance(t: float, eps: float) -> float:
    return t + eps * (1.0 - math.cos(t))


def shell_advance_back(t: float, eps: float) -> float:
    """Solve s + eps*(1 - cos s) = t on [0, t]; g is nondecreasing."""
    if t == 0.0:
        return 0.0
    lo, hi = max(0.0, t - 2.0 * eps), t
    s = 0.5 * (lo + hi)
    for _ in range(80):
        f = s + eps * (1.0 - math.cos(s)) - t
        if f > 0.0:
            hi = s
        elif f < 0.0:
            lo = s
        else:
            return s
        df = 1.0 + eps * math.sin(s)
        sn = s - f / df if df > 1e-9 else 0.5 * (lo + hi)
        if not lo <= sn <= hi:
            sn = 0.5 * (lo + hi)
        if sn == s:
            return s
        s = sn
    return s


def interval_level(y: float) -> int:
    """Index L with y in [1/(L+1), 1/L]; 0 and 1 are fixed endpoints."""
    if not 0.0 <= y <= 1.0:
        raise ValueError("interval payload needs y in [0, 1]")
    if y == 0.0:
        return 0  # conventional: fixed point, never iterated
    return max(1, math.floor(1.0 / y))


def interval_step(y: float) -> float:
    if y in (0.0, 1.0):
        return y
    L = interval_level(y)
    a, b = 1.0 / (L + 1), 1.0 / L
    return y + (y - a) * (y - b)


def interval_step_back(y: float) -> float:
    """The z in [a, b] with step(z) = y, by safeguarded Newton."""
    if y in (0.0, 1.0):
        return y
    L = interval_level(y)
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


def step_walk(step, x, n):
    """The n points after x under step, one call a point."""
    out = []
    for _ in range(n):
        x = step(x)
        out.append(x)
    return out


def _walked_payloads(system_id, payload, lo, hi):
    """The points at offsets lo..hi of a shells62 or interval61 payload,
    each as an anchor at offset 0: the anchor's orbit walked once with the
    scalar steps above, from index 0 out to both ends of the range."""
    head, x0, off = payload
    a, b = off + lo, off + hi
    if system_id == "interval61":
        step, back = interval_step, interval_step_back
    elif head is None:  # the identity shell: the angle stays put
        return [payload[:2] + (0,)] * (hi - lo + 1)
    else:
        step = partial(shell_advance, eps=1.0 / head)
        back = partial(shell_advance_back, eps=1.0 / head)
    behind = max(-a, 0)
    points = step_walk(back, x0, behind)[::-1] + [x0] + step_walk(step, x0, max(b, 0))
    return [(head, points[behind + m], 0) for m in range(a, b + 1)]


def float_orbit_distances(system, p, q, lo, hi):
    """The float64 distances of the shells62 or interval61 pair (p, q) on
    [lo, hi]: system.dist on points walked by _walked_payloads, so the
    scalar metric bit for bit, without the package's orbit walks."""
    sid = system.system_id
    return np.array([system.dist(x, y) for x, y in zip(
        _walked_payloads(sid, p, lo, hi), _walked_payloads(sid, q, lo, hi))])


# -- per-sample exponent profiles ---------------------------------------------
# Verbatim copies of the subshift profile build (one int64 exponent per
# sample), its runs view and its 'exp2' extremes, which disagreement spans
# replaced; a spans profile's pieces must expand to the same samples and
# prefix sums, and its counts and extremes must be the same.

INF_EXP = 1 << 30
_PAD = SCALE_BITS + 2


def exponent_grid(e: int) -> int:
    """2^-e on the 2^-1074 grid, 0 beyond it."""
    if e >= INF_EXP or e > SCALE_BITS:
        return 0
    return 1 << (SCALE_BITS - e)


def letter_exponents(a, b, lo, hi):
    """Exponents of the samples t in [lo, hi] from the letters a and b of
    two points on [lo - _PAD, hi + _PAD]: the distance from t to the
    nearest disagreement there, INF_EXP with none."""
    disagree = np.nonzero(a != b)[0].astype(np.int64)
    ts = np.arange(hi - lo + 1, dtype=np.int64) + _PAD
    if disagree.size == 0:
        return np.full(ts.size, INF_EXP, dtype=np.int64)
    idx = np.searchsorted(disagree, ts)
    left = np.where(
        idx > 0, ts - disagree[np.maximum(idx - 1, 0)], np.int64(INF_EXP)
    )
    right = np.where(
        idx < disagree.size,
        disagree[np.minimum(idx, disagree.size - 1)] - ts,
        np.int64(INF_EXP),
    )
    return np.minimum(np.minimum(left, right), np.int64(INF_EXP))


def span_profile(lo, hi, pos, lengths):
    """(profile, exps): the 'exp2' profile on [lo, hi] of the disagreements
    laid out by lengths, (gap, span) pairs from the sample index pos on,
    each span clipped to the padding a subshift build sees, and
    letter_exponents of the same disagreements."""
    n = hi - lo + 1
    mask = np.zeros(n + 2 * _PAD, np.uint8)
    starts, ends = [], []
    for gap, span in lengths:
        start = max(pos + gap, -_PAD)
        end = min(start + span, n + _PAD)
        if start >= end:
            break
        starts.append(start)
        ends.append(end)
        mask[start + _PAD:end + _PAD] = 1
        pos = end
    return (DistanceProfile.from_spans(lo, hi, starts, ends),
            letter_exponents(np.zeros_like(mask), mask, lo, hi))


def pair_exponents(system, p, q, lo, hi):
    """letter_exponents of the pair's letters, read through coords."""
    return letter_exponents(system.coords(p, lo - _PAD, hi + _PAD),
                            system.coords(q, lo - _PAD, hi + _PAD), lo, hi)


def exponent_runs(exps):
    """(starts, values, sums) of DistanceProfile.runs, from the exponents."""
    keys = np.minimum(exps, SCALE_BITS + 1)  # equal on the grid
    n = len(exps)
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    values = keys[starts]
    distinct, index = np.unique(values, return_inverse=True)
    values = np.array([exponent_grid(e) for e in distinct.tolist()],
                      dtype=object)[index]
    starts = np.append(starts, n)
    sums = np.concatenate(([0], np.cumsum(values * np.diff(starts))))
    return starts, np.append(values, 0), sums


def exponent_below_counts(exps, eps):
    """Prefix counts of the samples whose grid value is below scaled(eps)."""
    cut = scaled(eps)
    below = np.array([exponent_grid(e) < cut for e in range(SCALE_BITS + 2)])
    return np.concatenate(([0], np.cumsum(below[np.minimum(exps, SCALE_BITS + 1)])))


def exponent_extremes(exps, lo, a, b):
    """DistanceProfile.extremes(a, b) of the exponents exps of [lo, ...]."""
    i, j = a - lo, b - lo + 1
    seg = np.minimum(exps[i:j], INF_EXP)  # larger exponent = smaller value
    kmax = int(np.argmax(seg))
    kmin = int(np.argmin(seg))
    return (
        exponent_grid(int(seg[kmax])), a + kmax,
        exponent_grid(int(seg[kmin])), a + kmin,
    )


# -- pieces, expanded per sample ---------------------------------------------
# A pieces view written back out one sample at a time, to be compared with
# per-sample values such as the exponents above.


def piece_keys(pieces, n):
    """Every int64 key of the n samples of a pieces view (starts, values,
    sums, keys, slopes), from its piece's first key and slope."""
    starts, _, _, keys, slopes = pieces
    t = np.arange(n)
    k = np.searchsorted(starts[1:], t, "right")
    return keys[k] + slopes[k] * (t - starts[k])


def piece_prefix(pieces, t):
    """The exact sums of the samples before the indices t (0 .. n) of a
    pieces view, as Python ints: the sum before t's piece plus the closed
    form of the piece's samples before t (profiles._piece_sums)."""
    starts, values, sums, keys, slopes = pieces
    t = np.asarray(t, np.int64)
    k = np.searchsorted(starts[1:], t, "right")
    inside = np.flatnonzero(t > starts[k])
    prefix = sums[k]
    j = k[inside]
    prefix[inside] += _piece_sums(values[j], keys[j], slopes[j],
                                  t[inside] - starts[j])
    return prefix.tolist()


def assert_pieces_match_exponents(prof, exps):
    """prof's pieces against the per-sample exponents exps: every sample's
    key is its negated exponent capped at SCALE_BITS + 1, each piece's
    value is its first sample's, the prefix sums at every run start of the
    samples (every sample of a ramp) and at the end are exact, the pieces
    are maximal lines and there are no more of them than runs."""
    starts, values, _, keys, slopes = pieces = prof.pieces()
    capped = np.minimum(exps, SCALE_BITS + 1)
    assert piece_keys(pieces, len(prof)).tolist() == (-capped).tolist()
    assert values.tolist() == [exponent_grid(e) for e in
                               capped[starts[:-1]].tolist()] + [0]
    run_starts, _, run_sums = exponent_runs(exps)
    assert piece_prefix(pieces, run_starts) == run_sums.tolist()
    assert set(slopes.tolist()) <= {-1, 0, 1} and slopes[-1] == 0
    assert (np.diff(starts) > 0).all() and starts[0] == 0
    # no piece goes on the line of the one before it
    assert ((slopes[1:-1] != slopes[:-2]) | (keys[1:-1] - keys[:-2]
            != slopes[:-2] * np.diff(starts[:-1]))).all()
    assert len(starts) <= len(run_starts)  # at most one piece a run


# -- all-breakpoint scans -----------------------------------------------------
# Copies of the run scan that evaluated every breakpoint, the banach-density
# scan over int64 prefix counts of all 2M + 1 translates, the
# DistanceProfile.below_counts that fed it, and their shared tie-break; the
# pruned piece scan must give the same translate, sum and boundary flag.
# The scan and the counts read a runs view (starts, values, sums) given to
# them, an 'exp2' profile's from its per-sample exponents (exponent_runs),
# never a profile's pieces.


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
    """Window scan over the runs (starts, values, sums) of samples whose
    first is at base.  The prefix sum P is affine inside a run, so S(a) =
    P(u + a) - P(l + a) is affine between breakpoints, where either window
    edge crosses a run start: S is evaluated only there and at a = -M, M."""
    starts, values, sums = runs

    def prefix_at(i):
        k = np.searchsorted(starts, i, "right") - 1
        return sums[k] + (i - starts[k]).astype(object) * values[k]

    def knots(edge, M):
        i, j = np.searchsorted(starts, (edge - M, edge + M + 1))
        return starts[i:j] - edge

    def scan(wlo, whi, M):
        l, u = wlo - base, whi - base + 1
        # the two sorted knot lists merge in linear time under a stable sort
        cand = np.sort(np.concatenate(([-M], knots(l, M), knots(u, M), [M])),
                       kind="stable")
        cand = cand[np.concatenate(([True], cand[1:] != cand[:-1]))]
        sums = prefix_at(u + cand) - prefix_at(l + cand)
        best = sums.max()
        return (int(best), *_best(cand, sums == best, M))

    return scan


def _count_scan(counts, base):
    """Window scan of banach-density over int64 prefix counts: the counts of
    all 2M + 1 translates are one slice difference."""
    def scan(wlo, whi, M):
        l, u = wlo - base, whi - base + 1
        below = counts[u - M:u + M + 1] - counts[l - M:l + M + 1]
        best = below.min()
        return (int(best), *_best(np.arange(-M, M + 1), below == best, M))

    return scan


def below_counts(samples, eps):
    """indicator_prefix(scaled_from_float(eps)) as an int64 array, of a
    float profile's float64 samples or of a runs view (starts, values,
    sums).  Float samples compare with eps as doubles, which is exact
    because both sides are doubles; runs compare each run's grid value.
    The flags are written into the result and summed in place there."""
    if isinstance(samples, np.ndarray):
        out = np.zeros(len(samples) + 1, np.int64)
        np.less(samples, eps, out=out[1:])
    else:
        starts, values, _ = samples
        out = np.zeros(starts[-1] + 1, np.int64)
        out[1:] = np.repeat(values[:-1] < scaled(eps), np.diff(starts))
    np.cumsum(out[1:], out=out[1:])
    return out


def below_prefix(flag_runs):
    """Prefix counts of the samples below eps, expanded from the runs
    (starts, values, ...) of the 0/1 flags of the samples at or above it."""
    starts, values = flag_runs[:2]
    flags = np.repeat(values[:-1], np.diff(starts))
    return np.concatenate(([0], np.cumsum(1 - flags)))


def coords_dist(system, p, q):
    """SymbolicSystem.dist, from the letters on [-SCALE_BITS, SCALE_BITS]."""
    if p == q:
        return 0.0
    a = system.coords(p, -SCALE_BITS, SCALE_BITS)
    b = system.coords(q, -SCALE_BITS, SCALE_BITS)
    diff = np.nonzero(a != b)[0]
    if diff.size == 0:
        # distinct points agreeing out to the grid depth: below float
        # resolution either way
        return 0.0
    k = int(np.min(np.abs(diff - SCALE_BITS)))
    return 2.0 ** (-k)


# -- full-length limbs ---------------------------------------------------------
# A verbatim copy of DistanceProfile.limbs as it was before the limbs were
# built a block of samples at a time: one sig, pos and shift row over the
# whole profile.  The block build must give the same digits, prefix sums,
# width and lowest bit.


def limbs(profile):
    """DistanceProfile.limbs of a 'float' profile, built on full-length rows."""
    # a double is sig * 2^(pos - SCALE_BITS) with sig < 2^53; -0.0 is 0.
    # Besides the limbs, sig, pos and one shift row are the only
    # per-sample buffers (18 bytes a sample); numpy writes into them.
    sig = profile.floats.view(np.uint64) & np.uint64(2**63 - 1)
    pos = (sig >> np.uint64(52)).astype(np.int16)  # the biased exponent
    np.bitwise_and(sig, np.uint64(2**52 - 1), out=sig)
    np.bitwise_or(sig, np.uint64(2**52), out=sig, where=pos > 0)
    np.maximum(np.subtract(pos, 1, out=pos), 0, out=pos)
    n, w = len(profile), limb_bits(len(profile))
    low = width = 0
    if sig.any():
        lowest = np.frexp((sig & (~sig + np.uint64(1))).astype(np.float64))[1]
        low = int((pos + lowest - 1)[sig != 0].min())
        width = int(np.frexp(profile.floats.max())[1]) + SCALE_BITS - low
        del lowest  # before the limbs are built
    shift = np.empty(n, np.int64)
    cums = []
    for k in range(max(1, -(-width // w))):
        cum = np.zeros(n + 1, np.int64)  # digits of limb k, then their prefix sums
        digit = cum[1:].view(np.uint64)
        # where bit 0 of sig lands in limb k
        rel = np.subtract(pos, low + w * k, out=shift, dtype=np.int64)
        np.clip(rel, 0, 63, out=cum[1:])
        np.left_shift(sig, digit, out=digit)
        np.clip(np.negative(rel, out=rel), 0, 63, out=rel)
        np.right_shift(digit, rel.view(np.uint64), out=digit)
        np.bitwise_and(digit, np.uint64(2**w - 1), out=digit)
        np.cumsum(cum[1:], out=cum[1:])
        cums.append(cum)
    return cums, w, low
