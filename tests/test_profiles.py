import tracemalloc
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from weylab import profiles
from weylab.core import Point, dyadic_schedule, get_system
from weylab.estimators import pair_profile
from weylab.profiles import (_GRID, INF_EXP, SCALE, SCALE_BITS,
                             DistanceProfile, limb_bits, scaled_from_exponent,
                             scaled_from_float)
from weylab.systems.thuemorse import ThueMorseSystem

import _reference
from _reference import (_PAD, assert_pieces_match_exponents, below_prefix,
                        exponent_below_counts, exponent_extremes,
                        exponent_runs, letter_exponents, pair_exponents,
                        piece_keys, piece_prefix, span_profile)

finite_dists = st.floats(min_value=0.0, max_value=4.0, allow_nan=False)


@given(finite_dists)
def test_scaled_from_float_is_exact(v):
    assert Fraction(scaled_from_float(v), SCALE) == Fraction(v)


def test_scaled_rejects_negative():
    with pytest.raises(ValueError):
        scaled_from_float(-1e-9)


def test_scaled_from_exponent_matches_float_route():
    for e in (0, 1, 7, 52, 1000, 1074):
        assert scaled_from_exponent(e) == scaled_from_float(2.0 ** -e)
    assert scaled_from_exponent(1075) == 0  # below the grid
    assert scaled_from_exponent(SCALE_BITS) == 1


@given(finite_dists)
def test_float_roundtrip(v):
    assert float(Fraction(scaled_from_float(v), SCALE)) == v


@given(st.lists(finite_dists, min_size=1, max_size=40),
       st.integers(min_value=-50, max_value=50))
def test_range_sum_matches_bruteforce(values, lo):
    prof = DistanceProfile.from_floats(lo, np.array(values))
    scaled = [scaled_from_float(v) for v in values]
    assert prof.scaled() == scaled
    # every range sum [a, b] is prefix[b + 1 - lo] - prefix[a - lo]
    assert prof.prefix() == list(accumulate(scaled, initial=0))


@given(st.lists(finite_dists, min_size=1, max_size=40))
def test_extremes_match_bruteforce(values):
    lo = -3
    prof = DistanceProfile.from_floats(lo, np.array(values))
    hi = lo + len(values) - 1
    smin, tmin, smax, tmax = prof.extremes(lo, hi)
    scaled = [scaled_from_float(v) for v in values]
    assert smin == min(scaled)
    assert smax == max(scaled)
    assert tmin == lo + scaled.index(min(scaled))  # smallest position wins
    assert tmax == lo + scaled.index(max(scaled))


@pytest.mark.xfail(strict=True, reason=(
    "exp2 extremes break ties between samples below the grid by exponent, "
    "not by smallest t; mending it moves the bytes of check series"))
def test_exponent_extremes_tie_below_the_grid_at_smallest_t():
    # one disagreement at 0: every sample in [1100, 1300], 2^-1100 to
    # 2^-1300, floors to 0 on the 2^-1074 grid
    prof = DistanceProfile.from_spans(0, 2999, [0], [1])
    assert prof.extremes(1100, 1300)[:2] == (0, 1100)


@given(st.lists(finite_dists, min_size=1, max_size=40), finite_dists)
def test_indicator_prefix_counts_strictly_below(values, eps):
    lo = 0
    prof = DistanceProfile.from_floats(lo, np.array(values))
    cut = scaled_from_float(eps)
    pref = prof.indicator_prefix(cut)
    naive = 0
    for i, v in enumerate(values):
        naive += int(scaled_from_float(v) < cut)
        assert pref[i + 1] - pref[0] == naive


def test_constant_profile_and_plus():
    a = DistanceProfile.constant(-2, 2, scaled_from_float(0.25))
    b = DistanceProfile.from_floats(-2, np.array([0.0, 1.0, 0.5, 0.25, 2.0]))
    c = a.plus(b)
    assert a.scaled() == [scaled_from_float(0.25)] * 5
    assert c.scaled() == [x + y for x, y in zip(a.scaled(), b.scaled())]
    assert c.prefix()[-1] == a.prefix()[-1] + b.prefix()[-1]
    assert c.scaled()[2] == scaled_from_float(0.75)
    with pytest.raises(ValueError):
        a.plus(DistanceProfile.constant(-1, 3, 1))


@st.composite
def _run_profiles(draw, lo, n):
    """A profile on [lo, lo + n - 1] of each kind: grid integers, a
    constant, disagreement spans or floats."""
    kind = draw(st.sampled_from(["scaled", "constant", "exp2", "float"]))
    if kind == "scaled":
        return DistanceProfile.from_scaled(lo, draw(st.lists(
            st.sampled_from([0, 1, 3, SCALE >> 2, SCALE]), min_size=n, max_size=n)))
    if kind == "constant":
        return DistanceProfile.constant(lo, lo + n - 1,
                                        draw(st.sampled_from([0, 1, SCALE])))
    if kind == "float":
        return DistanceProfile.from_floats(lo, np.array(draw(st.lists(
            st.sampled_from([0.0, 5e-324, 0.25, 1.0]), min_size=n, max_size=n))))
    edges = sorted(draw(st.sets(st.integers(-3, n + 3), max_size=8)))
    edges = edges[:len(edges) // 2 * 2]
    return DistanceProfile.from_spans(lo, lo + n - 1, edges[0::2], edges[1::2])


@given(st.integers(min_value=1, max_value=40), st.integers(-5, 5), st.data())
def test_plus_matches_per_sample_sum(n, lo, data):
    a, b = (data.draw(_run_profiles(lo, n)) for _ in "ab")
    total = a.plus(b)
    assert (total.lo, total.hi, total.kind) == (lo, lo + n - 1, "scaled")
    assert total.scaled() == [x + y for x, y in zip(a.scaled(), b.scaled())]
    starts, values, sums, _, slopes = total.pieces()
    assert not slopes.any()  # its pieces are its runs
    assert all(x != y for x, y in zip(values[:-2], values[1:-1]))  # maximal
    prefix = total.prefix()
    assert sums.tolist() == [prefix[i] for i in starts]


def test_exponent_profile_is_exact_powers():
    values = DistanceProfile.from_spans(0, 2000, [0], [1]).scaled()
    # 2^-t at t; 2^-1075 and beyond underflow the grid to exact zero
    assert [values[t] for t in (0, 3, 1074, 1075, 2000)] == [SCALE, SCALE >> 3, 1, 0, 0]


def _nearest_disagreement(spans, t):
    """Distance from t to the nearest position of the spans, INF_EXP with
    none, written out per sample."""
    return min((max(s - t, t - (e - 1), 0) for s, e in spans), default=INF_EXP)


@pytest.mark.parametrize("spans", [[], [(0, 1)], [(-1100, -1099)],
                                   [(5, 9), (2200, 2201)], [(-3, 2500)],
                                   [(-1076, -1075), (1, 2), (3, 4), (2600, 2700)]])
def test_exponent_profile_scaled_list_matches_per_sample_values(spans):
    lo, hi = -2, 2500
    prof = DistanceProfile.from_spans(lo, hi, [s - lo for s, _ in spans],
                                      [e - lo for _, e in spans])
    assert prof.scaled() == [scaled_from_exponent(_nearest_disagreement(spans, t))
                             for t in range(lo, hi + 1)]


# thresholds and samples that tie: eps itself, subnormals, the smallest
# normal double and 0
_TIES = st.sampled_from([0.0, 5e-324, 1e-310, 2.2250738585072014e-308,
                         0.125, 0.25, 0.3, 1.0])
_EXPONENTS = st.sampled_from([-1, 0, 1, 2, 3, 1073, 1074, 1075, 1100,
                              INF_EXP])


def _flag_counts(prof, eps):
    """Prefix counts of the samples below eps, from prof.flag_runs(eps),
    after checking that it is a runs view: maximal runs of 0/1 flags, as
    int64 values with exact sums at run starts, keyed by the flags and
    flat."""
    starts, values, sums, keys, slopes = runs = prof.flag_runs(eps)
    assert keys.tolist() == values.tolist() and not slopes.any()
    assert starts[0] == 0 and starts[-1] == len(prof)
    assert (np.diff(starts) > 0).all()
    assert values.dtype == sums.dtype == np.int64
    assert set(values[:-1].tolist()) <= {0, 1} and values[-1] == 0
    assert (values[1:-1] != values[:-2]).all()  # maximal
    assert sums.tolist() == [0] + np.cumsum(
        values[:-1] * np.diff(starts)).tolist()
    return below_prefix(runs).tolist()


@given(st.lists(_TIES, min_size=1, max_size=30), _TIES.filter(bool))
def test_flag_runs_match_indicator_prefix_on_floats(values, eps):
    prof = DistanceProfile.from_floats(-4, np.array(values))
    assert _flag_counts(prof, eps) \
        == prof.indicator_prefix(scaled_from_float(eps))


@given(st.lists(_EXPONENTS, min_size=1, max_size=30), _TIES.filter(bool))
def test_flag_runs_match_indicator_prefix_on_exponents(exps, eps):
    values = [scaled_from_exponent(e) for e in exps]
    prof = DistanceProfile.from_scaled(7, values)
    cut = scaled_from_float(eps)
    assert _flag_counts(prof, eps) == prof.indicator_prefix(cut)
    assert prof.indicator_prefix(cut) == list(accumulate(
        (int(v < cut) for v in values), initial=0))


#: gap and span lengths around the ramps of a gap (1074 samples each way)
#: and its plateau of zeros
_SPAN_LENGTHS = st.sampled_from([1, 2, 3, 4, 1073, 1074, 1075, 1076,
                                 2148, 2149, 2150, 2151, 2152, 2500])


@st.composite
def _span_profiles(draw):
    """(profile, exps): a spans profile on a drawn range, and the per-sample
    exponents letter_exponents gives for the same disagreements.  The
    spans reach into the padding that a subshift build sees."""
    n = draw(st.integers(min_value=1, max_value=3000))
    lo = draw(st.integers(min_value=-20, max_value=20))
    # the end of a span before the first, which may clip to the padding
    pos = draw(st.integers(min_value=-3 * _PAD, max_value=n + _PAD))
    return span_profile(lo, lo + n - 1, pos, draw(st.lists(
        st.tuples(_SPAN_LENGTHS, _SPAN_LENGTHS), max_size=6)))


@given(_span_profiles(), st.data())
def test_span_profiles_match_per_sample_exponents(case, data):
    prof, exps = case
    assert_pieces_match_exponents(prof, exps)
    for eps in (0.25, 0.3, 1.0, 5e-324):
        assert _flag_counts(prof, eps) \
            == exponent_below_counts(exps, eps).tolist()
    windows = [(prof.lo, prof.hi)] + [
        tuple(sorted(data.draw(st.integers(prof.lo, prof.hi)) for _ in "ab"))
        for _ in range(8)]
    want = [exponent_extremes(exps, prof.lo, a, b) for a, b in windows]
    for (a, b), row in zip(windows, want):
        assert prof.extremes(a, b) == row
    # one call over every range gives the same rows
    assert list(zip(*prof.extremes(*zip(*windows)))) == want


# gaps of 1 to 4 samples, exponents 1; 1, 1; 1, 2, 1 and 1, 2, 2, 1, and
# a range of the two equal middle samples of a gap of 6 alone: a
# one-sample piece is flat and joins an equal neighbour, so no gap has
# more pieces than runs
@pytest.mark.parametrize("lo,hi,pos,lengths", [
    (0, 40, 0, [(10, 1), (1, 1), (2, 1), (3, 2), (4, 1)]),
    (7, 8, -4, [(1, 1), (6, 1)])])
def test_short_gap_pieces_match_per_sample_exponents(lo, hi, pos, lengths):
    assert_pieces_match_exponents(*span_profile(lo, hi, pos, lengths))


#: thresholds at 2^-k and the doubles either side of it (down to 0, which
#: every sample reaches, below the least double 2^-1074) and above 1
_DILATION_EPS = [eps for k in (0, 1, 2, 3, 20, 1073, 1074)
                 for eps in (2.0 ** -k, float(np.nextafter(2.0 ** -k, 0.0)),
                             float(np.nextafter(2.0 ** -k, 2.0)))] + [1.5, 2.0, 1e300]


@given(_span_profiles(), st.sampled_from(_DILATION_EPS))
# dilated by 2, the spans 10 and 14 overlap and 14 and 19 meet
@example(span_profile(0, 40, 0, [(10, 1), (3, 1), (4, 1)]), 0.25)
# dilated by 3, the spans -2 and 42, beyond both ends, reach into 0 .. 40
@example(span_profile(0, 40, -3, [(1, 1), (43, 1)]), 0.125)
@settings(deadline=None)
def test_exponent_flag_runs_are_the_dilated_spans(case, eps):
    prof, exps = case
    assert _flag_counts(prof, eps) \
        == exponent_below_counts(exps, eps).tolist()


def test_span_extremes_match_reference_on_every_window():
    # disagreements 10 and 8 apart, a block and one more: exponents tie
    # across windows, e.g. 4 at t = 6 (falling) and at the next gap's apex
    # t = 14, and the two ends of a window inside one gap
    lo, hi = -5, 40
    mask = np.zeros(hi - lo + 1 + 2 * _PAD, np.uint8)
    for t in (0, 10, 18, 19, 20, 30):
        mask[t - lo + _PAD] = 1
    edges = np.flatnonzero(np.diff(np.concatenate(([0], mask, [0])))) - _PAD
    prof = DistanceProfile.from_spans(lo, hi, edges[0::2], edges[1::2])
    exps = letter_exponents(np.zeros_like(mask), mask, lo, hi)
    windows = [(a, b) for a in range(lo, hi + 1) for b in range(a, hi + 1)]
    want = [exponent_extremes(exps, lo, a, b) for a, b in windows]
    for (a, b), row in zip(windows, want):
        assert prof.extremes(a, b) == row, (a, b)
    assert list(zip(*prof.extremes(*zip(*windows)))) == want


@given(st.lists(st.tuples(_EXPONENTS, st.integers(min_value=1, max_value=4)),
                min_size=1, max_size=10), _span_profiles())
def test_pieces_rebuild_samples_and_prefix(runs, spans):
    exps = [e for e, n in runs for _ in range(n)]
    scaled = [scaled_from_exponent(e) for e in exps]
    for prof, want in ((spans[0], spans[0].scaled()),
                       (DistanceProfile.from_scaled(0, scaled), scaled)):
        starts, values, sums, _, slopes = pieces = prof.pieces()
        assert starts[0] == 0 and starts[-1] == len(prof)
        assert values[-1] == 0 and slopes[-1] == 0
        assert (np.diff(starts) > 0).all()
        if prof.kind == "exp2":  # keyed by the negated exponent
            assert [_GRID[-k] for k in piece_keys(pieces, len(prof)).tolist()] \
                == want
        else:  # flat runs
            assert not slopes.any()
            assert all(a != b for a, b in zip(values[:-2], values[1:-1]))
            assert np.repeat(values[:-1], np.diff(starts)).tolist() == want
        prefix = piece_prefix(pieces, np.arange(len(prof) + 1))
        assert prefix == list(accumulate(want, initial=0))
        assert sums.tolist() == [prefix[i] for i in starts]


@given(st.lists(st.sampled_from([0, 1, 2, 3, SCALE, SCALE + 1, 3 * SCALE]),
                min_size=1, max_size=30), st.data())
def test_scaled_extremes_match_list_at_first_t(values, data):
    lo = -5
    hi = lo + len(values) - 1
    a = data.draw(st.integers(min_value=lo, max_value=hi))
    b = data.draw(st.integers(min_value=a, max_value=hi))
    seg = values[a - lo:b + 1 - lo]
    assert DistanceProfile.from_scaled(lo, values).extremes(a, b) \
        == (min(seg), a + seg.index(min(seg)), max(seg), a + seg.index(max(seg)))


def _assert_keys_order_values(values, keys):
    """keys holds an int64 per entry of values, the closing 0 included, and
    every two entries compare by key as they do by value."""
    assert len(keys) == len(values)
    # neighbours in value order compare alike, so every pair does
    pairs = sorted(zip(list(values), list(keys)))
    assert all((v < w, v == w) == (k < m, k == m)
               for (v, k), (w, m) in zip(pairs, pairs[1:]))


def _assert_sample_keys_order_values(prof):
    """Every two samples of an 'exp2' profile compare by their keys, read
    off its pieces, as they do by value."""
    keys = piece_keys(prof.pieces(), len(prof))
    _assert_keys_order_values(prof.scaled(), keys.tolist())


@given(_span_profiles())
@settings(deadline=None)
def test_exponent_run_keys_order_as_values(case):
    _assert_sample_keys_order_values(case[0])


@pytest.mark.parametrize("spans", [[(0, 1)], [(-1100, -1099), (2990, 2991)],
                                   [(5, 9), (2200, 2201)]])
def test_exponent_run_keys_order_as_values_beyond_the_grid(spans):
    # gaps wide enough that exponents 1074, 1075 and beyond all occur
    prof = DistanceProfile.from_spans(0, 2999, [s for s, _ in spans],
                                      [e for _, e in spans])
    assert {1, 0} <= set(prof.scaled())  # 2^-1074 and 2^-1075 or beyond
    _assert_sample_keys_order_values(prof)


@given(st.lists(st.sampled_from([0, 0, 1, 2, 3, SCALE, SCALE + 1, 3 * SCALE]),
                min_size=1, max_size=30), _TIES.filter(bool))
@settings(deadline=None)
def test_scaled_and_flag_run_keys_order_as_values(values, eps):
    for prof in (DistanceProfile.from_scaled(-3, values),
                 DistanceProfile.constant(0, 9, values[0])):
        for view in (prof.pieces(), prof.flag_runs(eps)):  # flags key themselves
            _, values_, _, keys, slopes = view
            assert keys.dtype == np.int64 and not slopes.any()
            _assert_keys_order_values(values_.tolist(), keys.tolist())


def test_grid_table_holds_every_power_of_two_on_the_grid():
    assert len(_GRID) == SCALE_BITS + 2
    assert all(_GRID[e] == scaled_from_float(2.0 ** -e)
               for e in range(SCALE_BITS + 2))
    assert [scaled_from_exponent(e) for e in (1075, 1100, INF_EXP)] == [0] * 3


def _traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_constant_profile_holds_one_run():
    n = 1 << 20
    (starts, values, sums, keys, slopes), peak = _traced_peak(
        lambda: DistanceProfile.constant(0, n - 1, SCALE >> 3).pieces())
    assert slopes.tolist() == [0, 0] and keys[0] > keys[1]
    assert starts.tolist() == [0, n]
    assert values.tolist() == [SCALE >> 3, 0]
    assert sums.tolist() == [0, n * (SCALE >> 3)]
    assert peak < 4096, peak


#: tracemalloc peak of flag_runs on an 'exp2' profile, in bytes per run of
#: the profile: the fibre below peaks at 1.2 (2591 bytes), the flag runs
#: of its one span dilated, built from the spans alone; one byte a run
#: would add 1, one byte a sample 122 (2151 runs in 262,145 samples)
FLAG_RUNS_BYTES_PER_RUN = 4


def test_flag_runs_are_bounded_by_the_run_count():
    schedule = dyadic_schedule(8, 16)
    x, y = (Point("toeplitz", get_system("toeplitz").parse_point(
        "addr=int:7 flag=%s" % flag)) for flag in ("plain", "primed"))
    lo, hi = schedule.hull_range()
    prof = pair_profile(x, y, lo, hi)
    assert prof.kind == "exp2"
    runs = len(exponent_runs(pair_exponents(
        x.system(), x.payload, y.payload, lo, hi))[0]) - 1
    assert runs == 2151
    flags, peak = _traced_peak(lambda: prof.flag_runs(2.0 ** -20))
    assert below_prefix(flags).tolist() \
        == prof.indicator_prefix(scaled_from_float(2.0 ** -20))
    assert peak / runs < FLAG_RUNS_BYTES_PER_RUN, peak


#: tracemalloc bound on building a Toeplitz fibre profile and its pieces at
#: dyadic_schedule(8, 16), 262,145 samples: about 5 KB is measured, its 5
#: pieces and their sums; a table of its 2151 runs would hold about 0.6 MB
#: of big integers, and a per-sample int64 array 2 MB
FIBRE_BUILD_PEAK_BYTES = 1 << 15


def test_fibre_profile_build_holds_no_per_sample_array():
    schedule = dyadic_schedule(8, 16)
    x, y = (Point("toeplitz", get_system("toeplitz").parse_point(
        "addr=int:7 flag=%s" % flag)) for flag in ("plain", "primed"))
    (starts, *_), peak = _traced_peak(
        lambda: pair_profile(x, y, *schedule.hull_range()).pieces())
    # zeros, the ramp down, the span, the ramp up, zeros; the closing entry
    assert len(starts) == 6
    assert peak < FIBRE_BUILD_PEAK_BYTES, peak


# same-address Thue-Morse pairs: a left half-line, its complement, and the
# whole line (the parity complement)
_TM_FIBRE_PAIRS = [("flag=plain bit=0", "flag=primed bit=0"),
                   ("flag=plain bit=0", "flag=primed bit=1"),
                   ("flag=plain bit=0", "flag=plain bit=1")]


@pytest.mark.parametrize("a,b", _TM_FIBRE_PAIRS)
def test_thuemorse_fibre_profile_build_holds_no_per_sample_array(a, b):
    schedule = dyadic_schedule(8, 16)
    x, y = (Point("thuemorse", get_system("thuemorse").parse_point(
        "addr=int:7 " + rest)) for rest in (a, b))
    _, peak = _traced_peak(
        lambda: pair_profile(x, y, *schedule.hull_range()).pieces())
    assert peak < FIBRE_BUILD_PEAK_BYTES, peak


def test_same_address_thuemorse_pairs_write_no_letters(monkeypatch):
    def no_letters(self, payload, lo, hi):
        raise AssertionError("letters written for a same-address pair")

    monkeypatch.setattr(ThueMorseSystem, "coords", no_letters)
    system = get_system("thuemorse")
    lo, hi = dyadic_schedule(4, 10).hull_range()
    # the half-line pair differs from the slot -addr outwards; off the
    # integers the flag is canonicalized away, so that pair is diagonal
    for addr, half_line in (("int:-5", 2.0 ** -6), ("int:0", 0.5),
                            ("int:3", 2.0 ** -3), ("frac:1/3", 0.0)):
        for (a, b), want in zip(_TM_FIBRE_PAIRS, (half_line, 1.0, 1.0)):
            p, q = (system.parse_point("addr=%s %s" % (addr, rest))
                    for rest in (a, b))
            pair_profile(Point("thuemorse", p), Point("thuemorse", q),
                         lo, hi).pieces()
            assert system.dist(p, q) == want, (addr, a, b)


def test_float_profiles_have_no_runs_view():
    # nor pieces: they are scanned on limbs
    with pytest.raises(ValueError):
        DistanceProfile.from_floats(0, np.array([0.5, 0.5])).pieces()


@pytest.mark.parametrize("n", [1 << 16, 1 << 22, 1 << 26])
def test_limb_width_leaves_int64_headroom(n):
    w = limb_bits(n)
    # a window's limb sum, plus a carry of at most n from the limb below
    assert n * ((1 << w) - 1) + n < 1 << 63
    assert n << (w + 1) > 1 << 62  # and no narrower than that needs


@given(st.lists(st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 2.0 ** -1000,
                                 0.3, 3.0, 1e300, 1.7976931348623157e308]),
                min_size=1, max_size=40))
def test_limbs_rebuild_grid_integers(values):
    prof = DistanceProfile.from_floats(0, np.array(values))
    cums, w, low = prof.limbs()
    assert w == limb_bits(len(values))
    rebuilt = [sum(int(c[i + 1] - c[i]) << (w * k + low)
                   for k, c in enumerate(cums)) for i in range(len(values))]
    assert rebuilt == [scaled_from_float(abs(v)) for v in values]
    assert all(0 <= c[i + 1] - c[i] < 1 << w
               for c in cums for i in range(len(values)))


@pytest.mark.parametrize("bad", [-1e-9, float("inf"), float("nan")])
def test_float_profiles_reject_negative_and_non_finite_samples(bad):
    with pytest.raises(ValueError):
        DistanceProfile.from_floats(0, np.array([0.5, bad]))
    for at in (0, 777, (1 << 12) - 1):  # anywhere in a longer profile
        values = np.full(1 << 12, 0.5)
        values[at] = bad
        with pytest.raises(ValueError):
            DistanceProfile.from_floats(0, values)


def test_float_profile_validation_allocates_no_per_sample_buffer():
    values = np.full(1 << 16, 0.5)
    values[0] = -0.0  # nonnegative
    tracemalloc.start()
    try:
        DistanceProfile.from_floats(0, values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 12, peak  # one bool per sample would be 1 << 16


def _wide_floats(n, seed):
    """n seeded doubles from 0 and 5e-324 up to 1e300, ties included."""
    rng = np.random.default_rng(seed)
    values = rng.random(n) * 2.0 ** rng.integers(-1074, 997, n)
    values[rng.integers(0, n, n // 8)] = 0.0
    values[rng.integers(0, n, n // 8)] = 0.25
    return values


# the block build of the limbs against the full-length one it replaced, digit
# for digit: seeded wide floats and a shell pair's samples, whole and split
# into blocks that leave a partial one
@pytest.mark.parametrize("n,block", [
    (n, block) for n in (1 << 12, (1 << 14) + 3, 1 << 16)
    for block in (profiles.BLOCK, 4093) + ((7,) if n == 1 << 12 else ())])
def test_block_limbs_match_full_length_build(n, block, monkeypatch):
    monkeypatch.setattr(profiles, "BLOCK", block)
    shell = get_system("shells62").pair_profile(
        (1, 0.3, 0), (1, 4.0, 0), -(n // 2), n - n // 2 - 1).floats
    for values in (_wide_floats(n, n), shell, np.zeros(n), np.full(n, 5e-324)):
        got, want = (DistanceProfile.from_floats(0, values).limbs(),
                     _reference.limbs(DistanceProfile.from_floats(0, values)))
        assert got[1:] == want[1:]
        assert len(got[0]) == len(want[0])
        for c, d in zip(got[0], want[0]):
            assert np.array_equal(c, d)


def _shell_pair_profile():
    """A cold-built shell pair's float profile over dyadic_schedule(13, 16)'s
    hull, 262,145 samples."""
    x, y = (Point("shells62", (2, t, 0)) for t in (0.5 * np.pi, np.pi))
    return pair_profile(x, y, *dyadic_schedule(13, 16).hull_range())


# the block search for flag run starts against the full-length compare it
# replaced: a shell pair's samples at thresholds between, at and beyond
# them, and seeded samples from three values whose many runs cross the
# block edges, at blocks that leave a partial one
@pytest.mark.parametrize("block", [profiles.BLOCK, 4093, 7])
def test_block_flag_runs_match_full_length_compare(block, monkeypatch):
    monkeypatch.setattr(profiles, "BLOCK", block)
    shell = _shell_pair_profile()
    rng = np.random.default_rng(5)
    steps = DistanceProfile.from_floats(-9, rng.choice([0.1, 0.2, 0.3], 50_000))
    cases = [(steps, eps) for eps in (0.05, 0.1, 0.2, 0.25, 0.3, 0.4)]
    floats = shell.floats
    cases += [(shell, float(eps)) for eps in (
        floats.min(), np.median(floats), floats[77], floats.max(),
        2.0 * floats.max(), 1e-12, 0.5)]
    for prof, eps in cases:
        got = prof.flag_runs(eps)
        want = profiles._run_table(prof.floats >= eps, len(prof))
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b), eps


#: tracemalloc peak of flag_runs on a float profile, in bytes a sample: the
#: shell pair below peaks at 0.14 (its flags a block at a time, and its few
#: runs); the full-length compare it replaced took 3.0
FLOAT_FLAG_RUNS_BYTES_PER_SAMPLE = 0.5


def test_float_flag_runs_hold_no_per_sample_row():
    prof = _shell_pair_profile()
    for eps in (1e-9, 0.1, 1.0):
        _, peak = _traced_peak(lambda: prof.flag_runs(eps))
        assert peak / len(prof) < FLOAT_FLAG_RUNS_BYTES_PER_SAMPLE, (eps, peak)


def test_only_float_profiles_have_limbs():
    with pytest.raises(ValueError):
        DistanceProfile.from_spans(0, 1, [0], [1]).limbs()
