import tracemalloc
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, strategies as st

from weylab.core import Point, dyadic_schedule, get_system
from weylab.estimators import pair_profile
from weylab.profiles import (INF_EXP, SCALE, SCALE_BITS, DistanceProfile,
                             limb_bits, scaled_from_exponent,
                             scaled_from_float)

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
    # 2^-1100 and 2^-1200 both floor to 0 on the 2^-1074 grid
    prof = DistanceProfile.from_exponents(0, np.array([1100, 3, 1200]))
    assert prof.extremes(0, 2)[:2] == (0, 0)


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


def test_exponent_profile_is_exact_powers():
    prof = DistanceProfile.from_exponents(0, np.array([0, 3, 1074, 2000]))
    # 2^-2000 underflows the grid to exact zero
    assert prof.scaled() == [SCALE, SCALE >> 3, 1, 0]


@pytest.mark.parametrize("exps", [[0, 3, 1074, 1075, 2000, INF_EXP],
                                  [2, -1, 1074, INF_EXP]])
def test_exponent_profile_scaled_list_matches_per_sample_values(exps):
    prof = DistanceProfile.from_exponents(-2, np.array(exps))
    assert prof.scaled() == [scaled_from_exponent(e) for e in exps]


# thresholds and samples that tie: eps itself, subnormals, the smallest
# normal double and 0
_TIES = st.sampled_from([0.0, 5e-324, 1e-310, 2.2250738585072014e-308,
                         0.125, 0.25, 0.3, 1.0])
_EXPONENTS = st.sampled_from([-1, 0, 1, 2, 3, 1073, 1074, 1075, 1100,
                              INF_EXP])


@given(st.lists(_TIES, min_size=1, max_size=30), _TIES.filter(bool))
def test_below_counts_match_indicator_prefix_on_floats(values, eps):
    prof = DistanceProfile.from_floats(-4, np.array(values))
    counts = prof.below_counts(eps)
    assert counts.dtype == np.int64
    assert counts.tolist() == prof.indicator_prefix(scaled_from_float(eps))


@given(st.lists(_EXPONENTS, min_size=1, max_size=30), _TIES.filter(bool))
def test_below_counts_match_indicator_prefix_on_exponents(exps, eps):
    prof = DistanceProfile.from_exponents(7, np.array(exps))
    cut = scaled_from_float(eps)
    assert prof.below_counts(eps).tolist() == prof.indicator_prefix(cut)
    scaled = DistanceProfile.from_scaled(7, prof.scaled())
    assert scaled.below_counts(eps).tolist() == prof.indicator_prefix(cut)


@given(st.lists(st.tuples(_EXPONENTS, st.integers(min_value=1, max_value=4)),
                min_size=1, max_size=10))
def test_runs_rebuild_samples_and_prefix(runs):
    exps = [e for e, n in runs for _ in range(n)]
    for prof in (DistanceProfile.from_exponents(0, np.array(exps)),
                 DistanceProfile.from_scaled(0, [scaled_from_exponent(e)
                                                 for e in exps])):
        starts, values, sums = prof.runs()
        assert starts[0] == 0 and starts[-1] == len(exps)
        assert values[-1] == 0
        lengths = np.diff(starts)
        assert (lengths > 0).all()
        assert all(a != b for a, b in zip(values[:-2], values[1:-1]))  # maximal
        assert [v for v, n in zip(values, lengths) for _ in range(n)] \
            == prof.scaled()
        assert sums.tolist() == [prof.prefix()[i] for i in starts]


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
    (starts, values, sums), peak = _traced_peak(
        lambda: DistanceProfile.constant(0, n - 1, SCALE >> 3).runs())
    assert starts.tolist() == [0, n]
    assert values.tolist() == [SCALE >> 3, 0]
    assert sums.tolist() == [0, n * (SCALE >> 3)]
    assert peak < 4096, peak


#: tracemalloc peak of below_counts on an 'exp2' profile whose runs are
#: built, in bytes per sample: the int64 result holds 8 and the per-sample
#: flags 1; a full-length int64 temporary would add 8
BELOW_COUNTS_BYTES_PER_SAMPLE = 10


def test_below_counts_keep_no_full_length_temporary():
    schedule = dyadic_schedule(8, 16)
    x, y = (Point("toeplitz", get_system("toeplitz").parse_point(
        "addr=int:7 flag=%s" % flag)) for flag in ("plain", "primed"))
    prof = pair_profile(x, y, *schedule.hull_range())
    assert prof.kind == "exp2"
    prof.runs()  # cached, so not traced below
    counts, peak = _traced_peak(lambda: prof.below_counts(2.0 ** -20))
    assert counts.tolist() == prof.indicator_prefix(scaled_from_float(2.0 ** -20))
    assert peak / len(prof) < BELOW_COUNTS_BYTES_PER_SAMPLE, peak


def test_float_profiles_have_no_runs_view():
    with pytest.raises(ValueError):
        DistanceProfile.from_floats(0, np.array([0.5, 0.5])).runs()


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


def test_only_float_profiles_have_limbs():
    with pytest.raises(ValueError):
        DistanceProfile.from_exponents(0, np.array([1, 2])).limbs()
