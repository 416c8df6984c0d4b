import math
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from weylab.core import (CrossSystemError, Point, default_schedule,
                         dyadic_schedule, get_factor, get_system, system_ids)
from weylab.estimators import (ESTIMATE_KINDS, PairSummary, SummaryMemo,
                               _limb_scan, _run_scan, _scan_windows,
                               banach_density, besicovitch, check, estimate,
                               estimates, hat, pair_profile, weyl)
from weylab import profiles
from weylab.factors import lift_metric
from weylab.profiles import INF_EXP, SCALE, SCALE_BITS, DistanceProfile

import _reference
from _reference import (_scan, _value_rows, below_prefix,
                        exponent_below_counts, exponent_extremes,
                        exponent_runs, linear_window_rows, naive_estimate,
                        pair_exponents, profile_window_rows, scaled)

_ESTIMATORS = {"besicovitch": besicovitch, "weyl": weyl, "check": check,
               "hat": hat}


def _pt(system_id, text):
    return Point(system_id, get_system(system_id).parse_point(text))


def _rows(per_window):
    """(window length, translate, exact, boundary) of each window value."""
    return [(len(wv.window), wv.translate, wv.exact, wv.boundary)
            for wv in per_window]


def _windowwise(scan):
    """A per-window scan(wlo, whi, M), such as _reference's, called as the
    batched scans are: once, with every window's lows, highs and radii."""
    return lambda wlos, whis, radii: [scan(*w) for w in zip(wlos, whis, radii)]


def _keyed_flags(flag_runs):
    """A flag runs view keyed for _run_scan: 0/1 values are their own keys."""
    return flag_runs + (flag_runs[1],)


# pairs chosen to exercise every boundary/tie case the scanner has:
# constant profiles, single-site disagreements, half-line disagreements
# (all achievers on the translate boundary), and float-valued metrics
PAIRS = [
    ("odometer int", _pt("odometer", "int:3"), _pt("odometer", "int:19")),
    ("toeplitz fibre", _pt("toeplitz", "addr=int:2 flag=plain"),
     _pt("toeplitz", "addr=int:2 flag=primed")),
    ("toeplitz cross", _pt("toeplitz", "addr=int:0 flag=plain"),
     _pt("toeplitz", "addr=int:5 flag=plain")),
    ("parity complement", _pt("thuemorse", "addr=int:0 flag=plain bit=0"),
     _pt("thuemorse", "addr=int:0 flag=plain bit=1")),
    ("parity half-line", _pt("thuemorse", "addr=int:0 flag=plain bit=0"),
     _pt("thuemorse", "addr=int:0 flag=primed bit=0")),
    ("sturmian sides", _pt("sturmian", "orbit=1 side=upper"),
     _pt("sturmian", "orbit=1 side=lower")),
    ("rotation", _pt("rotation", "t=0.125"), _pt("rotation", "t=0.5")),
    ("interval branches", _pt("interval61", "y=0.3 branch=hat"),
     _pt("interval61", "y=0.3 branch=check")),
    ("shell straddle", _pt("shells62", "level=1 t=0.3"),
     _pt("shells62", "level=1 t=4.0")),
    ("rigid shell", _pt("shells62", "level=inf t=1.0"),
     _pt("shells62", "level=inf t=1.3")),
    ("diagonal", _pt("odometer", "int:5"), _pt("odometer", "int:5")),
]

SCHEDULES = [default_schedule(4), dyadic_schedule(2, 5),
             dyadic_schedule(2, 5, "left")]


@pytest.mark.parametrize("label,x,y",
                         PAIRS, ids=[p[0] for p in PAIRS])
@pytest.mark.parametrize("kind", list(_ESTIMATORS))
def test_estimators_match_naive_reference(label, x, y, kind):
    for schedule in SCHEDULES:
        est = _ESTIMATORS[kind](x, y, schedule)
        value, rows, warning = naive_estimate(x, y, schedule, kind)
        assert est.exact == value
        assert est.value == float(value)
        assert est.boundary_warning == warning
        assert len(est.per_window) == len(rows)
        for wv, (n, translate, exact, boundary) in zip(est.per_window, rows):
            assert len(wv.window) == n
            assert wv.translate == translate
            assert wv.exact == exact
            assert wv.boundary == boundary


@pytest.mark.parametrize("eps", [0.03, 0.2, 0.9])
def test_banach_density_matches_naive(eps):
    schedule = default_schedule(4)
    for label, x, y in PAIRS[:6]:
        est = banach_density(x, y, eps, schedule)
        value, rows, warning = naive_estimate(x, y, schedule,
                                              "banach-density", eps)
        assert est.exact == value, label
        assert est.boundary_warning == warning
        for wv, (n, translate, exact, boundary) in zip(est.per_window, rows):
            assert (wv.translate, wv.exact, wv.boundary) \
                == (translate, exact, boundary)


def test_banach_density_rejects_bad_eps():
    schedule = default_schedule(2)
    _, x, y = PAIRS[0]
    with pytest.raises(ValueError):
        banach_density(x, y, 0.0, schedule)
    with pytest.raises(ValueError):
        estimate("banach-density", x, y, schedule)  # eps is mandatory


def test_estimate_dispatch_and_errors():
    schedule = default_schedule(2)
    _, x, y = PAIRS[0]
    assert estimate("weyl", x, y, schedule).exact \
        == weyl(x, y, schedule).exact
    with pytest.raises(ValueError):
        estimate("frobnicate", x, y, schedule)
    other = _pt("toeplitz", "addr=int:0")
    with pytest.raises(CrossSystemError):
        weyl(x, other, schedule)


def test_symmetry_is_bit_identical():
    schedule = default_schedule(4)
    for label, x, y in PAIRS:
        for kind, fn in _ESTIMATORS.items():
            a = fn(x, y, schedule)
            b = fn(y, x, schedule)
            assert a.value == b.value and a.exact == b.exact, (label, kind)
            assert [ (w.translate, w.exact, w.boundary) for w in a.per_window ] \
                == [ (w.translate, w.exact, w.boundary) for w in b.per_window ]


def test_value_lattice_check_besi_weyl_hat():
    schedule = default_schedule(5)
    for label, x, y in PAIRS:
        c = check(x, y, schedule).exact
        b = besicovitch(x, y, schedule).exact
        w = weyl(x, y, schedule).exact
        h = hat(x, y, schedule).exact
        assert c <= b <= w <= h, label


def test_diagonal_estimates_are_exact_zero():
    schedule = default_schedule(3)
    _, x, y = PAIRS[-1]
    for fn in _ESTIMATORS.values():
        est = fn(x, y, schedule)
        assert est.exact == 0 and est.value == 0.0
        assert not est.boundary_warning


def test_repeated_calls_rebuild_the_profile_consistently():
    schedule = default_schedule(3)
    _, x, y = PAIRS[1]
    first = weyl(x, y, schedule)
    for _ in range(3):
        again = weyl(x, y, schedule)
        assert again.exact == first.exact
        assert [w.exact for w in again.per_window] \
            == [w.exact for w in first.per_window]


# near-tie pairs: many translates of a window share its exact sum
NEAR_TIE_PAIRS = [
    ("toeplitz fibre", _pt("toeplitz", "addr=int:7 flag=plain"),
     _pt("toeplitz", "addr=int:7 flag=primed")),
    ("parity half-line", _pt("thuemorse", "addr=int:0 flag=plain bit=0"),
     _pt("thuemorse", "addr=int:0 flag=primed bit=0")),
    ("parity complement", _pt("thuemorse", "addr=int:3 flag=plain bit=0"),
     _pt("thuemorse", "addr=int:3 flag=plain bit=1")),
    ("rigid shell", _pt("shells62", "level=inf t=1.0"),
     _pt("shells62", "level=inf t=1.3")),
]


@pytest.mark.parametrize("label,x,y", NEAR_TIE_PAIRS,
                         ids=[p[0] for p in NEAR_TIE_PAIRS])
def test_pair_summary_matches_single_estimators_at_scale(label, x, y):
    schedule = dyadic_schedule(12, 14)
    eps = 0.25  # a dyadic value, so samples tie with the threshold
    single = {kind: fn(x, y, schedule) for kind, fn in _ESTIMATORS.items()}
    single["banach-density"] = banach_density(x, y, eps, schedule)
    together = estimates(x, y, schedule, tuple(single), eps)
    summary = PairSummary.of(x, y, schedule)
    for kind, est in single.items():
        got = together[kind]
        # WindowValue equality covers exact, translate and boundary
        assert got.per_window == est.per_window, (label, kind)
        assert got == est, (label, kind)
        if kind in _ESTIMATORS:
            assert getattr(summary, kind) == est, (label, kind)
    # every kind against the linear-time reference on a 2^12 window
    schedule = dyadic_schedule(12, 12)
    together = estimates(x, y, schedule, ESTIMATE_KINDS, eps)
    reference = linear_window_rows(x, y, schedule, ESTIMATE_KINDS, eps)
    for kind in ESTIMATE_KINDS:
        got = _rows(together[kind].per_window)
        want = reference[kind]
        if (label, kind) == ("toeplitz fibre", "check"):
            # its zero minimum is reached below the grid, where the
            # reported position is a known defect (test_profiles.py,
            # test_exponent_extremes_tie_below_the_grid_at_smallest_t)
            got, want = ([r[:1] + r[2:] for r in rows] for rows in (got, want))
        assert got == want, (label, kind)


def test_estimates_builds_once_for_the_requested_kinds(count_builds):
    counts = count_builds("toeplitz")
    schedule = default_schedule(3)
    _, x, y = PAIRS[1]
    got = estimates(x, y, schedule, ("hat", "weyl"))
    assert list(got) == ["hat", "weyl"]
    assert got["hat"] == hat(x, y, schedule)
    assert sum(counts.values()) == 2  # estimates once, hat once
    with pytest.raises(ValueError):
        estimates(x, y, schedule, ("weyl", "banach-density"))
    with pytest.raises(ValueError):
        estimates(x, y, schedule, ("banach-density",), eps=0.0)
    with pytest.raises(ValueError):
        estimates(x, y, schedule, ("nonsense",))
    assert sum(counts.values()) == 2  # bad requests build nothing


def test_summary_memo_builds_each_unordered_pair_once(count_builds):
    counts = count_builds("toeplitz")
    _, x, y = PAIRS[1]
    schedule = default_schedule(3)
    memo = SummaryMemo()
    first = memo(x, y, schedule)
    assert memo(x, y, schedule) is first
    reversed_ = memo(y, x, schedule)
    assert sum(counts.values()) == 1
    for kind in ("check", "besicovitch", "weyl", "hat"):
        a, b = getattr(first, kind), getattr(reversed_, kind)
        assert (b.x, b.y) == (a.y, a.x) == (str(y), str(x)), kind
        assert b.per_window == a.per_window, kind
        assert (b.kind, b.value, b.exact, b.boundary_warning) \
            == (a.kind, a.value, a.exact, a.boundary_warning), kind
    assert memo(y, x, schedule) is reversed_
    assert reversed_ == PairSummary.of(y, x, schedule)


# one pair of each system family the classifiers read, and a diagonal one
MEMO_PAIRS = [
    ("shells62", Point("shells62", (2, 0.5 * math.pi, 0)),
     Point("shells62", (2, math.pi, 0))),
    ("interval61", Point("interval61", ("hat", 0.4321, 0)),
     Point("interval61", ("check", 0.1234, 0))),
    ("thuemorse", _pt("thuemorse", "addr=int:0 flag=plain bit=0"),
     _pt("thuemorse", "addr=int:0 flag=primed bit=0")),
    ("toeplitz", _pt("toeplitz", "addr=int:7 flag=plain"),
     _pt("toeplitz", "addr=int:7 flag=primed")),
    ("sturmian", _pt("sturmian", "orbit=1 side=upper"),
     _pt("sturmian", "orbit=1 side=lower")),
    ("diagonal", _pt("toeplitz", "addr=int:2 flag=plain"),
     _pt("toeplitz", "addr=int:2 flag=plain")),
]


@pytest.mark.parametrize("label,x,y", MEMO_PAIRS,
                         ids=[p[0] for p in MEMO_PAIRS])
def test_memo_summaries_across_schedules_match_fresh_ones_at_scale(
        label, x, y, monkeypatch):
    """A memo serves two nested schedules in either order, bit for bit as
    fresh summaries, and builds the pair once over what it lacks."""
    from weylab import estimators

    wide, narrow = dyadic_schedule(12, 16), dyadic_schedule(14, 16)
    lacking = dyadic_schedule(12, 13)  # the windows of wide not in narrow
    assert wide.windows == lacking.windows + narrow.windows
    fresh = {wide: PairSummary.of(x, y, wide),
             narrow: PairSummary.of(x, y, narrow)}
    built = []

    def recorded(*args):
        built.append(args[2:])
        return pair_profile(*args)

    monkeypatch.setattr(estimators, "pair_profile", recorded)
    for order, builds in (((wide, narrow), [wide.hull_range()]),
                          ((narrow, wide), [narrow.hull_range(),
                                            lacking.hull_range()])):
        memo, built[:] = SummaryMemo(), []
        for schedule in order:
            got = memo(x, y, schedule)
            for kind in ("check", "besicovitch", "weyl", "hat"):
                # WindowValue equality covers exact, translate and boundary
                assert getattr(got, kind).per_window \
                    == getattr(fresh[schedule], kind).per_window, kind
            assert got == fresh[schedule]
        assert built == builds


@pytest.mark.parametrize("system_id", system_ids())
def test_summary_memo_serves_diagonal_pairs_without_a_build(system_id,
                                                            count_builds):
    payloads = get_system(system_id).sample_payloads(
        np.random.default_rng(5), 4)
    x = Point(system_id, payloads[0])
    # a second diagonal point: another of this system's, or the odometer's
    # for a system with a single point
    z = next((Point(system_id, p) for p in payloads if p != x.payload),
             _pt("odometer", "int:1"))
    builds = [count_builds(sid) for sid in system_ids()]
    eps = 0.25
    memo = SummaryMemo()
    for schedule in (dyadic_schedule(2, 5), dyadic_schedule(2, 5, "left")):
        summary = PairSummary.of(x, x, schedule)
        together = estimates(x, x, schedule, ESTIMATE_KINDS, eps)
        assert memo(x, x, schedule) == summary
        second = memo(z, z, schedule)
        assert not any(builds), schedule.family
        assert second == PairSummary.of(z, z, schedule)
        assert memo(x, x, schedule) == summary
        for point, got in ((x, summary), (z, second)):
            for kind in ("check", "besicovitch", "weyl", "hat"):
                est = getattr(got, kind)
                assert (est.x, est.y) == (str(point), str(point)), kind
        # window by window against the orbit walk through System.dist
        reference = linear_window_rows(x, x, schedule, ESTIMATE_KINDS, eps)
        for kind in ESTIMATE_KINDS:
            assert _rows(together[kind].per_window) == reference[kind], kind
            if kind != "banach-density":
                assert getattr(summary, kind) == together[kind], kind
    assert not any(builds)


def test_summary_memo_shared_by_threads():
    schedule = dyadic_schedule(2, 5)
    pairs = [(x, y) for _, x, y in PAIRS[:6]]
    expected = [PairSummary.of(x, y, schedule) for x, y in pairs]
    memo = SummaryMemo()
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(
                lambda: [memo(x, y, schedule) for x, y in pairs])
                for _ in range(8)]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(old)
    assert all(got == expected for got in results)
    assert [memo(x, y, schedule) for x, y in pairs] == expected


def test_boundary_warning_on_half_line_pair():
    # every maximizing translate pushes the window fully into the
    # disagreement half-line, i.e. sits on the radius boundary
    schedule = default_schedule(4)
    x = _pt("thuemorse", "addr=int:0 flag=plain bit=0")
    y = _pt("thuemorse", "addr=int:0 flag=primed bit=0")
    est = weyl(x, y, schedule)
    assert est.boundary_warning
    assert all(wv.translate == rad for wv, rad
               in zip(est.per_window, schedule.translate_radius))
    # constant-profile pairs never warn
    est2 = weyl(*PAIRS[0][1:], schedule)
    assert not est2.boundary_warning
    assert all(wv.translate == 0 for wv in est2.per_window)


@given(st.integers(min_value=-40, max_value=40),
       st.integers(min_value=-6, max_value=6))
@settings(max_examples=40, deadline=None)
def test_profile_translation_consistency(z, g):
    system = get_system("toeplitz")
    x = _pt("toeplitz", "addr=int:%d flag=plain" % z)
    y = _pt("toeplitz", "addr=int:%d flag=primed" % z)
    moved_x = Point("toeplitz", system.act(x.payload, g))
    moved_y = Point("toeplitz", system.act(y.payload, g))
    a = system.pair_profile(moved_x.payload, moved_y.payload, -8, 8)
    b = system.pair_profile(x.payload, y.payload, -8 + g, 8 + g)
    # sample t of a is sample t + g of b
    assert len(a) == len(b) == 17
    assert a.scaled() == b.scaled()


def _lifted_fibre():
    lifted = lift_metric("tm.psi")
    return (Point(lifted, _pt("toeplitz", "addr=int:0 flag=plain").payload),
            Point(lifted, _pt("toeplitz", "addr=int:7 flag=primed").payload))


# profiles the run-length scan serves, at realistic window sizes: Toeplitz
# fibres (about 2151 runs in 2^18 samples), the one-run tm.phi complement
# pair, two dense sturm.pi pairs (30,943 and 50,066 runs in 65,537 samples)
# and a lifted graph metric, whose profile is a 'scaled' one
RUN_PROFILE_PAIRS = [
    ("toeplitz fibre 7", lambda: (_pt("toeplitz", "addr=int:7 flag=plain"),
                                  _pt("toeplitz", "addr=int:7 flag=primed")),
     dyadic_schedule(8, 16)),
    ("toeplitz fibre -13", lambda: (_pt("toeplitz", "addr=int:-13 flag=plain"),
                                    _pt("toeplitz", "addr=int:-13 flag=primed")),
     dyadic_schedule(8, 16)),
    ("tm.psi", lambda: (_pt("toeplitz", "addr=int:-256 flag=plain"),
                        _pt("toeplitz", "addr=int:-256 flag=primed")),
     dyadic_schedule(10, 14)),
    ("tm.phi one run", lambda: (_pt("thuemorse", "addr=int:5 flag=plain bit=0"),
                                _pt("thuemorse", "addr=int:5 flag=plain bit=1")),
     dyadic_schedule(10, 14)),
    ("sturm.pi dense", lambda: (_pt("sturmian", "orbit=0 side=upper"),
                                _pt("sturmian", "orbit=1 side=upper")),
     dyadic_schedule(10, 14)),
    ("sturm.pi densest", lambda: (_pt("sturmian", "orbit=62 side=upper"),
                                  _pt("sturmian", "orbit=64 side=upper")),
     dyadic_schedule(10, 14)),
    ("lifted tm.psi", _lifted_fibre, dyadic_schedule(8, 12)),
]


@pytest.mark.parametrize("label,pair,schedule", RUN_PROFILE_PAIRS,
                         ids=[p[0] for p in RUN_PROFILE_PAIRS])
def test_run_scans_match_per_sample_reference_at_scale(label, pair, schedule):
    x, y = pair()
    kinds = ("besicovitch", "weyl", "banach-density")
    eps = 0.25  # a dyadic value, so samples tie with the threshold
    profile = pair_profile(x, y, *schedule.hull_range())
    assert profile.kind in ("exp2", "scaled")  # served by the runs view
    got = estimates(x, y, schedule, kinds, eps)
    want = profile_window_rows(profile, schedule, kinds, eps)
    for kind in kinds:
        assert _rows(got[kind].per_window) == want[kind], (label, kind)


# subshift pairs whose 'exp2' profiles are built from disagreement spans:
# the symbolic pairs above, a Thue-Morse complement pair (one span over the
# whole hull), a left and a right half-line pair (one span over part of it)
# and the complement of a half-line, so each case of the Thue-Morse payload
# rule is compared with the letters
SPAN_PROFILE_PAIRS = [p for p in RUN_PROFILE_PAIRS if p[0] != "lifted tm.psi"] + [
    ("tm complement", lambda: (_pt("thuemorse", "addr=int:0 flag=plain bit=0"),
                               _pt("thuemorse", "addr=int:0 flag=plain bit=1")),
     dyadic_schedule(12, 16)),
    ("tm half-line", lambda: (_pt("thuemorse", "addr=int:3 flag=plain bit=0"),
                              _pt("thuemorse", "addr=int:3 flag=primed bit=0")),
     dyadic_schedule(12, 16)),
    ("tm right half-line",
     lambda: (_pt("thuemorse", "addr=int:-5 flag=plain bit=0"),
              _pt("thuemorse", "addr=int:-5 flag=primed bit=0")),
     dyadic_schedule(12, 16)),
    ("tm half-line complement",
     lambda: (_pt("thuemorse", "addr=int:-5 flag=plain bit=0"),
              _pt("thuemorse", "addr=int:-5 flag=primed bit=1")),
     dyadic_schedule(12, 16)),
]


@pytest.mark.parametrize("label,pair,schedule", SPAN_PROFILE_PAIRS,
                         ids=[p[0] for p in SPAN_PROFILE_PAIRS])
def test_span_profiles_match_exponent_reference_at_scale(label, pair, schedule):
    x, y = pair()
    lo, hi = schedule.hull_range()
    profile = pair_profile(x, y, lo, hi)
    exps = pair_exponents(x.system(), x.payload, y.payload, lo, hi)
    assert profile.kind == "exp2"
    for got, want in zip(profile.runs(), exponent_runs(exps)):
        assert got.tolist() == want.tolist(), label
    for eps in (0.25, 2.0 ** -20):
        assert below_prefix(profile.flag_runs(eps)).tolist() \
            == exponent_below_counts(exps, eps).tolist(), label
    for w, M in zip(schedule.windows, schedule.translate_radius):
        for a, b in ((w.lo - M, w.hi + M), (w.lo - M + 1, w.hi + M - 1)):
            if a <= b:
                assert profile.extremes(a, b) \
                    == exponent_extremes(exps, lo, a, b), (label, a, b)


def _grid(e):
    """2^-e on the 2^-1074 grid, written independently of profiles.py."""
    return 1 << (SCALE_BITS - e) if e <= SCALE_BITS else 0


@st.composite
def _scan_cases(draw):
    """(exps, lo, wlo, whi, M) with the window and its translates inside a
    short piecewise-constant profile."""
    runs = draw(st.lists(
        st.tuples(st.sampled_from([-2, -1, 0, 1, 2, 3, 1074, 1075, 1100,
                                   INF_EXP]),
                  st.integers(min_value=1, max_value=5)),
        min_size=1, max_size=8))
    exps = [e for e, n in runs for _ in range(n)]
    lo = draw(st.integers(min_value=-10, max_value=10))
    hi = lo + len(exps) - 1
    M = draw(st.integers(min_value=0, max_value=(len(exps) - 1) // 2))
    wlo = draw(st.integers(min_value=lo + M, max_value=hi - M))
    whi = draw(st.integers(min_value=wlo, max_value=hi - M))
    return exps, lo, wlo, whi, M


@given(_scan_cases(), st.sampled_from([0.25, 0.3, 1.0, 5e-324]))
# one run: every piece is flat, and the one through translate 0 wins
@example((([3] * 9), 0, 3, 5, 3), 0.25)
# the best sits at -M and M alone, a boundary tie
@example(([0, 5, 5, 5, 5, 5, 0], 0, 3, 3, 3), 0.25)
# a +-a tie inside the radius
@example(([5, 0, 5, 5, 5, 0, 5], 0, 3, 3, 3), 0.25)
# flat pieces reaching -M and M, each with an inner translate
@example(([0, 0, 5, 5, 5, 0, 0], 0, 3, 3, 3), 0.25)
# a flat maximal piece from -3 to -1 between two kept breakpoints
@example(([5, 5, 5, 0, 0, 0, 0, 5, 5, 5, 5, 5, 5], 0, 6, 7, 4), 0.25)
# a peak at -2 that the pieces on both sides fall away from
@example(([5, 5, 2, 1, 0, 2, 3, 5, 5, 5, 5], 0, 5, 6, 3), 0.25)
# 2^-1075, 2^-1100 and distance 0 are one run on the grid
@example(([1075, 1100, INF_EXP, 1074, 1075, INF_EXP, -1], 0, 3, 3, 2),
         5e-324)
@settings(max_examples=300, deadline=None)
def test_best_from_run_and_count_scans_matches_reference(case, eps):
    exps, lo, wlo, whi, M = case
    values = [_grid(e) for e in exps]
    profile = DistanceProfile.from_scaled(lo, values)
    prefix = list(accumulate(values, initial=0))
    want = _scan(lambda a, b: prefix[b + 1 - lo] - prefix[a - lo],
                 wlo, whi, M, True)
    assert _run_scan(profile.keyed_runs(), lo)([wlo], [whi], [M]) == [want]
    counts = list(accumulate((int(v < scaled(eps)) for v in values), initial=0))
    below, a, boundary = _scan(lambda a, b: counts[b + 1 - lo] - counts[a - lo],
                               wlo, whi, M, False)
    # the same samples as doubles (2^-e is one, or 0 below the grid), so
    # that float samples tie with eps too
    floats = DistanceProfile.from_floats(lo, np.array([2.0 ** -e for e in exps]))
    for prof in (profile, floats):
        # the most samples at or above eps are the fewest below it
        assert _run_scan(_keyed_flags(prof.flag_runs(eps)), lo)(
            [wlo], [whi], [M]) == [(whi - wlo + 1 - below, a, boundary)], \
            prof.kind


@st.composite
def _window_lists(draw):
    """(exps, lo, windows): a short piecewise-constant profile and a list of
    windows (wlo, whi, M), each with its translates inside the profile."""
    exps, lo, wlo, whi, M = draw(_scan_cases())
    hi = lo + len(exps) - 1
    windows = [(wlo, whi, M)]
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        M = draw(st.integers(min_value=0, max_value=(len(exps) - 1) // 2))
        wlo = draw(st.integers(min_value=lo + M, max_value=hi - M))
        windows.append((wlo, draw(st.integers(min_value=wlo, max_value=hi - M)), M))
    return exps, lo, windows


@given(_window_lists(), st.sampled_from([0.25, 0.3, 1.0, 5e-324]))
# a single window
@example(([0, 5, 5, 5, 5, 5, 0], 0, [(3, 3, 3)]), 0.25)
# the same window twice
@example(([5, 0, 5, 5, 5, 0, 5], 0, [(3, 3, 3), (3, 3, 3)]), 0.25)
# radius-0 windows among radius-M ones, as estimates fuses besicovitch and weyl
@example(([0, 0, 5, 5, 5, 0, 0, 3, 3], 0,
          [(2, 5, 0), (3, 4, 1), (3, 5, 0), (3, 5, 3)]), 0.25)
# windows whose candidate ranges overlap
@example(([5, 5, 2, 1, 0, 2, 3, 5, 5, 5, 5], 0, [(4, 6, 4), (3, 7, 3), (5, 5, 5)]),
         0.25)
# 2^-1075, 2^-1100 and distance 0 tie on the grid
@example(([1075, 1100, INF_EXP, 1074, 1075, INF_EXP, -1], 0,
          [(3, 3, 2), (3, 3, 0), (2, 4, 2)]), 5e-324)
@settings(max_examples=200, deadline=None)
def test_batched_run_scans_match_per_window_reference(case, eps):
    exps, lo, windows = case
    wlos, whis, radii = (list(c) for c in zip(*windows))
    profile = DistanceProfile.from_scaled(lo, [_grid(e) for e in exps])
    assert _run_scan(profile.keyed_runs(), lo)(wlos, whis, radii) \
        == _windowwise(_reference._run_scan(profile))(wlos, whis, radii)
    counts = _reference.below_counts(profile, eps)
    want = [(whi - wlo + 1 - below, a, boundary) for (wlo, whi, _), (below, a, boundary)
            in zip(windows, _windowwise(_reference._count_scan(counts, lo))(
                wlos, whis, radii))]
    floats = DistanceProfile.from_floats(lo, np.array([2.0 ** -e for e in exps]))
    for prof in (profile, floats):
        assert _run_scan(_keyed_flags(prof.flag_runs(eps)), lo)(
            wlos, whis, radii) == want, prof.kind


#: tracemalloc peak of one Toeplitz fibre pair's five estimates at
#: dyadic_schedule(8, 16), in bytes: 0.90 MB is measured (the profile's
#: 2151 runs and their sums, then the scans' candidate arrays); one more
#: int64 array over the weyl scan's 18,170 candidates adds 0.15 MB
FIBRE_ESTIMATES_PEAK_BYTES = 1_000_000


def test_fibre_pair_estimates_working_set_is_bounded():
    import tracemalloc

    schedule = dyadic_schedule(8, 16)
    x, y = (_pt("toeplitz", "addr=int:7 flag=%s" % flag)
            for flag in ("plain", "primed"))
    want = estimates(x, y, schedule, ESTIMATE_KINDS, 0.01)
    tracemalloc.start()
    try:
        got = estimates(x, y, schedule, ESTIMATE_KINDS, 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < FIBRE_ESTIMATES_PEAK_BYTES, peak


def test_float_estimates_build_no_per_sample_ints(monkeypatch):
    def refuse(self):
        raise AssertionError("per-sample grid integers built")

    monkeypatch.setattr(DistanceProfile, "scaled", refuse)
    monkeypatch.setattr(DistanceProfile, "prefix", refuse)
    schedule = dyadic_schedule(8, 10)
    for label, x, y in (PAIRS[8], PAIRS[7]):  # shells62, interval61
        assert pair_profile(x, y, *schedule.hull_range()).kind == "float"
        estimates(x, y, schedule, ESTIMATE_KINDS, 0.25)


def _shells_pi_pair(index):
    return lambda: get_factor("shells62.pi").pair_sampler(3, 10)[index]


# profiles the limb scan serves, at realistic window sizes: a fixed and a
# sampled shells62.pi pair (two limbs of 43 bits at 2^18 samples), a shell
# pair straddling the fixed angle and interval61's two branches
FLOAT_PROFILE_PAIRS = [
    ("shells62.pi level 1", _shells_pi_pair(0), dyadic_schedule(13, 16)),
    ("shells62.pi sampled", _shells_pi_pair(9), dyadic_schedule(12, 14)),
    ("shell straddle", lambda: PAIRS[8][1:], dyadic_schedule(12, 15)),
    ("interval branches", lambda: PAIRS[7][1:], dyadic_schedule(12, 15)),
]


@pytest.mark.parametrize("label,pair,schedule", FLOAT_PROFILE_PAIRS,
                         ids=[p[0] for p in FLOAT_PROFILE_PAIRS])
def test_limb_scans_match_per_sample_reference_at_scale(label, pair, schedule,
                                                       monkeypatch):
    # a small odd block puts block boundaries everywhere in the profile
    # build, the limbs and the scan
    monkeypatch.setattr(profiles, "BLOCK", 509)
    x, y = pair()
    kinds = ("besicovitch", "weyl", "banach-density")
    profile = pair_profile(x, y, *schedule.hull_range())
    assert profile.kind == "float"
    eps = float(np.median(profile.floats))  # a sample, so samples tie with it
    got = estimates(x, y, schedule, kinds, eps)
    want = profile_window_rows(profile, schedule, kinds, eps)
    for kind in kinds:
        assert _rows(got[kind].per_window) == want[kind], (label, kind)


# the pruned run scan against the all-breakpoint run scan and the count scan
# over all 2M + 1 translates that it replaced, at 2^12-2^16 windows: every
# run and span pair above, and a shells62.pi and an interval61 pair, whose
# float profiles scan banach-density on flag runs too (their besicovitch and
# weyl stay on limbs, checked above).  The lifted pair stops at 2^14: its
# profile is summed per sample
PRUNED_SCAN_PAIRS = [
    (label, pair, dyadic_schedule(12, 14 if label == "lifted tm.psi" else 16))
    for label, pair, _ in RUN_PROFILE_PAIRS + [
        p for p in SPAN_PROFILE_PAIRS if p[0] in ("tm complement", "tm half-line")]
] + [p for p in FLOAT_PROFILE_PAIRS if p[0] in ("shells62.pi level 1",
                                                "interval branches")]


@pytest.mark.parametrize("label,pair,schedule", PRUNED_SCAN_PAIRS,
                         ids=[p[0] for p in PRUNED_SCAN_PAIRS])
def test_pruned_scans_match_all_breakpoint_scans_at_scale(label, pair,
                                                          schedule):
    x, y = pair()
    profile = pair_profile(x, y, *schedule.hull_range())
    radii = schedule.translate_radius

    def rows(per_window):
        return [(wv.translate, wv.exact, wv.boundary) for wv in per_window]

    want = {}
    if profile.kind != "float":
        scan = _windowwise(_reference._run_scan(profile))
        want["besicovitch"] = rows(_scan_windows(
            scan, schedule.windows, [0] * len(radii), SCALE))
        want["weyl"] = rows(_scan_windows(scan, schedule.windows, radii,
                                          SCALE))
    for eps in (0.25, 0.01, 5e-324):
        counts = _reference.below_counts(profile, eps)
        want["banach-density"] = rows(_scan_windows(
            _windowwise(_reference._count_scan(counts, profile.lo)),
            schedule.windows, radii, 1))
        got = estimates(x, y, schedule, tuple(want), eps)
        for kind in want:
            assert rows(got[kind].per_window) == want[kind], (label, kind, eps)


# zeros, subnormals, values that tie, and spreads from 5e-324 up to the
# largest double, which need 38 limbs of 56 bits
_WIDE_FLOATS = st.sampled_from([0.0, 5e-324, 1e-310, 2.0 ** -1000, 0.25, 0.3,
                                1.0, 3.0, 1e300, 1.7976931348623157e308])


@given(st.lists(st.tuples(_WIDE_FLOATS, st.integers(min_value=1, max_value=9)),
                min_size=1, max_size=12),
       st.sampled_from([dyadic_schedule(1, 3), dyadic_schedule(2, 4, "left")]),
       st.sampled_from([3, 7, profiles.BLOCK]))
@example([(5e-324, 1), (1.7976931348623157e308, 1), (0.0, 3)],
         dyadic_schedule(1, 3), profiles.BLOCK)
@example([(0.3, 1)], dyadic_schedule(2, 4, "left"), 3)
@settings(max_examples=200, deadline=None)
def test_limb_scan_matches_reference_on_wide_floats(runs, schedule, block):
    lo, hi = schedule.hull_range()
    values = [v for v, n in runs for _ in range(n)] * (hi - lo + 1)
    values = values[:hi - lo + 1]  # the runs, repeated across the hull
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(profiles, "BLOCK", block)
        scan = _limb_scan(DistanceProfile.from_floats(lo, np.array(values)))
        want = _value_rows([scaled(v) for v in values], lo, schedule,
                           ("besicovitch", "weyl"), None)
        for kind, radii in (("besicovitch", [0] * len(schedule.windows)),
                            ("weyl", schedule.translate_radius)):
            assert _rows(_scan_windows(scan, schedule.windows, radii, SCALE)) \
                == want[kind], kind


# one window [0, 4] at radius 10 over blocks of 4 translates, [-10, -7] to
# [6, 9] and the partial [10]; its 25 samples, t = -10 .. 14, end in a
# partial block too.  Each case gives the samples that differ from 0.25
# and the translate and boundary flag expected
_SPREAD = {"constant": ({}, 0, False),
           # only translate 10 reaches t = 14, the widest sample
           "last partial block": ({14: 1e300}, 10, True),
           # translates -6 and 6 both cover two samples of 1.0
           "non-adjacent blocks": ({-6: 1.0, -2: 1.0, 6: 1.0, 10: 1.0}, -6,
                                   False),
           # -7 and 4 do, and the later block's is nearer 0
           "later block nearer 0": ({-7: 1.0, -3: 1.0, 4: 1.0, 8: 1.0}, 4,
                                    False)}


@pytest.mark.parametrize("case", list(_SPREAD))
def test_limb_scan_settles_ties_across_translate_blocks(case, monkeypatch):
    monkeypatch.setattr(profiles, "BLOCK", 4)
    spikes, translate, boundary = _SPREAD[case]
    values = [spikes.get(t, 0.25 if case != "constant" else 0.3)
              for t in range(-10, 15)]
    got = _limb_scan(DistanceProfile.from_floats(-10, np.array(values)))(
        [0], [4], [10])
    prefix = list(accumulate((scaled(v) for v in values), initial=0))
    want = _scan(lambda a, b: prefix[b + 11] - prefix[a + 10], 0, 4, 10, True)
    assert got == [want]
    assert want[1:] == (translate, boundary)
