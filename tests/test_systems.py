import math
import os
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from weylab.core import IsometricSystem, Point, get_system, system_ids
from weylab.dyadic import DyadicInteger
from weylab.profiles import DistanceProfile, scaled_from_float
from weylab.systems import interval, shells
from weylab.systems.interval import level_of, step, step_back
from weylab.systems.orbits import point, rows, walked
from weylab.systems.shells import TWO_PI
from weylab.systems.sturmian import A_UNITS, MOD, T_UNITS
from weylab.systems.thuemorse import (PD_RULES, TM_RULES, complement,
                                      exchange_language,
                                      substitution_language,
                                      window_match_fraction)
from weylab.systems.symbolic import SymbolicSystem
from weylab.systems.toeplitz import make_toeplitz_payload, rule_word

import _reference

small_ints = st.integers(min_value=-200, max_value=200)


def _pt(system_id, text):
    return Point(system_id, get_system(system_id).parse_point(text))


# -- odometer ---------------------------------------------------------------


def test_odometer_translation_and_distance():
    system = get_system("odometer")
    p = system.parse_point("int:3")
    assert system.act(p, 5).as_int() == 8
    q = system.parse_point("frac:1/3")
    assert system.act(q, 1).value == Fraction(4, 3)
    assert system.dist(p, p) == 0.0
    assert system.dist(system.parse_point("int:0"),
                       system.parse_point("int:64")) == 2.0 ** -6
    # profile is constant and equals the pointwise distance
    prof = system.pair_profile(p, system.parse_point("int:11"), -5, 5)
    d = scaled_from_float(system.dist(p, system.parse_point("int:11")))
    assert prof.scaled() == [d] * 11


@given(small_ints, small_ints, small_ints)
def test_odometer_group_law(n, g, h):
    system = get_system("odometer")
    p = DyadicInteger.from_int(n)
    assert system.act(system.act(p, g), h) == system.act(p, g + h)


@given(small_ints, small_ints, small_ints)
def test_odometer_translation_is_isometric(n, m, g):
    system = get_system("odometer")
    p, q = DyadicInteger.from_int(n), DyadicInteger.from_int(m)
    assert system.dist(system.act(p, g), system.act(q, g)) \
        == system.dist(p, q)


# odometer pairs whose difference has 2-adic valuation 1073..1075 and 1100:
# the last two lie below the grid, where the distance floors to 0
_DEEP_ODOMETER_PAIRS = [
    (DyadicInteger.from_int(3), DyadicInteger.from_int(3 + (1 << v)))
    for v in (1073, 1074, 1075, 1100)
] + [(DyadicInteger.from_fraction(1 << 1100, 3), DyadicInteger.from_int(0))]


@pytest.mark.parametrize("system_id", [
    sid for sid in system_ids() if isinstance(get_system(sid), IsometricSystem)])
def test_isometric_profiles_match_the_orbit_walk(system_id):
    system = get_system(system_id)
    payloads = system.sample_payloads(np.random.default_rng(11), 6)
    pairs = [(p, q) for p in payloads for q in payloads]
    if system_id == "odometer":
        assert [system.dist(p, q) for p, q in _DEEP_ODOMETER_PAIRS] \
            == [2.0 ** -1073, 2.0 ** -1074, 0.0, 0.0, 0.0]
        pairs += _DEEP_ODOMETER_PAIRS
    for p, q in pairs:
        dists = _reference.orbit_distances(
            Point(system_id, p), Point(system_id, q), -20, 20)
        walk = DistanceProfile.from_floats(-20, np.array(list(dists.values())))
        assert system.pair_profile(p, q, -20, 20).scaled() == walk.scaled()


# -- toeplitz ---------------------------------------------------------------


def test_gamma_window_frozen():
    system = get_system("toeplitz")
    p = system.parse_point("addr=int:0 flag=plain")
    got = list(system.coords(p, -8, 8))
    assert got == [0, 1, 0, 1, 1, 1, 0, 1, 0, 1, 0, 1, 1, 1, 0, 1, 0]
    primed = system.parse_point("addr=int:0 flag=primed")
    got2 = list(system.coords(primed, -8, 8))
    assert got2[8] == 1  # the singular position carries the flag
    assert got2[:8] == got[:8] and got2[9:] == got[9:]


def _naive_rule(num, den, flag, lo, hi):
    out = []
    for n in range(lo, hi + 1):
        v = num + n * den
        if v == 0:
            out.append(flag)
            continue
        k = 0
        while v % 2 == 0:
            v //= 2
            k += 1
        out.append(1 if k % 2 == 0 else 0)
    return out


@given(st.integers(min_value=-500, max_value=500),
       st.sampled_from([1, 3, 5, 7]), st.sampled_from([0, 1]))
def test_rule_word_matches_naive(num, den, flag):
    assert list(rule_word(num, den, flag, -40, 40)) \
        == _naive_rule(num, den, flag, -40, 40)


def test_rule_word_fallback_beyond_int64():
    # numerators near 2^70 force the arbitrary-precision route
    for num in ((1 << 70) + 3, -(1 << 70) + 12345):
        assert list(rule_word(num, 1, 0, -30, 30)) \
            == _naive_rule(num, 1, 0, -30, 30)


@given(small_ints, st.integers(min_value=-30, max_value=30))
def test_toeplitz_act_translates_coords(z, g):
    system = get_system("toeplitz")
    p = system.parse_point("addr=int:%d flag=primed" % z)
    moved = system.act(p, g)
    assert list(system.coords(moved, -10, 10)) \
        == list(system.coords(p, -10 + g, 10 + g))


@given(small_ints)
def test_toeplitz_fibre_pair_differs_only_at_singular_site(z):
    system = get_system("toeplitz")
    a = system.parse_point("addr=int:%d flag=plain" % z)
    b = system.parse_point("addr=int:%d flag=primed" % z)
    wa = system.coords(a, -250, 250)
    wb = system.coords(b, -250, 250)
    diffs = [t for t in range(-250, 251) if wa[t + 250] != wb[t + 250]]
    assert diffs == [-z]


def test_toeplitz_fractional_address_has_no_singular_site():
    system = get_system("toeplitz")
    a = system.parse_point("addr=frac:1/3 flag=plain")
    b = system.parse_point("addr=frac:1/3 flag=primed")
    assert a == b  # flag is canonicalized away off the integer orbit
    with pytest.raises(ValueError):
        system.parse_point("addr=int:0 flag=sideways")


_ADDRESSES = st.one_of(
    st.integers(min_value=-3000, max_value=3000).map(DyadicInteger.from_int),
    st.builds(DyadicInteger.from_fraction, st.integers(-500, 500),
              st.integers(0, 40).map(lambda k: 2 * k + 1)))


@given(_ADDRESSES, st.integers(0, 1), st.integers(0, 1),
       st.one_of(st.none(), _ADDRESSES), st.integers(-2500, 2500),
       st.integers(0, 3000))
# the singular slot -addr at either end of the range, and just outside it
@example(DyadicInteger.from_int(5), 0, 1, None, -5, 10)
@example(DyadicInteger.from_int(5), 1, 0, None, -15, 10)
@example(DyadicInteger.from_int(5), 0, 1, None, -4, 10)
@example(DyadicInteger.from_int(-7), 1, 0, None, -3, 9)
def test_toeplitz_disagreements_match_letter_comparison(addr, flag, other_flag,
                                                        other, lo, width):
    system = get_system("toeplitz")
    p = make_toeplitz_payload(addr, flag)
    q = make_toeplitz_payload(addr if other is None else other, other_flag)
    got = system.disagreements(p, q, lo, lo + width)
    want = SymbolicSystem.disagreements(system, p, q, lo, lo + width)
    assert [a.tolist() for a in got] == [a.tolist() for a in want]
    assert all(a.dtype == np.int64 for a in got)


@given(_ADDRESSES, st.integers(0, 1), st.integers(0, 1), st.integers(0, 1),
       st.integers(0, 1), st.one_of(st.none(), _ADDRESSES),
       st.integers(-2500, 2500), st.integers(0, 3000))
# (addr, flag, other_flag, bit, other_bit, other, lo, width): the singular
# slot k0 = -addr at lo, at hi, and just outside either end
@example(DyadicInteger.from_int(-5), 0, 1, 0, 0, None, 5, 10)
@example(DyadicInteger.from_int(-5), 1, 0, 0, 0, None, -5, 10)
@example(DyadicInteger.from_int(-5), 0, 1, 1, 1, None, 6, 10)
@example(DyadicInteger.from_int(-5), 1, 0, 0, 0, None, -6, 10)
@example(DyadicInteger.from_int(7), 0, 1, 0, 0, None, -17, 10)
# k0 on either side of 0, and addr 0
@example(DyadicInteger.from_int(-3), 0, 1, 0, 0, None, -10, 20)
@example(DyadicInteger.from_int(7), 1, 0, 1, 1, None, -10, 20)
@example(DyadicInteger.from_int(0), 0, 1, 0, 0, None, -4, 8)
# bits differing, with and without the flags differing
@example(DyadicInteger.from_int(3), 0, 1, 0, 1, None, -10, 20)
@example(DyadicInteger.from_int(-3), 0, 1, 1, 0, None, -10, 20)
@example(DyadicInteger.from_int(3), 1, 1, 0, 1, None, -10, 20)
# a raw flag=1 payload off the integers has no singular slot
@example(DyadicInteger.from_fraction(1, 3), 1, 0, 0, 0, None, -10, 20)
@example(DyadicInteger.from_fraction(1, 3), 1, 0, 1, 0, None, -10, 20)
def test_thuemorse_disagreements_match_letter_comparison(
        addr, flag, other_flag, bit, other_bit, other, lo, width):
    system = get_system("thuemorse")
    # raw payloads: a flag of 1 at a non-integer address is kept
    p = (addr, flag, bit)
    q = (addr if other is None else other, other_flag, other_bit)
    got = system.disagreements(p, q, lo, lo + width)
    want = SymbolicSystem.disagreements(system, p, q, lo, lo + width)
    assert [a.tolist() for a in got] == [a.tolist() for a in want]
    assert all(a.dtype == np.int64 for a in got)


_INT, _FRAC = DyadicInteger.from_int, DyadicInteger.from_fraction


@given(_ADDRESSES, _ADDRESSES, st.integers(0, 1), st.integers(0, 1),
       st.integers(0, 1), st.integers(0, 1), st.integers(-2500, 2500),
       st.integers(0, 3000))
# (addr, other, flag, other_flag, bit, other_bit, lo, width): ranges below
# 0, above 0, straddling it and ending or starting at it, one position wide
@example(_INT(3), _INT(-5), 0, 1, 0, 0, -40, 20)
@example(_INT(3), _INT(-5), 1, 0, 1, 0, 15, 30)
@example(_INT(3), _INT(-5), 0, 0, 0, 1, -10, 20)
@example(_INT(-4), _INT(4), 1, 1, 0, 0, -12, 12)
@example(_INT(-4), _INT(4), 0, 1, 1, 0, 0, 12)
@example(_INT(1), _INT(2), 0, 0, 0, 1, 0, 0)
@example(_INT(1), _INT(2), 0, 0, 1, 1, 7, 0)
# an integer address against non-integer ones, raw flag 1 off the integers
@example(_INT(3), _FRAC(1, 3), 1, 1, 0, 1, -10, 20)
@example(_FRAC(-5, 7), _FRAC(1, 3), 0, 1, 1, 0, -30, 25)
@example(_FRAC(-5, 7), _INT(0), 1, 0, 0, 0, 5, 40)
def test_thuemorse_pairs_at_two_addresses_match_letter_comparison(
        addr, other, flag, other_flag, bit, other_bit, lo, width):
    assume(addr != other)
    system = get_system("thuemorse")
    p, q = (addr, flag, bit), (other, other_flag, other_bit)
    got = system.disagreements(p, q, lo, lo + width)
    want = SymbolicSystem.disagreements(system, p, q, lo, lo + width)
    assert [a.tolist() for a in got] == [a.tolist() for a in want]
    assert all(a.dtype == np.int64 for a in got)


def _drawn_pairs(system_id, seed):
    """Payload pairs of a subshift: two sampled points, and fibre-like
    pairs that differ at one slot or on a half-line."""
    system = get_system(system_id)
    p, q = system.sample_payloads(np.random.default_rng(seed), 2)
    pairs = [(p, q), (p, p)]
    if system_id in ("toeplitz", "thuemorse"):
        addr = p[0].add_int(seed % 2300 - 1150)  # -addr inside or beyond the grid depth
        pairs.append((make_toeplitz_payload(addr, 0) + p[2:],
                      make_toeplitz_payload(addr, 1) + p[2:]))
    if system_id == "sturmian":
        pairs.append(((p[0], 0), (p[0], 1)))
    return system, pairs


@given(st.sampled_from(["toeplitz", "thuemorse", "sturmian"]),
       st.integers(min_value=0, max_value=10**6))
def test_symbolic_dist_matches_letter_rule_bit_for_bit(system_id, seed):
    system, pairs = _drawn_pairs(system_id, seed)
    for p, q in pairs:
        assert system.dist(p, q).hex() == _reference.coords_dist(system, p, q).hex()


# -- parity extension -------------------------------------------------------


def test_parity_extension_recurrence():
    system = get_system("thuemorse")
    base = get_system("toeplitz")
    p = system.parse_point("addr=int:0 flag=plain bit=0")
    xs = system.coords(p, -12, 12)
    ys = base.coords(p[:2], -12, 12)
    for i in range(24):
        assert xs[i + 1] == xs[i] ^ ys[i]
    assert xs[12] == 0  # anchored at position 0


@given(small_ints, st.integers(min_value=-60, max_value=60),
       st.integers(min_value=-60, max_value=60))
@settings(max_examples=60)
def test_parity_extension_group_law(z, g, h):
    system = get_system("thuemorse")
    p = system.parse_point("addr=int:%d flag=primed bit=1" % z)
    assert system.act(system.act(p, g), h) == system.act(p, g + h)


@given(small_ints, st.integers(min_value=-40, max_value=40))
@settings(max_examples=60)
def test_parity_extension_act_translates_coords(z, g):
    system = get_system("thuemorse")
    p = system.parse_point("addr=int:%d flag=plain bit=1" % z)
    moved = system.act(p, g)
    assert list(system.coords(moved, -9, 9)) \
        == list(system.coords(p, -9 + g, 9 + g))


def test_complement_differs_everywhere():
    system = get_system("thuemorse")
    p = system.parse_point("addr=int:5 flag=plain bit=0")
    q = complement(p)
    wp, wq = system.coords(p, -100, 100), system.coords(q, -100, 100)
    assert np.all(wp ^ wq == 1)
    assert system.dist(p, q) == 1.0


def test_substitution_languages_frozen():
    assert sorted(substitution_language(TM_RULES, 3)) \
        == ["001", "010", "011", "100", "101", "110"]
    assert sorted(substitution_language(PD_RULES, 2)) == ["00", "01", "10"]
    assert exchange_language(frozenset({"01", "00"})) \
        == frozenset({"10", "11"})


def test_window_match_fraction_counts():
    letters = np.array([0, 1, 0, 0], dtype=np.uint8)
    assert window_match_fraction(letters, frozenset({"01", "10", "00"}), 2) \
        == 1
    assert window_match_fraction(letters, frozenset({"01"}), 2) \
        == Fraction(1, 3)
    with pytest.raises(ValueError):
        window_match_fraction(letters, frozenset(), 0)


# -- sturmian / rotation ------------------------------------------------------


def test_golden_units_are_odd():
    assert A_UNITS % 2 == 1
    assert T_UNITS == (1 << 64) - A_UNITS
    # freeze the coding of the base orbit
    system = get_system("sturmian")
    up = system.parse_point("orbit=0 side=upper")
    low = system.parse_point("orbit=0 side=lower")
    assert list(system.coords(up, -5, 5)) == [1, 1, 0, 1, 1, 0, 1, 0, 1, 1, 0]
    assert list(system.coords(low, -5, 5)) == [1, 1, 0, 1, 0, 1, 1, 0, 1, 1, 0]


@given(small_ints)
def test_sturmian_sides_differ_in_two_positions(k):
    system = get_system("sturmian")
    up = system.parse_point("orbit=%d side=upper" % k)
    low = system.parse_point("orbit=%d side=lower" % k)
    wa = system.coords(up, -250, 250)
    wb = system.coords(low, -250, 250)
    diffs = [t for t in range(-250, 251) if wa[t + 250] != wb[t + 250]]
    assert diffs == sorted((-k, -k - 1))


@given(small_ints, st.integers(min_value=-50, max_value=50))
def test_sturmian_act_translates_coords(k, g):
    system = get_system("sturmian")
    p = system.parse_point("orbit=%d side=lower" % k)
    moved = system.act(p, g)
    assert list(system.coords(moved, -8, 8)) \
        == list(system.coords(p, -8 + g, 8 + g))


@given(st.integers(min_value=0, max_value=(1 << 64) - 1),
       st.integers(min_value=0, max_value=(1 << 64) - 1),
       small_ints)
def test_rotation_is_an_exact_isometry(u, v, g):
    system = get_system("rotation")
    assert system.dist(system.act(u, g), system.act(v, g)) \
        == system.dist(u, v)
    assert system.dist(u, v) == system.dist(v, u)
    assert system.dist(u, v) <= 0.5


def test_rotation_distance_values():
    system = get_system("rotation")
    assert system.dist(0, 1 << 63) == 0.5
    assert system.dist(0, 1 << 62) == 0.25
    assert system.dist(0, (1 << 64) - (1 << 62)) == 0.25  # wraps the circle


# -- interval mirror ---------------------------------------------------------


def test_level_of_and_step_frozen():
    assert level_of(0.3) == 3
    assert level_of(0.25) == 4
    assert level_of(1.0) == 1
    assert level_of(0.5) == 2
    assert level_of(0.34) == 2
    assert level_of(0.0) == 0
    with pytest.raises(ValueError):
        level_of(1.5)
    assert step(0.3) == 0.29833333333333334
    assert step(0.0) == 0.0 and step(1.0) == 1.0
    for L in range(1, 7):
        a, b = 1 / (L + 1), 1 / L
        assert step(a) == a and step(b) == b  # plateau endpoints are fixed


@given(st.floats(min_value=0.05, max_value=1.0, allow_nan=False))
def test_step_back_inverts_step(y):
    z = step_back(step(y))
    assert abs(z - y) < 1e-12


def test_interval_metric_frozen():
    system = get_system("interval61")
    hat3 = system.parse_point("y=0.3 branch=hat")
    check3 = system.parse_point("y=0.3 branch=check")
    hat25 = system.parse_point("y=0.25 branch=hat")
    assert system.dist(hat3, check3) == 0.6
    assert system.dist(hat3, hat25) == 0.07071067811865474
    assert system.dist(hat3, hat3) == 0.0
    assert system.dist(check3, hat3) == system.dist(hat3, check3)
    assert system.diameter == 2.0


def test_interval_backward_orbit_climbs_to_plateau_top():
    system = get_system("interval61")
    p = system.parse_point("y=0.3 branch=hat")
    values = [system.value(system.act(p, -g)) for g in range(0, 4000, 400)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values[1] > values[0]  # strict until it hits the plateau top
    assert abs(values[-1] - 1 / 3) < 1e-12
    q = system.act(p, -7)
    assert system.act(q, 7) == p  # offsets make the group law exact


# -- shell stack --------------------------------------------------------------


def _advance(t, eps, back=False):
    """One step of the shell orbit walk, forward or backward."""
    return float(shells._walk(t, eps, 1, back, np.empty(1))[0])


def test_shell_advance_never_crosses_the_top():
    ts = shells._walk(6.2, 1.0, 5000, False, np.empty(5000))
    assert ts.max() < TWO_PI
    assert TWO_PI - ts[-1] < 1e-2


@given(st.floats(min_value=0.0, max_value=6.28, allow_nan=False),
       st.integers(min_value=1, max_value=8))
@example(t=4.712890625, k=1)
def test_shell_advance_back_inverts(t, k):
    eps = 1.0 / k
    u = _advance(t, eps)
    s = _advance(u, eps, back=True)
    # backward error: s maps back onto u up to the rounding of the map
    # itself (the final sum, and eps times the rounding of cos) plus one
    # step between neighbouring floats
    assert abs(_advance(s, eps) - u) <= 3 * math.ulp(u) + eps * math.ulp(1.0)
    # forward error only where g'(t) = 1 + eps*sin(t) is not near 0: around
    # 3*pi/2 with eps = 1 a range of floats maps onto the same u
    if 1 + eps * math.sin(t) >= 1e-3:
        assert abs(s - t) < 1e-9


def test_shell_metric_and_identity_level():
    system = get_system("shells62")
    a = system.parse_point("level=1 t=0.01")
    b = system.parse_point("level=1 t=6.273185307179586")  # 2*pi - 0.01
    assert system.dist(a, b) == pytest.approx(0.02, rel=1e-3)
    c1 = system.parse_point("level=inf t=1.0")
    c2 = system.parse_point("level=inf t=1.3")
    moved = system.act(c1, 17)
    assert system.dist(moved, system.act(c2, 17)) == system.dist(c1, c2)
    assert system.diameter == pytest.approx(math.sqrt(5))
    base = get_system("shellbase62")
    assert base.dist(base.parse_point("level=2"),
                     base.parse_point("level=4")) == 0.25
    assert base.dist(base.parse_point("level=inf"),
                     base.parse_point("level=3")) == pytest.approx(1 / 3)


def test_shell_orbit_cache_is_thread_safe():
    import concurrent.futures

    system = get_system("shells62")
    p = system.parse_point("level=3 t=2.0")
    serial = [system.angle(system.act(p, g)) for g in range(-200, 200)]

    def angle_at(g):
        return system.angle(system.act(p, g))

    fresh = get_system("shells62")  # same registry object; caches shared
    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(angle_at, range(-200, 200)))
    assert parallel == serial


# -- cached orbits and vectorized profiles --------------------------------------


def _bits(profile):
    return np.asarray(profile.floats, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("system_id, p, q, lo, hi", [
    # shells: same level, both offsets nonzero, hull across offset 0
    ("shells62", (2, 1.0, 37), (2, 2.5, -53), -4096, 4096),
    ("shells62", (1, 0.01, 5), (1, TWO_PI - 0.01, -3), -6000, 3000),
    # shells: cross level, and the identity shell against a finite level
    ("shells62", (1, 0.5 * math.pi, -11), (8, math.pi, 29), -8192, 8192),
    ("shells62", (None, 1.3, 5), (4, 0.3, -7), -2048, 14336),
    ("shells62", (3, 5.5, 9000), (None, 2.0, -4), -12000, -4000),
    # interval: same branch and cross branch, offsets on both points
    ("interval61", ("hat", 0.3, 21), ("hat", 0.28, -13), -4096, 4096),
    ("interval61", ("check", 0.6, -17), ("check", 0.11, 40), -16384, 100),
    ("interval61", ("hat", 0.3, -17), ("check", 0.6, 40), -3000, 9000),
    ("interval61", ("hat", 0.22, 9), ("check", 0.22, 9), -8192, 8192),
])
def test_vectorized_profile_matches_scalar_walk_bit_for_bit(system_id, p, q, lo, hi):
    system = get_system(system_id)
    fast = system.pair_profile(p, q, lo, hi)
    slow = _reference.float_orbit_distances(system, p, q, lo, hi)
    assert (fast.lo, fast.hi, fast.kind) == (lo, hi, "float")
    _assert_same_bits(fast.floats, slow)


def test_walked_rows_match_plain_iteration():
    for x0, walk, fwd, back in (
        (0.3, interval._walk, _reference.interval_step, _reference.interval_step_back),
        (2.0, shells._walker(2),
         lambda t: _reference.shell_advance(t, 0.5),
         lambda t: _reference.shell_advance_back(t, 0.5)),
    ):
        expect = {0: x0}
        for m in range(1, 301):
            expect[m] = fwd(expect[m - 1])
            expect[-m] = back(expect[1 - m])
        spans = ((0, 300), (-300, -1), (-300, 300), (-7, -7), (5, 5))
        # one orbit over the widest range of its requests, and one a span
        orbit = walked([("anchor", x0, walk, a, b) for a, b in spans])["anchor"]
        for a, b in spans:
            for held in (orbit, walked([("anchor", x0, walk, a, b)])["anchor"]):
                got = rows(held, a, b)
                assert got.shape == (b - a + 1,)
                assert got.tolist() == [expect[m] for m in range(a, b + 1)]
                got[:] = -1.0  # the caller owns the returned array
                assert rows(held, a, b).tolist() == [expect[m] for m in range(a, b + 1)]
        assert [len(end) for end in orbit] == [301, 300]
        for m in (-42, 0, 5, 300):
            assert type(point(x0, walk, m)) is float and point(x0, walk, m) == expect[m]


def _assert_same_bits(got, want):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("level", [1, 2, 4, 8])
def test_shell_walk_matches_scalar_steps_at_scale(level):
    system, eps, n = get_system("shells62"), 1.0 / level, 1 << 16
    t0s, held = (0.5 * math.pi, math.pi, 0.01, TWO_PI - 0.01), {}
    for pair in (t0s[:2], t0s[2:]):  # two anchors a walk: forked where it can
        held.update(walked([(t0, t0, shells._walker(level), -n, n) for t0 in pair]))
    for t0, orbit in held.items():
        fwd = _reference.step_walk(lambda t: _reference.shell_advance(t, eps), t0, n)
        back = _reference.step_walk(
            lambda t: _reference.shell_advance_back(t, eps), t0, n)
        angles = back[::-1] + [t0] + fwd
        _assert_same_bits(rows(orbit, -n, n), angles)
        sin, cos, height = system._rows((level, t0, 0), orbit, -n, n)
        _assert_same_bits(sin, [math.sin(t) for t in angles])
        _assert_same_bits(cos, [math.cos(t) for t in angles])
        assert height == eps


@given(st.floats(min_value=0.0, max_value=TWO_PI, allow_nan=False),
       st.integers(min_value=1, max_value=8))
# g' = 1 + eps*sin vanishes at 3*pi/2 for k = 1: forward steps from near it,
# and backward steps from near its image 3*pi/2 + 1
@example(t=4.712890625, k=1)
@example(t=5.71238898038469, k=1)
@example(t=5.712, k=1)
# the first backward Newton iterate lands where g' = 0.0 exactly and
# f = 2e-10: the df > 1e-9 guard bisects there instead of dividing by zero
@example(t=3 * math.pi / 2 + 1 - 2e-10, k=1)
# the backward loop's exits: the 80-step cap on Newton steps alone, a
# bisection and then a Newton step that leaves s unchanged, the cap after
# bisections, and the fixed angle, where f = 0 at once
@example(t=0.48473066125345327, k=1)
@example(t=0.09302400627420648, k=1)
@example(t=0.1219264052125421, k=1)
@example(t=0.0, k=1)
@example(t=-0.0, k=1)
@settings(max_examples=300, deadline=None)
def test_shell_walk_matches_scalar_steps_on_drawn_angles(t, k):
    eps = 1.0 / k
    for back, step in ((False, _reference.shell_advance),
                       (True, _reference.shell_advance_back)):
        want = _reference.step_walk(lambda s: step(s, eps), t, 8)
        _assert_same_bits(shells._walk(t, eps, 8, back, np.empty(8)), want)


def test_interval_walk_matches_scalar_steps_at_scale():
    n = 1 << 14
    for y0 in (0.6, 0.3, 0.11):  # levels 1, 3 and 9
        got = rows(walked([(y0, y0, interval._walk, -n, n)])[y0], -n, n)
        fwd = _reference.step_walk(_reference.interval_step, y0, n)
        back = _reference.step_walk(_reference.interval_step_back, y0, n)
        _assert_same_bits(got, back[::-1] + [y0] + fwd)


def test_numpy_trig_rows_match_math_bit_for_bit():
    # the shell orbit rows come from numpy's float64 sin and cos; they must
    # equal the scalar math functions on every orbit point shells-meq reads
    # (both ends of its eight anchors) and on seeded angles in [-4 pi, 4 pi]
    system, n = get_system("shells62"), 1 << 17
    ts = np.random.default_rng(9).uniform(-4 * math.pi, 4 * math.pi, 10 ** 6)
    pinned = [(ts, np.sin(ts), np.cos(ts))]
    for level in (1, 2, 4, 8):  # one walk a level, of its two anchors
        payloads = [(level, t0, 0) for t0 in (0.5 * math.pi, math.pi)]
        held = walked([(x, x[1], shells._walker(level), -n, n - 1) for x in payloads])
        for x, orbit in held.items():
            pinned.append((rows(orbit, -n, n - 1),) + system._rows(x, orbit, -n, n - 1)[:2])
    for ts, sin, cos in pinned:
        assert len(ts) in (10 ** 6, 2 * n)
        _assert_same_bits(sin, np.fromiter(map(math.sin, ts), np.float64, len(ts)))
        _assert_same_bits(cos, np.fromiter(map(math.cos, ts), np.float64, len(ts)))


def test_concurrent_profiles_grow_both_ends_identically():
    import concurrent.futures
    import sys

    system = get_system("shells62")
    # spans that share an end with another: each range has its own samples
    spans = ([(-512 * k, 512 * k) for k in (1, 4, 2, 8, 3, 6)]
             + [(-1024, 512), (-512, 1024)]) * 3
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        # fresh anchors each round, so that builds at different spans walk
        # the same anchors side by side
        for round_ in range(6):
            p, q = (5, 1.2345 + round_ / 64, 0), (5, 4.321, 3 + round_)
            with concurrent.futures.ThreadPoolExecutor(max_workers=6) as pool:
                futures = [pool.submit(system.pair_profile, p, q, lo, hi)
                           for lo, hi in spans]
                _, pending = concurrent.futures.wait(futures, timeout=120)
            assert not pending
            results = [f.result() for f in futures]
            widest = max(results, key=len)
            for (lo, hi), prof in zip(spans, results):
                assert (prof.lo, prof.hi) == (lo, hi)
                assert np.array_equal(
                    _bits(prof), _bits(widest)[lo - widest.lo:hi - widest.lo + 1])
    finally:
        sys.setswitchinterval(interval)


def _counted_forks(monkeypatch):
    """Patch os.fork to record, in the parent, the pid of every child."""
    forks, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return forks


def _tracked_mappings(monkeypatch):
    """Patch mmap.mmap to record every mapping the parent makes; one it
    fails to make stays recorded as None."""
    import mmap

    mappings, make = [], mmap.mmap

    def tracked(*args):
        mappings.append(None)
        mappings[-1] = make(*args)
        return mappings[-1]

    monkeypatch.setattr(mmap, "mmap", tracked)
    return mappings


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _walked_orbits(monkeypatch, module):
    """Patch module.walked to record the orbits that each of its pair
    builds walks."""
    calls, walked_ = [], module.walked

    def recording(requests):
        calls.append(walked_(requests))
        return calls[-1]

    monkeypatch.setattr(module, "walked", recording)
    return calls


@pytest.mark.parametrize("system_id, p, q", [
    *(pytest.param("shells62", (k, 0.5 * math.pi, 0), (k, math.pi, 0),
                   id="shells62-level%d" % k) for k in (1, 2, 4, 8)),
    pytest.param("interval61", ("hat", 0.3, 0), ("check", 0.6, 0),
                 id="interval61-two-anchors"),
])
def test_forked_fill_matches_in_process_walk(system_id, p, q, monkeypatch):
    from weylab.systems import orbits

    system, n = get_system(system_id), 1 << 16
    module = shells if system_id == "shells62" else interval
    forks, mappings = _counted_forks(monkeypatch), _tracked_mappings(monkeypatch)
    filled, runs = _walked_orbits(monkeypatch, module), []
    for cpus in (1, 2):  # in process, then p's orbit in a forked child
        monkeypatch.setattr(orbits, "usable_cpus", lambda: cpus)
        filled.clear()
        profile = system.pair_profile(p, q, -n, n)
        _assert_no_child_left()
        (held,) = filled  # the build walked its two orbits
        ends = [end for orbit in held.values() for end in orbit]
        assert [len(end) for end in ends] == [n + 1, n] * 2
        runs.append((len(forks), _bits(profile), ends))
    (forks_1, profile_1, ends_1), (forks_2, profile_2, ends_2) = runs
    assert (forks_1, forks_2) == (0, 1)
    assert len(mappings) == 1 and mappings[0].closed
    assert np.array_equal(profile_1, profile_2)
    for one, two in zip(ends_1, ends_2):
        _assert_same_bits(two, one)


def _walked_pair(walk, n):
    """The interval orbits of 0.3 and 0.6 over -n..n, walked by walk."""
    return walked([(y0, y0, walk, -n, n) for y0 in (0.3, 0.6)])


def _assert_walked_here(held, n):
    """held's orbits over -n..n are those of a one-anchor walk in process."""
    for y0, orbit in held.items():
        alone = walked([(y0, y0, interval._walk, -n, n)])[y0]
        _assert_same_bits(rows(orbit, -n, n), rows(alone, -n, n))


def test_failed_child_walk_leaves_no_child_and_runs_no_caller_code(
        tmp_path, monkeypatch):
    from weylab.systems import orbits

    parent = os.getpid()

    def walk_here_only(x, n, back, out):
        if os.getpid() != parent:
            raise RuntimeError("walk fails in a child")
        return interval._walk(x, n, back, out)

    def broken(x, n, back, out):
        raise RuntimeError("walk fails")

    forks, mappings = _counted_forks(monkeypatch), _tracked_mappings(monkeypatch)
    monkeypatch.setattr(orbits, "usable_cpus", lambda: 2)
    held = _walked_pair(walk_here_only, 64)  # the child's orbit is walked again here
    with pytest.raises(RuntimeError, match="walk fails"):
        _walked_pair(broken, 8)
    # a child that returned from its walk would run the rest of this test too
    (tmp_path / str(os.getpid())).touch()
    assert len(forks) == len(mappings) == 2
    _assert_no_child_left()
    assert all(mapping.closed for mapping in mappings)
    assert [path.name for path in tmp_path.iterdir()] == [str(parent)]
    _assert_walked_here(held, 64)


def test_child_finishes_its_share_while_the_parent_walks(monkeypatch):
    # the child's share is larger than a pipe buffer (8192 points): it must
    # walk all of it and exit before the parent's own walk returns
    from weylab.systems import orbits

    parent, n, exits = os.getpid(), 1 << 14, []
    forks, mappings = _counted_forks(monkeypatch), _tracked_mappings(monkeypatch)

    def walk(x, n, back, out):
        if os.getpid() == parent and not exits:  # the parent's first walk
            child, deadline = None, time.monotonic() + 30
            while child is None and time.monotonic() < deadline:
                time.sleep(0.01)
                # WNOWAIT leaves an exited child for _fill to reap
                child = os.waitid(os.P_PID, forks[0],
                                  os.WEXITED | os.WNOHANG | os.WNOWAIT)
            exits.append(child and (child.si_code, child.si_status))
        return interval._walk(x, n, back, out)

    monkeypatch.setattr(orbits, "usable_cpus", lambda: 2)
    held = _walked_pair(walk, n)
    assert exits == [(os.CLD_EXITED, 0)]
    assert len(forks) == len(mappings) == 1
    _assert_no_child_left()
    assert mappings[0].closed
    _assert_walked_here(held, n)


def test_child_killed_mid_walk_is_walked_again_in_process(monkeypatch):
    import signal

    from weylab.systems import orbits

    parent, n = os.getpid(), 1 << 12

    def walk(x, n, back, out):
        if os.getpid() != parent and not back:  # after the backward end
            os.kill(os.getpid(), signal.SIGKILL)
        return interval._walk(x, n, back, out)

    forks, mappings = _counted_forks(monkeypatch), _tracked_mappings(monkeypatch)
    monkeypatch.setattr(orbits, "usable_cpus", lambda: 2)
    held = _walked_pair(walk, n)
    assert len(forks) == len(mappings) == 1
    _assert_no_child_left()
    assert mappings[0].closed
    _assert_walked_here(held, n)


def test_fill_beside_another_thread_does_not_fork(monkeypatch):
    import threading

    from weylab.systems import orbits

    forks = _counted_forks(monkeypatch)
    monkeypatch.setattr(orbits, "usable_cpus", lambda: 2)
    done = threading.Event()
    thread = threading.Thread(target=done.wait, args=(60,))
    thread.start()
    try:
        held = _walked_pair(interval._walk, 64)
    finally:
        done.set()
        thread.join(timeout=60)
    assert not thread.is_alive()
    assert forks == []
    _assert_walked_here(held, 64)


#: tracemalloc peak of one cold shell pair's profile build, in bytes per
#: sample of its profile: 26.0 is measured.  The build's own orbits hold
#: 16, the samples 8, and the blocks O(2^14): each block's rows and
#: distances
SHELL_PROFILE_BYTES_PER_SAMPLE = 29
#: the same for the pair's summary: 26.6 is measured.  The orbits go with
#: the build, before the limbs are made: the samples hold 8, the limbs 8
#: each (two at 2^18 samples), and the blocks O(2^14): the limb build's
#: and the scan's
SHELL_PAIR_BYTES_PER_SAMPLE = 29
#: the same two for an interval61 pair on two anchors, which builds and
#: scans as a shell pair does: 26.5 and 26.6 are measured
INTERVAL_PROFILE_BYTES_PER_SAMPLE = 29
INTERVAL_PAIR_BYTES_PER_SAMPLE = 29


def _replaying_walks(monkeypatch, module, run):
    """run()'s result, with module._walk recording its walks in process;
    then module._walk replays them.  tracemalloc slows the walk's Python
    loop about eightfold, so the traced runs replay the walks of an
    untraced one into the output array the orbit hands them."""
    from weylab.systems import orbits

    walks, walk = {}, module._walk

    def record(*args):
        *key, out = args
        walks[tuple(key)] = walk(*args).copy()
        return out

    def replay(*args):
        *key, out = args
        out[:] = walks[tuple(key)]
        return out

    monkeypatch.setattr(orbits, "usable_cpus", lambda: 1)
    monkeypatch.setattr(module, "_walk", record)
    want = run()
    monkeypatch.setattr(module, "_walk", replay)
    return want


def _traced_peak(run):
    """run()'s result and the tracemalloc peak while it ran."""
    import tracemalloc

    tracemalloc.start()
    try:
        got = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return got, peak


def _assert_pair_working_set(monkeypatch, module, x, y, bounds):
    """A cold pair's profile build and summary at dyadic_schedule(13, 16)
    stay under bounds, in bytes per sample."""
    from weylab.core import dyadic_schedule
    from weylab.estimators import PairSummary
    from weylab.systems import orbits

    schedule = dyadic_schedule(13, 16)
    lo, hi = schedule.hull_range()
    want = _replaying_walks(monkeypatch, module,
                            lambda: PairSummary.of(x, y, schedule))
    system = get_system(x.system_id)
    # the traced runs walk in process, then in a forked child, whose
    # allocations the parent's trace does not see: the parent copies the
    # points out of the child's mapping into the orbit arrays it allocates
    for cpus in (1, 2):
        monkeypatch.setattr(orbits, "usable_cpus", lambda: cpus)
        for build, bound in zip(
                (lambda: system.pair_profile(x.payload, y.payload, lo, hi),
                 lambda: PairSummary.of(x, y, schedule)), bounds):
            got, peak = _traced_peak(build)
            assert peak / (hi - lo + 1) < bound, (cpus, peak)
        assert got == want


def test_shell_pair_summary_working_set_is_bounded(monkeypatch):
    _assert_pair_working_set(
        monkeypatch, shells, Point("shells62", (2, 0.5 * math.pi, 0)),
        Point("shells62", (2, math.pi, 0)),
        (SHELL_PROFILE_BYTES_PER_SAMPLE, SHELL_PAIR_BYTES_PER_SAMPLE))


def test_interval_pair_summary_working_set_is_bounded(monkeypatch):
    _assert_pair_working_set(
        monkeypatch, interval, Point("interval61", ("hat", 0.4321, 0)),
        Point("interval61", ("check", 0.1234, 0)),
        (INTERVAL_PROFILE_BYTES_PER_SAMPLE, INTERVAL_PAIR_BYTES_PER_SAMPLE))


def test_shells_meq_sequence_working_set_is_bounded(monkeypatch):
    """The four shell pairs of shells-meq's sequence, summarized through one
    memo as the scenario does, take one pair's working set at a time: no
    pair's orbits or samples outlive its summary."""
    from weylab.core import dyadic_schedule, get_factor
    from weylab.estimators import SummaryMemo

    schedule = dyadic_schedule(13, 16)  # the scenario's
    lo, hi = schedule.hull_range()
    terms = get_factor("shells62.pi").sequence_sampler(7, 1)[0].terms
    assert len(terms) == 4

    def run():
        memo = SummaryMemo()
        return [memo(x, y, schedule) for x, y in terms]

    want = _replaying_walks(monkeypatch, shells, run)
    got, peak = _traced_peak(run)
    assert got == want
    n = hi - lo + 1
    assert peak < SHELL_PAIR_BYTES_PER_SAMPLE * n, peak / n


def _counted_walks(monkeypatch):
    """Patch both float systems' _walk to record, in process, each walk as
    (module, start and map, back) with its number of points.  The walks
    write their start point n times: these tests count what is walked,
    not what it reads."""
    from weylab.systems import orbits

    walks = []

    def counted(module):
        def walk(*args):
            *start, n, back, out = args
            walks.append(((module.__name__, *start, back), n))
            out[:] = start[0]
            return out
        return walk

    monkeypatch.setattr(orbits, "usable_cpus", lambda: 1)
    for module in (shells, interval):
        monkeypatch.setattr(module, "_walk", counted(module))
    return walks


def test_criterion_3_pattern_walks_each_orbit_once(monkeypatch):
    """Criterion 3's calls walk each orbit end once: the weyl reads and the
    two scans share one memo, and the scans' schedule is nested in the
    weyl reads' one."""
    from weylab.core import dyadic_schedule, get_factor
    from weylab.estimators import SummaryMemo
    from weylab.relations import scan_mean_equicontinuity, scan_property_M

    walks = _counted_walks(monkeypatch)
    schedule, scan_schedule = dyadic_schedule(9, 16), dyadic_schedule(13, 16)
    lo, hi = schedule.hull_range()
    assert scan_schedule.hull_range() == (lo, hi)
    memo = SummaryMemo()
    for k in (1, 2, 4, 8):
        memo(Point("shells62", (k, 0.5 * math.pi, 0)),
             Point("shells62", (k, math.pi, 0)), schedule)
    assert len(walks) == 16
    factor = get_factor("shells62.pi")
    scan_property_M(factor, scan_schedule, seed=7, pair_count=12,
                    sequence_count=2, summaries=memo)
    # the scan walks only the anchors of the five other shell pairs off the
    # identity shell that the pair sampler draws: the memo holds every
    # window of the four pairs' rows
    starts = [start for start, _ in walks]
    assert len(set(starts)) == len(starts) == 16 + 2 * 2 * 5
    scan_mean_equicontinuity(factor, scan_schedule, seed=7, sequence_count=2,
                             summaries=memo)
    assert len(walks) == 16 + 2 * 2 * 5  # the memo serves every pair
    assert {n for _, n in walks} == {hi}  # every anchor sits at offset 0


@pytest.mark.parametrize("system_id, x, g", [
    ("interval61", "y=0.3 branch=hat", 0),  # ex61's pair
    ("shells62", "level=3 t=1.0", 5),
])
def test_pair_on_one_anchor_walks_it_once(monkeypatch, system_id, x, g):
    from weylab.systems import orbits

    walks, forks = _counted_walks(monkeypatch), _counted_forks(monkeypatch)
    monkeypatch.setattr(orbits, "usable_cpus", lambda: 2)  # one anchor forks none
    system, (lo, hi) = get_system(system_id), (-4096, 4096)
    p = system.parse_point(x)
    q = system.act(p, g) if g else system.parse_point(x.replace("hat", "check"))
    first = system.pair_profile(p, q, lo, hi)
    start = walks[0][0][:-1]
    assert len(walks) == 2
    assert dict(walks) == {start + (False,): hi + g, start + (True,): -lo}
    again = system.pair_profile(p, q, lo, hi)  # nothing kept: walked again
    assert walks[2:] == walks[:2] and forks == []
    assert np.array_equal(_bits(again), _bits(first))


@pytest.mark.parametrize("system_id, p, q", [
    ("shells62", (2, 1.0, 0), (4, 2.0, 0)),
    ("interval61", ("hat", 0.3, 0), ("check", 0.6, 0)),
])
def test_float_samples_go_with_their_profile(system_id, p, q):
    import weakref

    profile = get_system(system_id).pair_profile(p, q, -4096, 4096)
    samples = weakref.ref(profile.floats)
    del profile
    assert samples() is None


def test_sequence_validation_at_offset_0_walks_nothing(monkeypatch):
    from weylab.core import get_factor

    walks = _counted_walks(monkeypatch)
    (seq,) = get_factor("shells62.pi").sequence_sampler(7, 1)  # validates
    assert seq.limit is not None and walks == []


def test_point_read_walks_its_offset_and_stores_nothing(monkeypatch):
    from weylab.systems import orbits

    walks = _counted_walks(monkeypatch)
    shell, line = get_system("shells62"), get_system("interval61")
    forks = _counted_forks(monkeypatch)
    monkeypatch.setattr(orbits, "usable_cpus", lambda: 2)
    for _ in range(2):  # nothing is kept: a second read walks again
        for m in (-300, 517, 0):  # index 0 walks nothing
            assert shell.angle((2, 1.0, m)) == 1.0  # the counted walk repeats x0
            assert line.value(("hat", 0.3, m)) == 0.3
    assert walks == 2 * [(("weylab.systems.shells", 1.0, 0.5, True), 300),
                         (("weylab.systems.interval", 0.3, True), 300),
                         (("weylab.systems.shells", 1.0, 0.5, False), 517),
                         (("weylab.systems.interval", 0.3, False), 517)]
    assert forks == []


@pytest.mark.parametrize("system_id, p, q", [
    ("shells62", (2, 1.0, 0), (4, 2.0, 0)),
    ("interval61", ("hat", 0.3, 0), ("check", 0.6, 0)),
])
@pytest.mark.parametrize("lo, hi, shift, forks_wanted", [
    (0, 2048, 0, 1), (1024, 2048, 0, 1),  # forward ends only
    (-2048, 0, 0, 1), (-2048, -1024, 0, 1),  # backward ends only
    (7, 7, 0, 1), (-7, -7, 0, 1),  # a single sample
    (-5, 0, 5, 1),  # p walks only back, q only forward
    (0, 0, 5, 0), (-5, -5, 5, 0),  # p's or q's at index 0: nothing to fork for
    (0, 0, 0, 0),  # both at index 0: nothing to walk
], ids=lambda value: str(value))
def test_one_sided_two_anchor_builds_fork_one_child(
        monkeypatch, system_id, p, q, lo, hi, shift, forks_wanted):
    """An anchor with no points to walk never reaches the fork: its
    mmap.mmap(-1, 0) raises, ValueError or OSError by platform."""
    from weylab.systems import orbits

    system = get_system(system_id)
    q = system.act(q, shift)
    forks, mappings = _counted_forks(monkeypatch), _tracked_mappings(monkeypatch)
    monkeypatch.setattr(orbits, "usable_cpus", lambda: 2)
    profile = system.pair_profile(p, q, lo, hi)
    _assert_no_child_left()
    assert len(forks) == len(mappings) == forks_wanted
    assert all(mapping.closed for mapping in mappings)
    assert (profile.lo, profile.hi, profile.kind) == (lo, hi, "float")
    _assert_same_bits(profile.floats, _reference.float_orbit_distances(system, p, q, lo, hi))


# -- parse/format roundtrips ---------------------------------------------------


@pytest.mark.parametrize("system_id", [
    "odometer", "toeplitz", "thuemorse", "sturmian", "rotation",
    "interval61", "shells62", "shellbase62", "point",
])
def test_payload_roundtrip_through_text(system_id):
    system = get_system(system_id)
    rng = np.random.default_rng(11)
    for payload in system.sample_payloads(rng, 8):
        again = system.parse_point(system.format_point(payload))
        assert again == payload
