import numpy as np
import pytest
from hypothesis import given, strategies as st

import weylab
from weylab.core import (CrossSystemError, FolnerSchedule, FolnerWindow,
                         Point, UnknownFactorError, UnknownSystemError, act,
                         default_schedule, dist, dyadic_schedule, get_factor,
                         get_system, parse_fields)


def test_window_basics():
    w = FolnerWindow(-4, 4)
    assert len(w) == 9
    assert w.shifted(3) == FolnerWindow(-1, 7)
    with pytest.raises(ValueError):
        FolnerWindow(2, 1)


@given(st.integers(min_value=-100, max_value=100),
       st.integers(min_value=0, max_value=200))
def test_symmetric_difference_ratio(lo, span):
    w = FolnerWindow(lo, lo + span)
    # shifting by one swaps in/out exactly one endpoint each
    assert w.symmetric_difference_ratio() == 2 / len(w)


def test_schedule_validation():
    w = (FolnerWindow(-1, 1), FolnerWindow(-2, 2))
    FolnerSchedule(w, (1, 2), "symmetric")
    with pytest.raises(ValueError):
        FolnerSchedule((), (), "symmetric")
    with pytest.raises(ValueError):
        FolnerSchedule(w, (1,), "symmetric")
    with pytest.raises(ValueError):  # cardinalities must strictly grow
        FolnerSchedule((FolnerWindow(0, 2), FolnerWindow(-2, 0)), (1, 1),
                       "symmetric")
    with pytest.raises(ValueError):  # radii must not shrink
        FolnerSchedule(w, (2, 1), "symmetric")
    with pytest.raises(ValueError):
        FolnerSchedule(w, (1, -1), "symmetric")
    with pytest.raises(ValueError):
        FolnerSchedule(w, (1, 2), "diagonal")


def test_dyadic_schedule_shapes():
    sched = default_schedule(3)
    assert [len(w) for w in sched.windows] == [3, 5, 9, 17]
    assert sched.translate_radius == (1, 2, 4, 8)
    assert sched.windows[0] == FolnerWindow(-1, 1)
    left = dyadic_schedule(2, 4, "left")
    assert left.windows == (FolnerWindow(-4, 0), FolnerWindow(-8, 0),
                            FolnerWindow(-16, 0))
    assert left.translate_radius == (4, 8, 16)
    with pytest.raises(ValueError):
        default_schedule(0)
    with pytest.raises(ValueError):
        dyadic_schedule(5, 3)


def test_schedule_tail_and_hull():
    sched = default_schedule(4)
    assert list(sched.tail_windows()) == [2, 3, 4]
    lo, hi = sched.hull_range()
    assert lo == -32 and hi == 32
    left = dyadic_schedule(3, 5, "left")
    assert left.hull_range() == (-64, 32)


def test_registry_lookup_and_errors():
    assert "thuemorse" in weylab.system_ids()
    with pytest.raises(UnknownSystemError):
        get_system("nope")
    with pytest.raises(UnknownFactorError):
        get_factor("nope.pi")
    fm = get_factor("tm.psi")
    assert fm.source == "toeplitz" and fm.target == "odometer"


def test_identity_factor_factory():
    ident = get_factor("identity.odometer")
    assert ident.source == ident.target == "odometer"
    p = Point("odometer", get_system("odometer").parse_point("int:7"))
    assert ident.apply(p).payload == p.payload
    pairs = ident.pair_sampler(0, 5)
    assert len(pairs) >= 5
    assert all(a.payload == b.payload for a, b in pairs)
    with pytest.raises(UnknownFactorError):
        get_factor("identity.nope")


def test_point_formatting_and_module_act():
    system = get_system("odometer")
    x = Point("odometer", system.parse_point("int:3"))
    assert str(x) == "odometer:int:3"
    y = act(x, 5)
    assert y.payload.as_int() == 8
    assert dist(x, x) == 0.0
    other = Point("toeplitz",
                  get_system("toeplitz").parse_point("addr=int:0"))
    with pytest.raises(CrossSystemError):
        dist(x, other)


def test_parse_fields_fills_defaults_and_rejects_bad_tokens():
    keys = {"addr": None, "flag": "plain", "bit": "0"}
    assert parse_fields("addr=int:3", keys) == {
        "addr": "int:3", "flag": "plain", "bit": "0"}
    # values come back in the order of keys, whatever the token order
    assert list(parse_fields("bit=1 addr=int:3", keys).values()) == [
        "int:3", "plain", "1"]
    for text, message in [("addr=int:3 flag", "expected key=value"),
                          ("addr=int:3 side=upper", "unknown key 'side'"),
                          ("flag=primed", "missing key addr")]:
        with pytest.raises(ValueError, match=message):
            parse_fields(text, keys)


def test_sample_payloads_deterministic():
    system = get_system("sturmian")
    a = system.sample_payloads(np.random.default_rng(7), 6)
    b = system.sample_payloads(np.random.default_rng(7), 6)
    assert a == b
    assert len(a) == 6


def test_factor_apply_checks_source():
    fm = get_factor("tm.phi")
    wrong = Point("odometer", get_system("odometer").parse_point("int:0"))
    with pytest.raises(CrossSystemError):
        fm.apply(wrong)
