"""Acceptance battery: one test per shipped guarantee, one printed line each.

Every test funnels through _report, which prints ``ACCEPTANCE <n> PASS/FAIL``
and collects the line for the terminal-summary section (see conftest.py), so
the verdicts are visible in a plain ``pytest -v`` run.  Every criterion
prints its elapsed seconds; those with runtime budgets fail when over budget.
"""

import functools
import math
import time

import numpy as np

from weylab.core import (FolnerWindow, Point, default_schedule,
                         dyadic_schedule, dist, get_factor, get_system)
from weylab.dyadic import DyadicInteger
from weylab.estimators import SummaryMemo, estimate, hat, pair_profile, weyl
from weylab.profiles import SCALE
from weylab.factors import (FunctionFamily, classify_factor_map,
                            domination_check, lift_metric,
                            verify_decomposition)
from weylab.relations import (classify_pair, scan_equicontinuity,
                              scan_mean_equicontinuity, scan_property_M)
from weylab.systems.thuemorse import (PD_RULES, complement, exchange_language,
                                      substitution_language,
                                      window_match_fraction)

RESULTS = []


def _report(n, ok, msg):
    line = "ACCEPTANCE %d %s: %s" % (n, "PASS" if ok else "FAIL", msg)
    RESULTS.append(line)
    print(line)
    assert ok, line


def _pt(system_id, literal):
    return Point(system_id, get_system(system_id).parse_point(literal))


# ---------------------------------------------------------------------------
# 1. complement fibres of the parity chain sit at the metric ceiling

def test_criterion_1_complement_fibres_are_constantly_one():
    t0 = time.monotonic()
    sched = default_schedule(8)
    bad = []
    for addr in range(-10, 10):
        x = Point("thuemorse", (DyadicInteger.from_int(addr), 0, 0))
        y = Point("thuemorse", complement(x.payload))
        e = weyl(x, y, sched)
        if e.value != 1.0 or any(w.value != 1.0 for w in e.per_window):
            bad.append(addr)
    elapsed = time.monotonic() - t0
    ok = not bad and elapsed < 10.0
    _report(1, ok,
            "20 complement pairs, weyl exactly 1.0 at every window "
            "(violations: %s), %.1fs < 10s" % (bad or "none", elapsed))


# ---------------------------------------------------------------------------
# 2. interval mirror pair values 2/L on one-sided windows

def test_criterion_2_interval_mirror_pair_values():
    t0 = time.monotonic()
    sched = dyadic_schedule(7, 14, "left")
    rows = []
    ok = True
    for y0, level in ((0.3, 3), (0.22, 4), (0.6, 1)):
        a = _pt("interval61", "y=%r branch=hat" % y0)
        b = _pt("interval61", "y=%r branch=check" % y0)
        target = 2.0 / level
        for est in (weyl(a, b, sched), hat(a, b, sched)):
            within = abs(est.value - target) <= 0.05 * target
            ok = ok and within
            rows.append("%s(y=%g)=%.4f~%.4f" % (est.kind, y0, est.value,
                                                target))
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    _report(2, ok, "one-sided windows to 2^14: %s, %.1fs < 60s"
            % ("; ".join(rows), elapsed))


# ---------------------------------------------------------------------------
# 3. shell stack dichotomy: summable fibres vs rigid limit circle

def test_criterion_3_shell_stack_dichotomy():
    t0 = time.monotonic()
    fib_sched = dyadic_schedule(9, 16)
    memo = SummaryMemo()  # the weyl reads and both scans share one memo
    worst = 0.0
    for k in (1, 2, 4, 8):
        x = Point("shells62", (k, 0.5 * math.pi, 0))
        y = Point("shells62", (k, math.pi, 0))
        worst = max(worst, memo(x, y, fib_sched).weyl.value)
    rigid_exact = True
    for t1, t2 in ((0.5 * math.pi, math.pi), (1.0, 1.3), (0.25, 5.9)):
        x = Point("shells62", (None, t1, 0))
        y = Point("shells62", (None, t2, 0))
        rigid_exact = rigid_exact and weyl(x, y, fib_sched).value == dist(x, y)
    factor, scan_sched = get_factor("shells62.pi"), dyadic_schedule(13, 16)
    pm = scan_property_M(factor, scan_sched, seed=7, pair_count=12,
                         sequence_count=2, summaries=memo)
    meq = scan_mean_equicontinuity(factor, scan_sched, seed=7,
                                   sequence_count=2, summaries=memo)
    witnessed = meq.holds is False and any(
        "shell" in v for v in meq.violations)
    ok = worst < 0.05 and rigid_exact and pm.holds and witnessed
    _report(3, ok,
            "fibre weyl <= %.4f < 0.05 (k <= 8), limit-circle weyl == d "
            "exactly: %s; small-d-small-D scan holds: %s; mean "
            "equicontinuity fails with a shell-sequence witness: %s; %.1fs"
            % (worst, rigid_exact, pm.holds, witnessed,
               time.monotonic() - t0))


# ---------------------------------------------------------------------------
# 4. odometer-extension fibres are Banach proximal to working precision

def test_criterion_4_toeplitz_fibres_nearly_vanish():
    t0 = time.monotonic()
    sched = dyadic_schedule(8, 16)
    worst = 0.0
    for z in range(-10, 10):
        x = Point("toeplitz", (DyadicInteger.from_int(z), 0))
        y = Point("toeplitz", (DyadicInteger.from_int(z), 1))
        worst = max(worst, weyl(x, y, sched).value)
    ok = worst < 0.01
    _report(4, ok, "20 integer-address fibre pairs at 2^16: "
            "worst weyl %.6f < 0.01; %.1fs" % (worst, time.monotonic() - t0))


# ---------------------------------------------------------------------------
# 5. the parity chain classification table

@functools.lru_cache(maxsize=None)
def _chain_classification(map_id):
    return classify_factor_map(map_id, dyadic_schedule(10, 14), seed=3,
                               pair_count=12, sequence_count=3)


def test_criterion_5_chain_classification_table():
    t0 = time.monotonic()
    phi = _chain_classification("tm.phi")
    psi = _chain_classification("tm.psi")
    pi = _chain_classification("tm.pi")
    expectations = [
        ("phi equicontinuous", phi.equicontinuous, True),
        ("phi distal", phi.distal, True),
        ("phi banach_distal", phi.banach_distal, True),
        ("phi mean_equicontinuous", phi.mean_equicontinuous, True),
        ("phi banach_proximal", phi.banach_proximal, False),
        ("psi banach_proximal", psi.banach_proximal, True),
        ("psi proximal", psi.proximal, True),
        ("psi topo_isomorphic", psi.topo_isomorphic, True),
        ("psi mean_equicontinuous", psi.mean_equicontinuous, True),
        ("psi equicontinuous", psi.equicontinuous, False),
        ("psi distal", psi.distal, False),
        ("pi banach_distal", pi.banach_distal, True),
        ("pi distal", pi.distal, False),
        ("pi mean_equicontinuous", pi.mean_equicontinuous, False),
        ("pi property_M", pi.property_M, False),
        ("pi banach_proximal", pi.banach_proximal, False),
        ("pi equicontinuous", pi.equicontinuous, False),
    ]
    wrong = ["%s=%s" % (name, got)
             for name, got, want in expectations if got is not want]
    warnings = phi.warnings + psi.warnings + pi.warnings
    ok = not wrong and not warnings
    _report(5, ok, "phi equicontinuous+distal, psi Banach proximal, "
            "pi Banach distal but neither distal nor mean equicontinuous "
            "(mismatches: %s; warnings: %s); %.1fs"
            % (wrong or "none", list(warnings) or "none",
               time.monotonic() - t0))


# ---------------------------------------------------------------------------
# 6. the golden chain decomposes through its maximal equicontinuous leg

def test_criterion_6_sturmian_decomposition_witness():
    t0 = time.monotonic()
    rep = verify_decomposition("sturm.pi", "sturm.phi", "sturm.psi",
                               dyadic_schedule(8, 12), seed=5, pair_count=10,
                               sequence_count=3)
    sched = dyadic_schedule(8, 16)
    worst = 0.0
    for k in range(-10, 10):
        x = Point("sturmian", (k, 0))
        y = Point("sturmian", (k, 1))
        worst = max(worst, weyl(x, y, sched).value)
    eq = scan_equicontinuity(get_factor("sturm.psi"), dyadic_schedule(8, 12),
                             seed=5, pair_count=12)
    ok = rep.passed and worst < 0.01 and eq.holds and eq.delta_equals_eps
    _report(6, ok, "decomposition verified: %s; coding fibre weyl <= %.6f "
            "< 0.01; rotation equicontinuous with delta == eps: %s; %.1fs"
            % (rep.passed, worst, eq.holds and eq.delta_equals_eps,
               time.monotonic() - t0))


# ---------------------------------------------------------------------------
# 7. property battery: exact identities the estimators must satisfy

_EXP2_SYSTEMS = {"thuemorse", "toeplitz", "odometer", "sturmian"}


def _pair_pool():
    tm = Point("thuemorse", (DyadicInteger.from_int(3), 0, 0))
    pool = [
        ("tm complement", tm, Point("thuemorse", complement(tm.payload))),
        ("tm flag", _pt("thuemorse", "addr=int:0 flag=plain"),
         _pt("thuemorse", "addr=int:0 flag=primed")),
        ("toeplitz fibre", _pt("toeplitz", "addr=int:5 flag=plain"),
         _pt("toeplitz", "addr=int:5 flag=primed")),
        ("toeplitz offset", _pt("toeplitz", "addr=int:2 flag=plain"),
         _pt("toeplitz", "addr=int:9 flag=plain")),
        ("odometer", _pt("odometer", "int:0"), _pt("odometer", "int:7")),
        ("odometer diag", _pt("odometer", "int:5"), _pt("odometer", "int:5")),
        ("sturmian fibre", Point("sturmian", (4, 0)),
         Point("sturmian", (4, 1))),
        ("sturmian offset", Point("sturmian", (0, 0)),
         Point("sturmian", (3, 0))),
        ("rotation arc", _pt("rotation", "units=0"),
         Point("rotation", int(0.3 * 2 ** 64))),
        ("interval branches", _pt("interval61", "y=0.3 branch=hat"),
         _pt("interval61", "y=0.3 branch=check")),
        ("interval same branch", _pt("interval61", "y=0.3 branch=hat"),
         _pt("interval61", "y=0.28 branch=hat")),
        ("shell pair", Point("shells62", (2, 1.0, 0)),
         Point("shells62", (2, 2.5, 0))),
        ("shell straddle", Point("shells62", (1, 0.01, 0)),
         Point("shells62", (1, 2.0 * math.pi - 0.01, 0))),
        ("limit circle", Point("shells62", (None, 1.0, 0)),
         Point("shells62", (None, 2.0, 0))),
        ("shell base", _pt("shellbase62", "level=2"),
         _pt("shellbase62", "level=5")),
    ]
    return pool


def _battery_symmetry_and_lattice(notes):
    kinds = ("check", "besicovitch", "weyl", "hat")
    for sched in (dyadic_schedule(5, 9), dyadic_schedule(4, 8, "left")):
        for label, x, y in _pair_pool():
            ests = {}
            for kind in kinds:
                fwd = estimate(kind, x, y, sched)
                rev = estimate(kind, y, x, sched)
                if (fwd.exact != rev.exact or fwd.value != rev.value
                        or [(w.exact, w.translate) for w in fwd.per_window]
                        != [(w.exact, w.translate) for w in rev.per_window]):
                    notes.append("symmetry broken: %s/%s" % (label, kind))
                ests[kind] = fwd
            if not (ests["check"].exact <= ests["besicovitch"].exact
                    <= ests["weyl"].exact <= ests["hat"].exact):
                notes.append("value lattice broken: %s" % label)
            for wc, wb, ww, wh in zip(*(ests[k].per_window for k in kinds)):
                if not (wc.exact <= wb.exact <= ww.exact <= wh.exact):
                    notes.append("window lattice broken: %s" % label)
                    break


def _battery_triangle(notes):
    triples = [
        ("thuemorse", [(DyadicInteger.from_int(a), f, b)
                       for a, f, b in ((0, 0, 0), (0, 0, 1), (3, 1, 0))]),
        ("toeplitz", [(DyadicInteger.from_int(a), f)
                      for a, f in ((0, 0), (0, 1), (5, 0))]),
        ("odometer", [DyadicInteger.from_int(a) for a in (0, 3, 12)]),
        ("sturmian", [(0, 0), (0, 1), (5, 0)]),
        ("rotation", [0, int(0.3 * 2 ** 64), int(0.77 * 2 ** 64)]),
        ("interval61", [("hat", 0.3, 0), ("check", 0.3, 0),
                        ("hat", 0.28, 0)]),
        ("shells62", [(2, 1.0, 0), (2, 2.5, 0), (None, 1.5, 0)]),
    ]
    lo, hi = -100, 100
    width = hi - lo + 1
    for system_id, payloads in triples:
        pts = [Point(system_id, p) for p in payloads]
        for i, j, k in ((0, 1, 2), (0, 2, 1), (1, 0, 2)):
            pxz = pair_profile(pts[i], pts[k], lo, hi).prefix()[-1]
            pxy = pair_profile(pts[i], pts[j], lo, hi).prefix()[-1]
            pyz = pair_profile(pts[j], pts[k], lo, hi).prefix()[-1]
            if system_id in _EXP2_SYSTEMS:
                good = pxz <= pxy + pyz
            else:
                good = (pxz - pxy - pyz) / (SCALE * width) <= 1e-12
            if not good:
                notes.append("triangle broken on %s (%d,%d,%d)"
                             % (system_id, i, j, k))


def _battery_translation_consistency(notes):
    for label, x, y in _pair_pool():
        system = get_system(x.system_id)
        for g in (-37, -1, 0, 1, 50):
            moved = pair_profile(Point(x.system_id,
                                       system.act(x.payload, g)),
                                 Point(y.system_id,
                                       system.act(y.payload, g)),
                                 -40, 40)
            slid = pair_profile(x, y, -40 + g, 40 + g)
            if moved.scaled() != slid.scaled():
                notes.append("translation consistency broken: %s g=%d"
                             % (label, g))
                break


def _battery_domination(notes, rounds=200):
    rng = np.random.default_rng(2026)

    def digit(j):
        return lambda p: float(p.digit(j))

    def digit_sum_parity(j):
        return lambda p: float(sum(p.digits(j)) % 2)

    observables = ([digit(j) for j in range(8)]
                   + [digit_sum_parity(j) for j in (2, 3, 5)]
                   + [lambda p: 0.5, lambda p: float(p.digit(0) == p.digit(1))])
    system = get_system("odometer")
    worst = None
    for _ in range(rounds):
        size = int(rng.integers(1, 6))
        idx_f = rng.integers(0, len(observables), size)
        idx_h = rng.integers(0, len(observables), size)
        fam_f = FunctionFamily("f", "odometer",
                               tuple(observables[i] for i in idx_f))
        fam_h = FunctionFamily("h", "odometer",
                               tuple(observables[i] for i in idx_h))
        p, q = system.sample_payloads(rng, 2)
        lo = int(rng.integers(-30, 30))
        window = FolnerWindow(lo, lo + int(rng.integers(0, 20)))
        rep = domination_check(fam_f, fam_h, Point("odometer", p),
                               Point("odometer", q), window)
        if worst is None or rep.slack < worst:
            worst = rep.slack
        if not rep.holds or rep.slack < 0:
            notes.append("domination slack negative: %s" % rep.slack)
            return
    assert worst is not None and worst >= 0


def _battery_lifted_monotonicity(notes, rounds=200):
    lifted_id = lift_metric("tm.psi")
    psi = get_factor("tm.psi")
    sched = dyadic_schedule(5, 9)
    rng = np.random.default_rng(99)
    for _ in range(rounds):
        num1, num2 = (int(v) for v in rng.integers(-4000, 4000, 2))
        flags = rng.integers(0, 2, 2)
        x = Point("toeplitz", (DyadicInteger.from_int(num1), int(flags[0])))
        y = Point("toeplitz", (DyadicInteger.from_int(num2), int(flags[1])))
        up = weyl(Point(lifted_id, x.payload), Point(lifted_id, y.payload),
                  sched)
        down = weyl(psi.apply(x), psi.apply(y), sched)
        if up.exact < down.exact:
            notes.append("lifted weyl below downstream weyl at %s / %s"
                         % (x, y))
            return


def _battery_verdict_lattice(notes):
    verdicts = []
    sched = dyadic_schedule(6, 10)
    for label, x, y in _pair_pool():
        verdicts.append(classify_pair(x, y, sched))
    for map_id in ("tm.phi", "tm.psi", "tm.pi", "sturm.phi", "sturm.psi",
                   "sturm.pi", "shells62.pi"):
        factor = get_factor(map_id)
        for x, y in factor.pair_sampler(11, 6):
            verdicts.append(classify_pair(x, y, sched, factor=factor))
    for map_id in ("tm.phi", "tm.psi", "tm.pi"):
        verdicts.extend(_chain_classification(map_id).pair_verdicts)
    for v in verdicts:
        claims = [
            (not v.banach_proximal or v.proximal, "BP implies proximal"),
            (not v.distal or v.banach_distal,
             "distal implies Banach distal"),
            (not (v.proximal and v.distal), "proximal and distal clash"),
            (not (v.banach_proximal and v.banach_distal),
             "BP and Banach distal clash"),
            (v.check_value <= v.besicovitch_value <= v.weyl_value
             <= v.hat_value + 1e-15, "verdict value ordering"),
            (v.diagonal or v.inconclusive == (not (v.proximal or v.distal)),
             "inconclusive flag inconsistent"),
            (not v.diagonal or (v.banach_proximal and not v.distal),
             "diagonal verdict malformed"),
        ]
        for good, what in claims:
            if not good:
                notes.append("%s (%s vs %s)" % (what, v.x, v.y))
    assert len(verdicts) > 60


def test_criterion_7_property_battery():
    t0 = time.monotonic()
    notes = []
    _battery_symmetry_and_lattice(notes)
    _battery_triangle(notes)
    _battery_translation_consistency(notes)
    _battery_domination(notes)
    _battery_lifted_monotonicity(notes)
    _battery_verdict_lattice(notes)
    elapsed = time.monotonic() - t0
    ok = not notes and elapsed < 120.0
    _report(7, ok, "symmetry, window/value lattices, fixed-window triangle, "
            "translation consistency, domination slack >= 0 (x200), lifted "
            "monotonicity (x200), verdict lattice: %s; %.1fs < 120s"
            % (notes[:3] or "all hold", elapsed))


# ---------------------------------------------------------------------------
# 8. the doubling-substitution language contains every observed window

def test_criterion_8_substitution_language_cross_check():
    t0 = time.monotonic()
    system = get_system("toeplitz")
    payload = system.parse_point("addr=int:0 flag=plain")
    radius = 1 << 18
    letters = system.coords(payload, -radius, radius)
    smaller = system.coords(payload, -(radius // 2), radius // 2)
    ok = True
    stable = True
    for length in range(1, 17):
        words = exchange_language(substitution_language(PD_RULES, length))
        frac = window_match_fraction(letters, words, length)
        ok = ok and frac == 1
        stable = stable and window_match_fraction(smaller, words, length) == 1
    plain_two = window_match_fraction(
        letters, substitution_language(PD_RULES, 2), 2)
    resolved = plain_two < 1
    ok = ok and stable and resolved
    _report(8, ok,
            "all windows of length <= 16 over +/-2^18 lie in the "
            "letter-exchanged doubling language (stable at half radius: %s); "
            "the unexchanged convention already fails at length 2 "
            "(fraction %.3f), which settles the symbol-convention question; "
            "%.1fs" % (stable, float(plain_two), time.monotonic() - t0))
