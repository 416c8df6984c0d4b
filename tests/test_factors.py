import collections
import dataclasses
import hashlib
from fractions import Fraction

import pytest

from weylab.core import (CompositionError, FactorMap, FolnerWindow, Point,
                         dyadic_schedule, factor_ids, get_factor,
                         get_system, system_ids)
from weylab.estimators import SummaryMemo, weyl
from weylab.factors import (FunctionFamily, classify_factor_map,
                            d_family, d_family_fraction, domination_check,
                            lift_metric, verify_decomposition)
from weylab.relations import (PairSequence, Tolerances, scan_equicontinuity,
                              scan_mean_equicontinuity, scan_property_M)

SCHED = dyadic_schedule(8, 12)


def _pt(system_id, text):
    return Point(system_id, get_system(system_id).parse_point(text))


def _digit_family(name, offsets):
    return FunctionFamily(
        name, "odometer",
        tuple((lambda p, i=i: float(p.digit(i))) for i in offsets))


def test_function_family_validation_and_bound():
    with pytest.raises(ValueError):
        FunctionFamily("empty", "odometer", ())
    fam = _digit_family("bits", (0, 1, 2))
    assert fam.truncation_bound() == 0.25


def test_d_family_values():
    fam = _digit_family("bits", (0, 1))
    p = get_system("odometer").parse_point("int:1")  # digits 1,0
    q = get_system("odometer").parse_point("int:2")  # digits 0,1
    assert d_family_fraction(fam, p, q) == Fraction(3, 2)
    assert d_family(fam, p, p) == 0.0


def test_domination_of_a_family_by_itself_is_tight():
    fam = _digit_family("bits", (0, 1, 2))
    x, y = _pt("odometer", "int:3"), _pt("odometer", "int:12")
    report = domination_check(fam, fam, x, y, FolnerWindow(-6, 6))
    assert report.holds
    assert report.slack == 0
    assert report.lhs == report.rhs


def test_domination_against_a_coarser_family():
    fine = _digit_family("bits", (0, 1))
    coarse = FunctionFamily("flat", "odometer",
                            (lambda p: 0.0, lambda p: float(p.digit(1))))
    x, y = _pt("odometer", "int:5"), _pt("odometer", "int:6")
    report = domination_check(fine, coarse, x, y, FolnerWindow(0, 7))
    assert report.holds
    assert report.slack >= 0
    assert report.rhs == report.lhs + report.slack


def test_domination_rejects_mismatched_families():
    fam = _digit_family("bits", (0,))
    other = _digit_family("more", (0, 1))
    x, y = _pt("odometer", "int:0"), _pt("odometer", "int:1")
    with pytest.raises(ValueError):
        domination_check(fam, other, x, y, FolnerWindow(0, 3))


def test_lift_metric_registers_graph_metric():
    lifted_id = lift_metric("tm.psi")
    assert lifted_id == "lifted:tm.psi"
    assert lift_metric("tm.psi") == lifted_id  # idempotent
    lifted = get_system(lifted_id)
    src = get_system("toeplitz")
    tgt = get_system("odometer")
    p = src.parse_point("addr=int:0 flag=plain")
    q = src.parse_point("addr=int:7 flag=primed")
    assert lifted.dist(p, q) \
        == src.dist(p, q) + tgt.dist(p[0], q[0])
    assert lifted.diameter == src.diameter + tgt.diameter
    prof = lifted.pair_profile(p, q, -4, 4)
    sp = src.pair_profile(p, q, -4, 4)
    tp = tgt.pair_profile(p[0], q[0], -4, 4)
    assert len(prof) == 9
    assert prof.scaled() == [a + b for a, b in zip(sp.scaled(), tp.scaled())]


def test_lifted_weyl_dominates_target_weyl():
    lift_metric("tm.psi")
    fm = get_factor("tm.psi")
    src = get_system("toeplitz")
    import numpy as np
    rng = np.random.default_rng(5)
    payloads = src.sample_payloads(rng, 8)
    for p, q in zip(payloads[::2], payloads[1::2]):
        up = weyl(Point("lifted:tm.psi", p), Point("lifted:tm.psi", q),
                  SCHED)
        down = weyl(Point("odometer", fm.apply_payload(p)),
                    Point("odometer", fm.apply_payload(q)), SCHED)
        assert down.exact <= up.exact


def test_classify_requires_a_pair_sampler():
    bare = FactorMap(map_id="bare", source="rotation", target="point",
                     apply_payload=lambda p: "pt")
    with pytest.raises(CompositionError):
        classify_factor_map(bare, SCHED)


def test_classification_flags_on_the_chain():
    phi = classify_factor_map("tm.phi", SCHED, seed=0, pair_count=8,
                              sequence_count=3)
    assert phi.equicontinuous and phi.mean_equicontinuous
    assert phi.distal and phi.banach_distal and phi.property_M
    assert not phi.banach_proximal and not phi.topo_isomorphic
    assert not phi.warnings
    psi = classify_factor_map("tm.psi", SCHED, seed=0, pair_count=8,
                              sequence_count=3)
    assert psi.topo_isomorphic and psi.banach_proximal and psi.proximal
    assert psi.mean_equicontinuous and psi.property_M
    assert not psi.equicontinuous and not psi.distal
    assert not psi.warnings
    d = psi.as_dict()
    assert d["topo_isomorphic"] is True
    assert "Banach proximality" in d["note"]


def test_verify_decomposition_directions():
    good = verify_decomposition("sturm.pi", "sturm.phi", "sturm.psi", SCHED,
                                seed=0, pair_count=8, sequence_count=3)
    assert good.passed
    assert good.composition_ok
    bad = verify_decomposition("tm.pi", "tm.phi", "tm.psi", SCHED, seed=0,
                               pair_count=8, sequence_count=3)
    assert not bad.passed
    assert bad.composition_ok  # the chain composes; regularity is what fails
    assert not bad.phi_topo_isomorphic
    assert not bad.psi_equicontinuous
    assert "phi is not Banach proximal" in bad.note


def test_verify_decomposition_rejects_mismatched_chain():
    with pytest.raises(CompositionError):
        verify_decomposition("tm.pi", "sturm.phi", "sturm.psi", SCHED,
                             seed=0)


def test_classification_builds_each_pair_once(count_builds):
    # pair verdicts, the three scans and the sequence tests share one memo
    counts = count_builds(get_factor("tm.psi").source)
    classify_factor_map("tm.psi", dyadic_schedule(6, 8), seed=3,
                        pair_count=12, sequence_count=3)
    assert counts
    assert all(p != q for p, q in counts)
    assert set(counts.values()) == {1}


def test_classification_draws_once_and_measures_each_pair_once(
        monkeypatch):
    fm = get_factor("tm.pi")
    pairs = fm.pair_sampler(3, 12)
    seqs = fm.sequence_sampler(3, 3)
    calls = collections.Counter()

    def replay(name, drawn):
        def sampler(seed, count):
            calls[name] += 1
            return drawn
        return sampler

    system_cls = type(get_system(fm.source))
    dist = system_cls.dist

    def counting_dist(self, p, q):
        calls["dist"] += 1
        return dist(self, p, q)

    # drawn before the count starts: building a sequence measures its terms
    counted = dataclasses.replace(fm, pair_sampler=replay("pairs", pairs),
                                  sequence_sampler=replay("sequences", seqs))
    monkeypatch.setattr(system_cls, "dist", counting_dist)
    cls = classify_factor_map(counted, dyadic_schedule(6, 8), seed=3,
                              pair_count=12, sequence_count=3)
    assert calls == {"pairs": 1, "sequences": 1, "dist": len(pairs)}
    assert cls.property_M_report.sampled_pairs == tuple(pairs)
    assert "sampled_pairs" not in cls.property_M_report.as_dict()


_CLASSIFIED_MAPS = factor_ids() + ["identity.%s" % sid for sid in system_ids()]


# the sequence samplers return at most two sequences, so one of the two
# runs asks for fewer than some of them hold
@pytest.mark.parametrize("seed, sequence_count", ((0, 1), (5, 2)))
@pytest.mark.parametrize("map_id", _CLASSIFIED_MAPS)
def test_classification_reports_equal_the_public_scans(map_id, seed,
                                                       sequence_count):
    fm = get_factor(map_id)
    tol = Tolerances()
    memo, schedule = SummaryMemo(), dyadic_schedule(6, 8)
    cls = classify_factor_map(fm, schedule, tol, seed, 6, sequence_count,
                              memo)
    assert cls.equicontinuity_report == scan_equicontinuity(
        fm, schedule, tol, seed, 6, memo)
    assert cls.property_M_report == scan_property_M(
        fm, schedule, tol, seed, 6, sequence_count, memo)
    assert cls.mean_equicontinuity_report == scan_mean_equicontinuity(
        fm, schedule, tol, seed, sequence_count, memo)


def test_classification_flags_a_failed_scan_on_a_mean_equicontinuous_sample():
    # one distal pair 0.25 apart whose orbit distance reaches 1: with
    # delta_ratio 1 the scan fails at eps 0.4, while the constant sequence
    # at the pair, its own limit, keeps both sequence criteria quiet
    pair = (_pt("sturmian", "orbit=34 side=lower"),
            _pt("sturmian", "orbit=96 side=lower"))
    fm = FactorMap(map_id="one-distal-pair", source="sturmian",
                   target="point", apply_payload=lambda p: "pt",
                   pair_sampler=lambda seed, count: [pair],
                   sequence_sampler=lambda seed, count: [
                       PairSequence((pair,) * 3, pair)])
    cls = classify_factor_map(fm, dyadic_schedule(6, 8),
                              Tolerances(delta_ratio=1.0))
    assert cls.mean_equicontinuous and cls.distal and cls.banach_distal
    assert not cls.equicontinuous and not cls.banach_proximal
    assert cls.warnings == ("tolerance artifact: equicontinuous scan failed "
                            "on a mean equicontinuous distal sample",)


def _sampler_digest(sampler, seed, count):
    def points(pair):
        return tuple((p.system_id, p.payload) for p in pair)

    lines = []
    for item in sampler(seed, count):
        if isinstance(item, tuple):
            lines.append(repr(points(item)))
        else:  # a PairSequence
            lines.append(repr((tuple(map(points, item.terms)),
                               item.limit and points(item.limit),
                               item.description)))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


# count 40 reaches the seeded draws of tm.psi and tm.pi, whose fixed lists
# hold 23 and 18 pairs; a sampler returns every fixed pair even when they
# outnumber count
SAMPLER_DIGESTS = {
    "shells62.pi": "22ea7f19f1c55272",
    "sturm.phi": "cf34e3c8dc9e2800",
    "sturm.pi": "0ec111a91cf56971",
    "sturm.psi": "dbc12349bcbb43ee",
    "tm.phi": "4b64e022105b199e",
    "tm.pi": "78ff432f6806fae2",
    "tm.psi": "8fbe4478e2f3fd5b",
}


@pytest.mark.parametrize("map_id", factor_ids())
def test_samplers_reproduce_their_digests(map_id):
    fm = get_factor(map_id)
    got = {(kind, seed, count): _sampler_digest(sampler, seed, count)
           for kind, sampler in (("pairs", fm.pair_sampler),
                                 ("sequences", fm.sequence_sampler))
           for seed in (0, 3, 17) for count in (1, 5, 12, 40)}
    digest = hashlib.sha256(repr(sorted(got.items())).encode()).hexdigest()
    assert digest[:16] == SAMPLER_DIGESTS[map_id]
