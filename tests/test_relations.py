import pytest

from weylab.core import (Point, SamplerError, ToleranceError, dyadic_schedule,
                         get_factor, get_system)
from weylab.estimators import SummaryMemo
from weylab.relations import (PairSequence, Tolerances, classify_pair,
                              default_classify_schedule, empirical_measure,
                              is_asymptotically_banach_proximal,
                              regional_witness_search, scan_equicontinuity,
                              scan_mean_equicontinuity, scan_property_M,
                              sequence_report)

SCHED = dyadic_schedule(6, 10)


def _pt(system_id, text):
    return Point(system_id, get_system(system_id).parse_point(text))


def test_tolerances_validation():
    Tolerances()
    with pytest.raises(ToleranceError):
        Tolerances(zero_tol=0.2, sep_tol=0.1)
    with pytest.raises(ToleranceError):
        Tolerances(zero_tol=0.0)
    with pytest.raises(ToleranceError):
        Tolerances(delta_ratio=0.0)
    with pytest.raises(ToleranceError):
        Tolerances(delta_ratio=1.5)
    grid = Tolerances().eps_grid()
    assert grid == (0.1, 0.2, 0.4)


def test_default_classify_schedule_shape():
    sched = default_classify_schedule()
    assert [len(w) for w in sched.windows][-1] == 2 ** 15 + 1


def test_classify_diagonal_short_circuits():
    x = _pt("thuemorse", "addr=int:0 flag=plain bit=0")
    v = classify_pair(x, x, SCHED)
    assert v.diagonal
    assert v.weyl_value == 0.0 and v.check_value == 0.0
    assert v.banach_proximal and v.proximal
    assert not v.distal and not v.banach_distal
    assert not v.inconclusive


def test_classify_complement_pair_is_banach_distal():
    x = _pt("thuemorse", "addr=int:3 flag=plain bit=0")
    y = _pt("thuemorse", "addr=int:3 flag=plain bit=1")
    v = classify_pair(x, y, SCHED)
    assert v.weyl_value == 1.0 and v.check_value == 1.0
    assert v.distal and v.banach_distal
    assert not v.proximal and not v.banach_proximal
    assert not v.diagonal


def test_classify_fibre_pair_is_banach_proximal():
    x = _pt("toeplitz", "addr=int:4 flag=plain")
    y = _pt("toeplitz", "addr=int:4 flag=primed")
    v = classify_pair(x, y, SCHED)
    assert v.banach_proximal and v.proximal
    assert not v.distal and not v.banach_distal
    assert v.in_R_pi is None
    v2 = classify_pair(x, y, SCHED, factor=get_factor("tm.psi"))
    assert v2.in_R_pi is True
    v3 = classify_pair(x, _pt("toeplitz", "addr=int:9 flag=plain"), SCHED,
                       factor=get_factor("tm.psi"))
    assert v3.in_R_pi is False


def test_classify_inconclusive_band():
    # distance profile constant at 0.05: between zero_tol and sep_tol
    x = _pt("rotation", "t=0.0")
    y = _pt("rotation", "t=0.05")
    v = classify_pair(x, y, SCHED)
    assert v.inconclusive
    assert not v.proximal and not v.distal


def test_pair_sequence_validation():
    u = _pt("shells62", "level=2 t=1.0")
    v = _pt("shells62", "level=2 t=2.0")
    with pytest.raises(SamplerError):
        PairSequence(terms=((u, v), (u, v)))
    cross = _pt("rotation", "t=0.5")
    with pytest.raises(SamplerError):
        PairSequence(terms=((u, v), (u, v), (u, cross)))
    # limit must actually attract the terms
    far = _pt("shells62", "level=inf t=4.0")
    with pytest.raises(SamplerError):
        PairSequence(terms=((u, v),) * 4, limit=(far, far))


def test_sequence_report_shell_witness():
    fm = get_factor("shells62.pi")
    seqs = fm.sequence_sampler(0, 2)
    assert seqs
    rep = sequence_report(seqs[0], dyadic_schedule(10, 13))
    assert rep.asymptotically_banach_proximal
    assert rep.limit_banach_proximal is False
    assert is_asymptotically_banach_proximal(seqs[0], dyadic_schedule(10, 13))


def test_equicontinuity_scan_directions():
    holds = scan_equicontinuity(get_factor("sturm.psi"), SCHED, seed=0)
    assert holds.holds
    assert holds.delta_equals_eps
    fails = scan_equicontinuity(get_factor("tm.psi"), SCHED, seed=0)
    assert not fails.holds
    assert any(not ok for (_, _, ok) in fails.grid)
    assert fails.pairs_examined > 0


def test_property_m_directions():
    good = scan_property_M(get_factor("tm.phi"), dyadic_schedule(8, 12),
                           seed=0)
    assert good.holds
    bad = scan_property_M(get_factor("tm.pi"), dyadic_schedule(8, 12),
                          seed=0)
    assert not bad.holds
    assert not bad.scan.holds


def test_sequence_test_reports_keep_their_draw_out_of_the_json():
    import dataclasses
    import json

    fm, schedule = get_factor("tm.pi"), dyadic_schedule(4, 6)
    for report, draw, want in (
            (scan_property_M(fm, schedule, seed=3, pair_count=6),
             "sampled_pairs", tuple(fm.pair_sampler(3, 6))),
            (scan_mean_equicontinuity(fm, schedule, seed=3),
             "sequences", tuple(fm.sequence_sampler(3, 4)))):
        assert getattr(report, draw) == want and want
        rest = {k: v for k, v in dataclasses.asdict(report).items()
                if k != draw}
        assert json.dumps(report.as_dict()) == json.dumps(rest)


def test_mean_equicontinuity_directions():
    good = scan_mean_equicontinuity(get_factor("sturm.phi"),
                                    dyadic_schedule(8, 12), seed=0)
    assert good.holds is True
    bad = scan_mean_equicontinuity(get_factor("shells62.pi"),
                                   dyadic_schedule(12, 15), seed=0)
    assert bad.holds is False
    assert bad.violations
    none = scan_mean_equicontinuity(get_factor("identity.rotation"), SCHED,
                                    seed=0)
    assert none.holds is None
    assert "no sequence sampler" in none.note


def test_regional_witness_search():
    fm = get_factor("tm.psi")
    x = _pt("toeplitz", "addr=int:64 flag=plain")
    y = _pt("toeplitz", "addr=int:64 flag=primed")
    found = regional_witness_search(fm, x, y, eps_pair=0.5, schedule=SCHED,
                                    seed=1)
    assert found.found
    assert found.weyl_value < Tolerances().zero_tol
    assert found.dx < 0.5 and found.dy < 0.5
    # a diagonal-only sampler can never produce a witness
    ident = get_factor("identity.toeplitz")
    nothing = regional_witness_search(ident, x, y, eps_pair=0.5,
                                      schedule=SCHED, seed=1)
    assert not nothing.found


def test_empirical_measure_is_a_window_mean():
    from weylab.core import FolnerWindow
    x = _pt("toeplitz", "addr=int:0 flag=plain")
    system = get_system("toeplitz")
    mean = empirical_measure(
        x, lambda p: float(system.coords(p.payload, 0, 0)[0]),
        FolnerWindow(1, 8))
    # gamma_1..gamma_8 = 1,0,1,1,1,0,1,0 -> mean 5/8
    assert mean == pytest.approx(5 / 8)


def test_empirical_measure_is_exact():
    # a float running sum of ten 0.1s gives 0.9999999999999999 / 10
    from weylab.core import FolnerWindow
    x = _pt("toeplitz", "addr=int:0 flag=plain")
    assert empirical_measure(x, lambda p: 0.1, FolnerWindow(1, 10)) == 0.1


def test_one_memo_classifies_a_pair_on_two_schedules():
    x = _pt("toeplitz", "addr=int:2 flag=plain")
    y = _pt("toeplitz", "addr=int:2 flag=primed")
    memo, other = SummaryMemo(), dyadic_schedule(4, 8)
    verdicts = [classify_pair(x, y, schedule, summaries=memo)
                for schedule in (SCHED, other, SCHED)]
    assert verdicts == [classify_pair(x, y, schedule)
                        for schedule in (SCHED, other, SCHED)]
    assert verdicts[0] != verdicts[1]


def test_no_public_name_is_collected_as_a_test():
    import weylab
    assert [n for n in weylab.__all__ if n.startswith("test")] == []
