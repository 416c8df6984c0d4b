"""Factor-map classification, metric lifts, and decomposition checking.

The topo-isomorphy call is deliberately indirect: a factor map is reported
topo-isomorphic exactly when every sampled fibre pair is Banach proximal
(weyl below zero_tol).  A classification draws its pairs and sequences
once: its modulus scans read the pair verdicts, its sequence tests one list
of sequence reports.  Its flags are sample verdicts; a failed implication
between them is reported as a tolerance artifact, not patched over:
equicontinuous iff mean equicontinuous and distal (three warnings),
topo-isomorphic iff mean equicontinuous and proximal, and distal implies
Banach distal (check <= weyl).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Tuple

from .core import (CompositionError, FactorMap, FolnerSchedule, FolnerWindow,
                   Point, System, UnknownSystemError, get_factor, get_system,
                   register_system, seed_stream)
from .estimators import SummaryMemo
from .relations import (MeanEquicontinuityReport, ModulusReport, PairVerdict,
                        PropertyMReport, Tolerances,
                        _mean_equicontinuity_report, _modulus_scan,
                        _pair_verdicts, _property_M_report, _sample_pairs,
                        _sequence_reports, summaries_for)

#: source points on which verify_decomposition checks pi = psi o phi
COMPOSITION_SAMPLE_POINTS = 20

# ---------------------------------------------------------------------------
# function families and the induced truncated metrics


@dataclass(frozen=True)
class FunctionFamily:
    """Finitely many observables f_m with values in [0, 1], standing in for
    a dense sequence; the induced metric weights f_m by 2^-m, so cutting
    at M terms costs at most 2^(1-M)."""

    name: str
    system_id: str
    functions: Tuple[Callable, ...]

    def __post_init__(self):
        if not self.functions:
            raise ValueError("a function family needs at least one observable")

    def truncation_bound(self) -> float:
        return 2.0 ** (1 - len(self.functions))


def d_family_fraction(family: FunctionFamily, p, q) -> Fraction:
    """Exact weighted sum of observable gaps; float observable values are
    lifted losslessly into rationals first."""
    total = Fraction(0)
    for m, f in enumerate(family.functions):
        gap = abs(Fraction(float(f(p))) - Fraction(float(f(q))))
        total += Fraction(1, 1 << m) * gap
    return total


def d_family(family: FunctionFamily, p, q) -> float:
    return float(d_family_fraction(family, p, q))


@dataclass(frozen=True)
class DominationReport:
    """Window-averaged comparison of two family metrics on one pair:
    avg d_f  <=  avg d_h  +  sum_m 2^-m (avg|f_m-h_m| along both orbits).
    All three terms are exact rationals; slack is rhs - lhs."""

    lhs: Fraction
    rhs: Fraction
    slack: Fraction
    holds: bool
    truncation_bound: float


def domination_check(family_f: FunctionFamily, family_h: FunctionFamily,
                     x: Point, y: Point,
                     window: FolnerWindow) -> DominationReport:
    if len(family_f.functions) != len(family_h.functions):
        raise ValueError("families must pair up their observables")
    system = get_system(family_f.system_id)
    if x.system_id != family_f.system_id or y.system_id != family_f.system_id:
        raise ValueError("points do not live on the family's system")
    lhs = Fraction(0)
    avg_h = Fraction(0)
    l1 = [Fraction(0)] * len(family_f.functions)
    for t in range(window.lo, window.hi + 1):
        p = system.act(x.payload, t)
        q = system.act(y.payload, t)
        lhs += d_family_fraction(family_f, p, q)
        avg_h += d_family_fraction(family_h, p, q)
        for m, (f, h) in enumerate(zip(family_f.functions,
                                       family_h.functions)):
            gap_p = abs(Fraction(float(f(p))) - Fraction(float(h(p))))
            gap_q = abs(Fraction(float(f(q))) - Fraction(float(h(q))))
            l1[m] += gap_p + gap_q
    n = len(window)
    lhs /= n
    rhs = avg_h / n + sum(
        Fraction(1, 1 << m) * s / n for m, s in enumerate(l1)
    )
    slack = rhs - lhs
    return DominationReport(lhs, rhs, slack, slack >= 0,
                            family_f.truncation_bound())


# ---------------------------------------------------------------------------
# lifted metrics


class _LiftedSystem(System):
    """Source action with the metric d_X + d_Y(pi ., pi .): the graph metric
    of the factor map.  Profiles add termwise on the exact grid, which gives
    the monotonicity weyl_Y(pi x, pi y) <= weyl_lifted(x, y) exactly."""

    def __init__(self, fm: FactorMap):
        self._fm = fm
        self._source = get_system(fm.source)
        self._target = get_system(fm.target)
        self.system_id = "lifted:%s" % fm.map_id
        self.diameter = self._source.diameter + self._target.diameter

    def act(self, payload, g):
        return self._source.act(payload, g)

    def dist(self, p, q):
        return self._source.dist(p, q) + self._target.dist(
            self._fm.apply_payload(p), self._fm.apply_payload(q)
        )

    def pair_profile(self, p, q, lo, hi):
        src = self._source.pair_profile(p, q, lo, hi)
        tgt = self._target.pair_profile(
            self._fm.apply_payload(p), self._fm.apply_payload(q), lo, hi
        )
        return src.plus(tgt)

    def parse_point(self, text):
        return self._source.parse_point(text)

    def format_point(self, payload):
        return self._source.format_point(payload)

    def payload_syntax(self):
        return self._source.payload_syntax()

    def sample_payloads(self, rng, count):
        return self._source.sample_payloads(rng, count)


def lift_metric(map_id: str) -> str:
    """Register (idempotently) the graph-metric system of a factor map and
    return its system id 'lifted:<map_id>'."""
    fm = get_factor(map_id)
    lifted_id = "lifted:%s" % fm.map_id
    try:
        get_system(lifted_id)
    except UnknownSystemError:
        register_system(_LiftedSystem(fm))
    return lifted_id


# ---------------------------------------------------------------------------
# whole-map classification


@dataclass(frozen=True)
class FactorClassification:
    map_id: str
    equicontinuous: bool
    mean_equicontinuous: Optional[bool]
    property_M: bool
    topo_isomorphic: bool
    banach_proximal: bool
    proximal: bool
    distal: bool
    banach_distal: bool
    pair_verdicts: Tuple[PairVerdict, ...]
    equicontinuity_report: ModulusReport
    property_M_report: PropertyMReport
    mean_equicontinuity_report: MeanEquicontinuityReport
    warnings: Tuple[str, ...]

    def as_dict(self) -> dict:
        return {
            "map_id": self.map_id,
            "equicontinuous": self.equicontinuous,
            "mean_equicontinuous": self.mean_equicontinuous,
            "property_M": self.property_M,
            "topo_isomorphic": self.topo_isomorphic,
            "banach_proximal": self.banach_proximal,
            "proximal": self.proximal,
            "distal": self.distal,
            "banach_distal": self.banach_distal,
            "warnings": list(self.warnings),
            "pairs": [v.as_dict() for v in self.pair_verdicts],
            "note": "Banach proximality of every sampled fibre pair is "
                    "used as the topo-isomorphy criterion",
        }


def classify_factor_map(map_id, schedule: Optional[FolnerSchedule] = None,
                        tolerances: Optional[Tolerances] = None,
                        seed: int = 0, pair_count: int = 24,
                        sequence_count: int = 4,
                        summaries: Optional[SummaryMemo] = None
                        ) -> FactorClassification:
    """Pairs and sequences are drawn once and estimated once through one
    memo (pass `summaries` to share it, across schedules too); the reports
    equal those of the scan_* functions for the same arguments."""
    fm = map_id if isinstance(map_id, FactorMap) else get_factor(map_id)
    schedule, summaries = summaries_for(schedule, summaries)
    tol = tolerances or Tolerances()
    if fm.pair_sampler is None:
        raise CompositionError("factor map %s has no pair sampler" % fm.map_id)
    pairs = tuple(_sample_pairs(fm, seed, pair_count))
    verdicts = _pair_verdicts(pairs, fm, schedule, tol, summaries)
    if not all(v.in_R_pi for v in verdicts):
        raise CompositionError(
            "sampler for %s produced a pair outside R(pi)" % fm.map_id)
    reports, seqs = _sequence_reports(fm, seed, sequence_count, schedule,
                                      tol, summaries)
    equi = _modulus_scan(verdicts, "hat_value", tol)
    prop_m = _property_M_report(pairs, verdicts, reports, seqs, tol)
    me = _mean_equicontinuity_report(reports, seqs)
    nd = [v for v in verdicts if not v.diagonal]
    banach_proximal = all(v.banach_proximal for v in verdicts)
    proximal = all(v.proximal for v in verdicts)
    distal = all(v.distal for v in nd)
    banach_distal = all(v.banach_distal for v in nd)
    warnings = []
    if equi.holds:
        if me.holds is False:
            warnings.append("tolerance artifact: equicontinuous scan passed "
                            "but mean equicontinuity failed")
        if nd and not distal:
            warnings.append("tolerance artifact: equicontinuous scan passed "
                            "on a non-distal sample")
    elif me.holds and nd and distal:
        warnings.append("tolerance artifact: equicontinuous scan failed "
                        "on a mean equicontinuous distal sample")
    if me.holds is not None and banach_proximal != (me.holds and proximal):
        warnings.append("tolerance artifact: Banach proximal flag disagrees "
                        "with mean equicontinuity + proximality")
    if distal and nd and not banach_distal:
        warnings.append("tolerance artifact: distal sample that is not "
                        "Banach distal")
    return FactorClassification(
        map_id=fm.map_id,
        equicontinuous=equi.holds,
        mean_equicontinuous=me.holds,
        property_M=prop_m.holds,
        topo_isomorphic=banach_proximal,
        banach_proximal=banach_proximal,
        proximal=proximal,
        distal=distal,
        banach_distal=banach_distal,
        pair_verdicts=tuple(verdicts),
        equicontinuity_report=equi,
        property_M_report=prop_m,
        mean_equicontinuity_report=me,
        warnings=tuple(warnings),
    )


# ---------------------------------------------------------------------------
# decomposition through an intermediate system


@dataclass(frozen=True)
class DecompositionReport:
    passed: bool
    composition_ok: bool
    phi_topo_isomorphic: bool
    psi_equicontinuous: bool
    phi: FactorClassification
    psi: FactorClassification
    note: str

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "composition_ok": self.composition_ok,
            "phi_topo_isomorphic": self.phi_topo_isomorphic,
            "psi_equicontinuous": self.psi_equicontinuous,
            "phi": self.phi.as_dict(),
            "psi": self.psi.as_dict(),
            "note": self.note,
        }


def verify_decomposition(pi_id: str, phi_id: str, psi_id: str,
                         schedule: Optional[FolnerSchedule] = None,
                         tolerances: Optional[Tolerances] = None,
                         seed: int = 0, pair_count: int = 24,
                         sequence_count: int = 4,
                         summaries: Optional[SummaryMemo] = None
                         ) -> DecompositionReport:
    """Check pi = psi o phi with phi topo-isomorphic (Banach proximal) and
    psi equicontinuous, on samples; the composition is checked on
    COMPOSITION_SAMPLE_POINTS source points."""
    pi, phi, psi = get_factor(pi_id), get_factor(phi_id), get_factor(psi_id)
    if phi.source != pi.source or psi.target != pi.target \
            or phi.target != psi.source:
        raise CompositionError(
            "systems do not chain: %s o %s vs %s"
            % (psi.map_id, phi.map_id, pi.map_id))
    rng = seed_stream(seed)
    source = get_system(pi.source)
    composition_ok = True
    for payload in source.sample_payloads(rng, COMPOSITION_SAMPLE_POINTS):
        x = Point(pi.source, payload)
        if psi.apply(phi.apply(x)).payload != pi.apply(x).payload:
            composition_ok = False
            break
    schedule, summaries = summaries_for(schedule, summaries)
    phi_cls = classify_factor_map(phi, schedule, tolerances, seed, pair_count,
                                  sequence_count, summaries)
    psi_cls = classify_factor_map(psi, schedule, tolerances, seed, pair_count,
                                  sequence_count, summaries)
    passed = composition_ok and phi_cls.topo_isomorphic \
        and psi_cls.equicontinuous
    if passed:
        note = "decomposition verified on samples"
    else:
        reasons = []
        if not composition_ok:
            reasons.append("psi o phi disagrees with pi on sampled points")
        if not phi_cls.topo_isomorphic:
            reasons.append("phi is not Banach proximal on sampled fibres")
        if not psi_cls.equicontinuous:
            reasons.append("psi fails the equicontinuity scan")
        note = "; ".join(reasons)
    return DecompositionReport(passed, composition_ok,
                               phi_cls.topo_isomorphic,
                               psi_cls.equicontinuous, phi_cls, psi_cls, note)
