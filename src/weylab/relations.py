"""Pair classification and the sequence tests behind the regularity lattice.

Verdicts are tolerance driven, never proofs: 'check' upper-bounds the orbit
infimum, so a 'distal' call can be revised by a larger schedule, and the
scan-based modulus tests report 'no violation found at these tolerances'
rather than the property itself.  Diagonal pairs short-circuit to exact
zeros so float noise cannot contradict reflexivity.

The modulus scans read (d0, value) rows off PairVerdicts, and the sequence
criteria read SequenceReports; each criterion is stated once.  The public
scan_* functions draw their own sample; factors.classify_factor_map draws
once and hands the same verdicts and reports to the same criteria.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Callable, Optional, Tuple

from .core import (FactorMap, FolnerSchedule, FolnerWindow, Point,
                   SamplerError, ToleranceError, act, dist, dyadic_schedule)
from .estimators import SummaryMemo

#: schedule used by classification entry points when none is given
DEFAULT_CLASSIFY_SCHEDULE = (10, 14)


def default_classify_schedule() -> FolnerSchedule:
    return dyadic_schedule(*DEFAULT_CLASSIFY_SCHEDULE)


def summaries_for(schedule: Optional[FolnerSchedule] = None,
                  summaries: Optional[SummaryMemo] = None) -> SummaryMemo:
    """The memo every estimate here is read from: the caller's, whose
    schedule must match a given one, or a fresh memo on the schedule
    (default: the classification schedule) that lasts for the call."""
    if summaries is None:
        return SummaryMemo(schedule or default_classify_schedule())
    if schedule is not None and schedule != summaries.schedule:
        raise ValueError("schedule differs from the schedule of summaries")
    return summaries


@dataclass(frozen=True)
class Tolerances:
    """Thresholds for turning exact estimates into verdicts.

    zero_tol bounds 'indistinguishable at this scale', sep_tol bounds
    'separated at this scale'; delta_ratio is the slack allowed in the
    modulus scans (delta*(eps) >= delta_ratio * eps passes).
    """

    zero_tol: float = 1e-2
    sep_tol: float = 1e-1
    delta_ratio: float = 0.25

    def __post_init__(self):
        if not 0.0 < self.zero_tol < self.sep_tol:
            raise ToleranceError("need 0 < zero_tol < sep_tol")
        if not 0.0 < self.delta_ratio <= 1.0:
            raise ToleranceError("delta_ratio must lie in (0, 1]")

    def eps_grid(self) -> Tuple[float, ...]:
        return (self.sep_tol, 2.0 * self.sep_tol, 4.0 * self.sep_tol)


@dataclass(frozen=True)
class PairVerdict:
    x: str
    y: str
    diagonal: bool
    in_R_pi: Optional[bool]
    d0: float
    check_value: float
    besicovitch_value: float
    weyl_value: float
    hat_value: float
    banach_proximal: bool
    proximal: bool
    distal: bool
    banach_distal: bool
    inconclusive: bool
    boundary_warning: bool

    def as_dict(self) -> dict:
        """Fields by name; the four estimates drop their _value suffix."""
        return {k.removesuffix("_value"): v for k, v in asdict(self).items()}


def classify_pair(x: Point, y: Point, schedule: Optional[FolnerSchedule] = None,
                  tolerances: Optional[Tolerances] = None,
                  factor: Optional[FactorMap] = None,
                  summaries: Optional[SummaryMemo] = None) -> PairVerdict:
    summaries = summaries_for(schedule, summaries)
    tol = tolerances or Tolerances()
    in_r: Optional[bool] = None
    if factor is not None:
        in_r = factor.apply(x).payload == factor.apply(y).payload
    summary = summaries(x, y)
    e_check, e_weyl = summary.check, summary.weyl
    banach_proximal = e_weyl.value < tol.zero_tol
    proximal = e_check.value < tol.zero_tol
    distal = e_check.value > tol.sep_tol
    banach_distal = e_weyl.value > tol.sep_tol
    return PairVerdict(
        x=str(x), y=str(y), diagonal=x == y, in_R_pi=in_r, d0=dist(x, y),
        check_value=e_check.value,
        besicovitch_value=summary.besicovitch.value,
        weyl_value=e_weyl.value, hat_value=summary.hat.value,
        banach_proximal=banach_proximal, proximal=proximal, distal=distal,
        banach_distal=banach_distal,
        inconclusive=not (proximal or distal),
        boundary_warning=e_weyl.boundary_warning,
    )


# ---------------------------------------------------------------------------
# convergent pair sequences


@dataclass(frozen=True)
class PairSequence:
    """Finitely many pairs standing in for a convergent sequence in X x X.

    When a limit is declared it is validated: over the tail half, the sum
    of the two coordinate distances to the limit must decay by a factor of
    at least 3/4 per term (exact zeros are fine), so a wrongly declared
    limit fails loudly instead of skewing the sequence tests.
    """

    terms: Tuple[Tuple[Point, Point], ...]
    limit: Optional[Tuple[Point, Point]] = None
    description: str = ""

    def __post_init__(self):
        if len(self.terms) < 3:
            raise SamplerError("a pair sequence needs at least 3 terms")
        sid = self.terms[0][0].system_id
        points = [p for pair in self.terms for p in pair]
        if self.limit is not None:
            points.extend(self.limit)
        if any(p.system_id != sid for p in points):
            raise SamplerError("pair sequence mixes systems")
        if self.limit is not None:
            la, lb = self.limit
            ds = [dist(a, la) + dist(b, lb) for a, b in self.terms]
            tail = ds[len(ds) // 2 :]
            for prev, cur in zip(tail, tail[1:]):
                if cur > 0.75 * prev:
                    raise SamplerError(
                        "declared limit not approached geometrically: "
                        "tail distances %r" % (tail,)
                    )

    def system_id(self) -> str:
        return self.terms[0][0].system_id


@dataclass(frozen=True)
class SequenceReport:
    asymptotically_banach_proximal: bool
    term_weyl: Tuple[float, ...]
    limit_banach_proximal: Optional[bool]
    limit_weyl: Optional[float]
    description: str


def sequence_report(seq: PairSequence, schedule: Optional[FolnerSchedule] = None,
                    tolerances: Optional[Tolerances] = None,
                    summaries: Optional[SummaryMemo] = None) -> SequenceReport:
    """Estimated weyl values of the terms and of the declared limit.

    The sequence counts as asymptotically Banach proximal when the tail
    half of the term estimates sits below zero_tol.
    """
    summaries = summaries_for(schedule, summaries)
    tol = tolerances or Tolerances()
    values = [summaries(a, b).weyl.value for a, b in seq.terms]
    tail = values[len(values) // 2 :]
    abp = max(tail) < tol.zero_tol
    limit_bp = None
    limit_value = None
    if seq.limit is not None:
        limit_value = summaries(*seq.limit).weyl.value
        limit_bp = limit_value < tol.zero_tol
    return SequenceReport(abp, tuple(values), limit_bp, limit_value,
                          seq.description)


def is_asymptotically_banach_proximal(seq: PairSequence,
                                      schedule: Optional[FolnerSchedule] = None,
                                      tolerances: Optional[Tolerances] = None) -> bool:
    return sequence_report(seq, schedule, tolerances).asymptotically_banach_proximal


# ---------------------------------------------------------------------------
# sampling helpers


def _sample_pairs(factor: FactorMap, seed: int, count: int):
    if factor.pair_sampler is None:
        raise SamplerError("factor map %s has no pair sampler" % factor.map_id)
    pairs = factor.pair_sampler(seed, count)
    if not pairs:
        raise SamplerError("pair sampler for %s returned nothing" % factor.map_id)
    return pairs


def _pair_verdicts(pairs, factor: FactorMap, tol: Tolerances,
                   summaries: SummaryMemo):
    return [classify_pair(a, b, tolerances=tol, factor=factor,
                          summaries=summaries) for a, b in pairs]


def _sequence_reports(factor: FactorMap, seed: int, count: int,
                      tol: Tolerances, summaries: SummaryMemo):
    """Reports of the drawn sequences that declare a limit (the only ones
    the criteria can judge), and how many sequences were drawn."""
    if factor.sequence_sampler is None:
        return [], 0
    seqs = factor.sequence_sampler(seed, count)
    return [sequence_report(seq, None, tol, summaries)
            for seq in seqs if seq.limit is not None], len(seqs)


# ---------------------------------------------------------------------------
# modulus scans and sequence tests


@dataclass(frozen=True)
class ModulusReport:
    """delta*(eps) scan: for each eps on the grid, the smallest initial
    distance that still produced an orbit value >= eps."""

    holds: bool
    grid: Tuple[Tuple[float, Optional[float], bool], ...]  # (eps, delta*, ok)
    delta_equals_eps: bool
    pairs_examined: int
    note: str


def _modulus_scan(verdicts, value: str, tol: Tolerances) -> ModulusReport:
    """Scan the (d0, value) rows of the non-diagonal verdicts."""
    what = {"hat_value": "orbit sup", "weyl_value": "weyl value"}[value]
    rows = [(v.d0, getattr(v, value)) for v in verdicts if not v.diagonal]
    grid = []
    holds = True
    delta_eq = True
    for eps in tol.eps_grid():
        # smallest plain distance among pairs whose orbit value reaches
        # eps; None when none does (the scan constrains nothing)
        ds = min((d0 for d0, v in rows if v >= eps), default=None)
        ok = ds is None or ds >= tol.delta_ratio * eps
        if ds is not None and ds < eps:
            delta_eq = False
        holds = holds and ok
        grid.append((eps, ds, ok))
    note = ("no violation found at these tolerances" if holds
            else "violation: small initial distance with large %s" % what)
    return ModulusReport(holds, tuple(grid), delta_eq, len(verdicts), note)


def scan_equicontinuity(factor: FactorMap,
                        schedule: Optional[FolnerSchedule] = None,
                        tolerances: Optional[Tolerances] = None,
                        seed: int = 0, pair_count: int = 24,
                        summaries: Optional[SummaryMemo] = None) -> ModulusReport:
    """Scan R(pi) samples for pairs that start close but drift far apart
    at some single orbit time (hat)."""
    summaries = summaries_for(schedule, summaries)
    tol = tolerances or Tolerances()
    pairs = _sample_pairs(factor, seed, pair_count)
    return _modulus_scan(_pair_verdicts(pairs, factor, tol, summaries),
                         "hat_value", tol)


def _sequence_violations(reports, converse: bool) -> Tuple[str, ...]:
    """A Banach proximal limit needs an asymptotically Banach proximal
    sequence; with converse (mean equicontinuity) the other way round too."""
    violations = []
    for rep in reports:
        if rep.limit_banach_proximal and not rep.asymptotically_banach_proximal:
            violations.append(
                "limit is Banach proximal but the sequence is not "
                "asymptotically Banach proximal (%s)" % rep.description)
        elif converse and rep.asymptotically_banach_proximal \
                and not rep.limit_banach_proximal:
            violations.append(
                "sequence is asymptotically Banach proximal but its limit "
                "is not Banach proximal (%s)" % rep.description)
    return tuple(violations)


@dataclass(frozen=True)
class PropertyMReport:
    holds: bool
    scan: ModulusReport
    sequence_violations: Tuple[str, ...]
    sequences_examined: int


def _property_M_report(verdicts, reports, examined: int,
                       tol: Tolerances) -> PropertyMReport:
    scan = _modulus_scan(verdicts, "weyl_value", tol)
    violations = _sequence_violations(reports, converse=False)
    return PropertyMReport(scan.holds and not violations, scan, violations,
                           examined)


def scan_property_M(factor: FactorMap,
                    schedule: Optional[FolnerSchedule] = None,
                    tolerances: Optional[Tolerances] = None,
                    seed: int = 0, pair_count: int = 24,
                    sequence_count: int = 4,
                    summaries: Optional[SummaryMemo] = None) -> PropertyMReport:
    """Two routes at once: the delta*(eps) scan on weyl values over sampled
    R(pi) pairs, and the sequence criterion that a convergent sequence with
    a Banach proximal limit must itself be asymptotically Banach proximal."""
    summaries = summaries_for(schedule, summaries)
    tol = tolerances or Tolerances()
    pairs = _sample_pairs(factor, seed, pair_count)
    reports, examined = _sequence_reports(factor, seed, sequence_count, tol,
                                          summaries)
    return _property_M_report(_pair_verdicts(pairs, factor, tol, summaries),
                              reports, examined, tol)


@dataclass(frozen=True)
class MeanEquicontinuityReport:
    holds: Optional[bool]
    violations: Tuple[str, ...]
    sequences_examined: int
    note: str


def _mean_equicontinuity_report(reports, examined: int
                                ) -> MeanEquicontinuityReport:
    if not examined:
        return MeanEquicontinuityReport(
            None, (), 0, "no sequence sampler: not tested")
    violations = _sequence_violations(reports, converse=True)
    note = ("no violation found at these tolerances" if not violations
            else "; ".join(violations))
    return MeanEquicontinuityReport(not violations, violations, examined,
                                    note)


def scan_mean_equicontinuity(factor: FactorMap,
                             schedule: Optional[FolnerSchedule] = None,
                             tolerances: Optional[Tolerances] = None,
                             seed: int = 0, sequence_count: int = 4,
                             summaries: Optional[SummaryMemo] = None
                             ) -> MeanEquicontinuityReport:
    """On convergent sequences in R(pi) the map is mean equicontinuous iff
    'asymptotically Banach proximal' and 'limit Banach proximal' agree;
    both defect directions are reported."""
    summaries = summaries_for(schedule, summaries)
    tol = tolerances or Tolerances()
    return _mean_equicontinuity_report(
        *_sequence_reports(factor, seed, sequence_count, tol, summaries))


# ---------------------------------------------------------------------------
# regional witnesses and empirical averages


@dataclass(frozen=True)
class WitnessReport:
    found: bool
    witness: Optional[Tuple[str, str]]
    weyl_value: Optional[float]
    dx: Optional[float]
    dy: Optional[float]


def regional_witness_search(factor: FactorMap, x: Point, y: Point,
                            eps_pair: float,
                            schedule: Optional[FolnerSchedule] = None,
                            tolerances: Optional[Tolerances] = None,
                            seed: int = 0, count: int = 40) -> WitnessReport:
    """Look for a non-diagonal sampled pair in R(pi) within eps_pair of
    (x, y) coordinatewise whose weyl value sits below zero_tol: evidence
    that (x, y) is regionally Banach proximal without being so itself."""
    summaries = summaries_for(schedule)
    tol = tolerances or Tolerances()
    best = None
    for a, b in _sample_pairs(factor, seed, count):
        if a.payload == b.payload:
            continue
        for (a2, b2) in ((a, b), (b, a)):
            dxa, dyb = dist(x, a2), dist(y, b2)
            if dxa < eps_pair and dyb < eps_pair:
                value = summaries(a2, b2).weyl.value
                if value < tol.zero_tol and (best is None or value < best[2]):
                    best = (a2, b2, value, dxa, dyb)
    if best is None:
        return WitnessReport(False, None, None, None, None)
    a2, b2, value, dxa, dyb = best
    return WitnessReport(True, (str(a2), str(b2)), value, dxa, dyb)


def empirical_measure(x: Point, observable: Callable[[Point], float],
                      window: FolnerWindow) -> float:
    """Window average of an observable along the orbit of x, summed exactly
    (float values lift losslessly into rationals) and rounded once."""
    total = Fraction(0)
    for t in range(window.lo, window.hi + 1):
        total += Fraction(float(observable(act(x, t))))
    return float(total / len(window))


# former names of the scans, kept as plain aliases of the same functions
test_equicontinuity = scan_equicontinuity
test_property_M = scan_property_M
test_mean_equicontinuity = scan_mean_equicontinuity
