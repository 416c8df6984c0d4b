"""Scenario runner.

Scenario files are INI-style: each [scenario:<name>] section selects an
operation (estimate | classify | test-M | test-meq | verify-decomposition |
language-check) plus the system/factor ids, pair literals, schedule
parameters, tolerances, and a seed.  Every run emits the per-window
convergence series as CSV rows (fixed header
scenario,pair_id,window_len,translate,kind,value) next to the JSON verdict
document; a verdict without its series is considered a bug.

Exit codes: 0 clean run, 1 usage or parse error, 2 verdict-level failure
(a failed decomposition check or language check).  Verdict failures never
masquerade as usage errors.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import io
import json
import os
import sys
from dataclasses import dataclass
from importlib import resources
from typing import Optional, Tuple

from .core import (FolnerSchedule, Point, ScenarioError, WeylabError,
                   default_schedule, dyadic_schedule, factor_ids, get_factor,
                   get_system, system_ids)
from .estimators import ESTIMATE_KINDS, SummaryMemo, estimates
from .factors import classify_factor_map, verify_decomposition
from .relations import (Tolerances, classify_pair, scan_mean_equicontinuity,
                        scan_property_M)
from .systems.thuemorse import (PD_RULES, TM_RULES, exchange_language,
                                substitution_language, window_match_fraction)

CSV_HEADER = ("scenario", "pair_id", "window_len", "translate", "kind",
              "value")
DEFAULT_KINDS = ("besicovitch", "weyl", "check", "hat")
OPERATIONS = ("estimate", "classify", "test-M", "test-meq",
              "verify-decomposition", "language-check")
_SUBSTITUTIONS = {"thuemorse": TM_RULES, "period-doubling": PD_RULES}

_KNOWN_KEYS = frozenset({
    "operation", "system", "factor", "pair", "pairs", "count", "sequences",
    "seed", "lo_exponent", "max_exponent", "family", "tolerances", "eps",
    "kinds", "decomposition", "point", "radius", "max_word_length",
    "substitution", "exchanged", "out",
})

# operations that draw pairs or sequences from a seeded sampler
_SAMPLED_OPS = frozenset({"classify", "test-M", "test-meq",
                          "verify-decomposition"})


@dataclass(frozen=True)
class Scenario:
    name: str
    operation: str
    system: Optional[str] = None
    factor: Optional[str] = None
    pairs: Tuple[Tuple[str, str], ...] = ()
    count: int = 24
    sequences: int = 4
    seed: Optional[int] = None
    lo_exponent: Optional[int] = None
    max_exponent: Optional[int] = None
    family: str = "symmetric"
    tolerances: Optional[Tolerances] = None
    eps: Optional[float] = None
    kinds: Tuple[str, ...] = DEFAULT_KINDS
    decomposition: Optional[Tuple[str, str, str]] = None
    point: Optional[str] = None
    radius: int = 1 << 16
    max_word_length: int = 12
    substitution: str = "period-doubling"
    exchanged: bool = True
    out: Optional[str] = None


def _fail(name: str, message: str):
    raise ScenarioError("scenario %r: %s" % (name, message))


def _parse_pairs(name: str, text: str) -> Tuple[Tuple[str, str], ...]:
    pairs = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split("|")]
        if len(parts) != 2 or not all(parts):
            _fail(name, "pair literal must be '<point> | <point>': %r" % line)
        pairs.append((parts[0], parts[1]))
    return tuple(pairs)


def _parse_tolerances(name: str, text: str) -> Tolerances:
    mapping = {"zero": "zero_tol", "sep": "sep_tol", "ratio": "delta_ratio"}
    kwargs = {}
    for token in text.split():
        key, _, value = token.partition("=")
        if key not in mapping or not value:
            _fail(name, "tolerances expect 'zero=.. sep=.. ratio=..': %r"
                  % token)
        kwargs[mapping[key]] = float(value)
    return Tolerances(**kwargs)


def _parse_bool(name: str, value: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    _fail(name, "expected a boolean, got %r" % value)


def parse_scenarios(text: str) -> Tuple[Scenario, ...]:
    parser = configparser.ConfigParser(delimiters=("=",), interpolation=None)
    parser.read_string(text)
    scenarios = []
    for section in parser.sections():
        if not section.startswith("scenario:"):
            raise ScenarioError(
                "unknown section [%s]; sections are [scenario:<name>]"
                % section)
        name = section[len("scenario:"):].strip()
        if not name:
            raise ScenarioError("empty scenario name in [%s]" % section)
        raw = dict(parser.items(section))
        unknown = sorted(set(raw) - _KNOWN_KEYS)
        if unknown:
            _fail(name, "unknown keys %s" % ", ".join(unknown))
        if "operation" not in raw:
            _fail(name, "missing the operation key")
        op = raw["operation"].strip()
        if op not in OPERATIONS:
            _fail(name, "unknown operation %r (expected one of %s)"
                  % (op, ", ".join(OPERATIONS)))
        pairs = ()
        if "pair" in raw and "pairs" in raw:
            _fail(name, "give either pair or pairs, not both")
        if "pair" in raw:
            pairs = _parse_pairs(name, raw["pair"])
            if len(pairs) != 1:
                _fail(name, "the pair key takes exactly one pair")
        elif "pairs" in raw:
            pairs = _parse_pairs(name, raw["pairs"])
        try:
            scenario = Scenario(
                name=name,
                operation=op,
                system=raw.get("system", "").strip() or None,
                factor=raw.get("factor", "").strip() or None,
                pairs=pairs,
                count=int(raw.get("count", 24)),
                sequences=int(raw.get("sequences", 4)),
                seed=int(raw["seed"]) if "seed" in raw else None,
                lo_exponent=(int(raw["lo_exponent"])
                             if "lo_exponent" in raw else None),
                max_exponent=(int(raw["max_exponent"])
                              if "max_exponent" in raw else None),
                family=raw.get("family", "symmetric").strip(),
                tolerances=(_parse_tolerances(name, raw["tolerances"])
                            if "tolerances" in raw else None),
                eps=float(raw["eps"]) if "eps" in raw else None,
                kinds=(tuple(raw["kinds"].replace(",", " ").split())
                       if "kinds" in raw else DEFAULT_KINDS),
                decomposition=(tuple(raw["decomposition"].split())
                               if "decomposition" in raw else None),
                point=raw.get("point", "").strip() or None,
                radius=int(raw.get("radius", 1 << 16)),
                max_word_length=int(raw.get("max_word_length", 12)),
                substitution=raw.get("substitution",
                                     "period-doubling").strip(),
                exchanged=(_parse_bool(name, raw["exchanged"])
                           if "exchanged" in raw else True),
                out=raw.get("out", "").strip() or None,
            )
        except ValueError as exc:
            raise ScenarioError("scenario %r: %s" % (name, exc)) from exc
        if scenario.decomposition is not None \
                and len(scenario.decomposition) != 3:
            _fail(name, "decomposition expects '<pi> <phi> <psi>'")
        scenarios.append(scenario)
    return tuple(scenarios)


def _schedule_of(sc: Scenario) -> FolnerSchedule:
    if sc.max_exponent is None:
        _fail(sc.name, "missing max_exponent")
    if sc.lo_exponent is not None:
        return dyadic_schedule(sc.lo_exponent, sc.max_exponent, sc.family)
    return default_schedule(sc.max_exponent, sc.family)


def _effective_seed(sc: Scenario, override: Optional[int]) -> Optional[int]:
    return override if override is not None else sc.seed


def _require_seed(sc: Scenario, override: Optional[int]) -> int:
    seed = _effective_seed(sc, override)
    if seed is None:
        _fail(sc.name, "seed is mandatory for sampled operations")
    return seed


def _series_rows(name: str, pair_id: str, est) -> list:
    rows = []
    for wv in est.per_window:
        rows.append((name, pair_id, len(wv.window), wv.translate, est.kind,
                     repr(wv.value)))
    return rows


def _resolve_pairs(sc: Scenario, seed_override: Optional[int]):
    """Explicit pair literals win; otherwise fall back to the factor map's
    fibre-pair sampler."""
    if sc.pairs:
        if sc.system is None:
            _fail(sc.name, "explicit pairs need a system id")
        system = get_system(sc.system)
        return [
            (Point(system.system_id, system.parse_point(a)),
             Point(system.system_id, system.parse_point(b)))
            for a, b in sc.pairs
        ]
    if sc.factor is None:
        _fail(sc.name, "need either explicit pairs or a factor id")
    fm = get_factor(sc.factor)
    if fm.pair_sampler is None:
        _fail(sc.name, "factor map %s has no pair sampler" % fm.map_id)
    return fm.pair_sampler(_require_seed(sc, seed_override), sc.count)


def _run_estimate(sc: Scenario, seed_override, rows, verdicts):
    schedule = _schedule_of(sc)
    for kind in sc.kinds:
        if kind not in ESTIMATE_KINDS:
            _fail(sc.name, "unknown estimate kind %r" % kind)
    if "banach-density" in sc.kinds and (sc.eps is None or not sc.eps > 0):
        _fail(sc.name, "banach-density needs an eps key above 0")
    legend = {}
    for idx, (x, y) in enumerate(_resolve_pairs(sc, seed_override)):
        pid = "p%03d" % idx
        summary = {"x": str(x), "y": str(y)}
        ests = estimates(x, y, schedule, sc.kinds, sc.eps)
        for kind in sc.kinds:
            est = ests[kind]
            rows.extend(_series_rows(sc.name, pid, est))
            summary[kind] = est.value
            if est.boundary_warning:
                summary.setdefault("boundary_warning", True)
        legend[pid] = summary
    verdicts[sc.name] = {"operation": "estimate", "pairs": legend}
    return False


def _weyl_series(sc: Scenario, items, summaries, rows):
    """Weyl series rows of (pair_id, pair) items; pairs behind a verdict
    are already in summaries and are not estimated again."""
    for pid, (x, y) in items:
        rows.extend(_series_rows(sc.name, pid, summaries(x, y).weyl))


def _sampled_items(prefix: str, pairs):
    return [("%sp%03d" % (prefix, idx), pair)
            for idx, pair in enumerate(pairs)]


def _run_classify(sc: Scenario, seed_override, rows, verdicts):
    summaries = SummaryMemo(_schedule_of(sc))
    tol = sc.tolerances or Tolerances()
    if sc.pairs:
        system = get_system(sc.system) if sc.system else None
        if system is None:
            _fail(sc.name, "classify with explicit pairs needs a system id")
        fm = get_factor(sc.factor) if sc.factor else None
        legend = {}
        for idx, (a, b) in enumerate(sc.pairs):
            x = Point(system.system_id, system.parse_point(a))
            y = Point(system.system_id, system.parse_point(b))
            verdict = classify_pair(x, y, tolerances=tol, factor=fm,
                                    summaries=summaries)
            pid = "p%03d" % idx
            for kind in DEFAULT_KINDS:
                rows.extend(_series_rows(sc.name, pid,
                                         getattr(summaries(x, y), kind)))
            legend[pid] = verdict.as_dict()
        verdicts[sc.name] = {"operation": "classify", "pairs": legend}
        return False
    if sc.factor is None:
        _fail(sc.name, "classify needs a factor id or explicit pairs")
    seed = _require_seed(sc, seed_override)
    cls = classify_factor_map(sc.factor, None, tol, seed, sc.count,
                              sc.sequences, summaries)
    pairs = get_factor(sc.factor).pair_sampler(seed, sc.count)
    _weyl_series(sc, _sampled_items("", pairs), summaries, rows)
    verdicts[sc.name] = {"operation": "classify", **cls.as_dict()}
    return False


def _run_test_M(sc: Scenario, seed_override, rows, verdicts):
    summaries = SummaryMemo(_schedule_of(sc))
    tol = sc.tolerances or Tolerances()
    if sc.factor is None:
        _fail(sc.name, "test-M needs a factor id")
    seed = _require_seed(sc, seed_override)
    fm = get_factor(sc.factor)
    report = scan_property_M(fm, None, tol, seed, sc.count, sc.sequences,
                             summaries)
    if fm.pair_sampler is not None:
        _weyl_series(sc, _sampled_items("", fm.pair_sampler(seed, sc.count)),
                     summaries, rows)
    verdicts[sc.name] = {"operation": "test-M",
                         **dataclasses.asdict(report)}
    return False


def _run_test_meq(sc: Scenario, seed_override, rows, verdicts):
    summaries = SummaryMemo(_schedule_of(sc))
    tol = sc.tolerances or Tolerances()
    if sc.factor is None:
        _fail(sc.name, "test-meq needs a factor id")
    seed = _require_seed(sc, seed_override)
    fm = get_factor(sc.factor)
    report = scan_mean_equicontinuity(fm, None, tol, seed, sc.sequences,
                                      summaries)
    if fm.sequence_sampler is not None:
        for sidx, seq in enumerate(fm.sequence_sampler(seed, sc.sequences)):
            items = [("s%02d.t%02d" % (sidx, tidx), pair)
                     for tidx, pair in enumerate(seq.terms)]
            if seq.limit is not None:
                items.append(("s%02d.lim" % sidx, seq.limit))
            _weyl_series(sc, items, summaries, rows)
    verdicts[sc.name] = {"operation": "test-meq",
                         **dataclasses.asdict(report)}
    return False


def _run_decomposition(sc: Scenario, seed_override, rows, verdicts):
    summaries = SummaryMemo(_schedule_of(sc))
    tol = sc.tolerances or Tolerances()
    if sc.decomposition is None:
        _fail(sc.name, "verify-decomposition needs decomposition = "
                       "'<pi> <phi> <psi>'")
    seed = _require_seed(sc, seed_override)
    pi_id, phi_id, psi_id = sc.decomposition
    report = verify_decomposition(pi_id, phi_id, psi_id, None, tol, seed,
                                  sc.count, sc.sequences,
                                  summaries=summaries)
    for label, map_id in (("phi.", phi_id), ("psi.", psi_id)):
        fm = get_factor(map_id)
        if fm.pair_sampler is not None:
            _weyl_series(sc, _sampled_items(label,
                                            fm.pair_sampler(seed, sc.count)),
                         summaries, rows)
    verdicts[sc.name] = {"operation": "verify-decomposition",
                         **report.as_dict()}
    return not report.passed


def _run_language_check(sc: Scenario, seed_override, rows, verdicts):
    system = get_system(sc.system or "toeplitz")
    if not hasattr(system, "coords"):
        _fail(sc.name, "language-check needs a symbolic system")
    if sc.point is None:
        _fail(sc.name, "language-check needs a point literal")
    if sc.substitution not in _SUBSTITUTIONS:
        _fail(sc.name, "unknown substitution %r (expected %s)"
              % (sc.substitution, ", ".join(sorted(_SUBSTITUTIONS))))
    if sc.radius < sc.max_word_length:
        _fail(sc.name, "radius smaller than the longest word")
    payload = system.parse_point(sc.point)
    letters = system.coords(payload, -sc.radius, sc.radius)
    rules = _SUBSTITUTIONS[sc.substitution]
    fractions = {}
    passed = True
    for length in range(1, sc.max_word_length + 1):
        words = substitution_language(rules, length)
        if sc.exchanged:
            words = exchange_language(words)
        frac = window_match_fraction(letters, words, length)
        rows.append((sc.name, "words", length, 0, "fraction-matched",
                     repr(float(frac))))
        fractions[str(length)] = float(frac)
        passed = passed and frac == 1
    verdicts[sc.name] = {
        "operation": "language-check",
        "passed": passed,
        "substitution": sc.substitution,
        "exchanged": sc.exchanged,
        "radius": sc.radius,
        "point": sc.point,
        "fractions": fractions,
    }
    return not passed


_RUNNERS = {
    "estimate": _run_estimate,
    "classify": _run_classify,
    "test-M": _run_test_M,
    "test-meq": _run_test_meq,
    "verify-decomposition": _run_decomposition,
    "language-check": _run_language_check,
}


def run_scenarios(scenarios, seed_override: Optional[int] = None):
    """Execute scenarios in file order; returns (csv rows, verdict document,
    verdict_failed flag)."""
    rows, verdicts = [], {}
    failed = False
    for sc in scenarios:
        failed = _RUNNERS[sc.operation](sc, seed_override, rows,
                                        verdicts) or failed
    return rows, verdicts, failed


# ---------------------------------------------------------------------------
# artifacts


def _csv_text(rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(rows)
    return buffer.getvalue()


def _json_text(verdicts) -> str:
    return json.dumps(verdicts, sort_keys=True, indent=2) + "\n"


def _emit(rows, verdicts, scenarios, out_dir: Optional[str], stdout) -> None:
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "results.csv"), "w") as fh:
            fh.write(_csv_text(rows))
        with open(os.path.join(out_dir, "verdicts.json"), "w") as fh:
            fh.write(_json_text(verdicts))
    else:
        stdout.write(_csv_text(rows))
        stdout.write(_json_text(verdicts))
    # a scenario may ask for its own copy of the series
    for sc in scenarios:
        if sc.out is None:
            continue
        path = os.path.join(out_dir, sc.out) if out_dir else sc.out
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        own = [r for r in rows if r[0] == sc.name]
        with open(path, "w") as fh:
            fh.write(_csv_text(own))


# ---------------------------------------------------------------------------
# entry points


def bundled_scenarios() -> Tuple[str, ...]:
    names = []
    for entry in resources.files("weylab").joinpath("scenarios").iterdir():
        if entry.name.endswith(".ini"):
            names.append(entry.name[:-4])
    return tuple(sorted(names))


def _load_scenario_text(spec: str) -> str:
    if os.path.exists(spec):
        with open(spec) as fh:
            return fh.read()
    if spec in bundled_scenarios():
        return resources.files("weylab").joinpath(
            "scenarios/%s.ini" % spec).read_text()
    raise ScenarioError(
        "no scenario file %r and no bundled scenario of that name "
        "(bundled: %s)" % (spec, ", ".join(bundled_scenarios())))


def list_registry() -> str:
    lines = ["systems:"]
    for sid in system_ids():
        system = get_system(sid)
        lines.append("  %-12s %s" % (sid, system.payload_syntax()))
    lines.append("factor maps:")
    for fid in factor_ids():
        fm = get_factor(fid)
        lines.append("  %-12s %s -> %s" % (fid, fm.source, fm.target))
    lines.append("bundled scenarios:")
    for name in bundled_scenarios():
        lines.append("  %s" % name)
    return "\n".join(lines) + "\n"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit 2; usage errors are 1
        raise ScenarioError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="weylab",
                     description="window-average experiments on the bundled "
                                 "example systems")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute a scenario file")
    run_p.add_argument("scenario",
                       help="path to a scenario file, or a bundled name")
    run_p.add_argument("--out", metavar="DIR", default=None,
                       help="write results.csv and verdicts.json here "
                            "(default: stdout)")
    run_p.add_argument("--threads", type=int, default=1, metavar="N",
                       help="accepted for compatibility and ignored; runs "
                            "use one thread")
    run_p.add_argument("--seed", type=int, default=None, metavar="U64",
                       help="override every scenario seed")
    sub.add_parser("list", help="list systems, factor maps, and bundled "
                                "scenarios")
    return parser


def main(argv=None) -> int:
    stdout = sys.stdout
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "list":
            stdout.write(list_registry())
            return 0
        text = _load_scenario_text(args.scenario)
        try:
            scenarios = parse_scenarios(text)
        except configparser.Error as exc:
            raise ScenarioError("scenario parse error: %s" % exc) from exc
        if not scenarios:
            return 0
        rows, verdicts, failed = run_scenarios(scenarios, args.seed)
        _emit(rows, verdicts, scenarios, args.out, stdout)
        return 2 if failed else 0
    except ScenarioError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except WeylabError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
