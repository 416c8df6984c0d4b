"""Scenario runner.

Scenario files are INI-style: each [scenario:<name>] section selects an
operation (estimate | classify | test-M | test-meq | verify-decomposition |
language-check) plus the system/factor ids, point literals, schedule
parameters, tolerances, and a seed.  Point literals are space-separated
key=value tokens (core.parse_fields), and unknown or missing keys are
rejected; odometer, rotation and point keep their own short syntax.  Every
run emits the per-window convergence series as CSV rows (fixed header
scenario,pair_id,window_len,translate,kind,value) next to the JSON verdict
document; a verdict without its series is considered a bug.

Exit codes: 0 clean run, 2 verdict-level failure (a failed decomposition
check or language check), 1 usage error, reported as one "error:" line: an
unparseable file, an unknown key or bad value, a malformed point literal, a
bad schedule or bad tolerances, an empty kinds list, a count or sequences
below 1, a missing or negative seed, a word length outside 1..62.
Verdict failures never masquerade as usage errors.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import functools
import io
import json
import os
import sys
from dataclasses import dataclass
from importlib import resources
from typing import Optional, Tuple

from .core import (FolnerSchedule, Point, ScenarioError, ToleranceError,
                   WeylabError, default_schedule, dyadic_schedule, factor_ids,
                   get_factor, get_system, system_ids)
from .estimators import ESTIMATE_KINDS, SummaryMemo, estimates
from .factors import classify_factor_map, verify_decomposition
from .relations import (Tolerances, classify_pair, scan_mean_equicontinuity,
                        scan_property_M)
from .systems.thuemorse import (MAX_WORD_LENGTH, PD_RULES, TM_RULES,
                                exchange_language, substitution_language,
                                window_match_fraction)

CSV_HEADER = ("scenario", "pair_id", "window_len", "translate", "kind",
              "value")
DEFAULT_KINDS = ("besicovitch", "weyl", "check", "hat")
OPERATIONS = ("estimate", "classify", "test-M", "test-meq",
              "verify-decomposition", "language-check")
_SUBSTITUTIONS = {"thuemorse": TM_RULES, "period-doubling": PD_RULES}


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
    tolerances: Tolerances = Tolerances()
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


def _parse_pairs(text: str) -> Tuple[Tuple[str, str], ...]:
    pairs = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split("|")]
        if len(parts) != 2 or not all(parts):
            raise ValueError("pair literal must be '<point> | <point>': %r"
                             % line)
        pairs.append((parts[0], parts[1]))
    return tuple(pairs)


def _parse_one_pair(text: str) -> Tuple[Tuple[str, str], ...]:
    pairs = _parse_pairs(text)
    if len(pairs) != 1:
        raise ValueError("the pair key takes exactly one pair")
    return pairs


def _parse_tolerances(text: str) -> Tolerances:
    mapping = {"zero": "zero_tol", "sep": "sep_tol", "ratio": "delta_ratio"}
    kwargs = {}
    for token in text.split():
        key, _, value = token.partition("=")
        if key not in mapping or not value:
            raise ValueError("tolerances expect 'zero=.. sep=.. ratio=..': "
                             "%r" % token)
        kwargs[mapping[key]] = float(value)
    return Tolerances(**kwargs)


def _parse_bool(value: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError("expected a boolean, got %r" % value)


def _parse_positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError("expected an integer >= 1, got %d" % value)
    return value


def _parse_kinds(text: str) -> Tuple[str, ...]:
    kinds = tuple(text.replace(",", " ").split())
    if not kinds:
        raise ValueError("expected at least one kind")
    return kinds


def _parse_operation(text: str) -> str:
    if text.strip() not in OPERATIONS:
        raise ValueError("unknown operation %r (expected one of %s)"
                         % (text, ", ".join(OPERATIONS)))
    return text.strip()


# scenario-file key -> parser of its value, which raises ValueError on bad
# text; 'pair' fills Scenario.pairs, and a key left out keeps the Scenario
# default
_CONVERTERS = {
    "operation": _parse_operation,
    "pair": _parse_one_pair,
    "pairs": _parse_pairs,
    "tolerances": _parse_tolerances,
    "eps": float,
    "kinds": _parse_kinds,
    "decomposition": lambda text: tuple(text.split()),
    "exchanged": _parse_bool,
    "family": str.strip,
    "substitution": str.strip,
    **dict.fromkeys(("system", "factor", "point", "out"),
                    lambda text: text.strip() or None),
    **dict.fromkeys(("count", "sequences"), _parse_positive),
    **dict.fromkeys(("seed", "lo_exponent", "max_exponent", "radius",
                     "max_word_length"), int),
}
_KNOWN_KEYS = frozenset(_CONVERTERS)


def parse_scenarios(text: str) -> Tuple[Scenario, ...]:
    parser = configparser.ConfigParser(delimiters=("=",), interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ScenarioError("scenario parse error: %s" % exc) from exc
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
        if "pair" in raw and "pairs" in raw:
            _fail(name, "give either pair or pairs, not both")
        fields = {}
        for key, value in raw.items():
            try:
                fields[key] = _CONVERTERS[key](value)
            except (ValueError, ToleranceError) as exc:
                _fail(name, "%s: %s" % (key, exc))
        if "pair" in fields:
            fields["pairs"] = fields.pop("pair")
        scenarios.append(Scenario(name=name, **fields))
    return tuple(scenarios)


def _schedule_of(sc: Scenario) -> FolnerSchedule:
    if sc.max_exponent is None:
        _fail(sc.name, "missing max_exponent")
    try:
        if sc.lo_exponent is None:
            return default_schedule(sc.max_exponent, sc.family)
        return dyadic_schedule(sc.lo_exponent, sc.max_exponent, sc.family)
    except ValueError as exc:
        _fail(sc.name, "schedule: %s" % exc)


def _point(sc: Scenario, system, text: str) -> Point:
    try:
        return Point(system.system_id, system.parse_point(text))
    except ValueError as exc:
        _fail(sc.name, "%s point %r: %s" % (system.system_id, text, exc))


def _require_seed(sc: Scenario, override: Optional[int]) -> int:
    seed = override if override is not None else sc.seed
    if seed is None:
        _fail(sc.name, "seed is mandatory for sampled operations")
    if seed < 0:
        _fail(sc.name, "seed must be >= 0, got %d" % seed)
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
        return [(_point(sc, system, a), _point(sc, system, b))
                for a, b in sc.pairs]
    if sc.factor is None:
        _fail(sc.name, "need either explicit pairs or a factor id")
    fm = get_factor(sc.factor)
    if fm.pair_sampler is None:
        _fail(sc.name, "factor map %s has no pair sampler" % fm.map_id)
    return fm.pair_sampler(_require_seed(sc, seed_override), sc.count)


def _run_estimate(sc: Scenario, seed_override, rows, verdicts, memo_of):
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


def _run_classify(sc: Scenario, seed_override, rows, verdicts, memo_of):
    summaries = memo_of(_schedule_of(sc))
    if sc.pairs:
        fm = get_factor(sc.factor) if sc.factor else None
        legend = {}
        for idx, (x, y) in enumerate(_resolve_pairs(sc, seed_override)):
            verdict = classify_pair(x, y, tolerances=sc.tolerances,
                                    factor=fm, summaries=summaries)
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
    cls = classify_factor_map(sc.factor, None, sc.tolerances, seed,
                              sc.count, sc.sequences, summaries)
    _weyl_series(sc, _sampled_items("", cls.sampled_pairs), summaries, rows)
    verdicts[sc.name] = {"operation": "classify", **cls.as_dict()}
    return False


def _run_test_M(sc: Scenario, seed_override, rows, verdicts, memo_of):
    summaries = memo_of(_schedule_of(sc))
    if sc.factor is None:
        _fail(sc.name, "test-M needs a factor id")
    seed = _require_seed(sc, seed_override)
    fm = get_factor(sc.factor)
    report = scan_property_M(fm, None, sc.tolerances, seed, sc.count,
                             sc.sequences, summaries)
    _weyl_series(sc, _sampled_items("", fm.pair_sampler(seed, sc.count)),
                 summaries, rows)
    verdicts[sc.name] = {"operation": "test-M",
                         **dataclasses.asdict(report)}
    return False


def _run_test_meq(sc: Scenario, seed_override, rows, verdicts, memo_of):
    summaries = memo_of(_schedule_of(sc))
    if sc.factor is None:
        _fail(sc.name, "test-meq needs a factor id")
    seed = _require_seed(sc, seed_override)
    fm = get_factor(sc.factor)
    report = scan_mean_equicontinuity(fm, None, sc.tolerances, seed,
                                      sc.sequences, summaries)
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


def _run_decomposition(sc: Scenario, seed_override, rows, verdicts, memo_of):
    summaries = memo_of(_schedule_of(sc))
    if sc.decomposition is None or len(sc.decomposition) != 3:
        _fail(sc.name, "verify-decomposition needs decomposition = "
                       "'<pi> <phi> <psi>'")
    seed = _require_seed(sc, seed_override)
    pi_id, phi_id, psi_id = sc.decomposition
    report = verify_decomposition(pi_id, phi_id, psi_id, None,
                                  sc.tolerances, seed, sc.count,
                                  sc.sequences, summaries=summaries)
    for label, cls in (("phi.", report.phi), ("psi.", report.psi)):
        _weyl_series(sc, _sampled_items(label, cls.sampled_pairs), summaries,
                     rows)
    verdicts[sc.name] = {"operation": "verify-decomposition",
                         **report.as_dict()}
    return not report.passed


def _run_language_check(sc: Scenario, seed_override, rows, verdicts, memo_of):
    system = get_system(sc.system or "toeplitz")
    if not hasattr(system, "coords"):
        _fail(sc.name, "language-check needs a symbolic system")
    if sc.point is None:
        _fail(sc.name, "language-check needs a point literal")
    if sc.substitution not in _SUBSTITUTIONS:
        _fail(sc.name, "unknown substitution %r (expected %s)"
              % (sc.substitution, ", ".join(sorted(_SUBSTITUTIONS))))
    if not 1 <= sc.max_word_length <= MAX_WORD_LENGTH:
        _fail(sc.name, "max_word_length must be in [1, %d]" % MAX_WORD_LENGTH)
    if sc.radius < sc.max_word_length:
        _fail(sc.name, "radius smaller than the longest word")
    payload = _point(sc, system, sc.point).payload
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
    verdict_failed flag); the run keeps one SummaryMemo per schedule."""
    rows, verdicts = [], {}
    failed = False
    memo_of = functools.cache(SummaryMemo)
    for sc in scenarios:
        failed = _RUNNERS[sc.operation](sc, seed_override, rows, verdicts,
                                        memo_of) or failed
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
                            "use one thread, and fork orbit walks onto the "
                            "usable CPUs whatever N is")
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
        scenarios = parse_scenarios(_load_scenario_text(args.scenario))
        if not scenarios:
            return 0
        rows, verdicts, failed = run_scenarios(scenarios, args.seed)
        _emit(rows, verdicts, scenarios, args.out, stdout)
        return 2 if failed else 0
    except WeylabError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
