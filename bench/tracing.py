"""Per-layer spans recorded from outside weylab.

install() wraps the public functions of each layer and rebinds every
name under which another weylab module imported them, so that calls such
as relations -> weyl or cli -> estimate go through the wrapper.  Spans
(name, start, end, parent) stay in memory until the traced run ends.
System.dist is only counted: a shells run makes millions of calls.

Single-threaded by design: the benchmark runs weylab with --threads 1.
"""

from __future__ import annotations

import collections
import functools
import sys
import time

# (module, function, span name)
_FUNCTIONS = (
    ("weylab.estimators", "pair_profile", "estimators.pair_profile"),
    ("weylab.estimators", "estimate", "estimators.estimate"),
    ("weylab.estimators", "besicovitch", "estimators.besicovitch"),
    ("weylab.estimators", "weyl", "estimators.weyl"),
    ("weylab.estimators", "check", "estimators.check"),
    ("weylab.estimators", "hat", "estimators.hat"),
    ("weylab.estimators", "banach_density", "estimators.banach_density"),
    ("weylab.relations", "classify_pair", "relations.classify_pair"),
    ("weylab.relations", "sequence_report", "relations.sequence_report"),
    ("weylab.relations", "test_equicontinuity", "relations.scan"),
    ("weylab.relations", "test_property_M", "relations.scan"),
    ("weylab.relations", "test_mean_equicontinuity", "relations.scan"),
    ("weylab.factors", "classify_factor_map", "factors.classify_factor_map"),
    ("weylab.cli", "parse_scenarios", "cli.parse"),
)

_PROFILE_METHODS = (
    ("scaled", "profiles.scaled"),
    ("prefix", "profiles.prefix"),
    ("extremes", "profiles.extremes"),
    ("indicator_prefix", "profiles.indicator_prefix"),
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = collections.Counter()
        self.profile_keys = set()
        self._stack = []

    def wrap(self, name, fn, observe=None, reentrant=True):
        """Span every call of fn as `name`; observe(args, result) runs after
        the call.  With reentrant=False a call made directly inside a span
        of the same name (a subclass calling super()) is not spanned."""
        clock = time.perf_counter
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not reentrant and stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- observers -------------------------------------------------------

    def _built(self, args, profile):
        self.counts["systems.samples_built"] += len(profile)

    def _requested(self, args, profile):
        x, y, lo, hi = args[:4]
        system = x.system()
        a, b = sorted((system.format_point(x.payload),
                       system.format_point(y.payload)))
        self.profile_keys.add((x.system_id, a, b, lo, hi))

    def _scanned(self, args, estimate):
        schedule = args[2]
        self.counts["estimators.translates_scanned"] += sum(
            2 * m + 1 for m in schedule.translate_radius)


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


def _rebind(original, replacement):
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "weylab"
                                  or modname.startswith("weylab.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap weylab's layers; call after `import weylab` and before the run.

    A layer that weylab no longer has raises here, which fails the traced
    run: its metrics would otherwise read 0 and look like a speed-up.
    """
    import weylab.cli  # noqa: F401  (its imported names are rebound too)
    from weylab.core import System
    from weylab.profiles import DistanceProfile

    for cls in _subclasses(System):
        own = vars(cls)
        if "pair_profile" in own:
            cls.pair_profile = tracer.wrap("systems.build",
                                           own["pair_profile"],
                                           tracer._built, reentrant=False)
        if "dist" in own:
            cls.dist = tracer.count("systems.dist_calls", own["dist"])
    for method, name in _PROFILE_METHODS:
        setattr(DistanceProfile, method,
                tracer.wrap(name, vars(DistanceProfile)[method]))
    observers = {"estimators.pair_profile": tracer._requested,
                 "estimators.weyl": tracer._scanned}
    for modname, attr, name in _FUNCTIONS:
        original = getattr(sys.modules[modname], attr)
        _rebind(original, tracer.wrap(name, original, observers.get(name)))


# ---------------------------------------------------------------------------
# summary


def layer_times(spans):
    """name -> (total inclusive seconds, total self seconds, calls)."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (name, start, end, parent) in enumerate(spans):
        inc, self_, calls = out.get(name, (0.0, 0.0, 0))
        out[name] = (inc + end - start, self_ + end - start - child[i],
                     calls + 1)
    return out


def per_layer(dump: dict) -> dict:
    """Per-layer metrics (name -> value) from a written trace dump."""
    spans = dump["spans"]
    counts = dump["counts"]
    t = layer_times(spans)

    def inc(name):
        return t.get(name, (0.0, 0.0, 0))[0]

    def self_(name):
        return t.get(name, (0.0, 0.0, 0))[1]

    def calls(name):
        return t.get(name, (0.0, 0.0, 0))[2]

    def ratio(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    build_s = inc("systems.build")
    samples = counts.get("systems.samples_built", 0)
    translates = counts.get("estimators.translates_scanned", 0)
    distinct = dump["distinct_profiles"]
    # builds caused by an estimator request that missed the profile cache
    misses = sum(1 for name, _, _, parent in spans
                 if name == "systems.build" and parent >= 0
                 and spans[parent][0] == "estimators.pair_profile")
    weyl_self = self_("estimators.weyl")
    return {
        "systems.build_s": build_s,
        "systems.builds": calls("systems.build"),
        "systems.samples_built": samples,
        "systems.ns_per_sample": ratio(build_s, samples, 1e9),
        "systems.dist_calls": counts.get("systems.dist_calls", 0),
        "profiles.quantize_s": self_("profiles.scaled"),
        "profiles.prefix_self_s": self_("profiles.prefix"),
        "profiles.indicator_prefix_s": self_("profiles.indicator_prefix"),
        "profiles.extremes_s": self_("profiles.extremes"),
        "estimators.profile_requests": calls("estimators.pair_profile"),
        "estimators.distinct_profiles": distinct,
        "estimators.builds_per_distinct": ratio(misses, distinct),
        "estimators.pair_profile_self_s": self_("estimators.pair_profile"),
        "estimators.weyl_self_s": weyl_self,
        "estimators.translates_scanned": translates,
        "estimators.ns_per_translate": ratio(weyl_self, translates, 1e9),
        "estimators.banach_density_self_s":
            self_("estimators.banach_density"),
        "estimators.besicovitch_self_s": self_("estimators.besicovitch"),
        "estimators.check_self_s": self_("estimators.check"),
        "estimators.hat_self_s": self_("estimators.hat"),
        "relations.classify_pair_self_s": self_("relations.classify_pair"),
        "relations.classify_pair_calls": calls("relations.classify_pair"),
        "relations.sequence_report_self_s":
            self_("relations.sequence_report"),
        "relations.sequence_report_calls":
            calls("relations.sequence_report"),
        "relations.scan_self_s": self_("relations.scan"),
        "factors.classify_factor_map_self_s":
            self_("factors.classify_factor_map"),
        "cli.parse_s": inc("cli.parse"),
        "cli.run_self_s": self_("cli.run"),
    }
