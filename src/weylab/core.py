"""Actions of the integers on compact metric spaces, window schedules, registry.

The acting group is Z throughout: group elements are plain ints, composition
is addition.  Points are immutable (system id, payload) pairs; every payload
is hashable and every operation on it is pure, so points are safe to share
across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from .profiles import DistanceProfile, scaled_from_float


class WeylabError(Exception):
    """Base class for errors raised by this package."""


class UnknownSystemError(WeylabError):
    pass


class UnknownFactorError(WeylabError):
    pass


class CrossSystemError(WeylabError):
    pass


class ToleranceError(WeylabError):
    pass


class SamplerError(WeylabError):
    pass


class CompositionError(WeylabError):
    pass


class ScenarioError(WeylabError):
    pass


# ---------------------------------------------------------------------------
# windows and schedules


@dataclass(frozen=True)
class FolnerWindow:
    """The integer interval {lo, ..., hi}, inclusive on both ends."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError("window lo=%d > hi=%d" % (self.lo, self.hi))

    def __len__(self) -> int:
        return self.hi - self.lo + 1

    def shifted(self, g: int) -> "FolnerWindow":
        return FolnerWindow(self.lo + g, self.hi + g)

    def symmetric_difference_ratio(self) -> float:
        """|F delta (F+1)| / |F|; 2/|F| for an interval."""
        return 2.0 / len(self)


@dataclass(frozen=True)
class FolnerSchedule:
    """A finite stand-in for 'all Folner sequences': nested interval windows
    of strictly growing cardinality plus a translate search radius per window.

    All windows come from a single family ('symmetric' around 0 or 'left',
    the one-sided {-L, ..., 0} family); mixing families cannot keep the
    cardinalities strictly increasing.
    """

    windows: Tuple[FolnerWindow, ...]
    translate_radius: Tuple[int, ...]
    family: str = "symmetric"

    def __post_init__(self) -> None:
        if not self.windows:
            raise ValueError("schedule needs at least one window")
        if len(self.windows) != len(self.translate_radius):
            raise ValueError("one translate radius per window required")
        cards = [len(w) for w in self.windows]
        if any(b <= a for a, b in zip(cards, cards[1:])):
            raise ValueError("window cardinalities must strictly increase")
        if any(m < 0 for m in self.translate_radius):
            raise ValueError("translate radii must be >= 0")
        if any(b < a for a, b in zip(self.translate_radius, self.translate_radius[1:])):
            raise ValueError("translate radii must be nondecreasing")
        if self.family not in ("symmetric", "left"):
            raise ValueError("unknown window family %r" % (self.family,))

    def tail_windows(self) -> Tuple[int, ...]:
        """Indices of the tail half, the limsup surrogate support."""
        n = len(self.windows)
        return tuple(range(n // 2, n))

    def hull_range(self) -> Tuple[int, int]:
        """Union of every window extended by its translate radius."""
        lo = min(w.lo - m for w, m in zip(self.windows, self.translate_radius))
        hi = max(w.hi + m for w, m in zip(self.windows, self.translate_radius))
        return lo, hi


def dyadic_schedule(lo_exp: int, hi_exp: int, family: str = "symmetric") -> FolnerSchedule:
    """Windows at radii L = 2^lo_exp .. 2^hi_exp with translate radius M = L."""
    if lo_exp < 0 or hi_exp < lo_exp:
        raise ValueError("need 0 <= lo_exp <= hi_exp")
    windows = []
    radii = []
    for e in range(lo_exp, hi_exp + 1):
        L = 1 << e
        if family == "left":
            windows.append(FolnerWindow(-L, 0))
        else:
            windows.append(FolnerWindow(-L, L))
        radii.append(L)
    return FolnerSchedule(tuple(windows), tuple(radii), family)


def default_schedule(max_exponent: int, family: str = "symmetric") -> FolnerSchedule:
    """Radii 2^0 .. 2^max_exponent, translate radius equal to the radius."""
    if max_exponent < 1:
        raise ValueError("max_exponent must be >= 1")
    return dyadic_schedule(0, max_exponent, family)


# ---------------------------------------------------------------------------
# systems and points


class System:
    """A Z-action on a compact metric space with exact lazy point evaluation.

    Subclasses provide the action on payloads, the metric, and (usually) a
    fast exact pair_profile; the base implementation walks the orbit one
    step at a time, which is the reference route the tests compare against.
    A system that acts by isometries derives from IsometricSystem instead.
    Diagonal pairs never reach pair_profile: estimators.pair_profile
    answers them with the zero profile.
    """

    system_id: str = ""
    diameter: float = 1.0

    def act(self, payload: Any, g: int) -> Any:
        raise NotImplementedError

    def dist(self, p: Any, q: Any) -> float:
        raise NotImplementedError

    def pair_profile(self, p: Any, q: Any, lo: int, hi: int) -> DistanceProfile:
        values = np.empty(hi - lo + 1, dtype=np.float64)
        for i, t in enumerate(range(lo, hi + 1)):
            values[i] = self.dist(self.act(p, t), self.act(q, t))
        return DistanceProfile.from_floats(lo, values)

    # payload mini-syntax for the scenario runner
    def parse_point(self, text: str) -> Any:
        raise NotImplementedError

    def format_point(self, payload: Any) -> str:
        raise NotImplementedError

    def payload_syntax(self) -> str:
        return ""

    def sample_payloads(self, rng, count: int) -> List[Any]:
        """Deterministic test points for the property batteries, drawn from
        rng, which must provide integers(low, high[, dtype]) and random()
        as numpy.random.Generator does: a seed_stream or a Generator."""
        raise NotImplementedError


class IsometricSystem(System):
    """A system acting by isometries: d(g.p, g.q) = d(p, q) for every g, so
    a pair's profile is one run of its distance."""

    def pair_profile(self, p: Any, q: Any, lo: int, hi: int) -> DistanceProfile:
        return DistanceProfile.constant(lo, hi, scaled_from_float(self.dist(p, q)))


def parse_fields(text: str, keys: Dict[str, Optional[str]]) -> Dict[str, str]:
    """Values of a point literal of space-separated key=value tokens.

    `keys` maps each allowed key to its default, or to None when the key is
    required; the result has one value per key, in the order of `keys`.
    Raises ValueError on a token without '=', an unknown key or a missing
    required key.
    """
    fields = {}
    for token in text.split():
        key, eq, value = token.partition("=")
        if not eq:
            raise ValueError("expected key=value tokens, got %r" % (token,))
        if key not in keys:
            raise ValueError("unknown key %r (keys: %s)" % (key, " ".join(keys)))
        fields[key] = value
    missing = [k for k, default in keys.items() if default is None and k not in fields]
    if missing:
        raise ValueError("missing key %s" % " ".join(missing))
    return {key: fields.get(key, default) for key, default in keys.items()}


_SYSTEMS: Dict[str, System] = {}


def register_system(system: System) -> System:
    if not system.system_id:
        raise ValueError("system needs an id")
    _SYSTEMS[system.system_id] = system
    return system


def get_system(system_id: str) -> System:
    try:
        return _SYSTEMS[system_id]
    except KeyError:
        raise UnknownSystemError("unknown system id %r" % (system_id,)) from None


def system_ids() -> List[str]:
    return sorted(_SYSTEMS)


@dataclass(frozen=True)
class Point:
    """A point of a registered system; payload is exact, immutable state."""

    system_id: str
    payload: Any

    def system(self) -> System:
        return get_system(self.system_id)

    def __str__(self) -> str:
        return "%s:%s" % (self.system_id, self.system().format_point(self.payload))


def act(x: Point, g: int) -> Point:
    return Point(x.system_id, x.system().act(x.payload, g))


def dist(x: Point, y: Point) -> float:
    if x.system_id != y.system_id:
        raise CrossSystemError(
            "cannot compare %r with %r" % (x.system_id, y.system_id)
        )
    return x.system().dist(x.payload, y.payload)


# ---------------------------------------------------------------------------
# factor maps


@dataclass(frozen=True)
class FactorMap:
    """An equivariant surjection between registered systems.

    Fibre samplers are part of the map: seeded, deterministic generators of
    pairs in R(pi) (pair_sampler) and of convergent pair sequences inside
    R(pi) with declared limits (sequence_sampler).  A pair sampler returns
    its fixed pairs and then seeded draws until it holds count pairs; when
    the fixed pairs outnumber count it returns them all.  A sequence sampler
    returns at most count sequences.  Both take (seed, count) and draw
    from seed_stream(seed), which provides integers(low, high[, dtype]) and
    random() as numpy.random.Generator does.  exact_fibres says whether image
    equality is decidable exactly on payloads; otherwise membership in R(pi)
    is thresholded by the caller.
    """

    map_id: str
    source: str
    target: str
    apply_payload: Callable[[Any], Any]
    exact_fibres: bool = True
    pair_sampler: Optional[Callable[[int, int], list]] = None
    sequence_sampler: Optional[Callable[[int, int], list]] = None
    description: str = ""

    def apply(self, x: Point) -> Point:
        if x.system_id != self.source:
            raise CrossSystemError(
                "factor map %s expects source %r, got %r"
                % (self.map_id, self.source, x.system_id)
            )
        return Point(self.target, self.apply_payload(x.payload))


_FACTORS: Dict[str, FactorMap] = {}


def register_factor(fm: FactorMap) -> FactorMap:
    _FACTORS[fm.map_id] = fm
    return fm


def seed_stream(seed: int):
    """The stream a sampler draws from: draw for draw the same as
    numpy.random.default_rng(seed) for the draws weylab makes
    (seeds.SeedStream).  Its module is imported on the first call, so a
    run that samples nothing does not load it."""
    from .seeds import SeedStream

    return SeedStream(seed)


def _identity_factor(system_id: str) -> FactorMap:
    system = get_system(system_id)

    def pairs(seed: int, count: int):
        rng = seed_stream(seed)
        return [
            (Point(system_id, p), Point(system_id, p))
            for p in system.sample_payloads(rng, count)
        ]

    return FactorMap(
        map_id="identity.%s" % system_id,
        source=system_id,
        target=system_id,
        apply_payload=lambda payload: payload,
        exact_fibres=True,
        pair_sampler=pairs,
        description="identity map; the fibre relation is the diagonal",
    )


def get_factor(map_id: str) -> FactorMap:
    try:
        return _FACTORS[map_id]
    except KeyError:
        pass
    if map_id.startswith("identity."):
        system_id = map_id[len("identity."):]
        try:
            return _identity_factor(system_id)
        except UnknownSystemError:
            pass
    raise UnknownFactorError("unknown factor map id %r" % (map_id,))


def factor_ids() -> List[str]:
    return sorted(_FACTORS)
