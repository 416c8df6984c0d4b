"""The seed stream against numpy.random.default_rng, draw by draw and
through every seeded sampler of the package."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from weylab import core, factors, seeds
from weylab.core import factor_ids, get_factor, get_system, system_ids
from weylab.seeds import SeedStream

#: the three draws weylab makes: integers(low, low + span) with
#: 1 <= span <= 2**32, the full uint64 draw, and random()
_DRAWS = st.lists(st.one_of(
    st.tuples(st.just("integers"), st.integers(-2 ** 62, 2 ** 62),
              st.integers(1, 2 ** 32)),
    st.just(("uint64",)),
    st.just(("random",)),
), max_size=80)

_MIXED = [("integers", -50, 100), ("random",), ("integers", 0, 2),
          ("uint64",), ("integers", 7, 2 ** 32), ("integers", 3, 1),
          ("random",), ("integers", -100, 3)]


def _draw(rng, draw):
    if draw[0] == "integers":
        _, low, span = draw
        return int(rng.integers(low, low + span))
    if draw[0] == "uint64":
        return int(rng.integers(0, 2 ** 64, dtype=np.uint64))
    return float(rng.random())


@given(st.integers(0, 2 ** 256), _DRAWS)
@example(0, _MIXED)
@example(2 ** 32, _MIXED)
@example(2 ** 64 + 1, _MIXED)
# four seed words and more: the pool's loop over extra entropy
@example(2 ** 128 + 12345, _MIXED)
@example(2 ** 200 - 1, _MIXED)
# a span of 3 * 2**30 rejects a quarter of Lemire's draws
@example(5, [("integers", 0, 3 * 2 ** 30)] * 40 + [("random",)]
         + [("integers", -7, 3 * 2 ** 30)] * 9)
@settings(max_examples=200, deadline=None)
def test_seed_stream_matches_numpy_default_rng(seed, draws):
    ours, numpys = SeedStream(seed), np.random.default_rng(seed)
    for draw in draws:
        assert _draw(ours, draw) == _draw(numpys, draw), draw


def test_seed_stream_refuses_other_ranges_and_negative_seeds():
    stream = SeedStream(0)
    for low, high in ((0, 0), (5, 4), (0, 2 ** 32 + 1), (-1, 2 ** 64 - 1),
                      (1, 2 ** 64 + 1), (0, 2 ** 65)):
        with pytest.raises(ValueError):
            stream.integers(low, high)
    with pytest.raises(ValueError):
        SeedStream(-1)
    assert type(stream.integers(0, 2 ** 64)) is int
    assert type(stream.random()) is float


class _Recorder:
    """An rng that logs each value it hands out."""

    def __init__(self, rng, log):
        self._rng, self._log = rng, log

    def integers(self, *args, **kwargs):
        value = self._rng.integers(*args, **kwargs)
        self._log.append(int(value))
        return value

    def random(self):
        value = self._rng.random()
        self._log.append(float(value))
        return value


_DECOMPOSITIONS = [("tm.pi", "tm.phi", "tm.psi"),
                   ("sturm.pi", "sturm.phi", "sturm.psi")]

#: (what, id): every seeded call site of the package
_SAMPLERS = (
    [("pairs", fid) for fid in factor_ids()]
    + [("sequences", fid) for fid in factor_ids()]
    + [("pairs", "identity." + sid) for sid in system_ids()]
    + [("payloads", sid) for sid in system_ids()]
    + [("composition", triple) for triple in _DECOMPOSITIONS]
)

#: 0..31, the benchmark's seed cycle, and seeds of two and three words
_SEEDS = list(range(32)) + [2 ** 32 + 7, 2 ** 64 + 3]


def _sample(what, ident, seed, monkeypatch):
    if what == "pairs":
        return get_factor(ident).pair_sampler(seed, 40)
    if what == "sequences":
        return get_factor(ident).sequence_sampler(seed, 4)
    if what == "payloads":
        return get_system(ident).sample_payloads(core.seed_stream(seed), 40)
    # verify_decomposition's own draw is its composition check; the
    # classification of the two legs is left out
    legs = SimpleNamespace(topo_isomorphic=True, equicontinuous=True)
    monkeypatch.setattr(factors, "classify_factor_map", lambda *args: legs)
    return factors.verify_decomposition(*ident, seed=seed).composition_ok


@pytest.mark.parametrize("what, ident", _SAMPLERS,
                         ids=["%s-%s" % (w, i if isinstance(i, str) else i[0])
                              for w, i in _SAMPLERS])
def test_samplers_draw_as_with_numpy_default_rng(what, ident, monkeypatch):
    for seed in _SEEDS:
        runs = []
        for make in (SeedStream, np.random.default_rng):
            log = []
            monkeypatch.setattr(seeds, "SeedStream",
                                lambda s, make=make: _Recorder(make(s), log))
            runs.append((_sample(what, ident, seed, monkeypatch), log))
        assert runs[0] == runs[1]
        if what in ("pairs", "payloads", "composition") and "point" not in ident:
            assert runs[0][1], "no draw reached the seed stream"
