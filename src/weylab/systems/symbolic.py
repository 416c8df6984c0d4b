"""Shared machinery for binary subshifts under the shift action of Z.

A subshift system only has to materialize letters on an integer range
(coords).  A pair of points is described by its disagreement spans, the
maximal ranges of positions where their letters differ; the metric
2^-min{|n| : x_n != y_n} and exact orbit distance profiles are read off
those spans, so a profile holds no per-sample array.  A system whose pairs
differ in few places it can name without writing their letters overrides
disagreements: Toeplitz and Thue-Morse points at one address read their
spans (one slot, or one half-line or the whole line) off the payloads, and
Thue-Morse points at two addresses compare their y words once instead of
their letters.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..core import System
from ..profiles import SCALE_BITS, DistanceProfile

# disagreements farther than the quantization depth contribute exactly zero,
# both on the scaled grid and after rounding to float
_PAD = SCALE_BITS + 2


class SymbolicSystem(System):
    diameter = 1.0

    def coords(self, payload, lo: int, hi: int) -> np.ndarray:
        """Letters x_n for n in [lo, hi], as a uint8 array."""
        raise NotImplementedError

    def disagreements(self, p, q, lo: int, hi: int) -> Tuple[np.ndarray, np.ndarray]:
        """(starts, ends): the maximal half-open spans [starts[k], ends[k])
        of positions in [lo, hi] where the letters of p and q differ, as
        ascending int64 arrays.  Compares the letters once; the span edges
        are read from an int8 mask of the disagreements."""
        mask = np.zeros(hi - lo + 3, np.int8)
        np.not_equal(self.coords(p, lo, hi), self.coords(q, lo, hi),
                     out=mask[1:-1].view(bool))
        edges = np.flatnonzero(mask[1:] != mask[:-1]) + lo
        return edges[0::2], edges[1::2]

    def dist(self, p, q) -> float:
        if p == q:
            return 0.0
        starts, ends = self.disagreements(p, q, -SCALE_BITS, SCALE_BITS)
        if starts.size == 0:
            # distinct points agreeing out to the grid depth: below float
            # resolution either way
            return 0.0
        # |n| of the disagreement nearest 0: 0 inside a span, else the
        # nearer end of the nearest span on either side
        k = int(np.min(np.maximum(np.maximum(starts, 1 - ends), 0)))
        return 2.0 ** (-k)

    def pair_profile(self, p, q, lo: int, hi: int) -> DistanceProfile:
        starts, ends = self.disagreements(p, q, lo - _PAD, hi + _PAD)
        return DistanceProfile.from_spans(lo, hi, starts - lo, ends - lo)
