"""The seeded draws of the samplers, from the standard library alone.

SeedStream(seed) returns, draw for draw, what numpy.random.default_rng(seed)
returns for the three draws weylab makes: integers(low, high) with
1 <= high - low <= 2**32, the full integers(0, 2**64, dtype=np.uint64) and
random().  The seed is hashed into a four-word pool as numpy's
SeedSequence does, and the pool seeds PCG64: a 128-bit linear congruential
generator with the XSL-RR output function (O'Neill, HMC-CS-2014-0905).
32-bit draws take the low half of a 64-bit output and then its buffered
high half; a bounded draw is Lemire's multiply-shift with rejection (ACM
TOMACS 29(1), 2019).  NEP 19 keeps numpy's bit streams fixed across
releases but not Generator.integers, so owning the stream keeps sampled
pairs, and every output built from them, fixed whatever numpy is installed.
"""

_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_POOL_WORDS = 4


def _pool(seed: int) -> list:
    """SeedSequence(seed).pool: the seed's 32-bit words, low first, hashed
    into four words that are then mixed into each other."""
    words = [seed & _M32]
    while seed >> 32:
        seed >>= 32
        words.append(seed & _M32)
    const = 0x43B0D7E5

    def hashmix(value):
        nonlocal const
        value ^= const
        const = const * 0x931E8875 & _M32
        value = value * const & _M32
        return value ^ value >> 16

    def mix(x, y):
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    padded = words + [0] * (_POOL_WORDS - len(words))
    pool = [hashmix(word) for word in padded[:_POOL_WORDS]]
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_WORDS:]:  # entropy beyond the pool's four words
        for dst in range(_POOL_WORDS):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


class SeedStream:
    """numpy.random.default_rng(seed), for the draws weylab makes."""

    def __init__(self, seed: int):
        if seed < 0:
            raise ValueError("seed must be non-negative, got %d" % seed)
        pool, const, words = _pool(seed), 0x8B51F9DD, []
        for i in range(8):  # SeedSequence.generate_state(4, np.uint64)
            value = pool[i % _POOL_WORDS] ^ const
            const = const * 0x58F38DED & _M32
            value = value * const & _M32
            words.append(value ^ value >> 16)
        s0, s1, i0, i1 = (words[k] | words[k + 1] << 32 for k in range(0, 8, 2))
        self._inc = ((i0 << 64 | i1) << 1 | 1) & _M128
        self._state = 0
        self._next64()
        self._state += s0 << 64 | s1
        self._next64()
        self._half = None  # the high half of a 64-bit output, not yet drawn

    def _next64(self) -> int:
        self._state = state = (self._state * _PCG_MULT + self._inc) & _M128
        word, rot = (state >> 64 ^ state) & _M64, state >> 122
        return (word >> rot | word << (64 - rot)) & _M64

    def _next32(self) -> int:
        if self._half is not None:
            half, self._half = self._half, None
            return half
        word = self._next64()
        self._half = word >> 32
        return word & _M32

    def integers(self, low: int, high: int, dtype=None) -> int:
        """A uniform int in [low, high).  dtype is taken for the numpy call
        sites' sake: numpy draws these ranges alike for int64 and uint64."""
        span = high - low
        if span == 1 << 64 and low == 0:
            return self._next64()
        if not 1 <= span <= 1 << 32:
            raise ValueError("unsupported range [%d, %d)" % (low, high))
        if span == 1:
            return low  # numpy draws nothing for a one-value range
        if span == 1 << 32:
            return low + self._next32()
        m = self._next32() * span
        if m & _M32 < span:
            threshold = (1 << 32) % span
            while m & _M32 < threshold:
                m = self._next32() * span
        return low + (m >> 32)

    def random(self) -> float:
        """A uniform float in [0, 1), on the 2^-53 grid."""
        return (self._next64() >> 11) * (1.0 / 9007199254740992.0)
