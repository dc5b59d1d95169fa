"""Deterministic PRNG (xoshiro256**) so every run is reproducible from one 64-bit seed.

We deliberately avoid the stdlib Mersenne Twister and numpy's default bit
generators: the exact stream here is part of the artifact contract (seeded
splits, initializations and synthetic data must be bit-stable across
platforms and library versions).
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return state, z ^ (z >> 31)


def derive_seed(seed: int, *salts: int) -> int:
    """Mix a base seed with integer salts (e.g. epoch number) into a new seed."""
    s = seed & _MASK
    for salt in salts:
        s, v = _splitmix64(s ^ (salt & _MASK))
        s = v
    s, v = _splitmix64(s)
    return v


class Xoshiro256:
    """xoshiro256** generator, state seeded through splitmix64."""

    def __init__(self, seed: int):
        s = seed & _MASK
        state = []
        for _ in range(4):
            s, v = _splitmix64(s)
            state.append(v)
        self._s = state

    def next_u64(self) -> int:
        # scrambled in Python ints: a one-element array costs several times more
        x = (self._step(1)[0] * 5) & _MASK
        return ((((x << 7) | (x >> 57)) & _MASK) * 9) & _MASK

    def _next_u64s(self, n: int) -> np.ndarray:
        """The next n outputs as uint64: the ** scrambler runs once over the array,
        whose wrapping uint64 arithmetic is exact mod 2^64."""
        x = np.array(self._step(n), dtype=np.uint64) * np.uint64(5)
        return ((x << np.uint64(7)) | (x >> np.uint64(57))) * np.uint64(9)

    def _step(self, n: int) -> list[int]:
        """Advance the state n times; the s1 word before each step, which the
        scrambler turns into that step's output."""
        s0, s1, s2, s3 = self._s
        s1s = []
        for _ in range(n):
            s1s.append(s1)
            t = (s1 << 17) & _MASK
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = ((s3 << 45) | (s3 >> 19)) & _MASK
        self._s = [s0, s1, s2, s3]
        return s1s

    def random(self) -> float:
        # 53 bits of mantissa, uniform in [0, 1)
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def uniform(self, low: float, high: float, shape=None):
        if shape is None:
            return low + (high - low) * self.random()
        u = self._next_u64s(int(np.prod(shape)))
        r = (u >> np.uint64(11)).astype(np.float64) * 2.0 ** -53  # both steps exact
        return (low + (high - low) * r).reshape(shape)

    def randrange(self, n: int) -> int:
        if n <= 0:
            raise ValueError("randrange needs n >= 1")
        # rejection sampling keeps the draw unbiased
        limit = (_MASK + 1) - ((_MASK + 1) % n)
        while True:
            v = self.next_u64()
            if v < limit:
                return v % n

    def shuffle(self, seq: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(seq) - 1, 0, -1):
            j = self.randrange(i + 1)
            seq[i], seq[j] = seq[j], seq[i]
