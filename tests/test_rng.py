import numpy as np
import pytest

from retinapipe.rng import _MASK, Xoshiro256


class PerDrawXoshiro(Xoshiro256):
    """The per-draw generator Xoshiro256's block draws replaced, kept as the oracle."""

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s
        result = (self._rotl((s1 * 5) & _MASK, 7) * 9) & _MASK
        t = (s1 << 17) & _MASK
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = self._rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return result

    @staticmethod
    def _rotl(x: int, k: int) -> int:
        return ((x << k) | (x >> (64 - k))) & _MASK

    def uniform(self, low, high, shape=None):
        if shape is None:
            return low + (high - low) * self.random()
        n = int(np.prod(shape))
        vals = np.empty(n, dtype=np.float64)
        for i in range(n):
            vals[i] = low + (high - low) * self.random()
        return vals.reshape(shape)


class TestStream:
    @pytest.mark.parametrize("seed", [0, 1, 42, 2**64 - 1])
    def test_next_u64_matches_per_draw_oracle(self, seed):
        a, b = Xoshiro256(seed), PerDrawXoshiro(seed)
        assert [a.next_u64() for _ in range(500)] == [b.next_u64() for _ in range(500)]

    @pytest.mark.parametrize("low, high, shape", [
        (-1.0, 1.0, (192, 48)), (0, 1, (7,)), (-np.sqrt(6.0 / 11), np.sqrt(6.0 / 11), (3, 2, 3, 3)),
        (2.5, 2.5, (4,)), (0.0, 1.0, (0, 3)), (-3, 5, ())])
    def test_uniform_matches_per_draw_oracle(self, low, high, shape):
        a, b = Xoshiro256(9), PerDrawXoshiro(9)
        for _ in range(2):  # and the state after the block continues the same stream
            got, want = a.uniform(low, high, shape), b.uniform(low, high, shape)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert a.random() == b.random()
        assert a.randrange(1000) == b.randrange(1000)

    def test_scalar_uniform_unchanged(self):
        a, b = Xoshiro256(3), PerDrawXoshiro(3)
        assert [a.uniform(-2.0, 7.0) for _ in range(50)] == [b.uniform(-2.0, 7.0) for _ in range(50)]
