"""Counter-based pseudorandom generator owned by the artifact.

Draw i is a pure function of (seed, stream key, counter + i), so identical
seeds reproduce bit-identical streams regardless of platform or of numpy's
global RNG state. The mixer is the splitmix64 finalizer; stream keys are
derived from tags with FNV-1a so string hashing stays deterministic too.
"""

from __future__ import annotations

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

_U64_MASK = (1 << 64) - 1
# Silence numpy's overflow warnings: uint64 wraparound is the point here.
_ERR = {"over": "ignore"}


def _mix(z: np.ndarray) -> np.ndarray:
    with np.errstate(**_ERR):
        z = (z ^ (z >> np.uint64(30))) * _MIX_A
        z = (z ^ (z >> np.uint64(27))) * _MIX_B
        return z ^ (z >> np.uint64(31))


def _fnv1a(tag: str) -> int:
    h = _FNV_OFFSET
    for byte in tag.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _U64_MASK
    return h


def unit_interval(words: np.ndarray) -> np.ndarray:
    """Doubles in [0, 1) with 53-bit resolution, one per word."""
    return (words >> np.uint64(11)).astype(np.float64) * 2.0**-53


def box_muller(words: np.ndarray, n: int) -> np.ndarray:
    """``n`` standard normals from each row of ``2 * ceil(n / 2)`` words
    along the last axis: the first half gives u1 (kept strictly
    positive), the second half u2."""
    pairs = words.shape[-1] // 2
    u1 = ((words[..., :pairs] >> np.uint64(11)).astype(np.float64) + 1.0) \
        * 2.0**-53
    u2 = unit_interval(words[..., pairs:])
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * np.pi * u2
    return np.concatenate([r * np.cos(theta), r * np.sin(theta)],
                          axis=-1)[..., :n]


class Rng:
    """Deterministic counter-based random stream."""

    def __init__(self, seed: int, key: int = 0):
        self._seed = np.uint64(int(seed) & _U64_MASK)
        self._key = np.uint64(int(key) & _U64_MASK)
        self._counter = 0

    def split(self, tag: str) -> "Rng":
        """Derive an independent child stream named by ``tag``."""
        child_key = _mix(np.asarray(int(self._key) ^ _fnv1a(tag),
                                    dtype=np.uint64))
        return Rng(int(self._seed), int(child_key))

    def raw(self, n: int) -> np.ndarray:
        """Next ``n`` raw 64-bit words."""
        idx = np.arange(self._counter, self._counter + n, dtype=np.uint64)
        self._counter += n
        with np.errstate(**_ERR):
            z = self._seed + _GAMMA * (idx + np.uint64(1)) + self._key
        return _mix(z)

    def uniform(self, shape=(), low: float = 0.0, high: float = 1.0) -> np.ndarray:
        """Doubles in [low, high) with 53-bit resolution."""
        n = int(np.prod(shape)) if shape else 1
        out = low + (high - low) * unit_interval(self.raw(n))
        return out.reshape(shape) if shape else float(out[0])

    def normal(self, shape=(), std: float = 1.0) -> np.ndarray:
        """Zero-mean Box-Muller Gaussian draws (u1 kept strictly positive)."""
        n = int(np.prod(shape)) if shape else 1
        out = std * box_muller(self.raw(2 * ((n + 1) // 2)), n)
        return out.reshape(shape) if shape else float(out[0])

    def integers(self, n: int, bound: int) -> np.ndarray:
        """``n`` ints uniform in [0, bound). Modulo bias is ~bound/2**64."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return (self.raw(n) % np.uint64(bound)).astype(np.int64)

    def randint(self, bound: int) -> int:
        return int(self.integers(1, bound)[0])

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n): swap i with word % (i + 1)
        for i from n - 1 down to 1, one word each."""
        order = list(range(n))
        bounds = np.arange(n, 1, -1, dtype=np.uint64)
        for i, j in zip(range(n - 1, 0, -1),
                        (self.raw(len(bounds)) % bounds).tolist()):
            order[i], order[j] = order[j], order[i]
        return np.asarray(order, dtype=np.int64)

    def choice(self, n: int, k: int) -> np.ndarray:
        """``k`` distinct indices from range(n); requires k <= n."""
        if k > n:
            raise ValueError(f"cannot draw {k} from {n} without replacement")
        return self.permutation(n)[:k]
