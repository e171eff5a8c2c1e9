"""Seedable pseudorandom numbers for every stochastic step in the pipeline.

The generator is xoshiro256++ with splitmix64 seeding. For cheap bulk draws
the implementation advances ``LANES`` independent xoshiro256++ streams in
lockstep with numpy uint64 arithmetic; one step yields a block of ``LANES``
64-bit words, and consumers read the concatenation of those blocks as a
single stream. Lane count and seeding order are fixed constants of the
algorithm, so a seed produces the identical stream on every platform.
"""

from __future__ import annotations

import math
import operator

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# One scaled 53-bit mantissa per uniform double.
_U53 = 2.0 ** -53

# shift counts of one xoshiro256++ step, and the one that keeps a 53-bit mantissa;
# numpy takes 0-d arrays faster than scalars
_11, _17, _19, _23, _41, _45 = (np.array(k, np.uint64) for k in (11, 17, 19, 23, 41, 45))

# Box-Muller pairs per block: a block's scratch stays in the CPU cache
_BLOCK = 8192


def splitmix64(seed: int, n: int) -> np.ndarray:
    """First ``n`` outputs of the splitmix64 stream started at ``seed``."""
    idx = np.arange(1, n + 1, dtype=np.uint64)
    z = np.uint64(seed & _MASK) + idx * np.uint64(_GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def _fnv1a64(text: str) -> int:
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK
    return h


def derive_seed(seed: int, label: str) -> int:
    """Deterministic child seed for a named sub-stream of ``seed``."""
    return int(splitmix64((seed & _MASK) ^ _fnv1a64(label), 2)[1])


def _count(n) -> int:
    """``n`` as a draw count: any integer, numpy's included; ValueError if negative."""
    n = operator.index(n)
    if n < 0:
        raise ValueError(f"draw count must be non-negative, got {n}")
    return n


def _shape(shape) -> tuple[tuple[int, ...], int]:
    """A draw's shape (a count or a sequence of them, see ``_count``) and its value count.

    The empty shape () holds one value, which the draw returns as a scalar.
    """
    dims = tuple(map(_count, (shape,) if hasattr(shape, "__index__") else shape))
    return dims, math.prod(dims)


class Rng:
    """xoshiro256++ stream with vectorized lanes.

    Lane ``l`` is a canonical xoshiro256++ generator whose four state words
    are splitmix64 outputs ``4l+1 .. 4l+4`` of the seed. Each step emits one
    word per lane (lane-major), and draws consume that stream in order.
    """

    LANES = 1024

    def __init__(self, seed: int):
        self.seed = seed & _MASK
        words = splitmix64(self.seed, 4 * self.LANES)
        # the lane states, one row per state word s0..s3; two rows of step temporaries
        self._s = words.reshape(self.LANES, 4).T.copy()
        self._tmp = np.empty((2, self.LANES), dtype=np.uint64)
        # the unread tail of the last block stepped only in part
        self._buf = np.empty(self.LANES, dtype=np.uint64)
        self._pos = self.LANES

    def spawn(self, label: str) -> "Rng":
        """Independent generator for a named purpose, derived from the seed."""
        return Rng(derive_seed(self.seed, label))

    def _step(self, out: np.ndarray) -> None:
        """Advance every lane one step in place, writing its word into ``out``."""
        s0, s1, s2, s3 = self._s
        a, b = self._tmp
        np.add(s0, s3, out=a)
        np.left_shift(a, _23, out=b)  # out = rotl(s0 + s3, 23) + s0
        np.right_shift(a, _41, out=a)
        np.bitwise_or(a, b, out=a)
        np.add(a, s0, out=out)
        np.left_shift(s1, _17, out=b)  # t = s1 << 17
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= b
        np.left_shift(s3, _45, out=a)  # s3 = rotl(s3, 45)
        np.right_shift(s3, _19, out=s3)
        np.bitwise_or(s3, a, out=s3)

    def u64(self, n: int) -> np.ndarray:
        """Next ``n`` raw 64-bit words of the stream, in a new array."""
        n = _count(n)
        out = np.empty(n, dtype=np.uint64)
        lo = min(n, self.LANES - self._pos)
        out[:lo] = self._buf[self._pos : self._pos + lo]
        self._pos += lo
        while n - lo >= self.LANES:
            self._step(out[lo : lo + self.LANES])
            lo += self.LANES
        if lo < n:
            self._step(self._buf)
            self._pos = n - lo
            out[lo:] = self._buf[: self._pos]
        return out

    def uniform(self, shape=()) -> np.ndarray:
        """Doubles in [0, 1), one 53-bit mantissa per value, in ``shape`` (see ``_shape``)."""
        shape, n = _shape(shape)
        out = (self.u64(n) >> _11).astype(np.float64) * _U53
        return out.reshape(shape) if shape else float(out[0])

    def normal(self, shape=()) -> np.ndarray:
        """Standard Gaussian values in ``shape`` (see ``_shape``), by Box-Muller on uniform pairs.

        The ``2m`` words give the pairs (word i, word m + i); pair i yields
        values i and m + i. The pairs run in blocks through two reused
        scratch rows, and each value gets the same float operations, in the
        same order, as whole-array numpy code.
        """
        shape, n = _shape(shape)
        m = (n + 1) // 2
        w = self.u64(2 * m)
        z = np.empty(2 * m)
        scratch = np.empty((2, min(_BLOCK, m)))
        for i in range(0, m, _BLOCK):
            k = min(_BLOCK, m - i)
            w1, w2 = w[i : i + k], w[m + i : m + i + k]
            r, theta = scratch[:, :k]
            # u1 in (0, 1] keeps the log finite; u2 in [0, 1).
            np.right_shift(w1, _11, out=w1)
            np.add(w1, 1.0, out=r)
            r *= _U53
            np.log(r, out=r)
            r *= -2.0
            np.sqrt(r, out=r)
            np.right_shift(w2, _11, out=w2)
            np.multiply(w2, _U53, out=theta)
            theta *= 2.0 * np.pi
            cos, sin = z[i : i + k], z[m + i : m + i + k]
            np.cos(theta, out=cos)
            cos *= r
            np.sin(theta, out=sin)
            sin *= r
        z = z[:n]
        return z.reshape(shape) if shape else float(z[0])

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates shuffle of range(n), one uniform per position; ValueError if n < 0."""
        n = _count(n)
        if n < 2:
            return np.arange(n)
        # on Python lists: indexing numpy scalars costs more than the swaps
        perm = list(range(n))
        for i, u in zip(range(n - 1, 0, -1), self.uniform(n - 1).tolist()):
            j = int(u * (i + 1))
            perm[i], perm[j] = perm[j], perm[i]
        return np.array(perm)

