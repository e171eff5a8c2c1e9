"""Generator correctness: scalar reference oracle, determinism, distributions."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from uavfuse.rng import Rng, derive_seed, splitmix64

MASK = 0xFFFFFFFFFFFFFFFF


def _splitmix64_ref(seed):
    """Reference splitmix64, straight off the published recurrence."""
    state = seed & MASK
    while True:
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        yield z ^ (z >> 31)


class _Xoshiro256ppRef:
    """Reference scalar xoshiro256++ (rotl/xor/shift recurrence)."""

    def __init__(self, s0, s1, s2, s3):
        self.s = [s0, s1, s2, s3]

    @staticmethod
    def _rotl(x, k):
        return ((x << k) | (x >> (64 - k))) & MASK

    def next(self):
        s = self.s
        out = (self._rotl((s[0] + s[3]) & MASK, 23) + s[0]) & MASK
        t = (s[1] << 17) & MASK
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = self._rotl(s[3], 45)
        return out


def test_splitmix64_matches_reference():
    ref = _splitmix64_ref(1234)
    expected = [next(ref) for _ in range(64)]
    got = splitmix64(1234, 64)
    assert [int(v) for v in got] == expected


def test_lanes_match_scalar_xoshiro_reference():
    seed = 42
    words = [int(v) for v in splitmix64(seed, 4 * Rng.LANES)]
    lanes = [
        _Xoshiro256ppRef(*words[4 * l : 4 * l + 4]) for l in range(Rng.LANES)
    ]
    expected = []
    for _ in range(3):  # three full blocks
        expected.extend(lane.next() for lane in lanes)
    rng = Rng(seed)
    got = rng.u64(3 * Rng.LANES)
    assert [int(v) for v in got] == expected


def test_same_seed_same_stream():
    a = Rng(777)
    b = Rng(777)
    assert np.array_equal(a.u64(5000), b.u64(5000))
    assert np.array_equal(a.normal(333), b.normal(333))


def test_different_seeds_differ():
    assert not np.array_equal(Rng(1).u64(64), Rng(2).u64(64))


def test_draws_are_buffered_consistently():
    # many small draws must equal one big draw of the same stream
    whole = Rng(9).u64(1000)
    rng = Rng(9)
    parts = np.concatenate([rng.u64(n) for n in (1, 7, 300, 692)])
    assert np.array_equal(whole, parts)


def test_uniform_range_and_mean():
    u = Rng(5).uniform(200_000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.005


def test_normal_moments():
    z = Rng(6).normal(200_000)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01


def test_permutation_is_a_permutation():
    p = Rng(3).permutation(257)
    assert sorted(p.tolist()) == list(range(257))
    assert np.array_equal(Rng(3).permutation(257), p)


def _permutation_ref(rng, n):
    """The Fisher-Yates loop on a numpy array that Rng.permutation runs on lists."""
    perm = np.arange(n)
    if n < 2:
        return perm
    u = rng.uniform(n - 1)
    for i in range(n - 1, 0, -1):
        j = int(u[n - 1 - i] * (i + 1))
        perm[i], perm[j] = perm[j], perm[i]
    return perm


@pytest.mark.parametrize("n", [0, 1, 2, 3, 257, 1588])
def test_permutation_matches_the_array_loop(n):
    rng, ref = Rng(n + 40), Rng(n + 40)
    rng.u64(5)  # start mid-block
    ref.u64(5)
    got, want = rng.permutation(n), _permutation_ref(ref, n)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.array_equal(rng.u64(7), ref.u64(7))


def test_spawn_streams_are_stable_and_distinct():
    root = Rng(11)
    a1 = root.spawn("init").u64(16)
    a2 = Rng(11).spawn("init").u64(16)
    b = root.spawn("dropout").u64(16)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert derive_seed(11, "init") != derive_seed(11, "dropout")
    assert derive_seed(11, "init") != derive_seed(12, "init")


class _AllocatingRng(Rng):
    """Oracle: the generator as it was before its steps ran in place.

    Each step allocates its temporaries and its block of words, and a draw
    concatenates the blocks it reads. ``uniform``, ``normal`` and
    ``permutation`` are inherited, so they read this ``u64``.
    """

    def __init__(self, seed):
        super().__init__(seed)
        s = splitmix64(self.seed, 4 * self.LANES).reshape(self.LANES, 4).T.copy()
        self._s0, self._s1, self._s2, self._s3 = s[0], s[1], s[2], s[3]
        self._block = np.empty(0, dtype=np.uint64)
        self._read = 0

    @staticmethod
    def _rotl(x, k):
        return (x << np.uint64(k)) | (x >> np.uint64(64 - k))

    def _allocating_step(self):
        s0, s1, s2, s3 = self._s0, self._s1, self._s2, self._s3
        out = self._rotl(s0 + s3, 23) + s0
        t = s1 << np.uint64(17)
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        self._s0, self._s1, self._s2, self._s3 = s0, s1, s2, self._rotl(s3, 45)
        return out

    def u64(self, n):
        parts = []
        avail = self._block[self._read:]
        if avail.size:
            take = avail[:n]
            parts.append(take)
            self._read += take.size
            n -= take.size
        while n > 0:
            block = self._allocating_step()
            if n >= block.size:
                parts.append(block)
                n -= block.size
            else:
                self._block = block
                self._read = n
                parts.append(block[:n])
                n = 0
        if len(parts) == 1:
            return parts[0].copy()
        return np.concatenate(parts) if parts else np.empty(0, dtype=np.uint64)


SIZES = st.sampled_from([0, 1, 2, 1023, 1024, 1025, 2047, 4800, 70_000]) | st.integers(0, 5000)
DRAWS = st.lists(
    st.tuples(st.sampled_from(["u64", "uniform", "normal", "permutation"]), SIZES),
    min_size=1,
    max_size=8,
)


@given(seed=st.integers(0, 2**64 - 1), draws=DRAWS)
def test_in_place_steps_match_the_allocating_oracle(seed, draws):
    rng, oracle = Rng(seed), _AllocatingRng(seed)
    for kind, n in draws:
        n = min(n, 5000) if kind == "permutation" else n
        got, want = getattr(rng, kind)(n), getattr(oracle, kind)(n)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (kind, n)


def test_draws_own_their_memory():
    for n in (1, 1023, 1024, 1025, 4800):
        rng, twin = Rng(4), Rng(4)
        words, _ = rng.u64(n), twin.u64(n)
        assert words.flags.owndata
        for state in (rng._s, rng._tmp, rng._buf):
            assert not np.shares_memory(words, state)
        words[:] = 0
        assert np.array_equal(rng.u64(3000), twin.u64(3000))
        assert np.array_equal(rng.uniform(5), twin.uniform(5))
