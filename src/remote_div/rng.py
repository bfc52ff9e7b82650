"""Counter-based random number streams.

Every randomized routine in the package derives its randomness from a
(seed, stream) pair fed into a Philox4x64-10 counter-based generator
(Salmon et al., SC'11), so repeated trials are mutually independent and
each one is reproducible in isolation. Stream ids below 2**32 are reserved
for trial indices; helpers that need a one-off stream (for example a random
start point) use ids above that.

The package draws only from its own Philox block, computed with numpy
array arithmetic for many streams at once. `uniforms` turns the words into
doubles, and `Stream` reads one stream with the consumption rules of numpy's
`Generator` over its `Philox` bit generator keyed by (seed, stream), so every
draw equals that generator's bit for bit. numpy's generator is the tests'
oracle only: no command imports it, which saves its import time and memory.
"""
from __future__ import annotations

import numpy as np

from .errors import PreconditionError

START_POINT_STREAM = 2**32
SPLIT_STREAM = 2**32 + 1
# Philox4x64 round multipliers and key increments (Salmon et al., SC'11).
_M0, _M1, _W0, _W1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157, 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_U32 = 0xFFFFFFFF
# numpy's choice(n, size, replace=False) runs Floyd's algorithm up to here.
SAMPLE_MAX_N = 10_000


def check_seed(seed: int) -> None:
    if not 0 <= seed < 2**64:
        raise PreconditionError("seed must fit in 64 unsigned bits")


def _mulhilo(a: np.ndarray, b: int, hi: np.ndarray, lo: np.ndarray, s: np.ndarray, t: np.ndarray) -> None:
    """Write the high and low words of the 128-bit products a*b into `hi`
    and `lo`, from 32-bit halves; `s` and `t` are scratch of a's shape."""
    b0, b1 = b & _U32, b >> 32
    np.bitwise_and(a, _U32, out=s)  # a0
    np.multiply(s, b0, out=t)
    np.right_shift(t, 32, out=t)
    np.multiply(s, b1, out=s)
    np.add(t, s, out=t)  # (a0*b0 >> 32) + a0*b1 < 2**64
    np.right_shift(a, 32, out=s)  # a1
    np.multiply(s, b1, out=hi)
    np.multiply(s, b0, out=s)
    np.right_shift(s, 32, out=lo)
    np.add(hi, lo, out=hi)
    np.bitwise_and(s, _U32, out=s)
    np.add(t, s, out=t)  # the cross sum: the low 64 bits' carry is t >> 32
    np.right_shift(t, 32, out=t)
    np.add(hi, t, out=hi)
    np.multiply(a, b, out=lo)


def _words(seed: int, streams, m: int, first_block: int = 0) -> np.ndarray:
    """Row i holds the m 64-bit words of stream streams[i] from block
    `first_block` on. Philox is a pure function of (key, counter): numpy
    makes block b of stream s from key (seed, s) and counter (b+1, 0, 0, 0),
    so all streams' blocks are computed together. The rounds run in ten
    preallocated arrays: each round writes its products into the four the
    previous round's state leaves free, and the two sets swap."""
    check_seed(seed)
    k1 = np.asarray(streams, dtype=np.uint64).reshape(-1, 1)
    k0 = np.full_like(k1, seed)
    c0 = np.arange(first_block + 1, first_block + (m + 3) // 4 + 1, dtype=np.uint64) + np.zeros_like(k1)
    c1, c2, c3 = (np.zeros_like(c0) for _ in range(3))
    hi0, lo0, hi1, lo1, s, t = (np.empty_like(c0) for _ in range(6))
    for _ in range(10):
        _mulhilo(c0, _M0, hi0, lo0, s, t)
        _mulhilo(c2, _M1, hi1, lo1, s, t)
        hi1 ^= c1
        hi1 ^= k0
        hi0 ^= c3
        hi0 ^= k1
        (c0, c1, c2, c3), (hi0, lo0, hi1, lo1) = (hi1, lo1, hi0, lo0), (c0, c1, c2, c3)
        k0 += _W0
        k1 += _W1
    return np.stack([c0, c1, c2, c3], axis=-1).reshape(len(k1), 4 * c0.shape[1])[:, :m]


def _doubles(words: np.ndarray) -> np.ndarray:
    """numpy's next_double: a word w is (w >> 11) * 2**-53."""
    return (words >> 11) * 2.0**-53


def uniforms(seed: int, streams, m: int) -> np.ndarray:
    """Row i is the first m doubles of stream streams[i] under `seed`."""
    return _doubles(_words(seed, streams, m))


class Stream:
    """A cursor over one (seed, stream), drawing as numpy's Generator over
    Philox does: `next_uint32` returns the low half of the next word and then
    its high half, which stays buffered across calls; a double takes a whole
    word and leaves the buffered half alone. `words`, when given, are the
    stream's first words (one row of `_words`); whole blocks at the next
    counter are fetched only when a draw runs past them."""

    def __init__(self, seed: int, stream: int, words: np.ndarray | None = None):
        check_seed(seed)
        self.seed, self.stream = seed, stream
        self._buf = np.empty(0, dtype=np.uint64) if words is None else words
        self._pos = 0
        self._half: int | None = None

    def _reserve(self, count: int) -> None:
        """Hold at least `count` unread words, fetched in one block call."""
        end = self._pos + count
        if end > len(self._buf):
            whole = len(self._buf) // 4
            more = _words(self.seed, [self.stream], end - 4 * whole, first_block=whole)[0]
            self._buf = np.concatenate([self._buf[: 4 * whole], more])

    def _take(self, count: int) -> np.ndarray:
        self._reserve(count)
        self._pos += count
        return self._buf[self._pos - count : self._pos]

    def _uint32s(self, count: int) -> list[int]:
        """The next `count` draws of next_uint32."""
        out = []
        if count and self._half is not None:
            out.append(self._half)
            self._half = None
        rest = count - len(out)
        if rest:
            words = self._take((rest + 1) // 2)
            out += np.stack([words & _U32, words >> 32], axis=1).ravel().tolist()
            if rest % 2:
                self._half = out.pop()
        return out

    def _bounded(self, rng: int) -> int:
        """A draw in [0, rng], rng < 2**32: Lemire's multiply-and-reject on
        32-bit values (Lemire, ACM TOMS 2019), as numpy's
        buffered_bounded_lemire_uint32; rng 0 draws nothing, and 2**32-1
        takes one raw draw."""
        if rng == 0:
            return 0
        if rng == _U32:
            return self._uint32s(1)[0]
        excl = rng + 1
        m = self._uint32s(1)[0] * excl
        if (m & _U32) < excl:
            threshold = (2**32 - excl) % excl
            while (m & _U32) < threshold:
                m = self._uint32s(1)[0] * excl
        return m >> 32

    def random(self, size: int | tuple[int, ...]) -> np.ndarray:
        """Uniform doubles in [0, 1) of shape `size`, in C order."""
        return _doubles(self._take(int(np.prod(size)))).reshape(size)

    def integers(self, lo: int, hi: int) -> int:
        """A uniform int in [lo, hi), as `Generator.integers(lo, hi)` for a
        range of at most 2**32."""
        if not 0 < hi - lo <= 2**32:
            raise ValueError(f"integers needs 0 < hi - lo <= 2**32; got [{lo}, {hi})")
        return lo + self._bounded(hi - lo - 1)

    def permutation(self, n: int) -> np.ndarray:
        """`Generator.permutation(n)`: Fisher-Yates over arange(n) for
        i = n-1..1, each j drawn by masked rejection on 32-bit values."""
        perm = list(range(n))
        self._reserve(n)  # about what the draws take: n-1 halves, plus rejections
        i = n - 1
        while i > 0:
            # Each of i positions left needs at least one draw, so no draw
            # of the batch goes unused.
            for value in self._uint32s(i):
                j = value & ((1 << i.bit_length()) - 1)
                if j <= i:
                    perm[i], perm[j] = perm[j], perm[i]
                    i -= 1
        return np.array(perm, dtype=np.int64)

    def sample(self, n: int, size: int) -> list[int]:
        """`Generator.choice(n, size, replace=False)` for n up to
        `SAMPLE_MAX_N`: Floyd's algorithm with a Lemire draw in [0, j] for
        j = n-size..n-1, then a shuffle with draws in [0, i] for
        i = size-1..1 (it orders the result and advances the stream)."""
        if not 0 <= size <= n <= SAMPLE_MAX_N:
            raise ValueError(f"sample needs 0 <= size <= n <= {SAMPLE_MAX_N}; got n={n}, size={size}")
        self._reserve(size)  # about what the draws take: 2*size-1 halves
        chosen: list[int] = []
        seen: set[int] = set()
        for j in range(n - size, n):
            value = self._bounded(j)
            if value in seen:
                value = j
            seen.add(value)
            chosen.append(value)
        for i in range(size - 1, 0, -1):
            j = self._bounded(i)
            chosen[i], chosen[j] = chosen[j], chosen[i]
        return chosen


def streams(seed: int, ids, prefetch: int) -> list[Stream]:
    """A `Stream` per id, each holding its first `prefetch` words from one
    block call for all of them."""
    ids = list(ids)
    return [Stream(seed, s, row) for s, row in zip(ids, _words(seed, ids, prefetch))]
