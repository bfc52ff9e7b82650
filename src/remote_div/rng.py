"""Counter-based random number streams.

Every randomized routine in the package derives its randomness from a
(seed, stream) pair fed into a Philox4x64-10 counter-based generator
(Salmon et al., SC'11), so repeated trials are mutually independent and
each one is reproducible in isolation. Stream ids below 2**32 are reserved
for trial indices; helpers that need a one-off stream (for example a random
start point) use ids above that.

The package draws only from its own Philox block, computed with numpy
array arithmetic for many streams at once; `uniforms` turns the words into
doubles, each numpy's `Generator.random` over its `Philox` bit generator
keyed by (seed, stream). Every other draw takes one of two rules:
`permutation` is the stable argsort of n doubles (a sample is its prefix),
and `integer` scales a word's high 32 bits into [lo, hi). Neither is
numpy's consumption rule, so a random split cannot be reproduced with
`Generator.permutation`. numpy's generator is the tests' oracle only: no
command imports it, which saves its import time and memory.
"""
from __future__ import annotations

import numpy as np

from .errors import PreconditionError

START_POINT_STREAM = 2**32
SPLIT_STREAM = 2**32 + 1
# Philox4x64 round multipliers and key increments (Salmon et al., SC'11).
_M0, _M1, _W0, _W1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157, 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_U32 = 0xFFFFFFFF


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


def _words(seed: int, streams, m: int) -> np.ndarray:
    """Row i holds the first m 64-bit words of stream streams[i]. Philox is
    a pure function of (key, counter): numpy makes block b of stream s from
    key (seed, s) and counter (b+1, 0, 0, 0), so all streams' blocks are
    computed together. The rounds run in ten preallocated arrays: each round
    writes its products into the four the previous round's state leaves
    free, and the two sets swap."""
    check_seed(seed)
    k1 = np.asarray(streams, dtype=np.uint64).reshape(-1, 1)
    k0 = np.full_like(k1, seed)
    c0 = np.arange(1, (m + 3) // 4 + 1, dtype=np.uint64) + np.zeros_like(k1)
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
    del hi0, lo0, hi1, lo1, s, t  # scratch, freed before the output is stacked
    return np.stack([c0, c1, c2, c3], axis=-1).reshape(len(k1), 4 * c0.shape[1])[:, :m]


def _doubles(words: np.ndarray) -> np.ndarray:
    """numpy's next_double: a word w is (w >> 11) * 2**-53. The words are
    the caller's to give up: they are shifted in place."""
    words >>= 11
    return words * 2.0**-53


def uniforms(seed: int, streams, m: int) -> np.ndarray:
    """Row i is the first m doubles of stream streams[i] under `seed`."""
    return _doubles(_words(seed, streams, m))


def permutation(doubles: np.ndarray) -> np.ndarray:
    """A uniform order of range(len(doubles)): their stable argsort (a sample
    is a prefix). Distinct doubles have one sorted order, so numpy's faster
    default sort gives it; the stable sort runs only when two are equal."""
    order = np.argsort(doubles)
    ranked = doubles[order]
    return np.argsort(doubles, kind="stable") if (ranked[1:] == ranked[:-1]).any() else order


def integer(word: int, lo: int, hi: int) -> int:
    """An int in [lo, hi) from a word's high 32 bits, scaled in Python ints.
    Each value's chance is within 2**-32 of 1/(hi - lo): a relative bias
    below (hi - lo) / 2**32."""
    return lo + (((int(word) >> 32) * (hi - lo)) >> 32)
