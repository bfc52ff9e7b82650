"""Counter-based random number streams.

Every randomized routine in the package derives its randomness from a
(seed, stream) pair fed into a Philox counter-based generator, so repeated
trials are mutually independent and each one is reproducible in isolation.
Stream ids below 2**32 are reserved for trial indices; helpers that need a
one-off stream (for example a random start point) use ids above that.
"""
from __future__ import annotations

import numpy as np

from .errors import PreconditionError

START_POINT_STREAM = 2**32
SPLIT_STREAM = 2**32 + 1
# Philox4x64 round multipliers and key increments (Salmon et al., SC'11).
_M0, _M1, _W0, _W1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157, 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B


def _key(seed: int, stream: int) -> np.ndarray:
    if not 0 <= seed < 2**64:
        raise PreconditionError("seed must fit in 64 unsigned bits")
    return np.array([seed, stream], dtype=np.uint64)


def stream_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Return the generator for `stream` under `seed`: the same pair always
    yields the same draws, whatever any other stream has consumed."""
    return np.random.Generator(np.random.Philox(key=_key(seed, stream)))


def _mulhilo(a: np.ndarray, b: int) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products a*b, from 32-bit halves."""
    a0, a1, b0, b1 = a & 0xFFFFFFFF, a >> 32, b & 0xFFFFFFFF, b >> 32
    cross = ((a0 * b0) >> 32) + ((a1 * b0) & 0xFFFFFFFF) + a0 * b1
    return a1 * b1 + ((a1 * b0) >> 32) + (cross >> 32), a * b


def uniforms(seed: int, streams, m: int) -> np.ndarray:
    """Row i is `stream_rng(seed, streams[i]).random(m)`, bit for bit. Philox
    is a pure function of (key, counter): numpy makes block b of stream s from
    key (seed, s) and counter (b+1, 0, 0, 0), and a word w is the double
    (w >> 11) * 2**-53, so all streams' blocks are computed together."""
    _key(seed, 0)
    k1 = np.asarray(streams, dtype=np.uint64).reshape(-1, 1)
    k0 = np.full_like(k1, seed)
    c0 = np.arange(1, (m + 3) // 4 + 1, dtype=np.uint64) + np.zeros_like(k1)
    c1 = c2 = c3 = np.zeros_like(c0)
    for _ in range(10):
        (hi0, lo0), (hi1, lo1) = _mulhilo(c0, _M0), _mulhilo(c2, _M1)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
        k0, k1 = k0 + _W0, k1 + _W1
    words = np.stack([c0, c1, c2, c3], axis=-1).reshape(len(k1), 4 * c0.shape[1])[:, :m]
    return (words >> 11) * 2.0**-53
