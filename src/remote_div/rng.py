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


def _key(seed: int, stream: int) -> np.ndarray:
    if not 0 <= seed < 2**64:
        raise PreconditionError("seed must fit in 64 unsigned bits")
    return np.array([seed, stream], dtype=np.uint64)


def stream_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Return the generator for `stream` under `seed`.

    The same (seed, stream) pair always yields the same draws, regardless of
    what any other stream has consumed.
    """
    return np.random.Generator(np.random.Philox(key=_key(seed, stream)))


def restart_stream(rng: np.random.Generator, seed: int, stream: int) -> np.random.Generator:
    """Put the Philox generator `rng` at the start of `stream` under `seed`,
    so its next draws are those of `stream_rng(seed, stream)`, without
    building a new generator. Returns `rng`."""
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": _key(seed, stream)},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng
