from __future__ import annotations

import numpy as np
import pytest

from remote_div.errors import PreconditionError
from remote_div.rng import uniforms

# 2**64 - 1 carries across every 32-bit half of the Philox products and keys.
STREAMS = [*range(300), 2**32 + 1, 2**64 - 1]


@pytest.mark.parametrize("seed", [0, 1, 7, 2**63, 2**64 - 1])
def test_uniforms_equal_numpy_philox_streams(seed):
    # m = 5, 9 and 17 cross Philox's 4-word block boundaries.
    for m in (1, 4, 5, 9, 17):
        rows = uniforms(seed, STREAMS, m)
        keys = [np.array([seed, s], dtype=np.uint64) for s in STREAMS]  # a list key would go via float
        expected = [np.random.Generator(np.random.Philox(key=key)).random(m) for key in keys]
        assert rows.dtype == np.float64
        assert rows.tobytes() == np.array(expected).tobytes()


def test_uniforms_of_no_streams_or_no_draws_are_empty():
    assert uniforms(3, [], 4).shape == (0, 4)
    assert uniforms(3, range(2), 0).shape == (2, 0)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_uniforms_reject_a_seed_outside_64_bits(seed):
    with pytest.raises(PreconditionError, match="seed must fit in 64 unsigned bits"):
        uniforms(seed, range(3), 2)
