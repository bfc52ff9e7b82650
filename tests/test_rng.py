from __future__ import annotations

import numpy as np
import pytest

from remote_div.rng import restart_stream, stream_rng

DRAWS = (
    lambda g: g.random(7),
    lambda g: g.integers(0, 1000, 9),
    lambda g: g.integers(0, 10, 3, dtype=np.uint32),
    lambda g: g.random(3, dtype=np.float32),
    lambda g: g.permutation(11),
    lambda g: g.standard_normal(5),
)


@pytest.mark.parametrize("seed, stream", [(0, 0), (7, 3), (2**63, 2**32 + 1)])
def test_restarted_generator_draws_equal_a_fresh_stream(seed, stream):
    rng = stream_rng(99, 5)
    rng.integers(0, 10, 3, dtype=np.uint32)  # leaves a buffered half word behind
    assert rng.bit_generator.state["has_uint32"] == 1
    for _ in range(2):
        assert restart_stream(rng, seed, stream) is rng
        fresh = stream_rng(seed, stream)
        for draw in DRAWS:
            assert np.array_equal(draw(rng), draw(fresh))


def test_restart_rejects_a_negative_seed():
    with pytest.raises(ValueError, match="seed"):
        restart_stream(stream_rng(0), -1, 0)
