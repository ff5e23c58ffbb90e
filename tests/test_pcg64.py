"""The in-package PCG64 reader against ``numpy.random.PCG64`` as the oracle."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hqcdfs.gates import _NO_GO_CHUNK, _NO_GO_WORDS
from hqcdfs.pcg64 import PCG64Words

BLOCK = _NO_GO_WORDS * _NO_GO_CHUNK

# Seeds one to eight 32-bit words wide: SeedSequence hashes the first four
# words into its pool and mixes any further ones in afterwards.
SEED_EDGES = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128 - 1, 2**128, 2**160, 2**256]
seeds = st.one_of(st.sampled_from(SEED_EDGES), st.integers(0, 2**256))


class TestPCG64Words:
    @settings(max_examples=150, deadline=None)
    @given(seeds, st.lists(st.one_of(st.integers(0, BLOCK), st.sampled_from([0, 1, BLOCK])), max_size=6))
    @example(0, [0, 1, 17, 333, BLOCK, BLOCK])
    @example(5, [0, 1, 17, 333, BLOCK, BLOCK])
    @example(10**40, [0, 1, 17, 333, BLOCK, BLOCK])
    def test_words_bit_equal_to_numpy(self, seed, sizes):
        reader, reference = PCG64Words(seed, BLOCK), np.random.PCG64(seed)
        for size in sizes:
            words = reader.random_raw(size)
            assert words.dtype == np.uint64
            assert words.tobytes() == reference.random_raw(size).tobytes()

    def test_one_word_blocks(self):
        reader, reference = PCG64Words(7, 1), np.random.PCG64(7)
        words = np.concatenate([reader.random_raw(1) for _ in range(50)])
        assert words.tobytes() == reference.random_raw(50).tobytes()

    def test_negative_seed_raises_as_numpy_does(self):
        with pytest.raises(ValueError):
            np.random.PCG64(-1)
        with pytest.raises(ValueError):
            PCG64Words(-1, BLOCK)
