import numpy as np
from hypothesis import given, settings, strategies as st

from relaxkv.seeding import pcg64_state, seed_words

words32 = st.integers(0, 2**32 - 1)


class TestSeedWords:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 9).flatmap(
        lambda width: st.lists(st.lists(words32, min_size=width, max_size=width),
                               min_size=1, max_size=6)
    ))
    def test_rows_equal_seed_sequence_words(self, rows):
        """Every row's words are SeedSequence's for that row, for entropies
        shorter than, as long as and longer than its four-word pool."""
        entropy = np.array(rows, dtype=np.uint32)
        expected = [np.random.SeedSequence(row).generate_state(4, np.uint64).tolist()
                    for row in entropy]
        assert seed_words(entropy).tolist() == expected


class TestPcg64State:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(words32, min_size=1, max_size=6))
    def test_state_and_draws_equal_a_fresh_generator(self, entropy):
        """The state set from a row's words is PCG64's from its SeedSequence,
        and a generator set to it draws what default_rng draws."""
        entropy = np.array(entropy, dtype=np.uint32)
        fresh = np.random.PCG64(np.random.SeedSequence(entropy))
        state = pcg64_state(seed_words(entropy[None])[0].tolist())
        assert state == fresh.state
        bits = np.random.PCG64(0)
        bits.state = state
        draws = np.random.Generator(bits).standard_normal(50)
        assert draws.tobytes() == np.random.default_rng(entropy).standard_normal(50).tobytes()

