import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from relaxkv import (
    ModelParams,
    StructuredMemory,
    relaxed_positions,
    window_positions,
)
from relaxkv.errors import (
    ConfigError,
    ContractViolationError,
    InvalidStepError,
    WindowOverflowError,
)
from relaxkv.rope import rotate_by_phases, rotate_tokens, rotation_phases

from oracles import rotation_tables


class TestRelaxedPositions:
    def test_steady_state(self):
        mem = StructuredMemory(sink_ids=[0, 1], history_ids=[12], tail_ids=[19])
        plan = relaxed_positions(mem, 20, 3)
        assert plan.as_dict() == {0: 16, 1: 17, 12: 18, 19: 19}
        assert plan.current_chunk_positions == [20, 21, 22]

    def test_tail_only(self):
        mem = StructuredMemory(tail_ids=[4])
        plan = relaxed_positions(mem, 5, 3)
        assert plan.as_dict() == {4: 4}
        assert plan.current_chunk_positions == [5, 6, 7]

    def test_minimum_valid_step(self):
        mem = StructuredMemory(sink_ids=[0, 1], history_ids=[2], tail_ids=[3])
        plan = relaxed_positions(mem, 4, 3)
        assert plan.as_dict() == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_step_too_small_raises(self):
        mem = StructuredMemory(sink_ids=[0, 1], history_ids=[2], tail_ids=[3])
        with pytest.raises(InvalidStepError):
            relaxed_positions(mem, 3, 3)

    def test_warmup_prefix_matches_dense_absolute(self):
        # contiguous memory ending at i-1 receives absolute indices
        mem = StructuredMemory(tail_ids=[0, 1, 2, 3, 4])
        plan = relaxed_positions(mem, 5, 3)
        assert plan.as_dict() == {f: f for f in range(5)}

    @pytest.mark.parametrize("seed", range(5))
    def test_role_ordering_and_contiguity(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(500):
            ns, nh, nt = (int(rng.integers(0, 5)) for _ in range(3))
            i = int(rng.integers(ns + nh + nt, ns + nh + nt + 100))
            ids = rng.choice(np.arange(i), size=ns + nh + nt, replace=False)
            mem = StructuredMemory(
                sink_ids=sorted(int(x) for x in ids[:ns]),
                history_ids=sorted(int(x) for x in ids[ns : ns + nh]),
                tail_ids=sorted(int(x) for x in ids[ns + nh :]),
            )
            plan = relaxed_positions(mem, i, 3)
            pos = plan.as_dict()
            tail_pos = [pos[f] for f in mem.tail_ids]
            sh_pos = [pos[f] for f in mem.sink_ids + mem.history_ids]
            # tail is absolute, ending at i-1
            assert tail_pos == list(range(i - nt, i))
            # sink+history contiguous, ending just before the tail start
            assert sh_pos == list(range(i - nt - ns - nh, i - nt))
            if sh_pos and tail_pos:
                assert max(sh_pos) < min(tail_pos)
            if tail_pos:
                assert max(tail_pos) < min(plan.current_chunk_positions)
            all_pos = list(pos.values()) + plan.current_chunk_positions
            assert len(set(all_pos)) == len(all_pos)


class TestWindowPositions:
    def test_reset_on_anchor(self):
        plan = window_positions([3, 4, 5], [6, 7, 8], 3, 6)
        assert plan.as_dict() == {3: 0, 4: 1, 5: 2, 6: 3, 7: 4, 8: 5}

    def test_first_window(self):
        plan = window_positions([0, 1, 2], [], 3, 6)
        assert plan.as_dict() == {0: 0, 1: 1, 2: 2}
        assert plan.current_chunk_positions == [3, 4, 5]

    def test_overflow(self):
        with pytest.raises(WindowOverflowError):
            window_positions([0, 1, 2], [3, 4, 5, 6], 3, 6)

    def test_bad_anchor_size(self):
        with pytest.raises(ContractViolationError):
            window_positions([0, 1], [], 3, 6)


def rotate(v, position, params):
    """One head_dim vector rotated to ``position`` as a rollout rotates it:
    by ``rotate_by_phases`` with the phase row of ``rotation_phases``."""
    phases = rotation_phases([position], params)
    return rotate_by_phases(v[None, None, None], phases)[0, 0, 0]


class TestApplyRotary:
    """The rotary properties the hybrid position plan relies on, checked on
    the rotation every rollout runs."""

    PARAMS = ModelParams(head_dim=16, rotary_base=10000.0)

    def test_position_zero_identity(self, rng):
        v = rng.normal(size=16)
        np.testing.assert_allclose(rotate(v, 0, self.PARAMS), v)

    def test_norm_preserved(self, rng):
        for _ in range(200):
            v = rng.normal(size=16)
            pos = int(rng.integers(0, 100_000))
            out = rotate(v, pos, self.PARAMS)
            assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(v), abs=1e-6)

    def test_relative_offset(self, rng):
        for _ in range(200):
            q = rng.normal(size=16)
            k = rng.normal(size=16)
            pos = int(rng.integers(0, 100_000))
            delta = int(rng.integers(0, 1000))
            lhs = rotate(q, pos, self.PARAMS) @ rotate(k, pos + delta, self.PARAMS)
            rhs = rotate(q, 0, self.PARAMS) @ rotate(k, delta, self.PARAMS)
            assert lhs == pytest.approx(rhs, abs=1e-6)

    @pytest.mark.parametrize(
        "setting",
        [{"head_dim": 7}, {"rotary_base": 1.0}, {"rotary_base": 0.5},
         {"rotary_base": float("nan")}, {"rotary_base": float("inf")}],
        ids=["head_dim=7", "rotary_base=1", "rotary_base=0.5", "rotary_base=nan",
             "rotary_base=inf"],
    )
    def test_invalid_settings_rejected(self, setting):
        with pytest.raises(ConfigError):
            ModelParams(**setting)


def per_token_rotation(vecs, frame_positions, frame_tokens, params):
    """The rotation as it was computed before the tables: angles recomputed
    for every token from its repeated position, cos/sin broadcast over heads."""
    positions = np.repeat(frame_positions, frame_tokens)[:, None]
    half = params.head_dim // 2
    inv_freq = params.rotary_base ** (-2.0 * np.arange(half) / params.head_dim)
    theta = np.asarray(positions, dtype=np.float64)[..., None] * inv_freq
    cos, sin = np.cos(theta), np.sin(theta)
    even, odd = vecs[..., 0::2], vecs[..., 1::2]
    out = np.empty_like(vecs)
    out[..., 0::2] = even * cos - odd * sin
    out[..., 1::2] = even * sin + odd * cos
    return out


class TestRotationTables:
    @settings(max_examples=150, deadline=None)
    @given(
        mem_positions=st.lists(st.integers(0, 100_000), max_size=8),
        chunk=st.integers(1, 4),
        start=st.integers(0, 100_000),
        heads=st.integers(1, 4),
        frame_tokens=st.integers(1, 5),
        layers=st.integers(1, 3),
        half=st.integers(1, 8),
        base=st.sampled_from([10000.0, 500.0, 1.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bit_exact_against_per_token_angles(
        self, mem_positions, chunk, start, heads, frame_tokens, layers, half, base, seed
    ):
        params = ModelParams(head_dim=2 * half, rotary_base=base)
        chunk_positions = list(range(start, start + chunk))
        n_mem = len(mem_positions) * frame_tokens
        n_new = chunk * frame_tokens
        cos, sin = rotation_tables(
            mem_positions + chunk_positions, frame_tokens, heads, params
        )
        assert cos.shape == sin.shape == (n_mem + n_new, heads, half)
        assert cos.flags.c_contiguous and sin.flags.c_contiguous

        rng = np.random.default_rng(seed)
        k_mem = rng.normal(size=(layers, n_mem, heads, 2 * half))
        qk = rng.normal(size=(2, n_new, heads, 2 * half))
        assert np.array_equal(
            rotate_tokens(k_mem, cos[:n_mem], sin[:n_mem]),
            per_token_rotation(k_mem, mem_positions, frame_tokens, params),
        )
        assert np.array_equal(
            rotate_tokens(qk, cos[n_mem:], sin[n_mem:]),
            per_token_rotation(qk, chunk_positions, frame_tokens, params),
        )


class TestPhaseRotation:
    """The complex multiply against the real-table rotation it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(
        positions=st.lists(st.integers(0, 100_000), min_size=1, max_size=5),
        tokens=st.integers(1, 5),
        heads=st.integers(1, 5),
        half=st.integers(1, 8),
        base=st.sampled_from([1.0001, 1.5, 1e4, 1e12]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(positions=[0, 1, 100_000], tokens=2, heads=3, half=8, base=1e4, seed=0)
    def test_agrees_with_rotate_tokens(self, positions, tokens, heads, half, base, seed):
        """Each output pair is within 4 eps of the input pair's |a| + |b| of
        ``rotate_tokens``' bits, and position 0 is the identity, bit for bit."""
        params = ModelParams(head_dim=2 * half, rotary_base=base)
        frames = len(positions)
        vecs = np.random.default_rng(seed).normal(size=(frames, tokens, heads, 2 * half))
        got = rotate_by_phases(vecs, rotation_phases(positions, params))
        cos, sin = rotation_tables(positions, tokens, heads, params)
        ref = rotate_tokens(vecs.reshape(-1, heads, 2 * half), cos, sin).reshape(vecs.shape)
        assert got.shape == vecs.shape and got.dtype == np.float64

        pair = np.abs(vecs[..., 0::2]) + np.abs(vecs[..., 1::2])
        bound = np.repeat(4 * np.finfo(np.float64).eps * pair, 2, axis=-1)
        assert (np.abs(got - ref) <= bound).all()
        at_zero = np.asarray(positions) == 0
        assert np.array_equal(got[at_zero], vecs[at_zero])

    def test_phases_are_the_table_angles(self):
        params = ModelParams(head_dim=8, rotary_base=10000.0)
        phases = rotation_phases([0, 3, 99_999], params)
        cos, sin = rotation_tables([0, 3, 99_999], 1, 1, params)
        assert phases.shape == (3, 1, 1, 4)
        assert np.array_equal(phases.real.reshape(3, 4), cos.reshape(3, 4))
        assert np.array_equal(phases.imag.reshape(3, 4), sin.reshape(3, 4))

    @pytest.mark.parametrize(
        "start, a, b",
        [(0, 0, 7), (0, 1493, 1500), (0, 99_990, 100_000), (2**40, 5, 45), (10**15, 0, 64)],
        ids=["first", "relaxed-1500", "table-end", "2**40", "10**15"],
    )
    def test_table_rows_equal_the_step_table(self, start, a, b):
        """A rollout builds one phase table per run and slices each step's
        rows from it; every row has the bits of a table of that step alone."""
        params = ModelParams(head_dim=16, rotary_base=10000.0)
        n = 100_000 if start == 0 else 64
        table = rotation_phases(range(start, start + n), params)
        step = rotation_phases(range(start + a, start + b), params)
        assert table[a:b].tobytes() == step.tobytes()
