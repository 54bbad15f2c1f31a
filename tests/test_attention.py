import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import relaxkv.memory as memory_module
import relaxkv.rollout as rollout_module

from relaxkv import (
    Frame,
    KVCache,
    MemoryConfig,
    ModelParams,
    Policy,
    RolloutConfig,
    StructuredMemory,
    ToyAttentionStack,
    append_and_evict,
    attend_chunk,
    audit_history_compliance,
    count_step_cost,
    partition,
    restrict_candidates,
    run_rollout,
    sample_pool,
)
from relaxkv.attention import rebuild_frames
from relaxkv.cli import profile_rows
from relaxkv.errors import CacheMissError
from relaxkv.rope import rotation_phases
from relaxkv.rollout import eviction_schedule, memory_plan, structured_step_memory

from oracles import frame_prototype, group_prototype, score_candidate
from test_memory import list_regions

SMALL = ModelParams(layers=2, heads=2, head_dim=4, frame_tokens=3)


def naive_rotate(vec, position, base):
    """Independent rotary reference: explicit 2x2 rotations per pair."""
    d = len(vec)
    out = np.empty(d)
    for j in range(d // 2):
        angle = position * base ** (-2.0 * j / d)
        c, s = math.cos(angle), math.sin(angle)
        out[2 * j] = vec[2 * j] * c - vec[2 * j + 1] * s
        out[2 * j + 1] = vec[2 * j] * s + vec[2 * j + 1] * c
    return out


def naive_reference(chunk_hidden, mem_frames, mem_positions, chunk_positions, stack):
    """Dense full-softmax attention computed with plain loops."""
    p = stack.params
    U, F, d = chunk_hidden.shape
    h = chunk_hidden.reshape(U * F, d).copy()
    q_pos = [pos for pos in chunk_positions for _ in range(F)]
    k_pos = [pos for pos in mem_positions for _ in range(F)] + q_pos
    for layer, (wq, wk, wv, wo) in enumerate(stack.weights):
        q = h @ wq
        k_rows = [f.keys[layer][t] for f in mem_frames for t in range(F)]
        v_rows = [f.values[layer][t] for f in mem_frames for t in range(F)]
        k = np.array(k_rows + list(h @ wk)).reshape(-1, d)
        v = np.array(v_rows + list(h @ wv)).reshape(-1, d)
        ctx = np.zeros_like(q)
        for head in range(p.heads):
            lo, hi = head * p.head_dim, (head + 1) * p.head_dim
            for qi in range(q.shape[0]):
                qr = naive_rotate(q[qi, lo:hi], q_pos[qi], p.rotary_base)
                logits = np.array(
                    [
                        qr @ naive_rotate(k[ki, lo:hi], k_pos[ki], p.rotary_base)
                        for ki in range(k.shape[0])
                    ]
                ) / math.sqrt(p.head_dim)
                w = np.exp(logits - logits.max())
                w /= w.sum()
                ctx[qi, lo:hi] = sum(w[ki] * v[ki, lo:hi] for ki in range(k.shape[0]))
        h = h + ctx @ wo
    return h.reshape(U, F, d)


def first_layer_logit_span(chunk_hidden, mem_frames, stack):
    """max - min of the first layer's logits over every head, with the memory
    then the chunk at positions from 0, computed with plain loops."""
    p = stack.params
    F, d = p.frame_tokens, p.d
    wq, wk, _, _ = stack.weights[0]
    h = chunk_hidden.reshape(-1, d)
    keys = np.concatenate([*(f.keys[0] for f in mem_frames), h @ wk])
    k_pos = [row // F for row in range(len(keys))]
    q_pos = k_pos[len(mem_frames) * F :]
    logits = [
        naive_rotate(q[lo : lo + p.head_dim], qp, p.rotary_base)
        @ naive_rotate(k[lo : lo + p.head_dim], kp, p.rotary_base)
        / math.sqrt(p.head_dim)
        for lo in range(0, d, p.head_dim)
        for q, qp in zip(h @ wq, q_pos)
        for k, kp in zip(keys, k_pos)
    ]
    return max(logits) - min(logits)


def phases_from(first, frames, params):
    """The phase rows of ``frames`` frames at consecutive positions from
    ``first``, as a rollout step passes them to attend_chunk."""
    return rotation_phases(range(first, first + frames), params)


def random_frame(rng, fid, params):
    shape = (params.layers, params.frame_tokens, params.d)
    return Frame(id=fid, keys=rng.normal(size=shape), values=rng.normal(size=shape))


class TestEmbedChunk:
    @pytest.mark.parametrize("seed", [0, 1, 7, 2**32 - 1, 2**32, 2**40, 2**64, 2**64 + 2**33 + 5])
    def test_bits_equal_the_normal_draw(self, seed):
        """standard_normal draws the bits that normal(0, 1) drew, frame by frame,
        and the seed's and frame id's uint32 words are those SeedSequence makes
        of ``[seed, 13, fid]``, past one word each. The ids cross the
        bounds of the blocks whose seeds are hashed together, both ways."""
        params = ModelParams(layers=1, heads=2, head_dim=8, frame_tokens=5)
        stack = ToyAttentionStack(params, seed)
        fids = [0, 1, 2, 13, 1023, 1024, 1023, 1499, 2047, 12345, 2**32 - 1, 2**32,
                2**32 + 7, 2**32 + 1023, 2**32 + 1024, 2**64 + 1, 1025]
        shape = (params.frame_tokens, params.d)
        expected = np.stack([
            np.random.default_rng([seed, 13, fid]).normal(size=shape) * 0.5
            + stack.token_offsets
            for fid in fids
        ])
        assert stack.embed_chunk(fids).tobytes() == expected.tobytes()


class TestAttendChunk:
    def test_single_key_token_returns_value(self):
        params = ModelParams(layers=1, heads=1, head_dim=4, frame_tokens=1)
        stack = ToyAttentionStack(params, seed=3)
        wv = stack.weights[0][2]
        stack.weights[0] = (
            stack.weights[0][0],
            stack.weights[0][1],
            wv,
            np.eye(params.d),
        )
        h = np.random.default_rng(1).normal(size=(1, 1, params.d))
        phases = phases_from(0, 1, params)
        out, _, _, cost, _ = attend_chunk(h, StructuredMemory(), phases, KVCache(), stack)
        # softmax over one element: context is exactly that token's value
        np.testing.assert_allclose(out, h + h.reshape(1, -1) @ wv)
        assert cost.attended_frames == 1

    def test_identical_keys_average_values(self, rng):
        params = ModelParams(layers=1, heads=2, head_dim=4, frame_tokens=2)
        stack = ToyAttentionStack(params, seed=5)
        wv = stack.weights[0][2]
        # zero key projection: every key (cached and fresh) is the zero vector.
        # Attention reads wk as the middle columns of the layer's qkv matrix.
        stack.qkv[0][:, params.d : 2 * params.d] = 0.0
        stack.weights[0] = (
            stack.weights[0][0],
            np.zeros((params.d, params.d)),
            wv,
            np.eye(params.d),
        )
        shape = (1, params.frame_tokens, params.d)
        mem_frame = Frame(
            id=0, keys=np.zeros(shape), values=rng.normal(size=shape)
        )
        cache = KVCache(frames={0: mem_frame})
        mem = StructuredMemory(tail_ids=[0])
        h = rng.normal(size=(1, params.frame_tokens, params.d))
        out, _, _, _, _ = attend_chunk(h, mem, phases_from(0, 2, params), cache, stack)
        values = np.concatenate(
            [mem_frame.values[0], h.reshape(-1, params.d) @ wv]
        )
        expected = h + values.mean(axis=0)
        np.testing.assert_allclose(out, expected, atol=1e-6)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_naive_dense_reference(self, seed):
        rng = np.random.default_rng(seed)
        stack = ToyAttentionStack(SMALL, seed=seed)
        n_mem = int(rng.integers(0, 6))
        mem_frames = [random_frame(rng, fid, SMALL) for fid in range(n_mem)]
        cache = KVCache(frames={f.id: f for f in mem_frames})
        mem = StructuredMemory(tail_ids=list(range(n_mem)))
        i = n_mem
        U = 2
        h = rng.normal(size=(U, SMALL.frame_tokens, SMALL.d))
        # the tail keeps its absolute indices, so memory and chunk start at 0
        out, _, _, cost, _ = attend_chunk(h, mem, phases_from(0, n_mem + U, SMALL), cache, stack)
        ref = naive_reference(
            h, mem_frames, list(range(n_mem)), list(range(i, i + U)), stack
        )
        np.testing.assert_allclose(out, ref, atol=1e-5)
        assert cost.attended_frames == n_mem + U

    @pytest.mark.parametrize(
        "params, n_mem, U",
        [
            (ModelParams(layers=2, heads=1, head_dim=4, frame_tokens=3), 3, 2),
            (SMALL, 2, 1),  # one-frame chunk
            (SMALL, 0, 2),  # empty memory
            (SMALL, 0, 1),
            # full-policy memory of 1040 key tokens
            (ModelParams(layers=1, heads=2, head_dim=4, frame_tokens=4), 260, 1),
        ],
        ids=["heads1", "chunk1", "empty-memory", "empty-memory-chunk1", "full-1040-keys"],
    )
    def test_matches_naive_reference_on_reshaped_shapes(self, params, n_mem, U):
        rng = np.random.default_rng(n_mem + U)
        stack = ToyAttentionStack(params, seed=n_mem)
        mem_frames = [random_frame(rng, fid, params) for fid in range(n_mem)]
        cache = KVCache(frames={f.id: f for f in mem_frames})
        mem = StructuredMemory(tail_ids=list(range(n_mem)))
        h = rng.normal(size=(U, params.frame_tokens, params.d))
        phases = phases_from(0, n_mem + U, params)
        out, new_keys, new_values, cost, _ = attend_chunk(h, mem, phases, cache, stack)
        ref = naive_reference(
            h, mem_frames, list(range(n_mem)), list(range(n_mem, n_mem + U)), stack
        )
        # float64 sums in another order than the loops': a few ulps each
        np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-12)
        # the chunk's cache entries are its own first-layer projections
        _, wk, wv, _ = stack.weights[0]
        flat = h.reshape(-1, params.d)
        np.testing.assert_array_equal(new_keys[0].reshape(flat.shape), flat @ wk)
        np.testing.assert_array_equal(new_values[0].reshape(flat.shape), flat @ wv)
        assert cost == count_step_cost(mem, U, params.frame_tokens, params)

    @pytest.mark.parametrize("key_scale", [1.0, 1e3], ids=["block-max", "row-max"])
    def test_logits_past_the_shift_range(self, rng, key_scale):
        """While a layer's logits span at most 700 the softmax subtracts their
        block maximum; a memory frame whose keys are scaled by 1e3 spreads
        them further, and each row's maximum is subtracted instead. Both
        stay finite and match the reference."""
        stack = ToyAttentionStack(SMALL, seed=4)
        mem_frames = [random_frame(rng, fid, SMALL) for fid in range(3)]
        big = mem_frames[1]
        mem_frames[1] = Frame(id=1, keys=big.keys * key_scale, values=big.values)
        cache = KVCache(frames={f.id: f for f in mem_frames})
        mem = StructuredMemory(tail_ids=[0, 1, 2])
        h = rng.normal(size=(2, SMALL.frame_tokens, SMALL.d))
        span = first_layer_logit_span(h, mem_frames, stack)
        assert (span > 700) == (key_scale > 1)
        out, _, _, _, _ = attend_chunk(h, mem, phases_from(0, 5, SMALL), cache, stack)
        ref = naive_reference(h, mem_frames, [0, 1, 2], [3, 4], stack)
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-12)

    def test_cache_miss(self):
        stack = ToyAttentionStack(SMALL, seed=0)
        mem = StructuredMemory(tail_ids=[0])
        h = np.zeros((1, SMALL.frame_tokens, SMALL.d))
        with pytest.raises(CacheMissError):
            attend_chunk(h, mem, phases_from(0, 2, SMALL), KVCache(), stack)

    @pytest.mark.parametrize("first", [0, 1, 17])
    def test_positions_run_on_from_first_position(self, first):
        """Memory in ``all_ids`` order, then the chunk, sit at consecutive
        positions from ``first_position``, whatever the frame ids."""
        rng = np.random.default_rng(first)
        stack = ToyAttentionStack(SMALL, seed=first)
        mem = StructuredMemory(sink_ids=[0], history_ids=[5], tail_ids=[8, 9])
        mem_frames = [random_frame(rng, fid, SMALL) for fid in mem.all_ids]
        cache = KVCache(frames={f.id: f for f in mem_frames})
        U = 2
        h = rng.normal(size=(U, SMALL.frame_tokens, SMALL.d))
        phases = phases_from(first, len(mem) + U, SMALL)
        out, _, _, _, _ = attend_chunk(h, mem, phases, cache, stack)
        positions = list(range(first, first + len(mem) + U))
        ref = naive_reference(h, mem_frames, positions[:-U], positions[-U:], stack)
        np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-12)
        # not the frame ids: those leave gaps between the roles
        by_id = naive_reference(h, mem_frames, mem.all_ids, [10, 11], stack)
        assert not np.allclose(out, by_id, rtol=1e-6, atol=1e-6)

    def test_cost_matches_analytic_counter(self, rng):
        stack = ToyAttentionStack(SMALL, seed=1)
        frames = [random_frame(rng, fid, SMALL) for fid in range(4)]
        cache = KVCache(frames={f.id: f for f in frames})
        mem = StructuredMemory(sink_ids=[0, 1], history_ids=[2], tail_ids=[3])
        h = rng.normal(size=(3, SMALL.frame_tokens, SMALL.d))
        _, _, _, cost, _ = attend_chunk(h, mem, phases_from(0, 4 + 3, SMALL), cache, stack)
        analytic = count_step_cost(mem, 3, SMALL.frame_tokens, SMALL)
        assert cost == analytic


class TestCountStepCost:
    def test_default_memory_attends_seven(self):
        mem = StructuredMemory(sink_ids=[0, 1], history_ids=[4], tail_ids=[8])
        assert count_step_cost(mem, 3, 16, ModelParams()).attended_frames == 7

    def test_dense_baseline_attends_twenty_one(self):
        mem = StructuredMemory(tail_ids=list(range(18)))
        cost = count_step_cost(mem, 3, 16, ModelParams())
        assert cost.attended_frames == 21
        assert cost.key_tokens == 21 * 16

    def test_chunk_only(self):
        assert count_step_cost(StructuredMemory(), 3, 16, ModelParams()).attended_frames == 3

    def test_score_ops_formula(self):
        params = ModelParams()
        mem = StructuredMemory(sink_ids=[0, 1], history_ids=[4], tail_ids=[8])
        cost = count_step_cost(mem, 3, 16, params)
        assert cost.score_ops == params.layers * params.heads * (3 * 16) * (7 * 16)


class TestAppendAndEvict:
    def steps(self, rng, cfg, total_frames):
        """Feed chunk after chunk through append_and_evict on the run's K/V
        eviction schedule, each chunk's frames that the schedule holds;
        yield the step and the cache after it."""
        cache = KVCache()
        U = cfg.chunk_size
        plan = memory_plan(cfg, np.arange(0, total_frames, U))
        schedule = eviction_schedule(plan)[0]
        held = {f for ids in schedule for f in ids}
        for step, expired in enumerate(schedule):
            ids = held & set(range(step * U, (step + 1) * U))
            append_and_evict(cache, [random_frame(rng, fid, SMALL) for fid in ids], expired)
            yield step, cache

    def test_sinks_tagged_and_kept(self, rng):
        cfg = MemoryConfig(bounded_cache=True)
        for step, cache in self.steps(rng, cfg, 120):
            if step < 39:  # after the last step nothing is read again
                assert {0, 1} <= set(cache.frames)

    def test_dense_window_fifo(self, rng):
        # the window re-anchors on frame 5 at step 6 and reads 5..9 until step
        # 10, so frames 0-4 are never read after step 5
        cfg = MemoryConfig(policy=Policy.DENSE_WINDOW, chunk_size=1, window_size=6)
        caches = [sorted(cache.frames) for _, cache in self.steps(rng, cfg, 12)]
        assert caches[4] == [0, 1, 2, 3, 4]
        assert caches[5] == [5]
        assert caches[6] == [5, 6]
        assert caches[9] == [5, 6, 7, 8, 9]
        assert caches[10] == [10]

    def test_bounded_cache_stays_within_bound(self, rng):
        cfg = MemoryConfig(bounded_cache=True)
        U = cfg.chunk_size
        for step, cache in self.steps(rng, cfg, 100 * U):
            p = partition((step + 1) * U, cfg)
            bound = (
                cfg.n_sink + len(restrict_candidates(p)) + cfg.n_tail + U
            )
            assert len(cache.frames) <= bound


def set_based_retention(ids, cfg, generated_count):
    """Brute-force retention rule: the set each policy keeps, built frame by
    frame from the partition."""
    i = generated_count
    budget = cfg.memory_budget
    if cfg.policy is Policy.FULL:
        return set(ids)
    if cfg.policy is Policy.NONE:
        return set()
    if cfg.policy is Policy.DENSE_WINDOW:
        return {f for f in ids if f >= i - cfg.window_size}
    if cfg.policy is Policy.SINK_ONLY:
        return {f for f in ids if f < budget}
    if cfg.policy is Policy.TAIL_ONLY:
        return {f for f in ids if f >= i - budget}
    if cfg.policy is Policy.ATTENTION_SINK:
        recent = cfg.n_tail + cfg.n_history
        return {f for f in ids if f < cfg.n_sink or f >= i - recent}
    p = partition(i, cfg)
    keep = set(p.sink_ids) | set(p.tail_ids) | {f for f in ids if f >= i - cfg.chunk_size}
    return keep | set(restrict_candidates(p))


def window_simulation(cfg, total_frames):
    """Brute-force dense_window memory: the re-anchoring window list of every
    step, kept as the oracle of the closed-form rule."""
    U, window, memories = cfg.chunk_size, [], []
    for i in range(0, total_frames, U):
        if len(window) + U > cfg.window_size:
            window = window[-U:]
        memories.append(list(window))
        window.extend(range(i, i + U))
    return memories


TINY = ModelParams(layers=2, heads=1, head_dim=4, frame_tokens=2)


@st.composite
def rollout_configs(draw):
    chunk = draw(st.integers(1, 5))
    n_history = draw(st.integers(0, 2))
    mem = MemoryConfig(
        policy=draw(st.sampled_from(list(Policy))),
        n_sink=draw(st.integers(0, 3)),
        n_history=n_history,
        n_tail=draw(st.integers(0, 3)),
        pool_size=draw(st.integers(max(1, n_history), 5)),
        chunk_size=chunk,
        window_size=draw(st.integers(chunk, chunk + 12)),
        fixed_history_position=draw(st.none() | st.integers(0, 8)),
        bounded_cache=draw(st.booleans()),
    )
    steps = draw(st.integers(1, 16))
    return RolloutConfig(memory=mem, model=TINY, total_frames=steps * chunk, seed=3)


def live_frames(trace, step):
    """Brute-force live set after ``step``: every frame generated so far that a
    later record may attend, through its memory or, when it scored, its pool."""
    count = trace.records[step].generated_before + trace.config.memory.chunk_size
    live = set()
    for rec in trace.records[step + 1 :]:
        live |= set(rec.memory.all_ids) | {s.frame_id for s in rec.scored}
    return {f for f in live if f < count}


def tiny_config(policy, **memory):
    return RolloutConfig(
        memory=MemoryConfig(policy=policy, **memory), model=TINY, total_frames=60, seed=3
    )


def bounded_config(policy):
    return tiny_config(policy, bounded_cache=True)


class TestRetentionProperty:
    @settings(max_examples=150, deadline=None)
    @given(rollout_configs())
    @example(tiny_config(Policy.RELAXED))
    @example(tiny_config(Policy.HISTORY_ONLY))
    @example(bounded_config(Policy.RELAXED))
    @example(bounded_config(Policy.HISTORY_ONLY))
    def test_cache_after_every_step(self, cfg):
        """After each step the two stores together hold exactly the frames a
        later step reads, which never exceed the set-based rule's frames
        plus the fixed-position history. The next step's sink and tail are
        in ``cache.frames`` and its history in the inputs store."""
        mcfg = cfg.memory
        snapshots = []

        def recording(cache, new_frames, expired):
            before = [*cache.frames, *cache.inputs, *(f.id for f in new_frames)]
            append_and_evict(cache, new_frames, expired)
            snapshots.append((before, set(cache.frames), set(cache.inputs)))
            return cache

        with mock.patch.object(rollout_module, "append_and_evict", recording):
            trace = run_rollout(cfg)

        pins = mcfg.policy is Policy.RELAXED and mcfg.fixed_history_position is not None
        for step, (before, frames, inputs) in enumerate(snapshots):
            count = trace.records[step].generated_before + mcfg.chunk_size
            assert frames | inputs == live_frames(trace, step)
            upper = set_based_retention(before, mcfg, count)
            if pins:  # what the fixed position attends next, in either half
                upper |= set(list_regions(count, mcfg)[4])
            assert frames | inputs <= upper
            if step + 1 < len(trace.records):
                mem = trace.records[step + 1].memory
                assert set(mem.sink_ids) | set(mem.tail_ids) <= frames
                assert set(mem.history_ids) <= inputs
        assert audit_history_compliance(trace) == []


class TestSlotReuseProperty:
    @settings(max_examples=150, deadline=None)
    @given(rollout_configs())
    @example(tiny_config(Policy.RELAXED))
    @example(tiny_config(Policy.HISTORY_ONLY))  # four rebuilds a step
    @example(tiny_config(Policy.HISTORY_ONLY, n_sink=3, n_tail=2))
    @example(tiny_config(Policy.DENSE_WINDOW, chunk_size=2, window_size=9))
    @example(tiny_config(Policy.RELAXED, fixed_history_position=4, n_history=2))
    @example(tiny_config(Policy.RELAXED, fixed_history_position=1, n_history=2))
    @example(replace(tiny_config(Policy.RELAXED), model=replace(TINY, layers=1)))
    @example(replace(tiny_config(Policy.RELAXED, n_history=2), model=replace(TINY, layers=3)))
    # a one-row rebuild of a chunk of three rows, and chunks of one row
    @example(replace(tiny_config(Policy.RELAXED), model=replace(TINY, frame_tokens=1)))
    @example(replace(tiny_config(Policy.HISTORY_ONLY, chunk_size=1),
                     model=replace(TINY, frame_tokens=1)))
    # d = 18, where a product by the wk and wv columns alone changes bits
    @example(replace(tiny_config(Policy.HISTORY_ONLY),
                     model=ModelParams(layers=2, heads=3, head_dim=6, frame_tokens=2)))
    def test_attended_frames_hold_their_chunk_outputs(self, cfg):
        """A frame's slot is reused once the frame is evicted, and every step
        still attends, bit for bit, each memory frame's keys and values as
        the chunk that generated it returned them, whether read from the K/V
        store or rebuilt from the inputs store. Each step rebuilds all of its
        history frames, none of which the cache holds when it rebuilds."""
        U = cfg.memory.chunk_size
        produced = {}  # frame id -> copies of its keys and values
        steps, rebuilt, caches = [], [], []

        def caching():
            caches.append(KVCache())
            return caches[-1]

        def attending(hidden, mem, phases, cache, stack):
            for fid in mem.all_ids:
                keys, values = produced[fid]
                assert cache.frames[fid].keys.tobytes() == keys.tobytes()
                assert cache.frames[fid].values.tobytes() == values.tobytes()
            result = attend_chunk(hidden, mem, phases, cache, stack)
            i = len(steps) * U
            produced.update(
                (i + j, (result[1][:, j].copy(), result[2][:, j].copy())) for j in range(U)
            )
            steps.append(len(mem))
            return result

        def rebuilding(ids, inputs, chunk, stack):
            assert not caches[0].frames.keys() & ids
            rebuilt.append((len(steps), list(ids)))
            return rebuild_frames(ids, inputs, chunk, stack)

        with mock.patch.object(rollout_module, "attend_chunk", attending), \
                mock.patch.object(rollout_module, "rebuild_frames", rebuilding), \
                mock.patch.object(rollout_module, "KVCache", caching):
            trace = run_rollout(cfg)
        assert steps == [len(rec.memory) for rec in trace.records]
        assert rebuilt == [
            (step, rec.memory.history_ids)
            for step, rec in enumerate(trace.records) if rec.memory.history_ids
        ]


class TestProfileProperty:
    @settings(max_examples=150, deadline=None)
    @given(rollout_configs())
    def test_profile_rows_equal_rollout_records(self, cfg):
        """Every profile row carries the rollout record's memory sizes and
        costs, every memory field is a plain list, and dense_window's memory
        is the re-anchoring window."""
        trace = run_rollout(cfg)
        header, rows = profile_rows(cfg)
        assert len(rows) == len(trace.records)
        for row, rec in zip(rows, trace.records):
            row = dict(zip(header, row))
            mem, cost = rec.memory, rec.cost
            assert all(
                type(ids) is list for ids in (mem.sink_ids, mem.history_ids, mem.tail_ids)
            )
            assert (
                row["step"], row["generated_before"],
                row["n_sink"], row["n_history"], row["n_tail"],
                row["attended_frames"], row["key_tokens"], row["score_ops"],
            ) == (
                rec.step, rec.generated_before,
                len(mem.sink_ids), len(mem.history_ids), len(mem.tail_ids),
                cost.attended_frames, cost.key_tokens, cost.score_ops,
            )
            assert all(type(value) is int for value in row.values())
        if cfg.memory.policy is Policy.DENSE_WINDOW:
            oracle = window_simulation(cfg.memory, cfg.total_frames)
            assert [rec.memory.tail_ids for rec in trace.records] == oracle

    @settings(max_examples=150, deadline=None)
    @given(rollout_configs())
    def test_rule_stands_in_for_the_scored_history(self, cfg):
        """The frames-free rule fixes every record's sink and tail. Where it
        returns a scoring config (relaxed without a fixed position, and
        history_only), the record's history is select_memory's choice from
        that config's pool, of the stand-in's size; elsewhere the record's
        memory is the rule's."""
        mcfg = cfg.memory
        scores = mcfg.policy is Policy.HISTORY_ONLY or (
            mcfg.policy is Policy.RELAXED and mcfg.fixed_history_position is None
        )
        for rec in run_rollout(cfg).records:
            mem, scoring = structured_step_memory(mcfg, rec.generated_before)
            assert (scoring is not None) == scores
            assert (rec.memory.sink_ids, rec.memory.tail_ids) == (mem.sink_ids, mem.tail_ids)
            scored = [s.frame_id for s in rec.scored]
            if scoring is None:
                assert rec.memory == mem and scored == []
                continue
            p = partition(rec.generated_before, scoring)
            pool = sample_pool(restrict_candidates(p), scoring.pool_size)
            assert len(rec.memory.history_ids) == len(mem.history_ids)
            assert set(rec.memory.history_ids) <= set(pool)
            assert scored == (pool if scoring.n_history else [])


def scored_config(n_sink, n_tail, layer):
    mem = MemoryConfig(n_sink=n_sink, n_tail=n_tail, scoring_layer=layer)
    return RolloutConfig(memory=mem, model=TINY, total_frames=60, seed=3)


def hexed(scored):
    return [(s.frame_id, *(x.hex() for x in (s.stability, s.redundancy, s.relaxation)))
            for s in scored]


class TestScoredEqualsRecomputedProperty:
    @settings(max_examples=100, deadline=None)
    @given(
        cfg=rollout_configs(),
        policy=st.sampled_from([Policy.RELAXED, Policy.HISTORY_ONLY]),
        layer=st.none() | st.integers(0, TINY.layers - 1),
    )
    @example(cfg=scored_config(0, 1, None), policy=Policy.RELAXED, layer=None)
    @example(cfg=scored_config(0, 2, 1), policy=Policy.RELAXED, layer=1)
    @example(cfg=scored_config(2, 3, 0), policy=Policy.RELAXED, layer=0)
    @example(cfg=scored_config(2, 2, None), policy=Policy.HISTORY_ONLY, layer=None)
    def test_scores_equal_recomputed_prototypes(self, cfg, policy, layer):
        """Every scored step's record holds, bit for bit, its pool's scores
        recomputed with frame_prototype, group_prototype and score_candidate
        from every frame generated before it selected: the sink prototype
        kept across steps is the one recomputed every step. The frames are
        logged as copies of the keys and values attend_chunk returns: the
        cache keeps K/V only for the sink and tail frames a later step
        attends, a later frame's keys overwrite an evicted frame's slot, and
        history_only scores against sink and tail frames it does not
        attend."""
        mem = replace(cfg.memory, policy=policy, fixed_history_position=None,
                      scoring_layer=layer)
        cfg = replace(cfg, memory=mem)
        generated = {}  # frame id -> frame, every frame of the run so far
        expected = {}  # generated count -> recomputed scores

        def attending(hidden, mem, phases, cache, stack):
            result = attend_chunk(hidden, mem, phases, cache, stack)
            i = len(generated)
            generated.update(
                (i + j, Frame(i + j, result[1][:, j].copy(), result[2][:, j].copy()))
                for j in range(len(hidden))
            )
            return result

        def selecting(frames, means, scoring, scfg, pool, sink_prototypes, attended):
            result = memory_module.select_memory(
                frames, means, scoring, scfg, pool, sink_prototypes, attended
            )
            generated_count = scoring[2]
            p = partition(generated_count, scfg)
            sink = [generated[f] for f in p.sink_ids]
            tail = [generated[f] for f in p.tail_ids]
            proto_sink = group_prototype(sink, layer) if sink else None
            proto_tail = group_prototype(tail, layer) if tail else None
            expected[generated_count] = [
                score_candidate(fid, frame_prototype(generated[fid], layer),
                                proto_sink, proto_tail, scfg.lam)
                for fid in (pool if scfg.n_history else [])
            ]
            return result

        with mock.patch.object(rollout_module, "select_memory", selecting), \
                mock.patch.object(rollout_module, "attend_chunk", attending):
            trace = run_rollout(cfg)
        assert len(expected) == len(trace.records)
        for rec in trace.records:
            assert hexed(rec.scored) == hexed(expected[rec.generated_before])


class TestBoundedCacheProperty:
    @settings(max_examples=100, deadline=None)
    @given(rollout_configs())
    @example(bounded_config(Policy.RELAXED))
    @example(bounded_config(Policy.HISTORY_ONLY))
    @example(scored_config(3, 3, None))
    def test_bounded_cache_changes_only_residency(self, cfg):
        """A run makes the same records and the same frame_features bits with
        and without bounded_cache: the field is recorded in reports and
        changes nothing in a run."""
        bounded, unbounded = (
            run_rollout(replace(cfg, memory=replace(cfg.memory, bounded_cache=flag)))
            for flag in (True, False)
        )
        assert bounded.records == unbounded.records
        assert bounded.frame_features.tobytes() == unbounded.frame_features.tobytes()
