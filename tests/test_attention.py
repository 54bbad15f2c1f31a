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
from relaxkv.cli import profile_rows
from relaxkv.errors import CacheMissError
from relaxkv.memory import frame_prototype, group_prototype, score_candidate
from relaxkv.rollout import eviction_schedule, memory_plan, structured_step_memory

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


def random_frame(rng, fid, params):
    shape = (params.layers, params.frame_tokens, params.d)
    return Frame(id=fid, keys=rng.normal(size=shape), values=rng.normal(size=shape))


class TestEmbedChunk:
    @pytest.mark.parametrize("seed", [0, 1, 7, 2**40])
    def test_bits_equal_the_normal_draw(self, seed):
        """standard_normal draws the bits that normal(0, 1) drew, frame by frame."""
        params = ModelParams(layers=1, heads=2, head_dim=8, frame_tokens=5)
        stack = ToyAttentionStack(params, seed)
        fids = [0, 1, 2, 13, 1499, 12345]
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
        out, _, _, cost = attend_chunk(h, StructuredMemory(), 0, KVCache(), stack)
        # softmax over one element: context is exactly that token's value
        np.testing.assert_allclose(out, h + h.reshape(1, -1) @ wv)
        assert cost.attended_frames == 1

    def test_identical_keys_average_values(self, rng):
        params = ModelParams(layers=1, heads=2, head_dim=4, frame_tokens=2)
        stack = ToyAttentionStack(params, seed=5)
        wv = stack.weights[0][2]
        # zero key projection: every key (cached and fresh) is the zero vector
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
        out, _, _, _ = attend_chunk(h, mem, 0, cache, stack)
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
        out, _, _, cost = attend_chunk(h, mem, 0, cache, stack)
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
        out, new_keys, new_values, cost = attend_chunk(h, mem, 0, cache, stack)
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

    def test_cache_miss(self):
        stack = ToyAttentionStack(SMALL, seed=0)
        mem = StructuredMemory(tail_ids=[0])
        h = np.zeros((1, SMALL.frame_tokens, SMALL.d))
        with pytest.raises(CacheMissError):
            attend_chunk(h, mem, 0, KVCache(), stack)

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
        out, _, _, _ = attend_chunk(h, mem, first, cache, stack)
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
        _, _, _, cost = attend_chunk(h, mem, 0, cache, stack)
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
        """Feed chunk after chunk through append_and_evict on the run's
        eviction schedule; yield the step and the cache after it."""
        cache = KVCache()
        U = cfg.chunk_size
        plan = memory_plan(cfg, np.arange(0, total_frames, U))
        for step, expired in enumerate(eviction_schedule(plan)):
            ids = range(step * U, (step + 1) * U)
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
            assert len(cache) <= bound

    def test_unbounded_cache_keeps_candidate_region(self, rng):
        cfg = MemoryConfig()
        # step 20 reads the 60 frames of steps 0-19
        for step, cache in self.steps(rng, cfg, 63):
            if step == 19:
                assert sorted(cache.frames) == list(range(60))


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
    if cfg.bounded_cache:
        keep |= set(restrict_candidates(p))
    else:
        keep |= set(p.candidate_ids)
    return keep


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
    later record reads, through its memory or, when it scored, the sink, pool
    and tail whose keys selection reads (every frame so far when an unbounded
    cache lets a scoring policy read them all)."""
    mcfg = trace.config.memory
    fixed = mcfg.policy is Policy.RELAXED and mcfg.fixed_history_position is not None
    scoring = mcfg.policy in (Policy.RELAXED, Policy.HISTORY_ONLY) and not fixed
    count = trace.records[step].generated_before + mcfg.chunk_size
    live = set()
    for rec in trace.records[step + 1 :]:
        i = rec.generated_before
        live |= set(rec.memory.all_ids)
        if rec.scored:
            p = partition(i, mcfg)
            live |= {s.frame_id for s in rec.scored} | set(p.sink_ids) | set(p.tail_ids)
        if scoring and not mcfg.bounded_cache:
            live |= set(range(i))
    return {f for f in live if f < count}


def bounded_config(policy):
    return RolloutConfig(
        memory=MemoryConfig(policy=policy, bounded_cache=True), model=TINY,
        total_frames=60, seed=3,
    )


class TestRetentionProperty:
    @settings(max_examples=150, deadline=None)
    @given(rollout_configs())
    @example(bounded_config(Policy.RELAXED))
    @example(bounded_config(Policy.HISTORY_ONLY))
    def test_cache_after_every_step(self, cfg):
        """After each step the cache holds exactly the frames a later step
        reads, which cover the next step's memory and never exceed the
        set-based rule's frames plus the fixed-position history."""
        mcfg = cfg.memory
        snapshots = []

        def recording(cache, new_frames, expired):
            before = [*cache.frames, *(f.id for f in new_frames)]
            append_and_evict(cache, new_frames, expired)
            snapshots.append((before, list(cache.frames)))
            return cache

        with mock.patch.object(rollout_module, "append_and_evict", recording):
            trace = run_rollout(cfg)

        pins = mcfg.policy is Policy.RELAXED and mcfg.fixed_history_position is not None
        for step, (before, frames) in enumerate(snapshots):
            count = trace.records[step].generated_before + mcfg.chunk_size
            assert set(frames) == live_frames(trace, step)
            upper = set_based_retention(before, mcfg, count)
            if pins:  # what the fixed position attends next, in either half
                upper |= set(list_regions(count, mcfg)[4])
            assert set(frames) <= upper
            if step + 1 < len(trace.records):
                assert set(trace.records[step + 1].memory.all_ids) <= set(frames)
        assert audit_history_compliance(trace) == []


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


def scored_config(n_sink, n_tail, bounded, layer):
    mem = MemoryConfig(n_sink=n_sink, n_tail=n_tail, bounded_cache=bounded,
                       scoring_layer=layer)
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
    @example(cfg=scored_config(0, 1, False, None), policy=Policy.RELAXED, layer=None)
    @example(cfg=scored_config(0, 2, True, 1), policy=Policy.RELAXED, layer=1)
    @example(cfg=scored_config(2, 3, False, 0), policy=Policy.RELAXED, layer=0)
    @example(cfg=scored_config(2, 2, True, None), policy=Policy.HISTORY_ONLY, layer=None)
    def test_scores_equal_recomputed_prototypes(self, cfg, policy, layer):
        """Every scored step's record holds, bit for bit, its pool's scores
        recomputed with frame_prototype, group_prototype and score_candidate
        from the frames cached when it selected: the sink prototype kept
        across steps is the one recomputed every step."""
        mem = replace(cfg.memory, policy=policy, fixed_history_position=None,
                      scoring_layer=layer)
        cfg = replace(cfg, memory=mem)
        expected = {}  # generated count -> recomputed scores

        def selecting(frames, means, generated_count, scfg, pool, sink_prototypes):
            result = memory_module.select_memory(
                frames, means, generated_count, scfg, pool, sink_prototypes
            )
            p = partition(generated_count, scfg)
            sink = [frames[f] for f in p.sink_ids]
            tail = [frames[f] for f in p.tail_ids]
            proto_sink = group_prototype(sink, layer) if sink else None
            proto_tail = group_prototype(tail, layer) if tail else None
            expected[generated_count] = [
                score_candidate(fid, frame_prototype(frames[fid], layer),
                                proto_sink, proto_tail, scfg.lam)
                for fid in (pool if scfg.n_history else [])
            ]
            return result

        with mock.patch.object(rollout_module, "select_memory", selecting):
            trace = run_rollout(cfg)
        assert len(expected) == len(trace.records)
        for rec in trace.records:
            assert hexed(rec.scored) == hexed(expected[rec.generated_before])
