"""The memory plan against the per-step rule it replaced, kept here as the oracle."""

from dataclasses import replace
from unittest import mock

import numpy as np
from hypothesis import example, given, settings

import relaxkv.memory as memory_module
import relaxkv.rollout as rollout_module
from relaxkv import (
    MemoryConfig,
    ModelParams,
    Policy,
    RolloutConfig,
    StructuredMemory,
    relaxed_positions,
    run_rollout,
    sample_pool,
    window_positions,
)
from relaxkv.cli import profile_columns, profile_rows
from relaxkv.rollout import (
    eviction_schedule, frame_slots, memory_plan, structured_step_memory,
)

from test_attention import TINY, bounded_config, rollout_configs


def oracle_partition(i, cfg):
    n_tail = min(i, cfg.n_tail)
    n_sink = min(i - n_tail, cfg.n_sink)
    return range(n_sink), range(n_sink, i - n_tail), range(i - n_tail, i)


def oracle_step_pool(cfg, i):
    sink, cand, tail = oracle_partition(i, cfg)
    return (sink, cand, tail), sample_pool(cand[(len(cand) + 1) // 2 :], cfg.pool_size)


def oracle_step_memory(cfg, i):
    """The per-step memory rule: the step's memory, with ``pool[:n_history]``
    standing in for a scored history, and the config it is scored under."""
    budget = cfg.memory_budget
    policy = cfg.policy
    if policy is Policy.NONE:
        return StructuredMemory(), None
    if policy is Policy.FULL:
        return StructuredMemory(tail_ids=list(range(i))), None
    if policy is Policy.DENSE_WINDOW:
        U = cfg.chunk_size
        held = U * (1 + (i // U - 1) % max(1, cfg.window_size // U - 1)) if i else 0
        return StructuredMemory(tail_ids=list(range(i - held, i))), None
    if policy is Policy.SINK_ONLY:
        return StructuredMemory(sink_ids=list(range(min(i, budget)))), None
    if policy is Policy.TAIL_ONLY:
        return StructuredMemory(tail_ids=list(range(max(0, i - budget), i))), None
    if policy is Policy.ATTENTION_SINK:
        sink = list(range(min(i, cfg.n_sink)))
        recent = min(i - len(sink), cfg.n_tail + cfg.n_history)
        return StructuredMemory(sink_ids=sink, tail_ids=list(range(i - recent, i))), None
    if policy is Policy.HISTORY_ONLY:
        wide = replace(cfg, n_history=budget, pool_size=max(cfg.pool_size, budget))
        (sink, _, tail), pool = oracle_step_pool(wide, i)
        if not pool:
            return StructuredMemory(list(sink), [], list(tail)), wide
        return StructuredMemory(history_ids=pool[:budget]), wide
    assert policy is Policy.RELAXED
    if cfg.fixed_history_position is None:
        (sink, _, tail), pool = oracle_step_pool(cfg, i)
        return StructuredMemory(list(sink), pool[: cfg.n_history], list(tail)), cfg
    sink, cand, tail = oracle_partition(i, cfg)
    pos = max(0, min(cfg.fixed_history_position, len(cand) - 1))
    history = list(cand[pos : pos + cfg.n_history])
    return StructuredMemory(list(sink), history, list(tail)), None


def oracle_last_reads(cfg, total_frames):
    """Each frame's last step from the per-step rule: reading it as a sink
    or tail frame, and reading it as a history or scored pool frame, -1
    for a frame never so read."""
    last_kv, last_pool = np.full((2, total_frames), -1)
    for step, i in enumerate(range(0, total_frames, cfg.chunk_size)):
        mem, scoring = oracle_step_memory(cfg, i)
        last_kv[mem.sink_ids + mem.tail_ids] = step
        last_pool[mem.history_ids] = step
        if scoring is None:
            continue
        _, pool = oracle_step_pool(scoring, i)
        if pool and scoring.n_history:
            last_pool[pool] = step
    return last_kv, last_pool


def by_last_step(last, steps):
    """The frame ids of each step in ``last``, ascending; -1 is none."""
    return [np.flatnonzero(last == step).tolist() for step in range(steps)]


def oracle_eviction_schedule(cfg, total_frames):
    """The single store's schedule: each frame expires after the last step
    that may read it in any role, and at the latest after the step that
    generates it."""
    U = cfg.chunk_size
    generating = np.arange(total_frames) // U
    last = np.maximum(generating, np.maximum(*oracle_last_reads(cfg, total_frames)))
    return by_last_step(last, total_frames // U)


def oracle_store_schedules(cfg, total_frames):
    """The K/V store's and the inputs store's schedules."""
    steps = total_frames // cfg.chunk_size
    return tuple(by_last_step(last, steps) for last in oracle_last_reads(cfg, total_frames))


def residents(expired, chunk, after=False):
    """Per step, the frames a store with schedule ``expired`` holds while
    the step runs, its chunk joined and its expired frames not yet left,
    or, ``after``, once they have left."""
    held = {f for ids in expired for f in ids}
    resident = set()
    for step, ids in enumerate(expired):
        resident |= held & set(range(step * chunk, (step + 1) * chunk))
        if not after:
            yield set(resident)
        resident -= set(ids)
        if after:
            yield set(resident)


def oracle_profile_rows(cfg):
    U, model = cfg.memory.chunk_size, cfg.model
    F = model.frame_tokens
    rows = []
    for step, i in enumerate(range(0, cfg.total_frames, U)):
        mem, _ = oracle_step_memory(cfg.memory, i)
        attended = len(mem) + U
        rows.append((
            step, i, len(mem.sink_ids), len(mem.history_ids), len(mem.tail_ids),
            attended, attended * F, model.layers * model.heads * (U * F) * (attended * F),
        ))
    return rows


def long_config(policy, **memory):
    """A config whose regions, pools and windows all pass their warmup."""
    return RolloutConfig(
        memory=MemoryConfig(policy=policy, **memory), model=TINY, total_frames=240, seed=3
    )


class TestMemoryPlan:
    @settings(max_examples=300, deadline=None)
    @given(rollout_configs())
    @example(long_config(Policy.RELAXED, bounded_cache=True, n_history=2, pool_size=5))
    @example(long_config(Policy.RELAXED, fixed_history_position=7, n_history=2))
    @example(long_config(Policy.HISTORY_ONLY, bounded_cache=True))
    @example(long_config(Policy.DENSE_WINDOW, chunk_size=2, window_size=9))
    def test_plan_equals_the_per_step_rule(self, cfg):
        """Every step's memory, scoring config, pool and scoring partition,
        the eviction schedule and the profile rows equal the per-step
        rule's."""
        mcfg = cfg.memory
        plan = memory_plan(mcfg, np.arange(0, cfg.total_frames, mcfg.chunk_size))
        for step, i in enumerate(range(0, cfg.total_frames, mcfg.chunk_size)):
            mem, scoring = oracle_step_memory(mcfg, i)
            assert plan.memory(step) == mem
            assert (plan.cfg if plan.scored else None) == scoring
            assert structured_step_memory(mcfg, i) == (mem, scoring)
            if scoring is not None:
                (sink, _, tail), pool = oracle_step_pool(scoring, i)
                assert plan.pools[step] == pool
                score_bounds = (plan.score_sink[step], plan.score_tail[step])
                assert score_bounds == (sink.stop, tail.start)
        if not plan.scored:
            assert (plan.score_sink, plan.score_tail) == (None, None)
        assert eviction_schedule(plan) == oracle_store_schedules(mcfg, cfg.total_frames)
        header, rows = profile_rows(cfg)
        assert header == [
            "step", "generated_before", "n_sink", "n_history", "n_tail",
            "attended_frames", "key_tokens", "score_ops",
        ]
        assert rows == oracle_profile_rows(cfg)

    def test_profile_costs_stay_exact_past_int64(self):
        model = ModelParams(frame_tokens=2**31, layers=3)
        for policy in Policy:
            cfg = replace(long_config(policy), model=model)
            rows = profile_rows(cfg)[1]
            assert rows == oracle_profile_rows(cfg)
            assert all(type(value) is int for row in rows for value in row)
        # one step's score ops are 2**62 and fit int64; a second step's are
        # 2**63, and the cost columns become Python ints
        model = ModelParams(layers=1, heads=1, frame_tokens=2**31)
        for frames, dtype in [(1, np.int64), (2, object)]:
            cfg = RolloutConfig(
                memory=MemoryConfig(policy=Policy.FULL, chunk_size=1), model=model,
                total_frames=frames, seed=3,
            )
            assert [col.dtype for col in profile_columns(cfg)[-3:]] == [dtype] * 3
            rows = profile_rows(cfg)[1]
            assert rows[-1][-1] == 2 ** (61 + frames)
            assert rows == oracle_profile_rows(cfg)
            assert all(type(value) is int for row in rows for value in row)


def peak_residency(cfg, total_frames):
    """The most frames each store, K/V then inputs, holds at once, read from
    the eviction schedules alone, without generating a frame."""
    U = cfg.chunk_size
    schedules = eviction_schedule(memory_plan(cfg, np.arange(0, total_frames, U)))
    return tuple(max(map(len, residents(expired, U))) for expired in schedules)


class TestResidency:
    def test_scored_runs_hold_about_a_quarter_of_their_frames(self):
        """A scored run keeps K/V only for the sink and tail frames a later
        step attends, and layer inputs for the pool frames a later step may
        pick, about a quarter of those it generates, whatever bounded_cache
        says. history_only attends a sink and a tail only while its pool is
        empty."""
        peaks = {
            Policy.RELAXED: {1500: (4, 342), 12000: (4, 2715)},
            Policy.HISTORY_ONLY: {1500: (3, 342), 12000: (3, 2715)},
        }
        for policy, by_frames in peaks.items():
            for frames, peak in by_frames.items():
                for flag in (False, True):
                    cfg = MemoryConfig(policy=policy, bounded_cache=flag)
                    assert peak_residency(cfg, frames) == peak
                plan = memory_plan(cfg, np.arange(0, frames, cfg.chunk_size))
                counts = tuple(
                    frame_slots(expired, cfg.chunk_size)[1]
                    for expired in eviction_schedule(plan)
                )
                assert counts == peak

    @settings(max_examples=100, deadline=None)
    @given(rollout_configs())
    @example(long_config(Policy.RELAXED))
    @example(long_config(Policy.HISTORY_ONLY))
    @example(long_config(Policy.RELAXED, fixed_history_position=7, n_history=2))
    @example(long_config(Policy.DENSE_WINDOW, chunk_size=2, window_size=9))
    def test_a_run_makes_one_slot_per_frame_at_its_peak(self, cfg):
        """Each of a run's two stores holds as many slots as it holds frames
        at their peak: a freed slot is reused before a new one is made, no
        two frames resident at once share one, and a frame the store never
        holds has none. A plan without pools makes no inputs slot."""
        original, runs = frame_slots, []

        def slotting(expired, chunk):
            runs.append(original(expired, chunk))
            return runs[-1]

        with mock.patch.object(rollout_module, "frame_slots", slotting):
            run_rollout(cfg)
        U = cfg.memory.chunk_size
        plan = memory_plan(cfg.memory, np.arange(0, cfg.total_frames, U))
        schedules = eviction_schedule(plan)
        assert [count for _, count in runs] == list(peak_residency(cfg.memory, cfg.total_frames))
        for (slots, count), expired in zip(runs, schedules, strict=True):
            held = {f for ids in expired for f in ids}
            assert all((slot >= 0) == (fid in held) for fid, slot in enumerate(slots))
            for resident in residents(expired, U):
                used = [slots[fid] for fid in resident]
                assert len(set(used)) == len(used) and max(used, default=-1) < count
        if not any(plan.pools) or plan.cfg.n_history == 0:
            assert runs[1][1] == 0

    @settings(max_examples=150, deadline=None)
    @given(rollout_configs())
    @example(long_config(Policy.RELAXED, n_history=2, pool_size=5))
    @example(long_config(Policy.RELAXED, fixed_history_position=7, n_history=2))
    @example(long_config(Policy.HISTORY_ONLY))
    def test_stores_together_hold_the_single_schedule(self, cfg):
        """After every step the two stores together carry into the next step
        the frames a single store does when each frame expires after the
        last step that may read it in any role. (A single store also held
        each chunk frame through its own step; that step attends the chunk
        from attend_chunk's own keys and values.)"""
        U = cfg.memory.chunk_size
        plan = memory_plan(cfg.memory, np.arange(0, cfg.total_frames, U))
        kv, inputs = eviction_schedule(plan)
        single = oracle_eviction_schedule(cfg.memory, cfg.total_frames)
        stores = (residents(expired, U, after=True) for expired in (kv, inputs, single))
        for step, (a, b, both) in enumerate(zip(*stores, strict=True)):
            assert a | b == both, step


class TestOnePoolPerScoredStep:
    @given(rollout_configs())
    @example(bounded_config(Policy.RELAXED))
    @example(bounded_config(Policy.HISTORY_ONLY))
    @settings(max_examples=40, deadline=None)
    def test_rollout_builds_each_pool_once(self, cfg):
        """A rollout samples each step's pool once, for the step's memory, the
        eviction schedule and the selection alike. It builds no partition and
        no position plan: select_memory's sink and tail bounds and the
        positions come from the memory plan's columns."""
        calls = dict.fromkeys(
            ["sample_pool", "partition", "select_memory", "relaxed_positions",
             "window_positions"], 0,
        )

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        pool = counting("sample_pool", sample_pool)
        part = counting("partition", memory_module.partition)
        select = counting("select_memory", memory_module.select_memory)
        hybrid = counting("relaxed_positions", relaxed_positions)
        window = counting("window_positions", window_positions)
        with mock.patch.object(memory_module, "sample_pool", pool), \
                mock.patch.object(rollout_module, "sample_pool", pool), \
                mock.patch.object(memory_module, "partition", part), \
                mock.patch.object(rollout_module, "partition", part), \
                mock.patch.object(rollout_module, "select_memory", select), \
                mock.patch.object(rollout_module, "relaxed_positions", hybrid), \
                mock.patch.object(rollout_module, "window_positions", window):
            trace = run_rollout(cfg)
        steps = len(trace.records)
        mcfg = cfg.memory
        scores = mcfg.policy is Policy.HISTORY_ONLY or (
            mcfg.policy is Policy.RELAXED and mcfg.fixed_history_position is None
        )
        assert calls == {
            "sample_pool": steps,
            "partition": 0,
            "select_memory": steps if scores else 0,
            "relaxed_positions": 0,
            "window_positions": 0,
        }


def dense_window_config(chunk_size, window_size, total_frames):
    return RolloutConfig(
        memory=MemoryConfig(
            policy=Policy.DENSE_WINDOW, chunk_size=chunk_size, window_size=window_size
        ),
        model=TINY, total_frames=total_frames, seed=3,
    )


class TestPositions:
    @settings(max_examples=150, deadline=None)
    @given(rollout_configs())
    @example(dense_window_config(3, 12, 60))  # re-anchors at steps 4, 7, 10, ...
    @example(dense_window_config(2, 9, 40))
    @example(dense_window_config(1, 7, 30))
    @example(long_config(Policy.RELAXED, fixed_history_position=7, n_history=2))
    @example(long_config(Policy.HISTORY_ONLY, bounded_cache=True))
    def test_positions_equal_the_rope_oracles(self, cfg):
        """Every record's memory, in ``all_ids`` order, and then its chunk sit
        at the consecutive positions from ``first_position`` that the rope
        builders assign frame by frame: window_positions for a dense_window
        step with a non-empty window, relaxed_positions for every other step."""
        mcfg = cfg.memory
        U = mcfg.chunk_size
        for rec in run_rollout(cfg).records:
            mem, window = rec.memory, rec.memory.tail_ids
            if mcfg.policy is Policy.DENSE_WINDOW and window:
                oracle = window_positions(window[:U], window[U:], U, mcfg.window_size)
            else:
                oracle = relaxed_positions(mem, rec.generated_before, U)
            positions = list(range(rec.first_position, rec.first_position + len(mem) + U))
            assert list(zip(mem.all_ids, positions)) == oracle.assignments
            assert positions[len(mem) :] == oracle.current_chunk_positions
