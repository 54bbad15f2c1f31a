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


def oracle_eviction_schedule(cfg, total_frames):
    U = cfg.chunk_size
    last = np.arange(total_frames) // U
    steps = range(0, total_frames, U)
    for step, i in enumerate(steps):
        mem, scoring = oracle_step_memory(cfg, i)
        last[mem.all_ids] = step
        if scoring is None:
            continue
        _, pool = oracle_step_pool(scoring, i)
        if pool and scoring.n_history:
            last[pool] = step
    order = np.argsort(last, kind="stable")
    bounds = np.searchsorted(last[order], np.arange(1, len(steps)))
    return [ids.tolist() for ids in np.split(order, bounds)]


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
        assert eviction_schedule(plan) == oracle_eviction_schedule(mcfg, cfg.total_frames)
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
    """The most frames the cache holds at once, read from the eviction
    schedule alone, without generating a frame: each step's chunk joins the
    cache before the step's expired frames leave it."""
    U = cfg.chunk_size
    expired = eviction_schedule(memory_plan(cfg, np.arange(0, total_frames, U)))
    left = np.cumsum([0, *(len(ids) for ids in expired[:-1])])
    return int((U * np.arange(1, len(expired) + 1) - left).max())


class TestResidency:
    def test_scored_runs_hold_about_a_quarter_of_their_frames(self):
        """A scored run keeps only the frames a later step may attend, about
        a quarter of those it generates, whatever bounded_cache says."""
        peaks = {
            Policy.RELAXED: {1500: 345, 12000: 2718},
            Policy.HISTORY_ONLY: {1500: 343, 12000: 2716},
        }
        for policy, by_frames in peaks.items():
            for frames, peak in by_frames.items():
                for flag in (False, True):
                    cfg = MemoryConfig(policy=policy, bounded_cache=flag)
                    assert peak_residency(cfg, frames) == peak
                plan = memory_plan(cfg, np.arange(0, frames, cfg.chunk_size))
                assert frame_slots(eviction_schedule(plan), cfg.chunk_size)[1] == peak

    @settings(max_examples=100, deadline=None)
    @given(rollout_configs())
    @example(long_config(Policy.RELAXED))
    @example(long_config(Policy.HISTORY_ONLY))
    @example(long_config(Policy.DENSE_WINDOW, chunk_size=2, window_size=9))
    def test_a_run_makes_one_slot_per_frame_at_its_peak(self, cfg):
        """A run's key and value arrays hold as many slots as its cache holds
        frames at their peak: a freed slot is reused before a new one is
        made, and no two frames resident at once share one."""
        original, runs = frame_slots, []

        def slotting(expired, chunk):
            runs.append(original(expired, chunk))
            return runs[-1]

        with mock.patch.object(rollout_module, "frame_slots", slotting):
            run_rollout(cfg)
        (slots, count), = runs
        assert count == peak_residency(cfg.memory, cfg.total_frames)
        U = cfg.memory.chunk_size
        expired = eviction_schedule(memory_plan(cfg.memory, np.arange(0, cfg.total_frames, U)))
        resident = set()
        for step, ids in enumerate(expired):
            resident |= set(range(step * U, (step + 1) * U))
            held = [slots[fid] for fid in resident]
            assert len(set(held)) == len(held) and max(held) < count
            resident -= set(ids)


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
