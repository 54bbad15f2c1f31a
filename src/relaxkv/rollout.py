"""Autoregressive chunk generation under each memory policy."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .attention import (
    CostReport,
    KVCache,
    ToyAttentionStack,
    append_and_evict,
    attend_chunk,
)
from .config import MemoryConfig, Policy, RolloutConfig
from .errors import ConfigError, RelaxKVError
from .memory import (
    Frame,
    ScoredCandidate,
    StructuredMemory,
    fixed_history,
    partition,
    restrict_candidates,
    sample_pool,  # noqa: F401  (perfbench/spans.py wraps it by name here)
    select_memory,
    step_pool,
)
from .rope import PositionPlan, relaxed_positions, window_positions


@dataclass(frozen=True)
class StepRecord:
    step: int
    generated_before: int
    memory: StructuredMemory
    scored: list[ScoredCandidate]
    plan: PositionPlan
    cost: CostReport


@dataclass(frozen=True)
class RolloutTrace:
    config: RolloutConfig
    records: list[StepRecord]
    frame_features: np.ndarray

    @property
    def total_frames(self) -> int:
        return self.frame_features.shape[0]


# select(cfg, i) -> (memory, scored): the relaxed selection at step i, as
# select_memory computes it; cfg may be a widened copy of the run's config.
Selector = Callable[[MemoryConfig, int], tuple[StructuredMemory, list[ScoredCandidate]]]


def structured_step_memory(
    cfg: MemoryConfig, generated_count: int, select: Selector
) -> tuple[StructuredMemory, list[ScoredCandidate]]:
    """Memory for the step after ``generated_count`` frames, for every policy.

    Budget-fair single-role policies (sink_only/tail_only/history_only) spend
    the full default budget (n_sink + n_history + n_tail) on their one role.
    dense_window holds the previous window's final chunk plus every chunk
    generated since, re-anchoring once another chunk would overflow it.
    """
    i = generated_count
    budget = cfg.memory_budget
    policy = cfg.policy
    if policy is Policy.NONE:
        return StructuredMemory(), []
    if policy is Policy.FULL:
        return StructuredMemory(tail_ids=list(range(i))), []
    if policy is Policy.DENSE_WINDOW:
        U = cfg.chunk_size
        held = U * (1 + (i // U - 1) % max(1, cfg.window_size // U - 1)) if i else 0
        return StructuredMemory(tail_ids=list(range(i - held, i))), []
    if policy is Policy.SINK_ONLY:
        return StructuredMemory(sink_ids=list(range(min(i, budget)))), []
    if policy is Policy.TAIL_ONLY:
        return StructuredMemory(tail_ids=list(range(max(0, i - budget), i))), []
    if policy is Policy.ATTENTION_SINK:
        sink = list(range(min(i, cfg.n_sink)))
        recent = min(i - len(sink), cfg.n_tail + cfg.n_history)
        return StructuredMemory(sink_ids=sink, tail_ids=list(range(i - recent, i))), []
    if policy is Policy.HISTORY_ONLY:
        wide = replace(cfg, n_history=budget, pool_size=max(cfg.pool_size, budget))
        mem, scored = select(wide, i)
        if not mem.history_ids:
            # warmup: dense over everything that exists, with partition roles
            return mem, scored
        return StructuredMemory(history_ids=mem.history_ids), scored
    if policy is Policy.RELAXED:
        if cfg.fixed_history_position is not None:
            p = partition(i, cfg)
            return (
                StructuredMemory(
                    sink_ids=list(p.sink_ids),
                    history_ids=fixed_history(p, cfg),
                    tail_ids=list(p.tail_ids),
                ),
                [],
            )
        return select(cfg, i)
    raise ConfigError(f"unknown policy {policy}")


def eviction_schedule(cfg: MemoryConfig, total_frames: int) -> list[list[int]]:
    """Ids of the frames each step reads for the last time, step by step.

    Walks structured_step_memory over every step with a frames-free selector
    and records the last step that reads each frame: the step's memory and,
    when its selection scores, the sink, pool and tail whose keys
    select_memory reads. Without ``bounded_cache`` a selection reads every
    frame generated so far. A frame is read at least by the step that
    generates it.
    """
    U = cfg.chunk_size
    last = np.arange(total_frames) // U

    def reads(c: MemoryConfig, i: int):  # called by the loop below, at its ``step``
        p, pool = step_pool(c, i)
        if not cfg.bounded_cache:
            last[:i] = step
        elif pool and c.n_history:
            last[[*p.sink_ids, *pool, *p.tail_ids]] = step
        return StructuredMemory(list(p.sink_ids), pool[: c.n_history], list(p.tail_ids)), []

    steps = range(0, total_frames, U)
    for step, i in enumerate(steps):
        mem, _ = structured_step_memory(cfg, i, reads)
        last[mem.all_ids] = step
    order = np.argsort(last, kind="stable")
    bounds = np.searchsorted(last[order], np.arange(1, len(steps)))
    return [ids.tolist() for ids in np.split(order, bounds)]


def run_rollout(cfg: RolloutConfig) -> RolloutTrace:
    """Generate cfg.total_frames frames chunk by chunk under cfg.memory.policy."""
    mcfg = cfg.memory
    U = mcfg.chunk_size
    stack = ToyAttentionStack(cfg.model, cfg.seed)
    cache = KVCache()
    expired = eviction_schedule(mcfg, cfg.total_frames)
    records: list[StepRecord] = []
    features: list[np.ndarray] = []

    def select(c: MemoryConfig, i: int):
        return select_memory(cache.frames, i, c)

    step = 0
    try:
        for step, start in enumerate(range(0, cfg.total_frames, U)):
            i = start
            chunk_ids = list(range(i, i + U))
            mem, scored = structured_step_memory(mcfg, i, select)
            window = mem.tail_ids
            if mcfg.policy is Policy.DENSE_WINDOW and window:
                plan = window_positions(window[:U], window[U:], U, mcfg.window_size)
            else:
                # also the first dense_window step: no memory, chunk at 0..U-1
                plan = relaxed_positions(mem, i, U)

            hidden = stack.embed_chunk(chunk_ids)
            out, new_keys, new_values, cost = attend_chunk(hidden, mem, plan, cache, stack)
            new_frames = [
                Frame(id=fid, keys=new_keys[:, j], values=new_values[:, j])
                for j, fid in enumerate(chunk_ids)
            ]
            append_and_evict(cache, new_frames, expired[step])

            features.extend(out.mean(axis=1))
            records.append(
                StepRecord(
                    step=step,
                    generated_before=i,
                    memory=mem,
                    scored=scored,
                    plan=plan,
                    cost=cost,
                )
            )
    except RelaxKVError as exc:
        # same error type, so the CLI exit code is unchanged
        raise type(exc)(f"step {step} (policy {mcfg.policy.value}): {exc}") from exc

    return RolloutTrace(
        config=cfg, records=records, frame_features=np.asarray(features)
    )


@dataclass(frozen=True)
class SweepResult:
    config: RolloutConfig
    trace: RolloutTrace | None
    error: str | None


def run_sweep(grid: list[RolloutConfig]) -> list[SweepResult]:
    """One trace per config; per-config failures are collected, not fatal."""
    if not grid:
        raise ConfigError("sweep grid is empty")
    results = []
    for cfg in grid:
        try:
            results.append(SweepResult(config=cfg, trace=run_rollout(cfg), error=None))
        except RelaxKVError as exc:
            results.append(SweepResult(config=cfg, trace=None, error=str(exc)))
    return results


def audit_history_compliance(trace: RolloutTrace) -> list[tuple[int, int]]:
    """Post-hoc scan: every scored history selection (relaxed, and history_only,
    whose widened config keeps the same partition) must lie in the second half
    of that step's candidate region. Returns (step, frame_id) violations."""
    mcfg = trace.config.memory
    fixed = mcfg.policy is Policy.RELAXED and mcfg.fixed_history_position is not None
    if fixed or mcfg.policy not in (Policy.RELAXED, Policy.HISTORY_ONLY):
        return []
    violations = []
    for rec in trace.records:
        allowed = restrict_candidates(partition(rec.generated_before, mcfg))
        for fid in rec.memory.history_ids:
            if fid not in allowed:
                violations.append((rec.step, fid))
    return violations
