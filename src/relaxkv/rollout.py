"""Autoregressive chunk generation under each memory policy."""

from __future__ import annotations

from dataclasses import dataclass, replace

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


def structured_step_memory(
    cfg: MemoryConfig, generated_count: int
) -> tuple[StructuredMemory, MemoryConfig | None]:
    """Memory for the step after ``generated_count`` frames, for every policy,
    and the config its history is scored under (``None`` if it is not scored).

    Needs no frames. A scored history is stood in for by the first frames of
    the step's pool (``memory.step_pool``), which has the size of the choice
    ``select_memory`` makes under the returned config; run_rollout puts that
    choice in its place. Budget-fair single-role policies
    (sink_only/tail_only/history_only) spend the full default budget
    (n_sink + n_history + n_tail) on their one role; history_only scores
    under that widened budget. dense_window holds the previous window's final
    chunk plus every chunk generated since, re-anchoring once another chunk
    would overflow it.
    """
    i = generated_count
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
        p, pool = step_pool(wide, i)
        if not pool:
            # warmup: dense over everything that exists, with partition roles
            return StructuredMemory(list(p.sink_ids), [], list(p.tail_ids)), wide
        return StructuredMemory(history_ids=pool[:budget]), wide
    if policy is Policy.RELAXED:
        if cfg.fixed_history_position is None:
            p, pool = step_pool(cfg, i)
            history, scoring = pool[: cfg.n_history], cfg
        else:
            p = partition(i, cfg)
            history, scoring = fixed_history(p, cfg), None
        return StructuredMemory(list(p.sink_ids), history, list(p.tail_ids)), scoring
    raise ConfigError(f"unknown policy {policy}")


def eviction_schedule(cfg: MemoryConfig, total_frames: int) -> list[list[int]]:
    """Ids of the frames each step reads for the last time, step by step.

    Walks structured_step_memory over every step and records the last step
    that reads each frame: the step's memory and, when its history is scored,
    the sink, pool and tail whose keys select_memory reads. Without
    ``bounded_cache`` a scored step reads every frame generated so far. A
    frame is read at least by the step that generates it.
    """
    U = cfg.chunk_size
    last = np.arange(total_frames) // U
    steps = range(0, total_frames, U)
    for step, i in enumerate(steps):
        mem, scoring = structured_step_memory(cfg, i)
        last[mem.all_ids] = step
        if scoring is None:
            continue
        if not cfg.bounded_cache:
            last[:i] = step
            continue
        p, pool = step_pool(scoring, i)
        if pool and scoring.n_history:
            last[[*p.sink_ids, *pool, *p.tail_ids]] = step
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

    step = 0
    try:
        for step, start in enumerate(range(0, cfg.total_frames, U)):
            i = start
            chunk_ids = list(range(i, i + U))
            mem, scoring = structured_step_memory(mcfg, i)
            scored = []
            if scoring is not None:
                chosen, scored = select_memory(cache.frames, i, scoring)
                mem = replace(mem, history_ids=chosen.history_ids)
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
