"""Autoregressive chunk generation under each memory policy."""

from __future__ import annotations

from dataclasses import dataclass

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
    sample_pool,
    select_memory,
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
    cache: KVCache, generated_count: int, cfg: MemoryConfig
) -> tuple[StructuredMemory, list[ScoredCandidate]]:
    """Memory composition for one step of any non-windowed policy.

    Budget-fair single-role policies (sink_only/tail_only/history_only) spend
    the full default budget (n_sink + n_history + n_tail) on their one role.
    """
    i = generated_count
    budget = cfg.memory_budget
    policy = cfg.policy
    if policy is Policy.NONE:
        return StructuredMemory(), []
    if policy is Policy.FULL:
        return StructuredMemory(tail_ids=list(range(i))), []
    if policy is Policy.SINK_ONLY:
        return StructuredMemory(sink_ids=list(range(min(i, budget)))), []
    if policy is Policy.TAIL_ONLY:
        return StructuredMemory(tail_ids=list(range(max(0, i - budget), i))), []
    if policy is Policy.ATTENTION_SINK:
        sink = list(range(min(i, cfg.n_sink)))
        recent = min(i - len(sink), cfg.n_tail + cfg.n_history)
        return StructuredMemory(sink_ids=sink, tail_ids=list(range(i - recent, i))), []
    if policy is Policy.HISTORY_ONLY:
        p = partition(i, cfg)
        pool = sample_pool(restrict_candidates(p), max(cfg.pool_size, budget))
        if not pool:
            # warmup: dense over everything that exists, with partition roles
            return StructuredMemory(sink_ids=p.sink_ids, tail_ids=p.tail_ids), []
        wide = MemoryConfig(
            n_sink=cfg.n_sink,
            n_history=budget,
            n_tail=cfg.n_tail,
            pool_size=max(cfg.pool_size, budget),
            lam=cfg.lam,
            chunk_size=cfg.chunk_size,
            window_size=cfg.window_size,
            policy=Policy.RELAXED,
            scoring_layer=cfg.scoring_layer,
        )
        mem, scored = select_memory(cache.frames, i, wide)
        return StructuredMemory(history_ids=mem.history_ids), scored
    if policy is Policy.RELAXED:
        if cfg.fixed_history_position is not None:
            p = partition(i, cfg)
            return (
                StructuredMemory(
                    sink_ids=p.sink_ids,
                    history_ids=fixed_history(p, cfg),
                    tail_ids=p.tail_ids,
                ),
                [],
            )
        return select_memory(cache.frames, i, cfg)
    raise ConfigError(f"policy {policy} is not a structured-memory policy")


def run_rollout(cfg: RolloutConfig) -> RolloutTrace:
    """Generate cfg.total_frames frames chunk by chunk under cfg.memory.policy."""
    mcfg = cfg.memory
    U = mcfg.chunk_size
    stack = ToyAttentionStack(cfg.model, cfg.seed)
    cache = KVCache()
    records: list[StepRecord] = []
    features: list[np.ndarray] = []
    window: list[int] = []  # dense_window state

    step = 0
    try:
        for step, start in enumerate(range(0, cfg.total_frames, U)):
            i = start
            chunk_ids = list(range(i, i + U))
            if mcfg.policy is Policy.DENSE_WINDOW:
                if len(window) + U > mcfg.window_size:
                    # re-anchor on the previous window's final chunk
                    window = window[-U:]
                mem = StructuredMemory(tail_ids=list(window))
                scored: list[ScoredCandidate] = []
                if window:
                    plan = window_positions(window[:U], window[U:], U, mcfg.window_size)
                else:
                    plan = PositionPlan(
                        assignments=[], current_chunk_positions=list(range(U))
                    )
            else:
                mem, scored = structured_step_memory(cache, i, mcfg)
                plan = relaxed_positions(mem, i, U)

            hidden = stack.embed_chunk(chunk_ids)
            out, new_keys, new_values, cost = attend_chunk(hidden, mem, plan, cache, stack)
            new_frames = [
                Frame(id=fid, keys=new_keys[:, j], values=new_values[:, j])
                for j, fid in enumerate(chunk_ids)
            ]
            append_and_evict(cache, new_frames, mcfg, i + U)
            if mcfg.policy is Policy.DENSE_WINDOW:
                window.extend(chunk_ids)

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
    """Post-hoc scan: every scored history selection must lie in the second
    half of that step's candidate region. Returns (step, frame_id) violations."""
    mcfg = trace.config.memory
    if mcfg.policy is not Policy.RELAXED or mcfg.fixed_history_position is not None:
        return []
    violations = []
    for rec in trace.records:
        allowed = set(restrict_candidates(partition(rec.generated_before, mcfg)))
        for fid in rec.memory.history_ids:
            if fid not in allowed:
                violations.append((rec.step, fid))
    return violations
