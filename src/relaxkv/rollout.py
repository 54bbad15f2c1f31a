"""Autoregressive chunk generation under each memory policy."""

from __future__ import annotations

import functools
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
from .errors import ConfigError, ContractViolationError, RelaxKVError
from .memory import (
    Frame,
    ScoredCandidate,
    StructuredMemory,
    mean_keys,
    partition,
    region_bounds,
    restrict_candidates,
    sample_pool,
    second_half_start,
    select_memory,
)
from .rope import rotation_phases
from .rope import (  # noqa: F401  (perfbench/spans.py wraps them by name here)
    relaxed_positions, window_positions,
)


@dataclass(frozen=True)
class StepRecord:
    step: int
    generated_before: int
    memory: StructuredMemory
    scored: list[ScoredCandidate]
    first_position: int  # memory then chunk sit at consecutive positions from here
    cost: CostReport


@dataclass(frozen=True)
class RolloutTrace:
    config: RolloutConfig
    records: list[StepRecord]
    frame_features: np.ndarray


@dataclass(frozen=True, eq=False)
class MemoryPlan:
    """The memory of every step of a run, as integer columns with one entry
    per step, the step after ``generated`` frames:

    - sink = ``range(sink_stop)``;
    - pool = ``sample_pool(range(pool_lo, pool_hi), cfg.pool_size)`` and
      history = ``pool[:cfg.n_history]``;
    - tail = ``range(tail_start, generated)``;
    - positions: the tail and the chunk sit at their frame id minus
      ``origin`` and the sink then the history just before the tail, so the
      memory in ``all_ids`` order and then the chunk take consecutive
      positions from ``first_positions()``.

    ``cfg`` is the run's memory config, widened for history_only. When
    ``scored``, the history is select_memory's choice from the pool under
    ``cfg``, and ``pool[:n_history]`` stands in for it, of the same size.
    """

    cfg: MemoryConfig
    scored: bool
    generated: np.ndarray
    sink_stop: np.ndarray
    pool_lo: np.ndarray
    pool_hi: np.ndarray
    tail_start: np.ndarray
    origin: np.ndarray

    @functools.cached_property
    def pools(self) -> list[list[int]]:
        """Every step's pool, built on first use, once per plan."""
        bounds = zip(self.pool_lo.tolist(), self.pool_hi.tolist())
        return [sample_pool(range(lo, hi), self.cfg.pool_size) for lo, hi in bounds]

    def memory(self, step: int) -> StructuredMemory:
        """One step's memory, with ``pool[:n_history]`` as its history."""
        i, sink_stop, tail_start = (
            int(col[step]) for col in (self.generated, self.sink_stop, self.tail_start)
        )
        history = self.pools[step][: self.cfg.n_history]
        sink, tail = list(range(sink_stop)), list(range(tail_start, i))
        return StructuredMemory(sink, history, tail)

    def sizes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every step's (sink, history, tail) sizes, without building a pool:
        ``len(sample_pool(r, p)) == min(len(r), p)``."""
        pool = np.minimum(self.pool_hi - self.pool_lo, self.cfg.pool_size)
        history = np.minimum(pool, self.cfg.n_history)
        return self.sink_stop, history, self.generated - self.tail_start

    def first_positions(self) -> np.ndarray:
        """Every step's first position: that of its first memory frame, or of
        its chunk when the memory is empty."""
        return self.generated - self.origin - sum(self.sizes())


def memory_plan(cfg: MemoryConfig, generated) -> MemoryPlan:
    """The memory plan of the steps after ``generated`` frames (an int array),
    for every policy, evaluated for all steps at once. Needs no frames.

    Budget-fair single-role policies (sink_only/tail_only/history_only) spend
    the full default budget (n_sink + n_history + n_tail) on their one role;
    history_only scores under that widened budget and, while its pool is
    empty, attends the partition's sink and tail instead. A fixed-position
    history is the pool of its own contiguous range. dense_window holds the
    previous window's final chunk plus every chunk generated since,
    re-anchoring once another chunk would overflow it, and restarts its
    positions at 0 with it.
    """
    i = np.asarray(generated, dtype=np.int64)
    zero = np.zeros_like(i)
    budget = cfg.memory_budget
    policy = cfg.policy
    scored = False
    origin = zero
    if policy is Policy.NONE:
        sink, lo, hi, tail = zero, zero, zero, i
    elif policy is Policy.FULL:
        sink, lo, hi, tail = zero, zero, zero, zero
    elif policy is Policy.DENSE_WINDOW:
        U = cfg.chunk_size
        windows = max(1, cfg.window_size // U - 1)
        held = np.where(i > 0, U * (1 + (i // U - 1) % windows), 0)
        sink, lo, hi, tail = zero, zero, zero, i - held
        origin = tail
    elif policy is Policy.SINK_ONLY:
        sink, lo, hi, tail = np.minimum(i, budget), zero, zero, i
    elif policy is Policy.TAIL_ONLY:
        sink, lo, hi, tail = zero, zero, zero, np.maximum(0, i - budget)
    elif policy is Policy.ATTENTION_SINK:
        sink = np.minimum(i, cfg.n_sink)
        lo, hi, tail = zero, zero, i - np.minimum(i - sink, cfg.n_tail + cfg.n_history)
    elif policy is Policy.HISTORY_ONLY:
        cfg = replace(cfg, n_history=budget, pool_size=max(cfg.pool_size, budget))
        sink, tail = region_bounds(i, cfg)
        lo, hi, scored = second_half_start(sink, tail), tail, True
        warmup = lo == hi  # an empty pool: the partition's roles, no history
        sink, tail = np.where(warmup, sink, 0), np.where(warmup, tail, i)
    elif policy is Policy.RELAXED:
        sink, tail = region_bounds(i, cfg)
        if cfg.fixed_history_position is None:
            lo, hi, scored = second_half_start(sink, tail), tail, True
        else:
            # clamped to the most recent candidate when fewer exist
            last = np.maximum(0, tail - sink - 1)
            lo = sink + np.minimum(cfg.fixed_history_position, last)
            hi = np.minimum(lo + cfg.n_history, tail)
    else:
        raise ConfigError(f"unknown policy {policy}")
    return MemoryPlan(cfg, scored, i, sink, lo, hi, tail, origin)


def structured_step_memory(
    cfg: MemoryConfig, generated_count: int
) -> tuple[StructuredMemory, MemoryConfig | None]:
    """One step of the memory plan: the memory for the step after
    ``generated_count`` frames and the config its history is scored under
    (``None`` if it is not scored)."""
    plan = memory_plan(cfg, [generated_count])
    return plan.memory(0), plan.cfg if plan.scored else None


def eviction_schedule(plan: MemoryPlan) -> list[list[int]]:
    """Ids of the frames each step reads for the last time, step by step, for
    the plan of a whole run (frames generated 0, U, 2U, ...).

    Records the last step that reads each frame: the step attends its sink
    and tail and, when ``cfg.n_history > 0``, may attend any frame of its
    pool. Selection reads no other cached frame, as it scores from the mean
    keys. A frame is read at least by the step that generates it.
    """
    cfg = plan.cfg
    U = cfg.chunk_size
    last = np.arange(len(plan.generated) * U) // U
    columns = (plan.generated, plan.sink_stop, plan.tail_start)
    rows = zip(*(col.tolist() for col in columns), plan.pools)
    for step, (i, sink_stop, tail_start, pool) in enumerate(rows):
        last[:sink_stop] = step
        if cfg.n_history > 0:
            last[pool] = step
        last[tail_start:i] = step
    order = np.argsort(last, kind="stable")
    bounds = np.searchsorted(last[order], np.arange(1, len(plan.generated)))
    return [ids.tolist() for ids in np.split(order, bounds)]


def run_rollout(cfg: RolloutConfig) -> RolloutTrace:
    """Generate cfg.total_frames frames chunk by chunk under cfg.memory.policy."""
    mcfg = cfg.memory
    U = mcfg.chunk_size
    stack = ToyAttentionStack(cfg.model, cfg.seed)
    cache = KVCache()
    plan = memory_plan(mcfg, np.arange(0, cfg.total_frames, U))
    expired = eviction_schedule(plan)
    records: list[StepRecord] = []
    features = np.empty((cfg.total_frames, cfg.model.d))
    # every frame's scoring mean key, the rows select_memory reads
    means = np.empty((cfg.total_frames, cfg.model.d)) if plan.scored else None
    sink_prototypes = {}  # sink size -> its prototype, as select_memory keeps it
    # a step rotates positions up to its chunk's last, generated - origin + U - 1
    last = int((plan.generated - plan.origin).max()) + U - 1
    phases = rotation_phases(range(last + 1), cfg.model)

    steps = zip(plan.generated.tolist(), plan.first_positions().tolist())
    step = 0
    try:
        for step, (i, first) in enumerate(steps):
            chunk_ids = list(range(i, i + U))
            mem = plan.memory(step)
            scored = []
            if plan.scored:
                pool = plan.pools[step]
                chosen, scored = select_memory(
                    cache.frames, means, i, plan.cfg, pool, sink_prototypes
                )
                mem = replace(mem, history_ids=chosen.history_ids)

            hidden = stack.embed_chunk(chunk_ids)
            step_phases = phases[first : first + len(mem) + U]
            out, new_keys, new_values, cost = attend_chunk(hidden, mem, step_phases, cache, stack)
            if not (np.isfinite(new_keys).all() and np.isfinite(new_values).all()):
                raise ContractViolationError("chunk keys or values contain non-finite entries")
            new_frames = [
                Frame(id=fid, keys=new_keys[:, j], values=new_values[:, j])
                for j, fid in enumerate(chunk_ids)
            ]
            append_and_evict(cache, new_frames, expired[step])
            if plan.scored:
                means[i : i + U] = mean_keys(new_keys, plan.cfg.scoring_layer)

            features[i : i + U] = out.mean(axis=1)
            records.append(
                StepRecord(
                    step=step,
                    generated_before=i,
                    memory=mem,
                    scored=scored,
                    first_position=first,
                    cost=cost,
                )
            )
    except RelaxKVError as exc:
        # same error type, so the CLI exit code is unchanged
        raise type(exc)(f"step {step} (policy {mcfg.policy.value}): {exc}") from exc

    return RolloutTrace(
        config=cfg, records=records, frame_features=features
    )


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
