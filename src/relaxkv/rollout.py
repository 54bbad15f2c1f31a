"""Autoregressive chunk generation under each memory policy."""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace

import numpy as np

from .attention import (
    CostReport,
    KVCache,
    ToyAttentionStack,
    append_and_evict,
    attend_chunk,
    rebuild_frames,
)
from .config import MemoryConfig, Policy, RolloutConfig
from .errors import ConfigError, ContractViolationError, RelaxKVError
from .memory import (
    Frame,
    ScoredCandidate,
    StructuredMemory,
    _cached,
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

    ``cfg`` is the run's memory config, widened for history_only. A plan is
    ``scored`` when it has the ``score_sink`` and ``score_tail`` columns:
    then the history is select_memory's choice from the pool under ``cfg``,
    and ``pool[:n_history]`` stands in for it, of the same size. The pool is
    scored against the sink ``range(score_sink)`` and the tail
    ``range(score_tail, generated)`` of the partition it comes from,
    ``region_bounds(generated, cfg)``. They are the step's own sink and
    tail, except for history_only once its pool is non-empty, which attends
    its history alone.
    """

    cfg: MemoryConfig
    generated: np.ndarray
    sink_stop: np.ndarray
    pool_lo: np.ndarray
    pool_hi: np.ndarray
    tail_start: np.ndarray
    origin: np.ndarray
    score_sink: np.ndarray | None = None
    score_tail: np.ndarray | None = None

    @property
    def scored(self) -> bool:
        return self.score_sink is not None

    @functools.cached_property
    def pools(self) -> list[list[int]]:
        """Every step's pool, built on first use, once per plan. Only a
        rollout builds them; ``sizes`` needs none."""
        bounds = zip(self.pool_lo.tolist(), self.pool_hi.tolist())
        return [sample_pool(range(lo, hi), self.cfg.pool_size) for lo, hi in bounds]

    def memory(self, step: int) -> StructuredMemory:
        """One step's memory, with ``pool[:n_history]`` as its history."""
        i, sink_stop, tail_start = (
            int(col[step]) for col in (self.generated, self.sink_stop, self.tail_start)
        )
        history = self.pools[step][: self.cfg.n_history]
        return StructuredMemory.of_regions(sink_stop, history, tail_start, i)

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
    scoring = (None, None)  # the scored plans' score_sink and score_tail
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
        sink, tail = scoring = region_bounds(i, cfg)
        lo, hi = second_half_start(sink, tail), tail
        warmup = lo == hi  # an empty pool: the partition's roles, no history
        sink, tail = np.where(warmup, sink, 0), np.where(warmup, tail, i)
    elif policy is Policy.RELAXED:
        sink, tail = region_bounds(i, cfg)
        if cfg.fixed_history_position is None:
            lo, hi, scoring = second_half_start(sink, tail), tail, (sink, tail)
        else:
            # clamped to the most recent candidate when fewer exist
            last = np.maximum(0, tail - sink - 1)
            lo = sink + np.minimum(cfg.fixed_history_position, last)
            hi = np.minimum(lo + cfg.n_history, tail)
    else:
        raise ConfigError(f"unknown policy {policy}")
    return MemoryPlan(cfg, i, sink, lo, hi, tail, origin, *scoring)


def structured_step_memory(
    cfg: MemoryConfig, generated_count: int
) -> tuple[StructuredMemory, MemoryConfig | None]:
    """One step of the memory plan: the memory for the step after
    ``generated_count`` frames and the config its history is scored under
    (``None`` if it is not scored)."""
    plan = memory_plan(cfg, [generated_count])
    return plan.memory(0), plan.cfg if plan.scored else None


def eviction_schedule(plan: MemoryPlan) -> tuple[list[list[int]], list[list[int]]]:
    """For each of a run's two stores, the K/V store and the inputs store
    (see ``attention.KVCache``), the ids of the frames each step reads from
    it for the last time, step by step, for the plan of a whole run (frames
    generated 0, U, 2U, ...).

    The K/V store holds a frame through the last step that attends it as
    a sink or tail frame. The inputs store holds a frame of the pools, when
    ``cfg.n_history > 0``, through the last step whose pool holds it: a
    step may attend any of them as history. Selection reads no cached
    frame, as it scores from the mean keys, and the step that generates a
    frame attends it from ``attend_chunk``'s own keys and values. So the
    two stores together hold each frame through the last later step that
    may read it, and a store never holds a frame its schedule leaves out."""
    cfg = plan.cfg
    U = cfg.chunk_size
    steps = len(plan.generated)
    last, last_pool = np.full((2, steps * U), -1)
    columns = (plan.generated, plan.sink_stop, plan.tail_start)
    rows = zip(*(col.tolist() for col in columns), plan.pools)
    for step, (i, sink_stop, tail_start, pool) in enumerate(rows):
        last[:sink_stop] = step
        if cfg.n_history > 0:
            last_pool[pool] = step
        last[tail_start:i] = step
    return _by_last_step(last, steps), _by_last_step(last_pool, steps)


def _by_last_step(last: np.ndarray, steps: int) -> list[list[int]]:
    """The ids of ``last``'s entries, each a frame's last step or -1 for a
    frame never held, grouped by that step, for each of ``steps`` steps."""
    order = np.argsort(last, kind="stable")
    bounds = np.searchsorted(last[order], np.arange(steps))
    return [ids.tolist() for ids in np.split(order, bounds)[1:]]


def _joins(slots: np.ndarray, generated: list[int], chunk: int) -> list[list[tuple]]:
    """Per step, the (row in its chunk, frame id, slot) of each frame of the
    chunk generated after ``generated`` frames that a store's ``slots``
    (``frame_slots``) hold."""
    held = slots.tolist()
    return [[(fid - i, fid, held[fid]) for fid in range(i, i + chunk) if held[fid] >= 0]
            for i in generated]


def frame_slots(expired: list[list[int]], chunk: int) -> tuple[np.ndarray, int]:
    """Each frame's slot in a run's store, -1 for a frame the store never
    holds, and the slot count, from the store's eviction schedule, which
    names every frame it holds (step s generates the frames ``[s * chunk,
    (s + 1) * chunk)``). A step's held chunk frames take slots its
    predecessors' expired frames freed, and a new slot only when none is
    free, so the count is the schedule's residency peak: a chunk joins the
    store before its step's expired frames leave it."""
    held = set(itertools.chain.from_iterable(expired))
    slots = [-1] * (len(expired) * chunk)
    free: list[int] = []
    count = 0
    for step, ids in enumerate(expired):
        for fid in range(step * chunk, (step + 1) * chunk):
            if fid not in held:
                continue
            if free:
                slots[fid] = free.pop()
            else:
                slots[fid] = count
                count += 1
        free.extend(slots[fid] for fid in ids)
    return np.array(slots), count


def run_rollout(cfg: RolloutConfig) -> RolloutTrace:
    """Generate cfg.total_frames frames chunk by chunk under cfg.memory.policy.

    The cache has two stores, each with its own schedule
    (``eviction_schedule``) and slots (``frame_slots``). The keys and values
    of a frame that a later step attends as sink or tail are written once,
    into its slot of the K/V store, and its cached ``Frame`` is a view of
    the slot. The layer inputs of a frame that a later step may pick as
    history are written into its slot of the inputs store. No later step
    reads a pool frame as sink or tail, so every picked history frame is
    rebuilt from its inputs (``rebuild_frames``) before the step attends,
    and leaves the cache with the step's expired frames."""
    mcfg, model = cfg.memory, cfg.model
    U = mcfg.chunk_size
    stack = ToyAttentionStack(model, cfg.seed)
    cache = KVCache()
    plan = memory_plan(mcfg, np.arange(0, cfg.total_frames, U))
    expired, inputs_expired = eviction_schedule(plan)
    slots, count = frame_slots(expired, U)
    input_slots, input_count = frame_slots(inputs_expired, U)
    frame_shape = (model.frame_tokens, model.d)
    # keys at index 0 and values at 1, in one allocation
    slot_keys, slot_values = np.empty((2, model.layers, count, *frame_shape))
    inputs = np.empty((model.layers, input_count, *frame_shape))  # no slots without pools
    records: list[StepRecord] = []
    features = np.empty((cfg.total_frames, model.d))
    # every frame's scoring mean key, the rows select_memory reads
    means = np.empty((cfg.total_frames, model.d)) if plan.scored else None
    sink_prototypes = {}  # sink size -> its prototype, as select_memory keeps it
    # a step rotates positions up to its chunk's last, generated - origin + U - 1
    last = int((plan.generated - plan.origin).max()) + U - 1
    phases = rotation_phases(range(last + 1), model)
    columns = (plan.generated, plan.sink_stop, plan.tail_start, plan.first_positions())
    generated, sink_stops, tail_starts, firsts = (col.tolist() for col in columns)
    kv_joins, input_joins = (_joins(s, generated, U) for s in (slots, input_slots))
    if plan.scored:
        score_sinks, score_tails = plan.score_sink.tolist(), plan.score_tail.tolist()
    n_history = plan.cfg.n_history
    step = 0
    try:
        for step, pool in enumerate(plan.pools):
            i, sink_stop, tail_start = generated[step], sink_stops[step], tail_starts[step]
            if plan.scored:
                mem, scored = select_memory(
                    cache.inputs, means, (score_sinks[step], score_tails[step], i),
                    plan.cfg, pool, sink_prototypes, (sink_stop, tail_start),
                )
            else:
                mem = StructuredMemory.of_regions(sink_stop, pool[:n_history], tail_start, i)
                scored = []
            if mem.history_ids:
                held_inputs = inputs[:, _cached(cache.inputs, mem.history_ids)]
                cache.frames.update(
                    (f.id, f) for f in rebuild_frames(mem.history_ids, held_inputs, U, stack)
                )

            chunk_ids = list(range(i, i + U))
            hidden = stack.embed_chunk(chunk_ids)
            first = firsts[step]
            step_phases = phases[first : first + len(mem) + U]
            out, new_keys, new_values, cost, layer_inputs = attend_chunk(
                hidden, mem, step_phases, cache, stack
            )
            if not (np.isfinite(new_keys).all() and np.isfinite(new_values).all()):
                raise ContractViolationError("chunk keys or values contain non-finite entries")
            new_frames = []
            for row, fid, slot in kv_joins[step]:
                slot_keys[:, slot] = new_keys[:, row]
                slot_values[:, slot] = new_values[:, row]
                new_frames.append(Frame(fid, slot_keys[:, slot], slot_values[:, slot]))
            for row, fid, slot in input_joins[step]:
                inputs[:, slot] = layer_inputs[:, row]
                cache.inputs[fid] = slot
            for fid in inputs_expired[step]:
                del cache.inputs[fid]
            append_and_evict(cache, new_frames, expired[step] + mem.history_ids)
            if plan.scored:
                means[i : i + U] = mean_keys(new_keys, plan.cfg.scoring_layer)

            # each frame's token mean, as ``mean`` computes it
            features[i : i + U] = np.add.reduce(out, axis=1) / model.frame_tokens
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
