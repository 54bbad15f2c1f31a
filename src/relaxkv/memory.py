"""Structured KV-memory selection.

Splits the generated history into sink / candidate / tail regions, scores
mid-range candidates by alignment with the sink prototype minus weighted
alignment with the tail prototype, and picks the top scorers as history.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .config import MemoryConfig
from .errors import CacheMissError, ContractViolationError, DegeneratePrototypeError

_ZERO_NORM = 1e-12


@dataclass(frozen=True)
class Frame:
    """One generated frame: per-layer key/value blocks of shape (layers, F, d).
    In a rollout they are views of one slot of the run's key and value
    arrays (see ``attention.KVCache``), which a later frame overwrites once
    this one is evicted, or, for a history frame the cache holds only as
    its layer inputs, views of the product that rebuilt it for the step
    that attends it (``attention.rebuild_frames``). The rollout keeps its
    scoring mean key apart, as a row of ``mean_keys``, and checks that a
    chunk's keys and values are finite before it makes their frames."""

    id: int
    keys: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.id < 0:
            raise ContractViolationError("frame id must be non-negative")
        if self.keys.ndim != 3 or self.keys.shape != self.values.shape:
            raise ContractViolationError(
                "keys/values must be (layers, tokens, dim) arrays of equal shape"
            )
        if self.keys.shape[1] < 1:
            raise ContractViolationError("frame must contain at least one token")


@dataclass(frozen=True)
class Partition:
    """Sink / candidate / tail id regions as ``range``s: O(1) per step to
    build, restrict and test membership in, however long the rollout."""

    sink_ids: range
    candidate_ids: range
    tail_ids: range


@dataclass(frozen=True)
class ScoredCandidate:
    frame_id: int
    stability: float
    redundancy: float
    relaxation: float


@dataclass(frozen=True)
class StructuredMemory:
    """Resolved conditioning set for one generation step, with role tags."""

    sink_ids: list[int] = field(default_factory=list)
    history_ids: list[int] = field(default_factory=list)
    tail_ids: list[int] = field(default_factory=list)

    @classmethod
    def of_regions(
        cls, sink_stop: int, history: list[int], tail_start: int, generated_count: int
    ) -> StructuredMemory:
        """The memory of sink ``[0, sink_stop)``, ``history`` and tail
        ``[tail_start, generated_count)``: a step's, from its memory plan's
        column values (see ``rollout.MemoryPlan``)."""
        return cls(list(range(sink_stop)), history, list(range(tail_start, generated_count)))

    @property
    def all_ids(self) -> list[int]:
        return [*self.sink_ids, *self.history_ids, *self.tail_ids]

    def __len__(self) -> int:
        return len(self.sink_ids) + len(self.history_ids) + len(self.tail_ids)


def region_bounds(generated_count, cfg: MemoryConfig):
    """``(sink_stop, tail_start)`` of the partition after ``generated_count``
    frames, an int or an int array: sink ``[0, sink_stop)``, candidates
    ``[sink_stop, tail_start)``, tail ``[tail_start, generated_count)``.

    While too few frames exist, the tail takes the most recent frames first
    and the sink the earliest of the remainder.
    """
    tail_start = generated_count - np.minimum(generated_count, cfg.n_tail)
    return np.minimum(tail_start, cfg.n_sink), tail_start


def second_half_start(lo, hi):
    """Start of the second half ``[.., hi)`` of the candidates ``[lo, hi)``:
    their last floor(n/2) of n. Ints or int arrays."""
    return lo + (hi - lo + 1) // 2


def partition(generated_count: int, cfg: MemoryConfig) -> Partition:
    """Split ids 0..generated_count-1 into sink / candidate / tail regions."""
    if generated_count < 0:
        raise ContractViolationError("generated_count must be >= 0")
    sink_stop, tail_start = region_bounds(generated_count, cfg)
    return Partition(
        range(sink_stop), range(sink_stop, tail_start), range(tail_start, generated_count)
    )


def restrict_candidates(p: Partition) -> range:
    """The second half of the candidate region, as a range (order preserved)."""
    cand = p.candidate_ids
    return range(second_half_start(cand.start, cand.stop), cand.stop)


def sample_pool(restricted: range | list[int], pool_size: int) -> list[int]:
    """Deterministic evenly spaced subsample of the restricted region.

    Endpoints are always included; with a single slot the most recent frame
    wins.
    """
    if pool_size < 1:
        raise ContractViolationError("pool_size must be >= 1")
    n = len(restricted)
    if n <= pool_size:
        return list(restricted)
    if pool_size == 1:
        return [restricted[-1]]
    return [restricted[j * (n - 1) // (pool_size - 1)] for j in range(pool_size)]


def mean_keys(keys: np.ndarray, scoring_layer: int | None) -> np.ndarray:
    """Mean key of each frame of a chunk's ``(layers, U, F, d)`` keys, one row
    per frame: the mean of its key rows over every layer, or over
    ``scoring_layer``'s, summed layer by layer and token by token, in order.
    The sum divided by the row count is ``mean``'s arithmetic, bit for bit,
    without its Python wrapper."""
    if scoring_layer is not None:
        keys = keys[scoring_layer : scoring_layer + 1]
    return np.add.reduce(keys, axis=(0, 2)) / (keys.shape[0] * keys.shape[2])


def _normalize(v: np.ndarray) -> np.ndarray:
    """``v`` over its norm, row by row for a matrix; a row whose norm is
    below the bound has no direction."""
    norm = np.sqrt(np.vecdot(v, v))
    if any(n < _ZERO_NORM for n in norm.reshape(-1).tolist()):
        raise DegeneratePrototypeError("key block has zero mean; no prototype direction")
    return v / norm[..., None]


def select_history(scored: list[ScoredCandidate], k: int) -> list[int]:
    """Ids of the min(k, n) highest relaxation scores; ties go to the more
    recent frame. Output ascending by id."""
    if k <= 0:
        return []
    ranked = sorted(scored, key=lambda s: (-s.relaxation, -s.frame_id))
    return sorted(s.frame_id for s in ranked[:k])


def _cached(frames: Mapping, ids) -> list:
    """The entries of ``ids`` in order, frames or slots; one absent from
    ``frames`` is a cache miss."""
    try:
        return [frames[fid] for fid in ids]
    except KeyError as exc:
        raise CacheMissError(f"frame {exc.args[0]} missing from cache") from None


def select_memory(
    held: Mapping[int, int], means: np.ndarray, scoring: tuple[int, int, int],
    cfg: MemoryConfig, pool: list[int], sink_prototypes: dict[int, np.ndarray | None],
    attended: tuple[int, int],
) -> tuple[StructuredMemory, list[ScoredCandidate]]:
    """Full selection for one step over its ``pool``, the ``sample_pool`` of
    its restricted candidates: prototype, score, top-k, and the step's
    memory, ``StructuredMemory.of_regions`` of its history between the
    attended sink ``[0, attended[0])`` and tail ``[attended[1],
    generated_count)``.

    ``scoring`` is ``(sink_stop, tail_start, generated_count)`` of the
    partition the pool comes from, and ``attended`` the step's own
    ``(sink_stop, tail_start)``: the memory plan's column values (see
    ``rollout.MemoryPlan``). The scoring partition's sink and tail give the
    prototypes the pool is scored against. They are the attended sink and
    tail, except for history_only, which attends only its history once its
    pool is non-empty. Every prototype is a normalized mean of rows of
    ``means``, every generated frame's ``mean_keys`` under
    ``cfg.scoring_layer``: a pool frame's is its own row, the sink's and
    the tail's the mean of theirs. A sink's rows never change once written,
    so its prototype is computed once per sink size and kept in
    ``sink_prototypes``, which the caller holds for the run. Selection reads
    no cached keys, but its chosen frames are attended next and an evicted
    frame's row still holds a value, so the pool is checked to be ``held``
    in the cache's inputs store (``KVCache.inputs``), from which a chosen
    frame is rebuilt.

    Each candidate is scored with the dot products of its unit prototype
    with the sink's and the tail's, a missing group's term 0, taken for the
    whole pool at once."""
    sink_stop, tail_start, generated_count = scoring
    if not pool or cfg.n_history == 0:
        return StructuredMemory.of_regions(attended[0], [], attended[1], generated_count), []

    _cached(held, pool)
    n_tail = generated_count - tail_start
    protos = _normalize(means[pool + [tail_start] if n_tail == 1 else pool])
    if sink_stop not in sink_prototypes:
        sink_prototypes[sink_stop] = (
            _normalize(np.add.reduce(means[:sink_stop]) / sink_stop) if sink_stop else None
        )
    proto_sink = sink_prototypes[sink_stop]
    if n_tail == 1:
        proto_tail = protos[-1]
    elif n_tail:
        proto_tail = _normalize(np.add.reduce(means[tail_start:generated_count]) / n_tail)
    else:
        proto_tail = None

    candidates = protos[: len(pool)]
    zeros = [0.0] * len(pool)
    stability = np.vecdot(candidates, proto_sink).tolist() if proto_sink is not None else zeros
    redundancy = np.vecdot(candidates, proto_tail).tolist() if proto_tail is not None else zeros
    scored = [
        ScoredCandidate(fid, s, r, s - cfg.lam * r)
        for fid, s, r in zip(pool, stability, redundancy)
    ]
    history = select_history(scored, cfg.n_history)
    return StructuredMemory.of_regions(attended[0], history, attended[1], generated_count), scored
