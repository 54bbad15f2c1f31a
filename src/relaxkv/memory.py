"""Structured KV-memory selection.

Splits the generated history into sink / candidate / tail regions, scores
mid-range candidates by alignment with the sink prototype minus weighted
alignment with the tail prototype, and picks the top scorers as history.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import MemoryConfig
from .errors import (
    CacheMissError,
    ContractViolationError,
    DegeneratePrototypeError,
    EmptyGroupError,
)

_ZERO_NORM = 1e-12


@dataclass(frozen=True)
class Frame:
    """One generated frame: per-layer key/value blocks of shape (layers, F, d).
    The rollout keeps its scoring mean key apart, as a row of ``mean_keys``,
    and checks that a chunk's keys and values are finite before it makes
    their frames."""

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


def _pooled_keys(frame: Frame, scoring_layer: int | None) -> np.ndarray:
    if scoring_layer is None:
        return frame.keys.reshape(-1, frame.keys.shape[-1])
    if not 0 <= scoring_layer < frame.keys.shape[0]:
        raise ContractViolationError(f"scoring layer {scoring_layer} out of range")
    return frame.keys[scoring_layer]


def mean_keys(keys: np.ndarray, scoring_layer: int | None) -> np.ndarray:
    """Mean key of each frame of a chunk's ``(layers, U, F, d)`` keys, one row
    per frame. Row j equals ``_pooled_keys(frame j).mean(axis=0)`` bit for
    bit: the same rows are summed in the same order."""
    if scoring_layer is None:
        U, d = keys.shape[1], keys.shape[3]
        return keys.transpose(1, 0, 2, 3).reshape(U, -1, d).mean(axis=1)
    return keys[scoring_layer].mean(axis=1)


def _normalize(v: np.ndarray) -> np.ndarray:
    """``v`` over its norm, row by row for a matrix; a row whose norm is
    below the bound has no direction."""
    norm = np.sqrt(np.vecdot(v, v))
    if (norm < _ZERO_NORM).any():
        raise DegeneratePrototypeError("key block has zero mean; no prototype direction")
    return v / norm[..., None]


def frame_prototype(frame: Frame, scoring_layer: int | None = None) -> np.ndarray:
    """Unit-norm mean key of one frame (pooled over tokens and layers)."""
    return _normalize(_pooled_keys(frame, scoring_layer).mean(axis=0))


def group_prototype(frames: list[Frame], scoring_layer: int | None = None) -> np.ndarray:
    """Unit-norm mean of the group's frame mean keys. Every frame weighs the
    same, which is the mean over all their tokens when the frames hold equal
    token counts. The reference for selection's prototypes, which average the
    same rows of ``mean_keys``, bit for bit."""
    if not frames:
        raise EmptyGroupError("cannot build a prototype from an empty group")
    rows = np.stack([_pooled_keys(f, scoring_layer).mean(axis=0) for f in frames])
    return _normalize(rows.mean(axis=0))


def score_candidate(
    frame_id: int,
    proto_h: np.ndarray,
    proto_sink: np.ndarray | None,
    proto_tail: np.ndarray | None,
    lam: float,
) -> ScoredCandidate:
    """Stability/redundancy dot products and their relaxation combination.

    A missing sink or tail group contributes 0 to its term.
    """
    stability = float(proto_h @ proto_sink) if proto_sink is not None else 0.0
    redundancy = float(proto_h @ proto_tail) if proto_tail is not None else 0.0
    return ScoredCandidate(
        frame_id=frame_id,
        stability=stability,
        redundancy=redundancy,
        relaxation=stability - lam * redundancy,
    )


def select_history(scored: list[ScoredCandidate], k: int) -> list[int]:
    """Ids of the min(k, n) highest relaxation scores; ties go to the more
    recent frame. Output ascending by id."""
    if k <= 0:
        return []
    ranked = sorted(scored, key=lambda s: (-s.relaxation, -s.frame_id))
    return sorted(s.frame_id for s in ranked[:k])


def _cached(frames: dict[int, Frame], ids) -> list[Frame]:
    """The frames of ``ids`` in order; one absent from ``frames`` is a cache miss."""
    try:
        return [frames[fid] for fid in ids]
    except KeyError as exc:
        raise CacheMissError(f"frame {exc.args[0]} missing from cache") from None


def select_memory(
    frames: dict[int, Frame], means: np.ndarray, generated_count: int,
    cfg: MemoryConfig, pool: list[int], sink_prototypes: dict[int, np.ndarray | None],
) -> tuple[StructuredMemory, list[ScoredCandidate]]:
    """Full selection for one step over its ``pool``, the ``sample_pool`` of
    its restricted candidates: prototype, score, top-k, assemble with the
    step's sink and tail. Every prototype is a normalized mean of rows of
    ``means``, every generated frame's ``mean_keys`` under
    ``cfg.scoring_layer``: a pool frame's is its own row, the sink's and the
    tail's the mean of theirs, as ``group_prototype`` computes them. A sink's
    rows never change once written, so its prototype is computed once per
    sink size and kept in ``sink_prototypes``, which the caller holds for the
    run. Selection reads no cached keys, but its chosen frames are attended
    next and an evicted frame's row still holds a value, so the pool is
    checked to be cached.

    Each candidate is scored as ``score_candidate`` scores it, bit for bit:
    the dot products are taken for the whole pool at once."""
    sink_stop, tail_start = region_bounds(generated_count, cfg)
    sink, tail = list(range(sink_stop)), list(range(tail_start, generated_count))
    if not pool or cfg.n_history == 0:
        return StructuredMemory(sink, [], tail), []

    _cached(frames, pool)
    one_tail = len(tail) == 1
    protos = _normalize(means[pool + tail if one_tail else pool])
    if sink_stop not in sink_prototypes:
        sink_prototypes[sink_stop] = _normalize(means[sink].mean(axis=0)) if sink else None
    proto_sink = sink_prototypes[sink_stop]
    if one_tail:
        proto_tail = protos[-1]
    else:
        proto_tail = _normalize(means[tail].mean(axis=0)) if tail else None

    candidates = protos[: len(pool)]
    zeros = [0.0] * len(pool)
    stability = np.vecdot(candidates, proto_sink).tolist() if proto_sink is not None else zeros
    redundancy = np.vecdot(candidates, proto_tail).tolist() if proto_tail is not None else zeros
    scored = [
        ScoredCandidate(fid, s, r, s - cfg.lam * r)
        for fid, s, r in zip(pool, stability, redundancy)
    ]
    return StructuredMemory(sink, select_history(scored, cfg.n_history), tail), scored
