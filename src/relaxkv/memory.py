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
    The rollout keeps its scoring mean key apart, as a row of ``mean_keys``."""

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
        if not (np.isfinite(self.keys).all() and np.isfinite(self.values).all()):
            raise ContractViolationError("frame contains non-finite entries")


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
    """Unit-norm mean key over all tokens of all frames in the group."""
    if not frames:
        raise EmptyGroupError("cannot build a prototype from an empty group")
    pooled = np.concatenate([_pooled_keys(f, scoring_layer) for f in frames], axis=0)
    return _normalize(pooled.mean(axis=0))


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
    cfg: MemoryConfig, pool: list[int],
) -> tuple[StructuredMemory, list[ScoredCandidate]]:
    """Full selection for one step over its ``pool``, the ``sample_pool`` of
    its restricted candidates: prototype, score, top-k, assemble with the
    step's sink and tail. A pool frame's prototype, and a one-frame tail's,
    is its normalized row of ``means``, every generated frame's ``mean_keys``
    under ``cfg.scoring_layer``; the sink and a longer tail are
    ``group_prototype``s. An evicted frame's row still holds a value, so every
    sink, tail and pool frame is checked to be cached."""
    sink_stop, tail_start = region_bounds(generated_count, cfg)
    sink, tail = list(range(sink_stop)), list(range(tail_start, generated_count))
    if not pool or cfg.n_history == 0:
        return StructuredMemory(sink, [], tail), []

    layer = cfg.scoring_layer
    sink_frames = _cached(frames, sink)
    tail_frames = _cached(frames, tail)
    _cached(frames, pool)
    one_tail = len(tail) == 1
    protos = _normalize(means[pool + tail if one_tail else pool])
    proto_sink = group_prototype(sink_frames, layer) if sink_frames else None
    if one_tail:
        proto_tail = protos[-1]
    else:
        proto_tail = group_prototype(tail_frames, layer) if tail_frames else None

    scored = [
        score_candidate(fid, proto, proto_sink, proto_tail, cfg.lam)
        for fid, proto in zip(pool, protos)
    ]
    return StructuredMemory(sink, select_history(scored, cfg.n_history), tail), scored
