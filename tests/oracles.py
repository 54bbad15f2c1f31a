"""Per-frame selection references: prototypes and scores recomputed from a
frame's own keys. ``select_memory`` scores from the run's mean-key rows
instead, and the tests check it against these bit for bit. Also the real
per-token rotary tables that ``rope.rotate_tokens`` rotates by."""

import numpy as np

from relaxkv.config import ModelParams
from relaxkv.errors import ContractViolationError, RelaxKVError
from relaxkv.memory import Frame, ScoredCandidate, _normalize
from relaxkv.rope import _angles


class EmptyGroupError(RelaxKVError):
    """Prototype requested for an empty frame group."""


def _pooled_keys(frame: Frame, scoring_layer: int | None) -> np.ndarray:
    if scoring_layer is None:
        return frame.keys.reshape(-1, frame.keys.shape[-1])
    if not 0 <= scoring_layer < frame.keys.shape[0]:
        raise ContractViolationError(f"scoring layer {scoring_layer} out of range")
    return frame.keys[scoring_layer]


def frame_prototype(frame: Frame, scoring_layer: int | None = None) -> np.ndarray:
    """Unit-norm mean key of one frame (pooled over tokens and layers)."""
    return _normalize(_pooled_keys(frame, scoring_layer).mean(axis=0))


def group_prototype(frames: list[Frame], scoring_layer: int | None = None) -> np.ndarray:
    """Unit-norm mean of the group's frame mean keys. Every frame weighs the
    same, which is the mean over all their tokens when the frames hold equal
    token counts. Selection's prototypes average the same rows of
    ``mean_keys``, bit for bit."""
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


def rotation_tables(
    positions: list[int], repeats: int, heads: int, params: ModelParams
) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of position * base^(-2j/dim), computed once per position and
    repeated into contiguous (len(positions) * repeats, heads, dim // 2) tables."""
    half = params.head_dim // 2
    theta = _angles(positions, params)
    shape = (len(theta), repeats, heads, half)
    return tuple(
        np.broadcast_to(t[:, None, None, :], shape).copy().reshape(-1, heads, half)
        for t in (np.cos(theta), np.sin(theta))
    )
