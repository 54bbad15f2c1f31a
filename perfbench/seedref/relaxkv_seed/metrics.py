"""Temporal-quality metrics over trace features, plus attention-cost ratios.

Features are mean-pooled toy latents, so absolute metric values are only
meaningful relative to other policies run under the same seed and model.
"""

from __future__ import annotations

import numpy as np

from .attention import CostReport
from .errors import ConfigError, ContractViolationError, DegenerateFeatureError
from .rollout import RolloutTrace

DEFAULT_CLIP_FRAMES = 15  # five default-size chunks

_ZERO_NORM = 1e-12


def clip_features(frame_features: np.ndarray, clip_frames: int = DEFAULT_CLIP_FRAMES) -> np.ndarray:
    """Mean-pool consecutive non-overlapping blocks of clip_frames frames.

    A trailing partial clip is dropped.
    """
    if clip_frames < 1:
        raise ConfigError("clip_frames must be >= 1")
    n = frame_features.shape[0] // clip_frames
    if n < 1:
        raise ContractViolationError("not enough frames for a single clip")
    trimmed = frame_features[: n * clip_frames]
    return trimmed.reshape(n, clip_frames, -1).mean(axis=1)


def _unit(vec: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(vec))
    if norm < _ZERO_NORM:
        raise DegenerateFeatureError("clip feature has zero norm")
    return vec / norm


def drift(clips: np.ndarray) -> float:
    """Cosine distance between the first and last clip features."""
    if clips.shape[0] < 2:
        raise ContractViolationError("drift needs at least 2 clips")
    return float(1.0 - _unit(clips[0]) @ _unit(clips[-1]))


def repetition(clips: np.ndarray) -> float:
    """Mean cosine similarity over all unordered clip pairs."""
    n = clips.shape[0]
    if n < 2:
        raise ContractViolationError("repetition needs at least 2 clips")
    units = np.stack([_unit(c) for c in clips])
    sims = units @ units.T
    return float(sims[np.triu_indices(n, k=1)].mean())


def balance(drifts: list[float], repetitions: list[float]) -> list[float]:
    """Per-method sum of min-max scaled drift and repetition.

    A term whose range degenerates (all methods equal) contributes 0.
    """
    if len(drifts) != len(repetitions):
        raise ContractViolationError("drift/repetition lists must align")
    if len(drifts) < 2:
        raise ContractViolationError("balance needs at least 2 methods")

    def scaled(values: list[float]) -> list[float]:
        lo, hi = min(values), max(values)
        if hi - lo < _ZERO_NORM:
            return [0.0] * len(values)
        return [(v - lo) / (hi - lo) for v in values]

    return [d + r for d, r in zip(scaled(drifts), scaled(repetitions))]


def cost_ratio(baseline: CostReport, method: CostReport) -> float:
    """Op-count speedup of the method relative to the baseline."""
    if method.score_ops == 0:
        raise ContractViolationError("method attends zero tokens")
    return baseline.score_ops / method.score_ops


def steady_cost(trace: RolloutTrace) -> CostReport:
    """Peak per-step cost of a trace: the steady-state accounting figure."""
    return max(trace.records, key=lambda r: r.cost.score_ops).cost


def trace_metrics(trace: RolloutTrace, clip_frames: int = DEFAULT_CLIP_FRAMES) -> dict:
    """Drift/repetition for one trace; None when too few frames exist."""
    try:
        clips = clip_features(trace.frame_features, clip_frames)
    except ContractViolationError:
        return {"drift": None, "repetition": None}
    if clips.shape[0] < 2:
        return {"drift": None, "repetition": None}
    return {"drift": drift(clips), "repetition": repetition(clips)}
