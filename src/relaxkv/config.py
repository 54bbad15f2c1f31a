"""Run configuration types: memory policy, toy model dimensions, rollout settings."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from .errors import ConfigError


class Policy(str, Enum):
    DENSE_WINDOW = "dense_window"
    ATTENTION_SINK = "attention_sink"
    RELAXED = "relaxed"
    NONE = "none"
    SINK_ONLY = "sink_only"
    TAIL_ONLY = "tail_only"
    HISTORY_ONLY = "history_only"
    FULL = "full"


@dataclass(frozen=True)
class MemoryConfig:
    """Memory policy hyperparameters.

    ``window_size`` only matters for the dense sliding-window baseline; its
    default (21 = 18 retained frames + one 3-frame chunk) is the canonical
    baseline used for cost comparisons.
    """

    n_sink: int = 2
    n_history: int = 1
    n_tail: int = 1
    pool_size: int = 4
    lam: float = 2.0
    chunk_size: int = 3
    window_size: int = 21
    policy: Policy = Policy.RELAXED
    # When set, history selection ignores scoring and takes the candidate at
    # this fixed 0-based position in the candidate region (clamped to the most
    # recent candidate when fewer exist).
    fixed_history_position: int | None = None
    # Recorded in reports and has no effect: every run evicts each frame after
    # the last step that may attend it, as a sink, tail or pool frame.
    bounded_cache: bool = False
    # None = score with keys mean-pooled over every layer; an int designates a
    # single scoring layer.
    scoring_layer: int | None = None

    def __post_init__(self):
        if self.n_sink < 0 or self.n_history < 0 or self.n_tail < 0:
            raise ConfigError("sink/history/tail counts must be non-negative")
        if self.pool_size < 1:
            raise ConfigError("pool_size must be >= 1")
        if self.pool_size < self.n_history:
            raise ConfigError("pool_size must be >= n_history")
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ConfigError("lambda must be a finite number >= 0")
        if self.chunk_size < 1:
            raise ConfigError("chunk_size must be >= 1")
        if self.window_size < self.chunk_size:
            raise ConfigError("window_size must be >= chunk_size")
        if self.fixed_history_position is not None and self.fixed_history_position < 0:
            raise ConfigError("fixed_history_position must be >= 0")
        if self.scoring_layer is not None and self.scoring_layer < 0:
            raise ConfigError("scoring_layer must be >= 0")

    @property
    def memory_budget(self) -> int:
        return self.n_sink + self.n_history + self.n_tail


@dataclass(frozen=True)
class ModelParams:
    """Dimensions of the deterministic toy attention stack, and its rotary
    base: each head's channel pair (2j, 2j+1) turns by the angle
    position * rotary_base^(-2j/head_dim)."""

    layers: int = 2
    heads: int = 4
    head_dim: int = 16
    frame_tokens: int = 16
    rotary_base: float = 10000.0

    def __post_init__(self):
        for name in ("layers", "heads", "head_dim", "frame_tokens"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.head_dim % 2 != 0:
            raise ConfigError("head_dim must be even for rotary rotation")
        if not (math.isfinite(self.rotary_base) and self.rotary_base > 1):
            raise ConfigError("rotary base must be a finite number > 1")

    @property
    def d(self) -> int:
        return self.heads * self.head_dim


@dataclass(frozen=True)
class RolloutConfig:
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    model: ModelParams = field(default_factory=ModelParams)
    total_frames: int = 60
    seed: int = 0

    def __post_init__(self):
        if self.total_frames < 1:
            raise ConfigError("total_frames must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.total_frames % self.memory.chunk_size != 0:
            raise ConfigError(
                "total_frames must be a multiple of chunk_size "
                f"({self.total_frames} % {self.memory.chunk_size} != 0)"
            )
        layer = self.memory.scoring_layer
        if layer is not None and layer >= self.model.layers:
            raise ConfigError(
                f"scoring_layer {layer} out of range for {self.model.layers} layers"
            )
