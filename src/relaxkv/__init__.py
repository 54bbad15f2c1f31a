"""Structured KV-memory engine and chunked autoregressive rollout simulator."""

from .attention import (
    CostReport,
    KVCache,
    ToyAttentionStack,
    append_and_evict,
    attend_chunk,
    count_step_cost,
)
from .config import MemoryConfig, ModelParams, Policy, RolloutConfig
from .memory import (
    Frame,
    Partition,
    ScoredCandidate,
    StructuredMemory,
    partition,
    restrict_candidates,
    sample_pool,
    select_history,
    select_memory,
)
from .metrics import balance, clip_features, cost_ratio, drift, repetition
from .rollout import RolloutTrace, StepRecord, audit_history_compliance, run_rollout
from .rope import PositionPlan, relaxed_positions, window_positions

__all__ = [
    "CostReport",
    "Frame",
    "KVCache",
    "MemoryConfig",
    "ModelParams",
    "Partition",
    "Policy",
    "PositionPlan",
    "RolloutConfig",
    "RolloutTrace",
    "ScoredCandidate",
    "StepRecord",
    "StructuredMemory",
    "ToyAttentionStack",
    "append_and_evict",
    "attend_chunk",
    "audit_history_compliance",
    "balance",
    "clip_features",
    "cost_ratio",
    "count_step_cost",
    "drift",
    "partition",
    "relaxed_positions",
    "repetition",
    "restrict_candidates",
    "run_rollout",
    "sample_pool",
    "select_history",
    "select_memory",
    "window_positions",
]

__version__ = "0.1.0"
