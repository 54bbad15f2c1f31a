"""Deterministic toy multi-head causal attention stack with a role-tagged KV cache.

The stack stands in for a large video backbone at desk scale: all projection
matrices are a pure function of the run seed, every chunk is generated in a
single forward pass, and attention cost is counted exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import MemoryConfig, ModelParams, Policy
from .errors import CacheMissError, ContractViolationError
from .memory import Frame, StructuredMemory, partition, restrict_candidates
from .rope import PositionPlan, rotate_tokens


@dataclass(frozen=True)
class CostReport:
    attended_frames: int
    key_tokens: int
    score_ops: int


@dataclass
class KVCache:
    """Per-rollout store of generated frames with their role tags.

    Frames hold per-layer K/V blocks; rotary rotation is applied at attention
    time because a frame's positional index changes from step to step.
    """

    frames: dict[int, Frame] = field(default_factory=dict)
    roles: dict[int, str] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.frames)


class ToyAttentionStack:
    """Seeded projection matrices plus frame-token embedding."""

    def __init__(self, params: ModelParams, seed: int):
        self.params = params
        self.seed = seed
        d = params.d
        scale = 1.0 / np.sqrt(d)
        self.weights = []
        for layer in range(params.layers):
            rng = np.random.default_rng([seed, 7, layer])
            self.weights.append(
                tuple(rng.normal(size=(d, d)) * scale for _ in range(4))
            )
        # Fixed per-token spatial offset channel, shared by every frame.
        self.token_offsets = (
            np.random.default_rng([seed, 11]).normal(size=(params.frame_tokens, d)) * 0.2
        )

    def embed_chunk(self, frame_ids: list[int]) -> np.ndarray:
        """Input latents for the frames about to be generated: (U, F, d)."""
        p = self.params
        out = np.empty((len(frame_ids), p.frame_tokens, p.d))
        for j, fid in enumerate(frame_ids):
            rng = np.random.default_rng([self.seed, 13, fid])
            out[j] = rng.normal(size=(p.frame_tokens, p.d)) * 0.5 + self.token_offsets
        return out


def _split_heads(x: np.ndarray, heads: int, head_dim: int) -> np.ndarray:
    return x.reshape(x.shape[0], heads, head_dim)


def attend_chunk(
    chunk_hidden: np.ndarray,
    mem: StructuredMemory,
    plan: PositionPlan,
    cache: KVCache,
    stack: ToyAttentionStack,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, CostReport]:
    """Run the chunk through the stack attending over the structured memory.

    Returns output latents (U, F, d), the chunk's per-layer keys and values
    (layers, U, F, d) for cache insertion, and the exact cost accounting.
    Intra-chunk attention is bidirectional; memory keys are shared by every
    chunk token.
    """
    p = stack.params
    U, F, d = chunk_hidden.shape
    if (F, d) != (p.frame_tokens, p.d):
        raise ContractViolationError("chunk hidden shape does not match model dims")
    if len(plan.current_chunk_positions) != U:
        raise ContractViolationError("plan does not cover the current chunk")
    positions = plan.as_dict()
    mem_ids = mem.all_ids
    for fid in mem_ids:
        if fid not in cache.frames:
            raise CacheMissError(f"frame {fid} missing from cache")
        if fid not in positions:
            raise ContractViolationError(f"frame {fid} has no positional index")

    mem_pos = np.repeat([positions[fid] for fid in mem_ids], F)
    chunk_pos = np.repeat(plan.current_chunk_positions, F)
    key_pos = np.concatenate([mem_pos, chunk_pos]) if len(mem_ids) else chunk_pos

    h = chunk_hidden.reshape(U * F, d)
    new_keys = np.empty((p.layers, U, F, d))
    new_values = np.empty((p.layers, U, F, d))
    ops = 0
    for layer, (wq, wk, wv, wo) in enumerate(stack.weights):
        q = h @ wq
        k_new = h @ wk
        v_new = h @ wv
        new_keys[layer] = k_new.reshape(U, F, d)
        new_values[layer] = v_new.reshape(U, F, d)
        if mem_ids:
            k_mem = np.concatenate([cache.frames[fid].keys[layer] for fid in mem_ids])
            v_mem = np.concatenate([cache.frames[fid].values[layer] for fid in mem_ids])
            k_all = np.concatenate([k_mem, k_new])
            v_all = np.concatenate([v_mem, v_new])
        else:
            k_all, v_all = k_new, v_new

        q_h = rotate_tokens(
            _split_heads(q, p.heads, p.head_dim), chunk_pos[:, None], p.rotary
        )
        k_h = rotate_tokens(
            _split_heads(k_all, p.heads, p.head_dim), key_pos[:, None], p.rotary
        )
        v_h = _split_heads(v_all, p.heads, p.head_dim)

        logits = np.einsum("qhd,khd->hqk", q_h, k_h) / np.sqrt(p.head_dim)
        ops += p.heads * logits.shape[1] * logits.shape[2]
        logits -= logits.max(axis=2, keepdims=True)
        attn = np.exp(logits)
        attn /= attn.sum(axis=2, keepdims=True)
        ctx = np.einsum("hqk,khd->qhd", attn, v_h).reshape(U * F, d)
        h = h + ctx @ wo

    attended = len(mem_ids) + U
    report = CostReport(
        attended_frames=attended, key_tokens=attended * F, score_ops=ops
    )
    return h.reshape(U, F, d), new_keys, new_values, report


def count_step_cost(
    mem: StructuredMemory, chunk: int, frame_tokens: int, params: ModelParams
) -> CostReport:
    """Closed-form cost of one step: analytic twin of attend_chunk's counter."""
    attended = len(mem) + chunk
    key_tokens = attended * frame_tokens
    query_tokens = chunk * frame_tokens
    return CostReport(
        attended_frames=attended,
        key_tokens=key_tokens,
        score_ops=params.layers * params.heads * query_tokens * key_tokens,
    )


def _retained_ids(ids: list[int], cfg: MemoryConfig, generated_count: int) -> set[int]:
    i = generated_count
    budget = cfg.memory_budget
    chunk = cfg.chunk_size
    if cfg.policy is Policy.FULL:
        return set(ids)
    if cfg.policy is Policy.NONE:
        return set()
    if cfg.policy is Policy.DENSE_WINDOW:
        return {f for f in ids if f >= i - cfg.window_size}
    if cfg.policy is Policy.SINK_ONLY:
        return {f for f in ids if f < budget}
    if cfg.policy is Policy.TAIL_ONLY:
        return {f for f in ids if f >= i - budget}
    if cfg.policy is Policy.ATTENTION_SINK:
        recent = cfg.n_tail + cfg.n_history
        return {f for f in ids if f < cfg.n_sink or f >= i - recent}
    # relaxed / history_only: sinks + candidate region + tail; during warmup
    # the next step still attends densely, so keep the latest chunk too.
    p = partition(i, cfg)
    keep = set(p.sink_ids) | set(p.tail_ids) | {f for f in ids if f >= i - chunk}
    if cfg.bounded_cache:
        keep |= set(restrict_candidates(p))
    else:
        keep |= set(p.candidate_ids)
    return keep


def append_and_evict(
    cache: KVCache, new_frames: list[Frame], cfg: MemoryConfig, generated_count: int
) -> KVCache:
    """Insert freshly generated frames and drop frames the policy can never
    attend to again. Sink frames survive for the whole rollout."""
    for frame in new_frames:
        cache.frames[frame.id] = frame
    keep = _retained_ids(sorted(cache.frames), cfg, generated_count)
    for fid in [f for f in cache.frames if f not in keep]:
        del cache.frames[fid]
        cache.roles.pop(fid, None)
    has_sink = cfg.policy not in (Policy.DENSE_WINDOW, Policy.TAIL_ONLY, Policy.NONE)
    for fid in cache.frames:
        if has_sink and fid < cfg.n_sink:
            cache.roles[fid] = "sink"
        elif fid >= generated_count - cfg.n_tail:
            cache.roles[fid] = "tail"
        else:
            cache.roles[fid] = "candidate"
    return cache
