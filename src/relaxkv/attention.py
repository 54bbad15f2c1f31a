"""Deterministic toy multi-head causal attention stack with an evicting KV cache.

The stack stands in for a large video backbone at desk scale: all projection
matrices are a pure function of the run seed, every chunk is generated in a
single forward pass, and attention cost is counted exactly.

Each step rotates the memory keys, and each layer's chunk queries and keys,
by one complex multiply with the step's phases (``rope.rotate_by_phases``).
The softmax is normalized after the value product: ``exp(logits - max) @ V``
is divided by the row sums, one division per context entry instead of one
per logit. Both attention products run in blocks of query rows small enough
that OpenBLAS computes each on one thread (``_matmul``), so a report's bytes
do not depend on the BLAS thread count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import ModelParams
from .errors import ContractViolationError
from .memory import Frame, StructuredMemory, _cached
from .memory import (  # noqa: F401  (perfbench/spans.py wraps them by name here)
    partition, restrict_candidates,
)
from .rope import rotate_by_phases, rotation_phases
from .rope import rotate_tokens  # noqa: F401  (perfbench/spans.py wraps it by name here)

# OpenBLAS computes a gemm of m·n·k at most this on one thread (the
# GEMM_MULTITHREAD_THRESHOLD rule of its interface/gemm.c), so a product made
# of such gemms has the same bits at any thread count.
_ONE_THREAD_GEMM = 262_144


@dataclass(frozen=True)
class CostReport:
    attended_frames: int
    key_tokens: int
    score_ops: int


@dataclass
class KVCache:
    """Per-rollout store of generated frames.

    Frames hold per-layer K/V blocks; rotary rotation is applied at attention
    time because a frame's positional index changes from step to step.
    """

    frames: dict[int, Frame] = field(default_factory=dict)

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
            out[j] = rng.standard_normal((p.frame_tokens, p.d)) * 0.5 + self.token_offsets
        return out


def attend_chunk(
    chunk_hidden: np.ndarray,
    mem: StructuredMemory,
    first_position: int,
    cache: KVCache,
    stack: ToyAttentionStack,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, CostReport]:
    """Run the chunk through the stack attending over the structured memory.

    The memory, in ``all_ids`` order, and then the chunk are rotated to the
    consecutive positions from ``first_position`` (see
    ``rollout.MemoryPlan.first_positions``). Returns output latents (U, F, d),
    the chunk's per-layer keys and values (layers, U, F, d) for cache
    insertion, and the exact cost accounting.
    Intra-chunk attention is bidirectional; memory keys are shared by every
    chunk token.
    """
    p = stack.params
    U, F, d = chunk_hidden.shape
    if (F, d) != (p.frame_tokens, p.d):
        raise ContractViolationError("chunk hidden shape does not match model dims")
    mem_frames = _cached(cache.frames, mem.all_ids)

    H, hd = p.heads, p.head_dim
    M = len(mem_frames)
    n_mem, n_new = M * F, U * F
    # phases of every attended frame, memory then chunk, for all layers
    phases = rotation_phases(range(first_position, first_position + M + U), p.rotary)
    # Head-split, rotated keys and values of memory then chunk, for every
    # layer: (layers, M + U, F, H, hd). The memory part is gathered from
    # the cache and rotated once per step, not once per layer.
    keys = np.empty((p.layers, M + U, F, H, hd))
    values = np.empty_like(keys)
    if mem_frames:
        k_mem = np.stack([f.keys for f in mem_frames], axis=1)
        v_mem = np.stack([f.values for f in mem_frames], axis=1)
        keys[:, :M] = rotate_by_phases(k_mem.reshape(p.layers, M, F, H, hd), phases[:M])
        values[:, :M] = v_mem.reshape(p.layers, M, F, H, hd)

    scale = 1.0 / np.sqrt(hd)
    h = chunk_hidden.reshape(n_new, d)
    new_keys = np.empty((p.layers, U, F, d))
    new_values = np.empty((p.layers, U, F, d))
    ops = 0
    for layer, (wq, wk, wv, wo) in enumerate(stack.weights):
        q = h @ wq
        k_new = h @ wk
        v_new = h @ wv
        new_keys[layer] = k_new.reshape(U, F, d)
        new_values[layer] = v_new.reshape(U, F, d)
        q_h = rotate_by_phases(q.reshape(U, F, H, hd), phases[M:]).reshape(n_new, H, hd)
        keys[layer, M:] = rotate_by_phases(k_new.reshape(U, F, H, hd), phases[M:])
        values[layer, M:] = v_new.reshape(U, F, H, hd)

        # (H, n_new, hd) @ (H, hd, K) -> (H, n_new, K)
        q_h = q_h * scale
        k_h = keys[layer].reshape(n_mem + n_new, H, hd)
        logits = _matmul(q_h.transpose(1, 0, 2), k_h.transpose(1, 2, 0))
        ops += logits.size
        logits -= logits.max(axis=2, keepdims=True)
        attn = np.exp(logits, out=logits)
        # (H, n_new, K) @ (H, K, hd) -> (H, n_new, hd), then the softmax's
        # normalization, one division per context entry
        v_h = values[layer].reshape(n_mem + n_new, H, hd)
        ctx = _matmul(attn, v_h.transpose(1, 0, 2))
        ctx /= attn.sum(axis=2, keepdims=True)
        h = h + ctx.transpose(1, 0, 2).reshape(n_new, d) @ wo

    attended = M + U
    report = CostReport(
        attended_frames=attended, key_tokens=attended * F, score_ops=ops
    )
    return h.reshape(U, F, d), new_keys, new_values, report


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for stacks of matrices (H, m, k) @ (H, k, n), computed in
    blocks of a's rows whose gemms have m·n·k at most ``_ONE_THREAD_GEMM``,
    so that OpenBLAS computes each on one thread. Where one row's k·n alone
    exceeds it, a block is one row, and the bound does not hold."""
    H, m, k = a.shape
    rows = max(1, _ONE_THREAD_GEMM // (k * b.shape[2]))
    if m <= rows:
        return a @ b
    out = np.empty((H, m, b.shape[2]))
    for lo in range(0, m, rows):
        np.matmul(a[:, lo : lo + rows], b, out=out[:, lo : lo + rows])
    return out


def step_costs(attended, chunk: int, frame_tokens: int, params: ModelParams):
    """Closed-form ``(attended_frames, key_tokens, score_ops)`` of steps that
    attend ``attended`` frames, chunk included: an int, or an int64 array for
    many steps at once. An array whose largest score op count would reach
    ``2**63`` is computed as an object array of Python ints instead, so the
    counts stay exact where int64 would wrap."""
    if isinstance(attended, np.ndarray) and (
        params.layers * params.heads * chunk * frame_tokens**2 * int(attended.max()) >= 2**63
    ):
        attended = attended.astype(object)
    key_tokens = attended * frame_tokens
    query_tokens = chunk * frame_tokens
    return attended, key_tokens, params.layers * params.heads * query_tokens * key_tokens


def count_step_cost(
    mem: StructuredMemory, chunk: int, frame_tokens: int, params: ModelParams
) -> CostReport:
    """Closed-form cost of one step: analytic twin of attend_chunk's counter."""
    return CostReport(*step_costs(len(mem) + chunk, chunk, frame_tokens, params))


def append_and_evict(
    cache: KVCache, new_frames: list[Frame], expired: list[int]
) -> KVCache:
    """Insert freshly generated frames, then drop the ``expired`` frames: those
    no later step reads (see ``rollout.eviction_schedule``)."""
    for frame in new_frames:
        cache.frames[frame.id] = frame
    for fid in expired:
        del cache.frames[fid]
    return cache
