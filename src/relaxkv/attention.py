"""Deterministic toy multi-head causal attention stack with an evicting KV cache.

The stack stands in for a large video backbone at desk scale: all projection
matrices are a pure function of the run seed, every chunk is generated in a
single forward pass, and attention cost is counted exactly.

Each step rotates the memory keys, and each layer's chunk queries and keys
(one product makes q, k and v), by one complex multiply with its rows of the
run's phase table. The softmax subtracts the layer's logit maximum (each
row's past ``_SHIFT_RANGE``) and divides by the row sums after the value
product, whose ones column makes them. Both attention products run in blocks
of query rows small enough that OpenBLAS computes each on one thread
(``_matmul``), so a report's bytes do not depend on the BLAS thread count.
A frame that a rollout caches only as its layer inputs is rebuilt as K/V
with those bits (``rebuild_frames``).
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
from .rope import rotate_by_phases
from .rope import rotate_tokens  # noqa: F401  (perfbench/spans.py wraps it by name here)
from .seeding import pcg64_state, seed_words

# OpenBLAS computes a gemm of m·n·k at most this on one thread (the
# GEMM_MULTITHREAD_THRESHOLD rule of its interface/gemm.c), so a product made
# of such gemms has the same bits at any thread count.
_ONE_THREAD_GEMM = 262_144
# e^-700 is a normal double (the least is about e^-708)
_SHIFT_RANGE = 700.0
# frame ids whose seeds are hashed at once; a power of two below 2**32
_SEED_BLOCK = 1024


@dataclass(frozen=True)
class CostReport:
    attended_frames: int
    key_tokens: int
    score_ops: int


@dataclass
class KVCache:
    """Per-rollout store of the generated frames that a later step may read,
    in two tiers by the role in which the memory plan may read a frame.

    ``frames`` holds the K/V ``Frame`` of every id the step attends: the
    frames a later step reads as sink or tail and, for one step, the
    history frames rebuilt from their inputs.
    Rotary rotation is applied at attention time because a frame's
    positional index changes from step to step. In a rollout each cached
    sink or tail ``Frame`` is a view of one slot of the run's single
    ``(2, layers, slots, F, d)`` array, keys at index 0 and values at 1
    (``rollout.run_rollout``); a slot is reused once its frame is evicted,
    so a ``Frame`` kept past its eviction may read a later frame's keys.

    ``inputs`` maps each frame a later step may pick as history to its slot
    of the run's ``(layers, slots, F, d)`` array of attention inputs, half
    the bytes of its K/V, from which ``rebuild_frames`` makes its ``Frame``
    on the step that attends it.
    """

    frames: dict[int, Frame] = field(default_factory=dict)
    inputs: dict[int, int] = field(default_factory=dict)


class ToyAttentionStack:
    """Seeded projection matrices plus frame-token embedding. Attention reads
    a layer's wq, wk and wv as ``qkv[layer]``, ``[wq / sqrt(head_dim) | wk
    | wv]``, all layers in one ``(layers, d, 3d)`` array."""

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
        q_scale = 1.0 / np.sqrt(params.head_dim)
        self.qkv = np.stack(
            [np.hstack([wq * q_scale, wk, wv]) for wq, wk, wv, _ in self.weights]
        )
        # Fixed per-token spatial offset channel, shared by every frame.
        self.token_offsets = (
            np.random.default_rng([seed, 11]).normal(size=(params.frame_tokens, d)) * 0.2
        )
        # the uint32 words of [seed, 13] that begin every frame's entropy
        self._entropy_head = [*_uint32_words(seed), 13]
        self._bits = np.random.PCG64(0)
        self._normal = np.random.Generator(self._bits).standard_normal
        # the last block of frame ids hashed, and its frames' SeedSequence words
        self._block, self._block_words = None, []

    def embed_chunk(self, frame_ids: list[int]) -> np.ndarray:
        """Input latents for the frames about to be generated: (U, F, d). Frame
        fid draws what ``default_rng([seed, 13, fid])`` draws: one PCG64 is set
        to that generator's state, from the frame's SeedSequence words, which
        are hashed for a block of ``_SEED_BLOCK`` frame ids at a time. A
        rollout's ids count up, so only the last block is kept."""
        p = self.params
        out = np.empty((len(frame_ids), p.frame_tokens, p.d))
        for j, fid in enumerate(frame_ids):
            block, k = divmod(fid, _SEED_BLOCK)
            if block != self._block:
                self._block, self._block_words = block, self._block_seed_words(block)
            self._bits.state = pcg64_state(self._block_words[k])
            self._normal(out=out[j])
        out *= 0.5
        out += self.token_offsets
        return out

    def _block_seed_words(self, block: int) -> list[list[int]]:
        """The SeedSequence words of frame ids ``block * _SEED_BLOCK`` on. A
        block lies within one multiple of 2**32, so its ids have the same
        uint32 words but the lowest, which counts up from the block's."""
        head, first = self._entropy_head, _uint32_words(block * _SEED_BLOCK)
        entropy = np.empty((_SEED_BLOCK, len(head) + len(first)), dtype=np.uint32)
        entropy[:] = head + first
        entropy[:, len(head)] += np.arange(_SEED_BLOCK, dtype=np.uint32)
        return seed_words(entropy).tolist()


def _uint32_words(n: int) -> list[int]:
    """``n``'s little-endian uint32 words, as ``SeedSequence`` splits an int."""
    return [(n >> s) & 0xFFFFFFFF for s in range(0, max(n.bit_length(), 1), 32)]


def attend_chunk(
    chunk_hidden: np.ndarray,
    mem: StructuredMemory,
    phases: np.ndarray,
    cache: KVCache,
    stack: ToyAttentionStack,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, CostReport, np.ndarray]:
    """Run the chunk through the stack attending over the structured memory.

    The memory, in ``all_ids`` order, and then the chunk are rotated by the
    rows of ``phases``, one per frame: ``rotation_phases`` of consecutive
    positions (see ``rollout.MemoryPlan.first_positions``). Returns output
    latents (U, F, d), the chunk's per-layer keys and values (layers, U, F, d)
    for cache insertion, the exact cost accounting, and the chunk's input to
    each layer (layers, U, F, d): its embedding, then the residual entering
    each later layer, from which ``rebuild_frames`` remakes its keys and
    values.
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
    if len(phases) != M + U:
        raise ContractViolationError(f"{len(phases)} phase rows for {M + U} frames")
    n_mem, n_new = M * F, U * F
    # Head-split, rotated keys, and values with a ones column, of memory then
    # chunk for every layer: (layers, M + U, F, H, hd [+ 1]). The memory part
    # is rotated and copied in from the cache once per step, not per layer.
    keys = np.empty((p.layers, M + U, F, H, hd))
    values = np.empty((p.layers, M + U, F, H, hd + 1))
    values[..., hd] = 1.0
    key_pairs = keys.view(np.complex128)
    for j, f in enumerate(mem_frames):
        pairs = f.keys.reshape(p.layers, F, H, hd).view(np.complex128)
        np.multiply(pairs, phases[j], out=key_pairs[:, j])
        values[:, j, ..., :hd] = f.values.reshape(p.layers, F, H, hd)

    h = chunk_hidden.reshape(n_new, d)
    new_keys = np.empty((p.layers, U, F, d))
    new_values = np.empty((p.layers, U, F, d))
    inputs = np.empty((p.layers, U, F, d))
    ops = 0
    for layer, (w_qkv, (*_, wo)) in enumerate(zip(stack.qkv, stack.weights)):
        inputs[layer] = h.reshape(U, F, d)
        qkv = h @ w_qkv
        new_keys[layer] = qkv[:, d : 2 * d].reshape(U, F, d)
        new_values[layer] = qkv[:, 2 * d :].reshape(U, F, d)
        qk = rotate_by_phases(qkv[:, : 2 * d].reshape(U, F, 2, H, hd), phases[M:, :, None])
        keys[layer, M:] = qk[:, :, 1]
        values[layer, M:, ..., :hd] = qkv[:, 2 * d :].reshape(U, F, H, hd)

        # (H, n_new, hd) @ (H, hd, K) -> (H, n_new, K)
        q_h = qk[:, :, 0].reshape(n_new, H, hd)
        k_h = keys[layer].reshape(n_mem + n_new, H, hd)
        logits = _matmul(q_h.transpose(1, 0, 2), k_h.transpose(1, 2, 0))
        ops += logits.size
        top = logits.max()
        logits -= top if top - logits.min() <= _SHIFT_RANGE else logits.max(2, keepdims=True)
        attn = np.exp(logits, out=logits)
        # (H, n_new, K) @ (H, K, hd + 1) -> (H, n_new, hd + 1): the context
        # and the row sums, then the softmax's one division per context entry
        v_h = values[layer].reshape(n_mem + n_new, H, hd + 1)
        ctx = _matmul(attn, v_h.transpose(1, 0, 2))
        ctx = ctx[..., :hd] / ctx[..., hd:]
        h = h + ctx.transpose(1, 0, 2).reshape(n_new, d) @ wo

    attended = M + U
    report = CostReport(
        attended_frames=attended, key_tokens=attended * F, score_ops=ops
    )
    return h.reshape(U, F, d), new_keys, new_values, report, inputs


def rebuild_frames(
    ids: list[int], inputs: np.ndarray, chunk: int, stack: ToyAttentionStack
) -> list[Frame]:
    """The ``Frame``s of ``ids`` from ``inputs``, their input to each layer
    (layers, len(ids), F, d), with the bits of the keys and values
    ``attend_chunk`` made for them in chunks of ``chunk`` frames.

    Every layer is one product by its whole ``qkv``, the one attend_chunk
    makes: a product by only its wk and wv columns starts their column
    blocks elsewhere and, for some widths, changes bits. OpenBLAS computes
    a product of one row as a gemv, with other bits than a gemm, whose
    entries do not depend on its row count. So where a chunk was one row,
    each frame is its own product, and otherwise a single row is multiplied
    next to a copy of itself."""
    L, n, F, d = inputs.shape
    if chunk * F == 1:  # the chunk's product was a gemv of its row
        kv = inputs @ stack.qkv[:, None]
    else:
        rows = inputs.reshape(L, n * F, d)
        if n * F == 1:
            rows = np.concatenate((rows, rows), axis=1)
        kv = (rows @ stack.qkv)[:, : n * F].reshape(L, n, F, 3 * d)
    return [
        Frame(id=fid, keys=kv[:, j, :, d : 2 * d], values=kv[:, j, :, 2 * d :])
        for j, fid in enumerate(ids)
    ]


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
