"""Rotary positional indexing.

Two position-plan builders (hybrid structured-memory scheme and the
sliding-window reset baseline) plus the rotary rotation itself. A rollout
takes its positions from the memory plan's ``first_positions`` instead; the
builders state the two schemes frame by frame and are the reference oracles
for those positions.

The rotation turns each channel pair (2j, 2j+1) of a head by
position * rotary_base^(-2j/head_dim), both read from ``ModelParams``. A
rollout rotates by one complex multiply: the pair is read as the complex
number ``v[2j] + i·v[2j+1]`` and multiplied by the phase ``cos + i·sin`` of
its angle, one phase row per frame position (``rotation_phases``, built once
per run and sliced per step, ``rotate_by_phases``). ``rotate_tokens``
computes the same rotation from real per-token cos and sin tables, bit for
bit as the pair formulas; it is the reference the complex form is checked
against, to a few ulps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ModelParams
from .errors import ContractViolationError, InvalidStepError, WindowOverflowError
from .memory import StructuredMemory


@dataclass(frozen=True)
class PositionPlan:
    """Positional index for every attended frame plus the current chunk."""

    assignments: list[tuple[int, int]]
    current_chunk_positions: list[int]

    def as_dict(self) -> dict[int, int]:
        return dict(self.assignments)


def relaxed_positions(mem: StructuredMemory, current_index: int, chunk: int) -> PositionPlan:
    """Hybrid indexing: tail keeps absolute frame indices ending at i-1; sink
    then history share the contiguous range immediately before the tail."""
    i = current_index
    n_tail = len(mem.tail_ids)
    n_sh = len(mem.sink_ids) + len(mem.history_ids)
    p_tail = i - n_tail
    p_sh = p_tail - n_sh
    if p_sh < 0 or i < n_tail:
        raise InvalidStepError(
            f"step {i} too small for memory of {n_sh + n_tail} frames"
        )
    assignments: list[tuple[int, int]] = []
    pos = p_sh
    for fid in sorted(mem.sink_ids):
        assignments.append((fid, pos))
        pos += 1
    for fid in sorted(mem.history_ids):
        assignments.append((fid, pos))
        pos += 1
    pos = p_tail
    for fid in sorted(mem.tail_ids):
        assignments.append((fid, pos))
        pos += 1
    return PositionPlan(
        assignments=assignments,
        current_chunk_positions=list(range(i, i + chunk)),
    )


def window_positions(
    anchor_chunk_ids: list[int], new_ids: list[int], chunk: int, window: int
) -> PositionPlan:
    """Sliding-window reset: the anchor chunk restarts at position 0 and every
    later frame follows in generation order."""
    if len(anchor_chunk_ids) != chunk:
        raise ContractViolationError(
            f"anchor chunk must contain exactly {chunk} frames"
        )
    if len(anchor_chunk_ids) + len(new_ids) > window:
        raise WindowOverflowError(
            f"{len(anchor_chunk_ids) + len(new_ids)} frames exceed window {window}"
        )
    assignments = [(fid, pos) for pos, fid in enumerate([*anchor_chunk_ids, *new_ids])]
    start = len(assignments)
    return PositionPlan(
        assignments=assignments,
        current_chunk_positions=list(range(start, start + chunk)),
    )


def _angles(positions, params: ModelParams) -> np.ndarray:
    """position * base^(-2j/dim): one row per position, one column per pair."""
    dim = params.head_dim
    inv_freq = params.rotary_base ** (-2.0 * np.arange(dim // 2) / dim)
    return np.asarray(positions, dtype=np.float64)[:, None] * inv_freq


def rotate_tokens(vecs: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Rotary rotation of vecs (..., tokens, heads, dim) by cos and sin
    tables of the pair angles, (tokens, heads, dim // 2) to match vecs' last
    three axes."""
    vecs = np.asarray(vecs, dtype=np.float64)
    even, odd = vecs[..., 0::2], vecs[..., 1::2]
    out = np.empty_like(vecs)
    out[..., 0::2] = even * cos - odd * sin
    out[..., 1::2] = even * sin + odd * cos
    return out


def rotation_phases(positions, params: ModelParams) -> np.ndarray:
    """``cos + i·sin`` of position * base^(-2j/dim), one row per position, shaped (len(positions), 1, 1, dim // 2) to broadcast over a
    frame's tokens and heads."""
    theta = _angles(positions, params)
    phases = np.empty(theta.shape, dtype=np.complex128)
    phases.real = np.cos(theta)
    phases.imag = np.sin(theta)
    return phases[:, None, None, :]


def rotate_by_phases(vecs: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """Rotary rotation of float64 vecs (..., frames, tokens, heads, dim) with a
    contiguous last axis by ``rotation_phases`` of the frames' positions: one
    complex multiply per channel pair. It equals ``rotate_tokens`` to within a
    few ulps of the pair's magnitude, and at position 0 it is the identity."""
    return (vecs.view(np.complex128) * phases).view(np.float64)
