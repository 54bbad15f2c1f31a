"""numpy's ``default_rng(entropy)`` seeding, for many entropies at once.

``default_rng(e)`` is ``Generator(PCG64(SeedSequence(e)))``: SeedSequence
hashes the uint32 words of ``e`` into a pool and draws four uint64 words
from it, and PCG64 turns them into its 128-bit state and increment.
``seed_words`` runs SeedSequence's hash on the rows of an entropy matrix
with one numpy operation per step of the hash, and ``pcg64_state`` gives
the state that ``PCG64`` sets from a row's words, so one PCG64 set to it
draws what a fresh ``default_rng(e)`` draws.
"""

from __future__ import annotations

import numpy as np

# SeedSequence's constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_U32 = 0xFFFFFFFF

# PCG64's multiplier (numpy/random/src/pcg64/pcg64.h)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_U128 = (1 << 128) - 1


def _hash_constants(init: int, mult: int):
    """The hash constant of each hash step, as SeedSequence updates it."""
    while True:
        yield np.uint32(init)
        init = init * mult & _U32


def seed_words(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(row).generate_state(4, np.uint64)`` of every row of the
    ``(n, words)`` uint32 ``entropy``, as an ``(n, 4)`` uint64 array. The
    words are SeedSequence's ``entropy`` split into uint32 words, least
    significant first; it has no spawn key."""
    entropy = np.asarray(entropy, dtype=np.uint32)
    n, width = entropy.shape
    hash_a = _hash_constants(_INIT_A, _MULT_A)
    constant = next(hash_a)

    def hashmix(value):
        nonlocal constant
        value = value ^ constant
        constant = next(hash_a)
        value = value * constant
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> _XSHIFT)

    with np.errstate(over="ignore"):  # uint32 arithmetic wraps, as in C
        zero = np.zeros(n, dtype=np.uint32)
        pool = [hashmix(entropy[:, k] if k < width else zero) for k in range(_POOL_SIZE)]
        for src in range(_POOL_SIZE):
            for dst in range(_POOL_SIZE):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for src in range(_POOL_SIZE, width):
            for dst in range(_POOL_SIZE):
                pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))
        words = np.empty((n, 8), dtype=np.uint32)
        hash_b = _hash_constants(_INIT_B, _MULT_B)
        constant = next(hash_b)
        for k in range(8):
            value = pool[k % _POOL_SIZE] ^ constant
            constant = next(hash_b)
            value = value * constant
            words[:, k] = value ^ (value >> _XSHIFT)
    return words.astype("<u4").view("<u8")


def pcg64_state(words: list[int]) -> dict:
    """``PCG64(seed_sequence).state`` for a SeedSequence whose four uint64
    words are ``words``: the first two make the 128-bit initial state and
    the last two the stream, and the generator steps twice from state 0,
    adding the initial state after the first step."""
    inc = ((words[2] << 65) | (words[3] << 1) | 1) & _U128
    state = ((inc + (words[0] << 64 | words[1])) * _PCG_MULT + inc) & _U128
    return {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
