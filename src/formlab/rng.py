"""Deterministic, schedule-independent random streams.

Each (seed, *stream) label is hashed into an independent Philox key, so
a sample's draws depend only on its label and never on which worker or
in which order it ran.  Labels may mix ints and strings.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

_MASK = (1 << 64) - 1


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return state, z ^ (z >> 31)


def _absorb(state: int, out: int, parts) -> tuple[int, int]:
    """The (state, out) pair after hashing the label parts in order."""
    for part in parts:
        words = part.encode() if isinstance(part, str) else (int(part) & _MASK,)
        for word in words:
            state, h = _splitmix64(state ^ word)
            out ^= h
    return state, out


@lru_cache(maxsize=256, typed=True)
def _prefix(seed: int, *parts) -> tuple[int, int]:
    # every index of a stream shares its leading parts, e.g. (seed, "key0", "cube")
    return _absorb(*_splitmix64(seed & _MASK), parts)


def mix(seed: int, *stream) -> int:
    """Collapse a label into a single 64-bit value."""
    return _absorb(*_prefix(seed, *stream[:-1]), stream[-1:])[1]


def philox(seed: int, *stream) -> np.random.Generator:
    """Independent generator for the given label."""
    k0 = mix(seed, "key0", *stream)
    k1 = mix(seed, "key1", *stream)
    return np.random.Generator(np.random.Philox(key=np.array([k0, k1], dtype=np.uint64)))


def _keys(seed: int, *stream, indices) -> np.ndarray:
    """The (n, 2) uint64 Philox keys of philox(seed, *stream, i), i in indices, in one pass."""
    idx = np.asarray(indices, dtype=np.int64).view(np.uint64)  # int labels are hashed mod 2^64
    # (state, out) after the leading label parts, one row per key half
    pre = np.array([_prefix(seed, half, *stream) for half in ("key0", "key1")], dtype=np.uint64)
    return (pre[:, 1:] ^ _splitmix64(pre[:, :1] ^ idx)[1]).T


# numpy scalars, so that ops mixing them with a uint64 scalar stay in uint64
_LO32, _SHIFT = np.uint64(0xFFFFFFFF), np.uint64(32)
# Philox4x64 round multipliers and Weyl key increments (Salmon et al., SC'11)
_M0, _M1 = np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157)
_W0, _W1 = np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B)


def mulhilo(a, b) -> tuple[np.ndarray, np.ndarray]:
    """The high and low 64-bit words of the 128-bit products a*b of uint64 arrays."""
    a0, a1, b0, b1 = a & _LO32, a >> _SHIFT, b & _LO32, b >> _SHIFT
    cross0, cross1 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> _SHIFT) + (cross0 & _LO32) + (cross1 & _LO32)
    return a1 * b1 + (cross0 >> _SHIFT) + (cross1 >> _SHIFT) + (mid >> _SHIFT), a * b


def philox_words(seed: int, *stream, indices, words: int) -> np.ndarray:
    """(n, words) uint64: row i is philox(seed, *stream, i).bit_generator.random_raw(words).

    Philox4x64-10 for every index's key at once.  Block b of a stream is
    the cipher of the counter (b + 1, 0, 0, 0): numpy bumps the counter
    before computing its first block.
    """
    keys = _keys(seed, *stream, indices=indices)
    k0, k1 = keys[:, :1], keys[:, 1:]
    blocks = -(-words // 4)
    c0 = np.broadcast_to(np.arange(1, blocks + 1, dtype=np.uint64), (len(keys), blocks))
    c1 = c2 = c3 = np.zeros_like(c0)
    for r in range(10):
        if r:
            k0, k1 = k0 + _W0, k1 + _W1
        hi0, lo0 = mulhilo(_M0, c0)
        hi1, lo1 = mulhilo(_M1, c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return np.stack([c0, c1, c2, c3], axis=-1).reshape(len(keys), 4 * blocks)[:, :words]
