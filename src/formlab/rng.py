"""Deterministic, schedule-independent random streams.

Each (seed, *stream) label is hashed into an independent Philox key, so
a sample's draws depend only on its label and never on which worker or
in which order it ran.  Labels may mix ints and strings.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

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


def philox_each(seed: int, *stream, indices) -> Iterator[np.random.Generator]:
    """philox(seed, *stream, i) for each i in indices, in order.

    The keys of the whole index array come from one vectorized hash, and
    one generator is re-keyed before each yield, so a yielded generator
    is valid only until the next one is drawn.
    """
    idx = np.asarray(indices, dtype=np.int64).view(np.uint64)  # int labels are hashed mod 2^64
    # (state, out) after the leading label parts, one row per key half
    pre = np.array([_prefix(seed, half, *stream) for half in ("key0", "key1")], dtype=np.uint64)
    keys = (pre[:, 1:] ^ _splitmix64(pre[:, :1] ^ idx)[1]).T
    # one construction per call: Philox(key=...) gathers unused OS entropy each time
    gen = np.random.Generator(np.random.Philox(key=0))
    fresh = gen.bit_generator.state  # counter 0 and an empty output buffer, as on construction
    for key in keys:
        fresh["state"]["key"] = key
        gen.bit_generator.state = fresh
        yield gen
