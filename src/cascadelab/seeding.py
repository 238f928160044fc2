"""Deterministic 64-bit seed derivation for parallel Monte Carlo streams.

Every trial of every experiment draws from its own generator, seeded by a
pure function of (master seed, trial index). Results therefore do not depend
on execution order or chunking.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1

_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(state: int) -> int:
    """One SplitMix64 step: a bijective 64-bit finalizer with full avalanche."""
    z = (state + _GOLDEN) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def child_seed(master_seed: int, index: int) -> int:
    """Derive the seed of sub-stream `index` under `master_seed`.

    Depends only on the pair of arguments, so any schedule that assigns
    stream i to trial i reproduces the same randomness.
    """
    return splitmix64((master_seed & MASK64) ^ splitmix64(index & MASK64))


def rng_from_seed(seed: int) -> np.random.Generator:
    """PCG64 generator for a 64-bit seed (negative ints are wrapped)."""
    return np.random.default_rng(seed & MASK64)
