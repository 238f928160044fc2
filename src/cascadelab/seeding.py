"""Deterministic 64-bit seed derivation for parallel Monte Carlo streams.

Every trial of every experiment reads its own streams, seeded by a pure
function of (master seed, trial index), on one reused generator. Results
therefore do not depend on execution order or chunking.

`rng_from_seed` builds one generator from one seed through numpy's
`SeedSequence` hash. The trial engine (`percolation.world_blocks`) instead
derives the starting states of all its trials' sub-streams in one numpy
pass per chunk of whole blocks of trials (`trial_streams`, which calls
`pcg64_states`) and sets each on one reused generator (`set_pcg64_state`).
The pass runs the same fixed public algorithms: SplitMix64 for
`child_seed`, then `SeedSequence`'s hashmix calls (after O'Neill's PCG
`seed_seq`, 2014) in their own order, and the PCG64 srandom step, so every
stream draws exactly what `rng_from_seed` of its seed draws.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

_GOLDEN = 0x9E3779B97F4A7C15

# trials whose stream states `trial_streams` derives in one call, rounded
# up to whole blocks. On 2 vCPUs a call costs about 63 us plus 0.53 us per
# seed, against 9 us for one `default_rng`; the states it returns are held
# until the chunk is read
_CHUNK_TRIALS = 1024

# numpy's SeedSequence constants: hashmix multipliers, the mix multipliers
# and the xorshift
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
# PCG64's 128-bit LCG multiplier
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


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


def _splitmix64_array(z: np.ndarray) -> np.ndarray:
    """`splitmix64` of every entry of the uint64 array `z`, in place."""
    z += np.uint64(_GOLDEN)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """The first count + 1 values of a SeedSequence hash constant, as a
    uint32 column: hashmix call j xors with row j and multiplies by row
    j + 1."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    return np.array(consts, dtype=np.uint32)[:, None]


# SeedSequence's entropy mixing makes 16 hashmix calls: 4 fill the pool and
# 3 mix each word into the others; `generate_state` makes 8
_MIX_HASH = _hash_consts(_INIT_A, _MULT_A, _POOL * _POOL)
_GENERATE_HASH = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL)


def _hashmix(words: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of each uint32 row of `words`, the calls in
    row order under consecutive constants: row i xors with consts[i] and
    multiplies by consts[i + 1]. A row of one word broadcasts over them."""
    words = words ^ consts[:-1]
    words *= consts[1:]
    words ^= words >> np.uint32(16)
    return words


def pcg64_states(seeds) -> list[tuple[int, int]]:
    """The PCG64 (state, inc) that `rng_from_seed(seed)` starts from, per seed.

    `seeds` is an array of 64-bit seeds. SeedSequence(seed) hashes the
    seed's two 32-bit words (a seed below 2^32 has one, and its pool then
    hashes 0 in the second place, which is what the high word holds) into a
    pool of four words, and `generate_state` hashes the pool into four
    64-bit words: the PCG64 seed and stream. Here each pool word is a row of
    uint32 columns, one column per seed, so each step of the hash runs once
    for all seeds, in SeedSequence's call order. The srandom step then runs
    in Python ints: inc = 2 * stream + 1 and
    state = (inc + seed) * multiplier + inc, modulo 2^128.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    pool = np.zeros((_POOL, seeds.size), dtype=np.uint32)
    # the low and high 32-bit words (astype keeps the low word)
    pool[0] = seeds.astype(np.uint32)
    pool[1] = (seeds >> np.uint64(32)).astype(np.uint32)
    pool = _hashmix(pool, _MIX_HASH[: _POOL + 1])
    for src in range(_POOL):
        # word src is hashed three times and mixed into each other word in
        # ascending order; it keeps its own value
        dst = [i for i in range(_POOL) if i != src]
        call = _POOL + 3 * src
        hashed = _hashmix(pool[src], _MIX_HASH[call : call + 4])
        mixed = pool[dst] * np.uint32(_MIX_L)
        mixed -= hashed * np.uint32(_MIX_R)
        mixed ^= mixed >> np.uint32(16)
        pool[dst] = mixed
    words = _hashmix(np.concatenate([pool, pool]), _GENERATE_HASH).astype(np.uint64)
    # little-endian pairs of 32-bit words make the four 64-bit words
    seed_and_stream = words[0::2] | words[1::2] << np.uint64(32)
    states = []
    for hi, lo, inc_hi, inc_lo in zip(*seed_and_stream.tolist()):
        inc = (inc_hi << 65 | inc_lo << 1 | 1) & _MASK128
        states.append((((hi << 64 | lo) + inc) * _PCG_MULT + inc & _MASK128, inc))
    return states


def set_pcg64_state(rng: np.random.Generator, state: tuple[int, int]):
    """Put the PCG64 generator `rng` at `state`, a (state, inc) pair from
    `pcg64_states`, with no buffered 32-bit half, and return it: it then
    draws what a fresh generator of that seed draws."""
    rng.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state[0], "inc": state[1]},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def trial_streams(
    master_seed: int, trials: int, streams, block: int = 1
) -> Iterator[tuple]:
    """Trials 0..trials-1 in blocks of `block` consecutive trials, with each
    trial's seed and the states of its sub-streams.

    Yields (first, trial_seeds, states_0, ...) per block: its first trial
    index, the list of its trials' seeds child_seed(master_seed, t) and per
    sub-stream i the list of the PCG64 states that
    rng_from_seed(child_seed(trial_seed, streams[i])) starts from. Only the
    last block may be shorter. The states are derived in one `pcg64_states`
    call per chunk of whole blocks, at least `_CHUNK_TRIALS` trials, so no
    block spans two calls, and only the chunk being read is held.
    """
    subs = np.array([splitmix64(j & MASK64) for j in streams], dtype=np.uint64)
    master = np.uint64(master_seed & MASK64)
    chunk = block * -(-_CHUNK_TRIALS // block)
    for first in range(0, trials, chunk):
        t = np.arange(first, min(first + chunk, trials), dtype=np.uint64)
        seeds = _splitmix64_array(master ^ _splitmix64_array(t))
        # stream-major: sub-stream i of the chunk's trials is states[i*k:(i+1)*k]
        states = pcg64_states(_splitmix64_array(seeds ^ subs[:, None]).ravel())
        k = seeds.size
        seeds = seeds.tolist()
        for lo in range(0, k, block):
            hi = min(lo + block, k)
            per_stream = [states[i * k + lo : i * k + hi] for i in range(subs.size)]
            yield (first + lo, seeds[lo:hi], *per_stream)
        del states  # dropped before the next chunk is derived
