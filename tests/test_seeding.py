"""Seed-derivation unit tests."""

import collections
import tracemalloc

import numpy as np

from cascadelab import seeding
from cascadelab.seeding import (
    MASK64,
    child_seed,
    pcg64_states,
    rng_from_seed,
    set_pcg64_state,
    splitmix64,
    trial_streams,
)


def test_splitmix64_known_sequence():
    # reference outputs of the standard finalizer, states 0, 1, and the
    # widely published check value for state 1234567
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert splitmix64(1) == 0x910A2DEC89025CC1
    assert splitmix64(1234567) == 0x599ED017FB08FC85


def test_splitmix64_stays_in_64_bits():
    for state in (0, 1, 2**63, MASK64):
        out = splitmix64(state)
        assert 0 <= out <= MASK64


def test_child_seed_is_pure_and_spreads():
    a = child_seed(42, 0)
    assert a == child_seed(42, 0)
    children = {child_seed(42, i) for i in range(1000)}
    assert len(children) == 1000
    assert child_seed(42, 7) != child_seed(43, 7)


def test_child_seed_wraps_negative_and_huge_inputs():
    assert child_seed(-1, 3) == child_seed(MASK64, 3)
    assert child_seed(5, 2**64 + 9) == child_seed(5, 9)


def test_rng_from_seed_reproducible():
    a = rng_from_seed(123).random(8)
    b = rng_from_seed(123).random(8)
    assert np.array_equal(a, b)
    c = rng_from_seed(-123).random(3)
    d = rng_from_seed((-123) & MASK64).random(3)
    assert np.array_equal(c, d)


def reference_state(seed):
    """The (state, inc) pair of numpy's own PCG64 for `seed`."""
    state = np.random.PCG64(seed).state["state"]
    return state["state"], state["inc"]


def test_pcg64_states_match_numpy_on_many_seeds():
    """Every derived state is numpy's: 10^5 random 64-bit seeds, seeds below
    2^32 (one SeedSequence word), seeds with the top bit set and the word
    boundaries."""
    rng = np.random.default_rng(2024)
    seeds = np.concatenate(
        [
            rng.integers(0, 2**64 - 1, 100_000, dtype=np.uint64, endpoint=True),
            rng.integers(0, 2**32, 1000, dtype=np.uint64),
            rng.integers(2**63, 2**64 - 1, 1000, dtype=np.uint64, endpoint=True),
            np.array([0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1], dtype=np.uint64),
        ]
    )
    derived = pcg64_states(seeds)
    assert len(derived) == seeds.size
    mismatched = [
        seed
        for seed, state in zip(seeds.tolist(), derived)
        if state != reference_state(seed)
    ]
    assert mismatched == []


def test_pcg64_states_of_no_seeds():
    assert pcg64_states(np.array([], dtype=np.uint64)) == []


def test_reused_generator_draws_what_a_fresh_one_draws():
    """One generator, set to each seed's state in turn, draws exactly what
    `rng_from_seed` draws: doubles into a buffer, Laplace noise, and seeds
    without replacement (whose bounded draws can leave half of a 64-bit
    word buffered for the next call, which setting the state clears)."""
    seeds = [child_seed(77, i) for i in range(300)] + [0, 1, 2**32, MASK64]
    reused = rng_from_seed(5)
    for seed, state in zip(seeds, pcg64_states(seeds)):
        fresh = rng_from_seed(seed)
        got, want = np.empty(17), np.empty(17)
        set_pcg64_state(reused, state).random(out=got)
        fresh.random(out=want)
        assert np.array_equal(got, want)
        assert set_pcg64_state(reused, state).laplace(0.0, 50.0) == (
            rng_from_seed(seed).laplace(0.0, 50.0)
        )
        for n, s in [(2500, 1), (40, 2), (10, 10), (28374, 5)]:
            got = set_pcg64_state(reused, state).choice(n, s, replace=False)
            want = rng_from_seed(seed).choice(n, s, replace=False)
            assert np.array_equal(got, want)
        # a draw that leaves a 32-bit half buffered, then a reset
        reused.integers(0, 7, size=3, dtype=np.uint32)
        assert set_pcg64_state(reused, state).random() == rng_from_seed(seed).random()


def test_trial_streams_follow_child_seed(monkeypatch):
    """In blocks of 1, 3 and 7, the rows joined are trial t's seed and the
    state of each named sub-stream, across chunk boundaries, and no block's
    rows come from two `pcg64_states` calls."""
    calls = []
    derive = seeding.pcg64_states
    monkeypatch.setattr(
        seeding, "pcg64_states", lambda seeds: calls.append(derive(seeds)) or calls[-1]
    )
    monkeypatch.setattr(seeding, "_CHUNK_TRIALS", 7)
    for block in (1, 3, 7):
        rows = []
        plan = trial_streams(2**64 - 3, 23, (0, 1, 2), block)
        for first, trial_seeds, *states in plan:
            assert first == len(rows)
            assert len(trial_seeds) == min(block, 23 - first)
            # the generator is lazy, so the latest call made this block
            assert all(set(column) <= set(calls[-1]) for column in states)
            rows += zip(trial_seeds, *states)
        assert len(rows) == 23
        for t, row in enumerate(rows):
            trial_seed = child_seed(2**64 - 3, t)
            assert row[0] == trial_seed
            assert list(row[1:]) == [
                reference_state(child_seed(trial_seed, j)) for j in (0, 1, 2)
            ]
    assert list(trial_streams(9, 4, (2,))) == [
        (t, [child_seed(9, t)], [reference_state(child_seed(child_seed(9, t), 2))])
        for t in range(4)
    ]


def test_trial_streams_derive_one_chunk_per_call(monkeypatch):
    """Each `pcg64_states` call covers one chunk of trials, so the states
    held at once do not grow with the trial count."""
    sizes = []
    derive = seeding.pcg64_states
    monkeypatch.setattr(
        seeding, "pcg64_states", lambda seeds: sizes.append(len(seeds)) or derive(seeds)
    )
    monkeypatch.setattr(seeding, "_CHUNK_TRIALS", 16)
    assert len(list(trial_streams(3, 16 * 3 + 5, (0, 1)))) == 53
    assert sizes == [32, 32, 32, 10]


def test_trial_streams_hold_one_chunk_at_a_time():
    """Reading eight chunks peaks no higher than reading one: each chunk's
    states are dropped before the next chunk is derived."""
    chunk = seeding._CHUNK_TRIALS

    def peak(trials):
        tracemalloc.start()
        try:
            collections.deque(trial_streams(11, trials, (0, 1)), maxlen=0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peaks = [peak(chunk), peak(8 * chunk)]
    assert peaks[1] <= 1.1 * peaks[0]
