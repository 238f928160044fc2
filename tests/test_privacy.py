"""Tests for mechanisms, distances, and the release-scale calibration."""

import logging
import math
import warnings

import numpy as np
import pytest
from scipy import stats
from scipy.fft import next_fast_len

from cascadelab.graph import Graph, generate_er
from cascadelab.percolation import DegenerateConditioningError, record_worlds
from cascadelab.privacy import (
    MechanismSpec,
    comparison_tvd,
    release_from,
    sample_wasserstein_infinity,
    wasserstein_mechanism_scale,
)
from cascadelab.seeding import child_seed, pcg64_states, rng_from_seed, set_pcg64_state

from oracles import (
    Law,
    _convolve,
    _fft_length,
    _fold,
    bfs_activated,
    fft_tvd,
    law_of,
    percolate,
    push_through_direct,
    release,
    sample_seeds,
    tvd,
    wasserstein_infinity,
    winf_bruteforce,
    winf_exact,
)


def dist(pairs):
    values, probs = zip(*sorted(pairs))
    return Law(np.array(values, dtype=np.float64), np.array(probs))


def point_mass(value):
    return dist([(value, 1.0)])


def count_split(record, v):
    """Node v's two conditional count laws from a recorded pass."""
    return map(law_of, record.node_split(v))


def random_dist(rng, max_atoms=6):
    k = int(rng.integers(1, max_atoms + 1))
    values = np.sort(rng.choice(20, size=k, replace=False)).astype(float)
    probs = rng.random(k) + 0.05
    return Law(values, probs / probs.sum())


def mass_between(law, lo, hi):
    """Total probability of the atoms with lo <= value <= hi."""
    return float(law.probs[(law.values >= lo) & (law.values <= hi)].sum())


class TestMechanismSpec:
    def test_laplace(self):
        spec = MechanismSpec(kind="laplace", scale=2.0)
        assert spec.scale == 2.0
        with pytest.raises(ValueError):
            MechanismSpec(kind="laplace", scale=0.0)
        with pytest.raises(ValueError, match="epsilon"):
            MechanismSpec(kind="laplace", scale=1.0, epsilon=0.5)

    def test_wasserstein_needs_scale_and_budget(self):
        spec = MechanismSpec(kind="wasserstein", scale=150.0, epsilon=1.0)
        assert spec.epsilon == 1.0
        with pytest.raises(ValueError):
            MechanismSpec(kind="wasserstein", scale=150.0)

    def test_randomized_response(self):
        spec = MechanismSpec(kind="randomized_response", flip_prob=0.5)
        assert spec.flip_prob == 0.5
        with pytest.raises(ValueError):
            MechanismSpec(kind="randomized_response", flip_prob=1.0)
        with pytest.raises(ValueError):
            MechanismSpec(kind="randomized_response", flip_prob=0.5, scale=1.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            MechanismSpec(kind="gaussian", scale=1.0)

    def test_replace_checks_like_the_constructor(self):
        spec = MechanismSpec(kind="laplace", scale=1.0)
        assert spec._replace(clamp=True) == MechanismSpec("laplace", 1.0, clamp=True)
        with pytest.raises(ValueError, match="scale > 0"):
            spec._replace(scale=0.0)

    def test_is_laplace(self):
        assert MechanismSpec(kind="laplace", scale=1.0).is_laplace
        assert MechanismSpec(kind="wasserstein", scale=1.0, epsilon=1.0).is_laplace
        assert not MechanismSpec(kind="randomized_response", flip_prob=0.1).is_laplace

    @pytest.mark.parametrize(
        "fields",
        [
            {"kind": "laplace", "scale": math.inf},
            {"kind": "laplace", "scale": math.nan},
            {"kind": "laplace", "scale": True},
            {"kind": "laplace", "scale": "5"},
            {"kind": "wasserstein", "scale": 5.0, "epsilon": math.nan},
            {"kind": "randomized_response", "flip_prob": math.nan},
            {"kind": "randomized_response", "flip_prob": False},
            {"kind": "laplace", "scale": 5.0, "clamp": "no"},
            {"kind": "laplace", "scale": 5.0, "clamp": 1},
        ],
    )
    def test_numbers_must_be_finite_reals_and_clamp_a_bool(self, fields):
        with pytest.raises(ValueError, match="finite number|clamp"):
            MechanismSpec(**fields)


class TestTvd:
    """Self-tests of the atom-dictionary TVD oracle."""

    def test_identical(self):
        mu = dist([(0, 0.5), (1, 0.5)])
        assert tvd(mu, mu) == 0.0

    def test_disjoint(self):
        assert tvd(dist([(0, 1.0)]), dist([(5, 1.0)])) == 1.0

    def test_hand_example(self):
        mu = dist([(0, 0.5), (1, 0.5)])
        nu = dist([(0, 0.9), (1, 0.1)])
        assert tvd(mu, nu) == pytest.approx(0.4)

    def test_metric_properties(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            a, b, c = (random_dist(rng) for _ in range(3))
            assert tvd(a, b) == pytest.approx(tvd(b, a), abs=1e-9)
            assert tvd(a, c) <= tvd(a, b) + tvd(b, c) + 1e-9
            assert 0.0 <= tvd(a, b) <= 1.0


class TestWassersteinInfinity:
    """Self-tests of the float merge oracle against the Hall brute force."""

    def test_identical(self):
        mu = dist([(0, 0.3), (4, 0.7)])
        assert wasserstein_infinity(mu, mu) == 0.0

    def test_point_masses(self):
        assert wasserstein_infinity(point_mass(3), point_mass(11)) == pytest.approx(
            8.0
        )

    def test_shifted_uniform_pair(self):
        mu = dist([(0, 0.5), (1, 0.5)])
        nu = dist([(0, 0.5), (2, 0.5)])
        assert wasserstein_infinity(mu, nu) == pytest.approx(1.0)
        assert winf_bruteforce(mu, nu) == pytest.approx(1.0)

    def test_matches_bruteforce_on_random_pairs(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            mu, nu = random_dist(rng), random_dist(rng)
            got = wasserstein_infinity(mu, nu)
            assert got == pytest.approx(winf_bruteforce(mu, nu), abs=1e-9)

    def test_symmetry(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            mu, nu = random_dist(rng), random_dist(rng)
            assert wasserstein_infinity(mu, nu) == pytest.approx(
                wasserstein_infinity(nu, mu), abs=1e-12
            )


def random_sample(rng, max_size=40, max_value=12):
    """Ascending integer sample; a small value range forces ties."""
    size = int(rng.integers(1, max_size + 1))
    return np.sort(rng.integers(0, max_value + 1, size=size))


class TestSampleWassersteinInfinity:
    def test_matches_exact_oracle_on_random_pairs(self):
        rng = np.random.default_rng(21)
        for _ in range(2000):
            x0, x1 = random_sample(rng), random_sample(rng)
            assert sample_wasserstein_infinity(x0, x1) == winf_exact(x0, x1)

    def test_exact_oracle_matches_bruteforce(self):
        rng = np.random.default_rng(22)
        for _ in range(60):
            x0 = random_sample(rng, max_size=9, max_value=6)
            x1 = random_sample(rng, max_size=9, max_value=6)
            atoms = [law_of(x) for x in (x0, x1)]
            assert winf_exact(x0, x1) == pytest.approx(winf_bruteforce(*atoms))

    def test_symmetric_and_zero_on_equal_laws(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            x0, x1 = random_sample(rng), random_sample(rng)
            d = sample_wasserstein_infinity(x0, x1)
            assert d == sample_wasserstein_infinity(x1, x0)
            # repeating every observation leaves the empirical law unchanged
            assert sample_wasserstein_infinity(x0, np.repeat(x0, 3)) == 0

    @pytest.mark.parametrize("offset", [4, 5])
    def test_large_support_is_exact(self, offset):
        """mu holds K = 200000 atoms 3i; nu holds K/2 atoms 6j + offset,
        each drawn three times, so its masses have another denominator.
        Quantile coupling sends 6j and 6j + 3 to 6j + offset, so the
        distance is max(offset, |3 - offset|) = offset. A float merge of the
        cumulative masses drifts by one atom at this support and returns
        offset + 3."""
        k = 200_000
        x0 = 3 * np.arange(k, dtype=np.int64)
        x1 = np.repeat(6 * np.arange(k // 2, dtype=np.int64) + offset, 3)
        assert sample_wasserstein_infinity(x0, x1) == offset


class TestLaplacePerturb:
    """The Laplace kinds release the count plus one Laplace(scale) draw."""

    def test_vanishing_scale(self):
        spec = MechanismSpec(kind="laplace", scale=1e-9)
        out = release(spec, np.arange(10) < 7, rng_seed=1)
        assert abs(out - 7.0) < 1e-6

    def test_clamp_lower(self):
        spec = MechanismSpec(kind="laplace", scale=5.0, clamp=True)
        for i in range(50):
            assert release(spec, np.zeros(10, dtype=bool), rng_seed=i) >= 0.0

    def test_clamp_upper(self):
        spec = MechanismSpec(kind="laplace", scale=5.0, clamp=True)
        for i in range(50):
            out = release(spec, np.ones(10, dtype=bool), rng_seed=i)
            assert 0.0 <= out <= 10.0

    def test_deterministic(self):
        spec = MechanismSpec(kind="laplace", scale=2.0)
        bits = np.arange(10) < 3
        assert release(spec, bits, rng_seed=4) == release(spec, bits, rng_seed=4)

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            MechanismSpec(kind="laplace", scale=0.0)

    def test_noise_moments_and_shape(self):
        scale, n = 2.0, 100_000
        spec = MechanismSpec(kind="laplace", scale=scale)
        zeros = np.zeros(1, dtype=bool)
        noise = np.array(
            [release(spec, zeros, rng_seed=child_seed(10, i)) for i in range(n)]
        )
        # mean 0 with sd scale*sqrt(2); |noise| has mean scale, sd scale
        assert abs(noise.mean()) <= 3 * scale * math.sqrt(2 / n)
        assert abs(np.abs(noise).mean() - scale) <= 3 * scale / math.sqrt(n)
        ks = stats.kstest(noise, stats.laplace(scale=scale).cdf)
        assert ks.pvalue > 0.01


def rr(flip_prob):
    return MechanismSpec(kind="randomized_response", flip_prob=flip_prob)


class TestRandomizedResponse:
    """Randomized response releases the debiased reported count."""

    def test_no_flip_is_exact(self):
        bits = np.array([1, 0, 1, 1, 0], dtype=bool)
        assert release(rr(0.0), bits, rng_seed=1) == 3.0

    def test_empty_input(self):
        assert release(rr(0.5), [], rng_seed=1) == 0.0

    def test_flip_prob_one_rejected(self):
        with pytest.raises(ValueError):
            rr(1.0)

    def test_debias_identity(self):
        bits = np.ones(40, dtype=bool)
        f = 0.3
        estimate = release(rr(f), bits, rng_seed=2)
        # undoing the debiasing recovers an integer reported count
        count = estimate * (1 - f) + 40 * f / 2
        assert count == pytest.approx(round(count), abs=1e-9)
        assert 0 <= round(count) <= 40

    def test_unbiased_on_all_ones(self):
        n, f, runs = 50, 0.5, 10_000
        bits = np.ones(n, dtype=bool)
        estimates = [
            release(rr(f), bits, rng_seed=child_seed(11, i)) for i in range(runs)
        ]
        # per-run variance: n*(f/2)*(1-f/2)/(1-f)^2
        se = math.sqrt(n * (f / 2) * (1 - f / 2) / (1 - f) ** 2 / runs)
        assert abs(np.mean(estimates) - n) <= 3 * se


class TestRelease:
    bits = np.array([1, 1, 0, 1, 0, 0, 0, 1, 1, 0], dtype=bool)

    @pytest.mark.parametrize("clamp", [False, True])
    def test_laplace_kinds_use_laplace_perturb(self, clamp):
        """Both Laplace kinds add the first Laplace draw of rng_seed's
        stream to the count of 5, clipped to [0, 10] under clamp."""
        for spec in (
            MechanismSpec(kind="laplace", scale=20.0, clamp=clamp),
            MechanismSpec(kind="wasserstein", scale=20.0, epsilon=0.5, clamp=clamp),
        ):
            for i in range(20):
                seed = child_seed(40, i)
                expect = 5.0 + float(rng_from_seed(seed).laplace(0.0, 20.0))
                if clamp:
                    expect = min(max(expect, 0.0), 10.0)
                assert release(spec, self.bits, seed) == expect

    def test_randomized_response_uses_debiased_estimate(self):
        """rng_seed's stream draws one flip uniform per bit, then one coin
        uniform per bit; the release debiases the reported total."""
        for i in range(20):
            seed = child_seed(41, i)
            rng = rng_from_seed(seed)
            flip = rng.random(10) < 0.6
            coin = rng.random(10) < 0.5
            count = int(np.where(flip, coin, self.bits).sum())
            expect = (count - 10 * 0.6 / 2.0) / (1.0 - 0.6)
            assert release(rr(0.6), self.bits, seed) == expect

    def test_clamp_keeps_randomized_response_in_range(self):
        bits = np.zeros(10, dtype=bool)
        spec = MechanismSpec(kind="randomized_response", flip_prob=0.9, clamp=True)
        free = MechanismSpec(kind="randomized_response", flip_prob=0.9)
        outs = [release(spec, bits, child_seed(42, i)) for i in range(200)]
        raw = [release(free, bits, child_seed(42, i)) for i in range(200)]
        assert all(0.0 <= x <= 10.0 for x in outs)
        assert min(raw) < 0.0 or max(raw) > 10.0
        assert outs == [min(max(x, 0.0), 10.0) for x in raw]

    @pytest.mark.parametrize(
        "spec",
        [MechanismSpec(kind="laplace", scale=20.0, clamp=True), rr(0.6)],
        ids=["laplace", "randomized-response"],
    )
    def test_reused_generator_releases_what_a_seed_releases(self, spec):
        """`release_from` on one generator set to each seed's state in turn,
        as the attack's evaluation runs it, equals `release` of the seed."""
        seeds = [child_seed(43, i) for i in range(50)]
        rng = rng_from_seed(0)
        for seed, state in zip(seeds, pcg64_states(seeds)):
            got = release_from(spec, self.bits, set_pcg64_state(rng, state))
            assert got == release(spec, self.bits, seed)


class TestWassersteinMechanismScale:
    def test_single_edge_fully_degenerate(self):
        g = Graph(2, [[0, 1]])
        with pytest.raises(DegenerateConditioningError):
            wasserstein_mechanism_scale(record_worlds(g, 1.0, 1, 50, 1), [0])

    def test_disjoint_edges_zero_scale(self):
        g = Graph(4, [[0, 1], [2, 3]])
        report = wasserstein_mechanism_scale(record_worlds(g, 1.0, 1, 100, 2), [0])
        assert report.w_scale == 0.0
        assert report.per_node == {0: 0.0}
        assert report.degenerate == {}

    def test_partial_degeneracy_warns_and_continues(self, caplog):
        # seeds of size 2 on K2 + isolated node: node 0 always activates,
        # node 2 splits into X=2 (seeds {0,1}) and X=3 (seeds touching 2)
        g = Graph(3, [[0, 1]])
        with caplog.at_level(logging.WARNING):
            report = wasserstein_mechanism_scale(
                record_worlds(g, 1.0, 2, 200, 3), [0, 2]
            )
        assert 0 in report.degenerate
        assert "skipping node 0" in caplog.text
        assert report.per_node[2] == pytest.approx(1.0)
        assert report.w_scale == pytest.approx(1.0)

    def test_degenerate_nodes_share_one_warning(self, caplog):
        """A 40-node path beside two isolated nodes at q = 1 with two
        seeds: a path node stays inactive only when both seeds miss the
        path, which no trial draws, so 40 nodes degenerate, and one warning
        line gives their count and the first ids."""
        g = Graph(42, [[v, v + 1] for v in range(39)])
        record = record_worlds(g, 1.0, 2, 200, 8)
        with caplog.at_level(logging.WARNING):
            report = wasserstein_mechanism_scale(record, range(42))
        assert sorted(report.degenerate) == list(range(40))
        assert sorted(report.per_node) == [40, 41]
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1
        message = warnings[0].getMessage()
        assert "node 0, 1, 2, 3, 4 and 35 more (40 of 42 protected" in message

    def test_all_degenerate_error_stays_short(self):
        """A 2000-node path at q = 1 activates every node in every trial;
        the error gives the count and the first ids, not every node's
        message (which ran to 188,939 characters)."""
        n = 2000
        g = Graph(n, [[v, v + 1] for v in range(n - 1)])
        record = record_worlds(g, 1.0, 1, 20, 9)
        with pytest.raises(DegenerateConditioningError) as info:
            wasserstein_mechanism_scale(record, range(n))
        message = str(info.value)
        assert "(2000 of 2000 protected nodes degenerate)" in message
        assert len(message) < 400

    def test_protected_must_be_nonempty(self):
        g = Graph(2, [[0, 1]])
        with pytest.raises(ValueError):
            wasserstein_mechanism_scale(record_worlds(g, 0.5, 1, 10, 1), [])

    def test_schedule_independent(self):
        """Every node reads one shared pass: trial t percolates on
        sub-stream 0 and draws seeds on sub-stream 1 of child_seed(seed, t).
        An explicit BFS loop over that layout, split by each node's bit,
        gives the same per-node distances."""
        g = generate_er(80, 0.05, rng_seed=12)
        runs = []
        for t in range(150):
            trial_seed = child_seed(4, t)
            retained = percolate(g, 0.5, child_seed(trial_seed, 0))
            seeds = sample_seeds(80, 1, child_seed(trial_seed, 1))
            runs.append(bfs_activated(80, retained, seeds))
        expect = {}
        for v in (0, 1, 2):
            branches = ([], [])
            for act in runs:
                branches[v in act].append(len(act))
            expect[v] = wasserstein_infinity(*map(law_of, branches))
        report = wasserstein_mechanism_scale(
            record_worlds(g, 0.5, 1, 150, 4), [0, 1, 2]
        )
        assert report.per_node == expect
        assert report.w_scale == max(expect.values())

    def test_per_node_is_conditional_count_distance(self):
        """Each node's distance is W-infinity between the two conditional
        count distributions that the record's `node_split` gives."""
        n, q, s, trials, seed = 60, 0.5, 1, 200, 17
        g = generate_er(n, 0.06, rng_seed=16)
        record = record_worlds(g, q, s, trials, seed)
        report = wasserstein_mechanism_scale(record, range(n))
        assert report.degenerate == {} and len(report.per_node) == n
        for v in range(0, n, 7):
            mu0, mu1 = count_split(record, v)
            assert report.per_node[v] == wasserstein_infinity(mu0, mu1)

    def test_protected_outside_graph_rejected(self):
        g = Graph(3, [[0, 1]])
        with pytest.raises(ValueError, match="outside"):
            wasserstein_mechanism_scale(record_worlds(g, 0.5, 1, 10, 1), [0, 3])

    def test_gap_forces_scale(self):
        """When the two count laws put different mass at or below the
        inactive-branch maximum, some mass must cross the support gap, so
        the per-node distance is at least that gap."""
        n = 400
        g = generate_er(n, 5 / (n - 1), rng_seed=child_seed(13, 0))
        q, s, trials, seed = 0.3, 1, 600, 14
        # one recorded pass holds both splits
        record = record_worlds(g, q, s, trials=trials, rng_seed=seed)
        x0, x1 = record.giant_split()
        inactive_max = x0[-1]
        gap = x1[0] - inactive_max
        assert gap > 0
        checked = 0
        for v in range(6):
            mu0, mu1 = count_split(record, v)
            lo_mass_gap = abs(
                mass_between(mu0, 0, inactive_max) - mass_between(mu1, 0, inactive_max)
            )
            if lo_mass_gap > 1e-12:
                assert wasserstein_infinity(mu0, mu1) >= gap
                checked += 1
        assert checked > 0


def quantile(law, u):
    """Smallest atom whose cumulative probability reaches u."""
    idx = int(np.searchsorted(np.cumsum(law.probs), u, side="left"))
    return float(law.values[min(idx, law.values.size - 1)])


class TestPushThroughMechanism:
    """Laplace noise pushed through a law: the direct-sum oracle that
    judges `comparison_tvd` against closed forms, and the noise kinds."""

    def test_vanishing_scale_preserves_input(self):
        mu = dist([(2, 0.25), (5, 0.75)])
        spec = MechanismSpec(kind="laplace", scale=1e-9)
        out = push_through_direct(mu, spec)
        assert tvd(mu, out) < 1e-3

    def test_point_mass_median(self):
        spec = MechanismSpec(kind="laplace", scale=2.0)
        out = push_through_direct(point_mass(5), spec)
        assert quantile(out, 0.5) == pytest.approx(5.0)

    def test_point_mass_central_mass(self):
        # grid cells are unit-wide and value-centered, so the closed window
        # [5 - scale, 5 + scale] takes half a cell of extra mass at each end,
        # about exp(-1) / (2 scale); scale 1000 puts that near 2e-4
        spec = MechanismSpec(kind="laplace", scale=1000.0)
        out = push_through_direct(point_mass(5), spec)
        assert mass_between(out, -995.0, 1005.0) == pytest.approx(
            1 - math.e**-1, abs=1e-3
        )

    def test_wasserstein_kind_is_laplace_at_given_scale(self):
        x0, x1 = np.array([1, 1, 6, 6, 6]), np.array([2, 9, 9])
        a = comparison_tvd(x0, x1, MechanismSpec(kind="laplace", scale=3.0))
        b = comparison_tvd(
            x0, x1, MechanismSpec(kind="wasserstein", scale=3.0, epsilon=1.0)
        )
        assert a == b

    def test_clamp_folds_mass_onto_endpoints(self):
        spec = MechanismSpec(kind="laplace", scale=2.0, clamp=True)
        out = push_through_direct(point_mass(0), spec, n=10)
        assert out.values[0] == 0.0
        assert out.values[-1] <= 10.0
        # half the noise mass is negative and folds onto the origin
        origin = out.probs[out.values == 0.0]
        assert origin.size == 1 and origin[0] >= 0.5
        assert out.probs.sum() == pytest.approx(1.0, abs=1e-9)


def on_grid(d, grid):
    """d's probabilities laid out on an ascending grid holding its support."""
    out = np.zeros(grid.size)
    out[np.searchsorted(grid, d.values)] = d.probs
    return out


def convolved(mu, spec, n=None):
    """mu's rounded atoms pushed through `spec` by `_convolve` (and `_fold`
    under clamp), as masses on every point of the output grid."""
    units = np.rint(mu.values).astype(np.int64)
    origin = int(units[0])
    hist = np.bincount(units - origin, weights=mu.probs)
    acc = _convolve(hist, float(spec.scale))
    start = origin - (acc.size - hist.size) // 2
    if spec.clamp:
        acc, start = _fold(acc, start, n), max(start, 0)
    return start + np.arange(acc.size), acc


def gap_to_direct(mu, spec, n=None):
    """Largest |FFT - direct sum| over the convolution's output grid."""
    grid, fast = convolved(mu, spec, n)
    slow = push_through_direct(mu, spec, n)
    return np.abs(fast - on_grid(slow, grid.astype(np.float64))).max()


def bimodal(rng, size, lo, hi):
    """Ascending integer sample in two clusters, at lo and near hi."""
    return np.sort(
        np.concatenate(
            (lo + rng.choice(hi // 4, size // 2), hi - rng.choice(hi // 4, size // 2))
        )
    )


LAPLACE = MechanismSpec(kind="laplace", scale=2.0)


class TestPushThroughMatchesDirectSum:
    """The FFT oracle's convolution (`fft_tvd`) against
    `push_through_direct`, point by point: the two oracles agree."""

    @pytest.mark.parametrize(
        "mu, spec, n",
        [
            (point_mass(5), LAPLACE, None),
            # [-36, 36] windows with exact zeros between them
            (dist([(0, 0.3), (1000, 0.7)]), LAPLACE, None),
            # kernel [0, 1, 0]
            (dist([(2, 0.25), (5, 0.75)]), MechanismSpec("laplace", 1e-9), None),
            (dist([(3, 0.5), (4, 0.2), (9, 0.3)]), MechanismSpec("laplace", 0.3), None),
            # kernel tails of about 1e-109, below the FFT's round-off
            (dist([(3, 0.5), (40, 0.5)]), MechanismSpec("laplace", 0.002), None),
            # mass folds onto 0 and onto n = 10
            (
                dist([(1, 0.4), (9, 0.6)]),
                MechanismSpec("laplace", 4.0, clamp=True),
                10,
            ),
            # atoms below 0: nearly all the mass folds onto the origin
            (
                dist([(-60, 0.5), (-50, 0.5)]),
                MechanismSpec("laplace", 5.0, clamp=True),
                10,
            ),
            (dist([(1, 0.4), (6.4, 0.6)]), MechanismSpec("wasserstein", 3.0, 1.0), None),
        ],
    )
    def test_agrees_to_1e12(self, mu, spec, n):
        assert gap_to_direct(mu, spec, n) <= 1e-12

    def test_support_is_the_direct_sums_between_far_atoms(self):
        """The direct sum is positive exactly where a kernel cell reaches
        from an atom; the FFT leaves only round-off between the windows."""
        mu = dist([(0, 0.3), (1000, 0.7)])
        slow = push_through_direct(mu, LAPLACE)
        assert np.array_equal(slow.values, np.r_[-24:25, 976:1025])
        grid, fast = convolved(mu, LAPLACE)
        between = (grid > 24) & (grid < 976)
        assert np.abs(fast[between]).max() <= 1e-12

    def test_vanishing_kernel_keeps_the_input_atoms(self):
        mu = dist([(2, 0.25), (5, 0.75)])
        grid, fast = convolved(mu, MechanismSpec(kind="laplace", scale=1e-9))
        assert np.abs(fast - on_grid(mu, grid.astype(np.float64))).max() <= 1e-12

    def test_random_bimodal_atoms(self):
        rng = rng_from_seed(17)
        for scale, clamp in [(50.0, False), (50.0, True), (7.5, True)]:
            mu = law_of(bimodal(rng, 60, 0, 400))
            spec = MechanismSpec(kind="laplace", scale=scale, clamp=clamp)
            assert gap_to_direct(mu, spec, 400) <= 1e-12


def direct_tvd(x0, x1, spec, n=None):
    """The oracle: TVD of the two samples' laws pushed by direct sums."""
    return tvd(*(push_through_direct(law_of(x), spec, n) for x in (x0, x1)))


class TestComparisonTvd:
    """`comparison_tvd` of two integer samples against the oracle TVD of
    their laws each pushed by `push_through_direct`."""

    @pytest.mark.parametrize(
        "spec, n",
        [
            (LAPLACE, None),
            (MechanismSpec("laplace", 0.3), None),
            (MechanismSpec("laplace", 1e-9), None),
            (MechanismSpec("laplace", 25.0, clamp=True), 20),
            (MechanismSpec("wasserstein", 6.0, 2.0, clamp=True), 12),
        ],
    )
    def test_matches_tvd_of_direct_pushes(self, spec, n):
        rng = rng_from_seed(23)
        pairs = [(random_sample(rng), random_sample(rng)) for _ in range(20)]
        # samples of one repeated value are point masses
        pairs += [
            (np.array(x0), np.array(x1))
            for x0, x1 in [([4, 4, 4], [4]), ([4], [6, 6]), ([0, 0], [1, 5, 5, 8])]
        ]
        for x0, x1 in pairs:
            assert comparison_tvd(x0, x1, spec, n=n) == pytest.approx(
                direct_tvd(x0, x1, spec, n), abs=1e-12
            )

    def test_giant_split_sized_laws(self):
        rng = rng_from_seed(29)
        x0, x1 = bimodal(rng, 40, 0, 300), bimodal(rng, 80, 100, 600)
        for clamp in (False, True):
            spec = MechanismSpec("laplace", 40.0, clamp=clamp)
            got = comparison_tvd(x0, x1, spec, n=600)
            assert got == pytest.approx(direct_tvd(x0, x1, spec, 600), abs=1e-12)

    def test_equal_and_far_apart_laws(self):
        x = np.array([0, 3])
        assert comparison_tvd(x, x, LAPLACE) <= 1e-12
        # repeating every count leaves the law, and so the distance, alone
        assert comparison_tvd(x, np.repeat(x, 3), LAPLACE) <= 1e-12
        far = np.array([1000])
        assert comparison_tvd(x, far, LAPLACE) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_what_push_through_rejects(self):
        x = np.array([1])
        with pytest.raises(ValueError, match="push-through"):
            comparison_tvd(x, x, MechanismSpec("randomized_response", flip_prob=0.4))
        with pytest.raises(ValueError, match="node count"):
            comparison_tvd(x, x, MechanismSpec("laplace", 2.0, clamp=True))


def oracle_tvds(x0, x1, spec, n=None):
    """The TVD by direct sums and by one FFT convolution. At the smallest
    scales the FFT kernel's division overflows to a harmless inf."""
    with np.errstate(over="ignore"):
        return direct_tvd(x0, x1, spec, n), fft_tvd(x0, x1, spec, n)


class TestClosedFormMatchesBothOracles:
    """`comparison_tvd` sums the pushed difference in closed form between
    breakpoints; both oracles push the same truncated, normalised kernel."""

    def test_random_clamped_and_unclamped_cases(self):
        rng = rng_from_seed(31)
        for case in range(40):
            n = int(rng.integers(1, 200))
            x0, x1 = (
                np.sort(rng.integers(0, n + 1, int(rng.integers(1, 25))))
                for _ in range(2)
            )
            scale = float(10.0 ** rng.uniform(-0.5, 2.0))
            spec = MechanismSpec("laplace", scale, clamp=bool(case % 2))
            got = comparison_tvd(x0, x1, spec, n=n)
            for want in oracle_tvds(x0, x1, spec, n):
                assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("clamp", [False, True])
    @pytest.mark.parametrize("scale", [1e-9, 0.002, 5e-324])
    def test_vanishing_scales_keep_the_laws(self, scale, clamp):
        """At 5e-324 one over the scale overflows; the closed form warns of
        nothing and returns the two laws' own TVD."""
        x0, x1 = np.array([0, 3, 3, 7]), np.array([3, 5, 5])
        spec = MechanismSpec("laplace", scale, clamp=clamp)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = comparison_tvd(x0, x1, spec, n=7)
        assert got == pytest.approx(tvd(law_of(x0), law_of(x1)), abs=1e-12)
        for want in oracle_tvds(x0, x1, spec, 7):
            assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("clamp", [False, True])
    def test_scale_of_order_n_against_the_fft(self, clamp):
        """At scale 5e5 the direct sum walks 1.2e7 cells per atom; the FFT
        oracle, at about 190 MB, still judges."""
        x0, x1 = np.array([3, 3, 40]), np.array([10, 600, 600, 600])
        spec = MechanismSpec("laplace", 5e5, clamp=clamp)
        assert comparison_tvd(x0, x1, spec, n=600) == pytest.approx(
            fft_tvd(x0, x1, spec, 600), abs=1e-12
        )

    def test_atoms_below_0_and_above_n(self):
        rng = rng_from_seed(37)
        for scale in (0.3, 4.0, 30.0):
            for _ in range(5):
                x0, x1 = (np.sort(rng.integers(-40, 91, 12)) for _ in range(2))
                spec = MechanismSpec("laplace", scale, clamp=True)
                got = comparison_tvd(x0, x1, spec, n=50)
                for want in oracle_tvds(x0, x1, spec, 50):
                    assert got == pytest.approx(want, abs=1e-12)

    def test_laws_past_the_reach_of_0_to_n_fold_onto_one_end(self):
        """Both pushed laws fold whole onto 0, where the oracles keep no
        grid point at all."""
        x0, x1 = np.array([-500, -400]), np.array([-450])
        spec = MechanismSpec("laplace", 2.0, clamp=True)
        assert comparison_tvd(x0, x1, spec, n=10) <= 1e-12

    @pytest.mark.parametrize(
        "spec, n",
        [
            (LAPLACE, None),
            (MechanismSpec("laplace", 5e-324), None),
            (MechanismSpec("laplace", 40.0, clamp=True), 20),
        ],
    )
    def test_equal_laws(self, spec, n):
        x = np.array([2, 2, 9, 15])
        assert comparison_tvd(x, np.repeat(x, 2), spec, n=n) == 0.0
        for want in oracle_tvds(x, np.repeat(x, 2), spec, n):
            assert want <= 1e-12


def test_fft_length_is_the_next_5_smooth_number():
    sizes = list(range(1, 3000)) + [120_001, 130_001, 1_200_001, 12_001_001]
    for size in sizes:
        assert _fft_length(size) == next_fast_len(size, real=True)
