"""Tests for mechanisms, distances, and the release-scale calibration."""

import logging
import math

import numpy as np
import pytest
from scipy import stats

from cascadelab.distributions import EmpiricalDistribution
from cascadelab.graph import Graph, generate_er
from cascadelab.percolation import (
    DegenerateConditioningError,
    conditional_count_distributions,
    conditional_giant_distributions,
    percolate,
    sample_seeds,
)
from cascadelab.privacy import (
    MechanismSpec,
    hypothesis_test_error,
    laplace_perturb,
    push_through_mechanism,
    randomized_response_estimate,
    release,
    sample_wasserstein_infinity,
    tvd,
    wasserstein_mechanism_scale,
)
from cascadelab.seeding import child_seed

from oracles import (
    bfs_activated,
    wasserstein_infinity,
    winf_bruteforce,
    winf_exact,
)


def dist(pairs):
    values, probs = zip(*sorted(pairs))
    return EmpiricalDistribution(values, probs)


def random_dist(rng, max_atoms=6):
    k = int(rng.integers(1, max_atoms + 1))
    values = np.sort(rng.choice(20, size=k, replace=False)).astype(float)
    probs = rng.random(k) + 0.05
    return EmpiricalDistribution(values, probs / probs.sum())


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


class TestTvd:
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
        assert wasserstein_infinity(
            EmpiricalDistribution.point_mass(3.0),
            EmpiricalDistribution.point_mass(11.0),
        ) == pytest.approx(8.0)

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
            atoms = [EmpiricalDistribution.from_samples(x) for x in (x0, x1)]
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
    def test_vanishing_scale(self):
        out = laplace_perturb(7.0, 1e-9, rng_seed=1)
        assert abs(out - 7.0) < 1e-6

    def test_clamp_lower(self):
        for i in range(50):
            assert laplace_perturb(0.0, 5.0, rng_seed=i, clamp=True) >= 0.0

    def test_clamp_upper(self):
        for i in range(50):
            out = laplace_perturb(10.0, 5.0, rng_seed=i, clamp=True, value_max=10.0)
            assert 0.0 <= out <= 10.0

    def test_deterministic(self):
        assert laplace_perturb(3.0, 2.0, rng_seed=4) == laplace_perturb(
            3.0, 2.0, rng_seed=4
        )

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            laplace_perturb(0.0, 0.0, rng_seed=1)

    def test_noise_moments_and_shape(self):
        scale, n = 2.0, 100_000
        noise = np.array(
            [laplace_perturb(0.0, scale, rng_seed=child_seed(10, i)) for i in range(n)]
        )
        # mean 0 with sd scale*sqrt(2); |noise| has mean scale, sd scale
        assert abs(noise.mean()) <= 3 * scale * math.sqrt(2 / n)
        assert abs(np.abs(noise).mean() - scale) <= 3 * scale / math.sqrt(n)
        ks = stats.kstest(noise, stats.laplace(scale=scale).cdf)
        assert ks.pvalue > 0.01


class TestRandomizedResponse:
    def test_no_flip_is_exact(self):
        bits = np.array([1, 0, 1, 1, 0], dtype=bool)
        count, estimate = randomized_response_estimate(bits, 0.0, rng_seed=1)
        assert count == 3
        assert estimate == 3.0

    def test_empty_input(self):
        count, estimate = randomized_response_estimate([], 0.5, rng_seed=1)
        assert count == 0
        assert estimate == 0.0

    def test_flip_prob_one_rejected(self):
        with pytest.raises(ValueError):
            randomized_response_estimate([True], 1.0, rng_seed=1)

    def test_debias_identity(self):
        bits = np.ones(40, dtype=bool)
        f = 0.3
        count, estimate = randomized_response_estimate(bits, f, rng_seed=2)
        assert 0 <= count <= 40
        assert estimate == pytest.approx((count - 40 * f / 2) / (1 - f))

    def test_unbiased_on_all_ones(self):
        n, f, runs = 50, 0.5, 10_000
        bits = np.ones(n, dtype=bool)
        estimates = [
            randomized_response_estimate(bits, f, rng_seed=child_seed(11, i))[1]
            for i in range(runs)
        ]
        # per-run variance: n*(f/2)*(1-f/2)/(1-f)^2
        se = math.sqrt(n * (f / 2) * (1 - f / 2) / (1 - f) ** 2 / runs)
        assert abs(np.mean(estimates) - n) <= 3 * se


class TestRelease:
    bits = np.array([1, 1, 0, 1, 0, 0, 0, 1, 1, 0], dtype=bool)

    @pytest.mark.parametrize("clamp", [False, True])
    def test_laplace_kinds_use_laplace_perturb(self, clamp):
        for spec in (
            MechanismSpec(kind="laplace", scale=20.0, clamp=clamp),
            MechanismSpec(kind="wasserstein", scale=20.0, epsilon=0.5, clamp=clamp),
        ):
            for i in range(20):
                seed = child_seed(40, i)
                expect = laplace_perturb(5, 20.0, seed, clamp=clamp, value_max=10)
                assert release(spec, self.bits, seed) == expect

    def test_randomized_response_uses_debiased_estimate(self):
        spec = MechanismSpec(kind="randomized_response", flip_prob=0.6)
        for i in range(20):
            seed = child_seed(41, i)
            expect = randomized_response_estimate(self.bits, 0.6, seed)[1]
            assert release(spec, self.bits, seed) == expect

    def test_clamp_keeps_randomized_response_in_range(self):
        bits = np.zeros(10, dtype=bool)
        spec = MechanismSpec(kind="randomized_response", flip_prob=0.9, clamp=True)
        free = MechanismSpec(kind="randomized_response", flip_prob=0.9)
        outs = [release(spec, bits, child_seed(42, i)) for i in range(200)]
        raw = [release(free, bits, child_seed(42, i)) for i in range(200)]
        assert all(0.0 <= x <= 10.0 for x in outs)
        assert min(raw) < 0.0 or max(raw) > 10.0
        assert outs == [min(max(x, 0.0), 10.0) for x in raw]


class TestWassersteinMechanismScale:
    def test_single_edge_fully_degenerate(self):
        g = Graph(2, [[0, 1]])
        with pytest.raises(DegenerateConditioningError):
            wasserstein_mechanism_scale(g, 1.0, 1, [0], trials=50, rng_seed=1)

    def test_disjoint_edges_zero_scale(self):
        g = Graph(4, [[0, 1], [2, 3]])
        report = wasserstein_mechanism_scale(g, 1.0, 1, [0], trials=100, rng_seed=2)
        assert report.w_scale == 0.0
        assert report.per_node == {0: 0.0}
        assert report.degenerate == {}

    def test_partial_degeneracy_warns_and_continues(self, caplog):
        # seeds of size 2 on K2 + isolated node: node 0 always activates,
        # node 2 splits into X=2 (seeds {0,1}) and X=3 (seeds touching 2)
        g = Graph(3, [[0, 1]])
        with caplog.at_level(logging.WARNING):
            report = wasserstein_mechanism_scale(
                g, 1.0, 2, [0, 2], trials=200, rng_seed=3
            )
        assert 0 in report.degenerate
        assert "skipping node 0" in caplog.text
        assert report.per_node[2] == pytest.approx(1.0)
        assert report.w_scale == pytest.approx(1.0)

    def test_protected_must_be_nonempty(self):
        g = Graph(2, [[0, 1]])
        with pytest.raises(ValueError):
            wasserstein_mechanism_scale(g, 0.5, 1, [], trials=10, rng_seed=1)

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
            expect[v] = wasserstein_infinity(
                *(EmpiricalDistribution.from_samples(b) for b in branches)
            )
        report = wasserstein_mechanism_scale(
            g, 0.5, 1, [0, 1, 2], trials=150, rng_seed=4
        )
        assert report.per_node == expect
        assert report.w_scale == max(expect.values())

    def test_per_node_is_conditional_count_distance(self):
        """Each node's distance is W-infinity between the two distributions
        `conditional_count_distributions` draws at the same seed."""
        n, q, s, trials, seed = 60, 0.5, 1, 200, 17
        g = generate_er(n, 0.06, rng_seed=16)
        report = wasserstein_mechanism_scale(g, q, s, range(n), trials, seed)
        assert report.degenerate == {} and len(report.per_node) == n
        for v in range(0, n, 7):
            mu0, mu1 = conditional_count_distributions(g, q, s, v, trials, seed)
            assert report.per_node[v] == wasserstein_infinity(mu0, mu1)

    def test_protected_outside_graph_rejected(self):
        g = Graph(3, [[0, 1]])
        with pytest.raises(ValueError, match="outside"):
            wasserstein_mechanism_scale(g, 0.5, 1, [0, 3], trials=10, rng_seed=1)

    def test_gap_forces_scale(self):
        """When the two count laws put different mass at or below the
        inactive-branch maximum, some mass must cross the support gap, so
        the per-node distance is at least that gap."""
        n = 400
        g = generate_er(n, 5 / (n - 1), rng_seed=child_seed(13, 0))
        q, s, trials, seed = 0.3, 1, 600, 14
        split = conditional_giant_distributions(g, q, s, trials=trials, rng_seed=seed)
        gap = split.active_min - split.inactive_max
        assert gap > 0
        checked = 0
        for v in range(6):
            # same master seed: identical percolation and seed draws
            mu0, mu1 = conditional_count_distributions(
                g, q, s, v, trials=trials, rng_seed=seed
            )
            lo_mass_gap = abs(
                mu0.mass_between(0, split.inactive_max)
                - mu1.mass_between(0, split.inactive_max)
            )
            if lo_mass_gap > 1e-12:
                assert wasserstein_infinity(mu0, mu1) >= gap
                checked += 1
        assert checked > 0


class TestHypothesisTestError:
    def test_identical_means_blind(self):
        z = dist([(0, 0.5), (3, 0.5)])
        report = hypothesis_test_error(z, z)
        assert report.tvd == 0.0
        assert report.test_error == 1.0

    def test_disjoint_means_certain(self):
        report = hypothesis_test_error(dist([(0, 1.0)]), dist([(9, 1.0)]))
        assert report.test_error == 0.0

    def test_complement_identity(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            a, b = random_dist(rng), random_dist(rng)
            report = hypothesis_test_error(a, b)
            assert report.test_error + report.tvd == 1.0

    def test_threshold_recorded(self):
        z = dist([(0, 1.0)])
        assert hypothesis_test_error(z, z, threshold=2.5).threshold == 2.5


class TestPushThroughMechanism:
    def test_vanishing_scale_preserves_input(self):
        mu = dist([(2, 0.25), (5, 0.75)])
        spec = MechanismSpec(kind="laplace", scale=1e-9)
        out = push_through_mechanism(mu, spec)
        assert tvd(mu, out) < 1e-3

    def test_point_mass_median(self):
        spec = MechanismSpec(kind="laplace", scale=2.0)
        out = push_through_mechanism(EmpiricalDistribution.point_mass(5.0), spec)
        assert out.quantile(0.5) == pytest.approx(5.0)

    def test_point_mass_central_mass(self):
        # grid cells are value-centered, so a unit grid smears ~0.08 of
        # boundary mass; resolution 0.01 brings the binning error under 1e-3
        spec = MechanismSpec(kind="laplace", scale=2.0)
        out = push_through_mechanism(
            EmpiricalDistribution.point_mass(5.0), spec, resolution=0.01
        )
        assert out.mass_between(3.0, 7.0) == pytest.approx(1 - math.e**-1, abs=1e-3)

    def test_wasserstein_kind_is_laplace_at_given_scale(self):
        mu = dist([(1, 0.4), (6, 0.6)])
        a = push_through_mechanism(mu, MechanismSpec(kind="laplace", scale=3.0))
        b = push_through_mechanism(
            mu, MechanismSpec(kind="wasserstein", scale=3.0, epsilon=1.0)
        )
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.probs, b.probs)

    def test_randomized_response_rejected(self):
        spec = MechanismSpec(kind="randomized_response", flip_prob=0.4)
        with pytest.raises(ValueError, match="push-through"):
            push_through_mechanism(EmpiricalDistribution.point_mass(1.0), spec)

    def test_clamp_folds_mass_onto_endpoints(self):
        spec = MechanismSpec(kind="laplace", scale=2.0, clamp=True)
        out = push_through_mechanism(
            EmpiricalDistribution.point_mass(0.0), spec, clamp_range=(0.0, 10.0)
        )
        assert out.support_min == 0.0
        assert out.support_max <= 10.0
        # half the noise mass is negative and folds onto the origin
        origin = out.probs[out.values == 0.0]
        assert origin.size == 1 and origin[0] >= 0.5
        assert out.probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_resolution_validation(self):
        spec = MechanismSpec(kind="laplace", scale=1.0)
        with pytest.raises(ValueError):
            push_through_mechanism(
                EmpiricalDistribution.point_mass(0.0), spec, resolution=0.0
            )
