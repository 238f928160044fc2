"""Tests for closed-form component and membership bounds."""

import math

import numpy as np
import pytest
from scipy import optimize

from cascadelab.graph import Graph, chung_lu_weights, generate_chung_lu, generate_er
from cascadelab.seeding import child_seed

from oracles import label_world, percolate
from theory import (
    chung_lu_giant_condition,
    chung_lu_miss_bound,
    chung_lu_rank_envelope,
    er_max_degree_estimate,
    er_miss_bound,
    membership_miss_approx,
    percolation_threshold,
    solve_giant_fraction,
)


class TestSolveGiantFraction:
    def test_supercritical_reference_point(self):
        assert solve_giant_fraction(1.28).y == pytest.approx(0.40, abs=0.005)

    def test_critical_point_returns_zero(self):
        assert solve_giant_fraction(1.0).y == 0.0
        assert solve_giant_fraction(0.3).y == 0.0

    def test_against_brentq_oracle(self):
        c = 1.5
        oracle = optimize.brentq(
            lambda y: math.exp(-c * y) - 1 + y, 1e-9, 1 - 1e-12, xtol=1e-13
        )
        assert oracle == pytest.approx(0.5828, abs=5e-5)
        assert solve_giant_fraction(c).y == pytest.approx(oracle, abs=1e-10)

    def test_fixed_point_residual_small(self):
        rng = np.random.default_rng(1)
        for c in 1 + 4 * rng.random(100):
            y = solve_giant_fraction(float(c)).y
            assert abs(math.exp(-c * y) - (1 - y)) < 1e-10
            assert 0 < y < 1

    def test_rejects_nonpositive_c(self):
        with pytest.raises(ValueError):
            solve_giant_fraction(0.0)
        with pytest.raises(ValueError):
            solve_giant_fraction(-2.0)

    def test_monotone_in_c(self):
        ys = [solve_giant_fraction(c).y for c in (1.1, 1.5, 2.0, 3.0, 5.0)]
        assert all(a < b for a, b in zip(ys, ys[1:]))


class TestErMaxDegreeEstimate:
    def test_domain_edge(self):
        assert er_max_degree_estimate(16) > 0
        with pytest.raises(ValueError):
            er_max_degree_estimate(15)

    def test_value_at_ten_thousand(self):
        expect = math.log(1e4) / math.log(math.log(1e4))
        assert expect == pytest.approx(4.15, abs=0.01)
        assert er_max_degree_estimate(10_000) == pytest.approx(expect, rel=1e-12)

    def test_monotone_increasing(self):
        vals = [er_max_degree_estimate(n) for n in (16, 30, 100, 1000, 10**6)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestMembershipMissApprox:
    def test_zero_degree(self):
        assert membership_miss_approx(0, 0.5) == 1.0

    def test_zero_fraction(self):
        for k in range(5):
            assert membership_miss_approx(k, 0.0) == 1.0

    def test_formula(self):
        y = 0.5828
        assert membership_miss_approx(3, y) == pytest.approx(math.exp(-3 * y))
        assert membership_miss_approx(3, y) == pytest.approx(0.174, abs=5e-4)

    def test_validation(self):
        with pytest.raises(ValueError):
            membership_miss_approx(-1, 0.5)
        with pytest.raises(ValueError):
            membership_miss_approx(2, 1.5)


class TestErMissBound:
    def test_d_zero_clamps_to_one(self):
        assert er_miss_bound(0, 0.3, 0.5) == 1.0

    def test_reference_value(self):
        got = er_miss_bound(40, 0.3, 0.5828)
        assert got == pytest.approx(math.exp(-1.5) + math.exp(-0.3 * 40 * 0.5828 / 2))
        assert got == pytest.approx(0.2534, abs=5e-4)

    def test_decreasing_in_d(self):
        # weakly decreasing overall (the clamp flattens small d), strictly
        # once the raw sum drops below 1
        vals = [er_miss_bound(d, 0.3, 0.5) for d in (5, 10, 20, 40, 80)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        below = [v for v in vals if v < 1.0]
        assert all(a > b for a, b in zip(below, below[1:]))
        assert len(below) >= 2

    def test_dominates_second_term(self):
        for d in (1, 10, 50):
            assert er_miss_bound(d, 0.4, 0.6) >= math.exp(-d * 0.4 * 0.6 / 2)

    def test_range(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            d = int(rng.integers(0, 200))
            q = float(rng.uniform(0.01, 1))
            y = float(rng.uniform(0, 1))
            assert 0.0 <= er_miss_bound(d, q, y) <= 1.0

    def test_array_matches_scalar(self):
        degrees = np.array([0, 3, 17, 40, 120])
        got = er_miss_bound(degrees, 0.3, 0.6)
        assert isinstance(got, np.ndarray)
        assert isinstance(er_miss_bound(17, 0.3, 0.6), float)
        assert got.tolist() == [er_miss_bound(int(d), 0.3, 0.6) for d in degrees]
        with pytest.raises(ValueError):
            er_miss_bound(np.array([3, -1]), 0.3, 0.6)


class TestChungLuMissBound:
    def test_top_rank_with_measured_giant_fraction(self):
        n, d, b, q = 2500, 5.0, 1.1, 0.3
        w = chung_lu_weights(n, d, b)
        g = generate_chung_lu(w, rng_seed=child_seed(50, 0))
        fractions = [
            label_world(
                n, percolate(g, q, rng_seed=child_seed(51, t))
            ).giant_size
            / n
            for t in range(20)
        ]
        alpha = float(np.mean(fractions))
        assert alpha > 0.2
        assert chung_lu_miss_bound(1, n, d, q, b, alpha) <= 0.01

    def test_monotone_in_rank(self):
        vals = [chung_lu_miss_bound(i, 1000, 5, 0.3, 1.1, 0.5) for i in (1, 10, 100, 1000)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_monotone_in_alpha(self):
        lo = chung_lu_miss_bound(10, 1000, 5, 0.3, 1.5, 1.0)
        hi = chung_lu_miss_bound(10, 1000, 5, 0.3, 1.5, 0.3)
        assert lo <= hi

    def test_partial_sum_is_exact(self):
        # closed check on a small n where the sum is trivially recomputable
        n, d, q, b, alpha, i = 4, 2.0, 0.5, 2.0, 0.5, 2
        beta = 1 / b
        s = sum(j ** -beta for j in range(1, n + 1))
        expect = min(1.0, math.exp(-d * q * alpha * n / (i**beta * s)))
        assert chung_lu_miss_bound(i, n, d, q, b, alpha) == pytest.approx(expect, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            chung_lu_miss_bound(0, 10, 5, 0.3, 1.1, 0.5)
        with pytest.raises(ValueError):
            chung_lu_miss_bound(11, 10, 5, 0.3, 1.1, 0.5)
        with pytest.raises(ValueError):
            chung_lu_miss_bound(1, 10, 5, 0.3, 1.1, 0.0)
        with pytest.raises(ValueError):
            chung_lu_miss_bound(np.arange(0, 10), 10, 5, 0.3, 1.1, 0.5)

    def test_array_matches_scalar(self):
        ranks = np.arange(1, 51)
        got = chung_lu_miss_bound(ranks, 50, 5, 0.3, 1.5, 0.5)
        assert isinstance(got, np.ndarray)
        assert isinstance(chung_lu_miss_bound(7, 50, 5, 0.3, 1.5, 0.5), float)
        expect = [chung_lu_miss_bound(int(i), 50, 5, 0.3, 1.5, 0.5) for i in ranks]
        assert got.tolist() == pytest.approx(expect, rel=1e-14)


class TestChungLuRankEnvelope:
    def test_below_one(self):
        env = chung_lu_rank_envelope(0.5)
        assert env.tag == "sub-polynomial ranks"
        assert env.envelope(100) == pytest.approx(10.0)

    def test_at_one(self):
        env = chung_lu_rank_envelope(1.0)
        assert env.tag == "near-linear ranks"
        assert env.envelope(math.e**2) == pytest.approx(math.e**2 / 2)

    def test_above_one(self):
        env = chung_lu_rank_envelope(1.5)
        assert env.tag == "linear ranks"
        assert env.envelope(100) == pytest.approx(100.0)


class TestChungLuGiantCondition:
    def test_small_b_always_true(self):
        assert chung_lu_giant_condition(1.5, 0.01, 0.01)
        assert chung_lu_giant_condition(2.0, 0.01, 0.01)

    def test_large_b_needs_degree(self):
        assert not chung_lu_giant_condition(3.0, 5.0, 0.3)
        assert chung_lu_giant_condition(3.0, 10.0, 0.3)


class TestPercolationThreshold:
    def test_regular_graph(self):
        # 5-cycle is 2-regular
        g = Graph(5, [[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]])
        assert percolation_threshold(g) == pytest.approx(0.5)

    def test_star(self):
        g = Graph(5, [[0, 1], [0, 2], [0, 3], [0, 4]])
        assert percolation_threshold(g) == pytest.approx(0.4)

    def test_edgeless_rejected(self):
        with pytest.raises(ValueError):
            percolation_threshold(Graph(3, []))

    def test_supercritical_er_develops_giant(self):
        g = generate_er(800, 6 / 799, rng_seed=52)
        thr = percolation_threshold(g)
        q = min(1.0, 3 * thr)
        sizes = [
            label_world(
                800, percolate(g, q, rng_seed=child_seed(53, t))
            ).giant_size
            for t in range(10)
        ]
        assert np.mean(sizes) > 0.2 * 800
