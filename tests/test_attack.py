"""Tests for the count-threshold attack and certified-vulnerable sets."""

import math
import tracemalloc

import numpy as np
import pytest

from cascadelab import attack, percolation, seeding
from cascadelab.attack import evaluate_attack
from cascadelab.graph import (
    Graph,
    chung_lu_weights,
    generate_chung_lu,
    generate_er,
)
from cascadelab.percolation import record_worlds
from cascadelab.privacy import MechanismSpec
from cascadelab.seeding import child_seed, rng_from_seed

from oracles import (
    all_graph_edge_lists,
    bfs_activated,
    component_sets,
    giant_component,
    label_world,
    percolate,
    sample_seeds,
)
from theory import (
    er_miss_bound,
    solve_giant_fraction,
    vulnerable_set_cl,
    vulnerable_set_er,
)


class TestWindowedClassification:
    def test_exhaustive_window_invariant(self):
        """A released count is exact under randomized response with
        flip_prob 0. At q=1 every world is the graph itself, so the count is
        at most s*|C2| when the giant is unseeded and at least |C1| when it
        is seeded; any cut strictly between the two scores every trial.
        Checked over every 4-node graph with one and with two seeds."""
        exact = MechanismSpec(kind="randomized_response", flip_prob=0.0)
        for edges in all_graph_edge_lists(4):
            g = Graph(4, edges) if len(edges) else Graph(4, [])
            lab = label_world(4, g.edges)
            for s in (1, 2):
                lo, hi = s * lab.second_size, lab.giant_size
                if lo >= hi:
                    continue
                for cut in (lo + 1e-6, (lo + hi) / 2, hi - 1e-6):
                    result = evaluate_attack(
                        g, 1.0, s, exact, floors=[0.5], trials=20,
                        rng_seed=40, decision_threshold=cut,
                    )
                    assert result.giant_status_accuracy == 1.0


class TestEvaluateAttack:
    def test_deterministic_world_is_fully_recovered(self):
        g = generate_er(60, 0.2, rng_seed=20)
        assert label_world(60, percolate(g, 1.0, rng_seed=0)).giant_size == 60
        spec = MechanismSpec(kind="laplace", scale=1e-9)
        result = evaluate_attack(
            g, 1.0, 1, spec, floors=[0.99], trials=40, rng_seed=21,
            decision_threshold=30.0,
        )
        assert result.giant_status_accuracy == 1.0
        assert np.all(result.per_node_accuracy == 1.0)
        assert result.floors[0].precision == 1.0
        assert result.floors[0].coverage == 1.0
        assert math.isnan(result.inactive_max)

    def test_overwhelming_noise_degrades_to_guessing(self):
        n = 600
        g = generate_er(n, 5 / (n - 1), rng_seed=22)
        kwargs = dict(floors=[0.5], trials=300, rng_seed=23, decision_threshold=200.0)
        clean = evaluate_attack(
            g, 0.3, 1, MechanismSpec(kind="laplace", scale=1.0), **kwargs
        )
        noisy = evaluate_attack(
            g, 0.3, 1, MechanismSpec(kind="laplace", scale=10.0 * n), **kwargs
        )
        assert clean.giant_status_accuracy >= 0.9
        assert noisy.giant_status_accuracy <= 0.65
        assert clean.giant_status_accuracy - noisy.giant_status_accuracy >= 0.25

    def test_sparse_substrate_with_sublinear_noise(self):
        # needs a node far above the mean degree 5: only such nodes reach
        # membership frequency 0.95 at q = 0.3 (here one of degree 12 does).
        # About 13.5 nodes of degree >= 12 are expected at n = 2500, so all
        # but about one draw in a million holds one.
        n = 2500
        g = generate_er(n, 5 / (n - 1), rng_seed=child_seed(500, 10))
        assert int(g.degrees.max()) >= 12
        spec = MechanismSpec(kind="laplace", scale=math.sqrt(n))
        result = evaluate_attack(
            g, 0.3, 1, spec, floors=[0.95], trials=1000, rng_seed=600
        )
        stats = result.floors[0]
        assert stats.predicted_nodes > 0
        assert stats.precision >= 0.90
        assert result.giant_status_accuracy >= 0.90

    def test_calibrated_threshold_sits_in_gap(self):
        g = generate_er(500, 5 / 499, rng_seed=24)
        spec = MechanismSpec(kind="laplace", scale=1.0)
        result = evaluate_attack(g, 0.3, 1, spec, floors=[0.5], trials=300, rng_seed=25)
        assert result.inactive_max < result.decision_threshold < result.active_min

    def test_mechanism_error_quantiles(self):
        g = generate_er(80, 0.1, rng_seed=26)
        lap = evaluate_attack(
            g, 0.5, 1, MechanismSpec(kind="laplace", scale=2.0),
            floors=[0.5], trials=60, rng_seed=27,
        )
        assert lap.max_mechanism_error == pytest.approx(2.0 * math.log(1000))
        rr0 = evaluate_attack(
            g, 0.5, 1, MechanismSpec(kind="randomized_response", flip_prob=0.0),
            floors=[0.5], trials=60, rng_seed=27,
        )
        assert rr0.max_mechanism_error == 0.0

    def test_randomized_response_release_path(self):
        g = generate_er(120, 0.06, rng_seed=28)
        spec = MechanismSpec(kind="randomized_response", flip_prob=0.3)
        result = evaluate_attack(g, 0.5, 1, spec, floors=[0.8], trials=100, rng_seed=29)
        assert 0.0 <= result.giant_status_accuracy <= 1.0
        assert result.max_mechanism_error > 0

    def test_unreachable_floor_gives_nan_precision(self):
        g = Graph(4, [])
        spec = MechanismSpec(kind="laplace", scale=1.0)
        result = evaluate_attack(
            g, 0.5, 1, spec, floors=[0.5, 2.0], trials=50, rng_seed=30,
            decision_threshold=1.0,
        )
        by_floor = {f.floor: f for f in result.floors}
        assert by_floor[2.0].predicted_nodes == 0
        assert math.isnan(by_floor[2.0].precision)
        assert by_floor[0.5].predicted_nodes >= 1

    def test_floor_selection_is_infer_nodes_rule(self):
        """Each floor scores exactly the nodes whose calibrated membership
        frequency reaches it."""
        g = generate_er(200, 0.02, rng_seed=31)
        spec = MechanismSpec(kind="laplace", scale=3.0)
        result = evaluate_attack(
            g, 0.4, 1, spec, floors=[0.9, 0.6, 0.3], trials=40, rng_seed=33
        )
        for fs in result.floors:
            selected = result.membership.at_least(fs.floor)
            assert fs.predicted_nodes == int(selected.sum())

    def test_cut_between_counts_is_exact(self):
        """With the exact count released, a cut between the 2-node and the
        4-node component's counts judges every trial right, and a floor of
        0.5 picks the four nodes that always follow the giant."""
        g = Graph(6, [[0, 1], [1, 2], [2, 3], [4, 5]])
        exact = MechanismSpec(kind="randomized_response", flip_prob=0.0)
        result = evaluate_attack(
            g, 1.0, 1, exact, floors=[0.5], trials=60, rng_seed=5,
            decision_threshold=3.5,
        )
        assert result.giant_status_accuracy == 1.0
        assert result.floors[0].predicted_nodes == 4
        assert result.floors[0].precision == 1.0

    def test_cut_is_strict(self):
        """A released count equal to the cut judges the giant inactive: at a
        cut of 4 every trial is judged inactive, so only the trials seeded
        in the 2-node component score."""
        g = Graph(6, [[0, 1], [1, 2], [2, 3], [4, 5]])
        exact = MechanismSpec(kind="randomized_response", flip_prob=0.0)
        result = evaluate_attack(
            g, 1.0, 1, exact, floors=[0.5], trials=60, rng_seed=5,
            decision_threshold=4.0,
        )
        eval_seed = child_seed(5, 2)
        seeds = [
            int(sample_seeds(6, 1, child_seed(child_seed(eval_seed, t), 1))[0])
            for t in range(60)
        ]
        small = sum(v >= 4 for v in seeds)
        assert 0 < small < 60
        assert result.giant_status_accuracy == small / 60

    def test_validation(self):
        g = Graph(3, [[0, 1]])
        spec = MechanismSpec(kind="laplace", scale=1.0)
        with pytest.raises(ValueError):
            evaluate_attack(g, 0.5, 1, spec, floors=[], trials=10, rng_seed=1)
        with pytest.raises(ValueError):
            evaluate_attack(
                g, 0.5, 1, spec, floors=[0.5], trials=10, rng_seed=1,
                decision_threshold=5.0,
            )

    @pytest.mark.parametrize("threshold", [0.0, 200.0, -1.0, math.nan])
    def test_refuses_a_threshold_out_of_range_before_calibrating(
        self, monkeypatch, threshold
    ):
        """A pinned cut outside (0, node_count) is refused before the
        calibration pass draws its worlds."""

        def no_calibration(*args):
            raise AssertionError("calibration ran")

        monkeypatch.setattr(attack, "record_worlds", no_calibration)
        g = generate_er(200, 0.02, rng_seed=1)
        spec = MechanismSpec(kind="laplace", scale=1.0)
        with pytest.raises(ValueError, match="decision_threshold must lie"):
            evaluate_attack(
                g, 0.3, 1, spec, floors=[0.5], trials=10, rng_seed=3,
                decision_threshold=threshold,
            )

    def test_refuses_a_grid_of_q_before_drawing(self, monkeypatch):
        """A grid of q is refused by the calibration's `record_worlds`,
        before any world is drawn (it used to fail on a broadcast)."""
        derived = []
        monkeypatch.setattr(seeding, "pcg64_states", derived.append)
        g = generate_er(200, 0.02, rng_seed=1)
        spec = MechanismSpec(kind="laplace", scale=1.0)
        with pytest.raises(ValueError, match="q must be one number"):
            evaluate_attack(
                g, [0.3, 0.9], 1, spec, floors=[0.5], trials=10, rng_seed=3,
                decision_threshold=50,
            )
        assert derived == []

    @pytest.mark.parametrize("s", [None, 0, -1])
    def test_refuses_a_seedless_attack_before_drawing(self, monkeypatch, s):
        """Without a seed there is no activation to score, so s=None or
        s < 1 is refused before any world is drawn (with a pinned cut,
        s=None used to draw every calibration world, then fail with a
        TypeError on the evaluation's missing cascade)."""
        derived = []
        monkeypatch.setattr(seeding, "pcg64_states", derived.append)
        g = generate_er(50, 0.05, rng_seed=1)
        spec = MechanismSpec(kind="laplace", scale=1.0)
        for threshold in [None, 25.0]:
            with pytest.raises(ValueError, match="s must be a seed count"):
                evaluate_attack(
                    g, 0.5, s, spec, floors=[0.5], trials=10, rng_seed=3,
                    decision_threshold=threshold,
                )
        assert derived == []

    def test_refuses_an_error_quantile_that_is_not_finite_before_drawing(
        self, monkeypatch
    ):
        """A Laplace scale of 1e308 overflows its error quantile: it is
        refused before any world is drawn (it used to return
        max_mechanism_error=inf after both passes)."""
        calls = []
        for module in (attack, percolation):
            monkeypatch.setattr(module, "world_blocks", lambda *a, **k: calls.append(a))
        g = generate_er(300, 0.01, rng_seed=1)
        spec = MechanismSpec(kind="laplace", scale=1e308)
        for threshold in [None, 150.0]:
            with pytest.raises(ValueError, match="not finite"):
                evaluate_attack(
                    g, 0.5, 1, spec, floors=[0.5], trials=20, rng_seed=3,
                    decision_threshold=threshold,
                )
        assert calls == []

    def test_evaluation_holds_no_calibration_bits(self, monkeypatch):
        """The calibration record keeps one bit per node and trial, more
        here than a whole evaluation block. Once its membership and split
        are read it is freed, so what is held while each evaluation block
        is scored stays below those bits."""
        n, trials = 16384, 800
        g = generate_er(n, 1 / (n - 1), rng_seed=5)
        held, blocks = [], attack.world_blocks

        def measured(*args):
            for block in blocks(*args):
                held.append(tracemalloc.get_traced_memory()[0])
                yield block

        monkeypatch.setattr(attack, "world_blocks", measured)
        spec = MechanismSpec(kind="laplace", scale=1.0)
        tracemalloc.start()
        try:
            evaluate_attack(
                g, 0.3, 1, spec, floors=[0.5], trials=trials, rng_seed=7,
                decision_threshold=n / 4,
            )
        finally:
            tracemalloc.stop()
        assert len(held) == trials
        assert max(held) < trials * n // 8

    @pytest.mark.parametrize("trials", [1, 1024])
    def test_derives_streams_once_per_chunk_per_pass(self, monkeypatch, trials):
        """The calibration and the evaluation pass each derive their
        trials' streams in one `pcg64_states` call per chunk of trials, the
        release sub-stream's with the rest."""
        sizes = []
        derive = seeding.pcg64_states
        monkeypatch.setattr(
            seeding, "pcg64_states", lambda seeds: sizes.append(len(seeds)) or derive(seeds)
        )
        g = generate_er(20, 0.1, rng_seed=2)
        spec = MechanismSpec(kind="laplace", scale=1.0)
        evaluate_attack(
            g, 0.5, 1, spec, floors=[0.5], trials=trials, rng_seed=4,
            decision_threshold=10,
        )
        assert sizes == [3 * trials, 3 * trials]

    def test_schedule_independent(self):
        """Calibration reads one pass at child_seed(child_seed(seed, 1), 0)
        for both the membership and the split, and evaluation reads
        child_seed(seed, 2). Evaluation trial t percolates, draws seeds and
        releases on sub-streams 0, 1 and 2 of child_seed(eval_seed, t); an
        explicit BFS loop over that layout scores identically."""
        n, q = 200, 0.4
        g = generate_er(n, 0.02, rng_seed=31)
        spec = MechanismSpec(kind="laplace", scale=3.0)
        result = evaluate_attack(g, q, 1, spec, floors=[0.6], trials=80, rng_seed=32)
        cal_seed, eval_seed = child_seed(32, 1), child_seed(32, 2)
        pass_seed = child_seed(cal_seed, 0)
        x0, x1 = record_worlds(g, q, 1, 80, pass_seed).giant_split()
        threshold = 0.5 * (float(x0[-1]) + float(x1[0]))
        assert result.decision_threshold == threshold
        membership = record_worlds(g, q, None, 80, pass_seed).membership()
        assert np.array_equal(
            result.membership.frequency, membership.frequency
        )
        hits = 0
        correct = np.zeros(n, dtype=np.int64)
        for t in range(80):
            trial_seed = child_seed(eval_seed, t)
            retained = percolate(g, q, child_seed(trial_seed, 0))
            seeds = sample_seeds(n, 1, child_seed(trial_seed, 1))
            act = bfs_activated(n, retained, seeds)
            sizes = sorted(len(c) for c in component_sets(n, retained))
            tie = len(sizes) > 1 and sizes[-1] == sizes[-2]
            giant = giant_component(n, retained)
            truth = not tie and any(int(v) in giant for v in seeds)
            noise = rng_from_seed(child_seed(trial_seed, 2)).laplace(0.0, 3.0)
            reported = float(len(act)) + float(noise)
            judged = reported > threshold
            hits += judged == truth
            bits = np.zeros(n, dtype=bool)
            bits[list(act)] = True
            correct += bits == judged
        assert result.giant_status_accuracy == hits / 80
        assert np.array_equal(result.per_node_accuracy, correct / 80)


class TestVulnerableSetEr:
    def test_eps_one_selects_everyone(self):
        g = generate_er(100, 0.05, rng_seed=33)
        assert vulnerable_set_er(g, 0.05, 0.5, 1.0).size == 100

    def test_eps_zero_selects_nobody(self):
        g = generate_er(100, 0.05, rng_seed=33)
        assert vulnerable_set_er(g, 0.05, 0.5, 0.0).size == 0

    def test_subcritical_rejected(self):
        g = generate_er(100, 0.005, rng_seed=33)
        with pytest.raises(ValueError):
            vulnerable_set_er(g, 0.005, 0.5, 0.3)

    def test_selection_matches_degree_cutoff(self):
        # dense substrate so the certified set is non-empty
        n, p, q, eps = 300, 0.2, 0.3, 0.3
        g = generate_er(n, p, rng_seed=34)
        got = set(vulnerable_set_er(g, p, q, eps).tolist())
        y = solve_giant_fraction(n * p * q).y
        expect = {
            int(v) for v in range(n) if er_miss_bound(int(g.degrees[v]), q, y) <= eps
        }
        assert got == expect
        assert got
        # the bound decays in degree, so membership is a degree cutoff
        dstar = next(
            d for d in range(int(g.degrees.max()) + 1)
            if er_miss_bound(d, q, y) <= eps
        )
        assert got == {int(v) for v in range(n) if g.degrees[v] >= dstar}

    def test_monotone_in_eps(self):
        g = generate_er(300, 0.2, rng_seed=35)
        small = set(vulnerable_set_er(g, 0.2, 0.3, 0.1).tolist())
        large = set(vulnerable_set_er(g, 0.2, 0.3, 0.4).tolist())
        assert small <= large

    def test_sparse_graph_may_certify_nobody(self):
        # mean degree 5 tops out far below the certification cutoff
        g = generate_er(2500, 5 / 2499, rng_seed=36)
        assert vulnerable_set_er(g, 5 / 2499, 0.3, 0.3).size == 0


class TestVulnerableSetCl:
    def test_eps_one_selects_all_ranks(self):
        w = chung_lu_weights(200, 5.0, 1.1)
        assert vulnerable_set_cl(w, 0.3, 1.0, 0.5).size == 200

    def test_prefix_of_ranks(self):
        w = chung_lu_weights(500, 5.0, 1.1)
        got = vulnerable_set_cl(w, 0.3, 0.05, 0.5)
        assert got.size > 0
        assert np.array_equal(got, np.arange(got.size))

    def test_monotone_in_eps(self):
        w = chung_lu_weights(500, 5.0, 1.1)
        small = vulnerable_set_cl(w, 0.3, 0.01, 0.5)
        large = vulnerable_set_cl(w, 0.3, 0.10, 0.5)
        assert set(small.tolist()) <= set(large.tolist())

    def test_no_giant_regime_rejected(self):
        w = chung_lu_weights(200, 5.0, 3.0)
        with pytest.raises(ValueError):
            vulnerable_set_cl(w, 0.3, 0.5, 0.5)  # d*q = 1.5 < (b-1)(b-2) = 2

    def test_alpha_validation(self):
        w = chung_lu_weights(100, 5.0, 1.1)
        with pytest.raises(ValueError):
            vulnerable_set_cl(w, 0.3, 0.5, 0.0)

    def test_heavy_tail_certifies_many_nodes(self):
        n, d, b, q = 2500, 5.0, 1.1, 0.3
        w = chung_lu_weights(n, d, b)
        g = generate_chung_lu(w, rng_seed=child_seed(37, 0))
        fractions = [
            label_world(
                n, percolate(g, q, rng_seed=child_seed(38, t))
            ).giant_size
            / n
            for t in range(20)
        ]
        alpha = float(np.mean(fractions))
        assert vulnerable_set_cl(w, q, 0.05, alpha).size >= 100
