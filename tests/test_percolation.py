"""Tests for edge percolation, component labeling, and cascade trials."""

import itertools
import logging
import math

import numpy as np
import pytest
from scipy import sparse, stats
from scipy.sparse import csgraph

from cascadelab import percolation
from cascadelab.distributions import EmpiricalDistribution
from cascadelab.graph import Graph, chung_lu_weights, generate_chung_lu, generate_er
from cascadelab.percolation import (
    DegenerateConditioningError,
    _hook_and_jump,
    connected_components,
    coupled_worlds,
    estimate_giant_membership,
    percolate,
    record_worlds,
    run_cascade,
    sample_seeds,
    world_blocks,
    worlds,
)
from cascadelab.seeding import child_seed, rng_from_seed

from oracles import bfs_activated, component_sets, giant_component, lowest_members


def count_split(g, q, s, v, trials, rng_seed):
    """Count distributions of one recorded pass, split by node v's bit."""
    record = record_worlds(g, q, s, trials, rng_seed)
    return tuple(map(EmpiricalDistribution.from_samples, record.node_split(v)))


def giant_split(g, q, s, trials, rng_seed):
    """Count distributions of one recorded pass, split by giant activity."""
    return record_worlds(g, q, s, trials, rng_seed).giant_split()


def _no_retained_edges():
    g = Graph(6, [[0, 1], [2, 5], [3, 4]])
    return g.node_count, g.edges[:0]


def _isolated_nodes():
    g = Graph(7, [[1, 4], [4, 6], [2, 3]])
    return g.node_count, g.edges


def _equal_sizes():
    # four 3-node paths on scrambled ids, each hooking in a different order
    g = Graph(12, [[11, 4], [4, 7], [10, 2], [9, 10], [8, 5], [5, 1], [6, 3], [3, 0]])
    return g.node_count, g.edges


def _full_retention_connected():
    g = generate_er(300, 0.05, rng_seed=child_seed(18, 0))
    return g.node_count, percolate(g, 1.0, rng_seed=child_seed(18, 1))


def _permuted_path():
    # adversarial for hooking: a long path whose ids are in random order
    n = 100_000
    ids = rng_from_seed(child_seed(18, 2)).permutation(n)
    g = Graph(n, np.column_stack([ids[:-1], ids[1:]]))
    return g.node_count, g.edges


def _one_node():
    g = Graph(1, [])
    return g.node_count, g.edges


def _one_node_loops():
    # raw rows, not `Graph.edges`: a repeated self-loop on the only node
    return 1, np.array([[0, 0], [0, 0]])


def _descending_path():
    # each hook points a node at the next lower id, so the first round's
    # jumps must flatten a chain of depth n - 1
    n = 300
    return n, np.column_stack([np.arange(1, n), np.arange(n - 1)])


def _star_behind_a_chain():
    # 200 leaves hang off the top of a descending 150-node chain, so each
    # leaf reaches its root only through the whole chain
    chain, leaves = 150, 200
    path = np.column_stack([np.arange(1, chain), np.arange(chain - 1)])
    star = np.column_stack(
        [np.full(leaves, chain - 1), np.arange(chain, chain + leaves)]
    )
    return chain + leaves, np.concatenate([path, star])


@pytest.fixture
def hook_rounds(monkeypatch):
    """A list that grows by one per hook round (one compaction each)."""
    calls = []
    compact = np.flatnonzero
    monkeypatch.setattr(np, "flatnonzero", lambda a: calls.append(1) or compact(a))
    return calls


def retained_set(retained):
    return {tuple(e) for e in retained.tolist()}


class TestPercolate:
    def test_q_one_keeps_everything(self):
        g = generate_er(30, 0.2, rng_seed=1)
        assert np.array_equal(percolate(g, 1.0, rng_seed=2), g.edges)

    def test_tiny_q_keeps_nothing(self):
        # union bound: P(any of 1e4 edges) < 1e4 * 1e-12 = 1e-8
        g = generate_er(200, 0.51, rng_seed=3)
        assert g.edge_count >= 10_000
        assert len(percolate(g, 1e-12, rng_seed=4)) == 0

    def test_q_validation(self):
        g = Graph(2, [[0, 1]])
        with pytest.raises(ValueError):
            percolate(g, 0.0, rng_seed=1)
        with pytest.raises(ValueError):
            percolate(g, 1.1, rng_seed=1)

    def test_deterministic_given_seed(self):
        g = generate_er(50, 0.2, rng_seed=5)
        a = percolate(g, 0.4, rng_seed=6)
        b = percolate(g, 0.4, rng_seed=6)
        assert np.array_equal(a, b)
        c = percolate(g, 0.4, rng_seed=7)
        assert not np.array_equal(a, c)

    def test_retained_is_subset(self):
        g = generate_er(50, 0.3, rng_seed=8)
        retained = percolate(g, 0.5, rng_seed=9)
        assert retained_set(retained) <= {tuple(e) for e in g.edges.tolist()}

    def test_retention_rate_binomial(self):
        g = generate_er(100, 0.4, rng_seed=10)
        q, reps = 0.3, 200
        kept = sum(
            len(percolate(g, q, rng_seed=child_seed(11, i))) for i in range(reps)
        )
        total = reps * g.edge_count
        se = math.sqrt(total * q * (1 - q))
        assert abs(kept - total * q) <= 3 * se

    @pytest.mark.parametrize("q", [0.05, 0.3, 0.7, 1.0])
    def test_rows_are_the_masked_rows_c_contiguous(self, q):
        g = generate_er(80, 0.1, rng_seed=25)
        for i in range(5):
            seed = child_seed(26, i)
            mask = rng_from_seed(seed).random(g.edge_count) < q
            retained = percolate(g, q, rng_seed=seed)
            assert np.array_equal(retained, g.edges[mask])
            assert retained.dtype == g.edges.dtype
            assert retained.shape == (int(mask.sum()), 2)
            assert retained.flags.c_contiguous

    def test_edgeless_graph(self):
        retained = percolate(Graph(5, []), 0.5, rng_seed=27)
        assert retained.shape == (0, 2)
        assert retained.flags.c_contiguous

    def test_percolated_er_matches_thinned_er(self):
        """Percolating ER(n,p) at q is distributionally ER(n, pq)."""
        n, p, q, reps = 500, 0.006, 0.5, 200
        thinned = []
        direct = []
        for i in range(reps):
            g = generate_er(n, p, rng_seed=child_seed(12, 2 * i))
            retained = percolate(g, q, rng_seed=child_seed(12, 2 * i + 1))
            thinned.append(connected_components(n, retained).giant_size)
            g2 = generate_er(n, p * q, rng_seed=child_seed(13, i))
            direct.append(connected_components(n, g2.edges).giant_size)
        ks = stats.ks_2samp(thinned, direct)
        assert ks.pvalue > 0.01


class TestConnectedComponents:
    def test_triangle(self):
        g = Graph(3, [[0, 1], [1, 2], [0, 2]])
        lab = connected_components(3, percolate(g, 1.0, rng_seed=1))
        assert lab.root.tolist() == [0, 0, 0]
        assert lab.giant_size == 3
        assert lab.second_size == 0
        assert not lab.tie_at_top

    def test_isolated_nodes(self):
        g = Graph(4, [])
        lab = connected_components(4, percolate(g, 1.0, rng_seed=1))
        assert lab.root.tolist() == [0, 1, 2, 3]
        assert (lab.giant_root, lab.giant_size, lab.second_size) == (0, 1, 1)
        assert lab.tie_at_top

    def test_path_with_middle_edge_dropped(self):
        g = Graph(4, [[0, 1], [2, 3]])
        lab = connected_components(4, g.edges)
        assert lab.giant_size == lab.second_size == 2
        assert lab.tie_at_top

    def test_tie_rank_goes_to_lowest_min_id(self):
        # components {1,3} and {0,2}: equal size, {0,2} must be the giant
        g = Graph(4, [[1, 3], [0, 2]])
        lab = connected_components(4, g.edges)
        assert lab.giant_root == 0
        assert lab.in_giant.tolist() == [True, False, True, False]

    def test_labels_match_oracle_on_random_graphs(self):
        for i in range(40):
            g = generate_er(12, 0.18, rng_seed=child_seed(14, i))
            retained = percolate(g, 0.7, rng_seed=child_seed(15, i))
            lab = connected_components(12, retained)
            assert np.array_equal(lab.root, lowest_members(12, retained))
            giant = giant_component(12, retained)
            assert set(np.flatnonzero(lab.in_giant).tolist()) == giant
            sizes = sorted(len(c) for c in component_sets(12, retained))
            assert lab.giant_size == sizes[-1]
            assert lab.second_size == (sizes[-2] if len(sizes) > 1 else 0)

    @pytest.mark.parametrize(
        "world",
        [
            _no_retained_edges,
            _isolated_nodes,
            _equal_sizes,
            _full_retention_connected,
            _permuted_path,
            _one_node,
            _one_node_loops,
        ],
        ids=lambda f: f.__name__.lstrip("_"),
    )
    def test_matches_bfs_oracle_on_degenerate_worlds(self, world):
        n, retained = world()
        lab = connected_components(n, retained)
        assert np.array_equal(lab.root, lowest_members(n, retained))
        sizes = sorted(len(c) for c in component_sets(n, retained))
        assert lab.giant_size == sizes[-1]
        assert lab.second_size == (sizes[-2] if len(sizes) > 1 else 0)

    @pytest.mark.parametrize(
        "layout",
        ["u_above_v", "self_loops", "repeated_rows", "fortran", "strided"],
    )
    def test_matches_oracle_on_raw_edge_arrays(self, layout):
        """The labeler takes any (m, 2) integer array, not only `Graph.edges`
        rows: reversed rows, loops, repeats and non-contiguous layouts."""
        n = 40
        for i in range(10):
            rng = rng_from_seed(child_seed(28, i))
            edges = rng.integers(0, n, size=(30, 2))
            if layout == "u_above_v":
                edges = np.column_stack([edges.max(1), edges.min(1)])
            elif layout == "self_loops":
                edges[::3, 1] = edges[::3, 0]
            elif layout == "repeated_rows":
                edges = np.concatenate([edges, edges[::-1], edges[:, ::-1]])
            elif layout == "fortran":
                edges = np.asfortranarray(edges)
                assert not edges.flags.c_contiguous
            else:
                # every other row of a wider array, columns reversed
                wide = np.column_stack([edges, rng.integers(0, n, size=(30, 2))])
                edges = np.repeat(wide, 2, axis=0)[::2, 1::-1]
                assert not edges.flags.c_contiguous
            lab = connected_components(n, edges)
            assert np.array_equal(lab.root, lowest_members(n, edges))
            sizes = sorted(len(c) for c in component_sets(n, edges))
            assert lab.giant_size == sizes[-1]
            assert lab.second_size == (sizes[-2] if len(sizes) > 1 else 0)

    def test_rounds_end_once_no_edge_crosses(self, monkeypatch):
        """Each hook round compacts the edges once, by the roots after its
        jumps: a path hooked and jumped in one round takes one round, and a
        path whose hooks chain through a second root takes two."""
        calls = []
        compact = np.flatnonzero
        monkeypatch.setattr(np, "flatnonzero", lambda a: calls.append(1) or compact(a))
        for edges, rounds in [([[0, 1], [1, 2]], 1), ([[0, 2], [1, 2]], 2)]:
            calls.clear()
            lab = connected_components(3, np.array(edges))
            assert lab.root.tolist() == [0, 0, 0]
            assert len(calls) == rounds

    def test_merges_into_a_forest_of_stars(self):
        """Merging a second edge set into the labeling of a first, as
        `coupled_worlds` does, labels their union; edges inside a component
        change nothing, and the forest passed in is left as it was."""
        n = 60
        for i in range(20):
            g = generate_er(n, 0.04, rng_seed=child_seed(29, i))
            rng = rng_from_seed(child_seed(30, i))
            first = g.edges[rng.random(g.edge_count) < 0.5]
            # the second set repeats part of the first, reversed, with a loop
            second = np.concatenate(
                [g.edges[rng.random(g.edge_count) < 0.5], first[::2, ::-1], [[5, 5]]]
            )
            forest = connected_components(n, first).root
            before = forest.copy()
            merged = _hook_and_jump(forest, second)
            assert np.array_equal(forest, before)
            union = np.concatenate([first, second])
            assert np.array_equal(merged, lowest_members(n, union))
            assert np.array_equal(_hook_and_jump(merged, first), merged)

    @pytest.mark.parametrize(
        "world",
        [_descending_path, _star_behind_a_chain],
        ids=lambda f: f.__name__.lstrip("_"),
    )
    def test_deep_chain_flattens_in_one_round(self, hook_rounds, world):
        """Every hook lands in one tree, hundreds of nodes deep, so the
        first round's jumps alone must flatten it: the roots match the
        oracle after a single round."""
        n, retained = world()
        lab = connected_components(n, retained)
        assert np.array_equal(lab.root, lowest_members(n, retained))
        assert (lab.giant_size, lab.second_size, len(hook_rounds)) == (n, 0, 1)

    def test_merges_a_deep_chain_of_stars_in_one_round(self, hook_rounds):
        """Merged edges chain 64 stars of 8 nodes in descending order of
        their roots, as `coupled_worlds` merges into a forest of stars: each
        star hooks onto the next, and one round's jumps flatten the chain."""
        stars, size = 64, 8
        n = stars * size
        first = np.array(
            [(b * size, b * size + i) for b in range(stars) for i in range(1, size)]
        )
        second = np.array(
            [(b * size + size - 1, (b - 1) * size + 3) for b in range(1, stars)]
        )
        forest = connected_components(n, first).root
        assert np.array_equal(forest, np.arange(n) // size * size)
        hook_rounds.clear()
        merged = _hook_and_jump(forest, second)
        union = np.concatenate([first, second])
        assert np.array_equal(merged, lowest_members(n, union))
        assert len(hook_rounds) == 1

    def test_equal_sizes_rank_by_lowest_member(self):
        lab = connected_components(*_equal_sizes())
        # {0,3,6} holds 0, {1,5,8} holds 1, {2,9,10} holds 2, {4,7,11} holds 4
        assert lab.root.tolist() == [0, 1, 2, 0, 4, 1, 0, 4, 1, 2, 2, 4]
        assert lab.giant_root == 0
        assert lab.tie_at_top
        assert lab.second_size == 3

    def test_full_retention_on_connected_graph_is_one_component(self):
        lab = connected_components(*_full_retention_connected())
        assert (lab.giant_size, lab.second_size) == (300, 0)
        assert not lab.root.any()

    @pytest.mark.parametrize("q", [0.1, 0.3, 0.5, 0.9])
    def test_scipy_labels_components_by_lowest_member(self, q):
        """scipy's csgraph serves as an independent oracle: it numbers
        undirected components in order of their lowest member, so mapping
        each of its labels to that member must reproduce the package's
        roots, and its first largest label must be the package's giant."""
        n = 2000
        weights = chung_lu_weights(n, 2.0, 1.5)
        substrates = [
            generate_er(n, 5 / (n - 1), rng_seed=child_seed(16, 0)),
            generate_chung_lu(weights, rng_seed=child_seed(16, 1)),
        ]
        for k, g in enumerate(substrates):
            for t in range(5):
                retained = percolate(g, q, rng_seed=child_seed(17, 10 * k + t))
                u, v = retained.T
                mat = sparse.csr_matrix((np.ones(u.size), (u, v)), shape=(n, n))
                _, raw = csgraph.connected_components(mat, directed=False)
                first_member = np.unique(raw, return_index=True)[1]
                assert np.all(np.diff(first_member) > 0)
                sizes = np.bincount(raw)
                lab = connected_components(n, retained)
                assert np.array_equal(lab.root, first_member[raw])
                assert lab.giant_root == first_member[np.argmax(sizes)]
                assert lab.giant_size == sizes.max()
                assert lab.second_size == np.sort(sizes)[-2]


class TestRunCascade:
    def test_empty_seeds_flagged(self, caplog):
        g = Graph(3, [[0, 1]])
        lab = connected_components(3, g.edges)
        with caplog.at_level(logging.WARNING):
            out = run_cascade(lab, np.array([], dtype=np.int64))
        assert out.count == 0
        assert not out.activated.any()
        assert "empty seed" in caplog.text

    @pytest.mark.parametrize(
        "make",
        [
            lambda: np.array([7, 2, 9, 0]),
            lambda: np.array([3, 3, 8, 3, 0, 8]),
            lambda: [9, 1, 1, 4],
            lambda: (v for v in [5, 2, 5, 11, 2]),
            lambda: np.array([[4, 1], [1, 10]]),
            lambda: np.array([2.0, 6.0, 2.0]),
        ],
        ids=["unsorted", "duplicates", "list", "generator", "2d", "float"],
    )
    def test_seeds_are_sorted_distinct_ids(self, make):
        """The seeds are those `np.unique` makes of the input as int64."""
        seeds = make()
        if isinstance(seeds, np.ndarray):
            expect = np.unique(seeds.astype(np.int64))
        else:
            expect = np.unique(np.fromiter(make(), dtype=np.int64))
        g = Graph(12, [[0, 1], [2, 3], [3, 4], [9, 11]])
        out = run_cascade(connected_components(12, g.edges), seeds)
        assert out.seeds.dtype == np.int64
        assert np.array_equal(out.seeds, expect)
        active = set().union(*(bfs_activated(12, g.edges, [v]) for v in expect))
        assert set(np.flatnonzero(out.activated).tolist()) == active
        assert out.count == len(active)

    @pytest.mark.parametrize("seeds", [[-1], [-1, -1], [0, 4, 5], [9, 5, 0], [-3, 2]])
    def test_seed_outside_range_raises(self, seeds):
        lab = connected_components(5, np.array([[0, 1]]))
        with pytest.raises(ValueError, match="outside"):
            run_cascade(lab, np.array(seeds))
        with pytest.raises(ValueError, match="outside"):
            run_cascade(lab, seeds)

    @pytest.mark.parametrize(
        "seeds",
        [
            np.array([0.9]),
            [1.7],
            np.array([True, True]),
            [0, True],
            [np.True_],
            np.array([np.nan]),
            [np.inf],
            ["1"],
        ],
        ids=[
            "fraction-array",
            "fraction-list",
            "bool-array",
            "bool-in-int-list",
            "numpy-bool-list",
            "nan",
            "inf",
            "string",
        ],
    )
    def test_non_integer_seed_raises(self, seeds):
        """A fraction was truncated and a bool read as node 1; both are refused."""
        lab = connected_components(5, np.array([[0, 1]]))
        with pytest.raises(ValueError, match="must be integers"):
            run_cascade(lab, seeds)

    @pytest.mark.parametrize("seeds", [np.array([2.0]), [2.0]], ids=["array", "list"])
    def test_integral_float_seed_names_its_node(self, seeds):
        lab = connected_components(5, np.array([[1, 2]]))
        out = run_cascade(lab, seeds)
        assert out.seeds.tolist() == [2] and out.seeds.dtype == np.int64
        assert out.activated.tolist() == [False, True, True, False, False]

    @pytest.mark.parametrize("seeds", [[], iter(())], ids=["list", "iterator"])
    def test_empty_seed_set_activates_nothing(self, seeds, caplog):
        lab = connected_components(3, np.array([[0, 1]]))
        with caplog.at_level(logging.WARNING):
            out = run_cascade(lab, seeds)
        assert out.seeds.size == 0 and out.seeds.dtype == np.int64
        assert (out.count, out.giant_active) == (0, False)
        assert not out.activated.any()
        assert "empty seed" in caplog.text

    def test_full_retention_single_seed_activates_all(self):
        g = generate_er(20, 0.4, rng_seed=16)
        lab = connected_components(20, percolate(g, 1.0, rng_seed=0))
        assert lab.giant_size == 20
        out = run_cascade(lab, np.array([7]))
        assert out.count == 20

    def test_partial_path(self):
        lab = connected_components(3, np.array([[0, 1]]))
        out = run_cascade(lab, np.array([0]))
        assert out.activated.tolist() == [True, True, False]
        assert out.count == 2

    def test_matches_bfs_oracle_on_random_worlds(self):
        for i in range(60):
            g = generate_er(15, 0.15, rng_seed=child_seed(17, i))
            retained = percolate(g, 0.6, rng_seed=child_seed(18, i))
            seeds = sample_seeds(15, 3, rng_seed=child_seed(19, i))
            out = run_cascade(connected_components(15, retained), seeds)
            expect = bfs_activated(15, retained, seeds)
            assert set(np.where(out.activated)[0]) == expect
            assert out.count == len(expect)

    def test_giant_active_agrees_with_membership(self):
        for i in range(40):
            g = generate_er(30, 0.08, rng_seed=child_seed(20, i))
            lab = connected_components(
                30, percolate(g, 0.8, rng_seed=child_seed(21, i))
            )
            seeds = sample_seeds(30, 2, rng_seed=child_seed(22, i))
            out = run_cascade(lab, seeds)
            assert out.giant_active == bool(lab.in_giant[seeds].any())
            if out.giant_active:
                assert out.count >= lab.giant_size


class TestSampleSeeds:
    def test_all_nodes_when_s_equals_n(self):
        assert sample_seeds(5, 5, rng_seed=1).tolist() == [0, 1, 2, 3, 4]

    def test_rejects_s_out_of_range(self):
        with pytest.raises(ValueError):
            sample_seeds(5, 6, rng_seed=1)
        with pytest.raises(ValueError):
            sample_seeds(5, 0, rng_seed=1)

    def test_uniform_over_nodes(self):
        draws = 10_000
        counts = np.zeros(5, dtype=int)
        for i in range(draws):
            counts[sample_seeds(5, 1, rng_seed=child_seed(23, i))[0]] += 1
        se = math.sqrt(draws * 0.2 * 0.8)
        assert np.all(np.abs(counts - draws * 0.2) <= 3 * se)

    def test_sorted_without_replacement(self):
        s = sample_seeds(40, 10, rng_seed=24)
        assert len(set(s.tolist())) == 10
        assert np.all(np.diff(s) > 0)


class TestWorlds:
    def test_trial_streams_and_outcomes(self):
        g = generate_er(40, 0.08, rng_seed=18)
        drawn = list(worlds(g, 0.5, 19, 6, s=2))
        assert [ts for ts, _, _ in drawn] == [child_seed(19, t) for t in range(6)]
        for ts, lab, out in drawn:
            retained = percolate(g, 0.5, child_seed(ts, 0))
            assert np.array_equal(lab.root, connected_components(40, retained).root)
            assert np.array_equal(out.seeds, sample_seeds(40, 2, child_seed(ts, 1)))
        assert all(out is None for _, _, out in worlds(g, 0.5, 19, 3))

    def test_validation(self):
        g = Graph(3, [[0, 1]])
        with pytest.raises(ValueError, match="trials"):
            next(worlds(g, 0.5, 1, 0))
        with pytest.raises(ValueError, match="s must"):
            next(worlds(g, 0.5, 1, 5, s=4))

    BLOCKED = {
        "er": (lambda: generate_er(40, 0.08, rng_seed=18), 0.5),
        "edgeless": (lambda: Graph(5, []), 0.5),
        "one-node": (lambda: Graph(1, []), 1.0),
        # three components of two nodes: every trial's top two tie
        "tied-top": (lambda: Graph(6, [[0, 1], [2, 3], [4, 5]]), 1.0),
    }

    @pytest.mark.parametrize("k", [1, 4], ids=["one-per-block", "remainder"])
    @pytest.mark.parametrize("world", sorted(BLOCKED))
    def test_blocks_match_worlds_labeled_alone(self, monkeypatch, world, k):
        """With blocks of k trials (10 trials leave a block of 2 at k = 4),
        each trial reads off its block as its world labeled and seeded alone."""
        make, q = self.BLOCKED[world]
        g = make()
        n, trials = g.node_count, 10
        monkeypatch.setattr(percolation, "_BLOCK_NODES", k * n)
        sizes = [len(b.trial_seeds) for b in world_blocks(g, q, 19, trials)]
        assert sizes == [k] * (trials // k) + [trials % k] * (trials % k > 0)
        drawn = list(worlds(g, q, 19, trials, s=1))
        assert [ts for ts, _, _ in drawn] == [child_seed(19, t) for t in range(trials)]
        for ts, lab, out in drawn:
            ref = connected_components(n, percolate(g, q, child_seed(ts, 0)))
            assert np.array_equal(lab.root, ref.root)
            assert (lab.giant_root, lab.giant_size, lab.second_size) == (
                ref.giant_root,
                ref.giant_size,
                ref.second_size,
            )
            want = run_cascade(ref, sample_seeds(n, 1, child_seed(ts, 1)))
            assert np.array_equal(out.seeds, want.seeds)
            assert np.array_equal(out.activated, want.activated)
            assert (out.count, out.giant_active) == (want.count, want.giant_active)
        if world == "tied-top":
            assert all(lab.tie_at_top for _, lab, _ in drawn)


class TestCoupledWorlds:
    SUBSTRATES = {
        "er": lambda: generate_er(400, 4 / 399, rng_seed=31),
        "chung_lu": lambda: generate_chung_lu(chung_lu_weights(500, 2, 1.5), 32),
    }

    @pytest.mark.parametrize("kind", sorted(SUBSTRATES))
    @pytest.mark.parametrize(
        "grid",
        [[0.6, 0.1, 0.35, 0.6, 1.0, 0.25], [0.3], [1.0]],
        ids=["unsorted-with-duplicate", "single-q", "q-one"],
    )
    def test_each_q_matches_a_world_labeled_from_scratch(self, kind, grid):
        g = self.SUBSTRATES[kind]()
        drawn = list(coupled_worlds(g, grid, 33, 5))
        assert len(drawn) == 5 * len(grid)
        assert sorted((ts, qi) for ts, qi, _ in drawn) == sorted(
            (child_seed(33, t), qi) for t in range(5) for qi in range(len(grid))
        )
        for ts, qi, lab in drawn:
            ref = connected_components(
                g.node_count, percolate(g, grid[qi], child_seed(ts, 0))
            )
            assert np.array_equal(lab.root, ref.root)
            assert (lab.giant_root, lab.giant_size, lab.second_size) == (
                ref.giant_root,
                ref.giant_size,
                ref.second_size,
            )

    @pytest.mark.parametrize("kind", sorted(SUBSTRATES))
    def test_giant_never_shrinks_as_q_grows(self, kind):
        g = self.SUBSTRATES[kind]()
        grid = [0.9, 0.05, 0.5, 0.2, 0.7, 0.35, 1.0]
        by_trial = {}
        for ts, qi, lab in coupled_worlds(g, grid, 34, 8):
            by_trial.setdefault(ts, {})[grid[qi]] = lab.giant_size
        assert len(by_trial) == 8
        for sizes in by_trial.values():
            walk = [sizes[q] for q in sorted(sizes)]
            assert all(a <= b for a, b in zip(walk, walk[1:]))

    def test_walks_the_grid_in_ascending_q(self):
        g = generate_er(60, 0.1, rng_seed=35)
        drawn = [qi for _, qi, _ in coupled_worlds(g, [0.5, 0.2, 0.5, 0.1], 36, 2)]
        assert drawn == [3, 1, 0, 2] * 2

    def test_edgeless_graph(self):
        g = Graph(4, [])
        for _, _, lab in coupled_worlds(g, [0.5, 1.0], 37, 2):
            assert lab.root.tolist() == [0, 1, 2, 3]
            assert (lab.giant_root, lab.giant_size, lab.second_size) == (0, 1, 1)

    def test_validation(self):
        g = Graph(3, [[0, 1]])
        with pytest.raises(ValueError, match="trials"):
            next(coupled_worlds(g, [0.5], 1, 0))
        for grid in ([], [0.5, 0.0], [1.5]):
            with pytest.raises(ValueError, match="q"):
                next(coupled_worlds(g, grid, 1, 2))


class TestRecordWorlds:
    def test_rows_are_worlds_ordered_by_count(self):
        """Row r is the trial of r-th smallest count (ties in trial order);
        n = 70 leaves padding bits in the last packed byte."""
        n, q, s, trials, seed = 70, 0.5, 2, 90, 42
        g = generate_er(n, 0.05, rng_seed=41)
        drawn = [(lab, out) for _, lab, out in worlds(g, q, seed, trials, s)]
        order = sorted(range(trials), key=lambda t: drawn[t][1].count)
        rec = record_worlds(g, q, s, trials, seed)
        assert rec.counts.tolist() == [drawn[t][1].count for t in order]
        assert rec.giant_active.tolist() == [drawn[t][1].giant_active for t in order]
        assert rec.tie.tolist() == [drawn[t][0].tie_at_top for t in order]
        bits = np.array([drawn[t][1].activated for t in order])
        for v in range(n):
            assert np.array_equal(rec.activated(v), bits[:, v])
        assert rec.packed.shape == (trials, 9)

    def test_membership_and_splits_match_estimators(self):
        """The membership matches `estimate_giant_membership`, and both
        splits match the same trials read straight off `worlds`."""
        n, q, s, trials, seed = 90, 0.4, 1, 120, 43
        g = generate_er(n, 0.04, rng_seed=44)
        rec = record_worlds(g, q, s, trials, seed)
        est = estimate_giant_membership(g, q, trials, seed)
        assert np.array_equal(rec.membership().frequency, est.frequency)
        assert rec.membership().ties_broken == est.ties_broken
        drawn = [(lab.tie_at_top, o) for _, lab, o in worlds(g, q, seed, trials, s)]
        branches = ([], [])
        for tie, o in drawn:
            branches[o.giant_active and not tie].append(o.count)
        split = rec.giant_split()
        for got, samples in zip((split.inactive, split.active), branches):
            want = EmpiricalDistribution.from_samples(samples)
            assert np.array_equal(got.values, want.values)
            assert np.array_equal(got.probs, want.probs)
        assert split.tie_trials == sum(tie for tie, _ in drawn)
        assert split.midpoint == (max(branches[0]) + min(branches[1])) / 2
        x0, x1 = rec.node_split(5)
        assert x0.tolist() == sorted(o.count for _, o in drawn if not o.activated[5])
        assert x1.tolist() == sorted(o.count for _, o in drawn if o.activated[5])

    def test_node_split_checks_node_id(self):
        """n = 9 packs two bytes per row: -8 would read node 8's bit and 9
        a padding bit, so both are refused."""
        g = generate_er(9, 0.3, rng_seed=45)
        rec = record_worlds(g, 0.5, 1, 30, 46)
        assert rec.packed.shape == (30, 2)
        for v in (-1, -8, 9, 15):
            with pytest.raises(ValueError, match="outside"):
                rec.node_split(v)
            with pytest.raises(ValueError, match="outside"):
                rec.activated(v)
        x0, x1 = rec.node_split(8)
        assert x0.size + x1.size == 30


class TestEstimateGiantMembership:
    def test_complete_graph_full_retention(self):
        g = Graph(5, list(itertools.combinations(range(5), 2)))
        est = estimate_giant_membership(g, 1.0, trials=10, rng_seed=1)
        assert np.all(est.frequency == 1.0)
        assert est.ties_broken == 0

    def test_edgeless_graph_tie_policy(self):
        # every trial ties at size 1; lowest-id rule hands node 0 the giant
        g = Graph(4, [])
        est = estimate_giant_membership(g, 0.5, trials=20, rng_seed=2)
        assert est.frequency.tolist() == [1.0, 0.0, 0.0, 0.0]
        assert est.ties_broken == 20

    def test_frequencies_times_trials_integral(self):
        g = generate_er(60, 0.05, rng_seed=25)
        est = estimate_giant_membership(g, 0.5, trials=37, rng_seed=26)
        scaled = est.frequency * 37
        assert np.allclose(scaled, np.round(scaled))

    def test_schedule_independent(self):
        """Trial t reads only stream child_seed(child_seed(seed, t), 0), so an
        explicit loop over that layout reproduces the estimate exactly."""
        g = generate_er(150, 0.03, rng_seed=27)
        counts = np.zeros(150, dtype=np.int64)
        ties = 0
        for t in range(48):
            retained = percolate(g, 0.4, child_seed(child_seed(28, t), 0))
            for v in giant_component(150, retained):
                counts[v] += 1
            sizes = sorted(len(c) for c in component_sets(150, retained))
            ties += len(sizes) > 1 and sizes[-1] == sizes[-2]
        est = estimate_giant_membership(g, 0.4, trials=48, rng_seed=28)
        assert np.array_equal(est.frequency, counts / 48)
        assert est.ties_broken == ties

    def test_membership_matches_per_trial_oracle(self):
        g = generate_er(25, 0.12, rng_seed=29)
        trials = 30
        expect = np.zeros(25)
        for t in range(trials):
            retained = percolate(g, 0.6, child_seed(child_seed(30, t), 0))
            giant = giant_component(25, retained)
            for v in giant:
                expect[v] += 1
        est = estimate_giant_membership(g, 0.6, trials=trials, rng_seed=30)
        assert np.allclose(est.frequency, expect / trials)


class TestConditionalCountDistributions:
    def test_connected_full_retention_errors_on_inactive_branch(self):
        g = Graph(4, [[0, 1], [1, 2], [2, 3]])
        with pytest.raises(DegenerateConditioningError, match="x_v=0"):
            count_split(g, 1.0, 1, 0, trials=50, rng_seed=1)

    def test_disjoint_edges_full_retention(self):
        g = Graph(4, [[0, 1], [2, 3]])
        mu0, mu1 = count_split(g, 1.0, 1, 0, trials=200, rng_seed=2)
        # every world activates exactly one two-node component
        assert mu0.values.tolist() == [2.0]
        assert mu1.values.tolist() == [2.0]
        assert mu0.sample_count + mu1.sample_count == 200

    def test_path_matches_exhaustive_enumeration(self):
        """P4 at q=1/2, one uniform seed: 8 edge patterns x 4 seeds, all
        equally likely. Exact conditional laws come from enumerating the
        32 worlds with the BFS oracle."""
        n, v, trials = 4, 0, 4000
        g = Graph(n, [[0, 1], [1, 2], [2, 3]])
        worlds0: list[int] = []
        worlds1: list[int] = []
        for keep in itertools.product([0, 1], repeat=3):
            retained = g.edges[np.array(keep, dtype=bool)]
            for seed in range(n):
                act = bfs_activated(n, retained, [seed])
                (worlds1 if v in act else worlds0).append(len(act))
        exact0 = {x: worlds0.count(x) / len(worlds0) for x in set(worlds0)}
        exact1 = {x: worlds1.count(x) / len(worlds1) for x in set(worlds1)}

        mu0, mu1 = count_split(g, 0.5, 1, v, trials=trials, rng_seed=6)
        for mu, exact in ((mu0, exact0), (mu1, exact1)):
            emp = dict(zip(mu.values.tolist(), mu.probs.tolist()))
            assert set(emp) <= set(exact)
            for atom, p in exact.items():
                se = math.sqrt(p * (1 - p) / mu.sample_count)
                assert abs(emp.get(atom, 0.0) - p) <= 3 * se

    def test_branch_split_is_exact_partition(self):
        g = generate_er(40, 0.06, rng_seed=31)
        mu0, mu1 = count_split(g, 0.5, 2, 5, trials=300, rng_seed=4)
        assert mu0.sample_count + mu1.sample_count == 300

    def test_schedule_independent(self):
        """Trial t percolates on sub-stream 0 and draws its seeds on
        sub-stream 1 of child_seed(seed, t); BFS over that explicit loop
        reproduces both branches exactly."""
        g = generate_er(50, 0.06, rng_seed=32)
        branches = ([], [])
        for t in range(120):
            trial_seed = child_seed(5, t)
            retained = percolate(g, 0.5, child_seed(trial_seed, 0))
            seeds = sample_seeds(50, 1, child_seed(trial_seed, 1))
            act = bfs_activated(50, retained, seeds)
            branches[3 in act].append(len(act))
        got = count_split(g, 0.5, 1, 3, trials=120, rng_seed=5)
        for dist, samples in zip(got, branches):
            expect = EmpiricalDistribution.from_samples(samples)
            assert np.array_equal(dist.values, expect.values)
            assert np.array_equal(dist.probs, expect.probs)


class TestConditionalGiantDistributions:
    def test_connected_full_retention_errors(self):
        g = Graph(3, [[0, 1], [1, 2]])
        with pytest.raises(DegenerateConditioningError, match="inactive branch"):
            giant_split(g, 1.0, 1, trials=40, rng_seed=1)

    def test_single_edge_four_worlds(self):
        # edge kept: X=2 and the seed is always in the giant. Edge dropped:
        # sizes tie at [1,1], the trial lands in the inactive branch, X=1.
        g = Graph(2, [[0, 1]])
        split = giant_split(g, 0.5, 1, trials=400, rng_seed=2)
        assert split.active.values.tolist() == [2.0]
        assert split.inactive.values.tolist() == [1.0]
        assert split.midpoint == pytest.approx(1.5)
        assert split.tie_trials == split.inactive.sample_count

    def test_sparse_giant_separation(self):
        """Supercritical thinned graph: the seeded-giant counts sit far above
        the rest, so the observed supports leave a wide gap."""
        n = 2500
        g = generate_er(n, 5 / (n - 1), rng_seed=child_seed(33, 0))
        split = giant_split(g, 0.3, 1, trials=1000, rng_seed=34)
        assert split.active_min - split.inactive_max >= 0.3 * n

    def test_midpoint_between_extremes(self):
        g = generate_er(300, 0.01, rng_seed=35)
        split = giant_split(g, 0.5, 1, trials=200, rng_seed=36)
        assert split.inactive_max < split.midpoint < split.active_min
        assert split.midpoint == pytest.approx(
            (split.inactive_max + split.active_min) / 2
        )
