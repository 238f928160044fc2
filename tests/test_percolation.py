"""Tests for edge percolation, component labeling, and cascade trials."""

import collections
import itertools
import logging
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse, stats
from scipy.sparse import csgraph

from cascadelab import graph as graph_module
from cascadelab import percolation, seeding
from cascadelab.attack import evaluate_attack
from cascadelab.graph import (
    Graph,
    chung_lu_weights,
    dump_edge_list,
    generate_chung_lu,
    generate_er,
    load_edge_list,
)
from cascadelab.percolation import (
    DegenerateConditioningError,
    _draw_seeds,
    _hook_and_jump,
    record_worlds,
    world_blocks,
)
from cascadelab.privacy import MechanismSpec
from cascadelab.seeding import child_seed, rng_from_seed

from oracles import (
    bfs_activated,
    component_sets,
    giant_component,
    label_world,
    lowest_members,
    percolate,
    sample_seeds,
)


def count_split(g, q, s, v, trials, rng_seed):
    """Count samples of one recorded pass, split by node v's bit."""
    return record_worlds(g, q, s, trials, rng_seed).node_split(v)


def giant_split(g, q, s, trials, rng_seed):
    """Count samples of one recorded pass, split by giant activity."""
    return record_worlds(g, q, s, trials, rng_seed).giant_split()


def membership(g, q, trials, rng_seed):
    """The membership of one recorded pass that draws no seeds."""
    return record_worlds(g, q, None, trials, rng_seed).membership()


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
    """`oracles.percolate`, the one-world reference of `world_blocks`."""

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
            thinned.append(label_world(n, retained).giant_size)
            g2 = generate_er(n, p * q, rng_seed=child_seed(13, i))
            direct.append(label_world(n, g2.edges).giant_size)
        ks = stats.ks_2samp(thinned, direct)
        assert ks.pvalue > 0.01


class TestConnectedComponents:
    def test_triangle(self):
        g = Graph(3, [[0, 1], [1, 2], [0, 2]])
        lab = label_world(3, percolate(g, 1.0, rng_seed=1))
        assert lab.root.tolist() == [0, 0, 0]
        assert lab.giant_size == 3
        assert lab.second_size == 0

    def test_isolated_nodes(self):
        g = Graph(4, [])
        lab = label_world(4, percolate(g, 1.0, rng_seed=1))
        assert lab.root.tolist() == [0, 1, 2, 3]
        assert (lab.giant_root, lab.giant_size, lab.second_size) == (0, 1, 1)

    def test_path_with_middle_edge_dropped(self):
        g = Graph(4, [[0, 1], [2, 3]])
        lab = label_world(4, g.edges)
        assert lab.giant_size == lab.second_size == 2

    def test_tie_rank_goes_to_lowest_min_id(self):
        # components {1,3} and {0,2}: equal size, {0,2} must be the giant
        g = Graph(4, [[1, 3], [0, 2]])
        lab = label_world(4, g.edges)
        assert lab.giant_root == 0
        assert (lab.root == lab.giant_root).tolist() == [True, False, True, False]

    def test_labels_match_oracle_on_random_graphs(self):
        for i in range(40):
            g = generate_er(12, 0.18, rng_seed=child_seed(14, i))
            retained = percolate(g, 0.7, rng_seed=child_seed(15, i))
            lab = label_world(12, retained)
            assert np.array_equal(lab.root, lowest_members(12, retained))
            giant = giant_component(12, retained)
            assert set(np.flatnonzero(lab.root == lab.giant_root).tolist()) == giant
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
        lab = label_world(n, retained)
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
            lab = label_world(n, edges)
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
            lab = label_world(3, np.array(edges))
            assert lab.root.tolist() == [0, 0, 0]
            assert len(calls) == rounds

    def test_merges_into_a_forest_of_stars(self):
        """Merging a second edge set into the labeling of a first, as
        `world_blocks` does along a q grid, labels their union; edges inside a component
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
            forest = label_world(n, first).root
            before = forest.copy()
            merged = _hook_and_jump(forest, second.T)
            assert np.array_equal(forest, before)
            union = np.concatenate([first, second])
            assert np.array_equal(merged, lowest_members(n, union))
            assert np.array_equal(_hook_and_jump(merged, first.T), merged)

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
        lab = label_world(n, retained)
        assert np.array_equal(lab.root, lowest_members(n, retained))
        assert (lab.giant_size, lab.second_size, len(hook_rounds)) == (n, 0, 1)

    def test_merges_a_deep_chain_of_stars_in_one_round(self, hook_rounds):
        """Merged edges chain 64 stars of 8 nodes in descending order of
        their roots, as `world_blocks` merges into a forest of stars: each
        star hooks onto the next, and one round's jumps flatten the chain."""
        stars, size = 64, 8
        n = stars * size
        first = np.array(
            [(b * size, b * size + i) for b in range(stars) for i in range(1, size)]
        )
        second = np.array(
            [(b * size + size - 1, (b - 1) * size + 3) for b in range(1, stars)]
        )
        forest = label_world(n, first).root
        assert np.array_equal(forest, np.arange(n) // size * size)
        hook_rounds.clear()
        merged = _hook_and_jump(forest, second.T)
        union = np.concatenate([first, second])
        assert np.array_equal(merged, lowest_members(n, union))
        assert len(hook_rounds) == 1

    def test_equal_sizes_rank_by_lowest_member(self):
        lab = label_world(*_equal_sizes())
        # {0,3,6} holds 0, {1,5,8} holds 1, {2,9,10} holds 2, {4,7,11} holds 4
        assert lab.root.tolist() == [0, 1, 2, 0, 4, 1, 0, 4, 1, 2, 2, 4]
        assert lab.giant_root == 0
        assert lab.giant_size == lab.second_size == 3

    def test_full_retention_on_connected_graph_is_one_component(self):
        lab = label_world(*_full_retention_connected())
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
                lab = label_world(n, retained)
                assert np.array_equal(lab.root, first_member[raw])
                assert lab.giant_root == first_member[np.argmax(sizes)]
                assert lab.giant_size == sizes.max()
                assert lab.second_size == np.sort(sizes)[-2]


# the two branches of the labeler's cut-off, each forced for every round:
# jump every entry, or chase only the hooked roots and make one full pass
BRANCHES = {"jump-all": 0.0, "chase-hooked": math.inf}


class TestChaseCutoff:
    """Both branches of `_hook_and_jump`'s cut-off give the roots that
    `label_world` gives with every round jumping every entry."""

    @staticmethod
    def reference(monkeypatch, n, retained):
        monkeypatch.setattr(percolation, "_CHASE_SHARE", BRANCHES["jump-all"])
        return label_world(n, retained).root

    @pytest.mark.parametrize("n, p", [(200, 0.02), (12, 0.3)], ids=["n200", "n12"])
    @pytest.mark.parametrize("k", [1, 4], ids=["one-per-block", "blocks-of-4"])
    @pytest.mark.parametrize("branch", sorted(BRANCHES))
    def test_grid_blocks_match_label_world(self, monkeypatch, branch, k, n, p):
        """A q grid walked over blocks of one world and of four (30 trials
        leave a block of 2), each q merged into the last q's stars."""
        g = generate_er(n, p, rng_seed=child_seed(33, n))
        grid = [0.9, 0.2, 0.5, 0.5, 0.05, 1.0]
        monkeypatch.setattr(percolation, "_BLOCK_NODES", k * n)
        monkeypatch.setattr(percolation, "_CHASE_SHARE", BRANCHES[branch])
        blocks = list(world_blocks(g, grid, 34, 30))
        assert len(blocks) == len(grid) * -(-30 // k)
        for block in blocks:
            for i, ts in enumerate(block.trial_seeds):
                retained = percolate(g, grid[block.qi], child_seed(ts, 0))
                want = self.reference(monkeypatch, n, retained)
                assert np.array_equal(block.root[i] - i * n, want)

    @pytest.mark.parametrize("branch", sorted(BRANCHES))
    @pytest.mark.parametrize(
        "world",
        [_descending_path, _star_behind_a_chain, _equal_sizes],
        ids=lambda f: f.__name__.lstrip("_"),
    )
    def test_merged_one_edge_at_a_time(self, monkeypatch, branch, world):
        """Each edge merged alone into the stars of the edges before it,
        in a shuffled order, so hooks land on roots at every depth."""
        n, edges = world()
        order = rng_from_seed(child_seed(35, n)).permutation(len(edges))
        edges = edges[order]
        root = np.arange(n, dtype=np.int64)
        for i in range(len(edges)):
            monkeypatch.setattr(percolation, "_CHASE_SHARE", BRANCHES[branch])
            root = _hook_and_jump(root, edges[i : i + 1].T)
            if i % 37 == 0 or i == len(edges) - 1:
                want = self.reference(monkeypatch, n, edges[: i + 1])
                assert np.array_equal(root, want)
        assert np.array_equal(root, lowest_members(n, edges))

    @pytest.mark.parametrize("branch", sorted(BRANCHES))
    def test_chain_of_stars_merged_in_one_call(self, monkeypatch, branch):
        """64 stars of 8 nodes, each hooked onto the star below it by one
        merged edge given in shuffled order: the hooked roots form a chain
        63 deep, which one round must flatten."""
        stars, size = 64, 8
        n = stars * size
        first = np.array(
            [(b * size, b * size + i) for b in range(stars) for i in range(1, size)]
        )
        second = np.array(
            [(b * size + size - 1, (b - 1) * size + 3) for b in range(1, stars)]
        )
        second = second[rng_from_seed(child_seed(36, 0)).permutation(stars - 1)]
        forest = self.reference(monkeypatch, n, first)
        monkeypatch.setattr(percolation, "_CHASE_SHARE", BRANCHES[branch])
        merged = _hook_and_jump(forest, second.T)
        union = np.concatenate([first, second])
        assert np.array_equal(merged, self.reference(monkeypatch, n, union))
        assert not merged.any()


class TestEndpointRows:
    """The labeler reads (2, m') endpoint rows, and a fresh world starts
    from the identity forest, given as its entry count."""

    @pytest.mark.parametrize("branch", sorted(BRANCHES))
    @pytest.mark.parametrize("case", ["retained", "reversed", "self-loop", "no-edges"])
    def test_identity_count_matches_arange_and_oracle(self, monkeypatch, branch, case):
        """ER worlds, some pairs given as (v, u), one with a loop added and
        one with no edges, label alike from N and from `arange(N)`."""
        monkeypatch.setattr(percolation, "_CHASE_SHARE", BRANCHES[branch])
        n = 80
        for i in range(8):
            g = generate_er(n, 0.03, rng_seed=child_seed(37, i))
            edges = percolate(g, 0.7, rng_seed=child_seed(38, i))
            if case == "reversed":
                edges = np.concatenate([edges[::2], edges[1::2, ::-1]])
            elif case == "self-loop":
                edges = np.concatenate([edges, [[7, 7]]])
            elif case == "no-edges":
                edges = edges[:0]
            rows = np.ascontiguousarray(edges.T)
            root = _hook_and_jump(n, rows)
            assert np.array_equal(root, _hook_and_jump(np.arange(n), rows))
            assert np.array_equal(root, lowest_members(n, edges))

    @pytest.mark.parametrize("k", [1, 4], ids=["one-per-block", "blocks-of-4"])
    def test_union_and_parts_are_contiguous_rows(self, monkeypatch, k):
        """The union is built once per call as two C-contiguous rows of
        trial-major, offset endpoints; a block reads a prefix of each (10
        trials in blocks of 4 leave a block of 2), and every part it admits
        is C-contiguous (2, m') rows with numpy's own int64 descriptor."""
        g = generate_er(50, 0.08, rng_seed=child_seed(39, 0))
        n, m = g.node_count, g.edge_count
        monkeypatch.setattr(percolation, "_BLOCK_NODES", k * n)
        seen = []
        admitted = percolation._admitted

        def spy(edges, *args):
            parts = admitted(edges, *args)
            seen.append((edges, parts))
            return parts

        monkeypatch.setattr(percolation, "_admitted", spy)
        grid = [0.6, 0.2, 1.0]
        list(world_blocks(g, grid, 40, 10))
        assert [edges.shape[1] // m for edges, _ in seen] == (
            [1] * 10 if k == 1 else [4, 4, 2]
        )
        for edges, parts in seen:
            rows = edges.shape[1] // m
            offsets = np.arange(0, rows * n, n)
            want = (g.edges.T[:, None, :] + offsets[:, None]).reshape(2, -1)
            assert np.array_equal(edges, want)
            assert edges[0].flags.c_contiguous and edges[1].flags.c_contiguous
            assert np.shares_memory(edges, seen[0][0])
            assert len(parts) == len(grid)
            for part in parts:
                assert part.shape[0] == 2 and part.flags.c_contiguous
                assert part.dtype is np.dtype(np.int64)
            assert sum(part.shape[1] for part in parts) == edges.shape[1]


class TestGraphRows:
    """`Graph` keeps its edges as one C-contiguous, read-only (2, m) array of
    endpoint rows, and a lone world labels those rows in place."""

    def test_a_lone_world_labels_the_graphs_own_rows(self, monkeypatch):
        n = percolation._BLOCK_NODES // 2 + 1
        g = generate_er(n, 2 / n, rng_seed=child_seed(41, 3))
        seen = []
        admitted = percolation._admitted

        def spy(edges, *args):
            seen.append(edges)
            return admitted(edges, *args)

        monkeypatch.setattr(percolation, "_admitted", spy)
        record_worlds(g, 0.5, None, 3, 42)
        assert len(seen) == 3
        for edges in seen:
            assert edges.shape == (2, g.edge_count)
            assert np.shares_memory(edges, g.edges)

    @pytest.fixture(params=["er", "chung-lu", "file-miss", "file-hit"])
    def graph(self, request, tmp_path, monkeypatch):
        """A generated graph, or a dumped one loaded once (a cache miss) or
        twice (the second load a hit)."""
        if request.param == "er":
            return generate_er(300, 0.02, rng_seed=child_seed(41, 0))
        if request.param == "chung-lu":
            weights = chung_lu_weights(300, 2.0, 1.5)
            return generate_chung_lu(weights, rng_seed=child_seed(41, 1))
        path = tmp_path / "g.txt"
        dump_edge_list(generate_er(300, 0.02, rng_seed=child_seed(41, 2)), path)
        parses, parse = [], graph_module._parse_edge_list
        monkeypatch.setattr(
            graph_module, "_parse_edge_list", lambda *a: parses.append(a) or parse(*a)
        )
        g = load_edge_list(path)
        if request.param == "file-hit":
            g = load_edge_list(path)
        assert len(parses) == 1
        return g

    def test_rows_are_contiguous_read_only_and_kept(self, monkeypatch, graph):
        """Whether generated, parsed or read from the cache, the rows are
        C-contiguous and refuse writes, and drawing worlds, each labeled
        alone on those rows, leaves them as they were."""
        g = graph
        assert g.edge_count > 0
        assert g.edges.T.flags.c_contiguous
        before = g.edges.copy()
        with pytest.raises(ValueError, match="read-only"):
            g.edges[0, 0] = 1
        monkeypatch.setattr(percolation, "_BLOCK_NODES", 1)
        record_worlds(g, 0.6, 1, 20, 43)
        spec = MechanismSpec("laplace", scale=2.0)
        evaluate_attack(g, 0.6, 1, spec, [0.5], 20, 44, g.node_count / 2)
        assert np.array_equal(g.edges, before)


# the chase branch with its final full pass deleted, so that nodes below a
# hooked root keep pointing at it; merging a chain of stars with it leaves a
# crossing edge whose hook lowers nothing, round after round
CHASE_WITHOUT_FULL_PASS = """
import inspect, math, time
import numpy as np
from cascadelab import percolation
stars, size = 64, 8
first = [(b * size, b * size + i) for b in range(stars) for i in range(1, size)]
second = [(b * size + size - 1, (b - 1) * size + 3) for b in range(1, stars)]
forest = percolation._hook_and_jump(np.arange(stars * size), np.array(first).T)
full_pass = "\\n            root = root.take(root)\\n"
source = inspect.getsource(percolation._hook_and_jump)
assert source.count(full_pass) == 1
# redefined in the module itself, so that it reads the module's globals
exec(source.replace(full_pass, "\\n"), vars(percolation))
percolation._CHASE_SHARE = math.inf
start = time.perf_counter()
try:
    percolation._hook_and_jump(forest, np.array(second).T)
except RuntimeError as exc:
    print(f"{time.perf_counter() - start:.3f} {exc}")
"""


class TestLabelerFaults:
    """A labeler whose forest is no longer one of stars raises, instead of
    running its rounds forever."""

    def test_chase_without_its_full_pass_raises(self):
        """Run in a subprocess, so that a labeler that spins fails the test
        by the timeout instead of stalling the suite."""
        src = Path(percolation.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-c", CHASE_WITHOUT_FULL_PASS],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=30,
            check=True,
        )
        seconds, message = done.stdout.split(" ", 1)
        assert float(seconds) < 1.0
        assert "lowered no root" in message

    @pytest.mark.parametrize("branch", sorted(BRANCHES))
    def test_jump_loop_is_bounded(self, monkeypatch, branch):
        """A jump loop that needs more than `_MAX_JUMPS` passes raises: the
        300-node descending path needs ten, nine that move entries and one
        that finds none moved."""
        monkeypatch.setattr(percolation, "_CHASE_SHARE", BRANCHES[branch])
        n, edges = _descending_path()
        monkeypatch.setattr(percolation, "_MAX_JUMPS", 9)
        with pytest.raises(RuntimeError, match="after 9 jumps"):
            _hook_and_jump(np.arange(n, dtype=np.int64), edges.T)
        monkeypatch.setattr(percolation, "_MAX_JUMPS", 10)
        assert not _hook_and_jump(np.arange(n, dtype=np.int64), edges.T).any()


class TestRunCascade:
    """The cascade `world_blocks` gathers for each row of a block."""

    def test_full_retention_single_seed_activates_all(self):
        g = generate_er(20, 0.4, rng_seed=16)
        assert label_world(20, g.edges).giant_size == 20
        for block in world_blocks(g, 1.0, 0, 12, s=1):
            assert block.counts.tolist() == [20] * len(block.trial_seeds)
            assert block.activated.all() and block.giant_active.all()

    def test_partial_path(self):
        g = Graph(3, [[0, 1]])
        seen = set()
        for block in world_blocks(g, 1.0, 7, 30, s=1):
            for seed, active, count in zip(
                block.seeds[:, 0].tolist(), block.activated, block.counts
            ):
                want = [True, True, False] if seed < 2 else [False, False, True]
                assert active.tolist() == want
                assert count == sum(want)
                seen.add(seed)
        assert seen == {0, 1, 2}

    def test_matches_bfs_oracle_on_random_worlds(self):
        for i in range(6):
            g = generate_er(15, 0.15, rng_seed=child_seed(17, i))
            for block in world_blocks(g, 0.6, child_seed(18, i), 10, s=3):
                rows = zip(
                    block.trial_seeds, block.seeds, block.activated, block.counts
                )
                for ts, seeds, active, count in rows:
                    retained = percolate(g, 0.6, child_seed(ts, 0))
                    expect = bfs_activated(15, retained, seeds)
                    assert set(np.flatnonzero(active).tolist()) == expect
                    assert count == len(expect)

    def test_giant_active_agrees_with_membership(self):
        seen = set()
        for i in range(4):
            g = generate_er(30, 0.08, rng_seed=child_seed(20, i))
            for block in world_blocks(g, 0.8, child_seed(21, i), 10, s=2):
                rows = zip(
                    block.in_giant,
                    block.seeds,
                    block.giant_active.tolist(),
                    block.counts,
                    block.giant_size,
                )
                for in_giant, seeds, active, count, giant_size in rows:
                    assert active == in_giant[seeds].any()
                    if active:
                        assert count >= giant_size
                    seen.add(active)
        assert seen == {False, True}

class TestSampleSeeds:
    """The seeds `world_blocks` draws for a trial (`_draw_seeds`)."""

    def test_all_nodes_when_s_equals_n(self):
        assert _draw_seeds(5, 5, rng_from_seed(1)).tolist() == [0, 1, 2, 3, 4]

    def test_uniform_over_nodes(self):
        draws = 10_000
        counts = np.zeros(5, dtype=int)
        for i in range(draws):
            counts[_draw_seeds(5, 1, rng_from_seed(child_seed(23, i)))[0]] += 1
        se = math.sqrt(draws * 0.2 * 0.8)
        assert np.all(np.abs(counts - draws * 0.2) <= 3 * se)

    def test_sorted_without_replacement(self):
        s = _draw_seeds(40, 10, rng_from_seed(24))
        assert len(set(s.tolist())) == 10
        assert np.all(np.diff(s) > 0)

    @pytest.mark.parametrize("n", [1, 2, 7, 2500, 10_001, 28_374, 3_037_000_500])
    def test_one_seed_is_what_choice_draws(self, n):
        """A single seed is drawn by `integers`, which must give the node
        that `choice(n, 1, replace=False)` (the `sample_seeds` oracle)
        gives, up to the largest n a `Graph` allows."""
        for i in range(500):
            seed = child_seed(n, i)
            want = sample_seeds(n, 1, seed)
            got = _draw_seeds(n, 1, rng_from_seed(seed))
            assert np.array_equal(got, want) and got.dtype == want.dtype


def stacked(blocks, *fields):
    """Each named `WorldBlock` field over all blocks, one row per trial."""
    blocks = list(blocks)
    return [np.concatenate([getattr(b, f) for b in blocks]) for f in fields]


def sweep_rows(g, grid, rng_seed, trials):
    """Giant and second sizes of `world_blocks` over a grid, trials × q."""
    giant = np.empty((trials, len(grid)), dtype=np.int64)
    second = np.empty((trials, len(grid)), dtype=np.int64)
    for block in world_blocks(g, grid, rng_seed, trials):
        giant[block.rows, block.qi] = block.giant_size
        second[block.rows, block.qi] = block.second_size
    return giant, second


def traced_peak(run):
    """The peak of memory that tracemalloc traces while `run()` runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def check_blocks_against_worlds_alone(monkeypatch, g, q, k):
    """With blocks of k trials (10 trials leave a block of 2 at k = 4),
    each block comes once per q, and row i of the block at qi is trial
    start + i labeled and seeded alone at the grid's qi-th q. Returns the
    blocks."""
    grid = np.atleast_1d(q).tolist()
    n, trials = g.node_count, 10
    monkeypatch.setattr(percolation, "_BLOCK_NODES", k * n)
    blocks = list(world_blocks(g, q, 19, trials, s=1))
    starts = list(range(0, trials, k))
    assert [(b.start, b.qi) for b in blocks] == [
        (start, qi)
        for start in starts
        for qi in np.argsort(grid, kind="stable").tolist()
    ]
    for block in blocks:
        assert len(block.trial_seeds) == min(k, trials - block.start)
        at_q = grid[block.qi]
        for i, ts in enumerate(block.trial_seeds):
            assert ts == child_seed(19, block.start + i)
            retained = percolate(g, at_q, child_seed(ts, 0))
            ref = label_world(n, retained)
            assert np.array_equal(block.root[i] - i * n, ref.root)
            got = block.giant_root[i] - i * n, block.giant_size[i]
            assert got + (block.second_size[i],) == ref[1:]
            seeds = sample_seeds(n, 1, child_seed(ts, 1))
            assert np.array_equal(block.seeds[i], seeds)
            active = bfs_activated(n, retained, seeds)
            assert set(np.flatnonzero(block.activated[i]).tolist()) == active
            assert block.counts[i] == len(active)
            seeded_giant = (ref.root[seeds] == ref.giant_root).any()
            assert block.giant_active[i] == seeded_giant
    return blocks


class TestWorlds:
    """`world_blocks` at one q."""

    def test_trial_streams_and_outcomes(self):
        g = generate_er(40, 0.08, rng_seed=18)
        blocks = list(world_blocks(g, 0.5, 19, 6, s=2))
        drawn = [ts for block in blocks for ts in block.trial_seeds]
        assert drawn == [child_seed(19, t) for t in range(6)]
        for block in blocks:
            assert block.qi == 0
            for i, ts in enumerate(block.trial_seeds):
                retained = percolate(g, 0.5, child_seed(ts, 0))
                root = block.root[i] - 40 * i
                assert np.array_equal(root, label_world(40, retained).root)
                want = sample_seeds(40, 2, child_seed(ts, 1))
                assert np.array_equal(block.seeds[i], want)
        for block in world_blocks(g, 0.5, 19, 3):
            cascade = block.seeds, block.activated, block.counts, block.giant_active
            assert cascade == (None, None, None, None)
            assert block.release_states is None

    def test_release_states_are_sub_stream_2(self, monkeypatch):
        """Row i's release state is the state numpy's own PCG64 starts from
        for sub-stream 2 of its trial seed, across chunk boundaries (chunks
        of 7 trials) and block boundaries (blocks of 3), at every q."""
        g = generate_er(30, 0.1, rng_seed=20)
        monkeypatch.setattr(seeding, "_CHUNK_TRIALS", 7)
        monkeypatch.setattr(percolation, "_BLOCK_NODES", 3 * 30)
        blocks = list(world_blocks(g, [0.6, 0.3], 21, 23, s=1))
        assert {b.start for b in blocks} == set(range(0, 23, 3))
        for block in blocks:
            assert len(block.release_states) == len(block.trial_seeds)
            for ts, state in zip(block.trial_seeds, block.release_states):
                want = np.random.PCG64(child_seed(ts, 2)).state["state"]
                assert state == (want["state"], want["inc"])

    def test_validation(self):
        g = Graph(3, [[0, 1]])
        with pytest.raises(ValueError, match="trials"):
            next(world_blocks(g, 0.5, 1, 0))
        for s in (0, 4):
            with pytest.raises(ValueError, match="s must"):
                next(world_blocks(g, 0.5, 1, 5, s=s))
            with pytest.raises(ValueError, match="s must"):
                record_worlds(g, 0.5, s, 5, 1)
        for q in (0.0, 1.5):
            with pytest.raises(ValueError, match="q must"):
                next(world_blocks(g, q, 1, 2))

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
        make, q = self.BLOCKED[world]
        blocks = check_blocks_against_worlds_alone(monkeypatch, make(), q, k)
        assert all(block.qi == 0 for block in blocks)
        if world == "tied-top":
            assert all(block.tie.all() for block in blocks)

    def test_no_block_holds_memory_into_the_next(self):
        """Drawing 4 worlds peaks no higher than drawing 1.

        Each block here holds one world. Its admitted edges (about 1.4 MB)
        must be freed before the next block draws its coins; held over,
        they raised the 4-world peak by about 15 %. A world's own peak
        moves with its admitted edge count by a few kB, about 0.2 % here,
        hence the 2 % margin.
        """
        g = generate_chung_lu(chung_lu_weights(10**5, 2, 1.5), 7)
        peaks = [
            traced_peak(lambda: collections.deque(world_blocks(g, 0.3, 11, t), maxlen=0))
            for t in (1, 4)
        ]
        assert peaks[1] <= 1.02 * peaks[0]

    @pytest.mark.parametrize("estimator", ["membership", "record"])
    def test_estimators_free_each_block_before_the_next(self, estimator):
        """Estimating over 4 worlds peaks no higher than over 1.

        As above, each block holds one world. A consumer that keeps its
        last block bound while the next one is labeled holds that block's
        roots (0.8 MB here), and raised the 4-world peak by about 11 %.
        With seeds, `record_worlds` also keeps a bit per node and trial,
        38 kB more for 4 worlds than for 1.
        """
        g = generate_chung_lu(chung_lu_weights(10**5, 2, 1.5), 7)
        run = {
            "membership": lambda t: record_worlds(g, 0.3, None, t, 11),
            "record": lambda t: record_worlds(g, 0.3, 1, t, 11),
        }[estimator]
        peaks = [traced_peak(lambda: run(t)) for t in (1, 4)]
        assert peaks[1] <= 1.02 * peaks[0]


@pytest.fixture(scope="module")
def chung_lu_1e5():
    weights = chung_lu_weights(10**5, 2.0, 1.5)
    return generate_chung_lu(weights, rng_seed=child_seed(45, 0))


class TestWorldsAtScale:
    """`world_blocks` at n = 10^5, where every world is labeled alone on the
    graph's own rows, against scipy's csgraph labeling of the same worlds.
    At both q the first round jumps every entry and later rounds chase the
    hooked roots, so both branches of the labeler's cut-off run."""

    @pytest.mark.parametrize("s", [None, 1], ids=["seedless", "one-seed"])
    @pytest.mark.parametrize("q", [0.3, 0.9])
    def test_scipy_labels_each_world(self, chung_lu_1e5, q, s):
        g = chung_lu_1e5
        n, trials = g.node_count, 4
        assert n > percolation._BLOCK_NODES // 2
        blocks = list(world_blocks(g, q, 46, trials, s))
        assert [b.start for b in blocks] == list(range(trials))
        for t, block in enumerate(blocks):
            assert block.trial_seeds == [child_seed(46, t)]
            retained = percolate(g, q, child_seed(child_seed(46, t), 0))
            u, v = retained.T
            mat = sparse.csr_matrix((np.ones(u.size), (u, v)), shape=(n, n))
            _, raw = csgraph.connected_components(mat, directed=False)
            first_member = np.unique(raw, return_index=True)[1]
            sizes = np.bincount(raw)
            assert np.array_equal(block.root[0], first_member[raw])
            assert block.giant_root[0] == first_member[np.argmax(sizes)]
            assert block.giant_size[0] == sizes.max()
            assert block.second_size[0] == np.sort(sizes)[-2]
            if s is None:
                assert block.counts is None
            else:
                reached = np.unique(raw[block.seeds[0]])
                assert block.counts[0] == sizes[reached].sum()


class TestCoupledWorlds:
    """`world_blocks` over a q grid: each trial's worlds at every q share
    its coins, so they are coupled across the grid."""

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
        giant, second = sweep_rows(g, grid, 33, 5)
        for t in range(5):
            for qi, q in enumerate(grid):
                retained = percolate(g, q, child_seed(child_seed(33, t), 0))
                ref = label_world(g.node_count, retained)
                got = giant[t, qi], second[t, qi]
                assert got == (ref.giant_size, ref.second_size)

    BLOCKED = {
        "er": (
            lambda: generate_er(40, 0.08, rng_seed=18),
            [0.6, 0.1, 0.35, 0.6, 1.0, 0.25],
        ),
        "edgeless": (lambda: Graph(5, []), [0.5, 1.0, 0.5]),
        "one-node": (lambda: Graph(1, []), [1.0, 0.3]),
        # three components of two nodes: at q = 1 the top two tie
        "tied-top": (lambda: Graph(6, [[0, 1], [2, 3], [4, 5]]), [1.0]),
        # 300 columns, unsorted, q = 1 among them: more than a byte indexes
        "long-grid": (
            lambda: generate_er(30, 0.1, rng_seed=38),
            ((np.arange(300) * 37 % 300 + 1) / 300).tolist(),
        ),
    }

    @pytest.mark.parametrize("k", [1, 4], ids=["one-per-block", "remainder"])
    @pytest.mark.parametrize("world", sorted(BLOCKED))
    def test_blocks_match_worlds_labeled_from_scratch(self, monkeypatch, world, k):
        make, grid = self.BLOCKED[world]
        blocks = check_blocks_against_worlds_alone(monkeypatch, make(), grid, k)
        if world == "tied-top":
            assert all(block.tie.all() for block in blocks)
        if world == "edgeless":
            assert all((block.giant_size == 1).all() for block in blocks)
            assert all(block.tie.all() for block in blocks)

    @pytest.mark.parametrize("kind", sorted(SUBSTRATES))
    def test_giant_never_shrinks_as_q_grows(self, kind):
        g = self.SUBSTRATES[kind]()
        grid = [0.9, 0.05, 0.5, 0.2, 0.7, 0.35, 1.0]
        giant, _ = sweep_rows(g, grid, 34, 8)
        assert np.all(np.diff(giant[:, np.argsort(grid)], axis=1) >= 0)

    def test_walks_the_grid_in_ascending_q(self):
        """Column qi holds q_grid[qi] whatever order the grid is given in:
        a shuffled grid's columns are the sorted grid's, shuffled alike,
        and equal q give equal columns."""
        g = generate_er(60, 0.1, rng_seed=35)
        grid = [0.5, 0.2, 0.5, 0.1]
        by_q = [sorted(grid).index(q) for q in grid]
        shuffled = sweep_rows(g, grid, 36, 6)
        ascending = sweep_rows(g, sorted(grid), 36, 6)
        for sizes, want in zip(shuffled, ascending):
            assert np.array_equal(sizes, want[:, by_q])
            assert np.array_equal(sizes[:, 0], sizes[:, 2])
        giant = shuffled[0]
        assert (giant[:, 3] < giant[:, 1]).any() and (giant[:, 1] < giant[:, 0]).any()

    def test_edgeless_graph(self):
        g = Graph(4, [])
        giant, second = sweep_rows(g, [0.5, 1.0], 37, 2)
        assert giant.tolist() == second.tolist() == [[1, 1], [1, 1]]

    def test_validation(self):
        g = Graph(3, [[0, 1]])
        with pytest.raises(ValueError, match="trials"):
            next(world_blocks(g, [0.5], 1, 0))
        for grid in ([], [0.5, 0.0], [1.5]):
            with pytest.raises(ValueError, match="q must"):
                next(world_blocks(g, grid, 1, 2))


class TestRecordWorlds:
    def test_rows_are_worlds_ordered_by_count(self):
        """Row r is the trial of r-th smallest count (ties in trial order);
        n = 70 leaves padding bits in the last packed byte."""
        n, q, s, trials, seed = 70, 0.5, 2, 90, 42
        g = generate_er(n, 0.05, rng_seed=41)
        counts, giant_active, tie, bits = stacked(
            world_blocks(g, q, seed, trials, s),
            "counts", "giant_active", "tie", "activated",
        )
        order = sorted(range(trials), key=lambda t: counts[t])
        rec = record_worlds(g, q, s, trials, seed)
        assert rec.counts.tolist() == counts[order].tolist()
        assert rec.giant_active.tolist() == giant_active[order].tolist()
        assert rec.tie.tolist() == tie[order].tolist()
        for v in range(n):
            assert np.array_equal(rec.activated(v), bits[order, v])
        assert rec.packed.shape == (trials, 9)

    def test_membership_and_splits_match_estimators(self):
        """The membership and sizes match a record drawn without seeds,
        whose coins are the same, and both splits match the same trials
        read straight off `world_blocks`."""
        n, q, s, trials, seed = 90, 0.4, 1, 120, 43
        g = generate_er(n, 0.04, rng_seed=44)
        rec = record_worlds(g, q, s, trials, seed)
        seedless = record_worlds(g, q, None, trials, seed)
        got, want = rec.membership(), seedless.membership()
        assert np.array_equal(got.frequency, want.frequency)
        assert got.ties_broken == want.ties_broken
        counts, giant_active, tie, bits = stacked(
            world_blocks(g, q, seed, trials, s),
            "counts", "giant_active", "tie", "activated",
        )
        order = np.argsort(counts, kind="stable")
        assert np.array_equal(rec.giant_size, seedless.giant_size[order])
        assert np.array_equal(rec.second_size, seedless.second_size[order])
        branches = ([], [])
        for count, active in zip(counts, (giant_active & ~tie).tolist()):
            branches[active].append(count)
        for got, samples in zip(rec.giant_split(), branches):
            assert got.tolist() == sorted(samples)
        assert rec.tie.sum() == tie.sum()
        x0, x1 = rec.node_split(5)
        assert x0.tolist() == sorted(counts[~bits[:, 5]].tolist())
        assert x1.tolist() == sorted(counts[bits[:, 5]].tolist())

    def test_splits_are_ascending_int64_partitions(self):
        """Both splits return two ascending int64 count samples that
        together hold every trial."""
        g = generate_er(120, 0.03, rng_seed=47)
        trials = 150
        rec = record_worlds(g, 0.5, 1, trials, 48)
        splits = [rec.giant_split()] + [rec.node_split(v) for v in (0, 7, 119)]
        for x0, x1 in splits:
            for x in (x0, x1):
                assert x.dtype == np.int64
                assert np.all(np.diff(x) >= 0)
            assert x0.size + x1.size == trials
            assert sorted(np.concatenate((x0, x1)).tolist()) == rec.counts.tolist()

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

    def test_seedless_record_is_a_fold_over_world_blocks(self):
        """Without seeds the rows keep trial order, and the sizes and the
        membership equal a fold written here over `world_blocks`."""
        n, q, trials, seed = 80, 0.5, 70, 49
        g = generate_er(n, 0.04, rng_seed=50)
        giant_size = np.empty(trials, dtype=np.int64)
        second_size = np.empty(trials, dtype=np.int64)
        hits = np.zeros(n, dtype=np.int64)
        ties = 0
        for block in world_blocks(g, q, seed, trials):
            giant_size[block.rows] = block.giant_size
            second_size[block.rows] = block.second_size
            hits += block.in_giant.sum(axis=0)
            ties += int(block.tie.sum())
        rec = record_worlds(g, q, None, trials, seed)
        assert rec.counts is None and rec.packed is None and rec.giant_active is None
        assert rec.giant_size.tolist() == giant_size.tolist()
        assert rec.second_size.tolist() == second_size.tolist()
        est = rec.membership()
        assert est.trials == trials
        assert np.array_equal(est.frequency, hits / trials)
        assert est.ties_broken == ties

    def test_seedless_record_is_block_invariant(self, monkeypatch):
        """At n = 120 the default budget makes one block of 100 trials,
        B = 840 blocks of 7 that end in a block of 2, and B = 1 one trial
        per block; every field comes out the same."""
        g = generate_er(120, 5 / 119, rng_seed=51)
        records = []
        for budget in (percolation._BLOCK_NODES, 1, 7 * 120):
            monkeypatch.setattr(percolation, "_BLOCK_NODES", budget)
            records.append(record_worlds(g, 0.4, None, 100, 52))
        for rec in records[1:]:
            for got, want in zip(rec, records[0]):
                assert got is want is None or np.array_equal(got, want)

    def test_seedless_fold_counts_the_largest_block(self):
        """A one-node graph puts B = 2^14 trials in each block, the most a
        block holds; the giant-hit fold counts every one of them."""
        trials = percolation._BLOCK_NODES + 3
        est = membership(Graph(1, []), 0.5, trials, 54)
        assert est.frequency.tolist() == [1.0]
        assert est.trials == trials

    @pytest.mark.parametrize("q", [[0.3, 0.9], [0.3], np.array([0.5])])
    def test_refuses_a_q_that_is_not_one_number(self, q):
        """A grid would fold the worlds of every q into one record's rows:
        [0.3, 0.9] gave membership frequencies up to 1.9."""
        g = generate_er(200, 0.02, rng_seed=1)
        for s in (None, 1):
            with pytest.raises(ValueError, match="q must be one number"):
                record_worlds(g, q, s, 10, 3)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_refuses_a_trial_count_below_1(self, trials):
        """The count is checked before the rows are allocated: -3 failed on
        numpy's "negative dimensions are not allowed"."""
        g = generate_er(200, 0.02, rng_seed=1)
        for s in (None, 1):
            with pytest.raises(ValueError, match="trials must be >= 1"):
                record_worlds(g, 0.5, s, trials, 3)

    def test_seedless_record_refuses_the_seeded_reductions(self):
        rec = record_worlds(Graph(4, [[0, 1]]), 0.5, None, 5, 53)
        reads = (lambda: rec.activated(0), lambda: rec.node_split(0), rec.giant_split)
        for read in reads:
            with pytest.raises(ValueError, match="drew no seeds"):
                read()


class TestMembership:
    def test_complete_graph_full_retention(self):
        g = Graph(5, list(itertools.combinations(range(5), 2)))
        est = membership(g, 1.0, trials=10, rng_seed=1)
        assert np.all(est.frequency == 1.0)
        assert est.ties_broken == 0

    def test_edgeless_graph_tie_policy(self):
        # every trial ties at size 1; lowest-id rule hands node 0 the giant
        g = Graph(4, [])
        est = membership(g, 0.5, trials=20, rng_seed=2)
        assert est.frequency.tolist() == [1.0, 0.0, 0.0, 0.0]
        assert est.ties_broken == 20

    def test_frequencies_times_trials_integral(self):
        g = generate_er(60, 0.05, rng_seed=25)
        est = membership(g, 0.5, trials=37, rng_seed=26)
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
        est = membership(g, 0.4, trials=48, rng_seed=28)
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
        est = membership(g, 0.6, trials=trials, rng_seed=30)
        assert np.allclose(est.frequency, expect / trials)


class TestConditionalCountDistributions:
    def test_connected_full_retention_errors_on_inactive_branch(self):
        g = Graph(4, [[0, 1], [1, 2], [2, 3]])
        with pytest.raises(DegenerateConditioningError, match="x_v=0"):
            count_split(g, 1.0, 1, 0, trials=50, rng_seed=1)

    def test_disjoint_edges_full_retention(self):
        g = Graph(4, [[0, 1], [2, 3]])
        x0, x1 = count_split(g, 1.0, 1, 0, trials=200, rng_seed=2)
        # every world activates exactly one two-node component
        assert set(x0.tolist()) == set(x1.tolist()) == {2}
        assert x0.size + x1.size == 200

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

        x0, x1 = count_split(g, 0.5, 1, v, trials=trials, rng_seed=6)
        for x, exact in ((x0, exact0), (x1, exact1)):
            values, counts = np.unique(x, return_counts=True)
            emp = dict(zip(values.tolist(), (counts / x.size).tolist()))
            assert set(emp) <= set(exact)
            for atom, p in exact.items():
                se = math.sqrt(p * (1 - p) / x.size)
                assert abs(emp.get(atom, 0.0) - p) <= 3 * se

    def test_branch_split_is_exact_partition(self):
        g = generate_er(40, 0.06, rng_seed=31)
        x0, x1 = count_split(g, 0.5, 2, 5, trials=300, rng_seed=4)
        assert x0.size + x1.size == 300

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
        for sample, samples in zip(got, branches):
            assert sample.tolist() == sorted(samples)


class TestConditionalGiantDistributions:
    def test_connected_full_retention_errors(self):
        g = Graph(3, [[0, 1], [1, 2]])
        with pytest.raises(DegenerateConditioningError, match="inactive branch"):
            giant_split(g, 1.0, 1, trials=40, rng_seed=1)

    def test_single_edge_four_worlds(self):
        # edge kept: X=2 and the seed is always in the giant. Edge dropped:
        # sizes tie at [1,1], the trial lands in the inactive branch, X=1.
        g = Graph(2, [[0, 1]])
        record = record_worlds(g, 0.5, 1, trials=400, rng_seed=2)
        x0, x1 = record.giant_split()
        assert set(x1.tolist()) == {2}
        assert set(x0.tolist()) == {1}
        assert record.tie.sum() == x0.size

    def test_sparse_giant_separation(self):
        """Supercritical thinned graph: the seeded-giant counts sit far above
        the rest, so the observed supports leave a wide gap."""
        n = 2500
        g = generate_er(n, 5 / (n - 1), rng_seed=child_seed(33, 0))
        x0, x1 = giant_split(g, 0.3, 1, trials=1000, rng_seed=34)
        assert x1[0] - x0[-1] >= 0.3 * n

    def test_midpoint_between_extremes(self):
        g = generate_er(300, 0.01, rng_seed=35)
        x0, x1 = giant_split(g, 0.5, 1, trials=200, rng_seed=36)
        inactive_max, active_min = float(x0[-1]), float(x1[0])
        assert inactive_max < 0.5 * (inactive_max + active_min) < active_min
