"""Tests for graph construction, generators, and edge-list files."""

import collections
import logging
import math
import os
import pickle
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import stats

from cascadelab import graph as graph_module
from cascadelab.graph import (
    _WHITESPACE,
    EdgeListFormatError,
    EdgeListReport,
    Graph,
    NodeWeights,
    _block_pair,
    chung_lu_weights,
    dump_edge_list,
    generate_chung_lu,
    generate_er,
    load_edge_list,
)
from cascadelab.seeding import child_seed

from oracles import adjacency, chung_lu_expected_edges, load_edge_list_per_line


class TestGraph:
    def test_canonical_edge_order(self):
        g = Graph(4, [[3, 1], [0, 2], [2, 1]])
        assert g.edges.tolist() == [[0, 2], [1, 2], [1, 3]]
        assert g.edge_count == 3

    def test_canonical_order_matches_sorted_pairs(self):
        """Shuffled rows in random orientation come out as the sorted pairs;
        at n = 3e9 the sort key lo * n + hi nears the int64 limit."""
        rng = np.random.default_rng(5)
        for n in (50, 3_000_000_000):
            draws = rng.integers(0, n, size=(400, 2)).tolist()
            pairs = sorted({(min(u, v), max(u, v)) for u, v in draws if u != v})
            rows = [p if rng.random() < 0.5 else p[::-1] for p in pairs]
            g = Graph(n, [rows[i] for i in rng.permutation(len(rows))])
            assert g.edges.tolist() == [list(p) for p in pairs]

    def test_sorted_shuffled_and_flipped_rows_give_one_graph(self):
        """Rows already in canonical order skip the sort; every other order
        and orientation of the same edges gives equal `edges`."""
        canonical = Graph(60, generate_er(60, 0.2, rng_seed=4).edges).edges
        rng = np.random.default_rng(6)
        flipped = canonical.copy()
        flip = rng.random(len(flipped)) < 0.5
        flipped[flip] = flipped[flip, ::-1]
        shuffled = canonical[rng.permutation(len(canonical))]
        for rows in (canonical, flipped, shuffled, flipped[::-1], canonical[:, ::-1]):
            assert np.array_equal(Graph(60, rows).edges, canonical)

    def test_sorted_rows_with_repeat_or_loop_still_raise(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(4, [[0, 1], [0, 2], [0, 2], [1, 3]])
        with pytest.raises(ValueError, match="self-loop"):
            Graph(4, [[0, 1], [1, 1], [1, 3]])

    def test_never_aliases_the_callers_array(self):
        for rows in ([[0, 1], [1, 2]], [[1, 2], [0, 1]], [[2, 1], [0, 1]]):
            given = np.array(rows, dtype=np.int64)
            g = Graph(3, given)
            assert not np.shares_memory(g.edges, given)
            given[:] = 0
            assert g.edges.tolist() == [[0, 1], [1, 2]]

    def test_unpickled_edges_keep_numpys_int64_descriptor(self):
        """An unpickled array carries an int64 descriptor of its own, and
        ufunc outputs, `take` and `compress` keep it. The labeler feeds edge
        values straight into `np.minimum.at`, which runs about 20x slower on
        such a descriptor (479 against 24 us at 11k values, on 2 vCPUs), so
        `Graph` must hold numpy's canonical one."""
        given = pickle.loads(pickle.dumps(np.array([[0, 1], [1, 2], [2, 3]])))
        for rows in (given, given[::-1], given[:, ::-1], given[:0]):
            assert Graph(4, rows).edges.dtype is np.dtype(np.int64)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(3, [[1, 1]])

    def test_rejects_duplicate_even_reversed(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(3, [[0, 1], [1, 0]])

    def test_rejects_out_of_range_endpoint(self):
        with pytest.raises(ValueError, match="endpoint"):
            Graph(3, [[0, 3]])
        with pytest.raises(ValueError, match="endpoint"):
            Graph(3, [[-1, 2]])

    def test_rejects_empty_node_set(self):
        with pytest.raises(ValueError, match="node_count"):
            Graph(0, [])

    def test_node_count_bound(self):
        """3,037,000,500 is the largest n whose edge keys (at most
        n * n - n - 1) fit in an int64; one more node would wrap them."""
        top = 3_037_000_500
        g = Graph(top, [[top - 1, top - 2], [1, 0]])
        assert g.edges.tolist() == [[0, 1], [top - 2, top - 1]]
        with pytest.raises(ValueError, match="node_count"):
            Graph(top + 1, [[top - 1, top]])

    def test_degrees_sum_to_twice_edges(self):
        g = generate_er(60, 0.1, rng_seed=3)
        assert g.degrees.sum() == 2 * g.edge_count
        # independent recount
        manual = np.zeros(60, dtype=int)
        for u, v in g.edges:
            manual[u] += 1
            manual[v] += 1
        assert np.array_equal(manual, g.degrees)

    def test_adjacency_is_symmetric_and_sorted(self):
        g = generate_er(40, 0.15, rng_seed=4)
        adj = adjacency(g)
        for v in range(40):
            assert np.all(np.diff(adj[v]) > 0)
            for u in adj[v]:
                assert v in adj[int(u)]

    def test_equality_ignores_metadata(self):
        a = Graph(3, [[0, 1]])
        b = Graph(3, [[0, 1]], source_report=EdgeListReport(2, 1))
        assert a == b
        assert a != Graph(3, [[0, 2]])


class TestGenerateEr:
    def test_p_zero_empty(self):
        assert generate_er(4, 0.0, rng_seed=1).edge_count == 0

    def test_p_one_complete(self):
        assert generate_er(4, 1.0, rng_seed=1).edge_count == 6

    def test_deterministic_in_seed(self):
        assert generate_er(50, 0.1, rng_seed=9) == generate_er(50, 0.1, rng_seed=9)
        assert generate_er(50, 0.1, rng_seed=9) != generate_er(50, 0.1, rng_seed=10)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            generate_er(0, 0.5, rng_seed=1)
        # refused before any n-sized allocation
        with pytest.raises(ValueError, match="n must lie in 1..3037000500"):
            generate_er(3_037_000_501, 1e-9, rng_seed=1)
        with pytest.raises(ValueError):
            generate_er(5, 1.5, rng_seed=1)

    def test_mean_edge_count_matches_binomial(self):
        # n=2500, p=5/2499: pair count 2500*2499/2, so mean edges = 6250
        n, p, reps = 2500, 5 / 2499, 100
        counts = [
            generate_er(n, p, rng_seed=child_seed(11, i)).edge_count
            for i in range(reps)
        ]
        pairs = n * (n - 1) / 2
        mean = pairs * p
        se = math.sqrt(pairs * p * (1 - p) / reps)
        assert abs(np.mean(counts) - mean) <= 3 * se

    def test_edge_count_distribution_chi_squared(self):
        """Edge counts over 200 seeds follow Binomial(n(n-1)/2, p)."""
        n, p, reps = 50, 0.08, 200
        pairs = n * (n - 1) // 2
        counts = np.array(
            [generate_er(n, p, rng_seed=child_seed(21, i)).edge_count
             for i in range(reps)]
        )
        # pool the binomial into quintile bins and chi-squared against them
        edges_q = stats.binom.ppf([0.2, 0.4, 0.6, 0.8], pairs, p)
        bins = np.concatenate([[-0.5], edges_q + 0.5, [pairs + 0.5]])
        observed, _ = np.histogram(counts, bins=bins)
        expected = np.diff(stats.binom.cdf(bins, pairs, p)) * reps
        chi2 = ((observed - expected) ** 2 / expected).sum()
        crit = stats.chi2.ppf(0.99, df=len(observed) - 1)
        assert chi2 <= crit


class TestChungLuWeights:
    def test_last_rank_weight_is_d(self):
        w = chung_lu_weights(100, 5.0, 1.7)
        assert w.weights[-1] == pytest.approx(5.0, abs=1e-12)
        assert w.min_degree == 5.0

    def test_top_rank_closed_form(self):
        # w_1 = d * n**(1/b); with b=2 and n=100 that is 5 * 10
        w = chung_lu_weights(100, 5.0, 2.0)
        assert w.weights[0] == pytest.approx(50.0, rel=1e-12)

    def test_weights_non_increasing(self):
        w = chung_lu_weights(500, 3.0, 1.1)
        assert np.all(np.diff(w.weights) <= 0)

    def test_total_matches_independent_sum(self):
        n, d, b = 1000, 5.0, 1.1
        w = chung_lu_weights(n, d, b)
        expected = sum(d * (n / i) ** (1 / b) for i in range(1, n + 1))
        assert w.total == pytest.approx(expected, rel=1e-12)

    def test_validation(self):
        for bad in ((0, 5, 1.1), (10, 0, 1.1), (10, 5, 0)):
            with pytest.raises(ValueError):
                chung_lu_weights(*bad)
        # refused before the n weights are allocated
        with pytest.raises(ValueError, match="n must lie in 1..3037000500"):
            chung_lu_weights(3_037_000_501, 2, 1.5)

    @pytest.mark.parametrize(
        "n, d, b",
        [(1000, 1e306, 1.5), (100, 2.0, 1e-3), (10, math.inf, 1.5),
         (10, math.nan, 1.5)],
    )
    def test_weights_beyond_the_float_range_are_refused_silently(self, n, d, b):
        """A weight or a weight sum that is not a finite float names d and b,
        with no numpy warning on the way."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(f"d={d} and b={b}")):
                chung_lu_weights(n, d, b)


class TestGenerateChungLu:
    def test_deterministic_in_seed(self):
        w = chung_lu_weights(80, 4.0, 1.5)
        assert generate_chung_lu(w, rng_seed=2) == generate_chung_lu(w, rng_seed=2)

    def test_clamped_pair_always_present(self):
        # two heavy nodes with w_i * w_j / total >= 1 must always be joined
        w = chung_lu_weights(50, 8.0, 1.1)
        assert w.weights[0] * w.weights[1] / w.total >= 1.0
        for seed in range(10):
            g = generate_chung_lu(w, rng_seed=seed)
            assert [0, 1] in g.edges.tolist()

    def test_overflowing_pair_products_give_the_exact_graph_silently(self):
        """Weights near 1e200 overflow every product w_i * w_j, but each
        pair's probability min(1, w_i * w_j / total) is 1 anyway."""
        weights = chung_lu_weights(50, 1e200, 1.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = generate_chung_lu(weights, rng_seed=3)
        assert g.edge_count == 50 * 49 // 2

    def test_two_node_edge_probability(self):
        # ranks give w = [2, 1], so the single pair appears w.p. 2/3
        reps = 2000
        weights = chung_lu_weights(2, 1.0, 1.0)
        pr = min(1.0, weights.weights[0] * weights.weights[1] / weights.total)
        assert pr == pytest.approx(2 / 3)
        hits = sum(
            generate_chung_lu(weights, rng_seed=child_seed(31, i)).edge_count
            for i in range(reps)
        )
        se = math.sqrt(reps * pr * (1 - pr))
        assert abs(hits - reps * pr) <= 3 * se

    def test_rank_one_mean_degree_matches_formula(self):
        n, d, b, reps = 2500, 5.0, 1.1, 100
        w = chung_lu_weights(n, d, b)
        expected = np.minimum(1.0, w.weights[0] * w.weights[1:] / w.total).sum()
        got = np.mean(
            [generate_chung_lu(w, rng_seed=child_seed(41, i)).degrees[0]
             for i in range(reps)]
        )
        var = np.sum(
            (lambda pr: pr * (1 - pr))(
                np.minimum(1.0, w.weights[0] * w.weights[1:] / w.total)
            )
        )
        se = math.sqrt(var / reps)
        assert abs(got - expected) <= 3 * se


def plateau_weights() -> NodeWeights:
    """Sixteen non-increasing weights in runs of near-equal values.

    The runs put several nodes on each side of a weight step, and the pair
    probabilities cover clamped pairs (22 of 120), pairs in [1/2, 1) (14)
    and pairs below 1/2 (84).
    """
    w = np.array(
        [40, 38, 36, 14, 13, 12, 11.5, 6, 5.6, 5.2, 4.8, 4.4, 2.4, 2.2, 2.0, 1.8]
    )
    return NodeWeights(
        weights=w, min_degree=1.8, scale=1.0, beta=1.0, total=math.fsum(w)
    )


class PairFrequencyChecks:
    """Every pair is an edge independently with its own probability,
    judged on many draws of one small graph.

    A subclass gives the fixture `law`: the node count, the probability of
    each pair in `np.triu_indices(n, 1)` order, and a draw `sample(t)`.
    """

    DRAWS = 10000

    @pytest.fixture(scope="class")
    def draws(self, law):
        n, probs, sample = law
        hits = np.zeros((n, n), dtype=np.int64)
        counts = np.empty(self.DRAWS, dtype=np.int64)
        for t in range(self.DRAWS):
            g = sample(t)
            hits[g.edges[:, 0], g.edges[:, 1]] += 1
            counts[t] = g.edge_count
        return probs, hits[np.triu_indices(n, 1)], counts

    def test_pair_frequencies_chi_squared(self, draws):
        probs, hits, _ = draws
        free = probs < 1.0
        p, o = probs[free], hits[free]
        chi2 = ((o - self.DRAWS * p) ** 2 / (self.DRAWS * p * (1 - p))).sum()
        assert chi2 <= stats.chi2.ppf(0.999, df=free.sum())

    def test_edge_count_follows_poisson_binomial(self, draws):
        """Independent pairs make the edge count a sum of independent
        Bernoulli variables; its exact law is built by convolution."""
        probs, _, counts = draws
        pmf = np.ones(1)
        for p in probs:
            pmf = np.convolve(pmf, [1.0 - p, p])
        cdf = np.cumsum(pmf)
        cuts = np.unique(np.searchsorted(cdf, np.linspace(0.1, 0.9, 9)))
        observed = np.bincount(
            np.searchsorted(cuts, counts), minlength=cuts.size + 1
        )
        expected = self.DRAWS * np.diff(np.concatenate([[0.0], cdf[cuts], [1.0]]))
        chi2 = ((observed - expected) ** 2 / expected).sum()
        assert chi2 <= stats.chi2.ppf(0.999, df=cuts.size)


class TestChungLuExactness(PairFrequencyChecks):
    """Pair {i, j} is an edge with probability min(1, w_i w_j / total)."""

    @pytest.fixture(scope="class")
    def law(self):
        weights = plateau_weights()
        w = weights.weights
        upper = np.triu_indices(weights.node_count, 1)
        probs = np.minimum(1.0, w[upper[0]] * w[upper[1]] / weights.total)
        return (
            weights.node_count,
            probs,
            lambda t: generate_chung_lu(weights, rng_seed=child_seed(61, t)),
        )

    def test_clamped_pairs_in_every_draw(self, draws):
        probs, hits, _ = draws
        assert (probs >= 1.0).sum() == 22
        assert np.all(hits[probs >= 1.0] == self.DRAWS)

    def test_pair_numbering_inverts_within_huge_layers(self):
        """Within one layer pair number y * (y - 1) / 2 + x decodes to
        (x, y), also where 8 * pos no longer fits a double's mantissa."""
        y = np.array([3, 1000, 10**6, 2 * 10**8, 3 * 10**9], dtype=np.int64)
        first = y * (y - 1) // 2
        pos = np.concatenate([first - 1, first, first + y - 1])
        zero = np.zeros(pos.size, dtype=np.int64)
        i, j = _block_pair(pos, zero, zero, zero + 1, np.ones(pos.size, bool))
        assert np.all(i < j)
        assert np.array_equal(j * (j - 1) // 2 + i, pos)

    @pytest.mark.parametrize("d, b", [(2.0, 1.5), (1.0, 0.8)])
    def test_large_edge_count_matches_oracle(self, d, b):
        weights = chung_lu_weights(200_000, d, b)
        mean, var = chung_lu_expected_edges(weights.weights, weights.total)
        g = generate_chung_lu(weights, rng_seed=child_seed(62, 0))
        assert abs(g.edge_count - mean) <= 4 * math.sqrt(var)


class TestErExactness(PairFrequencyChecks):
    """G(n, p) through the shared block sampler: below 1/2 the one block
    draws distinct uniform pairs with redraws; at 1/2 every pair is a
    candidate, kept with probability p."""

    @pytest.fixture(scope="class", params=[0.2, 0.5], ids=["sparse", "dense"])
    def law(self, request):
        n, p = 16, request.param
        return (
            n,
            np.full(n * (n - 1) // 2, p),
            lambda t: generate_er(n, p, rng_seed=child_seed(63, t)),
        )

    def test_large_edge_count_matches_binomial(self):
        n = 200_000
        p = 5 / (n - 1)
        pairs = n * (n - 1) // 2
        g = generate_er(n, p, rng_seed=child_seed(64, 0))
        assert abs(g.edge_count - pairs * p) <= 4 * math.sqrt(pairs * p * (1 - p))


class TestEdgeListFiles:
    def test_plain_file(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("0 1\n1 2\n")
        g = load_edge_list(f)
        assert g.node_count == 3
        assert g.edge_count == 2

    def test_arbitrary_tokens_compact_in_first_seen_order(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("alice bob\nbob carol\n")
        g = load_edge_list(f)
        assert g.node_count == 3
        assert g.edges.tolist() == [[0, 1], [1, 2]]

    def test_duplicates_and_self_loops_dropped_with_counts(self, tmp_path, caplog):
        f = tmp_path / "g.txt"
        f.write_text("a b\nb a\na a\n")
        with caplog.at_level(logging.WARNING):
            g = load_edge_list(f)
        assert g.node_count == 2
        assert g.edge_count == 1
        assert g.source_report.duplicates_dropped == 1
        assert g.source_report.self_loops_dropped == 1
        assert "dropped" in caplog.text

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("# a comment\n\n0 1\n# another\n1 2\n")
        assert load_edge_list(f).edge_count == 2

    def test_malformed_line_reports_line_number(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("0 1\n0 1 2\n")
        with pytest.raises(EdgeListFormatError, match=r"g\.txt:2"):
            load_edge_list(f)

    def test_one_token_line_reports_line_number(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("# a comment\n\n0 1\n  # indented\n\t\n5\n1 2\n")
        with pytest.raises(EdgeListFormatError, match=r"g\.txt:6: .* found 1 tokens"):
            load_edge_list(f)

    @pytest.mark.parametrize(
        "record, message",
        [("x 2", r"non-integer id 'x'"), ("0 7", r"id 7 outside 0\.\.2")],
    )
    def test_canonical_header_errors_report_line_number(
        self, tmp_path, record, message
    ):
        f = tmp_path / "g.txt"
        f.write_text(f"\n# nodes=3 edges=2\n# a comment\n\n0 1\n{record}\n1 2 3\n")
        with pytest.raises(EdgeListFormatError, match=rf"g\.txt:6: {message}"):
            load_edge_list(f)

    def test_dump_then_load_round_trip(self, tmp_path):
        g = generate_er(40, 0.12, rng_seed=8)
        path = tmp_path / "dump.txt"
        dump_edge_list(g, path)
        again = load_edge_list(path)
        assert again == g
        assert again.node_count == g.node_count  # isolated nodes kept

    def test_round_trip_preserves_isolated_nodes(self, tmp_path):
        g = Graph(5, [[0, 1]])
        path = tmp_path / "dump.txt"
        dump_edge_list(g, path)
        assert load_edge_list(path).node_count == 5

    def test_dump_of_edgeless_graph_is_the_header_line(self, tmp_path):
        path = tmp_path / "dump.txt"
        dump_edge_list(Graph(3, []), path)
        assert path.read_text() == "# nodes=3 edges=0\n"
        assert load_edge_list(path) == Graph(3, [])

    def test_canonical_header_rejects_bad_ids(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("# nodes=3 edges=1\n0 7\n")
        with pytest.raises(EdgeListFormatError, match="outside"):
            load_edge_list(f)
        f.write_text("# nodes=3 edges=1\nx y\n")
        with pytest.raises(EdgeListFormatError, match="non-integer"):
            load_edge_list(f)

    @pytest.mark.parametrize("nodes", [3_037_000_501, 99999999999999999999])
    def test_header_above_graph_bound_is_a_format_error(self, tmp_path, nodes):
        f = tmp_path / "g.txt"
        f.write_text(f"\n# nodes={nodes} edges=1\n0 1\n")
        with pytest.raises(EdgeListFormatError, match=r"g.txt:2: .*nodes"):
            load_edge_list(f)

    def test_header_at_graph_bound_loads(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("# nodes=3037000500 edges=1\n3037000499 0\n")
        g = load_edge_list(f)
        assert g.node_count == 3_037_000_500
        assert g.edges.tolist() == [[0, 3_037_000_499]]

    def test_empty_file_is_an_error(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("# only a comment\n")
        with pytest.raises(EdgeListFormatError, match="no nodes"):
            load_edge_list(f)


def write_snap_like(path, seed, pool, draws, long_share=0.0):
    """Write a SNAP-form file: tab-separated rows listing every edge both
    ways, sorted by source, under `#` comment lines, with a few self-loops
    and sparse integer ids (rank weights, degree exponent 2.5). A share
    `long_share` of the ids have 9 to 16 digits in place of at most 7."""
    rng = np.random.default_rng(seed)
    weights = (pool / np.arange(1, pool + 1)) ** (2 / 3)
    cum = np.cumsum(weights)
    ends = np.searchsorted(cum, rng.random((draws, 2)) * cum[-1], side="right")
    ends = np.unique(np.sort(ends[ends[:, 0] != ends[:, 1]], axis=1), axis=0)
    ids = rng.choice(100 * pool, size=pool, replace=False)
    if long_share:
        long = rng.random(pool) < long_share
        digits = rng.integers(9, 17, size=np.count_nonzero(long))
        ids[long] = 10 ** (digits - 1) + rng.integers(10**8, size=digits.size)
    rows = np.concatenate([ends, ends[:, ::-1], np.repeat(ends[:7, :1], 2, axis=1)])
    rows = ids[rows[np.lexsort((ids[rows[:, 1]], ids[rows[:, 0]]))]]
    body = "".join(f"{u}\t{v}\n" for u, v in rows.tolist())
    header = f"# Undirected graph\n# Nodes: {pool}\n# FromNodeId\tToNodeId\n"
    path.write_text(header + body)


def load_outcome(loader, path, caplog):
    """What a loader makes of a file: its graph, report and warnings, or its
    error message."""
    caplog.clear()
    try:
        g = loader(path)
    except EdgeListFormatError as exc:
        return "error", str(exc)
    warnings = [r.getMessage() for r in caplog.records]
    return g.node_count, g.edges.tolist(), g.source_report, warnings


# pieces of the random edge-list files: ids that differ only by leading
# zeros, non-ASCII ids, ids of exactly 8 and 16 and of other lengths above
# 8 UTF-8 bytes, and ids that int() reads (`+3`, `1_0`, Arabic-Indic three)
TOKENS = ["7", "07", "007", "0", "1", "12", "a", "\xe9", "\xdf", "\u65e5\u672c",
          "\u65e5\u672c\u8a9e", "x", "x\x00", "abcdefgh", "abcdefgi", "abcdefghi",
          "12345678", "abcdefghijklmnop", "abcdefghijklmnoq", "abcdefghijklmnopq",
          "+3", "1_0", "\u0663", "-1"]
SEPARATORS = [" ", "\t", "  ", " \t ", "\x1f", "\xa0", "\u3000", "\u2009"]
# line breaks for str.splitlines, met inside lines as well as at their ends
BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
LINE_ENDS = ["\n", "\r\n", "\r"]


def random_edge_list(rng) -> str:
    """A small file mixing records, comments, blank lines and odd spacing."""
    header = rng.random() < 0.3
    n = int(rng.integers(0, 6))
    pool = TOKENS
    if header:
        pool = [str(i) for i in range(n)] * 6
        pool += ["+1", "02", "\u0661", "-0", "9", "x"]
    lines = [""] * int(rng.integers(0, 2))
    if header:
        lines.append(str(rng.choice(
            ["# nodes=%d edges=3", "#nodes=%d  edges=0 ", "  # nodes=%d edges=1"]
        )) % n)
    records = []
    for _ in range(int(rng.integers(0, 12))):
        kind = rng.random()
        seps = SEPARATORS + BREAKS[:1] if rng.random() < 0.05 else SEPARATORS
        sep = str(rng.choice(seps))
        if kind < 0.12:
            lines.append(str(rng.choice(["", "  ", "\t", "\xa0"])))
        elif kind < 0.24:
            lines.append(str(rng.choice(["# c", "  # indented", "#", "\t#7 8"])))
        elif kind < 0.34 and records:
            # a repeat of an earlier record, in either orientation
            u, v = records[int(rng.integers(len(records)))]
            lines.append(sep.join([u, v] if rng.random() < 0.5 else [v, u]))
        else:
            width = 2 if rng.random() < 0.93 else int(rng.choice([1, 3]))
            ids = [str(rng.choice(pool)) for _ in range(width)]
            records += [ids] if width == 2 else []
            indent, tail = str(rng.choice(["", " ", "\t"])), str(rng.choice(["", " "]))
            lines.append(indent + sep.join(ids) + tail)
    ends = [
        str(rng.choice(BREAKS if rng.random() < 0.05 else LINE_ENDS)) for _ in lines
    ]
    text = "".join(line + end for line, end in zip(lines, ends))
    return text if rng.random() < 0.8 else text.rstrip("\r\n")


class TestLoaderMatchesPerLineOracle:
    """The array loader against the per-line loader it replaced."""

    def test_snap_file(self, tmp_path, caplog):
        path = tmp_path / "snap.txt"
        write_snap_like(path, seed=801, pool=30000, draws=84000)
        with caplog.at_level(logging.WARNING):
            got = load_outcome(load_edge_list, path, caplog)
            want = load_outcome(load_edge_list_per_line, path, caplog)
        assert got[0] > 20000 and got[2].duplicates_dropped > 50000
        assert got == want

    def test_snap_file_with_ids_of_several_key_widths(self, tmp_path, caplog):
        """Ids of at most 7 bytes and of 9 to 16 bytes are keyed in words
        of different widths and sorted apart, then numbered together."""
        path = tmp_path / "snap.txt"
        write_snap_like(path, seed=804, pool=6000, draws=16000, long_share=0.5)
        with caplog.at_level(logging.WARNING):
            got = load_outcome(load_edge_list, path, caplog)
            want = load_outcome(load_edge_list_per_line, path, caplog)
        tokens = {t for line in path.read_text().splitlines()
                  if not line.startswith("#") for t in line.split()}
        widths = collections.Counter((len(t) + 8) // 8 for t in tokens)
        assert widths[1] > 1000 and widths[2] > 1000 and widths[3] > 100
        assert got == want

    @pytest.mark.parametrize(
        "token",
        [
            "000000000000000001",
            "0000000000000000002",
            "00000000000000000003",
            "999999999999999999",
            "9999999999999999999",
            "99999999999999999999",
            "+1",
            "1_0",
            "\u0663",
            "-0",
            "02",
            "10",
            "11",
        ],
    )
    def test_canonical_ids_at_the_edges_of_digit_parsing(
        self, tmp_path, caplog, token
    ):
        """Ids of up to 18 ASCII digits are parsed as digits and every
        other id by int(): 18, 19 and 20 digits, signs, underscores,
        non-ASCII digits, leading zeros, and the ids nodes - 1 and nodes."""
        path = tmp_path / "g.txt"
        for text in (f"0 1\n1 {token}\n{token} 2\n", f"{token} 3\n4 x\n"):
            path.write_bytes(f"# nodes=11 edges=3\n{text}".encode())
            with caplog.at_level(logging.WARNING):
                got = load_outcome(load_edge_list, path, caplog)
                assert got == load_outcome(load_edge_list_per_line, path, caplog)

    def test_random_small_files(self, tmp_path, caplog):
        rng = np.random.default_rng(802)
        path = tmp_path / "g.txt"
        errors = 0
        with caplog.at_level(logging.WARNING):
            for _ in range(400):
                path.write_bytes(random_edge_list(rng).encode())
                got = load_outcome(load_edge_list, path, caplog)
                assert got == load_outcome(load_edge_list_per_line, path, caplog)
                errors += got[0] == "error"
        # both outcomes are well represented
        assert 80 <= errors <= 320

    @pytest.mark.parametrize(
        "text",
        [
            "x x\x00\nx\x00 x\n",
            "7 07\n07 007\n7 007\n",
            "abcdefgh abcdefghi\nabcdefghi abcdefgh\nabcdefgh\x00 abcdefgh\n",
            "12345678 12345679\n",
            "1234567812345678 1234567812345679\n12345678 1234567812345678\n",
            "# nodes=3 edges=0",
            "# nodes=3 edges=1 more\n0 1\n",
            "\u3000# nodes=3 edges=1\u2028 0 +2\x851 \u0662\r\n2\t0",
            "\n\n  # nodes=2 edges=1 \n0 1\n# nodes=1 edges=0\n1 0\n",
            "a\x0bb\n",
        ],
    )
    def test_edge_cases(self, tmp_path, caplog, text):
        path = tmp_path / "g.txt"
        path.write_bytes(text.encode())
        with caplog.at_level(logging.WARNING):
            got = load_outcome(load_edge_list, path, caplog)
            assert got == load_outcome(load_edge_list_per_line, path, caplog)

    def test_every_ascii_character_between_ids(self, tmp_path, caplog):
        path = tmp_path / "g.txt"
        with caplog.at_level(logging.WARNING):
            for code in range(0x80):
                path.write_bytes(f"# c\na{chr(code)}b\nc d\n".encode())
                got = load_outcome(load_edge_list, path, caplog)
                assert got == load_outcome(load_edge_list_per_line, path, caplog)

    def test_whitespace_table_matches_str_methods(self):
        """Every character that str.split splits at maps to a space, or to a
        newline where str.splitlines also breaks."""
        spaces = [c for c in range(0x110000) if chr(c).isspace()]
        assert sorted(_WHITESPACE) == [c for c in spaces if chr(c) not in " \n"]
        for c in _WHITESPACE:
            breaks = len(f"a{chr(c)}b".splitlines()) == 2
            assert _WHITESPACE[c] == ("\n" if breaks else " ")

    def test_peak_memory_within_per_line_loader(self, tmp_path):
        path = tmp_path / "snap.txt"
        write_snap_like(path, seed=803, pool=6000, draws=12000)
        assert len(path.read_text().splitlines()) >= 20000
        peaks = []
        tracemalloc.start()
        try:
            for loader in (load_edge_list, load_edge_list_per_line):
                tracemalloc.reset_peak()
                loader(path)
                peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert peaks[0] <= peaks[1]


def count_parses(monkeypatch) -> list:
    """A list that grows by one with every parse of an edge-list file."""
    parses, parse = [], graph_module._parse_edge_list

    def counted(path, stream):
        parses.append(path)
        return parse(path, stream)

    monkeypatch.setattr(graph_module, "_parse_edge_list", counted)
    return parses


def cache_entries(cache_home) -> list:
    folder = cache_home / "cascadelab"
    return sorted(folder.iterdir()) if folder.exists() else []


class TestCacheHitMatchesMiss(TestLoaderMatchesPerLineOracle):
    """Every file of the oracle tests, loaded twice: the parse that stores
    an entry and the hit that reads it give one outcome, and the hit then
    meets the per-line loader."""

    # the table reads no file, and the peak test measures a single parse
    test_whitespace_table_matches_str_methods = None
    test_peak_memory_within_per_line_loader = None

    @pytest.fixture(autouse=True)
    def load_twice(self, monkeypatch, caplog):
        load, parses = load_edge_list, count_parses(monkeypatch)

        def twice(path):
            miss = load_outcome(load, path, caplog)
            parsed = len(parses)
            hit = load_outcome(load, path, caplog)
            assert hit == miss
            # a bad file is parsed every time, a good one only until stored
            assert len(parses) == parsed + (miss[0] == "error")
            caplog.clear()
            return load(path)

        monkeypatch.setattr(sys.modules[__name__], "load_edge_list", twice)


class TestEdgeListCache:
    def test_edit_at_same_size_and_mtime_is_parsed_again(
        self, tmp_path, monkeypatch, caplog
    ):
        path = tmp_path / "g.txt"
        path.write_text("# nodes=3 edges=2\n0 1\n1 2\n")
        load_edge_list(path)
        before = path.stat()
        path.write_text("# nodes=3 edges=2\n0 2\n1 2\n")
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = path.stat()
        assert after.st_size == before.st_size
        assert after.st_mtime_ns == before.st_mtime_ns
        parses = count_parses(monkeypatch)
        got = load_outcome(load_edge_list, path, caplog)
        assert parses == [path]
        assert got == load_outcome(load_edge_list_per_line, path, caplog)
        assert got[1] == [[0, 2], [1, 2]]

    @pytest.mark.parametrize("damage", ["truncated", "empty"])
    def test_damaged_entry_is_a_miss(
        self, tmp_path, cache_home, monkeypatch, caplog, damage
    ):
        path = tmp_path / "snap.txt"
        write_snap_like(path, seed=805, pool=300, draws=800)
        with caplog.at_level(logging.WARNING):
            want = load_outcome(load_edge_list, path, caplog)
            [entry] = cache_entries(cache_home)
            data = entry.read_bytes()
            entry.write_bytes(data[: len(data) // 2] if damage == "truncated" else b"")
            parses = count_parses(monkeypatch)
            assert load_outcome(load_edge_list, path, caplog) == want
            assert load_outcome(load_edge_list, path, caplog) == want
        # the parse stored a sound entry again, and the last load hit it
        assert parses == [path]
        assert cache_entries(cache_home) == [entry]

    @pytest.mark.parametrize("where", ["cache home", "cascadelab"])
    def test_cache_location_that_is_a_file_costs_only_the_parse(
        self, tmp_path, cache_home, monkeypatch, caplog, where
    ):
        if where == "cache home":
            monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "plain"))
            (tmp_path / "plain").write_text("a file\n")
        else:
            (cache_home / "cascadelab").write_text("a file\n")
        path = tmp_path / "g.txt"
        path.write_text("a b\nb c\nc a\na b\n")
        parses = count_parses(monkeypatch)
        with caplog.at_level(logging.WARNING):
            want = load_outcome(load_edge_list_per_line, path, caplog)
            assert load_outcome(load_edge_list, path, caplog) == want
            assert load_outcome(load_edge_list, path, caplog) == want
        assert parses == [path, path]

    def test_bad_file_raises_the_same_error_and_stores_nothing(
        self, tmp_path, cache_home
    ):
        path = tmp_path / "g.txt"
        path.write_text("# c\n0 1\n1 2 3\n")
        for _ in range(2):
            with pytest.raises(EdgeListFormatError) as raised:
                load_edge_list(path)
            message = f"{path}:3: expected two node ids, found 3 tokens"
            assert str(raised.value) == message
        assert cache_entries(cache_home) == []

    def test_one_entry_per_resolved_path(self, tmp_path, cache_home):
        path, other = tmp_path / "g.txt", tmp_path / "h.txt"
        (tmp_path / "sub").mkdir()
        for i in range(3):
            path.write_text(f"# nodes=5 edges=1\n0 {i + 1}\n")
            load_edge_list(path)
            load_edge_list(tmp_path / "sub" / ".." / "g.txt")
        assert len(cache_entries(cache_home)) == 1
        other.write_text("0 1\n")
        load_edge_list(other)
        assert [e.suffix for e in cache_entries(cache_home)] == [".npz", ".npz"]

    def test_hit_warns_with_the_callers_path(self, tmp_path, monkeypatch, caplog):
        path = tmp_path / "g.txt"
        path.write_text("a b\nb a\nc c\n")
        (tmp_path / "sub").mkdir()
        alias = tmp_path / "sub" / ".." / "g.txt"
        load_edge_list(path)
        parses = count_parses(monkeypatch)
        with caplog.at_level(logging.WARNING):
            got = load_outcome(load_edge_list, alias, caplog)
        assert parses == []
        assert got[-1] == [f"{alias}: dropped 1 duplicate edge(s) and 1 self-loop(s)"]

    def test_default_location_is_under_home(self, tmp_path, monkeypatch):
        monkeypatch.delenv("XDG_CACHE_HOME")
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        path = tmp_path / "g.txt"
        path.write_text("a b\n")
        load_edge_list(path)
        assert len(cache_entries(tmp_path / "home" / ".cache")) == 1

    def test_relative_cache_home_is_ignored(self, tmp_path, monkeypatch):
        """The XDG spec says a relative `XDG_CACHE_HOME` is ignored, so loads
        run from two working directories share the one entry under
        `~/.cache` and write nothing where they run."""
        monkeypatch.setenv("XDG_CACHE_HOME", "relcache")
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        path = tmp_path / "g.txt"
        path.write_text("a b\n")
        for cwd in (tmp_path / "one", tmp_path / "two"):
            cwd.mkdir()
            monkeypatch.chdir(cwd)
            load_edge_list(path)
            assert list(cwd.iterdir()) == []
        assert len(cache_entries(tmp_path / "home" / ".cache")) == 1

    def test_hit_peaks_below_the_parse(self, tmp_path):
        path = tmp_path / "snap.txt"
        write_snap_like(path, seed=803, pool=6000, draws=12000)
        peaks = []
        tracemalloc.start()
        try:
            for _ in range(2):
                tracemalloc.reset_peak()
                load_edge_list(path)
                peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert peaks[1] < peaks[0]

    def test_hit_holds_little_beyond_the_edges(self, tmp_path):
        """Once a hit returns, what it still holds is the graph's edge array
        and a small fixed amount besides: nothing per node outlives it."""
        path = tmp_path / "snap.txt"
        write_snap_like(path, seed=806, pool=30000, draws=84000)
        load_edge_list(path)
        tracemalloc.start()
        try:
            g = load_edge_list(path)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert g.node_count > 20000
        assert held <= g.edges.nbytes + 64 * 1024
