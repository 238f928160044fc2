"""Correctness checks on a `cascadelab` output tree, computed apart from it.

Nothing here imports `cascadelab`. The references are the benchmark's own:
expected edge counts of the generators' models, the root of the giant
equation by bisection, message passing for bond percolation on the realized
graph, and the attack's expected accuracy from the benchmark's own worlds.
Each check returns a list of failure messages; an empty list means it passed.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph
from scipy.special import bdtrc

# absolute tolerance between a Monte Carlo giant fraction and the
# message-passing prediction on the same finite graph
GIANT_TOL = 0.03
# the same for the fraction of nodes whose membership frequency clears a
# threshold, against its expectation given the trial count
MEMBERSHIP_TOL = 0.05
# w_scale must be at least this fraction of n (the Omega(n) noise scale)
W_SCALE_MIN_FRACTION = 0.2


def read_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a `cascadelab` CSV (its first line is a comment)."""
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    rows = list(csv.reader(lines))
    return rows[0], rows[1:]


def read_metrics(path: Path) -> dict[str, str]:
    return dict(read_rows(path)[1])


def read_graph(path: Path) -> tuple[int, np.ndarray]:
    """Node count and (m, 2) edges of the canonical dump `gen` writes."""
    with open(path) as fh:
        header = fh.readline().split()
        body = fh.read()
    n = int(header[1].split("=")[1])
    m = int(header[2].split("=")[1])
    edges = np.array(body.split(), dtype=np.int64).reshape(-1, 2)
    if edges.shape[0] != m:
        raise ValueError(f"header says {m} edges, body holds {edges.shape[0]}")
    return n, edges


def giant_root(c: float, tol: float = 1e-12) -> float:
    """Largest root of exp(-c*y) = 1 - y by bisection (0 when c <= 1)."""
    if c <= 1.0:
        return 0.0
    lo, hi = 1e-12, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if math.exp(-c * mid) < 1.0 - mid:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def message_passing(n: int, edges: np.ndarray, q: float, tol=1e-10, sweeps=5000):
    """Per-node giant-membership probability under bond percolation at q.

    u[e] for directed edge e = (i -> j) is the chance that j connects to the
    giant without using i; it is the largest fixed point of
    u = 1 - prod over the other neighbours k of j of (1 - q u[k -> j]).
    """
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    m = edges.shape[0]
    back = np.concatenate([np.arange(m, 2 * m), np.arange(m)])
    # message e travels src -> dst and summarizes the side of src
    u = np.ones(2 * m)
    for _ in range(sweeps):
        logs = np.log1p(-q * u)
        into = np.bincount(dst, weights=logs, minlength=n)
        new = -np.expm1(into[src] - logs[back])
        done = np.max(np.abs(new - u), initial=0.0) < tol
        u = new
        if done:
            break
    return -np.expm1(np.bincount(dst, weights=np.log1p(-q * u), minlength=n))


def expected_edges(facts: dict) -> tuple[float, float]:
    """Mean and standard deviation of the generator's edge count."""
    n = facts["n"]
    if facts["kind"] == "er":
        pairs = n * (n - 1) / 2
        p = facts["p"]
        return pairs * p, math.sqrt(pairs * p * (1 - p))
    # Chung-Lu: pair {i, j} is an edge with probability min(1, w_i w_j / W)
    w = facts["d"] * (n / np.arange(1, n + 1, dtype=np.float64)) ** (1 / facts["b"])
    total = math.fsum(w)
    # w is non-increasing; suffix sums give each row's unsaturated part
    suffix1 = np.concatenate([np.cumsum(w[::-1])[::-1], [0.0]])
    suffix2 = np.concatenate([np.cumsum((w * w)[::-1])[::-1], [0.0]])
    rows = np.arange(n - 1)
    wi = w[:-1]
    # in row i, columns i < j < k have w_i w_j >= W and are edges for sure
    k = np.maximum(rows + 1, np.searchsorted(-w, -total / wi, side="right"))
    unsaturated = wi * suffix1[k] / total
    mean = float((k - rows - 1).sum() + unsaturated.sum())
    var = float((unsaturated - (wi / total) ** 2 * suffix2[k]).sum())
    return mean, math.sqrt(var)


def check_gen(tree: Path, facts: dict) -> list[str]:
    n, edges = read_graph(tree / "graph.txt")
    m = edges.shape[0]
    if n != facts["n"]:
        return [f"gen: {n} nodes, expected {facts['n']}"]
    if facts["kind"] == "edge_list":
        if m != facts["edges"]:
            return [f"gen: {m} edges, the file holds {facts['edges']} distinct pairs"]
        return []
    mean, sd = expected_edges(facts)
    if abs(m - mean) > 4 * sd:
        return [f"gen: {m} edges, expected {mean:.1f} +- 4 x {sd:.1f}"]
    return []


def check_components(tree: Path, n: int, edges: np.ndarray, q: float,
                     facts: dict) -> list[str]:
    _, rows = read_rows(tree / "components.csv")
    (_, rn, redges, rq, trials, mean_giant, _, std_giant, _), = rows
    fails = []
    if int(rn) != n or int(redges) != edges.shape[0] or float(rq) != q:
        fails.append(f"components: row {rn},{redges},{rq} disagrees with gen")
    measured = float(mean_giant) / n
    slack = 4 * float(std_giant) / n / math.sqrt(int(trials))
    predicted = float(message_passing(n, edges, q).mean())
    if abs(measured - predicted) > GIANT_TOL + slack:
        fails.append(
            f"components: giant fraction {measured:.4f}, message passing "
            f"{predicted:.4f}"
        )
    if facts["kind"] == "er":
        root = giant_root(2 * edges.shape[0] * q / n)
        if abs(measured - root) > GIANT_TOL + slack:
            fails.append(f"components: giant fraction {measured:.4f}, root {root:.4f}")
    return fails


def check_sweep(tree: Path, n: int, edges: np.ndarray) -> list[str]:
    _, rows = read_rows(tree / "sweep.csv")
    fails = []
    if len(rows) != 20:
        fails.append(f"sweep: {len(rows)} rows, expected 20")
    # the three largest q of the grid are well above every substrate's
    # threshold, where the finite-size correction is small
    for q, frac, _ in sorted(rows, key=lambda r: float(r[0]))[-3:]:
        predicted = float(message_passing(n, edges, float(q)).mean())
        if abs(float(frac) - predicted) > GIANT_TOL:
            fails.append(
                f"sweep: q={float(q):.3f} giant fraction {float(frac):.4f}, "
                f"message passing {predicted:.4f}"
            )
    return fails


def check_membership(tree: Path, n: int, edges: np.ndarray, q: float,
                     trials: int) -> list[str]:
    _, rows = read_rows(tree / "membership.csv")
    rows = sorted(rows, key=lambda r: float(r[0]))
    fails = []
    counts = [int(r[1]) for r in rows]
    if any(b > a for a, b in zip(counts, counts[1:])):
        fails.append(f"membership: counts rise with the threshold: {counts}")
    x = message_passing(n, edges, q)
    for threshold, _, frac in rows:
        # a node is counted when at least k of the trials put it in the giant
        k = next(c for c in range(trials + 1) if c / trials >= float(threshold))
        predicted = float(bdtrc(k - 1, trials, x).mean())
        if abs(float(frac) - predicted) > MEMBERSHIP_TOL:
            fails.append(
                f"membership: fraction {float(frac):.4f} at {threshold}, message "
                f"passing {predicted:.4f}"
            )
    return fails


def check_audit(tree: Path, n: int, protected: list[int]) -> list[str]:
    summary = read_metrics(tree / "audit.csv")
    _, node_rows = read_rows(tree / "audit_nodes.csv")
    fails = []
    w_scale = float(summary["w_scale"])
    per_node = [float(w) for _, w in node_rows]
    if len(per_node) + int(summary["degenerate_nodes"]) != len(protected):
        fails.append("audit: protected nodes unaccounted for")
    if not per_node or w_scale != max(per_node):
        fails.append(f"audit: w_scale {w_scale} is not the maximum of {per_node}")
    if w_scale < W_SCALE_MIN_FRACTION * n:
        fails.append(f"audit: w_scale {w_scale} below {W_SCALE_MIN_FRACTION} n")
    tvd = float(summary["comparison_tvd"])
    error = float(summary["comparison_test_error"])
    if not abs(error - (1.0 - tvd)) <= 1e-12:
        fails.append(f"audit: test error {error} is not 1 - tvd ({tvd})")
    return fails


def _laplace_above(gap: np.ndarray, scale: float) -> np.ndarray:
    """P(x + Laplace(scale) > thr) for gap = thr - x."""
    tail = 0.5 * np.exp(-np.abs(gap) / scale)
    return np.where(gap >= 0, tail, 1.0 - tail)


def expected_accuracy(n: int, edges: np.ndarray, q: float, threshold: float,
                      scale: float, worlds: int, seed: int) -> tuple[float, float]:
    """Expected giant-status accuracy with one uniform seed, and its variance.

    Each world keeps every edge with probability q. With one seed the
    activation count is the size of the seeded component, so averaging the
    Laplace tail over components weighted by size is exact for that world.
    The truth is "active" when the seed hits the unique largest component.
    """
    rng = np.random.default_rng(seed)
    per_world = np.empty(worlds)
    for t in range(worlds):
        kept = edges[rng.random(edges.shape[0]) < q]
        mat = sparse.coo_matrix(
            (np.ones(kept.shape[0]), (kept[:, 0], kept[:, 1])), shape=(n, n)
        ).tocsr()
        _, labels = csgraph.connected_components(mat, directed=False)
        sizes = np.sort(np.bincount(labels))[::-1].astype(np.float64)
        above = _laplace_above(threshold - sizes, scale)
        correct = 1.0 - above
        if sizes.size == 1 or sizes[0] > sizes[1]:
            correct[0] = above[0]
        per_world[t] = float((sizes / n) @ correct)
    return float(per_world.mean()), float(per_world.var() / worlds)


def check_attack(tree: Path, n: int, edges: np.ndarray, config: dict,
                 seed: int) -> list[str]:
    summary = read_metrics(tree / "attack_summary.csv")
    accuracy = float(summary["giant_status_accuracy"])
    trials = int(summary["evaluation_trials"])
    threshold = float(summary["decision_threshold"])
    if int(config.get("s", 1)) != 1:
        return ["attack: the accuracy reference assumes one seed"]
    expected, var = expected_accuracy(
        n, edges, float(config["q"]), threshold,
        float(config["mechanism"]["scale"]), trials, seed,
    )
    p = min(1.0, max(0.0, expected))
    spread = 4 * math.sqrt(p * (1 - p) / trials + var) + 0.005
    if abs(accuracy - expected) > spread:
        return [
            f"attack: accuracy {accuracy:.4f}, Laplace tail at threshold "
            f"{threshold} gives {expected:.4f} +- {spread:.4f}"
        ]
    return []


def check_tree(tree: Path, facts: dict, config: dict, seed: int) -> list[str]:
    """Every check on one output tree holding all six subcommands' files."""
    fails = check_gen(tree, facts)
    n, edges = read_graph(tree / "graph.txt")
    q = float(config["q"])
    fails += check_components(tree, n, edges, q, facts)
    fails += check_sweep(tree, n, edges)
    fails += check_membership(tree, n, edges, q, int(config["trials"]))
    fails += check_audit(tree, n, config["protected"])
    fails += check_attack(tree, n, edges, config, seed)
    return fails

