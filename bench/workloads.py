"""The benchmark's workloads: one config per workload, made from a seed.

Each workload writes a `cascadelab` JSON config (and, for `snap-file`, the
edge-list file it reads) into a work directory. Everything is a pure function
of the workload name and the benchmark seed, so the same seed gives the same
inputs. The returned `Workload` also carries what the correctness checks need
to know about the substrate without asking `cascadelab`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SUBCOMMANDS = ("gen", "components", "sweep", "membership", "audit", "attack")

# q_grid of every workload: the CLI default grid of 20 values
Q_GRID = {"start": 0.05, "stop": 0.9, "count": 20}


@dataclass
class Workload:
    config: dict
    # substrate facts for the checks, computed by the benchmark itself
    expected: dict


def _master_seed(seed: int, salt: int) -> int:
    return int(np.random.SeedSequence([seed, salt]).generate_state(1, np.uint64)[0])


def _er_small(seed: int, work: Path) -> Workload:
    n, p = 2500, 0.002
    config = {
        "graph": {"kind": "er", "n": n, "p": p},
        "q": 0.3,
        "s": 1,
        "trials": 150,
        "sweep_trials": 25,
        "q_grid": Q_GRID,
        "protected": [0, 1, 2, 3, 4],
        "mechanism": {"kind": "laplace", "scale": 50.0},
        "seed": _master_seed(seed, 1),
        "threads": 1,
    }
    return Workload(config, {"kind": "er", "n": n, "p": p})


def _powerlaw_gen(seed: int, work: Path) -> Workload:
    n, d, b = 10000, 2.0, 1.5
    config = {
        "graph": {"kind": "chung_lu", "n": n, "d": d, "b": b},
        "q": 0.5,
        "s": 1,
        "trials": 25,
        "sweep_trials": 2,
        "q_grid": Q_GRID,
        "protected": [0, 1, 2, 3, 4],
        # a Wasserstein mechanism at a scale of order n, as the audit of a
        # supercritical substrate calibrates it
        "mechanism": {"kind": "wasserstein", "scale": 0.5 * n, "epsilon": 1.0},
        "seed": _master_seed(seed, 2),
        "threads": 2,
    }
    return Workload(config, {"kind": "chung_lu", "n": n, "d": d, "b": b})


def write_snap_file(path: Path, seed: int, pool: int = 30000, draws: int = 84000):
    """Write a SNAP-form undirected edge list made with numpy alone.

    Endpoints are drawn independently with probability proportional to the
    rank weights (pool / i) ** (2 / 3) (degree exponent 2.5). Repeated pairs
    and loops among the draws are dropped; nodes that drew no edge do not
    appear. External ids are sparse, non-contiguous integers. As in SNAP's
    undirected files, the body lists every edge in both directions, sorted
    by source id, after `#` comment lines; the body also holds a few
    self-loops on nodes that already have edges.

    Returns the node ids in first-seen order and the distinct non-loop
    pairs as dense-id rows (u < v).
    """
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, pool + 1, dtype=np.float64)
    weights = (pool / ranks) ** (2.0 / 3.0)
    cum = np.cumsum(weights)
    ends = np.searchsorted(cum, rng.random((draws, 2)) * cum[-1], side="right")
    ends = ends[ends[:, 0] != ends[:, 1]]
    pairs = np.unique(np.sort(ends, axis=1), axis=0)
    used = np.unique(pairs)
    # sparse external ids: a sorted draw from a range 100x the node count,
    # assigned to pool nodes in random order
    ids = np.sort(rng.choice(100 * pool, size=used.size, replace=False))
    external = np.empty(pool, dtype=np.int64)
    external[used] = ids[rng.permutation(used.size)]
    eu, ev = external[pairs[:, 0]], external[pairs[:, 1]]
    src = np.concatenate([eu, ev])
    dst = np.concatenate([ev, eu])
    loops = ids[rng.choice(ids.size, size=7, replace=False)]
    src = np.concatenate([src, loops])
    dst = np.concatenate([dst, loops])
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    header = (
        "# Undirected graph: benchmark substrate (numpy, rank weights, exponent 2.5)\n"
        "# Each unordered pair of nodes is saved twice\n"
        f"# Nodes: {ids.size} Edges: {pairs.shape[0]}\n"
        "# FromNodeId\tToNodeId\n"
    )
    body = "\n".join(f"{u}\t{v}" for u, v in zip(src.tolist(), dst.tolist()))
    path.write_text(header + body + "\n")
    # the loader interns ids in first-seen order over the token stream
    tokens = np.column_stack([src, dst]).ravel()
    seen, first = np.unique(tokens, return_index=True)
    by_first = np.argsort(first)
    dense = np.empty(seen.size, dtype=np.int64)
    dense[by_first] = np.arange(seen.size)
    du = dense[np.searchsorted(seen, eu)]
    dv = dense[np.searchsorted(seen, ev)]
    first_seen = seen[by_first]
    dense_pairs = np.column_stack([np.minimum(du, dv), np.maximum(du, dv)])
    return first_seen, dense_pairs


def _snap_file(seed: int, work: Path) -> Workload:
    path = work / "snap-substrate.txt"
    first_seen, pairs = write_snap_file(path, _master_seed(seed, 3))
    n = int(first_seen.size)
    degree = np.bincount(pairs.ravel(), minlength=n)
    # the five largest hubs, so each protected node activates often enough
    # for both conditional branches to fill
    hubs = sorted(int(v) for v in np.argsort(-degree, kind="stable")[:5])
    config = {
        "graph": {"kind": "edge_list", "path": str(path), "name": "snap-substrate"},
        "q": 0.4,
        "s": 1,
        "trials": 20,
        "sweep_trials": 2,
        "q_grid": Q_GRID,
        "protected": hubs,
        "mechanism": {"kind": "laplace", "scale": 50.0},
        "seed": _master_seed(seed, 4),
        "threads": 1,
    }
    return Workload(config, {"kind": "edge_list", "n": n, "edges": int(pairs.shape[0])})


WORKLOADS = {
    "er-small": _er_small,
    "powerlaw-gen": _powerlaw_gen,
    "snap-file": _snap_file,
}


def prepare(name: str, seed: int, work: Path) -> tuple[Workload, Path]:
    """Make the workload's inputs in `work`; returns it and its config path."""
    work.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[name](seed, work)
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(wl.config, indent=1, sort_keys=True))
    return wl, cfg_path
