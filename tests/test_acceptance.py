"""End-to-end checks of the headline quantities the package measures.

Each test pins one deliverable with frozen seeds and a stated tolerance:
the giant-fraction equation, component statistics of percolated graphs,
membership detection rates, the transport-distance machinery, the
calibrated noise floor, exhaustive cascade correctness, and byte-level
determinism of the command line tools. Nothing here may be loosened to
make a run pass; a red line means the measured system disagrees with the
pinned expectation.
"""

import itertools
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from cascadelab import percolation, seeding
from cascadelab.cli import main
from cascadelab.graph import (
    Graph,
    chung_lu_weights,
    generate_chung_lu,
    generate_er,
    load_edge_list,
)
from cascadelab.percolation import _cascade, record_worlds
from cascadelab.privacy import (
    MechanismSpec,
    comparison_tvd,
    wasserstein_mechanism_scale,
)
from cascadelab.seeding import child_seed
from oracles import (
    Law,
    all_graph_edge_lists,
    bfs_activated,
    label_world,
    message_passing_membership,
    percolate,
    release,
    wasserstein_infinity,
    winf_bruteforce,
)
from theory import membership_miss_approx, solve_giant_fraction

GRQC_PATH = Path(__file__).resolve().parent.parent / "data" / "ca-GrQc.txt"


def test_giant_equation_root_at_reference_point():
    solution = solve_giant_fraction(1.28)
    assert solution.y == pytest.approx(0.400, abs=0.005)
    start = time.perf_counter()
    for _ in range(5):
        solve_giant_fraction(1.28)
    assert (time.perf_counter() - start) / 5 < 1e-3


@pytest.fixture(scope="module")
def er_component_trials():
    """Mean giant and second component over 50 percolations of ER(2500)."""
    master = 779
    g = generate_er(2500, 5 / 2499, rng_seed=child_seed(master, 0))
    stream = child_seed(master, 1)
    giants = []
    seconds = []
    for t in range(50):
        lab = label_world(2500, percolate(g, 0.3, child_seed(stream, t)))
        giants.append(lab.giant_size)
        seconds.append(lab.second_size)
    return float(np.mean(giants)), float(np.mean(seconds))


def test_er_giant_fraction_tracks_equation_root(er_component_trials):
    y = solve_giant_fraction(2500 * (5 / 2499) * 0.3).y
    assert er_component_trials[0] / 2500 == pytest.approx(y, abs=0.03)


def test_er_second_component_stays_logarithmic(er_component_trials):
    assert er_component_trials[1] <= 10.0 * math.log(2500)


def _threshold_fractions(est, reference, tolerance=0.05):
    return _fractions_off(est.frequency, reference, tolerance)


def _fractions_off(probabilities, reference, tolerance):
    off = {}
    for threshold, expected in reference:
        frac = float(np.mean(probabilities >= threshold))
        if abs(frac - expected) > tolerance:
            off[threshold] = round(frac - expected, 4)
    return off


def test_er_membership_fractions_at_thresholds():
    g = generate_er(2500, 5 / 2499, rng_seed=2024)
    est = record_worlds(g, 0.3, None, trials=1000, rng_seed=555).membership()
    reference = [(0.50, 0.695), (0.75, 0.173), (0.90, 0.004)]
    off = _threshold_fractions(est, reference)
    assert not off, f"node fractions off by more than 5 points: {off}"


def test_chung_lu_membership_fractions_at_thresholds():
    weights = chung_lu_weights(2500, 5.0, 1.1)
    g = generate_chung_lu(weights, rng_seed=child_seed(31, 0))
    est = record_worlds(g, 0.3, None, trials=1000, rng_seed=991).membership()
    # Expected fractions come from message passing on the realized graph,
    # so they hold for this graph whatever parametrization produced it.
    predicted = message_passing_membership(g.node_count, g.edges, 0.3)
    reference = [
        (threshold, float(np.mean(predicted >= threshold)))
        for threshold in (0.99, 0.95, 0.50)
    ]
    off = _threshold_fractions(est, reference)
    assert not off, f"node fractions off the oracle by more than 5 points: {off}"


def test_message_passing_oracle_reproduces_er_reference_row():
    # the graph and the tabulated row of
    # test_er_membership_fractions_at_thresholds, with no Monte Carlo
    g = generate_er(2500, 5 / 2499, rng_seed=2024)
    predicted = message_passing_membership(g.node_count, g.edges, 0.3)
    reference = [(0.50, 0.695), (0.75, 0.173), (0.90, 0.004)]
    off = _fractions_off(predicted, reference, tolerance=0.05)
    assert not off, f"oracle fractions off by more than 5 points: {off}"


def test_miss_rate_by_retained_degree_matches_exponential():
    n = 2000
    g = generate_er(n, 5 / (n - 1), rng_seed=child_seed(66, 0))
    stream = child_seed(66, 1)
    trials = 2500
    outside_counts = np.zeros(6)
    degree_counts = np.zeros(6)
    for t in range(trials):
        retained = percolate(g, 0.3, child_seed(stream, t))
        lab = label_world(n, retained)
        deg = np.bincount(retained.ravel(), minlength=n)
        outside = lab.root != lab.giant_root
        for k in range(1, 6):
            sel = deg == k
            degree_counts[k] += sel.sum()
            outside_counts[k] += (outside & sel).sum()
    # On a Poisson substrate each of the k retained neighbours leads outside
    # the giant independently with probability 1 - y, so a node misses it
    # with probability (1 - y)**k. The giant equation 1 - y = exp(-c*y)
    # turns this into exp(-k*c*y) at retained mean degree c = 1.5. Since
    # 1 - y <= exp(-y), the paper's exp(-k*y) is an upper bound on it.
    y = solve_giant_fraction(1.5).y
    off = {}
    for k in range(1, 6):
        assert degree_counts[k] >= 200
        miss_rate = outside_counts[k] / degree_counts[k]
        assert miss_rate <= membership_miss_approx(k, y), (
            f"k={k}: miss rate {miss_rate:.4f} above the bound exp(-k*y)"
        )
        gap = miss_rate - (1 - y) ** k
        if abs(gap) > 0.05:
            off[k] = round(gap, 4)
    assert not off, f"miss rates deviate from (1-y)**k by more than 0.05: {off}"


def _random_atoms(rng, max_atoms=6):
    k = int(rng.integers(1, max_atoms + 1))
    values = np.sort(rng.choice(20, size=k, replace=False)).astype(float)
    probs = rng.random(k) + 0.05
    return Law(values, probs / probs.sum())


def test_comonotone_distance_equals_bruteforce_coupling():
    rng = np.random.default_rng(child_seed(7, 0))
    for pair in range(200):
        mu = _random_atoms(rng)
        nu = _random_atoms(rng)
        fast = wasserstein_infinity(mu, nu)
        slow = winf_bruteforce(mu, nu)
        assert abs(fast - slow) <= 1e-9, f"pair {pair}: {fast} vs {slow}"


def test_mechanism_scale_is_constant_fraction_of_n():
    n = 500
    g = generate_er(n, 5 / (n - 1), rng_seed=child_seed(88, 0))
    record = record_worlds(g, 0.3, s=1, trials=2000, rng_seed=child_seed(88, 1))
    report = wasserstein_mechanism_scale(record, protected=range(5))
    assert report.w_scale >= 0.3 * n
    # noise calibrated to that scale at epsilon = 1 averages at least the
    # same fraction of n in magnitude
    spec = MechanismSpec(kind="laplace", scale=report.w_scale / 1.0)
    noise_stream = child_seed(88, 2)
    silent = np.zeros(n, dtype=bool)
    released = np.array(
        [release(spec, silent, child_seed(noise_stream, i)) for i in range(2000)]
    )
    assert float(np.mean(np.abs(released))) >= 0.3 * n


def test_root_n_noise_leaves_giant_status_testable():
    n = 2500
    g = generate_er(n, 5 / (n - 1), rng_seed=child_seed(77, 0))
    x0, x1 = record_worlds(
        g, 0.3, s=1, trials=1000, rng_seed=child_seed(77, 1)
    ).giant_split()
    spec = MechanismSpec(kind="laplace", scale=math.sqrt(n))
    # the best test telling the two pushed laws apart errs with
    # probability 1 - tvd
    assert 1.0 - comparison_tvd(x0, x1, spec) <= 0.1


def _check_world(g, retained, checked):
    # the world seeded at each of its n nodes in turn, as n rows of one
    # union through the gather `world_blocks` runs: row v is seeded at v
    n = g.node_count
    world = label_world(n, retained)
    offsets = np.arange(0, n * n, n)
    root = (world.root + offsets[:, None]).ravel()
    activated, counts, _ = _cascade(
        root, (np.arange(n) + offsets)[:, None], world.giant_root + offsets
    )
    for seed in range(n):
        want = bfs_activated(n, retained, [seed])
        assert set(np.flatnonzero(activated[seed])) == want
        assert counts[seed] == len(want)
        checked += 1
    return checked


def test_cascade_matches_breadth_first_oracle_on_all_small_worlds():
    checked = 0
    # Every retained-edge world on up to six nodes is an edge subset of
    # the complete graph, and the cascade sees only retained edges, so
    # complete substrates cover all substrates of each size.
    for n in range(1, 7):
        complete = Graph(n, list(itertools.combinations(range(n), 2)))
        for bits in range(2**complete.edge_count):
            mask = (bits >> np.arange(complete.edge_count)) % 2 == 1
            checked = _check_world(complete, complete.edges[mask], checked)
    # Check the reduction itself on small sizes: enumerate every substrate
    # with every retention pattern so an unretained substrate edge leaking
    # into the cascade would be caught.
    for n in range(1, 5):
        for edges in all_graph_edge_lists(n):
            g = Graph(n, edges)
            for bits in range(2**g.edge_count):
                mask = (bits >> np.arange(g.edge_count)) % 2 == 1
                checked = _check_world(g, g.edges[mask], checked)
    # sum of n * 2^(n choose 2) plus sum of n * 3^(n choose 2)
    assert checked == 202_013 + 3_004


def test_collaboration_network_component_sizes():
    if not GRQC_PATH.exists():
        pytest.skip(
            "co-authorship edge list not present; download "
            "https://snap.stanford.edu/data/ca-GrQc.txt.gz, gunzip it, and "
            "save it as data/ca-GrQc.txt under the repository root"
        )
    g = load_edge_list(GRQC_PATH)
    stream = child_seed(1577, 0)
    giants = []
    seconds = []
    for t in range(1000):
        lab = label_world(
            g.node_count, percolate(g, 0.3, child_seed(stream, t))
        )
        giants.append(lab.giant_size)
        seconds.append(lab.second_size)
    assert float(np.mean(giants)) == pytest.approx(1577.3, rel=0.10)
    assert float(np.mean(seconds)) == pytest.approx(28.99, rel=0.25)


def test_every_subcommand_is_thread_deterministic(tmp_path):
    graph = {"kind": "er", "n": 120, "p": 5 / 119, "seed": 5}
    cases = {
        "gen": {"graph": graph},
        "components": {"graph": graph, "q": 0.4, "trials": 40},
        "sweep": {"graph": graph, "q_grid": [0.2, 0.6], "sweep_trials": 25},
        "membership": {
            "graph": graph,
            "q": 0.4,
            "trials": 40,
            "thresholds": [0.5, 0.9],
        },
        "audit": {
            "graph": graph,
            "q": 0.4,
            "trials": 120,
            "protected": [0, 1],
            "epsilon": 2.0,
            "mechanism": {"kind": "laplace", "scale": 5.0},
        },
        "attack": {
            "graph": graph,
            "q": 0.4,
            "trials": 100,
            "floors": [0.8],
            "decision_threshold": 60.0,
            "mechanism": {"kind": "laplace", "scale": 3.0},
        },
    }
    for command, entries in cases.items():
        config = tmp_path / f"{command}.json"
        config.write_text(json.dumps(entries))
        outputs = {}
        for threads in (1, 8):
            out = tmp_path / f"{command}_{threads}"
            rc = main(
                [
                    command,
                    "--config",
                    str(config),
                    "--out",
                    str(out),
                    "--threads",
                    str(threads),
                ]
            )
            assert rc == 0, command
            outputs[threads] = {
                p.name: p.read_bytes() for p in sorted(out.iterdir())
            }
        assert outputs[1] == outputs[8], command


def test_every_subcommand_is_block_invariant(tmp_path, monkeypatch):
    """Trials are labeled in blocks of max(1, B // n); the files written do
    not depend on B. At n = 120, B = 840 makes blocks of 7, so the 40, 120
    and 100 trials below end in partial blocks of 5, 1 and 2; B = 1 makes
    one trial per block, and the default budget one block per run. Nor do
    they depend on the chunk of trials whose streams are derived at once:
    B = 840 again with chunks of 10 trials, which round up to two blocks."""
    base = {
        "graph": {"kind": "er", "n": 120, "p": 5 / 119, "seed": 5},
        "q": 0.4,
        "trials": 40,
        "q_grid": [0.2, 0.6],
        "sweep_trials": 25,
        "thresholds": [0.5, 0.9],
        "protected": [0, 1],
        "epsilon": 2.0,
        "floors": [0.8],
        "mechanism": {"kind": "laplace", "scale": 3.0},
    }
    extra = {"audit": {"trials": 120}, "attack": {"trials": 100}}
    budgets = (percolation._BLOCK_NODES, 1, 7 * 120)
    runs = [(budget, seeding._CHUNK_TRIALS) for budget in budgets] + [(7 * 120, 10)]
    for command in ("gen", "components", "sweep", "membership", "audit", "attack"):
        config = tmp_path / f"{command}.json"
        config.write_text(json.dumps({**base, **extra.get(command, {})}))
        outputs = []
        for budget, chunk in runs:
            monkeypatch.setattr(percolation, "_BLOCK_NODES", budget)
            monkeypatch.setattr(seeding, "_CHUNK_TRIALS", chunk)
            out = tmp_path / f"{command}_{budget}_{chunk}"
            assert main([command, "--config", str(config), "--out", str(out)]) == 0
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert outputs[0] and outputs[1:] == [outputs[0]] * 3, command
