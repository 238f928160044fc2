"""Inference attack on noisily released activation counts.

From one perturbed count per round, the adversary decides whether the giant
component activated and then predicts the activation bit of every node whose
giant-membership frequency clears a confidence floor.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .graph import Graph
from .percolation import MembershipEstimate, record_worlds, world_blocks
from .privacy import MechanismSpec, mechanism_error_quantile, release_from
from .seeding import child_seed, rng_from_seed, set_pcg64_state

__all__ = [
    "FloorStats",
    "AttackEvaluation",
    "evaluate_attack",
]


class FloorStats(NamedTuple):
    """Attack quality for one confidence floor."""

    floor: float
    predicted_nodes: int
    coverage: float
    precision: float


class AttackEvaluation(NamedTuple):
    """Attack quality, with the calibrated quantities it was judged by.

    A released count above `decision_threshold` judges the giant active;
    each floor predicts that every node whose `membership` frequency
    reaches it followed the giant's judged status.
    """

    giant_status_accuracy: float
    floors: list[FloorStats]
    per_node_accuracy: np.ndarray
    decision_threshold: float
    max_mechanism_error: float
    membership: MembershipEstimate
    inactive_max: float
    active_min: float
    tie_trials: int
    trials: int


def evaluate_attack(
    g: Graph,
    q: float,
    s: int,
    spec: MechanismSpec,
    floors,
    trials: int,
    rng_seed: int,
    decision_threshold: float | None = None,
) -> AttackEvaluation:
    """Measure the attack end to end against a release mechanism.

    Calibration phase: one recorded pass of `trials` rounds
    (`record_worlds`) gives both the per-node membership frequencies and
    the activity split whose midpoint becomes the decision threshold.
    Evaluation phase: `trials` fresh rounds release a perturbed count; a
    count strictly above the threshold judges the giant active, every node
    is predicted to share that status, and predictions are scored against
    the true activation vectors.

    Passing `decision_threshold` skips the split calibration and pins the
    cut directly; the split fields of the result are then nan/0. Needed for
    worlds whose giant is active in every round, where the split would
    degenerate, and for studying a mechanism at a fixed cut.

    Precision at a floor is the mean per-node accuracy over the nodes it
    would predict; rounds whose top components tie count as giant-inactive
    truth, matching the calibration split. `s` must be at least 1: every
    round scores the activations its seeds caused. A mechanism whose error
    quantile (`max_mechanism_error`) is not finite is refused before any
    world is drawn.
    """
    floors = [float(f) for f in floors]
    if not floors:
        raise ValueError("floors must name at least one confidence floor")
    if s is None or s < 1:
        raise ValueError(f"s must be a seed count >= 1, not {s!r}")
    if decision_threshold is not None:
        threshold = float(decision_threshold)
        if not 0.0 < threshold < g.node_count:
            raise ValueError("decision_threshold must lie in (0, node_count)")
    n = g.node_count
    max_error = mechanism_error_quantile(spec, n)
    if not np.isfinite(max_error):
        raise ValueError(f"the error quantile of {spec!r} is not finite")
    cal_seed = child_seed(rng_seed, 1)
    eval_seed = child_seed(rng_seed, 2)
    calibration = record_worlds(g, q, s, trials, child_seed(cal_seed, 0))
    membership = calibration.membership()
    if decision_threshold is None:
        x0, x1 = calibration.giant_split()
        inactive_max, active_min = float(x0[-1]), float(x1[0])
        threshold = 0.5 * (inactive_max + active_min)
        tie_trials = membership.ties_broken
    else:
        inactive_max = active_min = float("nan")
        tie_trials = 0
    del calibration  # free its bits, one per node and trial, before evaluating
    status_hits = 0
    correct = np.zeros(n, dtype=np.int64)
    rng = rng_from_seed(0)  # set to each trial's release state in turn
    for block in world_blocks(g, q, eval_seed, trials, s):
        truth_active = block.giant_active & ~block.tie
        reported = np.array(
            [
                release_from(spec, bits, set_pcg64_state(rng, state))
                for bits, state in zip(block.activated, block.release_states)
            ]
        )
        judged_active = reported > threshold
        status_hits += int(np.count_nonzero(judged_active == truth_active))
        correct += (block.activated == judged_active[:, None]).sum(axis=0)
        del block  # free it before the next block is labeled

    per_node_accuracy = correct / trials
    stats = []
    for floor in sorted(floors, reverse=True):
        sel = membership.at_least(floor)
        count = int(sel.sum())
        precision = float(per_node_accuracy[sel].mean()) if count else float("nan")
        stats.append(
            FloorStats(
                floor=floor,
                predicted_nodes=count,
                coverage=count / n,
                precision=precision,
            )
        )
    return AttackEvaluation(
        giant_status_accuracy=status_hits / trials,
        floors=stats,
        per_node_accuracy=per_node_accuracy,
        decision_threshold=threshold,
        max_mechanism_error=max_error,
        membership=membership,
        inactive_max=inactive_max,
        active_min=active_min,
        tie_trials=tie_trials,
        trials=trials,
    )
