"""Inference attack on noisily released activation counts.

From one perturbed count per round, the adversary decides whether the giant
component activated and then predicts the activation bit of every node whose
giant-membership frequency clears a confidence floor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import (
    chung_lu_giant_condition,
    chung_lu_miss_bound,
    er_miss_bound,
    solve_giant_fraction,
)
from .graph import Graph, NodeWeights
from .percolation import MembershipEstimate, record_worlds, worlds
from .privacy import MechanismSpec, mechanism_error_quantile, release
from .seeding import child_seed

__all__ = [
    "AttackConfig",
    "AttackVerdict",
    "FloorStats",
    "AttackEvaluation",
    "classify_giant_status",
    "infer_nodes",
    "evaluate_attack",
    "vulnerable_set_er",
    "vulnerable_set_cl",
]

@dataclass(frozen=True)
class AttackConfig:
    """Calibrated quantities the adversary works with."""

    max_mechanism_error: float
    decision_threshold: float
    membership: MembershipEstimate


@dataclass(frozen=True)
class AttackVerdict:
    """Per-round inference output.

    `predicted` marks nodes whose membership frequency reached the floor;
    their `labels` entry is 1 when the giant was judged active, else 0, and
    their `confidence` entry equals the membership frequency. Other nodes
    abstain.
    """

    giant_status: str
    predicted: np.ndarray
    labels: np.ndarray
    confidence: np.ndarray

    @property
    def abstained(self) -> np.ndarray:
        return ~self.predicted


@dataclass(frozen=True)
class FloorStats:
    """Attack quality for one confidence floor."""

    floor: float
    predicted_nodes: int
    coverage: float
    precision: float


@dataclass(frozen=True)
class AttackEvaluation:
    giant_status_accuracy: float
    floors: list[FloorStats]
    per_node_accuracy: np.ndarray
    config: AttackConfig
    inactive_max: float
    active_min: float
    tie_trials: int
    calibration_trials: int
    evaluation_trials: int


def classify_giant_status(reported: float, decision_threshold: float) -> str:
    """'active' when the released count exceeds the threshold, else 'inactive'."""
    return "active" if reported > decision_threshold else "inactive"


def infer_nodes(
    giant_status: str,
    membership: MembershipEstimate,
    confidence_floor: float,
) -> AttackVerdict:
    """Predict activation bits for nodes that track the giant closely enough.

    When the giant was judged active, every node with membership frequency
    at or above the floor is predicted active; when inactive, predicted
    inactive. The reported confidence is the membership frequency itself.
    """
    if giant_status not in ("active", "inactive"):
        raise ValueError("giant_status must be 'active' or 'inactive'")
    if not 0.0 <= confidence_floor <= 1.0:
        raise ValueError("confidence_floor must lie in [0, 1]")
    predicted = membership.at_least(confidence_floor)
    labels = np.zeros(predicted.size, dtype=np.int8)
    if giant_status == "active":
        labels[predicted] = 1
    confidence = np.where(predicted, membership.frequency, 0.0)
    return AttackVerdict(
        giant_status=giant_status,
        predicted=predicted,
        labels=labels,
        confidence=confidence,
    )


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
    Evaluation phase: `trials` fresh rounds release a perturbed count, the
    adversary classifies giant activity and predicts node bits, and
    predictions are scored against the true activation vectors.

    Passing `decision_threshold` skips the split calibration and pins the
    cut directly; the split fields of the result are then nan/0. Needed for
    worlds whose giant is active in every round, where the split would
    degenerate, and for studying a mechanism at a fixed cut.

    Precision at a floor is the mean per-node accuracy over the nodes it
    would predict; rounds whose top components tie count as giant-inactive
    truth, matching the calibration split.
    """
    floors = [float(f) for f in floors]
    if not floors:
        raise ValueError("floors must name at least one confidence floor")
    cal_seed = child_seed(rng_seed, 1)
    eval_seed = child_seed(rng_seed, 2)
    calibration = record_worlds(g, q, s, trials, child_seed(cal_seed, 0))
    membership = calibration.membership()
    if decision_threshold is None:
        split = calibration.giant_split()
        threshold = split.midpoint
        inactive_max, active_min = split.inactive_max, split.active_min
        tie_trials = split.tie_trials
    else:
        threshold = float(decision_threshold)
        if not 0.0 < threshold < g.node_count:
            raise ValueError("decision_threshold must lie in (0, node_count)")
        inactive_max = active_min = float("nan")
        tie_trials = 0
    config = AttackConfig(
        max_mechanism_error=mechanism_error_quantile(spec, g.node_count),
        decision_threshold=threshold,
        membership=membership,
    )

    n = g.node_count
    status_hits = 0
    correct = np.zeros(n, dtype=np.int64)
    for trial_seed, lab, out in worlds(g, q, eval_seed, trials, s):
        truth_active = out.giant_active and not lab.tie_at_top
        reported = release(spec, out.activated, child_seed(trial_seed, 2))
        judged_active = classify_giant_status(reported, threshold) == "active"
        status_hits += int(judged_active == truth_active)
        correct += out.activated == judged_active

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
        config=config,
        inactive_max=inactive_max,
        active_min=active_min,
        tie_trials=tie_trials,
        calibration_trials=trials,
        evaluation_trials=trials,
    )


def vulnerable_set_er(g: Graph, p: float, q: float, eps: float) -> np.ndarray:
    """Nodes of an ER substrate whose miss-probability bound is at most eps.

    Uses the giant fraction for mean retained degree n * p * q; requires the
    supercritical regime n * p * q > 1.
    """
    c = g.node_count * p * q
    if c <= 1.0:
        raise ValueError("n * p * q must exceed 1 for a giant component")
    y = solve_giant_fraction(c).y
    bound = er_miss_bound(g.degrees, q, y)
    return np.nonzero(bound <= eps)[0].astype(np.int64)


def vulnerable_set_cl(
    weights: NodeWeights, q: float, eps: float, alpha: float
) -> np.ndarray:
    """Node ids of a power-law substrate whose miss bound is at most eps.

    Node id i carries rank i + 1. The bound grows with rank, so the result
    is a prefix of the heaviest nodes. Requires the giant-existence
    condition for (b, d, q).
    """
    b, d = weights.scale, weights.min_degree
    if not chung_lu_giant_condition(b, d, q):
        raise ValueError("no giant component for these (b, d, q)")
    n = weights.node_count
    bound = chung_lu_miss_bound(np.arange(1, n + 1), n, d, q, b, alpha)
    return np.nonzero(bound <= eps)[0].astype(np.int64)
