"""Bond percolation and seed-set contagion on a fixed substrate graph.

A contagion with per-edge transmission probability q is simulated by
retaining each edge independently with probability q and activating exactly
the retained-edge components that contain a seed. Every Monte Carlo
estimator is a reduction over `worlds`, which derives each trial's streams
from (seed, trial index) alone, so estimates are reproducible.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .distributions import EmpiricalDistribution
from .graph import Graph
from .seeding import child_seed, rng_from_seed

logger = logging.getLogger(__name__)

__all__ = [
    "DegenerateConditioningError",
    "TriggeringSet",
    "ComponentLabeling",
    "CascadeOutcome",
    "MembershipEstimate",
    "ActivitySplit",
    "percolate",
    "connected_components",
    "run_cascade",
    "sample_seeds",
    "worlds",
    "estimate_giant_membership",
    "conditional_count_distributions",
    "conditional_giant_distributions",
]


class DegenerateConditioningError(RuntimeError):
    """A conditional distribution received no samples in one branch."""


@dataclass(frozen=True)
class TriggeringSet:
    """Retained-edge world drawn by one percolation round."""

    base: Graph
    retained_edges: np.ndarray
    q: float

    @property
    def retained_count(self) -> int:
        return int(self.retained_edges.shape[0])


@dataclass(frozen=True)
class ComponentLabeling:
    """Connected components of a retained-edge world, ranked by size.

    `labels[v]` is the rank of v's component; rank 0 is the largest.
    `sizes` is non-increasing and sums to the node count. Equal sizes rank
    the component containing the lowest node id first.
    """

    labels: np.ndarray
    sizes: np.ndarray

    @property
    def component_count(self) -> int:
        return int(self.sizes.size)

    @property
    def giant_size(self) -> int:
        return int(self.sizes[0])

    @property
    def second_size(self) -> int:
        return int(self.sizes[1]) if self.sizes.size > 1 else 0

    @property
    def tie_at_top(self) -> bool:
        """True when the two largest components have equal size."""
        return self.sizes.size > 1 and int(self.sizes[0]) == int(self.sizes[1])


@dataclass(frozen=True)
class CascadeOutcome:
    """Result of seeding one retained-edge world."""

    seeds: np.ndarray
    activated: np.ndarray
    count: int
    giant_active: bool


@dataclass(frozen=True)
class MembershipEstimate:
    """Per-node frequency of giant-component membership over many trials."""

    trials: int
    frequency: np.ndarray
    ties_broken: int

    def at_least(self, floor: float) -> np.ndarray:
        """Mask of the nodes whose membership frequency reaches `floor`."""
        return self.frequency >= floor


@dataclass(frozen=True)
class ActivitySplit:
    """Activation-count distributions split by giant activity.

    `inactive` collects trials where the largest component was not seeded
    (including ambiguous trials whose two largest components tied), and
    `active` the rest. `inactive_max` and `active_min` are the extreme
    supports; `midpoint` is their average, usable as a decision threshold.
    """

    inactive: EmpiricalDistribution
    active: EmpiricalDistribution
    inactive_max: float
    active_min: float
    midpoint: float
    tie_trials: int


def percolate(g: Graph, q: float, rng_seed: int) -> TriggeringSet:
    """Retain each edge of g independently with probability q.

    One coin per undirected edge; q must lie in (0, 1]. Deterministic for a
    fixed (g, q, rng_seed).
    """
    if not 0.0 < q <= 1.0:
        raise ValueError("q must lie in (0, 1]")
    rng = rng_from_seed(rng_seed)
    mask = rng.random(g.edge_count) < q
    return TriggeringSet(base=g, retained_edges=g.edges[mask], q=q)


def connected_components(h: TriggeringSet) -> ComponentLabeling:
    """Label the connected components of the retained subgraph.

    Ranks are deterministic: descending size, then ascending lowest member
    id, so repeated runs agree bit for bit.

    Hook-and-jump labeling (Shiloach & Vishkin, J. Algorithms 3, 1982):
    each round hooks the larger root of every edge that still crosses two
    trees onto the smaller one, then pointer-jumps until every node points
    at its root. `root[x] <= x` holds throughout, so each component ends
    rooted at its lowest member.
    """
    n = h.base.node_count
    root = np.arange(n, dtype=np.int64)
    u, v = h.retained_edges[:, 0], h.retained_edges[:, 1]
    while True:
        ru, rv = root[u], root[v]
        cross = ru != rv
        if not cross.any():
            break
        # an edge whose endpoints share a root never crosses again
        u, v, ru, rv = u[cross], v[cross], ru[cross], rv[cross]
        np.minimum.at(root, np.maximum(ru, rv), np.minimum(ru, rv))
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped
    sizes = np.bincount(root, minlength=n)
    lowest = np.flatnonzero(sizes)
    sizes = sizes[lowest]
    # lowest members ascend, so a stable sort by size breaks ties toward
    # the component holding the lowest node id
    order = np.argsort(-sizes, kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[lowest[order]] = np.arange(lowest.size, dtype=np.int64)
    return ComponentLabeling(labels=rank[root], sizes=sizes[order])


def run_cascade(
    h: TriggeringSet,
    seeds: Iterable[int],
    labeling: ComponentLabeling | None = None,
) -> CascadeOutcome:
    """Activate every node sharing a retained-edge component with a seed.

    Equivalent to breadth-first contagion over the retained edges. An empty
    seed set is allowed (activates nothing) but logged, since experiments
    assume at least one seed. Pass `labeling` to reuse a precomputed
    component labeling of the same world.
    """
    n = h.base.node_count
    if isinstance(seeds, np.ndarray):
        seed_arr = np.unique(seeds.astype(np.int64))
    else:
        seed_arr = np.unique(np.fromiter(seeds, dtype=np.int64))
    if seed_arr.size and (seed_arr[0] < 0 or seed_arr[-1] >= n):
        raise ValueError("seed id outside 0..node_count-1")
    if seed_arr.size == 0:
        logger.warning("cascade run with an empty seed set; nothing activates")
        return CascadeOutcome(
            seeds=seed_arr,
            activated=np.zeros(n, dtype=bool),
            count=0,
            giant_active=False,
        )
    if labeling is None:
        labeling = connected_components(h)
    seeded = np.zeros(labeling.component_count, dtype=bool)
    seeded[labeling.labels[seed_arr]] = True
    activated = seeded[labeling.labels]
    return CascadeOutcome(
        seeds=seed_arr,
        activated=activated,
        count=int(activated.sum()),
        giant_active=bool(seeded[0]),
    )


def sample_seeds(n: int, s: int, rng_seed: int) -> np.ndarray:
    """Draw s distinct seed nodes uniformly from 0..n-1, sorted ascending."""
    if not 0 < s <= n:
        raise ValueError("s must satisfy 0 < s <= n")
    return np.sort(rng_from_seed(rng_seed).choice(n, size=s, replace=False))


def worlds(
    g: Graph, q: float, rng_seed: int, trials: int, s: int | None = None
) -> Iterator[tuple[int, ComponentLabeling, CascadeOutcome | None]]:
    """Draw `trials` independent worlds; yield (trial_seed, labeling, outcome).

    Trial t reads only the streams under trial_seed = child_seed(rng_seed, t):
    sub-stream 0 percolates, sub-stream 1 draws s uniform seeds, and
    sub-stream 2 is left to the caller for the release. Without `s` no seeds
    are drawn and the outcome is None. Every estimator below is a reduction
    over this stream, so each is reproducible from (rng_seed, trials) alone.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    for t in range(trials):
        trial_seed = child_seed(rng_seed, t)
        h = percolate(g, q, child_seed(trial_seed, 0))
        lab = connected_components(h)
        out = None
        if s is not None:
            seeds = sample_seeds(g.node_count, s, child_seed(trial_seed, 1))
            out = run_cascade(h, seeds, labeling=lab)
        yield trial_seed, lab, out


def _both_branches(
    inactive: list[int], active: list[int], names: tuple[str, str], trials: int
) -> tuple[EmpiricalDistribution, EmpiricalDistribution]:
    for samples, name in zip((inactive, active), names):
        if not samples:
            raise DegenerateConditioningError(
                f"{name} received 0 of {trials} trials; "
                "the conditional distribution is undefined"
            )
    return (
        EmpiricalDistribution.from_samples(inactive),
        EmpiricalDistribution.from_samples(active),
    )


def estimate_giant_membership(
    g: Graph,
    q: float,
    trials: int,
    rng_seed: int,
) -> MembershipEstimate:
    """Estimate each node's probability of landing in the giant component.

    Runs `trials` independent percolation rounds and counts, per node, the
    rounds whose largest retained component contained it. `frequency * trials`
    is integral by construction. `ties_broken` counts the rounds whose two
    largest components had equal size and were ordered by the lowest-id rule.
    """
    counts = np.zeros(g.node_count, dtype=np.int64)
    ties = 0
    for _, lab, _ in worlds(g, q, rng_seed, trials):
        counts += lab.labels == 0
        ties += int(lab.tie_at_top)
    return MembershipEstimate(
        trials=trials, frequency=counts / trials, ties_broken=ties
    )


def conditional_count_distributions(
    g: Graph,
    q: float,
    s: int,
    v: int,
    trials: int,
    rng_seed: int,
) -> tuple[EmpiricalDistribution, EmpiricalDistribution]:
    """Split the activation count by whether node v itself activated.

    Runs `trials` joint (percolation, seed set) draws and partitions the
    activation counts X by x_v. Returns (counts when v stayed inactive,
    counts when v activated); each carries its branch sample count.

    Raises:
        DegenerateConditioningError: one branch received zero samples, e.g.
            a connected graph at q=1 never leaves v inactive.
    """
    if not 0 <= v < g.node_count:
        raise ValueError("v outside 0..node_count-1")
    inactive: list[int] = []
    active: list[int] = []
    for _, _, out in worlds(g, q, rng_seed, trials, s):
        (active if out.activated[v] else inactive).append(out.count)
    return _both_branches(
        inactive,
        active,
        (f"branch x_v=0 for node {v}", f"branch x_v=1 for node {v}"),
        trials,
    )


def conditional_giant_distributions(
    g: Graph,
    q: float,
    s: int,
    trials: int,
    rng_seed: int,
) -> ActivitySplit:
    """Split the activation count by whether the giant component activated.

    A trial counts as giant-active when a seed fell in the unique largest
    retained component; trials whose two largest components tied in size are
    ambiguous and are assigned to the inactive branch (`tie_trials` reports
    how many). The split's `midpoint` sits halfway between the largest
    inactive count and the smallest active count.

    Raises:
        DegenerateConditioningError: either branch is empty, e.g. a
            connected graph at q=1 activates the giant in every trial.
    """
    inactive: list[int] = []
    active: list[int] = []
    ties = 0
    for _, lab, out in worlds(g, q, rng_seed, trials, s):
        ties += int(lab.tie_at_top)
        is_active = out.giant_active and not lab.tie_at_top
        (active if is_active else inactive).append(out.count)
    x0, x1 = _both_branches(
        inactive, active, ("giant-inactive branch", "giant-active branch"), trials
    )
    theta0 = x0.support_max
    theta1 = x1.support_min
    return ActivitySplit(
        inactive=x0,
        active=x1,
        inactive_max=theta0,
        active_min=theta1,
        midpoint=0.5 * (theta0 + theta1),
        tie_trials=ties,
    )
