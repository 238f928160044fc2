"""Bond percolation and seed-set contagion on a fixed substrate graph.

A contagion with per-edge transmission probability q is simulated by
retaining each edge independently with probability q and activating exactly
the retained-edge components that contain a seed. Every Monte Carlo
estimator is a reduction over `worlds` (or, across a grid of q, over
`coupled_worlds`), which derive each trial's streams from (seed, trial
index) alone, so estimates are reproducible.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .distributions import EmpiricalDistribution, _sorted_distinct
from .graph import Graph
from .seeding import child_seed, rng_from_seed

logger = logging.getLogger(__name__)

__all__ = [
    "DegenerateConditioningError",
    "ComponentLabeling",
    "CascadeOutcome",
    "MembershipEstimate",
    "ActivitySplit",
    "WorldRecord",
    "percolate",
    "connected_components",
    "run_cascade",
    "sample_seeds",
    "worlds",
    "coupled_worlds",
    "record_worlds",
    "estimate_giant_membership",
]


class DegenerateConditioningError(RuntimeError):
    """A conditional distribution received no samples in one branch."""


@dataclass(frozen=True)
class ComponentLabeling:
    """Connected components of a retained-edge world and its largest one.

    `root[v]` is the lowest member of v's component. The giant is the
    largest component, rooted at `giant_root`; equal sizes give it to the
    component holding the lowest node id. `second_size` is the size of the
    next largest component, 0 when there is only one.
    """

    root: np.ndarray
    giant_root: int
    giant_size: int
    second_size: int

    @classmethod
    def from_root(cls, root: np.ndarray) -> ComponentLabeling:
        """Read the giant and the second size off a lowest-member `root`."""
        sizes = np.bincount(root, minlength=root.size)
        # argmax takes the first maximum: the tied component with the lowest root
        giant_root = int(np.argmax(sizes))
        giant_size = int(sizes[giant_root])
        sizes[giant_root] = 0
        return cls(root, giant_root, giant_size, int(sizes.max()))

    @property
    def in_giant(self) -> np.ndarray:
        """Mask of the nodes in the giant component."""
        return self.root == self.giant_root

    @property
    def tie_at_top(self) -> bool:
        """True when the two largest components have equal size."""
        return self.second_size == self.giant_size


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


@dataclass(frozen=True)
class WorldRecord:
    """What one pass over `worlds` with seeds leaves for its estimators.

    Rows are the trials ordered by ascending activation count (stably, so
    equal counts keep trial order). Row t holds the count `counts[t]`, the
    activation vector `packed[t]` (packed by `np.packbits`), whether a seed
    fell in the largest component (`giant_active[t]`) and whether the two
    largest components tied (`tie[t]`). `giant_hits[v]` counts the trials
    whose largest component held node v.
    """

    counts: np.ndarray
    packed: np.ndarray
    giant_active: np.ndarray
    tie: np.ndarray
    giant_hits: np.ndarray

    def activated(self, v: int) -> np.ndarray:
        """Node v's activation bit in every row; v must lie in 0..n-1."""
        if not 0 <= v < self.giant_hits.size:
            raise ValueError("v outside 0..node_count-1")
        return (self.packed[:, v >> 3] >> (7 - (v & 7)) & 1).astype(bool)

    def _split(self, mask: np.ndarray, names: tuple[str, str]):
        """Ascending counts of the rows outside `mask` and of those inside.

        Raises:
            DegenerateConditioningError: a branch, named by `names`, is empty.
        """
        branches = self.counts[~mask], self.counts[mask]
        for samples, name in zip(branches, names):
            if not samples.size:
                raise DegenerateConditioningError(
                    f"{name} received 0 of {self.counts.size} trials; "
                    "the conditional distribution is undefined"
                )
        return branches

    def node_split(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        """Split the counts by whether node v itself activated.

        Returns the ascending counts of the trials where v stayed inactive
        and of those where it activated: samples of the count conditioned
        on x_v = 0 and on x_v = 1.

        Raises:
            ValueError: v is outside 0..n-1.
            DegenerateConditioningError: one branch received zero samples,
                e.g. a connected graph at q=1 never leaves v inactive.
        """
        names = (f"branch x_v=0 for node {v}", f"branch x_v=1 for node {v}")
        return self._split(self.activated(v), names)

    def giant_split(self) -> ActivitySplit:
        """Split the counts by whether the giant component activated.

        A trial counts as giant-active when a seed fell in the unique
        largest retained component; trials whose two largest components
        tied in size are ambiguous and go to the inactive branch
        (`tie_trials` reports how many). The split's `midpoint` sits halfway
        between the largest inactive count and the smallest active count.

        Raises:
            DegenerateConditioningError: either branch is empty, e.g. a
                connected graph at q=1 activates the giant in every trial.
        """
        names = ("giant-inactive branch", "giant-active branch")
        x0, x1 = map(
            EmpiricalDistribution.from_samples,
            self._split(self.giant_active & ~self.tie, names),
        )
        lo, hi = x0.support_max, x1.support_min
        return ActivitySplit(x0, x1, lo, hi, 0.5 * (lo + hi), int(self.tie.sum()))

    def membership(self) -> MembershipEstimate:
        """The `estimate_giant_membership` reduction of these trials."""
        trials = self.counts.size
        return MembershipEstimate(trials, self.giant_hits / trials, int(self.tie.sum()))


def percolate(g: Graph, q: float, rng_seed: int) -> np.ndarray:
    """Retain each edge of g independently with probability q.

    One coin per undirected edge; q must lie in (0, 1]. Returns the retained
    rows of `g.edges`, deterministic for a fixed (g, q, rng_seed).
    """
    if not 0.0 < q <= 1.0:
        raise ValueError("q must lie in (0, 1]")
    rng = rng_from_seed(rng_seed)
    # compress copies the kept rows several times faster than a boolean index
    return g.edges.compress(rng.random(g.edge_count) < q, axis=0)


def connected_components(n: int, retained_edges: np.ndarray) -> ComponentLabeling:
    """Label the components of the n-node graph on `retained_edges`."""
    return ComponentLabeling.from_root(
        _hook_and_jump(np.arange(n, dtype=np.int64), retained_edges)
    )


def _hook_and_jump(root: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Merge the components joined by `edges` into the forest of stars `root`.

    Hook-and-jump labeling (Shiloach & Vishkin, J. Algorithms 3, 1982):
    each round hooks the larger root of every edge onto the smaller one,
    then pointer-jumps until every node points at its root, and keeps only
    the edges that still cross two trees. An edge whose endpoints share a
    root hooks nothing, so the first round hooks every edge uncompacted.
    `root[x] <= x` holds throughout, so each component ends rooted at its
    lowest member, and the result is again a forest of stars that later
    edges can be merged into. `root` itself is not modified.
    """
    root = root.copy()
    u, v = edges[:, 0], edges[:, 1]
    ru, rv = root.take(u), root.take(v)
    while u.size:
        np.minimum.at(root, np.maximum(ru, rv), np.minimum(ru, rv))
        while True:
            jumped = root.take(root)
            if np.array_equal(jumped, root):
                break
            root = jumped
        ru, rv = root.take(u), root.take(v)
        # flatnonzero + take copies several times faster than a boolean index
        cross = np.flatnonzero(ru != rv)
        u, v, ru, rv = u.take(cross), v.take(cross), ru.take(cross), rv.take(cross)
    return root


def run_cascade(labeling: ComponentLabeling, seeds: Iterable[int]) -> CascadeOutcome:
    """Activate every node sharing a retained-edge component with a seed.

    Equivalent to breadth-first contagion over the labeled world's retained
    edges. An empty seed set is allowed (activates nothing) but logged,
    since experiments assume at least one seed.
    """
    root = labeling.root
    if isinstance(seeds, np.ndarray):
        seed_arr = _sorted_distinct(seeds.astype(np.int64))
    else:
        seed_arr = _sorted_distinct(np.fromiter(seeds, dtype=np.int64))
    if seed_arr.size and (seed_arr[0] < 0 or seed_arr[-1] >= root.size):
        raise ValueError("seed id outside 0..node_count-1")
    if seed_arr.size == 0:
        logger.warning("cascade run with an empty seed set; nothing activates")
    seeded = np.zeros(root.size, dtype=bool)
    seeded[root[seed_arr]] = True
    activated = seeded[root]
    return CascadeOutcome(
        seeds=seed_arr,
        activated=activated,
        count=int(activated.sum()),
        giant_active=bool(seeded[labeling.giant_root]),
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
        retained = percolate(g, q, child_seed(trial_seed, 0))
        lab = connected_components(g.node_count, retained)
        out = None
        if s is not None:
            seeds = sample_seeds(g.node_count, s, child_seed(trial_seed, 1))
            out = run_cascade(lab, seeds)
        yield trial_seed, lab, out


def coupled_worlds(
    g: Graph, q_grid, rng_seed: int, trials: int
) -> Iterator[tuple[int, int, ComponentLabeling]]:
    """Draw `trials` worlds, each labeled at every q of `q_grid`.

    Yields (trial_seed, qi, labeling) for each trial and each index qi into
    `q_grid`, walking the grid in ascending q (equal q in grid order).
    Trial t draws one uniform coin per edge from child_seed(trial_seed, 0),
    the stream `percolate` reads, so the labeling at q is exactly
    `connected_components(n, percolate(g, q, child_seed(trial_seed, 0)))`.
    All q share the coins (Newman & Ziff, PRL 85, 4104, 2000): retained
    edge sets nest, so each q only merges the newly admitted edges into the
    previous q's components. Estimates at different q are correlated within
    a trial.
    """
    q = np.asarray(q_grid, dtype=np.float64)
    if q.ndim != 1 or not q.size:
        raise ValueError("q_grid must hold at least one q")
    if not np.all((q > 0.0) & (q <= 1.0)):
        raise ValueError("q must lie in (0, 1]")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    walk = np.argsort(q, kind="stable")
    for t in range(trials):
        trial_seed = child_seed(rng_seed, t)
        coins = rng_from_seed(child_seed(trial_seed, 0)).random(g.edge_count)
        order = np.argsort(coins)
        # edges[:stop] are those whose coin lies below q, as in `percolate`
        stops = np.searchsorted(coins.take(order), q[walk])
        edges = g.edges.take(order[: stops[-1]], axis=0)
        root, start = np.arange(g.node_count, dtype=np.int64), 0
        for qi, stop in zip(walk.tolist(), stops.tolist()):
            root = _hook_and_jump(root, edges[start:stop])
            start = stop
            yield trial_seed, qi, ComponentLabeling.from_root(root)


def record_worlds(
    g: Graph, q: float, s: int, trials: int, rng_seed: int
) -> WorldRecord:
    """Record every trial of `worlds(g, q, rng_seed, trials, s)` in one pass.

    Each estimator that splits the activation count, by one node's bit or
    by giant activity, reads this record, so a calibration over any number
    of nodes draws `trials` worlds in all. Memory is one bit per node and
    trial.
    """
    n = g.node_count
    counts = np.empty(trials, dtype=np.int64)
    packed = np.empty((trials, (n + 7) // 8), dtype=np.uint8)
    giant_active = np.empty(trials, dtype=bool)
    tie = np.empty(trials, dtype=bool)
    giant_hits = np.zeros(n, dtype=np.int64)
    for t, (_, lab, out) in enumerate(worlds(g, q, rng_seed, trials, s)):
        counts[t], packed[t] = out.count, np.packbits(out.activated)
        giant_active[t], tie[t] = out.giant_active, lab.tie_at_top
        giant_hits += lab.in_giant
    order = np.argsort(counts, kind="stable")
    return WorldRecord(
        counts[order], packed[order], giant_active[order], tie[order], giant_hits
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
        counts += lab.in_giant
        ties += int(lab.tie_at_top)
    return MembershipEstimate(
        trials=trials, frequency=counts / trials, ties_broken=ties
    )
