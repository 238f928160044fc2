"""Bond percolation and seed-set contagion on a fixed substrate graph.

A contagion with per-edge transmission probability q is simulated by
retaining each edge independently with probability q and activating exactly
the retained-edge components that contain a seed. Every Monte Carlo
estimator is a reduction over `world_blocks`, the one trial engine, which
derives each trial's streams from (seed, trial index) alone, so estimates
are reproducible. It is the one place that derives them. It splits the
trials into blocks of max(1, B // n) consecutive trials (at most all of
them), B a fixed node budget, and `seeding.trial_streams` hands it each
block with its rows of one chunk: their starting states come from one numpy
pass per chunk of whole blocks, so no trial pays for a generator of its
own, and each block hands its rows' release states to the caller. It
labels a block as one disjoint union of its worlds by hook-and-jump: a
small world costs mostly per-call overhead, which the block pays once, and
a round that merges few edges jumps only the roots it hooked. The union's
edges are two C-contiguous endpoint rows built once per call, the graph's
own for a lone world; its first labeling starts from the identity forest
without gathering through it. Given a grid of q, it draws each trial's
coins once and labels the block at every q, merging only the edges each q
admits beyond the one before. Three consumers fold blocks, by integer sums
or by filling their trials' rows, so no result depends on the blocking:
`record_worlds`, which every single-q estimator reads, the sweep and the
attack's evaluation. A conditional law of the activation count
(`WorldRecord.node_split`, `WorldRecord.giant_split`) is the ascending
integer sample of the counts its trials gave.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

import numpy as np

from .graph import Graph
from .seeding import rng_from_seed, set_pcg64_state, trial_streams

# node budget B of one block of trials, which holds max(1, B // n) worlds.
# A small world's labeling costs mostly per-call overhead, which a block
# pays once. On 2 vCPUs, ER worlds at n = 2500 cost about a third less in
# blocks of 6 (B = 2^14) and no less in blocks of 13 (2^15); at n = 10^4,
# blocks of 3 (2^15) did not reliably beat lone worlds; and B = 2^17 was
# slower than 2^15 at every n from 1000 to 20000.
_BLOCK_NODES = 1 << 14

# a labeling round with fewer crossing edges than this share of the entries
# pointer-jumps only the roots it hooked, then makes one full pass; with
# more, it jumps every entry until none moves
_CHASE_SHARE = 0.25

# a jump halves every chain, and chains are shorter than 2^63, so a jump
# loop that runs longer than this is at fault
_MAX_JUMPS = 64

__all__ = [
    "DegenerateConditioningError",
    "WorldBlock",
    "MembershipEstimate",
    "WorldRecord",
    "world_blocks",
    "record_worlds",
]


class DegenerateConditioningError(RuntimeError):
    """A conditional distribution received no samples in one branch."""


class WorldBlock(NamedTuple):
    """Consecutive trials `start`, `start + 1`, ... labeled as one union.

    Its worlds are retained at the `qi`-th q given to `world_blocks` (0 for
    a single q). Row i is trial `start + i`, drawn under `trial_seeds[i]`.
    Its world holds the union's nodes i*n .. i*n + n-1, so node x of that
    trial has union id i*n + x, and every id in `root` and `giant_root` is
    a union id.
    `root[i, x]` is the lowest member of x's component, `giant_root[i]` the
    root of row i's largest component (equal sizes give it to the
    component holding the lowest node id) and `giant_size[i]` and
    `second_size[i]` the two largest sizes. With seeds, `seeds[i]` holds
    row i's sorted seed ids (as node ids, not union ids), `activated[i]`
    its activation vector, `counts[i]` its activation count,
    `giant_active[i]` whether a seed fell in its largest component and
    `release_states[i]` the PCG64 state of its release sub-stream (2), for
    `seeding.set_pcg64_state`; without seeds these five are None.
    """

    start: int
    qi: int
    trial_seeds: list[int]
    root: np.ndarray
    giant_root: np.ndarray
    giant_size: np.ndarray
    second_size: np.ndarray
    seeds: np.ndarray | None = None
    activated: np.ndarray | None = None
    counts: np.ndarray | None = None
    giant_active: np.ndarray | None = None
    release_states: list[tuple[int, int]] | None = None

    @property
    def rows(self) -> slice:
        """The block's trial indices, as a slice of a per-trial array."""
        return slice(self.start, self.start + len(self.trial_seeds))

    @property
    def tie(self) -> np.ndarray:
        """Per row, whether the two largest components have equal size."""
        return self.second_size == self.giant_size

    @property
    def in_giant(self) -> np.ndarray:
        """Per row, the mask of the nodes in that row's giant component."""
        return self.root == self.giant_root[:, None]


class MembershipEstimate(NamedTuple):
    """Per-node frequency of giant-component membership over many trials."""

    trials: int
    frequency: np.ndarray
    ties_broken: int

    def at_least(self, floor: float) -> np.ndarray:
        """Mask of the nodes whose membership frequency reaches `floor`."""
        return self.frequency >= floor


class WorldRecord(NamedTuple):
    """What one pass over `world_blocks` at one q leaves for its estimators.

    With seeds, rows are the trials ordered by ascending activation count
    (stably, so equal counts keep trial order). Row t holds the count
    `counts[t]`, the activation vector `packed[t]` (packed by
    `np.packbits`) and whether a seed fell in the largest component
    (`giant_active[t]`). Without seeds, rows keep trial order and those
    three are None. Either way row t holds the two largest component sizes
    `giant_size[t]` and `second_size[t]`, and `giant_hits[v]` counts the
    trials whose largest component held node v.
    """

    counts: np.ndarray | None
    packed: np.ndarray | None
    giant_active: np.ndarray | None
    giant_size: np.ndarray
    second_size: np.ndarray
    giant_hits: np.ndarray

    @property
    def tie(self) -> np.ndarray:
        """Per row, whether the two largest components have equal size."""
        return self.second_size == self.giant_size

    def _require_seeds(self) -> None:
        if self.counts is None:
            raise ValueError(
                "this record drew no seeds (s=None), so it holds no activations"
            )

    def activated(self, v: int) -> np.ndarray:
        """Node v's activation bit in every row; v must lie in 0..n-1."""
        self._require_seeds()
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
            ValueError: v is outside 0..n-1, or the record drew no seeds.
            DegenerateConditioningError: one branch received zero samples,
                e.g. a connected graph at q=1 never leaves v inactive.
        """
        names = (f"branch x_v=0 for node {v}", f"branch x_v=1 for node {v}")
        return self._split(self.activated(v), names)

    def giant_split(self) -> tuple[np.ndarray, np.ndarray]:
        """Split the counts by whether the giant component activated.

        Returns the ascending counts of the giant-inactive trials and of the
        giant-active ones. A trial counts as giant-active when a seed fell
        in the unique largest retained component; trials whose two largest
        components tied in size are ambiguous and go to the inactive
        branch (`tie` marks them).

        Raises:
            ValueError: the record drew no seeds.
            DegenerateConditioningError: either branch is empty, e.g. a
                connected graph at q=1 activates the giant in every trial.
        """
        self._require_seeds()
        names = ("giant-inactive branch", "giant-active branch")
        return self._split(self.giant_active & ~self.tie, names)

    def membership(self) -> MembershipEstimate:
        """Each node's giant-membership frequency; `ties_broken` counts the
        trials whose top two sizes tied (the lowest-id rule picks the giant)."""
        trials = self.giant_size.size
        return MembershipEstimate(trials, self.giant_hits / trials, int(self.tie.sum()))


def _top_two(root: np.ndarray, k: int):
    """Each of k equal rows' giant root, giant size and second size.

    `root` is a lowest-member root over k disjoint worlds of equal size,
    world i on ids i*n .. i*n + n-1; giant roots are row-local ids.
    """
    sizes = np.bincount(root, minlength=root.size).reshape(k, -1)
    # argmax takes each row's first maximum: the tied component with the
    # lowest root
    giant = sizes.argmax(axis=1)
    at_giant = np.arange(k), giant
    giant_size = sizes[at_giant]
    sizes[at_giant] = 0
    return giant, giant_size, sizes.max(axis=1)


def _hook_and_jump(root: np.ndarray | int, edges: np.ndarray) -> np.ndarray:
    """Merge the components joined by `edges` into the forest of stars `root`.

    Hook-and-jump labeling (Shiloach & Vishkin, J. Algorithms 3, 1982):
    each round hooks the larger root of every edge onto the smaller one,
    then pointer-jumps until every node points at its root, and keeps only
    the edges that still cross two trees. An edge whose endpoints share a
    root hooks nothing, so the first round hooks every edge uncompacted.
    `root[x] <= x` holds throughout, so each component ends rooted at its
    lowest member, and the result is again a forest of stars that later
    edges can be merged into. `root` itself is not modified.

    `edges` is a (2, m') array whose rows hold the endpoints u and v; an
    edge may come in either order, or be a loop. `root` is a forest of
    stars, or an int N that stands for the identity forest `arange(N)`:
    its first round then hooks on the endpoints themselves, since those
    are their own roots, and no identity is copied or gathered through.

    A hook moves only the roots it hooks, and every other node points at a
    root. So a round with fewer crossing edges than `_CHASE_SHARE` of the
    entries jumps only the hooked roots until each points at a root that
    stays put, then makes one full pass; other rounds jump every entry.

    Raises:
        RuntimeError: a round's hook lowered no entry, or a jump loop ran
            past `_MAX_JUMPS` passes. In a forest of stars every crossing
            edge's larger end is a root that its hook lowers, so either
            means the labels are corrupt, and the rounds would never end.
    """
    u, v = edges
    if isinstance(root, np.ndarray):
        root = root.copy()
        ru, rv = root.take(u), root.take(v)
    else:
        root = np.arange(root, dtype=np.int64)
        ru, rv = u, v
    # `before` sums the entries that a round's hook must lower: every entry
    # in a full round, the hooked roots in a chase round. Since root[x] <= x,
    # neither a hook nor a jump raises an entry, so an unchanged sum means
    # that none moved. It is None in the first round, whose edges need not
    # cross. Crossing edges only shrink, so the full rounds come first, and
    # each reads the sum that the last one's jumps left.
    before = None
    while u.size:
        hooked = np.maximum(ru, rv)
        chase = u.size < _CHASE_SHARE * root.size
        if chase and before is not None:
            before = root.take(hooked).sum()
        np.minimum.at(root, hooked, np.minimum(ru, rv))
        if chase:
            at = root.take(hooked)
            total = at.sum()
        else:
            total = root.sum()
        if total == before:
            raise RuntimeError("a hook lowered no root: the labels are not stars")
        if chase:
            for _ in range(_MAX_JUMPS):
                # duplicate hooked roots take equal values
                at = root.take(at)
                jumped = at.sum()
                if jumped == total:
                    break
                root[hooked] = at
                total = jumped
            else:
                raise RuntimeError(f"hooked roots still moved after {_MAX_JUMPS} jumps")
            root = root.take(root)
        else:
            for _ in range(_MAX_JUMPS):
                root = root.take(root)
                jumped = root.sum()
                if jumped == total:
                    break
                total = jumped
            else:
                raise RuntimeError(f"entries still moved after {_MAX_JUMPS} jumps")
        ru, rv = root.take(u), root.take(v)
        # flatnonzero + take copies several times faster than a boolean index
        cross = np.flatnonzero(ru != rv)
        u, v, ru, rv = u.take(cross), v.take(cross), ru.take(cross), rv.take(cross)
        before = total
    return root


def _draw_seeds(n: int, s: int, rng: np.random.Generator) -> np.ndarray:
    """Draw s distinct seed nodes uniformly from 0..n-1 by `rng`, sorted
    ascending."""
    if not 0 < s <= n:
        raise ValueError("s must satisfy 0 < s <= n")
    if s == 1:
        # choice draws one node by one bounded integer draw (Floyd's
        # algorithm), which `integers` makes at a quarter of the cost
        return np.array([rng.integers(n)])
    return np.sort(rng.choice(n, size=s, replace=False))


def _cascade(root: np.ndarray, seeds: np.ndarray, giant_root: np.ndarray):
    """Seed each of k equal worlds of the lowest-member union `root`.

    Row i of `seeds` holds world i's seeds as union ids, and `giant_root[i]`
    the union id of its giant's root. Returns the k rows of activation
    vectors (every node sharing a component with one of the row's seeds),
    their counts, and per row whether a seed fell in the giant.
    """
    seeded = np.zeros(root.size, dtype=bool)
    seeded[root.take(seeds)] = True
    activated = seeded.take(root).reshape(len(seeds), -1)
    return activated, activated.sum(axis=1), seeded.take(giant_root)


def _admitted(edges: np.ndarray, coin_states, qs: np.ndarray, rng):
    """Split a block's edges by the q of ascending `qs` that admits them.

    `edges` holds the endpoint rows of a (2, k·m) union: column e is edge
    e % m of the block's trial e // m, which draws its m coins from its
    sub-stream 0, whose state is `coin_states[e // m]` (set on the reused
    generator `rng`); an edge is retained at q when its coin lies below q.
    Part j holds, as C-contiguous (2, m') rows, the columns retained at
    qs[j] and not at qs[j - 1]. The coins are freed on return, before any
    labeling: labeled with the coins alive, a world at n = 10^6 took about
    8 % longer, its temporaries faulting in fresh pages.
    """
    k = len(coin_states)
    coins = np.empty((k, edges.shape[1] // k))
    for row, state in zip(coins, coin_states):
        set_pcg64_state(rng, state).random(out=row)
    coins = coins.ravel()
    parts = []
    before = None
    for q in qs.tolist():
        now = coins < q
        # compress copies the kept columns several times faster than a
        # boolean index
        parts.append(edges.compress(now if before is None else now ^ before, axis=1))
        before = now
    return parts


def world_blocks(
    g: Graph, q, rng_seed: int, trials: int, s: int | None = None
) -> Iterator[WorldBlock]:
    """Draw `trials` independent worlds in blocks, labeled at every q given.

    `q` is one transmission probability or a grid of them, each in (0, 1].
    Trial t reads only the streams under trial_seed = child_seed(rng_seed, t):
    sub-stream 0 draws one uniform coin per edge, and the edge is retained
    at q when its coin lies below q; sub-stream 1 draws s uniform seeds; and
    sub-stream 2 is the caller's, for the release: each block hands over its
    rows' states (`release_states`). Without `s` neither sub-stream 1 nor 2
    is derived and no seeds are drawn. A block holds min(trials,
    max(1, B // n)) trials for a fixed node budget B and labels their worlds
    as one disjoint union, then reads each trial's giant, second size and
    cascade off the union row by row, so every row equals its world labeled
    alone. `seeding.trial_streams` derives the states a chunk of whole
    blocks at a time and yields them block by block; those of sub-streams 0
    and 1 are set in turn on one generator that the call owns.

    Each block is yielded once per q, with `qi` the index of that q in the
    grid. All q share the coins (Newman & Ziff, PRL 85, 4104, 2000): the
    retained edge sets nest, so the grid is walked in ascending q (equal q
    in grid order) and each q only merges the edges it admits beyond the
    previous q into that q's components. Rows at different q of one trial
    are correlated, and hold the same seeds.
    """
    grid = np.atleast_1d(np.asarray(q, dtype=np.float64))
    if grid.ndim != 1 or not grid.size:
        raise ValueError("q must hold at least one value")
    if not np.all((grid > 0.0) & (grid <= 1.0)):
        raise ValueError("q must lie in (0, 1]")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n, m = g.node_count, g.edge_count
    size = min(trials, max(1, _BLOCK_NODES // n))
    # two C-contiguous endpoint rows that are trial-major, so a shorter last
    # block reads a prefix of each; a lone world reads the graph's own rows
    union = g.edges.T
    if size > 1:
        union = (union[:, None, :] + np.arange(0, size * n, n)[:, None]).reshape(2, -1)
    walk = np.argsort(grid, kind="stable").tolist()
    rng = rng_from_seed(0)  # reset to each stream's state before each draw
    plan = trial_streams(rng_seed, trials, (0,) if s is None else (0, 1, 2), size)
    for start, trial_seeds, coin_states, *seeded in plan:
        k = len(trial_seeds)
        offsets = np.arange(0, k * n, n)
        edges = union[:, : k * m]
        seeds = release_states = None
        if s is not None:
            seed_states, release_states = seeded
            seeds = np.stack(
                [_draw_seeds(n, s, set_pcg64_state(rng, st)) for st in seed_states]
            )
        root = k * n  # the identity forest, which the first q merges into
        # popped, so that each part is freed once merged and none outlives
        # its block into the next block's coins
        parts = _admitted(edges, coin_states, grid[walk], rng)[::-1]
        for qi in walk:
            root = _hook_and_jump(root, parts.pop())
            giant, giant_size, second_size = _top_two(root, k)
            giant_root = giant + offsets
            cascade = {}
            if seeds is not None:
                activated, counts, giant_active = _cascade(
                    root, seeds + offsets[:, None], giant_root
                )
                cascade = dict(
                    seeds=seeds,
                    activated=activated,
                    counts=counts,
                    giant_active=giant_active,
                    release_states=release_states,
                )
            yield WorldBlock(
                start,
                qi,
                trial_seeds,
                root.reshape(k, n),
                giant_root,
                giant_size,
                second_size,
                **cascade,
            )
            # leave the caller's block the only holder of this world's cascade
            cascade = activated = None


def record_worlds(
    g: Graph, q: float, s: int | None, trials: int, rng_seed: int
) -> WorldRecord:
    """Record every trial of `world_blocks(g, q, rng_seed, trials, s)` in one pass.

    Every single-q estimator reads this record: the component sizes and the
    membership from any record, and the splits of the activation count, by
    one node's bit or by giant activity, from one drawn with seeds. So a
    calibration over any number of nodes draws `trials` worlds in all.
    With `s=None` no seeds are drawn and the rows keep trial order. Memory
    is two sizes per trial and, with seeds, one bit per node and trial.
    `q` must be one number: its rows would mix the worlds of a grid.
    """
    if np.ndim(q):
        raise ValueError(f"q must be one number, not {q!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n = g.node_count
    giant_size = np.empty(trials, dtype=np.int64)
    second_size = np.empty(trials, dtype=np.int64)
    giant_hits = np.zeros(n, dtype=np.int64)
    counts = packed = giant_active = None
    if s is not None:
        counts = np.empty(trials, dtype=np.int64)
        packed = np.empty((trials, (n + 7) // 8), dtype=np.uint8)
        giant_active = np.empty(trials, dtype=bool)
    for block in world_blocks(g, q, rng_seed, trials, s):
        rows = block.rows
        giant_size[rows], second_size[rows] = block.giant_size, block.second_size
        # a block holds at most _BLOCK_NODES = 2^14 rows, so uint16 cannot
        # overflow; summing bytes so is faster than a bool sum into int64
        giant_hits += block.in_giant.view(np.uint8).sum(axis=0, dtype=np.uint16)
        if s is not None:
            counts[rows], giant_active[rows] = block.counts, block.giant_active
            packed[rows] = np.packbits(block.activated, axis=1)
        del block  # free it before the next block is labeled
    order = slice(None) if s is None else np.argsort(counts, kind="stable")
    fields = counts, packed, giant_active, giant_size, second_size
    return WorldRecord(*(None if x is None else x[order] for x in fields), giant_hits)
