"""Independent reference implementations used only by the tests.

Everything here is deliberately naive: breadth-first search over adjacency
dictionaries, exhaustive subset enumeration, Hall-condition feasibility
checks, a float merge for W-infinity on atoms, a direct-sum push-through
of Laplace noise and an FFT convolution of the same discretized noise,
total variation over a dictionary of atoms, exact rational arithmetic, an
edge-list parse one line at a time. The package
holds a conditional count law as an ascending integer sample; the oracles
read finite laws as `Law` atoms, and `law_of` turns a sample into one.
The package code must agree with these slow oracles, not the other way
around. `adjacency`, `percolate`, `sample_seeds`, `release` and
`label_world` are test helpers kept here, out of the package: `percolate`
and `sample_seeds` draw one world's retained edges and seeds from the
streams a trial of `world_blocks` reads, by numpy's own calls; `release`
releases a count from a fresh generator of one seed; and `label_world`
labels one world with the package's own labeler and is checked against the
oracles like the package is.
"""

import itertools
import math
import re
from collections import deque
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import numpy as np

from cascadelab.graph import EdgeListFormatError, EdgeListReport, Graph, logger
from cascadelab.percolation import _hook_and_jump, _top_two
from cascadelab.privacy import release_from
from cascadelab.seeding import rng_from_seed


class World(NamedTuple):
    """One labeled world: lowest-member roots and its two largest sizes."""

    root: np.ndarray
    giant_root: int
    giant_size: int
    second_size: int


def percolate(g, q, rng_seed):
    """Retain each edge of g independently with probability q.

    One uniform coin per edge from `rng_from_seed(rng_seed)`, the edge kept
    when its coin lies below q; q must lie in (0, 1]. Returns the retained
    rows of `g.edges`: trial t of `world_blocks(g, q, r, ...)` retains
    exactly `percolate(g, q, child_seed(child_seed(r, t), 0))`.
    """
    if not 0.0 < q <= 1.0:
        raise ValueError("q must lie in (0, 1]")
    return g.edges.compress(rng_from_seed(rng_seed).random(g.edge_count) < q, axis=0)


def sample_seeds(n, s, rng_seed):
    """s distinct nodes of 0..n-1 drawn uniformly, sorted ascending.

    numpy's `choice` without replacement from `rng_from_seed(rng_seed)`:
    trial t of `world_blocks(g, q, r, trials, s)` seeds exactly
    `sample_seeds(n, s, child_seed(child_seed(r, t), 1))`.
    """
    return np.sort(rng_from_seed(rng_seed).choice(n, s, replace=False))


def release(spec, bits, rng_seed):
    """`privacy.release_from` with a fresh generator of `rng_seed`."""
    return release_from(spec, bits, rng_from_seed(rng_seed))


def label_world(n, retained_edges):
    """Label the n-node world on the (m, 2) rows `retained_edges` alone, as
    a block of one: its endpoint rows merged into the identity forest."""
    root = _hook_and_jump(n, retained_edges.T)
    giant, giant_size, second_size = _top_two(root, 1)
    return World(root, int(giant[0]), int(giant_size[0]), int(second_size[0]))


def bfs_activated(n, retained_edges, seeds):
    """Activated node set from breadth-first contagion over retained edges."""
    adj = {v: [] for v in range(n)}
    for u, v in retained_edges:
        adj[int(u)].append(int(v))
        adj[int(v)].append(int(u))
    seen = set(int(s) for s in seeds)
    frontier = deque(seen)
    while frontier:
        cur = frontier.popleft()
        for nxt in adj[cur]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def component_sets(n, retained_edges):
    """All connected components as frozensets, via repeated BFS."""
    remaining = set(range(n))
    comps = []
    while remaining:
        start = min(remaining)
        comp = bfs_activated(n, retained_edges, [start])
        comps.append(frozenset(comp))
        remaining -= comp
    return comps


def lowest_members(n, retained_edges):
    """Each node's lowest component member, from `component_sets`."""
    root = np.empty(n, dtype=np.int64)
    for comp in component_sets(n, retained_edges):
        root[list(comp)] = min(comp)
    return root


def giant_component(n, retained_edges):
    """Largest component; ties broken toward the lowest contained node id."""
    comps = component_sets(n, retained_edges)
    return max(comps, key=lambda c: (len(c), -min(c)))


class Law(NamedTuple):
    """A finite law: ascending distinct atoms `values`, masses `probs`."""

    values: np.ndarray
    probs: np.ndarray


def law_of(samples):
    """The empirical law of a sample: each distinct value, count / size."""
    values, counts = np.unique(np.asarray(samples), return_counts=True)
    return Law(values.astype(np.float64), counts / counts.sum())


def tvd(mu, nu):
    """Total variation distance: half the summed |mass gap| over all atoms."""
    gap = dict(zip(mu.values.tolist(), mu.probs.tolist()))
    for value, p in zip(nu.values.tolist(), nu.probs.tolist()):
        gap[value] = gap.get(value, 0.0) - p
    # masses that sum to 1 only up to rounding can push this a hair past 1
    return min(1.0, 0.5 * sum(abs(d) for d in gap.values()))


def _laplace_cdf(x, scale):
    tail = 0.5 * np.exp(-np.abs(x) / scale)
    return np.where(x < 0, tail, 1.0 - tail)


def push_through_direct(dist, spec, n=None):
    """Laplace(spec.scale) pushed through dist by a direct sum over atoms.

    The noise is discretized on the integers as differences of the Laplace
    CDF at half-integers, truncated at twelve scales and normalized; each
    input atom, rounded to an integer, adds its scaled copy of that window.
    With spec.clamp, mass outside [0, n] folds onto the nearest kept grid
    point. Atoms are the grid points whose sum is positive. Costs
    O(atoms * scale); `fft_tvd` convolves the same kernel by FFT, and the
    package sums it in closed form.
    """
    scale = float(spec.scale)
    half_width = int(np.ceil(12.0 * scale))
    offsets = np.arange(-half_width, half_width + 1, dtype=np.int64)
    noise = _laplace_cdf(offsets + 0.5, scale) - _laplace_cdf(offsets - 0.5, scale)
    noise /= noise.sum()

    units = np.rint(dist.values).astype(np.int64)
    base = int(units.min()) - half_width
    span = int(units.max()) + half_width - base + 1
    acc = np.zeros(span)
    for u, p in zip(units, dist.probs):
        start = int(u) - half_width - base
        acc[start : start + offsets.size] += float(p) * noise

    grid = (base + np.arange(span, dtype=np.int64)).astype(np.float64)
    if spec.clamp:
        inside = (grid >= 0.0) & (grid <= n)
        below, above = acc[grid < 0.0].sum(), acc[grid > n].sum()
        grid, acc = grid[inside], acc[inside]
        acc[0] += below
        acc[-1] += above
    keep = acc > 0
    out = acc[keep]
    return Law(grid[keep], out / out.sum())


def _laplace_kernel(scale: float) -> np.ndarray:
    """Laplace(scale) mass of the unit cells centred on -h..h, h = ceil(12 scale).

    Truncation leaves under 1e-5 of the mass outside; the kernel is then
    normalised to sum 1. An off-centre cell's mass is the gap between two
    tails, exp(-(|k| - 1/2) / scale) (1 - exp(-1 / scale)) / 2, so no entry
    is a difference of numbers near 1 and a cell past the underflow of exp
    holds exactly 0.
    """
    if 12.0 * scale >= 2.0**59:
        # numpy refuses 2^63 bytes with a ValueError, and ceil(inf) overflows
        raise MemoryError("a numpy array holds less than 2^63 bytes")
    h = int(math.ceil(12.0 * scale))
    kernel = np.abs(np.arange(-h, h + 1, dtype=np.float64))
    kernel[h] = 0.5  # overwritten below; keeps exp finite at any scale
    kernel -= 0.5
    kernel /= -scale
    np.exp(kernel, out=kernel)
    kernel *= -0.5 * math.expm1(-1.0 / scale)
    kernel[h] = -math.expm1(-0.5 / scale)
    kernel /= kernel.sum()
    return kernel


def _fft_length(size: int) -> int:
    """The smallest 2^a 3^b 5^c >= size, a length numpy's FFT is fast at."""
    best = 1 << (size - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << ((size - 1) // p35).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _convolve(hist: np.ndarray, scale: float) -> np.ndarray:
    """The full linear convolution of hist with `_laplace_kernel(scale)`.

    One real FFT; entry i of the result sits at hist index i - h, with
    h = ceil(12 scale) the kernel's half width. The kernel is dropped once
    transformed, so it is never alive beside both spectra.
    """
    kernel = _laplace_kernel(scale)
    size = hist.size + kernel.size - 1
    nfft = _fft_length(size)
    kernel_spectrum = np.fft.rfft(kernel, nfft)
    del kernel
    spectrum = np.fft.rfft(hist, nfft)
    spectrum *= kernel_spectrum
    del kernel_spectrum
    return np.fft.irfft(spectrum, nfft)[:size]


def _fold(acc: np.ndarray, start: int, n: int) -> np.ndarray:
    """Masses on start, start+1, ... clipped into [0, n].

    Mass outside folds onto the nearest kept grid point. Linear in `acc`,
    so it folds signed differences as well.
    """
    lo, hi = max(start, 0) - start, min(start + acc.size - 1, n) - start
    if lo > hi:
        raise ValueError("[0, n] excludes the entire output grid")
    out = acc[lo : hi + 1].copy()
    out[0] += acc[:lo].sum()
    out[-1] += acc[hi + 1 :].sum()
    return out


def fft_tvd(x0, x1, spec, n=None):
    """The TVD of two ascending integer samples' laws pushed through `spec`,
    by one FFT convolution of their signed histogram difference with
    `_laplace_kernel`, folded into [0, n] under clamp by `_fold`. Costs
    O((span + scale) log(span + scale)) time and memory, so it judges the
    package at scales the direct sum cannot reach."""
    origin = min(int(x0[0]), int(x1[0]))
    size = max(int(x0[-1]), int(x1[-1])) - origin + 1
    diff = np.bincount(x0 - origin, minlength=size) / x0.size
    diff -= np.bincount(x1 - origin, minlength=size) / x1.size
    acc = _convolve(diff, float(spec.scale))
    if spec.clamp:
        # the convolution starts one kernel half width below the grid
        acc = _fold(acc, origin - (acc.size - size) // 2, n)
    return min(1.0, max(0.0, 0.5 * float(np.abs(acc).sum())))


_MASS_TOL = 1e-12


def wasserstein_infinity(mu, nu):
    """Infinity-order Wasserstein distance between two atomic distributions.

    On the line the optimum coupling is comonotone, so the distance is the
    largest |x - y| over quantile-aligned atom pairs, found in one merge
    pass over the sorted atoms. The running masses are floats that count as
    level within `_MASS_TOL`, so at large support the merge can misalign
    and overshoot; the package computes W-infinity exactly from samples
    (`sample_wasserstein_infinity`), and this merge serves only as a
    reference for small atomic laws.
    """
    va, pa = mu.values, mu.probs
    vb, pb = nu.values, nu.probs
    i = j = 0
    cum_a = cum_b = 0.0
    best = 0.0
    while i < va.size and j < vb.size:
        gap = abs(float(va[i]) - float(vb[j]))
        if gap > best:
            best = gap
        next_a = cum_a + float(pa[i])
        next_b = cum_b + float(pb[j])
        if abs(next_a - next_b) <= _MASS_TOL:
            cum_a, cum_b = next_a, next_b
            i += 1
            j += 1
        elif next_a < next_b:
            cum_a = next_a
            i += 1
        else:
            cum_b = next_b
            j += 1
    return best


def winf_bruteforce(mu, nu, mass_tol=1e-12):
    """Smallest t admitting a coupling concentrated on |x - y| <= t.

    Feasibility of a threshold t is a bipartite transportation problem,
    decided by Hall's condition over every subset of mu's atoms. Intended
    for distributions with at most ~8 atoms.
    """
    xs, px = mu.values, mu.probs
    ys, py = nu.values, nu.probs
    cands = sorted({abs(float(x) - float(y)) for x in xs for y in ys})

    def feasible(t):
        for r in range(1, len(xs) + 1):
            for idx in itertools.combinations(range(len(xs)), r):
                need = px[list(idx)].sum()
                cover = 0.0
                for j, y in enumerate(ys):
                    if any(abs(float(xs[i]) - float(y)) <= t + 1e-15 for i in idx):
                        cover += py[j]
                if need > cover + mass_tol:
                    return False
        return True

    if feasible(cands[0]):
        return cands[0]
    lo, hi = 0, len(cands) - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if feasible(cands[mid]):
            hi = mid
        else:
            lo = mid
    return cands[hi]


def winf_exact(x0, x1):
    """W-infinity between two samples' empirical laws, in rational arithmetic.

    Each distinct value carries mass count / sample size as a Fraction. The
    walk advances through both atom lists in step with their exact
    cumulative masses, as the comonotone coupling does, and keeps the
    largest gap between atoms that share mass. No float is compared.
    """

    def atoms(x):
        values, counts = np.unique(np.asarray(x, dtype=np.int64), return_counts=True)
        return values.tolist(), [Fraction(int(c), len(x)) for c in counts]

    va, pa = atoms(x0)
    vb, pb = atoms(x1)
    i = j = 0
    cum_a = cum_b = Fraction(0)
    best = 0
    while i < len(va) and j < len(vb):
        best = max(best, abs(va[i] - vb[j]))
        next_a, next_b = cum_a + pa[i], cum_b + pb[j]
        if next_a <= next_b:
            cum_a, i = next_a, i + 1
        if next_b <= next_a:
            cum_b, j = next_b, j + 1
    return best


def all_edge_subsets(edges):
    """Every subset of an edge list, as (m, 2) int64 arrays."""
    edges = [tuple(e) for e in edges]
    for r in range(len(edges) + 1):
        for combo in itertools.combinations(edges, r):
            yield np.array(combo, dtype=np.int64).reshape(-1, 2)


def all_graph_edge_lists(n):
    """Edge lists of every labelled simple graph on n nodes."""
    pairs = list(itertools.combinations(range(n), 2))
    yield from all_edge_subsets(pairs)


def message_passing_membership(n, edges, q, tol=1e-12, max_sweeps=10_000):
    """Per-node giant-membership probability on a fixed graph at retention q.

    Message passing for bond percolation (Karrer, Newman & Zdeborova,
    PRL 113, 208702, 2014). u[j->i] is the chance that following edge i-j
    from i reaches the giant through j:

        u[j->i] = 1 - prod_{k in N(j) minus i} (1 - q * u[k->j]),

    iterated from u = 1 down to the largest fixed point. Node i is in the
    giant with probability x[i] = 1 - prod_{j in N(i)} (1 - q * u[j->i]).
    The recursion is exact on trees and the standard prediction on sparse
    graphs; it shares no code with the Monte Carlo estimator.

    q must lie in (0, 1) so every factor 1 - q * u is positive and the
    leave-one-out product can divide a factor back out.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    # directed edge e carries the message src[e] -> dst[e]
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    m = edges.shape[0]
    reverse = np.concatenate([np.arange(m, 2 * m), np.arange(m)])
    u = np.ones(2 * m)
    for _ in range(max_sweeps):
        log_factor = np.log1p(-q * u)
        into = np.bincount(dst, weights=log_factor, minlength=n)
        # product over N(src) of the messages into src, minus the one
        # that came back from dst along the reversed edge
        new = -np.expm1(into[src] - log_factor[reverse])
        step = np.max(np.abs(new - u), initial=0.0)
        u = new
        if step < tol:
            break
    else:
        raise RuntimeError("message passing did not converge")
    into = np.bincount(dst, weights=np.log1p(-q * u), minlength=n)
    return -np.expm1(into)


def chung_lu_expected_edges(weights, total):
    """Mean and variance of the Chung-Lu edge count, in O(n log n).

    Pair {i, j} is an edge with probability min(1, w_i * w_j / total), and
    `weights` is non-increasing. Row i's clamped columns j > i therefore
    form a run that ends at the row's clamp cut, the first column with
    w_j < total / w_i, found by binary search. The columns past the cut add
    w_i * w_j / total each, summed from suffix sums of w and of w**2.
    """
    w = np.asarray(weights, dtype=np.float64)
    n = w.size
    rows = np.arange(n)
    tail1 = np.append(np.cumsum(w[::-1])[::-1], 0.0)
    tail2 = np.append(np.cumsum((w * w)[::-1])[::-1], 0.0)
    cut = np.maximum(rows + 1, np.searchsorted(-w, -total / w, side="right"))
    scaled = w / total
    mean = (cut - rows - 1).sum() + (scaled * tail1[cut]).sum()
    var = (scaled * tail1[cut] - scaled**2 * tail2[cut]).sum()
    return float(mean), float(var)


def adjacency(g):
    """Neighbor array per node of a Graph, each sorted ascending."""
    n = g.node_count
    if g.edge_count == 0:
        return [np.empty(0, dtype=np.int64) for _ in range(n)]
    src = np.concatenate([g.edges[:, 0], g.edges[:, 1]])
    dst = np.concatenate([g.edges[:, 1], g.edges[:, 0]])
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    bounds = np.searchsorted(src, np.arange(n + 1))
    return [dst[bounds[i]:bounds[i + 1]] for i in range(n)]


# the edge-list loader as one Python pass per line: `load_edge_list` must
# return an equal graph with the same ids and counts, or raise the same error
_HEADER_RE = re.compile(r"^#\s*nodes=(\d+)\s+edges=(\d+)\s*$")


def load_edge_list_per_line(path) -> Graph:
    """Parse a whitespace edge-list file into a Graph.

    Each non-comment line is `u v`. Lines starting with '#' are skipped.
    Self-loops and repeated edges (in either orientation) are dropped and
    counted in the returned graph's `source_report`, with one warning logged
    per file. Node ids may be arbitrary tokens: dense ids 0..n-1 number the
    file's distinct tokens in first-seen order.

    A leading `# nodes=<n> edges=<m>` header (as written by
    `dump_edge_list`) switches to verbatim integer ids so canonical dumps
    round-trip exactly, including isolated nodes.

    Raises:
        EdgeListFormatError: a line does not hold exactly two tokens, or ids
            under a canonical header are not integers in range.
        OSError: the file cannot be read.
    """
    path = Path(path)
    text = path.read_text()

    header_n: int | None = None
    lines = text.splitlines()
    for line in lines:
        stripped = line.strip()
        if not stripped:
            continue
        m = _HEADER_RE.match(stripped)
        if m is not None:
            header_n = int(m.group(1))
        break

    id_map: dict[str, int] = {}
    seen: set[tuple[int, int]] = set()
    pairs: list[tuple[int, int]] = []
    duplicates = 0
    self_loops = 0

    def intern(token: str, lineno: int) -> int:
        if header_n is not None:
            try:
                value = int(token)
            except ValueError:
                raise EdgeListFormatError(
                    f"{path}:{lineno}: non-integer id {token!r} under canonical header"
                ) from None
            if not 0 <= value < header_n:
                raise EdgeListFormatError(
                    f"{path}:{lineno}: id {value} outside 0..{header_n - 1}"
                )
            return value
        return id_map.setdefault(token, len(id_map))

    for lineno, line in enumerate(lines, 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise EdgeListFormatError(
                f"{path}:{lineno}: expected two node ids, found {len(parts)} tokens"
            )
        u = intern(parts[0], lineno)
        v = intern(parts[1], lineno)
        if u == v:
            self_loops += 1
            continue
        key = (u, v) if u < v else (v, u)
        if key in seen:
            duplicates += 1
            continue
        seen.add(key)
        pairs.append(key)

    if duplicates or self_loops:
        logger.warning(
            "%s: dropped %d duplicate edge(s) and %d self-loop(s)",
            path,
            duplicates,
            self_loops,
        )

    n = len(id_map) if header_n is None else header_n
    if n < 1:
        raise EdgeListFormatError(f"{path}: no nodes found")
    edges = (
        np.array(pairs, dtype=np.int64) if pairs else np.empty((0, 2), dtype=np.int64)
    )
    return Graph(n, edges, source_report=EdgeListReport(duplicates, self_loops))
