"""Substrate graphs for contagion experiments.

Three sources: Erdos-Renyi sampling, rank-weighted power-law sampling with
Chung-Lu expected degrees, and whitespace edge-list files as published by
public network repositories. All graphs are undirected and simple, with
dense node ids 0..n-1.
"""

from __future__ import annotations

import codecs
import io
import logging
import math
import os
import re
from functools import cached_property
from pathlib import Path
from typing import NamedTuple
from zipfile import BadZipFile

import numpy as np

from .seeding import rng_from_seed

logger = logging.getLogger(__name__)

__all__ = [
    "EdgeListFormatError",
    "EdgeListReport",
    "Graph",
    "NodeWeights",
    "generate_er",
    "chung_lu_weights",
    "generate_chung_lu",
    "load_edge_list",
    "dump_edge_list",
]

# str.split splits at these characters and str.splitlines breaks at the
# second group ("\r\n" reads as "\n"); the loader maps them to " " and "\n"
_WHITESPACE = str.maketrans(
    dict.fromkeys("\t\x1f\xa0\u1680\u202f\u205f\u3000", " ")
    | dict.fromkeys(map(chr, range(0x2000, 0x200B)), " ")
    | dict.fromkeys("\x0b\x0c\r\x1c\x1d\x1e\x85\u2028\u2029", "\n")
)
# the first line that is not blank, once whitespace is mapped
_HEADER_RE = re.compile(r"\s*# *nodes=(\d+) +edges=(\d+) *(?:\n|\Z)")
# a word holding a token's first w bytes keeps them by _LOW[w] and takes
# spaces from _SPACES in the rest
_LOW = np.array([(1 << 8 * w) - 1 for w in range(9)], dtype=np.uint64)
_SPACES = np.uint64(0x2020202020202020)
# digit words: every byte's high nibble is 3, and stays 3 after adding 6
# exactly when the byte is an ASCII digit
_ZEROS, _SIXES = np.uint64(0x3030303030303030), np.uint64(0x0606060606060606)
_NIBBLE = np.uint64(0xF0F0F0F0F0F0F0F0)
_DIGIT_STEPS = [
    (np.uint64(8), np.uint64(10), np.uint64(0x00FF00FF00FF00FF)),
    (np.uint64(16), np.uint64(100), np.uint64(0x0000FFFF0000FFFF)),
    (np.uint64(32), np.uint64(10000), np.uint64(0x00000000FFFFFFFF)),
]
# the largest n with n * (n - 1) <= 2**63, so every edge key lo * n + hi,
# at most n * n - n - 1, fits in an int64
_MAX_NODES = 3_037_000_500


class EdgeListFormatError(ValueError):
    """A line of an edge-list file could not be parsed."""


class EdgeListReport(NamedTuple):
    """Counts of records dropped while cleaning an edge-list file."""

    duplicates_dropped: int = 0
    self_loops_dropped: int = 0


class Graph:
    """Undirected simple graph on dense node ids 0..node_count-1.

    Edges are held as one C-contiguous, read-only (2, m) int64 array of
    endpoint rows, u < v in every column and columns in lexicographic order;
    `edges` is its column-major (m, 2) view, whose `.T` the trial engine
    reads in place. node_count is at most 3,037,000,500, so that an edge's
    sort key u * node_count + v fits in an int64. Every source, these pairs
    included, hands its edges over as ascending keys to one private
    constructor, `_from_keys`, which holds every check, so a generated graph
    or a cache entry is trusted no more than a caller's pairs. Instances are
    immutable; a pickled or copied one is rebuilt from its keys.
    """

    def __init__(
        self,
        node_count: int,
        edges,
        source_report: EdgeListReport | None = None,
    ):
        node_count = int(node_count)
        edges = np.asarray(edges)
        # an empty list reads as float64
        if edges.size and edges.dtype.kind not in "iu":
            raise ValueError(f"edge endpoints must be integers, not {edges.dtype}")
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if edges.size and (edges.min() < 0 or edges.max() >= node_count):
            raise ValueError("edge endpoint outside 0..node_count-1")
        lo, hi = np.minimum(*edges.T), np.maximum(*edges.T)
        if (lo == hi).any():
            raise ValueError("self-loops are not allowed")
        # _from_keys refuses a count outside 1.._MAX_NODES before any key
        keys = np.sort(lo * np.clip(node_count, 1, _MAX_NODES) + hi)
        vars(self).update(vars(Graph._from_keys(node_count, keys, source_report)))

    @classmethod
    def _from_keys(cls, node_count, keys, source_report=None) -> Graph:
        """The graph whose edges are the ascending keys u * node_count + v."""
        node_count = int(node_count)
        if not 1 <= node_count <= _MAX_NODES:
            raise ValueError(f"node_count must lie in 1..{_MAX_NODES}")
        if keys.ndim != 1 or keys.dtype != np.int64:
            raise ValueError(f"keys must be 1-D int64, not {keys.ndim}-D {keys.dtype}")
        if keys.size and keys[0] < 0:
            raise ValueError("edge endpoint outside 0..node_count-1")
        if (keys[1:] <= keys[:-1]).any():
            repeat = (keys[1:] == keys[:-1]).any()
            raise ValueError(
                "duplicate edges are not allowed" if repeat else "edge keys must ascend"
            )
        rows = np.empty((2, keys.size), dtype=np.int64)
        np.divmod(keys, node_count, out=(rows[0], rows[1]))
        if not (rows[0] < rows[1]).all():
            raise ValueError("edge keys must hold u < v")
        rows.flags.writeable = False
        g = cls.__new__(cls)
        g.node_count, g.edges, g.source_report = node_count, rows.T, source_report
        return g

    @property
    def edge_count(self) -> int:
        return int(self.edges.shape[0])

    @cached_property
    def degrees(self) -> np.ndarray:
        """Per-node degree; sums to 2 * edge_count."""
        return np.bincount(self.edges.ravel("K"), minlength=self.node_count)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.node_count == other.node_count and np.array_equal(
            self.edges, other.edges
        )

    __hash__ = None

    def __reduce__(self):
        u, v = self.edges.T
        keys = u * self.node_count + v
        return Graph._from_keys, (self.node_count, keys, self.source_report)

    def __repr__(self) -> str:
        return f"Graph(node_count={self.node_count}, edge_count={self.edge_count})"


class NodeWeights(NamedTuple):
    """Expected-degree sequence w_i = d * (n / i)**(1/b) for ranks i = 1..n.

    `weights` is non-increasing, `weights[-1] == min_degree` exactly, and
    `total` is the sum l_n used as the normalizer of pair probabilities.
    """

    weights: np.ndarray
    min_degree: float
    scale: float
    beta: float
    total: float

    @property
    def node_count(self) -> int:
        return int(self.weights.size)


def generate_er(n: int, p: float, rng_seed: int) -> Graph:
    """Sample an Erdos-Renyi graph G(n, p).

    Every unordered pair is an edge independently with probability p. This
    is the one-layer case of the block sampler behind `generate_chung_lu`:
    one block of n(n-1)/2 pairs with bound p. For p < 1/2 it draws a
    Binomial(n(n-1)/2, p) number of distinct uniform pairs and thins none;
    for larger p every pair is a candidate kept with probability p. For m
    edges the work is O(n + m log m).

    Args:
        n: number of nodes, in 1..3,037,000,500 as for `Graph`.
        p: edge probability in [0, 1].
        rng_seed: 64-bit seed; equal seeds give equal graphs.

    Returns:
        Graph with dense ids 0..n-1.
    """
    if not 1 <= n <= _MAX_NODES:
        raise ValueError(f"n must lie in 1..{_MAX_NODES}")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    keys = _sample_blocks(
        n, np.zeros(1, dtype=np.int64), np.full((1, 1), float(p)),
        lambda i, j: p, rng_from_seed(rng_seed),
    )
    return Graph._from_keys(n, keys)


def chung_lu_weights(n: int, d: float, b: float) -> NodeWeights:
    """Build the rank-based power-law weight sequence w_i = d * (n/i)**(1/b).

    Args:
        n: number of nodes, in 1..3,037,000,500 as for `Graph`.
        d: minimum expected degree, > 0 (the weight of the last rank).
        b: power-law shape, > 0; the implied degree exponent is 1 + b.

    Returns:
        NodeWeights with beta = 1/b and total = sum of weights.

    Raises:
        ValueError: an argument is out of range, or a weight or the sum of
            the weights is not a finite float.
    """
    if not 1 <= n <= _MAX_NODES:
        raise ValueError(f"n must lie in 1..{_MAX_NODES}")
    if d <= 0:
        raise ValueError("d must be > 0")
    if b <= 0:
        raise ValueError("b must be > 0")
    beta = 1.0 / b
    ranks = np.arange(1, n + 1, dtype=np.float64)
    with np.errstate(over="ignore"):
        weights = d * (n / ranks) ** beta
    try:
        total = math.fsum(weights)  # inf or nan if a weight is
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise ValueError(f"d={d} and b={b} give weights whose sum is not finite")
    return NodeWeights(
        weights=weights,
        min_degree=float(d),
        scale=float(b),
        beta=beta,
        total=total,
    )


def generate_chung_lu(weights: NodeWeights, rng_seed: int) -> Graph:
    """Sample a graph with the given expected-degree weights.

    Pair {i, j} is an edge independently with probability
    min(1, w_i * w_j / total). Node id i carries rank i + 1, so id 0 is the
    heaviest node. Ranks are cut into layers whose weights lie within a
    factor `_LAYER_RATIO` of the layer's heaviest node; the bound of a pair
    of layers is the probability of their two heaviest nodes, and
    `_sample_blocks` draws the edges. For m edges and L layers the work is
    O(n + m log m + L**2) and the memory O(n + m + L**2).

    Args:
        weights: weight sequence from `chung_lu_weights`.
        rng_seed: 64-bit seed; equal seeds give equal graphs.
    """
    w = weights.weights
    total = weights.total
    level = np.floor(np.log(w[0] / w) / -math.log(_LAYER_RATIO)).astype(np.int64)
    starts = np.flatnonzero(np.diff(level, prepend=level[0] - 1))
    top = np.maximum.reduceat(w, starts)
    # a product w_i * w_j that overflows exceeds the finite total, so its
    # probability is 1 whether read as min(1, inf) or exactly
    with np.errstate(over="ignore"):
        keys = _sample_blocks(
            weights.node_count, starts, np.minimum(1.0, np.outer(top, top) / total),
            lambda i, j: np.minimum(1.0, w[i] * w[j] / total), rng_from_seed(rng_seed),
        )
    return Graph._from_keys(weights.node_count, keys)


# least ratio of a Chung-Lu layer's weights to its heaviest one; a sparse
# block keeps at least the square of it (0.71) of its candidates
_LAYER_RATIO = 2.0 ** -0.25

# candidates mapped and thinned at a time
_CHUNK = 1 << 18


def _sample_blocks(n, starts, bounds, prob, rng) -> np.ndarray:
    """Edge keys i * n + j (i < j), ascending, of a graph whose pairs are independent.

    Nodes 0..n-1 are cut into layers beginning at `starts`, and every pair
    of layers x <= y is a block whose pair probabilities `prob(i, j)` are
    all at most `bounds[x, y]`. The pairs are never visited one by one. A
    block whose bound reaches 1/2 makes every pair a candidate; any other
    block draws a Binomial(pairs, bound) number of distinct candidate pairs
    uniformly. Each candidate is then kept with probability
    prob(i, j) / bound, so every pair is an edge independently with
    probability prob(i, j).
    """
    sizes = np.diff(starts, append=n)
    # block k joins layers a[k] <= b[k]; its pairs are numbered from offset[k]
    a, b = np.triu_indices(starts.size)
    pairs = np.where(a == b, sizes[a] * (sizes[a] - 1) // 2, sizes[a] * sizes[b])
    offset = np.cumsum(pairs) - pairs
    bound = bounds[a, b]
    dense = bound >= 0.5
    bound[dense] = 1.0
    counts = rng.binomial(pairs, bound)

    sparse = np.repeat(np.flatnonzero(~dense), counts[~dense])
    keys = offset[sparse] + rng.integers(pairs[sparse])
    keys = _distinct_keys(keys, offset, pairs, rng)
    # every pair number of the dense blocks, block after block
    size = pairs[dense]
    shift = np.repeat(offset[dense] - (np.cumsum(size) - size), size)
    keys = np.concatenate([shift + np.arange(shift.size), keys])

    # thin in chunks so the per-candidate temporaries stay bounded
    edges = [np.empty(0, dtype=np.int64)]
    for lo in range(0, keys.size, _CHUNK):
        part = keys[lo:lo + _CHUNK]
        blk = np.searchsorted(offset, part, side="right") - 1
        la, lb = a[blk], b[blk]
        i, j = _block_pair(
            part - offset[blk], starts[la], starts[lb], sizes[lb], la == lb
        )
        keep = rng.random(part.size) < prob(i, j) / bound[blk]
        edges.append(i[keep] * n + j[keep])
    edges = np.concatenate(edges)
    edges.sort()  # in place: a sorted copy would raise the generator's peak
    return edges


def _block_pair(pos, row0, col0, width, same):
    """Node ids (i, j), i < j, of pair number `pos` within its block.

    Across two layers the pairs run row by row, `width` to a row, from node
    (row0, col0). Within one layer (`same`), pair y * (y - 1) / 2 + x is
    (row0 + x, row0 + y) for x < y.
    """
    i = row0 + pos // width
    j = col0 + pos % width
    tri = np.flatnonzero(same)
    p = pos[tri]
    y = ((1.0 + np.sqrt(1.0 + 8.0 * p)) / 2.0).astype(np.int64)
    y -= y * (y - 1) // 2 > p
    y += (y + 1) * y // 2 <= p
    i[tri] = row0[tri] + p - y * (y - 1) // 2
    j[tri] = row0[tri] + y
    return i, j


def _distinct_keys(keys, offset, pairs, rng) -> np.ndarray:
    """Sort `keys`, redrawing repeats within their own block until none is left.

    Which copies are redrawn depends only on the multiset of keys, so each
    block's final set is a uniform subset of its size.
    """
    keys = np.sort(keys)
    while True:
        again = np.flatnonzero(keys[1:] == keys[:-1]) + 1
        if not again.size:
            return keys
        blk = np.searchsorted(offset, keys[again], side="right") - 1
        keys[again] = offset[blk] + rng.integers(pairs[blk])
        keys.sort(kind="stable")


def load_edge_list(path) -> Graph:
    """Parse a whitespace edge-list file into a Graph.

    Each non-comment line is `u v`. Lines starting with '#' are skipped.
    Self-loops and repeated edges (in either orientation) are dropped and
    counted in the returned graph's `source_report`, with one warning logged
    per file. Node ids may be arbitrary tokens: dense ids 0..n-1 number the
    file's distinct tokens in first-seen order, and no token's text is kept.

    A leading `# nodes=<n> edges=<m>` header (as written by
    `dump_edge_list`) switches to verbatim integer ids so canonical dumps
    round-trip exactly, including isolated nodes.

    The parsed graph is cached in `$XDG_CACHE_HOME/cascadelab` (by default,
    and when that variable holds a relative path, `~/.cache/cascadelab`),
    one entry per resolved path, under the SHA-256 of the file's bytes, the
    encoding they are decoded with, this module's source and numpy's
    version, so a hit returns exactly what the parse gave. An entry holds one
    int64 key per edge, half the size of the graph's edge array, and a hit
    passes the same checks as any other source, so an entry that cannot be
    read, written or trusted costs only the parse. Nothing evicts entries:
    each distinct file leaves one.

    Raises:
        EdgeListFormatError: a line does not hold exactly two tokens, ids
            under a canonical header are not integers in range, or the
            header declares more nodes than a `Graph` can hold.
        UnicodeDecodeError: the file is not text in the locale's encoding.
        OSError: the file cannot be read.
    """
    import hashlib

    path = Path(path)
    data = path.read_bytes()
    stream = io.TextIOWrapper(io.BytesIO(data))  # decodes as read_text does
    digest = hashlib.sha256(np.__version__.encode())
    digest.update(Path(__file__).read_bytes())
    # by codec, not spelling: UTF-8 mode says 'utf-8', a UTF-8 locale 'UTF-8'
    digest.update(codecs.lookup(stream.encoding).name.encode())
    digest.update(data)
    key = np.frombuffer(digest.digest(), dtype=np.uint8)
    entry = g = None
    try:
        name = hashlib.sha256(bytes(path.resolve())).hexdigest()
        entry = _cache_dir() / f"{name}.npz"
        g = _cached_graph(entry, key)
    except _CACHE_ERRORS:
        pass
    if g is None:
        del data  # closing the stream frees the bytes before tokenizing
        g = _parse_edge_list(path, stream)
        if entry is not None:
            try:
                _store_graph(entry, key, g)
            except _CACHE_ERRORS:
                pass
    if any(g.source_report):
        dropped = "%s: dropped %d duplicate edge(s) and %d self-loop(s)"
        logger.warning(dropped, path, *g.source_report)
    return g


# a cache entry that cannot be found, read or written is a miss
_CACHE_ERRORS = (OSError, RuntimeError, ValueError, KeyError, EOFError, BadZipFile)


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):  # relative values are ignored, as XDG says
        base = Path.home() / ".cache"
    return Path(base) / "cascadelab"


def _cached_graph(entry: Path, key) -> Graph | None:
    """The graph stored at `entry`, if it was stored under `key`."""
    with np.load(entry) as stored:
        if not np.array_equal(stored["key"], key):
            return None
        n, duplicates, self_loops = stored["counts"].tolist()
        report = EdgeListReport(duplicates, self_loops)
        return Graph._from_keys(n, stored["keys"], report)


def _store_graph(entry: Path, key, g: Graph) -> None:
    """Write `g` to `entry` under `key` in place of any older entry."""
    entry.parent.mkdir(parents=True, exist_ok=True)
    part = entry.with_name(f"{entry.name}.{os.getpid()}.part")
    _, (n, keys, report) = g.__reduce__()
    try:
        with open(part, "wb") as f:
            np.savez(f, key=key, counts=np.array([n, *report]), keys=keys)
        os.replace(part, entry)
    finally:
        part.unlink(missing_ok=True)


def _parse_edge_list(path: Path, stream) -> Graph:
    """The graph that the text `stream` holds; `path` names it in errors."""
    with stream:
        text = stream.read()
    text = text.translate(_WHITESPACE)
    header_n = int(m.group(1)) if (m := _HEADER_RE.match(text)) else None
    if header_n is not None and header_n > _MAX_NODES:
        lineno = text.count("\n", 0, m.start(1)) + 1
        raise EdgeListFormatError(
            f"{path}:{lineno}: header declares {header_n} nodes, "
            f"more than the {_MAX_NODES} a graph can hold"
        )
    # a space in front, so that every token starts where a run of separators
    # ends, and eight behind, so that every token reads as whole 8-byte words
    b = np.frombuffer(f" {text}{' ' * 8}".encode(), dtype=np.uint8)
    del text, m
    flips = b == ord("\n")
    breaks = np.flatnonzero(flips)
    sep = b == ord(" ")
    sep |= flips
    # tokens are the runs of bytes between separators: each begins and ends
    # (exclusive) where sep flips
    np.not_equal(sep[1:], sep[:-1], out=flips[1:])
    del sep
    bounds = np.flatnonzero(flips).reshape(-1, 2)
    del flips
    # per line that holds tokens: its first token, token count and comment flag
    head = np.zeros(len(bounds) + 1, dtype=bool)
    head[0] = True
    head[np.searchsorted(bounds.ravel(), breaks, side="right") // 2] = True
    head = np.flatnonzero(head[:-1])
    bounds[:, 1] -= bounds[:, 0]  # each token's (start, length)
    starts = bounds[:, 0]
    count = np.diff(head, append=len(bounds))
    comment = b[starts[head]] == ord("#")
    bad = np.flatnonzero(~comment & (count != 2))[:1]
    found = [f"expected two node ids, found {c} tokens" for c in count[bad]]
    problems = list(zip(starts[head[bad]], found))  # (byte offset, message)
    keep = np.repeat(~comment & (count == 2), count)
    del head, count, comment
    # files tend to put their comments first: then the records are a slice
    skip = keep.size - np.count_nonzero(keep)
    bounds = bounds[skip:] if keep[skip:].all() else np.compress(keep, bounds, axis=0)
    del keep
    starts, lengths = bounds[:, 0], bounds[:, 1]
    windows = np.ndarray((b.size - 7,), dtype="<u8", buffer=b, strides=(1,))
    if header_n is None:
        ids, first = _intern(windows, starts, lengths)
        n = first.size
    else:
        ids, bad_ids = _canonical_ids(b, windows, starts, lengths, header_n)
        problems += bad_ids
        n = header_n
    if problems:
        offset, message = min(problems)  # the first in the file
        lineno = np.searchsorted(breaks, offset) + 1
        raise EdgeListFormatError(f"{path}:{lineno}: {message}")
    del bounds, starts, lengths, windows, b

    lo, hi = np.minimum(ids[0::2], ids[1::2]), np.maximum(ids[0::2], ids[1::2])
    key = lo * n
    key += hi
    key = key[lo != hi]
    key.sort()
    edges = key[np.diff(key, prepend=-1) != 0]
    duplicates, self_loops = key.size - edges.size, lo.size - key.size
    del ids, lo, hi, key
    if n < 1:
        raise EdgeListFormatError(f"{path}: no nodes found")
    return Graph._from_keys(n, edges, EdgeListReport(duplicates, self_loops))


def _intern(windows, starts, lengths):
    """Dense ids of the byte tokens at `starts`, numbered as first seen.

    `windows[i]` holds the 8 bytes from byte i on. Each token is read as a
    key of whole little-endian 8-byte words padded with at least one space,
    which no token holds, so equal keys are equal tokens; keys of one width
    are sorted together, by `np.lexsort` over their word columns when they
    hold more than one word. Returns each token's id and, per id, the index
    of its first token.
    """
    if not lengths.size:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    classes = [1]
    if lengths.max() > 7:
        size = (lengths + 8) >> 3  # words per key
        classes = np.flatnonzero(np.bincount(size)).tolist()
    parts = []  # per width: the sort order and its runs of equal keys
    for k in classes:
        if len(classes) == 1:
            members, keys = None, _keys(windows, starts, lengths, k)
        else:
            members = np.flatnonzero(size == k)
            keys = _keys(windows, starts[members], lengths[members], k)
        order = np.argsort(keys[:, 0]) if k == 1 else np.lexsort(keys.T)
        keys = keys[order]
        runs = np.flatnonzero(np.r_[True, (keys[1:] != keys[:-1]).any(axis=1)])
        parts.append((order if members is None else members[order], runs))
        del members, keys
    # each run's first token, and the runs in first-seen order
    first = np.concatenate([np.minimum.reduceat(o, r) for o, r in parts])
    seen = np.argsort(first)
    rank = np.empty_like(seen)
    rank[seen] = np.arange(seen.size)
    ids = np.empty(starts.size, dtype=np.int64)
    done = 0
    for order, runs in parts:
        counts = np.diff(runs, append=order.size)
        ids[order] = np.repeat(rank[done:done + runs.size], counts)
        done += runs.size
    return ids, first[seen]


def _keys(windows, starts, lengths, k):
    """Keys of k words, one row per token, for tokens of 8k - 8 to 8k - 1
    bytes: the token's bytes, then spaces."""
    word = 8 * np.arange(k)
    keys = windows[starts[:, None] + word]
    # the bytes from the token's end on become spaces
    keys ^= _SPACES
    keys &= _LOW[np.clip(lengths[:, None] - word, 0, 8)]
    keys ^= _SPACES
    return keys


def _canonical_ids(b, windows, starts, lengths, nodes):
    """The integer ids that the tokens in `b` spell under a canonical header.

    Tokens of at most 18 ASCII digits are read by word arithmetic. Every
    other token is decoded once per distinct text and read by `int()`, in
    first-seen order, so that the first bad one is the first in the file.
    Returns the ids and the bad ones found, as (byte offset, message): at
    most the first of each kind.
    """
    # '0's in front fill each token out to whole 8-digit words
    pad = -lengths % 8
    words = windows[starts]
    words <<= pad.view(np.uint64) << np.uint64(3)
    words |= _LOW[pad] & _ZEROS
    ids, digits = _eight_digits(words)
    del words
    digits &= lengths <= 18
    for word in (1, 2):
        more = np.flatnonzero(digits & (lengths + pad > 8 * word))
        low, ok = _eight_digits(windows[starts[more] + 8 * word - pad[more]])
        ids[more] = ids[more] * 10**8 + low
        digits[more] &= ok
    ids = ids.view(np.int64)  # below 10**18
    over = np.flatnonzero(digits & (ids >= nodes))[:1]
    problems = [(starts[i], f"id {ids[i]} outside 0..{nodes - 1}") for i in over]

    rest = np.flatnonzero(~digits)
    if rest.size:
        rest_ids, first = _intern(windows, starts[rest], lengths[rest])
        values = np.empty(first.size, dtype=np.int64)
        for i, head in enumerate(rest[first]):  # distinct tokens, as first seen
            token = b[starts[head]:starts[head] + lengths[head]].tobytes().decode()
            try:
                value = int(token)
            except ValueError:
                found = f"non-integer id {token!r} under canonical header"
            else:
                if 0 <= value < nodes:
                    values[i] = value
                    continue
                found = f"id {value} outside 0..{nodes - 1}"
            problems.append((starts[head], found))
            break
        else:
            ids[rest] = values[rest_ids]
    return ids, problems


def _eight_digits(words):
    """The numbers that words of 8 ASCII digits spell, first digit in the
    low byte, and whether each word holds only digits."""
    digits = ((words & _NIBBLE) == _ZEROS) & (((words + _SIXES) & _NIBBLE) == _ZEROS)
    words -= _ZEROS
    low = np.empty_like(words)
    # pairs of digits, then of pairs, then of quads
    for shift, scale, mask in _DIGIT_STEPS:
        np.right_shift(words, shift, out=low)
        words *= scale
        words += low
        words &= mask
    return words, digits


def dump_edge_list(g: Graph, path) -> None:
    """Write the canonical text form: a header line then sorted `u v` rows.

    The output starts with `# nodes=<n> edges=<m>` and lists each edge once
    with u < v, sorted lexicographically. `load_edge_list` reproduces an
    identical Graph from this format.
    """
    body = ("%d %d\n" * g.edge_count) % tuple(g.edges.ravel().tolist())
    Path(path).write_text(f"# nodes={g.node_count} edges={g.edge_count}\n" + body)
