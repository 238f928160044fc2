"""Closed-form theory for giant components of percolated random graphs.

The paper's predictions that the tests judge the simulator against: the
giant fraction exp(-c*y) = 1 - y, the miss bounds by degree and by rank,
the giant-existence conditions, the percolation threshold, and the node
sets those bounds certify as vulnerable. No subcommand reports any of
them, so they are kept here, beside `oracles.py`, and out of the package.

All logarithms are natural. Probabilities returned by the bound functions
are clamped to [0, 1].
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from cascadelab.graph import Graph, NodeWeights

__all__ = [
    "GiantFractionSolution",
    "RankEnvelope",
    "solve_giant_fraction",
    "er_max_degree_estimate",
    "membership_miss_approx",
    "er_miss_bound",
    "chung_lu_miss_bound",
    "chung_lu_rank_envelope",
    "chung_lu_giant_condition",
    "percolation_threshold",
    "vulnerable_set_er",
    "vulnerable_set_cl",
]

_BISECT_WIDTH = 1e-13
_BISECT_MAX_ITER = 200


class GiantFractionSolution(NamedTuple):
    """Root y of exp(-c*y) = 1 - y for mean retained degree c."""

    c: float
    y: float


class RankEnvelope(NamedTuple):
    """Growth regime of the highest rank that still joins the giant."""

    tag: str
    envelope: Callable[[float], float]


def solve_giant_fraction(c: float) -> GiantFractionSolution:
    """Solve exp(-c*y) = 1 - y for the limiting giant-component fraction.

    c is the mean degree of the retained graph (n * p * q for a percolated
    Erdos-Renyi substrate). For c <= 1 the only root is y = 0; for c > 1
    the unique positive root is found by bisection to a residual below
    1e-10.
    """
    if c <= 0:
        raise ValueError("c must be > 0")
    if c <= 1.0:
        return GiantFractionSolution(c=float(c), y=0.0)

    def f(y: float) -> float:
        return math.exp(-c * y) - 1.0 + y

    lo, hi = 1e-15, 1.0
    # f(0) = 0 is the trivial root; f < 0 just above 0 and f(1) > 0.
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < _BISECT_WIDTH:
            break
    y = 0.5 * (lo + hi)
    return GiantFractionSolution(c=float(c), y=y)


def er_max_degree_estimate(n: int) -> float:
    """Asymptotic maximum degree log(n) / log(log(n)) of a sparse ER graph.

    Requires n >= 16 so the iterated logarithm is comfortably positive.
    """
    if n < 16:
        raise ValueError("n must be >= 16")
    return math.log(n) / math.log(math.log(n))


def membership_miss_approx(k: float, y: float) -> float:
    """Upper bound exp(-k*y) on the chance a k-degree node misses the giant.

    k is the node's degree in the retained graph and y the giant fraction.
    If each retained neighbour misses the giant independently with
    probability 1 - y, the exact value is (1 - y)**k; since
    1 - y <= exp(-y), this bound lies above it, more loosely for large y.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if not 0.0 <= y <= 1.0:
        raise ValueError("y must lie in [0, 1]")
    return math.exp(-k * y)


def _scalar_or_array(x: np.ndarray):
    return float(x) if x.ndim == 0 else x


def er_miss_bound(d, q: float, y: float):
    """Upper bound on the chance a degree-d substrate node misses the giant.

    Combines a Chernoff bound on the retained degree falling below d*q/2
    with the membership decay at that degree:
    min(1, exp(-d*q/8) + exp(-d*q*y/2)). `d` may be an array of degrees;
    a scalar `d` gives a float.
    """
    d = np.asarray(d, dtype=np.float64)
    if np.any(d < 0):
        raise ValueError("d must be >= 0")
    if not 0.0 < q <= 1.0:
        raise ValueError("q must lie in (0, 1]")
    if not 0.0 <= y <= 1.0:
        raise ValueError("y must lie in [0, 1]")
    return _scalar_or_array(
        np.minimum(1.0, np.exp(-d * q / 8.0) + np.exp(-d * q * y / 2.0))
    )


def _rank_weight_partial_sum(n: int, beta: float) -> float:
    """Exact partial sum of j**(-beta) for j = 1..n."""
    return float(np.sum(np.arange(1, n + 1, dtype=np.float64) ** (-beta)))


def chung_lu_miss_bound(i, n: int, d: float, q: float, b: float, alpha: float):
    """Upper bound on the chance rank-i misses the giant in a percolated
    power-law graph.

    With beta = 1/b and S = sum_{j=1..n} j**(-beta) computed exactly, the
    bound is min(1, exp(-d * q * alpha * n / (i**beta * S))), where alpha is
    the giant fraction of the retained graph (measured or assumed). `i` may
    be an array of ranks; a scalar `i` gives a float.
    """
    i = np.asarray(i, dtype=np.float64)
    if np.any((i < 1) | (i > n)):
        raise ValueError("rank i must lie in 1..n")
    if d <= 0:
        raise ValueError("d must be > 0")
    if not 0.0 < q <= 1.0:
        raise ValueError("q must lie in (0, 1]")
    if b <= 0:
        raise ValueError("b must be > 0")
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    beta = 1.0 / b
    s = _rank_weight_partial_sum(n, beta)
    return _scalar_or_array(
        np.minimum(1.0, np.exp(-d * q * alpha * n / (i**beta * s)))
    )


def chung_lu_rank_envelope(b: float) -> RankEnvelope:
    """Envelope for how many top ranks join the giant, by shape b.

    b < 1 gives n**b ranks, b = 1 gives n / log(n), and b > 1 gives order n.
    """
    if b <= 0:
        raise ValueError("b must be > 0")
    if b < 1.0:
        return RankEnvelope(
            tag="sub-polynomial ranks", envelope=lambda n, _b=b: float(n) ** _b
        )
    if b == 1.0:
        return RankEnvelope(
            tag="near-linear ranks", envelope=lambda n: n / math.log(n)
        )
    return RankEnvelope(tag="linear ranks", envelope=lambda n: float(n))


def chung_lu_giant_condition(b: float, d: float, q: float) -> bool:
    """Whether a percolated power-law graph keeps a giant component.

    True for every b in (0, 2]; for b > 2 the retained minimum expected
    degree d*q must exceed (b - 1) * (b - 2).
    """
    if b <= 0:
        raise ValueError("b must be > 0")
    if d <= 0:
        raise ValueError("d must be > 0")
    if not 0.0 < q <= 1.0:
        raise ValueError("q must lie in (0, 1]")
    if b <= 2.0:
        return True
    return d * q > (b - 1.0) * (b - 2.0)


def percolation_threshold(g: Graph) -> float:
    """Transmission probability below which no giant survives on graph g.

    Returns 1 / d_tilde with d_tilde = sum(deg**2) / sum(deg), the
    size-biased mean degree. Requires at least one edge.
    """
    if g.edge_count == 0:
        raise ValueError("graph has no edges; threshold undefined")
    deg = g.degrees.astype(np.float64)
    d_tilde = float((deg * deg).sum() / deg.sum())
    return 1.0 / d_tilde


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
