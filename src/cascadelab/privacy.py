"""Release mechanisms for activation counts and the distances that size them.

The released statistic is the number of activated nodes. Mechanisms
perturb it (Laplace noise, randomized response over per-node bits, or
Laplace calibrated to an infinity-order Wasserstein distance between
conditional count distributions). Total variation and test errors operate
on `EmpiricalDistribution` atoms, W-infinity on sorted integer samples.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import EmpiricalDistribution
from .graph import Graph
from .percolation import DegenerateConditioningError, WorldRecord, record_worlds
from .seeding import rng_from_seed

logger = logging.getLogger(__name__)

__all__ = [
    "MechanismSpec",
    "HypothesisTestReport",
    "MechanismScaleReport",
    "EmpiricalDistribution",
    "tvd",
    "sample_wasserstein_infinity",
    "laplace_perturb",
    "randomized_response_estimate",
    "release",
    "wasserstein_mechanism_scale",
    "hypothesis_test_error",
    "push_through_mechanism",
]

_KINDS = ("laplace", "randomized_response", "wasserstein")


@dataclass(frozen=True)
class MechanismSpec:
    """Declarative description of a count-release mechanism.

    kind "laplace" adds Laplace(scale) noise; kind "wasserstein" is the
    same with scale already set to W / epsilon; kind "randomized_response"
    flips each per-node bit to a fair coin with probability flip_prob and
    debiases the total. `clamp` clips perturbed outputs into [0, n].
    """

    kind: str
    scale: float | None = None
    epsilon: float | None = None
    flip_prob: float | None = None
    clamp: bool = False

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown mechanism kind {self.kind!r}")
        if self.kind in ("laplace", "wasserstein"):
            if self.scale is None or self.scale <= 0:
                raise ValueError(f"{self.kind} mechanism requires scale > 0")
            if self.flip_prob is not None:
                raise ValueError(f"{self.kind} mechanism does not take flip_prob")
            if self.kind == "wasserstein" and (
                self.epsilon is None or self.epsilon <= 0
            ):
                raise ValueError("wasserstein mechanism requires epsilon > 0")
            if self.kind == "laplace" and self.epsilon is not None:
                raise ValueError("laplace mechanism does not take epsilon")
        else:
            if self.flip_prob is None or not 0.0 <= self.flip_prob < 1.0:
                raise ValueError(
                    "randomized_response requires flip_prob in [0, 1)"
                )
            if self.scale is not None or self.epsilon is not None:
                raise ValueError("randomized_response takes only flip_prob")


@dataclass(frozen=True)
class HypothesisTestReport:
    """Error of the best distinguisher between two release distributions."""

    tvd: float
    test_error: float
    threshold: float | None = None


@dataclass(frozen=True)
class MechanismScaleReport:
    """Wasserstein-mechanism calibration over a set of protected nodes.

    `w_scale` is the largest infinity-order Wasserstein distance between the
    two count distributions conditioned on any protected node's activation
    bit; Laplace noise with scale w_scale / epsilon masks any one node's
    bit. Nodes whose conditioning degenerated are listed with the reason.
    `worlds` is the recorded pass every distance was read from.
    """

    w_scale: float
    per_node: dict[int, float]
    degenerate: dict[int, str]
    worlds: WorldRecord = field(repr=False, compare=False)


def tvd(mu: EmpiricalDistribution, nu: EmpiricalDistribution) -> float:
    """Total variation distance: half the L1 gap over the union support."""
    union = np.union1d(mu.values, nu.values)
    pa = np.zeros(union.size)
    pa[np.searchsorted(union, mu.values)] = mu.probs
    pb = np.zeros(union.size)
    pb[np.searchsorted(union, nu.values)] = nu.probs
    # rounding in probs that sum to 1 +- 1e-9 can push the half-L1 a hair
    # past 1; keep the result a probability
    return min(1.0, max(0.0, 0.5 * float(np.abs(pa - pb).sum())))


def sample_wasserstein_infinity(x0: np.ndarray, x1: np.ndarray) -> int:
    """Infinity-order Wasserstein distance between two samples' empirical laws.

    Both samples are ascending integer arrays. The quantile functions are
    steps that change only at k/N0 and l/N1, so the distance is the largest
    gap at those breakpoints. At k/N0 the other sample's quantile index is
    ceil(k*N1/N0) - 1, taken in integers, so the result is exact at any
    sample size.
    """
    n0, n1 = x0.size, x1.size
    k0, k1 = np.arange(1, n0 + 1), np.arange(1, n1 + 1)
    at_k0 = np.abs(x0 - x1[(k0 * n1 + n0 - 1) // n0 - 1]).max()
    at_k1 = np.abs(x1 - x0[(k1 * n0 + n1 - 1) // n1 - 1]).max()
    return int(max(at_k0, at_k1))


def laplace_perturb(
    x: float,
    scale: float,
    rng_seed: int,
    clamp: bool = False,
    value_max: float | None = None,
) -> float:
    """Release x + Laplace(scale) noise.

    With clamp=True the output is clipped to [0, value_max] (upper end only
    when value_max is given). Deterministic for a fixed rng_seed.
    """
    if scale <= 0:
        raise ValueError("scale must be > 0")
    rng = rng_from_seed(rng_seed)
    out = float(x) + float(rng.laplace(0.0, scale))
    if clamp:
        out = max(out, 0.0)
        if value_max is not None:
            out = min(out, float(value_max))
    return out


def randomized_response_estimate(
    true_bits, flip_prob: float, rng_seed: int
) -> tuple[int, float]:
    """Aggregate randomized response over per-node activation bits.

    Each node reports its true bit with probability 1 - flip_prob and a
    fair coin otherwise. Returns the raw reported count and the debiased
    estimate (count - n * flip_prob / 2) / (1 - flip_prob).
    """
    if not 0.0 <= flip_prob < 1.0:
        raise ValueError("flip_prob must lie in [0, 1)")
    bits = np.asarray(true_bits, dtype=bool)
    n = bits.size
    rng = rng_from_seed(rng_seed)
    flip = rng.random(n) < flip_prob
    coin = rng.random(n) < 0.5
    reported = np.where(flip, coin, bits)
    count = int(reported.sum())
    estimate = (count - n * flip_prob / 2.0) / (1.0 - flip_prob)
    return count, float(estimate)


def release(spec: MechanismSpec, bits, rng_seed: int) -> float:
    """Release the activation count of `bits` through the mechanism `spec`.

    The Laplace kinds perturb the count with `laplace_perturb`; randomized
    response reports the debiased `randomized_response_estimate`. With
    spec.clamp the output is clipped to [0, n]. Deterministic for a fixed
    rng_seed.
    """
    bits = np.asarray(bits, dtype=bool)
    n = bits.size
    if spec.kind == "randomized_response":
        out = randomized_response_estimate(bits, spec.flip_prob, rng_seed)[1]
        return min(max(out, 0.0), float(n)) if spec.clamp else out
    return laplace_perturb(
        int(bits.sum()), spec.scale, rng_seed, clamp=spec.clamp, value_max=n
    )


def wasserstein_mechanism_scale(
    g: Graph,
    q: float,
    s: int,
    protected,
    trials: int,
    rng_seed: int,
) -> MechanismScaleReport:
    """Calibrate the Wasserstein mechanism over a set of protected nodes.

    One pass of `trials` (percolation, seed) draws is recorded
    (`record_worlds`); each protected node v splits its counts by x_v into
    the samples conditioned on x_v = 0 and x_v = 1, whose infinity-order
    Wasserstein distance is computed exactly from the sorted counts. The
    mechanism scale is the maximum over nodes. All nodes share the pass, so
    their estimates are correlated; empirical supports make each a lower
    bound on its population value. Nodes whose conditioning degenerates are
    skipped with a warning and reported; if every node degenerates the
    error is raised.
    """
    nodes = sorted({int(v) for v in protected})
    if not nodes:
        raise ValueError("protected must name at least one node")
    if nodes[0] < 0 or nodes[-1] >= g.node_count:
        raise ValueError("protected node outside 0..node_count-1")
    record = record_worlds(g, q, s, trials, rng_seed)
    per_node: dict[int, float] = {}
    degenerate: dict[int, str] = {}
    for v in nodes:
        try:
            x0, x1 = record.node_split(v)
        except DegenerateConditioningError as exc:
            logger.warning("skipping node %d: %s", v, exc)
            degenerate[v] = str(exc)
            continue
        per_node[v] = float(sample_wasserstein_infinity(x0, x1))
    if not per_node:
        raise DegenerateConditioningError(
            "conditioning degenerated for every protected node: "
            + "; ".join(degenerate.values())
        )
    return MechanismScaleReport(max(per_node.values()), per_node, degenerate, record)


def hypothesis_test_error(
    z0: EmpiricalDistribution,
    z1: EmpiricalDistribution,
    threshold: float | None = None,
) -> HypothesisTestReport:
    """Error of the best test telling two release distributions apart.

    The optimal distinguisher errs with probability 1 - tvd(z0, z1); a
    `threshold` may be recorded for reports built around a cut rule.
    """
    distance = tvd(z0, z1)
    return HypothesisTestReport(
        tvd=distance, test_error=1.0 - distance, threshold=threshold
    )


def _laplace_cdf(x: np.ndarray, scale: float) -> np.ndarray:
    tail = 0.5 * np.exp(-np.abs(x) / scale)
    return np.where(x < 0, tail, 1.0 - tail)


def push_through_mechanism(
    dist: EmpiricalDistribution,
    spec: MechanismSpec,
    resolution: float = 1.0,
    clamp_range: tuple[float, float] | None = None,
) -> EmpiricalDistribution:
    """Exact distribution of the mechanism output for an input distribution.

    Supports the Laplace-noise kinds ("laplace" and "wasserstein"): the
    noise density is discretized on a grid of the given resolution,
    truncated at twelve scales (leaving under 1e-5 mass outside), and
    convolved exactly with the input atoms, which are snapped to the grid.
    With spec.clamp and a clamp_range, mass outside the range folds onto its
    endpoints. Randomized response is not a count convolution and is
    rejected.
    """
    if spec.kind not in ("laplace", "wasserstein"):
        raise ValueError(
            f"push-through not supported for mechanism kind {spec.kind!r}"
        )
    if resolution <= 0:
        raise ValueError("resolution must be > 0")
    r = float(resolution)
    scale = float(spec.scale)
    half_width = int(math.ceil(12.0 * scale / r))
    offsets = np.arange(-half_width, half_width + 1, dtype=np.int64)
    hi = (offsets + 0.5) * r
    lo = (offsets - 0.5) * r
    noise = _laplace_cdf(hi, scale) - _laplace_cdf(lo, scale)
    noise /= noise.sum()

    units = np.rint(dist.values / r).astype(np.int64)
    base = int(units.min()) - half_width
    span = int(units.max()) + half_width - base + 1
    acc = np.zeros(span)
    for u, p in zip(units, dist.probs):
        start = int(u) - half_width - base
        acc[start : start + offsets.size] += float(p) * noise

    grid = (base + np.arange(span, dtype=np.int64)) * r
    if spec.clamp and clamp_range is not None:
        lo_v, hi_v = float(clamp_range[0]), float(clamp_range[1])
        below = grid < lo_v
        above = grid > hi_v
        inside = ~(below | above)
        if not inside.any():
            raise ValueError("clamp_range excludes the entire output grid")
        values = grid[inside]
        probs = acc[inside]
        # fold clipped mass onto the nearest kept grid point
        if below.any():
            probs[0] += acc[below].sum()
        if above.any():
            probs[-1] += acc[above].sum()
        grid, acc = values, probs
    keep = acc > 0
    out = acc[keep]
    return EmpiricalDistribution(grid[keep], out / out.sum())
