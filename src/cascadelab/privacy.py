"""Release mechanisms for activation counts and the distances that size them.

The released statistic is the number of activated nodes. Mechanisms
perturb it (Laplace noise, randomized response over per-node bits, or
Laplace calibrated to an infinity-order Wasserstein distance between
conditional count distributions). Total variation operates on
`EmpiricalDistribution` atoms, W-infinity on sorted integer samples.
Only this module branches on a mechanism's kind; other modules ask
`MechanismSpec.is_laplace`.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .distributions import EmpiricalDistribution, _sorted_distinct
from .percolation import DegenerateConditioningError, WorldRecord
from .seeding import rng_from_seed

logger = logging.getLogger(__name__)

__all__ = [
    "MechanismSpec",
    "MechanismScaleReport",
    "EmpiricalDistribution",
    "tvd",
    "sample_wasserstein_infinity",
    "release",
    "mechanism_error_quantile",
    "wasserstein_mechanism_scale",
    "push_through_mechanism",
]

_KINDS = ("laplace", "randomized_response", "wasserstein")

# quantile level for the mechanism's high-probability error bound
_ERROR_QUANTILE_DELTA = 1e-3
# degenerate node ids named in the one warning or error line
_SHOWN_DEGENERATE = 5


@dataclass(frozen=True)
class MechanismSpec:
    """Declarative description of a count-release mechanism.

    kind "laplace" adds Laplace(scale) noise; kind "wasserstein" is the
    same with scale already set to W / epsilon; kind "randomized_response"
    flips each per-node bit to a fair coin with probability flip_prob and
    debiases the total. `clamp` clips perturbed outputs into [0, n].
    Numbers must be finite reals and `clamp` a bool.
    """

    kind: str
    scale: float | None = None
    epsilon: float | None = None
    flip_prob: float | None = None
    clamp: bool = False

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown mechanism kind {self.kind!r}")
        for name in ("scale", "epsilon", "flip_prob"):
            value = getattr(self, name)
            if value is not None and (
                isinstance(value, bool)
                or not isinstance(value, numbers.Real)
                or not math.isfinite(value)
            ):
                raise ValueError(f"{name} must be a finite number, not {value!r}")
        if not isinstance(self.clamp, bool):
            raise ValueError(f"clamp must be true or false, not {self.clamp!r}")
        if self.is_laplace:
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

    @property
    def is_laplace(self) -> bool:
        """True for the kinds that add Laplace(scale) noise to the count."""
        return self.kind != "randomized_response"


@dataclass(frozen=True)
class MechanismScaleReport:
    """Wasserstein-mechanism calibration over a set of protected nodes.

    `w_scale` is the largest infinity-order Wasserstein distance between the
    two count distributions conditioned on any protected node's activation
    bit; Laplace noise with scale w_scale / epsilon masks any one node's
    bit. Nodes whose conditioning degenerated are listed with the reason.
    """

    w_scale: float
    per_node: dict[int, float]
    degenerate: dict[int, str]


def tvd(mu: EmpiricalDistribution, nu: EmpiricalDistribution) -> float:
    """Total variation distance: half the L1 gap over the union support."""
    union = _sorted_distinct(np.concatenate((mu.values, nu.values)))
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


def release(spec: MechanismSpec, bits, rng_seed: int) -> float:
    """Release the activation count of `bits` through the mechanism `spec`.

    The Laplace kinds add one Laplace(scale) draw to the count. Randomized
    response reports each bit truly with probability 1 - flip_prob and as
    a fair coin otherwise (one uniform per bit for the flip, then one for
    the coin), and releases the debiased total
    (reported - n * flip_prob / 2) / (1 - flip_prob). With spec.clamp the
    output is clipped to [0, n]. Deterministic for a fixed rng_seed.
    """
    bits = np.asarray(bits, dtype=bool)
    n = bits.size
    rng = rng_from_seed(rng_seed)
    if spec.is_laplace:
        out = float(bits.sum()) + float(rng.laplace(0.0, spec.scale))
    else:
        f = spec.flip_prob
        flip = rng.random(n) < f
        coin = rng.random(n) < 0.5
        reported = int(np.where(flip, coin, bits).sum())
        out = float((reported - n * f / 2.0) / (1.0 - f))
    return min(max(out, 0.0), float(n)) if spec.clamp else out


def mechanism_error_quantile(spec: MechanismSpec, n: int) -> float:
    """(1 - delta)-quantile of the mechanism's absolute count error on n nodes."""
    if spec.is_laplace:
        return float(spec.scale) * math.log(1.0 / _ERROR_QUANTILE_DELTA)
    # randomized response: normal-tail bound on the debiased count error
    f = float(spec.flip_prob)
    sd = math.sqrt(n * (f / 2.0) * (1.0 - f / 2.0)) / (1.0 - f)
    return 3.29 * sd


def wasserstein_mechanism_scale(
    record: WorldRecord, protected
) -> MechanismScaleReport:
    """Calibrate the Wasserstein mechanism over a set of protected nodes.

    `record` is one recorded pass of (percolation, seed) draws
    (`record_worlds`). Each protected node v splits its counts by x_v into
    the samples conditioned on x_v = 0 and x_v = 1, whose infinity-order
    Wasserstein distance is computed exactly from the sorted counts. The
    mechanism scale is the maximum over nodes. All nodes share the pass, so
    their estimates are correlated; empirical supports make each a lower
    bound on its population value. Nodes whose conditioning degenerates are
    skipped and reported, with one warning line for all of them; if every
    node degenerates the error is raised. A node id outside the graph
    raises ValueError.
    """
    nodes = sorted({int(v) for v in protected})
    if not nodes:
        raise ValueError("protected must name at least one node")
    per_node: dict[int, float] = {}
    degenerate: dict[int, str] = {}
    for v in nodes:
        try:
            x0, x1 = record.node_split(v)
        except DegenerateConditioningError as exc:
            degenerate[v] = str(exc)
            continue
        per_node[v] = float(sample_wasserstein_infinity(x0, x1))
    if degenerate:
        ids = list(degenerate)
        shown = ", ".join(map(str, ids[:_SHOWN_DEGENERATE]))
        if len(ids) > _SHOWN_DEGENERATE:
            shown += f" and {len(ids) - _SHOWN_DEGENERATE} more"
        summary = (
            f"node {shown} ({len(ids)} of {len(nodes)} protected nodes "
            f"degenerate); first: {degenerate[ids[0]]}"
        )
        if not per_node:
            raise DegenerateConditioningError(
                f"conditioning degenerated for every protected node: {summary}"
            )
        logger.warning("skipping %s", summary)
    return MechanismScaleReport(max(per_node.values()), per_node, degenerate)


def _laplace_cdf(x: np.ndarray, scale: float) -> np.ndarray:
    tail = 0.5 * np.exp(-np.abs(x) / scale)
    return np.where(x < 0, tail, 1.0 - tail)


def push_through_mechanism(
    dist: EmpiricalDistribution,
    spec: MechanismSpec,
    *,
    n: int | None = None,
) -> EmpiricalDistribution:
    """Exact distribution of the mechanism output for an input distribution.

    Supports the Laplace kinds: the noise density is discretized on the
    integers, truncated at twelve scales (leaving under 1e-5 mass outside),
    and convolved exactly with the input atoms, which are rounded to
    integers. With spec.clamp, mass outside [0, n] folds onto its
    endpoints, so a clamping spec needs the node count `n`. Randomized
    response is not a count convolution and is rejected.
    """
    if not spec.is_laplace:
        raise ValueError(
            f"push-through not supported for mechanism kind {spec.kind!r}"
        )
    if spec.clamp and n is None:
        raise ValueError("a clamping mechanism needs the node count n")
    scale = float(spec.scale)
    half_width = int(math.ceil(12.0 * scale))
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
        if not inside.any():
            raise ValueError("[0, n] excludes the entire output grid")
        # fold clipped mass onto the nearest kept grid point
        below, above = acc[grid < 0.0].sum(), acc[grid > n].sum()
        grid, acc = grid[inside], acc[inside]
        acc[0] += below
        acc[-1] += above
    keep = acc > 0
    out = acc[keep]
    return EmpiricalDistribution(grid[keep], out / out.sum())
