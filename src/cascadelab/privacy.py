"""Release mechanisms for activation counts and the distances that size them.

The released statistic is the number of activated nodes. Mechanisms
perturb it (Laplace noise, randomized response over per-node bits, or
Laplace calibrated to an infinity-order Wasserstein distance between
conditional count distributions). Total variation operates on
`EmpiricalDistribution` atoms, W-infinity on sorted integer samples.
Laplace noise is pushed through a law by one FFT convolution on the
integers; the audit's comparison TVD convolves two laws' signed difference
once.
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
    "comparison_tvd",
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


def _laplace_kernel(scale: float) -> np.ndarray:
    """Laplace(scale) mass of the unit cells centred on -h..h, h = ceil(12 scale).

    Truncation leaves under 1e-5 of the mass outside; the kernel is then
    normalised to sum 1. An off-centre cell's mass is the gap between two
    tails, exp(-(|k| - 1/2) / scale) (1 - exp(-1 / scale)) / 2, so no entry
    is a difference of numbers near 1 and a cell past the underflow of exp
    holds exactly 0.
    """
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


def _convolve(hist: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """The full linear convolution of hist with kernel, by one real FFT."""
    size = hist.size + kernel.size - 1
    nfft = _fft_length(size)
    spectrum = np.fft.rfft(hist, nfft)
    spectrum *= np.fft.rfft(kernel, nfft)
    return np.fft.irfft(spectrum, nfft)[:size]


def _fold(acc: np.ndarray, start: int, n: int) -> tuple[int, np.ndarray]:
    """Masses on start, start+1, ... clipped into [0, n].

    Mass outside folds onto the nearest kept grid point. Returns the new
    first grid point and masses. Linear in `acc`, so it folds signed
    differences as well.
    """
    lo, hi = max(start, 0) - start, min(start + acc.size - 1, n) - start
    if lo > hi:
        raise ValueError("[0, n] excludes the entire output grid")
    out = acc[lo : hi + 1].copy()
    out[0] += acc[:lo].sum()
    out[-1] += acc[hi + 1 :].sum()
    return start + lo, out


def _histograms(spec: MechanismSpec, n: int | None, *dists) -> tuple:
    """Check a push-through and lay the laws' atoms on one integer grid.

    Atoms are rounded to integers. Returns the grid's first point and each
    law's histogram over the shared grid.
    """
    if not spec.is_laplace:
        raise ValueError(
            f"push-through not supported for mechanism kind {spec.kind!r}"
        )
    if spec.clamp and n is None:
        raise ValueError("a clamping mechanism needs the node count n")
    units = [np.rint(d.values).astype(np.int64) for d in dists]
    origin = min(int(u[0]) for u in units)
    size = max(int(u[-1]) for u in units) - origin + 1
    hists = [
        np.bincount(u - origin, weights=d.probs, minlength=size)
        for u, d in zip(units, dists)
    ]
    return origin, hists


def push_through_mechanism(
    dist: EmpiricalDistribution,
    spec: MechanismSpec,
    *,
    n: int | None = None,
) -> EmpiricalDistribution:
    """Distribution of the mechanism output for an input distribution.

    Supports the Laplace kinds: the input atoms are rounded to integers and
    their histogram is convolved, by one FFT, with the noise density
    discretized on the integers and truncated at twelve scales
    (`_laplace_kernel`). With spec.clamp, mass outside [0, n] folds onto
    its endpoints, so a clamping spec needs the node count `n`. Randomized
    response is not a count convolution and is rejected.

    The exact sum is positive only where a nonzero kernel cell reaches from
    an input atom; FFT round-off elsewhere is set to 0 before the fold. The
    atoms are the grid points left with positive mass, so round-off adds no
    atom, and no point whose computed mass is 0 or below becomes one.
    """
    origin, (hist,) = _histograms(spec, n, dist)
    kernel = _laplace_kernel(float(spec.scale))
    half = kernel.size // 2
    acc = _convolve(hist, kernel)
    reach = np.count_nonzero(kernel[half:]) - 1
    first = np.flatnonzero(hist) + half - reach
    covered = np.cumsum(
        np.bincount(first, minlength=acc.size + 1)
        - np.bincount(first + 2 * reach + 1, minlength=acc.size + 1)
    )
    acc[covered[:-1] == 0] = 0.0
    start = origin - half
    if spec.clamp:
        start, acc = _fold(acc, start, n)
    keep = acc > 0
    out = acc[keep]
    grid = (start + np.flatnonzero(keep)).astype(np.float64)
    return EmpiricalDistribution(grid, out / out.sum())


def comparison_tvd(
    inactive: EmpiricalDistribution,
    active: EmpiricalDistribution,
    spec: MechanismSpec,
    *,
    n: int | None = None,
) -> float:
    """TVD between two laws each pushed through the mechanism `spec`.

    Equals `tvd` of the two `push_through_mechanism` outputs up to round-off
    (about 1e-16 per grid point), without building either: the signed
    histogram inactive - active on the laws' shared integer grid is
    convolved once with the kernel and, with spec.clamp, folded into
    [0, n]; the TVD is half its L1 norm. The best test telling the two
    pushed laws apart errs with probability 1 - TVD.
    """
    origin, (h0, h1) = _histograms(spec, n, inactive, active)
    kernel = _laplace_kernel(float(spec.scale))
    acc = _convolve(h0 - h1, kernel)
    if spec.clamp:
        _, acc = _fold(acc, origin - kernel.size // 2, n)
    # round-off can push the half-L1 a hair past 1; keep it a probability
    return min(1.0, max(0.0, 0.5 * float(np.abs(acc).sum())))
