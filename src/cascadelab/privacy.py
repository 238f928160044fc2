"""Release mechanisms for activation counts and the distances that size them.

The released statistic is the number of activated nodes. Mechanisms
perturb it (Laplace noise, randomized response over per-node bits, or
Laplace calibrated to an infinity-order Wasserstein distance between
conditional count distributions). A conditional count law is an ascending
integer sample of counts: W-infinity is read exactly from two samples, and
the audit's comparison TVD pushes Laplace noise through two samples' laws
by one FFT convolution of their signed histogram difference on the integers.
Only this module branches on a mechanism's kind; other modules ask
`MechanismSpec.is_laplace`.
"""

from __future__ import annotations

import logging
import math
import numbers
from typing import NamedTuple

import numpy as np

from .percolation import DegenerateConditioningError, WorldRecord

logger = logging.getLogger(__name__)

__all__ = [
    "MechanismSpec",
    "MechanismScaleReport",
    "sample_wasserstein_infinity",
    "release_from",
    "mechanism_error_quantile",
    "wasserstein_mechanism_scale",
    "comparison_tvd",
]

_KINDS = ("laplace", "randomized_response", "wasserstein")

# quantile level for the mechanism's high-probability error bound
_ERROR_QUANTILE_DELTA = 1e-3
# degenerate node ids named in the one warning or error line
_SHOWN_DEGENERATE = 5


# a NamedTuple may not define __new__ itself, so MechanismSpec validates in
# a subclass, whose __new__ also holds the defaults
class _MechanismFields(NamedTuple):
    kind: str
    scale: float | None
    epsilon: float | None
    flip_prob: float | None
    clamp: bool


class MechanismSpec(_MechanismFields):
    """Declarative description of a count-release mechanism.

    kind "laplace" adds Laplace(scale) noise; kind "wasserstein" is the
    same with scale already set to W / epsilon; kind "randomized_response"
    flips each per-node bit to a fair coin with probability flip_prob and
    debiases the total. `clamp` clips perturbed outputs into [0, n].
    Numbers must be finite reals and `clamp` a bool.
    """

    __slots__ = ()

    def __new__(cls, kind, scale=None, epsilon=None, flip_prob=None, clamp=False):
        self = super().__new__(cls, kind, scale, epsilon, flip_prob, clamp)
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
        return self

    @classmethod
    def _make(cls, iterable):
        # tuple's own _make, which _replace calls, would skip the checks
        return cls(*iterable)

    @property
    def is_laplace(self) -> bool:
        """True for the kinds that add Laplace(scale) noise to the count."""
        return self.kind != "randomized_response"


class MechanismScaleReport(NamedTuple):
    """Wasserstein-mechanism calibration over a set of protected nodes.

    `w_scale` is the largest infinity-order Wasserstein distance between the
    two count distributions conditioned on any protected node's activation
    bit; Laplace noise with scale w_scale / epsilon masks any one node's
    bit. Nodes whose conditioning degenerated are listed with the reason.
    """

    w_scale: float
    per_node: dict[int, float]
    degenerate: dict[int, str]


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


def release_from(spec: MechanismSpec, bits, rng: np.random.Generator) -> float:
    """Release the activation count of `bits` through the mechanism `spec`.

    The Laplace kinds add one Laplace(scale) draw from `rng` to the count.
    Randomized response reports each bit truly with probability
    1 - flip_prob and as a fair coin otherwise (one uniform per bit for the
    flip, then one for the coin), and releases the debiased total
    (reported - n * flip_prob / 2) / (1 - flip_prob). With spec.clamp the
    output is clipped to [0, n]. Deterministic for a fixed state of `rng`.
    """
    bits = np.asarray(bits, dtype=bool)
    n = bits.size
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


def comparison_tvd(
    x0: np.ndarray,
    x1: np.ndarray,
    spec: MechanismSpec,
    *,
    n: int | None = None,
) -> float:
    """TVD between two samples' laws each pushed through the mechanism `spec`.

    `x0` and `x1` are ascending integer samples. Each law's histogram on
    the samples' shared integer grid is count / sample size; their signed
    difference is convolved once, by one FFT, with the Laplace noise
    discretized on the integers and truncated at twelve scales
    (`_laplace_kernel`) and, with spec.clamp, folded into [0, n], so a
    clamping spec needs the node count `n`. The TVD is half its L1 norm,
    and the best test telling the two pushed laws apart errs with
    probability 1 - TVD. Randomized response is not a count convolution
    and is rejected.
    """
    if not spec.is_laplace:
        raise ValueError(
            f"push-through not supported for mechanism kind {spec.kind!r}"
        )
    if spec.clamp and n is None:
        raise ValueError("a clamping mechanism needs the node count n")
    origin = min(int(x0[0]), int(x1[0]))
    size = max(int(x0[-1]), int(x1[-1])) - origin + 1
    diff = np.bincount(x0 - origin, minlength=size) / x0.size
    diff -= np.bincount(x1 - origin, minlength=size) / x1.size
    acc = _convolve(diff, float(spec.scale))
    if spec.clamp:
        # the convolution starts one kernel half width below the grid
        acc = _fold(acc, origin - (acc.size - size) // 2, n)
    # round-off can push the half-L1 a hair past 1; keep it a probability
    return min(1.0, max(0.0, 0.5 * float(np.abs(acc).sum())))
