"""Release mechanisms for activation counts and the distances that size them.

The released statistic is the number of activated nodes. Mechanisms
perturb it (Laplace noise, randomized response over per-node bits, or
Laplace calibrated to an infinity-order Wasserstein distance between
conditional count distributions). A conditional count law is an ascending
integer sample of counts: W-infinity is read exactly from two samples, and
the audit's comparison TVD pushes Laplace noise, discretized on the
integers, through the signed difference of two samples' laws in closed
form, piece by piece between the atoms' breakpoints, at a cost linear in
the atoms and independent of the noise scale.
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


def _per_scale(k: int, scale: float) -> float:
    """k / scale for an int k >= 0, inf where the quotient passes the floats."""
    try:
        return k / scale
    except OverflowError:
        # k itself is past the floats, which takes a scale near the largest
        # float; the quotient of integers is rounded once, as k / scale is
        num, den = scale.as_integer_ratio()
        return k * den / num


def _segment_sums(
    p: float, q: float, length: int, scale: float, unit: float
) -> tuple[float, float]:
    """Signed and absolute sums of c (p r^t + q r^(length - 1 - t)), t < length.

    r = exp(-1 / scale) and c = unit (r - 1), the kernel's cell at |j| = 1.
    The terms change sign at most once, at the t* where the two exponentials
    balance; the absolute sum splits there into two geometric sums, each
    read through `expm1`. Rounding moves t* by at most a step, which the
    split index corrects by checking the terms beside it.
    """

    def decay(k):  # r^k
        return math.exp(-_per_scale(k, scale))

    def geometric(k):  # c (r^0 + ... + r^(k - 1)), with no subnormal c
        return math.expm1(-_per_scale(k, scale)) * unit

    signed = (p + q) * geometric(length)
    if not (p < 0.0 < q or q < 0.0 < p):
        return signed, abs(signed)
    t = 0.5 * scale * (
        _per_scale(length - 1, scale) + math.log(abs(p)) - math.log(abs(q))
    )
    k = 0 if not t >= 0.0 else length if t >= length - 1 else math.floor(t) + 1
    sign = 1.0 if p > 0.0 else -1.0
    for _ in range(2):
        if k < length and sign * (p * decay(k) + q * decay(length - 1 - k)) > 0.0:
            k += 1
        elif k > 0 and sign * (p * decay(k - 1) + q * decay(length - k)) < 0.0:
            k -= 1
    head = (p + q * decay(length - k)) * geometric(k)
    tail = (p * decay(k) + q) * geometric(length - k)
    return signed, abs(head) + abs(tail)


def _law(x: np.ndarray) -> dict:
    """An ascending sample's law, as {value: probability} over its atoms."""
    starts = np.flatnonzero(np.concatenate(([True], x[1:] != x[:-1])))
    probs = np.diff(starts, append=x.size) / x.size
    return dict(zip(x[starts].tolist(), probs.tolist()))


def comparison_tvd(
    x0: np.ndarray,
    x1: np.ndarray,
    spec: MechanismSpec,
    *,
    n: int | None = None,
) -> float:
    """TVD between two samples' laws each pushed through the mechanism `spec`.

    `x0` and `x1` are ascending integer samples, and the difference of their
    laws is a signed weight on each atom. The noise is Laplace(scale)
    discretized on the integers: the mass of the unit cells centred on -h..h,
    h = ceil(12 scale), normalised to sum 1, which is c r^|j| off the centre
    with r = exp(-1 / scale). With spec.clamp, pushed mass outside [0, n]
    folds onto 0 and n, so a clamping spec needs the node count `n`. The TVD
    is half the L1 norm of the pushed difference, and the best test telling
    the two pushed laws apart errs with probability 1 - TVD.

    Between consecutive breakpoints (a - h, a, a + 1 and a + h + 1 for each
    atom a, and 0, 1, n, n + 1 with clamp) the pushed difference is
    P r^t + Q r^(L - 1 - t), with P from one forward sweep and Q from one
    backward sweep; `_segment_sums` sums each segment in closed form. Cost
    and memory are linear in the atoms, at any scale and n. Randomized
    response is not a count convolution and is rejected.
    """
    if not spec.is_laplace:
        raise ValueError(
            f"push-through not supported for mechanism kind {spec.kind!r}"
        )
    if spec.clamp and n is None:
        raise ValueError("a clamping mechanism needs the node count n")
    diff = _law(x0)
    for a, prob in _law(x1).items():
        diff[a] = diff.get(a, 0.0) - prob
    atoms = [a for a, w in diff.items() if w]
    if not atoms:
        return 0.0
    scale = float(spec.scale)
    twelve = 12.0 * scale
    h = math.ceil(twelve) if twelve < math.inf else 12 * int(scale)
    # the kernel's sum before normalising: 1 - r^(h + 1/2)
    norm = -math.expm1(-0.5 * _per_scale(2 * h + 1, scale))
    centre = -math.expm1(-0.5 / scale) / norm
    # the cell at |j| = 1, exp(-1/2 scale) (1 - r) / 2 normalised, is
    # unit (r - 1); at a huge scale it is subnormal and unit is not
    unit = -0.5 * math.exp(-0.5 / scale) / norm
    side = unit * math.expm1(-1.0 / scale)
    reach = math.exp(-_per_scale(h, scale))  # r^h, an atom's last cell
    points = {0, 1, n, n + 1} if spec.clamp else set()
    for a in atoms:
        points.update((a - h, a, a + 1, a + h + 1))
    points = sorted(points)
    # P: the atoms left of each segment, as their weight at its first point;
    # atom a enters at a + 1 and leaves at a + h + 1
    ps, p, prev = [], 0.0, points[0]
    for b in points[:-1]:
        p *= math.exp(-_per_scale(b - prev, scale))
        p += diff.get(b - 1, 0.0) - reach * diff.get(b - h - 1, 0.0)
        ps.append(p)
        prev = b
    # Q: the atoms right of each segment, as their weight at its last point;
    # atom a enters at the segment ending at a and leaves at a - h
    total = below = above = first = last = q = 0.0
    nxt = points[-1]
    for i in range(len(points) - 2, -1, -1):
        b, end = points[i], points[i + 1]
        q *= math.exp(-_per_scale(nxt - end, scale))
        q += diff.get(end, 0.0) - reach * diff.get(end + h, 0.0)
        nxt = end
        if end - b == 1:
            signed = side * (ps[i] + q) + centre * diff.get(b, 0.0)
            mass = abs(signed)
        else:
            signed, mass = _segment_sums(ps[i], q, end - b, scale, unit)
        if not spec.clamp or 0 < b and end <= n:
            total += mass
        elif end <= 0:
            below += signed
        elif b > n:
            above += signed
        elif b == 0:
            first = signed
        else:
            last = signed
    if spec.clamp:
        # mass beyond an end folds onto it; at n = 0 both ends are one cell
        if n == 0:
            total += abs(below + first + above)
        else:
            total += abs(below + first) + abs(last + above)
    # round-off can push the half-L1 a hair past 1; keep it a probability
    return min(1.0, max(0.0, 0.5 * total))
