"""Finite discrete distributions on the real line, stored as sorted atoms."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["EmpiricalDistribution"]


def _sorted_distinct(a) -> np.ndarray:
    """The distinct values of `a`, flattened and ascending, as `np.unique`.

    `np.unique` without counts (and so `np.union1d`) imports `numpy.ma`
    on its first call, about 12 ms per process.
    """
    a = np.sort(a, axis=None)
    keep = np.empty(a.size, dtype=bool)
    keep[:1] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a.compress(keep)


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Probability distribution with finitely many atoms.

    `values` is strictly increasing, `probs` is positive and sums to 1
    within 1e-9. `sample_count` records how many raw observations the
    distribution was built from, when it came from data.
    """

    values: np.ndarray
    probs: np.ndarray
    sample_count: int | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        probs = np.asarray(self.probs, dtype=np.float64)
        if values.ndim != 1 or probs.ndim != 1 or values.size != probs.size:
            raise ValueError("values and probs must be 1-d arrays of equal length")
        if values.size == 0:
            raise ValueError("a distribution needs at least one atom")
        if not np.all(np.diff(values) > 0):
            raise ValueError("values must be strictly increasing")
        if np.any(probs <= 0):
            raise ValueError("probs must be positive; drop zero-mass atoms")
        if abs(float(probs.sum()) - 1.0) > 1e-9:
            raise ValueError("probs must sum to 1 within 1e-9")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "probs", probs)

    @classmethod
    def from_samples(cls, samples) -> "EmpiricalDistribution":
        """Empirical distribution of a sample; probabilities are k/len."""
        arr = np.asarray(samples, dtype=np.float64)
        if arr.size == 0:
            raise ValueError("cannot build a distribution from zero samples")
        values, counts = np.unique(arr, return_counts=True)
        return cls(values, counts / arr.size, sample_count=int(arr.size))

    @classmethod
    def point_mass(cls, value: float) -> "EmpiricalDistribution":
        return cls(np.array([float(value)]), np.array([1.0]))

    @property
    def support_min(self) -> float:
        return float(self.values[0])

    @property
    def support_max(self) -> float:
        return float(self.values[-1])

    def mass_between(self, lo: float, hi: float) -> float:
        """Total probability of atoms with lo <= value <= hi."""
        keep = (self.values >= lo) & (self.values <= hi)
        return float(self.probs[keep].sum())

    def quantile(self, u: float) -> float:
        """Smallest value whose cumulative probability reaches u."""
        if not 0.0 <= u <= 1.0:
            raise ValueError("u must lie in [0, 1]")
        cum = np.cumsum(self.probs)
        idx = int(np.searchsorted(cum, u, side="left"))
        return float(self.values[min(idx, self.values.size - 1)])
