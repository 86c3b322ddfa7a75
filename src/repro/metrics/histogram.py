"""Exact-quantile sample sets.

Figure 2 reports the *median* of 30 trials, so quantiles must be exact:
:class:`SampleSet` retains samples and computes any quantile by linear
interpolation (numpy's default convention).
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

__all__ = ["SampleSet"]


class SampleSet:
    """Retained samples with exact quantiles and summary statistics."""

    def __init__(self, values: Iterable[float] = ()) -> None:
        self._values: list[float] = []
        self.extend(values)

    def add(self, value: float) -> None:
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"samples must be finite, got {value!r}")
        self._values.append(value)

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.add(value)

    def extend_array(self, values: np.ndarray) -> None:
        """Bulk-append a numpy array of samples (one finite check).

        The vectorized simulator folds whole outcome cohorts into the
        collector at once; looping :meth:`add` over a million floats
        would dominate its runtime.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            return
        if not np.isfinite(values).all():
            raise ValueError("samples must be finite")
        self._values.extend(values.tolist())

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self):
        return iter(self._values)

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(self._values)

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (linear interpolation); requires samples."""
        if not self._values:
            raise ValueError("quantile of an empty sample set")
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        return float(np.quantile(self._values, q))

    def median(self) -> float:
        """Exact median — the statistic Figure 2 reports."""
        return self.quantile(0.5)

    def mean(self) -> float:
        if not self._values:
            raise ValueError("mean of an empty sample set")
        return float(np.mean(self._values))

    def stdev(self) -> float:
        if len(self._values) < 2:
            return 0.0
        return float(np.std(self._values, ddof=1))

    def min(self) -> float:
        if not self._values:
            raise ValueError("min of an empty sample set")
        return min(self._values)

    def max(self) -> float:
        if not self._values:
            raise ValueError("max of an empty sample set")
        return max(self._values)
