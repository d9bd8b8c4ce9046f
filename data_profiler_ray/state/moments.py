"""One-pass mergeable moment accumulator (count/mean/M2/M3/M4 + extrema).

Computes the numeric stat bundle of the reference profiler —
mean/std/var/kurtosis/skewness/sum/min/max
(``/root/reference/stelardataprofiler/tabular_timeseries/variables/utils.py:540-582``)
plus the describe extras n_zeros/n_negative/n_infinite
(``variables/numeric.py:13-79``) — but as an associative, order-independent
parallel accumulator using Chan's pairwise update formulas, so per-block
partials merge exactly in a Ray Data tree reduction.  The reference's own
multi-raster merge (``raster/profiler.py:347-396``) attempts the same pooled
merge but has a std-for-var slip at ``:390``; we use the exact M2 algebra.

Conventions match the reference output: std/var use ddof=1, skew is the
pandas (bias-corrected, N-1) skew, kurtosis is Fisher excess kurtosis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class MomentsState:
    """Mergeable central-moment state for one numeric column."""

    n: int = 0               # finite, non-null observations
    mean: float = 0.0
    m2: float = 0.0
    m3: float = 0.0
    m4: float = 0.0
    vmin: float = math.inf
    vmax: float = -math.inf
    vsum: float = 0.0
    n_zeros: int = 0
    n_negative: int = 0
    n_infinite: int = 0

    def update(self, values: np.ndarray) -> None:
        """Fold a vector of raw values (may contain NaN/inf) into the state."""
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            return
        finite_mask = np.isfinite(values)
        self.n_infinite += int(np.count_nonzero(np.isinf(values)))
        x = values[finite_mask]
        nb = x.size
        if nb == 0:
            return
        self.n_zeros += int(np.count_nonzero(x == 0.0))
        self.n_negative += int(np.count_nonzero(x < 0.0))
        self.vsum += float(x.sum())
        self.vmin = min(self.vmin, float(x.min()))
        self.vmax = max(self.vmax, float(x.max()))

        # batch central moments (vectorized), then Chan pairwise combine
        mb = float(x.mean())
        d = x - mb
        d2 = d * d
        b_m2 = float(d2.sum())
        b_m3 = float((d2 * d).sum())
        b_m4 = float((d2 * d2).sum())
        self._combine(nb, mb, b_m2, b_m3, b_m4)

    def update_weighted(self, values: np.ndarray, weights: np.ndarray) -> None:
        """Fold (value, integer-weight) pairs: exactly the moments of the
        expanded stream (``values[i]`` repeated ``weights[i]`` times), in one
        pass over #distinct items instead of #rows.

        The profile fold feeds this from the ``np.bincount`` histograms of
        small-integer stats (char lengths, word lengths, words per value),
        each value weighted by how often it occurs in the batch
        (``StringAccumulator._update_compact``): the ~14 O(#rows) array
        passes of :meth:`update` become O(#bins).
        """
        x = np.asarray(values, dtype=np.float64)
        w = np.asarray(weights, dtype=np.float64)
        if x.size == 0:
            return
        finite = np.isfinite(x)
        if not finite.all():
            self.n_infinite += int(w[np.isinf(x)].sum())
            x = x[finite]
            w = w[finite]
        if x.size == 0:
            return
        wsum = float(w.sum())
        if wsum <= 0:
            return
        self.n_zeros += int(w[x == 0.0].sum())
        self.n_negative += int(w[x < 0.0].sum())
        sx = float((w * x).sum())
        self.vsum += sx
        self.vmin = min(self.vmin, float(x.min()))
        self.vmax = max(self.vmax, float(x.max()))
        mb = sx / wsum
        d = x - mb
        d2 = d * d
        wd2 = w * d2
        b_m2 = float(wd2.sum())
        b_m3 = float((wd2 * d).sum())
        b_m4 = float((wd2 * d2).sum())
        self._combine(int(round(wsum)), mb, b_m2, b_m3, b_m4)

    def merge(self, other: "MomentsState") -> None:
        self.n_zeros += other.n_zeros
        self.n_negative += other.n_negative
        self.n_infinite += other.n_infinite
        self.vsum += other.vsum
        self.vmin = min(self.vmin, other.vmin)
        self.vmax = max(self.vmax, other.vmax)
        self._combine(other.n, other.mean, other.m2, other.m3, other.m4)

    def _combine(self, nb: int, mb: float, b_m2: float, b_m3: float, b_m4: float) -> None:
        na = self.n
        if nb == 0:
            return
        if na == 0:
            self.n, self.mean, self.m2, self.m3, self.m4 = nb, mb, b_m2, b_m3, b_m4
            return
        n = na + nb
        delta = mb - self.mean
        delta2 = delta * delta
        na_f, nb_f, n_f = float(na), float(nb), float(n)
        m4 = (
            self.m4 + b_m4
            + delta2 * delta2 * na_f * nb_f * (na_f * na_f - na_f * nb_f + nb_f * nb_f) / (n_f ** 3)
            + 6.0 * delta2 * (na_f * na_f * b_m2 + nb_f * nb_f * self.m2) / (n_f * n_f)
            + 4.0 * delta * (na_f * b_m3 - nb_f * self.m3) / n_f
        )
        m3 = (
            self.m3 + b_m3
            + delta ** 3 * na_f * nb_f * (na_f - nb_f) / (n_f * n_f)
            + 3.0 * delta * (na_f * b_m2 - nb_f * self.m2) / n_f
        )
        m2 = self.m2 + b_m2 + delta2 * na_f * nb_f / n_f
        self.mean = self.mean + delta * nb_f / n_f
        self.n, self.m2, self.m3, self.m4 = n, m2, m3, m4

    # ---- finalized statistics (reference-compatible formulas) ----

    @property
    def variance(self) -> float:
        """Sample variance, ddof=1 (reference: utils.py:563 ``std(ddof=1)``)."""
        if self.n < 2:
            return float("nan")
        return self.m2 / (self.n - 1)

    @property
    def std(self) -> float:
        v = self.variance
        return math.sqrt(v) if v == v else float("nan")

    @property
    def skewness(self) -> float:
        """pandas-style bias-corrected skew (reference utils.py:548)."""
        n = self.n
        if n < 3 or self.m2 == 0:
            return float("nan")
        g1 = (self.m3 / n) / (self.m2 / n) ** 1.5
        return g1 * math.sqrt(n * (n - 1)) / (n - 2)

    @property
    def kurtosis(self) -> float:
        """pandas-style bias-corrected Fisher excess kurtosis (utils.py:546)."""
        n = self.n
        if n < 4 or self.m2 == 0:
            return float("nan")
        g2 = n * self.m4 / (self.m2 * self.m2) - 3.0
        return ((n - 1) / ((n - 2) * (n - 3))) * ((n + 1) * g2 + 6.0)

    def result(self) -> dict:
        n = self.n
        empty = n == 0
        return {
            "count": n,
            "mean": None if empty else self.mean,
            "std": None if n < 2 else self.std,
            "variance": None if n < 2 else self.variance,
            "min": None if empty else self.vmin,
            "max": None if empty else self.vmax,
            "sum": None if empty else self.vsum,
            "range": None if empty else self.vmax - self.vmin,
            "kurtosis": None if n < 4 else self.kurtosis,
            "skewness": None if n < 3 else self.skewness,
            "n_zeros": self.n_zeros,
            "n_negative": self.n_negative,
            "n_infinite": self.n_infinite,
        }
