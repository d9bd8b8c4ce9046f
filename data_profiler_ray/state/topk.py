"""Mergeable value-frequency counter: exact while small, Misra-Gries beyond.

Serves the reference's value-counts family (SURVEY.md §2.5 A1/A7/A8/A10):
``series.value_counts(dropna=False)`` at
``/root/reference/stelardataprofiler/tabular_timeseries/variables/utils.py:115-154``,
top-K + "Other Values (n)" reduction at ``utils.py:497-504`` and
``variables/numeric.py:88-94``, and the uniqueness fields n_unique/p_unique
(count-of-count-1) at ``utils.py:179-186``.

Each read batch of a column folds its **exact** value counts
(``state.column._value_counts``) into this state; states merge
associatively. While total cardinality stays under
``cap`` the counter is exact (test-data parity, exact n_unique). Past the
cap it decays to Misra-Gries heavy-hitters (top-K still correct for any
value with frequency > n/cap; n_unique flagged approximate).

The state is two typed arrays: ``keys``, an Arrow array of unique values
in the column's own type (int64, float64, decimal128, epoch-µs int64 for
datetimes, string), and ``cnt``, their ``int64`` counts. A merge
concatenates both and group-sums: ``np.unique`` for numeric keys, Arrow
``dictionary_encode`` for the rest (about 3x faster than an Arrow
``group_by`` at a few thousand string keys, which pays for an Acero plan
per call), each followed by a ``bincount`` of the counts. Numeric keys
that are already strictly increasing skip the sort: a numeric batch's
counts come from one ``np.unique`` (sorted, each key once), so the first
batch of a counter, or one whose keys all follow the held ones, is
counted once, not twice. The Misra-Gries
shrink finds its decrement with ``np.partition``; no per-key Python object
is built. Pickled, the state is two raw buffers. Ties in ``top_k`` are broken by
key, so the top-k list does not depend on how the rows were split into
blocks or in which order the partials merged.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _numeric(t: pa.DataType) -> bool:
    return pa.types.is_integer(t) or pa.types.is_floating(t)


def _group_sum(keys: pa.Array, cnt: np.ndarray) -> tuple[pa.Array, np.ndarray]:
    """Unique keys and the summed count of each: ascending for numeric
    keys, unordered for the rest. Numeric keys already strictly
    increasing (a batch's ``column._value_counts``) pass as they are."""
    if _numeric(keys.type):
        k = keys.to_numpy(zero_copy_only=False)
        if pa.types.is_floating(keys.type):
            k = k + 0.0  # one key for -0.0 and 0.0, as a dict would have
            if np.all(k[1:] > k[:-1]):
                return pa.array(k, keys.type), cnt
        elif np.all(k[1:] > k[:-1]):
            # the array itself: a re-wrapped view of its buffer would
            # pickle with another mutability flag
            return keys, cnt
        uk, inv = np.unique(k, return_inverse=True)
        return (pa.array(uk, keys.type),
                np.bincount(inv, weights=cnt, minlength=uk.size)
                .astype(np.int64))
    enc = keys.dictionary_encode()
    return (enc.dictionary,
            np.bincount(enc.indices.to_numpy(), weights=cnt,
                        minlength=len(enc.dictionary)).astype(np.int64))


class TopKCounter:
    __slots__ = ("cap", "keys", "cnt", "overflowed", "total", "decremented")

    def __init__(self, cap: int = 262_144):
        self.cap = cap
        self.keys: pa.Array | None = None   # None until the first fold
        self.cnt = np.zeros(0, dtype=np.int64)
        self.overflowed = False
        self.total = 0          # total observations folded in (non-null)
        self.decremented = 0    # total weight removed by MG decrements

    def update_counts(self, values, counts, on_overflow=None) -> None:
        """Fold (values, counts) pairs in. ``values`` is an Arrow array
        (e.g. ``value_counts`` output) or anything ``pa.array`` takes;
        repeated values within one call are summed.

        ``on_overflow(keys)`` is called once, with every key held, just
        before the first Misra-Gries shrink drops any of them."""
        if not isinstance(values, pa.Array):
            values = pa.array(values)
        cnt = np.asarray(counts, dtype=np.int64)
        self.total += int(cnt.sum())
        self._add(values, cnt, on_overflow)

    def add_skipped(self, weight: int) -> None:
        """Account weight folded PAST the counter (post-overflow batch
        singletons): they join ``total`` and ``decremented`` so the
        ``freq_distribution`` Other bucket stays exact, without ever
        building their keys.

        Sound because a batch singleton cannot survive the post-overflow
        regime anyway: each wide batch brings >> cap-slack new keys, so the
        very next ``_shrink`` decrement (≥1) erases every count-1 entry.
        Skipping it up front is the same outcome minus the key build; the
        Misra-Gries invariant (stored ≤ true, true − stored ≤ total
        decrement) is preserved — survivors simply keep the decrement the
        skipped singletons would have cost them, i.e. tighter counts. Only
        a counter oscillating just above cap on a trickle of new keys would
        have (transiently) kept such singletons before; post-overflow
        count-1 state is approximate by contract either way."""
        self.total += int(weight)
        self.decremented += int(weight)

    def merge(self, other: "TopKCounter", on_overflow=None) -> None:
        self.total += other.total
        self.decremented += other.decremented
        self.overflowed |= other.overflowed
        if other.keys is not None:
            self._add(other.keys, other.cnt, on_overflow)

    def _add(self, keys: pa.Array, cnt: np.ndarray, on_overflow) -> None:
        if self.keys is not None and len(self.keys):
            if keys.type != self.keys.type:
                keys = keys.cast(self.keys.type)
            keys = pa.concat_arrays([self.keys, keys])
            cnt = np.concatenate([self.cnt, cnt])
        self.keys, self.cnt = _group_sum(keys, cnt)
        self._shrink(on_overflow)

    def _shrink(self, on_overflow=None) -> None:
        excess = self.cnt.size - self.cap
        if excess <= 0:
            return
        if not self.overflowed and on_overflow is not None:
            on_overflow(self.keys)
        self.overflowed = True
        # Misra-Gries: subtract the excess-th smallest count from everyone,
        # drop non-positive — keeps any value with true freq > decrement bound.
        dec = np.partition(self.cnt, excess - 1)[excess - 1]
        keep = self.cnt > dec
        n_keep = int(np.count_nonzero(keep))
        self.decremented += int(self.cnt[~keep].sum()) + int(dec) * n_keep
        self.keys = self.keys.filter(pa.array(keep))
        self.cnt = self.cnt[keep] - dec

    # ---- queries ----

    def n_distinct(self) -> int:
        return int(self.cnt.size)

    def n_unique(self) -> int:
        """Count of values appearing exactly once (exact only if not overflowed)."""
        return int(np.count_nonzero(self.cnt == 1))

    def top_k(self, k: int) -> list[tuple[object, int]]:
        """The ``k`` most frequent values, by count descending, then key
        ascending."""
        if self.keys is None or k <= 0 or not self.cnt.size:
            return []
        cand = np.arange(self.cnt.size)
        if self.cnt.size > k:
            # every value tied with the k-th count is a candidate
            kth = np.partition(self.cnt, self.cnt.size - k)[self.cnt.size - k]
            cand = np.flatnonzero(self.cnt >= kth)
        t = pa.table({"c": self.cnt[cand], "k": self.keys.take(pa.array(cand))})
        order = pc.sort_indices(t, sort_keys=[("c", "descending"),
                                              ("k", "ascending")])[:k]
        top = t.take(order)
        return list(zip(top.column("k").to_pylist(),
                        top.column("c").to_pylist()))

    def freq_distribution(self, k: int, n_distinct: int | None = None) -> dict:
        """Reference ``reduceCategoricalDict`` (utils.py:497-504): top-k plus
        an ``Other Values (n)`` bucket holding the remainder, from exact
        totals: its rows are every observation not in the shown top-k
        counts, and ``n`` is ``n_distinct`` (the counter's own by default;
        the caller's estimate once the counter has overflowed) minus the
        values shown. Below the cap both equal the sum and count of the
        keys not shown."""
        top = self.top_k(k)
        out = {str(v): int(c) for v, c in top}
        rest = (self.n_distinct() if n_distinct is None
                else n_distinct) - len(top)
        if rest > 0:
            out[f"Other Values ({rest})"] = self.total - sum(c for _, c in top)
        return out

    def extremes(self, n: int = 5) -> tuple[list, list]:
        """First/last n values by natural order (numeric.py:96-103)."""
        if self.keys is None or not self.cnt.size:
            return [], []
        order = pc.sort_indices(self.keys).to_numpy()
        pick = np.concatenate([order[:n], order[-n:]])
        vals = self.keys.take(pa.array(pick)).to_pylist()
        cnts = self.cnt[pick].tolist()
        m = min(n, order.size)
        pairs = list(zip(vals, cnts))
        return pairs[:m], pairs[-m:]

    def float_items(self) -> tuple[np.ndarray, np.ndarray]:
        """Keys and counts as float64 arrays, for histograms and weighted
        quantiles. The cast is unchecked: int64 keys past 2^53 (epoch-µs
        keys of dates before 1685 or after 2255) round instead of raising."""
        if self.keys is None:
            return np.zeros(0), np.zeros(0)
        return (self.keys.cast(pa.float64(), safe=False)
                .to_numpy(zero_copy_only=False), self.cnt.astype(np.float64))
