"""Per-column mergeable profile accumulators.

One accumulator instance per column per partial: ``stages.profile.fold``
builds them fresh (``make_accumulators``) and feeds them one fold unit's
read batches (``stages/plan.py``) or one Ray Data block, so a partial
depends on its own rows alone; instances merge associatively, so the
partials fold in any grouping. Together
they reproduce the reference profiler's per-variable stat families
(SURVEY.md §2.5):

- generic stats A1/A2 (``variables/utils.py:115-191``): counts, missing,
  distinct, unique, value frequencies;
- numeric moments + describe A4/A5 (``utils.py:540-582``, ``numeric.py:13-79``);
- histogram A6 (``utils.py:507-529``): exact reference semantics (numpy bin
  edges over distinct values weighted by counts) while cardinality is exact,
  sketch-backed equal-width bins at scale;
- top-K frequency A7/A8 (``utils.py:497-504``, ``numeric.py:88-103``);
- boolean A9 / categorical A10 (``variables/boolean.py``, ``categorical.py``);
- datetime A11 (``variables/datetime.py:5-39``);
- textual A12 (``variables/textual.py:15-150``): char/word length
  distributions and char-class ratios;
- logical type detection replicating ``find_types``
  (``variables/utils.py:288-430``) as mergeable all-batch probes instead of
  whole-column pandas scans.

Input is a ``pyarrow.Array``/``ChunkedArray`` column of a read batch; all
per-batch work is Arrow/numpy kernels. A string column's text stats are
computed once per distinct value of the batch (``_value_counts``).
"""

from __future__ import annotations

import math
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .hll import HLLSketch, hash64
from .kll import KLLSketch, weighted_quantile
from .moments import MomentsState
from .topk import TopKCounter, _numeric

# logical types, mirroring README.md:31-45 of the reference
UNSUPPORTED = "Unsupported"
DATETIME = "DateTime"
GEOMETRY = "Geometry"
CATEGORICAL = "Categorical"
TEXTUAL = "Textual"
NUMERIC = "Numeric"
BOOLEAN = "Boolean"
TIMESERIES = "TimeSeries"

BOOL_WORDS = {"t", "f", "yes", "no", "y", "n", "true", "false"}  # utils.py:232-250
_WKT_RE = re.compile(
    r"^\s*(POINT|LINESTRING|POLYGON|MULTIPOINT|MULTILINESTRING|MULTIPOLYGON|"
    r"GEOMETRYCOLLECTION)\s*\(", re.IGNORECASE)

NUM_CAT_MAX_UNIQUE = 5        # numeric -> categorical rule, utils.py:332-341
NUM_CAT_PERC_THRESHOLD = 0.5  # ProfileConfig.num_cat_perc_threshold default
MAX_FREQ_DISTR = 10           # ProfileConfig.max_freq_distr default


def _combine_chunks(arr) -> pa.Array:
    if isinstance(arr, pa.ChunkedArray):
        return arr.combine_chunks()
    return arr


class ColumnAccumulator:
    """Base: null/total bookkeeping shared by every column kind."""

    kind = "base"

    def __init__(self, name: str):
        self.name = name
        self.n = 0
        self.n_missing = 0
        self.memory_bytes = 0
        self.samples: list = []

    def _pre(self, arr: pa.Array) -> pa.Array:
        self.n += len(arr)
        self.n_missing += arr.null_count
        self.memory_bytes += arr.nbytes
        valid = arr.drop_null()
        if len(self.samples) < 5 and len(valid):
            need = 5 - len(self.samples)
            self.samples.extend(valid.slice(0, need).to_pylist())
        return valid

    def _merge_base(self, other: "ColumnAccumulator") -> None:
        self.n += other.n
        self.n_missing += other.n_missing
        self.memory_bytes += other.memory_bytes
        if len(self.samples) < 5:
            self.samples.extend(other.samples[: 5 - len(self.samples)])

    def _base_result(self) -> dict:
        n = self.n
        return {
            "name": self.name,
            "count": n - self.n_missing,
            "n": n,
            "num_missing": self.n_missing,
            "p_missing": (self.n_missing / n) if n else 0.0,
            "memory_size": self.memory_bytes,
            "samples": self.samples,
        }

    # fallback behavior for unsupported physical types: counts only
    def update(self, arr) -> None:
        self._pre(_combine_chunks(arr))

    def merge(self, other: "ColumnAccumulator") -> None:
        self._merge_base(other)

    def result(self, max_freq_distr: int = MAX_FREQ_DISTR,
               num_cat_perc_threshold: float = NUM_CAT_PERC_THRESHOLD
               ) -> dict:
        out = self._base_result()
        out["type"] = UNSUPPORTED
        return out


def _string_type(t: pa.DataType) -> bool:
    return pa.types.is_string(t) or pa.types.is_large_string(t)


def _long_keys(vals: pa.Array, n_chars: np.ndarray, key_cap: int
               ) -> pa.Array:
    """String values longer than ``key_cap`` chars (``n_chars``: each
    value's length in chars) keyed as their first ``key_cap - 16`` chars +
    the 16 hex digits of their 64-bit word hash: bounded state bytes,
    collision odds ~n²/2⁶⁵ per prefix bucket. The long values are read in
    place: the hash takes their rows, and the prefixes come from a
    zero-copy view of the data buffer whose even elements are the
    prefixes, cut ``key_cap - 16`` bytes in for an ASCII value (one byte
    per char) and where ``utf8_slice_codeunits`` cuts the others."""
    long_rows = np.flatnonzero(n_chars > key_cap)
    if not long_rows.size:
        return vals
    import binascii
    from ..functions.text import hash_string_array_words
    h = hash_string_array_words(vals, rows=long_rows)
    b = vals.cast(pa.large_string())
    offsets = np.frombuffer(b.buffers()[1], np.int64,
                            count=b.offset + len(b) + 1)[b.offset:]
    starts = offsets[long_rows]
    cut = np.full(long_rows.size, key_cap - 16, np.int64)
    wide = np.flatnonzero(offsets[long_rows + 1] - starts
                          != n_chars[long_rows])
    if wide.size:
        cut[wide] = pc.binary_length(pc.utf8_slice_codeunits(
            vals.take(pa.array(long_rows[wide])), 0, key_cap - 16)
        ).to_numpy(zero_copy_only=False)
    # element 2i: long value i's prefix; 2i + 1: the bytes up to value i + 1
    bounds = np.empty(2 * long_rows.size, np.int64)
    bounds[0::2], bounds[1::2] = starts, starts + cut
    view = pa.LargeStringArray.from_buffers(
        len(bounds) - 1, pa.py_buffer(bounds), b.buffers()[2])
    hexs = pa.FixedSizeBinaryArray.from_buffers(
        pa.binary(16), len(h),
        [None, pa.py_buffer(binascii.hexlify(h.astype(">u8").tobytes()))])
    keyed = pc.binary_join_element_wise(
        view.take(pa.array(np.arange(0, len(view), 2))).cast(pa.string()),
        hexs.cast(pa.string()), "")
    long_mask = np.zeros(len(vals), bool)
    long_mask[long_rows] = True
    return pc.replace_with_mask(vals, pa.array(long_mask),
                                keyed.cast(vals.type))


def _key_hashes(keys: pa.Array) -> np.ndarray:
    """64-bit hashes of counter keys for the HLL. Strings hash straight off
    the UTF-8 byte buffer (word-level variant: this hash only keys the HLL
    and the long-key compression); other types through their numpy dtype,
    with an object array as the last resort (decimals)."""
    if _string_type(keys.type):
        from ..functions.text import hash_string_array_words
        return hash_string_array_words(keys)
    try:
        return hash64(keys.to_numpy(zero_copy_only=False))
    except (TypeError, ValueError, pa.ArrowInvalid):
        return hash64(np.asarray(keys.to_pylist(), dtype=object))


def _value_counts(valid: pa.Array) -> tuple[pa.Array, np.ndarray]:
    """A batch's distinct values and their counts. Integer and float
    values (and the int64 epochs of dates and timestamps) come sorted from
    one ``np.unique``, with one key for -0.0 and 0.0, so the counter takes
    them without a second group-sum (``topk._group_sum``); decimals and
    strings come from Arrow's ``value_counts``, in first-seen order."""
    if _numeric(valid.type):
        v = valid.to_numpy(zero_copy_only=False)
        if pa.types.is_floating(valid.type):
            v = v + 0.0
        keys, counts = np.unique(v, return_counts=True)
        return pa.array(keys, valid.type), counts
    vc = valid.value_counts()
    return vc.field("values"), vc.field("counts").to_numpy(
        zero_copy_only=False)


class _DistinctMixin:
    """Exact-while-small counter + HLL, giving A2's distinct/unique fields.

    Only one exact structure is kept at a time: while the counter is exact
    its keys are the distinct set and the HLL stays empty. At the counter's
    first overflow (in an update or a merge) the HLL is seeded from the
    counter's keys before the shrink drops any, and from then on every
    block's distinct keys are fed to it. Numeric and datetime counters
    (caps 262,144 / 65,536) overflow past the HLL's exact threshold, so
    their HLL goes straight to registers; a string counter (cap 16,384)
    hands over to the HLL's exact hash set up to 65,536 distinct values.
    Long strings are counted and hashed in their prefix+hash key form
    (``_long_keys``, applied by ``StringAccumulator._count``)."""

    def _init_distinct(self, topk_cap: int = 262_144):
        self.counter = TopKCounter(cap=topk_cap)
        self.hll = HLLSketch()

    def _seed_hll(self, keys: pa.Array) -> None:
        self.hll.update_hashes(_key_hashes(keys))

    def _update_distinct(self, keys: pa.Array, counts: np.ndarray) -> None:
        """Fold one batch's distinct ``keys`` and their ``counts``
        (``_value_counts``)."""
        if len(keys) == 0:
            return
        if self.counter.overflowed:
            self._seed_hll(keys)
            # Post-overflow fast path: batch singletons are guaranteed
            # casualties of the next Misra-Gries shrink (see
            # TopKCounter.add_skipped) — account their weight and skip
            # their group-sum.
            heavy = counts >= 2
            n_heavy = int(np.count_nonzero(heavy))
            if n_heavy < len(counts):
                self.counter.add_skipped(int(counts[~heavy].sum()))
                if n_heavy == 0:
                    return
                # a filter, unlike a take, leaves no validity bitmap on
                # keys the counter may keep as they are
                keys = keys.filter(pa.array(heavy))
                counts = counts[heavy]
        self.counter.update_counts(keys, counts, on_overflow=self._seed_hll)

    def _merge_distinct(self, other) -> None:
        mine, theirs = self.counter, other.counter
        if theirs.overflowed:
            if not mine.overflowed and mine.keys is not None:
                self._seed_hll(mine.keys)
            self.hll.merge(other.hll)
        elif mine.overflowed and theirs.keys is not None:
            self._seed_hll(theirs.keys)
        # seeds the HLL itself if neither side had overflowed yet
        mine.merge(theirs, on_overflow=self._seed_hll)

    def exact_items(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The counter's (keys, counts) as floats while it is exact."""
        if self.counter.overflowed or not self.counter.n_distinct():
            return None
        return self.counter.float_items()

    def _n_distinct(self) -> int:
        """Distinct values: the counter's keys while it is exact, the HLL's
        estimate once it has overflowed."""
        return (self.hll.estimate() if self.counter.overflowed
                else self.counter.n_distinct())

    def _freq_value_counts(self, k: int) -> dict:
        """The top-``k`` values and an ``Other Values (n)`` bucket counted
        from the column's exact non-null total and ``_n_distinct``, so the
        bucket does not depend on how the rows were batched."""
        return self.counter.freq_distribution(k, self._n_distinct())

    def _distinct_result(self) -> dict:
        count = self.n - self.n_missing
        counter_exact = not self.counter.overflowed
        n_distinct = self._n_distinct()
        n_unique = self.counter.n_unique()
        return {
            "n_distinct": n_distinct,
            "p_distinct": (n_distinct / count) if count else 0.0,
            "n_unique": n_unique,
            "p_unique": (n_unique / count) if count else 0.0,
            "is_unique": n_unique == n_distinct and count > 0 and n_distinct == count,
            # n_distinct is exact if either structure is still in exact mode
            "distinct_is_exact": counter_exact or self.hll.is_exact,
        }


def _reference_histogram(items: tuple[np.ndarray, np.ndarray] | None,
                         moments: MomentsState, kll: KLLSketch,
                         bins_cap: int = 250) -> dict | None:
    """Histogram per utils.py:507-529: edges from np.histogram_bin_edges over
    the distinct values, counts weighted by frequency. Exact from the
    counter's ``items`` (keys, counts) while it is exact; otherwise
    equal-width bins from merged min/max with counts estimated from the
    KLL CDF."""
    if moments.n == 0:
        return None
    if items is not None:
        keys, wts = items
        n_bins = min(50, len(keys)) if len(keys) < 250 else bins_cap
        edges = np.histogram_bin_edges(keys, bins=n_bins)
        hist, _ = np.histogram(keys, bins=edges, weights=wts)
        return {"counts": hist.astype(int).tolist(), "bin_edges": edges.tolist()}
    # sketch path: 50 equal-width bins over [min, max], counts from KLL CDF
    lo, hi = moments.vmin, moments.vmax
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo == hi:
        return {"counts": [moments.n], "bin_edges": [lo, hi]}
    edges = np.linspace(lo, hi, 51)
    v, w = kll._weighted_items()
    if v.size == 0:
        return None
    idx = np.clip(np.searchsorted(edges, v, side="right") - 1, 0, 49)
    hist = np.bincount(idx, weights=w, minlength=50)
    scale = moments.n / max(w.sum(), 1.0)
    return {"counts": (hist * scale).round().astype(int).tolist(),
            "bin_edges": edges.tolist()}


class NumericAccumulator(ColumnAccumulator, _DistinctMixin):
    """Numeric columns: A4+A5+A6+A7+A8 bundles."""

    kind = "numeric"

    def __init__(self, name: str, ts_mode: bool = False):
        super().__init__(name)
        self._init_distinct()
        self.moments = MomentsState()
        self.kll = KLLSketch()
        self.ts_mode = ts_mode

    def update(self, arr) -> None:
        arr = _combine_chunks(arr)
        if pa.types.is_floating(arr.type):
            # NaN counts as missing, matching the reference's pandas dropna
            # semantics (variables/utils.py:157-191)
            arr = pc.if_else(pc.is_nan(arr), pa.scalar(None, arr.type), arr)
        valid = self._pre(arr)
        if len(valid) == 0:
            return
        # unchecked: int64 values past 2^53 round instead of raising
        x = valid.cast(pa.float64(), safe=False).to_numpy(
            zero_copy_only=False)
        self.moments.update(x)
        self.kll.update(x)
        self._update_distinct(*_value_counts(valid))

    def merge(self, other: "NumericAccumulator") -> None:
        self._merge_base(other)
        self._merge_distinct(other)
        self.moments.merge(other.moments)
        self.kll.merge(other.kll)

    def logical_type(self, num_cat_perc_threshold: float =
                     NUM_CAT_PERC_THRESHOLD) -> str:
        # numeric -> categorical rule (utils.py:332-341,372-387)
        d = self._distinct_result()
        count = self.n - self.n_missing
        if count == 0:
            return UNSUPPORTED
        if (not self.counter.overflowed
                and 1 <= d["n_distinct"] <= NUM_CAT_MAX_UNIQUE
                and d["p_unique"] < num_cat_perc_threshold):
            return CATEGORICAL
        return NUMERIC

    def _quantile_bundle(self, items) -> dict:
        """Percentile bundle A5: exact weighted quantiles from the value
        counter's ``items`` while cardinality is exact (parity with the
        reference's ``series.quantile``, numeric.py:46-51), KLL sketch
        beyond."""
        if items is not None:
            p = weighted_quantile(*items, [0.05, 0.10, 0.25, 0.5, 0.75, 0.90, 0.95])
            return {"5%": p[0], "10%": p[1], "25%": p[2], "50%": p[3],
                    "75%": p[4], "90%": p[5], "95%": p[6],
                    "median": p[3], "iqr": p[4] - p[2]}
        return self.kll.result()

    def _mad(self, items, med: float) -> float | None:
        """Median absolute deviation (utils.py:532-537) around ``med``:
        exact from the counter's ``items`` when possible, else estimated
        from KLL sketch contents."""
        if items is not None:
            keys, wts = items
            return float(weighted_quantile(np.abs(keys - med), wts, 0.5)[0])
        v, w = self.kll._weighted_items()
        if v.size == 0:
            return None
        return float(weighted_quantile(np.abs(v - med), w, 0.5)[0])

    def result(self, max_freq_distr: int = MAX_FREQ_DISTR,
               num_cat_perc_threshold: float = NUM_CAT_PERC_THRESHOLD
               ) -> dict:
        out = self._base_result()
        out.update(self._distinct_result())
        out.update(self.moments.result())
        count = self.n - self.n_missing
        if count:
            items = self.exact_items()
            out.update(self._quantile_bundle(items))
            out["mad"] = self._mad(items, float(out["median"]))
            out["cv"] = (self.moments.std / self.moments.mean
                         if self.moments.n >= 2 and self.moments.mean else None)
            out["p_zeros"] = self.moments.n_zeros / count
            out["p_negative"] = self.moments.n_negative / count
            out["p_infinite"] = self.moments.n_infinite / count
            out["histogram"] = _reference_histogram(items, self.moments, self.kll)
            first, last = self.counter.extremes(5)
            out["5_min_values"] = [{"value": v, "count": c} for v, c in first]
            out["5_max_values"] = [{"value": v, "count": c} for v, c in reversed(last)]
            out["freq_value_counts"] = self._freq_value_counts(max_freq_distr)
        out["type"] = self.logical_type(num_cat_perc_threshold)
        return out


class BooleanAccumulator(ColumnAccumulator):
    """Boolean columns: value counts without NaN (variables/boolean.py:4-11)."""

    kind = "boolean"

    def __init__(self, name: str):
        super().__init__(name)
        self.n_true = 0
        self.n_false = 0

    def update(self, arr) -> None:
        arr = _combine_chunks(arr)
        valid = self._pre(arr)
        if len(valid):
            t = int(pc.sum(valid.cast(pa.int64())).as_py() or 0)
            self.n_true += t
            self.n_false += len(valid) - t

    def merge(self, other: "BooleanAccumulator") -> None:
        self._merge_base(other)
        self.n_true += other.n_true
        self.n_false += other.n_false

    def result(self, max_freq_distr: int = MAX_FREQ_DISTR,
               num_cat_perc_threshold: float = NUM_CAT_PERC_THRESHOLD
               ) -> dict:
        out = self._base_result()
        out["type"] = BOOLEAN
        out["counts"] = [
            {"name": self.name, "value": True, "count": self.n_true},
            {"name": self.name, "value": False, "count": self.n_false},
        ]
        nd = (1 if self.n_true else 0) + (1 if self.n_false else 0)
        count = self.n - self.n_missing
        out["n_distinct"] = nd
        out["p_distinct"] = nd / count if count else 0.0
        return out


class DatetimeAccumulator(ColumnAccumulator, _DistinctMixin):
    """Datetime columns: start/end/range + epoch-second histogram
    (variables/datetime.py:5-39, epoch conversion at :32)."""

    kind = "datetime"

    def __init__(self, name: str):
        super().__init__(name)
        self._init_distinct(topk_cap=65_536)
        self.moments = MomentsState()   # over epoch seconds
        self.kll = KLLSketch()

    def update(self, arr) -> None:
        arr = _combine_chunks(arr)
        valid = self._pre(arr)
        if len(valid) == 0:
            return
        if pa.types.is_timestamp(valid.type) or pa.types.is_date(valid.type):
            epoch = valid.cast(pa.timestamp("us")).cast(pa.int64())
        else:
            epoch = valid.cast(pa.int64())
        x = epoch.to_numpy(zero_copy_only=False).astype(np.float64) / 1e6
        self.moments.update(x)
        self.kll.update(x)
        self._update_distinct(*_value_counts(epoch))

    def merge(self, other: "DatetimeAccumulator") -> None:
        self._merge_base(other)
        self._merge_distinct(other)
        self.moments.merge(other.moments)
        self.kll.merge(other.kll)

    def seconds_items(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The exact counter's (keys, counts) with keys rescaled from
        epoch-µs to epoch seconds, the unit of moments/KLL (reference epoch
        conversion, datetime.py:32) — keeps histogram edges and drift
        binning in one consistent unit. None once the counter overflowed."""
        items = self.exact_items()
        if items is None:
            return None
        return items[0] / 1e6, items[1]

    def result(self, max_freq_distr: int = MAX_FREQ_DISTR,
               num_cat_perc_threshold: float = NUM_CAT_PERC_THRESHOLD
               ) -> dict:
        import datetime as _dt
        out = self._base_result()
        out.update(self._distinct_result())
        out["type"] = DATETIME
        if self.moments.n:
            start = _dt.datetime.utcfromtimestamp(self.moments.vmin)
            end = _dt.datetime.utcfromtimestamp(self.moments.vmax)
            out["start"] = start.isoformat()
            out["end"] = end.isoformat()
            out["date_range"] = str(end - start)
            out["histogram"] = _reference_histogram(
                self.seconds_items(), self.moments, self.kll)
        return out


# a stat vector with a value at or above this folds row by row
# (``StringAccumulator._update_compact``); a value of this many bytes can
# reach it
_COMPACT_MAX = 1_048_576
# the reference's char classes over ASCII: ``\s`` is bytes 9-13 and 32;
# ``[^\w\s]`` is the printable bytes that are not alphanumeric, ``_`` or
# whitespace
_SPACE_BYTES = np.array([9, 10, 11, 12, 13, 32])
_PUNCT_BYTES = np.array([c for c in range(33, 127)
                         if not chr(c).isalnum() and c != 95])
_BOOL_WORD_SET = pa.array(sorted(BOOL_WORDS))
# pandas reads a string as a number only if it holds an ASCII digit or
# "inf" in any case: '١٢', 'True', '.' and '' all coerce to NaN
_NUMBER_HINT = r"[0-9]|(?i:inf)"


def _data_bytes(arr: pa.Array) -> np.ndarray:
    """The value bytes of a string or binary array, as a uint8 view."""
    bufs = arr.buffers()
    if not len(arr) or bufs[2] is None:
        return np.zeros(0, np.uint8)
    large = pa.types.is_large_string(arr.type) or pa.types.is_large_binary(
        arr.type)
    offs = np.frombuffer(bufs[1], dtype=np.int64 if large else np.int32,
                         count=arr.offset + len(arr) + 1)
    return np.frombuffer(bufs[2], dtype=np.uint8)[
        offs[arr.offset]:offs[arr.offset + len(arr)]]


def _byte_hist(raw: np.ndarray) -> np.ndarray:
    """``np.bincount(raw, minlength=256)`` of a uint8 array, counted as
    byte pairs: ``np.bincount`` widens its input to int64 first, and
    reading the bytes as uint16 pairs halves that. The pair histogram's
    row sums count the high bytes, its column sums the low bytes."""
    n = raw.size & ~1
    pairs = np.bincount(raw[:n].view(np.uint16), minlength=1 << 16)
    pairs = pairs.reshape(256, 256)
    hist = pairs.sum(axis=0) + pairs.sum(axis=1)
    if raw.size & 1:
        hist[raw[-1]] += 1
    return hist


def _bool_words(vals: pa.Array) -> bool:
    """Every value, trimmed and lowercased, is one of ``BOOL_WORDS``."""
    low = pc.utf8_lower(pc.utf8_trim_whitespace(vals))
    return bool(pc.all(pc.is_in(low, value_set=_BOOL_WORD_SET)).as_py())


class StringAccumulator(ColumnAccumulator, _DistinctMixin):
    """String columns: full find_types probe chain as mergeable flags
    (utils.py:205-271) + categorical/textual stats (A10/A12).

    Textual stats follow ``variables/textual.py:15-150``: ratio of
    uppercase/digit/punct/space chars over the corpus, and char-length /
    word-length distribution bundles.
    """

    kind = "string"

    # long values are stored in the counter as prefix+hash keys: counts stay
    # exact per full value while bounding partial-state bytes
    _LONG_KEY = 64

    def __init__(self, name: str, text_stats: bool = True):
        super().__init__(name)
        self._init_distinct(topk_cap=16_384)
        self.text_stats = text_stats
        # probe flags: AND-merged "every non-null value parses as X"
        self.all_datetime = True
        self.all_boolean = True
        self.all_numeric = True
        self.all_geometry = True
        self.probe_checked = False
        self.num_sub = MomentsState()    # numeric-coercible values routed here
        self.num_kll = KLLSketch()
        # textual char/word stats
        self.total_chars = 0
        self.n_digit = 0
        self.n_upper = 0
        self.n_space = 0
        self.n_punct = 0
        self.char_len = MomentsState()
        self.char_len_kll = KLLSketch()
        self.word_len = MomentsState()
        self.word_len_kll = KLLSketch()
        self.words_per_value = MomentsState()

    def update(self, arr) -> None:
        arr = _combine_chunks(arr)
        if pa.types.is_dictionary(arr.type):
            arr = arr.cast(pa.string())
        valid = self._pre(arr)
        if len(valid) == 0:
            return
        self.probe_checked = True
        keys, counts, n_chars = self._count(valid)
        self._probes(valid)
        if self.text_stats:
            if pc.max(pc.binary_length(keys)).as_py() >= _COMPACT_MAX:
                # such a value may give a stat that folds row by row, in
                # row order
                keys, counts = valid, np.ones(len(valid), np.int64)
                n_chars = pc.utf8_length(keys).to_numpy(zero_copy_only=False)
            self._text(keys, counts, n_chars)

    def _count(self, valid: pa.Array):
        """Fold a batch's non-null values into the counter, a long value as
        its prefix+hash key (``_long_keys``). Returns the batch's distinct
        values, their counts and their lengths in chars."""
        keys, counts = _value_counts(valid)
        n_chars = pc.utf8_length(keys).to_numpy(zero_copy_only=False)
        self._update_distinct(_long_keys(keys, n_chars, self._LONG_KEY),
                              counts)
        return keys, counts, n_chars

    def _probes(self, valid: pa.Array) -> None:
        # Each probe quick-rejects on a small head sample before paying for a
        # full-batch scan — text columns fail in the first few values, so the
        # expensive parses only run on columns that are plausibly that type.
        import pandas as pd
        head = valid.slice(0, 16)
        hv = head.to_pylist()
        # boolean-word probe (utils.py:232-250)
        if self.all_boolean:
            self.all_boolean = _bool_words(head) and _bool_words(valid)
        # numeric probe (utils.py:253-262) — every value float-coercible
        if self.all_numeric:
            if (not pc.all(pc.match_substring_regex(head,
                                                    _NUMBER_HINT)).as_py()
                    or pd.to_numeric(pd.Series(hv),
                                     errors="coerce").isna().any()):
                self.all_numeric = False
            else:
                s = pd.Series(valid.to_pandas())
                coerced = pd.to_numeric(s, errors="coerce")
                if coerced.isna().any():
                    self.all_numeric = False
                else:
                    x = coerced.to_numpy(dtype=np.float64)
                    self.num_sub.update(x)
                    self.num_kll.update(x)
        # datetime probe (utils.py:205-216) — skip pure numbers, as the
        # reference's to_datetime would also happily parse epoch ints
        if self.all_datetime:
            if self.all_numeric:
                self.all_datetime = False
            else:
                # format="mixed" parses each value on its own, so a text
                # column is rejected on its first value without parsing
                # the other fifteen
                head_s = pd.Series(hv)
                with np.errstate(all="ignore"):
                    head_parsed = pd.to_datetime(head_s[:1], errors="coerce",
                                                 format="mixed")
                    if not head_parsed.isna().any():
                        head_parsed = pd.to_datetime(head_s, errors="coerce",
                                                     format="mixed")
                if head_parsed.isna().any():
                    self.all_datetime = False
                else:
                    s = pd.Series(valid.to_pandas())
                    parsed = pd.to_datetime(s, errors="coerce", format="mixed")
                    self.all_datetime = not parsed.isna().any()
        if self.all_geometry:
            self.all_geometry = all(isinstance(v, str) and _WKT_RE.match(v)
                                    for v in hv)

    def _text(self, keys: pa.Array, counts: np.ndarray,
              n_chars: np.ndarray) -> None:
        """Char-class, char-length and word-length stats of a batch from
        its distinct ``keys``, their ``counts`` and their lengths in chars
        ``n_chars``: each stat is computed once per distinct value and
        weighted by its count, which folds the same histograms as a pass
        over every row.

        The reference ASCII-coerces text before scanning
        (``text/profiler.py:224-227``) and then counts char classes in a
        Python loop (``:259-280``). Here the classes are ASCII byte classes
        of a byte histogram (``_byte_hist``): multi-byte UTF-8 bytes are
        >= 0x80 and fall in none, matching the reference's ASCII coercion.
        The distinct values' bytes are counted once, and the values that
        repeat once more, weighted by their count - 1. Words are the
        non-empty runs between the whitespace bytes 9-13 and 32
        (``ascii_split_whitespace``).
        """
        self.total_chars += int(np.dot(n_chars.astype(np.int64), counts))
        self._update_compact(n_chars, counts, self.char_len,
                             self.char_len_kll)

        hist = _byte_hist(_data_bytes(keys))
        rep = np.flatnonzero(counts > 1)
        if rep.size:
            rkeys = keys.take(pa.array(rep))
            lens = pc.binary_length(rkeys).to_numpy(zero_copy_only=False)
            hist = hist + np.bincount(
                _data_bytes(rkeys), weights=np.repeat(counts[rep] - 1, lens),
                minlength=256).astype(np.int64)
        self.n_digit += int(hist[48:58].sum())
        self.n_upper += int(hist[65:91].sum())
        self.n_space += int(hist[_SPACE_BYTES].sum())
        self.n_punct += int(hist[_PUNCT_BYTES].sum())

        tokens = pc.ascii_split_whitespace(keys)
        wl = pc.binary_length(tokens.flatten()).to_numpy(zero_copy_only=False)
        parent = pc.list_parent_indices(tokens).to_numpy(
            zero_copy_only=False)
        word = wl > 0
        wl, parent = wl[word], parent[word]
        self._update_compact(wl, counts[parent], self.word_len,
                             self.word_len_kll)
        self._update_compact(np.bincount(parent, minlength=len(keys)),
                             counts, self.words_per_value, None)

    @staticmethod
    def _update_compact(ints: np.ndarray, weights: np.ndarray, moments,
                        kll) -> None:
        """Feed a non-negative small-integer stat (char or word lengths,
        words per value) whose value ``ints[i]`` occurs ``weights[i]`` times
        through its weighted ``np.bincount`` histogram: the moments and KLL
        weighted-update paths are exact for integer weights and cost
        O(#bins) instead of O(#rows). A stat reaching ``_COMPACT_MAX`` (a
        single multi-MB "word" would allocate that many bins) is expanded
        to one value per occurrence for the plain O(#rows) path."""
        if ints.size == 0:
            return
        if int(ints.max()) < _COMPACT_MAX:
            hist = np.bincount(ints, weights=weights)
            nz = np.flatnonzero(hist)
            wts = hist[nz].astype(np.int64)
            moments.update_weighted(nz, wts)
            if kll is not None:
                kll.update_weighted(nz, wts)
        else:
            f = np.repeat(ints, weights).astype(np.float64)
            moments.update(f)
            if kll is not None:
                kll.update(f)

    def merge(self, other: "StringAccumulator") -> None:
        self._merge_base(other)
        self._merge_distinct(other)
        if other.probe_checked:
            if not self.probe_checked:
                for f in ("all_datetime", "all_boolean", "all_numeric", "all_geometry"):
                    setattr(self, f, getattr(other, f))
                self.probe_checked = True
            else:
                self.all_datetime &= other.all_datetime
                self.all_boolean &= other.all_boolean
                self.all_numeric &= other.all_numeric
                self.all_geometry &= other.all_geometry
        self.num_sub.merge(other.num_sub)
        self.num_kll.merge(other.num_kll)
        self.total_chars += other.total_chars
        self.n_digit += other.n_digit
        self.n_upper += other.n_upper
        self.n_space += other.n_space
        self.n_punct += other.n_punct
        self.char_len.merge(other.char_len)
        self.char_len_kll.merge(other.char_len_kll)
        self.word_len.merge(other.word_len)
        self.word_len_kll.merge(other.word_len_kll)
        self.words_per_value.merge(other.words_per_value)

    def logical_type(self, num_cat_perc_threshold: float =
                     NUM_CAT_PERC_THRESHOLD) -> str:
        """Detection order per find_types object branch (utils.py:394-428)."""
        count = self.n - self.n_missing
        if count == 0 or not self.probe_checked:
            return UNSUPPORTED
        if self.all_datetime:
            return DATETIME
        if self.all_geometry:
            return GEOMETRY
        if self.all_boolean:
            return BOOLEAN
        if self.all_numeric:
            d = self._distinct_result()
            if (not self.counter.overflowed
                    and 1 <= d["n_distinct"] <= NUM_CAT_MAX_UNIQUE
                    and d["p_unique"] < num_cat_perc_threshold):
                return CATEGORICAL
            return NUMERIC
        # string split: low uniqueness -> Categorical else Textual (utils.py:420-425)
        d = self._distinct_result()
        if d["p_distinct"] < num_cat_perc_threshold:
            return CATEGORICAL
        return TEXTUAL

    def _dist_block(self, mom: MomentsState, kll: KLLSketch) -> dict:
        """The shared 13-stat describe bundle A13."""
        out = {"count": mom.n}
        if mom.n:
            r = mom.result()
            q = kll.quantile([0.10, 0.25, 0.5, 0.75, 0.90])
            out.update({
                "mean": r["mean"], "std": r["std"], "variance": r["variance"],
                "min": r["min"], "max": r["max"], "kurtosis": r["kurtosis"],
                "skewness": r["skewness"],
                "10%": q[0], "25%": q[1], "median": q[2], "75%": q[3], "90%": q[4],
            })
        return out

    def result(self, max_freq_distr: int = MAX_FREQ_DISTR,
               num_cat_perc_threshold: float = NUM_CAT_PERC_THRESHOLD
               ) -> dict:
        out = self._base_result()
        out.update(self._distinct_result())
        ltype = self.logical_type(num_cat_perc_threshold)
        out["type"] = ltype
        out["freq_value_counts"] = self._freq_value_counts(max_freq_distr)
        if ltype == NUMERIC and self.num_sub.n:
            out.update(self.num_sub.result())
            out.update(self.num_kll.result())
        if self.text_stats and self.total_chars:
            tc = self.total_chars
            out["num_chars"] = tc
            out["ratio_uppercase"] = self.n_upper / tc
            out["ratio_digits"] = self.n_digit / tc
            out["ratio_special_characters"] = self.n_punct / tc
            out["ratio_whitespace"] = self.n_space / tc
            out["num_words"] = int(self.word_len.n)
            out["char_length_distribution"] = self._dist_block(self.char_len, self.char_len_kll)
            out["word_length_distribution"] = self._dist_block(self.word_len, self.word_len_kll)
            out["words_per_value_mean"] = (self.words_per_value.mean
                                           if self.words_per_value.n else None)
        return out


class GeometryAccumulator(StringAccumulator):
    """WKT geometry columns: the mergeable analogue of the reference's
    ``describe_geometry`` (``tabular_timeseries/variables/geometry.py:
    89-140``) — value counts / samples from the string base, plus

    - ``mbr``: running bbox → WKT box;
    - ``union_convex_hull``: monotone-chain hull of ≤10 sampled vertices
      per geometry, with the point buffer COLLAPSED TO ITS HULL whenever it
      exceeds ``_HULL_BUF`` (hull(hull(A) ∪ hull(B)) == hull(A ∪ B), so the
      partial state stays bounded and merges exactly);
    - ``centroid``: highest-dimension weighted mean of per-geometry
      centroids (area-weighted; falls back to length-, then count-
      weighted) — equals the reference's union centroid for DISJOINT
      components, a documented approximation for overlapping ones;
    - ``geom_type_distribution``, ``area_distribution`` /
      ``length_distribution`` 13-stat bundles (A13 block).

    CRS handling (r5): ``crs='EPSG:326xx'/'327xx'`` (UTM) columns are
    reprojected to EPSG:4326 before stats via the pure-numpy Krüger
    series (``functions/crs.py``), matching the reference's
    ``to_crs('EPSG:4326')`` step (geometry.py:89-96); other projected
    CRS raise (pyproj-class scope, documented).
    """

    kind = "geometry"
    _HULL_BUF = 4096

    def __init__(self, name: str, crs: str = "EPSG:4326"):
        super().__init__(name, text_stats=False)
        self.crs = crs
        self.geom_counts: dict[str, int] = {}
        self.n_invalid = 0
        self.bbox = [np.inf, np.inf, -np.inf, -np.inf]
        self.area = MomentsState()
        self.area_kll = KLLSketch()
        self.length = MomentsState()
        self.length_kll = KLLSketch()
        self.w_area = np.zeros(3)    # (sum w·cx, sum w·cy, sum w) by area
        self.w_len = np.zeros(3)
        self.w_pt = np.zeros(3)
        self.hull_pts = np.empty((0, 2))

    def update(self, arr) -> None:
        from ..functions.geometry import (geometry_stats, parse_wkt,
                                          reproject_parsed, sample_points)
        arr = _combine_chunks(arr)
        if pa.types.is_dictionary(arr.type):
            arr = arr.cast(pa.string())
        valid = self._pre(arr)
        if len(valid) == 0:
            return
        self.probe_checked = True
        self._count(valid)
        self._probes(valid)
        areas, lengths = [], []
        pts = [self.hull_pts]
        for v in valid.to_pylist():
            try:
                parsed = reproject_parsed(parse_wkt(v), self.crs)
                st = geometry_stats(v, parsed=parsed)
                pts.append(sample_points(v, parsed=parsed))
            except ValueError:
                self.n_invalid += 1
                continue
            g = st["geom_type"]
            self.geom_counts[g] = self.geom_counts.get(g, 0) + 1
            if st["n_points"]:
                self.bbox[0] = min(self.bbox[0], st["xmin"])
                self.bbox[1] = min(self.bbox[1], st["ymin"])
                self.bbox[2] = max(self.bbox[2], st["xmax"])
                self.bbox[3] = max(self.bbox[3], st["ymax"])
                c = np.array([st["cx"], st["cy"]])
                if st["area"] > 0:
                    self.w_area += np.r_[st["area"] * c, st["area"]]
                elif st["length"] > 0:
                    self.w_len += np.r_[st["length"] * c, st["length"]]
                else:
                    self.w_pt += np.r_[c, 1.0]
            areas.append(st["area"])
            lengths.append(st["length"])
        if areas:
            a = np.asarray(areas)
            ln = np.asarray(lengths)
            self.area.update(a)
            self.area_kll.update(a)
            self.length.update(ln)
            self.length_kll.update(ln)
        self.hull_pts = np.vstack(pts)
        self._shrink_hull()

    def _shrink_hull(self) -> None:
        if self.hull_pts.shape[0] > self._HULL_BUF:
            from ..functions.geometry import convex_hull
            self.hull_pts = convex_hull(self.hull_pts)

    def merge(self, other: "GeometryAccumulator") -> None:
        super().merge(other)
        for g, c in other.geom_counts.items():
            self.geom_counts[g] = self.geom_counts.get(g, 0) + c
        self.n_invalid += other.n_invalid
        self.bbox = [min(self.bbox[0], other.bbox[0]),
                     min(self.bbox[1], other.bbox[1]),
                     max(self.bbox[2], other.bbox[2]),
                     max(self.bbox[3], other.bbox[3])]
        self.area.merge(other.area)
        self.area_kll.merge(other.area_kll)
        self.length.merge(other.length)
        self.length_kll.merge(other.length_kll)
        self.w_area += other.w_area
        self.w_len += other.w_len
        self.w_pt += other.w_pt
        self.hull_pts = np.vstack([self.hull_pts, other.hull_pts])
        self._shrink_hull()

    def logical_type(self, num_cat_perc_threshold: float =
                     NUM_CAT_PERC_THRESHOLD) -> str:
        return GEOMETRY  # declared geometry column: type is asserted

    def result(self, max_freq_distr: int = MAX_FREQ_DISTR,
               num_cat_perc_threshold: float = NUM_CAT_PERC_THRESHOLD
               ) -> dict:
        from ..functions.geometry import hull_wkt
        out = self._base_result()
        out.update(self._distinct_result())
        out["type"] = GEOMETRY
        out["crs"] = self.crs
        out["n_invalid_wkt"] = self.n_invalid
        out["freq_value_counts"] = self._freq_value_counts(max_freq_distr)
        out["geom_type_distribution"] = [
            {"name": self.name, "type": g, "count": c}
            for g, c in sorted(self.geom_counts.items(),
                               key=lambda kv: -kv[1])]
        if np.isfinite(self.bbox[0]):
            x0, y0, x1, y1 = self.bbox
            out["mbr"] = (f"POLYGON (({x0:g} {y0:g}, {x1:g} {y0:g}, "
                          f"{x1:g} {y1:g}, {x0:g} {y1:g}, {x0:g} {y0:g}))")
        else:
            out["mbr"] = None
        out["union_convex_hull"] = (hull_wkt(self.hull_pts)
                                    if self.hull_pts.size else None)
        for w in (self.w_area, self.w_len, self.w_pt):
            if w[2] > 0:
                out["centroid"] = (f"POINT ({w[0] / w[2]:g} "
                                   f"{w[1] / w[2]:g})")
                break
        else:
            out["centroid"] = None
        out["area_distribution"] = self._dist_block(self.area, self.area_kll)
        out["length_distribution"] = self._dist_block(self.length,
                                                      self.length_kll)
        return out


def make_accumulator(field: pa.Field, text_stats: bool = True) -> ColumnAccumulator:
    """Pick the accumulator for an Arrow field (physical-type dispatch; the
    logical type is refined at finalize, mirroring find_types)."""
    t = field.type
    if pa.types.is_boolean(t):
        return BooleanAccumulator(field.name)
    if pa.types.is_timestamp(t) or pa.types.is_date(t):
        return DatetimeAccumulator(field.name)
    if (pa.types.is_integer(t) or pa.types.is_floating(t) or pa.types.is_decimal(t)):
        return NumericAccumulator(field.name)
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        return StringAccumulator(field.name, text_stats=text_stats)
    if pa.types.is_dictionary(t):
        return StringAccumulator(field.name, text_stats=text_stats)
    acc = ColumnAccumulator(field.name)
    acc.kind = "unsupported"
    return acc
