"""Merge-exactness tests: merge(split(x)) == compute(x) against pandas/numpy
oracles, using the reference's formula conventions (ddof=1 std, pandas
bias-corrected skew/kurtosis — see SURVEY.md §5.2)."""

from collections import Counter
from unittest import mock

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from data_profiler_ray.stages.profile import dumps_state
from data_profiler_ray.state import column, topk
from data_profiler_ray.state.hll import HLLSketch
from data_profiler_ray.state.kll import KLLSketch
from data_profiler_ray.state.moments import MomentsState
from data_profiler_ray.state.topk import TopKCounter
from data_profiler_ray.state.column import (
    BooleanAccumulator, DatetimeAccumulator, NumericAccumulator,
    StringAccumulator, make_accumulator)


@pytest.mark.parametrize("n_chunks", [1, 3, 17])
def test_moments_merge_matches_pandas(n_chunks):
    rng = np.random.default_rng(7)
    x = np.concatenate([rng.normal(5, 2, 5000), rng.exponential(3, 5000)])
    s = pd.Series(x)
    states = []
    for part in np.array_split(x, n_chunks):
        st = MomentsState()
        st.update(part)
        states.append(st)
    m = states[0]
    for other in states[1:]:
        m.merge(other)
    assert m.n == len(x)
    assert m.mean == pytest.approx(s.mean(), abs=1e-9)
    assert m.std == pytest.approx(s.std(ddof=1), abs=1e-9)
    assert m.skewness == pytest.approx(s.skew(), abs=1e-8)
    assert m.kurtosis == pytest.approx(s.kurt(), abs=1e-8)
    assert m.vmin == x.min() and m.vmax == x.max()
    assert m.vsum == pytest.approx(x.sum(), rel=1e-12)


def test_moments_special_values():
    st = MomentsState()
    st.update(np.array([1.0, np.inf, -np.inf, np.nan, 0.0, -2.0]))
    assert st.n == 3  # finite only
    assert st.n_infinite == 2
    assert st.n_zeros == 1
    assert st.n_negative == 1


def test_kll_exact_before_compaction():
    rng = np.random.default_rng(1)
    x = rng.random(1500)
    k = KLLSketch(k=4096)
    for part in np.array_split(x, 5):
        k.update(part)
    q = [0.0, 0.05, 0.25, 0.5, 0.75, 0.95, 1.0]
    np.testing.assert_allclose(k.quantile(q), np.quantile(x, q), atol=1e-12)


def test_kll_bounded_error_after_compaction():
    rng = np.random.default_rng(2)
    x = rng.normal(0, 1, 300_000)
    parts = np.array_split(x, 50)
    sketches = []
    for p in parts:
        s = KLLSketch(k=512)
        s.update(p)
        sketches.append(s)
    k = sketches[0]
    for s in sketches[1:]:
        k.merge(s)
    assert k.n == len(x)
    got = k.quantile([0.1, 0.5, 0.9])
    exp = np.quantile(x, [0.1, 0.5, 0.9])
    assert np.max(np.abs(got - exp)) < 0.05


def test_hll_exact_then_approx():
    h = HLLSketch(exact_threshold=100)
    h.update(np.array([f"a{i}" for i in range(50)], dtype=object))
    assert h.is_exact and h.estimate() == 50
    h2 = HLLSketch(exact_threshold=100)
    h2.update(np.array([f"b{i}" for i in range(20000)], dtype=object))
    assert not h2.is_exact
    assert abs(h2.estimate() - 20000) / 20000 < 0.05
    h.merge(h2)
    assert abs(h.estimate() - 20050) / 20050 < 0.05


def _registers_by_shift_loop(h: np.ndarray, p: int) -> np.ndarray:
    """HLL registers of hashes ``h`` at precision ``p``, each rank counted
    by shifting ``rest`` left while its top bit is zero."""
    idx = (h >> np.uint64(64 - p)).astype(np.int64)
    rest = (h << np.uint64(p)) | np.uint64((1 << p) - 1)
    rank = np.ones(h.size, dtype=np.uint8)
    top = np.uint64(1) << np.uint64(63)
    active = (rest & top) == 0
    while active.any():
        rank[active] += 1
        rest[active] <<= np.uint64(1)
        active = (rest & top) == 0
    regs = np.zeros(1 << p, dtype=np.uint8)
    np.maximum.at(regs, idx, rank)
    return regs


@pytest.mark.parametrize("p", [4, 14, 16])
def test_hll_rank_kernel_matches_shift_loop(p):
    """The leading-zero count of ``HLLSketch._update_registers`` gives the
    registers of the shift loop, for random hashes in bulk and, one at a
    time, for random hashes, 0, 2**64 - 1 and every single-bit value."""
    rng = np.random.default_rng(p)
    rand = rng.integers(0, 2**64 - 1, 20_000, dtype=np.uint64,
                        endpoint=True)
    edges = np.array([0, 2**64 - 1] + [1 << i for i in range(64)],
                     dtype=np.uint64)

    def registers(h):
        sk = HLLSketch(p=p)
        sk.registers = np.zeros(sk.m, dtype=np.uint8)
        sk._update_registers(h)
        return sk.registers

    np.testing.assert_array_equal(registers(rand),
                                  _registers_by_shift_loop(rand, p))
    for h in [*rand[:300], *edges]:
        one = np.array([h], dtype=np.uint64)
        np.testing.assert_array_equal(registers(one),
                                      _registers_by_shift_loop(one, p))


def test_topk_exact_and_other_bucket():
    c = TopKCounter(cap=1000)
    c.update_counts(["a", "b", "c"], [100, 50, 1])
    c2 = TopKCounter(cap=1000)
    c2.update_counts(["a", "d"], [10, 1])
    c.merge(c2)
    assert dict(c.top_k(4))["a"] == 110
    assert c.n_unique() == 2  # c and d
    fd = c.freq_distribution(2)
    assert fd == {"a": 110, "b": 50, "Other Values (2)": 2}


class _RefCounter:
    """Reference value counter: a ``Counter`` with the Misra-Gries shrink
    (subtract the excess-th smallest count, drop what falls to zero)."""

    def __init__(self, cap):
        self.cap, self.counts = cap, Counter()
        self.total = self.decremented = 0

    def update(self, keys, counts):
        self.counts.update(dict(zip(keys, counts)))
        self.total += sum(counts)
        self._shrink()

    def merge(self, other):
        self.counts.update(other.counts)
        self.total += other.total
        self.decremented += other.decremented
        self._shrink()

    def _shrink(self):
        excess = len(self.counts) - self.cap
        if excess <= 0:
            return
        dec = sorted(self.counts.values())[excess - 1]
        self.decremented += sum(min(c, dec) for c in self.counts.values())
        self.counts = Counter({k: c - dec for k, c in self.counts.items()
                               if c > dec})

    def other_bucket(self, k):
        top = sorted(self.counts.values(), reverse=True)[:k]
        return self.total - sum(top)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("cap", [40, 5000])
@pytest.mark.parametrize("kind", ["int", "str"])
def test_topk_matches_counter_reference(seed, cap, kind):
    """The typed counter equals a Counter + Misra-Gries reference over
    random block splits and merge orders, below (cap 5000) and above
    (cap 40) the cap: counts, total, decremented, n_unique, the top-k
    (count descending, then key ascending) and the Other Values bucket."""
    rng = np.random.default_rng(seed)
    vals = rng.zipf(1.6, 3000) % 400
    if kind == "str":
        vals = np.array([f"v{v:03d}" for v in vals], dtype=object)
    cuts = np.sort(rng.choice(np.arange(1, vals.size), rng.integers(1, 9),
                              replace=False))
    typed, ref = [], []
    for block in np.split(vals, cuts):
        keys, counts = np.unique(block, return_counts=True)
        t, r = TopKCounter(cap=cap), _RefCounter(cap)
        t.update_counts(pa.array(keys.tolist()), counts)
        r.update(keys.tolist(), counts.tolist())
        typed.append(t)
        ref.append(r)
    order = rng.permutation(len(typed))
    t, r = typed[order[0]], ref[order[0]]
    for i in order[1:]:
        t.merge(typed[i])
        r.merge(ref[i])
    got = dict(zip(t.keys.to_pylist(), t.cnt.tolist()))
    assert got == dict(r.counts)
    assert (t.total, t.decremented) == (r.total, r.decremented)
    assert t.total == vals.size
    assert t.overflowed == (cap < 400 and len(set(vals.tolist())) > cap)
    assert t.n_unique() == sum(1 for c in r.counts.values() if c == 1)
    k = 10
    assert t.top_k(k) == sorted(r.counts.items(),
                                key=lambda kv: (-kv[1], kv[0]))[:k]
    fd = t.freq_distribution(k)
    rest = len(r.counts) - min(k, len(r.counts))
    if rest:
        assert fd[f"Other Values ({rest})"] == r.other_bucket(k)


def _arrow_value_counts(valid):
    """Each batch's counts as Arrow's ``value_counts`` gives them, in
    first-seen order, for every type. Floats count -0.0 as 0.0 first, as
    the counter's group-sum always did: before the single count, an
    overflowed counter's HLL hashed a batch's -0.0 apart from 0.0."""
    if pa.types.is_floating(valid.type):
        valid = pc.add(valid, pa.scalar(0.0, valid.type))
    vc = valid.value_counts()
    return vc.field("values"), vc.field("counts").to_numpy(
        zero_copy_only=False)


def _sorting_group_sum(keys, cnt):
    """The counter's group-sum with a ``np.unique`` sort of every numeric
    key array."""
    if not topk._numeric(keys.type):
        enc = keys.dictionary_encode()
        return enc.dictionary, np.bincount(
            enc.indices.to_numpy(), weights=cnt,
            minlength=len(enc.dictionary)).astype(np.int64)
    k = keys.to_numpy(zero_copy_only=False)
    if pa.types.is_floating(keys.type):
        k = k + 0.0
    uk, inv = np.unique(k, return_inverse=True)
    return pa.array(uk, keys.type), np.bincount(
        inv, weights=cnt, minlength=uk.size).astype(np.int64)


_INT_RANGES = {pa.int8(): (-2**7, 2**7 - 1), pa.int16(): (-2**15, 2**15 - 1),
               pa.int32(): (-2**31, 2**31 - 1),
               pa.int64(): (-2**63, 2**63 - 1), pa.uint64(): (0, 2**64 - 1),
               # the dates and times Python's datetime holds (samples)
               pa.date32(): (-719_162, 2_932_896),
               pa.timestamp("us"): (-62_135_596_800_000_000,
                                    253_402_300_799_999_999)}
_FLOAT_EDGES = [0.0, -0.0, float("inf"), float("-inf"), float("nan"), None]


@st.composite
def _numeric_batches(draw):
    """An integer, float, date or timestamp type and one to four batches of
    its values: drawn from a few values (so that they repeat), from the
    type's whole range (uint64 past 2**63) and, for floats, ±0.0, ±inf,
    NaN and null."""
    t = draw(st.sampled_from([*_INT_RANGES, pa.float32(), pa.float64()]))
    if pa.types.is_floating(t):
        # finite values within MomentsState's range; edges add ±inf
        full = (st.floats(width=32, allow_nan=False, allow_infinity=False)
                if t == pa.float32() else st.floats(-1e30, 1e30))
        edges = st.sampled_from(_FLOAT_EDGES)
    else:
        lo, hi = _INT_RANGES[t]
        full = st.integers(lo, hi)
        edges = st.sampled_from([lo, hi, 0, None] if lo else [lo, hi, None])
    pool = draw(st.lists(full, min_size=1, max_size=6))
    value = st.one_of(st.sampled_from(pool), edges, full)
    return t, draw(st.lists(st.lists(value, max_size=50), min_size=1,
                            max_size=4))


@settings(max_examples=200, deadline=None)
@given(_numeric_batches(), st.sampled_from([4, 262_144]))
def test_single_numeric_count_keeps_state_bytes(batches, cap):
    """Counting a numeric batch once (``column._value_counts``'s sorted
    ``np.unique``, passed through by ``topk._group_sum``) pickles to the
    same state bytes as Arrow's ``value_counts`` followed by a sorting
    group-sum, over one batch or several, with the counter exact or
    overflowed."""
    t, values = batches

    def state():
        acc = make_accumulator(pa.field("x", t))
        acc.counter.cap = cap
        for vals in values:
            acc.update(pa.array(vals, t))
        return dumps_state(acc)

    new = state()
    with mock.patch.object(column, "_value_counts", _arrow_value_counts), \
            mock.patch.object(topk, "_group_sum", _sorting_group_sum):
        old = state()
    assert new == old


def test_freq_value_counts_ties_do_not_depend_on_blocks():
    """Tied counts are ordered by key, so two block splits of one table,
    folded in different orders, give identical freq_value_counts."""
    rng = np.random.default_rng(5)
    ints = np.repeat(np.arange(40), 3)   # every value 3 times: all tied
    rng.shuffle(ints)
    strs = pa.array([f"s{v:02d}" for v in ints])

    def fold(make, arr, cuts, reverse):
        accs = []
        for lo, hi in zip([0] + cuts, cuts + [len(arr)]):
            a = make()
            a.update(arr.slice(lo, hi - lo))
            accs.append(a)
        if reverse:
            accs.reverse()
        for o in accs[1:]:
            accs[0].merge(o)
        return list(accs[0].result()["freq_value_counts"].items())

    for make, arr in ((lambda: NumericAccumulator("x"), pa.array(ints)),
                      (lambda: StringAccumulator("s"), strs)):
        a = fold(make, arr, [7, 50, 90], reverse=False)
        b = fold(make, arr, [33, 61], reverse=True)
        assert a == b
        assert [v for _, v in a[:10]] == [3] * 10
        assert [k for k, _ in a[:10]] == sorted(k for k, _ in a[:10])


@pytest.mark.parametrize("merge", [False, True])
def test_long_string_distinct_stays_exact_past_counter_cap(merge):
    """30k distinct values over 64 chars in 4 blocks: the counter (cap
    16,384) overflows and seeds the HLL's exact set from its prefix+hash
    keys, so n_distinct is still exactly 30,000 — folded into one
    accumulator (seeded in an update) or merged from four (seeded in a
    merge)."""
    head = "x" * 60
    vals = pa.array([f"{head}{i:07d}" for i in range(30_000)])
    accs = [StringAccumulator("c", text_stats=False)]
    for lo in range(0, 30_000, 7_500):
        if merge and lo:
            accs.append(StringAccumulator("c", text_stats=False))
        accs[-1].update(vals.slice(lo, 7_500))
    for o in accs[1:]:
        accs[0].merge(o)
    r = accs[0].result()
    assert accs[0].counter.overflowed
    assert r["n_distinct"] == 30_000
    assert r["distinct_is_exact"]


def test_long_large_string_values_key_like_string():
    """Values over 64 chars, ASCII and multi-byte, in a ``large_string``
    column fold to the same prefix+hash counter keys and the same profile
    fields as the same values typed ``string``."""
    vals = ["é" * 70, "x" * 100, "x" * 100, "ab" * 40 + "漢", "short", None]
    got = {}
    for t in (pa.string(), pa.large_string()):
        acc = StringAccumulator("s")
        acc.update(pa.array(vals, t))
        r = acc.result()
        got[t] = (acc.counter.keys.cast(pa.string()).to_pylist(),
                  acc.counter.cnt.tolist(),
                  {k: r[k] for k in ("count", "n_distinct", "n_unique",
                                     "freq_value_counts", "num_chars")})
    assert got[pa.string()] == got[pa.large_string()]
    keys = got[pa.string()][0]
    assert sorted(len(k) for k in keys) == [5, 64, 64, 64]
    assert "é" * 48 in {k[:48] for k in keys}


def test_extreme_dates_profile_and_bin():
    """Sentinel dates 0001-01-01 and 9999-12-31 sit past 2^53 epoch-µs,
    as do int64 values past 2^53: a profile folded from two blocks and
    both drift paths (the streaming DriftBinner and bin_accumulators over
    the merged state) take them and bin every row alike."""
    import datetime as dt
    import pickle

    from data_profiler_ray.config import ProfileConfig
    from data_profiler_ray.stages.drift import (DriftBinner,
                                                bin_accumulators,
                                                spec_from_profile)
    from data_profiler_ray.stages.profile import (finalize_profile, fold,
                                                  merge_states)
    days = [dt.date(1, 1, 1), dt.date(2024, 5, 1), dt.date(2024, 5, 1),
            dt.date(2024, 5, 2), dt.date(9999, 12, 31)]
    tbl = pa.table({
        "d": pa.array(days, pa.date32()),
        "ts": pa.array([dt.datetime(x.year, x.month, x.day) for x in days],
                       pa.timestamp("us")),
        "big": pa.array([-2**60, 1, 1, 7, 2**60], pa.int64()),
    })
    cfg = ProfileConfig()
    rows, merged = merge_states(
        [fold(tbl.slice(0, 2), tbl.schema, cfg),
         fold(tbl.slice(2), tbl.schema, cfg)])
    out = finalize_profile(rows, merged, cfg, dt.datetime.now(), [])
    var = {v["name"]: v for v in out["variables"]}
    for name in ("d", "ts"):
        assert var[name]["start"] == "0001-01-01T00:00:00"
        assert var[name]["end"] == "9999-12-31T00:00:00"
        assert sum(var[name]["histogram"]["counts"]) == 5
        assert var[name]["n_distinct"] == 4
    assert var["big"]["n_distinct"] == 4
    spec = spec_from_profile(out)
    assert {"d", "ts"} <= spec.keys()
    binned = bin_accumulators(spec, merged)
    streamed = pickle.loads(DriftBinner(spec)(tbl).column("state")[0].as_py())
    for name in spec:
        assert binned[name].sum() == 5
        assert binned[name].tolist() == streamed[name].tolist(), name


def test_drift_categories_bin_alike_in_both_paths():
    """Categories are the ``str`` of the baseline's values: an int
    baseline's "1" matches an int 1 but not a float 1.0 ("1.0"), in the
    streaming DriftBinner and in bin_accumulators alike."""
    import pickle

    from data_profiler_ray.stages.drift import DriftBinner, bin_accumulators
    cats = ["1", "2", "a"]
    spec = {c: {"kind": "categorical", "categories": cats,
                "base_counts": np.ones(4)} for c in ("i", "f", "s")}
    tbl = pa.table({"i": pa.array([1, 1, 2, 3]),
                    "f": pa.array([1.0, 1.0, 2.0, 3.5]),
                    "s": pa.array(["1", "a", "a", "b"])})
    accs = {"i": NumericAccumulator("i"), "f": NumericAccumulator("f"),
            "s": StringAccumulator("s", text_stats=False)}
    for name, acc in accs.items():
        acc.update(tbl.column(name))
    binned = bin_accumulators(spec, accs)
    streamed = pickle.loads(DriftBinner(spec)(tbl).column("state")[0].as_py())
    want = {"i": [2, 1, 0, 1], "f": [0, 0, 0, 4], "s": [1, 0, 2, 1]}
    for name, counts in want.items():
        assert binned[name].tolist() == counts, name
        assert streamed[name].tolist() == counts, name


def test_topk_overflow_keeps_heavy_hitters():
    c = TopKCounter(cap=100)
    c.update_counts([f"v{i}" for i in range(500)], [1] * 500)
    c.update_counts(["hot"], [10_000])
    assert c.overflowed
    assert c.top_k(1)[0][0] == "hot"


def test_numeric_accumulator_vs_pandas():
    rng = np.random.default_rng(3)
    x = np.round(rng.normal(100, 20, 4000), 1)
    x[::97] = np.nan
    accs = []
    for part in np.array_split(x, 6):
        a = NumericAccumulator("x")
        a.update(pa.array(part))
        accs.append(a)
    a = accs[0]
    for o in accs[1:]:
        a.merge(o)
    s = pd.Series(x)
    r = a.result()
    assert r["count"] == s.count()
    assert r["num_missing"] == s.isna().sum()
    assert r["mean"] == pytest.approx(s.mean())
    assert r["std"] == pytest.approx(s.std(ddof=1))
    assert r["n_distinct"] == s.nunique()
    assert r["median"] == pytest.approx(s.median())
    assert r["25%"] == pytest.approx(s.quantile(0.25))
    assert r["mad"] == pytest.approx((s - s.median()).abs().median(), abs=0.2)
    assert r["type"] == "Numeric"
    hist = r["histogram"]
    assert sum(hist["counts"]) == s.count()


def test_numeric_to_categorical_rule():
    a = NumericAccumulator("x")
    a.update(pa.array([1, 1, 2, 2, 3, 3, 3] * 10))
    assert a.result()["type"] == "Categorical"


def test_string_accumulator_type_probes():
    cases = {
        "Boolean": ["yes", "no", "Yes", "NO"],
        "DateTime": ["2024-01-01", "2024-05-06 10:00:00"],
        "Numeric": [str(v) for v in range(60)],
        "Geometry": ["POINT (1 2)", "POLYGON ((0 0, 1 0, 1 1, 0 0))"],
        "Categorical": ["red", "green", "blue", "red", "red", "green"] * 5,
    }
    for expected, vals in cases.items():
        a = StringAccumulator("c")
        a.update(pa.array(vals))
        assert a.result()["type"] == expected, (expected, vals)
    a = StringAccumulator("c")
    a.update(pa.array([f"free text value number {i} with words" for i in range(50)]))
    assert a.result()["type"] == "Textual"


@pytest.mark.parametrize("vals, parses", [
    (["2024-01-01", "2024-05-06 10:00:00", "03/07/2021"] * 6, [1, 16, 18]),
    (["2024-01-01"] + ["plain words"] * 17, [1, 16]),
    (["plain words"] + ["2024-01-01"] * 17, [1]),
])
def test_datetime_probe_checks_first_value_first(monkeypatch, vals, parses):
    """The datetime probe parses the first value alone, then the 16-value
    head, then the batch, stopping at the first stage with an unparsable
    value; its flag equals pandas' verdict over the whole batch."""
    import pandas as pd
    sizes, to_datetime = [], pd.to_datetime

    def counted(s, *a, **k):
        sizes.append(len(s))
        return to_datetime(s, *a, **k)

    monkeypatch.setattr(pd, "to_datetime", counted)
    a = StringAccumulator("c")
    a.update(pa.array(vals))
    assert sizes == parses
    want = not to_datetime(pd.Series(vals), errors="coerce",
                           format="mixed").isna().any()
    assert a.all_datetime is want


def test_string_text_stats_ratios():
    a = StringAccumulator("t")
    a.update(pa.array(["AB 12!", "cd"]))
    r = a.result()
    assert r["num_chars"] == 8
    assert r["ratio_digits"] == pytest.approx(2 / 8)
    assert r["ratio_uppercase"] == pytest.approx(2 / 8)
    assert r["ratio_special_characters"] == pytest.approx(1 / 8)
    assert r["num_words"] == 3
    assert r["word_length_distribution"]["mean"] == pytest.approx((2 + 3 + 2) / 3)


def test_boolean_accumulator():
    a = BooleanAccumulator("b")
    a.update(pa.array([True, False, True, None]))
    b = BooleanAccumulator("b")
    b.update(pa.array([True]))
    a.merge(b)
    r = a.result()
    assert r["counts"][0]["count"] == 3 and r["counts"][1]["count"] == 1
    assert r["num_missing"] == 1


def test_datetime_accumulator():
    ts = pd.date_range("2024-01-01", periods=100, freq="h")
    a = DatetimeAccumulator("ts")
    a.update(pa.array(ts[:50]))
    b = DatetimeAccumulator("ts")
    b.update(pa.array(ts[50:]))
    a.merge(b)
    r = a.result()
    assert r["start"].startswith("2024-01-01T00:00")
    assert r["end"].startswith("2024-01-05T03:00")
    assert r["n_distinct"] == 100


def test_numeric_accumulator_sketch_path_high_cardinality():
    """Past the counter cap the accumulator must degrade to sketches with
    bounded error AND bounded state size (the 100 TB safety property)."""
    import pickle
    from data_profiler_ray.state.column import NumericAccumulator
    rng = np.random.default_rng(12)
    x = rng.standard_normal(600_000) * 100  # ~600k distinct floats
    acc = NumericAccumulator("x")
    for chunk in np.array_split(x, 24):
        acc.update(pa.array(chunk))
    # merge in a second accumulator to exercise overflowed-merge
    acc2 = NumericAccumulator("x")
    acc2.update(pa.array(rng.standard_normal(100_000) * 100))
    acc.merge(acc2)
    res = acc.result()
    full = np.concatenate([x, np.asarray([])])
    assert res["count"] == 700_000
    assert not res["distinct_is_exact"]
    # HLL distinct within 3%
    assert abs(res["n_distinct"] - 700_000) / 700_000 < 0.03
    # exact moments regardless of cardinality
    assert res["mean"] == pytest.approx(
        np.concatenate([x, acc2.moments.vsum / acc2.moments.n * np.ones(0)]).mean(),
        abs=1.0)  # sanity scale check only
    # KLL quantiles within ~1% rank error
    assert abs(res["median"]) < 1.0
    q95 = res["95%"]
    assert 155 < q95 < 175  # N(0,100) 95th pct ≈ 164.5
    # bounded state: sketch-backed accumulator must stay under 2 MB
    assert len(pickle.dumps(acc)) < 2_000_000
