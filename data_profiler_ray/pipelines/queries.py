"""Named query pipelines over the driver test tables + DuckDB oracle SQL.

One entry per implemented operator family from SURVEY.md §2 (and the
training-data ops). Every ``QUERIES[name]`` is ``f(sf_dir) -> Table/Dataset``
and, where SQL-expressible, ``ORACLE_SQL[name]`` is the equivalent DuckDB
statement over the same parquet views with IDENTICAL column names — float
outputs are rounded on BOTH sides to keep the driver's value-hash stable.

Non-SQL-expressible ops (MinHash/SimHash LSH, embedding LSH, language
heuristic, quality scoring, validation run) are present in QUERIES only →
the driver records a rows-only check for them.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..config import ProfileConfig
from ..functions.dedup import (embedding_all_pairs_exact, embedding_dup_pairs,
                               exact_dedup, minhash_dedup, simhash_candidates)
from ..functions.similarity import knn_brute_force, knn_ivf
from ..functions.text import (fingerprint_batch, language_id_batch,
                              quality_score_batch, token_count_batch)
from ..stages.profile import profile_dataset

_R = 6  # float rounding for hash-stable comparisons

# Nudge added before every float ROUND on BOTH the Ray and the SQL side:
# numpy/pandas round half-to-even while DuckDB ROUND rounds half away from
# zero, so a value landing exactly on a .5 boundary at the rounded digit
# (possible for aggregate means/sums of decimal data) would flip between
# engines nondeterministically with accumulation order. The shared epsilon
# moves both sides off the tie. (NaN parity note: the accumulators treat
# float NaN as missing while SQL COUNT/MIN/MAX would treat it as a value —
# the driver test tables contain no NaN; oracles on NaN-bearing float
# columns would need FILTER (WHERE NOT isnan(c)) on the SQL side.)
_EPS = 1e-9


def _round(x, digits: int = _R):
    """Tie-guarded rounding for floats (arrays, Series or scalars)."""
    return np.round(np.asarray(x, dtype=np.float64) + _EPS, digits)


def _read(sf_dir: str, table: str) -> "ray.data.Dataset":
    return ray.data.read_parquet(f"{sf_dir}/{table}.parquet")


def _tbl(ds) -> pa.Table:
    tables = list(ds.iter_batches(batch_format="pyarrow"))
    return pa.concat_tables(tables) if tables else pa.table({})


# ---------------------------------------------------------------------------
# Profile-stat family (A2/A4/A5/A11 — distributed accumulators vs SQL)

_LINEITEM_NUM = ["l_quantity", "l_extendedprice", "l_discount", "l_tax"]


def profile_lineitem_stats(sf_dir: str) -> pa.Table:
    """Per-column generic+moment stats from the accumulator pipeline."""
    prof = profile_dataset(_read(sf_dir, "lineitem"),
                           ProfileConfig(columns=_LINEITEM_NUM))
    rows = []
    for v in prof["variables"]:
        rows.append({
            "column_name": v["name"],
            "cnt": v["count"],
            "n_missing": v["num_missing"],
            "n_distinct": v["n_distinct"],
            "min_val": float(_round(float(v["min"]))),
            "max_val": float(_round(float(v["max"]))),
            # sum rounded at 2 decimals: these columns are cent-precision
            # decimals, so the true sum IS a 2-decimal value — rounding is
            # hash-stable where a mean would sit on a rounding boundary
            "sum_val": float(_round(float(v["sum"]), 2)),
        })
    rows.sort(key=lambda r: r["column_name"])
    return pa.Table.from_pylist(rows)


_PROFILE_STATS_SQL = " UNION ALL ".join(
    f"SELECT '{c}' AS column_name, COUNT({c}) AS cnt, "
    f"COUNT(*) - COUNT({c}) AS n_missing, "
    f"COUNT(DISTINCT {c}) AS n_distinct, "
    f"ROUND((CAST(MIN({c}) AS DOUBLE)) + 1e-9, {_R}) AS min_val, "
    f"ROUND((CAST(MAX({c}) AS DOUBLE)) + 1e-9, {_R}) AS max_val, "
    f"ROUND((SUM(CAST({c} AS DOUBLE))) + 1e-9, 2) AS sum_val FROM lineitem"
    for c in _LINEITEM_NUM) + " ORDER BY column_name"


def events_value_stats(sf_dir: str) -> pa.Table:
    prof = profile_dataset(_read(sf_dir, "events"),
                           ProfileConfig(columns=["value"]))
    v = prof["variables"][0]
    return pa.table({
        "cnt": pa.array([v["count"]], pa.int64()),
        "min_val": pa.array([float(_round(float(v["min"])))]),
        "max_val": pa.array([float(_round(float(v["max"])))]),
        "mean_val": pa.array([float(_round(float(v["mean"])))]),
        "std_val": pa.array([float(_round(float(v["std"])))]),
    })


def quantiles_quantity(sf_dir: str) -> pa.Table:
    """Exact weighted quantiles (counter-exact mode = pandas/duckdb linear
    interpolation, reference numeric.py:46-51)."""
    prof = profile_dataset(_read(sf_dir, "lineitem"),
                           ProfileConfig(columns=["l_quantity"]))
    v = prof["variables"][0]
    return pa.table({
        "p25": pa.array([float(_round(float(v["25%"])))]),
        "p50": pa.array([float(_round(float(v["median"])))]),
        "p75": pa.array([float(_round(float(v["75%"])))]),
        "p95": pa.array([float(_round(float(v["95%"])))]),
    })


def datetime_range_orders(sf_dir: str) -> pa.Table:
    prof = profile_dataset(_read(sf_dir, "orders"),
                           ProfileConfig(columns=["o_orderdate"]))
    v = prof["variables"][0]
    return pa.table({
        "start_ts": pa.array([v["start"]], pa.string()),
        "end_ts": pa.array([v["end"]], pa.string()),
        "n_distinct": pa.array([v["n_distinct"]], pa.int64()),
    })


def table_stats(sf_dir: str) -> pa.Table:
    rows = []
    for t in ["lineitem", "orders", "customer", "documents", "events"]:
        prof = profile_dataset(_read(sf_dir, t), ProfileConfig(
            text_stats=False))
        rows.append({"table_name": t,
                     "num_rows": prof["table"]["num_rows"],
                     "num_attributes": prof["table"]["num_attributes"],
                     "n_cells_missing": prof["table"]["n_cells_missing"]})
    return pa.Table.from_pylist(rows)


_TABLE_STATS_SQL = " UNION ALL ".join(
    f"SELECT '{t}' AS table_name, COUNT(*) AS num_rows, "
    f"(SELECT COUNT(*) FROM (DESCRIBE {t})) AS num_attributes, "
    + "( " + " + ".join([f"(SELECT COUNT(*) - COUNT({c}) FROM {t})"
                         for c in cols]) + " ) AS n_cells_missing "
    f"FROM {t}"
    for t, cols in [
        ("lineitem", ["l_orderkey", "l_partkey", "l_suppkey", "l_linenumber",
                      "l_quantity", "l_extendedprice", "l_discount", "l_tax",
                      "l_returnflag", "l_linestatus", "l_shipdate"]),
        ("orders", ["o_orderkey", "o_custkey", "o_orderstatus",
                    "o_totalprice", "o_orderdate", "o_orderpriority"]),
        ("customer", ["c_custkey", "c_name", "c_nationkey", "c_acctbal",
                      "c_mktsegment"]),
        ("documents", ["doc_id", "text", "lang", "source", "n_chars"]),
        ("events", ["event_id", "ts", "user_id", "event_type", "value",
                    "props"]),
    ]) + " ORDER BY table_name"


def histogram_quantity(sf_dir: str) -> pa.Table:
    """Fixed 10-bin equal-width histogram: 2-pass (merged min/max → binned
    map_batches partials summed on the driver — A6 pattern)."""
    ds = _read(sf_dir, "lineitem").select_columns(["l_quantity"])
    from ray.data.aggregate import Max, Min
    mm = ds.aggregate(Min("l_quantity"), Max("l_quantity"))
    lo, hi = float(mm["min(l_quantity)"]), float(mm["max(l_quantity)"])
    edges = np.linspace(lo, hi, 11)

    def binner(batch: pa.Table) -> pa.Table:
        x = batch.column("l_quantity").drop_null().to_numpy(
            zero_copy_only=False)
        idx = np.clip(np.floor((x - lo) / ((hi - lo) / 10.0)), 0, 9)
        counts = np.bincount(idx.astype(np.int64), minlength=10)
        return pa.table({"bin_idx": pa.array(np.arange(10, dtype=np.int32)),
                         "cnt": pa.array(counts, pa.int64())})

    parts = _tbl(ds.map_batches(binner, batch_format="pyarrow"))
    df = parts.to_pandas().groupby("bin_idx", as_index=False)["cnt"].sum()
    return pa.Table.from_pandas(df.sort_values("bin_idx"),
                                preserve_index=False).set_column(
        0, "bin_idx", pa.array(df["bin_idx"].to_numpy(), pa.int32()))


# ---------------------------------------------------------------------------
# Grouped aggregations / top-k (A7/A9/A10, O3)


def value_counts_returnflag(sf_dir: str):
    return (_read(sf_dir, "lineitem").groupby("l_returnflag").count()
            .rename_columns({"count()": "cnt"}))


def topk_part_brand(sf_dir: str) -> pa.Table:
    tbl = _tbl(_read(sf_dir, "part").groupby("p_brand").count()
               .rename_columns({"count()": "cnt"}))
    df = tbl.to_pandas().sort_values(["cnt", "p_brand"],
                                     ascending=[False, True]).head(5)
    return pa.Table.from_pandas(df, preserve_index=False)


def pricing_summary(sf_dir: str) -> pa.Table:
    """TPC-H Q1-shaped rollup with per-batch partial aggregation before the
    tiny groupby (combiner pattern, SURVEY.md §4.2)."""
    ds = _read(sf_dir, "lineitem").select_columns(
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
         "l_discount"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df["disc_price"] = df["l_extendedprice"] * (1 - df["l_discount"])
        g = df.groupby(["l_returnflag", "l_linestatus"], as_index=False).agg(
            sum_qty=("l_quantity", "sum"),
            sum_base_price=("l_extendedprice", "sum"),
            sum_disc_price=("disc_price", "sum"),
            count_order=("l_quantity", "size"))
        return pa.Table.from_pandas(g, preserve_index=False)

    merged = _tbl(ds.map_batches(partial, batch_format="pyarrow"))
    df = merged.to_pandas().groupby(
        ["l_returnflag", "l_linestatus"], as_index=False).agg(
        sum_qty=("sum_qty", "sum"),
        sum_base_price=("sum_base_price", "sum"),
        sum_disc_price=("sum_disc_price", "sum"),
        count_order=("count_order", "sum"))
    df["avg_qty"] = _round(df["sum_qty"] / df["count_order"])
    df["sum_qty"] = _round(df["sum_qty"], 2)
    df["sum_base_price"] = _round(df["sum_base_price"], 2)
    df["sum_disc_price"] = _round(df["sum_disc_price"], 2)
    df = df.sort_values(["l_returnflag", "l_linestatus"])
    return pa.Table.from_pandas(df, preserve_index=False)


def orders_by_status(sf_dir: str) -> pa.Table:
    tbl = _tbl(_read(sf_dir, "orders").groupby("o_orderstatus")
               .aggregate(ray.data.aggregate.Count(),
                          ray.data.aggregate.Sum("o_totalprice")))
    df = tbl.to_pandas().rename(columns={
        "count()": "cnt", "sum(o_totalprice)": "sum_totalprice"})
    df["sum_totalprice"] = _round(df["sum_totalprice"], 2)
    return pa.Table.from_pandas(df.sort_values("o_orderstatus"),
                                preserve_index=False)


def events_per_type(sf_dir: str) -> pa.Table:
    tbl = _tbl(_read(sf_dir, "events").groupby("event_type")
               .aggregate(ray.data.aggregate.Count(),
                          ray.data.aggregate.Mean("value")))
    df = tbl.to_pandas().rename(columns={
        "count()": "cnt", "mean(value)": "avg_value"})
    df["avg_value"] = _round(df["avg_value"])
    return pa.Table.from_pandas(df.sort_values("event_type"),
                                preserve_index=False)


def hourly_events(sf_dir: str):
    def trunc(batch: pa.Table) -> pa.Table:
        return pa.table({
            "hour": pc.floor_temporal(batch.column("ts"), unit="hour")})
    return (_read(sf_dir, "events").select_columns(["ts"])
            .map_batches(trunc, batch_format="pyarrow")
            .groupby("hour").count().rename_columns({"count()": "cnt"}))


def lang_distribution_documents(sf_dir: str):
    return (_read(sf_dir, "documents").groupby("lang").count()
            .rename_columns({"count()": "cnt"}))


# ---------------------------------------------------------------------------
# Constraints (uniqueness D1, ordering, referential J3)


def dup_keys_events(sf_dir: str) -> pa.Table:
    """Duplicate-key detection as a pure count aggregate: groupby().count()
    → vectorized cnt>1 filter. No map_groups — with virtually every
    (user_id, ts) group a singleton, per-group Python overhead would
    dominate (round-1 anti-pattern #2)."""
    ds = _read(sf_dir, "events").select_columns(["user_id", "ts"])
    counted = ds.groupby(["user_id", "ts"]).count()

    def only_dups(b: pa.Table) -> pa.Table:
        b = b.rename_columns([{"count()": "cnt"}.get(c, c)
                              for c in b.column_names])
        return b.filter(pc.greater(b.column("cnt"), 1)).select(
            ["user_id", "ts", "cnt"])

    out = _tbl(counted.map_batches(only_dups, batch_format="pyarrow"))
    if out.num_columns == 0:
        out = pa.schema([("user_id", pa.int64()), ("ts", pa.timestamp("us")),
                         ("cnt", pa.int64())]).empty_table()
    return out


def uniqueness_orders(sf_dir: str) -> pa.Table:
    prof = profile_dataset(_read(sf_dir, "orders"),
                           ProfileConfig(columns=["o_orderkey"]))
    v = prof["variables"][0]
    return pa.table({"n_rows": pa.array([v["n"]], pa.int64()),
                     "n_distinct_keys": pa.array([v["n_distinct"]], pa.int64())})


_MONO_SCHEMA = pa.schema([("user_id", pa.int64()), ("n_events", pa.int64()),
                          ("n_regressions", pa.int64())])


def _mono_block(batch: pa.Table, starts: np.ndarray, ends: np.ndarray
                ) -> pa.Table:
    """Vectorized per-segment ts-regression count (batch sorted by
    (user_id, event_id); segments contiguous — stages/segments contract)."""
    from ..stages.segments import segment_reduce
    ts = batch.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
    flag = np.zeros(ts.size, dtype=np.int64)
    flag[1:] = ts[1:] < ts[:-1]
    flag[starts] = 0
    return pa.table({
        "user_id": batch.column("user_id").take(pa.array(starts))
        .cast(pa.int64()),
        "n_events": pa.array(ends - starts, pa.int64()),
        "n_regressions": pa.array(
            segment_reduce(flag, starts, int(ends[-1])), pa.int64()),
    }, schema=_MONO_SCHEMA)


def _np_i64(batch: pa.Table, col: str) -> np.ndarray:
    return batch.column(col).cast(pa.int64()).to_numpy(zero_copy_only=False)


class _MonoCut:
    """Mergeable partials for the per-key ts-regression count (VERDICT r3
    item 2): per cut piece carry (n_events, interior regressions, boundary
    timestamps) — counts merge by sum, junctions add first_ts[i] <
    last_ts[i-1]. o(#blocks) driver bytes for any key size."""

    partial_schema = pa.schema([
        ("user_id", pa.int64()), ("o_event", pa.int64()),
        ("n_events", pa.int64()), ("n_reg", pa.int64()),
        ("first_ts", pa.int64()), ("last_ts", pa.int64())])
    sort_cols = ("user_id", "o_event")
    emit_schema = None

    def partials(self, batch, starts, ends):
        ts = _np_i64(batch, "ts")
        ev = _np_i64(batch, "event_id")
        uid = _np_i64(batch, "user_id")
        rows = {f.name: [] for f in self.partial_schema}
        for s, e in zip(starts, ends):
            seg = ts[s:e]
            rows["user_id"].append(int(uid[s]))
            rows["o_event"].append(int(ev[s]))
            rows["n_events"].append(int(e - s))
            rows["n_reg"].append(int((seg[1:] < seg[:-1]).sum()))
            rows["first_ts"].append(int(seg[0]))
            rows["last_ts"].append(int(seg[-1]))
        return None, pa.table(rows, schema=self.partial_schema)

    def merge(self, p: pa.Table) -> pa.Table:
        uid = p.column("user_id").to_numpy(zero_copy_only=False)
        n_ev = p.column("n_events").to_numpy(zero_copy_only=False)
        n_reg = p.column("n_reg").to_numpy(zero_copy_only=False)
        f_ts = p.column("first_ts").to_numpy(zero_copy_only=False)
        l_ts = p.column("last_ts").to_numpy(zero_copy_only=False)
        change = np.r_[True, uid[1:] != uid[:-1]]
        starts = np.flatnonzero(change)
        junction = (~change) & (f_ts < np.r_[np.int64(0), l_ts[:-1]])
        return pa.table({
            "user_id": pa.array(uid[starts], pa.int64()),
            "n_events": pa.array(np.add.reduceat(n_ev, starts), pa.int64()),
            "n_regressions": pa.array(
                np.add.reduceat(n_reg + junction, starts), pa.int64()),
        }, schema=_MONO_SCHEMA)

    def adjust(self, batch, adjust_map):
        return batch


def ts_monotonicity_events(sf_dir: str) -> pa.Table:
    """Per-user ts-regression count along event_id order (the transcript
    monotone-ts check applied to the events table) — sorted-segment path
    (r2 item 1: was groupby(user).map_groups, one Python call per user)."""
    from ..stages.segments import sorted_segment_map
    ds = _read(sf_dir, "events").select_columns(["user_id", "event_id", "ts"])
    return _tbl(sorted_segment_map(ds, "user_id", ["event_id"], _mono_block,
                                   _MONO_SCHEMA, cut_kernel=_MonoCut())
                ).sort_by("user_id")


_GAPS_SCHEMA = pa.schema([("user_id", pa.int64()), ("n_gaps", pa.int64()),
                          ("sum_gap_us", pa.int64()),
                          ("max_gap_us", pa.int64())])


def _gaps_block(batch: pa.Table, starts: np.ndarray, ends: np.ndarray
                ) -> pa.Table:
    """Per-segment inter-arrival gaps (batch sorted by (user_id, ts,
    event_id)): sum telescopes to last-first (exact int µs), max via
    maximum.reduceat over per-row gap-to-previous (0 at segment starts,
    matching the 0 fallback for single-row users)."""
    from ..stages.segments import segment_reduce
    ts = batch.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
    gap = np.zeros(ts.size, dtype=np.int64)
    gap[1:] = ts[1:] - ts[:-1]
    gap[starts] = 0
    return pa.table({
        "user_id": batch.column("user_id").take(pa.array(starts))
        .cast(pa.int64()),
        "n_gaps": pa.array(ends - starts - 1, pa.int64()),
        "sum_gap_us": pa.array(ts[ends - 1] - ts[starts], pa.int64()),
        "max_gap_us": pa.array(
            segment_reduce(gap, starts, int(ends[-1]), np.maximum),
            pa.int64()),
    }, schema=_GAPS_SCHEMA)


class _GapsCut:
    """Mergeable partials for per-key gap stats: counts/sums telescope,
    max merges with the junction gaps (first_ts[i] − last_ts[i−1] ≥ 0
    because pieces are (ts, event_id)-sorted). Integer µs throughout."""

    partial_schema = pa.schema([
        ("user_id", pa.int64()), ("o_ts", pa.int64()),
        ("o_event", pa.int64()), ("n_rows", pa.int64()),
        ("first_ts", pa.int64()), ("last_ts", pa.int64()),
        ("max_gap", pa.int64())])
    sort_cols = ("user_id", "o_ts", "o_event")
    emit_schema = None

    def partials(self, batch, starts, ends):
        ts = _np_i64(batch, "ts")
        ev = _np_i64(batch, "event_id")
        uid = _np_i64(batch, "user_id")
        rows = {f.name: [] for f in self.partial_schema}
        for s, e in zip(starts, ends):
            seg = ts[s:e]
            rows["user_id"].append(int(uid[s]))
            rows["o_ts"].append(int(seg[0]))
            rows["o_event"].append(int(ev[s]))
            rows["n_rows"].append(int(e - s))
            rows["first_ts"].append(int(seg[0]))
            rows["last_ts"].append(int(seg[-1]))
            rows["max_gap"].append(
                int((seg[1:] - seg[:-1]).max()) if e - s > 1 else 0)
        return None, pa.table(rows, schema=self.partial_schema)

    def merge(self, p: pa.Table) -> pa.Table:
        uid = p.column("user_id").to_numpy(zero_copy_only=False)
        n = p.column("n_rows").to_numpy(zero_copy_only=False)
        f_ts = p.column("first_ts").to_numpy(zero_copy_only=False)
        l_ts = p.column("last_ts").to_numpy(zero_copy_only=False)
        mg = p.column("max_gap").to_numpy(zero_copy_only=False)
        change = np.r_[True, uid[1:] != uid[:-1]]
        starts = np.flatnonzero(change)
        ends = np.append(starts[1:], uid.size)
        junction = np.where(change, 0, f_ts - np.r_[np.int64(0), l_ts[:-1]])
        return pa.table({
            "user_id": pa.array(uid[starts], pa.int64()),
            "n_gaps": pa.array(np.add.reduceat(n, starts) - 1, pa.int64()),
            "sum_gap_us": pa.array(l_ts[ends - 1] - f_ts[starts], pa.int64()),
            "max_gap_us": pa.array(
                np.maximum.reduceat(np.maximum(mg, junction), starts),
                pa.int64()),
        }, schema=_GAPS_SCHEMA)

    def adjust(self, batch, adjust_map):
        return batch


def user_event_gaps(sf_dir: str) -> pa.Table:
    """Per-user inter-arrival gap stats (the A14 gap-stat family applied to
    the events stream) — sorted-segment path, integer-µs arithmetic
    end-to-end so the oracle hash is exact."""
    from ..stages.segments import sorted_segment_map
    ds = _read(sf_dir, "events").select_columns(["user_id", "event_id", "ts"])
    return _tbl(sorted_segment_map(ds, "user_id", ["ts", "event_id"],
                                   _gaps_block, _GAPS_SCHEMA,
                                   cut_kernel=_GapsCut())
                ).sort_by("user_id")


def distinct_counts_lineitem(sf_dir: str) -> pa.Table:
    """Distinct cardinalities from the accumulator pipeline (exact below
    the counter cap, HLL beyond — here exact) vs COUNT(DISTINCT)."""
    prof = profile_dataset(_read(sf_dir, "lineitem"), ProfileConfig(
        columns=["l_orderkey", "l_partkey", "l_suppkey"]))
    v = {x["name"]: x for x in prof["variables"]}
    return pa.table({
        "n_orderkeys": pa.array([v["l_orderkey"]["n_distinct"]], pa.int64()),
        "n_partkeys": pa.array([v["l_partkey"]["n_distinct"]], pa.int64()),
        "n_suppkeys": pa.array([v["l_suppkey"]["n_distinct"]], pa.int64()),
    })


def revenue_by_segment(sf_dir: str) -> pa.Table:
    """Broadcast hash join: the small customer→segment map rides to every
    task via ``ray.put`` (one object-store copy), orders stream through a
    stateless lookup + per-batch partial aggregation — no shuffle of the
    big side (SURVEY.md §2.4 J3 pattern generalized to an equi-join)."""
    import ray as _ray
    cust = _tbl(_read(sf_dir, "customer")
                .select_columns(["c_custkey", "c_mktsegment"]))
    seg_map_ref = _ray.put(cust.combine_chunks())

    class JoinAgg:
        """Broadcast-join probe: Arrow ``pc.index_in`` against the key
        array + ``take`` on the segment array — fully vectorized, no
        per-row Python dict lookups (round-1 anti-pattern #1)."""

        def __init__(self, ref):
            t = _ray.get(ref) if isinstance(ref, _ray.ObjectRef) else ref
            self.keys = t.column("c_custkey").combine_chunks()
            self.segs = t.column("c_mktsegment").combine_chunks()

        def __call__(self, batch: pa.Table) -> pa.Table:
            idx = pc.index_in(batch.column("o_custkey"), value_set=self.keys)
            segs = self.segs.take(idx)  # missing keys → null segment
            df = pd.DataFrame({
                "c_mktsegment": segs.to_pandas(),
                "p": batch.column("o_totalprice").to_numpy(
                    zero_copy_only=False)})
            g = df.groupby("c_mktsegment", as_index=False).agg(
                revenue=("p", "sum"), n_orders=("p", "size"))
            return pa.Table.from_pandas(g, preserve_index=False)

    parts = _tbl(_read(sf_dir, "orders")
                 .select_columns(["o_custkey", "o_totalprice"])
                 .map_batches(JoinAgg, fn_constructor_args=(seg_map_ref,),
                              batch_format="pyarrow", concurrency=(1, 4)))
    df = parts.to_pandas().groupby("c_mktsegment", as_index=False).agg(
        revenue=("revenue", "sum"), n_orders=("n_orders", "sum"))
    df["revenue"] = _round(df["revenue"], 2)
    return pa.Table.from_pandas(df.sort_values("c_mktsegment"),
                                preserve_index=False)


SESSION_GAP_US = 30 * 60 * 1_000_000  # 30-minute inactivity boundary


_SESS_SCHEMA = pa.schema([
    ("user_id", pa.int64()), ("session_id", pa.int64()),
    ("n_events", pa.int64()), ("session_start_us", pa.int64()),
    ("session_end_us", pa.int64()), ("sum_value", pa.float64())])


def _session_block(batch: pa.Table, starts: np.ndarray, ends: np.ndarray
                   ) -> pa.Table:
    """Vectorized multi-user sessionization (batch sorted by (user_id, ts,
    event_id)): session boundaries = user change-points OR >30-min gaps;
    all per-session reductions via reduceat — no per-user dispatch.
    Cut users go through the ``_SessionCut`` CutKernel: block-boundary
    pieces ship fixed-size partials whose float ``sum_value`` partials ARE
    merged on the driver — a different FP association than one whole-segment
    reduceat; the query-level ``_round`` guard absorbs the ULP-scale
    difference (and the oracle rounds identically)."""
    from ..stages.segments import segment_reduce
    ts = batch.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
    val = batch.column("value").to_numpy(zero_copy_only=False).astype(
        np.float64)
    new = np.zeros(ts.size, dtype=bool)
    new[1:] = (ts[1:] - ts[:-1]) > SESSION_GAP_US
    new[starts] = True
    lo, hi = int(starts[0]), int(ends[-1])
    s_starts = np.flatnonzero(new[lo:hi]) + lo
    s_ends = np.append(s_starts[1:], hi)
    # session ordinal within its user: session index − index of the user's
    # first session + 1 (matches SQL SUM(new_sess) OVER)
    seg_of = np.searchsorted(starts, s_starts, side="right") - 1
    first_sess_of_seg = np.searchsorted(s_starts, starts)
    sid = np.arange(s_starts.size) - first_sess_of_seg[seg_of] + 1
    return pa.table({
        "user_id": batch.column("user_id").take(pa.array(s_starts))
        .cast(pa.int64()),
        "session_id": pa.array(sid, pa.int64()),
        "n_events": pa.array(s_ends - s_starts, pa.int64()),
        "session_start_us": pa.array(ts[s_starts], pa.int64()),
        "session_end_us": pa.array(ts[s_ends - 1], pa.int64()),
        "sum_value": pa.array(segment_reduce(val, s_starts, hi),
                              pa.float64()),
    }, schema=_SESS_SCHEMA)


_SESS_EMIT_SCHEMA = _SESS_SCHEMA.append(pa.field("__piece", pa.int64()))


class _SessionCut:
    """Mergeable partials for sessionization (VERDICT r3 item 2: "session
    stitch needs only boundary timestamps"). Each cut piece emits its
    STRICTLY INTERIOR sessions distributed (local ordinals, fixed up by a
    per-piece offset in ``adjust``) and carries only its first/last session
    summaries + counts — o(#blocks) driver state, while session ordinals
    and boundary-session merges stay exact across any number of pieces."""

    partial_schema = pa.schema([
        ("user_id", pa.int64()), ("o_ts", pa.int64()),
        ("o_event", pa.int64()), ("piece", pa.int64()),
        ("k", pa.int64()),
        ("fs_start", pa.int64()), ("fs_end", pa.int64()),
        ("fs_n", pa.int64()), ("fs_sum", pa.float64()),
        ("ls_start", pa.int64()), ("ls_end", pa.int64()),
        ("ls_n", pa.int64()), ("ls_sum", pa.float64())])
    sort_cols = ("user_id", "o_ts", "o_event")
    emit_schema = _SESS_EMIT_SCHEMA

    def partials(self, batch, starts, ends):
        from ..stages.segments import segment_reduce
        ts = _np_i64(batch, "ts")
        ev = _np_i64(batch, "event_id")
        uid = _np_i64(batch, "user_id")
        val = batch.column("value").to_numpy(
            zero_copy_only=False).astype(np.float64)
        prows = {f.name: [] for f in self.partial_schema}
        emits: list[pa.Table] = []
        for s, e in zip(starts, ends):
            tseg = ts[s:e]
            new = np.zeros(tseg.size, dtype=bool)
            new[0] = True
            new[1:] = (tseg[1:] - tseg[:-1]) > SESSION_GAP_US
            s_starts = np.flatnonzero(new) + s
            s_ends = np.append(s_starts[1:], e)
            k = s_starts.size
            n_ev = s_ends - s_starts
            sums = segment_reduce(val[s:e], s_starts - s, int(e - s))
            prows["user_id"].append(int(uid[s]))
            prows["o_ts"].append(int(tseg[0]))
            prows["o_event"].append(int(ev[s]))
            prows["piece"].append(int(ev[s]))  # unique per piece (event_id)
            prows["k"].append(int(k))
            prows["fs_start"].append(int(ts[s_starts[0]]))
            prows["fs_end"].append(int(ts[s_ends[0] - 1]))
            prows["fs_n"].append(int(n_ev[0]))
            prows["fs_sum"].append(float(sums[0]))
            prows["ls_start"].append(int(ts[s_starts[-1]]))
            prows["ls_end"].append(int(ts[s_ends[-1] - 1]))
            prows["ls_n"].append(int(n_ev[-1]))
            prows["ls_sum"].append(float(sums[-1]))
            if k > 2:  # interior sessions: local ordinals 2..k-1
                sl = slice(1, k - 1)
                emits.append(pa.table({
                    "user_id": pa.array(
                        np.full(k - 2, uid[s]), pa.int64()),
                    "session_id": pa.array(
                        np.arange(2, k, dtype=np.int64), pa.int64()),
                    "n_events": pa.array(n_ev[sl], pa.int64()),
                    "session_start_us": pa.array(ts[s_starts[sl]],
                                                 pa.int64()),
                    "session_end_us": pa.array(ts[s_ends[sl] - 1],
                                               pa.int64()),
                    "sum_value": pa.array(sums[sl], pa.float64()),
                    "__piece": pa.array(
                        np.full(k - 2, ev[s]), pa.int64()),
                }, schema=_SESS_EMIT_SCHEMA))
        emit = pa.concat_tables(emits) if emits else None
        return emit, pa.table(prows, schema=self.partial_schema)

    def merge(self, p: pa.Table):
        cols = {f.name: p.column(f.name).to_numpy(zero_copy_only=False)
                for f in self.partial_schema}
        uid = cols["user_id"]
        out = {"user_id": [], "session_id": [], "n_events": [],
               "session_start_us": [], "session_end_us": [], "sum_value": []}
        adjust: dict[int, int] = {}

        def _emit(u, o, st):
            out["user_id"].append(u)
            out["session_id"].append(o)
            out["n_events"].append(st[2])
            out["session_start_us"].append(st[0])
            out["session_end_us"].append(st[1])
            out["sum_value"].append(st[3])

        open_st = None  # [start, end, n, sum]
        open_ord = 0
        next_ord = 1
        prev_uid = None
        for i in range(uid.size):
            u = int(uid[i])
            if u != prev_uid:
                if open_st is not None:
                    _emit(prev_uid, open_ord, open_st)
                open_st, next_ord, prev_uid = None, 1, u
            fs = [int(cols["fs_start"][i]), int(cols["fs_end"][i]),
                  int(cols["fs_n"][i]), float(cols["fs_sum"][i])]
            k = int(cols["k"][i])
            if open_st is not None and fs[0] - open_st[1] <= SESSION_GAP_US:
                open_st = [open_st[0], fs[1], open_st[2] + fs[2],
                           open_st[3] + fs[3]]
                first_ord = open_ord
            else:
                if open_st is not None:
                    _emit(u, open_ord, open_st)
                first_ord = next_ord
                open_st, open_ord = fs, first_ord
            adjust[int(cols["piece"][i])] = first_ord - 1
            if k >= 2:
                _emit(u, open_ord, open_st)  # first session closed in-piece
                open_st = [int(cols["ls_start"][i]), int(cols["ls_end"][i]),
                           int(cols["ls_n"][i]), float(cols["ls_sum"][i])]
                open_ord = first_ord + k - 1
                next_ord = first_ord + k
            else:
                next_ord = first_ord + 1
        if open_st is not None:
            _emit(prev_uid, open_ord, open_st)
        tbl = pa.table({
            "user_id": pa.array(out["user_id"], pa.int64()),
            "session_id": pa.array(out["session_id"], pa.int64()),
            "n_events": pa.array(out["n_events"], pa.int64()),
            "session_start_us": pa.array(out["session_start_us"], pa.int64()),
            "session_end_us": pa.array(out["session_end_us"], pa.int64()),
            "sum_value": pa.array(out["sum_value"], pa.float64()),
        }, schema=_SESS_SCHEMA)
        return tbl, adjust

    def adjust(self, batch: pa.Table, adjust_map: dict) -> pa.Table:
        piece = batch.column("__piece").to_numpy(zero_copy_only=False)
        offs = pd.Series(piece).map(adjust_map).fillna(0).to_numpy(np.int64)
        sid = batch.column("session_id").to_numpy(zero_copy_only=False) + offs
        batch = batch.set_column(
            batch.column_names.index("session_id"), "session_id",
            pa.array(sid, pa.int64()))
        return batch.drop_columns(["__piece"]).select(
            [f.name for f in _SESS_SCHEMA]).cast(_SESS_SCHEMA)


def sessionize_events(sf_dir: str) -> pa.Table:
    """Windowed/session aggregate: split each user's event stream into
    sessions at >30-min inactivity gaps; one row per session — sorted-
    segment path (r2 item 1), whale-key-safe via _SessionCut partials."""
    from ..stages.segments import sorted_segment_map
    ds = _read(sf_dir, "events").select_columns(
        ["user_id", "event_id", "ts", "value"])
    out = _tbl(sorted_segment_map(ds, "user_id", ["ts", "event_id"],
                                  _session_block, _SESS_SCHEMA,
                                  cut_kernel=_SessionCut()))
    out = out.set_column(
        out.column_names.index("sum_value"), "sum_value",
        pa.array(_round(out.column("sum_value").to_numpy(
            zero_copy_only=False)), pa.float64()))
    return out.take(pc.sort_indices(out, sort_keys=[
        ("user_id", "ascending"), ("session_id", "ascending")]))


def rolling_avg_events(sf_dir: str) -> pa.Table:
    """Trailing-5-row rolling mean per user (windowed aggregate custom op)."""
    from ..functions.joins import rolling_window
    ds = _read(sf_dir, "events").select_columns(
        ["user_id", "event_id", "ts", "value"])
    out = _tbl(rolling_window(ds, "user_id", ["ts", "event_id"],
                              "value", window=5))
    df = out.to_pandas()[["user_id", "event_id", "value_rolling_mean"]]
    df["value_rolling_mean"] = _round(df["value_rolling_mean"])
    return pa.Table.from_pandas(
        df.sort_values(["user_id", "event_id"]), preserve_index=False)


_SPLIT_RATIOS = {"train": 0.8, "val": 0.1, "test": 0.1}
_SPLIT_SEED = 2023


def split_documents(sf_dir: str) -> pa.Table:
    """Deterministic key-hash train/val/test split (training-data op):
    split is a pure function of doc_id — shard order, worker count and
    reruns can't move a document across splits."""
    from ..functions.sampling import hash_split
    out = _tbl(hash_split(_read(sf_dir, "documents")
                          .select_columns(["doc_id"]),
                          "doc_id", _SPLIT_RATIOS, seed=_SPLIT_SEED))
    return out.take(pc.sort_indices(out, sort_keys=[("doc_id",
                                                     "ascending")]))


def _split_sql() -> str:
    # HUGEINT (128-bit) product + positive-mod replicates numpy's uint64
    # wrap semantics for EVERY int64 doc_id: (v+seed)*K never overflows
    # 128 bits, and mod 2^32 of the exact product equals mod 2^32 of the
    # mod-2^64-wrapped product (2^32 | 2^64). Plain BIGINT arithmetic
    # would error above doc_id ≈ 3.5e9 and diverge for negative keys.
    from ..functions.sampling import KNUTH, split_edges
    e = split_edges(_SPLIT_RATIOS)
    names = list(_SPLIT_RATIOS)
    case = " ".join(f"WHEN h < {edge} THEN '{name}'"
                    for edge, name in zip(e[:-1], names[:-1]))
    return (f"SELECT doc_id, CASE {case} ELSE '{names[-1]}' END AS split "
            f"FROM (SELECT doc_id, ((((CAST(doc_id AS HUGEINT) + "
            f"{_SPLIT_SEED}) * {int(KNUTH)}) % 4294967296 + 4294967296) "
            f"% 4294967296) AS h FROM documents) ORDER BY doc_id")


def _round_nullable(col: pa.ChunkedArray, digits: int) -> pa.Array:
    vals = col.to_numpy(zero_copy_only=False).astype(np.float64)
    rounded = _round(vals, digits)
    return pa.array(np.where(np.isnan(rounded), None, rounded),
                    pa.float64(), from_pandas=True)


def asof_price_events(sf_dir: str) -> pa.Table:
    """As-of join custom op (J-family beyond the reference): each event
    picks up the most recent order total of the same user. CO-PARTITIONED
    path (r2 item 4): the right side is deduped to one row per (custkey,
    day) by a DISTRIBUTED groupby-max (deterministic as-of pick on both
    engines), then both sides flow through one sort exchange — no driver
    pandas, no broadcast."""
    from ray.data.aggregate import Max
    from ..functions.joins import asof_join_partitioned

    def to_right(b: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": b.column("o_custkey").cast(pa.int64()),
            "ts": b.column("o_orderdate").cast(pa.timestamp("us")),
            "price": b.column("max(o_totalprice)").cast(pa.float64())})

    right = (_read(sf_dir, "orders")
             .select_columns(["o_custkey", "o_orderdate", "o_totalprice"])
             .groupby(["o_custkey", "o_orderdate"])
             .aggregate(Max("o_totalprice"))
             .map_batches(to_right, batch_format="pyarrow"))
    ds = _read(sf_dir, "events").select_columns(["event_id", "user_id", "ts"])
    out = _tbl(asof_join_partitioned(ds, right, by="user_id", on="ts",
                                     value_cols=["price"]))
    res = pa.table({"event_id": out.column("event_id").cast(pa.int64()),
                    "user_id": out.column("user_id").cast(pa.int64()),
                    "price_asof": _round_nullable(out.column("price_asof"),
                                                  2)})
    return res.take(pc.sort_indices(res, sort_keys=[("event_id",
                                                     "ascending")]))


def asof_purchase_events(sf_dir: str) -> pa.Table:
    """Self as-of: every event picks up the same user's most recent
    purchase value — the right side is a FILTERED SLICE OF THE FACT TABLE
    ITSELF (non-broadcastable at scale; r2 item 4's 'as-of against events
    itself'), deduped per (user, ts) by distributed groupby-max."""
    from ray.data.aggregate import Max
    from ..functions.joins import asof_join_partitioned

    def to_right(b: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": b.column("user_id").cast(pa.int64()),
            "ts": b.column("ts"),
            "purchase_value": b.column("max(value)").cast(pa.float64())})

    right = (_read(sf_dir, "events")
             .select_columns(["user_id", "ts", "value", "event_type"])
             .map_batches(
                 lambda b: b.filter(pc.equal(b.column("event_type"),
                                             "purchase"))
                 .drop_columns(["event_type"]), batch_format="pyarrow")
             .groupby(["user_id", "ts"]).aggregate(Max("value"))
             .map_batches(to_right, batch_format="pyarrow"))
    ds = _read(sf_dir, "events").select_columns(["event_id", "user_id", "ts"])
    out = _tbl(asof_join_partitioned(ds, right, by="user_id", on="ts",
                                     value_cols=["purchase_value"]))
    res = pa.table({
        "event_id": out.column("event_id").cast(pa.int64()),
        "user_id": out.column("user_id").cast(pa.int64()),
        "purchase_value_asof": _round_nullable(
            out.column("purchase_value_asof"), _R)})
    return res.take(pc.sort_indices(res, sort_keys=[("event_id",
                                                     "ascending")]))


def referential_orders_customers(sf_dir: str) -> pa.Table:
    """Broadcast anti-join: customer keys via ray.put, pc.is_in probe (J3)."""
    import ray as _ray
    cust = _tbl(_read(sf_dir, "customer").select_columns(["c_custkey"]))
    keys_ref = _ray.put(cust.column("c_custkey").combine_chunks())
    ds = _read(sf_dir, "orders").select_columns(["o_orderkey", "o_custkey"])

    class AntiProbe:
        def __init__(self, ref):
            self.keys = _ray.get(ref) if isinstance(ref, _ray.ObjectRef) else ref

        def __call__(self, batch: pa.Table) -> pa.Table:
            bad = pc.invert(pc.is_in(batch.column("o_custkey"),
                                     value_set=self.keys))
            n = int(pc.sum(bad.cast(pa.int64())).as_py() or 0)
            return pa.table({"n_dangling": pa.array([n], pa.int64())})

    parts = _tbl(ds.map_batches(AntiProbe, fn_constructor_args=(keys_ref,),
                                batch_format="pyarrow", concurrency=(1, 4)))
    total = int(pc.sum(parts.column("n_dangling")).as_py() or 0)
    return pa.table({"n_dangling": pa.array([total], pa.int64())})


_PRICE_TIERS = [("high", 250_000.0, 10_000_000.0),
                ("low", 0.0, 100_000.0),
                ("mid", 50_000.0, 300_000.0)]


def price_tier_orders(sf_dir: str) -> pa.Table:
    """Range (interval) join custom op: each order joins every OVERLAPPING
    price tier containing o_totalprice (1-to-many) — broadcast interval
    table, vectorized containment per batch (functions/joins.py:
    range_join_broadcast; reference gap, SURVEY.md §2.4)."""
    from ..functions.joins import range_join_broadcast
    tiers = pa.table({
        "tier": pa.array([t for t, _, _ in _PRICE_TIERS]),
        "lo": pa.array([lo for _, lo, _ in _PRICE_TIERS], pa.float64()),
        "hi": pa.array([hi for _, _, hi in _PRICE_TIERS], pa.float64())})
    ds = _read(sf_dir, "orders").select_columns(["o_orderkey",
                                                 "o_totalprice"])
    out = _tbl(range_join_broadcast(ds, tiers, "o_totalprice"))
    res = pa.table({"o_orderkey": out.column("o_orderkey").cast(pa.int64()),
                    "tier": out.column("tier").cast(pa.string())})
    return res.take(pc.sort_indices(res, sort_keys=[
        ("o_orderkey", "ascending"), ("tier", "ascending")]))


_BAND_HALF_WIDTH = 200.0


def price_band_orders(sf_dir: str) -> pa.Table:
    """PARTITIONED range join (r3 verdict item 3): the interval side is a
    LARGE table (one ±200 price band per order — 15k intervals at sf0.01,
    non-broadcastable shape at scale), bucketed by value range and
    co-located with the probe side through one sort exchange
    (functions/joins.py:range_join_partitioned)."""
    from ..functions.joins import range_join_partitioned
    orders = _read(sf_dir, "orders").select_columns(
        ["o_orderkey", "o_totalprice"])

    def to_bands(b: pa.Table) -> pa.Table:
        return pa.table({
            "band_id": b.column("o_orderkey").cast(pa.int64()),
            "lo": pc.subtract(b.column("o_totalprice").cast(pa.float64()),
                              _BAND_HALF_WIDTH),
            "hi": pc.add(b.column("o_totalprice").cast(pa.float64()),
                         _BAND_HALF_WIDTH)})

    bands = orders.map_batches(to_bands, batch_format="pyarrow")
    out = _tbl(range_join_partitioned(orders, bands, "o_totalprice"))
    res = pa.table({
        "o_orderkey": out.column("o_orderkey").cast(pa.int64()),
        "band_id": out.column("band_id").cast(pa.int64())})
    return res.take(pc.sort_indices(res, sort_keys=[
        ("o_orderkey", "ascending"), ("band_id", "ascending")]))


_LAG_SCHEMA = pa.schema([("event_id", pa.int64()), ("user_id", pa.int64()),
                         ("value_diff", pa.float64())])


def _lag_block(batch: pa.Table, starts: np.ndarray, ends: np.ndarray
               ) -> pa.Table:
    """value − LAG(value) per user segment (sorted by (user, ts,
    event_id)); null at each segment's first row."""
    lo, hi = int(starts[0]), int(ends[-1])
    val = batch.column("value").to_numpy(zero_copy_only=False).astype(
        np.float64)
    diff = np.full(val.size, np.nan)
    diff[1:] = val[1:] - val[:-1]
    diff[starts] = np.nan
    d = diff[lo:hi]
    return pa.table({
        "event_id": batch.slice(lo, hi - lo).column("event_id")
        .cast(pa.int64()),
        "user_id": batch.slice(lo, hi - lo).column("user_id")
        .cast(pa.int64()),
        "value_diff": pa.array(np.where(np.isnan(d), None, _round(d)),
                               pa.float64(), from_pandas=True),
    }, schema=_LAG_SCHEMA)


class _LagCut:
    """Mergeable partials for LAG (lookback-1 kernel): a cut piece emits
    all its diffs except the first row's, and carries (first/last value);
    the driver fills each piece's first-row diff from the previous piece's
    last value — one out row per piece, o(#blocks) driver state."""

    partial_schema = pa.schema([
        ("user_id", pa.int64()), ("o_ts", pa.int64()),
        ("o_event", pa.int64()), ("first_event", pa.int64()),
        ("first_val", pa.float64()), ("last_val", pa.float64())])
    sort_cols = ("user_id", "o_ts", "o_event")
    emit_schema = None

    def partials(self, batch, starts, ends):
        ts = _np_i64(batch, "ts")
        ev = _np_i64(batch, "event_id")
        uid = _np_i64(batch, "user_id")
        val = batch.column("value").to_numpy(
            zero_copy_only=False).astype(np.float64)
        prows = {f.name: [] for f in self.partial_schema}
        emits: list[pa.Table] = []
        for s, e in zip(starts, ends):
            prows["user_id"].append(int(uid[s]))
            prows["o_ts"].append(int(ts[s]))
            prows["o_event"].append(int(ev[s]))
            prows["first_event"].append(int(ev[s]))
            prows["first_val"].append(float(val[s]))
            prows["last_val"].append(float(val[e - 1]))
            if e - s > 1:
                d = val[s + 1:e] - val[s:e - 1]
                emits.append(pa.table({
                    "event_id": pa.array(ev[s + 1:e], pa.int64()),
                    "user_id": pa.array(uid[s + 1:e], pa.int64()),
                    "value_diff": pa.array(_round(d), pa.float64()),
                }, schema=_LAG_SCHEMA))
        emit = pa.concat_tables(emits) if emits else None
        return emit, pa.table(prows, schema=self.partial_schema)

    def merge(self, p: pa.Table) -> pa.Table:
        uid = p.column("user_id").to_numpy(zero_copy_only=False)
        fval = p.column("first_val").to_numpy(zero_copy_only=False)
        lval = p.column("last_val").to_numpy(zero_copy_only=False)
        change = np.r_[True, uid[1:] != uid[:-1]]
        d = _round(fval - np.r_[np.float64(0), lval[:-1]])
        return pa.table({
            "event_id": p.column("first_event").cast(pa.int64()),
            "user_id": pa.array(uid, pa.int64()),
            "value_diff": pa.array(np.where(change, np.nan, d), pa.float64(),
                                   from_pandas=True),
        }, schema=_LAG_SCHEMA)

    def adjust(self, batch, adjust_map):
        return batch


def lag_diff_events(sf_dir: str) -> pa.Table:
    """LAG window function (value − previous value per user along (ts,
    event_id)) on the sorted-segment path — the O-family window op the
    reference lacks."""
    from ..stages.segments import sorted_segment_map
    ds = _read(sf_dir, "events").select_columns(
        ["event_id", "user_id", "ts", "value"])
    out = _tbl(sorted_segment_map(ds, "user_id", ["ts", "event_id"],
                                  _lag_block, _LAG_SCHEMA,
                                  cut_kernel=_LagCut()))
    return out.take(pc.sort_indices(out, sort_keys=[("event_id",
                                                     "ascending")]))


def drift_events_value(sf_dir: str) -> pa.Table:
    """Drift as a graded query (r2 item 9 → VERDICT next-round item 8):
    PSI + binned-KS of the odd-event_id half of ``events.value`` against
    the even half, through the REAL drift machinery (``DriftBinner`` actor
    stage + ``drift_from_counts``) with fixed global-min/max 10-bin edges —
    SQL-expressible because bins, ε-clipping and normalization are all
    closed-form (see the matching oracle)."""
    import pickle
    from ray.data.aggregate import Max, Min
    from ..stages.drift import DriftBinner, drift_from_counts
    ds_all = _read(sf_dir, "events").select_columns(["event_id", "value"])
    mm = ds_all.aggregate(Min("value"), Max("value"))
    lo, hi = float(mm["min(value)"]), float(mm["max(value)"])
    edges = np.linspace(lo, hi, 11)
    # uniform=(lo, hi, 10): DriftBinner bins with the SAME floor((v-lo)/w)
    # arithmetic as the SQL oracle (ADVICE r3 — np.histogram's linspace
    # edges round differently in FP, so exact-edge values could flip bins)
    spec = {"value": {"kind": "numeric", "edges": edges,
                      "uniform": (lo, hi, 10),
                      "base_counts": np.zeros(10), "is_datetime": False}}

    def binned_half(parity: int) -> np.ndarray:
        def keep(b: pa.Table) -> pa.Table:
            mask = pc.equal(pc.bit_wise_and(b.column("event_id"), 1), parity)
            return b.filter(mask).select(["value"])

        binned = ds_all.map_batches(keep, batch_format="pyarrow").map_batches(
            DriftBinner, fn_constructor_args=(spec,),
            batch_format="pyarrow", concurrency=(1, 4))
        tot = np.zeros(12)
        for b in binned.iter_batches(batch_format="pyarrow"):
            for blob in b.column("state").to_pylist():
                st = pickle.loads(blob)
                if "value" in st:
                    tot += st["value"]
        return tot

    base, cur = binned_half(0), binned_half(1)
    full_spec = {"value": {"kind": "numeric", "edges": edges,
                           "base_counts": base[1:-1],
                           "is_datetime": False}}
    rep = drift_from_counts(full_spec, {"value": cur})
    c = rep["columns"]["value"]
    return pa.table({
        "psi": pa.array([float(_round(c["psi"]))]),
        "ks": pa.array([float(_round(c["ks"]))]),
        "n_base": pa.array([int(c["n_baseline"])], pa.int64()),
        "n_cur": pa.array([int(c["n_current"])], pa.int64()),
    })


# ---------------------------------------------------------------------------
# Dedup family


def exact_dedup_documents(sf_dir: str) -> pa.Table:
    out = _tbl(exact_dedup(_read(sf_dir, "documents")
                           .select_columns(["doc_id", "text"]),
                           ["text"], "doc_id"))
    ids = np.sort(out.column("doc_id").to_numpy(zero_copy_only=False))
    return pa.table({"doc_id": pa.array(ids, pa.int64())})


def minhash_dedup_documents(sf_dir: str) -> pa.Table:
    surv = _tbl(minhash_dedup(_read(sf_dir, "documents"), threshold=0.7))
    return surv.take(pc.sort_indices(surv, sort_keys=[("doc_id",
                                                       "ascending")]))


def jaccard_dup_pairs_documents(sf_dir: str) -> pa.Table:
    """EXACT word-3-shingle Jaccard pairs ≥ 0.7 (the measure MinHash LSH
    approximates) via the distributed shingle inverted index — oracled
    against a DuckDB string self-join."""
    from ..functions.dedup import jaccard_dup_pairs
    out = jaccard_dup_pairs(_read(sf_dir, "documents"), threshold=0.7, k=3)
    return pa.table({
        "a": out.column("a"), "b": out.column("b"),
        "jaccard": pa.array(_round(out.column("jaccard").to_numpy(
            zero_copy_only=False)), pa.float64())})


def dup_clusters_documents(sf_dir: str) -> pa.Table:
    """Near-dup CLUSTERING (training-data op): connected components over
    the exact Jaccard ≥ 0.7 pair graph; component rep = min doc_id.

    Scale shape: candidate pairs come from the distributed shingle index
    (or MinHash LSH at corpus scale); the component pass is a driver
    union-find over O(#pairs) — pairs ≪ docs by construction. At 100 TB
    the same reps emerge from iterative min-label propagation
    (hash-join min(rep) to fixpoint, O(log diameter) rounds); dup-pair
    graphs are near-diameter-1, so the driver pass is the honest default.
    Oracled against a DuckDB recursive-CTE transitive closure."""
    from ..functions.dedup import jaccard_dup_pairs
    pairs = jaccard_dup_pairs(_read(sf_dir, "documents"), threshold=0.7, k=3)
    a = pairs.column("a").to_pylist()
    b = pairs.column("b").to_pylist()
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in zip(a, b):
        parent.setdefault(x, x)
        parent.setdefault(y, y)
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)  # min doc_id stays root
    rows = sorted((d, find(d)) for d in parent)
    return pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "cluster_rep": pa.array([r[1] for r in rows], pa.int64())})


def clean_corpus_documents(sf_dir: str) -> pa.Table:
    """Composed corpus-cleaning pipeline (the canonical training-data
    preprocessing chain): quality filter (score ≥ 0.45, unrounded compare)
    → language filter (source lang = 'en') → exact dedup keep-min. The two
    row-local filters fuse into ONE stateless map_batches pass (no
    materialization between stages); dedup is the distributed sort path."""
    from ..functions.dedup import exact_dedup
    ds = _read(sf_dir, "documents").select_columns(
        ["doc_id", "text", "lang"])

    def filt(b: pa.Table) -> pa.Table:
        scored = quality_score_batch(b)
        q = scored.column("quality_score").to_numpy(zero_copy_only=False)
        is_en = pc.equal(b.column("lang"), "en").to_numpy(
            zero_copy_only=False)
        return b.filter(pa.array((q >= 0.45) & is_en)).select(
            ["doc_id", "text"])

    kept = ds.map_batches(filt, batch_format="pyarrow")
    out = _tbl(exact_dedup(kept, ["text"], "doc_id"))
    ids = np.sort(out.column("doc_id").to_numpy(zero_copy_only=False))
    return pa.table({"doc_id": pa.array(ids, pa.int64())})


_STRAT_FRACS = {"en": 0.5, "de": 0.25, "fr": 0.2}
_STRAT_DEFAULT = 0.1


def stratified_sample_documents(sf_dir: str) -> pa.Table:
    """Deterministic per-language stratified sample (training-data op):
    keep 50 % of en / 25 % of de / 20 % of fr / 10 % of the rest, keyed on
    doc_id — stateless map_batches, no shuffle, rerun-stable."""
    from ..functions.sampling import stratified_sample
    out = _tbl(stratified_sample(
        _read(sf_dir, "documents").select_columns(["doc_id", "lang"]),
        "doc_id", "lang", _STRAT_FRACS, seed=_SPLIT_SEED,
        default_frac=_STRAT_DEFAULT))
    res = pa.table({"doc_id": out.column("doc_id").cast(pa.int64()),
                    "lang": out.column("lang").cast(pa.string())})
    return res.take(pc.sort_indices(res, sort_keys=[("doc_id",
                                                     "ascending")]))


def term_topk_documents(sf_dir: str) -> pa.Table:
    """Corpus-wide top-25 terms (the D2/A18 term-frequency family as an
    exact distributed query): per-block ``value_counts`` combiner →
    groupby(term) sum → distributed sort (n desc, term asc) → limit."""
    from ray.data.aggregate import Sum

    from ..functions.text import _token_lists
    ds = _read(sf_dir, "documents").select_columns(["text"])

    def partial(b: pa.Table) -> pa.Table:
        flat, _ = _token_lists(b.column("text"))
        vc = flat.value_counts()
        return pa.table({
            "term": vc.field("values").cast(pa.string()),
            "n_part": vc.field("counts").cast(pa.int64())})

    agg = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby("term").aggregate(Sum("n_part"))
           .sort(["sum(n_part)", "term"], descending=[True, False])
           .limit(25))
    t = _tbl(agg)
    return pa.table({"term": t.column("term").cast(pa.string()),
                     "n": t.column("sum(n_part)").cast(pa.int64())})


def simhash_candidates_documents(sf_dir: str) -> pa.Table:
    tbl = _tbl(simhash_candidates(_read(sf_dir, "documents")))
    if tbl.num_rows == 0:
        return tbl
    df = tbl.to_pandas().drop_duplicates(["id_a", "id_b"]).sort_values(
        ["id_a", "id_b"])
    return pa.Table.from_pandas(df, preserve_index=False)


def embedding_dup_pairs_query(sf_dir: str) -> pa.Table:
    """Exact all-pairs cosine ≥ 0.45 (the driver embeddings fixture has no
    planted near-dups — max pairwise cosine ≈ 0.51 — so the near-dup
    threshold is set where the data has mass; SQL-checkable vs a DuckDB
    self-join)."""
    out = embedding_all_pairs_exact(_read(sf_dir, "embeddings"),
                                    threshold=0.45)
    return out.set_column(out.column_names.index("cosine"), "cosine",
                          pa.array(_round(out.column("cosine").to_numpy(
                              zero_copy_only=False), 4), pa.float64()))


def embedding_dup_pairs_lsh(sf_dir: str) -> pa.Table:
    """Hyperplane-LSH approximate variant of the same all-pairs query
    (8 tables × 8 bits; rows-only — recall < 1 is inherent to LSH)."""
    tbl = _tbl(embedding_dup_pairs(_read(sf_dir, "embeddings"),
                                   threshold=0.45, n_bits=8, n_tables=8))
    if tbl.num_rows == 0:
        return tbl
    df = tbl.to_pandas().sort_values(["id_a", "id_b"])
    df["cosine"] = _round(df["cosine"], 4)
    return pa.Table.from_pandas(df, preserve_index=False)


# ---------------------------------------------------------------------------
# Similarity search


def _query_vec(sf_dir: str) -> np.ndarray:
    import pyarrow.parquet as pq
    t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      filters=[("vec_id", "=", 0)])
    return np.asarray(t.column("embedding").to_pylist()[0], dtype=np.float64)


def knn_embeddings(sf_dir: str) -> pa.Table:
    q = _query_vec(sf_dir)
    out = knn_brute_force(_read(sf_dir, "embeddings"), q, k=10)
    df = out.to_pandas()[["vec_id", "cosine"]]
    df["cosine"] = _round(df["cosine"], 4)
    return pa.Table.from_pandas(df, preserve_index=False)


def knn_embeddings_ivf(sf_dir: str) -> pa.Table:
    q = _query_vec(sf_dir)
    return knn_ivf(_read(sf_dir, "embeddings"), q, k=10,
                   n_clusters=16, n_probe=8)


def knn_embeddings_ivf_exhaustive(sf_dir: str) -> pa.Table:
    """IVF with n_probe == n_clusters probes EVERY inverted list, so by the
    exhaustive-probe identity the result must equal brute force — which
    gives the otherwise non-SQL IVF machinery (k-means assignment, probe
    pruning, per-list exact scoring) a DuckDB oracle (VERDICT r4 item 6);
    the pruned-probe variant above stays rows-only + recall-tested."""
    q = _query_vec(sf_dir)
    out = knn_ivf(_read(sf_dir, "embeddings"), q, k=10,
                  n_clusters=16, n_probe=16)
    df = out.to_pandas()[["vec_id", "cosine"]]
    df["cosine"] = _round(df["cosine"], 4)
    return pa.Table.from_pandas(df, preserve_index=False)


# ---------------------------------------------------------------------------
# Geometry profiling (reference family: variables/geometry.py:89-140)


def geometry_profile_events(sf_dir: str) -> pa.Table:
    """Geometry e2e over a DERIVED WKT column (no external data): events
    rows become POINT / POLYGON WKT strings deterministically (integer
    coordinates), the real WKT parser (``functions/geometry.py``) recovers
    per-geometry bbox / shoelace area / perimeter / centroid, and a
    distributed ``groupby(geom_type)`` aggregates. The oracle replicates
    the arithmetic in plain SQL (no spatial extension), so any parser or
    formula error surfaces as a value mismatch (VERDICT r4 item 5)."""
    from ray.data.aggregate import Count, Max, Mean, Min, Sum

    from ..functions.geometry import wkt_stats_batch

    def to_wkt(b: pa.Table) -> pa.Table:
        eid = b.column("event_id").to_numpy(zero_copy_only=False)
        uid = b.column("user_id").to_numpy(zero_copy_only=False)
        x, y = uid, eid % 97
        w, h = 1 + eid % 5, 1 + eid % 7
        xs, ys = x.astype("U12"), y.astype("U12")
        x2s, y2s = (x + w).astype("U12"), (y + h).astype("U12")
        pt = np.char.add(np.char.add(np.char.add("POINT (", xs), " "),
                         np.char.add(ys, ")"))
        xy = np.char.add(np.char.add(xs, " "), ys)
        x2y = np.char.add(np.char.add(x2s, " "), ys)
        x2y2 = np.char.add(np.char.add(x2s, " "), y2s)
        xy2 = np.char.add(np.char.add(xs, " "), y2s)
        poly = np.char.add("POLYGON ((", xy)
        for piece in (x2y, x2y2, xy2, xy):
            poly = np.char.add(np.char.add(poly, ", "), piece)
        poly = np.char.add(poly, "))")
        return pa.table({"wkt": pa.array(
            np.where(eid % 2 == 0, pt, poly))})

    stats = (_read(sf_dir, "events").select_columns(["event_id", "user_id"])
             .map_batches(to_wkt, batch_format="pyarrow")
             .map_batches(lambda b: wkt_stats_batch(b, "wkt"),
                          batch_format="pyarrow"))
    agg = _tbl(stats.groupby("geom_type").aggregate(
        Count(), Min("xmin"), Min("ymin"), Max("xmax"), Max("ymax"),
        Sum("area"), Sum("length"), Mean("cx"), Mean("cy")))
    df = agg.to_pandas().rename(columns={
        "count()": "n", "min(xmin)": "xmin", "min(ymin)": "ymin",
        "max(xmax)": "xmax", "max(ymax)": "ymax", "sum(area)": "sum_area",
        "sum(length)": "sum_length", "mean(cx)": "avg_cx",
        "mean(cy)": "avg_cy"})
    for c in ("sum_area", "sum_length", "avg_cx", "avg_cy"):
        df[c] = _round(df[c], 4)
    return pa.Table.from_pandas(df.sort_values("geom_type"),
                                preserve_index=False)


# ---------------------------------------------------------------------------
# Text analysis


def token_counts_documents(sf_dir: str) -> pa.Table:
    out = _tbl(_read(sf_dir, "documents").select_columns(["doc_id", "text"])
               .map_batches(token_count_batch, batch_format="pyarrow"))
    return out.select(["doc_id", "n_tokens", "n_bpe_tokens"]).sort_by("doc_id")


def char_counts_documents(sf_dir: str) -> pa.Table:
    ds = _read(sf_dir, "documents").select_columns(["doc_id", "text"])

    def counts(batch: pa.Table) -> pa.Table:
        text = batch.column("text")
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "n_chars_text": pc.utf8_length(text).cast(pa.int64()),
            "n_digits": pc.count_substring_regex(text, r"[0-9]").cast(pa.int64()),
            "n_punct": pc.count_substring_regex(text, r"[^\w\s]").cast(pa.int64()),
        })
    return _tbl(ds.map_batches(counts, batch_format="pyarrow")).sort_by("doc_id")


def fingerprint_documents(sf_dir: str) -> pa.Table:
    out = _tbl(_read(sf_dir, "documents").select_columns(["doc_id", "text"])
               .map_batches(fingerprint_batch, batch_format="pyarrow"))
    return out.select(["doc_id", "fingerprint_md5"]).sort_by("doc_id")


def language_id_documents(sf_dir: str) -> pa.Table:
    out = _tbl(_read(sf_dir, "documents").select_columns(["doc_id", "text"])
               .map_batches(language_id_batch, batch_format="pyarrow"))
    return out.select(["doc_id", "lang_pred"]).sort_by("doc_id")


def language_id_trigram_documents(sf_dir: str) -> pa.Table:
    """Char-trigram language ID (Cavnar–Trenkle rank-order, r3 item 5):
    actor-pool stage with profiles built once per actor. Rank-based scoring
    is not SQL-expressible → rows-only; accuracy vs the stopword path is
    covered by the short-sentence pytest."""
    from ..functions.langid_trigram import TrigramLangID
    ds = _read(sf_dir, "documents").select_columns(["doc_id", "text"])
    out = _tbl(ds.map_batches(TrigramLangID, batch_format="pyarrow",
                              concurrency=(1, 4)))
    res = pa.table({"doc_id": out.column("doc_id").cast(pa.int64()),
                    "lang_pred": out.column("lang_pred")})
    return res.take(pc.sort_indices(res, sort_keys=[("doc_id",
                                                     "ascending")]))


def quality_scores_documents(sf_dir: str) -> pa.Table:
    out = _tbl(_read(sf_dir, "documents").select_columns(["doc_id", "text"])
               .map_batches(quality_score_batch, batch_format="pyarrow"))
    out = out.select(["doc_id", "quality_score", "stopword_ratio",
                      "repetition_ratio"]).sort_by("doc_id")
    for c in ("quality_score", "stopword_ratio", "repetition_ratio"):
        out = out.set_column(
            out.column_names.index(c), c,
            pa.array(_round(out.column(c).to_numpy(zero_copy_only=False)),
                     pa.float64()))
    return out


# ---------------------------------------------------------------------------
# Transcript validation flagship (rows-only; exercised against the synthetic
# transcript fixture regardless of sf_dir)


# the flagship fixture: deterministic synthetic transcripts with every
# violation kind injected at a known seeded rate (synthetic.py F1)
_TV_N_TURNS = 20000
_TV_SEED = 42
_TV_KNOBS = dict(dup_frac=0.01, gap_frac=0.005, bad_role_frac=0.01,
                 ts_regression_frac=0.005, dangling_tool_frac=0.2)


def _tv_fixture() -> str:
    from ..synthetic import transcripts_path
    return transcripts_path(_TV_N_TURNS, seed=_TV_SEED, **_TV_KNOBS)


def _run_tv_validation(out: str) -> dict:
    from ..config import ConstraintConfig, ValidationConfig
    from ..pipelines.validate import run_validation
    from ..synthetic import TOOL_REGISTRY
    cfg = ValidationConfig(
        constraints=ConstraintConfig(tool_registry=TOOL_REGISTRY),
        output_dir=out)
    return run_validation(_tv_fixture(), cfg)


def transcript_validation(sf_dir: str) -> pa.Table:
    import shutil
    import tempfile
    out = tempfile.mkdtemp(prefix="dpr_q_")
    try:
        s = _run_tv_validation(out)
        rows = [{
            "parts_total": s["parts_total"],
            "total_rows": s["total_rows"],
            "n_conversations": s["n_conversations"],
            "n_failed_conversations": s["n_failed_conversations"],
            "n_violations": s["n_violations"],
            "passed": s["passed"],
        }]
        return pa.Table.from_pylist(rows)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def transcript_profile_stats(sf_dir: str) -> pa.Table:
    """North-rule profile pass over the SAME violation-injected transcript
    fixture the flagship validates: per-column (cnt, n_missing, n_distinct)
    from the distributed accumulator pipeline, DuckDB-oracled. All fixture
    cardinalities sit below the exact-counter caps, so n_distinct is exact
    (long text values go through the injective prefix+hash compression)."""
    import ray.data
    from ..config import ProfileConfig
    from ..stages.profile import profile_dataset
    tdir = _tv_fixture()
    prof = profile_dataset(ray.data.read_parquet(tdir), ProfileConfig())
    rows = [{"column_name": v["name"], "cnt": int(v["count"]),
             "n_missing": int(v["num_missing"]),
             "n_distinct": int(v.get("n_distinct", 0))}
            for v in prof["variables"]]
    rows.sort(key=lambda r: r["column_name"])
    return pa.Table.from_pylist(rows)


def _transcript_profile_sql() -> str:
    from ..synthetic import transcripts_dir
    tdir = transcripts_dir(_TV_N_TURNS, seed=_TV_SEED, **_TV_KNOBS)
    cols = ["conv_id", "role", "text", "tool", "ts", "turn_idx"]
    return " UNION ALL ".join(
        f"SELECT '{c}' AS column_name, COUNT({c}) AS cnt, "
        f"COUNT(*) - COUNT({c}) AS n_missing, "
        f"COUNT(DISTINCT {c}) AS n_distinct "
        f"FROM read_parquet('{tdir}/part-*.parquet')"
        for c in cols) + " ORDER BY column_name"


def transcript_violation_counts(sf_dir: str) -> pa.Table:
    """Flagship ORACLED (r3 verdict item 1): run the full validation
    pipeline (profile + constraints + worker-side verdict/violation writes +
    checkpoints) over the synthetic violation-injected transcript fixture,
    then roll the per-conversation verdict table up to exact per-kind
    violation totals — every count SQL-expressible over the same fixture
    parquet (dup keys = GROUP BY HAVING, gaps = distinct-vs-range set diff,
    regressions = LAG, roles/tools = domain anti-membership)."""
    import glob as _glob
    import os as _os
    import shutil
    import tempfile
    out = tempfile.mkdtemp(prefix="dpr_q_")
    try:
        _run_tv_validation(out)
        files = sorted(_glob.glob(
            _os.path.join(out, "parts", "*", "verdicts", "*.parquet")))
        import pyarrow.parquet as _pq
        v = pa.concat_tables([_pq.read_table(f) for f in files])
        def _s(col):
            return int(pc.sum(v.column(col)).as_py() or 0)
        return pa.table({
            "n_conversations": pa.array([v.num_rows], pa.int64()),
            "n_turns": pa.array([_s("n_turns")], pa.int64()),
            "n_failed_conversations": pa.array(
                [int(pc.sum(pc.cast(pc.invert(v.column("passed")),
                                    pa.int64())).as_py() or 0)], pa.int64()),
            "n_duplicate_key": pa.array([_s("n_duplicate_key")], pa.int64()),
            "n_turn_gap": pa.array([_s("n_turn_gap")], pa.int64()),
            "n_ts_regression": pa.array([_s("n_ts_regression")], pa.int64()),
            "n_bad_role": pa.array([_s("n_bad_role")], pa.int64()),
            "n_dangling_tool": pa.array([_s("n_dangling_tool")], pa.int64()),
        })
    finally:
        shutil.rmtree(out, ignore_errors=True)


# ---------------------------------------------------------------------------
# RDF graph metrics over DERIVED triples (r5, SURVEY A20/D3): the TPC-H
# customer→nation→region hierarchy becomes a deterministic edge list —
# cust:<key> rdf:type ex:Customer / ex:locatedIn nation:<key>;
# nation:<key> rdf:type ex:Nation / ex:partOf region:<key>; region:<key>
# rdf:type ex:Region — so plain-SQL DuckDB oracles hash-match the
# Dataset-groupby graph metrics (no spatial/graph extension needed).
# Reference analogue: rdfGraph/profiler.py:79-98 (class distribution) and
# :168-247 (degree distributions via networkx).


def _tpch_triples(sf_dir: str) -> "ray.data.Dataset":
    def cust(b: pa.Table) -> pa.Table:
        ck = b.column("c_custkey").cast(pa.string())
        nk = b.column("c_nationkey").cast(pa.string())
        s = pc.binary_join_element_wise(
            pa.array(["cust:"] * b.num_rows), ck, "")
        nat = pc.binary_join_element_wise(
            pa.array(["nation:"] * b.num_rows), nk, "")
        return pa.table({
            "subject": pa.concat_arrays([s.combine_chunks()] * 2),
            "predicate": pa.array(["rdf:type"] * b.num_rows
                                  + ["ex:locatedIn"] * b.num_rows),
            "object": pa.concat_arrays(
                [pa.array(["ex:Customer"] * b.num_rows),
                 nat.combine_chunks()]),
            "object_is_iri": pa.array([True] * (2 * b.num_rows)),
        })

    def nation(b: pa.Table) -> pa.Table:
        nk = b.column("n_nationkey").cast(pa.string())
        rk = b.column("n_regionkey").cast(pa.string())
        s = pc.binary_join_element_wise(
            pa.array(["nation:"] * b.num_rows), nk, "")
        reg = pc.binary_join_element_wise(
            pa.array(["region:"] * b.num_rows), rk, "")
        return pa.table({
            "subject": pa.concat_arrays([s.combine_chunks()] * 2),
            "predicate": pa.array(["rdf:type"] * b.num_rows
                                  + ["ex:partOf"] * b.num_rows),
            "object": pa.concat_arrays(
                [pa.array(["ex:Nation"] * b.num_rows),
                 reg.combine_chunks()]),
            "object_is_iri": pa.array([True] * (2 * b.num_rows)),
        })

    def region(b: pa.Table) -> pa.Table:
        rk = b.column("r_regionkey").cast(pa.string())
        s = pc.binary_join_element_wise(
            pa.array(["region:"] * b.num_rows), rk, "")
        return pa.table({
            "subject": s,
            "predicate": pa.array(["rdf:type"] * b.num_rows),
            "object": pa.array(["ex:Region"] * b.num_rows),
            "object_is_iri": pa.array([True] * b.num_rows),
        })

    return (_read(sf_dir, "customer")
            .select_columns(["c_custkey", "c_nationkey"])
            .map_batches(cust, batch_format="pyarrow")
            .union(_read(sf_dir, "nation")
                   .select_columns(["n_nationkey", "n_regionkey"])
                   .map_batches(nation, batch_format="pyarrow"))
            .union(_read(sf_dir, "region").select_columns(["r_regionkey"])
                   .map_batches(region, batch_format="pyarrow")))


def rdf_class_distribution_tpch(sf_dir: str) -> pa.Table:
    """A20 class distribution: filter rdf:type → distributed
    groupby(object) count → sort desc (ties by name)."""
    ds = _tpch_triples(sf_dir)
    counts = (ds.map_batches(
        lambda b: b.filter(pc.equal(b.column("predicate"), "rdf:type")),
        batch_format="pyarrow")
        .groupby("object").count()
        .to_pandas())
    counts = counts.rename(columns={"object": "class_name",
                                    "count()": "count"})
    counts = counts.sort_values(["count", "class_name"],
                                ascending=[False, True], kind="stable")
    return pa.Table.from_pandas(counts.reset_index(drop=True),
                                preserve_index=False)


def rdf_node_degrees_tpch(sf_dir: str) -> pa.Table:
    """A20 degree metrics: per-node out/in/total degree over the derived
    triples via distributed groupby counts; zero-degree sides are
    explicit (MultiDiGraph semantics). The driver only ever touches the
    REDUCED per-node counts (O(#nodes)), never the edge list."""
    ds = _tpch_triples(sf_dir)
    out_c = ds.groupby("subject").count().to_pandas()
    in_c = ds.groupby("object").count().to_pandas()
    out_map = dict(zip(out_c["subject"], out_c["count()"]))
    in_map = dict(zip(in_c["object"], in_c["count()"]))
    nodes = sorted(set(out_map) | set(in_map))
    out_deg = [int(out_map.get(v, 0)) for v in nodes]
    in_deg = [int(in_map.get(v, 0)) for v in nodes]
    return pa.table({
        "node": pa.array(nodes, pa.string()),
        "out_degree": pa.array(out_deg, pa.int64()),
        "in_degree": pa.array(in_deg, pa.int64()),
        "degree": pa.array([a + b for a, b in zip(out_deg, in_deg)],
                           pa.int64()),
    })


def raster_band_stats_vista(sf_dir: str) -> pa.Table:
    """VISTA raster profile e2e (r5, SURVEY S8/A19/A22): a deterministic
    synthetic .rhd/.ras pair (seeded; binary payloads — inherently
    non-SQL, so rows-only) becomes a one-row-per-image Dataset, and the
    distributed per-image partials merge into per-image LAI band stats.
    Returned as one row per image for the rows-only check; exactness vs
    pandas-describe is pinned by tests/test_raster.py."""
    from ..functions.raster import build_vista
    from .raster import profile_raster_dataset, vista_to_table

    rhd, ras = build_vista(n_images=6, rows=48, cols=64, seed=2023)
    ds = ray.data.from_arrow(vista_to_table(rhd, ras, name="vista"))
    prof = profile_raster_dataset(ds)
    rows = []
    for v in prof["variables"]:
        band = v["bands"][0]
        rows.append({
            "name": v["name"], "date": v["date"],
            "count": band["count"],
            "average": _round(band["average"]),
            "variance": _round(band["variance"]),
            "vmin": _round(band["min"]), "vmax": _round(band["max"]),
            "lai_pct": _round(band["no_data_distribution"][0]["percentage"]),
        })
    import pandas as pd
    return pa.Table.from_pandas(pd.DataFrame(rows), preserve_index=False)


# ---------------------------------------------------------------------------


QUERIES = {
    "profile_lineitem_stats": profile_lineitem_stats,
    "events_value_stats": events_value_stats,
    "quantiles_quantity": quantiles_quantity,
    "datetime_range_orders": datetime_range_orders,
    "table_stats": table_stats,
    "histogram_quantity": histogram_quantity,
    "value_counts_returnflag": value_counts_returnflag,
    "topk_part_brand": topk_part_brand,
    "pricing_summary": pricing_summary,
    "orders_by_status": orders_by_status,
    "events_per_type": events_per_type,
    "hourly_events": hourly_events,
    "lang_distribution_documents": lang_distribution_documents,
    "dup_keys_events": dup_keys_events,
    "uniqueness_orders": uniqueness_orders,
    "distinct_counts_lineitem": distinct_counts_lineitem,
    "revenue_by_segment": revenue_by_segment,
    "ts_monotonicity_events": ts_monotonicity_events,
    "user_event_gaps": user_event_gaps,
    "sessionize_events": sessionize_events,
    "rolling_avg_events": rolling_avg_events,
    "asof_price_events": asof_price_events,
    "asof_purchase_events": asof_purchase_events,
    "price_tier_orders": price_tier_orders,
    "price_band_orders": price_band_orders,
    "lag_diff_events": lag_diff_events,
    "split_documents": split_documents,
    "referential_orders_customers": referential_orders_customers,
    "drift_events_value": drift_events_value,
    "exact_dedup_documents": exact_dedup_documents,
    "minhash_dedup_documents": minhash_dedup_documents,
    "jaccard_dup_pairs_documents": jaccard_dup_pairs_documents,
    "dup_clusters_documents": dup_clusters_documents,
    "stratified_sample_documents": stratified_sample_documents,
    "clean_corpus_documents": clean_corpus_documents,
    "term_topk_documents": term_topk_documents,
    "simhash_candidates_documents": simhash_candidates_documents,
    "embedding_dup_pairs": embedding_dup_pairs_query,
    "embedding_dup_pairs_lsh": embedding_dup_pairs_lsh,
    "knn_embeddings": knn_embeddings,
    "knn_embeddings_ivf": knn_embeddings_ivf,
    "knn_embeddings_ivf_exhaustive": knn_embeddings_ivf_exhaustive,
    "geometry_profile_events": geometry_profile_events,
    "rdf_class_distribution_tpch": rdf_class_distribution_tpch,
    "rdf_node_degrees_tpch": rdf_node_degrees_tpch,
    "raster_band_stats_vista": raster_band_stats_vista,
    "token_counts_documents": token_counts_documents,
    "char_counts_documents": char_counts_documents,
    "fingerprint_documents": fingerprint_documents,
    "language_id_documents": language_id_documents,
    "language_id_trigram_documents": language_id_trigram_documents,
    "quality_scores_documents": quality_scores_documents,
    "transcript_validation": transcript_validation,
    "transcript_violation_counts": transcript_violation_counts,
    "transcript_profile_stats": transcript_profile_stats,
}


# stopword IN-lists generated from the ONE source of truth so the SQL
# oracle can never drift from the engine's heuristic word sets
from ..functions.text import _LANG_STOPWORDS as _SW


def _sw_sql(lang: str) -> str:
    return "(" + ", ".join(f"'{w}'" for w in sorted(_SW[lang])) + ")"


_SW_EN_SQL = _sw_sql("en")


def _langid_sql() -> str:
    """Generated n-language argmax oracle: per-language stopword hit counts,
    argmax with first-in-dict-order tie-break (matches numpy argmax), 'und'
    below the 0.05 best-hit-rate threshold. Generated from _LANG_STOPWORDS
    so adding a language updates engine and oracle together."""
    langs = list(_SW)
    hits = ", ".join(
        f"SUM(CASE WHEN tok IN {_sw_sql(lg)} THEN 1 ELSE 0 END) AS h_{lg}"
        for lg in langs)
    greatest = "GREATEST(" + ", ".join(f"h_{lg}" for lg in langs) + ")"
    case = []
    for i, lg in enumerate(langs[:-1]):
        conds = " AND ".join(f"h_{lg} >= h_{m}" for m in langs[i + 1:])
        case.append(f"WHEN {conds} THEN '{lg}'")
    return (
        "WITH tok AS (SELECT doc_id, unnest(string_split_regex(lower(text), "
        "'\\s+')) AS tok FROM documents), "
        f"s AS (SELECT doc_id, COUNT(*) AS n_toks, {hits} "
        "FROM tok GROUP BY doc_id) "
        "SELECT doc_id, CASE "
        f"WHEN {greatest} * 1.0 / n_toks < 0.05 THEN 'und' "
        + " ".join(case) + f" ELSE '{langs[-1]}' END AS lang_pred "
        "FROM s ORDER BY doc_id")


# shared quality-score CTEs + unrounded score expression (per-token CTE
# mirrors the engine's whitespace tokenization exactly, INCLUDING empty
# tokens from leading/trailing whitespace — see quality_scores notes)
_QUALITY_CTES = (
    "tok AS (SELECT doc_id, unnest(string_split_regex(lower(text), "
    "'\\s+')) AS tok FROM documents), "
    "rep AS (SELECT doc_id, MAX(c) AS max_tok FROM (SELECT doc_id, tok, "
    "COUNT(*) AS c FROM tok GROUP BY doc_id, tok) GROUP BY doc_id), "
    "hits AS (SELECT doc_id, SUM(CASE WHEN tok IN " + _SW_EN_SQL + " "
    "THEN 1 ELSE 0 END) AS h_en FROM tok GROUP BY doc_id), "
    "base AS (SELECT doc_id, length(text) AS n_chars, "
    "len(regexp_extract_all(text, '\\S+')) AS n_words, "
    "len(regexp_extract_all(text, '[0-9]')) AS n_digit FROM documents)")

_QUALITY_EXPR = (
    "0.2 * LEAST(b.n_chars / 200.0, 1) "
    "+ 0.2 * LEAST(b.n_words / 50.0, 1) "
    "+ 0.2 * (1 - LEAST(b.n_digit * 4.0 / GREATEST(b.n_chars, 1), 1)) "
    "+ 0.2 * LEAST((CASE WHEN b.n_words > 0 THEN h.h_en ELSE 0 END) "
    "* 4.0 / GREATEST(b.n_words, 1), 1) "
    "+ 0.2 * (1 - LEAST(GREATEST((r.max_tok * 1.0 "
    "/ GREATEST(b.n_words, 1) - 0.2) * 2, 0), 1))")


# shared word-3-shingle Jaccard CTEs (pair query + cluster closure oracle)
_JACCARD_CTES = (
    "tok AS (SELECT doc_id, string_split_regex(lower(text), "
    "'\\s+') AS t FROM documents), "
    "sh AS (SELECT DISTINCT doc_id, unnest([t[i] || chr(31) || t[i+1] "
    "|| chr(31) || t[i+2] for i in generate_series(1, len(t) - 2)]) "
    "AS shingle FROM tok), "
    "sz AS (SELECT doc_id, COUNT(*) AS n FROM sh GROUP BY doc_id), "
    "inter AS (SELECT x.doc_id AS a, y.doc_id AS b, COUNT(*) AS c "
    "FROM sh x JOIN sh y ON x.shingle = y.shingle "
    "AND x.doc_id < y.doc_id GROUP BY 1, 2), "
    "j AS (SELECT i.a, i.b, i.c * 1.0 / (sa.n + sb.n - i.c) AS jac "
    "FROM inter i JOIN sz sa ON i.a = sa.doc_id "
    "JOIN sz sb ON i.b = sb.doc_id)")


def _stratified_sql() -> str:
    """HUGEINT replica of StratifiedSampler: same Knuth hash arithmetic as
    _split_sql, per-stratum integer thresholds from the SAME constructor so
    engine and SQL cannot drift."""
    from ..functions.sampling import KNUTH, StratifiedSampler
    s = StratifiedSampler("doc_id", "lang", _STRAT_FRACS, seed=_SPLIT_SEED,
                          default_frac=_STRAT_DEFAULT)
    cases = " ".join(f"WHEN '{k}' THEN {v}"
                     for k, v in sorted(s.thresholds.items()))
    return (
        "SELECT doc_id, lang FROM (SELECT doc_id, lang, "
        f"((((CAST(doc_id AS HUGEINT) + {_SPLIT_SEED}) * {int(KNUTH)}) "
        "% 4294967296 + 4294967296) % 4294967296) AS h FROM documents) "
        f"WHERE h < CASE lang {cases} ELSE {s.default_thr} END "
        "ORDER BY doc_id")


def _transcript_counts_sql() -> str:
    """DuckDB replica of the per-kind verdict tallies over the RAW fixture
    parquet (constraints semantics, stages/constraints.py:_merge_conversation):

    - duplicate_key: extra rows per (conv, turn) group = SUM(cnt-1);
    - turn_gap: |setdiff(0..d-1, uniq)| + |setdiff(uniq, 0..d-1)| where d =
      COUNT(DISTINCT turn_idx) — the two setdiffs have EQUAL size (both are
      d − |uniq ∩ [0,d)|), so n_gap = 2·(d − c);
    - ts_regression: ts < LAG(ts) ordered by turn_idx (tie rows are full-row
      duplicates in this fixture, so tie order cannot change the count);
    - bad_role / dangling_tool: non-null domain anti-membership.

    The fixture path is deterministic (synthetic.transcripts_dir); the
    engine query and ``__ray_entry__.oracle_sql()`` both materialize it."""
    from ..synthetic import ROLE_DOMAIN, TOOL_REGISTRY, transcripts_dir
    tdir = transcripts_dir(_TV_N_TURNS, seed=_TV_SEED, **_TV_KNOBS)
    roles = ", ".join(f"'{r}'" for r in sorted(ROLE_DOMAIN))
    tools = ", ".join(f"'{t}'" for t in sorted(TOOL_REGISTRY))
    return (
        f"WITH t AS (SELECT * FROM read_parquet('{tdir}/part-*.parquet')), "
        "u AS (SELECT DISTINCT conv_id, turn_idx FROM t), "
        "g AS (SELECT conv_id, COUNT(*) AS d FROM u GROUP BY 1), "
        "c AS (SELECT u.conv_id, COUNT(*) AS c FROM u JOIN g USING (conv_id) "
        "WHERE u.turn_idx >= 0 AND u.turn_idx < g.d GROUP BY 1), "
        "dup AS (SELECT conv_id, SUM(cn - 1) AS v FROM (SELECT conv_id, "
        "turn_idx, COUNT(*) AS cn FROM t GROUP BY 1, 2) GROUP BY 1), "
        "reg AS (SELECT conv_id, SUM(CASE WHEN ts < pts THEN 1 ELSE 0 END) "
        "AS v FROM (SELECT conv_id, ts, LAG(ts) OVER (PARTITION BY conv_id "
        "ORDER BY turn_idx) AS pts FROM t) GROUP BY 1), "
        "rl AS (SELECT conv_id, COUNT(*) AS n, "
        f"SUM(CASE WHEN role IS NOT NULL AND role NOT IN ({roles}) "
        "THEN 1 ELSE 0 END) AS vrole, "
        f"SUM(CASE WHEN tool IS NOT NULL AND tool NOT IN ({tools}) "
        "THEN 1 ELSE 0 END) AS vtool FROM t GROUP BY 1), "
        "per AS (SELECT g.conv_id, rl.n, COALESCE(dup.v, 0) AS ndup, "
        "2 * (g.d - COALESCE(c.c, 0)) AS ngap, COALESCE(reg.v, 0) AS nreg, "
        "rl.vrole, rl.vtool FROM g JOIN rl USING (conv_id) "
        "LEFT JOIN c USING (conv_id) LEFT JOIN dup USING (conv_id) "
        "LEFT JOIN reg USING (conv_id)) "
        "SELECT CAST(COUNT(*) AS BIGINT) AS n_conversations, "
        "CAST(SUM(n) AS BIGINT) AS n_turns, "
        "CAST(SUM(CASE WHEN ndup + ngap + nreg + vrole + vtool > 0 THEN 1 "
        "ELSE 0 END) AS BIGINT) AS n_failed_conversations, "
        "CAST(SUM(ndup) AS BIGINT) AS n_duplicate_key, "
        "CAST(SUM(ngap) AS BIGINT) AS n_turn_gap, "
        "CAST(SUM(nreg) AS BIGINT) AS n_ts_regression, "
        "CAST(SUM(vrole) AS BIGINT) AS n_bad_role, "
        "CAST(SUM(vtool) AS BIGINT) AS n_dangling_tool FROM per")


ORACLE_SQL = {
    "transcript_violation_counts": _transcript_counts_sql(),
    "transcript_profile_stats": _transcript_profile_sql(),
    "profile_lineitem_stats": _PROFILE_STATS_SQL,
    "events_value_stats": (
        f"SELECT COUNT(value) AS cnt, ROUND((MIN(value)) + 1e-9, {_R}) AS min_val, "
        f"ROUND((MAX(value)) + 1e-9, {_R}) AS max_val, ROUND((AVG(value)) + 1e-9, {_R}) AS mean_val, "
        f"ROUND((STDDEV_SAMP(value)) + 1e-9, {_R}) AS std_val FROM events"),
    "quantiles_quantity": (
        f"SELECT ROUND((quantile_cont(l_quantity, 0.25)) + 1e-9, {_R}) AS p25, "
        f"ROUND((quantile_cont(l_quantity, 0.50)) + 1e-9, {_R}) AS p50, "
        f"ROUND((quantile_cont(l_quantity, 0.75)) + 1e-9, {_R}) AS p75, "
        f"ROUND((quantile_cont(l_quantity, 0.95)) + 1e-9, {_R}) AS p95 FROM lineitem"),
    "datetime_range_orders": (
        "SELECT strftime(MIN(o_orderdate), '%Y-%m-%dT%H:%M:%S') AS start_ts, "
        "strftime(MAX(o_orderdate), '%Y-%m-%dT%H:%M:%S') AS end_ts, "
        "COUNT(DISTINCT o_orderdate) AS n_distinct FROM orders"),
    "table_stats": _TABLE_STATS_SQL,
    "histogram_quantity": (
        "WITH mm AS (SELECT MIN(l_quantity) AS lo, MAX(l_quantity) AS hi "
        "FROM lineitem) "
        "SELECT CAST(LEAST(CAST(FLOOR((l_quantity - lo) / ((hi - lo) / 10.0)) "
        "AS INT), 9) AS INT) AS bin_idx, COUNT(*) AS cnt "
        "FROM lineitem, mm GROUP BY 1 ORDER BY 1"),
    "value_counts_returnflag": (
        "SELECT l_returnflag, COUNT(*) AS cnt FROM lineitem "
        "GROUP BY l_returnflag ORDER BY l_returnflag"),
    "topk_part_brand": (
        "SELECT p_brand, COUNT(*) AS cnt FROM part GROUP BY p_brand "
        "ORDER BY cnt DESC, p_brand LIMIT 5"),
    "pricing_summary": (
        "SELECT l_returnflag, l_linestatus, "
        "ROUND((SUM(l_quantity)) + 1e-9, 2) AS sum_qty, "
        "ROUND((SUM(l_extendedprice)) + 1e-9, 2) AS sum_base_price, "
        "ROUND((SUM(l_extendedprice * (1 - l_discount))) + 1e-9, 2) AS sum_disc_price, "
        "COUNT(*) AS count_order, "
        f"ROUND((SUM(l_quantity) / COUNT(*)) + 1e-9, {_R}) AS avg_qty "
        "FROM lineitem GROUP BY l_returnflag, l_linestatus "
        "ORDER BY l_returnflag, l_linestatus"),
    "orders_by_status": (
        "SELECT o_orderstatus, COUNT(*) AS cnt, "
        "ROUND((SUM(o_totalprice)) + 1e-9, 2) AS sum_totalprice FROM orders "
        "GROUP BY o_orderstatus ORDER BY o_orderstatus"),
    "events_per_type": (
        f"SELECT event_type, COUNT(*) AS cnt, ROUND((AVG(value)) + 1e-9, {_R}) AS "
        "avg_value FROM events GROUP BY event_type ORDER BY event_type"),
    "hourly_events": (
        "SELECT date_trunc('hour', ts) AS hour, COUNT(*) AS cnt "
        "FROM events GROUP BY 1 ORDER BY 1"),
    "lang_distribution_documents": (
        "SELECT lang, COUNT(*) AS cnt FROM documents GROUP BY lang "
        "ORDER BY lang"),
    "dup_keys_events": (
        "SELECT user_id, ts, COUNT(*) AS cnt FROM events "
        "GROUP BY user_id, ts HAVING COUNT(*) > 1"),
    "distinct_counts_lineitem": (
        "SELECT COUNT(DISTINCT l_orderkey) AS n_orderkeys, "
        "COUNT(DISTINCT l_partkey) AS n_partkeys, "
        "COUNT(DISTINCT l_suppkey) AS n_suppkeys FROM lineitem"),
    "revenue_by_segment": (
        "SELECT c_mktsegment, ROUND((SUM(o_totalprice)) + 1e-9, 2) AS revenue, "
        "COUNT(*) AS n_orders FROM orders o JOIN customer c "
        "ON o.o_custkey = c.c_custkey GROUP BY c_mktsegment "
        "ORDER BY c_mktsegment"),
    "uniqueness_orders": (
        "SELECT COUNT(*) AS n_rows, COUNT(DISTINCT o_orderkey) AS "
        "n_distinct_keys FROM orders"),
    "ts_monotonicity_events": (
        "SELECT user_id, COUNT(*) AS n_events, "
        "CAST(COALESCE(SUM(CASE WHEN ts < prev_ts THEN 1 ELSE 0 END), 0) AS BIGINT) AS "
        "n_regressions FROM (SELECT user_id, ts, "
        "LAG(ts) OVER (PARTITION BY user_id ORDER BY event_id) AS prev_ts "
        "FROM events) GROUP BY user_id ORDER BY user_id"),
    "user_event_gaps": (
        "SELECT user_id, CAST(COUNT(gap) AS BIGINT) AS n_gaps, "
        "CAST(COALESCE(SUM(gap), 0) AS BIGINT) AS sum_gap_us, "
        "CAST(COALESCE(MAX(gap), 0) AS BIGINT) AS max_gap_us FROM "
        "(SELECT user_id, epoch_us(ts) - LAG(epoch_us(ts)) OVER "
        "(PARTITION BY user_id ORDER BY ts, event_id) AS gap FROM events) "
        "GROUP BY user_id ORDER BY user_id"),
    "rolling_avg_events": (
        "SELECT user_id, event_id, ROUND((AVG(value) OVER ("
        "PARTITION BY user_id ORDER BY ts, event_id "
        "ROWS BETWEEN 4 PRECEDING AND CURRENT ROW)) + 1e-9, 6) AS value_rolling_mean "
        "FROM events ORDER BY user_id, event_id"),
    "sessionize_events": (
        "SELECT user_id, CAST(session_id AS BIGINT) AS session_id, CAST(COUNT(*) AS BIGINT) AS n_events, "
        "MIN(ts_us) AS session_start_us, MAX(ts_us) AS session_end_us, "
        "ROUND((SUM(value)) + 1e-9, 6) AS sum_value FROM ("
        "SELECT user_id, value, epoch_us(ts) AS ts_us, "
        "SUM(CASE WHEN gap_us IS NULL OR gap_us > 1800000000 THEN 1 ELSE 0 "
        "END) OVER (PARTITION BY user_id ORDER BY ts, event_id "
        "ROWS UNBOUNDED PRECEDING) AS session_id FROM ("
        "SELECT user_id, event_id, ts, value, epoch_us(ts) - "
        "LAG(epoch_us(ts)) OVER (PARTITION BY user_id ORDER BY ts, event_id) "
        "AS gap_us FROM events)) "
        "GROUP BY user_id, session_id ORDER BY user_id, session_id"),
    "split_documents": _split_sql(),
    "asof_price_events": (
        "WITH r AS (SELECT o_custkey, CAST(o_orderdate AS TIMESTAMP) AS ots, "
        "MAX(o_totalprice) AS price FROM orders GROUP BY 1, 2) "
        "SELECT e.event_id, e.user_id, "
        "ROUND((r.price) + 1e-9, 2) AS price_asof "
        "FROM events e ASOF LEFT JOIN r "
        "ON e.user_id = r.o_custkey AND r.ots <= e.ts "
        "ORDER BY e.event_id"),
    "asof_purchase_events": (
        "WITH r AS (SELECT user_id, ts, MAX(value) AS pv FROM events "
        "WHERE event_type = 'purchase' GROUP BY 1, 2) "
        "SELECT e.event_id, e.user_id, "
        f"ROUND((r.pv) + 1e-9, {_R}) AS purchase_value_asof "
        "FROM events e ASOF LEFT JOIN r "
        "ON e.user_id = r.user_id AND r.ts <= e.ts "
        "ORDER BY e.event_id"),
    "referential_orders_customers": (
        "SELECT COUNT(*) FILTER (WHERE c.c_custkey IS NULL) AS n_dangling "
        "FROM orders o LEFT JOIN customer c ON o.o_custkey = c.c_custkey"),
    "price_tier_orders": (
        "SELECT o.o_orderkey, t.tier FROM orders o JOIN (VALUES "
        + ", ".join(f"('{n}', {lo}, {hi})" for n, lo, hi in _PRICE_TIERS)
        + ") AS t(tier, lo, hi) "
        "ON o.o_totalprice BETWEEN t.lo AND t.hi "
        "ORDER BY o.o_orderkey, t.tier"),
    "price_band_orders": (
        "SELECT a.o_orderkey, b.o_orderkey AS band_id FROM orders a "
        "JOIN orders b ON a.o_totalprice "
        f"BETWEEN b.o_totalprice - {_BAND_HALF_WIDTH} "
        f"AND b.o_totalprice + {_BAND_HALF_WIDTH} "
        "ORDER BY a.o_orderkey, band_id"),
    "lag_diff_events": (
        "SELECT event_id, user_id, "
        f"ROUND((value - LAG(value) OVER (PARTITION BY user_id "
        f"ORDER BY ts, event_id)) + 1e-9, {_R}) AS value_diff "
        "FROM events ORDER BY event_id"),
    # drift: even event_ids = baseline, odd = current; fixed 10 equal-width
    # bins over the global min/max plus the engine's under/overflow pad bins
    # (always 0 here, but they enter the ε-clipped PSI normalization exactly
    # as in stages/drift.py:_psi); KS uses the UNclipped binned CDFs
    "drift_events_value": (
        "WITH mm AS (SELECT MIN(value) AS lo, MAX(value) AS hi FROM events), "
        "b AS (SELECT CASE WHEN hi <= lo THEN 0 ELSE "
        "CAST(LEAST(CAST(FLOOR((value - lo) / ((hi - lo) / "
        "10.0)) AS INT), 9) AS INT) END AS bin, event_id % 2 AS par "
        "FROM events, mm), "
        "c AS (SELECT bin, SUM(CASE WHEN par = 0 THEN 1 ELSE 0 END) AS bc, "
        "SUM(CASE WHEN par = 1 THEN 1 ELSE 0 END) AS cc FROM b GROUP BY bin), "
        "g AS (SELECT i AS bin FROM generate_series(-1, 10) AS t(i)), "
        "j AS (SELECT g.bin, COALESCE(bc, 0) AS bc, COALESCE(cc, 0) AS cc "
        "FROM g LEFT JOIN c ON g.bin = c.bin), "
        "t AS (SELECT bin, bc, cc, GREATEST(bc * 1.0, 1e-6) AS bcl, "
        "GREATEST(cc * 1.0, 1e-6) AS ccl FROM j), "
        "s AS (SELECT SUM(bcl) AS sb, SUM(ccl) AS sc, SUM(bc) AS nb, "
        "SUM(cc) AS nc FROM t), "
        "cdf AS (SELECT ABS(SUM(bc * 1.0) OVER (ORDER BY bin) / nb - "
        "SUM(cc * 1.0) OVER (ORDER BY bin) / nc) AS d FROM t, s), "
        "kd AS (SELECT MAX(d) AS ks FROM cdf) "
        f"SELECT ROUND((SUM((ccl / sc - bcl / sb) * LN((ccl / sc) / "
        f"(bcl / sb)))) + 1e-9, {_R}) AS psi, "
        f"ROUND((ANY_VALUE(kd.ks)) + 1e-9, {_R}) AS ks, "
        "CAST(ANY_VALUE(nb) AS BIGINT) AS n_base, "
        "CAST(ANY_VALUE(nc) AS BIGINT) AS n_cur "
        "FROM t, s, kd"),
    "exact_dedup_documents": (
        "SELECT MIN(doc_id) AS doc_id FROM documents GROUP BY text "
        "ORDER BY doc_id"),
    # word-3-shingle sets as chr(31)-joined strings; DISTINCT per doc;
    # intersection via string self-join — byte-identical to the engine's
    # (no hashing on either side). Threshold compared UNROUNDED on both
    # sides (identical IEEE division), rounding only for the hash.
    "jaccard_dup_pairs_documents": (
        "WITH " + _JACCARD_CTES + " "
        f"SELECT a, b, ROUND(jac + 1e-9, {_R}) AS jaccard FROM j "
        "WHERE jac >= 0.7 ORDER BY a, b"),
    # connected components over the same pair graph: recursive transitive
    # closure, component rep = min reachable doc_id (mirrors the engine's
    # min-root union-find)
    "dup_clusters_documents": (
        "WITH RECURSIVE " + _JACCARD_CTES + ", "
        "p AS (SELECT a, b FROM j WHERE jac >= 0.7), "
        "e AS (SELECT a AS s, b AS t FROM p "
        "UNION ALL SELECT b AS s, a AS t FROM p), "
        "n AS (SELECT DISTINCT s FROM e), "
        "reach(s, t) AS (SELECT s, s FROM n "
        "UNION SELECT r.s, e.t FROM reach r JOIN e ON r.t = e.s) "
        "SELECT s AS doc_id, CAST(MIN(t) AS BIGINT) AS cluster_rep "
        "FROM reach GROUP BY s ORDER BY doc_id"),
    "stratified_sample_documents": _stratified_sql(),
    "term_topk_documents": (
        "WITH tok AS (SELECT unnest(string_split_regex(lower(text), "
        "'\\s+')) AS term FROM documents) "
        "SELECT term, COUNT(*) AS n FROM tok GROUP BY term "
        "ORDER BY n DESC, term LIMIT 25"),
    "embedding_dup_pairs": (
        "SELECT a.vec_id AS id_a, b.vec_id AS id_b, "
        "ROUND((list_cosine_similarity(CAST(a.embedding AS DOUBLE[]), "
        "CAST(b.embedding AS DOUBLE[]))) + 1e-9, 4) AS cosine "
        "FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id "
        "WHERE list_cosine_similarity(CAST(a.embedding AS DOUBLE[]), "
        "CAST(b.embedding AS DOUBLE[])) >= 0.45 "
        "ORDER BY id_a, id_b"),
    "knn_embeddings": (
        "SELECT vec_id, ROUND((list_cosine_similarity("
        "CAST(embedding AS DOUBLE[]), "
        "(SELECT CAST(embedding AS DOUBLE[]) FROM embeddings WHERE vec_id = 0)"
        ")) + 1e-9, 4) AS cosine FROM embeddings "
        "ORDER BY list_cosine_similarity(CAST(embedding AS DOUBLE[]), "
        "(SELECT CAST(embedding AS DOUBLE[]) FROM embeddings WHERE vec_id = 0)"
        ") DESC, vec_id LIMIT 10"),
    # exhaustive-probe identity: IVF with n_probe = n_clusters scores every
    # vector exactly, so the brute-force SQL is its oracle too
    "knn_embeddings_ivf_exhaustive": (
        "SELECT vec_id, ROUND((list_cosine_similarity("
        "CAST(embedding AS DOUBLE[]), "
        "(SELECT CAST(embedding AS DOUBLE[]) FROM embeddings WHERE vec_id = 0)"
        ")) + 1e-9, 4) AS cosine FROM embeddings "
        "ORDER BY list_cosine_similarity(CAST(embedding AS DOUBLE[]), "
        "(SELECT CAST(embedding AS DOUBLE[]) FROM embeddings WHERE vec_id = 0)"
        ") DESC, vec_id LIMIT 10"),
    # plain-SQL geometry oracle: the WKT is CONSTRUCTED from integer event
    # columns, so bbox/area/perimeter/centroid have closed-form SQL — the
    # engine path must parse the WKT back to match
    "geometry_profile_events": (
        "WITH g AS (SELECT "
        "CASE WHEN event_id % 2 = 0 THEN 'Point' ELSE 'Polygon' END AS "
        "geom_type, CAST(user_id AS DOUBLE) AS x, "
        "CAST(event_id % 97 AS DOUBLE) AS y, "
        "CAST(1 + event_id % 5 AS DOUBLE) AS w, "
        "CAST(1 + event_id % 7 AS DOUBLE) AS h FROM events) "
        "SELECT geom_type, COUNT(*) AS n, MIN(x) AS xmin, MIN(y) AS ymin, "
        "MAX(CASE WHEN geom_type = 'Point' THEN x ELSE x + w END) AS xmax, "
        "MAX(CASE WHEN geom_type = 'Point' THEN y ELSE y + h END) AS ymax, "
        "ROUND(SUM(CASE WHEN geom_type = 'Point' THEN 0 ELSE w * h END) "
        "+ 1e-9, 4) AS sum_area, "
        "ROUND(SUM(CASE WHEN geom_type = 'Point' THEN 0 ELSE 2 * (w + h) "
        "END) + 1e-9, 4) AS sum_length, "
        "ROUND(AVG(CASE WHEN geom_type = 'Point' THEN x ELSE x + w / 2 END) "
        "+ 1e-9, 4) AS avg_cx, "
        "ROUND(AVG(CASE WHEN geom_type = 'Point' THEN y ELSE y + h / 2 END) "
        "+ 1e-9, 4) AS avg_cy "
        "FROM g GROUP BY geom_type ORDER BY geom_type"),
    "rdf_class_distribution_tpch": (
        "SELECT class_name, count FROM ("
        "SELECT 'ex:Customer' AS class_name, COUNT(*) AS count "
        "FROM customer "
        "UNION ALL SELECT 'ex:Nation', COUNT(*) FROM nation "
        "UNION ALL SELECT 'ex:Region', COUNT(*) FROM region) "
        "ORDER BY count DESC, class_name"),
    "rdf_node_degrees_tpch": (
        "SELECT node, out_degree, in_degree, "
        "out_degree + in_degree AS degree FROM ("
        "SELECT 'cust:' || CAST(c_custkey AS VARCHAR) AS node, "
        "CAST(2 AS BIGINT) AS out_degree, CAST(0 AS BIGINT) AS in_degree "
        "FROM customer "
        "UNION ALL SELECT 'nation:' || CAST(n_nationkey AS VARCHAR), 2, "
        "(SELECT COUNT(*) FROM customer c "
        "WHERE c.c_nationkey = n.n_nationkey) FROM nation n "
        "UNION ALL SELECT 'region:' || CAST(r_regionkey AS VARCHAR), 1, "
        "(SELECT COUNT(*) FROM nation n2 "
        "WHERE n2.n_regionkey = r.r_regionkey) FROM region r "
        "UNION ALL SELECT 'ex:Customer', 0, "
        "(SELECT COUNT(*) FROM customer) "
        "UNION ALL SELECT 'ex:Nation', 0, (SELECT COUNT(*) FROM nation) "
        "UNION ALL SELECT 'ex:Region', 0, (SELECT COUNT(*) FROM region)) "
        "ORDER BY node"),
    "token_counts_documents": (
        "SELECT doc_id, CASE WHEN trim(text) = '' THEN 0 ELSE "
        "len(regexp_split_to_array(trim(text), '\\s+')) END AS n_tokens, "
        "len(regexp_extract_all(text, '[A-Za-z]+|[0-9]|[^A-Za-z0-9\\s]')) AS "
        "n_bpe_tokens FROM documents ORDER BY doc_id"),
    "char_counts_documents": (
        "SELECT doc_id, length(text) AS n_chars_text, "
        "length(regexp_replace(text, '[^0-9]', '', 'g')) AS n_digits, "
        "len(regexp_extract_all(text, '[^\\w\\s]')) AS n_punct "
        "FROM documents ORDER BY doc_id"),
    "fingerprint_documents": (
        "SELECT doc_id, md5(lower(regexp_replace(text, '\\s+', ' ', 'g'))) "
        "AS fingerprint_md5 FROM documents ORDER BY doc_id"),
    # per-token CTE: unnest(string_split_regex(...)) mirrors the engine's
    # whitespace tokenization exactly, INCLUDING the empty tokens produced
    # by leading/trailing whitespace (and the single '' token of an empty
    # doc) — the engine's repetition/denominator semantics count them
    "quality_scores_documents": (
        "WITH " + _QUALITY_CTES + " "
        f"SELECT b.doc_id, ROUND(({_QUALITY_EXPR}) + 1e-9, 6) "
        "AS quality_score, "
        "ROUND(((CASE WHEN b.n_words > 0 THEN h.h_en ELSE 0 END) * 1.0 "
        "/ GREATEST(b.n_words, 1)) + 1e-9, 6) AS stopword_ratio, "
        "ROUND((r.max_tok * 1.0 / GREATEST(b.n_words, 1)) + 1e-9, 6) "
        "AS repetition_ratio "
        "FROM base b JOIN rep r USING (doc_id) JOIN hits h USING (doc_id) "
        "ORDER BY b.doc_id"),
    # composed cleaning pipeline: quality >= 0.45 AND source lang = 'en'
    # AND exact-dedup keep-min — same CTEs, same unrounded threshold
    # comparison as the engine (identical IEEE expression)
    "clean_corpus_documents": (
        "WITH " + _QUALITY_CTES + ", "
        f"q AS (SELECT b.doc_id, ({_QUALITY_EXPR}) AS qs "
        "FROM base b JOIN rep r USING (doc_id) JOIN hits h USING (doc_id)), "
        "f AS (SELECT d.doc_id, d.text FROM documents d JOIN q USING "
        "(doc_id) WHERE q.qs >= 0.45 AND d.lang = 'en') "
        "SELECT MIN(doc_id) AS doc_id FROM f GROUP BY text "
        "ORDER BY doc_id"),
    "language_id_documents": _langid_sql(),
}
