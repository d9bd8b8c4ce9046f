"""Sorted-segment machinery (stages/segments.py): raw-piece stitch exactness
with keys deliberately cut across sort blocks, shuffle-width derivation,
and the co-partitioned as-of join vs pandas merge_asof."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data

from data_profiler_ray.config import ConstraintConfig
from data_profiler_ray.stages.constraints import _CheckAndWrite, _ReturnRows
from data_profiler_ray.stages.segments import (_range_task, segment_reduce,
                                               shuffle_width,
                                               sorted_segment_map)


def _collect(ds) -> pd.DataFrame:
    tbls = list(ds.iter_batches(batch_format="pyarrow"))
    return pa.concat_tables(tbls).to_pandas() if tbls else pd.DataFrame()


def test_segment_reduce_matches_loop():
    rng = np.random.default_rng(3)
    x = rng.integers(0, 100, 1000).astype(np.int64)
    starts = np.array([0, 10, 11, 500, 990])
    end_last = 995
    got = segment_reduce(x, starts, end_last)
    bounds = list(starts) + [end_last]
    exp = [x[a:b].sum() for a, b in zip(bounds[:-1], bounds[1:])]
    assert got.tolist() == exp
    got_max = segment_reduce(x, starts, end_last, np.maximum)
    exp_max = [x[a:b].max() for a, b in zip(bounds[:-1], bounds[1:])]
    assert got_max.tolist() == exp_max


def test_shuffle_width_is_cpus_or_bytes():
    """One partition per CPU for small inputs, with no floor above it and
    the CPU term capped at 24."""
    assert shuffle_width(None, cpus=1, nbytes=50 << 20) == 1
    assert shuffle_width(None, cpus=4, nbytes=50 << 20) == 4
    assert shuffle_width(None, cpus=32, nbytes=50 << 20) == 24
    assert shuffle_width(None, cpus=32, nbytes=10 << 30) == 80


def test_shuffle_width_scales_with_bytes():
    class Stub:
        def __init__(self, nbytes):
            self._b = nbytes

        def size_bytes(self):
            return self._b

    # 10 GB → 80 partitions of ~128 MB, not the 24 cap
    assert shuffle_width(Stub(10 << 30), cpus=32) == 80
    # unknown size → one partition per CPU, at most 24
    assert shuffle_width(Stub(0), cpus=32) == 24
    assert shuffle_width(Stub(0), cpus=4) == 4


def test_range_task_orders_tied_keys_by_part():
    """A (conv_id, turn_idx) key duplicated across two sorted runs: on the
    constraint stream's sort keys, the range task's concatenate-and-sort
    returns the same table whichever part's run comes first; on
    (conv_id, turn_idx) alone the tied rows would keep the run order."""
    keys = _CheckAndWrite(ConstraintConfig(), _ReturnRows(),
                          ["conv_id", "turn_idx", "part"]).sort_cols
    assert keys == ["conv_id", "turn_idx", "part"]
    p1 = pa.table({"conv_id": ["b", "c", "c"], "turn_idx": [0, 0, 1],
                   "part": ["p1"] * 3, "row": [1, 2, 0]})
    p0 = pa.table({"conv_id": ["a", "c"], "turn_idx": [0, 1],
                   "part": ["p0"] * 2, "row": [4, 3]})

    def same(t):
        return t

    def merged(runs, sort_cols):
        return ray.get(_range_task.remote(same, sort_cols, 0, 1, *runs))

    got = merged([p1, p0], keys)
    assert got.equals(merged([p0, p1], keys))
    assert got.column("row").to_pylist() == [4, 1, 2, 3, 0]
    assert not merged([p1, p0], keys[:2]).equals(
        merged([p0, p1], keys[:2]))


def test_range_tasks_split_sorted_runs_at_fixed_key_tuples():
    """The range exchange of 3 sorted runs, one a whale key and one with
    null keys, over 4 ranges: the blocks in range order are the runs'
    stable sort, nulls last; the whale is cut across ranges; and the
    same runs in another order give the same ranges, each holding the
    same rows."""
    from data_profiler_ray.stages.segments import range_blocks, sort_table
    keys = ["conv_id", "turn_idx", "part"]
    rng = np.random.default_rng(5)

    def run(part, conv, turns):
        return sort_table(pa.table({
            "conv_id": pa.array(conv, pa.string()),
            "turn_idx": pa.array(turns, pa.int32()),
            "part": [part] * len(turns)}), keys)

    runs = [run("p0", ["w"] * 300, rng.permutation(300)),
            run("p1", [None, "a", None, "w", "z"] * 20,
                rng.integers(0, 9, 100)),
            run("p2", [f"c{i % 37}" for i in range(200)], np.arange(200) % 7)]

    def blocks(order):
        return list(range_blocks([ray.put(runs[j]) for j in order], keys,
                                 lambda t: t, 4))

    got = blocks([0, 1, 2])
    assert pa.concat_tables(got).equals(
        sort_table(pa.concat_tables(runs), keys))
    assert all(b.num_rows for b in got)
    assert sum("w" in b.column("conv_id").to_pylist() for b in got) >= 2
    for mine, other in zip(got, blocks([2, 0, 1])):
        assert sorted(mine.to_pylist(), key=str) == sorted(
            other.to_pylist(), key=str)


@pytest.mark.parametrize("width", [2, 5, 11])
def test_sorted_segment_map_cut_keys_exact(width):
    """Per-key sum/count via the segment path with few keys and many sort
    blocks — most keys are cut across blocks, forcing the raw-piece
    stitch."""
    rng = np.random.default_rng(7)
    n = 5000
    df = pd.DataFrame({
        "k": rng.integers(0, 9, n),
        "o": rng.permutation(n),
        "v": rng.integers(0, 1000, n),
    })
    schema = pa.schema([("k", pa.int64()), ("cnt", pa.int64()),
                        ("sum_v", pa.int64()), ("first_v", pa.int64())])

    def block(batch, starts, ends):
        v = batch.column("v").to_numpy(zero_copy_only=False)
        return pa.table({
            "k": batch.column("k").take(pa.array(starts)),
            "cnt": pa.array(ends - starts, pa.int64()),
            "sum_v": pa.array(segment_reduce(v, starts, int(ends[-1])),
                              pa.int64()),
            "first_v": pa.array(v[starts], pa.int64()),
        }, schema=schema)

    out = _collect(sorted_segment_map(
        ray.data.from_pandas(df), "k", ["o"], block, schema, width=width))
    out = out.sort_values("k").reset_index(drop=True)
    exp = (df.sort_values(["k", "o"]).groupby("k", as_index=False)
           .agg(cnt=("v", "size"), sum_v=("v", "sum"),
                first_v=("v", "first")))
    assert out["cnt"].tolist() == exp["cnt"].tolist()
    assert out["sum_v"].tolist() == exp["sum_v"].tolist()
    # first_v proves the stitch preserves within-key order across cut blocks
    assert out["first_v"].tolist() == exp["first_v"].tolist()
    assert len(out) == 9


def test_sorted_segment_map_single_key():
    """One key, many blocks: everything lands in the carry path."""
    df = pd.DataFrame({"k": 0, "o": np.arange(300), "v": np.arange(300)})
    schema = pa.schema([("k", pa.int64()), ("cnt", pa.int64())])

    def block(batch, starts, ends):
        return pa.table({
            "k": batch.column("k").take(pa.array(starts)),
            "cnt": pa.array(ends - starts, pa.int64())}, schema=schema)

    out = _collect(sorted_segment_map(
        ray.data.from_pandas(df), "k", ["o"], block, schema, width=4))
    assert out["cnt"].tolist() == [300]


def test_rolling_window_cut_segments_vs_pandas():
    """Rolling means survive key cuts: small width forces block boundaries
    inside keys; head rows of cut continuations must be stitched exactly."""
    from data_profiler_ray.functions.joins import rolling_window
    rng = np.random.default_rng(11)
    df = pd.DataFrame({
        "k": rng.choice(["x", "y", "z"], 900),
        "t": np.arange(900),
        "v": rng.random(900),
    })
    out = _collect(rolling_window(ray.data.from_pandas(df), "k", ["t"], "v",
                                  window=5))
    out = out.sort_values(["k", "t"]).reset_index(drop=True)
    exp = (df.sort_values(["k", "t"]).groupby("k")["v"]
           .rolling(5, min_periods=1).mean().reset_index(drop=True))
    assert out["v_rolling_mean"].to_numpy() == pytest.approx(
        exp.to_numpy(), abs=1e-12)


@pytest.mark.parametrize("width", [2, 5, 11])
def test_asof_join_partitioned_vs_pandas_merge_asof(width):
    """Co-partitioned as-of (no broadcast): equal-ts inclusive match, keys
    with no right rows stay null, right side larger than trivial. Each
    width cuts other ``by`` keys across sort blocks, so the raw-piece
    stitch runs at several block geometries."""
    from data_profiler_ray.functions.joins import asof_join_partitioned
    rng = np.random.default_rng(13)
    left = pd.DataFrame({
        "key": rng.integers(0, 40, 3000),
        "ts": rng.integers(0, 100_000, 3000).astype(np.int64),
        "payload": np.arange(3000),
    })
    # right: keys 0..29 only (10 keys dangle); unique (key, ts)
    right = (pd.DataFrame({
        "key": rng.integers(0, 30, 2000),
        "ts": rng.integers(0, 100_000, 2000).astype(np.int64),
        "rate": rng.random(2000).round(6),
    }).drop_duplicates(["key", "ts"]).reset_index(drop=True))
    # plant an exact-equality match to pin inclusivity
    left.loc[0, ["key", "ts"]] = [right.loc[0, "key"], right.loc[0, "ts"]]

    out = _collect(asof_join_partitioned(
        ray.data.from_pandas(left), ray.data.from_pandas(right),
        by="key", on="ts", value_cols=["rate"], width=width))
    out = out.sort_values("payload").reset_index(drop=True)
    exp = pd.merge_asof(
        left.sort_values("ts", kind="stable"),
        right.sort_values("ts", kind="stable"),
        on="ts", by="key", direction="backward"
    ).sort_values("payload").reset_index(drop=True)
    got = out["rate_asof"].to_numpy(dtype=np.float64)
    expv = exp["rate"].to_numpy(dtype=np.float64)
    both_nan = np.isnan(got) & np.isnan(expv)
    assert (both_nan | (got == expv)).all()
    assert len(out) == len(left)
    # the planted equal-ts row matched inclusively
    assert out.loc[out["payload"] == 0, "rate_asof"].iloc[0] == \
        right.loc[0, "rate"]


def test_sorted_segment_map_more_partitions_than_rows(tmp_path):
    """A sort width above the row count leaves sort blocks empty: the
    raw-piece stitch and a cut kernel each still give one exact row per
    key."""
    import duckdb
    import pyarrow.parquet as pq

    from data_profiler_ray.pipelines.queries import (_GAPS_SCHEMA, _GapsCut,
                                                     _gaps_block, ORACLE_SQL)
    ts = np.datetime64("2025-05-01", "us").astype(np.int64) + np.array(
        [0, 5, 9, 2, 7, 1, 4], np.int64) * 60_000_000
    tbl = pa.table({
        "event_id": pa.array(np.arange(7), pa.int64()),
        "user_id": pa.array([3, 1, 3, 2, 1, 3, 2], pa.int64()),
        "ts": pa.array(ts, pa.timestamp("us")),
        "value": pa.array(np.arange(7, dtype=np.float64)),
    })
    schema = pa.schema([("user_id", pa.int64()), ("cnt", pa.int64()),
                        ("first_e", pa.int64())])

    def block(batch, starts, ends):
        return pa.table({
            "user_id": batch.column("user_id").take(pa.array(starts)),
            "cnt": pa.array(ends - starts, pa.int64()),
            "first_e": batch.column("event_id").take(pa.array(starts)),
        }, schema=schema)

    raw = _collect(sorted_segment_map(ray.data.from_arrow(tbl), "user_id",
                                      ["event_id"], block, schema, width=11))
    assert sorted(zip(raw["user_id"], raw["cnt"], raw["first_e"])) == [
        (1, 2, 1), (2, 2, 3), (3, 3, 0)]

    pq.write_table(tbl, str(tmp_path / "events.parquet"))
    got = _collect(sorted_segment_map(
        ray.data.read_parquet(str(tmp_path / "events.parquet")), "user_id",
        ["ts", "event_id"], _gaps_block, _GAPS_SCHEMA, width=11,
        cut_kernel=_GapsCut()))
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{tmp_path}/events.parquet')")
    exp = con.execute(ORACLE_SQL["user_event_gaps"]).fetchdf()
    got = got.sort_values("user_id").reset_index(drop=True)
    exp = exp.sort_values("user_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(got[sorted(got.columns)],
                                  exp[sorted(exp.columns)], check_dtype=False)


def test_asof_join_partitioned_empty_right():
    """An empty right side yields all-null value columns, one row per
    left row (ASOF LEFT semantics)."""
    import pyarrow as pa

    from data_profiler_ray.functions.joins import asof_join_partitioned
    left = pd.DataFrame({"key": [1, 1, 2], "ts": [10, 20, 30],
                         "payload": [0, 1, 2]})
    right = pa.table({"key": pa.array([], pa.int64()),
                      "ts": pa.array([], pa.int64()),
                      "rate": pa.array([], pa.float64())})
    out = _collect(asof_join_partitioned(
        ray.data.from_pandas(left), ray.data.from_arrow(right),
        by="key", on="ts", value_cols=["rate"], width=2))
    assert len(out) == 3
    assert out["rate_asof"].isna().all()


def test_jaccard_dup_pairs_no_pairs():
    """Disjoint docs → empty result with the right schema."""
    import pyarrow as pa

    from data_profiler_ray.functions.dedup import jaccard_dup_pairs
    tbl = pa.table({"doc_id": pa.array([0, 1], pa.int64()),
                    "text": pa.array(["a b c d e", "v w x y z"])})
    out = jaccard_dup_pairs(ray.data.from_arrow(tbl), threshold=0.1)
    assert out.num_rows == 0
    assert out.column_names == ["a", "b", "jaccard"]


def test_range_join_broadcast_overlap_and_bounds():
    """1-to-many interval join: overlapping tiers, inclusive bounds, rows
    matching nothing dropped (INNER)."""
    import pyarrow as pa

    from data_profiler_ray.functions.joins import range_join_broadcast
    left = pd.DataFrame({"id": [0, 1, 2, 3], "v": [5.0, 10.0, 25.0, 99.0]})
    tiers = pa.table({"tier": ["a", "b"],
                      "lo": pa.array([0.0, 10.0], pa.float64()),
                      "hi": pa.array([10.0, 30.0], pa.float64())})
    out = _collect(range_join_broadcast(
        ray.data.from_pandas(left), tiers, "v"))
    got = sorted(zip(out["id"], out["tier"]))
    # v=10 hits BOTH tiers (inclusive both ends); v=99 hits none
    assert got == [(0, "a"), (1, "a"), (1, "b"), (2, "b")]


def test_sorted_segment_map_executes_upstream_once(tmp_path):
    """Regression: size_bytes() probing must not re-execute the upstream
    plan (the lazy-probe double-execution cost 3x wall on the 200k
    embedding bench). The tagged stage counts the rows it processes via
    side-effect files; a double execution would double the sum."""
    import os
    import uuid

    import pyarrow as pa

    marker = tmp_path / "calls"
    marker.mkdir()

    def tag(batch: pa.Table) -> pa.Table:
        (marker / uuid.uuid4().hex).write_text(str(batch.num_rows))
        return batch

    ds = (ray.data.range(10_000, override_num_blocks=4)
          .map_batches(lambda b: pa.table(
              {"k": pa.array((b.column("id").to_numpy() % 50)),
               "v": b.column("id")}), batch_format="pyarrow")
          .map_batches(tag, batch_format="pyarrow"))

    out_schema = pa.schema([("k", pa.int64()), ("n", pa.int64())])

    def block(batch, starts, ends):
        return pa.table({
            "k": batch.column("k").take(pa.array(starts)).cast(pa.int64()),
            "n": pa.array(ends - starts, pa.int64())}, schema=out_schema)

    from data_profiler_ray.stages.segments import sorted_segment_map
    res = _collect(sorted_segment_map(ds, "k", ["v"], block, out_schema))
    assert res["n"].sum() == 10_000
    processed = sum(int(f.read_text()) for f in marker.iterdir())
    assert processed == 10_000, f"upstream executed {processed/10_000:.1f}x"


# ---------------------------------------------------------------------------
# Whale-key bound (VERDICT r3 item 2): one key holding 50% of 1M rows must
# pass all five segment-path oracles with o(#blocks) driver carry — the cut
# kernels carry fixed-size partial states, never the key's rows.


@pytest.fixture(scope="module")
def whale_events_dir(tmp_path_factory):
    import pyarrow.parquet as pq
    d = tmp_path_factory.mktemp("whale")
    n = 1_000_000
    whale = n // 2
    rng = np.random.default_rng(7)
    user = np.concatenate([np.zeros(whale, np.int64),
                           rng.integers(1, 20_001, n - whale)])
    event_id = np.arange(n, dtype=np.int64)
    base = np.datetime64("2025-03-01T00:00:00", "us").astype(np.int64)
    # ts ~ event order + ±2h integer noise → plenty of per-user regressions
    ts = (base + event_id * 1_000_000
          + rng.integers(-7200, 7200, n) * 1_000_000)
    # integer-valued floats: every sum/diff/mean is FP-exact on both engines
    value = rng.integers(0, 100, n).astype(np.float64)
    perm = rng.permutation(n)  # file order ≠ key order
    tbl = pa.table({
        "event_id": pa.array(event_id[perm], pa.int64()),
        "user_id": pa.array(user[perm], pa.int64()),
        "ts": pa.array(ts[perm], pa.timestamp("us")),
        "value": pa.array(value[perm], pa.float64()),
    })
    pq.write_table(tbl, str(d / "events.parquet"), row_group_size=100_000)
    return str(d)


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if pd.api.types.is_datetime64_any_dtype(df[c]):
            df[c] = df[c].astype("datetime64[us]").astype(str)
    return df.sort_values(list(df.columns), kind="stable",
                          na_position="last").reset_index(drop=True)


@pytest.mark.parametrize("name", [
    "ts_monotonicity_events", "user_event_gaps", "sessionize_events",
    "rolling_avg_events", "lag_diff_events"])
def test_whale_key_segment_queries_match_oracle(whale_events_dir, name):
    import duckdb

    from data_profiler_ray.pipelines.queries import ORACLE_SQL, QUERIES
    got = QUERIES[name](whale_events_dir).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM read_parquet("
                f"'{whale_events_dir}/events.parquet')")
    exp = con.execute(ORACLE_SQL[name]).fetchdf()
    assert len(got) == len(exp), (len(got), len(exp))
    a, b = _norm(got), _norm(exp)
    pd.testing.assert_frame_equal(a, b, check_dtype=False)


def test_whale_key_carry_is_o_blocks(whale_events_dir):
    """Driver carry stays o(#blocks) — a few fixed-size partial rows per
    block — even though one key spans half the dataset (raw pieces
    would have pulled 500k rows to the driver)."""
    from data_profiler_ray.pipelines.queries import (_GAPS_SCHEMA,
                                                     _SESS_SCHEMA, _GapsCut,
                                                     _SessionCut, _gaps_block,
                                                     _session_block)
    ds = ray.data.read_parquet(f"{whale_events_dir}/events.parquet")
    for block_fn, schema, cut in [
            (_gaps_block, _GAPS_SCHEMA, _GapsCut()),
            (_session_block, _SESS_SCHEMA, _SessionCut())]:
        st = {}
        _collect(sorted_segment_map(ds, "user_id", ["ts", "event_id"],
                                    block_fn, schema, width=16,
                                    cut_kernel=cut, stats=st))
        assert st["n_blocks"] >= 8
        assert st["carry_rows"] <= 2 * st["n_blocks"]
        assert st["carry_bytes"] <= 64 * 1024  # o(#blocks), not O(rows)


def test_whale_rolling_carry_bounded(whale_events_dir):
    from data_profiler_ray.functions.joins import rolling_window
    # rolling carries ≤ window-1 head rows per block piece: bound ~ blocks·w
    ds = ray.data.read_parquet(f"{whale_events_dir}/events.parquet")
    out = _collect(rolling_window(ds, "user_id", ["ts", "event_id"],
                                  "value", window=5))
    assert len(out) == 1_000_000


@pytest.mark.parametrize("width", [2, 5, 11])
def test_cut_kernels_match_oracle_across_widths(width, tmp_path_factory):
    """Session/gaps cut kernels vs DuckDB at several block geometries —
    different widths cut different keys at different piece boundaries
    (k=1 chain merges, k>=2 ordinal offsets, junction gaps)."""
    import duckdb
    import pyarrow.parquet as pq

    from data_profiler_ray.pipelines.queries import (_GAPS_SCHEMA,
                                                     _SESS_SCHEMA, _GapsCut,
                                                     _SessionCut, _gaps_block,
                                                     _session_block)
    d = tmp_path_factory.mktemp(f"cutw{width}")
    rng = np.random.default_rng(width)
    n = 20_000
    user = rng.integers(0, 40, n)          # few keys → many cut runs
    ts = (np.datetime64("2025-05-01", "us").astype(np.int64)
          + np.sort(rng.integers(0, 3_600_000, n)) * 1_000_000
          + user * 7)                       # interleaved users, some >30min gaps
    tbl = pa.table({
        "event_id": pa.array(np.arange(n), pa.int64()),
        "user_id": pa.array(user, pa.int64()),
        "ts": pa.array(ts, pa.timestamp("us")),
        "value": pa.array(rng.integers(0, 50, n).astype(np.float64)),
    })
    pq.write_table(tbl, str(d / "events.parquet"))
    ds = ray.data.read_parquet(str(d / "events.parquet"))
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{d}/events.parquet')")
    from data_profiler_ray.pipelines.queries import ORACLE_SQL
    for block_fn, schema, cut, name, sortk in [
            (_gaps_block, _GAPS_SCHEMA, _GapsCut(), "user_event_gaps",
             ["user_id"]),
            (_session_block, _SESS_SCHEMA, _SessionCut(), "sessionize_events",
             ["user_id", "session_id"])]:
        order = (["ts", "event_id"])
        got = _collect(sorted_segment_map(
            ds.select_columns(["user_id", "event_id", "ts", "value"]),
            "user_id", order, block_fn, schema,
            width=width, cut_kernel=cut))
        exp = con.execute(ORACLE_SQL[name]).fetchdf()
        got = got.sort_values(sortk, kind="stable").reset_index(drop=True)
        exp = exp.sort_values(sortk, kind="stable").reset_index(drop=True)
        got = got[sorted(got.columns)]
        exp = exp[sorted(exp.columns)]
        pd.testing.assert_frame_equal(got, exp, check_dtype=False), name


def test_cut_kernels_fuzz_random_shapes(tmp_path_factory):
    """Randomized fixtures (singleton users, equal-ts runs, skewed key
    mass, tiny/huge pieces) × random widths: session + gaps + lag cut
    kernels must match DuckDB exactly. Seeded loop — a failing case prints
    its seed for replay."""
    import duckdb
    import pyarrow.parquet as pq

    from data_profiler_ray.pipelines.queries import (_GAPS_SCHEMA,
                                                     _LAG_SCHEMA,
                                                     _SESS_SCHEMA, _GapsCut,
                                                     _LagCut, _SessionCut,
                                                     _gaps_block, _lag_block,
                                                     _session_block,
                                                     ORACLE_SQL)
    d = tmp_path_factory.mktemp("fuzz")
    for seed in (101, 202, 303):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(500, 4000))
        n_users = int(rng.integers(1, 12))  # few users → cut everywhere
        user = rng.integers(0, n_users, n)
        base = np.datetime64("2025-06-01", "us").astype(np.int64)
        # mix second-scale and hour-scale gaps; FORCE some equal-ts rows
        ts = base + np.sort(rng.choice(
            rng.integers(0, 200_000, n // 2), size=n)) * 1_000_000
        tbl = pa.table({
            "event_id": pa.array(rng.permutation(n).astype(np.int64)),
            "user_id": pa.array(user, pa.int64()),
            "ts": pa.array(ts, pa.timestamp("us")),
            "value": pa.array(rng.integers(0, 9, n).astype(np.float64)),
        })
        f = str(d / f"events_{seed}.parquet")
        pq.write_table(tbl, f)
        ds = ray.data.read_parquet(f)
        con = duckdb.connect()
        con.execute(f"CREATE VIEW events AS SELECT * FROM read_parquet('{f}')")
        width = int(rng.integers(2, 9))
        for block_fn, schema, cut, name, sortk in [
                (_gaps_block, _GAPS_SCHEMA, _GapsCut(), "user_event_gaps",
                 ["user_id"]),
                (_session_block, _SESS_SCHEMA, _SessionCut(),
                 "sessionize_events", ["user_id", "session_id"]),
                (_lag_block, _LAG_SCHEMA, _LagCut(), "lag_diff_events",
                 ["event_id"])]:
            got = _collect(sorted_segment_map(
                ds.select_columns(["user_id", "event_id", "ts", "value"]),
                "user_id", ["ts", "event_id"], block_fn, schema,
                width=width, cut_kernel=cut))
            exp = con.execute(ORACLE_SQL[name]).fetchdf()
            got = got.sort_values(sortk, kind="stable").reset_index(drop=True)
            exp = exp.sort_values(sortk, kind="stable").reset_index(drop=True)
            got, exp = got[sorted(got.columns)], exp[sorted(exp.columns)]
            try:
                pd.testing.assert_frame_equal(got, exp, check_dtype=False)
            except AssertionError as ex:
                raise AssertionError(
                    f"seed={seed} width={width} kernel={name}: {ex}") from ex
