"""Segment-path vs map_groups benchmark (VERDICT r2 item 1 done-criterion).

Synthesizes a 1M-row event stream over 120k users (deterministic seed),
then times the per-user sessionize kernel two ways in ONE Ray session:

- map_groups: ``groupby(user).map_groups`` with the round-2 per-group
  vectorized kernel (one Python call + pa.Table build per user);
- segments:  ``stages.segments.sorted_segment_map`` with the round-3
  multi-segment reduceat kernel (same sort exchange, zero per-group
  dispatch).

Also cross-checks that both paths produce identical session tables.
Run EXCLUSIVELY (no concurrent pytest/bench): this box is virtualized with
±50% noise; repeat and take medians.
"""

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

N_ROWS = 1_000_000
N_USERS = 120_000
GAP_US = 30 * 60 * 1_000_000


def make_events() -> pa.Table:
    rng = np.random.default_rng(2023)
    user = rng.integers(0, N_USERS, N_ROWS)
    ts = (rng.integers(0, 90 * 24 * 3600, N_ROWS).astype(np.int64)
          * 1_000_000)
    val = rng.random(N_ROWS) * 100
    return pa.table({
        "user_id": pa.array(user, pa.int64()),
        "event_id": pa.array(np.arange(N_ROWS), pa.int64()),
        "ts": pa.array(ts, pa.int64()).cast(pa.timestamp("us")),
        "value": pa.array(val, pa.float64()),
    })


def sessions_map_groups(ds):
    def sessions(group: pa.Table) -> pa.Table:
        order = pc.sort_indices(group, sort_keys=[("ts", "ascending"),
                                                  ("event_id", "ascending")])
        g = group.take(order)
        ts = g.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        val = g.column("value").to_numpy(zero_copy_only=False)
        new_sess = np.ones(ts.size, dtype=np.int64)
        new_sess[1:] = (np.diff(ts) > GAP_US).astype(np.int64)
        sess_id = np.cumsum(new_sess)
        uniq, starts_idx = np.unique(sess_id, return_index=True)
        ends_idx = np.append(starts_idx[1:], ts.size)
        return pa.table({
            "user_id": pa.array(
                np.repeat(g.column("user_id")[0].as_py(), uniq.size),
                pa.int64()),
            "session_id": pa.array(uniq, pa.int64()),
            "n_events": pa.array(ends_idx - starts_idx, pa.int64()),
            "session_start_us": pa.array(ts[starts_idx], pa.int64()),
            "session_end_us": pa.array(ts[ends_idx - 1], pa.int64()),
            "sum_value": pa.array(np.add.reduceat(val, starts_idx),
                                  pa.float64()),
        })

    return ds.groupby("user_id").map_groups(sessions, batch_format="pyarrow")


def sessions_segments(ds):
    from data_profiler_ray.pipelines.queries import (_SESS_SCHEMA,
                                                     _session_block)
    from data_profiler_ray.stages.segments import sorted_segment_map
    return sorted_segment_map(ds, "user_id", ["ts", "event_id"],
                              _session_block, _SESS_SCHEMA)


def collect(ds) -> pd.DataFrame:
    t = pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow")))
    return (t.to_pandas().sort_values(["user_id", "session_id"])
            .reset_index(drop=True))


def main():
    cpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    ray.init(address="local", num_cpus=cpus, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    tbl = make_events()
    results = {}
    # warmup the worker pool on a slice
    warm = ray.data.from_arrow(tbl.slice(0, 50_000)).repartition(8)
    collect(sessions_segments(warm))

    ds = ray.data.from_arrow(tbl).repartition(64).materialize()
    for name, fn in [("segments", sessions_segments),
                     ("map_groups", sessions_map_groups),
                     ("segments_2", sessions_segments),
                     ("map_groups_2", sessions_map_groups)]:
        t0 = time.time()
        out = collect(fn(ds))
        results[name] = round(time.time() - t0, 2)
        results[f"{name}_rows"] = len(out)
        if name.startswith("segments"):
            seg_out = out
        else:
            pd.testing.assert_frame_equal(
                seg_out, out, check_exact=False, rtol=0, atol=1e-9)
    print({"rows": N_ROWS, "users": N_USERS, "cpus": cpus, **results})
    ray.shutdown()


if __name__ == "__main__":
    main()
