"""Distributed table profiling: one streaming pass, tree-merged accumulators.

Replaces the reference's whole-file pandas loop
(``/root/reference/stelardataprofiler/tabular_timeseries/profiler.py:329-403``)
with the Ray-Data-native shape from SURVEY.md §3.4:

    read_parquet → map_batches(partial accumulators, batch_format="pyarrow")
        → groupby(shard).map_groups(merge)  [tree reduction]
        → driver merge of ≤merge_shards tiny states → profile dict

Each block contributes ONE small row holding the pickled accumulator bundle
(a few KB per column: moments + KLL + HLL + capped counter), so the shuffle
volume of the reduction is o(input) regardless of data size. The final
profile dict has the reference's three-part shape
(``analysis`` / ``table`` / ``variables``, profiler.py:343-362).
"""

from __future__ import annotations

import datetime
import pickle
import zlib

import pyarrow as pa

import ray.data

from ..config import ProfileConfig
from ..state.column import ColumnAccumulator, make_accumulator


def dumps_state(obj) -> bytes:
    """pickle + zlib-1: per-part accumulator bundles are string-heavy
    (capped value counters) and compress ~4x — shrinking both the partial
    exchange through the object store and the per-part checkpoint write
    (the latter measured 17.6 s at 146 MB on this box's ~8 MB/s disk)."""
    return zlib.compress(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL),
                         1)


def loads_state(blob: bytes):
    """Inverse of ``dumps_state`` (accepts raw pickle for robustness)."""
    if blob[:2] == b"\x78\x01":
        return pickle.loads(zlib.decompress(blob))
    return pickle.loads(blob)


class _PartialProfiler:
    """map_batches callable: fold one Arrow batch into fresh accumulators and
    emit a single serialized-state row (one row per partition value when a
    ``part_column`` is set — blocks come from single files, so a batch almost
    always holds exactly one partition)."""

    _PROBE_FLAGS = ("all_datetime", "all_boolean", "all_numeric",
                    "all_geometry")

    def __init__(self, schema: pa.Schema, config: ProfileConfig,
                 part_column: str | None = None):
        self.schema = schema
        self.config = config
        self.part_column = part_column
        # per-(part, column) probe verdicts already known False in THIS
        # worker: a later batch pre-sets them so the head-sample parses
        # (dateutil/to_numeric — measured ~10% of the fold) run only until
        # the first failing value. Sound because the flags are AND-merged:
        # forcing False on a batch whose own values would have passed gives
        # the same merged result the failing batch already forces. Keyed by
        # part so one partition's verdict never leaks into another's
        # checkpointed state.
        self._dead_probes: dict[tuple[str | None, str], tuple[str, ...]] = {}

    def _fold(self, batch: pa.Table, part: str | None = None) -> bytes:
        accs: dict[str, ColumnAccumulator] = {}
        cols = self.config.columns or self.schema.names
        for name in cols:
            if self.part_column and name == self.part_column:
                continue
            fld = self.schema.field(name)
            if name in (self.config.geometry_columns or ()):
                from ..state.column import GeometryAccumulator
                acc = GeometryAccumulator(name, crs=self.config.geometry_crs)
            else:
                acc = make_accumulator(
                    fld, text_stats=self.config.text_stats
                    and not self.config.light_mode)
            for f in self._dead_probes.get((part, name), ()):
                setattr(acc, f, False)
            acc.update(batch.column(name))
            dead = tuple(f for f in self._PROBE_FLAGS
                         if getattr(acc, f, True) is False)
            if dead:
                self._dead_probes[(part, name)] = dead
            accs[name] = acc
        return dumps_state((len(batch), accs))

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.part_column is None:
            return pa.table({
                "rows": pa.array([len(batch)], type=pa.int64()),
                "state": pa.array([self._fold(batch)], type=pa.large_binary()),
            })
        parts, rows, states = [], [], []
        import pyarrow.compute as pc
        for part in pc.unique(batch.column(self.part_column)).to_pylist():
            sub = batch.filter(pc.equal(batch.column(self.part_column), part))
            parts.append(part)
            rows.append(len(sub))
            states.append(self._fold(sub, part=part))
        return pa.table({
            "part": pa.array(parts, type=pa.string()),
            "rows": pa.array(rows, type=pa.int64()),
            "state": pa.array(states, type=pa.large_binary()),
        })


def _merge_states(blobs: list[bytes]) -> tuple[int, dict[str, ColumnAccumulator]]:
    total_rows = 0
    merged: dict[str, ColumnAccumulator] = {}
    for blob in blobs:
        rows, accs = loads_state(blob)
        total_rows += rows
        for name, acc in accs.items():
            if name in merged:
                merged[name].merge(acc)
            else:
                merged[name] = acc
    return total_rows, merged


@ray.remote(num_cpus=1)
def _merge_part_state(blobs: list[bytes]) -> tuple[int, bytes]:
    """One partition's partial-state merge as a Ray task (fan-out across
    parts — removes the serial driver merge, see profile_partials_by_part)."""
    rows, accs = _merge_states(blobs)
    return rows, dumps_state((rows, accs))


def _merge_group(batch: pa.Table) -> pa.Table:
    rows, merged = _merge_states(batch.column("state").to_pylist())
    payload = dumps_state((rows, merged))
    return pa.table({
        "rows": pa.array([rows], type=pa.int64()),
        "state": pa.array([payload], type=pa.large_binary()),
    })


def profile_partials_by_part(ds: "ray.data.Dataset", config: ProfileConfig,
                             part_column: str = "part",
                             schema: pa.Schema | None = None) -> pa.Table:
    """Per-partition merged profile states as a (part, rows, state) table.

    Used by the checkpointable validation pipeline — each partition's merged
    accumulator bundle (~1 MB of sketch state) is persisted as that
    partition's resumable checkpoint; the global profile is the driver-side
    merge of all per-partition states (the associative algebra of §2.5).

    The per-part merge happens ON THE DRIVER, streaming over the partial
    rows: a ``groupby(part)`` here would push the MB-sized state rows
    through a full Ray sort exchange (measured 19.5 s for 132 MB of states
    vs ~2 s streaming) — and the driver must hold one state per part anyway
    to write the checkpoints, so the memory envelope is unchanged.

    ``schema``: ``ds``'s schema when the caller knows it (e.g. from the
    Parquet footers); the default ``ds.schema()`` executes a mapped
    dataset."""
    if schema is None:
        s = ds.schema()
        schema = pa.schema([pa.field(n, t) for n, t in zip(s.names, s.types)])
    partials = ds.map_batches(
        _PartialProfiler(schema, config, part_column=part_column),
        batch_format="pyarrow", batch_size=config.batch_size)
    # collect raw blobs per part first: with shard-aligned blocks (one read
    # task per file) every part has exactly ONE partial, and its pickled
    # state passes through untouched — the unpickle+merge+repickle path
    # (measured ~2.4 s driver-serial at 64 parts × 0.5 MB) runs only for
    # parts that were split across blocks
    blobs_by_part: dict[str, list[tuple[int, bytes]]] = {}
    for b in partials.iter_batches(batch_format="pyarrow"):
        for part, nrows, blob in zip(b.column("part").to_pylist(),
                                     b.column("rows").to_pylist(),
                                     b.column("state").to_pylist()):
            blobs_by_part.setdefault(part, []).append((nrows, blob))
    parts = sorted(blobs_by_part)
    # Ray's read-stage block splitting (e.g. ReadParquet->SplitBlocks(4))
    # gives each part SEVERAL partials; the unpickle+merge+repickle of
    # every part on the driver is serial time that taxes high-CPU runs
    # hardest (measured ~11 s of the 28 s profile stage at 4M turns /
    # 8 cpus — a direct scaling-efficiency loss). Multi-partial parts are
    # merged in PARALLEL Ray tasks instead; 1-partial parts pass through
    # untouched as before.
    import ray as _ray
    futures: dict[str, "_ray.ObjectRef"] = {}
    for p in parts:
        entries = blobs_by_part[p]
        if len(entries) > 1:
            futures[p] = _merge_part_state.remote([e[1] for e in entries])
    merged = dict(zip(futures, _ray.get(list(futures.values()))))
    rows_out, state_out = [], []
    for p in parts:
        entries = blobs_by_part[p]
        if len(entries) == 1:
            rows_out.append(entries[0][0])
            state_out.append(entries[0][1])
        else:
            rows, blob = merged[p]
            rows_out.append(rows)
            state_out.append(blob)
    return pa.table({
        "part": pa.array(parts, pa.string()),
        "rows": pa.array(rows_out, pa.int64()),
        "state": pa.array(state_out, pa.large_binary()),
    })


# Blobs up to this many bytes in total are merged on the driver. The driver
# merged 16 checkpoint blobs (3 MB) in 0.22 s on one pinned CPU, while the
# fan-in tree, a Ray Data job, took 0.5-0.8 s for the same blobs; 8 MB is
# about where the driver merge costs what the tree's job overhead does.
_DRIVER_MERGE_MAX_BYTES = 8 << 20


def merge_state_blobs_distributed(blobs: list[bytes], fan_in: int = 8
                                  ) -> tuple[int, dict]:
    """Merge many per-part state blobs; tree-merge large ones via parallel
    Ray tasks.

    Small totals (≤ ``_DRIVER_MERGE_MAX_BYTES``) merge on the driver. Above
    that, the driver-serial merge costs O(N × counter size) Python time
    (measured ~6.8 s at 64 parts / 4M rows) that does not shrink with more
    CPUs, so one parallel level of ``fan_in``-way merge tasks runs first,
    repeated until the rest fits the driver."""
    if (len(blobs) <= max(fan_in, 2)
            or sum(map(len, blobs)) <= _DRIVER_MERGE_MAX_BYTES):
        return _merge_states(blobs)
    tables = []
    for i in range(0, len(blobs), fan_in):
        chunk = blobs[i:i + fan_in]
        tables.append(pa.table({
            "rows": pa.array([0] * len(chunk), pa.int64()),
            "state": pa.array(chunk, pa.large_binary())}))
    # one table per block → one merge TASK per fan_in-sized chunk
    reduced = ray.data.from_arrow(tables).map_batches(
        _merge_group, batch_format="pyarrow", batch_size=None).materialize()
    final = [r["state"] for r in reduced.take_all()]
    return merge_state_blobs_distributed(final, fan_in)


def profile_dataset(ds: "ray.data.Dataset", config: ProfileConfig | None = None,
                    filenames: list[str] | None = None) -> dict:
    """Profile a Dataset into the reference-shaped dict."""
    config = config or ProfileConfig()
    t0 = datetime.datetime.now()
    schema = ds.schema()
    arrow_schema = pa.schema([pa.field(n, t) for n, t in
                              zip(schema.names, schema.types)])
    if config.columns:
        ds = ds.select_columns([c for c in config.columns])

    partials = ds.map_batches(
        _PartialProfiler(arrow_schema, config),
        batch_format="pyarrow",
        batch_size=config.batch_size,
    )
    # tree reduction: map_batches levels coalesce up to merge_shards
    # partial-state rows per task (batch_size spans block boundaries, no
    # shuffle/sort op needed), REPEATED until at most merge_shards states
    # remain for the driver — logarithmic depth, so 10^6 input blocks give
    # the driver ~32 states, not 31k. Shuffle volume is o(input): each
    # partial row is sketch state of bounded size regardless of block size.
    fan_in = max(config.merge_shards, 2)
    reduced = partials.map_batches(_merge_group, batch_format="pyarrow",
                                   batch_size=fan_in).materialize()
    while reduced.count() > fan_in:
        reduced = reduced.map_batches(_merge_group, batch_format="pyarrow",
                                      batch_size=fan_in).materialize()
    final_blobs = [r["state"] for r in reduced.take_all()]
    total_rows, merged = _merge_states(final_blobs)
    if not merged:  # empty input: still emit one typed variable per column
        cols = config.columns or arrow_schema.names
        merged = {n: make_accumulator(arrow_schema.field(n),
                                      text_stats=config.text_stats)
                  for n in cols}
    return finalize_profile(total_rows, merged, config, t0,
                            filenames=filenames or [])


def finalize_profile(total_rows: int, merged: dict[str, ColumnAccumulator],
                     config: ProfileConfig, t0: datetime.datetime,
                     filenames: list[str]) -> dict:
    """Assemble the reference's {analysis, table, variables} shape
    (profiler.py:343-367) + table stats A3 (variables/utils.py:434-478)."""
    variables = []
    for name, acc in merged.items():
        var = acc.result()
        if config.types_dict and name in config.types_dict:
            var["type"] = config.types_dict[name]  # user override (profiler.py:338-339)
        variables.append(var)

    n_cells_missing = sum(v["num_missing"] for v in variables)
    n_vars_missing = sum(1 for v in variables if v["num_missing"] > 0)
    n_vars_all_missing = sum(1 for v in variables if v["count"] == 0)
    memory = sum(v["memory_size"] for v in variables)
    type_counts: dict[str, int] = {}
    for v in variables:
        type_counts[v["type"]] = type_counts.get(v["type"], 0) + 1
    n_attrs = len(variables)
    t1 = datetime.datetime.now()
    return {
        "analysis": {
            "title": config.title,
            "date_start": t0.isoformat(),
            "date_end": t1.isoformat(),
            "duration": str(t1 - t0),
            "filenames": filenames,
        },
        "table": {
            "profiler_type": "Tabular",
            "num_rows": total_rows,
            "num_attributes": n_attrs,
            "memory_size": memory,
            "record_size": (memory / total_rows) if total_rows else 0.0,
            "n_cells_missing": n_cells_missing,
            "p_cells_missing": (n_cells_missing / (total_rows * n_attrs)
                                if total_rows and n_attrs else 0.0),
            "n_vars_with_missing": n_vars_missing,
            "n_vars_all_missing": n_vars_all_missing,
            "types": [{"type": k, "count": c} for k, c in sorted(type_counts.items())],
        },
        "variables": variables,
    }
