"""Distributed table profiling: one streaming pass, one driver-side fold.

Replaces the reference's whole-file pandas loop
(``/root/reference/stelardataprofiler/tabular_timeseries/profiler.py:329-403``)
with the Ray-Data-native shape from SURVEY.md §3.4:

    read_parquet → map_batches(partial accumulators, batch_format="pyarrow")
        → iter_batches to the driver → merge_states fold → profile dict

Each fold batch contributes ONE small row holding the serialized
accumulator bundle (``dumps_state``: per column moments + KLL + a capped
value counter of typed key/count arrays, + HLL registers once that counter
overflowed), so what the driver pulls is o(input) regardless of data size.
A fold batch is one Ray block, or, where the source's blocks are small
(``_fold_batch_rows``), several blocks packed into a batch of up to
``FOLD_ROWS`` rows. The accumulators are mergeable summaries, so folding
the partials one at a time in stream order gives the same profile as any
merge tree. The final profile dict has the reference's three-part shape
(``analysis`` / ``table`` / ``variables``, profiler.py:343-362).
"""

from __future__ import annotations

import datetime
import pickle

import pyarrow as pa
import pyarrow.compute as pc

import ray.data
from ray.data import DataContext
from ray.data._internal.logical.interfaces import SourceOperator
from ray.data._internal.logical.operators.read_operator import Read
from ray.data._internal.logical.rules.set_read_parallelism import \
    compute_additional_split_factor

from ..config import ProfileConfig
from ..state.column import ColumnAccumulator, make_accumulator


# State blobs start with this magic and a format version. The version
# changes whenever the pickled accumulator layout or the hashes it holds
# change. Format 1 (no header) held ``Counter``-backed value counters and
# set-backed HLLs; format 2 holds typed key/count arrays compressed with
# zlib; format 3 holds the same pickle compressed with zstd.
_STATE_MAGIC = b"DPRS"
STATE_FORMAT = 3
_CODEC = pa.Codec("zstd", 3)
# zstd's largest ratio: an RLE block spends 4 bytes on at most 128 KiB
_ZSTD_MAX_RATIO = 1 << 15

# Most rows one partial folds when ``profile_dataset`` regroups blocks
# (``_fold_batch_rows``) and when ``run_validation`` reads a shard
# (``validate._read_batch_rows``, ``_split_factor``). At 16,384 a
# high-cardinality string column's partial sits just under its counter cap
# (16,384 keys), so every driver merge overflows and re-hashes it; at
# 32,768 the counter overflows in the worker and the driver merges only
# HLL registers.
FOLD_ROWS = 32_768


def dumps_state(obj) -> bytes:
    """``_STATE_MAGIC`` + a 2-byte ``STATE_FORMAT`` + the 8-byte length of
    the raw pickle (zstd's decompressor needs it) + the pickle compressed
    with zstd level 3. Typed key, count and register arrays pickle as raw
    buffers; zstd mostly shrinks the string keys."""
    raw = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    return (_STATE_MAGIC + STATE_FORMAT.to_bytes(2, "little")
            + len(raw).to_bytes(8, "little")
            + _CODEC.compress(raw, asbytes=True))


def loads_state(blob: bytes):
    """Inverse of ``dumps_state``. A blob written in another state format
    (e.g. a checkpoint from an older engine met on resume) raises
    ``ValueError`` naming both formats, instead of failing partway through
    a merge."""
    n = len(_STATE_MAGIC)
    found = (int.from_bytes(blob[n:n + 2], "little")
             if blob[:n] == _STATE_MAGIC else 1)
    if found != STATE_FORMAT:
        raise ValueError(
            f"profile state blob is in state format {found}; this engine "
            f"reads state format {STATE_FORMAT}. Recompute the partition "
            "(delete its checkpoint directory) or resume with the engine "
            "that wrote it.")
    size = int.from_bytes(blob[n + 2:n + 10], "little")
    body = memoryview(blob)[n + 10:]
    # a raw length no zstd frame of this size can hold would have the
    # decompressor allocate it before failing
    if len(blob) < n + 10 or size > len(body) * _ZSTD_MAX_RATIO:
        raise ValueError(
            f"profile state blob is truncated or corrupt: {len(blob)} bytes "
            f"claiming a {size}-byte state. Recompute the partition "
            "(delete its checkpoint directory).")
    try:
        raw = _CODEC.decompress(body, decompressed_size=size, asbytes=True)
    except OSError as e:
        raise ValueError(f"profile state blob is corrupt: {e}. Recompute "
                         "the partition (delete its checkpoint "
                         "directory).") from e
    return pickle.loads(raw)


class _PartialProfiler:
    """Fold Arrow batches into state blobs. As a map_batches callable
    (``profile_dataset``) it folds one batch into fresh accumulators and
    emits one serialized-state row, or one row per partition value when a
    ``part_column`` is set. ``run_validation`` does not map it: its read
    tasks (``_FoldAndProject``) and ``_refold_shard`` call ``fold`` on each
    part's rows directly."""

    _PROBE_FLAGS = ("all_datetime", "all_boolean", "all_numeric",
                    "all_geometry")

    def __init__(self, schema: pa.Schema, config: ProfileConfig,
                 part_column: str | None = None):
        self.schema = schema
        self.config = config
        self.part_column = part_column
        # per-(part, column) probe verdicts already known False in THIS
        # instance: a later batch pre-sets them so the head-sample parses
        # (dateutil/to_numeric) run only until the first failing value.
        # Ray deserializes the callable afresh for every task, so this
        # carries only across the batches of one task: the fold batches of
        # one bundle in ``profile_dataset``, the read batches of one
        # ``run_validation`` read task, and ``_refold_shard``'s
        # batches. Sound because the flags are AND-merged:
        # forcing False on a batch whose own values would have passed gives
        # the same merged result the failing batch already forces. Keyed by
        # part so one partition's verdict never leaks into another's
        # checkpointed state.
        self._dead_probes: dict[tuple[str | None, str], tuple[str, ...]] = {}

    def fold(self, batch: pa.Table, part: str | None = None) -> bytes:
        """One batch of one part as a state blob (``dumps_state``)."""
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
            subs = [(None, batch)]
        else:
            col = batch.column(self.part_column)
            subs = [(p, batch.filter(pc.equal(col, p)))
                    for p in pc.unique(col).to_pylist()]
        return pa.table({
            "part": pa.array([p for p, _ in subs], type=pa.string()),
            "rows": pa.array([len(sub) for _, sub in subs], type=pa.int64()),
            "state": pa.array([self.fold(sub, part=p) for p, sub in subs],
                              type=pa.large_binary()),
        })


def _fold_batch_rows(ds: "ray.data.Dataset") -> int | None:
    """The partial stage's ``batch_size`` for ``ds``: the rows one partial
    folds, or None for one partial per Ray block.

    A batch holds at most ``FOLD_ROWS`` rows, at most
    ``target_max_block_size`` bytes at the source's mean row width, and at
    most its share of the rows spread over the cluster's CPUs. Ray packs
    blocks into one task until it holds a batch, then cuts that into a
    batch and the rest: at most two partials per task, each paying its
    fixed cost once. That folds fewer partials than blocks only when three
    or more blocks fit in a batch, so larger blocks (and a ``ds`` that is
    not a read or blocks already made, whose blocks are unknown) keep one
    partial per block. An unsplit read then keeps folding each block in
    its read task: Ray fuses no map that sets a ``batch_size`` with a
    read."""
    op = ds._logical_plan.dag
    target = DataContext.get_current().target_max_block_size
    if isinstance(op, Read):
        # the blocks the read's planning will make (Ray's own rule)
        blocks = compute_additional_split_factor(
            op._datasource_or_legacy_reader, op._parallelism, op._mem_size,
            target)[2]
    elif isinstance(op, SourceOperator) and op.output_data() is not None:
        blocks = sum(len(b.block_refs) for b in op.output_data())
    else:
        return None
    meta = op.infer_metadata()
    if not blocks or not meta.num_rows or not meta.size_bytes:
        return None
    cpus = max(1, int(ray.cluster_resources().get("CPU", 1)))
    rows = min(FOLD_ROWS, -(-meta.num_rows // cpus))
    if target:
        rows = max(1, min(rows, target * meta.num_rows // meta.size_bytes))
    return rows if 2 * meta.num_rows < blocks * rows else None


def _partials(ds: "ray.data.Dataset", schema: pa.Schema,
              config: ProfileConfig, part_column: str | None = None,
              batch_rows: int | None = None):
    """Yield ``(part, rows, blob)`` for every partial-state row of ``ds``,
    one partial per batch of ``batch_rows`` rows, or per Ray block when
    None (``part`` is None without a ``part_column``). The states merge
    under any grouping of the rows, so regrouping blocks into batches
    changes no guarantee."""
    stream = ds.map_batches(_PartialProfiler(schema, config, part_column),
                            batch_format="pyarrow", batch_size=batch_rows)
    for b in stream.iter_batches(batch_format="pyarrow", batch_size=None):
        yield from zip(b.column("part").to_pylist(),
                       b.column("rows").to_pylist(),
                       b.column("state").to_pylist())


def merge_states(blobs) -> tuple[int, dict[str, ColumnAccumulator]]:
    """Fold state blobs into ``(rows, {column: accumulator})``, unpickling
    one blob at a time so the driver holds one merged state plus one
    partial. The only merge of profile states: every accumulator merges
    associatively, so a fold in stream order is a valid merge."""
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


# the name perfbench/layers.py calls
merge_state_blobs_distributed = merge_states


def fold_partials(partials: list[tuple[int, bytes]]) -> tuple[int, bytes]:
    """One partition's ``(rows, blob)`` from its block partials ``(rows,
    blob)``, folded in the given order: a single partial passes through
    byte-identical; several fold with ``merge_states`` and dump again."""
    if len(partials) == 1:
        return partials[0]
    rows, accs = merge_states(b for _, b in partials)
    return rows, dumps_state((rows, accs))


def profile_partials_by_part(ds: "ray.data.Dataset", config: ProfileConfig,
                             part_column: str = "part",
                             schema: pa.Schema | None = None) -> pa.Table:
    """Per-partition merged profile states as a (part, rows, state) table.

    The partials stream to the driver and each part's are folded by
    ``fold_partials`` in stream order. ``run_validation`` does not use
    this: its workers write the partials to files, and the driver folds
    them in sorted-name order. This table form serves the per-layer
    probes that time the partial fold on its own.

    ``schema``: ``ds``'s schema when the caller knows it (e.g. from the
    Parquet footers); the default ``ds.schema()`` executes a mapped
    dataset."""
    if schema is None:
        s = ds.schema()
        schema = pa.schema([pa.field(n, t) for n, t in zip(s.names, s.types)])
    by_part: dict[str, list[tuple[int, bytes]]] = {}
    for part, rows, blob in _partials(ds, schema, config, part_column,
                                      _fold_batch_rows(ds)):
        by_part.setdefault(part, []).append((rows, blob))
    parts = sorted(by_part)
    folded = [fold_partials(by_part[p]) for p in parts]
    return pa.table({
        "part": pa.array(parts, pa.string()),
        "rows": pa.array([rows for rows, _ in folded], pa.int64()),
        "state": pa.array([blob for _, blob in folded], pa.large_binary()),
    })


def profile_dataset(ds: "ray.data.Dataset", config: ProfileConfig | None = None,
                    filenames: list[str] | None = None) -> dict:
    """Profile a Dataset into the reference-shaped dict: the partials of
    its fold batches (``_fold_batch_rows``) fold on the driver as they
    stream in."""
    config = config or ProfileConfig()
    t0 = datetime.datetime.now()
    schema = ds.schema()
    arrow_schema = pa.schema([pa.field(n, t) for n, t in
                              zip(schema.names, schema.types)])
    # read off the source, before a column selection hides it
    batch_rows = _fold_batch_rows(ds)
    if config.columns:
        ds = ds.select_columns([c for c in config.columns])
    total_rows, merged = merge_states(
        blob for _, _, blob in _partials(ds, arrow_schema, config,
                                         batch_rows=batch_rows))
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
        var = acc.result(config.max_freq_distr, config.num_cat_perc_threshold)
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
