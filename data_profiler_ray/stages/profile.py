"""Distributed table profiling: one streaming pass, one driver-side fold.

Replaces the reference's whole-file pandas loop
(``/root/reference/stelardataprofiler/tabular_timeseries/profiler.py:329-403``)
with the Ray-Data-native shape from SURVEY.md §3.4:

    read (+ partial accumulators per fold unit or block)
        → iter_batches to the driver → merge_states fold → profile dict

Each partial contributes ONE small row holding the serialized accumulator
bundle (``dumps_state``: per column moments + KLL + a capped value counter
of typed key/count arrays, + HLL registers once that counter overflowed),
so what the driver pulls is o(input) regardless of data size.

A bare ``read_parquet`` is read again from its footers (``stages.plan``)
through ``plan.FoldUnitsDatasource``: one read task per CPU, each reading a
contiguous run of fold units (``plan.fold_units``: consecutive row groups
of at most ``FOLD_ROWS`` rows) and folding each unit's read batches into
one partial. Any other Dataset folds one partial per Ray block. Either way
the driver folds the partials in the stream's block order
(``preserve_order``), so a Parquet input's profile depends on the files
alone, not on the CPU count or on which task finished first: KLL
compaction, the Misra-Gries shrink and float sums all depend on merge
order. The final profile dict has the reference's three-part shape
(``analysis`` / ``table`` / ``variables``, profiler.py:343-362).
"""

from __future__ import annotations

import datetime
import functools
import pickle

import pyarrow as pa
import pyarrow.compute as pc

from ..config import ProfileConfig
from ..state.column import ColumnAccumulator, make_accumulator
from .plan import (FoldUnitsDatasource, _read_batch_rows, _unit_batches,
                   bare_parquet_footers, numbered_units, unit_runs)


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
    """Fold Arrow batches into state blobs. ``fold`` folds a sequence of
    batches, in order, into one set of fresh accumulators and returns one
    blob; a single batch is the one-batch case. The read tasks of both
    entry points (``plan.FoldUnitsDatasource``) fold one fold unit's read
    batches per call. As a map_batches callable (any other Dataset) it
    folds one Ray block and emits one serialized-state row, or one row per
    partition value when a ``part_column`` is set."""

    _PROBE_FLAGS = ("all_datetime", "all_boolean", "all_numeric",
                    "all_geometry")

    def __init__(self, schema: pa.Schema, config: ProfileConfig,
                 part_column: str | None = None):
        self.schema = schema
        self.config = config
        self.part_column = part_column
        # per-(part, column) probe verdicts already known False in THIS
        # instance: a later fold pre-sets them so the head-sample parses
        # (dateutil/to_numeric) run only until the first failing value.
        # Ray deserializes the profiler afresh for every task, so this
        # carries only across the fold units of one read task (of either
        # entry point) or the blocks of one map task. Sound because the
        # flags are AND-merged: forcing False on a batch whose own values
        # would have passed gives the same merged result the failing batch
        # already forces. Keyed by part so one partition's verdict never
        # leaks into another's checkpointed state.
        self._dead_probes: dict[tuple[str | None, str], tuple[str, ...]] = {}

    def fold(self, batches, part: str | None = None) -> bytes:
        """``batches`` (one Arrow table or record batch, or an iterable of
        them) of one part, folded in order, as a state blob
        (``dumps_state``)."""
        if isinstance(batches, (pa.Table, pa.RecordBatch)):
            batches = (batches,)
        accs: dict[str, ColumnAccumulator] = {}
        cols = [n for n in self.config.columns or self.schema.names
                if not (self.part_column and n == self.part_column)]
        for name in cols:
            if name in (self.config.geometry_columns or ()):
                from ..state.column import GeometryAccumulator
                acc = GeometryAccumulator(name, crs=self.config.geometry_crs)
            else:
                acc = make_accumulator(
                    self.schema.field(name), text_stats=self.config.text_stats
                    and not self.config.light_mode)
            for f in self._dead_probes.get((part, name), ()):
                setattr(acc, f, False)
            accs[name] = acc
        rows = 0
        for batch in batches:
            rows += len(batch)
            for name, acc in accs.items():
                acc.update(batch.column(name))
        for name, acc in accs.items():
            dead = tuple(f for f in self._PROBE_FLAGS
                         if getattr(acc, f, True) is False)
            if dead:
                self._dead_probes[(part, name)] = dead
        return dumps_state((rows, accs))

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


def _fold_unit_run(run: list, profiler: _PartialProfiler, batch_rows: int,
                   columns: list[str] | None):
    """A ``profile_dataset`` read task (``plan.FoldUnitsDatasource``): one
    ``(part, rows, state)`` row per ``(k, unit, rows)`` of ``run``."""
    for _, unit, rows in run:
        blob = profiler.fold(_unit_batches(unit, batch_rows, columns))
        yield pa.table({"part": pa.array([None], pa.string()),
                        "rows": pa.array([rows], pa.int64()),
                        "state": pa.array([blob], pa.large_binary())})


def _partials(ds: "ray.data.Dataset", schema: pa.Schema,
              config: ProfileConfig, part_column: str | None = None):
    """Yield ``(part, rows, blob)`` for every partial-state row of ``ds``
    (``part`` is None without a ``part_column``): one partial per Ray
    block, or per read batch where Ray fuses the map with a read, in block
    order (``_in_order``)."""
    yield from _in_order(ds.map_batches(
        _PartialProfiler(schema, config, part_column),
        batch_format="pyarrow", batch_size=None))


def _in_order(stream: "ray.data.Dataset"):
    """Yield ``(part, rows, blob)`` for every row of a partial stream, in
    block order. The order is ``preserve_order``'s, set on ``stream``'s
    context for the stream and restored after it, so it does not depend
    on which task finishes first."""
    opts = stream.context.execution_options
    kept, opts.preserve_order = opts.preserve_order, True
    try:
        for b in stream.iter_batches(batch_format="pyarrow",
                                     batch_size=None):
            yield from zip(b.column("part").to_pylist(),
                           b.column("rows").to_pylist(),
                           b.column("state").to_pylist())
    finally:
        opts.preserve_order = kept


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
    for part, rows, blob in _partials(ds, schema, config, part_column):
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
    """Profile a Dataset into the reference-shaped dict. A bare
    ``read_parquet`` (``stages.plan.bare_parquet_footers``) is read again
    as its fold units, each folded into one partial inside its read task
    (``plan.FoldUnitsDatasource``); any other Dataset folds one partial per
    block. The partials fold on the driver as they stream in, in the
    stream's order."""
    config = config or ProfileConfig()
    t0 = datetime.datetime.now()
    schema = ds.schema()
    arrow_schema = pa.schema([pa.field(n, t) for n, t in
                              zip(schema.names, schema.types)])
    metas = bare_parquet_footers(ds)
    if metas is not None:
        read_run = functools.partial(
            _fold_unit_run, profiler=_PartialProfiler(arrow_schema, config),
            batch_rows=_read_batch_rows(metas),
            columns=config.columns or None)
        partials = _in_order(FoldUnitsDatasource(
            unit_runs(numbered_units(metas)), read_run).read())
    else:
        if config.columns:
            ds = ds.select_columns(config.columns)
        partials = _partials(ds, arrow_schema, config)
    total_rows, merged = merge_states(blob for _, _, blob in partials)
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
