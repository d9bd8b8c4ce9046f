"""Read plans from Parquet footers, shared by both entry points.

Both entry points read Parquet as fold units fixed by the footers
(``pq.read_metadata``, once per file per call): runs of consecutive row
groups of at most ``FOLD_ROWS`` rows (``fold_units``), each read in
``_read_batch_rows`` batches and folded into one partial inside its read
task. ``unit_runs`` packs the units into one read task per CPU, regrouping
whole units only, and ``FoldUnitsDatasource`` reads the runs through Ray
Data's public ``Datasource`` API. So the partials, and hence the profile,
depend on the input alone, not on the CPU count or the task order.
``profile_dataset`` plans the units of all its files; ``run_validation``
plans each pending shard's units on their own, so a shard folds the same
partials whether it is pending alone or with the others.

Ray's own read planning would size batches from the files it samples and
split blocks by the CPU count, so the partials would depend on the
cluster.
"""

from __future__ import annotations

import functools
import os

import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data
from ray.data import Datasource, ReadTask
from ray.data.block import BlockMetadata

# Most rows of one fold unit (``fold_units``), unless one row group alone
# holds more, and of one Parquet read batch (``_read_batch_rows``). At
# 16,384 a high-cardinality string column's partial sits just under its
# counter cap (16,384 keys), so every driver merge overflows and re-hashes
# it; at 32,768 the counter overflows in the worker and the driver merges
# only HLL registers.
FOLD_ROWS = 32_768


def _cpus() -> int:
    """The cluster's CPUs, at least 1."""
    return max(1, int(ray.cluster_resources().get("CPU", 1)))


def _footer_bytes(md: pq.FileMetaData) -> int:
    """Uncompressed bytes of a file, from its footer."""
    return sum(md.row_group(rg).total_byte_size
               for rg in range(md.num_row_groups))


def _read_batch_rows(metas: dict[str, pq.FileMetaData]) -> int:
    """Rows per Parquet read batch: ``FOLD_ROWS``, or fewer where a batch
    of the input's widest rows would exceed one Ray block. A fold unit
    folds all its batches into one partial, so this bounds the rows held
    at once, not the partial count. It depends on ``metas`` alone, which
    ``run_validation`` gives for all its shards, pending or not: Ray's
    own batch size comes from the row widths of the files it samples,
    and from the block target."""
    target = ray.data.DataContext.get_current().target_max_block_size
    widest = max(-(-_footer_bytes(md) // max(1, md.num_rows))
                 for md in metas.values())
    return max(1, min(FOLD_ROWS, target // max(1, widest))) if target \
        else FOLD_ROWS


def _column_bytes(metas: list[pq.FileMetaData], columns: list[str]) -> int:
    """Uncompressed bytes of ``columns`` over the files of ``metas``, from
    their footers."""
    total = 0
    for md in metas:
        for rg in range(md.num_row_groups):
            group = md.row_group(rg)
            total += sum(group.column(i).total_uncompressed_size
                         for i in range(group.num_columns)
                         if group.column(i).path_in_schema in columns)
    return total


def fold_units(metas: dict[str, pq.FileMetaData]
               ) -> list[list[tuple[str, list[int]]]]:
    """The input's fold units, each a list of ``(file, row
    groups)``: runs of consecutive row groups, in sorted file order, of at
    most ``FOLD_ROWS`` rows each, cut only at row-group boundaries. A row
    group of more than ``FOLD_ROWS`` rows is a unit of its own; row groups
    without rows are in none. This depends on ``metas`` alone."""
    units: list[list[tuple[str, list[int]]]] = []
    unit: list[tuple[str, list[int]]] = []
    rows = 0
    for path in sorted(metas):
        md = metas[path]
        for rg in range(md.num_row_groups):
            n = md.row_group(rg).num_rows
            if not n:
                continue
            if unit and rows + n > FOLD_ROWS:
                units.append(unit)
                unit, rows = [], 0
            if unit and unit[-1][0] == path:
                unit[-1][1].append(rg)
            else:
                unit.append((path, [rg]))
            rows += n
    if unit:
        units.append(unit)
    return units


def unit_runs(units: list) -> list[list]:
    """``units`` as ``min(CPUs, len(units))`` contiguous runs of about
    equal length, one per read task: the task count regroups whole units
    only, so the partials are the same at any CPU count."""
    tasks = min(_cpus(), len(units))
    if not tasks:
        return []
    cuts = [len(units) * i // tasks for i in range(tasks + 1)]
    return [units[a:b] for a, b in zip(cuts, cuts[1:])]


def numbered_units(metas: dict[str, pq.FileMetaData]
                   ) -> list[tuple[int, list, int]]:
    """``fold_units(metas)`` as ``(k, unit, rows)``: each unit with its
    index and its footer row count."""
    return [(k, unit, sum(metas[p].row_group(g).num_rows
                          for p, groups in unit for g in groups))
            for k, unit in enumerate(fold_units(metas))]


def _unit_batches(unit: list[tuple[str, list[int]]], batch_rows: int,
                  columns: list[str] | None):
    """The row groups of a fold unit in Parquet read batches of at most
    ``batch_rows`` rows, in file order, each as a table as Ray's read
    gives it: ``memory_size`` counts a column's validity bitmap only
    where it holds nulls, as a table column's ``combine_chunks`` does."""
    for path, groups in unit:
        with pq.ParquetFile(path) as f:
            for b in f.iter_batches(batch_size=batch_rows,
                                    row_groups=groups, columns=columns):
                yield pa.Table.from_batches([b])


class FoldUnitsDatasource(Datasource):
    """Fold units read as one read task per run (``unit_runs`` of
    ``numbered_units``): a task's blocks are ``read_run(run)``'s tables.
    The runs are fixed when the datasource is built, and ``read`` asks
    for exactly that many blocks, so Ray adds no split of its own."""

    def __init__(self, runs: list[list[tuple[int, list, int]]], read_run):
        self.runs = runs
        self.read_run = read_run

    def get_name(self) -> str:
        return "ParquetFoldUnits"

    def estimate_inmemory_data_size(self) -> None:
        """None: from an input size Ray would work out a split of its own."""
        return None

    def get_read_tasks(self, parallelism: int) -> list[ReadTask]:
        return [ReadTask(
            functools.partial(self.read_run, run),
            BlockMetadata(num_rows=None, size_bytes=None, exec_stats=None,
                          input_files=sorted({p for _, unit, _ in run
                                              for p, _ in unit})))
            for run in self.runs]

    def read(self) -> "ray.data.Dataset":
        """The Dataset of every run's blocks; an empty one without runs."""
        return ray.data.read_datasource(
            self, override_num_blocks=max(1, len(self.runs)))


def footer_schema(metas: dict[str, pq.FileMetaData]) -> pa.Schema:
    """The Arrow schema the files of ``metas`` share, from their footers,
    in the first file's column order. A file that lacks a column of the
    first file, has one it lacks, or types one otherwise raises
    ``ValueError`` naming the file and the column. Column order may
    differ: every reader selects columns by name."""
    first, *rest = sorted(metas)

    def columns(path):
        return {f.name: f.type for f in metas[path].schema.to_arrow_schema()}

    want = columns(first)
    for path in rest:
        got = columns(path)
        for name in [*want, *got]:
            if got.get(name) != want.get(name):
                raise ValueError(
                    f"{path}: column {name!r} is "
                    f"{got.get(name, 'missing')}, but "
                    f"{want.get(name, 'missing')} in {first}; all files "
                    "must have the same columns and types")
    return pa.schema(list(want.items()))


def bare_parquet_footers(ds: "ray.data.Dataset"
                         ) -> dict[str, pq.FileMetaData] | None:
    """The footers of ``ds``'s files, by sorted path, when ``ds`` is a bare
    ``read_parquet`` of local files: a read and nothing after it, whose
    rows and columns are its files' own (no ``columns=``, ``filter=``,
    ``include_paths``, partition columns or schema override). None for
    any other Dataset, which the caller then reads as it is."""
    # The one look into Ray's plan: no public API tells a bare read from a
    # mapped one. It can go once the entry point takes paths instead of a
    # Dataset.
    op = ds._logical_plan.dag
    if op.name != "ReadParquet":
        return None
    files = sorted(ds.input_files())
    if not files or not all(os.path.isfile(f) for f in files):
        return None
    metas = {f: pq.read_metadata(f) for f in files}
    # a row filter leaves the read's row count unknown
    if op.infer_metadata().num_rows != sum(md.num_rows
                                           for md in metas.values()):
        return None
    # a column selection, paths, partition columns or another schema
    # change the read's schema away from the footers'
    s = ds.schema()
    want = list(zip(s.names, s.types))
    if any([(f.name, f.type) for f in md.schema.to_arrow_schema()] != want
           for md in metas.values()):
        return None
    return metas
