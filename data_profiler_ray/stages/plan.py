"""Read plans from Parquet footers, shared by both entry points.

Both entry points fold Parquet in units fixed by the footers
(``pq.read_metadata``, once per file per call), so their partials, and
hence the profile, depend on the input alone, not on the CPU count or the
task order.

``run_validation`` folds one partial per (file, read batch): the footers
fix how many read tasks there are (``_read_tasks``), how many blocks each
file is cut into (``_split_factor``) and how many rows one Parquet read
batch holds (``_read_batch_rows``), and a map with ``batch_size=None``
runs fused with the read (``planned_read``), called once per read batch
or split block. The task count only regroups whole files.

``profile_dataset`` folds one partial per fold unit (``fold_units``): a
run of consecutive row groups of at most ``FOLD_ROWS`` rows, read in
``_read_batch_rows`` batches by one of ``unit_runs``' read tasks, which
only regroup whole units.

Ray's own read planning would size batches from the files it samples and
split blocks by the CPU count, so the partials would depend on the
cluster.
"""

from __future__ import annotations

import os

import pyarrow.parquet as pq

import ray
import ray.data

# Most rows one partial folds, unless one row group alone holds more: the
# rows of one profile fold unit (``fold_units``), and of one Parquet read
# batch (``_read_batch_rows``) or split block (``_split_factor``) of
# ``run_validation``. At 16,384 a high-cardinality string column's partial
# sits just under its counter cap (16,384 keys), so every driver merge
# overflows and re-hashes it; at 32,768 the counter overflows in the worker
# and the driver merges only HLL registers.
FOLD_ROWS = 32_768


def _cpus() -> int:
    """The cluster's CPUs, at least 1."""
    return max(1, int(ray.cluster_resources().get("CPU", 1)))


def _split_factor(metas: dict[str, pq.FileMetaData]) -> int:
    """Read blocks per file: as many as the largest of all the input's
    files (pending or not) needs for blocks of at most ``FOLD_ROWS``
    rows. It depends on the input alone, not on the pending set or the
    cluster's CPU count."""
    most = max(md.num_rows for md in metas.values())
    return max(1, -(-most // FOLD_ROWS))


def _footer_bytes(md: pq.FileMetaData) -> int:
    """Uncompressed bytes of a file, from its footer."""
    return sum(md.row_group(rg).total_byte_size
               for rg in range(md.num_row_groups))


def _read_batch_rows(metas: dict[str, pq.FileMetaData]) -> int:
    """Rows per Parquet read batch: ``FOLD_ROWS``, or fewer where a batch
    of the input's widest rows would exceed one Ray block. Ray fuses a
    ``batch_size=None`` map with an unsplit read and calls it once per
    read batch, so in ``run_validation`` a file of at most ``FOLD_ROWS``
    rows folds one partial per row group; a profile fold unit folds all
    its batches into one. Like ``_split_factor`` this depends on the
    input alone: Ray's own batch size comes from the row widths of the
    files it samples, and from the block target."""
    target = ray.data.DataContext.get_current().target_max_block_size
    widest = max(-(-_footer_bytes(md) // max(1, md.num_rows))
                 for md in metas.values())
    return max(1, min(FOLD_ROWS, target // max(1, widest))) if target \
        else FOLD_ROWS


def _read_tasks(pending: list[str], metas: dict[str, pq.FileMetaData],
                split: int) -> int:
    """Read tasks for ``pending``. Files split into several blocks
    (``split`` > 1) keep one task each. Otherwise each task reads a
    contiguous run of whole files (Ray's Parquet datasource
    ``array_split``s the files): as many tasks as CPUs, and more when
    needed to keep each task's footer bytes under half a Ray block, so
    Ray adds no split of its own, which would cut files at any row."""
    if split > 1:
        return len(pending)
    target = ray.data.DataContext.get_current().target_max_block_size
    footer = sum(_footer_bytes(metas[p]) for p in pending)
    by_size = -(-2 * footer // target) if target else 0
    return min(len(pending), max(_cpus(), by_size))


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


def planned_read(files: list[str], metas: dict[str, pq.FileMetaData],
                 **read_args) -> tuple["ray.data.Dataset", int]:
    """``read_parquet(files)`` in the footer plan, and its read tasks:
    ``files`` in the given order, each read in the same batches in every
    run. ``metas`` holds the footers of the whole input, of which
    ``files`` may be a part; ``read_args`` go to ``read_parquet``."""
    split = _split_factor(metas)
    tasks = _read_tasks(files, metas, split)
    return ray.data.read_parquet(files, override_num_blocks=tasks * split,
                                 batch_size=_read_batch_rows(metas),
                                 **read_args), tasks


def fold_units(metas: dict[str, pq.FileMetaData]
               ) -> list[list[tuple[str, list[int]]]]:
    """The input's profile fold units, each a list of ``(file, row
    groups)``: runs of consecutive row groups, in sorted file order, of at
    most ``FOLD_ROWS`` rows each, cut only at row-group boundaries. A row
    group of more than ``FOLD_ROWS`` rows is a unit of its own; row groups
    without rows are in none. Like ``_split_factor`` this depends on the
    input alone."""
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
