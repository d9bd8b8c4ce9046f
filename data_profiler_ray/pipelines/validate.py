"""End-to-end validation run: profile + constraints + drift, resumable.

The north-rule lifecycle (SURVEY.md §3.4). One call over the pending
partitions runs, one after the other:

1. one stream: each pending shard's fold units
   (``stages.plan.fold_units``: runs of its row groups of at most
   ``FOLD_ROWS`` rows), packed into one read task per CPU, each a plain
   Ray task, as in ``profile_dataset`` (``stages.plan.read_tasks``).
   Each read task (``_fold_and_project``) folds each unit into a profile
   partial (``stages.profile.fold``: a function of the unit's rows alone,
   so a retried task writes the same bytes), writes it from the worker
   to ``parts/<part>/partials/`` and returns only the narrow key columns
   and the ``part`` → one Ray Data execution over the tasks' tables
   (``from_arrow_refs``): range-partition sort on (conv_id, turn_idx,
   part) → one task per sorted block that checks it (row-local and
   conversation checks, ``stages.constraints._CheckAndWrite``) and writes
   its verdict and violation rows to per-partition parquet
   (``_PartOutputWriter``).
   The driver reads only the per-part tally rows and the o(#blocks) cut
   pieces, merges the pieces and writes their rows
   (``stages.constraints.drain_checks``). ``text`` is read once and
   never enters the sort. At one partition — one read task, and a sort
   width (``segments.shuffle_width`` of the key columns' footer bytes)
   of 1, as at one CPU — the stream is one read-sort-check task
   (``_fold_sort_and_check``): the read task sorts its own key rows on
   the same keys and runs the same check, so the same files are written
   and the driver drains the same rows, without Ray Data;
2. per part, the driver folds the partial files in sorted-name order,
   which is unit order (``fold_partials``: a part with one partial passes
   through byte-identical), writes ``state.pkl`` and deletes
   ``partials/``. A shard's units depend on its footer alone, so a part's
   state does not depend on task completion order or on which other
   parts are pending. Partials that do not add up to the shard's footer
   row count raise ``RuntimeError``;
3. per-partition checkpoints: lineage.json, _DONE marker;
4. the final merge of every partition's state (done + fresh): one fold
   on the driver (``merge_states``), then profile.json, the verdict rollup
   and drift.

Schemas, the read plan and the sort width come from the Parquet footers,
so no Ray execution runs only to learn a schema or a size. Every
shard, done or pending, must have the same columns and types
(``stages.plan.footer_schema``); one that differs raises ``ValueError``
before any task starts.

``summary["timings"]``: ``constraints`` is the one stream of step 1,
``profile`` the per-part fold of step 2, ``checkpoint_write`` step 3,
``final_merge`` and ``rollup`` step 4. ``summary["counters"]`` holds the
call's read tasks, sort width, sorted block count, cut-piece carry and
the number of profile partials folded.

Resume semantics: a partition with a ``_DONE`` marker is SKIPPED entirely —
its saved profile state, verdicts and lineage are reloaded and merged with
freshly computed partitions, so a rerun after failure recomputes only
unfinished work (north rule: "checkpointing completed partitions so runs
resume without recomputation"). The reference has no checkpointing at all
(failure = rerun whole file; SURVEY.md §4.1).

Partition = input shard (one parquet file). At 100 TB a partition would be a
key-range bucket of files written so conversation boundaries align with
partitions (writer buckets by hash(conv_id)); a conversation spanning two
partitions is attributed to the partition of its first row.

Drift on resume never re-reads finished partitions: per-partition profile
states carry the value counter + KLL sketch, and ``bin_accumulators`` bins
those into the baseline spec (stages/drift.py).
"""

from __future__ import annotations

import datetime
import functools
import glob
import hashlib
import json
import os
import pathlib
import shutil
import time
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data

from ..config import ProfileConfig, ValidationConfig
from ..stages.constraints import (VIOLATION_SCHEMA, _CheckAndWrite,
                                  check_and_write, drain_checks)
from ..stages.drift import bin_accumulators, drift_from_counts, spec_from_profile
from ..stages.plan import (_column_bytes, _read_batch_rows, _unit_batches,
                           footer_schema, numbered_units, read_tasks,
                           unit_runs)
from ..stages.profile import (finalize_profile, fold, fold_partials,
                              make_accumulators, merge_states)
from ..stages.segments import shuffle_width, sort_in_task

# stage timings in summary["timings"]; a stage that did not run reports 0
_TIMING_KEYS = ("profile", "constraints", "checkpoint_write", "final_merge",
                "rollup")
# summary["counters"]: the stream's read tasks (``plan.unit_runs``), the
# constraint sort's ``stats`` and the number of profile partial files
# folded; 0 when nothing was recomputed
_COUNTER_KEYS = ("read_tasks", "sort_width", "n_sort_blocks", "carry_rows",
                 "carry_bytes", "partials_folded")
_PARTIALS = "partials"
_TMP_MARK = ".tmp-"  # in the name of a partial file not yet complete


def _part_of(path: str) -> str:
    return os.path.splitext(os.path.basename(path))[0]


def _write_atomic(path: str, data: bytes) -> None:
    """Write ``data`` to a temporary name, then rename it to ``path``: a
    reader sees the whole file or none of it."""
    tmp = f"{path}{_TMP_MARK}{uuid.uuid4().hex}"
    with open(tmp, "wb") as f:
        f.write(data)
    os.replace(tmp, path)


def _fold_and_project(run: list, schema: pa.Schema, config: ProfileConfig,
                      parts_root: str, batch_rows: int,
                      narrow_columns: list[str]):
    """A read task of the stream (``plan.read_tasks``): for each
    ``(k, unit, rows)`` of ``run``, fold the unit's read batches into one
    profile partial, write it from the worker to
    ``<parts_root>/<part>/partials/<k:06d>-<rows>``, and yield only the
    batches' ``narrow_columns`` the constraint sort needs, with the
    shard's ``part``. ``k`` is the unit's index within its shard, so
    sorted-name order is unit order, and a retried task rewrites the same
    names with the same bytes: a partial depends on its unit's rows
    alone (``stages.profile.fold``)."""
    for k, unit, rows in run:
        part = _part_of(unit[0][0])
        narrow = []

        def batches():
            for b in _unit_batches(unit, batch_rows, None):
                narrow.append(b.select(narrow_columns))
                yield b

        blob = fold(batches(), schema, config)
        pdir = os.path.join(parts_root, part, _PARTIALS)
        os.makedirs(pdir, exist_ok=True)
        _write_atomic(os.path.join(pdir, f"{k:06d}-{rows}"), blob)
        for t in narrow:
            yield t.append_column("part", pa.array([part] * len(t),
                                                   pa.string()))


def _fold_sort_and_check(run: list, read, check: _CheckAndWrite):
    """The read task of a stream that is one task: ``read(run)``
    (``_fold_and_project``) folds and writes the run's partials, then its
    narrow tables are sorted in the task on ``check.sort_cols``
    (``segments.sort_in_task``) and checked and written by ``check``.
    Yields the one block of writer rows and cut pieces that the exchange's
    single sort task would return."""
    yield sort_in_task(read(run), check.sort_cols, check)


def _key_digest(part: str, keys: pa.Table) -> str:
    """md5 over the part name and the key columns' Arrow IPC bytes."""
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, keys.schema) as w:
        w.write_table(keys)
    digest = hashlib.md5(part.encode())
    digest.update(sink.getvalue())
    return digest.hexdigest()[:16]


def _fold_part(pdir: str) -> tuple[int, bytes, int]:
    """Fold the partial files under ``pdir/partials`` in sorted-name order,
    then delete them. Returns (rows, state blob, partials folded)."""
    ppath = os.path.join(pdir, _PARTIALS)
    names = (sorted(n for n in os.listdir(ppath) if _TMP_MARK not in n)
             if os.path.isdir(ppath) else [])
    rows, blob = fold_partials(
        [(int(n.rsplit("-", 1)[1]), pathlib.Path(ppath, n).read_bytes())
         for n in names])
    shutil.rmtree(ppath, ignore_errors=True)
    return rows, blob, len(names)


def run_validation(input_dir: str, cfg: ValidationConfig,
                   baseline_profile: dict | None = None) -> dict:
    """Validate every parquet shard under ``input_dir``; resumable."""
    t0 = datetime.datetime.now()
    timings = dict.fromkeys(_TIMING_KEYS, 0.0)
    out = cfg.output_dir
    os.makedirs(os.path.join(out, "parts"), exist_ok=True)
    shards = sorted(glob.glob(os.path.join(input_dir, "*.parquet")))
    if not shards:
        raise FileNotFoundError(f"no parquet shards under {input_dir}")

    done, pending = [], []
    for p in shards:
        part = _part_of(p)
        if os.path.exists(os.path.join(out, "parts", part, "_DONE")):
            done.append(p)
        else:
            pending.append(p)

    counters = dict.fromkeys(_COUNTER_KEYS, 0)
    if pending:
        # every shard's footer, done or pending: the schema check, the
        # read batch size and the sort size depend on the input alone
        metas = {p: pq.read_metadata(p) for p in shards}
        schema = footer_schema(metas)
        # clear leftovers of crashed/partial runs for pending parts
        # (workers write partial and verdict files before the _DONE marker
        # lands)
        for p in pending:
            shutil.rmtree(os.path.join(out, "parts", _part_of(p)),
                          ignore_errors=True)
        # Each pending shard is read as its own fold units, in read
        # batches sized from the whole input (``stages.plan``), so it
        # folds the same partials whether it is pending alone or with all
        # the others. ``unit_runs`` packs the units into one read task per
        # CPU: a plain Ray task costs about 1.8 ms of wall time on one
        # pinned vCPU whatever it does (a no-op task, median of 600
        # calls), paid once per run. A row group of more than
        # ``FOLD_ROWS`` rows is one unit, and loses nothing by it: the
        # 208k rows of
        # ``perfbench.inputs.dirty_whale_transcripts(204_000, 1701)`` as
        # one row group folded as one partial over 7 read batches of
        # 32,768 rows in 0.94-0.95 s with a 201 KB state, and as 7
        # partials plus a merge in 0.97-1.00 s with 513 KB (in process,
        # one pinned vCPU, best of 3, two runs). More CPUs are not
        # measured.
        units = [u for p in pending for u in numbered_units({p: metas[p]})]
        runs = unit_runs(units)
        counters["read_tasks"] = len(runs)
        ccfg = cfg.constraints
        narrow_cols = [c for c in (ccfg.group_column, ccfg.order_column,
                                   ccfg.ts_column, ccfg.role_column,
                                   ccfg.tool_column)
                       if c in schema.names]
        parts_root = os.path.join(out, "parts")
        read = functools.partial(
            _fold_and_project, schema=schema, config=cfg.profile,
            parts_root=parts_root, batch_rows=_read_batch_rows(metas),
            narrow_columns=narrow_cols)
        width = shuffle_width(None, nbytes=_column_bytes(
            [metas[p] for p in pending], narrow_cols))

        # verdict and violation rows are written to per-partition parquet
        # by the sort tasks (idempotent content-hashed filenames, so task
        # retries overwrite identically; on a cluster this path would be
        # shared/object storage). Violation rows are capped per kind per
        # task (``max_violations_per_kind``); only per-part TALLY rows — a
        # few ints each — and the cut pieces come back to the driver, so
        # driver memory is independent of violation count. The profile
        # partials stay on the workers' side too (``_fold_and_project``).
        t = time.time()
        stats: dict = {}
        check = _CheckAndWrite(
            ccfg, _PartOutputWriter(parts_root, ccfg.max_violations_per_kind),
            narrow_cols + ["part"])
        if len(runs) <= 1 and width == 1:
            # One read task holds every key row (at most the 128 MB of one
            # sort partition), and the sort would have one partition: that
            # task sorts and checks its rows itself, so the stream is one
            # Ray task instead of six. On the 50k-turn dirty benchmark
            # input, a call took 0.89 of the exchange's wall time (median
            # of 20 interleaved pairs, one pinned vCPU).
            one_task = functools.partial(_fold_sort_and_check, read=read,
                                         check=check)
            with read_tasks(runs, one_task) as refs:
                (tally_tbl,) = drain_checks(map(ray.get, refs), check, stats)
        else:
            with read_tasks(runs, read) as refs:
                (tally_tbl,) = check_and_write(
                    ray.data.from_arrow_refs(refs), check, width=width,
                    stats=stats)
        timings["constraints"] = time.time() - t
        counters.update(sort_width=width,
                        n_sort_blocks=stats["n_blocks"],
                        carry_rows=stats["carry_rows"],
                        carry_bytes=stats["carry_bytes"])
        tallies_by_part: dict[str, dict] = {}
        for r in tally_tbl.to_pylist():
            agg = tallies_by_part.setdefault(
                r["part"], dict.fromkeys(_TALLY_COUNT_COLS, 0))
            for k in _TALLY_COUNT_COLS:
                agg[k] += r[k]

        t = time.time()
        folded: dict[str, tuple[int, str]] = {}
        for path in pending:
            part = _part_of(path)
            pdir = os.path.join(parts_root, part)
            rows, blob, n_partials = _fold_part(pdir)
            counters["partials_folded"] += n_partials
            if rows != metas[path].num_rows:
                raise RuntimeError(
                    f"part {part}: its partials hold {rows} rows, but its "
                    f"shard's footer {metas[path].num_rows}")
            os.makedirs(pdir, exist_ok=True)
            with open(os.path.join(pdir, "state.pkl"), "wb") as f:
                f.write(blob)
            folded[part] = (rows, hashlib.sha256(blob).hexdigest()[:16])
        timings["profile"] = time.time() - t

        tck = time.time()
        # --- per-partition checkpoint outputs (driver work: O(#parts) tiny
        # JSON writes; state, violation and verdict files already written)
        for path in pending:
            part = _part_of(path)
            pdir = os.path.join(parts_root, part)
            rows, digest = folded[part]
            tal = tallies_by_part.get(
                part, dict.fromkeys(_TALLY_COUNT_COLS, 0))
            by_kind = {k[4:]: tal[k] for k in _TALLY_COUNT_COLS
                       if k.startswith("n_v_") and tal[k] > 0}
            n_viol = sum(by_kind.values())
            lineage = {
                "part": part,
                "input_path": os.path.relpath(path, input_dir),
                "input_bytes": os.path.getsize(path),
                "rows_in": rows,
                "n_conversations": tal["n_conversations"],
                "n_violations": n_viol,
                "violations_by_kind": by_kind,
                "n_failed_conversations": tal["n_failed"],
                "passed": n_viol == 0,
                "state_digest": digest,
                "completed_at": time.time(),
            }
            with open(os.path.join(pdir, "lineage.json"), "w") as f:
                json.dump(lineage, f, indent=2)
            with open(os.path.join(pdir, "_DONE"), "w") as f:
                f.write("ok")
        timings["checkpoint_write"] = time.time() - tck

    # --- final merge across ALL partitions (done + fresh) ---
    tfm = time.time()
    lineages = []
    for path in shards:
        with open(os.path.join(out, "parts", _part_of(path),
                               "lineage.json")) as f:
            lineages.append(json.load(f))

    total_rows, merged = merge_states(
        pathlib.Path(out, "parts", _part_of(p), "state.pkl").read_bytes()
        for p in shards)
    if not merged:
        # no shard holds a row; a resume with every part done reads the
        # footers only here
        if not pending:
            schema = footer_schema({p: pq.read_metadata(p) for p in shards})
        merged = make_accumulators(schema, cfg.profile)
    # shard paths relative to input_dir, as in lineage.json: the output
    # does not depend on where the input lives
    profile = finalize_profile(
        total_rows, merged, cfg.profile, t0,
        filenames=[os.path.relpath(p, input_dir) for p in shards])
    with open(os.path.join(out, "profile.json"), "w") as f:
        json.dump(profile, f, indent=2, default=str)
    timings["final_merge"] = time.time() - tfm

    n_convs = sum(l["n_conversations"] for l in lineages)
    n_failed = sum(l["n_failed_conversations"] for l in lineages)
    # convenience single-file verdict rollup ONLY while small; at scale the
    # partitioned parts/<part>/verdicts/*.parquet files ARE the output
    if n_convs <= _VERDICT_ROLLUP_MAX_ROWS:
        files = sorted(glob.glob(
            os.path.join(out, "parts", "*", "verdicts", "*.parquet")))
        if files:
            trl = time.time()
            pq.write_table(pa.concat_tables([pq.read_table(f) for f in files]),
                           os.path.join(out, "verdicts.parquet"))
            timings["rollup"] = time.time() - trl

    drift = None
    if baseline_profile is not None:
        spec = spec_from_profile(baseline_profile)
        drift = drift_from_counts(spec, bin_accumulators(spec, merged),
                                  cfg.drift)
        with open(os.path.join(out, "drift.json"), "w") as f:
            json.dump(drift, f, indent=2)

    summary = {
        "profile": profile,
        "drift": drift,
        "lineage": lineages,
        "parts_total": len(shards),
        "parts_recomputed": len(pending),
        "parts_skipped": len(done),
        "total_rows": total_rows,
        "n_conversations": n_convs,
        "n_failed_conversations": n_failed,
        "n_violations": sum(l["n_violations"] for l in lineages),
        "passed": all(l["passed"] for l in lineages),
        "output_dir": out,
        "timings": {k: round(v, 3) for k, v in timings.items()},
        "counters": counters,
    }
    # summary.json leaves out the profile (profile.json holds it) and the
    # output directory it lives in
    with open(os.path.join(out, "summary.json"), "w") as f:
        json.dump({k: v for k, v in summary.items()
                   if k not in ("profile", "output_dir")},
                  f, indent=2, default=str)
    return summary


# convenience single-file rollup only for SMALL runs (tests / interactive);
# at any real scale the partitioned parts/<part>/verdicts/*.parquet files
# ARE the output and the driver never re-reads them
_VERDICT_ROLLUP_MAX_ROWS = 10_000

_VIOLATION_KINDS = ("duplicate_key", "turn_gap", "ts_regression",
                    "bad_role", "dangling_tool")
# "other" tallies violation rows of kinds OUTSIDE _VIOLATION_KINDS: a future
# kind added upstream can't silently bypass n_violations / passed=false
_TALLY_COUNT_COLS = (("n_conversations", "n_failed", "n_turns")
                     + tuple(f"n_v_{k}" for k in _VIOLATION_KINDS)
                     + ("n_v_other",))
_TALLY_SCHEMA = pa.schema([("part", pa.string())]
                          + [(c, pa.int64()) for c in _TALLY_COUNT_COLS])


class _PartOutputWriter:
    """Sort-task writer (``_CheckAndWrite``'s ``writer``): writes a
    block's verdicts to ``<parts_root>/<part>/verdicts/v-<digest>.
    parquet`` and its violations (capped per kind per task) to
    ``<parts_root>/<part>/violations/x-<digest>.parquet`` from the WORKER,
    and emits ONE tally row per part — the driver never sees verdict or
    violation rows, so its memory is independent of violation count.

    Per-kind counts in the tally are PRE-cap (exact totals); only the
    persisted example rows are capped. Filenames hash the part and the
    rows' keys (``_key_digest``: conv_id for verdicts, conv_id, turn_idx
    and kind for violations; a null key hashes too), so a retried task
    overwrites its own file idempotently. Local-mode note: workers and
    driver share the filesystem; on a multi-node cluster ``parts_root``
    must be shared/object storage.
    """

    schemas = (_TALLY_SCHEMA,)

    def __init__(self, parts_root: str, max_per_kind: int):
        self.parts_root = parts_root
        self.max_per_kind = max_per_kind

    def __call__(self, violations: pa.Table, verdicts: pa.Table
                 ) -> tuple[pa.Table]:
        parts = (set(pc.unique(verdicts.column("part")).to_pylist())
                 | set(pc.unique(violations.column("part")).to_pylist()))
        rows = []
        for part in sorted(p for p in parts if p is not None):
            row = {"part": part, **{c: 0 for c in _TALLY_COUNT_COLS}}
            sub = verdicts.filter(pc.equal(verdicts.column("part"), part))
            if sub.num_rows:
                pdir = os.path.join(self.parts_root, part, "verdicts")
                os.makedirs(pdir, exist_ok=True)
                digest = _key_digest(part, sub.select(["conv_id"]))
                pq.write_table(sub, os.path.join(pdir, f"v-{digest}.parquet"))
                row["n_conversations"] = sub.num_rows
                row["n_failed"] = int(pc.sum(pc.cast(
                    pc.invert(sub.column("passed")), pa.int64())).as_py() or 0)
                row["n_turns"] = int(pc.sum(
                    sub.column("n_turns")).as_py() or 0)
            sv = violations.filter(pc.equal(violations.column("part"), part))
            if sv.num_rows:
                kinds = sv.column("kind").to_numpy(zero_copy_only=False)
                keep_idx = []
                for k in _VIOLATION_KINDS:
                    idx = np.flatnonzero(kinds == k)
                    row[f"n_v_{k}"] = int(idx.size)
                    keep_idx.append(idx[: self.max_per_kind])
                other = np.flatnonzero(~np.isin(kinds, _VIOLATION_KINDS))
                if other.size:  # unknown kinds: keep capped, count too
                    row["n_v_other"] = int(other.size)
                    keep_idx.append(other[: self.max_per_kind])
                capped = sv.take(pa.array(np.sort(np.concatenate(keep_idx))))
                pdir = os.path.join(self.parts_root, part, "violations")
                os.makedirs(pdir, exist_ok=True)
                digest = _key_digest(
                    part, capped.select(["conv_id", "turn_idx", "kind"]))
                pq.write_table(capped.cast(VIOLATION_SCHEMA),
                               os.path.join(pdir, f"x-{digest}.parquet"))
            rows.append(row)
        return (pa.Table.from_pylist(rows, schema=_TALLY_SCHEMA),)

