"""End-to-end validation run: profile + constraints + drift, resumable.

The north-rule lifecycle (SURVEY.md §3.4). One call over the pending
partitions runs, one after the other:

1. the profile stream: ``read_parquet(pending shards)`` → part column →
   per-block profile partials (``map_batches``, Arrow zero-copy), pulled to
   the driver and merged per partition (``profile_partials_by_part``);
2. the constraint stream: a narrow ``read_parquet`` of the key columns →
   part column → range-partition sort on (conv_id, turn_idx) → one task per
   sorted block that checks it (row-local and conversation checks) and
   writes its verdict and violation rows to per-partition parquet
   (``_PartOutputWriter``). The driver reads only the per-part tally rows
   and the o(#blocks) cut pieces, merges the pieces and writes their rows
   (``stages.constraints.check_and_write``);
3. per-partition checkpoints: state.pkl, lineage.json, _DONE marker;
4. the final merge of every partition's state (done + fresh) on the
   driver, or as a fan-in task tree when the states are large
   (``merge_state_blobs_distributed``), then profile.json, the verdict
   rollup and drift.

Schemas and the sort width come from the Parquet footers, so no Ray Data
execution runs only to learn a schema or a size.

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
import glob
import hashlib
import json
import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray.data

from ..config import ValidationConfig
from ..stages.constraints import (VIOLATION_SCHEMA, check_and_write,
                                  split_verdicts)
from ..stages.drift import bin_accumulators, drift_from_counts, spec_from_profile
from ..stages.profile import (dumps_state, finalize_profile,
                              merge_state_blobs_distributed,
                              profile_partials_by_part)

# stage timings in summary["timings"]; a stage that did not run reports 0
_TIMING_KEYS = ("profile", "constraints", "checkpoint_write", "final_merge",
                "rollup")


def _part_of(path: str) -> str:
    return os.path.splitext(os.path.basename(path))[0]


def _add_part_column(batch: pa.Table) -> pa.Table:
    parts = pc.replace_substring_regex(
        pc.replace_substring_regex(batch.column("path"), r"^.*/", ""),
        r"\.parquet$", "")
    batch = batch.drop_columns(["path"])
    return batch.append_column("part", parts)


def _column_bytes(paths: list[str], columns: list[str]) -> int:
    """Uncompressed bytes of ``columns`` over ``paths``, from the footers."""
    total = 0
    for path in paths:
        md = pq.ParquetFile(path).metadata
        for rg in range(md.num_row_groups):
            group = md.row_group(rg)
            total += sum(group.column(i).total_uncompressed_size
                         for i in range(group.num_columns)
                         if group.column(i).path_in_schema in columns)
    return total


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

    # clear leftovers of crashed/partial runs for pending parts (workers
    # write verdict files before the _DONE marker lands)
    for p in pending:
        shutil.rmtree(os.path.join(out, "parts", _part_of(p)),
                      ignore_errors=True)

    if pending:
        # NOTE: no override_num_blocks here — forcing one block per shard
        # (tried: override_num_blocks=len(pending)) made whole 60k-row
        # shards single fold batches, whose distinct-value count overruns
        # the capped TopK counters and triggers per-batch shrink churn
        # (measured profile stage 110 s vs 24 s at 4M turns / 8 CPUs).
        # Ray's default block sizing keeps fold batches near the counter
        # caps; the per-part state merge handles multi-block parts.
        ds = ray.data.read_parquet(pending, include_paths=True)
        # the unmapped read's schema comes from the Parquet footers; the
        # mapped dataset's schema() would execute the read
        read_schema = ds.schema()
        schema = pa.schema(
            [pa.field(n, t) for n, t in zip(read_schema.names,
                                            read_schema.types)]
            + [pa.field("part", pa.string())])
        ds = ds.map_batches(_add_part_column, batch_format="pyarrow")
        ccfg = cfg.constraints
        narrow_cols = [c for c in (ccfg.group_column, ccfg.order_column,
                                   ccfg.ts_column, ccfg.role_column,
                                   ccfg.tool_column)
                       if c in schema.names]
        # projection-pruned narrow read for constraints: text never leaves
        # storage on this path
        ds_narrow = ray.data.read_parquet(
            pending, include_paths=True, columns=narrow_cols).map_batches(
            _add_part_column, batch_format="pyarrow")

        # the two streams run one after the other: overlapping them on one
        # pinned CPU was no faster and raised driver peak RSS
        t = time.time()
        states = profile_partials_by_part(ds, cfg.profile, schema=schema)
        timings["profile"] = time.time() - t

        # verdict and violation rows are written to per-partition parquet
        # by the sort tasks (idempotent content-hashed filenames, so task
        # retries overwrite identically; on a cluster this path would be
        # shared/object storage). Violation rows are capped per kind per
        # task (``max_violations_per_kind``); only per-part TALLY rows — a
        # few ints each — and the cut pieces come back to the driver, so
        # driver memory is independent of violation count.
        t = time.time()
        writer = _PartOutputWriter(os.path.join(out, "parts"),
                                   ccfg.max_violations_per_kind)
        tally_tbl = check_and_write(
            ds_narrow, ccfg, writer, columns=schema.names,
            nbytes=_column_bytes(pending, narrow_cols))
        timings["constraints"] = time.time() - t
        tallies_by_part: dict[str, dict] = {}
        for r in tally_tbl.to_pylist():
            agg = tallies_by_part.setdefault(
                r["part"], dict.fromkeys(_TALLY_COUNT_COLS, 0))
            for k in _TALLY_COUNT_COLS:
                agg[k] += r[k]

        tck = time.time()
        # --- per-partition checkpoint outputs (driver work: O(#parts) tiny
        # JSON/pickle writes; violation + verdict parquet already written
        # by the workers) ---
        state_by_part: dict[str, tuple[int, bytes]] = {}
        for part, rows, blob in zip(states.column("part").to_pylist(),
                                    states.column("rows").to_pylist(),
                                    states.column("state").to_pylist()):
            state_by_part[part] = (rows, blob)
        for path in pending:
            part = _part_of(path)
            pdir = os.path.join(out, "parts", part)
            os.makedirs(pdir, exist_ok=True)
            rows, blob = state_by_part.get(part, (0, dumps_state((0, {}))))
            with open(os.path.join(pdir, "state.pkl"), "wb") as f:
                f.write(blob)
            tal = tallies_by_part.get(
                part, dict.fromkeys(_TALLY_COUNT_COLS, 0))
            by_kind = {k[4:]: tal[k] for k in _TALLY_COUNT_COLS
                       if k.startswith("n_v_") and tal[k] > 0}
            n_viol = sum(by_kind.values())
            lineage = {
                "part": part,
                "input_path": path,
                "input_bytes": os.path.getsize(path),
                "rows_in": rows,
                "n_conversations": tal["n_conversations"],
                "n_violations": n_viol,
                "violations_by_kind": by_kind,
                "n_failed_conversations": tal["n_failed"],
                "passed": n_viol == 0,
                "state_digest": hashlib.sha256(blob).hexdigest()[:16],
                "completed_at": time.time(),
            }
            with open(os.path.join(pdir, "lineage.json"), "w") as f:
                json.dump(lineage, f, indent=2)
            with open(os.path.join(pdir, "_DONE"), "w") as f:
                f.write("ok")
        timings["checkpoint_write"] = time.time() - tck

    # --- final merge across ALL partitions (done + fresh) ---
    tfm = time.time()
    blobs, lineages = [], []
    for path in shards:
        pdir = os.path.join(out, "parts", _part_of(path))
        with open(os.path.join(pdir, "state.pkl"), "rb") as f:
            blobs.append(f.read())
        with open(os.path.join(pdir, "lineage.json")) as f:
            lineages.append(json.load(f))

    total_rows, merged = merge_state_blobs_distributed(blobs)
    profile = finalize_profile(total_rows, merged, cfg.profile, t0,
                               filenames=shards)
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
    }
    with open(os.path.join(out, "summary.json"), "w") as f:
        json.dump({k: v for k, v in summary.items() if k != "profile"},
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
    """Sort-task writer (``check_and_write``'s ``writer``): writes the
    batch's verdict rows to ``<parts_root>/<part>/verdicts/v-<digest>.
    parquet`` and its violation rows (capped per kind per task) to
    ``<parts_root>/<part>/violations/x-<digest>.parquet`` from the WORKER,
    and emits ONE tally row per part — the driver never sees verdict or
    violation rows, so its memory is independent of violation count.

    Per-kind counts in the tally are PRE-cap (exact totals); only the
    persisted example rows are capped. Filenames are content-hashed over
    the batch's conv_ids, so a retried task overwrites its own file
    idempotently. Local-mode note: workers and driver share the
    filesystem; on a multi-node cluster ``parts_root`` must be
    shared/object storage.
    """

    schema = _TALLY_SCHEMA

    def __init__(self, parts_root: str, max_per_kind: int):
        self.parts_root = parts_root
        self.max_per_kind = max_per_kind

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _TALLY_SCHEMA.empty_table()
        is_v = pc.equal(batch.column("kind"), "__verdict__")
        vrows = batch.filter(is_v)
        viol = batch.filter(pc.invert(is_v))
        verdicts = split_verdicts(vrows)[1] if vrows.num_rows else None
        parts: set[str] = set()
        if verdicts is not None:
            parts |= set(pc.unique(verdicts.column("part")).to_pylist())
        if viol.num_rows:
            parts |= set(pc.unique(viol.column("part")).to_pylist())
        rows = []
        for part in sorted(p for p in parts if p is not None):
            row = {"part": part, **{c: 0 for c in _TALLY_COUNT_COLS}}
            if verdicts is not None:
                sub = verdicts.filter(pc.equal(verdicts.column("part"), part))
                if sub.num_rows:
                    pdir = os.path.join(self.parts_root, part, "verdicts")
                    os.makedirs(pdir, exist_ok=True)
                    digest = hashlib.md5(
                        "".join(sub.column("conv_id").to_pylist()).encode()
                    ).hexdigest()[:16]
                    pq.write_table(sub, os.path.join(pdir,
                                                     f"v-{digest}.parquet"))
                    row["n_conversations"] = sub.num_rows
                    row["n_failed"] = int(pc.sum(pc.cast(
                        pc.invert(sub.column("passed")),
                        pa.int64())).as_py() or 0)
                    row["n_turns"] = int(pc.sum(
                        sub.column("n_turns")).as_py() or 0)
            if viol.num_rows:
                sv = viol.filter(pc.equal(viol.column("part"), part))
                if sv.num_rows:
                    kinds = sv.column("kind").to_numpy(zero_copy_only=False)
                    keep_idx = []
                    for k in _VIOLATION_KINDS:
                        idx = np.flatnonzero(kinds == k)
                        row[f"n_v_{k}"] = int(idx.size)
                        keep_idx.append(idx[: self.max_per_kind])
                    other = np.flatnonzero(~np.isin(kinds,
                                                    _VIOLATION_KINDS))
                    if other.size:  # unknown kinds: keep capped, count too
                        row["n_v_other"] = int(other.size)
                        keep_idx.append(other[: self.max_per_kind])
                    capped = sv.take(pa.array(np.sort(
                        np.concatenate(keep_idx))))
                    pdir = os.path.join(self.parts_root, part, "violations")
                    os.makedirs(pdir, exist_ok=True)
                    digest = hashlib.md5(
                        ("|".join(capped.column("conv_id").to_pylist())
                         + f"|{capped.num_rows}").encode()).hexdigest()[:16]
                    pq.write_table(capped.cast(VIOLATION_SCHEMA),
                                   os.path.join(pdir,
                                                f"x-{digest}.parquet"))
            rows.append(row)
        if not rows:
            return _TALLY_SCHEMA.empty_table()
        return pa.Table.from_pylist(rows, schema=_TALLY_SCHEMA)

