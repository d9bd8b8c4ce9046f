"""Per-layer probes for the traced run.

Each layer is timed from outside: the probe calls the module's public
functions itself and records a span around each call. Spans stay in memory
(``Tracer.spans``) and are written out when the benchmark ends.
"""

from __future__ import annotations

import datetime
import glob
import os
import pickle
import statistics
import time
from contextlib import contextmanager

import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from data_profiler_ray.config import ProfileConfig, ValidationConfig
from data_profiler_ray.stages.constraints import conversation_checks_parts
from data_profiler_ray.stages.drift import (bin_accumulators,
                                            drift_from_counts,
                                            spec_from_profile)
from data_profiler_ray.stages.profile import (dumps_state, finalize_profile,
                                              merge_state_blobs_distributed,
                                              profile_dataset,
                                              profile_partials_by_part)
from data_profiler_ray.stages.segments import shuffle_width
from data_profiler_ray.state.column import make_accumulator

STATE_KINDS = ("text", "string", "int", "timestamp", "float", "decimal",
               "date")
OUTPUT_KINDS = ("state", "violations", "verdicts", "lineage")


class Tracer:
    """In-memory spans: name, start, end, parent span and trace id."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.trace_id = 0

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        rec = {"trace": self.trace_id, "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def timed(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span; return (result, seconds)."""
        with self.span(name) as rec:
            out = fn(*args, **kwargs)
        return out, rec["end"] - rec["start"]


# ---- process memory (driver) ----------------------------------------------

def _status_kb(field: str) -> int:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise KeyError(field)


def reset_peak_rss() -> None:
    """Reset VmHWM to the current RSS (``ru_maxrss`` never goes down)."""
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


def rss_mb() -> float:
    return _status_kb("VmRSS") / 1024


def peak_rss_mb() -> float:
    return _status_kb("VmHWM") / 1024


# ---- output directory scan -------------------------------------------------

def scan_output(out_dir: str) -> dict:
    """File count and bytes by kind under a validation output directory."""
    by_kind = dict.fromkeys(OUTPUT_KINDS, 0)
    total = files = 0
    for dirpath, _, names in os.walk(out_dir):
        for name in names:
            size = os.path.getsize(os.path.join(dirpath, name))
            files += 1
            total += size
            kind = ("state" if name == "state.pkl"
                    else "lineage" if name == "lineage.json"
                    else "violations" if dirpath.endswith("violations")
                    else "verdicts" if (dirpath.endswith("verdicts")
                                        or name == "verdicts.parquet")
                    else None)
            if kind:
                by_kind[kind] += size
    return {"files": files, "bytes": total, "by_kind": by_kind}


# ---- layer probes ----------------------------------------------------------

def _add_part(batch: pa.Table) -> pa.Table:
    parts = pc.replace_substring_regex(
        pc.replace_substring_regex(batch.column("path"), r"^.*/", ""),
        r"\.parquet$", "")
    return batch.drop_columns(["path"]).append_column("part", parts)


def _parted(shards: list[str], columns: list[str] | None = None):
    return ray.data.read_parquet(shards, include_paths=True,
                                 columns=columns).map_batches(
        _add_part, batch_format="pyarrow")


def probe_read(tr: Tracer, shards: list[str], narrow: list[str]) -> dict:
    _, wide = tr.timed("read.wide", lambda: ray.data.read_parquet(
        shards).materialize())
    _, nar = tr.timed("read.narrow", lambda: ray.data.read_parquet(
        shards, columns=narrow).materialize())
    return {"read.wide_s": wide, "read.narrow_s": nar}


def probe_profile(tr: Tracer, shards: list[str], cfg: ProfileConfig,
                  state_blobs: list[bytes] | None = None,
                  baseline: dict | None = None) -> dict:
    """profile_partials_by_part → merge_state_blobs_distributed →
    finalize_profile, then profile_dataset on the same shards and the drift
    binning of the merged states.

    ``state_blobs`` are the checkpointed per-part states the final merge of
    a validation run reads; without them the fresh partials are merged.
    ``baseline`` is the drift baseline profile (default: the run's own)."""
    partials, t_part = tr.timed("profile.partials", profile_partials_by_part,
                                _parted(shards), cfg)
    blobs = partials.column("state").to_pylist()
    if state_blobs is not None:
        blobs = state_blobs
    (rows, merged), t_merge = tr.timed("profile.merge",
                                       merge_state_blobs_distributed, blobs)
    prof, t_fin = tr.timed("profile.finalize", finalize_profile, rows, merged,
                           cfg, datetime.datetime.now(), shards)
    _, t_ds = tr.timed("profile.dataset", profile_dataset,
                       ray.data.read_parquet(shards), cfg)
    spec = spec_from_profile(baseline or prof)
    counts, t_bin = tr.timed("drift.bin", bin_accumulators, spec, merged)
    _, t_rep = tr.timed("drift.report", drift_from_counts, spec, counts)
    return {"profile.partials_s": t_part,
            "profile.partials_n": partials.num_rows,
            "profile.state_bytes": sum(len(b) for b in blobs),
            "profile.merge_s": t_merge,
            "profile.merge_blobs": len(blobs),
            "profile.finalize_s": t_fin,
            "profile.dataset_s": t_ds,
            "drift.bin_s": t_bin,
            "drift.report_s": t_rep}


def probe_constraints(tr: Tracer, shards: list[str],
                      cfg: ValidationConfig) -> dict:
    c = cfg.constraints
    narrow = [c.group_column, c.order_column, c.ts_column, c.role_column,
              c.tool_column]
    ds = _parted(shards, narrow).materialize()
    width, _ = tr.timed("segments.shuffle_width", shuffle_width, ds)
    stats: dict = {}
    (checked, fixed), t_check = tr.timed(
        "constraints.check", conversation_checks_parts, ds, c,
        emit_row_violations=True, stats=stats)
    del checked
    return {"constraints.check_s": t_check,
            "constraints.carry_rows": stats["carry_rows"],
            "constraints.carry_bytes": stats["carry_bytes"],
            "constraints.n_blocks": stats["n_blocks"],
            "constraints.fixed_rows": fixed.num_rows,
            "segments.shuffle_width": width}


def probe_state(tr: Tracer, batches: dict[str, pa.Array],
                reps: int = 5) -> dict:
    """update / merge / serialized size of one accumulator per column kind,
    each time the median of ``reps`` repetitions."""
    out = {}
    for kind in STATE_KINDS:
        arr = batches[kind]
        field = pa.field(kind, arr.type)
        upd, mrg = [], []
        for _ in range(reps):
            acc, t = tr.timed(f"state.update.{kind}", _updated, field, arr)
            upd.append(t)
            other = pickle.loads(pickle.dumps(acc))
            _, t = tr.timed(f"state.merge.{kind}", acc.merge, other)
            mrg.append(t)
        out[f"state.update_s.{kind}"] = statistics.median(upd)
        out[f"state.merge_s.{kind}"] = statistics.median(mrg)
        out[f"state.bytes.{kind}"] = len(dumps_state(_updated(field, arr)))
    return out


def _updated(field: pa.Field, arr: pa.Array):
    acc = make_accumulator(field)
    acc.update(arr)
    return acc


def read_state_blobs(out_dir: str) -> list[bytes]:
    blobs = []
    for path in sorted(glob.glob(os.path.join(out_dir, "parts", "*",
                                              "state.pkl"))):
        with open(path, "rb") as f:
            blobs.append(f.read())
    return blobs


def validation_layers(summary: dict, scan: dict) -> dict:
    """validate.* from ``run_validation``'s own timings, output.* from the
    output-directory scan."""
    t = summary["timings"]
    out = {f"validate.{k}_s": t[k] for k in
           ("profile", "constraints", "checkpoint_write", "final_merge",
            "rollup")}
    out["validate.parts_recomputed"] = summary["parts_recomputed"]
    out["output.files"] = scan["files"]
    for kind in OUTPUT_KINDS:
        out[f"output.bytes.{kind}"] = scan["by_kind"][kind]
    return out
