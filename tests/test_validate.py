"""Validation pipeline e2e + resume + drift tests (SURVEY.md §5.2 items 3-5)."""

import json
import os
import shutil

import pandas as pd
import pytest
import ray.data

from data_profiler_ray.config import (ConstraintConfig, ProfileConfig,
                                      ValidationConfig)
from data_profiler_ray.pipelines.validate import run_validation
from data_profiler_ray.stages.drift import drift_report
from data_profiler_ray.stages.profile import profile_dataset
from data_profiler_ray.synthetic import TOOL_REGISTRY, transcripts_path


def _cfg(tmp):
    return ValidationConfig(
        profile=ProfileConfig(title="transcripts"),
        constraints=ConstraintConfig(tool_registry=TOOL_REGISTRY),
        output_dir=tmp)


def test_clean_run_passes(transcripts_dir, tmp_path):
    cfg = _cfg(str(tmp_path / "out"))
    s = run_validation(transcripts_dir, cfg)
    pdf = pd.read_parquet(transcripts_dir)
    assert s["passed"]
    assert s["total_rows"] == len(pdf)
    assert s["n_conversations"] == pdf["conv_id"].nunique()
    assert s["n_violations"] == 0
    assert s["parts_recomputed"] == s["parts_total"]
    assert os.path.exists(os.path.join(cfg.output_dir, "profile.json"))
    assert os.path.exists(os.path.join(cfg.output_dir, "verdicts.parquet"))
    # profile matches the non-partitioned pipeline on key fields
    prof = s["profile"]
    direct = profile_dataset(ray.data.read_parquet(transcripts_dir),
                             ProfileConfig(title="transcripts"))
    v1 = {v["name"]: v for v in prof["variables"]}
    v2 = {v["name"]: v for v in direct["variables"]}
    for name in v2:
        assert v1[name]["type"] == v2[name]["type"]
        assert v1[name]["count"] == v2[name]["count"]
        assert v1[name]["num_missing"] == v2[name]["num_missing"]


def test_dirty_run_fails_with_violations(dirty_transcripts_dir, tmp_path):
    cfg = _cfg(str(tmp_path / "out"))
    s = run_validation(dirty_transcripts_dir, cfg)
    assert not s["passed"]
    assert s["n_violations"] > 0
    assert s["n_failed_conversations"] > 0
    kinds = set()
    for l in s["lineage"]:
        kinds |= set(l["violations_by_kind"])
    assert {"duplicate_key", "bad_role", "dangling_tool",
            "ts_regression", "turn_gap"} <= kinds


def test_resume_skips_done_partitions(transcripts_dir, tmp_path):
    out = str(tmp_path / "out")
    cfg = _cfg(out)
    s1 = run_validation(transcripts_dir, cfg)
    assert s1["parts_recomputed"] == s1["parts_total"]

    # simulate a crash that lost two partitions
    parts = sorted(os.listdir(os.path.join(out, "parts")))
    for p in parts[:2]:
        shutil.rmtree(os.path.join(out, "parts", p))
    s2 = run_validation(transcripts_dir, cfg)
    assert s2["parts_recomputed"] == 2
    assert s2["parts_skipped"] == s1["parts_total"] - 2
    # identical final outputs after resume
    assert s2["total_rows"] == s1["total_rows"]
    assert s2["n_conversations"] == s1["n_conversations"]
    p1 = {v["name"]: v for v in s1["profile"]["variables"]}
    p2 = {v["name"]: v for v in s2["profile"]["variables"]}
    for name in p1:
        for k in ("count", "num_missing", "n_distinct", "type"):
            assert p1[name].get(k) == p2[name].get(k), (name, k)

    # fully-done run recomputes nothing
    s3 = run_validation(transcripts_dir, cfg)
    assert s3["parts_recomputed"] == 0
    assert s3["parts_skipped"] == s3["parts_total"]
    assert s3["total_rows"] == s1["total_rows"]


def test_drift_detects_shift(transcripts_dir, tmp_path):
    base_ds = ray.data.read_parquet(transcripts_dir)
    baseline = profile_dataset(base_ds, ProfileConfig())
    # same distribution → no drift
    rep_same = drift_report(ray.data.read_parquet(transcripts_dir), baseline)
    assert not rep_same["any_drifted"]
    assert rep_same["columns"]["role"]["psi"] == pytest.approx(0.0, abs=1e-6)

    # shifted distribution: different seed + heavy bad-role injection
    shifted = transcripts_path(20000, seed=99, bad_role_frac=0.5)
    rep = drift_report(ray.data.read_parquet(shifted), baseline)
    assert rep["columns"]["role"]["drifted"]
    assert rep["columns"]["role"]["psi"] > 0.2


def test_drift_from_checkpoint_matches_report(transcripts_dir, tmp_path):
    """Resumable drift path (bin_accumulators) agrees with the data pass."""
    baseline = profile_dataset(ray.data.read_parquet(transcripts_dir),
                               ProfileConfig())
    shifted = transcripts_path(20000, seed=7)
    cfg = _cfg(str(tmp_path / "out"))
    s = run_validation(shifted, cfg, baseline_profile=baseline)
    rep_pass = drift_report(ray.data.read_parquet(shifted), baseline)
    assert s["drift"] is not None
    for col, stats in rep_pass["columns"].items():
        chk = s["drift"]["columns"][col]
        assert chk["psi"] == pytest.approx(stats["psi"], abs=0.05)
        assert chk["drifted"] == stats["drifted"] or abs(
            chk["psi"] - stats["psi"]) < 0.05
    assert os.path.exists(os.path.join(cfg.output_dir, "drift.json"))
    with open(os.path.join(cfg.output_dir, "summary.json")) as f:
        summ = json.load(f)
    assert summ["parts_total"] == s["parts_total"]


def test_part_output_writer_idempotent(tmp_path):
    """A retried writer task overwrites its own files byte-identically —
    the property that makes worker-side checkpoint writes safe under Ray
    task retries."""
    import glob

    import pyarrow as pa

    from data_profiler_ray.pipelines.validate import _PartOutputWriter
    from data_profiler_ray.stages.constraints import VIOLATION_SCHEMA
    batch = pa.table({
        "kind": pa.array(["__verdict__", "bad_role", "__verdict__",
                          "duplicate_key"]),
        "conv_id": pa.array(["c1", "c1", "c2", "c2"]),
        "turn_idx": pa.array([5, 2, 3, 1], pa.int32()),
        "column": pa.array([None, "role", None, None], pa.string()),
        "value": pa.array([None, "moderator", None, None], pa.string()),
        "detail": pa.array(["0|0|0|1|0|0", None, "1|0|0|0|0|0", "count=2"],
                           pa.string()),
        "part": pa.array(["p0", "p0", "p0", "p0"]),
    }, schema=VIOLATION_SCHEMA)
    root = str(tmp_path / "parts")
    w = _PartOutputWriter(root, max_per_kind=100)
    t1 = w(batch)
    files1 = {f: open(f, "rb").read()
              for f in glob.glob(f"{root}/p0/*/*.parquet")}
    t2 = w(batch)  # simulated retry
    files2 = {f: open(f, "rb").read()
              for f in glob.glob(f"{root}/p0/*/*.parquet")}
    assert t1.to_pydict() == t2.to_pydict()
    assert set(files1) == set(files2)          # same file names (digests)
    assert len(files1) == 2                    # one verdict + one violation
    row = t1.to_pylist()[0]
    assert row["n_conversations"] == 2
    assert row["n_failed"] == 2
    assert row["n_v_bad_role"] == 1 and row["n_v_duplicate_key"] == 1


def test_violation_counts_match_duckdb_oracle():
    """Flagship oracle (r3 verdict item 1): the per-kind violation totals
    from the verdict rollup must hash-match the DuckDB recompute over the
    raw fixture parquet — the same compare the driver runs."""
    import duckdb

    from data_profiler_ray.pipelines.queries import (
        _transcript_counts_sql, _tv_fixture, transcript_violation_counts)

    _tv_fixture()
    got = transcript_violation_counts("unused").to_pandas()
    exp = duckdb.connect().execute(_transcript_counts_sql()).fetchdf()
    assert sorted(got.columns) == sorted(exp.columns)
    got, exp = got[sorted(got.columns)], exp[sorted(exp.columns)]
    assert got.iloc[0].to_dict() == exp.iloc[0].to_dict()
    # every injected kind is actually detected
    for k in ("n_duplicate_key", "n_turn_gap", "n_ts_regression",
              "n_bad_role", "n_dangling_tool"):
        assert int(got.iloc[0][k]) > 0, k


def test_timings_and_lineage(transcripts_dir, tmp_path):
    """summary["timings"] always has every stage key the benchmark reads,
    also when nothing is recomputed; lineage.json holds per-partition facts
    only (no global stage times)."""
    keys = {"profile", "constraints", "checkpoint_write", "final_merge",
            "rollup"}
    cfg = _cfg(str(tmp_path / "out"))
    s1 = run_validation(transcripts_dir, cfg)
    assert keys <= set(s1["timings"])
    assert s1["timings"]["constraints"] > 0
    for lin in s1["lineage"]:
        assert lin["input_bytes"] == os.path.getsize(lin["input_path"])
        assert "profile_stage_s" not in lin
        assert "constraint_stage_s" not in lin
    s2 = run_validation(transcripts_dir, cfg)
    assert s2["parts_recomputed"] == 0
    assert keys <= set(s2["timings"])
    assert s2["timings"]["constraints"] == 0
