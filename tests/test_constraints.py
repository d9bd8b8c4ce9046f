"""Constraint tests: inject known violations, assert exact violation rows and
per-conversation verdicts (SURVEY.md §5.2 item 3)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data

from data_profiler_ray.config import ConstraintConfig
from data_profiler_ray.stages.constraints import (VERDICT_SCHEMA,
                                                  conversation_checks)
from data_profiler_ray.synthetic import TOOL_REGISTRY


@pytest.fixture(scope="module")
def cfg():
    return ConstraintConfig(tool_registry=TOOL_REGISTRY)


def test_clean_transcripts_all_pass(transcripts_dir, cfg):
    ds = ray.data.read_parquet(transcripts_dir)
    violations, verdicts = conversation_checks(ds, cfg)
    assert violations.num_rows == 0
    v = verdicts.to_pandas()
    pdf = pd.read_parquet(transcripts_dir)
    assert len(v) == pdf["conv_id"].nunique()
    assert v["passed"].all()
    assert v["n_turns"].sum() == len(pdf)
    rv, _ = conversation_checks(ds, cfg, emit_row_violations=True)
    assert rv.num_rows == 0


def test_dirty_transcripts_violations(dirty_transcripts_dir, cfg):
    ds = ray.data.read_parquet(dirty_transcripts_dir)
    pdf = pd.read_parquet(dirty_transcripts_dir)
    violations, verdicts = conversation_checks(ds, cfg)
    vdf = violations.to_pandas()
    vv = verdicts.to_pandas()

    # oracle: duplicate (conv_id, turn_idx) pairs
    dup_pairs = pdf.groupby(["conv_id", "turn_idx"]).size()
    dup_pairs = dup_pairs[dup_pairs > 1]
    got_dup = vdf[vdf["kind"] == "duplicate_key"]
    assert set(map(tuple, got_dup[["conv_id", "turn_idx"]].values)) == set(
        dup_pairs.index)
    assert vv["n_duplicate_key"].sum() == int((dup_pairs - 1).sum())

    # oracle: bad roles
    bad_role = pdf[~pdf["role"].isin(cfg.role_domain)]
    assert vv["n_bad_role"].sum() == len(bad_role)
    rv = conversation_checks(ds, cfg, emit_row_violations=True)[0].to_pandas()
    got_roles = rv[rv["kind"] == "bad_role"]
    assert len(got_roles) == len(bad_role)
    assert set(got_roles["value"].unique()) == set(bad_role["role"].unique())

    # oracle: dangling tools
    dangling = pdf[pdf["tool"].notna() & ~pdf["tool"].isin(TOOL_REGISTRY)]
    assert vv["n_dangling_tool"].sum() == len(dangling)
    got_tools = rv[rv["kind"] == "dangling_tool"]
    assert set(map(tuple, got_tools[["conv_id", "turn_idx"]].values)) == set(
        map(tuple, dangling[["conv_id", "turn_idx"]].values))

    # oracle: ts regressions per conversation (sorted by turn_idx, stable)
    def count_reg(g):
        g = g.sort_values("turn_idx", kind="stable")
        return int((g["ts"].astype("int64").diff() < 0).sum())
    exp_reg = pdf.groupby("conv_id").apply(count_reg, include_groups=False).sum()
    assert vv["n_ts_regression"].sum() == exp_reg

    # turn gaps exist (gap_frac>0) and verdicts fail where expected
    assert vv["n_turn_gap"].sum() > 0
    failing = vv[~vv["passed"]]
    assert len(failing) > 0
    tallies = vv[["n_duplicate_key", "n_turn_gap", "n_ts_regression",
                  "n_bad_role", "n_dangling_tool"]].sum(axis=1)
    assert ((tallies > 0) == ~vv["passed"]).all()


def test_turn_gap_detection_exact(cfg):
    tbl = pa.table({
        "conv_id": pa.array(["c1"] * 4 + ["c2"] * 3),
        "turn_idx": pa.array([0, 1, 3, 4, 0, 1, 2], pa.int32()),
        "role": pa.array(["user", "assistant"] * 3 + ["user"]),
        "text": pa.array(["x"] * 7),
        "tool": pa.array([None] * 7, pa.string()),
        "ts": pa.array(
            np.arange(7) * 1_000_000,
            pa.timestamp("us")),
    })
    ds = ray.data.from_arrow(tbl)
    violations, verdicts = conversation_checks(ds, cfg)
    vdf = violations.to_pandas()
    gaps = vdf[vdf["kind"] == "turn_gap"]
    # c1 has turns {0,1,3,4}: missing 2,3 expected-range mismatch → indices
    # missing from 0..3 = {2}, extra beyond range = {4}
    assert set(gaps["turn_idx"]) == {2, 4}
    v = verdicts.to_pandas().set_index("conv_id")
    assert not v.loc["c1", "passed"]
    assert v.loc["c2", "passed"]


def _oracle(pdf: pd.DataFrame, cfg) -> tuple[pd.DataFrame, set]:
    """Per-conversation pandas replica of the checks: (VERDICT_SCHEMA frame
    sorted by conv_id, {(kind, conv_id, turn_idx)} of the conversation-level
    violations)."""
    rows, found = [], set()
    for conv, g in pdf.groupby("conv_id", sort=True):
        g = g.sort_values("turn_idx", kind="stable")
        turns = g["turn_idx"].to_numpy()
        uniq, counts = np.unique(turns, return_counts=True)
        found |= {("duplicate_key", conv, int(t)) for t in uniq[counts > 1]}
        expected = set(range(uniq.size))
        gaps = expected.symmetric_difference(uniq.tolist())
        found |= {("turn_gap", conv, t) for t in gaps}
        reg = (g["ts"].astype("int64").diff() < 0).to_numpy()
        found |= {("ts_regression", conv, int(t)) for t in turns[reg]}
        n_role = int((g["role"].notna()
                      & ~g["role"].isin(cfg.role_domain)).sum())
        n_tool = int((g["tool"].notna()
                      & ~g["tool"].isin(cfg.tool_registry)).sum())
        counts = [len(g), int((counts - 1).sum()), len(gaps), int(reg.sum()),
                  n_role, n_tool]
        rows.append([conv, None] + counts + [not any(counts[1:])])
    return pd.DataFrame(rows, columns=VERDICT_SCHEMA.names), found


def test_checks_match_pandas_oracle(dirty_transcripts_dir, cfg):
    """Every conversation's verdict and conversation-level violations equal
    an independent pandas per-conversation replica, at the default sort
    width, which cuts conversations at block edges."""
    ds = ray.data.read_parquet(dirty_transcripts_dir)
    stats = {}
    violations, verdicts = conversation_checks(ds, cfg, stats=stats)
    assert stats["n_blocks"] >= 2 and stats["carry_rows"] > 0
    exp_verdicts, exp_found = _oracle(pd.read_parquet(dirty_transcripts_dir),
                                      cfg)
    got = verdicts.to_pandas().sort_values("conv_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, exp_verdicts)
    vdf = violations.to_pandas()
    assert set(map(tuple, vdf[["kind", "conv_id", "turn_idx"]].values)) \
        == exp_found


def test_checks_with_row_level_violations(dirty_transcripts_dir, cfg):
    ds = ray.data.read_parquet(dirty_transcripts_dir)
    viol, _ = conversation_checks(ds, cfg, emit_row_violations=True)
    pdf = pd.read_parquet(dirty_transcripts_dir)
    vdf = viol.to_pandas()
    bad_role = pdf[~pdf["role"].isin(cfg.role_domain)]
    assert len(vdf[vdf["kind"] == "bad_role"]) == len(bad_role)
    dangling = pdf[pdf["tool"].notna()
                   & ~pdf["tool"].isin(cfg.tool_registry)]
    assert len(vdf[vdf["kind"] == "dangling_tool"]) == len(dangling)
