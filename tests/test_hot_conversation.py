"""Hot-conversation handling: a conversation far larger than any block must
still get exact uniqueness/gap/ts checks (it crosses every block boundary →
exact second-pass path in stages/constraints.py)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data

from data_profiler_ray.config import ConstraintConfig
from data_profiler_ray.stages.constraints import conversation_checks


@pytest.fixture(scope="module")
def hot_conv_dir(tmp_path_factory):
    """One 30k-turn conversation sharded over 10 files + 200 small convs.
    Violations planted INSIDE the hot conversation, including at shard
    boundaries: a duplicated turn, a missing turn, a ts regression."""
    d = tmp_path_factory.mktemp("hotconv")
    n_hot = 30_000
    turn = np.arange(n_hot, dtype=np.int32)
    # plant: duplicate turn 9000 (replacing turn 9001), gap at 21000
    turn[9001] = 9000
    turn = turn[turn != 21_000]
    ts = (np.arange(turn.size, dtype=np.int64) * 1_000_000)
    ts[15_000] = ts[14_999] - 5_000_000  # regression
    hot = pd.DataFrame({
        "conv_id": "conv-hot", "turn_idx": turn,
        "role": np.where(turn % 2 == 0, "user", "assistant"),
        "text": "x", "tool": None,
        "ts": pd.Timestamp("2025-01-01").value // 1000 + ts,
    })
    small_rows = []
    for c in range(200):
        for t in range(5):
            small_rows.append({"conv_id": f"conv-s{c:04d}", "turn_idx": t,
                               "role": "user" if t % 2 == 0 else "assistant",
                               "text": "y", "tool": None,
                               "ts": pd.Timestamp("2025-02-01").value // 1000
                               + t * 1_000_000})
    df = pd.concat([hot, pd.DataFrame(small_rows)], ignore_index=True)
    df["ts"] = pd.to_datetime(df["ts"], unit="us")
    df["tool"] = df["tool"].astype("string")
    tbl = pa.Table.from_pandas(df, preserve_index=False)
    per = (tbl.num_rows + 9) // 10
    for i in range(10):
        chunk = tbl.slice(i * per, per)
        if chunk.num_rows:
            pq.write_table(chunk, str(d / f"part-{i:05d}.parquet"))
    return str(d)


def test_hot_conversation_exact(hot_conv_dir):
    ds = ray.data.read_parquet(hot_conv_dir)
    cfg = ConstraintConfig()
    violations, verdicts = conversation_checks(ds, cfg)
    v = verdicts.to_pandas().set_index("conv_id")
    assert len(v) == 201
    hot = v.loc["conv-hot"]
    assert hot["n_turns"] == 29_999
    assert hot["n_duplicate_key"] == 1
    assert hot["n_ts_regression"] == 1
    assert hot["n_turn_gap"] > 0          # missing 9001 + 21000 indices
    assert not hot["passed"]
    assert v.drop("conv-hot")["passed"].all()

    vdf = violations.to_pandas()
    dup = vdf[vdf["kind"] == "duplicate_key"]
    assert set(dup["turn_idx"]) == {9000}
    reg = vdf[vdf["kind"] == "ts_regression"]
    assert len(reg) == 1 and reg.iloc[0]["conv_id"] == "conv-hot"
    gaps = vdf[vdf["kind"] == "turn_gap"]
    assert {9001, 21_000} <= set(gaps["turn_idx"])


@pytest.fixture(scope="module")
def whale_conv_dir(tmp_path_factory):
    """ONE clean conversation holding 50% of 1M turns (it spans every
    sort block) + 100k small conversations — the VERDICT r4 whale-carry
    scenario on the validate path."""
    d = tmp_path_factory.mktemp("whaleconv")
    n_whale = 500_000
    base = pd.Timestamp("2025-03-01").value // 1000
    whale = pa.table({
        "conv_id": pa.array(["conv-whale"] * n_whale),
        "turn_idx": pa.array(np.arange(n_whale, dtype=np.int32)),
        "role": pa.array(np.where(np.arange(n_whale) % 2 == 0, "user",
                                  "assistant")),
        "text": pa.array(["w"] * n_whale),
        "tool": pa.array([None] * n_whale, pa.string()),
        "ts": pa.array(base + np.arange(n_whale, dtype=np.int64) * 1000,
                       pa.timestamp("us")),
    })
    n_small = 100_000
    cid = np.repeat(np.arange(n_small // 5), 5)
    t = np.tile(np.arange(5, dtype=np.int32), n_small // 5)
    small = pa.table({
        "conv_id": pa.array(np.char.add("conv-s",
                                        cid.astype("U8"))),
        "turn_idx": pa.array(t),
        "role": pa.array(np.where(t % 2 == 0, "user", "assistant")),
        "text": pa.array(["y"] * n_small),
        "tool": pa.array([None] * n_small, pa.string()),
        "ts": pa.array(base + (cid.astype(np.int64) * 10 + t) * 1000,
                       pa.timestamp("us")),
    })
    tbl = pa.concat_tables([whale, small])
    per = (tbl.num_rows + 15) // 16
    for i in range(16):
        chunk = tbl.slice(i * per, per)
        if chunk.num_rows:
            pq.write_table(chunk, str(d / f"part-{i:05d}.parquet"))
    return str(d)


def test_whale_conversation_carry_is_o_blocks(whale_conv_dir):
    """VERDICT r4 item 1 done-criterion: the flagship constraints path must
    carry o(#blocks) FIXED-SIZE partials (<64 KB/block), never the whale's
    raw rows, and still produce the exact verdict."""
    from data_profiler_ray.config import ConstraintConfig
    from data_profiler_ray.stages.constraints import conversation_checks_parts
    ds = ray.data.read_parquet(whale_conv_dir)
    cfg = ConstraintConfig()
    stats = {}
    _, verdicts = conversation_checks_parts(
        ds, cfg, emit_row_violations=True, stats=stats)
    assert stats["n_blocks"] >= 2
    # o(#blocks) carry: every cut piece is clean → fixed-size partial rows
    assert stats["carry_bytes"] < 64 * 1024 * stats["n_blocks"]
    assert stats["carry_bytes"] < 4096 * stats["carry_rows"] + 4096
    # the 500k-row whale must NOT have been pulled raw
    assert stats["carry_rows"] <= 2 * stats["n_blocks"]

    v = verdicts.to_pandas().set_index("conv_id")
    assert "conv-whale" in v.index
    assert v.loc["conv-whale", "n_turns"] == 500_000
    assert bool(v.loc["conv-whale", "passed"])
