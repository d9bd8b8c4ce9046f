"""Edge cases: empty inputs, single rows, all-null columns, unicode text."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data

from data_profiler_ray.config import ConstraintConfig, ProfileConfig
from data_profiler_ray.stages.constraints import conversation_checks
from data_profiler_ray.stages.profile import profile_dataset


def test_profile_empty_dataset():
    tbl = pa.table({"a": pa.array([], pa.int64()),
                    "b": pa.array([], pa.string())})
    prof = profile_dataset(ray.data.from_arrow(tbl), ProfileConfig())
    assert prof["table"]["num_rows"] == 0
    names = {v["name"] for v in prof["variables"]}
    assert names == {"a", "b"}
    for v in prof["variables"]:
        assert v["count"] == 0


def test_profile_all_null_column():
    tbl = pa.table({"x": pa.array([None] * 50, pa.string()),
                    "y": pa.array(range(50), pa.int64())})
    prof = profile_dataset(ray.data.from_arrow(tbl), ProfileConfig())
    v = {c["name"]: c for c in prof["variables"]}
    assert v["x"]["type"] == "Unsupported"   # empty after dropna → Unsupported
    assert v["x"]["num_missing"] == 50
    assert prof["table"]["n_vars_all_missing"] == 1
    assert v["y"]["type"] == "Numeric"


def test_profile_single_row():
    tbl = pa.table({"n": pa.array([3.5]), "s": pa.array(["hello"])})
    prof = profile_dataset(ray.data.from_arrow(tbl), ProfileConfig())
    v = {c["name"]: c for c in prof["variables"]}
    assert v["n"]["count"] == 1
    assert v["n"]["min"] == v["n"]["max"] == 3.5
    std = v["n"]["std"]
    assert std is None or np.isnan(std)     # ddof=1 undefined at n=1


def test_profile_unicode_text():
    texts = ["héllo wörld", "测试文本内容", "🎉 emoji test 🎊", "مرحبا بالعالم",
             "plain ascii"]
    tbl = pa.table({"t": pa.array(texts * 10)})
    prof = profile_dataset(ray.data.from_arrow(tbl), ProfileConfig())
    v = prof["variables"][0]
    s = pd.Series(texts * 10)
    assert v["num_chars"] == s.str.len().sum()
    assert v["num_words"] == s.str.findall(r"\S+").str.len().sum()
    assert v["n_distinct"] == 5


def test_constraints_single_conversation_single_turn():
    tbl = pa.table({
        "conv_id": pa.array(["only"]),
        "turn_idx": pa.array([0], pa.int32()),
        "role": pa.array(["user"]),
        "tool": pa.array([None], pa.string()),
        "ts": pa.array([0], pa.timestamp("us")),
    })
    cfg = ConstraintConfig()
    violations, verdicts = conversation_checks(ray.data.from_arrow(tbl), cfg)
    assert violations.num_rows == 0
    v = verdicts.to_pandas()
    assert len(v) == 1 and v.iloc[0]["passed"]
    assert v.iloc[0]["n_turns"] == 1


def test_constraints_turn_not_starting_at_zero():
    tbl = pa.table({
        "conv_id": pa.array(["c"] * 3),
        "turn_idx": pa.array([5, 6, 7], pa.int32()),
        "role": pa.array(["user", "assistant", "user"]),
        "tool": pa.array([None] * 3, pa.string()),
        "ts": pa.array([0, 1, 2], pa.timestamp("us")),
    })
    violations, verdicts = conversation_checks(ray.data.from_arrow(tbl),
                                               ConstraintConfig())
    v = verdicts.to_pandas().iloc[0]
    assert not v["passed"]
    assert v["n_turn_gap"] > 0   # contiguity demands 0..n-1


def test_constraints_null_ts_at_block_edge():
    """A null ts on a conversation's first or last row is carried as null
    and compares as the oracle's ``ts < LAG(ts)`` does: a comparison with a
    null is no regression. (Sorted into blocks of a row or two, every
    conversation here is cut at a block edge.)"""
    tbl = pa.table({
        "conv_id": pa.array(["a"] * 3 + ["b"] * 3 + ["c"] * 3),
        "turn_idx": pa.array([0, 1, 2] * 3, pa.int32()),
        "role": pa.array(["user"] * 9),
        "tool": pa.array([None] * 9, pa.string()),
        "ts": pa.array([None, 5, 3, 1, None, 0, 1, 2, None],
                       pa.timestamp("us")),
    })
    violations, verdicts = conversation_checks(ray.data.from_arrow(tbl),
                                               ConstraintConfig())
    assert violations.select(["kind", "conv_id", "turn_idx", "detail"]
                             ).to_pylist() == [
        {"kind": "ts_regression", "conv_id": "a", "turn_idx": 2,
         "detail": "ts decreased by 2us"}]
    v = verdicts.to_pandas().set_index("conv_id").sort_index()
    assert v["n_ts_regression"].tolist() == [1, 0, 0]
    assert v["passed"].tolist() == [False, True, True]
    assert (v["n_turns"] == 3).all()


def _one_conversation(n_turns: int) -> pa.Table:
    base = pd.Timestamp("2025-01-01").value // 1000
    turn = np.arange(n_turns, dtype=np.int32)
    return pa.table({
        "conv_id": pa.array(["only"] * n_turns),
        "turn_idx": pa.array(turn),
        "role": pa.array(np.where(turn % 2 == 0, "user", "assistant")),
        "text": pa.array(["hello"] * n_turns),
        "tool": pa.array([None] * n_turns, pa.string()),
        "ts": pa.array(base + turn.astype(np.int64) * 1000,
                       pa.timestamp("us")),
    })


def _validate_shards(tmp_path, tbl: pa.Table, n_shards: int) -> dict:
    import pyarrow.parquet as pq

    from data_profiler_ray.config import ValidationConfig
    from data_profiler_ray.pipelines.validate import run_validation
    src = tmp_path / "in"
    src.mkdir()
    per = -(-tbl.num_rows // n_shards)
    for i in range(n_shards):
        pq.write_table(tbl.slice(i * per, per),
                       str(src / f"part-{i:05d}.parquet"))
    return run_validation(str(src), ValidationConfig(
        output_dir=str(tmp_path / "out")))


def _only_verdict(summary: dict, n_turns: int) -> None:
    import os

    import pyarrow.parquet as pq
    assert summary["n_conversations"] == 1
    assert summary["n_violations"] == 0
    assert summary["passed"]
    verdicts = pq.read_table(os.path.join(summary["output_dir"],
                                          "verdicts.parquet")).to_pylist()
    assert verdicts == [{
        "conv_id": "only", "part": "part-00000", "n_turns": n_turns,
        "n_duplicate_key": 0, "n_turn_gap": 0, "n_ts_regression": 0,
        "n_bad_role": 0, "n_dangling_tool": 0, "passed": True}]


def test_validate_single_conversation(tmp_path):
    """One conversation in one shard: no conversation lies inside a sorted
    block, so every verdict comes from the cut-piece merge."""
    s = _validate_shards(tmp_path, _one_conversation(1000), 1)
    assert s["total_rows"] == 1000
    _only_verdict(s, 1000)


def test_validate_whale_only(tmp_path):
    """One conversation spread over several shards and every sort block."""
    s = _validate_shards(tmp_path, _one_conversation(40_000), 4)
    assert s["total_rows"] == 40_000
    _only_verdict(s, 40_000)


@pytest.mark.parametrize("case", [test_validate_single_conversation,
                                  test_validate_whale_only],
                         ids=["single_conversation", "whale_only"])
def test_validate_one_conversation_at_one_partition(case, tmp_path,
                                                    one_partition):
    """The one-conversation shapes above with the stream as one
    read-sort-check task: the same single verdict."""
    case(tmp_path)
