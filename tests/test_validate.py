"""Validation pipeline e2e + resume + drift tests (SURVEY.md §5.2 items 3-5)."""

import functools
import json
import os
import shutil

import pandas as pd
import pyarrow as pa
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


def test_resume_rejects_state_of_another_format(transcripts_dir, tmp_path):
    """A checkpoint whose state.pkl was written in another state format
    (here format 1: zlib'd pickle with no header) stops a resumed run with
    a ValueError that names both formats, before any merge."""
    import pickle
    import zlib

    from data_profiler_ray.stages.profile import STATE_FORMAT, loads_state

    out = str(tmp_path / "out")
    run_validation(transcripts_dir, _cfg(out))
    part = sorted(os.listdir(os.path.join(out, "parts")))[0]
    path = os.path.join(out, "parts", part, "state.pkl")
    with open(path, "rb") as f:
        rows, _ = loads_state(f.read())
    with open(path, "wb") as f:
        f.write(zlib.compress(pickle.dumps((rows, {})), 1))
    with pytest.raises(ValueError, match=f"state format 1; this engine "
                                         f"reads state format {STATE_FORMAT}"):
        run_validation(transcripts_dir, _cfg(out))


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
    from data_profiler_ray.stages.constraints import (VERDICT_SCHEMA,
                                                      VIOLATION_SCHEMA)
    violations = pa.table({
        "kind": pa.array(["bad_role", "duplicate_key"]),
        "conv_id": pa.array(["c1", "c2"]),
        "turn_idx": pa.array([2, 1], pa.int32()),
        "column": pa.array(["role", None], pa.string()),
        "value": pa.array(["moderator", None], pa.string()),
        "detail": pa.array([None, "count=2"], pa.string()),
        "part": pa.array(["p0", "p0"]),
    }, schema=VIOLATION_SCHEMA)
    verdicts = pa.table({
        "conv_id": pa.array(["c1", "c2"]), "part": pa.array(["p0", "p0"]),
        "n_turns": [5, 3], "n_duplicate_key": [0, 1], "n_turn_gap": [0, 0],
        "n_ts_regression": [0, 0], "n_bad_role": [1, 0],
        "n_dangling_tool": [0, 0], "passed": [False, False],
    }, schema=VERDICT_SCHEMA)
    root = str(tmp_path / "parts")
    w = _PartOutputWriter(root, max_per_kind=100)
    (t1,) = w(violations, verdicts)
    files1 = {f: open(f, "rb").read()
              for f in glob.glob(f"{root}/p0/*/*.parquet")}
    (t2,) = w(violations, verdicts)  # simulated retry
    files2 = {f: open(f, "rb").read()
              for f in glob.glob(f"{root}/p0/*/*.parquet")}
    assert t1.to_pydict() == t2.to_pydict()
    assert set(files1) == set(files2)          # same file names (digests)
    assert len(files1) == 2                    # one verdict + one violation
    row = t1.to_pylist()[0]
    assert row["n_conversations"] == 2
    assert row["n_failed"] == 2
    assert row["n_v_bad_role"] == 1 and row["n_v_duplicate_key"] == 1


def test_null_conv_id_shard_completes(tmp_path, request):
    """A shard with a null conv_id validates at every width: the range
    tasks order a null key last, as Arrow's sort does, and the verdict and
    violation file names hash the key columns, so a null key does not
    crash the check. At 4 CPUs (4 key ranges) the call gives the totals
    of the same call at one partition, as at one CPU."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    src = tmp_path / "in"
    src.mkdir()
    pq.write_table(pa.table({
        "conv_id": pa.array(["a", None, "b", "b"], pa.string()),
        "turn_idx": pa.array([0, 0, 0, 1], pa.int32()),
        "role": pa.array(["user", "user", "user", "assistant"]),
        "text": pa.array(["hi", "x", "q", "a"]),
        "tool": pa.array([None] * 4, pa.string()),
        "ts": pa.array([0, 1, 2, 3], pa.timestamp("us")),
    }), str(src / "s0.parquet"))

    def totals(s):
        return s["total_rows"], s["n_conversations"], s["n_violations"]

    wide = run_validation(str(src), _cfg(str(tmp_path / "wide")))
    assert wide["counters"]["sort_width"] == 4
    assert wide["total_rows"] == 4
    request.getfixturevalue("one_partition")
    one = run_validation(str(src), _cfg(str(tmp_path / "one")))
    assert one["counters"]["sort_width"] == 1
    assert totals(wide) == totals(one)


@pytest.mark.parametrize("form", ["one_partition", "exchange",
                                  "conversation_checks"])
def test_null_turn_idx_is_a_clear_error(tmp_path, request, form):
    """A null turn_idx stops the call with the check's ValueError, which
    names the column and the null-row count, as an instance of
    ``ValueError`` in every form: ``run_validation`` at one partition, as
    at one CPU, and over 4 key ranges at 4 CPUs, and
    ``conversation_checks``. The range task raises it, and Ray hands it
    on as its own class."""
    import pyarrow.parquet as pq

    from data_profiler_ray.stages.constraints import conversation_checks
    tbl = pa.table({
        "conv_id": pa.array(["a", "a", "b", "b", "c"], pa.string()),
        "turn_idx": pa.array([0, None, 0, 1, 0], pa.int32()),
        "role": pa.array(["user", "assistant", "user", "assistant", "user"]),
        "text": pa.array(["hi", "x", "q", "a", "z"]),
        "tool": pa.array([None] * 5, pa.string()),
        "ts": pa.array([0, 1, 2, 3, 4], pa.timestamp("us")),
    })
    with pytest.raises(ValueError, match="turn_idx is null in 1 rows"):
        if form == "conversation_checks":
            conversation_checks(ray.data.from_arrow(tbl), ConstraintConfig())
        else:
            if form == "one_partition":
                request.getfixturevalue("one_partition")
            (tmp_path / "in").mkdir()
            pq.write_table(tbl, str(tmp_path / "in" / "s0.parquet"))
            run_validation(str(tmp_path / "in"), _cfg(str(tmp_path / "out")))


def test_both_writers_see_the_same_rows(dirty_transcripts_dir, tmp_path):
    """One check path, two writers: on the dirty fixture,
    ``conversation_checks``' in-memory writer and ``run_validation``'s
    ``_PartOutputWriter`` see the same rows. The verdict rows, compared
    without ``part``, equal ``verdicts.parquet``'s, and the violation rows
    per kind add up to ``lineage.json``'s ``violations_by_kind``."""
    import collections

    import pyarrow.parquet as pq

    from data_profiler_ray.stages.constraints import conversation_checks
    cfg = _cfg(str(tmp_path / "out"))
    s = run_validation(dirty_transcripts_dir, cfg)
    violations, verdicts = conversation_checks(
        ray.data.read_parquet(dirty_transcripts_dir), cfg.constraints,
        emit_row_violations=True)

    def rows(t):
        return t.drop_columns(["part"]).sort_by("conv_id").to_pylist()

    assert verdicts.num_rows == s["n_conversations"]
    assert rows(verdicts) == rows(pq.read_table(
        os.path.join(cfg.output_dir, "verdicts.parquet")))
    by_kind = collections.Counter()
    for lineage in s["lineage"]:
        by_kind.update(lineage["violations_by_kind"])
    assert collections.Counter(violations.column("kind").to_pylist()) == by_kind
    assert len(by_kind) == 5


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
        assert not os.path.isabs(lin["input_path"])
        assert lin["input_bytes"] == os.path.getsize(
            os.path.join(transcripts_dir, lin["input_path"]))
        assert "profile_stage_s" not in lin
        assert "constraint_stage_s" not in lin
    s2 = run_validation(transcripts_dir, cfg)
    assert s2["parts_recomputed"] == 0
    assert keys <= set(s2["timings"])
    assert s2["timings"]["constraints"] == 0


def _write_groups(path, tables):
    """One Parquet shard at ``path`` whose row groups are ``tables``, in
    order; returns its footer."""
    import pyarrow.parquet as pq
    with pq.ParquetWriter(path, tables[0].schema) as w:
        for t in tables:
            w.write_table(t)
    return pq.read_metadata(path)


def _partial_block(conv: str, turns: list[int], code: list[str]):
    import pyarrow as pa
    n = len(turns)
    return pa.table({"conv_id": [conv] * n,
                     "turn_idx": pa.array(turns, pa.int32()),
                     "code": code})


def test_fold_and_project_retry_overwrites_its_partial(tmp_path,
                                                       monkeypatch):
    """A retried read run rewrites its own partial files under the same
    names and with the same bytes, also on a worker that folded another
    unit of the part in between; the driver then folds exactly the units'
    rows."""
    import glob

    from data_profiler_ray.pipelines.validate import (_fold_and_project,
                                                      _fold_part)
    from data_profiler_ray.stages import plan
    monkeypatch.setattr(plan, "FOLD_ROWS", 3)
    block = _partial_block("c1", [0, 1, 2], ["1", "2", "3"])
    other = _partial_block("c2", [0, 1], ["x", "y"])  # kills all_numeric
    path = str(tmp_path / "p0.parquet")
    metas = {path: _write_groups(path, [block, other])}
    first, second = plan.numbered_units(metas)
    root = str(tmp_path / "parts")

    def run(units):
        return list(_fold_and_project(units, block.schema, ProfileConfig(),
                                      root, 100, ["conv_id", "turn_idx"]))

    out = run([first])
    assert [t.column_names for t in out] == [["conv_id", "turn_idx", "part"]]
    assert out[0].column("part").to_pylist() == ["p0"] * 3
    [name] = glob.glob(f"{root}/p0/partials/*")
    assert os.path.basename(name) == "000000-3"
    first_bytes = open(name, "rb").read()

    run([second])
    run([first])  # the retry, on a worker that folded another unit
    files = sorted(glob.glob(f"{root}/p0/partials/*"))
    assert [os.path.basename(f) for f in files] == ["000000-3", "000001-2"]
    assert open(name, "rb").read() == first_bytes

    rows, _, n_partials = _fold_part(f"{root}/p0")
    assert (rows, n_partials) == (5, 2)
    assert not os.path.exists(f"{root}/p0/partials")


def test_fold_and_project_folds_interleaved_parts_once(tmp_path,
                                                       monkeypatch):
    """A read run over the units of two shards writes each unit's partial
    once, under its own shard's part, equal to a fold of the unit's rows;
    the narrow rows come back in unit order with their ``part``."""
    import glob

    from data_profiler_ray.pipelines.validate import _fold_and_project
    from data_profiler_ray.stages import plan
    from data_profiler_ray.stages.profile import fold
    monkeypatch.setattr(plan, "FOLD_ROWS", 4)
    a = [_partial_block("c1", [0, 1, 2], ["1", "2", "3"]),
         _partial_block("c3", [0, 1, 2, 3], ["4", "5", "6", "7"])]
    b = [_partial_block("c2", [0, 1], ["x", "y"])]
    metas = {}
    for name, groups in (("p0", a), ("p1", b)):
        path = str(tmp_path / f"{name}.parquet")
        metas[path] = _write_groups(path, groups)
    units = [u for p in sorted(metas)
             for u in plan.numbered_units({p: metas[p]})]
    assert [(k, rows) for k, _, rows in units] == [(0, 3), (1, 4), (0, 2)]
    root = str(tmp_path / "parts")
    schema = a[0].schema
    out = pa.concat_tables(_fold_and_project(
        units, schema, ProfileConfig(), root, 100, ["conv_id"]))
    assert out.column("conv_id").to_pylist() == ["c1"] * 3 + ["c3"] * 4 \
        + ["c2"] * 2
    assert out.column("part").to_pylist() == ["p0"] * 7 + ["p1"] * 2
    names = sorted(os.path.relpath(f, root)
                   for f in glob.glob(f"{root}/*/partials/*"))
    assert names == ["p0/partials/000000-3", "p0/partials/000001-4",
                     "p1/partials/000000-2"]
    for rows, name in ((a[0], "p0/partials/000000-3"),
                       (a[1], "p0/partials/000001-4"),
                       (b[0], "p1/partials/000000-2")):
        want = fold(rows, schema, ProfileConfig())
        assert open(os.path.join(root, name), "rb").read() == want


def test_fold_and_project_part_state_independent_of_runs(tmp_path,
                                                         monkeypatch):
    """A shard of two units, ``["x", "y"]`` then all-numeric strings,
    folds to the same ``state.pkl`` bytes whether its units share one
    read run or each has its own: the second unit's numeric values feed
    ``num_sub`` either way, whatever the first unit held."""
    from data_profiler_ray.pipelines.validate import (_fold_and_project,
                                                      _fold_part)
    from data_profiler_ray.stages import plan
    from data_profiler_ray.stages.profile import loads_state
    monkeypatch.setattr(plan, "FOLD_ROWS", 3)
    first = _partial_block("c1", [0, 1], ["x", "y"])
    second = _partial_block("c2", [0, 1, 2], ["1", "2", "3"])
    path = str(tmp_path / "p0.parquet")
    units = plan.numbered_units({path: _write_groups(path, [first, second])})
    assert [rows for _, _, rows in units] == [2, 3]
    states = []
    for runs in ([units], [[u] for u in units]):
        root = str(tmp_path / f"parts{len(runs)}")
        for run in runs:
            list(_fold_and_project(run, first.schema, ProfileConfig(), root,
                                   100, ["conv_id"]))
        rows, blob, n_partials = _fold_part(f"{root}/p0")
        assert (rows, n_partials) == (5, 2)
        states.append(blob)
    assert states[0] == states[1]
    assert loads_state(states[0])[1]["code"].num_sub.n == 3


def test_shard_of_one_table_twice_is_profiled_whole(tmp_path, monkeypatch):
    """A shard holding one table twice, stored in 8 row groups of 500
    rows: row groups i and i + 4 hold the same rows, and each still folds
    its own partial, so the part is profiled whole."""
    import pyarrow.parquet as pq

    from data_profiler_ray.stages import plan
    from data_profiler_ray.synthetic import generate_transcripts
    monkeypatch.setattr(plan, "FOLD_ROWS", 500)
    tbl = generate_transcripts(2000, seed=3)
    assert tbl.num_rows == 2000
    src = tmp_path / "in"
    src.mkdir()
    pq.write_table(pa.concat_tables([tbl, tbl]), str(src / "s0.parquet"),
                   row_group_size=500)
    s = run_validation(str(src), _cfg(str(tmp_path / "out")))
    assert s["counters"]["partials_folded"] == 8
    assert s["total_rows"] == 2 * tbl.num_rows
    assert s["profile"]["table"]["num_rows"] == 2 * tbl.num_rows
    assert {v["n"] for v in s["profile"]["variables"]} == {2 * tbl.num_rows}
    assert s["lineage"][0]["violations_by_kind"]["duplicate_key"] > 0
    assert not (tmp_path / "out" / "parts" / "s0" / "partials").exists()


def test_shard_of_small_row_groups_folds_one_partial(tmp_path):
    """A 500-row shard stored in row groups of 200 rows is one fold unit:
    it folds one partial, and its profile equals the one of the same rows
    stored as one row group."""
    import pyarrow.parquet as pq

    from data_profiler_ray.synthetic import generate_transcripts
    tbl = generate_transcripts(500, seed=5)
    assert tbl.num_rows == 500
    got = {}
    for group_rows in (200, 500):
        src = tmp_path / f"in{group_rows}"
        src.mkdir()
        pq.write_table(tbl, str(src / "s0.parquet"),
                       row_group_size=group_rows)
        s = run_validation(str(src), _cfg(str(tmp_path / f"out{group_rows}")))
        assert s["counters"]["partials_folded"] == 1
        assert s["total_rows"] == 500
        got[group_rows] = [json.dumps(s["profile"][key], sort_keys=True,
                                      default=str)
                           for key in ("table", "variables")]
    assert got[200] == got[500]


def test_stale_partials_are_ignored(transcripts_dir, tmp_path):
    """A partial left in a pending part before the run (a crashed earlier
    attempt) changes nothing, and no partials/ directory survives."""
    import glob

    fresh = run_validation(transcripts_dir, _cfg(str(tmp_path / "fresh")))
    out = str(tmp_path / "out")
    part = os.path.splitext(os.path.basename(
        sorted(glob.glob(f"{transcripts_dir}/*.parquet"))[0]))[0]
    stale = os.path.join(out, "parts", part, "partials")
    os.makedirs(stale)
    with open(os.path.join(fresh["output_dir"], "parts", part,
                           "state.pkl"), "rb") as f:
        blob = f.read()
    with open(os.path.join(stale, "0000000000000000-999"), "wb") as f:
        f.write(blob)
    s = run_validation(transcripts_dir, _cfg(out))
    assert s["total_rows"] == fresh["total_rows"]
    assert s["counters"]["partials_folded"] == \
        fresh["counters"]["partials_folded"]
    assert json.dumps(s["profile"]["variables"], sort_keys=True,
                      default=str) == json.dumps(
        fresh["profile"]["variables"], sort_keys=True, default=str)
    assert not glob.glob(os.path.join(out, "parts", "*", "partials"))


def test_one_read_and_one_execution_per_call(transcripts_dir, tmp_path,
                                             monkeypatch):
    """A call reads the shards once, in plain read tasks and not through
    Ray's Parquet reader or a Ray Data datasource, and checks them in the
    engine's range exchange, also on plain Ray tasks: at the session's 4
    CPUs it drains no Ray Data stream and never builds ``Dataset.sort`` or
    ``Dataset.repartition``. Its counters land in summary.json."""
    calls = dict.fromkeys(("read_parquet", "read_datasource", "iter_batches",
                           "sort", "repartition"), 0)
    read_parquet = ray.data.read_parquet
    read_datasource = ray.data.read_datasource

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    def no_materialize(self):
        raise AssertionError("run_validation materialized a dataset")

    monkeypatch.setattr(ray.data, "read_parquet",
                        counted("read_parquet", read_parquet))
    monkeypatch.setattr(ray.data, "read_datasource",
                        counted("read_datasource", read_datasource))
    for name in ("iter_batches", "sort", "repartition"):
        monkeypatch.setattr(ray.data.Dataset, name, counted(
            name, getattr(ray.data.Dataset, name)))
    monkeypatch.setattr(ray.data.Dataset, "materialize", no_materialize)
    cfg = _cfg(str(tmp_path / "out"))
    s = run_validation(transcripts_dir, cfg)
    assert calls == dict.fromkeys(calls, 0)
    with open(os.path.join(cfg.output_dir, "summary.json")) as f:
        counters = json.load(f)["counters"]
    assert counters == s["counters"]
    assert counters["sort_width"] == 4
    assert counters["n_sort_blocks"] == 4
    assert counters["partials_folded"] >= s["parts_total"]
    assert counters["carry_rows"] >= 1 and counters["carry_bytes"] > 0
    cpus = int(ray.cluster_resources()["CPU"])
    assert counters["read_tasks"] == min(s["parts_total"], cpus)


def _output_files(out: str) -> dict[str, object]:
    """Every file a call wrote under ``out`` by relative name: its bytes,
    but ``lineage.json`` without ``completed_at``, ``profile.json`` as its
    variables and no ``summary.json``."""
    files = {}
    for root, _, names in os.walk(out):
        for name in names:
            path = os.path.join(root, name)
            rel = os.path.relpath(path, out)
            if name == "summary.json":
                continue
            if name in ("lineage.json", "profile.json"):
                with open(path) as f:
                    doc = json.load(f)
                doc.pop("completed_at", None)
                files[rel] = doc.get("variables", doc)
            else:
                with open(path, "rb") as f:
                    files[rel] = f.read()
    return files


def test_width_one_stream_same_at_one_and_four_read_tasks(tmp_path,
                                                         monkeypatch,
                                                         request):
    """At one key range, 4 read tasks and 1 read task write the same
    files, byte for byte: every ``state.pkl``, verdict and violation file
    (names and bytes, with the per-kind violation cap binding),
    ``lineage.json`` but its ``completed_at`` and ``profile.json``'s
    variables. The one range task concatenates the 4 sorted runs in run
    order and sorts them stably on (conv_id, turn_idx, part), so rows of
    equal keys meet in unit order, as in the one run. The counters keep
    every key but ``read_tasks``."""
    import pyarrow.parquet as pq

    from data_profiler_ray.stages import segments
    from perfbench.inputs import dirty_whale_transcripts, write_shards
    src = str(tmp_path / "in")
    write_shards(dirty_whale_transcripts(8_000, 19), src, 8)
    monkeypatch.setattr(segments, "_MAX_CPU_WIDTH", 1)

    def validate(name):
        cfg = _cfg(str(tmp_path / name))
        cfg.constraints.max_violations_per_kind = 2
        return run_validation(src, cfg)

    four = validate("four")
    assert four["counters"]["read_tasks"] == 4
    request.getfixturevalue("one_partition")
    one = validate("one")

    assert one["counters"] == {**four["counters"], "read_tasks": 1}
    assert (one["counters"]["sort_width"],
            one["counters"]["n_sort_blocks"]) == (1, 1)
    kept = pa.concat_tables([
        pq.read_table(os.path.join(tmp_path, "one", name))
        for name in _output_files(str(tmp_path / "one"))
        if "/violations/" in name]).num_rows
    assert 0 < kept < one["n_violations"]     # the cap binds
    assert one["n_violations"] == four["n_violations"]
    want = _output_files(str(tmp_path / "four"))
    got = _output_files(str(tmp_path / "one"))
    assert sorted(got) == sorted(want)
    assert any("/verdicts/" in name for name in got)
    for name in want:
        assert got[name] == want[name], name


def test_four_range_runs_are_reproducible(tmp_path):
    """Two fresh calls at 4 CPUs (4 read tasks, 4 key ranges) write the
    same files with the same bytes, names included, and the same
    counters, with the per-kind violation cap binding: the range
    boundaries are a function of the sorted runs, not a random sample.
    ``conversation_checks`` called twice on one dataset gives equal
    ``stats``."""
    from data_profiler_ray.stages.constraints import conversation_checks
    from perfbench.inputs import dirty_whale_transcripts, write_shards
    src = str(tmp_path / "in")
    write_shards(dirty_whale_transcripts(8_000, 19), src, 8)
    runs = []
    for name in ("a", "b"):
        cfg = _cfg(str(tmp_path / name))
        cfg.constraints.max_violations_per_kind = 2
        runs.append(run_validation(src, cfg))
    assert runs[0]["counters"] == runs[1]["counters"]
    assert runs[0]["counters"]["sort_width"] == 4
    assert runs[0]["counters"]["read_tasks"] == 4
    want = _output_files(str(tmp_path / "a"))
    got = _output_files(str(tmp_path / "b"))
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name] == want[name], name

    ds = ray.data.read_parquet(src)
    stats = [{}, {}]
    for st in stats:
        conversation_checks(ds, ConstraintConfig(), stats=st)
    assert stats[0] == stats[1]
    assert stats[0]["width"] == 4 and stats[0]["carry_rows"] > 0


@pytest.mark.parametrize("fold_rows", [None, 300])
def test_profile_is_exact_across_fresh_and_resumed_runs(
        tmp_path, monkeypatch, fold_rows):
    """Two fresh runs give the same profile table and variables, and so
    does a run that redid 2 of 16 shards: it folds each of them from the
    same fold units as the fresh run. Every shard of 1000 rows is stored
    in row groups of 250, so with ``fold_rows`` 300 it is 4 units and its
    part folds from 4 partials; by default it is one unit."""
    import glob

    import pyarrow.parquet as pq

    from data_profiler_ray.stages import plan
    from data_profiler_ray.synthetic import write_transcripts
    if fold_rows:
        monkeypatch.setattr(plan, "FOLD_ROWS", fold_rows)
    per_shard = 4 if fold_rows else 1
    src = str(tmp_path / "in")
    write_transcripts(src, 16_000, seed=7, num_shards=16, dup_frac=0.01,
                      gap_frac=0.005, bad_role_frac=0.01,
                      ts_regression_frac=0.005, dangling_tool_frac=0.2)
    for p in glob.glob(f"{src}/*.parquet"):
        pq.write_table(pq.read_table(p), p, row_group_size=250)
    out = str(tmp_path / "out")
    fresh = run_validation(src, _cfg(out))
    assert fresh["counters"]["partials_folded"] == 16 * per_shard
    again = run_validation(src, _cfg(str(tmp_path / "again")))
    for part in ("part-00003", "part-00011"):
        os.remove(os.path.join(out, "parts", part, "_DONE"))
    resumed = run_validation(src, _cfg(out))
    assert resumed["parts_recomputed"] == 2
    assert resumed["counters"]["partials_folded"] == 2 * per_shard
    for key in ("table", "variables"):
        want = json.dumps(fresh["profile"][key], sort_keys=True, default=str)
        for other in (again, resumed):
            assert json.dumps(other["profile"][key], sort_keys=True,
                              default=str) == want


@pytest.fixture(scope="module")
def small_shards_dir(tmp_path_factory):
    from data_profiler_ray.synthetic import write_transcripts
    src = str(tmp_path_factory.mktemp("small") / "in")
    write_transcripts(src, 16_000, seed=11, num_shards=16, dup_frac=0.01,
                      gap_frac=0.005, dangling_tool_frac=0.2)
    return src


def test_small_shards_read_in_one_task_per_cpu(small_shards_dir, tmp_path):
    """16 small shards are read in one task per CPU, not one per shard,
    and each still folds exactly one partial."""
    s = run_validation(small_shards_dir, _cfg(str(tmp_path / "out")))
    cpus = int(ray.cluster_resources()["CPU"])
    assert s["counters"]["read_tasks"] == min(16, cpus)
    assert s["counters"]["partials_folded"] == 16


def _timed_runs(monkeypatch, module, name, out, pause):
    """Wrap the read-run function ``module.<name>`` so that, wherever it
    runs, it first sleeps ``pause`` seconds, then reads its run and
    records its pid, Ray task id, start and end times in a new file under
    ``out``. The wrapper is local to this function, so cloudpickle ships
    it to the workers by value. Returns a function that reads the records
    back, one per run, in no particular order."""
    os.makedirs(out)
    read_run = getattr(module, name)

    def timed(run, *args, **kwargs):
        import time
        import uuid
        start = time.time()
        time.sleep(pause)
        yield from read_run(run, *args, **kwargs)
        with open(os.path.join(out, uuid.uuid4().hex), "w") as f:
            json.dump({"pid": os.getpid(), "start": start, "end": time.time(),
                       "task": ray.get_runtime_context().get_task_id()}, f)

    monkeypatch.setattr(module, name, timed)

    def records():
        def load(name):
            with open(os.path.join(out, name)) as f:
                return json.load(f)
        return [load(name) for name in os.listdir(out)]
    return records


def test_read_tasks_run_at_once(small_shards_dir, tmp_path, monkeypatch):
    """At 4 CPUs the 4 read tasks of a 16-shard ``run_validation`` call
    and of a 4-run ``profile_dataset`` call run at once: 4 tasks in 4
    distinct worker processes, each started before the first one ended.
    Each task sleeps 1 s before it reads, so the overlap does not depend
    on how long the reads take on a loaded host."""
    import glob

    import pyarrow.parquet as pq

    from data_profiler_ray.pipelines import validate as val_mod
    from data_profiler_ray.stages import plan
    from data_profiler_ray.stages import profile as prof_mod
    assert ray.cluster_resources()["CPU"] == 4
    monkeypatch.setattr(plan, "FOLD_ROWS", max(
        pq.read_metadata(p).num_rows
        for p in glob.glob(f"{small_shards_dir}/*.parquet")))
    calls = [
        (val_mod, "_fold_and_project", lambda: run_validation(
            small_shards_dir, _cfg(str(tmp_path / "out")))),
        (prof_mod, "_fold_unit_run", lambda: profile_dataset(
            ray.data.read_parquet(small_shards_dir), ProfileConfig())),
    ]
    for module, name, call in calls:
        records = _timed_runs(monkeypatch, module, name,
                              str(tmp_path / name), pause=1.0)
        call()
        tasks = records()
        assert len(tasks) == 4, name
        assert len({t["task"] for t in tasks}) == 4, name
        assert len({t["pid"] for t in tasks}) == 4, name
        assert max(t["start"] for t in tasks) < min(
            t["end"] for t in tasks), (name, tasks)


def test_read_tasks_keep_blocks_under_target_size(small_shards_dir, tmp_path,
                                                  monkeypatch):
    """With Ray's block target lowered to twice the largest shard's footer
    bytes, the read keeps its task count (the fold units fix it, not the
    block target), every part still folds exactly one partial, and the
    profile equals the one read at the default target."""
    import glob

    import pyarrow.parquet as pq
    from ray.data import DataContext
    shard_bytes = max(pq.read_metadata(p).row_group(0).total_byte_size
                      for p in glob.glob(f"{small_shards_dir}/*.parquet"))
    default = run_validation(small_shards_dir, _cfg(str(tmp_path / "a")))
    monkeypatch.setattr(DataContext.get_current(), "target_max_block_size",
                        2 * shard_bytes)
    s = run_validation(small_shards_dir, _cfg(str(tmp_path / "b")))
    assert s["counters"]["read_tasks"] == default["counters"]["read_tasks"]
    assert s["counters"]["partials_folded"] == 16
    for key in ("table", "variables"):
        assert json.dumps(s["profile"][key], sort_keys=True, default=str) \
            == json.dumps(default["profile"][key], sort_keys=True,
                          default=str)


def _two_shards(src, second=lambda t: t, rows=(100, 100)):
    """Shards s0 and s1 of the first ``rows[0]`` and the next ``rows[1]``
    of 200 transcript rows, s1 passed through ``second`` first; returns
    ``src`` as a string."""
    import pyarrow.parquet as pq

    from data_profiler_ray.synthetic import generate_transcripts
    tbl = generate_transcripts(200, seed=1)
    os.makedirs(src)
    pq.write_table(tbl.slice(0, rows[0]), os.path.join(src, "s0.parquet"))
    pq.write_table(second(tbl.slice(rows[0], rows[1])),
                   os.path.join(src, "s1.parquet"))
    return str(src)


def test_output_files_do_not_name_their_directories(tmp_path):
    """``profile.json`` lists the shards relative to ``input_dir`` and
    ``summary.json`` leaves out ``output_dir``, so the same shards at
    paths of different lengths write the same file names; the returned
    summary still holds ``output_dir``."""
    names = []
    for d in ("in", "a_longer_input_directory"):
        out = str(tmp_path / f"out-{d}")
        s = run_validation(_two_shards(tmp_path / d), _cfg(out))
        assert s["output_dir"] == out
        with open(os.path.join(out, "summary.json")) as f:
            assert "output_dir" not in json.load(f)
        with open(os.path.join(out, "profile.json")) as f:
            names.append(json.load(f)["analysis"]["filenames"])
    assert names == [["s0.parquet", "s1.parquet"]] * 2


def test_empty_shard_beside_a_full_one(tmp_path):
    """A shard without rows folds no partial and checks no conversation;
    the full shard beside it is validated as on its own."""
    src = _two_shards(tmp_path / "in", rows=(0, 200))
    s = run_validation(src, _cfg(str(tmp_path / "out")))
    assert s["total_rows"] == 200
    assert s["profile"]["table"]["num_rows"] == 200
    assert s["counters"]["partials_folded"] == 1
    assert [(l["part"], l["rows_in"], l["n_conversations"])
            for l in s["lineage"]] == [
        ("s0", 0, 0), ("s1", 200, s["n_conversations"])]
    assert s["n_conversations"] > 0 and s["passed"]


def test_all_empty_input(tmp_path, monkeypatch):
    """Shards without rows validate to an empty, passing summary: no
    partial, no conversation and a profile of no rows, whose variables
    are ``profile_dataset``'s over the same files (one typed variable per
    column), on a fresh run and on a resume with every part done. Both
    build the accumulators a fold of rows builds: a declared geometry
    column is ``Geometry``, and ``light_mode`` drops the text stats."""
    src = _two_shards(tmp_path / "in", rows=(0, 0))
    cfg = _cfg(str(tmp_path / "out"))
    s = run_validation(src, cfg)
    assert (s["total_rows"], s["n_conversations"], s["n_violations"]) == \
        (0, 0, 0)
    assert s["passed"]
    assert s["counters"]["partials_folded"] == 0
    assert s["profile"]["table"]["num_rows"] == 0
    direct = profile_dataset(ray.data.read_parquet(src), cfg.profile)
    assert len(direct["variables"]) == 6
    assert s["profile"]["variables"] == direct["variables"]
    resumed = run_validation(src, cfg)
    assert resumed["parts_skipped"] == 2
    assert resumed["profile"]["variables"] == direct["variables"]

    import pyarrow.parquet as pq

    from data_profiler_ray.pipelines import validate as val_mod
    from data_profiler_ray.stages import profile as prof_mod
    from data_profiler_ray.synthetic import generate_transcripts
    built, finalize = [], prof_mod.finalize_profile

    def kinds(accs):
        return {n: (type(a), getattr(a, "text_stats", None))
                for n, a in accs.items()}

    def recording(total_rows, merged, *args, **kwargs):
        built.append(kinds(merged))
        return finalize(total_rows, merged, *args, **kwargs)

    monkeypatch.setattr(val_mod, "finalize_profile", recording)
    monkeypatch.setattr(prof_mod, "finalize_profile", recording)
    geo = _cfg(str(tmp_path / "geo"))
    geo.profile = ProfileConfig(geometry_columns=["tool"], light_mode=True)
    s = run_validation(src, geo)
    direct = profile_dataset(ray.data.read_parquet(src), geo.profile)
    assert {v["name"]: v["type"] for v in s["profile"]["variables"]}[
        "tool"] == "Geometry"
    assert s["profile"]["variables"] == direct["variables"]
    _, folded = prof_mod.loads_state(prof_mod.fold(
        generate_transcripts(20, seed=1),
        pq.read_schema(os.path.join(src, "s0.parquet")), geo.profile))
    assert built == [kinds(folded)] * 2


@pytest.mark.parametrize("case", [
    test_all_empty_input,
    functools.partial(test_profile_is_exact_across_fresh_and_resumed_runs,
                      fold_rows=None),
    functools.partial(test_profile_is_exact_across_fresh_and_resumed_runs,
                      fold_rows=300)],
    ids=["all_empty", "resume", "resume_fold_rows_300"])
def test_edge_shapes_at_one_partition(case, tmp_path, monkeypatch,
                                      one_partition):
    """The all-empty input (no unit, so no read task) and the resume of 2
    of 16 shards, whose profile equals the fresh run's, with the stream as
    one read-sort-check task: the same outputs as in the tests above."""
    case(tmp_path, monkeypatch)


@pytest.mark.parametrize("second, match", [
    (lambda t: t.drop_columns(["tool"]),
     r"s1\.parquet: column 'tool' is missing, but string in .*s0\.parquet"),
    (lambda t: t.set_column(1, "turn_idx", t.column(1).cast(pa.int64())),
     r"s1\.parquet: column 'turn_idx' is int64, but int32 in .*s0\.parquet"),
], ids=["missing_column", "other_type"])
def test_shards_of_other_schemas_raise_before_any_task(tmp_path, second,
                                                       match):
    """Shards whose columns or column types differ raise a ValueError
    naming the shard and the column, before any partition is written."""
    src = _two_shards(tmp_path / "in", second)
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=match):
        run_validation(src, _cfg(str(out)))
    assert os.listdir(out / "parts") == []


def test_resumed_shard_of_another_schema_raises(tmp_path):
    """On resume, a pending shard whose schema differs from the done
    shards' raises the same ValueError, before its part is touched."""
    import pyarrow.parquet as pq
    src = _two_shards(tmp_path / "in")
    out = tmp_path / "out"
    run_validation(src, _cfg(str(out)))
    s1 = os.path.join(src, "s1.parquet")
    pq.write_table(pq.read_table(s1).drop_columns(["tool"]), s1)
    os.remove(out / "parts" / "s1" / "_DONE")
    with pytest.raises(ValueError, match=r"s1\.parquet: column 'tool' is "
                                         r"missing, but string in "):
        run_validation(src, _cfg(str(out)))
    assert (out / "parts" / "s1" / "state.pkl").exists()


def test_profile_dataset_matches_run_validation(small_shards_dir, tmp_path,
                                                monkeypatch):
    """Where every shard is one fold unit (``stages.plan.FOLD_ROWS`` set to
    the largest shard's row count), ``profile_dataset`` over the shards
    and ``run_validation`` fold the same partials in the same order, and
    so give equal ``table``/``variables``."""
    import glob

    import pyarrow.parquet as pq

    from data_profiler_ray.stages import plan
    monkeypatch.setattr(plan, "FOLD_ROWS", max(
        pq.read_metadata(p).num_rows
        for p in glob.glob(f"{small_shards_dir}/*.parquet")))
    cfg = _cfg(str(tmp_path / "out"))
    s = run_validation(small_shards_dir, cfg)
    assert s["counters"]["partials_folded"] == s["parts_total"]
    prof = profile_dataset(ray.data.read_parquet(small_shards_dir),
                           cfg.profile)
    for key in ("table", "variables"):
        assert json.dumps(prof[key], sort_keys=True, default=str) == \
            json.dumps(s["profile"][key], sort_keys=True, default=str)
