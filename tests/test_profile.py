"""Golden-profile e2e: distributed profile of parquet tables vs a pandas
oracle computed on the same data (SURVEY.md §5.2 item 2)."""

import datetime
import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data

from data_profiler_ray.config import ProfileConfig
from data_profiler_ray.stages.profile import profile_dataset


@pytest.fixture(scope="module")
def lineitem_profile(sf_dir):
    ds = ray.data.read_parquet(f"{sf_dir}/lineitem.parquet")
    prof = profile_dataset(ds, ProfileConfig(title="lineitem"))
    pdf = pd.read_parquet(f"{sf_dir}/lineitem.parquet")
    return prof, pdf


def _var(prof, name):
    return next(v for v in prof["variables"] if v["name"] == name)


def test_table_stats(lineitem_profile):
    prof, pdf = lineitem_profile
    assert prof["table"]["num_rows"] == len(pdf)
    assert prof["table"]["num_attributes"] == len(pdf.columns)
    assert prof["table"]["n_cells_missing"] == int(pdf.isna().sum().sum())


def test_numeric_variable_vs_pandas(lineitem_profile):
    prof, pdf = lineitem_profile
    for col in ["l_quantity", "l_extendedprice", "l_discount"]:
        v = _var(prof, col)
        s = pdf[col]
        assert v["count"] == s.count()
        assert v["mean"] == pytest.approx(s.mean())
        assert v["std"] == pytest.approx(s.std(ddof=1))
        assert v["min"] == pytest.approx(s.min())
        assert v["max"] == pytest.approx(s.max())
        assert v["sum"] == pytest.approx(s.sum(), rel=1e-9)
        assert v["skewness"] == pytest.approx(s.skew(), abs=1e-6)
        assert v["kurtosis"] == pytest.approx(s.kurt(), abs=1e-6)
        assert v["n_distinct"] == s.nunique()
        assert v["median"] == pytest.approx(s.median(), abs=1e-9)
        assert v["25%"] == pytest.approx(s.quantile(0.25), abs=1e-9)
        assert v["95%"] == pytest.approx(s.quantile(0.95), abs=1e-9)
        assert v["type"] == "Numeric"


def test_categorical_variable(lineitem_profile):
    prof, pdf = lineitem_profile
    v = _var(prof, "l_returnflag")
    s = pdf["l_returnflag"]
    assert v["type"] == "Categorical"
    assert v["n_distinct"] == s.nunique()
    vc = s.value_counts()
    fd = v["freq_value_counts"]
    for val, cnt in vc.items():
        assert fd[str(val)] == cnt


def test_datetime_variable(lineitem_profile):
    prof, pdf = lineitem_profile
    v = _var(prof, "l_shipdate")
    s = pdf["l_shipdate"]
    assert v["type"] == "DateTime"
    assert v["start"] == s.min().isoformat()
    assert v["end"] == s.max().isoformat()
    assert v["n_distinct"] == s.nunique()


def test_transcripts_profile(transcripts_dir):
    ds = ray.data.read_parquet(transcripts_dir)
    prof = profile_dataset(ds, ProfileConfig(title="transcripts"))
    pdf = pd.read_parquet(transcripts_dir)
    assert prof["table"]["num_rows"] == len(pdf)
    types = {v["name"]: v["type"] for v in prof["variables"]}
    assert types["role"] == "Categorical"
    assert types["turn_idx"] == "Numeric"
    assert types["ts"] == "DateTime"
    assert types["text"] == "Textual"
    v = _var(prof, "text")
    total_chars = pdf["text"].str.len().sum()
    assert v["num_chars"] == total_chars
    # word count vs a pandas oracle of the same regex semantics
    n_words = pdf["text"].str.findall(r"\S+").str.len().sum()
    assert v["num_words"] == n_words
    tool = _var(prof, "tool")
    assert tool["num_missing"] == pdf["tool"].isna().sum()


def test_types_dict_override(sf_dir):
    ds = ray.data.read_parquet(f"{sf_dir}/region.parquet")
    prof = profile_dataset(
        ds, ProfileConfig(types_dict={"r_name": "Textual"}))
    v = next(v for v in prof["variables"] if v["name"] == "r_name")
    assert v["type"] == "Textual"


def test_many_block_fold(sf_dir):
    """A many-block dataset folds its partials one at a time; the result
    must equal the pandas oracle on the whole column."""
    ds = ray.data.read_parquet(f"{sf_dir}/lineitem.parquet").repartition(16)
    prof = profile_dataset(ds, ProfileConfig(columns=["l_quantity"]))
    pdf = pd.read_parquet(f"{sf_dir}/lineitem.parquet")
    v = prof["variables"][0]
    assert v["count"] == len(pdf)
    assert v["mean"] == pytest.approx(pdf["l_quantity"].mean())
    assert v["n_distinct"] == pdf["l_quantity"].nunique()
    assert v["median"] == pytest.approx(pdf["l_quantity"].median())


def test_profile_dataset_never_materializes(sf_dir, monkeypatch):
    """The partials stream into the driver fold: no stage is materialized."""
    def no_materialize(*a, **k):
        raise AssertionError("profile_dataset materialized a Dataset")

    monkeypatch.setattr(ray.data.Dataset, "materialize", no_materialize)
    ds = ray.data.read_parquet(f"{sf_dir}/lineitem.parquet").repartition(4)
    prof = profile_dataset(ds, ProfileConfig(columns=["l_quantity"]))
    assert prof["table"]["num_rows"] == pq.read_metadata(
        f"{sf_dir}/lineitem.parquet").num_rows


def test_profile_knobs_reach_finalize():
    """``max_freq_distr`` caps the frequency table (top-k plus one
    ``Other Values (n)`` bucket) and ``num_cat_perc_threshold`` moves the
    Categorical/Textual split."""
    vals = [f"v{i}" for i in range(8) for _ in range(15 - i)]  # 15..8
    ds = ray.data.from_arrow(pa.table({"s": vals}))
    v = profile_dataset(ds, ProfileConfig(max_freq_distr=3))["variables"][0]
    assert v["freq_value_counts"] == {"v0": 15, "v1": 14, "v2": 13,
                                      "Other Values (5)": 50}
    assert v["type"] == "Categorical"      # p_distinct 8/92 < 0.5
    v = profile_dataset(ds, ProfileConfig(num_cat_perc_threshold=0.05)
                        )["variables"][0]
    assert len(v["freq_value_counts"]) == 8
    assert v["type"] == "Textual"


def _state_blobs(n_blobs: int, rows: int) -> tuple[list[bytes], dict]:
    """Per-part state blobs of int / float / string columns, plus the
    concatenated raw columns."""
    from data_profiler_ray.stages.profile import dumps_state
    from data_profiler_ray.state.column import make_accumulator
    rng = np.random.default_rng(11)
    blobs, raw = [], {"i": [], "f": [], "s": []}
    for _ in range(n_blobs):
        tbl = pa.table({
            "i": pa.array(rng.integers(0, 1000, rows)),
            "f": pa.array(rng.normal(0, 1, rows)),
            "s": pa.array(rng.choice(["a", "b", "c", "d"], rows)),
        })
        accs = {}
        for name in tbl.column_names:
            accs[name] = make_accumulator(tbl.schema.field(name))
            accs[name].update(tbl.column(name))
            raw[name].append(tbl.column(name).to_numpy())
        blobs.append(dumps_state((rows, accs)))
    return blobs, {k: np.concatenate(v) for k, v in raw.items()}


def test_state_blob_header_and_round_trip():
    """A state blob is the magic, the 2-byte state format, the 8-byte length
    of the raw pickle, then that pickle compressed with zstd; it loads back
    to the same state."""
    import pickle

    from data_profiler_ray.stages.profile import (STATE_FORMAT, dumps_state,
                                                  loads_state)
    blob = _state_blobs(1, 2000)[0][0]
    assert blob[:4] == b"DPRS"
    assert int.from_bytes(blob[4:6], "little") == STATE_FORMAT == 3
    size = int.from_bytes(blob[6:14], "little")
    raw = pa.Codec("zstd").decompress(blob[14:], decompressed_size=size,
                                      asbytes=True)
    assert len(raw) == size
    rows, accs = loads_state(blob)
    assert rows == pickle.loads(raw)[0] == 2000
    assert dumps_state((rows, accs)) == blob


def test_loads_state_rejects_truncated_or_corrupt_blob():
    """A cut or damaged state blob raises ValueError before any merge; a raw
    length no zstd frame of the blob's size can hold is rejected before the
    decompressor allocates it."""
    from data_profiler_ray.stages.profile import loads_state
    blob = _state_blobs(1, 2000)[0][0]
    flipped = blob[:20] + bytes(b ^ 0xFF for b in blob[20:40]) + blob[40:]
    for bad in (blob[:10], blob[:14], blob[:len(blob) // 2], flipped):
        with pytest.raises(ValueError, match="corrupt"):
            loads_state(bad)
    huge = blob[:6] + (1 << 40).to_bytes(8, "little") + blob[14:]
    with pytest.raises(ValueError, match=f"claiming a {1 << 40}-byte state"):
        loads_state(huge)


def _counting_merges(monkeypatch):
    """Wrap ``stages.profile.merge_states``; returns the list that gets the
    row count of every blob the driver folds."""
    from data_profiler_ray.stages import profile as prof_mod
    folded, merge_states = [], prof_mod.merge_states

    def counting(stream):
        def each():
            for blob in stream:
                folded.append(prof_mod.loads_state(blob)[0])
                yield blob
        return merge_states(each())

    monkeypatch.setattr(prof_mod, "merge_states", counting)
    return folded


def _assert_profile_of(prof, whole):
    """``prof`` agrees with ``whole`` folded as a single partial."""
    from data_profiler_ray.stages.profile import _PartialProfiler, loads_state
    _, accs = loads_state(
        _PartialProfiler(whole.schema, ProfileConfig()).fold(whole))
    assert prof["table"]["num_rows"] == len(whole)
    for v in prof["variables"]:
        w = accs[v["name"]].result()
        for key in ("count", "n_distinct", "min", "max", "median"):
            assert v.get(key) == w.get(key), (v["name"], key)
        assert v.get("mean") == pytest.approx(w.get("mean"), rel=1e-12)


def _write_files(d, whole, sizes):
    """``whole`` cut in order into one Parquet file per entry of ``sizes``
    under ``d``; returns the directory as a string."""
    os.makedirs(d)
    for i, o in enumerate(np.cumsum([0] + list(sizes[:-1]))):
        pq.write_table(whole.slice(int(o), sizes[i]), f"{d}/{i:03d}.parquet")
    return str(d)


def _recording_streams(monkeypatch):
    """Wrap ``Dataset.iter_batches``; returns the list that gets every
    Dataset it drains, so a test can read the stream's ``stats()``."""
    seen, iter_batches = [], ray.data.Dataset.iter_batches

    def recording(self, *args, **kwargs):
        seen.append(self)
        return iter_batches(self, *args, **kwargs)

    monkeypatch.setattr(ray.data.Dataset, "iter_batches", recording)
    return seen


def _operators(stream):
    """The ``Operator`` lines of a drained stream's ``stats()``."""
    return [line for line in stream.stats().splitlines()
            if line.startswith("Operator")]


def _recording_folds(monkeypatch, out, delay=0.0):
    """Replace ``stages.profile._PartialProfiler`` with a subclass whose
    ``fold``, wherever it runs, sleeps for a random time of up to
    ``delay`` seconds and records the row count of each batch it folds in
    a new file under ``out``. Returns a function that reads the records
    back, one list of batch row counts per fold, in no particular order."""
    from data_profiler_ray.stages import profile as prof_mod
    os.makedirs(out)

    class Recording(prof_mod._PartialProfiler):
        def fold(self, batches, part=None):
            import random
            import time
            import uuid
            if isinstance(batches, (pa.Table, pa.RecordBatch)):
                batches = [batches]
            batches = list(batches)
            time.sleep(random.uniform(0, delay))
            with open(os.path.join(out, uuid.uuid4().hex), "w") as f:
                json.dump([len(b) for b in batches], f)
            return super().fold(batches, part=part)

    monkeypatch.setattr(prof_mod, "_PartialProfiler", Recording)

    def records():
        def load(name):
            with open(os.path.join(out, name)) as f:
                return json.load(f)
        return [load(name) for name in os.listdir(out)]
    return records


@pytest.mark.parametrize("tables", [
    # files of 12,500 rows pack two to a unit, in file order
    ([12_500] * 5, [25_000, 25_000, 12_500]),
    # a row group over FOLD_ROWS rows is a unit of its own
    ([70_000], [70_000]),
])
def test_profile_dataset_folds_one_blob_per_fold_batch(monkeypatch, tmp_path,
                                                       tables):
    """A bare ``read_parquet`` folds one partial per fold unit
    (``plan.fold_units``), in file order, and the profile equals the one
    folded from all rows as a single partial."""
    from data_profiler_ray.stages import plan
    assert plan.FOLD_ROWS == 32_768
    sizes, units = tables
    rng = np.random.default_rng(5)
    n = sum(sizes)
    whole = pa.table({
        "i": pa.array(rng.integers(0, 5_000, n)),
        "f": pa.array(rng.normal(0, 1, n)),
        "s": pa.array([f"s{v}" for v in rng.integers(0, 20_000, n)]),
    })
    d = _write_files(tmp_path / "in", whole, sizes)
    folded = _counting_merges(monkeypatch)
    prof = profile_dataset(ray.data.read_parquet(d), ProfileConfig())
    assert folded == units
    _assert_profile_of(prof, whole)


def test_fold_batches_bounded_by_block_bytes(monkeypatch, tmp_path):
    """Wide rows make fewer rows per read batch (``_read_batch_rows``): no
    batch a unit folds holds more footer bytes than
    ``DataContext.target_max_block_size``, the unit still folds into one
    partial, and the profile still equals the whole-table fold."""
    from ray.data import DataContext

    from data_profiler_ray.stages import plan
    target = 256 * 1024
    monkeypatch.setattr(DataContext.get_current(), "target_max_block_size",
                        target)
    rng = np.random.default_rng(9)
    n = 2_000
    whole = pa.table({
        "i": pa.array(rng.integers(0, 50, n)),
        "doc": pa.array([f"{v:06d}" * 300 for v in rng.integers(0, 999, n)]),
    })
    d = _write_files(tmp_path / "in", whole, [500] * 4)
    metas = {p: pq.read_metadata(p) for p in sorted(
        str(f) for f in (tmp_path / "in").iterdir())}
    widest = max(-(-plan._footer_bytes(md) // md.num_rows)
                 for md in metas.values())
    batch = plan._read_batch_rows(metas)
    assert batch * widest <= target < (batch + 1) * widest
    records = _recording_folds(monkeypatch, str(tmp_path / "folds"))
    folded = _counting_merges(monkeypatch)
    prof = profile_dataset(ray.data.read_parquet(d), ProfileConfig())
    assert folded == [n]
    [batches] = records()
    assert sum(batches) == n
    assert max(batches) <= batch
    assert len(batches) == 4 * -(-500 // batch)
    _assert_profile_of(prof, whole)


def test_fold_batches_keep_read_fusion(monkeypatch, tmp_path):
    """The fold runs inside the read: one operator,
    ``ReadParquetFoldUnits`` (no ``ReadParquet``), in one task per CPU,
    folding one partial per fold unit."""
    from data_profiler_ray.stages import plan
    monkeypatch.setattr(plan, "FOLD_ROWS", 2_000)
    cpus = int(ray.cluster_resources()["CPU"])
    rng = np.random.default_rng(3)
    files = 2 * cpus
    whole = pa.table({"x": pa.array(rng.normal(0, 1, 2_000 * files))})
    d = _write_files(tmp_path / "in", whole, [2_000] * files)
    seen = _recording_streams(monkeypatch)
    folded = _counting_merges(monkeypatch)
    prof = profile_dataset(ray.data.read_parquet(d), ProfileConfig())
    [op] = _operators(seen[-1])
    assert op.startswith(
        f"Operator 1 ReadParquetFoldUnits: {cpus} tasks executed"), op
    assert folded == [2_000] * files
    _assert_profile_of(prof, whole)


def _profile_json(prof):
    return {key: json.dumps(prof[key], sort_keys=True, default=str)
            for key in ("table", "variables")}


@pytest.fixture(scope="module")
def lineitem_dir(tmp_path_factory):
    """``perfbench.inputs.lineitem(40_000, 7)`` in 8 files: every column
    kind, and an ``l_comment`` counter that overflows."""
    from perfbench.inputs import lineitem, write_shards
    d = str(tmp_path_factory.mktemp("lineitem") / "in")
    write_shards(lineitem(40_000, 7), d, 8)
    return d


def test_parquet_profile_same_at_one_and_four_read_tasks(monkeypatch,
                                                         lineitem_dir):
    """A Parquet input's profile ``table``/``variables`` do not depend on
    the CPU count the read plan sizes its tasks by: at 1 and at 4 read
    tasks the same fold units (here 4 of two files each) fold in the same
    order."""
    from data_profiler_ray.stages import plan
    monkeypatch.setattr(plan, "FOLD_ROWS", 10_000)
    seen = _recording_streams(monkeypatch)
    folded = _counting_merges(monkeypatch)
    got = {}
    for cpus in (1, 4):
        monkeypatch.setattr(plan, "_cpus", lambda cpus=cpus: cpus)
        folded.clear()
        got[cpus] = _profile_json(profile_dataset(
            ray.data.read_parquet(lineitem_dir), ProfileConfig()))
        assert folded == [10_000] * 4
        [op] = _operators(seen[-1])
        assert f"{cpus} tasks executed" in op, op
    assert got[1] == got[4]


def test_parquet_profile_ignores_task_completion_order(monkeypatch,
                                                       lineitem_dir,
                                                       tmp_path):
    """Two 4-task runs whose read tasks sleep for random times in each
    fold give the same profile ``table``/``variables``: the partials fold
    in unit order, not in the order the tasks finish."""
    from data_profiler_ray.stages import plan
    monkeypatch.setattr(plan, "FOLD_ROWS", 10_000)
    monkeypatch.setattr(plan, "_cpus", lambda: 4)
    runs = []
    for run in range(2):
        records = _recording_folds(monkeypatch, str(tmp_path / f"{run}"),
                                   delay=0.3)
        runs.append(_profile_json(profile_dataset(
            ray.data.read_parquet(lineitem_dir), ProfileConfig())))
        assert sorted(map(sum, records())) == [10_000] * 4
    assert runs[0] == runs[1]


def _write_row_groups(path, whole, group_rows):
    """``whole`` as one Parquet file of row groups of ``group_rows`` rows;
    returns its footer."""
    pq.write_table(whole, path, row_group_size=group_rows)
    return pq.read_metadata(path)


def test_fold_units_pack_row_groups_from_footers(monkeypatch, tmp_path):
    """Fold units are runs of consecutive row groups, in file order, of at
    most ``FOLD_ROWS`` rows: 12,500-row files pack two to a unit, a row
    group over ``FOLD_ROWS`` rows is its own unit, a file of several row
    groups is cut only at row-group boundaries, and a unit reads in
    batches of at most ``_read_batch_rows`` rows."""
    from data_profiler_ray.stages import plan
    from data_profiler_ray.stages.profile import _unit_batches
    tbl = pa.table({"x": pa.array(np.arange(70_000))})
    metas = {str(tmp_path / f"{i}.parquet"): _write_row_groups(
        str(tmp_path / f"{i}.parquet"), tbl.slice(0, 12_500), 12_500)
        for i in range(5)}
    p = sorted(metas)
    assert plan.fold_units(metas) == [[(p[0], [0]), (p[1], [0])],
                                      [(p[2], [0]), (p[3], [0])],
                                      [(p[4], [0])]]
    # 5,000 rows, then one 70,000-row group, then 50,000 rows in groups
    # of 10,000
    layout = [(tbl.slice(0, 5_000), 5_000), (tbl, 70_000),
              (tbl.slice(0, 50_000), 10_000)]
    metas = {str(tmp_path / f"m{i}.parquet"): _write_row_groups(
        str(tmp_path / f"m{i}.parquet"), t, g)
        for i, (t, g) in enumerate(layout)}
    m = sorted(metas)
    units = plan.fold_units(metas)
    assert units == [[(m[0], [0])], [(m[1], [0])],
                     [(m[2], [0, 1, 2])], [(m[2], [3, 4])]]
    batch = plan._read_batch_rows(metas)
    assert batch == plan.FOLD_ROWS
    sizes = [[len(b) for b in _unit_batches(u, batch, None)] for u in units]
    assert sizes == [[5_000], [32_768, 32_768, 4_464], [30_000], [20_000]]
    # the task count regroups whole units only
    monkeypatch.setattr(plan, "_cpus", lambda: 3)
    assert plan.unit_runs(units) == [units[:1], units[1:2], units[2:]]
    monkeypatch.setattr(plan, "_cpus", lambda: 8)
    assert plan.unit_runs(units) == [[u] for u in units]
    assert plan.unit_runs([]) == []


def test_zero_row_files_fold_nothing(monkeypatch, tmp_path):
    """Files without rows among others fold into no unit and leave the
    profile as the other files give it; an input of only such files still
    gets one typed variable per column."""
    from data_profiler_ray.stages import plan
    rng = np.random.default_rng(6)
    whole = pa.table({"i": pa.array(rng.integers(0, 100, 3_000)),
                      "s": pa.array([f"s{v}" for v in
                                     rng.integers(0, 50, 3_000)])})
    d = _write_files(tmp_path / "in", whole, [0, 1_000, 0, 2_000, 0])
    metas = {str(p): pq.read_metadata(p)
             for p in sorted((tmp_path / "in").iterdir())}
    assert [[f for f, _ in u] for u in plan.fold_units(metas)] == \
        [[sorted(metas)[1], sorted(metas)[3]]]
    ds = ray.data.read_parquet(d)
    assert plan.bare_parquet_footers(ds) is not None
    folded = _counting_merges(monkeypatch)
    prof = profile_dataset(ds, ProfileConfig())
    assert folded == [3_000]
    _assert_profile_of(prof, whole)

    e = _write_files(tmp_path / "empty", whole, [0, 0])
    folded.clear()
    prof = profile_dataset(ray.data.read_parquet(e), ProfileConfig())
    assert folded == []
    assert prof["table"]["num_rows"] == 0
    assert [(v["name"], v["count"]) for v in prof["variables"]] == \
        [("i", 0), ("s", 0)]


def test_columns_read_folds_only_those_columns(monkeypatch, tmp_path):
    """``config.columns`` on a bare read: the fold units read and profile
    only those columns, with the values a whole-table fold gives them."""
    rng = np.random.default_rng(8)
    whole = pa.table({"i": pa.array(rng.integers(0, 1_000, 4_000)),
                      "f": pa.array(rng.normal(0, 1, 4_000)),
                      "s": pa.array([f"s{v}" for v in
                                     rng.integers(0, 99, 4_000)])})
    d = _write_files(tmp_path / "in", whole, [1_000] * 4)
    seen = _recording_streams(monkeypatch)
    prof = profile_dataset(ray.data.read_parquet(d),
                           ProfileConfig(columns=["s", "f"]))
    [op] = _operators(seen[-1])
    assert op.startswith("Operator 1 ReadParquetFoldUnits"), op
    assert [v["name"] for v in prof["variables"]] == ["s", "f"]
    _assert_profile_of(prof, whole.select(["s", "f"]))


def test_sequential_fold_equals_merged_one_batch_partials():
    """Below every counter cap, folding a unit's batches in sequence into
    one partial gives the same profile as merging one partial per batch,
    for every column kind of ``lineitem``."""
    from perfbench.inputs import lineitem

    from data_profiler_ray.stages.profile import (_PartialProfiler,
                                                  finalize_profile,
                                                  merge_states)
    tbl = lineitem(6_000, 3)
    cfg = ProfileConfig()
    batches = [tbl.slice(o, 1_500) for o in range(0, len(tbl), 1_500)]
    seq = merge_states([_PartialProfiler(tbl.schema, cfg).fold(batches)])
    per_batch = _PartialProfiler(tbl.schema, cfg)
    merged = merge_states(per_batch.fold(b) for b in batches)
    assert not any(getattr(a, "counter", None) is not None
                   and a.counter.overflowed for a in merged[1].values())
    t0 = datetime.datetime.now()
    got = [_profile_json(finalize_profile(*m, cfg, t0, []))
           for m in (seq, merged)]
    assert got[0] == got[1]


def test_stages_import_no_ray_internals():
    """No module under ``data_profiler_ray/stages/`` or
    ``data_profiler_ray/pipelines/`` imports ``ray.data._internal``: the
    stages and the pipelines use Ray Data's public API only."""
    import ast

    import data_profiler_ray.pipelines as pipelines
    import data_profiler_ray.stages as stages
    found = []
    for pkg in (stages, pipelines):
        root = os.path.dirname(pkg.__file__)
        for name in sorted(os.listdir(root)):
            if not name.endswith(".py"):
                continue
            with open(os.path.join(root, name)) as f:
                tree = ast.parse(f.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    mods = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module:
                    mods = [node.module] + [f"{node.module}.{a.name}"
                                            for a in node.names]
                else:
                    continue
                found += [(pkg.__name__, name, m) for m in mods
                          if m.startswith("ray.data._internal")]
    assert found == []


def test_other_reads_keep_their_plan(monkeypatch, tmp_path):
    """A mapped read, a ``columns=`` read and a ``filter=`` read are not
    read again in the footer plan: each folds as given and keeps the map's
    effect, its columns or its filter."""
    import pyarrow.compute as pc

    from data_profiler_ray.stages import plan
    rng = np.random.default_rng(4)
    whole = pa.table({"i": pa.array(rng.integers(0, 1_000, 4_000)),
                      "f": pa.array(rng.normal(0, 1, 4_000))})
    d = _write_files(tmp_path / "in", whole, [1_000] * 4)

    def doubled(b):
        return b.set_column(0, "i", pc.multiply(b.column("i"), 2))

    bare = ray.data.read_parquet(d)
    mapped = ray.data.read_parquet(d).map_batches(doubled,
                                                  batch_format="pyarrow")
    narrow = ray.data.read_parquet(d, columns=["f"])
    filtered = ray.data.read_parquet(d, filter=pc.field("i") < 100)
    assert plan.bare_parquet_footers(bare) is not None
    reads = []
    monkeypatch.setattr(ray.data, "read_parquet",
                        lambda *a, **k: reads.append(a))
    for ds in (mapped, narrow, filtered):
        assert plan.bare_parquet_footers(ds) is None
    v = {x["name"]: x for x in profile_dataset(
        mapped, ProfileConfig())["variables"]}
    assert v["i"]["max"] == 2 * pc.max(whole.column("i")).as_py()
    prof = profile_dataset(narrow, ProfileConfig())
    assert [x["name"] for x in prof["variables"]] == ["f"]
    prof = profile_dataset(filtered, ProfileConfig())
    assert prof["table"]["num_rows"] == pc.sum(
        pc.less(whole.column("i"), 100)).as_py()
    assert reads == []


@pytest.mark.parametrize("slices", [16, 5, 1])
def test_other_values_bucket_from_exact_totals(slices):
    """Past the counter cap, ``Other Values (n)`` holds every non-null row
    not shown in the top 10, and ``n`` is ``n_distinct`` minus 10, however
    the rows were sliced into partials (``l_comment`` of
    ``lineitem(100_000, 52)``, about 75,000 distinct values)."""
    from perfbench.inputs import lineitem

    from data_profiler_ray.stages.profile import (_PartialProfiler,
                                                  merge_states)
    tbl = lineitem(100_000, 52).select(["l_comment"])
    profiler = _PartialProfiler(tbl.schema, ProfileConfig())
    k = -(-len(tbl) // slices)
    _, merged = merge_states(profiler.fold(tbl.slice(o, k))
                             for o in range(0, len(tbl), k))
    acc = merged["l_comment"]
    assert acc.counter.overflowed
    r = acc.result()
    top = {key: c for key, c in r["freq_value_counts"].items()
           if not key.startswith("Other Values")}
    assert len(top) == 10
    non_null = len(tbl) - tbl.column("l_comment").null_count
    assert r["count"] == non_null
    assert r["freq_value_counts"][
        f"Other Values ({r['n_distinct'] - 10})"] == \
        non_null - sum(top.values())


def test_merge_states_fold_matches_raw_columns(monkeypatch):
    """merge_states folds per-part blobs from an iterator on the driver and
    starts no Ray Data job. Against the raw columns: exact rows, counts,
    extrema, distinct counts and value counts; moments up to float
    reassociation; sketch quantiles within the KLL rank error."""
    import ray.data as rd

    from data_profiler_ray.stages.profile import merge_states
    blobs, raw = _state_blobs(8, 5000)
    n = 8 * 5000

    def no_job(*a, **k):
        raise AssertionError("the fold started a Ray Data job")

    monkeypatch.setattr(rd, "from_arrow", no_job)
    monkeypatch.setattr(rd.Dataset, "materialize", no_job)
    rows, merged = merge_states(iter(blobs))

    assert rows == n
    for name in ("i", "f", "s"):
        r, x = merged[name].result(), raw[name]
        vals, cnts = np.unique(x, return_counts=True)
        assert (r["count"], r["num_missing"]) == (n, 0), name
        assert r["n_distinct"] == len(vals), name
        fd = r["freq_value_counts"]
        top = {k: c for k, c in fd.items()
               if not k.startswith("Other Values")}
        assert sum(fd.values()) == n, name
        assert {k: dict(zip(map(str, vals), cnts))[k] for k in top} == top
        assert sorted(top.values(), reverse=True) == sorted(
            cnts.tolist(), reverse=True)[:len(top)], name
        if name == "s":
            continue
        assert (r["min"], r["max"]) == (x.min(), x.max()), name
        assert r["n_zeros"] == int((x == 0).sum()), name
        assert r["n_negative"] == int((x < 0).sum()), name
        assert r["mean"] == pytest.approx(x.mean(), rel=1e-12), name
        assert r["sum"] == pytest.approx(x.sum(), rel=1e-12), name
        assert r["std"] == pytest.approx(x.std(ddof=1), rel=1e-12), name
        assert r["skewness"] == pytest.approx(
            pd.Series(x).skew(), rel=1e-9), name
        assert r["kurtosis"] == pytest.approx(
            pd.Series(x).kurt(), rel=1e-9), name
    assert merged["i"].result()["median"] == np.median(raw["i"])
    qs = [0.05, 0.25, 0.5, 0.75, 0.95]
    x = np.sort(raw["f"])
    kll = merged["f"].kll
    assert kll.n == n
    ranks = np.searchsorted(x, kll.quantile(qs)) / n
    assert np.max(np.abs(ranks - qs)) < 0.01


def test_partials_by_part_folds_split_parts(sf_dir):
    """A part split over several blocks folds to the same state as its rows
    profiled as one block; a part with one partial passes its blob through
    byte-identical."""
    from data_profiler_ray.stages.profile import (_PartialProfiler,
                                                  loads_state,
                                                  profile_partials_by_part)
    tbl = pq.read_table(f"{sf_dir}/lineitem.parquet",
                        columns=["l_quantity", "l_returnflag", "l_shipdate"])
    # part "a" has more rows than one fold batch (FOLD_ROWS), so it folds
    # from several partials
    a, b = pa.concat_tables([tbl] * 6), tbl.slice(3000, 1000)

    def tag(t, part):
        return t.append_column("part", pa.array([part] * len(t)))

    # part "a" spans three blocks, part "b" is one block
    blocks = [tag(a.slice(0, 10_000), "a"), tag(a.slice(10_000, 12_000), "a"),
              tag(a.slice(22_000), "a"), tag(b, "b")]
    schema = blocks[0].schema
    cfg = ProfileConfig()
    out = profile_partials_by_part(ray.data.from_arrow(blocks), cfg)
    assert out.column("part").to_pylist() == ["a", "b"]
    assert out.column("rows").to_pylist() == [len(a), len(b)]

    def one_block(t):
        row = _PartialProfiler(schema, cfg, part_column="part")(t)
        return row.column("state")[0].as_py()

    assert out.column("state")[1].as_py() == one_block(blocks[3])
    rows, split = loads_state(out.column("state")[0].as_py())
    _, whole = loads_state(one_block(tag(a, "a")))
    assert rows == len(a)
    assert split.keys() == whole.keys()
    for name in split:
        s, w = split[name].result(), whole[name].result()
        for key in ("count", "num_missing", "n_distinct", "min", "max",
                    "start", "end", "freq_value_counts"):
            assert s.get(key) == w.get(key), (name, key)
