"""Golden-profile e2e: distributed profile of parquet tables vs a pandas
oracle computed on the same data (SURVEY.md §5.2 item 2)."""

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
    a, b = tbl.slice(0, 3000), tbl.slice(3000, 1000)

    def tag(t, part):
        return t.append_column("part", pa.array([part] * len(t)))

    # part "a" spans three blocks, part "b" is one block
    blocks = [tag(a.slice(0, 1000), "a"), tag(a.slice(1000, 1200), "a"),
              tag(a.slice(2200), "a"), tag(b, "b")]
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
