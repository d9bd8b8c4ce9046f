"""Golden-profile e2e: distributed profile of parquet tables vs a pandas
oracle computed on the same data (SURVEY.md §5.2 item 2)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data

from data_profiler_ray.config import ProfileConfig
from data_profiler_ray.stages.profile import profile_dataset


@pytest.fixture(scope="module")
def lineitem_profile(sf_dir):
    ds = ray.data.read_parquet(f"{sf_dir}/lineitem.parquet")
    prof = profile_dataset(ds, ProfileConfig(title="lineitem", merge_shards=4))
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
        ds, ProfileConfig(types_dict={"r_name": "Textual"}, merge_shards=2))
    v = next(v for v in prof["variables"] if v["name"] == "r_name")
    assert v["type"] == "Textual"


def test_tree_reduction_multiple_levels(sf_dir):
    """merge_shards=2 on a many-block dataset forces several reduction
    levels; the result must equal the single-level path."""
    ds = ray.data.read_parquet(f"{sf_dir}/lineitem.parquet").repartition(16)
    prof = profile_dataset(ds, ProfileConfig(columns=["l_quantity"],
                                             merge_shards=2))
    pdf = pd.read_parquet(f"{sf_dir}/lineitem.parquet")
    v = prof["variables"][0]
    assert v["count"] == len(pdf)
    assert v["mean"] == pytest.approx(pdf["l_quantity"].mean())
    assert v["n_distinct"] == pdf["l_quantity"].nunique()
    assert v["median"] == pytest.approx(pdf["l_quantity"].median())


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


def test_merge_driver_and_tree_agree(monkeypatch):
    """merge_state_blobs_distributed's driver path (total bytes under the
    limit) and its fan-in tree path give the same profile: exact rows,
    counts, extrema, distinct counts and value counts; moments up to float
    reassociation; sketch quantiles within the KLL rank error."""
    import ray.data as rd

    from data_profiler_ray.stages import profile as prof_mod
    blobs, raw = _state_blobs(8, 5000)
    n = 8 * 5000

    def no_job(*a, **k):
        raise AssertionError("driver path started a Ray Data job")

    monkeypatch.setattr(rd, "from_arrow", no_job)
    rows_d, merged_d = prof_mod.merge_state_blobs_distributed(blobs, fan_in=2)
    monkeypatch.undo()

    jobs = []
    real_from_arrow = rd.from_arrow

    def counting(*a, **k):
        jobs.append(1)
        return real_from_arrow(*a, **k)

    monkeypatch.setattr(rd, "from_arrow", counting)
    monkeypatch.setattr(prof_mod, "_DRIVER_MERGE_MAX_BYTES", 0)
    rows_t, merged_t = prof_mod.merge_state_blobs_distributed(blobs, fan_in=2)
    assert jobs  # the tree ran as Ray Data jobs

    assert rows_d == rows_t == n
    for name in ("i", "f", "s"):
        d, t = merged_d[name].result(), merged_t[name].result()
        for key in ("count", "num_missing", "n_distinct", "min", "max",
                    "freq_value_counts", "n_zeros", "n_negative"):
            assert d.get(key) == t.get(key), (name, key)
        for key in ("mean", "std", "variance", "skewness", "kurtosis",
                    "sum"):
            if key in d:
                assert t[key] == pytest.approx(d[key], rel=1e-12), (name, key)
    assert merged_d["i"].result()["median"] == merged_t["i"].result()["median"]
    qs = [0.05, 0.25, 0.5, 0.75, 0.95]
    x = np.sort(raw["f"])
    for merged in (merged_d, merged_t):
        kll = merged["f"].kll
        assert kll.n == n
        ranks = np.searchsorted(x, kll.quantile(qs)) / n
        assert np.max(np.abs(ranks - qs)) < 0.01
