"""Driver-style oracle check: run every queries() entry at sf0.01 and
compare against oracle_sql() via DuckDB (row count + schema-name set +
order-insensitive value hash). Standalone script — owns its Ray session."""

import hashlib
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import duckdb
import pandas as pd

import ray


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if pd.api.types.is_datetime64_any_dtype(df[c]):
            df[c] = df[c].astype("datetime64[us]").astype(str)
        elif pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].round(9)
        elif df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)


def value_hash(df: pd.DataFrame) -> str:
    return hashlib.md5(normalize(df).to_csv(index=False).encode()).hexdigest()


def to_pandas(res):
    import pyarrow as pa

    import ray.data
    if isinstance(res, ray.data.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def main(sf_dir: str = "/root/testdata/sf0.01", only: list[str] | None = None):
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as e
    qs, oracles = e.queries(), e.oracle_sql()
    if only:
        qs = {k: v for k, v in qs.items() if k in only}

    con = duckdb.connect()
    for t in ["region", "nation", "customer", "supplier", "part", "orders",
              "lineitem", "events", "documents", "embeddings"]:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf_dir}/{t}.parquet')")

    n_pass = n_fail = n_rowsonly = 0
    for name, fn in qs.items():
        t0 = time.time()
        try:
            got = to_pandas(fn(sf_dir))
        except Exception as ex:
            print(f"FAIL  {name}: query raised {type(ex).__name__}: {ex}")
            n_fail += 1
            continue
        dt = time.time() - t0
        if name not in oracles:
            print(f"rows  {name}: {len(got)} rows ({dt:.1f}s) [rows-only]")
            n_rowsonly += 1
            continue
        try:
            exp = con.execute(oracles[name]).fetchdf()
        except Exception as ex:
            print(f"FAIL  {name}: oracle raised {ex}")
            n_fail += 1
            continue
        problems = []
        if len(got) != len(exp):
            problems.append(f"rows {len(got)} != {len(exp)}")
        if sorted(map(str, got.columns)) != sorted(map(str, exp.columns)):
            problems.append(f"cols {sorted(got.columns)} != {sorted(exp.columns)}")
        elif value_hash(got) != value_hash(exp):
            problems.append("value-hash mismatch")
            a, b = normalize(got), normalize(exp)
            diff = a.compare(b) if a.shape == b.shape else None
            if diff is not None and not diff.empty:
                problems.append("first diffs:\n" + diff.head(5).to_string())
        if problems:
            print(f"FAIL  {name}: " + "; ".join(problems))
            n_fail += 1
        else:
            print(f"ok    {name}: {len(got)} rows ({dt:.1f}s)")
            n_pass += 1
    print(f"\n{n_pass} ok, {n_rowsonly} rows-only, {n_fail} FAIL")
    ray.shutdown()
    return n_fail


if __name__ == "__main__":
    only = sys.argv[1:] or None
    sys.exit(1 if main(only=only) else 0)
