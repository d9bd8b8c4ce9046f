"""Independent DuckDB oracle for the benchmark's outputs.

The expected values are computed once per input, from the Parquet files
alone, with SQL that restates each constraint's definition; no engine code
is involved. ``check_*`` return a list of mismatch descriptions (empty when
the output is correct).
"""

from __future__ import annotations

import json
import math
import os

import duckdb

VIOLATION_KINDS = ("duplicate_key", "turn_gap", "ts_regression", "bad_role",
                   "dangling_tool")


def _sql_list(values) -> str:
    return ", ".join("'" + v.replace("'", "''") + "'" for v in values)


def transcript_expectations(input_dir: str, role_domain, tool_registry
                            ) -> dict:
    """Row count, conversation count and per-kind violation-row counts.

    - duplicate_key: one row per (conv_id, turn_idx) key seen more than once;
    - turn_gap: turns must be 0..d-1 for a conversation with d distinct
      turns; each distinct turn outside that range is one out-of-range row
      and leaves one missing index, so the count is twice the out-of-range
      turns;
    - ts_regression: adjacent pairs, in turn order, whose ts decreases;
    - bad_role / dangling_tool: non-null values outside the domain/registry.
    """
    glob = os.path.join(input_dir, "*.parquet")
    con = duckdb.connect()
    try:
        con.execute(f"CREATE VIEW t AS SELECT * FROM read_parquet('{glob}')")
        row = con.execute(f"""
        WITH keys AS (
            SELECT conv_id, turn_idx, count(*) AS c FROM t GROUP BY ALL),
        dist AS (SELECT conv_id, count(*) AS d FROM keys GROUP BY conv_id),
        lagged AS (
            SELECT conv_id, ts, lag(ts) OVER (
                PARTITION BY conv_id ORDER BY turn_idx, ts) AS prev_ts
            FROM t),
        viol AS (
            SELECT conv_id, 'duplicate_key' AS kind, 1 AS n FROM keys
            WHERE c > 1
            UNION ALL
            SELECT k.conv_id, 'turn_gap', 2
            FROM keys k JOIN dist USING (conv_id)
            WHERE k.turn_idx >= dist.d OR k.turn_idx < 0
            UNION ALL
            SELECT conv_id, 'ts_regression', 1 FROM lagged WHERE ts < prev_ts
            UNION ALL
            SELECT conv_id, 'bad_role', 1 FROM t
            WHERE role IS NOT NULL AND role NOT IN ({_sql_list(role_domain)})
            UNION ALL
            SELECT conv_id, 'dangling_tool', 1 FROM t
            WHERE tool IS NOT NULL AND tool NOT IN ({_sql_list(tool_registry)})
        )
        SELECT
            (SELECT count(*) FROM t),
            (SELECT count(DISTINCT conv_id) FROM t),
            (SELECT count(DISTINCT conv_id) FROM viol),
            {", ".join(f"(SELECT coalesce(sum(n), 0) FROM viol "
                       f"WHERE kind = '{k}')" for k in VIOLATION_KINDS)}
        """).fetchone()
        # every duplicated key must carry identical rows, or the ts order
        # among ties (and so the ts-regression count) would be ambiguous
        ambiguous = con.execute("""
            SELECT count(*) FROM (
                SELECT conv_id, turn_idx FROM t GROUP BY ALL
                HAVING count(DISTINCT (ts, role, tool, text)) > 1)
        """).fetchone()[0]
    finally:
        con.close()
    if ambiguous:
        raise ValueError(f"{ambiguous} duplicated keys with differing rows")
    rows, n_conv, n_failed = row[:3]
    return {"total_rows": rows, "n_conversations": n_conv,
            "n_failed_conversations": n_failed,
            "violations_by_kind": {k: int(v) for k, v in
                                   zip(VIOLATION_KINDS, row[3:])}}


def check_validation(summary: dict, expected: dict) -> list[str]:
    """Compare a ``run_validation`` summary with the oracle."""
    errors = []
    for key in ("total_rows", "n_conversations", "n_failed_conversations"):
        if summary[key] != expected[key]:
            errors.append(f"{key}: {summary[key]} != {expected[key]}")
    got = {k: 0 for k in VIOLATION_KINDS}
    for lineage in summary["lineage"]:
        for kind, n in lineage["violations_by_kind"].items():
            got[kind] = got.get(kind, 0) + n
    if got != expected["violations_by_kind"]:
        errors.append(f"violations_by_kind: {got} != "
                      f"{expected['violations_by_kind']}")
    want_total = sum(expected["violations_by_kind"].values())
    if summary["n_violations"] != want_total:
        errors.append(f"n_violations: {summary['n_violations']} != "
                      f"{want_total}")
    if summary["passed"] != (want_total == 0):
        errors.append(f"passed: {summary['passed']}")
    return errors


def table_expectations(input_dir: str) -> dict:
    """Row count and per-column non-null counts of a Parquet directory."""
    glob = os.path.join(input_dir, "*.parquet")
    con = duckdb.connect()
    try:
        cols = [r[0] for r in con.execute(
            f"DESCRIBE SELECT * FROM read_parquet('{glob}')").fetchall()]
        counts = con.execute(
            "SELECT count(*), "
            + ", ".join(f'count("{c}")' for c in cols)
            + f" FROM read_parquet('{glob}')").fetchone()
    finally:
        con.close()
    return {"num_rows": counts[0], "count": dict(zip(cols, counts[1:]))}


def check_profile(profile: dict, expected: dict) -> list[str]:
    """``num_rows`` and per-column ``count`` / ``num_missing``."""
    errors = []
    rows = expected["num_rows"]
    if profile["table"]["num_rows"] != rows:
        errors.append(f"num_rows: {profile['table']['num_rows']} != {rows}")
    got = {v["name"]: v for v in profile["variables"]}
    if set(got) != set(expected["count"]):
        errors.append(f"columns: {sorted(got)} != {sorted(expected['count'])}")
    for name, count in expected["count"].items():
        var = got.get(name)
        if var is None:
            continue
        if var["count"] != count or var["num_missing"] != rows - count:
            errors.append(f"{name}: count {var['count']} missing "
                          f"{var['num_missing']} != {count}/{rows - count}")
    return errors


# Profile fields read from the capped Misra-Gries value counters. Which
# values survive a counter shrink, and which of several equally frequent
# values make the top 10, depend on how the rows were split into blocks, so
# a resumed run may differ here from a fresh one, within the counter's error.
COUNTER_FIELDS = ("freq_value_counts", "n_unique", "p_unique", "is_unique")
COUNTER_REL_TOL = 0.01
# Quantile fields of a block with a numeric min and max (a numeric column,
# or a text column's length distributions), read from KLL sketches. The
# distributed merge combines per-part sketches in task-completion order and
# a sketch's compactions depend on that order, so two runs over the same
# rows may differ here (seen: a text length median of 186 against 187).
QUANTILE_FIELDS = ("5%", "10%", "25%", "50%", "75%", "90%", "95%",
                   "median", "iqr", "mad")
QUANTILE_RANGE_TOL = 0.01  # share of the block's max - min


def _has_range(block: dict) -> bool:
    return all(isinstance(block.get(k), (int, float)) for k in ("min", "max"))


def _strip_quantiles(block: dict) -> dict:
    out = {k: _strip_quantiles(v) if isinstance(v, dict) else v
           for k, v in block.items()}
    if _has_range(block):
        out = {k: v for k, v in out.items() if k not in QUANTILE_FIELDS}
    return out


def _diff_quantiles(got: dict, ref: dict, where: str) -> list[str]:
    """Quantile fields of ``ref``'s ranged blocks that ``got`` misses by
    more than ``QUANTILE_RANGE_TOL`` of the block's range."""
    errors = []
    for k, r in ref.items():
        if isinstance(r, dict) and isinstance(got.get(k), dict):
            errors += _diff_quantiles(got[k], r, f"{where}/{k}")
    if _has_range(ref):
        tol = QUANTILE_RANGE_TOL * (ref["max"] - ref["min"])
        for k in QUANTILE_FIELDS:
            g, r = got.get(k), ref.get(k)
            if (g is None) != (r is None) or (
                    r is not None and abs(g - r) > tol):
                errors.append(f"{where}/{k}: {g} != {r}")
    return errors


def diff_profiles(got: dict, ref: dict) -> list[str]:
    """Differences between two canonical profiles: exact (floats to 1e-9)
    outside ``COUNTER_FIELDS`` and ``QUANTILE_FIELDS``; within
    ``COUNTER_REL_TOL`` for ``n_unique`` and for the ranked counts of
    ``freq_value_counts``; within ``QUANTILE_RANGE_TOL`` for quantiles."""
    def strip(p):
        return {**p, "variables": [_strip_quantiles(
            {k: v for k, v in var.items() if k not in COUNTER_FIELDS})
            for var in p["variables"]]}

    errors = diff_json(strip(got), strip(ref), "profile")
    for g, r in zip(got["variables"], ref["variables"]):
        where = f"profile/{r['name']}"
        errors += _diff_quantiles(g, r, where)
        if "n_unique" in r and not math.isclose(
                g.get("n_unique", -1), r["n_unique"], rel_tol=COUNTER_REL_TOL):
            errors.append(f"{where}/n_unique: {g.get('n_unique')} != "
                          f"{r['n_unique']}")
        gf, rf = g.get("freq_value_counts"), r.get("freq_value_counts")
        if (gf is None) != (rf is None):
            errors.append(f"{where}/freq_value_counts: present on one side")
        elif rf:
            gc, rc = (sorted(d.values(), reverse=True) for d in (gf, rf))
            if len(gc) != len(rc) or not all(
                    math.isclose(x, y, rel_tol=COUNTER_REL_TOL)
                    for x, y in zip(gc, rc)):
                errors.append(f"{where}/freq_value_counts: {gc} != {rc}")
    return errors


def canonical_profile(profile: dict) -> dict:
    """JSON-normalised profile without the run-dependent ``analysis``."""
    return json.loads(json.dumps(
        {k: v for k, v in profile.items() if k != "analysis"}, default=str))


def diff_json(a, b, path: str = "", rel_tol: float = 1e-9) -> list[str]:
    """Structural differences between two JSON values; floats compare with a
    relative tolerance, so merge-order rounding is not a mismatch."""
    if isinstance(a, dict) and isinstance(b, dict):
        out = []
        for k in sorted(set(a) | set(b)):
            if k not in a or k not in b:
                out.append(f"{path}/{k}: present on one side only")
            else:
                out.extend(diff_json(a[k], b[k], f"{path}/{k}", rel_tol))
        return out
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return [f"{path}: length {len(a)} != {len(b)}"]
        out = []
        for i, (x, y) in enumerate(zip(a, b)):
            out.extend(diff_json(x, y, f"{path}[{i}]", rel_tol))
        return out
    if isinstance(a, float) and isinstance(b, (int, float)) \
            or isinstance(b, float) and isinstance(a, (int, float)):
        if math.isclose(a, b, rel_tol=rel_tol, abs_tol=1e-12) \
                or (math.isnan(a) and math.isnan(b)):
            return []
        return [f"{path}: {a} != {b}"]
    return [] if a == b else [f"{path}: {a!r} != {b!r}"]
