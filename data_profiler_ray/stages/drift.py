"""Distribution-drift stage: PSI + KS against a baseline profile.

North-rule ST5 (SURVEY.md §2.3): the reference has no drift checks, but its
histogram / frequency outputs (``/root/reference/stelardataprofiler/
tabular_timeseries/variables/utils.py:507-529``, ``numeric.py:46-51,88-94``)
define the compared shapes. This stage:

1. derives a fixed **DriftSpec** from a baseline profile dict — per numeric /
   datetime column the baseline histogram bin edges + bin probabilities, per
   categorical column the baseline category probabilities;
2. streams the current dataset through an actor-pool ``map_batches`` stage
   (``DriftBinner``): the spec is built once per actor in ``__init__``
   (broadcast via constructor arg — one object-store copy per node, never
   re-shipped per batch), each batch is binned with vectorized
   ``np.histogram`` / category lookup, and ONE small counts row is emitted
   per batch — fixed-size state, o(input) shuffle;
3. tree-merges the counts (sum) and computes, per column:
   - **PSI** = Σ (p_cur − p_base)·ln(p_cur/p_base) with ε-smoothing,
   - **KS** = max |CDF_cur − CDF_base| over the shared bin edges
   (two-sample KS evaluated on the binned CDFs — exact for categorical,
   bin-resolution-bounded for numeric).
"""

from __future__ import annotations

import pickle

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..config import DriftConfig

_EPS = 1e-6


def spec_from_profile(profile: dict, max_categories: int = 1000) -> dict:
    """Build the per-column drift spec from a profile dict (profile.py)."""
    spec: dict[str, dict] = {}
    for var in profile["variables"]:
        name, typ = var["name"], var["type"]
        if typ in ("Numeric", "DateTime") and var.get("histogram"):
            h = var["histogram"]
            counts = np.asarray(h["counts"], dtype=np.float64)
            edges = np.asarray(h["bin_edges"], dtype=np.float64)
            if edges.size >= 2 and counts.sum() > 0:
                spec[name] = {"kind": "numeric", "edges": edges,
                              "base_counts": counts,
                              "is_datetime": typ == "DateTime"}
        elif typ in ("Categorical", "Boolean"):
            freq = var.get("freq_value_counts")
            if freq:
                cats = [k for k in freq if not k.startswith("Other Values")]
                other = sum(v for k, v in freq.items()
                            if k.startswith("Other Values"))
                counts = np.asarray([freq[k] for k in cats] + [other],
                                    dtype=np.float64)
                spec[name] = {"kind": "categorical",
                              "categories": cats[:max_categories],
                              "base_counts": counts}
    return spec


class DriftBinner:
    """Actor-pool map_batches callable: bin current data into baseline bins.

    Emits one pickled ``{col: counts}`` row per batch; counts vectors are
    len(bins)+2 for numeric (underflow/overflow tails) and len(cats)+1 for
    categorical ("other" bucket).
    """

    def __init__(self, spec: dict):
        self.spec = spec

    def __call__(self, batch: pa.Table) -> pa.Table:
        out: dict[str, np.ndarray] = {}
        for name, s in self.spec.items():
            if name not in batch.column_names:
                continue
            col = batch.column(name)
            if s["kind"] == "numeric":
                arr = col
                if pa.types.is_timestamp(arr.type) or pa.types.is_date(arr.type):
                    arr = arr.cast(pa.timestamp("us")).cast(pa.int64())
                # unchecked: epoch-µs ints past 2^53 (dates before 1685
                # or after 2255) round instead of raising
                x = arr.cast(pa.float64(), safe=False).drop_null().to_numpy(
                    zero_copy_only=False)
                if s.get("is_datetime"):
                    x = x / 1e6  # epoch seconds, matching DatetimeAccumulator
                uni = s.get("uniform")
                if uni is not None:
                    # SHARED floor binning rule (ADVICE r3): identical
                    # FLOOR((v-lo)/width) arithmetic to the SQL oracle so
                    # exact-edge values cannot bin differently, with the
                    # hi==lo degenerate case short-circuited on both sides
                    lo_e, hi_e, nb = uni
                    if hi_e <= lo_e:
                        hist = np.zeros(nb)
                        hist[0] = float(x.size)
                        under = over = 0
                    else:
                        width = (hi_e - lo_e) / float(nb)
                        inr = (x >= lo_e) & (x <= hi_e)
                        idx = np.minimum(np.floor(
                            (x[inr] - lo_e) / width).astype(np.int64),
                            nb - 1)
                        hist = np.bincount(idx, minlength=nb).astype(
                            np.float64)
                        under = int((x < lo_e).sum())
                        over = int((x > hi_e).sum())
                else:
                    edges = s["edges"]
                    hist, _ = np.histogram(x, bins=edges)
                    under = int((x < edges[0]).sum())
                    over = int((x > edges[-1]).sum())
                out[name] = np.concatenate([[under], hist, [over]]).astype(
                    np.float64)
            else:
                vc = col.drop_null().value_counts()
                out[name] = _bin_categories(
                    vc.field("values"),
                    vc.field("counts").to_numpy(zero_copy_only=False),
                    s["categories"])
        payload = pickle.dumps(out, protocol=pickle.HIGHEST_PROTOCOL)
        return pa.table({"state": pa.array([payload], pa.large_binary())})


def _psi(p_base: np.ndarray, p_cur: np.ndarray) -> float:
    b = np.clip(p_base, _EPS, None)
    c = np.clip(p_cur, _EPS, None)
    b, c = b / b.sum(), c / c.sum()
    return float(((c - b) * np.log(c / b)).sum())


def _ks(base_counts: np.ndarray, cur_counts: np.ndarray) -> float:
    if base_counts.sum() == 0 or cur_counts.sum() == 0:
        return 0.0
    cb = np.cumsum(base_counts) / base_counts.sum()
    cc = np.cumsum(cur_counts) / cur_counts.sum()
    return float(np.abs(cb - cc).max())


def bin_accumulators(spec: dict, accs: dict) -> dict[str, np.ndarray]:
    """Bin merged column-accumulator states into baseline bins — the
    checkpoint-friendly drift path: per-partition profile states already
    persisted for resume carry the value counter + KLL sketch, so a resumed
    run computes drift WITHOUT re-reading finished partitions.

    Exact while the value counter is exact; KLL-weighted approximation past
    overflow (bounded rank error, same guarantee as the percentile bundle).
    """
    out: dict[str, np.ndarray] = {}
    for name, s in spec.items():
        acc = accs.get(name)
        if acc is None:
            continue
        if s["kind"] == "numeric":
            if getattr(acc, "kind", "") == "datetime":
                items = acc.seconds_items()  # epoch-seconds unit
            elif hasattr(acc, "counter"):
                items = acc.exact_items()
            else:
                items = None
            edges = s["edges"]
            if items is not None:
                v, w = items
            else:
                kll = getattr(acc, "kll", None)
                if kll is None:
                    continue
                v, w = kll._weighted_items()
                n = getattr(acc.moments, "n", w.sum())
                if w.sum() > 0:
                    w = w * (n / w.sum())
            hist, _ = np.histogram(v, bins=edges, weights=w)
            under = float(w[v < edges[0]].sum())
            over = float(w[v > edges[-1]].sum())
            out[name] = np.concatenate([[under], hist, [over]]).astype(np.float64)
        else:
            counter = getattr(acc, "counter", None)
            if counter is None:
                continue
            out[name] = _bin_categories(counter.keys, counter.cnt,
                                        s["categories"])
    return out


def _bin_categories(keys: pa.Array | None, cnt: np.ndarray,
                    categories: list[str]) -> np.ndarray:
    """Weight per baseline category, plus an "other" bucket, for distinct
    ``keys`` with weights ``cnt``. The categories are profile keys, the
    Python ``str`` of each value: string keys match them as they are
    (``pc.index_in``), other keys through their ``str`` form, so a float
    1.0 ("1.0") does not match an int baseline's "1". ``DriftBinner`` and
    ``bin_accumulators`` both bin through here, so the streaming and the
    checkpoint drift paths put every value in the same bin."""
    n = len(categories)
    if keys is None or not n:
        return np.concatenate([np.zeros(n), [float(np.sum(cnt))]])
    if not (pa.types.is_string(keys.type)
            or pa.types.is_large_string(keys.type)):
        keys = pa.array([str(v) for v in keys.to_pylist()], pa.string())
    idx = pc.index_in(keys, value_set=pa.array(categories, keys.type))
    return np.bincount(idx.fill_null(n).to_numpy(zero_copy_only=False),
                       weights=cnt, minlength=n + 1).astype(np.float64)


def drift_from_counts(spec: dict, merged: dict[str, np.ndarray],
                      cfg: DriftConfig | None = None) -> dict:
    """PSI/KS report from already-binned current counts."""
    cfg = cfg or DriftConfig()
    columns = {}
    for name, s in spec.items():
        cur = merged.get(name)
        if cur is None:
            continue
        if s["kind"] == "numeric":
            base = np.concatenate([[0.0], s["base_counts"], [0.0]])
        else:
            base = s["base_counts"]
        psi = _psi(base, cur)
        ks = _ks(base, cur)
        columns[name] = {
            "kind": s["kind"], "psi": psi, "ks": ks,
            "n_current": float(cur.sum()),
            "n_baseline": float(s["base_counts"].sum()),
            "drifted": psi > cfg.psi_threshold or ks > cfg.ks_threshold,
        }
    return {"columns": columns,
            "any_drifted": any(c["drifted"] for c in columns.values())}


def drift_report(ds: "ray.data.Dataset", baseline_profile: dict,
                 cfg: DriftConfig | None = None,
                 concurrency: int | None = None) -> dict:
    """Stream ``ds`` against ``baseline_profile``; return per-column drift."""
    cfg = cfg or DriftConfig()
    spec = spec_from_profile(baseline_profile)
    if not spec:
        return {"columns": {}, "any_drifted": False}
    # actor pool: spec deserialized once per actor in __init__ (class arg is
    # put in the object store once, not re-shipped per batch)
    binned = ds.select_columns(list(spec)).map_batches(
        DriftBinner, fn_constructor_args=(spec,),
        batch_format="pyarrow", concurrency=concurrency or (1, 8))
    merged: dict[str, np.ndarray] = {}
    for b in binned.iter_batches(batch_format="pyarrow"):
        for blob in b.column("state").to_pylist():
            for name, counts in pickle.loads(blob).items():
                if name in merged:
                    merged[name] += counts
                else:
                    merged[name] = counts
    return drift_from_counts(spec, merged, cfg)
