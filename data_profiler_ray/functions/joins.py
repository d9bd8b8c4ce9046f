"""Custom join/window operators Ray Data lacks natively.

- ``asof_join``: broadcast variant — for each left row, attach the most
  recent right row with ``right.on <= left.on`` within the same key. The
  right side rides to every task once via ``ray.put`` — the correct choice
  when the right side is a dimension / rate table ≪ left.
- ``asof_join_partitioned``: co-partitioned variant for a LARGE right side
  (VERDICT r2 item 4) — both sides are unioned into one stream tagged with
  a side bit and pushed through ONE sort exchange on ``(by, on, side)``;
  a vectorized last-right-row forward-fill kernel runs per key segment
  (``stages/segments.py`` sorted-segment machinery: interior segments
  vectorized, block-boundary segments stitched exactly). No broadcast, no
  driver materialization of either side.
- ``rolling_window``: per-key ordered trailing-window aggregate, also on
  the sorted-segment path — direct per-window sums (``np.convolve`` +
  vectorized head fix) instead of per-group Python (r2 item 1).
- ``range_join_broadcast``: interval (range) join against a SMALL
  interval table — the intervals broadcast once per task, each left row
  matched to every containing interval (1-to-many) with one vectorized
  comparison matrix per batch. For a large interval side the scale path
  is interval partitioning (split intervals into disjoint buckets, hash
  both sides on bucket) — not implemented; documented assumption.

All document the reference-gap: the reference performs no relational joins
at all (SURVEY.md §2.4).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from ..stages.segments import CutKernel, _pa_schema, sorted_segment_map


class _AsOfLookup:
    """map_batches callable holding the broadcast right side, pre-sorted and
    split per key in ``__init__`` (once per actor)."""

    def __init__(self, right_ref, by: str, on: str, value_cols: list[str]):
        right = ray.get(right_ref) if isinstance(right_ref, ray.ObjectRef) \
            else right_ref
        self.by = by
        self.on = on
        self.value_cols = value_cols
        self.lookup: dict = {}
        order = pc.sort_indices(right, sort_keys=[(by, "ascending"),
                                                  (on, "ascending")])
        r = right.take(order)
        keys = r.column(by).to_numpy(zero_copy_only=False)
        ts = r.column(on).cast(pa.int64()).to_numpy(zero_copy_only=False)
        vals = {c: r.column(c).to_numpy(zero_copy_only=False)
                for c in value_cols}
        change = np.r_[True, keys[1:] != keys[:-1]]
        starts = np.flatnonzero(change)
        ends = np.append(starts[1:], keys.size)
        for s, e in zip(starts, ends):
            self.lookup[keys[s]] = (
                ts[s:e], {c: v[s:e] for c, v in vals.items()})

    def __call__(self, batch: pa.Table) -> pa.Table:
        keys = batch.column(self.by).to_numpy(zero_copy_only=False)
        ts = batch.column(self.on).cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        n = len(batch)
        out = {c: np.full(n, np.nan) for c in self.value_cols}
        # vectorize per distinct key in the batch (few keys ≫ rows each)
        order = np.argsort(keys, kind="stable")
        ks, tss = keys[order], ts[order]
        change = np.r_[True, ks[1:] != ks[:-1]]
        starts = np.flatnonzero(change)
        ends = np.append(starts[1:], n)
        for s, e in zip(starts, ends):
            entry = self.lookup.get(ks[s])
            if entry is None:
                continue
            r_ts, r_vals = entry
            idx = np.searchsorted(r_ts, tss[s:e], side="right") - 1
            valid = idx >= 0
            rows = order[s:e]
            for c in self.value_cols:
                vals = out[c]
                vals[rows[valid]] = r_vals[c][idx[valid]]
        for c in self.value_cols:
            batch = batch.append_column(f"{c}_asof", pa.array(out[c]))
        return batch


def asof_join(left: "ray.data.Dataset", right: pa.Table, by: str, on: str,
              value_cols: list[str], concurrency=None) -> "ray.data.Dataset":
    """Broadcast as-of join: latest right row with right.on <= left.on per key."""
    right_ref = ray.put(right)
    return left.map_batches(
        _AsOfLookup, fn_constructor_args=(right_ref, by, on, value_cols),
        batch_format="pyarrow", concurrency=concurrency or (1, 4))


class _SideTagger:
    """Project a side's batches onto the unified (by, on, payload, values,
    __side) schema, null-filling the columns the side doesn't have."""

    def __init__(self, schema: pa.Schema, side: int):
        self.schema = schema
        self.side = side

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        cols = []
        for f in self.schema:
            if f.name == "__side":
                cols.append(pa.array(np.full(n, self.side, np.int8)))
            elif f.name in batch.column_names:
                cols.append(batch.column(f.name).cast(f.type))
            else:
                cols.append(pa.nulls(n, f.type))
        return pa.Table.from_arrays(cols, schema=self.schema)


def asof_join_partitioned(left: "ray.data.Dataset", right: "ray.data.Dataset",
                          by: str, on: str, value_cols: list[str],
                          width: int | None = None) -> "ray.data.Dataset":
    """Co-partitioned as-of join for a large right side.

    Both sides must carry columns named ``by`` and ``on`` (caller renames);
    ``right`` must additionally be UNIQUE on ``(by, on)`` — with duplicate
    right timestamps the as-of pick is ill-defined on any engine (DuckDB
    ASOF has the same precondition); dedup with a groupby first.

    One sort exchange on ``(by, on, side)`` (right rows sort before left
    rows at equal timestamps, so equality matches inclusively like DuckDB
    ASOF), then a per-segment vectorized forward-fill of the latest right
    row index. Output: one row per left row with ``{v}_asof`` columns.
    """
    lschema = _pa_schema(left)
    rschema = _pa_schema(right)
    payload = [f for f in lschema if f.name not in (by, on)]
    vfields = [rschema.field(v) for v in value_cols]
    unified = pa.schema(
        [lschema.field(by), lschema.field(on)] + payload + vfields
        + [pa.field("__side", pa.int8())])

    tagged = left.map_batches(
        _SideTagger(unified, 1), batch_format="pyarrow").union(
        right.map_batches(_SideTagger(unified, 0), batch_format="pyarrow"))

    out_schema = pa.schema(
        [lschema.field(by), lschema.field(on)] + payload
        + [pa.field(f"{v}_asof", rschema.field(v).type) for v in value_cols])

    def block(batch: pa.Table, starts: np.ndarray, ends: np.ndarray
              ) -> pa.Table:
        s0, s1 = int(starts[0]), int(ends[-1])
        sub = batch.slice(s0, s1 - s0).combine_chunks()
        ls = starts - s0
        lens = ends - starts
        m = s1 - s0
        side = sub.column("__side").to_numpy(zero_copy_only=False)
        is_right = side == 0
        rowpos = np.arange(m, dtype=np.int64)
        seg_id = np.repeat(np.arange(ls.size, dtype=np.int64), lens)
        # per-segment forward-max of right-row indices: the +M*seg_id offset
        # makes np.maximum.accumulate reset at segment boundaries (a later
        # segment's floor M*seg_id-1 exceeds any earlier segment's ceiling)
        b = np.where(is_right, rowpos, -1)
        M = np.int64(m + 2)
        last_right = np.maximum.accumulate(b + M * seg_id) - M * seg_id
        left_rows = np.flatnonzero(~is_right)
        src = last_right[left_rows]
        invalid = src < 0
        src_idx = pa.array(np.where(invalid, 0, src), mask=invalid)
        take_left = pa.array(left_rows)
        cols = [sub.column(by).take(take_left),
                sub.column(on).take(take_left)]
        cols += [sub.column(f.name).take(take_left) for f in payload]
        cols += [sub.column(v).take(src_idx) for v in value_cols]
        return pa.Table.from_arrays(cols, schema=out_schema)

    return sorted_segment_map(tagged, by, [on, "__side"], block, out_schema,
                              width=width)


class _RollingCut(CutKernel):
    """Mergeable partials for trailing-window aggregates (lookback = w−1):
    a cut piece emits its rows at positions ≥ w−1 (window entirely inside
    the piece, count = w either way) and carries its first ≤ w−1 rows
    (full payload, a ``list<struct<input schema>>`` cell) + last ≤ w−1
    values + row count; the driver walks each run keeping a ≤(w−1)-value
    tail and finalizes the withheld head rows — o(#blocks · w) driver state
    for any key size."""

    def __init__(self, by: str, order_cols: list[str], value_col: str,
                 window: int, agg: str, in_schema: pa.Schema,
                 out_schema: pa.Schema, out_col: str):
        self.by, self.order_cols, self.value_col = by, order_cols, value_col
        self.window, self.agg = window, agg
        self.out_schema, self.out_col = out_schema, out_col
        self.partial_schema = pa.schema(
            [in_schema.field(by)]
            + [pa.field(f"__o_{c}", in_schema.field(c).type)
               for c in order_cols]
            + [pa.field("n_rows", pa.int64()),
               pa.field("head", pa.list_(pa.struct(list(in_schema)))),
               pa.field("tail_vals", pa.list_(pa.float64()))])
        self.sort_cols = [by] + [f"__o_{c}" for c in order_cols]

    def partials(self, batch: pa.Table, starts: np.ndarray,
                 ends: np.ndarray):
        w = self.window
        x = batch.column(self.value_col).to_numpy(
            zero_copy_only=False).astype(np.float64)
        prows = {f.name: [] for f in self.partial_schema}
        heads: list[pa.Table] = []
        emits: list[pa.Table] = []
        for s, e in zip(starts, ends):
            n = int(e - s)
            h = min(n, w - 1)
            prows[self.by].append(batch.column(self.by)[int(s)].as_py())
            for c in self.order_cols:
                prows[f"__o_{c}"].append(batch.column(c)[int(s)].as_py())
            prows["n_rows"].append(n)
            heads.append(batch.slice(int(s), h))
            prows["tail_vals"].append([float(v) for v in x[e - h:e]])
            if n > w - 1:
                seg = x[s:e]
                sums = np.convolve(seg, np.ones(w))[w - 1:seg.size]
                val = sums / w if self.agg == "mean" else sums
                emits.append(batch.slice(int(s) + w - 1, n - (w - 1))
                             .append_column(self.out_col,
                                            pa.array(val, pa.float64())))
        head = pa.concat_tables(heads)
        prows["head"] = pa.ListArray.from_arrays(
            pa.array(np.cumsum([0] + [t.num_rows for t in heads]), pa.int32()),
            pa.StructArray.from_arrays(
                [c.combine_chunks() for c in head.columns],
                fields=list(head.schema))
        ).cast(self.partial_schema.field("head").type)
        emit = pa.concat_tables(emits) if emits else None
        return emit, pa.table(prows, schema=self.partial_schema)

    def merge(self, p: pa.Table) -> pa.Table:
        w = self.window
        keys = p.column(self.by).to_numpy(zero_copy_only=False)
        n_rows = p.column("n_rows").to_numpy(zero_copy_only=False)
        heads = p.column("head").combine_chunks()
        offsets = np.append(0, np.cumsum(
            pc.list_value_length(heads).to_numpy(zero_copy_only=False)))
        flat = heads.flatten()
        head = pa.Table.from_arrays(flat.flatten(),
                                    schema=pa.schema(list(flat.type)))
        hvals = head.column(self.value_col).to_numpy(
            zero_copy_only=False).astype(np.float64)
        tails = p.column("tail_vals").to_pylist()
        vals = np.empty(head.num_rows, np.float64)
        carry: list[float] = []
        rows_before = 0
        prev_key = object()
        for i in range(len(keys)):
            if keys[i] != prev_key:
                carry, rows_before, prev_key = [], 0, keys[i]
            for pidx in range(offsets[i + 1] - offsets[i]):
                gpos = rows_before + pidx
                count = min(w, gpos + 1)
                avail = carry + [float(v) for v in
                                 hvals[offsets[i]:offsets[i] + pidx + 1]]
                ssum = float(np.sum(np.asarray(avail[-count:])))
                vals[offsets[i] + pidx] = (ssum / count if self.agg == "mean"
                                           else ssum)
            carry = (carry + [float(v) for v in tails[i]])[-(w - 1):]
            rows_before += int(n_rows[i])
        return head.append_column(
            self.out_col, pa.array(vals, pa.float64())).cast(self.out_schema)


def rolling_window(ds: "ray.data.Dataset", by: str, order_cols: list[str],
                   value_col: str, window: int,
                   agg: str = "mean") -> "ray.data.Dataset":
    """Per-key trailing-window aggregate (ROWS BETWEEN window-1 PRECEDING AND
    CURRENT ROW) on the sorted-segment path.

    Full-width windows come from one ``np.convolve`` over the block (each
    output an independent direct sum — no long-cumsum cancellation error);
    the first ``window-1`` rows of each segment are fixed by a
    ``window-1``-step loop vectorized ACROSS segments. Cut block-boundary
    segments merge via _RollingCut partials (o(#blocks·window) driver
    state — whale-key safe, VERDICT r3 item 2).
    """
    in_schema = _pa_schema(ds)
    out_col = f"{value_col}_rolling_{agg}"
    out_schema = in_schema.append(pa.field(out_col, pa.float64()))

    def block(batch: pa.Table, starts: np.ndarray, ends: np.ndarray
              ) -> pa.Table:
        x = batch.column(value_col).to_numpy(zero_copy_only=False).astype(
            np.float64)
        lo, hi = int(starts[0]), int(ends[-1])
        lens = ends - starts
        # full-mode convolve index m holds the trailing sum x[m-w+1..m]
        sums = np.convolve(x, np.ones(window))[:x.size]
        run = np.zeros(starts.size)
        for k in range(window - 1):
            alive = lens > k
            rows = starts[alive] + k
            run[alive] += x[rows]
            sums[rows] = run[alive]
        pos = np.arange(lo, hi) - np.repeat(starts, lens)
        counts = np.minimum(pos + 1, window)
        val = sums[lo:hi] / counts if agg == "mean" else sums[lo:hi]
        return batch.slice(lo, hi - lo).append_column(
            out_col, pa.array(val, pa.float64()))

    cut = _RollingCut(by, order_cols, value_col, window, agg,
                      in_schema, out_schema, out_col)
    return sorted_segment_map(ds, by, order_cols, block, out_schema,
                              cut_kernel=cut)


def range_join_broadcast(left: "ray.data.Dataset", intervals: pa.Table,
                         value_col: str,
                         lo_col: str = "lo", hi_col: str = "hi",
                         inclusive: str = "both",
                         concurrency=None) -> "ray.data.Dataset":
    """Interval (range) join: each left row joins EVERY interval row whose
    ``[lo, hi]`` contains ``left[value_col]`` (1-to-many; rows matching no
    interval are dropped, INNER semantics — SQL ``JOIN ON v BETWEEN lo AND
    hi``).

    The interval table is broadcast ONCE via ``ray.put`` and each batch
    does one vectorized (batch × intervals) containment matrix — correct
    when intervals are a small dimension table (tiers, bands, buckets).
    ``inclusive``: 'both' (BETWEEN), 'left' ([lo, hi)), 'right' ((lo, hi]),
    'neither'.
    """
    ref = ray.put(intervals)

    class _RangeJoin:
        def __init__(self):
            tbl = ray.get(ref)
            self.lo = tbl.column(lo_col).to_numpy(zero_copy_only=False
                                                  ).astype(np.float64)
            self.hi = tbl.column(hi_col).to_numpy(zero_copy_only=False
                                                  ).astype(np.float64)
            self.extra = tbl.drop_columns([lo_col, hi_col])

        def __call__(self, batch: pa.Table) -> pa.Table:
            v = batch.column(value_col).to_numpy(
                zero_copy_only=False).astype(np.float64)[:, None]
            ge = v >= self.lo if inclusive in ("both", "left") \
                else v > self.lo
            le = v <= self.hi if inclusive in ("both", "right") \
                else v < self.hi
            rows, ivals = np.nonzero(ge & le)
            out = batch.take(pa.array(rows))
            take_iv = pa.array(ivals)
            for f in self.extra.schema:
                out = out.append_column(
                    f.name, self.extra.column(f.name).take(take_iv))
            out = out.append_column(
                lo_col, pa.array(self.lo[ivals], pa.float64()))
            return out.append_column(
                hi_col, pa.array(self.hi[ivals], pa.float64()))

    return left.map_batches(_RangeJoin, batch_format="pyarrow",
                            concurrency=concurrency or (1, 8))


def range_join_partitioned(left: "ray.data.Dataset",
                           intervals: "ray.data.Dataset",
                           value_col: str,
                           lo_col: str = "lo", hi_col: str = "hi",
                           num_buckets: int | None = None
                           ) -> "ray.data.Dataset":
    """Partitioned interval join for a LARGE interval side (VERDICT r3
    item 3 — the scale path ``range_join_broadcast`` documents).

    The value domain [min(lo), max(hi)] is split into ``num_buckets``
    equal-width buckets; each interval is REPLICATED into every bucket it
    overlaps, each left row hashes to its value's single bucket, and both
    sides co-locate through ONE sort exchange on ``(bucket, side)`` — the
    same union-tag-sort shape as ``asof_join_partitioned``. Per-bucket
    containment is one vectorized (lefts × bucket-intervals) matrix; a
    left row meets a given interval in exactly one bucket (its own), so no
    dedup pass is needed. INNER semantics, inclusive BETWEEN.

    Partitioning assumption: interval lengths are bounded relative to the
    domain — an interval spanning b buckets replicates b times (a
    whole-domain interval replicates into every bucket). Skewed-hot
    buckets degrade to the raw-piece stitch, they don't break.
    """
    from ray.data.aggregate import Max, Min
    from ..stages.segments import shuffle_width

    intervals = intervals.materialize()
    mm = intervals.aggregate(Min(lo_col), Max(hi_col))
    gmin = float(mm[f"min({lo_col})"])
    gmax = float(mm[f"max({hi_col})"])
    if num_buckets is None:
        # one bucket per ~128MB interval block, floored at 16 so small
        # inputs still parallelize; bounded so a whole-domain interval
        # can't fan out unboundedly
        num_buckets = min(max(shuffle_width(intervals), 16), 4096)
    bw = (gmax - gmin) / num_buckets if gmax > gmin else 1.0

    lschema = _pa_schema(left)
    ischema = _pa_schema(intervals)
    extras = [f for f in ischema if f.name not in (lo_col, hi_col)]
    unified = pa.schema(
        [pa.field("__bucket", pa.int32()), pa.field("__side", pa.int8())]
        + list(lschema)
        + extras
        + [pa.field(lo_col, pa.float64()), pa.field(hi_col, pa.float64())])
    out_schema = pa.schema(
        list(lschema) + extras
        + [pa.field(lo_col, pa.float64()), pa.field(hi_col, pa.float64())])

    def _pad_to(batch: pa.Table, bucket: np.ndarray, side: int) -> pa.Table:
        cols = []
        for f in unified:
            if f.name == "__bucket":
                cols.append(pa.array(bucket.astype(np.int32)))
            elif f.name == "__side":
                cols.append(pa.array(np.full(batch.num_rows, side, np.int8)))
            elif f.name in batch.column_names:
                cols.append(batch.column(f.name).cast(f.type))
            else:
                cols.append(pa.nulls(batch.num_rows, f.type))
        return pa.Table.from_arrays(cols, schema=unified)

    def tag_left(batch: pa.Table) -> pa.Table:
        v = batch.column(value_col).to_numpy(
            zero_copy_only=False).astype(np.float64)
        keep = np.flatnonzero(~np.isnan(v) & (v >= gmin) & (v <= gmax))
        batch = batch.take(pa.array(keep))
        b = np.clip(((v[keep] - gmin) / bw).astype(np.int64),
                    0, num_buckets - 1)
        return _pad_to(batch, b, 1)

    def expand_intervals(batch: pa.Table) -> pa.Table:
        lo = batch.column(lo_col).to_numpy(
            zero_copy_only=False).astype(np.float64)
        hi = batch.column(hi_col).to_numpy(
            zero_copy_only=False).astype(np.float64)
        ok = ~np.isnan(lo) & ~np.isnan(hi) & (hi >= lo)
        b_lo = np.clip(((lo - gmin) / bw).astype(np.int64),
                       0, num_buckets - 1)
        b_hi = np.clip(((hi - gmin) / bw).astype(np.int64),
                       0, num_buckets - 1)
        reps = np.where(ok, b_hi - b_lo + 1, 0)
        rows = np.repeat(np.arange(batch.num_rows), reps)
        # bucket index within each replicated row's own span
        offs = np.arange(rows.size) - np.repeat(
            np.cumsum(reps) - reps, reps)
        return _pad_to(batch.take(pa.array(rows)),
                       b_lo[rows] + offs, 0)

    tagged = left.map_batches(tag_left, batch_format="pyarrow").union(
        intervals.map_batches(expand_intervals, batch_format="pyarrow"))

    lnames = [f.name for f in lschema]
    enames = [f.name for f in extras]

    def block(batch: pa.Table, starts: np.ndarray, ends: np.ndarray
              ) -> pa.Table:
        side = batch.column("__side").to_numpy(zero_copy_only=False)
        v = batch.column(value_col).to_numpy(
            zero_copy_only=False).astype(np.float64)
        lo = batch.column(lo_col).to_numpy(
            zero_copy_only=False).astype(np.float64)
        hi = batch.column(hi_col).to_numpy(
            zero_copy_only=False).astype(np.float64)
        outs: list[pa.Table] = []
        for s, e in zip(starts, ends):
            sl = np.arange(int(s), int(e))
            iv = sl[side[sl] == 0]
            lf = sl[side[sl] == 1]
            if iv.size == 0 or lf.size == 0:
                continue
            m = ((v[lf][:, None] >= lo[iv]) & (v[lf][:, None] <= hi[iv]))
            li, ii = np.nonzero(m)
            if li.size == 0:
                continue
            take_l = pa.array(lf[li])
            take_i = pa.array(iv[ii])
            cols = [batch.column(c).take(take_l) for c in lnames]
            cols += [batch.column(c).take(take_i) for c in enames]
            cols += [batch.column(lo_col).take(take_i),
                     batch.column(hi_col).take(take_i)]
            outs.append(pa.Table.from_arrays(cols, schema=out_schema))
        return (pa.concat_tables(outs) if outs
                else out_schema.empty_table())

    return sorted_segment_map(tagged, "__bucket", ["__side"], block,
                              out_schema)
