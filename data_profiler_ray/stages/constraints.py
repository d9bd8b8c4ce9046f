"""Transcript constraint suite: uniqueness, ordering, domains, referential.

North-rule constraints over the transcript table
``(conv_id, turn_idx, role, text, tool, ts)``:

- **uniqueness** of ``(conv_id, turn_idx)`` — the reference silently drops
  duplicate datetime-index rows (``/root/reference/stelardataprofiler/
  tabular_timeseries/variables/utils.py:105-107``); here duplicates become
  violation rows instead (SURVEY.md §2.7 D1);
- **contiguous / monotone turn ordering** and **non-decreasing ts** within a
  conversation — the monotonic-flag analogue of ``variables/numeric.py:61-79``
  evaluated per group;
- **role domain** membership — the value-set membership pattern of
  ``check_if_boolean`` (``variables/utils.py:232-250``) applied to a
  categorical domain;
- **referential integrity of tool values** against an allowed-tool registry
  (SURVEY.md §2.4 J3) — a broadcast semi/anti join: the registry rides to
  every task once (Ray serializes the callable-class constructor args into
  the object store, one copy per node), ``pc.is_in`` does the probe; no
  shuffle.

Execution shape (SURVEY.md §3.4):

- Row-local checks (role domain, tool registry) are STATELESS ``map_batches``
  over zero-copy Arrow — they never shuffle and scale linearly.
- Conversation-local checks (uniqueness, gaps, ts order) range-sort ONLY
  the key columns (``conv_id, turn_idx, ts, role, tool, part`` — ``text``
  is projected away so the wide payload never enters the exchange) and run
  vectorized over each sorted block (``_BlockChecker``). Shuffle volume is
  o(input) because the text column dominates transcript bytes.
  Boundary carry (the ``stages/segments.py`` CutKernel protocol): a block's
  first and last conversation may be cut by the sort, so each ships as one
  PIECE_SCHEMA row. A piece whose turn diffs are all exactly 1 and whose ts
  is non-decreasing is fixed-size (n, first, last, ts_first, ts_last,
  bad-role/tool counts); dup/ts/role/tool counts merge associatively across
  pieces and turn contiguity merges via interval arithmetic over the
  per-piece (first, last) ranges — driver carry is o(#blocks) bytes even
  when ONE conversation spans every block. Only a piece that is anomalous
  IN ISOLATION (internal dup, gap, or ts regression) also carries its raw
  (turn, ts) lists, so the driver pull is bounded by the anomalous pieces
  alone, never by conversation length.
  Hot conversations: a range sort splits a conversation larger than a
  block across blocks instead of building one oversized group; duplicate
  and gap detection need the whole turn set per conversation, which the
  piece merge reassembles exactly (SURVEY.md §7.3).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from ..config import ConstraintConfig

# violation-row schema: one row per violation, referencing rows by key only
# (never by text payload) so violation output stays narrow at scale
VIOLATION_SCHEMA = pa.schema([
    ("kind", pa.string()),
    ("conv_id", pa.string()),
    ("turn_idx", pa.int32()),
    ("column", pa.string()),
    ("value", pa.string()),
    ("detail", pa.string()),
    ("part", pa.string()),
])

VERDICT_SCHEMA = pa.schema([
    ("conv_id", pa.string()),
    ("part", pa.string()),
    ("n_turns", pa.int64()),
    ("n_duplicate_key", pa.int64()),
    ("n_turn_gap", pa.int64()),
    ("n_ts_regression", pa.int64()),
    ("n_bad_role", pa.int64()),
    ("n_dangling_tool", pa.int64()),
    ("passed", pa.bool_()),
])


# one cut piece per row: a block's first or last conversation, which the
# range sort may have cut across blocks. ``piece_turns``/``piece_ts`` hold
# the raw (turn, ts) run of a piece that is anomalous in isolation (internal
# dup, gap or ts regression) and are null for a clean (dense, non-decreasing)
# piece, whose first/last/ts fields describe it completely.
PIECE_SCHEMA = pa.schema([
    ("conv_id", pa.string()),
    ("part", pa.string()),
    ("piece_n", pa.int64()),
    ("piece_first", pa.int64()),
    ("piece_last", pa.int64()),
    ("piece_ts_first", pa.int64()),
    ("piece_ts_last", pa.int64()),
    ("piece_bad_role", pa.int64()),
    ("piece_bad_tool", pa.int64()),
    ("piece_turns", pa.list_(pa.int64())),
    ("piece_ts", pa.list_(pa.int64())),
])


def _with_pieces(schema: pa.Schema) -> pa.Schema:
    """``schema`` widened by the piece columns it lacks: the sort task
    returns its output rows and its cut pieces in one table, and a row is a
    piece exactly when ``piece_n`` is valid."""
    return pa.schema(list(schema) + [f for f in PIECE_SCHEMA
                                     if f.name not in schema.names])


def _stack(tables: list[pa.Table], schema: pa.Schema) -> pa.Table:
    """Concatenate tables holding subsets of ``schema``'s columns; a column
    a table lacks is null in its rows."""
    return pa.concat_tables([pa.Table.from_arrays(
        [t.column(f.name) if f.name in t.column_names
         else pa.nulls(t.num_rows, f.type) for f in schema], schema=schema)
        for t in tables])


def _split_pieces(tbl: pa.Table, schema: pa.Schema
                  ) -> tuple[pa.Table, pa.Table]:
    """Inverse of ``_stack`` over a sort-task output: (rows of ``schema``,
    PIECE_SCHEMA pieces)."""
    is_piece = pc.is_valid(tbl.column("piece_n"))
    return (tbl.filter(pc.invert(is_piece)).select(schema.names),
            tbl.filter(is_piece).select(PIECE_SCHEMA.names))


def _empty_violations() -> pa.Table:
    return VIOLATION_SCHEMA.empty_table()


def _emit_rows(kind: str, column: str, batch: pa.Table, mask, values,
               conv, turn, part) -> pa.Table:
    idx = np.flatnonzero(mask.to_numpy(zero_copy_only=False))
    if idx.size == 0:
        return _empty_violations()
    take = pa.array(idx)
    return pa.table({
        "kind": pa.array([kind] * idx.size, pa.string()),
        "conv_id": conv.take(take).cast(pa.string()),
        "turn_idx": turn.take(take).cast(pa.int32()),
        "column": pa.array([column] * idx.size, pa.string()),
        "value": values.take(take).cast(pa.string()),
        "detail": pa.nulls(idx.size, pa.string()),
        "part": part.take(take).cast(pa.string()),
    }, schema=VIOLATION_SCHEMA)


def _row_violation_rows(batch: pa.Table, cfg: ConstraintConfig,
                        role_arr: pa.Array, tool_arr: pa.Array | None
                        ) -> list[pa.Table]:
    """Vectorized row-local violation rows (bad role / dangling tool)."""
    out: list[pa.Table] = []
    conv = batch.column("conv_id")
    turn = batch.column(cfg.order_column)
    part = (batch.column("part") if "part" in batch.column_names
            else pa.nulls(len(batch), pa.string()))
    if cfg.role_column in batch.column_names:
        role = batch.column(cfg.role_column)
        bad_role = pc.and_(pc.is_valid(role),
                           pc.invert(pc.is_in(role, value_set=role_arr)))
        t = _emit_rows("bad_role", cfg.role_column, batch, bad_role,
                       role, conv, turn, part)
        if t.num_rows:
            out.append(t)
    if tool_arr is not None and cfg.tool_column in batch.column_names:
        tool = batch.column(cfg.tool_column)
        bad_tool = pc.and_(pc.is_valid(tool),
                           pc.invert(pc.is_in(tool, value_set=tool_arr)))
        t = _emit_rows("dangling_tool", cfg.tool_column, batch, bad_tool,
                       tool, conv, turn, part)
        if t.num_rows:
            out.append(t)
    return out


class RowChecks:
    """Stateless map_batches callable for row-local constraint checks.

    Emits violation rows for out-of-domain ``role`` values and ``tool``
    values missing from the registry. The domains are Arrow arrays built
    once per actor/task in ``__init__`` (broadcast, not per-batch).
    """

    def __init__(self, cfg: ConstraintConfig, registry_ref=None):
        self.cfg = cfg
        registry = cfg.tool_registry
        if registry_ref is not None:
            registry = ray.get(registry_ref)
        self.role_set = pa.array(sorted(set(cfg.role_domain)), type=pa.string())
        self.tool_set = (pa.array(sorted(set(registry)), type=pa.string())
                         if registry else None)

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = _row_violation_rows(batch, self.cfg, self.role_set, self.tool_set)
        return pa.concat_tables(out) if out else _empty_violations()


def _check_conversation(group: pa.Table, cfg: ConstraintConfig,
                        role_set: set, tool_set: set | None) -> pa.Table:
    """Per-conversation ordered checks; returns violations + one verdict row
    (verdict marked by kind='__verdict__', unpacked downstream)."""
    conv_id = group.column("conv_id")[0].as_py()
    part = (group.column("part")[0].as_py()
            if "part" in group.column_names else None)
    turn = group.column("turn_idx").to_numpy(zero_copy_only=False)
    order = np.argsort(turn, kind="stable")
    turn_s = turn[order]
    n = turn_s.size

    v_kind: list[str] = []
    v_turn: list[int] = []
    v_detail: list[str] = []

    # uniqueness of (conv_id, turn_idx) — D1
    dup_mask = np.zeros(n, dtype=bool)
    dup_mask[1:] = turn_s[1:] == turn_s[:-1]
    n_dup = int(dup_mask.sum())
    for t in np.unique(turn_s[dup_mask])[: cfg.max_violations_per_kind]:
        cnt = int((turn_s == t).sum())
        v_kind.append("duplicate_key")
        v_turn.append(int(t))
        v_detail.append(f"count={cnt}")

    # contiguity: turn_idx must be 0..n_distinct-1
    n_gap = 0
    if cfg.require_contiguous_turns:
        uniq = np.unique(turn_s)
        expected = np.arange(uniq.size, dtype=turn_s.dtype)
        if uniq.size and not np.array_equal(uniq, expected):
            # report each missing index in the covered range (capped)
            missing = np.setdiff1d(expected, uniq, assume_unique=True)
            extra = np.setdiff1d(uniq, expected, assume_unique=True)
            n_gap = int(missing.size + extra.size)
            for t in missing[: cfg.max_violations_per_kind]:
                v_kind.append("turn_gap")
                v_turn.append(int(t))
                v_detail.append("missing turn index")
            for t in extra[: cfg.max_violations_per_kind]:
                v_kind.append("turn_gap")
                v_turn.append(int(t))
                v_detail.append("out-of-range turn index")

    # non-decreasing ts along turn order
    n_ts = 0
    if cfg.ts_column in group.column_names:
        ts = group.column(cfg.ts_column).cast(pa.int64()).to_numpy(
            zero_copy_only=False)[order]
        reg = np.flatnonzero(np.diff(ts) < 0)
        n_ts = int(reg.size)
        for i in reg[: cfg.max_violations_per_kind]:
            v_kind.append("ts_regression")
            v_turn.append(int(turn_s[i + 1]))
            v_detail.append(f"ts decreased by {int(ts[i] - ts[i + 1])}us")

    # row-local counts recomputed here only for the verdict tallies
    n_bad_role = 0
    if cfg.role_column in group.column_names:
        roles = group.column(cfg.role_column)
        valid = pc.drop_null(roles)
        if len(valid):
            in_dom = pc.is_in(valid, value_set=pa.array(sorted(role_set)))
            n_bad_role = len(valid) - int(pc.sum(in_dom.cast(pa.int8())).as_py() or 0)
    n_bad_tool = 0
    if tool_set is not None and cfg.tool_column in group.column_names:
        tools = pc.drop_null(group.column(cfg.tool_column))
        if len(tools):
            in_reg = pc.is_in(tools, value_set=pa.array(sorted(tool_set)))
            n_bad_tool = len(tools) - int(pc.sum(in_reg.cast(pa.int8())).as_py() or 0)

    passed = not (n_dup or n_gap or n_ts or n_bad_role or n_bad_tool)
    k = len(v_kind)
    return pa.table({
        "kind": pa.array(v_kind + ["__verdict__"], pa.string()),
        "conv_id": pa.array([conv_id] * (k + 1), pa.string()),
        "turn_idx": pa.array(v_turn + [n], pa.int32()),
        "column": pa.array([None] * k + [None], pa.string()),
        "value": pa.array([None] * k + [None], pa.string()),
        "detail": pa.array(
            v_detail
            + [f"{n_dup}|{n_gap}|{n_ts}|{n_bad_role}|{n_bad_tool}|{int(passed)}"],
            pa.string()),
        "part": pa.array([part] * (k + 1), pa.string()),
    }, schema=VIOLATION_SCHEMA)


class _BlockChecker:
    """Vectorized per-block conversation checks over a (conv_id, turn_idx)
    sorted dataset.

    After the range-partition sort, every block is a contiguous key range:
    a conversation can only be cut at the block's first/last group. The
    checker therefore

    - runs ALL interior conversations through numpy segment kernels
      (np.add.reduceat over change-point segments — zero per-group Python
      on the clean path; only conversations with an actual turn-structure
      anomaly fall back to the exact per-conversation routine to emit
      detailed violation rows), and
    - emits the first/last group as a mergeable cut piece (one
      PIECE_SCHEMA row: fixed-size when the piece is clean in isolation,
      with its raw (turn, ts) lists otherwise), merged exactly on the
      driver in o(#blocks) bytes (``_merge_cut_pieces``).

    ``check`` returns (violation + verdict rows, pieces); calling the
    checker returns both in one table of ``schema``.
    """

    schema = _with_pieces(VIOLATION_SCHEMA)

    def __init__(self, cfg: ConstraintConfig, emit_row_violations: bool = False,
                 assume_complete: bool = False):
        self.cfg = cfg
        self.emit_row_violations = emit_row_violations
        # assume_complete: every conversation is fully contained in the
        # batch (hash-bucketed input) — no boundary re-emission needed
        self.assume_complete = assume_complete
        self.role_set = set(cfg.role_domain)
        self.tool_set = set(cfg.tool_registry) if cfg.tool_registry else None
        self.role_arr = pa.array(sorted(self.role_set), pa.string())
        self.tool_arr = (pa.array(sorted(self.tool_set), pa.string())
                         if self.tool_set is not None else None)

    def __call__(self, batch: pa.Table) -> pa.Table:
        return _stack(list(self.check(batch)), self.schema)

    def check(self, batch: pa.Table) -> tuple[pa.Table, pa.Table]:
        cfg = self.cfg
        n = batch.num_rows
        if n == 0:
            return _empty_violations(), PIECE_SCHEMA.empty_table()
        batch = batch.combine_chunks()
        if self.assume_complete:
            # bucket path: rows arrive grouped but unsorted — sort locally
            order = pc.sort_indices(batch, sort_keys=[
                ("conv_id", "ascending"), (cfg.order_column, "ascending")])
            batch = batch.take(order)
        conv = batch.column("conv_id")
        codes_arr = pc.dictionary_encode(conv)
        if isinstance(codes_arr, pa.ChunkedArray):
            codes_arr = codes_arr.combine_chunks()
        codes = codes_arr.indices.to_numpy(zero_copy_only=False)
        turn = batch.column(cfg.order_column).to_numpy(zero_copy_only=False)
        change = np.empty(n, dtype=bool)
        change[0] = True
        change[1:] = codes[1:] != codes[:-1]
        starts = np.flatnonzero(change)
        g_count = starts.size
        ends = np.append(starts[1:], n)
        lens = ends - starts

        has_ts = cfg.ts_column in batch.column_names
        ts = (batch.column(cfg.ts_column).cast(pa.int64())
              .to_numpy(zero_copy_only=False) if has_ts else None)

        # per-row flags → per-group tallies via reduceat
        not_change = ~change
        dup_flags = not_change & (turn == np.roll(turn, 1))
        n_dup = np.add.reduceat(dup_flags, starts)
        if has_ts:
            d_ts = ts - np.roll(ts, 1)
            reg_flags = not_change & (d_ts < 0)
            n_reg = np.add.reduceat(reg_flags, starts)
        else:
            n_reg = np.zeros(g_count, dtype=np.int64)

        n_bad_role = np.zeros(g_count, dtype=np.int64)
        if cfg.role_column in batch.column_names:
            role = batch.column(cfg.role_column)
            bad = pc.and_(pc.is_valid(role),
                          pc.invert(pc.is_in(role, value_set=self.role_arr)))
            n_bad_role = np.add.reduceat(
                bad.to_numpy(zero_copy_only=False), starts).astype(np.int64)
        n_bad_tool = np.zeros(g_count, dtype=np.int64)
        if self.tool_arr is not None and cfg.tool_column in batch.column_names:
            tool = batch.column(cfg.tool_column)
            badt = pc.and_(pc.is_valid(tool),
                           pc.invert(pc.is_in(tool, value_set=self.tool_arr)))
            n_bad_tool = np.add.reduceat(
                badt.to_numpy(zero_copy_only=False), starts).astype(np.int64)

        first_turn = turn[starts]
        last_turn = turn[ends - 1]
        if cfg.require_contiguous_turns:
            clean_turns = (n_dup == 0) & (first_turn == 0) & (
                last_turn == lens - 1)
        else:
            clean_turns = n_dup == 0

        boundary = np.zeros(g_count, dtype=bool)
        if not self.assume_complete:
            boundary[0] = True
            boundary[g_count - 1] = True
        anomalous = ~boundary & (~clean_turns | (n_reg > 0))
        clean = ~boundary & ~anomalous

        out_tables: list[pa.Table] = []

        if self.emit_row_violations:
            # row-local violations are block-local context-free checks:
            # emit them for the WHOLE block (boundary groups included) —
            # the cut-piece merge never re-emits row-local rows
            out_tables.extend(_row_violation_rows(
                batch, cfg, self.role_arr, self.tool_arr))

        # clean interior conversations → vectorized verdict rows
        c_idx = np.flatnonzero(clean)
        if c_idx.size:
            part_col = ("part" in batch.column_names)
            parts = (batch.column("part").take(pa.array(starts[c_idx]))
                     if part_col else pa.nulls(c_idx.size, pa.string()))
            passed = ((n_bad_role[c_idx] == 0) & (n_bad_tool[c_idx] == 0))
            details = [f"0|0|0|{br}|{bt}|{int(p)}" for br, bt, p in
                       zip(n_bad_role[c_idx], n_bad_tool[c_idx], passed)]
            out_tables.append(pa.table({
                "kind": pa.array(["__verdict__"] * c_idx.size, pa.string()),
                "conv_id": conv.take(pa.array(starts[c_idx])).cast(pa.string()),
                "turn_idx": pa.array(lens[c_idx], pa.int32()),
                "column": pa.nulls(c_idx.size, pa.string()),
                "value": pa.nulls(c_idx.size, pa.string()),
                "detail": pa.array(details, pa.string()),
                "part": parts.cast(pa.string()),
            }, schema=VIOLATION_SCHEMA))

        # anomalous interior conversations → exact per-conv routine (rare)
        for g in np.flatnonzero(anomalous):
            sub = batch.slice(int(starts[g]), int(lens[g]))
            out_tables.append(_check_conversation(sub, cfg, self.role_set,
                                                  self.tool_set))

        # boundary groups → mergeable cut pieces (CutKernel protocol,
        # segments.py): a clean piece is ONE fixed-size row; a piece that is
        # anomalous in isolation also carries its (turn, ts) run
        pieces: list[dict] = []
        if not self.assume_complete:
            for g in np.unique([0, g_count - 1]):
                s, e = int(starts[g]), int(ends[g])
                piece_clean = True
                if e - s > 1:
                    piece_clean = bool(np.all(np.diff(turn[s:e]) == 1))
                    if piece_clean and has_ts:
                        piece_clean = bool(np.all(np.diff(ts[s:e]) >= 0))
                pieces.append(self._piece(
                    batch, s, e, turn, ts if has_ts else None, piece_clean,
                    int(n_bad_role[g]), int(n_bad_tool[g])))

        rows = (pa.concat_tables(out_tables) if out_tables
                else _empty_violations())
        return rows, pa.Table.from_pylist(pieces, schema=PIECE_SCHEMA)

    @staticmethod
    def _piece(batch: pa.Table, s: int, e: int, turn: np.ndarray,
               ts: np.ndarray | None, clean: bool, nbr: int, nbt: int
               ) -> dict:
        raw = not clean  # only a piece anomalous in isolation ships its run
        return {
            "conv_id": batch.column("conv_id")[s].as_py(),
            "part": (batch.column("part")[s].as_py()
                     if "part" in batch.column_names else None),
            "piece_n": e - s,
            "piece_first": int(turn[s]),
            "piece_last": int(turn[e - 1]),
            "piece_ts_first": int(ts[s]) if ts is not None else None,
            "piece_ts_last": int(ts[e - 1]) if ts is not None else None,
            "piece_bad_role": nbr,
            "piece_bad_tool": nbt,
            "piece_turns": turn[s:e].tolist() if raw else None,
            "piece_ts": (ts[s:e].tolist() if raw and ts is not None
                         else None),
        }


def _decode_piece(row: dict, turns: pa.Array | None,
                  tss: pa.Array | None) -> dict:
    """One cut piece from its PIECE_SCHEMA row (merge-side inverse of
    ``_BlockChecker._piece``); ``turns``/``tss`` are its raw lists. The
    sort orders a block by (conv_id, turn), so a raw run is turn-sorted."""
    first, last = row["piece_first"], row["piece_last"]
    piece = {
        "n": row["piece_n"], "first": first, "last": last,
        "ts_first": row["piece_ts_first"], "ts_last": row["piece_ts_last"],
        "nbr": row["piece_bad_role"], "nbt": row["piece_bad_tool"],
        "n_dup_int": 0, "intervals": [(first, last)], "dup_vals": [],
        "ts_regs": [], "uniq": None, "counts": None, "part": row["part"],
    }
    if turns is None:
        return piece
    t = turns.to_numpy(zero_copy_only=False)
    uniq, counts = np.unique(t, return_counts=True)
    brk = np.flatnonzero(np.diff(uniq) > 1)
    iv_s = np.r_[0, brk + 1]
    iv_e = np.r_[brk, uniq.size - 1]
    piece.update({
        "n_dup_int": int(t.size - uniq.size),
        "intervals": [(int(uniq[a]), int(uniq[b]))
                      for a, b in zip(iv_s, iv_e)],
        "dup_vals": [int(v) for v in uniq[counts > 1]],
        "uniq": uniq, "counts": counts,
    })
    if tss is not None:
        d = np.diff(tss.to_numpy(zero_copy_only=False))
        piece["ts_regs"] = [(int(t[i + 1]), int(-d[i]))
                            for i in np.flatnonzero(d < 0)]
    return piece


def _fixed_rows(cfg: ConstraintConfig, pieces: pa.Table) -> pa.Table:
    """Violation + verdict rows (VIOLATION_SCHEMA) of every conversation
    that has cut pieces, from the merge of its pieces."""
    by_conv: dict[str, list[dict]] = {}
    turns, tss = pieces.column("piece_turns"), pieces.column("piece_ts")
    rows = pieces.drop_columns(["piece_turns", "piece_ts"]).to_pylist()
    for i, row in enumerate(rows):
        by_conv.setdefault(row["conv_id"], []).append(
            _decode_piece(row, turns[i].values, tss[i].values))
    fixed = [_merge_cut_pieces(cfg, c, by_conv[c]) for c in sorted(by_conv)]
    return (pa.concat_tables([t.cast(VIOLATION_SCHEMA) for t in fixed])
            if fixed else _empty_violations())


def _merge_cut_pieces(cfg: ConstraintConfig, conv_id: str,
                      pieces: list[dict]) -> pa.Table:
    """Driver-side associative merge of a cut conversation's pieces —
    exact violation rows + verdict from o(#pieces) state (interval
    arithmetic over dense ranges; raw arrays only for anomalous pieces).
    Mirrors ``_check_conversation`` semantics row for row."""
    cap = cfg.max_violations_per_kind
    pieces.sort(key=lambda p: (p["first"], p["last"]))
    part = pieces[0]["part"]
    n_total = sum(p["n"] for p in pieces)
    n_dup = sum(p["n_dup_int"] for p in pieces)
    n_bad_role = sum(p["nbr"] for p in pieces)
    n_bad_tool = sum(p["nbt"] for p in pieces)

    dup_cand: set[int] = set()
    for p in pieces:
        dup_cand.update(p["dup_vals"])
    for a, b in zip(pieces, pieces[1:]):
        if a["last"] == b["first"]:
            n_dup += 1
            dup_cand.add(a["last"])

    def occ(v: int) -> int:
        c = 0
        for p in pieces:
            if v < p["first"] or v > p["last"]:
                continue
            if p["uniq"] is None:
                c += 1  # clean piece: dense, each value exactly once
            else:
                i = int(np.searchsorted(p["uniq"], v))
                if i < p["uniq"].size and p["uniq"][i] == v:
                    c += int(p["counts"][i])
        return c

    v_kind: list[str] = []
    v_turn: list[int] = []
    v_detail: list[str] = []
    for v in sorted(dup_cand)[:cap]:
        v_kind.append("duplicate_key")
        v_turn.append(v)
        v_detail.append(f"count={occ(v)}")

    # merged distinct-value set as disjoint closed intervals (pieces are
    # value-ordered by the global sort, so ranges touch at most at a
    # single boundary value)
    ivs: list[list[int]] = []
    for p in pieces:
        for lo, hi in p["intervals"]:
            if ivs and lo <= ivs[-1][1] + 1:
                ivs[-1][1] = max(ivs[-1][1], hi)
            else:
                ivs.append([lo, hi])
    D = sum(hi - lo + 1 for lo, hi in ivs)

    n_gap = 0
    if cfg.require_contiguous_turns and D and ivs != [[0, D - 1]]:
        in_range = 0
        missing: list[int] = []
        cur = 0
        for lo, hi in ivs:
            lo_c, hi_c = max(lo, 0), min(hi, D - 1)
            if lo_c > hi_c:
                continue
            if lo_c > cur and len(missing) < cap:
                missing.extend(range(cur, min(lo_c, cur + cap - len(missing))))
            in_range += hi_c - lo_c + 1
            cur = max(cur, hi_c + 1)
        if cur < D and len(missing) < cap:
            missing.extend(range(cur, min(D, cur + cap - len(missing))))
        extra: list[int] = []
        for lo, hi in ivs:  # values below 0, ascending
            if lo < 0 and len(extra) < cap:
                extra.extend(range(lo, min(hi, -1, lo + cap - len(extra) - 1)
                                   + 1))
        for lo, hi in ivs:  # values beyond D-1, ascending
            if hi > D - 1 and len(extra) < cap:
                a = max(lo, D)
                extra.extend(range(a, min(hi, a + cap - len(extra) - 1) + 1))
        n_missing = D - in_range
        n_extra = D - in_range
        n_gap = n_missing + n_extra
        for t in missing:
            v_kind.append("turn_gap")
            v_turn.append(t)
            v_detail.append("missing turn index")
        for t in extra:
            v_kind.append("turn_gap")
            v_turn.append(t)
            v_detail.append("out-of-range turn index")

    n_ts = 0
    ts_rows: list[tuple[int, int]] = []
    prev = None
    for p in pieces:
        if (prev is not None and prev["ts_last"] is not None
                and p["ts_first"] is not None
                and p["ts_first"] < prev["ts_last"]):
            n_ts += 1
            ts_rows.append((p["first"], prev["ts_last"] - p["ts_first"]))
        n_ts += len(p["ts_regs"])
        ts_rows.extend(p["ts_regs"])
        prev = p
    for t, delta in ts_rows[:cap]:
        v_kind.append("ts_regression")
        v_turn.append(t)
        v_detail.append(f"ts decreased by {delta}us")

    passed = not (n_dup or n_gap or n_ts or n_bad_role or n_bad_tool)
    k = len(v_kind)
    return pa.table({
        "kind": pa.array(v_kind + ["__verdict__"], pa.string()),
        "conv_id": pa.array([conv_id] * (k + 1), pa.string()),
        "turn_idx": pa.array(v_turn + [n_total], pa.int32()),
        "column": pa.array([None] * (k + 1), pa.string()),
        "value": pa.array([None] * (k + 1), pa.string()),
        "detail": pa.array(
            v_detail
            + [f"{n_dup}|{n_gap}|{n_ts}|{n_bad_role}|{n_bad_tool}|"
               f"{int(passed)}"],
            pa.string()),
        "part": pa.array([part] * (k + 1), pa.string()),
    }, schema=VIOLATION_SCHEMA)


def conversation_checks_bucketed(ds: "ray.data.Dataset",
                                 cfg: ConstraintConfig,
                                 emit_row_violations: bool = False,
                                 num_buckets: int | None = None
                                 ) -> "ray.data.Dataset":
    """Hash-shuffle variant (the north rule's literal shape): bucket =
    hash(conv_id) % B → ``groupby(bucket)`` co-locates every conversation
    whole → per-bucket local sort + the same vectorized kernel with
    ``assume_complete=True`` — NO global sort coordination and NO boundary
    second pass. B defaults to 2× cluster CPUs (per-group Python overhead
    is paid only B times). Hot conversations: a conversation always lands
    in one bucket; per-turn-local checks could be salted
    ``(conv_id, turn_idx % k)``, but duplicate/gap detection needs the
    whole turn set, so bucket size is bounded instead by B ≫ 1 and Ray's
    sort-based groupby spilling (SURVEY.md §7.3).

    Measured (2M turns, 8 CPUs, local): ~35 s vs ~10 s for the sorted path
    — Ray's groupby is itself sort-based, so bucketing only adds the
    conv-hash pass and loses the boundary trick's cheap kernels; the sorted
    ``conversation_checks`` stays the default. This variant remains the
    right shape when inputs are ALREADY hash-bucketed on conv_id at write
    time (no shuffle at all: ``groupby`` collapses to per-file groups)."""
    from ..functions.text import hash_string_array
    cols = [cfg.group_column, cfg.order_column]
    names = ds.schema().names
    for c in (cfg.ts_column, cfg.role_column, cfg.tool_column, "part"):
        if c in names:
            cols.append(c)
    narrow = ds.select_columns(cols)
    if num_buckets is None:
        num_buckets = 2 * int(ray.cluster_resources().get("CPU", 8))

    def add_bucket(b: pa.Table) -> pa.Table:
        h = hash_string_array(b.column(cfg.group_column))
        return b.append_column(
            "__bucket", pa.array((h % num_buckets).astype(np.int32)))

    checker = _BlockChecker(cfg, emit_row_violations=emit_row_violations,
                            assume_complete=True)

    def check_bucket(group: pa.Table) -> pa.Table:
        return checker.check(group.drop_columns(["__bucket"]))[0]

    return narrow.map_batches(add_bucket, batch_format="pyarrow") \
        .groupby("__bucket").map_groups(check_bucket, batch_format="pyarrow")


def _sorted_checks(ds: "ray.data.Dataset", cfg: ConstraintConfig, fn,
                   columns: list[str] | None = None,
                   nbytes: int | None = None) -> "ray.data.Dataset":
    """Narrow projection → range-partition sort on (conv_id, turn_idx) →
    ``fn`` over each sorted block (one task per block).

    ``columns``: the names ``ds`` has (default ``ds.schema()``, which
    executes a mapped dataset). ``nbytes``: the narrow columns' size, e.g.
    from the Parquet footers; without it the projection is materialized so
    that ``shuffle_width`` can take ``size_bytes()`` without a second
    execution."""
    names = ds.schema().names if columns is None else columns
    cols = [cfg.group_column, cfg.order_column] + [
        c for c in (cfg.ts_column, cfg.role_column, cfg.tool_column, "part")
        if c in names]
    narrow = ds.select_columns(cols)
    if nbytes is None:
        narrow = narrow.materialize()
    # width: Ray's sort splits each of B blocks ~4-way, so B beyond ~24 on a
    # small input recreates the tiny-partition exchange (measured 8.6 s →
    # 1.25 s at 1M rows by coalescing 64 → 16 blocks first); large inputs
    # derive B from bytes/128MB (stages/segments.shuffle_width)
    from .segments import shuffle_width
    width = shuffle_width(narrow, nbytes=nbytes)
    return narrow.repartition(width).sort(
        [cfg.group_column, cfg.order_column]).map_batches(
        fn, batch_format="pyarrow", batch_size=None)


def conversation_checks_parts(ds: "ray.data.Dataset", cfg: ConstraintConfig,
                              emit_row_violations: bool = False,
                              stats: dict | None = None
                              ) -> tuple["ray.data.Dataset", pa.Table]:
    """Split form of ``conversation_checks``: returns ``(checked, fixed)``.

    ``checked`` is the materialized block-check stream in
    ``_with_pieces(VIOLATION_SCHEMA)``: violation and verdict rows plus the
    ≤2 cut-piece rows per block (valid ``piece_n``), which consumers drop.
    ``fixed`` holds the violation + verdict rows (VIOLATION_SCHEMA) of the
    conversations with cut pieces, merged on the driver from o(#blocks)
    piece rows even when one whale conversation spans every block.
    ``stats`` (optional) receives ``carry_bytes`` / ``carry_rows`` /
    ``n_blocks`` for tests asserting the o(#blocks) carry bound.

    ``check_and_write`` is the form that writes outputs inside the sort
    task and needs no second pass over ``checked``.
    """
    checker = _BlockChecker(cfg, emit_row_violations=emit_row_violations)
    checked = _sorted_checks(ds, cfg, checker).materialize()
    piece_tbls = list(checked.map_batches(
        lambda b: _split_pieces(b, VIOLATION_SCHEMA)[1],
        batch_format="pyarrow").iter_batches(batch_format="pyarrow"))
    pieces = (pa.concat_tables(piece_tbls) if piece_tbls
              else PIECE_SCHEMA.empty_table())
    if stats is not None:
        stats["carry_rows"] = pieces.num_rows
        stats["carry_bytes"] = pieces.nbytes
        stats["n_blocks"] = checked.num_blocks()
    return checked, _fixed_rows(cfg, pieces)


class _CheckAndWrite:
    """Sort-task callable: block checks, then ``writer`` over the block's
    violation + verdict rows; returns the writer's rows and the cut pieces
    in one table of ``_with_pieces(writer.schema)``."""

    def __init__(self, cfg: ConstraintConfig, writer):
        self.checker = _BlockChecker(cfg, emit_row_violations=True)
        self.writer = writer
        self.schema = _with_pieces(writer.schema)

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows, pieces = self.checker.check(batch)
        return _stack([self.writer(rows), pieces], self.schema)


def check_and_write(ds: "ray.data.Dataset", cfg: ConstraintConfig, writer,
                    columns: list[str] | None = None,
                    nbytes: int | None = None) -> pa.Table:
    """Conversation + row-local checks whose outputs never reach the
    driver: each sort task hands its block's violation and verdict rows to
    ``writer`` (a callable VIOLATION_SCHEMA table → ``writer.schema``
    table, e.g. one that writes files and returns tallies). The driver
    reads the small stream of writer rows and cut pieces once, merges the
    pieces, and passes the merged rows through ``writer`` itself.

    Returns every writer row (``writer.schema``). ``columns`` and
    ``nbytes`` are as in ``_sorted_checks``."""
    stream = _sorted_checks(ds, cfg, _CheckAndWrite(cfg, writer), columns,
                            nbytes)
    out, pieces = [], []
    for b in stream.iter_batches(batch_format="pyarrow", batch_size=None):
        rows, piece_rows = _split_pieces(b, writer.schema)
        out.append(rows)
        pieces.append(piece_rows)
    fixed = _fixed_rows(cfg, pa.concat_tables(pieces) if pieces
                        else PIECE_SCHEMA.empty_table())
    out.append(writer(fixed))
    return pa.concat_tables(out)


def conversation_checks(ds: "ray.data.Dataset", cfg: ConstraintConfig,
                        emit_row_violations: bool = False
                        ) -> "ray.data.Dataset":
    """Range-partition sort on (conv_id, turn_idx) → vectorized block checks
    → driver merge of the block-boundary conversations' cut pieces.

    Returns a Dataset of VIOLATION_SCHEMA rows, including one
    ``__verdict__`` row per conversation carrying the tally in ``detail``.
    Only the narrow key columns enter the shuffle — ``text`` never moves.
    """
    checked, fixed_tbl = conversation_checks_parts(
        ds, cfg, emit_row_violations=emit_row_violations)
    main = checked.map_batches(
        lambda b: _split_pieces(b, VIOLATION_SCHEMA)[0],
        batch_format="pyarrow")
    if fixed_tbl.num_rows:
        return main.union(ray.data.from_arrow(fixed_tbl))
    return main


def split_verdicts(all_rows: pa.Table) -> tuple[pa.Table, pa.Table]:
    """Split the conversation_checks output into (violations, verdicts)."""
    is_verdict = pc.equal(all_rows.column("kind"), "__verdict__")
    violations = all_rows.filter(pc.invert(is_verdict))
    vrows = all_rows.filter(is_verdict)
    details = vrows.column("detail").to_pylist()
    parsed = np.array([[int(x) for x in d.split("|")] for d in details]
                      ) if details else np.zeros((0, 6), dtype=np.int64)
    verdicts = pa.table({
        "conv_id": vrows.column("conv_id"),
        "part": vrows.column("part"),
        "n_turns": vrows.column("turn_idx").cast(pa.int64()),
        "n_duplicate_key": pa.array(parsed[:, 0], pa.int64()),
        "n_turn_gap": pa.array(parsed[:, 1], pa.int64()),
        "n_ts_regression": pa.array(parsed[:, 2], pa.int64()),
        "n_bad_role": pa.array(parsed[:, 3], pa.int64()),
        "n_dangling_tool": pa.array(parsed[:, 4], pa.int64()),
        "passed": pa.array(parsed[:, 5].astype(bool)),
    }, schema=VERDICT_SCHEMA)
    return violations, verdicts


def row_violations(ds: "ray.data.Dataset", cfg: ConstraintConfig,
                   registry_ref=None) -> "ray.data.Dataset":
    """Stateless row-local violations (role domain + tool registry)."""
    cols = [cfg.group_column, cfg.order_column, cfg.role_column]
    names = ds.schema().names
    if cfg.tool_column in names:
        cols.append(cfg.tool_column)
    if "part" in names:
        cols.append("part")
    return ds.select_columns(cols).map_batches(
        RowChecks(cfg, registry_ref=registry_ref), batch_format="pyarrow")
