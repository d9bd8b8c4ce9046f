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

Execution shape (SURVEY.md §3.4): the range exchange on plain Ray tasks
(``segments.range_blocks``) over runs of ONLY the key columns (``conv_id,
turn_idx, ts, role, tool, part`` — ``text`` is projected away, so shuffle
volume is o(input)), each sorted on (conv_id, turn_idx, part) by the task
that made it. One task per key range (``_CheckAndWrite``) checks its rows,
hands its violations and verdicts to a writer, and returns the writer's
tables and its cut pieces as typed tables ``_stack``ed in one block:

- row-local checks (role domain, tool registry) are vectorized over the
  whole block, one violation row per bad row;
- a conversation the block holds whole and that is clean in its turn
  structure and ts order gets its verdict from ``reduceat`` kernels over
  the block's conversation segments — no per-conversation Python;
- every other conversation becomes a PIECE_SCHEMA piece. A piece whose turn
  diffs are all exactly 1 and that has no ts regression is fixed-size (n,
  first, last, ts_first, ts_last, bad-role/tool counts); any other piece
  also carries its raw (turn, ts) run. ``_merge_pieces`` turns the pieces
  of a conversation into its violations and verdict: dup/ts/role/tool
  counts add up across pieces and turn contiguity merges by interval
  arithmetic over the pieces' (first, last) ranges. The range task merges
  the single piece of each anomalous conversation it holds whole; the
  block's first and last conversation, which a boundary may cut, go to
  the driver, which reads them once (``drain_checks``), merges them with
  the same function and passes the merged rows through the same writer.
  Driver carry is o(#blocks) rows even when ONE conversation spans every
  block (SURVEY.md §7.3).

Outputs are typed: violations (VIOLATION_SCHEMA, one row per violation) and
verdicts (VERDICT_SCHEMA, one row per conversation). A null ``turn_idx``
raises ``ValueError``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..config import ConstraintConfig
from .segments import (_carry_stats, _drain, _segments_of, _stack,
                       range_blocks, shuffle_width, sort_task)

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

# one piece of one conversation per row. ``piece_turns``/``piece_ts`` hold
# the raw (turn, ts) run of a piece that is anomalous in isolation (dup, gap
# or ts regression) and are null for a clean (dense, non-decreasing) piece,
# whose first/last/ts fields describe it completely. A null ts stays null.
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


def _ts_drops(ts) -> tuple[np.ndarray, np.ndarray]:
    """(values, drop) of an int64 ts column: ``drop[i]`` when ``ts[i] <
    ts[i-1]``. A comparison with a null ts is no regression (the oracle's
    ``ts < LAG(ts)``); null values read as 0."""
    v = ts.fill_null(0).to_numpy(zero_copy_only=False)
    ok = pc.is_valid(ts).to_numpy(zero_copy_only=False)
    drop = np.zeros(v.size, dtype=bool)
    drop[1:] = ok[1:] & ok[:-1] & (v[1:] < v[:-1])
    return v, drop


def _verdicts(conv_id, part, counts: np.ndarray) -> pa.Table:
    """VERDICT_SCHEMA rows from per-conversation ``counts`` columns (n_turns,
    duplicate_key, turn_gap, ts_regression, bad_role, dangling_tool)."""
    return pa.Table.from_arrays(
        [conv_id.cast(pa.string()), part.cast(pa.string())]
        + [pa.array(counts[:, j], pa.int64()) for j in range(6)]
        + [pa.array(~counts[:, 1:].any(axis=1))], schema=VERDICT_SCHEMA)


# the row-local kinds: the block's task emits them, the piece merge never
_ROW_KINDS = ("bad_role", "dangling_tool")


class _CheckAndWrite:
    """Range-task callable: the checks of one block of the constraint
    stream (see the module docstring), then ``writer`` over the block's
    violations and verdicts; returns the writer's tables and the cut
    pieces ``_stack``ed in one table (``drain_checks`` reads them).

    ``writer``: a callable (VIOLATION_SCHEMA, VERDICT_SCHEMA) tables → a
    tuple of tables of ``writer.schemas``, e.g. ``_ReturnRows`` or
    ``pipelines.validate._PartOutputWriter``. ``sort_cols``, the stream's
    sort keys: (conv_id, turn_idx), then ``part`` where the stream's
    columns ``names`` have it, so that rows of equal keys from different
    parts meet in part order, whatever order their blocks arrive in."""

    def __init__(self, cfg: ConstraintConfig, writer, names: list[str]):
        self.cfg = cfg
        self.writer = writer
        self.schemas = (*writer.schemas, PIECE_SCHEMA)
        self.sort_cols = [cfg.group_column, cfg.order_column] + (
            ["part"] if "part" in names else [])
        self.domains = [
            (_ROW_KINDS[0], cfg.role_column,
             pa.array(sorted(set(cfg.role_domain)), pa.string())),
            (_ROW_KINDS[1], cfg.tool_column,
             pa.array(sorted(set(cfg.tool_registry)), pa.string())
             if cfg.tool_registry else None)]

    def __call__(self, batch: pa.Table) -> pa.Table:
        cfg = self.cfg
        if batch.num_rows == 0:
            return _stack([s.empty_table() for s in self.schemas],
                          self.schemas)
        batch = batch.combine_chunks()
        conv = batch.column(cfg.group_column)
        turn_col = batch.column(cfg.order_column)
        if turn_col.null_count:
            raise ValueError(
                f"{cfg.order_column} is null in {turn_col.null_count} rows "
                f"of a sorted block: the conversation checks need it on "
                f"every row")
        part = (batch.column("part") if "part" in batch.column_names
                else pa.nulls(batch.num_rows, pa.string()))
        starts, ends = _segments_of(batch, cfg.group_column)
        lens = ends - starts
        follows = np.ones(batch.num_rows, dtype=bool)
        follows[starts] = False  # row continues the previous row's conv
        turn = turn_col.to_numpy(zero_copy_only=False)
        step = np.diff(turn, prepend=turn[:1])
        n_dup = np.add.reduceat(follows & (step == 0), starts)
        n_dense = np.add.reduceat(follows & (step == 1), starts)
        ts = None
        n_reg = np.zeros(starts.size, dtype=np.int64)
        if cfg.ts_column in batch.column_names:
            ts = batch.column(cfg.ts_column).cast(pa.int64())
            n_reg = np.add.reduceat(follows & _ts_drops(ts)[1], starts)

        violations = [VIOLATION_SCHEMA.empty_table()]
        n_bad = []
        for kind, column, domain in self.domains:
            if domain is None or column not in batch.column_names:
                n_bad.append(np.zeros(starts.size, dtype=np.int64))
                continue
            values = batch.column(column)
            bad = pc.and_(pc.is_valid(values), pc.invert(
                pc.is_in(values, value_set=domain))).to_numpy(
                zero_copy_only=False)
            n_bad.append(np.add.reduceat(bad, starts))
            if bad.any():
                # context-free: emitted for the whole block, cut
                # conversations included; the piece merge never re-emits
                idx = pa.array(np.flatnonzero(bad))
                k = len(idx)
                violations.append(pa.Table.from_arrays([
                    pa.array([kind] * k, pa.string()),
                    conv.take(idx).cast(pa.string()),
                    turn_col.take(idx).cast(pa.int32()),
                    pa.array([column] * k, pa.string()),
                    values.take(idx).cast(pa.string()),
                    pa.nulls(k, pa.string()),
                    part.take(idx).cast(pa.string())],
                    schema=VIOLATION_SCHEMA))

        # a piece is clean when its turns step by exactly 1 and its ts never
        # decreases; a whole conversation is clean when its piece is and,
        # under contiguity, it starts at turn 0
        piece_clean = (n_dense == lens - 1) & (n_reg == 0)
        if cfg.require_contiguous_turns:
            clean = piece_clean & (turn[starts] == 0)
        else:
            clean = (n_dup == 0) & (n_reg == 0)
        cut = np.zeros(starts.size, dtype=bool)
        cut[[0, -1]] = True
        clean &= ~cut

        c = np.flatnonzero(clean)
        zeros = np.zeros(c.size, dtype=np.int64)
        verdicts = [_verdicts(
            conv.take(pa.array(starts[c])), part.take(pa.array(starts[c])),
            np.column_stack([lens[c], zeros, zeros, zeros,
                             n_bad[0][c], n_bad[1][c]]))]

        g = np.flatnonzero(~clean)
        pieces = self._pieces(batch, conv, part, turn, ts, starts[g],
                              ends[g], ~piece_clean[g], n_bad[0][g],
                              n_bad[1][g])
        is_cut = pa.array(cut[g])
        merged_v, merged_d = _merge_pieces(cfg, pieces.filter(
            pc.invert(is_cut)))
        violations.append(merged_v)
        verdicts.append(merged_d)
        return _stack([*self.writer(pa.concat_tables(violations),
                                    pa.concat_tables(verdicts)),
                       pieces.filter(is_cut)], self.schemas)

    @staticmethod
    def _pieces(batch, conv, part, turn, ts, s, e, raw, nbr, nbt
                ) -> pa.Table:
        """One PIECE_SCHEMA row per conversation run ``[s[i], e[i])`` of
        ``batch``; the ``raw`` ones carry their (turn, ts) run."""
        first, last = pa.array(s), pa.array(e - 1)
        rows = np.concatenate([np.arange(a, b) for a, b in zip(s[raw], e[raw])]
                              + [np.empty(0, dtype=np.int64)])
        offsets = pa.array(np.append(0, np.cumsum(np.where(raw, e - s, 0))),
                           pa.int32())
        null_run = pa.array(~raw)

        def run(values: pa.Array) -> pa.Array:
            return pa.ListArray.from_arrays(offsets, values, mask=null_run)

        if ts is None:
            ts_first = ts_last = pa.nulls(s.size, pa.int64())
            ts_run = pa.nulls(s.size, pa.list_(pa.int64()))
        else:
            ts_first, ts_last = ts.take(first), ts.take(last)
            ts_run = run(ts.take(pa.array(rows)).combine_chunks())
        return pa.Table.from_arrays([
            conv.take(first).cast(pa.string()),
            part.take(first).cast(pa.string()),
            pa.array(e - s, pa.int64()),
            pa.array(turn[s], pa.int64()),
            pa.array(turn[e - 1], pa.int64()),
            ts_first, ts_last,
            pa.array(nbr, pa.int64()), pa.array(nbt, pa.int64()),
            run(pa.array(turn[rows], pa.int64())), ts_run],
            schema=PIECE_SCHEMA)


def _decode_piece(row: dict, turns: pa.Array | None,
                  tss: pa.Array | None) -> dict:
    """One piece from its PIECE_SCHEMA row (the inverse of
    ``_CheckAndWrite._pieces``); ``turns``/``tss`` are its raw run or None.
    The sort orders a block by (conv_id, turn), so a raw run is
    turn-sorted."""
    first, last = row["piece_first"], row["piece_last"]
    piece = {"n": row["piece_n"], "first": first, "last": last,
             "ts_first": row["piece_ts_first"], "ts_last": row["piece_ts_last"],
             "nbr": row["piece_bad_role"], "nbt": row["piece_bad_tool"],
             "n_dup": 0, "intervals": [(first, last)], "dup_vals": [],
             "ts_regs": [], "uniq": None, "counts": None}
    if turns is None:
        return piece
    t = turns.to_numpy(zero_copy_only=False)
    uniq, counts = np.unique(t, return_counts=True)
    brk = np.flatnonzero(np.diff(uniq) > 1)
    piece.update({
        "n_dup": int(t.size - uniq.size),
        "intervals": [(int(uniq[a]), int(uniq[b])) for a, b in
                      zip(np.r_[0, brk + 1], np.r_[brk, uniq.size - 1])],
        "dup_vals": [int(v) for v in uniq[counts > 1]],
        "uniq": uniq, "counts": counts,
    })
    if tss is not None:
        v, drop = _ts_drops(tss)
        piece["ts_regs"] = [(int(t[i]), int(v[i - 1] - v[i]))
                            for i in np.flatnonzero(drop)]
    return piece


def _first_values(ranges, cap: int) -> list[int]:
    """The first ``cap`` integers of ascending disjoint closed ranges."""
    out: list[int] = []
    for lo, hi in ranges:
        if len(out) >= cap:
            break
        out.extend(range(lo, min(hi, lo + cap - len(out) - 1) + 1))
    return out


def _merge_conversation(cfg: ConstraintConfig, pieces: list[dict]
                        ) -> tuple[list[int], list[tuple[str, int, str]]]:
    """Exact counts (n_turns, duplicate_key, turn_gap, ts_regression,
    bad_role, dangling_tool) and violations (kind, turn, detail) of one
    conversation from its pieces in (first, last) order. The global sort
    orders pieces by value, so neighbouring ranges share at most one
    value."""
    cap = cfg.max_violations_per_kind
    found: list[tuple[str, int, str]] = []

    n_dup = sum(p["n_dup"] for p in pieces)
    dup_vals = {v for p in pieces for v in p["dup_vals"]}
    for a, b in zip(pieces, pieces[1:]):
        if a["last"] == b["first"]:
            n_dup += 1
            dup_vals.add(a["last"])
    for v in sorted(dup_vals)[:cap]:
        occ = 0
        for p in pieces:
            if p["first"] <= v <= p["last"]:
                if p["uniq"] is None:
                    occ += 1  # clean piece: dense, each value once
                else:
                    i = int(np.searchsorted(p["uniq"], v))
                    if i < p["uniq"].size and p["uniq"][i] == v:
                        occ += int(p["counts"][i])
        found.append(("duplicate_key", v, f"count={occ}"))

    # distinct turns as disjoint closed intervals; contiguity wants exactly
    # 0..D-1: values missing from that range and values outside it are gaps
    ivs: list[list[int]] = []
    for p in pieces:
        for lo, hi in p["intervals"]:
            if ivs and lo <= ivs[-1][1] + 1:
                ivs[-1][1] = max(ivs[-1][1], hi)
            else:
                ivs.append([lo, hi])
    n_gap = 0
    if cfg.require_contiguous_turns:
        top = sum(hi - lo + 1 for lo, hi in ivs) - 1
        inside = [(max(lo, 0), min(hi, top)) for lo, hi in ivs
                  if max(lo, 0) <= min(hi, top)]
        holes, cur = [], 0
        for lo, hi in inside:
            if lo > cur:
                holes.append((cur, lo - 1))
            cur = hi + 1
        if cur <= top:
            holes.append((cur, top))
        outside = ([(lo, min(hi, -1)) for lo, hi in ivs if lo < 0]
                   + [(max(lo, top + 1), hi) for lo, hi in ivs if hi > top])
        n_gap = 2 * (top + 1 - sum(hi - lo + 1 for lo, hi in inside))
        found += [("turn_gap", t, "missing turn index")
                  for t in _first_values(holes, cap)]
        found += [("turn_gap", t, "out-of-range turn index")
                  for t in _first_values(outside, cap)]

    regs: list[tuple[int, int]] = []
    for prev, p in zip([None] + pieces[:-1], pieces):
        if (prev is not None and prev["ts_last"] is not None
                and p["ts_first"] is not None
                and p["ts_first"] < prev["ts_last"]):
            regs.append((p["first"], prev["ts_last"] - p["ts_first"]))
        regs += p["ts_regs"]
    found += [("ts_regression", t, f"ts decreased by {d}us")
              for t, d in regs[:cap]]

    counts = [sum(p["n"] for p in pieces), n_dup, n_gap, len(regs),
              sum(p["nbr"] for p in pieces), sum(p["nbt"] for p in pieces)]
    return counts, found


def _merge_pieces(cfg: ConstraintConfig, pieces: pa.Table
                  ) -> tuple[pa.Table, pa.Table]:
    """(violations, verdicts) of every conversation in ``pieces``
    (PIECE_SCHEMA), each merged from all of its pieces."""
    if pieces.num_rows == 0:
        return VIOLATION_SCHEMA.empty_table(), VERDICT_SCHEMA.empty_table()
    pieces = pieces.take(pc.sort_indices(pieces, sort_keys=[
        ("conv_id", "ascending"), ("piece_first", "ascending"),
        ("piece_last", "ascending")])).combine_chunks()
    starts, ends = _segments_of(pieces, "conv_id")
    turns, tss = pieces.column("piece_turns"), pieces.column("piece_ts")
    rows = pieces.drop_columns(["piece_turns", "piece_ts"]).to_pylist()
    counts = np.empty((starts.size, 6), dtype=np.int64)
    owner, found = [], []
    for c, (a, b) in enumerate(zip(starts, ends)):
        counts[c], conv_found = _merge_conversation(cfg, [
            _decode_piece(rows[i], turns[i].values, tss[i].values)
            for i in range(a, b)])
        owner += [c] * len(conv_found)
        found += conv_found
    conv_ids = pieces.column("conv_id").take(pa.array(starts))
    parts = pieces.column("part").take(pa.array(starts))
    owner_idx = pa.array(owner, pa.int64())
    kinds, turn_idx, details = (zip(*found) if found else ((), (), ()))
    violations = pa.Table.from_arrays([
        pa.array(kinds, pa.string()), conv_ids.take(owner_idx),
        pa.array(turn_idx, pa.int32()), pa.nulls(len(found), pa.string()),
        pa.nulls(len(found), pa.string()), pa.array(details, pa.string()),
        parts.take(owner_idx)], schema=VIOLATION_SCHEMA)
    return violations, _verdicts(conv_ids, parts, counts)


class _ReturnRows:
    """The writer of ``conversation_checks``: returns the rows."""
    schemas = (VIOLATION_SCHEMA, VERDICT_SCHEMA)

    def __call__(self, violations: pa.Table, verdicts: pa.Table):
        return violations, verdicts


def conversation_checks(ds: "ray.data.Dataset", cfg: ConstraintConfig,
                        emit_row_violations: bool = False,
                        stats: dict | None = None
                        ) -> tuple[pa.Table, pa.Table]:
    """Each block of the key columns sorted in a plain Ray task → checks
    over the range exchange (``segments.range_blocks``, ``shuffle_width``
    ranges) → driver merge of the cut conversations' pieces.

    Returns (violations, verdicts): VIOLATION_SCHEMA rows and one
    VERDICT_SCHEMA row per conversation. Only the narrow key columns enter
    the shuffle — ``text`` never moves. ``emit_row_violations`` keeps a
    violation row per bad role and dangling tool (the verdict counts
    include them either way). ``stats`` (optional) receives ``carry_rows``
    / ``carry_bytes`` (the cut pieces the driver reads), ``n_blocks`` and
    the sort ``width``."""
    names = ds.schema().names
    narrow = ds.select_columns([cfg.group_column, cfg.order_column] + [
        c for c in (cfg.ts_column, cfg.role_column, cfg.tool_column, "part")
        if c in names]).materialize()
    check = _CheckAndWrite(cfg, _ReturnRows(), names)
    runs = [sort_task.remote(b, check.sort_cols)
            for b in narrow.to_arrow_refs()]
    violations, verdicts = drain_checks(range_blocks(
        runs, check.sort_cols, check, shuffle_width(narrow), stats), check,
        stats)
    if not emit_row_violations:
        violations = violations.filter(pc.invert(pc.is_in(
            violations.column("kind"), value_set=pa.array(_ROW_KINDS))))
    return violations, verdicts


# the name the benchmark's per-layer probe calls
conversation_checks_parts = conversation_checks


def drain_checks(blocks, check: _CheckAndWrite,
                 stats: dict | None = None) -> tuple[pa.Table, ...]:
    """The driver's side of the checks, over ``check``'s blocks (an
    iterable of tables, one per sorted block): read their writer rows and
    cut pieces once (``_drain``), merge the pieces and pass the merged
    rows through ``check.writer`` itself. Returns the writer's tables
    (``writer.schemas``), each over every block and the merge; ``stats``
    (optional) receives ``carry_rows``, ``carry_bytes`` and ``n_blocks``."""
    (*rows, pieces), n_blocks = _drain(blocks, check.schemas)
    _carry_stats(stats, pieces, n_blocks)
    merged = check.writer(*_merge_pieces(check.cfg, pieces))
    return tuple(pa.concat_tables(t) for t in zip(rows, merged))
