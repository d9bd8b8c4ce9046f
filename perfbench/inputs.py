"""Seeded benchmark inputs, written as Parquet shards under a work directory.

Every table here is a pure function of ``seed`` and the size constants in
``run.py``; the engine only ever sees the files written.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from data_profiler_ray.synthetic import generate_transcripts

# bench.py's low rates: a few violations, mostly clean conversations
CLEAN_KNOBS = dict(dup_frac=0.001, bad_role_frac=0.001,
                   dangling_tool_frac=0.05)
# high rates; duplicates are injected after the whale fold (see below)
DIRTY_KNOBS = dict(gap_frac=0.02, ts_regression_frac=0.02,
                   bad_role_frac=0.05, dangling_tool_frac=0.5)
DIRTY_DUP_FRAC = 0.02
WHALE_SHARE = 0.25

# generate_transcripts moves a gapped turn to turn_idx + 1000 and clips every
# conversation to at most 500 turns, so turn_idx >= 1000 marks a gapped row
_GAP_SHIFT = 1000
# whale turns at or above this offset are the whale's out-of-range turns
_WHALE_GAP_BASE = 10_000_000


def write_shards(tbl: pa.Table, out_dir: str, n_shards: int,
                 align_key: str | None = None) -> list[str]:
    """Write ``tbl`` as ``n_shards`` Parquet files of about equal row count.

    Without ``align_key`` the rows are cut in order. With it, every group of
    rows sharing the key lands whole in one file (the partition layout the
    validation engine's resume assumes): groups go, largest first, to the
    file with the fewest rows so far."""
    os.makedirs(out_dir, exist_ok=True)
    if align_key is None:
        per = -(-tbl.num_rows // n_shards)
        pieces = [tbl.slice(s * per, per) for s in range(n_shards)]
    else:
        tbl = tbl.take(pc.sort_indices(tbl, [(align_key, "ascending")]))
        key = tbl.column(align_key).to_numpy(zero_copy_only=False)
        starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        lens = np.diff(np.r_[starts, len(key)])
        loads = np.zeros(n_shards, dtype=np.int64)
        shard_of = np.empty(len(lens), dtype=np.int64)
        for g in np.argsort(-lens, kind="stable"):
            s = int(np.argmin(loads))
            shard_of[g] = s
            loads[s] += lens[g]
        row_shard = np.repeat(shard_of, lens)
        pieces = [tbl.take(pa.array(np.flatnonzero(row_shard == s)))
                  for s in range(n_shards)]
    paths = []
    for s, piece in enumerate(pieces):
        if piece.num_rows == 0:
            continue
        path = os.path.join(out_dir, f"part-{s:05d}.parquet")
        pq.write_table(piece, path)
        paths.append(path)
    return paths


def clean_transcripts(n_turns: int, seed: int) -> pa.Table:
    return generate_transcripts(n_turns, seed=seed, **CLEAN_KNOBS)


def dirty_whale_transcripts(n_turns: int, seed: int) -> pa.Table:
    """High violation rates plus one whale conversation.

    The conversations covering the first ``WHALE_SHARE`` of the rows are
    folded into one ``conv_id`` with contiguous ``turn_idx`` (each folded
    conversation continues where the previous one ended) and timestamps
    rebased so that the fold adds no ts regression of its own. Injected gaps
    stay gaps: a gapped turn lands past the whale's range. Duplicate rows are
    exact copies appended after the fold, so every duplicated key carries
    identical rows and the ts-regression count does not depend on the order
    a sort leaves ties in.
    """
    tbl = generate_transcripts(n_turns, seed=seed, **DIRTY_KNOBS)
    conv = tbl.column("conv_id").to_numpy(zero_copy_only=False)
    turn = tbl.column("turn_idx").to_numpy().astype(np.int64)
    ts = tbl.column("ts").cast(pa.int64()).to_numpy().copy()
    n = len(conv)

    starts = np.flatnonzero(np.r_[True, conv[1:] != conv[:-1]])
    lens = np.diff(np.r_[starts, n])
    n_whale_convs = int(np.searchsorted(np.cumsum(lens), WHALE_SHARE * n)) + 1
    end = int(starts[n_whale_convs]) if n_whale_convs < len(starts) else n

    new_turn = turn.copy()
    hour = 3_600_000_000
    offset, cursor = 0, int(ts[0]) - hour
    for s, ln in zip(starts[:n_whale_convs], lens[:n_whale_convs]):
        s, e = int(s), int(s + ln)
        t = turn[s:e]
        gapped = t >= _GAP_SHIFT
        new_turn[s:e] = np.where(
            gapped, _WHALE_GAP_BASE + offset + t - _GAP_SHIFT, offset + t)
        offset += int(ln)
        shifted = ts[s:e] - ts[s] + cursor + hour
        ts[s:e] = shifted
        cursor = int(shifted.max()) + 1_000_000
    conv_out = conv.copy()
    conv_out[:end] = f"conv-{seed}-whale"

    tbl = tbl.set_column(0, "conv_id", pa.array(conv_out, pa.string()))
    tbl = tbl.set_column(1, "turn_idx", pa.array(new_turn, pa.int32()))
    tbl = tbl.set_column(tbl.schema.get_field_index("ts"), "ts",
                         pa.array(ts, pa.int64()).cast(pa.timestamp("us")))
    rng = np.random.default_rng(seed + 2)
    dup = np.sort(rng.choice(n, size=max(1, int(n * DIRTY_DUP_FRAC)),
                             replace=False))
    return pa.concat_tables([tbl, tbl.take(pa.array(dup))])


_SHIPINSTRUCT = np.array(["DELIVER IN PERSON", "COLLECT COD", "NONE",
                          "TAKE BACK RETURN"])
_SHIPMODE = np.array(["AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP",
                      "TRUCK"])
_COMMENT_WORDS = np.array(
    "furiously carefully blithely quickly slyly final pending regular "
    "express ironic special bold even unusual accounts deposits requests "
    "packages theodolites foxes pinto beans instructions courts".split())


def lineitem(n_rows: int, seed: int) -> pa.Table:
    """TPC-H-shaped lineitem: 16 int, float, decimal, date and string
    columns, with a few nulls in two of them."""
    rng = np.random.default_rng(seed)
    n_orders = max(1, n_rows // 4)
    orderkey = np.sort(rng.integers(1, 4 * n_orders, size=n_rows))
    linenumber = rng.integers(1, 8, size=n_rows).astype(np.int32)
    quantity = rng.integers(1, 51, size=n_rows).astype(np.float64)
    price = np.round(quantity * rng.uniform(900.0, 2000.0, size=n_rows), 2)
    discount = rng.integers(0, 11, size=n_rows)          # hundredths
    tax = rng.integers(0, 9, size=n_rows)
    ship = rng.integers(8036, 10561, size=n_rows)  # 1992-01-02..1998-12-01
    commit = ship + rng.integers(-60, 61, size=n_rows)
    receipt = ship + rng.integers(1, 31, size=n_rows)
    n_words = rng.integers(2, 8, size=n_rows)
    picks = _COMMENT_WORDS[rng.integers(0, len(_COMMENT_WORDS),
                                        size=int(n_words.sum()))]
    offs = np.r_[0, np.cumsum(n_words)]
    comment = np.array([" ".join(picks[offs[i]:offs[i + 1]])
                        for i in range(n_rows)], dtype=object)
    comment_null = rng.random(n_rows) < 0.01
    receipt_null = rng.random(n_rows) < 0.005

    return pa.table({
        "l_orderkey": pa.array(orderkey, pa.int64()),
        "l_partkey": pa.array(rng.integers(1, 20_000, size=n_rows),
                              pa.int64()),
        "l_suppkey": pa.array(rng.integers(1, 1_000, size=n_rows), pa.int64()),
        "l_linenumber": pa.array(linenumber, pa.int32()),
        "l_quantity": pa.array(quantity, pa.float64()),
        "l_extendedprice": pa.array(price, pa.float64()),
        "l_discount": _decimal(discount),
        "l_tax": _decimal(tax),
        "l_returnflag": pa.array(rng.choice(np.array(["A", "N", "R"]),
                                            size=n_rows), pa.string()),
        "l_linestatus": pa.array(rng.choice(np.array(["F", "O"]),
                                            size=n_rows), pa.string()),
        "l_shipdate": pa.array(ship.astype(np.int32), pa.int32())
        .cast(pa.date32()),
        "l_commitdate": pa.array(commit.astype(np.int32), pa.int32())
        .cast(pa.date32()),
        "l_receiptdate": pa.array(receipt.astype(np.int32), pa.int32(),
                                  mask=receipt_null).cast(pa.date32()),
        "l_shipinstruct": pa.array(rng.choice(_SHIPINSTRUCT, size=n_rows),
                                   pa.string()),
        "l_shipmode": pa.array(rng.choice(_SHIPMODE, size=n_rows),
                               pa.string()),
        "l_comment": pa.array(comment, pa.string(), mask=comment_null),
    })


def _decimal(hundredths: np.ndarray) -> pa.Array:
    """decimal128(15, 2) from small non-negative integer hundredths."""
    text = np.array([f"{h / 100:.2f}"
                     for h in range(int(hundredths.max()) + 1)])
    return pa.array(text[hundredths], pa.string()).cast(pa.decimal128(15, 2))


def state_batches(seed: int, n: int = 20_000) -> dict[str, pa.Array]:
    """One fixed batch per accumulator kind, for the state-layer probes."""
    tr = clean_transcripts(n, seed)
    li = lineitem(n, seed)
    return {
        "text": tr.column("text").combine_chunks(),
        "string": tr.column("role").combine_chunks(),
        "int": li.column("l_partkey").combine_chunks(),
        "timestamp": tr.column("ts").combine_chunks(),
        "float": li.column("l_extendedprice").combine_chunks(),
        "decimal": li.column("l_discount").combine_chunks(),
        "date": li.column("l_shipdate").combine_chunks(),
    }

