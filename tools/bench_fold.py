"""In-process profile-fold micro-benchmark: ``stages.profile.fold`` and
the driver's ``merge_states``, without Ray, on one pinned CPU.

Sizes a change to the per-batch accumulator work without running the full
benchmark (``perfbench/run.py``). It writes the benchmark's two inputs
(``perfbench.inputs``) to a temporary directory:

- dirty: ``dirty_whale_transcripts(50_000, seed)`` in 16 shards, each
  planned on its own as ``run_validation`` plans it;
- lineitem: ``lineitem(100_000, seed)`` in 8 shards, planned together as
  ``profile_dataset`` plans a bare ``read_parquet``.

Every figure is the best of ``--reps`` repetitions:

- ``read``: every unit's read batches (``plan._unit_batches``) read into
  memory, as the read tasks read them; the tool also prints how many
  batches each unit reads. The timed fold below folds these in-memory
  batches, so it does not include the read;
- ``fold``: every unit folded into its state blob by its own ``fold``
  call, as the read tasks fold it, untimed inside. Each unit runs the
  string type probes on its own rows, as ``run_validation`` always did:
  while this tool carried the probe verdicts of earlier units across all
  16 dirty shards, dirty's figure read about 29 ms less (about 146 ms
  against 175 ms, one pinned vCPU);
- ``merge``: the blobs folded by ``merge_states``, as the driver does;
- per column: each accumulator's ``update`` over all units;
- per step: the accumulator steps (``_value_counts``, ``_long_keys``,
  ``_update_distinct``, ``hash_string_array_words`` inside both,
  ``_probes``, ``_text``) and ``dumps_state``, timed by wrapping them.
  The wrappers add a few microseconds per call, so the per-column and
  per-step figures come from separate repetitions from ``fold``'s.

Usage:
    python tools/bench_fold.py [--reps 7] [--seed 3101] [--cpu N]

``--cpu`` pins to that CPU (default: the last CPU the process may use).
Not part of the test suite.
"""

from __future__ import annotations

import argparse
import collections
import functools
import glob
import os
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import pyarrow as pa
import pyarrow.parquet as pq

from data_profiler_ray.config import ProfileConfig
from data_profiler_ray.functions import text as text_mod
from data_profiler_ray.stages import plan, profile
from data_profiler_ray.state import column
from perfbench import inputs

DIRTY_TURNS, DIRTY_SHARDS = 50_000, 16
LINEITEM_ROWS, LINEITEM_SHARDS = 100_000, 8

# (owner, attribute, label) of every wrapped step
_STEPS = [
    (column, "_value_counts", "value_counts"),
    (column._DistinctMixin, "_update_distinct", "update_distinct"),
    (column, "_long_keys", "long_keys"),
    (text_mod, "hash_string_array_words", "word_hash"),
    (column.StringAccumulator, "_probes", "probes"),
    (column.StringAccumulator, "_text", "text"),
    (profile, "dumps_state", "dumps_state"),
]
_ACCS = (column.StringAccumulator, column.NumericAccumulator,
         column.DatetimeAccumulator, column.BooleanAccumulator)


def _plan(wl: str, seed: int, root: str):
    """The input's schema, its fold units in fold order and its read batch
    rows."""
    d = os.path.join(root, wl)
    if wl == "dirty":
        inputs.write_shards(inputs.dirty_whale_transcripts(DIRTY_TURNS, seed),
                            d, DIRTY_SHARDS)
    else:
        inputs.write_shards(inputs.lineitem(LINEITEM_ROWS, seed), d,
                            LINEITEM_SHARDS)
    metas = {p: pq.read_metadata(p)
             for p in sorted(glob.glob(os.path.join(d, "*.parquet")))}
    if wl == "dirty":   # run_validation: each shard's units on their own
        units = [u for p in metas for u in plan.numbered_units({p: metas[p]})]
    else:               # profile_dataset: the units of all files
        units = plan.numbered_units(metas)
    return (plan.footer_schema(metas), [unit for _, unit, _ in units],
            plan._read_batch_rows(metas))


def _best(fn, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        t = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t)
    return best


class _Timers:
    """Wraps the steps and each accumulator's ``update`` with timers that
    add into ``self.now``; ``run`` keeps each key's best over reps."""

    def __init__(self):
        self.now = collections.Counter()
        self.saved = []

    def _wrap(self, owner, attr, key):
        orig = owner.__dict__.get(attr)
        if orig is None:    # a tree without this step
            return
        fn = orig.__func__ if isinstance(orig, staticmethod) else orig

        @functools.wraps(fn)
        def timed(*a, **k):
            t = time.perf_counter()
            try:
                return fn(*a, **k)
            finally:
                self.now[key(a)] += time.perf_counter() - t

        setattr(owner, attr, staticmethod(timed)
                if isinstance(orig, staticmethod) else timed)
        self.saved.append((owner, attr, orig))

    def __enter__(self):
        for owner, attr, label in _STEPS:
            self._wrap(owner, attr, lambda a, label=label: "step " + label)
        for cls in _ACCS:
            self._wrap(cls, "update", lambda a: "column " + a[0].name)
        return self

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self.saved):
            setattr(owner, attr, orig)

    def run(self, fn, reps: int) -> dict[str, float]:
        best: dict[str, float] = {}
        for _ in range(reps):
            self.now.clear()
            fn()
            for k, v in self.now.items():
                best[k] = min(best.get(k, v), v)
        return best


def bench(wl: str, seed: int, reps: int, root: str) -> None:
    schema, plan_units, batch_rows = _plan(wl, seed, root)

    def read():
        return [list(plan._unit_batches(unit, batch_rows, None))
                for unit in plan_units]

    units = read()
    t_read = _best(read, reps)
    rows = sum(len(b) for u in units for b in u)
    per_unit = collections.Counter(len(u) for u in units)

    def fold():
        return [profile.fold(u, schema, ProfileConfig()) for u in units]

    blobs = fold()
    t_fold = _best(fold, reps)
    t_merge = _best(lambda: profile.merge_states(blobs), reps)
    with _Timers() as timers:
        parts = timers.run(fold, reps)
    print(f"{wl}: {len(units)} fold units, {rows} rows, "
          f"{sum(map(len, blobs))} state bytes; best of {reps}")
    print("  batches per unit: " + ", ".join(
        f"{k} ({n} units)" for k, n in sorted(per_unit.items())))
    print(f"  read   {t_read * 1e3:8.1f} ms")
    print(f"  fold   {t_fold * 1e3:8.1f} ms")
    print(f"  merge  {t_merge * 1e3:8.1f} ms  ({len(blobs)} blobs)")
    for k in sorted(parts, key=lambda k: (not k.startswith("column"),
                                          -parts[k])):
        print(f"  {k:<28} {parts[k] * 1e3:8.1f} ms")


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--reps", type=int, default=7)
    ap.add_argument("--seed", type=int, default=3101)
    ap.add_argument("--cpu", type=int, default=None)
    args = ap.parse_args(argv)
    cpu = (args.cpu if args.cpu is not None
           else sorted(os.sched_getaffinity(0))[-1])
    os.sched_setaffinity(0, {cpu})
    print(f"pinned to CPU {cpu}")
    with tempfile.TemporaryDirectory(prefix="bench_fold-") as root:
        for wl in ("dirty", "lineitem"):
            bench(wl, args.seed, args.reps, root)


if __name__ == "__main__":
    main()
