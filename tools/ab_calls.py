"""Paired A/B of two checkouts: the benchmark's entry-point calls, interleaved.

Usage (from the repository root):

    python tools/ab_calls.py PARENT_DIR CHANGE_DIR --workload dirty_whale_fresh \\
        --pairs 20 --seed 1701

Starts one long-lived server process per checkout, each with its own Ray
session of one CPU, and pins both, with every Ray process they start, to
the same CPU (``--cpu``, by default the lowest this process may use). Both
call the entry point of the workload on the same inputs, written once
from ``--seed`` by this checkout's ``perfbench.inputs`` with the
benchmark's sizes: ``run_validation`` over 50k dirty turns in 16 shards
(``dirty_whale_fresh``) or ``profile_dataset`` over 100k lineitem rows in
8 files (``profile_lineitem``). After ``--warm`` calls on each side, the
calls alternate A B, B A, A B, ... (ABBA), one at a time. Per workload it
prints each side's median wall time with quartiles and rows/s, the median
and quartiles of the per-pair wall ratio B/A, and the pairs B won.

Why: on a shared VM the host's load drifts over minutes, so two separate
``perfbench/run.py`` runs of one tree can differ more than a change does
(four alternating pairs of runs gave 25k to 73k dirty rows/s on a shared
4-vCPU VM). Two calls of one pair run seconds apart on the same CPU and
see the same load.

The harness has a spread of its own: one checkout against itself (A/A,
20 pairs, one pinned vCPU of the same VM) gave median B/A wall ratios of
0.988 and 1.021 on ``dirty_whale_fresh`` in two runs, B "winning" 13 and
8 of the 20 pairs, with per-pair quartiles 0.93-1.01 and 0.96-1.10.
Earlier A/A runs on that VM read 0.94 and 1.02. Read a B/A ratio inside
about 0.94-1.02, or fewer than 18 of 20 wins, as no change. With both
sessions on one CPU a call runs slower than alone (medians of 0.81-0.93
s per dirty call, against 0.65-0.85 s for one session alone on the
CPU), since the idle session's Ray processes share the CPU.

It is a tool for sizing a change, not the benchmark of record
(``perfbench/run.py``), and not part of the tests. Outputs are not
checked against an oracle here; the benchmark does that.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("dirty_whale_fresh", "profile_lineitem")


def write_inputs(workload: str, seed: int, work: str) -> str:
    """Write ``workload``'s benchmark-sized input under ``work``."""
    sys.path.insert(0, ROOT)
    from perfbench import inputs
    path = os.path.join(work, workload)
    if workload == "dirty_whale_fresh":
        inputs.write_shards(inputs.dirty_whale_transcripts(50_000, seed),
                            path, 16)
    else:
        inputs.write_shards(inputs.lineitem(100_000, seed), path, 8)
    return path


def serve(checkout: str, cpu: int) -> None:
    """Server side: one Ray session of one CPU pinned to ``cpu``; answers
    each request line ``{"workload", "input", "out"}`` on stdin with one
    line ``{"wall", "rows"}`` on stdout, until stdin closes."""
    import time

    # stdout carries the replies alone; anything else printed goes to stderr
    replies = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    os.sched_setaffinity(0, {cpu})    # Ray's processes inherit it
    sys.path.insert(0, checkout)
    import ray
    ray.init(address="local", num_cpus=1, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=512 << 20)
    import ray.data
    ray.data.DataContext.get_current().enable_progress_bars = False
    from data_profiler_ray.config import (ConstraintConfig, ProfileConfig,
                                          ValidationConfig)
    from data_profiler_ray.pipelines.validate import run_validation
    from data_profiler_ray.stages.profile import profile_dataset
    from data_profiler_ray.synthetic import TOOL_REGISTRY

    def call(workload, src, out):
        shutil.rmtree(out, ignore_errors=True)
        if workload == "dirty_whale_fresh":
            return run_validation(src, ValidationConfig(
                constraints=ConstraintConfig(tool_registry=TOOL_REGISTRY),
                output_dir=out))["total_rows"]
        return profile_dataset(ray.data.read_parquet(src), ProfileConfig(
            title="lineitem"))["table"]["num_rows"]

    try:
        for line in sys.stdin:
            req = json.loads(line)
            t0 = time.perf_counter()
            rows = call(req["workload"], req["input"], req["out"])
            wall = time.perf_counter() - t0
            replies.write(json.dumps({"wall": wall, "rows": rows}) + "\n")
            replies.flush()
    finally:
        ray.shutdown()


class Side:
    """A server process of one checkout."""

    def __init__(self, name: str, checkout: str, cpu: int, work: str):
        self.name, self.checkout = name, os.path.abspath(checkout)
        self.out = os.path.join(work, f"out-{name}")
        env = dict(os.environ, PYTHONPATH=self.checkout)
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--serve",
             self.checkout, "--cpu", str(cpu)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=self.checkout, env=env)

    def call(self, workload: str, src: str) -> dict:
        self.proc.stdin.write(json.dumps(
            {"workload": workload, "input": src, "out": self.out}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"{self.name} ({self.checkout}) stopped; "
                               "see its messages above")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def compare(sides: list[Side], workload: str, src: str, pairs: int,
            warm: int) -> None:
    for side in sides:
        for _ in range(warm):
            side.call(workload, src)
    walls: dict[str, list[float]] = {s.name: [] for s in sides}
    rows = 0
    for i in range(pairs):
        for side in (sides if i % 2 == 0 else sides[::-1]):
            r = side.call(workload, src)
            walls[side.name].append(r["wall"])
            rows = r["rows"]
    print(f"{workload}: {pairs} pairs, {rows:,} rows per call")
    for side in sides:
        q1, med, q3 = quartiles(walls[side.name])
        print(f"  {side.name} {side.checkout}: median {med:.3f} s "
              f"(q1 {q1:.3f}, q3 {q3:.3f}), {rows / med:,.0f} rows/s")
    ratio = [b / a for a, b in zip(walls["A"], walls["B"])]
    q1, med, q3 = quartiles(ratio)
    wins = sum(b < a for a, b in zip(walls["A"], walls["B"]))
    print(f"  B/A wall per pair: median {med:.3f} (q1 {q1:.3f}, "
          f"q3 {q3:.3f}); B faster in {wins}/{pairs} pairs", flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", nargs="?", help="checkout A (e.g. the parent)")
    ap.add_argument("b", nargs="?", help="checkout B (e.g. the change)")
    ap.add_argument("--workload", choices=WORKLOADS + ("all",),
                    default="dirty_whale_fresh")
    ap.add_argument("--pairs", type=int, default=20)
    ap.add_argument("--warm", type=int, default=3)
    ap.add_argument("--seed", type=int, default=1701)
    ap.add_argument("--cpu", type=int,
                    default=min(os.sched_getaffinity(0)))
    ap.add_argument("--serve", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.serve:
        serve(args.serve, args.cpu)
        return 0
    if not (args.a and args.b) or args.pairs < 2:
        ap.error("give two checkouts and at least 2 pairs")
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    with tempfile.TemporaryDirectory(prefix="ab_calls-") as work:
        srcs = {w: write_inputs(w, args.seed, work) for w in workloads}
        sides = [Side("A", args.a, args.cpu, work),
                 Side("B", args.b, args.cpu, work)]
        try:
            for w in workloads:
                compare(sides, w, srcs[w], args.pairs, args.warm)
        finally:
            for side in sides:
                side.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
