"""Repo benchmark: the validation engine on one Ray session sized to nproc.

Usage (from the repository root):

    python3 perfbench/run.py --workload dirty_whale_fresh --seed 1 \\
        --seconds 20 --trace 0

One closed-loop client: each measured call starts after the previous one
returned. Per run the benchmark

1. writes the workload's inputs from ``--seed`` under ``.pbw/`` and computes
   the expected outputs with an independent DuckDB oracle (``oracle.py``);
2. in a child process, sets up ``SETUP_REPS`` times — Ray init plus one
   warm-up call on a small input — shutting Ray down between repetitions
   (``setup_s`` is the median). Ray sessions live only in that child, so
   a Ray abort cannot take the reporting process down with it;
3. calls the workload's public entry point (``run_validation`` or
   ``profile_dataset``) for ``--seconds`` seconds, checking every call's
   outputs against the oracle;
4. prints one JSON line: end-to-end metrics with ``--trace 0``, per-layer
   metrics with ``--trace 1``.

The benchmark and every process it starts run on ``nproc`` CPUs. On a
shared 4-vCPU VM with ``nproc`` 1, letting Ray's processes spread over all
four vCPUs doubled the wall time of the same call from one minute to the
next (rows/s IQR/median 0.63 over ten seeds; pinned to one vCPU, 0.15 on
``dirty_whale_fresh`` and 0.10 on ``profile_lineitem``).

Every process the benchmark starts is its descendant: it adopts orphans
(``PR_SET_CHILD_SUBREAPER``) and stops and waits for all of them on every
way out, since Ray's processes outlive the session process that started
them.

With ``--trace 1`` the first half of the time runs untraced calls and the
second half traced ones: after each traced call the benchmark calls each
layer's public functions itself (``layers.py``) under spans, and
``trace.overhead_frac`` compares the traced calls' wall time with the
untraced ones. Spans are written to ``.pbw/trace-<workload>-<seed>.json``.

``--workload all`` runs every workload in turn and prints its metrics.

``resume_drift`` (a rerun over 64 checkpointed partitions, 8 of them
redone, with drift against a baseline from another seed) runs here but is
not in ``BENCHMARK.json``: with one CPU for Ray on a shared 4-vCPU VM its
``rows_per_s`` spread over ten seeds (IQR/median 0.20 to 0.26) exceeded the
bound. Its layers (final merge, drift) are still probed in the traced runs
of the other workloads.

This is the repository's benchmark of record. The older ``bench.py`` (nine
query walls summed, 32 CPUs) and its ``--scaling`` suites (2 to 32 CPUs, on
another machine) measure something else and are not comparable with it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import multiprocessing
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".pbw")

FRESH_TURNS, FRESH_SHARDS = 50_000, 16
RESUME_TURNS, RESUME_PARTS, RESUME_REDO = 32_000, 64, 8
BASELINE_TURNS = 10_000
LINEITEM_ROWS, LINEITEM_SHARDS = 100_000, 8
COMPANION_TURNS, COMPANION_SHARDS = 10_000, 4
WARM_ROWS = 500
SETUP_REPS = 2
SETUP_RETRIES = 2
OBJECT_STORE_BYTES = 512 << 20
# run-time directories under WORK, removed when a run ends (the span files
# written next to them stay)
CLEANUP = ("data", "out", "out-companion", "ray", "tmp")


def _log(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def _median(xs):
    return statistics.median(xs) if xs else 0.0


@dataclasses.dataclass
class Call:
    """One measured entry-point call and what it produced."""

    rows: int
    wall: float
    peak_mb: float
    growth_mb: float
    out_ratio: float
    errors: list[str]
    summary: dict | None = None
    scan: dict | None = None
    layers: dict = dataclasses.field(default_factory=dict)


def _timed_call(fn) -> tuple[object, float, float, float]:
    """Run ``fn``; return (result, wall s, driver peak RSS MB, RSS growth
    MB), with the peak reset just before the call."""
    from perfbench import layers
    layers.reset_peak_rss()
    rss0 = layers.rss_mb()
    t0 = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - t0
    return result, wall, layers.peak_rss_mb(), layers.rss_mb() - rss0


class Workload:
    """Inputs, warm-up, measured call and layer probes of one workload."""

    name = ""

    def __init__(self, seed: int, trace: bool, data: str, out: str):
        self.seed, self.trace = seed, trace
        self.data, self.out = data, out
        self.warm_dir = os.path.join(data, "warm")
        self.tracer = None
        self.trace_now = False

    def _write(self, tbl, sub: str, n_shards: int,
               align_key: str | None = None) -> tuple[str, list[str]]:
        from perfbench import inputs
        path = os.path.join(self.data, sub)
        return path, inputs.write_shards(tbl, path, n_shards, align_key)

    def prepare(self) -> None:
        """Write inputs and compute the oracle's expectations."""
        raise NotImplementedError

    def warm(self) -> None:
        """One call of the entry point on a small input."""
        raise NotImplementedError

    def after_setup(self) -> None:
        pass

    def call(self) -> Call:
        raise NotImplementedError


class FreshValidation(Workload):
    """``run_validation`` over a transcript set into an empty directory."""

    turns, n_shards = FRESH_TURNS, FRESH_SHARDS
    align_key = None

    def __init__(self, *args):
        from data_profiler_ray.config import ConstraintConfig, ValidationConfig
        from data_profiler_ray.synthetic import TOOL_REGISTRY
        super().__init__(*args)
        self.cfg = ValidationConfig(
            constraints=ConstraintConfig(tool_registry=TOOL_REGISTRY),
            output_dir=self.out)

    def table(self):
        from perfbench import inputs
        return inputs.clean_transcripts(self.turns, self.seed)

    def prepare(self):
        from perfbench import inputs, oracle
        self.input_dir, self.shards = self._write(
            self.table(), "in", self.n_shards, self.align_key)
        self.in_bytes = sum(os.path.getsize(p) for p in self.shards)
        self._write(inputs.clean_transcripts(WARM_ROWS, self.seed), "warm", 2)
        c = self.cfg.constraints
        self.expected = oracle.transcript_expectations(
            self.input_dir, c.role_domain, c.tool_registry)
        if self.trace:
            self.state_batches = inputs.state_batches(self.seed)

    def _validate(self, input_dir, baseline=None):
        from data_profiler_ray.pipelines.validate import run_validation
        return run_validation(input_dir, self.cfg, baseline_profile=baseline)

    def warm(self):
        shutil.rmtree(self.out, ignore_errors=True)
        self._validate(self.warm_dir)

    def _measure(self, baseline=None, check=None) -> Call:
        from perfbench import layers, oracle
        summary, wall, peak, growth = _timed_call(
            lambda: self._validate(self.input_dir, baseline))
        errors = oracle.check_validation(summary, self.expected)
        if check:
            errors += check(summary)
        scan = layers.scan_output(self.out)
        call = Call(summary["total_rows"], wall, peak, growth,
                    scan["bytes"] / self.in_bytes, errors, summary, scan)
        if self.trace_now:
            call.layers = self._probe(call, baseline)
        return call

    def call(self):
        shutil.rmtree(self.out, ignore_errors=True)
        return self._measure()

    def _probe(self, call: Call, baseline=None) -> dict:
        from perfbench import layers
        tr = self.tracer
        c = self.cfg.constraints
        out = layers.validation_layers(call.summary, call.scan)
        out.update(layers.probe_read(tr, self.shards, [
            c.group_column, c.order_column, c.ts_column, c.role_column,
            c.tool_column]))
        out.update(layers.probe_profile(
            tr, self.shards, self.cfg.profile,
            state_blobs=layers.read_state_blobs(self.out), baseline=baseline))
        out.update(layers.probe_constraints(tr, self.shards, self.cfg))
        out.update(layers.probe_state(tr, self.state_batches))
        return out


class DirtyWhaleFresh(FreshValidation):
    name = "dirty_whale_fresh"

    def table(self):
        from perfbench import inputs
        return inputs.dirty_whale_transcripts(self.turns, self.seed)


class ResumeDrift(FreshValidation):
    """Rerun over checkpointed partitions with ``_DONE`` removed from a few,
    computing drift against a baseline profile from another seed."""

    name = "resume_drift"
    turns, n_shards = RESUME_TURNS, RESUME_PARTS
    # a resumed partition is re-checked alone, so no conversation may span
    # two partitions (the engine's documented partition layout)
    align_key = "conv_id"

    def prepare(self):
        import numpy as np
        from perfbench import inputs
        super().prepare()
        self.baseline_dir, _ = self._write(
            inputs.clean_transcripts(BASELINE_TURNS, self.seed + 7919),
            "baseline", 4)
        self.rng = np.random.default_rng(self.seed)

    def after_setup(self):
        """Baseline profile, then one fresh run whose profile and drift
        every resumed run must reproduce."""
        import ray.data
        from data_profiler_ray.stages.profile import profile_dataset
        from perfbench import oracle
        self.baseline = profile_dataset(ray.data.read_parquet(
            self.baseline_dir), self.cfg.profile)
        shutil.rmtree(self.out, ignore_errors=True)
        ref = self._validate(self.input_dir, self.baseline)
        errors = oracle.check_validation(ref, self.expected)
        if errors:
            raise RuntimeError(f"reference run disagrees with the oracle: "
                               f"{errors}")
        self.ref_profile = oracle.canonical_profile(ref["profile"])
        self.ref_drift = json.loads(json.dumps(ref["drift"]))

    def _check(self, summary) -> list[str]:
        from perfbench import oracle
        errors = []
        if summary["parts_recomputed"] != RESUME_REDO:
            errors.append(f"parts_recomputed {summary['parts_recomputed']}")
        errors += oracle.diff_profiles(
            oracle.canonical_profile(summary["profile"]), self.ref_profile)[:5]
        errors += oracle.diff_json(json.loads(json.dumps(summary["drift"])),
                                   self.ref_drift, "drift")[:5]
        return errors

    def call(self):
        for i in self.rng.choice(len(self.shards), size=RESUME_REDO,
                                 replace=False):
            part = os.path.splitext(os.path.basename(self.shards[i]))[0]
            os.remove(os.path.join(self.out, "parts", part, "_DONE"))
        return self._measure(self.baseline, check=self._check)


class Companion(FreshValidation):
    """Small clean transcript set for the validation layers' probes in a
    workload whose own input has no transcripts."""

    name = "companion"
    turns, n_shards = COMPANION_TURNS, COMPANION_SHARDS


class ProfileLineitem(Workload):
    """``profile_dataset`` over a TPC-H-shaped lineitem table."""

    name = "profile_lineitem"

    def __init__(self, *args):
        from data_profiler_ray.config import ProfileConfig
        super().__init__(*args)
        self.cfg = ProfileConfig(title="lineitem")

    def prepare(self):
        from perfbench import inputs, oracle
        self.input_dir, self.shards = self._write(
            inputs.lineitem(LINEITEM_ROWS, self.seed), "in", LINEITEM_SHARDS)
        self.in_bytes = sum(os.path.getsize(p) for p in self.shards)
        self._write(inputs.lineitem(WARM_ROWS, self.seed), "warm", 2)
        self.expected = oracle.table_expectations(self.input_dir)
        if self.trace:
            self.companion = Companion(
                self.seed, True, os.path.join(self.data, "companion"),
                self.out + "-companion")
            self.companion.prepare()

    def _profile(self, input_dir):
        import ray.data
        from data_profiler_ray.stages.profile import profile_dataset
        return profile_dataset(ray.data.read_parquet(input_dir), self.cfg)

    def warm(self):
        self._profile(self.warm_dir)

    def call(self):
        from perfbench import oracle
        shutil.rmtree(self.out, ignore_errors=True)
        os.makedirs(self.out)
        prof, wall, peak, growth = _timed_call(
            lambda: self._profile(self.input_dir))
        path = os.path.join(self.out, "profile.json")
        with open(path, "w") as f:
            json.dump(prof, f, indent=2, default=str)
        call = Call(prof["table"]["num_rows"], wall, peak, growth,
                    os.path.getsize(path) / self.in_bytes,
                    oracle.check_profile(prof, self.expected))
        if self.trace_now:
            call.layers = self._probe(call)
        return call

    def _probe(self, call: Call) -> dict:
        from perfbench import layers
        tr, comp = self.tracer, self.companion
        comp.tracer = tr
        with tr.span("companion.run_validation"):
            vcall = comp.call()
        call.errors += [f"companion: {e}" for e in vcall.errors]
        out = layers.validation_layers(vcall.summary, vcall.scan)
        out.update(layers.probe_read(tr, self.shards,
                                     ["l_orderkey", "l_shipdate"]))
        out.update(layers.probe_profile(tr, self.shards, self.cfg))
        out.update(layers.probe_constraints(tr, comp.shards, comp.cfg))
        out.update(layers.probe_state(tr, comp.state_batches))
        return out


WORKLOADS = {w.name: w for w in (DirtyWhaleFresh, ResumeDrift,
                                 ProfileLineitem)}


def become_subreaper() -> None:
    """Make this process adopt its orphaned descendants. Ray's daemons and
    workers outlive the session process that started them when it dies,
    and those a shut-down session leaves behind are not waited for; as
    orphans they would otherwise go to init, beyond the benchmark's reach."""
    import ctypes
    pr_set_child_subreaper = 36
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    libc.prctl.restype = ctypes.c_int
    if libc.prctl(pr_set_child_subreaper, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def _children() -> list[int]:
    me, pids = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # the fields after the parenthesised command are state, ppid, ...
        if int(stat.rpartition(")")[2].split()[1]) == me:
            pids.append(int(entry))
    return pids


def reap_all(grace_s: float = 5.0, limit_s: float = 60.0) -> None:
    """Stop every child and adopted descendant and wait until each has
    ended: SIGTERM first, SIGKILL after ``grace_s``."""
    t0 = time.monotonic()
    while True:
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            return
        elapsed = time.monotonic() - t0
        if elapsed > limit_s:
            _log(f"processes still running: {_children()}")
            return
        sig = signal.SIGTERM if elapsed < grace_s else signal.SIGKILL
        for pid in _children():
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        time.sleep(0.05)


def init_ray(num_cpus: int) -> None:
    import ray
    # Ray's AF_UNIX socket paths (<temp>/session_<date>_<pid>/sockets/...)
    # must stay under 108 bytes, however deep the checkout is: Ray's
    # processes inherit this working directory and reach the temp
    # directory through it
    os.chdir(WORK)
    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=OBJECT_STORE_BYTES,
             _temp_dir="/proc/self/cwd/ray")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)


def setup_once(wl: Workload, num_cpus: int) -> float:
    """Ray init plus one warm-up call; returns its wall time."""
    t0 = time.perf_counter()
    init_ray(num_cpus)
    wl.warm()
    return time.perf_counter() - t0


def _session(wl: Workload, num_cpus: int, reps: int, seconds: float,
             trace: bool, send) -> None:
    """Child process: set up ``reps`` times (shutting Ray down between
    repetitions), then call the entry point for ``seconds`` seconds in the
    last session. Sends ("setup", s) per set-up, ("call", record) per call,
    then ("spans", list) and ("done", None)."""
    import ray
    from perfbench import layers
    try:
        for rep in range(reps):
            send.send(("setup", setup_once(wl, num_cpus)))
            if rep < reps - 1:
                ray.shutdown()
        wl.after_setup()
        wl.tracer = layers.Tracer()
        t_start = time.perf_counter()
        traced_ok = failed = False
        walls = []
        while True:
            elapsed = time.perf_counter() - t_start
            wl.trace_now = trace and elapsed >= seconds / 2
            wl.tracer.trace_id += 1
            try:
                call = wl.call()
            except Exception:
                traceback.print_exc()
                send.send(("call", {"error": traceback.format_exc()}))
                failed = True
            else:
                if call.errors:
                    print(f"{wl.name}: output mismatch: {call.errors[:5]}",
                          file=sys.stderr)
                failed |= bool(call.errors)
                traced_ok |= wl.trace_now and not call.errors
                walls.append(call.wall)
                send.send(("call", {
                    "rows": call.rows, "wall": call.wall,
                    "peak_mb": call.peak_mb, "growth_mb": call.growth_mb,
                    "out_ratio": call.out_ratio, "errors": call.errors,
                    "layers": call.layers, "traced": wl.trace_now}))
            if (time.perf_counter() - t_start >= seconds
                    and (not trace or traced_ok or failed)):
                break
        _log("calls " + " ".join(f"{w:.2f}s" for w in walls))
        send.send(("spans", wl.tracer.spans))
        send.send(("done", None))
    finally:
        ray.shutdown()


def _in_child(wl: Workload, num_cpus: int, reps: int, seconds: float,
              trace: bool) -> list[tuple[str, object]]:
    """Run ``_session`` in a fresh spawned process; return its messages.
    A process that dies (Ray can abort the driver process on an internal
    check failure) simply stops sending."""
    ctx = multiprocessing.get_context("spawn")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_session,
                        args=(wl, num_cpus, reps, seconds, trace, send))
    child.start()
    send.close()
    msgs = []
    try:
        while True:
            msgs.append(recv.recv())
    except EOFError:
        pass
    except BaseException:
        child.kill()
        raise
    finally:
        recv.close()
        child.join()
        # Ray's processes of the session, adopted once it has ended
        reap_all()
    if child.exitcode:
        _log(f"session process exited with code {child.exitcode}")
    return msgs


def run(wl: Workload, seconds: float, trace: bool) -> dict:
    """Prepare inputs here; set up and measure in a child process. A child
    that dies while setting up is replaced, for the set-ups still missing
    (at most ``SETUP_RETRIES`` times); one that dies later counts as a
    failed call."""
    # nproc, not the visible CPUs: it honours OMP_NUM_THREADS, the CPU
    # budget an environment declares when its machine is shared
    num_cpus = int(subprocess.run(["nproc"], stdout=subprocess.PIPE,
                                  text=True, check=True).stdout)
    # keep every process of the benchmark (the oracle, Ray's daemons and
    # workers) on that many CPUs, so that it measures the program rather
    # than how a shared host schedules more runnable processes than that;
    # the last ones, as device interrupts tend to land on the first
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[-num_cpus:])
    t_prep = time.perf_counter()
    wl.prepare()
    _log(f"prepare {time.perf_counter() - t_prep:.2f}s")

    setups, retries = [], 0
    while True:
        msgs = _in_child(wl, num_cpus, SETUP_REPS - len(setups), seconds,
                         trace)
        setups += [v for k, v in msgs if k == "setup"]
        if len(setups) == SETUP_REPS:
            break
        retries += 1
        if retries > SETUP_RETRIES:
            raise RuntimeError("Ray session failed to set up")
    records = [v for k, v in msgs if k == "call"]
    spans = [s for k, v in msgs if k == "spans" for s in v]
    if ("done", None) not in msgs:
        records.append({"error": "session process died"})
    _log("setup " + " ".join(f"{t:.2f}s" for t in setups)
         + f" ({retries} restarted)")

    ok = [r for r in records if "error" not in r and not r["errors"]]
    attempted, failed = len(records), len(records) - len(ok)
    if trace:
        traced = [r for r in ok if r["traced"]]
        metrics = {key: _median([r["layers"][key] for r in traced])
                   for key in (traced[0]["layers"] if traced else ())}
        metrics["driver.rss_growth_mb"] = _median([r["growth_mb"] for r in ok])
        untraced = [r["wall"] for r in ok if not r["traced"]]
        metrics["trace.overhead_frac"] = (
            _median([r["wall"] for r in traced]) / _median(untraced) - 1
            if traced and untraced else 0.0)
        with open(os.path.join(
                WORK, f"trace-{wl.name}-{wl.seed}.json"), "w") as f:
            json.dump(spans, f)
    else:
        metrics = {
            "rows_per_s": _median([r["rows"] / r["wall"] for r in ok]),
            "setup_s": _median(setups),
            "driver_peak_rss_mb": _median([r["peak_mb"] for r in ok]),
            "out_bytes_per_in_byte": _median([r["out_ratio"] for r in ok]),
            "ok_frac": (attempted - failed) / attempted,
        }
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def run_all(args) -> int:
    """Each workload in its own process; one line per metric."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            print(f"{name}: failed with exit code {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric} {m['value']:.6g} {m['unit']}")
        status |= not result["correct"]
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    # Ray workers import the engine by module path: put the repository on
    # their path, whatever directory the benchmark was started from
    sys.path.insert(0, ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    import data_profiler_ray  # noqa: F401  (fails fast without the engine)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for name in CLEANUP:
        shutil.rmtree(os.path.join(WORK, name), ignore_errors=True)
    # temporary files of this process and of Ray's stay in the checkout
    os.makedirs(os.path.join(WORK, "tmp"))
    os.environ["TMPDIR"] = os.environ["RAY_TMPDIR"] = os.path.join(WORK, "tmp")
    wl = WORKLOADS[args.workload](args.seed, bool(args.trace),
                                  os.path.join(WORK, "data"),
                                  os.path.join(WORK, "out"))
    try:
        result = run(wl, args.seconds, bool(args.trace))
    finally:
        for name in CLEANUP:
            shutil.rmtree(os.path.join(WORK, name), ignore_errors=True)
    units = {m["name"]: m["unit"] for m in
             spec["per_layer" if args.trace else "end_to_end"]}
    missing = set(units) - set(result["metrics"])
    if missing:
        print(f"metrics not measured: {sorted(missing)}", file=sys.stderr)
        return 1
    result["metrics"] = {k: {"value": result["metrics"][k], "unit": u}
                         for k, u in units.items()}
    print(json.dumps(result), flush=True)
    return 0


def _terminate(signum, frame):
    sys.exit(128 + signum)


if __name__ == "__main__":
    become_subreaper()
    # a terminated benchmark still stops what it started
    signal.signal(signal.SIGTERM, _terminate)
    try:
        status = main()
    finally:
        reap_all()
    sys.exit(status)
