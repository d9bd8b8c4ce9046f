"""Window-controlled input-size amortization experiment for the scaling
criterion (BASELINE.md, north rule: ≥0.8 efficiency N → 4N nodes).

The sandbox substitute measures 2→8-cpu efficiency at SCALING_TURNS=8M,
where the engine's fixed coordination cost F (sort planning, stage ramp,
driver checkpoint writes; solved from clean pairs: F ≈ 7 s) is still a
visible fraction of the 8-cpu wall (~31 s clean). The criterion itself is
stated at 10^12 turns, where F is noise. This experiment measures the
TREND the extrapolation relies on: run the SAME job at 8M and 16M turns
with the 2-cpu / 8-cpu sides INTERLEAVED per round — 2@8M, 8@8M, 2@16M,
8@16M — so any host drift hits both input sizes alike, and report
per-round efficiency at each size. Amortization model prediction with
F = 7 s and compute scaling e_c:

    eff(T) = (F + C_2(T)) / (4 * (F + C_8(T)))      C ∝ turns

i.e. doubling the input moves measured efficiency toward e_c. A same-window
rise from 8M → 16M is direct evidence the 8M numbers UNDER-state the
at-scale efficiency, with no appeal to clean windows.

16M input layout: the cached 8M seed-42 shards plus two 4M generations at
seeds 43/44 (disjoint ``conv-{seed}-…`` id namespaces, identical violation
knobs — the per-row violation RATES are scale-invariant, so the 16M table
is distributionally the 8M table at twice the cardinality). Shards are
symlinked under one dir with unique filenames (the part column is the
filename).

Usage:
    python tools/bench_amortization.py            # driver (prep + rounds)
    python tools/bench_amortization.py --worker CPUS DIR   # internal
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

KNOBS = dict(dup_frac=0.001, bad_role_frac=0.001, dangling_tool_frac=0.05)
ROUNDS = int(os.environ.get("AMORT_ROUNDS", "2"))
COMBINED_DIR = "/tmp/dpr_transcripts/amort_16m"


def _worker(cpus: int, input_dir: str) -> None:
    """Fresh-process timed run: warm pool + page cache, tmpfs output,
    then ONE timed validation pass (same protocol as bench.py's
    scaling_worker, parameterized by input dir instead of turn count)."""
    import bench
    bench._init_ray(cpus)
    bench._warmup()
    bench._warm_page_cache(input_dir)
    out_root = "/dev/shm/dpr_amort" if os.path.isdir("/dev/shm") else "/tmp"
    # deep warmup on a small fixture: per-worker first-touch paid pre-timing
    from data_profiler_ray.config import ConstraintConfig, ValidationConfig
    from data_profiler_ray.pipelines.validate import run_validation
    from data_profiler_ray.synthetic import TOOL_REGISTRY, transcripts_path
    warm = transcripts_path(200_000, seed=42, num_shards=16, **KNOBS)
    cfg = ValidationConfig(constraints=ConstraintConfig(
        tool_registry=TOOL_REGISTRY), output_dir=f"{out_root}/warm_{cpus}")
    run_validation(warm, cfg)

    out_dir = f"{out_root}/out_{cpus}"
    shutil.rmtree(out_dir, ignore_errors=True)
    cfg = ValidationConfig(constraints=ConstraintConfig(
        tool_registry=TOOL_REGISTRY), output_dir=out_dir)
    probe = bench._dilution_probe()
    p0 = bench._proc_stat()
    t0 = time.time()
    s = run_validation(input_dir, cfg)
    dt = time.time() - t0
    p1 = bench._proc_stat()
    total_j = max(sum(p1.values()) - sum(p0.values()), 1)
    shutil.rmtree(out_root, ignore_errors=True)
    print("AMORT_RESULT " + json.dumps({
        "cpus": cpus, "rows": s["total_rows"], "seconds": round(dt, 3),
        "turns_per_sec": round(s["total_rows"] / dt, 1),
        "probe_sec": round(probe, 3),
        "steal_frac": round((p1["steal"] - p0["steal"]) / total_j, 4)}))
    import ray
    ray.shutdown()


def _run(cpus: int, input_dir: str) -> dict:
    p = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--worker", str(cpus),
         input_dir],
        capture_output=True, text=True, timeout=3600,
        env={**os.environ, "RAY_GRAFT_CPUS": str(cpus)})
    line = next((l for l in p.stdout.splitlines()
                 if l.startswith("AMORT_RESULT ")), None)
    if line is None:
        raise RuntimeError(f"worker cpus={cpus} dir={input_dir} failed; "
                           f"rc={p.returncode}; stderr: {p.stderr[-1500:]}")
    res = json.loads(line[len("AMORT_RESULT "):])
    print(f"[amort] cpus={cpus} turns={res['rows']}: {res['seconds']}s "
          f"steal={res['steal_frac']:.3f} probe={res['probe_sec']:.2f}",
          file=sys.stderr)
    return res


def _gen_4m(seed: int) -> str:
    from data_profiler_ray.synthetic import transcripts_path
    return transcripts_path(4_000_000, seed=seed, num_shards=32, **KNOBS)


def _prepare_inputs() -> tuple[str, str]:
    """Return (dir_8m, dir_16m); generation excluded from all timing."""
    from data_profiler_ray.synthetic import transcripts_path
    d8 = transcripts_path(8_000_000, seed=42, num_shards=64, **KNOBS)
    # the two extra 4M generations run in parallel processes (the generator
    # is single-threaded; determinism is per-(seed, n, knobs) file cache)
    import multiprocessing as mp
    with mp.Pool(2) as pool:
        extra = pool.map(_gen_4m, [43, 44])
    import glob
    os.makedirs(COMBINED_DIR, exist_ok=True)
    for tag, src in [("s42", d8), (f"s43", extra[0]), (f"s44", extra[1])]:
        for f in sorted(glob.glob(os.path.join(src, "*.parquet"))):
            dst = os.path.join(COMBINED_DIR, f"{tag}-{os.path.basename(f)}")
            if not os.path.exists(dst):
                if os.path.lexists(dst):  # a link whose target is gone
                    os.unlink(dst)
                os.symlink(f, dst)
    # settle async writeback of anything just generated so the first timed
    # run isn't fighting this box's ~8 MB/s disk flush
    subprocess.run(["sync"], check=False)
    time.sleep(5)
    return d8, COMBINED_DIR


def main() -> None:
    d8, d16 = _prepare_inputs()
    rounds = []
    for r in range(ROUNDS):
        row = {}
        for label, d in (("8m", d8), ("16m", d16)):
            r2 = _run(2, d)
            r8 = _run(8, d)
            eff = r2["seconds"] / r8["seconds"] / 4.0
            row[label] = {"t2": r2["seconds"], "t8": r8["seconds"],
                          "steal2": r2["steal_frac"],
                          "steal8": r8["steal_frac"],
                          "probe2": r2["probe_sec"],
                          "probe8": r8["probe_sec"],
                          "efficiency": round(eff, 3)}
            print(f"[amort] round {r} {label}: eff={eff:.3f}",
                  file=sys.stderr)
        row["delta"] = round(row["16m"]["efficiency"]
                             - row["8m"]["efficiency"], 3)
        rounds.append(row)
    out = {
        "metric": "2→8-cpu efficiency vs input size (same window, "
                  "interleaved)",
        "rounds": rounds,
        "deltas": [r["delta"] for r in rounds],
        "note": "positive delta ⇒ fixed-cost amortization: measured 8M "
                "efficiency understates at-scale efficiency (criterion is "
                "stated at 10^12 turns)",
    }
    print(json.dumps(out))


if __name__ == "__main__":
    if "--worker" in sys.argv:
        i = sys.argv.index("--worker")
        _worker(int(sys.argv[i + 1]), sys.argv[i + 2])
    else:
        main()
