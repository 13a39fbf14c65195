"""flowtree benchmark: one workload, one seed, every metric by name.

    python3 perfbench/run.py --workload {sweep,dyadic,pointwise,oracles,all}
                             --seed N --seconds S --trace {0,1}

Run from the repository root; the program is imported from ``src/``.
Each body runs in a fresh interpreter (cold caches, as a command-line
user pays), started from this one process, one at a time.

``--trace 0`` measures set-up (median of several fresh ``import
flowtree`` runs) and then repeats the body until ``--seconds`` of body
time have passed, at least once, and reports the end-to-end metrics as
medians over the repeats. Times are seconds at the reference machine
speed: the body's interpreter work is scaled by a speed probe taken in
the same process while it runs (see ``speed.py``), because the raw times
of identical work on a shared box drift by up to 2x. The raw times are
printed alongside. ``--trace 1`` runs the body once untraced and once
traced, both under the speed probe, and reports the per-layer metrics,
the tracing overhead, the share of the untraced ``wall_s`` that the
traced top-level spans cover, and the untraced raw wall time. The last
line of standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it say the same for a
reader, with the failed fraction, the BLAS thread count and the library
versions.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("sweep", "dyadic", "pointwise", "oracles")

SETUP_REPS = 5
CHILD_TIMEOUT_S = 170
NPROC = len(os.sched_getaffinity(0))
#: BLAS threads for the dense eigensolver: the box's cores, at most two
BLAS_THREADS = max(1, min(2, NPROC))

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
LAYER_UNITS = {"calls": "count", "self_s": "s", "k_stop_sum": "count",
               "k_stop_max": "count", "cert_max": "1", "distinct_frac": "ratio",
               "scans_per_call": "count", "min_margin": "1", "vertices": "count",
               "quad_error_max": "1", "dense_mb": "MiB-computed",
               "walks_per_s": "1/s", "overhead_frac": "ratio", "cpu_s": "s",
               "wall_raw_s": "s", "top_span_frac": "ratio"}


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("PYTHONPATH", None)
    return env


def run_child(cmd: list[str]) -> subprocess.CompletedProcess:
    """Run one child to completion; a timeout kills it and waits for it."""
    return subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S, check=True)


def setup_seconds() -> tuple[float, float]:
    """Median time of a fresh interpreter up to ``import flowtree``.

    Returns (raw, speed-scaled) seconds; the import runs under the speed
    probe, the interpreter's start and exit around it count raw.
    """
    code = (f"import sys; sys.path.insert(0, {HERE!r}); from speed import SpeedProbe\n"
            f"with SpeedProbe() as sp:\n    sys.path.insert(0, {SRC!r}); import flowtree\n"
            "print(sp.raw_s, sp.scaled_s, sum(sp.probes))")
    run_child([sys.executable, "-c", code])  # bytecode compiled once, not timed
    raws, scaled = [], []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        proc = run_child([sys.executable, "-c", code])
        total = time.perf_counter() - t0
        raw_in, scaled_in, probing = map(float, proc.stdout.split())
        outside = total - raw_in - probing
        raws.append(outside + raw_in)
        scaled.append(outside + scaled_in)
    return statistics.median(raws), statistics.median(scaled)


def body(workload: str, seed: int, trace: bool) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "body.py"),
           "--workload", workload, "--seed", str(seed)]
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        cmd += ["--trace-out", os.path.join(OUT_DIR, f"spans-{workload}-{seed}.json")]
    proc = run_child(cmd)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; return the result object and the unscaled times."""
    raw = {}
    if trace:
        plain = body(workload, seed, False)
        traced = body(workload, seed, True)
        reps = [plain, traced]
        metrics = dict(traced["per_layer"])
        metrics["trace.top_span_frac"] = traced["top_span_s"] / plain["wall_s"]
        metrics["trace.overhead_frac"] = (traced["wall_s"] - plain["wall_s"]) / plain["wall_s"]
        metrics["process.cpu_s"] = plain["cpu_s"]
        metrics["process.wall_raw_s"] = plain["wall_raw_s"]
    else:
        setup_raw, setup = setup_seconds()
        reps = []
        while not reps or sum(r["wall_raw_s"] for r in reps) < seconds:
            reps.append(body(workload, seed, False))
        metrics = {
            "wall_s": statistics.median(r["wall_s"] for r in reps),
            "setup_s": setup,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        }
        raw = {"wall_raw_s": statistics.median(r["wall_raw_s"] for r in reps),
               "setup_raw_s": setup_raw}
    units = E2E_UNITS if not trace else {
        k: LAYER_UNITS[k.rsplit(".", 1)[1]] for k in metrics}
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    info = reps[0]
    print(f"workload={workload} seed={seed} trace={int(trace)} repeats={len(reps)} "
          f"nproc={NPROC} openblas_threads={info['openblas_threads']} "
          f"numpy={info['numpy']} scipy={info['scipy']}")
    if raw:
        print(f"  raw, unscaled: wall {[round(r['wall_raw_s'], 3) for r in reps]} s, "
              f"setup {setup_raw:.4f} s; native part {[round(r['native_s'], 3) for r in reps]} s; "
              f"speed {[round(r['speed'], 3) for r in reps]}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(f"  failed_frac = {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for r in reps:
        for f in r["failures"]:
            print(f"  FAILED: {f}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    return result, raw


def main() -> int:
    ap = argparse.ArgumentParser(description="flowtree benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "flowtree", "__init__.py")):
        print(f"error: no flowtree sources under {SRC}",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        result, _ = measure(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
