"""Measure every workload over several seeds and write the baseline file.

    python3 perfbench/baseline.py

For each workload: ``SEEDS`` untraced runs (seeds 1..SEEDS) give the
median and, where the values vary, the quartiles and quartile spread
(IQR / median) of every end-to-end metric and of the unscaled times;
``TRACED`` traced runs on seed 1 give the per-layer metrics and show
whether their counts repeat exactly. Metrics that read 0 in every run of
a workload are left out. Runs one workload at a time.
"""

from __future__ import annotations

import json
import os
import platform
import statistics

import numpy
import scipy

from run import BLAS_THREADS, HERE, NPROC, ROOT, WORKLOADS, measure

SEEDS = 10
TRACED = 2
OUT = os.path.join(HERE, "baseline.json")

#: per-layer metrics that are work counts, hence must repeat exactly
COUNT_SUFFIXES = (".calls", ".k_stop_sum", ".k_stop_max", ".vertices",
                  ".scans_per_call", ".distinct_frac")


def summary(values: list[float], unit: str) -> dict:
    med = statistics.median(values)
    out = {"median": med, "unit": unit}
    if min(values) != max(values):
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, iqr_over_median=(q3 - q1) / med)
    return out


def summaries(runs: list[dict], units: dict) -> dict:
    """Summary of each metric over ``runs``; metrics always 0 are dropped."""
    return {m: summary([r[m] for r in runs], units[m])
            for m in runs[0] if any(r[m] for r in runs)}


def main() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    result: dict = {
        "run_seconds": seconds, "seeds": SEEDS, "traced_runs": TRACED,
        "environment": {"python": platform.python_version(), "numpy": numpy.__version__,
                        "scipy": scipy.__version__, "nproc": NPROC,
                        "openblas_threads": BLAS_THREADS},
        "workloads": {}}
    for w in WORKLOADS:
        runs, raws = [], []
        for seed in range(1, SEEDS + 1):
            res, raw = measure(w, seed, seconds, False)
            runs.append(res)
            raws.append(raw)
        e2e = [{m: v["value"] for m, v in r["metrics"].items()} for r in runs]
        entry = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": summaries(e2e, {m: v["unit"] for m, v in runs[0]["metrics"].items()}),
            "unscaled": summaries(raws, {m: "s" for m in raws[0]}),
        }
        traced = [measure(w, 1, seconds, True)[0] for _ in range(TRACED)]
        layer = [{m: v["value"] for m, v in t["metrics"].items()} for t in traced]
        entry["per_layer_seed1"] = summaries(
            layer, {m: v["unit"] for m, v in traced[0]["metrics"].items()})
        entry["counts_repeat_exactly"] = all(
            run[m] == layer[0][m] for run in layer for m in run if m.endswith(COUNT_SUFFIXES))
        result["workloads"][w] = entry
    with open(OUT, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
