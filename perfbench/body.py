"""One workload body in a fresh interpreter, so every lru_cache starts cold.

    python3 perfbench/body.py --workload NAME --seed N [--trace-out PATH]

Builds the inputs from the seed, times the body under the speed probe
(traced when ``--trace-out`` is given; the spans, in scaled seconds, go
to that path), judges the outputs outside the timed region and prints one
JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def openblas_threads() -> int:
    """Threads numpy's bundled OpenBLAS will use, or -1 if not found."""
    import numpy

    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return int(getattr(lib, sym)())
    return -1


def run(workload: str, seed: int, trace_out: str | None) -> dict:
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import flowtree

    if not os.path.abspath(flowtree.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"flowtree imported from {flowtree.__file__}, not {SRC}")
    import numpy
    import scipy

    import workloads
    from speed import SpeedProbe

    make_inputs, body, checks = workloads.SPECS[workload]
    inp = make_inputs(seed)
    tracer = None
    if trace_out:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    error = None
    results: list[tuple[str, bool]] = []
    cpu0 = time.process_time()
    with SpeedProbe() as probe:
        try:
            out = body(inp)
        except Exception as exc:  # counted as a failed operation, not a crash
            error = f"{type(exc).__name__}: {exc}"
    cpu = time.process_time() - cpu0
    if tracer:
        tracer.uninstall()
        tracer.retime(probe.to_scaled)

    if error is None:
        try:
            results = checks(inp, out)
        except Exception as exc:
            error = f"check raised {type(exc).__name__}: {exc}"
    failures = [name for name, ok in results if not ok] if error is None else [error]
    attempted = len(results) if error is None else 1
    report = {
        "workload": workload, "seed": seed,
        "wall_s": probe.scaled_s, "wall_raw_s": probe.raw_s, "cpu_s": cpu,
        "native_s": probe.native_s, "speed": probe.speed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted, "failed": len(failures), "failures": failures[:10],
        "openblas_threads": openblas_threads(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
    }
    if tracer:
        report["per_layer"] = tracer.metrics()
        report["top_span_s"] = tracer.top_span_s()
        tracer.dump(trace_out)
    return report


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args()
    print(json.dumps(run(args.workload, args.seed, args.trace_out)))


if __name__ == "__main__":
    main()
