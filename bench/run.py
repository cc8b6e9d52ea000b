"""gmacfb benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Workloads (see README.md):
simulate-1e7, sweep-100x100 and verify-full.

With --trace 0 the result carries the end-to-end metrics: setup_s (median
time for a fresh interpreter to import gmacfb and build the CLI parser),
wall_s (median wall time of one operation) and peak_rss_mb (peak RSS of
the worker process that ran the workload). With --trace 1 it carries the
per-layer metrics of an outside-in traced run, plus the tracing overhead.

Each run starts the workload in a fresh interpreter (bench/worker.py), so
its peak RSS belongs to that workload alone. A line starting with
`{"info":` comes before the result: the environment, the sample counts,
the failure ratio and throughput, and any traced function that no longer
exists. The last line of stdout is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import layers
import worker

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOADS = tuple(worker.WORKLOADS)
SETUP_SAMPLES = 15
# Everything, set-up included, must end well inside three minutes.
DEADLINE_S = 170.0

SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import gmacfb, gmacfb.cli; gmacfb.cli.build_parser()"
)

# Computed from the workload dimensions, not measured: the bytes the
# seed-stage program keeps live at once. simulate holds about 14 float64
# arrays per symbol; verify-full's largest step is simulate at 10^6
# symbols; the sweep holds 10^4 rows of 8 values.
WORKING_SET = {
    "simulate-1e7": {"bytes": 14 * 8 * 10_000_000, "basis": "14 float64 arrays x 1e7 symbols (112 B/symbol)"},
    "sweep-100x100": {"bytes": 8 * 8 * 10_000, "basis": "1e4 grid points x 8 float64 columns"},
    "verify-full": {"bytes": 14 * 8 * 1_000_000, "basis": "14 float64 arrays x 1e6 symbols (monte-carlo-agreement)"},
}
SEED_NOTE = {
    "verify-full": "inputs seeded inside the program (7000+i, 424242); the bench seed does not apply",
}

# Work per operation, printed as throughput beside the metrics.
THROUGHPUT = {
    "simulate-1e7": ("sim_msym_per_s", worker.SIM_SYMBOLS / 1e6, "Msym/s"),
    "sweep-100x100": ("sweep_points_per_s", worker.GRID_SIZE ** 2, "1/s"),
}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def environment(numpy_version: str) -> dict:
    names = {"LEVEL2_CACHE_SIZE": "l2_bytes", "LEVEL3_CACHE_SIZE": "l3_bytes"}
    try:
        out = subprocess.run(["getconf", "-a"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.TimeoutExpired):
        out = ""
    caches = {}
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] in names:
            caches[names[parts[0]]] = int(parts[1])
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        **caches,
        "ram_bytes": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"),
        "machine": platform.machine(),
    }


def measure_setup(samples: int, deadline: float) -> list[float]:
    """Wall time of fresh interpreters that import gmacfb and build the
    parser. One untimed start first, so bytecode caches are written.

    The deadline is enforced by a timer that kills the child, because
    Popen.wait(timeout=...) polls in steps of up to 50 ms, which would
    quantize the measurement.
    """
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC)]
    times = []
    for i in range(samples + 1):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT)
        killer = threading.Timer(max(deadline - start, 1.0), proc.kill)
        killer.start()
        try:
            code = proc.wait()
        finally:
            killer.cancel()
        elapsed = time.perf_counter() - start
        if code != 0:
            raise SystemExit(f"benchmark: set-up interpreter exited {code}")
        if i:
            times.append(elapsed)
    return times


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "gmacfb" / "__init__.py").is_file():
        print(f"benchmark: no gmacfb package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + DEADLINE_S
    setup = [] if args.trace else measure_setup(SETUP_SAMPLES, deadline)
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(deadline - time.perf_counter(), 1.0),
        )
    except subprocess.TimeoutExpired:
        print(f"benchmark: worker stopped after {DEADLINE_S:.0f} s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"benchmark: worker exited {proc.returncode}", file=sys.stderr)
        return 1
    res = json.loads(proc.stdout.strip().splitlines()[-1])

    wall = statistics.median(res["walls"])
    if args.trace:
        metrics = res["per_layer"]
        units = layers.PER_LAYER
    else:
        metrics = {"setup_s": statistics.median(setup), "wall_s": wall, "peak_rss_mb": res["peak_rss_mb"]}
        units = END_TO_END_UNITS

    if res["criteria_run"]:
        failed_ratio = {"value": res["criteria_failed"] / res["criteria_run"], "unit": "ratio", "of": "criteria"}
    else:
        failed_ratio = {"value": res["failed"] / res["attempted"], "unit": "ratio", "of": "operations"}
    summary = {"failed_ratio": failed_ratio}
    if args.workload in THROUGHPUT:
        name, work, unit = THROUGHPUT[args.workload]
        summary[name] = {"value": work / wall, "unit": unit}
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_note": SEED_NOTE.get(args.workload, "inputs generated from the bench seed"),
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "closed loop, one caller, one thread",
        "env": environment(res["numpy"]),
        "working_set": WORKING_SET[args.workload],
        "samples": {
            "wall_s": len(res["walls"]),
            **({"setup_s": len(setup)} if setup else {}),
            **({"traced_wall_s": len(res["traced_walls"]), "curve_count_ops": 1, **res["per_call_samples"]}
               if args.trace else {}),
        },
        "summary": summary,
        "problems": res["problems"],
        "absent": res.get("absent", []),
    }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
