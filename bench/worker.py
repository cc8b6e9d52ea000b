"""One benchmark run of one workload, in its own fresh interpreter.

Started by run.py as `python3 bench/worker.py --workload W --seed N
--seconds S --trace 0|1`. It imports gmacfb from the checkout's `src/`,
drives `gmacfb.cli.main(argv)` in a closed loop (one caller, one thread,
each operation waits for the previous one) with stdout and stderr
captured, checks every operation's output, and prints one JSON object
with the raw wall times, the failure counts, its own peak RSS and, when
traced, the per-layer metrics.

The correctness checks recompute what they compare against from closed
forms in this file; they never call the library they check.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import random
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

import layers
from layers import CRITERIA

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SIM_SYMBOLS = 10_000_000
SIM = {"sigma2": 1.0, "rho": 0.5, "p": 1.0, "n": 1.0}
Z_LIMIT = 4.0
# The reported stderr is a sample estimate; at 10^7 symbols it lies within
# about 0.1 % of the closed form, so 5 % only admits a wrong estimate.
STDERR_RTOL = 0.05
GRID_SIZE = 100
SWEEP_HEADER = "rho,snr,threshold_snr,below_threshold,lower_bound,rho_star,d_uncoded,dstar_or_blank"
# Criteria that fail on the seed-stage program: their failure is the
# program's result, not a failed operation. Any other failing criterion is.
KNOWN_RED = frozenset({"tightness-below-threshold"})
# The library's relative slack for "at or below the SNR threshold".
THRESHOLD_RTOL = 1e-12

# Minimum operations per timed phase, so that every median has samples
# even when one operation outlasts --seconds.
MIN_OPS = 3
MIN_OPS_TRACE_PHASE = 2


class CheckFailed(Exception):
    """An operation's output is wrong."""


# -- correctness checks ------------------------------------------------------


def uncoded_distortion(sigma2: float, rho: float, p: float, n0: float) -> float:
    """Closed form of uncoded transmission with conditional-mean decoding."""
    return sigma2 * (p * (1.0 - rho * rho) + n0) / (2.0 * p * (1.0 + rho) + n0)


def closed_form_stderr(d_u: float, symbols: int) -> float:
    """Standard error of a mean of `symbols` squared errors. Each error is
    Gaussian with variance D_u, so its square is D_u times a chi-square
    with one degree of freedom, of variance 2 D_u^2."""
    return d_u * math.sqrt(2.0 / symbols)


def check_simulate(code: int, stdout: str) -> None:
    if code != 0:
        raise CheckFailed(f"simulate exited {code}")
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"simulate printed no JSON: {exc}") from exc
    if report.get("total_symbols") != SIM_SYMBOLS:
        raise CheckFailed(f"total_symbols {report.get('total_symbols')} != {SIM_SYMBOLS}")
    d_u = uncoded_distortion(SIM["sigma2"], SIM["rho"], SIM["p"], SIM["n"])
    se_expected = closed_form_stderr(d_u, SIM_SYMBOLS)
    for comp in ("1", "2"):
        d_hat, se = report[f"d{comp}_hat"], report[f"stderr_d{comp}"]
        if not (math.isfinite(d_hat) and math.isfinite(se)):
            raise CheckFailed(f"d{comp}_hat={d_hat} stderr={se} unusable")
        if abs(se / se_expected - 1.0) > STDERR_RTOL:
            raise CheckFailed(f"stderr_d{comp} {se!r} != closed form {se_expected!r}")
        z = (d_hat - d_u) / se_expected
        if abs(z) > Z_LIMIT:
            raise CheckFailed(f"|z{comp}| = {abs(z):.2f} > {Z_LIMIT} against D_u = {d_u}")


def sweep_grid(seed: int) -> tuple[list[float], list[float]]:
    """100 rho values uniform on [0, 0.99) and 100 SNR values log-uniform
    on [1e-3, 1e2], one draw per equal-width stratum so that the share of
    crossing and below-threshold points varies little between seeds."""
    rng = random.Random(seed)
    rho = [0.99 * (i + rng.random()) / GRID_SIZE for i in range(GRID_SIZE)]
    snr = [10.0 ** (-3.0 + 5.0 * (j + rng.random()) / GRID_SIZE) for j in range(GRID_SIZE)]
    return rho, snr


def check_sweep(code: int, csv_text: str, rho_grid: list[float], snr_grid: list[float]) -> None:
    if code != 0:
        raise CheckFailed(f"sweep exited {code}")
    lines = csv_text.split("\n")
    if lines[0] != SWEEP_HEADER:
        raise CheckFailed(f"header {lines[0]!r}")
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    if len(rows) != len(rho_grid) * len(snr_grid):
        raise CheckFailed(f"{len(rows)} rows, expected {len(rho_grid) * len(snr_grid)}")
    points = sorted((float(r["rho"]), float(r["snr"])) for r in rows)
    if points != sorted((r, s) for r in rho_grid for s in snr_grid):
        raise CheckFailed("rows do not cover the requested grid")
    for i, row in enumerate(rows, start=1):
        rho, snr = float(row["rho"]), float(row["snr"])
        lower, d_u = float(row["lower_bound"]), float(row["d_uncoded"])
        rho_star = float(row["rho_star"])
        where = f"row {i} (rho={rho!r}, snr={snr!r})"
        if not 0.0 <= rho_star <= 1.0:
            raise CheckFailed(f"{where}: rho_star {rho_star} outside [0, 1]")
        if not lower <= d_u * (1.0 + 1e-12):
            raise CheckFailed(f"{where}: lower_bound {lower!r} > d_uncoded {d_u!r}")
        expect_du = uncoded_distortion(1.0, rho, snr, 1.0)
        if abs(d_u - expect_du) > 1e-12 * expect_du:
            raise CheckFailed(f"{where}: d_uncoded {d_u!r} != closed form {expect_du!r}")
        threshold = rho / (1.0 - rho * rho)
        below = row["below_threshold"]
        if below not in ("true", "false"):
            raise CheckFailed(f"{where}: below_threshold {below!r}")
        # Within twice the slack of the threshold either answer is right.
        if abs(snr - threshold) > 2.0 * THRESHOLD_RTOL * threshold:
            if (below == "true") != (snr <= threshold):
                raise CheckFailed(f"{where}: below_threshold {below} with threshold {threshold!r}")
        dstar = row["dstar_or_blank"]
        if below == "true" and (dstar == "" or float(dstar) != d_u):
            raise CheckFailed(f"{where}: dstar {dstar!r} != d_uncoded {d_u!r} below threshold")
        if below == "false" and dstar != "":
            raise CheckFailed(f"{where}: dstar {dstar!r} filled above threshold")


def check_verify(code: int, stdout: str) -> int:
    """Returns how many criteria failed; raises when the set of criteria
    or the exit code is wrong, or a criterion outside KNOWN_RED failed."""
    try:
        results = json.loads(stdout)
        names = [r["name"] for r in results]
        failed = [r["name"] for r in results if not r["passed"]]
    except (json.JSONDecodeError, TypeError, KeyError) as exc:
        raise CheckFailed(f"verify printed no criteria list: {exc}") from exc
    if sorted(names) != sorted(CRITERIA):
        raise CheckFailed(f"criteria {names} != {list(CRITERIA)}")
    if code != (1 if failed else 0):
        raise CheckFailed(f"verify exited {code} with {len(failed)} failed criteria")
    regressed = sorted(set(failed) - KNOWN_RED)
    if regressed:
        raise CheckFailed(f"criteria failed: {regressed}")
    return len(failed)


# -- workloads -----------------------------------------------------------------


class Workload:
    """argv for one operation and the check of its output."""

    criteria_failed = 0
    criteria_run = 0

    def __init__(self, seed: int, workdir: Path) -> None:
        """Inputs come from seed; files go under workdir."""

    def before(self) -> None:
        """Untimed preparation for the next operation."""

    def check(self, code: int, stdout: str) -> None:
        raise NotImplementedError


class SimulateWorkload(Workload):
    def __init__(self, seed: int, workdir: Path) -> None:
        self.argv = ["simulate"]
        for key, value in SIM.items():
            self.argv += [f"--{key}", repr(value)]
        self.argv += ["--symbols", str(SIM_SYMBOLS), "--seed", str(seed), "--json"]

    def check(self, code: int, stdout: str) -> None:
        check_simulate(code, stdout)


class SweepWorkload(Workload):
    def __init__(self, seed: int, workdir: Path) -> None:
        self.rho, self.snr = sweep_grid(seed)
        self.out = workdir / "sweep.csv"
        self.argv = [
            "sweep",
            "--rho-grid", ",".join(map(repr, self.rho)),
            "--snr-grid", ",".join(map(repr, self.snr)),
            "--out", str(self.out),
        ]

    def before(self) -> None:
        self.out.unlink(missing_ok=True)

    def check(self, code: int, stdout: str) -> None:
        if not self.out.exists():
            raise CheckFailed(f"sweep exited {code} without writing {self.out.name}")
        check_sweep(code, self.out.read_text(encoding="utf-8"), self.rho, self.snr)


class VerifyWorkload(Workload):
    # Inputs are seeded inside the program (7000+i, 424242); the bench seed
    # does not reach them.
    argv = ["verify", "--full", "--json"]

    def check(self, code: int, stdout: str) -> None:
        self.criteria_failed += check_verify(code, stdout)
        self.criteria_run += len(CRITERIA)


WORKLOADS = {
    "simulate-1e7": SimulateWorkload,
    "sweep-100x100": SweepWorkload,
    "verify-full": VerifyWorkload,
}


# -- closed loop -----------------------------------------------------------------


class Loop:
    def __init__(self, cli, workload: Workload) -> None:
        self.cli = cli
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self) -> float:
        """One checked operation; returns its wall time."""
        self.workload.before()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            code = self.cli.main(list(self.workload.argv))
            wall = time.perf_counter() - start
        self.attempted += 1
        try:
            self.workload.check(code, out.getvalue())
        except CheckFailed as exc:
            self.failed += 1
            self.problems.append(str(exc))
        return wall

    def phase(self, deadline: float, min_ops: int, after_op=None) -> list[float]:
        """Run operations until the next would likely end past deadline."""
        walls: list[float] = []
        while len(walls) < min_ops or time.perf_counter() + statistics.median(walls) <= deadline:
            walls.append(self.op())
            if after_op is not None:
                after_op()
        return walls


def import_gmacfb():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "gmacfb" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no gmacfb package under {SRC}")
    sys.path.insert(0, str(SRC))
    import gmacfb
    import gmacfb.cli

    if Path(gmacfb.__file__).resolve().parent != (SRC / "gmacfb").resolve():
        raise SystemExit(f"benchmark: gmacfb imported from {gmacfb.__file__}, not {SRC}")
    return gmacfb.cli


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    cli = import_gmacfb()
    import numpy

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-work-") as tmp:
        # verify's determinism criterion makes temporary files; keep them
        # inside the checkout too.
        tempfile.tempdir = tmp
        loop = Loop(cli, WORKLOADS[args.workload](args.seed, Path(tmp)))
        start = time.perf_counter()
        result: dict = {"numpy": numpy.__version__}
        if not args.trace:
            result["walls"] = loop.phase(start + args.seconds, MIN_OPS)
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        else:
            untraced = loop.phase(start + args.seconds / 2, MIN_OPS_TRACE_PHASE)
            tracer = layers.Tracer()
            tracer.install()
            ops: list = []
            try:
                # One untimed operation counts the curve evaluations; the
                # counters would slow every minimax call of the timed ones.
                tracer.install_curve_counters()
                loop.op()
                counted = tracer.take_op()
                tracer.uninstall_curve_counters()
                traced = loop.phase(
                    start + args.seconds, MIN_OPS_TRACE_PHASE, lambda: ops.append(tracer.take_op())
                )
            finally:
                tracer.uninstall()
            overhead = 100.0 * (statistics.median(traced) / statistics.median(untraced) - 1.0)
            result.update(
                walls=untraced,
                traced_walls=traced,
                per_layer=layers.per_layer_metrics(ops, counted, overhead),
                per_call_samples=layers.pooled_call_counts(ops),
                absent=tracer.absent,
            )
    result.update(
        attempted=loop.attempted,
        failed=loop.failed,
        problems=loop.problems[:5],
        criteria_run=loop.workload.criteria_run,
        criteria_failed=loop.workload.criteria_failed,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
