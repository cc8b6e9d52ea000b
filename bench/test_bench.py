"""Tests of the benchmark itself: python3 -m pytest bench

The end-to-end tests start real runs at --seconds 1 (each still makes at
least three operations), so the whole file takes about a minute.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import run
import worker

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

cli = worker.import_gmacfb()


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=180, check=True,
    ).stdout.strip().splitlines()
    return json.loads(out[-2])["info"], json.loads(out[-1])


def test_names_and_units_are_well_formed():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [w["name"] for w in SPEC["workloads"]] + [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in metrics:
        assert UNIT.fullmatch(metric["unit"]), metric


def test_spec_matches_code():
    workloads = [w["name"] for w in SPEC["workloads"]]
    assert workloads == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layers.PER_LAYER


@pytest.mark.parametrize("workload,trace", [
    ("sweep-100x100", 0), ("sweep-100x100", 1), ("simulate-1e7", 0), ("verify-full", 0),
])
def test_command_prints_every_metric(workload, trace):
    info, result = _run(workload, trace)
    assert info["workload"] == workload
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    (tmp_path / "bench").mkdir()
    for src in BENCH.glob("*.py"):
        (tmp_path / "bench" / src.name).write_bytes(src.read_bytes())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep-100x100",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# -- correctness checks reject corrupted output ------------------------------------


def _sim_report(z: float, stderr_scale: float = 1.0) -> str:
    d_u = worker.uncoded_distortion(1.0, 0.5, 1.0, 1.0)
    se = worker.closed_form_stderr(d_u, worker.SIM_SYMBOLS)
    return json.dumps({
        "d1_hat": d_u + z * se, "d2_hat": d_u - 0.5 * se,
        "stderr_d1": se * stderr_scale, "stderr_d2": se * 1.001,
        "total_symbols": worker.SIM_SYMBOLS,
    })


def test_simulate_check():
    worker.check_simulate(0, _sim_report(3.9))
    worker.check_simulate(0, _sim_report(-3.9, 0.98))
    bad = (
        (0, _sim_report(5.0)), (0, _sim_report(-5.0)), (1, _sim_report(0.0)), (0, ""),
        # An inflated stderr must not hide a wrong estimate.
        (0, _sim_report(50.0, 100.0)), (0, _sim_report(0.0, 100.0)), (0, _sim_report(0.0, 0.5)),
    )
    for code, text in bad:
        with pytest.raises(worker.CheckFailed):
            worker.check_simulate(code, text)
    short = json.loads(_sim_report(0.0))
    short["total_symbols"] -= 1
    with pytest.raises(worker.CheckFailed):
        worker.check_simulate(0, json.dumps(short))


def test_sweep_grid_is_seeded_and_in_range():
    rho, snr = worker.sweep_grid(7)
    assert (rho, snr) == worker.sweep_grid(7) != worker.sweep_grid(8)
    assert len(rho) == len(snr) == worker.GRID_SIZE
    assert all(0.0 <= r < 0.99 for r in rho)
    assert all(1e-3 <= s <= 1e2 for s in snr)


@pytest.fixture(scope="module")
def small_sweep(tmp_path_factory):
    rho, snr = worker.sweep_grid(3)
    rho, snr = rho[::10], snr[::10]
    out = tmp_path_factory.mktemp("sweep") / "sweep.csv"
    code = cli.main(["sweep", "--rho-grid", ",".join(map(repr, rho)),
                     "--snr-grid", ",".join(map(repr, snr)), "--out", str(out)])
    return code, out.read_text(), rho, snr


def _corrupt(csv_text: str, want_below: str, edit) -> str:
    lines = csv_text.splitlines(keepends=True)
    header = lines[0].strip().split(",")
    for i, line in enumerate(lines[1:], start=1):
        cells = dict(zip(header, line.strip().split(",")))
        if cells["below_threshold"] == want_below:
            edit(cells)
            lines[i] = ",".join(cells[c] for c in header) + "\n"
            return "".join(lines)
    raise AssertionError("no row to corrupt")


def test_sweep_check(small_sweep):
    code, text, rho, snr = small_sweep
    worker.check_sweep(code, text, rho, snr)

    def raise_bound(cells):
        cells["lower_bound"] = repr(float(cells["d_uncoded"]) * 1.01)

    def blank_dstar(cells):
        cells["dstar_or_blank"] = ""

    def flip_below(cells):
        cells["below_threshold"] = "true"

    def bad_rho_star(cells):
        cells["rho_star"] = "1.5"

    bad = [
        _corrupt(text, "false", raise_bound),
        _corrupt(text, "true", raise_bound),
        _corrupt(text, "true", blank_dstar),
        _corrupt(text, "false", flip_below),
        _corrupt(text, "false", bad_rho_star),
        text.replace("rho_star", "rho_opt", 1),
        "".join(text.splitlines(keepends=True)[:-1]),
    ]
    for corrupted in bad:
        with pytest.raises(worker.CheckFailed):
            worker.check_sweep(0, corrupted, rho, snr)
    with pytest.raises(worker.CheckFailed):
        worker.check_sweep(1, text, rho, snr)


def test_verify_check():
    results = [{"name": n, "passed": n != "tightness-below-threshold", "detail": ""} for n in worker.CRITERIA]
    assert worker.check_verify(1, json.dumps(results)) == 1
    with pytest.raises(worker.CheckFailed):
        worker.check_verify(1, json.dumps(results[1:]))
    with pytest.raises(worker.CheckFailed):
        worker.check_verify(0, json.dumps(results))
    with pytest.raises(worker.CheckFailed):
        worker.check_verify(1, json.dumps(results + results[-1:]))
    # A criterion outside the known-red set that fails is a failed operation.
    for broken in ("monte-carlo-agreement", "feasibility-oracle"):
        regressed = [dict(r, passed=r["passed"] and r["name"] != broken) for r in results]
        with pytest.raises(worker.CheckFailed, match=broken):
            worker.check_verify(1, json.dumps(regressed))
    # The known-red criterion turning green is not a failure.
    green = [dict(r, passed=True) for r in results]
    assert worker.check_verify(0, json.dumps(green)) == 0


# -- tracer -------------------------------------------------------------------------


def _traced_sweep(tracer, tmp_path, count_curves=False):
    tracer.install()
    if count_curves:
        tracer.install_curve_counters()
    try:
        code = cli.main(["sweep", "--rho-grid", "0.2,0.5,0.8", "--snr-grid", "0.01,0.5,5",
                         "--out", str(tmp_path / "s.csv")])
    finally:
        tracer.uninstall()
    assert code == 0
    return tracer.take_op()


def test_tracer_spans_and_uninstall(tmp_path):
    import gmacfb.bounds
    import gmacfb.sweep

    original = gmacfb.sweep.minimax_lower_bound
    curve = gmacfb.bounds.sum_rate_curve
    counted = _traced_sweep(layers.Tracer(), tmp_path, count_curves=True)
    assert gmacfb.bounds.sum_rate_curve is curve
    op = _traced_sweep(layers.Tracer(), tmp_path)
    assert gmacfb.sweep.minimax_lower_bound is original is gmacfb.bounds.minimax_lower_bound
    assert counted.curve_evals > 2 * 9 and op.curve_evals == 0
    assert op.calls["bounds.minimax_lower_bound"] == 9
    assert op.calls["sweep.sweep_rows"] == op.calls["cli.main"] == 1
    assert 0 < op.self_s["sweep.sweep_rows"] < op.total["sweep.sweep_rows"] < op.total["cli.main"]
    metrics = layers.per_layer_metrics([op], counted, 1.0)
    assert list(metrics) == list(layers.PER_LAYER)
    assert metrics["bounds.curve_evals_per_minimax"] == counted.curve_evals / 9
    assert 0 < metrics["bounds.minimax_lower_bound.crossing_share"] < 1


def test_absent_function_is_reported(tmp_path, monkeypatch):
    import gmacfb.simulate

    monkeypatch.delattr(gmacfb.simulate, "run_channel")
    tracer = layers.Tracer()
    op = _traced_sweep(tracer, tmp_path)
    assert tracer.absent == ["gmacfb.simulate.run_channel"]
    metrics = layers.per_layer_metrics([op], op, 1.0)
    assert list(metrics) == list(layers.PER_LAYER)
    assert metrics["simulate.run_channel.share"] == 0.0
    assert metrics["sweep.sweep_rows.s"] > 0
