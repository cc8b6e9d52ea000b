import ast
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from helpers import log_uniform, run_inprocess

import gmacfb
from gmacfb import bounds, model, rate_distortion, simulate, sweep

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")


def run_python(*args):
    """A fresh interpreter that imports gmacfb from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def run_subprocess(args):
    return run_python("-m", "gmacfb", *args)


def assert_usage_error(run):
    """Exit 2 with exactly one `error:` line on stderr, so no traceback."""
    code, _, err = run
    assert code == 2
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err


def twin_text(value):
    """A --json value as the text output shows it."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return "[" + ", ".join(f"{v:.9g}" for v in value) + "]"
    return f"{value:.9g}" if isinstance(value, float) else value


def assert_text_twin(args, keys):
    """Text output is one `key = value` line per key, in this order, each
    value the --json twin's; for rd and bound every other entry is null.
    Returns the payload."""
    (code, text, _), (json_code, out, _) = run_inprocess(args), run_inprocess([*args, "--json"])
    assert code == json_code == 0
    payload = json.loads(out)
    assert text.splitlines() == [f"{key} = {twin_text(payload[key])}" for key in keys]
    if args[0] != "simulate":
        assert [key for key, value in payload.items() if value is not None] == keys
    return payload


SOURCE = ["--sigma2", "1", "--rho", "0.5"]
RD_KEYS = ["region", "joint_bits", "cond1_bits", "cond2_bits"]
BOUND_KEYS = ["lower_bound", "rho_star", "active"]
GENERAL = ["bound", *SOURCE, "--n", "1", "--p1", "0.667", "--p2", "0.667"]
SIMULATE = ["simulate", *SOURCE, "--p", "1", "--n", "1"]


class TestRd:
    def test_region_a_example(self):
        payload = assert_text_twin(["rd", *SOURCE, "--d1", "0.3", "--d2", "0.3"], RD_KEYS)
        assert payload["region"] == "A"
        assert twin_text(payload["joint_bits"]) == "1.52944684"

    def test_fully_correlated_targets_that_underflow(self):
        # Both d / sigma2 underflow to 0, where region A's test holds at
        # 0 <= 0; A is empty at rho = 1, and the targets differ.
        payload = assert_text_twin(["rd", "--sigma2", "1e300", "--rho", "1", "--d1", "5e-324", "--d2", "1e-300"],
                                   RD_KEYS)
        assert payload["region"] == "C"
        assert twin_text(payload["joint_bits"]) == "1035.28921"

    def test_zero_rate_example(self):
        assert assert_text_twin(["rd", *SOURCE, "--d1", "1", "--d2", "1"], RD_KEYS)["joint_bits"] == 0.0

    def test_json_twin_matches_library(self):
        code, out, _ = run_inprocess(["rd", "--sigma2", "1", "--rho", "0.5", "--d1", "0.3", "--d2", "0.3", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["region"] == "A"
        assert payload["joint_bits"] == pytest.approx(1.5294468445267844, abs=1e-15)
        assert payload["cond1_bits"] == payload["cond2_bits"]

    def test_huge_variance_depends_on_the_ratio_only(self):
        # sigma2^2 overflows at 1e200; the rates depend only on d / sigma2 = 0.1.
        args = ["rd", "--rho", "0.5", "--json"]
        code, out, _ = run_inprocess(args + ["--sigma2", "1e200", "--d1", "1e199", "--d2", "1e199"])
        _, unit, _ = run_inprocess(args + ["--sigma2", "1", "--d1", "0.1", "--d2", "0.1"])
        assert code == 0
        big, unit = json.loads(out), json.loads(unit)
        assert big["region"] == unit["region"] == "A"
        assert unit["joint_bits"] == pytest.approx(3.11440935, abs=1e-8)
        for key in ("joint_bits", "cond1_bits", "cond2_bits"):
            assert big[key] == pytest.approx(unit[key], rel=1e-12)

    def test_rho_out_of_range_is_usage_error(self):
        code, _, err = run_inprocess(["rd", "--sigma2", "1", "--rho", "1.5", "--d1", "0.3", "--d2", "0.3"])
        assert code == 2
        assert "rho out of range" in err

    def test_missing_flag_is_usage_error(self):
        code, _, _ = run_inprocess(["rd", "--sigma2", "1", "--rho", "0.5", "--d1", "0.3"])
        assert code == 2


class TestBound:
    def test_symmetric_threshold_point(self):
        payload = assert_text_twin(["bound", *SOURCE, "--p", "0.6666666667", "--n", "1"], BOUND_KEYS)
        assert payload["lower_bound"] == pytest.approx(0.5, abs=1e-6)
        assert payload["rho_star"] == pytest.approx(0.5, abs=1e-4)
        assert payload["active"] == "crossing"

    def test_symmetric_endpoint_case(self):
        payload = assert_text_twin(["bound", *SOURCE, "--p", "0.1", "--n", "1"], BOUND_KEYS)
        assert payload["lower_bound"] == pytest.approx(0.7857142857142857, abs=1e-12)
        assert payload["rho_star"] == 1.0
        assert payload["active"] == "endpoint"

    def test_general_infeasible_example(self):
        assert assert_text_twin([*GENERAL, "--d1", "0.4", "--d2", "0.4"], ["feasible"])["feasible"] is False

    def test_extreme_targets_are_infeasible_not_a_traceback(self):
        code, out, err = run_inprocess([
            "bound", *SOURCE, "--n", "1", "--p1", "1", "--p2", "1", "--d1", "1e-300", "--d2", "1e-300",
        ])
        assert code == 0
        assert out == "feasible = false\n"
        assert err == ""

    @pytest.mark.parametrize("n, p", [("1", "1e-170"), ("1", "1e200"), ("1e-200", "1")])
    def test_extreme_powers_are_infeasible_not_a_traceback(self, n, p):
        # p1 p2 underflows (1e-340) or overflows (1e400) a double. At
        # snr = 1e200 the joint rate, about 335.3 bits at d = 1e-101,
        # exceeds the sum cap of about 333.2 bits, whatever n0 is.
        d = "0.9" if p == "1e-170" else "1e-101"
        code, out, err = run_inprocess(["bound", *SOURCE, "--n", n, "--p1", p, "--p2", p, "--d1", d, "--d2", d])
        assert code == 0
        assert out == "feasible = false\n"
        assert err == ""

    def test_largest_powers_feasibility_is_finite(self):
        # 2 sqrt(p1 p2) overflows here while the sum cap is slack.
        code, out, _ = run_inprocess([
            "bound", "--sigma2", "1", "--rho", "0.99", "--n", "1",
            "--p1", "1.7e308", "--p2", "1.7e308", "--d1", "1e-150", "--d2", "1e-150", "--json",
        ])
        assert code == 0
        assert json.loads(out)["rho_interval"] == [0.0, pytest.approx(1.0, abs=1e-12)]

    @pytest.mark.parametrize("rho, n, p, d, lo", [
        # 4^r - 1 overflows for the joint rate (528.7 bits), and p / n0 does
        # too; the sum cap is about 997 bits.
        ("0.99", "1e-300", "1e300", "1e-160", 0.0),
        # The joint rate, 512.106 bits, overflows 4^r - 1 but stays under the
        # sum cap of 512.460 bits at rho_tilde = 0; p / n0 is finite.
        ("0.5", "1", "1.7e308", "6e-155", 0.0),
        # Here the sum cap binds: lo from a 60-digit decimal evaluation.
        ("0.5", "1", "1.7e308", "4e-155", 0.378676470588235),
    ])
    def test_overflowing_rate_is_compared_in_the_log_domain(self, rho, n, p, d, lo):
        code, out, _ = run_inprocess([
            "bound", "--sigma2", "1", "--rho", rho, "--n", n,
            "--p1", p, "--p2", p, "--d1", d, "--d2", d, "--json",
        ])
        assert code == 0
        assert json.loads(out)["rho_interval"] == [pytest.approx(lo, abs=1e-9), 1.0]

    def test_targets_below_the_normal_range_are_feasible(self):
        # d / sigma2 = 1e-309 is subnormal. At rho_tilde = 0 the joint rate
        # (1,026.3 bits) fits under the sum cap (1,049.5 bits), and each
        # conditional rate (513.0 bits) under its user's cap, which falls
        # below it only within 2^-1072 of rho_tilde = 1.
        code, out, _ = run_inprocess([
            "bound", *SOURCE, "--n", "5e-324", "--p1", "1.7e308", "--p2", "1.7e308",
            "--d1", "1e-309", "--d2", "1e-309", "--json",
        ])
        assert code == 0
        assert json.loads(out) == {"feasible": True, "rho_interval": [0.0, 1.0], "witness": 0.5}

    def test_huge_variance_feasibility_is_finite(self):
        args = ["bound", "--rho", "0.5", "--n", "1", "--p1", "1", "--p2", "1", "--json"]
        code, out, _ = run_inprocess(args + ["--sigma2", "1e200", "--d1", "5e199", "--d2", "5e199"])
        _, unit, _ = run_inprocess(args + ["--sigma2", "1", "--d1", "0.5", "--d2", "0.5"])
        assert code == 0
        big, unit = json.loads(out), json.loads(unit)
        assert big["feasible"] is unit["feasible"] is True
        assert big["rho_interval"] == pytest.approx(unit["rho_interval"], rel=1e-12)
        assert big["witness"] == pytest.approx(unit["witness"], rel=1e-12)

    def test_overflowing_snr_is_usage_error(self):
        assert_usage_error(run_inprocess([
            "bound", "--sigma2", "1e300", "--rho", "0.5", "--n", "1e-300", "--p", "1e300",
        ]))

    def test_only_p_over_n_matters(self):
        args = ["bound", "--sigma2", "1", "--rho", "0.5"]
        assert (
            run_inprocess(args + ["--n", "1e308", "--p", "1e308"])
            == run_inprocess(args + ["--n", "1", "--p", "1"])
        )

    def test_general_case_only_p_over_n_matters(self):
        args = ["bound", "--sigma2", "1", "--rho", "0.5", "--d1", "0.6", "--d2", "0.5"]
        assert (
            run_inprocess(args + ["--n", "1e308", "--p1", "1e308", "--p2", "1e308"])
            == run_inprocess(args + ["--n", "1", "--p1", "1", "--p2", "1"])
        )

    def test_general_case_tiny_powers_match_unit_powers(self):
        # (4^r - 1) n0 is subnormal at n0 = 1e-308; p_i / n0 is exactly 1.
        args = ["bound", "--sigma2", "1", "--rho", "0.5", "--d1", "0.6", "--d2", "0.5", "--json"]
        assert (
            run_inprocess(args + ["--n", "1e-308", "--p1", "1e-308", "--p2", "1e-308"])
            == run_inprocess(args + ["--n", "1", "--p1", "1", "--p2", "1"])
        )

    def test_general_feasible_reports_interval(self):
        payload = assert_text_twin([*GENERAL, "--d1", "0.6", "--d2", "0.6"], ["feasible", "rho_interval", "witness"])
        assert payload["feasible"] is True
        lo, hi = payload["rho_interval"]
        assert 0.0 <= lo <= payload["witness"] <= hi <= 1.0

    def test_mixed_flags_rejected(self):
        code, _, err = run_inprocess(["bound", *SOURCE, "--n", "1", "--p", "1", "--d1", "0.4"])
        assert code == 2
        assert "not both" in err

    def test_incomplete_general_flags_rejected(self):
        code, _, _ = run_inprocess(["bound", *SOURCE, "--n", "1", "--d1", "0.4"])
        assert code == 2


class TestSimulate:
    def test_matches_formula_and_exits_zero(self):
        payload = assert_text_twin([*SIMULATE, "--symbols", "200000", "--seed", "42"], [
            "d1_hat", "d2_hat", "stderr_d1", "stderr_d2", "p1_hat", "p2_hat",
            "rho_tilde_hat", "d_uncoded", "z1", "z2",
        ])
        assert payload["d_uncoded"] == pytest.approx(0.4375, abs=1e-9)
        assert abs(payload["z1"]) <= 4.0
        assert abs(payload["z2"]) <= 4.0
        assert payload["d1_hat"] == pytest.approx(0.4375, abs=0.01)

    def test_json_twin_has_full_report(self):
        code, out, _ = run_inprocess([
            "simulate", "--sigma2", "1", "--rho", "0.5", "--p", "1", "--n", "1",
            "--symbols", "50000", "--seed", "7", "--json",
        ])
        assert code == 0
        payload = json.loads(out)
        for key in ("d1_hat", "d2_hat", "p1_hat", "p2_hat", "rho_tilde_hat",
                    "stderr_d1", "stderr_d2", "d_uncoded", "z1", "z2", "seed"):
            assert key in payload
        assert payload["total_symbols"] == 50000

    def test_zero_symbols_usage_error(self):
        code, _, err = run_inprocess([*SIMULATE, "--symbols", "0"])
        assert code == 2
        assert "symbols" in err

    def test_byte_identical_reports_for_same_seed(self):
        args = ["simulate", "--sigma2", "1", "--rho", "0.5", "--p", "1", "--n", "1",
                "--symbols", "50000", "--seed", "11", "--json"]
        first = run_subprocess(args)
        second = run_subprocess(args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    def test_statistical_outlier_exits_one(self):
        # seed 103 at 100 symbols lands z2 at -4.26, found by scanning seeds
        code, _, err = run_inprocess([*SIMULATE, "--symbols", "100", "--seed", "103"])
        assert code == 1
        assert "disagrees" in err

    @pytest.mark.parametrize("z, code", [(4.0, 0), (-4.0, 0), (None, 0), (math.nextafter(4.0, 5.0), 1)])
    def test_exits_one_only_beyond_four(self, monkeypatch, z, code):
        # No seed lands on |z| = 4 exactly, so the report is edited.
        real = simulate.simulate_uncoded
        monkeypatch.setattr(simulate, "simulate_uncoded", lambda *args: dataclasses.replace(real(*args), z2=z))
        assert run_inprocess([*SIMULATE, "--symbols", "1000"])[0] == code

    def test_subnormal_variance_z_is_the_unit_variance_z(self):
        # d1_hat keeps about 5 bits at sigma2 = 2e-322, but z is formed
        # from the unit-variance statistics: the sigma2 = 1 run's, bit for bit.
        runs = [run_inprocess([
            "simulate", "--sigma2", sigma2, "--rho", "0.5", "--p", "1", "--n", "1",
            "--symbols", "100000", "--seed", "1", "--json",
        ]) for sigma2 in ("2e-322", "1")]
        assert [code for code, _, _ in runs] == [0, 0]
        tiny, unit = (json.loads(out, parse_constant=_reject_constant) for _, out, _ in runs)
        assert tiny["d1_hat"] < tiny["d_uncoded"]
        assert (tiny["z1"], tiny["z2"]) == (unit["z1"], unit["z2"])

    def test_one_symbol_has_no_z(self):
        # One symbol has no spread, so there is no z to audit: null in
        # JSON, no line in text, exit 0.
        args = [*SIMULATE, "--symbols", "1"]
        (code, text, err), (json_code, out, _) = run_inprocess(args), run_inprocess([*args, "--json"])
        assert code == json_code == 0
        assert err == ""
        assert '"z1": null, "z2": null' in out
        json.loads(out, parse_constant=_reject_constant)
        assert not [line for line in text.splitlines() if line.startswith(("z1 ", "z2 "))]

    @pytest.mark.parametrize("sigma2", ["1e200", "1e-300", "1.7e308"])
    def test_extreme_variance_matches_formula(self, sigma2):
        code, out, err = run_inprocess([
            "simulate", "--sigma2", sigma2, "--rho", "0.5", "--p", "1", "--n", "1",
            "--symbols", "100000", "--seed", "3", "--json",
        ])
        assert code == 0, err
        assert err == ""
        payload = json.loads(out)
        assert payload["d1_hat"] / float(sigma2) == pytest.approx(0.4375, abs=0.01)
        assert max(abs(payload["z1"]), abs(payload["z2"])) <= 4.0

    def test_tiny_power_keeps_input_correlation(self):
        # p1_hat * p2_hat underflows near 1e-600; the inputs are still
        # 0.5-correlated.
        code, out, _ = run_inprocess([
            "simulate", "--sigma2", "1", "--rho", "0.5", "--p", "1e-300", "--n", "1",
            "--symbols", "100000", "--seed", "3", "--json",
        ])
        assert code == 0
        assert json.loads(out)["rho_tilde_hat"] == pytest.approx(0.5, abs=0.02)

    def test_overflowing_power_is_usage_error(self):
        # Where 4 p / n0 overflows, simulate refuses (p, n0) as the bounds do.
        args = ["--sigma2", "1", "--rho", "0.5", "--p", "1e308", "--n", "1"]
        run = run_inprocess(["simulate", *args, "--symbols", "1000"])
        assert_usage_error(run)
        assert run[2] == run_inprocess(["bound", *args])[2]
        assert run[2] == "error: p / n0 too large: 4 p / n0 overflows\n"

    @pytest.mark.parametrize("p, n", [("1e200", "1e200"), ("1e160", "1")])
    def test_huge_power_depends_on_the_ratio_only(self, p, n):
        # x^2 and its M2 would overflow in physical units; the run is
        # made at unit power and scaled by p once.
        code, out, err = run_inprocess([
            "simulate", *SOURCE, "--p", p, "--n", n, "--symbols", "100000", "--seed", "3", "--json",
        ])
        assert code == 0, err
        payload = json.loads(out)
        assert all(math.isfinite(v) for v in payload.values())
        assert payload["p1_hat"] / float(p) == pytest.approx(1.0, abs=0.02)

    def test_huge_power_on_two_streams_exits_cleanly(self):
        # Five batches on two streams at p = 1e307: no statistic
        # overflows, so neither stream warns.
        code, _, err = run_inprocess(["simulate", *SOURCE, "--p", "1e307", "--n", "1", "--symbols", "300000"])
        assert code == 0
        assert err == ""

    def test_tiny_powers_audit_power_as_at_unit_power(self):
        # The M2 of x^2 underflowed at p = 1e-170, so stderr_p1 read 0 and
        # p1_flagged true; the audit is now the unit-power one.
        args = ["simulate", "--sigma2", "1", "--rho", "0.5", "--symbols", "1000", "--seed", "3", "--json"]
        _, tiny, _ = run_inprocess(args + ["--p", "1e-170", "--n", "1e-170"])
        _, unit, _ = run_inprocess(args + ["--p", "1", "--n", "1"])
        tiny, unit = json.loads(tiny), json.loads(unit)
        assert tiny["stderr_p1"] > 0.0
        assert tiny["p1_flagged"] is unit["p1_flagged"] is False
        assert tiny["p2_flagged"] is unit["p2_flagged"]

    def test_symbol_count_beyond_memory_is_usage_error(self):
        # The moments table of 10^18 symbols would take 1.08 PiB; numpy
        # refuses it before allocating anything.
        assert_usage_error(run_inprocess([*SIMULATE, "--symbols", "1000000000000000000"]))

    def test_run_over_several_fixed_batches(self):
        # 200,000 symbols stream through four fixed batches.
        code, out, _ = run_inprocess([
            "simulate", "--sigma2", "1", "--rho", "0.5", "--p", "1", "--n", "1",
            "--symbols", "200000", "--seed", "3", "--json",
        ])
        assert code == 0
        assert json.loads(out)["total_symbols"] == 200000

    def test_chunks_flag_removed(self):
        code, _, err = run_inprocess([*SIMULATE, "--symbols", "1000", "--chunks", "2"])
        assert code == 2
        assert "--chunks" in err


class TestSweepCommand:
    def test_writes_csv_and_reports(self, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, out, _ = run_inprocess([
            "sweep", "--sigma2", "1",
            "--rho-grid", "0.5", "--snr-grid", "0.6666666666666666",
            "--out", str(out_path),
        ])
        assert code == 0
        assert "wrote 1 rows" in out
        lines = out_path.read_text().strip().splitlines()
        cells = lines[1].split(",")
        assert float(cells[4]) == pytest.approx(0.5, abs=1e-9)   # lower_bound
        assert float(cells[6]) == pytest.approx(0.5, abs=1e-12)  # d_uncoded
        assert float(cells[7]) == pytest.approx(0.5, abs=1e-12)  # dstar

    def test_json_twin_mirrors_rows(self, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, out, _ = run_inprocess([
            "sweep", "--rho-grid", "0.2,0.4", "--snr-grid", "1.0",
            "--out", str(out_path), "--json",
        ])
        assert code == 0
        payload = json.loads(out)
        assert payload["path"] == str(out_path)
        csv_rows = out_path.read_text().strip().splitlines()[1:]
        assert len(payload["rows"]) == len(csv_rows) == 2
        for row, line in zip(payload["rows"], csv_rows):
            assert repr(row["lower_bound"]) == line.split(",")[4]

    def test_unwritable_path_fails_with_context(self, tmp_path):
        code, _, err = run_inprocess([
            "sweep", "--rho-grid", "0.5", "--snr-grid", "1.0",
            "--out", str(tmp_path / "missing" / "x.csv"),
        ])
        assert code == 1
        assert "x.csv" in err

    def test_huge_variance_scales_the_unit_rows(self, tmp_path):
        def rows(sigma2):
            path = tmp_path / f"{sigma2}.csv"
            code, _, _ = run_inprocess([
                "sweep", "--sigma2", sigma2, "--rho-grid", "0.5", "--snr-grid", "0.1,10",
                "--out", str(path),
            ])
            assert code == 0
            return [line.split(",") for line in path.read_text().splitlines()[1:]]

        for big, unit in zip(rows("1.7e308"), rows("1")):
            assert float(big[5]) == pytest.approx(float(unit[5]), rel=1e-9)  # rho_star
            for col in (4, 6, 7):  # lower_bound, d_uncoded, dstar_or_blank
                if unit[col]:
                    assert float(big[col]) == pytest.approx(1.7e308 * float(unit[col]), rel=1e-12)

    def test_noise_flag_removed(self, tmp_path):
        # The rows depend on snr alone, so there is no --n to set.
        code, _, err = run_inprocess([
            "sweep", "--n", "1", "--rho-grid", "0.5", "--snr-grid", "1.0",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2
        assert "--n" in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("snrs", ["1e308", "0.5,4.5e307", "0.5,1e308,2"])
    def test_overflowing_snr_is_usage_error(self, tmp_path, snrs):
        # The one error line that the bounds give for such a p / n0, and no file.
        run = run_inprocess([
            "sweep", "--rho-grid", "0.0,0.5", "--snr-grid", snrs, "--out", str(tmp_path / "x.csv"),
        ])
        assert_usage_error(run)
        assert run[2] == "error: p / n0 too large: 4 p / n0 overflows\n"
        assert not (tmp_path / "x.csv").exists()

    def test_bad_grid_value_usage_error(self, tmp_path):
        code, _, _ = run_inprocess([
            "sweep", "--rho-grid", "1.0", "--snr-grid", "1.0", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2

    def test_unparsable_grid_value_usage_error(self, tmp_path):
        code, _, err = run_inprocess([
            "sweep", "--rho-grid", "0.1,abc", "--snr-grid", "1", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2
        assert err.endswith("bad grid value: could not convert string to float: 'abc'\n")
        assert "Traceback" not in err
        assert not (tmp_path / "x.csv").exists()


class TestVerifyCommand:
    def test_quick_reports_known_tightness_gap(self):
        # The minimax bound coincides with the uncoded distortion only at
        # the threshold SNR itself; strictly inside the below-threshold
        # range it is provably smaller by a finite margin, so the
        # tightness criterion reports FAIL while every other criterion
        # passes. See the acceptance suite for the same split.
        code, out, _ = run_inprocess(["verify", "--quick"])
        assert code == 1
        lines = out.strip().splitlines()
        statuses = {line.split()[1].rstrip(":"): line.split()[0] for line in lines}
        assert statuses["tightness-below-threshold"] == "FAIL"
        for name, status in statuses.items():
            if name != "tightness-below-threshold":
                assert status == "PASS", f"{name} unexpectedly failed"

    def test_json_twin(self):
        code, out, _ = run_inprocess(["verify", "--quick", "--json"])
        assert code == 1
        payload = json.loads(out)
        assert len(payload) == 7
        assert {r["name"] for r in payload} >= {"determinism", "rd-properties"}

    def test_quick_and_full_flags_exclusive(self):
        code, _, _ = run_inprocess(["verify", "--quick", "--full"])
        assert code == 2


# Positive doubles, log-uniform over the whole range, subnormals included.
ANY = st.floats(-1074.0, 1024.0, exclude_max=True).map(lambda e: 2.0 ** e)


def _reject_constant(name):
    raise AssertionError(f"{name} in --json output")


class TestNoTraceback:
    """No finite input makes the CLI raise: every run ends in exit 0, 1 or 2,
    and no reported number is nan. `rd`, `bound`, `simulate` and `sweep`
    print strict JSON, with no Infinity either, wherever they print a
    report: at exit 0, and for `simulate` at exit 1 as well."""

    @staticmethod
    def exit_code(args, strict=False):
        code, out, _ = run_inprocess([*args, "--json"])
        assert "NaN" not in out
        if strict and code in (0, 1):
            json.loads(out, parse_constant=_reject_constant)
        return code

    @settings(max_examples=400, deadline=None)
    @given(sigma2=ANY, rho=ANY, n=ANY, p1=ANY, p2=ANY, d1=ANY, d2=ANY)
    @example(sigma2=1.0, rho=0.5, n=1.0, p1=1e-170, p2=1e-170, d1=0.9, d2=0.9)  # p1 p2 underflowed
    def test_bound_general_case(self, sigma2, rho, n, p1, p2, d1, d2):
        code = self.exit_code([
            "bound", "--sigma2", sigma2, "--rho", rho, "--n", n,
            "--p1", p1, "--p2", p2, "--d1", d1, "--d2", d2,
        ], strict=True)
        assert code in (0, 1, 2)

    @settings(max_examples=150, deadline=None)
    @given(sigma2=ANY, rho=ANY, p=ANY, n=ANY, symbols=st.integers(1, 1000), seed=st.integers(0, 2 ** 64 - 1))
    @example(sigma2=1.0, rho=0.5, p=1.0, n=1.0, symbols=1, seed=3)  # no spread
    @example(sigma2=2e-322, rho=0.5, p=1.0, n=1.0, symbols=1000, seed=1)  # stderr_d1 rounds to 0
    def test_simulate(self, sigma2, rho, p, n, symbols, seed):
        code = self.exit_code([
            "simulate", "--sigma2", sigma2, "--rho", rho, "--p", p, "--n", n,
            "--symbols", symbols, "--seed", seed,
        ], strict=True)
        assert code in (0, 1, 2)

    @settings(max_examples=100, deadline=None)
    @given(sigma2=ANY, rho=ANY, d1=ANY, d2=ANY)
    @example(sigma2=1.0, rho=0.5, d1=1e-309, d2=1e-309)  # d / sigma2 subnormal
    def test_rd(self, sigma2, rho, d1, d2):
        code = self.exit_code(["rd", "--sigma2", sigma2, "--rho", rho, "--d1", d1, "--d2", d2], strict=True)
        assert code in (0, 2)

    @settings(max_examples=100, deadline=None)
    @given(sigma2=ANY, rho=ANY, n=ANY, p=ANY)
    def test_bound_symmetric_case(self, sigma2, rho, n, p):
        code = self.exit_code(["bound", "--sigma2", sigma2, "--rho", rho, "--n", n, "--p", p], strict=True)
        assert code in (0, 2)

    @settings(max_examples=60, deadline=None)
    @given(sigma2=ANY, rhos=st.lists(ANY, min_size=1, max_size=3), snrs=st.lists(ANY, min_size=1, max_size=3))
    def test_sweep(self, sigma2, rhos, snrs):
        code = self.exit_code([
            "sweep", "--sigma2", sigma2, "--rho-grid", ",".join(map(repr, rhos)),
            "--snr-grid", ",".join(map(repr, snrs)), "--out", os.devnull,
        ], strict=True)
        assert code in (0, 2)


class TestScaling:
    """Outputs depend on d / sigma2 and p / n0 alone: scaling both by a
    power of two, within ranges where every input stays normal, changes
    no byte."""

    @settings(max_examples=100, deadline=None)
    @given(
        rho=st.floats(0.0, 1.0), sigma2=log_uniform(-100.0, 100.0),
        u1=log_uniform(-100.0, 1.0), u2=log_uniform(-100.0, 1.0), j=st.integers(-300, 300),
    )
    def test_rd_under_scaling_of_variance_and_targets(self, rho, sigma2, u1, u2, j):
        values = (sigma2, sigma2 * u1, sigma2 * u2)
        scaled = tuple(math.ldexp(v, j) for v in values)

        def rd(s2, d1, d2):
            return run_inprocess(["rd", "--sigma2", repr(s2), "--rho", repr(rho),
                                  "--d1", repr(d1), "--d2", repr(d2), "--json"])

        assert rd(*scaled) == rd(*values)

    @settings(max_examples=100, deadline=None)
    @given(
        rho=st.floats(0.0, 1.0, exclude_max=True), sigma2=log_uniform(-300.0, 300.0),
        n0=log_uniform(-100.0, 100.0), snr=log_uniform(-8.0, 14.0), k=st.integers(-250, 250),
    )
    def test_bound_symmetric_case_under_scaling_of_power_and_noise(self, rho, sigma2, n0, snr, k):
        p = snr * n0

        def bound(p, n0):
            return run_inprocess(["bound", "--sigma2", repr(sigma2), "--rho", repr(rho),
                                  "--n", repr(n0), "--p", repr(p), "--json"])

        assert bound(math.ldexp(p, 2 * k), math.ldexp(n0, 2 * k)) == bound(p, n0)


def test_unknown_command_usage_error():
    proc = run_subprocess(["frobnicate"])
    assert proc.returncode == 2


def test_console_entry_point_help():
    proc = run_subprocess(["--help"])
    assert proc.returncode == 0
    assert "simulate" in proc.stdout


# rd, bound, sweep and every --help run in a fresh interpreter, then
# simulate; the script prints their exit codes and whether numpy was loaded
# after each phase.
_NUMPY_ON_FIRST_USE = """
import contextlib, io, json, sys, tempfile
from pathlib import Path

import gmacfb
import gmacfb.cli as cli

cli.build_parser()


def code(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code


source = ["--sigma2", "1", "--rho", "0.5"]
with tempfile.TemporaryDirectory() as tmp:
    closed_forms = [code(argv) for argv in (
        ["rd", *source, "--d1", "0.3", "--d2", "0.4"],
        ["bound", *source, "--n", "1", "--p", "10"],
        ["bound", *source, "--n", "1", "--p1", "1", "--p2", "2", "--d1", "0.4", "--d2", "0.5"],
        ["sweep", "--rho-grid", "0.3,0.9", "--snr-grid", "0.1,10", "--out", str(Path(tmp, "s.csv"))],
        ["--help"], ["simulate", "--help"], ["verify", "--help"],
    )]
loaded_before = "numpy" in sys.modules
simulated = code(["simulate", *source, "--p", "1", "--n", "1", "--symbols", "10"])
print(json.dumps([closed_forms, loaded_before, simulated, "numpy" in sys.modules]))
"""


def test_closed_form_commands_never_load_numpy():
    proc = run_python("-c", _NUMPY_ON_FIRST_USE)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert json.loads(proc.stdout) == [[0] * 7, False, 0, True]


class TestPackageSurface:
    def test_every_public_name_is_its_defining_modules_object(self):
        listed = []
        for module in (bounds, model, rate_distortion, sweep):
            tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
            defined = [node.name for node in tree.body if isinstance(node, (ast.ClassDef, ast.FunctionDef))]
            defined += [t.id for node in tree.body if isinstance(node, ast.Assign) for t in node.targets
                        if isinstance(t, ast.Name)]
            assert defined.count("__all__") == 1, module.__name__
            for name in module.__all__:
                assert name in defined, f"{module.__name__}.{name} is not defined there"
                assert getattr(gmacfb, name) is getattr(module, name), name
            listed += module.__all__
        assert gmacfb.__all__ == sorted([*listed, *gmacfb._SIMULATE_NAMES])
        assert len(set(gmacfb.__all__)) == len(gmacfb.__all__)
        assert gmacfb.SimulationError is simulate.SimulationError is model.SimulationError
        assert gmacfb.DEFAULT_SEED is simulate.DEFAULT_SEED == 123456789
        assert gmacfb.simulate_uncoded is simulate.simulate_uncoded

    def test_no_module_imports_sympy(self):
        # sympy certifies identities in the tests only; the package and
        # verify run without it, lazy imports included.
        for path in Path(gmacfb.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                names = [a.name for a in node.names] if isinstance(node, ast.Import) else \
                    [node.module or ""] if isinstance(node, ast.ImportFrom) else []
                assert not any(name.split(".")[0] == "sympy" for name in names), path.name

    def test_star_import_binds_all(self):
        namespace = {}
        exec("from gmacfb import *", namespace)
        assert set(gmacfb.__all__) <= namespace.keys()

    def test_dir_lists_the_lazy_names(self):
        assert set(gmacfb.__all__) <= set(dir(gmacfb))

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            gmacfb.no_such_name
        assert not hasattr(gmacfb, "no_such_name")

    def test_simulate_help_shows_the_default_seed(self):
        code, out, _ = run_inprocess(["simulate", "--help"])
        assert code == 0
        assert "(default 123456789)" in out
