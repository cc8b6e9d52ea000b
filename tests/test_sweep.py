import dataclasses
import math

import pytest

from gmacfb import (
    COLUMNS,
    ParameterError,
    SourceParams,
    SweepSpec,
    dstar_below_threshold,
    format_csv,
    minimax_lower_bound,
    snr_threshold,
    sweep_rows,
    uncoded_distortion,
    write_sweep_csv,
)


def test_header_and_shape(tmp_path):
    spec = SweepSpec(rho_grid=(0.2, 0.5), snr_grid=(0.1, 1.0), sigma2=1.0)
    path = tmp_path / "out.csv"
    rows = write_sweep_csv(spec, path)
    text = path.read_text(encoding="utf-8")
    lines = text.split("\n")
    assert lines[0] == "rho,snr,threshold_snr,below_threshold,lower_bound,rho_star,d_uncoded,dstar_or_blank"
    assert len(rows) == 4
    assert len(lines) == 6          # header + 4 rows + trailing newline
    assert lines[-1] == ""
    assert "\r" not in text


def test_threshold_row_all_equal():
    thr = snr_threshold(SourceParams(1.0, 0.5))
    spec = SweepSpec(rho_grid=(0.5,), snr_grid=(thr,))
    row = sweep_rows(spec)[0]
    assert row["below_threshold"] is True
    assert row["lower_bound"] == pytest.approx(0.5, abs=1e-9)
    assert row["d_uncoded"] == pytest.approx(0.5, abs=1e-12)
    assert row["dstar_or_blank"] == pytest.approx(0.5, abs=1e-12)


def test_rho_zero_rows_have_blank_dstar():
    spec = SweepSpec(rho_grid=(0.0, -0.0), snr_grid=(0.1, 1.0, 5.0))
    for row in sweep_rows(spec):
        assert row["threshold_snr"] == 0.0
        assert row["below_threshold"] is False
        assert row["dstar_or_blank"] is None
    text = format_csv(sweep_rows(spec))
    for line in text.strip().split("\n")[1:]:
        assert line.split(",")[2] == "0.0"  # +0.0 at rho = -0.0 too
        assert line.endswith(",")    # empty final cell


def test_rows_match_library_calls():
    # A row holds the library values at any (p, n0) with p / n0 = snr;
    # 0.2 * 0.5 / 0.5 == 0.2 exactly.
    spec = SweepSpec(rho_grid=(0.3,), snr_grid=(0.2,), sigma2=2.0)
    row = sweep_rows(spec)[0]
    src = SourceParams(2.0, 0.3)
    for n0 in (1.0, 0.5):
        p = 0.2 * n0
        res = minimax_lower_bound(src, p, n0)
        assert row["lower_bound"] == res.lower_bound
        assert row["rho_star"] == res.rho_star
        assert row["d_uncoded"] == uncoded_distortion(src, p, n0)
        assert row["dstar_or_blank"] == dstar_below_threshold(src, p, n0)


def test_csv_cells_full_precision():
    spec = SweepSpec(rho_grid=(0.2,), snr_grid=(1.0 / 3.0,))
    text = format_csv(sweep_rows(spec))
    cells = text.strip().split("\n")[1].split(",")
    assert cells[0] == "0.2"
    assert cells[1] == repr(1.0 / 3.0)
    assert float(cells[4]) == sweep_rows(spec)[0]["lower_bound"]


def test_byte_identical_between_runs(tmp_path):
    spec = SweepSpec(rho_grid=(0.1, 0.6), snr_grid=(0.25, 2.0))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_sweep_csv(spec, a)
    write_sweep_csv(spec, b)
    assert a.read_bytes() == b.read_bytes()


def test_write_failure_carries_path(tmp_path):
    spec = SweepSpec(rho_grid=(0.1,), snr_grid=(1.0,))
    missing = tmp_path / "no" / "such" / "dir" / "x.csv"
    with pytest.raises(OSError, match="x.csv"):
        write_sweep_csv(spec, missing)


@pytest.mark.parametrize("kwargs", [
    {"rho_grid": (), "snr_grid": (1.0,)},
    {"rho_grid": (0.5,), "snr_grid": ()},
    {"rho_grid": (1.0,), "snr_grid": (1.0,)},        # rho = 1 has no finite threshold
    {"rho_grid": (-0.2,), "snr_grid": (1.0,)},
    {"rho_grid": (0.5,), "snr_grid": (0.0,)},
    {"rho_grid": (0.5,), "snr_grid": (math.inf,)},
    {"rho_grid": (0.5,), "snr_grid": (1.0,), "sigma2": 0.0},
])
def test_spec_validation(kwargs):
    with pytest.raises(ParameterError):
        SweepSpec(**kwargs)


def test_spec_is_the_grids_and_the_variance():
    # The rows depend on the powers through snr = p / n0 alone, so the
    # spec carries no noise variance.
    assert [f.name for f in dataclasses.fields(SweepSpec)] == ["rho_grid", "snr_grid", "sigma2"]


def test_columns_constant_matches_contract():
    assert COLUMNS == (
        "rho", "snr", "threshold_snr", "below_threshold",
        "lower_bound", "rho_star", "d_uncoded", "dstar_or_blank",
    )


def test_one_minimax_call_per_grid_point(monkeypatch):
    # The benchmark's tracer counts sweep work as minimax_lower_bound calls
    # through gmacfb.sweep; the sweep must keep making one per point.
    import gmacfb.sweep

    spec = SweepSpec(rho_grid=(0.0, 0.4, 0.8), snr_grid=(0.01, 0.3, 2.0, 50.0), sigma2=2.5)
    expected = format_csv(sweep_rows(spec))
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return minimax_lower_bound(*args, **kwargs)

    monkeypatch.setattr(gmacfb.sweep, "minimax_lower_bound", counting)
    assert format_csv(sweep_rows(spec)) == expected
    assert len(calls) == 12
    assert [args[1:] for args in calls] == [(snr, 1.0) for _ in spec.rho_grid for snr in spec.snr_grid]
