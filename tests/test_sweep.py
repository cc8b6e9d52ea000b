import dataclasses
import math

import pytest

from gmacfb import (
    COLUMNS,
    ParameterError,
    SourceParams,
    SweepSpec,
    below_snr_threshold,
    dstar_below_threshold,
    minimax_lower_bound,
    snr_threshold,
    sweep_rows,
    uncoded_distortion,
    write_sweep_csv,
)


def reference_format_csv(rows):
    """The sweep CSV as one f-string per row, every float through repr."""
    lines = [",".join(COLUMNS)]
    for row in rows:
        dstar = row["dstar_or_blank"]
        lines.append(
            f"{row['rho']!r},{row['snr']!r},{row['threshold_snr']!r},"
            f"{'true' if row['below_threshold'] else 'false'},"
            f"{row['lower_bound']!r},{row['rho_star']!r},{row['d_uncoded']!r},"
            f"{'' if dstar is None else repr(dstar)}"
        )
    return "\n".join(lines) + "\n"


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


def _csv_text(spec, tmp_path):
    path = tmp_path / "sweep.csv"
    write_sweep_csv(spec, path)
    return path.read_text(encoding="utf-8")


def test_rho_zero_rows_have_blank_dstar(tmp_path):
    spec = SweepSpec(rho_grid=(0.0, -0.0), snr_grid=(0.1, 1.0, 5.0))
    for row in sweep_rows(spec):
        assert row["threshold_snr"] == 0.0
        assert row["below_threshold"] is False
        assert row["dstar_or_blank"] is None
    text = _csv_text(spec, tmp_path)
    for line in text.strip().split("\n")[1:]:
        assert line.split(",")[2] == "0.0"  # +0.0 at rho = -0.0 too
        assert line.endswith(",")    # empty final cell


def test_rows_match_library_calls():
    # A row holds the library values at any (p, n0) with p / n0 = snr;
    # halving p and n0 together keeps the ratio exactly. The grid holds both
    # zeros, the slackened threshold of rho = 0.3 and the float above it, so
    # the flag and dstar change between two adjacent SNRs there.
    thr = snr_threshold(SourceParams(2.5, 0.3))
    edge = thr * (1.0 + 1e-12)
    spec = SweepSpec(rho_grid=(0.0, -0.0, 0.3, 0.75),
                     snr_grid=(1e-3, 0.2, edge, math.nextafter(edge, math.inf), 4.0, 1e3), sigma2=2.5)
    rows = sweep_rows(spec)
    assert len(rows) == 24
    for row in rows:
        src = SourceParams(2.5, row["rho"])
        assert row["threshold_snr"] == snr_threshold(src)
        for n0 in (1.0, 0.5):
            p = row["snr"] * n0
            res = minimax_lower_bound(src, p, n0)
            assert (row["lower_bound"], row["rho_star"]) == (res.lower_bound, res.rho_star)
            assert row["below_threshold"] is below_snr_threshold(src, p, n0)
            assert row["d_uncoded"] == uncoded_distortion(src, p, n0)
            if row["below_threshold"]:
                assert row["dstar_or_blank"] == dstar_below_threshold(src, p, n0)
            else:
                assert row["dstar_or_blank"] is None
                with pytest.raises(ParameterError, match="above threshold"):
                    dstar_below_threshold(src, p, n0)
    flags = [row["below_threshold"] for row in rows if row["rho"] == 0.3]
    assert flags == [True, True, True, False, False, False]


def test_csv_cells_full_precision(tmp_path):
    spec = SweepSpec(rho_grid=(0.2,), snr_grid=(1.0 / 3.0,))
    text = _csv_text(spec, tmp_path)
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


def test_one_minimax_call_per_grid_point(monkeypatch, tmp_path):
    # The benchmark's tracer counts sweep work as minimax_lower_bound calls
    # through gmacfb.sweep; the sweep must keep making one per point.
    import gmacfb.sweep

    spec = SweepSpec(rho_grid=(0.0, 0.4, 0.8), snr_grid=(0.01, 0.3, 2.0, 50.0), sigma2=2.5)
    expected = _csv_text(spec, tmp_path)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return minimax_lower_bound(*args, **kwargs)

    monkeypatch.setattr(gmacfb.sweep, "minimax_lower_bound", counting)
    assert _csv_text(spec, tmp_path) == expected
    assert len(calls) == 12
    assert [args[1:] for args in calls] == [(snr, 1.0) for _ in spec.rho_grid for snr in spec.snr_grid]


_EDGE = snr_threshold(SourceParams(2.5, 0.3)) * (1.0 + 1e-12)
_TENTH = 0.1


@pytest.mark.parametrize("spec", [
    SweepSpec(rho_grid=(0.0, 0.2, 0.5, 0.9), snr_grid=(1e-3, 0.1, 0.5, 2.0, 40.0), sigma2=2.5),
    SweepSpec(rho_grid=(0.0, -0.0, 0.3, -0.0), snr_grid=(0.05, 1.0), sigma2=2.5),
    # One object twice, and equal values held by distinct objects.
    SweepSpec(rho_grid=(0.2, 0.7), snr_grid=(_TENTH, 3.0, _TENTH, float("0.1"), float("0.1")), sigma2=1e-300),
    # dstar is d_uncoded at the first SNR and blank at the next float.
    SweepSpec(rho_grid=(0.3,), snr_grid=(_EDGE, math.nextafter(_EDGE, math.inf)), sigma2=2.5),
], ids=["in-order", "signed-zero-rho", "repeated-snr", "threshold-edge"])
def test_csv_is_the_reference_text(spec, tmp_path):
    text = _csv_text(spec, tmp_path)
    assert text == reference_format_csv(sweep_rows(spec))
    if spec.snr_grid[0] is _EDGE:
        below, above = (line.split(",") for line in text.split("\n")[1:3])
        assert below[3] == "true" and below[7] == below[6]
        assert above[3] == "false" and above[7] == ""


class TestFormatCsvMatchesReference:
    """The dstar cell of the sweep CSV equals the one-repr-per-cell reference:
    the row's d_uncoded text on a grid wholly at or below the threshold,
    blank on a grid wholly above it."""

    SPECS = {
        # Thresholds at sigma2 2.5: 0.208 (rho 0.2), 0.667 (0.5), 4.74 (0.9).
        "d_uncoded": SweepSpec(rho_grid=(0.2, 0.5, 0.9), snr_grid=(1e-3, 0.01, 0.1, 0.2), sigma2=2.5),
        "none": SweepSpec(rho_grid=(0.0, -0.0, 0.2, 0.5, 0.9), snr_grid=(5.0, 40.0, 1e3), sigma2=2.5),
    }

    @pytest.mark.parametrize("dstar", ["none", "d_uncoded"])
    def test_dstar_cell(self, dstar, tmp_path):
        spec = self.SPECS[dstar]
        rows = sweep_rows(spec)
        text = _csv_text(spec, tmp_path)
        assert text == reference_format_csv(rows)
        cells = [line.split(",") for line in text.split("\n")[1:-1]]
        assert len(cells) == len(rows)
        for cell, row in zip(cells, rows):
            if dstar == "none":
                assert row["dstar_or_blank"] is None
                assert cell[3] == "false" and cell[7] == ""
            else:
                assert row["dstar_or_blank"] == row["d_uncoded"]
                assert cell[3] == "true" and cell[7] == cell[6] == repr(row["d_uncoded"])
