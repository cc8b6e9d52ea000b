import dataclasses
import math
import random

import pytest

from gmacfb import (
    COLUMNS,
    ParameterError,
    SourceParams,
    SweepSpec,
    below_snr_threshold,
    dstar_below_threshold,
    format_csv,
    minimax_lower_bound,
    snr_threshold,
    sweep_rows,
    uncoded_distortion,
    write_sweep_csv,
)


def reference_format_csv(rows):
    """format_csv as it was before it formatted each float object once: one
    f-string per row, every float through repr."""
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


class TestFormatCsvMatchesReference:
    """format_csv formats a float object once and reuses the text; the text
    must equal the one-repr-per-cell reference on any rows, not only on the
    rho-major order that sweep_rows produces."""

    SPEC = SweepSpec(rho_grid=(0.0, 0.2, 0.5, 0.9), snr_grid=(1e-3, 0.1, 0.5, 2.0, 40.0), sigma2=2.5)

    def test_sweep_rows_in_order(self):
        rows = sweep_rows(self.SPEC)
        assert format_csv(rows) == reference_format_csv(rows)

    @pytest.mark.parametrize("seed", range(5))
    def test_shuffled_rows(self, seed):
        rows = sweep_rows(self.SPEC)
        random.Random(seed).shuffle(rows)
        assert format_csv(rows) == reference_format_csv(rows)

    def test_two_concatenated_sweeps(self):
        other = SweepSpec(rho_grid=(0.2, 0.7), snr_grid=(0.5, 3.0), sigma2=1e-300)
        rows = sweep_rows(self.SPEC) + sweep_rows(other) + sweep_rows(self.SPEC)
        assert format_csv(rows) == reference_format_csv(rows)

    def test_equal_valued_distinct_objects(self):
        # float("0.1") makes a new object each time; each row's cells must
        # still read as its own values.
        rows = sweep_rows(self.SPEC)
        for row in rows:
            for key in ("rho", "snr", "threshold_snr", "d_uncoded"):
                row[key] = float(repr(row[key]))
        assert format_csv(rows) == reference_format_csv(rows)

    def test_rows_from_a_generator(self):
        # Each row's snr is a new object, freed once its row is formatted
        # unless format_csv holds it; a freed float's id is soon reused by
        # the next one, so a table of ids alone would print a stale value.
        rows = sweep_rows(self.SPEC)
        text = format_csv(dict(row, snr=float(repr(row["snr"] * (i + 1)))) for i, row in enumerate(rows))
        assert text == reference_format_csv([dict(row, snr=row["snr"] * (i + 1)) for i, row in enumerate(rows)])

    def test_signed_zeros_in_rho_and_snr(self):
        # 0.0 == -0.0 but they print differently, so a table keyed by value
        # would give one of them the other's text.
        base = sweep_rows(SweepSpec(rho_grid=(0.0,), snr_grid=(1.0,)))[0]
        pos, neg = 0.0, -0.0
        rows = [dict(base, rho=rho, snr=snr) for rho in (pos, neg, pos) for snr in (pos, neg, neg, pos)]
        text = format_csv(rows)
        assert text == reference_format_csv(rows)
        cells = [line.split(",")[:2] for line in text.split("\n")[1:-1]]
        assert cells[:4] == [["0.0", "0.0"], ["0.0", "-0.0"], ["0.0", "-0.0"], ["0.0", "0.0"]]
        assert cells[4][0] == "-0.0" and cells[8][0] == "0.0"

    def test_rho_kept_with_a_new_threshold(self):
        rows = sweep_rows(self.SPEC)
        for i, row in enumerate(rows):
            row["threshold_snr"] = float(i)
        assert format_csv(rows) == reference_format_csv(rows)

    @pytest.mark.parametrize("dstar", ["none", "d_uncoded", "equal", "other"])
    def test_dstar_cell(self, dstar):
        rows = sweep_rows(self.SPEC)
        for row in rows:
            d_u = row["d_uncoded"]
            row["dstar_or_blank"] = {
                "none": None, "d_uncoded": d_u, "equal": float(repr(d_u)), "other": d_u * 0.75,
            }[dstar]
        text = format_csv(rows)
        assert text == reference_format_csv(rows)
        if dstar == "other":
            assert all(line.split(",")[-1] == repr(row["d_uncoded"] * 0.75)
                       for line, row in zip(text.split("\n")[1:], rows))
