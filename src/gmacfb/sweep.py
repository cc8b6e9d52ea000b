"""Parameter sweeps over (rho, SNR) written as stable CSV.

One row per grid point, fixed column order, '.' decimals, LF line endings,
full double precision (shortest round-trip float repr). The bounds depend
on the powers through p/n0 alone, so each row is a function of
(rho, snr, sigma2) only and is evaluated at p = snr, n0 = 1. The dstar
column is filled only where the SNR is at or below the uncoded-optimality
threshold; above it the exact optimum is unknown and the cell stays blank.

Each point is validated once, by its minimax_lower_bound call. The text
of a grid value is formed once per float object and reused for every row
that holds that object: a table keyed by value would print -0.0 where a
row holds 0.0, or the reverse, since the two compare equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .bounds import _at_or_below, _uncoded_unit, minimax_lower_bound
from .model import ParameterError, SourceParams, _check_positive_finite, snr_threshold

__all__ = ["COLUMNS", "SweepSpec", "format_csv", "sweep_rows", "write_sweep_csv"]

COLUMNS = (
    "rho",
    "snr",
    "threshold_snr",
    "below_threshold",
    "lower_bound",
    "rho_star",
    "d_uncoded",
    "dstar_or_blank",
)


@dataclass(frozen=True)
class SweepSpec:
    """Grid of correlations and SNRs to evaluate at fixed sigma2."""

    rho_grid: tuple[float, ...]
    snr_grid: tuple[float, ...]
    sigma2: float = 1.0

    def __post_init__(self) -> None:
        if not self.rho_grid or not self.snr_grid:
            raise ParameterError("rho and snr grids must be nonempty")
        for rho in self.rho_grid:
            if not (math.isfinite(rho) and 0.0 <= rho < 1.0):
                raise ParameterError("rho grid values must lie in [0, 1)")
        for snr in self.snr_grid:
            _check_positive_finite("snr grid values", snr)
        _check_positive_finite("sigma2", self.sigma2)


def sweep_rows(spec: SweepSpec) -> list[dict]:
    """Evaluate the grid; one dict per (rho, snr) with all column values.

    Each point is validated once, by its minimax_lower_bound call at
    p = snr, n0 = 1; the threshold flag and the uncoded distortion then
    come from their kernels, with the bits of below_snr_threshold and
    uncoded_distortion at that (p, n0)."""
    rows = []
    sigma2 = spec.sigma2
    for rho in spec.rho_grid:
        source = SourceParams(sigma2, rho)
        thr = snr_threshold(source)
        for snr in spec.snr_grid:
            bound = minimax_lower_bound(source, snr, 1.0)
            below = _at_or_below(snr, thr)
            d_u = sigma2 * _uncoded_unit(rho, snr)
            rows.append({
                "rho": rho,
                "snr": snr,
                "threshold_snr": thr,
                "below_threshold": below,
                "lower_bound": bound.lower_bound,
                "rho_star": bound.rho_star,
                "d_uncoded": d_u,
                "dstar_or_blank": d_u if below else None,  # uncoded is optimal there
            })
    return rows


def format_csv(rows: list[dict]) -> str:
    """One line per row in COLUMNS order: floats as repr, the flag as
    true/false, a missing dstar as an empty cell.

    A grid value is formatted once per float object, not once per row: the
    rho and threshold_snr cells while they are the previous row's objects,
    the snr cells in a table keyed by object identity, and dstar_or_blank
    by d_uncoded's text when it is that object. Never by value, since
    0.0 == -0.0 and the two print differently."""
    lines = [",".join(COLUMNS)]
    rho = thr = object()  # no row's value
    # id(snr) -> (snr, its text); holding the object keeps its id unique.
    snr_cells: dict[int, tuple[float, str]] = {}
    for row in rows:
        if row["rho"] is not rho:
            rho = row["rho"]
            rho_cell = repr(rho)
        if row["threshold_snr"] is not thr:
            thr = row["threshold_snr"]
            thr_cell = repr(thr)
        snr = row["snr"]
        cell = snr_cells.get(id(snr))
        if cell is None:
            cell = snr_cells[id(snr)] = (snr, repr(snr))
        d_u, dstar = row["d_uncoded"], row["dstar_or_blank"]
        d_cell = repr(d_u)
        dstar_cell = "" if dstar is None else d_cell if dstar is d_u else repr(dstar)
        lines.append(
            f"{rho_cell},{cell[1]},{thr_cell},{'true' if row['below_threshold'] else 'false'},"
            f"{row['lower_bound']!r},{row['rho_star']!r},{d_cell},{dstar_cell}"
        )
    return "\n".join(lines) + "\n"


def write_sweep_csv(spec: SweepSpec, path: str | Path) -> list[dict]:
    """Run the sweep and write it to path; returns the rows for reuse."""
    rows = sweep_rows(spec)
    text = format_csv(rows)
    try:
        Path(path).write_text(text, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise OSError(f"cannot write sweep CSV to {path}: {exc}") from exc
    return rows
