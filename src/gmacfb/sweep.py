"""Parameter sweeps over (rho, SNR) written as stable CSV.

One row per grid point, fixed column order, '.' decimals, LF line endings,
full double precision (shortest round-trip float repr). The bounds depend
on the powers through p/n0 alone, so each row is a function of
(rho, snr, sigma2) only and is evaluated at p = snr, n0 = 1. The dstar
column is filled only where the SNR is at or below the uncoded-optimality
threshold; above it the exact optimum is unknown and the cell stays blank.

Each point is validated once, by its minimax_lower_bound call. The rows
run rho-major over the grid, so the CSV takes each rho and snr cell once
per grid value and the threshold cell once per rho, and a dstar cell is
the row's own d_uncoded text.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .bounds import _at_or_below, _uncoded_unit, minimax_lower_bound
from .model import ParameterError, SourceParams, _check_positive_finite, snr_threshold

__all__ = ["COLUMNS", "SweepSpec", "sweep_rows", "write_sweep_csv"]

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


def write_sweep_csv(spec: SweepSpec, path: str | Path) -> list[dict]:
    """Run the sweep and write it to path; returns the rows for reuse.

    One line per row in COLUMNS order: floats as repr, the flag as
    true/false, a missing dstar as an empty cell. The rows come rho-major
    from the spec's grid, one block of len(snr_grid) per rho, so each rho
    and snr cell is its grid value's repr, formed once, and the threshold
    cell is formed once per rho."""
    rows = sweep_rows(spec)
    snr_cells = [repr(snr) for snr in spec.snr_grid]
    lines = [",".join(COLUMNS)]
    for start in range(0, len(rows), len(snr_cells)):
        block = rows[start:start + len(snr_cells)]
        rho_cell, thr_cell = repr(block[0]["rho"]), repr(block[0]["threshold_snr"])
        for snr_cell, row in zip(snr_cells, block):
            d_cell = repr(row["d_uncoded"])
            # dstar_or_blank is d_uncoded where the flag is set, else None.
            flag, dstar_cell = ("true", d_cell) if row["below_threshold"] else ("false", "")
            lines.append(
                f"{rho_cell},{snr_cell},{thr_cell},{flag},"
                f"{row['lower_bound']!r},{row['rho_star']!r},{d_cell},{dstar_cell}"
            )
    try:
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise OSError(f"cannot write sweep CSV to {path}: {exc}") from exc
    return rows
