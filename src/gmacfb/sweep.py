"""Parameter sweeps over (rho, SNR) written as stable CSV.

One row per grid point, fixed column order, '.' decimals, LF line endings,
full double precision (shortest round-trip float repr). The bounds depend
on the powers through p/n0 alone, so each row is a function of
(rho, snr, sigma2) only and is evaluated at p = snr, n0 = 1. The dstar
column is filled only where the SNR is at or below the uncoded-optimality
threshold; above it the exact optimum is unknown and the cell stays blank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .bounds import below_snr_threshold, minimax_lower_bound, uncoded_distortion
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
    """Evaluate the grid; one dict per (rho, snr) with all column values."""
    rows = []
    for rho in spec.rho_grid:
        source = SourceParams(spec.sigma2, rho)
        thr = snr_threshold(source)
        for snr in spec.snr_grid:
            below = below_snr_threshold(source, snr, 1.0)
            bound = minimax_lower_bound(source, snr, 1.0)
            d_u = uncoded_distortion(source, snr, 1.0)
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
    true/false, a missing dstar as an empty cell."""
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


def write_sweep_csv(spec: SweepSpec, path: str | Path) -> list[dict]:
    """Run the sweep and write it to path; returns the rows for reuse."""
    rows = sweep_rows(spec)
    text = format_csv(rows)
    try:
        Path(path).write_text(text, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise OSError(f"cannot write sweep CSV to {path}: {exc}") from exc
    return rows
