"""Distortion bounds and simulation for correlated Gaussian sources on a
two-user Gaussian multiple-access channel with causal feedback.

Importing it does not import numpy: the closed forms use only `math`, and
the simulator's names load `gmacfb.simulate`, and numpy, on first access.
"""

from .bounds import (
    BoundResult,
    FeasibilityResult,
    below_snr_threshold,
    check_feasibility,
    dstar_below_threshold,
    endpoint_snr_threshold,
    minimax_lower_bound,
    single_user_curve,
    sum_rate_curve,
    uncoded_distortion,
)
from .model import (
    DEFAULT_SEED,
    ChannelParams,
    DistortionPair,
    ParameterError,
    SimulationError,
    SourceParams,
    snr_threshold,
)
from .rate_distortion import (
    Region,
    classify_region,
    conditional_rd,
    diagonal_branch_rate,
    joint_rd,
    symmetric_joint_rd_inverse,
)
from .sweep import COLUMNS, SweepSpec, format_csv, sweep_rows, write_sweep_csv

# Resolved on first access (PEP 562), never cached: always simulate's objects.
_SIMULATE_NAMES = ("SimConfig", "SimReport", "simulate_uncoded")


def __getattr__(name: str):
    if name in _SIMULATE_NAMES:
        from . import simulate

        return getattr(simulate, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_SIMULATE_NAMES})

__all__ = [
    "BoundResult",
    "COLUMNS",
    "ChannelParams",
    "DEFAULT_SEED",
    "DistortionPair",
    "FeasibilityResult",
    "ParameterError",
    "Region",
    "SimConfig",
    "SimReport",
    "SimulationError",
    "SourceParams",
    "SweepSpec",
    "below_snr_threshold",
    "check_feasibility",
    "classify_region",
    "conditional_rd",
    "diagonal_branch_rate",
    "dstar_below_threshold",
    "endpoint_snr_threshold",
    "format_csv",
    "joint_rd",
    "minimax_lower_bound",
    "simulate_uncoded",
    "single_user_curve",
    "snr_threshold",
    "sum_rate_curve",
    "sweep_rows",
    "symmetric_joint_rd_inverse",
    "uncoded_distortion",
    "write_sweep_csv",
]
