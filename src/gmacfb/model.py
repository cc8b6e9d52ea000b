"""Problem parameters: source statistics, channel constraints, distortion targets.

All types are immutable value objects validated at construction, so anything
downstream can assume its inputs are sane. Correlation is restricted to
[0, 1] and both source components share one variance; the general case
reduces to this one.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

__all__ = ["DEFAULT_SEED", "ChannelParams", "DistortionPair", "ParameterError", "SimulationError", "SourceParams",
           "snr_threshold"]

# Largest p/n0 accepted: the curves evaluate up to 1 + 4 p/n0.
_MAX_SNR = sys.float_info.max / 4.0

# Here, with SimulationError, so the CLI reads them without importing numpy.
DEFAULT_SEED = 123456789


class ParameterError(ValueError):
    """A parameter is outside its allowed domain."""


class SimulationError(RuntimeError):
    """A run produced an unusable statistic."""


def _check_positive_finite(name: str, value: float) -> None:
    """Raise ParameterError unless value is positive and finite."""
    if not (math.isfinite(value) and value > 0.0):
        raise ParameterError(f"{name} must be positive and finite")


def _check_power_noise(p: float, n0: float) -> float:
    """Validate a common power p and noise variance n0 and return
    snr = p / n0, through which alone the bounds and the simulator depend
    on them."""
    # Chained comparisons also reject nan; they run on every curve call.
    if not 0.0 < p < math.inf:
        raise ParameterError("p must be positive and finite")
    if not 0.0 < n0 < math.inf:
        raise ParameterError("n0 must be positive and finite")
    snr = p / n0
    if snr > _MAX_SNR:
        raise ParameterError("p / n0 too large: 4 p / n0 overflows")
    return snr


def _log2_ratio(a: float, b: float) -> float:
    """log2(a / b), finite for any positive finite a and b, and unchanged
    when both are scaled by one power of two, subnormals included."""
    (ma, ea), (mb, eb) = math.frexp(a), math.frexp(b)
    return math.log2(ma / mb) + (ea - eb)


def _one_minus_rho2(rho: float) -> float:
    """1 - rho^2 as (1 - rho)(1 + rho): accurate to a few ulps as rho -> 1,
    where 1 - rho * rho keeps no correct digit."""
    return (1.0 - rho) * (1.0 + rho)


@dataclass(frozen=True)
class SourceParams:
    """Memoryless bivariate Gaussian source with common variance.

    sigma2: per-component variance (source units squared).
    rho: correlation coefficient between the two components, in [0, 1].
    """

    sigma2: float
    rho: float

    def __post_init__(self) -> None:
        _check_positive_finite("variance", self.sigma2)
        if not (math.isfinite(self.rho) and 0.0 <= self.rho <= 1.0):
            raise ParameterError("rho out of range [0, 1]")


@dataclass(frozen=True)
class ChannelParams:
    """Two-user additive Gaussian channel: transmit powers and noise variance."""

    p1: float
    p2: float
    n0: float

    def __post_init__(self) -> None:
        for name, val in (("p1", self.p1), ("p2", self.p2), ("n0", self.n0)):
            _check_positive_finite(name, val)


@dataclass(frozen=True)
class DistortionPair:
    """Target mean squared errors for the two source components.

    Zero distortion would require infinite rate and is rejected outright.
    """

    d1: float
    d2: float

    def __post_init__(self) -> None:
        for name, val in (("d1", self.d1), ("d2", self.d2)):
            _check_positive_finite(name, val)


def snr_threshold(source: SourceParams) -> float:
    """SNR below which uncoded transmission is optimal: rho / (1 - rho^2).

    Strictly increasing in rho on [0, 1), and math.inf at rho = 1: for a
    fully correlated source uncoded transmission is optimal at every SNR.
    Never negative: rho = -0.0 gives +0.0 (adding +0.0 changes no other value).
    """
    if source.rho >= 1.0:
        return math.inf
    return source.rho / _one_minus_rho2(source.rho) + 0.0
