"""Rate-distortion functions of the symmetric bivariate Gaussian source.

Covers the joint description rate R(d1, d2) for one encoder observing both
components, the conditional rate when the other component is known at both
ends, and the closed-form inverse of the joint rate along the diagonal
d1 = d2. All rates are in bits per source pair.

The (d1, d2) plane splits into three regions:

  A: both targets bind and uncorrelated reconstruction errors are optimal;
  B: the targets are unbalanced enough that correlating the errors buys
     rate, which the squared cross term in the branch formula accounts for;
  C: the larger target is implied for free by meeting the smaller one, so
     only the smaller target costs rate.

Region C is written for "d2 large"; the mirrored case (d1 large) is folded
in so that the function is total and symmetric under swapping (d1, d2),
which equality of the component variances forces anyway. Targets above the
source variance are equivalent to the variance itself (estimating by the
mean already achieves it), so they are clamped before classification.
The region inequalities live once, in `_regions`, which takes floats or
arrays; `classify_region`, `joint_rd` and the verify suite read its masks.
The rates depend on the targets only through d / sigma2 and are computed
from it, so no sigma2^2 is ever formed.
"""

from __future__ import annotations

import enum
import math
import sys

from .model import DistortionPair, ParameterError, SourceParams, _check_positive_finite, _log2_ratio, _one_minus_rho2

__all__ = ["Region", "classify_region", "conditional_rd", "diagonal_branch_rate", "joint_rd",
           "symmetric_joint_rd_inverse"]


class Region(enum.Enum):
    """Which branch of the joint rate-distortion function applies."""

    A = "A"
    B = "B"
    C = "C"


def _unit_targets(source: SourceParams, d: DistortionPair) -> tuple[float, float]:
    """(d1, d2) / sigma2, clamped at 1."""
    return min(d.d1 / source.sigma2, 1.0), min(d.d2 / source.sigma2, 1.0)


def _log2_inverse(u: float, d: float, sigma2: float) -> float:
    """log2(1 / u) for the unit target u = min(d / sigma2, 1). Below the
    normal range u has lost digits or underflowed, and 1 / u may overflow,
    so the log is then taken from d and sigma2 by frexp: finite for any
    positive finite inputs."""
    return math.log2(1.0 / u) if u >= sys.float_info.min else -_log2_ratio(d, sigma2)


def _regions(rho: float, d1, d2):
    """Masks (in_a, in_c) of regions A and C at unit targets d1, d2 in
    (0, 1], floats or ndarrays; region B is the rest. C holds only where A
    fails. The one copy of the region inequalities: callers clamp the
    targets and read the masks."""
    cond_var = _one_minus_rho2(rho)
    # Region A in cross-multiplied form, symmetric and division-free:
    # d2 <= (1 - rho^2 - d1) / (1 - d1) on d1 <= 1 - rho^2.
    in_a = (d1 + d2) - d1 * d2 <= cond_var
    # Region C: max(d1, d2) > 1 - rho^2 + rho^2 min(d1, d2). Rounding is
    # monotone, so the disjunct with the smaller target on the left holds
    # only when the other does. in_a ^ True negates a bool and a bool array.
    in_c = (in_a ^ True) & ((d1 > cond_var + rho * rho * d2) | (d2 > cond_var + rho * rho * d1))
    return in_a, in_c


def classify_region(source: SourceParams, d: DistortionPair) -> Region:
    """Locate (d1, d2) in the region partition.

    Boundary points go to the first matching region in the order A, C, B
    (A is closed where its defining inequality is non-strict, C is open at
    its lower boundary, B takes the rest). The branch formulas agree on the
    boundaries, so the tie-break never changes a rate value.
    """
    if source.rho >= 1.0:
        # Region A is empty at rho = 1, yet its test holds in floats where
        # both unit targets underflow to 0. So decide from the targets as
        # given, clamped at sigma2: C where they differ, B where they are
        # equal, as joint_rd's rho = 1 branch picks the tighter one.
        s2 = source.sigma2
        return Region.B if min(d.d1, s2) == min(d.d2, s2) else Region.C
    in_a, in_c = _regions(source.rho, *_unit_targets(source, d))
    return Region.A if in_a else Region.C if in_c else Region.B


def joint_rd(source: SourceParams, d: DistortionPair) -> float:
    """Joint rate-distortion function R(d1, d2) in bits per source pair."""
    rho, s2 = source.rho, source.sigma2
    d1, d2 = _unit_targets(source, d)
    cond_var = _one_minus_rho2(rho)
    in_a, in_c = _regions(rho, d1, d2)
    if in_c or rho >= 1.0:
        # At rho = 1 the components are identical: describing the one with
        # the tighter target covers the other. The region-B formula
        # degenerates to 0/0 on the diagonal there, and this is its
        # continuity limit. Region A is empty at rho = 1 (in floats, it
        # holds only both targets underflowed to 0).
        return 0.5 * _log2_inverse(*min((d1, d.d1), (d2, d.d2)), s2)
    if in_a:
        prod = d1 * d2
        if prod < sys.float_info.min:
            # The product underflows; sum the logs instead.
            return 0.5 * (_log2_inverse(d1, d.d1, s2) + _log2_inverse(d2, d.d2, s2) + math.log2(cond_var))
        return 0.5 * math.log2(cond_var / prod)
    # Region B. den = d1 d2 - gap^2 with gap = rho - q, q = sqrt((1 - d1)(1 - d2)).
    # Written so, it cancels to nothing as rho -> 1. As the product
    # (a - gap)(a + gap), a = sqrt(d1 d2), each factor is formed from
    # terms that do not cancel: 1 - q = (d1 + d2 - d1 d2) / (1 + q), and
    # a - gap = (1 - rho) - (1 - a - q), where (a + q)^2 + w^2 = 1 for
    # w = sqrt(d1 (1 - d2)) - sqrt(d2 (1 - d1)).
    q = math.sqrt((1.0 - d1) * (1.0 - d2))
    gap = (d1 + d2 - d1 * d2) / (1.0 + q) - (1.0 - rho)
    w = math.sqrt(d1 * (1.0 - d2)) - math.sqrt(d2 * (1.0 - d1))
    den = ((1.0 - rho) - w * w / (1.0 + math.sqrt(1.0 - w * w))) * (math.sqrt(d1 * d2) + gap)
    if den <= 0.0:
        raise ArithmeticError("inconsistent region evaluation")
    return 0.5 * math.log2(cond_var / den)


def conditional_rd(source: SourceParams, d: float) -> float:
    """Rate to describe one component at MSE d when the other is known.

    Equals half the log of conditional variance over target, floored at
    zero once the target exceeds the conditional variance s2 * (1 - rho^2).
    """
    _check_positive_finite("d", d)
    u = d / source.sigma2
    cond_var = _one_minus_rho2(source.rho)
    if u >= cond_var:
        return 0.0
    if u < sys.float_info.min:
        # Below the normal range; see _log2_inverse.
        return 0.5 * (math.log2(cond_var) + _log2_inverse(u, d, source.sigma2))
    return 0.5 * math.log2(cond_var / u)


def diagonal_branch_rate(source: SourceParams) -> float:
    """Rate at which the diagonal d1 = d2 crosses from region B into A.

    The crossing sits at d = s2 * (1 - rho); for rho = 1 the diagonal never
    reaches region A and the returned rate is infinite.
    """
    if source.rho >= 1.0:
        return math.inf
    return 0.5 * math.log2((1.0 + source.rho) / (1.0 - source.rho))


def symmetric_joint_rd_inverse(source: SourceParams, rate: float) -> float:
    """Smallest d with R(d, d) <= rate, via the closed-form branch inverses.

    High rates land in region A where d = s2 * sqrt(1 - rho^2) * 2^-rate;
    low rates in region B where d = (s2 (1+rho) 4^-rate + s2 (1-rho)) / 2.
    """
    if not (math.isfinite(rate) and rate >= 0.0):
        raise ParameterError("rate must be nonnegative and finite")
    s2 = source.sigma2
    rho = source.rho
    if rate >= diagonal_branch_rate(source):
        return s2 * math.sqrt(_one_minus_rho2(rho)) * 2.0 ** (-rate)
    return 0.5 * s2 * ((1.0 + rho) * 2.0 ** (-2.0 * rate) + (1.0 - rho))
