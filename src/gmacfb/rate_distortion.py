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
The region inequalities live once, in `_regions`, and the three branch
formulas once, in `_joint_rd_unit`; both take floats or arrays.
`classify_region`, the kernel, `joint_rd` (where the product of the targets
underflows) and the verify suite's partition check read the masks.
`joint_rd` calls the kernel on floats, and the verify suite's dominance
check on chunks of its grid; numpy is imported only in the array path. The
rates depend on the targets only through d / sigma2 and are computed
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


def _joint_rd_unit(rho: float, d1, d2):
    """R(d1, d2) in bits at unit targets: the one copy of the three branch
    formulas. d1, d2 are floats, or 1-D ndarrays of one length, in (0, 1]
    with d1 d2 in the normal range, and 0 <= rho < 1; `joint_rd` takes the
    rest. An array holding a point outside that domain raises
    ParameterError.

    Each element of an array result equals the float result bit for bit:
    each branch takes the same operations on an array's points in its
    region as on a float, sqrt is correctly rounded in both paths, and
    every log is math.log2's (np.log2 can differ from it by an ulp).
    """
    scalar = isinstance(d1, float)
    if not scalar:
        import numpy as np  # here, so that importing the package loads no numpy

        # d1 > 0 and a positive product d1 d2 also make d2 positive.
        inside = ((d1 > 0.0) & (d1 <= 1.0) & (d2 <= 1.0)).all()
        if not (0.0 <= rho < 1.0 and inside and (d1 * d2 >= sys.float_info.min).all()):
            raise ParameterError("unit targets must lie in (0, 1] with a normal product, and rho in [0, 1)")
    in_a, in_c = _regions(rho, d1, d2)
    if scalar:
        sqrt, smaller = math.sqrt, min
        parts = (("C" if in_c else "A" if in_a else "B", d1, d2),)
    else:
        sqrt, smaller = np.sqrt, np.minimum
        masks = {"C": in_c, "A": in_a, "B": (in_a | in_c) ^ True}
        parts = [(region, d1[mask], d2[mask]) for region, mask in masks.items()]
        ratios = np.empty(d1.size)
    cond_var = _one_minus_rho2(rho)
    # Each branch forms the argument of 0.5 * log2 at the points in its region.
    for region, x1, x2 in parts:
        if region == "C":
            ratio = 1.0 / smaller(x1, x2)
        elif region == "A":
            ratio = cond_var / (x1 * x2)
        else:
            # den = x1 x2 - gap^2 with gap = rho - q, q = sqrt((1 - x1)(1 - x2)).
            # Written so, it cancels to nothing as rho -> 1. As the product
            # (a - gap)(a + gap), a = sqrt(x1 x2), each factor is formed from
            # terms that do not cancel: 1 - q = (x1 + x2 - x1 x2) / (1 + q), and
            # a - gap = (1 - rho) - (1 - a - q), where (a + q)^2 + w^2 = 1 for
            # w = sqrt(x1 (1 - x2)) - sqrt(x2 (1 - x1)).
            q = sqrt((1.0 - x1) * (1.0 - x2))
            gap = (x1 + x2 - x1 * x2) / (1.0 + q) - (1.0 - rho)
            w = sqrt(x1 * (1.0 - x2)) - sqrt(x2 * (1.0 - x1))
            den = ((1.0 - rho) - w * w / (1.0 + sqrt(1.0 - w * w))) * (sqrt(x1 * x2) + gap)
            if den <= 0.0 if scalar else (den <= 0.0).any():
                raise ArithmeticError("inconsistent region evaluation")
            ratio = cond_var / den
        if scalar:
            return 0.5 * math.log2(ratio)
        ratios[masks[region]] = ratio
    # math.log2 reads the points one at a time: a list of a chunk's floats
    # would churn the object heap, and the process keeps what that grows.
    return 0.5 * np.fromiter(map(math.log2, ratios), float, ratios.size)


def joint_rd(source: SourceParams, d: DistortionPair) -> float:
    """Joint rate-distortion function R(d1, d2) in bits per source pair."""
    rho, s2 = source.rho, source.sigma2
    d1, d2 = _unit_targets(source, d)
    if rho < 1.0 and d1 * d2 >= sys.float_info.min:
        return _joint_rd_unit(rho, d1, d2)
    # Left: rho = 1, or a product of the targets below the normal range,
    # where a target's log may need d and sigma2 (_log2_inverse).
    if rho >= 1.0 or not _regions(rho, d1, d2)[0]:
        # At rho = 1 the components are identical: describing the one with
        # the tighter target covers the other. The region-B formula
        # degenerates to 0/0 on the diagonal there, and this is its
        # continuity limit. Region A is empty at rho = 1 (in floats, it
        # holds only both targets underflowed to 0). Below rho = 1 this is
        # region C.
        return 0.5 * _log2_inverse(*min((d1, d.d1), (d2, d.d2)), s2)
    # Region A: the product underflows, so sum the logs instead. Region B
    # is empty here. Outside A the larger target is at least 2^-60 (else
    # d1 + d2 < 2^-59 < 1 - rho^2, which is at least 2^-53), so the
    # smaller is below 2^-962. Adding it to the larger, or rho^2 times it
    # to 1 - rho^2, rounds to no change. So outside A the larger target
    # exceeds 1 - rho^2, and outside C it does not.
    return 0.5 * (_log2_inverse(d1, d.d1, s2) + _log2_inverse(d2, d.d2, s2) + math.log2(_one_minus_rho2(rho)))


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
