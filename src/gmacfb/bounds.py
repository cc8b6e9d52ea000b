"""Converse machinery: what no coding scheme, feedback or not, can beat.

The free parameter throughout is rho_tilde, the normalized time-averaged
correlation between the two transmitters' channel inputs. For any scheme,
the source description rates must fit under three caps on the channel's
information flow, in bits:

  * sum rate: R(D1, D2) <= 1/2 log2(1 + (p1 + p2 + 2 rho_tilde sqrt(p1 p2)) / n0),
  * user 1:   R(D1 | s2) <= 1/2 log2(1 + p1 (1 - rho_tilde^2) / n0),
  * user 2:   R(D2 | s1) <= 1/2 log2(1 + p2 (1 - rho_tilde^2) / n0).

Correlated inputs raise the sum-rate cap and lower the per-user caps.
These conditions yield:

  * a feasibility test for an arbitrary distortion pair
    (`check_feasibility`), and
  * in the equal-power, equal-distortion case, two distortion lower-bound
    curves: `sum_rate_curve` (decreasing in rho_tilde, from the sum-rate
    cap) and `single_user_curve` (increasing, from the per-user cap).

No scheme can beat both curves at its own operating rho_tilde, so the
minimax over rho_tilde in [0, 1] is a valid lower bound on the optimal
distortion (`minimax_lower_bound`). Below the SNR threshold
rho / (1 - rho^2), uncoded transmission is exactly optimal and
`dstar_below_threshold` returns the optimum in closed form; above it only
the lower bound and the uncoded upper bound `uncoded_distortion` are
reported.
Every distortion is the unit-variance value times sigma2, taken last.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import (
    ChannelParams,
    DistortionPair,
    ParameterError,
    SourceParams,
    _check_power_noise,
    _log2_ratio,
    _one_minus_rho2,
    snr_threshold,
)
from .rate_distortion import conditional_rd, joint_rd

__all__ = ["BoundResult", "FeasibilityResult", "below_snr_threshold", "check_feasibility", "dstar_below_threshold",
           "endpoint_snr_threshold", "minimax_lower_bound", "single_user_curve", "sum_rate_curve", "uncoded_distortion"]

# Absolute slack, in rho_tilde units, when deciding whether the feasible
# interval is empty. Exactly-tight instances otherwise flip to infeasible
# on the last rounding of the interval endpoints.
_INTERVAL_SLACK = 1e-9

# Slack by which each rate is lowered before the rate conditions are
# inverted: this many bits, and this fraction of the rate. A distortion
# rounded by an ulp moves its rate by about 1e-16 bits, and at low SNR the
# uncoded pair meets the per-user cap within that, so an unslackened test
# calls it unreachable on the last rounding.
_RATE_SLACK = 1e-14

# Relative slack for "at or below the SNR threshold" comparisons, so that a
# boundary point recomputed from the threshold (a p, n0 pair whose ratio
# lands an ulp off it, or thr * j / 20) still counts as below.
_THRESHOLD_RTOL = 1e-12

_LN4 = math.log(4.0)

# Iteration cap of the minimax's Newton. Its steps take 3 to 25 iterations
# on a 100x100 sweep grid; where rounding swamps the curves' difference
# (p/n0 near 1e-16) halving closes the bracket in about 55.
_NEWTON_CAP = 100


@dataclass(frozen=True)
class FeasibilityResult:
    """Outcome of the necessary-condition test for a distortion pair.

    rho_interval is the set of input correlations under which all three
    rate conditions hold; it is empty exactly when feasible is False.
    """

    feasible: bool
    rho_interval: tuple[float, float] | None
    witness: float | None


@dataclass(frozen=True)
class BoundResult:
    """Minimax distortion lower bound and where the minimax sits.

    active: "endpoint" when the minimum is at rho_tilde = 1 (both curves
    evaluated there, the decreasing one still on top), "crossing" when it
    is at the intersection of the two curves, where they are equal.
    """

    lower_bound: float
    rho_star: float
    active: str


def _check_rho_tilde(rho_tilde: float) -> float:
    rt = float(rho_tilde)
    if not 0.0 <= rt <= 1.0:  # also rejects nan
        raise ParameterError("rho_tilde out of range [0, 1]")
    return rt


def _pow4m1(r: float) -> float:
    """4^r - 1, through expm1 so that small rates keep their digits,
    saturating to +inf where the power overflows a float."""
    try:
        return math.expm1(r * _LN4)
    except OverflowError:
        return math.inf


def check_feasibility(source: SourceParams, channel: ChannelParams, d: DistortionPair) -> FeasibilityResult:
    """Test whether any scheme could reach the distortion pair d.

    Inverts the three rate conditions in closed form. The sum-rate
    condition R(D1, D2) <= 1/2 log2(1 + (p1 + p2 + 2 rt sqrt(p1 p2)) / n0)
    lower-bounds rho_tilde; the per-user conditions
    R(Di | s_j) <= 1/2 log2(1 + p_i (1 - rt^2) / n0), i = 1, 2, upper-bound
    it, so the admissible set is an interval. The conditions are necessary
    only; an infeasible pair is certainly unreachable, a feasible one is not
    guaranteed reachable. Each rate is lowered by a rounding slack of about
    1e-14 bits first, so that a pair is never ruled out by the last ulp of
    its distortions.
    """
    # Written so that an infinite rate stays infinite.
    r_joint, r1, r2 = (
        (1.0 - _RATE_SLACK) * r - _RATE_SLACK
        for r in (joint_rd(source, d), conditional_rd(source, d.d1), conditional_rd(source, d.d2))
    )

    # Only the ratios p_i / n0 are formed, so scaling (p1, p2, n0) by a power
    # of two that keeps them normal changes nothing. Where 4^r - 1 overflows
    # it is 4^r to double precision, and its condition is compared on
    # log2(p_i / n0) instead, which is finite for any inputs.
    q_joint, q1, q2 = (_pow4m1(r) for r in (r_joint, r1, r2))

    # Per-user conditions: rt^2 <= 1 - (4^r_i - 1) n0 / p_i; a negative
    # radicand rules out every rho_tilde, and a zero rate bounds nothing.
    hi = 1.0
    for q_i, r_i, p_i in ((q1, r1, channel.p1), (q2, r2, channel.p2)):
        if q_i == math.inf:
            radicand = -_pow4m1(r_i - 0.5 * _log2_ratio(p_i, channel.n0))
        else:
            radicand = 1.0 - q_i * (channel.n0 / p_i) if q_i > 0.0 else 1.0
        if radicand < 0.0:
            return FeasibilityResult(False, None, None)
        hi = min(hi, math.sqrt(radicand))

    # Sum-rate condition: 4^r_joint - 1 <= s1 + s2 + 2 rt sqrt(s1 s2) with
    # s_i = p_i / n0, divided by the roots one at a time. Both s_i are finite
    # where the excess is positive; one that underflowed to 0 correlates nothing.
    s1, s2 = channel.p1 / channel.n0, channel.p2 / channel.n0
    if q_joint == math.inf:
        # Divide both sides by 2^m, m the larger log2(s_i), which leaves lo
        # as it is and both s_i at most 1.
        log_s = _log2_ratio(channel.p1, channel.n0), _log2_ratio(channel.p2, channel.n0)
        m = max(log_s)
        q_joint = _pow4m1(r_joint - 0.5 * m) + 1.0
        s1, s2 = (2.0 ** (x - m) for x in log_s)
    lo = max(q_joint - s1 - s2, 0.0)
    if lo > 0.0:
        lo = lo / (2.0 * math.sqrt(s1)) / math.sqrt(s2) if min(s1, s2) > 0.0 else math.inf

    # hi <= 1 always, so this also rejects lower endpoints above 1.
    if lo > hi + _INTERVAL_SLACK:
        return FeasibilityResult(False, None, None)
    lo = min(lo, hi)  # collapse sub-slack inversions to a point
    return FeasibilityResult(True, (lo, hi), 0.5 * (lo + hi))


def _sum_rate_unit(rho: float, snr: float, t: float) -> tuple[float, float]:
    """Unit-variance sum-rate curve at t = 1 + rho_tilde, and its slope in
    w = 1 - rho_tilde: the diagonal's inverse at the cap 4^R = den =
    1 + 2 snr t, in region B where den (1 - rho) < 1 + rho and else in
    region A, whose radicand is scaled by 2^600 and back (exact) so that it
    cannot underflow. The one copy of the formula and of its branch test:
    callers validate and scale by sigma2."""
    den = 1.0 + 2.0 * snr * t
    if den * (1.0 - rho) < 1.0 + rho:
        return 0.5 * ((1.0 + rho) / den + (1.0 - rho)), (1.0 + rho) * snr / (den * den)
    value = math.sqrt(_one_minus_rho2(rho) * 2.0 ** 600 / den) * 2.0 ** -300
    return value, value * snr / den


def _single_user_unit(a: float, snr: float, v: float) -> float:
    """Unit-variance single-user curve at v = 1 - rho_tilde^2, given
    a = 1 - rho^2 (`_one_minus_rho2`, formed once by the caller); the one
    copy of the formula."""
    return a / (1.0 + snr * v)


def _uncoded_unit(rho: float, snr: float) -> float:
    """Unit-variance distortion of uncoded transmission with conditional-mean
    decoding; the one copy of the formula."""
    return (snr * _one_minus_rho2(rho) + 1.0) / (2.0 * snr * (1.0 + rho) + 1.0)


def sum_rate_curve(source: SourceParams, p: float, n0: float, rho_tilde: float) -> float:
    """Distortion lower bound from the sum-rate condition, equal-power case.

    The exact sum-rate bound: the diagonal of the joint rate-distortion
    function inverted at the cap 1/2 log2(1 + 2 (p/n0)(1 + rho_tilde)), in
    region B below (1/2) log2((1 + rho)/(1 - rho)) and in region A above;
    the branches meet there with equal slope. Nonincreasing in rho_tilde,
    up to an ulp where the branch changes.
    """
    rt = _check_rho_tilde(rho_tilde)
    snr = _check_power_noise(p, n0)
    return source.sigma2 * _sum_rate_unit(source.rho, snr, 1.0 + rt)[0]


def single_user_curve(source: SourceParams, p: float, n0: float, rho_tilde: float) -> float:
    """Distortion lower bound from the per-user condition, equal-power case.

    Nondecreasing in rho_tilde: correlated inputs choke the private rate.
    """
    rt = _check_rho_tilde(rho_tilde)
    snr = _check_power_noise(p, n0)
    return source.sigma2 * _single_user_unit(_one_minus_rho2(source.rho), snr, 1.0 - rt * rt)


def endpoint_snr_threshold(source: SourceParams) -> float:
    """SNR below which the minimax sits at rho_tilde = 1 rather than at a
    crossing of the two curves: rho^2 / (2 (1 - rho) (1 + 2 rho))."""
    rho = source.rho
    return rho * rho / (2.0 * (1.0 - rho) * (1.0 + 2.0 * rho)) if rho < 1.0 else math.inf


def minimax_lower_bound(source: SourceParams, p: float, n0: float) -> BoundResult:
    """Lower bound on the best common distortion at equal powers.

    Minimizes max(sum_rate_curve, single_user_curve) over rho_tilde in
    [0, 1]. Since one curve is nonincreasing and the other nondecreasing,
    the minimum is at rho_tilde = 1 when p/n0 is at or below
    `endpoint_snr_threshold`, and otherwise at the unique crossing. A
    Newton iteration on the curves' difference in w = 1 - rho_tilde, which
    keeps the digits that rho_tilde loses near 1, finds the crossing; it
    halves the bracket [0, 1] whenever a step would leave it, and stops once
    a step is within 2 ulps of w or the bracket closes. The value is within
    4 ulps of the exact minimax for p/n0 from 1e-8 to 1e14 (tested against
    a 60-digit reference).

    p and n0 are validated once, here. The bracket ends rho_tilde = 0 and 1
    go through the public curves; every iterate, which lies in [0, 1] by
    construction, calls the private unit-variance kernels directly.
    """
    snr = _check_power_noise(p, n0)

    if snr <= endpoint_snr_threshold(source):
        return BoundResult(sum_rate_curve(source, p, n0, 1.0), 1.0, "endpoint")

    upper, lo_value = sum_rate_curve(source, p, n0, 0.0), single_user_curve(source, p, n0, 0.0)
    if upper <= lo_value:
        # The increasing curve already dominates at rho_tilde = 0, which
        # only rounding causes (snr and rho near 0): the minimax is there.
        return BoundResult(lo_value, 0.0, "crossing")
    hi_value, lower = sum_rate_curve(source, p, n0, 1.0), single_user_curve(source, p, n0, 1.0)
    if hi_value >= lower:
        # Numerically at the endpoint threshold despite the test above.
        return BoundResult(hi_value, 1.0, "endpoint")

    rho = source.rho
    a = _one_minus_rho2(rho)
    # Newton on g(w) = S - U in w = 1 - rho_tilde, where S and U are the
    # unit curves, kept inside the bracket [lo, hi] with g(lo) < 0 < g(hi).
    # The start is the crossing's high-SNR asymptote.
    lo, hi = 0.0, 1.0
    w = min(math.sqrt(a / snr), 0.5)
    for _ in range(_NEWTON_CAP):
        if not lo < w < hi:
            w = 0.5 * (lo + hi)
        t, v = 2.0 - w, w * (2.0 - w)
        (upper, d_upper), lower = _sum_rate_unit(rho, snr, t), _single_user_unit(a, snr, v)
        g = upper - lower
        if g < 0.0:
            lo = w
        elif g > 0.0:
            hi = w
        else:
            break
        step = g / (d_upper + 2.0 * snr * (1.0 - w) * lower / (1.0 + snr * v))
        if abs(step) <= 2.0 * math.ulp(w) or not lo < 0.5 * (lo + hi) < hi:
            break
        w -= step
    return BoundResult(source.sigma2 * upper, 1.0 - w, "crossing")


def _at_or_below(snr: float, threshold: float) -> bool:
    """snr <= threshold up to the relative slack _THRESHOLD_RTOL; the one
    copy of the rule. Callers validate snr."""
    return snr <= threshold * (1.0 + _THRESHOLD_RTOL)


def below_snr_threshold(source: SourceParams, p: float, n0: float) -> bool:
    """True when p/n0 is at or below the uncoded-optimality threshold
    (with a 1e-12 relative slack so recomputed boundary points count);
    always at rho = 1, where the threshold is infinite."""
    return _at_or_below(_check_power_noise(p, n0), snr_threshold(source))


def uncoded_distortion(source: SourceParams, p: float, n0: float) -> float:
    """Distortion of plain scaled transmission with conditional-mean decoding.

    Valid at any SNR as an achievable upper bound; it equals the optimum
    exactly when p/n0 is at or below the SNR threshold.
    """
    return source.sigma2 * _uncoded_unit(source.rho, _check_power_noise(p, n0))


def dstar_below_threshold(source: SourceParams, p: float, n0: float) -> float:
    """Exact minimal common distortion when p/n0 is at or below the SNR
    threshold, where uncoded transmission is optimal and feedback buys
    nothing. Raises above the threshold, where only bounds are known."""
    if not below_snr_threshold(source, p, n0):
        raise ParameterError("above threshold: D* unknown, only lower bound available")
    return uncoded_distortion(source, p, n0)
