"""Symbolic certificates for rewrites and derivations in the closed forms.

Each identity is reduced to 0 by sympy, so a wrong rewrite fails here at
the formula rather than at a sampled point. sympy is a test dependency
only: neither the package nor `verify` imports it.
"""

import pytest
import sympy
from sympy import groebner, symbols, together

from gmacfb.bounds import _single_user_unit

S1, C1, S2, C2, RHO = symbols("s1 c1 s2 c2 rho")
# Unit targets d_i = s_i^2 with 1 - d_i = c_i^2, s_i, c_i >= 0: identities
# hold modulo the ideal of s_i^2 + c_i^2 = 1, whose Groebner basis this is.
CIRCLE = groebner([S1**2 + C1**2 - 1, S2**2 + C2**2 - 1], S1, C1, S2, C2, RHO, order="grevlex")
D1, D2 = S1**2, S2**2
# q = sqrt((1 - d1)(1 - d2)), a = sqrt(d1 d2), w as in the region-B branch.
Q, A, W = C1 * C2, S1 * S2, S1 * C2 - S2 * C1


def _remainder(expr):
    """The numerator of expr reduced modulo the circle ideal: 0 if and only
    if the numerator lies in the ideal."""
    numerator, _ = sympy.fraction(together(expr))
    return CIRCLE.reduce(sympy.expand(numerator))[1]


def _region_b_den_error(gap):
    """The region-B branch's den, with sqrt(1 - w^2) = a + q, minus the
    written d1 d2 - (rho - q)^2, reduced."""
    den = ((1 - RHO) - W**2 / (1 + (A + Q))) * (A + gap)
    return _remainder(den - (D1 * D2 - (RHO - Q) ** 2))


def test_region_b_denominator_is_the_written_one():
    # The joint-rate kernel forms den = d1 d2 - (rho - q)^2 without
    # cancellation, from its gap (d1 + d2 - d1 d2) / (1 + q) - (1 - rho)
    # and 1 - w^2 = (a + q)^2; a + q >= 0, so a + q is its root.
    assert _remainder(W**2 + (A + Q) ** 2 - 1) == 0
    assert _region_b_den_error((D1 + D2 - D1 * D2) / (1 + Q) - (1 - RHO)) == 0


def test_a_wrong_rewrite_leaves_a_remainder():
    # 1 - q in place of 1 + q in the gap's denominator.
    assert _region_b_den_error((D1 + D2 - D1 * D2) / (1 - Q) - (1 - RHO)) != 0


# The equal-power bound curves at snr = p / n0, in w = 1 - rho_tilde, with
# t = 1 + rho_tilde = 2 - w and v = 1 - rho_tilde^2 = w (2 - w): the two
# branches of bounds._sum_rate_unit, each with the slope in w that it
# returns, and the single-user kernel itself.
WC, SNR = symbols("w snr")  # w = 1 - rho_tilde
E = symbols("e", positive=True)  # 1 - rho, where a root needs its sign
T, V = 2 - WC, WC * (2 - WC)
DEN = 1 + 2 * SNR * T
ONE_MINUS_RHO2 = (1 - RHO) * (1 + RHO)
SUM_B = ((1 + RHO) / DEN + (1 - RHO)) / 2
SUM_A = sympy.sqrt(ONE_MINUS_RHO2 / DEN)
SLOPES = {"B": (SUM_B, (1 + RHO) * SNR / DEN**2), "A": (SUM_A, SUM_A * SNR / DEN)}
SINGLE = _single_user_unit(ONE_MINUS_RHO2, SNR, V)
SNR_THRESHOLD = RHO / ONE_MINUS_RHO2  # model.snr_threshold
ENDPOINT_SNR_THRESHOLD = RHO**2 / (2 * (1 - RHO) * (1 + 2 * RHO))  # bounds.endpoint_snr_threshold


def _is_zero(expr):
    return sympy.simplify(expr) == 0


@pytest.mark.parametrize("region", ["B", "A"])
def test_sum_rate_slope_is_the_derivative_in_w(region):
    curve, slope = SLOPES[region]
    assert _is_zero(sympy.diff(curve, WC) - slope)


@pytest.mark.parametrize("region", ["B", "A"])
def test_newton_denominator_is_the_derivative_of_g(region):
    # minimax_lower_bound divides g = S - U by
    # d_upper + 2 snr (1 - w) U / (1 + snr v), with d_upper S's slope.
    curve, slope = SLOPES[region]
    assert _is_zero(sympy.diff(curve - SINGLE, WC) - (slope + 2 * SNR * (1 - WC) * SINGLE / (1 + SNR * V)))


def test_curves_equal_one_minus_rho_at_the_snr_threshold():
    # At rho_tilde = rho and snr = rho / (1 - rho^2), den (1 - rho) = 1 + rho
    # is the branch point, and both branches of S and U equal 1 - rho there.
    # A's root needs 1 - rho > 0, so rho = 1 - e.
    at = {WC: 1 - RHO, SNR: SNR_THRESHOLD}
    assert _is_zero((DEN * (1 - RHO) - (1 + RHO)).subs(at))
    for curve in (SUM_B, SUM_A, SINGLE):
        assert _is_zero((curve.subs(at) - (1 - RHO)).subs(RHO, 1 - E))


def _endpoint_gap(snr):
    """S - U at rho_tilde = 1 on region B."""
    return (SUM_B - SINGLE).subs({WC: 0, SNR: snr})


def test_curves_meet_at_rho_tilde_one_at_the_endpoint_threshold():
    # Region B holds there: 1 + rho - den (1 - rho) = 2 rho (1 + rho) / (1 + 2 rho),
    # which is positive for rho > 0.
    margin = (1 + RHO) - (DEN * (1 - RHO)).subs({WC: 0, SNR: ENDPOINT_SNR_THRESHOLD})
    assert _is_zero(margin - 2 * RHO * (1 + RHO) / (1 + 2 * RHO))
    assert _is_zero(_endpoint_gap(ENDPOINT_SNR_THRESHOLD))


def test_a_wrong_threshold_leaves_a_gap():
    # 1 + rho in place of 1 + 2 rho.
    assert not _is_zero(_endpoint_gap(RHO**2 / (2 * (1 - RHO) * (1 + RHO))))
