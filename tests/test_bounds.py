import decimal
import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from helpers import exact_curves, exact_minimax, log_uniform, reference_minimax

from gmacfb import (
    BoundResult,
    ChannelParams,
    DistortionPair,
    FeasibilityResult,
    ParameterError,
    SourceParams,
    below_snr_threshold,
    check_feasibility,
    dstar_below_threshold,
    endpoint_snr_threshold,
    minimax_lower_bound,
    single_user_curve,
    snr_threshold,
    sum_rate_curve,
    symmetric_joint_rd_inverse,
    uncoded_distortion,
)
from gmacfb import verification
from gmacfb.bounds import _sum_rate_unit
from gmacfb.model import _MAX_SNR

HALF = SourceParams(1.0, 0.5)

# Frozen oracle values (direct evaluation / exact quartic root, computed
# independently of the implementation).
XI_ENDPOINT = 0.7857142857142857         # 0.5 * (1.5/1.4 + 0.5)
XI_RHO0 = 0.5773502691896257             # sqrt(1/3)
CROSS_RHO0_STAR = 0.3111078174659819     # root of x^4 - 4x^2 - 2x + 1 in [0,1]
CROSS_RHO0_VALUE = 0.525427560843517     # 1 / (2 - root^2)
DSTAR_03_02 = 0.7776315789473683         # (0.2*0.91 + 1) / (0.4*1.3 + 1)


class TestCheckFeasibility:
    def test_tight_point_degenerates_to_singleton(self):
        ch = ChannelParams(2.0 / 3.0, 2.0 / 3.0, 1.0)
        res = check_feasibility(HALF, ch, DistortionPair(0.5, 0.5))
        assert res.feasible
        lo, hi = res.rho_interval
        assert lo == pytest.approx(0.5, abs=1e-9)
        assert hi == pytest.approx(0.5, abs=1e-9)
        assert lo <= res.witness <= hi

    def test_below_optimum_is_infeasible(self):
        ch = ChannelParams(2.0 / 3.0, 2.0 / 3.0, 1.0)
        res = check_feasibility(HALF, ch, DistortionPair(0.4, 0.4))
        assert not res.feasible
        assert res.rho_interval is None and res.witness is None

    def test_overflowing_rate_is_infeasible(self):
        # 4^r overflows a float at these targets; compared in the log
        # domain, the rate is far above every cap, and no error is raised.
        ch = ChannelParams(1.0, 1.0, 1.0)
        res = check_feasibility(HALF, ch, DistortionPair(1e-300, 1e-300))
        assert not res.feasible

    def test_rate_beyond_any_float_is_infeasible(self):
        # d / sigma2 underflows to 0; each rate, about 1,000 bits or more,
        # is finite and far above its cap.
        src = SourceParams(1e300, 0.5)
        res = check_feasibility(src, ChannelParams(1.0, 1.0, 1.0), DistortionPair(1e-300, 1e-300))
        assert res == FeasibilityResult(False, None, None)

    @pytest.mark.parametrize("factor", [4.0 ** 300, 4.0 ** -300])
    def test_invariant_under_power_of_four_scaling(self, factor):
        # The conditions depend on p1 / n0 and p2 / n0 only, and scaling
        # all three by a power of four moves every intermediate, including
        # the roots of p1 and p2, by an exact power of two. p1 p2 itself
        # would overflow or underflow.
        rng = np.random.default_rng(424242)
        for _ in range(2000):
            source, ch, pair = verification._oracle_instance(rng)
            scaled = ChannelParams(ch.p1 * factor, ch.p2 * factor, ch.n0 * factor)
            assert check_feasibility(source, scaled, pair) == check_feasibility(source, ch, pair)

    def test_invariant_under_scaling_to_tiny_powers(self):
        # 2^-1018 keeps p1, p2 and n0 normal while (4^r - 1) n0 would go
        # subnormal; only the ratios p_i / n0 enter, so nothing changes.
        rng = np.random.default_rng(424242)
        factor = 2.0 ** -1018
        for _ in range(20_000):
            source, ch, pair = verification._oracle_instance(rng)
            scaled = ChannelParams(ch.p1 * factor, ch.p2 * factor, ch.n0 * factor)
            assert check_feasibility(source, scaled, pair) == check_feasibility(source, ch, pair)

    def test_zero_rate_admits_everything(self):
        src = SourceParams(1.0, 0.0)
        res = check_feasibility(src, ChannelParams(0.3, 5.0, 2.0), DistortionPair(1.0, 1.0))
        assert res.feasible
        assert res.rho_interval == (0.0, 1.0)

    def test_witness_satisfies_all_three_conditions(self):
        from gmacfb import conditional_rd, joint_rd

        src = SourceParams(1.3, 0.6)
        ch = ChannelParams(0.8, 1.4, 0.9)
        pair = DistortionPair(0.5, 0.7)
        res = check_feasibility(src, ch, pair)
        assert res.feasible
        rt = res.witness
        sum_cap = 0.5 * math.log2(1.0 + (ch.p1 + ch.p2 + 2.0 * rt * math.sqrt(ch.p1 * ch.p2)) / ch.n0)
        cap1 = 0.5 * math.log2(1.0 + ch.p1 * (1.0 - rt * rt) / ch.n0)
        cap2 = 0.5 * math.log2(1.0 + ch.p2 * (1.0 - rt * rt) / ch.n0)
        assert joint_rd(src, pair) <= sum_cap + 1e-9
        assert conditional_rd(src, pair.d1) <= cap1 + 1e-9
        assert conditional_rd(src, pair.d2) <= cap2 + 1e-9

    def test_tight_at_full_input_correlation(self):
        # Zero conditional rates and a sum condition solvable only at
        # rho_tilde = 1: rounding pushes the lower endpoint a hair above 1
        # and the emptiness slack must still call it feasible.
        res = check_feasibility(HALF, ChannelParams(0.125, 0.125, 1.0), DistortionPair(0.75, 0.75))
        assert res.feasible
        lo, hi = res.rho_interval
        assert lo == pytest.approx(1.0, abs=1e-9)
        assert hi == 1.0
        assert lo <= res.witness <= hi

    def test_asymmetric_power_starvation(self):
        # User 1 has far too little power for a fine description of s1.
        src = SourceParams(1.0, 0.0)
        res = check_feasibility(src, ChannelParams(0.01, 10.0, 1.0), DistortionPair(0.05, 0.9))
        assert not res.feasible

    def test_feasible_iff_distortion_above_minimax(self):
        # The interval test and the minimax bound describe the same frontier.
        p, n0 = 0.3, 1.0
        bound = minimax_lower_bound(HALF, p, n0).lower_bound
        ch = ChannelParams(p, p, n0)
        for offset in (-1e-4, -1e-6, 1e-6, 1e-4, 1e-2):
            d = bound + offset
            res = check_feasibility(HALF, ch, DistortionPair(d, d))
            assert res.feasible == (offset > 0), f"offset {offset}"

    def test_frontier_matches_bound_across_grid(self):
        # Same frontier check across both sides of the SNR threshold and
        # both minimax regimes (endpoint and crossing).
        for rho in (0.1, 0.3, 0.5, 0.7, 0.9):
            src = SourceParams(1.0, rho)
            thr = snr_threshold(src)
            for frac in (0.05, 0.3, 0.95, 1.0, 1.05, 3.0):
                p = thr * frac
                bound = minimax_lower_bound(src, p, 1.0).lower_bound
                ch = ChannelParams(p, p, 1.0)
                for offset in (-3e-9, 3e-9):
                    d = bound + offset
                    res = check_feasibility(src, ch, DistortionPair(d, d))
                    assert res.feasible == (offset > 0), (rho, frac, offset)


class TestCurves:
    def test_sum_rate_curve_below_threshold_branch(self):
        assert sum_rate_curve(HALF, 0.1, 1.0, 1.0) == pytest.approx(XI_ENDPOINT, abs=1e-12)

    def test_sum_rate_curve_at_threshold_crossing_point(self):
        assert sum_rate_curve(HALF, 2.0 / 3.0, 1.0, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_sum_rate_curve_above_threshold_branch(self):
        src = SourceParams(1.0, 0.0)
        assert sum_rate_curve(src, 1.0, 1.0, 0.0) == pytest.approx(XI_RHO0, abs=1e-12)

    def test_single_user_curve_values(self):
        assert single_user_curve(HALF, 2.0 / 3.0, 1.0, 0.5) == pytest.approx(0.5, abs=1e-12)
        assert single_user_curve(HALF, 0.1, 1.0, 1.0) == pytest.approx(0.75, abs=1e-12)

    @pytest.mark.parametrize("rt", [-0.1, 1.1, math.nan])
    def test_rejects_bad_correlation(self, rt):
        for curve in (sum_rate_curve, single_user_curve):
            with pytest.raises(ParameterError, match="rho_tilde out of range"):
                curve(HALF, 1.0, 1.0, rt)

    def test_single_user_curve_degenerate_correlation(self):
        src = SourceParams(1.0, 1.0)
        assert single_user_curve(src, 3.0, 0.7, 0.3) == 0.0

    def test_monotonicity_on_grid(self):
        grid = np.linspace(0.0, 1.0, 201)
        for rho in (0.0, 0.3, 0.7, 0.95):
            src = SourceParams(1.0, rho)
            for p in (0.05, 0.5, 2.0, 20.0):
                dec = [sum_rate_curve(src, p, 1.0, float(t)) for t in grid]
                inc = [single_user_curve(src, p, 1.0, float(t)) for t in grid]
                assert all(b <= a + 1e-15 for a, b in zip(dec, dec[1:]))
                assert all(b >= a - 1e-15 for a, b in zip(inc, inc[1:]))

    def test_sum_rate_equals_uncoded_at_source_correlation(self):
        # Below threshold the decreasing curve evaluated at the source
        # correlation reproduces the uncoded distortion identically.
        for rho in (0.1, 0.5, 0.9):
            src = SourceParams(1.0, rho)
            thr = snr_threshold(src)
            for frac in (0.2, 0.7, 1.0):
                p = thr * frac
                assert sum_rate_curve(src, p, 1.0, rho) == pytest.approx(
                    uncoded_distortion(src, p, 1.0), abs=1e-14
                )


class TestMinimaxLowerBound:
    def test_threshold_point(self):
        res = minimax_lower_bound(HALF, 2.0 / 3.0, 1.0)
        assert res.lower_bound == pytest.approx(0.5, abs=1e-9)
        assert res.rho_star == pytest.approx(0.5, abs=1e-6)
        assert res.active == "crossing"

    def test_endpoint_regime(self):
        res = minimax_lower_bound(HALF, 0.1, 1.0)
        assert res.lower_bound == pytest.approx(XI_ENDPOINT, abs=1e-12)
        assert res.rho_star == 1.0
        assert res.active == "endpoint"

    def test_rho_zero_crossing_matches_quartic_root(self):
        res = minimax_lower_bound(SourceParams(1.0, 0.0), 1.0, 1.0)
        assert res.active == "crossing"
        assert res.rho_star == pytest.approx(CROSS_RHO0_STAR, abs=1e-9)
        assert res.lower_bound == pytest.approx(CROSS_RHO0_VALUE, abs=1e-12)

    def test_reported_bound_matches_curves_at_rho_star(self):
        for rho in (0.0, 0.2, 0.6, 0.9):
            src = SourceParams(1.0, rho)
            for p in (0.05, 0.4, 3.0):
                res = minimax_lower_bound(src, p, 1.0)
                recomputed = max(
                    sum_rate_curve(src, p, 1.0, res.rho_star),
                    single_user_curve(src, p, 1.0, res.rho_star),
                )
                assert res.lower_bound == pytest.approx(recomputed, abs=1e-15)

    def test_endpoint_boundary_switch(self):
        te = endpoint_snr_threshold(HALF)
        assert te == pytest.approx(0.125, abs=1e-15)
        below = minimax_lower_bound(HALF, te * 0.999, 1.0)
        above = minimax_lower_bound(HALF, te * 1.001, 1.0)
        assert below.rho_star == 1.0 and below.active == "endpoint"
        assert above.rho_star < 1.0 and above.active == "crossing"

    def test_endpoint_rounding_guard(self):
        # One ulp above the endpoint threshold 0.125 both curves round to
        # 0.75 at rho_tilde = 1, so the minimax is the endpoint, not a
        # crossing at 1 - 1 ulp. The exact minimax is 0.23 ulp from 0.75.
        assert minimax_lower_bound(HALF, 0.12500000000000003, 1.0) == BoundResult(0.75, 1.0, "endpoint")

    def test_crossing_gap_within_tolerance(self):
        for rho in (0.0, 0.3, 0.8):
            src = SourceParams(1.0, rho)
            te = endpoint_snr_threshold(src)
            for p in (0.5, 2.0, 8.0):
                res = minimax_lower_bound(src, p, 1.0)
                if p <= te:
                    assert res.active == "endpoint"
                    continue
                assert res.active == "crossing"
                gap = abs(
                    sum_rate_curve(src, p, 1.0, res.rho_star)
                    - single_user_curve(src, p, 1.0, res.rho_star)
                )
                assert gap <= 1e-12

    def test_scales_with_variance(self):
        res1 = minimax_lower_bound(SourceParams(1.0, 0.4), 0.7, 1.0)
        res2 = minimax_lower_bound(SourceParams(2.5, 0.4), 0.7, 1.0)
        assert res2.lower_bound == pytest.approx(2.5 * res1.lower_bound, rel=1e-12)
        assert res2.rho_star == pytest.approx(res1.rho_star, abs=1e-12)

    @pytest.mark.parametrize("p", [1e24, 1e300])
    def test_high_snr_stop_is_relative_to_the_curves(self, p):
        # Both curves lie far below 1e-12 sigma2 here, so an absolute stop
        # would accept the first midpoint and overshoot the minimax.
        res = minimax_lower_bound(HALF, p, 1.0)
        floor = sum_rate_curve(HALF, p, 1.0, 1.0)
        assert floor <= res.lower_bound <= floor * (1.0 + 1e-3)
        # The crossing lies about 1e-12 (p = 1e24) or 1e-150 (p = 1e300)
        # from rho_tilde = 1, where rho_tilde's float spacing is 1.1e-16.
        # The search runs in w = 1 - rho_tilde, whose spacing shrinks with w.
        assert res.lower_bound <= sum_rate_curve(HALF, p, 1.0, 1.0) * (1.0 + 1e-9)
        assert res.rho_star > 0.99

    @pytest.mark.parametrize("p", [5.74643496871595e-17, 1.0233520470972575e-16])
    def test_rounding_tie_at_zero_correlation(self, p):
        # At rho = 0 and snr near 1e-16 rounding can put the increasing
        # curve on top already at rho_tilde = 0: the minimax sits there.
        src = SourceParams(1.0, 0.0)
        assert sum_rate_curve(src, p, 1.0, 0.0) <= single_user_curve(src, p, 1.0, 0.0)
        res = minimax_lower_bound(src, p, 1.0)
        assert res.rho_star == 0.0
        assert res.lower_bound == single_user_curve(src, p, 1.0, 0.0)

    def test_depends_on_p_over_n0_only(self):
        assert minimax_lower_bound(HALF, 1e308, 1e308) == minimax_lower_bound(HALF, 1.0, 1.0)
        with pytest.raises(ParameterError, match="overflows"):
            minimax_lower_bound(HALF, 1e300, 1e-300)

    def test_never_exceeds_uncoded(self):
        # The converse can never sit above what uncoded transmission achieves.
        for rho in (0.1, 0.4, 0.7, 0.9):
            src = SourceParams(1.0, rho)
            for snr in np.linspace(0.02, 6.0, 23):
                bound = minimax_lower_bound(src, float(snr), 1.0).lower_bound
                assert bound <= uncoded_distortion(src, float(snr), 1.0) + 1e-12


class TestDstarAndUncoded:
    def test_dstar_at_threshold(self):
        assert dstar_below_threshold(HALF, 2.0 / 3.0, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_dstar_interior_point(self):
        src = SourceParams(1.0, 0.3)
        assert dstar_below_threshold(src, 0.2, 1.0) == pytest.approx(DSTAR_03_02, abs=1e-15)

    def test_dstar_rejects_above_threshold(self):
        with pytest.raises(ParameterError, match="above threshold"):
            dstar_below_threshold(HALF, 1.0, 1.0)

    def test_dstar_fully_correlated_always_below(self):
        src = SourceParams(1.0, 1.0)
        assert dstar_below_threshold(src, 10.0, 1.0) == pytest.approx(1.0 / 41.0, abs=1e-15)

    def test_uncoded_examples(self):
        assert uncoded_distortion(HALF, 1.0, 1.0) == pytest.approx(0.4375, abs=1e-15)
        assert uncoded_distortion(SourceParams(1.0, 0.0), 1.0, 1.0) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_uncoded_vanishing_power_limit(self):
        assert uncoded_distortion(HALF, 1e-12, 1.0) == pytest.approx(1.0, abs=1e-11)

    def test_uncoded_high_power_limit(self):
        assert uncoded_distortion(HALF, 1e12, 1.0) == pytest.approx(0.25, abs=1e-10)

    def test_below_threshold_predicate(self):
        thr = snr_threshold(HALF)
        assert below_snr_threshold(HALF, thr, 1.0)
        assert below_snr_threshold(HALF, thr * (1.0 - 1e-9), 1.0)
        assert not below_snr_threshold(HALF, thr * 1.001, 1.0)
        assert below_snr_threshold(SourceParams(1.0, 1.0), 100.0, 1.0)

    def test_tightness_at_threshold_across_rhos(self):
        for rho in np.arange(0.1, 0.95, 0.1):
            src = SourceParams(1.0, float(rho))
            p = snr_threshold(src)
            bound = minimax_lower_bound(src, p, 1.0).lower_bound
            d_u = uncoded_distortion(src, p, 1.0)
            d_star = dstar_below_threshold(src, p, 1.0)
            assert abs(bound - d_u) <= 1e-9
            assert abs(bound - d_star) <= 1e-9
            assert d_u == pytest.approx(1.0 - float(rho), abs=1e-12)


# rho in [0, 1), sigma2 in 1e-300..1e300, n0 in 1e-100..1e100 and
# snr = p / n0 in 1e-8..1e14, the last three log-uniform.
DOMAIN = dict(
    rho=st.floats(0.0, 1.0, exclude_max=True),
    sigma2=log_uniform(-300.0, 300.0),
    n0=log_uniform(-100.0, 100.0),
    snr=log_uniform(-8.0, 14.0),
)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ParameterError as exc:
        return "ParameterError", str(exc)


class TestMinimaxDomain:
    @settings(max_examples=500, deadline=None)
    @given(**DOMAIN)
    @example(rho=0.5, sigma2=1.0, n0=1.0, snr=1e308)  # 4 p / n0 overflows
    @example(rho=0.0, sigma2=1.0, n0=1.0, snr=5.74643496871595e-17)  # rounding tie
    @example(rho=0.5, sigma2=1e300, n0=1e-100, snr=1e24)  # crossing 1e-12 from rho_tilde = 1
    @example(rho=0.3, sigma2=1.0, n0=1.0, snr=endpoint_snr_threshold(SourceParams(1.0, 0.3)) * (1.0 + 1e-12))
    @example(rho=0.5, sigma2=1.0, n0=1.0, snr=0.12500000000000003)  # endpoint rounding guard
    @example(rho=1.0 - 1e-12, sigma2=1.0, n0=1.0, snr=1e13)
    @example(rho=0.9999999999999999, sigma2=1.0, n0=1.0, snr=3.27e307)  # (1 - rho^2) / den underflows
    def test_within_4_ulps_of_the_exact_minimax(self, rho, sigma2, n0, snr):
        src, p = SourceParams(sigma2, rho), snr * n0
        res = _outcome(minimax_lower_bound, src, p, n0)
        if p / n0 > _MAX_SNR:
            assert res == ("ParameterError", "p / n0 too large: 4 p / n0 overflows")
            return
        snr = p / n0
        exact = Decimal(sigma2) * exact_minimax(rho, snr, res.lower_bound / sigma2)
        assert abs(Decimal(res.lower_bound) - exact) <= 4 * Decimal(math.ulp(float(exact)))

    @settings(max_examples=400, deadline=None)
    @given(**DOMAIN)
    @example(rho=0.0, sigma2=1.0, n0=1.0, snr=5.74643496871595e-17)  # rounding tie at rho = 0
    # p/n0 near 1e-16, where rounding swamps the curves' difference: the
    # bracket is closed by halving, 49 times at 1e-15 and once at 3.5e-16.
    @example(rho=0.0, sigma2=1.0, n0=1.0, snr=1e-15)
    @example(rho=0.0, sigma2=3.0, n0=1e-50, snr=3.5e-16)
    @example(rho=0.9999999999999999, sigma2=1.0, n0=1.0, snr=3.27e307)
    @example(rho=0.5, sigma2=1.0, n0=1.0, snr=1e308)  # 4 p / n0 overflows
    def test_same_bits_as_the_reference(self, rho, sigma2, n0, snr):
        # Forming 1 - rho^2 once per solve must leave every iterate, and so
        # every bit of the result, where the reference has it.
        src, p = SourceParams(sigma2, rho), snr * n0
        assert _outcome(minimax_lower_bound, src, p, n0) == _outcome(reference_minimax, src, p, n0)

    @settings(max_examples=300, deadline=None)
    @given(**DOMAIN, t1=st.floats(0.0, 1.0), t2=st.floats(0.0, 1.0))
    def test_curves_monotone_in_rho_tilde(self, rho, sigma2, n0, snr, t1, t2):
        src, p = SourceParams(sigma2, rho), snr * n0
        lo, hi = min(t1, t2), max(t1, t2)
        assert sum_rate_curve(src, p, n0, hi) <= sum_rate_curve(src, p, n0, lo)
        assert single_user_curve(src, p, n0, hi) >= single_user_curve(src, p, n0, lo)

    @settings(max_examples=300, deadline=None)
    @given(**DOMAIN)
    def test_between_full_correlation_floor_and_uncoded(self, rho, sigma2, n0, snr):
        src, p = SourceParams(sigma2, rho), snr * n0
        bound = minimax_lower_bound(src, p, n0).lower_bound
        assert sum_rate_curve(src, p, n0, 1.0) * (1.0 - 1e-12) <= bound
        assert bound <= uncoded_distortion(src, p, n0) * (1.0 + 1e-12)


    @settings(max_examples=300, deadline=None)
    @given(**DOMAIN, rt=st.floats(0.0, 1.0))
    @example(rho=0.5, sigma2=1.0, n0=1.0, snr=0.6, rt=1.0)
    @example(rho=0.9999998257568038, sigma2=1.0, n0=1.0, snr=2886569.7126392233, rt=0.1289408739217216)
    # den = 1 + 1.5 (1 + rt) runs from 2.5 to 4 and leaves region B at 3, rt = 1/3.
    @example(rho=0.5, sigma2=1.0, n0=1.0, snr=0.75, rt=0.3)
    @example(rho=0.5, sigma2=1.0, n0=1.0, snr=0.75, rt=1.0 / 3.0)
    @example(rho=0.5, sigma2=1.0, n0=1.0, snr=0.75, rt=0.4)
    def test_sum_rate_curve_is_exact_at_every_rho_tilde(self, rho, sigma2, n0, snr, rt):
        # The curve is the diagonal's inverse at the sum-rate cap on
        # whichever branch the cap falls, not only at rho_star.
        src, p = SourceParams(sigma2, rho), snr * n0
        cap = 0.5 * math.log2(1.0 + 2.0 * (p / n0) * (1.0 + rt))
        exact = symmetric_joint_rd_inverse(src, cap)
        assert sum_rate_curve(src, p, n0, rt) == pytest.approx(exact, rel=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(rho=DOMAIN["rho"], snr=DOMAIN["snr"], w=st.floats(0.0, 1.0))
    @example(rho=0.5, snr=0.75, w=0.7)  # region B
    @example(rho=0.5, snr=0.75, w=0.6)  # region A
    def test_sum_rate_slope_is_the_exact_derivative_in_w(self, rho, snr, w):
        # The minimax's Newton steps with this slope; a wrong one still
        # converges by halving, so the value tests cannot see it.
        t = 2.0 - w
        with decimal.localcontext(decimal.Context(prec=60)):
            # Differentiate at the w that the rounded t stands for.
            w, h = 2 - Decimal(t), Decimal("1e-20")
            slope = (exact_curves(rho, snr, w + h)[0] - exact_curves(rho, snr, w - h)[0]) / (2 * h)
        assert _sum_rate_unit(rho, snr, t)[1] == pytest.approx(float(slope), rel=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(rho=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_twice_endpoint_threshold_is_below_snr_threshold(self, rho):
        # The endpoint regime, and twice it, lies inside the regime where
        # uncoded transmission is optimal: 2 t_end / thr = rho (1 + rho) / (1 + 2 rho) < 1.
        src = SourceParams(1.0, rho)
        assert 2.0 * endpoint_snr_threshold(src) < snr_threshold(src)

    @settings(max_examples=300, deadline=None)
    @given(sigma2=DOMAIN["sigma2"], n0=DOMAIN["n0"], snr=DOMAIN["snr"], rt=st.floats(0.0, 1.0))
    def test_closed_forms_at_full_source_correlation(self, sigma2, n0, snr, rt):
        # snr_threshold is infinite at rho = 1, so every SNR is below it and
        # the minimax sits at the endpoint: 1 / (1 + 4 snr).
        src, p = SourceParams(sigma2, 1.0), snr * n0
        snr = p / n0
        endpoint = sigma2 * (1.0 / (1.0 + 4.0 * snr))
        assert sum_rate_curve(src, p, n0, rt) == sigma2 * (1.0 / (1.0 + 2.0 * snr * (1.0 + rt)))
        assert minimax_lower_bound(src, p, n0) == BoundResult(endpoint, 1.0, "endpoint")
        assert below_snr_threshold(src, p, n0)
        assert dstar_below_threshold(src, p, n0) == endpoint


class TestFeasibilityDomain:
    @settings(max_examples=500, deadline=None)
    @given(**DOMAIN)
    # The pair meets the per-user cap within an ulp of D_u.
    @example(rho=0.0, sigma2=10.0 ** 114.5, n0=1.0, snr=1e-08)
    # The written region-B rate cancels to 3 % off as rho -> 1.
    @example(rho=0.9999999999999999, sigma2=7.768058856545415e111, n0=6.428802127937147e93, snr=93058753.68406802)
    # D_u with 1 - rho * rho in place of (1 - rho)(1 + rho) lies below the sum-rate cap.
    @example(rho=0.9999999906, sigma2=1.0, n0=1.0, snr=4.95e7)
    def test_uncoded_pair_is_feasible(self, rho, sigma2, n0, snr):
        # Uncoded transmission reaches (D_u, D_u), so the necessary
        # conditions must admit it.
        src, p = SourceParams(sigma2, rho), snr * n0
        d_u = uncoded_distortion(src, p, n0)
        res = check_feasibility(src, ChannelParams(p, p, n0), DistortionPair(d_u, d_u))
        assert res.feasible
