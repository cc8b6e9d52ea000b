import decimal
import math
import sys
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from helpers import log_uniform

from gmacfb import (
    DistortionPair,
    ParameterError,
    Region,
    SourceParams,
    classify_region,
    conditional_rd,
    diagonal_branch_rate,
    joint_rd,
    symmetric_joint_rd_inverse,
)
from gmacfb.rate_distortion import _joint_rd_unit, _regions

HALF = SourceParams(1.0, 0.5)

# Frozen expected values, each computed by direct evaluation of the branch
# formula with an independent script before the implementation existed.
JOINT_A_03_03 = 1.5294468445267844      # 0.5 * log2(0.75 / 0.09)
JOINT_B_05_06 = 0.6676952423697838      # 0.5 * log2(0.75 / (0.30 - (0.5 - sqrt(0.2))^2))
JOINT_DIAG_05 = 0.792481250360578       # 0.5 * log2(3)
JOINT_C_MIRROR = 1.660964047443681      # 0.5 * log2(10)
COND_HALF_025 = 0.792481250360578       # 0.5 * log2(3)


class TestClassifyRegion:
    def test_interior_a(self):
        assert classify_region(HALF, DistortionPair(0.3, 0.3)) is Region.A

    def test_interior_b(self):
        assert classify_region(HALF, DistortionPair(0.5, 0.6)) is Region.B

    def test_interior_c(self):
        assert classify_region(HALF, DistortionPair(0.2, 0.9)) is Region.C

    def test_mirrored_c(self):
        assert classify_region(HALF, DistortionPair(0.9, 0.2)) is Region.C

    def test_diagonal_boundary_goes_to_a(self):
        # (0.5, 0.5) sits exactly on the A/B boundary; A is closed there.
        assert classify_region(HALF, DistortionPair(0.5, 0.5)) is Region.A

    def test_bc_boundary_goes_to_b(self):
        # d2 = sigma2 (1 - rho^2) + rho^2 d1 exactly; C is open at it.
        assert classify_region(HALF, DistortionPair(0.2, 0.8)) is Region.B

    def test_full_distortion_corner_is_b(self):
        assert classify_region(HALF, DistortionPair(1.0, 1.0)) is Region.B

    def test_clamping_above_variance(self):
        assert classify_region(HALF, DistortionPair(5.0, 0.2)) is classify_region(
            HALF, DistortionPair(1.0, 0.2)
        )

    def test_fully_correlated_source_has_no_region_a(self):
        # At sigma2 = 1e300 both unit targets underflow to 0, where region
        # A's test holds at 0 <= 0. At rho = 1 the targets decide: C where
        # they differ, B where they are equal, as above the normal range.
        src = SourceParams(1e300, 1.0)
        assert classify_region(src, DistortionPair(5e-324, 1e-300)) is Region.C
        assert classify_region(src, DistortionPair(1e-300, 1e-300)) is Region.B
        assert classify_region(src, DistortionPair(0.3e300, 0.5e300)) is Region.C
        assert classify_region(src, DistortionPair(0.3e300, 0.3e300)) is Region.B
        assert classify_region(src, DistortionPair(2e300, 3e300)) is Region.B

    def test_rho_zero_box_is_a(self):
        src = SourceParams(1.0, 0.0)
        for d1 in (0.1, 0.5, 1.0):
            for d2 in (0.1, 0.5, 1.0):
                assert classify_region(src, DistortionPair(d1, d2)) is Region.A


class TestRegionsOnArrays:
    # The A/B boundary (0.5, 0.5) and the B/C boundary (0.2, 0.8) at
    # rho = 0.5, and the (1, 1) corner, are in every example.
    EDGES = [(0.5, 0.5), (0.2, 0.8), (0.8, 0.2), (1.0, 1.0)]

    @settings(max_examples=300, deadline=None)
    @given(
        rho=st.floats(0.0, 1.0),
        ds=st.lists(st.tuples(log_uniform(-12.0, 0.0), log_uniform(-12.0, 0.0)), max_size=40),
    )
    @example(rho=0.5, ds=[])
    @example(rho=0.0, ds=[(0.3, 0.9), (1e-12, 1.0)])
    @example(rho=1.0 - 1e-12, ds=[(1e-12, 1e-12), (0.3, 0.3 + 1e-13), (1.0, 1e-6)])
    def test_masks_match_classify_region(self, rho, ds):
        src = SourceParams(1.0, rho)
        d1, d2 = np.array(self.EDGES + ds).T
        in_a, in_c = _regions(rho, d1, d2)
        labels = [classify_region(src, DistortionPair(a, b)) for a, b in zip(d1.tolist(), d2.tolist())]
        assert in_a.tolist() == [r is Region.A for r in labels]
        assert in_c.tolist() == [r is Region.C for r in labels]


class TestJointRd:
    def test_region_a_value(self):
        assert joint_rd(HALF, DistortionPair(0.3, 0.3)) == pytest.approx(JOINT_A_03_03, abs=1e-12)

    def test_region_b_value(self):
        assert joint_rd(HALF, DistortionPair(0.5, 0.6)) == pytest.approx(JOINT_B_05_06, abs=1e-12)

    def test_diagonal_boundary_value(self):
        assert joint_rd(HALF, DistortionPair(0.5, 0.5)) == pytest.approx(JOINT_DIAG_05, abs=1e-12)

    def test_zero_rate_at_full_distortion(self):
        assert joint_rd(HALF, DistortionPair(1.0, 1.0)) == 0.0

    def test_mirrored_c_value(self):
        assert joint_rd(HALF, DistortionPair(0.9, 0.1)) == pytest.approx(JOINT_C_MIRROR, abs=1e-12)
        assert joint_rd(HALF, DistortionPair(0.1, 0.9)) == pytest.approx(JOINT_C_MIRROR, abs=1e-12)

    def test_swap_symmetry_on_grid(self):
        for d1 in np.linspace(0.05, 1.0, 14):
            for d2 in np.linspace(0.05, 1.0, 14):
                a = joint_rd(HALF, DistortionPair(float(d1), float(d2)))
                b = joint_rd(HALF, DistortionPair(float(d2), float(d1)))
                assert abs(a - b) <= 1e-12

    def test_monotone_extension_above_variance(self):
        assert joint_rd(HALF, DistortionPair(3.0, 0.4)) == joint_rd(HALF, DistortionPair(1.0, 0.4))
        assert joint_rd(HALF, DistortionPair(2.0, 2.0)) == 0.0

    def test_rho_zero_reduces_to_scalar_sum(self):
        src = SourceParams(1.0, 0.0)
        for d1 in np.linspace(0.05, 1.0, 9):
            for d2 in np.linspace(0.05, 1.0, 9):
                expected = 0.5 * math.log2(1.0 / d1) + 0.5 * math.log2(1.0 / d2)
                got = joint_rd(src, DistortionPair(float(d1), float(d2)))
                assert got == pytest.approx(expected, abs=1e-12)

    def test_diagonal_strictly_decreasing(self):
        diag = [joint_rd(HALF, DistortionPair(d, d)) for d in np.linspace(0.01, 1.0, 120)]
        assert all(b < a for a, b in zip(diag, diag[1:]))

    def test_underflowing_product_uses_log_sum(self):
        # d1 * d2 underflows to zero here; the rate must stay finite and
        # continue the region-A formula evaluated where the product is normal.
        def log_sum(d1, d2):
            return 0.5 * (math.log2(1.0 / d1) + math.log2(1.0 / d2) + math.log2(0.75))

        assert joint_rd(HALF, DistortionPair(1e-300, 1e-300)) == pytest.approx(
            log_sum(1e-300, 1e-300), rel=1e-15)
        assert joint_rd(HALF, DistortionPair(1e-150, 1e-150)) == pytest.approx(
            log_sum(1e-150, 1e-150), rel=1e-12)

    def test_underflowing_ratio_keeps_a_finite_rate(self):
        # d / sigma2 = 1e-330 underflows to zero; the rate is taken from d
        # and sigma2 by frexp and stays finite: in region A, and for one
        # component.
        huge = SourceParams(1e30, 0.5)
        bits = 330 * math.log2(10.0)
        assert joint_rd(huge, DistortionPair(1e-300, 1e-300)) == pytest.approx(
            0.5 * math.log2(0.75) + bits, rel=1e-14)
        assert conditional_rd(huge, 1e-300) == pytest.approx(0.5 * (math.log2(0.75) + bits), rel=1e-14)

    def test_scale_invariance(self):
        big = SourceParams(2.0, 0.5)
        for d1, d2 in [(0.3, 0.3), (0.5, 0.6), (0.2, 0.9)]:
            scaled = joint_rd(big, DistortionPair(2.0 * d1, 2.0 * d2))
            assert scaled == pytest.approx(joint_rd(HALF, DistortionPair(d1, d2)), abs=1e-12)

    def test_nonnegative_and_finite_on_grid(self):
        for d1 in np.linspace(0.02, 1.3, 17):
            for d2 in np.linspace(0.02, 1.3, 17):
                rate = joint_rd(HALF, DistortionPair(float(d1), float(d2)))
                assert math.isfinite(rate) and rate >= 0.0

    def test_fully_correlated_source(self):
        # rho = 1: the written middle-branch formula is 0/0 on the diagonal;
        # the continuity limit is the cost of the tighter target alone.
        src = SourceParams(1.0, 1.0)
        for d1 in np.linspace(0.05, 1.2, 13):
            for d2 in np.linspace(0.05, 1.2, 13):
                got = joint_rd(src, DistortionPair(float(d1), float(d2)))
                expected = 0.5 * math.log2(1.0 / min(d1, d2, 1.0))
                assert got == pytest.approx(expected, abs=1e-12)
        assert joint_rd(src, DistortionPair(1.0, 1.0)) == 0.0
        # Both unit targets underflow to 0, where region A's test holds in
        # floats: still the tighter target's rate, from d and sigma2.
        huge = SourceParams(1e300, 1.0)
        assert joint_rd(huge, DistortionPair(1e-300, 2e-300)) == pytest.approx(300 * math.log2(10.0), rel=1e-14)

    def test_nonincreasing_in_each_argument(self):
        for rho in (0.0, 0.2, 0.5, 0.8, 0.95, 1.0):
            src = SourceParams(1.0, rho)
            axis = np.linspace(0.01, 1.4, 71)
            for d2 in np.linspace(0.03, 1.3, 13):
                vals = [joint_rd(src, DistortionPair(float(d1), float(d2))) for d1 in axis]
                assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:])), (rho, d2)


def _det_max_rate(s2, rho, d1, d2, grid=600):
    """Brute-force oracle for the joint rate, no region logic.

    R = min 1/2 log2(det(source cov) / det(E)) over error covariances E
    with 0 <= E <= cov and diagonal capped by (d1, d2). For a fixed
    diagonal (a, b) the best off-diagonal is the feasible value closest to
    zero, where feasibility is (s2-a)(s2-b) >= (rho s2 - theta)^2.
    """
    d1, d2 = min(d1, s2), min(d2, s2)
    a, b = np.meshgrid(np.linspace(d1 * 1e-3, d1, grid), np.linspace(d2 * 1e-3, d2, grid))
    u = np.sqrt((s2 - a) * (s2 - b))
    theta = np.clip(0.0, rho * s2 - u, rho * s2 + u)
    best = float((a * b - theta * theta).max())
    return 0.5 * math.log2(s2 * s2 * (1.0 - rho * rho) / best)


def _exact_rates(rho: float, sigma2: float, d1: float, d2: float) -> tuple[Decimal, Decimal, Decimal]:
    """(joint, conditional 1, conditional 2) rates at the targets d / sigma2,
    to 60 digits, from the exact region test and branch formulas."""
    with decimal.localcontext(decimal.Context(prec=60)):
        rho, ln2 = Decimal(rho), Decimal(2).ln()
        u1, u2 = (min(Decimal(d) / Decimal(sigma2), Decimal(1)) for d in (d1, d2))
        cv = (1 - rho) * (1 + rho)
        lo_, hi = min(u1, u2), max(u1, u2)
        if rho == 1 or hi > cv + rho * rho * lo_:
            joint = (1 / lo_).ln() / ln2 / 2
        elif u1 + u2 - u1 * u2 <= cv:
            joint = (cv / (u1 * u2)).ln() / ln2 / 2
        else:
            gap = rho - ((1 - u1) * (1 - u2)).sqrt()
            joint = (cv / (u1 * u2 - gap * gap)).ln() / ln2 / 2
        cond = ((cv / u).ln() / ln2 / 2 if u < cv else Decimal(0) for u in (u1, u2))
        return (joint, *cond)


@settings(max_examples=300, deadline=None)
@given(rho=st.floats(0.0, 1.0), s=st.floats(-50.0, 1000.0), e1=st.floats(-1100.0, -1000.0),
       e2=st.floats(-1100.0, 0.0), swap=st.booleans())
@example(rho=0.5, s=0.0, e1=-1026.0, e2=-1026.0, swap=False)
def test_rates_below_the_normal_range_match_a_decimal_reference(rho, s, e1, e2, swap):
    # One unit target from 2^-1100 to 2^-1000, the other anywhere in
    # (2^-1100, 1]; each d is a positive double, subnormals included. The
    # rates are finite and within 1e-15 of the exact ones, relative above
    # one bit.
    sigma2 = 2.0 ** s
    d1, d2 = (max(2.0 ** (s + e), 5e-324) for e in ((e2, e1) if swap else (e1, e2)))
    source = SourceParams(sigma2, rho)
    got = (joint_rd(source, DistortionPair(d1, d2)), conditional_rd(source, d1), conditional_rd(source, d2))
    for value, exact in zip(got, _exact_rates(rho, sigma2, d1, d2)):
        assert math.isfinite(value)
        assert abs(Decimal(value) - exact) <= Decimal(1e-15) * max(exact, Decimal(1))


def test_joint_rd_matches_determinant_maximization():
    rng = np.random.default_rng(314)
    for _ in range(15):
        s2 = float(rng.uniform(0.5, 2.0))
        rho = float(rng.uniform(0.0, 0.95))
        d1 = float(rng.uniform(0.05, 1.2)) * s2
        d2 = float(rng.uniform(0.05, 1.2)) * s2
        got = joint_rd(SourceParams(s2, rho), DistortionPair(d1, d2))
        ref = _det_max_rate(s2, rho, d1, d2)
        assert got == pytest.approx(ref, abs=1e-3), (s2, rho, d1, d2)
        assert got <= ref + 1e-12  # grid search can only overestimate the rate


class TestConditionalRd:
    def test_frozen_value(self):
        assert conditional_rd(HALF, 0.25) == pytest.approx(COND_HALF_025, abs=1e-12)

    def test_zero_at_conditional_variance(self):
        assert conditional_rd(HALF, 0.75) == 0.0
        assert conditional_rd(HALF, 2.0) == 0.0

    def test_rho_zero_scalar_gaussian(self):
        assert conditional_rd(SourceParams(1.0, 0.0), 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_fully_correlated_needs_no_rate(self):
        assert conditional_rd(SourceParams(1.0, 1.0), 1e-9) == 0.0

    def test_strictly_decreasing_below_conditional_variance(self):
        vals = [conditional_rd(HALF, d) for d in np.linspace(0.01, 0.75, 80)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("d", [0.0, -0.5, math.nan])
    def test_rejects_bad_distortion(self, d):
        with pytest.raises(ParameterError):
            conditional_rd(HALF, d)

    def test_dominated_by_joint_on_grid(self):
        for d1 in np.linspace(0.05, 1.0, 12):
            for d2 in np.linspace(0.05, 1.0, 12):
                joint = joint_rd(HALF, DistortionPair(float(d1), float(d2)))
                assert joint >= conditional_rd(HALF, float(d1)) - 1e-12
                assert joint >= conditional_rd(HALF, float(d2)) - 1e-12


class TestSymmetricInverse:
    def test_branch_point(self):
        d = symmetric_joint_rd_inverse(HALF, 0.5 * math.log2(3.0))
        assert d == pytest.approx(0.5, abs=1e-12)

    def test_zero_rate_gives_variance(self):
        assert symmetric_joint_rd_inverse(HALF, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_round_trip_across_rhos(self):
        for rho in (0.0, 0.25, 0.5, 0.9, 0.99, 1.0):
            src = SourceParams(1.0, rho)
            for d in np.arange(0.1, 0.95, 0.1):
                rate = joint_rd(src, DistortionPair(float(d), float(d)))
                assert symmetric_joint_rd_inverse(src, rate) == pytest.approx(float(d), abs=1e-12)

    def test_inverse_is_decreasing_in_rate(self):
        vals = [symmetric_joint_rd_inverse(HALF, r) for r in np.linspace(0.0, 5.0, 60)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_branch_rate_value(self):
        assert diagonal_branch_rate(HALF) == pytest.approx(0.5 * math.log2(3.0), abs=1e-15)
        assert diagonal_branch_rate(SourceParams(1.0, 1.0)) == math.inf

    def test_rejects_negative_rate(self):
        with pytest.raises(ParameterError):
            symmetric_joint_rd_inverse(HALF, -0.1)

    def test_both_branches_within_four_ulps_of_decimal_reference(self):
        # rho = 1 - 10^U(-12, 0) against a 60-digit decimal evaluation of
        # each branch inverse. Region A keeps its digits only if 1 - rho^2
        # is formed as (1 - rho)(1 + rho); as 1 - rho * rho it is 1.6e7 ulps
        # off.
        rng = np.random.default_rng(31)
        worst = {"A": 0.0, "B": 0.0}
        for _ in range(1_000):
            rho = 1.0 - 10.0 ** rng.uniform(-12.0, 0.0)
            s2 = 10.0 ** rng.uniform(-3.0, 3.0)
            source = SourceParams(s2, rho)
            branch = diagonal_branch_rate(source)
            for rate in (branch + rng.uniform(0.0, 20.0), branch * rng.uniform(0.0, 1.0)):
                d = symmetric_joint_rd_inverse(source, rate)
                with decimal.localcontext(decimal.Context(prec=60)):
                    r, x = Decimal(rho), Decimal(rate)
                    if rate >= branch:
                        region, exact = "A", Decimal(s2) * (1 - r * r).sqrt() * Decimal(2) ** -x
                    else:
                        region, exact = "B", Decimal(s2) * ((1 + r) * Decimal(4) ** -x + (1 - r)) / 2
                    ulps = float(abs(Decimal(d) - exact) / Decimal(math.ulp(float(exact))))
                worst[region] = max(worst[region], ulps)
        assert worst["A"] <= 4.0 and worst["B"] <= 4.0, worst


# rho in [0, 1], sigma2 log-uniform in 1e-300..1e300 and each d / sigma2
# log-uniform in 1e-100..10, so every region and the clamp at sigma2 occur.
RD_DOMAIN = dict(
    rho=st.floats(0.0, 1.0),
    sigma2=log_uniform(-300.0, 300.0),
    u1=log_uniform(-100.0, 1.0),
    u2=log_uniform(-100.0, 1.0),
)


def _pair(sigma2, *ratios):
    ds = [sigma2 * u for u in ratios]
    assume(all(d > 0.0 for d in ds))
    return ds


@pytest.mark.parametrize("rho", [1.0 - 2.0 ** -20, 1.0 - 2.0 ** -40, 1.0 - 2.0 ** -52])
@pytest.mark.parametrize("d", [0.01, 0.5, 0.9])
def test_region_b_diagonal_accurate_near_full_correlation(rho, d):
    # On the diagonal the region-B rate is 0.5 log2((1 + rho) / (2d - (1 - rho))),
    # whose operands here are exact or one rounding away.
    src = SourceParams(1.0, rho)
    assert classify_region(src, DistortionPair(d, d)) is Region.B
    expected = 0.5 * math.log2((1.0 + rho) / (2.0 * d - (1.0 - rho)))
    assert joint_rd(src, DistortionPair(d, d)) == pytest.approx(expected, rel=1e-14)


class TestJointRdDomain:
    @settings(max_examples=500, deadline=None)
    @given(**RD_DOMAIN)
    def test_symmetric(self, rho, sigma2, u1, u2):
        src = SourceParams(sigma2, rho)
        d1, d2 = _pair(sigma2, u1, u2)
        assert joint_rd(src, DistortionPair(d1, d2)) == joint_rd(src, DistortionPair(d2, d1))

    @settings(max_examples=500, deadline=None)
    @given(**RD_DOMAIN, u3=log_uniform(-100.0, 1.0))
    def test_nonincreasing_in_each_distortion(self, rho, sigma2, u1, u2, u3):
        src = SourceParams(sigma2, rho)
        lo, hi, other = _pair(sigma2, min(u1, u3), max(u1, u3), u2)
        assert joint_rd(src, DistortionPair(hi, other)) <= joint_rd(src, DistortionPair(lo, other)) + 1e-12
        assert joint_rd(src, DistortionPair(other, hi)) <= joint_rd(src, DistortionPair(other, lo)) + 1e-12

    @settings(max_examples=500, deadline=None)
    @given(**RD_DOMAIN)
    def test_at_least_the_larger_conditional_rate(self, rho, sigma2, u1, u2):
        src = SourceParams(sigma2, rho)
        d1, d2 = _pair(sigma2, u1, u2)
        floor = max(conditional_rd(src, d1), conditional_rd(src, d2))
        assert joint_rd(src, DistortionPair(d1, d2)) >= floor - 1e-12


def _scalar_joint(rho, d1, d2):
    """joint_rd at unit variance, point by point: the float path."""
    source = SourceParams(1.0, rho)
    return [joint_rd(source, DistortionPair(a, b)) for a, b in zip(d1.tolist(), d2.tolist())]


# Log-uniform over the normal range, or over [1e-3, 1], where region B lies.
_UNIT_TARGET = log_uniform(-307.6, 0.0) | log_uniform(-3.0, 0.0)


class TestJointRdKernelOnArrays:
    """The array path of the joint-rate kernel returns the float path's
    bits, and raises on any point outside its domain."""

    @settings(max_examples=200, deadline=None)
    @given(
        rho=st.floats(0.0, 1.0, exclude_max=True) | st.floats(-12.0, -1.0).map(lambda e: 1.0 - 10.0 ** e),
        ds=st.lists(st.tuples(_UNIT_TARGET, _UNIT_TARGET), min_size=1, max_size=40),
    )
    @example(rho=0.5, ds=[(0.5, 0.5), (0.2, 0.8), (0.8, 0.2), (1.0, 1.0), (0.5, 0.6), (0.3, 0.3)])
    def test_equals_scalar_joint_rd(self, rho, ds):
        # The points whose product falls below the normal range belong to
        # joint_rd alone.
        d1, d2 = np.array(ds).T
        keep = d1 * d2 >= sys.float_info.min
        d1, d2 = d1[keep], d2[keep]
        assert _joint_rd_unit(rho, d1, d2).tolist() == _scalar_joint(rho, d1, d2)

    @pytest.mark.parametrize("rho", [0.0, 0.35, 0.5, 0.75, 0.99])
    def test_equals_scalar_joint_rd_on_the_full_scale_grid(self, rho):
        # The grid of the rd-properties criterion at full scale.
        d_axis = np.arange(1, 201) / 200
        d1, d2 = (axis.ravel() for axis in np.meshgrid(d_axis, d_axis))
        assert _joint_rd_unit(rho, d1, d2).tolist() == _scalar_joint(rho, d1, d2)

    @pytest.mark.parametrize("rho", [0.35, 0.75])
    def test_equals_scalar_joint_rd_on_the_region_boundaries(self, rho):
        # The A/B and B/C boundary points of the continuity check in
        # rd-properties, in both orders.
        cva = 1.0 - rho * rho
        t = np.linspace(0.05, 0.95, 25) * cva
        u = np.linspace(0.05, 1.0, 25)
        d1 = np.concatenate([t, u])
        d2 = np.concatenate([(cva - t) / (1.0 - t), cva + rho * rho * u])
        d1, d2 = np.concatenate([d1, d2]), np.concatenate([d2, d1])
        assert _joint_rd_unit(rho, d1, d2).tolist() == _scalar_joint(rho, d1, d2)

    def test_takes_a_product_at_the_edge_of_the_normal_range(self):
        d = np.array([2.0 ** -511, 0.5])
        assert _joint_rd_unit(0.5, d, d).tolist() == _scalar_joint(0.5, d, d)

    @pytest.mark.parametrize("point", [
        (0.0, 0.5), (0.5, 0.0), (-0.5, 0.5), (-0.5, -0.5), (1.5, 0.5), (math.nan, 0.5), (0.5, math.inf),
        (1e-200, 1e-200), (5e-324, 0.5), (1e-300, 1e-10),
    ])
    def test_raises_outside_its_domain(self, point):
        # Targets outside (0, 1], or a product below the normal range: the
        # array path raises rather than return a wrong number. joint_rd
        # takes the last three itself.
        d1, d2 = np.array([(0.3, 0.3), point, (0.5, 0.6)]).T
        with pytest.raises(ParameterError):
            _joint_rd_unit(0.5, d1, d2)

    def test_raises_at_full_correlation(self):
        with pytest.raises(ParameterError):
            _joint_rd_unit(1.0, np.array([0.3, 0.5]), np.array([0.3, 0.6]))
