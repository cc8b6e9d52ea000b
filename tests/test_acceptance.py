"""Acceptance gate: every verification criterion at full scale.

Each test prints one PASS/FAIL line and asserts the criterion outcome.

Known state: `tightness-below-threshold` demands that the minimax lower
bound coincide with the uncoded distortion at every SNR below the
threshold. Mathematically the two agree only at the threshold SNR itself
(where the crossing lands at the source correlation); strictly inside the
range the minimax is smaller by a finite margin (up to ~4e-2), because the
bound's two curves cross above the operating correlation of the uncoded
scheme. The optimality of uncoded transmission below the threshold is a
distinct fact that the bound alone does not certify, so this criterion
fails by construction, with the achieved gap reported. Everything it
touches is additionally pinned by the threshold-anchor and
endpoint-threshold criteria, which pass.
"""

import dataclasses
import math
import struct
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from helpers import log_uniform

from gmacfb import (
    ChannelParams, DistortionPair, FeasibilityResult, SourceParams, bounds, cli, conditional_rd, joint_rd, snr_threshold,
    verification,
)
from gmacfb.rate_distortion import diagonal_branch_rate
from gmacfb.verification import SCALES, CriterionResult, CRITERIA, run_criteria

FULL = SCALES["full"]


def _report(result: CriterionResult) -> None:
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} {result.name}: {result.detail}")


def _run(func) -> CriterionResult:
    result = func(FULL)
    _report(result)
    return result


def test_criterion_1_tightness_below_threshold():
    from gmacfb.verification import tightness_below_threshold

    result = _run(tightness_below_threshold)
    assert result.passed, result.detail


def test_criterion_2_threshold_anchor():
    from gmacfb.verification import threshold_anchor

    result = _run(threshold_anchor)
    assert result.passed, result.detail


def test_criterion_3_monte_carlo_agreement():
    from gmacfb.verification import monte_carlo_agreement

    result = _run(monte_carlo_agreement)
    assert result.passed, result.detail


def test_criterion_4_endpoint_threshold():
    from gmacfb.verification import endpoint_threshold

    result = _run(endpoint_threshold)
    assert result.passed, result.detail


# Each tampering changes the minimax result at rho = 0.5 only: an endpoint
# reported as a crossing, a crossing at rho_tilde = 1, a crossing moved off
# the curves' intersection, and a crossing value off the grid minimum.
@pytest.mark.parametrize("active, change, problems", [
    ("endpoint", lambda res: {"active": "crossing"}, ["rho=0.5 snr=0.0625: expected endpoint"]),
    ("crossing", lambda res: {"rho_star": 1.0}, ["rho=0.5 snr=0.1375: expected interior crossing"]),
    ("crossing", lambda res: {"rho_star": res.rho_star - 0.01}, [
        "rho=0.5 snr=0.1375: curve gap 2.75e-03", "rho=0.5 snr=0.1375: grid argmin off by 1.00e-02",
    ]),
    ("crossing", lambda res: {"lower_bound": res.lower_bound + 1e-5}, ["rho=0.5 snr=0.1375: grid value off by 9.75e-06"]),
], ids=["endpoint-as-crossing", "crossing-at-one", "crossing-shifted", "crossing-value-off"])
def test_endpoint_threshold_reports_a_misplaced_minimax(monkeypatch, active, change, problems):
    real = verification.minimax_lower_bound

    def tampered(source, p, n0):
        res = real(source, p, n0)
        if source.rho == 0.5 and res.active == active:
            return dataclasses.replace(res, **change(res))
        return res

    monkeypatch.setattr(verification, "minimax_lower_bound", tampered)
    result = verification.endpoint_threshold(SCALES["quick"])
    assert not result.passed
    for problem in problems:
        assert problem in result.detail


def _written_grid_minimax(grid, rho, p, branch_rate):
    """The endpoint criterion's grid minimax, written out of place."""
    rate = 0.5 * np.log2(1.0 + 2.0 * p * (1.0 + grid))
    region_a = math.sqrt(1.0 - rho * rho) * np.exp2(-rate)
    region_b = 0.5 * ((1.0 + rho) * np.exp2(-2.0 * rate) + (1.0 - rho))
    sum_rate = np.where(rate >= branch_rate, region_a, region_b)
    values = np.maximum(sum_rate, (1.0 - rho * rho) / (1.0 + p * (1.0 - grid * grid)))
    idx = int(np.argmin(values))
    return idx, values[idx]


def _endpoint_cases():
    """(rho, p/n0) at the criterion's three crossing SNRs per correlation,
    and at correlations and SNRs near the ends of their ranges."""
    for rho in verification.RHO_GRID:
        source = SourceParams(1.0, rho)
        t_end = bounds.endpoint_snr_threshold(source)
        yield from ((rho, p) for p in (t_end * 1.1, t_end * 2.0, snr_threshold(source) * 1.5))
    yield from ((rho, p) for rho in (0.01, 0.999) for p in (1e-3, 1.0, 1e3))


def test_grid_minimax_is_the_written_expression():
    # In place, every step is the written one: index and value equal to
    # the bit.
    grid = np.linspace(0.0, 1.0, verification.MINIMAX_POINTS)
    for rho, p in _endpoint_cases():
        branch_rate = diagonal_branch_rate(SourceParams(1.0, rho))
        expected = _written_grid_minimax(grid, rho, p, branch_rate)
        assert verification._grid_minimax(grid, rho, p, branch_rate) == expected, (rho, p)


def test_endpoint_threshold_memory_is_the_grid_and_three_arrays():
    # The grid, three more arrays of its size and a mask: the written
    # expression's temporaries (about 6 MiB) would not fit.
    verification.endpoint_threshold(FULL)
    tracemalloc.start()
    try:
        verification.endpoint_threshold(FULL)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 8 * verification.MINIMAX_POINTS + 2 ** 18


def _patch_sum_rate_kernel(monkeypatch, region_b):
    """Put a 1e-5 relative error into one region of the sum-rate kernel
    (B if region_b, else A), wherever a module binds it."""
    real = bounds._sum_rate_unit

    def off_in_one_region(rho, snr, t):
        value, slope = real(rho, snr, t)
        if ((1.0 + 2.0 * snr * t) * (1.0 - rho) < 1.0 + rho) == region_b:
            value *= 1.0 + 1e-5
        return value, slope

    for name, module in list(sys.modules.items()):
        if (name == "gmacfb" or name.startswith("gmacfb.")) and getattr(module, "_sum_rate_unit", None) is real:
            monkeypatch.setattr(module, "_sum_rate_unit", off_in_one_region)


def test_endpoint_threshold_grid_does_not_reuse_the_sum_rate_kernel(monkeypatch):
    # The error moves the minimax; a grid built on that kernel would move
    # with it and stay green.
    _patch_sum_rate_kernel(monkeypatch, region_b=True)
    result = verification.endpoint_threshold(SCALES["quick"])
    assert not result.passed
    assert "grid value off" in result.detail


def test_endpoint_threshold_sees_a_region_a_error_in_the_sum_rate_kernel(monkeypatch):
    # Only the crossings above the uncoded-optimality threshold lie in A.
    _patch_sum_rate_kernel(monkeypatch, region_b=False)
    result = verification.endpoint_threshold(SCALES["quick"])
    assert not result.passed
    assert "grid value off" in result.detail


def test_criterion_5_feasibility_oracle():
    from gmacfb.verification import feasibility_oracle

    result = _run(feasibility_oracle)
    assert result.passed, result.detail


def test_feasibility_oracle_reports_a_wrong_interval(monkeypatch):
    # Of the quick scale's instances, 0 is infeasible, 8 feasible on about
    # 0.43 of [0, 1] and 9 on about 0.56. Report 0 as feasible on [0, 1],
    # narrow 8 by 0.1 at its top, and report 9 as infeasible.
    real = verification.check_feasibility
    calls = []

    def tampered(source, channel, pair):
        res = real(source, channel, pair)
        calls.append(res)
        i = len(calls) - 1
        if i == 0:
            return FeasibilityResult(True, (0.0, 1.0), 0.5)
        if i == 8:
            lo, hi = res.rho_interval
            return FeasibilityResult(True, (lo, hi - 0.1), 0.5 * (lo + hi - 0.1))
        if i == 9:
            return FeasibilityResult(False, None, None)
        return res

    monkeypatch.setattr(verification, "check_feasibility", tampered)
    result = verification.feasibility_oracle(SCALES["quick"])
    assert not calls[0].feasible and calls[8].feasible and calls[9].feasible
    assert not result.passed
    assert "instance 0: scan empty, closed-form interval wide" in result.detail
    assert "instance 8: endpoints (" in result.detail
    assert "instance 9: scan feasible on [" in result.detail and "closed-form infeasible" in result.detail


def _written_caps(grid, p1, p2, n0):
    """The sum-rate, user-1 and user-2 caps as written on s_i = p_i / n0,
    over the whole grid."""
    s1, s2 = p1 / n0, p2 / n0
    sum_cap = 0.5 * np.log2(1.0 + s1 + s2 + 2.0 * grid * math.sqrt(s1) * math.sqrt(s2))
    priv = 1.0 - grid * grid
    return sum_cap, 0.5 * np.log2(1.0 + s1 * priv), 0.5 * np.log2(1.0 + s2 * priv)


def _written_hits(grid, rates):
    """Indices where the three rate conditions hold as written."""
    p1, p2, n0, r_joint, r1, r2 = rates
    sum_cap, cap1, cap2 = _written_caps(grid, p1, p2, n0)
    return np.flatnonzero((r_joint <= sum_cap) & (r1 <= cap1) & (r2 <= cap2))


def _oracle_rates(seed, count):
    """The rates of count instances drawn as the oracle draws them."""
    rng = np.random.default_rng(seed)
    rates = []
    for _ in range(count):
        source, channel, pair = verification._oracle_instance(rng)
        rates.append((
            channel.p1, channel.p2, channel.n0,
            joint_rd(source, pair), conditional_rd(source, pair.d1), conditional_rd(source, pair.d2),
        ))
    return rates


def test_rate_scan_matches_written_conditions():
    # The span must be the first and last index of the mask of the three
    # rate conditions as written over the whole grid. Instances are drawn
    # as the oracle draws them; this seed gives empty, full and partial
    # masks. Four more make one condition decide alone: only the sum rate,
    # only user 1, or only user 2 fails everywhere, and the caps of one
    # point, where the sum rate holds from it on and user 1 up to it. The
    # last instance is feasible on about [0.5, 0.51] only.
    grid = np.linspace(0.0, 1.0, 100_001)
    instances = _oracle_rates(seed=20, count=20)
    sum_cap, cap1, _ = _written_caps(grid, 1.0, 1.0, 1.0)
    instances += [
        (1.0, 1.0, 1.0, 2.0, 0.0, 0.0),
        (1.0, 1.0, 1.0, 0.0, 1.0, 0.0),
        (1.0, 1.0, 1.0, 0.0, 0.0, 1.0),
        (1.0, 1.0, 1.0, sum_cap[50_123], cap1[50_123], 0.0),
    ]
    cap_at_051 = 0.5 * math.log2(2.0 - 0.51 * 0.51)
    instances.append((1.0, 1.0, 1.0, 1.0, cap_at_051, cap_at_051))
    kinds = set()
    for rates in instances:
        hits = _written_hits(grid, rates)
        span = (hits[0], hits[-1]) if len(hits) else (-1, -1)
        assert verification._feasible_span(grid, rates) == span
        kinds.add("empty" if not len(hits) else "full" if len(hits) == len(grid) else "partial")
    assert kinds == {"empty", "full", "partial"}
    assert _written_hits(grid, instances[-2]).tolist() == [50_123]
    first, last = span  # of the last instance
    assert 0 < last - first < 2_000


_PROPERTY_GRID = np.linspace(0.0, 1.0, 10_001)
# A drawn index is any grid point, or None for a rate of 0 (holds
# everywhere).
_INDEX = st.none() | st.integers(0, 10_000)


@settings(max_examples=300, deadline=None)
@given(p1=log_uniform(-3, 3), p2=log_uniform(-3, 3), n0=log_uniform(-3, 3), at=st.tuples(_INDEX, _INDEX, _INDEX))
def test_rate_scan_property(p1, p2, n0, at):
    # Each rate is its cap at a drawn grid point, so the ends of the span
    # land anywhere, or the span is empty.
    caps = _written_caps(_PROPERTY_GRID, p1, p2, n0)
    rates = (p1, p2, n0, *(0.0 if i is None else cap[i] for cap, i in zip(caps, at)))
    hits = _written_hits(_PROPERTY_GRID, rates)
    span = verification._feasible_span(_PROPERTY_GRID, rates)
    assert span == ((hits[0], hits[-1]) if len(hits) else (-1, -1))


@pytest.mark.parametrize("scale", [1.0, 4.0 ** 10])
def test_rate_scan_tie_decided_by_the_written_form(scale):
    # The sum rate r is the written sum cap at index 8684, and the user
    # rates are 0. There the received SNR s1 + s2 + 2 rt sqrt(s1) sqrt(s2)
    # rounds to 0.935972853767942, an ulp below the SNR need
    # 4^r - 1 = 0.9359728537679421: an SNR test alone would reject the
    # point that the written form accepts. A power of four scales p1, p2
    # and n0 and leaves each s_i = p_i / n0 as it was.
    p1, p2, n0 = (v * scale for v in (5.462735454767605, 28.230718763147177, 59.04204526508543))
    sum_cap, _, _ = _written_caps(_PROPERTY_GRID, p1, p2, n0)
    rates = (p1, p2, n0, sum_cap[8684], 0.0, 0.0)
    assert verification._feasible_span(_PROPERTY_GRID, rates) == (8684, 10_000)


def test_rate_scan_edge_rates():
    # A user rate of 0 holds everywhere, at rho_tilde = 1 too, where the
    # private power is 0. Rates of 600 bits and beyond any float hold
    # nowhere, and raise no warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert verification._feasible_span(_PROPERTY_GRID, (1.0, 2.0, 0.5, 0.0, 0.0, 0.0)) == (0, 10_000)
        for r in (600.0, math.inf):
            for at in range(3):
                rates = [0.0, 0.0, 0.0]
                rates[at] = r
                assert verification._feasible_span(_PROPERTY_GRID, (1.0, 2.0, 0.5, *rates)) == (-1, -1)
    # Where s1 + s2 overflows, the written sum cap is infinite and holds
    # for any rate.
    with np.errstate(over="ignore"):
        assert verification._feasible_span(_PROPERTY_GRID, (1.0, 1.0, 1e-308, 600.0, 0.0, 0.0)) == (0, 10_000)


class _CountedReads:
    """A grid that counts the points read from it."""

    def __init__(self, grid):
        self.grid = grid
        self.reads = 0

    def __len__(self):
        return len(self.grid)

    def __getitem__(self, i):
        points = self.grid[i]
        self.reads += np.size(points)
        return points


def test_feasible_span_reads_a_logarithmic_number_of_points():
    # Two bisections read at most ceil(log2 N) + 1 points each; a dense
    # scan would read all 100,001. The span is still the mask's ends.
    grid = np.linspace(0.0, 1.0, 100_001)
    limit = 2 * (math.ceil(math.log2(len(grid))) + 1)
    for rates in _oracle_rates(seed=20, count=20):
        counted = _CountedReads(grid)
        span = verification._feasible_span(counted, rates)
        hits = _written_hits(grid, rates)
        assert span == ((hits[0], hits[-1]) if len(hits) else (-1, -1))
        assert 0 < counted.reads <= limit


def test_feasibility_oracle_scans_in_order_on_the_calling_thread(monkeypatch):
    # Instance i's rates reach the scan i-th, on the thread that called.
    real = verification._feasible_span
    seen = []

    def recorded(grid, rates):
        seen.append((threading.current_thread(), rates))
        return real(grid, rates)

    monkeypatch.setattr(verification, "_feasible_span", recorded)
    quick = SCALES["quick"]
    assert verification.feasibility_oracle(quick).passed
    assert [thread for thread, _ in seen] == [threading.current_thread()] * quick.instances
    assert [rates for _, rates in seen] == _oracle_rates(seed=424242, count=quick.instances)


def test_feasibility_oracle_memory_holds_no_grid():
    # Grid points are formed on demand: under 64 KiB, where the 8 MB grid
    # of 10^6 points would not fit.
    verification.feasibility_oracle(FULL)
    tracemalloc.start()
    try:
        verification.feasibility_oracle(FULL)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 16


class _EveryFloat:
    """Every double in [0, 1], in order: item i has the bit pattern i."""

    def __len__(self):
        return 0x3FF0000000000000 + 1

    def __getitem__(self, i):
        return struct.unpack("<d", struct.pack("<q", i))[0]


def test_feasibility_interval_contains_the_span_at_float_resolution():
    # One-sided at float resolution: on the oracle's instances the verdicts
    # agree, and the closed-form interval holds every float where the three
    # rate conditions hold as written. About 60 probes per bisection.
    grid = _EveryFloat()
    assert grid[0] == 0.0 and grid[len(grid) - 1] == 1.0 and grid[1] == 5e-324
    rng = np.random.default_rng(424242)
    feasible = 0
    for i in range(500):
        source, channel, pair = verification._oracle_instance(rng)
        res = bounds.check_feasibility(source, channel, pair)
        first, last = verification._feasible_span(grid, (
            channel.p1, channel.p2, channel.n0,
            joint_rd(source, pair), conditional_rd(source, pair.d1), conditional_rd(source, pair.d2),
        ))
        assert res.feasible == (first >= 0), i
        if res.feasible:
            feasible += 1
            lo, hi = res.rho_interval
            assert lo <= grid[first] and grid[last] <= hi, (i, res.rho_interval, grid[first], grid[last])
    assert feasible > 200


_EXPONENT = st.floats(-300.0, 300.0)
_UNIT = st.floats(0.0, 1.0)
_SHIFT = st.floats(-1.0, 1.0)


@settings(max_examples=300, deadline=None)
@given(rho=st.floats(0.0, 1.0, exclude_max=True), exponents=st.tuples(_EXPONENT, _EXPONENT),
       depth=st.tuples(_UNIT, _UNIT), shift=st.tuples(_SHIFT, _SHIFT))
# p1 p2 = 1e343 overflows: a product form reads the sum cap as inf.
@example(rho=0.5, exponents=(101.0, 242.0), depth=(0.87, 0.79), shift=(-0.89, 0.95))
# User 2's rate, 4.8e-16 bits, is above its written cap, which rounds to 0,
# but within the rate slack: feasible, with no span at the rates as given.
@example(rho=0.0, exponents=(0.0, -16.0), depth=(0.0, 0.0), shift=(0.0, -2.220446049250313e-16))
def test_feasibility_interval_contains_the_span_at_the_extremes(rho, exponents, depth, shift):
    # The float-resolution check over the extremes that bound accepts:
    # s_i = p_i / n0 from 1e-300 to 1e300, and d_i / sigma2 =
    # (1 + s_i)^-depth_i 10^shift_i, floored at 1e-300, so that the targets
    # follow the powers and about half the draws are feasible.
    # check_feasibility lowers each rate by its slack before it decides, so
    # the verdicts agree at the lowered rates, and the interval holds the
    # span of the rates as given.
    s = [10.0 ** e for e in exponents]
    d = [10.0 ** max(-u * math.log10(1.0 + s_i) + v, -300.0) for s_i, u, v in zip(s, depth, shift)]
    source, pair = SourceParams(1.0, rho), DistortionPair(*d)
    res = bounds.check_feasibility(source, ChannelParams(s[0], s[1], 1.0), pair)
    rates = (joint_rd(source, pair), conditional_rd(source, pair.d1), conditional_rd(source, pair.d2))
    grid = _EveryFloat()
    lowered = [(1.0 - bounds._RATE_SLACK) * r - bounds._RATE_SLACK for r in rates]
    assert res.feasible == (verification._feasible_span(grid, (s[0], s[1], 1.0, *lowered))[0] >= 0)
    first, last = verification._feasible_span(grid, (s[0], s[1], 1.0, *rates))
    if first >= 0:
        assert res.feasible
        lo, hi = res.rho_interval
        assert lo <= grid[first] and grid[last] <= hi


@pytest.mark.parametrize("n", [2, 3, 10_001, 100_001])
def test_linspace_grid_is_np_linspace_at_every_index(n):
    grid = verification._LinspaceGrid(n)
    assert len(grid) == n
    assert [grid[i] for i in range(n)] == np.linspace(0.0, 1.0, n).tolist()


def test_linspace_grid_is_np_linspace_at_full_scale():
    # The two ends and 10,000 seeded indices of the oracle's 10^6 points.
    n = FULL.scan_points
    grid = verification._LinspaceGrid(n)
    dense = np.linspace(0.0, 1.0, n)
    at = [0, n - 1, *np.random.default_rng(30).integers(0, n, size=10_000).tolist()]
    assert [grid[i] for i in at] == dense[at].tolist()


def test_feasibility_oracle_spans_equal_the_dense_grid_spans(monkeypatch):
    # Each instance's span on the oracle's grid is its span on the array
    # np.linspace builds.
    real = verification._feasible_span
    quick = SCALES["quick"]
    dense = np.linspace(0.0, 1.0, quick.scan_points)
    spans = []

    def compared(grid, rates):
        span = real(grid, rates)
        spans.append(span)
        assert span == real(dense, rates)
        return span

    monkeypatch.setattr(verification, "_feasible_span", compared)
    assert verification.feasibility_oracle(quick).passed
    assert len(spans) == quick.instances
    # Empty spans, and spans that end inside the grid.
    assert any(first < 0 for first, _ in spans) and any(0 < last < len(dense) - 1 for _, last in spans)


def test_criterion_6_rd_properties():
    from gmacfb.verification import rd_properties

    result = _run(rd_properties)
    assert result.passed, result.detail


def test_rd_properties_reports_a_mislabelled_point(monkeypatch):
    # The grid's first point, (1/60, 1/60) at quick scale, lies deep in
    # region A; labelled C, it must fail the partition check.
    real = verification._regions

    def mislabel_first_point(rho, d1, d2):
        in_a, in_c = (mask.copy() for mask in real(rho, d1, d2))
        in_a[0], in_c[0] = False, True
        return in_a, in_c

    monkeypatch.setattr(verification, "_regions", mislabel_first_point)
    result = verification.rd_properties(SCALES["quick"])
    assert not result.passed
    assert "rho=0.35 d=(0.0167,0.0167): region outside the written regions" in result.detail


def test_rd_properties_reports_a_joint_rate_below_a_conditional_rate(monkeypatch):
    # The dominance check reads the joint-rate kernel chunk by chunk; its
    # rate at (0.5, 0.25) is lowered below the conditional rate there.
    real = verification._joint_rd_unit

    def low_at_one_point(rho, d1, d2):
        joint = real(rho, d1, d2)
        joint[(d1 == 0.5) & (d2 == 0.25)] = conditional_rd(SourceParams(1.0, rho), 0.25) - 1e-9
        return joint

    monkeypatch.setattr(verification, "_joint_rd_unit", low_at_one_point)
    result = verification.rd_properties(SCALES["quick"])
    assert not result.passed
    assert "rho=0.35 d=(0.5000,0.2500): joint" in result.detail
    assert "rho=0.5 d=(0.5000,0.2500): joint" in result.detail


def test_rd_properties_reports_a_round_trip_error(monkeypatch):
    real = verification.symmetric_joint_rd_inverse
    monkeypatch.setattr(verification, "symmetric_joint_rd_inverse", lambda source, rate: real(source, rate) + 1e-9)
    result = verification.rd_properties(SCALES["quick"])
    assert not result.passed
    assert "rho=0.0 d=0.1: round trip off by 1.00e-09" in result.detail


def test_criterion_7_determinism():
    from gmacfb.verification import determinism

    result = _run(determinism)
    assert result.passed, result.detail


def test_determinism_reports_differing_runs(monkeypatch):
    # Every second run prints one more line, and the sweep's also writes
    # one more byte to its CSV.
    real = cli.main
    runs = []

    def drifting(argv):
        code = real(argv)
        runs.append(argv)
        if len(runs) % 2 == 0:
            print("drift")
            if "--out" in argv:
                with open(argv[argv.index("--out") + 1], "a") as fh:
                    fh.write("x")
        return code

    monkeypatch.setattr(cli, "main", drifting)
    result = verification.determinism(SCALES["quick"])
    assert len(runs) == 4
    assert not result.passed
    assert result.detail == (
        "simulate output differs between identical runs; "
        "sweep CSV bytes differ between identical runs; "
        "sweep JSON output differs between identical runs"
    )


def test_criteria_registry_is_complete():
    names = [func(SCALES["quick"]).name for func in CRITERIA]
    assert names == [
        "tightness-below-threshold",
        "threshold-anchor",
        "monte-carlo-agreement",
        "endpoint-threshold",
        "feasibility-oracle",
        "rd-properties",
        "determinism",
    ]
    assert [r.name for r in run_criteria("quick")] == names
