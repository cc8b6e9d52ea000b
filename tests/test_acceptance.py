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

import math

import numpy as np

from gmacfb import DistortionPair, SourceParams, conditional_rd, joint_rd
from gmacfb.verification import SCALES, CriterionResult, CRITERIA, _rate_scanner, run_criteria

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


def test_criterion_5_feasibility_oracle():
    from gmacfb.verification import feasibility_oracle

    result = _run(feasibility_oracle)
    assert result.passed, result.detail


def test_rate_scan_matches_written_conditions():
    # The buffered scan must give the mask of the three rate conditions as
    # written, bit for bit. Instances are drawn as the oracle draws them;
    # this seed gives empty, full and partial masks.
    grid = np.linspace(0.0, 1.0, 100_001)
    scan = _rate_scanner(grid)
    rng = np.random.default_rng(20)
    for _ in range(20):
        s2 = rng.uniform(0.5, 2.0)
        source = SourceParams(s2, rng.uniform(0.0, 0.95))
        p1, p2 = rng.uniform(0.05, 4.0, size=2)
        n0 = rng.uniform(0.25, 2.0)
        d1, d2 = rng.uniform(0.05, 1.15, size=2) * s2
        r_joint = joint_rd(source, DistortionPair(d1, d2))
        r1, r2 = conditional_rd(source, d1), conditional_rd(source, d2)
        sum_cap = 0.5 * np.log2(1.0 + (p1 + p2 + 2.0 * grid * math.sqrt(p1 * p2)) / n0)
        priv = 1.0 - grid * grid
        cap1 = 0.5 * np.log2(1.0 + p1 * priv / n0)
        cap2 = 0.5 * np.log2(1.0 + p2 * priv / n0)
        written = (r_joint <= sum_cap) & (r1 <= cap1) & (r2 <= cap2)
        assert np.array_equal(scan(p1, p2, n0, r_joint, r1, r2), written)


def test_criterion_6_rd_properties():
    from gmacfb.verification import rd_properties

    result = _run(rd_properties)
    assert result.passed, result.detail


def test_criterion_7_determinism():
    from gmacfb.verification import determinism

    result = _run(determinism)
    assert result.passed, result.detail


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
