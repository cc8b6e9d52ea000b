import dataclasses
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmacfb import (
    ParameterError,
    SimConfig,
    SimReport,
    SimulationError,
    SourceParams,
    UncodedEncoder,
    gen_source,
    mmse_decode_uncoded,
    mmse_gain,
    run_channel,
    simulate_uncoded,
    uncoded_distortion,
)
from gmacfb import cli, simulate
from gmacfb.simulate import _BATCH_SYMBOLS, FeedbackEncoder, _merge, _moments

HALF = SourceParams(1.0, 0.5)


class ZeroEncoder(FeedbackEncoder):
    def emit(self, source, past_outputs, k):
        return np.zeros(len(source))


class EchoEncoder(FeedbackEncoder):
    """Repeats each block's previous channel output; records what it saw."""

    def __init__(self):
        self.seen = []

    def emit(self, source, past_outputs, k):
        self.seen.append(past_outputs.copy())
        return past_outputs[:, -1] if k > 0 else np.zeros(len(source))


class NanEncoder(FeedbackEncoder):
    def emit(self, source, past_outputs, k):
        return np.full(len(source), math.nan)


def column_sources(n, rng):
    """n blocks of one symbol each."""
    s1, s2 = gen_source(HALF, n, rng)
    return s1[:, None], s2[:, None]


class TestGenSource:
    def test_fully_correlated_components_coincide(self):
        rng = np.random.default_rng(7)
        s1, s2 = gen_source(SourceParams(2.0, 1.0), 10_000, rng)
        assert np.array_equal(s1, s2)

    def test_independent_components_decorrelated(self):
        rng = np.random.default_rng(11)
        n = 1_000_000
        s1, s2 = gen_source(SourceParams(1.0, 0.0), n, rng)
        r = np.mean(s1 * s2) / math.sqrt(np.mean(s1 * s1) * np.mean(s2 * s2))
        assert abs(r) < 4.0 / math.sqrt(n)

    def test_empirical_correlation_tracks_rho(self):
        rng = np.random.default_rng(13)
        s1, s2 = gen_source(HALF, 1_000_000, rng)
        r = np.mean(s1 * s2) / math.sqrt(np.mean(s1 * s1) * np.mean(s2 * s2))
        assert r == pytest.approx(0.5, abs=0.004)

    def test_empirical_variances_track_sigma2(self):
        rng = np.random.default_rng(17)
        src = SourceParams(2.5, 0.3)
        n = 400_000
        s1, s2 = gen_source(src, n, rng)
        # var of the variance estimate is 2 sigma^4 / n
        radius = 4.0 * src.sigma2 * math.sqrt(2.0 / n)
        assert abs(np.mean(s1 * s1) - src.sigma2) < radius
        assert abs(np.mean(s2 * s2) - src.sigma2) < radius


class TestUncodedEncoder:
    def test_gain_for_power(self):
        enc = UncodedEncoder.for_power(4.0)
        assert enc.gain == 2.0

    def test_rejects_bad_power(self):
        with pytest.raises(ParameterError):
            UncodedEncoder.for_power(0.0)


class TestRunChannel:
    def test_zero_encoders_pass_noise_through(self):
        rng = np.random.default_rng(23)
        n = 200_000
        s1, s2 = column_sources(n, rng)
        y, x1, x2 = run_channel(ZeroEncoder(), ZeroEncoder(), s1, s2, 2.0, rng)
        assert np.all(x1 == 0.0) and np.all(x2 == 0.0)
        assert np.var(y) == pytest.approx(2.0, abs=4.0 * 2.0 * math.sqrt(2.0 / n))

    def test_near_noiseless_limit(self):
        rng = np.random.default_rng(29)
        s1, s2 = column_sources(1000, rng)
        enc = UncodedEncoder.for_power(1.0)
        y, _, _ = run_channel(enc, enc, s1, s2, 1e-12, rng)
        np.testing.assert_allclose(y, enc.gain * (s1 + s2), atol=1e-4)

    def test_output_variance_identity(self):
        # var(y) = 2 p (1 + rho) + n0 for the uncoded scheme
        rng = np.random.default_rng(31)
        n = 1_000_000
        s1, s2 = column_sources(n, rng)
        enc = UncodedEncoder.for_power(1.0)
        y, _, _ = run_channel(enc, enc, s1, s2, 1.0, rng)
        target = 4.0
        assert np.var(y) == pytest.approx(target, abs=3.0 * target * math.sqrt(2.0 / n))

    def test_feedback_sees_previous_output_exactly(self):
        rng = np.random.default_rng(43)
        s1, s2 = gen_source(HALF, 500, rng)
        echo = EchoEncoder()
        y, x1, _ = run_channel(echo, ZeroEncoder(), s1[None, :], s2[None, :], 1.0, rng)
        assert x1[0, 0] == 0.0
        for k in range(1, 500):
            assert x1[0, k] == y[0, k - 1]
            assert np.array_equal(echo.seen[k], y[:, :k])

    def test_each_block_sees_only_its_own_past(self):
        # 8 independent blocks of 16 channel uses: at k = 0 every block
        # starts from an empty past, and later it hears only itself.
        rng = np.random.default_rng(67)
        s1, s2 = gen_source(HALF, 8 * 16, rng)
        echo = EchoEncoder()
        y, x1, _ = run_channel(
            echo, ZeroEncoder(), s1.reshape(8, 16), s2.reshape(8, 16), 1.0, rng
        )
        assert y.shape == x1.shape == (8, 16)
        assert echo.seen[0].shape == (8, 0)
        assert np.all(x1[:, 0] == 0.0)
        for k in range(1, 16):
            assert echo.seen[k].shape == (8, k)
            assert np.array_equal(x1[:, k], y[:, k - 1])

    def test_rejects_length_mismatch(self):
        rng = np.random.default_rng(47)
        with pytest.raises(ParameterError, match="equal shape"):
            run_channel(ZeroEncoder(), ZeroEncoder(), np.zeros((3, 1)), np.zeros((4, 1)), 1.0, rng)

    def test_rejects_non_finite_symbols(self):
        rng = np.random.default_rng(53)
        s1, s2 = column_sources(10, rng)
        with pytest.raises(SimulationError, match="non-finite symbol"):
            run_channel(NanEncoder(), ZeroEncoder(), s1, s2, 1.0, rng)


class TestMmseDecoder:
    def test_gain_value(self):
        assert mmse_gain(HALF, 1.0, 1.0) == pytest.approx(0.375, abs=1e-15)

    def test_gain_matches_regression_slope(self):
        rng = np.random.default_rng(59)
        n = 500_000
        s1, s2 = column_sources(n, rng)
        enc = UncodedEncoder.for_power(1.0)
        y, _, _ = run_channel(enc, enc, s1, s2, 1.0, rng)
        slope = float(np.vdot(s1, y) / np.vdot(y, y))
        assert slope == pytest.approx(mmse_gain(HALF, 1.0, 1.0), abs=0.003)

    def test_mse_identity_at_random_parameters(self):
        # sigma2 - c^2 var(y) must equal the closed-form distortion.
        rng = np.random.default_rng(61)
        for _ in range(20):
            s2 = float(rng.uniform(0.2, 3.0))
            rho = float(rng.uniform(0.0, 1.0))
            p = float(rng.uniform(0.05, 5.0))
            n0 = float(rng.uniform(0.1, 2.0))
            src = SourceParams(s2, rho)
            c = mmse_gain(src, p, n0)
            var_y = 2.0 * p * (1.0 + rho) + n0
            assert s2 - c * c * var_y == pytest.approx(
                uncoded_distortion(src, p, n0), rel=1e-12
            )

    def test_decode_applies_same_gain_to_both(self):
        y = np.array([1.0, -2.0, 0.5])
        e1, e2 = mmse_decode_uncoded(HALF, 1.0, 1.0, y)
        np.testing.assert_array_equal(e1, 0.375 * y)
        np.testing.assert_array_equal(e2, e1)

    def test_gain_finite_at_huge_variance(self):
        # p * sigma2 overflows a double here; the gain itself does not.
        gain = mmse_gain(SourceParams(1.7e308, 0.5), 2.0, 1.0)
        assert math.isfinite(gain)
        unit = mmse_gain(SourceParams(1.0, 0.5), 2.0, 1.0)
        assert gain == pytest.approx(unit * math.sqrt(1.7e308), rel=1e-15)

    def test_gain_finite_at_huge_power(self):
        # 2 p (1 + rho) overflows a double here; the gain, about
        # sqrt(sigma2) / (2 sqrt(p)), does not.
        assert mmse_gain(HALF, 1e308, 1.0) == pytest.approx(5e-155, rel=1e-12)

    def test_gain_at_tiny_power_and_huge_noise(self):
        # n0 / p overflows a double here; n0 / sqrt(p) and the gain,
        # about 1.5 sqrt(p) / n0, do not.
        assert mmse_gain(HALF, 1e-200, 1e110) == pytest.approx(1.5e-210, rel=1e-12)

    def test_vanishing_power_limit(self):
        # no signal: the estimator collapses to zero and distortion to sigma2
        src = SourceParams(1.0, 0.0)
        assert mmse_gain(src, 1e-24, 1.0) == pytest.approx(0.0, abs=1e-11)
        assert uncoded_distortion(src, 1e-24, 1.0) == pytest.approx(1.0, abs=1e-12)


class TestSimConfig:
    def test_only_length_and_seed(self):
        assert [f.name for f in dataclasses.fields(SimConfig)] == ["symbols", "seed"]

    @pytest.mark.parametrize("kwargs", [
        {"symbols": 0},
        {"symbols": -1},
        {"symbols": 5, "seed": -1},
        {"symbols": 5, "seed": 2 ** 64},
    ])
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ParameterError):
            SimConfig(**kwargs)


class TestSimulateUncoded:
    def test_matches_closed_form_distortion(self):
        cfg = SimConfig(1_000_000, seed=42)
        rep = simulate_uncoded(HALF, 1.0, 1.0, cfg)
        d_u = uncoded_distortion(HALF, 1.0, 1.0)
        assert abs(rep.d1_hat - d_u) <= 4.0 * rep.stderr_d1
        assert abs(rep.d2_hat - d_u) <= 4.0 * rep.stderr_d2
        assert rep.rho_tilde_hat == pytest.approx(0.5, abs=0.004)
        assert rep.p1_hat == pytest.approx(1.0, abs=0.006)
        assert rep.p2_hat == pytest.approx(1.0, abs=0.006)
        assert not rep.p1_flagged and not rep.p2_flagged

    def test_deterministic_for_identical_config(self):
        cfg = SimConfig(150_000, seed=99)
        assert simulate_uncoded(HALF, 1.0, 1.0, cfg) == simulate_uncoded(HALF, 1.0, 1.0, cfg)

    def test_multi_batch_run_passes_gate(self):
        rep = simulate_uncoded(HALF, 1.0, 1.0, SimConfig(200_000, seed=5))
        d_u = uncoded_distortion(HALF, 1.0, 1.0)
        assert abs(rep.d1_hat - d_u) <= 4.0 * rep.stderr_d1
        assert abs(rep.d2_hat - d_u) <= 4.0 * rep.stderr_d2
        # each squared error is D_u times a chi-square with one degree of freedom
        assert rep.stderr_d1 == pytest.approx(d_u * math.sqrt(2.0 / 200_000), rel=0.05)

    def test_input_correlation_equals_source_correlation(self):
        # x_i = gain * s_i, so the input correlation statistic must match
        # the source correlation statistic to rounding error. 200,000
        # symbols span four batches, each seeded by (seed, batch index).
        cfg = SimConfig(200_000, seed=3)
        rep = simulate_uncoded(HALF, 2.0, 1.0, cfg)
        num = 0.0
        den1 = 0.0
        den2 = 0.0
        for batch, first in enumerate(range(0, cfg.symbols, _BATCH_SYMBOLS)):
            rng = np.random.default_rng((cfg.seed, batch))
            s1, s2 = gen_source(HALF, min(_BATCH_SYMBOLS, cfg.symbols - first), rng)
            num += float(np.dot(s1, s2))
            den1 += float(np.dot(s1, s1))
            den2 += float(np.dot(s2, s2))
        assert batch == 3
        source_corr = abs(num) / math.sqrt(den1 * den2)
        assert rep.rho_tilde_hat == pytest.approx(source_corr, abs=1e-12)

    def test_stderr_scales_with_sample_size(self):
        reps = {
            n: simulate_uncoded(HALF, 1.0, 1.0, SimConfig(n, seed=8))
            for n in (10_000, 100_000, 1_000_000)
        }
        for field in ("stderr_d1", "stderr_p1"):
            r1 = getattr(reps[10_000], field) / getattr(reps[100_000], field)
            r2 = getattr(reps[100_000], field) / getattr(reps[1_000_000], field)
            assert r1 == pytest.approx(math.sqrt(10.0), rel=0.15)
            assert r2 == pytest.approx(math.sqrt(10.0), rel=0.15)

    def test_report_invariants_enforced(self):
        rep = simulate_uncoded(HALF, 1.0, 1.0, SimConfig(1000, seed=1))
        with pytest.raises(SimulationError):
            dataclasses.replace(rep, rho_tilde_hat=1.5)
        with pytest.raises(SimulationError):
            dataclasses.replace(rep, d1_hat=math.nan)
        with pytest.raises(SimulationError):
            dataclasses.replace(rep, p1_hat=-0.1)

    @pytest.mark.parametrize("symbols", [1 << 20, 1 << 22])
    def test_memory_bounded_independent_of_length(self, symbols):
        tracemalloc.start()
        try:
            simulate_uncoded(HALF, 1.0, 1.0, SimConfig(symbols, seed=4))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20


class TestStreams:
    """Batch b runs on stream b % 2; the caller merges in batch order."""

    @pytest.mark.parametrize("symbols", [1, 65_537, 300_000, 1_000_003])
    def test_report_independent_of_stream_count(self, monkeypatch, symbols):
        cfg = SimConfig(symbols, seed=21)
        reports = []
        for cpus in (1, 2):
            monkeypatch.setattr(simulate, "_available_cpus", lambda: cpus)
            reports.append(simulate_uncoded(SourceParams(2.5, 0.3), 1.7, 0.6, cfg))
        assert reports[0] == reports[1]

    def test_more_streams_than_cores_under_fast_switching(self, monkeypatch):
        # Four streams on at most two cores, switching threads every few
        # microseconds: a lost or misplaced batch would change the report.
        cfg = SimConfig(1_000_003, seed=5)
        monkeypatch.setattr(simulate, "_available_cpus", lambda: 1)
        one = simulate_uncoded(HALF, 1.0, 1.0, cfg)
        monkeypatch.setattr(simulate, "_available_cpus", lambda: 4)
        monkeypatch.setattr(simulate, "_MAX_WORKERS", 4)
        threads = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            four = simulate_uncoded(HALF, 1.0, 1.0, cfg)
        finally:
            sys.setswitchinterval(interval)
        assert four == one
        assert threading.active_count() == threads

    @staticmethod
    def fail_on_odd_batch(monkeypatch):
        real = simulate.run_channel

        def run_channel(enc1, enc2, s1, s2, n0, rng):
            if rng.bit_generator.seed_seq.entropy[1] % 2:
                raise SimulationError("odd batch failed")
            return real(enc1, enc2, s1, s2, n0, rng)

        monkeypatch.setattr(simulate, "_available_cpus", lambda: 2)
        monkeypatch.setattr(simulate, "run_channel", run_channel)

    def test_helper_stream_error_reaches_caller(self, monkeypatch):
        self.fail_on_odd_batch(monkeypatch)
        with pytest.raises(SimulationError, match="odd batch failed"):
            simulate_uncoded(HALF, 1.0, 1.0, SimConfig(300_000, seed=2))

    def test_helper_stream_error_is_usage_error(self, monkeypatch, capsys):
        self.fail_on_odd_batch(monkeypatch)
        code = cli.main([
            "simulate", "--sigma2", "1", "--rho", "0.5", "--p", "1", "--n", "1",
            "--symbols", "300000",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.splitlines() == ["error: odd batch failed"]
        assert captured.out == ""


def _fold_pieces(data, cuts):
    """Moments of data folded piece by piece, split at the given fractions."""
    points = sorted({int(c * len(data)) for c in cuts} - {0, len(data)})
    pieces = np.split(data, points)
    # _moments overwrites its argument with the deviations.
    acc = _moments(pieces[0].copy())
    for piece in pieces[1:]:
        acc = _merge(acc, _moments(piece.copy()))
    return acc


class TestMerge:
    pieces = dict(
        seed=st.integers(0, 2 ** 32 - 1),
        n=st.integers(2, 5000),
        cuts=st.lists(st.floats(0.0, 1.0), max_size=8),
    )

    def _check(self, data, cuts, rel):
        count, mean, m2 = _fold_pieces(data, cuts)
        assert count == len(data)
        assert mean == pytest.approx(np.mean(data), rel=rel)
        assert m2 == pytest.approx(np.var(data) * len(data), rel=rel)

    @settings(max_examples=200, deadline=None)
    @given(**pieces)
    def test_matches_numpy_on_zero_mean_data(self, seed, n, cuts):
        data = np.random.default_rng(seed).standard_normal(n)
        self._check(data, cuts, rel=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(**pieces)
    def test_matches_numpy_under_large_offset(self, seed, n, cuts):
        # Raw sums of squares cancel catastrophically at this offset.
        data = 1e8 + np.random.default_rng(seed).standard_normal(n)
        self._check(data, cuts, rel=1e-6)

    def test_empty_left_operand_is_identity(self):
        data = np.array([1.0, 2.0, 4.0])
        count, mean, m2 = _merge((0, 0.0, 0.0), _moments(data.copy()))
        assert (count, mean, m2) == _moments(data.copy())
