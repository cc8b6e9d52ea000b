import dataclasses
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gmacfb import (
    ParameterError,
    SimConfig,
    SimulationError,
    SourceParams,
    simulate_uncoded,
    uncoded_distortion,
)
from gmacfb import cli, simulate
from gmacfb.model import _one_minus_rho2
from gmacfb.simulate import (
    _BATCH_SYMBOLS,
    _merge,
    _moments,
    gen_source,
    mmse_decode_uncoded,
    run_channel,
)

HALF = SourceParams(1.0, 0.5)


def draw_source(rho, n, rng):
    """gen_source into fresh arrays."""
    s1, s2, scratch = np.empty((3, n))
    gen_source(rho, rng, s1, s2, scratch)
    return s1, s2


def channel(a, s1, s2, rng):
    """run_channel into a fresh output."""
    y, scratch = np.empty((2, len(s1)))
    run_channel(a, s1, s2, rng, y, scratch)
    return y


class TestGenSource:
    def test_fully_correlated_components_coincide(self):
        rng = np.random.default_rng(7)
        s1, s2 = draw_source(1.0, 10_000, rng)
        assert np.array_equal(s1, s2)

    def test_coefficient_keeps_its_digits_near_full_correlation(self):
        # At rho = 1 - 2^-30, 1 - rho^2 = 2^-29 - 2^-60 exactly, and
        # (1 - rho)(1 + rho) forms it so; 1 - rho ** 2 rounds it to 2^-29.
        rho = 1.0 - 2.0 ** -30
        assert _one_minus_rho2(rho) == 2.0 ** -29 - 2.0 ** -60
        coeff = math.sqrt(_one_minus_rho2(rho))
        assert coeff != math.sqrt(1.0 - rho ** 2)
        s1, s2 = draw_source(rho, 1_000, np.random.default_rng(5))
        g = np.random.default_rng(5).standard_normal((2, 1_000))
        assert np.array_equal(s1, g[0])
        assert np.array_equal(s2, coeff * g[1] + rho * g[0])

    def test_independent_components_decorrelated(self):
        rng = np.random.default_rng(11)
        n = 1_000_000
        s1, s2 = draw_source(0.0, n, rng)
        r = np.mean(s1 * s2) / math.sqrt(np.mean(s1 * s1) * np.mean(s2 * s2))
        assert abs(r) < 4.0 / math.sqrt(n)

    def test_empirical_correlation_tracks_rho(self):
        rng = np.random.default_rng(13)
        s1, s2 = draw_source(0.5, 1_000_000, rng)
        r = np.mean(s1 * s2) / math.sqrt(np.mean(s1 * s1) * np.mean(s2 * s2))
        assert r == pytest.approx(0.5, abs=0.004)

    def test_empirical_variances_are_unit(self):
        rng = np.random.default_rng(17)
        n = 400_000
        s1, s2 = draw_source(0.3, n, rng)
        # var of the variance estimate is 2 / n
        radius = 4.0 * math.sqrt(2.0 / n)
        assert abs(np.mean(s1 * s1) - 1.0) < radius
        assert abs(np.mean(s2 * s2) - 1.0) < radius


class TestTransmitPower:
    """The uncoded scheme sends s_i at amplitude sqrt(p / n0) against
    unit noise, which is power p against noise n0."""

    def test_measured_power_matches_p(self):
        rep = simulate_uncoded(HALF, 4.0, 2.0, SimConfig(200_000, seed=19))
        for p_hat, se in ((rep.p1_hat, rep.stderr_p1), (rep.p2_hat, rep.stderr_p2)):
            assert abs(p_hat - 4.0) <= 4.0 * se
            # each power is p times a chi-square with one degree of freedom
            assert se == pytest.approx(4.0 * math.sqrt(2.0 / 200_000), rel=0.05)

    def test_rejects_bad_power(self):
        for p, n0 in ((0.0, 1.0), (1.0, 0.0), (math.inf, 1.0), (math.nan, 1.0)):
            with pytest.raises(ParameterError):
                simulate_uncoded(HALF, p, n0, SimConfig(10))


class TestRunChannel:
    def test_zero_encoders_pass_noise_through(self):
        rng = np.random.default_rng(23)
        n = 200_000
        s1, s2 = draw_source(0.5, n, rng)
        y = channel(0.0, s1, s2, rng)
        assert np.var(y) == pytest.approx(1.0, abs=4.0 * math.sqrt(2.0 / n))

    def test_near_noiseless_limit(self):
        rng = np.random.default_rng(29)
        s1, s2 = draw_source(0.5, 1000, rng)
        y = channel(1e6, s1, s2, rng)
        np.testing.assert_allclose(y / 1e6, s1 + s2, atol=1e-4)

    def test_output_variance_identity(self):
        # var(y) = 2 a^2 (1 + rho) + 1 for the uncoded scheme
        rng = np.random.default_rng(31)
        n = 1_000_000
        s1, s2 = draw_source(0.5, n, rng)
        y = channel(1.0, s1, s2, rng)
        target = 4.0
        assert np.var(y) == pytest.approx(target, abs=3.0 * target * math.sqrt(2.0 / n))

    def test_rejects_length_mismatch(self):
        rng = np.random.default_rng(47)
        with pytest.raises(ValueError):
            channel(1.0, np.zeros(3), np.zeros(4), rng)


def decode_gain(rho, snr):
    """The decoder's coefficient c, read off a unit output."""
    return float(mmse_decode_uncoded(rho, snr, np.ones(1), np.empty(1))[0])


class TestMmseDecoder:
    def test_gain_value(self):
        assert decode_gain(0.5, 1.0) == pytest.approx(0.375, abs=1e-15)

    def test_gain_matches_regression_slope(self):
        rng = np.random.default_rng(59)
        n = 500_000
        s1, s2 = draw_source(0.5, n, rng)
        y = channel(1.0, s1, s2, rng)
        slope = float(np.vdot(s1, y) / np.vdot(y, y))
        assert slope == pytest.approx(decode_gain(0.5, 1.0), abs=0.003)

    def test_mse_identity_at_random_parameters(self):
        # 1 - c^2 var(y) must equal the closed-form distortion over sigma2.
        rng = np.random.default_rng(61)
        for _ in range(20):
            s2 = float(rng.uniform(0.2, 3.0))
            rho = float(rng.uniform(0.0, 1.0))
            p = float(rng.uniform(0.05, 5.0))
            n0 = float(rng.uniform(0.1, 2.0))
            c = decode_gain(rho, p / n0)
            var_y = 2.0 * (p / n0) * (1.0 + rho) + 1.0
            assert s2 * (1.0 - c * c * var_y) == pytest.approx(
                uncoded_distortion(SourceParams(s2, rho), p, n0), rel=1e-12
            )

    def test_decode_applies_same_gain_to_both(self):
        y = np.array([1.0, -2.0, 0.5])
        np.testing.assert_array_equal(mmse_decode_uncoded(0.5, 1.0, y, np.empty(3)), 0.375 * y)
        # A batch's error rows both subtract the one estimate c y.
        out = np.empty((2, 5))
        simulate._fill_rows(0.5, 1.0, np.random.default_rng(3), np.empty((4, 1000)), out)
        np.testing.assert_array_equal(out, parent_moments(0.5, 1.0, np.random.default_rng(3), 1000))

    def test_distortions_scale_at_huge_variance(self):
        # sigma2^2 overflows a double here; the decoder never sees sigma2,
        # and the distortions are the unit run's times sigma2.
        cfg = SimConfig(1000, seed=2)
        big = simulate_uncoded(SourceParams(1.7e308, 0.5), 2.0, 1.0, cfg)
        unit = simulate_uncoded(SourceParams(1.0, 0.5), 2.0, 1.0, cfg)
        assert big.d1_hat == unit.d1_hat * 1.7e308
        assert big.stderr_d2 == unit.stderr_d2 * 1.7e308

    def test_gain_finite_at_huge_power(self):
        # At the largest accepted snr, 2 snr (1 + rho) is still finite,
        # and the gain is about 1 / (2 sqrt(snr)).
        snr = sys.float_info.max / 4.0
        assert decode_gain(0.5, snr) == pytest.approx(0.5 / math.sqrt(snr), rel=1e-12)

    def test_gain_at_subnormal_snr(self):
        # p / n0 = 1e-310 is subnormal; the gain, about 1.5 sqrt(snr),
        # is not.
        assert decode_gain(0.5, 1e-310) == pytest.approx(1.5e-155, rel=1e-6)

    def test_vanishing_power_limit(self):
        # no signal: the estimator collapses to zero and distortion to sigma2
        src = SourceParams(1.0, 0.0)
        assert decode_gain(0.0, 1e-24) == pytest.approx(0.0, abs=1e-11)
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
            s1, s2 = draw_source(0.5, min(_BATCH_SYMBOLS, cfg.symbols - first), rng)
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
            dataclasses.replace(rep, p1_hat=-0.1)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", [
        "d1_hat", "d2_hat", "p1_hat", "p2_hat", "rho_tilde_hat",
        "stderr_d1", "stderr_d2", "stderr_p1", "stderr_p2",
    ])
    def test_report_rejects_non_finite_statistics(self, field, value):
        rep = simulate_uncoded(HALF, 1.0, 1.0, SimConfig(1000, seed=1))
        with pytest.raises(SimulationError, match="non-finite statistic"):
            dataclasses.replace(rep, **{field: value})

    def test_symbol_count_beyond_any_array_is_parameter_error(self):
        # numpy refuses a moments table of this size before allocating.
        with pytest.raises(ParameterError, match="symbols too many"):
            simulate_uncoded(HALF, 1.0, 1.0, SimConfig(10 ** 22))

    @pytest.mark.parametrize("symbols", [1 << 20, 1 << 22])
    def test_memory_bounded_independent_of_length(self, symbols):
        tracemalloc.start()
        try:
            simulate_uncoded(HALF, 1.0, 1.0, SimConfig(symbols, seed=4))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20

    def test_batches_allocate_only_the_workspaces(self, monkeypatch):
        # Two streams, one workspace of 4 x 2^16 float64 each; every batch
        # is filled in place, so longer runs add only 80 bytes of moments
        # per batch.
        monkeypatch.setattr(simulate, "_available_cpus", lambda: 2)
        simulate_uncoded(HALF, 1.0, 1.0, SimConfig(1 << 17, seed=4))
        workspaces = 2 * 4 * _BATCH_SYMBOLS * 8
        peaks = []
        for symbols in (1 << 20, 1 << 22):
            tracemalloc.start()
            try:
                simulate_uncoded(HALF, 1.0, 1.0, SimConfig(symbols, seed=4))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) <= workspaces + 2 ** 18
        assert abs(peaks[1] - peaks[0]) < 2 ** 16


def parent_batch(rho, snr, rng, n):
    """One batch's five moment rows e1^2, e2^2, s1^2, s2^2 and s1 s2 as
    fresh arrays, one per step, in the operation order of the workspace."""
    g = rng.standard_normal((2, n))
    g[1] *= math.sqrt(_one_minus_rho2(rho))
    g[1] += rho * g[0]
    s1, s2 = g
    z = rng.standard_normal(n)
    x1 = math.sqrt(snr) * s1
    x2 = math.sqrt(snr) * s2
    y = x1 + x2
    y += z
    one_plus = 1.0 + rho
    est = math.sqrt(snr) * one_plus / (2.0 * snr * one_plus + 1.0) * y
    return np.array([np.square(s1 - est), np.square(s2 - est), s1 * s1, s2 * s2, s1 * s2])


def parent_moments(rho, snr, rng, n):
    """(mean, M2) of parent_batch, reduced as one (5, n) block."""
    _, mean, m2 = _moments(parent_batch(rho, snr, rng, n))
    return np.array([mean, m2])


class TestWorkspace:
    """A stream's batches reuse one (4, 2^16) workspace in place and write
    each batch's moments where its rows are formed."""

    @pytest.mark.parametrize("rho", [0.0, 0.5, 1.0 - 2.0 ** -30, 1.0])
    @pytest.mark.parametrize("snr", [1e-9, 1.0, 3e7])
    def test_reused_workspace_matches_fresh_arrays(self, rho, snr):
        ws = np.full((4, _BATCH_SYMBOLS), np.nan)
        for batch, n in enumerate((_BATCH_SYMBOLS, 1, 2, 3, 1000)):
            out = np.full((2, 5), np.nan)
            simulate._fill_rows(rho, snr, np.random.default_rng((9, batch)), ws[:, :n], out)
            want = parent_moments(rho, snr, np.random.default_rng((9, batch)), n)
            assert np.array_equal(out, want), (n, out - want)
        assert not np.isnan(ws).any()

    def test_each_layer_runs_once_per_batch(self, monkeypatch):
        # The bench times these three by name; 300,000 symbols are five
        # batches, split over two streams.
        calls = {name: [] for name in ("gen_source", "run_channel", "mmse_decode_uncoded")}

        def counted(name, real):
            def wrapper(*args):
                calls[name].append(None)
                return real(*args)
            return wrapper

        monkeypatch.setattr(simulate, "_available_cpus", lambda: 2)
        for name in calls:
            monkeypatch.setattr(simulate, name, counted(name, getattr(simulate, name)))
        simulate_uncoded(HALF, 1.0, 1.0, SimConfig(300_000, seed=2))
        assert {name: len(made) for name, made in calls.items()} == dict.fromkeys(calls, 5)


def _log2_uniform(lo: int, hi: int):
    return st.floats(lo, hi).map(lambda e: 2.0 ** e)


class TestScaling:
    """The run depends on p and n0 through p / n0 alone and scales by sigma2
    and p at the end, so power-of-two scalings move only the scaled fields,
    and those by exactly the factor; z1 and z2 come from the unit-variance
    statistics, so neither scaling moves them."""

    @settings(max_examples=100, deadline=None)
    @given(
        rho=st.floats(0.0, 1.0),
        sigma2=_log2_uniform(-500, 500),
        p=_log2_uniform(-500, 500),
        n0=_log2_uniform(-500, 500),
        k=st.integers(-400, 400),
        j=st.integers(-400, 400),
        seed=st.integers(0, 2 ** 64 - 1),
    )
    @example(rho=0.5, sigma2=1.0, p=1e-170, n0=1e-170, k=400, j=0, seed=3)  # M2 of x^2 underflowed
    def test_exact_under_power_of_two_scaling(self, rho, sigma2, p, n0, k, j, seed):
        cfg = SimConfig(2000, seed)
        base = dataclasses.asdict(simulate_uncoded(SourceParams(sigma2, rho), p, n0, cfg))

        scaled = simulate_uncoded(SourceParams(sigma2, rho), math.ldexp(p, k), math.ldexp(n0, k), cfg)
        expected = dict(base)
        for key in ("p1_hat", "p2_hat", "stderr_p1", "stderr_p2"):
            expected[key] = math.ldexp(base[key], k)
        assert dataclasses.asdict(scaled) == expected
        assert (scaled.z1, scaled.z2) == (base["z1"], base["z2"])

        scaled = simulate_uncoded(SourceParams(math.ldexp(sigma2, j), rho), p, n0, cfg)
        expected = dict(base)
        for key in ("d1_hat", "d2_hat", "stderr_d1", "stderr_d2", "d_uncoded"):
            expected[key] = math.ldexp(base[key], j)
        assert dataclasses.asdict(scaled) == expected
        assert (scaled.z1, scaled.z2) == (base["z1"], base["z2"])


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

        def run_channel(a, s1, s2, rng, y, scratch):
            if rng.bit_generator.seed_seq.entropy[1] % 2:
                raise SimulationError("odd batch failed")
            real(a, s1, s2, rng, y, scratch)

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
