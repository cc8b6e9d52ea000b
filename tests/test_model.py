import math

import pytest

from gmacfb import (
    ChannelParams,
    DistortionPair,
    ParameterError,
    SourceParams,
    snr_threshold,
)


class TestSourceParams:
    def test_accepts_valid(self):
        src = SourceParams(1.0, 0.5)
        assert src.sigma2 == 1.0
        assert src.rho == 0.5

    def test_accepts_rho_endpoints(self):
        SourceParams(2.5, 0.0)
        SourceParams(2.5, 1.0)

    @pytest.mark.parametrize("sigma2", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_variance(self, sigma2):
        with pytest.raises(ParameterError, match="variance must be positive"):
            SourceParams(sigma2, 0.5)

    @pytest.mark.parametrize("rho", [-0.1, 1.2, math.nan])
    def test_rejects_bad_rho(self, rho):
        with pytest.raises(ParameterError, match="rho out of range"):
            SourceParams(1.0, rho)


class TestChannelParams:
    def test_accepts_valid(self):
        ch = ChannelParams(1.0, 2.0, 0.5)
        assert (ch.p1, ch.p2, ch.n0) == (1.0, 2.0, 0.5)

    @pytest.mark.parametrize("field", ["p1", "p2", "n0"])
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf])
    def test_rejects_nonpositive(self, field, bad):
        kwargs = {"p1": 1.0, "p2": 1.0, "n0": 1.0, field: bad}
        with pytest.raises(ParameterError, match=f"{field} must be positive"):
            ChannelParams(**kwargs)


class TestDistortionPair:
    def test_accepts_valid(self):
        DistortionPair(0.3, 1.7)

    @pytest.mark.parametrize("d1,d2", [(0.0, 0.5), (0.5, 0.0), (-0.1, 0.5), (math.nan, 0.5)])
    def test_rejects_nonpositive(self, d1, d2):
        with pytest.raises(ParameterError):
            DistortionPair(d1, d2)


class TestSnrThreshold:
    def test_half_correlation(self):
        assert snr_threshold(SourceParams(1.0, 0.5)) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_independent_components_collapse(self):
        assert snr_threshold(SourceParams(1.0, 0.0)) == 0.0
        # Never negative, not even -0.0 at rho = -0.0.
        assert math.copysign(1.0, snr_threshold(SourceParams(1.0, -0.0))) == 1.0

    def test_fully_correlated_is_infinite(self):
        # Uncoded transmission is optimal at every SNR for identical components.
        assert snr_threshold(SourceParams(1.0, 1.0)) == math.inf

    def test_strictly_increasing_in_rho(self):
        values = [snr_threshold(SourceParams(1.0, 0.01 * k)) for k in range(100)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_independent_of_variance(self):
        assert snr_threshold(SourceParams(3.7, 0.4)) == snr_threshold(SourceParams(0.2, 0.4))
