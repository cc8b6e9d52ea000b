"""Helpers shared by the test modules."""

import decimal
import io
import math
import warnings
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal

from hypothesis import strategies as st

from gmacfb import cli
from gmacfb.bounds import (
    BoundResult,
    _NEWTON_CAP,
    _sum_rate_unit,
    endpoint_snr_threshold,
    single_user_curve,
    sum_rate_curve,
)
from gmacfb.model import _check_power_noise, _one_minus_rho2


def run_inprocess(args):
    """Run the CLI in this process; return (exit code, stdout, stderr).

    An argparse exit becomes the exit code. Every warning raised during the
    run, on any thread, is written to the returned stderr, so an empty
    stderr is at least as strict a check as in a fresh interpreter.
    """
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = cli.main([str(a) for a in args])
        except SystemExit as exc:
            code = exc.code
    for w in caught:
        err.write(warnings.formatwarning(w.message, w.category, w.filename, w.lineno))
    return code, out.getvalue(), err.getvalue()


def log_uniform(lo_exp: float, hi_exp: float):
    """Floats 10^e with e uniform on [lo_exp, hi_exp]."""
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0 ** e)


# 60-digit references for the equal-power bound curves, in w = 1 - rho_tilde.
# Every float argument converts to Decimal exactly.
_EXACT = decimal.Context(prec=60)


def exact_curves(rho: float, snr: float, w) -> tuple[Decimal, Decimal]:
    """(sum-rate curve, single-user curve) at unit variance, to 60 digits;
    the sum-rate curve takes its region-B branch where the cap
    4^R = den is below (1 + rho) / (1 - rho)."""
    with decimal.localcontext(_EXACT):
        rho, snr, w = Decimal(rho), Decimal(snr), Decimal(w)
        a = (1 - rho) * (1 + rho)
        den = 1 + 2 * snr * (2 - w)
        upper = ((1 + rho) / den + (1 - rho)) / 2 if den * (1 - rho) < 1 + rho else (a / den).sqrt()
        return upper, a / (1 + snr * w * (2 - w))


def exact_minimax(rho: float, snr: float, guess: float) -> Decimal:
    """min over w in [0, 1] of the larger unit-variance curve, to 60 digits.

    The sum-rate curve at w = 0 where it is on top there, the single-user
    curve at w = 1 where that one is on top there, and otherwise the value at
    the crossing. The crossing is refined by Newton from the w at which the
    single-user curve equals guess (a float value of the minimax), and
    certified by the sign of the difference one part in 1e40 to either side.
    """
    def g(w):
        upper, lower = exact_curves(rho, snr, w)
        return upper - lower

    with decimal.localcontext(_EXACT):
        if g(0) >= 0:
            return exact_curves(rho, snr, 0)[0]
        if g(1) <= 0:
            return exact_curves(rho, snr, 1)[1]
        r, s = Decimal(rho), Decimal(snr)
        v = ((1 - r) * (1 + r) / Decimal(guess) - 1) / s
        w = min(max(v, Decimal(0)), Decimal(1))
        w = w / (1 + (1 - w).sqrt())
        for _ in range(30):
            upper, lower = exact_curves(rho, snr, w)
            den, q = 1 + 2 * s * (2 - w), 1 + s * w * (2 - w)
            d_upper = (1 + r) * s / (den * den) if den * (1 - r) < 1 + r else upper * s / den
            step = (upper - lower) / (d_upper + 2 * s * (1 - w) * lower / q)
            w = min(max(w - step, Decimal(0)), Decimal(1))
            if abs(step) <= w * Decimal("1e-50"):
                break
        eps = w * Decimal("1e-40")
        assert g(w - eps) < 0 < g(w + eps), "crossing not certified"
        return exact_curves(rho, snr, w)[0]


def _single_user_unit(rho, snr, v):
    """The single-user kernel as it was when it took rho, for reference_minimax."""
    return _one_minus_rho2(rho) / (1.0 + snr * v)


def reference_minimax(source, p, n0):
    """bounds.minimax_lower_bound as it was before 1 - rho^2 was formed once
    per solve, verbatim, with the single-user kernel above. The bounds'
    results are pinned to its bits."""
    snr = _check_power_noise(p, n0)

    if snr <= endpoint_snr_threshold(source):
        return BoundResult(sum_rate_curve(source, p, n0, 1.0), 1.0, "endpoint")

    upper, lo_value = sum_rate_curve(source, p, n0, 0.0), single_user_curve(source, p, n0, 0.0)
    if upper <= lo_value:
        return BoundResult(lo_value, 0.0, "crossing")
    hi_value, lower = sum_rate_curve(source, p, n0, 1.0), single_user_curve(source, p, n0, 1.0)
    if hi_value >= lower:
        return BoundResult(hi_value, 1.0, "endpoint")

    rho = source.rho
    lo, hi = 0.0, 1.0
    w = min(math.sqrt(_one_minus_rho2(rho) / snr), 0.5)
    for _ in range(_NEWTON_CAP):
        if not lo < w < hi:
            w = 0.5 * (lo + hi)
        t, v = 2.0 - w, w * (2.0 - w)
        (upper, d_upper), lower = _sum_rate_unit(rho, snr, t), _single_user_unit(rho, snr, v)
        g = upper - lower
        if g < 0.0:
            lo = w
        elif g > 0.0:
            hi = w
        else:
            break
        step = g / (d_upper + 2.0 * snr * (1.0 - w) * lower / (1.0 + snr * v))
        if abs(step) <= 2.0 * math.ulp(w) or 0.5 * (lo + hi) in (lo, hi):
            break
        w -= step
    return BoundResult(source.sigma2 * upper, 1.0 - w, "crossing")
