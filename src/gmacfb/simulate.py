"""Monte Carlo simulation of the uncoded scheme on the two-user Gaussian
channel.

Below the SNR threshold rho / (1 - rho^2) uncoded transmission is optimal
and feedback buys nothing, and the converse in `bounds` holds for every
scheme, feedback or not; so the one scheme simulated is the memoryless
uncoded one, and the channel is a plain stream of symbols. Each encoder
sends its current source symbol at amplitude a = sqrt(p / n0), the receiver
observes y = a s1 + a s2 + z, and the decoder forms the conditional mean
c y. Everything is jointly Gaussian, so the empirical distortions can be
checked against the closed-form prediction: the report carries that
distortion d_uncoded and each component's z-score (d_hat - d_uncoded) /
stderr, formed here and nowhere else, from the unit-variance statistics.
A z is None (null in JSON) where the run has no spread, as at one
symbol; `simulate` exits 1 only on a non-null |z| above 4.

The run depends on p and n0 through p / n0 alone, and on sigma2 not at
all: it draws a unit-variance source and unit-variance noise, and scales
the distortions by sigma2 and the powers by p once at the end. It accepts
exactly the (p, n0) of the bounds, and the unit-variance statistics
neither overflow nor underflow; only a scaled result beyond the largest
double, such as a mean power above it at p near it, is rejected as
non-finite.

The run streams through fixed batches of 2^16 symbols, so the working set
stays a few megabytes whatever the length. Each stream allocates its
workspace once per run, one (4, 2^16) float64 array (2 MiB), and fills it
in place, batch after batch, so the batch loop allocates no arrays. Batch
b draws from its own generator seeded by (seed, b) and is reduced to
per-symbol (count, mean, M2) moments as its rows are formed. The batches
are independent, so two streams run them: the calling thread takes the
even batches and one helper thread the odd ones (one stream on a single
CPU or a single batch). Only the 80 bytes of moments per batch are kept,
and the caller folds them in batch order with the parallel update of
Chan, Golub & LeVeque (1979). The report therefore depends only on the
symbol count and the seed, bit for bit, whatever the number of streams,
and there is no tuning knob that changes it.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import astuple, dataclass

import numpy as np

from .bounds import _uncoded_unit
from .model import DEFAULT_SEED, ParameterError, SimulationError, SourceParams, _check_power_noise, _one_minus_rho2

# Symbols per batch: fixed, so it never changes the random stream.
_BATCH_SYMBOLS = 1 << 16

# Streams that run batches at once. Each holds one workspace, so the cap
# bounds peak memory as well as threads.
_MAX_WORKERS = 2


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo run: how many source pairs to send, and the seed."""

    symbols: int
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if self.symbols < 1:
            raise ParameterError("symbols must be >= 1")
        if not (0 <= self.seed < 2 ** 64):
            raise ParameterError("seed must fit in 64 bits")


@dataclass(frozen=True)
class SimReport:
    """Empirical audit of one run.

    d*_hat are the mean squared reconstruction errors, p*_hat the average
    transmit powers, rho_tilde_hat the normalized |correlation| of the two
    realized input sequences. Standard errors come from the per-symbol
    spread. p*_flagged marks an empirical power more than four standard
    errors above its constraint (audited, never clipped). d_uncoded is the
    closed-form distortion of the scheme, and z* = (d*_hat - d_uncoded) /
    stderr_d*, formed from the unit-variance statistics so that sigma2
    cannot round it; z* is None where the run has no spread (stderr 0).
    """

    d1_hat: float
    d2_hat: float
    p1_hat: float
    p2_hat: float
    rho_tilde_hat: float
    stderr_d1: float
    stderr_d2: float
    stderr_p1: float
    stderr_p2: float
    p1_flagged: bool
    p2_flagged: bool
    total_symbols: int
    d_uncoded: float
    z1: float | None
    z2: float | None

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in astuple(self) if isinstance(v, float)):
            raise SimulationError("non-finite statistic in report")
        if self.p1_hat < 0.0 or self.p2_hat < 0.0:
            raise SimulationError("negative empirical power")
        if abs(self.rho_tilde_hat) > 1.0 + 1e-12:
            raise SimulationError("empirical correlation outside [-1, 1]")


def gen_source(
    rho: float, rng: np.random.Generator, s1: np.ndarray, s2: np.ndarray, scratch: np.ndarray
) -> None:
    """Fill s1 and s2 with unit-variance source pairs: s1 = g1,
    s2 = rho g1 + sqrt(1 - rho^2) g2 for independent normals, g1 drawn
    before g2. scratch, of the same length, is overwritten."""
    rng.standard_normal(out=s1)
    rng.standard_normal(out=s2)
    s2 *= math.sqrt(_one_minus_rho2(rho))
    np.multiply(rho, s1, out=scratch)
    s2 += scratch


def run_channel(
    a: float, s1: np.ndarray, s2: np.ndarray, rng: np.random.Generator, y: np.ndarray, scratch: np.ndarray
) -> None:
    """Fill y with the channel output y = x1 + x2 + z at unit noise
    variance, where each encoder sends its source symbol at amplitude
    a = sqrt(p / n0), x_i = a s_i. scratch holds x2, then the noise z."""
    np.multiply(a, s1, out=y)
    np.multiply(a, s2, out=scratch)
    y += scratch
    rng.standard_normal(out=scratch)
    y += scratch


def mmse_decode_uncoded(rho: float, snr: float, y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Conditional-mean estimate c y of either source symbol, at unit
    source and noise variance and amplitude a = sqrt(snr), written to out
    (which may be y) and returned.

    c = cov(s_i, y) / var(y) = a (1 + rho) / (2 snr (1 + rho) + 1); the
    symmetric channel makes the same estimate serve both components.
    """
    one_plus = 1.0 + rho
    return np.multiply(math.sqrt(snr) * one_plus / (2.0 * snr * one_plus + 1.0), y, out=out)


_Moments = tuple[int, np.ndarray, np.ndarray]


def _moments(rows: np.ndarray) -> _Moments:
    """(count, mean, M2) of each row, M2 being the sum of squared deviations.

    Overwrites rows with the deviations from the mean.
    """
    mean = rows.mean(axis=-1)
    rows -= mean[..., None]
    return rows.shape[-1], mean, np.einsum("...i,...i->...", rows, rows)


def _merge(a: _Moments, b: _Moments) -> _Moments:
    """Combine the moments of two disjoint samples (Chan, Golub & LeVeque)."""
    n_a, mean_a, m2_a = a
    n_b, mean_b, m2_b = b
    n = n_a + n_b
    delta = mean_b - mean_a
    return n, mean_a + delta * (n_b / n), m2_a + m2_b + delta * delta * (n_a * n_b / n)


def _fill_rows(rho: float, snr: float, rng: np.random.Generator, ws: np.ndarray, out: np.ndarray) -> None:
    """Run one batch of ws.shape[1] symbols in place, allocating nothing,
    and write the mean and M2 of its per-symbol e1^2, e2^2, s1^2, s2^2 and
    s1 s2 at unit variance to out[0] and out[1].

    The (4, n) workspace becomes s1, s2, y and a scratch row x; y is
    overwritten by the estimate. Then x takes e2 and the estimate e1, and
    those two rows are squared and reduced; then rows 3, 2 and 1 take
    s1 s2, s2^2 and s1^2, and those three are reduced. Each block handed to
    `_moments` must have at least two rows: numpy sums a single row in
    another order, which moves the last bits of the report.
    """
    s1, s2, y, x = ws
    gen_source(rho, rng, s1, s2, x)
    run_channel(math.sqrt(snr), s1, s2, rng, y, x)
    est = mmse_decode_uncoded(rho, snr, y, y)
    np.subtract(s2, est, out=x)
    np.subtract(s1, est, out=y)
    np.square(ws[2:], out=ws[2:])
    _, out[0, :2], out[1, :2] = _moments(ws[2:])
    np.multiply(s1, s2, out=ws[3])
    np.multiply(s2, s2, out=ws[2])
    np.multiply(s1, s1, out=ws[1])
    _, out[0, 2:], out[1, 2:] = _moments(ws[1:])


def _available_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def simulate_uncoded(source: SourceParams, p: float, n0: float, cfg: SimConfig) -> SimReport:
    """Full pipeline: draw sources, run the channel with uncoded encoders,
    decode, and fold per-symbol statistics batch by batch.

    Each symbol contributes its squared errors, powers and cross product
    x1 x2; their spread gives the standard errors. The run depends on p
    and n0 through snr = p / n0 alone: it simulates a unit-variance source
    and unit-variance noise, and scales the distortions by sigma2 and the
    powers by p once at the end.
    """
    snr = _check_power_noise(p, n0)
    rho = source.rho
    batches = -(-cfg.symbols // _BATCH_SYMBOLS)
    # Mean and M2 of the five rows of every batch, each written by one stream.
    try:
        moments = np.empty((batches, 2, 5))
    except (MemoryError, ValueError) as exc:
        raise ParameterError(f"symbols too many: {exc}") from exc

    def size(batch: int) -> int:
        return min(_BATCH_SYMBOLS, cfg.symbols - batch * _BATCH_SYMBOLS)

    # Stream w runs batches w, w + workers, ... in one workspace, refilled in
    # place; a partial batch uses the first columns, so every row stays
    # contiguous. A failure stops the other streams at their next batch and
    # is re-raised once all have stopped.
    workers = min(_MAX_WORKERS, batches, _available_cpus())
    errors: list[BaseException] = []

    def stream(start: int) -> None:
        try:
            ws = np.empty((4, _BATCH_SYMBOLS))
            for batch in range(start, batches, workers):
                if errors:
                    return
                rng = np.random.default_rng((cfg.seed, batch))
                _fill_rows(rho, snr, rng, ws[:, :size(batch)], moments[batch])
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=stream, args=(w,)) for w in range(1, workers)]
    for thread in threads:
        thread.start()
    stream(0)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]

    acc: _Moments = (0, np.zeros(5), np.zeros(5))
    for batch in range(batches):
        acc = _merge(acc, (size(batch), moments[batch, 0], moments[batch, 1]))

    count, mean, m2 = acc
    stderr = np.sqrt(m2 / (count - 1) / count) if count > 1 else np.zeros(5)
    # Means at unit variance and unit power; only the report is scaled.
    d1, d2, p1, p2, cross = mean.tolist()
    se_d1, se_d2, se_p1, se_p2, _ = stderr.tolist()
    d_u = _uncoded_unit(rho, snr)
    z1, z2 = ((d - d_u) / se if se > 0.0 else None for d, se in ((d1, se_d1), (d2, se_d2)))
    s2 = source.sigma2
    return SimReport(
        d1_hat=d1 * s2,
        d2_hat=d2 * s2,
        p1_hat=p1 * p,
        p2_hat=p2 * p,
        rho_tilde_hat=abs(cross) / math.sqrt(p1 * p2),
        stderr_d1=se_d1 * s2,
        stderr_d2=se_d2 * s2,
        stderr_p1=se_p1 * p,
        stderr_p2=se_p2 * p,
        p1_flagged=p1 > 1.0 + 4.0 * se_p1,
        p2_flagged=p2 > 1.0 + 4.0 * se_p2,
        total_symbols=cfg.symbols,
        d_uncoded=s2 * d_u,
        z1=z1,
        z2=z2,
    )
