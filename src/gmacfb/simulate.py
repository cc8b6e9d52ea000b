"""Monte Carlo simulation of the two-user Gaussian channel with feedback.

The channel runs in blocks of block_len uses, many blocks side by side: at
time k each encoder sees its own source block and that block's outputs
0..k-1, produces one real input per block, and the receiver observes the
sum of both inputs plus fresh Gaussian noise. Causality is structural; the
harness only ever hands an encoder the outputs of its own block strictly
before the current instant, and the loop over k runs block_len times
however many blocks there are.

Only the uncoded encoder ships: it sends a scaled copy of the current
source symbol and ignores the feedback entirely. Because everything is
then jointly Gaussian and memoryless, the per-symbol linear estimator
c * y is the exact conditional mean, and the simulator's empirical
distortions can be checked against the closed-form prediction. Being
memoryless, the scheme needs no blocks: `simulate_uncoded` is a stream of
symbols, each a block of one channel use.

The run streams through fixed batches of 2^16 symbols, so the working set
stays a few megabytes whatever the length. Batch b draws from its own
generator seeded by (seed, b) and is reduced to per-symbol (count, mean,
M2) moments. The batches are independent, so two streams run them: the
calling thread takes the even batches and one helper thread the odd ones
(one stream on a single CPU or a single batch). Only the 80 bytes of
moments per batch are kept, and the caller folds them in batch order with
the parallel update of Chan, Golub & LeVeque (1979). The report therefore
depends only on the symbol count and the seed, bit for bit, whatever the
number of streams, and there is no tuning knob that changes it.
"""

from __future__ import annotations

import abc
import math
import os
import sys
import threading
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from .model import ParameterError, SourceParams

DEFAULT_SEED = 123456789

# Symbols per batch: fixed, so it never changes the random stream.
_BATCH_SYMBOLS = 1 << 16

# Streams that run batches at once. Each holds one batch's working set
# (about 6 MB), so the cap bounds peak memory as well as threads.
_MAX_WORKERS = 2


class SimulationError(RuntimeError):
    """An encoder or the channel produced an unusable value."""


class FeedbackEncoder(abc.ABC):
    """One transmitter: maps (own source blocks, past outputs, time) to the
    channel inputs of time k, one per block."""

    @abc.abstractmethod
    def emit(self, source: np.ndarray, past_outputs: np.ndarray, k: int) -> np.ndarray:
        """Column k of the inputs, given the (blocks, block_len) source and
        each block's own outputs 0..k-1 as a (blocks, k) array."""


@dataclass(frozen=True)
class UncodedEncoder(FeedbackEncoder):
    """Sends gain * s_k, ignoring feedback; for a unit-variance source,
    gain = sqrt(p) meets the power constraint with equality in expectation."""

    gain: float

    @classmethod
    def for_power(cls, p: float) -> "UncodedEncoder":
        if not (math.isfinite(p) and p > 0.0):
            raise ParameterError("power must be positive and finite")
        return cls(math.sqrt(p))

    def emit(self, source: np.ndarray, past_outputs: np.ndarray, k: int) -> np.ndarray:
        return self.gain * source[:, k]


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
    errors above its constraint (audited, never clipped).
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

    def __post_init__(self) -> None:
        fields = (
            self.d1_hat, self.d2_hat, self.p1_hat, self.p2_hat,
            self.rho_tilde_hat, self.stderr_d1, self.stderr_d2,
            self.stderr_p1, self.stderr_p2,
        )
        if not all(math.isfinite(v) for v in fields):
            raise SimulationError("non-finite statistic in report")
        if self.p1_hat < 0.0 or self.p2_hat < 0.0:
            raise SimulationError("negative empirical power")
        if abs(self.rho_tilde_hat) > 1.0 + 1e-12:
            raise SimulationError("empirical correlation outside [-1, 1]")


def gen_source(source: SourceParams, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw n correlated source pairs: s1 = sigma g1,
    s2 = sigma (rho g1 + sqrt(1 - rho^2) g2) for independent normals."""
    if n < 0:
        raise ParameterError("n must be nonnegative")
    g = rng.standard_normal((2, n))
    # In place: g[1] becomes rho g1 + sqrt(1 - rho^2) g2, then both rows
    # are scaled by sigma.
    g[1] *= math.sqrt(1.0 - source.rho ** 2)
    g[1] += source.rho * g[0]
    g *= math.sqrt(source.sigma2)
    return g[0], g[1]


def run_channel(
    enc1: FeedbackEncoder,
    enc2: FeedbackEncoder,
    s1: np.ndarray,
    s2: np.ndarray,
    n0: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pass (blocks, block_len) source arrays through the channel; returns
    (outputs, inputs1, inputs2) of the same shape.

    Each block is one independent use of the feedback channel: at time k
    an encoder sees only the outputs 0..k-1 of its own block. The noise is
    drawn up front in C order, one standard normal per symbol.
    """
    if s1.ndim != 2 or s1.shape != s2.shape:
        raise ParameterError("source blocks must be (blocks, block_len) arrays of equal shape")
    if not (math.isfinite(n0) and n0 > 0.0):
        raise ParameterError("n0 must be positive and finite")
    z = rng.standard_normal(s1.shape)
    z *= math.sqrt(n0)
    x1 = np.empty_like(z)
    x2 = np.empty_like(z)
    y = np.empty_like(z)
    for k in range(s1.shape[1]):
        past = y[:, :k]
        x1[:, k] = enc1.emit(s1, past, k)
        x2[:, k] = enc2.emit(s2, past, k)
        np.add(x1[:, k], x2[:, k], out=y[:, k])
        np.add(y[:, k], z[:, k], out=y[:, k])
    if not (np.isfinite(x1).all() and np.isfinite(x2).all()):
        raise SimulationError("encoder produced non-finite symbol")
    return y, x1, x2


def mmse_gain(source: SourceParams, p: float, n0: float) -> float:
    """Scalar conditional-mean coefficient for the uncoded scheme.

    c = cov(s_i, y) / var(y) = sqrt(p sigma2) (1 + rho) / (2p (1 + rho) + n0);
    symmetry makes the same c serve both components. It is computed as
    sqrt(sigma2) (1 + rho) / (2 (1 + rho) sqrt(p) + n0 / sqrt(p)), so
    neither p sigma2 nor 2p (1 + rho) is formed and either may exceed the
    largest double.
    """
    if not (math.isfinite(p) and p > 0.0 and math.isfinite(n0) and n0 > 0.0):
        raise ParameterError("p and n0 must be positive and finite")
    one_plus = 1.0 + source.rho
    root = math.sqrt(p)
    return math.sqrt(source.sigma2) * one_plus / (2.0 * one_plus * root + n0 / root)


def mmse_decode_uncoded(
    source: SourceParams, p: float, n0: float, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-symbol conditional-mean estimates (s1_hat, s2_hat) = (c y, c y)."""
    est = mmse_gain(source, p, n0) * np.asarray(y, dtype=np.float64)
    return est, est


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


def _fill_rows(
    unit: SourceParams, enc: UncodedEncoder, p: float, n0: float,
    rng: np.random.Generator, rows: np.ndarray,
) -> None:
    """Run one batch of rows.shape[1] symbols and write its per-symbol
    rows e1, e2, x1^2, x2^2, x1 x2. The batch's arrays die on return, so
    they never overlap the next batch's."""
    s1, s2 = gen_source(unit, rows.shape[1], rng)
    channel = run_channel(enc, enc, s1[:, None], s2[:, None], n0, rng)
    y, x1, x2 = (a[:, 0] for a in channel)
    s1_hat, s2_hat = mmse_decode_uncoded(unit, p, n0, y)
    np.subtract(s1, s1_hat, out=rows[0])
    np.subtract(s2, s2_hat, out=rows[1])
    np.square(rows[:2], out=rows[:2])
    np.multiply(x1, x1, out=rows[2])
    np.multiply(x2, x2, out=rows[3])
    np.multiply(x1, x2, out=rows[4])


def _available_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_streams(items: int, stream: Callable[[Iterator[int]], None]) -> None:
    """Run items 0..items-1 on at most _MAX_WORKERS streams at once.

    Stream w gets the items w, w + workers, ... as an iterator: the calling
    thread takes w = 0 and helper threads the rest (one stream on a single
    CPU or a single item). Each stream sets up its own buffers, and its own
    numpy error state, which is per thread. A stream's failure is caught,
    the other streams stop at their next item, and the first failure is
    re-raised in the caller once every stream has stopped.
    """
    workers = min(_MAX_WORKERS, items, _available_cpus())
    errors: list[BaseException] = []

    def stripe(start: int) -> Iterator[int]:
        for item in range(start, items, workers):
            if errors:
                return
            yield item

    def run(start: int) -> None:
        try:
            stream(stripe(start))
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(w,)) for w in range(1, workers)]
    for thread in threads:
        thread.start()
    run(0)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def simulate_uncoded(source: SourceParams, p: float, n0: float, cfg: SimConfig) -> SimReport:
    """Full pipeline: draw sources, run the channel with uncoded encoders,
    decode, and fold per-symbol statistics batch by batch.

    Each symbol contributes its squared errors, powers and cross product
    x1 x2; their spread gives the standard errors.
    """
    # Draw and decode a unit-variance source and scale the distortions by
    # sigma2 at the end: their M2 grows as sigma2^2, which would overflow
    # or underflow long before sigma2 itself does.
    unit = SourceParams(1.0, source.rho)
    enc = UncodedEncoder.for_power(p)
    batches = -(-cfg.symbols // _BATCH_SYMBOLS)
    # Mean and M2 of the five rows of every batch, each written by one stream.
    moments = np.empty((batches, 2, 5))

    def size(batch: int) -> int:
        return min(_BATCH_SYMBOLS, cfg.symbols - batch * _BATCH_SYMBOLS)

    def stream(my_batches: Iterator[int]) -> None:
        # Powers beyond about 1e150 overflow x^2 or its M2, which SimReport
        # rejects as non-finite, so numpy need not warn on the way.
        with np.errstate(over="ignore", invalid="ignore"):
            # Rows e1, e2, x1^2, x2^2, x1 x2, refilled in place each batch:
            # reusing one buffer is several times faster than fresh
            # temporaries.
            buf = np.empty((5, _BATCH_SYMBOLS))
            for batch in my_batches:
                rows = buf[:, :size(batch)]
                _fill_rows(unit, enc, p, n0, np.random.default_rng((cfg.seed, batch)), rows)
                _, moments[batch, 0], moments[batch, 1] = _moments(rows)

    _run_streams(batches, stream)

    acc: _Moments = (0, np.zeros(5), np.zeros(5))
    with np.errstate(over="ignore", invalid="ignore"):
        for batch in range(batches):
            acc = _merge(acc, (size(batch), moments[batch, 0], moments[batch, 1]))

    count, mean, m2 = acc
    stderr = np.sqrt(m2 / (count - 1) / count) if count > 1 else np.zeros(5)
    scale = np.array([source.sigma2, source.sigma2, 1.0, 1.0, 1.0])
    d1_hat, d2_hat, p1_hat, p2_hat, cross = (mean * scale).tolist()
    stderr_d1, stderr_d2, stderr_p1, stderr_p2, _ = (stderr * scale).tolist()
    prod = p1_hat * p2_hat
    # At tiny powers the product underflows; take the roots apart there.
    denom = math.sqrt(prod) if prod >= sys.float_info.min else math.sqrt(p1_hat) * math.sqrt(p2_hat)
    rho_tilde_hat = abs(cross) / denom if denom > 0.0 else 0.0

    return SimReport(
        d1_hat=d1_hat,
        d2_hat=d2_hat,
        p1_hat=p1_hat,
        p2_hat=p2_hat,
        rho_tilde_hat=rho_tilde_hat,
        stderr_d1=stderr_d1,
        stderr_d2=stderr_d2,
        stderr_p1=stderr_p1,
        stderr_p2=stderr_p2,
        p1_flagged=p1_hat > p + 4.0 * stderr_p1,
        p2_flagged=p2_hat > p + 4.0 * stderr_p2,
        total_symbols=cfg.symbols,
    )
