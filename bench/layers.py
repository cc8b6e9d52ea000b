"""Outside-in layer tracing for the benchmark's traced run.

The tracer wraps public gmacfb functions under every module-global name
that refers to them (so `gmacfb.sweep.minimax_lower_bound` is wrapped as
well as `gmacfb.bounds.minimax_lower_bound`), and inside registry tuples
such as `verification.CRITERIA`. No file of the program changes. Each
wrapped call records a span (name, start, end, parent) in memory; a
span's self time is its duration minus the time its child spans cover.

Functions that a later refactor renames or removes are reported as absent:
their metrics read 0 and `Tracer.absent` names them, and every other
metric is still measured.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict

CRITERIA = (
    "tightness-below-threshold",
    "threshold-anchor",
    "monte-carlo-agreement",
    "endpoint-threshold",
    "feasibility-oracle",
    "rd-properties",
    "determinism",
)

# (module, function, span name). Spans nest in call order.
SPANS = (
    ("gmacfb.cli", "main", "cli.main"),
    ("gmacfb.simulate", "simulate_uncoded", "simulate.simulate_uncoded"),
    ("gmacfb.simulate", "gen_source", "simulate.gen_source"),
    ("gmacfb.simulate", "run_channel", "simulate.run_channel"),
    ("gmacfb.simulate", "mmse_decode_uncoded", "simulate.mmse_decode_uncoded"),
    ("gmacfb.bounds", "minimax_lower_bound", "bounds.minimax_lower_bound"),
    ("gmacfb.bounds", "check_feasibility", "bounds.check_feasibility"),
    ("gmacfb.rate_distortion", "joint_rd", "rate_distortion.joint_rd"),
    ("gmacfb.rate_distortion", "classify_region", "rate_distortion.classify_region"),
    ("gmacfb.sweep", "sweep_rows", "sweep.sweep_rows"),
    ("gmacfb.sweep", "write_sweep_csv", "sweep.write_sweep_csv"),
    ("gmacfb.verification", "run_criteria", "verification.run_criteria"),
) + tuple(
    ("gmacfb.verification", name.replace("-", "_"), f"verification.{name}") for name in CRITERIA
)

# Hot inner functions that are only counted, and only while a minimax call
# is the innermost open span: a span each would cost more than they do.
# Even the counters double a minimax call's cost, so they run on one
# operation of their own, whose times are not used.
MINIMAX_CURVES = (
    ("gmacfb.bounds", "sum_rate_curve"),
    ("gmacfb.bounds", "single_user_curve"),
)

# Metric name -> unit, in the order printed. A metric reads 0 on a workload
# that never calls its layer.
PER_LAYER = {
    "simulate.gen_source.msym_per_s": "Msym/s",
    "simulate.gen_source.share": "ratio",
    "simulate.run_channel.msym_per_s": "Msym/s",
    "simulate.run_channel.share": "ratio",
    "simulate.mmse_decode_uncoded.msym_per_s": "Msym/s",
    "simulate.simulate_uncoded.self_s": "s",
    "simulate.simulate_uncoded.peak_bytes_per_sym": "B/sym",
    "bounds.minimax_lower_bound.calls": "count",
    "bounds.minimax_lower_bound.us_p50": "us",
    "bounds.minimax_lower_bound.us_p99": "us",
    "bounds.minimax_lower_bound.crossing_share": "ratio",
    "bounds.curve_evals_per_minimax": "count",
    "bounds.check_feasibility.calls": "count",
    "bounds.check_feasibility.us_p50": "us",
    "rate_distortion.joint_rd.calls": "count",
    "rate_distortion.joint_rd.us_p50": "us",
    "rate_distortion.joint_rd.us_p99": "us",
    "rate_distortion.classify_region.us_p50": "us",
    "sweep.sweep_rows.s": "s",
    "sweep.format_csv.s": "s",
    **{f"verification.{name}.s": "s" for name in CRITERIA},
    "cli.self_s": "s",
    "trace.overhead_pct": "%",
}

# Spans whose every call duration is kept for percentiles.
_PERCENTILE_SPANS = (
    "bounds.minimax_lower_bound",
    "bounds.check_feasibility",
    "rate_distortion.joint_rd",
    "rate_distortion.classify_region",
)


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, attrs]
        self.stack: list[int] = []
        self.curve_evals = 0
        self.absent: list[str] = []
        self._undo: list[tuple[object, str, object]] = []
        self._curve_undo: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter
        on_result = _RESULT_HOOKS.get(name)
        watch_memory = name == "simulate.simulate_uncoded"

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            own_tracemalloc = watch_memory and not tracemalloc.is_tracing()
            if own_tracemalloc:
                tracemalloc.start()
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                peak = tracemalloc.get_traced_memory()[1] if own_tracemalloc else None
                if own_tracemalloc:
                    tracemalloc.stop()
            if on_result is not None:
                rec[4] = on_result(result)
            if peak is not None:
                rec[4] = dict(rec[4] or {}, peak_bytes=peak)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _curve_counter(self, fn):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][0] == "bounds.minimax_lower_bound":
                self.curve_evals += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every span target that exists; record the ones that do not."""
        for module, attr, name in SPANS:
            self._patch(module, attr, lambda fn, name=name: self._span(name, fn), self._undo)

    def install_curve_counters(self) -> None:
        """Count curve evaluations inside minimax spans, on top of install()."""
        for module, attr in MINIMAX_CURVES:
            self._patch(module, attr, self._curve_counter, self._curve_undo)

    def uninstall_curve_counters(self) -> None:
        self._restore(self._curve_undo)

    def uninstall(self) -> None:
        self._restore(self._curve_undo)
        self._restore(self._undo)

    @staticmethod
    def _restore(undo: list) -> None:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)
        undo.clear()

    def _patch(self, module_name: str, attr: str, make_wrapper, undo: list) -> None:
        try:
            original = getattr(importlib.import_module(module_name), attr)
        except (ImportError, AttributeError):
            self.absent.append(f"{module_name}.{attr}")
            return
        wrapped = make_wrapper(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "gmacfb" or mod_name.startswith("gmacfb.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    new = wrapped
                elif isinstance(value, tuple) and any(v is original for v in value):
                    new = tuple(wrapped if v is original else v for v in value)
                else:
                    continue
                undo.append((mod, key, value))
                setattr(mod, key, new)

    # -- per-operation aggregation -----------------------------------------

    def take_op(self) -> "OpStats":
        """Fold the spans of one finished operation and clear them."""
        stats = OpStats.from_spans(self.spans, self.curve_evals)
        self.spans.clear()
        self.curve_evals = 0
        return stats


def _minimax_attrs(result):
    return {"crossing": getattr(result, "active", None) == "crossing"}


def _simulate_attrs(result):
    return {"symbols": getattr(result, "total_symbols", 0)}


_RESULT_HOOKS = {
    "bounds.minimax_lower_bound": _minimax_attrs,
    "simulate.simulate_uncoded": _simulate_attrs,
}


class OpStats:
    """Per-span-name totals for one operation."""

    def __init__(self) -> None:
        self.total = defaultdict(float)   # inclusive seconds
        self.self_s = defaultdict(float)  # seconds minus child spans
        self.calls = defaultdict(int)
        self.durations = defaultdict(list)
        self.top_cli_self = 0.0
        self.symbols = 0
        self.crossings = 0
        self.curve_evals = 0
        self.peak_per_sym: list[float] = []

    @classmethod
    def from_spans(cls, spans: list[list], curve_evals: int) -> "OpStats":
        stats = cls()
        stats.curve_evals = curve_evals
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent, attrs) in enumerate(spans):
            dur = end - start
            stats.total[name] += dur
            stats.self_s[name] += dur - child_time[i]
            stats.calls[name] += 1
            if name in _PERCENTILE_SPANS:
                stats.durations[name].append(dur)
            if name == "cli.main" and parent < 0:
                stats.top_cli_self += dur - child_time[i]
            if attrs:
                stats.crossings += attrs.get("crossing", False)
                symbols = attrs.get("symbols", 0)
                stats.symbols += symbols
                if symbols and "peak_bytes" in attrs:
                    stats.peak_per_sym.append(attrs["peak_bytes"] / symbols)
        return stats


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def _percentile_us(values: list[float], pct: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0] * 1e6
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1] * 1e6


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def per_layer_metrics(ops: list[OpStats], counted: OpStats, overhead_pct: float) -> dict[str, float]:
    """Per-layer metrics: medians over traced operations of per-operation
    values, and percentiles over every call pooled across operations.
    `counted` is the one operation that ran with the curve counters; it
    only gives the curve evaluations per minimax call."""
    pooled = defaultdict(list)
    for op in ops:
        for name, durs in op.durations.items():
            pooled[name].extend(durs)

    def per_op(fn) -> float:
        return _median(fn(op) for op in ops)

    def msym_per_s(span: str):
        return lambda op: _ratio(op.symbols / 1e6, op.total[span])

    def share(span: str):
        return lambda op: _ratio(op.total[span], op.total["simulate.simulate_uncoded"])

    mm = "bounds.minimax_lower_bound"
    return {
        "simulate.gen_source.msym_per_s": per_op(msym_per_s("simulate.gen_source")),
        "simulate.gen_source.share": per_op(share("simulate.gen_source")),
        "simulate.run_channel.msym_per_s": per_op(msym_per_s("simulate.run_channel")),
        "simulate.run_channel.share": per_op(share("simulate.run_channel")),
        "simulate.mmse_decode_uncoded.msym_per_s": per_op(msym_per_s("simulate.mmse_decode_uncoded")),
        "simulate.simulate_uncoded.self_s": per_op(lambda op: op.self_s["simulate.simulate_uncoded"]),
        "simulate.simulate_uncoded.peak_bytes_per_sym": _median(
            v for op in ops for v in op.peak_per_sym
        ),
        f"{mm}.calls": per_op(lambda op: op.calls[mm]),
        f"{mm}.us_p50": _percentile_us(pooled[mm], 50),
        f"{mm}.us_p99": _percentile_us(pooled[mm], 99),
        f"{mm}.crossing_share": per_op(lambda op: _ratio(op.crossings, op.calls[mm])),
        "bounds.curve_evals_per_minimax": _ratio(counted.curve_evals, counted.calls[mm]),
        "bounds.check_feasibility.calls": per_op(lambda op: op.calls["bounds.check_feasibility"]),
        "bounds.check_feasibility.us_p50": _percentile_us(pooled["bounds.check_feasibility"], 50),
        "rate_distortion.joint_rd.calls": per_op(lambda op: op.calls["rate_distortion.joint_rd"]),
        "rate_distortion.joint_rd.us_p50": _percentile_us(pooled["rate_distortion.joint_rd"], 50),
        "rate_distortion.joint_rd.us_p99": _percentile_us(pooled["rate_distortion.joint_rd"], 99),
        "rate_distortion.classify_region.us_p50": _percentile_us(
            pooled["rate_distortion.classify_region"], 50
        ),
        "sweep.sweep_rows.s": per_op(lambda op: op.total["sweep.sweep_rows"]),
        # write_sweep_csv minus the sweep_rows it wraps: formatting plus the write.
        "sweep.format_csv.s": per_op(lambda op: op.self_s["sweep.write_sweep_csv"]),
        **{
            f"verification.{name}.s": per_op(lambda op, name=name: op.total[f"verification.{name}"])
            for name in CRITERIA
        },
        "cli.self_s": per_op(lambda op: op.top_cli_self),
        "trace.overhead_pct": overhead_pct,
    }


def pooled_call_counts(ops: list[OpStats]) -> dict[str, int]:
    """Sample count behind each per-call percentile."""
    return {name: sum(len(op.durations[name]) for op in ops) for name in _PERCENTILE_SPANS}
