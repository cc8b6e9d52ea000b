"""Command-line front end.

Subcommands: rd (rate-distortion queries), bound (feasibility / lower
bounds), simulate (Monte Carlo vs the closed form), sweep (CSV grids),
verify (the full criteria suite). Every command has a --json twin carrying
the same numbers at full double precision. The text output of rd and
bound is rendered from that JSON payload, one `key = value` line per
non-null entry, and that of simulate from ten named keys of it; numbers
at nine significant digits. simulate prints the simulator's report as it
stands, z-scores included (null where the run has no spread). Exit codes:
0 success, 1 verification failure or a non-null simulate |z| above 4, 2
usage error or input beyond the numeric range (one `error:` line).

rd, bound and sweep never load numpy; simulate and verify import their
modules, and numpy with them, on first use.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .bounds import check_feasibility, minimax_lower_bound
from .model import DEFAULT_SEED, ChannelParams, DistortionPair, ParameterError, SimulationError, SourceParams
from .rate_distortion import classify_region, conditional_rd, joint_rd
from .sweep import SweepSpec, write_sweep_csv


def _grid(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad grid value: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gmacfb",
        description=(
            "Distortion bounds and simulation for a correlated Gaussian source "
            "pair sent over a two-user Gaussian multiple-access channel with "
            "causal feedback."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("--sigma2", type=float, required=True, help="source variance")
    source.add_argument("--rho", type=float, required=True, help="source correlation in [0, 1]")

    rd = sub.add_parser("rd", parents=[source], help="rate-distortion function values")
    rd.add_argument("--d1", type=float, required=True, help="MSE target, component 1")
    rd.add_argument("--d2", type=float, required=True, help="MSE target, component 2")

    bound = sub.add_parser("bound", parents=[source], help="converse bound or feasibility test")
    bound.add_argument("--n", type=float, required=True, help="noise variance")
    bound.add_argument("--p", type=float, help="common power (symmetric case)")
    bound.add_argument("--p1", type=float, help="power of user 1 (general case)")
    bound.add_argument("--p2", type=float, help="power of user 2 (general case)")
    bound.add_argument("--d1", type=float, help="MSE target 1 (general case)")
    bound.add_argument("--d2", type=float, help="MSE target 2 (general case)")

    sim = sub.add_parser("simulate", parents=[source], help="Monte Carlo run of the uncoded scheme")
    sim.add_argument("--p", type=float, required=True, help="per-user power")
    sim.add_argument("--n", type=float, required=True, help="noise variance")
    sim.add_argument("--symbols", type=int, required=True, help="number of source pairs")
    sim.add_argument("--seed", type=int, default=DEFAULT_SEED, help=f"RNG seed (default {DEFAULT_SEED})")

    sweep = sub.add_parser("sweep", help="bound-vs-scheme grid to CSV")
    sweep.add_argument("--sigma2", type=float, default=1.0)
    sweep.add_argument("--rho-grid", type=_grid, required=True, help="comma-separated rho values")
    sweep.add_argument("--snr-grid", type=_grid, required=True, help="comma-separated P/N values")
    sweep.add_argument("--out", required=True, help="output CSV path")

    verify = sub.add_parser("verify", help="run the verification criteria")
    mode = verify.add_mutually_exclusive_group()
    mode.add_argument("--quick", dest="scale", action="store_const", const="quick")
    mode.add_argument("--full", dest="scale", action="store_const", const="full")
    verify.set_defaults(scale="quick")

    # Declared last, so each usage line ends in [--json].
    for command in sub.choices.values():
        command.add_argument("--json", action="store_true", help="machine-readable output")
    return parser


# A handler returns (payload, text lines, failure): main prints the payload
# as JSON under --json and the lines otherwise, then reports a non-empty
# failure message on stderr with exit code 1.
_Outcome = tuple[object, list[str], str | None]


def _text(value: object) -> str:
    if isinstance(value, bool):
        return json.dumps(value)
    if isinstance(value, float):
        return f"{value:.9g}"
    if isinstance(value, (list, tuple)):
        return f"[{', '.join(map(_text, value))}]"
    return str(value)


def _render(payload: dict, keys: tuple[str, ...] | None = None) -> list[str]:
    """One `key = value` line per non-null entry of payload (or of keys),
    in order: floats at nine significant digits, flags as true/false."""
    return [f"{key} = {_text(payload[key])}" for key in keys or payload if payload[key] is not None]


def _cmd_rd(args: argparse.Namespace) -> _Outcome:
    source = SourceParams(args.sigma2, args.rho)
    pair = DistortionPair(args.d1, args.d2)
    payload = {
        "region": classify_region(source, pair).value,
        "joint_bits": joint_rd(source, pair),
        "cond1_bits": conditional_rd(source, args.d1),
        "cond2_bits": conditional_rd(source, args.d2),
    }
    return payload, _render(payload), None


def _cmd_bound(args: argparse.Namespace) -> _Outcome:
    general_flags = [args.p1, args.p2, args.d1, args.d2]
    if args.p is not None and any(v is not None for v in general_flags):
        raise ParameterError("use either --p (symmetric) or --p1/--p2/--d1/--d2 (general), not both")
    if args.p is None and any(v is None for v in general_flags):
        raise ParameterError("general case needs all of --p1 --p2 --d1 --d2")

    source = SourceParams(args.sigma2, args.rho)
    if args.p is not None:
        res = minimax_lower_bound(source, args.p, args.n)
    else:
        channel = ChannelParams(args.p1, args.p2, args.n)
        res = check_feasibility(source, channel, DistortionPair(args.d1, args.d2))
    payload = dataclasses.asdict(res)
    return payload, _render(payload), None


def _cmd_simulate(args: argparse.Namespace) -> _Outcome:
    from .simulate import SimConfig, simulate_uncoded

    cfg = SimConfig(args.symbols, args.seed)
    source = SourceParams(args.sigma2, args.rho)
    report = simulate_uncoded(source, args.p, args.n, cfg)
    payload = {**dataclasses.asdict(report), "seed": args.seed}
    lines = _render(payload, (
        "d1_hat", "d2_hat", "stderr_d1", "stderr_d2",
        "p1_hat", "p2_hat", "rho_tilde_hat", "d_uncoded", "z1", "z2",
    ))
    failure = None
    if any(z is not None and abs(z) > 4.0 for z in (report.z1, report.z2)):
        failure = "simulation disagrees with the analytic uncoded distortion (|z| > 4)"
    return payload, lines, failure


def _cmd_sweep(args: argparse.Namespace) -> _Outcome:
    spec = SweepSpec(rho_grid=args.rho_grid, snr_grid=args.snr_grid, sigma2=args.sigma2)
    rows = write_sweep_csv(spec, args.out)
    return {"path": args.out, "rows": rows}, [f"wrote {len(rows)} rows to {args.out}"], None


def _cmd_verify(args: argparse.Namespace) -> _Outcome:
    from .verification import run_criteria

    results = run_criteria(args.scale)
    lines = [f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}" for r in results]
    failed = [r.name for r in results if not r.passed]
    failure = f"verification failed: {', '.join(failed)}" if failed else None
    return [dataclasses.asdict(r) for r in results], lines, failure


_HANDLERS = {
    "rd": _cmd_rd,
    "bound": _cmd_bound,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, lines, failure = _HANDLERS[args.command](args)
    except (ParameterError, SimulationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(payload))
    else:
        for line in lines:
            print(line)
    if failure:
        print(failure, file=sys.stderr)
        return 1
    return 0


def run() -> None:
    sys.exit(main())
