"""Command-line front end.

Subcommands:
  sweep <config-file>   run every [sweep:<id>] section of a config file
  figure <name>         reproduce one of the reference figures as CSV data
  validate              cross-method validation report (exit 1 on failure)
  queue-sim             discrete-event queue run against the analytics

Exit codes: 0 success, 1 validation-report failure, 2 config or I/O error.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

from .channel import ROLES
from .delay import delay_at_capacity
from .eccalc import EvalControls, evaluate
from .fblrate import LN2
from .queuesim import SimSpec, run_queue_sim
from .specfun import ConvergenceError
from .sweep import (FIG3_POINT, FIGURE_NAMES, QOS_D_MAX, QOS_POINT,
                    figure_preset, load_sweep_config, pool_config, run_sweep,
                    validate_report, write_plot_script)


def _build_parser() -> argparse.ArgumentParser:
    defaults = EvalControls()
    parser = argparse.ArgumentParser(
        prog="nomafbl",
        description="Effective capacity and delay analytics for two-user "
                    "downlink NOMA with finite-blocklength coding")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run sweeps from a config file")
    p_sweep.add_argument("config", help="path to a [sweep:<id>] config file")

    p_fig = sub.add_parser("figure", help="reproduce a reference figure")
    p_fig.add_argument("name", choices=FIGURE_NAMES)
    p_fig.add_argument("--out", default=None, help="output CSV path")
    p_fig.add_argument("--seed", type=int, default=defaults.seed)
    p_fig.add_argument("--mc-samples", type=int, default=defaults.mc_samples)
    p_fig.add_argument("--plot-script", action="store_true",
                       help="also write a gnuplot script next to the CSV")

    p_val = sub.add_parser("validate", help="cross-method validation report")
    p_val.add_argument("--rho-db", type=float, nargs="+",
                       default=[FIG3_POINT["rho_db"]])
    p_val.add_argument("--seed", type=int, default=defaults.seed)
    p_val.add_argument("--mc-samples", type=int, default=defaults.mc_samples)
    p_val.add_argument("--n", type=int, default=FIG3_POINT["n"])
    p_val.add_argument("--eps", type=float, default=FIG3_POINT["eps"])
    p_val.add_argument("--theta", type=float, default=FIG3_POINT["theta"])
    p_val.add_argument("--series-max-terms", type=int,
                       default=defaults.series_max_terms)

    p_q = sub.add_parser("queue-sim", help="block queue simulation")
    p_q.add_argument("--theta", type=float, default=QOS_POINT["theta"],
                     help="QoS exponent defining the operating point")
    p_q.add_argument("--mu-frac", type=float, default=0.95,
                     help="arrival rate as a fraction of the effective capacity")
    p_q.add_argument("--mu", type=float, default=None,
                     help="absolute arrival rate in bits per channel use "
                          "(overrides --mu-frac)")
    p_q.add_argument("--blocks", type=int, default=400_000)
    p_q.add_argument("--warmup", type=int, default=10_000)
    p_q.add_argument("--role", choices=ROLES, default="strong")
    p_q.add_argument("--rho-db", type=float, default=20.0)
    p_q.add_argument("--n", type=int, default=QOS_POINT["n"])
    p_q.add_argument("--eps", type=float, default=QOS_POINT["eps"])
    p_q.add_argument("--d-max", type=float, default=QOS_D_MAX)
    p_q.add_argument("--seed", type=int, default=defaults.seed)
    return parser


def _cmd_sweep(args) -> int:
    specs = load_sweep_config(args.config)
    for spec in specs:
        rows = run_sweep(spec)
        print(f"[{spec.scenario_id}] {len(rows)} rows -> {spec.output_path}")
    return 0


def _cmd_figure(args) -> int:
    spec = figure_preset(args.name, output_path=args.out, seed=args.seed,
                         mc_samples=args.mc_samples)
    rows = run_sweep(spec)
    print(f"[{args.name}] {len(rows)} rows -> {spec.output_path}")
    if args.plot_script:
        print(f"plot script -> {write_plot_script(spec.output_path)}")
    return 0


def _cmd_validate(args) -> int:
    ctl = EvalControls(mc_samples=args.mc_samples, seed=args.seed,
                       series_max_terms=args.series_max_terms)
    ok = True
    for rho_db in args.rho_db:
        cfg = pool_config(args.n, args.eps, args.theta, rho_db)
        report = validate_report(cfg, ctl)
        print(f"=== rho = {rho_db:g} dB ===")
        print(report.render())
        ok = ok and report.passed
    return 0 if ok else 1


def _cmd_queue_sim(args) -> int:
    cfg = pool_config(args.n, args.eps, args.theta, args.rho_db)
    ctl = EvalControls(seed=args.seed)
    ec, mu = None, args.mu
    if mu is None:      # the capacity is needed only to scale --mu-frac
        ec = evaluate(cfg, args.role, "closed_form", ctl).value
        mu = args.mu_frac * ec
    if not 0.0 < mu < math.inf:
        raise ValueError(f"arrival rate {mu} is not finite and positive")
    spec = SimSpec(cfg=cfg, role=args.role, arrival_rate=mu,
                   num_blocks=args.blocks, warmup_blocks=args.warmup,
                   d_max=args.d_max, seed=args.seed)
    cpu_start = time.process_time()
    stats = run_queue_sim(spec)
    cpu_s = time.process_time() - cpu_start
    print(f"simulated {args.blocks} blocks in {cpu_s:.3f} CPU s "
          f"({args.blocks / cpu_s:.4g} blocks per CPU-second)",
          file=sys.stderr)
    analytic = delay_at_capacity(args.theta, mu, args.d_max)
    if ec is not None:
        print(f"effective capacity C_e({args.theta:g}) = {ec:.6f} b/cu "
              f"({args.role} user, {args.rho_db:g} dB)")
    print(f"arrival rate mu = {mu:.6f} b/cu over {args.blocks} blocks")
    print(f"mean backlog          : {stats.mean_queue:.1f} bits")
    if stats.fitted_theta is not None:
        print(f"fitted tail exponent  : {stats.fitted_theta:.6g} per bit "
              f"(+- {stats.fitted_theta_stderr:.2g}); "
              f"theta*ln2 = {args.theta * LN2:.6g}")
    else:
        print("fitted tail exponent  : insufficient tail data")
    print(f"delay violation freq  : {stats.delay_violation_freq:.3e} "
          f"(analytic bound {analytic:.3e})")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"sweep": _cmd_sweep, "figure": _cmd_figure,
                "validate": _cmd_validate, "queue-sim": _cmd_queue_sim}
    try:
        return handlers[args.command](args)
    except (OSError, ValueError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
