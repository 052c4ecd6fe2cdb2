"""Command-line driver.

Subcommands:

* ``run <config>``       advance a configured problem to t_end, writing a
                         diagnostics CSV, field snapshots and a summary
* ``converge <config>``  grid-refinement study (manufactured solution or
                         Richardson self-comparison), printing the table
* ``verify``             run the built-in randomized property sweep

Exit codes: 0 success, 1 physics abort / failed verification, 2 bad
configuration or usage.
"""

import argparse
import pathlib
import sys

import numpy as np

from .config import ConfigError, parse_config
from .diagnostics import (
    apriori_norm_report,
    convergence_study,
    format_apriori_report,
    format_convergence_table,
    write_csv,
)
from .driver import mms_from_initial, simulate
from .grid import build_grid
from .snapshot import write_snapshot
from .timestep import RunAbort
from .verify import run_verification

__all__ = ["main"]


def _load(path):
    try:
        text = pathlib.Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def _summary(records):
    first, last = records[0], records[-1]
    mass_scale = max(abs(first.total_mass), 1e-300)
    energy_scale = max(abs(first.total_energy), 1e-300)
    mass_drift = abs(last.total_mass - first.total_mass) / mass_scale
    energy_drift = abs(last.total_energy - first.total_energy) / energy_scale
    worst_rise = 0.0
    for prev, cur in zip(records, records[1:]):
        slack = 1e-9 * max(1.0, abs(prev.total_entropy))
        worst_rise = max(worst_rise, cur.total_entropy - prev.total_entropy - slack)
    # max() drops a NaN rise, so a run whose monitors overflowed is caught here
    finite = np.all(np.isfinite([mass_drift, energy_drift] + [r.total_entropy for r in records]))
    monotone = "yes" if worst_rise <= 0.0 and finite else "no"
    return mass_drift, energy_drift, monotone


def _cmd_run(args):
    cfg = _load(args.config)
    out_dir = pathlib.Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    try:
        result = simulate(cfg, collect_history=cfg.apriori_report)
    except RunAbort as abort:
        write_snapshot(out_dir / "abort_last_good.snap", abort.state,
                       build_grid(cfg.grid_n, cfg.extent), abort.t, cfg.gas)
        print(f"physics abort: {abort}", file=sys.stderr)
        return 1

    write_csv(out_dir / "diagnostics.csv", result.records)
    if cfg.snapshots:
        write_snapshot(out_dir / "final.snap", result.state, result.grid, result.t, cfg.gas)
    if cfg.apriori_report:
        report = apriori_norm_report(result.history, result.grid, cfg.gas, records=result.records)
        (out_dir / "apriori_report.txt").write_text(format_apriori_report(report), encoding="utf-8")

    mass_drift, energy_drift, monotone = _summary(result.records)
    print(f"summary: steps={result.steps} t={result.t:.6g} "
          f"mass_drift={mass_drift:.3e} energy_drift={energy_drift:.3e} "
          f"entropy_monotone={monotone} rejections={result.rejections}")
    return 0


def _cmd_converge(args):
    cfg = _load(args.config)
    if not cfg.convergence_grids:
        raise ConfigError("converge needs [convergence] grids = n1 n2 ... (each double the last)")
    mode = cfg.convergence_mode
    gas = cfg.gas

    def solve(n):
        # every grid of the study collapses the axes the config collapses
        result = simulate(cfg, n_override=tuple(n if m else 0 for m in cfg.grid_n))
        return result.grid, result.state

    exact = None
    if mode == "mms":
        if cfg.initial["preset"] != "mms_wave":
            raise ConfigError("mms convergence mode requires [initial] preset = mms_wave")
        wave = mms_from_initial(cfg.initial)

        def exact(grid):
            return wave.conserved(grid, cfg.t_end, gas)

    rows = convergence_study(cfg.convergence_grids, solve, exact=exact)
    print(format_convergence_table(rows), end="")
    finite = [r.order_l2 for r in rows if np.isfinite(r.order_l2)]
    if finite:
        print(f"observed L2 order on finest pair: {finite[-1]:.3f}")
    return 0


def _cmd_verify(args):
    ok = run_verification(seed=args.seed, fast=args.fast)
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(prog="gasbox",
                                     description="finite-volume solver for a mass-diffusive "
                                                 "compressible gas in a closed box")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="advance a configured problem to t_end")
    p_run.add_argument("config")
    p_run.set_defaults(func=_cmd_run)

    p_conv = sub.add_parser("converge", help="grid refinement study")
    p_conv.add_argument("config")
    p_conv.set_defaults(func=_cmd_converge)

    p_ver = sub.add_parser("verify", help="run the built-in property sweep")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--fast", action="store_true", help="smaller sample sizes")
    p_ver.set_defaults(func=_cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
