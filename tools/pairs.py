"""Interleaved parent/change pairs of the benchmark, with the verdict of its bounds.

    python3 tools/pairs.py --workload mms1d [--workload verify | --workload all] \
        --pairs 10 --first-seed 41 [--base HEAD~1] [--seconds 35] [--trace 1]

Run from anywhere inside a checkout; stdlib only.  The committed files of
the base commit (default: the parent of HEAD) are unpacked with
``git archive`` into a temporary directory.  For each workload in turn,
pair i runs ``perfbench/run.py --trace 0`` with seed ``first-seed + i``
once in the base copy and once in this checkout (its working tree,
uncommitted edits included), the base first in even pairs and the change
first in odd ones.  For every end-to-end metric that ``BENCHMARK.json``
names, one table per workload gives each side's median and quartiles, the
ratio of the medians, in how many pairs the change was better (ties count
for neither side), whether the gap between the medians exceeds the base's
interquartile range (what a claimed gain needs, with 9 of 10 wins), and
the :func:`verdict` against the metric's bound.  A closing line per
workload names the metrics whose verdict is ``worse``; the exit status
is 1 if any workload has one, else 0.

With ``--trace 1`` every run is ``perfbench/run.py --trace 1`` and the
table covers the per-layer metrics of ``BENCHMARK.json`` instead.  Traced
times are raw wall times that drift with the host from run to run, so for
each metric it gives, besides both medians, the median and range of the
per-pair ratios change/base (:func:`ratio_summary`): the two runs of a
pair are back to back, so a drift slower than a pair cancels in their
ratio.  Per-layer metrics carry no bound and get no verdict, so such a
run exits 0.

The temporary copy is removed at the end, also on failure or Ctrl-C.  Nothing under
``perfbench/`` is edited; each side writes its outputs to its own
``perfbench/.work/``.
"""

import argparse
import io
import json
import pathlib
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent


def git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True).stdout


def bench(checkout, workload, seed, seconds, trace):
    """The result JSON (last stdout line) of one benchmark run in ``checkout``."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"benchmark failed in {checkout} (exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def verdict(base, change, better, bound):
    """``"worse"``, ``"unresolved"`` or ``"ok"`` for one end-to-end metric.

    ``base`` and ``change`` are the runs' values, ``better`` is ``"lower"``
    or ``"higher"``, ``bound`` the relative bound of ``BENCHMARK.json``.
    Worse: the change's median is worse than the base's by more than
    ``bound`` times the base's median.  Unresolved: the base's
    interquartile range is wider than that, and not every change run beats
    every base run.  Ok otherwise.
    """
    sign = 1.0 if better == "lower" else -1.0  # sign * (change - base) > 0 is worse
    mb = statistics.median(base)
    allowed = bound * abs(mb)
    if sign * (statistics.median(change) - mb) > allowed:
        return "worse"
    q1, q3 = quartiles(base)
    if q3 - q1 > allowed and not all(sign * (c - b) < 0 for c in change for b in base):
        return "unresolved"
    return "ok"


def ratio_summary(base, change, better):
    """Medians and per-pair ratios of one per-layer metric.

    ``base`` and ``change`` hold the values of the same pairs in order.
    Returns ``(base median, change median, ratios, wins)``: ``ratios`` is
    ``(median, min, max)`` of change/base over the pairs with a nonzero base
    value, or None without such a pair; ``wins`` counts the pairs in which
    the change was better (ties count for neither side).
    """
    ratios = [c / b for b, c in zip(base, change) if b != 0]
    spread = (statistics.median(ratios), min(ratios), max(ratios)) if ratios else None
    wins = sum((c < b) if better == "lower" else (c > b) for b, c in zip(base, change))
    return statistics.median(base), statistics.median(change), spread, wins


def layer_report(metrics, runs):
    """One line per per-layer metric; ``metrics`` holds (name, better)
    and ``runs`` is a list of (base, change) results.  A metric that a run
    dropped (its traced function is gone) is listed as missing."""
    print(f"{'metric':<36} {'base median':>12} {'change median':>14}"
          f" {'pair ratio median [min, max]':>30} {'wins':>6}")
    for name, better in metrics:
        if not all(name in r["metrics"] for pair in runs for r in pair):
            print(f"{name:<36} missing in some runs")
            continue
        mb, mc, spread, wins = ratio_summary([b["metrics"][name]["value"] for b, _ in runs],
                                             [c["metrics"][name]["value"] for _, c in runs], better)
        cell = "-" if spread is None else f"{spread[0]:.3f} [{spread[1]:.3f}, {spread[2]:.3f}]"
        print(f"{name:<36} {mb:>12.5g} {mc:>14.5g} {cell:>30} {f'{wins}/{len(runs)}':>6}")


def report(metrics, runs):
    """One line per metric; ``metrics`` holds (name, better, bound) and
    ``runs`` is a list of (base, change) results.  Returns the names of the
    metrics whose verdict is ``"worse"``."""
    print(f"{'metric':<17} {'base median [q1, q3]':>38} {'change median [q1, q3]':>38}"
          f" {'ratio':>6} {'wins':>6} {'gap > base IQR':>14} {'verdict':>10}")
    worse = []
    for name, better, bound in metrics:
        base = [b["metrics"][name]["value"] for b, _ in runs]
        change = [c["metrics"][name]["value"] for _, c in runs]
        wins = sum((c < b) if better == "lower" else (c > b) for b, c in zip(base, change))
        (mb, q1, q3), (mc, c1, c3) = ((statistics.median(v), *quartiles(v)) for v in (base, change))
        cells = [f"{m:.5g} [{lo:.5g}, {hi:.5g}]" for m, lo, hi in ((mb, q1, q3), (mc, c1, c3))]
        outcome = verdict(base, change, better, bound)
        worse += [name] * (outcome == "worse")
        print(f"{name:<17} {cells[0]:>38} {cells[1]:>38} {mc / mb:>6.3f}"
              f" {f'{wins}/{len(runs)}':>6} {str(abs(mc - mb) > q3 - q1):>14} {outcome:>10}")
    return worse


def main():
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in config["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", required=True, choices=names + ["all"],
                    help="repeat for several; 'all' runs every workload of BENCHMARK.json")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=41)
    ap.add_argument("--base", default="HEAD~1", help="commit to compare against (default HEAD~1)")
    ap.add_argument("--seconds", type=float, default=None,
                    help="run length per side (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: traced runs and the per-layer table instead of the end-to-end one")
    args = ap.parse_args()
    workloads = names if "all" in args.workload else list(dict.fromkeys(args.workload))
    seconds = args.seconds if args.seconds is not None else config["run_seconds"]
    metrics = [(m["name"], m["better"], m["bound"]) for m in config["end_to_end"]]
    layers = [(m["name"], m["better"]) for m in config["per_layer"]]
    sha = git("rev-parse", "--verify", f"{args.base}^{{commit}}").decode().strip()
    any_worse = False

    with tempfile.TemporaryDirectory(prefix="gasbox-pairs-") as tmp:
        base = pathlib.Path(tmp) / "base"
        with tarfile.open(fileobj=io.BytesIO(git("archive", sha))) as archive:
            archive.extractall(base)
        for workload in workloads:
            runs = []
            for i in range(args.pairs):
                seed = args.first_seed + i
                order = [("base", base), ("change", ROOT)]
                if i % 2:
                    order.reverse()
                result = {side: bench(path, workload, seed, seconds, args.trace)
                          for side, path in order}
                runs.append((result["base"], result["change"]))
                values = "" if args.trace else ": " + ", ".join(
                    f"{name} {result['base']['metrics'][name]['value']:.6g} -> "
                    f"{result['change']['metrics'][name]['value']:.6g}" for name, _, _ in metrics)
                print(f"{workload} pair {i + 1}/{args.pairs} seed {seed} ({order[0][0]} first)"
                      + values, flush=True)
            print(f"{workload}: {len(runs)} pairs, base {sha[:10]}, {seconds:g} s per run"
                  + ", traced" * args.trace)
            if args.trace:
                layer_report(layers, runs)
            else:
                worse = report(metrics, runs)
                any_worse |= bool(worse)
                print(f"{workload}: worse: {', '.join(worse)}" if worse else f"{workload}: no metric worse")
            failed = [(b["failed"], c["failed"]) for b, c in runs]
            print(f"failed repetitions per pair (base, change): {failed}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
