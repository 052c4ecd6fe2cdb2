"""gasbox benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload {pulse3d,mms1d,verify} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  Each repetition runs the workload in a
fresh interpreter (``worker.py``), because users pay the import cost on
every run; one repetition at a time, BLAS threads pinned to 1.
Repetitions start while the median repetition still fits in ``--seconds``.
Every repetition's outputs are checked (``workloads.check_rep``).

``--trace 0`` prints the end-to-end metrics (medians over repetitions).
Their times are wall times scaled to a reference host speed by the
worker's ``SpeedMeter``, which times a fixed probe interleaved with the
program on its core: the shared host's speed moves by up to 2x within
seconds, and the scaling takes that out.  The unscaled wall medians are
printed on the ``context:`` line.
``--trace 1`` alternates untraced and traced repetitions and prints the
per-layer metrics of the traced ones, the tracing overhead, and whether
the traced final state equals the untraced one (``final.snap`` bytes; the
printed sweep report on ``verify``).  The last
stdout line is the JSON result; the lines before it give the run context
and each metric with its unit.  See README.md for what each metric is
expected to move.
"""

import argparse
import compileall
import json
import os
import pathlib
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

import workloads

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
WORKER = HERE / "worker.py"

# Share of --seconds (trace 0) given to set-up-only probes, which add
# samples to the setup_s median; at least MIN_SETUP_SAMPLES in all.
SETUP_SHARE = 0.25
MIN_SETUP_SAMPLES = 7
IMPORTTIME_SAMPLES = 5
MAX_REPS = 200
HARD_LIMIT_S = 170.0  # a run must end within 180 s

WORKER_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "GASBOX_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class BenchError(Exception):
    """The benchmark cannot measure anything: no result is printed."""


def launch(workload, seed, rep_dir, trace=0, setup_only=False, importtime=False, meter=False,
           timeout=150.0):
    """One worker process; returns (result dict or None, stderr text)."""
    if rep_dir.exists():
        shutil.rmtree(rep_dir)
    args = workloads.make_input(workload, seed, rep_dir)
    result_path = rep_dir / "result.json"
    cmd = [sys.executable]
    if importtime:
        cmd += ["-X", "importtime"]
    cmd += [str(WORKER), "--result", str(result_path),
            "--trace", str(trace), *args]
    if setup_only:
        cmd.append("--setup-only")
    if meter:
        cmd.append("--meter")
    env = dict(os.environ, **WORKER_ENV)
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0 or not result_path.is_file():
        return None, proc.stderr
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh), proc.stderr


class Runner:
    """Runs repetitions of one workload and checks each one's outputs."""

    def __init__(self, workload, seed, seconds):
        self.workload = workload
        self.seed = seed
        self.start = time.perf_counter()
        self.deadline = self.start + seconds
        self.durations = []
        self.attempted = 0
        self.failed = 0
        self.failures = []
        from gasbox.snapshot import read_snapshot
        self.read_snapshot = read_snapshot
        self.reference = workloads.load_reference() if workload == "pulse3d" else None

    def remaining(self):
        return self.start + HARD_LIMIT_S - time.perf_counter()

    def fits(self, durations, reps=1, deadline=None):
        """True while ``reps`` more runs of the median of ``durations`` fit
        before ``deadline`` (the end of --seconds by default)."""
        if len(durations) + reps > MAX_REPS:
            return False
        est = reps * (statistics.median(durations) if durations else 0.0)
        return (time.perf_counter() + est <= (deadline or self.deadline)
                and est < self.remaining())

    def rep(self, name, trace=0, meter=False):
        rep_dir = WORK / self.workload / name
        t = time.perf_counter()
        result, stderr = launch(self.workload, self.seed, rep_dir, trace=trace, meter=meter,
                                timeout=max(1.0, self.remaining()))
        self.durations.append(time.perf_counter() - t)
        self.attempted += 1
        sys.stderr.write(stderr)
        if result is None:
            if self.attempted == 1:
                raise BenchError(f"the first repetition of {self.workload} failed:\n{stderr}")
            fails = ["worker failed"]
        else:
            try:
                fails = workloads.check_rep(self.workload, self.seed, rep_dir, result,
                                            self.read_snapshot, self.reference)
            except (OSError, ValueError, KeyError) as exc:
                fails = [f"outputs unreadable: {exc!r}"]
        if fails:
            self.failed += 1
            self.failures.append(f"{name}: {'; '.join(fails)}")
        return result, rep_dir

    def setup_probe(self, importtime=False, meter=False):
        """A set-up-only worker; returns (result, stderr)."""
        result, stderr = launch(self.workload, self.seed, WORK / self.workload / "probe",
                                setup_only=True, importtime=importtime, meter=meter,
                                timeout=max(1.0, self.remaining()))
        if result is None:
            raise BenchError(f"set-up probe failed:\n{stderr}")
        return result, stderr


# ---------------------------------------------------------------------------
# end-to-end metrics


def steps_of(result):
    return workloads.parse_summary(result["stdout"])[0]


def node_steps_per_s(workload, result):
    """Nodes x accepted steps / time-loop seconds at the reference speed.
    The verify sweep has no time loop: there it is the sampled state pairs
    it reports per second of sweep."""
    if workload == "verify":
        pairs = int(re.search(r"pairs=(\d+)", result["stdout"]).group(1))
        return pairs / result["solve_ref_s"]
    return result["nodes"] * steps_of(result) / result["loop_ref_s"]


def end_to_end(workload, results, setups):
    """Medians over the repetitions (``setups``: repetitions and set-up-only
    workers) of the times at the reference speed (``worker.SpeedMeter``)."""
    med = statistics.median
    metrics = {
        "setup_s": (med(r["setup_ref_s"] for r in setups), "s"),
        "solve_s": (med(r["solve_ref_s"] for r in results), "s"),
        "node_steps_per_s": (med(node_steps_per_s(workload, r) for r in results), "node-steps/s"),
        "peak_rss_mb": (med(r["peak_rss_mb"] for r in results), "MB"),
    }
    wall = {
        "wall_setup_s": med(r["setup_s"] for r in setups),
        "wall_solve_s": med(r["solve_s"] for r in results),
        "slowness_median": med(r["slowness_median"] for r in setups),
    }
    return metrics, wall


def measure_end_to_end(runner, seconds):
    results = []
    reps_deadline = runner.deadline - SETUP_SHARE * seconds
    while True:
        result, _ = runner.rep(f"rep-{runner.attempted:03d}", meter=True)
        if result is not None:
            results.append(result)
        if not runner.fits(runner.durations, deadline=reps_deadline):
            break
    setups = list(results)
    probe_s = []
    while (len(setups) < MIN_SETUP_SAMPLES or runner.fits(probe_s)) \
            and runner.remaining() > 2 * max(r["setup_s"] for r in setups):
        t = time.perf_counter()
        setups.append(runner.setup_probe(meter=True)[0])
        probe_s.append(time.perf_counter() - t)
    metrics, wall = end_to_end(runner.workload, results, setups)
    return metrics, {"repetitions": len(results), "setup_samples": len(setups), **wall}


# ---------------------------------------------------------------------------
# per-layer metrics


class Missing(Exception):
    """A traced function is gone: its metric is dropped."""


class Rep:
    """Accessors over one traced repetition's span summary."""

    def __init__(self, result):
        self.trace = result["trace"]
        self.installed = set(self.trace["installed"])
        self.solve_s = result["solve_s"]
        self.steps = steps_of(result) if "summary:" in result["stdout"] else 0

    def _stat(self, name, phase):
        if name not in self.installed:
            raise Missing(name)
        return self.trace["stats"][phase].get(name)

    def total_ms(self, name, phase="solve"):
        s = self._stat(name, phase)
        return 1e3 * s["total_s"] if s else 0.0

    def self_ms(self, name):
        s = self._stat(name, "solve")
        return 1e3 * s["self_s"] if s else 0.0

    def count(self, name, key="count"):
        s = self._stat(name, "solve")
        return s[key] if s else 0

    def extra(self, name):
        s = self._stat(name, "solve")
        if s is None:
            return 0
        if s["extra"] is None:
            raise Missing(f"extra quantity of {name}")
        return s["extra"]

    def layer_self_ms(self, layer):
        if not any(name.startswith(layer + ".") for name in self.installed):
            raise Missing(f"module {layer}")
        return 1e3 * self.trace["layer_self_s"].get(layer, 0.0)

    def per(self, num, den):
        return num / den if den else 0.0


PRIM = "thermo.primitives_from_conserved"
LOGM = "means.log_mean"
RHS = "rhs.assemble_rhs"
RK = "timestep.ssprk3_step"
SOURCE = "mms.MMSWave.source"


def _forcing(r, what):
    r.count(SOURCE)  # the forcing closure is only known once source() ran
    s = r.trace["stats"]["solve"].get("mms.forcing")
    if s is None:
        return 0.0
    return 1e3 * s["total_s"] if what == "ms" else s["count"]


# name -> (unit, value of one traced repetition).  Each comment names the
# end-to-end metric and workload the layer metric is expected to move.
LAYER_METRICS = {
    # -> setup_s
    "config.parse_config_ms": ("ms", lambda r: r.total_ms("config.parse_config", "setup")),
    "grid.build_grid_ms": ("ms", lambda r: r.total_ms("grid.build_grid", "setup")),
    "initial.initial_condition_ms": ("ms", lambda r: r.total_ms("initial.initial_condition", "setup")),
    "mms.compile_ms": ("ms", lambda r: r.total_ms(SOURCE, "setup")),
    # -> solve_s on mms1d
    "mms.forcing_ms": ("ms", lambda r: _forcing(r, "ms")),
    "mms.forcing_calls": ("count", lambda r: _forcing(r, "calls")),
    # -> solve_s on pulse3d
    "thermo.primitives_ms": ("ms", lambda r: r.total_ms(PRIM)),
    "thermo.primitives_calls_per_step": ("calls/step", lambda r: r.per(r.count(PRIM, "loop_count"), r.steps)),
    # -> solve_s on pulse3d, mms1d, verify
    "means.log_mean_ms": ("ms", lambda r: r.total_ms(LOGM)),
    "means.log_mean_calls_per_rhs": ("calls/rhs", lambda r: r.per(r.count(LOGM, "rhs_count"), r.count(RHS))),
    "means.log_mean_share": ("ratio", lambda r: r.total_ms(LOGM) / (1e3 * r.solve_s)),
    # -> solve_s / node_steps_per_s on pulse3d
    "fluxes.convective_flux_ms": ("ms", lambda r: r.total_ms("fluxes.convective_flux")),
    "fluxes.diffusion_coeffs_ms": ("ms", lambda r: r.total_ms("fluxes.diffusion_coeffs")),
    "fluxes.split_diffusive_flux_ms": ("ms", lambda r: r.total_ms("fluxes.split_diffusive_flux")),
    # -> node_steps_per_s on pulse3d and mms1d
    "rhs.assemble_rhs_ms": ("ms", lambda r: r.total_ms(RHS)),
    "rhs.self_ms": ("ms", lambda r: r.layer_self_ms("rhs")),
    "rhs.ns_per_node": ("ns", lambda r: r.per(1e6 * r.total_ms(RHS), r.extra(RHS))),
    "rhs.calls_per_step": ("calls/step", lambda r: r.per(r.count(RHS, "loop_count"), r.steps)),
    # -> solve_s on pulse3d and mms1d
    "timestep.stable_dt_ms": ("ms", lambda r: r.total_ms("timestep.stable_dt")),
    "timestep.rk_self_ms": ("ms", lambda r: r.self_ms(RK)),
    "timestep.accepted_frac": ("ratio", lambda r: r.per(r.steps, r.count(RK, "loop_count"))),
    # -> solve_s on verify (most), pulse3d (little)
    "diagnostics.totals_ms": ("ms", lambda r: r.total_ms("diagnostics.totals")),
    "diagnostics.records": ("count", lambda r: r.count("diagnostics.totals")),
    "diagnostics.ke_balance_ms": ("ms", lambda r: r.total_ms("diagnostics.ke_balance_residual")),
    "diagnostics.entropy_balance_ms": ("ms", lambda r: r.total_ms("diagnostics.entropy_balance_residual")),
    "diagnostics.shuffle_gap_ms": ("ms", lambda r: r.total_ms("diagnostics.shuffle_gap_and_scale")),
    "diagnostics.apriori_report_ms": ("ms", lambda r: r.total_ms("diagnostics.apriori_norm_report")),
    # -> solve_s on verify
    "grid.sbp_residual_ms": ("ms", lambda r: r.total_ms("grid.sbp_residual")),
    "verify.self_ms": ("ms", lambda r: r.layer_self_ms("verify")),
    # -> peak_rss_mb on pulse3d (bytes computed from the array sizes)
    "driver.history_mb": ("MB", lambda r: r.extra("driver.simulate") / 1e6),
    # -> solve_s on pulse3d
    "snapshot.write_ms": ("ms", lambda r: r.total_ms("snapshot.write_snapshot")),
    "snapshot.bytes": ("B", lambda r: r.extra("snapshot.write_snapshot")),
}

# Self time of every module (layer) of the solve phase: where the time of
# a workload goes, summing to the traced solve time.
MODULES = ("cli", "config", "diagnostics", "driver", "fluxes", "grid", "initial",
           "means", "mms", "rhs", "snapshot", "thermo", "timestep", "verify")
for _module in MODULES:
    LAYER_METRICS.setdefault(f"{_module}.self_ms",
                             ("ms", lambda r, m=_module: r.layer_self_ms(m)))

# Percentiles of the step time are reported only with at least ten samples
# beyond them; with fewer (pulse3d, verify) they read 0.
STEP_PERCENTILES = {"timestep.step_ms_p50": 50, "timestep.step_ms_p90": 90}


def import_times(stderr):
    """Cumulative import time in ms of the gasbox and sympy packages from
    ``python -X importtime``; a package not imported reads 0."""
    out = {"import.gasbox_ms": 0.0, "import.sympy_ms": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].strip()
        if name in ("gasbox", "sympy"):
            out[f"import.{name}_ms"] = int(parts[1]) / 1e3
    return out


def per_layer(runner, traced, untraced, import_ms):
    reps = [Rep(r) for r in traced]
    metrics = {name: (value, "ms") for name, value in import_ms.items()}
    for name, (unit, fn) in LAYER_METRICS.items():
        try:
            values = [fn(r) for r in reps]
        except Missing as exc:
            print(f"perfbench warning: {name} dropped: {exc} not found", file=sys.stderr)
            continue
        if name.endswith(("_calls", "_per_step", "_per_rhs", ".records", ".bytes")) and len(set(values)) > 1:
            runner.failures.append(f"count {name} differs between traced repetitions: {values}")
        metrics[name] = (statistics.median(values), unit)
    steps = sorted(1e3 * s for r in reps for s in r.trace["step_s"])
    for name, pct in STEP_PERCENTILES.items():
        beyond = len(steps) * (100 - pct) / 100
        value = 0.0
        if beyond >= 10:
            value = statistics.quantiles(steps, n=100)[pct - 1]
        metrics[name] = (value, "ms")
    metrics["trace.overhead_s"] = (
        statistics.median(r["solve_s"] for r in traced)
        - statistics.median(r["solve_s"] for r in untraced), "s")
    return metrics


def _final_output(workload, rep_dir, result):
    """What must be equal between an untraced and a traced run: the bytes
    of the final snapshot, or on ``verify`` (which writes no state) its
    printed report."""
    if workload == "verify":
        return result["stdout"].encode()
    return (rep_dir / "out" / "final.snap").read_bytes()


def measure_per_layer(runner):
    untraced, traced = [], []
    reference = None
    equal = True
    pair = 0
    while True:
        for trace, bucket in ((0, untraced), (1, traced)):
            result, rep_dir = runner.rep(f"pair-{pair:03d}-trace{trace}", trace=trace)
            if result is None:
                continue
            bucket.append(result)
            state = _final_output(runner.workload, rep_dir, result)
            if reference is None:
                reference = state
            elif state != reference:
                equal = False
                runner.failures.append(f"pair {pair} trace={trace}: final output differs "
                                       "from the first untraced one")
        pair += 1
        if not runner.fits(runner.durations, reps=2):
            break
    if not traced or not untraced:
        raise BenchError("no traced or no untraced repetition completed")
    samples = [import_times(runner.setup_probe(importtime=True)[1])
               for _ in range(IMPORTTIME_SAMPLES)]
    import_ms = {name: statistics.median(s[name] for s in samples) for name in samples[0]}
    return per_layer(runner, traced, untraced, import_ms), {
        "traced_repetitions": len(traced), "untraced_repetitions": len(untraced),
        "final_state_equal": equal}


# ---------------------------------------------------------------------------
# run context


def _read(path):
    try:
        return pathlib.Path(path).read_text().strip()
    except OSError:
        return None


def _git_sha():
    head = _read(ROOT / ".git" / "HEAD")
    if head is None:
        return "unknown (not a git checkout)"
    if head.startswith("ref: "):
        ref = head[5:]
        sha = _read(ROOT / ".git" / ref)
        if sha is None:
            packed = _read(ROOT / ".git" / "packed-refs") or ""
            sha = next((line.split()[0] for line in packed.splitlines()
                        if line.endswith(" " + ref)), "unknown")
        return sha
    return head


def _caches():
    out = {}
    base = pathlib.Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if kind == "Instruction":
            continue
        shared = _read(index / "shared_cpu_list") or ""
        out[f"L{level}"] = {"size": _read(index / "size"), "shared_cpu_list": shared}
    return out


def _size_bytes(text):
    units = {"K": 1024, "M": 1024**2, "G": 1024**3}
    if not text:
        return None
    return int(text[:-1]) * units[text[-1]] if text[-1] in units else int(text)


def run_context(workload, seed):
    import importlib.metadata
    import platform

    cpu = "unknown"
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = _caches()
    llc = max(caches, default=None)
    llc_bytes = _size_bytes(caches[llc]["size"]) if llc else None
    if workload == "pulse3d":
        inputs = {"choice": workloads.pulse_choice(seed),
                  **workloads.pulse_params(workloads.pulse_choice(seed)),
                  "n": workloads.PULSE_N, "steps": workloads.PULSE_STEPS}
        state = 5 * (workloads.PULSE_N + 1) ** 3 * 8
    elif workload == "mms1d":
        inputs = {**workloads.mms_params(seed), "n": workloads.MMS_N, "t_end": workloads.MMS_T_END}
        state = 5 * (workloads.MMS_N + 1) * 8
    else:
        inputs = {"verify_seed": workloads.verify_seed(seed)}
        state = 10**6 * 8  # one sample array of the full sweep
    return {
        "workload": workload, "seed": seed, "inputs": inputs,
        "nproc": os.cpu_count(), "cpu": cpu, "caches": caches,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "sympy": importlib.metadata.version("sympy"),
        "git_sha": _git_sha(),
        "state_bytes_computed": state,
        "state_vs_llc": (f"{state / llc_bytes:.3f} x LLC; "
                         + ("below 4 x LLC: bytes are computed from array sizes, no bandwidth claimed"
                            if state < 4 * llc_bytes else "at least 4 x LLC")) if llc_bytes else None,
    }


# ---------------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # On SIGTERM unwind like on Ctrl-C, so subprocess.run kills and reaps
    # the running worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))

    if not (ROOT / "src" / "gasbox" / "__init__.py").is_file():
        print(f"perfbench: no gasbox sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    compileall.compile_dir(str(ROOT / "src" / "gasbox"), quiet=1)
    shutil.rmtree(WORK / args.workload, ignore_errors=True)

    try:
        runner = Runner(args.workload, args.seed, args.seconds)
        if args.trace:
            metrics, info = measure_per_layer(runner)
        else:
            metrics, info = measure_end_to_end(runner, args.seconds)
    except (BenchError, ImportError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    context = run_context(args.workload, args.seed)
    context.update(info)
    context["failed_frac"] = runner.failed / runner.attempted
    print("context: " + json.dumps(context, sort_keys=True))
    for failure in runner.failures:
        print(f"check failed: {failure}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:<8} {name:<36} {value:>16.6g} {unit}")
    print(f"{args.workload:<8} {'failed_frac':<36} {runner.failed / runner.attempted:>16.6g} "
          f"({runner.failed}/{runner.attempted} repetitions)")
    print(json.dumps({
        "correct": runner.failed == 0 and not runner.failures,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
