"""One repetition of a benchmark workload, in a fresh interpreter.

Run by ``run.py``; not meant to be started by hand.  The worker

1. imports gasbox from ``src/`` of the checkout it lies in and sets up the
   problem through the public API (``parse_config``, ``build_grid``,
   ``initial_condition`` and, for the MMS wave, the first
   ``MMSWave.source`` compile, built by the driver's own
   ``mms_from_initial``): ``setup_s``;
2. runs the command a user runs (``gasbox run <cfg>`` or ``gasbox verify``)
   through ``gasbox.cli.main``, timing the time loop by a pass-through
   wrapper on ``StepController.advance``: ``solve_s`` runs from the first
   step to the written outputs;
3. writes its measurements as JSON to ``--result``.

With ``--meter`` a ``SpeedMeter`` runs from the start of the process to
the end of the command and the result also holds ``setup_ref_s``,
``solve_ref_s`` and ``loop_ref_s``: the same spans with the meter's own
time taken out, scaled to a reference host speed, and the median
slowness of the host against that speed.

With ``--trace 1`` every public gasbox function is wrapped by the tracer
first and the span summary is added to the result.
"""

import argparse
import contextlib
import io
import json
import marshal
import pathlib
import resource
import signal
import sys
import time

from tracer import Tracer, warn

ROOT = pathlib.Path(__file__).resolve().parent.parent

# Compiled source of 60 small functions: SpeedMeter.probe_unmarshal loads
# and runs it, the work an import does per module.
_PROBE_CODE = marshal.dumps(compile(
    "\n".join(f"def f{i}(x, y=({i}, 'a{i}')):\n    return [x * k for k in range({i} % 7)] + list(y)\n"
              for i in range(60)),
    "<speed probe>", "exec"))


class SpeedMeter:
    """Samples the speed of the core the program runs on, while it runs.

    The benchmark host is a shared VM whose speed moves by up to 2x within
    seconds with the neighbours' load, and CPU time moves with wall time
    (the slowdown is not stolen time).  Every ``PERIOD_S`` of wall time a
    SIGALRM handler times a fixed probe, interleaved with the program on
    its own core: ufunc calls on 257-element arrays, or, until
    ``numpy_ready`` is set (numpy fully imported), loading and running a
    marshalled module, as an import does.  Over repeated ``mms1d``
    repetitions the ufunc probe followed the program's slowdown far better
    than an interpreter loop, a pointer chase or a mix of sort/dict/str
    calls; over repeated ``verify`` set-ups the unmarshal probe followed
    the import better than the loop, page faults or dict building.  ``REF_S`` fixes each probe's time at the reference
    speed (a fixed choice: the host is often faster), and a sample's
    slowness is its time / ``REF_S``.  ``ref_seconds`` turns
    a wall span into the time the program would take at the reference
    speed: the handlers' own time is taken out and the rest is multiplied
    by the mean of 1 / slowness over the samples inside the span.  A
    program change moves the result; the host's speed moves it far less.

    The unmarshal probe needs only the builtin ``marshal``, so it is safe at
    any point of an import; no probe touches program state.
    """

    PERIOD_S = 0.02
    REF_S = {"unmarshal": 4.0e-4, "ufunc": 1.5e-4}
    UNMARSHAL_REPEAT = 2
    UFUNC_REPEAT = 12

    def __init__(self):
        self.numpy_ready = False
        self._small = None
        self.samples = []  # (start, slowness, handler seconds)

    def probe_unmarshal(self):
        t = time.perf_counter()
        for _ in range(self.UNMARSHAL_REPEAT):
            exec(marshal.loads(_PROBE_CODE), {})
        return time.perf_counter() - t

    def probe_ufunc(self):
        np = sys.modules["numpy"]
        if self._small is None:
            self._small = np.linspace(1.0, 2.0, 257)
        x = self._small
        t = time.perf_counter()
        for _ in range(self.UFUNC_REPEAT):
            y = np.log(x) * x - np.sqrt(x)
            np.where(y > 0.5, y, x).sum()
        return time.perf_counter() - t

    def _handler(self, signum, frame):
        t = time.perf_counter()
        if self.numpy_ready:
            slow = self.probe_ufunc() / self.REF_S["ufunc"]
        else:
            slow = self.probe_unmarshal() / self.REF_S["unmarshal"]
        self.samples.append((t, slow, time.perf_counter() - t))

    def start(self):
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def ref_seconds(self, t0, t1):
        """Seconds of program time between t0 and t1 at the reference speed."""
        inside = [(slow, h) for t, slow, h in self.samples if t0 <= t < t1]
        if not inside:
            raise SystemExit(f"speed meter: no probe between {t0} and {t1}")
        own = sum(h for _, h in inside)
        speed = sum(1.0 / slow for slow, _ in inside) / len(inside)
        return (t1 - t0 - own) * speed

    def median_slowness(self):
        return sorted(slow for _, slow, _ in self.samples)[len(self.samples) // 2]


def _parse_args():
    ap = argparse.ArgumentParser()
    ap.add_argument("--result", required=True)
    ap.add_argument("--config")
    ap.add_argument("--verify-seed", type=int)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--meter", action="store_true")
    return ap.parse_args()


def _time_the_loop(gasbox, marks):
    """Record when StepController.advance starts and ends; returns False if
    the method is gone, in which case solve_s starts at the command."""
    cls = getattr(gasbox.timestep, "StepController", None)
    advance = getattr(cls, "advance", None)
    if advance is None:
        warn("timestep.StepController.advance not found; the time loop is not timed apart")
        return False

    def timed_advance(self, *args, **kwargs):
        marks.setdefault("loop_start", time.perf_counter())
        try:
            return advance(self, *args, **kwargs)
        finally:
            marks["loop_end"] = time.perf_counter()

    cls.advance = timed_advance
    return True


def main():
    args = _parse_args()
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    meter = SpeedMeter() if args.meter else None
    if meter is not None:
        meter.start()

    t0 = time.perf_counter()
    import gasbox
    import gasbox.cli
    t_import = time.perf_counter() - t0
    if meter is not None:
        meter.numpy_ready = "numpy" in sys.modules
    if pathlib.Path(gasbox.__file__).resolve().parent != src / "gasbox":
        raise SystemExit(f"gasbox imported from {gasbox.__file__}, not from {src}")

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    result = {"import_s": t_import}
    if args.config:
        cfg = gasbox.parse_config(pathlib.Path(args.config).read_text(encoding="utf-8"))
        grid = gasbox.build_grid(cfg.grid_n, cfg.extent)
        params = {k: v for k, v in cfg.initial.items() if k != "preset"}
        gasbox.initial_condition(cfg.initial["preset"], grid, cfg.gas, **params)
        if cfg.initial["preset"] == "mms_wave":
            gasbox.driver.mms_from_initial(cfg.initial).source(cfg.gas)
        nodes = 1
        for n in grid.shape:
            nodes *= n
        result["nodes"] = nodes
    t_setup = time.perf_counter()
    result["setup_s"] = t_setup - t0

    if not args.setup_only:
        marks = {}
        loop_timed = _time_the_loop(gasbox, marks)
        if tracer is not None:
            tracer.phase = "solve"
        if args.config:
            argv = ["run", args.config]
        else:
            argv = ["verify", "--seed", str(args.verify_seed)]
        out = io.StringIO()
        t_cmd = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = gasbox.cli.main(argv)
        t_done = time.perf_counter()
        start = marks.get("loop_start", t_cmd) if loop_timed else t_cmd
        loop_end = marks.get("loop_end", t_done)
        result.update({
            "exit_code": code,
            "stdout": out.getvalue(),
            "solve_s": t_done - start,
            "loop_s": loop_end - start,
        })
        if meter is not None:
            meter.stop()
            result["solve_ref_s"] = meter.ref_seconds(start, t_done)
            result["loop_ref_s"] = meter.ref_seconds(start, loop_end)
        if tracer is not None:
            result["trace"] = tracer.summary(
                loop_name="timestep.StepController.advance",
                rhs_name="rhs.assemble_rhs",
                step_name="timestep.StepController.attempt_step")

    if meter is not None:
        meter.stop()
        result["setup_ref_s"] = meter.ref_seconds(t0, t_setup)
        result["slowness_median"] = meter.median_slowness()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
