"""Shared batch-run driver used by the CLI, the convergence studies and
the acceptance tests."""

from dataclasses import dataclass, field

import numpy as np

from .diagnostics import apriori_nonfinite, apriori_sample, totals
from .grid import build_grid
from .initial import _gated
from .mms import mms_from_initial
from .timestep import RunAbort, StepController, end_reached

__all__ = ["RunResult", "mms_from_initial", "simulate"]


@dataclass
class RunResult:
    grid: object
    state: np.ndarray
    t: float
    steps: int
    records: list = field(default_factory=list)
    history: list = field(default_factory=list)
    rejections: int = 0


def simulate(cfg):
    """Advance a configured run to t_end; a record with a monitor that is
    not finite raises :class:`RunAbort`.  With ``cfg.apriori_report`` the
    history keeps (t, :func:`~gasbox.diagnostics.apriori_sample`) of each
    record, twelve numbers taken from the primitives the record reads; no
    field is kept, and a value that is not finite aborts like a monitor."""
    grid = build_grid(cfg.grid_n, cfg.extent)
    gas = cfg.gas
    u, prim = _gated(cfg.initial, grid, gas)

    source = None
    if cfg.initial["preset"] == "mms_wave":
        source = mms_from_initial(cfg.initial).source(gas)

    controller = StepController(grid, gas, cfg.solver, source=source)
    result = RunResult(grid=grid, state=u, t=0.0, steps=0)

    def record(u_now, t_now, dt, prim):
        with np.errstate(all="ignore"):  # the abort below reports an overflow
            rec = totals(u_now, grid, gas, t=t_now, dt=dt, prim=prim)
            sample = apriori_sample(prim, grid, rec) if cfg.apriori_report else ()
        if bad := rec.nonfinite() + apriori_nonfinite(sample):
            raise RunAbort(f"monitors not finite at t = {t_now:.6g}: {', '.join(bad)}", t_now, u_now)
        result.records.append(rec)
        if cfg.apriori_report:
            result.history.append((t_now, sample))

    def on_step(u_new, t_new, dt_used, prim):
        # ``prim`` is not kept past the call: the step controller frees its
        # own reference while the next step's stages run.  The last step
        # records too, off cadence or not, from the primitives it computed.
        result.steps += 1
        if result.steps % cfg.cadence == 0 or end_reached(t_new, cfg.t_end):
            record(u_new, t_new, dt_used, prim)

    record(u, 0.0, float("nan"), prim)
    del prim  # the loop converts the state again; the gate's node array would stay resident
    u, t = controller.advance(u, 0.0, cfg.t_end, on_step=on_step)
    result.state = u
    result.t = t
    result.rejections = controller.rejections
    return result
