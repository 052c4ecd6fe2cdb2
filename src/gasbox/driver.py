"""Shared batch-run driver used by the CLI, the convergence studies and
the acceptance tests."""

from dataclasses import dataclass, field

import numpy as np

from .diagnostics import totals
from .grid import build_grid
from .initial import initial_condition
from .mms import mms_from_initial
from .timestep import StepController, end_reached

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


def simulate(cfg, n_override=None, collect_history=False):
    """Advance a configured run to t_end.

    ``n_override`` replaces the grid resolution (used by grid sweeps);
    with ``collect_history`` the conserved field is stored at every
    diagnostics instant for the a priori norm report.
    """
    grid = build_grid(n_override if n_override is not None else cfg.grid_n, cfg.extent)
    gas = cfg.gas
    params = {k: v for k, v in cfg.initial.items() if k != "preset"}
    preset = cfg.initial["preset"]
    u = initial_condition(preset, grid, gas, **params)

    source = None
    if preset == "mms_wave":
        source = mms_from_initial(cfg.initial).source(gas)

    controller = StepController(grid, gas, cfg.solver, source=source)
    result = RunResult(grid=grid, state=u, t=0.0, steps=0)

    def record(u_now, t_now, dt=float("nan"), prim=None):
        result.records.append(totals(u_now, grid, gas, t=t_now, dt=dt, prim=prim))
        if collect_history:
            result.history.append((t_now, u_now.copy()))

    def on_step(u_new, t_new, dt_used, prim):
        # ``prim`` is not kept past the call: the step controller frees its
        # own reference while the next step's stages run.  The last step
        # records too, off cadence or not, from the primitives it computed.
        result.steps += 1
        if result.steps % cfg.cadence == 0 or end_reached(t_new, cfg.t_end):
            record(u_new, t_new, dt_used, prim)

    record(u, 0.0)
    u, t = controller.advance(u, 0.0, cfg.t_end, on_step=on_step)
    result.state = u
    result.t = t
    result.rejections = controller.rejections
    return result
