"""Initial-condition presets.

Values are injected at the nodes (midpoint sampling of the control
volumes would change nothing at the method's formal accuracy); wall
momenta are zeroed afterwards, and the field is checked to be admissible
(positive, finite density, pressure and temperature) before it is returned.
"""

import numpy as np

from .diagnostics import totals
from .grid import build_grid
from .mms import mms_from_initial, mms_preset
from .rhs import apply_boundary_state
from .thermo import PositivityError, conserved_from_primitives, primitives_from_conserved

__all__ = ["initial_condition", "check_initial", "PRESETS"]


def _gaussian_bump(grid, width):
    """Product Gaussian over the active axes, peak 1 at the box center."""
    if not 0.0 < width < np.inf:
        raise ValueError("width must be positive and finite")
    # a huge width gives inf, a flat bump: not an OverflowError, and nothing to warn of
    with np.errstate(over="ignore"):
        two_w2 = 2.0 * np.float64(width) ** 2
    bump = np.ones(grid.shape)
    for ax in grid.active_axes:
        x = grid.nodes[ax].reshape([-1 if a == ax else 1 for a in range(3)])
        bump = bump * np.exp(-((x - 0.5 * grid.extent[ax]) ** 2) / two_w2)
    return bump


def _uniform_rest(grid, gas, rho=1.0, temperature=1.0):
    rho_f = np.full(grid.shape, float(rho))
    p = rho_f * gas.R * float(temperature)
    zero = np.zeros(grid.shape)
    return conserved_from_primitives(rho_f, (zero, zero, zero), p, gas)


def _gaussian_density_pulse(grid, gas, floor=1.0, amplitude=0.5, width=0.1, temperature=1.0):
    rho = float(floor) + float(amplitude) * _gaussian_bump(grid, float(width))
    p = rho * gas.R * float(temperature)
    zero = np.zeros(grid.shape)
    return conserved_from_primitives(rho, (zero, zero, zero), p, gas)


def _acoustic_pulse(grid, gas, rho=1.0, temperature=1.0, amplitude=0.1, width=0.1):
    # isentropic bump: p/rho^gamma uniform
    shape_fn = 1.0 + float(amplitude) * _gaussian_bump(grid, float(width))
    rho_f = float(rho) * shape_fn
    p0 = float(rho) * gas.R * float(temperature)
    p = p0 * shape_fn ** gas.gamma
    zero = np.zeros(grid.shape)
    return conserved_from_primitives(rho_f, (zero, zero, zero), p, gas)


def _thermal_spot(grid, gas, rho=1.0, temperature=1.0, amplitude=0.5, width=0.1):
    rho_f = np.full(grid.shape, float(rho))
    temp = float(temperature) + float(amplitude) * _gaussian_bump(grid, float(width))
    zero = np.zeros(grid.shape)
    return conserved_from_primitives(rho_f, (zero, zero, zero), rho_f * gas.R * temp, gas)


PRESETS = {
    "uniform_rest": _uniform_rest,
    "gaussian_density_pulse": _gaussian_density_pulse,
    "acoustic_pulse": _acoustic_pulse,
    "thermal_spot": _thermal_spot,
    "mms_wave": mms_preset,
}


def initial_condition(preset, grid, gas, **params):
    """Build the conserved initial field for a named preset.

    Raises ValueError for unknown presets or parameters that would make
    the state inadmissible (:func:`~gasbox.thermo.primitives_from_conserved`).
    """
    return _gated(dict(params, preset=preset), grid, gas)[0]


def _gated(initial, grid, gas):
    """``(u5, prim)`` of an ``[initial]`` block: the preset's conserved field
    with its boundary state, and the primitives of the admissibility gate,
    so a run's first record need not convert the field again."""
    preset = initial["preset"]
    try:
        builder = PRESETS[preset]
    except KeyError:
        raise ValueError(f"unknown initial preset {preset!r}") from None
    params = {k: v for k, v in initial.items() if k != "preset" and v is not None}
    try:
        u5 = builder(grid, gas, **params)
    except TypeError as exc:
        raise ValueError(f"bad parameters for preset {preset!r}: {exc}") from None
    u5 = apply_boundary_state(u5, grid)
    try:
        prim = primitives_from_conserved(u5, gas)
    except PositivityError as exc:
        raise ValueError(f"nonpositive or non-finite initial state: {exc}") from None
    return u5, prim


def check_initial(initial, grid_n, extent, gas):
    """Raise ValueError unless the preset of an ``[initial]`` block takes
    each of its keys, its own checks accept their values, the monitors
    of a diagnostics record of its state are finite and, for ``mms_wave``,
    its forcing is.

    The preset is built on the box with three nodes per active axis of
    ``grid_n``: the centre, the walls and the corners, where the product
    bumps of the Gaussian presets take their extremes, so a block that
    passes here yields an admissible field on every grid of that box.
    """
    # the checks report a rejected block; numpy's warnings would only repeat them
    with np.errstate(all="ignore"):
        probe = build_grid(tuple(2 if n else 0 for n in grid_n), extent)
        u5, prim = _gated(initial, probe, gas)
        record = totals(u5, probe, gas, prim=prim)
        if bad := record.nonfinite():
            raise ValueError(f"the monitors of the initial state overflow: {', '.join(bad)} not finite")
        if initial["preset"] == "mms_wave":
            # the state above is that of t = 0, where the wave's velocity
            # vanishes; the forcing's fit samples a whole period
            mms_from_initial(initial).source(gas)(probe, 0.0)
