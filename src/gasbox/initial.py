"""Initial-condition presets.

Values are injected at the nodes (midpoint sampling of the control
volumes would change nothing at the method's formal accuracy); wall
momenta are zeroed afterwards, and the field is checked to be admissible
(positive, finite density, pressure and temperature) before it is returned.
"""

import numpy as np

from .grid import build_grid
from .mms import mms_preset
from .rhs import apply_boundary_state
from .thermo import PositivityError, check_admissible, conserved_from_primitives

__all__ = ["initial_condition", "check_initial", "PRESETS"]


def _node_mesh(grid):
    x = grid.nodes[0][:, None, None]
    y = grid.nodes[1][None, :, None]
    z = grid.nodes[2][None, None, :]
    return x, y, z


def _gaussian_bump(grid, width):
    """Product Gaussian over the active axes, peak 1 at the box center."""
    if not 0.0 < width < np.inf:
        raise ValueError("width must be positive and finite")
    # a huge width gives inf, a flat bump: not an OverflowError, and nothing to warn of
    with np.errstate(over="ignore"):
        two_w2 = 2.0 * np.float64(width) ** 2
    bump = np.ones(grid.shape)
    mesh = _node_mesh(grid)
    for ax in grid.active_axes:
        c = 0.5 * grid.extent[ax]
        bump = bump * np.exp(-((mesh[ax] - c) ** 2) / two_w2)
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
    the state inadmissible (:func:`~gasbox.thermo.check_admissible`).
    """
    try:
        builder = PRESETS[preset]
    except KeyError:
        raise ValueError(f"unknown initial preset {preset!r}") from None
    params = {k: v for k, v in params.items() if v is not None}
    try:
        u5 = builder(grid, gas, **params)
    except TypeError as exc:
        raise ValueError(f"bad parameters for preset {preset!r}: {exc}") from None
    u5 = apply_boundary_state(u5, grid)
    kinetic = 0.5 * (u5[1] ** 2 + u5[2] ** 2 + u5[3] ** 2) / u5[0]
    try:
        check_admissible(u5[0], (gas.gamma - 1.0) * (u5[4] - kinetic), gas)
    except PositivityError as exc:
        raise ValueError(f"nonpositive or non-finite initial state: {exc}") from None
    return u5


def check_initial(initial, grid_n, extent, gas):
    """Raise ValueError unless the preset of an ``[initial]`` block takes
    each of its keys and its own checks accept their values.

    The preset is built on the box with three nodes per active axis of
    ``grid_n``: the centre, the walls and the corners, where the product
    bumps of the Gaussian presets take their extremes, so a block that
    passes here yields an admissible field on every grid of that box.
    """
    params = {k: v for k, v in initial.items() if k != "preset"}
    # the admissibility check reports a rejected block; numpy's warnings would only repeat it
    with np.errstate(all="ignore"):
        probe = build_grid(tuple(2 if n else 0 for n in grid_n), extent)
        initial_condition(initial["preset"], probe, gas, **params)
