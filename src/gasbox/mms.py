"""Manufactured smooth solution for convergence verification.

A one-dimensional analytic state compatible with the wall conditions is
chosen (velocity vanishes at the walls, density and temperature have zero
wall-normal gradient there), and the forcing that makes it an exact
solution of the governing system is derived symbolically with sympy (loaded
on first use) and compiled to numpy kernels.  The symbolic residual is
independent of the discrete operators, so it serves as an external oracle
for the spatial and temporal convergence studies.

The shapes

    rho = rho0 + a_rho cos(pi x/L) cos(omega t)
    u   =        a_vel sin(pi x/L) sin(omega t)
    T   = T0   + a_T   cos(2 pi x/L) cos(omega t)

additionally make every equation residual an even function of x at the
walls (and the momentum residual zero there), so the half-width wall
cells retain the interior's formal accuracy.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .thermo import conserved_from_primitives

__all__ = ["MMSWave", "mms_from_initial", "mms_preset"]


@dataclass(frozen=True)
class MMSWave:
    """Parameters of the manufactured wave (amplitudes keep rho, T > 0)."""

    rho0: float = 1.0
    rho_amp: float = 0.2
    temp0: float = 1.0
    temp_amp: float = 0.1
    vel_amp: float = 0.2
    omega: float = 2.0 * np.pi
    length: float = 1.0

    def __post_init__(self):
        if abs(self.rho_amp) >= self.rho0 or abs(self.temp_amp) >= self.temp0:
            raise ValueError("amplitudes must keep density and temperature positive")

    def conserved(self, grid, t, gas):
        """Exact conserved field sampled at the nodes."""
        rho, u, temp = _sample(_compiled_state(self, gas), grid, t, (0, 1, 2), 3)
        zero = np.zeros_like(rho)
        return conserved_from_primitives(rho, (u, zero, zero), rho * gas.R * temp, gas)

    def source(self, gas):
        """Forcing callable ``(grid, t) -> (5,) + grid.shape`` for the tendency."""
        kernel = _compiled_source(self, gas)

        def forcing(grid, t):
            return _sample(kernel, grid, t, (0, 1, 4), 5)

        return forcing


def mms_from_initial(params):
    """The wave of an ``[initial]`` parameter block: ``rho`` and
    ``temperature`` set its base state, ``preset`` and unset values are
    skipped, and any other key that is not an :class:`MMSWave` field
    raises ValueError."""
    renames = {"rho": "rho0", "temperature": "temp0"}
    kwargs = {renames.get(k, k): v for k, v in params.items() if k != "preset" and v is not None}
    try:
        return MMSWave(**kwargs)
    except TypeError as exc:
        raise ValueError(f"bad manufactured-wave parameters: {exc}") from None


def mms_preset(grid, gas, **params):
    """The ``mms_wave`` preset at t = 0.  The wave varies along x and is no-slip only
    at the x walls, so any grid but n = N 0 0 raises ValueError, before sympy runs."""
    wave = mms_from_initial(params)
    if grid.active_axes != (0,):
        raise ValueError(f"preset mms_wave needs the grid n = N 0 0, got active axes {grid.active_axes}")
    return wave.conserved(grid, 0.0, gas)


def _sample(kernel, grid, t, rows, n_rows):
    # row by row: a residual that is identically zero comes back as a scalar
    out = np.zeros((n_rows,) + grid.shape)
    for row, val in zip(rows, kernel(grid.nodes[0][:, None, None], t)):
        out[row] = val
    return out


@lru_cache(maxsize=None)
def _symbolic(ms, gas):
    import sympy as sp
    x, t = sp.symbols("x t", real=True)
    k = sp.pi / ms.length
    rho = ms.rho0 + ms.rho_amp * sp.cos(k * x) * sp.cos(ms.omega * t)
    u = ms.vel_amp * sp.sin(k * x) * sp.sin(ms.omega * t)
    temp = ms.temp0 + ms.temp_amp * sp.cos(2 * k * x) * sp.cos(ms.omega * t)

    gamma = sp.Float(gas.gamma)
    R = sp.Float(gas.R)
    p = rho * R * temp
    energy = p / (gamma - 1) + rho * u ** 2 / 2
    nu = sp.Float(gas.mu0) / rho + sp.Float(gas.mu1) * rho

    def residual(q, conv_flux, extra=0):
        return sp.diff(q, t) + sp.diff(conv_flux, x) - sp.diff(nu * sp.diff(q, x), x) - extra

    s_mass = residual(rho, rho * u)
    s_mom = residual(rho * u, rho * u ** 2 + p)
    s_energy = residual(energy, (energy + p) * u,
                        sp.diff(sp.Float(gas.kappa_r) * sp.diff(temp ** 4, x), x))
    return x, t, rho, u, temp, s_mass, s_mom, s_energy


@lru_cache(maxsize=None)
def _compiled_state(ms, gas):
    import sympy as sp
    x, t, rho, u, temp, *_ = _symbolic(ms, gas)
    return sp.lambdify((x, t), [rho, u, temp], "numpy", cse=True)


@lru_cache(maxsize=None)
def _compiled_source(ms, gas):
    # one kernel for all three rows, each shared subexpression computed once;
    # no simplify: it is expensive on the energy residual and buys nothing
    import sympy as sp
    x, t, _, _, _, s_mass, s_mom, s_energy = _symbolic(ms, gas)
    return sp.lambdify((x, t), [s_mass, s_mom, s_energy], "numpy", cse=True)
