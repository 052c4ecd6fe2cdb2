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

In theta = omega t, rho and T are affine in cos(theta), u is a multiple of
sin(theta), and the only denominators, rho and rho^2, come from nu = mu0/rho
+ mu1 rho: rho^2 times each residual is a trigonometric polynomial of degree
<= 6 (reached by rho^2 times mu1 rho E_x, kappa_r (T^4)_x and ((E + p) u)_x),
fitted per node once per grid (:func:`_fit`).
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
        fields = _compiled_state(self, gas)(grid.nodes[0][:, None, None], t)
        rho, u, temp = (np.broadcast_to(v, grid.shape) for v in fields)
        zero = np.zeros(grid.shape)
        return conserved_from_primitives(rho, (u, zero, zero), rho * gas.R * temp, gas)

    def source(self, gas):
        """Forcing callable ``forcing(grid, t)`` for the tendency: the rows
        ``(5,) + grid.shape`` at the time ``t``.  After the fit on a grid's
        first call, a call is one matrix-vector product and one division."""
        kernel = _compiled_source(self, gas)
        fits = {}  # id(grid) -> (grid, its fit); holding the grid keeps its id

        def forcing(grid, t):
            if id(grid) not in fits:
                fits[id(grid)] = grid, _fit(kernel, self, gas, grid.nodes[0])
            rows = _rows(fits[id(grid)][1], self.omega * t).reshape(3, -1, 1, 1)
            out = np.zeros((5,) + grid.shape)
            out[:2], out[4] = rows[:2], rows[2]  # slices: cheaper than out[[0, 1, 4]]
            return out

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
    at its walls x = 0 and x = ``length``, so any grid but n = N 0 0, and any box
    whose x extent is not that length, raises ValueError, before sympy runs."""
    wave = mms_from_initial(params)
    if grid.active_axes != (0,):
        raise ValueError(f"preset mms_wave needs the grid n = N 0 0, got active axes {grid.active_axes}")
    if grid.extent[0] != wave.length:
        raise ValueError(f"preset mms_wave needs the box extent {wave.length:g} along x, "
                         f"the wave's length, got extent {grid.extent[0]:g}")
    return wave.conserved(grid, 0.0, gas)


# 16 equally spaced angles, at which a real DFT recovers the harmonics 0..6
# exactly, then three guard angles between samples
_HARMONICS = 1j * np.arange(7)
_ANGLES = 2.0 * np.pi / 16 * np.r_[np.arange(16), 0.5, 5.5, 10.5]


def _basis(theta):
    """cos(j theta), sin(j theta) for j = 0..6 (sin 0 too), interleaved."""
    return np.exp(np.multiply.outer(theta, _HARMONICS)).view(float)


def _rows(coeffs, theta):
    """The mass, momentum and energy rows of a fit at the angle ``theta``."""
    num = (_basis(theta) @ coeffs).reshape(4, -1)
    return num[:3] / num[3]


def _fit(kernel, ms, gas, x):
    """Coefficients in :func:`_basis` ``(14, 4 x.size)`` of rho^2 times each
    residual and of rho^2 at ``x``, from one kernel call (at t = 0 if |omega|
    <= 1e-300, below which omega t is rounding for any t < 1e10).
    ValueError if a sample overflows, as the wave's amplitudes then do;
    RuntimeError if a guard angle misses the kernel by more than rounding
    times the fit's conditioning (rho_max / rho_min)^2."""
    times = (_ANGLES / ms.omega if abs(ms.omega) > 1e-300 else 0.0 * _ANGLES)[:, None]
    shape = (_ANGLES.size, x.size)
    res = np.stack([np.broadcast_to(r, shape) for r in kernel(x, times)], axis=1)
    rho2 = np.broadcast_to(_compiled_state(ms, gas)(x, times)[0] ** 2, shape)[:, None]
    samples = np.concatenate([res * rho2, rho2], axis=1)
    if not np.all(np.isfinite(samples)):
        raise ValueError("the manufactured forcing overflows: a sample of its kernel is not finite")
    samples = samples[:16].reshape(16, -1)
    coeffs = (_basis(_ANGLES[:16]) * np.r_[1.0, 1.0, np.full(12, 2.0)] / 16).T @ samples
    fitted = np.array([_rows(coeffs, ms.omega * tk) for tk in times[16:, 0]])
    miss = np.max(np.abs(fitted - res[16:]), axis=(0, 2))
    if not np.all(miss <= 1e-12 * (rho2.max() / rho2.min()) * np.max(np.abs(res), axis=(0, 2))):
        raise RuntimeError(f"the manufactured forcing times rho^2 is not a trigonometric "
                           f"polynomial of degree 6 in omega t: the fit misses it by {miss}")
    return coeffs


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
