"""Explicit time advancement: CFL-limited step size, SSP three-stage
Runge-Kutta, and positivity-based step rejection.

The spatial scheme is advanced with the optimal three-stage, third-order
strong-stability-preserving Runge-Kutta method (a convex combination of
forward-Euler substeps), written in increment form

    u1     = u + dt k1,                 k1 = L(u,  t)
    u2     = u + dt (k1 + k2) / 4,      k2 = L(u1, t + dt)
    u_next = u + dt (k1 + k2 + 4 k3)/6, k3 = L(u2, t + dt/2).

A positivity fault in any stage (or in the final state) rejects the step;
the controller retries with dt/2 up to a bounded number of times and
aborts the run if that fails.  k1 does not depend on dt, so the controller
evaluates it once per step, derives dt from the same primitives and face
diffusion coefficients, and reuses k1 across rejections.
"""

from dataclasses import dataclass

import numpy as np

from .fluxes import LambdaVariant, diffusion_coeffs
from .rhs import assemble_rhs, face_blocks
from .thermo import PositivityError, primitives_from_conserved

__all__ = [
    "SolverParams",
    "RunAbort",
    "stable_dt",
    "end_reached",
    "ssprk3_step",
    "StepController",
]


@dataclass
class SolverParams:
    """Numerical controls of a run."""

    cfl: float = 0.5
    lambda_variant: LambdaVariant = LambdaVariant.FIRST_ORDER
    dt_min: float = 1.0e-12
    max_rejects: int = 12

    def __post_init__(self):
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError("cfl must lie in (0, 1]")
        if not 0.0 < self.dt_min < np.inf:
            raise ValueError("dt_min must be positive and finite")
        if self.max_rejects < 0:
            raise ValueError("max_rejects must be nonnegative")


class RunAbort(Exception):
    """Unrecoverable failure; carries the last good state for a dump."""

    def __init__(self, message, t, state):
        self.t = t
        self.state = state
        super().__init__(message)


def _step_limit(prim, tilde_nu_max, grid, gas, params):
    """CFL-scaled step from primitives and the largest face tilde-nu."""
    sound = np.sqrt(gas.gamma * gas.R * prim.T)
    dt = min(grid.spacing[ax] / np.max(np.abs(prim.vel[ax]) + sound) for ax in grid.active_axes)
    h_min = min(grid.spacing[ax] for ax in grid.active_axes)
    diff_max = tilde_nu_max
    if gas.kappa_r > 0.0:
        rad = 4.0 * gas.kappa_r * prim.T ** 3 / (gas.c_v * prim.rho)
        diff_max = max(diff_max, float(np.max(rad)))
    if diff_max > 0.0:
        dt = min(dt, h_min * h_min / (2.0 * len(grid.active_axes) * diff_max))
    return params.cfl * dt


def stable_dt(u5, grid, gas, params):
    """Largest stable explicit step, scaled by the CFL number.

    Convective limit h/(|v_n| + c) per axis with c = sqrt(gamma R T);
    diffusive limit h^2/(2 dim D) with D the largest of the combined face
    diffusion coefficients and the radiative temperature diffusivity
    4 kappa_r T^3 / (c_v rho).
    """
    prim = primitives_from_conserved(np.asarray(u5, dtype=float), gas)
    tilde_nu_max = max(
        float(np.max(diffusion_coeffs(face, grid.spacing[face.axis], params.lambda_variant,
                                      gas).tilde_nu))
        for face, _ in face_blocks(prim, grid))
    return _step_limit(prim, tilde_nu_max, grid, gas, params)


def end_reached(t, t_end):
    """True once ``t`` is within rounding of ``t_end``, where a run stops."""
    return t >= t_end - 1e-14 * max(1.0, abs(t_end))


def ssprk3_step(u, dt, t, rhs, k1=None):
    """One SSP-RK3 step of du/dt = rhs(u, t).

    ``k1``, if given, is rhs(u, t) evaluated beforehand.  ``u`` and ``k1``
    are never written, so a rejected step can be retried with both; k1 + k2
    is formed once, and the last stage is combined in place in the arrays
    rhs returned for k2 and k3 (rhs must return a new array per call).  The
    operations and their order are those of the increment form above.
    """
    if k1 is None:
        k1 = rhs(u, t)
    u1 = dt * k1
    u1 += u
    k12 = rhs(u1, t + dt)  # k2, then k1 + k2
    del u1
    k12 += k1
    u2 = (0.25 * dt) * k12
    u2 += u
    k3 = rhs(u2, t + 0.5 * dt)
    del u2
    k3 *= 2.0 / 3.0
    k12 *= 1.0 / 6.0
    k12 += k3
    del k3
    k12 *= dt
    k12 += u
    return k12


class StepController:
    """Owns the state between steps; rejects and halves on positivity faults."""

    def __init__(self, grid, gas, params, source=None):
        self.grid = grid
        self.gas = gas
        self.params = params
        self.source = source
        self.rejections = 0

    def _rhs(self, u, t, prim=None, on_block=None):
        return assemble_rhs(u, self.grid, self.gas, self.params.lambda_variant,
                            source=self.source, t=t, prim=prim, on_block=on_block)

    def first_stage(self, u, t, prim):
        """k1 = L(u, t) and :func:`stable_dt` of ``u``, both from the
        primitives ``prim`` of ``u`` and the same face bundles."""
        block_max = []

        def on_block(face, index, flux, coeffs):
            block_max.append(float(np.max(coeffs.tilde_nu)))

        k1 = self._rhs(u, t, prim=prim, on_block=on_block)
        return k1, _step_limit(prim, max(block_max), self.grid, self.gas, self.params)

    def attempt_step(self, u, t, dt, k1=None):
        """Advance one step, halving dt on positivity faults.

        ``k1``, the tendency at (u, t) if known, is reused by every retry.
        Returns (u_new, dt_used, primitives of u_new).  Raises
        :class:`RunAbort` when the step cannot be completed within the
        rejection budget, :class:`PositivityError` when ``u`` is not
        admissible.
        """
        if k1 is None:
            k1 = self._rhs(u, t)
        for _ in range(self.params.max_rejects + 1):
            try:
                u_new = ssprk3_step(u, dt, t, self._rhs, k1=k1)
                return u_new, dt, primitives_from_conserved(u_new, self.gas)
            except PositivityError:
                self.rejections += 1
                dt *= 0.5
                if dt < self.params.dt_min:
                    break
        raise RunAbort(f"positivity could not be restored at t = {t:.6g}", t, u)

    def advance(self, u, t, t_end, on_step=None):
        """Run to t_end; ``on_step(u, t, dt, prim)`` fires after each accepted
        step with the state's primitives; the last step is the one after
        which :func:`end_reached` holds.  Raises :class:`RunAbort` when the
        step limit falls below ``params.dt_min``, as the run would crawl."""
        prim = primitives_from_conserved(u, self.gas)
        while not end_reached(t, t_end):
            k1, dt = self.first_stage(u, t, prim)
            del prim  # the later stages do not read it; free it while they run
            if dt < self.params.dt_min:
                raise RunAbort(f"step limit {dt:.3g} below dt_min = {self.params.dt_min:.3g}"
                               f" at t = {t:.6g}", t, u)
            u, dt_used, prim = self.attempt_step(u, t, min(dt, t_end - t), k1=k1)
            t += dt_used
            if on_step is not None:
                on_step(u, t, dt_used, prim)
        return u, t
