"""Built-in property sweep: the structural guarantees of the scheme
checked on randomized samples, printable from the command line.

The sample ranges follow the admissible regime the analysis covers:
density and temperature log-uniform in [1e-3, 1e3], velocity components
uniform in [-10, 10].
"""

import numpy as np

from .diagnostics import (
    entropy_balance_residual,
    internal_energy_residual,
    ke_balance_residual,
    shuffle_gap_and_scale,
)
from .fluxes import LambdaVariant, convective_flux, density_jump_sensor, lambda_alt_coeffs
from .grid import build_grid, sbp_residual
from .means import arith_mean, geo_mean, log_mean, pair_means
from .rhs import apply_boundary_state, assemble_rhs, boundary_node_mask
from .thermo import GasParams, conserved_from_primitives, face_means, primitives

__all__ = ["random_states", "random_admissible_field", "run_verification"]


_RHO_RANGE = (1e-3, 1e3)
_TEMP_RANGE = (1e-3, 1e3)
_VEL_MAX = 10.0

# Pairs per face bundle in the million-pair sweep: a bundle of all pairs
# at once would set the sweep's peak memory.
_CHUNK = 10**5


def _draw_states(rng, shape, gas, rho_range=_RHO_RANGE, temp_range=_TEMP_RANGE, vel_max=_VEL_MAX):
    """(rho, velocity, p) sampled over the admissible ranges."""
    rho = np.exp(rng.uniform(np.log(rho_range[0]), np.log(rho_range[1]), shape))
    temp = np.exp(rng.uniform(np.log(temp_range[0]), np.log(temp_range[1]), shape))
    vel = tuple(rng.uniform(-vel_max, vel_max, shape) for _ in range(3))
    return rho, vel, rho * gas.R * temp


def random_states(rng, n, gas, rho_range=_RHO_RANGE, temp_range=_TEMP_RANGE, vel_max=_VEL_MAX):
    """Random admissible primitive states as one batch array."""
    return primitives(*_draw_states(rng, n, gas, rho_range, temp_range, vel_max), gas)


def random_admissible_field(rng, grid, gas, rho_range=_RHO_RANGE, temp_range=_TEMP_RANGE,
                            vel_max=_VEL_MAX):
    """Random conserved field with positive state and no-slip walls."""
    rho, vel, p = _draw_states(rng, grid.shape, gas, rho_range, temp_range, vel_max)
    return apply_boundary_state(conserved_from_primitives(rho, vel, p, gas), grid)


class _Report:
    def __init__(self):
        self.failures = 0

    def check(self, name, worst, bound, larger_is_worse=True):
        ok = worst <= bound if larger_is_worse else worst >= bound
        status = "ok" if ok else "FAIL"
        rel = "<=" if larger_is_worse else ">="
        print(f"  {name:<52} {status}  (worst {worst:.3e} {rel} {bound:.0e})")
        if not ok:
            self.failures += 1


def run_verification(seed=0, fast=False):
    """Run every randomized property check; returns True when all pass."""
    rng = np.random.default_rng(seed)
    gas = GasParams(gamma=1.4, R=1.0, mu0=0.01, mu1=1e-4, kappa_r=1e-6)
    n_pairs = 10**4 if fast else 10**6
    n_shuffle = 10**4 if fast else 10**5
    rep = _Report()
    print(f"gasbox verification sweep (seed={seed}, pairs={n_pairs})")

    # one function per group of checks, so each group's million-pair
    # arrays are freed before the next group draws its own
    _check_means(rep, rng, n_pairs)
    _check_flux_consistency(rep, rng, gas, n_pairs if fast else 10**4)
    _check_mass_flux_coefficients(rep, rng, gas, n_pairs)
    _check_shuffle_gaps(rep, rng, gas, n_shuffle)
    _check_field_identities(rep, rng, gas, 3 if fast else 10)
    _check_sbp(rep, rng, 100 if fast else 1000)

    if rep.failures:
        print(f"verification FAILED: {rep.failures} check(s)")
        return False
    print("verification passed")
    return True


def _check_means(rep, rng, n_pairs):
    """Mean algebra on pairs spanning ratios 1e-6..1e6, the sensor bounds
    and the product-average splitting identity."""
    a = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), n_pairs))
    ratio = np.exp(rng.uniform(np.log(1e-6), np.log(1e6), n_pairs))
    b = a * ratio
    am, lm, gm = arith_mean(a, b), log_mean(a, b), geo_mean(a, b)
    rep.check("mean ordering geo <= log <= arith", float(np.max(np.maximum(gm - lm, lm - am) / am)), 1e-15)
    rep.check("reciprocal ordering 1/geo >= 1/log >= 1/arith",
              float(np.max(np.maximum(1 / lm - 1 / gm, 1 / am - 1 / lm) * am)), 1e-15)
    nz = a != b
    half = np.abs(am - lm)[nz] / np.abs(b - a)[nz]
    rep.check("mean-vs-logmean jump ratio bounded by 1/2", float(np.max(half)), 0.5 + 1e-12)
    sensor = density_jump_sensor(pair_means(a, b, np.log(a), np.log(b)), LambdaVariant.FIRST_ORDER)
    rep.check("sensor dominates 1/2", float(np.min(sensor)), 0.5, larger_is_worse=False)
    dominated = np.maximum.reduce([
        np.full(n_pairs, 0.5),
        np.abs(b - a) / (12.0 * am),
        np.abs(np.sqrt(b) - np.sqrt(a)) / (2.0 * (np.sqrt(b) + np.sqrt(a))),
        0.5 * am * np.abs(b - a) / (a * a + a * b + b * b),
        np.abs(b - a) / lm,
    ])
    rep.check("sensor dominates all alternative jump ratios",
              float(np.max((dominated - sensor) / np.maximum(1.0, sensor))), 1e-14)

    # split-average identity on signed pairs; scale = largest term differenced
    sa = rng.uniform(-1e3, 1e3, n_pairs)
    sb = rng.uniform(-1e3, 1e3, n_pairs)
    ta = rng.uniform(-1e3, 1e3, n_pairs)
    tb = rng.uniform(-1e3, 1e3, n_pairs)
    lhs = 0.5 * (sa * ta + sb * tb)
    rhs = arith_mean(sa, sb) * arith_mean(ta, tb) + 0.25 * (sb - sa) * (tb - ta)
    scale = np.maximum.reduce([np.ones(n_pairs), np.abs(sa * ta), np.abs(sb * tb),
                               np.abs(rhs - 0.25 * (sb - sa) * (tb - ta)),
                               np.abs(0.25 * (sb - sa) * (tb - ta))])
    rep.check("product-average splitting identity", float(np.max(np.abs(lhs - rhs) / scale)), 1e-15)


def _check_flux_consistency(rep, rng, gas, n_states):
    """Two-point flux consistency at equal states."""
    states = random_states(rng, n_states, gas)
    worst = 0.0
    for ax in range(3):
        flux = convective_flux(face_means(ax, states, states), gas)
        un = states.vel[ax]
        exact = np.stack([
            states.rho * un,
            states.rho * states.vel[0] * un + (states.p if ax == 0 else 0.0),
            states.rho * states.vel[1] * un + (states.p if ax == 1 else 0.0),
            states.rho * states.vel[2] * un + (states.p if ax == 2 else 0.0),
            (states.p / (gas.gamma - 1.0) + 0.5 * states.rho * states.speed_sq + states.p) * un,
        ])
        scale = np.maximum(1.0, np.abs(exact))
        worst = max(worst, float(np.max(np.abs(flux - exact) / scale)))
    rep.check("two-point flux consistency at equal states", worst, 1e-13)


def _check_mass_flux_coefficients(rep, rng, gas, n_pairs):
    """Positivity of the rewritten mass-flux coefficients."""
    left = _draw_states(rng, n_pairs, gas)
    right = _draw_states(rng, n_pairs, gas)
    worst_a = worst_c = np.inf
    for lo in range(0, n_pairs, _CHUNK):
        chunk = slice(lo, lo + _CHUNK)
        faces = face_means(0, *(primitives(rho[chunk], tuple(c[chunk] for c in vel), p[chunk], gas)
                                for rho, vel, p in (left, right)))
        for variant in LambdaVariant:
            lam_a, lam_c = lambda_alt_coeffs(faces, variant, gas)
            worst_a = min(worst_a, float(np.min(lam_a)))
            worst_c = min(worst_c, float(np.min(lam_c)))
    rep.check("rewritten coefficient (arith form) nonnegative", worst_a, -1e-15, larger_is_worse=False)
    rep.check("rewritten coefficient (geo form) nonnegative", worst_c, -1e-15, larger_is_worse=False)


def _check_shuffle_gaps(rep, rng, gas, n_shuffle):
    """Face entropy inequality on random pairs, both sensors."""
    for variant in LambdaVariant:
        worst = np.inf
        for ax in range(3):
            faces = face_means(ax, random_states(rng, n_shuffle, gas), random_states(rng, n_shuffle, gas))
            gap, scale = shuffle_gap_and_scale(faces, variant, gas)
            worst = min(worst, float(np.min(gap / scale)))
        rep.check(f"face entropy inequality gap ({variant.value})", worst, -1e-12, larger_is_worse=False)


def _check_field_identities(rep, rng, gas, fields):
    """Balance identities and conservation on random admissible fields."""
    worst_ke = worst_ie = worst_ent = 0.0
    worst_cons = 0.0
    for n in (4, 8):
        grid = build_grid((n, n, n))
        for _ in range(fields):
            u5 = random_admissible_field(rng, grid, gas)
            worst_ke = max(worst_ke, ke_balance_residual(u5, grid, gas))
            worst_ie = max(worst_ie, internal_energy_residual(u5, grid, gas))
            resid, production, _, _ = entropy_balance_residual(u5, grid, gas)
            worst_ent = max(worst_ent, resid)
            if production > 1e-11 * max(1.0, abs(production)):
                worst_ent = np.inf
            tend = assemble_rhs(u5, grid, gas)
            vol = grid.cell_volumes
            flux_scale = max(1.0, float(np.sum(vol * np.abs(tend[0]))), float(np.sum(vol * np.abs(tend[4]))))
            worst_cons = max(worst_cons,
                             abs(float(np.sum(vol * tend[0]))) / flux_scale,
                             abs(float(np.sum(vol * tend[4]))) / flux_scale)
            if np.any(tend[1:4][:, boundary_node_mask(grid)] != 0.0):
                worst_cons = np.inf
    rep.check("kinetic-energy balance residual", worst_ke, 1e-11)
    rep.check("internal-energy balance residual", worst_ie, 1e-10)
    rep.check("entropy balance residual / sign", worst_ent, 1e-10)
    rep.check("mass/energy tendency totals / wall momentum rows", worst_cons, 1e-13)


def _check_sbp(rep, rng, samples):
    """Summation-by-parts identity on random nodal and face fields."""
    grid = build_grid((8, 8, 8))
    worst = 0.0
    for _ in range(samples):
        a = rng.uniform(1.0, 2.0, grid.shape)
        for ax in range(3):
            shape = list(grid.shape)
            shape[ax] += 1
            b = rng.uniform(1.0, 2.0, shape)
            scale = float(np.max(np.abs(a)) * np.max(np.abs(b)) * grid.shape[ax]) * grid.shape[0] ** 2
            worst = max(worst, sbp_residual(a, b, grid, ax) / scale)
    rep.check("summation-by-parts identity residual", worst, 1e-13)
