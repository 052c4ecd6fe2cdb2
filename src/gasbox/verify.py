"""Built-in property sweep: the structural guarantees of the scheme
checked on randomized samples, printable from the command line.

The sample ranges follow the admissible regime the analysis covers:
density and temperature log-uniform in [1e-3, 1e3], velocity components
uniform in [-10, 10].
"""

import numpy as np

from .diagnostics import balance_residuals, shuffle_gap_and_scale
from .fluxes import LambdaVariant, convective_flux, density_jump_sensor, lambda_alt_coeffs
from .grid import build_grid, sbp_residual
from .means import arith_mean, geo_mean, log_mean, pair_means, split_average_residual
from .rhs import apply_boundary_state
from .thermo import GasParams, conserved_from_primitives, face_means, primitives

__all__ = ["BOUNDS", "within_bound", "random_states", "random_admissible_field", "run_verification",
           "check_means", "check_flux_consistency", "check_mass_flux_coefficients",
           "check_shuffle_gaps", "check_field_identities", "check_sbp"]

# check name -> (bound, relation the worst sample must satisfy); the only
# place a bound of the sweeps is written, read by ``gasbox verify`` and by
# the acceptance tests alike
BOUNDS = {
    "mean ordering geo <= log <= arith": (1e-15, "<="),
    "reciprocal ordering 1/geo >= 1/log >= 1/arith": (1e-15, "<="),
    "mean-vs-logmean jump ratio bounded by 1/2": (0.5 + 1e-12, "<="),
    "sensor dominates 1/2": (0.5, ">="),
    "sensor dominates all alternative jump ratios": (1e-15, "<="),
    "product-average splitting identity": (1e-15, "<="),
    "two-point flux consistency at equal states": (1e-13, "<="),
    "rewritten coefficient (arith form) nonnegative": (-1e-15, ">="),
    "rewritten coefficient (geo form) nonnegative": (-1e-15, ">="),
    "face entropy inequality gap (first-order)": (-1e-12, ">="),
    "face entropy inequality gap (second-order)": (-1e-12, ">="),
    "kinetic-energy balance residual": (1e-11, "<="),
    "internal-energy balance residual": (1e-10, "<="),
    "entropy balance residual / sign": (1e-10, "<="),
    "mass/energy tendency totals / wall momentum rows": (1e-13, "<="),
    "summation-by-parts identity residual": (1e-13, "<="),
}


_RHO_RANGE = (1e-3, 1e3)
_TEMP_RANGE = (1e-3, 1e3)
_VEL_MAX = 10.0

# Pairs per chunk of the million-pair checks, reduced one chunk at a time:
# temporaries of all pairs at once would set the sweep's peak memory.
_CHUNK = 1 << 15


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


def within_bound(name, worst):
    """Whether a group's worst sample of check ``name`` meets its bound."""
    bound, rel = BOUNDS[name]
    return worst <= bound if rel == "<=" else worst >= bound


def run_verification(seed=0, fast=False):
    """Run every randomized property check; returns True when all pass."""
    rng = np.random.default_rng(seed)
    gas = GasParams(gamma=1.4, R=1.0, mu0=0.01, mu1=1e-4, kappa_r=1e-6)
    n_pairs = 10**4 if fast else 10**6
    fields = 3 if fast else 10
    print(f"gasbox verification sweep (seed={seed}, pairs={n_pairs})")

    # one function per group of checks, so each group's million-pair
    # arrays are freed before the next group draws its own
    groups = ((check_means, n_pairs),
              (check_flux_consistency, n_pairs if fast else 10**4),
              (check_mass_flux_coefficients, n_pairs),
              (check_shuffle_gaps, 10**4 if fast else 10**5),
              (check_field_identities, ((4, fields), (8, fields))),
              (check_sbp, 100 if fast else 1000))
    failures = 0
    for group, sizes in groups:
        for name, worst in group(rng, gas, sizes).items():
            bound, rel = BOUNDS[name]
            ok = within_bound(name, worst)
            failures += not ok
            print(f"  {name:<52} {'ok' if ok else 'FAIL'}  (worst {worst:.3e} {rel} {bound:.0e})")

    if failures:
        print(f"verification FAILED: {failures} check(s)")
        return False
    print("verification passed")
    return True


def _worst_of(parts):
    """Merge the worst samples of several chunks of one check group: the
    largest for a bound from above, the smallest for one from below (a
    NaN in any chunk stays NaN)."""
    return {name: float((np.max if BOUNDS[name][1] == "<=" else np.min)([part[name] for part in parts]))
            for name in parts[0]}


def check_means(rng, gas, n_pairs):
    """Mean algebra on pairs spanning ratios 1e-6..1e6, the sensor bounds
    and the product-average splitting identity (``gas`` is not used)."""
    a = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), n_pairs))
    ratio = np.exp(rng.uniform(np.log(1e-6), np.log(1e6), n_pairs))
    # signed pairs of the split-average identity
    sa, sb, ta, tb = (rng.uniform(-1e3, 1e3, n_pairs) for _ in range(4))
    return _worst_of([_means_worst(*(v[lo:lo + _CHUNK] for v in (a, ratio, sa, sb, ta, tb)))
                      for lo in range(0, n_pairs, _CHUNK)])


def _means_worst(a, ratio, sa, sb, ta, tb):
    """The worst samples of :func:`check_means` on one chunk of its pairs."""
    b = a * ratio
    am, lm, gm = arith_mean(a, b), log_mean(a, b), geo_mean(a, b)
    nz = a != b
    sensor = density_jump_sensor(pair_means(a, b, np.log(a), np.log(b)), LambdaVariant.FIRST_ORDER)
    dominated = np.maximum.reduce([
        np.full(a.size, 0.5),
        np.abs(b - a) / (12.0 * am),
        np.abs(np.sqrt(b) - np.sqrt(a)) / (2.0 * (np.sqrt(b) + np.sqrt(a))),
        0.5 * am * np.abs(b - a) / (a * a + a * b + b * b),
        np.abs(b - a) / lm,
    ])
    # split-average identity; scale = largest term differenced
    scale = np.maximum.reduce([np.ones(a.size), np.abs(sa * ta), np.abs(sb * tb),
                               np.abs(arith_mean(sa, sb) * arith_mean(ta, tb)),
                               np.abs(0.25 * (sb - sa) * (tb - ta))])
    return {
        "mean ordering geo <= log <= arith": float(np.max(np.maximum(gm - lm, lm - am) / am)),
        "reciprocal ordering 1/geo >= 1/log >= 1/arith":
            float(np.max(np.maximum(1 / lm - 1 / gm, 1 / am - 1 / lm) * am)),
        "mean-vs-logmean jump ratio bounded by 1/2":
            float(np.max(np.abs(am - lm)[nz] / np.abs(b - a)[nz])),
        "sensor dominates 1/2": float(np.min(sensor)),
        "sensor dominates all alternative jump ratios":
            float(np.max((dominated - sensor) / np.maximum(1.0, sensor))),
        "product-average splitting identity":
            float(np.max(split_average_residual((sa, sb), (ta, tb)) / scale)),
    }


def check_flux_consistency(rng, gas, n_states):
    """Two-point flux consistency at equal states."""
    states = random_states(rng, n_states, gas)
    worst = 0.0
    for ax in range(3):
        flux = convective_flux(face_means(ax, states, states), gas)
        un = states.vel[ax]
        exact = np.concatenate([
            [states.rho * un],
            states.rho * states.vel * un,
            [(states.p / (gas.gamma - 1.0) + 0.5 * states.rho * states.speed_sq + states.p) * un],
        ])
        exact[ax + 1] += states.p
        scale = np.maximum(1.0, np.abs(exact))
        worst = max(worst, float(np.max(np.abs(flux - exact) / scale)))
    return {"two-point flux consistency at equal states": worst}


def check_mass_flux_coefficients(rng, gas, n_pairs):
    """Positivity of the rewritten mass-flux coefficients."""
    left = _draw_states(rng, n_pairs, gas)
    right = _draw_states(rng, n_pairs, gas)
    worst = []
    for lo in range(0, n_pairs, _CHUNK):
        chunk = slice(lo, lo + _CHUNK)
        faces = face_means(0, *(primitives(rho[chunk], tuple(c[chunk] for c in vel), p[chunk], gas)
                                for rho, vel, p in (left, right)))
        for variant in LambdaVariant:
            lam_a, lam_c = lambda_alt_coeffs(faces, variant, gas)
            worst.append({"rewritten coefficient (arith form) nonnegative": float(np.min(lam_a)),
                          "rewritten coefficient (geo form) nonnegative": float(np.min(lam_c))})
    return _worst_of(worst)


def check_shuffle_gaps(rng, gas, n_pairs):
    """Face entropy inequality on random pairs, both sensors."""
    worst = {}
    for variant in LambdaVariant:
        name = f"face entropy inequality gap ({variant.value})"
        worst[name] = np.inf
        for ax in range(3):
            faces = face_means(ax, random_states(rng, n_pairs, gas), random_states(rng, n_pairs, gas))
            gap, scale = shuffle_gap_and_scale(faces, variant, gas)
            worst[name] = min(worst[name], float(np.min(gap / scale)))
            # free the bundle before the next draw; gap and scale stay, as freeing
            # them too returns the heap's top to the system, to be faulted in again
            del faces
    return worst


def check_field_identities(rng, gas, sizes):
    """Balance identities and conservation on random admissible fields;
    ``sizes`` lists ``(n, count)``: ``count`` fields on an n^3 grid each."""
    worst_ke = worst_ie = worst_ent = 0.0
    worst_cons = 0.0
    for n, count in sizes:
        grid = build_grid((n, n, n))
        vol = grid.cell_volumes
        for _ in range(count):
            r = balance_residuals(random_admissible_field(rng, grid, gas), grid, gas)
            worst_ke, worst_ie = max(worst_ke, r.ke), max(worst_ie, r.ie)
            worst_ent = max(worst_ent, r.entropy)
            if r.production > 1e-11 * max(1.0, abs(r.production)):
                worst_ent = np.inf
            tend = r.tend
            flux_scale = max(1.0, float(np.sum(vol * np.abs(tend[0]))), float(np.sum(vol * np.abs(tend[4]))))
            worst_cons = max(worst_cons,
                             abs(float(np.sum(vol * tend[0]))) / flux_scale,
                             abs(float(np.sum(vol * tend[4]))) / flux_scale)
            if np.any(tend[1:4][:, grid.wall_mask] != 0.0):
                worst_cons = np.inf
    return {"kinetic-energy balance residual": worst_ke,
            "internal-energy balance residual": worst_ie,
            "entropy balance residual / sign": worst_ent,
            "mass/energy tendency totals / wall momentum rows": worst_cons}


def check_sbp(rng, gas, samples):
    """Summation-by-parts identity on random nodal and face fields
    (``gas`` is not used)."""
    grid = build_grid((8, 8, 8))
    # per sample, a then the face fields of the three axes, drawn in one block
    shapes = [grid.shape] + [tuple(n + (ax == k) for k, n in enumerate(grid.shape)) for ax in range(3)]
    sizes = [int(np.prod(shape)) for shape in shapes]
    draws = np.split(rng.uniform(1.0, 2.0, (samples, sum(sizes))), np.cumsum(sizes)[:-1], axis=1)
    a, *faces = (d.reshape((samples,) + shape) for d, shape in zip(draws, shapes))
    a_max = np.max(np.abs(a), axis=(1, 2, 3))
    worst = 0.0
    for ax, b in enumerate(faces):
        scale = a_max * np.max(np.abs(b), axis=(1, 2, 3)) * grid.shape[ax] * grid.shape[0] ** 2
        worst = max(worst, float(np.max(sbp_residual(a, b, grid, ax) / scale)))
    return {"summation-by-parts identity residual": worst}
