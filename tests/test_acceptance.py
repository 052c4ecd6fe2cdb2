"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line with the measured quantities (run
pytest with -s or -rA to see them).  Shared runs are module-scoped
fixtures so the conservation run and the convergence sweeps are executed
once.

Criteria 1, 3, 4 and 7 also assert a wall-time budget (60, 10, 30 and
300 s).  These are the budgets the acceptance criteria set, kept as
written: on a 2-vCPU Xeon with Python 3.11 and numpy 2.4 the runs take
about 3.3, 0.3, 1.0 and 6 s, at least 18x inside them, so only a
slowdown of that order trips one.
"""

import math
import time

import numpy as np
import pytest

from gasbox.diagnostics import convergence_study, totals
from gasbox.fluxes import LambdaVariant
from gasbox.grid import build_grid
from gasbox.initial import initial_condition
from gasbox.mms import MMSWave
from gasbox.rhs import apply_boundary_state
from gasbox.thermo import GasParams, primitives_from_conserved
from gasbox.timestep import SolverParams, StepController, ssprk3_step, stable_dt
from gasbox.verify import (
    BOUNDS,
    check_field_identities,
    check_flux_consistency,
    check_mass_flux_coefficients,
    check_means,
    check_shuffle_gaps,
    within_bound,
)

GAS_3D = GasParams(gamma=1.4, R=1.0, mu0=0.02, mu1=1e-4, kappa_r=1e-6)
GAS_1D = GasParams(gamma=1.4, R=1.0, mu0=0.01, mu1=1e-4, kappa_r=1e-5)


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: {detail} ... PASS")


def assert_within_bounds(worst):
    """Assert each worst sample of a ``verify`` check group against the
    bounds table ``gasbox verify`` prints; returns the samples."""
    for name, value in worst.items():
        assert within_bound(name, value), f"{name}: worst {value:.3e}, bound {BOUNDS[name]}"
    return worst


# ---------------------------------------------------------------------------
# shared runs


@pytest.fixture(scope="module")
def conservation_run():
    """3D box, N = 16^3, Gaussian density pulse, 200 SSP-RK3 steps."""
    grid = build_grid((16, 16, 16))
    params = SolverParams(cfl=0.4)
    u = initial_condition("gaussian_density_pulse", grid, GAS_3D,
                          floor=1.0, amplitude=0.5, width=0.1)
    controller = StepController(grid, GAS_3D, params)
    records = [totals(u, grid, GAS_3D, t=0.0)]
    momentum_scale = 0.0
    vol = grid.cell_volumes
    t = 0.0
    start = time.perf_counter()
    for _ in range(200):
        dt = stable_dt(u, grid, GAS_3D, params)
        u, dt_used, prim = controller.attempt_step(u, t, dt)
        t += dt_used
        records.append(totals(u, grid, GAS_3D, t=t, dt=dt_used))
        speed = np.sqrt(prim.speed_sq)
        momentum_scale = max(momentum_scale,
                             float(np.max(prim.rho)) * float(np.max(speed)) * math.prod(grid.extent))
    elapsed = time.perf_counter() - start
    return {
        "grid": grid,
        "records": records,
        "elapsed": elapsed,
        "rejections": controller.rejections,
        "momentum_scale": momentum_scale,
        "final_state": u,
    }


def _solve_mms(variant, n, t_end=0.2):
    grid = build_grid((n, 0, 0))
    params = SolverParams(cfl=0.4, lambda_variant=variant)
    wave = MMSWave()
    u = apply_boundary_state(wave.conserved(grid, 0.0, GAS_1D), grid)
    controller = StepController(grid, GAS_1D, params, source=wave.source(GAS_1D))
    u, _ = controller.advance(u, 0.0, t_end)
    prim = primitives_from_conserved(u, GAS_1D)
    assert controller.rejections == 0
    assert float(np.min(prim.rho)) > 0.0 and float(np.min(prim.T)) > 0.0
    return grid, u


@pytest.fixture(scope="module")
def convergence_runs():
    """1D manufactured-solution sweeps for both sensors, grids 32..256."""
    t_end = 0.2
    wave = MMSWave()

    def exact(grid):
        return wave.conserved(grid, t_end, GAS_1D)

    start = time.perf_counter()
    tables = {}
    for variant in LambdaVariant:
        tables[variant] = convergence_study(
            [32, 64, 128, 256], lambda n: _solve_mms(variant, n, t_end), exact=exact)
    elapsed = time.perf_counter() - start
    return {"tables": tables, "elapsed": elapsed}


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_conservation(conservation_run):
    records = conservation_run["records"]
    first, last = records[0], records[-1]
    mass_drift = abs(last.total_mass - first.total_mass) / abs(first.total_mass)
    energy_drift = abs(last.total_energy - first.total_energy) / abs(first.total_energy)
    assert mass_drift <= 1e-12
    assert energy_drift <= 1e-12

    worst_momentum = max(max(abs(m) for m in rec.total_momentum) for rec in records)
    momentum_bound = 1e-12 * conservation_run["momentum_scale"]
    assert worst_momentum <= momentum_bound

    # acceptance budget, far above the run time (module docstring)
    assert conservation_run["elapsed"] <= 60.0
    report(1, f"mass drift {mass_drift:.2e}, energy drift {energy_drift:.2e}, "
              f"|momentum| {worst_momentum:.2e} <= {momentum_bound:.2e}, "
              f"200 steps in {conservation_run['elapsed']:.1f}s")


def test_criterion_2_entropy_monotone(conservation_run):
    records = conservation_run["records"]
    worst = -np.inf
    for prev, cur in zip(records, records[1:]):
        slack = 1e-9 * abs(prev.total_entropy)
        worst = max(worst, cur.total_entropy - prev.total_entropy - slack)
    assert worst <= 0.0
    report(2, f"total entropy non-increasing at every step "
              f"(worst rise beyond slack {worst:.2e})")


def test_criterion_3_shuffle_condition():
    rng = np.random.default_rng(11)
    start = time.perf_counter()
    worst = assert_within_bounds(check_shuffle_gaps(rng, GAS_3D, 10**5))
    elapsed = time.perf_counter() - start
    # acceptance budget, far above the run time (module docstring)
    assert elapsed <= 10.0
    report(3, f"min gap/scale {min(worst.values()):.2e} over 1e5 pairs x 3 axes x 2 sensors "
              f"in {elapsed:.1f}s")


def test_criterion_4_mean_algebra():
    rng = np.random.default_rng(13)
    start = time.perf_counter()
    assert_within_bounds(check_means(rng, GAS_3D, 10**6))
    assert_within_bounds(check_mass_flux_coefficients(rng, GAS_3D, 10**6))
    elapsed = time.perf_counter() - start
    # acceptance budget, far above the run time (module docstring)
    assert elapsed <= 30.0
    report(4, f"orderings, split identity, 1/2 bound, sensor dominance and "
              f"coefficient positivity over 1e6 pairs in {elapsed:.1f}s")


def test_criterion_5_flux_consistency():
    rng = np.random.default_rng(17)
    (worst,) = assert_within_bounds(check_flux_consistency(rng, GAS_3D, 10**4)).values()
    report(5, f"two-point flux vs analytic flux, worst rel dev {worst:.2e} "
              f"over 1e4 states x 3 axes")


def test_criterion_6_kinetic_energy_identity():
    rng = np.random.default_rng(19)
    worst = assert_within_bounds(check_field_identities(rng, GAS_3D, ((4, 40), (8, 40), (16, 20))))
    report(6, f"kinetic-energy balance residual {worst['kinetic-energy balance residual']:.2e} "
              f"over 100 random fields, N in {{4, 8, 16}}, walls included")


def test_criterion_7_grid_convergence(convergence_runs):
    tables = convergence_runs["tables"]
    first = tables[LambdaVariant.FIRST_ORDER]
    second = tables[LambdaVariant.SECOND_ORDER]
    # finest resolved pair: the row before the last carries its order
    first_l1, first_l2 = first[-2].order_l1, first[-2].order_l2
    second_l1, second_l2 = second[-2].order_l1, second[-2].order_l2
    assert min(first_l1, first_l2) >= 0.8
    assert min(second_l1, second_l2) >= 1.8
    # acceptance budget, far above the run time (module docstring)
    assert convergence_runs["elapsed"] <= 300.0
    report(7, f"observed orders on finest pair: floored sensor "
              f"L1 {first_l1:.2f} / L2 {first_l2:.2f} (>= 0.8), floorless "
              f"L1 {second_l1:.2f} / L2 {second_l2:.2f} (>= 1.8), "
              f"total {convergence_runs['elapsed']:.0f}s")


def test_criterion_8_positivity(conservation_run, convergence_runs):
    records = conservation_run["records"]
    min_rho = min(rec.min_rho for rec in records)
    min_temp = min(rec.min_temp for rec in records)
    assert min_rho > 0.0
    assert min_temp > 0.0
    assert conservation_run["rejections"] == 0
    # _solve_mms already asserted positivity and zero rejections per run
    assert convergence_runs["tables"]
    report(8, f"min rho {min_rho:.3f}, min T {min_temp:.3f} over all steps; "
              f"no step rejections on any acceptance run")


def test_criterion_9_temporal_order():
    grid = build_grid((64, 0, 0))
    wave = MMSWave()
    source = wave.source(GAS_1D)
    variant = LambdaVariant.SECOND_ORDER

    from gasbox.rhs import assemble_rhs

    def rhs(u, t):
        return assemble_rhs(u, grid, GAS_1D, variant, source=source, t=t)

    u0 = apply_boundary_state(wave.conserved(grid, 0.0, GAS_1D), grid)
    base_dt = 4.0e-3  # comfortably inside the stability window at N = 64
    t_end = 10 * base_dt

    def advance(dt):
        u, t = u0.copy(), 0.0
        for _ in range(round(t_end / dt)):
            u = ssprk3_step(u, dt, t, rhs)
            t += dt
        return u

    reference = advance(base_dt / 32.0)
    errors = []
    for divisor in (1, 2, 4):
        diff = advance(base_dt / divisor) - reference
        errors.append(float(np.sqrt(np.sum(grid.cell_volumes * np.sum(diff ** 2, axis=0)))))
    slopes = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
    for s in slopes:
        assert abs(s - 3.0) <= 0.2
    report(9, f"temporal slopes {slopes[0]:.2f}, {slopes[1]:.2f} "
              f"(target 3.0 +/- 0.2) on the frozen fine grid")
