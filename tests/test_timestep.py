import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gasbox.rhs
import gasbox.timestep
from gasbox.fluxes import LambdaVariant
from gasbox.grid import build_grid
from gasbox.initial import initial_condition
from gasbox.rhs import assemble_rhs
from gasbox.thermo import GasParams, PositivityError, conserved_from_primitives, primitives_from_conserved
from gasbox.timestep import RunAbort, SolverParams, StepController, ssprk3_step, stable_dt
from gasbox.verify import random_admissible_field


def rest_state(grid, gas, rho=1.0, temp=1.0):
    r = np.full(grid.shape, rho)
    return conserved_from_primitives(r, (0 * r, 0 * r, 0 * r), r * gas.R * temp, gas)


class TestSolverParams:
    def test_cfl_window(self):
        SolverParams(cfl=1.0)
        with pytest.raises(ValueError):
            SolverParams(cfl=0.0)
        with pytest.raises(ValueError):
            SolverParams(cfl=1.5)


class TestStableDt:
    def test_acoustic_limit_at_rest(self):
        gas = GasParams(gamma=1.4, R=1.0)  # no diffusion at all
        g = build_grid((8, 8, 8))
        params = SolverParams(cfl=0.5)
        u5 = rest_state(g, gas)
        c = np.sqrt(gas.gamma * gas.R * 1.0)
        assert stable_dt(u5, g, gas, params) == pytest.approx(0.5 * g.spacing[0] / c, rel=1e-14)

    @pytest.mark.filterwarnings("ignore:mu1 exceeds")
    def test_diffusive_limit_dominates(self):
        gas = GasParams(gamma=1.4, R=1.0, mu0=0.0, mu1=50.0)
        g = build_grid((8, 8, 8))
        params = SolverParams(cfl=0.5)
        u5 = rest_state(g, gas)
        h = g.spacing[0]
        expected = 0.5 * h * h / (2.0 * 3 * 50.0)  # tilde-nu = mu1 rho = 50 at rest
        assert stable_dt(u5, g, gas, params) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.filterwarnings("ignore:mu1 exceeds")
    def test_diffusive_limit_quarters_under_refinement(self):
        gas = GasParams(gamma=1.4, R=1.0, mu0=0.0, mu1=50.0)
        params = SolverParams(cfl=0.5)
        dts = []
        for n in (8, 16):
            g = build_grid((n, n, n))
            dts.append(stable_dt(rest_state(g, gas), g, gas, params))
        assert dts[0] == 4.0 * dts[1]

    def test_radiative_diffusivity_enters(self):
        base = GasParams(gamma=1.4, R=1.0)
        hot = GasParams(gamma=1.4, R=1.0, kappa_r=10.0)
        g = build_grid((8, 8, 8))
        params = SolverParams(cfl=0.5)
        u5 = rest_state(g, base)
        dt_base = stable_dt(u5, g, base, params)
        dt_rad = stable_dt(u5, g, hot, params)
        assert dt_rad < dt_base
        expected = 0.5 * g.spacing[0] ** 2 / (2.0 * 3 * (4.0 * 10.0 / base.c_v))
        assert dt_rad == pytest.approx(expected, rel=1e-14)


class TestSsprk3:
    def test_zero_tendency_is_identity(self, rng):
        u = rng.uniform(-3.0, 3.0, (5, 4, 4, 4))
        out = ssprk3_step(u, 0.1, 0.0, lambda v, t: np.zeros_like(v))
        assert np.array_equal(out, u)

    def test_single_step_decay_error(self):
        # u' = -u over dt = 0.1: the one-step defect is dt^4/24-scale
        u0 = np.array([1.0])
        out = ssprk3_step(u0, 0.1, 0.0, lambda v, t: -v)
        err = abs(out[0] - np.exp(-0.1))
        assert 1e-7 < err < 1e-5

    def test_local_error_halving_slope_is_four(self):
        errs = []
        for dt in (0.1, 0.05, 0.025):
            out = ssprk3_step(np.array([1.0]), dt, 0.0, lambda v, t: -v)
            errs.append(abs(out[0] - np.exp(-dt)))
        slopes = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        for s in slopes:
            assert abs(s - 4.0) <= 0.1

    def test_global_order_three_on_decay(self):
        t_end = 1.0
        errs = []
        for n in (10, 20, 40):
            u = np.array([1.0])
            dt = t_end / n
            for k in range(n):
                u = ssprk3_step(u, dt, k * dt, lambda v, t: -v)
            errs.append(abs(u[0] - np.exp(-t_end)))
        slopes = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        for s in slopes:
            assert abs(s - 3.0) <= 0.1

    def test_nonautonomous_stage_times(self):
        # u' = 3 t^2 integrates exactly to t^3 by any third-order method
        u = np.array([0.0])
        u = ssprk3_step(u, 0.5, 0.0, lambda v, t: np.array([3.0 * t * t]))
        assert u[0] == pytest.approx(0.125, rel=1e-14)


class TestStepController:
    def test_mass_preserved_across_step(self, gas):
        g = build_grid((8, 8, 8))
        u0 = initial_condition("gaussian_density_pulse", g, gas,
                               floor=1.0, amplitude=0.5, width=0.1)
        params = SolverParams(cfl=0.4)
        ctrl = StepController(g, gas, params)
        dt = stable_dt(u0, g, gas, params)
        u1, _, _ = ctrl.attempt_step(u0, 0.0, dt)
        vol = g.cell_volumes
        m0 = float(np.sum(vol * u0[0]))
        assert abs(float(np.sum(vol * u1[0])) - m0) <= 1e-13 * m0

    def test_oversized_step_is_rejected_then_accepted(self, gas):
        g = build_grid((16, 0, 0))
        u0 = initial_condition("gaussian_density_pulse", g, gas,
                               floor=1.0, amplitude=0.5, width=0.1)
        params = SolverParams(cfl=0.4, max_rejects=30)
        ctrl = StepController(g, gas, params)
        big = 300.0 * stable_dt(u0, g, gas, params)
        u1, dt_used, _ = ctrl.attempt_step(u0, 0.0, big)
        assert ctrl.rejections > 0
        assert dt_used < big
        assert np.all(u1[0] > 0.0)

    def test_rejection_budget_aborts(self, gas):
        g = build_grid((16, 0, 0))
        u0 = initial_condition("gaussian_density_pulse", g, gas,
                               floor=1.0, amplitude=0.5, width=0.1)
        params = SolverParams(cfl=0.4, max_rejects=0)
        ctrl = StepController(g, gas, params)
        big = 300.0 * stable_dt(u0, g, gas, params)
        with pytest.raises(RunAbort) as err:
            ctrl.attempt_step(u0, 0.0, big)
        assert err.value.state is u0

    def test_advance_hits_end_time(self, gas):
        g = build_grid((8, 0, 0))
        u0 = initial_condition("uniform_rest", g, gas)
        params = SolverParams(cfl=0.5)
        ctrl = StepController(g, gas, params)
        seen = []
        u, t = ctrl.advance(u0, 0.0, 0.05, on_step=lambda u_, t_, dt_: seen.append(t_))
        assert t == pytest.approx(0.05, abs=1e-13)
        assert seen[-1] == t
        assert np.array_equal(u, u0)  # uniform rest is steady

    def test_positivity_error_propagates_from_bad_input(self, gas):
        g = build_grid((4, 4, 4))
        u0 = rest_state(g, gas)
        u0[0, 2, 2, 2] = -1.0
        params = SolverParams(max_rejects=2)
        ctrl = StepController(g, gas, params)
        with pytest.raises((PositivityError, RunAbort)):
            ctrl.attempt_step(u0, 0.0, 1e-3)


def pulse_1d(gas, n=16):
    g = build_grid((n, 0, 0))
    return g, initial_condition("gaussian_density_pulse", g, gas, floor=1.0, amplitude=0.5, width=0.1)


def late_fault_source(t_bad, component=4, value=np.inf):
    """Forcing that puts a non-finite value into one row after ``t_bad``."""
    def source(grid, t):
        out = np.zeros((5,) + grid.shape)
        if t > t_bad:
            out[component] = value
        return out
    return source


class TestRejectedStages:
    @settings(max_examples=30, deadline=None)
    @given(component=st.integers(0, 4), value=st.sampled_from([np.inf, -np.inf, np.nan]))
    def test_non_finite_stage_halves_dt(self, component, value):
        # stage 2 of the first attempt runs at t + dt, past t_bad, and
        # makes the stage state non-finite; the retry at dt/2 stays clear
        gas = GasParams(gamma=1.4, R=1.0, mu0=0.01, mu1=1e-4, kappa_r=1e-6)
        g, u0 = pulse_1d(gas)
        params = SolverParams(cfl=0.4, max_rejects=4)
        dt = stable_dt(u0, g, gas, params)
        ctrl = StepController(g, gas, params, source=late_fault_source(0.75 * dt, component, value))
        with np.errstate(invalid="ignore", over="ignore"):
            u1, dt_used, prim = ctrl.attempt_step(u0, 0.0, dt)
        assert ctrl.rejections == 1
        assert dt_used == 0.5 * dt
        assert np.all(np.isfinite(u1))
        assert np.array_equal(prim.rho, u1[0])


class TestEvaluationCounts:
    @pytest.fixture
    def counts(self, monkeypatch):
        seen = {"rhs": 0, "primitives": 0}

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                seen[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(gasbox.timestep, "assemble_rhs",
                            counting("rhs", gasbox.timestep.assemble_rhs))
        for module in (gasbox.timestep, gasbox.rhs):
            monkeypatch.setattr(module, "primitives_from_conserved",
                                counting("primitives", module.primitives_from_conserved))
        return seen

    def test_accepted_step(self, gas, counts):
        g, u0 = pulse_1d(gas)
        params = SolverParams(cfl=0.4)
        dt = stable_dt(u0, g, gas, params)
        ctrl = StepController(g, gas, params)
        counts.update(rhs=0, primitives=0)
        steps = []
        _, t = ctrl.advance(u0, 0.0, dt, on_step=lambda u_, t_, dt_: steps.append(dt_))
        assert steps == [dt] and t == dt
        assert counts["rhs"] == 3
        assert counts["primitives"] == 4

    def test_rejected_step_reuses_k1(self, gas, counts):
        g, u0 = pulse_1d(gas)
        params = SolverParams(cfl=0.4)
        dt = stable_dt(u0, g, gas, params)
        ctrl = StepController(g, gas, params, source=late_fault_source(0.75 * dt))
        prim = primitives_from_conserved(u0, gas)
        counts.update(rhs=0, primitives=0)
        k1, dt_first = ctrl.first_stage(u0, 0.0, prim)
        with np.errstate(invalid="ignore", over="ignore"):
            _, dt_used, _ = ctrl.attempt_step(u0, 0.0, dt_first, k1=k1)
        assert dt_first == dt and dt_used == 0.5 * dt
        assert ctrl.rejections == 1
        assert counts["rhs"] == 3 + 2


class TestSharedFirstStage:
    @pytest.mark.parametrize("variant", list(LambdaVariant))
    @pytest.mark.parametrize("n", [(6, 6, 6), (32, 0, 0)])
    def test_dt_and_k1_match_the_standalone_path(self, rng, gas, variant, n):
        g = build_grid(n)
        params = SolverParams(cfl=0.4, lambda_variant=variant)
        ctrl = StepController(g, gas, params)
        for _ in range(3):
            u = random_admissible_field(rng, g, gas)
            k1, dt = ctrl.first_stage(u, 0.0, primitives_from_conserved(u, gas))
            assert dt == stable_dt(u, g, gas, params)
            assert np.array_equal(k1, assemble_rhs(u, g, gas, variant))
