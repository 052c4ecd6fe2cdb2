import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gasbox.diagnostics
import gasbox.driver
import gasbox.initial
import gasbox.mms
import gasbox.rhs
import gasbox.thermo
import gasbox.timestep
from gasbox.config import parse_config
from gasbox.fluxes import LambdaVariant, diffusion_coeffs
from gasbox.grid import build_grid
from gasbox.initial import initial_condition
from gasbox.rhs import assemble_rhs, face_blocks
from gasbox.thermo import GasParams, PositivityError, conserved_from_primitives, primitives_from_conserved
from gasbox.timestep import RunAbort, SolverParams, StepController, _step_limit, ssprk3_step, stable_dt
from gasbox.verify import random_admissible_field


def rest_state(grid, gas, rho=1.0, temp=1.0):
    r = np.full(grid.shape, rho)
    return conserved_from_primitives(r, (0 * r, 0 * r, 0 * r), r * gas.R * temp, gas)


def rk3(u, dt, t, rhs):
    """:func:`ssprk3_step` with its k1 evaluated here."""
    return ssprk3_step(u, dt, t, rhs, rhs(u, t))


def first_attempt(ctrl, u, dt):
    """``ctrl.attempt_step`` of ``u`` at t = 0 with the k1 of its first stage."""
    k1, _ = ctrl.first_stage(u, 0.0, primitives_from_conserved(u, ctrl.gas))
    return ctrl.attempt_step(u, 0.0, dt, k1)


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
        out = rk3(u, 0.1, 0.0, lambda v, t: np.zeros_like(v))
        assert np.array_equal(out, u)

    def test_single_step_decay_error(self):
        # u' = -u over dt = 0.1: the one-step defect is dt^4/24-scale
        u0 = np.array([1.0])
        out = rk3(u0, 0.1, 0.0, lambda v, t: -v)
        err = abs(out[0] - np.exp(-0.1))
        assert 1e-7 < err < 1e-5

    def test_local_error_halving_slope_is_four(self):
        errs = []
        for dt in (0.1, 0.05, 0.025):
            out = rk3(np.array([1.0]), dt, 0.0, lambda v, t: -v)
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
                u = rk3(u, dt, k * dt, lambda v, t: -v)
            errs.append(abs(u[0] - np.exp(-t_end)))
        slopes = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        for s in slopes:
            assert abs(s - 3.0) <= 0.1

    def test_bitwise_textbook_formula_inputs_untouched(self, rng):
        u = rng.uniform(-3.0, 3.0, (5, 4, 4, 4))
        a = rng.uniform(-1.0, 1.0, u.shape)

        def rhs(v, t):
            return a * v * v - (1.0 + t) * v

        k1 = rhs(u, 0.3)
        u_before, k1_before = u.copy(), k1.copy()
        dt, t = 0.07, 0.3
        u1 = u + dt * k1
        k2 = rhs(u1, t + dt)
        u2 = u + (0.25 * dt) * (k1 + k2)
        k3 = rhs(u2, t + 0.5 * dt)
        expected = u + dt * ((1.0 / 6.0) * (k1 + k2) + (2.0 / 3.0) * k3)
        assert np.array_equal(ssprk3_step(u, dt, t, rhs, k1), expected)
        assert np.array_equal(u, u_before) and np.array_equal(k1, k1_before)

    def test_nonautonomous_stage_times(self):
        # u' = 3 t^2 integrates exactly to t^3 by any third-order method
        u = np.array([0.0])
        u = rk3(u, 0.5, 0.0, lambda v, t: np.array([3.0 * t * t]))
        assert u[0] == pytest.approx(0.125, rel=1e-14)


class TestStepController:
    def test_mass_preserved_across_step(self, gas):
        g = build_grid((8, 8, 8))
        u0 = initial_condition("gaussian_density_pulse", g, gas,
                               floor=1.0, amplitude=0.5, width=0.1)
        params = SolverParams(cfl=0.4)
        ctrl = StepController(g, gas, params)
        dt = stable_dt(u0, g, gas, params)
        u1, _, _ = first_attempt(ctrl, u0, dt)
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
        u1, dt_used, _ = first_attempt(ctrl, u0, big)
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
            first_attempt(ctrl, u0, big)
        assert err.value.state is u0
        # the abort names what failed: the quantity, cell and value of the
        # last rejection, which it carries as its cause
        cause = err.value.__cause__
        assert isinstance(cause, PositivityError)
        assert str(err.value).endswith(f"last rejection: inadmissible {cause.quantity} = "
                                       f"{cause.value:.6g} at cell {cause.index}"
                                       " (must be positive and finite)")

    def test_advance_hits_end_time(self, gas):
        g = build_grid((8, 0, 0))
        u0 = initial_condition("uniform_rest", g, gas)
        params = SolverParams(cfl=0.5)
        ctrl = StepController(g, gas, params)
        seen = []
        u, t = ctrl.advance(u0, 0.0, 0.05, on_step=lambda u_, t_, dt_, prim_: seen.append(t_))
        assert t == pytest.approx(0.05, abs=1e-13)
        assert seen[-1] == t
        assert np.array_equal(u, u0)  # uniform rest is steady

    @settings(max_examples=20, deadline=None)
    @given(t0=st.floats(min_value=1e5, max_value=1e15))
    def test_step_that_cannot_move_t_aborts(self, t0):
        # a strong mu0 limits dt to 6.1e-12 (>= dt_min), below half the
        # spacing of floats at t0, so t + dt == t: the run must abort with
        # its last good state instead of stepping in place forever
        gas = GasParams(gamma=1.4, R=1.0, mu0=1e7, mu1=0.0)
        g = build_grid((64, 0, 0))
        u0 = initial_condition("gaussian_density_pulse", g, gas, floor=1.0, amplitude=0.5, width=0.1)
        ctrl = StepController(g, gas, SolverParams())
        dt = stable_dt(u0, g, gas, ctrl.params)
        assert ctrl.params.dt_min <= dt and t0 + dt == t0
        attempts = []
        attempt_step = ctrl.attempt_step

        def counted(*args):
            attempts.append(args[2])
            if len(attempts) > 5:
                raise AssertionError(f"{len(attempts)} steps left t at {t0!r}")
            return attempt_step(*args)

        ctrl.attempt_step = counted
        with pytest.raises(RunAbort) as err:
            ctrl.advance(u0, t0, t0 * (1.0 + 1e-12))
        assert str(err.value) == f"step {dt:.3g} does not move t = {t0:.6g}"
        assert err.value.t == t0 and err.value.state is u0 and attempts == [dt]

    def test_positivity_error_propagates_from_bad_input(self, gas):
        g = build_grid((4, 4, 4))
        u0 = rest_state(g, gas)
        u0[0, 2, 2, 2] = -1.0
        params = SolverParams(max_rejects=2)
        ctrl = StepController(g, gas, params)
        with pytest.raises(PositivityError):
            ctrl.advance(u0, 0.0, 1e-3)


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
            u1, dt_used, prim = first_attempt(ctrl, u0, dt)
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
        # in every gasbox module that binds the conversion: thermo, initial,
        # diagnostics, rhs and timestep (the driver binds none)
        convert = gasbox.thermo.primitives_from_conserved
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "gasbox"
                   and getattr(m, "primitives_from_conserved", None) is convert]
        assert gasbox.initial in modules
        for module in modules:
            monkeypatch.setattr(module, "primitives_from_conserved", counting("primitives", convert))
        return seen

    def test_run_converts_each_state_once(self, gas, counts):
        # cadence above the step count: the initial state's gate and the loop
        # each convert it, the first record reads the gate's primitives, each
        # step converts its two later stages and its new state, and the
        # final record reads the last step's
        cfg = parse_config("[grid]\nn = 16 0 0\n[gas]\nmu0 = 0.01\nmu1 = 1e-4\n"
                           "[solver]\ncfl = 0.4\nt_end = 0.05\n"
                           "[initial]\npreset = gaussian_density_pulse\n"
                           "[output]\ncadence = 1000\n")
        counts.update(primitives=0)  # the run's conversions, not the config check's
        result = gasbox.driver.simulate(cfg)
        assert result.steps > 1 and result.rejections == 0
        assert len(result.records) == 2
        assert result.records[-1].t == result.t and result.records[-1].dt > 0.0
        assert counts["primitives"] == 3 * result.steps + 2

    def test_accepted_step(self, gas, counts):
        g, u0 = pulse_1d(gas)
        params = SolverParams(cfl=0.4)
        dt = stable_dt(u0, g, gas, params)
        ctrl = StepController(g, gas, params)
        counts.update(rhs=0, primitives=0)
        steps = []
        _, t = ctrl.advance(u0, 0.0, dt, on_step=lambda u_, t_, dt_, prim_: steps.append(dt_))
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
            _, dt_used, _ = ctrl.attempt_step(u0, 0.0, dt_first, k1)
        assert dt_first == dt and dt_used == 0.5 * dt
        assert ctrl.rejections == 1
        assert counts["rhs"] == 3 + 2


MMS_CFG = ("[grid]\nn = 32 0 0\n[gas]\nmu0 = 0.01\nmu1 = 1e-4\n"
           "[solver]\ncfl = 0.4\nt_end = 0.1\n[initial]\npreset = mms_wave\n")


def faulting_rhs(fault_at):
    """``assemble_rhs`` that raises a positivity fault at its ``fault_at``-th call."""
    calls = []

    def rhs(*args, **kwargs):
        calls.append(None)
        if len(calls) == fault_at:
            raise PositivityError("density", (0,), -1.0)
        return assemble_rhs(*args, **kwargs)
    return rhs


class TestForcingCalls:
    @pytest.mark.parametrize("fault_at", [None, 3, 8])
    def test_one_forcing_call_per_step_and_rejection(self, monkeypatch, fault_at):
        # every tendency evaluation asks the source for its row at its own
        # stage time: t, t + dt and t + dt/2 of each accepted step, in order.
        # The fault rejects one attempt, at stage 3 of the first step or at
        # stage 2 of the third: that attempt asked for the ``reached`` stage
        # times up to its faulting stage, and the retry at dt/2 reuses k1.
        # The kernel itself is sampled once per grid, on the first call, so
        # its calls per run do not grow with the steps.
        reached = {None: 0, 3: 2, 8: 1}[fault_at]
        times, kernel_calls, attempts = [], [], []
        source, compiled = gasbox.mms.MMSWave.source, gasbox.mms._compiled_source
        attempt_step = StepController.attempt_step

        def recording_source(wave, gas):
            forcing = source(wave, gas)

            def recorded(grid, t):
                times.append(t)
                return forcing(grid, t)
            return recorded

        def counted_kernel(wave, gas):
            kernel = compiled(wave, gas)

            def counted(*args):
                kernel_calls.append(None)
                return kernel(*args)
            return counted

        def recording_attempt(self, u, t, dt, k1):
            out = attempt_step(self, u, t, dt, k1)
            attempts.append((t, dt, out[1]))
            return out

        monkeypatch.setattr(gasbox.mms.MMSWave, "source", recording_source)
        monkeypatch.setattr(gasbox.mms, "_compiled_source", counted_kernel)
        monkeypatch.setattr(StepController, "attempt_step", recording_attempt)
        per_run = []
        for t_end in (0.1, 0.2):
            # the config check builds the forcing on a probe grid of its own
            cfg = parse_config(MMS_CFG.replace("t_end = 0.1", f"t_end = {t_end}"))
            for calls in (times, kernel_calls, attempts):
                calls.clear()
            monkeypatch.setattr(gasbox.timestep, "assemble_rhs", faulting_rhs(fault_at))
            result = gasbox.driver.simulate(cfg)
            assert result.steps == len(attempts) > 3
            assert result.rejections == (0 if fault_at is None else 1)
            expected = []
            for t, dt, dt_used in attempts:
                expected.append(t)
                while dt != dt_used:
                    expected += [t + dt, t + 0.5 * dt][:reached]
                    dt *= 0.5
                expected += [t + dt_used, t + 0.5 * dt_used]
            assert times == expected
            assert len(times) == 3 * result.steps + reached * result.rejections
            per_run.append((result.steps, len(kernel_calls)))
        (steps, kernel), (steps_2, kernel_2) = per_run
        assert steps_2 > steps and kernel_2 == kernel

    @pytest.mark.parametrize("fault_at", [None, 3, 8])
    def test_k1_row_is_the_source_at_t_alone(self, monkeypatch, fault_at):
        # at every first stage of a run, k1 is bitwise the tendency with the
        # source called at the step's t, with and without a rejection (stage 3
        # of the first step, or stage 2 of the third)
        k1s = []
        first_stage = StepController.first_stage

        def recording_first_stage(self, u, t, prim):
            k1, dt = first_stage(self, u, t, prim)
            k1s.append((self, u, t, k1))
            return k1, dt

        monkeypatch.setattr(StepController, "first_stage", recording_first_stage)
        monkeypatch.setattr(gasbox.timestep, "assemble_rhs", faulting_rhs(fault_at))
        result = gasbox.driver.simulate(parse_config(MMS_CFG))
        assert result.rejections == (0 if fault_at is None else 1)
        assert len(k1s) == result.steps > 3
        for ctrl, u, t, k1 in k1s:
            expected = assemble_rhs(u, ctrl.grid, ctrl.gas, ctrl.params.lambda_variant,
                                    forcing=ctrl.source(ctrl.grid, t))
            assert np.array_equal(k1, expected)


class TestSharedFirstStage:
    @pytest.mark.parametrize("variant", list(LambdaVariant))
    @pytest.mark.parametrize("n", [(6, 6, 6), (32, 0, 0)])
    def test_dt_and_k1_match_the_standalone_path(self, rng, gas, variant, n):
        g = build_grid(n)
        params = SolverParams(cfl=0.4, lambda_variant=variant)
        ctrl = StepController(g, gas, params)
        for _ in range(3):
            u = random_admissible_field(rng, g, gas)
            prim = primitives_from_conserved(u, gas)
            k1, dt = ctrl.first_stage(u, 0.0, prim)
            tilde_nu_max = max(float(np.max(diffusion_coeffs(face, g.spacing[face.axis], variant, gas)))
                               for face, _ in face_blocks(prim, g))
            assert dt == _step_limit(prim, tilde_nu_max, g, gas, params)
            assert np.array_equal(k1, assemble_rhs(u, g, gas, variant))
