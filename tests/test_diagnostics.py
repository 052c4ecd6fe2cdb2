import dataclasses
import pathlib

import numpy as np
import pytest

import gasbox.means
import gasbox.rhs
from gasbox.diagnostics import (
    CSV_HEADER,
    _dissipation_bracket,
    apriori_norm_report,
    apriori_sample,
    balance_residuals,
    convergence_study,
    entropy_balance_residual,
    format_apriori_report,
    format_convergence_table,
    ke_balance_residual,
    shuffle_gap_and_scale,
    totals,
    write_csv,
)
from gasbox.fluxes import LambdaVariant, physical_coeff
from gasbox.grid import build_grid, discrete_norm, gradient_norm_l2
from gasbox.rhs import assemble_rhs, face_blocks
from gasbox.thermo import (
    GasParams,
    conserved_from_primitives,
    face_means,
    primitives,
    primitives_from_conserved,
)
from gasbox.timestep import SolverParams, StepController, stable_dt
from gasbox.verify import random_admissible_field, random_states


def rest_state(grid, gas, rho=1.0, temp=1.0):
    r = np.full(grid.shape, rho)
    return conserved_from_primitives(r, (0 * r, 0 * r, 0 * r), r * gas.R * temp, gas)


class TestTotals:
    def test_uniform_rest(self, gas):
        g = build_grid((4, 4, 4))
        u5 = rest_state(g, gas)
        rec = totals(u5, g, gas, t=1.5, prim=primitives_from_conserved(u5, gas))
        assert rec.total_mass == pytest.approx(1.0, rel=1e-14)
        assert rec.total_energy == pytest.approx(2.5, rel=1e-14)
        assert rec.total_kinetic == 0.0
        assert rec.total_momentum == (0.0, 0.0, 0.0)
        assert rec.min_rho == 1.0 and rec.min_temp == 1.0
        assert rec.entropy_dissipation == 0.0

    def test_isentrope_has_zero_entropy(self, rng, gas):
        # p = rho^gamma makes s vanish identically
        g = build_grid((4, 4, 4))
        rho = rng.uniform(0.5, 2.0, g.shape)
        u5 = conserved_from_primitives(rho, (0 * rho, 0 * rho, 0 * rho),
                                       rho ** gas.gamma, gas)
        rec = totals(u5, g, gas, prim=primitives_from_conserved(u5, gas))
        assert abs(rec.total_entropy) <= 1e-13

    def test_momentum_matches_serial_sum(self, rng, gas):
        g = build_grid((6, 6, 6))
        u5 = random_admissible_field(rng, g, gas)
        rec = totals(u5, g, gas, prim=primitives_from_conserved(u5, gas))
        vol = g.cell_volumes
        for c in range(3):
            serial = 0.0
            for i in range(g.shape[0]):
                for j in range(g.shape[1]):
                    for k in range(g.shape[2]):
                        serial += vol[i, j, k] * u5[c + 1, i, j, k]
            scale = max(1e-30, abs(serial))
            assert abs(rec.total_momentum[c] - serial) <= 1e-14 * scale

    def test_csv_roundtrip(self, tmp_path, rng, gas):
        g = build_grid((4, 4, 4))
        fields = [random_admissible_field(rng, g, gas) for _ in range(3)]
        recs = [totals(u5, g, gas, t=float(k), prim=primitives_from_conserved(u5, gas))
                for k, u5 in enumerate(fields)]
        path = tmp_path / "diag.csv"
        write_csv(path, recs)
        lines = path.read_text().strip().splitlines()
        assert lines[1] == CSV_HEADER
        data = np.genfromtxt(path, delimiter=",", skip_header=2)
        assert data.shape == (3, len(CSV_HEADER.split(",")))
        assert np.allclose(data[:, 2], [r.total_mass for r in recs], rtol=0, atol=0)


class TestFaceBlocks:
    def test_totals_with_primitives_handed_in(self, rng, gas):
        # a run records from the primitives its step returns; they are
        # those of a fresh conversion of the new state, bit for bit
        g = build_grid((6, 5, 4))
        u5 = random_admissible_field(rng, g, gas)
        ctrl = StepController(g, gas, SolverParams(cfl=0.4))
        steps = []
        ctrl.advance(u5, 0.0, stable_dt(u5, g, gas, ctrl.params),
                     on_step=lambda u_, t_, dt_, prim_: steps.append((u_, t_, dt_, prim_)))
        assert steps
        for u1, t1, dt1, prim1 in steps:
            given = totals(u1, g, gas, t=t1, dt=dt1, prim=prim1)
            converted = totals(u1, g, gas, t=t1, dt=dt1, prim=primitives_from_conserved(u1, gas))
            assert dataclasses.astuple(given) == dataclasses.astuple(converted)

    def test_blocked_face_sums_match_whole_slabs(self, rng, gas, monkeypatch):
        monkeypatch.setattr(gasbox.rhs, "_BLOCK_FACES", 500)  # before the grid is planned
        g = build_grid((40, 32, 24))
        u5 = random_admissible_field(rng, g, gas)
        prim = primitives_from_conserved(u5, gas)
        assert sum(1 for _ in face_blocks(prim, g)) > 3 * len(g.active_axes)
        rec = totals(u5, g, gas, prim=prim)

        # the same sums over whole slabs of faces, one axis at a time
        dissipation = grad_vel_sq = 0.0
        for ax in g.active_axes:
            lo = (slice(None),) + (slice(None),) * ax + (slice(None, -1),)
            hi = (slice(None),) + (slice(None),) * ax + (slice(1, None),)
            face = face_means(ax, primitives_from_conserved(u5[lo], gas),
                              primitives_from_conserved(u5[hi], gas))
            bracket, radiation = _dissipation_bracket(face, g.spacing[ax], gas)
            per_face = physical_coeff(face, gas) * bracket + radiation
            dissipation += float(np.sum(g.face_areas[ax] * np.sum(per_face, axis=ax)))
            jump_sq = sum(((r - l) / g.spacing[ax]) ** 2
                          for l, r in zip(face.left.vel, face.right.vel))
            grad_vel_sq += float(np.sum(g.cell_volumes[lo[1:]] * face.rho.bar ** 2 * jump_sq))

        assert dissipation > 0.0 and grad_vel_sq > 0.0
        assert rec.entropy_dissipation == pytest.approx(dissipation, rel=1e-14)
        assert rec.norm_rho_grad_vel == pytest.approx(np.sqrt(grad_vel_sq), rel=1e-14)

    def test_one_log_mean_chain_per_block(self, rng, gas, monkeypatch):
        # every face bundle runs one chain over its stacked rho/beta pair,
        # whichever walk builds it and whatever it reads
        monkeypatch.setattr(gasbox.rhs, "_BLOCK_FACES", 200)  # before the grid is planned
        g = build_grid((12, 10, 8))
        u5 = random_admissible_field(rng, g, gas)
        prim = primitives_from_conserved(u5, gas)
        calls = []
        log_mean = gasbox.means._log_mean
        monkeypatch.setattr(gasbox.means, "_log_mean", lambda *args: calls.append(1) or log_mean(*args))
        blocks = sum(1 for _ in face_blocks(prim, g))
        assert blocks > 3 * len(g.active_axes) and len(calls) == blocks
        for walk in (lambda: totals(u5, g, gas, prim=prim), lambda: assemble_rhs(u5, g, gas, prim=prim)):
            calls.clear()
            walk()
            assert len(calls) == blocks

    @pytest.mark.parametrize("n", [(7, 6, 5), (6, 9, 0), (12, 0, 0)])
    def test_blocked_monitors_match_one_block(self, rng, gas, monkeypatch, n):
        # node terms, maxima and the step limit are elementwise per face, so
        # blocks of a few planes change no bit of them (the face sums of
        # the entropy balance are summed block by block, so they can)
        g = build_grid(n)
        u5 = random_admissible_field(rng, g, gas)
        params = SolverParams(cfl=0.4)

        def monitors(grid):
            r = balance_residuals(u5, grid, gas)
            return r.tend.tobytes(), r.ke, r.ie, r.production, stable_dt(u5, grid, gas, params)

        whole = monitors(g)
        monkeypatch.setattr(gasbox.rhs, "_BLOCK_FACES", 60)
        small = build_grid(n)  # a grid is planned once, so the small blocks need a new one
        assert monitors(small) == whole
        blocks = [len(gasbox.rhs._walk_plan(grid)[0]) for grid in (g, small)]
        if len(g.active_axes) > 1:
            assert blocks[1] > blocks[0]
        else:
            assert blocks == [1, 1], "a 1D grid is one block at any _BLOCK_FACES, so it tests no blocking"


class TestKineticEnergyBalance:
    def test_uniform_rest(self, gas):
        g = build_grid((5, 5, 5))
        assert ke_balance_residual(rest_state(g, gas), g, gas) <= 1e-15

    @pytest.mark.parametrize("variant", list(LambdaVariant))
    @pytest.mark.parametrize("n", [4, 8])
    def test_random_fields(self, rng, gas, variant, n):
        g = build_grid((n, n, n))
        for _ in range(5):
            u5 = random_admissible_field(rng, g, gas)
            assert ke_balance_residual(u5, g, gas, variant) <= 1e-11

    def test_wall_normal_shear(self, gas):
        # velocity rising from the wall exercises the boundary forms of the
        # pressure-work and dissipation terms
        g = build_grid((6, 6, 6))
        x = g.nodes[0][:, None, None]
        rho = np.ones(g.shape)
        u = np.broadcast_to(np.sin(np.pi * x), g.shape).copy()
        u5 = conserved_from_primitives(rho, (u, 0 * u, 0 * u), rho, gas)
        from gasbox.rhs import apply_boundary_state
        u5 = apply_boundary_state(u5, g)
        assert ke_balance_residual(u5, g, gas) <= 1e-12


class TestInternalEnergyBalance:
    @pytest.mark.parametrize("n", [(4, 4, 4), (8, 8, 8), (16, 0, 0)])
    def test_random_fields(self, rng, gas, n):
        g = build_grid(n)
        for _ in range(5):
            u5 = random_admissible_field(rng, g, gas)
            assert balance_residuals(u5, g, gas).ie <= 1e-10


class TestEnergyBalancePair:
    @pytest.mark.parametrize("variant", list(LambdaVariant))
    def test_pair_equals_separate_residuals(self, rng, gas, variant):
        # the views and the tendency are those of the one assembly
        g = build_grid((8, 8, 8))
        for _ in range(3):
            u5 = random_admissible_field(rng, g, gas)
            r = balance_residuals(u5, g, gas, variant)
            assert r.ke == ke_balance_residual(u5, g, gas, variant)
            assert (r.entropy, r.production, r.dissipation, r.slack) == entropy_balance_residual(
                u5, g, gas, variant)
            assert np.array_equal(r.tend, assemble_rhs(u5, g, gas, variant))

    # float.hex of (ke, ie, entropy, production, dissipation, slack) of one
    # seeded field, recorded from separate energy and entropy face walks:
    # reading the tendency's own fluxes must not move a bit
    PINNED = {
        LambdaVariant.FIRST_ORDER: (
            "0x1.da25ea9d145c2p-51", "0x1.b380eed4bde67p-51", "0x1.1e4de29a69df5p-53",
            "-0x1.c9ce8428fdb3ep+29", "0x1.1a08dfba208b8p+29", "0x1.5f8b48ddba50ap+28"),
        LambdaVariant.SECOND_ORDER: (
            "0x1.9745f8bb44a4ap-51", "0x1.4e5cd79cafa18p-50", "0x1.1e52c7dace3c1p-54",
            "-0x1.c9c6b051486f2p+29", "0x1.1a08dfba208b8p+29", "0x1.5f7ba12e4fc73p+28"),
    }

    @pytest.mark.parametrize("variant", list(LambdaVariant))
    def test_pinned_values_bitwise(self, gas, variant):
        g = build_grid((7, 6, 5))
        u5 = random_admissible_field(np.random.default_rng(3), g, gas)
        r = balance_residuals(u5, g, gas, variant)
        got = (r.ke, r.ie, r.entropy, r.production, r.dissipation, r.slack)
        assert tuple(x.hex() for x in got) == self.PINNED[variant]


class TestShuffleGap:
    def test_identical_states(self, gas):
        q = random_states(np.random.default_rng(0), 100, gas)
        gap, _ = shuffle_gap_and_scale(face_means(0, q, q), LambdaVariant.FIRST_ORDER, gas)
        assert np.all(gap == 0.0)

    def test_pure_density_jump_at_rest_is_the_equality_case(self, inviscid_gas):
        # u = 0 both sides leaves the artificial coefficient at zero: the
        # face inequality is satisfied with gap exactly 0
        left = primitives(np.array([1.0]), (np.zeros(1),) * 3, np.array([1.0]), inviscid_gas)
        right = primitives(np.array([2.0]), (np.zeros(1),) * 3, np.array([2.0]), inviscid_gas)
        gap, _ = shuffle_gap_and_scale(face_means(0, left, right), LambdaVariant.FIRST_ORDER, inviscid_gas)
        assert gap[0] == 0.0

    def test_moving_density_jump_dissipates_strictly(self, inviscid_gas):
        one = np.ones(1)
        left = primitives(np.array([1.0]), (one, 0 * one, 0 * one), np.array([1.0]), inviscid_gas)
        right = primitives(np.array([2.0]), (one, 0 * one, 0 * one), np.array([2.0]), inviscid_gas)
        gap, _ = shuffle_gap_and_scale(face_means(0, left, right), LambdaVariant.FIRST_ORDER, inviscid_gas)
        assert gap[0] > 0.0

    @pytest.mark.parametrize("variant", list(LambdaVariant))
    def test_randomized_nonnegativity(self, rng, gas, variant):
        for ax in range(3):
            left = random_states(rng, 10**4, gas)
            right = random_states(rng, 10**4, gas)
            gap, scale = shuffle_gap_and_scale(face_means(ax, left, right), variant, gas)
            assert float(np.min(gap / scale)) >= -1e-12


class TestEntropyDissipation:
    def test_uniform_field(self, gas):
        g = build_grid((4, 4, 4))
        u5 = rest_state(g, gas)
        assert totals(u5, g, gas, prim=primitives_from_conserved(u5, gas)).entropy_dissipation == 0.0

    def test_radiative_term_from_temperature_jump(self):
        gas = GasParams(gamma=1.4, R=1.0, kappa_r=0.5)
        g = build_grid((2, 0, 0))
        rho = np.ones(g.shape)
        temp = np.array([1.0, 1.5, 2.0]).reshape(3, 1, 1)
        u5 = conserved_from_primitives(rho, (0 * rho, 0 * rho, 0 * rho), rho * temp, gas)
        assert totals(u5, g, gas, prim=primitives_from_conserved(u5, gas)).entropy_dissipation > 0.0

    def test_per_face_terms_nonnegative(self, rng, gas):
        left = random_states(rng, 10**5, gas)
        right = random_states(rng, 10**5, gas)
        bracket, radiation = _dissipation_bracket(face_means(0, left, right), 0.1, gas)
        assert np.min(bracket) >= 0.0
        assert np.min(radiation) >= 0.0

    @pytest.mark.parametrize("variant", list(LambdaVariant))
    def test_balance_closes(self, rng, gas, variant):
        # production + physical dissipation + shuffle slack = 0
        g = build_grid((6, 6, 6))
        for _ in range(3):
            u5 = random_admissible_field(rng, g, gas)
            resid, production, dissipation, slack = entropy_balance_residual(u5, g, gas, variant)
            assert resid <= 1e-10
            assert dissipation >= 0.0
            assert slack >= -1e-12 * max(1.0, abs(production))
            assert production <= 1e-11 * max(1.0, abs(production))


class TestConvergenceStudy:
    def test_rejects_non_nested_grids(self):
        with pytest.raises(ValueError):
            convergence_study([8, 24], lambda n: None)
        with pytest.raises(ValueError):
            convergence_study([8], lambda n: None)

    def test_synthetic_error_order(self, gas):
        # a fabricated defect C h^2 g(x) must read back as order 2
        def solve(n):
            g = build_grid((n, 0, 0))
            x = g.nodes[0][:, None, None]
            defect = np.broadcast_to(np.sin(np.pi * x), g.shape)
            u5 = rest_state(g, gas) + g.spacing[0] ** 2 * defect
            return g, u5

        def exact(grid):
            return rest_state(grid, gas)

        rows = convergence_study([8, 16, 32], solve, exact=exact)
        assert rows[0].order_l2 == pytest.approx(2.0, abs=0.05)
        assert rows[1].order_l1 == pytest.approx(2.0, abs=0.05)
        assert np.isnan(rows[-1].order_l2)

    def test_richardson_mode_on_synthetic_defect(self, gas):
        def solve(n):
            g = build_grid((n, 0, 0))
            x = g.nodes[0][:, None, None]
            defect = np.broadcast_to(np.sin(np.pi * x), g.shape)
            u5 = rest_state(g, gas) + g.spacing[0] ** 2 * defect
            return g, u5

        rows = convergence_study([8, 16, 32, 64], solve, exact=None)
        assert rows[0].order_l2 == pytest.approx(2.0, abs=0.05)
        assert rows[1].order_l2 == pytest.approx(2.0, abs=0.05)

    def test_richardson_agrees_with_manufactured_solution(self, gas):
        # the exact-solution-free mode must read off the same order as the
        # manufactured-solution mode (floorless sensor: both near 2)
        from gasbox.fluxes import LambdaVariant
        from gasbox.initial import initial_condition
        from gasbox.mms import MMSWave
        from gasbox.rhs import apply_boundary_state
        from gasbox.timestep import SolverParams, StepController

        t_end = 0.1
        params = SolverParams(cfl=0.4, lambda_variant=LambdaVariant.SECOND_ORDER)

        def solve_pulse(n):
            g = build_grid((n, 0, 0))
            u = initial_condition("gaussian_density_pulse", g, gas,
                                  floor=1.0, amplitude=0.4, width=0.12)
            ctrl = StepController(g, gas, params)
            u, _ = ctrl.advance(u, 0.0, t_end)
            return g, u

        wave = MMSWave()

        def solve_mms(n):
            g = build_grid((n, 0, 0))
            u = apply_boundary_state(wave.conserved(g, 0.0, gas), g)
            ctrl = StepController(g, gas, params, source=wave.source(gas))
            u, _ = ctrl.advance(u, 0.0, t_end)
            return g, u

        richardson = convergence_study([32, 64, 128], solve_pulse, exact=None)
        mms = convergence_study([32, 64, 128], solve_mms,
                                exact=lambda grid: wave.conserved(grid, t_end, gas))
        assert abs(richardson[0].order_l2 - mms[0].order_l2) <= 0.3
        assert abs(richardson[0].order_l1 - mms[0].order_l1) <= 0.3

    def test_table_render(self, gas):
        def solve(n):
            g = build_grid((n, 0, 0))
            return g, rest_state(g, gas) + g.spacing[0]

        text = format_convergence_table(convergence_study([8, 16], solve,
                                                          exact=lambda g: rest_state(g, gas)))
        assert "L2 error" in text and "16" in text


def sampled(t, u5, prim, grid, gas):
    """``(t, apriori_sample)`` of a field with primitives ``prim``, as a run's record keeps it."""
    return t, apriori_sample(prim, grid, totals(u5, grid, gas, t, prim=prim))


def recomputed_columns(u5, grid, gas, t):
    """The a priori report's sup and integrand values of one field, formed
    from the report's formulas on a conversion of the field itself."""
    prim = primitives_from_conserved(u5, gas)
    rec = totals(u5, grid, gas, t, prim=prim)
    vol = grid.cell_volumes
    sups = {
        "mass (L1 of rho)": float(np.sum(vol * prim.rho)),
        "L4 norm of rho": discrete_norm(prim.rho, grid, 4),
        "L1 of rho log rho": float(np.sum(vol * np.abs(prim.rho * prim.log_rho))),
        "L1 of 1/rho": float(np.sum(vol / prim.rho)),
        "L1 of sqrt(T)": float(np.sum(vol * np.sqrt(prim.T))),
        "L2^2 of sqrt(rho) v": float(np.sum(vol * prim.rho * prim.speed_sq)),
    }
    integrands = {
        "grad rho (L2^2)": gradient_norm_l2(prim.rho, grid) ** 2,
        "grad log rho (L2^2)": rec.norm_grad_log_rho ** 2,
        "grad rho^{5/2} (L2^2)": gradient_norm_l2(prim.rho ** 2.5, grid) ** 2,
        "grad 1/rho (L2^2)": gradient_norm_l2(1.0 / prim.rho, grid) ** 2,
        "grad T^{3/2} (L2^2)": rec.norm_grad_temp32 ** 2,
        "entropy dissipation": rec.entropy_dissipation,
    }
    return sups, integrands


def recomputed_report(states, grid, gas):
    """The a priori report of ``(t, field)`` pairs, formed from the fields:
    the max of each sup column and the trapezoid rule on each integrand."""
    times = np.array([t for t, _ in states])
    columns = [recomputed_columns(u5, grid, gas, t) for t, u5 in states]
    sup = {key: max(s[key] for s, _ in columns) for key in columns[0][0]}
    integrals = {key: float(np.trapezoid(np.array([i[key] for _, i in columns]), times))
                 for key in columns[0][1]}
    return {"sup": sup, "time_integrals": integrals, "t_span": (float(times[0]), float(times[-1]))}


@pytest.fixture(scope="module")
def recorded_demo_run():
    """demo.cfg physics at 16^3 to t = 0.04 with a record at every step:
    the config, the run's result and a copy of each field it recorded."""
    import gasbox.driver
    from gasbox.config import parse_config
    text = (pathlib.Path(__file__).resolve().parent.parent / "demo.cfg").read_text()
    cfg = parse_config(text.replace("t_end = 0.5", "t_end = 0.04").replace("cadence = 10", "cadence = 1"))
    assert cfg.grid_n == (16, 16, 16) and cfg.cadence == 1 and cfg.apriori_report
    states = []

    def capturing_totals(u5, *args, **kwargs):
        states.append(np.array(u5))
        return totals(u5, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gasbox.driver, "totals", capturing_totals)
        result = gasbox.driver.simulate(cfg)
    return cfg, result, states


class TestAprioriReport:
    def test_constant_history(self, gas):
        g = build_grid((4, 4, 4))
        u5 = rest_state(g, gas)
        prim = primitives_from_conserved(u5, gas)
        report = apriori_norm_report([sampled(t, u5, prim, g, gas) for t in (0.0, 1.0)])
        for key, value in report["time_integrals"].items():
            assert value == 0.0, key
        assert report["sup"]["mass (L1 of rho)"] == pytest.approx(1.0, rel=1e-14)

    def test_mass_constant_over_history(self, rng, gas):
        from gasbox.initial import initial_condition
        g = build_grid((8, 0, 0))
        u = initial_condition("gaussian_density_pulse", g, gas,
                              floor=1.0, amplitude=0.3, width=0.15)
        ctrl = StepController(g, gas, SolverParams(cfl=0.4))
        states = [u]
        history = [sampled(0.0, u, primitives_from_conserved(u, gas), g, gas)]

        def on_step(u_, t_, dt_, prim_):
            states.append(u_)
            history.append(sampled(t_, u_, prim_, g, gas))

        ctrl.advance(u, 0.0, 0.02, on_step=on_step)
        report = apriori_norm_report(history)
        masses = [float(np.sum(g.cell_volumes * f[0])) for f in states]
        assert max(masses) - min(masses) <= 1e-12 * masses[0]
        assert report["time_integrals"]["grad log rho (L2^2)"] > 0.0
        assert "a priori norm report" in format_apriori_report(report)

    def test_records_supply_the_face_terms_bitwise(self, recorded_demo_run):
        # demo physics at 16^3, a record at every step: each sample, which
        # reads the mass, the kinetic energy and the face terms from its
        # record, equals the report's formulas on a fresh conversion of its
        # field, with the face terms walked again
        cfg, result, states = recorded_demo_run
        assert result.steps > 1 and len(states) == len(result.records) == len(result.history)
        for (t, sample), rec, u5 in zip(result.history, result.records, states):
            assert t == rec.t and sample.shape == (12,)
            sups, integrands = recomputed_columns(u5, result.grid, cfg.gas, t)
            assert sample.tobytes() == np.array([*sups.values(), *integrands.values()]).tobytes()
        assert apriori_norm_report(result.history)["time_integrals"]["entropy dissipation"] > 0.0

    def test_report_equals_the_one_recomputed_from_the_recorded_fields(self, recorded_demo_run):
        # the report reduced from the twelve-value samples equals, bit for
        # bit, the one formed from the recorded fields themselves
        cfg, result, states = recorded_demo_run
        times = [rec.t for rec in result.records]
        expected = recomputed_report(list(zip(times, states)), result.grid, cfg.gas)
        assert apriori_norm_report(result.history) == expected
        assert result.history[-1][0] == result.t

    def test_history_memory_does_not_grow_with_a_field_per_record(self):
        # demo physics at 8^3, a record at every step: what a run retains
        # with the report on, beyond the same run with it off, grows by a
        # sample per record, not a field (a field alone is 29 KB here)
        import gc
        import tracemalloc

        from gasbox.config import parse_config
        from gasbox.driver import simulate
        text = (pathlib.Path(__file__).resolve().parent.parent / "demo.cfg").read_text()
        text = text.replace("n = 16 16 16", "n = 8 8 8").replace("cadence = 10", "cadence = 1")

        def retained(t_end, report):
            cfg = parse_config(text.replace("t_end = 0.5", f"t_end = {t_end}")
                               .replace("apriori_report = true", f"apriori_report = {report}"))
            gc.collect()
            tracemalloc.start()
            try:
                result = simulate(cfg)
                gc.collect()
                return len(result.records), tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        extra = {}
        for t_end in (0.75, 7.5):
            (records, on), (records_off, off) = retained(t_end, "true"), retained(t_end, "false")
            assert records == records_off
            extra[records] = on - off
        (short, short_extra), (long, long_extra) = sorted(extra.items())
        assert short <= 25 and long >= 150, extra
        assert (long_extra - short_extra) / (long - short) < 2048, extra

    def test_dissipation_integral_monotone_in_horizon(self, gas):
        # the time integral of the log-density gradient norm grows with the
        # integration horizon on a diffusion-only run
        from gasbox.initial import initial_condition
        g = build_grid((8, 0, 0))
        u = initial_condition("gaussian_density_pulse", g, gas,
                              floor=1.0, amplitude=0.3, width=0.15)
        ctrl = StepController(g, gas, SolverParams(cfl=0.4))
        history = [sampled(0.0, u, primitives_from_conserved(u, gas), g, gas)]
        ctrl.advance(u, 0.0, 0.03,
                     on_step=lambda u_, t_, dt_, prim_: history.append(sampled(t_, u_, prim_, g, gas)))
        integrals = [apriori_norm_report(history[:k])["time_integrals"]["grad log rho (L2^2)"]
                     for k in range(2, len(history) + 1)]
        assert all(np.isfinite(v) for v in integrals)
        assert all(b >= a for a, b in zip(integrals, integrals[1:]))
