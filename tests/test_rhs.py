import math

import numpy as np
import pytest

import gasbox.rhs
from gasbox.config import parse_config
from gasbox.diagnostics import apriori_sample, totals
from gasbox.driver import simulate
from gasbox.fluxes import (
    LambdaVariant,
    _gradient_vector,
    _radiation_row,
    artificial_coeff,
    convective_flux,
    diffusion_coeffs,
    split_diffusive_flux,
)
from gasbox.grid import build_grid
from gasbox.mms import MMSWave
from gasbox.rhs import apply_boundary_state, assemble_rhs, face_blocks, face_fluxes
from gasbox.thermo import (
    GasParams,
    PositivityError,
    conserved_from_primitives,
    face_means,
    primitives,
    primitives_from_conserved,
)
from gasbox.verify import random_admissible_field, random_states


def interior_faces(u5, gas, ax):
    """Face bundle of every interior face along ``ax``, from the two node slabs."""
    lo = (slice(None),) * (ax + 1) + (slice(None, -1),)
    hi = (slice(None),) * (ax + 1) + (slice(1, None),)
    return face_means(ax, primitives_from_conserved(u5[lo], gas), primitives_from_conserved(u5[hi], gas))


class TestBoundaryState:
    def test_zeroes_only_wall_momentum(self, rng, gas):
        g = build_grid((4, 4, 4))
        u5 = rng.uniform(0.5, 1.5, (5,) + g.shape)
        out = apply_boundary_state(u5, g)
        mask = g.wall_mask
        assert np.all(out[1:4][:, mask] == 0.0)
        assert np.array_equal(out[0], u5[0])
        assert np.array_equal(out[4], u5[4])
        assert np.array_equal(out[1:4][:, ~mask], u5[1:4][:, ~mask])

    @pytest.mark.parametrize("n", [(6, 5, 4), (6, 5, 0), (7, 0, 0)])
    def test_wall_planes_equal_the_mask_form(self, rng, n):
        # the tendency and apply_boundary_state zero the wall momenta through
        # the six wall planes; bit for bit what boolean-mask indexing gives
        g = build_grid(n)
        u5 = rng.normal(size=(5,) + g.shape)
        by_mask = u5.copy()
        by_mask[1:4, g.wall_mask] = 0.0
        planes = u5.copy()
        gasbox.rhs._zero_wall_momenta(planes, g)
        assert planes.tobytes() == by_mask.tobytes()
        assert apply_boundary_state(u5, g).tobytes() == by_mask.tobytes()

    def test_wall_node_count(self):
        # (N+1)^3 - (N-1)^3 wall nodes for N = 4: 125 - 27 = 98
        g = build_grid((4, 4, 4))
        assert int(g.wall_mask.sum()) == 98

    def test_compliant_field_unchanged(self, rng, gas):
        g = build_grid((4, 4, 4))
        u5 = apply_boundary_state(rng.uniform(0.5, 1.5, (5,) + g.shape), g)
        assert np.array_equal(apply_boundary_state(u5, g), u5)

    def test_degenerate_axes_have_no_walls(self):
        g = build_grid((8, 0, 0))
        mask = g.wall_mask
        assert int(mask.sum()) == 2  # only the two x-wall nodes


class TestAssembleRhs:
    def test_uniform_rest_state_is_steady(self, gas):
        g = build_grid((6, 6, 6))
        rho = np.ones(g.shape)
        u5 = conserved_from_primitives(rho, (0 * rho, 0 * rho, 0 * rho), rho, gas)
        tend = assemble_rhs(u5, g, gas)
        assert np.all(tend == 0.0)

    @pytest.mark.parametrize("n", [(4, 4, 4), (8, 8, 8), (16, 0, 0)])
    def test_mass_and_energy_conservation(self, rng, gas, n):
        g = build_grid(n)
        for _ in range(5):
            u5 = random_admissible_field(rng, g, gas, rho_range=(1e-3, 1e3),
                                         temp_range=(1e-3, 1e3), vel_max=10.0)
            tend = assemble_rhs(u5, g, gas)
            vol = g.cell_volumes
            scale = max(1.0, float(np.sum(vol * np.abs(tend[0]))),
                        float(np.sum(vol * np.abs(tend[4]))))
            assert abs(float(np.sum(vol * tend[0]))) <= 1e-13 * scale
            assert abs(float(np.sum(vol * tend[4]))) <= 1e-13 * scale

    def test_wall_momentum_rows_exactly_zero(self, rng, gas):
        g = build_grid((6, 6, 6))
        u5 = random_admissible_field(rng, g, gas)
        tend = assemble_rhs(u5, g, gas)
        assert np.all(tend[1:4][:, g.wall_mask] == 0.0)

    @pytest.mark.parametrize("variant", list(LambdaVariant))
    def test_entropy_production_nonpositive(self, rng, gas, variant):
        from gasbox.thermo import entropy_variables
        g = build_grid((6, 6, 6))
        for _ in range(5):
            u5 = random_admissible_field(rng, g, gas)
            prim = primitives_from_conserved(u5, gas)
            w = entropy_variables(prim, gas)
            tend = assemble_rhs(u5, g, gas, variant)
            production = float(np.sum(g.cell_volumes * np.sum(w * tend, axis=0)))
            assert production <= 1e-11 * max(1.0, abs(production))

    def test_positivity_fault_reports_cell(self, gas):
        g = build_grid((4, 4, 4))
        rho = np.ones(g.shape)
        u5 = conserved_from_primitives(rho, (0 * rho, 0 * rho, 0 * rho), rho, gas)
        u5[0, 2, 1, 3] = -0.5
        with pytest.raises(PositivityError) as err:
            assemble_rhs(u5, g, gas)
        assert err.value.index == (2, 1, 3)

    @pytest.mark.parametrize("n", [(6, 5, 4), (16, 0, 0)])
    def test_tendency_into_its_own_state(self, rng, gas, n):
        # a later RK stage hands its state as ``out``: the state is converted
        # first, then overwritten by the tendency, bit for bit the new array's;
        # an inadmissible state is left as it was
        g = build_grid(n)
        u5 = random_admissible_field(rng, g, gas)
        forcing = rng.normal(size=u5.shape)
        expected = assemble_rhs(u5, g, gas, LambdaVariant.SECOND_ORDER, forcing=forcing)
        buf = u5.copy()
        tend = assemble_rhs(buf, g, gas, LambdaVariant.SECOND_ORDER, forcing=forcing, out=buf)
        assert tend is buf and tend.tobytes() == expected.tobytes()
        bad = u5.copy()
        bad[4, 2] = -1.0
        before = bad.tobytes()
        with pytest.raises(PositivityError):
            assemble_rhs(bad, g, gas, out=bad)
        assert bad.tobytes() == before


class TestTranslationInvariance:
    def test_density_bump_diffuses_without_convection(self, gas):
        # bumping rho in one cell of a rest state leaves p uniform, so the
        # momentum rows see no pressure gradient and nothing advects;
        # the mass row must match a hand-built pure-diffusion update
        g = build_grid((6, 6, 6))
        rho = np.ones(g.shape)
        u5 = conserved_from_primitives(rho, (0 * rho, 0 * rho, 0 * rho), rho, gas)
        u5[0, 3, 3, 3] += 0.25
        tend = assemble_rhs(u5, g, gas)

        p_over_h = 1.0 / (0.4 * g.spacing[0])
        assert np.max(np.abs(tend[1:4])) <= 1e-13 * p_over_h

        expected = np.zeros(g.shape)
        for ax in g.active_axes:
            face = interior_faces(u5, gas, ax)
            h = g.spacing[ax]
            flux = split_diffusive_flux(face, h, LambdaVariant.FIRST_ORDER, gas)[0][0]
            shape = list(g.shape)
            shape[ax] += 1
            ext = np.zeros(shape)
            sl = [slice(None)] * 3
            sl[ax] = slice(1, -1)
            ext[tuple(sl)] = flux
            expected += np.diff(ext, axis=ax) / np.expand_dims(g.widths[ax], tuple({0, 1, 2} - {ax}))
        assert np.max(np.abs(tend[0] - expected)) <= 1e-13 * np.max(np.abs(expected))

    def test_rest_state_stays_at_rest_under_lambda(self, gas):
        # with v = 0 everywhere the artificial coefficient vanishes: the
        # mass tendency is physical diffusion only
        g = build_grid((6, 0, 0))
        rho = np.ones(g.shape)
        u5 = conserved_from_primitives(rho, (0 * rho, 0 * rho, 0 * rho), rho, gas)
        u5[0, 3, 0, 0] = 1.5  # conserved density only: pressure stays uniform
        for variant in LambdaVariant:
            tend = assemble_rhs(u5, g, gas, variant)
            assert np.all(artificial_coeff(interior_faces(u5, gas, 0), variant) == 0.0)
            assert np.all(tend[1:4] == 0.0) or np.max(np.abs(tend[1:4])) <= 1e-14


class TestSourceHook:
    def test_no_hook_leaves_tendency(self, rng, gas):
        g = build_grid((4, 4, 4))
        u5 = random_admissible_field(rng, g, gas)
        assert np.array_equal(assemble_rhs(u5, g, gas),
                              assemble_rhs(u5, g, gas, forcing=None))

    def test_constant_mass_source_integrates_to_box_volume(self, gas):
        g = build_grid((4, 4, 4), (1.0, 2.0, 1.0))
        rho = np.ones(g.shape)
        u5 = conserved_from_primitives(rho, (0 * rho, 0 * rho, 0 * rho), rho, gas)
        s = 0.7
        forcing = np.zeros((5,) + g.shape)
        forcing[0] = s

        tend = assemble_rhs(u5, g, gas, forcing=forcing)
        total = float(np.sum(g.cell_volumes * tend[0]))
        assert total == pytest.approx(s * math.prod(g.extent), rel=1e-13)

    def test_wall_momentum_rows_override_source(self, gas):
        g = build_grid((4, 4, 4))
        rho = np.ones(g.shape)
        u5 = conserved_from_primitives(rho, (0 * rho, 0 * rho, 0 * rho), rho, gas)

        tend = assemble_rhs(u5, g, gas, forcing=np.ones((5,) + g.shape))
        assert np.all(tend[1:4][:, g.wall_mask] == 0.0)

    def test_manufactured_source_cancels_residual_at_second_order(self, gas):
        # with the forcing active the analytic state must satisfy the
        # semi-discrete system up to truncation error that drops ~4x per
        # refinement (floorless sensor)
        wave = MMSWave()
        t = 0.13
        norms = []
        for n in (64, 128):
            g = build_grid((n, 0, 0))
            u5 = apply_boundary_state(wave.conserved(g, t, gas), g)
            tend = assemble_rhs(u5, g, gas, LambdaVariant.SECOND_ORDER,
                                forcing=wave.source(gas)(g, t))
            dt_exact = (wave.conserved(g, t + 1e-6, gas) - wave.conserved(g, t - 1e-6, gas)) / 2e-6
            dt_exact[1:4][:, g.wall_mask] = 0.0
            norms.append(float(np.max(np.abs(tend - dt_exact))))
        assert norms[1] <= norms[0] / 3.0


class TestDegenerateAxes:
    def test_1d_run_has_no_transverse_fluxes(self, rng, gas):
        g = build_grid((16, 0, 0))
        u5 = random_admissible_field(rng, g, gas, vel_max=1.0)
        tend = assemble_rhs(u5, g, gas)
        assert tend.shape == (5, 17, 1, 1)
        assert np.all(np.isfinite(tend))


class TestBlocks:
    @pytest.mark.parametrize("variant", list(LambdaVariant))
    @pytest.mark.parametrize("n", [(7, 6, 5), (6, 9, 0), (12, 0, 0)])
    def test_blocked_faces_match_one_block(self, rng, gas, monkeypatch, variant, n):
        # every face value is computed elementwise, so splitting the faces
        # into blocks of a few planes (the last one partial) changes no bit
        g = build_grid(n)
        u5 = random_admissible_field(rng, g, gas)

        def run(grid):
            axis_max = {}

            def on_block(face, index, flux, tilde_nu):
                m = float(np.max(tilde_nu))
                axis_max[face.axis] = max(axis_max.get(face.axis, -np.inf), m)

            return assemble_rhs(u5, grid, gas, variant, on_block=on_block), axis_max

        whole, one_block = run(g)
        monkeypatch.setattr(gasbox.rhs, "_BLOCK_FACES", 60)
        small = build_grid(n)  # a grid is planned once, so the small blocks need a new one
        blocked, small_blocks = run(small)
        assert np.array_equal(blocked, whole)
        assert small_blocks == one_block and sorted(one_block) == list(g.active_axes)
        blocks = [len(gasbox.rhs._walk_plan(grid)[0]) for grid in (g, small)]
        if len(g.active_axes) > 1:
            assert blocks[1] > blocks[0]
        else:
            assert blocks == [1, 1], "a 1D grid is one block at any _BLOCK_FACES, so it tests no blocking"


class TestWalkPlan:
    @pytest.mark.parametrize("text", [
        "[grid]\nn = 8 6 4\n[solver]\nt_end = 0.2\n[initial]\npreset = gaussian_density_pulse\n"
        "[output]\ncadence = 1\n",
        "[grid]\nn = 32 0 0\n[gas]\nmu0 = 0.01\n[solver]\nt_end = 0.05\n[initial]\npreset = mms_wave\n"
        "[output]\ncadence = 1\n",
    ], ids=["pulse-3d", "mms-1d"])
    def test_a_run_plans_its_walk_once(self, monkeypatch, text):
        # every walk of the run reads one plan object, so it was built once
        cfg = parse_config(text)  # its admissibility probe walks a grid of its own
        plans = []
        walk_plan = gasbox.rhs._walk_plan

        def recording_plan(grid):
            plans.append((grid, walk_plan(grid)))
            return plans[-1][1]

        monkeypatch.setattr(gasbox.rhs, "_walk_plan", recording_plan)
        result = simulate(cfg)
        assert result.steps > 2 and len(result.records) > 2
        assert len(plans) > 3 * result.steps and all(grid is result.grid for grid, _ in plans)
        assert len({id(plan) for _, plan in plans}) == 1

    @pytest.mark.parametrize("n", [(64, 64, 64), (32, 16, 0), (256, 0, 0), (7, 5, 3)])
    def test_face_blocks_keep_their_blocks(self, rng, gas, n):
        # the (axis, index) sequence of the walk from before it was planned
        # once per grid, and each block's sides cut out of the whole field
        g = build_grid(n)
        expected = []
        for ax in g.active_axes:
            b = 1 if ax == 0 else 0
            step = max(1, gasbox.rhs._BLOCK_FACES * g.shape[b] // math.prod(g.shape))
            expected += [(ax, (slice(None),) * b + (slice(lo, lo + step),))
                         for lo in range(0, g.shape[b], step)]
        rho, p = (rng.uniform(0.5, 2.0, g.shape) for _ in range(2))
        prim = primitives(rho, tuple(rng.uniform(-1.0, 1.0, g.shape) for _ in range(3)), p, gas)
        blocks = list(face_blocks(prim, g))
        assert [(face.axis, index) for face, index in blocks] == expected
        for face, index in blocks:
            cut = [slice(None)] * 3
            cut[face.axis] = slice(None, -1)
            assert np.array_equal(face.left.rho, prim.rho[index][tuple(cut)])
            assert np.array_equal(face.left.vel, prim.vel[(slice(None),) + index][(slice(None),) + tuple(cut)])
            cut[face.axis] = slice(1, None)
            assert np.array_equal(face.right.momenta,
                                  prim.momenta[(slice(None),) + index][(slice(None),) + tuple(cut)])


class TestFaceFluxes:
    @pytest.mark.parametrize("kappa_r", [0.0, 1e-2])
    @pytest.mark.parametrize("variant", list(LambdaVariant))
    def test_one_diffusive_pass_is_the_combined_formula(self, rng, variant, kappa_r):
        # the time loop's face flux is the convective flux minus tilde_nu
        # times the gradient stencil plus the radiation row, bit for bit
        gas = GasParams(gamma=1.4, R=1.0, mu0=0.01, mu1=1e-4, kappa_r=kappa_r)
        g = build_grid((50, 0, 0))
        face = face_means(0, random_states(rng, 10**4, gas), random_states(rng, 10**4, gas))
        flux, tilde_nu = face_fluxes(face, g, gas, variant)
        h = g.spacing[0]
        diffusive = tilde_nu * _gradient_vector(face, h, gas)
        if kappa_r != 0.0:
            diffusive[4] += _radiation_row(face, h, gas)
        expected = convective_flux(face, gas) - diffusive
        assert np.array_equal(flux, expected)
        assert np.array_equal(tilde_nu, diffusion_coeffs(face, h, variant, gas))


class TestUfuncBudget:
    # Counted numpy work of the hot path (README "Performance"): every ufunc
    # call is one pass of numpy's dispatch, which costs more than its
    # arithmetic on a 1D grid of 256 faces, and every element of a call is
    # one elementwise pass, which is what the 3D tendency pays for.  The
    # counts are exact; a change that moves one updates the pin and the
    # README together.
    GAS = GasParams(gamma=1.4, R=1.0, mu0=0.01, mu1=1e-4, kappa_r=1e-6)

    def _field(self, n):
        grid = build_grid(n)
        u5 = random_admissible_field(np.random.default_rng(3), grid, self.GAS, rho_range=(0.5, 2.0),
                                     temp_range=(0.5, 2.0), vel_max=0.5)
        return grid, u5

    @staticmethod
    def _calls(tally):
        return sum(calls for calls, _ in tally.values())

    def test_conversion_calls(self, count_ufuncs):
        _, u5 = self._field((256, 0, 0))
        prim, tally = count_ufuncs(primitives_from_conserved, u5, self.GAS)
        assert self._calls(tally) == 25, tally
        assert np.array_equal(prim.nodes, primitives_from_conserved(u5, self.GAS).nodes)

    def test_1d_tendency_calls(self, count_ufuncs):
        # the mms1d set-up: N = 256, the second-order sensor, radiation on
        grid, u5 = self._field((256, 0, 0))
        variant = LambdaVariant.SECOND_ORDER
        prim, _ = count_ufuncs(primitives_from_conserved, u5, self.GAS)
        tend, tally = count_ufuncs(assemble_rhs, u5, grid, self.GAS, variant, prim=prim)
        assert self._calls(tally) == 85, tally
        assert tend.tobytes() == assemble_rhs(u5, grid, self.GAS, variant).tobytes()

    def test_3d_tendency_passes_per_face(self, count_ufuncs):
        grid, u5 = self._field((16, 16, 16))
        prim, _ = count_ufuncs(primitives_from_conserved, u5, self.GAS)
        tend, tally = count_ufuncs(assemble_rhs, u5, grid, self.GAS, prim=prim)
        faces = sum(math.prod(n - (k == ax) for k, n in enumerate(grid.shape)) for ax in grid.active_axes)
        assert sum(elements for _, elements in tally.values()) / faces == 123.3125, tally
        assert tend.tobytes() == assemble_rhs(u5, grid, self.GAS, prim=prim).tobytes()

    def test_1d_tendency_into_its_state_calls(self, count_ufuncs):
        # a later RK stage's tendency, written into its own state's buffer,
        # costs the calls of the new-array path and equals it bit for bit
        grid, u5 = self._field((256, 0, 0))
        variant = LambdaVariant.SECOND_ORDER
        prim, _ = count_ufuncs(primitives_from_conserved, u5, self.GAS)
        buf = u5.copy()
        tend, tally = count_ufuncs(assemble_rhs, buf, grid, self.GAS, variant, prim=prim, out=buf)
        assert self._calls(tally) == 85, tally
        assert np.shares_memory(tend, buf)
        assert buf.tobytes() == assemble_rhs(u5, grid, self.GAS, variant).tobytes()

    def test_3d_tendency_into_its_state_passes_per_face(self, count_ufuncs):
        grid, u5 = self._field((16, 16, 16))
        prim, _ = count_ufuncs(primitives_from_conserved, u5, self.GAS)
        buf = u5.copy()
        tend, tally = count_ufuncs(assemble_rhs, buf, grid, self.GAS, prim=prim, out=buf)
        faces = sum(math.prod(n - (k == ax) for k, n in enumerate(grid.shape)) for ax in grid.active_axes)
        assert sum(elements for _, elements in tally.values()) / faces == 123.3125, tally
        assert np.shares_memory(tend, buf)
        assert buf.tobytes() == assemble_rhs(u5, grid, self.GAS, prim=prim).tobytes()

    def test_record_passes_per_face(self, count_ufuncs):
        # a diagnostics record costs about as much as a tendency: one walk
        # over the face bundles plus the node sums and gradient norms
        grid, u5 = self._field((16, 16, 16))
        prim, _ = count_ufuncs(primitives_from_conserved, u5, self.GAS)
        rec, tally = count_ufuncs(totals, u5, grid, self.GAS, prim=prim)
        faces = sum(math.prod(n - (k == ax) for k, n in enumerate(grid.shape)) for ax in grid.active_axes)
        assert sum(elements for _, elements in tally.values()) / faces == 104.39583333333333, tally
        plain = totals(u5, grid, self.GAS, prim=primitives_from_conserved(u5, self.GAS))
        assert np.array(rec.row()).tobytes() == np.array(plain.row()).tobytes()

    def test_apriori_sample_calls(self, count_ufuncs):
        grid, u5 = self._field((16, 16, 16))
        prim = primitives_from_conserved(u5, self.GAS)
        rec = totals(u5, grid, self.GAS, prim=prim)
        counted, _ = count_ufuncs(primitives_from_conserved, u5, self.GAS)
        sample, tally = count_ufuncs(apriori_sample, counted, grid, rec)
        assert self._calls(tally) == 60, tally
        assert sample.tobytes() == apriori_sample(prim, grid, rec).tobytes()
