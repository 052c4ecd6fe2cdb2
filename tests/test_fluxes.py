import mpmath
import numpy as np
import pytest

from gasbox.fluxes import (
    LambdaVariant,
    _gradient_vector,
    _mean_logmean_jump_ratio,
    _radiation_row,
    artificial_coeff,
    convective_flux,
    density_jump_sensor,
    diffusion_coeffs,
    frak_p,
    lambda_alt_coeffs,
    physical_coeff,
    split_diffusive_flux,
)
from gasbox.means import arith_mean, log_mean, pair_means
from gasbox.thermo import GasParams, face_means, primitives


def make_states(gas, rho, vel, p):
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    vel = tuple(np.broadcast_to(np.asarray(c, dtype=float), rho.shape) for c in vel)
    p = np.broadcast_to(np.asarray(p, dtype=float), rho.shape)
    return primitives(rho, vel, p, gas)


def density_pairs(a, b):
    return pair_means(a, b, np.log(a), np.log(b))


def lambda_face(axis, left, right, variant):
    return artificial_coeff(face_means(axis, left, right), variant)


def random_states(rng, n, gas, vel_max=10.0):
    rho = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), n))
    temp = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), n))
    vel = tuple(rng.uniform(-vel_max, vel_max, n) for _ in range(3))
    return primitives(rho, vel, rho * gas.R * temp, gas)


def exact_flux(axis, states, gas):
    un = states.vel[axis]
    rows = [states.rho * un]
    for c in range(3):
        row = states.rho * states.vel[c] * un
        if c == axis:
            row = row + states.p
        rows.append(row)
    energy = states.p / (gas.gamma - 1.0) + 0.5 * states.rho * states.speed_sq
    rows.append((energy + states.p) * un)
    return np.stack(rows)


class TestConvectiveFlux:
    def test_rest_state_only_pressure(self, inviscid_gas):
        q = make_states(inviscid_gas, 1.0, (0.0, 0.0, 0.0), 1.0)
        for ax in range(3):
            f = convective_flux(face_means(ax, q, q), inviscid_gas)
            expected = np.zeros(5)
            expected[ax + 1] = 1.0
            assert np.allclose(f[:, 0], expected, atol=1e-15)

    def test_equal_states_hand_value(self, inviscid_gas):
        # rho = u = p = 1, gamma = 1.4: exact flux (1, 2, 0, 0, 4) with E = 3
        q = make_states(inviscid_gas, 1.0, (1.0, 0.0, 0.0), 1.0)
        f = convective_flux(face_means(0, q, q), inviscid_gas)
        assert np.allclose(f[:, 0], [1.0, 2.0, 0.0, 0.0, 4.0], rtol=1e-14)

    def test_consistency_with_exact_flux(self, rng, inviscid_gas):
        q = random_states(rng, 10**4, inviscid_gas)
        for ax in range(3):
            f = convective_flux(face_means(ax, q, q), inviscid_gas)
            ref = exact_flux(ax, q, inviscid_gas)
            scale = np.maximum(1.0, np.abs(ref))
            assert np.max(np.abs(f - ref) / scale) <= 1e-13

    def test_velocity_negation_symmetry(self, rng, inviscid_gas):
        left = random_states(rng, 10**3, inviscid_gas)
        right = random_states(rng, 10**3, inviscid_gas)
        flipped_l = primitives(left.rho, tuple(-c for c in left.vel), left.p, inviscid_gas)
        flipped_r = primitives(right.rho, tuple(-c for c in right.vel), right.p, inviscid_gas)
        f = convective_flux(face_means(0, left, right), inviscid_gas)
        g = convective_flux(face_means(0, flipped_l, flipped_r), inviscid_gas)
        scale = np.maximum(1.0, np.max(np.abs(f), axis=0))
        # mass and energy rows flip sign, momentum rows are unchanged
        assert np.max(np.abs(g[0] + f[0]) / scale) <= 1e-14
        assert np.max(np.abs(g[4] + f[4]) / scale) <= 1e-14
        for c in (1, 2, 3):
            assert np.max(np.abs(g[c] - f[c]) / scale) <= 1e-14

    def test_axis_permutation(self, rng, inviscid_gas):
        # the y-face flux is the x-face flux of the velocity-rotated state
        left = random_states(rng, 10**3, inviscid_gas)
        right = random_states(rng, 10**3, inviscid_gas)
        f_y = convective_flux(face_means(1, left, right), inviscid_gas)
        rot = lambda s: primitives(s.rho, (s.vel[1], s.vel[2], s.vel[0]), s.p, inviscid_gas)
        f_x = convective_flux(face_means(0, rot(left), rot(right)), inviscid_gas)
        assert np.array_equal(f_y[0], f_x[0])
        assert np.array_equal(f_y[2], f_x[1])  # normal rows
        assert np.array_equal(f_y[3], f_x[2])
        assert np.array_equal(f_y[1], f_x[3])
        # the energy row sums the squared-speed terms in rotated order, so
        # it agrees to rounding of its constituent terms rather than bitwise
        speed_sq = arith_mean(left.speed_sq, right.speed_sq)
        beta_log = log_mean(left.beta, right.beta)
        terms = np.abs(f_y[0]) * (1.0 / (2.0 * 0.4 * beta_log) + 1.5 * speed_sq)
        scale = np.maximum(1.0, np.maximum(terms, np.abs(f_y[4])))
        assert np.max(np.abs(f_y[4] - f_x[4]) / scale) <= 1e-15

    @pytest.mark.parametrize("pairs", ["large-data", "mirrored", "nearly-mirrored"])
    def test_energy_bracket_is_the_mean_velocity_form(self, rng, gas, pairs):
        # the energy row forms ie - mean(|v|^2)/2 + |mean v|^2 as
        # ie + mean(|v|^2)/2 - |jump v|^2/4; it matches the first form to
        # rounding of its terms, also where v_R ~ -v_L makes the last two
        # terms cancel
        n = 10**5
        left, right = random_states(rng, n, gas), random_states(rng, n, gas)
        if pairs != "large-data":
            spread = 0.0 if pairs == "mirrored" else 1e-6
            vel = tuple(-c * (1.0 + rng.uniform(-spread, spread, n)) for c in left.vel)
            right = primitives(right.rho, vel, right.p, gas)
        for ax in range(3):
            face = face_means(ax, left, right)
            ie = face.inv_log_mean_beta * (0.5 / (gas.gamma - 1.0))
            vel_bar_sq = face.vel_bar[0] ** 2 + face.vel_bar[1] ** 2 + face.vel_bar[2] ** 2
            mass_flux = face.normal_momentum_bar
            pressure_work = face.p_face * face.vel_bar[ax]
            written = (ie - face.ke_bar + vel_bar_sq) * mass_flux + pressure_work
            # the rounding scale of the bracket times the mass flux, plus one
            # ulp of the pressure work added to both rows alike
            scale = (ie + face.ke_bar + vel_bar_sq) * np.abs(mass_flux) + np.abs(pressure_work)
            err = np.abs(convective_flux(face, gas)[4] - written) / scale
            assert np.max(err) <= 16 * np.finfo(float).eps, np.max(err)


class TestSensorsAndLambda:
    def test_equal_density_moving(self, inviscid_gas):
        left = make_states(inviscid_gas, 1.0, (2.0, 0.0, 0.0), 1.0)
        assert lambda_face(0, left, left, LambdaVariant.FIRST_ORDER) == pytest.approx(1.0)

    def test_rest_state(self, inviscid_gas):
        q = make_states(inviscid_gas, 1.0, (0.0, 0.0, 0.0), 1.0)
        for variant in LambdaVariant:
            assert lambda_face(0, q, q, variant) == 0.0

    def test_log_density_jump_dominates_floor(self, inviscid_gas):
        left = make_states(inviscid_gas, 1.0, (1.0, 0.0, 0.0), 1.0)
        right = make_states(inviscid_gas, np.e, (1.0, 0.0, 0.0), 1.0)
        lam = lambda_face(0, left, right, LambdaVariant.FIRST_ORDER)
        assert lam == pytest.approx(1.0, rel=1e-14)  # |u|*max(1/2, 1) + 0

    def test_normal_component_selects_axis(self, inviscid_gas):
        left = make_states(inviscid_gas, 1.0, (2.0, 4.0, 6.0), 1.0)
        for ax, expected in zip(range(3), (1.0, 2.0, 3.0)):
            assert lambda_face(ax, left, left, LambdaVariant.FIRST_ORDER) == pytest.approx(expected)

    def test_floorless_sensor_vanishes_at_equal_density(self):
        assert density_jump_sensor(density_pairs(2.0, 2.0), LambdaVariant.SECOND_ORDER) == 0.0

    @pytest.mark.parametrize("zeta_exp", range(1, 15))
    def test_jump_ratio_series_against_high_precision(self, zeta_exp):
        # straddles the series switch at |zeta| = 1e-2; the direct branch
        # above the switch loses ~zeta^-2 eps to cancellation
        mean = 1.3
        zeta = 10.0 ** (-zeta_exp)
        rho_l = mean * (1.0 - zeta)
        rho_r = mean * (1.0 + zeta)
        # two nested cancellations (log difference, then mean difference)
        # eat ~3 zeta-decades of precision each: 80 digits keeps the
        # reference exact down to zeta = 1e-14
        with mpmath.workdps(80):
            a, b = mpmath.mpf(rho_l), mpmath.mpf(rho_r)
            logmean = (b - a) / (mpmath.log(b) - mpmath.log(a))
            ref = float(((a + b) / 2 - logmean) / (b - a))
        got = float(_mean_logmean_jump_ratio(density_pairs(rho_l, rho_r)))
        eps = np.finfo(float).eps
        tol = 1e-14 if zeta < 1e-2 else 30.0 * eps / zeta ** 2
        assert abs(got - ref) <= tol * abs(ref)

    def test_jump_ratio_sign_and_bound(self, rng):
        a = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), 10**5))
        b = a * np.exp(rng.uniform(np.log(1e-6), np.log(1e6), 10**5))
        b[::10] = a[::10]  # exactly equal pairs: the ratio is +0.0
        ratio = _mean_logmean_jump_ratio(density_pairs(a, b))
        assert np.all(np.sign(ratio) == np.sign(b - a))
        assert not np.any(np.signbit(ratio[::10]))
        assert np.max(np.abs(ratio)) <= 0.5 + 1e-12

    def test_floor_sensor_dominance(self, rng):
        # the floored sensor bounds every jump ratio the stability argument uses
        n = 10**5
        a = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), n))
        b = a * np.exp(rng.uniform(np.log(1e-6), np.log(1e6), n))
        sensor = density_jump_sensor(density_pairs(a, b), LambdaVariant.FIRST_ORDER)
        am, lm = arith_mean(a, b), log_mean(a, b)
        alternatives = np.maximum.reduce([
            np.full(n, 0.5),
            np.abs(b - a) / (12.0 * am),
            np.abs(np.sqrt(b) - np.sqrt(a)) / (2.0 * (np.sqrt(b) + np.sqrt(a))),
            0.5 * am * np.abs(b - a) / (a * a + a * b + b * b),
            np.abs(b - a) / lm,
        ])
        assert np.max((alternatives - sensor) / np.maximum(1.0, sensor)) <= 1e-14

    def test_floor_sensor_dominates_floorless(self, rng, inviscid_gas):
        left = random_states(rng, 10**5, inviscid_gas)
        right = random_states(rng, 10**5, inviscid_gas)
        rho = face_means(0, left, right).rho
        first = density_jump_sensor(rho, LambdaVariant.FIRST_ORDER)
        second = density_jump_sensor(rho, LambdaVariant.SECOND_ORDER)
        assert np.all(second <= first * (1.0 + 1e-14))

    def test_alt_coefficients_nonnegative(self, rng, inviscid_gas):
        left = random_states(rng, 10**5, inviscid_gas)
        right = random_states(rng, 10**5, inviscid_gas)
        for variant in LambdaVariant:
            lam_a, lam_c = lambda_alt_coeffs(face_means(0, left, right), variant, inviscid_gas)
            assert np.min(lam_a) >= -1e-15
            assert np.min(lam_c) >= -1e-15

    def test_alt_coefficients_rewrite_the_mass_flux(self, rng, inviscid_gas):
        # mean(rho u) - lam jump(rho) = mean(rho) mean(u) - lam_a jump(rho)
        #                             = geomean(rho) mean(u) - lam_c jump(rho)
        left = random_states(rng, 10**4, inviscid_gas)
        right = random_states(rng, 10**4, inviscid_gas)
        lam = lambda_face(0, left, right, LambdaVariant.FIRST_ORDER)
        lam_a, lam_c = lambda_alt_coeffs(face_means(0, left, right), LambdaVariant.FIRST_ORDER,
                                         inviscid_gas)
        d_rho = right.rho - left.rho
        u_bar = arith_mean(left.vel[0], right.vel[0])
        rho_u_mean = arith_mean(left.rho * left.vel[0], right.rho * right.vel[0])
        base = rho_u_mean - lam * d_rho
        form_a = arith_mean(left.rho, right.rho) * u_bar - lam_a * d_rho
        form_c = np.sqrt(left.rho * right.rho) * u_bar - lam_c * d_rho
        scale = np.maximum.reduce([np.ones_like(base), np.abs(rho_u_mean),
                                   np.abs(lam * d_rho), np.abs(base)])
        assert np.max(np.abs(form_a - base) / scale) <= 1e-13
        assert np.max(np.abs(form_c - base) / scale) <= 1e-13


class TestDiffusionCoeffs:
    def test_equal_density(self, inviscid_gas):
        gas = GasParams(gamma=1.4, R=1.0, mu0=1.0, mu1=0.01)
        q = make_states(gas, 2.0, (0.0, 0.0, 0.0), 1.0)
        face = face_means(0, q, q)
        nu = physical_coeff(face, gas)
        assert nu[0] == pytest.approx(0.52, rel=1e-14)
        assert artificial_coeff(face, LambdaVariant.FIRST_ORDER)[0] == 0.0
        assert diffusion_coeffs(face, 0.1, LambdaVariant.FIRST_ORDER, gas)[0] == nu[0]

    def test_log_mean_in_rarefied_part(self):
        gas = GasParams(gamma=1.4, R=1.0, mu0=1.0, mu1=0.0)
        left = make_states(gas, 1.0, (0.0, 0.0, 0.0), 1.0)
        right = make_states(gas, np.e, (0.0, 0.0, 0.0), 1.0)
        nu = physical_coeff(face_means(0, left, right), gas)
        assert nu[0] == pytest.approx(1.0 / (np.e - 1.0), rel=1e-14)

    def test_combined_exceeds_physical(self, rng, gas):
        left = random_states(rng, 10**4, gas)
        right = random_states(rng, 10**4, gas)
        face = face_means(0, left, right)
        nu = physical_coeff(face, gas)
        assert np.all(nu > 0.0)
        assert np.all(artificial_coeff(face, LambdaVariant.FIRST_ORDER) >= 0.0)
        assert np.all(diffusion_coeffs(face, 0.05, LambdaVariant.FIRST_ORDER, gas) >= nu)

    @pytest.mark.parametrize("variant", list(LambdaVariant))
    def test_combined_is_physical_plus_h_artificial(self, rng, gas, variant):
        face = face_means(1, random_states(rng, 10**4, gas), random_states(rng, 10**4, gas))
        expected = physical_coeff(face, gas) + 0.05 * artificial_coeff(face, variant)
        assert np.array_equal(diffusion_coeffs(face, 0.05, variant, gas), expected)


class TestPressureDiffusionScalar:
    def test_uniform_state(self, inviscid_gas):
        q = make_states(inviscid_gas, 1.0, (0.0, 0.0, 0.0), 1.0)
        assert frak_p(face_means(0, q, q), 1.0)[0] == 0.0

    def test_density_jump_uniform_temperature(self, inviscid_gas):
        left = make_states(inviscid_gas, 1.0, (0.0, 0.0, 0.0), 1.0)
        right = make_states(inviscid_gas, 2.0, (0.0, 0.0, 0.0), 2.0)  # T = 1 both
        assert frak_p(face_means(0, left, right), 1.0)[0] == pytest.approx(1.0, rel=1e-14)

    def test_temperature_jump_uniform_density(self, inviscid_gas):
        left = make_states(inviscid_gas, 1.0, (0.0, 0.0, 0.0), 1.0)   # T = 1
        right = make_states(inviscid_gas, 1.0, (0.0, 0.0, 0.0), 2.0)  # T = 2
        # (rho_bar/2) jump(1/beta) = (1/2)(2 R dT) = 1
        assert frak_p(face_means(0, left, right), 1.0)[0] == pytest.approx(1.0, rel=1e-14)


class TestDiffusiveFlux:
    def unit_coefficient_flux(self, left, right, h):
        """The diffusive flux over nu of states at rest (lambda = 0) and
        without radiation: the flux at unit coefficient."""
        gas = GasParams(gamma=1.4, R=1.0, mu0=1.0)
        face = face_means(0, left, right)
        total = split_diffusive_flux(face, h, LambdaVariant.FIRST_ORDER, gas)[0]
        return total / physical_coeff(face, gas)

    def test_identical_cells(self, gas):
        q = make_states(gas, 1.3, (0.2, -0.1, 0.4), 0.9)
        f = split_diffusive_flux(face_means(0, q, q), 0.25, LambdaVariant.FIRST_ORDER, gas)[0]
        assert np.all(f == 0.0)

    def test_density_jump_energy_row(self, inviscid_gas):
        # rho (1, 2), T = 1 both, unit coefficient and spacing:
        # mass row 1, momentum 0, energy = R T / (gamma - 1) = 2.5
        left = make_states(inviscid_gas, 1.0, (0.0, 0.0, 0.0), 1.0)
        right = make_states(inviscid_gas, 2.0, (0.0, 0.0, 0.0), 2.0)
        f = self.unit_coefficient_flux(left, right, 1.0)
        assert np.allclose(f[:, 0], [1.0, 0.0, 0.0, 0.0, 2.5], rtol=1e-14)

    def test_temperature_jump_energy_row(self, inviscid_gas):
        # rho equal, T (1, 2): energy = rho_bar R dT / (gamma - 1) = 2.5 rho_bar
        left = make_states(inviscid_gas, 1.0, (0.0, 0.0, 0.0), 1.0)
        right = make_states(inviscid_gas, 1.0, (0.0, 0.0, 0.0), 2.0)
        f = self.unit_coefficient_flux(left, right, 1.0)
        assert f[0, 0] == 0.0
        assert f[4, 0] == pytest.approx(2.5, rel=1e-14)

    def test_velocity_variance_correction_identity(self, rng, inviscid_gas):
        # mean(|v|^2) - |mean v|^2 = |jump v|^2 / 4 exactly
        left = random_states(rng, 10**4, inviscid_gas)
        right = random_states(rng, 10**4, inviscid_gas)
        mean_sq = arith_mean(left.speed_sq, right.speed_sq)
        sq_mean = sum(arith_mean(l, r) ** 2 for l, r in zip(left.vel, right.vel))
        jump_sq = sum((r - l) ** 2 for l, r in zip(left.vel, right.vel))
        scale = np.maximum(1.0, mean_sq)
        assert np.max(np.abs(mean_sq - sq_mean - 0.25 * jump_sq) / scale) <= 1e-14


class TestSplitFlux:
    def test_zero_lambda_part_at_rest(self, gas):
        left = make_states(gas, 1.0, (0.0, 0.0, 0.0), 1.0)
        right = make_states(gas, 2.0, (0.0, 0.0, 0.0), 2.5)
        face = face_means(0, left, right)
        total, nu_part, lambda_part = split_diffusive_flux(face, 0.1, LambdaVariant.FIRST_ORDER, gas)
        assert np.all(lambda_part == 0.0)
        assert np.array_equal(total, nu_part)

    def test_radiation_goes_to_physical_part(self):
        gas = GasParams(gamma=1.4, R=1.0, mu0=0.0, mu1=0.0, kappa_r=0.1)
        left = make_states(gas, 1.0, (0.0, 0.0, 0.0), 1.0)
        right = make_states(gas, 1.0, (0.0, 0.0, 0.0), 2.0)
        face = face_means(0, left, right)
        total, nu_part, lambda_part = split_diffusive_flux(face, 0.1, LambdaVariant.FIRST_ORDER, gas)
        assert np.all(lambda_part == 0.0)
        assert nu_part[4, 0] == pytest.approx(0.1 * 15.0 / 0.1, rel=1e-14)  # kappa dT^4/h
        assert np.array_equal(total, nu_part + lambda_part)

    def test_parts_sum_bitwise(self, rng, gas):
        left = random_states(rng, 10**4, gas)
        right = random_states(rng, 10**4, gas)
        face = face_means(0, left, right)
        total, nu_part, lambda_part = split_diffusive_flux(face, 0.02, LambdaVariant.FIRST_ORDER, gas)
        assert np.array_equal(total, nu_part + lambda_part)
        assert np.array_equal(nu_part[:4], physical_coeff(face, gas) * _gradient_vector(face, 0.02, gas)[:4])
        assert np.array_equal(lambda_part, (0.02 * artificial_coeff(face, LambdaVariant.FIRST_ORDER))
                              * _gradient_vector(face, 0.02, gas))

    @pytest.mark.parametrize("seed", [20240817, 1, 4])
    def test_split_matches_combined_evaluation(self, gas, seed):
        rng = np.random.default_rng(seed)
        left = random_states(rng, 10**4, gas)
        right = random_states(rng, 10**4, gas)
        face = face_means(0, left, right)
        total, _, _ = split_diffusive_flux(face, 0.02, LambdaVariant.FIRST_ORDER, gas)
        diffusive = diffusion_coeffs(face, 0.02, LambdaVariant.FIRST_ORDER, gas) * _gradient_vector(face, 0.02, gas)
        radiation = _radiation_row(face, 0.02, gas)
        combined = diffusive.copy()
        combined[4] += radiation
        # (nu + h lam) G vs nu G + h lam G: a few ulp of reassociation,
        # measured against the largest summand, not the remainder of the
        # energy row, where radiation can nearly cancel tilde_nu G
        scale = np.maximum(1.0, np.abs(diffusive))
        scale[4] = np.maximum(scale[4], np.abs(radiation))
        assert np.max(np.abs(total - combined) / scale) <= 1e-14
