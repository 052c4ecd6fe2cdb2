import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gasbox.thermo import (
    GasParams,
    PositivityError,
    conserved_from_primitives,
    delta_w,
    entropy_function,
    entropy_variables,
    face_means,
    primitives,
    primitives_from_conserved,
    specific_entropy,
)


def random_primitives(rng, n, gas, rho_range=(1e-3, 1e3), temp_range=(1e-3, 1e3), vel_max=10.0):
    rho = np.exp(rng.uniform(np.log(rho_range[0]), np.log(rho_range[1]), n))
    temp = np.exp(rng.uniform(np.log(temp_range[0]), np.log(temp_range[1]), n))
    vel = tuple(rng.uniform(-vel_max, vel_max, n) for _ in range(3))
    return primitives(rho, vel, rho * gas.R * temp, gas)


class TestGasParams:
    def test_gamma_window(self):
        GasParams(gamma=5.0 / 3.0)  # boundary allowed
        with pytest.raises(ValueError, match="gamma"):
            GasParams(gamma=1.8)
        with pytest.raises(ValueError, match="gamma"):
            GasParams(gamma=1.0)

    def test_cv_is_the_stored_derived_field(self):
        gas = GasParams(gamma=1.4, R=2.0)
        assert gas.c_v == gas.R / (gas.gamma - 1.0)

    def test_mu_ordering_warns_but_proceeds(self):
        with pytest.warns(UserWarning, match="mu0"):
            gas = GasParams(mu0=0.001, mu1=0.1)
        assert gas.mu1 == 0.1

    def test_negative_coefficients_rejected(self):
        with pytest.raises(ValueError):
            GasParams(mu0=-1.0)
        with pytest.raises(ValueError):
            GasParams(kappa_r=-0.5)
        with pytest.raises(ValueError):
            GasParams(R=0.0)


class TestConversion:
    def test_rest_state(self, inviscid_gas):
        u5 = np.array([1.0, 0.0, 0.0, 0.0, 2.5]).reshape(5, 1)
        prim = primitives_from_conserved(u5, inviscid_gas)
        assert prim.p[0] == pytest.approx(1.0, abs=1e-15)
        assert prim.T[0] == pytest.approx(1.0, abs=1e-15)
        assert prim.beta[0] == pytest.approx(0.5, abs=1e-15)

    def test_moving_state(self, inviscid_gas):
        u5 = np.array([1.0, 1.0, 0.0, 0.0, 3.0]).reshape(5, 1)
        prim = primitives_from_conserved(u5, inviscid_gas)
        # p = 0.4 (3 - 0.5) = 1
        assert prim.p[0] == pytest.approx(1.0, rel=1e-15)

    def test_roundtrip(self, rng, gas):
        # conserved -> primitive -> conserved; the reverse direction is
        # ill-conditioned when kinetic energy dominates the total
        prim = random_primitives(rng, 10**4, gas)
        u5 = conserved_from_primitives(prim.rho, prim.vel, prim.p, gas)
        back = primitives_from_conserved(u5, gas)
        again = conserved_from_primitives(back.rho, back.vel, back.p, gas)
        scale = np.max(np.abs(u5), axis=0)
        assert np.max(np.abs(again - u5) / scale) <= 1e-15
        assert np.array_equal(back.rho, prim.rho)

    def test_state_consistency(self, rng, gas):
        prim = random_primitives(rng, 10**4, gas)
        assert np.allclose(prim.p, prim.rho * gas.R * prim.T, rtol=1e-14)
        assert np.allclose(prim.beta, 1.0 / (2.0 * gas.R * prim.T), rtol=1e-14)
        assert np.allclose(prim.beta, prim.rho / (2.0 * prim.p), rtol=1e-14)

    def test_density_fault_carries_location(self, inviscid_gas):
        u5 = np.ones((5, 2, 2, 2))
        u5[0, 1, 0, 1] = -2.0
        with pytest.raises(PositivityError) as err:
            primitives_from_conserved(u5, inviscid_gas)
        assert err.value.quantity == "density"
        assert err.value.index == (1, 0, 1)
        assert err.value.value == -2.0

    def test_pressure_fault(self, inviscid_gas):
        u5 = np.array([1.0, 3.0, 0.0, 0.0, 2.0]).reshape(5, 1)  # E < kinetic
        with pytest.raises(PositivityError) as err:
            primitives_from_conserved(u5, inviscid_gas)
        assert err.value.quantity == "pressure"

    @settings(max_examples=200, deadline=None)
    @given(component=st.integers(0, 4), cell=st.integers(0, 15),
           bad=st.sampled_from([np.inf, -np.inf, np.nan]), seed=st.integers(0, 2**32 - 1))
    def test_any_non_finite_entry_is_rejected(self, component, cell, bad, seed):
        gas = GasParams(gamma=1.4, R=1.0, mu0=0.01, mu1=1e-4, kappa_r=1e-6)
        prim = random_primitives(np.random.default_rng(seed), 16, gas)
        u5 = conserved_from_primitives(prim.rho, prim.vel, prim.p, gas)
        u5[component, cell] = bad
        with pytest.raises(PositivityError) as err:
            primitives_from_conserved(u5, gas)
        assert err.value.index == (cell,)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_infinite_temperature_rejected(self, inviscid_gas):
        # finite rho and p whose ratio overflows: T = inf, beta = 0
        u5 = np.array([1e-300, 0.0, 0.0, 0.0, 1e300]).reshape(5, 1)
        with pytest.raises(PositivityError) as err:
            primitives_from_conserved(u5, inviscid_gas)
        assert err.value.quantity == "temperature"


class TestEntropyQuantities:
    def test_reference_state(self, inviscid_gas):
        prim = primitives(np.array([1.0]), (np.array([0.0]),) * 3, np.array([1.0]), inviscid_gas)
        assert specific_entropy(prim, inviscid_gas)[0] == 0.0
        assert entropy_function(prim, inviscid_gas)[0] == 0.0
        w = entropy_variables(prim, inviscid_gas)
        assert np.allclose(w[:, 0], [3.5, 0.0, 0.0, 0.0, -1.0], atol=1e-15)

    def test_entropy_scaling_invariance(self, inviscid_gas):
        # p = rho^gamma keeps s = 0 for any rho
        rho = np.array([2.0])
        prim = primitives(rho, (np.zeros(1),) * 3, rho ** inviscid_gas.gamma, inviscid_gas)
        assert abs(specific_entropy(prim, inviscid_gas)[0]) <= 1e-14

    def test_moving_reference_state(self, inviscid_gas):
        prim = primitives(np.array([1.0]), (np.array([1.0]), np.zeros(1), np.zeros(1)),
                          np.array([1.0]), inviscid_gas)
        w = entropy_variables(prim, inviscid_gas)
        assert w[0, 0] == pytest.approx(3.0, abs=1e-15)  # 3.5 - beta |v|^2
        assert w[1, 0] == pytest.approx(1.0, abs=1e-15)  # 2 beta u

    def test_two_entropy_forms_agree(self, rng, gas):
        prim = random_primitives(rng, 10**4, gas)
        s1 = specific_entropy(prim, gas)
        s2 = -np.log(prim.beta) - (gas.gamma - 1.0) * np.log(prim.rho) - np.log(2.0)
        assert np.max(np.abs(s1 - s2) / np.maximum(1.0, np.abs(s1))) <= 1e-13

    def test_potentials_are_momenta(self, rng, gas):
        prim = random_primitives(rng, 100, gas)
        for c in range(3):
            assert np.array_equal(prim.momenta[c], prim.rho * prim.vel[c])

    def test_gradient_of_entropy_function(self, rng, gas):
        # w = dU/du checked by directional central differences on the
        # conserved variables of random states
        prim = random_primitives(rng, 200, gas, rho_range=(0.5, 2.0),
                                 temp_range=(0.5, 2.0), vel_max=1.0)
        u5 = conserved_from_primitives(prim.rho, prim.vel, prim.p, gas)
        w = entropy_variables(prim, gas)
        rng_dir = np.random.default_rng(7)
        direction = rng_dir.normal(size=u5.shape)
        eps = 1e-6

        def entropy_total(u):
            p = primitives_from_conserved(u, gas)
            return entropy_function(p, gas)

        fd = (entropy_total(u5 + eps * direction) - entropy_total(u5 - eps * direction)) / (2 * eps)
        chain = np.sum(w * direction, axis=0)
        scale = np.maximum(1.0, np.abs(fd))
        assert np.max(np.abs(fd - chain) / scale) <= 1e-8

    def test_contraction_identity_on_analytic_path(self, rng, gas):
        # along a smooth analytic state path u(t), the chain rule gives
        # dU/dt in closed form; the contraction w . du/dt must match it
        from gasbox.grid import build_grid
        g = build_grid((6, 6, 6))
        shape = g.shape
        phase = rng.uniform(0.0, 2 * np.pi, (7,) + shape)
        t = 0.37
        gm1 = gas.gamma - 1.0

        rho = 1.0 + 0.3 * np.sin(t + phase[0])
        d_rho = 0.3 * np.cos(t + phase[0])
        p = 1.0 + 0.2 * np.cos(t + phase[1])
        d_p = -0.2 * np.sin(t + phase[1])
        vel, d_vel = [], []
        for c in range(3):
            vel.append(0.5 * np.sin(t + phase[2 + c]))
            d_vel.append(0.5 * np.cos(t + phase[2 + c]))

        prim = primitives(rho, vel, p, gas)
        w = entropy_variables(prim, gas)
        speed_sq = sum(v * v for v in vel)
        du = np.stack([
            d_rho,
            *[d_rho * v + rho * dv for v, dv in zip(vel, d_vel)],
            d_p / gm1 + 0.5 * d_rho * speed_sq + rho * sum(v * dv for v, dv in zip(vel, d_vel)),
        ])
        s = specific_entropy(prim, gas)
        dU = -(d_rho * s + rho * (d_p / p - gas.gamma * d_rho / rho)) / gm1

        vol = g.cell_volumes
        contracted = float(np.sum(vol * np.sum(w * du, axis=0)))
        direct = float(np.sum(vol * dU))
        scale = max(1.0, abs(direct), float(np.sum(vol * np.abs(dU))))
        assert abs(contracted - direct) <= 1e-10 * scale


class TestDeltaW:
    def test_identical_states(self, rng, gas):
        prim = random_primitives(rng, 100, gas)
        dw = delta_w(face_means(0, prim, prim), gas)
        assert np.all(dw == 0.0)

    def test_matches_direct_difference(self, rng, gas):
        left = random_primitives(rng, 10**5, gas)
        right = random_primitives(rng, 10**5, gas)
        dw = delta_w(face_means(0, left, right), gas)
        direct = entropy_variables(right, gas) - entropy_variables(left, gas)
        scale = np.maximum(1.0, np.maximum(
            np.max(np.abs(entropy_variables(left, gas)), axis=0),
            np.max(np.abs(entropy_variables(right, gas)), axis=0)))
        assert np.max(np.abs(dw - direct) / scale) <= 1e-12

    def test_last_component_is_beta_jump(self, inviscid_gas):
        left = primitives(np.array([1.0]), (np.zeros(1),) * 3, np.array([1.0]), inviscid_gas)
        right = primitives(np.array([2.0]), (np.zeros(1),) * 3, np.array([1.0]), inviscid_gas)
        dw = delta_w(face_means(0, left, right), inviscid_gas)
        assert dw[4, 0] == pytest.approx(-1.0, abs=1e-15)  # -2 (1 - 0.5)
