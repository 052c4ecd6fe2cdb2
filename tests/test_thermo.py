import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gasbox.fluxes import LambdaVariant, density_jump_sensor
from gasbox.thermo import (
    GasParams,
    PositivityError,
    _require_admissible,
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

    @settings(max_examples=300, deadline=None)
    @given(values=st.sampled_from([(23,), (3, 4, 5)]).flatmap(lambda shape: hnp.arrays(
               np.float64, shape, elements=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))),
           bad=st.lists(st.tuples(st.integers(0, 59), st.sampled_from(
               [np.nan, np.inf, -np.inf, 0.0, -0.0, -5e-324, -1e-310, -1.0, -1e308])), max_size=3))
    def test_gate_rejects_exactly_the_inadmissible_values(self, values, bad):
        # positive floats, subnormal and huge ones among them, with up to
        # three bad values at random positions; the first bad one in C
        # order is reported, as np.argwhere finds it
        for pos, v in bad:
            values.flat[pos % values.size] = v
        offending = np.argwhere(~((values > 0.0) & (values < np.inf)))
        if len(offending) == 0:
            _require_admissible("q", values)
            return
        with pytest.raises(PositivityError) as err:
            _require_admissible("q", values)
        index = tuple(int(i) for i in offending[0])
        assert err.value.index == index
        assert np.array_equal(err.value.value, values[index], equal_nan=True)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_infinite_temperature_rejected(self, inviscid_gas):
        # finite rho and p whose ratio overflows: T = inf, beta = 0
        u5 = np.array([1e-300, 0.0, 0.0, 0.0, 1e300]).reshape(5, 1)
        with pytest.raises(PositivityError) as err:
            primitives_from_conserved(u5, inviscid_gas)
        assert err.value.quantity == "temperature"


class TestStackedVectorFields:
    @settings(max_examples=100, deadline=None)
    @given(shape=hnp.array_shapes(min_dims=0, max_dims=3, min_side=1, max_side=5),
           seed=st.integers(0, 2**32 - 1))
    def test_rows_are_the_per_component_formulas(self, shape, seed):
        # vel and momenta are (3,) + shape arrays; each row is bitwise what
        # the component's own formula gives, and so are |v|^2 and the face
        # means and jumps formed from them
        gas = GasParams(gamma=1.4, R=1.0, mu0=0.01, mu1=1e-4, kappa_r=1e-6)
        rng = np.random.default_rng(seed)
        rho, p = (np.exp(rng.uniform(-3.0, 3.0, shape)) for _ in range(2))
        vel = tuple(rng.uniform(-10.0, 10.0, shape) for _ in range(3))
        u5 = conserved_from_primitives(rho, vel, p, gas)
        built = primitives(rho, vel, p, gas)
        converted = primitives_from_conserved(u5, gas)
        for prim, comps in ((built, vel), (converted, tuple(u5[c] / u5[0] for c in (1, 2, 3)))):
            assert prim.vel.shape == prim.momenta.shape == (3,) + shape
            for c in range(3):
                assert prim.vel[c].tobytes() == np.asarray(comps[c]).tobytes()
                assert prim.momenta[c].tobytes() == (prim.rho * comps[c]).tobytes()
            u, v, w = comps
            assert prim.speed_sq.tobytes() == (u * u + v * v + w * w).tobytes()
        face = face_means(0, built, converted)
        for c in range(3):
            assert face.vel_bar[c].tobytes() == (0.5 * (vel[c] + converted.vel[c])).tobytes()
            assert face.vel_jump[c].tobytes() == (converted.vel[c] - vel[c]).tobytes()
        d = face.vel_jump
        assert face.vel_jump_sq.tobytes() == (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).tobytes()


def _reference_require(quantity, values):
    if not (values.min() > 0.0 and values.max() < np.inf):
        idx = tuple(int(i) for i in np.argwhere(~((values > 0.0) & (values < np.inf)))[0])
        raise PositivityError(quantity, idx, float(values[idx]))


def _reference_fields(rho, vel, speed_sq, p, gas):
    """The per-node fields as 85d412b formed them, one array per quantity."""
    _reference_require("pressure", p)
    T = p / (rho * gas.R)
    beta = rho / (2.0 * p)
    _reference_require("temperature", T)
    _reference_require("beta", beta)
    return dict(rho=rho, vel=vel, p=p, T=T, beta=beta, log_rho=np.log(rho), log_beta=np.log(beta),
                inv_beta=1.0 / beta, speed_sq=speed_sq, momenta=rho * vel, rho_speed_sq=rho * speed_sq,
                T4=T ** 4 if gas.kappa_r != 0.0 else None)


def _reference_sum_sq(vec):
    sq = vec * vec
    return sq[0] + sq[1] + sq[2]


def _reference_from_conserved(u5, gas):
    rho = u5[0]
    _reference_require("density", rho)
    vel = u5[1:4] / rho
    speed_sq = _reference_sum_sq(vel)
    return _reference_fields(rho, vel, speed_sq, (gas.gamma - 1.0) * (u5[4] - 0.5 * rho * speed_sq), gas)


def _reference_primitives(rho, vel, p, gas):
    vel = np.stack([np.broadcast_to(c, rho.shape) for c in vel])
    _reference_require("density", rho)
    return _reference_fields(rho, vel, _reference_sum_sq(vel), p, gas)


def _reference_log_mean(total, jump, log_jump):
    zeta = jump / total
    z = zeta * zeta
    out = np.asarray(total / (2.0 + z * (2.0 / 3.0 + z * (2.0 / 5.0 + z * (2.0 / 7.0)))))
    np.divide(jump, log_jump, out=out, where=z >= 1.0e-4)
    return out, zeta, z


def _reference_pair(a, b, log_a, log_b):
    bar = 0.5 * (a + b)
    jump = b - a
    log_jump = log_b - log_a
    ln, zeta, z = _reference_log_mean(2.0 * bar, jump, log_jump)
    return dict(jump=jump, log_jump=log_jump, bar=bar, ln=ln, zeta=zeta, z=z)


def _reference_face(axis, left, right):
    """The face bundle as 85d412b's ``face_means`` and its lazy fields formed it."""
    rho = _reference_pair(left["rho"], right["rho"], left["log_rho"], right["log_rho"])
    beta = _reference_pair(left["beta"], right["beta"], left["log_beta"], right["log_beta"])
    vel_jump = right["vel"] - left["vel"]
    return dict(
        rho=rho, beta=beta,
        vel_bar=0.5 * (left["vel"] + right["vel"]),
        vel_jump=vel_jump,
        vel_jump_sq=_reference_sum_sq(vel_jump),
        inv_beta_jump=right["inv_beta"] - left["inv_beta"],
        T4_jump=None if left["T4"] is None else right["T4"] - left["T4"],
        p_face=rho["bar"] / (2.0 * beta["bar"]),
        inv_log_mean_beta=1.0 / beta["ln"],
        ke_bar=0.25 * (left["speed_sq"] + right["speed_sq"]),
        normal_momentum_bar=0.5 * (left["momenta"][axis] + right["momenta"][axis]),
        momentum_jump=right["momenta"] - left["momenta"],
        rho_speed_sq_jump=right["rho_speed_sq"] - left["rho_speed_sq"],
    )


def _reference_sensor(rho, variant):
    dlog = np.abs(rho["log_jump"])
    if variant is LambdaVariant.FIRST_ORDER:
        return np.maximum(0.5, dlog)
    zeta = rho["jump"] / (2.0 * rho["bar"])
    z = zeta * zeta
    num = 1.0 / 3.0 + z * (1.0 / 5.0 + z * (1.0 / 7.0 + z * (1.0 / 9.0)))
    den = 1.0 + z * (1.0 / 3.0 + z * (1.0 / 5.0 + z * (1.0 / 7.0 + z * (1.0 / 9.0))))
    out = np.asarray(0.5 * zeta * num / den)
    ratio = np.divide(rho["bar"] - rho["ln"], rho["jump"], out=out, where=np.abs(zeta) >= 1.0e-2)
    return np.maximum(np.abs(ratio), dlog)


def _same_bits(new, ref):
    if ref is None:
        return new is None
    return np.shape(new) == np.shape(ref) and np.asarray(new).tobytes() == np.asarray(ref).tobytes()


class TestStackedNodeArray:
    # every attribute read from the stacked node array and the face bundle
    # built from it is bitwise the per-quantity array of 85d412b, on 0-3D
    # fields, with and without radiation, for both sensors; an inadmissible
    # field raises the same PositivityError (quantity, cell and value)
    FIELDS = ("rho", "vel", "p", "T", "beta", "log_rho", "log_beta", "inv_beta", "speed_sq",
              "momenta", "rho_speed_sq", "T4")

    def test_gate_passes_states_whose_extremes_lie_600_decades_apart(self, gas):
        # rho and p span 600 decades, but T = 1 and beta = 1/2 at every node:
        # the gate passes them, and the rows are the reference's
        rho = np.array([1e-300, 1.0, 1e300])
        vel = (0.0 * rho,) * 3
        u5 = conserved_from_primitives(rho, vel, rho, gas)
        for prim, ref in (self._convert(primitives_from_conserved, _reference_from_conserved, u5, gas),
                          self._convert(primitives, _reference_primitives, rho, vel, rho, gas)):
            for name in self.FIELDS:
                assert _same_bits(getattr(prim, name), ref[name]), name
            assert np.all(prim.T == 1.0)

    @pytest.mark.parametrize("r_gas, rho_value", [(1e-300, 1e-30), (0.5, 5e-324)])
    def test_vanishing_rho_times_gas_constant_is_a_temperature_fault(self, r_gas, rho_value):
        # rho R rounds to 0 at every node, so T = p/0 = inf: both conversions
        # raise the reference's PositivityError, and nothing else
        gas = GasParams(gamma=1.4, R=r_gas)
        rho, p = np.full(4, rho_value), np.ones(4)
        vel = (0.0 * rho,) * 3
        u5 = conserved_from_primitives(rho, vel, p, gas)
        with np.errstate(divide="ignore"):
            assert self._convert(primitives_from_conserved, _reference_from_conserved, u5, gas) is None
            assert self._convert(primitives, _reference_primitives, rho, vel, p, gas) is None

    @staticmethod
    def _convert(fn, ref_fn, *args):
        """``(new, reference)`` of one conversion, or None after checking
        that both raise the same :class:`PositivityError`."""
        try:
            ref = ref_fn(*args)
        except PositivityError as expected:
            with pytest.raises(PositivityError) as err:
                fn(*args)
            assert (err.value.quantity, err.value.index) == (expected.quantity, expected.index)
            assert _same_bits(err.value.value, expected.value)
            return None
        return fn(*args), ref

    @settings(max_examples=150, deadline=None)
    @given(shape=hnp.array_shapes(min_dims=0, max_dims=3, min_side=1, max_side=5),
           seed=st.integers(0, 2**32 - 1), kappa_r=st.sampled_from([0.0, 1e-6]),
           jump_scale=st.sampled_from([0.0, 1e-9, 1e-3, 1.0]), axis=st.integers(0, 2),
           r_gas=st.sampled_from([1.0, 1e30, 1e-300]),
           defect=st.sampled_from([None, {0: -1.0}, {0: np.nan}, {0: 0.0}, {4: -1.0}, {4: np.inf},
                                   {4: 1e300}, {1: np.inf},
                                   # T overflows (at R = 1 also with the second)
                                   {0: 1e-310, 1: 0.0, 2: 0.0, 3: 0.0},
                                   # beta underflows to 0
                                   {0: 1e-300, 1: 0.0, 2: 0.0, 3: 0.0, 4: 2.5e30}]))
    def test_rows_equal_the_per_quantity_arrays(self, shape, seed, kappa_r, jump_scale, axis, r_gas,
                                                defect):
        gas = GasParams(gamma=1.4, R=r_gas, mu0=0.01, mu1=1e-4, kappa_r=kappa_r)
        rng = np.random.default_rng(seed)
        rho = np.array(np.exp(rng.uniform(-3.0, 3.0, shape)))  # arrays also when 0-d
        p = np.array(np.exp(rng.uniform(-3.0, 3.0, shape)))
        vel = tuple(np.array(rng.uniform(-10.0, 10.0, shape)) for _ in range(3))
        # the right states are near the left ones, down to equal at scale 0,
        # so both branches of the log mean and of the sensor ratio are taken
        near = [np.array(x * np.exp(jump_scale * rng.normal(size=shape))) for x in (rho, p)]
        sides = []
        for r, pr in ((rho, p), near):
            u5 = conserved_from_primitives(r, vel, pr, gas)
            v = vel
            if defect is not None and sides:
                # the right side gets the defect: in the conserved array, and
                # in the density, velocity or pressure handed to primitives
                cell = np.unravel_index(seed % u5[0].size, shape)
                r, pr, v = r.copy(), pr.copy(), tuple(c.copy() for c in vel)
                for component, value in defect.items():
                    u5[(component,) + cell] = value
                    (r, *v, pr)[component][cell] = value
            with np.errstate(all="ignore"):  # the defects overflow or divide by zero
                converted = self._convert(primitives_from_conserved, _reference_from_conserved, u5, gas)
                built = self._convert(primitives, _reference_primitives, r, v, pr, gas)
            if converted is None or built is None:
                return
            for prim, ref in (converted, built):
                for name in self.FIELDS:
                    assert _same_bits(getattr(prim, name), ref[name]), name
            sides.append(converted)

        (left, left_ref), (right, right_ref) = sides
        with np.errstate(all="ignore"):  # equal pairs divide 0 by 0 off the series branch
            face = face_means(axis, left, right)
            ref = _reference_face(axis, left_ref, right_ref)
            for name, value in ref.items():
                if isinstance(value, dict):
                    pair = getattr(face, name)
                    for attr, pair_value in value.items():
                        assert _same_bits(getattr(pair, attr), pair_value), (name, attr)
                else:
                    assert _same_bits(getattr(face, name), value), name
            for side, side_ref in ((face.left, left_ref), (face.right, right_ref)):
                for name in self.FIELDS:
                    assert _same_bits(getattr(side, name), side_ref[name]), name
            for variant in LambdaVariant:
                assert _same_bits(density_jump_sensor(face.rho, variant),
                                  _reference_sensor(ref["rho"], variant)), variant


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
