"""The compiled manufactured-solution forcing against its symbolic source."""

import dataclasses
import os
import pathlib
import subprocess
import sys

import mpmath
import numpy as np
import pytest
import sympy as sp

import gasbox
from gasbox.grid import build_grid
from gasbox.mms import MMSWave, _compiled_source, _symbolic
from gasbox.thermo import GasParams

# radiation on, so the energy row carries the kappa_r term too
GAS = GasParams(gamma=1.4, R=1.0, mu0=0.01, mu1=1e-4, kappa_r=1e-3)
WAVE = MMSWave(rho_amp=0.17, temp_amp=0.12, vel_amp=0.23, omega=5.0, length=1.3)

# (x, t) sample points: both walls, the centre and a spread in between
POINTS = [(0.0, 0.0), (1.3, 0.05), (0.65, 0.11), (0.1, 0.17), (0.37, 0.23),
          (0.52, 0.29), (0.81, 0.31), (1.02, 0.38), (1.19, 0.43), (0.23, 0.5)]


def test_kernel_matches_symbolic_residuals():
    x, t, *_, s_mass, s_mom, s_energy = _symbolic(WAVE, GAS)
    kernel = _compiled_source(WAVE, GAS)
    for row, expr in enumerate((s_mass, s_mom, s_energy)):
        exact = np.array([float(expr.evalf(30, subs={x: xv, t: tv})) for xv, tv in POINTS])
        got = np.array([float(kernel(xv, tv)[row]) for xv, tv in POINTS])
        scale = np.max(np.abs(exact))
        assert scale > 0.0
        assert np.max(np.abs(got - exact)) <= 1e-13 * scale


def test_forcing_matches_symbolic_residuals():
    # every node of a 32-interval grid at the POINTS times, against the
    # residuals evaluated with 30 significant digits (mpmath, as evalf(30))
    x, t, *_, s_mass, s_mom, s_energy = _symbolic(WAVE, GAS)
    residuals = sp.lambdify((x, t), [s_mass, s_mom, s_energy], "mpmath")
    g = build_grid((32, 0, 0), extent=(WAVE.length, 1.0, 1.0))
    forcing = WAVE.source(GAS)
    with mpmath.workdps(30):
        exact = np.array([[[float(r) for r in residuals(mpmath.mpf(xv), mpmath.mpf(tv))]
                           for xv in g.nodes[0]] for _, tv in POINTS])
    got = np.array([forcing(g, tv)[[0, 1, 4], :, 0, 0].T for _, tv in POINTS])
    scale = np.max(np.abs(exact), axis=(0, 1))
    assert np.all(scale > 0.0)
    assert np.all(np.max(np.abs(got - exact), axis=(0, 1)) <= 1e-13 * scale)


@pytest.mark.parametrize("omega", [0.0, -3.0])
def test_forcing_matches_the_kernel_at_any_frequency(omega):
    # omega = 0 samples every angle at t = 0, so the fit is the constant
    wave = dataclasses.replace(WAVE, omega=omega)
    kernel = _compiled_source(wave, GAS)
    g = build_grid((32, 0, 0), extent=(wave.length, 1.0, 1.0))
    x = g.nodes[0]
    times = np.array([tv for _, tv in POINTS])
    forcing = wave.source(GAS)
    got = np.array([forcing(g, tv)[[0, 1, 4], :, 0, 0] for tv in times])
    expected = np.stack([np.broadcast_to(r, (times.size, x.size))
                         for r in kernel(x, times[:, None])], axis=1)
    scale = np.max(np.abs(expected), axis=(0, 2))
    assert np.all(np.max(np.abs(got - expected), axis=(0, 2)) <= 1e-13 * scale)


@pytest.mark.parametrize("mu0", [0.01, 1.0])
def test_nearly_vacuous_wave_passes_the_fit_guard(mu0):
    # rho_max / rho_min = 1999: the guard's tolerance grows with the fit's
    # conditioning, so this valid wave builds its forcing
    gas = dataclasses.replace(GAS, mu0=mu0)
    wave = MMSWave(rho_amp=0.999, temp_amp=0.999, vel_amp=3.0)
    forcing, g = wave.source(gas), build_grid((64, 0, 0))
    assert all(np.all(np.isfinite(forcing(g, tv))) for tv in (0.1, 0.2))


def test_fit_guard_rejects_a_higher_harmonic(monkeypatch):
    # a cos(9 omega t) term is beyond the fit's degree: the first call raises
    compiled = _compiled_source

    def with_harmonic(ms, gas):
        kernel = compiled(ms, gas)
        return lambda x, t: [r + np.cos(9.0 * ms.omega * t) for r in kernel(x, t)]

    monkeypatch.setattr(gasbox.mms, "_compiled_source", with_harmonic)
    forcing = WAVE.source(GAS)
    with pytest.raises(RuntimeError, match="degree 6"):
        forcing(build_grid((16, 0, 0), extent=(WAVE.length, 1.0, 1.0)), 0.1)


def test_transverse_momentum_rows_are_zero():
    g = build_grid((32, 0, 0), extent=(WAVE.length, 1.0, 1.0))
    f = WAVE.source(GAS)(g, 0.21)
    assert f.shape == (5,) + g.shape
    assert np.all(f[2:4] == 0.0)
    assert np.any(f[0] != 0.0) and np.any(f[1] != 0.0) and np.any(f[4] != 0.0)


def test_3d_forcing_is_the_1d_forcing_extended():
    extent = (WAVE.length, 0.7, 0.4)
    f1 = WAVE.source(GAS)(build_grid((16, 0, 0), extent=extent), 0.3)
    f3 = WAVE.source(GAS)(build_grid((16, 4, 6), extent=extent), 0.3)
    assert f3.shape == (5, 17, 5, 7)
    assert np.array_equal(f3, np.broadcast_to(f1, f3.shape))


def test_second_source_call_reuses_the_compiled_kernel():
    WAVE.source(GAS)
    before = _compiled_source.cache_info()
    WAVE.source(GAS)
    after = _compiled_source.cache_info()
    assert after.hits == before.hits + 1
    assert after.misses == before.misses


@pytest.mark.parametrize("shape", [(16, 0, 0), (8, 4, 4)])
def test_identically_zero_rows(shape):
    # rho constant and u = 0: the mass residual is the constant 0, which
    # the kernel returns as a scalar
    wave = MMSWave(rho_amp=0.0, vel_amp=0.0)
    g = build_grid(shape)
    f = wave.source(GAS)(g, 0.3)
    assert f.shape == (5,) + g.shape
    assert np.all(np.isfinite(f))
    assert np.all(f[0] == 0.0) and np.all(f[2:4] == 0.0)
    assert np.any(f[1] != 0.0) and np.any(f[4] != 0.0)
    u5 = wave.conserved(g, 0.3, GAS)
    assert u5.shape == (5,) + g.shape
    assert np.all(u5[0] == 1.0) and np.all(u5[1:4] == 0.0)


def test_import_does_not_load_sympy():
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(gasbox.__file__).parents[1]))
    code = "import sys, gasbox, gasbox.cli; print('sympy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
