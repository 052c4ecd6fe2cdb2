import re

import numpy as np
import pytest

from gasbox.cli import main
from gasbox.config import ConfigError, parse_config
from gasbox.driver import simulate
from gasbox.fluxes import LambdaVariant
from gasbox.grid import build_grid
from gasbox.initial import PRESETS, initial_condition
from gasbox.mms import MMSWave, mms_from_initial
from gasbox.snapshot import read_snapshot, write_snapshot
from gasbox.verify import BOUNDS, run_verification

MINIMAL = """
[grid]
n = 8 8 8

[solver]
t_end = 0.01
"""


class TestParseConfig:
    def test_minimal_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.grid_n == (8, 8, 8)
        assert cfg.solver.cfl == 0.5
        assert cfg.solver.lambda_variant is LambdaVariant.FIRST_ORDER
        assert cfg.initial["preset"] == "uniform_rest"
        assert cfg.gas.gamma == 1.4

    def test_gamma_out_of_window_cites_bound_and_line(self):
        text = "[gas]\ngamma = 1.8\n"
        with pytest.raises(ConfigError, match=r"line 2.*gamma.*5/3"):
            parse_config(text)

    def test_unknown_key_cites_line(self):
        text = "[grid]\nn = 8 8 8\nspacing = 0.1\n"
        with pytest.raises(ConfigError, match=r"line 3.*unknown key"):
            parse_config(text)

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config("[grud]\nn = 8\n")

    def test_bad_value_reports_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("[solver]\ncfl = fast\n")

    def test_mu_ordering_warns_but_parses(self):
        text = "[gas]\nmu0 = 0.001\nmu1 = 0.1\n"
        with pytest.warns(UserWarning, match="mu0"):
            cfg = parse_config(text)
        assert cfg.gas.mu1 == 0.1

    def test_full_document(self):
        text = """
[grid]
n = 32 0 0
extent = 2 1 1

[gas]
gamma = 1.5
r = 2.0
mu0 = 0.02
mu1 = 1e-4
kappa_r = 1e-6

[solver]
cfl = 0.3
lambda_variant = second-order
t_end = 0.25
max_rejects = 5

[initial]
preset = gaussian_density_pulse
amplitude = 0.4
width = 0.12

[output]
directory = results
cadence = 7
snapshots = false

[convergence]
grids = 16 32 64
mode = richardson
"""
        cfg = parse_config(text)
        assert cfg.grid_n == (32, 0, 0)
        assert cfg.extent == (2.0, 1.0, 1.0)
        assert cfg.gas.R == 2.0
        assert cfg.solver.lambda_variant is LambdaVariant.SECOND_ORDER
        assert cfg.solver.max_rejects == 5
        assert cfg.initial == {"preset": "gaussian_density_pulse",
                               "amplitude": 0.4, "width": 0.12}
        assert cfg.output_dir == "results"
        assert cfg.cadence == 7
        assert cfg.snapshots is False
        assert cfg.convergence_grids == (16, 32, 64)
        assert cfg.convergence_mode == "richardson"

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match=re.escape(f"preset: expected one of {tuple(PRESETS)}")):
            parse_config("[initial]\npreset = vortex\n")
        for preset in PRESETS:
            assert parse_config(f"[initial]\npreset = {preset}\n").initial["preset"] == preset

    def test_output_seed_is_an_unknown_key(self):
        with pytest.raises(ConfigError, match=r"line 4: \[output\] seed: unknown key"):
            parse_config("[output]\ndirectory = out\n\nseed = 42\n")


class TestInitialConditions:
    def test_uniform_rest_exact(self, gas):
        g = build_grid((4, 4, 4))
        u5 = initial_condition("uniform_rest", g, gas, rho=2.0, temperature=0.5)
        assert np.all(u5[0] == 2.0)
        assert np.all(u5[1:4] == 0.0)
        assert np.allclose(u5[4], 2.0 * gas.R * 0.5 / (gas.gamma - 1.0))

    def test_gaussian_pulse_extrema(self, gas):
        g = build_grid((16, 16, 16))
        u5 = initial_condition("gaussian_density_pulse", g, gas,
                               floor=1.0, amplitude=0.5, width=0.1)
        assert u5[0].min() == 1.0  # tails underflow the floor's ulp
        assert u5[0].max() == 1.5  # node at the exact center
        assert u5[0, 8, 8, 8] == 1.5

    def test_acoustic_pulse_is_isentropic(self, gas):
        g = build_grid((8, 8, 8))
        u5 = initial_condition("acoustic_pulse", g, gas, amplitude=0.2, width=0.15)
        from gasbox.thermo import primitives_from_conserved, specific_entropy
        prim = primitives_from_conserved(u5, gas)
        s = specific_entropy(prim, gas)
        assert np.max(np.abs(s - s.flat[0])) <= 1e-12

    def test_thermal_spot_keeps_density_uniform(self, gas):
        g = build_grid((8, 8, 8))
        u5 = initial_condition("thermal_spot", g, gas, amplitude=0.5, width=0.1)
        assert np.all(u5[0] == 1.0)
        assert u5[4].max() > u5[4].min()

    def test_mms_preset_matches_analytic_state(self, gas):
        g = build_grid((16, 0, 0))
        u5 = initial_condition("mms_wave", g, gas)
        assert np.array_equal(u5, MMSWave().conserved(g, 0.0, gas))

    def test_rejects_nonpositive_state(self, gas):
        g = build_grid((8, 8, 8))
        with pytest.raises(ValueError, match="nonpositive"):
            initial_condition("gaussian_density_pulse", g, gas,
                              floor=1.0, amplitude=-1.5, width=0.2)

    def test_mms_wave_from_initial_block(self, gas):
        params = {"preset": "mms_wave", "rho": 2.0, "temperature": 3.0, "vel_amp": 0.1, "omega": None}
        assert mms_from_initial(params) == MMSWave(rho0=2.0, temp0=3.0, vel_amp=0.1)
        with pytest.raises(ValueError, match="floor"):
            mms_from_initial({"preset": "mms_wave", "floor": 1.0})
        with pytest.raises(ValueError, match="floor"):
            initial_condition("mms_wave", build_grid((8, 0, 0)), gas, floor=1.0)
        from gasbox.driver import mms_from_initial as driver_mms_from_initial
        assert driver_mms_from_initial is mms_from_initial

    def test_rejects_unknown_preset_and_params(self, gas):
        g = build_grid((4, 4, 4))
        with pytest.raises(ValueError, match="unknown initial preset"):
            initial_condition("vortex", g, gas)
        with pytest.raises(ValueError, match="bad parameters"):
            initial_condition("uniform_rest", g, gas, swirl=3.0)


class TestSnapshot:
    def test_trailing_bytes_rejected(self, tmp_path, gas):
        g = build_grid((2, 2, 2))
        u5 = np.arange(5.0 * 27).reshape((5,) + g.shape)
        path = tmp_path / "field.snap"
        write_snapshot(path, u5, g, 0.5, gas)
        assert np.array_equal(read_snapshot(path)[0], u5)  # a v1 file still reads back
        with open(path, "ab") as fh:
            fh.write(b"junk")
        with pytest.raises(ValueError, match="trailing bytes"):
            read_snapshot(path)

    def test_roundtrip_bitwise(self, tmp_path, rng, gas):
        g = build_grid((5, 6, 7), (1.0, 2.0, 0.5))
        u5 = rng.normal(size=(5,) + g.shape)
        path = tmp_path / "field.snap"
        write_snapshot(path, u5, g, 0.375, gas)
        back, meta = read_snapshot(path)
        assert np.array_equal(back, u5)
        assert meta["t"] == 0.375
        assert meta["gamma"] == gas.gamma
        assert meta["shape"] == g.shape

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.snap"
        path.write_bytes(b"NOTASNAP" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            read_snapshot(path)

    def test_truncated_payload_rejected(self, tmp_path, gas):
        g = build_grid((4, 0, 0))
        u5 = np.ones((5,) + g.shape)
        path = tmp_path / "field.snap"
        write_snapshot(path, u5, g, 0.0, gas)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(ValueError, match="truncated"):
            read_snapshot(path)


RUN_CFG = """
[grid]
n = 6 6 6

[gas]
mu0 = 0.02
mu1 = 1e-4

[solver]
cfl = 0.4
t_end = 0.03

[initial]
preset = gaussian_density_pulse
amplitude = 0.3
width = 0.12

[output]
directory = {out}
cadence = 2
"""


class TestCli:
    def test_run_writes_artifacts(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "out"
        cfg.write_text(RUN_CFG.format(out=out))
        assert main(["run", str(cfg)]) == 0
        captured = capsys.readouterr().out
        assert "summary:" in captured and "entropy_monotone=yes" in captured
        assert (out / "diagnostics.csv").exists()
        assert (out / "final.snap").exists()

    def test_run_is_deterministic(self, tmp_path):
        blobs = []
        for tag in ("a", "b"):
            cfg = tmp_path / f"{tag}.cfg"
            out = tmp_path / tag
            cfg.write_text(RUN_CFG.format(out=out))
            assert main(["run", str(cfg)]) == 0
            blobs.append((out / "final.snap").read_bytes())
        assert blobs[0] == blobs[1]

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[gas]\ngamma = 3.0\n")
        assert main(["run", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_config_exit_code(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.cfg")]) == 2

    def test_converge_mms(self, tmp_path, capsys):
        cfg = tmp_path / "conv.cfg"
        cfg.write_text("""
[grid]
n = 16 0 0
[gas]
mu0 = 0.01
mu1 = 1e-4
kappa_r = 1e-5
[solver]
cfl = 0.4
t_end = 0.05
lambda_variant = second-order
[initial]
preset = mms_wave
[convergence]
grids = 16 32
mode = mms
""")
        assert main(["converge", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "L2 error" in out and "observed" in out

    def test_converge_keeps_collapsed_axes(self, tmp_path, monkeypatch, capsys):
        # a 2D study must refine the two active axes only, not run on n^3 grids
        import gasbox.cli as cli_mod

        grids = []

        def spy_simulate(cfg, **kwargs):
            result = simulate(cfg, **kwargs)
            grids.append(result.grid)
            return result

        monkeypatch.setattr(cli_mod, "simulate", spy_simulate)
        cfg = tmp_path / "conv2d.cfg"
        cfg.write_text("[grid]\nn = 4 4 0\n[gas]\nmu0 = 0.01\n[solver]\ncfl = 0.4\n"
                       "t_end = 0.002\n[initial]\npreset = gaussian_density_pulse\n"
                       "[convergence]\ngrids = 4 8\nmode = richardson\n")
        assert main(["converge", str(cfg)]) == 0
        assert [g.n_intervals for g in grids] == [(4, 4, 0), (8, 8, 0)]
        assert all(g.active_axes == (0, 1) for g in grids)
        assert "L2 error" in capsys.readouterr().out

    def test_verify_fast(self, capsys):
        assert main(["verify", "--fast", "--seed", "1"]) == 0
        assert "verification passed" in capsys.readouterr().out

    def test_verify_prints_each_bound_of_the_table_once(self, capsys):
        assert run_verification(seed=1, fast=True)
        lines = [re.fullmatch(r"  (.+?) +(ok|FAIL)  \(worst \S+ (<=|>=) (\S+)\)", line)
                 for line in capsys.readouterr().out.splitlines()]
        printed = [m.groups() for m in lines if m]
        assert sorted(name for name, *_ in printed) == sorted(BOUNDS)
        for name, _, rel, bound in printed:
            assert (bound, rel) == (f"{BOUNDS[name][0]:.0e}", BOUNDS[name][1])

    @pytest.mark.parametrize("old, new, where", [
        ("t_end = 0.02", "t_end = 0.02\ndt_min = -1", r"line 6: \[solver\] dt_min:"),
        ("t_end = 0.02", "t_end = 0.02\ndt_min = nan", r"line 6: \[solver\] dt_min:"),
        ("t_end = 0.02", "t_end = nan", r"line 5: \[solver\] t_end:"),
        ("t_end = 0.02", "t_end = inf", r"line 5: \[solver\] t_end:"),
        ("n = 4 4 4", "n = 1 1 1", r"line 2: \[grid\] n:"),
        ("n = 4 4 4", "n = -3 4 4", r"line 2: \[grid\] n:"),
        ("n = 4 4 4", "n = 4 4 4\nextent = inf 1 1", r"line 3: \[grid\] extent:"),
        ("mu0 = 0.01", "mu0 = nan", r"line 7: \[gas\] mu0:"),
        ("mu0 = 0.01", "mu0 = 0.01\nkappa_r = inf", r"line 8: \[gas\] kappa_r:"),
        ("mu0 = 0.01", "mu0 = 0.01\nr = inf", r"line 8: \[gas\] r:"),
        ("mu0 = 0.01", "mu0 = 0.01\n[initial]\npreset = gaussian_density_pulse\nwidth = -1",
         r"line 10: \[initial\] width:"),
        ("mu0 = 0.01", "mu0 = 0.01\n[initial]\npreset = mms_wave\nfloor = 1.0",
         r"line 10: \[initial\] floor:"),
    ], ids=["dt_min-negative", "dt_min-nan", "t_end-nan", "t_end-inf", "n-one", "n-negative",
            "extent-inf", "mu0-nan", "kappa_r-inf", "r-inf", "width-negative", "mms-floor"])
    def test_bad_value_exits_2_at_its_key(self, tmp_path, capsys, old, new, where):
        text = ("[grid]\nn = 4 4 4\n[solver]\ncfl = 0.4\nt_end = 0.02\n[gas]\nmu0 = 0.01\n"
                f"[output]\ndirectory = {tmp_path / 'out'}\n")
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text.replace(old, new))
        assert main(["run", str(cfg)]) == 2
        assert re.search(where, capsys.readouterr().err)

    def test_step_limit_below_dt_min_aborts(self, tmp_path, capsys):
        # stable_dt is 3.9e-13 here: without the guard the run crawls through ~2,300 steps
        out = tmp_path / "out"
        cfg = tmp_path / "crawl.cfg"
        cfg.write_text("[grid]\nn = 8 0 0\n[gas]\nmu0 = 1e10\n[solver]\nt_end = 1e-9\n"
                       "dt_min = 1e-12\n[initial]\npreset = gaussian_density_pulse\n"
                       f"[output]\ndirectory = {out}\n")
        assert main(["run", str(cfg)]) == 1
        assert "below dt_min" in capsys.readouterr().err
        _, meta = read_snapshot(out / "abort_last_good.snap")
        assert meta["t"] == 0.0

    def test_physics_abort_exit_and_snapshot(self, tmp_path, capsys, monkeypatch, gas):
        import gasbox.cli as cli_mod
        from gasbox.timestep import RunAbort

        g = build_grid((6, 6, 6))
        last_good = initial_condition("uniform_rest", g, gas)

        def fake_simulate(cfg, **kwargs):
            raise RunAbort("vacuum reached", 0.011, last_good)

        monkeypatch.setattr(cli_mod, "simulate", fake_simulate)
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "out"
        cfg.write_text(RUN_CFG.format(out=out))
        assert main(["run", str(cfg)]) == 1
        assert "physics abort" in capsys.readouterr().err
        field, meta = read_snapshot(out / "abort_last_good.snap")
        assert np.array_equal(field, last_good)
        assert meta["t"] == 0.011
