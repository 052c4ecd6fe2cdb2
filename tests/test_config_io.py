import contextlib
import inspect
import io
import pathlib
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gasbox.cli import main
from gasbox.config import _COMMENT, _HEADER, _KEY, _SCHEMA, ConfigError, RunConfig, _read, parse_config
from gasbox.driver import simulate
from gasbox.fluxes import LambdaVariant
from gasbox.grid import build_grid
from gasbox.initial import PRESETS, initial_condition
from gasbox.mms import MMSWave, mms_from_initial
from gasbox.snapshot import read_snapshot, write_snapshot
from gasbox.thermo import GasParams
from gasbox.timestep import SolverParams
from gasbox.verify import BOUNDS, run_verification

MINIMAL = """
[grid]
n = 8 8 8

[solver]
t_end = 0.01
"""


_HOSTILE_VALUES = st.one_of(
    st.floats().map(repr), st.integers(-10**30, 10**30).map(str),
    st.lists(st.sampled_from(["0", "2", "8", "1e308", "nan", "-inf", "x"]), min_size=1, max_size=4)
    .flatmap(lambda parts: st.sampled_from([" ".join(parts), ", ".join(parts)])),
    st.sampled_from(["", "%", "%(x)s", "out%x", "ünïcødé", "名前", "TRUE", "Second_Order", "RICHARDSON"]),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n"), max_size=6),
)
# a value its key accepts, more often than not, so that whole documents parse
_PLAUSIBLE = {"n": ["4 0 0", "8 8 0", "4", "4, 4, 0"], "extent": ["1", "2 1 1"],
              "gamma": ["1.4", "1.3"], "lambda_variant": ["first-order", "second_order"],
              "t_end": ["0.1"], "max_rejects": ["3"], "cadence": ["1", "10"], "dt_min": ["1e-9"],
              "directory": ["out"], "snapshots": ["yes", "Off"], "apriori_report": ["true", "0"],
              "grids": ["16 32", "8,16,32"], "mode": ["mms", "Richardson"],
              "preset": [p.upper() for p in PRESETS if p != "mms_wave"] + ["vortex"]}


# an mms_wave document fixes the wave and the gas: each distinct pair compiles
# sympy for about a second, and this pair is the ``gas`` fixture's, which other
# tests compile anyway
_MMS_HEAD = ["[gas]", "mu0 = 0.01", "mu1 = 1e-4", "kappa_r = 1e-6", "[initial]", "preset = mms_wave"]


@st.composite
def _fuzz_document(draw, mms):
    """Sections of the table with some of their keys, and now and then a hostile line."""
    sections = [s for s in _SCHEMA if not (mms and s in ("gas", "initial"))]
    case = st.sampled_from([str.lower, str.upper, str.title])
    pad = st.sampled_from(["", " ", "\t"])
    hostile = st.one_of(
        st.sampled_from(["", "# comment", "; comment", "   # indented", "%(x)s", "[grid", "n", "= 3", "  4 4",
                         "spacing = 1", "cfl = 0.5", "preset = vortex", "[DEFAULT]", "[grud]", "[grid]"]),
        st.builds(lambda name, case: f"[{case(name)}]", st.sampled_from(sections), case))
    lines = list(_MMS_HEAD) if mms else []
    # repeated sections and keys come from the hostile lines
    for section in draw(st.lists(st.sampled_from(sections), max_size=4, unique=True)):
        lines.append(f"{draw(pad)}[{draw(case)(section)}]{draw(pad)}")
        for key in draw(st.lists(st.sampled_from(list(_SCHEMA[section])), max_size=4, unique=True)):
            plausible = st.sampled_from(_PLAUSIBLE.get(key, ["0.5", "1", "0.01"]))
            value = draw(st.integers(0, 3).flatmap(lambda i: _HOSTILE_VALUES if i == 0 else plausible))
            lines.append(draw(pad) + draw(case)(key) + draw(st.sampled_from([" = ", "=", ": ", " : "]))
                         + value + draw(st.sampled_from(["", "", " # note", " ; note", "#glued"])))
        if draw(st.integers(0, 3)) == 0:
            lines.append(draw(hostile))
    return "\n".join(lines)


# the sections parse_config builds, in its order
_STAGES = ("grid", "gas", "solver", "initial")


def _error(text):
    """The message of the ConfigError that ``text`` raises, '' if it parses."""
    try:
        parse_config(text)
    except ConfigError as exc:
        return str(exc)
    return ""


def _without(text, lineno):
    """``text`` without its line ``lineno``."""
    return "\n".join(line for i, line in enumerate(text.split("\n"), 1) if i != lineno)


def _stage(text):
    """The index in _STAGES of the section that rejects ``text``, 4 if it
    parses; an error at the [gas] header is the default [initial] block's."""
    if not (error := _error(text)):
        return 4
    at = re.match(r"(?:line \d+: )?\[(\w+)\]( \w+)?: ", error)
    return 3 if at[1] == "gas" and not at[2] else _STAGES.index(at[1])


class TestParseConfig:
    def test_minimal_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.grid_n == (8, 8, 8)
        assert cfg.solver.cfl == 0.5
        assert cfg.solver.lambda_variant is LambdaVariant.FIRST_ORDER
        assert cfg.initial["preset"] == "uniform_rest"
        assert cfg.gas.gamma == 1.4
        assert cfg.solver == SolverParams()
        assert cfg.gas == GasParams()

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

    def test_readme_config_reference_is_complete(self):
        # the ```ini block of README.md parses, sets every key outside
        # [initial], and its [initial] comments name every preset and parameter
        readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = re.search(r"```ini\n(.*?)```", readme, re.DOTALL)[1]
        assert isinstance(parse_config(block), RunConfig)
        values, _ = _read(block)
        for section, keys in _SCHEMA.items():
            if section != "initial":
                assert sorted(values[section]) == sorted(keys), section
        initial = block[block.index("[initial]"):block.index("[output]")]
        named = set(re.findall(r"\w+", initial))
        assert set(_SCHEMA["initial"]) | set(PRESETS) <= named

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match=re.escape(f"preset: expected one of {tuple(PRESETS)}")):
            parse_config("[initial]\npreset = vortex\n")
        for preset in PRESETS:
            # the manufactured wave needs a grid varying along x only
            grid = "[grid]\nn = 8 0 0\n" if preset == "mms_wave" else ""
            assert parse_config(f"{grid}[initial]\npreset = {preset}\n").initial["preset"] == preset

    def test_output_seed_is_an_unknown_key(self):
        with pytest.raises(ConfigError, match=r"line 4: \[output\] seed: unknown key"):
            parse_config("[output]\ndirectory = out\n\nseed = 42\n")

    def test_section_names_are_case_insensitive(self):
        cfg = parse_config("[GRID]\nn = 4 0 0\n[Solver]\nt_end = 0.3\n")
        assert cfg.grid_n == (4, 0, 0) and cfg.t_end == 0.3

    def test_grammar(self):
        cfg = parse_config("# comment\n; comment\n[grid]\n  # indented comment\n"
                           "N: 4 0 0 ; inline\nextent = 2, 1, 1 # inline\n[output]\ndirectory = a%(b)s#c\n")
        assert (cfg.grid_n, cfg.extent, cfg.output_dir) == ((4, 0, 0), (2.0, 1.0, 1.0), "a%(b)s#c")
        for text, where in [
            ("[grid]\nn = 4 0 0\n[grid]\n", r"line 3: repeated section \[grid\]"),
            ("[grid]\nn = 4 0 0\nN = 8 0 0\n", r"line 3: \[grid\] n: repeated key"),
            ("n = 4 0 0\n[grid]\n", r"line 1: key 'n' before the first \[section\]"),
            ("[grid]\nn = 4 0 0\n  8\n", r"line 3: expected \[section\]"),  # a continuation line
            ("[grid]\n[DEFAULT]\ncadence = 3\n", r"line 2: unknown section \[DEFAULT\]"),
            ("[output]\ncadence = 0\n", r"line 2: \[output\] cadence: must be >= 1 \(got '0'\)"),
            ("[convergence]\nmode = fast\n", r"line 2: \[convergence\] mode: expected one of .*\(got 'fast'\)"),
            ("[solver]\nlambda_variant = third\n", r"line 2: \[solver\] lambda_variant: .*\(got 'third'\)"),
            # the default [initial] state is inadmissible for this gas alone
            ("[gas]\nr = 1e-310\n", r"line 1: \[gas\]: nonpositive"),
        ]:
            with pytest.raises(ConfigError, match=where):
                parse_config(text)

    @pytest.mark.filterwarnings("ignore:mu1 exceeds mu0:UserWarning")
    @settings(max_examples=150, deadline=None)
    @given(text=st.booleans().flatmap(_fuzz_document))
    def test_fuzzed_document_parses_or_cites_a_line(self, text):
        # parse only, never run: a drawn grid may ask for arrays of any size
        try:
            cfg = parse_config(text)
        except ConfigError as exc:
            cited = re.match(r"line (\d+): ", str(exc))
            assert cited and 1 <= int(cited[1]) <= text.count("\n") + 1, (str(exc), text)
            # a key is cited at a line that sets it, a section at its header
            line = _COMMENT.split(text.split("\n")[int(cited[1]) - 1], maxsplit=1)[0].strip()
            if at := re.match(r"line \d+: \[(\w+)\] ([^:]+): ", str(exc)):
                assert (setting := _KEY.fullmatch(line)) and setting[1].lower() == at[2], (str(exc), text)
            elif at := re.match(r"line \d+: \[(\w+)\]: ", str(exc)):
                assert (header := _HEADER.fullmatch(line)) and header[1].lower() == at[1], (str(exc), text)
        else:
            assert isinstance(cfg, RunConfig)

    @pytest.mark.filterwarnings("ignore:mu1 exceeds mu0:UserWarning")
    @settings(max_examples=150, deadline=None)
    @given(text=_fuzz_document(mms=False))
    # deleting either line 3 or line 4 admits the block
    @example(text="[initial]\npreset = thermal_spot\namplitude = -0.5\ntemperature = 0.1")
    # deleting either the preset or rho admits the block
    @example(text="[initial]\npreset = gaussian_density_pulse\nrho = 2")
    def test_cited_key_is_the_first_without_which_its_section_passes(self, text):
        # a document rejected in a section: if deleting one key line of that
        # section gets the parse past it, the error cites the first such line,
        # trying them in file order with preset last; the mms_wave documents
        # are left out, as each wave compiles sympy
        while True:  # first delete the lines the grammar or a value rejects
            try:
                _, lines = _read(text)
                break
            except ConfigError as exc:
                text = _without(text, int(re.match(r"line (\d+): ", str(exc))[1]))
        if (stage := _stage(text)) == 4:
            return
        keyed = sorted((k == "preset", n, k) for (s, k), n in lines.items() if s == _STAGES[stage] and k)
        past = [(n, k) for _, n, k in keyed if _stage(_without(text, n)) > stage]
        if past:
            (n, k), error = past[0], _error(text)
            assert error.startswith(f"line {n}: [{_STAGES[stage]}] {k}: "), (error, text)


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

    def test_mms_preset_needs_n_N_0_0_and_checks_before_compiling(self, gas):
        from gasbox.mms import _compiled_state
        before = _compiled_state.cache_info()
        for shape in [(0, 8, 0), (8, 8, 0), (8, 4, 4)]:
            with pytest.raises(ValueError, match="n = N 0 0"):
                initial_condition("mms_wave", build_grid(shape), gas, omega=3.0)
        assert _compiled_state.cache_info() == before

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
        write_snapshot(path, u5, 0.5, gas)
        assert np.array_equal(read_snapshot(path)[0], u5)  # a v1 file still reads back
        with open(path, "ab") as fh:
            fh.write(b"junk")
        with pytest.raises(ValueError, match="trailing bytes"):
            read_snapshot(path)

    def test_roundtrip_bitwise(self, tmp_path, rng, gas):
        g = build_grid((5, 6, 7), (1.0, 2.0, 0.5))
        u5 = rng.normal(size=(5,) + g.shape)
        path = tmp_path / "field.snap"
        write_snapshot(path, u5, 0.375, gas)
        back, meta = read_snapshot(path)
        assert np.array_equal(back, u5)
        assert meta["t"] == 0.375
        assert meta["gamma"] == gas.gamma
        assert meta["shape"] == g.shape

    def test_file_is_header_and_field_bytes(self, tmp_path, rng, gas):
        # the field is written from its own buffer: the bytes are those of
        # the C-ordered little-endian copy, also for a strided or big-endian input
        from gasbox.snapshot import _HEADER, MAGIC, VERSION

        g = build_grid((4, 3, 2))
        u5 = rng.normal(size=(5,) + g.shape)
        for field in (u5, np.asfortranarray(u5), u5.astype(">f8"), u5[:, ::-1]):
            path = tmp_path / "field.snap"
            write_snapshot(path, field, 0.125, gas)
            expected = np.ascontiguousarray(field, dtype="<f8").tobytes()
            header = _HEADER.pack(MAGIC, VERSION, *g.shape, 0.125, gas.gamma, gas.R)
            assert path.read_bytes() == header + expected

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.snap"
        path.write_bytes(b"NOTASNAP" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            read_snapshot(path)

    def test_header_checked_before_the_payload_is_read(self, tmp_path, gas):
        from gasbox.snapshot import _HEADER, MAGIC, VERSION
        path = tmp_path / "field.snap"
        for counts, t, gamma, where in [
            ((0xFFFFFFFF,) * 3, 0.0, 1.4, "truncated snapshot payload"),
            ((0, 3, 3), 0.0, 1.4, "bad snapshot header"),
            ((1, 1, 1), float("nan"), 1.4, "bad snapshot header"),
            ((1, 1, 1), 0.0, 3.0, "gamma"),
        ]:
            path.write_bytes(_HEADER.pack(MAGIC, VERSION, *counts, t, gamma, gas.R) + bytes(40))
            with pytest.raises(ValueError, match=where):
                read_snapshot(path)

    @settings(max_examples=150, deadline=None)
    @given(change=st.one_of(st.tuples(st.just("cut"), st.integers(0, 167)),
                            st.tuples(st.just("extend"), st.binary(min_size=1, max_size=64)),
                            st.tuples(st.just("flip"), st.integers(0, 8 * 168 - 1))))
    def test_fuzzed_snapshot_reads_or_raises_valueerror(self, tmp_path_factory, change):
        g = build_grid((2, 0, 0))
        u5 = np.arange(5.0 * 3).reshape((5,) + g.shape)
        path = tmp_path_factory.getbasetemp() / "fuzzed.snap"
        write_snapshot(path, u5, 0.25, GasParams())
        blob = path.read_bytes()
        assert len(blob) == 168 and np.array_equal(read_snapshot(path)[0], u5)
        kind, arg = change
        if kind == "cut":
            blob = blob[:arg]
        elif kind == "extend":
            blob += arg
        else:
            blob = bytearray(blob)
            blob[arg // 8] ^= 1 << (arg % 8)
        path.write_bytes(bytes(blob))
        try:
            read_snapshot(path)
        except ValueError:
            pass

    def test_truncated_payload_rejected(self, tmp_path, gas):
        g = build_grid((4, 0, 0))
        u5 = np.ones((5,) + g.shape)
        path = tmp_path / "field.snap"
        write_snapshot(path, u5, 0.0, gas)
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
        # a 2D study must refine the two active axes only, not run on n^3
        # grids, and keeps no history although the config asks for a report
        import gasbox.cli as cli_mod

        results = []

        def spy_simulate(cfg, **kwargs):
            results.append(simulate(cfg, **kwargs))
            return results[-1]

        monkeypatch.setattr(cli_mod, "simulate", spy_simulate)
        cfg = tmp_path / "conv2d.cfg"
        cfg.write_text("[grid]\nn = 4 4 0\n[gas]\nmu0 = 0.01\n[solver]\ncfl = 0.4\n"
                       "t_end = 0.002\n[initial]\npreset = gaussian_density_pulse\n"
                       "[output]\napriori_report = true\n"
                       "[convergence]\ngrids = 4 8\nmode = richardson\n")
        assert main(["converge", str(cfg)]) == 0
        assert [r.grid.shape for r in results] == [(5, 5, 1), (9, 9, 1)]
        assert all(r.grid.active_axes == (0, 1) and r.history == [] for r in results)
        assert "L2 error" in capsys.readouterr().out

    @pytest.mark.parametrize("grids", ["4", "4 6", "0 0", "-2 -4"])
    def test_converge_bad_grids_exit_2_at_their_line(self, tmp_path, capsys, grids):
        cfg = tmp_path / "conv.cfg"
        cfg.write_text(f"[grid]\nn = 4 0 0\n[convergence]\ngrids = {grids}\nmode = richardson\n")
        assert main(["converge", str(cfg)]) == 2
        assert re.search(r"line 4: \[convergence\] grids:", capsys.readouterr().err)

    def test_nonfinite_monitor_is_a_physics_abort(self, tmp_path, capsys):
        # the 3-node probe of the config gate passes this block, but the
        # temperature gradient norm of the 65-node grid overflows
        out = tmp_path / "out"
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[grid]\nn = 64 0 0\n[solver]\nt_end = 1e-300\n[initial]\n"
                       "preset = thermal_spot\ntemperature = 1.0\namplitude = 3e102\n"
                       f"[output]\ndirectory = {out}\n")
        assert main(["run", str(cfg)]) == 1
        assert capsys.readouterr().err == "physics abort: monitors not finite at t = 0: l2_grad_temp32\n"
        _, meta = read_snapshot(out / "abort_last_good.snap")
        assert meta["t"] == 0.0
        assert not (out / "diagnostics.csv").exists()

    @staticmethod
    def _rest_run(out, rho, report):
        cfg = out / "run.cfg"
        cfg.write_text(f"[grid]\nn = 4 4 0\n[solver]\nt_end = 1e-3\n[initial]\npreset = uniform_rest\n"
                       f"rho = {rho}\n[output]\ndirectory = {out}\napriori_report = {report}\n")
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(["run", str(cfg)])
        # a warning is a line of stderr from the shell; here it is recorded instead
        return code, err.getvalue() + "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)

    def test_nonfinite_apriori_value_is_a_physics_abort(self, tmp_path):
        # the monitors of rho = 1e80 are finite, but rho^4 of the L4 norm overflows
        assert self._rest_run(tmp_path, "1e80", "true") == (
            1, "physics abort: monitors not finite at t = 0: L4 norm of rho\n")
        assert (tmp_path / "abort_last_good.snap").exists()
        assert not (tmp_path / "apriori_report.txt").exists()
        assert self._rest_run(tmp_path, "1e80", "false") == (0, "")

    @settings(max_examples=25, deadline=None)
    @given(e=st.integers(-330, 330))
    def test_rest_density_reports_finite_values_or_exits_cleanly(self, tmp_path_factory, e):
        out = tmp_path_factory.mktemp("rest")
        code, err = self._rest_run(out, f"1e{e}", "true")
        if code == 0:
            report = (out / "apriori_report.txt").read_text()
            values = [float(line.split()[-1]) for line in report.splitlines() if line.startswith("  ")]
            assert err == "" and len(values) == 12 and all(np.isfinite(values)), (e, err, report)
        else:
            assert code in (1, 2) and err.count("\n") == 1 and err.endswith("\n"), (e, code, err)

    @pytest.mark.parametrize("argv, old, new, code, err", [
        (["run"], "t_end = 0.01", "t_end = 0.01\nseed = 1", 2, r"config error: line 5: .* unknown key"),
        (["converge"], "t_end = 0.01", "t_end = 0.01\nseed = 1", 2, r"config error: line 5: .* unknown key"),
        (["run"], "t_end = 0.01", "t_end = 0.01\ndt_min = 1.0", 1, "physics abort: step limit"),
        (["converge"], "t_end = 0.01", "t_end = 0.01\ndt_min = 1.0", 1, "physics abort: step limit"),
        (["converge"], "n = 8 0 0", "n = 8 0 0\nextent = 1.5 1 1\n[initial]\npreset = mms_wave", 2,
         r"config error: line 5: \[initial\] preset: .*got extent 1\.5"),
        (["run"], "{out}", "{file}", 2, "config error: cannot create output directory"),
        (["run"], "{out}", "{file}/sub", 2, "config error: cannot create output directory"),
        (["verify", "--fast", "--seed", "1"], "", "", 0, ""),
        (["verify", "--fast", "--seed", "-1"], "", "", 2, "usage error: --seed"),
    ], ids=["run-unknown-key", "converge-unknown-key", "run-abort", "converge-abort",
            "converge-mms-wave-extent", "run-directory-is-a-file", "run-directory-under-a-file",
            "verify", "verify-negative-seed"])
    def test_exit_code_matrix(self, tmp_path, capsys, argv, old, new, code, err):
        # in process, so a traceback fails the test instead of exiting 1
        (tmp_path / "file").write_text("")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[grid]\nn = 8 0 0\n[solver]\nt_end = 0.01\n[output]\ndirectory = {out}\n"
                       "[convergence]\ngrids = 8 16\nmode = richardson\n".replace(old, new)
                       .format(out=tmp_path / "out", file=tmp_path / "file"))
        assert main(argv + [str(cfg)] * (argv[0] != "verify")) == code
        printed = capsys.readouterr().err
        assert re.match(err, printed) and printed.count("\n") == (code != 0)

    @pytest.mark.parametrize("argv, err", [
        (["verify", "--seed", "x"], "usage error: argument --seed: invalid int value: 'x'\n"),
        (["run"], "usage error: the following arguments are required: config\n"),
        ([], "usage error: the following arguments are required: command\n"),
        (["frob"], "usage error: argument command: invalid choice: 'frob' "),
    ], ids=["verify-seed-not-an-int", "run-without-config", "no-subcommand", "unknown-subcommand"])
    def test_usage_errors_print_one_line_and_exit_2(self, capsys, argv, err):
        # argparse's own errors take the one-line exit-2 path of every
        # other usage or config error, not its usage line and SystemExit
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(err) and captured.err.count("\n") == 1
        assert captured.out == ""

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: gasbox ")

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
        ("n = 4 4 4", "n = 4 4 0\nextent = 1e200", r"line 3: \[grid\] extent:"),
        ("mu0 = 0.01", "mu0 = nan", r"line 7: \[gas\] mu0:"),
        ("mu0 = 0.01", "mu0 = 0.01\nkappa_r = inf", r"line 8: \[gas\] kappa_r:"),
        ("mu0 = 0.01", "mu0 = 0.01\nr = inf", r"line 8: \[gas\] r:"),
        ("mu0 = 0.01", "mu0 = 0.01\n[initial]\npreset = gaussian_density_pulse\nwidth = -1",
         r"line 10: \[initial\] width:"),
        ("mu0 = 0.01", "mu0 = 0.01\n[initial]\npreset = mms_wave\nfloor = 1.0",
         r"line 10: \[initial\] floor:"),
        # the wave's walls sit at x = 0 and x = 1, its length
        ("n = 4 4 4", "n = 32 0 0\nextent = 1.5 1 1\n[initial]\npreset = mms_wave",
         r"line 5: \[initial\] preset: .*extent 1 along x.*got extent 1\.5"),
        ("mu0 = 0.01", "mu0 = 0.01\n[initial]\npreset = gaussian_density_pulse\namplitude = 1e308",
         r"line 10: \[initial\] amplitude:"),
        ("mu0 = 0.01", "mu0 = 0.01\n[initial]\npreset = gaussian_density_pulse\ntemperature = inf",
         r"line 10: \[initial\] temperature:"),
        ("mu0 = 0.01", "mu0 = 0.01\n[initial]\npreset = gaussian_density_pulse\ntemperature = 1e-310",
         r"line 10: \[initial\] temperature:"),
        ("mu0 = 0.01", "mu0 = 0.01\n[initial]\npreset = thermal_spot\nwidth = inf",
         r"line 10: \[initial\] width:"),
        # admissible, but the entropy and the norms of its records overflow
        ("mu0 = 0.01", "mu0 = 0.01\n[initial]\npreset = uniform_rest\nrho = 1e307",
         r"line 10: \[initial\] rho: .*entropy.* not finite"),
        # an inadmissible state names no key: the one whose removal admits the
        # block is at fault, and the header when no single key is
        ("mu0 = 0.01", "mu0 = 0.01\n[initial]\npreset = gaussian_density_pulse\nfloor = 1.0\n"
         "amplitude = -5", r"line 11: \[initial\] amplitude:"),
        ("mu0 = 0.01", "mu0 = 0.01\n[initial]\npreset = gaussian_density_pulse\nfloor = -1\n"
         "amplitude = -1", r"line 8: \[initial\]: "),
        # the wave's message names temperature, but deleting that line leaves
        # the block rejected and deleting the amplitude's admits it
        ("n = 4 4 4\n[solver]\ncfl = 0.4\nt_end = 0.02\n[gas]\nmu0 = 0.01",
         "\n".join(["n = 8 0 0", "[solver]", "cfl = 0.4", "t_end = 0.02", *_MMS_HEAD,
                    "temperature = 1.0", "rho_amp = 1.5"]), r"line 13: \[initial\] rho_amp: "),
        ("n = 4 4 4\n[solver]\ncfl = 0.4\nt_end = 0.02\n[gas]\nmu0 = 0.01",
         "\n".join(["n = 8 0 0", "[solver]", "cfl = 0.4", "t_end = 0.02", *_MMS_HEAD,
                    "rho = 2.0", "temperature = 1.5", "temp_amp = 1.5"]), r"line 14: \[initial\] temp_amp: "),
    ], ids=["dt_min-negative", "dt_min-nan", "t_end-nan", "t_end-inf", "n-one", "n-negative",
            "extent-inf", "extent-overflow", "mu0-nan", "kappa_r-inf", "r-inf", "width-negative",
            "mms-floor", "mms-extent", "amplitude-huge", "temperature-inf", "temperature-subnormal",
            "width-inf", "rho-huge", "amplitude-after-floor", "floor-and-amplitude", "mms-rho_amp",
            "mms-temp_amp"])
    def test_bad_value_exits_2_at_its_key(self, tmp_path, capsys, old, new, where):
        text = ("[grid]\nn = 4 4 4\n[solver]\ncfl = 0.4\nt_end = 0.02\n[gas]\nmu0 = 0.01\n"
                f"[output]\ndirectory = {tmp_path / 'out'}\n")
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text.replace(old, new))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert re.search(where, err)
        # the config error is all the run prints: one line, no numpy warning
        assert err.count("\n") == 1 and [str(w.message) for w in caught] == []

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=100, deadline=None)
    @given(preset=st.sampled_from(["gaussian_density_pulse", "acoustic_pulse", "thermal_spot"]),
           values=st.fixed_dictionaries({key: st.none() | st.floats(1e-2, 1e2) | st.floats()
                                         for key in ("rho", "temperature", "floor", "amplitude", "width")}))
    def test_fuzzed_gaussian_block_runs_or_exits_cleanly(self, tmp_path_factory, preset, values):
        # st.floats() draws nan, +-inf, huge and subnormal values; a value is
        # written only for the keys the preset takes, None leaves it out.
        # dt_min bounds a run at 100 steps, so a hot gas aborts instead of crawling.
        takes = inspect.signature(PRESETS[preset]).parameters
        lines = "".join(f"{k} = {v!r}\n" for k, v in values.items() if k in takes and v is not None)
        out = tmp_path_factory.mktemp("fuzz")
        cfg = out / "run.cfg"
        cfg.write_text("[grid]\nn = 4 0 0\n[solver]\nt_end = 1e-3\ndt_min = 1e-5\n"
                       f"[initial]\npreset = {preset}\n{lines}[output]\ndirectory = {out}\n")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["run", str(cfg)])
        assert (code == 0 or (code == 1 and "physics abort" in err.getvalue())
                or (code == 2 and re.search(r"line \d+", err.getvalue()))), (code, err.getvalue())

    def test_percent_in_a_value_is_literal(self, tmp_path, capsys):
        # values are literal: no interpolation
        out = tmp_path / "out%x"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[grid]\nn = 4 0 0\n[solver]\nt_end = 1e-3\n[output]\ndirectory = {out}\n")
        assert main(["run", str(cfg)]) == 0
        assert (out / "diagnostics.csv").exists() and (out / "final.snap").exists()

    def test_default_section_exits_2_at_its_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[grid]\nn = 4 0 0\n[DEFAULT]\ncadence = 3\n[output]\ndirectory = {tmp_path}\n")
        assert main(["run", str(cfg)]) == 2
        assert capsys.readouterr().err == "config error: line 3: unknown section [DEFAULT]\n"

    @pytest.mark.parametrize("n", ["0 32 0", "16 16 0"])
    def test_mms_wave_on_a_2d_grid_exits_2(self, tmp_path, capsys, n):
        # the wave varies along x and is no-slip only at the x walls
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[grid]\nn = {n}\n[initial]\npreset = mms_wave\n[output]\ndirectory = {tmp_path}\n")
        assert main(["run", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and re.search(r"line 4: \[initial\] preset: .*n = N 0 0", err)

    @pytest.mark.parametrize("initial, code, err", [
        *((["vel_amp = " + amp], 2, r"config error: line 7: \[initial\] vel_amp: the manufactured forcing "
           r"overflows[^\n]*\n") for amp in ("1e110", "1e120", "1e200")),
        # rho_max / rho_min = 1999: valid, and its forcing fits (it needs a
        # finer grid than this to run far without a positivity abort)
        (["rho_amp = 0.999", "temp_amp = 0.999", "vel_amp = 3"], 0, ""),
    ], ids=["vel_amp-1e110", "vel_amp-1e120", "vel_amp-1e200", "steep-wave"])
    def test_mms_forcing_is_checked_over_a_period(self, tmp_path, capsys, initial, code, err):
        # the wave has no velocity at t = 0, where the initial state is
        # checked; the forcing's fit samples a whole period
        cfg = tmp_path / "run.cfg"
        cfg.write_text("\n".join(_MMS_HEAD + initial + ["[grid]", "n = 8 0 0", "[solver]", "t_end = 1e-6",
                                                         "[output]", f"directory = {tmp_path}"]))
        assert main(["run", str(cfg)]) == code
        assert re.fullmatch(err, capsys.readouterr().err)

    def test_huge_width_runs_without_a_warning(self, tmp_path, capsys):
        # the width's square overflows to inf, the intended flat bump
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[grid]\nn = 4 0 0\n[solver]\nt_end = 1e-3\n[initial]\n"
                       f"preset = gaussian_density_pulse\nwidth = 1e200\n[output]\ndirectory = {tmp_path}\n")
        assert main(["run", str(cfg)]) == 0
        assert capsys.readouterr().err == ""

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
