"""Workload inputs made from the benchmark seed, and the checks of their outputs.

The program only ever sees what this module writes: a configuration file
for the two run workloads and a sweep seed for ``verify``.  The checks read
the program's own outputs (``diagnostics.csv``, ``final.snap``, the summary
line, the sweep report) and compare them with bounds and references kept
here and in ``reference/``.
"""

import csv
import json
import math
import pathlib
import re
import zlib

HERE = pathlib.Path(__file__).resolve().parent
REFERENCE = HERE / "reference" / "pulse3d.json"

WORKLOADS = ("pulse3d", "mms1d", "verify")

# pulse3d: demo.cfg physics at 64^3.  The seed picks one of eight pulse
# shapes; each has a stored final-state reference.  t_end is 4.75 initial
# step sizes (dt0 = 0.4 h^2 / (6 * 0.0201) = 8.097e-4, diffusion-limited),
# so every shape takes exactly PULSE_STEPS steps and the work per run does
# not depend on the seed.
PULSE_N = 64
PULSE_STEPS = 5
PULSE_T_END = 3.846e-3
PULSE_AMPLITUDES = (0.46, 0.49, 0.52, 0.55)
PULSE_WIDTHS = (0.095, 0.105)
# Relative tolerance of the final state against the stored reference: far
# above the rounding a reordering refactor introduces over five steps
# (~1e-15), far below any change of the discrete scheme.
PULSE_REF_RTOL = 1e-12
# Conservation of mass and energy holds to rounding (telescoping fluxes,
# zero wall fluxes); 64^3 sums of O(1) values drift by ~1e-16 per step.
PULSE_DRIFT_BOUND = 1e-13

# mms1d: manufactured wave at N = 256, second-order sensor, t = 0.2.
MMS_N = 256
MMS_T_END = 0.2
MMS_GAS = {"gamma": 1.4, "r": 1.0, "mu0": 0.01, "mu1": 1e-4, "kappa_r": 1e-5}
# rho_amp sets the smallest density and so the diffusive step limit: its
# range is kept narrow so the step count (766 to 795 over 0.18..0.22) and
# with it the work of a run vary little between seeds.
MMS_RANGES = {"rho_amp": (0.19, 0.21), "temp_amp": (0.08, 0.12), "vel_amp": (0.18, 0.22)}
# Volume-weighted L2 error of the final state against the analytic wave.
# Measured 1.33e-5 to 1.94e-5 over the corners of the amplitude ranges
# (rho_amp 0.18..0.22); the bound leaves a factor of about 1.5 for changes
# of rounding only, and fails long before a loss of an order of accuracy
# (which would raise the error by a factor of the order of N = 256).
MMS_L2_BOUND = 3e-5


def _unit(seed, salt):
    """Deterministic uniform number in [0, 1) from the seed."""
    return (zlib.crc32(f"{salt}:{seed}".encode()) & 0xFFFFFFFF) / 2.0**32


def pulse_choice(seed):
    """Index of the pulse shape the seed selects."""
    return int(_unit(seed, "pulse") * len(PULSE_AMPLITUDES) * len(PULSE_WIDTHS))


def pulse_params(choice):
    amp = PULSE_AMPLITUDES[choice % len(PULSE_AMPLITUDES)]
    width = PULSE_WIDTHS[choice // len(PULSE_AMPLITUDES)]
    return {"amplitude": amp, "width": width}


def mms_params(seed):
    out = {}
    for key, (lo, hi) in MMS_RANGES.items():
        out[key] = round(lo + (hi - lo) * _unit(seed, key), 6)
    return out


def verify_seed(seed):
    return int(_unit(seed, "verify") * 2**31)


def pulse_config(choice, out_dir):
    p = pulse_params(choice)
    return f"""# Gaussian density pulse, demo.cfg physics at {PULSE_N}^3
[grid]
n = {PULSE_N} {PULSE_N} {PULSE_N}

[gas]
gamma = 1.4
r = 1.0
mu0 = 0.02
mu1 = 1e-4
kappa_r = 1e-6

[solver]
cfl = 0.4
t_end = {PULSE_T_END!r}
lambda_variant = first-order

[initial]
preset = gaussian_density_pulse
floor = 1.0
amplitude = {p['amplitude']!r}
width = {p['width']!r}

[output]
directory = {out_dir}
cadence = 10
snapshots = true
apriori_report = true
"""


def mms_config(seed, out_dir):
    p = mms_params(seed)
    gas = "\n".join(f"{k} = {v!r}" for k, v in MMS_GAS.items())
    return f"""# manufactured wave, N = {MMS_N}, second-order sensor
[grid]
n = {MMS_N} 0 0

[gas]
{gas}

[solver]
cfl = 0.4
t_end = {MMS_T_END!r}
lambda_variant = second-order

[initial]
preset = mms_wave
rho_amp = {p['rho_amp']!r}
temp_amp = {p['temp_amp']!r}
vel_amp = {p['vel_amp']!r}

[output]
directory = {out_dir}
cadence = 10
snapshots = true
apriori_report = true
"""


def make_input(workload, seed, rep_dir):
    """Write the workload's input into ``rep_dir``; return the worker arguments."""
    rep_dir.mkdir(parents=True, exist_ok=True)
    if workload == "verify":
        return ["--verify-seed", str(verify_seed(seed))]
    out = rep_dir / "out"
    if workload == "pulse3d":
        text = pulse_config(pulse_choice(seed), out.as_posix())
    else:
        text = mms_config(seed, out.as_posix())
    cfg = rep_dir / "run.cfg"
    cfg.write_text(text, encoding="utf-8")
    return ["--config", str(cfg)]


# ---------------------------------------------------------------------------
# output checks


def read_csv(path):
    """diagnostics.csv as {column: [floats]}; columns are found by name."""
    with open(path, encoding="utf-8") as fh:
        rows = [line for line in fh if not line.startswith("#")]
    reader = csv.DictReader(rows)
    cols = {name: [] for name in reader.fieldnames}
    for row in reader:
        for name, value in row.items():
            cols[name].append(float(value))
    return cols


def parse_summary(stdout):
    """(steps, rejections) from the run command's summary line."""
    m = re.search(r"^summary:.*\bsteps=(\d+)\b.*\brejections=(\d+)\b", stdout, re.M)
    if m is None:
        raise ValueError("run printed no summary line")
    return int(m.group(1)), int(m.group(2))


def fingerprint(u5):
    """Compact view of a 3D state for the stored reference."""
    import numpy as np

    u5 = np.asarray(u5, dtype=float)
    return {
        "samples": u5[:, ::16, ::16, ::16].ravel().tolist(),
        "sum_sq": [float(np.sum(c * c)) for c in u5],
        "sum_abs": [float(np.sum(np.abs(c))) for c in u5],
    }


def _fingerprint_error(got, ref):
    import numpy as np

    worst = 0.0
    samples = np.array(got["samples"]).reshape(5, -1)
    ref_samples = np.array(ref["samples"]).reshape(5, -1)
    for c in range(5):
        scale = max(float(np.max(np.abs(ref_samples[c]))), 1e-300)
        worst = max(worst, float(np.max(np.abs(samples[c] - ref_samples[c]))) / scale)
    for key in ("sum_sq", "sum_abs"):
        for a, b in zip(got[key], ref[key]):
            worst = max(worst, abs(a - b) / max(abs(b), 1e-300))
    return worst


def _drift_and_entropy(csv_path):
    cols = read_csv(csv_path)
    mass, energy, entropy = cols["mass"], cols["energy"], cols["entropy"]
    mass_drift = abs(mass[-1] - mass[0]) / abs(mass[0])
    energy_drift = abs(energy[-1] - energy[0]) / abs(energy[0])
    worst_rise = max((b - a) / max(1.0, abs(a)) for a, b in zip(entropy, entropy[1:]))
    return mass_drift, energy_drift, worst_rise


def mms_exact(params, x, t):
    """Analytic conserved state of the manufactured wave, written from the
    formulas in the ``mms`` module docstring (independent of sympy)."""
    import numpy as np

    gamma, r_gas = MMS_GAS["gamma"], MMS_GAS["r"]
    omega = 2.0 * math.pi
    rho = 1.0 + params["rho_amp"] * np.cos(math.pi * x) * math.cos(omega * t)
    u = params["vel_amp"] * np.sin(math.pi * x) * math.sin(omega * t)
    temp = 1.0 + params["temp_amp"] * np.cos(2.0 * math.pi * x) * math.cos(omega * t)
    p = rho * r_gas * temp
    zero = np.zeros_like(rho)
    return np.stack([rho, rho * u, zero, zero, p / (gamma - 1.0) + 0.5 * rho * u * u])


def mms_l2_error(u5, t, params):
    import numpy as np

    u5 = np.asarray(u5, dtype=float).reshape(5, -1)
    n = u5.shape[1] - 1
    x = np.linspace(0.0, 1.0, n + 1)
    vol = np.full(n + 1, 1.0 / n)
    vol[[0, -1]] *= 0.5
    diff = u5 - mms_exact(params, x, t)
    return float(np.sqrt(np.sum(vol * diff * diff)))


def load_reference():
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def check_rep(workload, seed, rep_dir, result, read_snapshot, reference=None):
    """Check one repetition's outputs; returns a list of failure messages."""
    if result.get("exit_code") != 0:
        return [f"program exited with code {result.get('exit_code')}"]
    stdout = result["stdout"]
    if workload == "verify":
        return [] if "verification passed" in stdout else ["verification sweep failed"]

    fails = []
    steps, rejections = parse_summary(stdout)
    if rejections:
        fails.append(f"{rejections} step rejections")
    out = rep_dir / "out"
    u5, meta = read_snapshot(out / "final.snap")
    if not (out / "apriori_report.txt").is_file():
        fails.append("no a priori report written")
    if workload == "mms1d":
        err = mms_l2_error(u5, meta["t"], mms_params(seed))
        if not err <= MMS_L2_BOUND:
            fails.append(f"MMS L2 error {err:.3e} > {MMS_L2_BOUND:.0e}")
        return fails

    mass_drift, energy_drift, worst_rise = _drift_and_entropy(out / "diagnostics.csv")
    if not mass_drift <= PULSE_DRIFT_BOUND:
        fails.append(f"mass drift {mass_drift:.3e}")
    if not energy_drift <= PULSE_DRIFT_BOUND:
        fails.append(f"energy drift {energy_drift:.3e}")
    if not worst_rise <= 1e-12:
        fails.append(f"entropy rose by {worst_rise:.3e} (relative)")
    ref = (reference or load_reference())["choices"][str(pulse_choice(seed))]
    if steps != ref["steps"]:
        fails.append(f"{steps} steps, reference took {ref['steps']}")
    err = _fingerprint_error(fingerprint(u5), ref)
    if not err <= PULSE_REF_RTOL:
        fails.append(f"final state differs from reference by {err:.3e} (relative)")
    return fails
