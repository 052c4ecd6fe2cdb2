"""Golden-state regression: two fixed runs must reproduce stored final
states, so a refactor that only reorders arithmetic is told apart from one
that changes the discrete scheme.

The stored fingerprints in ``golden_states.json`` were written by running
this file as a script (``PYTHONPATH=src python tests/test_golden.py``)
before the face-bundle refactor; regenerate them only when the scheme is
meant to change.
"""

import json
import pathlib

import numpy as np
import pytest

from gasbox.config import parse_config
from gasbox.driver import simulate

HERE = pathlib.Path(__file__).resolve().parent
GOLDEN = HERE / "golden_states.json"

# Relative to the largest magnitude of each conserved component; a
# reordering of the arithmetic moves the final states by ~1e-15.
RTOL = 1e-13

MMS_CFG = """
[grid]
n = 64 0 0

[gas]
gamma = 1.4
r = 1.0
mu0 = 0.01
mu1 = 1e-4
kappa_r = 1e-5

[solver]
cfl = 0.4
t_end = 0.1
lambda_variant = second-order

[initial]
preset = mms_wave
"""


def _cases():
    demo = (HERE.parent / "demo.cfg").read_text(encoding="utf-8")
    return {"demo_16": demo, "mms_wave_64": MMS_CFG}


def fingerprint(u5):
    """Every third node of each axis (walls and interior) per component."""
    u5 = np.asarray(u5, dtype=float)
    samples = u5[:, ::3, ::3, ::3]
    return {
        "shape": list(u5.shape),
        "samples": samples.reshape(5, -1).tolist(),
    }


def run_case(name):
    result = simulate(parse_config(_cases()[name]))
    return result.steps, fingerprint(result.state)


@pytest.mark.parametrize("name", sorted(_cases()))
def test_final_state_matches_golden(name):
    ref = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    steps, got = run_case(name)
    assert steps == ref["steps"]
    assert got["shape"] == ref["fingerprint"]["shape"]
    for c, (g, r) in enumerate(zip(got["samples"], ref["fingerprint"]["samples"])):
        g, r = np.array(g), np.array(r)
        scale = max(float(np.max(np.abs(r))), 1e-300)
        worst = float(np.max(np.abs(g - r))) / scale
        assert worst <= RTOL, f"component {c} differs by {worst:.3e} (relative)"


if __name__ == "__main__":
    out = {}
    for name in sorted(_cases()):
        steps, fp = run_case(name)
        out[name] = {"steps": steps, "fingerprint": fp}
    GOLDEN.write_text(json.dumps(out) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
