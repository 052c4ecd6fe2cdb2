"""The verdict of ``tools/pairs.py`` on synthetic run values (no benchmark run)."""

import importlib.util
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parent.parent / "tools" / "pairs.py"
_SPEC = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)

TIGHT = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]  # IQR 0.015
WIDE = [0.70, 1.30, 0.80, 1.20, 0.90, 1.10, 1.00, 1.00, 0.75, 1.25]  # IQR 0.35


def scaled(values, factor):
    return [v * factor for v in values]


@pytest.mark.parametrize("base, change, better, bound, expected", [
    (TIGHT, TIGHT, "lower", 0.25, "ok"),
    (TIGHT, scaled(TIGHT, 1.2), "lower", 0.25, "ok"),
    (TIGHT, scaled(TIGHT, 1.3), "lower", 0.25, "worse"),
    (TIGHT, scaled(TIGHT, 0.5), "lower", 0.25, "ok"),
    (TIGHT, scaled(TIGHT, 1.3), "higher", 0.25, "ok"),
    (TIGHT, scaled(TIGHT, 0.7), "higher", 0.25, "worse"),
    (TIGHT, scaled(TIGHT, 1.05), "lower", 0.1, "ok"),
    (TIGHT, scaled(TIGHT, 1.15), "lower", 0.1, "worse"),
    # the base spreads wider than the bound: only a change whose every run
    # beats every base run is resolved
    (WIDE, WIDE, "lower", 0.25, "unresolved"),
    (WIDE, [0.6] * 10, "lower", 0.25, "ok"),
    (WIDE, [0.6] * 9 + [0.7], "lower", 0.25, "unresolved"),
    (WIDE, [1.4] * 10, "higher", 0.25, "ok"),
    (WIDE, scaled(WIDE, 1.3), "lower", 0.25, "worse"),
])
def test_verdict(base, change, better, bound, expected):
    assert pairs.verdict(base, change, better, bound) == expected
