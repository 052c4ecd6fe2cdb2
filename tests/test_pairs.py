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


@pytest.mark.parametrize("base, change, better, expected", [
    # a host that drifts 2x between pairs: the medians overlap, every pair
    # ratio is 0.5 and the change wins every pair
    ([100.0, 200.0, 150.0, 120.0], [50.0, 100.0, 75.0, 60.0], "lower",
     (135.0, 67.5, (0.5, 0.5, 0.5), 4)),
    ([10.0, 10.0, 20.0], [12.0, 10.0, 18.0], "lower", (10.0, 12.0, (1.0, 0.9, 1.2), 1)),
    ([10.0, 10.0, 20.0], [12.0, 10.0, 18.0], "higher", (10.0, 12.0, (1.0, 0.9, 1.2), 1)),
    # a zero base value gives no ratio: a layer the base never ran
    ([0.0, 4.0], [1.0, 2.0], "lower", (2.0, 1.5, (0.5, 0.5, 0.5), 1)),
    ([0.0, 0.0], [0.0, 0.0], "lower", (0.0, 0.0, None, 0)),
])
def test_ratio_summary(base, change, better, expected):
    assert pairs.ratio_summary(base, change, better) == expected
