"""The verdict of ``tools/pairs.py`` on synthetic run values (no benchmark run)."""

import importlib.util
import io
import pathlib
import sys
import tarfile

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


END_TO_END = [("setup_s", "lower", 0.25), ("solve_s", "lower", 0.25),
              ("node_steps_per_s", "higher", 0.25), ("peak_rss_mb", "lower", 0.1)]


def result(scale=None):
    """A synthetic run result; ``scale`` maps a metric to a factor on its value."""
    scale = scale or {}
    return {"metrics": {name: {"value": 2.0 * scale.get(name, 1.0)} for name, _, _ in END_TO_END},
            "failed": 0}


def test_report_returns_the_worse_metrics(capsys):
    runs = [(result(), result({"solve_s": 1.3, "node_steps_per_s": 0.8, "peak_rss_mb": 0.5}))] * 3
    assert pairs.report(END_TO_END, runs) == ["solve_s"]
    assert pairs.report(END_TO_END, [(result(), result())] * 3) == []


@pytest.mark.parametrize("trace, slower, code, closing", [
    (0, {}, 0, ["pulse3d: no metric worse", "mms1d: no metric worse", "verify: no metric worse"]),
    (0, {"mms1d": {"solve_s": 1.5, "peak_rss_mb": 1.2}}, 1,
     ["pulse3d: no metric worse", "mms1d: worse: solve_s, peak_rss_mb", "verify: no metric worse"]),
    # traced runs get no verdicts
    (1, {"mms1d": {"solve_s": 1.5}}, 0, []),
], ids=["none-worse", "mms1d-worse", "traced"])
def test_main_exits_1_when_a_verdict_is_worse(monkeypatch, capsys, trace, slower, code, closing):
    # no checkout is unpacked and no benchmark runs: git and the runs are synthetic
    def fake_git(*args, cwd=None):
        if args[0] != "archive":
            return b"0123456789abcdef\n"
        empty = io.BytesIO()
        tarfile.open(fileobj=empty, mode="w").close()
        return empty.getvalue()

    def fake_bench(checkout, workload, seed, seconds, trace):
        return result(slower.get(workload) if checkout == pairs.ROOT else None)

    monkeypatch.setattr(pairs, "git", fake_git)
    monkeypatch.setattr(pairs, "bench", fake_bench)
    monkeypatch.setattr(sys, "argv", ["pairs.py", "--workload", "all", "--pairs", "3",
                                      "--trace", str(trace)])
    assert pairs.main() == code
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith(("pulse3d: ", "mms1d: ", "verify: "))
            and "worse" in line] == closing
