"""tools/kernel_timing.py runs at one repeat and prints one JSON line per measurement, with its contention."""

import json
import os
import subprocess
import sys

import pytest

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "kernel_timing.py")


def test_kernel_timing_prints_every_measurement():
    out = subprocess.run([sys.executable, SCRIPT, "--repeats", "1"], capture_output=True, text=True,
                         check=True, timeout=300).stdout
    lines = [json.loads(line) for line in out.splitlines()]
    by_measure = {}
    for line in lines:
        by_measure.setdefault(line.pop("measure"), []).append(line)
    assert sorted(by_measure) == ["class_max_sum", "feed", "load_dataset", "predict_proba", "run_tail",
                                  "stacked_step"]
    assert [(m["classes"], m["rows"]) for m in by_measure["predict_proba"]] == [
        (2, 1200), (2, 2000), (8, 1200), (8, 2000)]
    assert [(m["classes"], m["how"]) for m in by_measure["class_max_sum"]] == [
        (2, "reduce"), (2, "models"), (8, "reduce"), (8, "models")]
    assert [(m["k"], m["rate"]) for m in by_measure["stacked_step"]] == [
        (k, rate) for k in (1, 6, 12) for rate in (0.0, 0.9)]
    assert [m["part"] for m in by_measure["run_tail"]] == ["tape_node", "sgd_step", "sgd_step_headlr10",
                                                           "dropout_mask"]
    assert [(m["k"], m["rows"]) for m in by_measure["feed"]] == [(6, 4800)]
    [load] = by_measure["load_dataset"]
    assert load["rows"] == 50_000
    assert 7.6 < load["peak_mib"] < 100, load  # at least the returned arrays, 50,000 x 20 float64 and int64
    times = [m.get("ns_per_row", m.get("us", m.get("ms"))) for m in lines]
    assert all(t > 0 for t in times), lines
    for line, raw in zip(lines, times):  # the raw figure divided by the slowdown measured around it
        assert line["slowdown"] > 0, line
        assert line["corrected"] == pytest.approx(raw / line["slowdown"], rel=1e-2), line
