"""tools/bench_summary.py on synthetic perfbench result directories.

The summary pairs a parent's and a change's `result-*-trace0.json` files by
(workload, seed) and reads each metric's direction from BENCHMARK.json,
which this test only reads.
"""

import importlib.util
import json
import os

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def _bench_summary():
    path = os.path.join(ROOT, "tools", "bench_summary.py")
    spec = importlib.util.spec_from_file_location("bench_summary", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _directions() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}


# seed -> (setup_s, wall_s, steps_per_s, peak_rss_mb), seeds 0-4 on both sides
PARENT = {0: (1, 1, 10, 1), 1: (2, 2, 20, 1), 2: (3, 3, 30, 1), 3: (4, 4, 40, 1), 4: (5, 5, 50, 1)}
CHANGE = {0: (11, 0.5, 15, 2), 1: (12, 1.5, 25, 2), 2: (13, 2.5, 35, 2), 3: (14, 3.5, 45, 2), 4: (15, 6, 40, 2)}
NAMES = ("setup_s", "wall_s", "steps_per_s", "peak_rss_mb")


def _write(directory, workload, seed, values, attempted=12, failed=0, trace=0, python="3.11", tree=None):
    result = {
        "attempted": attempted,
        "failed": failed,
        "environment": {"python": python, "cpus": 2, **(tree or {})},
        "metrics": {name: {"value": v, "unit": "u"} for name, v in zip(NAMES, values)},
    }
    directory.mkdir(exist_ok=True)
    with open(directory / f"result-{workload}-seed{seed}-trace{trace}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)


@pytest.fixture
def outs(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for workload in ("sweep-ref", "pretrain-rich"):
        for seed in PARENT:
            _write(parent, workload, seed, PARENT[seed], failed=seed == 1)
            _write(change, workload, seed, CHANGE[seed], attempted=10 + seed, python="3.11" if seed else "3.12")
    _write(parent, "sweep-ref", 5, (99, 99, 99, 99))  # on one side only: left out
    _write(change, "sweep-ref", 6, (0, 0, 0, 0))
    _write(change, "sweep-ref", 0, (0, 0, 0, 0), trace=1)  # a traced run: not read
    return parent, change


def _summary(outs, capsys) -> dict:
    assert _bench_summary().main([str(outs[0]), str(outs[1])]) == 0
    return json.loads(capsys.readouterr().out)


def test_results_pair_by_workload_and_seed(outs, capsys):
    summary = _summary(outs, capsys)
    assert sorted(summary["workloads"]) == ["pretrain-rich", "sweep-ref"]
    for entry in summary["workloads"].values():
        assert entry["seeds"] == [0, 1, 2, 3, 4]
        assert entry["attempted"] == {"parent": 5 * 12, "change": 10 + 11 + 12 + 13 + 14}
        assert entry["failed"] == {"parent": 1, "change": 0}
        assert {m["pairs"] for m in entry["metrics"].values()} == {5}
        assert entry["metrics"]["wall_s"]["parent"]["q3"] == 4  # seed 5's 99 is not in it
    assert summary["environment"] == {"parent": {"python": "3.11", "cpus": 2}, "change": {"cpus": 2}}


def test_wins_follow_each_metric_direction(outs, capsys):
    metrics = _summary(outs, capsys)["workloads"]["sweep-ref"]["metrics"]
    directions = _directions()
    assert sorted(metrics) == sorted(directions)
    for name, metric in metrics.items():
        assert metric["better"] == directions[name]
    assert directions["wall_s"] == "lower" and directions["steps_per_s"] == "higher"
    assert metrics["wall_s"]["wins"] == 4  # lower on seeds 0-3
    assert metrics["steps_per_s"]["wins"] == 4  # higher on seeds 0-3
    assert metrics["setup_s"]["wins"] == 0 and metrics["peak_rss_mb"]["wins"] == 0


def test_median_change_and_gap_against_parent_iqr(outs, capsys):
    metrics = _summary(outs, capsys)["workloads"]["pretrain-rich"]["metrics"]
    wall = metrics["wall_s"]
    assert (wall["parent"]["q1"], wall["parent"]["median"], wall["parent"]["q3"]) == (2, 3, 4)
    assert wall["change"]["median"] == 2.5
    assert wall["median_change"] == pytest.approx(-1 / 6)
    assert wall["gap_exceeds_parent_iqr"] is False  # 0.5 against an IQR of 2
    assert metrics["steps_per_s"]["median_change"] == pytest.approx(1 / 6)
    assert metrics["steps_per_s"]["gap_exceeds_parent_iqr"] is False  # 5 against 20
    assert metrics["setup_s"]["median_change"] == pytest.approx(10 / 3)
    assert metrics["setup_s"]["gap_exceeds_parent_iqr"] is True  # 10 against 2
    rss = metrics["peak_rss_mb"]  # a parent IQR of 0: any gap exceeds it
    assert rss["median_change"] == pytest.approx(1.0) and rss["gap_exceeds_parent_iqr"] is True


def test_no_common_pair_is_an_error(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    _write(parent, "sweep-ref", 0, PARENT[0])
    _write(change, "sweep-ref", 1, CHANGE[1])
    with pytest.raises(SystemExit, match="no \\(workload, seed\\)"):
        _bench_summary().main([str(parent), str(change)])


@pytest.mark.parametrize("change_tree, revision", [
    ({"git_revision": "aaa", "source_sha256": "2"}, None),  # uncommitted on top of its parent
    ({"git_revision": "bbb", "source_sha256": "2"}, "bbb"),  # committed
    ({"git_revision": "aaa", "source_sha256": "1"}, "aaa"),  # the parent's own tree
])
def test_change_that_reports_its_parents_revision_on_other_source_reads_null(tmp_path, capsys,
                                                                               change_tree, revision):
    parent, change = tmp_path / "parent", tmp_path / "change"
    _write(parent, "sweep-ref", 0, PARENT[0], tree={"git_revision": "aaa", "source_sha256": "1"})
    _write(change, "sweep-ref", 0, CHANGE[0], tree=change_tree)
    environment = _summary((parent, change), capsys)["environment"]
    assert environment["parent"]["git_revision"] == "aaa"
    assert environment["change"]["git_revision"] == revision
    assert environment["change"]["source_sha256"] == change_tree["source_sha256"]
    assert ("git_revision_note" in environment["change"]) == (revision is None)
    if revision is None:
        assert "uncommitted" in environment["change"]["git_revision_note"]
