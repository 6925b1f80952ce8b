"""scripts/bench_trail.py summarizes paired benchmark runs as the BENCH file says."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_trail.py"
_spec = importlib.util.spec_from_file_location("bench_trail", SCRIPT)
bench_trail = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_trail)

METRICS = {"latency_ms_p50": "ms", "latency_ms_p90": "ms", "ops_per_s": "1/s",
           "decided_frac": "frac", "setup_s": "s", "peak_rss_mb": "MB"}


def _write_run(runs, workload, seed, side, p50, ops, failed=0, correct=True):
    values = dict.fromkeys(METRICS, 1.0)
    values.update(latency_ms_p50=p50, ops_per_s=ops)
    line = {"correct": correct, "attempted": 100, "failed": failed,
            "metrics": {k: {"value": v, "unit": METRICS[k]} for k, v in values.items()}}
    (runs / f"{workload}.{seed}.{side}.json").write_text(json.dumps(line) + "\n")


def test_medians_quartiles_pairs_and_claims(tmp_path):
    runs = tmp_path / "runs"
    runs.mkdir()
    parent = [2.0, 2.1, 1.9, 2.05, 1.95]
    change = [1.8, 1.9, 1.7, 2.2, 1.75]  # seed 4 loses
    for seed, (p, c) in enumerate(zip(parent, change), start=1):
        _write_run(runs, "aging-param", seed, "parent", p, 1000 / p)
        _write_run(runs, "aging-param", seed, "change", c, 1000 / c)
    out = tmp_path / "BENCH_1.json"
    assert bench_trail.main([str(runs), "--out", str(out)]) == 0
    trail = json.loads(out.read_text())
    entry = trail["workloads"]["aging-param"]
    assert entry["seeds"] == [1, 2, 3, 4, 5] and entry["pairs"] == 5
    assert entry["parent"] == {"attempted": 500, "failed": 0, "correct": 5}
    p50 = entry["metrics"]["latency_ms_p50"]
    assert p50["parent"]["runs"] == parent and p50["change"]["runs"] == change
    assert (p50["parent"]["q1"], p50["parent"]["median"], p50["parent"]["q3"]) == (1.95, 2.0, 2.05)
    assert p50["change"]["median"] == 1.8
    assert p50["median_change"] == pytest.approx(-0.1)
    assert p50["pairs_won"] == 4 and p50["within_bound"]
    assert not p50["gain"]  # 4 of 5 pairs is below nine tenths
    ops = entry["metrics"]["ops_per_s"]
    assert ops["better"] == "higher" and ops["pairs_won"] == 4
    assert entry["metrics"]["setup_s"]["pairs_won"] == 0  # ties count for neither side


def test_a_gain_needs_nine_tenths_and_more_than_the_quartile_distance(tmp_path):
    runs = tmp_path / "runs"
    runs.mkdir()
    for seed in range(1, 11):
        _write_run(runs, "sweep", seed, "parent", 10.0 + seed % 2, 1.0)
        _write_run(runs, "sweep", seed, "change", 9.0 + seed % 2, 1.0)
    out = tmp_path / "BENCH_2.json"
    bench_trail.main([str(runs), "--out", str(out)])
    p50 = json.loads(out.read_text())["workloads"]["sweep"]["metrics"]["latency_ms_p50"]
    assert p50["pairs_won"] == 10
    assert p50["gain"] is False  # the medians differ by 1.0, the parent's quartiles by 1.0
    assert json.loads(out.read_text())["run_seconds"] == 16


@pytest.mark.parametrize("failed, correct, gain", [
    ((0, 0), (True, True), True),
    ((1, 1), (True, True), True),  # the same share of failures
    ((0, 1), (True, True), False),  # the change fails more operations
    ((0, 0), (True, False), False),  # a change run is not correct
    ((0, 0), (False, True), False),  # a parent run is not correct
])
def test_failures_or_a_wrong_run_cancel_a_gain(tmp_path, failed, correct, gain):
    runs = tmp_path / "runs"
    runs.mkdir()
    for seed in range(1, 11):
        last = seed == 10
        _write_run(runs, "dsl", seed, "parent", 10.0 + seed / 10, 1.0,
                   failed=failed[0] * last, correct=correct[0] or not last)
        _write_run(runs, "dsl", seed, "change", 5.0 + seed / 10, 2.0,
                   failed=failed[1] * last, correct=correct[1] or not last)
    out = tmp_path / "BENCH_3.json"
    bench_trail.main([str(runs), "--out", str(out)])
    metrics = json.loads(out.read_text())["workloads"]["dsl"]["metrics"]
    assert metrics["latency_ms_p50"]["pairs_won"] == 10
    assert metrics["latency_ms_p50"]["gain"] is gain
    assert metrics["ops_per_s"]["gain"] is gain


def test_a_pair_needs_both_sides(tmp_path):
    _write_run(tmp_path, "dsl", 3, "parent", 4.0, 1.0)
    with pytest.raises(SystemExit, match="dsl seed 3 has only the parent run"):
        bench_trail.main([str(tmp_path), "--out", str(tmp_path / "b.json")])
    (tmp_path / "dsl.3.other.json").write_text("{}")
    with pytest.raises(SystemExit, match="side must be parent or change"):
        bench_trail.load_runs(tmp_path)
