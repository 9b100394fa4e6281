"""The BENCH trajectory trend check (tools/bench_trend.py)."""

import glob
import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(__file__))
sys.path.insert(0, os.path.join(ROOT, "tools"))
import bench_trend  # noqa: E402

METRICS = {"wall_s": ("lower", 0.25), "cases_per_s": ("higher", 0.25)}


def bench(parent, change):
    return {"parent": {"fuzz-clean": parent}, "change": {"fuzz-clean": change}}


def test_within_bounds_is_clean():
    found = bench_trend.regressions(
        bench({"wall_s": 4.0, "cases_per_s": 10.0},
              {"wall_s": 4.9, "cases_per_s": 7.6}),
        METRICS)
    assert found == []


@pytest.mark.parametrize("change", [
    {"wall_s": 5.1, "cases_per_s": 10.0},   # lower is better, +27%
    {"wall_s": 4.0, "cases_per_s": 7.4},    # higher is better, -26%
])
def test_a_regression_past_the_bound_is_reported(change):
    found = bench_trend.regressions(
        bench({"wall_s": 4.0, "cases_per_s": 10.0}, change), METRICS)
    assert len(found) == 1 and found[0].startswith("fuzz-clean ")


def test_a_missing_metric_is_malformed():
    with pytest.raises(bench_trend.MalformedBench):
        bench_trend.regressions(
            bench({"wall_s": 4.0}, {"wall_s": 4.0}), METRICS)


def test_exit_codes(tmp_path):
    names = list(bench_trend.load_metrics(os.path.join(ROOT, "BENCHMARK.json")))
    good = tmp_path / "BENCH_1.json"
    good.write_text(json.dumps(bench(dict.fromkeys(names, 1.0),
                                     dict.fromkeys(names, 1.0))))
    worse = dict.fromkeys(names, 1.0)
    worse["wall_s"] = 2.0
    bad = tmp_path / "BENCH_2.json"
    bad.write_text(json.dumps(bench(dict.fromkeys(names, 1.0), worse)))
    broken = tmp_path / "BENCH_3.json"
    broken.write_text("{")
    assert bench_trend.main([str(good)]) == 0
    assert bench_trend.main([str(good), str(bad)]) == 1
    assert bench_trend.main([str(broken)]) == 2


def test_the_committed_trajectory_passes():
    assert glob.glob(os.path.join(ROOT, "BENCH_*.json"))
    assert bench_trend.main([]) == 0
