"""Tests of the benchmark harness itself (no workload is run)."""

import copy
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402
from hostspeed import NOMINAL_SLICE_S, Sampler  # noqa: E402
from spans import Recorder, covered, self_times, totals  # noqa: E402


def test_self_time_subtracts_nested_children():
    spans = [
        [1, "run", 0.0, 10.0, None],
        [2, "a", 1.0, 4.0, 1],
        [3, "b", 2.0, 3.0, 2],
        [4, "c", 5.0, 9.0, 1],
    ]
    own = self_times(spans)
    assert own == {1: 3.0, 2: 2.0, 3: 1.0, 4: 4.0}
    assert sum(own.values()) == 10.0


def test_self_time_counts_overlapping_children_once():
    spans = [
        [1, "job", 0.0, 10.0, None],
        [2, "x", 1.0, 5.0, 1],
        [3, "y", 3.0, 7.0, 1],
        [4, "z", 9.0, 12.0, 1],  # clipped to the parent's end
    ]
    assert self_times(spans)[1] == pytest.approx(3.0)
    assert covered([(1.0, 5.0), (3.0, 7.0)], 0.0, 10.0) == 6.0


def test_recorder_wraps_nests_and_restores():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

        def fails(self):
            raise ValueError("boom")

    recorder = Recorder("test")
    root = recorder.open("run")
    recorder.wrap(Layer, "outer", "outer",
                  lambda counters, _args, result: counters.update(
                      {"outer.sum": result}))
    recorder.wrap(Layer, "inner", "inner")
    recorder.wrap(Layer, "fails", "fails")
    assert not recorder.wrap(Layer, "absent", "absent")
    layer = Layer()
    assert layer.outer() == 2
    with pytest.raises(ValueError):
        layer.fails()
    recorder.close(root)
    recorder.uninstall()
    assert not hasattr(Layer.outer, "__wrapped__")
    assert recorder.missing == ["Layer.absent"]
    assert recorder.counters["outer.sum"] == 2
    assert recorder.counters["fails.raised"] == 1
    by_name = {span[1]: span for span in recorder.spans}
    assert by_name["inner"][4] == by_name["outer"][0]
    assert by_name["outer"][4] == root[0]
    own, duration = totals(recorder.spans)
    assert sum(own.values()) == pytest.approx(duration["run"])


def test_thread_spans_hang_under_the_main_threads_open_span():
    import threading

    recorder = Recorder("test")
    root = recorder.open("run")
    waiting = recorder.open("service")
    worker = threading.Thread(target=lambda: recorder.close(
        recorder.open("sweep")))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    recorder.close(waiting)
    recorder.close(root)
    sweep = next(span for span in recorder.spans if span[1] == "sweep")
    assert sweep[4] == waiting[0]


def _sampler(costs, period=1.0, length=0.1):
    """A sampler whose slices start every ``period`` seconds from 1.0,
    each ``length`` long, with the given CPU costs."""
    sampler = Sampler()
    sampler.slices = [(1.0 + i * period, 1.0 + i * period + length, cost)
                      for i, cost in enumerate(costs)]
    return sampler


def test_reference_seconds_leave_out_the_slices_at_the_nominal_speed():
    sampler = _sampler([NOMINAL_SLICE_S] * 5)
    assert sampler.slice_seconds(0.0, 6.0) == pytest.approx(0.5)
    assert sampler.reference_seconds(0.0, 6.0) == pytest.approx(5.5)
    # an interval that starts inside a slice counts from the slice's end
    assert sampler.reference_seconds(1.05, 2.0) == pytest.approx(0.9)


def test_reference_seconds_scale_each_piece_by_the_slices_around_it():
    # the host runs at half speed from the fourth slice on: work there
    # takes twice the wall time and counts half
    sampler = _sampler([NOMINAL_SLICE_S] * 3 + [2 * NOMINAL_SLICE_S] * 3)
    slow = sampler.costs()
    assert slow[:2] == [NOMINAL_SLICE_S] * 2
    assert slow[-2:] == [2 * NOMINAL_SLICE_S] * 2
    # after the last slice the last local cost applies
    assert sampler.reference_seconds(7.0, 9.0) == pytest.approx(1.0)
    # before the first slice the first one's does
    assert sampler.reference_seconds(0.0, 1.0) == pytest.approx(1.0)
    assert sampler.reference_seconds(2.0, 1.0) == 0.0
    with pytest.raises(ValueError):
        Sampler().reference_seconds(0.0, 1.0)


def test_the_sampler_runs_slices_on_its_period_and_stops():
    import signal
    import time

    sampler = Sampler(period=0.01)
    sampler.start()
    try:
        deadline = time.monotonic() + 0.2
        while time.monotonic() < deadline:
            pass
    finally:
        sampler.stop()
    count = len(sampler.slices)
    assert count >= 5
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    assert all(cost > 0 for _start, _end, cost in sampler.slices)
    time.sleep(0.05)
    assert len(sampler.slices) == count


def _layers(spans):
    own, duration = totals(spans)
    raw = {f"{name}.self": value for name, value in own.items()}
    raw["trace.wall"] = duration["run"]
    return raw


def test_layer_self_times_partition_the_traced_wall():
    raw = _layers([
        [1, "run", 0.0, 10.0, None],
        [2, "fuzzer", 1.0, 9.0, 1],
        [3, "uarch.cpu_run", 2.0, 5.0, 2],
        [4, "confirm", 6.0, 8.0, 2],
        [5, "confirm.swap", 6.5, 7.5, 4],
    ])
    assert bench.check_self_times(raw) == []
    metrics = bench.layer_metrics(raw, untraced_wall=8.0)
    parts = sum(metrics[name] for name in bench.SELF_TIME_METRICS)
    assert parts == pytest.approx(metrics["trace.wall_s"])
    assert metrics["confirm.self_s"] == pytest.approx(2.0)
    assert metrics["trace.overhead_ratio"] == pytest.approx(10.0 / 8.0)


def test_a_span_charged_to_no_layer_fails_the_check():
    raw = _layers([[1, "run", 0.0, 2.0, None],
                   [2, "mystery", 0.5, 1.0, 1]])
    assert bench.check_self_times(raw)


def _recorded(workload):
    expected = bench.load_expected()
    seed = bench.WORKLOADS[workload]["seeds"][0]
    return expected, seed, expected[workload]["seeds"][str(seed)]


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_recorded_outputs_match_themselves(workload):
    expected, seed, outputs = _recorded(workload)
    assert bench.check_outputs(expected, workload, seed, outputs) == []


def test_a_tampered_digest_counts_as_a_failed_run(monkeypatch):
    workload = "fuzz-clean"
    expected, _seed, _outputs = _recorded(workload)
    metrics = {name: 1.0 for name in bench.END_TO_END}

    def fake_rep(_workload, engine_seed, _trace, _work_dir, _run_id,
                 _deadline, setup_only=False):
        if setup_only:
            return {"metrics": {"setup_s": 1.0}, "wall": {"setup_s": 1.0}}
        outputs = copy.deepcopy(expected[workload]["seeds"][str(engine_seed)])
        if engine_seed == bench.WORKLOADS[workload]["seeds"][0]:
            digest = outputs["digests"]["report"]
            outputs["digests"]["report"] = ("0" if digest[0] != "0" else "1") \
                + digest[1:]
        return {"outputs": outputs, "metrics": metrics,
                "wall": {"setup_s": 1.0, "wall_s": 1.0}}

    monkeypatch.setattr(bench, "run_rep", fake_rep)
    result = bench.run_workload(workload, seed=0, seconds=0.0, trace=False,
                                expected=expected)
    assert result["attempted"] == bench.SETUP_PROBES + len(
        bench.WORKLOADS[workload]["seeds"])
    assert result["failed"] == 1
    assert result["correct"] is False


def test_benchmark_json_lists_what_the_harness_prints():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as handle:
        benchmark = json.load(handle)
    assert {w["name"] for w in benchmark["workloads"]} == set(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in benchmark["end_to_end"]} \
        == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in benchmark["per_layer"]} \
        == bench.PER_LAYER
