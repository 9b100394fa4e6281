"""One repetition of a benchmark workload, in a process of its own.

``run.py`` starts this script once per repetition, so every repetition
pays what a command-line user pays: interpreter start, imports, empty
process-global memos (input memo, compiled-IR cache, architecture
catalogs) and fresh cache and service-state directories::

    python3 perfbench/rep.py '<request JSON>'

The request names the workload, the engine seed, a scratch directory,
whether to trace, whether to stop at the first engine call (a set-up
probe), and ``spawned_at``: the ``time.monotonic()`` reading
taken by the parent just before it started this process. The last line
of standard output is one JSON object: the outputs to check, the
end-to-end metrics, the same times on the wall clock (``wall``), and
(traced) the additive per-layer totals.

An untraced repetition runs a :class:`hostspeed.Sampler` from its
first line to its result, and its end-to-end times are reference
seconds (see ``hostspeed.py``). A traced repetition runs no sampler, so
its spans hold only the program's time.

The workload is driven only through :mod:`repro.api`,
:class:`repro.service.ServiceClient` and the public classes; it passes
coordinates, budgets, worker counts and directories, never an engine
knob. Untraced, two calls are wrapped to capture objects and instants
(``Fuzzer.run`` and ``api.run_sweep``); traced, the layer table in
:func:`install_layers` wraps every layer boundary with a span.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

#: the three workloads: engine options, shape, and the engine seeds a
#: run cycles through (each with a recorded outcome in expected.json)
WORKLOADS = {
    "fuzz-clean": {
        "kind": "fuzz",
        "options": {"arch": "x86_64", "contract": "CT-COND",
                    "cpu": "skylake", "subsets": "AR+MEM+CB",
                    "num_test_cases": 30, "inputs_per_test_case": 50},
        "seeds": [3],
    },
    "hunt-minimize": {
        "kind": "minimize",
        "options": {"arch": "aarch64", "contract": "CT-SEQ",
                    "cpu": "skylake", "subsets": "AR+MEM+CB",
                    "num_test_cases": 400, "inputs_per_test_case": 20},
        "seeds": [3, 4, 5, 6, 9],
    },
    "sweep-service": {
        "kind": "sweep",
        "options": {"subsets": "AR+MEM+CB", "num_test_cases": 64,
                    "inputs_per_test_case": 20},
        "arches": ["x86_64"],
        "contracts": ["CT-SEQ"],
        "cpus": ["skylake", "skylake-v4-patched"],
        "workers": 1,
        "shards": 2,
        "parallel_cells": 1,
        "seeds": [1],
    },
}


def sha1_json(value) -> str:
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(blob.encode("utf-8")).hexdigest()


def peak_rss_mb() -> float:
    """Peak resident set of this process or its largest child, in MB
    (``ru_maxrss`` is in KiB on Linux)."""
    peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def directory_bytes(path: str) -> int:
    total = 0
    for directory, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(directory, name))
            except OSError:
                pass
    return total


class Capture:
    """Objects and instants taken at two coarse boundaries: every
    ``Fuzzer`` whose ``run`` returned, with the instant the first one
    did (a hunt's violation is confirmed then), and the report
    ``api.run_sweep`` returned."""

    def __init__(self) -> None:
        self.fuzzers = []
        self.fuzz_returned_at = None
        self.sweep_report = None
        self._restore = []

    def measurements(self) -> int:
        return sum(fuzzer.pipeline.executor.stats.measurements
                   for fuzzer in self.fuzzers)

    def contract_emulations(self) -> int:
        return sum(fuzzer.pipeline.contract_emulations
                   for fuzzer in self.fuzzers)

    def install(self) -> None:
        from repro import api
        from repro.core.fuzzer import Fuzzer

        capture = self
        run_fuzzer = Fuzzer.run
        run_sweep = api.run_sweep

        def fuzzer_run(fuzzer, *args, **kwargs):
            report = run_fuzzer(fuzzer, *args, **kwargs)
            if capture.fuzz_returned_at is None:
                capture.fuzz_returned_at = time.monotonic()
            capture.fuzzers.append(fuzzer)
            return report

        def sweep(*args, **kwargs):
            report = run_sweep(*args, **kwargs)
            capture.sweep_report = report
            return report

        Fuzzer.run = fuzzer_run
        api.run_sweep = sweep
        self._restore = [(Fuzzer, "run", run_fuzzer),
                         (api, "run_sweep", run_sweep)]

    def uninstall(self) -> None:
        for owner, attribute, original in self._restore:
            setattr(owner, attribute, original)


def install_layers(recorder) -> None:
    """Wrap each layer boundary of the program with a span. The sweep
    runs its cells in the service's job thread, so its pipeline layers
    are traced too, under the ``sweep`` span."""
    from repro import api
    from repro.contracts.contract import Contract
    from repro.core.analyzer import RelationalAnalyzer
    from repro.core.fuzzer import Fuzzer, TestingPipeline
    from repro.core.generator import TestCaseGenerator
    from repro.core.input_gen import InputGenerator
    from repro.core.postprocessor import Postprocessor
    from repro.core.trace_cache import ContractTraceCache, PersistentTraceCache
    from repro.executor.executor import Executor
    from repro.uarch.cache import L1DCache
    from repro.uarch.cpu import SpeculativeCPU

    def count_inputs(counters, _args, result):
        counters["input_gen.inputs"] += len(result)

    def count_analysis(counters, _args, result):
        counters["analyzer.candidates"] += len(result.candidates)
        counters["analyzer.effectiveness_sum"] += result.effectiveness

    def count_confirmed(counters, _args, result):
        counters["confirm.confirmed"] += bool(result)

    def count_accepted(counters, _args, result):
        counters["postprocessor.accepted"] += result is not None

    recorder.wrap(api, "run_sweep", "sweep")
    recorder.wrap(Fuzzer, "run", "fuzzer")
    recorder.wrap(TestCaseGenerator, "generate", "generator")
    recorder.wrap(InputGenerator, "generate", "input_gen", count_inputs)
    recorder.wrap(TestingPipeline, "compiled_for", "compiled")
    recorder.wrap(TestingPipeline, "collect_contract_traces",
                  "contracts.collect")
    recorder.wrap(Contract, "collect_traces_battery", "contracts.battery")
    recorder.wrap(Contract, "collect_trace_and_log", "contracts.trace")
    for method in ("key", "get", "peek", "put"):
        recorder.wrap(ContractTraceCache, method, "trace_cache")
    for method in ("get", "peek", "put"):
        recorder.wrap(PersistentTraceCache, method, "trace_cache")
    recorder.wrap(Executor, "collect_hardware_traces_linearized",
                  "executor")
    recorder.wrap(SpeculativeCPU, "run", "uarch.cpu_run")
    recorder.wrap(L1DCache, "prime", "uarch.cache_prime")
    recorder.wrap(L1DCache, "probe", "uarch.cache_probe")
    recorder.wrap(RelationalAnalyzer, "analyze", "analyzer", count_analysis)
    recorder.wrap(TestingPipeline, "confirm_candidate", "confirm",
                  count_confirmed)
    recorder.wrap(Executor, "priming_swap_check", "confirm.swap")
    recorder.wrap(Postprocessor, "minimize", "postprocessor")
    recorder.wrap(Postprocessor, "minimize_inputs", "postprocessor.inputs")
    recorder.wrap(Postprocessor, "minimize_instructions",
                  "postprocessor.instructions")
    recorder.wrap(Postprocessor, "insert_fences", "postprocessor.fences")
    recorder.wrap(TestingPipeline, "check_violation", "postprocessor.check",
                  count_accepted)


# -- workloads ----------------------------------------------------------------


def fuzz_outputs(report, capture) -> dict:
    """Verdict, exact counts and a digest of a fuzzing report's
    deterministic fields (timings excluded)."""
    coverage = report.coverage
    fields = {
        "test_cases": report.test_cases,
        "inputs_tested": report.inputs_tested,
        "rounds": report.rounds,
        "reconfigurations": report.reconfigurations,
        "mean_effectiveness": repr(report.mean_effectiveness),
        "patterns": sorted(sorted(combo) for combo in coverage.covered)
        if coverage is not None else [],
        "unconfirmed_candidates": report.unconfirmed_candidates,
        "discarded_by_priming": report.discarded_by_priming,
        "discarded_by_nesting": report.discarded_by_nesting,
        "contract_emulations": report.contract_emulations,
        "found": report.found,
    }
    violation = report.violation
    return {
        "verdict": "violation" if violation is not None else "clean",
        "classification": violation.classification if violation else None,
        "counts": {
            "test_cases": report.test_cases,
            "inputs": report.inputs_tested,
            "measurements": capture.measurements(),
            "contract_emulations": capture.contract_emulations(),
            "candidates": report.unconfirmed_candidates
            + (1 if violation is not None else 0),
        },
        "digests": {"report": sha1_json(fields)},
    }


def run_fuzz(spec, options, capture, marks, recorder) -> dict:
    from repro import api

    marks["engine"] = time.monotonic()
    if marks["setup_only"]:
        return None
    report = api.run_fuzz(options)
    marks["result"] = marks["first_result"] = time.monotonic()
    return {
        "outputs": fuzz_outputs(report, capture),
        "cases": report.test_cases,
        "inputs": report.inputs_tested,
        "rate_interval": (marks["engine"], marks["result"]),
        "intervals": {},
    }


def run_minimize(spec, options, capture, marks, recorder) -> dict:
    from repro import api
    from repro.corpus import violation_digest

    marks["engine"] = time.monotonic()
    if marks["setup_only"]:
        return None
    report, result = api.run_minimize(options)
    marks["result"] = time.monotonic()
    marks["first_result"] = capture.fuzz_returned_at
    outputs = fuzz_outputs(report, capture)
    if report.violation is not None:
        outputs["digests"]["violation"] = violation_digest(
            report.violation, options.executor_mode, options.analyzer_mode
        )
    if result is not None:
        outputs["counts"]["minimized_instructions"] = result.instruction_count
        outputs["counts"]["minimized_inputs"] = len(result.inputs)
        outputs["counts"]["fences"] = result.fences_inserted
        outputs["digests"]["minimized"] = hashlib.sha1(
            result.text.encode("utf-8")).hexdigest()
    return {
        "outputs": outputs,
        "cases": report.test_cases,
        "inputs": report.inputs_tested,
        "rate_interval": (marks["engine"], capture.fuzz_returned_at),
        "intervals": {
            "detect_s": (marks["engine"], capture.fuzz_returned_at),
            "minimize_s": (capture.fuzz_returned_at, marks["result"]),
        },
    }


def run_sweep(spec, options, capture, marks, recorder) -> dict:
    from repro.service import CampaignService, ServiceClient, ServiceServer

    state_dir = os.path.join(marks["work_dir"], "state")
    service = CampaignService(state_dir=state_dir)
    server = ServiceServer(service)
    server.start_background()
    events = []
    try:
        host, port = server.address
        with ServiceClient(host, port, timeout=170.0) as client:
            job = {
                "kind": "sweep",
                "options": options.to_dict(),
                "workers": spec["workers"],
                "shards": spec["shards"],
                "parallel_cells": spec["parallel_cells"],
                "arches": spec["arches"],
                "contracts": spec["contracts"],
                "cpus": spec["cpus"],
            }
            if marks["setup_only"]:
                marks["engine"] = time.monotonic()
                return None
            span = recorder.open("service") if recorder else None
            marks["engine"] = time.monotonic()
            job_id = client.submit(job)
            marks["submitted"] = time.monotonic()
            for event in client.results(job_id):
                if "first_result" not in marks and event["event"] == "cell":
                    marks["first_result"] = time.monotonic()
                events.append(event)
            marks["result"] = time.monotonic()
            if span is not None:
                recorder.close(span)
    finally:
        server.close(drain_s=5.0)
        service.shutdown(wait=True)
    done = events[-1] if events else {}
    report = capture.sweep_report
    if done.get("state") != "done" or report is None:
        raise RuntimeError(f"sweep job did not finish: {done}")
    marks["events"] = len(events)
    marks["state_bytes"] = directory_bytes(state_dir)
    merged = [result.campaign.merged for result in report.results]
    test_cases = sum(m.test_cases for m in merged)
    inputs = sum(m.inputs_tested for m in merged)
    outputs = {
        "verdict": f"{report.violations_found}/{len(report.results)} "
                   "cells violated",
        "classification": {
            result.cell.label: result.classification
            for result in report.results
        },
        "counts": {
            "test_cases": test_cases,
            "inputs": inputs,
            "measurements": capture.measurements(),
            "contract_emulations": capture.contract_emulations(),
            "candidates": sum(m.unconfirmed_candidates + int(m.found)
                              for m in merged),
            "events": len(events),
        },
        "digests": {"job": done["report"]["digest"]},
    }
    return {
        "outputs": outputs,
        "cases": test_cases,
        "inputs": inputs,
        "rate_interval": (marks["engine"], marks["result"]),
        "intervals": {
            "first_cell_s": (marks["engine"], marks["first_result"]),
        },
        "submit_s": marks["submitted"] - marks["engine"],
        "report": report,
    }


RUNNERS = {"fuzz": run_fuzz, "minimize": run_minimize, "sweep": run_sweep}


# -- per-layer totals ---------------------------------------------------------


def pipeline_layers(capture) -> dict:
    """Additive per-layer totals the spans do not give."""
    from repro.emulator.compiled import shared_compiled_cache

    raw = {}
    cache = shared_compiled_cache()
    raw["compiled.hits"] = cache.hits
    raw["compiled.lookups"] = cache.hits + cache.misses
    raw["contracts.emulations"] = capture.contract_emulations()
    raw["executor.measurements"] = capture.measurements()
    return raw


def sweep_layers(result) -> dict:
    """Per-layer totals of a sweep that only its report carries."""
    report = result["report"]
    merged = [cell.campaign.merged for cell in report.results]
    hits = sum(m.trace_cache_hits for m in merged)
    return {
        "trace_cache.hits": hits,
        "trace_cache.lookups": hits + sum(m.contract_emulations
                                          for m in merged),
        "trace_cache.disk_hits": report.trace_cache_disk_hits,
        "trace_cache.disk_bytes": report.trace_cache_disk_bytes or 0,
        "trace_cache.disk_write_errors": report.trace_cache_disk_write_errors,
        "sweep.busy_s": sum(m.duration_seconds for m in merged),
        "sweep.capacity_s": report.spec.workers * report.wall_seconds,
        "service.submit_s": result["submit_s"],
    }


def timings(result, marks, spawned_at, sampler) -> tuple:
    """The end-to-end metrics of a repetition, and its wall-clock
    ``wall_s`` and ``setup_s``. With a ``sampler`` the metrics' times
    are reference seconds and the wall-clock times leave out the
    slices; without one (a traced repetition) both are plain wall-clock
    seconds."""
    if sampler is not None:
        costs = sampler.costs()

        def seconds(start, end):
            return sampler.reference_seconds(start, end, costs)

        def plain(start, end):
            return end - start - sampler.slice_seconds(start, end)
    else:
        def seconds(start, end):
            return end - start

        plain = seconds
    engine_s = seconds(*result["rate_interval"])
    metrics = {
        "setup_s": seconds(spawned_at, marks["engine"]),
        "wall_s": seconds(spawned_at, marks["result"]),
        "first_result_s": seconds(marks["engine"], marks["first_result"]),
        "cases_per_s": result["cases"] / engine_s,
        "inputs_per_s": result["inputs"] / engine_s,
        "max_rss_mb": peak_rss_mb(),
    }
    for name, interval in result["intervals"].items():
        metrics[name] = seconds(*interval)
    wall = {"wall_s": plain(spawned_at, marks["result"]),
            "setup_s": plain(spawned_at, marks["engine"])}
    return metrics, wall


def main(argv) -> int:
    request = json.loads(argv[1])
    spawned_at = request["spawned_at"]
    spec = WORKLOADS[request["workload"]]
    marks = {"work_dir": request["work_dir"],
             "setup_only": request.get("setup_only", False)}
    recorder = sampler = None
    if request["trace"]:
        from spans import Recorder

        recorder = Recorder(request["run_id"])
        root = recorder.open("run", start=spawned_at)
    else:
        # untraced: time the host's speed from here on, imports included
        from hostspeed import Sampler

        sampler = Sampler()
        sampler.start()

    from repro import api

    capture = Capture()
    if recorder is not None:
        install_layers(recorder)
    capture.install()
    values = dict(spec["options"], seed=request["seed"])
    if spec["kind"] == "sweep":
        values["cache_dir"] = os.path.join(request["work_dir"], "cache")
    options = api.EngineOptions(**values)
    result = RUNNERS[spec["kind"]](spec, options, capture, marks, recorder)
    if sampler is not None:
        sampler.stop()
    if result is None:
        # a set-up probe: everything up to the first engine call
        interval = (spawned_at, marks["engine"])
        print(json.dumps({
            "metrics": {"setup_s": sampler.reference_seconds(*interval)},
            "wall": {"setup_s": interval[1] - interval[0]
                     - sampler.slice_seconds(*interval)},
        }))
        return 0
    if recorder is not None:
        # the traced wall ends where the untraced one does: at the final
        # result, before the service shuts down
        recorder.close(root, end=marks["result"])
    capture.uninstall()

    metrics, wall = timings(result, marks, spawned_at, sampler)
    reply = {"outputs": result["outputs"], "metrics": metrics, "wall": wall}
    if recorder is not None:
        from spans import totals

        recorder.uninstall()
        own, duration = totals(recorder.spans)
        calls = recorder.calls()
        raw = {f"{name}.self": value for name, value in own.items()}
        raw.update({f"{name}.dur": value for name, value in duration.items()})
        raw.update({f"{name}.calls": value for name, value in calls.items()})
        raw.update(recorder.counters)
        raw.update(pipeline_layers(capture))
        if spec["kind"] == "sweep":
            raw.update(sweep_layers(result))
            raw["service.events"] = marks["events"]
            raw["service.state_bytes"] = marks["state_bytes"]
        raw["trace.wall"] = root[3] - root[2]
        reply["layers"] = raw
        reply["missing"] = recorder.missing
        recorder.dump(os.path.join(request["trace_dir"],
                                   f"{request['run_id']}.jsonl"))
    print(json.dumps(reply))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
