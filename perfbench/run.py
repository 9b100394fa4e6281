"""End-to-end benchmark of the fuzzer: three workloads, each repetition
in a fresh process, with output checks and an optional traced run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fuzz-clean --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 40 --trace 0

A run cycles through its workload's pool of engine seeds (``WORKLOADS``
in ``rep.py``), starting at pool position ``seed mod len(pool)``, one
repetition per seed, each in its own process (``rep.py``). It repeats
whole cycles while the next one fits in ``--seconds``; there is always
at least one. An untraced run first starts ``SETUP_PROBES`` processes
that stop at their first engine call; ``setup_s`` is the median over
them and the repetitions. Every repetition's outputs are checked against
``expected.json``; a mismatch, an exception, a timeout or a job that
does not end in ``done`` counts as a failed repetition.

With ``--trace 0`` the last line of standard output is one JSON object
whose ``metrics`` are the end-to-end metrics: per seed of the pool the
median over its successful repetitions, then the mean over the seeds.
Their times are reference seconds: each untraced repetition times a
fixed slice of work every 50 ms (``hostspeed.py``) and scales its
intervals to the speed at which a slice takes 1 ms, so the host's
drift in speed drops out. The same medians on the wall clock are
printed for a reader.
With ``--trace 1`` the run alternates untraced and traced cycles, in
rounds that fit in ``--seconds`` the same way, and its ``metrics`` are
the per-layer totals of one traced cycle, averaged over the traced
cycles. The lines before the JSON line print the same numbers for a
reader, and each repetition's own metrics. The exit code is 0 when
every output matched, 1 when not, and 2 when the checkout holds no
program to measure.

``--record`` re-records ``expected.json`` from two untraced passes over
every pool seed, which must agree exactly; use it only after a change
that is meant to alter the outputs.

See NOTES.md for the workloads, the metrics and what they should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import uuid

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED_PATH = os.path.join(HERE, "expected.json")
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")
TRACE_DIR = os.path.join(WORK_ROOT, "traces")
#: a run kills any repetition still running this long after the run
#: started (it counts as failed), so a hung run still reports in time
RUN_LIMIT_S = 170.0
#: set-up probes per untraced run, besides the set-up of each repetition
SETUP_PROBES = 8

sys.path.insert(0, HERE)
from rep import WORKLOADS  # noqa: E402

#: end-to-end metrics (tracing off): name -> unit
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "first_result_s": "s",
    "cases_per_s": "1/s",
    "inputs_per_s": "1/s",
    "max_rss_mb": "MB",
}
#: workload-specific timings printed for the reader, not in the JSON
#: line (each exists on one workload only)
SPECIFIC = {"detect_s": "s", "minimize_s": "s", "first_cell_s": "s"}

#: per-layer metrics (traced cycle): name -> unit
PER_LAYER = {
    "generator.calls": "count",
    "generator.self_s": "s",
    "input_gen.calls": "count",
    "input_gen.inputs": "count",
    "input_gen.self_s": "s",
    "compiled.calls": "count",
    "compiled.self_s": "s",
    "compiled.hit_ratio": "ratio",
    "contracts.calls": "count",
    "contracts.self_s": "s",
    "contracts.emulations": "count",
    "contracts.battery_fallback_ratio": "ratio",
    "executor.calls": "count",
    "executor.self_s": "s",
    "executor.measurements": "count",
    "uarch.cpu_run.calls": "count",
    "uarch.cpu_run.self_s": "s",
    "uarch.cache_prime.self_s": "s",
    "uarch.cache_probe.self_s": "s",
    "analyzer.calls": "count",
    "analyzer.self_s": "s",
    "analyzer.candidates": "count",
    "analyzer.effectiveness": "ratio",
    "confirm.calls": "count",
    "confirm.self_s": "s",
    "confirm.confirmed_ratio": "ratio",
    "fuzzer.self_s": "s",
    "postprocessor.checks": "count",
    "postprocessor.accepted_ratio": "ratio",
    "postprocessor.inputs_s": "s",
    "postprocessor.instructions_s": "s",
    "postprocessor.fences_s": "s",
    "postprocessor.self_s": "s",
    "trace_cache.self_s": "s",
    "trace_cache.hit_ratio": "ratio",
    "trace_cache.disk_hits": "count",
    "trace_cache.disk_bytes": "bytes",
    "trace_cache.disk_write_errors": "count",
    "sweep.self_s": "s",
    "sweep.busy_s": "s",
    "sweep.utilization": "ratio",
    "sweep.idle_s": "s",
    "service.submit_s": "s",
    "service.events": "count",
    "service.engine_s": "s",
    "service.overhead_s": "s",
    "service.state_bytes": "bytes",
    "other.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_ratio": "ratio",
}

#: span name -> the per-layer self-time metric it is charged to; these
#: metrics partition the traced wall time
SELF_TIME_OF_SPAN = {
    "run": "other.self_s",
    "fuzzer": "fuzzer.self_s",
    "generator": "generator.self_s",
    "input_gen": "input_gen.self_s",
    "compiled": "compiled.self_s",
    "contracts.collect": "contracts.self_s",
    "contracts.battery": "contracts.self_s",
    "contracts.trace": "contracts.self_s",
    "executor": "executor.self_s",
    "uarch.cpu_run": "uarch.cpu_run.self_s",
    "uarch.cache_prime": "uarch.cache_prime.self_s",
    "uarch.cache_probe": "uarch.cache_probe.self_s",
    "analyzer": "analyzer.self_s",
    "confirm": "confirm.self_s",
    "confirm.swap": "confirm.self_s",
    "postprocessor": "postprocessor.self_s",
    "postprocessor.inputs": "postprocessor.self_s",
    "postprocessor.instructions": "postprocessor.self_s",
    "postprocessor.fences": "postprocessor.self_s",
    "postprocessor.check": "postprocessor.self_s",
    "trace_cache": "trace_cache.self_s",
    "sweep": "sweep.self_s",
    "service": "service.overhead_s",
}
SELF_TIME_METRICS = sorted(set(SELF_TIME_OF_SPAN.values()))


# -- output checks ------------------------------------------------------------


def spec_digest(workload: str) -> str:
    """Digest of a workload's definition, stored beside its recorded
    outputs so a changed definition cannot pass against stale ones."""
    spec = dict(WORKLOADS[workload])
    spec.pop("seeds")
    blob = json.dumps(spec, sort_keys=True).encode("utf-8")
    return hashlib.sha1(blob).hexdigest()


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def check_outputs(expected: dict, workload: str, seed: int,
                  outputs: dict) -> list:
    """Mismatches between a repetition's outputs and the recorded ones
    (an empty list when they agree exactly)."""
    entry = expected.get(workload)
    if entry is None:
        return [f"no recorded outputs for workload {workload}"]
    if entry.get("spec") != spec_digest(workload):
        return [f"expected.json was recorded for another definition of "
                f"{workload}; re-record it"]
    want = entry.get("seeds", {}).get(str(seed))
    if want is None:
        return [f"no recorded outputs for {workload} seed {seed}"]
    problems = []
    for key in sorted(set(want) | set(outputs)):
        if want.get(key) != outputs.get(key):
            problems.append(
                f"{key}: expected {json.dumps(want.get(key), sort_keys=True)}"
                f", got {json.dumps(outputs.get(key), sort_keys=True)}"
            )
    return problems


# -- repetitions --------------------------------------------------------------


def stop_group(process: subprocess.Popen) -> None:
    """Kill whatever is left of a repetition's process group, anything
    it started included, and wait until the group is gone."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    process.wait()
    for _ in range(100):
        try:
            os.killpg(process.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_rep(workload: str, seed: int, trace: bool, work_dir: str,
            run_id: str, deadline: float, setup_only: bool = False) -> dict:
    """One repetition in a fresh process, killed with everything it
    started if it is still running at ``deadline``. Returns the reply, or
    ``{"error": ...}`` when the process failed. With ``setup_only`` the
    process stops at its first engine call (a set-up probe)."""
    os.makedirs(work_dir)
    request = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "setup_only": setup_only,
        "work_dir": work_dir,
        "trace_dir": TRACE_DIR,
        "run_id": run_id,
    }
    env = dict(os.environ, TMPDIR=work_dir)
    timeout = max(1.0, deadline - time.monotonic())
    request["spawned_at"] = time.monotonic()
    process = None
    try:
        process = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "rep.py"),
             json.dumps(request)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env, cwd=ROOT, start_new_session=True,
        )
        try:
            stdout, stderr = process.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            stop_group(process)
            process.communicate()
            return {"error": f"killed after {timeout:.0f}s"}
    finally:
        if process is not None:
            stop_group(process)
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        tail = stderr.strip().splitlines()[-5:]
        return {"error": f"exit code {process.returncode}: "
                         + " | ".join(tail)}
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as error:
        return {"error": f"unreadable reply: {error}"}


def score(expected: dict, workload: str, seed: int, reply: dict) -> list:
    """Problems that make a repetition count as failed."""
    if "error" in reply:
        return [reply["error"]]
    problems = check_outputs(expected, workload, seed, reply["outputs"])
    layers = reply.get("layers")
    if layers is not None:
        problems += check_self_times(layers)
    return problems


def check_self_times(raw: dict) -> list:
    """The traced cycle's layer self times must add up to its wall time:
    every span name must be charged to a layer."""
    unknown = sorted(
        key[: -len(".self")] for key in raw
        if key.endswith(".self") and key[: -len(".self")]
        not in SELF_TIME_OF_SPAN
    )
    if unknown:
        return [f"spans charged to no layer: {', '.join(unknown)}"]
    charged = sum(raw[key] for key in raw if key.endswith(".self"))
    wall = raw.get("trace.wall", 0.0)
    if abs(charged - wall) > 1e-6 * max(1.0, wall):
        return [f"layer self times sum to {charged:.6f}s, "
                f"traced wall is {wall:.6f}s"]
    return []


def probe_setup(workload: str, engine_seed: int, deadline: float) -> dict:
    """One set-up probe: a fresh process that stops at its first
    engine call."""
    run_id = f"setup-{workload}-{uuid.uuid4().hex[:8]}"
    reply = run_rep(workload, engine_seed, False,
                    os.path.join(WORK_ROOT, run_id), run_id, deadline,
                    setup_only=True)
    if "error" in reply:
        print(f"FAILED {workload} set-up probe: {reply['error']}")
    return {"seed": engine_seed, "reply": reply, "ok": "error" not in reply}


def pool_order(workload: str, seed: int) -> list:
    pool = WORKLOADS[workload]["seeds"]
    start = seed % len(pool)
    return pool[start:] + pool[:start]


def run_cycle(workload: str, seed: int, expected: dict, trace: bool,
              deadline: float) -> list:
    """One repetition per seed of the workload's pool, in pool order
    from ``seed``."""
    reps = []
    for engine_seed in pool_order(workload, seed):
        run_id = f"{workload}-{engine_seed}-{uuid.uuid4().hex[:8]}"
        reply = run_rep(workload, engine_seed, trace,
                        os.path.join(WORK_ROOT, run_id), run_id, deadline)
        problems = score(expected, workload, engine_seed, reply)
        for problem in problems:
            print(f"FAILED {workload} seed {engine_seed}: {problem}")
        if not problems:
            print(f"{workload} seed {engine_seed}{' traced' * trace}: "
                  + " ".join(f"{name}={value:.4g}"
                             for name, value in reply["metrics"].items()))
        reps.append({"seed": engine_seed, "reply": reply,
                     "ok": not problems})
    return reps


def run_cycles(workload: str, seed: int, seconds: float, expected: dict,
               traces, deadline: float) -> tuple:
    """Rounds of one cycle per entry of ``traces`` (False: untraced,
    True: traced), repeated while the next round fits in ``seconds``;
    at least one. Returns the repetitions per entry and the rounds."""
    reps = [[] for _ in traces]
    started = time.monotonic()
    rounds = 0
    while True:
        round_start = time.monotonic()
        for position, trace in enumerate(traces):
            reps[position] += run_cycle(workload, seed, expected, trace,
                                        deadline)
        rounds += 1
        now = time.monotonic()
        round_s = now - round_start
        if now - started + round_s > seconds or now + round_s > deadline:
            return reps, rounds


# -- metrics ------------------------------------------------------------------


def pooled(reps: list, names) -> dict:
    """Per metric, the mean over the pool's seeds of each seed's median
    over the successful repetitions: every run weighs each seed once,
    however many cycles it made."""
    values = {}
    for name in names:
        by_seed: dict = {}
        for rep in reps:
            if rep["ok"] and name in rep["reply"]["metrics"]:
                by_seed.setdefault(rep["seed"], []).append(
                    rep["reply"]["metrics"][name])
        if by_seed:
            values[name] = statistics.fmean(
                statistics.median(samples) for samples in by_seed.values())
    return values


def layer_metrics(raw: dict, untraced_wall: float) -> dict:
    """Per-layer metrics from one traced cycle's additive totals."""

    def get(key):
        return raw.get(key, 0)

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    metrics = {name: 0.0 for name in SELF_TIME_METRICS}
    for key, value in raw.items():
        if key.endswith(".self"):
            metrics[SELF_TIME_OF_SPAN[key[: -len(".self")]]] += value
    capacity = get("sweep.capacity_s")
    metrics.update({
        "generator.calls": get("generator.calls"),
        "input_gen.calls": get("input_gen.calls"),
        "input_gen.inputs": get("input_gen.inputs"),
        "compiled.calls": get("compiled.calls"),
        "compiled.hit_ratio": ratio(get("compiled.hits"),
                                    get("compiled.lookups")),
        "contracts.calls": get("contracts.battery.calls")
        + get("contracts.trace.calls"),
        "contracts.emulations": get("contracts.emulations"),
        "contracts.battery_fallback_ratio": ratio(
            get("contracts.battery.raised"), get("contracts.battery.calls")),
        "executor.calls": get("executor.calls"),
        "executor.measurements": get("executor.measurements"),
        "uarch.cpu_run.calls": get("uarch.cpu_run.calls"),
        "analyzer.calls": get("analyzer.calls"),
        "analyzer.candidates": get("analyzer.candidates"),
        "analyzer.effectiveness": ratio(get("analyzer.effectiveness_sum"),
                                        get("analyzer.calls")),
        "confirm.calls": get("confirm.calls"),
        "confirm.confirmed_ratio": ratio(get("confirm.confirmed"),
                                         get("confirm.calls")),
        "postprocessor.checks": get("postprocessor.check.calls"),
        "postprocessor.accepted_ratio": ratio(
            get("postprocessor.accepted"), get("postprocessor.check.calls")),
        "postprocessor.inputs_s": get("postprocessor.inputs.dur"),
        "postprocessor.instructions_s": get("postprocessor.instructions.dur"),
        "postprocessor.fences_s": get("postprocessor.fences.dur"),
        "trace_cache.hit_ratio": ratio(get("trace_cache.hits"),
                                       get("trace_cache.lookups")),
        "trace_cache.disk_hits": get("trace_cache.disk_hits"),
        "trace_cache.disk_bytes": get("trace_cache.disk_bytes"),
        "trace_cache.disk_write_errors": get("trace_cache.disk_write_errors"),
        "sweep.busy_s": get("sweep.busy_s"),
        "sweep.utilization": ratio(get("sweep.busy_s"), capacity),
        "sweep.idle_s": capacity - get("sweep.busy_s"),
        "service.submit_s": get("service.submit_s"),
        "service.events": get("service.events"),
        "service.engine_s": get("sweep.dur"),
        "service.state_bytes": get("service.state_bytes"),
        "trace.wall_s": get("trace.wall"),
        "trace.overhead_ratio": ratio(get("trace.wall"), untraced_wall),
    })
    return {name: metrics[name] for name in PER_LAYER}


def per_round(total, rounds: int):
    """A total over ``rounds`` identical cycles, per cycle; counts stay
    whole numbers when they divide evenly."""
    if isinstance(total, int) and total % rounds == 0:
        return total // rounds
    return total / rounds


def summed(reps: list, key: str) -> dict:
    total: dict = {}
    for rep in reps:
        for name, value in rep["reply"].get(key, {}).items():
            total[name] = total.get(name, 0) + value
    return total


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 expected: dict) -> dict:
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    if trace:
        # untraced and traced cycles alternate, so both see the same
        # machine; the per-layer numbers are means per traced cycle
        (untraced, traced), rounds = run_cycles(
            workload, seed, seconds, expected, (False, True), deadline)
        reps = untraced + traced
        untraced_wall = sum(rep["reply"]["wall"]["wall_s"]
                            for rep in untraced if rep["ok"]) / rounds
        raw = {name: per_round(value, rounds) for name, value in summed(
            [rep for rep in traced if rep["ok"]], "layers").items()}
        metrics = layer_metrics(raw, untraced_wall)
        units = PER_LAYER
        missing = sorted({name for rep in traced
                          for name in rep["reply"].get("missing", [])})
        if missing:
            print(f"{workload}: not in this program, reads zero: "
                  + ", ".join(missing))
    else:
        probes = [probe_setup(workload, pool_order(workload, seed)[0],
                              deadline)
                  for _ in range(SETUP_PROBES)]
        (cycles,), rounds = run_cycles(
            workload, seed, seconds - (time.monotonic() - started),
            expected, (False,), deadline)
        reps = probes + cycles
        metrics = pooled(cycles, END_TO_END)
        setups = [rep["reply"]["metrics"]["setup_s"] for rep in reps
                  if rep["ok"]]
        if setups:
            metrics["setup_s"] = statistics.median(setups)
        units = END_TO_END
        for name, value in pooled(cycles, SPECIFIC).items():
            print(f"{workload} {name} {value:.4f} {SPECIFIC[name]}")
        # the same times on the wall clock, for a reader: they move with
        # the host's speed, which the reference seconds factor out
        plain = {name: statistics.median(
            rep["reply"]["wall"][name] for rep in group if rep["ok"])
            for name, group in (("setup_s", reps), ("wall_s", cycles))
            if any(rep["ok"] for rep in group)}
        for name, value in plain.items():
            print(f"{workload} {name} on the wall clock {value:.4f} s")
    attempted = len(reps)
    failed = sum(1 for rep in reps if not rep["ok"])
    print(f"{workload}: {attempted} process(es), {rounds} round(s) over "
          f"seeds {pool_order(workload, seed)} in "
          f"{time.monotonic() - started:.1f}s, {failed} failed "
          f"(failed_ratio {failed / attempted:.4f})")
    for name, unit in units.items():
        metrics.setdefault(name, 0.0)
        print(f"{workload} {name} {metrics[name]:.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


# -- recording ----------------------------------------------------------------


def record(workloads) -> int:
    """Re-record the expected outputs of every pool seed from two
    untraced passes that must agree."""
    expected = load_expected() if os.path.exists(EXPECTED_PATH) else {}
    for workload in workloads:
        seeds = {}
        for engine_seed in WORKLOADS[workload]["seeds"]:
            outputs = []
            for attempt in range(2):
                run_id = f"record-{workload}-{engine_seed}-{attempt}"
                reply = run_rep(workload, engine_seed, False,
                                os.path.join(WORK_ROOT, run_id), run_id,
                                time.monotonic() + RUN_LIMIT_S)
                if "error" in reply:
                    print(f"{workload} seed {engine_seed}: {reply['error']}")
                    return 1
                outputs.append(reply["outputs"])
            if outputs[0] != outputs[1]:
                print(f"{workload} seed {engine_seed}: two runs disagree")
                return 1
            seeds[str(engine_seed)] = outputs[0]
            print(f"{workload} seed {engine_seed}: {outputs[0]['verdict']}")
        expected[workload] = {"spec": spec_digest(workload), "seeds": seeds}
    with open(EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program to measure: {os.path.join(ROOT, 'src', 'repro')}"
              " is missing", file=sys.stderr)
        return 2
    workloads = sorted(WORKLOADS) if args.workload == "all" else [
        args.workload]
    if args.trace:
        shutil.rmtree(TRACE_DIR, ignore_errors=True)
    os.makedirs(TRACE_DIR, exist_ok=True)
    try:
        if args.record:
            return record(workloads)
        expected = load_expected()
        results = [run_workload(workload, args.seed, args.seconds,
                                bool(args.trace), expected)
                   for workload in workloads]
    finally:
        for entry in os.listdir(WORK_ROOT):
            if entry != "traces":
                shutil.rmtree(os.path.join(WORK_ROOT, entry),
                              ignore_errors=True)
    if len(results) == 1:
        summary = results[0]
    else:
        summary = {
            "correct": all(result["correct"] for result in results),
            "attempted": sum(result["attempted"] for result in results),
            "failed": sum(result["failed"] for result in results),
            "metrics": {
                f"{workload}.{name}": metric
                for workload, result in zip(workloads, results)
                for name, metric in result["metrics"].items()
            },
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
