#!/usr/bin/env python
"""Kill-and-resume smoke test for journaled campaigns (the CI step).

Launches a journaled campaign in a child process group, SIGKILLs the
whole group once some — but not all — shard checkpoints have been
published, resumes from the journal in-process, and asserts the
resumed report's digest equals an uninterrupted run's. This exercises
the crash-consistency contract of ``docs/campaigns-and-sweeps.md``
end to end: atomic record publish (a torn record is re-run, never
trusted), spec-digest pinning, and replay of completed shards.

``--serve`` runs the service-level variant instead: a ``serve
--state-dir`` process is started, a journaled campaign job is
submitted over the wire, the whole serve process group is SIGKILLed
mid-campaign, and a restarted serve on the same state dir must recover
the job table, resubmit the interrupted job with ``resume`` flipped
on, and converge on the uninterrupted digest (docs/service.md
"Robustness"). When ``REPRO_BENCH_JSON`` names a file, the serve
variant records a ``service_resilience`` section there
(schema-checked by ``tools/check_bench_json.py``).

The campaign targets a holds-everywhere contract (CT-COND), so every
shard is budget-bound and the uninterrupted baseline is deterministic.
The ISA follows ``REPRO_ARCH`` (the CI matrix), x86_64 by default.

Usage::

    PYTHONPATH=src python tools/smoke_kill_resume.py [--workdir DIR]
    PYTHONPATH=src python tools/smoke_kill_resume.py --serve
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time

sys.path.insert(
    0,
    os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    ),
)

from repro import api  # noqa: E402

SHARDS = 4
WORKERS = 2
#: budget-bound shape: big enough that the kill lands mid-campaign,
#: small enough that the smoke stays a smoke
TEST_CASES = 240
INPUTS = 20
KILL_DEADLINE_SECONDS = 300.0


def engine_options() -> api.EngineOptions:
    return api.EngineOptions(
        arch=os.environ.get("REPRO_ARCH", "x86_64"),
        contract="CT-COND",
        cpu="skylake-v4-patched",
        num_test_cases=TEST_CASES,
        inputs_per_test_case=INPUTS,
        seed=11,
    )


def journal_records(journal_dir: str) -> int:
    try:
        names = os.listdir(journal_dir)
    except FileNotFoundError:
        return 0
    return sum(
        1
        for name in names
        if name.startswith("shard-") and name.endswith(".pkl")
    )


def child_main(journal_dir: str) -> int:
    api.run_campaign(
        engine_options(),
        workers=WORKERS,
        shards=SHARDS,
        journal_dir=journal_dir,
    )
    return 0


def kill_midway(journal_dir: str) -> str:
    """Run the journaled campaign in a child group; SIGKILL it once
    1 <= published checkpoints < SHARDS. Returns a status string."""
    child = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--child", journal_dir],
        start_new_session=True,  # its own process group: pool dies too
    )
    deadline = time.monotonic() + KILL_DEADLINE_SECONDS
    try:
        while time.monotonic() < deadline:
            records = journal_records(journal_dir)
            if 1 <= records < SHARDS:
                os.killpg(child.pid, signal.SIGKILL)
                child.wait(timeout=30)
                return f"killed mid-run with {records}/{SHARDS} checkpoints"
            if child.poll() is not None:
                # finished before the kill window — the resume below
                # degenerates to a pure journal replay, still a valid
                # (if weaker) digest check
                return "child finished before the kill landed"
            time.sleep(0.05)
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait(timeout=30)
    return f"killed at the {KILL_DEADLINE_SECONDS:.0f}s deadline"


def emit_bench_json(section: str, payload: dict) -> None:
    """Merge one section into the ``REPRO_BENCH_JSON`` sink (no-op
    unless the variable names a file; matches benchmarks/conftest.py)."""
    path = os.environ.get("REPRO_BENCH_JSON")
    if not path:
        return
    data = {}
    if os.path.exists(path):
        with open(path) as handle:
            data = json.load(handle)
    data[section] = payload
    with open(path, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")


# -- the service-level variant (--serve) -------------------------------

SERVE_READY_SECONDS = 60.0
SERVE_RESULT_TIMEOUT = 600.0
_LISTENING = re.compile(r"listening on ([0-9.]+):(\d+)")


def _pump_lines(stream, lines: "queue.Queue[str]") -> None:
    """Forward every line of ``stream`` into ``lines``; ``""`` marks EOF.

    One reader owns the pipe, so a line that arrived in the same read as
    an earlier one is never stranded in a buffer that a ``select()`` on
    the file descriptor cannot see."""
    for line in stream:
        lines.put(line)
    lines.put("")


def start_serve(state_dir: str):
    """Start ``serve --state-dir`` in its own process group; return
    ``(process, host, port, recovered_job_ids)`` once it is listening."""
    env = dict(os.environ)
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    )
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--state-dir", state_dir],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        start_new_session=True,  # its own group: job workers die too
    )
    lines: "queue.Queue[str]" = queue.Queue()
    threading.Thread(
        target=_pump_lines, args=(process.stdout, lines), daemon=True
    ).start()

    def next_line(until: float):
        """The next output line; ``""`` at EOF, None once ``until`` passed."""
        try:
            return lines.get(timeout=max(0.0, until - time.monotonic()))
        except queue.Empty:
            return None

    deadline = time.monotonic() + SERVE_READY_SECONDS
    while True:
        line = next_line(deadline)
        if line is None:
            raise RuntimeError("serve never printed its listening address")
        if not line:
            raise RuntimeError("serve exited before listening")
        sys.stdout.write(f"  serve: {line}")
        match = _LISTENING.search(line)
        if match:
            host, port = match.group(1), int(match.group(2))
            break
    # the recovery line (if any) follows immediately; wait briefly
    recovered = []
    poll_until = time.monotonic() + 2.0
    while True:
        line = next_line(poll_until)
        if not line:
            break
        sys.stdout.write(f"  serve: {line}")
        if line.startswith("recovered "):
            recovered = [
                token.strip(",")
                for token in line.split(":", 1)[1].split()
            ]
            break
    return process, host, port, recovered


def kill_serve(process) -> None:
    if process.poll() is None:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait(timeout=30)


def serve_main(workdir: str) -> int:
    """SIGKILL a serving campaign mid-run; recover from --state-dir."""
    from repro.faults import RetryPolicy
    from repro.service import JobSpec, ServiceClient

    journal_dir = os.path.join(workdir, "journal")
    state_dir = os.path.join(workdir, "state")
    options = engine_options()
    print(f"workdir: {workdir}")
    print(f"target: {options.arch} {options.contract} {options.cpu}, "
          f"{TEST_CASES} cases x {INPUTS} inputs, "
          f"{SHARDS} shards / {WORKERS} workers, via serve --state-dir")

    first, host, port, _ = start_serve(state_dir)
    killed = ""
    try:
        with ServiceClient(host, port, timeout=30.0) as client:
            job_id = client.submit(JobSpec(
                kind="campaign",
                options=options,
                workers=WORKERS,
                shards=SHARDS,
                journal_dir=journal_dir,
            ))
            print(f"submitted {job_id}")
            deadline = time.monotonic() + KILL_DEADLINE_SECONDS
            while time.monotonic() < deadline:
                records = journal_records(journal_dir)
                if 1 <= records < SHARDS:
                    killed = (f"killed serve with {records}/{SHARDS} "
                              "checkpoints")
                    break
                state = client.status(job_id)["state"]
                if state not in ("pending", "running"):
                    killed = f"job reached {state} before the kill landed"
                    break
                time.sleep(0.05)
            else:
                killed = "killed serve at the deadline"
    finally:
        kill_serve(first)
    print(f"kill: {killed}; {journal_records(journal_dir)} "
          "checkpoint(s) survived")

    second, host, port, recovered = start_serve(state_dir)
    try:
        if job_id not in recovered:
            print(f"FAIL: restarted serve did not recover {job_id} "
                  f"(recovered: {recovered})")
            return 1
        retry = RetryPolicy(attempts=4, base_delay=0.2, max_delay=2.0)
        with ServiceClient(host, port, timeout=SERVE_RESULT_TIMEOUT,
                           retry=retry) as client:
            events = list(client.results(job_id))
            status = client.status(job_id)
    finally:
        kill_serve(second)
    if status["state"] != "done":
        print(f"FAIL: recovered job ended {status['state']}: "
              f"{status.get('error')}")
        return 1
    if not any(event.get("event") == "recovered" for event in events):
        print("FAIL: recovered job carries no 'recovered' event")
        return 1
    digest = status["report"]["digest"]
    print(f"recovered job completed, digest {digest}")

    baseline = api.run_campaign(options, workers=WORKERS, shards=SHARDS)
    print(f"baseline: uninterrupted digest {baseline.report_digest()}")
    match = digest == baseline.report_digest()
    emit_bench_json("service_resilience", {
        "arch": options.arch,
        "kill": killed,
        "recovered_jobs": len(recovered),
        "resumed_digest": digest,
        "baseline_digest": baseline.report_digest(),
        "digest_match": match,
    })
    if not match:
        print("FAIL: recovered digest differs from the uninterrupted run")
        return 1
    print("PASS: SIGKILLed serve recovered its job table and "
          "reproduced the uninterrupted report digest")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--child", metavar="JOURNAL_DIR", default=None,
                        help=argparse.SUPPRESS)
    parser.add_argument("--workdir", default=None,
                        help="scratch directory (default: a temp dir)")
    parser.add_argument("--serve", action="store_true",
                        help="run the service-level variant: SIGKILL a "
                        "serve --state-dir process mid-campaign and "
                        "verify the restarted serve recovers and "
                        "resumes to the same digest")
    args = parser.parse_args()
    if args.child:
        return child_main(args.child)
    if args.serve:
        return serve_main(
            args.workdir or tempfile.mkdtemp(prefix="kill-serve-")
        )

    workdir = args.workdir or tempfile.mkdtemp(prefix="kill-resume-")
    journal_dir = os.path.join(workdir, "journal")
    options = engine_options()
    print(f"workdir: {workdir}")
    print(f"target: {options.arch} {options.contract} {options.cpu}, "
          f"{TEST_CASES} cases x {INPUTS} inputs, "
          f"{SHARDS} shards / {WORKERS} workers")

    status = kill_midway(journal_dir)
    survivors = journal_records(journal_dir)
    print(f"kill: {status}; {survivors} checkpoint(s) survived")

    resumed = api.run_campaign(
        options,
        workers=WORKERS,
        shards=SHARDS,
        journal_dir=journal_dir,
        resume=True,
    )
    print(f"resume: completed, digest {resumed.report_digest()}")

    baseline = api.run_campaign(options, workers=WORKERS, shards=SHARDS)
    print(f"baseline: uninterrupted digest {baseline.report_digest()}")

    if resumed.report_digest() != baseline.report_digest():
        print("FAIL: resumed digest differs from the uninterrupted run")
        return 1
    if resumed.merged.test_cases != baseline.merged.test_cases:
        print("FAIL: resumed merged budget differs")
        return 1
    print("PASS: killed-and-resumed campaign reproduced the "
          "uninterrupted report digest")
    return 0


if __name__ == "__main__":
    sys.exit(main())
