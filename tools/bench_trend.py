#!/usr/bin/env python
"""Trend check over the ``BENCH_*.json`` trajectory at the repo root.

Each perf change commits one ``BENCH_<n>.json``: the medians of every
end-to-end metric of ``perfbench/run.py`` per workload, once for the
parent commit and once for the change. This check reads the metric
names, their ``better`` direction and their relative ``bound`` from
``BENCHMARK.json`` and fails when a change median is worse than its
parent median by more than the bound::

    python tools/bench_trend.py                  # every BENCH_*.json
    python tools/bench_trend.py BENCH_14.json    # the named files

A lower-is-better metric regresses when ``change > parent * (1 + bound)``
and a higher-is-better one when ``change < parent * (1 - bound)``.
Exit 0 when nothing regressed, 1 on a regression, 2 when a file is
malformed or lacks a metric that ``BENCHMARK.json`` names.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: metric name -> (better, bound)
Metrics = Dict[str, Tuple[str, float]]


class MalformedBench(ValueError):
    """A trajectory file that cannot be checked."""


def load_metrics(benchmark_path: str) -> Metrics:
    """The end-to-end metrics that ``BENCHMARK.json`` declares."""
    with open(benchmark_path) as handle:
        declared = json.load(handle)["end_to_end"]
    return {entry["name"]: (entry["better"], float(entry["bound"]))
            for entry in declared}


def regressions(bench: dict, metrics: Metrics) -> List[str]:
    """One message per (workload, metric) whose change median is worse
    than its parent median by more than the metric's bound."""
    try:
        parent, change = bench["parent"], bench["change"]
    except KeyError as missing:
        raise MalformedBench(f"no {missing.args[0]!r} section") from None
    if sorted(parent) != sorted(change):
        raise MalformedBench(
            f"workloads differ: parent {sorted(parent)}, "
            f"change {sorted(change)}")
    found = []
    for workload in sorted(parent):
        for name, (better, bound) in sorted(metrics.items()):
            try:
                before = float(parent[workload][name])
                after = float(change[workload][name])
            except KeyError:
                raise MalformedBench(
                    f"{workload} lacks metric {name!r}") from None
            if better == "lower":
                worse = after > before * (1 + bound)
            elif better == "higher":
                worse = after < before * (1 - bound)
            else:
                raise MalformedBench(f"{name}: unknown direction {better!r}")
            if worse:
                found.append(
                    f"{workload} {name}: {before:.4g} -> {after:.4g} "
                    f"(bound {bound:.0%}, {better} is better)")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*",
                        help="trajectory files (default: BENCH_*.json "
                             "at the repo root)")
    args = parser.parse_args(argv)
    files = args.files or sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))
    if not files:
        print("no BENCH_*.json files to check")
        return 2
    metrics = load_metrics(os.path.join(ROOT, "BENCHMARK.json"))
    status = 0
    for path in files:
        name = os.path.basename(path)
        try:
            with open(path) as handle:
                found = regressions(json.load(handle), metrics)
        except (OSError, ValueError) as error:
            print(f"{name}: malformed: {error}")
            return 2
        for message in found:
            print(f"{name}: REGRESSION {message}")
        if found:
            status = 1
        else:
            print(f"{name}: ok ({len(metrics)} metrics within bounds)")
    return status


if __name__ == "__main__":
    sys.exit(main())
