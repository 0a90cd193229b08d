#!/usr/bin/env python3
"""Quick self-test of the benchmark.

Checks ``BENCHMARK.json`` against the benchmark's contract, then makes a
tiny run of every workload in both modes and checks that each run exits 0,
ends with a JSON result line, and emits every declared metric with its
declared unit and a valid name.  Run from the repository root:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import re
import subprocess
import sys

from common import BENCHMARK_FILE, ROOT

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def check_config(config) -> list:
    problems = []
    if set(config) != {"command", "paths", "run_seconds", "workloads",
                       "end_to_end", "per_layer"}:
        problems.append(f"top-level keys {sorted(config)}")
    names = [w["name"] for w in config["workloads"]]
    for kind, keys in (("end_to_end", {"name", "unit", "better", "bound"}),
                       ("per_layer", {"name", "unit", "better"})):
        for metric in config[kind]:
            names.append(metric["name"])
            if set(metric) != keys:
                problems.append(f"{metric['name']}: keys {sorted(metric)}")
            if not UNIT.match(metric["unit"]):
                problems.append(f"{metric['name']}: bad unit")
            if metric["better"] not in ("lower", "higher"):
                problems.append(f"{metric['name']}: bad direction")
            if kind == "end_to_end" and not 0 < metric["bound"] <= 0.25:
                problems.append(f"{metric['name']}: bound out of range")
    problems += [f"bad name {name!r}" for name in names if not NAME.match(name)]
    if len(names) != len(set(names)):
        problems.append("a name is used twice")
    setup = [m for m in config["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("setup_s (s, lower) is missing")
    elif setup[0]["bound"] < max(m["bound"] for m in config["end_to_end"]):
        problems.append("setup_s should carry the largest bound")
    for workload in config["workloads"]:
        if set(workload) != {"name", "why"} or len(workload["why"]) > 200:
            problems.append(f"workload {workload['name']}: bad entry")
    return problems


def check_run(config, workload: str, trace: int) -> list:
    command = config["command"] + ["--workload", workload, "--seed", "1",
                                   "--seconds", "1", "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    label = f"{workload} --trace {trace}"
    if done.returncode != 0:
        return [f"{label}: exit {done.returncode}: {done.stderr[-500:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["attempted"] < 1:
        problems.append(f"{label}: not correct or nothing attempted")
    declared = {m["name"]: m["unit"]
                for m in config["per_layer" if trace else "end_to_end"]}
    emitted = {name: entry["unit"]
               for name, entry in result["metrics"].items()}
    if emitted != declared:
        problems.append(f"{label}: emitted {emitted} != declared {declared}")
    problems += [f"{label}: bad name {name!r}" for name in emitted
                 if not re.fullmatch(r"[A-Za-z0-9_.-]+", name)]
    return problems


def main() -> int:
    with open(BENCHMARK_FILE) as handle:
        config = json.load(handle)
    problems = check_config(config)
    for workload in (w["name"] for w in config["workloads"]):
        for trace in (0, 1):
            print(f"selftest: {workload} --trace {trace}", flush=True)
            problems += check_run(config, workload, trace)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest passed" if not problems else
          f"selftest: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
