"""Self-test of the benchmark harness itself, on a few cheap items.

    python3 perfbench/selftest.py        (from the repository root, ~30 s)

Checks that one seed gives byte-identical inputs (and another seed other
inputs), that two passes give identical output digests that the gate
accepts, that a corrupted expected output makes the gate fail, that two
traced passes count exactly the same, that extra rounds rerun the least-run
items slowest first, that the host gauge samples on its timer and keeps its
samples out of the clock, that the metric names match BENCHMARK.json, and
that run.py refuses to run without the package.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

import run
import gate
from gauge import Gauge
from spans import Tracer
from workloads import (WORKLOADS, ItemResult, canonical, digest, generate, item_label,
                       write_files)

CHEAP = {
    "catalog": lambda item: item["entry"] in ("A_{3,3}", "A_{4,2}", "A_{3,2}"),
    "scale": lambda item: item["n"] in (3, 5) and (item["algebra"], item["n"]) != ("so_n", 5),
    "pencil-sqrt": lambda item: item["operator"]["dim"] <= 4,
}


def cheap_inputs(workload: str, seed: int) -> dict:
    inputs = generate(workload, seed)
    inputs["items"] = [item for item in inputs["items"] if CHEAP[workload](item)]
    return inputs


def corrupt(workload: str, inputs: dict, expected):
    """A copy of the expected outputs (or inputs) with one item made wrong."""
    inputs, expected = copy.deepcopy(inputs), copy.deepcopy(expected)
    first = inputs["items"][0]
    if workload == "catalog":
        checks = expected["entries"][first["entry"]]["checks"]
        checks[0][1] = not checks[0][1]
    elif workload == "scale":
        expected["digests"][item_label(workload, first)] = "0" * 64
    else:
        first["compatible"] = not first["compatible"]
    return inputs, expected


def passes(inputs, expected, workdir, n=2):
    r = run.Run(inputs, workdir, expected)
    for _ in range(n):
        r.one_pass()
    r.run_oracles()
    return r


def traced_counts(inputs, workdir) -> dict:
    tracer = Tracer()
    tracer.install()
    try:
        run.Run(inputs, workdir, None if inputs["workload"] == "pencil-sqrt"
                else gate.load_expected(inputs["workload"])).one_pass()
    finally:
        tracer.uninstall()
    return {k: v for k, (v, unit) in tracer.metrics().items() if unit != "s"}


def check(cond: bool, what: str, failures: list) -> None:
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def check_gauge(failures: list) -> None:
    """The gauge samples on its timer, and its clock leaves the samples out."""
    before = signal.getsignal(signal.SIGALRM)
    with Gauge(every=0.05) as gauge:
        t0, w0 = gauge.clock(), time.perf_counter()
        while time.perf_counter() - w0 < 0.5:
            pass
        work, wall = gauge.clock() - t0, time.perf_counter() - w0
    check(len(gauge.samples) >= 3 and abs(wall - gauge.spent - work) < 0.01
          and signal.getsignal(signal.SIGALRM) is before and gauge.factor() > 0,
          f"gauge took {len(gauge.samples)} samples ({gauge.spent:.3f} s) in {wall:.3f} s,"
          f" clock advanced {work:.3f} s", failures)

    gauge = Gauge()
    gauge.at, gauge.samples = [0, 1, 2, 10, 11, 12, 13, 14], [1, 1, 1, 2, 2, 2, 2, 2]
    near = [gauge.factor(0.5, 1.5) * 1, gauge.factor(11, 12) * 2, gauge.factor() * 2]
    check(max(near) - min(near) < 1e-12,
          "gauge scales an item by the samples taken around it", failures)


def check_extra_rounds(failures: list) -> None:
    """Extra rounds rerun the least-run items that fit, slowest first."""
    r = run.Run({"workload": "scale", "items": []}, None, None)
    r.rounds.append({k: ItemResult(str(k), s, {}) for k, s in enumerate((5.0, 1.0, 0.1))})
    first = run.extra_round(r, 5.5)
    r.rounds.append({k: ItemResult(str(k), 5.0 if k == 0 else 0.1, {}) for k in first})
    second = run.extra_round(r, 2.0)
    check(first == [0, 2] and second == [1] and run.extra_round(r, 0.05) == [],
          f"extra rounds pick {first}, then {second}", failures)


def main() -> int:
    failures = []
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    for workload in WORKLOADS:
        a, b, other = (canonical(generate(workload, s)) for s in (11, 11, 12))
        check(a == b, f"{workload}: one seed gives byte-identical inputs", failures)
        check(a != other, f"{workload}: another seed gives other inputs", failures)

        inputs = cheap_inputs(workload, 11)
        expected = gate.load_expected(workload)
        workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT)
        try:
            write_files(inputs, workdir)
            r = passes(inputs, expected, workdir)
            same = ([digest(x.output) for x in r.rounds[0].values()]
                    == [digest(x.output) for x in r.rounds[1].values()])
            check(same, f"{workload}: two passes give identical output digests", failures)
            check(not r.failures, f"{workload}: gate accepts {r.attempted} item results"
                  f" {r.failures or ''}", failures)

            bad_inputs, bad_expected = corrupt(workload, inputs, expected)
            r = passes(bad_inputs, bad_expected, workdir, n=1)
            check(len(r.failures) / r.attempted > 0,
                  f"{workload}: corrupted expected output gives failed_frac"
                  f" {len(r.failures)}/{r.attempted}", failures)

            first, second = traced_counts(inputs, workdir), traced_counts(inputs, workdir)
            check(first == second, f"{workload}: two traced passes count the same", failures)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    check_extra_rounds(failures)
    check_gauge(failures)
    names = set(Tracer().metrics()) | {"trace.overhead"}
    check(names == {m["name"] for m in bench["per_layer"]},
          "traced metric names match BENCHMARK.json per_layer", failures)

    bare = tempfile.mkdtemp(prefix=".perfbench-bare-", dir=run.ROOT)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        for path in bench["paths"]:
            shutil.copytree(os.path.join(run.ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(bench["command"] + ["--workload", "catalog", "--seed", "1",
                                                  "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
        check(proc.returncode != 0 and not proc.stdout.strip(),
              "without the package the benchmark exits non-zero and prints no result", failures)
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
