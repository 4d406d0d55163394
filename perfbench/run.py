"""darbouxops benchmark: end-to-end metrics, or per-layer metrics when traced.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 36 --trace 0

Run from the repository root; the package is imported from ./src.  A run
times set-up (interpreter start, `import darbouxops`, input generation) in
fresh subprocesses, then repeats whole passes over the seeded inputs while
another pass still fits in --seconds (at least one pass), and spends the
time left on extra rounds that rerun the items run the fewest times,
slowest first, so that the slowest item is timed more than once too.
Every item result goes through the expected-output gate (gate.py).  The
last stdout line is one JSON object {"correct", "attempted", "failed",
"metrics"}; the exit code is 1 when any item failed the gate.

--trace 0 reports run_s, item_p50_s, item_max_s, setup_s and peak_rss_mb.
Item and pass times are scaled by a host speed gauge sampled during the
timed rounds (gauge.py); set-up time is not.
--trace 1 runs one untraced pass, then one pass with spans installed
from outside the package (spans.py), and reports the per-layer metrics and
trace.overhead = traced pass time / untraced pass time.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 7


def _use_package_from_checkout() -> None:
    sys.path.insert(0, SRC)
    try:
        import darbouxops
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import darbouxops from {SRC}: {exc}")
    if not os.path.abspath(darbouxops.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: darbouxops imported from {darbouxops.__file__}, not {SRC}")


_use_package_from_checkout()

import gate  # noqa: E402
from gauge import Gauge  # noqa: E402
from workloads import WORKLOADS, digest, generate, run_pass, write_files  # noqa: E402


def measure_setup(workload: str, seed: int) -> tuple:
    """Wall times and input digests of fresh set-up-only processes."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    times, digests = [], set()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up process failed: {proc.stderr.strip()}")
        digests.add(proc.stdout.strip())
    return times, digests


class Run:
    """Passes and extra rounds of one run, and the gate's verdict on each result."""

    def __init__(self, inputs: dict, workdir: str, expected, gauge=None):
        self.inputs = inputs
        self.workdir = workdir
        self.expected = expected
        self.gauge = gauge  # samples host speed during timed rounds
        self.pass_s = []  # wall time of each full pass (the first rounds), gauge left out
        self.rounds = []  # {item index: ItemResult}: full passes first, then extra rounds
        self.failures = {}  # (round, item index) -> problems

    def one_round(self, indices=None) -> float:
        workload = self.inputs["workload"]
        if self.gauge is None:
            t0 = time.perf_counter()
            results = run_pass(self.inputs, self.workdir, indices)
            seconds = time.perf_counter() - t0
        else:
            with self.gauge as gauge:
                t0 = gauge.clock()
                results = run_pass(self.inputs, self.workdir, indices, gauge.clock)
                seconds = gauge.clock() - t0
        r = len(self.rounds)
        for k, problems in gate.check_pass(workload, self.inputs, results, self.expected).items():
            self.failures[(r, k)] = problems
        if self.rounds:
            for k, result in results.items():
                if digest(result.output) != digest(self.rounds[0][k].output):
                    self.failures.setdefault((r, k), []).append("output differs from pass 0")
        self.rounds.append(results)
        return seconds

    def one_pass(self) -> float:
        seconds = self.one_round()
        self.pass_s.append(seconds)
        return seconds

    def run_oracles(self) -> None:
        workload = self.inputs["workload"]
        for k, problems in gate.oracle(workload, self.inputs, self.rounds[0], self.workdir).items():
            self.failures.setdefault((0, k), []).extend(problems)

    @property
    def attempted(self) -> int:
        return sum(len(results) for results in self.rounds)

    def item_counts(self) -> dict:
        """Item index -> number of rounds that ran it."""
        counts = {}
        for results in self.rounds:
            for k in results:
                counts[k] = counts.get(k, 0) + 1
        return counts

    def item_medians(self, seconds_of=lambda result: result.seconds) -> dict:
        """Item index -> median of its times over every round that ran it."""
        times = {}
        for results in self.rounds:
            for k, result in results.items():
                times.setdefault(k, []).append(seconds_of(result))
        return {k: statistics.median(ts) for k, ts in times.items()}

    def scaled_seconds(self, result) -> float:
        """An item's time scaled by the gauge samples taken around it."""
        return result.seconds * self.gauge.factor(result.start, result.start + result.seconds)

    def summary(self, seconds_of) -> dict:
        """run_s, item_p50_s and item_max_s, with item times from `seconds_of`.
        A pass's time is the sum of its items' times."""
        passes = self.rounds[:len(self.pass_s)]
        medians = self.item_medians(seconds_of).values()
        return {
            "run_s": statistics.median(sum(map(seconds_of, p.values())) for p in passes),
            "item_p50_s": statistics.median(medians),
            "item_max_s": max(medians),
        }

    def report_failures(self) -> None:
        for (r, k), problems in sorted(self.failures.items()):
            for problem in problems:
                print(f"FAILED round {r} item {self.rounds[r][k].label}: {problem}",
                      file=sys.stderr)


def extra_round(run: Run, budget: float) -> list:
    """Items for the next extra round: of the items that fit in `budget`
    seconds by their median, those run the fewest times so far, slowest
    first, as many as fit together."""
    counts, medians = run.item_counts(), run.item_medians()
    fitting = [k for k in counts if medians[k] <= budget]
    if not fitting:
        return []
    fewest = min(counts[k] for k in fitting)
    chosen, total = [], 0.0
    for k in sorted((k for k in fitting if counts[k] == fewest), key=lambda k: -medians[k]):
        if total + medians[k] <= budget:
            chosen.append(k)
            total += medians[k]
    return sorted(chosen)


def timed_metrics(run: Run, seconds: float) -> tuple:
    """Full passes while another fits in `seconds`; then, in the time left,
    extra rounds that give the items run the fewest times another run,
    slowest first, so that the slowest item too is timed by the median of
    several runs.  Returns the scaled times, the unscaled ones and the peak
    resident set in MB."""
    deadline = time.perf_counter() + seconds
    while True:
        last = run.one_pass()
        if time.perf_counter() + last > deadline:
            break
    while True:
        chosen = extra_round(run, deadline - time.perf_counter())
        if not chosen:
            break
        run.one_round(chosen)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    run.run_oracles()
    return run.summary(run.scaled_seconds), run.summary(lambda r: r.seconds), peak_rss_mb


def traced_metrics(run: Run) -> dict:
    from spans import Tracer

    base = run.one_pass()
    tracer = Tracer()
    tracer.install()
    try:
        traced = run.one_pass()
    finally:
        tracer.uninstall()
    run.run_oracles()
    metrics = tracer.metrics()
    metrics["trace.overhead"] = (traced / base, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="generate the inputs, print their digest and exit")
    args = parser.parse_args(argv)

    if args.setup_only:
        print(digest(generate(args.workload, args.seed)))
        return 0

    setup_times, setup_digests = measure_setup(args.workload, args.seed)
    inputs = generate(args.workload, args.seed)
    if setup_digests != {digest(inputs)}:
        raise SystemExit("perfbench: inputs differ between processes for one seed")
    expected = gate.load_expected(args.workload)
    if expected is None and args.workload != "pencil-sqrt":
        raise SystemExit(f"perfbench: no recorded outputs for {args.workload}")

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        write_files(inputs, workdir)
        if args.trace:
            run = Run(inputs, workdir, expected)
            metrics = traced_metrics(run)
        else:
            run = Run(inputs, workdir, expected, Gauge())
            times, raw, peak_rss_mb = timed_metrics(run, args.seconds)
            # Set-up is not scaled: short fresh processes did not slow down
            # with the host as the long run and the gauge did.
            times["setup_s"] = statistics.median(setup_times)
            metrics = {name: (value, "s") for name, value in times.items()}
            metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(run.failures)
    run.report_failures()
    if not args.trace:
        slowest = sorted(run.item_medians().items(), key=lambda kv: -kv[1])[:6]
        print("slowest items (median s, unscaled): "
              + ", ".join(f"{run.rounds[0][k].label} {v:.3f}" for k, v in slowest))
        print(f"gauge: {len(run.gauge.samples)} samples, median"
              f" {statistics.median(run.gauge.samples):.6g} s, run factor"
              f" {run.gauge.factor():.6g}")
        print("unscaled: " + ", ".join(f"{name} {value:.6g} s" for name, value in raw.items()))
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:.6g} {unit}")
    print(f"{'failed_frac':32s} {failed / run.attempted:.6g} ({failed}/{run.attempted} item"
          f" runs, {len(run.pass_s)} passes, {len(run.rounds) - len(run.pass_s)} extra rounds)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
