"""lipcert benchmark: one seeded workload per process, or all of them in turn.

    python3 bench/run.py --workload pipeline-k2 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py                       # every workload, seed 0

Run from a checkout: the library is imported from ``src/`` beside this
directory.  With ``--trace 0`` the workload runs closed-loop (one client,
each call starts when the previous one ended) for ``--seconds`` of wall
time and prints the end-to-end metrics.  With ``--trace 1`` it runs each
case of its fixed traced set untraced and traced, with spans at every layer
boundary, and prints the per-layer metrics.  The last line of stdout is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

Times are CPU time of this process, converted to reference speed.  lipcert
is single-threaded and does no I/O, so its wall time is its CPU time plus
the time the host lends the CPU to others.  On a shared host the other
guests also slow the program's own instructions, so every timed call is
bracketed by a fixed reference loop of Fraction arithmetic and its CPU time
is scaled by the loop's (``measure.at_reference_speed``).
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAMES = ("pipeline-k3", "pipeline-k2", "direct-search-k3", "verify-corpus")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", default="all", choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Tally:
    """Attempted and failed operations; ``correct`` holds while every failure
    is a known verifier fault."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0

    def record(self, case, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            if not case.known_fault:
                self.unexpected += 1
                print(f"FAIL {case.label}: {problems[0]}", file=sys.stderr)


def call(workload, case):
    """One timed call; returns (CPU seconds, output, exception)."""
    start = time.process_time()
    try:
        output = workload.run(case)
    except Exception as exc:  # a failed operation: counted, and the run goes on
        elapsed = time.process_time() - start
        if not case.known_fault:
            traceback.print_exc()
        return elapsed, None, exc
    return time.process_time() - start, output, None


def outcome(workload, case, output, exc):
    if exc is not None:
        return [f"raised {type(exc).__name__}: {exc}"]
    return workload.check(case, output)


def measure(workload, cases, seconds, tally):
    """Closed loop until ``seconds`` of wall time have passed; returns the
    CPU time of each call at reference speed, from the reference loop timed
    just before and just after it.  Whole-round workloads finish the round
    they are in."""
    from measure import at_reference_speed, time_reference_loop

    times = []
    start = time.perf_counter()
    i = 0
    while True:
        case = cases[i % len(cases)]
        before = time_reference_loop()
        elapsed, output, exc = call(workload, case)
        times.append(at_reference_speed(elapsed, before, time_reference_loop()))
        tally.record(case, outcome(workload, case, output, exc))
        i += 1
        at_round_end = i % len(cases) == 0 or not workload.whole_rounds
        if at_round_end and time.perf_counter() - start >= seconds:
            return times


def traced(workload, cases, tally):
    """Run each case untraced and traced, alternating which goes first, and
    return the per-layer metrics of the traced calls."""
    import importlib

    import layers
    from tracing import Tracer, install

    tracer = Tracer()
    modules = {name: importlib.import_module(f"lipcert.{name}") for name in layers.LAYER_MODULES}
    installation = install(tracer, modules, layers.BOUNDARIES)
    untraced_s = traced_s = 0.0
    for i, case in enumerate(cases):
        if i % 2:
            untraced_s += call(workload, case)[0]
        installation.apply()
        root = tracer.start("bench.op")  # the wrappers record only inside a root span
        try:
            elapsed, output, exc = call(workload, case)
        finally:
            tracer.stop(root)
            installation.restore()
        traced_s += elapsed
        tally.record(case, outcome(workload, case, output, exc))
        if not i % 2:
            untraced_s += call(workload, case)[0]
    missing = sorted(set(installation.unreachable) | set(layers.unreached(tracer, workload.layers)))
    for name in missing:
        print(f"UNREACHED boundary {name}", file=sys.stderr)
    metrics = layers.layer_metrics(tracer)
    self_sum = sum(s.self_s for s in layers.summarize(tracer).values())
    metrics.update(
        {
            "trace.untraced_s": (untraced_s, "s"),
            "trace.traced_s": (traced_s, "s"),
            "trace.self_sum_s": (self_sum, "s"),
            "trace.overhead_s": (traced_s - untraced_s, "s"),
            "trace.unreached": (len(missing), "count"),
        }
    )
    return metrics


def run_workload(args) -> int:
    from measure import ReferenceClock, at_reference_speed, samples_beyond, timing_summary
    from workloads import WORKLOADS  # imports lipcert: part of set-up

    imported = time.process_time()  # CPU time since the interpreter started
    workload = WORKLOADS[args.workload]
    loops = []
    builds = []
    for _ in range(workload.setup_repeats):
        clock = ReferenceClock()
        loops.append(clock.loop)
        cases = workload.prepare(args.seed, clock.lap)
        clock.lap()
        builds.append(clock.total)
    setup_s = at_reference_speed(imported, statistics.median(loops)) + statistics.median(builds)
    tally = Tally()
    if args.trace:
        size = workload.trace_size or len(cases)
        metrics = traced(workload, cases[:size], tally)
    else:
        times = measure(workload, cases, args.seconds, tally)
        summary = timing_summary(times)
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "ops_per_s": (summary["ops_per_s"], "1/s"),
            "op_p50_ms": (summary["op_p50_ms"], "ms"),
            "op_p90_ms": (summary["op_p90_ms"], "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_mib, "MiB"),
        }
        print(
            f"{workload.name} seed {args.seed}: {len(times)} operations timed, "
            f"{samples_beyond(len(times), 90)} beyond the 90th percentile"
        )
    for name, (value, unit) in metrics.items():
        print(f"  {name:46s} {value:>16.6g} {unit}")
    print(f"  attempted {tally.attempted}, failed {tally.failed}")
    result = {
        "correct": tally.unexpected == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "lipcert" / "__init__.py").is_file():
        print(f"lipcert sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
