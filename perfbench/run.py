"""rtss benchmark: one workload, one seed, one timed run; prints one JSON line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload airspace-episodes --seed 1 \
        --seconds 30 --trace 0

The benchmark imports rtss from `src/` of the current directory and changes
nothing there. Untraced runs (`--trace 0`) print the end-to-end metrics;
their times are re-expressed at a fixed reference machine speed (see
`speed.py`), so that the machine's changing speed cancels out: wall times
for set-up and rates, thread CPU times for the step-time percentiles.
Traced runs (`--trace 1`) first repeat the untraced run, then run the same
operations again on fresh inputs with every layer wrapped, and print the
per-layer metrics, the tracing overhead, and (on airspace-episodes) the
iterations slower than the 99th percentile with their per-layer split. The
spans are written to `.perfbench-out/` when the run ends.

The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Every result row is checked against `reference.json`; a row that raised,
recorded an error, entered a dead end (safe planners) or differs from its
reference counts as failed.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import statistics
import sys
from time import perf_counter

SETUP_REPEATS = 5           # before the timed section, and again after it
OUT_DIR = ".perfbench-out"
RTSS_MODULES = {"rtss": "rtss", "search": "rtss.search", "safety": "rtss.safety",
                "planners": "rtss.planners", "harness": "rtss.harness",
                "airspace": "rtss.domains.airspace",
                "racetrack": "rtss.domains.racetrack",
                "oracles": "rtss.domains.oracles"}

# name -> unit; the order is the order printed
END_TO_END = {"setup_s": "s", "expansions_per_s": "1/s", "proofs_per_s": "1/s",
              "ops_per_s": "1/s", "iteration_ms_p50": "ms",
              "iteration_ms_p99": "ms", "peak_rss_mb": "MB"}


class Rtss:
    """The imported rtss modules, by short name."""

    def __init__(self, modules: dict):
        self.__dict__.update(modules)
        self.modules = modules


def import_rtss(src: str) -> Rtss:
    """Import rtss afresh from `src` (dropping any earlier import of it)."""
    if src not in sys.path:
        sys.path.insert(0, src)
    for name in [n for n in sys.modules if n == "rtss" or n.startswith("rtss.")]:
        del sys.modules[name]
    modules = {short: importlib.import_module(full) for short, full in RTSS_MODULES.items()}
    found = os.path.dirname(os.path.dirname(os.path.abspath(modules["rtss"].__file__)))
    if found != src:
        raise ImportError(f"rtss was imported from {found}, not from {src}")
    return Rtss(modules)


def setup(workload, src: str, seed: int, times: list, clock):
    """Import rtss afresh and build the run's inputs; appends the seconds
    taken, at the clock's reference speed, to `times` and returns (rtss,
    operations)."""
    clock.calibrate()
    before = clock.factor
    t0 = perf_counter()
    rt = import_rtss(src)
    ops = workload.build(rt, seed)
    raw_s = perf_counter() - t0
    clock.calibrate()
    times.append(raw_s * (before + clock.factor) / 2)
    return rt, ops


class Tally:
    """What one or more operations did, and how long they took."""

    def __init__(self):
        self.ops = 0
        self.rows = 0
        self.failures: list = []
        self.expansions = 0
        self.proofs = 0
        self.wall_s = 0.0          # at the speed clock's reference speed
        self.raw_wall_s = 0.0      # as measured
        self.latency_ns: list = []       # step times in thread CPU time, as measured
        self.episode_starts: list = []   # index in latency_ns
        self.cpu_factor = 1.0      # mean CPU-time speed factor over the operation
        self.raised = False

    def add(self, other: "Tally") -> None:
        for name in ("ops", "rows", "expansions", "proofs", "wall_s", "raw_wall_s"):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.failures.extend(other.failures)
        self.episode_starts.extend(len(self.latency_ns) + i for i in other.episode_starts)
        self.latency_ns.extend(other.latency_ns)


def run_op(workload, rt, op, probe, reference, clock) -> Tally:
    """Run and check one operation. Checking is timed too: a user pays for
    reading results. The operation's wall time, less the time spent
    calibrating, is scaled by the mean of the speed factors measured from
    just before it to just after it, in this process and in grid workers."""
    from workloads import check
    tally = Tally()
    samples = getattr(probe, "samples_ns", [])
    starts = getattr(probe, "episode_starts", [])
    first_sample, first_proofs = len(samples), getattr(probe, "proofs", 0)
    first_episode = len(starts)

    def calibration_s():
        return clock.spent_s + getattr(probe, "worker_calibration_s", 0.0)

    clock.calibrate()
    first_factor = len(clock.factors) - 1
    calibrated_s = calibration_s()
    start = perf_counter()
    try:
        outcome = workload.run(rt, op, probe)
    except Exception as exc:  # one failed operation must not end the run
        # its rows are unknown, so it counts as one attempted, failed row
        tally.failures.append((repr(op)[:80], f"raised {exc!r}"))
        tally.rows = 1
        tally.raised = True
    else:
        check(outcome, reference)
        tally.rows = len(outcome.rows)
        tally.failures = outcome.failures
        tally.expansions = outcome.expansions
        tally.proofs = outcome.proofs or getattr(probe, "proofs", 0) - first_proofs
    tally.raw_wall_s = perf_counter() - start - (calibration_s() - calibrated_s)
    clock.calibrate()
    tally.wall_s = tally.raw_wall_s * statistics.fmean(clock.factors[first_factor:])
    tally.cpu_factor = statistics.fmean(clock.cpu_factors[first_factor:])
    tally.ops = 1
    tally.latency_ns = samples[first_sample:]
    tally.episode_starts = [i - first_sample for i in starts[first_episode:]]
    return tally


def _consume(ops: list):
    """Yield and drop operations in order, so that memory an instance picks
    up while it runs is freed with it and peak memory does not grow with
    the number of operations a run gets through."""
    ops.reverse()
    while ops:
        yield ops.pop()


def run_ops(workload, rt, ops: list, probe, reference, clock, seconds=None) -> list:
    """Run operations in order until `seconds` have passed (after at least
    one) or, without a limit, all of them; one Tally per operation."""
    tallies = []
    gc.collect()
    start = perf_counter()
    for op in _consume(ops):
        tallies.append(run_op(workload, rt, op, probe, reference, clock))
        if seconds is not None and perf_counter() - start >= seconds:
            break
    return tallies


def total(tallies: list) -> Tally:
    out = Tally()
    for tally in tallies:
        out.add(tally)
    return out


def peak_rss_split_mb() -> tuple[float, float]:
    """Peak resident memory of this process and that of its largest child
    (a grid pool worker; 0 if there was none); Linux reports kilobytes."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own / 1024.0, children / 1024.0


def peak_rss_mb() -> float:
    """This process's peak plus the largest worker's peak. A forked worker's
    peak includes the pages it still shares with this process, so those
    count twice, and the other worker counts not at all; traced runs print
    the two peaks apart."""
    return sum(peak_rss_split_mb())


def at_speed(tallies: list, exponent: float) -> Tally:
    """The tallies' steps pooled, each operation's step times multiplied by
    its CPU-time speed factor to the power `exponent` (see `speed.py`)."""
    out = Tally()
    for tally in tallies:
        scaled = Tally()
        scaled.latency_ns = [ns * tally.cpu_factor ** exponent for ns in tally.latency_ns]
        scaled.episode_starts = tally.episode_starts
        out.add(scaled)
    return out


def _percentile(tally: Tally, q: int) -> float:
    """The q-th percentile, in ms, of the operation's step times with every
    episode weighted equally, so that it does not move with how many steps
    each instance happens to take. Without episodes (proof-stats) every
    sample has the same weight."""
    samples = tally.latency_ns
    if len(samples) < 2:
        raise RuntimeError("an operation recorded fewer than two latency samples")
    bounds = sorted({0, len(samples), *tally.episode_starts})
    if len(bounds) == 2:
        return sorted(samples)[max(0, math.ceil(q / 100 * len(samples)) - 1)] / 1e6
    weighted = sorted((sample, 1.0 / (hi - lo))
                      for lo, hi in zip(bounds, bounds[1:])
                      for sample in samples[lo:hi])
    target = q / 100 * sum(weight for _, weight in weighted)
    reached = 0.0
    for sample, weight in weighted:
        reached += weight
        if reached >= target:
            break
    return sample / 1e6


def end_to_end(setup_s: float, tallies: list, tail_exponent: float) -> dict:
    """Each rate is the median over the run's operations. Every operation
    of a workload does the same mix of work on another instance, so the
    median is steady against both the instance drawn and an operation the
    speed clock tracked badly. The step-time percentiles pool the steps of
    all operations, so that the tail rests on as many samples as the run
    has; each operation's steps are scaled by its own speed factor, fully
    for the median and to the power `tail_exponent` for the 99th percentile
    (see workloads.py)."""
    peak_rss = peak_rss_mb()      # before the percentiles' sorting adds to it
    completed = [t for t in tallies if not t.raised]
    if not completed:
        raise RuntimeError("every operation raised; nothing to measure")

    def median_of(value) -> float:
        return statistics.median(value(t) for t in completed)

    return {"setup_s": setup_s,
            "expansions_per_s": median_of(lambda t: t.expansions / t.wall_s),
            "proofs_per_s": median_of(lambda t: t.proofs / t.wall_s),
            "ops_per_s": median_of(lambda t: t.rows / t.wall_s),
            "iteration_ms_p50": _percentile(at_speed(completed, 1.0), 50),
            "iteration_ms_p99": _percentile(at_speed(completed, tail_exponent), 99),
            "peak_rss_mb": peak_rss}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    from workloads import WORKLOADS, load_reference
    import probe
    from speed import SpeedClock
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "rtss", "__init__.py")):
        print(f"error: no rtss package under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    reference = load_reference()[workload.name]

    # set up before and after the timed section, so the median of the set-up
    # times does not rest on one spell of the machine
    setup_times: list = []
    clock = SpeedClock()
    for _ in range(SETUP_REPEATS):
        rt, ops = setup(workload, src, args.seed, setup_times, clock)
    timer = probe.Timer(rt.modules, workload.latency_target, clock)
    try:
        tallies = run_ops(workload, rt, ops, timer, reference, clock, args.seconds)
    finally:
        timer.uninstall()
    untraced = total(tallies)
    del ops
    gc.collect()
    for _ in range(SETUP_REPEATS):
        rt, ops = setup(workload, src, args.seed, setup_times, clock)
    passes = [untraced]
    if args.trace:
        import report
        tracer = probe.Tracer(rt.modules)
        try:
            traced = total(run_ops(workload, rt, ops[:untraced.ops], tracer, reference,
                                   clock))
        finally:
            tracer.uninstall()
        passes.append(traced)
        metrics = report.per_layer(tracer, untraced, traced, peak_rss_split_mb(),
                                   clock.kernel_ms())
        path = report.write_trace(OUT_DIR, workload.name, args.seed, tracer)
        print(f"spans written to {path}")
        if workload.latency_target == "iteration_step":
            for line in report.tail_lines(tracer):
                print(line)
        units = report.PER_LAYER
    else:
        metrics = end_to_end(statistics.median(setup_times), tallies,
                             workload.tail_exponent)
        for i, t in enumerate(t for t in tallies if not t.raised):
            print(f"operation {i}: {t.rows} rows, {t.wall_s:.2f} s "
                  f"({t.raw_wall_s:.2f} s wall, {t.raw_wall_s / t.wall_s:.3f}x), "
                  f"{t.expansions / t.wall_s:.0f} expansions/s, "
                  f"{t.proofs / t.wall_s:.1f} proofs/s, {t.rows / t.wall_s:.3f} ops/s, "
                  f"p50 {_percentile(at_speed([t], 1.0), 50):.4f} ms, "
                  f"p99 {_percentile(at_speed([t], workload.tail_exponent), 99):.4f} ms",
                  file=sys.stderr)
        units = END_TO_END

    failures = [f for p in passes for f in p.failures]
    for key, reason in failures[:20]:
        print(f"FAILED {key}: {reason}", file=sys.stderr)
    attempted = sum(p.rows for p in passes)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
