"""Cross-check the benchmark's layer split against the ROADMAP baseline.

    python3 perfbench/crosscheck.py

Runs the conditions the ROADMAP's *Recent* figures name (Airspace L2000
A20 p0.05, bound 100, instance seeds 1-3, SafeRTS and RTFS-0), three times
untraced for throughput and once traced for the layer split, and writes
`perfbench/baseline.json` with the measured and the quoted figures side by
side, the machine they were measured on, and a plain verdict per figure.
"""
from __future__ import annotations

import json
import os
import platform
import statistics
import sys
from time import perf_counter

import probe
from run import import_rtss

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = (1, 2, 3)
BOUND = 100
REPEATS = 3

# ROADMAP "Recent": throughput and shares of episode time, as quoted there
ROADMAP = {
    "expansions_per_s": {"safe-rts": 73_000, "rtfs": 68_000},
    "shares": {"goal_expansion": (0.38, 0.46), "h_backup": (0.16, 0.19),
               "propagation": (0.07, 0.15), "open_sort_target_selection": (0.08, 0.16)},
}

# ROADMAP layer -> the benchmark's spans whose self time makes it up
GROUPS = {
    "goal_expansion": ["search.expand_best_first",
                       "domains.successors<search.expand_best_first"],
    "h_backup": ["search.dijkstra_h_update"],
    "propagation": ["safety.propagate_dead_ends", "safety.propagate_safety",
                    "safety.cache_dead_ends"],
    "open_sort_target_selection": ["search.open_order", "search.select_best_f",
                                   "planners.safe_toward_best"],
    "safety_proofs": ["safety.prove_safety", "domains.successors<safety.prove_safety"],
}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def episodes(rt, algorithm: str):
    config = rt.planners.PlannerConfig(
        algorithm=algorithm, iteration_bound=BOUND, exploration_ratio=0.5,
        allow_budget_carryover=False)
    for seed in SEEDS:
        inst = rt.airspace.generate(2000, 20, 0.05, seed)
        yield seed, inst, config


def throughput(rt, algorithm: str) -> float:
    """Median over repeats of expansions per second over the three seeds."""
    rates = []
    for _ in range(REPEATS):
        expansions, start = 0, perf_counter()
        for seed, inst, config in episodes(rt, algorithm):
            record, _ = rt.harness.simulate_episode(config, inst, inst.start, seed=seed)
            expansions += record.total_expansions
        rates.append(expansions / (perf_counter() - start))
    return statistics.median(rates)


def layer_split(rt, algorithm: str) -> tuple[dict, float]:
    """Shares of traced self time outside garbage collection, and the share
    garbage collection took. A profiler charges a collection to the
    function that triggered it, so the ROADMAP's split has no such layer."""
    tracer = probe.Tracer(rt.modules)
    try:
        for seed, inst, config in episodes(rt, algorithm):
            rt.harness.simulate_episode(config, inst, inst.start, seed=seed)
    finally:
        tracer.uninstall()
    self_ns = {name: ns for name, ns in tracer.self_ns.items()
               if name not in probe.LEAVES}
    self_ns.update((key, ns) for key, ns in tracer.leaf_ns.items()
                   if key.startswith("domains.successors<"))
    gc_ns = tracer.self_ns["python.gc"]
    work = sum(self_ns.values())
    return ({group: sum(self_ns.get(name, 0) for name in names) / work
             for group, names in GROUPS.items()}, gc_ns / (work + gc_ns))


def verdict(measured: float, low: float, high: float) -> str:
    if low <= measured <= high:
        return "agrees"
    side = "below" if measured < low else "above"
    return f"disagrees: {measured:.2%} is {side} the quoted {low:.0%}-{high:.0%}"


def main() -> int:
    rt = import_rtss(os.path.join(os.getcwd(), "src"))
    out = {
        "what": ("Airspace L2000 A20 p0.05, bound 100, instance seeds 1-3; RTFS-0 is "
                 "rtfs with ratio 0.5, the astar evaluator and no budget carryover. "
                 "Throughput is untraced (median of 3 repeats); shares are traced "
                 "self time over all traced self time outside garbage collection, "
                 "tracing excluded; the share collections took is listed apart. A shared virtual machine can drift in speed by up to "
                 "1.8x from one minute to the next (seen on the machine below with a "
                 "fixed pure-Python loop), so a throughput gap against figures taken "
                 "on another machine or at another hour is not evidence about the code."),
        "machine": {"python": platform.python_version(), "nproc": os.cpu_count(),
                    "cpu_model": cpu_model()},
        "roadmap": {"expansions_per_s": ROADMAP["expansions_per_s"],
                    "shares": {k: list(v) for k, v in ROADMAP["shares"].items()}},
        "groups": GROUPS,
        "measured": {},
        "verdicts": {},
    }
    for algorithm in ("safe-rts", "rtfs"):
        rate = throughput(rt, algorithm)
        split, gc_share = layer_split(rt, algorithm)
        quoted = ROADMAP["expansions_per_s"][algorithm]
        out["measured"][algorithm] = {"expansions_per_s": rate, "shares": split,
                                      "garbage_collection_share": gc_share}
        verdicts = {"expansions_per_s": (
            f"measured {rate / 1000:.0f}k/s, {rate / quoted - 1:+.0%} against the "
            f"quoted {quoted // 1000}k/s")}
        for group, (low, high) in ROADMAP["shares"].items():
            verdicts[group] = verdict(split[group], low, high)
        out["verdicts"][algorithm] = verdicts
    with open(os.path.join(HERE, "baseline.json"), "w", encoding="utf-8") as f:
        json.dump(out, f, indent=2)
        f.write("\n")
    print(json.dumps(out["verdicts"], indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
