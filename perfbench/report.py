"""Per-layer metrics, span output and tail attribution of a traced run."""
from __future__ import annotations

import gzip
import json
import os
import statistics

from probe import SPANS

TAIL_QUANTILE = 99            # list the iterations beyond this percentile


def _per_layer_units() -> dict:
    units = {}
    for name in SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.share"] = "ratio"
    units.update({
        "domains.is_goal.calls": "count",
        "search.touch.calls": "count",
        "search.expansions_goal": "count",
        "search.h_changes": "count",
        "search.touched_per_iteration.p50": "count",
        "search.touched_per_iteration.max": "count",
        "search.open_stale_frac": "ratio",
        "safety.proof_expansions": "count",
        "safety.proof_success_frac": "ratio",
        "safety.proof_wasted_frac": "ratio",
        "safety.cache_avoided_reexpansions": "count",
        "safety.dead_reexpansions": "count",
        "planners.unused_budget_frac": "ratio",
        "planners.identity_action_frac": "ratio",
        "planners.target_rank_mean": "rank",
        "harness.serial_s": "s",
        "harness.pool_wall_s": "s",
        "harness.parallel_efficiency": "ratio",
        "harness.cell_payload_bytes": "B",
        "oracles.states_enumerated": "count",
        "memory.parent_peak_rss_mb": "MB",
        "memory.worker_peak_rss_mb": "MB",
        "trace.untraced_wall_s": "s",
        "trace.traced_wall_s": "s",
        "trace.overhead_s": "s",
        "trace.overhead_frac": "ratio",
        "trace.payload_pickle_s": "s",
        "speed.kernel_ms": "ms",
    })
    return units


PER_LAYER = _per_layer_units()


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def busy_seconds(tracer, traced_wall_s: float) -> float:
    """Time the traced pass kept a processor busy: its wall, except that
    time spent waiting on the grid pool is replaced by the workers' summed
    cell time."""
    return traced_wall_s - tracer.pool_wall_s + tracer.busy_cell_s


def per_layer(tracer, untraced, traced, peak_rss: tuple, kernel_ms: float) -> dict:
    """Times here are wall times as measured. `peak_rss` is (this process's
    peak, the largest worker's peak) in MB; it and `kernel_ms`, the median
    time of the speed clock's kernel, cover the whole run, untraced pass
    included."""
    c = tracer.counts
    busy = busy_seconds(tracer, traced.raw_wall_s)
    out = {}
    for name in SPANS:
        self_s = tracer.self_ns[name] / 1e9
        out[f"{name}.calls"] = tracer.calls[name]
        out[f"{name}.self_s"] = self_s
        out[f"{name}.share"] = _ratio(self_s, busy)
    touched = tracer.touched_per_iteration
    out.update({
        "domains.is_goal.calls": c["domains.is_goal.calls"],
        "search.touch.calls": c["search.touch.calls"],
        "search.expansions_goal": c["search.expansions_goal"],
        "search.h_changes": c["search.h_changes"],
        "search.touched_per_iteration.p50": statistics.median(touched) if touched else 0,
        "search.touched_per_iteration.max": max(touched, default=0),
        "search.open_stale_frac": _ratio(c["search.open_stale_entries"],
                                         c["search.open_heap_entries"]),
        "safety.proof_expansions": c["safety.proof_expansions"],
        "safety.proof_success_frac": _ratio(c["safety.proofs_proven"], c["safety.proofs"]),
        "safety.proof_wasted_frac": _ratio(c["safety.proof_expansions_budget_out"],
                                           c["safety.proof_expansions"]),
        "safety.cache_avoided_reexpansions": c["safety.cache_avoided_reexpansions"],
        "safety.dead_reexpansions": c["safety.dead_reexpansions"],
        "planners.unused_budget_frac": _ratio(c["planners.unused_budget"],
                                              c["planners.bound_total"]),
        "planners.identity_action_frac": _ratio(c["planners.identity_actions"],
                                                c["planners.iterations"]),
        "planners.target_rank_mean": _ratio(c["planners.target_rank_sum"],
                                            c["planners.target_rank_count"]),
        "harness.serial_s": tracer.serial_s,
        "harness.pool_wall_s": tracer.pool_wall_s,
        "harness.parallel_efficiency": _ratio(tracer.busy_cell_s,
                                              tracer.jobs * tracer.pool_wall_s),
        "harness.cell_payload_bytes": _ratio(tracer.payload_bytes, tracer.payload_cells),
        "oracles.states_enumerated": c["oracles.states_enumerated"],
        "memory.parent_peak_rss_mb": peak_rss[0],
        "memory.worker_peak_rss_mb": peak_rss[1],
        "trace.untraced_wall_s": untraced.raw_wall_s,
        "trace.traced_wall_s": traced.raw_wall_s,
        "trace.overhead_s": traced.raw_wall_s - untraced.raw_wall_s,
        "trace.overhead_frac": _ratio(traced.raw_wall_s - untraced.raw_wall_s,
                                      untraced.raw_wall_s),
        "trace.payload_pickle_s": tracer.payload_pickle_s,
        "speed.kernel_ms": kernel_ms,
    })
    return out


def tail_iterations(tracer) -> tuple[float, list]:
    """The iterations slower than the TAIL_QUANTILE percentile, slowest first."""
    durations = [it[0] for it in tracer.iterations]
    if len(durations) < 2:
        return 0.0, []
    threshold = statistics.quantiles(durations, n=100)[TAIL_QUANTILE - 1]
    tail = sorted((it for it in tracer.iterations if it[0] > threshold),
                  key=lambda it: -it[0])
    return threshold, tail


def _split_text(split: tuple, total: float, top: int = 4) -> str:
    parts = sorted(split, key=lambda kv: -kv[1])[:top]
    return "  ".join(f"{name} {ns / 1e6:.1f}ms ({ns / total:.0%})" for name, ns in parts)


def tail_lines(tracer) -> list[str]:
    """Human-readable tail attribution: each tail iteration with its largest
    layers, then the tail's layer shares against those of all iterations."""
    threshold, tail = tail_iterations(tracer)
    if not tail:
        return []
    lines = [f"tail: {len(tail)} of {len(tracer.iterations)} iterations above "
             f"p{TAIL_QUANTILE} = {threshold / 1e6:.2f} ms (traced, tracing excluded)"]
    for total, split, touched, label in tail:
        lines.append(f"  {total / 1e6:7.2f} ms  touched {touched:6d}  {label:32s} "
                     f"{_split_text(split, total)}")

    def shares(iterations) -> dict:
        summed: dict = {}
        for _total, split, _touched, _label in iterations:
            for name, ns in split:
                summed[name] = summed.get(name, 0) + ns
        whole = sum(summed.values()) or 1
        return {name: ns / whole for name, ns in summed.items()}

    everywhere, in_tail = shares(tracer.iterations), shares(tail)
    lines.append("  layer share of iteration time: tail vs all iterations")
    for name in sorted(in_tail, key=lambda n: -in_tail[n])[:8]:
        lines.append(f"    {name:32s} {in_tail[name]:6.1%}  vs {everywhere.get(name, 0):6.1%}")
    return lines


def write_trace(out_dir: str, workload: str, seed: int, tracer) -> str:
    """Write every kept span, iteration split and count, one JSON per line."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{workload}-seed{seed}.jsonl.gz")
    with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as f:
        # group 0 is this process; each grid cell's worker spans form one
        # more group, and a span's parent indexes into its own group
        groups = [(os.getpid(), tracer.spans)] + tracer.worker_spans
        for group, (pid, spans) in enumerate(groups):
            records = zip(spans["name"], spans["start_ns"], spans["end_ns"],
                          spans["parent"])
            for index, (name_id, start, end, parent) in enumerate(records):
                f.write(json.dumps({"group": group, "pid": pid, "span": index,
                                    "name": SPANS[name_id], "start_ns": start,
                                    "end_ns": end, "parent": parent}) + "\n")
        threshold, tail = tail_iterations(tracer)
        tail_ids = {id(it) for it in tail}
        for it in tracer.iterations:
            total, split, touched, label = it
            f.write(json.dumps({"iteration": label, "self_ns": total,
                                "touched": touched, "split_ns": dict(split),
                                "tail": id(it) in tail_ids}) + "\n")
        f.write(json.dumps({"counts": tracer.counts, "calls": tracer.calls,
                            "self_ns": tracer.self_ns, "leaf_ns": tracer.leaf_ns,
                            "tail_threshold_ns": threshold}) + "\n")
    return path
