"""Episode simulator, metrics, and the experiment grid runner.

Time is modeled in expansions: one planner iteration buys one action
duration, so an episode's goal achievement time (GAT) is simply its
committed action count and velocity is ground distance over GAT. Every
record is backed by an independent replay of the committed actions against
the domain dynamics, which is also what detects dead-end entry; planners
never certify their own trajectories.
"""
from __future__ import annotations

import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Optional

from .domains import airspace, racetrack
from .domains.oracles import true_safe_set
from .planners import (RTFS, SAFE_LSS_LRTA, EpisodeResult,
                       PlannerConfig, SafeFilteredDomain, apply_action,
                       offline_astar, run_episode)
from .rng import mix64
from .safety import DeadEndCache
from .search import Evaluator

OFFLINE_ASTAR = "astar-offline"
_CHUNKS_PER_JOB = 4    # racetrack grid cells go to the pool in about 4 chunks per worker

CSV_COLUMNS = ("instanceId", "algorithm", "iterationBound", "explorationRatio",
               "evaluator", "seed", "outcome", "gat", "velocity",
               "totalExpansions", "proofExpansions", "deadEndReexpansionRatio",
               "meanTargetOpenRank", "iterations")


@dataclass
class RunRecord:
    instance_id: str
    algorithm: str
    iteration_bound: int
    exploration_ratio: Optional[float]
    evaluator: str
    seed: int
    outcome: str
    gat: float
    velocity: float
    total_expansions: int
    proof_expansions: int
    dead_end_reexpansion_ratio: float
    mean_target_open_rank: Optional[float]
    iterations: int

    def row(self) -> list:
        return [self.instance_id, self.algorithm, self.iteration_bound,
                self.exploration_ratio, self.evaluator, self.seed, self.outcome,
                self.gat, self.velocity, self.total_expansions,
                self.proof_expansions, self.dead_end_reexpansion_ratio,
                self.mean_target_open_rank, self.iterations]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return format(value, ".10g")
    return str(value)


def write_csv(path: str, records: list[RunRecord]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(CSV_COLUMNS) + "\n")
        for rec in records:
            f.write(",".join(_fmt(v) for v in rec.row()) + "\n")


def _instance_id(domain, instance_id: str) -> str:
    return instance_id or getattr(domain, "instance_id", "instance")


def replay_actions(domain, start, actions) -> tuple[Any, bool]:
    """Re-apply an action log against the dynamics; returns (final state,
    entered_dead_end). A dead end is a terminal or successor-free non-goal."""
    state = start
    for action in actions:
        state = apply_action(domain, state, action)
        if domain.is_goal(state):
            continue
        if domain.is_terminal(state) or not domain.successors(state):
            return state, True
    return state, False


def _audit(domain, start, actions) -> tuple[bool, float, float]:
    """Replay an action log; returns (entered_dead_end, GAT, velocity)."""
    final, entered_dead_end = replay_actions(domain, start, actions)
    gat = float(len(actions))
    velocity = domain.travel_distance(start, final) / gat if gat else 0.0
    return entered_dead_end, gat, velocity


def simulate_episode(config: PlannerConfig, domain, start,
                     instance_id: str = "", seed: int = 0,
                     cache_enabled: bool = True,
                     max_iterations: int = 100_000,
                     safe_states: Optional[set] = None) -> tuple[RunRecord, EpisodeResult]:
    """Run one planner episode and audit it into a RunRecord."""
    planning_domain = domain
    if config.algorithm == SAFE_LSS_LRTA:
        if safe_states is None:
            raise ValueError("safe-lss-lrta needs the ground-truth safe set")
        planning_domain = SafeFilteredDomain(domain, safe_states)
    cache = DeadEndCache(enabled=cache_enabled)
    result = run_episode(planning_domain, start, config, cache=cache,
                         max_iterations=max_iterations)
    entered_dead_end, gat, velocity = _audit(domain, start, result.actions)
    total = sum(r.expansions_goal + r.expansions_proof for r in result.reports)
    proof = sum(r.expansions_proof for r in result.reports)
    ranks = [r.target_open_rank for r in result.reports
             if r.target_open_rank is not None]
    record = RunRecord(
        instance_id=_instance_id(domain, instance_id),
        algorithm=config.algorithm,
        iteration_bound=config.iteration_bound,
        exploration_ratio=(config.exploration_ratio
                           if config.algorithm == RTFS else None),
        evaluator=(config.evaluator.name if config.algorithm == RTFS else "astar"),
        seed=seed,
        outcome="dead_end" if entered_dead_end else result.outcome,
        gat=gat,
        velocity=velocity,
        total_expansions=total,
        proof_expansions=proof,
        dead_end_reexpansion_ratio=(cache.dead_reexpansions / total if total else 0.0),
        mean_target_open_rank=(sum(ranks) / len(ranks) if ranks else None),
        iterations=result.iterations,
    )
    return record, result


def simulate_offline_astar(domain, start, instance_id: str = "",
                           seed: int = 0) -> RunRecord:
    """The perfect-agent reference: plan offline, then execute; planning
    effort does not count toward GAT."""
    solved = offline_astar(domain, start)
    instance_id = _instance_id(domain, instance_id)
    if solved is None:
        return RunRecord(instance_id, OFFLINE_ASTAR, 0, None, "astar", seed,
                         "failure", 0.0, 0.0, 0, 0, 0.0, None, 0)
    actions, _cost, expansions = solved
    entered, gat, velocity = _audit(domain, start, actions)
    return RunRecord(instance_id, OFFLINE_ASTAR, 0, None, "astar", seed,
                     "dead_end" if entered else "goal", gat, velocity,
                     expansions, 0, 0.0, None, 0)


# -- experiment grids ---------------------------------------------------------

@dataclass
class ExperimentConfig:
    domain: dict
    algorithms: list[dict]
    bounds: list[int]
    repetitions: int = 1
    config_seed: int = 0
    cache_enabled: bool = True
    max_iterations: int = 100_000
    output: str = "results.csv"

    @staticmethod
    def from_json(path: str) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as f:
            raw = _require(json.load(f), dict, "experiment config")
        return ExperimentConfig(
            domain=raw["domain"],
            algorithms=raw["algorithms"],
            bounds=raw["bounds"],
            repetitions=raw.get("repetitions", 1),
            config_seed=raw.get("configSeed", 0),
            cache_enabled=raw.get("cacheEnabled", True),
            max_iterations=raw.get("maxIterations", 100_000),
            output=raw.get("output", "results.csv"),
        )

    def validate(self) -> None:
        _require(self.algorithms, list, "algorithms")
        _require(self.bounds, list, "bounds")
        _require(self.domain, dict, "domain")
        if not self.algorithms:
            raise ValueError("algorithm grid is empty")
        if not self.bounds:
            raise ValueError("bound grid is empty")
        for bound in self.bounds:
            _require(bound, int, "bounds")
        _require(self.repetitions, int, "repetitions")
        _require(self.config_seed, int, "configSeed")
        _require(self.max_iterations, int, "maxIterations")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        kind = self.domain.get("type")
        if kind == "airspace":
            for key in ("length", "maxAltitude", "pObs", "seeds"):
                if key not in self.domain:
                    raise ValueError(f"airspace domain spec is missing {key!r}")
            _require(self.domain["seeds"], list, "domain.seeds")
        elif kind == "airspace_files":
            for p in _require(self.domain.get("paths", []), list, "domain.paths"):
                if not os.path.exists(p):
                    raise ValueError(f"instance file not found: {p}")
        elif kind == "racetrack":
            path = self.domain.get("path")
            if path != "builtin:right-turn" and not (path and os.path.exists(path)):
                raise ValueError(f"racetrack map not found: {path}")
        else:
            raise ValueError(f"unknown domain type {kind!r}")
        for i, spec in enumerate(self.algorithms):
            _require(spec, dict, f"algorithms[{i}]")
            for bound in self.bounds:
                try:
                    _planner_config(spec, bound)
                except (ValueError, TypeError, AttributeError) as exc:
                    raise ValueError(f"algorithms[{i}] {spec}: {exc}") from None


_EXPECTED = {list: "a list", dict: "an object", int: "an integer"}


def _require(value, kind: type, field: str):
    if not isinstance(value, kind):
        raise ValueError(f"{field} must be {_EXPECTED[kind]}, "
                         f"not {type(value).__name__} {value!r:.40}")
    return value


def _build_instances(config: ExperimentConfig) -> list[tuple[str, Any, Any]]:
    """Materialize (instance_id, domain, start) triples for the grid."""
    spec = config.domain
    kind = spec["type"]
    out = []
    if kind == "airspace":
        for seed in spec["seeds"]:
            inst = airspace.generate(spec["length"], spec["maxAltitude"],
                                     spec["pObs"], seed)
            out.append((inst.instance_id, inst, inst.start))
    elif kind == "airspace_files":
        for path in spec["paths"]:
            inst = airspace.load_instance(path)
            out.append((inst.instance_id, inst, inst.start))
    elif kind == "racetrack":
        path = spec["path"]
        if path == "builtin:right-turn":
            inst = racetrack.right_turn_track()
        else:
            inst = racetrack.load(path)
        count = spec.get("startSamples", len(inst.starts))
        starts = inst.sample_starts(count, spec.get("startSeed", config.config_seed))
        for i, cell in enumerate(starts):
            out.append((f"{inst.instance_id}#start{i}@{cell[0]}-{cell[1]}",
                        inst, inst.start_state(cell)))
    else:
        raise ValueError(f"unknown domain type {kind!r}")
    return out


def _planner_config(spec: dict, bound: int) -> Optional[PlannerConfig]:
    name = spec.get("name")
    if name == OFFLINE_ASTAR:
        return None
    return PlannerConfig(
        algorithm=name,
        iteration_bound=bound,
        exploration_ratio=spec.get("ratio", 0.5),
        evaluator=Evaluator.parse(spec.get("evaluator", "astar")),
        commit_mode=spec.get("commit", "single"),
        allow_budget_carryover=spec.get("carryover", True),
    )


def _run_cell(args) -> RunRecord:
    (run_index, instance_id, domain, start, algo_spec, bound,
     config_seed, cache_enabled, max_iterations, safe_states) = args
    seed = mix64(config_seed ^ run_index)
    try:
        if algo_spec["name"] == OFFLINE_ASTAR:
            return simulate_offline_astar(domain, start, instance_id, seed)
        planner = _planner_config(algo_spec, bound)
        record, _ = simulate_episode(planner, domain, start, instance_id, seed,
                                     cache_enabled=cache_enabled,
                                     max_iterations=max_iterations,
                                     safe_states=safe_states)
        return record
    except Exception as exc:  # a failed run becomes a row, never aborts the grid
        # one write per line: print() sends the newline separately, and the
        # workers of a pool share stderr, so their lines could interleave
        sys.stderr.write(f"rtss: cell {instance_id}/{algo_spec['name']}/{bound} "
                         f"failed: {exc!r}\n")
        sys.stderr.flush()
        return RunRecord(instance_id, algo_spec["name"], bound,
                         algo_spec.get("ratio"), algo_spec.get("evaluator", "astar"),
                         seed, f"error:{type(exc).__name__}", 0.0, 0.0, 0, 0,
                         0.0, None, 0)


def _sweep(args) -> set:
    """Ground-truth safe set of one domain, rooted at all of its grid starts.
    A state reachable from one start has all of its successors reachable from
    it, so the union of roots changes none of the membership tests that a
    safe-lss-lrta episode from that start makes."""
    domain, roots = args
    return true_safe_set(domain, roots=roots)


def run_experiment(config: ExperimentConfig, jobs: int = 1) -> list[RunRecord]:
    """Run the full instance x algorithm x bound x repetition grid and write
    the CSV. Per-run seeds derive from the config seed and the run index, so
    execution order (or parallelism) cannot change any result."""
    config.validate()
    instances = _build_instances(config)
    sweeps: dict[int, tuple[Any, list]] = {}     # id(domain) -> (domain, starts)
    if any(s["name"] == SAFE_LSS_LRTA for s in config.algorithms):
        for _instance_id, domain, start in instances:
            sweeps.setdefault(id(domain), (domain, []))[1].append(start)
    with ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else nullcontext() as pool:
        # the sweeps run as pool tasks, so the parent's instances stay cold
        # and pickle small; only safe-lss-lrta cells carry a safe set
        safe_sets = {}
        if sweeps:
            run = pool.map if pool else map
            safe_sets = dict(zip(sweeps, run(_sweep, sweeps.values())))
        cells = []
        run_index = 0
        for _rep in range(config.repetitions):
            for instance_id, domain, start in instances:
                for algo_spec in config.algorithms:
                    safe = (safe_sets[id(domain)]
                            if algo_spec["name"] == SAFE_LSS_LRTA else None)
                    for bound in config.bounds:
                        cells.append((run_index, instance_id, domain, start,
                                      algo_spec, bound, config.config_seed,
                                      config.cache_enabled, config.max_iterations,
                                      safe))
                        run_index += 1
        if pool:
            # a chunk is pickled in one dumps, so its cells share one copy of
            # a racetrack instance and its successor memo in the worker; cells
            # of other domains share no memo and go out one at a time, which
            # balances their uneven run times across the workers
            chunksize = 1
            if config.domain["type"] == "racetrack":
                chunksize = max(1, len(cells) // (_CHUNKS_PER_JOB * jobs))
            records = list(pool.map(_run_cell, cells, chunksize=chunksize))
        else:
            records = [_run_cell(c) for c in cells]
    if config.output:
        write_csv(config.output, records)
    return records
