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
from itertools import product
from typing import Any, Iterable, Optional

from .domains import airspace, racetrack
from .domains.oracles import true_safe_set
from .planners import (MAX_ITERATIONS, RTFS, SAFE_LSS_LRTA, EpisodeResult,
                       PlannerConfig, SafeFilteredDomain, apply_action,
                       offline_astar, run_episode)
from .rng import mix64
from .safety import DeadEndCache
from .search import Evaluator

OFFLINE_ASTAR = "astar-offline"

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


def write_csv(path: str, columns: Iterable[str], rows: Iterable[Iterable]) -> None:
    """Write a header line and one line per row; None and NaN cells stay
    empty, and floats keep 10 significant digits."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(columns) + "\n")
        for row in rows:
            f.write(",".join(_fmt(v) for v in row) + "\n")


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


def _labels(config: Optional[PlannerConfig]) -> tuple[int, Optional[float], str]:
    """The iterationBound, explorationRatio and evaluator columns of a run's
    row; a config of None is offline A*, which has no bound."""
    if config is None:
        return 0, None, "astar"
    if config.algorithm == RTFS:
        return config.iteration_bound, config.exploration_ratio, config.evaluator.name
    return config.iteration_bound, None, "astar"


def simulate_episode(config: PlannerConfig, domain, start,
                     instance_id: str = "", seed: int = 0,
                     cache_enabled: bool = True,
                     max_iterations: int = MAX_ITERATIONS,
                     safe_states: Optional[set] = None) -> tuple[RunRecord, EpisodeResult]:
    """Run one planner episode and audit it into a RunRecord. Safe-LSS-LRTA*
    plans over safe_states, swept from start when none is given."""
    planning_domain = domain
    if config.algorithm == SAFE_LSS_LRTA:
        if safe_states is None:
            safe_states = true_safe_set(domain, roots=[start])
        planning_domain = SafeFilteredDomain(domain, safe_states)
    cache = DeadEndCache(enabled=cache_enabled)
    result = run_episode(planning_domain, start, config, cache=cache,
                         max_iterations=max_iterations)
    entered_dead_end, gat, velocity = _audit(domain, start, result.actions)
    total = sum(r.expansions_goal + r.expansions_proof for r in result.reports)
    proof = sum(r.expansions_proof for r in result.reports)
    ranks = [r.target_open_rank for r in result.reports
             if r.target_open_rank is not None]
    bound, ratio, evaluator = _labels(config)
    record = RunRecord(
        instance_id=instance_id or domain.instance_id,
        algorithm=config.algorithm,
        iteration_bound=bound,
        exploration_ratio=ratio,
        evaluator=evaluator,
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
    if solved is None:
        outcome, gat, velocity, expansions = "failure", 0.0, 0.0, 0
    else:
        actions, _cost, expansions = solved
        entered, gat, velocity = _audit(domain, start, actions)
        outcome = "dead_end" if entered else "goal"
    return RunRecord(instance_id or domain.instance_id, OFFLINE_ASTAR, *_labels(None),
                     seed, outcome, gat, velocity, expansions, 0, 0.0, None, 0)


# -- experiment grids ---------------------------------------------------------

@dataclass
class ExperimentConfig:
    domain: dict
    algorithms: list[dict]
    bounds: list[int]
    repetitions: int = 1
    config_seed: int = 0
    cache_enabled: bool = True
    max_iterations: int = MAX_ITERATIONS
    output: str = "results.csv"

    @staticmethod
    def from_json(path: str) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as f:
            raw = _require(json.load(f), dict, "experiment config")
        for key in sorted(raw.keys() - _CONFIG_FIELDS.keys()):
            raise ValueError(f"experiment config has unknown key {key!r}")
        for key in ("domain", "algorithms", "bounds"):
            if key not in raw:
                raise ValueError(f"experiment config is missing {key!r}")
        return ExperimentConfig(**{_CONFIG_FIELDS[k]: v for k, v in raw.items()})

    def validate(self) -> None:
        _require(self.algorithms, list, "algorithms")
        _require(self.bounds, list, "bounds")
        domain = _require(self.domain, dict, "domain")
        if not self.algorithms:
            raise ValueError("algorithm grid is empty")
        if not self.bounds:
            raise ValueError("bound grid is empty")
        for bound in self.bounds:
            _at_least_one(bound, "bounds")
        _at_least_one(self.repetitions, "repetitions")
        _require(self.config_seed, int, "configSeed")
        _at_least_one(self.max_iterations, "maxIterations")
        _require(self.cache_enabled, bool, "cacheEnabled")
        _require(self.output, str, "output")
        kind = domain.get("type")
        if not isinstance(kind, str) or kind not in _DOMAIN_KEYS:
            raise ValueError(f"unknown domain type {kind!r}")
        specs = [("domain", domain, _DOMAIN_KEYS[kind])] + [
            (f"algorithms[{i}]", _require(spec, dict, f"algorithms[{i}]"), _SPEC_KEYS)
            for i, spec in enumerate(self.algorithms)]
        for where, spec, (required, optional) in specs:
            for key in sorted(spec.keys() - {"type", *required, *optional}):
                raise ValueError(f"{where} has unknown key {key!r}")
            for key in required:
                if key not in spec:
                    raise ValueError(f"{where} is missing {key!r}")
        if kind == "airspace":
            _at_least_one(domain["length"], "domain.length")
            _at_least_one(domain["maxAltitude"], "domain.maxAltitude")
            if not 0 <= _require(domain["pObs"], (int, float), "domain.pObs") < 1:
                raise ValueError("domain.pObs must lie in [0, 1)")
            if not _require(domain["seeds"], list, "domain.seeds"):
                raise ValueError("domain.seeds is empty")
            for seed in domain["seeds"]:
                _require(seed, int, "domain.seeds")
        elif kind == "airspace_files":
            for p in _require(domain["paths"], list, "domain.paths"):
                if not os.path.exists(_require(p, str, "domain.paths")):
                    raise ValueError(f"instance file not found: {p}")
        else:
            path = _require(domain["path"], str, "domain.path")
            if path != "builtin:right-turn" and not os.path.exists(path):
                raise ValueError(f"racetrack map not found: {path}")
            if "startSamples" in domain:
                _at_least_one(domain["startSamples"], "domain.startSamples")
            if "startSeed" in domain:
                _require(domain["startSeed"], int, "domain.startSeed")
        for i, spec in enumerate(self.algorithms):
            for key, (_field, kind) in _SPEC_FIELDS.items():
                if key in spec:
                    _require(spec[key], kind, f"algorithms[{i}].{key}")
            try:    # every bound passed above, so one of them builds each spec
                planner_config(spec, self.bounds[0])
            except ValueError as exc:
                raise ValueError(f"algorithms[{i}] {spec}: {exc}") from None


# experiment JSON key -> ExperimentConfig field
_CONFIG_FIELDS = {"domain": "domain", "algorithms": "algorithms", "bounds": "bounds",
                  "repetitions": "repetitions", "configSeed": "config_seed",
                  "cacheEnabled": "cache_enabled", "maxIterations": "max_iterations",
                  "output": "output"}
# algorithm spec key -> (PlannerConfig field, JSON type)
_SPEC_FIELDS = {"ratio": ("exploration_ratio", (int, float)), "evaluator": ("evaluator", str),
                "commit": ("commit_mode", str), "carryover": ("allow_budget_carryover", bool)}
# (required, optional) keys of a domain spec of each type, besides "type",
# and of an algorithm spec
_DOMAIN_KEYS = {"airspace": (("length", "maxAltitude", "pObs", "seeds"), ()),
                "airspace_files": (("paths",), ()),
                "racetrack": (("path",), ("startSamples", "startSeed"))}
_SPEC_KEYS = (("name",), tuple(_SPEC_FIELDS))

_EXPECTED = {list: "a list", dict: "an object", int: "an integer", str: "a string",
             bool: "true or false", (int, float): "a number"}


def _require(value, kind, field: str):
    # JSON true and false load as bool, which Python counts as an int
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise ValueError(f"{field} must be {_EXPECTED[kind]}, "
                         f"not {type(value).__name__} {value!r:.40}")
    return value


def _at_least_one(value, field: str) -> None:
    if _require(value, int, field) < 1:
        raise ValueError(f"{field} must be >= 1")


def _build_grid(config: ExperimentConfig) -> tuple[tuple, list[tuple[str, int, Any]]]:
    """Materialize the grid's distinct domains, and an (instance_id, domain
    index, start) triple for each of its instances."""
    spec = config.domain
    kind = spec["type"]
    if kind == "airspace":
        domains = tuple(airspace.generate(spec["length"], spec["maxAltitude"],
                                          spec["pObs"], seed) for seed in spec["seeds"])
    elif kind == "airspace_files":
        domains = tuple(airspace.load_instance(path) for path in spec["paths"])
    else:   # "racetrack": validate admits no other type
        path = spec["path"]
        if path == "builtin:right-turn":
            inst = racetrack.right_turn_track()
        else:
            inst = racetrack.load(path)
        count = spec.get("startSamples", len(inst.starts))
        starts = inst.sample_starts(count, spec.get("startSeed", config.config_seed))
        return (inst,), [(f"{inst.instance_id}#start{i}@{cell[0]}-{cell[1]}", 0,
                          inst.start_state(cell)) for i, cell in enumerate(starts)]
    return domains, [(inst.instance_id, i, inst.start) for i, inst in enumerate(domains)]


def planner_config(spec: dict, bound: int) -> Optional[PlannerConfig]:
    """The planner an algorithm spec names, at one iteration bound; None for
    offline A*. A key the spec leaves out keeps PlannerConfig's default."""
    if spec["name"] == OFFLINE_ASTAR:
        return None
    fields = {field: spec[key] for key, (field, _kind) in _SPEC_FIELDS.items() if key in spec}
    if "evaluator" in fields:
        fields["evaluator"] = Evaluator.parse(fields["evaluator"])
    return PlannerConfig(spec["name"], bound, **fields)


_domains: tuple = ()    # the running grid's distinct domains, named by index


def _hold_domains(domains) -> None:
    """Pool initializer: each worker receives the grid's domains once, so one
    copy of a domain, and of any successor memo it keeps, serves the grid."""
    global _domains
    _domains = domains


def _run_cell(args) -> RunRecord:
    (run_index, instance_id, domain_index, start, algo_spec, bound,
     config_seed, cache_enabled, max_iterations, safe_states) = args
    seed = mix64(config_seed ^ run_index)
    # validate() built every spec and checked every bound, so this cannot raise
    planner = planner_config(algo_spec, bound)
    try:
        domain = _domains[domain_index]
        if planner is None:
            return simulate_offline_astar(domain, start, instance_id, seed)
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
        return RunRecord(instance_id, algo_spec["name"], *_labels(planner), seed,
                         f"error:{type(exc).__name__}", 0.0, 0.0, 0, 0, 0.0, None, 0)


def _sweep(args) -> set:
    """Ground-truth safe set of one domain, rooted at all of its grid starts.
    A state reachable from one start has all of its successors reachable from
    it, so the union of roots changes none of the membership tests that a
    safe-lss-lrta episode from that start makes."""
    domain_index, roots = args
    return true_safe_set(_domains[domain_index], roots=roots)


def run_experiment(config: ExperimentConfig, jobs: int = 1) -> list[RunRecord]:
    """Run the full instance x algorithm x bound x repetition grid and write
    the CSV. Per-run seeds derive from the config seed and the run index, so
    execution order (or parallelism) cannot change any result."""
    if jobs < 1:
        raise ValueError(f"--jobs must be >= 1, not {jobs}")
    config.validate()
    domains, grid = _build_grid(config)
    sweeps: dict[int, list] = {}    # domain index -> its grid starts
    if any(s["name"] == SAFE_LSS_LRTA for s in config.algorithms):
        for _instance_id, d, start in grid:
            sweeps.setdefault(d, []).append(start)
    # cells go out one at a time, which balances their uneven run times
    pool = (ProcessPoolExecutor(max_workers=jobs, initializer=_hold_domains,
                                initargs=(domains,)) if jobs > 1 else nullcontext())
    _hold_domains(domains)
    try:
        with pool:
            run = pool.map if jobs > 1 else map
            # the sweeps run as pool tasks, so the parent's instances stay
            # cold; only safe-lss-lrta cells carry a safe set
            safe_sets = dict(zip(sweeps, run(_sweep, sweeps.items())))
            cells = [(run_index, instance_id, d, start, spec, bound,
                      config.config_seed, config.cache_enabled, config.max_iterations,
                      safe_sets[d] if spec["name"] == SAFE_LSS_LRTA else None)
                     for run_index, (_rep, (instance_id, d, start), spec, bound)
                     in enumerate(product(range(config.repetitions), grid,
                                          config.algorithms, config.bounds))]
            records = list(run(_run_cell, cells))
    finally:
        _hold_domains(())
    if config.output:
        write_csv(config.output, CSV_COLUMNS, (r.row() for r in records))
    return records
