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
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, fields
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

@dataclass
class RunRecord:
    instance_id: str
    algorithm: str
    iteration_bound: int
    exploration_ratio: Optional[float]
    evaluator: str
    seed: int
    outcome: str
    # what the run measured; the defaults are a run that did no work
    gat: float = 0.0
    velocity: float = 0.0
    total_expansions: int = 0
    proof_expansions: int = 0
    dead_end_reexpansion_ratio: float = 0.0
    mean_target_open_rank: Optional[float] = None
    iterations: int = 0

    def row(self) -> list:
        return [getattr(self, f.name) for f in fields(self)]


def columns(record_type) -> tuple[str, ...]:
    """The CSV header of a record dataclass: its field names in camelCase."""
    return tuple(re.sub(r"_([a-z])", lambda m: m[1].upper(), f.name)
                 for f in fields(record_type))


CSV_COLUMNS = columns(RunRecord)


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


def check_output_dir(path: str, name: str) -> None:
    """Fail before any work when an output path is a directory, or its
    directory does not exist."""
    if os.path.isdir(path):
        raise ValueError(f"{name} {path!r} is a directory, not a file path")
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise ValueError(f"{name} {path!r}: directory {directory!r} does not exist")


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
    """The iteration bound, exploration ratio and evaluator of a run's
    record; a config of None is offline A*, which has no bound."""
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
    record = RunRecord(
        instance_id or domain.instance_id, config.algorithm, *_labels(config), seed,
        "dead_end" if entered_dead_end else result.outcome,
        gat=gat, velocity=velocity, total_expansions=total, proof_expansions=proof,
        dead_end_reexpansion_ratio=(cache.dead_reexpansions / total if total else 0.0),
        mean_target_open_rank=(sum(ranks) / len(ranks) if ranks else None),
        iterations=result.iterations)
    return record, result


def simulate_offline_astar(domain, start, instance_id: str = "",
                           seed: int = 0) -> RunRecord:
    """The perfect-agent reference: plan offline, then execute; planning
    effort does not count toward GAT."""
    instance_id = instance_id or domain.instance_id
    solved = offline_astar(domain, start)
    if solved is None:
        return RunRecord(instance_id, OFFLINE_ASTAR, *_labels(None), seed, "failure")
    actions, _cost, expansions = solved
    entered, gat, velocity = _audit(domain, start, actions)
    return RunRecord(instance_id, OFFLINE_ASTAR, *_labels(None), seed,
                     "dead_end" if entered else "goal", gat, velocity, expansions)


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
        _check_keys(raw, _CONFIG_KEYS, "experiment config", "")
        return ExperimentConfig(**{_CONFIG_KEYS[k][0]: v for k, v in raw.items()})

    def validate(self) -> None:
        _check_keys({key: getattr(self, field) for key, (field, _kind, _required)
                     in _CONFIG_KEYS.items()}, _CONFIG_KEYS, "experiment config", "")
        for bound in self.bounds:
            _require(bound, COUNT, "bounds")
        if self.output:     # an empty output writes no CSV
            check_output_dir(self.output, "output")
        domain = self.domain
        kind = domain.get("type")
        if not isinstance(kind, str) or kind not in _DOMAIN_KEYS:
            raise ValueError(f"unknown domain type {kind!r}")
        _check_keys(domain, {"type": (None, str, True), **_DOMAIN_KEYS[kind]},
                    "domain", "domain.")
        if kind == "airspace":
            if not 0 <= domain["pObs"] < 1:
                raise ValueError("domain.pObs must lie in [0, 1)")
            for seed in domain["seeds"]:
                _require(seed, int, "domain.seeds")
        elif kind == "airspace_files":
            for p in domain["paths"]:
                if not os.path.exists(_require(p, str, "domain.paths")):
                    raise ValueError(f"instance file not found: {p}")
        elif domain["path"] != "builtin:right-turn" and not os.path.exists(domain["path"]):
            raise ValueError(f"racetrack map not found: {domain['path']}")
        for i, spec in enumerate(self.algorithms):
            where = f"algorithms[{i}]"
            _check_keys(_require(spec, dict, where), _SPEC_KEYS, where, f"{where}.")
            try:    # every bound passed above, so one of them builds each spec
                planner_config(spec, self.bounds[0])
            except ValueError as exc:
                raise ValueError(f"{where} {spec}: {exc}") from None


# The JSON types of the key tables, besides Python's own: NUMBER is an
# integer or a float, COUNT an integer >= 1 and ITEMS a non-empty list.
NUMBER, COUNT, ITEMS = (int, float), "count", "items"
# JSON key -> (the field it sets, its JSON type, whether it is required), of
# an experiment config's top level, of an algorithm spec (whose fields are
# PlannerConfig's) and of a domain spec of each type besides its "type"; a
# domain spec stays a dict, so its keys set no field
_CONFIG_KEYS = {"domain": ("domain", dict, True), "algorithms": ("algorithms", ITEMS, True),
                "bounds": ("bounds", ITEMS, True),
                "repetitions": ("repetitions", COUNT, False),
                "configSeed": ("config_seed", int, False),
                "cacheEnabled": ("cache_enabled", bool, False),
                "maxIterations": ("max_iterations", COUNT, False),
                "output": ("output", str, False)}
_SPEC_KEYS = {"name": ("algorithm", str, True), "ratio": ("exploration_ratio", NUMBER, False),
              "evaluator": ("evaluator", str, False), "commit": ("commit_mode", str, False),
              "carryover": ("allow_budget_carryover", bool, False)}
_DOMAIN_KEYS = {"airspace": {"length": (None, COUNT, True), "maxAltitude": (None, COUNT, True),
                             "pObs": (None, NUMBER, True), "seeds": (None, ITEMS, True)},
                "airspace_files": {"paths": (None, ITEMS, True)},
                "racetrack": {"path": (None, str, True), "startSamples": (None, COUNT, False),
                              "startSeed": (None, int, False)}}

_EXPECTED = {list: "a list", dict: "an object", int: "an integer", str: "a string",
             bool: "true or false", NUMBER: "a number"}


def _require(value, kind, field: str):
    if kind == COUNT:
        if _require(value, int, field) < 1:
            raise ValueError(f"{field} must be >= 1")
    elif kind == ITEMS:
        if not _require(value, list, field):
            raise ValueError(f"{field} is empty")
    # JSON true and false load as bool, which Python counts as an int
    elif not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise ValueError(f"{field} must be {_EXPECTED[kind]}, "
                         f"not {type(value).__name__} {value!r:.40}")
    return value


def _check_keys(obj: dict, table: dict, where: str, prefix: str) -> None:
    """Check an object against its key table: no unknown key, no missing
    required key, and each key present of its type, named prefix + key."""
    for key in sorted(obj.keys() - table.keys()):
        raise ValueError(f"{where} has unknown key {key!r}")
    for key, (_field, kind, required) in table.items():
        if key in obj:
            _require(obj[key], kind, prefix + key)
        elif required:
            raise ValueError(f"{where} is missing {key!r}")


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
    given = {field: spec[key] for key, (field, _kind, _required) in _SPEC_KEYS.items()
             if key in spec}
    if "evaluator" in given:
        given["evaluator"] = Evaluator.parse(given["evaluator"])
    return PlannerConfig(iteration_bound=bound, **given)


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
                         f"error:{type(exc).__name__}")


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
