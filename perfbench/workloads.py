"""The benchmark's workloads: inputs made from the seed, operations, checks.

Every input is drawn from a fixed pool of instance seeds, and the result of
every operation in the pool is recorded in `reference.json`, so each run
checks each result it produces against the recorded one. The run seed only
picks and orders pool entries; rtss receives the generated instances and
configs, never the run seed.

The reasons for each workload, and the layers each one exercises or
bypasses, are recorded in `workloads.json` beside this file.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
import re
from dataclasses import astuple, dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

POOL = tuple(range(1, 65))       # instance seeds with recorded references
SAFE_ALGORITHMS = ("safe-rts", "rtfs", "safe-lss-lrta")

# Each workload's `tail_exponent` is the power of the operation's CPU-time
# speed factor (speed.py) by which its 99th-percentile step time is scaled;
# the median is scaled by the factor itself. The speed kernel stays in the
# core's own caches. Where the long steps of the tail walk a working set of
# tens of MB (on airspace-episodes, RTFS decisions at bound 300 and garbage
# collections; an episode's heap peaks near 22 MB), it lives in the cache
# the host shares with other machines, and such steps slow down less than
# the kernel when the machine's speed swings; scaled by the full factor,
# their percentile spread more between runs than left as measured.
# Measured on a 2-core Xeon VM by regressing the log of
# each run's raw 99th percentile on the log of its mean factor:
# airspace-episodes -0.52 (36 runs, correlation -0.81), grid-jobs2 -0.56
# (8 runs, -0.89), proof-stats -1.07 (9 runs, -0.96); the median went as
# -0.87 to -1.02 on all three.


def digest(row) -> str:
    """Exact digest of one result row; floats enter with all their digits."""
    return hashlib.sha256(repr(tuple(row)).encode()).hexdigest()[:16]


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as f:
        return json.load(f)


@dataclass
class Outcome:
    """What one operation produced. A row is the unit counted as attempted."""

    rows: list = field(default_factory=list)      # (key, digest, expansions)
    failures: list = field(default_factory=list)  # (key, reason)
    expansions: int = 0
    proofs: int = 0                               # counted by the workload, if it can


def check(outcome: Outcome, reference: dict) -> None:
    """Compare every row with its recorded reference; mismatches fail."""
    failed = {key for key, _ in outcome.failures}
    for key, row_digest, expansions in outcome.rows:
        if key in failed:
            continue
        ref = reference.get(key)
        if ref is None:
            outcome.failures.append((key, "no recorded reference"))
        elif ref != [row_digest, expansions]:
            outcome.failures.append(
                (key, f"result {row_digest}/{expansions} != reference {ref[0]}/{ref[1]}"))


def _shuffled_pool(seed: int) -> list:
    pool = list(POOL)
    random.Random(seed).shuffle(pool)
    return pool


class AirspaceEpisodes:
    """simulate_episode in-process: SafeRTS, RTFS-0 astar, RTFS-0 wastar:1.1
    at bounds 100 and 300 on Airspace L2000 A20 p0.05."""

    name = "airspace-episodes"
    latency_target = "iteration_step"
    tail_exponent = 0.5
    LENGTH, ALTITUDE, P_OBS = 2000, 20, 0.05
    PLANNERS = (("safe-rts", "astar"), ("rtfs", "astar"), ("rtfs", "wastar:1.1"))
    BOUNDS = (100, 300)

    def configs(self, rt) -> list:
        out = []
        for bound in self.BOUNDS:
            for algorithm, evaluator in self.PLANNERS:
                out.append(rt.planners.PlannerConfig(
                    algorithm=algorithm, iteration_bound=bound,
                    exploration_ratio=0.5,
                    evaluator=rt.search.Evaluator.parse(evaluator),
                    allow_budget_carryover=False))
        return out

    INSTANCES = POOL[:8]     # the instances every config runs in each cycle
    CYCLES = 4               # cycles of blocks built per run, more than one run uses

    def build(self, rt, seed: int) -> list:
        """One operation is a block of six episodes, one per config, each on
        another instance. A cycle is len(INSTANCES) blocks, in which every
        config runs every one of INSTANCES once; the seed orders the blocks
        of a cycle, and every cycle repeats that order. A run covers about
        one cycle, so every run does the same mix of work and runs differ
        in order, not in the instances drawn: the iteration-time tail comes
        mostly from the RTFS episodes at bound 300, whose share of slow
        decisions differs several times over from instance to instance, so
        drawing eight of the 64 pool instances per run spread it by about
        6% between seeds on its own. Every episode gets an instance object
        of its own."""
        configs = self.configs(rt)
        order = list(range(len(self.INSTANCES)))
        random.Random(seed).shuffle(order)
        blocks = []
        for _cycle in range(self.CYCLES):
            for k in order:
                block = []
                for c, config in enumerate(configs):
                    inst_seed = self.INSTANCES[(k + c) % len(self.INSTANCES)]
                    block.append((inst_seed, rt.airspace.generate(
                        self.LENGTH, self.ALTITUDE, self.P_OBS, inst_seed), config))
                blocks.append(block)
        return blocks

    @staticmethod
    def key(inst_seed: int, config) -> str:
        return (f"s{inst_seed}/{config.algorithm}/{config.iteration_bound}/"
                f"{config.evaluator.name}")

    def run(self, rt, op, probe) -> Outcome:
        out = Outcome()
        for inst_seed, inst, config in op:
            key = self.key(inst_seed, config)
            probe.label = key
            record, _result = rt.harness.simulate_episode(config, inst, inst.start,
                                                          seed=inst_seed)
            out.rows.append((key, digest(record.row()), record.total_expansions))
            out.expansions += record.total_expansions
            if record.outcome != "goal":
                out.failures.append((key, f"outcome {record.outcome}"))
        return out


class ProofStats:
    """airspace.safety_proof_stats on L10000 A20 p0.05: the `rtss stats` path."""

    name = "proof-stats"
    latency_target = "prove_safety"
    tail_exponent = 1.0
    LENGTH, ALTITUDE, P_OBS = 10000, 20, 0.05
    SAMPLES = 500            # per altitude; 18 altitudes (3..20) per operation

    def build(self, rt, seed: int) -> list:
        return [(inst_seed, rt.airspace.generate(self.LENGTH, self.ALTITUDE,
                                                 self.P_OBS, inst_seed))
                for inst_seed in _shuffled_pool(seed)]

    def run(self, rt, op, probe) -> Outcome:
        inst_seed, inst = op
        out = Outcome()
        rows = rt.airspace.safety_proof_stats(inst, self.SAMPLES, seed=inst_seed)
        for row in rows:
            key = f"s{inst_seed}/a{row.altitude}"
            proven = round(row.safety_probability * row.samples)
            expansions = 0
            if proven:
                expansions += round(proven * row.mean_successful_proof_expansions)
            if row.samples - proven:
                expansions += round((row.samples - proven)
                                    * row.mean_failed_proof_expansions)
            out.rows.append((key, digest(astuple(row)), expansions))
            out.expansions += expansions
            out.proofs += row.samples
            if row.samples != self.SAMPLES:
                out.failures.append((key, f"{row.samples} samples, not {self.SAMPLES}"))
        return out


class GridJobs2:
    """harness.run_experiment(jobs=2) over an Airspace oracle grid and the
    built-in right-turn racetrack grid; one operation is one round of both."""

    name = "grid-jobs2"
    latency_target = "iteration_step"
    tail_exponent = 0.5
    JOBS = 2
    ORACLE_INSTANCES = 2       # per round
    LENGTH, ALTITUDE, P_OBS = 2000, 20, 0.05
    ORACLE_BOUNDS = [100, 300]
    RACE_BOUNDS = [10, 20, 30, 50, 100, 300]
    RACE_ALGORITHMS = [{"name": "lss-lrta"}, {"name": "safe-rts"},
                       {"name": "rtfs", "ratio": 0.5, "evaluator": "astar",
                        "carryover": False}]
    RACE_STARTS = 15           # every start cell of the built-in track

    def build(self, rt, seed: int) -> list:
        rng = random.Random(seed)
        pool = _shuffled_pool(seed)
        rounds = []
        for i in range(0, len(pool) - self.ORACLE_INSTANCES + 1, self.ORACLE_INSTANCES):
            oracle = rt.harness.ExperimentConfig(
                domain={"type": "airspace", "length": self.LENGTH,
                        "maxAltitude": self.ALTITUDE, "pObs": self.P_OBS,
                        "seeds": pool[i:i + self.ORACLE_INSTANCES]},
                algorithms=[{"name": "safe-lss-lrta"}, {"name": "astar-offline"}],
                bounds=list(self.ORACLE_BOUNDS), config_seed=rng.randrange(1 << 32),
                output="")
            race = rt.harness.ExperimentConfig(
                domain={"type": "racetrack", "path": "builtin:right-turn",
                        "startSamples": self.RACE_STARTS,
                        "startSeed": rng.randrange(1 << 32)},
                algorithms=[dict(a) for a in self.RACE_ALGORITHMS],
                bounds=list(self.RACE_BOUNDS), config_seed=rng.randrange(1 << 32),
                output="")
            rounds.append((oracle, race))
        return rounds

    @staticmethod
    def key(record) -> tuple[str, list]:
        """Reference key and row of a grid record. The seed column and the
        racetrack start index follow the cell order, which the run seed
        shuffles, so they are left out; the start cell itself stays."""
        instance = re.sub(r"#start\d+@", "@", record.instance_id)
        row = record.row()
        row[0] = instance
        del row[5]
        key = (f"{instance}/{record.algorithm}/{record.iteration_bound}/"
               f"{record.evaluator}/{record.exploration_ratio}")
        return key, row

    def run(self, rt, op, probe) -> Outcome:
        out = Outcome()
        for config in op:
            records = probe.run_grid(rt.harness.run_experiment, config, self.JOBS)
            for record in records:
                key, row = self.key(record)
                out.rows.append((key, digest(row), record.total_expansions))
                out.expansions += record.total_expansions
                if record.outcome.startswith("error:"):
                    out.failures.append((key, f"outcome {record.outcome}"))
                elif (record.outcome == "dead_end"
                      and record.algorithm in SAFE_ALGORITHMS):
                    out.failures.append((key, "entered a dead end"))
        return out


WORKLOADS = {w.name: w for w in (AirspaceEpisodes(), ProofStats(), GridJobs2())}
