"""Golden results: pinned SHA-256 digests of small seeded experiment grids.

The other grid tests compare a run with itself (serial against parallel,
run against rerun), so a change that alters every result the same way
still passes them. These digests were recorded once and must not move: a
refactor of the planners, the search or the harness that changes any byte
of these CSVs changes behaviour, and has to be argued as such.

To see what moved, run the grid with the same config and diff the CSV
against one written by the commit that recorded the digests.

Three more digests pin the reference grids themselves: each
`experiments/*.json` config, run unchanged at two workers, must write the
CSV bytes that every earlier result was checked against. Each runs once
per session (conftest's `reference_grid`), and the acceptance gate reads
its rows from the same run.

One more digest pins a small `rtss stats` CSV, which only the safety
proofs and successor generation produce, a set pins the obstacle grids
that `airspace.generate` draws for the benchmark's instance sizes, and a
last digest pins the random DAG worlds that the property suites run on.
Two more pin the same layers at benchmark scale: every successor list of
the L2000 episode instance, and the proof statistics of one L10000
instance at the benchmark's sample count.

A CSV row sums a whole episode, so a change can keep every row and still
move work between iterations or change what the dead-end cache learns. A
last set of digests pins a few episodes below the rows: every field of
every iteration report, the outcome, and the final cache counts.
"""
from __future__ import annotations

import hashlib

import pytest

from rtss.cli import main
from rtss.domains.airspace import generate, safety_proof_stats
from rtss.domains.racetrack import right_turn_track
from rtss.domains.synthetic import random_dag
from rtss.harness import ExperimentConfig, run_experiment
from rtss.planners import PlannerConfig, run_episode
from rtss.safety import DeadEndCache
from rtss.search import Evaluator

AIRSPACE = {"type": "airspace", "length": 300, "maxAltitude": 8, "pObs": 0.1,
            "seeds": [1, 2]}
RACETRACK = {"type": "racetrack", "path": "builtin:right-turn",
             "startSamples": 3, "startSeed": 2}

PLANNERS = [{"name": "lss-lrta"}, {"name": "safe-rts"}, {"name": "safe-lss-lrta"}]
PLANNERS += [{"name": "rtfs", "ratio": 0.5, "evaluator": evaluator,
              "carryover": carryover}
             for evaluator in ("astar", "wastar:1.1", "greedy")
             for carryover in (True, False)]

GRIDS = {
    "airspace": (AIRSPACE, PLANNERS, True, [10, 30],
                 "389918ef57ae02b104230da589f9c9babac88749298378292807031bbd3c1daa"),
    "racetrack": (RACETRACK, PLANNERS + [{"name": "safe-rts", "commit": "full"}],
                  True, [10, 30],
                  "c840c9fb4e6619ffc53c843a89cae72d6db574c18a72ac25ea0f3ef31a1998e4"),
    "airspace-cache-off": (AIRSPACE, [{"name": "safe-rts"},
                                      {"name": "rtfs", "evaluator": "wastar:1.1"}],
                           False, [10, 30],
                           "37aba96c4d9c5c5d6f35b4a5392e27771703b0acef4f08e9ca1eb7dfac7825ed"),
    # the benchmark's heaviest config: RTFS under weighted keys at bound 300,
    # ranking open lists of about 130 nodes per decision in an order that
    # differs from f order
    "airspace-L2000-rtfs-wastar": (
        {"type": "airspace", "length": 2000, "maxAltitude": 20, "pObs": 0.05,
         "seeds": [1]},
        [{"name": "rtfs", "ratio": 0.5, "evaluator": "wastar:1.1",
          "carryover": False}],
        True, [300],
        "b9d280d1838151be363f1725f637a304d3ff01807fcdcc778a3e31bbd92569fd"),
}


@pytest.mark.parametrize("grid", list(GRIDS))
def test_grid_csv_matches_its_recorded_digest(grid, tmp_path):
    domain, algorithms, cache_enabled, bounds, digest = GRIDS[grid]
    config = ExperimentConfig(domain=domain, algorithms=algorithms,
                              bounds=bounds, config_seed=7,
                              cache_enabled=cache_enabled, max_iterations=2000,
                              output=str(tmp_path / f"{grid}.csv"))
    records = run_experiment(config)
    assert not any(r.outcome.startswith("error") for r in records)
    with open(config.output, "rb") as f:
        assert hashlib.sha256(f.read()).hexdigest() == digest


# SHA-256 of the CSV each checked-in grid writes at --jobs 2; their md5s are
# 9ab9cf75..., 6d83ea81... and 97a7306a..., in this order
REFERENCE_GRIDS = {
    "airspace-velocity": "38c308c601c7f0cef17f1ab0a2e5ccfd025b746eea37e912369619a22613edb2",
    "racetrack-gat": "b6268c4c7f1c8c601ae6c67e5e86a2f05c1e471ea86ad848a0787ea175141cc5",
    "rtfs-exploration-sweep":
        "679e7ffc05a1910db705e7e34aea06b9072a8139c54ac9c83fee914ecfcd3ef0",
}


@pytest.mark.parametrize("name", list(REFERENCE_GRIDS))
def test_reference_grid_csv_matches_its_recorded_digest(name, reference_grid):
    _records, output = reference_grid(name)
    with open(output, "rb") as f:
        assert hashlib.sha256(f.read()).hexdigest() == REFERENCE_GRIDS[name]


STATS_DIGEST = "8b5dfc9f15621719f531b341ace85dd36b3e46325b2c2e0d4e4bcdbd08f73534"


def test_stats_csv_matches_its_recorded_digest(tmp_path):
    inst = tmp_path / "inst.txt"
    out = tmp_path / "stats.csv"
    assert main(["generate", "--domain", "airspace", "--length", "2000",
                 "--max-altitude", "20", "--p-obs", "0.05", "--seed", "1",
                 "--out", str(inst)]) == 0
    assert main(["stats", "--instance", str(inst), "--samples", "50",
                 "--seed", "1", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == STATS_DIGEST


# SHA-256 of `generate(...).obstacles.tobytes()`: three L10000 instances of
# the proof-statistics pool and one L2000 episode instance
GRID_DIGESTS = {
    (10000, 20, 0.05, 1): "c4f11912d07e83b56551018af191688ef985bf9ce05786c4564aab977b5a4362",
    (10000, 20, 0.05, 17): "6feb3f3b8dd4a6f2c17e10d2451fc0d780adc03eae047235116df23bdd52f623",
    (10000, 20, 0.05, 64): "194f06bb67e5e57ef0eb837256c78e9f5a13d6036d07c8fd5c40d090d91b324e",
    (2000, 20, 0.05, 1): "8a989cd5edd5d4f1fe4ab7655b7742889c06dcad5dbcf69095cfa6fedac370d5",
}


@pytest.mark.parametrize("params", list(GRID_DIGESTS))
def test_generated_obstacle_grid_matches_its_recorded_digest(params):
    obstacles = generate(*params).obstacles
    assert obstacles.dtype == bool
    assert hashlib.sha256(obstacles.tobytes()).hexdigest() == GRID_DIGESTS[params]


# SHA-256 of the instance file text of Airspace L2000 A20 p0.05 seed 1
INSTANCE_TEXT_DIGEST = "b9c2c2f0e03bc242a6ef4df0bb9a72e759cadeea5ff2d0d5b74dcf50df39505b"


def test_instance_text_matches_its_recorded_digest():
    text = generate(2000, 20, 0.05, 1).to_text()
    assert hashlib.sha256(text.encode()).hexdigest() == INSTANCE_TEXT_DIGEST


# SHA-256 over repr(successors((d, a))) of Airspace L2000 A20 p0.05 seed 1,
# d from 0 to the goal line (outer), every altitude (inner)
SUCCESSORS_DIGEST = "f73b4b3b1a2d98dc1fda44c2e5b2c30f98856370c85d77f207a2e8e73ed95553"


def test_airspace_successors_match_their_recorded_digest():
    inst = generate(2000, 20, 0.05, 1)
    digest = hashlib.sha256()
    for d in range(inst.length + 1):
        for a in range(inst.max_altitude + 1):
            digest.update(repr(inst.successors((d, a))).encode())
    assert digest.hexdigest() == SUCCESSORS_DIGEST


# SHA-256 over repr(rows) of the proof statistics of one L10000 instance
# with 500 samples per altitude, as one proof-stats benchmark operation runs
PROOF_STATS_DIGEST = "ea493ae2c52ce90f3fe79f68ed545669f502263e74c98a7f762e9ba070956533"


def test_benchmark_scale_proof_stats_match_their_recorded_digest():
    rows = safety_proof_stats(generate(10000, 20, 0.05, 1), 500, seed=1)
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == PROOF_STATS_DIGEST


# SHA-256 over the edges, goals and safety hints of `random_dag(seed, size)`
# for seeds 0-299 at sizes 20, 60 and 120
DAG_DIGEST = "34fb3e8652ccbd27eb1778772c02d004e4bbaa531ae4100147b47c545c8c07e6"


def test_random_dag_worlds_match_their_recorded_digest():
    digest = hashlib.sha256()
    for seed in range(300):
        for size in (20, 60, 120):
            dag = random_dag(seed, size)
            digest.update(repr((sorted(dag.edges.items()), sorted(dag.goals),
                                sorted(dag.safe_hints))).encode())
    assert digest.hexdigest() == DAG_DIGEST



# the airspace-L2000-rtfs-wastar grid's one cell
WASTAR_CELL = PlannerConfig("rtfs", 300, evaluator=Evaluator.parse("wastar:1.1"),
                            allow_budget_carryover=False)

# episode -> (world, index into the racetrack grid's sampled starts, config,
# SHA-256 over repr((outcome, reports, flags, exhausted marks, avoided and
# dead re-expansions)) of the episode run with the cache on, then off)
ITERATION_EPISODES = {
    "airspace-L2000-rtfs-wastar@300": ("airspace", None, WASTAR_CELL,
        "a214c77d0ca4cb14c695a5e7e03c250ca08ac1cbc508d22c43a6336b4d5b17ca"),
    # RTFS-0's allocator at its heaviest: exhausted proofs prune and re-propagate
    "airspace-L2000-rtfs@300": ("airspace", None, PlannerConfig("rtfs", 300),
        "675ca34b904b7e163e32b45a504fb9d2ee9111ce1c6b20f84d59c08be39ba289"),
    "airspace-L2000-safe-rts@100": ("airspace", None, PlannerConfig("safe-rts", 100),
        "4c3f81b46ae6b7267772333bc4121f30aaf564dcdc799621606adf94f255aa4a"),
    "right-turn-start0-rtfs@30": ("right-turn", 0, PlannerConfig("rtfs", 30),
        "0acd93eb19e140eae2932e5147257ffa4eedd0d51291950efa20cfd03d904765"),
    "right-turn-start0-safe-rts@30": ("right-turn", 0, PlannerConfig("safe-rts", 30),
        "8b87a049b805f77367cf562e3902360ca2e851ca7d20bbf51a8ddf8ebff8ac69"),
    "right-turn-start1-rtfs@30": ("right-turn", 1, PlannerConfig("rtfs", 30),
        "f918b72825aa28e6e76c7eb8f2404536f20123b7ca227b731ec46af84ad4907a"),
    "right-turn-start1-safe-rts@30": ("right-turn", 1, PlannerConfig("safe-rts", 30),
        "ad9f508a2072d75bc9c91ba8820eae87e1a0133609ad56f21fd59d80db7c2335"),
}


@pytest.mark.parametrize("episode", list(ITERATION_EPISODES))
def test_iteration_reports_and_final_cache_match_their_recorded_digest(episode):
    world, start_index, config, expected = ITERATION_EPISODES[episode]
    if world == "airspace":
        domain = generate(2000, 20, 0.05, 1)
        start = domain.start
    else:
        domain = right_turn_track()
        start = domain.start_state(domain.sample_starts(3, 2)[start_index])
    digest = hashlib.sha256()
    for enabled in (True, False):
        cache = DeadEndCache(enabled=enabled)
        result = run_episode(domain, start, config, cache=cache, max_iterations=2000)
        digest.update(repr((result.outcome, result.reports, len(cache.flags),
                            len(cache.exhausted_marks), cache.avoided_reexpansions,
                            cache.dead_reexpansions)).encode())
    assert digest.hexdigest() == expected
