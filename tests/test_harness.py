import gc
import glob
import json
import math
import multiprocessing
import os

import pytest

from conftest import ListDomain, chain_domain
from rtss import harness
from rtss.domains import airspace
from rtss.harness import (CSV_COLUMNS, ExperimentConfig, RunRecord,
                          replay_actions, run_experiment, simulate_episode,
                          simulate_offline_astar, write_csv)
from rtss.planners import PlannerConfig, offline_astar


def test_chain_episode_has_gat_four():
    domain = chain_domain(5)
    record, _ = simulate_episode(PlannerConfig("lss-lrta", 10), domain, 0)
    assert record.outcome == "goal"
    assert record.gat == 4.0
    assert record.iterations == 1


def test_safe_rts_on_clear_airspace_reaches_goal_safely():
    inst = airspace.generate(20, 2, 0.0, 1)
    record, result = simulate_episode(PlannerConfig("safe-rts", 30), inst, inst.start)
    assert record.outcome == "goal"
    final, entered = replay_actions(inst, inst.start, result.actions)
    assert not entered and inst.is_goal(final)


def test_identity_stalemate_hits_the_iteration_guard():
    succ = {f"n{k}": [("fwd", f"n{k+1}", 1.0)] for k in range(500)}
    succ["n500"] = []
    domain = ListDomain(succ, identity={"n0"},
                        h={f"n{k}": 0.0 for k in range(501)})
    record, result = simulate_episode(PlannerConfig("safe-rts", 10), domain, "n0",
                                      max_iterations=25)
    assert record.outcome == "max_iterations"
    assert result.iterations == 25


def test_lss_lrta_walking_into_a_trap_is_recorded_as_dead_end():
    succ = {"r": [("a", "trap", 1.0), ("b", "slow", 2.0)],
            "trap": [("c", "t", 1.0)], "t": [],
            "slow": [("d", "g", 1.0)], "g": []}
    domain = ListDomain(succ, goals={"g"},
                        h={"r": 1.0, "trap": 0.5, "t": 10.0, "slow": 1.0, "g": 0.0})
    record, _ = simulate_episode(PlannerConfig("lss-lrta", 1), domain, "r",
                                 max_iterations=20)
    assert record.outcome == "dead_end"


def test_velocity_times_gat_recovers_distance():
    inst = airspace.generate(50, 3, 0.0, 2)
    record, _ = simulate_episode(PlannerConfig("lss-lrta", 20), inst, inst.start)
    assert record.outcome == "goal"
    assert record.velocity * record.gat == pytest.approx(50.0)


def test_accounting_identity_and_report_sums():
    inst = airspace.generate(200, 6, 0.1, 3)
    record, result = simulate_episode(PlannerConfig("safe-rts", 25), inst, inst.start)
    assert record.total_expansions == sum(r.expansions_goal + r.expansions_proof
                                          for r in result.reports)
    assert record.proof_expansions == sum(r.expansions_proof for r in result.reports)


def test_reexpansion_ratio_zero_without_exhausted_proofs():
    inst = airspace.generate(100, 4, 0.0, 1)
    ratio = simulate_episode(PlannerConfig("safe-rts", 20), inst, inst.start,
                             cache_enabled=False)[0].dead_end_reexpansion_ratio
    assert ratio == 0.0


def test_an_adhoc_safe_lss_lrta_episode_sweeps_with_the_collector_off(monkeypatch):
    # as a grid cell's sweep does: the sweep builds no cycles for it to find
    enabled = []
    sweep = harness.true_safe_set

    def watched(domain, roots):
        enabled.append(gc.isenabled())
        return sweep(domain, roots=roots)

    monkeypatch.setattr(harness, "true_safe_set", watched)
    inst = airspace.generate(60, 4, 0.15, 3)
    assert gc.isenabled()
    simulate_episode(PlannerConfig("safe-lss-lrta", 20), inst, inst.start)
    assert enabled == [False] and gc.isenabled()


def test_offline_astar_record_dominates_realtime_gat():
    for seed in (1, 2, 3):
        inst = airspace.generate(150, 5, 0.1, seed)
        oracle = simulate_offline_astar(inst, inst.start, offline_astar(inst, inst.start))
        assert oracle.outcome == "goal"
        for bound in (10, 40):
            record, _ = simulate_episode(PlannerConfig("safe-rts", bound),
                                         inst, inst.start)
            if record.outcome == "goal":
                assert oracle.gat <= record.gat


def test_offline_astar_without_a_plan_records_a_failure_that_did_no_work():
    # r -> t and no goal anywhere, so the offline search finds no plan
    domain = ListDomain({"r": [("a", "t", 1.0)], "t": []}, name="goalless")
    record = simulate_offline_astar(domain, "r", offline_astar(domain, "r"), seed=7)
    assert record.row() == ["goalless", "astar-offline", 0, None, "astar", 7, "failure",
                            0.0, 0.0, 0, 0, 0.0, None, 0]


def _config(tmp_path, **kw):
    base = dict(domain={"type": "airspace", "length": 60, "maxAltitude": 3,
                        "pObs": 0.1, "seeds": [1, 2, 3, 4, 5]},
                algorithms=[{"name": "lss-lrta"}, {"name": "safe-rts"}],
                bounds=[10, 20, 30],
                repetitions=1,
                config_seed=9,
                output=str(tmp_path / "out.csv"))
    base.update(kw)
    return ExperimentConfig(**base)


def test_the_pool_has_no_more_workers_than_tasks(tmp_path, monkeypatch):
    # a pool forks every worker at its first task; this fake starts none
    workers = []

    class Pool:
        def __init__(self, max_workers, initializer, initargs):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", Pool)
    domain = {"type": "airspace", "length": 30, "maxAltitude": 3, "pObs": 0.1}
    for seeds, algorithms, expected in [([1, 2], [{"name": "lss-lrta"}], [2]),
                                        ([1, 2], [{"name": "lss-lrta"}] * 2, [2, 4]),
                                        ([1], [{"name": "lss-lrta"}], [2, 4])]:
        config = _config(tmp_path, domain={**domain, "seeds": seeds},
                         algorithms=algorithms, repetitions=1)
        records = run_experiment(config, jobs=500)
        assert len(records) == len(seeds) * len(algorithms) * 3
        assert workers == expected     # one task runs without a pool


def test_grid_cardinality(tmp_path):
    config = _config(tmp_path, domain={"type": "airspace", "length": 60,
                                       "maxAltitude": 3, "pObs": 0.1,
                                       "seeds": [1, 2, 3, 4, 5]},
                     bounds=[10, 20, 30])
    records = run_experiment(config)
    assert len(records) == 5 * 2 * 3
    with open(config.output) as f:
        lines = f.read().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 31


@pytest.mark.parametrize("kind", ["bogus", ["airspace"], None])
def test_rejects_an_unknown_domain_type(tmp_path, kind):
    with pytest.raises(ValueError, match="unknown domain type"):
        _config(tmp_path, domain={"type": kind}).validate()


def test_rejects_empty_grids(tmp_path):
    with pytest.raises(ValueError):
        _config(tmp_path, repetitions=0).validate()
    with pytest.raises(ValueError):
        _config(tmp_path, bounds=[]).validate()
    with pytest.raises(ValueError):
        _config(tmp_path, algorithms=[]).validate()


def test_csv_is_byte_identical_across_runs(tmp_path):
    c1 = _config(tmp_path, output=str(tmp_path / "a.csv"))
    c2 = _config(tmp_path, output=str(tmp_path / "b.csv"))
    run_experiment(c1)
    run_experiment(c2)
    assert open(c1.output, "rb").read() == open(c2.output, "rb").read()


EXPERIMENTS = os.path.join(os.path.dirname(__file__), os.pardir, "experiments")


def test_parallel_grid_matches_serial_byte_for_byte(tmp_path, monkeypatch):
    # 30 airspace cells at three workers and the 90 racetrack-gat cells at two
    # go out one task at a time, a task (a chunk of the pool's map) holding
    # one instance and algorithm at every bound, in bound order; cells name
    # their domain by index, and each worker receives the grid's distinct
    # domains once, through the pool initializer, so the cells of one track
    # share an unpickled instance and its successor memo
    initargs, cells = [], []

    class Pool(harness.ProcessPoolExecutor):
        def __init__(self, *args, **kw):
            assert kw["initializer"] is harness._hold_domains
            initargs.append(kw["initargs"])
            super().__init__(*args, **kw)

        def map(self, fn, *iterables, **kw):
            assert fn is harness._run_cell
            width = len(config.bounds)
            assert kw["chunksize"] == width
            grid_cells = list(iterables[0])
            for i in range(0, len(grid_cells), width):
                group = grid_cells[i:i + width]
                assert [c[5] for c in group] == config.bounds
                assert all(c[1:5] == group[0][1:5] for c in group)
            cells.append(grid_cells)
            return super().map(fn, grid_cells, **kw)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", Pool)
    racetrack = ExperimentConfig.from_json(os.path.join(EXPERIMENTS,
                                                        "racetrack-gat.json"))
    cases = [(_config(tmp_path, bounds=[10, 20, 30]), 3), (racetrack, 2)]
    for i, (config, jobs) in enumerate(cases):
        config.output = str(tmp_path / f"serial{i}.csv")
        run_experiment(config, jobs=1)
        serial = open(config.output, "rb").read()
        config.output = str(tmp_path / f"parallel{i}.csv")
        run_experiment(config, jobs=jobs)
        assert open(config.output, "rb").read() == serial
    assert [len(c) for c in cells] == [30, 90]
    for (domains,), grid_cells, distinct in zip(initargs, cells, [5, 1]):
        assert len(domains) == len({d.instance_id for d in domains}) == distinct
        assert all(type(c[2]) is int for c in grid_cells)
        assert {c[2] for c in grid_cells} == set(range(distinct))
        for cell in grid_cells:
            assert cell[1].split("#")[0] == domains[cell[2]].instance_id


def test_parallel_grid_under_spawn_matches_serial(tmp_path, monkeypatch):
    # spawned workers share no memory with the parent: the initializer's
    # pickled domains are all they have, and each fills its own oracle memo
    # (forkserver, the Linux default from Python 3.14, starts workers the
    # same way)
    spawn = multiprocessing.get_context("spawn")

    class Pool(harness.ProcessPoolExecutor):
        def __init__(self, *args, **kw):
            super().__init__(*args, mp_context=spawn, **kw)

    racetrack = ExperimentConfig.from_json(os.path.join(EXPERIMENTS, "racetrack-gat.json"))
    oracle = _config(tmp_path, bounds=[10, 30], **ORACLE_GRIDS["airspace"])
    for config in (racetrack, oracle):
        config.output = str(tmp_path / "serial.csv")
        run_experiment(config, jobs=1)
        serial = open(config.output, "rb").read()
        with monkeypatch.context() as patch:
            patch.setattr(harness, "ProcessPoolExecutor", Pool)
            config.output = str(tmp_path / "spawn.csv")
            run_experiment(config, jobs=2)
        assert open(config.output, "rb").read() == serial


ORACLE_GRIDS = {
    "airspace": dict(domain={"type": "airspace", "length": 200, "maxAltitude": 5,
                             "pObs": 0.1, "seeds": [1, 2]},
                     algorithms=[{"name": "safe-lss-lrta"}, {"name": "astar-offline"}]),
    "racetrack": dict(domain={"type": "racetrack", "path": "builtin:right-turn",
                              "startSamples": 3, "startSeed": 5},
                      algorithms=[{"name": "safe-lss-lrta"}]),
}


@pytest.mark.parametrize("grid", sorted(ORACLE_GRIDS))
def test_oracle_grid_sweeps_each_domain_once_in_the_pool(tmp_path, monkeypatch,
                                                         grid):
    # one ground-truth sweep per domain object and process, rooted at all of
    # its starts: two airspace instances, and one track for the three
    # racetrack starts. At two workers a worker sweeps a domain when its
    # first cell needs it, so the parent sweeps nothing and no worker sweeps
    # a domain twice; only safe-lss-lrta cells carry the roots. The forked
    # workers inherit the counting wrapper and append to one log file.
    log = tmp_path / "sweeps.log"
    sweep = harness.true_safe_set

    def counted(domain, roots):
        with open(log, "a") as f:
            f.write(f"{os.getpid()} {domain.instance_id} {len(roots)}\n")
        return sweep(domain, roots=roots)

    def sweeps():
        lines = log.read_text().splitlines() if log.exists() else []
        log.unlink(missing_ok=True)
        return [(int(pid), domain, int(roots))
                for pid, domain, roots in map(str.split, lines)]

    cells = []
    fork = multiprocessing.get_context("fork")

    class Pool(harness.ProcessPoolExecutor):
        def __init__(self, *args, **kw):
            super().__init__(*args, mp_context=fork, **kw)

        def map(self, fn, *iterables, **kw):
            cells.extend(iterables[0])
            return super().map(fn, *iterables, **kw)

    monkeypatch.setattr(harness, "true_safe_set", counted)
    monkeypatch.setattr(harness, "ProcessPoolExecutor", Pool)
    config = _config(tmp_path, bounds=[10, 30], **ORACLE_GRIDS[grid])
    config.output = str(tmp_path / "serial.csv")
    run_experiment(config, jobs=1)
    assert harness._oracles == {}
    serial_sweeps = sweeps()
    assert [(pid, roots) for pid, _d, roots in serial_sweeps] == (
        [(os.getpid(), 1)] * 2 if grid == "airspace" else [(os.getpid(), 3)])
    domains = {domain: roots for _pid, domain, roots in serial_sweeps}
    assert len(domains) == len(serial_sweeps)
    serial = open(config.output, "rb").read()
    config.output = str(tmp_path / "parallel.csv")
    run_experiment(config, jobs=2)
    assert harness._oracles == {}
    assert open(config.output, "rb").read() == serial
    pool_sweeps = sweeps()
    assert all(pid != os.getpid() for pid, _d, _r in pool_sweeps)
    pairs = [(pid, domain) for pid, domain, _r in pool_sweeps]
    assert len(set(pairs)) == len(pairs)
    assert {domain: roots for _pid, domain, roots in pool_sweeps} == domains
    assert len(cells) == serial.count(b"\n") - 1
    for cell in cells:
        assert (cell[9] is not None) == (cell[4]["name"] == "safe-lss-lrta")
    assert b"error" not in serial and b"dead_end" not in serial


def test_the_oracle_memo_is_empty_after_a_grid_also_after_a_cell_raised(
        tmp_path, capfd, monkeypatch):
    # the parent's memo held both kinds of oracle while the grid ran, and a
    # safe-lss-lrta cell that raised after its sweep leaves none behind
    held = []

    def broken(*_args, **_kw):
        held.append(sorted(key[0] for key in harness._oracles))
        raise RuntimeError("boom")

    config = _config(tmp_path, bounds=[10, 30], **ORACLE_GRIDS["airspace"])
    assert all(r.outcome == "goal" for r in run_experiment(config))
    assert harness._oracles == {}
    monkeypatch.setattr(harness, "simulate_episode", broken)
    records = run_experiment(config)
    assert harness._oracles == {}
    assert held[-1] == ["astar-offline", "safe-lss-lrta", "safe-lss-lrta"]
    assert [r.outcome for r in records] == ["error:RuntimeError"] * 2 + ["goal"] * 2 + (
        ["error:RuntimeError"] * 2 + ["goal"] * 2)
    assert len(capfd.readouterr().err.splitlines()) == 4


def test_checked_in_experiment_grids_validate():
    paths = sorted(glob.glob(os.path.join(EXPERIMENTS, "*.json")))
    assert paths
    for path in paths:
        ExperimentConfig.from_json(path).validate()


@pytest.mark.parametrize("jobs", [1, 2])
def test_failed_cell_reports_its_exception_on_stderr(tmp_path, capfd,
                                                     monkeypatch, jobs):
    # an episode that raises fails its own cell; an offline search that
    # raises fails the cell of every bound that would have executed it
    def broken(*_args, **_kw):
        raise RuntimeError("boom")

    for target, algorithm in (("simulate_episode", "safe-rts"),
                              ("offline_astar", "astar-offline")):
        config = _config(tmp_path, algorithms=[{"name": algorithm}], bounds=[5, 7])
        succeeded = run_experiment(config)
        with monkeypatch.context() as patch:
            patch.setattr(harness, target, broken)
            records = run_experiment(config, jobs=jobs)
        assert all(r.outcome == "error:RuntimeError" for r in records)
        assert [r.row()[:6] for r in records] == [r.row()[:6] for r in succeeded]
        err = capfd.readouterr().err.splitlines()
        expected = [f"rtss: cell {r.instance_id}/{algorithm}/{bound} "
                    "failed: RuntimeError('boom')"
                    for r, bound in zip(records, config.bounds * len(records))]
        assert len(expected) == 10
        assert sorted(err) == sorted(expected)


def test_an_offline_task_searches_once_for_all_of_its_bounds(tmp_path, monkeypatch):
    searches = []
    search = harness.offline_astar

    def counted(domain, start):
        searches.append(domain.instance_id)
        return search(domain, start)

    monkeypatch.setattr(harness, "offline_astar", counted)
    config = _config(tmp_path, algorithms=[{"name": "astar-offline"}],
                     domain={"type": "airspace", "length": 60, "maxAltitude": 3,
                             "pObs": 0.1, "seeds": [1, 2]})
    records = run_experiment(config, jobs=1)
    assert len(searches) == len(set(searches)) == 2
    # each bound still gets its own audited row, which differs only in its seed
    assert len(records) == 6
    for first, *others in (records[:3], records[3:]):
        assert first.outcome == "goal"
        assert {tuple(r.row()[:5] + r.row()[6:]) for r in others} == {
            tuple(first.row()[:5] + first.row()[6:])}
    assert len({r.seed for r in records}) == 6


def test_csv_rows_always_have_the_declared_column_count(tmp_path):
    config = _config(tmp_path,
                     domain={"type": "racetrack", "path": "builtin:right-turn",
                             "startSamples": 3, "startSeed": 1},
                     algorithms=[{"name": "safe-rts"}], bounds=[30])
    run_experiment(config)
    lines = open(config.output).read().splitlines()
    for line in lines:
        assert len(line.split(",")) == len(CSV_COLUMNS), line


def test_config_json_roundtrip(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({
        "domain": {"type": "racetrack", "path": "builtin:right-turn",
                   "startSamples": 2, "startSeed": 4},
        "algorithms": [{"name": "rtfs", "ratio": 0.5, "carryover": False}],
        "bounds": [30],
        "repetitions": 1,
        "configSeed": 5,
        "output": str(tmp_path / "rt.csv"),
    }))
    config = ExperimentConfig.from_json(str(path))
    records = run_experiment(config)
    assert len(records) == 2
    assert all(r.outcome == "goal" for r in records)
    assert all(r.exploration_ratio == 0.5 for r in records)


def test_ground_truth_replay_audits_every_goal_record(tmp_path):
    config = _config(tmp_path)
    records = run_experiment(config)
    assert any(r.outcome == "goal" for r in records)
    for record in records:
        assert not record.outcome.startswith("error")


def test_partial_failure_becomes_a_row(tmp_path):
    # a racetrack map with an immediately boxed start still yields a row
    config = _config(tmp_path, domain={"type": "airspace", "length": 10,
                                       "maxAltitude": 1, "pObs": 0.0,
                                       "seeds": [1]},
                     algorithms=[{"name": "safe-rts"}], bounds=[5])
    records = run_experiment(config)
    assert len(records) == 1


def test_commit_mode_full_flows_through_the_grid(tmp_path):
    config = _config(tmp_path, domain={"type": "airspace", "length": 40,
                                       "maxAltitude": 3, "pObs": 0.0,
                                       "seeds": [1]},
                     algorithms=[{"name": "lss-lrta", "commit": "full"}],
                     bounds=[50])
    records = run_experiment(config)
    # full-path commits with a generous bound solve the corridor in one go
    assert records[0].outcome == "goal" and records[0].iterations == 1


def test_fuzzed_configs_are_run_to_run_deterministic():
    from rtss.rng import SplitMix64
    from rtss.search import Evaluator
    rng = SplitMix64(404)
    evaluators = ("astar", "wastar:1.1", "wastar:3", "greedy")
    for trial in range(12):
        algo = ("lss-lrta", "safe-rts", "rtfs")[rng.randrange(3)]
        config = PlannerConfig(
            algo, 10 + rng.randrange(60),
            exploration_ratio=0.2 + 0.6 * rng.uniform(),
            evaluator=Evaluator.parse(evaluators[rng.randrange(4)]),
            allow_budget_carryover=bool(rng.randrange(2)))
        inst = airspace.generate(150 + rng.randrange(150), 4 + rng.randrange(5),
                                 0.05 + 0.1 * rng.uniform(), rng.u64())
        cache_on = bool(rng.randrange(2))
        runs = [simulate_episode(config, inst, inst.start, seed=trial,
                                 cache_enabled=cache_on, max_iterations=400)[0]
                for _ in range(2)]
        assert runs[0] == runs[1]


def test_safe_lss_grid_on_racetrack_builds_its_own_oracle(tmp_path):
    config = _config(tmp_path,
                     domain={"type": "racetrack", "path": "builtin:right-turn",
                             "startSamples": 2, "startSeed": 3},
                     algorithms=[{"name": "safe-lss-lrta"}], bounds=[50])
    records = run_experiment(config)
    assert len(records) == 2
    assert all(r.outcome == "goal" for r in records)


def test_offline_astar_rows_join_the_grid(tmp_path):
    config = _config(tmp_path, algorithms=[{"name": "astar-offline"}],
                     bounds=[1],
                     domain={"type": "airspace", "length": 60, "maxAltitude": 3,
                             "pObs": 0.1, "seeds": [1, 2]})
    records = run_experiment(config)
    assert len(records) == 2
    assert all(r.algorithm == "astar-offline" and r.outcome == "goal"
               for r in records)


def test_airspace_files_grid_matches_the_generated_grid(tmp_path):
    paths = []
    for seed in (1, 2):
        path = tmp_path / f"inst{seed}.txt"
        airspace.write_instance(airspace.generate(60, 3, 0.1, seed), str(path))
        paths.append(str(path))
    generated = _config(tmp_path, output=str(tmp_path / "generated.csv"),
                        domain={"type": "airspace", "length": 60, "maxAltitude": 3,
                                "pObs": 0.1, "seeds": [1, 2]})
    loaded = _config(tmp_path, output=str(tmp_path / "loaded.csv"),
                     domain={"type": "airspace_files", "paths": paths})
    run_experiment(generated)
    run_experiment(loaded)
    expected = open(generated.output, "rb").read()
    assert expected.count(b"\n") == 1 + 2 * 2 * 3
    assert open(loaded.output, "rb").read() == expected


def test_racetrack_map_file_grid_matches_the_builtin_track(tmp_path, monkeypatch):
    from rtss.domains.racetrack import RIGHT_TURN_TRACK
    map_path = tmp_path / "track.txt"
    map_path.write_text(RIGHT_TURN_TRACK)
    # the same map in another directory, named by a relative path
    (tmp_path / "b").mkdir()
    (tmp_path / "b" / "track.txt").write_text(RIGHT_TURN_TRACK)
    monkeypatch.chdir(tmp_path)
    outputs = []
    for path in ("builtin:right-turn", str(map_path), os.path.join(".", "b", "track.txt")):
        config = _config(tmp_path, output=str(tmp_path / f"{len(outputs)}.csv"),
                         domain={"type": "racetrack", "path": path,
                                 "startSamples": 3, "startSeed": 2},
                         bounds=[20])
        run_experiment(config)
        outputs.append(open(config.output, "rb").read())
    builtin, from_file, from_elsewhere = outputs
    assert builtin.count(b"right-turn#start") == 3 * 2
    # a loaded map is named after its file's base name, wherever it lives
    assert from_file.replace(b"track.txt#start", b"right-turn#start") == builtin
    assert from_elsewhere == from_file


def test_error_rows_carry_the_labels_of_their_success_rows(tmp_path, monkeypatch):
    # the labels a failed cell records come from the parsed planner config,
    # not from the raw spec: safe-rts ignores ratio and evaluator, rtfs
    # names its evaluator canonically, and offline A* has no bound
    config = _config(tmp_path, bounds=[30], domain={
        "type": "airspace", "length": 60, "maxAltitude": 3, "pObs": 0.1,
        "seeds": [1]}, algorithms=[
            {"name": "safe-rts", "ratio": 0.3, "evaluator": "greedy"},
            {"name": "rtfs", "ratio": 0.3, "evaluator": "wastar:1.10"},
            {"name": "rtfs", "evaluator": "greedy", "carryover": False},
            {"name": "safe-lss-lrta"}, {"name": "astar-offline"}])
    succeeded = run_experiment(config)

    def broken(*_args, **_kw):
        raise RuntimeError("boom")

    monkeypatch.setattr(harness, "simulate_episode", broken)
    monkeypatch.setattr(harness, "simulate_offline_astar", broken)
    failed = run_experiment(config)
    assert [r.outcome for r in failed] == ["error:RuntimeError"] * 5
    assert [r.row()[:6] for r in failed] == [r.row()[:6] for r in succeeded]
    assert [r.row()[2:5] for r in failed] == [
        [30, None, "astar"], [30, 0.3, "wastar:1.1"], [30, 0.5, "greedy"],
        [30, None, "astar"], [0, None, "astar"]]
    # an error row measured nothing, so it reads RunRecord's no-work values
    assert {tuple(r.row()[7:]) for r in failed} == {(0.0, 0.0, 0, 0, 0.0, None, 0)}
