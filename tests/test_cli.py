import os

import pytest

from rtss import harness
from rtss.cli import main
from rtss.domains import airspace, racetrack
from rtss.domains.oracles import true_safe_set
from rtss.harness import CSV_COLUMNS, simulate_episode, write_csv
from rtss.planners import PlannerConfig


def run_cli(*argv):
    return main(list(argv))


def test_generate_and_reload(tmp_path):
    out = tmp_path / "inst.txt"
    code = run_cli("generate", "--domain", "airspace", "--length", "30",
                   "--max-altitude", "4", "--p-obs", "0.2", "--seed", "5",
                   "--out", str(out))
    assert code == 0
    inst = airspace.load_instance(str(out))
    assert inst.length == 30 and inst.seed == 5
    regenerated = airspace.generate(30, 4, 0.2, 5)
    assert regenerated.to_text() == inst.to_text()


def test_adhoc_run_reaches_goal(tmp_path, capsys):
    inst_path = tmp_path / "inst.txt"
    run_cli("generate", "--domain", "airspace", "--length", "40",
            "--max-altitude", "3", "--p-obs", "0.05", "--seed", "2",
            "--out", str(inst_path))
    csv_path = tmp_path / "run.csv"
    code = run_cli("run", "--domain", str(inst_path), "--algorithm", "safe-rts",
                   "--bound", "20", "--out", str(csv_path))
    assert code == 0
    out = capsys.readouterr().out
    assert "outcome=goal" in out
    header, *rows = csv_path.read_text().splitlines()
    assert header.split(",") == list(CSV_COLUMNS)
    assert len(rows) == 1 and len(rows[0].split(",")) == len(CSV_COLUMNS)


def test_adhoc_run_on_racetrack_map(tmp_path):
    map_path = tmp_path / "track.txt"
    map_path.write_text(racetrack.RIGHT_TURN_TRACK)
    code = run_cli("run", "--domain", str(map_path), "--algorithm", "rtfs",
                   "--bound", "50", "--ratio", "0.5")
    assert code == 0


def test_ratio_of_one_is_a_usage_error(tmp_path, capsys):
    map_path = tmp_path / "track.txt"
    map_path.write_text(racetrack.RIGHT_TURN_TRACK)
    code = run_cli("run", "--domain", str(map_path), "--algorithm", "rtfs",
                   "--bound", "50", "--ratio", "1.0")
    assert code == 2
    assert "--ratio" in capsys.readouterr().err


@pytest.mark.parametrize("evaluator", ["wastar:x", "dsafe", "wastar:0.5", "wastar:nan",
                                       "wastar:inf"])
def test_bad_evaluator_exits_two_naming_it(tmp_path, capsys, evaluator):
    map_path = tmp_path / "track.txt"
    map_path.write_text(racetrack.RIGHT_TURN_TRACK)
    code = run_cli("run", "--domain", str(map_path), "--algorithm", "rtfs",
                   "--bound", "50", "--evaluator", evaluator)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(evaluator) in err


def test_adhoc_safe_lss_lrta_run_sweeps_from_its_start(tmp_path):
    inst = airspace.generate(60, 4, 0.15, 3)
    inst_path = tmp_path / "inst.txt"
    airspace.write_instance(inst, str(inst_path))
    csv_path = tmp_path / "run.csv"
    code = run_cli("run", "--domain", str(inst_path), "--algorithm", "safe-lss-lrta",
                   "--bound", "20", "--seed", "4", "--out", str(csv_path))
    record, _ = simulate_episode(PlannerConfig("safe-lss-lrta", 20), inst, inst.start,
                                 seed=4, safe_states=true_safe_set(inst, roots=[inst.start]))
    assert code == (0 if record.outcome == "goal" else 1)
    expected = tmp_path / "expected.csv"
    write_csv(str(expected), CSV_COLUMNS, [record.row()])
    assert csv_path.read_text() == expected.read_text()


@pytest.mark.parametrize("bound", ["0", "-3"])
def test_bound_below_one_exits_two_naming_the_bound(tmp_path, capsys, bound):
    map_path = tmp_path / "track.txt"
    map_path.write_text(racetrack.RIGHT_TURN_TRACK)
    code = run_cli("run", "--domain", str(map_path), "--algorithm", "safe-rts",
                   "--bound", bound)
    assert code == 2
    err = capsys.readouterr().err
    assert "iteration_bound must be >= 1" in err and "--bound" in err


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_jobs_below_one_exits_two(tmp_path, capsys, jobs):
    config = os.path.join(os.path.dirname(__file__), os.pardir, "experiments",
                          "racetrack-gat.json")
    code = run_cli("run", "--config", config, "--jobs", jobs,
                   "--out", str(tmp_path / "out.csv"))
    assert code == 2
    assert "--jobs must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("max_iterations", ["0", "-3"])
def test_max_iterations_below_one_exits_two_naming_the_flag(tmp_path, capsys,
                                                            max_iterations):
    map_path = tmp_path / "track.txt"
    map_path.write_text(racetrack.RIGHT_TURN_TRACK)
    code = run_cli("run", "--domain", str(map_path), "--algorithm", "safe-rts",
                   "--bound", "10", "--max-iterations", max_iterations)
    assert code == 2
    assert "--max-iterations must be >= 1" in capsys.readouterr().err


_NO_START_TRACK = ("racetrack v1\n"
                   "width 4 height 3\n"
                   "####\n"
                   "#.*#\n"
                   "####\n")


def test_racetrack_map_without_a_start_exits_two(tmp_path, capsys):
    map_path = tmp_path / "track.txt"
    map_path.write_text(_NO_START_TRACK)
    code = run_cli("run", "--domain", str(map_path), "--algorithm", "safe-rts",
                   "--bound", "10")
    assert code == 2
    assert capsys.readouterr().err == "error: map has no start cells\n"


def test_grid_on_a_racetrack_map_without_a_start_exits_two(tmp_path, capsys):
    import json
    map_path = tmp_path / "track.txt"
    map_path.write_text(_NO_START_TRACK)
    out = tmp_path / "out.csv"
    config_path = tmp_path / "grid.json"
    config_path.write_text(json.dumps({
        "domain": {"type": "racetrack", "path": str(map_path)},
        "algorithms": [{"name": "safe-rts"}], "bounds": [10], "output": str(out)}))
    assert run_cli("run", "--config", str(config_path)) == 2
    assert capsys.readouterr().err == "error: map has no start cells\n"
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    ("airspace v1\nlength 4 maxAltitude 2 pObs 0.1 seed 1 lenght 9\n....\n",
     "error: malformed airspace header: unknown key 'lenght'"),
    ("airspace v1\nlength 9 maxAltitude 2 pObs 0.1 seed 1 length 4\n....\n",
     "error: malformed airspace header: repeated key 'length'"),
    ("racetrack v1\nwidth 3 height 3 start 1\n###\n#@#\n#*#\n",
     "error: malformed racetrack header: unknown key 'start'"),
    ("racetrack v1\nwidth 3 height -2\n",
     "error: racetrack header 'width 3 height -2': height must be >= 1"),
    ("racetrack v1\nwidth -3 height 1\n###\n",
     "error: racetrack header 'width -3 height 1': width must be >= 1"),
], ids=["airspace-unknown-key", "airspace-repeated-key", "racetrack-unknown-key",
        "racetrack-height-negative", "racetrack-width-negative"])
def test_bad_instance_header_exits_two_naming_it(tmp_path, capsys, text, message):
    path = tmp_path / "inst.txt"
    path.write_text(text)
    code = run_cli("run", "--domain", str(path), "--algorithm", "safe-rts",
                   "--bound", "10")
    assert code == 2
    assert capsys.readouterr().err == message + "\n"


@pytest.mark.parametrize("head", ["airspace v1", "racetrack v1"])
def test_one_line_instance_file_exits_two(tmp_path, capsys, head):
    path = tmp_path / "short.txt"
    path.write_text(head + "\n")
    code = run_cli("run", "--domain", str(path), "--algorithm", "safe-rts",
                   "--bound", "10")
    assert code == 2
    assert "malformed" in capsys.readouterr().err


def test_unknown_flag_is_a_usage_error():
    with pytest.raises(SystemExit) as err:
        run_cli("generate", "--domain", "airspace", "--nonsense", "1")
    assert err.value.code == 2


def test_failed_episode_exits_one(tmp_path):
    # the start cell is walled off from the goal: the search exhausts and fails
    map_path = tmp_path / "boxed.txt"
    map_path.write_text("racetrack v1\n"
                        "width 3 height 4\n"
                        "###\n"
                        "#*#\n"
                        "###\n"
                        "#@#\n")
    code = run_cli("run", "--domain", str(map_path), "--algorithm", "lss-lrta",
                   "--bound", "20", "--max-iterations", "40")
    assert code == 1


def test_stats_writes_altitude_rows(tmp_path):
    inst_path = tmp_path / "inst.txt"
    run_cli("generate", "--domain", "airspace", "--length", "400",
            "--max-altitude", "5", "--p-obs", "0.05", "--seed", "3",
            "--out", str(inst_path))
    out = tmp_path / "stats.csv"
    code = run_cli("stats", "--instance", str(inst_path), "--samples", "40",
                   "--seed", "1", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("altitude,samples,safetyProbability")
    assert len(lines) == 1 + 3  # altitudes 3..5


def test_run_config_grid_and_plot(tmp_path):
    import json
    csv_path = tmp_path / "grid.csv"
    configef = tmp_path / "exp.json"
    config = {
        "domain": {"type": "airspace", "length": 50, "maxAltitude": 3,
                   "pObs": 0.1, "seeds": [1, 2]},
        "algorithms": [{"name": "lss-lrta"}, {"name": "safe-rts"}],
        "bounds": [10, 20],
        "repetitions": 1,
        "configSeed": 3,
        "output": str(csv_path),
    }
    config_path = tmp_path / "exp.json"
    config_path.write_text(json.dumps(config))
    assert run_cli("run", "--config", str(config_path)) == 0
    assert len(csv_path.read_text().splitlines()) == 1 + 2 * 2 * 2
    svg_path = tmp_path / "v.svg"
    code = run_cli("plot", "--csv", str(csv_path), "--x", "iterationBound",
                   "--y", "velocity", "--series", "algorithm",
                   "--out", str(svg_path))
    assert code == 0
    assert svg_path.read_text().startswith("<svg")


def test_verify_suite_passes_on_small_seed_count(capsys):
    code = run_cli("verify", "--suite", "theorems", "--seeds", "6")
    assert code == 0
    out = capsys.readouterr().out
    assert "closure-completeness" in out


@pytest.mark.parametrize("seeds", ["0", "-1"])
def test_verify_without_seeds_exits_two_naming_the_flag(capsys, seeds):
    code = run_cli("verify", "--seeds", seeds)
    captured = capsys.readouterr()
    assert code == 2
    assert "--seeds" in captured.err
    assert "pass" not in captured.out


def test_env_seed_is_used_as_default(tmp_path, monkeypatch):
    monkeypatch.setenv("RTSS_SEED", "99")
    out = tmp_path / "env.txt"
    run_cli("generate", "--domain", "airspace", "--length", "12",
            "--max-altitude", "3", "--p-obs", "0.3", "--out", str(out))
    inst = airspace.load_instance(str(out))
    assert inst.seed == 99


def test_non_integer_env_seed_exits_two_naming_it(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("RTSS_SEED", "abc")
    code = run_cli("generate", "--domain", "airspace", "--length", "12",
                   "--max-altitude", "3", "--p-obs", "0.3",
                   "--out", str(tmp_path / "env.txt"))
    assert code == 2
    assert "RTSS_SEED" in capsys.readouterr().err
    assert not (tmp_path / "env.txt").exists()


def test_non_integer_env_seed_does_not_stop_a_grid(tmp_path, monkeypatch):
    # a grid takes its seeds from configSeed, never from RTSS_SEED
    import json
    monkeypatch.setenv("RTSS_SEED", "abc")
    out = tmp_path / "grid.csv"
    config_path = tmp_path / "grid.json"
    config_path.write_text(json.dumps({**_GOOD_CONFIG, "output": str(out)}))
    assert run_cli("run", "--config", str(config_path)) == 0
    assert len(out.read_text().splitlines()) == 2


@pytest.mark.parametrize("samples", ["0", "-2"])
def test_stats_samples_below_one_exits_two_naming_the_flag(tmp_path, capsys, samples):
    inst = tmp_path / "inst.txt"
    airspace.write_instance(airspace.generate(40, 4, 0.1, 1), str(inst))
    code = run_cli("stats", "--instance", str(inst), "--samples", samples,
                   "--seed", "1", "--out", str(tmp_path / "s.csv"))
    assert code == 2
    assert "--samples" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("length, max_altitude, p_obs, message", [
    (0, 3, 0.1, "length must be >= 1"),
    (-4, 3, 0.1, "length must be >= 1"),
    (5, 0, 0.1, "max_altitude must be >= 1"),
    (5, 3, 7, "p_obs must lie in [0, 1)"),
])
def test_out_of_range_instance_header_exits_two_naming_the_field(
        tmp_path, capsys, length, max_altitude, p_obs, message):
    # the ranges generate enforces; the grid body fits the header
    path = tmp_path / "inst.txt"
    path.write_text(f"airspace v1\nlength {length} maxAltitude {max_altitude} "
                    f"pObs {p_obs} seed 1\n"
                    + "".join("." * max(length, 0) + "\n"
                              for _ in range(max_altitude - 1)))
    code = run_cli("stats", "--instance", str(path), "--samples", "5",
                   "--seed", "1", "--out", str(tmp_path / "s.csv"))
    assert code == 2
    assert message in capsys.readouterr().err


def test_missing_instance_file_reports_error(tmp_path, capsys):
    code = run_cli("stats", "--instance", str(tmp_path / "nope.txt"),
                   "--samples", "5", "--out", str(tmp_path / "s.csv"))
    assert code == 2
    assert "error:" in capsys.readouterr().err


_GOOD_CONFIG = {
    "domain": {"type": "airspace", "length": 30, "maxAltitude": 3,
               "pObs": 0.1, "seeds": [1]},
    "algorithms": [{"name": "rtfs"}],
    "bounds": [10],
}

_DROP = object()     # a patch value that removes its key from the config


def _track(**fields):
    return {"type": "racetrack", "path": "builtin:right-turn", **fields}


@pytest.mark.parametrize("patch, field", [
    ({"domain": dict(_GOOD_CONFIG["domain"], seeds=5)}, "domain.seeds"),
    ({"algorithms": ["safe-rts"]}, "algorithms[0]"),
    ({"algorithms": {"name": "safe-rts"}}, "algorithms"),
    ({"bounds": ["x"]}, "bounds"),
    ({"bounds": 10}, "bounds"),
    ({"bounds": [0]}, "error: bounds must be >= 1"),
    ({"bounds": [10, -1]}, "error: bounds must be >= 1"),
    ({"algorithms": [{"name": "safe-rts", "ratio": "x"}]},
     "algorithms[0].ratio must be a number, not str 'x'"),
    ({"algorithms": [{"name": "rtfs", "ratio": True}]}, "algorithms[0].ratio must be a number"),
    ({"algorithms": [{"name": "rtfs", "evaluator": 5}]},
     "algorithms[0].evaluator must be a string"),
    ({"algorithms": [{"name": "rtfs", "commit": None}]}, "algorithms[0].commit must be a string"),
    ({"algorithms": [{"name": "rtfs", "evaluator": "wastar:abc"}]}, "evaluator"),
    ({"algorithms": [{"name": "rtfs", "evaluator": "dsafe"}]}, "evaluator"),
    ({"algorithms": [{"name": "rtfs", "ratio": 1.5}]}, "exploration_ratio"),
    ({"domain": [1]}, "domain"),
    ({"repetitions": "2"}, "repetitions"),
    ({"maxIterations": 1.5}, "maxIterations"),
    ({"configSeed": "x"}, "configSeed"),
    (None, "experiment config"),
    ({"domain": dict(_GOOD_CONFIG["domain"], seeds=["x"])}, "domain.seeds"),
    ({"domain": dict(_GOOD_CONFIG["domain"], length="30")}, "domain.length"),
    ({"domain": dict(_GOOD_CONFIG["domain"], maxAltitude=3.0)}, "domain.maxAltitude"),
    ({"domain": dict(_GOOD_CONFIG["domain"], pObs="0.1")}, "domain.pObs"),
    ({"domain": dict(_GOOD_CONFIG["domain"], pObs=False)}, "domain.pObs"),
    ({"domain": dict(_GOOD_CONFIG["domain"], length=0)}, "domain.length must be >= 1"),
    ({"domain": dict(_GOOD_CONFIG["domain"], maxAltitude=0)},
     "domain.maxAltitude must be >= 1"),
    ({"domain": dict(_GOOD_CONFIG["domain"], pObs=1.0)}, "domain.pObs must lie in [0, 1)"),
    ({"domain": _track(startSamples="x")}, "domain.startSamples"),
    ({"domain": _track(startSeed=1.5)}, "domain.startSeed"),
    ({"cacheEnabled": "no"}, "cacheEnabled"),
    ({"output": 5}, "output"),
    ({"domain": dict(_GOOD_CONFIG["domain"], seeds=[])}, "domain.seeds"),
    ({"domain": _track(startSamples=-3)}, "domain.startSamples"),
    ({"maxIterations": 0}, "maxIterations"),
    ({"domain": {"type": "airspace_files", "paths": [1]}}, "domain.paths"),
    ({"domain": _track(path=1)}, "domain.path"),
    ({"algorithms": [{"name": "rtfs", "carryover": "false"}]}, "algorithms[0].carryover"),
    ({"cacheEnable": False}, "experiment config has unknown key 'cacheEnable'"),
    ({"algorithms": [{"name": "rtfs", "ration": 0.3}]},
     "algorithms[0] has unknown key 'ration'"),
    ({"domain": dict(_GOOD_CONFIG["domain"], startSeed=1)},
     "domain has unknown key 'startSeed'"),
    ({"domain": _track(seeds=[1])}, "domain has unknown key 'seeds'"),
    ({"domain": _DROP}, "experiment config is missing 'domain'"),
    ({"bounds": _DROP}, "experiment config is missing 'bounds'"),
    ({"algorithms": [{"ratio": 0.3}]}, "algorithms[0] is missing 'name'"),
    ({"domain": {"type": "airspace_files"}}, "domain is missing 'paths'"),
    ({"domain": {"type": "racetrack"}}, "domain is missing 'path'"),
    ({"domain": {k: v for k, v in _GOOD_CONFIG["domain"].items() if k != "pObs"}},
     "domain is missing 'pObs'"),
    ({"domain": {"type": "airspace_files", "paths": []}}, "domain.paths is empty"),
    ({"algorithms": [{"name": 5}]}, "algorithms[0].name must be a string, not int 5"),
], ids=["seeds-number", "algorithm-string", "algorithms-object", "bound-string",
        "bounds-number", "bounds-zero", "bounds-negative", "ratio-string", "ratio-bool",
        "evaluator-number", "commit-null", "wastar-weight", "dsafe", "ratio", "domain-list",
        "repetitions-string", "max-iterations-float", "config-seed-string",
        "top-level-list", "seed-string", "length-string", "max-altitude-float",
        "p-obs-string", "p-obs-bool", "length-zero", "max-altitude-zero",
        "p-obs-one", "start-samples-string", "start-seed-float",
        "cache-enabled-string", "output-number", "seeds-empty",
        "start-samples-negative", "max-iterations-zero", "paths-number",
        "path-number", "carryover-string", "unknown-top-level-key",
        "unknown-algorithm-key", "unknown-airspace-key", "unknown-racetrack-key",
        "missing-domain", "missing-bounds", "missing-algorithm-name",
        "missing-paths", "missing-path", "missing-p-obs", "paths-empty", "name-number"])
def test_malformed_config_exits_two_naming_the_field(tmp_path, capsys, patch, field):
    import json
    out = tmp_path / "bad.csv"
    # the output path rides in the config, so an "output" patch replaces it
    good = {**_GOOD_CONFIG, "output": str(out)}
    config = ([good] if patch is None else
              {k: v for k, v in {**good, **patch}.items() if v is not _DROP})
    config_path = tmp_path / "bad.json"
    config_path.write_text(json.dumps(config))
    assert run_cli("run", "--config", str(config_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err
    assert not out.exists()


def _tiny_grid(tmp_path, out):
    import json
    config_path = tmp_path / "tiny.json"
    config_path.write_text(json.dumps({**_GOOD_CONFIG, "output": str(out)}))
    return str(config_path)


def _refuse(*_args, **_kw):
    raise AssertionError("the run started")


@pytest.mark.parametrize("flags", [
    ["--domain", "a.air"], ["--algorithm", "safe-rts"], ["--bound", "0"], ["--ratio", "7"],
    ["--evaluator", "astar"], ["--commit", "full"], ["--seed", "5"], ["--no-cache"],
    ["--no-carryover"], ["--max-iterations", "0"]], ids=lambda flags: flags[0])
def test_grid_run_rejects_an_episode_flag_naming_it(tmp_path, capsys, monkeypatch, flags):
    monkeypatch.setattr(harness, "run_experiment", _refuse)
    out = tmp_path / "out.csv"
    code = run_cli("run", "--config", _tiny_grid(tmp_path, out), *flags)
    assert code == 2
    assert capsys.readouterr().err == f"error: {flags[0]} does not go with --config\n"
    assert not out.exists()


def test_episode_run_rejects_the_jobs_flag(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(harness, "simulate_episode", _refuse)
    map_path = tmp_path / "track.txt"
    map_path.write_text(racetrack.RIGHT_TURN_TRACK)
    code = run_cli("run", "--domain", str(map_path), "--algorithm", "safe-rts",
                   "--bound", "10", "--jobs", "4")
    assert code == 2
    assert capsys.readouterr().err == "error: --jobs does not go with --domain\n"


def test_episode_run_passes_no_carryover_to_the_planner(tmp_path, monkeypatch):
    configs = []

    def record(config, *_args, **_kw):
        configs.append(config)
        return harness.RunRecord("w", config.algorithm, 10, 0.5, "astar", 0, "goal"), None

    monkeypatch.setattr(harness, "simulate_episode", record)
    map_path = tmp_path / "track.txt"
    map_path.write_text(racetrack.RIGHT_TURN_TRACK)
    episode = ("run", "--domain", str(map_path), "--algorithm", "rtfs", "--bound", "10")
    assert run_cli(*episode, "--no-carryover") == 0
    assert run_cli(*episode) == 0
    assert [c.allow_budget_carryover for c in configs] == [False, True]


def test_grid_output_in_a_missing_directory_exits_two_before_any_run(tmp_path, capsys,
                                                                      monkeypatch):
    monkeypatch.setattr(harness, "_build_grid", _refuse)
    out = tmp_path / "nodir" / "out.csv"
    assert run_cli("run", "--config", _tiny_grid(tmp_path, out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: output ") and "does not exist" in err
    assert run_cli("run", "--config", _tiny_grid(tmp_path, tmp_path / "e.csv"),
                   "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith("error: --out ")


def test_grid_output_that_is_a_directory_exits_two_before_any_run(tmp_path, capsys,
                                                                   monkeypatch):
    monkeypatch.setattr(harness, "_build_grid", _refuse)
    assert run_cli("run", "--config", _tiny_grid(tmp_path, tmp_path)) == 2
    assert capsys.readouterr().err == f"error: output {str(tmp_path)!r} is a directory, " \
                                      "not a file path\n"
    assert run_cli("run", "--config", _tiny_grid(tmp_path, tmp_path / "e.csv"),
                   "--out", str(tmp_path)) == 2
    assert capsys.readouterr().err.startswith("error: --out ")
    assert not (tmp_path / "e.csv").exists()


def test_stats_and_episode_out_in_a_missing_directory_exit_two_before_any_work(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(airspace, "safety_proof_stats", _refuse)
    monkeypatch.setattr(harness, "simulate_episode", _refuse)
    inst_path = tmp_path / "inst.txt"
    airspace.write_instance(airspace.generate(30, 4, 0.1, 1), str(inst_path))
    out = str(tmp_path / "nodir" / "x.csv")
    assert run_cli("stats", "--instance", str(inst_path), "--samples", "5",
                   "--out", out) == 2
    assert capsys.readouterr().err.startswith("error: --out ")
    assert run_cli("run", "--domain", str(inst_path), "--algorithm", "safe-rts",
                   "--bound", "10", "--out", out) == 2
    assert capsys.readouterr().err.startswith("error: --out ")


def test_stats_and_episode_out_that_is_a_directory_exit_two_before_any_work(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(airspace, "safety_proof_stats", _refuse)
    monkeypatch.setattr(harness, "simulate_episode", _refuse)
    inst_path = tmp_path / "inst.txt"
    airspace.write_instance(airspace.generate(30, 4, 0.1, 1), str(inst_path))
    expected = f"error: --out {str(tmp_path)!r} is a directory, not a file path\n"
    assert run_cli("stats", "--instance", str(inst_path), "--samples", "5",
                   "--out", str(tmp_path)) == 2
    assert capsys.readouterr().err == expected
    assert run_cli("run", "--domain", str(inst_path), "--algorithm", "safe-rts",
                   "--bound", "10", "--out", str(tmp_path)) == 2
    assert capsys.readouterr().err == expected
