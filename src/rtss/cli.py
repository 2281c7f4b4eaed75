"""Command line entry point: generate, run, stats, verify, plot.

Exit codes: 0 success, 1 planner failure or termination, 2 usage error,
3 verification failure. RTSS_SEED (environment) supplies the default seed
wherever --seed is omitted.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import astuple

from . import harness, plotting, verification
from .domains import airspace, racetrack
from .planners import ALGORITHMS


def _seed(given: int | None) -> int:
    if given is not None:
        return given
    value = os.environ.get("RTSS_SEED", "0")
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"RTSS_SEED must be an integer, got {value!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rtss", description="real-time safe heuristic search toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a benchmark instance file")
    gen.add_argument("--domain", choices=["airspace"], required=True)
    gen.add_argument("--length", type=int, required=True)
    gen.add_argument("--max-altitude", type=int, required=True)
    gen.add_argument("--p-obs", type=float, required=True)
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--out", required=True)

    # run's flags default to absent: a flag left out keeps the default of the
    # function that reads its value, and _cmd_run sees which flags were given
    run = sub.add_parser("run", help="run an experiment grid or a single episode",
                         argument_default=argparse.SUPPRESS)
    run.add_argument("--config", help="experiment config JSON")
    run.add_argument("--jobs", type=int)
    run.add_argument("--domain", help="instance file for an ad-hoc episode")
    run.add_argument("--algorithm", choices=list(ALGORITHMS))
    run.add_argument("--bound", type=int)
    run.add_argument("--ratio", type=float)
    run.add_argument("--evaluator", help="astar | wastar:W | greedy")
    run.add_argument("--commit", choices=["single", "full"])
    run.add_argument("--seed", type=int)
    run.add_argument("--no-cache", action="store_true")
    run.add_argument("--no-carryover", action="store_true",
                     help="re-split unused RTFS budget within the iteration")
    run.add_argument("--max-iterations", type=int)
    run.add_argument("--out", help="CSV output path")

    stats = sub.add_parser("stats", help="per-altitude safety proof statistics")
    stats.add_argument("--instance", required=True)
    stats.add_argument("--samples", type=int, required=True)
    stats.add_argument("--seed", type=int, default=None)
    stats.add_argument("--out", required=True)

    verify = sub.add_parser("verify", help="run the brute-force property suites")
    verify.add_argument("--suite", choices=list(verification.SUITES), default="all")
    verify.add_argument("--seeds", type=int, default=100)

    plot = sub.add_parser("plot", help="render an SVG chart from a results CSV")
    plot.add_argument("--csv", required=True)
    plot.add_argument("--x", required=True)
    plot.add_argument("--y", required=True)
    plot.add_argument("--series", required=True)
    plot.add_argument("--out", required=True)
    plot.add_argument("--title", default="")
    plot.add_argument("--logx", action="store_true")
    return parser


def _load_domain_file(path: str):
    with open(path, "r", encoding="utf-8") as f:
        head = f.readline().strip()
    if head == "airspace v1":
        inst = airspace.load_instance(path)
        return inst, inst.start
    if head == "racetrack v1":
        inst = racetrack.load(path)
        return inst, inst.start_state(inst.starts[0])
    raise ValueError(f"unrecognized instance file: {path}")


def _cmd_generate(args) -> int:
    harness.check_output_dir(args.out, "--out")
    inst = airspace.generate(args.length, args.max_altitude, args.p_obs, _seed(args.seed))
    airspace.write_instance(inst, args.out)
    print(f"wrote {args.out} ({inst.instance_id})")
    return 0


def _pick(given: dict, *names) -> dict:
    return {name: given[name] for name in names if name in given}


def _cmd_run(args, parser) -> int:
    given = vars(args)      # the flags given, in order: none has a default
    grid = "config" in given
    if not grid and not {"domain", "algorithm", "bound"} <= given.keys():
        parser.error("run needs either --config or --domain/--algorithm/--bound")
    # --config and --jobs belong to a grid, --out to both modes and every
    # other flag to an ad-hoc episode
    for name in given:
        if name not in ("command", "out") and (name in ("config", "jobs")) != grid:
            raise ValueError(f"--{name.replace('_', '-')} does not go with "
                             + ("--config" if grid else "--domain"))
    out = given.get("out", "")     # "" writes no CSV
    harness.check_output_dir(out, "--out")
    if grid:
        config = harness.ExperimentConfig.from_json(given["config"])
        if out:
            config.output = out
        records = harness.run_experiment(config, **_pick(given, "jobs"))
        bad = sum(1 for r in records if r.outcome.startswith("error"))
        print(f"{len(records)} runs -> {config.output}"
              + (f" ({bad} errored)" if bad else ""))
        return 0
    # the flags given form an algorithm spec, so a grid's defaults hold here too
    spec = {"name": given["algorithm"], **_pick(given, "ratio", "evaluator", "commit")}
    if "no_carryover" in given:
        spec["carryover"] = False
    config = harness.planner_config(spec, given["bound"])
    domain, start = _load_domain_file(given["domain"])
    record, _ = harness.simulate_episode(
        config, domain, start, seed=_seed(given.get("seed")),
        cache_enabled="no_cache" not in given, **_pick(given, "max_iterations"))
    if out:
        harness.write_csv(out, harness.CSV_COLUMNS, [record.row()])
    print(f"{record.instance_id} {record.algorithm} bound={record.iteration_bound}"
          f" outcome={record.outcome} gat={record.gat:g}"
          f" velocity={record.velocity:.3f} expansions={record.total_expansions}")
    return 0 if record.outcome == "goal" else 1


def _cmd_stats(args) -> int:
    harness.check_output_dir(args.out, "--out")
    inst = airspace.load_instance(args.instance)
    rows = airspace.safety_proof_stats(inst, args.samples, seed=_seed(args.seed))
    harness.write_csv(args.out, harness.columns(airspace.AltitudeStats), map(astuple, rows))
    print(f"wrote {args.out} ({len(rows)} altitude rows)")
    return 0


def _cmd_verify(args) -> int:
    checks = verification.run_suite(args.suite, args.seeds)
    for check in checks:
        print(check.line())
    return 0 if all(c.passed for c in checks) else 3


def _cmd_plot(args) -> int:
    harness.check_output_dir(args.out, "--out")
    spec = plotting.PlotSpec(x=args.x, y=args.y, series=args.series,
                             out=args.out, title=args.title, logx=args.logx)
    plotting.emit_plot(args.csv, spec)
    print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "run":
            return _cmd_run(args, parser)
        if args.command == "stats":
            return _cmd_stats(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_plot(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
