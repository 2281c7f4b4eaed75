"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Its episodes are experiment grids run at two workers. Those that the
`experiments/*.json` reference grids hold are read from the session's one
run of each (conftest's `reference_grid`); the rest are shared through
module-scoped fixtures. A row's seed only labels it, so rows are keyed by
their other columns. Every run is seeded, so the whole gate is
deterministic end to end.
"""
import re
import time
from fractions import Fraction

import pytest

from rtss.domains import airspace
from rtss.domains.airspace import collision_probability, safety_proof_stats
from rtss.harness import OFFLINE_ASTAR, ExperimentConfig, run_experiment
from rtss.verification import run_suite

BOUNDS = (30, 100, 300)
AIRSPACE_SEEDS = tuple(range(1, 11))
SWEEP_SEEDS = tuple(range(1, 6))

SAFE_RTS = {"name": "safe-rts"}
RTFS0 = {"name": "rtfs", "ratio": 0.5, "evaluator": "astar", "carryover": False}


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def _grid(algorithms, seeds, max_alt=20, p_obs=0.05, length=2000, bounds=BOUNDS,
          cache_enabled=True):
    """The records of an Airspace grid run at two workers, writing no CSV."""
    domain = {"type": "airspace", "length": length, "maxAltitude": max_alt,
              "pObs": p_obs, "seeds": list(seeds)}
    return run_experiment(ExperimentConfig(domain, algorithms, list(bounds), output="",
                                           cache_enabled=cache_enabled), jobs=2)


def _seed(record):
    """The generator seed of a row's Airspace world, whose id ends in -s<seed>."""
    return int(record.instance_id.rsplit("-s", 1)[1])


@pytest.fixture(scope="module")
def airspace_grid(reference_grid):
    """(algorithm, maxAlt, bound, seed) -> RunRecord over the avoidance and
    velocity grids, plus the Safe-LSS-LRTA* oracle rows at maxAlt 20: at
    maxAlt 20, the airspace-velocity reference grid less its offline A*."""
    grids = {10: _grid([SAFE_RTS, RTFS0], AIRSPACE_SEEDS, max_alt=10),
             14: _grid([SAFE_RTS, RTFS0], AIRSPACE_SEEDS, max_alt=14),
             20: reference_grid("airspace-velocity")[0]}
    return {(rec.algorithm, max_alt, rec.iteration_bound, _seed(rec)): rec
            for max_alt, records in grids.items() for rec in records
            if rec.algorithm != OFFLINE_ASTAR}


@pytest.fixture(scope="module")
def racetrack_grid(reference_grid):
    """(algorithm, bound, start index) -> RunRecord of the racetrack-gat
    reference grid's SafeRTS and RTFS-0 rows: 10 right-turn starts drawn
    with seed 42."""
    return {(rec.algorithm, rec.iteration_bound,
             int(re.search(r"#start(\d+)@", rec.instance_id)[1])): rec
            for rec in reference_grid("racetrack-gat")[0] if rec.algorithm != "lss-lrta"}


def test_proof_difficulty_profile():
    t0 = time.monotonic()
    inst = airspace.generate(10_000, 20, 0.05, 12345)
    rows = safety_proof_stats(inst, 20_000, seed=7)
    elapsed = time.monotonic() - t0
    by_alt = {r.altitude: r for r in rows}
    expected_prob = {3: 0.95, 10: 0.70, 19: 0.06}
    expected_len = {3: 4.0, 10: 14.0, 19: 32.0}
    problems = []
    for alt, want in expected_prob.items():
        got = by_alt[alt].safety_probability
        if abs(got - want) > 0.03:
            problems.append(f"p_safe[{alt}]={got:.3f} vs {want}")
    for alt, want in expected_len.items():
        got = by_alt[alt].mean_proof_length_states
        if not want * 0.8 <= got <= want * 1.2:
            problems.append(f"length[{alt}]={got:.2f} vs {want}+-20%")
    failed = [r.mean_failed_proof_expansions for r in rows]
    peak_alt = rows[max(range(len(rows)), key=lambda i: failed[i])].altitude
    if not 14 <= peak_alt <= 18:
        problems.append(f"failed-expansion peak at altitude {peak_alt}")
    if not (failed[peak_alt - 3] > failed[0] and failed[peak_alt - 3] > failed[-1]):
        problems.append("failed expansions do not rise then fall")
    if elapsed > 300:
        problems.append(f"runtime {elapsed:.0f}s > 300s")
    detail = (f"p_safe 3/10/19 = {by_alt[3].safety_probability:.3f}/"
              f"{by_alt[10].safety_probability:.3f}/{by_alt[19].safety_probability:.3f}, "
              f"states = {by_alt[3].mean_proof_length_states:.2f}/"
              f"{by_alt[10].mean_proof_length_states:.2f}/"
              f"{by_alt[19].mean_proof_length_states:.2f}, "
              f"failed-exp peak at {peak_alt}, {elapsed:.0f}s")
    _report("proof-difficulty-profile", not problems, detail + "; " + "; ".join(problems))


def test_collision_formula_matches_exact_arithmetic():
    worst = 0.0
    for p in (0.01, 0.05, 0.3):
        for a in range(0, 31):
            exact = float(1 - (1 - Fraction(p)) ** a)
            worst = max(worst, abs(collision_probability(a, p) - exact))
    _report("collision-formula", worst <= 1e-12, f"max abs error {worst:.2e}")


def test_theorem_property_suite():
    checks = run_suite("theorems", seeds=100)
    bad = [c.line() for c in checks if not c.passed]
    total = sum(c.checked for c in checks)
    _report("theorem-suite", not bad,
            f"{total} assertions over 100 seeded instances" +
            ("; " + " | ".join(bad) if bad else ""))


def test_safety_and_dead_end_soundness():
    checks = run_suite("oracles", seeds=100)
    bad = [c.line() for c in checks if not c.passed]
    total = sum(c.checked for c in checks)
    _report("soundness", not bad,
            f"{total} assertions over 100 seeded instances" +
            ("; " + " | ".join(bad) if bad else ""))


def test_dead_end_avoidance(airspace_grid, racetrack_grid):
    bad = []
    for key, rec in airspace_grid.items():
        if key[0] == "safe-lss-lrta":
            continue
        if rec.outcome != "goal":
            bad.append(f"airspace {key}: {rec.outcome}")
    for key, rec in racetrack_grid.items():
        if rec.outcome != "goal":
            bad.append(f"racetrack {key}: {rec.outcome}")
    n = sum(1 for k in airspace_grid if k[0] != "safe-lss-lrta") + len(racetrack_grid)
    _report("dead-end-avoidance", not bad,
            f"{n} episodes, zero dead-end entries" +
            ("; " + "; ".join(bad[:4]) if bad else ""))


def _mean(vals):
    vals = list(vals)
    return sum(vals) / len(vals)


def test_rtfs0_velocity_dominates_safe_rts(airspace_grid):
    means = {}
    for algo in ("safe-rts", "rtfs", "safe-lss-lrta"):
        for bound in BOUNDS:
            means[(algo, bound)] = _mean(
                airspace_grid[(algo, 20, bound, s)].velocity for s in AIRSPACE_SEEDS)
    problems = []
    for bound in BOUNDS:
        if means[("rtfs", bound)] < means[("safe-rts", bound)]:
            problems.append(f"rtfs<srts at bound {bound}")
    for algo in ("safe-rts", "rtfs"):
        series = [means[(algo, b)] for b in BOUNDS]
        inversions = sum(1 for a, b in zip(series, series[1:]) if b <= a)
        if inversions > 1:
            problems.append(f"{algo} series not increasing: {series}")
    detail = " ".join(
        f"b{b}: rtfs={means[('rtfs', b)]:.2f} srts={means[('safe-rts', b)]:.2f} "
        f"oracle={means[('safe-lss-lrta', b)]:.2f}" for b in BOUNDS)
    _report("rtfs0-vs-safe-rts-velocity", not problems,
            detail + ("; " + "; ".join(problems) if problems else ""))


def test_target_rank_claims(racetrack_grid):
    rtfs_ranks = [r.mean_target_open_rank for (a, _b, _i), r in racetrack_grid.items()
                  if a == "rtfs" and r.mean_target_open_rank is not None]
    srts_ranks = [r.mean_target_open_rank for (a, _b, _i), r in racetrack_grid.items()
                  if a == "safe-rts" and r.mean_target_open_rank is not None]
    rtfs_mean = _mean(rtfs_ranks)
    srts_mean = _mean(srts_ranks)
    ok = rtfs_mean == 1.0 and srts_mean > 1.0
    _report("target-open-rank", ok,
            f"rtfs mean rank {rtfs_mean:.4f}, safe-rts mean rank {srts_mean:.4f}")


def test_reexpansion_ratio_band_and_paired_cache_runs(reference_grid):
    # the cache-on runs are the airspace-velocity reference grid's
    on = {_seed(r): r for r in reference_grid("airspace-velocity")[0]
          if r.algorithm == "safe-rts" and r.iteration_bound == 100}
    off = {_seed(r): r for r in _grid([SAFE_RTS], AIRSPACE_SEEDS, bounds=[100],
                                      cache_enabled=False)}
    ratios = [off[seed].dead_end_reexpansion_ratio for seed in AIRSPACE_SEEDS]
    pair_violations = [
        f"seed {seed}: on={on[seed].total_expansions} off={off[seed].total_expansions}"
        for seed in AIRSPACE_SEEDS if on[seed].total_expansions > off[seed].total_expansions]
    mean_ratio = _mean(ratios)
    in_band = 0.002 <= mean_ratio <= 0.05
    ok = in_band and not pair_violations
    _report("reexpansion-ratio", ok,
            f"cache-off mean ratio {mean_ratio:.4f}, "
            f"{len(pair_violations)}/10 paired seeds with cache-on > cache-off"
            + ("; " + "; ".join(pair_violations[:3]) if pair_violations else ""))


def test_perfect_agent_velocity():
    # offline A* ignores the bound, so one bound runs it once per seed
    records = _grid([{"name": OFFLINE_ASTAR}], range(1, 6), length=10_000, bounds=[1])
    assert [rec.outcome for rec in records] == ["goal"] * 5
    mean = _mean(rec.velocity for rec in records)
    _report("perfect-agent-velocity", 10.0 <= mean <= 16.0,
            f"mean offline A* velocity {mean:.2f} over 5 seeds")


def test_exploration_strategy_sweep(reference_grid):
    # run at both obstacle densities; the directional weighted-vs-plain
    # check is applied at ratio 0.5 within each density. Six of the p=0.01
    # configs are the rtfs-exploration-sweep reference grid's
    specs = [{"name": "rtfs", "ratio": ratio, "evaluator": ev, "carryover": False}
             for ev in ("astar", "wastar:1.1", "wastar:3", "greedy")
             for ratio in (0.1, 0.3, 0.5)]
    reference = reference_grid("rtfs-exploration-sweep")[0]
    held = {(r.evaluator, r.exploration_ratio) for r in reference}
    rest = [s for s in specs if (s["evaluator"], s["ratio"]) not in held]
    grids = {0.05: _grid(specs, SWEEP_SEEDS, bounds=[100]),
             0.01: _grid(rest, SWEEP_SEEDS, p_obs=0.01, bounds=[100]) + reference}
    velocity = {}
    incomplete = []
    for p_obs, records in grids.items():
        for rec in records:
            ev, ratio = rec.evaluator, rec.exploration_ratio
            velocity[(p_obs, ev, ratio, _seed(rec))] = rec.velocity
            if rec.outcome != "goal":
                incomplete.append(f"p{p_obs} {ev}@{ratio} seed {_seed(rec)}: "
                                  f"{rec.outcome}")
    wins = {p: sum(1 for s in SWEEP_SEEDS
                   if velocity[(p, "wastar:1.1", 0.5, s)]
                   >= velocity[(p, "astar", 0.5, s)])
            for p in (0.05, 0.01)}
    ok = not incomplete and wins[0.05] >= 3 and wins[0.01] >= 3
    _report("exploration-sweep", ok,
            f"grid of {len(velocity)} runs complete, wastar:1.1 >= astar at "
            f"ratio 0.5 on {wins[0.05]}/5 seeds (p=0.05) and {wins[0.01]}/5 "
            f"(p=0.01)"
            + ("; " + "; ".join(incomplete[:3]) if incomplete else ""))


def test_determinism_byte_identical_csv(tmp_path):
    def config(path):
        return ExperimentConfig(
            domain={"type": "airspace", "length": 500, "maxAltitude": 8,
                    "pObs": 0.05, "seeds": [1, 2, 3]},
            algorithms=[{"name": "safe-rts"},
                        {"name": "rtfs", "ratio": 0.5, "carryover": False}],
            bounds=[30, 100], repetitions=2, config_seed=77, output=str(path))
    run_experiment(config(tmp_path / "a.csv"))
    run_experiment(config(tmp_path / "b.csv"))
    a = (tmp_path / "a.csv").read_bytes()
    b = (tmp_path / "b.csv").read_bytes()
    _report("determinism", a == b,
            f"{len(a)} bytes, repeated grid {'identical' if a == b else 'differs'}")
