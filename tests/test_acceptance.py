"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Heavy run grids are shared through module-scoped fixtures; every run is
seeded, so the whole gate is deterministic end to end.
"""
import math
import time
from fractions import Fraction

import pytest

from rtss.domains import airspace, racetrack
from rtss.domains.airspace import collision_probability, safety_proof_stats
from rtss.domains.oracles import true_safe_set
from rtss.harness import (ExperimentConfig, run_experiment, simulate_episode,
                          simulate_offline_astar)
from rtss.planners import PlannerConfig, offline_astar
from rtss.search import Evaluator
from rtss.verification import run_suite

BOUNDS = (30, 100, 300)
AIRSPACE_SEEDS = tuple(range(1, 11))
SWEEP_SEEDS = tuple(range(1, 6))

RTFS0 = dict(exploration_ratio=0.5, evaluator=Evaluator("astar"),
             allow_budget_carryover=False)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def airspace_grid():
    """(algorithm, maxAlt, bound, seed) -> RunRecord over the avoidance and
    velocity grids, plus the Safe-LSS-LRTA* oracle rows at maxAlt 20."""
    records = {}
    for max_alt in (10, 14, 20):
        for seed in AIRSPACE_SEEDS:
            inst = airspace.generate(2000, max_alt, 0.05, seed)
            safe = true_safe_set(inst) if max_alt == 20 else None
            for bound in BOUNDS:
                for algo, kw in (("safe-rts", {}), ("rtfs", RTFS0)):
                    rec, _ = simulate_episode(PlannerConfig(algo, bound, **kw),
                                              inst, inst.start, seed=seed)
                    records[(algo, max_alt, bound, seed)] = rec
                if max_alt == 20:
                    rec, _ = simulate_episode(
                        PlannerConfig("safe-lss-lrta", bound), inst, inst.start,
                        seed=seed, safe_states=safe)
                    records[("safe-lss-lrta", max_alt, bound, seed)] = rec
    return records


@pytest.fixture(scope="module")
def racetrack_grid():
    track = racetrack.right_turn_track()
    starts = track.sample_starts(10, 42)
    records = {}
    for bound in BOUNDS:
        for i, cell in enumerate(starts):
            for algo, kw in (("safe-rts", {}), ("rtfs", RTFS0)):
                rec, _ = simulate_episode(PlannerConfig(algo, bound, **kw),
                                          track, track.start_state(cell), seed=i)
                records[(algo, bound, i)] = rec
    return records


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


def test_reexpansion_ratio_band_and_paired_cache_runs():
    ratios = []
    pair_violations = []
    for seed in AIRSPACE_SEEDS:
        inst = airspace.generate(2000, 20, 0.05, seed)
        off, _ = simulate_episode(PlannerConfig("safe-rts", 100), inst, inst.start,
                                  seed=seed, cache_enabled=False)
        on, _ = simulate_episode(PlannerConfig("safe-rts", 100), inst, inst.start,
                                 seed=seed, cache_enabled=True)
        ratios.append(off.dead_end_reexpansion_ratio)
        if on.total_expansions > off.total_expansions:
            pair_violations.append(
                f"seed {seed}: on={on.total_expansions} off={off.total_expansions}")
    mean_ratio = _mean(ratios)
    in_band = 0.002 <= mean_ratio <= 0.05
    ok = in_band and not pair_violations
    _report("reexpansion-ratio", ok,
            f"cache-off mean ratio {mean_ratio:.4f}, "
            f"{len(pair_violations)}/10 paired seeds with cache-on > cache-off"
            + ("; " + "; ".join(pair_violations[:3]) if pair_violations else ""))


def test_perfect_agent_velocity():
    vels = []
    for seed in range(1, 6):
        inst = airspace.generate(10_000, 20, 0.05, seed)
        rec = simulate_offline_astar(inst, inst.start, offline_astar(inst, inst.start),
                                     seed=seed)
        assert rec.outcome == "goal"
        vels.append(rec.velocity)
    mean = _mean(vels)
    _report("perfect-agent-velocity", 10.0 <= mean <= 16.0,
            f"mean offline A* velocity {mean:.2f} over 5 seeds")


def test_exploration_strategy_sweep():
    # run at both obstacle densities; the directional weighted-vs-plain
    # check is applied at ratio 0.5 within each density
    evaluators = ("astar", "wastar:1.1", "wastar:3", "greedy")
    ratios = (0.1, 0.3, 0.5)
    velocity = {}
    incomplete = []
    for p_obs in (0.05, 0.01):
        for seed in SWEEP_SEEDS:
            inst = airspace.generate(2000, 20, p_obs, seed)
            for ev in evaluators:
                for ratio in ratios:
                    config = PlannerConfig("rtfs", 100, exploration_ratio=ratio,
                                           evaluator=Evaluator.parse(ev),
                                           allow_budget_carryover=False)
                    rec, _ = simulate_episode(config, inst, inst.start, seed=seed)
                    velocity[(p_obs, ev, ratio, seed)] = rec.velocity
                    if rec.outcome != "goal":
                        incomplete.append(f"p{p_obs} {ev}@{ratio} seed {seed}: "
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
