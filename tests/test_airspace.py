import math
import tracemalloc
from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import online_astar
from rtss.domains import airspace
from rtss.domains.airspace import (AirspaceInstance, collision_probability,
                                   generate, load_instance, safety_proof_stats)
from rtss.domains.oracles import true_safe_set
from rtss.planners import PlannerConfig, offline_astar, run_episode, apply_action
from rtss.rng import SplitMix64

# produced once from the generator and verified against an independent
# scalar SplitMix64 pass; regeneration must reproduce it bit-exactly
GOLDEN_TEXT = ("airspace v1\n"
               "length 8 maxAltitude 3 pObs 0.5 seed 1\n"
               "...##...\n"
               "#.#.#.##\n")


# -- generation ------------------------------------------------------------------

def test_zero_probability_means_no_obstacles():
    inst = generate(100, 8, 0.0, 9)
    assert not inst.obstacles.any()


def test_obstacle_fraction_concentrates(
        length=100_000, max_alt=20, p=0.05):
    inst = generate(length, max_alt, p, 123)
    frac = inst.obstacles.mean()
    assert abs(frac - p) < 0.002


def test_golden_grid_regenerates_bit_exactly():
    inst = generate(8, 3, 0.5, 1)
    assert inst.to_text() == GOLDEN_TEXT


def test_generation_works_in_blocks_not_full_length_temporaries():
    # the obstacle grid itself is 0.19 MB; full-length uint64 work arrays
    # would peak above 3 MB
    tracemalloc.start()
    try:
        generate(10000, 20, 0.05, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_generation_parameter_validation():
    with pytest.raises(ValueError):
        generate(10, 3, 1.0, 1)
    with pytest.raises(ValueError):
        generate(10, 0, 0.1, 1)
    with pytest.raises(ValueError):
        generate(0, 3, 0.1, 1)


def test_file_roundtrip(tmp_path):
    inst = generate(40, 5, 0.3, 77)
    path = tmp_path / "a.txt"
    airspace.write_instance(inst, str(path))
    back = load_instance(str(path))
    assert back.to_text() == inst.to_text()
    assert np.array_equal(back.obstacles, inst.obstacles)


def test_loader_rejects_malformed_input():
    with pytest.raises(ValueError, match="^not an airspace v1 file$"):
        load_instance("racetrack v1\n", is_text=True)
    with pytest.raises(ValueError):
        load_instance("airspace v1\n", is_text=True)
    with pytest.raises(ValueError):
        load_instance("airspace v1\nlength x\n", is_text=True)
    with pytest.raises(ValueError):
        load_instance("airspace v1\nlength 4 maxAltitude 3 pObs 0.1 seed 1\n..|.\n....\n",
                      is_text=True)


def test_instances_compare_by_identity_and_keep_their_memos_out_of_the_constructor():
    a, b = generate(50, 5, 0.1, 1), generate(50, 5, 0.1, 1)
    assert a == a and a != b        # no element-wise comparison of the grids
    assert len({a, b}) == 2
    with pytest.raises(TypeError):
        AirspaceInstance(50, 5, 0.1, 1, a.obstacles, _move_ok={})


# -- dynamics ---------------------------------------------------------------------

def test_keep_at_ground_is_the_identity_action():
    inst = generate(50, 5, 0.0, 1)
    assert (airspace.KEEP, (10, 0), 1.0) in inst.successors((10, 0))
    assert inst.identity_action((10, 0)) == airspace.KEEP
    assert inst.identity_action((10, 2)) is None
    assert inst.identity_action((50, 0)) is None  # on the goal line


def test_climb_moves_by_the_new_altitude():
    inst = generate(50, 5, 0.0, 1)
    succs = {a: s for a, s, _c in inst.successors((10, 2))}
    assert succs[airspace.CLIMB] == (13, 3)
    assert succs[airspace.KEEP] == (12, 2)
    assert succs[airspace.DIVE] == (11, 1)


def test_interpolated_collision_omits_the_climb():
    # climbing from (10, 2) to (13, 3) sweeps column 12 at altitude 2.67,
    # which rounds half-up to 3: an obstacle there forbids the action
    inst = generate(50, 5, 0.0, 1)
    inst.obstacles[3 - 2, 12] = True
    inst._move_ok.clear()
    actions = {a for a, _s, _c in inst.successors((10, 2))}
    assert airspace.CLIMB not in actions
    assert airspace.KEEP in actions and airspace.DIVE in actions


def test_goal_overshoot_clamps_to_length():
    inst = generate(20, 5, 0.0, 1)
    succs = {a: s for a, s, _c in inst.successors((18, 4))}
    assert succs[airspace.CLIMB] == (20, 5)
    assert inst.is_goal((20, 5))
    assert inst.successors((20, 5)) == []


def test_boxed_state_is_a_terminal_dead_end():
    inst = generate(30, 3, 0.0, 1)
    # wall out every move from (10, 2): climb sweeps (11,2?)... block all
    # three target corridors at their first swept columns
    inst.obstacles[:] = False
    inst.obstacles[0, 11] = True   # altitude 2, column 11: blocks keep's sweep
    inst.obstacles[1, 11] = True   # altitude 3, column 11: blocks climb
    inst._move_ok.clear()
    inst._free_cols.clear()
    succs = inst.successors((10, 2))
    # dive to altitude 1 is always clear, so only the two upper moves vanish
    assert {a for a, _s, _c in succs} == {airspace.DIVE}


# -- heuristics and safety ----------------------------------------------------------

def test_h_formula():
    inst = generate(200, 20, 0.0, 1)
    assert inst.h((200, 4)) == 0.0
    assert inst.h((100, 7)) == 5.0


def test_h_is_admissible_on_tiny_instances():
    for seed in range(50):
        inst = generate(15 + seed % 10, 3 + seed % 4, 0.2, seed)
        solved = offline_astar(inst, inst.start)
        if solved is None:
            continue
        _actions, cost, _ = solved
        assert inst.h(inst.start) <= cost + 1e-9


def test_offline_astar_matches_the_online_search_on_tiny_instances():
    # airspace has many equal-g paths to a state: a duplicate queued at an
    # equal g is expanded again and shows in the expansion count
    for seed in range(20):
        inst = generate(15 + seed % 10, 3 + seed % 4, 0.2, seed)
        expected = online_astar(inst, inst.start)
        assert expected is not None
        assert offline_astar(inst, inst.start) == expected


def test_d_safe_and_f_safe():
    inst = generate(50, 8, 0.0, 1)
    assert inst.d_safe((10, 5)) == 4 and not inst.f_safe((10, 5))
    assert inst.d_safe((10, 1)) == 0 and inst.f_safe((10, 1))
    assert inst.d_safe((10, 0)) == 0 and inst.f_safe((10, 0))


def test_strong_predicate_low_altitudes_reach_goal():
    for seed in (1, 2, 3):
        inst = generate(40, 6, 0.3, seed)
        truth = true_safe_set(inst)
        for d in range(0, 40, 7):
            assert (d, 0) in truth and (d, 1) in truth


def test_collision_probability_against_exact_arithmetic():
    for p in (0.01, 0.05, 0.3):
        for a in range(0, 31):
            exact = 1 - (1 - Fraction(p)) ** a
            assert abs(collision_probability(a, p) - float(exact)) <= 1e-12
    assert collision_probability(1, 0.05) == pytest.approx(0.05)
    assert collision_probability(0, 0.3) == 0.0
    assert collision_probability(20, 0.05) == pytest.approx(0.641514, abs=1e-6)


def test_collision_probability_rejects_arguments_out_of_range():
    with pytest.raises(ValueError, match="altitude must be nonnegative"):
        collision_probability(-1, 0.05)
    with pytest.raises(ValueError, match=r"p_obs must lie in \[0, 1\)"):
        collision_probability(3, 1.0)


# -- statistics ----------------------------------------------------------------------

def test_stats_on_clear_sky():
    # long corridor so no seeded sample sits close enough to the goal line
    # for the proof to cross it early
    inst = generate(20000, 6, 0.0, 3)
    for samples in (1, 50):
        rows = safety_proof_stats(inst, samples, seed=1)
        assert [row.altitude for row in rows] == [3, 4, 5, 6]
        for row in rows:
            assert row.samples == samples
            assert row.safety_probability == 1.0
            assert row.mean_proof_length_transitions == row.altitude - 1
            assert row.mean_proof_length_states == row.altitude + 1
            assert math.isnan(row.mean_failed_proof_expansions)


def test_stats_on_a_blocked_and_a_boxed_in_altitude():
    # altitude 4 is blocked everywhere, so it yields no sample; altitude 3's
    # only free cell, (5, 3), has every move swept through a blocked cell
    inst = generate(20, 4, 0.0, 1)
    inst.obstacles[1:] = True
    inst.obstacles[1, 5] = False
    assert inst.successors((5, 3)) == []
    blocked_row, boxed_row = reversed(safety_proof_stats(inst, 7, seed=2))
    assert (blocked_row.altitude, blocked_row.samples) == (4, 0)
    assert all(math.isnan(v) for v in astuple(blocked_row)[2:])
    assert astuple(boxed_row)[:3] == (3, 7, 0.0)
    assert all(math.isnan(v) for v in astuple(boxed_row)[3:6])
    assert boxed_row.mean_failed_proof_expansions == 1.0


def test_stats_probability_declines_with_altitude():
    inst = generate(4000, 12, 0.08, 11)
    rows = safety_proof_stats(inst, 800, seed=5)
    probs = [r.safety_probability for r in rows]
    for lo, hi in zip(probs[1:], probs[:-1]):
        assert lo <= hi + 0.02  # sampling slack


# -- trajectory properties -------------------------------------------------------------

def test_no_state_revisits_except_identity():
    inst = generate(300, 8, 0.1, 13)
    result = run_episode(inst, inst.start, PlannerConfig("safe-rts", 40),
                         max_iterations=500)
    seen = set()
    state = inst.start
    for action in result.actions:
        nxt = apply_action(inst, state, action)
        if nxt != state:
            assert nxt not in seen
            seen.add(nxt)
        state = nxt


def test_move_validity_matches_rational_interpolation_oracle():
    # exact-arithmetic recomputation of the sweep: altitude over column d+k
    # is a1 + (a2-a1)*k/span rounded half up, and the move is valid iff no
    # sampled cell at altitude >= 2 is an obstacle
    inst = generate(80, 7, 0.3, 31)
    for d in range(0, 75):
        for a1 in range(0, 8):
            for a2 in (a1 - 1, a1, a1 + 1):
                if not 0 <= a2 <= 7:
                    continue
                ok = True
                for k in range(1, a2 + 1):
                    alt = Fraction(a1) + Fraction(a2 - a1) * k / a2
                    alt_r = int(alt + Fraction(1, 2))
                    x = d + k
                    if alt_r >= 2 and x < 80 and inst.obstacles[alt_r - 2, x]:
                        ok = False
                        break
                assert bool(inst._valid_move(a1, a2)[d]) == ok


def test_interpolation_depends_only_on_swept_cells():
    # the validity of a move is a pure function of the sampled cell set:
    # clearing unrelated cells cannot change it
    inst = generate(60, 6, 0.4, 21)
    moves = [(d, a, a + delta) for d in (5, 17, 30) for a in (2, 3, 4)
             for delta in (-1, 0, 1) if 0 <= a + delta <= 6]
    baseline = {(d, a1, a2): bool(inst._valid_move(a1, a2)[d]) for d, a1, a2 in moves}
    inst2 = generate(60, 6, 0.4, 21)
    inst2.obstacles[4, 55] = False  # far-away cell
    inst2._move_ok.clear()
    for (d, a1, a2), ok in baseline.items():
        if 55 not in range(d + 1, d + a2 + 1):
            assert bool(inst2._valid_move(a1, a2)[d]) == ok


def _successor_oracle(inst, state):
    """Airspace successors recomputed from the obstacle grid alone, with the
    swept altitudes in exact arithmetic."""
    d, a = state
    if d >= inst.length:
        return []
    out = []
    for delta in (airspace.CLIMB, airspace.KEEP, airspace.DIVE):
        a2 = a + delta
        if not 0 <= a2 <= inst.max_altitude:
            continue
        clear = True
        for k in range(1, a2 + 1):
            alt = int(a + Fraction(a2 - a) * k / a2 + Fraction(1, 2))
            x = d + k
            if alt >= 2 and x < inst.length and inst.obstacles[alt - 2, x]:
                clear = False
                break
        if clear:
            out.append((delta, (min(d + a2, inst.length), a2), 1.0))
    return out


def _assert_all_states_match_the_grid(inst):
    # every clear cell, altitude-major, then the goal line
    expect = [(d, a) for a in range(inst.max_altitude + 1) for d in range(inst.length)
              if a <= 1 or not inst.obstacles[a - 2, d]]
    expect += [(inst.length, a) for a in range(inst.max_altitude + 1)]
    states = inst.all_states()
    assert states == expect
    assert all(type(d) is int for d, _a in states)


def _assert_successors_match_the_oracle(inst):
    # every cell, blocked ones included, plus the goal line
    for d in range(inst.length + 1):
        for a in range(inst.max_altitude + 1):
            assert inst.successors((d, a)) == _successor_oracle(inst, (d, a)), (d, a)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(length=st.integers(1, 40), max_altitude=st.integers(1, 9),
       p_obs=st.sampled_from((0.0, 0.2, 0.5, 0.9)), seed=st.integers(0, 10_000))
def test_successors_match_an_exact_oracle_before_and_after_mutation(
        length, max_altitude, p_obs, seed):
    inst = generate(length, max_altitude, p_obs, seed)
    _assert_successors_match_the_oracle(inst)
    if inst.obstacles.size:
        # flip cells after the tables were built, clear the caches the way
        # the tests above do, and check the fresh tables
        rng = SplitMix64(seed)
        for _ in range(1 + inst.obstacles.size // 8):
            r = rng.randrange(inst.obstacles.shape[0])
            c = rng.randrange(length)
            inst.obstacles[r, c] = not inst.obstacles[r, c]
        inst._move_ok.clear()
        inst._free_cols.clear()
        _assert_successors_match_the_oracle(inst)


def test_successor_oracle_sweep_covers_the_edges():
    # clamped goal overshoot, ground level with its identity move, and the
    # top altitude with no climb, on fixed instances
    inst = generate(30, 6, 0.3, 5)
    _assert_successors_match_the_oracle(inst)
    _assert_all_states_match_the_grid(inst)
    assert inst.successors((28, 5))[0] == (airspace.CLIMB, (30, 6), 1.0)
    assert (airspace.KEEP, (4, 0), 1.0) in inst.successors((4, 0))
    assert all(a2 <= 6 for _d, (_x, a2), _c in inst.successors((3, 6)))
    # the benchmark's altitude range, beyond the property's max_altitude 9
    inst = generate(60, 20, 0.3, 11)
    _assert_successors_match_the_oracle(inst)
    _assert_all_states_match_the_grid(inst)
    # the sweep leaves one move-code byte per column and altitude, and no
    # legality table per move
    assert sorted(inst._move_ok) == list(range(21))
    assert all(len(codes) == 60 for codes, _moves in inst._move_ok.values())
