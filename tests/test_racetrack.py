import math

import pytest

from conftest import within
from rtss.domains import racetrack
from rtss.domains.oracles import reachable_states, true_safe_set
from rtss.domains.racetrack import (RIGHT_TURN_TRACK, _axis_steps, load,
                                    right_turn_track, supercover_cells)
from rtss.planners import PlannerConfig, offline_astar, run_episode
from rtss.safety import DeadEndCache, propagate_dead_ends
from rtss.search import (FCOST, ExpansionBudget, SafetyStatus, SearchGraph,
                         expand_best_first)

OPEN_STRIP = ("racetrack v1\n"
              "width 12 height 3\n"
              "############\n"
              "#@........*#\n"
              "############\n")


def test_the_geometry_loops_end():
    # first in the module and under a time limit, so that a loop that never
    # ends fails at once: a move along one axis keeps the other axis's step
    # count at zero, and covering 3 cells from rest takes 2 steps
    assert within(10, supercover_cells, 0, 0, 0, 2) == [(0, 0), (0, 1), (0, 2)]
    assert within(10, supercover_cells, 2, 0, 0, 0) == [(2, 0), (1, 0), (0, 0)]
    assert within(10, _axis_steps, 3, 0) == 2


def test_a_map_one_cell_wide_or_high_loads():
    assert load("racetrack v1\nwidth 3 height 1\n@.*\n", is_text=True).goals == {(2, 0)}
    assert load("racetrack v1\nwidth 1 height 3\n@\n.\n*\n", is_text=True).goals == {(0, 2)}


def test_load_rejects_bad_maps():
    with pytest.raises(ValueError, match="^not a racetrack v1 file$"):
        load("racetrack v2\n", is_text=True)
    with pytest.raises(ValueError):
        load("racetrack v1\n", is_text=True)
    with pytest.raises(ValueError):
        load("racetrack v1\nwidth x height 3\n", is_text=True)
    with pytest.raises(ValueError):  # no goal
        load("racetrack v1\nwidth 3 height 1\n@..\n", is_text=True)
    with pytest.raises(ValueError):  # short row
        load("racetrack v1\nwidth 4 height 1\n@.*\n", is_text=True)


def test_tracks_compare_by_identity_before_and_after_a_successor_call():
    a, b = right_turn_track(), right_turn_track()
    assert a != b
    a.successors(a.start_state(a.starts[0]))     # fills one side's memo
    assert a == a and a != b
    with pytest.raises(TypeError):
        racetrack.RacetrackInstance(3, 1, [[False] * 3], [(0, 0)], {(2, 0)}, _succ_cache={})


def test_acceleration_adds_to_velocity_then_position():
    track = load(OPEN_STRIP, is_text=True)
    succs = {a: s for a, s, _c in track.successors((1, 1, 1, 0, False))}
    assert succs[(1, 0)] == (3, 1, 2, 0, False)


def test_identity_action_at_rest():
    track = load(OPEN_STRIP, is_text=True)
    state = (3, 1, 0, 0, False)
    succs = {a: s for a, s, _c in track.successors(state)}
    assert succs[(0, 0)] == state
    assert track.identity_action(state) == (0, 0)
    assert track.identity_action((3, 1, 1, 0, False)) is None


def test_overspeed_into_wall_crashes():
    track = load(OPEN_STRIP, is_text=True)
    state = (9, 1, 3, 0, False)  # one cell of room, speed 3
    succs = track.successors(state)
    assert len(succs) == 9
    assert all(s[4] for _a, s, _c in succs)  # every outcome is a crash
    # the crash states are absorbing terminals
    crash = succs[0][1]
    assert track.successors(crash) == []
    assert track.is_terminal(crash)
    assert math.isinf(track.h(crash))


def test_overspeed_state_flagged_by_propagation_after_expansion():
    track = load(OPEN_STRIP, is_text=True)
    doomed = (9, 1, 3, 0, False)
    graph = SearchGraph(track, FCOST, DeadEndCache())
    graph.begin_iteration(doomed)
    expand_best_first(graph, FCOST, ExpansionBudget(1), track, cache=graph.cache)
    propagate_dead_ends(graph, graph.touched)
    assert graph.nodes[doomed].safety == SafetyStatus.DEAD_END
    # oracle: brute force agrees it is a true dead end
    reach = reachable_states(track, [doomed])
    assert doomed not in true_safe_set(track, states=reach)


def test_goal_membership_and_absorption():
    track = load(OPEN_STRIP, is_text=True)
    assert track.is_goal((10, 1, 2, 0, False))
    assert track.successors((10, 1, 2, 0, False)) == []
    assert not track.is_goal((10, 1, 2, 0, True))


def test_safety_predicate_and_distance():
    track = load(OPEN_STRIP, is_text=True)
    assert track.f_safe((4, 1, 0, 0, False))
    assert not track.f_safe((4, 1, 1, 0, False))
    assert track.d_safe((4, 1, 3, -2, False)) == 3.0
    assert math.isinf(track.d_safe((4, 1, 1, 0, True)))


def test_axis_steps_minimal_solution():
    # smallest n with speed*n + n(n+1)/2 >= distance, checked by enumeration
    for speed in range(5):
        for distance in range(30):
            n = _axis_steps(distance, speed)
            assert speed * n + n * (n + 1) // 2 >= distance
            if n > 0:
                m = n - 1
                assert speed * m + m * (m + 1) // 2 < distance


def test_h_admissible_on_exhaustively_solved_strip():
    track = load(OPEN_STRIP, is_text=True)
    start = track.start_state(track.starts[0])
    solved = offline_astar(track, start)
    assert solved is not None
    _actions, cost, _ = solved
    assert track.h(start) <= cost


def test_supercover_straight_and_diagonal():
    assert supercover_cells(0, 0, 3, 0) == [(0, 0), (1, 0), (2, 0), (3, 0)]
    # perfect diagonal passes both corner cells at each crossing
    cells = set(supercover_cells(0, 0, 2, 2))
    assert cells == {(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (2, 2)}
    # symmetric in direction
    assert set(supercover_cells(2, 2, 0, 0)) == cells


def test_supercover_covers_every_column_and_row():
    for (x1, y1) in ((5, 2), (4, -3), (-2, -1), (7, 1)):
        cells = supercover_cells(0, 0, x1, y1)
        xs = {c[0] for c in cells}
        ys = {c[1] for c in cells}
        assert xs == set(range(min(0, x1), max(0, x1) + 1))
        assert ys == set(range(min(0, y1), max(0, y1) + 1))


def _segment_square_oracle(x0, y0, x1, y1):
    """Exact-arithmetic reference: every unit square (centered on integer
    coordinates) the closed center-to-center segment touches, via
    Liang-Barsky clipping in rationals."""
    from fractions import Fraction
    half = Fraction(1, 2)
    cells = set()
    for cx in range(min(x0, x1) - 1, max(x0, x1) + 2):
        for cy in range(min(y0, y1) - 1, max(y0, y1) + 2):
            t0, t1 = Fraction(0), Fraction(1)
            dx, dy = x1 - x0, y1 - y0
            inside = True
            for p, q in ((-dx, x0 - (cx - half)), (dx, (cx + half) - x0),
                         (-dy, y0 - (cy - half)), (dy, (cy + half) - y0)):
                if p == 0:
                    if q < 0:
                        inside = False
                        break
                else:
                    t = Fraction(q, p)
                    if p < 0:
                        if t > t1:
                            inside = False
                            break
                        if t > t0:
                            t0 = t
                    else:
                        if t < t0:
                            inside = False
                            break
                        if t < t1:
                            t1 = t
            if inside and t0 <= t1:
                cells.add((cx, cy))
    return cells


def test_supercover_matches_exact_geometry_oracle():
    cases = [(0, 0, 5, 2), (0, 0, 4, -3), (0, 0, -2, -1), (0, 0, 7, 1),
             (0, 0, 3, 3), (1, 2, -4, 0), (0, 0, 6, 4), (0, 0, 0, 0),
             (2, 1, 2, 5), (0, 0, 5, 5), (3, 3, 0, 1)]
    for x0, y0, x1, y1 in cases:
        assert set(supercover_cells(x0, y0, x1, y1)) == \
            _segment_square_oracle(x0, y0, x1, y1)


def test_builtin_track_episodes_reach_goal():
    track = right_turn_track()
    assert len(track.starts) == 15
    for algo in ("safe-rts", "rtfs"):
        result = run_episode(track, track.start_state(track.starts[0]),
                             PlannerConfig(algo, 100))
        assert result.outcome == "goal"


def test_start_sampling_is_seeded_and_cycles():
    track = right_turn_track()
    a = track.sample_starts(10, 7)
    b = track.sample_starts(10, 7)
    c = track.sample_starts(10, 8)
    assert a == b
    assert a != c
    assert len(track.sample_starts(20, 7)) == 20  # cycles past the pool


def test_memoised_successors_match_a_cold_instance():
    warm = right_turn_track()
    states = reachable_states(warm, [warm.start_state(c) for c in warm.starts])
    assert len(states) > 1000
    for state in states:
        first = warm.successors(state)
        assert warm.successors(state) == first
        assert right_turn_track().successors(state) == first
