"""Racetrack: inertia and unit acceleration on a blocked grid.

States are (x, y, vx, vy, crashed). Each step picks an acceleration from
{-1, 0, 1}^2, adds it to the velocity, and slides to position + velocity;
if the swept supercover line touches a blocked or out-of-bounds cell the
move ends in an absorbing crashed state, which planners can discover and
prove dead. The likely-safe predicate accepts exactly the stationary
uncrashed states, and the safety distance of a state is the larger
velocity component (a lower bound on the steps needed to stop).
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

from ..rng import SplitMix64
from .base import read_v1

_ACCELS = tuple((ax, ay) for ax in (-1, 0, 1) for ay in (-1, 0, 1))


def supercover_cells(x0: int, y0: int, x1: int, y1: int) -> list[tuple[int, int]]:
    """Every grid cell the closed segment (x0,y0)-(x1,y1) passes through;
    corner crossings include both side cells."""
    cells = [(x0, y0)]
    dx, dy = x1 - x0, y1 - y0
    nx, ny = abs(dx), abs(dy)
    sx = 1 if dx > 0 else -1
    sy = 1 if dy > 0 else -1
    x, y = x0, y0
    ix = iy = 0
    while ix < nx or iy < ny:
        decision = (1 + 2 * ix) * ny - (1 + 2 * iy) * nx
        if decision == 0:
            cells.append((x + sx, y))
            cells.append((x, y + sy))
            x += sx
            y += sy
            ix += 1
            iy += 1
        elif decision < 0:
            x += sx
            ix += 1
        else:
            y += sy
            iy += 1
        cells.append((x, y))
    return cells


@dataclass(eq=False)
class RacetrackInstance:
    """Immutable track; also the domain handle for the planners."""

    width: int
    height: int
    blocked: list[list[bool]]          # [y][x]
    starts: list[tuple[int, int]]
    goals: set
    name: str = "racetrack"

    # memos: successors and h are deterministic, and no caller mutates a
    # successor list, so states share them for the instance's lifetime
    _h_cache: dict = field(default_factory=dict, init=False, repr=False)
    _succ_cache: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def instance_id(self) -> str:
        return self.name

    def start_state(self, cell: tuple[int, int]) -> tuple:
        return (cell[0], cell[1], 0, 0, False)

    # -- domain handle -----------------------------------------------------

    def successors(self, state) -> list:
        cached = self._succ_cache.get(state)
        if cached is not None:
            return cached
        x, y, vx, vy, crashed = state
        if crashed or (x, y) in self.goals:
            return []
        width, height, blocked = self.width, self.height, self.blocked
        out = []
        for ax, ay in _ACCELS:
            v2x, v2y = vx + ax, vy + ay
            p2x, p2y = x + v2x, y + v2y
            crash = False
            for cx, cy in supercover_cells(x, y, p2x, p2y):
                if not (0 <= cx < width and 0 <= cy < height) or blocked[cy][cx]:
                    crash = True
                    break
            out.append(((ax, ay), (p2x, p2y, v2x, v2y, crash), 1.0))
        self._succ_cache[state] = out
        return out

    def is_goal(self, state) -> bool:
        return not state[4] and (state[0], state[1]) in self.goals

    def is_terminal(self, state) -> bool:
        return state[4]

    def h(self, state) -> float:
        x, y, vx, vy, crashed = state
        if crashed:
            return math.inf
        key = (x, y, vx, vy)
        cached = self._h_cache.get(key)
        if cached is not None:
            return cached
        best = math.inf
        for gx, gy in self.goals:
            n = max(_axis_steps(abs(gx - x), abs(vx)),
                    _axis_steps(abs(gy - y), abs(vy)))
            if n < best:
                best = n
        val = float(best)
        self._h_cache[key] = val
        return val

    def d_safe(self, state) -> float:
        if state[4]:
            return math.inf
        return float(max(abs(state[2]), abs(state[3])))

    def f_safe(self, state) -> bool:
        return not state[4] and state[2] == 0 and state[3] == 0

    def identity_action(self, state):
        x, y, vx, vy, crashed = state
        if crashed or (vx, vy) != (0, 0) or (x, y) in self.goals:
            return None
        return (0, 0)

    def travel_distance(self, start, end) -> float:
        return math.hypot(end[0] - start[0], end[1] - start[1])

    # -- sampling ------------------------------------------------------------

    def sample_starts(self, count: int, seed: int) -> list[tuple[int, int]]:
        """Seeded draw of start cells from the '@' candidates (cycling once
        the candidates run out, so any count is serviceable)."""
        pool = list(self.starts)
        SplitMix64(seed).shuffle(pool)
        return [pool[i % len(pool)] for i in range(count)]


def _axis_steps(distance: int, speed: int) -> int:
    """Smallest n with speed*n + n(n+1)/2 >= distance."""
    n = 0
    covered = 0
    while covered < distance:
        n += 1
        covered = speed * n + n * (n + 1) // 2
    return n


def load(path_or_text: str, *, is_text: bool = False,
         name: str = "racetrack") -> RacetrackInstance:
    """Parse a racetrack v1 map: '#' blocked, '.' free, '*' goal, '@' start.
    A map file is named after its base name, wherever it lives."""
    (width, height), lines = read_v1(path_or_text, is_text, "racetrack",
                                     width=int, height=int)
    for field, value in (("width", width), ("height", height)):
        if value < 1:
            raise ValueError(f"racetrack header {lines[1]!r}: {field} must be >= 1")
    if not is_text:
        name = os.path.basename(path_or_text)
    rows = lines[2:2 + height]
    if len(rows) != height:
        raise ValueError(f"expected {height} map rows, found {len(rows)}")
    blocked = []
    starts: list[tuple[int, int]] = []
    goals: set = set()
    for y, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"row {y} has length {len(row)}, expected {width}")
        bad = next((x for x, ch in enumerate(row) if ch not in "#.*@"), None)
        if bad is not None:
            raise ValueError(f"unknown map character {row[bad]!r} at ({bad},{y})")
        blocked.append([ch == "#" for ch in row])
        goals.update((x, y) for x, ch in enumerate(row) if ch == "*")
        starts += [(x, y) for x, ch in enumerate(row) if ch == "@"]
    if not goals:
        raise ValueError("map has no goal cells")
    if not starts:
        raise ValueError("map has no start cells")
    return RacetrackInstance(width, height, blocked, starts, goals, name=name)


# A right-turn track: a 3-wide straight with a long run-off, a hard right
# turn into a 3-wide climb, goals across the top of the climb. The run-off
# forgives moderate overshoot, but fast states past it cannot brake in time:
# several hundred reachable non-crashed states are true dead ends.
RIGHT_TURN_TRACK = "\n".join(
    ["racetrack v1",
     "width 38 height 10",
     "#" * 38]
    + ["#" * 14 + ("***" if r == 1 else "...") + "#" * 21 for r in range(1, 6)]
    + ["#" + "@" * 5 + "." * 31 + "#" for r in range(6, 9)]
    + ["#" * 38]
) + "\n"


def right_turn_track() -> RacetrackInstance:
    return load(RIGHT_TURN_TRACK, is_text=True, name="right-turn")
