"""The Airspace benchmark world.

A two dimensional corridor: the agent has a distance cell d and an altitude
a, starts at (0, 0), and is done once d reaches the corridor length. Each
step it may raise, keep, or lower its altitude by one; it then advances by
its new altitude, so height is speed. Altitudes 0 and 1 are always clear;
every higher row is seeded with obstacles independently with probability
p_obs. A move is legal only when every cell swept by the straight segment
between the two states is clear, which makes high-altitude flight fast but
riddled with dead ends, while the low rows form a safe corridor: the
likely-safe predicate accepts altitudes 0 and 1, and the safety distance
estimate of a state is its altitude minus one.

Successors come from one move-code byte per column and altitude, built on
the altitude's first successor call: bit i of the code says whether the
i-th move from that altitude, in action order, is legal from that column,
and each code maps to the (delta, new altitude) moves it allows.
"""
from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from ..rng import SplitMix64, uniform_below
from .base import read_v1

CLIMB, KEEP, DIVE = 1, 0, -1
_DELTAS = (CLIMB, KEEP, DIVE)


def collision_probability(altitude: int, p_obs: float) -> float:
    """Chance that an altitude-keeping step at the given altitude collides.

    A keep action sweeps `altitude` fresh cells, each independently an
    obstacle with probability p_obs, hence 1 - (1 - p_obs) ** altitude.
    """
    if altitude < 0:
        raise ValueError("altitude must be nonnegative")
    if not 0.0 <= p_obs < 1.0:
        raise ValueError("p_obs must lie in [0, 1)")
    return 1.0 - (1.0 - p_obs) ** altitude


@dataclass(frozen=True, eq=False)
class AirspaceInstance:
    """Immutable Airspace world; also the domain handle for the planners.

    Obstacle rows cover altitudes 2..max_altitude (row index a - 2). States
    are (d, a) tuples; goal states have d == length (overshoot is clamped).
    """

    length: int
    max_altitude: int
    p_obs: float
    seed: int
    grid: InitVar[np.ndarray]  # bool, shape (max_altitude - 1, length); True = blocked

    # the grid at one bit per cell, read-only: np.packbits(grid, axis=1), so
    # cell d of a row is bit 7 - d % 8 of its byte d // 8, and each row is
    # zero-padded to whole bytes
    _packed: np.ndarray = field(init=False, repr=False)
    # a -> (one move code per column, the (delta, a2) moves of each code)
    _move_ok: dict = field(default_factory=dict, init=False, repr=False)
    _free_cols: dict[int, np.ndarray] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self, grid: np.ndarray) -> None:
        packed = np.packbits(grid, axis=1)
        packed.flags.writeable = False
        object.__setattr__(self, "_packed", packed)

    # -- bookkeeping -------------------------------------------------------

    @property
    def instance_id(self) -> str:
        return (f"airspace-L{self.length}-A{self.max_altitude}"
                f"-p{self.p_obs:g}-s{self.seed}")

    @property
    def start(self) -> tuple[int, int]:
        return (0, 0)

    @property
    def obstacles(self) -> np.ndarray:
        """The bool grid the instance was built from, unpacked on each call
        into a read-only array."""
        grid = np.unpackbits(self._packed, axis=1, count=self.length).view(bool)
        grid.flags.writeable = False
        return grid

    def _move_table(self, a: int) -> tuple:
        """Build and keep altitude a's move table: the column codes as
        bytes, and per code its (delta, a2) moves in action order.

        A move a -> a2 spans a2 columns (the step advances by the new
        altitude); the altitude over column d+k is interpolated linearly
        and rounded half up, so it lies within a-1..a+1. Bit i of column
        d's code is set when every cell the i-th move sweeps from d is
        clear. Columns at or beyond the goal line and rows at altitude
        <= 1 are always clear.
        """
        length = self.length
        moves = [(delta, a + delta) for delta in _DELTAS
                 if 0 <= a + delta <= self.max_altitude]
        low = max(a - 1, 2)
        # the swept rows' clear cells, altitude low + i in row i
        clear = np.unpackbits(self._packed[low - 2:a], axis=1, count=length) == 0
        codes = np.zeros(length, dtype=np.uint8)
        for i, (_delta, a2) in enumerate(moves):
            ok = np.ones(length, dtype=bool)
            for k in range(1, min(a2 + 1, length)):
                alt_k = ((a * a2 + (a2 - a) * k) * 2 + a2) // (2 * a2)
                if alt_k >= 2:
                    ok[:length - k] &= clear[alt_k - low, k:]
            codes |= ok.astype(np.uint8) << i
        # bytes index to small ints in one step and cost a byte per column
        table = self._move_ok[a] = (codes.tobytes(), tuple(
            tuple(move for i, move in enumerate(moves) if code >> i & 1)
            for code in range(1 << len(moves))))
        return table

    # -- domain handle -----------------------------------------------------

    def successors(self, state) -> list:
        d, a = state
        length = self.length
        if d >= length:
            return []
        table = self._move_ok.get(a)
        if table is None:
            table = self._move_table(a)
        codes, moves = table
        out = []
        for delta, a2 in moves[codes[d]]:
            d2 = d + a2
            out.append((delta, (d2 if d2 < length else length, a2), 1.0))
        return out

    def is_goal(self, state) -> bool:
        return state[0] >= self.length

    def is_terminal(self, state) -> bool:
        return False

    def h(self, state) -> float:
        return (self.length - state[0]) / self.max_altitude if state[0] < self.length else 0.0

    def d_safe(self, state) -> float:
        a = state[1]
        return a - 1.0 if a > 1 else 0.0

    def f_safe(self, state) -> bool:
        return state[1] <= 1

    def identity_action(self, state):
        d, a = state
        return KEEP if a == 0 and d < self.length else None

    def travel_distance(self, start, end) -> float:
        return float(end[0] - start[0])

    # -- enumeration and sampling ------------------------------------------

    def all_states(self) -> list:
        states = [(d, a) for a in range(self.max_altitude + 1)
                  for d in self.free_columns(a).tolist()]
        states.extend((self.length, a) for a in range(self.max_altitude + 1))
        return states

    def free_columns(self, altitude: int) -> np.ndarray:
        cols = self._free_cols.get(altitude)
        if cols is None:
            if altitude <= 1:
                cols = np.arange(self.length)
            else:
                row = np.unpackbits(self._packed[altitude - 2], count=self.length)
                cols = np.flatnonzero(row == 0)
            self._free_cols[altitude] = cols
        return cols

    def sample_state(self, altitude: int, rng: SplitMix64):
        cols = self.free_columns(altitude)
        if len(cols) == 0:
            return None
        return (int(cols[rng.randrange(len(cols))]), altitude)

    # -- serialization -----------------------------------------------------

    def to_text(self) -> str:
        lines = ["airspace v1",
                 f"length {self.length} maxAltitude {self.max_altitude} "
                 f"pObs {self.p_obs!r} seed {self.seed}"]
        grid = np.where(self.obstacles, np.uint8(ord("#")), np.uint8(ord(".")))
        lines.extend(row.tobytes().decode("ascii") for row in grid)
        return "\n".join(lines) + "\n"


def _check_parameters(length: int, max_altitude: int, p_obs: float) -> None:
    """The parameter ranges of an instance, generated or loaded."""
    if length < 1:
        raise ValueError("length must be >= 1")
    if max_altitude < 1:
        raise ValueError("max_altitude must be >= 1")
    if not 0.0 <= p_obs < 1.0:
        raise ValueError("p_obs must lie in [0, 1)")


def generate(length: int, max_altitude: int, p_obs: float, seed: int) -> AirspaceInstance:
    """Deterministically generate an Airspace instance.

    One SplitMix64 stream seeded with `seed` is consumed row-major over
    altitudes 2..max_altitude (outer) and distance 0..length-1 (inner);
    a cell is an obstacle iff its draw falls below p_obs. Instances are
    bit-identical for equal parameters.
    """
    _check_parameters(length, max_altitude, p_obs)
    rows = max_altitude - 1
    grid = uniform_below(seed, rows * length, p_obs).reshape(rows, length)
    return AirspaceInstance(length, max_altitude, p_obs, seed, grid)


@dataclass(frozen=True)
class AltitudeStats:
    """One `rtss stats` CSV row; its fields in camelCase are the header."""

    altitude: int
    samples: int
    safety_probability: float
    mean_proof_length_states: float
    mean_proof_length_transitions: float
    mean_successful_proof_expansions: float
    mean_failed_proof_expansions: float


def safety_proof_stats(instance: AirspaceInstance, samples_per_altitude: int,
                       seed: int) -> list[AltitudeStats]:
    """Empirical difficulty of safety proofs, per altitude.

    Random free cells at each altitude from 3 up are proven with an
    effectively unbounded budget. All proofs share one empty cache: a proof
    only reads the flags, and nothing here sets one. Proof length is
    reported two ways: transitions along the proven path, and states
    counted through touchdown at altitude 0 (the path's safe endpoint sits
    at altitude 1 and its final descent to ground always exists, so that is
    transitions + 2).
    """
    from ..safety import DeadEndCache, Proven, prove_safety

    if samples_per_altitude < 1:
        raise ValueError("samples_per_altitude (rtss stats --samples) must be >= 1")
    rng = SplitMix64(seed)
    cache = DeadEndCache()
    rows = []
    for altitude in range(3, instance.max_altitude + 1):
        proven = []     # (transitions, expansions) of each proven sample
        failed = []     # expansions of each failed proof
        for _ in range(samples_per_altitude):
            state = instance.sample_state(altitude, rng)
            if state is None:
                continue
            result = prove_safety(state, 1_000_000, instance, cache)
            if isinstance(result, Proven):
                proven.append((len(result.path) - 1, result.expansions))
            else:
                failed.append(result.expansions)
        total = len(proven) + len(failed)
        mean_tr, mean_proven, mean_failed = (
            sum(xs) / len(xs) if xs else math.nan
            for xs in ([t for t, _ in proven], [e for _, e in proven], failed))
        rows.append(AltitudeStats(
            altitude=altitude,
            samples=total,
            safety_probability=len(proven) / total if total else math.nan,
            mean_proof_length_states=mean_tr + 2,
            mean_proof_length_transitions=mean_tr,
            mean_successful_proof_expansions=mean_proven,
            mean_failed_proof_expansions=mean_failed,
        ))
    return rows


def write_instance(instance: AirspaceInstance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(instance.to_text())


def load_instance(path_or_text: str, *, is_text: bool = False) -> AirspaceInstance:
    """Parse an Airspace instance file; the grid body is authoritative."""
    (length, max_altitude, p_obs, seed), lines = read_v1(
        path_or_text, is_text, "airspace", length=int, maxAltitude=int, pObs=float, seed=int)
    try:
        _check_parameters(length, max_altitude, p_obs)
    except ValueError as exc:
        raise ValueError(f"airspace header {lines[1]!r}: {exc}") from None
    rows = max_altitude - 1
    body = lines[2:2 + rows]
    if len(body) != rows:
        raise ValueError(f"expected {rows} grid rows, found {len(body)}")
    for r, row in enumerate(body):
        if len(row) != length or set(row) - {".", "#"}:
            raise ValueError(f"bad grid row {r}: {row!r}")
    # every row is checked, so the grid is as large as the body, whatever
    # the header declares
    grid = np.frombuffer("".join(body).encode("ascii"), dtype=np.uint8) == ord("#")
    return AirspaceInstance(length, max_altitude, p_obs, seed, grid.reshape(rows, length))
