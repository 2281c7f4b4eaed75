"""Machine-speed calibration: timings re-expressed at a fixed reference speed.

The processor speed a process gets on a shared machine can change by two
times within seconds, and that change does not show as steal time: the
process is running, only slower. A fixed pure-Python kernel (a Dijkstra
search over a small grid with a dict and a heap, the same kind of work as
rtss's search) is timed every INTERVAL_S while a workload runs, in the
process that does the work. Each wall time is then scaled by REFERENCE_S
over the kernel's time, so that it reads as the time the work would take on
a machine on which the kernel takes REFERENCE_S. A change in rtss moves the
scaled time as it moves the wall time; a change in machine speed moves the
kernel too and cancels out.

Step times (one planner decision, one safety proof) are measured in the
thread's CPU time instead, which leaves out the time the process waits
while the operating system or the hypervisor runs something else: on a
shared machine such waits land on a few steps at random and would decide
the tail of the step-time distribution. So the kernel is timed in thread
CPU time too, and an operation's step times are scaled by the mean of the
CPU-time factors measured during it: fully for the median, and for the
99th percentile to the power of the workload's `tail_exponent` (see
`workloads.py`).

The time spent in the kernel is left out of every timing.
"""
from __future__ import annotations

import heapq
import statistics
from time import perf_counter, thread_time

REFERENCE_S = 0.0025        # the kernel's time at the reference speed
INTERVAL_S = 0.2            # the longest a calibration is used
GRID = 30                   # the kernel searches a GRID x GRID grid
REPEATS = 3                 # kernel runs per calibration; the median counts


def kernel() -> int:
    dist = {(0, 0): 0}
    heap = [(0, 0, 0)]
    done = set()
    while heap:
        d, x, y = heapq.heappop(heap)
        if (x, y) in done:
            continue
        done.add((x, y))
        for nx, ny in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if 0 <= nx < GRID and 0 <= ny < GRID:
                nd = d + 1 + (nx * 7 + ny * 13) % 5
                if nd < dist.get((nx, ny), 1 << 30):
                    dist[(nx, ny)] = nd
                    heapq.heappush(heap, (nd, nx, ny))
    return len(done)


def kernel_seconds() -> tuple[float, float]:
    """The kernel's median wall time and median thread CPU time."""
    wall, cpu = [], []
    for _ in range(REPEATS):
        t0, c0 = perf_counter(), thread_time()
        kernel()
        cpu.append(thread_time() - c0)
        wall.append(perf_counter() - t0)
    return statistics.median(wall), statistics.median(cpu)


class SpeedClock:
    """The speed factor (REFERENCE_S over the kernel's wall time) of the
    latest calibration, every factor measured so far, every CPU-time factor
    (REFERENCE_S over the kernel's thread CPU time, for step times), and
    the seconds spent calibrating. `tick` is cheap: call it often from
    timed code, outside the timed sections, and it recalibrates once
    INTERVAL_S has passed."""

    def __init__(self):
        self.factors: list = []
        self.cpu_factors: list = []
        self.spent_s = 0.0
        self.factor = 1.0
        self.calibrate()

    def calibrate(self) -> None:
        t0 = perf_counter()
        wall_s, cpu_s = kernel_seconds()
        self.factor = REFERENCE_S / wall_s
        self.factors.append(self.factor)
        self.cpu_factors.append(REFERENCE_S / cpu_s)
        self._last = perf_counter()
        self.spent_s += self._last - t0

    def tick(self) -> None:
        if perf_counter() - self._last >= INTERVAL_S:
            self.calibrate()

    def kernel_ms(self) -> float:
        """The median kernel time of every calibration so far."""
        return REFERENCE_S / statistics.median(self.factors) * 1e3
