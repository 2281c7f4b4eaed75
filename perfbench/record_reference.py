"""Record the reference result of every operation in the input pool.

Run from the root of a checkout whose results are to be the reference:

    python3 perfbench/record_reference.py

It writes `perfbench/reference.json`: for each workload, a map from row key
to [row digest, total expansions]. Every benchmark run checks its rows
against this file, so a change that alters any result fails the benchmark
until the change is argued as a change in behaviour and this file is
recorded again.
"""
from __future__ import annotations

import json
import os
import sys
from multiprocessing import get_context

from run import import_rtss
from workloads import (POOL, REFERENCE_PATH, AirspaceEpisodes, GridJobs2,
                       ProofStats)

SRC = os.path.join(os.getcwd(), "src")


class NoProbe:
    """Stands in for the timing probe: runs grids without wrapping anything."""

    label = ""

    @staticmethod
    def run_grid(run_experiment, config, jobs):
        return run_experiment(config, jobs=jobs)


def _airspace_rows(inst_seed: int) -> list:
    rt = import_rtss(SRC)
    workload = AirspaceEpisodes()
    inst = rt.airspace.generate(workload.LENGTH, workload.ALTITUDE, workload.P_OBS,
                                inst_seed)
    block = [(inst_seed, inst, config) for config in workload.configs(rt)]
    return workload.run(rt, block, NoProbe).rows


def _proof_rows(inst_seed: int) -> list:
    rt = import_rtss(SRC)
    workload = ProofStats()
    inst = rt.airspace.generate(workload.LENGTH, workload.ALTITUDE, workload.P_OBS,
                                inst_seed)
    return workload.run(rt, (inst_seed, inst), NoProbe).rows


def _grid_rows(rt) -> list:
    """Both grids over the whole pool; row keys do not depend on grouping."""
    workload = GridJobs2()
    oracle, race = workload.build(rt, 0)[0]
    oracle.domain["seeds"] = list(POOL)
    return workload.run(rt, (oracle, race), NoProbe).rows


def main() -> int:
    reference = {}
    with get_context("fork").Pool(2) as pool:
        for name, job in (("airspace-episodes", _airspace_rows),
                          ("proof-stats", _proof_rows)):
            rows = [row for chunk in pool.map(job, POOL) for row in chunk]
            reference[name] = {key: [row_digest, expansions]
                               for key, row_digest, expansions in rows}
            print(f"{name}: {len(rows)} rows", file=sys.stderr)
    rows = _grid_rows(import_rtss(SRC))
    reference["grid-jobs2"] = {key: [row_digest, expansions]
                               for key, row_digest, expansions in rows}
    print(f"grid-jobs2: {len(rows)} rows", file=sys.stderr)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as f:
        json.dump(reference, f, indent=0, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
