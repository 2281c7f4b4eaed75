"""Search domains: Airspace, Racetrack, random DAGs, and brute-force oracles."""
