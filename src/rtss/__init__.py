"""Real-time safe heuristic search: planners, domains, oracles, harness."""
