"""The repository benchmark: seeded mapping workloads, end to end and per layer."""
