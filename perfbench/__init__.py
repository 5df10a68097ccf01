"""shiftlab benchmark: seeded workloads, output checks and a traced per-layer run."""
