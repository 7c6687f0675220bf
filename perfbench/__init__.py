"""Benchmark of vologcalc: seeded workloads, exact checks and layer tracing."""
