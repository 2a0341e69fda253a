"""Benchmark harness for liqimpact: seeded workloads, outside-in tracing, parent/change comparison."""
