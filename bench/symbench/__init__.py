"""Benchmark harness for symchain: workloads, input generators, tracing and the correctness gate."""
