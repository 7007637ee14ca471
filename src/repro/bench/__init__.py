"""Benchmark harness regenerating the paper's evaluation figures."""
