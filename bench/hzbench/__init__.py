"""Benchmark of the hopfzero engine: workloads, correctness checks and tracing.

Every function takes the imported `hopfzero` package as an argument instead of
importing it, because the runner imports the package afresh for each timed
set-up and objects of two imports must never meet.
"""
