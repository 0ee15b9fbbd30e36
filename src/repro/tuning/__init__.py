"""Benchmark reporting.

``zkrownn bench-report`` (:mod:`repro.tuning.report`) consolidates the
``BENCH_*.json`` files the benchmarks emit into one trend table.
"""
