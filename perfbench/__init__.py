"""Benchmark of the panolayout CLI: fixed synthetic workloads, end-to-end job
metrics and a traced per-module run. Entry point: ``python3 perfbench/run.py``.
"""
