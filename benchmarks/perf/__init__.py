"""The repo's performance benchmark (see README.md beside this file).

``python3 benchmarks/perf/run.py`` is the single entry point; the root
``BENCHMARK.json`` names the workloads and metrics it reports.
"""
