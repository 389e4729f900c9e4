"""The repository's benchmark: six workloads, end-to-end and per-layer metrics.

``python3 bench/run.py`` measures one workload for one seed (the
command ``BENCHMARK.json`` declares); ``python -m bench`` drives runs,
traced runs, comparisons and the committed baseline.  See README.md.
"""
