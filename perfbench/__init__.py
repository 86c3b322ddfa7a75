"""The repository's benchmark: seeded workloads, metrics and traced runs.

Run ``python3 perfbench/run.py --help`` from the checkout root; the
workloads are described in ``perfbench/README.md``.
"""
