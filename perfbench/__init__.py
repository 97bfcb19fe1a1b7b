"""FlexiQ benchmark: workloads, traced layer boundaries and output checks.

Run ``python3 perfbench/run.py --help``; ``BENCHMARK.json`` at the repository
root lists the workloads and metrics.
"""
