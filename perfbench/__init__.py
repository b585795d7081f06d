"""Benchmark of the swarmgame command line: workloads, oracles and tracer.

Run it from the repository root:

    python3 perfbench/run.py --workload cost-curve --seed 1 --seconds 30 --trace 0

See ``perfbench/run.py`` for the workloads and the metrics it prints.
"""
