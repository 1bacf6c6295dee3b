"""perfbench: the repository's benchmark (see perfbench/README.md).

Six workloads, two clocks (host wall time and the simulator's own
clock), per-layer spans recorded from outside the program.  Run
``python3 -m perfbench --seed 0`` from the repository root.
"""
