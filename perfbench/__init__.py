"""The repository benchmark: fixed DGC workloads, end-to-end and per-layer
metrics, correctness checked before anything is reported.

Run it from the repository root::

    python3 perfbench/run.py --workload torture --seed 1 --seconds 20 --trace 0

``BENCHMARK.json`` lists the workloads and metrics; ``perfbench/README.md``
explains them.  Nothing in this package imports :mod:`repro` at module
level: the benchmark's set-up time starts at the first ``import repro``
of a fresh measurement process.
"""
