"""Repository benchmark: closed-loop HMVP workloads with a traced per-layer run.

Entry point: ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1``.  See ``perfbench/README.md`` for the workloads, the metrics and
the steadiness rules.
"""
