"""The repository benchmark: whole-compile throughput and code quality.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload from the root of a checkout; see
``perfbench/README.md`` for the workloads, the metrics and what each
per-layer metric is expected to move.
"""
