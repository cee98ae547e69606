"""The repository benchmark: four user workloads timed end to end and per layer.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload; see :mod:`perfbench.run`.
"""
