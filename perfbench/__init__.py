"""Wall-clock and simulated-cost benchmark of the UniStore reproduction.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
runs one workload; see ``perfbench/README.md``.
"""
