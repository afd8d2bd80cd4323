"""End-to-end serving benchmark for the SimRank query server.

Run ``python3 perfbench/run.py --workload <name> --seed <n>`` from the
repository root; see ``perfbench/README.md``.
"""
