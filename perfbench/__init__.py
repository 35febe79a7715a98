"""Repository benchmark: closed-loop API and service workloads.

Run one workload from the repository root::

    python3 perfbench/run.py --workload api-dense --seed 1 --seconds 20 --trace 0

See ``perfbench/README.md`` for the workloads, metrics and ledger rules.
Nothing in this package is imported by the program under test.
"""
