"""The repository benchmark: four user workloads with a traced per-layer split.

Run it from the repository root::

    python3 perfbench/run.py --workload search --seed 1 --seconds 15 --trace 0

See ``perfbench/README.md`` for the workloads, the metrics and how to
read a traced run.
"""
