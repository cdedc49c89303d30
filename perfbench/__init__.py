"""The repository benchmark: seeded ALG workloads measured end to end and per layer.

Run one workload from the repository root with::

    python3 perfbench/run.py --workload hotspot-d4 --seed 1 --seconds 12 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
split.  The last line of standard output is one JSON object; the lines
before it are a human-readable table.  ``LAYERS.md`` in this directory
records why each workload exists and which end-to-end metric each layer
metric should move.
"""
