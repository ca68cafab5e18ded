"""End-to-end, per-layer benchmark of whole scenario runs.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root.  ``--trace 0`` reports the
end-to-end metrics of untraced runs; ``--trace 1`` reports per-layer
metrics from a separate traced run.  See ``perfbench/README.md``.
"""
