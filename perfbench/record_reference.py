#!/usr/bin/env python3
"""Write reference.json: the min_margin of every verifier call in the lemma sweep.

    PYTHONPATH=src python3 perfbench/record_reference.py

The lemma-sweep check requires each verifier to reproduce these values to
QuadratureConfig's tolerance, so they are recorded once from a trusted commit
and re-recorded only when the sweep's grids change.
"""
import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def main() -> int:
    ref = {}
    for op in workloads.sweep_ops(seed=0, n_points=0):
        if op.kind != "chart":
            ref[workloads.op_label(op)] = workloads.run_op(op).min_margin
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
