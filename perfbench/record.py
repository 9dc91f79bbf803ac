#!/usr/bin/env python3
"""Record the current program's outputs as perfbench/expected.json.

    python3 perfbench/record.py

Runs every item of every workload once for each of RECORD_SEEDS, checks
that the recorded fields of each item agree across those seeds, runs the
self-certifying checks, and writes the summaries.  Re-run it only when a
change is meant to alter an output; the benchmark treats any difference
from the recorded file as a wrong output.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RECORD_SEEDS = (0, 1, 7)


def main() -> None:
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    import workloads

    expected = {}
    for name in workloads.WORKLOADS:
        recorded = {}
        for seed in RECORD_SEEDS:
            for item in workloads.build(name, seed):
                out, timing = item.run()
                summary = item.summary(out)
                problem = item.certify(out) if item.certify else None
                if problem is not None:
                    sys.exit(f"{name} {item.key} seed {seed}: {problem}")
                if recorded.setdefault(item.key, summary) != summary:
                    sys.exit(f"{name} {item.key}: seed {seed} changes {summary} "
                             f"from {recorded[item.key]}")
                print(f"{name:8s} seed {seed} {item.key:32s} {timing['total']:8.3f} s", flush=True)
        expected[name] = recorded
    with open(HERE / "expected.json", "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
