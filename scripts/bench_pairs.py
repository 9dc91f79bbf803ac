"""Run the benchmark in alternating before/after pairs and write BENCH json.

    python3 scripts/bench_pairs.py --before DIR --after DIR \
        --workload refute --seeds 11-20 --out BENCH_<n>.json

DIR is a checkout (e.g. from `git clone` at the parent commit).  For each
seed, `perfbench/run.py --workload W --seed N` runs once in each checkout,
the before side first on even pair indices and the after side first on
odd ones, so slow drift of the machine hits both sides alike.  The
end-to-end metrics of every run are kept, and per metric the file records
both medians, the before side's interquartile range and how many pairs the
after side won.  Each run's first pass time (the first figure of the
`wall_s ... passes:` line) is kept too, and the smallest per side is
recorded: `run.py` fails when a first pass ends before its first reference
sample at 0.25 s, so a side whose smallest first pass is under
FIRST_PASS_MARGIN_S gets a FLAG line on stderr.  An existing output file
gains the workload as a new key.
A run that exits non-zero or fails its checks is kept in its pair under
`failed` (side, exit code, last stderr line) and the session goes on; the
summary counts the failed runs per side, is taken over the pairs whose two
runs both succeeded, and the script exits 1 once the file is written.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

FIRST_PASS_MARGIN_S = 0.30  # perfbench/run.py fails below 0.25 s (REFERENCE_INTERVAL_S)


def run(checkout: str, workload: str, seed: int) -> tuple:
    """(metrics, first pass seconds), or (None, {"exit": code, "stderr": last line}) for a failed run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)],
        cwd=checkout, capture_output=True, text=True,
    )
    last = (proc.stderr.strip().splitlines() or [""])[-1]
    if proc.returncode:
        return None, {"exit": proc.returncode, "stderr": last}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        return None, {"exit": proc.returncode, "stderr": last or "failed its checks"}
    wall = next(line for line in proc.stdout.splitlines() if line.strip().startswith("wall_s"))
    first_pass = float(wall.split("passes:")[1].split()[0])
    return {name: m["value"] for name, m in result["metrics"].items()}, first_pass


def seeds(spec: str) -> list:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(before: list, after: list) -> dict:
    # every end-to-end metric of BENCHMARK.json is better when lower
    q1, _, q3 = statistics.quantiles(before, n=4)
    wins = sum(a < b for b, a in zip(before, after))
    return {"before_median": statistics.median(before), "after_median": statistics.median(after),
            "before_iqr": q3 - q1, "after_wins": wins, "pairs": len(before)}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before", required=True)
    ap.add_argument("--after", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="N or N-M")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    pairs = []
    for k, seed in enumerate(seeds(args.seeds)):
        sides = [("before", args.before), ("after", args.after)]
        pair = {"seed": seed, "first_pass_s": {}}
        for side, checkout in sides if k % 2 == 0 else reversed(sides):
            metrics, detail = run(checkout, args.workload, seed)
            if metrics is None:
                pair.setdefault("failed", {})[side] = detail
                print(f"FAILED: {checkout}: workload {args.workload} seed {seed} exited "
                      f"{detail['exit']}: {detail['stderr']}", file=sys.stderr, flush=True)
            else:
                pair[side], pair["first_pass_s"][side] = metrics, detail
        print(json.dumps(pair), flush=True)
        pairs.append(pair)
    whole = [p for p in pairs if "failed" not in p]
    metrics = {
        name: summary([p["before"][name] for p in whole], [p["after"][name] for p in whole])
        for name in (whole[0]["before"] if len(whole) >= 2 else ())
    }
    failed = {side: sum(side in p.get("failed", ()) for p in pairs) for side in ("before", "after")}
    doc = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            doc = json.load(fh)
    doc["env"] = {"python": platform.python_version(), "machine": platform.machine(),
                  "cpus": os.cpu_count()}
    first = {side: min((p["first_pass_s"][side] for p in pairs if side in p["first_pass_s"]), default=None)
             for side in ("before", "after")}
    for side, seconds in first.items():
        if seconds is not None and seconds < FIRST_PASS_MARGIN_S:
            print(f"FLAG: {args.workload} {side} first pass {seconds} s is under {FIRST_PASS_MARGIN_S} s; "
                  "perfbench/run.py fails below 0.25 s", file=sys.stderr)
    doc[args.workload] = {"pairs": pairs, "summary": metrics, "min_first_pass_s": first, "failed_runs": failed}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    if any(failed.values()):
        raise SystemExit(f"{args.workload}: failed runs before {failed['before']}, after {failed['after']}")


if __name__ == "__main__":
    main()
