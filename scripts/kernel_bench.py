#!/usr/bin/env python3
"""Kernel microbench: forms.substitute_pwn on the n! children at levels 1 and 2.

    python3 scripts/kernel_bench.py [--src DIR] [--baseline DIR] [--repeat K]

For the breadth workload's pd-5232 form (4 variables, degree 2) and for
example3-p6 (3 variables, degree 24), level 1 substitutes the form by all
n! permutations, and level 2 substitutes each level-1 child by all n!
permutations.  Each level is timed K times with the garbage collector off,
each timing a batch that repeats the level's calls for at least 50 ms; the
best batch over its number of calls is reported in µs per call.  Prints
one JSON line.  --src names the source tree sds is imported from (default:
this checkout's src).  --baseline names a second source tree, for example
a clone of the parent commit: both are loaded into this one process and
their batches alternate, so drift of the machine hits both alike, and each
figure gets a `baseline_` twin.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import json
import math
import pathlib
import platform
import sys
import time
from itertools import permutations

ROOT = pathlib.Path(__file__).resolve().parents[1]
# the second form of BREADTH in perfbench/workloads.py
PD_5232 = "(2*x-5*y)^2+(3*y-2*z)^2+(2*z-3*w)^2+1/30*(x+y+z+w)^2"
MIN_BATCH_S = 0.05


def load(src: str, name: str):
    """The sds package under `src`, imported as `name` so two trees can sit side by side."""
    package = pathlib.Path(src) / "sds"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.forms"), package


def levels(forms, package: pathlib.Path) -> dict:
    """For each input form: (substitute, level-1 forms, level-2 forms, perms)."""
    p6 = (package / "corpus_data" / "example3-p6.txt").read_text(encoding="utf-8")
    inputs = {
        "pd-5232": forms.parse_form(PD_5232, ["x", "y", "z", "w"]),
        "example3-p6": forms.parse_form(p6, ["x", "y", "z"]),
    }
    out = {}
    for name, f in inputs.items():
        perms = list(permutations(range(1, f.nvars + 1)))
        out[name] = (forms.substitute_pwn, [f], [forms.substitute_pwn(f, p) for p in perms], perms)
    return out


def batch(substitute, forms, perms, loops: int) -> float:
    gc.disable()
    start = time.perf_counter()
    for _ in range(loops):
        for f in forms:
            for p in perms:
                substitute(f, p)
    elapsed = time.perf_counter() - start
    gc.enable()
    return elapsed


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(ROOT / "src"), help="source tree to import sds from")
    ap.add_argument("--baseline", default=None, help="a second source tree, timed alternately")
    ap.add_argument("--repeat", type=int, default=7, help="timed batches per level; the best counts")
    args = ap.parse_args()

    trees = {"": levels(*load(args.src, "sds_bench"))}
    if args.baseline:
        trees["baseline_"] = levels(*load(args.baseline, "sds_baseline"))
    result = {"python": platform.python_version(), "machine": platform.machine(), "repeat": args.repeat}
    for name in trees[""]:
        result[name] = {}
        for level in (1, 2):
            calls = {}
            for prefix, tree in trees.items():
                substitute, level1, level2, perms = tree[name]
                forms = level1 if level == 1 else level2
                loops = max(1, math.ceil(MIN_BATCH_S / batch(substitute, forms, perms, 1)))
                calls[prefix] = (substitute, forms, perms, loops)
            best = dict.fromkeys(calls, float("inf"))
            for r in range(args.repeat):
                for prefix in (list(calls) if r % 2 == 0 else list(reversed(calls))):
                    substitute, forms, perms, loops = calls[prefix]
                    best[prefix] = min(best[prefix], batch(substitute, forms, perms, loops))
            for prefix, (_, forms, perms, loops) in calls.items():
                per_call = best[prefix] / (loops * len(forms) * len(perms))
                result[name][f"{prefix}level{level}_us_per_call"] = round(per_call * 1e6, 2)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
