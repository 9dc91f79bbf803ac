#!/usr/bin/env python3
"""Kernel microbench: forms.substitute_pwn on the n! children at levels 1
and 2, forms.substitute_linear on certificate entries,
engine.verify_certificate on whole certificates, and forms.evaluate at
points of the simplex.

    python3 scripts/kernel_bench.py [--src DIR] [--baseline DIR] [--repeat K]

For the breadth workload's pd-5232 form (4 variables, degree 2), its
square (degree 4) and example3-p6 (3 variables, degree 24), level 1
substitutes the form by all n! permutations, and level 2 substitutes each
level-1 child by all n! permutations.  Degree 2 takes the kernel's
quadratic route, so the pd-5232 rows time that route and the squared rows
the Taylor shifts at n = 4.  The substitute_linear rows time the
verifier's expansion of f(M·T), M an entry's chain matrix from
`matrices.chain_vertices`: the six depth-1 entries of example3-p5's
certificate, the 16 entries (depths 1 to 3) of example1's, and
(x+y+z+w)^12 on the chain (7, 13, 2).  The verify_certificate rows time
`engine.verify_certificate` on a whole certificate, one walk of its
tree: example3-p5's six depth-1 entries and the breadth form pd-4413's
2,715 entries (depth 4).  The evaluate rows time
example3-p5 at 500 seeded random points of the simplex (drawn as the
oracle's random search draws them), example3-p6 at the 325 points of
the denominator-24 grid, and x^1000+y^1000 at 50 seeded random points.
Each row is timed K times with the garbage collector off, each timing a
batch that repeats the row's calls for at least 50 ms; the best batch
over its number of calls is reported in µs per call (per point for
evaluate).  Prints one JSON line.  --src names the source tree sds is
imported from (default: this checkout's src).  --baseline names a second
source tree, for example a clone of the parent commit: both are loaded
into this one process and their batches alternate, so drift of the
machine hits both alike, and each figure gets a `baseline_` twin.
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
import random
import sys
import time
from fractions import Fraction
from itertools import permutations

ROOT = pathlib.Path(__file__).resolve().parents[1]
# the first two forms of BREADTH in perfbench/workloads.py
PD_4413 = "(4*x-4*y)^2+(1*y-4*z)^2+(3*z-1*w)^2+1/30*(x+y+z+w)^2"
PD_5232 = "(2*x-5*y)^2+(3*y-2*z)^2+(2*z-3*w)^2+1/30*(x+y+z+w)^2"
MIN_BATCH_S = 0.05
EVALUATE_SEED = 14


def load(src: str, name: str):
    """The sds package under `src`, imported as `name` so two trees can sit side by side."""
    package = pathlib.Path(src) / "sds"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.forms"), package


def random_points(rng: random.Random, n: int, count: int) -> list:
    points = []
    while len(points) < count:
        d = rng.randint(1, 10**4)
        parts = [rng.randint(0, d) for _ in range(n)]
        if sum(parts):
            points.append(tuple(Fraction(a, sum(parts)) for a in parts))
    return points


def rows(forms, package: pathlib.Path) -> dict:
    """Each group's rows, a row being (function, argument tuples, unit of one call)."""
    engine, matrices, corpus_module = (importlib.import_module(forms.__name__.replace(".forms", f".{m}"))
                                       for m in ("engine", "matrices", "corpus"))

    def corpus(name):
        text = (package / "corpus_data" / f"{name}.txt").read_text(encoding="utf-8")
        return forms.parse_form(text, ["x", "y", "z"])

    def linear(f, chains):
        """(f, rows of the chain's matrix) for each chain."""
        out = []
        for chain in chains:
            verts, den = matrices.chain_vertices(chain, f.nvars)
            out.append((f, [[Fraction(x, den) for x in row] for row in zip(*verts)]))
        return out

    def certificate(f):
        return engine.yys_decide(f, engine.EngineConfig(emit_certificate=True)).certificate

    def certificate_chains(f):
        return [chain for chain, _ in certificate(f)]

    out = {}
    xyzw = ["x", "y", "z", "w"]
    for name, f in (("pd-5232", forms.parse_form(PD_5232, xyzw)),
                    ("pd-5232-squared", forms.parse_form(f"({PD_5232})^2", xyzw)),
                    ("example3-p6", corpus("example3-p6"))):
        perms = list(permutations(range(1, f.nvars + 1)))
        level1 = [forms.substitute_pwn(f, p) for p in perms]
        out[name] = {f"level{k}": (forms.substitute_pwn, [(g, p) for g in level for p in perms], "call")
                     for k, level in ((1, [f]), (2, level1))}
    example1 = forms.parse_form(corpus_module.EXAMPLE1_TEXT, ["x", "y", "z"])
    entries = {
        "p5_cert6": linear(corpus("example3-p5"), certificate_chains(corpus("example3-p5"))),
        "example1_cert16": linear(example1, certificate_chains(example1)),
        "xyzw12_chain7_13_2": linear(forms.parse_form("(x+y+z+w)^12", xyzw), [(7, 13, 2)]),
    }
    out["substitute_linear"] = {row: (forms.substitute_linear, calls, "call") for row, calls in entries.items()}
    certified = {"p5_cert6": corpus("example3-p5"), "pd4413_cert2715": forms.parse_form(PD_4413, xyzw)}
    out["verify_certificate"] = {row: (engine.verify_certificate, [(f, certificate(f))], "call")
                                 for row, f in certified.items()}
    rng = random.Random(EVALUATE_SEED)
    grid = [(Fraction(a, 24), Fraction(b, 24), Fraction(24 - a - b, 24))
            for a in range(25) for b in range(25 - a)]
    points = {
        "p5_random500": (corpus("example3-p5"), random_points(rng, 3, 500)),
        "p6_grid24": (corpus("example3-p6"), grid),
        "x1000_random50": (forms.parse_form("x^1000+y^1000", ["x", "y"]), random_points(rng, 2, 50)),
    }
    out["evaluate"] = {row: (forms.evaluate, [(f, p) for p in pts], "point")
                       for row, (f, pts) in points.items()}
    return out


def batch(fn, calls, loops: int) -> float:
    gc.disable()
    start = time.perf_counter()
    for _ in range(loops):
        for args in calls:
            fn(*args)
    elapsed = time.perf_counter() - start
    gc.enable()
    return elapsed


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(ROOT / "src"), help="source tree to import sds from")
    ap.add_argument("--baseline", default=None, help="a second source tree, timed alternately")
    ap.add_argument("--repeat", type=int, default=7, help="timed batches per row; the best counts")
    args = ap.parse_args()

    trees = {"": rows(*load(args.src, "sds_bench"))}
    if args.baseline:
        trees["baseline_"] = rows(*load(args.baseline, "sds_baseline"))
    result = {"python": platform.python_version(), "machine": platform.machine(), "repeat": args.repeat}
    for group, group_rows in trees[""].items():
        result[group] = {}
        for row, (_, _, unit) in group_rows.items():
            calls = {}
            for prefix, tree in trees.items():
                fn, args_list, _ = tree[group][row]
                loops = max(1, math.ceil(MIN_BATCH_S / batch(fn, args_list, 1)))
                calls[prefix] = (fn, args_list, loops)
            best = dict.fromkeys(calls, float("inf"))
            for r in range(args.repeat):
                for prefix in (list(calls) if r % 2 == 0 else list(reversed(calls))):
                    fn, args_list, loops = calls[prefix]
                    best[prefix] = min(best[prefix], batch(fn, args_list, loops))
            for prefix, (_, args_list, loops) in calls.items():
                per_call = best[prefix] / (loops * len(args_list))
                result[group][f"{prefix}{row}_us_per_{unit}"] = round(per_call * 1e6, 2)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
