"""The four workloads: seeded inputs, the calls each item makes, its checks.

Every call into sds goes through a module attribute (`engine.yys_decide`,
not a name imported from it), so the tracer's wrappers see it.  The seed
only relabels or permutes variables, picks among equivalent factors, or
seeds the random oracle: the set of P·W_n matrices is closed under
permutation, so the work of an item does not depend on the seed while its
inputs, chains and points do.  Coefficients are not drawn from the seed,
because the depth a near-zero form needs, and with it the work, depends
strongly on them.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Callable, Dict, List, Optional, Tuple

import sds.cli as cli
import sds.corpus as corpus
import sds.engine as engine
import sds.forms as forms
import sds.geometry as geometry
import sds.matrices as matrices
import sds.oracle as oracle

XYZ = ("x", "y", "z")
XYZW = ("x", "y", "z", "w")

# refute: indefinite forms in the style of acceptance criterion 6.  With the
# root check on they end at depth 0, so the check is off; (k, q, mode) are
# fixed so that the depth and work are too, and the seed picks the square.
FAMILY = ((6, 65536, "value"), (6, 1024, "coeffs"))
PAIRS = (("x", "y"), ("y", "z"), ("z", "x"))

# breadth: near-zero positive definite forms, and one that is zero at an
# interior point and so can only end Inconclusive
BREADTH = (
    ("pd-4413", "(4*x-4*y)^2+(1*y-4*z)^2+(3*z-1*w)^2+1/30*(x+y+z+w)^2", 10**6),
    ("pd-5232", "(2*x-5*y)^2+(3*y-2*z)^2+(2*z-3*w)^2+1/30*(x+y+z+w)^2", 10**6),
    ("zero-interior", "(3*x-2*y)^2+(4*y-3*z)^2+(5*z-4*w)^2", 20000),
)

GRID_DENOMINATOR = 24
RANDOM_TRIALS = 2000
RANDOM_CHUNKS = 4
DIAMETER = (3, 4)
# the counterexample point that `sds corpus example3-p6` reports
P6_POINT = (Fraction(391, 972), Fraction(587, 1944), Fraction(575, 1944))


@dataclass
class Item:
    """One call sequence of a workload and how to check what it returns.

    `run` returns the output and its timings: "total" plus whichever of
    "decide", "verify" and "sample" apply, and "threads" for CLI items.
    `summary` is compared with the output recorded in expected.json, so
    for a seeded item it holds only fields that no seed changes; `certify`
    is a check that needs no recording and returns an error or None.
    """

    key: str
    run: Callable[[], Tuple[object, Dict[str, float]]]
    summary: Callable[[object], dict]
    certify: Optional[Callable[[object], Optional[str]]] = None


def _stats(stats: engine.EngineStats) -> dict:
    return {
        "forms_expanded": stats.forms_expanded,
        "forms_pruned": stats.forms_pruned,
        "dedup_collapsed": stats.dedup_collapsed,
    }


def _verdict(v) -> dict:
    if isinstance(v, engine.PositiveSemidefinite):
        return {"kind": "positive_semidefinite", "depth": v.depth}
    if isinstance(v, engine.Counterexample):
        return {"kind": "counterexample", "depth": len(v.chain), "chain": list(v.chain),
                "point": [str(x) for x in v.point], "value": str(v.value)}
    return {"kind": "inconclusive", "depth_reached": v.depth_reached, "live_forms": v.live_forms}


def _check_counterexample(f, chain, point, value) -> Optional[str]:
    point = tuple(Fraction(x) for x in point)
    value = Fraction(value)
    if not forms.in_simplex(point):
        return f"point {point} is not in the simplex"
    if point != matrices.barycenter_image(chain, f.nvars):
        return f"point is not the barycenter image of chain {chain}"
    if not forms.evaluate(f, point) == value < 0:
        return f"F(point) != reported value {value} or not negative"
    return None


def _cli_item(key: str, argv: List[str], f: forms.Form) -> Item:
    def run():
        buf = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        total = time.perf_counter() - start
        report = json.loads(buf.getvalue())
        timing = {"total": total, "decide": report["stats"]["wall_time"],
                  "threads": report["config"]["threads"]}
        return (code, report), timing

    def summary(out):
        # as acceptance criterion 8: wall time and the thread echo vary
        code, report = out
        report = copy.deepcopy(report)
        del report["stats"]["wall_time"]
        del report["config"]["threads"]
        return {"exit": code, "report": report}

    def certify(out):
        verdict = out[1]["verdict"]
        if verdict["kind"] != "counterexample":
            return f"expected a counterexample, got {verdict['kind']}"
        return _check_counterexample(f, tuple(verdict["chain"]), verdict["point"], verdict["value"])

    return Item(key, run, summary, certify)


def _decide_item(key: str, f: forms.Form, cfg: engine.EngineConfig, invariant: Tuple[str, ...]) -> Item:
    """A decide call; `invariant` names the summary fields no seed changes."""

    def run():
        stats = engine.EngineStats()
        start = time.perf_counter()
        v = engine.yys_decide(f, cfg, stats)
        total = time.perf_counter() - start
        return (v, stats), {"total": total, "decide": total}

    def summary(out):
        v, stats = out
        full = {**_verdict(v), **_stats(stats)}
        return {k: full[k] for k in invariant if k in full}

    def certify(out):
        v = out[0]
        if isinstance(v, engine.Counterexample):
            return _check_counterexample(f, v.chain, v.point, v.value)
        return None

    return Item(key, run, summary, certify)


def _certificate_digest(cert) -> str:
    text = "\n".join(f"{list(chain)} {form.to_text(XYZ)}" for chain, form in sorted(cert))
    return hashlib.sha256(text.encode()).hexdigest()


def _certify_item(key: str, f: forms.Form, fixed: bool) -> Item:
    """Decide with a certificate, then verify it; `fixed` items over x, y, z
    also record a digest of the certificate's contents."""
    cfg = engine.EngineConfig(emit_certificate=True)

    def run():
        stats = engine.EngineStats()
        start = time.perf_counter()
        v = engine.yys_decide(f, cfg, stats)
        decided = time.perf_counter()
        ok = engine.verify_certificate(f, v.certificate) if v.certificate else False
        end = time.perf_counter()
        timing = {"total": end - start, "decide": decided - start, "verify": end - decided}
        return (v, stats, ok), timing

    def summary(out):
        v, stats, ok = out
        s = {**_verdict(v), **_stats(stats), "verified": ok}
        if isinstance(v, engine.PositiveSemidefinite) and v.certificate:
            s["entries"] = len(v.certificate)
            if fixed:
                s["digest"] = _certificate_digest(v.certificate)
        return s

    return Item(key, run, summary)


def _refute(seed: int) -> List[Item]:
    rng = random.Random(seed)
    items = [
        _cli_item("cli:example3-p6", ["corpus", "example3-p6", "--format", "json"],
                  corpus.corpus_form("example3-p6")),
        _cli_item("cli:example2-compat", ["corpus", "example2", "--compat", "--format", "json"],
                  corpus.corpus_form("example2")),
    ]
    for k, q, mode in FAMILY:
        a, b = rng.choice(PAIRS)
        text = f"({a} - {b})^2 * (x + y + z)^{k} - 1/{q}*(x + y + z)^{k + 2}"
        cfg = engine.EngineConfig(root_check=False, negativity_mode=mode)
        items.append(_decide_item(f"family:k{k}-q{q}-{mode}", forms.parse_form(text, XYZ), cfg,
                                  ("kind", "depth", "forms_expanded", "dedup_collapsed")))
    return items


def _certify(seed: int) -> List[Item]:
    order = list(permutations(XYZ))[seed % 6]
    items = [_certify_item("example1-permuted", forms.parse_form(corpus.EXAMPLE1_TEXT, order), False)]
    for p in range(1, 6):
        name = f"example3-p{p}"
        items.append(_certify_item(name, corpus.corpus_form(name), True))
    return items


def breadth_inputs(seed: int) -> List[Tuple[str, forms.Form, int]]:
    order = list(permutations(XYZW))[seed % 24]
    return [(key, forms.parse_form(text, order), budget) for key, text, budget in BREADTH]


def _breadth(seed: int) -> List[Item]:
    fields = ("kind", "depth", "depth_reached", "live_forms",
              "forms_expanded", "forms_pruned", "dedup_collapsed")
    return [
        _decide_item(key, f, engine.EngineConfig(node_budget=budget), fields)
        for key, f, budget in breadth_inputs(seed)
    ]


def _sample(seed: int) -> List[Item]:
    p6 = corpus.corpus_form("example3-p6")
    p5 = corpus.corpus_form("example3-p5")

    def timed(call):
        def run():
            start = time.perf_counter()
            out = call()
            total = time.perf_counter() - start
            return out, {"total": total, "sample": total}
        return run

    def grid_certify(out):
        value, point = out
        if not forms.evaluate(p6, point) == value < 0:
            return "grid minimum is not a negative value of example3-p6"
        return None

    # the random search runs in chunks so that no item is long next to the
    # reference timings the benchmark takes between items; example3-p5 has a
    # certificate (see certify), so no trial may hit
    chunk = RANDOM_TRIALS // RANDOM_CHUNKS
    searches = [
        Item(f"random_search:example3-p5:{j}",
             timed(lambda j=j: oracle.random_negative_search(p5, chunk, seed * RANDOM_CHUNKS + j)),
             lambda out: {"found": out is not None})
        for j in range(RANDOM_CHUNKS)
    ]
    return [
        Item("grid_min:example3-p6",
             timed(lambda: oracle.grid_min(p6, oracle.GridSpec(GRID_DENOMINATOR, 3))),
             lambda out: {"min": str(out[0]), "argmin": [str(x) for x in out[1]]},
             grid_certify),
        *searches,
        Item("max_diameter:3-4",
             timed(lambda: geometry.max_diameter_at_depth(*DIAMETER)),
             lambda out: {"squared_diameter": str(out)}),
        Item("locate_point:p6-counterexample",
             timed(lambda: geometry.locate_point(P6_POINT, 4)),
             lambda out: {"chain": list(out)}),
    ]


WORKLOADS: Dict[str, Callable[[int], List[Item]]] = {
    "refute": _refute,
    "certify": _certify,
    "breadth": _breadth,
    "sample": _sample,
}


def build(workload: str, seed: int) -> List[Item]:
    return WORKLOADS[workload](seed)


def breadth_self_check(seed: int) -> Optional[str]:
    """Two seeds give different breadth inputs but the same work."""
    mine, other = breadth_inputs(seed)[0], breadth_inputs(seed + 1)[0]
    if mine[1] == other[1]:
        return f"seeds {seed} and {seed + 1} give the same {mine[0]} input"
    expanded = []
    for _, f, budget in (mine, other):
        stats = engine.EngineStats()
        engine.yys_decide(f, engine.EngineConfig(node_budget=budget), stats)
        expanded.append(stats.forms_expanded)
    if expanded[0] != expanded[1]:
        return f"seeds {seed} and {seed + 1} expand {expanded[0]} and {expanded[1]} forms"
    return None
