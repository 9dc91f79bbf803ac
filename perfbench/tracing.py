"""Span tracing of the sds modules from outside, and the per-layer metrics.

`Tracer.install()` replaces every public function of the seven sds modules
at every module that binds it: `sds.engine` does
`from .forms import substitute_linear`, so `sds.engine.substitute_linear`
is replaced as well as `sds.forms.substitute_linear`.  Nothing under `src/`
changes.  A span holds a name `<layer>.<function>`, start, end, parent,
item id and thread id, plus the call's arguments and result so that
counts and depths are worked out after the pass instead of inside it.
Spans stay in memory and are written once, at the end of the run.

A span opened on a worker thread with no open span of its own takes the
innermost open span of the main thread as its parent: the engine's thread
pool runs substitutions while the main thread waits inside `yys_decide`.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from typing import Dict, List, Optional, Tuple

LAYERS = ("cli", "corpus", "forms", "matrices", "geometry", "engine", "oracle")
DEPTHS = (1, 2, 3, 4, 5)

# name -> (unit, better, the end-to-end metric and workload it should move)
LAYER_METRICS: Dict[str, Tuple[str, str, str]] = {
    "forms.substitute_s": ("s", "lower", "decide_s on refute/certify/breadth, verify_s on certify"),
    "forms.substitute_calls": ("count", "lower", "decide_s on refute/certify/breadth, verify_s on certify"),
    **{f"forms.substitute_s.d{k}": ("s", "lower", "decide_s on refute (d1/d2: p6 kernel microbench)") for k in DEPTHS},
    **{f"forms.substitute_calls.d{k}": ("count", "lower", "decide_s on refute/breadth") for k in DEPTHS},
    **{f"forms.terms_out_max.d{k}": ("count", "lower", "decide_s on refute") for k in DEPTHS},
    **{f"forms.den_bits_max.d{k}": ("bits", "lower", "decide_s on refute") for k in DEPTHS},
    "forms.sign_test_s": ("s", "lower", "decide_s on breadth"),
    "forms.sign_test_calls": ("count", "lower", "decide_s on breadth"),
    "forms.evaluate_s": ("s", "lower", "sample_s on sample"),
    "forms.evaluate_calls": ("count", "lower", "sample_s on sample"),
    "forms.parse_s": ("s", "lower", "setup_s"),
    "corpus.load_s": ("s", "lower", "setup_s"),
    "matrices.enumerate_pwn_s": ("s", "lower", "setup_s"),
    "matrices.compose_chain_s": ("s", "lower", "verify_s on certify"),
    "matrices.compose_chain_calls": ("count", "lower", "verify_s on certify"),
    "geometry.max_diameter_s": ("s", "lower", "sample_s on sample"),
    "geometry.locate_point_s": ("s", "lower", "sample_s on sample"),
    "oracle.grid_min_s": ("s", "lower", "sample_s on sample"),
    "oracle.grid_points": ("count", "higher", "sample_s on sample"),
    "oracle.random_search_s": ("s", "lower", "sample_s on sample"),
    "oracle.trials": ("count", "higher", "sample_s on sample"),
    "engine.decide_self_s": ("s", "lower", "decide_s on breadth"),
    "engine.verify_self_s": ("s", "lower", "verify_s on certify"),
    "engine.forms_expanded": ("count", "lower", "decide_s on refute/certify/breadth"),
    "engine.forms_pruned": ("count", "lower", "decide_s on refute/certify/breadth"),
    "engine.dedup_collapsed": ("count", "higher", "decide_s on refute/breadth"),
    "engine.tested_ratio": ("ratio", "lower", "decide_s on refute"),
    "engine.pool_overlap": ("ratio", "lower", "decide_s on refute"),
    "cli.self_s": ("s", "lower", "wall_s on refute"),
    "cli.threads": ("count", "lower", "wall_s on refute"),
    "trace.overhead_s": ("s", "lower", "none: cost of tracing itself"),
}

SUBSTITUTE = "forms.substitute_linear"
SIGN_TESTS = ("forms.is_trivially_negative", "forms.is_trivially_positive")
DECIDE = "engine.yys_decide"
VERIFY = "engine.verify_certificate"

# span fields
NAME, START, END, PARENT, ITEM, TID, CALL = range(7)


class TraceCheckError(AssertionError):
    """The recorded spans do not nest the way the call structure requires."""


def _public_functions(module):
    for attr, obj in vars(module).items():
        if attr.startswith("_") or not inspect.isfunction(obj):
            continue
        if not obj.__module__.startswith("sds.") or inspect.isgeneratorfunction(obj):
            continue
        yield attr, obj


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.item: Optional[str] = None
        self._lock = threading.Lock()
        self._stacks: Dict[int, List[int]] = {}
        self._main_tid = threading.main_thread().ident
        self._saved: List[Tuple[object, str, object]] = []

    def install(self) -> None:
        import importlib

        for layer in LAYERS:
            module = importlib.import_module(f"sds.{layer}")
            for attr, fn in list(_public_functions(module)):
                origin = fn.__module__.split(".")[-1]
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, f"{origin}.{fn.__name__}"))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                self._stacks[threading.get_ident()].pop()
            span[CALL] = (fn, args, kwargs, result)
            return result

        return traced

    def _open(self, name: str) -> list:
        tid = threading.get_ident()
        stack = self._stacks.get(tid)
        if stack is None:
            stack = self._stacks[tid] = []
        if stack:
            parent = stack[-1]
        else:
            main = self._stacks.get(self._main_tid) if tid != self._main_tid else None
            parent = main[-1] if main else None
        span = [name, 0.0, 0.0, parent, self.item, tid, None]
        with self._lock:
            stack.append(len(self.spans))
            self.spans.append(span)
        span[START] = time.perf_counter()
        return span

    def dump(self) -> List[dict]:
        """Spans as JSON-able records, without the retained call objects."""
        return [
            {"name": s[NAME], "start": s[START], "end": s[END], "parent": s[PARENT],
             "item": s[ITEM], "thread": s[TID]}
            for s in self.spans
        ]


def _arg(call, name: str):
    fn, args, kwargs, _ = call
    return inspect.signature(fn).bind(*args, **kwargs).arguments.get(name)


def _union(intervals: List[Tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the part of it its child spans cover.

    Raises TraceCheckError if a child lies outside its parent, if children
    on the parent's own thread overlap, or if a self time is negative.
    """
    children: Dict[int, List[int]] = {}
    for idx, s in enumerate(spans):
        if s[PARENT] is not None:
            children.setdefault(s[PARENT], []).append(idx)
    eps = 1e-6
    out = []
    for idx, s in enumerate(spans):
        kids = [spans[k] for k in children.get(idx, ())]
        for k in kids:
            if k[START] < s[START] - eps or k[END] > s[END] + eps:
                raise TraceCheckError(f"{k[NAME]} lies outside its parent {s[NAME]}")
        same = sorted((k[START], k[END]) for k in kids if k[TID] == s[TID])
        for (_, end), (start, _) in zip(same, same[1:]):
            if start < end - eps:
                raise TraceCheckError(f"children of {s[NAME]} overlap on one thread")
        covered = _union([(max(k[START], s[START]), min(k[END], s[END])) for k in kids])
        own = (s[END] - s[START]) - covered
        if own < -eps:
            raise TraceCheckError(f"negative self time in {s[NAME]}")
        out.append(own)
    return out


def _ancestor(spans: List[list], idx: int, name: str) -> Optional[int]:
    parent = spans[idx][PARENT]
    while parent is not None:
        if spans[parent][NAME] == name:
            return parent
        parent = spans[parent][PARENT]
    return None


def _caller(spans: List[list], idx: int) -> str:
    parent = spans[idx][PARENT]
    return spans[parent][NAME] if parent is not None else ""


def layer_metrics(spans: List[list], overhead_s: float) -> Tuple[Dict[str, float], dict]:
    """Per-layer metrics from a finished trace, plus the decide-span check.

    `engine.tested_ratio` counts a substituted child as tested when a form
    equal to it went through the negativity test in the same decide call,
    since the engine tests each distinct form of a layer once; what stays
    untested is what the engine skipped by stopping at a negative child.
    Depth is worked out from outside: a form returned by `compose_chain`
    carries its chain's length, every other matrix counts as one level, and
    a substitution's output lies that many levels below its input form.
    Depths outside 1..5 count only in the totals.  A layer the workload
    does not call reports 0.
    """
    own = self_times(spans)
    m: Dict[str, float] = {name: 0 for name in LAYER_METRICS}
    m["trace.overhead_s"] = overhead_s

    # wall time during which the function ran on some thread: the union of
    # its spans, so pool threads running at once are not counted twice
    def total(name: str) -> float:
        return _union([(s[START], s[END]) for s in spans if s[NAME] == name])

    def count(name: str) -> int:
        return sum(1 for s in spans if s[NAME] == name)

    form_depth: Dict[int, int] = {}
    matrix_depth: Dict[int, int] = {}
    children: List[Tuple[int, tuple]] = []
    by_depth: Dict[int, List[Tuple[float, float]]] = {}
    tested = set()
    sub_intervals = []
    for idx, s in enumerate(spans):
        name, call = s[NAME], s[CALL]
        if name == "matrices.compose_chain":
            matrix_depth[id(call[3])] = len(tuple(_arg(call, "chain")))
        elif name == SUBSTITUTE:
            f, mat, out = call[1][0], call[1][1], call[3]
            depth = form_depth.get(id(f), 0) + matrix_depth.get(id(mat), 1)
            form_depth[id(out)] = depth
            if depth in DEPTHS:
                by_depth.setdefault(depth, []).append((s[START], s[END]))
                m[f"forms.substitute_calls.d{depth}"] += 1
                terms = f"forms.terms_out_max.d{depth}"
                m[terms] = max(m[terms], len(out.terms))
                bits = max((c.denominator.bit_length() for c in out.terms.values()), default=0)
                den = f"forms.den_bits_max.d{depth}"
                m[den] = max(m[den], bits)
            decide = _ancestor(spans, idx, DECIDE)
            if decide is not None:
                children.append((decide, out.key()))
                sub_intervals.append((s[START], s[END]))
        elif name == "forms.is_trivially_negative":
            decide = _ancestor(spans, idx, DECIDE)
            if decide is not None:
                tested.add((decide, call[1][0].key()))
        elif name == DECIDE:
            stats = _arg(call, "stats")
            if stats is not None:
                m["engine.forms_expanded"] += stats.forms_expanded
                m["engine.forms_pruned"] += stats.forms_pruned
                m["engine.dedup_collapsed"] += stats.dedup_collapsed
            cfg = _arg(call, "cfg")
            if cfg is not None and _caller(spans, idx).startswith("cli."):
                m["cli.threads"] = max(m["cli.threads"], cfg.threads)
        elif name == "oracle.grid_min":
            m["oracle.grid_points"] += _arg(call, "spec").size()
        elif name == "oracle.random_negative_search":
            m["oracle.trials"] += _arg(call, "trials")

    m["forms.substitute_s"] = total(SUBSTITUTE)
    m["forms.substitute_calls"] = count(SUBSTITUTE)
    for depth, intervals in by_depth.items():
        m[f"forms.substitute_s.d{depth}"] = _union(intervals)
    m["forms.sign_test_s"] = _union([(s[START], s[END]) for s in spans if s[NAME] in SIGN_TESTS])
    m["forms.sign_test_calls"] = sum(count(n) for n in SIGN_TESTS)
    m["forms.evaluate_s"] = total("forms.evaluate")
    m["forms.evaluate_calls"] = count("forms.evaluate")
    m["forms.parse_s"] = total("forms.parse_form")
    m["corpus.load_s"] = sum(t for s, t in zip(spans, own) if s[NAME].startswith("corpus."))
    m["matrices.enumerate_pwn_s"] = total("matrices.enumerate_pwn")
    m["matrices.compose_chain_s"] = total("matrices.compose_chain")
    m["matrices.compose_chain_calls"] = count("matrices.compose_chain")
    m["geometry.max_diameter_s"] = total("geometry.max_diameter_at_depth")
    m["geometry.locate_point_s"] = total("geometry.locate_point")
    m["oracle.grid_min_s"] = total("oracle.grid_min")
    m["oracle.random_search_s"] = total("oracle.random_negative_search")
    m["engine.decide_self_s"] = sum(t for s, t in zip(spans, own) if s[NAME] == DECIDE)
    m["engine.verify_self_s"] = sum(t for s, t in zip(spans, own) if s[NAME] == VERIFY)
    m["cli.self_s"] = sum(t for s, t in zip(spans, own) if s[NAME].startswith("cli."))
    if children:
        m["engine.tested_ratio"] = sum(c in tested for c in children) / len(children)
        m["engine.pool_overlap"] = sum(e - b for b, e in sub_intervals) / _union(sub_intervals)

    # cross-check against self_times, which takes one union over all
    # children: here a decide span's own-thread children are summed and only
    # the pool threads' children, which may overlap each other, are unioned
    decide = [i for i, s in enumerate(spans) if s[NAME] == DECIDE]
    kids: Dict[int, List[list]] = {i: [] for i in decide}
    for s in spans:
        if s[PARENT] in kids:
            kids[s[PARENT]].append(s)
    decide_total = sum(spans[i][END] - spans[i][START] for i in decide)
    covered = sum(
        sum(k[END] - k[START] for k in kids[i] if k[TID] == spans[i][TID])
        + _union([(k[START], k[END]) for k in kids[i] if k[TID] != spans[i][TID]])
        for i in decide
    )
    check = {
        "decide_spans": len(decide),
        "decide_s": decide_total,
        "children_s": covered,
        "decide_self_s": m["engine.decide_self_s"],
        "substitute_share": _union(sub_intervals) / decide_total if decide_total else 0.0,
        "ok": abs(covered + m["engine.decide_self_s"] - decide_total) <= 1e-6 * max(1, len(decide)),
    }
    return m, check
