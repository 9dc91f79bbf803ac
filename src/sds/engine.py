"""Breadth-first successive-substitution decision procedure.

Starting from the input form, each level replaces every live form by its n!
single-step substitution children.  Trivially positive children are pruned
(and optionally recorded as certificate entries); a trivially negative child
stops the search with an exact rational counterexample point.  An empty
frontier is a positive-semidefiniteness certificate; depth and node budgets
make non-termination a first-class Inconclusive outcome.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import permutations
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .forms import (
    COEFFS_MODE,
    Form,
    NEGATIVITY_MODES,
    Point,
    VALUE_MODE,
    evaluate,
    is_trivially_negative,
    is_trivially_positive,
    substitute_linear,
    substitute_pwn,
)
from .matrices import Chain, compose_chain, enumerate_pwn

Certificate = Tuple[Tuple[Chain, Form], ...]


class EngineError(ValueError):
    """Invalid engine configuration or input."""


@dataclass(frozen=True)
class EngineConfig:
    max_depth: int = 30
    negativity_mode: str = VALUE_MODE
    dedup: bool = True
    root_check: bool = True
    node_budget: int = 10**6
    emit_certificate: bool = False
    threads: int = 1

    def compat(self) -> "EngineConfig":
        """Variant reproducing the reference program's decision semantics."""
        return replace(self, negativity_mode=COEFFS_MODE, dedup=False, root_check=False)


@dataclass(frozen=True)
class PositiveSemidefinite:
    depth: int
    certificate: Optional[Certificate] = None


@dataclass(frozen=True)
class Counterexample:
    chain: Chain
    point: Point
    value: Fraction


@dataclass(frozen=True)
class Inconclusive:
    depth_reached: int
    live_forms: int


Verdict = Union[PositiveSemidefinite, Counterexample, Inconclusive]


@dataclass
class EngineStats:
    forms_expanded: int = 0
    forms_pruned: int = 0
    dedup_collapsed: int = 0


def _validate_config(cfg: EngineConfig, n: int) -> None:
    if cfg.max_depth < 1:
        raise EngineError("max_depth must be >= 1")
    if cfg.negativity_mode not in NEGATIVITY_MODES:
        raise EngineError(f"unknown negativity mode {cfg.negativity_mode!r}")
    if cfg.node_budget < math.factorial(n):
        raise EngineError("node_budget must be at least n!")
    if cfg.threads < 1:
        raise EngineError("threads must be >= 1")


def _pwn_perms(n: int) -> List[Tuple[int, ...]]:
    """The permutations of 1..n, in the index order of enumerate_pwn(n)."""
    enumerate_pwn(n)  # refuses n! beyond its limit
    return list(permutations(range(1, n + 1)))


def expand_once(f: Form) -> List[Tuple[int, Form]]:
    """The n! single-step substitution children, in enumeration order."""
    perms = _pwn_perms(f.nvars)
    return [(i, substitute_pwn(f, p)) for i, p in enumerate(perms, start=1)]


# a frontier node groups every chain currently carrying the same form;
# without dedup each node holds exactly one chain
@dataclass
class _Node:
    form: Form
    chains: List[Chain]  # sorted; chains[0] is the lex-minimal one


def yys_decide(f: Form, cfg: EngineConfig = EngineConfig(), stats: Optional[EngineStats] = None) -> Verdict:
    """Decide nonnegativity of f on the nonnegative orthant.

    Returns PositiveSemidefinite when some level's substitutions are all
    trivially positive, Counterexample (with exact point and value) when a
    trivially negative substitution appears, and Inconclusive when depth or
    node budget runs out first.
    """
    n = f.nvars
    _validate_config(cfg, n)
    if stats is None:
        stats = EngineStats()
    perms = _pwn_perms(n)
    nfact = len(perms)
    bary = tuple(Fraction(1, n) for _ in range(n))

    if cfg.root_check and is_trivially_negative(f, cfg.negativity_mode):
        return Counterexample(chain=(), point=bary, value=evaluate(f, bary))
    if is_trivially_positive(f):
        cert = ((((), f)),) if cfg.emit_certificate else None
        return PositiveSemidefinite(depth=0, certificate=cert)

    frontier: List[_Node] = [_Node(form=f, chains=[()])]
    cert_entries: List[Tuple[Chain, Form]] = []
    generated = 0

    def expand(node: _Node) -> List[Form]:
        return [substitute_pwn(node.form, p) for p in perms]

    executor = ThreadPoolExecutor(cfg.threads) if cfg.threads > 1 else None
    try:
        for depth in range(1, cfg.max_depth + 1):
            want = len(frontier) * nfact
            if generated + want > cfg.node_budget:
                return Inconclusive(depth_reached=depth - 1, live_forms=len(frontier))
            generated += want

            if executor is not None:
                expansions = list(executor.map(expand, frontier))
            else:
                expansions = [expand(node) for node in frontier]
            stats.forms_expanded += want

            # flat child list in lexicographic (parent chain, index) order
            children: List[Tuple[Chain, Form]] = []
            for node, kids in zip(frontier, expansions):
                for chain in node.chains:
                    for i, child in enumerate(kids, start=1):
                        children.append((chain + (i,), child))
            children.sort(key=lambda t: t[0])

            sign_cache: Dict[tuple, str] = {}
            live: List[Tuple[Chain, Form]] = []
            for chain, child in children:
                kind = sign_cache.get(child.key())
                if kind is None:
                    if is_trivially_negative(child, cfg.negativity_mode):
                        kind = "neg"
                    elif is_trivially_positive(child):
                        kind = "pos"
                    else:
                        kind = "live"
                    sign_cache[child.key()] = kind
                if kind == "neg":
                    point = compose_chain(chain, n).matvec(bary)
                    return Counterexample(chain=chain, point=point, value=evaluate(f, point))
                if kind == "pos":
                    stats.forms_pruned += 1
                    if cfg.emit_certificate:
                        cert_entries.append((chain, child))
                else:
                    live.append((chain, child))

            if not live:
                cert = tuple(cert_entries) if cfg.emit_certificate else None
                return PositiveSemidefinite(depth=depth, certificate=cert)

            if cfg.dedup:
                grouped: Dict[tuple, _Node] = {}
                for chain, child in live:
                    node = grouped.get(child.key())
                    if node is None:
                        grouped[child.key()] = _Node(form=child, chains=[chain])
                    else:
                        node.chains.append(chain)
                        stats.dedup_collapsed += 1
                frontier = sorted(grouped.values(), key=lambda nd: nd.chains[0])
                if not cfg.emit_certificate:
                    # duplicate chains are only needed for certificates
                    for node in frontier:
                        del node.chains[1:]
            else:
                frontier = [_Node(form=child, chains=[chain]) for chain, child in live]
    finally:
        if executor is not None:
            executor.shutdown()

    return Inconclusive(depth_reached=cfg.max_depth, live_forms=len(frontier))


def verify_certificate(f: Form, cert: Sequence[Tuple[Chain, Form]]) -> bool:
    """Recompute and check a positive-termination certificate from scratch.

    Valid iff every entry's form equals the full substitution along its
    chain, every entry is trivially positive, and the chains exactly cover
    the frontier of the pruned substitution tree: walking from the root and
    expanding every non-certificate node, each branch must end on exactly
    one certificate chain, and no entry may be left unused.
    """
    if not cert:
        return False
    n = f.nvars
    cert_map: Dict[Chain, Form] = {}
    for chain, form in cert:
        chain = tuple(chain)
        if chain in cert_map:
            return False
        cert_map[chain] = form
    for chain, form in cert_map.items():
        if form != substitute_linear(f, compose_chain(chain, n)):
            return False
        if not is_trivially_positive(form):
            return False

    perms = _pwn_perms(n)
    max_len = max(len(chain) for chain in cert_map)
    seen = set()

    def covered(chain: Chain, form: Form) -> bool:
        if chain in cert_map:
            seen.add(chain)
            return True
        if len(chain) >= max_len:
            return False
        return all(
            covered(chain + (i,), substitute_pwn(form, p))
            for i, p in enumerate(perms, start=1)
        )

    return covered((), f) and len(seen) == len(cert_map)
