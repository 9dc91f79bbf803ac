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
from dataclasses import dataclass, replace
from fractions import Fraction
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
from .matrices import Chain, barycenter_image, check_chain, compose_chain, pwn_perms

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

    @property
    def threads(self) -> int:
        """Always 1: the engine runs on the calling thread (the report echoes it)."""
        return 1

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
    """`forms_expanded` counts the children each layer is budgeted for: n!
    per frontier form (per distinct form with dedup), also when a
    counterexample ends the layer early."""

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


def expand_once(f: Form) -> List[Tuple[int, Form]]:
    """The n! single-step substitution children, in enumeration order."""
    perms = pwn_perms(f.nvars)
    return [(i, substitute_pwn(f, p)) for i, p in enumerate(perms, start=1)]


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
    perms = pwn_perms(n)
    bary = tuple(Fraction(1, n) for _ in range(n))

    if cfg.root_check and is_trivially_negative(f, cfg.negativity_mode):
        return Counterexample(chain=(), point=bary, value=evaluate(f, bary))
    if is_trivially_positive(f):
        cert = ((((), f)),) if cfg.emit_certificate else None
        return PositiveSemidefinite(depth=0, certificate=cert)

    # (chain, form) pairs in lex chain order: children visited parent by parent
    # are in that order too.  With dedup a repeated form stays only for its
    # certificate chains; `nodes` counts the forms a layer is budgeted for.
    frontier: List[Tuple[Chain, Form]] = [((), f)]
    nodes = 1
    cert_entries: List[Tuple[Chain, Form]] = []
    generated = 0

    for depth in range(1, cfg.max_depth + 1):
        want = nodes * len(perms)
        if generated + want > cfg.node_budget:
            return Inconclusive(depth_reached=depth - 1, live_forms=nodes)
        generated += want
        stats.forms_expanded += want

        expanded: Dict[Form, List[Tuple[Form, bool, bool]]] = {}
        seen = set()
        live: List[Tuple[Chain, Form]] = []
        nodes = collapsed = 0
        for chain, form in frontier:
            kids = expanded.setdefault(form, [])
            for i, p in enumerate(perms):
                if i == len(kids):  # a form is expanded on its first visit only
                    child = substitute_pwn(form, p)
                    kids.append((child, is_trivially_negative(child, cfg.negativity_mode),
                                 is_trivially_positive(child)))
                child, negative, positive = kids[i]
                child_chain = chain + (i + 1,)
                if negative:
                    point = barycenter_image(child_chain, n)
                    return Counterexample(chain=child_chain, point=point, value=evaluate(f, point))
                if positive:
                    stats.forms_pruned += 1
                    if cfg.emit_certificate:
                        cert_entries.append((child_chain, child))
                elif cfg.dedup and child in seen:
                    collapsed += 1
                    if cfg.emit_certificate:
                        live.append((child_chain, child))
                else:
                    seen.add(child)
                    nodes += 1
                    live.append((child_chain, child))

        if not live:
            cert = tuple(cert_entries) if cfg.emit_certificate else None
            return PositiveSemidefinite(depth=depth, certificate=cert)
        stats.dedup_collapsed += collapsed
        frontier = live

    return Inconclusive(depth_reached=cfg.max_depth, live_forms=nodes)


def verify_certificate(f: Form, cert: Sequence[Tuple[Chain, Form]]) -> bool:
    """Recompute and check a positive-termination certificate from scratch.

    Valid iff every entry's form equals the full substitution along its
    chain, every entry is trivially positive, and the chains exactly cover
    the frontier of the pruned substitution tree: walking from the root and
    expanding every non-certificate node, each branch must end on exactly
    one certificate chain, and no entry may be left unused.  A chain index
    outside 1..n! raises MatrixError.
    """
    if not cert:
        return False
    n = f.nvars
    # every index is checked before any substitution, whatever the entry order
    cert_map: Dict[Chain, Form] = {check_chain(chain, n): form for chain, form in cert}
    if len(cert_map) != len(cert):  # a duplicate chain
        return False
    for chain, form in cert_map.items():
        if form != substitute_linear(f, compose_chain(chain, n)):
            return False
        if not is_trivially_positive(form):
            return False

    # depth first in index order; a node is substituted only to expand it
    perms = pwn_perms(n)
    max_len = max(len(chain) for chain in cert_map)
    seen = set()
    stack: List[Tuple[Chain, Form, Optional[Tuple[int, ...]]]] = [((), f, None)]
    while stack:
        chain, form, perm = stack.pop()
        if chain in cert_map:
            seen.add(chain)
            continue
        if len(chain) >= max_len:
            return False
        if perm is not None:
            form = substitute_pwn(form, perm)
        stack.extend((chain + (i,), form, perms[i - 1]) for i in range(len(perms), 0, -1))
    return len(seen) == len(cert_map)
