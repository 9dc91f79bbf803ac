"""Breadth-first successive-substitution decision procedure.

Starting from the input form, each level replaces every live form by its n!
single-step substitution children.  Trivially positive children are pruned
(and optionally recorded as certificate entries); a trivially negative child
stops the search with an exact rational counterexample point.  An empty
frontier is a positive-semidefiniteness certificate; depth and node budgets
make non-termination a first-class Inconclusive outcome.  A per-layer memo
substitutes a form reached by several chains once; it is kept only where it
is read, with a certificate or without dedup (dedup alone keeps forms distinct).
`verify_certificate` rechecks a certificate without the kernel, in one depth-first
walk of the tree its chains claim, each child expanded from its parent by the
generic `substitute_linear`; one budget on that walk's writes refuses it first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .forms import (
    COEFFS_MODE,
    MAX_COEFF_BITS,
    Form,
    NEGATIVITY_MODES,
    Point,
    VALUE_MODE,
    check_substitution_size,
    evaluate,
    is_trivially_negative,
    is_trivially_positive,
    linear_writes,
    substitute_linear,
    substitute_pwn,
)
from .matrices import Chain, barycenter_image, chain_vertices, check_chain, pwn_perms

Certificate = Tuple[Tuple[Chain, Form], ...]
Node = Tuple[int, int]  # a trie node's key, its parent's id and its last index; None is the root

# `linear_writes` summed over the nodes a certificate walk expands, n! per
# inner node; at 230-255 ns a write on a 2-vCPU x86_64 VM, about 2.5 s
MAX_VERIFY_WRITES = 10**7


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

    if cfg.root_check and is_trivially_negative(f, cfg.negativity_mode):
        point = barycenter_image((), n)
        return Counterexample(chain=(), point=point, value=evaluate(f, point))
    if is_trivially_positive(f):
        cert = ((((), f)),) if cfg.emit_certificate else None
        return PositiveSemidefinite(depth=0, certificate=cert)
    check_substitution_size(n, f.degree)  # before any child, whatever its route

    # (chain, form) pairs in lex chain order: children visited parent by parent
    # are in that order too.  With dedup a repeated form stays only for its
    # certificate chains; `nodes` counts the forms a layer is budgeted for.
    frontier: List[Tuple[Chain, Form]] = [((), f)]
    nodes = 1
    cert_entries: List[Tuple[Chain, Form]] = []
    generated = 0
    memo = cfg.emit_certificate or not cfg.dedup

    for depth in range(1, cfg.max_depth + 1):
        want = nodes * len(perms)
        if generated + want > cfg.node_budget:
            return Inconclusive(depth_reached=depth - 1, live_forms=nodes)
        generated += want
        stats.forms_expanded += want

        # with `memo`, later visits of a form read its children's (child,
        # negative, positive) here; a pruned child is read back only as a
        # certificate entry, so without one it is kept as None
        expanded: Dict[Form, List[Tuple[Optional[Form], bool, bool]]] = {}
        seen = set()
        live: List[Tuple[Chain, Form]] = []
        nodes = collapsed = 0
        for chain, form in frontier:
            kids = expanded.setdefault(form, []) if memo else []
            for i, p in enumerate(perms):
                if i == len(kids):
                    child = substitute_pwn(form, p)
                    positive = is_trivially_positive(child)
                    kids.append((child if cfg.emit_certificate or not positive else None,
                                 is_trivially_negative(child, cfg.negativity_mode), positive))
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

    Valid iff the chains are the leaves of a tree in which every inner node
    has all n! children, and each entry's form equals f(M·T), M the product
    of its chain's matrices, and is trivially positive.  The tree is walked
    once, depth first: a child's form is its parent's expanded by the rows
    of one P_i·W_n, built from `chain_vertices`, with the generic
    `substitute_linear`, so no code is shared with `yys_decide`'s kernel.
    A chain index outside 1..n! or a chain longer than MAX_CHAIN_LENGTH
    raises MatrixError.  Then EngineError refuses, before any expansion, a
    chain that could need over MAX_COEFF_BITS denominator bits,
    len(chain)·d·⌈log2 lcm(1..n)⌉, and, as soon as its trie passes it, a
    tree whose n! children per inner node cost over MAX_VERIFY_WRITES.
    """
    if not cert:
        return False
    n, d = f.nvars, f.degree
    # every index is checked before any substitution, whatever the entry order
    chains = [check_chain(chain, n) for chain, _ in cert]
    max_len = max(map(len, chains))
    if max_len * d * (math.lcm(*range(1, n + 1)) - 1).bit_length() > MAX_COEFF_BITS:
        raise EngineError(f"verifying a length-{max_len} chain at degree {d} could need over {MAX_COEFF_BITS} bits")
    count = len(pwn_perms(n))
    cost = count * linear_writes(n, d)
    # the tree as a trie: `inner` numbers the inner nodes, `leaves` holds the forms
    inner: Dict[Optional[Node], int] = {}
    leaves: Dict[Optional[Node], Form] = {}
    for chain, (_, form) in zip(chains, cert):
        key = None
        for idx in chain:
            key = (inner.setdefault(key, len(inner)), idx)
        leaves[key] = form
        if cost * len(inner) > MAX_VERIFY_WRITES:
            raise EngineError(f"verifying {count * len(inner)} substitutions of a degree-{d} form in {n} variables "
                              f"could write over {MAX_VERIFY_WRITES} terms")
    # distinct chains, none inner, are the leaves of the tree of their prefixes, and
    # its len(leaves) + len(inner) - 1 edges are n! per inner node iff none lacks a child
    if len(leaves) != len(cert) or not inner.keys().isdisjoint(leaves) \
            or len(leaves) + len(inner) - 1 != count * len(inner):
        return False

    # the rows of each P_i·W_n, whose columns are verts / den; none for the root alone
    steps = [[[Fraction(x, den) for x in row] for row in zip(*verts)]
             for verts, den in (chain_vertices((i,), n) for i in range(1, count + 1) if inner)]
    stack: List[Tuple[Optional[Node], Form]] = [(None, f)]  # a node and its parent's form (the root's own)
    while stack:
        key, form = stack.pop()
        if key is not None:
            form = substitute_linear(form, steps[key[1] - 1])
        if key in inner:
            stack.extend(((inner[key], i), form) for i in range(count, 0, -1))
        elif form != leaves[key] or not is_trivially_positive(form):
            return False
    return True
