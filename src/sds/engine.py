"""Breadth-first successive-substitution decision procedure.

Starting from the input form, each level replaces every live form by its n!
single-step substitution children.  Trivially positive children are pruned
(and optionally recorded as certificate entries); a trivially negative child
stops the search with an exact rational counterexample point.  An empty
frontier is a positive-semidefiniteness certificate; depth and node budgets
make non-termination a first-class Inconclusive outcome.  A per-layer memo
substitutes a form reached by several chains once; it is kept only where it
is read, with a certificate or without dedup (dedup alone keeps forms distinct).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .forms import (
    COEFFS_MODE,
    MAX_COEFF_BITS,
    MAX_TERMS,
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
from .matrices import Chain, barycenter_image, chain_vertices, check_chain, pwn_perms

Certificate = Tuple[Tuple[Chain, Form], ...]

# `_expansion_writes` allowed for one certificate entry, and summed over the entries
MAX_VERIFY_WRITES = 4 * 10**6
MAX_VERIFY_TOTAL_WRITES = 2 * 10**7


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


def _expansion_writes(f: Form) -> int:
    """A size bound for expanding f(M·T) with dense rows of M, in terms written:
    per variable, the powers of its row up to its largest exponent, then per
    term of f the products of its powers, smallest first (a dense row's k-th
    power has C(k+n-1, n-1) terms).  `substitute_linear`'s Horner scheme
    builds none of these products; the bound stays the measure the budgets
    refuse by, so the inputs refused are those of the power-table expansion."""
    size = [math.comb(k + f.nvars - 1, k) for k in range(f.degree + 1)]
    writes = sum(f.nvars * size[k] for top in map(max, zip(*f.nums)) for k in range(top))
    for exp in f.nums:
        deg, terms = 0, 1
        for e in sorted(exp):
            deg += e
            writes += terms * size[e]
            terms = min(terms * size[e], size[deg])
        writes += terms
    return writes


def verify_certificate(f: Form, cert: Sequence[Tuple[Chain, Form]]) -> bool:
    """Recompute and check a positive-termination certificate from scratch.

    Valid iff every entry's form equals f(M·T), M the product of its
    chain's matrices, every entry is trivially positive, and the chains
    exactly cover the frontier of the pruned substitution tree: walking from
    the root and descending into every non-certificate chain, each branch
    must end on exactly one certificate chain, and no entry may be left
    unused.  M is built from `chain_vertices` and f(M·T) is expanded by the
    generic `substitute_linear`, a Horner scheme in products by one row of
    M at a time, so no code is shared with `yys_decide`'s kernel.  A chain
    index outside 1..n! or a chain longer than MAX_CHAIN_LENGTH raises
    MatrixError.  Then EngineError refuses, before any expansion, work past
    the parser's budgets: over MAX_TERMS terms written, n·C(d+n-1, n) for
    one power of a row of M, or over MAX_COEFF_BITS denominator bits,
    len(chain)·d·⌈log2 lcm(1..n)⌉; and past the verify budgets on the
    size bound `_expansion_writes(f)`: over MAX_VERIFY_WRITES for one
    entry, or over MAX_VERIFY_TOTAL_WRITES times the number of entries.
    """
    if not cert:
        return False
    n, d = f.nvars, f.degree
    # every index is checked before any substitution, whatever the entry order
    cert_map: Dict[Chain, Form] = {check_chain(chain, n): form for chain, form in cert}
    max_len = max(map(len, cert_map))
    if max_len and n * math.comb(d + n - 1, n) > MAX_TERMS:
        raise EngineError(f"verifying a degree-{d} form in {n} variables could write over {MAX_TERMS} terms")
    if max_len * d * (math.lcm(*range(1, n + 1)) - 1).bit_length() > MAX_COEFF_BITS:
        raise EngineError(f"verifying a length-{max_len} chain at degree {d} could need over {MAX_COEFF_BITS} bits")
    writes = _expansion_writes(f) if max_len else 0
    if writes > MAX_VERIFY_WRITES:
        raise EngineError(f"verifying a {len(f.nums)}-term form could write over {MAX_VERIFY_WRITES} terms per entry")
    if len(cert_map) * writes > MAX_VERIFY_TOTAL_WRITES:
        raise EngineError(f"verifying {len(cert_map)} entries of a {len(f.nums)}-term form could write "
                          f"over {MAX_VERIFY_TOTAL_WRITES} terms")
    if len(cert_map) != len(cert):  # a duplicate chain
        return False
    for chain, form in cert_map.items():
        verts, den = chain_vertices(chain, n)  # the columns of M are verts / den
        if form != substitute_linear(f, [[Fraction(x, den) for x in row] for row in zip(*verts)]):
            return False
        if not is_trivially_positive(form):
            return False

    # depth first in index order, over chains alone
    count = len(pwn_perms(n))
    seen = set()
    stack: List[Chain] = [()]
    while stack:
        chain = stack.pop()
        if chain in cert_map:
            seen.add(chain)
            continue
        if len(chain) >= max_len:
            return False
        stack.extend(chain + (i,) for i in range(count, 0, -1))
    return len(seen) == len(cert_map)
