import math
import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from sds import engine
from sds.corpus import CORPUS_VARS, EXAMPLE1_TEXT, EXAMPLE2_TEXT, corpus_text
from sds.engine import (
    Counterexample,
    EngineConfig,
    EngineError,
    EngineStats,
    Inconclusive,
    MAX_VERIFY_WRITES,
    PositiveSemidefinite,
    verify_certificate,
    yys_decide,
)
from sds.forms import (
    Form,
    evaluate,
    in_simplex,
    is_trivially_positive,
    linear_writes,
    parse_form,
    substitute_linear,
    substitute_pwn,
)
from sds.matrices import pwn_perms
from sds.oracle import GridSpec, grid_min

from helpers import forms, monomials, random_form
from reference import compose_chain, verify_certificate_root_up

F = Fraction
XY = ["x", "y"]
XYZ = ["x", "y", "z"]
XYZW = ["x", "y", "z", "w"]
# the breadth benchmark's forms (perfbench/workloads.py): most children of
# each layer are trivially positive
BREADTH = {
    "pd-4413": ("(4*x-4*y)^2+(1*y-4*z)^2+(3*z-1*w)^2+1/30*(x+y+z+w)^2", EngineConfig()),
    "pd-5232": ("(2*x-5*y)^2+(3*y-2*z)^2+(2*z-3*w)^2+1/30*(x+y+z+w)^2", EngineConfig()),
    "zero-interior": ("(3*x-2*y)^2+(4*y-3*z)^2+(5*z-4*w)^2", EngineConfig(node_budget=20000)),
}


@st.composite
def certified(draw):
    """A form in 1..3 variables of degree 0..5 that `yys_decide` certifies
    within depth 2, and its certificate as a list."""
    n, d = draw(st.integers(1, 3)), draw(st.integers(0, 5))
    # ε·(x_1 + ... + x_n)^d plus small non-negative terms ...
    eps = F(1, draw(st.integers(1, 20)))
    terms = {e: eps * math.factorial(d) / math.prod(map(math.factorial, e)) for e in monomials(n, d)}
    for e, c in draw(forms(n, d)).terms.items():
        terms[e] += abs(c) / 100
    if n >= 2 and d >= 2:
        # ... plus (p·x_1 − q·x_2)²·x_k^(d−2), zero where p·x_1 = q·x_2, so
        # that the certificate is often deeper than the root
        p, q, k = draw(st.integers(1, 5)), draw(st.integers(1, 5)), draw(st.integers(0, n - 1))
        for e, c in (((2, 0), p * p), ((1, 1), -2 * p * q), ((0, 2), q * q)):
            e = [*e] + [0] * (n - 2)
            e[k] += d - 2
            terms[tuple(e)] += c
    f = Form(n, d, terms)
    v = yys_decide(f, EngineConfig(max_depth=2, emit_certificate=True))
    assume(isinstance(v, PositiveSemidefinite))
    return f, list(v.certificate)


def expand_once(f):
    """The n! single-step children of f as (index, child), in enumeration order."""
    return [(i, substitute_pwn(f, p)) for i, p in enumerate(pwn_perms(f.nvars), start=1)]


@pytest.fixture(scope="module")
def example1():
    return parse_form(EXAMPLE1_TEXT, XYZ)


@pytest.fixture(scope="module")
def example2():
    return parse_form(EXAMPLE2_TEXT, XYZ)


class TestExpandOnce:
    def test_hand_expanded_children(self):
        # x^2 - xy + y^2 under both 2x2 substitutions gives
        # t1^2 + (1/2) t1 t2 + (1/4) t2^2 (symmetric input, same child twice)
        f = parse_form("x^2 - x*y + y^2", XY)
        children = expand_once(f)
        expected = Form(2, 2, {(2, 0): F(1), (1, 1): F(1, 2), (0, 2): F(1, 4)})
        assert [i for i, _ in children] == [1, 2]
        assert children[0][1] == expected
        assert children[1][1] == expected

    def test_child_count_is_factorial(self, example1):
        assert len(expand_once(example1)) == 6

    def test_positive_parent_gives_positive_children(self):
        rng = random.Random(41)
        for _ in range(10):
            f = random_form(rng, 3, rng.randint(1, 3), lo=0, hi=4)
            assert all(is_trivially_positive(c) for _, c in expand_once(f))


class TestDecideBasics:
    def test_trivially_positive_input(self):
        v = yys_decide(parse_form("(x + y)^2", XY))
        assert v == PositiveSemidefinite(depth=0)

    def test_zero_form(self):
        v = yys_decide(parse_form("x - x", XY))
        assert v == PositiveSemidefinite(depth=0)

    def test_example1_depth3(self, example1):
        v = yys_decide(example1)
        assert isinstance(v, PositiveSemidefinite) and v.depth == 3

    def test_example2_value_mode_root(self, example2):
        v = yys_decide(example2)
        assert v == Counterexample(
            chain=(), point=(F(1, 3), F(1, 3), F(1, 3)), value=F(-7, 270)
        )

    def test_example2_compat(self, example2):
        v = yys_decide(example2, EngineConfig().compat())
        assert isinstance(v, Counterexample)
        assert len(v.chain) == 2
        assert v.point == (F(37, 108), F(49, 108), F(11, 54))
        assert v.value == evaluate(example2, v.point) < 0

    def test_counterexample_invariants(self, example2):
        for cfg in (EngineConfig(), EngineConfig().compat(),
                    EngineConfig(root_check=False)):
            v = yys_decide(example2, cfg)
            assert isinstance(v, Counterexample)
            assert in_simplex(v.point)
            assert v.value == evaluate(example2, v.point)
            assert v.value < 0
            assert v.point == compose_chain(v.chain, 3).matvec((F(1, 3),) * 3)

    def test_inconclusive_on_interior_zero(self):
        # PSD with a zero at the barycenter: no level ever turns all-positive
        f = parse_form("(x + y - 2*z)^2", XYZ)
        v = yys_decide(f, EngineConfig(max_depth=3))
        assert isinstance(v, Inconclusive)
        assert v.depth_reached == 3
        assert v.live_forms > 0

    def test_node_budget_yields_inconclusive(self, example1):
        v = yys_decide(example1, EngineConfig(node_budget=6))
        assert isinstance(v, Inconclusive)
        assert v.depth_reached == 1

    def test_invalid_config(self, example1):
        with pytest.raises(EngineError):
            yys_decide(example1, EngineConfig(max_depth=0))
        with pytest.raises(EngineError):
            yys_decide(example1, EngineConfig(negativity_mode="bogus"))
        with pytest.raises(EngineError):
            yys_decide(example1, EngineConfig(node_budget=2))


class TestModeAndDedupSemantics:
    def test_mode_dominance(self, example2):
        coeffs = yys_decide(
            example2, EngineConfig(negativity_mode="coeffs", root_check=False)
        )
        value = yys_decide(
            example2, EngineConfig(negativity_mode="value", root_check=False)
        )
        assert isinstance(coeffs, Counterexample)
        assert isinstance(value, Counterexample)
        assert len(value.chain) <= len(coeffs.chain)

    def test_dedup_neutral_for_positive_depth(self, example1):
        depths = set()
        for dedup in (True, False):
            for mode in ("value", "coeffs"):
                v = yys_decide(
                    example1, EngineConfig(dedup=dedup, negativity_mode=mode)
                )
                assert isinstance(v, PositiveSemidefinite)
                depths.add(v.depth)
        assert depths == {3}

    def test_determinism(self, example2):
        cfg = EngineConfig().compat()
        assert yys_decide(example2, cfg) == yys_decide(example2, cfg)

    def test_threads_is_a_fixed_report_echo(self):
        with pytest.raises(TypeError):
            EngineConfig(threads=2)
        assert EngineConfig().threads == 1
        assert EngineConfig().compat().threads == 1

    def test_engine_soundness_against_grid(self, example1):
        v = yys_decide(example1)
        assert isinstance(v, PositiveSemidefinite)
        value, _ = grid_min(example1, GridSpec(10, 3))
        assert value >= 0

    def test_chain_matrix_coherence(self, example1):
        # the form at a node equals one full substitution by the chain product
        rng = random.Random(43)
        for _ in range(5):
            chain = tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 3)))
            stepwise = example1
            for idx in chain:
                stepwise = expand_once(stepwise)[idx - 1][1]
            assert stepwise == substitute_linear(example1, compose_chain(chain, 3))


# (forms_expanded, forms_pruned, dedup_collapsed) as the engine counted them
# before it streamed each layer: budgeted children, pruned (chain, child)
# pairs, and the collapses of finished layers only
@pytest.mark.parametrize(
    "dedup, cert, stats",
    [(True, False, (60, 12, 7)), (True, True, (60, 24, 17)),
     (False, False, (162, 24, 0)), (False, True, (162, 24, 0))],
)
def test_counterexample_stats(dedup, cert, stats):
    f = parse_form("(x-y)^2 - 1/50*(x+y+z)^2", XYZ)
    cfg = EngineConfig(root_check=False, negativity_mode="coeffs", dedup=dedup, emit_certificate=cert)
    st = EngineStats()
    v = yys_decide(f, cfg, st)
    assert isinstance(v, Counterexample) and v.chain == (1, 5, 1)
    assert (st.forms_expanded, st.forms_pruned, st.dedup_collapsed) == stats


@pytest.mark.parametrize(
    "dedup, cert, live, stats",
    [(True, False, 192, (642, 343, 1)), (True, True, 192, (642, 682, 298)),
     (False, False, 384, (1278, 682, 0)), (False, True, 384, (1278, 682, 0))],
)
def test_inconclusive_stats(dedup, cert, live, stats):
    f = parse_form("(x+y-2*z)^2", XYZ)
    st = EngineStats()
    v = yys_decide(f, EngineConfig(max_depth=6, dedup=dedup, emit_certificate=cert), st)
    assert v == Inconclusive(depth_reached=6, live_forms=live)
    assert (st.forms_expanded, st.forms_pruned, st.dedup_collapsed) == stats


class TestCertificates:
    def test_emitted_certificate_verifies(self, example1):
        v = yys_decide(example1, EngineConfig(emit_certificate=True))
        assert isinstance(v, PositiveSemidefinite)
        assert v.certificate is not None
        assert all(is_trivially_positive(form) for _, form in v.certificate)
        assert verify_certificate(example1, v.certificate)

    def test_certificate_with_dedup_covers_all_branches(self, example1):
        with_dedup = yys_decide(example1, EngineConfig(emit_certificate=True, dedup=True))
        without = yys_decide(example1, EngineConfig(emit_certificate=True, dedup=False))
        assert set(with_dedup.certificate) == set(without.certificate)

    def test_depth0_certificate(self):
        f = parse_form("(x + y)^2", XY)
        v = yys_decide(f, EngineConfig(emit_certificate=True))
        assert v.certificate == (((), f),)
        assert verify_certificate(f, v.certificate)

    def test_negated_form_rejected(self, example1):
        cert = list(yys_decide(example1, EngineConfig(emit_certificate=True)).certificate)
        chain, form = cert[0]
        cert[0] = (chain, Form(3, 6, {e: -c for e, c in form.terms.items()}))
        assert not verify_certificate(example1, cert)

    def test_missing_chain_rejected(self, example1):
        cert = list(yys_decide(example1, EngineConfig(emit_certificate=True)).certificate)
        assert not verify_certificate(example1, cert[1:])

    def test_extraneous_chain_rejected(self, example1):
        cert = list(yys_decide(example1, EngineConfig(emit_certificate=True)).certificate)
        extra_chain = cert[-1][0] + (1,)
        extra_form = substitute_linear(example1, compose_chain(extra_chain, 3))
        cert.append((extra_chain, extra_form))
        assert not verify_certificate(example1, cert)

    def test_empty_certificate_rejected(self, example1):
        assert not verify_certificate(example1, [])

    def test_duplicate_chain_rejected(self, example1):
        cert = list(yys_decide(example1, EngineConfig(emit_certificate=True)).certificate)
        assert not verify_certificate(example1, cert + cert[:1])

    @pytest.mark.parametrize("tamper", ["none", "negated", "missing", "extraneous", "duplicate"])
    def test_verifier_runs_without_the_kernel(self, example1, tamper, monkeypatch):
        cert = list(yys_decide(example1, EngineConfig(emit_certificate=True)).certificate)
        assert max(len(chain) for chain, _ in cert) == 3

        def no_kernel(*args):
            raise AssertionError("verify_certificate called substitute_pwn")

        monkeypatch.setattr(engine, "substitute_pwn", no_kernel)
        chain, form = cert[0]
        extra_chain = cert[-1][0] + (1,)
        cert = {
            "none": cert,
            "negated": [(chain, Form(3, 6, {e: -c for e, c in form.terms.items()}))] + cert[1:],
            "missing": cert[1:],
            "extraneous": cert + [(extra_chain, substitute_linear(example1, compose_chain(extra_chain, 3)))],
            "duplicate": cert + cert[:1],
        }[tamper]
        assert verify_certificate(example1, cert) == (tamper == "none")

    @settings(max_examples=100, deadline=None)
    @given(certified(), st.data())
    def test_equals_root_up_verifier(self, certified, data):
        f, cert = certified
        n = f.nvars
        k = data.draw(st.integers(0, len(cert) - 1))
        i = data.draw(st.integers(1, math.factorial(n)))
        factor = data.draw(st.sampled_from([-1, 2, F(1, 3)]))
        chain, form = cert[k]

        def entry(chain):
            return chain, substitute_linear(f, compose_chain(chain, n))

        variants = {
            "emitted": cert,
            "dropped": cert[:k] + cert[k + 1:],
            "duplicated": cert + cert[k:k + 1],
            "scaled": cert[:k] + [(chain, Form(n, f.degree, {e: factor * c for e, c in form.terms.items()}))]
            + cert[k + 1:],
            "extra child": cert + [entry(chain + (i,))],
            "extended": [(c + (i,), g) for c, g in cert],
            "leaf split": cert[:k] + [entry(chain + (j,)) for j in range(1, math.factorial(n) + 1)] + cert[k + 1:],
            "root alone": [((), f)],  # correct, and trivially positive only at depth 0
        }
        results = {name: verify_certificate(f, v) for name, v in variants.items()}
        assert results == {name: verify_certificate_root_up(f, v) for name, v in variants.items()}
        assert results["emitted"] and results["leaf split"]

    def test_long_chain_walk_is_iterative(self):
        # n = 1 has one child per level, so only the walk's depth is large
        f = parse_form("x^2", ["x"])
        assert verify_certificate(f, [((1,) * 3000, f)])

    def test_root_alone_builds_no_step_matrices(self, monkeypatch):
        # n = 8 has 40,320 P_i·W_n; a certificate with no inner node needs none
        f = parse_form("a+b+c+d+e+g+h+k", list("abcdeghk"))
        monkeypatch.setattr(engine, "chain_vertices", lambda *args: pytest.fail("built a step matrix"))
        assert verify_certificate(f, [((), f)])

    def test_walk_budget_counts_every_substitution_at_degree_0(self):
        # each substitution costs at least its setup, so a constant form's
        # tree is refused too: 8 chains of 5000 that part within 3 indices
        # have 39,983 inner nodes, over 10^7 / (2 · linear_writes(2, 0))
        f = parse_form("3", XY)
        assert MAX_VERIFY_WRITES // (2 * linear_writes(2, 0)) < 39_983
        cert = [(tuple(1 + (k >> b & 1) for b in range(3)) + (1,) * 4997, f) for k in range(8)]
        with pytest.raises(EngineError, match="verifying 79966 substitutions of a degree-0 form"):
            verify_certificate(f, cert)


class TestLayerMemo:
    def test_layer_memory_holds_no_pruned_children(self):
        # 2.84 MiB while the memo kept every child of a layer until its end
        f = parse_form(BREADTH["pd-4413"][0], XYZW)
        tracemalloc.start()
        try:
            v = yys_decide(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert v == PositiveSemidefinite(depth=4)
        assert peak < 2**20

    def test_zero_interior_peak_memory(self):
        # 1.62 MiB with a memo on every layer and a fresh exponent tuple per
        # child's monomial; about 1.3 and 1.1 MiB with either one alone
        f, cfg = parse_form(BREADTH["zero-interior"][0], XYZW), BREADTH["zero-interior"][1]
        tracemalloc.start()
        try:
            v = yys_decide(f, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert v == Inconclusive(depth_reached=4, live_forms=642)
        assert peak < 2**20

    @pytest.mark.parametrize("cfg, calls", [(EngineConfig(), 25), (EngineConfig().compat(), 49)],
                             ids=["default", "compat"])
    def test_memo_kept_where_read(self, cfg, calls, monkeypatch):
        # without dedup a form repeats within a layer, and the memo substitutes
        # it once: compat budgets 690 children for p6 but computes 49
        made = []
        monkeypatch.setattr(engine, "substitute_pwn", lambda f, p: made.append(p) or substitute_pwn(f, p))
        v = yys_decide(parse_form(corpus_text("example3-p6"), CORPUS_VARS), cfg)
        assert isinstance(v, Counterexample)
        assert len(made) == calls

    @pytest.mark.parametrize("key", ["pd-5232", "example3-p6"])
    def test_children_share_exponent_keys(self, key):
        if key == "example3-p6":
            f = parse_form(corpus_text(key), CORPUS_VARS)
        else:
            f = parse_form(BREADTH[key][0], XYZW)
        children = [child for _, child in expand_once(f)]
        keys = {id(e) for child in children for e in child.nums}
        assert len(keys) <= math.comb(f.degree + f.nvars - 1, f.nvars - 1)
        assert sum(len(child.nums) for child in children) > len(keys)

    @pytest.mark.parametrize("key", [*BREADTH, "example1-compat"])
    def test_certificate_on_off_parity(self, key, example1):
        # the memo keeps pruned children only for a certificate
        if key == "example1-compat":
            f, cfg = example1, EngineConfig().compat()
        else:
            f, cfg = parse_form(BREADTH[key][0], XYZW), BREADTH[key][1]
        runs = []
        for emit in (False, True):
            stats = EngineStats()
            runs.append((yys_decide(f, replace(cfg, emit_certificate=emit), stats), stats))
        (off, off_stats), (on, on_stats) = runs
        assert off_stats == on_stats
        if isinstance(on, PositiveSemidefinite):
            assert off == PositiveSemidefinite(depth=on.depth)
            assert len(on.certificate) == on_stats.forms_pruned
            assert verify_certificate(f, on.certificate)
        else:
            assert off == on
