"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import json
import random
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

from sds.cli import main as cli_main
from sds.corpus import CORPUS_NAMES, EXAMPLE1_TEXT, EXAMPLE2_TEXT, corpus_form
from sds.engine import Counterexample, EngineConfig, PositiveSemidefinite, yys_decide
from sds.forms import evaluate, parse_form, substitute_linear
from sds.oracle import GridSpec, grid_min

from helpers import random_chain, random_form, random_point
from reference import compose_chain, enumerate_pwn, is_normalized

F = Fraction
XYZ = ["x", "y", "z"]


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_example1_depth3():
    f = parse_form(EXAMPLE1_TEXT, XYZ)
    depths = []
    for dedup in (True, False):
        for mode in ("value", "coeffs"):
            v = yys_decide(f, EngineConfig(dedup=dedup, negativity_mode=mode))
            depths.append(v.depth if isinstance(v, PositiveSemidefinite) else None)
    _report(1, depths == [3, 3, 3, 3],
            f"example1 positive semi-definite at depth 3 in all 4 configs ({depths})")


def test_criterion_2_example2():
    f = parse_form(EXAMPLE2_TEXT, XYZ)
    default = yys_decide(f)
    ok_default = default == Counterexample(
        chain=(), point=(F(1, 3), F(1, 3), F(1, 3)), value=F(-7, 270)
    )
    compat = yys_decide(f, EngineConfig().compat())
    ok_compat = isinstance(compat, Counterexample) and len(compat.chain) <= 2
    reported_point = (F(37, 108), F(49, 108), F(11, 54))
    ok_point = evaluate(f, reported_point) < 0
    _report(2, ok_default and ok_compat and ok_point,
            "example2: depth-0 counterexample (value -7/270); compat depth "
            f"{len(compat.chain)}; reported point evaluates to "
            f"{evaluate(f, reported_point)} < 0")


def test_criterion_3_example3():
    depths = []
    for p in range(1, 6):
        v = yys_decide(corpus_form(f"example3-p{p}"))
        depths.append(v.depth if isinstance(v, PositiveSemidefinite) else None)
    ok_small = depths == [1] * 5

    f6 = corpus_form("example3-p6")
    # compat decision semantics (coeffs negativity, no root check); dedup kept
    # on to stay inside the time budget -- it cannot change the verdict depth
    cfg = EngineConfig(max_depth=5, negativity_mode="coeffs", root_check=False,
                       dedup=True)
    v6 = yys_decide(f6, cfg)
    ok_f6 = isinstance(v6, Counterexample) and len(v6.chain) <= 5
    reported = (F(2159, 5832), F(3685, 11664), F(3661, 11664))
    ok_point = evaluate(f6, reported) < 0
    _report(3, ok_small and ok_f6 and ok_point,
            f"F1..F5 at depth 1; F6 counterexample at depth "
            f"{len(v6.chain) if ok_f6 else '?'}; reported point negative")


def test_criterion_4_normalization():
    ok = True
    for n in range(1, 6):
        mats = enumerate_pwn(n)
        ok = ok and len(mats) == factorial(n) and all(is_normalized(m) for m in mats)
    rng = random.Random(101)
    for _ in range(1000):
        n = rng.randint(2, 4)
        chain = random_chain(rng, n, 4)
        ok = ok and is_normalized(compose_chain(chain, n))
    _report(4, ok, "all PW_n members (n<=5) and 1000 random chain products "
                   "are exactly normalized")


def test_criterion_5_geometry_convergence():
    from sds.geometry import max_diameter_at_depth
    values = [max_diameter_at_depth(3, m) for m in range(5)]
    decreasing = all(a > b for a, b in zip(values, values[1:]))
    bounded = all(v <= F(2, 3) ** (2 * m) * 2 for m, v in enumerate(values))
    _report(5, decreasing and bounded,
            f"max squared diameters {[str(v) for v in values]} strictly "
            "decreasing and within (2/3)^(2m)*2")


def _positive_definite_suite(rng: random.Random):
    # squares of variable differences plus a full positive bulk term: positive
    # definite on the simplex, not trivially positive as written
    forms = []
    for _ in range(10):
        a, b = rng.randint(1, 2), rng.randint(1, 2)
        i, j = rng.sample(range(3), 2)
        vi, vj = XYZ[i], XYZ[j]
        k = rng.randint(0, 2)
        text = f"({a}*{vi} - {b}*{vj})^2 * (x + y + z)^{k} + (x + y + z)^{k + 2}"
        forms.append(parse_form(text, XYZ))
    return forms


def _indefinite_suite(rng: random.Random):
    # a PSD square that vanishes on a simplex slice, minus a small full term
    forms = []
    for _ in range(10):
        i, j = rng.sample(range(3), 2)
        vi, vj = XYZ[i], XYZ[j]
        k = rng.randint(0, 2)
        q = rng.randint(8, 64)
        text = f"({vi} - {vj})^2 * (x + y + z)^{k} - 1/{q}*(x + y + z)^{k + 2}"
        forms.append(parse_form(text, XYZ))
    return forms


def test_criterion_6_oracle_agreement():
    rng = random.Random(271828)
    spec = GridSpec(12, 3)
    checked = 0
    for f in _positive_definite_suite(rng):
        v = yys_decide(f, EngineConfig(max_depth=12))
        assert isinstance(v, PositiveSemidefinite), f"expected PSD, got {v}"
        gmin, _ = grid_min(f, spec)
        assert gmin >= 0, f"grid contradicts PSD verdict: {gmin}"
        checked += 1
    for f in _indefinite_suite(rng):
        v = yys_decide(f)
        assert isinstance(v, Counterexample), f"expected counterexample, got {v}"
        assert evaluate(f, v.point) == v.value < 0
        gmin, _ = grid_min(f, spec)
        assert gmin < 0, "grid min should corroborate indefiniteness"
        checked += 1
    _report(6, checked == 20,
            "engine and grid oracle (N=12) agree on all 20 constructed forms")


def test_criterion_7_roundtrip_composition():
    rng = random.Random(314159)
    mats_cache = {n: enumerate_pwn(n) for n in (2, 3)}
    checked = 0
    for _ in range(500):
        n = rng.choice((2, 3))
        f = random_form(rng, n, rng.randint(1, 3))
        chain = random_chain(rng, n, 3)
        b = compose_chain(chain, n)
        stepwise = f
        for idx in chain:
            stepwise = substitute_linear(stepwise, mats_cache[n][idx - 1])
        assert stepwise == substitute_linear(f, b)
        p = random_point(rng, n)
        assert evaluate(substitute_linear(f, b), p) == evaluate(f, b.matvec(p))
        checked += 1
    _report(7, checked == 500,
            "500 random (form, chain) pairs satisfy chain composition and "
            "evaluation-substitution commutation exactly")


REPORTS = Path(__file__).parent / "data" / "corpus_reports.json"


def _corpus_report(name: str, capsys) -> str:
    code = cli_main(["corpus", name, "--format", "json"])
    out = capsys.readouterr().out
    # wall time is the one legitimately non-deterministic field
    report = json.loads(out)
    del report["stats"]["wall_time"]
    return json.dumps({"exit": code, "report": report}, indent=2)


def test_criterion_8_report_determinism(capsys):
    # tests/data/corpus_reports.json holds each entry's exit code and report
    # (wall_time excluded) as the engine gave them with its former thread
    # pool at --threads 1; the config echo still reports threads 1
    with open(REPORTS, encoding="utf-8") as fh:
        recorded = json.load(fh)
    mismatches = []
    for name in CORPUS_NAMES:
        first = _corpus_report(name, capsys)
        second = _corpus_report(name, capsys)
        if first.encode() != second.encode() or first != json.dumps(recorded[name], indent=2):
            mismatches.append(name)
    _report(8, not mismatches and set(recorded) == set(CORPUS_NAMES),
            "corpus reports byte-identical across repeated runs and equal to "
            f"the recorded reports (wall_time excluded; mismatches: {mismatches})")
