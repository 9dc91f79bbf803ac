import io
import json
import os
import threading
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

from sds import cli, engine, geometry
from sds.cli import main
from sds.corpus import CORPUS_NAMES, EXAMPLE1_TEXT, EXAMPLE2_TEXT
from sds.forms import linear_writes, parse_form

from helpers import monomials


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDecide:
    def test_psd_exit0_json(self, capsys):
        code, out, _ = run(
            capsys, "decide", EXAMPLE1_TEXT, "--vars", "x,y,z", "--format", "json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == {"kind": "positive_semidefinite", "depth": 3}
        assert report["input"]["vars"] == ["x", "y", "z"]
        assert report["config"]["negativity_mode"] == "value"

    def test_counterexample_exit1(self, capsys):
        code, out, _ = run(
            capsys, "decide", EXAMPLE2_TEXT, "--vars", "x,y,z", "--format", "json"
        )
        assert code == 1
        verdict = json.loads(out)["verdict"]
        assert verdict["kind"] == "counterexample"
        assert verdict["depth"] == 0
        assert verdict["point"] == ["1/3", "1/3", "1/3"]
        assert verdict["value"] == "-7/270"

    def test_inconclusive_exit2(self, capsys):
        code, out, _ = run(
            capsys, "decide", "(x + y - 2*z)^2", "--vars", "x,y,z", "--max-depth", "2"
        )
        assert code == 2
        assert "inconclusive" in out

    def test_non_homogeneous_exit3(self, capsys):
        code, _, err = run(capsys, "decide", "x + y^2", "--vars", "x,y")
        assert code == 3
        assert "homogeneous" in err

    def test_parse_error_exit3(self, capsys):
        code, _, err = run(capsys, "decide", "x +* y", "--vars", "x,y")
        assert code == 3
        assert "position" in err

    def test_deep_nesting_exit3(self, capsys):
        text = "(" * 3000 + "x" + ")" * 3000
        code, _, err = run(capsys, "decide", text, "--vars", "x")
        assert code == 3
        assert err.startswith("error:")

    def test_nesting_limit(self, capsys):
        code, out, _ = run(capsys, "decide", "(" * 100 + "x" + ")" * 100, "--vars", "x")
        assert code == 0 and "positive semi-definite" in out
        code, _, err = run(capsys, "decide", "(" * 101 + "x" + ")" * 101, "--vars", "x")
        assert code == 3
        assert err.startswith("error:") and "nested deeper than 100 (at position 100)" in err

    @pytest.mark.parametrize("text, vars", [("x^100000000-y^100000000", "x,y"),
                                            ("(x+y+z)^200", "x,y,z"),
                                            ("(x+y+z)^100*(x+y+z)^100", "x,y,z"),
                                            ("((2^1000)^1000)^40*x", "x"),
                                            ("((2^1000)^1000)^1000*x", "x")])
    def test_parser_budget_exit3_within_a_second(self, capsys, text, vars):
        start = time.perf_counter()
        code, out, err = run(capsys, "decide", text, "--vars", vars)
        assert time.perf_counter() - start < 1
        assert code == 3 and out == ""
        assert err.startswith("error:") and "internal error" not in err

    @pytest.mark.parametrize("text, vars, flags, code", [
        ("x^200*y^200*z^200*w^200*u^200-x^1000", "x,y,z,w,u", [], 3),
        ("x^999*y-2*z^1000", "x,y,z,w", [], 1),  # negative at the root's barycenter
        ("x^999*y-2*z^1000", "x,y,z,w", ["--compat"], 3),  # no root check
        ("x^1000+y^1000+z^1000+w^1000", "x,y,z,w", [], 0)])
    def test_substitution_budget_exit3_before_the_kernel(self, capsys, monkeypatch, text, vars, flags, code):
        monkeypatch.setattr(engine, "substitute_pwn", lambda *a: pytest.fail("substitute_pwn called"))
        start = time.perf_counter()
        got, out, err = run(capsys, "decide", text, "--vars", vars, *flags)
        assert time.perf_counter() - start < 1
        assert got == code
        if code == 3:
            assert out == "" and err.startswith("error: a degree-1000 form in ")
            assert err.endswith(" monomials, over the substitution budget of 1500000 terms\n")
        else:
            assert out.endswith("(depth 0)\n") or "counterexample at depth 0" in out

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "form.txt"
        path.write_text(EXAMPLE1_TEXT + "\n")
        code, _, _ = run(capsys, "decide", "--file", str(path), "--vars", "x,y,z")
        assert code == 0

    def test_file_size_limit_exit3_before_parsing(self, capsys, tmp_path, monkeypatch):
        # --file is read by the certificate's bounded reader, under its own limit
        path = tmp_path / "form.txt"
        path.write_text("x^2 + y^2\n")  # 10 bytes
        parsed = []
        real_parse = cli.parse_form
        monkeypatch.setattr(cli, "parse_form", lambda text, vars: parsed.append(text) or real_parse(text, vars))
        monkeypatch.setattr(cli, "MAX_POLYNOMIAL_BYTES", 9)
        code, out, err = run(capsys, "decide", "--file", str(path), "--vars", "x,y")
        assert (code, out, parsed) == (3, "", [])
        assert err == "error: a polynomial file exceeds the limit of 9 bytes\n"
        monkeypatch.setattr(cli, "MAX_POLYNOMIAL_BYTES", 10)
        code, out, err = run(capsys, "decide", "--file", str(path), "--vars", "x,y")
        assert (code, out, err) == (0, "positive semi-definite (depth 0)\n", "")
        assert parsed == ["x^2 + y^2"]

    def test_certificate_roundtrip(self, capsys, tmp_path):
        cert = tmp_path / "cert.json"
        code, out, _ = run(
            capsys,
            "decide",
            EXAMPLE1_TEXT,
            "--vars",
            "x,y,z",
            "--certificate-out",
            str(cert),
            "--format",
            "json",
        )
        assert code == 0
        assert json.loads(out)["verdict"]["certificate_path"] == str(cert)
        entries = json.loads(cert.read_text())
        assert entries and all({"chain", "form"} <= set(e) for e in entries)
        code, out, _ = run(
            capsys,
            "verify-certificate",
            EXAMPLE1_TEXT,
            "--vars",
            "x,y,z",
            "--certificate",
            str(cert),
        )
        assert code == 0
        assert "valid" in out

    def test_empty_certificate_path_exit3_before_deciding(self, capsys, monkeypatch):
        def no_decide(*args):
            raise AssertionError("decided despite an empty certificate path")

        monkeypatch.setattr(cli, "yys_decide", no_decide)
        code, out, err = run(capsys, "decide", "x^2+y^2-x*y", "--vars", "x,y", "--certificate-out", "")
        assert code == 3
        assert out == ""
        assert err == "error: --certificate-out needs a non-empty path\n"

    def test_tampered_certificate_rejected(self, capsys, tmp_path):
        cert = tmp_path / "cert.json"
        run(capsys, "decide", EXAMPLE1_TEXT, "--vars", "x,y,z",
            "--certificate-out", str(cert))
        entries = json.loads(cert.read_text())
        entries.pop(0)
        cert.write_text(json.dumps(entries))
        code, out, _ = run(
            capsys, "verify-certificate", EXAMPLE1_TEXT, "--vars", "x,y,z",
            "--certificate", str(cert),
        )
        assert code == 1
        assert "INVALID" in out


    def test_long_certificate_chain(self, capsys, tmp_path):
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps([{"chain": [1] * 3000, "form": "x^2"}]))
        code, out, _ = run(capsys, "verify-certificate", "x^2", "--vars", "x",
                           "--certificate", str(cert))
        assert code == 0
        assert out.strip() == "certificate valid"


class TestVerifyCertificate:
    def verify(self, capsys, tmp_path, text, vars, payload):
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(payload))
        return run(capsys, "verify-certificate", text, "--vars", vars, "--certificate", str(cert))

    @pytest.mark.parametrize("payload", [
        [{"chain": ["a"], "form": "x^2"}],
        {"chain": [1]},
        [{"chain": [1]}],
        5,
    ])
    def test_malformed_file_exit3(self, capsys, tmp_path, payload):
        code, out, err = self.verify(capsys, tmp_path, "x^2", "x", payload)
        assert code == 3 and out == ""
        assert err.startswith("error:") and "internal error" not in err

    def test_entry_budget_exit3_before_parsing(self, capsys, tmp_path, monkeypatch):
        # the default node budget is the most entries a default decide emits;
        # the count is checked before the entries' shape
        parsed = []
        real_parse = cli.parse_form

        def counting_parse(text, vars):
            parsed.append(text)
            return real_parse(text, vars)

        monkeypatch.setattr(cli, "parse_form", counting_parse)
        start = time.perf_counter()
        code, out, err = self.verify(capsys, tmp_path, "x^2", "x", [0] * (10**6 + 1))
        assert time.perf_counter() - start < 1
        assert parsed == ["x^2"]  # the source form only
        assert code == 3 and out == ""
        assert err == "error: a certificate of 1000001 entries exceeds the limit of 1000000\n"

    def test_file_size_limit_exit3_before_loading(self, capsys, tmp_path, monkeypatch):
        payload = [{"chain": [], "form": "x^2"}]
        size = len(json.dumps(payload))
        loads = []
        real_loads = cli.json.loads
        monkeypatch.setattr(cli.json, "loads", lambda s, **kw: loads.append(s) or real_loads(s, **kw))
        monkeypatch.setattr(cli, "MAX_CERTIFICATE_BYTES", size - 1)
        code, out, err = self.verify(capsys, tmp_path, "x^2", "x", payload)
        assert code == 3 and out == "" and loads == []
        assert err == f"error: a certificate file exceeds the limit of {size - 1} bytes\n"
        # a file of exactly the limit is loaded and verified as before
        monkeypatch.setattr(cli, "MAX_CERTIFICATE_BYTES", size)
        code, out, err = self.verify(capsys, tmp_path, "x^2", "x", payload)
        assert (code, out, err) == (0, "certificate valid\n", "") and len(loads) == 1

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_file_size_limit_on_a_pipe(self, capsys, tmp_path, monkeypatch):
        # a pipe reports size 0, so the limit is checked on the bytes read
        data = json.dumps([{"chain": [], "form": "x^2"}]).encode()
        loads = []
        real_loads = cli.json.loads
        monkeypatch.setattr(cli.json, "loads", lambda s, **kw: loads.append(s) or real_loads(s, **kw))

        def verify_through_pipe(limit):
            fifo = tmp_path / f"cert-{limit}"
            os.mkfifo(fifo)

            def write():
                try:
                    with open(fifo, "wb") as fh:
                        fh.write(data)
                except BrokenPipeError:
                    pass

            writer = threading.Thread(target=write, daemon=True)
            writer.start()
            monkeypatch.setattr(cli, "MAX_CERTIFICATE_BYTES", limit)
            result = run(capsys, "verify-certificate", "x^2", "--vars", "x", "--certificate", str(fifo))
            writer.join(5)
            assert not writer.is_alive()
            return result

        code, out, err = verify_through_pipe(len(data) - 1)
        assert code == 3 and out == "" and loads == []
        assert err == f"error: a certificate file exceeds the limit of {len(data) - 1} bytes\n"
        assert verify_through_pipe(len(data)) == (0, "certificate valid\n", "")
        assert len(loads) == 1

    def test_chain_length_budget_exit3(self, capsys, tmp_path):
        start = time.perf_counter()
        code, out, err = self.verify(capsys, tmp_path, "x^2", "x", [{"chain": [1] * 20000, "form": "x^2"}])
        assert time.perf_counter() - start < 1
        assert code == 3 and out == ""
        assert err == "error: chain of length 20000 exceeds the limit of 5000\n"

    @pytest.mark.parametrize("bad_first", [True, False])
    def test_bad_index_exit3_in_any_entry_order(self, capsys, tmp_path, bad_first):
        entries = [{"chain": [1, 1], "form": "x^2"}, {"chain": [7], "form": "x^2"}]
        if bad_first:
            entries.reverse()
        code, out, err = self.verify(capsys, tmp_path, "x^2 + y^2", "x,y", entries)
        assert code == 3 and out == ""
        assert err == "error: chain index 7 out of range 1..2\n"


    @pytest.mark.parametrize("d, chain, vars", [(40, [1], "x,y,z,w"), (200, [1] * 400, "x,y"),
                                                ("(x+y+z+w)^20", [1], "x,y,z,w")])
    def test_expansion_budget_exit3_within_a_second(self, capsys, tmp_path, d, chain, vars):
        # an int d stands for the sum of the d-th powers of the variables; the
        # dense text is inside the one-power budget, and its 1,771 terms' products
        # took 10 s to expand before the per-entry write budget
        text = d if isinstance(d, str) else "+".join(f"{v}^{d}" for v in vars.split(","))
        start = time.perf_counter()
        code, out, err = self.verify(capsys, tmp_path, text, vars, [{"chain": chain, "form": "x^2"}])
        assert time.perf_counter() - start < 1
        assert code == 3 and out == ""
        assert err.startswith("error: verifying") and "internal error" not in err

    def test_expansion_budget_after_the_chain_check(self, capsys, tmp_path):
        code, _, err = self.verify(capsys, tmp_path, "x^40+y^40+z^40+w^40", "x,y,z,w",
                                   [{"chain": [1], "form": "x^2"}, {"chain": [25], "form": "x^2"}])
        assert code == 3 and err == "error: chain index 25 out of range 1..24\n"

    def test_total_expansion_budget_exit3_before_any_expansion(self, capsys, tmp_path, monkeypatch):
        # a walk of (x+y+z+w)^12 writes 24 · 276,452 terms per inner node, so one
        # inner node is inside the budget and two are not
        text, vars = "(x+y+z+w)^12", "x,y,z,w"
        assert 24 * linear_writes(4, 12) <= engine.MAX_VERIFY_WRITES < 48 * linear_writes(4, 12)
        expanded = []
        monkeypatch.setattr(engine, "substitute_linear", lambda f, rows: expanded.append(rows) or f)
        depth1 = [{"chain": [k], "form": "x^2"} for k in range(1, 25)]
        code, out, err = self.verify(capsys, tmp_path, text, vars,
                                     [{"chain": [1, k], "form": "x^2"} for k in range(1, 25)] + depth1[1:])
        assert code == 3 and out == "" and expanded == []
        assert err == ("error: verifying 48 substitutions of a degree-12 form in 4 variables could write "
                       f"over {engine.MAX_VERIFY_WRITES} terms\n")
        code, out, _ = self.verify(capsys, tmp_path, text, vars, depth1)
        assert code == 1 and out == "certificate INVALID\n" and len(expanded) == 1

    def test_early_parting_long_chains_exit3_in_bounded_memory(self, capsys, tmp_path):
        # 8 chains of 5000 that part within 3 indices have 39,983 distinct
        # proper prefixes, over the 36,764 inner nodes the budget allows at
        # n = 2, d = 1; kept as prefix tuples they would take about 800 MB
        chains = [[1 + (k >> b & 1) for b in range(3)] + [1] * 4997 for k in range(8)]
        tracemalloc.start()
        try:
            start = time.perf_counter()
            code, out, err = self.verify(capsys, tmp_path, "x + y", "x,y", [{"chain": c, "form": "x"} for c in chains])
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3 and out == "" and elapsed < 2 and peak < 16 * 2**20
        assert err == ("error: verifying 79966 substitutions of a degree-1 form in 2 variables could write "
                       f"over {engine.MAX_VERIFY_WRITES} terms\n")


class TestCorpus:
    def test_example3_p1_depth1(self, capsys):
        code, out, _ = run(capsys, "corpus", "example3-p1", "--format", "json")
        assert code == 0
        assert json.loads(out)["verdict"]["depth"] == 1

    def test_example2_compat(self, capsys):
        code, out, _ = run(capsys, "corpus", "example2", "--compat", "--format", "json")
        assert code == 1
        verdict = json.loads(out)["verdict"]
        assert verdict["depth"] == 2
        assert verdict["point"] == ["37/108", "49/108", "11/54"]

    def test_compat_config_echo(self, capsys):
        _, out, _ = run(capsys, "corpus", "example2", "--compat", "--format", "json")
        config = json.loads(out)["config"]
        assert config["negativity_mode"] == "coeffs"
        assert config["root_check"] is False
        assert config["dedup"] is False

    def test_unknown_name(self, capsys):
        code, _, err = run(capsys, "corpus", "example9")
        assert code == 3
        assert "unknown corpus entry" in err


class TestOracle:
    def test_grid_json(self, capsys):
        code, out, _ = run(
            capsys, "oracle", EXAMPLE2_TEXT, "--vars", "x,y,z",
            "--grid-denominator", "3", "--format", "json",
        )
        assert code == 1
        report = json.loads(out)
        assert report["min"].startswith("-")
        assert len(report["argmin"]) == 3

    def test_random_json(self, capsys):
        code, out, _ = run(
            capsys, "oracle", EXAMPLE2_TEXT, "--vars", "x,y,z",
            "--random-trials", "500", "--seed", "0", "--format", "json",
        )
        assert code == 1
        report = json.loads(out)
        assert report["found"] is True
        assert report["value"].startswith("-")

    def test_no_hit(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "(x + y)^2", "--vars", "x,y",
            "--random-trials", "50", "--format", "json",
        )
        assert code == 2
        assert json.loads(out) == {"found": False}

    def test_random_trials_budget(self, capsys):
        code, out, err = run(capsys, "oracle", "x", "--vars", "x",
                             "--random-trials", "1000000000000")
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and "budget" in err

    @pytest.mark.parametrize("text, budget", [("x^1000-y^1000", "--grid-denominator=1999999"),
                                              ("x^1000+y^1000", "--random-trials=1000000")])
    def test_work_budget_exit3_within_a_second(self, capsys, text, budget):
        start = time.perf_counter()
        code, out, err = run(capsys, "oracle", text, "--vars", "x,y", budget)
        assert time.perf_counter() - start < 1
        assert code == 3 and out == ""
        assert err.startswith("error:") and "work budget" in err

    def test_nonnegative_grid_min_exit2(self, capsys):
        code, out, _ = run(capsys, "oracle", "(x + y)^2", "--vars", "x,y", "--grid-denominator", "4")
        assert code == 2
        assert out.startswith("grid min 1 ")


class TestSubdivision:
    def test_depth1_cells(self, capsys):
        code, out, _ = run(
            capsys, "subdivision", "--nvars", "3", "--depth", "1", "--format", "json"
        )
        assert code == 0
        cells = json.loads(out)
        assert len(cells) == 6
        for cell in cells:
            assert len(cell["vertices"]) == 3
            assert cell["squared_diameter"]

    def test_one_variable_depth_refused_before_any_chain(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "subdivision", "--nvars", "1", "--depth", str(10**9))
        assert time.perf_counter() - start < 0.5
        assert code == 3 and out == ""
        assert err == "error: chain of length 1000000000 exceeds the limit of 5000\n"

    def test_depth0_is_standard_simplex(self, capsys):
        _, out, _ = run(
            capsys, "subdivision", "--nvars", "3", "--depth", "0", "--format", "json"
        )
        cells = json.loads(out)
        assert len(cells) == 1
        assert cells[0]["squared_diameter"] == "2"

    def test_cell_budget_refused_before_any_cell(self, capsys, monkeypatch):
        built = []
        monkeypatch.setattr(geometry, "pwn_step", lambda *a: built.append(a))  # the walk's step
        # (3!)^8 = 1,679,616 cells, past geometry.DEFAULT_CELL_BUDGET
        code, out, err = run(capsys, "subdivision", "--nvars", "3", "--depth", "8")
        assert code == 3
        assert err.startswith("error:") and "budget" in err
        assert out == "" and built == []

    def test_cells_streamed_in_small_memory(self):
        class Discard(io.TextIOBase):
            def write(self, text):
                return len(text)

        tracemalloc.start()
        try:
            with redirect_stdout(Discard()):
                code = main(["subdivision", "--nvars", "3", "--depth", "5", "--format", "json"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and peak < 2**20  # 7,776 cells: held all at once, with their text, 27 MiB


class TestUsage:
    def test_usage_error_exit3(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["decide"])  # missing --vars
        assert exc.value.code == 3

    def test_threads_flag_removed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["decide", "x", "--vars", "x", "--threads", "2"])
        assert exc.value.code == 3
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err

    @pytest.mark.parametrize("command, extra", [("decide", []),
                                                ("oracle", ["--grid-denominator", "2"]),
                                                ("verify-certificate", ["--certificate", "c.json"])])
    @pytest.mark.parametrize("spec, message", [(",", "at least one variable is required"),
                                               ("x,x", "duplicate variable names")])
    def test_bad_variable_list_exit3(self, capsys, command, extra, spec, message):
        # parse_form refuses the list before the certificate file is opened
        code, out, err = run(capsys, command, "x", "--vars", spec, *extra)
        assert code == 3 and out == ""
        assert err == f"error: {message}\n"

    def test_missing_polynomial(self, capsys):
        code, _, err = run(capsys, "decide", "--vars", "x,y")
        assert code == 3
        assert "no polynomial" in err

    @pytest.mark.parametrize("stderr_works", [True, False])
    def test_memory_error_exit3_even_without_stderr(self, capsys, monkeypatch, stderr_works):
        def exhaust(args):
            raise MemoryError

        class FailingStderr(io.StringIO):
            def write(self, text):  # the first write fails, as printing can when memory is short
                raise MemoryError

        monkeypatch.setattr(cli, "cmd_decide", exhaust)
        err = io.StringIO() if stderr_works else FailingStderr()
        with redirect_stderr(err):
            code = main(["decide", "x", "--vars", "x"])
        assert code == 3
        assert err.getvalue() == ("error: internal error: MemoryError: \n" if stderr_works else "")

    def test_unexpected_exception_exit3_without_traceback(self, capsys, monkeypatch):
        def boom(args):
            raise KeyError("boom")

        monkeypatch.setattr(cli, "cmd_decide", boom)
        code, _, err = run(capsys, "decide", "x", "--vars", "x")
        assert code == 3
        assert err.startswith("error:") and "KeyError" in err
        assert "Traceback" not in err


@lru_cache(maxsize=1)
def example1_certificate():
    """example1's certificate entries, as `decide --certificate-out` writes them."""
    vars = ["x", "y", "z"]
    verdict = engine.yys_decide(parse_form(EXAMPLE1_TEXT, vars), engine.EngineConfig(emit_certificate=True))
    return [{"chain": list(chain), "form": form.to_text(vars)} for chain, form in verdict.certificate]


class TestExitContract:
    # Each call carries at most one deliberate fault (a bad flag value, source,
    # variable list, certificate path or extra argument), besides the
    # certificate file that verify-certificate draws, so that about a third of
    # the calls get past every check to a verdict, a sample or a verify.
    # Polynomial text comes from a small grammar: operands and operators
    # alternate, so that many texts reach the parser's literals and budgets; a
    # legitimate exponent is at most 6 and every larger one is over MAX_DEGREE,
    # and the flags' depths, budgets, trials and grids are small, so every call
    # is short.  A quarter of the decide calls instead get monomials of degree
    # 500 or 1000 in 4 to 7 variables, with a node budget of 7!: the root check
    # decides them or the substitution budget refuses them at once.
    FAULTS = ["source", "vars", "flag", "certificate-out", "extra"]
    digit = st.sampled_from("0123456789٣²½")  # ASCII and other digits
    literal = st.one_of(
        st.integers(0, 6).map(str),
        st.integers(10**4, 10**6).map(str),
        st.builds(lambda k: "1" + "0" * k, st.integers(4, 5000)),
        st.builds(lambda k, c: "0" * k + c, st.integers(1, 5000), st.sampled_from("0123456")),
        st.text(digit, min_size=1, max_size=4),
    )
    coefficient = st.one_of(st.integers(1, 9).map(str), st.sampled_from(["0", "1/2", "7/30"]),
                            st.builds(lambda k: "1" + "0" * k, st.integers(0, 5000)))
    operand = st.one_of(literal, st.sampled_from(["x", "y", "z", "w", "_", "x1", "(x+y)", "(x-2*y+z)", "x½"]))
    operator = st.one_of(
        st.sampled_from("+-*^/"),
        st.text("+-*^/", min_size=1, max_size=4),
        st.sampled_from(["$", "@", ".", "(", ")", " ", " ", "é", "½"]),
    )

    def pick(self, data, fault, good, bad):
        return data.draw(st.sampled_from(bad if fault else good))

    def polynomial(self, data):
        """Grammar text, or a form of degree 0..4 in x, y, z, nested to 101."""
        if data.draw(st.sampled_from([True, False, False])):
            body = "".join(a + b for a, b in data.draw(st.lists(st.tuples(self.operand, self.operator), max_size=4)))
            body += data.draw(self.operand)
        else:
            exps = data.draw(st.lists(st.sampled_from(monomials(3, data.draw(st.integers(0, 4)))), min_size=1, max_size=6))
            body = "".join(data.draw(st.sampled_from(["+", "-"])) + data.draw(self.coefficient)
                           + "".join(f"*{v}^{e}" for v, e in zip("xyz", exp) if e) for exp in exps)
        depth = data.draw(st.sampled_from([0, 0, 0, 1, 100, 101]))
        return "(" * depth + body + ")" * depth

    def high_degree(self, data):
        """A variable list of 4 to 7 names, and a sum of 1 to 3 monomials of degree 500 or 1000 in them."""
        names = "xyzwuvs"[:data.draw(st.integers(4, 7))]
        d = data.draw(st.sampled_from([500, 1000]))
        body = ""
        for _ in range(data.draw(st.integers(1, 3))):
            cuts = sorted(data.draw(st.lists(st.integers(0, d), min_size=len(names) - 1, max_size=len(names) - 1)))
            body += data.draw(st.sampled_from(["+", "-"])) + data.draw(self.coefficient) + "".join(
                f"*{v}^{b - a}" for v, a, b in zip(names, [0, *cuts], [*cuts, d]) if b > a)
        return ",".join(names), body

    def source(self, data, tmp_path, text, fault):
        """The polynomial inline (after "--", as it may start with '-') or from a
        file; with the fault, absent, missing or not UTF-8.  It goes last."""
        path = tmp_path / "poly.txt"
        how = self.pick(data, fault, ["inline", "inline", "file"], ["bad-file", "missing-file", "none"])
        if how == "file":
            path.write_text(text, encoding="utf-8")
        elif how == "bad-file":
            path.write_bytes(b"x^2\xff\xfe")
        elif how == "missing-file":
            path = tmp_path / "absent.txt"
        return {"inline": ["--", text], "none": []}.get(how, ["--file", str(path)])

    def certificate(self, data, tmp_path):
        """A certificate file: example1's, tampered with, malformed, not UTF-8, or missing."""
        path = tmp_path / "cert.json"
        kind = data.draw(st.sampled_from(["valid", "tampered", "tampered", "raw", "bad-bytes", "missing"]))
        entries = [dict(entry) for entry in example1_certificate()]
        if kind == "tampered":
            k = data.draw(st.integers(0, len(entries) - 1))
            how = data.draw(st.sampled_from(["drop", "duplicate", "chain", "form", "extend", "long"]))
            if how == "drop":
                del entries[k]
            elif how == "duplicate":
                entries.append(entries[k])
            elif how == "chain":
                entries[k]["chain"] = data.draw(st.lists(
                    st.one_of(st.integers(-2, 8), st.sampled_from([1.5, True, "1", None, 10**30])), max_size=4))
            elif how == "form":
                entries[k]["form"] = self.polynomial(data)
            elif how == "extend":
                entries[k]["chain"] = entries[k]["chain"] + [data.draw(st.integers(1, 7))]
            else:
                entries[k]["chain"] = [1] * data.draw(st.sampled_from([5000, 5001]))
        if kind in ("valid", "tampered"):
            path.write_text(json.dumps(entries), encoding="utf-8")
        elif kind == "raw":
            path.write_text(data.draw(st.sampled_from(
                ["", "{", "[", "null", "5", "{}", "[1]", '[{"chain": [1]}]', '[{"chain": "1", "form": "x"}]'])))
        elif kind == "bad-bytes":
            path.write_bytes(b'[{"chain": [], "form": "x\xff"}]')
        else:
            path = tmp_path / "absent.json"
        return ["--certificate", str(path)]

    def engine_flags(self, data, tmp_path, fault):
        flag = fault == "flag" and data.draw(st.sampled_from(["--max-depth", "--node-budget", "--negativity-mode"]))
        flags = ["--max-depth", self.pick(data, flag == "--max-depth", ["1", "2", "3"], ["0", "-1", "x"]),
                 "--node-budget", self.pick(data, flag == "--node-budget", ["24", "60", "100"], ["-1", "0", "5"])]
        if flag == "--negativity-mode" or data.draw(st.booleans()):
            flags += ["--negativity-mode", self.pick(data, flag == "--negativity-mode", ["value", "coeffs"], ["both"])]
        for option in ("--compat", "--no-dedup", "--no-root-check"):
            if data.draw(st.booleans()):
                flags.append(option)
        if data.draw(st.booleans()):
            flags += ["--format", data.draw(st.sampled_from(["text", "json"]))]
        out = self.pick(data, fault == "certificate-out", [None, str(tmp_path / "out.json")], ["", str(tmp_path)])
        return flags if out is None else flags + ["--certificate-out", out]

    def argv(self, data, tmp_path):
        fault = data.draw(st.one_of(st.none(), st.sampled_from(self.FAULTS)))
        vars = ["--vars", self.pick(data, fault == "vars", ["x,y,z", "x,y,z,w"], ["x,y", "x,x", ",", "x,1y"])]
        command = data.draw(st.sampled_from(["decide", "corpus", "oracle", "subdivision", "verify-certificate"]))
        if command == "corpus":
            argv = [command, self.pick(data, fault == "source", CORPUS_NAMES, ["example4"])]
            argv += self.engine_flags(data, tmp_path, fault)
        elif command == "subdivision":
            flag = fault == "flag" and data.draw(st.sampled_from(["--nvars", "--depth"]))
            argv = [command, "--nvars", self.pick(data, flag == "--nvars", ["1", "2", "3"], ["-1", "0", "9", "x"]),
                    "--depth", self.pick(data, flag == "--depth", ["0", "1", "2"], ["-1", "1000000", "x"])]
        elif command == "decide" and data.draw(st.sampled_from([False, False, False, True])):
            names, text = self.high_degree(data)
            argv = [command, "--vars", names, *self.engine_flags(data, tmp_path, fault), "--node-budget", "5040"]
            argv += self.source(data, tmp_path, text, fault == "source")
        elif command == "verify-certificate":
            text = data.draw(st.one_of(st.just(EXAMPLE1_TEXT), st.builds(self.polynomial, st.just(data))))
            argv = [command, *vars, *self.certificate(data, tmp_path)]
            argv += self.source(data, tmp_path, text, fault == "source")
        else:
            argv = [command, *vars]
            if command == "decide":
                argv += self.engine_flags(data, tmp_path, fault)
            elif data.draw(st.booleans()):
                argv += ["--grid-denominator", self.pick(data, fault == "flag", ["1", "3", "8"], ["-1", "0", "x"])]
            else:
                argv += ["--random-trials", self.pick(data, fault == "flag", ["1", "50"], ["-1", "0"]),
                         "--seed", data.draw(st.sampled_from(["0", "7", "-3"]))]
            argv += self.source(data, tmp_path, self.polynomial(data), fault == "source")
        return argv + self.pick(data, fault == "extra", [[]], [["--bogus"], ["extra"], ["--"], ["-h"]])

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_exit_code_in_contract_without_a_traceback(self, tmp_path, data):
        argv = self.argv(data, tmp_path)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse: usage errors exit 3, -h exits 0
                code = exc.code
        event(f"{argv[0]} exit {code}")  # the mix shows under --hypothesis-show-statistics
        assert code in (0, 1, 2, 3), (argv, code)
        assert "Traceback" not in err.getvalue() and "internal error" not in err.getvalue(), (argv, err.getvalue())
