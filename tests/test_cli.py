import json

import pytest

from sds import cli
from sds.cli import main
from sds.corpus import EXAMPLE1_TEXT, EXAMPLE2_TEXT


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

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "form.txt"
        path.write_text(EXAMPLE1_TEXT + "\n")
        code, _, _ = run(capsys, "decide", "--file", str(path), "--vars", "x,y,z")
        assert code == 0

    def test_node_budget_env(self, capsys, monkeypatch):
        monkeypatch.setenv("SDS_NODE_BUDGET", "6")
        code, out, _ = run(
            capsys, "decide", EXAMPLE1_TEXT, "--vars", "x,y,z", "--format", "json"
        )
        assert code == 2
        assert json.loads(out)["config"]["node_budget"] == 6

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
        assert code == 0
        report = json.loads(out)
        assert report["min"].startswith("-")
        assert len(report["argmin"]) == 3

    def test_random_json(self, capsys):
        code, out, _ = run(
            capsys, "oracle", EXAMPLE2_TEXT, "--vars", "x,y,z",
            "--random-trials", "500", "--seed", "0", "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["found"] is True
        assert report["value"].startswith("-")

    def test_no_hit(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "(x + y)^2", "--vars", "x,y",
            "--random-trials", "50", "--format", "json",
        )
        assert code == 0
        assert json.loads(out) == {"found": False}


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

    def test_depth0_is_standard_simplex(self, capsys):
        _, out, _ = run(
            capsys, "subdivision", "--nvars", "3", "--depth", "0", "--format", "json"
        )
        cells = json.loads(out)
        assert len(cells) == 1
        assert cells[0]["squared_diameter"] == "2"

    def test_cell_budget_refused_before_any_cell(self, capsys, monkeypatch):
        built = []
        monkeypatch.setattr(cli, "cell_of_chain", lambda *a: built.append(a))
        # (3!)^8 = 1,679,616 cells, past geometry.DEFAULT_CELL_BUDGET
        code, out, err = run(capsys, "subdivision", "--nvars", "3", "--depth", "8")
        assert code == 3
        assert err.startswith("error:") and "budget" in err
        assert out == "" and built == []


class TestUsage:
    def test_usage_error_exit3(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["decide"])  # missing --vars
        assert exc.value.code == 3

    def test_missing_polynomial(self, capsys):
        code, _, err = run(capsys, "decide", "--vars", "x,y")
        assert code == 3
        assert "no polynomial" in err

    def test_unexpected_exception_exit3_without_traceback(self, capsys, monkeypatch):
        def boom(args):
            raise KeyError("boom")

        monkeypatch.setattr(cli, "cmd_decide", boom)
        code, _, err = run(capsys, "decide", "x", "--vars", "x")
        assert code == 3
        assert err.startswith("error:") and "KeyError" in err
        assert "Traceback" not in err
