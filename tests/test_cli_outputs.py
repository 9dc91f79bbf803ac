"""Exact stdout, stderr and exit code of `sds` on fixed argv cases.

tests/data/cli_outputs.json holds each case's argv, the files it reads
(written to a temporary directory first) and what the front end printed,
with `wall_time` zeroed and the temporary directory replaced by `{tmp}`.
The recorded outputs come from the front end before its output code was
rebuilt around one print route; this test pins that rebuild to them.

    PYTHONPATH=src python tests/test_cli_outputs.py

re-records the outputs from whichever `sds` is on the path.
"""

import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from sds.cli import main

OUTPUTS = Path(__file__).parent / "data" / "cli_outputs.json"
TMP = "{tmp}"


def run_case(case: dict, tmp: str) -> dict:
    for name, content in case.get("files", {}).items():
        Path(tmp, name).write_text(content, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([arg.replace(TMP, tmp) for arg in case["argv"]])
    stdout = re.sub(r'"wall_time": [^,\n}]+', '"wall_time": 0', out.getvalue())
    return {"exit": code, "stdout": stdout.replace(tmp, TMP), "stderr": err.getvalue().replace(tmp, TMP)}


def _load() -> list:
    with open(OUTPUTS, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("case", _load(), ids=lambda case: case["id"])
def test_cli_output_matches_record(case, tmp_path):
    expected = {key: case[key] for key in ("exit", "stdout", "stderr")}
    assert run_case(case, str(tmp_path)) == expected


if __name__ == "__main__":
    import tempfile

    cases = _load()
    for case in cases:
        with tempfile.TemporaryDirectory() as tmp:
            case.update(run_case(case, tmp))
    with open(OUTPUTS, "w", encoding="utf-8") as fh:
        json.dump(cases, fh, indent=2)
        fh.write("\n")
