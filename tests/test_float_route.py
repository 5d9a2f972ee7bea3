"""Reports of the float route, pinned byte for byte.

`float_reports.jsonl` holds one float-route command per line, with the
report it printed before the float split moved out of `linalg` onto numpy
arrays in `spectrum.float_spectrum`. A float SPECTRUM report has since
gained `outputs.skipped_checks`; every other byte is unchanged.
"""

import json
import os

import pytest

from koszul_index import cli

with open(os.path.join(os.path.dirname(__file__), "float_reports.jsonl")) as _handle:
    PINNED = [json.loads(line) for line in _handle]


def _one_report(argv, tmp_path):
    out = tmp_path / "out.jsonl"
    assert cli.main(list(argv) + ["--output", str(out)]) == 0
    (line,) = out.read_text().splitlines()
    return line


@pytest.mark.parametrize("pin", PINNED, ids=[f"{p['argv'][0]}-{k}" for k, p in enumerate(PINNED)])
def test_float_reports_are_pinned(tmp_path, pin):
    line = _one_report(pin["argv"], tmp_path)
    if pin["report"]["kind"] == "SPECTRUM":
        report = json.loads(line)
        assert [s["name"] for s in report["outputs"].pop("skipped_checks")] == \
            ["eigenvalues_certified"]
        line = json.dumps(report, separators=(",", ":"))
    assert line == json.dumps(pin["report"], separators=(",", ":"))


def test_float_spectrum_says_its_eigenvalues_are_not_certified(tmp_path):
    # the identity's eigenvalue 1 is exact, but the float split restricts it to
    # each eigenspace of the first operator by least squares and reports 1 + 2^-52
    report = json.loads(_one_report(
        ["spectrum", "--backend", "float", "--operators",
         '[[["0","2"],["1","0"]],[["1","0"],["0","1"]]]'], tmp_path))
    assert [pt["point"][1] for pt in report["outputs"]["eigenvalues"]] == \
        ["1.0000000000000002"] * 2
    (skipped,) = report["outputs"]["skipped_checks"]
    assert skipped["name"] == "eigenvalues_certified"
    assert "float" in skipped["reason"]
    assert "eigenvalues_certified" not in {c["name"] for c in report["checks"]}
    exact = json.loads(_one_report(
        ["spectrum", "--operators", '[[["0","1"],["1","0"]],[["1","0"],["0","1"]]]'], tmp_path))
    assert "skipped_checks" not in exact["outputs"]
