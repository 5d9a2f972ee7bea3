"""Reports of the float route, pinned byte for byte.

`float_reports.jsonl` holds one float-route command per line, with the
report it printed before the float split moved out of `linalg` onto numpy
arrays in `spectrum.float_spectrum`, and the id of its test. A float
SPECTRUM report has since gained `outputs.skipped_checks`; every other byte
is unchanged. Every pinned command falls back to float because a joint
eigenvalue leaves Q(i); the two pins whose eigenvalues are rational are
split exactly by SPECTRUM now and are pinned on `float_spectrum` itself.
"""

import json
import os

import pytest

from koszul_index import cli
from koszul_index.koszul import CommutingTuple
from koszul_index.linalg import Matrix
from koszul_index.scalars import QQi, scalar_str
from koszul_index.spectrum import float_spectrum

with open(os.path.join(os.path.dirname(__file__), "float_reports.jsonl")) as _handle:
    PINNED = [json.loads(line) for line in _handle]


def _one_report(argv, tmp_path):
    out = tmp_path / "out.jsonl"
    assert cli.main(list(argv) + ["--output", str(out)]) == 0
    (line,) = out.read_text().splitlines()
    return line


@pytest.mark.parametrize("pin", PINNED, ids=[p["id"] for p in PINNED])
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
        ["spectrum", "--operators",
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


@pytest.mark.parametrize("operators, pairs", [
    ([[["1", "1"], ["0", "1"]], [["2", "3"], ["0", "2"]]], [(["1.0", "2.0"], 2)]),
    ([[["1", "0"], ["0", "2"]], [["3", "0"], ["0", "4"]]],
     [(["1.0", "3.0"], 1), (["2.0", "4.0"], 1)]),
], ids=["jordan", "diagonal"])
def test_float_spectrum_of_rational_tuples_is_pinned(operators, pairs):
    # the points a float SPECTRUM report printed for these tuples
    t = CommutingTuple([Matrix([[QQi.parse(x) for x in row] for row in op]) for op in operators])
    assert [([scalar_str(x) for x in point], m) for point, m in float_spectrum(t)] == pairs
