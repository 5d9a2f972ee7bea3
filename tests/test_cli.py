import json
import os
import subprocess
import sys

import pytest

from koszul_index import cli
from koszul_index.cli import (Scenario, SchemaError, builtin_scenarios,
                              execute_scenario, run_all, scenarios_from_document)

DEFAULTS = Scenario("defaults", "IDENTITIES", {}, "exact", None, 7)


def run_main(args, tmp_path, name="out.jsonl"):
    out = tmp_path / name
    code = cli.main(list(args) + ["--output", str(out)])
    if not out.exists():
        return code, [], b""
    lines = out.read_text().splitlines()
    return code, [json.loads(line) for line in lines], out.read_bytes()


def write_scenarios(tmp_path, doc):
    path = tmp_path / "scenarios.json"
    path.write_text(json.dumps(doc))
    return str(path)


GOOD_DOC = {
    "schema": 1,
    "scenarios": [
        {"id": "h", "kind": "HOMOLOGY",
         "payload": {"operators": [[["0", "1"], ["0", "0"]]],
                     "expect": {"dims": [1, 1]}}},
        {"id": "m", "kind": "MULTIPLICITY",
         "payload": {"system": "z1^2 - z2 ; z2^2", "variables": 2,
                     "at": ["0", "0"], "expect": {"multiplicity": 4}}},
        {"id": "ident", "kind": "IDENTITIES", "payload": {"n": 2, "m": 4}},
    ],
}


def test_run_good_file(tmp_path):
    code, reports, _ = run_main(["run", write_scenarios(tmp_path, GOOD_DOC)], tmp_path)
    assert code == 0
    assert [r["id"] for r in reports] == ["h", "m", "ident"]
    assert all(r["pass"] for r in reports)
    assert reports[1]["outputs"]["multiplicity"] == 4


def test_exit_code_one_on_computational_error(tmp_path):
    doc = {"schema": 1, "scenarios": [
        {"id": "boundary", "kind": "INDEX",
         "payload": {"domain": {"kind": "polydisc", "center": ["0"],
                                "radii": ["1"]},
                     "system": "z1 - 1"}}]}
    code, reports, _ = run_main(["run", write_scenarios(tmp_path, doc)], tmp_path)
    assert code == 1
    assert reports[0]["error"]["type"] == "ZeroOnBoundary"


@pytest.mark.parametrize("doc", [
    {"schema": 2, "scenarios": [{"id": "x", "kind": "IDENTITIES",
                                 "payload": {"n": 1, "m": 1}}]},
    {"schema": 1, "scenarios": []},
    {"schema": 1, "scenarios": [{"id": "x", "kind": "NOPE", "payload": {}}]},
    {"schema": 1, "scenarios": [{"id": "x", "kind": "IDENTITIES",
                                 "payload": {"n": 1, "m": 1}, "bogus": 2}]},
    {"schema": 1, "scenarios": [{"id": "x", "kind": "IDENTITIES",
                                 "payload": {"n": 1, "m": 1, "weird": 0}}]},
    {"schema": 1, "scenarios": [{"id": "x", "kind": "HOMOLOGY",
                                 "payload": {"operators": [[["zz"]]]}}]},
    {"schema": 1, "extra": True,
     "scenarios": [{"id": "x", "kind": "IDENTITIES", "payload": {"n": 1, "m": 1}}]},
] + [{"schema": 1, "scenarios": [{"id": "x", "kind": kind, "payload": payload}]}
     for kind, payload in [
    # operator lists that are empty, non-square or of unequal size
    ("HOMOLOGY", {"operators": [[["1", "0"]]]}),
    ("HOMOLOGY", {"operators": [[["1"]], [["1", "0"], ["0", "1"]]]}),
    ("HOMOLOGY", {"operators": [[["1"]]], "cone_with": [["1", "0"], ["0", "1"]]}),
    ("HOMOLOGY", {"operators": []}),
    ("SPECTRUM", {"operators": [[["1", "0"]]]}),
    ("SPECTRUM", {"operators": [[["1"]], [["1", "0"], ["0", "1"]]]}),
    ("SPECTRAL_SEQUENCE", {"operators_a": [[["1", "0"]]],
                           "operators_b": [[["1", "0"]]]}),
    ("SPECTRAL_SEQUENCE", {"operators_a": [[["1"]]],
                           "operators_b": [[["1", "0"], ["0", "1"]]]}),
    # zero denominators in a matrix, a point and a domain center
    ("HOMOLOGY", {"operators": [[["1/0"]]]}),
    ("SPECTRUM", {"operators": [[["1"]]], "at": ["1/0"]}),
    ("MULTIPLICITY", {"system": "z1", "at": ["2+1/0i"]}),
    ("INDEX", {"system": "z1", "domain": {"kind": "polydisc", "center": ["1/0"],
                                          "radii": ["1"]}}),
]])
def test_exit_code_two_on_schema_violation(tmp_path, capsys, doc):
    code, reports, _ = run_main(["run", write_scenarios(tmp_path, doc)], tmp_path)
    assert code == 2
    assert reports == []
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_duplicate_ids_rejected():
    doc = {"schema": 1, "scenarios": [
        {"id": "x", "kind": "IDENTITIES", "payload": {"n": 1, "m": 1}},
        {"id": "x", "kind": "IDENTITIES", "payload": {"n": 1, "m": 2}}]}
    with pytest.raises(SchemaError):
        scenarios_from_document(doc, DEFAULTS)


def test_jobs_preserve_input_order(tmp_path):
    doc = {"schema": 1, "scenarios": [
        {"id": f"ident-{k}", "kind": "IDENTITIES",
         "payload": {"n": 1 + k % 3, "m": 4}} for k in range(12)]}
    path = write_scenarios(tmp_path, doc)
    code1, serial, raw1 = run_main(["run", path, "--jobs", "1"], tmp_path, "a.jsonl")
    code4, parallel, raw4 = run_main(["run", path, "--jobs", "4"], tmp_path, "b.jsonl")
    assert code1 == code4 == 0
    assert [r["id"] for r in serial] == [r["id"] for r in parallel]
    assert raw1 == raw4  # worker count never changes the exact stream


def test_jobs_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("KOSZUL_INDEX_JOBS", "3")
    path = write_scenarios(tmp_path, GOOD_DOC)
    code, reports, _ = run_main(["run", path], tmp_path)
    assert code == 0 and len(reports) == 3


def test_scenario_backend_and_seed_fields(tmp_path):
    doc = {"schema": 1, "scenarios": [
        {"id": "f", "kind": "HOMOLOGY", "backend": "float", "seed": 3,
         "payload": {"operators": [[["0", "1"], ["0", "0"]]]}}]}
    code, reports, _ = run_main(["run", write_scenarios(tmp_path, doc)], tmp_path)
    assert code == 0
    assert reports[0]["backend"] == "float"
    assert reports[0]["seed"] == 3


def test_timings_flag_adds_wall_clock(tmp_path):
    path = write_scenarios(tmp_path, GOOD_DOC)
    _, plain, _ = run_main(["run", path], tmp_path, "plain.jsonl")
    _, timed, _ = run_main(["run", path, "--timings"], tmp_path, "timed.jsonl")
    assert all("wall_ms" not in r for r in plain)
    assert all("wall_ms" in r for r in timed)


def test_one_off_commands(tmp_path):
    code, reports, _ = run_main(
        ["multiplicity", "--system", "z1^2 - z2 ; z2^2", "--at", "0,0"], tmp_path)
    assert code == 0 and reports[0]["outputs"]["multiplicity"] == 4
    code, reports, _ = run_main(
        ["identities", "--n", "3", "--m", "5", "--range", "8"], tmp_path)
    assert code == 0 and reports[0]["pass"]
    code, reports, _ = run_main(
        ["index", "--domain", '{"kind":"polydisc","center":["0"],"radii":["1"]}',
         "--system", "z1^2 - 1/4"], tmp_path)
    assert code == 0 and reports[0]["outputs"]["global_index"] == -2
    code, reports, _ = run_main(
        ["reciprocity", "--domain-a",
         '{"kind":"polydisc","center":["0"],"radii":["1"]}',
         "--domain-b", '{"kind":"polydisc","center":["0"],"radii":["1/2"]}',
         "--system", "z1*(z1 - 3/4)"], tmp_path)
    assert code == 0 and reports[0]["outputs"]["lhs"] == 1
    code, reports, _ = run_main(
        ["ss", "--operators-a", '[[["0","1"],["0","0"]]]',
         "--operators-b", '[[["0","0"],["0","0"]]]'], tmp_path)
    assert code == 0
    assert reports[0]["outputs"]["pages"][2]["dims"] == [[1, 1], [1, 1]]
    code, reports, _ = run_main(
        ["spectrum", "--operators",
         '[[["1","0"],["0","2"]], [["3","0"],["0","4"]]]', "--at", "1,3"], tmp_path)
    assert code == 0
    assert reports[0]["outputs"]["at"]["in_taylor_spectrum"] is True


def test_index_reports_the_backend_that_ran(tmp_path):
    domain = '{"kind":"polydisc","center":["0"],"radii":["2"]}'
    code, reports, _ = run_main(
        ["index", "--domain", domain, "--system", "z1^2-2"], tmp_path)
    assert code == 0
    assert reports[0]["backend"] == "float"  # the zeros +-sqrt(2) leave Q(i)
    assert reports[0]["outputs"]["global_index"] == -2
    code, reports, _ = run_main(
        ["index", "--domain", domain, "--system", "z1^2-1"], tmp_path)
    assert code == 0 and reports[0]["backend"] == "exact"


_EXACT_RUN_WITHOUT_NUMPY = """
import io, json, sys
from koszul_index import cli
defaults = cli.Scenario("defaults", "IDENTITIES", {}, "exact", None, 7)
doc = json.loads(sys.argv[1])
reports = [cli.run_scenario(s) for s in cli.scenarios_from_document(doc, defaults)]
cli.emit_reports(reports, io.StringIO())
print(all(r["pass"] for r in reports), "numpy" in sys.modules)
doc["scenarios"] = [dict(doc["scenarios"][0], backend="float")]
reports = [cli.run_scenario(s) for s in cli.scenarios_from_document(doc, defaults)]
print(reports[0]["pass"], reports[0]["backend"], "numpy" in sys.modules)
"""


def test_exact_scenarios_never_import_numpy():
    jordan = [["0", "1"], ["0", "0"]]
    doc = {"schema": 1, "scenarios": [
        {"id": "h", "kind": "HOMOLOGY",
         "payload": {"operators": [jordan, [["1/2", "0"], ["0", "1/2"]]],
                     "cone_with": [["i", "3"], ["0", "i"]],
                     "expect": {"cone_isomorphism": True, "index": 0}}},
        {"id": "ss", "kind": "SPECTRAL_SEQUENCE",
         "payload": {"operators_a": [jordan],
                     "operators_b": [[["0", "0"], ["0", "0"]]], "r_max": 3}},
        {"id": "ident", "kind": "IDENTITIES", "payload": {"n": 2, "m": 3}},
    ]}
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-c", _EXACT_RUN_WITHOUT_NUMPY, json.dumps(doc)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["True False", "True float True"]


def test_verify_all_float_variant_passes(tmp_path):
    code, reports, _ = run_main(["verify-all", "--backend", "float"], tmp_path)
    assert code == 0
    assert all(r["pass"] for r in reports)
    backends = {r["backend"] for r in reports}
    assert backends == {"float", "exact"}  # exact-only engines stay exact


def test_builtin_scenarios_deterministic():
    one = builtin_scenarios(7)
    two = builtin_scenarios(7)
    assert [s.payload for s in one] == [s.payload for s in two]
    other = builtin_scenarios(8)
    assert [s.payload for s in one] != [s.payload for s in other]


def test_console_entry_point_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "koszul_index.cli", "identities",
         "--n", "1", "--m", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout.splitlines()[0])["pass"]
