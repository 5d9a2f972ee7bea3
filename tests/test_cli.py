import argparse
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time

import pytest

from koszul_index import cli
from koszul_index.cli import Scenario, SchemaError, scenarios_from_document
from koszul_index.suites import builtin_scenarios

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
    # parentheses nested far past the parser's bound, and past Python's
    # recursion limit for a recursive descent
    ("MULTIPLICITY", {"system": "(" * 3000 + "z1" + ")" * 3000, "at": ["0"]}),
    # JSON true and false are not integers
    ("IDENTITIES", {"n": 1, "m": True}),
    ("IDENTITIES", {"n": True, "m": 2}),
    ("IDENTITIES", {"n": 1, "m": 2, "range": False}),
    ("MULTIPLICITY", {"system": "z1", "variables": True}),
    ("SPECTRAL_SEQUENCE", {"operators_a": [[["0"]]], "operators_b": [[["0"]]],
                           "r_max": True}),
]] + [{"schema": 1, "scenarios": [{"id": "x", "kind": "IDENTITIES",
                                   "payload": {"n": 1, "m": 1}, **entry}]}
      # the retired tolerance is an unknown field (test_scenario_refuses_a_tol)
      for entry in [{"seed": False}, {"tol": 1e-9}]] + [
    # the retired backend is an unknown field (test_scenario_refuses_a_backend)
    {"schema": 1, "scenarios": [{"id": "x", "kind": "SPECTRUM", "backend": "float",
                                 "payload": {"operators": [[["1" + "0" * 400]]]}}]},
] + [{"schema": 1, "scenarios": [{"id": "x", "kind": "IDENTITIES",
                                  "payload": {"n": 1, "m": 1}, "tol": tol}]}
     # no value makes `tol` a known field, whether or not it was a valid cut;
     # json.dumps writes NaN and Infinity, which json.load reads back
     for tol in [float("nan"), float("inf"), -float("inf"), -1, 0, 0.0, 10 ** 400,
                 1, 10, 1e300]])
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


def test_scenario_backend_and_seed_fields(tmp_path, capsys):
    # a scenario's seed is echoed; its backend is worked out, never requested
    doc = {"schema": 1, "scenarios": [
        {"id": "f", "kind": "SPECTRUM", "seed": 3,
         "payload": {"operators": [[["0", "2"], ["1", "0"]]]}}]}
    code, reports, _ = run_main(["run", write_scenarios(tmp_path, doc)], tmp_path)
    assert code == 0
    assert reports[0]["backend"] == "float"  # the eigenvalues +-sqrt(2) leave Q(i)
    assert reports[0]["seed"] == 3
    doc["scenarios"][0]["backend"] = "float"
    code, reports, _ = run_main(["run", write_scenarios(tmp_path, doc)], tmp_path, "no.jsonl")
    assert code == 2 and reports == []
    assert capsys.readouterr().err == "error: scenario #0 has unknown fields ['backend']\n"


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


# One-off report lines, byte for byte; each defaulted option (--range,
# --r-max) is echoed in the inputs.
_DISC = '{"kind":"polydisc","center":["0"],"radii":["1"]}'
ONE_OFF_REPORTS = [
    (['identities', '--n', '3', '--m', '5'],
     '{"id":"cli-identities","kind":"IDENTITIES","backend":"exact","seed'
     '":7,"inputs":{"n":3,"m":5,"range":8},"outputs":{"n":3,"m":5,"range'
     '":8,"left_inverse":true,"binomial_identity":true,"identity_transfo'
     'rm_fixedpoint":true},"checks":[{"name":"left_inverse_identity","pa'
     'ssed":true,"detail":""},{"name":"binomial_composition_identity","p'
     'assed":true,"detail":""},{"name":"equal_length_transform_is_identi'
     'ty","passed":true,"detail":""}],"pass":true,"error":null}'),
    (['ss', '--operators-a', '[[["0","1"],["0","0"]]]',
      '--operators-b', '[[["0","0"],["0","0"]]]'],
     '{"id":"cli-ss","kind":"SPECTRAL_SEQUENCE","backend":"exact","seed"'
     ':7,"inputs":{"operators_a":[[["0","1"],["0","0"]]],"operators_b":['
     '[["0","0"],["0","0"]]],"r_max":2},"outputs":{"pages":[{"r":0,"dims'
     '":[[2,2],[2,2]]},{"r":1,"dims":[[2,2],[2,2]]},{"r":2,"dims":[[1,1]'
     ',[1,1]]}],"stabilization_page":2,"euler_via_e2":0,"total_homology"'
     ':[1,2,1]},"checks":[{"name":"signed_sums_constant","passed":true,"'
     'detail":"asserted during the page run"},{"name":"limit_page_matche'
     's_homology","passed":true,"detail":"asserted during the page run"}'
     ',{"name":"index_via_page_two","passed":true,"detail":""}],"pass":t'
     'rue,"error":null}'),
    (['multiplicity', '--system', 'z1^2 - z2 ; z2^2', '--at', '0,0',
      '--check-diagonal'],
     '{"id":"cli-multiplicity","kind":"MULTIPLICITY","backend":"exact","'
     'seed":7,"inputs":{"system":"z1^2 - z2 ; z2^2","at":"0,0","check_di'
     'agonal":true},"outputs":{"multiplicity":4,"N_star":4,"point":["0",'
     '"0"],"jacobian_regular":false,"diagonal_degree_equal":true},"check'
     's":[{"name":"eigenspace_oracle_agreement","passed":true,"detail":"'
     'eigenspace [4] vs truncation 4"},{"name":"diagonal_degree_identity'
     '","passed":true,"detail":""}],"pass":true,"error":null}'),
    (['multiplicity', '--system', 'z1^2 - z2 ; z2^2', '--variables', '2'],
     '{"id":"cli-multiplicity","kind":"MULTIPLICITY","backend":"exact","'
     'seed":7,"inputs":{"system":"z1^2 - z2 ; z2^2","variables":2},"outp'
     'uts":{"zeros":[{"point":["0","0"],"multiplicity":4}],"quotient_dim'
     '":4},"checks":[{"name":"multiplicities_sum_to_quotient","passed":t'
     'rue,"detail":"4 of 4"}],"pass":true,"error":null}'),
    (['index', '--domain', _DISC, '--system', 'z1^2 - 1/4'],
     '{"id":"cli-index","kind":"INDEX","backend":"exact","seed":7,"input'
     's":{"domain":{"kind":"polydisc","center":["0"],"radii":["1"]},"sys'
     'tem":"z1^2 - 1/4"},"outputs":{"global_index":-2,"quotient_dim":2,"'
     'zeros":[{"point":["-1/2"],"multiplicity":1,"location":"interior","'
     'coordinate_index":-1},{"point":["1/2"],"multiplicity":1,"location"'
     ':"interior","coordinate_index":-1}],"local_indices":[{"point":["-1'
     '/2"],"index":-1},{"point":["1/2"],"index":-1}]},"checks":[{"name":'
     '"sum_of_local_indices","passed":true,"detail":"truncation route -2'
     ' vs eigenspace route -2"},{"name":"interior_zero_count","passed":t'
     'rue,"detail":"interior multiplicity 2"},{"name":"all_interior_quot'
     'ient_dimension","passed":true,"detail":"quotient dimension 2"},{"n'
     'ame":"univariate_winding_oracle","passed":true,"detail":"winding 2'
     '.000000"}],"pass":true,"error":null}'),
    (['homology', '--operators', '[[["0","1"],["0","0"]]]',
      '--cone-with', '[["1","2"],["0","1"]]'],
     '{"id":"cli-homology","kind":"HOMOLOGY","backend":"exact","seed":7,'
     '"inputs":{"operators":[[["0","1"],["0","0"]]],"cone_with":[["1","2'
     '"],["0","1"]]},"outputs":{"dims":[1,1],"euler":0,"index":0,"cone_i'
     'somorphism":true},"checks":[{"name":"euler_characteristic_zero","p'
     'assed":true,"detail":"index 0"},{"name":"cone_isomorphism","passed'
     '":true,"detail":""}],"pass":true,"error":null}'),
    (['spectrum', '--operators',
      '[[["1","0"],["0","2"]], [["3","0"],["0","4"]]]', '--at', '1,3'],
     '{"id":"cli-spectrum","kind":"SPECTRUM","backend":"exact","seed":7,'
     '"inputs":{"operators":[[["1","0"],["0","2"]],[["3","0"],["0","4"]]'
     '],"at":"1,3"},"outputs":{"eigenvalues":[{"point":["1","3"],"multip'
     'licity":1},{"point":["2","4"],"multiplicity":1}],"at":{"point":["1'
     '","3"],"in_taylor_spectrum":true,"in_eigenvalue_support":true,"top'
     '_homology_nonzero":true}},"checks":[{"name":"eigenspace_dimensions'
     '_sum","passed":true,"detail":"2 of 2"},{"name":"membership_equival'
     'ences","passed":true,"detail":""}],"pass":true,"error":null}'),
    (['reciprocity', '--domain-a', _DISC,
      '--domain-b', '{"kind":"polydisc","center":["0"],"radii":["1/2"]}',
      '--system', 'z1*(z1 - 3/4)'],
     '{"id":"cli-reciprocity","kind":"RECIPROCITY","backend":"exact","se'
     'ed":7,"inputs":{"domain_a":{"kind":"polydisc","center":["0"],"radi'
     'i":["1"]},"domain_b":{"kind":"polydisc","center":["0"],"radii":["1'
     '/2"]},"system":"z1*(z1 - 3/4)"},"outputs":{"lhs":1,"rhs":1,"zeros"'
     ':[{"point":["0"],"multiplicity":1,"location_a":"interior","locatio'
     'n_b":"interior"},{"point":["3/4"],"multiplicity":1,"location_a":"i'
     'nterior","location_b":"exterior"}]},"checks":[{"name":"reciprocity'
     '_identity","passed":true,"detail":"1 vs 1"}],"pass":true,"error":n'
     'ull}'),
]


@pytest.mark.parametrize("argv,line", ONE_OFF_REPORTS,
                         ids=[argv[0] for argv, _ in ONE_OFF_REPORTS])
def test_one_off_reports_are_pinned(tmp_path, argv, line):
    code, _, raw = run_main(argv, tmp_path)
    assert code == 0
    assert raw.decode() == line + "\n"


def test_one_off_options_are_passed_through(tmp_path, capsys):
    code, reports, _ = run_main(
        ["multiplicity", "--system", "z1^2", "--variables", "0"], tmp_path)
    assert code == 2 and reports == []
    assert "'variables' must be a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_homology_of_large_commuting_float_pair(tmp_path, backend):
    # B = A^2 with entries in the hundreds of thousands: commutation is
    # checked exactly whichever backend then runs. HOMOLOGY is exact; the
    # eigenvalues of A are irrational, so SPECTRUM falls back to float
    a = '[["1000/3","1000/7"],["1000/7","200"]]'
    b = '[["58000000/441","1600000/21"],["1600000/21","2960000/49"]]'
    command = "homology" if backend == "exact" else "spectrum"
    code, reports, _ = run_main([command, "--operators", f"[{a}, {b}]"], tmp_path)
    assert code == 0 and reports[0]["pass"] and reports[0]["backend"] == backend
    if command == "homology":
        assert reports[0]["outputs"]["dims"] == [0, 0, 0]
    else:
        assert [e["multiplicity"] for e in reports[0]["outputs"]["eigenvalues"]] == [1, 1]


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


def test_float_fallback_reuses_the_groebner_basis(tmp_path, monkeypatch):
    # the exact split of z1^2 - 2 raises IrrationalSpectrum, and the float
    # split runs on the same quotient algebra instead of starting over
    import koszul_index
    from koszul_index import poly
    real, calls = poly.groebner, []

    def counting(gens):
        calls.append(gens)
        return real(gens)
    for name, module in list(sys.modules.items()):
        if name.startswith("koszul_index") and getattr(module, "groebner", None) is real:
            monkeypatch.setattr(module, "groebner", counting)
    assert koszul_index.groebner is counting
    domain = '{"kind":"polydisc","center":["0"],"radii":["2"]}'
    code, reports, _ = run_main(
        ["index", "--domain", domain, "--system", "z1^2-2"], tmp_path)
    assert code == 0 and reports[0]["backend"] == "float"
    assert len(calls) == 1


def test_float_index_lists_the_check_it_skipped(tmp_path):
    code, reports, _ = run_main(
        ["index", "--domain", '{"kind":"polydisc","center":["0"],"radii":["2"]}',
         "--system", "z1^2-2"], tmp_path)
    assert code == 0 and reports[0]["pass"] and reports[0]["backend"] == "float"
    skipped = reports[0]["outputs"]["skipped_checks"]
    assert [s["name"] for s in skipped] == ["sum_of_local_indices"]
    assert "exact-only" in skipped[0]["reason"]
    # a skipped check is never listed as passed
    assert "sum_of_local_indices" not in {c["name"] for c in reports[0]["checks"]}


def test_float_zero_table_clusters_interleaved_double_zeros(tmp_path):
    # the double zeros +-i*sqrt(2) split into eigenvalues whose real parts
    # interleave the two pairs in sorted order; single linkage still pairs them
    code, reports, _ = run_main(
        ["index", "--domain", '{"kind":"polydisc","center":["0"],"radii":["2"]}',
         "--system", "z1*(z1^2+2)^2"], tmp_path)
    assert code == 0 and reports[0]["backend"] == "float"
    outputs = reports[0]["outputs"]
    assert outputs["global_index"] == -5
    zeros = sorted((complex(z["point"][0]).imag, z["multiplicity"])
                   for z in outputs["zeros"])
    assert [m for _, m in zeros] == [2, 1, 2]
    assert [y for y, _ in zeros] == pytest.approx([-2 ** 0.5, 0, 2 ** 0.5], abs=1e-6)


def test_exact_index_has_no_skipped_checks(tmp_path):
    code, reports, _ = run_main(
        ["index", "--domain", '{"kind":"polydisc","center":["0"],"radii":["2"]}',
         "--system", "z1^2 - 1/4"], tmp_path)
    assert code == 0 and reports[0]["backend"] == "exact"
    assert "skipped_checks" not in reports[0]["outputs"]
    assert "sum_of_local_indices" in {c["name"] for c in reports[0]["checks"]}


def test_global_multiplicity_lists_the_diagonal_check_it_skipped(tmp_path):
    # check_diagonal without `at` has no zero to check the identity at
    code, reports, _ = run_main(
        ["multiplicity", "--system", "z1^2; z2", "--check-diagonal"], tmp_path)
    assert code == 0 and reports[0]["pass"]
    skipped = reports[0]["outputs"]["skipped_checks"]
    assert [s["name"] for s in skipped] == ["diagonal_degree_identity"]
    assert "`at`" in skipped[0]["reason"]
    assert [c["name"] for c in reports[0]["checks"]] == ["multiplicities_sum_to_quotient"]
    code, reports, _ = run_main(["multiplicity", "--system", "z1^2; z2"], tmp_path)
    assert code == 0 and "skipped_checks" not in reports[0]["outputs"]


def test_reciprocity_reports_the_backend_that_ran(tmp_path):
    args = ["reciprocity", "--domain-a",
            '{"kind":"polydisc","center":["0"],"radii":["2"]}', "--domain-b",
            '{"kind":"polydisc","center":["0"],"radii":["1"]}', "--system"]
    code, reports, _ = run_main(args + ["z1^2-2"], tmp_path)
    assert code == 0
    assert reports[0]["backend"] == "float"  # the zeros +-sqrt(2) leave Q(i)
    assert reports[0]["outputs"]["lhs"] == reports[0]["outputs"]["rhs"] == 0
    code, reports, _ = run_main(args + ["z1^2-1/4"], tmp_path)
    assert code == 0 and reports[0]["backend"] == "exact"


def test_error_reports_name_the_backend_a_success_would(tmp_path):
    # no float split ran before either error, so both are reported under exact
    doc = {"schema": 1, "scenarios": [
        {"id": "not-a-zero", "kind": "MULTIPLICITY",
         "payload": {"system": "z1", "at": ["1"]}},
        {"id": "not-commuting", "kind": "SPECTRUM",
         "payload": {"operators": [[["0", "1"], ["0", "0"]],
                                   [["1", "0"], ["1", "1"]]]}}]}
    code, reports, _ = run_main(["run", write_scenarios(tmp_path, doc)], tmp_path)
    assert code == 1
    assert [r["error"]["type"] for r in reports] == ["NotAZero", "CommutatorError"]
    assert [r["backend"] for r in reports] == ["exact", "exact"]


def _disc(radius):
    return {"kind": "polydisc", "center": ["0"], "radii": [radius]}


_NEAR_SQRT2 = "14142135623730951/10000000000000000"  # within the float boundary margin


@pytest.mark.parametrize("kind, huge, float_edge, exact_edge", [
    ("INDEX", {"domain": _disc("1")}, {"domain": _disc(_NEAR_SQRT2)},
     {"domain": _disc("1")}),
    ("RECIPROCITY", {"domain_a": _disc("1"), "domain_b": _disc("1/2")},
     {"domain_a": _disc("1"), "domain_b": _disc(_NEAR_SQRT2)},
     {"domain_a": _disc("2"), "domain_b": _disc("1")}),
])
def test_error_reports_name_the_backend_that_raised(kind, huge, float_edge, exact_edge):
    # the zeros of z1^2 - 2e400 and of z1^2 - 2 leave Q(i), so the float
    # fallback runs: its own error, and a float zero refused on a boundary,
    # are reported under float; the exact zero of z1 - 1 on a boundary stays exact
    runs = [(huge, f"z1^2-2{'0' * 400}"), (float_edge, "z1^2-2"), (exact_edge, "z1-1")]
    reports = [cli.run_scenario(Scenario(kind, kind, {**domains, "system": system}))
               for domains, system in runs]
    assert [(r["backend"], r["error"]["type"]) for r in reports] == [
        ("float", "ResourceLimit"), ("float", "ZeroOnBoundary"), ("exact", "ZeroOnBoundary")]


_RUN_GROUPS = """
import io, json, sys
from koszul_index import cli
defaults = cli.Scenario("defaults", "IDENTITIES", {}, "exact", None, 7)
for scenarios in json.loads(sys.argv[1]):
    doc = {"schema": 1, "scenarios": scenarios}
    reports = [cli.run_scenario(s) for s in cli.scenarios_from_document(doc, defaults)]
    cli.emit_reports(reports, io.StringIO())
    print(all(r["pass"] for r in reports), *sorted({r["backend"] for r in reports}),
          "numpy" in sys.modules)
"""


def test_exact_scenarios_never_import_numpy():
    jordan = [["0", "1"], ["0", "0"]]
    disc = {"kind": "polydisc", "center": ["0"], "radii": ["1"]}
    wide = {"kind": "polydisc", "center": ["0"], "radii": ["2"]}
    exact = [
        {"id": "h", "kind": "HOMOLOGY",
         "payload": {"operators": [jordan, [["1/2", "0"], ["0", "1/2"]]],
                     "cone_with": [["i", "3"], ["0", "i"]],
                     "expect": {"cone_isomorphism": True, "index": 0}}},
        {"id": "ss", "kind": "SPECTRAL_SEQUENCE",
         "payload": {"operators_a": [jordan],
                     "operators_b": [[["0", "0"], ["0", "0"]]], "r_max": 3}},
        {"id": "ident", "kind": "IDENTITIES", "payload": {"n": 2, "m": 3}},
        # rational zeros, each split through a degree-2 square-free factor
        {"id": "m-local", "kind": "MULTIPLICITY",
         "payload": {"system": "z1^2 - 1/4; z2^2 - z2", "at": ["1/2", "0"],
                     "expect": {"multiplicity": 1}}},
        {"id": "m-global", "kind": "MULTIPLICITY",
         "payload": {"system": "(z1^2 - 1/4)^2; z2^2 - z2"}},
        {"id": "index", "kind": "INDEX",
         "payload": {"domain": disc, "system": "z1^2 - 1/4",
                     "expect": {"global_index": -2}}},
        {"id": "recip", "kind": "RECIPROCITY",
         "payload": {"domain_a": wide, "domain_b": disc, "system": "z1^2 - 1/4"}},
        {"id": "spec", "kind": "SPECTRUM",
         "payload": {"operators": [[["1", "0"], ["0", "2"]], [["3", "0"], ["0", "4"]]],
                     "at": ["1", "3"]}},
    ]
    float_fallback = [{"id": "index-float", "kind": "INDEX",
                       "payload": {"domain": wide, "system": "z1^2 - 2"}}]
    # eigenvalues +-i lie in Q(i): SPECTRUM stays exact
    gaussian = [{"id": "spec-i", "kind": "SPECTRUM",
                 "payload": {"operators": [[["0", "-1"], ["1", "0"]]]}}]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_GROUPS,
         json.dumps([exact, gaussian, float_fallback])],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["True exact False", "True exact False",
                                        "True float True"]


def test_spectrum_at_decomposes_once(monkeypatch, tmp_path):
    from koszul_index import spectrum

    calls = []
    original = spectrum.spectral_decomposition
    monkeypatch.setattr(spectrum, "spectral_decomposition",
                        lambda *args, **kw: calls.append(1) or original(*args, **kw))
    code, reports, _ = run_main(
        ["spectrum", "--operators",
         '[[["1","0"],["0","2"]], [["3","0"],["0","4"]]]', "--at", "1,3"], tmp_path)
    assert code == 0 and reports[0]["pass"]
    assert len(calls) == 1


def test_builtin_scenarios_deterministic():
    one = builtin_scenarios(7)
    two = builtin_scenarios(7)
    assert one == two
    assert [p for _, _, p in one] != [p for _, _, p in builtin_scenarios(8)]


def test_builtin_scenarios_check_no_commutation(monkeypatch):
    # each generated tuple is checked once, when its scenario runs
    from koszul_index import linalg

    calls = []
    original = linalg.commutes
    monkeypatch.setattr(linalg, "commutes",
                        lambda *args: calls.append(1) or original(*args))
    builtin_scenarios(7)
    assert calls == []


def test_console_entry_point_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "koszul_index.cli", "identities",
         "--n", "1", "--m", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout.splitlines()[0])["pass"]


def test_multiplicity_of_z1_15_z2_15_takes_no_matrix_power(tmp_path, monkeypatch):
    from koszul_index import spectrum
    from koszul_index.linalg import Matrix

    def refuse(*args):
        raise AssertionError("matrix power or characteristic polynomial used")

    def one_column(a, b):  # the cyclic-vector route multiplies columns only
        if b.cols > 1:
            refuse()
        return product(a, b)

    product = Matrix.__matmul__
    monkeypatch.setattr(Matrix, "__matmul__", one_column)
    monkeypatch.setattr(spectrum, "exact_eigenvalues", refuse)
    code, reports, data = run_main(
        ["multiplicity", "--system", "z1^15 ; z2^15", "--at", "0,0"], tmp_path)
    assert code == 0 and reports[0]["outputs"]["multiplicity"] == 225
    assert hashlib.sha256(data).hexdigest() == \
        "881c379ab506b4e0f6081d4fdc5898a1779227f587f163473f979097bd5a9cbf"


def test_r_max_past_the_bound_is_a_schema_violation(tmp_path, capsys, monkeypatch):
    from koszul_index import spectral

    ss = ["ss", "--operators-a", '[[["0"]]]', "--operators-b", '[[["0"]]]', "--r-max"]
    code, reports, _ = run_main(ss + ["100"], tmp_path)
    assert code == 0 and len(reports[0]["outputs"]["pages"]) == 101

    def refuse(self, r):
        raise AssertionError("page computed for an r_max past the bound")

    monkeypatch.setattr(spectral.Bicomplex, "page", refuse)
    for r_max in ("101", str(10 ** 6)):
        code, reports, _ = run_main(ss + [r_max], tmp_path, f"r{r_max}.jsonl")
        assert code == 2 and reports == []
        assert capsys.readouterr().err.startswith("error: ")


def _identities_refused(tmp_path, capsys, n, m, shift):
    start = time.perf_counter()
    code, reports, _ = run_main(
        ["identities", "--n", str(n), "--m", str(m), "--range", str(shift)], tmp_path)
    assert code == 2 and reports == []
    assert capsys.readouterr().err.startswith("error: ")
    assert time.perf_counter() - start < 5


def test_identities_over_a_large_range_return(tmp_path, capsys):
    # a range past _MAX_IDENTITY is a schema error; unbounded, range
    # 100000000 summed binomials for longer than 10 s
    for shift in (65, 100000, 100000000):
        _identities_refused(tmp_path, capsys, 1, 1, shift)


def test_identities_over_a_large_m_return(tmp_path, capsys):
    # unbounded, m = 60000 multiplied (m + 1) x (m + 2) integer matrices
    for m in (65, 60000):
        _identities_refused(tmp_path, capsys, 1, m, 1)


def test_identities_at_the_bound_return_at_once(tmp_path):
    start = time.perf_counter()
    for n in (1, cli._MAX_IDENTITY):
        code, reports, _ = run_main(
            ["identities", "--n", str(n), "--m", str(cli._MAX_IDENTITY),
             "--range", str(cli._MAX_IDENTITY)], tmp_path)
        assert code == 0 and reports[0]["pass"]
        assert reports[0]["outputs"]["binomial_identity"] is True
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize("system, at, multiplicity", [
    ("z1*(z1^2+2)^2", "0", 1),
    ("z1^2*(z1^2-2); z2", "0,0", 2),
])
def test_local_multiplicity_beside_irrational_zeros(tmp_path, system, at, multiplicity):
    # the other zeros leave Q(i); the oracle reads only the point's eigenspace
    code, reports, _ = run_main(["multiplicity", "--system", system, "--at", at], tmp_path)
    assert code == 0 and reports[0]["pass"]
    assert reports[0]["outputs"]["multiplicity"] == multiplicity
    oracle = [c for c in reports[0]["checks"] if c["name"] == "eigenspace_oracle_agreement"]
    assert oracle == [{"name": "eigenspace_oracle_agreement", "passed": True,
                       "detail": f"eigenspace [{multiplicity}] vs truncation {multiplicity}"}]


_HUGE = "1" + "0" * 400  # beyond float range


_HUGE2 = "2" + "0" * 400


def test_spectrum_beyond_float_range_is_certified_exactly(tmp_path):
    # the eigenvalue 2·10^400 lies in Q(i), so the float split never runs
    code, reports, _ = run_main(["spectrum", "--operators", f'[[["{_HUGE2}"]]]'], tmp_path)
    assert code == 0 and reports[0]["pass"] and reports[0]["backend"] == "exact"
    assert reports[0]["outputs"]["eigenvalues"] == [{"point": [_HUGE2], "multiplicity": 1}]


def test_spectrum_fallback_beyond_float_range_is_a_float_error(tmp_path):
    # the eigenvalues +-sqrt(2·10^400) leave Q(i), and the float split
    # cannot copy an entry beyond float range: a float ResourceLimit
    code, reports, _ = run_main(
        ["spectrum", "--operators", f'[[["0","{_HUGE2}"],["1","0"]]]'], tmp_path)
    assert code == 1 and reports[0]["backend"] == "float"
    assert reports[0]["error"] == {"type": "ResourceLimit",
                                   "message": "an operator entry leaves float range"}


@pytest.mark.parametrize("argv", [
    ["homology", "--operators", f'[[["{_HUGE}"]]]'],
    ["spectrum", "--operators", '[[["1"]]]', "--at", _HUGE],
])
def test_float_requests_run_exact_literals_beyond_float_range(tmp_path, argv):
    # HOMOLOGY and the `at` of SPECTRUM are exact, so a literal beyond float
    # range is read exactly
    code, reports, _ = run_main(argv, tmp_path)
    assert code == 0 and reports[0]["pass"]


def test_float_homology_runs_exact(tmp_path):
    # sigma = 1e-9 sits on the float cut, where the float route read [2, 2]
    code, reports, _ = run_main(["homology", "--operators",
                                 '[[["1/1000000000","0"],["0","0"]]]'], tmp_path)
    assert code == 0 and reports[0]["backend"] == "exact"
    assert reports[0]["outputs"]["dims"] == [1, 1]


@pytest.mark.parametrize("command", ["homology", "spectrum"])
def test_non_commuting_float_input_fails_the_exact_commutation_check(tmp_path, command):
    # commutation is checked exactly before any split, so its error is exact
    code, reports, _ = run_main(
        [command, "--operators", '[[["0","1"],["0","0"]],[["0","0"],["1","0"]]]'], tmp_path)
    assert code == 1 and reports[0]["error"]["type"] == "CommutatorError"
    assert reports[0]["backend"] == "exact"


def test_float_spectrum_answers_at_exactly(tmp_path):
    code, reports, _ = run_main(["spectrum", "--operators",
                                 '[[["0","2"],["1","0"]]]', "--at", "0"], tmp_path)
    assert code == 0 and reports[0]["backend"] == "float"
    outputs = reports[0]["outputs"]
    assert sorted(float(e["point"][0]) for e in outputs["eigenvalues"]) == \
        pytest.approx([-2 ** 0.5, 2 ** 0.5])
    assert outputs["at"] == {"point": ["0"], "in_taylor_spectrum": False,
                             "in_eigenvalue_support": False, "top_homology_nonzero": False}


@pytest.mark.parametrize("domain", [
    {"kind": "polydisc", "center": ["0"], "radii": [_HUGE]},
    {"kind": "polydisc", "center": [_HUGE], "radii": ["1"]},
])
def test_index_beyond_float_range_skips_the_winding_oracle(tmp_path, domain):
    code, reports, _ = run_main(
        ["index", "--domain", json.dumps(domain), "--system", "z1"], tmp_path)
    assert code == 0 and len(reports) == 1 and reports[0]["pass"]
    outputs = reports[0]["outputs"]
    assert outputs["global_index"] == (-1 if domain["center"] == ["0"] else 0)
    assert [s["name"] for s in outputs["skipped_checks"]] == ["univariate_winding_oracle"]
    assert "float range" in outputs["skipped_checks"][0]["reason"]
    assert "univariate_winding_oracle" not in {c["name"] for c in reports[0]["checks"]}



@pytest.mark.parametrize("radius", ["1.5", "1e400", "1_0", "1+i", "0"])
def test_radii_follow_the_scalar_grammar(tmp_path, capsys, radius):
    domain = {"kind": "polydisc", "center": ["0"], "radii": [radius]}
    code, reports, _ = run_main(
        ["index", "--domain", json.dumps(domain), "--system", "z1"], tmp_path)
    assert code == 2 and reports == []
    assert capsys.readouterr().err.startswith("error: ")
    doc = {"schema": 1, "scenarios": [{"kind": "INDEX", "payload": {
        "domain": domain, "system": "z1"}}]}
    with pytest.raises(SchemaError):
        scenarios_from_document(doc, DEFAULTS)


def test_rational_radius_is_exact(tmp_path):
    domain = {"kind": "polydisc", "center": ["0"], "radii": ["3/4"]}
    code, reports, _ = run_main(
        ["index", "--domain", json.dumps(domain), "--system", "z1^2 - 1/2"], tmp_path)
    # 1/2 < (3/4)^2 = 9/16, so both zeros +-sqrt(1/2) lie inside
    assert code == 0 and reports[0]["outputs"]["global_index"] == -2


def test_float_zeros_meet_a_radius_beyond_float_range(tmp_path):
    domain = {"kind": "polydisc", "center": ["0"], "radii": [_HUGE]}
    code, reports, _ = run_main(
        ["index", "--domain", json.dumps(domain), "--system", "z1^2-2"], tmp_path)
    assert code == 0 and len(reports) == 1 and reports[0]["pass"]
    outputs = reports[0]["outputs"]
    assert reports[0]["backend"] == "float"
    assert outputs["global_index"] == -2
    assert [z["location"] for z in outputs["zeros"]] == ["interior", "interior"]


_ONE = '[[["0"]]]'
_COMMANDS = {
    "run": ["run", None],
    "verify-all": ["verify-all"],
    "homology": ["homology", "--operators", _ONE],
    "spectrum": ["spectrum", "--operators", _ONE],
    "multiplicity": ["multiplicity", "--system", "z1"],
    "index": ["index", "--domain", _DISC, "--system", "z1"],
    "reciprocity": ["reciprocity", "--domain-a", _DISC, "--domain-b", _DISC,
                    "--system", "z1 - 3"],
    "ss": ["ss", "--operators-a", _ONE, "--operators-b", _ONE],
    "identities": ["identities", "--n", "1", "--m", "1"],
}


def test_every_subcommand_is_listed():
    assert set(_COMMANDS) == {"run", "verify-all"} | {k.command for k in cli.KINDS.values()}


@pytest.mark.parametrize("command", _COMMANDS)
def test_tol_flag_is_refused_on_every_subcommand(tmp_path, capsys, command):
    # the float kernel cut is fixed, so no command takes a tolerance;
    # argparse names unrecognized arguments only once every required one parsed
    argv = [a if a is not None else write_scenarios(tmp_path, GOOD_DOC)
            for a in _COMMANDS[command]]
    with pytest.raises(SystemExit) as exit_:
        run_main(argv + ["--tol", "1e-9"], tmp_path)
    assert exit_.value.code == 2
    (line,) = [x for x in capsys.readouterr().err.splitlines() if "error:" in x]
    assert line.endswith("error: unrecognized arguments: --tol 1e-9")


@pytest.mark.parametrize("tol", ["inf", "-1", "nan", "0", "1", "10", "1e300"])
@pytest.mark.parametrize("argv", [
    ["run", None],
    ["verify-all"],
    # a cut at or above sigma_max once made every float kernel the whole space,
    # -1 every one empty
    ["spectrum", "--operators", '[[["0","1"],["0","0"]],[["0","0"],["1","0"]]]'],
    ["spectrum", "--operators", '[[["1","0"],["0","2"]],[["3","0"],["0","4"]]]'],
])
def test_tol_flag_must_be_finite_and_positive(tmp_path, capsys, argv, tol):
    # no value of the retired flag is accepted, invalid cuts included
    argv = [a if a is not None else write_scenarios(tmp_path, GOOD_DOC) for a in argv]
    with pytest.raises(SystemExit) as exit_:
        run_main(argv + ["--tol", tol], tmp_path)
    assert exit_.value.code == 2
    assert not (tmp_path / "out.jsonl").exists()
    (line,) = [x for x in capsys.readouterr().err.splitlines() if "error:" in x]
    assert line.endswith(f"error: unrecognized arguments: --tol {tol}")


def test_scenario_refuses_a_tol():
    # `tol` stays a field only for positional callers, which pass None
    assert Scenario("x", "IDENTITIES", {}, "exact", None, 7).tol is None
    with pytest.raises(SchemaError, match="tol"):
        Scenario("x", "IDENTITIES", {"n": 1, "m": 1}, "float", tol=1e-3)
    doc = {"schema": 1, "scenarios": [{"id": "x", "kind": "IDENTITIES",
                                       "payload": {"n": 1, "m": 1}, "tol": 1e-9}]}
    with pytest.raises(SchemaError, match=r"^scenario #0 has unknown fields \['tol'\]$"):
        scenarios_from_document(doc, DEFAULTS)


@pytest.mark.parametrize("command", _COMMANDS)
def test_backend_flag_is_refused_on_every_subcommand(tmp_path, capsys, command):
    # exact or float is worked out from the input, so no command takes a backend
    argv = [a if a is not None else write_scenarios(tmp_path, GOOD_DOC)
            for a in _COMMANDS[command]]
    with pytest.raises(SystemExit) as exit_:
        run_main(argv + ["--backend", "float"], tmp_path)
    assert exit_.value.code == 2
    assert not (tmp_path / "out.jsonl").exists()
    assert capsys.readouterr().err == "error: unrecognized arguments: --backend float\n"


def test_scenario_refuses_a_backend():
    # `backend` stays a field only for positional callers, which pass "exact"
    assert Scenario("x", "IDENTITIES", {}, "exact", None, 7).backend == "exact"
    with pytest.raises(SchemaError, match="backend"):
        Scenario("x", "IDENTITIES", {"n": 1, "m": 1}, "float")
    doc = {"schema": 1, "scenarios": [{"id": "x", "kind": "IDENTITIES",
                                       "payload": {"n": 1, "m": 1}, "backend": "exact"}]}
    with pytest.raises(SchemaError, match=r"^scenario #0 has unknown fields \['backend'\]$"):
        scenarios_from_document(doc, DEFAULTS)


def test_rational_spectrum_stays_exact(tmp_path):
    # every eigenvalue lies in Q(i): certified exactly, nothing skipped
    code, reports, _ = run_main(
        ["spectrum", "--operators", '[[["1","1"],["0","1"]],[["2","3"],["0","2"]]]'], tmp_path)
    assert code == 0 and reports[0]["pass"] and reports[0]["backend"] == "exact"
    assert reports[0]["outputs"] == {"eigenvalues": [{"point": ["1", "2"], "multiplicity": 2}]}


_BIG_DENOMINATOR = "(1000000001*z1 - 1)*(z1 - 2); z2"


def test_denominators_above_10_to_the_9_stay_exact(tmp_path):
    # a zero 1/1000000001 is certified exactly: MULTIPLICITY answers instead
    # of raising IrrationalSpectrum, and SPECTRUM and INDEX no longer fall
    # back to float or skip sum_of_local_indices
    zeros = [{"point": ["1/1000000001", "0"], "multiplicity": 1},
             {"point": ["2", "0"], "multiplicity": 1}]
    code, reports, _ = run_main(["multiplicity", "--system", _BIG_DENOMINATOR], tmp_path, "m")
    assert code == 0 and reports[0]["outputs"]["zeros"] == zeros
    code, reports, _ = run_main(
        ["spectrum", "--operators", '[[["1/1000000001","0"],["0","2"]]]'], tmp_path, "s")
    assert code == 0 and reports[0]["backend"] == "exact"
    assert reports[0]["outputs"] == {"eigenvalues": [
        {"point": ["1/1000000001"], "multiplicity": 1}, {"point": ["2"], "multiplicity": 1}]}
    # nine points over 999999937: their factor's lead 999999937^9 passes 2^256
    points = [f"{k}/999999937" for k in range(1, 10)]
    operator = [[points[i] if i == j else "0" for j in range(9)] for i in range(9)]
    code, reports, _ = run_main(["spectrum", "--operators", json.dumps([operator])], tmp_path, "n")
    assert code == 0 and reports[0]["backend"] == "exact"
    assert reports[0]["outputs"] == {"eigenvalues": [
        {"point": [point], "multiplicity": 1} for point in points]}
    code, reports, _ = run_main(
        ["index", "--domain", '{"kind":"polydisc","center":["0","0"],"radii":["1","1"]}',
         "--system", _BIG_DENOMINATOR], tmp_path, "i")
    outputs = reports[0]["outputs"]
    assert code == 0 and reports[0]["backend"] == "exact" and "skipped_checks" not in outputs
    assert [z["point"] for z in outputs["zeros"]] == [z["point"] for z in zeros]
    assert {"name": "sum_of_local_indices", "passed": True,
            "detail": "truncation route -1 vs eigenspace route -1"} in reports[0]["checks"]


@pytest.mark.parametrize("argv, message", [
    (["verify-all", "--backend", "float"], "unrecognized arguments: --backend float"),
    (["spectrum"], "the following arguments are required: --operators"),
    (["identities", "--n", "1", "--m", "1", "--seed", "x"],
     "argument --seed: invalid int value: 'x'"),
    (["nope"], None),
    ([], "the following arguments are required: command"),
])
def test_usage_errors_are_one_error_line(capsys, argv, message):
    # argparse's refusals read like every other exit-2 error: no usage block
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv)
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message is None or err == f"error: {message}\n"


@pytest.mark.parametrize("system, column", [
    ("(z1+1)^3000; z2", 8), ("3^30000000*z1; z2", 3), ("z1^1000000000; z2", 4)])
def test_polynomials_past_the_parser_bounds_exit_two_at_once(tmp_path, capsys, system, column):
    # each of these hung in the parser, or ran to a ResourceLimit report
    began = time.perf_counter()
    code, reports, _ = run_main(["multiplicity", "--system", system, "--at", "0,0"], tmp_path)
    assert time.perf_counter() - began < 1.0
    assert code == 2 and reports == []
    assert capsys.readouterr().err == f"error: exponent above 1000 (line 1, column {column})\n"


@pytest.mark.parametrize("argv, message", [
    (["--system", "z100000000 + 1", "--at", "0"],
     "variable z100000000 outside z1..z32 (line 1, column 1)"),
    (["--system", "z1", "--variables", "100000000", "--at", "0"],
     "payload field 'variables' must be a positive integer up to 32"),
    # the refused token is cut: repeated whole, it made a 5,040-character line
    (["--system", "z" + "9" * 5000, "--at", "0"],
     f"variable z{'9' * 19}… outside z1..z32 (line 1, column 1)"),
])
def test_too_many_variables_exit_two_at_once(tmp_path, capsys, argv, message):
    # every monomial is a tuple of one exponent per variable: these asked
    # for 800 MB a monomial
    began = time.perf_counter()
    code, reports, _ = run_main(["multiplicity"] + argv, tmp_path)
    assert time.perf_counter() - began < 1.0
    assert code == 2 and reports == []
    assert capsys.readouterr().err == f"error: {message}\n"


def test_a_superscript_exponent_names_its_scenario(tmp_path, capsys):
    doc = {"schema": 1, "scenarios": [{"id": "sup", "kind": "MULTIPLICITY", "payload": {
        "system": "z1^\u00b2; z2", "at": ["0", "0"]}}]}
    code, reports, _ = run_main(["run", write_scenarios(tmp_path, doc)], tmp_path)
    assert code == 2 and reports == []
    assert capsys.readouterr().err == ("error: scenario 'sup': exponent must be a "
                                       "non-negative integer (line 1, column 4)\n")


def test_help_is_unchanged(capsys):
    for argv in (["-h"], ["spectrum", "-h"]):
        with pytest.raises(SystemExit) as exit_:
            cli.main(argv)
        assert exit_.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: koszul-index") and "--backend" not in out


def test_ragged_matrix_names_its_scenario(tmp_path, capsys):
    doc = {"schema": 1, "scenarios": [{"id": "rag", "kind": "HOMOLOGY", "payload": {
        "operators": [[["1", "0"], ["0"]]]}}]}
    code, reports, _ = run_main(["run", write_scenarios(tmp_path, doc)], tmp_path)
    assert code == 2 and reports == []
    assert capsys.readouterr().err == "error: scenario 'rag': ragged rows in matrix literal\n"


@pytest.mark.parametrize("argv", [
    ["identities", "--n", "1", "--m", "1", "--seed", "-1"],
    ["verify-all", "--seed", "-3"],
    ["run", None, "--seed", "-1"],
])
def test_negative_seed_flag_is_a_usage_error(tmp_path, capsys, argv):
    argv = [a if a is not None else write_scenarios(tmp_path, GOOD_DOC) for a in argv]
    code, reports, _ = run_main(argv, tmp_path)
    assert code == 2 and reports == []
    assert capsys.readouterr().err == "error: --seed: seed must be a non-negative integer\n"


def test_negative_scenario_seed_names_its_scenario(tmp_path, capsys):
    doc = {"schema": 1, "scenarios": [{"id": "s", "kind": "IDENTITIES", "seed": -1,
                                       "payload": {"n": 1, "m": 1}}]}
    code, reports, _ = run_main(["run", write_scenarios(tmp_path, doc)], tmp_path)
    assert code == 2 and reports == []
    assert capsys.readouterr().err == \
        "error: scenario 's': seed must be a non-negative integer\n"


def test_closed_stdout_is_an_output_error():
    # the reader stops after 100 bytes; the rest of verify-all's reports
    # cannot be written, which is reported once, without a traceback
    proc = subprocess.Popen([sys.executable, "-m", "koszul_index.cli", "verify-all"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert err == b"error: cannot write output: [Errno 32] Broken pipe\n"


def test_readme_names_every_common_flag():
    # the "Common flags:" sentence of the README lists exactly the options
    # every subcommand shares
    readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md")).read()
    sentence = " ".join(readme.split("Common flags:", 1)[1].split(". ", 1)[0].split())
    documented = set(re.findall(r"`(--[a-z-]+)", sentence))
    parser = argparse.ArgumentParser()
    cli._add_common(parser)
    registered = {o for a in parser._actions for o in a.option_strings} - {"-h", "--help"}
    assert documented == registered


@pytest.mark.parametrize("argv", [
    ["index", "--domain", '{"kind":"polydisc","center":["0"],"radii":["1"]}'],
    ["reciprocity", "--domain-a", '{"kind":"polydisc","center":["0"],"radii":["1"]}',
     "--domain-b", '{"kind":"polydisc","center":["0"],"radii":["1/2"]}'],
])
def test_root_finder_beyond_float_range_reports_an_error(argv):
    # z1^2 - 2e400 has no Gaussian rational zero, and its coefficients leave
    # float range: the exact route locates its zeros but cannot certify them,
    # and the float route cannot copy its operators
    proc = subprocess.run(
        [sys.executable, "-m", "koszul_index.cli", *argv, "--system", f"z1^2-2{'0' * 400}"],
        capture_output=True, text=True)
    assert proc.returncode == 1 and proc.stderr == ""
    (report,) = [json.loads(line) for line in proc.stdout.splitlines()]
    assert report["error"]["type"] == "ResourceLimit"
    assert "float range" in report["error"]["message"]


def test_rational_zeros_beyond_float_range_are_certified(tmp_path):
    # z1^2 - 4e400 has the rational zeros +-2e200, which fit a float while the
    # coefficient does not: the roots are located on the rescaled polynomial
    system = f"z1^2-4{'0' * 400}"
    zeros = [f"-2{'0' * 200}", f"2{'0' * 200}"]
    code, reports, _ = run_main(["index", "--domain", _DISC, "--system", system], tmp_path)
    assert code == 0 and reports[0]["pass"] and reports[0]["backend"] == "exact"
    outputs = reports[0]["outputs"]
    assert outputs["global_index"] == 0
    assert [(z["point"], z["location"]) for z in outputs["zeros"]] == \
        [([z], "exterior") for z in zeros]
    code, reports, _ = run_main(["multiplicity", "--system", system], tmp_path)
    assert code == 0 and [(z["point"], z["multiplicity"]) for z in
                          reports[0]["outputs"]["zeros"]] == [([z], 1) for z in zeros]
    code, reports, _ = run_main(["multiplicity", "--system", system, "--at", zeros[1]], tmp_path)
    assert code == 0 and reports[0]["outputs"]["multiplicity"] == 1


def test_reports_share_repeated_check_texts():
    # every report is held until it is emitted, so a repeated check name or
    # detail is one string, not one per report
    scenario = Scenario("h", "HOMOLOGY", GOOD_DOC["scenarios"][0]["payload"])
    one, two = (cli.run_scenario(scenario)["checks"] for _ in range(2))
    assert [c["name"] for c in one] == ["euler_characteristic_zero", "expected_dims"]
    assert all(a[k] is b[k] for a, b in zip(one, two) for k in ("name", "detail"))


def test_two_runs_share_their_checks_and_point_texts():
    # one dict per repeated check and one string per repeated point text;
    # emitting, with or without timings, mutates no check
    scenario = Scenario("m", "MULTIPLICITY", {"system": "z1^2 - z2; z2^2 - 1/16",
                                              "expect": {"quotient_dim": 4}})
    one, two = (cli.run_scenario(scenario) for _ in range(2))
    assert len(one["checks"]) == 2 and one["pass"]
    assert all(a is b for a, b in zip(one["checks"], two["checks"]))
    assert all(x is y for a, b in zip(one["outputs"]["zeros"], two["outputs"]["zeros"])
               for x, y in zip(a["point"], b["point"]))
    before = json.dumps(one["checks"])
    for timings, report in ((False, one), (True, two)):
        stream = io.StringIO()
        cli.emit_reports([report], stream, timings)
        assert ("wall_ms" in stream.getvalue()) == timings
        assert json.dumps(report["checks"]) == before
    assert json.dumps(cli.run_scenario(scenario)["checks"]) == before
