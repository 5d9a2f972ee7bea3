"""The reports of one round of each benchmark workload, pinned byte for
byte: the three-variable INDEX, RECIPROCITY, cone and page scenarios the
benchmark runs are checked for byte-identity here as well as by it."""

import hashlib
import io
import sys
from pathlib import Path

import pytest

ROOT = str(Path(__file__).resolve().parents[1])
if ROOT not in sys.path:  # scenario_bench sits beside src, not inside it
    sys.path.insert(0, ROOT)

from scenario_bench import workloads  # noqa: E402

from koszul_index import cli  # noqa: E402

# sha256 of the emitted reports of round one, seed 1
REPORTS_SHA256 = {
    "koszul_homology": "8e959b7e419256517992c243a6e0e4398c62168a667b8db3aaf161480a8675f1",
    "spectral_pages": "5bdf480fdd844946a394b0ca4bfc5a42edf8598955f73c1cfdc87782b42d6215",
    "zeros_and_index": "b0e48dee96c768d2e39e865008d35b860636eee789c7f9930c8ffb4572812b96",
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_round_of_each_workload_emits_the_pinned_reports(workload):
    doc = workloads.generate(workload, 1, rounds=1)
    scenarios = cli.scenarios_from_document(doc, cli.Scenario("defaults", "IDENTITIES", {}))
    reports = [cli.run_scenario(scenario) for scenario in scenarios]
    assert all(report["pass"] for report in reports)
    out = io.StringIO()
    cli.emit_reports(reports, out)
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == REPORTS_SHA256[workload]
