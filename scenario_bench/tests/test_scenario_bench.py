"""Tests of the benchmark itself: seeded documents, tracer arithmetic and
restoration, and traced runs that emit the same reports as untraced ones."""

import types

import pytest

from scenario_bench import run, tracer, workloads
from scenario_bench.speed import REFERENCE_SLICE_S, SpeedLog
from scenario_bench.tracer import Tracer

from koszul_index import cli, koszul, linalg, models, multiplicity


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_document_digest_follows_the_seed(workload):
    first = workloads.generate(workload, 11, rounds=1)
    again = workloads.generate(workload, 11, rounds=1)
    other = workloads.generate(workload, 12, rounds=1)
    assert workloads.document_sha256(first) == workloads.document_sha256(again)
    assert workloads.document_sha256(first) != workloads.document_sha256(other)


def test_documents_have_enough_samples_for_p90():
    for workload in workloads.WORKLOADS:
        doc = workloads.generate(workload, 1, rounds=1)
        per_round = len(doc["scenarios"])
        assert per_round * workloads.ROUNDS[workload] >= 100


def test_domains_keep_known_zeros_off_the_boundary():
    doc = workloads.generate("zeros_and_index", 5, rounds=3)
    index = [s for s in doc["scenarios"] if s["kind"] == "INDEX"]
    scenarios = cli.scenarios_from_document(
        {"schema": 1, "scenarios": index}, run.DEFAULTS)
    for scenario in scenarios:
        report = cli.run_scenario(scenario)
        assert report["error"] is None, report["error"]
        assert report["pass"]


def test_speed_scale_uses_the_slices_around_a_time():
    log = SpeedLog()
    log.starts, log.seconds = [0.0, 1.0, 2.0], [0.001, 0.002, 0.004]
    assert log.scale(0.5) == pytest.approx(REFERENCE_SLICE_S / 0.0015)
    assert log.scale(1.5) == pytest.approx(REFERENCE_SLICE_S / 0.003)
    assert log.scale(-1.0) == pytest.approx(REFERENCE_SLICE_S / 0.001)
    assert log.scale(9.0) == pytest.approx(REFERENCE_SLICE_S / 0.004)


class _Entries:
    """Zero pattern of a JSON matrix, indexed like `Matrix`."""

    def __init__(self, rows):
        self.rows = rows

    def __getitem__(self, ij):
        i, j = ij
        return 0 if self.rows[i][j] == "0" else 1


def test_homology_families_have_their_cell_block_sizes():
    cells = {(n, sum(blocks)): blocks
             for n, blocks in workloads.HOMOLOGY_PLAIN + workloads.HOMOLOGY_CONE}
    doc = workloads.generate("koszul_homology", 2, rounds=1)
    for scenario in doc["scenarios"]:
        payload = scenario["payload"]
        ops = payload["operators"] + [payload.get("cone_with", payload["operators"][0])]
        n, dim = len(payload["operators"]), len(ops[0])
        blocks = workloads._block_sizes([_Entries(op) for op in ops], dim)
        assert blocks == cells[(n, dim)], scenario["id"]


def _toy_modules():
    toy = types.ModuleType("toy")
    alias = types.ModuleType("toy_alias")

    def inner():
        return 1

    def outer():
        return toy.inner() + alias.inner()

    toy.inner, toy.outer, alias.inner = inner, outer, inner
    return toy, alias


def test_self_time_subtracts_child_spans():
    toy, alias = _toy_modules()
    ticks = iter([0.0, 1.0, 3.0, 4.0, 7.0, 10.0])
    rec = Tracer(targets=[(toy, "outer", "toy.outer", None),
                          (toy, "inner", "toy.inner", None)],
                 modules=[toy, alias], clock=lambda: next(ticks))
    with rec:
        rec.scenario = "s1"
        assert toy.outer() == 2
    names = [s[0] for s in rec.spans]
    assert names == ["toy.outer", "toy.inner", "toy.inner"]
    assert [s[1] for s in rec.spans] == [-1, 0, 0]
    assert all(s[2] == "s1" for s in rec.spans)
    assert tracer.self_times(rec.spans) == [5.0, 2.0, 3.0]


def _bindings():
    out = {}
    for module in tracer.package_modules():
        for name, value in vars(module).items():
            if callable(value):
                out[(module.__name__, name)] = value
    for cls in (linalg.Matrix, linalg.SparseEchelon, koszul.ChainComplex,
                koszul.CommutingTuple):
        for name, value in vars(cls).items():
            out[(cls.__qualname__, name)] = value
    return out


def test_tracer_rebinds_aliases_and_restores_every_binding():
    before = _bindings()
    original = multiplicity.local_multiplicity
    with Tracer():
        assert models.local_multiplicity is not original
        assert models.local_multiplicity is multiplicity.local_multiplicity
        assert vars(linalg.Matrix)["__matmul__"] is not before[("Matrix", "__matmul__")]
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_pass_emits_the_untraced_bytes(workload):
    doc = workloads.generate(workload, 3, rounds=1)
    doc["scenarios"] = doc["scenarios"][:3]
    scenarios = cli.scenarios_from_document(doc, run.DEFAULTS)
    plain = run.run_loop(scenarios, 0)
    rec = Tracer()
    with rec:
        traced = run.run_loop(scenarios, 0, rec)
    problems = []
    assert run.check_loop(plain, scenarios, problems) == []
    assert run.check_loop(traced, scenarios, problems) == []
    assert problems == []
    assert run.digest(traced.lines) == run.digest(plain.lines)
    assert {s[2] for s in rec.spans} <= {s.id for s in scenarios}
    metrics = tracer.layer_metrics(rec.spans, len(traced.reports))
    assert metrics["cli.calls"] == len(scenarios) + 1  # run_scenario each, one emit
