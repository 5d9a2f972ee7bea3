import hashlib
import json
import random

import pytest

from koszul_index import cli, linalg, suites
from koszul_index.linalg import Matrix
from koszul_index.scalars import QQi, scalar_str


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, separators=(",", ":")).encode()).hexdigest()


@pytest.mark.parametrize("dim", range(1, 7))
@pytest.mark.parametrize("steps", [None, 0, 3, 12])
def test_unimodular_inverse(dim, steps):
    rng = random.Random(dim * 31 + (steps or 0))
    draws = [tuple(Matrix(rows) for rows in suites._unimodular(rng, dim, steps))
             for _ in range(5)]
    for s, s_inv in draws:
        assert s @ s_inv == Matrix.identity(dim)
        assert s_inv @ s == Matrix.identity(dim)
    changed = sum(s != Matrix.identity(dim) for s, _ in draws)
    assert changed == 0 if steps == 0 or dim == 1 else changed > 0


def test_verify_all_generation_calls_no_linalg(monkeypatch):
    calls = []
    solve, matmul = linalg.solve, Matrix.__matmul__
    monkeypatch.setattr(linalg, "solve",
                        lambda *args, **kw: calls.append("solve") or solve(*args, **kw))
    monkeypatch.setattr(Matrix, "__matmul__",
                        lambda a, b: calls.append("matmul") or matmul(a, b))
    args = cli.build_parser().parse_args(["verify-all"])
    scenarios = args.scenarios(args)
    assert calls == []
    assert len(scenarios) == 365
    assert {(s.backend, s.seed) for s in scenarios} == {("exact", 7)}
    assert not hasattr(suites, "linalg")


@pytest.mark.parametrize("conjugate, expected", [
    (True, "fad9115cb45b95c9505b0c2ca88bb56361acd3b015c91072b17c1c5a91b859c1"),
    (False, "950b5990ae1e66897bccb23c1f65e1a37594f76c67c7fb2619fc2f2614e9d991"),
])
def test_random_commuting_family_is_pinned(conjugate, expected):
    rng = random.Random(11)
    families = [suites.random_commuting_family(rng, count, dim, conjugate)
                for count in (1, 2, 3) for dim in range(1, 7)]
    for ops in families:
        for op in ops:
            assert all(type(x) is QQi for row in op.entries for x in row)
        assert all(a @ b == b @ a for a in ops for b in ops)
    assert _digest([[suites._matrix_json(op) for op in ops] for ops in families]) == expected


@pytest.mark.parametrize("nvars, expected", [
    (2, "e37699da2a7985bd77deb59b22bc7ec58a9c676eb04144bc3bfc2c27b3b66cd9"),
    (3, "f461bf3bc2285655a422a26762655f911eaeb6e6362e018c6a174ad6514108de"),
])
def test_random_regular_system_is_pinned(nvars, expected):
    rng = random.Random(13)
    doc = []
    for _ in range(8):
        system, zeros = suites.random_regular_system(rng, nvars)
        for z in zeros:
            assert all(type(c) is QQi for c in z)
            assert all(g.evaluate(z).is_zero() for g in system)
        assert zeros == sorted(zeros, key=lambda z: tuple(c.sort_key() for c in z))
        doc.append([[str(g) for g in system],
                    [[scalar_str(c) for c in z] for z in zeros]])
    assert _digest(doc) == expected
