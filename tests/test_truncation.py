"""The growing truncation engine behind `local_multiplicity`, against a dense
Macaulay-matrix reference built here from the definition, plus the counts
that pin how much work one certificate takes."""

import random
import re
from fractions import Fraction

import pytest

from koszul_index import cli, linalg, multiplicity
from koszul_index.errors import NotIsolated, ResourceLimit
from koszul_index.linalg import Matrix
from koszul_index.multiplicity import (build_diagonal_system,
                                       global_multiplicity_table,
                                       local_multiplicity)
from koszul_index.poly import mono_degree, mono_mul, monomials_of_degree, parse_system
from koszul_index.scalars import QQi

DEFAULTS = cli.Scenario("defaults", "IDENTITIES", {}, "exact", None, 7)


def monomials_below(nvars, bound):
    """All exponent tuples of total degree < bound, by degree then lex."""
    for d in range(bound):
        yield from monomials_of_degree(nvars, d)


def _dense_codimension(system_at_origin, bound):
    """codim of the order-`bound` truncation span, as the rank of the dense
    Macaulay matrix of every truncated product m * g_i."""
    nvars = system_at_origin[0].nvars
    position = {m: i for i, m in enumerate(monomials_below(nvars, bound))}
    rows = []
    for g in system_at_origin:
        if g.is_zero():
            continue
        for mult in monomials_below(nvars, max(bound - g.order_of_vanishing(), 0)):
            row = [QQi(0)] * len(position)
            for mono, coeff in g.terms.items():
                shifted = mono_mul(mono, mult)
                if mono_degree(shifted) < bound:
                    row[position[shifted]] = row[position[shifted]] + coeff
            rows.append(row)
    rank = linalg.rank(Matrix(rows, shape=(len(rows), len(position)))) if rows else 0
    return len(position) - rank


def _dense_multiplicity(system, point):
    """(multiplicity, stabilization order) from the dense codimensions of
    the system translated by substitution z -> z + point in its text."""
    at_origin = parse_system("; ".join(
        re.sub(r"z(\d+)", lambda v: f"(z{v[1]} + ({point[int(v[1]) - 1]}))", str(g))
        for g in system), len(point))
    prev = _dense_codimension(at_origin, 1)
    for order_bound in range(1, 30):
        nxt = _dense_codimension(at_origin, order_bound + 1)
        if nxt == prev:
            return prev, order_bound
        prev = nxt
    raise AssertionError("reference did not stabilize")


def _random_system(rng, nvars):
    """A square system with rational zeros of multiplicity up to 4: powers
    of separable factors, moved by a triangular polynomial automorphism and
    a unimodular linear change, with the equations mixed."""
    budget = 4 if nvars == 2 else 2
    factors = []
    for i in range(nvars):
        roots = rng.sample([-1, 0, 1, Fraction(1, 2)], rng.randint(1, 2))
        power = rng.randint(1, budget)
        budget = max(budget // power, 1)
        factors.append([(Fraction(r), power if k == 0 else 1) for k, r in enumerate(roots)])
    # y_i = z_i + c_i z_(i+1)^2 is invertible over the rationals
    y = [f"(z{i + 1} + ({rng.randint(-1, 1)})*z{i + 2}^2)" if i + 1 < nvars else f"z{i + 1}"
         for i in range(nvars)]
    a, b = rng.randrange(nvars), rng.randint(-1, 1)
    y = [f"({y[i]} + ({b})*{y[(a + 1) % nvars]})" if i == a else y[i] for i in range(nvars)]
    system = ["*".join(f"({y[i]} - ({r}))^{e}" for r, e in factors[i]) for i in range(nvars)]
    k = rng.randrange(nvars)
    return parse_system("; ".join(
        f"{g} + ({rng.randint(-2, 2)})*{system[(k + 1) % nvars]}" if i == k else g
        for i, g in enumerate(system)), nvars)


def test_engine_matches_dense_macaulay_reference():
    rng = random.Random(2024)
    systems = [_random_system(rng, 2) for _ in range(35)]
    systems += [_random_system(rng, 3) for _ in range(15)]
    seen = set()
    for system in systems:
        table = global_multiplicity_table(system)
        for point, eig_dim in table.entries:
            cert = local_multiplicity(system, point)
            got = (cert.multiplicity, cert.stabilization_order)
            assert got == _dense_multiplicity(system, point), (system, point)
            assert cert.multiplicity == eig_dim
            seen.add(eig_dim)
        # the diagonal system at the doubled zero of largest multiplicity
        point, eig_dim = max(table.entries, key=lambda entry: entry[1])
        diag = build_diagonal_system(system)
        cert = local_multiplicity(diag, point * 2)
        got = (cert.multiplicity, cert.stabilization_order)
        assert got == _dense_multiplicity(diag, point * 2), (system, point)
        assert cert.multiplicity == eig_dim
    assert seen >= {1, 2, 3, 4}


def test_engine_adds_each_product_once(monkeypatch):
    calls = []
    original = linalg.SparseEchelon.add
    monkeypatch.setattr(linalg.SparseEchelon, "add",
                        lambda self, vec: calls.append(1) or original(self, vec))
    cert = local_multiplicity(parse_system("z1^12; z2^12", 2), (QQi(0), QQi(0)))
    assert (cert.multiplicity, cert.stabilization_order) == (144, 23)
    # products m * z_i^12 with deg m <= 11, two generators
    assert len(calls) == 156


def test_diagonal_check_reuses_the_base_certificate(monkeypatch):
    seen = []
    original = multiplicity.local_multiplicity
    monkeypatch.setattr(multiplicity, "local_multiplicity",
                        lambda system, point, *rest: seen.append(len(system))
                        or original(system, point, *rest))
    doc = {"schema": 1, "scenarios": [
        {"id": "m", "kind": "MULTIPLICITY",
         "payload": {"system": "z1^2 - z2 ; z2^3", "variables": 2, "at": ["0", "0"],
                     "check_diagonal": True, "expect": {"multiplicity": 6}}}]}
    [scenario] = cli.scenarios_from_document(doc, DEFAULTS)
    report = cli.execute_scenario(scenario)
    assert report["pass"] and report["outputs"]["diagonal_degree_equal"]
    assert seen == [2, 4]  # the base system once, then the diagonal system


def test_isolated_zero_past_the_order_bound_is_a_resource_limit(monkeypatch):
    calls = []
    original = linalg.SparseEchelon.add
    monkeypatch.setattr(linalg.SparseEchelon, "add",
                        lambda self, vec: calls.append(1) or original(self, vec))
    with pytest.raises(ResourceLimit, match="isolated"):
        local_multiplicity(parse_system("z1^40 ; z2^40", 2), (QQi(0), QQi(0)))
    assert calls == []  # no product z_i^40 * m reaches below order 30


def test_not_isolated_says_isolation_was_not_proved(monkeypatch):
    monkeypatch.setattr(multiplicity, "MAX_ORDER", 8)
    with pytest.raises(NotIsolated, match="isolation was not proved"):
        local_multiplicity(parse_system("z1*z2; z1*z2", 2), (QQi(0), QQi(0)))


def test_truncation_columns_are_ints_numbered_degree_first():
    # an int column hashes without rehashing a nested (degree, monomial)
    # tuple; the monomials of degree < N are the first C(N - 1 + n, n)
    engine = multiplicity._Truncation(parse_system("z1^2 - z2; z2^3", 2))
    assert engine.codimension(5) == _dense_codimension(parse_system("z1^2 - z2; z2^3", 2), 5)
    columns = engine.columns
    assert sorted(columns.values()) == list(range(len(columns)))
    assert sorted(columns, key=columns.get) == sorted(columns, key=lambda m: (mono_degree(m), m))
    assert {type(c) for row in engine.echelon._rows.values() for c in row} == {int}
