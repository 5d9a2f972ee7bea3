"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its wall time and enforcing the stated runtime budget.

Run as `pytest tests/test_acceptance.py -v` (the summary lines bypass
capture, so they appear in plain runs too).
"""

import contextlib
import filecmp
import hashlib
import itertools
import random
import sys
import time
from fractions import Fraction

from koszul_index import cli, koszul, linalg, models, multiplicity, spectral
from koszul_index.koszul import CommutingTuple, build_complex, homology
from koszul_index.linalg import Matrix
from koszul_index.models import DomainDescriptor, ModelTuple
from koszul_index.poly import groebner, parse_system, quotient_algebra
from koszul_index.scalars import QQi
from koszul_index.suites import random_regular_system
from random_tuples import (random_bicomplex_pair, random_commuting_tuple,
                           random_cone_instance)


def _announce(line: str):
    print(line, file=sys.__stdout__, flush=True)


@contextlib.contextmanager
def criterion(number: int, budget: float, description: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        _announce(f"[FAIL] criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed < budget
    _announce(f"[{'PASS' if ok else 'FAIL'}] criterion {number} "
              f"({elapsed:.2f}s of {budget:.0f}s): {description}")
    assert ok, f"criterion {number} exceeded its {budget}s budget"


CORPUS = (
    [(f"z1^{k}", 1) for k in range(1, 6)]
    + [("z1^2; z2^3", 2), ("z1^2 - z2; z2^2", 2),
       ("z1*(z1 - 1); z2", 2), ("z1 + z2; z1 - z2", 2)]
)


def _corpus_systems():
    systems = [(parse_system(text, n), None) for text, n in CORPUS]
    rng = random.Random(404)
    for _ in range(10):
        system, zeros = random_regular_system(rng)
        systems.append((system, zeros))
    return systems


def test_criterion_1_euler_anchor():
    with criterion(1, 10.0, "index 0 and end-group identities on 200 random "
                            "exact tuples"):
        rng = random.Random(1001)
        for _ in range(200):
            t = random_commuting_tuple(rng, rng.choice([1, 2, 3]),
                                       rng.randint(1, 8))
            profile = homology(build_complex(t))
            assert profile.index == 0
            top = linalg.kernel_basis(  # the joint kernel: operators stacked
                Matrix([row for op in t.operators for row in op.entries])).cols
            bottom = t.dim - linalg.rank(Matrix.hstack(t.operators))
            assert profile.dims[-1] == top
            assert profile.dims[0] == bottom


def test_criterion_2_mapping_cone_isomorphism():
    with criterion(2, 5.0, "explicit cone map is a bijective chain map on 50 "
                           "random instances"):
        rng = random.Random(1002)
        for _ in range(50):
            t, b = random_cone_instance(rng, rng.choice([1, 2]),
                                        rng.randint(1, 6))
            assert koszul.verify_cone_isomorphism(build_complex(t), b)


def test_criterion_3_spectral_sequence():
    with criterion(3, 30.0, "page sums, convergence and page-2 consequences "
                            "on 50 random joined pairs"):
        rng = random.Random(1003)
        for _ in range(50):
            a, b = random_bicomplex_pair(rng, rng.choice([1, 2]), 1,
                                         rng.randint(1, 5))
            bc = spectral.build_bicomplex(a, b)
            pages = spectral.page_sequence(bc, 3)
            for page in pages[2:]:
                assert page.totals.euler == 0
            profile = homology(build_complex(bc.joined))
            limit = pages[-1]
            for k in range(bc.n + bc.m + 1):
                acc = sum(limit.dims[p][k - p] for p in range(bc.n + 1)
                          if 0 <= k - p <= bc.m)
                assert acc == profile.dims[k]
            e2 = pages[2]
            for k in range(bc.n + bc.m + 1):
                spots = [(p, k - p) for p in range(bc.n + 1) if 0 <= k - p <= bc.m]
                if all(e2.dims[p][q] == 0 for p, q in spots):
                    assert profile.dims[k] == 0
            for p, q in itertools.product(range(bc.n + 1), range(bc.m + 1)):
                if e2.dims[p][q]:
                    assert any(profile.dims[k]
                               for k in range(p + q, bc.n + bc.m + 1))


def test_criterion_4_multiplicity_triple_oracle():
    with criterion(4, 20.0, "truncation = quotient dimension = eigenspace "
                            "dimension over the corpus"):
        for system, known_zeros in _corpus_systems():
            table = multiplicity.global_multiplicity_table(system)
            quotient = quotient_algebra(groebner(system)).dim
            assert table.quotient_dim == quotient
            total = 0
            for point, eig_dim in table.entries:
                cert = multiplicity.local_multiplicity(system, point)
                assert cert.multiplicity == eig_dim
                total += cert.multiplicity
                if multiplicity.jacobian_regular(system, point):
                    assert cert.multiplicity == 1
            assert total == quotient
            if known_zeros is not None:
                assert [p for p, _ in table.entries] == list(known_zeros)
                for point, m in table.entries:
                    assert m == 1


def test_criterion_5_diagonal_degree_identity():
    with criterion(5, 20.0, "degree matches the doubled-variable system over "
                            "the corpus"):
        for system, _ in _corpus_systems():
            table = multiplicity.global_multiplicity_table(system)
            for point, _m in table.entries:
                assert multiplicity.verify_diagonal_degree(system, point)


def test_criterion_6_global_index_theorem():
    with criterion(6, 10.0, "model-space indices match winding and quotient "
                            "oracles"):
        disc = DomainDescriptor.unit_disc()
        report = models.global_index(ModelTuple(disc, tuple(
            parse_system("z1^2 - 1/4", 1))))
        assert report.global_index == -2
        winding = multiplicity.winding_number(parse_system("z1^2 - 1/4", 1)[0])
        assert abs(winding - round(winding)) < 0.1
        assert report.global_index == -round(winding)

        report2 = models.global_index(ModelTuple(disc, tuple(
            parse_system("z1 - 2", 1))))
        assert report2.global_index == 0

        bidisc = DomainDescriptor.polydisc((QQi(0), QQi(0)),
                                           (Fraction(1), Fraction(1)))
        report3 = models.global_index(ModelTuple(bidisc, tuple(
            parse_system("z1^2; z2^2", 2))))
        assert report3.global_index == -4 == -report3.quotient_dim

        for rep in (report, report2, report3):
            assert sum(ix for _, ix in rep.local_indices) == rep.global_index
            assert rep.all_passed


def test_criterion_7_reciprocity():
    with criterion(7, 10.0, "two-domain index pairing balances on five "
                            "scenarios"):
        disc = DomainDescriptor.unit_disc()
        half = DomainDescriptor.polydisc((QQi(0),), (Fraction(1, 2),))
        bidisc = DomainDescriptor.polydisc((QQi(0), QQi(0)),
                                           (Fraction(1), Fraction(1)))
        small = DomainDescriptor.polydisc((QQi(0), QQi(0)),
                                          (Fraction(1, 2), Fraction(1, 2)))
        worked = models.reciprocity_check(disc, half,
                                          parse_system("z1*(z1 - 3/4)", 1))
        assert worked.lhs == worked.rhs == 1
        scenarios = [
            (half, DomainDescriptor.polydisc((QQi(3),), (Fraction(1, 2),)),
             parse_system("z1*(z1 - 3)", 1)),
            (disc, disc, parse_system("z1^2 - 1/4", 1)),
            (bidisc, small, parse_system("z1^2; z2^2", 2)),
            (bidisc, DomainDescriptor.ball((QQi(0), QQi(0)), Fraction(3, 4)),
             parse_system("z1; z2 - 1/4", 2)),
            (disc, DomainDescriptor.polydisc((QQi(Fraction(1, 4)),),
                                             (Fraction(1, 2),)),
             parse_system("z1*(z1 - 1/2)", 1)),
        ]
        for da, db, system in scenarios:
            result = models.reciprocity_check(da, db, system)
            assert result.equal, (da, db)


def test_criterion_8_binomial_identities_and_regular_points():
    with criterion(8, 5.0, "transform identities for all 1<=n<=m<=8 and "
                           "regular zeros scoring -1"):
        for n in range(1, 9):
            for m in range(n, 9):
                assert models.lr_identity_holds(n, m)
                assert models.binomial_identity_holds(n, m, 8)
        sample = [1, 0]
        assert models.regular_case_identities(sample, 1) == sample
        disc = DomainDescriptor.unit_disc()
        mt = ModelTuple(disc, tuple(parse_system("z1^2 - 1/4", 1)))
        for zero in ((QQi(Fraction(1, 2)),), (QQi(Fraction(-1, 2)),)):
            assert models.local_index(mt, zero) == -1
        ball = DomainDescriptor.ball((QQi(0), QQi(0)), Fraction(1))
        mt2 = ModelTuple(ball, tuple(parse_system("z1 + z2; z1 - z2", 2)))
        assert models.local_index(mt2, (QQi(0), QQi(0))) == -1


def test_criterion_9_determinism(tmp_path):
    with criterion(9, 120.0, "verify-all --seed 7 twice is byte-identical"):
        first = tmp_path / "first.jsonl"
        second = tmp_path / "second.jsonl"
        assert cli.main(["verify-all", "--seed", "7",
                         "--output", str(first)]) == 0
        assert cli.main(["verify-all", "--seed", "7",
                         "--output", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        assert filecmp.cmp(first, second, shallow=False)
        # the pinned bytes: a change that alters them changes behaviour
        assert hashlib.sha256(first.read_bytes()).hexdigest() == \
            "49ba6f546f5c494714340dbe36b06a75b576e924aef3769e207d54f0832f547b"
