import random
from fractions import Fraction

import pytest

from koszul_index import linalg, multiplicity, spectrum
from koszul_index.errors import (ArityMismatch, IrrationalSpectrum, NotAZero,
                                 NotIsolated, ZeroOnBoundary)
from koszul_index.multiplicity import (build_diagonal_system,
                                       eigenspace_multiplicity,
                                       global_multiplicity_table,
                                       jacobian_regular, local_multiplicity,
                                       truncated_codimension,
                                       verify_diagonal_degree, winding_number)
from koszul_index.models import DomainDescriptor, ModelTuple, classify_zeros
from koszul_index.poly import parse_system
from koszul_index.scalars import QQi
from koszul_index.suites import random_regular_system

ORIGIN1 = (QQi(0),)
ORIGIN2 = (QQi(0), QQi(0))


def system(text, n):
    return parse_system(text, n)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_univariate_order_of_vanishing(k):
    cert = local_multiplicity(system(f"z1^{k}", 1), ORIGIN1)
    assert cert.multiplicity == k
    assert cert.stabilization_order == k


def test_monomial_system_multiplicity():
    assert local_multiplicity(system("z1^2; z2^3", 2), ORIGIN2).multiplicity == 6


def test_groebner_oracle_system():
    assert local_multiplicity(system("z1^2 - z2; z2^2", 2), ORIGIN2).multiplicity == 4


def test_regular_zero_has_multiplicity_one():
    cert = local_multiplicity(system("z1 + z2; z1 - z2", 2), ORIGIN2)
    assert cert.multiplicity == 1
    assert jacobian_regular(system("z1 + z2; z1 - z2", 2), ORIGIN2)


def test_not_a_zero_raises():
    with pytest.raises(NotAZero):
        local_multiplicity(system("z1 - 1", 1), ORIGIN1)


def test_non_isolated_zero_raises(monkeypatch):
    monkeypatch.setattr(multiplicity, "MAX_ORDER", 8)
    with pytest.raises(NotIsolated):
        local_multiplicity(system("z1*z2; z1*z2", 2), ORIGIN2)


def test_square_system_required():
    with pytest.raises(ArityMismatch):
        local_multiplicity(system("z1; z2; z1+z2", 2), ORIGIN2)


def test_codimension_monotone():
    sys_ = [g.shift(ORIGIN2) for g in system("z1^2 - z2; z2^2", 2)]
    values = [truncated_codimension(sys_, n) for n in range(1, 8)]
    assert values == sorted(values)
    assert values[-1] == 4


def test_jacobian_examples():
    assert jacobian_regular(system("z1; z2", 2), ORIGIN2)
    assert not jacobian_regular(system("z1^2; z2", 2), ORIGIN2)
    assert jacobian_regular(system("z1 + z2; z1 - z2", 2), ORIGIN2)


def test_diagonal_system_shape():
    h = build_diagonal_system(system("z1^2 - z2; z2^2", 2))
    assert len(h) == 4 and all(p.nvars == 4 for p in h)
    assert str(h[0]) == "z1 - z3"
    assert str(h[1]) == "z2 - z4"
    single = build_diagonal_system(system("z1^2", 1))
    assert [str(p) for p in single] == ["z1 - z2", "z1^2"]
    # g(z) in the 2n variables (z, w) is g's text parsed in 2n variables
    texts = ["z1^2 - z2; z2^3 + (1/3+1/3i)*z1 - 5/2", "(2/7-1/7i)*z1*z2*z3 + z1^4; z2 - z3^2; 1/6*z3"]
    for text in texts:
        n = text.count(";") + 1
        diagonal = "; ".join(f"z{i} - z{n + i}" for i in range(1, n + 1))
        assert build_diagonal_system(system(text, n)) == \
            system(f"{diagonal}; {text}", 2 * n), text


@pytest.mark.parametrize("text,n,point", [
    ("z1^2", 1, ORIGIN1),
    ("z1^2 - z2; z2^2", 2, ORIGIN2),
    ("z1 + z2; z1 - z2", 2, ORIGIN2),
])
def test_diagonal_degree_identity(text, n, point):
    assert verify_diagonal_degree(system(text, n), point)


def test_translation_invariance():
    g = system("(z1 - 1)^3", 1)
    at_one = local_multiplicity(g, (QQi(1),))
    origin = local_multiplicity(system("z1^3", 1), ORIGIN1)
    assert at_one.multiplicity == origin.multiplicity == 3


def test_multiplicativity_on_decoupled_systems():
    g = system("z1^2; z2^3", 2)
    assert local_multiplicity(g, ORIGIN2).multiplicity == 2 * 3
    g2 = system("z1^2*(z1 - 1); z2", 2)
    assert local_multiplicity(g2, ORIGIN2).multiplicity == 2
    assert local_multiplicity(g2, (QQi(1), QQi(0))).multiplicity == 1


def test_global_table_examples():
    table = global_multiplicity_table(system("z1^2 - 1/4", 1))
    assert [(str(p[0]), m) for p, m in table.entries] == [("-1/2", 1), ("1/2", 1)]
    table2 = global_multiplicity_table(system("z1^2 - z2; z2^2", 2))
    assert table2.entries == (((QQi(0), QQi(0)), 4),)
    table3 = global_multiplicity_table(system("z1*(z1 - 1); z2", 2))
    assert [(tuple(map(str, p)), m) for p, m in table3.entries] == \
        [(("0", "0"), 1), (("1", "0"), 1)]


def counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_single_zero_table_needs_no_characteristic_polynomial(monkeypatch):
    def no_charpoly(m):
        raise AssertionError("characteristic polynomial formed")

    # refused at once rather than counted: a split that reached it would
    # run Berkowitz's recurrence on the 225 x 225 table for minutes
    monkeypatch.setattr(spectrum, "charpoly", no_charpoly)
    # z1^3 - z2; z2^4 is C[z1]/(z1^12): z1 is nilpotent of index 12, the
    # dimension, so a nilpotency chain one product short would need one
    table = global_multiplicity_table(system("z1^3 - z2; z2^4", 2))
    assert table.entries == (((QQi(0), QQi(0)), 12),)
    table = global_multiplicity_table(system("z1^15 ; z2^15", 2))
    assert table.entries == (((QQi(0), QQi(0)), 225),)


def test_eigenspace_multiplicity_at_the_only_zero_takes_no_kernel(monkeypatch):
    # every shifted multiplication operator is nilpotent on the unit, so
    # the eigenspace is the whole quotient
    def no_kernel(*args):
        raise AssertionError("_kernel_chain called")

    monkeypatch.setattr(spectrum, "_kernel_chain", no_kernel)
    assert eigenspace_multiplicity(system("z1^3 - z2; z2^4", 2), ORIGIN2) == 12


def test_global_table_checks_commutation_once(monkeypatch):
    # quotient_algebra's CommutingTuple checks the one pair of the two
    # multiplication matrices, and the table reads that tuple unchecked
    calls = counting(monkeypatch, linalg, "commutes")
    table = global_multiplicity_table(system("z1*(z1 - 1); z2^2 - z2", 2))
    assert table.total() == 4
    assert calls == ["commutes"]


def test_global_table_float_fallback():
    # the zero table is exact-only; the float split of the same algebra is
    # models.classify_zeros's fallback
    g = system("z1^2 - 2", 1)
    with pytest.raises(IrrationalSpectrum):
        global_multiplicity_table(g)
    disc = DomainDescriptor("polydisc", (QQi(0),), (2,))
    records, table = classify_zeros(ModelTuple(disc, tuple(g)))
    assert table.backend == "float" and table.quotient_dim == 2
    values = sorted(p[0].real for p, _ in table.entries)
    assert values[0] == pytest.approx(-2 ** 0.5, abs=1e-6)
    assert [r.location for r in records] == ["interior", "interior"]


def test_oracle_agreement_three_ways():
    rng = random.Random(101)
    corpus = [system("z1^2 - z2; z2^2", 2), system("z1*(z1-1); z2", 2)]
    for _ in range(4):
        corpus.append(random_regular_system(rng)[0])
    for g in corpus:
        table = global_multiplicity_table(g)
        total = 0
        for point, eig_dim in table.entries:
            cert = local_multiplicity(g, point)
            assert cert.multiplicity == eig_dim
            assert eigenspace_multiplicity(g, point) == eig_dim
            total += cert.multiplicity
        assert total == table.quotient_dim


def test_winding_numbers():
    assert winding_number(system("z1^2 - 1/4", 1)[0]) == pytest.approx(2, abs=1e-6)
    assert winding_number(system("z1 - 2", 1)[0]) == pytest.approx(0, abs=1e-6)
    assert winding_number(system("z1^3", 1)[0], radius=0.5) == pytest.approx(3, abs=1e-6)
    with pytest.raises(ZeroOnBoundary):
        winding_number(system("z1 - 1", 1)[0])
