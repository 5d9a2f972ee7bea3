import random
from fractions import Fraction
from math import comb

import pytest

from koszul_index.errors import ArityMismatch, NotAZero, NotNilpotent, ZeroOnBoundary
from koszul_index.koszul import CommutingTuple
from koszul_index.linalg import Matrix
from koszul_index.models import (DomainDescriptor, ModelTuple, _l_matrix, _r_matrix,
                                 binomial_identity_holds, classify_zeros, global_index,
                                 int_matmul, local_index, lr_identity_holds,
                                 reciprocity_check, regular_case_identities,
                                 tensor_index_identity)
from koszul_index.poly import parse_system
from koszul_index.scalars import QQi

DISC = DomainDescriptor.unit_disc()
BIDISC = DomainDescriptor.polydisc((QQi(0), QQi(0)), (Fraction(1), Fraction(1)))
HALF_DISC = DomainDescriptor.polydisc((QQi(0),), (Fraction(1, 2),))
BALL2 = DomainDescriptor.ball((QQi(0), QQi(0)), Fraction(1))


def model(domain, text):
    system = parse_system(text, domain.dimension)
    return ModelTuple(domain, tuple(system))


def test_domain_classification_exact():
    assert DISC.classify((QQi(Fraction(1, 2)),)) == "interior"
    assert DISC.classify((QQi(2),)) == "exterior"
    assert DISC.classify((QQi(1),)) == "boundary"
    assert DISC.classify((QQi(Fraction(3, 5), Fraction(4, 5)),)) == "boundary"
    assert BIDISC.classify((QQi(0), QQi(2))) == "exterior"
    assert BALL2.classify((QQi(Fraction(3, 5)), QQi(Fraction(4, 5)))) == "boundary"
    assert BALL2.classify((QQi(Fraction(1, 2)), QQi(Fraction(1, 2)))) == "interior"


def test_domain_classification_float_margin():
    assert DISC.classify((0.5 + 0j,)) == "interior"
    assert DISC.classify((1.0000001 + 0j,)) == "boundary"
    assert DISC.classify((1.1 + 0j,)) == "exterior"


def test_coordinate_index_function():
    assert DISC.coordinate_index((QQi(Fraction(1, 2)),)) == -1
    assert DISC.coordinate_index((QQi(2),)) == 0
    with pytest.raises(ZeroOnBoundary):
        DISC.coordinate_index((QQi(1),))


def test_classify_zeros_examples():
    records, table = classify_zeros(model(DISC, "z1^2 - 1/4"))
    assert [(str(r.point[0]), r.multiplicity, r.location) for r in records] == \
        [("-1/2", 1, "interior"), ("1/2", 1, "interior")]
    records2, _ = classify_zeros(model(DISC, "z1 - 2"))
    assert [(str(r.point[0]), r.multiplicity, r.location) for r in records2] == \
        [("2", 1, "exterior")]
    records3, _ = classify_zeros(model(BIDISC, "z1^2; z2^2"))
    assert [(r.multiplicity, r.location) for r in records3] == [(4, "interior")]


def test_global_index_disc_examples():
    assert global_index(model(DISC, "z1^2 - 1/4")).global_index == -2
    assert global_index(model(DISC, "z1 - 2")).global_index == 0
    report = global_index(model(BIDISC, "z1^2; z2^2"))
    assert report.global_index == -4
    assert report.quotient_dim == 4


def test_global_index_cross_checks_pass():
    report = global_index(model(DISC, "z1*(z1 - 1/2)*(z1 - 4)"))
    assert report.global_index == -2  # zeros 0 and 1/2 inside, 4 outside
    assert report.all_passed
    names = {c.name for c in report.checks}
    assert "univariate_winding_oracle" in names
    assert "sum_of_local_indices" in names


def test_local_index_examples():
    mt = model(DISC, "z1^2 - 1/4")
    assert local_index(mt, (QQi(Fraction(1, 2)),)) == -1
    assert local_index(model(DISC, "z1 - 2"), (QQi(2),)) == 0
    assert local_index(model(BIDISC, "z1^2; z2^2"), (QQi(0), QQi(0))) == -4
    with pytest.raises(NotAZero):
        local_index(mt, (QQi(0),))
    with pytest.raises(ZeroOnBoundary):
        local_index(model(DISC, "z1 - 1"), (QQi(1),))


def test_boundary_zero_rejected():
    with pytest.raises(ZeroOnBoundary):
        global_index(model(DISC, "z1 - 1"))
    with pytest.raises(ZeroOnBoundary):
        global_index(model(BALL2, "z1 - 3/5; z2 - 4/5"))


def test_sum_of_local_indices_matches_global():
    mt = model(DISC, "(z1 - 1/4)*(z1 + 1/4)*(z1 - 2)")
    report = global_index(mt)
    total = sum(index for _, index in report.local_indices)
    assert total == report.global_index == -2


def test_float_zero_classification_pipeline():
    # irrational zeros inside and outside the disc force the float fallback
    report = global_index(model(DISC, "(z1^2 - 1/2)*(z1 - 2)"))
    assert report.backend == "float"
    assert report.global_index == -2


def test_float_zero_near_boundary_refused():
    # zeros at +-sqrt(1.00000001), within the float margin of the circle
    with pytest.raises(ZeroOnBoundary):
        global_index(model(DISC, "z1^2 - 100000001/100000000"))


def test_binomial_transform_identities():
    for n in range(1, 9):
        for m in range(n, 9):
            assert lr_identity_holds(n, m)
            assert binomial_identity_holds(n, m, 8)


def test_r_and_l_matrix_entries():
    r = _r_matrix(2, 5, 3)
    assert r[0][0] == 1 and r[1][0] == 2 and r[2][0] == 1 and r[3][0] == 0
    l = _l_matrix(2, 3, 5)
    assert l[0][0] == 1 and l[1][0] == -2 and l[2][0] == 3


def test_left_inverse_composed_with_larger_lift():
    # composing the left inverse with the larger lift convolves against the
    # binomials of the difference
    for n in range(1, 5):
        for m in range(n, 6):
            size = n + m + 1
            product = int_matmul(_l_matrix(n, m + 1, size), _r_matrix(m, size, n + 1))
            expected = [[comb(m - n, i - j) if 0 <= i - j <= m - n else 0
                         for j in range(n + 1)] for i in range(m + 1)]
            assert product == expected


def test_regular_case_identity_transform():
    assert regular_case_identities([1, 0], 1) == [1, 0]
    assert regular_case_identities([1, 0], 2) == [1, 1, 0]
    assert regular_case_identities([2, 1, 0], 2) == [2, 1, 0]
    with pytest.raises(ArityMismatch):
        regular_case_identities([1, 0, 0], 1)


def test_reciprocity_worked_pair():
    report = reciprocity_check(DISC, HALF_DISC, parse_system("z1*(z1 - 3/4)", 1))
    assert report.lhs == report.rhs == 1
    assert report.equal


def test_reciprocity_scenarios():
    # disjoint domains: both sides vanish
    shifted = DomainDescriptor.polydisc((QQi(3),), (Fraction(1, 2),))
    r1 = reciprocity_check(HALF_DISC, shifted, parse_system("z1*(z1 - 3)", 1))
    assert r1.lhs == r1.rhs == 0
    # equal domains: symmetric sums
    r2 = reciprocity_check(DISC, DISC, parse_system("z1^2 - 1/4", 1))
    assert r2.equal and r2.lhs == 2
    # bidisc pair
    small = DomainDescriptor.polydisc((QQi(0), QQi(0)),
                                      (Fraction(1, 2), Fraction(1, 2)))
    r3 = reciprocity_check(BIDISC, small, parse_system("z1^2; z2^2", 2))
    assert r3.equal and r3.lhs == 4
    # mixed ball and bidisc
    r4 = reciprocity_check(BIDISC, DomainDescriptor.ball((QQi(0), QQi(0)),
                                                         Fraction(3, 4)),
                           parse_system("z1; z2 - 1/4", 2))
    assert r4.equal
    with pytest.raises(ZeroOnBoundary):
        reciprocity_check(DISC, HALF_DISC, parse_system("z1 - 1/2", 1))


def test_tensor_identity_reports():
    base = CommutingTuple([Matrix.zeros(1, 1)])
    jordan = CommutingTuple([Matrix([[0, 1], [0, 0]])])
    report = tensor_index_identity(base, jordan)
    assert report.verdict
    assert report.dims_product == (1, 1)
    assert report.dims_base == (1, 1)
    trivial = tensor_index_identity(base, CommutingTuple([Matrix.zeros(1, 1)]))
    assert trivial.verdict and trivial.dims_product == (1, 1)
    with pytest.raises(NotNilpotent):
        tensor_index_identity(base, CommutingTuple([Matrix.identity(2)]))
    with pytest.raises(ArityMismatch):
        tensor_index_identity(base, CommutingTuple([Matrix.zeros(1, 1),
                                                    Matrix.zeros(1, 1)]))


def test_tensor_identity_random_instances():
    rng = random.Random(77)
    from random_tuples import random_commuting_tuple

    for _ in range(6):
        base = random_commuting_tuple(rng, 2, 3)
        size = rng.randint(1, 3)
        strict = Matrix([[QQi(rng.randint(-2, 2)) if j > i else QQi(0)
                          for j in range(size)] for i in range(size)])
        nil = CommutingTuple([strict, strict @ strict])
        report = tensor_index_identity(base, nil)
        assert report.verdict


def test_model_tuple_requires_square_symbol():
    with pytest.raises(ArityMismatch):
        ModelTuple(BIDISC, tuple(parse_system("z1", 2)))
    with pytest.raises(ArityMismatch):
        ModelTuple(DISC, tuple(parse_system("z1; z1^2", 1)))


def test_binomial_identity_matches_the_sum_over_every_k():
    def full_sum(n, m, max_shift):
        return all(
            sum((-1) ** k * comb(n + k - 1, k) * comb(m, s - k)
                for k in range(s + 1) if s - k <= m)
            == (comb(m - n, s) if 0 <= s <= m - n else 0)
            for s in range(max_shift + 1))

    for n in range(1, 7):
        for m in range(n, 7):
            for max_shift in range(41):
                assert binomial_identity_holds(n, m, max_shift) == full_sum(n, m, max_shift)


def test_float_points_classify_exactly_beyond_float_range():
    huge = Fraction(10) ** 400
    assert DomainDescriptor.polydisc([0], [huge]).classify((1.5 + 0j,)) == "interior"
    assert DomainDescriptor.polydisc([huge], [1]).classify((1.5 + 0j,)) == "exterior"
    ball = DomainDescriptor.ball([huge, 0], huge)
    assert ball.classify((1.5 + 0j, 0j)) == "interior"
    assert ball.classify((-1.5 + 0j, 0j)) == "exterior"
