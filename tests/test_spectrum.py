import itertools
import random
from fractions import Fraction

import pytest

from koszul_index import suites
from koszul_index.errors import (ArityMismatch, ClusteringAmbiguity, IrrationalSpectrum,
                                 ResourceLimit)
from koszul_index.koszul import CommutingTuple
from koszul_index.linalg import Matrix
from koszul_index.multiplicity import global_multiplicity_table
from koszul_index.poly import groebner, parse_system, quotient_algebra
from koszul_index.scalars import QQi
from koszul_index.spectrum import (_power_at_least, apply_polynomial_map,
                                   charpoly, exact_eigenvalues, float_spectrum,
                                   generalized_eigenspace, joint_eigenvalues,
                                   joint_spectrum_equivalences,
                                   localized_homology, spectral_decomposition)


def mult_tuple(text, n):
    qa = quotient_algebra(groebner(parse_system(text, n)))
    return CommutingTuple(list(qa.mult_matrices))


DIAG = CommutingTuple([Matrix([[1, 0], [0, 2]]), Matrix([[3, 0], [0, 4]])])


def as_strs(decomposition):
    return [(tuple(str(x) for x in pt), space.cols)
            for pt, space in decomposition.components]


def test_charpoly_of_companion():
    m = Matrix([[0, -6], [1, 5]])  # x^2 - 5x + 6
    assert charpoly(m) == [QQi(6), QQi(-5), QQi(1)]


def test_exact_eigenvalues_with_multiplicity():
    m = Matrix([[2, 1, 0], [0, 2, 0], [0, 0, 3]])
    assert exact_eigenvalues(m) == [(QQi(2), 2), (QQi(3), 1)]


def test_exact_eigenvalues_gaussian():
    m = Matrix([[QQi(0), QQi(-1)], [QQi(1), QQi(0)]])  # x^2 + 1
    assert exact_eigenvalues(m) == [(QQi(0, -1), 1), (QQi(0, 1), 1)]


@pytest.mark.parametrize("a, b", [("0", "1/2"), ("0", "1/3"), ("1", "3/2")])
def test_exact_eigenvalues_close_rational_roots(a, b):
    # a coarse rational guess for one root may be the other root exactly
    m = Matrix([[QQi.parse(a), QQi(0)], [QQi(0), QQi.parse(b)]])
    assert exact_eigenvalues(m) == [(QQi.parse(a), 1), (QQi.parse(b), 1)]


def test_exact_eigenvalues_close_relative_to_their_size():
    # float guesses of the cubic are too coarse for a gap of 1/1000 at 1000
    m = Matrix([[QQi(999), QQi(0), QQi(0)], [QQi(0), QQi(1000), QQi(0)],
                [QQi(0), QQi(0), QQi(Fraction(1000001, 1000))]])
    assert exact_eigenvalues(m) == [(QQi(999), 1), (QQi(1000), 1),
                                    (QQi(Fraction(1000001, 1000)), 1)]
    table = global_multiplicity_table(parse_system("(z1-999)*(z1-1000)*(z1-1000001/1000)", 1))
    assert table.entries == (((QQi(999),), 1), ((QQi(1000),), 1),
                             ((QQi(Fraction(1000001, 1000)),), 1))


def test_exact_eigenvalues_of_an_irrational_companion_still_raise():
    with pytest.raises(IrrationalSpectrum):
        exact_eigenvalues(Matrix([[0, 2], [1, 0]]))  # x^2 - 2


def test_decomposition_diagonal_pair():
    assert as_strs(spectral_decomposition(DIAG)) == \
        [(("1", "3"), 1), (("2", "4"), 1)]


def test_decomposition_first_operator_does_not_separate():
    t = CommutingTuple([Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 2]]),
                        Matrix([[0, 0, 0], [0, 1, 0], [0, 0, 0]])])
    assert as_strs(spectral_decomposition(t)) == \
        [(("1", "0"), 1), (("1", "1"), 1), (("2", "0"), 1)]


def test_decomposition_multiplication_tuples():
    assert as_strs(spectral_decomposition(mult_tuple("z1^2", 1))) == [(("0",), 2)]
    assert as_strs(spectral_decomposition(mult_tuple("z1^2 - z2; z2^2", 2))) == \
        [(("0", "0"), 4)]


def test_decomposition_invariants():
    t = mult_tuple("z1*(z1-1)*(z1+2); z2^2 - z2", 2)
    dec = spectral_decomposition(t)
    assert dec.total_dim() == t.dim
    for point, space in dec.components:
        for op, lam in zip(t.operators, point):
            shifted = op - Matrix.identity(t.dim).scale(lam)
            image = _power_at_least(shifted, t.dim) @ space
            assert image.is_zero()


def test_irrational_spectrum_raises_exact_passes_float():
    t = mult_tuple("z1^2 - 2", 1)
    with pytest.raises(IrrationalSpectrum):
        spectral_decomposition(t)
    values = sorted(pt[0].real for pt, _ in float_spectrum(t))
    assert values[0] == pytest.approx(-2 ** 0.5, abs=1e-6)
    assert values[1] == pytest.approx(2 ** 0.5, abs=1e-6)


def test_joint_eigenvalues_fall_back_to_float_only_off_q_i():
    assert joint_eigenvalues(DIAG) == (spectral_decomposition(DIAG).multiplicities(), "exact")
    t = mult_tuple("z1^2 - 2", 1)
    assert joint_eigenvalues(t) == (float_spectrum(t), "float")
    # an error of the float split is tagged float, one of the exact split is
    # not: roots +-sqrt(2)·10^200 leave Q(i) and their entry leaves float range;
    # roots +-sqrt(2)·10^350 leave float range before the float split runs
    for exponent, tagged in ((400, True), (700, False)):
        t = CommutingTuple([Matrix([[0, 2 * 10 ** exponent], [1, 0]])])
        with pytest.raises(ResourceLimit) as raised:
            joint_eigenvalues(t)
        assert getattr(raised.value, "backend", None) == ("float" if tagged else None)


def _conjugated_jordan(rng, blocks, steps):
    """S J S^-1 for a unimodular S of `steps` row operations, where J holds
    one Jordan block of each (eigenvalue, size)."""
    d = sum(size for _, size in blocks)
    rows = [[QQi(0)] * d for _ in range(d)]
    pos = 0
    for lam, size in blocks:
        for i in range(size):
            rows[pos + i][pos + i] = lam
            if i:
                rows[pos + i - 1][pos + i] = QQi(1)
        pos += size
    s, s_inv = (Matrix(m) for m in suites._unimodular(rng, d, steps))
    return s @ Matrix(rows) @ s_inv


@pytest.mark.parametrize("seed", [0, 10, 25, 32])
def test_float_jordan_block_is_one_component(seed):
    # rounding splits J_2(1+5i) by about sqrt(eps) times the conditioning of
    # S, often beyond tol.cluster; its two eigenvectors stay parallel
    m = _conjugated_jordan(random.Random(seed),
                           [(QQi(1, 5), 2), (QQi(2), 1)], 12)
    pairs = float_spectrum(CommutingTuple([m]))
    assert [n for _, n in pairs] == [2, 1]
    points = [pt[0] for pt, _ in pairs]
    assert points == [pytest.approx(1 + 5j, abs=1e-6), pytest.approx(2, abs=1e-6)]


def _rational(rng, den):
    return Fraction(rng.randint(-9, 9), rng.randint(1, den))


def _jordan_blocks(rng):
    values = [QQi(_rational(rng, 4)) for _ in range(rng.randint(1, 3))]
    return [(rng.choice(values), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]


def _gaussian_blocks(rng):
    return [(QQi(_rational(rng, 4), _rational(rng, 3) or 1), rng.randint(1, 2))
            for _ in range(rng.randint(2, 4))]


def _right_or_refused(t):
    """True when the float split of t matches its certified exact table, False
    when it refuses; a wrong float table fails."""
    exact = spectral_decomposition(t).multiplicities()
    try:
        got = float_spectrum(t)
    except ClusteringAmbiguity:
        return False
    assert len(got) == len(exact)
    for point, mult in exact:
        assert [n for q, n in got
                if all(abs(x - complex(p)) < 1e-6 for x, p in zip(q, point))] == [mult]
    return True


def test_float_tables_match_exact_or_refuse():
    # float copies of conjugated Jordan forms against the certified exact
    # table: a float table is right or refused, never wrong
    rng = random.Random(77)
    right = 0
    for trial in range(100):
        family = _jordan_blocks if trial % 2 == 0 else _gaussian_blocks
        m = _conjugated_jordan(rng, family(rng), 20)
        right += _right_or_refused(CommutingTuple([m]))
    assert right >= 80


@pytest.mark.parametrize("count", [2, 3])
def test_float_joint_tables_match_exact_or_refuse(count):
    # families whose later operators the float split restricts to each
    # eigenspace of the first by least squares; only families the exact
    # split certifies are compared
    rng = random.Random(500 + count)
    right = certified = 0
    while certified < 40:
        ops = suites.random_commuting_family(rng, count, rng.randint(2, 6))
        try:
            t = CommutingTuple(ops)
            spectral_decomposition(t)
        except IrrationalSpectrum:
            continue
        certified += 1
        right += _right_or_refused(t)
    assert right >= 30


def test_equivalences_examples():
    on_spec = joint_spectrum_equivalences(DIAG, (QQi(1), QQi(3)))
    assert on_spec.agree and on_spec.in_taylor_spectrum
    off_spec = joint_spectrum_equivalences(DIAG, (QQi(1), QQi(4)))
    assert off_spec.agree and not off_spec.in_taylor_spectrum
    jordan = CommutingTuple([Matrix([[0, 1], [0, 0]]), Matrix.zeros(2, 2)])
    at_zero = joint_spectrum_equivalences(jordan, (QQi(0), QQi(0)))
    assert at_zero.agree and at_zero.in_taylor_spectrum
    assert sum(m for _, m in spectral_decomposition(jordan).multiplicities()) == 2


def test_equivalences_share_the_joint_kernel(monkeypatch):
    # the top homology is read from the homology profile, one rank per
    # differential (H_n is the joint kernel by construction), so the kernel
    # chain makes the only two kernel calls
    from koszul_index import linalg

    calls = []
    original = linalg.kernel_basis
    monkeypatch.setattr(linalg, "kernel_basis",
                        lambda *args: calls.append(1) or original(*args))
    report = joint_spectrum_equivalences(DIAG, (QQi(1), QQi(3)))
    assert report.agree and report.in_taylor_spectrum and report.top_homology_nonzero
    assert len(calls) == 2


def test_apply_polynomial_map_examples():
    ident = apply_polynomial_map(DIAG, parse_system("z1; z2", 2))
    assert ident.operators == DIAG.operators
    const = apply_polynomial_map(DIAG, parse_system("5", 2))
    assert const.operators[0] == Matrix.identity(2).scale(QQi(5))
    summed = apply_polynomial_map(DIAG, parse_system("z1 + z2", 2))
    assert summed.operators[0] == Matrix([[4, 0], [0, 6]])
    with pytest.raises(ArityMismatch):
        apply_polynomial_map(DIAG, parse_system("z1", 1))


def test_spectral_mapping_on_finite_dimensions():
    t = mult_tuple("z1*(z1-1); z2*(z2-2)", 2)
    polys = parse_system("z1 + z2; z1*z2", 2)
    mapped = apply_polynomial_map(t, polys)
    source = spectral_decomposition(t)
    target = spectral_decomposition(mapped)
    pushed = {}
    for point, space in source.components:
        image = tuple(g.evaluate(point) for g in polys)
        pushed[image] = pushed.get(image, 0) + space.cols
    assert dict(((pt, s.cols) for pt, s in target.components)) == \
        {pt: m for pt, m in pushed.items()}


def test_generalized_eigenspace_dimensions():
    t = mult_tuple("z1^2 - z2; z2^2", 2)
    assert generalized_eigenspace(t, (QQi(0), QQi(0))).cols == 4
    assert generalized_eigenspace(t, (QQi(1), QQi(0))).cols == 0


def test_eigenspaces_take_no_matrix_power(monkeypatch):
    from koszul_index import spectrum

    def no_power(m, k):
        raise AssertionError("_power_at_least called")

    monkeypatch.setattr(spectrum, "_power_at_least", no_power)
    t = mult_tuple("(z1-1)^2*z1; z2^2", 2)
    assert generalized_eigenspace(t, (QQi(1), QQi(0))).cols == 4
    assert generalized_eigenspace(t, (QQi(0), QQi(0))).cols == 2
    assert generalized_eigenspace(t, (QQi(1), QQi(1))).cols == 0
    polys = parse_system("z1^2 - z1; z2", 2)
    assert localized_homology(t, polys, (QQi(1), QQi(0))) == [1, 2, 1]
    assert localized_homology(t, polys, (QQi(0), QQi(0))) == [1, 2, 1]
    report = joint_spectrum_equivalences(t, (QQi(1), QQi(0)))
    assert report.agree and report.in_eigenvalue_support


def test_unit_generator_route_matches_the_generator_free_route():
    rng = random.Random(1717)
    systems = [suites.random_regular_system(rng, nvars)[0] for nvars in [2] * 8 + [3] * 3]
    systems += [parse_system(f"z1^{a} - z2; z2^{b}", 2)
                for a in range(1, 13) for b in range(1, 13 // a + 1) if a * b <= 12]
    systems.append(parse_system("(z1-1)^2*z1; z2^2", 2))
    for system in systems:
        mats = quotient_algebra(groebner(system)).mult_matrices
        free = spectral_decomposition(CommutingTuple.proven(mats))
        assert list(global_multiplicity_table(system).entries) == free.multiplicities()
    # C^d with pointwise products, in the basis of point indicators, is the
    # diagonal tuple of the points, and its unit is all ones; a piece's first
    # basis vector is then one point's indicator, which generates only that point
    for _ in range(20):
        points = rng.sample(sorted(itertools.product((-1, 0, 1), repeat=2)), rng.randint(3, 7))
        t = CommutingTuple.proven([Matrix([[p[i] if j == k else 0 for k in range(len(points))]
                                           for j, p in enumerate(points)]) for i in (0, 1)])
        unit = Matrix([[1]] * len(points))
        assert spectral_decomposition(t, unit=unit).multiplicities() == \
            spectral_decomposition(t).multiplicities()


def test_localized_homology_examples():
    t = mult_tuple("z1^2", 1)
    assert localized_homology(t, parse_system("z1", 1), (QQi(0),)) == [1, 1]
    assert localized_homology(t, parse_system("z1", 1), (QQi(3),)) == [0, 0]
    assert localized_homology(t, parse_system("z1 + 1", 1), (QQi(0),)) == [0, 0]


def test_localized_homology_sums_to_total():
    from koszul_index import koszul

    t = mult_tuple("z1*(z1-1); z2", 2)
    polys = parse_system("z1; z2", 2)
    mapped = apply_polynomial_map(t, polys)
    total = koszul.homology(koszul.build_complex(mapped)).dims
    zeros = [(QQi(0), QQi(0)), (QQi(1), QQi(0))]
    acc = [0] * len(total)
    for z in zeros:
        local = localized_homology(t, polys, z)
        acc = [a + extra for a, extra in zip(acc, local)]
    assert tuple(acc) == total
