import itertools
import random
import timeit
from fractions import Fraction

import pytest

from koszul_index import spectrum as spectrum_mod, suites
from koszul_index.errors import (ArityMismatch, ClusteringAmbiguity, IrrationalSpectrum,
                                 KoszulIndexError, ResourceLimit)
from koszul_index.koszul import CommutingTuple
from koszul_index.linalg import Matrix
from koszul_index.multiplicity import global_multiplicity_table
from koszul_index.poly import groebner, parse_system, quotient_algebra
from koszul_index.scalars import QQi
from koszul_index.spectrum import (apply_polynomial_map,
                                   charpoly, exact_eigenvalues, float_spectrum,
                                   generalized_eigenspace, joint_eigenvalues,
                                   joint_spectrum_equivalences,
                                   localized_homology, spectral_decomposition)
from mutations import patch_source


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


def _diagonal(values):
    d = len(values)
    return Matrix([[values[i] if i == j else QQi(0) for j in range(d)] for i in range(d)])


def _sorted_pairs(values):
    return sorted(((v, 1) for v in values), key=lambda kv: kv[0].sort_key())


@pytest.mark.parametrize("entries", [
    ("1/1000000001", "2"), ("7/1000000011", "-4/3-2i"),
    [f"{k}/999999937" for k in range(1, 10)], [f"{k}/{1000003 + k}" for k in range(1, 14)],
])
def test_exact_eigenvalues_with_denominators_above_10_to_the_9(entries):
    # each root r is read as lc r in Z[i], so no fixed denominator bound
    # applies; in the last two lc, the product of every denominator, is
    # above 2^256
    values = [QQi.parse(x) for x in entries]
    assert exact_eigenvalues(_diagonal(values)) == _sorted_pairs(values)


@pytest.mark.parametrize("values", [
    [QQi(Fraction(k, 10007 + 2 * k)) for k in range(1, 21)],
    [QQi(Fraction(k, 10007 + 2 * k), -Fraction(k, 9973 + k)) for k in range(1, 15)],
    [QQi(Fraction(k, 10007 + 2 * k), -Fraction(k, 9973 + k)) for k in range(1, 25)],
], ids=["wilkinson_20", "gaussian_14", "gaussian_24"])
def test_ill_conditioned_and_gaussian_diagonals_come_back_exactly(values):
    # roots 10^-4 apart that double precision merged, and Gaussian
    # eigenvalues whose content Euclid in Z[i] took 9 s at 14 and past 40 s
    # at 24: each is read exactly, best of three in under 0.1 s
    m = _diagonal(values)
    assert exact_eigenvalues(m) == _sorted_pairs(values)
    assert min(timeit.repeat(lambda: exact_eigenvalues(m), number=1, repeat=3)) < 0.1


def test_roots_that_merge_modulo_the_first_prime_are_read_on_a_later_one(monkeypatch):
    # 1/3 and 1/3 + p meet modulo p as one double root, whose reading fails
    # its check, so the next prime reads them apart
    p = spectrum_mod._prime_after(spectrum_mod._PRIME_FLOOR)[0]
    values = [QQi(Fraction(1, 3)), QQi(Fraction(1, 3) + p), QQi(2, 1)]
    primes, original = [], spectrum_mod._read
    monkeypatch.setattr(spectrum_mod, "_read",
                        lambda f, roots, q, *rest: primes.append(q) or original(f, roots, q, *rest))
    assert exact_eigenvalues(_diagonal(values)) == _sorted_pairs(values)
    assert primes == [p, spectrum_mod._prime_after(p)[0]]


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
            # (op - lam)^dim kills the eigenspace, applied one factor at a time
            shifted, image = op - Matrix.identity(t.dim).scale(lam), space
            for _ in range(t.dim):
                image = shifted @ image
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
    # an error of the float split is tagged float: roots +-sqrt(2)·10^200 and
    # +-sqrt(2)·10^350 leave Q(i), which the exact split certifies with no
    # float, and their entries leave float range in the float split
    for exponent in (400, 700):
        t = CommutingTuple([Matrix([[0, 2 * 10 ** exponent], [1, 0]])])
        with pytest.raises(ResourceLimit) as raised:
            joint_eigenvalues(t)
        assert getattr(raised.value, "backend", None) == "float"


def _conjugated_jordan(rng, blocks, steps, extra=()):
    """S J S^-1 for a unimodular S of `steps` row operations, where J holds
    one Jordan block of each (eigenvalue, size), then the square block
    `extra` on its diagonal."""
    d = sum(size for _, size in blocks) + len(extra)
    rows = [[QQi(0)] * d for _ in range(d)]
    pos = 0
    for lam, size in blocks:
        for i in range(size):
            rows[pos + i][pos + i] = lam
            if i:
                rows[pos + i - 1][pos + i] = QQi(1)
        pos += size
    for i, row in enumerate(extra):
        rows[pos + i][pos:] = row
    s, s_inv = (Matrix(m) for m in suites._unimodular(rng, d, steps))
    return s @ Matrix(rows) @ s_inv


def _big_value(rng, den):
    """A Gaussian rational whose parts have denominators up to den."""
    im = Fraction(rng.randint(-den, den), rng.randint(1, den)) if rng.random() < 0.5 else 0
    return QQi(Fraction(rng.randint(-den, den), rng.randint(1, den)), im)


def _jordan_case(rng, irrational):
    """(blocks, extra) of a seeded conjugated Jordan form of size at most 7:
    eigenvalues in Q(i) with denominators up to 10^12, often shared by two
    blocks; when `irrational`, extra is [[r, q], [1, r]] with q = 3 s^2, whose
    eigenvalues r +- sqrt(q) leave Q(i)."""
    den = rng.choice([10, 10 ** 6, 10 ** 12])
    room = 5 if irrational else 7
    values = [_big_value(rng, den) for _ in range(rng.randint(1, 3))]
    blocks = []
    while room and (not blocks or rng.random() < 0.6):
        size = rng.randint(1, min(3, room))
        blocks.append((rng.choice(values), size))
        room -= size
    if not irrational:
        return blocks, ()
    r, s = _big_value(rng, den), Fraction(rng.randint(1, den), rng.randint(1, den))
    return blocks, [[r, QQi(3 * s * s)], [QQi(1), r]]


def _split_or_error(m):
    """exact_eigenvalues(m), or the type of the KoszulIndexError it raises;
    any other exception escapes."""
    try:
        return exact_eigenvalues(m)
    except KoszulIndexError as err:
        return type(err)


def test_conjugated_jordan_forms_come_back_exactly():
    # 200 seeded forms: the spectrum and multiplicities a Jordan form is
    # built with come back exactly, an irrational 2x2 block raises
    # IrrationalSpectrum, and no error but a KoszulIndexError escapes
    rng = random.Random(3030)
    for trial in range(200):
        irrational = trial % 4 == 3
        blocks, extra = _jordan_case(rng, irrational)
        m = _conjugated_jordan(rng, blocks, 12, extra)
        expected = {}
        for lam, size in blocks:
            expected[lam] = expected.get(lam, 0) + size
        wanted = sorted(expected.items(), key=lambda kv: kv[0].sort_key())
        assert _split_or_error(m) == (IrrationalSpectrum if irrational else wanted), trial


def _sympy_roots_oracle():
    oracles = pytest.importorskip("test_oracles")
    assert oracles._first_roots_disagreement(3030, 24) is None


def _sympy_charpoly_oracle():
    oracles = pytest.importorskip("test_oracles")
    assert oracles._first_charpoly_disagreement(34) is None


# Mutations of the p-adic root route and of the characteristic polynomial,
# each with the independent oracle that must reject it: (patched function,
# text, mutated text, oracle).
_SPLIT_MUTATIONS = {
    "berkowitz_column_sign": ("charpoly", "t.append((-re, -im))", "t.append((re, im))",
                              _sympy_charpoly_oracle),
    "rescale_one_power_off": ("charpoly", "enumerate(poly)", "enumerate(poly, 1)",
                              _sympy_charpoly_oracle),
    "newton_on_f": ("_read", "derivs[mult - 1]], rho", "derivs[0]], rho",
                    _sympy_roots_oracle),
    "precision_b_squared": ("_read", "p ** k > 4 * b * b", "p ** k > b * b",
                            _sympy_roots_oracle),
    # (c, 0) - pk floor(c / pk), pk of norm q, for the residue of least norm
    "reading_floors": ("_read", "_reduce((lcq * r % q, 0), pk)",
                       "(lambda c, m: (c - m[0], -m[1]))(lcq * r % q, _gauss_mul(pk, ("
                       "lcq * r % q * pk[0] // q, -(lcq * r % q) * pk[1] // q)))",
                       _sympy_roots_oracle),
}


@pytest.mark.parametrize("mutation", sorted(_SPLIT_MUTATIONS))
def test_split_mutations_are_rejected(monkeypatch, mutation):
    path, old, new, oracle = _SPLIT_MUTATIONS[mutation]
    oracle()
    patch_source(monkeypatch, spectrum_mod, path, old, new)
    with pytest.raises(AssertionError):
        oracle()


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
    def no_product(a, b):
        raise AssertionError("matrix product formed")

    t = mult_tuple("(z1-1)^2*z1; z2^2", 2)
    # the kernel chain forms no product of matrices, so no power either
    with monkeypatch.context() as patch:
        patch.setattr(Matrix, "__matmul__", no_product)
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
