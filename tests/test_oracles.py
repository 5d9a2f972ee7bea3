"""Differential tests of the exact routes against sympy: rank, kernel and
solve against sympy's elimination, on Gaussian and on real systems, the characteristic polynomial against
sympy's, certified eigenvalues against spectra known by construction,
S J S^-1 with J in Jordan form, the square-free split of characteristic
polynomials against sympy's `sqf_list` over QQ_I, and reduced grevlex
Groebner bases and quotient dimensions against sympy's `groebner`."""

import itertools
import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from koszul_index import linalg, poly, spectrum, suites  # noqa: E402
from koszul_index.errors import InconsistentSystem, IrrationalSpectrum  # noqa: E402
from koszul_index.linalg import Matrix  # noqa: E402
from koszul_index.poly import (Polynomial, groebner, monomials_of_degree,  # noqa: E402
                               parse_system, quotient_algebra)
from koszul_index.scalars import QQi  # noqa: E402
from koszul_index.spectrum import charpoly, exact_eigenvalues  # noqa: E402


def _rational(rng, den):
    return Fraction(rng.randint(-9, 9), rng.randint(1, den))


def _gaussian(rng, zero_share=0.0):
    if rng.random() < zero_share:
        return QQi(0)
    im = _rational(rng, 3) if rng.random() < 0.5 else 0
    return QQi(_rational(rng, 6), im)


def _real(rng, zero_share=0.0):
    """An integer or rational entry with no imaginary part."""
    if rng.random() < zero_share:
        return QQi(0)
    return QQi(rng.randint(-9, 9)) if rng.random() < 0.5 else QQi(_rational(rng, 6))


def _to_sympy(x: QQi):
    return (sympy.Rational(x.re.numerator, x.re.denominator)
            + sympy.I * sympy.Rational(x.im.numerator, x.im.denominator))


def _from_sympy(x) -> QQi:
    re, im = sympy.re(x), sympy.im(x)
    return QQi(Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q)))


def _sympy_matrix(m: Matrix):
    return sympy.Matrix([[_to_sympy(x) for x in row] for row in m.entries])


def _random_matrix(rng):
    d = rng.randint(1, 8)
    zero_share = rng.choice([0.0, 0.3, 0.6, 0.9])
    rows = [[_gaussian(rng, zero_share) for _ in range(d)] for _ in range(d)]
    if d > 2 and rng.random() < 0.3:
        # a zero block under column k - 1, so the reduction skips it
        k = rng.randint(1, d - 2)
        for i in range(k, d):
            for j in range(k):
                rows[i][j] = QQi(0)
    return Matrix(rows)


def _random_system(rng, stats, entry=_gaussian):
    """A seeded matrix up to 8x8 with entries drawn by `entry`, with some
    rows planted as combinations of earlier ones and sometimes a zero
    column, and a right-hand side that is consistent about half the time."""
    nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
    zero_share = rng.choice([0.0, 0.3, 0.6])
    rows = [[entry(rng, zero_share) for _ in range(ncols)] for _ in range(nrows)]
    if nrows > 1 and rng.random() < 0.4:
        k = rng.randint(1, nrows - 1)
        for i in range(k, nrows):
            a, b = entry(rng), entry(rng)
            rows[i] = [a * x + b * y for x, y in
                       zip(rows[rng.randrange(k)], rows[rng.randrange(k)])]
    if rng.random() < 0.3:
        stats["zero column"] += 1
        j = rng.randrange(ncols)
        for row in rows:
            row[j] = QQi(0)
    m = Matrix(rows)
    k = rng.randint(1, 2)
    if rng.random() < 0.5:
        rhs = m @ Matrix([[entry(rng) for _ in range(k)] for _ in range(ncols)])
    else:
        rhs = Matrix([[entry(rng) for _ in range(k)] for _ in range(nrows)])
    return m, rhs


def _match_sympy(rng, trials, entry):
    """Rank, kernel and solve of `trials` seeded systems against sympy;
    returns how often each hard case came up."""
    stats = {"zero column": 0, "rank-deficient": 0, "inconsistent": 0}
    for trial in range(trials):
        m, rhs = _random_system(rng, stats, entry)
        sm = _sympy_matrix(m)
        rank = linalg.rank(m)
        assert rank == sm.rank(), trial
        stats["rank-deficient"] += rank < min(m.shape)
        ker = linalg.kernel_basis(m)
        expected = [[_from_sympy(x) for x in v] for v in sm.nullspace()]
        assert [list(col) for col in zip(*ker.entries)] == expected, trial
        try:
            sol, params = sm.gauss_jordan_solve(_sympy_matrix(rhs))
        except ValueError:
            stats["inconsistent"] += 1
            with pytest.raises(InconsistentSystem):
                linalg.solve(m, rhs)
            continue
        sol = sol.subs({p: 0 for p in params})
        assert linalg.solve(m, rhs) == Matrix(
            [[_from_sympy(sol[i, j]) for j in range(rhs.cols)] for i in range(m.cols)]), trial
    return stats


def test_rank_kernel_and_solve_match_sympy():
    stats = _match_sympy(random.Random(77), 60, _gaussian)
    assert min(stats.values()) >= 10, stats


def test_real_rank_kernel_and_solve_match_sympy():
    # real rows are what every Koszul differential and zero table feeds the
    # elimination, so they get an oracle of their own
    stats = _match_sympy(random.Random(78), 30, _real)
    assert min(stats.values()) >= 5, stats


def test_charpoly_matches_sympy():
    rng = random.Random(2024)
    x = sympy.Symbol("x")
    for trial in range(200):
        m = _random_matrix(rng)
        expected = [_from_sympy(c) for c in
                    reversed(_sympy_matrix(m).charpoly(x).all_coeffs())]
        assert charpoly(m) == expected, trial


def _conjugated_jordan(rng, blocks):
    """S J S^-1 for a random invertible Gaussian-rational S, where J holds
    one Jordan block of each (eigenvalue, size)."""
    d = sum(size for _, size in blocks)
    j = sympy.zeros(d, d)
    pos = 0
    for lam, size in blocks:
        for i in range(size):
            j[pos + i, pos + i] = _to_sympy(lam)
            if i:
                j[pos + i - 1, pos + i] = 1
        pos += size
    while True:
        s = sympy.Matrix([[_to_sympy(_gaussian(rng, 0.3)) for _ in range(d)]
                          for _ in range(d)])
        if s.det() != 0:
            break
    m = sympy.expand(s * j * s.inv())
    return Matrix([[_from_sympy(m[r, c]) for c in range(d)] for r in range(d)])


def _expected(blocks):
    out = {}
    for lam, size in blocks:
        out[lam] = out.get(lam, 0) + size
    return sorted(out.items(), key=lambda kv: kv[0].sort_key())


def _jordan_blocks(rng):
    values = [QQi(_rational(rng, 4)) for _ in range(rng.randint(1, 3))]
    return [(rng.choice(values), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]


def _gaussian_blocks(rng):
    return [(QQi(_rational(rng, 4), _rational(rng, 3) or 1), rng.randint(1, 2))
            for _ in range(rng.randint(2, 4))]


def _close_blocks(rng):
    out = []
    for _ in range(rng.randint(1, 2)):
        lam = QQi(_rational(rng, 6))
        out += [(lam, rng.randint(1, 2)), (lam + QQi(Fraction(1, 1000)), rng.randint(1, 2))]
    return out


@pytest.mark.parametrize("family", [_jordan_blocks, _gaussian_blocks, _close_blocks])
@pytest.mark.parametrize("seed", range(8))
def test_exact_eigenvalues_of_known_spectra(family, seed):
    rng = random.Random(seed)
    blocks = family(rng)
    m = _conjugated_jordan(rng, blocks)
    assert exact_eigenvalues(m) == _expected(blocks)


def test_companion_of_irrational_polynomial_raises():
    companion = Matrix([[0, 2], [1, 0]])  # z^2 - 2
    with pytest.raises(IrrationalSpectrum):
        exact_eigenvalues(companion)


def _big_rational(rng, den):
    return sympy.Rational(rng.randint(-den, den), rng.randint(1, den))


def _squarefree_case(rng):
    """A seeded product of powers of linear factors x - r, r in Q(i), and of
    quadratics (x - r)^2 - 3 s^2, irreducible over Q(i) since 3 is prime in
    Z[i], times a Gaussian constant: degree 1 to 10, denominators up to
    10^12."""
    x = sympy.Symbol("x")
    den, target = rng.choice([10, 10 ** 6, 10 ** 12]), rng.randint(1, 10)
    expr, degree = _to_sympy(_gaussian(rng)) or 1, 0
    while degree < target:
        r = _big_rational(rng, den)
        r += sympy.I * _big_rational(rng, den) if rng.random() < 0.5 else 0
        size = 2 if target - degree >= 2 and rng.random() < 0.4 else 1
        k = rng.randint(1, min(3, (target - degree) // size))
        base = (x - r) ** 2 - 3 * (_big_rational(rng, den) or 1) ** 2 if size == 2 else x - r
        expr, degree = expr * base ** k, degree + size * k
    return sympy.Poly(sympy.expand(expr), x, domain=sympy.QQ_I)


def _first_squarefree_disagreement(seed, trials):
    """The first case, or None, whose split by spectrum._squarefree, on the
    primitive Gaussian-integer polynomial, differs from sympy's sqf_list
    over QQ_I, both read as sets of (monic factor, multiplicity): case 0 is
    (x^2 - 2)^2 (x - 1/3)^3, the rest are seeded."""
    rng = random.Random(seed)
    x = sympy.Symbol("x")
    cases = [sympy.Poly((x ** 2 - 2) ** 2 * (x - sympy.Rational(1, 3)) ** 3, x)]
    cases += [_squarefree_case(rng) for _ in range(trials)]
    for trial, p in enumerate(cases):
        coeffs = [_from_sympy(c) for c in reversed(p.all_coeffs())]
        ours = spectrum._squarefree(spectrum._primitive(linalg._clear_denominators(coeffs)[1]))
        got = {(tuple(poly._gauss_ratio(c, f[-1]) for c in f), k) for f, k in ours}
        expected = {(tuple(_from_sympy(c) for c in reversed(f.monic().all_coeffs())), k)
                    for f, k in p.sqf_list()[1]}
        if got != expected:
            return trial
    return None


def test_squarefree_split_matches_sympy():
    assert _first_squarefree_disagreement(3030, 40) is None


def _random_dense_system(rng, nvars):
    """nvars polynomials of degree <= 2 with Gaussian-rational coefficients;
    generic ones meet in finitely many points (Bezout)."""
    monos = [m for deg in range(3) for m in monomials_of_degree(nvars, deg)]
    return [Polynomial(nvars, {m: _gaussian(rng, 0.3) for m in monos}) for _ in range(nvars)]


_BIG_PRIMES = (10007, 65537, 999983, 1000003, 2147483647, 4294967311)


def _coprime_denominator_system(rng, nvars):
    """A dense degree-2 system whose coefficients have Gaussian parts over
    large prime denominators, so a polynomial's common denominator is a
    product of coprime primes and each division step on integer numerators
    leaves a content to divide out."""
    monos = [m for deg in range(3) for m in monomials_of_degree(nvars, deg)]
    return [Polynomial(nvars, {m: QQi(Fraction(rng.randint(-10 ** 9, 10 ** 9), rng.choice(_BIG_PRIMES)),
                                      Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.choice(_BIG_PRIMES)))
                               for m in monos}) for _ in range(nvars)]


def _groebner_disagreements(systems) -> list:
    """The indices of the systems whose `poly.groebner` basis differs from
    sympy's reduced grevlex basis over Q(i)."""
    return [trial for trial, system in enumerate(systems)
            if not _same_basis(poly.groebner(system), _sympy_groebner(system))]


def _sympy_groebner(system):
    gens = sympy.symbols(f"z1:{system[0].nvars + 1}")
    exprs = [sum(_to_sympy(c) * sympy.prod(g ** e for g, e in zip(gens, m))
                 for m, c in p.terms.items()) for p in system]
    return sympy.groebner(exprs, *gens, order="grevlex", domain=sympy.QQ_I)


def _same_basis(gb, expected) -> bool:
    return len(gb.polys) == len(expected.polys) and {
        frozenset(p.terms.items()) for p in gb} == {
        frozenset((m, _from_sympy(c.as_expr())) for m, c in q.as_dict().items())
        for q in expected.polys}


def _standard_monomial_count(leads, nvars):
    """Monomials divisible by no leading monomial, in the box that the pure
    powers among the leads bound."""
    bounds = [min(lm[i] for lm in leads if sum(lm) == lm[i] > 0) for i in range(nvars)]
    box = itertools.product(*(range(b) for b in bounds))
    return sum(not any(all(x >= y for x, y in zip(m, lm)) for lm in leads) for m in box)


def test_groebner_and_quotient_dimension_match_sympy():
    rng = random.Random(606)
    # regular systems have simple zeros, and z1^a - z2; z2^b one zero of
    # multiplicity a*b, so both quotient dimensions are known
    systems = [(system, len(zeros)) for system, zeros in
               (suites.random_regular_system(rng, nvars) for nvars in (2,) * 6 + (3,) * 4)]
    systems += [(parse_system(f"z1^{a} - z2; z2^{b}", 2), a * b)
                for a, b in ((1, 3), (2, 2), (3, 2), (2, 5), (4, 3), (5, 2))]
    systems += [(_random_dense_system(rng, nvars), None) for nvars in (2,) * 8 + (3,) * 2]
    systems += [(_coprime_denominator_system(rng, 2), None) for _ in range(4)]
    for trial, (system, known_dim) in enumerate(systems):
        nvars = system[0].nvars
        expected = _sympy_groebner(system)
        gb = groebner(system)
        assert _same_basis(gb, expected), trial
        assert expected.is_zero_dimensional and gb.is_zero_dimensional(), trial
        leads = [q.monoms(order="grevlex")[0] for q in expected.polys]
        dim = quotient_algebra(gb).dim
        assert dim == _standard_monomial_count(leads, nvars), trial
        assert known_dim is None or dim == known_dim, trial
