import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from koszul_index.errors import NotZeroDimensional, ParseError, UnknownVariable
from koszul_index.poly import (MAX_NESTING, Polynomial, grevlex_key, groebner,
                               normal_form, parse_system, quotient_algebra)
from koszul_index.scalars import QQi


def poly(text, n):
    (p,) = parse_system(text, n)
    return p


def test_parse_system_examples():
    system = parse_system("z1^2 - z2 ; z2^2", 2)
    assert [str(p) for p in system] == ["z1^2 - z2", "z2^2"]
    assert poly("0", 2).is_zero()
    assert poly("(z1-1/2)*(z1+1/2)", 1) == poly("z1^2 - 1/4", 1)


def test_parse_complex_literals():
    p = poly("(1+2i)*z1 - 3/4i", 1)
    assert p.terms[(1,)] == QQi(1, 2)
    assert p.terms[(0,)] == QQi(0, "-3/4")


def test_parse_errors_carry_position():
    with pytest.raises(UnknownVariable) as err:
        parse_system("z1 + z3", 2)
    assert err.value.column == 6
    with pytest.raises(ParseError):
        parse_system("z1 ** 2", 1)
    with pytest.raises(ParseError):
        parse_system("(z1", 1)
    with pytest.raises(ParseError):
        parse_system("z1 ^ z1", 1)
    deep = "(" * (MAX_NESTING + 1) + "z1" + ")" * (MAX_NESTING + 1)
    with pytest.raises(ParseError) as err:
        parse_system(deep, 1)
    assert err.value.column == MAX_NESTING + 1
    assert parse_system(deep[1:-1], 1) == parse_system("z1", 1)


def test_unary_minus_and_powers():
    assert poly("-z1 + 1", 1) == Polynomial.constant(1, 1) - Polynomial.variable(1, 1)
    assert poly("z1^0", 1) == Polynomial.constant(1, 1)


coeffs = st.integers(min_value=-4, max_value=4)


def small_polys(nvars=2, max_terms=4, max_exp=3):
    monos = st.tuples(*(st.integers(0, max_exp) for _ in range(nvars)))
    return st.dictionaries(monos, coeffs, max_size=max_terms).map(
        lambda d: Polynomial(nvars, {m: QQi(c) for m, c in d.items()}))


@settings(max_examples=60, deadline=None)
@given(small_polys(), small_polys(), small_polys())
def test_ring_laws(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a + (b + c) == (a + b) + c


@settings(max_examples=40, deadline=None)
@given(small_polys(3, max_exp=4), small_polys(3, max_exp=4), small_polys(3, max_exp=4))
def test_order_properties(a, b, c):
    monos = [m for p in (a, b, c) for m in p.terms]
    if len(monos) < 2:
        return
    x, y = monos[0], monos[1]
    shift = monos[-1]
    kx, ky = grevlex_key(x), grevlex_key(y)
    # total and multiplicative; 1 is minimal
    assert (kx < ky) or (ky < kx) or (x == y)
    if kx < ky:
        sx = tuple(u + v for u, v in zip(x, shift))
        sy = tuple(u + v for u, v in zip(y, shift))
        assert grevlex_key(sx) < grevlex_key(sy)
    assert grevlex_key((0,) * len(x)) <= kx
    # graded, and reverse lexicographic within a degree
    if sum(x) != sum(y):
        assert (kx < ky) == (sum(x) < sum(y))
    elif x != y:
        last = max(i for i in range(len(x)) if x[i] != y[i])
        assert (kx < ky) == (x[last] > y[last])


def test_groebner_already_reduced():
    basis = groebner(parse_system("z1; z2", 2))
    assert [str(p) for p in basis] == ["z2", "z1"]


def test_groebner_derived_example():
    basis = groebner(parse_system("z1^2 - z2 ; z2^2", 2))
    leads = {p.leading()[0] for p in basis}
    assert leads == {(2, 0), (0, 2)}
    assert normal_form(poly("z1^4", 2), basis).is_zero()
    assert normal_form(poly("z1^3", 2), basis) == poly("z1*z2", 2)


def test_groebner_unit_ideal():
    basis = groebner(parse_system("z1 - 1; z1", 1))
    assert [str(p) for p in basis] == ["1"]


def test_groebner_unique_under_permutation():
    gens = parse_system("z1^2 - z2; z2^2; z1*z2 - z2", 2)
    one = groebner(gens)
    two = groebner(list(reversed(gens)))
    assert one.polys == two.polys


def test_normal_form_properties():
    gens = parse_system("z1^2 - z2 ; z2^2", 2)
    basis = groebner(gens)
    for g in gens:
        assert normal_form(g, basis).is_zero()
    assert normal_form(poly("1", 2), groebner(parse_system("z1; z2", 2))) == \
        Polynomial.constant(2, 1)
    p = poly("z1^5 + z1*z2 - 1/3", 2)
    once = normal_form(p, basis)
    assert normal_form(once, basis) == once
    assert normal_form(p - once, basis).is_zero()


def test_quotient_algebra_examples():
    qa = quotient_algebra(groebner(parse_system("z1; z2", 2)))
    assert qa.dim == 1 and qa.basis == ((0, 0),)
    assert all(m.is_zero() for m in qa.mult_matrices)

    qa2 = quotient_algebra(groebner(parse_system("z1^2 - z2; z2^2", 2)))
    assert qa2.dim == 4
    assert set(qa2.basis) == {(0, 0), (1, 0), (0, 1), (1, 1)}

    qa3 = quotient_algebra(groebner(parse_system("z1^2", 1)))
    assert qa3.dim == 2
    m = qa3.mult_matrices[0]
    assert (m @ m).is_zero() and not m.is_zero()


def test_quotient_requires_zero_dimensional():
    with pytest.raises(NotZeroDimensional):
        quotient_algebra(groebner(parse_system("z1*z2", 2)))
    with pytest.raises(NotZeroDimensional):
        quotient_algebra(groebner([Polynomial.zero(1)]))


def test_quotient_dim_independent_of_order():
    """The quotient dimension does not depend on the term order: our grevlex
    count equals the standard-monomial count of sympy's lex basis."""
    sympy = pytest.importorskip("sympy")
    from test_oracles import _standard_monomial_count

    z = sympy.symbols("z1:4")
    for text, n in [("z1^2 - z2; z2^2", 2), ("z1^2; z2^3", 2),
                    ("z1*(z1-1); z2", 2), ("z1^3 - 1/8", 1),
                    ("z1^2 + z2^2 - 1; z1 - z2^3; z3^2 - z1*z2", 3)]:
        gens = parse_system(text, n)
        exprs = [sympy.sympify(part.replace("^", "**")) for part in text.split(";")]
        lex = sympy.groebner(exprs, *z[:n], order="lex")
        leads = [q.monoms(order="lex")[0] for q in lex.polys]
        assert quotient_algebra(groebner(gens)).dim == \
            _standard_monomial_count(leads, n)


def test_multiplication_matrices_satisfy_generators():
    gens = parse_system("z1^2 - z2; z2^2", 2)
    qa = quotient_algebra(groebner(gens))
    for g in gens:
        assert g.eval_matrices(qa.mult_matrices).is_zero()
    a, b = qa.mult_matrices
    assert a @ b == b @ a


def test_shift_and_partial():
    p = poly("z1^2 - z2", 2)
    shifted = p.shift([QQi(1), QQi(0)])
    assert shifted == poly("z1^2 + 2*z1 + 1 - z2", 2)
    assert p.partial(1) == poly("2*z1", 2)
    assert p.partial(2) == poly("-1", 2)


def _gaussian(rng):
    return QQi(Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
               Fraction(rng.randint(-3, 3), rng.randint(1, 2)) if rng.random() < 0.5 else 0)


def test_shift_properties_on_seeded_polynomials():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(1, 3)
        p = Polynomial(n, {tuple(rng.randint(0, 3) for _ in range(n)): _gaussian(rng)
                           for _ in range(rng.randint(0, 5))})
        a = [_gaussian(rng) for _ in range(n)]
        z = [_gaussian(rng) for _ in range(n)]
        shifted = p.shift(a)
        assert shifted.shift([-x for x in a]) == p
        assert shifted.evaluate(z) == p.evaluate([x + y for x, y in zip(z, a)])
        assert p.shift([QQi(0)] * n) is p


def test_str_round_trips_through_parser():
    for text, n in [("z1^2 - z2", 2), ("(1+1i)*z1*z2 - 3/4", 2),
                    ("-z1^3 + 1/2*z2^2 - i", 2)]:
        p = poly(text, n)
        assert poly(str(p), n) == p
