import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from koszul_index import cli, scalars, spectrum, suites
from koszul_index.errors import BackendMismatch, ParseError
from koszul_index.koszul import CommutingTuple
from koszul_index.linalg import Matrix
from koszul_index.models import DomainDescriptor, ModelTuple, local_index
from koszul_index.multiplicity import jacobian_regular, local_multiplicity
from koszul_index.poly import Polynomial, parse_system
from koszul_index.spectrum import localized_homology
from koszul_index.scalars import QQi, as_scalar, scalar_str

rationals = st.fractions(max_denominator=50)
gaussians = st.builds(QQi, rationals, rationals)


def test_parse_examples():
    assert QQi.parse("3/4-1/2i") == QQi(Fraction(3, 4), Fraction(-1, 2))
    assert QQi.parse("-7") == QQi(-7)
    assert QQi.parse("i") == QQi(0, 1)
    assert QQi.parse("-i") == QQi(0, -1)
    assert QQi.parse("2i") == QQi(0, 2)
    assert QQi.parse("1+i") == QQi(1, 1)
    assert QQi.parse("0") == QQi(0)


@pytest.mark.parametrize("text, value", [
    ("+3", QQi(3)),
    (" 3 ", QQi(3)),
    ("\t-5\n", QQi(-5)),
    ("-0", QQi(0)),
    ("007", QQi(7)),
    ("\u0663", QQi(3)),  # ARABIC-INDIC DIGIT THREE is a decimal digit
    ("12345678901234567890123", QQi(12345678901234567890123)),
    ("-12345678901234567890123", QQi(-12345678901234567890123)),
    ("12/4", QQi(3)),
    ("+i", QQi(0, 1)),
    ("3-0i", QQi(3)),
])
def test_parse_integer_literals(text, value):
    parsed = QQi.parse(text)
    assert parsed == value
    assert type(parsed.re) is Fraction and type(parsed.im) is Fraction


@pytest.mark.parametrize("bad", ["", "abc", "1+", "i2", "1//2", "2.5", "1 + 2",
                                 "1_0", "\u00b2", "+", "-", "+-3", "3 4"])
def test_parse_rejects(bad):
    for _ in range(2):  # a failed parse is not cached: it raises every time
        with pytest.raises(ParseError):
            QQi.parse(bad)  # "\u00b2" (superscript two) passes str.isdigit


def test_parse_zero_denominator():
    for _ in range(2):
        with pytest.raises(ZeroDivisionError):
            QQi.parse("3/0")


@given(gaussians)
def test_format_round_trip(x):
    assert QQi.parse(str(x)) == x


@given(gaussians, gaussians)
def test_exact_addition_cancels(a, b):
    assert (a + b) - b == a


@given(gaussians, gaussians, gaussians)
def test_ring_laws(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a


@given(gaussians)
def test_division_inverts(a):
    if not a:
        return
    assert (a / a) == QQi(1)
    assert a * (QQi(1) / a) == QQi(1)


@given(gaussians)
def test_abs2_is_norm(a):
    assert a.abs2() == (a * a.conjugate()).re
    assert (a * a.conjugate()).im == 0


def test_lowest_terms_invariant():
    x = QQi(Fraction(2, 4), Fraction(-6, 9))
    assert x.re.denominator == 2 and x.re.numerator == 1
    assert x.im.denominator == 3 and x.im.numerator == -2
    assert x.re.denominator > 0 and x.im.denominator > 0


def test_as_scalar_backends():
    assert as_scalar("1/2i") == QQi(0, Fraction(1, 2))
    assert as_scalar(2) == QQi(2)
    assert as_scalar(Fraction(1, 3)) == QQi(Fraction(1, 3))
    # the one place a float is refused: every Matrix entry, polynomial
    # coefficient, point and domain center passes through here
    for value in (0.5, 1 + 1j, float("nan")):
        with pytest.raises(BackendMismatch):
            as_scalar(value)


def test_every_exact_entry_point_refuses_a_float():
    # a float read exactly is its binary fraction (0.1 is 3602879701896397/2^55,
    # no zero of z1 - 1/10), so each entry point refuses it as Matrix does
    system = parse_system("(z1 - 1/10)*(z1 - 1)", 1)
    model = ModelTuple(DomainDescriptor.polydisc((0,), (2,)), tuple(system))
    diagonal = CommutingTuple([Matrix([[Fraction(1, 10), 0], [0, 1]])])
    entry_points = {
        "Polynomial": lambda x: Polynomial(1, {(1,): x}),
        "evaluate": lambda x: system[0].evaluate([x]),
        "shift": lambda x: system[0].shift([x]),
        "DomainDescriptor": lambda x: DomainDescriptor.polydisc((x,), (1,)),
        "radius": lambda x: DomainDescriptor.polydisc((0,), (x,)),
        "local_index": lambda x: local_index(model, [x]),
        "local_multiplicity": lambda x: local_multiplicity(system, [x]),
        "jacobian_regular": lambda x: jacobian_regular(system, [x]),
        "localized_homology": lambda x: localized_homology(diagonal, system, [x]),
    }
    tenth = QQi(Fraction(1, 10))
    for name, call in entry_points.items():
        for bad in (0.1, 0.1j):
            with pytest.raises(BackendMismatch):
                call(bad)
        for value, same in ((1, QQi(1)), (Fraction(1, 10), tenth), ("1/10", tenth)):
            assert call(value) == call(same), name


def test_scalar_str_exact_and_float():
    assert scalar_str(QQi(Fraction(3, 4), Fraction(-1, 2))) == "3/4-1/2i"
    assert scalar_str(1.5 + 0j) == "1.5"


def test_policy_is_explicit_value(monkeypatch):
    # the float kernel cut is one fixed constant of the float split, 1e-9
    # relative, and no caller passes another
    assert spectrum._KERNEL_CUT == 1e-9
    assert not hasattr(scalars, "DEFAULT_TOL")
    nearly = Matrix([[1, 0], [0, QQi(Fraction(1, 10 ** 12))]]).to_numpy()
    assert spectrum._float_split(nearly)[2] == 1
    monkeypatch.setattr(spectrum, "_KERNEL_CUT", 1e-15)
    assert spectrum._float_split(nearly)[2] == 2


def _exact_parts(x):
    return type(x) is QQi and type(x.re) is Fraction and type(x.im) is Fraction


def test_constructor_converts_every_part_that_is_not_an_exact_fraction():
    class Half(Fraction):
        pass

    for value in (QQi(2, -3), QQi(True, False), QQi(Half(1, 2), Half(-4, 6)),
                  QQi(Fraction(6, 4))):
        assert _exact_parts(value)
    assert QQi(Half(1, 2), Half(-4, 6)) == QQi(Fraction(1, 2), Fraction(-2, 3))


def test_arithmetic_results_have_exact_fraction_parts():
    rng = random.Random(1801)
    parts = [Fraction(0), Fraction(1), Fraction(-1), Fraction(3, 7), Fraction(-5, 2)]
    values = [QQi(rng.choice(parts) + Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
                  rng.choice(parts)) for _ in range(12)]
    values += [QQi(0), QQi(0, Fraction(-2, 3)), QQi(Fraction(7, 5))]
    for a in values:
        results = [-a, a.conjugate(), a ** 0, a ** 1, a ** 3]
        for b in values:
            results += [a + b, a - b, a * b, a + 2, 2 - a, a * Fraction(1, 3)]
            if b:
                results += [a / b, 1 / b]
        for x in results:
            assert _exact_parts(x)
            rebuilt = QQi(Fraction(x.re), Fraction(x.im))
            assert x == rebuilt and hash(x) == hash(rebuilt)


def test_repeated_literal_is_one_shared_value():
    first = QQi.parse("3/4-1/2i")
    assert QQi.parse("3/4-1/2i") is first
    assert first == QQi(Fraction(3, 4), Fraction(-1, 2))
    assert type(first.re) is Fraction and type(first.im) is Fraction
    # a parsed matrix keeps the shared value as its entries
    m = cli._parse_matrix([["7/3", "7/3"], ["0", "7/3"]])
    assert m.entries[0][0] is m.entries[0][1] is m.entries[1][1] is QQi.parse("7/3")


def test_literal_cache_is_bounded():
    maxsize = scalars._parse_literal.cache_info().maxsize
    assert maxsize is not None and maxsize == scalars._LITERAL_CACHE_SIZE


def test_validating_a_document_again_parses_no_literal():
    rng = random.Random(11)
    doc = {"schema": 1, "scenarios": [
        {"id": f"h{k}", "kind": "HOMOLOGY",
         "payload": {"operators": [suites._matrix_json(op) for op in
                                   suites.random_commuting_family(rng, 2, 4)]}}
        for k in range(12)]}
    defaults = cli.Scenario("defaults", "IDENTITIES", {}, "exact", None, 7)
    cli.scenarios_from_document(doc, defaults)
    before = scalars._parse_literal.cache_info()
    cli.scenarios_from_document(doc, defaults)
    after = scalars._parse_literal.cache_info()
    assert after.misses == before.misses
    assert after.hits - before.hits == 12 * 2 * 16
