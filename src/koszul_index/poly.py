"""Multivariate polynomial arithmetic over the exact scalars, a text parser
for polynomial systems, Buchberger Groebner bases, and finite quotient
algebras with multiplication matrices.

A Polynomial holds what the parser holds: Gaussian-integer numerators, maps
monomial -> (re, im) of ints, over one positive denominator, in lowest terms.
Shifts, evaluation, division and Groebner bases read and write those
numerators: division multiplies by a divisor's lead, divides out the content
(the gcd of every part) and keeps the scale it owes as one num / den pair,
which the result is then built over; a basis is made monic then. QQi values
are formed only for matrix entries and for the `terms` view.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import ArityMismatch, NotZeroDimensional, ParseError, UnknownVariable
from .koszul import CommutingTuple
from .linalg import Matrix, _clear_denominators
from .scalars import ZERO, QQi, as_scalar

Monomial = tuple  # exponent vectors, fixed length = number of variables


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(operator.add, a, b))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))


def mono_div(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x - y for x, y in zip(a, b))


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def mono_degree(a: Monomial) -> int:
    return sum(a)


def monomials_of_degree(nvars: int, degree: int):
    """All exponent tuples of the given total degree, lexicographically."""
    if nvars == 1:
        yield (degree,)
        return
    for first in range(degree, -1, -1):
        for rest in monomials_of_degree(nvars - 1, degree - first):
            yield (first,) + rest


def grevlex_key(mono: Monomial):
    """Sort key of grevlex, the one term order of every Groebner basis here:
    total degree first; of two monomials of one degree, the larger has the
    smaller exponent in the last variable where they differ."""
    return (mono_degree(mono), tuple(-e for e in reversed(mono)))


class Polynomial:
    """A polynomial in nvars variables with exact coefficients, held as
    FLINT's fmpq_poly holds one: Gaussian-integer numerators `num`, maps
    monomial -> (re, im) of ints, over one positive int `den`, with gcd(den,
    every part) = 1. Each value has that one form, so two polynomials are
    equal exactly when their nvars, den and num are.
    """

    __slots__ = ("nvars", "den", "num")

    def __init__(self, nvars: int, terms=None):
        """From a map monomial -> coefficient, each an int, a Fraction, a QQi
        or a scalar literal (`scalars.as_scalar`)."""
        coeffs = {}
        for mono, coeff in (terms or {}).items():
            if len(mono) != nvars:
                raise ArityMismatch("monomial arity differs from variable count")
            coeffs[tuple(mono)] = as_scalar(coeff)
        den = math.lcm(*[q.denominator for c in coeffs.values() for q in (c.re, c.im)])
        self._set(nvars, {m: (int(c.re * den), int(c.im * den)) for m, c in coeffs.items()},
                  (den, 0))

    @classmethod
    def over(cls, nvars: int, num: dict, den) -> "Polynomial":
        """num / den for Gaussian-integer pairs, den nonzero, in the one form."""
        self = object.__new__(cls)
        self._set(nvars, num, den)
        return self

    def _set(self, nvars, num, den):
        d, im = den
        if im or d < 0:  # made real and positive by the conjugate
            num = {m: _gauss_mul(c, (d, -im)) for m, c in num.items()}
            d = d * d + im * im
        num = {m: c for m, c in num.items() if c != (0, 0)}
        h = math.gcd(d, *itertools.chain.from_iterable(num.values()))
        if h > 1:
            d //= h
            num = {m: (a // h, b // h) for m, (a, b) in num.items()}
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "den", d)
        object.__setattr__(self, "num", num)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial values are immutable")

    @property
    def terms(self) -> dict:
        """The coefficients as QQi, {monomial: num / den}: a view built on
        each read, so changing it changes no Polynomial."""
        return {m: QQi(Fraction(a, self.den), Fraction(b, self.den))
                for m, (a, b) in self.num.items()}

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.nvars, self.den, self.num) == (other.nvars, other.den, other.num)

    def __hash__(self):
        return hash((self.nvars, self.den, frozenset(self.num.items())))

    def is_zero(self) -> bool:
        return not self.num

    def order_of_vanishing(self) -> int:
        """Smallest total degree of a term; -1 for the zero polynomial."""
        return min(map(mono_degree, self.num), default=-1)

    # -- calculus and substitution -------------------------------------------

    def partial(self, index: int) -> "Polynomial":
        """Formal partial derivative with respect to z_index (1-based)."""
        i = index - 1
        num = {mono[:i] + (mono[i] - 1,) + mono[i + 1:]: (a * mono[i], b * mono[i])
               for mono, (a, b) in self.num.items() if mono[i]}
        return Polynomial.over(self.nvars, num, (self.den, 0))

    def evaluate(self, point) -> QQi:
        """p(point), one QQi: with the point a / M on Gaussian-integer
        numerators, den M^D p(a / M) is _gauss_eval's sum over num."""
        point = [as_scalar(p) for p in point]
        if len(point) != self.nvars:
            raise ArityMismatch("point dimension differs from variable count")
        m, ints = _clear_denominators(point)
        (re, im), degree = _gauss_eval(list(self.num.items()), ints, m)
        scale = self.den * m ** degree
        return QQi(Fraction(re, scale), Fraction(im, scale))

    def eval_matrices(self, mats) -> Matrix:
        """Substitute commuting square matrices for the variables."""
        mats = list(mats)
        if len(mats) != self.nvars:
            raise ArityMismatch("operator count differs from variable count")
        d = mats[0].rows if mats else 1
        powers = [{0: Matrix.identity(d)} for _ in mats]

        def power(i, e):
            cache = powers[i]
            while e not in cache:
                top = max(cache)
                cache[top + 1] = cache[top] @ mats[i]
            return cache[e]

        acc = Matrix.zeros(d, d)
        for mono, coeff in self.terms.items():
            term = Matrix.identity(d)
            for i, e in enumerate(mono):
                if e:
                    term = term @ power(i, e)
            acc = acc + term.scale(coeff)
        return acc

    def shift(self, point) -> "Polynomial":
        """The translate p(z + point), expanding each term by the binomial
        theorem; p itself at the origin. With the point a / M on
        Gaussian-integer numerators, a term of degree |e| expands over ints
        times M^(D - |e|), D the total degree, and the sum is over den * M^D."""
        point = [as_scalar(p) for p in point]
        if len(point) != self.nvars:
            raise ArityMismatch("point dimension differs from variable count")
        if not any(point):
            return self
        m, ints = _clear_denominators(point)
        degree = max(map(mono_degree, self.num), default=0)
        powers = [list(itertools.accumulate([a] * degree, _gauss_mul, initial=(1, 0)))
                  for a in ints]  # powers[i][k] = a_i^k
        terms = {}
        for mono, c in self.num.items():
            # (z_i + a_i / M)^e * M^e = sum over k of C(e, k) a_i^(e - k) M^k z_i^k
            expansions = [[(k, _gauss_mul(pw[e - k], (math.comb(e, k) * m ** k, 0)))
                           for k in range(e + 1) if a != (0, 0) or k == e]
                          for a, pw, e in zip(ints, powers, mono)]
            lift = m ** (degree - mono_degree(mono))
            for combo in itertools.product(*expansions):
                f = (c[0] * lift, c[1] * lift)
                for _, x in combo:
                    f = _gauss_mul(f, x)
                key = tuple(k for k, _ in combo)
                ta, tb = terms.get(key, (0, 0))
                terms[key] = (ta + f[0], tb + f[1])
        return Polynomial.over(self.nvars, terms, (self.den * m ** degree, 0))

    def leading(self):
        """(monomial, coefficient) of the grevlex-largest term."""
        mono = max(self.num, key=grevlex_key)
        a, b = self.num[mono]
        return mono, QQi(Fraction(a, self.den), Fraction(b, self.den))

    def __str__(self):
        if not self.num:
            return "0"
        parts = []
        for mono, coeff in sorted(self.terms.items(), key=lambda mc: grevlex_key(mc[0]),
                                  reverse=True):
            factors = []
            for i, e in enumerate(mono):
                if e == 1:
                    factors.append(f"z{i + 1}")
                elif e:
                    factors.append(f"z{i + 1}^{e}")
            body = "*".join(factors)
            cs = str(coeff)
            if "+" in cs[1:] or "-" in cs[1:]:
                cs = f"({cs})"
            if not body:
                parts.append(cs)
            elif coeff == QQi(1) or coeff == QQi(-1):
                parts.append(body if coeff == QQi(1) else f"-{body}")
            else:
                parts.append(f"{cs}*{body}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self):
        return f"Polynomial({self})"


# -- parsing ------------------------------------------------------------------


_TOKEN_RE = re.compile(r"\s*(z\d+|\d+|[i+\-*^()/;]|\S)")
# Each open parenthesis costs four Python frames of the recursive descent,
# so this bound keeps the parser far below the interpreter's recursion limit.
MAX_NESTING = 100
# A power's exponent, the term products of one multiplication (which bound
# the terms it expands to) and the bit size of the numerators and common
# denominator a product can reach, each checked before the product or power
# is formed: together they keep the worst single product near 0.15 s.
MAX_EXPONENT = 1000
MAX_TERMS = 4096
MAX_BITS = 4096
MAX_VARIABLES = 32  # each monomial's length, checked before one is formed


def _decimal(digits: str, bound: int) -> int:
    """int(digits) for decimal digits, or bound + 1 unread past bound.bit_length() // 3
    + 1 digits, where it is above bound: int() never meets its 4,300-digit limit."""
    digits = digits.lstrip("0")
    return int(digits or "0") if len(digits) <= bound.bit_length() // 3 + 1 else bound + 1


def _shown(tok):
    """A refused token as an error repeats it: cut to 20 characters and '…'."""
    return tok if tok is None or len(tok) <= 20 else tok[:20] + "…"


def _bits(value) -> int:
    den, terms = value
    return max(map(abs, itertools.chain((den,), *terms.values()))).bit_length()


class _Parser:
    """Recursive descent in which every value is one Gaussian-integer term
    map over one positive denominator, (den, {monomial: (re, im)}) of ints."""

    def __init__(self, text: str, nvars: int):
        if nvars > MAX_VARIABLES:
            raise ParseError(f"more than {MAX_VARIABLES} variables")
        self.text = text
        self.tokens = [(m[1], m.start(1)) for m in _TOKEN_RE.finditer(text)]
        self.tokens.append((None, len(text)))
        self.pos = 0
        self.nvars = nvars
        self.one = (0,) * nvars
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos][0]

    def where(self):
        """(line, column) of the current token, counted only for an error."""
        offset = self.tokens[self.pos][1]
        return self.text.count("\n", 0, offset) + 1, offset - self.text.rfind("\n", 0, offset)

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok[0]

    def fail(self, message):
        line, col = self.where()
        raise ParseError(message, line, col)

    def number(self, bound, message):
        """The current, decimal token's int, then passed; above bound, a ParseError."""
        value = _decimal(self.peek(), bound)
        if value > bound:
            self.fail(message)
        self.advance()
        return value

    def add(self, a, b, sign):
        """a + sign * b, both sides scaled to the lcm of the denominators."""
        (da, ta), (db, tb) = a, b
        den = math.lcm(da, db)
        sa, sb = den // da, sign * den // db
        terms = {m: (x * sa, y * sa) for m, (x, y) in ta.items()}
        for m, (x, y) in tb.items():
            u, v = terms.get(m, (0, 0))
            terms[m] = (u + x * sb, v + y * sb)
        return den, {m: c for m, c in terms.items() if c != (0, 0)}

    def multiply(self, a, b, at):
        """a * b, convolved on the numerators; a ParseError at token `at`
        when it would pass MAX_TERMS term products or MAX_BITS bits."""
        (da, ta), (db, tb) = a, b
        if (len(ta) * len(tb) > MAX_TERMS
                or _bits(a) + _bits(b) + min(len(ta), len(tb)).bit_length() + 1 > MAX_BITS):
            self.pos = at
            self.fail(f"a product past {MAX_TERMS} term products or {MAX_BITS} bits")
        terms = {}
        for m1, c1 in ta.items():
            for m2, c2 in tb.items():
                m, (x, y) = mono_mul(m1, m2), _gauss_mul(c1, c2)
                u, v = terms.get(m, (0, 0))
                terms[m] = (u + x, v + y)
        return da * db, {m: c for m, c in terms.items() if c != (0, 0)}

    def parse_system(self):
        values = [self.parse_expr()]
        while self.peek() == ";":
            self.advance()
            values.append(self.parse_expr())
        if self.peek() is not None:
            self.fail(f"unexpected token {_shown(self.peek())!r}")
        return values

    def parse_expr(self):
        sign = 1
        if self.peek() in ("+", "-"):
            sign = -1 if self.advance() == "-" else 1
        acc = self.add((1, {}), self.parse_term(), sign)
        while self.peek() in ("+", "-"):
            sign = -1 if self.advance() == "-" else 1
            acc = self.add(acc, self.parse_term(), sign)
        return acc

    def parse_term(self):
        acc = self.parse_factor()
        while self.peek() == "*":
            at = self.pos
            self.advance()
            acc = self.multiply(acc, self.parse_factor(), at)
        return acc

    def parse_factor(self):
        base = self.parse_atom()
        if self.peek() != "^":
            return base
        self.advance()
        tok, at = self.peek(), self.pos
        if tok is None or not tok.isdecimal():
            self.fail("exponent must be a non-negative integer")
        k = self.number(MAX_EXPONENT, f"exponent above {MAX_EXPONENT}")
        result = 1, {self.one: (1, 0)}
        while k:
            if k & 1:
                result = self.multiply(result, base, at)
            k >>= 1
            if k:
                base = self.multiply(base, base, at)
        return result

    def parse_atom(self):
        tok = self.peek()
        if tok is None:
            self.fail("unexpected end of input")
        if tok == "(":
            if self.depth == MAX_NESTING:
                self.fail(f"parentheses nested deeper than {MAX_NESTING}")
            self.advance()
            self.depth += 1
            inner = self.parse_expr()
            self.depth -= 1
            if self.peek() != ")":
                self.fail(f"expected ')', found {_shown(self.peek())!r}")
            self.advance()
            return inner
        if tok == "i":
            self.advance()
            return 1, {self.one: (0, 1)}
        if tok.isdecimal():
            literal = (1 << MAX_BITS) - 1, f"a literal past {MAX_BITS} bits"
            num, den = self.number(*literal), 1
            if self.peek() == "/":
                self.advance()
                den = self.peek()
                if den is None or not den.isdecimal() or not den.strip("0"):
                    self.fail("expected a nonzero integer denominator")
                den = self.number(*literal)
            if self.peek() == "i":
                self.advance()
                return den, {self.one: (0, num)} if num else {}
            return den, {self.one: (num, 0)} if num else {}
        if tok.startswith("z") and tok[1:].isdecimal():
            index = _decimal(tok[1:], self.nvars)
            if not 1 <= index <= self.nvars:
                line, col = self.where()
                raise UnknownVariable(
                    f"variable {_shown(tok)} outside z1..z{self.nvars}", line, col)
            self.advance()
            return 1, {(0,) * (index - 1) + (1,) + (0,) * (self.nvars - index): (1, 0)}
        self.fail(f"unexpected token {_shown(tok)!r}")


def parse_system(text: str, nvars: int):
    """Parse `;`-separated polynomials over z1..zn with exact literals; each
    value the parser holds becomes a Polynomial as it is, with no QQi."""
    return [Polynomial.over(nvars, terms, (den, 0))
            for den, terms in _Parser(text, nvars).parse_system()]


# -- division and Groebner bases ----------------------------------------------


def _gauss_mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _gauss_eval(terms, point, m):
    """(v, D) for Gaussian-integer pairs: v is the sum of c a^e m^(D - |e|)
    over the (e, c) of `terms`, so v / m^D is their polynomial at a / m for
    the point's pairs a, D the largest total degree; each power of an a_i or
    of m is formed once."""
    degree = max((mono_degree(e) for e, _ in terms), default=0)
    powers = [list(itertools.accumulate([a] * degree, _gauss_mul, initial=(1, 0))) for a in point]
    lifts = list(itertools.accumulate([m] * degree, operator.mul, initial=1))
    re = im = 0
    for mono, c in terms:
        c = _gauss_mul(c, (lifts[degree - mono_degree(mono)], 0))
        for pw, e in zip(powers, mono):
            if e:
                c = _gauss_mul(c, pw[e])
        re, im = re + c[0], im + c[1]
    return (re, im), degree


def _gauss_ratio(x, y) -> QQi:
    """x / y in Q(i) for Gaussian-integer pairs, one QQi."""
    n = y[0] * y[0] + y[1] * y[1]
    return QQi(*(Fraction(a, n) for a in _gauss_mul(x, (y[0], -y[1]))))


def _divisors(polys) -> list:
    return [_divisor(g.num) for g in polys if not g.is_zero()]


def _divisor(terms: dict):
    """(lead monomial, lead pair, terms) with the content divided out."""
    h = math.gcd(*[a for pair in terms.values() for a in pair])
    terms = {m: (a // h, b // h) for m, (a, b) in terms.items()}
    lm = max(terms, key=grevlex_key)
    return lm, terms[lm], terms


def _reduce(terms: dict, divisors):
    """(remainder, num, den) of pseudo-division, largest term first: no term
    of the remainder is divisible by a leading monomial, and terms * num /
    den - remainder lies in the ideal, num and den Gaussian-integer pairs."""
    work, num, den = dict(terms), (1, 0), (1, 0)
    heap = [(-mono_degree(m), m[::-1]) for m in work]  # the least is grevlex-largest
    heapq.heapify(heap)
    while heap:
        mono = heapq.heappop(heap)[1][::-1]
        divisor = mono in work and next((d for d in divisors if mono_divides(d[0], mono)), None)
        if not divisor:
            continue
        lm, lc, g = divisor
        x = work.pop(mono)
        if lc != (1, 0):  # x * g then cancels the lead exactly
            work = {m: _gauss_mul(c, lc) for m, c in work.items()}
            den = _gauss_mul(den, lc)
        shift = mono_div(mono, lm)
        for gm, c in g.items():
            tm = mono_mul(gm, shift)
            if tm == mono:
                continue
            if tm not in work:
                heapq.heappush(heap, (-mono_degree(tm), tm[::-1]))
            (ea, eb), (da, db) = work.get(tm, (0, 0)), _gauss_mul(x, c)
            if ea != da or eb != db:
                work[tm] = (ea - da, eb - db)
            else:
                del work[tm]
        h = math.gcd(*[a for pair in work.values() for a in pair])
        if h > 1:
            work = {m: (a // h, b // h) for m, (a, b) in work.items()}
            num = (num[0] * h, num[1] * h)
    return work, num, den


def _scaled(terms: dict, num, den) -> dict:
    """The exact entries terms * num / den, one QQi each."""
    return {m: _gauss_ratio(_gauss_mul(c, num), den) for m, c in terms.items()}


def normal_form(p: Polynomial, basis) -> Polynomial:
    """Remainder of p under multivariate division by the basis.

    No remainder term is divisible by any leading term, and p - remainder
    lies in the ideal generated by the divisors.
    """
    remainder, num, den = _reduce(p.num, _divisors(basis))
    remainder = {m: _gauss_mul(c, num) for m, c in remainder.items()}
    return Polynomial.over(p.nvars, remainder, _gauss_mul(den, (p.den, 0)))


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced grevlex Groebner basis."""

    polys: tuple

    @property
    def nvars(self) -> int:
        return self.polys[0].nvars if self.polys else 0

    def leading_monomials(self):
        return [g.leading()[0] for g in self.polys]

    def pure_power_bounds(self):
        """For each variable z_i, the least e > 0 with z_i^e a leading
        monomial, or None when there is none."""
        leads = self.leading_monomials()
        return [min((lm[i] for lm in leads if lm[i] > 0 and
                     all(e == 0 for k, e in enumerate(lm) if k != i)), default=None)
                for i in range(self.nvars)]

    def is_zero_dimensional(self) -> bool:
        """True when every variable has a pure-power leading monomial, so
        the ideal has finitely many zeros, each of them isolated."""
        return bool(self.polys) and None not in self.pure_power_bounds()

    def __iter__(self):
        return iter(self.polys)


def _s_pair(f, g) -> dict:
    """lc(g) * (lcm / lm(f)) * f - lc(f) * (lcm / lm(g)) * g, whose leads cancel."""
    (fm, fc, ft), (gm, gc, gt) = f, g
    lcm = mono_lcm(fm, gm)
    sf, sg = mono_div(lcm, fm), mono_div(lcm, gm)
    s = {mono_mul(m, sf): _gauss_mul(c, gc) for m, c in ft.items() if m != fm}
    for m, c in ((mono_mul(m, sg), c) for m, c in gt.items() if m != gm):
        (ea, eb), (da, db) = s.get(m, (0, 0)), _gauss_mul(c, fc)
        if ea != da or eb != db:
            s[m] = (ea - da, eb - db)
        else:
            s.pop(m, None)
    return s


def groebner(gens) -> GroebnerBasis:
    """Reduced grevlex Groebner basis by Buchberger's algorithm with the
    normal selection strategy and both elimination criteria, on integer
    numerators; each member is made monic only at the end."""
    basis = _divisors(gens)
    pending = {(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))}
    while pending:
        i, j = min(pending, key=lambda ij: (grevlex_key(mono_lcm(basis[ij[0]][0],
                                                                 basis[ij[1]][0])), ij))
        pending.remove((i, j))
        li, lj = basis[i][0], basis[j][0]
        lcm = mono_lcm(li, lj)
        if mono_mul(li, lj) == lcm:  # coprime leading terms
            continue
        if any(k not in (i, j) and mono_divides(basis[k][0], lcm)
               and (min(i, k), max(i, k)) not in pending
               and (min(j, k), max(j, k)) not in pending for k in range(len(basis))):
            continue  # chain criterion
        remainder = _reduce(_s_pair(basis[i], basis[j]), basis)[0]
        if remainder:
            basis.append(_divisor(remainder))
            pending.update((k, len(basis) - 1) for k in range(len(basis) - 1))

    # minimalize: drop members whose leading term another member divides
    for i, g in enumerate(basis):
        if any(mono_divides(basis[k][0], g[0])
               for k in range(len(basis)) if k != i and basis[k] is not None):
            basis[i] = None
    minimal = [g for g in basis if g is not None]
    # tail-reduce: the leading monomials stay, so one pass leaves it reduced
    for i, (_, _, terms) in enumerate(minimal):
        minimal[i] = _divisor(_reduce(terms, minimal[:i] + minimal[i + 1:])[0])
    minimal.sort(key=lambda g: grevlex_key(g[0]))
    return GroebnerBasis(tuple(Polynomial.over(len(lm), terms, lc)
                               for lm, lc, terms in minimal))


# -- quotient algebras ---------------------------------------------------------


@dataclass(frozen=True)
class QuotientAlgebra:
    """The finite algebra C[z]/I with its standard monomial basis and the
    commuting tuple of the coordinates' exact multiplication matrices."""

    gb: GroebnerBasis
    basis: tuple                # standard monomials, grevlex-ascending
    mult_tuple: CommutingTuple  # one exact Matrix per variable

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def mult_matrices(self) -> tuple:
        return self.mult_tuple.operators

    @property
    def unit(self) -> Matrix:
        """The column of coordinates of 1, the least standard monomial."""
        return Matrix([[int(i == 0)] for i in range(self.dim)], shape=(self.dim, 1))


def quotient_algebra(gb: GroebnerBasis) -> QuotientAlgebra:
    """Standard monomials and multiplication tuple of a zero-dimensional
    ideal; raises NotZeroDimensional when some variable has no pure-power
    leading term. The tuple checks that its matrices commute, as
    CommutingTuple does, and raises CommutatorError when they do not."""
    if not gb.polys:
        raise NotZeroDimensional("the zero ideal is not zero-dimensional")
    nvars = gb.nvars
    leads = gb.leading_monomials()
    if any(mono_degree(lm) == 0 for lm in leads):  # unit ideal
        mats = [Matrix.zeros(0, 0)] * nvars
        return QuotientAlgebra(gb, (), CommutingTuple(mats))
    bounds = gb.pure_power_bounds()
    if None in bounds:
        raise NotZeroDimensional(
            f"no pure power of z{bounds.index(None) + 1} among the leading terms")
    standard = sorted((mono for mono in itertools.product(*(range(b) for b in bounds))
                       if not any(mono_divides(lm, mono) for lm in leads)), key=grevlex_key)
    pos = {m: i for i, m in enumerate(standard)}
    dim = len(standard)
    divisors = _divisors(gb.polys)  # converted once
    mats = []
    for var in range(nvars):
        rows = [[ZERO] * dim for _ in range(dim)]
        for j, mono in enumerate(standard):
            shifted = mono[:var] + (mono[var] + 1,) + mono[var + 1:]
            for m, c in _scaled(*_reduce({shifted: (1, 0)}, divisors)).items():
                rows[pos[m]][j] = c
        mats.append(Matrix(rows, shape=(dim, dim)))
    return QuotientAlgebra(gb, tuple(standard), CommutingTuple(mats))
