"""Multivariate polynomial arithmetic over the exact scalars, a text parser
for polynomial systems, Buchberger Groebner bases, and finite quotient
algebras with multiplication matrices.

A Polynomial maps monomials to exact QQi coefficients. Parsing, shifts,
division and Groebner bases run on Gaussian-integer numerators, maps monomial
-> (re, im) of ints: the parser holds each value over one denominator, and
division multiplies by a divisor's lead, divides out the content (the gcd of
every part) and keeps the scale it owes as one num / den pair, so each QQi of
a result is built once, at the end; a basis is made monic then.
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
from .linalg import Matrix, _clear_denominators, commutes
from .scalars import ZERO, QQi

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
    """A polynomial in nvars variables with exact coefficients.

    Terms map exponent tuples to nonzero QQi coefficients; two polynomials
    are equal exactly when their term maps are equal.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        clean = {}
        for mono, coeff in (terms or {}).items():
            coeff = coeff if isinstance(coeff, QQi) else QQi(coeff)
            if len(mono) != nvars:
                raise ArityMismatch("monomial arity differs from variable count")
            if coeff:
                clean[tuple(mono)] = coeff
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial values are immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "Polynomial":
        return Polynomial(nvars, {})

    @staticmethod
    def constant(nvars: int, c) -> "Polynomial":
        return Polynomial(nvars, {(0,) * nvars: QQi(c) if not isinstance(c, QQi) else c})

    @staticmethod
    def variable(nvars: int, index: int) -> "Polynomial":
        """The coordinate z_index, 1-based as in the text grammar."""
        if not 1 <= index <= nvars:
            raise ArityMismatch(f"variable z{index} outside z1..z{nvars}")
        mono = tuple(1 if i == index - 1 else 0 for i in range(nvars))
        return Polynomial(nvars, {mono: QQi(1)})

    # -- ring operations ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.nvars != self.nvars:
                raise ArityMismatch("variable counts differ")
            return other
        if isinstance(other, (int, Fraction, QQi)):
            return Polynomial.constant(self.nvars, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            terms[mono] = terms.get(mono, ZERO) + coeff
        return Polynomial(self.nvars, terms)  # which drops the zero sums

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, QQi):
            return Polynomial(self.nvars, {m: other * c for m, c in self.terms.items()})
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = mono_mul(m1, m2)
                terms[mono] = terms.get(mono, ZERO) + c1 * c2
        return Polynomial(self.nvars, terms)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("only non-negative integer powers")
        result = Polynomial.constant(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, QQi)):
            other = Polynomial.constant(self.nvars, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def order_of_vanishing(self) -> int:
        """Smallest total degree of a term; -1 for the zero polynomial."""
        return min((mono_degree(m) for m in self.terms), default=-1)

    # -- calculus and substitution -------------------------------------------

    def partial(self, index: int) -> "Polynomial":
        """Formal partial derivative with respect to z_index (1-based)."""
        i = index - 1
        terms = {}
        for mono, coeff in self.terms.items():
            if mono[i]:
                new = list(mono)
                new[i] -= 1
                terms[tuple(new)] = coeff * QQi(mono[i])
        return Polynomial(self.nvars, terms)

    def evaluate(self, point) -> QQi:
        point = [p if isinstance(p, QQi) else QQi(p) for p in point]
        if len(point) != self.nvars:
            raise ArityMismatch("point dimension differs from variable count")
        acc = QQi(0)
        for mono, coeff in self.terms.items():
            val = coeff
            for p, e in zip(point, mono):
                if e:
                    val = val * p ** e
            acc = acc + val
        return acc

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
        theorem; p itself at the origin. With coefficients c / L and point
        a / M on Gaussian-integer numerators, a term of degree |e| expands
        over ints times M^(D - |e|), D the total degree, and the sum is
        divided once by L * M^D."""
        point = [p if isinstance(p, QQi) else QQi(p) for p in point]
        if len(point) != self.nvars:
            raise ArityMismatch("point dimension differs from variable count")
        if not any(point):
            return self
        lcm, coeffs = _clear_denominators(list(self.terms.values()))
        m, ints = _clear_denominators(point)
        degree = max(map(mono_degree, self.terms), default=0)
        powers = [list(itertools.accumulate([a] * degree, _gauss_mul, initial=(1, 0)))
                  for a in ints]  # powers[i][k] = a_i^k
        terms = {}
        for mono, c in zip(self.terms, coeffs):
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
        return Polynomial(self.nvars, _scaled(terms, (1, 0), (lcm * m ** degree, 0)))

    def embed(self, nvars: int, var_map) -> "Polynomial":
        """Reindex variables: old variable i+1 becomes new variable
        var_map[i]+1 inside a ring with `nvars` variables."""
        terms = {}
        for mono, coeff in self.terms.items():
            new = [0] * nvars
            for i, e in enumerate(mono):
                new[var_map[i]] += e
            terms[tuple(new)] = coeff
        return Polynomial(nvars, terms)

    def leading(self):
        """(monomial, coefficient) of the grevlex-largest term."""
        mono = max(self.terms, key=grevlex_key)
        return mono, self.terms[mono]

    def __str__(self):
        if not self.terms:
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


def _bits(value) -> int:
    den, terms = value
    return max(map(abs, itertools.chain((den,), *terms.values()))).bit_length()


class _Parser:
    """Recursive descent in which every value is one Gaussian-integer term
    map over one positive denominator, (den, {monomial: (re, im)}) of ints."""

    def __init__(self, text: str, nvars: int):
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
            self.fail(f"unexpected token {self.peek()!r}")
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
        if tok is None or not tok.isdigit():
            self.fail("exponent must be a non-negative integer")
        if int(tok) > MAX_EXPONENT:
            self.fail(f"exponent above {MAX_EXPONENT}")
        self.advance()
        k, result = int(tok), (1, {self.one: (1, 0)})
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
                self.fail(f"expected ')', found {self.peek()!r}")
            self.advance()
            return inner
        if tok == "i":
            self.advance()
            return 1, {self.one: (0, 1)}
        if tok.isdigit():
            self.advance()
            num, den = int(tok), 1
            if self.peek() == "/":
                self.advance()
                den = self.peek()
                if den is None or not den.isdigit() or int(den) == 0:
                    self.fail("expected a nonzero integer denominator")
                self.advance()
                den = int(den)
            if self.peek() == "i":
                self.advance()
                return den, {self.one: (0, num)} if num else {}
            return den, {self.one: (num, 0)} if num else {}
        if tok.startswith("z"):
            index = int(tok[1:])
            if not 1 <= index <= self.nvars:
                line, col = self.where()
                raise UnknownVariable(
                    f"variable {tok} outside z1..z{self.nvars}", line, col)
            self.advance()
            return 1, {(0,) * (index - 1) + (1,) + (0,) * (self.nvars - index): (1, 0)}
        self.fail(f"unexpected token {tok!r}")


def parse_system(text: str, nvars: int):
    """Parse `;`-separated polynomials over z1..zn with exact literals; each
    coefficient becomes a QQi once, from its numerator over the denominator."""
    return [Polynomial(nvars, {m: QQi(Fraction(a, den), Fraction(b, den))
                               for m, (a, b) in terms.items()})
            for den, terms in _Parser(text, nvars).parse_system()]


# -- division and Groebner bases ----------------------------------------------


def _gauss_mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _gauss_ratio(x, y) -> QQi:
    """x / y in Q(i) for Gaussian-integer pairs, one QQi."""
    n = y[0] * y[0] + y[1] * y[1]
    return QQi(*(Fraction(a, n) for a in _gauss_mul(x, (y[0], -y[1]))))


def _divisors(polys) -> list:
    return [_divisor(dict(zip(g.terms, _clear_denominators(list(g.terms.values()))[1])))
            for g in polys if not g.is_zero()]


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
    """The exact coefficients terms * num / den, one QQi each."""
    return {m: _gauss_ratio(_gauss_mul(c, num), den) for m, c in terms.items()}


def normal_form(p: Polynomial, basis) -> Polynomial:
    """Remainder of p under multivariate division by the basis.

    No remainder term is divisible by any leading term, and p - remainder
    lies in the ideal generated by the divisors.
    """
    divisors = _divisors(basis)
    lcm, pairs = _clear_denominators(list(p.terms.values()))
    remainder, num, (da, db) = _reduce(dict(zip(p.terms, pairs)), divisors)
    return Polynomial(p.nvars, _scaled(remainder, num, (da * lcm, db * lcm)))


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
    return GroebnerBasis(tuple(Polynomial(len(lm), _scaled(terms, (1, 0), lc))
                               for lm, lc, terms in minimal))


# -- quotient algebras ---------------------------------------------------------


@dataclass(frozen=True)
class QuotientAlgebra:
    """The finite algebra C[z]/I with its standard monomial basis and the
    exact multiplication matrices of the coordinates."""

    gb: GroebnerBasis
    basis: tuple          # standard monomials, grevlex-ascending
    mult_matrices: tuple  # one exact Matrix per variable
    nvars: int

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def unit(self) -> Matrix:
        """The column of coordinates of 1, the least standard monomial."""
        return Matrix([[int(i == 0)] for i in range(self.dim)], shape=(self.dim, 1))



def quotient_algebra(gb: GroebnerBasis) -> QuotientAlgebra:
    """Standard monomials and multiplication matrices of a zero-dimensional
    ideal; raises NotZeroDimensional when some variable has no pure-power
    leading term."""
    if not gb.polys:
        raise NotZeroDimensional("the zero ideal is not zero-dimensional")
    nvars = gb.nvars
    leads = gb.leading_monomials()
    if any(mono_degree(lm) == 0 for lm in leads):  # unit ideal
        mats = tuple(Matrix.zeros(0, 0) for _ in range(nvars))
        return QuotientAlgebra(gb, (), mats, nvars)
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
    for a in range(nvars):
        for b in range(a + 1, nvars):
            if not commutes(mats[a], mats[b]):
                raise AssertionError("multiplication matrices fail to commute")
    return QuotientAlgebra(gb, tuple(standard), tuple(mats), nvars)
