"""Scalars: exact Gaussian rationals, and the names of the two backends.

Every input is a Gaussian-rational literal, every Matrix entry is a QQi and
every theorem equality is exact. EXACT and FLOAT name the backend a report
says ran; FLOAT names one job only, the numpy split of joint eigenvalues
that leave the Gaussian rationals, which `spectrum.joint_eigenvalues` falls
back to. Its relative kernel cut is the fixed `spectrum._KERNEL_CUT`; no
function takes a tolerance or a backend.

QQi shares a part that is already an exact Fraction, which is immutable and
in lowest terms, and converts any other (int, bool, Fraction subclass) with
Fraction(), so arithmetic results are never normalized twice.

QQi.parse parses each distinct literal once per process (a bounded LRU
cache) and returns the same immutable value to every later caller, so the
matrices of a scenario document share their entries (a Matrix keeps entries
that are already QQi). A bad literal is not cached and raises every time.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction

from .errors import BackendMismatch, ParseError

EXACT = "exact"
FLOAT = "float"

_INT = r"\d+(?:/\d+)?"
# real, real+imag (sign mandatory between parts), pure imaginary
_REAL_RE = re.compile(rf"^\s*([+-]?{_INT})\s*$")
_FULL_RE = re.compile(rf"^\s*([+-]?{_INT})\s*([+-](?:{_INT})?)\s*i\s*$")
_IMAG_RE = re.compile(rf"^\s*([+-]?(?:{_INT})?)\s*i\s*$")
_LITERAL_CACHE_SIZE = 4096  # distinct literals; a scenario document holds dozens


def _imag_fraction(text: str) -> Fraction:
    if text in ("", "+"):
        return Fraction(1)
    if text == "-":
        return Fraction(-1)
    return Fraction(text)


@functools.lru_cache(maxsize=_LITERAL_CACHE_SIZE)
def _parse_literal(text: str) -> "QQi":
    # fast path for ASCII integers; strip() and the regexes' \s agree
    body = text.strip()
    digits = body[1:] if body[:1] in ("+", "-") else body
    if digits.isascii() and digits.isdigit():
        return QQi(int(body))
    m = _REAL_RE.match(text)
    if m:
        return QQi(Fraction(m.group(1)))
    m = _FULL_RE.match(text)
    if m:
        return QQi(Fraction(m.group(1)), _imag_fraction(m.group(2)))
    m = _IMAG_RE.match(text)
    if m:
        return QQi(0, _imag_fraction(m.group(1)))
    raise ParseError(f"invalid scalar literal {text!r}")


def _fraction_str(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


class QQi:
    """A Gaussian rational re + im*i with exact Fraction components.

    Values are immutable; all arithmetic is exact, so (a + b) - b == a holds
    for every pair of values.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", re if type(re) is Fraction else Fraction(re))
        object.__setattr__(self, "im", im if type(im) is Fraction else Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("QQi values are immutable")

    @staticmethod
    def parse(text: str) -> "QQi":
        """Parse `[-]a[/b][[+|-]c[/d]i]`, plus the pure-imaginary shorthands
        `i`, `-i`, `c[/d]i`; a repeated literal returns the same value."""
        return _parse_literal(text)

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QQi(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QQi(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return QQi(-self.re, -self.im)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QQi(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return QQi(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("only non-negative integer powers")
        result = QQi(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def conjugate(self) -> "QQi":
        return QQi(self.re, -self.im)

    def abs2(self) -> Fraction:
        """Exact squared modulus."""
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def sort_key(self):
        return (self.re, self.im)

    def __str__(self):
        if not self.im:
            return _fraction_str(self.re)
        sign = "+" if self.im >= 0 else "-"
        return f"{_fraction_str(self.re)}{sign}{_fraction_str(abs(self.im))}i"

    def __repr__(self):
        return f"QQi({self})"


def _coerce(value):
    if isinstance(value, QQi):
        return value
    if isinstance(value, (int, Fraction)):
        return QQi(value)
    return NotImplemented


ZERO = QQi(0)
ONE = QQi(1)


def as_scalar(value) -> QQi:
    """Coerce an int, Fraction or scalar literal to QQi; any other value, a
    float or complex included, raises BackendMismatch."""
    if isinstance(value, QQi):
        return value
    if isinstance(value, (int, Fraction)):
        return QQi(value)
    if isinstance(value, str):
        return QQi.parse(value)
    raise BackendMismatch(f"cannot use {type(value).__name__} as an exact scalar")


def scalar_str(value) -> str:
    """Format a scalar for reports: exact values use the literal grammar."""
    if isinstance(value, QQi):
        return str(value)
    c = complex(value)
    if c.imag == 0:
        return repr(c.real)
    return repr(c)
