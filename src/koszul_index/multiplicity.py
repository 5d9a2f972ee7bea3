"""Local intersection multiplicity of an isolated common zero, computed as
the stabilized codimension of a truncated local algebra, plus the diagonal
two-variable-block reduction and the joint-spectrum route to all zeros at
once, which is exact-only (`spectrum.joint_eigenvalues` owns the fallback).

The codimension at truncation order N is exactly the dimension of the local
ring modulo the ideal plus the N-th power of the maximal ideal; it is
non-decreasing in N and one plateau step certifies stabilization.

One echelon of the untruncated products m * g_i, columns by degree first,
serves every order: its rows that lead in degrees < N project onto a basis of
the order-N truncation span, and the rows that lead higher lie in degrees >= N.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

from . import linalg, spectrum
from .errors import (ArityMismatch, NotAZero, NotIsolated, ResourceLimit,
                     ZeroOnBoundary)
from .linalg import SparseEchelon
from .poly import (Polynomial, groebner, mono_mul, monomials_of_degree,
                   quotient_algebra)
from .scalars import EXACT, as_scalar

MAX_ORDER = 30  # the last truncation order read; a codimension growing there is refused


@dataclass(frozen=True)
class MultiplicityCertificate:
    """An isolated-zero multiplicity with its stabilization order."""

    point: tuple
    multiplicity: int
    stabilization_order: int


def _require_square(system):
    system = list(system)
    if not system:
        raise ArityMismatch("empty polynomial system")
    nvars = system[0].nvars
    for g in system:
        if g.nvars != nvars:
            raise ArityMismatch("mixed variable counts in the system")
    if len(system) != nvars:
        raise ArityMismatch(
            f"{len(system)} polynomials in {nvars} variables; need a square system")
    return system, nvars


class _Truncation:
    """The products m * g_i of a system at the origin in one SparseEchelon
    that grows with the truncation order: order N adds the products whose
    least degree is N - 1, each on its generator's Gaussian-integer
    numerators. Columns number the monomials by degree first,
    so those of degree < N are the first C(N - 1 + n, n)."""

    def __init__(self, system_at_origin):
        self.nvars = system_at_origin[0].nvars
        self.gens = [(g.order_of_vanishing(), list(g.num.items()))
                     for g in system_at_origin if not g.is_zero()]
        self.columns = {}  # monomial -> column
        self.unnumbered = (m for d in itertools.count()
                           for m in sorted(monomials_of_degree(self.nvars, d)))
        self.echelon = SparseEchelon()
        self.order = 0

    def column(self, mono) -> int:
        while mono not in self.columns:
            self.columns[next(self.unnumbered)] = len(self.columns)
        return self.columns[mono]

    def codimension(self, order_bound):
        """codim of span{trunc(m * g_i)} inside polynomials of degree <
        order_bound; later orders add rows that lead in higher degrees
        only, so any order already passed can still be read."""
        while self.order < order_bound:
            self.order += 1
            for ord_g, terms in self.gens:
                deg_m = self.order - 1 - ord_g
                for mult in monomials_of_degree(self.nvars, deg_m) if deg_m >= 0 else ():
                    self.echelon.add({self.column(mono_mul(mono, mult)): pair
                                      for mono, pair in terms})
        below = math.comb(order_bound - 1 + self.nvars, self.nvars)
        return below - self.echelon.rank_below(below)


def truncated_codimension(system_at_origin, order_bound: int) -> int:
    """codim of span{trunc(m * g_i)} inside polynomials of degree < bound."""
    return _Truncation(system_at_origin).codimension(order_bound)


def local_multiplicity(system, point) -> MultiplicityCertificate:
    """dim of the local ring modulo the ideal at an isolated zero.

    Raises NotAZero when the point is not a common zero. When the
    codimension still grows at order MAX_ORDER, raises ResourceLimit if the
    ideal is zero-dimensional (so every zero is isolated) and NotIsolated
    otherwise.
    """
    system, _ = _require_square(system)
    point = tuple(map(as_scalar, point))
    translated = [g.shift(point) for g in system]
    # the constant term of g(z + point) is g(point)
    if any(g.order_of_vanishing() == 0 for g in translated):
        raise NotAZero(f"system does not vanish at ({', '.join(map(str, point))})")
    engine = _Truncation(translated)
    prev = engine.codimension(1)
    for order_bound in range(1, MAX_ORDER):
        nxt = engine.codimension(order_bound + 1)
        if nxt < prev:
            raise AssertionError("codimension decreased; truncation engine bug")
        if nxt == prev:
            return MultiplicityCertificate(point, prev, order_bound)
        prev = nxt
    if groebner(system).is_zero_dimensional():
        raise ResourceLimit(
            f"codimension still growing at truncation order {MAX_ORDER}, although "
            "the ideal is zero-dimensional and the zero is isolated")
    raise NotIsolated(
        f"codimension still growing at truncation order {MAX_ORDER}, and the ideal "
        "is not zero-dimensional: isolation was not proved")


def jacobian_regular(system, point) -> bool:
    """True when the Jacobian determinant is nonzero at the point (exact)."""
    system, nvars = _require_square(system)
    point = tuple(map(as_scalar, point))
    rows = [[g.partial(j + 1).evaluate(point) for j in range(nvars)] for g in system]
    return bool(linalg.det(linalg.Matrix(rows)))


def build_diagonal_system(system):
    """From g in n variables, the 2n-variable system (z - w, g(z)) whose only
    zeros are the doubled zeros of g."""
    system, nvars = _require_square(system)
    total = 2 * nvars
    unit = [tuple(int(j == k) for j in range(total)) for k in range(total)]
    head = [Polynomial(total, {unit[i]: 1, unit[nvars + i]: -1}) for i in range(nvars)]
    pad = (0,) * nvars  # g(z) reads no w
    tail = [Polynomial.over(total, {mono + pad: c for mono, c in g.num.items()}, (g.den, 0))
            for g in system]
    return head + tail


def verify_diagonal_degree(system, point) -> bool:
    """Check the degree identity between g at a zero and the diagonal system
    at the doubled zero. `point` may be g's certificate at the zero, whose
    multiplicity is then not computed again."""
    if isinstance(point, MultiplicityCertificate):
        base = point
    else:
        base = local_multiplicity(system, point)
    diag = local_multiplicity(build_diagonal_system(system), base.point * 2)
    return base.multiplicity == diag.multiplicity


@dataclass(frozen=True)
class GlobalMultiplicityTable:
    """All zeros of a zero-dimensional system with the dimensions of their
    generalized eigenspaces, checked to add up to the quotient dimension."""

    entries: tuple  # (point, multiplicity) pairs
    quotient_dim: int
    backend: str

    def __post_init__(self):
        if self.total() != self.quotient_dim:
            raise AssertionError("eigenspace dimensions do not add up to the quotient")

    def total(self) -> int:
        return sum(m for _, m in self.entries)


def global_multiplicity_table(system) -> GlobalMultiplicityTable:
    """Zeros with multiplicities of a system as the exact joint spectral
    decomposition of the multiplication tuple on its quotient algebra;
    raises IrrationalSpectrum when some zero leaves Q(i)."""
    algebra = quotient_algebra(groebner(list(system)))
    entries = spectrum.spectral_decomposition(
        algebra.mult_tuple, unit=algebra.unit).multiplicities()
    return GlobalMultiplicityTable(tuple(entries), algebra.dim, EXACT)


def eigenspace_multiplicity(system, point) -> int:
    """dim of the joint generalized eigenspace of the exact multiplication
    tuple at one point: the multiplicity there, read without the
    eigenvalues of any other zero, so the others may leave Q(i)."""
    algebra = quotient_algebra(groebner(list(system)))
    mult_tuple = algebra.mult_tuple
    # every shifted operator nilpotent on the unit: the point is the only
    # zero, and V(point) is the whole quotient without a kernel
    if all(spectrum._nilpotent(op, algebra.unit) for op in mult_tuple.shift(point).operators):
        return algebra.dim
    return spectrum.generalized_eigenspace(mult_tuple, point).cols


def winding_number(poly: Polynomial, center=0j, radius: float = 1.0,
                   samples: int = 4096) -> float:
    """Winding number of a univariate polynomial around a circle, by
    trapezoid sampling of the argument increments.

    Numeric oracle for one-variable index checks only.
    """
    if poly.nvars != 1:
        raise ArityMismatch("winding numbers are one-variable only")
    center = complex(center)
    terms = [(e[0], complex(c)) for e, c in poly.terms.items()]
    total = 0.0
    previous = None
    first = None
    for k in range(samples):
        z = center + radius * cmath.exp(2j * cmath.pi * k / samples)
        w = sum(c * z ** e for e, c in terms)
        if abs(w) < 1e-12:
            raise ZeroOnBoundary("symbol vanishes on the sampling circle")
        if previous is not None:
            delta = cmath.phase(w / previous)
            total += delta
        else:
            first = w
        previous = w
    total += cmath.phase(first / previous)
    return total / (2 * cmath.pi)
