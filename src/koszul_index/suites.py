"""Deterministic generators for the bundled verification suites: random
commuting tuples, cone instances, bicomplex pairs, and regular polynomial
systems with rational zeros.

Every generator takes an explicit random.Random so a seed pins the whole
suite bit-exactly.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from . import linalg
from .koszul import CommutingTuple
from .linalg import Matrix
from .poly import Polynomial
from .scalars import EXACT, QQi


def _random_square(rng: random.Random, dim: int, bound: int = 2) -> Matrix:
    return Matrix([[QQi(rng.randint(-bound, bound)) for _ in range(dim)]
                   for _ in range(dim)], EXACT)


def _random_poly_of(rng: random.Random, m: Matrix, bound: int = 2) -> Matrix:
    """A degree <= 2 polynomial in m with small random coefficients."""
    d = m.rows
    ident = Matrix.identity(d, EXACT)
    c0 = rng.randint(-bound, bound)
    c1 = rng.randint(-bound, bound)
    c2 = rng.randint(-1, 1)
    out = ident.scale(QQi(c0)) + m.scale(QQi(c1))
    if c2:
        out = out + (m @ m).scale(QQi(c2))
    return out


def _unimodular(rng: random.Random, dim: int, steps: int = None) -> Matrix:
    """A product of elementary row operations; exactly invertible."""
    rows = [[QQi(1 if i == j else 0) for j in range(dim)] for i in range(dim)]
    for _ in range(steps if steps is not None else 2 * dim):
        i, j = rng.randrange(dim), rng.randrange(dim)
        if i == j:
            continue
        c = QQi(rng.randint(-2, 2))
        if not c:
            continue
        for k in range(dim):
            rows[i][k] = rows[i][k] + c * rows[j][k]
    return Matrix(rows, EXACT)


def random_commuting_family(rng: random.Random, count: int, dim: int,
                            conjugate: bool = True):
    """`count` commuting matrices of size `dim`: polynomials in one random
    matrix per diagonal block, optionally conjugated by a random invertible
    change of basis."""
    blocks = []
    remaining = dim
    while remaining:
        size = rng.randint(1, min(remaining, 4))
        remaining -= size
        blocks.append(size)
    per_block = []
    for size in blocks:
        m = _random_square(rng, size)
        per_block.append([_random_poly_of(rng, m) for _ in range(count)])
    ops = []
    for k in range(count):
        rows = [[QQi(0)] * dim for _ in range(dim)]
        offset = 0
        for b, size in enumerate(blocks):
            block = per_block[b][k]
            for i in range(size):
                for j in range(size):
                    rows[offset + i][offset + j] = block[i, j]
            offset += size
        ops.append(Matrix(rows, EXACT))
    if conjugate and rng.random() < 0.5:
        s = _unimodular(rng, dim)
        s_inv = linalg.solve(s, Matrix.identity(dim, EXACT))
        ops = [s @ op @ s_inv for op in ops]
    return ops


def random_commuting_tuple(rng: random.Random, n: int, dim: int) -> CommutingTuple:
    return CommutingTuple(random_commuting_family(rng, n, dim))


def random_cone_instance(rng: random.Random, n: int, dim: int):
    """A commuting tuple together with one extra commuting operator."""
    family = random_commuting_family(rng, n + 1, dim)
    return CommutingTuple(family[:n]), family[n]


def random_bicomplex_pair(rng: random.Random, n: int, m: int, dim: int):
    """Two tuples whose union commutes, for spectral sequence runs."""
    family = random_commuting_family(rng, n + m, dim)
    return CommutingTuple(family[:n]), CommutingTuple(family[n:])


def compose(poly: Polynomial, arguments) -> Polynomial:
    """Substitute polynomials for the variables of `poly`."""
    arguments = list(arguments)
    if len(arguments) != poly.nvars:
        raise ValueError("argument count differs from variable count")
    nvars = arguments[0].nvars
    acc = Polynomial.zero(nvars)
    for mono, coeff in poly.terms.items():
        term = Polynomial.constant(nvars, coeff)
        for i, e in enumerate(mono):
            for _ in range(e):
                term = term * arguments[i]
        acc = acc + term
    return acc


def random_regular_system(rng: random.Random, nvars: int = 2):
    """A square system with invertible Jacobian at every zero and all zeros
    rational: separable simple-root factors composed with unimodular changes
    of variables and equations.

    Returns (system, zeros) with zeros listed as tuples of QQi.
    """
    roots = []
    for _ in range(nvars):
        count = rng.randint(1, 2)
        vals = rng.sample([-2, -1, 0, 1, 2, Fraction(1, 2), Fraction(-1, 2)], count)
        roots.append([Fraction(v) for v in vals])
    separable = []
    for i in range(nvars):
        g = Polynomial.constant(nvars, 1)
        for a in roots[i]:
            g = g * (Polynomial.variable(nvars, i + 1) - Polynomial.constant(nvars, QQi(a)))
        separable.append(g)
    u = _unimodular(rng, nvars, steps=3)
    u_inv = linalg.solve(u, Matrix.identity(nvars, EXACT))
    substitution = []
    for i in range(nvars):
        row = Polynomial.zero(nvars)
        for j in range(nvars):
            if u[i, j]:
                row = row + Polynomial.variable(nvars, j + 1) * u[i, j]
        substitution.append(row)
    system = [compose(g, substitution) for g in separable]
    v = _unimodular(rng, nvars, steps=2)
    mixed = []
    for i in range(nvars):
        h = Polynomial.zero(nvars)
        for j in range(nvars):
            if v[i, j]:
                h = h + system[j] * v[i, j]
        mixed.append(h)
    zeros = []
    for combo in itertools.product(*roots):
        a = Matrix([[QQi(c)] for c in combo], EXACT)
        y = u_inv @ a
        zeros.append(tuple(y[i, 0] for i in range(nvars)))
    return mixed, sorted(zeros, key=lambda z: tuple(c.sort_key() for c in z))
