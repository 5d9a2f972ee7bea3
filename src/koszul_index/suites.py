"""Deterministic scenario data: random commuting families, regular
polynomial systems with rational zeros, and the bundled suites that
`verify-all` runs.

Every generator takes an explicit random.Random, so a seed pins the whole
suite bit-exactly. Matrices are drawn and conjugated as lists of Python
ints and wrapped in Matrix once, at the end.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .linalg import Matrix
from .models import int_matmul
from .poly import parse_system
from .scalars import QQi, scalar_str


def _identity(dim: int):
    return [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]


def _random_square(rng: random.Random, dim: int, bound: int = 2):
    return [[rng.randint(-bound, bound) for _ in range(dim)] for _ in range(dim)]


def _random_poly_of(rng: random.Random, m, bound: int = 2):
    """A degree <= 2 polynomial in m with small random coefficients."""
    c0 = rng.randint(-bound, bound)
    c1 = rng.randint(-bound, bound)
    c2 = rng.randint(-1, 1)
    square = int_matmul(m, m)
    return [[c0 * (i == j) + c1 * m[i][j] + c2 * square[i][j] for j in range(len(m))]
            for i in range(len(m))]


def _unimodular(rng: random.Random, dim: int, steps: int = None):
    """(S, S^-1): S is a product of elementary row operations, and S^-1
    applies their inverses in reverse order."""
    ops = []
    for _ in range(steps if steps is not None else 2 * dim):
        i, j = rng.randrange(dim), rng.randrange(dim)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        if c:
            ops.append((i, j, c))
    s, s_inv = _identity(dim), _identity(dim)
    for i, j, c in ops:
        s[i] = [a + c * b for a, b in zip(s[i], s[j])]
    for i, j, c in reversed(ops):
        s_inv[i] = [a - c * b for a, b in zip(s_inv[i], s_inv[j])]
    return s, s_inv


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
        rows = [[0] * dim for _ in range(dim)]
        offset = 0
        for b, size in enumerate(blocks):
            for i, row in enumerate(per_block[b][k]):
                rows[offset + i][offset:offset + size] = row
            offset += size
        ops.append(rows)
    if conjugate and rng.random() < 0.5:
        s, s_inv = _unimodular(rng, dim)
        ops = [int_matmul(int_matmul(s, op), s_inv) for op in ops]
    return [Matrix(op) for op in ops]


def random_regular_system(rng: random.Random, nvars: int = 2):
    """A square system with invertible Jacobian at every zero and all zeros
    rational: separable simple-root factors composed with unimodular changes
    of variables and equations, written as text and parsed once.

    Returns (system, zeros) with zeros listed as tuples of QQi.
    """
    roots = []
    for _ in range(nvars):
        count = rng.randint(1, 2)
        vals = rng.sample([-2, -1, 0, 1, 2, Fraction(1, 2), Fraction(-1, 2)], count)
        roots.append([Fraction(v) for v in vals])
    u, u_inv = _unimodular(rng, nvars, steps=3)
    v, _ = _unimodular(rng, nvars, steps=2)
    # equation i is the product of (y_i - a) over its roots a, y = u z
    y = [" + ".join(f"({c})*z{k + 1}" for k, c in enumerate(row) if c) for row in u]
    separable = ["*".join(f"({y[i]} - ({a}))" for a in roots[i]) for i in range(nvars)]
    mixed = parse_system("; ".join(
        " + ".join(f"({w})*{separable[j]}" for j, w in enumerate(row) if w) for row in v),
        nvars)
    zeros = [tuple(QQi(sum(c * a for c, a in zip(row, combo))) for row in u_inv)
             for combo in itertools.product(*roots)]
    return mixed, sorted(zeros, key=lambda z: tuple(c.sort_key() for c in z))


# -- the bundled verify-all suites ---------------------------------------------


def _matrix_json(m: Matrix):
    return [[scalar_str(x) for x in row] for row in m.entries]


def builtin_scenarios(seed: int) -> list:
    """The bundled verification suites as (id, kind, payload) triples,
    generated deterministically from the seed: the Euler anchor, cone
    isomorphisms, spectral sequences, the multiplicity corpus with the
    diagonal identity, the index and reciprocity scenarios, and the
    binomial identities. Operator lists are serialized as drawn: each tuple
    is checked for commutation once, when its scenario runs."""
    rng = random.Random(seed)
    out = []

    def add(sid, kind, payload):
        out.append((sid, kind, payload))

    for k in range(200):
        n = rng.choice([1, 2, 3])
        dim = rng.randint(1, 8)
        ops = random_commuting_family(rng, n, dim)
        add(f"euler-anchor-{k:03d}", "HOMOLOGY",
            {"operators": [_matrix_json(op) for op in ops],
             "expect": {"index": 0}})

    for k in range(50):
        n = rng.choice([1, 2])
        dim = rng.randint(1, 6)
        ops = random_commuting_family(rng, n + 1, dim)
        add(f"cone-iso-{k:03d}", "HOMOLOGY",
            {"operators": [_matrix_json(op) for op in ops[:n]],
             "cone_with": _matrix_json(ops[n]),
             "expect": {"cone_isomorphism": True, "index": 0}})

    for k in range(50):
        n = rng.choice([1, 2])
        dim = rng.randint(1, 5)
        ops = random_commuting_family(rng, n + 1, dim)
        add(f"spectral-seq-{k:03d}", "SPECTRAL_SEQUENCE",
            {"operators_a": [_matrix_json(op) for op in ops[:n]],
             "operators_b": [_matrix_json(op) for op in ops[n:]],
             "r_max": 3})

    corpus = [(f"z1^{k}", 1, ["0"], k) for k in range(1, 6)]
    corpus += [
        ("z1^2; z2^3", 2, ["0", "0"], 6),
        ("z1^2 - z2; z2^2", 2, ["0", "0"], 4),
        ("z1*(z1 - 1); z2", 2, ["0", "0"], 1),
        ("z1 + z2; z1 - z2", 2, ["0", "0"], 1),
    ]
    for k, (text, nvars, at, expected) in enumerate(corpus):
        add(f"multiplicity-{k:02d}", "MULTIPLICITY",
            {"system": text, "variables": nvars, "at": at,
             "check_diagonal": True,
             "expect": {"multiplicity": expected}})
    for k in range(10):
        system, zeros = random_regular_system(rng)
        text = "; ".join(str(g) for g in system)
        at = [scalar_str(c) for c in zeros[0]]
        add(f"multiplicity-regular-{k:02d}", "MULTIPLICITY",
            {"system": text, "variables": 2, "at": at, "check_diagonal": True,
             "expect": {"multiplicity": 1}})

    disc = {"kind": "polydisc", "center": ["0"], "radii": ["1"]}
    bidisc = {"kind": "polydisc", "center": ["0", "0"], "radii": ["1", "1"]}
    index = [
        ("index-disc-two-zeros", disc, "z1^2 - 1/4", {"global_index": -2}),
        ("index-disc-exterior", disc, "z1 - 2", {"global_index": 0}),
        ("index-bidisc-multiplicity-four", bidisc, "z1^2; z2^2",
         {"global_index": -4, "quotient_dim": 4}),
        ("index-ball-regular",
         {"kind": "ball", "center": ["0", "0"], "radii": ["1"]},
         "z1 + z2; z1 - z2", {"global_index": -1}),
    ]
    for sid, domain, text, expect in index:
        add(sid, "INDEX", {"domain": domain, "system": text, "expect": expect})

    half = {"kind": "polydisc", "center": ["0"], "radii": ["1/2"]}
    shifted = {"kind": "polydisc", "center": ["3"], "radii": ["1/2"]}
    ball_b = {"kind": "ball", "center": ["0", "0"], "radii": ["3/4"]}
    recip = [
        ("reciprocity-worked-pair", disc, half, "z1*(z1 - 3/4)",
         {"lhs": 1, "rhs": 1}),
        ("reciprocity-disjoint", half, shifted, "z1*(z1 - 3)", None),
        ("reciprocity-equal-domains", disc, disc, "z1^2 - 1/4", None),
        ("reciprocity-bidisc-pair", bidisc,
         {"kind": "polydisc", "center": ["0", "0"], "radii": ["1/2", "1/2"]},
         "z1^2; z2^2", None),
        ("reciprocity-ball-vs-bidisc", bidisc, ball_b,
         "z1; z2 - 1/4", None),
        ("reciprocity-shifted-centers", disc,
         {"kind": "polydisc", "center": ["1/4"], "radii": ["1/2"]},
         "z1*(z1 - 1/2)", None),
    ]
    for sid, da, db, text, expect in recip:
        payload = {"domain_a": da, "domain_b": db, "system": text}
        if expect:
            payload["expect"] = expect
        add(sid, "RECIPROCITY", payload)

    for n in range(1, 9):
        for m in range(n, 9):
            add(f"identities-{n}-{m}", "IDENTITIES",
                {"n": n, "m": m, "range": 8,
                 "expect": {"left_inverse": True, "binomial_identity": True}})
    return out
