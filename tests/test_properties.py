"""Hypothesis properties of Koszul homology under the functional calculus,
on seeded commuting families; derandomized, so every run draws the same
examples."""

import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from koszul_index import koszul  # noqa: E402
from koszul_index.koszul import CommutingTuple  # noqa: E402
from koszul_index.linalg import Matrix  # noqa: E402
from koszul_index.poly import Polynomial, parse_system  # noqa: E402
from koszul_index.spectrum import apply_polynomial_map, localized_homology  # noqa: E402
from koszul_index.suites import _unimodular  # noqa: E402

seeds = st.integers(0, 2**32 - 1)


def _dims(t):
    return koszul.homology(koszul.build_complex(t)).dims


def _triangular_tuple(rng, n, d):
    """Combinations of M and M^2 - M for one upper-triangular integer M
    with diagonal entries 0 and 1: they commute, and their diagonals, so
    their joint eigenvalues, are points of {0, 1}^n."""
    m = Matrix([[rng.randint(0, 1) if i == j else rng.randint(-2, 2) * (i < j)
                 for j in range(d)] for i in range(d)])
    off = m @ m - m  # zero on the diagonal
    return CommutingTuple([m.scale(rng.randint(0, 1)) + off.scale(rng.randint(-1, 1))
                           for _ in range(n)])


def _linear_forms(g):
    """The polynomials sum_j g[i][j] z_j, one per row of g."""
    n = len(g)
    return [Polynomial(n, {tuple(int(i == j) for i in range(n)): c
                           for j, c in enumerate(row) if c}) for row in g]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(seeds, st.integers(1, 3), st.integers(1, 4))
def test_homology_is_invariant_under_a_unimodular_change_of_the_tuple(seed, n, d):
    # K(g A) is isomorphic to K(A) for g in GL_n: the complex sees the tuple
    # only through the linear map C^n -> End(V), up to a basis change of C^n
    rng = random.Random(seed)
    s, s_inv = map(Matrix, _unimodular(rng, d))
    t = CommutingTuple([s @ op @ s_inv for op in _triangular_tuple(rng, n, d).operators])
    g, _ = _unimodular(rng, n)
    assert _dims(apply_polynomial_map(t, _linear_forms(g))) == _dims(t)


def _random_polynomial(rng, n):
    """c (z_j^2 - z_j) + e (z_k - b): with e = 0 it vanishes at every point
    of {0, 1}^n, so the homology of the mapped tuple spreads over them."""
    j, k = rng.randint(1, n), rng.randint(1, n)
    c, e, b = rng.choice((1, -1, 2)), rng.randint(0, 1), rng.randint(0, 1)
    return parse_system(f"{c}*(z{j}^2 - z{j}) + {e}*(z{k} - {b})", n)[0]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(seeds, st.integers(1, 2), st.integers(1, 4))
def test_localized_homology_sums_to_the_mapped_homology(seed, n, d):
    # the finite-dimensional local index theorem: the homology of g(A) splits
    # over the joint eigenvalues of A
    rng = random.Random(seed)
    t = _triangular_tuple(rng, n, d)
    polys = [_random_polynomial(rng, n) for _ in range(rng.randint(1, 2))]
    points = {tuple(op[i, i] for op in t.operators) for i in range(d)}
    local = [localized_homology(t, polys, point) for point in points]
    assert tuple(map(sum, zip(*local))) == _dims(apply_polynomial_map(t, polys))
