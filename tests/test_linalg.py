import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from koszul_index import linalg, spectrum
from koszul_index.errors import BackendMismatch, InconsistentSystem
from koszul_index.linalg import Matrix
from koszul_index.scalars import QQi


def exact(rows):
    return Matrix(rows)


def test_rank_trivial_cases():
    assert linalg.rank(Matrix.identity(3)) == 3
    assert linalg.rank(Matrix.zeros(2, 2)) == 0
    assert linalg.rank(exact([[1, 2], [2, 4]])) == 1


def test_kernel_trivial_cases():
    assert linalg.kernel_basis(Matrix.zeros(2, 2)).cols == 2
    assert linalg.kernel_basis(Matrix.identity(4)).cols == 0
    v = linalg.kernel_basis(exact([[1, 2], [2, 4]]))
    assert v.shape == (2, 1)
    # spans the line through (2, -1)
    assert v[0, 0] * QQi(-1) == v[1, 0] * QQi(2)


def test_image_trivial_cases():
    assert linalg.image_basis(Matrix.identity(3)).cols == 3
    assert linalg.image_basis(Matrix.zeros(3, 2)).cols == 0
    img = linalg.image_basis(exact([[1, 2], [2, 4]]))
    assert img.shape == (2, 1)
    assert img[1, 0] == img[0, 0] * QQi(2)


def test_backend_mismatch_rejected():
    # a Matrix holds Gaussian rationals only, so a float fails when it is built
    with pytest.raises(BackendMismatch):
        Matrix([[QQi(1), 0.5 + 0j]])
    with pytest.raises(BackendMismatch):
        Matrix([[0.5]])


small_entries = st.integers(min_value=-5, max_value=5)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(small_entries, min_size=4, max_size=4), min_size=3, max_size=5))
def test_rank_nullity_both_backends(rows):
    m = exact(rows)
    assert linalg.rank(m) + linalg.kernel_basis(m).cols == m.cols
    # the float kernel cut of the float split reads the same rank
    assert spectrum._float_split(m.to_numpy())[2] == linalg.rank(m)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.lists(small_entries, min_size=6, max_size=6), min_size=6, max_size=6),
       st.lists(st.lists(small_entries, min_size=6, max_size=6), min_size=6, max_size=6))
def test_rank_of_product_bounded(rows_a, rows_b):
    a, b = exact(rows_a), exact(rows_b)
    assert linalg.rank(a @ b) <= min(linalg.rank(a), linalg.rank(b))


def test_kernel_vectors_annihilate():
    rng = random.Random(3)
    for _ in range(15):
        m = exact([[QQi(rng.randint(-5, 5), rng.randint(-2, 2)) for _ in range(5)]
                   for _ in range(3)])
        ker = linalg.kernel_basis(m)
        assert (m @ ker).is_zero()
        assert linalg.rank(m) + ker.cols == 5


def test_det_values():
    assert linalg.det(exact([[1, 2], [3, 4]])) == QQi(-2)
    assert linalg.det(exact([[QQi(0, 1), QQi(0)], [QQi(0), QQi(0, 1)]])) == QQi(-1)
    assert linalg.det(exact([[1, 2], [2, 4]])) == QQi(0)
    assert linalg.det(exact([[QQi(Fraction(1, 2))]])) == QQi(Fraction(1, 2))


def test_solve_consistent_and_inconsistent():
    a = exact([[1, 2], [3, 4]])
    x = linalg.solve(a, exact([[1], [1]]))
    assert (a @ x) == exact([[1], [1]])
    singular = exact([[1, 2], [2, 4]])
    with pytest.raises(InconsistentSystem):
        linalg.solve(singular, exact([[1], [0]]))


def test_subspace_sum_and_intersection():
    e1 = exact([[1], [0], [0]])
    e12 = exact([[1, 0], [0, 1], [0, 0]])
    diag = exact([[1], [1], [0]])

    def contains(big, small):
        return linalg.rank(Matrix.hstack([big, small])) == big.cols

    assert contains(e12, e1)
    assert not contains(e1, e12)
    assert linalg.image_basis(Matrix.hstack([e1, diag])).cols == 2
    # e12 and diag meet in a line: the kernel of [e12 | -diag] is one-dimensional
    ker = linalg.kernel_basis(Matrix.hstack([e12, diag.scale(-1)]))
    assert ker.cols == 1
    meet = e12 @ ker.take_rows(range(e12.cols))
    assert contains(e12, meet) and contains(diag, meet)


def test_induced_on_subquotient_jordan():
    # action induced by the Jordan block on kernel/image of itself is zero
    jordan = exact([[0, 1], [0, 0]])
    cycles = linalg.kernel_basis(jordan)
    boundaries = linalg.image_basis(jordan)
    [mat], reps = linalg.induced_on_subquotient([jordan], cycles, boundaries)
    assert mat.shape == (0, 0)
    ident = Matrix.identity(2)
    mats, _ = linalg.induced_on_subquotient([jordan, ident], ident,
                                            Matrix.zeros(2, 0))
    assert mats == [jordan, ident]


def _pairs(vec):
    """A sparse exact row as the nonzero Gaussian-integer pairs SparseEchelon takes."""
    return {c: p for c, p in zip(vec, linalg._clear_denominators(vec.values())[1])
            if p != (0, 0)}


def test_sparse_echelon_rank():
    acc = linalg.SparseEchelon()
    assert acc.add(_pairs({0: QQi(1), 2: QQi(2)}))
    assert acc.add(_pairs({1: QQi(1)}))
    assert not acc.add(_pairs({0: QQi(2), 1: QQi(3), 2: QQi(4)}))  # 2*first + 3*second
    assert acc.rank_below(3) == 2 and acc.rank_below(1) == 1


def _gaussian(rng):
    return QQi(Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
               Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.5 else 0)


def test_sparse_echelon_rank_matches_dense():
    rng = random.Random(8)
    deficient = 0
    for trial in range(200):
        ncols = rng.randint(1, 12)
        vecs = []
        for _ in range(rng.randint(1, 8)):
            if len(vecs) >= 2 and rng.random() < 0.4:
                # a planted dependency with Gaussian coefficients
                (a, b), ca, cb = rng.sample(vecs, 2), _gaussian(rng), _gaussian(rng)
                vecs.append({c: ca * a.get(c, 0) + cb * b.get(c, 0) for c in a.keys() | b.keys()})
            else:
                cols = rng.sample(range(ncols), rng.randint(0, min(4, ncols)))
                vecs.append({c: _gaussian(rng) for c in cols})
        acc = linalg.SparseEchelon()
        added = [acc.add(_pairs(v)) for v in vecs]
        dense = linalg.rank(exact([[v.get(c, QQi(0)) for c in range(ncols)] for v in vecs]))
        # every row leads below ncols, so rank_below(ncols) is the whole rank
        assert acc.rank_below(ncols) == dense == sum(added), trial
        deficient += dense < len(vecs)
    assert deficient > 50


def test_back_substitution_forms_no_qqi_products(monkeypatch):
    rng = random.Random(5)
    m = exact([[_gaussian(rng) for _ in range(3)] for _ in range(5)]) \
        @ exact([[_gaussian(rng) for _ in range(7)] for _ in range(3)])
    assert linalg.rank(m) == 3
    rhs = m @ exact([[_gaussian(rng)] for _ in range(7)])
    calls = []
    for name in ("__mul__", "__truediv__"):
        original = getattr(QQi, name)
        monkeypatch.setattr(QQi, name, lambda a, b, name=name, original=original:
                            calls.append(name) or original(a, b))
    ker = linalg.kernel_basis(m)
    x = linalg.solve(m, rhs)
    assert calls == []
    monkeypatch.undo()
    assert ker.cols == 4 and (m @ ker).is_zero() and m @ x == rhs


def test_commutes_forms_no_qqi_products(monkeypatch):
    rng = random.Random(6)
    m = exact([[_gaussian(rng) for _ in range(6)] for _ in range(6)])
    p, q = m @ m + m.scale(_gaussian(rng)), m.scale(_gaussian(rng))
    calls = []
    for cls, names in ((QQi, ("__mul__", "__truediv__")), (Matrix, ("__matmul__",))):
        for name in names:
            original = getattr(cls, name)
            monkeypatch.setattr(cls, name, lambda a, b, name=name, original=original:
                                calls.append(name) or original(a, b))
    moved = m.take_rows([1, 0, 2, 3, 4, 5])
    results = linalg.commutes(p, q), linalg.commutes(p, moved)
    assert calls == []
    monkeypatch.undo()
    assert results == (True, False) and not (p @ moved - moved @ p).is_zero()


def test_commutes_keeps_its_error_types():
    for a, b in ((exact([[1, 2]]), exact([[1], [2]])), (exact([[1, 2]]), exact([[1, 2]])),
                 (Matrix.identity(2), Matrix.identity(3))):
        with pytest.raises(ValueError):
            linalg.commutes(a, b)


def test_commutes_matches_the_product_oracle():
    """Exact `commutes` against (ab - ba).is_zero() on commuting pairs p(M),
    q(M) with Gaussian-rational entries, and on near-misses: q(M) with one
    entry moved by 1/k or i/k. Every other M is lower triangular, so a move
    in its last row changes only the last row of ab - ba. Dims 1-9 come
    once each, then 1-4, to keep the QQi products of the oracle cheap."""
    rng = random.Random(15)
    verdicts = []
    for trial in range(100):
        d = trial + 1 if trial < 9 else trial % 4 + 1
        m = exact([[_gaussian(rng) if j <= i or trial % 2 else QQi(0) for j in range(d)]
                   for i in range(d)])
        m2 = m @ m
        p, q = (Matrix.identity(d).scale(_gaussian(rng)) + m.scale(_gaussian(rng))
                + m2.scale(_gaussian(rng)) for _ in range(2))
        i = d - 1 if trial % 3 == 0 else rng.randrange(d)
        j = d - 1 if trial % 3 == 1 else rng.randrange(d)
        rows = [list(r) for r in q.entries]
        step = Fraction(1, rng.randint(1, 5))
        rows[i][j] += QQi(*rng.choice([(step, 0), (0, step)]))
        for a, b in ((p, q), (p, exact(rows))):
            verdicts.append(linalg.commutes(a, b))
            assert verdicts[-1] == (a @ b - b @ a).is_zero(), (trial, i, j)
    assert verdicts.count(False) > 70


def test_float_solve_residual_is_relative():
    # the restriction of the float split (spectrum._float_restrict)
    np = pytest.importorskip("numpy")
    ones = np.array([[1.0], [1.0]], dtype=complex)
    with pytest.raises(InconsistentSystem):
        spectrum._float_restrict(ones, np.array([[1.0], [1.0 + 1e-6]]))
    x = spectrum._float_restrict(ones * 1e6, np.array([[1e6], [1e6 + 1e-6]]))
    assert abs(x[0, 0] - 1.0) < 1e-9


def test_float_kernel_of_rounding_noise_is_the_whole_space():
    # the cut of the float split (spectrum._float_split) is
    # _KERNEL_CUT * max(sigma_max, 1), so noise far below 1 is zero
    np = pytest.importorskip("numpy")
    noise = np.array([[3e-17, -1e-17, 0.0], [2e-17, 5e-17, 1e-17], [0.0, 4e-17, -2e-17]],
                     dtype=complex)
    assert spectrum._float_split(noise)[2] == 0
    assert spectrum._float_kernel_chain(noise, 3).shape == (3, 3)


def _seeded(rng, rows, cols):
    return Matrix([[QQi(Fraction(rng.randint(-9, 9), rng.randint(1, 4)), rng.randint(-3, 3))
                    for _ in range(cols)] for _ in range(rows)])


def test_shift_moves_only_the_diagonal():
    rng = random.Random(41)
    for k in (1, 2, 5):
        m = _seeded(rng, k, k)
        for lam in (QQi(0), QQi(Fraction(3, 7)), QQi(Fraction(-1, 2), 2)):
            assert m.shift(lam) == m - Matrix.identity(k).scale(lam)
    with pytest.raises(ValueError):
        Matrix.zeros(2, 3).shift(1)


def test_every_matrix_op_keeps_tuple_rows_of_qqi():
    rng = random.Random(1802)
    a, b = _seeded(rng, 3, 3), _seeded(rng, 3, 3)
    tall, wide = _seeded(rng, 4, 2), _seeded(rng, 2, 4)
    results = [
        Matrix.identity(3), Matrix.zeros(2, 3), a + b, a - b, -a,
        a.scale(Fraction(2, 3)), a.shift(QQi(1, -1)), a @ b, tall @ wide, wide @ tall,
        Matrix.place(5, 7, [(0, 0, 1, -1, a), (1, 0, 2, 1, wide)]),
        Matrix.hstack([a, b]), a.take_rows([2, 0]), a.take_cols([1]),
        linalg.kernel_basis(wide), linalg.image_basis(tall),
        linalg.solve(a, a @ b.take_cols([0])), linalg.extend_basis(a.take_cols([0]), a),
    ]
    for m in results:
        assert type(m.entries) is tuple
        assert all(type(r) is tuple and all(type(x) is QQi for x in r) for r in m.entries)
        rebuilt = Matrix([list(r) for r in m.entries])
        assert m == rebuilt and hash(m) == hash(rebuilt)


def test_constructor_converts_rows_that_are_not_of_the_backend_type():
    np = pytest.importorskip("numpy")
    mixed = Matrix([[1, Fraction(1, 2), "i", QQi(2)]])
    assert mixed.entries == ((QQi(1), QQi(Fraction(1, 2)), QQi(0, 1), QQi(2)),)
    assert all(type(x) is QQi for x in mixed.entries[0])
    with pytest.raises(ValueError):
        Matrix([[QQi(1), QQi(2)], [QQi(3)]])
    # one scalar type: a float or complex is refused, numpy's included
    for row in ([QQi(1), 1j], [0.5], [np.complex128(1 + 2j)], [np.float64(3)]):
        with pytest.raises(BackendMismatch):
            Matrix([row])
