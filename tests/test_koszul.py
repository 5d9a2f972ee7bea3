import dataclasses
import functools
import random

import pytest

from koszul_index import cli, koszul, linalg, models, spectral, suites
from koszul_index.errors import BackendMismatch, CommutatorError
from koszul_index.koszul import (CommutingTuple, HomologyProfile, build_complex,
                                 homology, mapping_cone, verify_cone_isomorphism)
from koszul_index.linalg import Matrix
from koszul_index.scalars import QQi
from mutations import patch_source
from random_tuples import random_commuting_tuple, random_cone_instance


def exact(rows):
    return Matrix(rows)


JORDAN = exact([[0, 1], [0, 0]])
ZERO2 = Matrix.zeros(2, 2)


def test_commutation_verified_at_build():
    with pytest.raises(CommutatorError):
        CommutingTuple([JORDAN, exact([[1, 0], [1, 1]])])
    CommutingTuple([JORDAN, JORDAN])  # a tuple may repeat operators


def test_derived_tuples_check_only_new_pairs(monkeypatch):
    rng = random.Random(3)
    three = random_commuting_tuple(rng, 3, 3)
    calls = []
    real = linalg.commutes
    monkeypatch.setattr(linalg, "commutes",
                        lambda a, b: calls.append(1) or real(a, b))
    shifted = three.shift([QQi(1), QQi(0, 2), QQi(-3)])
    assert len(calls) == 0  # A - lambda commute exactly when A do
    extended = three.extend(three.operators[0] @ three.operators[1])
    assert len(calls) == 3  # the new operator against each of the three
    joined = three.join(shifted)
    assert len(calls) == 3 + 9  # cross pairs only
    assert (shifted.n, extended.n, joined.n) == (3, 4, 6)
    with pytest.raises(CommutatorError, match="operators 1 and 2"):
        CommutingTuple([JORDAN]).extend(exact([[1, 0], [1, 1]]))
    with pytest.raises(CommutatorError, match="operators 2 and 3"):
        CommutingTuple([ZERO2, JORDAN]).join(CommutingTuple([exact([[1, 0], [1, 1]])]))


def test_build_single_zero_operator():
    c = build_complex(CommutingTuple([ZERO2]))
    assert c.dims == [2, 2]
    assert c.d(1).is_zero()


def test_build_zero_pair_on_scalars():
    c = build_complex(CommutingTuple([Matrix.zeros(1, 1), Matrix.zeros(1, 1)]))
    assert c.dims == [1, 2, 1]
    assert c.d(1).is_zero() and c.d(2).is_zero()


def stacked(ops):
    """The operators stacked one above the next, row by row."""
    return Matrix([row for op in ops for row in op.entries])


def square_zero(c):
    """The full-product oracle: every d_k @ d_(k+1) of c vanishes."""
    return all((c.d(k) @ c.d(k + 1)).is_zero() for k in range(1, c.length))


def test_differential_block_layout():
    # d_1 = [A_1 A_2] and d_2 = [-A_2; A_1], block by block: an exact pair
    # forms no product at build, because d_1 d_2 = -[A_1, A_2] by this layout
    a1, a2 = JORDAN, exact([[2, QQi(1, 1)], [0, 2]])
    c = build_complex(CommutingTuple([a1, a2]))

    def block(m, i, j):
        return m.take_rows(range(2 * i, 2 * i + 2)).take_cols(range(2 * j, 2 * j + 2))
    assert c.dims == [2, 4, 2]
    assert [block(c.d(1), 0, j) for j in range(2)] == [a1, a2]
    assert [block(c.d(2), i, 0) for i in range(2)] == [-a2, a1]


def test_square_zero_oracle_on_random_tuples():
    rng = random.Random(47)
    for n in (1, 2, 3, 4):
        for _ in range(4):
            assert square_zero(build_complex(random_commuting_tuple(rng, n, rng.randint(1, 3))))


def test_square_zero_oracle_on_cones():
    rng = random.Random(53)
    for n in (1, 2, 3):
        for _ in range(3):
            t, b = random_cone_instance(rng, n, rng.randint(1, 3))
            c = build_complex(t)
            assert square_zero(mapping_cone(c, b))
            assert square_zero(build_complex(t.extend(b)))


def _nilpotent_tuple(rng, n, dim):
    """n commuting nilpotent operators S p_i(N) S^-1: N is one strictly upper
    triangular Jordan-type block, p_i has its lowest term at a random power
    of N (the power dim is the zero operator), S is unimodular. The whole
    space is the joint generalized kernel, so the homology is nonzero, and an
    operator of lower order acts nontrivially on the homology of the others."""
    nil = exact([[rng.choice([1, -1, 2]) if j == i + 1 else
                  rng.randint(-2, 2) if j > i else 0 for j in range(dim)]
                 for i in range(dim)])
    powers = [Matrix.identity(dim)]
    for _ in range(dim):
        powers.append(powers[-1] @ nil)
    s, s_inv = (exact(rows) for rows in suites._unimodular(rng, dim))
    ops = []
    for _ in range(n):
        lead = rng.randint(1, dim)
        op = powers[lead].scale(rng.choice([1, -1, 2]))
        for power in powers[lead + 1:]:
            op = op + power.scale(rng.randint(-1, 1))
        ops.append(s @ op @ s_inv)
    return CommutingTuple(ops)


def iterated_cone_dims(t):
    """The homology oracle of the iterated cone: K(A_1..A_n) is the cone of
    A_n on K' = K(A_1..A_(n-1)), so its long exact sequence gives
    dim H_k = dim coker(A_n on H_k(K')) + dim ker(A_n on H_(k-1)(K')). Only
    the induced matrices on the homology of K' are ranked, never a d_k of
    K(A) (Eisenbud, Commutative Algebra, ch. 17)."""
    inner = build_complex(CommutingTuple.proven(t.operators[:-1]))
    nullity = []  # of A_n on H_k(K'), a square matrix: dim ker = dim coker
    for k in range(t.n):
        (action,) = koszul.homology_action(inner, k, t.operators[-1:])
        nullity.append(action.rows - linalg.rank(action))
    return tuple(a + b for a, b in zip(nullity + [0], [0] + nullity))


def test_homology_matches_the_iterated_cone_oracle():
    rng = random.Random(61)
    nonzero = 0
    for n in (2, 3, 4):
        for trial in range(12):
            dim = rng.randint(1, 3 if n == 4 else 4)
            t = (_nilpotent_tuple(rng, n, dim) if trial % 3
                 else random_commuting_tuple(rng, n, dim))
            dims = homology(build_complex(t)).dims
            assert dims == iterated_cone_dims(t), (n, trial)
            nonzero += any(dims)
    assert nonzero >= 24


def _patch_shape(monkeypatch, mutate):
    """Every Koszul builder reads `koszul.shape`: patch in a mutated copy."""
    real = koszul.shape
    monkeypatch.setattr(koszul, "shape", functools.cache(lambda n: mutate(real(n))))


def _all_signs_plus(sh):
    return dataclasses.replace(sh, faces=tuple(
        tuple(tuple((i, ri, 1) for i, ri, _ in col) for col in level)
        for level in sh.faces))


def _drop_a_face(sh):
    # the A_1 term of e_1 ^ e_2 in d_2
    if len(sh.faces) < 3:
        return sh
    faces = list(sh.faces)
    faces[2] = (faces[2][0][1:],) + faces[2][1:]
    return dataclasses.replace(sh, faces=tuple(faces))


def _flip_a_cone_sign(sh):
    # the image of e_1 in the degree-1 cone basis
    cone = list(sh.cone)
    (block, sign), *rest = cone[1]
    cone[1] = ((block, -sign), *rest)
    return dataclasses.replace(sh, cone=tuple(cone))


def test_square_zero_oracle_flags_a_flipped_sign(monkeypatch):
    # with every removal sign +1, d_1 d_2 = A_1 A_2 + A_2 A_1 = 4J here: an
    # exact pair no longer catches that at build, the oracle does, and three
    # operators still multiply at build
    t = CommutingTuple([JORDAN, exact([[2, 1], [0, 2]])])
    assert square_zero(build_complex(t))
    _patch_shape(monkeypatch, _all_signs_plus)
    assert not square_zero(build_complex(t))
    with pytest.raises(AssertionError, match="d_1 after d_2"):
        build_complex(t.extend(Matrix.identity(2)))


def _rejections():
    """The checks that reject the current shape: the build-time d*d check
    (n = 3), the square_zero oracle (n = 2) and the cone isomorphism (n = 1)."""
    pair = CommutingTuple([JORDAN, exact([[2, 1], [0, 2]])])
    out = set()
    try:
        build_complex(pair.extend(Matrix.identity(2)))
    except AssertionError:
        out.add("build")
    if not square_zero(build_complex(pair)):
        out.add("square_zero")
    if not verify_cone_isomorphism(build_complex(CommutingTuple([JORDAN])),
                                   pair.operators[1]):
        out.add("cone")
    return out


@pytest.mark.parametrize("mutate, rejected_by", [
    (_drop_a_face, {"build", "square_zero", "cone"}),
    (_flip_a_cone_sign, {"cone"}),
], ids=["dropped_face", "wrong_cone_sign"])
def test_shape_mutations_are_rejected(monkeypatch, mutate, rejected_by):
    assert _rejections() == set()
    _patch_shape(monkeypatch, mutate)
    assert _rejections() == rejected_by


def _lex_subsets(n, k):
    return sorted(tuple(i for i in range(1, n + 1) if mask >> (i - 1) & 1)
                  for mask in range(2 ** n) if bin(mask).count("1") == k)


def _parity(seq):
    """The sign of the permutation that sorts seq: -1 to its inversions."""
    inversions = sum(a > b for x, a in enumerate(seq) for b in seq[x + 1:])
    return -1 if inversions % 2 else 1


def test_shape_matches_an_independent_exterior_oracle():
    # contracting e_i out of e_S first moves e_i to the front; the cone sends
    # S in K_(k-1) to S + {n+1}, moving e_(n+1) from the front to the back
    for n in range(6):
        sh = koszul.shape(n)
        assert [list(basis) for basis in sh.bases] == [_lex_subsets(n, k)
                                                        for k in range(n + 1)]
        for k in range(1, n + 1):
            lower = _lex_subsets(n, k - 1)
            for s, faces in zip(sh.bases[k], sh.faces[k]):
                rest = [tuple(x for x in s if x != i) for i in s]
                assert list(faces) == [(i - 1, lower.index(r), _parity((i,) + r))
                                       for i, r in zip(s, rest)]
        for k, images in enumerate(sh.cone):
            wide = _lex_subsets(n + 1, k)
            expected = [(wide.index(s), 1) for s in _lex_subsets(n, k)]
            expected += [(wide.index(s + (n + 1,)), _parity((n + 1,) + s))
                         for s in _lex_subsets(n, k - 1)] if k else []
            assert list(images) == expected
            assert sorted(block for block, _ in images) == list(range(len(wide)))


def test_shape_is_built_once_per_n():
    koszul.shape.cache_clear()
    rng = random.Random(67)
    for _ in range(3):
        t, b = random_cone_instance(rng, 2, 2)
        c = build_complex(t)
        koszul.homology_action(c, 1, [b])
        mapping_cone(c, b)
        assert verify_cone_isomorphism(c, b)
        spectral.build_bicomplex(t, CommutingTuple([b]))
    info = koszul.shape.cache_info()
    assert (info.misses, info.currsize) == (2, 2)  # n = 2 and n + 1 = 3


def test_exact_pair_builds_form_no_product(monkeypatch):
    rng = random.Random(59)
    pair, three = (random_commuting_tuple(rng, n, 3) for n in (2, 3))
    calls = []
    matmul = Matrix.__matmul__
    monkeypatch.setattr(Matrix, "__matmul__",
                        lambda a, b: calls.append(1) or matmul(a, b))
    build_complex(pair)
    assert calls == []
    build_complex(three)
    assert len(calls) == 2


def test_build_complex_refuses_a_float_tuple():
    # the index is an integer and every operator a Gaussian-rational literal,
    # so no Koszul complex is float: a float operator is refused when built
    with pytest.raises(BackendMismatch):
        build_complex(CommutingTuple([Matrix([[0.0, 1.0], [0.0, 0.0]])]))


def test_end_differentials_are_the_operator_blocks():
    # d_1 is the row of operators and d_n the signed operators stacked in
    # reverse order, which is why `homology` ranks no end group a second time
    rng = random.Random(43)
    for _ in range(12):
        t = random_commuting_tuple(rng, rng.randint(1, 4), rng.randint(1, 3))
        ops, n = t.operators, t.n
        c = build_complex(t)
        assert c.d(1) == Matrix.hstack(ops)
        assert c.d(n) == stacked([ops[i] if i % 2 == 0 else -ops[i]
                                  for i in reversed(range(n))])


def test_homology_ranks_each_differential_once(monkeypatch):
    c = build_complex(random_commuting_tuple(random.Random(7), 3, 3))
    calls = []
    for name in ("rank", "kernel_basis"):
        real = getattr(linalg, name)
        monkeypatch.setattr(linalg, name, lambda *args, name=name, real=real:
                            calls.append(name) or real(*args))
    homology(c)
    assert calls == ["rank"] * 3


def test_homology_examples():
    assert homology(build_complex(CommutingTuple([JORDAN]))).dims == (1, 1)
    zero_pair = CommutingTuple([Matrix.zeros(1, 1), Matrix.zeros(1, 1)])
    assert homology(build_complex(zero_pair)).dims == (1, 2, 1)
    assert homology(build_complex(CommutingTuple([JORDAN, ZERO2]))).dims == (1, 2, 1)


def test_profile_index_is_minus_euler():
    profile = HomologyProfile.from_dims((1, 2, 1))
    assert profile.euler == 0 and profile.index == 0
    profile2 = HomologyProfile.from_dims((2, 1))
    assert profile2.euler == 1 and profile2.index == -1


def test_index_vanishes_on_random_tuples():
    rng = random.Random(11)
    for _ in range(25):
        t = random_commuting_tuple(rng, rng.choice([1, 2, 3]), rng.randint(1, 6))
        profile = homology(build_complex(t))
        assert profile.index == 0


def test_homology_invariant_under_similarity():
    rng = random.Random(5)
    for _ in range(10):
        t = random_commuting_tuple(rng, 2, 4)
        base = homology(build_complex(t)).dims
        s, s_inv = (exact(rows) for rows in suites._unimodular(rng, 4))
        conj = CommutingTuple([s @ op @ s_inv for op in t.operators])
        assert homology(build_complex(conj)).dims == base


def test_invertible_coordinate_contracts():
    rng = random.Random(9)
    for _ in range(10):
        t = random_commuting_tuple(rng, 2, 4)
        extended = t.extend(Matrix.identity(4))
        assert homology(build_complex(extended)).dims == (0,) * 4


def test_mapping_cone_over_zero_is_direct_sum():
    t = CommutingTuple([JORDAN])
    cone = mapping_cone(build_complex(t), ZERO2)
    base = build_complex(t).homology_dims()
    dims = cone.homology_dims()
    # cone over 0 sums shifted copies of the base homology
    assert dims[0] == base[0]
    assert dims[1] == base[1] + base[0]
    assert dims[2] == base[1]


def test_mapping_cone_of_invertible_kills_homology():
    t = CommutingTuple([JORDAN, ZERO2])
    cone = mapping_cone(build_complex(t), Matrix.identity(2))
    assert cone.homology_dims() == [0, 0, 0, 0]


def test_cone_of_identity_on_scalar():
    t = CommutingTuple([Matrix.zeros(1, 1)])
    cone = mapping_cone(build_complex(t), Matrix.identity(1))
    assert cone.homology_dims() == [0, 0, 0]


def test_cone_matches_extended_tuple_homology():
    rng = random.Random(23)
    for _ in range(10):
        t, b = random_cone_instance(rng, rng.choice([1, 2]), rng.randint(1, 5))
        cone = mapping_cone(build_complex(t), b)
        extended = build_complex(t.extend(b))
        assert cone.homology_dims() == extended.homology_dims()


def test_verify_cone_isomorphism_random():
    rng = random.Random(31)
    for _ in range(15):
        t, b = random_cone_instance(rng, rng.choice([1, 2]), rng.randint(1, 5))
        assert verify_cone_isomorphism(build_complex(t), b)


def test_verify_cone_isomorphism_rejects_a_wrong_cone(monkeypatch):
    c = build_complex(CommutingTuple([JORDAN]))
    b = Matrix.identity(2)
    assert verify_cone_isomorphism(c, b)
    # the cone over -b differs in its off-diagonal block, so the signed
    # permutation is no chain map onto the complex of the extended tuple
    cone = koszul._cone
    monkeypatch.setattr(koszul, "_cone", lambda c, b: cone(c, -b))
    assert not verify_cone_isomorphism(c, b)


def _cone_is_square_zero(c, b):
    """The product oracle on the cone, whose own d*d check raises first."""
    try:
        return square_zero(mapping_cone(c, b))
    except AssertionError:
        return False


@pytest.mark.parametrize("old, new", [
    ("top + i * d, 1, 1, b)", "top + (i + 1) % (mid // d) * d, 1, 1, b)"),
    ("(mid, top, 1, -1, c.d(k - 1))", "(mid, top, 1, 1, c.d(k - 1))"),
], ids=["b_in_the_next_block_column", "lower_block_with_plus_sign"])
def test_cone_placement_mutations_are_rejected(monkeypatch, old, new):
    # each mutation keeps every shape; n >= 2, so K_1 has two blocks to swap
    rng = random.Random(71)
    instances = [(build_complex(t), b) for t, b in
                 (random_cone_instance(rng, n, dim) for n, dim in ((2, 2), (2, 3), (3, 2), (3, 3)))]
    for c, b in instances:
        assert verify_cone_isomorphism(c, b) and _cone_is_square_zero(c, b)
    patch_source(monkeypatch, koszul, "_cone", old, new)
    for c, b in instances:
        assert not verify_cone_isomorphism(c, b)
        assert not _cone_is_square_zero(c, b)


def _from_numpy(array):
    """The exact matrix of a float array of Gaussian integers below 2^53."""
    return Matrix([[QQi(int(x.real), int(x.imag)) for x in row] for row in array])


def _placement_oracle_failures():
    """The placements that differ from numpy.kron of the same integer
    operators, which float holds exactly: homology_action's I (x) A on the
    complex of a zero tuple, where H_k is all of C_k so every nonzero A acts
    nonzero, and models' A (x) I + I (x) C."""
    np = pytest.importorskip("numpy")
    rng = random.Random(73)
    failures = set()
    for n, dim in ((1, 3), (2, 3), (2, 4), (3, 2)):
        inner = build_complex(CommutingTuple([Matrix.zeros(dim, dim)] * n))
        ops = random_commuting_tuple(rng, 2, dim).operators
        for k in range(n + 1):
            eye = np.eye(len(koszul.shape(n).bases[k]))
            placed = [_from_numpy(np.kron(eye, op.to_numpy())) for op in ops]
            oracle = linalg.induced_on_subquotient(placed, inner.cycles(k),
                                                   inner.boundaries(k))[0]
            if koszul.homology_action(inner, k, ops) != oracle:
                failures.add("action")
    for _ in range(4):
        base = random_commuting_tuple(rng, 2, rng.randint(1, 3))
        nil = _nilpotent_tuple(rng, 2, rng.randint(2, 3))
        for op, a, c in zip(models._tensor_sums(base, nil), base.operators, nil.operators):
            expected = (np.kron(a.to_numpy(), np.eye(nil.dim))
                        + np.kron(np.eye(base.dim), c.to_numpy()))
            if not np.array_equal(op.to_numpy(), expected):
                failures.add("tensor")
    return failures


@pytest.mark.parametrize("module, path, old, new, rejected_by", [
    (None, None, None, None, set()),
    # columns ignore the step: I (x) m (step 1) is unchanged, m (x) I is not
    (linalg, "Matrix.place", "j, v = col + step * c,", "j, v = col + c,", {"tensor"}),
    (koszul, "homology_action", "(i * d, i * d, 1, 1, op)",
     "(i * d, (count - 1 - i) * d, 1, 1, op)", {"action"}),
], ids=["placed", "column_step_ignored", "action_blocks_reversed"])
def test_placements_match_numpy_kron(monkeypatch, module, path, old, new, rejected_by):
    if module:
        patch_source(monkeypatch, module, path, old, new)
    assert _placement_oracle_failures() == rejected_by


def test_verify_cone_isomorphism_does_no_subtraction(monkeypatch):
    # the pulled-back differentials hold the cone's entries up to sign, so
    # they are compared by equality, not by a difference tested for zero
    rng = random.Random(5)
    instances = [random_cone_instance(rng, n, dim) for n, dim in ((1, 3), (2, 3), (2, 4))]
    complexes = [(build_complex(t), b) for t, b in instances]
    calls = []
    for cls in (QQi, Matrix):
        real = cls.__sub__
        monkeypatch.setattr(cls, "__sub__",
                            lambda x, y, real=real: calls.append(1) or real(x, y))
    for c, b in complexes:
        assert verify_cone_isomorphism(c, b)
    assert calls == []


def test_cone_rejects_non_commuting():
    t = CommutingTuple([JORDAN])
    with pytest.raises(CommutatorError):
        verify_cone_isomorphism(build_complex(t), exact([[1, 0], [1, 1]]))
    with pytest.raises(CommutatorError):
        mapping_cone(build_complex(t), exact([[1, 0], [1, 1]]))


def test_cone_isomorphism_checks_each_pair_once(monkeypatch):
    c = build_complex(CommutingTuple([JORDAN, ZERO2]))
    calls = []
    real = linalg.commutes
    monkeypatch.setattr(linalg, "commutes",
                        lambda a, b: calls.append(1) or real(a, b))
    assert verify_cone_isomorphism(c, exact([[2, 1], [0, 2]]))
    assert len(calls) == 2  # the cone operator against each of the two


def test_cone_scenario_builds_each_complex_once(monkeypatch):
    # K(A) serves both the homology and the cone; K(A, b) is the only other
    # complex, and the cone itself is compared as blocks, not built
    counts = {"build_complex": 0, "ChainComplex": 0}
    real_build = koszul.build_complex
    real_init = koszul.ChainComplex.__init__

    def build(*args, **kwargs):
        counts["build_complex"] += 1
        return real_build(*args, **kwargs)

    def init(self, *args, **kwargs):
        counts["ChainComplex"] += 1
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(koszul, "build_complex", build)
    monkeypatch.setattr(koszul.ChainComplex, "__init__", init)
    scenario = cli.Scenario("cone", "HOMOLOGY", {
        "operators": [[["0", "1"], ["0", "0"]], [["1/2", "0"], ["0", "1/2"]]],
        "cone_with": [["i", "3"], ["0", "i"]]})
    report = cli.run_scenario(scenario)
    assert report["outputs"]["cone_isomorphism"] is True
    assert counts == {"build_complex": 2, "ChainComplex": 2}


def test_end_groups_match_kernel_and_cokernel():
    rng = random.Random(41)
    for _ in range(10):
        t = random_commuting_tuple(rng, 2, 5)
        dims = homology(build_complex(t)).dims
        top = linalg.kernel_basis(stacked(t.operators)).cols
        bottom = t.dim - linalg.rank(Matrix.hstack(t.operators))
        assert dims[-1] == top and dims[0] == bottom
